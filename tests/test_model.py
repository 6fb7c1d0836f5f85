"""One Hamiltonian model for both sides: the quantum operator built from a
``Model`` and the classical energy and flow derived from the same ``Model``
must describe the same system."""
import numpy as np
import pytest
from conftest import dense

from otoclab.classical import (
    ClassicalState,
    energy,
    hamilton_rhs,
    hiho,
    iho,
    jacobian_matrix,
)
from otoclab.config import ExperimentConfig, LabeledPoint
from otoclab.fock import CoherentParams, FockDim, build_hamiltonian, coherent_state

MODELS = {"iho": iho(), "hiho": hiho(3.0, 0.04)}
CENTRES = [(0.0, 0.0), (1.5, -0.5), (-2.0, 3.0), (3.0, 3.0), (4.0, -1.0)]


@pytest.mark.parametrize("name", MODELS)
def test_coherent_expectation_is_classical_energy_plus_ordering_terms(name):
    # <beta|H|beta> = kappa <P^2> + v2 <X^2> + v4 <X^4> with
    # <P^2> = p^2 + 1/2, <X^2> = q^2 + 1/2, <X^4> = q^4 + 3 q^2 + 3/4: the
    # quantum operator leaves out the classical energy's constant v0
    m = MODELS[name]
    dim = FockDim(120)
    H = dense(build_hamiltonian(dim, m))
    for q, p in CENTRES:
        psi = coherent_state(dim, CoherentParams(q, p))
        quantum = float(np.real(np.vdot(psi, H @ psi)))
        ordering = m.kappa / 2 + m.v2 / 2 + m.v4 * (3 * q * q + 3 / 4)
        assert quantum == pytest.approx(energy(m, q, p) - m.v0 + ordering, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", MODELS)
def test_jacobian_is_the_derivative_of_the_flow(name):
    m = MODELS[name]
    h = 1e-6
    for q, p in CENTRES + [(8.0, 9.0)]:
        J = jacobian_matrix(m, ClassicalState(q, p))
        fd = np.empty((2, 2))
        for col, (dq, dp) in enumerate(((h, 0.0), (0.0, h))):
            plus = hamilton_rhs(m, ClassicalState(q + dq, p + dp))
            minus = hamilton_rhs(m, ClassicalState(q - dq, p - dp))
            fd[:, col] = (np.array(plus) - np.array(minus)) / (2 * h)
        assert np.allclose(fd, J, rtol=1e-7, atol=1e-6)


@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_config_hamiltonian_is_its_model_built(system):
    params = {"gamma": 3.0, "g": 0.04} if system == "hiho" else {}
    cfg = ExperimentConfig(system=system, n_p=(40,), points=(LabeledPoint("A", 0.0, 0.0),),
                           t_end=1.0, n_samples=2, **params)
    assert cfg.model() == MODELS[system]
    for n_p in (1, 2, 5, 40):
        dim = FockDim(n_p)
        assert np.array_equal(cfg.hamiltonian(dim).lower,
                              build_hamiltonian(dim, cfg.model()).lower)
