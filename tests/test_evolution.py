import numpy as np
import pytest
from conftest import banded, dense
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

from otoclab import fock
from otoclab.errors import DimMismatch, NotHermitian
from otoclab.evolution import (
    commutator_otoc,
    diagonalize,
    evolve,
    evolve_batch,
    expect,
    photon_series,
    variance_otoc,
)
from otoclab.fock import (
    CoherentParams,
    FockDim,
    HihoParams,
    build_hiho,
    build_iho,
    coherent_state,
    quadratures,
)


def test_diagonalize_diagonal_matrix():
    prop = diagonalize(banded(np.diag([0.0, 1.0, 2.0]).astype(complex)))
    assert np.allclose(prop.eigenvalues, [0, 1, 2])
    assert np.allclose(np.abs(prop.eigenvectors), np.eye(3))


def test_diagonalize_rejects_non_hermitian(monkeypatch):
    # the Hermiticity guard compares band k with band -k at build time
    band_matmul = fock._band_matmul

    def skewed(M, N):
        out = band_matmul(M, N)
        out[-2] = out[-2] * (1 + 1e-9)
        return out

    monkeypatch.setattr(fock, "_band_matmul", skewed)
    with pytest.raises(NotHermitian, match="Hermiticity defect"):
        diagonalize(build_iho(FockDim(10)))


def _random_hermitian(D, seed=3):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return (M + M.conj().T) / 2


@pytest.mark.parametrize("case, n_blocks", [
    ("iho", 2),
    ("hiho", 2),
    ("random", 1),  # no parity structure: one whole, fully dense block
])
def test_banded_propagator_matches_dense_eigh(case, n_blocks):
    # dense LAPACK eigh of the same H is the reference implementation
    d = FockDim(300)
    H = {
        "iho": lambda: build_iho(d),
        "hiho": lambda: build_hiho(d, HihoParams(3.0, 0.04)),
        "random": lambda: banded(_random_hermitian(d.dim)),
    }[case]()
    lam, V = eigh(dense(H))
    prop = diagonalize(H)
    assert len(prop.blocks) == n_blocks
    assert np.max(np.abs(prop.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))
    psi0 = coherent_state(d, CoherentParams(2.0, -1.0))
    times = np.array([0.0, 0.1, 0.7, 1.5])
    batch = evolve_batch(prop, psi0, times)
    for k, t in enumerate(times):
        ref = V @ (np.exp(-1j * lam * t) * (V.conj().T @ psi0))
        single = evolve(prop, psi0, t)
        assert np.max(np.abs(single - ref)) <= 1e-10
        assert np.max(np.abs(batch[:, k] - single)) <= 1e-13


def test_propagator_invariants(hiho_prop):
    prop = hiho_prop(250)
    V = prop.eigenvectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(251))) <= 1e-10
    H = V @ (prop.eigenvalues[:, None] * V.conj().T)
    H_ref = dense(build_hiho(FockDim(250), HihoParams(3.0, 0.04)))
    assert np.max(np.abs(H - H_ref)) <= 1e-9 * np.max(np.abs(H_ref))


def test_iho_spectrum_symmetric(iho_prop):
    lam = iho_prop(39).eigenvalues
    assert np.allclose(lam, -lam[::-1], atol=1e-10)


def test_evolve_identity_at_zero(iho_prop):
    d = FockDim(59)
    psi = coherent_state(d, CoherentParams(2.0, 1.0))
    out = evolve(iho_prop(59), psi, 0.0)
    assert np.max(np.abs(out - psi)) <= 1e-12


def test_evolve_eigenstate_phase(iho_prop):
    prop = iho_prop(39)
    psi = prop.eigenvectors[:, 5].copy()
    out = evolve(prop, psi, 0.7)
    phase = np.exp(-1j * prop.eigenvalues[5] * 0.7)
    assert np.max(np.abs(out - phase * psi)) <= 1e-10


def test_evolve_dim_mismatch(iho_prop):
    with pytest.raises(DimMismatch):
        evolve(iho_prop(39), np.zeros(10, dtype=complex), 1.0)


def test_unitarity_and_group_law(iho_prop):
    prop = iho_prop(120)
    psi = coherent_state(FockDim(120), CoherentParams(3.0, 3.0))
    for t in (0.3, 1.1, 2.7):
        assert abs(np.linalg.norm(evolve(prop, psi, t)) - 1) <= 1e-10
    two_step = evolve(prop, evolve(prop, psi, 0.6), 0.9)
    one_step = evolve(prop, psi, 1.5)
    assert np.max(np.abs(two_step - one_step)) <= 1e-9


def test_energy_conservation(iho_prop):
    prop = iho_prop(120)
    H = dense(build_iho(FockDim(120)))
    psi = coherent_state(FockDim(120), CoherentParams(2.0, -2.0))
    e0 = expect(psi, H)
    for t in (0.5, 1.0, 1.5):
        et = expect(evolve(prop, psi, t), H)
        assert abs(et - e0) <= 1e-9 * max(1.0, abs(e0))


def test_expect_coherent_quadratures():
    d = FockDim(120)
    X, P = quadratures(d)
    psi = coherent_state(d, CoherentParams(1.5, -2.5))
    assert expect(psi, X) == pytest.approx(1.5, abs=1e-8)
    assert expect(psi, P) == pytest.approx(-2.5, abs=1e-8)


def test_expect_vacuum_momentum_variance():
    d = FockDim(10)
    _, P = quadratures(d)
    vac = coherent_state(d, CoherentParams(0.0, 0.0))
    assert expect(vac, P @ P) == pytest.approx(0.5, abs=1e-12)


def test_variance_otoc_initial_value(iho_prop):
    psi = coherent_state(FockDim(120), CoherentParams(2.0, 2.0))
    series = variance_otoc(iho_prop(120), psi, np.array([0.0, 0.1]))
    assert series.values[0] == pytest.approx(0.5, abs=1e-8)


def test_commutator_oracle_at_zero(iho_prop):
    d = FockDim(59)
    _, P = quadratures(d)
    psi = coherent_state(d, CoherentParams(1.0, 2.0))
    assert commutator_otoc(iho_prop(59), psi, P, 0.0) == pytest.approx(0.5, abs=1e-8)


def test_commutator_oracle_matches_variance_iho(iho_prop):
    d = FockDim(59)
    prop = iho_prop(59)
    _, P = quadratures(d)
    psi = coherent_state(d, CoherentParams(4.0, -4.0))
    ts = np.array([0.1, 0.5, 1.0])
    series = variance_otoc(prop, psi, ts)
    for t, v in zip(ts, series.values):
        assert abs(commutator_otoc(prop, psi, P, t) - v) <= 1e-8


def test_commutator_oracle_matches_variance_hiho(hiho_prop):
    d = FockDim(59)
    prop = hiho_prop(59)
    _, P = quadratures(d)
    rng = np.random.default_rng(7)
    q, p = rng.uniform(-2, 2, size=2)
    psi = coherent_state(d, CoherentParams(q, p))
    series = variance_otoc(prop, psi, np.array([0.0, 0.05]))
    assert abs(commutator_otoc(prop, psi, P, 0.05) - series.values[1]) <= 1e-8


@settings(max_examples=15, deadline=None)
@given(q=st.floats(-3, 3), p=st.floats(-3, 3), t=st.floats(0, 2))
def test_oracle_equivalence_property(q, p, t):
    d = FockDim(59)
    prop = diagonalize(build_iho(d))
    _, P = quadratures(d)
    psi = coherent_state(d, CoherentParams(q, p))
    v = variance_otoc(prop, psi, np.array([0.0, max(t, 1e-9)])).values[1]
    assert abs(commutator_otoc(prop, psi, P, max(t, 1e-9)) - v) <= 1e-8


def test_photon_series_stationary(iho_prop):
    prop = iho_prop(39)
    psi = prop.eigenvectors[:, 3].copy()
    series = photon_series(prop, psi, np.linspace(0, 2, 9))
    assert np.max(np.abs(series.values - series.values[0])) <= 1e-9


def test_photon_series_point_b(iho_prop):
    d = FockDim(300)
    psi = coherent_state(d, CoherentParams(3.0, 3.0))
    series = photon_series(iho_prop(300), psi, np.linspace(0, 1.0, 21))
    assert series.values[0] == pytest.approx(9.0, abs=1e-8)
    assert np.all(np.diff(series.values) > 0)  # grows on the unstable manifold
    assert np.all(series.values <= 300)


def test_photon_series_point_a_dips_then_grows(iho_prop):
    d = FockDim(300)
    psi = coherent_state(d, CoherentParams(5.0, -5.0))
    series = photon_series(iho_prop(300), psi, np.linspace(0, 4.0, 81))
    i_min = int(np.argmin(series.values))
    assert 0 < i_min < len(series.values) - 1
    assert series.values[i_min] < series.values[0]
    assert series.values[-1] > series.values[0]
