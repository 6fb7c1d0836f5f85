import hashlib
import tracemalloc

import numpy as np
import pytest
from conftest import dense, mean_photon
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh
from scipy.special import gammainc

from otoclab import cli
from otoclab.errors import TailTooHeavy
from otoclab.fock import (
    TAIL_TOL,
    CoherentParams,
    FockDim,
    HihoParams,
    Model,
    build_hamiltonian,
    build_hiho,
    build_iho,
    coherent_state,
    coherent_tail,
    hiho,
    iho,
    make_ladder,
    quadratures,
)


def test_fockdim_invariants():
    d = FockDim(9)
    assert d.dim == 10
    with pytest.raises(ValueError):
        FockDim(0)


def test_ladder_small_dims():
    a, a_dag = make_ladder(FockDim(1))
    assert a[0, 1] == 1.0
    assert np.count_nonzero(a) == 1
    a4, _ = make_ladder(FockDim(3))
    assert a4[2, 3] == pytest.approx(np.sqrt(3))


def test_number_operator_from_ladder():
    a, a_dag = make_ladder(FockDim(9))
    n_op = a_dag @ a
    assert np.allclose(n_op, np.diag(np.arange(10.0)))
    # a a_dag picks up the truncation artifact only in its last entry
    lower = a @ a_dag
    assert np.allclose(np.diag(lower)[:-1], np.arange(1.0, 10.0))
    assert lower[9, 9] == 0.0


def test_commutator_truncation_signature():
    for n_p in (1, 4, 19, 99):
        a, a_dag = make_ladder(FockDim(n_p))
        comm = a @ a_dag - a_dag @ a
        expected = np.eye(n_p + 1, dtype=complex)
        expected[n_p, n_p] = -n_p
        # (sqrt(n))**2 is only float-exact for perfect squares
        assert np.allclose(comm, expected, rtol=0, atol=1e-12)


def test_quadrature_entries():
    X, P = quadratures(FockDim(1))
    assert X[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert X[1, 0] == pytest.approx(1 / np.sqrt(2))
    assert P[0, 1] == pytest.approx(-1j / np.sqrt(2))
    assert P[1, 0] == pytest.approx(1j / np.sqrt(2))


def test_quadrature_commutator():
    d = FockDim(19)
    X, P = quadratures(d)
    comm = X @ P - P @ X
    block = comm[:-1, :-1]
    assert np.allclose(block, 1j * np.eye(d.dim - 1), atol=1e-12)
    assert comm[-1, -1] != 1j  # truncation breaks the identity at the edge


@pytest.mark.parametrize("n_p", [1, 2, 3, 4, 5, 6, 39, 150, 599])
def test_hamiltonians_hermitian(n_p):
    d = FockDim(n_p)
    H_iho = dense(build_iho(d))
    H_hiho = dense(build_hiho(d, HihoParams(3.0, 0.04)))
    # the band-built matrices equal the truncated ladder products, including
    # at n_p <= 3 where the +-4 offsets of (a^dag + a)^4 exceed the dimension
    a, a_dag = make_ladder(d)
    A, B = a_dag - a, a_dag + a
    B2 = B @ B
    iho_ref = -(a @ a + a_dag @ a_dag) / 2
    hiho_ref = -(A @ A) / 2 - 9 * B2 / 8 + (0.04 / 4) * (B2 @ B2)
    assert np.array_equal(H_iho, iho_ref)
    assert np.max(np.abs(H_hiho - hiho_ref)) <= 1e-14 * np.max(np.abs(hiho_ref))
    # a general member of the family, kappa outside {1/2, 1} with v2, v4 > 0
    m = Model(0.3, 1.7, 2.5)
    H_model = dense(build_hamiltonian(d, m))
    model_ref = m.kappa * (-(A @ A) / 2) + m.v2 * B2 / 2 + m.v4 * (B2 @ B2) / 4
    assert np.max(np.abs(H_model - model_ref)) <= 1e-14 * np.max(np.abs(model_ref))


# shape and sha256 of ``.lower.tobytes()``: a refactor of the builder that
# moves one bit of H moves C(t) and the Husimi grids with it. Finite cases
# only, as nan bit patterns differ between CPUs.
PINNED_LOWER = {
    ("iho", 1): ((1, 2), "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    ("iho", 3): ((3, 4), "9aa64045fd78f931fa64655419e8c885ad0884f3d79625de0e5de79e4654428b"),
    ("iho", 250): ((3, 251), "66bc8727bc11c9ae106332d8aacc47e96ced24da3645b52bb456f427a20372f7"),
    ("iho", 1200): ((3, 1201), "81370937a867d903b9168889fcc8c4d1a28ac9d3584d2b0ef40c64f1d2dc33e6"),
    ("hiho", 1): ((1, 2), "2ee6f793be6432fde4b1d72bfd59221ff14c4e77ca5e68134d769357d76713d4"),
    ("hiho", 3): ((3, 4), "b08079dd05d33d5b74f996b08b153ed6efe9b63c8ec30c6677cd1438fb842379"),
    ("hiho", 250): ((5, 251), "a5bb70b21b499c8fa72a7f8100902e13d3227386e7118c3a9aee4b46af1c2139"),
    ("hiho", 1200): ((5, 1201), "17fa457cbf6be3e761c0725c14565fce25baae0785377355b999bf6b07e1c43b"),
}


@pytest.mark.parametrize("system, n_p", sorted(PINNED_LOWER))
def test_hamiltonian_bits_are_pinned(system, n_p):
    model = iho() if system == "iho" else hiho(3.0, 0.04)
    lower = build_hamiltonian(FockDim(n_p), model).lower
    assert (lower.shape, hashlib.sha256(lower.tobytes()).hexdigest()) == PINNED_LOWER[system, n_p]


def test_banded_shape_is_the_matrix_shape():
    for n_p in (1, 2, 4, 39):
        d = FockDim(n_p)
        assert build_iho(d).shape == (d.dim, d.dim)
        assert build_hiho(d, HihoParams(3.0, 0.04)).shape == (d.dim, d.dim)


def test_build_is_o_of_d_memory():
    # a dense D x D float64 matrix at D = 3001 alone is 68.7 MiB
    tracemalloc.start()
    try:
        build_hamiltonian(FockDim(3000), hiho(3.0, 0.04))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_iho_entries():
    H = dense(build_iho(FockDim(2)))
    assert H[0, 2] == pytest.approx(-np.sqrt(2) / 2)
    assert H[2, 0] == pytest.approx(-np.sqrt(2) / 2)
    assert np.allclose(np.diag(dense(build_iho(FockDim(24)))), 0.0)


def test_iho_spectrum_symmetric():
    lam = np.linalg.eigvalsh(dense(build_iho(FockDim(39))))
    assert np.allclose(lam, -lam[::-1], atol=1e-10)


def test_hiho_equals_momentum_plus_potential():
    # independent assembly through operator polynomials in X
    d = FockDim(29)
    params = HihoParams(3.0, 0.04)
    H = dense(build_hiho(d, params))
    X, P = quadratures(d)
    X2 = X @ X
    V = -params.gamma**2 * X2 / 4 + params.g * X2 @ X2
    H2 = P @ P + V
    assert np.max(np.abs(H[:20, :20] - H2[:20, :20])) <= 1e-10


def test_hiho_ground_state_above_the_well_floor():
    # the floor is V = -v0, as H leaves out the constant v0
    H = dense(build_hiho(FockDim(250), HihoParams(3.0, 1 / 25)))
    e0 = eigh(H, eigvals_only=True, subset_by_index=(0, 0))[0]
    assert e0 > -hiho(3.0, 1 / 25).v0


def test_coherent_vacuum():
    c = coherent_state(FockDim(10), CoherentParams(0.0, 0.0))
    assert c[0] == 1.0
    assert np.all(c[1:] == 0.0)


def test_coherent_mean_photon():
    psi = coherent_state(FockDim(100), CoherentParams(3.0, 3.0))
    assert mean_photon(psi) == pytest.approx(9.0, abs=1e-8)


def test_coherent_fig1_point():
    psi = coherent_state(FockDim(200), CoherentParams(-4.267, 5.643))
    expected = (4.267**2 + 5.643**2) / 2
    assert mean_photon(psi) == pytest.approx(expected, abs=1e-6)


def test_coherent_poisson_peak():
    psi = coherent_state(FockDim(150), CoherentParams(5.0, -5.0))
    probs = np.abs(psi) ** 2
    assert np.argmax(probs) == 25


def test_coherent_tail_too_heavy():
    with pytest.raises(TailTooHeavy):
        coherent_state(FockDim(10), CoherentParams(5.0, 5.0))


@pytest.mark.parametrize("D", [2, 38, 251, 1201, 8001])
def test_coherent_tail_matches_gammainc(D):
    # P(N >= D) = gammainc(D, mu); ln p_n carries about D ln(mu) eps, which
    # reached 1.5e-11 relative at D = 8001
    dim = FockDim(D - 1)
    means = np.concatenate([np.linspace(0.0, 2.0 * D, 201),
                            [1e-300, 1e-3, D - 1.0, D, D + 1.0, 1e300, np.inf]])
    for mu in means:
        ref = gammainc(D, mu)
        got = coherent_tail(mu, dim)
        if ref > 1e-300:
            assert abs(got - ref) <= 1e-10 * ref, (D, mu)
        else:
            assert 0.0 <= got <= 1e-290, (D, mu)


def test_tail_guard_decides_as_gammainc_for_every_bundled_point():
    # every n_p a bundled config names, and the 4x photon reference of each
    for name in cli.FIGURES:
        cfg = cli._load_bundled(name)
        for n_p in (*cfg.n_p, cli.REFERENCE_FACTOR * max(cfg.n_p)):
            for pt in cfg.points:
                mu = abs(CoherentParams(pt.q, pt.p).beta) ** 2
                assert ((coherent_tail(mu, FockDim(n_p)) >= TAIL_TOL)
                        == (gammainc(n_p + 1, mu) >= TAIL_TOL)), (name, n_p, pt)


def test_coherent_params_beta():
    cp = CoherentParams(3.0, -4.0)
    assert abs(cp.beta) ** 2 == pytest.approx((9 + 16) / 2)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(-9, 9),
    p=st.floats(-9, 9),
)
def test_coherent_mean_photon_property(q, p):
    # |beta|^2 <= 40.5 = D/4 at D=162
    psi = coherent_state(FockDim(161), CoherentParams(q, p))
    assert mean_photon(psi) == pytest.approx((q * q + p * p) / 2, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    q1=st.floats(-4, 4), p1=st.floats(-4, 4),
    q2=st.floats(-4, 4), p2=st.floats(-4, 4),
)
def test_coherent_overlap_law(q1, p1, q2, p2):
    d = FockDim(161)
    c1 = coherent_state(d, CoherentParams(q1, p1))
    c2 = coherent_state(d, CoherentParams(q2, p2))
    b1 = CoherentParams(q1, p1).beta
    b2 = CoherentParams(q2, p2).beta
    overlap = abs(np.vdot(c1, c2)) ** 2
    assert overlap == pytest.approx(np.exp(-abs(b1 - b2) ** 2), abs=1e-8)
