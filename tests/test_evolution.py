import math
import tracemalloc
import weakref

import conftest
import numpy as np
import pytest
from conftest import banded, dense, expect
from hypothesis import given, settings, strategies as st
from scipy.linalg import eig_banded, eigh

from otoclab import evolution
from otoclab.errors import TruncationGuardError
from otoclab.evolution import (
    commutator_otoc,
    diagonalize,
    evolve,
    evolve_batch,
    photon_series,
    variance_otoc,
)
from otoclab.fock import (
    Banded,
    CoherentParams,
    FockDim,
    HihoParams,
    build_hiho,
    build_iho,
    coherent_state,
    quadratures,
)


def test_diagonalize_diagonal_matrix():
    prop = diagonalize(banded(np.diag([0.0, 1.0, 2.0])))
    assert np.allclose(prop.eigenvalues, [0, 1, 2])
    assert np.allclose(np.abs(prop.eigenvectors), np.eye(3))


def test_diagonalize_rejects_a_complex_band():
    H = dense(build_iho(FockDim(10))).astype(complex)
    H[2, 0], H[0, 2] = -1j, 1j
    with pytest.raises(ValueError, match="real band"):
        diagonalize(banded(H))
    with pytest.raises(ValueError, match="real band"):
        diagonalize(banded(dense(build_iho(FockDim(10))).astype(complex)))


def test_diagonalize_rejects_nonzero_odd_diagonals():
    # a cross-parity coupling |0><1| + |1><0|: H no longer commutes with parity
    H = dense(build_hiho(FockDim(10), HihoParams(3.0, 0.04)))
    H[1, 0] = H[0, 1] = 0.5
    with pytest.raises(ValueError, match="odd diagonals"):
        diagonalize(banded(H))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_diagonalize_rejects_a_non_finite_band(bad):
    lower = np.zeros((3, 5))
    lower[0] = [1.0, 2.0, bad, 3.0, 4.0]
    with pytest.raises(ValueError, match="finite real band"):
        diagonalize(Banded(lower))


def test_an_overflowed_build_is_refused_by_diagonalize():
    # g = 1e305 takes the quartic band past the float range: the build
    # leaves inf or nan there without a warning, and its row sum is not finite
    H = build_hiho(FockDim(40), HihoParams(3.0, 1e305))
    assert not np.all(np.isfinite(H.lower))
    assert not math.isfinite(H.max_row_sum)
    with pytest.raises(ValueError, match="finite real band"):
        diagonalize(H)


def test_max_row_sum_is_the_dense_infinity_norm():
    for H in (build_iho(FockDim(30)), build_hiho(FockDim(30), HihoParams(3.0, 0.04))):
        M = dense(H)
        assert H.max_row_sum == pytest.approx(np.max(np.sum(np.abs(M), axis=1)), rel=1e-15)
        assert np.max(np.abs(np.linalg.eigvalsh(M))) <= H.max_row_sum


@pytest.mark.parametrize("case, n_blocks", [("iho", 2), ("hiho", 2)])
def test_banded_propagator_matches_dense_eigh(case, n_blocks):
    # dense LAPACK eigh of the same H is the reference implementation
    d = FockDim(300)
    H = {
        "iho": lambda: build_iho(d),
        "hiho": lambda: build_hiho(d, HihoParams(3.0, 0.04)),
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


@pytest.mark.parametrize("n_p", [1, 2, 37, 300, 1200])
@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_block_eigenpairs_match_eig_banded(system, n_p):
    # scipy's eig_banded on the same parity band is the reference (with
    # eigenvectors: its eigvals_only path is itself 8e-15 off at IHO
    # n_p = 1200); the IHO's zero-diagonal tridiagonal blocks take the SVD
    # path, the HIHO's the dense one, and n_p = 2, 300 and 1200 give blocks
    # of even and odd size
    d = FockDim(n_p)
    H = build_iho(d) if system == "iho" else build_hiho(d, HihoParams(3.0, 0.04))
    eps = np.finfo(float).eps
    for (_, lam, V), band in zip(diagonalize(H).blocks,
                                 (H.lower[0::2, 0::2], H.lower[0::2, 1::2])):
        A = dense(Banded(band))
        lam_ref = eig_banded(band, lower=True)[0]
        scale = max(np.max(np.abs(lam_ref)), 1.0)
        assert np.all(np.diff(lam) >= 0)
        assert V.shape == A.shape and V.flags.f_contiguous
        assert np.max(np.abs(lam - lam_ref)) <= 32 * eps * scale
        assert np.max(np.abs(A @ V - V * lam)) <= 32 * eps * scale
        assert np.max(np.abs(V.T @ V - np.eye(len(lam)))) <= 64 * eps


def test_propagator_invariants(hiho_prop):
    prop = hiho_prop(250)
    V = prop.eigenvectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(251))) <= 1e-10
    H = V @ (prop.eigenvalues[:, None] * V.conj().T)
    H_ref = dense(build_hiho(FockDim(250), HihoParams(3.0, 0.04)))
    assert np.max(np.abs(H - H_ref)) <= 1e-9 * np.max(np.abs(H_ref))


def test_propagators_compare_and_hash_by_identity():
    # comparing the array blocks used to raise ValueError, hashing the
    # slices TypeError
    H = build_iho(FockDim(20))
    a, b = diagonalize(H), diagonalize(H)
    assert a != b and not a == b
    assert a == a and b == b
    kept = {a: "a", b: "b"}
    assert kept[a] == "a" and kept[b] == "b"
    # the slot is written in place, and changes neither
    evolve(a, coherent_state(FockDim(20), CoherentParams(1.0, 0.5)), 0.3)
    assert a._last_rows is not None and kept[a] == "a" and a != b


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
    with pytest.raises(ValueError, match="state dim 10 != propagator dim 40"):
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


def test_photon_series_nan_tail_trips_the_guard(iho_prop):
    # lambda t past the float range makes psi(t) nan; the guard used to read
    # the nan tail as a pass
    prop = iho_prop(39)
    psi = coherent_state(FockDim(39), CoherentParams(1.0, 1.0))
    times = np.array([0.0, 0.5, 1e308, 1.5e308])
    with np.errstate(over="ignore", invalid="ignore"):
        tails = evolution._rows(prop, psi, times)[2]
        assert np.isnan(tails[2:]).all() and (tails[:2] <= evolution.TAIL_GUARD_TOL).all()
        with pytest.raises(TruncationGuardError, match=r"tail population nan .* at t=1e\+308 "):
            photon_series(prop, psi, times, tail_guard=True)


# ---------------------------------------------------------------------------
# Reference implementations: evolution and observables as they were before the
# phase table, the column blocks and the spectral window. Production drops
# the components the window leaves out, so its states are held to the window
# bound of these (``_state_bound``), and its observables to the bound that
# follows (``_observable_bounds``); reduced from the same state, the
# observables differ from the references' by rounding alone
# (``_rounding_bounds``).

EPS = np.finfo(float).eps


def _reference_apply(M, X):
    X = np.ascontiguousarray(X, dtype=complex)
    out = M @ X.view(np.float64).reshape(X.shape[0], -1)
    return out.view(np.complex128).reshape(X.shape)


def _reference_evolve_batch(prop, psi0, times):
    times = np.asarray(times, dtype=float)
    psi0 = np.asarray(psi0, dtype=complex)
    out = np.empty((prop.dim.dim, times.size), dtype=complex)
    for idx, lam, V in prop.blocks:
        c = _reference_apply(V.conj().T, psi0[idx])
        phases = np.exp(-1j * np.outer(lam, times))
        out[idx] = _reference_apply(V, phases * c[:, None])
    return out


def _reference_evolve(prop, psi0, t):
    psi0 = np.asarray(psi0, dtype=complex)
    out = np.empty(prop.dim.dim, dtype=complex)
    for idx, lam, V in prop.blocks:
        c = _reference_apply(V.conj().T, psi0[idx])
        out[idx] = _reference_apply(V, np.exp(-1j * lam * t) * c)
    return out


def _apply_momentum(Psi):
    """P @ Psi for P = i(a^dag - a)/sqrt(2), as a two-term stencil over the
    truncated ladder: (P psi)[n] = i (sqrt(n) psi[n-1] - sqrt(n+1) psi[n+1])/sqrt(2)."""
    s = (np.sqrt(np.arange(1, Psi.shape[0])) / np.sqrt(2))[:, None]
    out = np.zeros_like(Psi)
    out[1:] = s * Psi[:-1]
    out[:-1] -= s * Psi[1:]
    return 1j * out


def _variance_of(Psi):
    PPsi = _apply_momentum(Psi)
    exp_p = np.real(np.sum(Psi.conj() * PPsi, axis=0))
    exp_p2 = np.real(np.sum(PPsi.conj() * PPsi, axis=0))
    return exp_p2 - exp_p**2


def _photon_of(Psi, times, label="", tail_guard=False):
    if tail_guard:
        D = Psi.shape[0]
        k = D - math.ceil(D / 10)
        tails = np.sum(np.abs(Psi[k:, :]) ** 2, axis=0)
        bad = np.nonzero(~(tails <= evolution.TAIL_GUARD_TOL))[0]
        if bad.size:
            i = bad[0]
            raise TruncationGuardError(
                f"{label or 'run'}: tail population {tails[i]:.3e} above n={k} "
                f"at t={times[i]:.6g} exceeds {evolution.TAIL_GUARD_TOL}; increase n_p"
            )
    n = np.arange(Psi.shape[0])
    return np.sum(n[:, None] * np.abs(Psi) ** 2, axis=0)


def _reference_variance(prop, psi0, times):
    return _variance_of(_reference_evolve_batch(prop, psi0, times))


def _reference_photon(prop, psi0, times, label="", tail_guard=False):
    return _photon_of(_reference_evolve_batch(prop, psi0, times), times, label, tail_guard)


def _state_bound(prop, psi0):
    """eta = 2 tau |psi0|, tau = eps sqrt(D). The window drops components
    of total weight at most tau^2 |psi0|^2 from c; V is orthogonal and
    |e^{-i lam t}| = 1, so every psi(t) moves by at most tau |psi0|. The
    second tau covers the rounding of the two products being compared."""
    return 2 * EPS * math.sqrt(prop.dim.dim) * np.linalg.norm(psi0)


def _assert_columns_within(got, want, eta):
    err = np.linalg.norm(got - want, axis=0)
    assert np.all(err <= eta), f"max |psi - psi_ref| = {err.max() / eta:.3g} eta"


def _observable_bounds(Psi_ref, eta):
    """Per-time bounds on |C - C_ref| and |<n> - <n>_ref| for states within
    eta of the columns of Psi_ref (unit norm).

    For Hermitian A and |psi - psi_ref| <= eta, <A> moves by at most
    2 |A psi_ref| eta + |A| eta^2, with |P| <= sqrt(2 (D - 1)) and
    |N| = D - 1; |P psi|^2 moves by at most |P| eta (2 |P psi_ref| + |P| eta),
    and <P>^2 by d<P> (2 |<P>| + d<P>). On top, each side sums D rows one
    after the other, which rounds by at most (D + 5) eps times the sum of
    the absolute terms."""
    D = Psi_ref.shape[0]
    p = math.sqrt(2 * (D - 1))
    PPsi = _apply_momentum(Psi_ref)
    p_norm = np.linalg.norm(PPsi, axis=0)
    exp_p = np.abs(np.real(np.sum(Psi_ref.conj() * PPsi, axis=0)))
    n = np.arange(D)[:, None]
    n_norm = np.linalg.norm(n * Psi_ref, axis=0)
    exp_n = np.sum(n * np.abs(Psi_ref) ** 2, axis=0)
    g = (D + 5) * EPS
    d_p = 2 * p_norm * eta + p * eta**2
    d_c = (p * eta * (2 * p_norm + p * eta) + d_p * (2 * exp_p + d_p)
           + 2 * g * (p_norm**2 + 2 * exp_p * p_norm))
    d_n = 2 * n_norm * eta + (D - 1) * eta**2 + 2 * g * exp_n
    return d_c, d_n


def _rounding_bounds(Psi):
    """Per-time bounds on |C - C_ref| and |<n> - <n>_ref| when both are
    reduced from the same Psi: production as weighted contractions of its
    real view, the references through the momentum stencil.

    With half_w = sum_j w_j |psi_j|^2 / 2 (w_j = 2j + 1, w_{D-1} = D - 1),
    cross = sum_m sqrt(m (m+1)) |psi_{m-1}| |psi_{m+1}| and
    y = sum_j sqrt(j+1) |psi_j| |psi_{j+1}|, the absolute terms of |P psi|^2
    sum to at most half_w + cross on either side, and those of <P> to at
    most sqrt(2) y, so with |<P>| <= sqrt(2) y each side's <P>^2 rounds by
    about 4 g y^2. g = gamma_{D+16} covers a sum of D terms in any order
    plus the squares, products, square roots and differences each term
    passes through; <n> rounds by at most g <n> on each side."""
    D = Psi.shape[0]
    a = np.abs(Psi)
    n = np.arange(D)[:, None]
    w = 2.0 * n + 1
    w[-1] = D - 1
    half_w = np.sum(w * a**2, axis=0) / 2
    cross = np.sum(np.sqrt(n[1:-1] * n[2:]) * a[:-2] * a[2:], axis=0)
    y = np.sum(np.sqrt(n[1:]) * a[:-1] * a[1:], axis=0)
    g = (D + 16) * EPS / (1 - (D + 16) * EPS)
    return 2 * g * (half_w + cross + 4 * y**2), 2 * g * np.sum(n * a**2, axis=0)


def _outcome(fn, *args, **kwargs):
    """The values fn returns, or the message of the guard error it raises."""
    try:
        out = fn(*args, **kwargs)
    except TruncationGuardError as exc:
        return str(exc)
    return getattr(out, "values", out)


def _assert_outcome_within(got, want, bound):
    """The same guard message, or values within bound of each other."""
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.all(np.abs(got - want) <= bound)


def _assert_series_within_bound(prop, psi0, times, label="", tail_guard=False):
    """variance_otoc and photon_series against the references, within the
    bounds that follow from the state bound; a guard error names the same
    time in the same words."""
    Psi_ref = _reference_evolve_batch(prop, psi0, times)
    d_c, d_n = _observable_bounds(Psi_ref, _state_bound(prop, psi0))
    got = variance_otoc(prop, psi0, times, label).values
    assert np.all(np.abs(got - _variance_of(Psi_ref)) <= d_c)
    want = _outcome(_photon_of, Psi_ref, times, label, tail_guard)
    got = _outcome(photon_series, prop, psi0, times, label, tail_guard)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.all(np.abs(got - want) <= d_n)


@pytest.mark.parametrize("tail_guard", [False, True])
@pytest.mark.parametrize("n_samples", [601, 37])
@pytest.mark.parametrize("n_p", [75, 300, 1200])
@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_evolution_and_observables_equal_reference(
        system, n_p, n_samples, tail_guard, iho_prop, hiho_prop, no_rows):
    prop = iho_prop(n_p) if system == "iho" else hiho_prop(n_p)
    psi0 = coherent_state(FockDim(n_p), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 3.0, n_samples)
    label = f"{system}/np{n_p}"
    Psi = evolve_batch(prop, psi0, times)
    _assert_columns_within(Psi, _reference_evolve_batch(prop, psi0, times),
                           _state_bound(prop, psi0))
    _assert_series_within_bound(prop, psi0, times, label, tail_guard)
    # reduced from the same evolved state, the observables differ from the
    # references' by rounding alone. The rows evolve the grid in column
    # blocks, and a GEMM over a block can round a column differently from
    # one over the whole grid, so the same state is the blocks' state.
    k = evolution.COLUMN_BLOCK
    Psi = np.concatenate([evolve_batch(prop, psi0, times[j:j + k])
                          for j in range(0, times.size, k)], axis=1)
    d_c, d_n = _rounding_bounds(Psi)
    assert np.all(np.abs(variance_otoc(prop, psi0, times).values - _variance_of(Psi)) <= d_c)
    _assert_outcome_within(_outcome(photon_series, prop, psi0, times, label, tail_guard),
                           _outcome(_photon_of, Psi, times, label, tail_guard), d_n)


@pytest.mark.parametrize("n_p, centres", [
    (300, [(8.0, 0.0), (0.0, 8.0), (8.0, 9.0), (-10.0, 0.5)]),
    (1200, [(20.0, 0.0), (30.0, 0.0), (35.0, 0.0), (0.0, 30.0), (21.0, 21.0)]),
])
@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_far_centres_within_bound_of_reference(system, n_p, centres, iho_prop, hiho_prop, no_rows):
    # far from the origin A ~ <n> + 1/2 and cross ~ Re<a^2> are large and
    # cancel in |P psi|^2 = A - cross, so C keeps fewer digits than A
    prop = iho_prop(n_p) if system == "iho" else hiho_prop(n_p)
    times = np.linspace(0.0, 3.0, 601)
    for q, p in centres:
        _assert_series_within_bound(prop, coherent_state(FockDim(n_p), CoherentParams(q, p)),
                                    times)


@pytest.mark.parametrize("n_p", [1, 2, 75, 300, 1200])
@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_evolve_equals_reference_bit_for_bit(system, n_p, iho_prop, hiho_prop):
    # every coefficient of a random state is significant, so the window is
    # the whole block and the product is the reference's, bit for bit. A
    # one-component block at one time is a lone complex product, which
    # numpy rounds by another route in place (1 ulp): it keeps the bound.
    prop = iho_prop(n_p) if system == "iho" else hiho_prop(n_p)
    rng = np.random.default_rng(n_p)
    psi0 = rng.standard_normal(n_p + 1) + 1j * rng.standard_normal(n_p + 1)
    for t in (0.0, 0.1, 0.7, 1.5, 2.6, 6.0):
        got, want = evolve(prop, psi0, t), _reference_evolve(prop, psi0, t)
        assert np.linalg.norm(got - want) <= _state_bound(prop, psi0)
        for idx, lam, _ in prop.blocks:
            if lam.size > 1:
                assert np.array_equal(got.view(np.uint64).reshape(-1, 2)[idx],
                                      want.view(np.uint64).reshape(-1, 2)[idx])


@pytest.mark.parametrize("n_p", [75, 300, 1200])
@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_evolve_within_the_window_bound_of_reference(system, n_p, iho_prop, hiho_prop):
    prop = iho_prop(n_p) if system == "iho" else hiho_prop(n_p)
    for q, p in ((0.0, 0.0), (2.0, -1.0), (-1.5, 0.5)):
        psi0 = coherent_state(FockDim(n_p), CoherentParams(q, p))
        eta = _state_bound(prop, psi0)
        for t in (0.0, 0.1, 0.7, 1.5, 2.6, 6.0):
            assert np.linalg.norm(evolve(prop, psi0, t) - _reference_evolve(prop, psi0, t)) <= eta


def test_guard_names_the_same_first_bad_time(iho_prop):
    prop = iho_prop(75)
    psi0 = coherent_state(FockDim(75), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 3.0, 601)
    want = _outcome(_reference_photon, prop, psi0, times, "g", True)
    assert isinstance(want, str) and "at t=" in want
    assert _outcome(photon_series, prop, psi0, times, "g", tail_guard=True) == want


# ---------------------------------------------------------------------------
# The spectral window

def _longdouble_evolve_batch(prop, psi0, times):
    """The product in extended precision with the same V and the same
    float64 angles lam t: no component dropped, rounding ~1e-19."""
    ld = np.longdouble
    out = np.empty((prop.dim.dim, times.size), dtype=complex)
    for idx, lam, V in prop.blocks:
        W = V.astype(ld)
        c_re, c_im = W.T @ psi0[idx].real.astype(ld), W.T @ psi0[idx].imag.astype(ld)
        theta = np.outer(lam, times).astype(ld)
        cos, sin = np.cos(theta), np.sin(theta)
        # (c_re + i c_im)(cos - i sin)
        re = W @ (c_re[:, None] * cos + c_im[:, None] * sin)
        im = W @ (c_im[:, None] * cos - c_re[:, None] * sin)
        out[idx] = re.astype(float) + 1j * im.astype(float)
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="longdouble is float64")
@pytest.mark.parametrize("n_p", [60, 300])
@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_window_is_within_its_bound_of_a_longdouble_product(system, n_p, iho_prop, hiho_prop):
    prop = iho_prop(n_p) if system == "iho" else hiho_prop(n_p)
    times = np.linspace(0.0, 3.0, 31)
    for q, p in ((0.0, 0.0), (2.0, -1.0), (-1.5, 0.5), (3.0, 3.0)):
        psi0 = coherent_state(FockDim(n_p), CoherentParams(q, p))
        _assert_columns_within(evolve_batch(prop, psi0, times),
                               _longdouble_evolve_batch(prop, psi0, times),
                               _state_bound(prop, psi0))


@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_parity_pure_state_keeps_its_odd_rows_exactly_zero(system, iho_prop, hiho_prop):
    # Fock |0> is even; with 1e-20 of |1> added the odd block's coefficients
    # weigh 1e-40, below the window, so its rows are zeros, not 1e-20
    prop = iho_prop(120) if system == "iho" else hiho_prop(120)
    times = np.linspace(0.0, 2.0, 21)
    for tiny in (0.0, 1e-20):
        psi0 = np.zeros(121, dtype=complex)
        psi0[0], psi0[1] = 1.0, tiny
        Psi = evolve_batch(prop, psi0, times)
        assert np.all(Psi[1::2] == 0)
        _assert_columns_within(Psi, _reference_evolve_batch(prop, psi0, times),
                               _state_bound(prop, psi0))


def test_window_keeps_every_significant_coefficient(iho_prop):
    c = np.ones((50, 1), dtype=complex)
    assert evolution._window(c, 1e-30) == (0, 50)
    c[0] = c[-1] = 1e-16
    assert evolution._window(c, 1e-32) == (1, 49)
    assert evolution._window(c, 0.99e-32) == (0, 50)
    assert evolution._window(np.zeros((50, 1), dtype=complex), 0.0) == (50, 50)
    # a state made of every eigenvector with equal weight keeps them all
    prop = iho_prop(120)
    psi0 = prop.eigenvectors @ np.ones(121) / math.sqrt(121)
    times = np.linspace(0.0, 2.0, 21)
    assert np.array_equal(evolve_batch(prop, psi0, times),
                          _reference_evolve_batch(prop, psi0, times))


def test_nan_state_evolves_to_nan_not_zeros(iho_prop):
    prop = iho_prop(120)
    c = np.ones((50, 1), dtype=complex)
    c[3] = np.nan
    assert evolution._window(c, 1e-30) == (0, 50)
    assert evolution._window(np.ones((50, 1), dtype=complex), np.nan) == (0, 50)
    psi0 = coherent_state(FockDim(120), CoherentParams(2.0, -1.0))
    psi0[0] = np.nan
    times = np.linspace(0.0, 1.0, 11)
    Psi = evolve_batch(prop, psi0, times)
    assert np.all(np.isnan(Psi[0::2]))
    assert np.all(np.isnan(variance_otoc(prop, psi0, times).values))


# ---------------------------------------------------------------------------
# The slot each propagator keeps of its last state: the window coefficients,
# and the rows of the last grid evolved from it

@pytest.fixture
def no_rows():
    """Empties the slot of every session propagator, so a test starts with
    nothing kept from the tests before it."""
    for prop in (*conftest._iho_cache.values(), *conftest._hiho_cache.values()):
        prop._last_rows = None


@pytest.fixture
def evolutions(monkeypatch, no_rows):
    """The (propagator, grid) of each evolve_batch call, in call order."""
    calls = []
    real = evolution.evolve_batch

    def counted(prop, psi0, times):
        calls.append((prop, np.array(times, dtype=float)))
        return real(prop, psi0, times)

    monkeypatch.setattr(evolution, "evolve_batch", counted)
    return calls


def _assert_evolved(calls, evolved):
    """calls are exactly those of the (propagator, grid) pairs in evolved, in
    order: each grid's columns once, in order, in COLUMN_BLOCK slices."""
    k = evolution.COLUMN_BLOCK
    want = [(prop, times[j:j + k]) for prop, times in evolved for j in range(0, times.size, k)]
    assert [prop for prop, _ in calls] == [prop for prop, _ in want]
    for (_, grid), (_, want_grid) in zip(calls, want):
        assert np.array_equal(grid, want_grid)


@pytest.mark.parametrize("n_samples", [1, 64, 65, 601])
def test_a_miss_evolves_each_column_once_in_column_blocks(n_samples, iho_prop, evolutions):
    prop = iho_prop(120)
    psi0 = coherent_state(FockDim(120), CoherentParams(1.5, -0.5))
    times = np.linspace(0.0, 1.2, n_samples)  # inside the tail guard
    _assert_series_within_bound(prop, psi0, times)
    _assert_evolved(evolutions, [(prop, times)])
    # a hit evolves none
    photon_series(prop, psi0, times, tail_guard=True)
    variance_otoc(prop, psi0, times)
    _assert_evolved(evolutions, [(prop, times)])


def test_evolved_state_ignores_in_place_mutation_of_times(iho_prop, evolutions):
    prop = iho_prop(120)
    psi0 = coherent_state(FockDim(120), CoherentParams(1.0, 1.0))
    times = np.linspace(0.0, 1.0, 11)
    _assert_series_within_bound(prop, psi0, times)
    times *= 2  # the slot holds its own copy of the grid
    _assert_series_within_bound(prop, psi0, times)
    assert len(evolutions) == 2


def test_evolve_batch_checks_the_dimension_before_building_a_table(iho_prop, no_rows):
    # out is the only array built before the ValueError: no coefficients or phases
    times = np.linspace(0.0, 1.0, 11)
    peak = _peak_bytes(lambda: pytest.raises(
        ValueError, evolve_batch, iho_prop(39), np.zeros(10, dtype=complex), times))
    assert peak <= 16 * 40 * times.size + 64 * 1024
    with pytest.raises(ValueError, match="state dim"):
        variance_otoc(iho_prop(39), np.zeros(10, dtype=complex), times)
    assert iho_prop(39)._last_rows is None


def test_alternating_propagators_give_correct_results(iho_prop, hiho_prop):
    times = np.linspace(0.0, 2.0, 41)
    psi0 = coherent_state(FockDim(120), CoherentParams(1.5, -0.5))
    props = (iho_prop(120), hiho_prop(120))
    for k in range(4):
        prop = props[k % 2]
        _assert_columns_within(evolve_batch(prop, psi0, times),
                               _reference_evolve_batch(prop, psi0, times),
                               _state_bound(prop, psi0))


@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_variance_then_photon_evolve_once(system, iho_prop, hiho_prop, evolutions):
    prop = iho_prop(300) if system == "iho" else hiho_prop(300)
    psi0 = coherent_state(FockDim(300), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 3.0, 601)
    _assert_series_within_bound(prop, psi0, times)
    _assert_evolved(evolutions, [(prop, times)])
    # an equal grid and an equal state in other arrays still hit
    _assert_series_within_bound(prop, psi0.copy(), times.copy())
    _assert_evolved(evolutions, [(prop, times)])


def test_each_propagator_keeps_its_own_rows(iho_prop, hiho_prop, evolutions):
    # A, B, A on one state and grid: B's evolution leaves A's rows in place
    a, b = iho_prop(120), hiho_prop(120)
    psi0 = coherent_state(FockDim(120), CoherentParams(1.5, -0.5))
    times = np.linspace(0.0, 2.0, 201)
    for prop in (a, b, a):
        _assert_series_within_bound(prop, psi0, times)
    _assert_evolved(evolutions, [(a, times), (b, times)])


@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_evolved_state_misses(system, iho_prop, hiho_prop, evolutions):
    d = FockDim(120)
    prop, other = (iho_prop(120), hiho_prop(120))[::1 if system == "iho" else -1]
    psi0 = coherent_state(d, CoherentParams(1.5, -0.5))
    times = np.linspace(0.0, 2.0, 201)
    _assert_series_within_bound(prop, psi0, times)
    evolved = [(prop, times.copy())]
    _assert_evolved(evolutions, evolved)
    # another state
    _assert_series_within_bound(prop, coherent_state(d, CoherentParams(1.0, 0.5)), times)
    evolved.append((prop, times.copy()))
    _assert_evolved(evolutions, evolved)
    # the same state array, changed in place after it was kept
    _assert_series_within_bound(prop, psi0, times)
    psi0 *= np.exp(0.3j)
    _assert_series_within_bound(prop, psi0, times)
    evolved += [(prop, times.copy())] * 2
    _assert_evolved(evolutions, evolved)
    # another propagator of the same dimension
    _assert_series_within_bound(other, psi0, times)
    evolved.append((other, times.copy()))
    _assert_evolved(evolutions, evolved)
    # a changed grid, also when the kept grid's array is changed in place
    times += 0.25
    _assert_series_within_bound(other, psi0, times)
    _assert_series_within_bound(other, psi0, times[:-1])
    evolved += [(other, times.copy()), (other, times[:-1].copy())]
    _assert_evolved(evolutions, evolved)


@pytest.fixture
def windows(monkeypatch):
    """A count of the blocks whose window coefficients are computed."""
    count = [0]
    real = evolution._window

    def counted(c, tol2):
        count[0] += 1
        return real(c, tol2)

    monkeypatch.setattr(evolution, "_window", counted)
    return count


def _cold(fn, prop, *args):
    """fn on prop with its slot emptied first."""
    prop._last_rows = None
    return fn(prop, *args)


@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_kept_coefficients_give_the_cold_result_bit_for_bit(
        system, iho_prop, hiho_prop, no_rows, windows):
    prop, other = (iho_prop(300), hiho_prop(300))[::1 if system == "iho" else -1]
    psi0 = coherent_state(FockDim(300), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 3.0, 101)
    blocks = len(prop.blocks)
    batch, one = _cold(evolve_batch, prop, psi0, times), _cold(evolve, prop, psi0, 1.3)
    assert windows[0] == 2 * blocks
    # hits, on the same array and on an equal one, also once the rows are kept
    for state in (psi0, psi0.copy(), psi0, psi0.copy()):
        assert np.array_equal(evolve_batch(prop, state, times), batch)
        assert np.array_equal(evolve(prop, state, 1.3), one)
        variance_otoc(prop, state, times)
    assert windows[0] == 2 * blocks
    assert prop._last_rows.rows is not None
    # the same array, changed in place after it was kept, misses
    kept = prop._last_rows
    psi0 *= np.exp(0.3j)
    got = evolve_batch(prop, psi0, times)
    assert windows[0] == 3 * blocks and prop._last_rows is not kept
    assert prop._last_rows.rows is None  # the rows of the old state went with it
    assert not np.array_equal(got, batch)
    assert np.array_equal(evolve(prop, psi0, 1.3), _cold(evolve, prop, psi0, 1.3))
    assert np.array_equal(got, _cold(evolve_batch, prop, psi0, times))
    assert windows[0] == 5 * blocks
    # another propagator of the same dimension misses, and keeps its own slot
    kept = prop._last_rows
    got = evolve_batch(other, psi0, times)
    assert windows[0] == 5 * blocks + len(other.blocks)
    assert prop._last_rows is kept and other._last_rows is not kept
    assert np.array_equal(got, _cold(evolve_batch, other, psi0, times))
    _assert_columns_within(got, _reference_evolve_batch(other, psi0, times),
                           _state_bound(other, psi0))


def test_evolved_state_freed_with_its_propagator():
    # nothing but the propagator refers to its slot, so it goes with it:
    # the rows, the copy of psi0 and every block's window coefficients
    d = FockDim(60)
    prop = diagonalize(build_iho(d))
    psi0 = coherent_state(d, CoherentParams(1.0, 1.0))
    variance_otoc(prop, psi0, np.linspace(0.0, 1.0, 11))
    slot = prop._last_rows
    refs = [weakref.ref(a) for a in (slot.psi0, slot.times, slot.rows,
                                     *(c for _, _, c in slot.coefficients))]
    assert len(refs) == 3 + len(prop.blocks)
    del slot
    assert all(r() is not None for r in refs)
    del prop
    assert all(r() is None for r in refs)


def test_guard_on_the_evolved_state_names_the_same_time(iho_prop, evolutions):
    prop = iho_prop(75)
    psi0 = coherent_state(FockDim(75), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 3.0, 601)
    want = _outcome(_reference_photon, prop, psi0, times, "g", True)
    assert isinstance(want, str) and "at t=" in want
    assert _outcome(photon_series, prop, psi0, times, "g", tail_guard=True) == want
    variance_otoc(prop, psi0, times)
    assert _outcome(photon_series, prop, psi0, times, "g", tail_guard=True) == want
    _assert_evolved(evolutions, [(prop, times)])
    # the guard raised from rows a variance_otoc call kept
    prop._last_rows = None
    variance_otoc(prop, psi0, times)
    assert _outcome(photon_series, prop, psi0, times, "g", tail_guard=True) == want
    _assert_evolved(evolutions, [(prop, times)] * 2)


def test_observables_return_fresh_arrays_and_evolve_batch_is_uncached(
        iho_prop, evolutions):
    # evolve_batch reuses only the kept coefficients: every call evolves and
    # returns a new array
    prop = iho_prop(120)
    psi0 = coherent_state(FockDim(120), CoherentParams(1.0, 1.0))
    times = np.linspace(0.0, 1.0, 11)
    for fn in (variance_otoc, photon_series):
        first = fn(prop, psi0, times).values
        want = first.copy()
        first[:] = 0.0  # a caller's edit does not reach the kept rows
        assert np.array_equal(fn(prop, psi0, times).values, want)
    _assert_evolved(evolutions, [(prop, times)])
    Psi = evolution.evolve_batch(prop, psi0, times)
    assert evolution.evolve_batch(prop, psi0, times) is not Psi
    _assert_evolved(evolutions, [(prop, times)] * 3)


def test_evolve_leaves_the_evolved_state(iho_prop, hiho_prop, evolutions):
    prop = iho_prop(120)
    psi0 = coherent_state(FockDim(120), CoherentParams(1.0, 1.0))
    times = np.linspace(0.0, 1.0, 11)
    variance_otoc(prop, psi0, times)
    slot = prop._last_rows
    for p, t in ((prop, 0.5), (prop, 1.0), (hiho_prop(120), 0.5)):
        evolve(p, psi0, t)
        assert prop._last_rows is slot
    photon_series(prop, psi0, times)
    _assert_evolved(evolutions, [(prop, times)])


# ---------------------------------------------------------------------------
# Memory: no D x T temporary beyond the documented ones. The slack covers
# ufunc buffers and per-call vectors; at D = T = 601 a D x T float64 array is
# 2.9 MB, far more than it allows.

_SLACK = 256 * 1024


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def memory_case(iho_prop, no_rows):
    prop = iho_prop(600)
    psi0 = coherent_state(FockDim(600), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 1.5, 601)  # inside the tail guard
    D, T = prop.dim.dim, times.size
    tol2 = EPS**2 * D * np.vdot(psi0, psi0).real / 4
    windows = [evolution._window(V.T @ psi0[idx], tol2) for idx, _, V in prop.blocks]
    widths = [hi - lo for lo, hi in windows]
    sizes = {"psi": 16 * D * T, "window": 16 * max(widths) * T,
             "block": 16 * max(lam.size for _, lam, _ in prop.blocks) * T,
             "columns": 16 * D * evolution.COLUMN_BLOCK, "rows": 24 * T}
    assert sizes["window"] < sizes["block"] / 2
    return prop, psi0, times, sizes


def test_cold_evolve_batch_peak_is_out_and_one_window(memory_case):
    prop, psi0, times, b = memory_case
    peak = _peak_bytes(lambda: evolve_batch(prop, psi0, times))
    assert peak <= b["psi"] + b["window"] + _SLACK


def test_warm_evolve_batch_peak_is_out_and_one_block(memory_case):
    # nothing is kept between calls, so a second call peaks as the first
    prop, psi0, times, b = memory_case
    evolve_batch(prop, psi0, times)
    peak = _peak_bytes(lambda: evolve_batch(prop, psi0, times))
    assert peak <= b["psi"] + b["window"] + _SLACK


@pytest.mark.parametrize("fn", [variance_otoc, photon_series])
def test_observables_peak_is_two_column_blocks(memory_case, fn):
    # a cold call evolves and reduces one column block at a time: at most a
    # block of Psi and its squares are alive, never a D x T Psi
    prop, psi0, times, b = memory_case
    for kw in [{}, {"tail_guard": True}] if fn is photon_series else [{}]:
        prop._last_rows = None
        peak = _peak_bytes(lambda: fn(prop, psi0, times, **kw))
        assert peak <= 2 * b["columns"] + _SLACK < b["psi"] / 3


def test_no_dxt_array_outlives_the_observables(memory_case):
    # a call leaves behind only the kept rows, its copies of the grid and
    # psi0 and the window coefficients
    prop, psi0, times, b = memory_case
    for fn in (variance_otoc, photon_series):
        prop._last_rows = None
        tracemalloc.start()
        try:
            fn(prop, psi0, times)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert prop._last_rows.rows.nbytes == b["rows"]
        assert held <= b["rows"] + _SLACK < b["psi"]


def test_evolved_state_hit_forms_no_dxt_array(memory_case):
    prop, psi0, times, b = memory_case
    photon_series(prop, psi0, times)
    for fn, kw in ((variance_otoc, {}), (photon_series, {"tail_guard": True})):
        peak = _peak_bytes(lambda: fn(prop, psi0, times, **kw))
        assert peak <= b["rows"] + _SLACK < 8 * prop.dim.dim * times.size


@pytest.mark.parametrize("change", ["state", "grid"])
def test_evolved_state_miss_drops_the_old_state_first(memory_case, change):
    # after a call only the slot is held; a miss above that level needs one
    # column block of Psi and, first, one window's X or, then, the block's
    # squares
    prop, psi0, times, b = memory_case
    other = coherent_state(FockDim(600), CoherentParams(1.0, 1.0))
    tracemalloc.start()
    try:
        variance_otoc(prop, other if change == "state" else psi0,
                      times if change == "state" else times / 2)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        photon_series(prop, psi0, times, tail_guard=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert base <= b["rows"] + _SLACK
    assert peak <= 2 * b["columns"] + _SLACK
