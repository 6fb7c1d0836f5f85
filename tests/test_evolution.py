import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import banded, dense, expect
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

from otoclab import evolution, fock
from otoclab.errors import DimMismatch, NotHermitian, TruncationGuardError
from otoclab.evolution import (
    commutator_otoc,
    diagonalize,
    evolve,
    evolve_batch,
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


# ---------------------------------------------------------------------------
# Reference implementations: evolution and observables as they were before the
# phase table and the column blocks. Production must equal them bit for bit.

def _reference_apply(M, X):
    if np.iscomplexobj(M):
        return M @ X
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


def _reference_variance(prop, psi0, times):
    Psi = _reference_evolve_batch(prop, psi0, times)
    PPsi = evolution._apply_momentum(Psi)
    exp_p = np.real(np.sum(Psi.conj() * PPsi, axis=0))
    exp_p2 = np.real(np.sum(PPsi.conj() * PPsi, axis=0))
    return exp_p2 - exp_p**2


def _reference_photon(prop, psi0, times, label="", tail_guard=False):
    Psi = _reference_evolve_batch(prop, psi0, times)
    if tail_guard:
        evolution._guard_tails(Psi, times, label)
    n = np.arange(prop.dim.dim)
    return np.sum(n[:, None] * np.abs(Psi) ** 2, axis=0)


def _outcome(fn, *args, **kwargs):
    """The values fn returns, or the message of the guard error it raises."""
    try:
        out = fn(*args, **kwargs)
    except TruncationGuardError as exc:
        return str(exc)
    return getattr(out, "values", out)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got, want)


@pytest.mark.parametrize("tail_guard", [False, True])
@pytest.mark.parametrize("n_samples", [601, 37])
@pytest.mark.parametrize("n_p", [75, 300, 1200])
@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_evolution_and_observables_equal_reference(
        system, n_p, n_samples, tail_guard, iho_prop, hiho_prop):
    prop = iho_prop(n_p) if system == "iho" else hiho_prop(n_p)
    psi0 = coherent_state(FockDim(n_p), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 3.0, n_samples)
    label = f"{system}/np{n_p}"
    assert np.array_equal(evolve_batch(prop, psi0, times),
                          _reference_evolve_batch(prop, psi0, times))
    assert np.array_equal(variance_otoc(prop, psi0, times, label).values,
                          _reference_variance(prop, psi0, times))
    want = _outcome(_reference_photon, prop, psi0, times, label, tail_guard)
    _assert_same(_outcome(photon_series, prop, psi0, times, label, tail_guard), want)


def test_guard_names_the_same_first_bad_time(iho_prop):
    prop = iho_prop(75)
    psi0 = coherent_state(FockDim(75), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 3.0, 601)
    want = _outcome(_reference_photon, prop, psi0, times, "g", True)
    assert isinstance(want, str) and "at t=" in want
    assert _outcome(photon_series, prop, psi0, times, "g", tail_guard=True) == want


def test_random_hermitian_evolution_equals_reference():
    # one complex block: the complex GEMM path
    d = FockDim(200)
    prop = diagonalize(banded(_random_hermitian(d.dim)))
    assert np.iscomplexobj(prop.blocks[0][2])
    psi0 = coherent_state(d, CoherentParams(1.0, 0.5))
    for times in (np.linspace(0.0, 2.0, 601), np.linspace(0.0, 2.0, 37)):
        assert np.array_equal(evolve_batch(prop, psi0, times),
                              _reference_evolve_batch(prop, psi0, times))
        assert np.array_equal(variance_otoc(prop, psi0, times).values,
                              _reference_variance(prop, psi0, times))
        assert np.array_equal(photon_series(prop, psi0, times).values,
                              _reference_photon(prop, psi0, times))


# ---------------------------------------------------------------------------
# The process-wide phase table

def _exact_phases(prop, times):
    return [np.exp(-1j * np.outer(lam, times)) for _, lam, _ in prop.blocks]


def _assert_phases(tables, prop, times):
    want = _exact_phases(prop, times)
    assert len(tables) == len(want)
    for got, ref in zip(tables, want):
        assert np.array_equal(got, ref)


@pytest.fixture
def no_phase_table(monkeypatch):
    monkeypatch.setattr(evolution, "_phase_table", None)


def test_phase_table_hits_for_same_propagator_and_equal_times(
        iho_prop, no_phase_table):
    prop = iho_prop(120)
    first = evolution._phases(prop, np.linspace(0.0, 1.0, 11))
    again = evolution._phases(prop, np.linspace(0.0, 1.0, 11))
    assert again is first
    _assert_phases(again, prop, np.linspace(0.0, 1.0, 11))


def test_phase_table_misses_for_another_propagator_of_same_dim(
        iho_prop, hiho_prop, no_phase_table):
    times = np.linspace(0.0, 1.0, 11)
    first = evolution._phases(iho_prop(120), times)
    other = evolution._phases(hiho_prop(120), times)
    assert other is not first
    _assert_phases(other, hiho_prop(120), times)


def test_phase_table_misses_for_collected_propagator(no_phase_table):
    times = np.linspace(0.0, 1.0, 11)
    d = FockDim(60)
    prop = diagonalize(build_iho(d))
    evolution._phases(prop, times)
    del prop
    gc.collect()
    assert evolution._phase_table is None  # freed with its propagator
    fresh = diagonalize(build_hiho(d, HihoParams(3.0, 0.04)))
    _assert_phases(evolution._phases(fresh, times), fresh, times)


def test_phase_table_misses_for_changed_times(iho_prop, no_phase_table):
    prop = iho_prop(120)
    first = evolution._phases(prop, np.linspace(0.0, 1.0, 11))
    longer = np.linspace(0.0, 2.0, 11)
    assert evolution._phases(prop, longer) is not first
    _assert_phases(evolution._phases(prop, longer), prop, longer)


def test_phase_table_ignores_in_place_mutation_of_times(iho_prop, no_phase_table):
    prop = iho_prop(120)
    times = np.linspace(0.0, 1.0, 11)
    evolution._phases(prop, times)
    times *= 2
    _assert_phases(evolution._phases(prop, times), prop, times)
    psi0 = coherent_state(FockDim(120), CoherentParams(1.0, 1.0))
    times += 0.5
    assert np.array_equal(evolve_batch(prop, psi0, times),
                          _reference_evolve_batch(prop, psi0, times))


def test_alternating_propagators_give_correct_results(
        iho_prop, hiho_prop, no_phase_table):
    times = np.linspace(0.0, 2.0, 41)
    psi0 = coherent_state(FockDim(120), CoherentParams(1.5, -0.5))
    props = (iho_prop(120), hiho_prop(120))
    for k in range(4):
        prop = props[k % 2]
        assert np.array_equal(evolve_batch(prop, psi0, times),
                              _reference_evolve_batch(prop, psi0, times))


# ---------------------------------------------------------------------------
# The evolved state kept beside the phase table

@pytest.fixture
def evolutions(monkeypatch, no_phase_table):
    """The propagators evolve_batch is called with, in call order."""
    calls = []
    real = evolution.evolve_batch

    def counted(prop, psi0, times):
        calls.append(prop)
        return real(prop, psi0, times)

    monkeypatch.setattr(evolution, "evolve_batch", counted)
    return calls


def _assert_series_equal_reference(prop, psi0, times):
    assert np.array_equal(variance_otoc(prop, psi0, times).values,
                          _reference_variance(prop, psi0, times))
    assert np.array_equal(photon_series(prop, psi0, times).values,
                          _reference_photon(prop, psi0, times))


@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_variance_then_photon_evolve_once(system, iho_prop, hiho_prop, evolutions):
    prop = iho_prop(300) if system == "iho" else hiho_prop(300)
    psi0 = coherent_state(FockDim(300), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 3.0, 601)
    _assert_series_equal_reference(prop, psi0, times)
    assert evolutions == [prop]
    # an equal grid and an equal state in other arrays still hit
    _assert_series_equal_reference(prop, psi0.copy(), times.copy())
    assert evolutions == [prop]


@pytest.mark.parametrize("system", ["iho", "hiho"])
def test_evolved_state_misses(system, iho_prop, hiho_prop, evolutions):
    d = FockDim(120)
    prop, other = (iho_prop(120), hiho_prop(120))[::1 if system == "iho" else -1]
    psi0 = coherent_state(d, CoherentParams(1.5, -0.5))
    times = np.linspace(0.0, 2.0, 201)
    _assert_series_equal_reference(prop, psi0, times)
    assert len(evolutions) == 1
    # another state
    _assert_series_equal_reference(prop, coherent_state(d, CoherentParams(1.0, 0.5)), times)
    assert len(evolutions) == 2
    # the same state array, changed in place after it was cached
    _assert_series_equal_reference(prop, psi0, times)
    psi0 *= np.exp(0.3j)
    _assert_series_equal_reference(prop, psi0, times)
    assert len(evolutions) == 4
    # another propagator of the same dimension
    _assert_series_equal_reference(other, psi0, times)
    assert evolutions[-1] is other and len(evolutions) == 5
    # a changed grid, also when the cached grid array is changed in place
    times += 0.25
    _assert_series_equal_reference(other, psi0, times)
    _assert_series_equal_reference(other, psi0, times[:-1])
    assert len(evolutions) == 7


def test_evolved_state_freed_with_its_propagator(no_phase_table):
    d = FockDim(60)
    prop = diagonalize(build_iho(d))
    psi0 = coherent_state(d, CoherentParams(1.0, 1.0))
    variance_otoc(prop, psi0, np.linspace(0.0, 1.0, 11))
    psi = weakref.ref(evolution._phase_table[3][1])
    del prop
    gc.collect()
    assert evolution._phase_table is None
    assert psi() is None


def test_guard_on_the_evolved_state_names_the_same_time(iho_prop, evolutions):
    prop = iho_prop(75)
    psi0 = coherent_state(FockDim(75), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 3.0, 601)
    want = _outcome(_reference_photon, prop, psi0, times, "g", True)
    assert isinstance(want, str) and "at t=" in want
    assert _outcome(photon_series, prop, psi0, times, "g", tail_guard=True) == want
    variance_otoc(prop, psi0, times)
    assert _outcome(photon_series, prop, psi0, times, "g", tail_guard=True) == want
    assert len(evolutions) == 1


def test_evolved_state_is_read_only_and_evolve_batch_is_fresh(iho_prop, no_phase_table):
    prop = iho_prop(120)
    psi0 = coherent_state(FockDim(120), CoherentParams(1.0, 1.0))
    times = np.linspace(0.0, 1.0, 11)
    Psi = evolution._evolved(prop, psi0, times)
    assert evolution._evolved(prop, psi0, times) is Psi
    assert not Psi.flags.writeable
    with pytest.raises(ValueError):
        Psi[0, 0] = 0.0
    fresh = evolve_batch(prop, psi0, times)
    assert fresh is not Psi and fresh.flags.writeable
    assert np.array_equal(fresh, Psi)


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
def memory_case(iho_prop, no_phase_table):
    prop = iho_prop(600)
    psi0 = coherent_state(FockDim(600), CoherentParams(2.0, -1.0))
    times = np.linspace(0.0, 1.5, 601)  # inside the tail guard
    D, T = prop.dim.dim, times.size
    largest_block = max(lam.size for _, lam, _ in prop.blocks)
    sizes = {"psi": 16 * D * T, "table": 16 * D * T,
             "x": 16 * largest_block * T,
             "columns": 16 * D * evolution.COLUMN_BLOCK}
    return prop, psi0, times, sizes


def test_cold_evolve_batch_peak_is_out_table_and_one_block(memory_case):
    prop, psi0, times, b = memory_case
    peak = _peak_bytes(lambda: evolve_batch(prop, psi0, times))
    assert peak <= b["psi"] + b["table"] + b["x"] + _SLACK


def test_table_miss_frees_the_old_table_before_building(memory_case):
    # the old entry (another grid, same size) is dropped first, so the peak
    # above the level that includes it is out + one block's X
    prop, psi0, times, b = memory_case
    tracemalloc.start()
    try:
        evolution._phases(prop, times / 2)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evolve_batch(prop, psi0, times)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= b["psi"] + b["x"] + _SLACK


def test_warm_evolve_batch_peak_is_out_and_one_block(memory_case):
    prop, psi0, times, b = memory_case
    evolve_batch(prop, psi0, times)
    peak = _peak_bytes(lambda: evolve_batch(prop, psi0, times))
    assert peak <= b["psi"] + b["x"] + _SLACK


@pytest.mark.parametrize("fn", [variance_otoc, photon_series])
def test_observables_peak_is_psi_and_column_blocks(memory_case, monkeypatch, fn):
    # Psi comes from evolve_batch (bounded above); on top of it the momentum
    # stencil and the products hold at most four column blocks at once
    prop, psi0, times, b = memory_case
    Psi = evolve_batch(prop, psi0, times)
    monkeypatch.setattr(evolution, "evolve_batch", lambda *a: Psi.copy())
    for kw in [{}, {"tail_guard": True}] if fn is photon_series else [{}]:
        peak = _peak_bytes(lambda: fn(prop, psi0, times, **kw))
        assert peak <= b["psi"] + 4 * b["columns"]


def test_evolved_state_hit_forms_no_dxt_array(memory_case):
    prop, psi0, times, b = memory_case
    photon_series(prop, psi0, times)
    assert 4 * b["columns"] < 8 * prop.dim.dim * times.size
    for fn, kw in ((variance_otoc, {}), (photon_series, {"tail_guard": True})):
        peak = _peak_bytes(lambda: fn(prop, psi0, times, **kw))
        assert peak <= 4 * b["columns"]


@pytest.mark.parametrize("change", ["state", "grid"])
def test_evolved_state_miss_drops_the_old_state_first(memory_case, change):
    # above the level that holds the old table and Psi, a miss needs one
    # block's X while evolving and the column blocks while reducing
    prop, psi0, times, b = memory_case
    other = coherent_state(FockDim(600), CoherentParams(1.0, 1.0))
    tracemalloc.start()
    try:
        variance_otoc(prop, other if change == "state" else psi0,
                      times if change == "state" else times / 2)
        base = tracemalloc.get_traced_memory()[0]
        assert base >= b["psi"] + b["table"]
        tracemalloc.reset_peak()
        photon_series(prop, psi0, times, tail_guard=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= b["x"] + 4 * b["columns"] + _SLACK
