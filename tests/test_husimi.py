import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage
from scipy.special import gammaln

from otoclab import cli, husimi
from otoclab.classical import ClassicalState, hiho, integrate
from otoclab.errors import GridTooSmall
from otoclab.evolution import evolve
from otoclab.fock import CoherentParams, FockDim, coherent_state
from otoclab.husimi import (
    ALPHA_MAX,
    CHUNK,
    PEAK_FRAC,
    RESCALE_EVERY,
    HusimiGrid,
    PhaseGrid,
    count_local_maxima,
    husimi_centroid,
    husimi_norm,
    husimi_q,
    husimi_second_moments,
    max_abs_alpha,
)

VAC_GRID = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 201, 201)
WIDE_GRID = PhaseGrid(-40.0, 40.0, -40.0, 40.0, 161, 161)  # corners |alpha|^2/2 = 800
# |husimi_q - husimi_q_before| bound, absolute (Q <= 1/pi): the blocked
# recurrence sums each block's terms in another order than the step-by-step loop
HORNER_TOL = 2e-14


def reference_q(state, grid):
    """Independent reference: Q row by row in the log domain, one complex
    exp(n log conj(alpha) - ln(n!)/2 - |alpha|^2/2) per (point, n)."""
    D = state.shape[0]
    n = np.arange(D)
    half_log_fact = 0.5 * gammaln(n + 1)
    p_ax = grid.p_axis()
    values = np.empty((grid.n_q, grid.n_p))
    for i, q in enumerate(grid.q_axis()):
        alpha_c = (q - 1j * p_ax) / np.sqrt(2)
        mu = np.abs(alpha_c) ** 2
        nz = alpha_c != 0
        log_a = np.zeros(grid.n_p, dtype=complex)
        log_a[nz] = np.log(alpha_c[nz])
        coeff = np.exp(np.outer(log_a, n) - half_log_fact - mu[:, None] / 2)
        if not nz.all():
            rows = np.nonzero(~nz)[0]
            coeff[rows] = 0.0
            coeff[rows, 0] = 1.0
        values[i] = np.abs(coeff @ state) ** 2 / np.pi
    return values


def husimi_q_before(state, grid):
    """The step-by-step Horner loop husimi_q ran before the blocked kernel,
    bit for bit (there the coefficient term reused one buffer, here it is a
    fresh array on every step): b = c_n + (z / sqrt(n + 1)) b, rescaled
    every RESCALE_EVERY steps."""
    D = state.shape[0]
    q, p = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    alpha_c = ((q - 1j * p) / np.sqrt(2)).ravel()
    inv_sqrt = 1.0 / np.sqrt(np.arange(1, D))
    b = np.full(alpha_c.shape, state[D - 1], dtype=complex)
    log_scale = np.zeros(alpha_c.shape)
    coeff_scale = np.ones(alpha_c.shape)
    for n in range(D - 2, -1, -1):
        b *= alpha_c
        b *= inv_sqrt[n]
        b += state[n] * coeff_scale
        if n % RESCALE_EVERY == 0:
            factor = np.maximum(np.abs(b), 1.0)
            b /= factor
            log_scale += np.log(factor)
            coeff_scale = np.exp(-log_scale)
    with np.errstate(divide="ignore"):
        log_q = 2 * (np.log(np.abs(b)) + log_scale) - np.abs(alpha_c) ** 2
    return np.exp(log_q).reshape(grid.n_q, grid.n_p) / np.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseGrid(1.0, -1.0, 0.0, 1.0, 10, 10)
    with pytest.raises(ValueError):
        PhaseGrid(-1.0, 1.0, -1.0, 1.0, 1, 10)


def test_vacuum_peak_value():
    vac = coherent_state(FockDim(20), CoherentParams(0.0, 0.0))
    hg = husimi_q(vac, PhaseGrid(-1.0, 1.0, -1.0, 1.0, 3, 3))
    # center sample sits exactly at the origin
    assert hg.values[1, 1] == pytest.approx(1 / math.pi, abs=1e-12)


def test_bounded_by_inverse_pi():
    psi = coherent_state(FockDim(100), CoherentParams(2.0, -1.0))
    hg = husimi_q(psi, VAC_GRID)
    assert np.all(hg.values >= 0.0)
    assert np.all(hg.values <= 1 / math.pi + 1e-12)


def test_coherent_closed_form():
    d = FockDim(120)
    beta_cp = CoherentParams(1.2, -0.7)
    psi = coherent_state(d, beta_cp)
    grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 21, 21)
    hg = husimi_q(psi, grid)
    for i, q in enumerate(grid.q_axis()):
        for j, p in enumerate(grid.p_axis()):
            alpha = (q + 1j * p) / np.sqrt(2)
            expected = math.exp(-abs(alpha - beta_cp.beta) ** 2) / math.pi
            assert abs(hg.values[i, j] - expected) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(
    bq=st.floats(-2, 2), bp=st.floats(-2, 2),
    aq=st.floats(-3, 3), ap=st.floats(-3, 3),
)
def test_coherent_closed_form_property(bq, bp, aq, ap):
    d = FockDim(100)
    psi = coherent_state(d, CoherentParams(bq, bp))
    span = 1e-3
    grid = PhaseGrid(aq - span, aq + span, ap - span, ap + span, 2, 2)
    hg = husimi_q(psi, grid)
    alpha = (grid.q_axis()[0] + 1j * grid.p_axis()[0]) / np.sqrt(2)
    beta = CoherentParams(bq, bp).beta
    assert abs(hg.values[0, 0] - math.exp(-abs(alpha - beta) ** 2) / math.pi) <= 1e-8


def test_matches_reference_on_evolved_hiho_states(hiho_prop):
    d = FockDim(600)
    psi0 = coherent_state(d, CoherentParams(8.0, 9.0))
    for t in (0.0, 0.3, 1.2):
        psit = evolve(hiho_prop(600), psi0, t)
        values = husimi_q(psit, WIDE_GRID).values
        assert np.max(np.abs(values - reference_q(psit, WIDE_GRID))) <= 1e-13


def test_within_horner_tol_of_the_step_by_step_horner_loop(hiho_prop):
    psi0 = coherent_state(FockDim(600), CoherentParams(8.0, 9.0))
    rng = np.random.default_rng(4)
    noise = rng.normal(size=(90, 2)) @ np.array([1, 1j])
    states = [evolve(hiho_prop(600), psi0, t) for t in (0.0, 1.2)]
    states += [noise / np.linalg.norm(noise), np.full(1201, 1 / math.sqrt(1201), dtype=complex)]
    for psi in states:
        got = husimi_q(psi, WIDE_GRID).values
        assert np.max(np.abs(got - husimi_q_before(psi, WIDE_GRID))) <= HORNER_TOL


def _random_state(D, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=D) + 1j * rng.normal(size=D)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("D", [1, 2, 16, 17, 18, 33, 34])
def test_block_edges_match_reference(D):
    # the highest block takes 1, 2, 16, 17, 2, 17 and 2 steps, above zero, one
    # or two blocks of RESCALE_EVERY
    psi = _random_state(D, D)
    grid = PhaseGrid(-12.0, 12.0, -9.0, 9.0, 31, 25)
    assert np.max(np.abs(husimi_q(psi, grid).values - reference_q(psi, grid))) <= 1e-13


@pytest.mark.parametrize("n_q, n_p", [(2, 2), (64, CHUNK // 64), (65, 65), (CHUNK + 1, 2)])
def test_chunk_edges_match_reference(n_q, n_p):
    # a 2 x 2 grid, exactly one chunk, and point counts that leave a short last chunk
    psi = _random_state(40, 7)
    grid = PhaseGrid(-10.0, 10.0, -10.0, 10.0, n_q, n_p)
    assert np.max(np.abs(husimi_q(psi, grid).values - reference_q(psi, grid))) <= 1e-13


def test_finite_up_to_alpha_max():
    # corners at |alpha| just below ALPHA_MAX, and q = 0 in the middle row
    a = 0.99 * ALPHA_MAX * math.sqrt(2)
    grid = PhaseGrid(-a, a, -1.0, 1.0, 3, 3)
    assert max_abs_alpha(grid) <= ALPHA_MAX
    psi = _random_state(601, 1)
    values = husimi_q(psi, grid).values
    assert np.all(np.isfinite(values))
    assert values[1, 1] == pytest.approx(abs(psi[0]) ** 2 / math.pi, rel=1e-14)
    assert np.all(values[[0, 2]] == 0.0)  # e^{-|alpha|^2} underflows


@pytest.mark.parametrize("q_max, p_max", [(1e308, 1e308), (1.5e19, 1.0), (1.0, 1.5e19)],
                         ids=["1e308", "q_past_alpha_max", "p_past_alpha_max"])
def test_grid_past_alpha_max_raises_before_any_arithmetic(monkeypatch, q_max, p_max):
    # 1.5e19 / sqrt(2) is just past ALPHA_MAX = 1e19; at +-1e308 the grid's
    # own axes overflow, which np.errstate turns into FloatingPointError
    grid = PhaseGrid(-q_max, q_max, -p_max, p_max, 21, 21)

    def no_blocks(state):
        raise AssertionError("husimi_q started on the state")

    monkeypatch.setattr(husimi, "_blocks", no_blocks)
    with np.errstate(all="raise"), pytest.raises(ValueError, match="past ALPHA_MAX"):
        husimi_q(_random_state(40, 2), grid)


def test_memory_is_bounded_by_the_chunk(hiho_prop):
    # the step-by-step loop, with its grid-sized complex arrays, peaked at
    # 3.1 MB here; the blocked kernel peaks at 2.1 MB
    psi = evolve(hiho_prop(600), coherent_state(FockDim(600), CoherentParams(8.0, 9.0)), 0.3)
    husimi_q(psi, WIDE_GRID)
    tracemalloc.start()
    try:
        husimi_q(psi, WIDE_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1e6


def test_flat_state_needs_the_rescale():
    # |f(conj alpha)| reaches about e^770 at the corners, past the float64 e^709
    D = 1201
    flat = np.full(D, 1 / math.sqrt(D), dtype=complex)
    grid = PhaseGrid(-40.0, 40.0, -40.0, 40.0, 81, 81)
    values = husimi_q(flat, grid).values
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values - reference_q(flat, grid))) <= 1e-13


@pytest.mark.parametrize("a, period", [(2.0, 41), (3.5, 25)])
def test_flat_state_with_many_blocks_between_rescales(a, period):
    # the flat state's 75 blocks: one rescale after block 41 and 34 blocks
    # left unscaled, or three after blocks 25, 50 and 75
    flat = np.full(1201, 1 / math.sqrt(1201), dtype=complex)
    grid = PhaseGrid(-a, a, -a, a, 41, 41)
    assert husimi._rescale_period(max_abs_alpha(grid)) == period
    values = husimi_q(flat, grid).values
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values - reference_q(flat, grid))) <= 1e-13


@pytest.mark.parametrize("side, period", [(1 - 1e-9, 10), (1 + 1e-9, 9)])
def test_flat_state_where_the_rescale_period_steps(side, period):
    # reach, about 30.6, where the bound (17 reach^16)^10 of 10 blocks passes B_MAX
    step = math.exp((math.log(husimi.B_MAX) / 10 - math.log(17)) / 16)
    a = step * side
    grid = PhaseGrid(-a, a, -a, a, 81, 81)
    assert husimi._rescale_period(max_abs_alpha(grid)) == period
    flat = np.full(1201, 1 / math.sqrt(1201), dtype=complex)
    values = husimi_q(flat, grid).values
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values - reference_q(flat, grid))) <= 1e-13


def test_rescale_period_runs_from_the_whole_flat_state_to_one():
    assert husimi._rescale_period(1.0) >= 75
    assert husimi._rescale_period(40.0) == 9
    assert husimi._rescale_period(5.4e7) == 2
    assert husimi._rescale_period(5.5e7) == 1
    assert husimi._rescale_period(ALPHA_MAX) == 1


def test_alpha_zero_on_a_node():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=40) + 1j * rng.normal(size=40)
    psi /= np.linalg.norm(psi)
    hg = husimi_q(psi, PhaseGrid(-1.0, 1.0, -1.0, 1.0, 3, 3))
    assert hg.values[1, 1] == pytest.approx(abs(psi[0]) ** 2 / math.pi, rel=1e-14)


def test_far_coherent_peak_where_the_gaussian_underflows():
    # |beta|^2 = 784: e^{-|beta|^2} underflows, Q(beta) = 1/pi does not
    psi = coherent_state(FockDim(1200), CoherentParams(28.0, 28.0))
    hg = husimi_q(psi, WIDE_GRID)
    i = int(np.flatnonzero(WIDE_GRID.q_axis() == 28.0)[0])
    j = int(np.flatnonzero(WIDE_GRID.p_axis() == 28.0)[0])
    assert abs(hg.values[i, j] - 1 / math.pi) <= 1e-12
    assert np.all(hg.values <= (1 + 1e-12) / math.pi)


def test_norm_vacuum():
    vac = coherent_state(FockDim(30), CoherentParams(0.0, 0.0))
    assert husimi_norm(husimi_q(vac, VAC_GRID)) == pytest.approx(1.0, abs=1e-3)


def test_norm_displaced_coherent():
    psi = coherent_state(FockDim(100), CoherentParams(3.0, 0.0))
    grid = PhaseGrid(-3.0, 9.0, -6.0, 6.0, 201, 201)
    assert husimi_norm(husimi_q(psi, grid)) == pytest.approx(1.0, abs=1e-3)


def test_norm_half_window_short():
    vac = coherent_state(FockDim(30), CoherentParams(0.0, 0.0))
    half = PhaseGrid(0.0, 6.0, -6.0, 6.0, 101, 201)
    assert husimi_norm(husimi_q(vac, half)) < 0.6


def test_norm_monotone_in_extent():
    vac = coherent_state(FockDim(30), CoherentParams(0.0, 0.0))
    norms = [
        husimi_norm(husimi_q(vac, PhaseGrid(-w, w, -w, w, 101, 101)))
        for w in (1.0, 2.0, 4.0, 6.0)
    ]
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(1.0, abs=1e-3)


def test_centroid_coherent():
    psi = coherent_state(FockDim(120), CoherentParams(3.0, 3.0))
    grid = PhaseGrid(-3.0, 9.0, -3.0, 9.0, 201, 201)
    qbar, pbar = husimi_centroid(husimi_q(psi, grid))
    assert qbar == pytest.approx(3.0, abs=0.02)
    assert pbar == pytest.approx(3.0, abs=0.02)


def test_centroid_grid_too_small():
    psi = coherent_state(FockDim(120), CoherentParams(3.0, 3.0))
    small = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 51, 51)
    with pytest.raises(GridTooSmall):
        husimi_centroid(husimi_q(psi, small))


def test_centroid_refuses_a_nan_norm():
    # a grid of nan used to pass the capture check and give a nan centroid
    grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 21, 21)
    hg = HusimiGrid(grid, np.full((21, 21), np.nan))
    with pytest.raises(GridTooSmall, match="captures only nan"):
        husimi_centroid(hg)
    with pytest.raises(GridTooSmall):
        husimi_second_moments(hg)


def test_centroid_tracks_iho_flow(iho_prop):
    # before the correspondence time the packet center follows the
    # classical trajectory of its initial point
    d = FockDim(300)
    psi0 = coherent_state(d, CoherentParams(3.0, 3.0))
    grid = PhaseGrid(-20.0, 20.0, -20.0, 20.0, 201, 201)
    for t in (0.4, 0.9):
        psit = evolve(iho_prop(300), psi0, t)
        qbar, pbar = husimi_centroid(husimi_q(psit, grid))
        expected = 3 * math.exp(t)
        assert abs(qbar - expected) <= 0.05 * expected
        assert abs(pbar - expected) <= 0.05 * expected


def test_centroid_tracks_hiho_flow(hiho_prop):
    d = FockDim(250)
    psi0 = coherent_state(d, CoherentParams(8.0, 9.0))
    grid = PhaseGrid(-15.0, 15.0, -40.0, 40.0, 201, 201)
    sys_h = hiho(3.0, 0.04)
    for t in (0.07, 0.14):
        psit = evolve(hiho_prop(250), psi0, t)
        qbar, pbar = husimi_centroid(husimi_q(psit, grid))
        tr = integrate(sys_h, ClassicalState(8.0, 9.0), t, 1e-4)
        scale = math.hypot(tr.qs[-1], tr.ps[-1])
        assert math.hypot(qbar - tr.qs[-1], pbar - tr.ps[-1]) <= 0.05 * scale


def test_stretch_along_unstable_direction(iho_prop):
    # evolved saddle packet elongates along p = q and contracts along p = -q
    d = FockDim(300)
    vac = coherent_state(d, CoherentParams(0.0, 0.0))
    psit = evolve(iho_prop(300), vac, 1.2)
    grid = PhaseGrid(-20.0, 20.0, -20.0, 20.0, 201, 201)
    _, mom = husimi_second_moments(husimi_q(psit, grid))
    w, v = np.linalg.eigh(mom)
    major = v[:, 1]  # eigenvector of the larger variance
    diag = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(abs(major @ diag) - 1.0) <= 1e-2
    assert w[1] / w[0] > 10


def test_count_local_maxima_synthetic():
    qs = np.linspace(-5, 5, 101)
    g1 = np.exp(-((qs[:, None] + 2) ** 2 + (qs[None, :]) ** 2))
    g2 = np.exp(-((qs[:, None] - 2) ** 2 + (qs[None, :]) ** 2))
    grid = PhaseGrid(-5, 5, -5, 5, 101, 101)
    assert count_local_maxima(HusimiGrid(grid, g1 + g2)) == 2
    assert count_local_maxima(HusimiGrid(grid, g1)) == 1


def ndimage_local_maxima(Q):
    """count_local_maxima by scipy.ndimage: a 3 x 3 maximum filter with 0 off
    the grid, then labels with the default (4-connected) structure."""
    peaks = (Q == ndimage.maximum_filter(Q, size=3, mode="constant")) & (Q > PEAK_FRAC * Q.max())
    return ndimage.label(peaks)[1]


def _peak_grids():
    rng = np.random.default_rng(11)
    plateau = np.zeros((9, 12))
    plateau[2:4, 3:7] = 1.0   # one flat top of 8 points
    plateau[6, 8:11] = 0.5    # a flat ridge
    diagonal = np.zeros((7, 7))
    diagonal[2, 2] = diagonal[3, 3] = diagonal[4, 2] = 1.0  # touch at corners only
    border = np.zeros((6, 8))
    border[0, 0] = border[0, 5] = border[5, 7] = border[3, 0] = 1.0
    border[5, 3] = 0.05       # below PEAK_FRAC of the largest
    smooth = ndimage.gaussian_filter(rng.random((60, 50)), 2.0)
    return {
        "plateau": plateau,
        "diagonal": diagonal,
        "border": border,
        "all_equal": np.full((13, 17), 0.25),
        "noise": rng.random((40, 45)),
        "coarse_noise": rng.integers(0, 3, size=(30, 30)).astype(float),
        "smooth": smooth,
    }


def _local_maxima(Q):
    return count_local_maxima(HusimiGrid(PhaseGrid(0.0, 1.0, 0.0, 1.0, *Q.shape), Q))


@pytest.mark.parametrize("name", sorted(_peak_grids()))
def test_count_local_maxima_equals_ndimage(name):
    Q = _peak_grids()[name]
    assert _local_maxima(Q) == ndimage_local_maxima(Q)


def test_count_local_maxima_on_the_plateau_grids():
    counts = {name: _local_maxima(Q) for name, Q in _peak_grids().items()
              if name in ("plateau", "diagonal", "border")}
    assert counts == {"plateau": 2, "diagonal": 3, "border": 4}


@pytest.mark.parametrize("figure", ["fig5", "fig8"])
def test_count_local_maxima_equals_ndimage_on_the_figure_grids(figure, iho_prop, hiho_prop):
    # every Husimi grid reproduce-all writes
    cfg = cli._load_bundled(figure)
    k = cfg.n_p[0]
    prop = iho_prop(k) if cfg.system == "iho" else hiho_prop(k, cfg.gamma, cfg.g)
    for pt in cfg.points:
        psi0 = coherent_state(FockDim(k), CoherentParams(pt.q, pt.p))
        for t in cfg.husimi.snapshot_times:
            hg = husimi_q(evolve(prop, psi0, t), cfg.husimi.grid)
            assert count_local_maxima(hg) == ndimage_local_maxima(hg.values), (pt.label, t)
