import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from otoclab.classical import ClassicalState, hiho, integrate
from otoclab.errors import GridTooSmall
from otoclab.evolution import evolve
from otoclab.fock import CoherentParams, FockDim, coherent_state
from otoclab.husimi import (
    RESCALE_EVERY,
    HusimiGrid,
    PhaseGrid,
    count_local_maxima,
    husimi_centroid,
    husimi_diagnostics,
    husimi_norm,
    husimi_q,
    husimi_second_moments,
)

VAC_GRID = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 201, 201)
WIDE_GRID = PhaseGrid(-40.0, 40.0, -40.0, 40.0, 161, 161)  # corners |alpha|^2/2 = 800


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
    """husimi_q as it was before its Horner step reused one buffer: the
    coefficient term is a fresh complex array on every step."""
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


def test_equals_the_previous_horner_loop_bit_for_bit(hiho_prop):
    psi0 = coherent_state(FockDim(600), CoherentParams(8.0, 9.0))
    rng = np.random.default_rng(4)
    noise = rng.normal(size=(90, 2)) @ np.array([1, 1j])
    states = [evolve(hiho_prop(600), psi0, t) for t in (0.0, 1.2)]
    states += [noise / np.linalg.norm(noise), np.full(1201, 1 / math.sqrt(1201), dtype=complex)]
    for psi in states:
        got = husimi_q(psi, WIDE_GRID).values
        assert np.array_equal(got.view(np.uint64), husimi_q_before(psi, WIDE_GRID).view(np.uint64))


def test_flat_state_needs_the_rescale():
    # |f(conj alpha)| reaches about e^770 at the corners, past the float64 e^709
    D = 1201
    flat = np.full(D, 1 / math.sqrt(D), dtype=complex)
    grid = PhaseGrid(-40.0, 40.0, -40.0, 40.0, 81, 81)
    values = husimi_q(flat, grid).values
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values - reference_q(flat, grid))) <= 1e-13


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


def test_diagnostics_equal_the_separate_functions():
    psi = coherent_state(FockDim(120), CoherentParams(3.0, -2.0))
    hg = husimi_q(psi, PhaseGrid(-4.0, 10.0, -9.0, 5.0, 121, 101))
    norm, centroid, mom = husimi_diagnostics(hg)
    assert norm == husimi_norm(hg)
    assert centroid == husimi_centroid(hg)
    assert np.array_equal(mom, husimi_second_moments(hg))
    small = husimi_q(psi, PhaseGrid(-1.0, 1.0, -1.0, 1.0, 51, 51))
    assert husimi_diagnostics(small) == (husimi_norm(small), None, None)


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
    mom = husimi_second_moments(husimi_q(psit, grid))
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
