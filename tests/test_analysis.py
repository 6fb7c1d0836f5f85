import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otoclab.analysis import (
    MIN_FIT_SAMPLES,
    ExpFit,
    auto_window,
    correspondence_time,
    ehrenfest_time,
    fit_exponential,
)
from otoclab.errors import (
    GridMismatch,
    InvalidRate,
    NonFiniteValues,
    NonPositiveValues,
    WindowTooSparse,
)
from otoclab.evolution import TimeSeries, variance_otoc
from otoclab.fock import CoherentParams, FockDim, coherent_state


def make_series(times, values, label=""):
    return TimeSeries(times=np.asarray(times, float), values=np.asarray(values, float), label=label)


def reference_auto_window(series, min_span, search=None):
    """auto_window as a scalar double loop over every window, one at a
    time: the reference the vectorised search must match exactly."""
    if min_span <= 0:
        raise ValueError("min_span must be positive")
    t = series.times
    v = series.values
    if search is not None:
        mask = (t >= search[0]) & (t <= search[1])
        t, v = t[mask], v[mask]
    if np.any(v <= 0):
        raise NonPositiveValues("auto_window requires positive values")
    n = t.size
    if n < MIN_FIT_SAMPLES:
        raise WindowTooSparse(f"only {n} samples available")
    y = np.log(v)
    c1 = np.concatenate([[0.0], np.cumsum(t)])
    c2 = np.concatenate([[0.0], np.cumsum(t * t)])
    cy = np.concatenate([[0.0], np.cumsum(y)])
    cy2 = np.concatenate([[0.0], np.cumsum(y * y)])
    cty = np.concatenate([[0.0], np.cumsum(t * y)])
    best_r2, best_span, best = -np.inf, -np.inf, None
    for i in range(n):
        for j in range(i + MIN_FIT_SAMPLES - 1, n):
            span = t[j] - t[i]
            if span < min_span:
                continue
            m = j - i + 1
            st = c1[j + 1] - c1[i]
            st2 = c2[j + 1] - c2[i]
            sy = cy[j + 1] - cy[i]
            sy2 = cy2[j + 1] - cy2[i]
            sty = cty[j + 1] - cty[i]
            sxx = st2 - st * st / m
            sxy = sty - st * sy / m
            syy = sy2 - sy * sy / m
            if sxx <= 0 or syy <= 0:
                continue
            r2 = (sxy * sxy) / (sxx * syy)
            if r2 > best_r2 + 1e-12 or (r2 > best_r2 - 1e-12 and span > best_span):
                best_r2 = max(best_r2, r2)
                best_span, best = span, (float(t[i]), float(t[j]))
    if best is None:
        raise WindowTooSparse("no window of the requested span fits the grid")
    return best


def both_windows(series, min_span, search=None):
    """(auto_window, reference_auto_window) results, or the error type
    each raised."""
    out = []
    for search_fn in (auto_window, reference_auto_window):
        try:
            out.append(search_fn(series, min_span, search))
        except (NonPositiveValues, WindowTooSparse) as exc:
            out.append(type(exc))
    return tuple(out)


def test_fit_pure_exponential_exact():
    t = np.linspace(0, 3, 61)
    fit = fit_exponential(make_series(t, np.exp(2 * t)), (0.0, 3.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_window_restriction():
    t = np.linspace(0, 4, 81)
    v = np.where(t < 2, np.exp(t), np.exp(2.0) * np.exp(3 * (t - 2)))
    fit = fit_exponential(make_series(t, v), (0.0, 2.0))
    assert fit.rate == pytest.approx(1.0, abs=1e-9)


def test_fit_errors():
    t = np.linspace(0, 1, 21)
    with pytest.raises(NonPositiveValues):
        fit_exponential(make_series(t, t - 0.5), (0.0, 1.0))
    with pytest.raises(WindowTooSparse):
        fit_exponential(make_series(t, np.exp(t)), (0.0, 0.1))


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(1e-6, 1e6), rate=st.floats(0.1, 10))
def test_rate_invariant_under_rescaling(scale, rate):
    t = np.linspace(0, 2, 41)
    base = fit_exponential(make_series(t, np.exp(rate * t)), (0.0, 2.0))
    scaled = fit_exponential(make_series(t, scale * np.exp(rate * t)), (0.0, 2.0))
    assert scaled.rate == pytest.approx(base.rate, abs=1e-8)
    assert scaled.log_intercept == pytest.approx(
        base.log_intercept + math.log(scale), abs=1e-8
    )


def test_auto_window_full_domain_for_pure_exponential():
    t = np.linspace(0, 3, 61)
    lo, hi = auto_window(make_series(t, np.exp(2 * t)), min_span=1.0)
    assert lo == pytest.approx(0.0, abs=0.2)
    assert hi == pytest.approx(3.0, abs=0.2)


def test_auto_window_excludes_plateau():
    t = np.linspace(0, 3, 121)
    knee = 1.5
    v = np.where(t < knee, np.exp(2 * t), np.exp(2 * knee))
    lo, hi = auto_window(make_series(t, v), min_span=0.5)
    step = t[1] - t[0]
    assert hi <= knee + step


def test_auto_window_noisy_exponential():
    rng = np.random.default_rng(42)
    t = np.linspace(0, 3, 301)
    v = np.exp(2 * t) * (1 + 0.01 * rng.standard_normal(t.size))
    lo, hi = auto_window(make_series(t, v), min_span=1.0)
    fit = fit_exponential(make_series(t, v), (lo, hi))
    assert fit.rate == pytest.approx(2.0, rel=0.02)


def test_auto_window_rejects_nonpositive():
    t = np.linspace(0, 1, 21)
    with pytest.raises(NonPositiveValues):
        auto_window(make_series(t, t - 0.5), min_span=0.1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(MIN_FIT_SAMPLES, 90),
    rate=st.floats(0.1, 20.0),
    noise=st.sampled_from([0.0, 1e-14, 1e-12, 1e-9, 1e-4, 1e-2, 0.2]),
    knee=st.floats(0.0, 1.0),
    span_frac=st.floats(0.01, 1.2),
    search=st.one_of(st.none(), st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))),
    seed=st.integers(0, 2**16),
)
def test_auto_window_matches_reference(n, rate, noise, knee, span_frac, search, seed):
    # noisy exponential growth up to the knee, a plateau after it
    t = np.linspace(0.0, 1.0, n)
    v = np.exp(rate * np.minimum(t, knee))
    v *= 1 + noise * np.random.default_rng(seed).standard_normal(n)
    new, ref = both_windows(make_series(t, v), span_frac, search)
    assert new == ref


@pytest.mark.parametrize("values", [
    lambda t: np.exp(2 * t),
    lambda t: np.exp(t) * (1 + 1e-13 * np.sin(37 * t)),
], ids=["exp2t", "ripple"])
def test_auto_window_all_tie_series_match_reference(values):
    t = np.linspace(0, 3, 301)
    s = make_series(t, values(t))
    assert auto_window(s, 0.5) == reference_auto_window(s, 0.5) == (0.0, 3.0)


def test_auto_window_constant_series_is_too_sparse():
    s = make_series(np.linspace(0, 3, 61), np.ones(61))
    assert both_windows(s, 0.5) == (WindowTooSparse, WindowTooSparse)
    # ln 2.5 leaves prefix-sum rounding noise, so r^2 is noise; still exact
    s = make_series(np.linspace(0, 3, 61), np.full(61, 2.5))
    new, ref = both_windows(s, 0.5)
    assert new == ref


@pytest.mark.parametrize("system", ["iho", "hiho"])
@pytest.mark.parametrize("n_p", [75, 300])
def test_auto_window_matches_reference_on_variance_series(system, n_p, iho_prop, hiho_prop):
    # (time grid, min_span, search) of the Ehrenfest sweep, and of
    # fig2b / fig7_otoc
    if system == "iho":
        prop, centres = iho_prop(n_p), [(0.0, 0.0), (0.4, -0.3), (-0.6, 0.7)]
        fits = [(np.linspace(0.0, 4.0, 601), 0.1, (0.0, math.log(n_p) / 4)),
                (np.linspace(0.0, 4.0, 601), 0.05, (0.0, 1.5))]
    else:
        # (8, 9) is fig7_otoc's stable point; its tail needs n_p >= 250
        prop, centres = hiho_prop(n_p), [(0.0, 0.0), (1.2, -0.5)]
        centres += [(8.0, 9.0)] if n_p >= 250 else [(-0.8, 1.0)]
        fits = [(np.linspace(0.0, 2.0, 601), 0.08, (0.0, math.log(n_p) / 12)),
                (np.linspace(0.0, 0.3, 601), 0.08, (0.0, 0.25))]
    for q, p in centres:
        psi0 = coherent_state(FockDim(n_p), CoherentParams(q, p))
        for times, min_span, search in fits:
            series = variance_otoc(prop, psi0, times)
            new, ref = both_windows(series, min_span, search)
            assert new == ref


def test_auto_window_row_blocks_match_reference():
    # 601 samples and no search range: the scan spans several row blocks
    rng = np.random.default_rng(7)
    t = np.linspace(0, 3, 601)
    v = np.exp(2 * np.minimum(t, 2.0)) * (1 + 1e-3 * rng.standard_normal(t.size))
    s = make_series(t, v)
    assert auto_window(s, 0.2) == reference_auto_window(s, 0.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_auto_window_rejects_non_finite_values(bad):
    t = np.linspace(0, 3, 301)
    v = np.exp(2 * t)
    v[20] = bad
    with pytest.raises(NonFiniteValues):
        auto_window(make_series(t, v), min_span=0.5)
    # outside the search range the sample is never read
    assert auto_window(make_series(t, v), 0.5, (1.0, 3.0)) == (1.0, 3.0)


def test_auto_window_rejects_non_finite_times():
    # a TimeSeries grid is strictly increasing, so only its end can be inf
    t = np.linspace(0, 3, 301)
    v = np.exp(2 * t)
    t[-1] = np.inf
    with pytest.raises(NonFiniteValues):
        auto_window(make_series(t, v), min_span=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_values(bad):
    t = np.linspace(0, 1, 21)
    v = np.exp(t)
    v[5] = bad
    with pytest.raises(NonFiniteValues):
        fit_exponential(make_series(t, v), (0.0, 1.0))
    assert fit_exponential(make_series(t, v), (0.5, 1.0)).rate == pytest.approx(1.0)


def test_ehrenfest_time_values():
    assert ehrenfest_time(2.0, 300) == pytest.approx(math.log(300) / 2)
    assert ehrenfest_time(25.52, 250) == pytest.approx(0.2164, abs=2e-3)
    assert ehrenfest_time(1.0, 7) == pytest.approx(math.log(7))


def test_ehrenfest_monotonicity():
    assert ehrenfest_time(3.0, 300) < ehrenfest_time(2.0, 300)
    assert ehrenfest_time(2.0, 200) < ehrenfest_time(2.0, 300)


def test_ehrenfest_invalid():
    with pytest.raises(InvalidRate):
        ehrenfest_time(0.0, 300)
    with pytest.raises(InvalidRate):
        ehrenfest_time(1.0, 1)
    for rate in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidRate):
            ehrenfest_time(rate, 100)


def test_correspondence_identical_series():
    t = np.linspace(0, 1, 11)
    s = make_series(t, np.exp(t))
    assert correspondence_time(s, s, 0.02) is None


def test_correspondence_detects_step():
    t = np.linspace(0, 1, 11)
    ref = np.ones(11)
    run = ref.copy()
    run[6:] += 0.5
    assert correspondence_time(make_series(t, run), make_series(t, ref), 0.1) == pytest.approx(t[6])


def test_correspondence_nan_deviation_is_a_departure():
    # a nan used to compare false with the bound and so read as agreement
    t = np.linspace(0, 1, 11)
    ref = np.ones(11)
    run = ref.copy()
    run[4] = math.nan
    assert correspondence_time(make_series(t, run), make_series(t, ref), 0.1) == t[4]
    assert correspondence_time(make_series(t, ref), make_series(t, run), 0.1) == t[4]


def test_correspondence_monotone_in_epsilon():
    t = np.linspace(0, 2, 201)
    ref = np.exp(t)
    run = ref * (1 + 0.05 * t)  # deviation grows with time
    tps = [
        correspondence_time(make_series(t, run), make_series(t, ref), eps)
        for eps in (0.01, 0.03, 0.08)
    ]
    assert tps[0] <= tps[1] <= tps[2]


def test_correspondence_grid_mismatch():
    s1 = make_series(np.linspace(0, 1, 11), np.ones(11))
    s2 = make_series(np.linspace(0, 2, 11), np.ones(11))
    with pytest.raises(GridMismatch):
        correspondence_time(s1, s2, 0.02)


def test_expfit_fields():
    fit = ExpFit(rate=2.0, log_intercept=0.0, r_squared=1.0, window=(0.0, 1.0))
    assert fit.window[0] < fit.window[1]
    assert 0.0 <= fit.r_squared <= 1.0
