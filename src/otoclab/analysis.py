"""Quantitative extraction from raw series: log-linear exponential fits,
automatic fit-window search, Ehrenfest time, and the classical-quantum
correspondence (deviation) time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    InvalidRate,
    NonFiniteValues,
    NonPositiveValues,
    WindowTooSparse,
)
from .evolution import TimeSeries

MIN_FIT_SAMPLES = 5
# auto_window: r^2 ties within _TIE go to the longer window; windows more
# than _FILTER_MARGIN below the running maximum r^2 can never be accepted;
# about _BLOCK windows are scored at a time
_TIE = 1e-12
_FILTER_MARGIN = 4e-12
_BLOCK = 1 << 15


@dataclass(frozen=True)
class ExpFit:
    """Least-squares fit of ln(values) = rate * t + log_intercept."""

    rate: float
    log_intercept: float
    r_squared: float
    window: tuple[float, float]


def fit_exponential(series: TimeSeries, window: tuple[float, float]) -> ExpFit:
    """Fit ln(values) vs t over [window[0], window[1]]."""
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    if np.count_nonzero(mask) < MIN_FIT_SAMPLES:
        raise WindowTooSparse(
            f"only {np.count_nonzero(mask)} samples in [{t_lo}, {t_hi}]"
        )
    vals = series.values[mask]
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValues("cannot fit non-finite values")
    if np.any(vals <= 0):
        raise NonPositiveValues("cannot fit log of non-positive values")
    t = series.times[mask]
    y = np.log(vals)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ExpFit(
        rate=float(slope),
        log_intercept=float(intercept),
        r_squared=min(max(r2, 0.0), 1.0),
        window=(float(t_lo), float(t_hi)),
    )


def auto_window(
    series: TimeSeries,
    min_span: float,
    search: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Contiguous window of span >= min_span maximizing the fit r^2.

    Every sample-aligned window (i, j) with at least MIN_FIT_SAMPLES
    samples is scored from prefix sums and visited in row-major order
    (i outer, j inner). Tie rule: a window replaces the best so far when
    its r^2 beats the best r^2 by more than 1e-12, or comes within 1e-12
    of it with a longer span; the best r^2 then becomes the larger of the
    two. Ties within rounding noise thus go to the longest window, so a
    clean exponential yields the full domain rather than an arbitrary
    minimal slice.

    The windows are scored in row blocks of about _BLOCK windows, so
    memory is O(block * n), with the expressions and operation order of
    the one-window-at-a-time loop, so every r^2 is bit-identical to it.
    A window whose r^2 is at the running maximum M is either accepted or
    within 1e-12 of the best, and the best never decreases, so from then
    on the best is >= M - 1e-12. A window more than 4e-12 below the
    maximum of the r^2 before it therefore fails both tests of the tie
    rule (the margin beyond 2e-12 absorbs the rounding of the
    comparisons) and is dropped; the rule is replayed in order on the windows
    left, which gives exactly the loop's result.
    """
    if min_span <= 0:
        raise ValueError("min_span must be positive")
    t = series.times
    v = series.values
    if search is not None:
        mask = (t >= search[0]) & (t <= search[1])
        t, v = t[mask], v[mask]
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise NonFiniteValues("auto_window requires finite times and values")
    if np.any(v <= 0):
        raise NonPositiveValues("auto_window requires positive values")
    n = t.size
    if n < MIN_FIT_SAMPLES:
        raise WindowTooSparse(f"only {n} samples available")
    y = np.log(v)
    # prefix sums for O(1) per-window regression statistics
    c1 = np.concatenate([[0.0], np.cumsum(t)])
    c2 = np.concatenate([[0.0], np.cumsum(t * t)])
    cy = np.concatenate([[0.0], np.cumsum(y)])
    cy2 = np.concatenate([[0.0], np.cumsum(y * y)])
    cty = np.concatenate([[0.0], np.cumsum(t * y)])
    k = MIN_FIT_SAMPLES - 1
    rows = max(1, _BLOCK // n)
    best_r2, best_span, best = -np.inf, -np.inf, None
    peak = -np.inf
    for i0 in range(0, n - k, rows):
        # windows (i, j) of rows i0 <= i < i0 + rows, in row-major order
        block = np.arange(i0, min(i0 + rows, n - k))[:, None]
        span = t - t[block]
        fits = (np.arange(n) >= block + k) & (span >= min_span)
        i, j = np.nonzero(fits)
        i += i0
        span = span[fits]
        m = j - i + 1
        st = c1[j + 1] - c1[i]
        sy = cy[j + 1] - cy[i]
        sxx = (c2[j + 1] - c2[i]) - st * st / m
        syy = (cy2[j + 1] - cy2[i]) - sy * sy / m
        ok = (sxx > 0) & (syy > 0)
        i, j, span, m, st, sy, sxx, syy = (
            a[ok] for a in (i, j, span, m, st, sy, sxx, syy)
        )
        sxy = (cty[j + 1] - cty[i]) - st * sy / m
        r2 = (sxy * sxy) / (sxx * syy)
        if r2.size == 0:
            continue
        running = np.maximum(np.maximum.accumulate(r2), peak)
        peak = running[-1]
        near = r2 >= running - _FILTER_MARGIN
        for r, s, a, b in zip(
            r2[near].tolist(), span[near].tolist(), i[near].tolist(), j[near].tolist()
        ):
            if r > best_r2 + _TIE or (r > best_r2 - _TIE and s > best_span):
                best_r2 = max(best_r2, r)
                best_span, best = s, (a, b)
    if best is None:
        raise WindowTooSparse("no window of the requested span fits the grid")
    return float(t[best[0]]), float(t[best[1]])


def ehrenfest_time(rate: float, n_p: int) -> float:
    """tau = ln(n_p) / rate."""
    if not (math.isfinite(rate) and rate > 0):
        raise InvalidRate(f"rate must be finite and positive, got {rate}")
    if n_p < 2:
        raise InvalidRate(f"n_p must be >= 2, got {n_p}")
    return math.log(n_p) / rate


def correspondence_time(
    run: TimeSeries, reference: TimeSeries, epsilon: float
) -> float | None:
    """First time |run - reference| > epsilon * max(1, |reference|), or
    either is nan; None when the series never separate."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if run.times.shape != reference.times.shape or not np.allclose(
        run.times, reference.times, rtol=0, atol=1e-12
    ):
        raise GridMismatch("series must share the same time grid")
    dev = np.abs(run.values - reference.values)
    bound = epsilon * np.maximum(1.0, np.abs(reference.values))
    idx = np.nonzero(~(dev <= bound))[0]
    if idx.size == 0:
        return None
    return float(run.times[idx[0]])
