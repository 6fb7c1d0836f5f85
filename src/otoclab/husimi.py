"""Husimi Q distribution of a pure state on a rectangular phase-space grid,
with norm, centroid, second-moment, and peak-counting diagnostics.

Q(q1, p1) = |<alpha|psi>|^2 / pi with alpha = (q1 + i p1)/sqrt(2). The
overlap uses the exact coherent amplitudes for n < D, so no truncation of
the probe state is involved; Q is bounded by 1/pi everywhere.

The overlap is e^{-|alpha|^2/2} f(conj(alpha)) with the Bargmann polynomial
f(z) = sum_n c_n z^n / sqrt(n!), evaluated by Horner over the whole grid at
once with a per-point log scale, so neither large |alpha| nor the
e^{-|alpha|^2} factor overflows or underflows where Q is representable.

Integration measure: d^2 alpha = dq dp / 2, so grid integrals carry a
factor 1/2 to make a fully captured state integrate to 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import label, maximum_filter

from .errors import GridTooSmall

# count_local_maxima counts peaks above this fraction of max(Q)
PEAK_FRAC = 0.1


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform rectangular grid, endpoints inclusive."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int

    def __post_init__(self):
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ValueError("grid bounds must be ordered")
        if self.n_q < 2 or self.n_p < 2:
            raise ValueError("need at least 2 samples per axis")

    def q_axis(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n_q)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)


@dataclass(frozen=True)
class HusimiGrid:
    """Q values on a PhaseGrid; values[i, j] = Q(q_i, p_j)."""

    grid: PhaseGrid
    values: np.ndarray


# Steps between rescales of the Horner value. Between rescales |b| grows by
# at most a factor 1 + max|alpha| per step (|b| <= 1 after a rescale and
# |c_n| <= 1 for a normalised state), so 16 steps stay finite for |alpha| up
# to ~1e19.
RESCALE_EVERY = 16


def husimi_q(state: np.ndarray, grid: PhaseGrid) -> HusimiGrid:
    """Evaluate Q on every grid point by Horner's rule over the flattened grid.

    With z = conj(alpha), f(z) = sum_n c_n z^n / sqrt(n!) is accumulated as
    b = c_{D-1}, then b = c_n + (z / sqrt(n + 1)) b for n = D-2 .. 0. Every
    RESCALE_EVERY steps b is divided by max(|b|, 1) and the log of that
    factor is added to a per-point log scale; later coefficients enter as
    c_n exp(-log_scale). Q = exp(2 ln|b| + 2 log_scale - |alpha|^2) / pi is
    formed in the log domain. Memory is a few grid-sized arrays.
    """
    D = state.shape[0]
    q, p = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    alpha_c = ((q - 1j * p) / np.sqrt(2)).ravel()
    inv_sqrt = 1.0 / np.sqrt(np.arange(1, D))
    b = np.full(alpha_c.shape, state[D - 1], dtype=complex)
    log_scale = np.zeros(alpha_c.shape)
    # complex, so each step's c_n exp(-log_scale) goes into one buffer
    coeff_scale = np.ones(alpha_c.shape, dtype=complex)
    term = np.empty_like(b)
    for n in range(D - 2, -1, -1):
        b *= alpha_c
        b *= inv_sqrt[n]
        np.multiply(coeff_scale, state[n], out=term)
        b += term
        if n % RESCALE_EVERY == 0:
            factor = np.maximum(np.abs(b), 1.0)
            b /= factor
            log_scale += np.log(factor)
            coeff_scale[:] = np.exp(-log_scale)
    with np.errstate(divide="ignore"):  # b = 0 gives ln 0 = -inf, so Q = 0
        log_q = 2 * (np.log(np.abs(b)) + log_scale) - np.abs(alpha_c) ** 2
    values = np.exp(log_q).reshape(grid.n_q, grid.n_p) / np.pi
    return HusimiGrid(grid=grid, values=values)


def _trapz2(vals: np.ndarray, grid: PhaseGrid) -> float:
    inner = np.trapezoid(vals, grid.p_axis(), axis=1)
    return float(np.trapezoid(inner, grid.q_axis()))


def husimi_norm(hg: HusimiGrid) -> float:
    """Integral of Q over the grid in the d^2 alpha = dq dp / 2 measure;
    1 when the grid captures the whole state."""
    return _trapz2(hg.values, hg.grid) / 2


def _centroid(hg: HusimiGrid, w: float) -> tuple[float, float]:
    """(qbar, pbar) given the grid integral w of Q (twice husimi_norm)."""
    norm = w / 2
    if norm < 0.99:
        raise GridTooSmall(
            f"grid captures only {norm:.4f} of the packet; enlarge the window"
        )
    qs = hg.grid.q_axis()[:, None]
    ps = hg.grid.p_axis()[None, :]
    qbar = _trapz2(hg.values * qs, hg.grid) / w
    pbar = _trapz2(hg.values * ps, hg.grid) / w
    return qbar, pbar


def husimi_centroid(hg: HusimiGrid) -> tuple[float, float]:
    """Normalized first moments (qbar, pbar) of Q over the grid.

    Requires husimi_norm >= 0.99 so the centroid is meaningful.
    """
    return _centroid(hg, _trapz2(hg.values, hg.grid))


def husimi_second_moments(hg: HusimiGrid) -> np.ndarray:
    """Central second-moment matrix [[<dq^2>, <dq dp>], [<dq dp>, <dp^2>]]."""
    w = _trapz2(hg.values, hg.grid)
    return _second_moments(hg, w, _centroid(hg, w))


def _second_moments(hg: HusimiGrid, w: float, centroid) -> np.ndarray:
    qbar, pbar = centroid
    dq = hg.grid.q_axis()[:, None] - qbar
    dp = hg.grid.p_axis()[None, :] - pbar
    sqq = _trapz2(hg.values * dq * dq, hg.grid) / w
    spp = _trapz2(hg.values * dp * dp, hg.grid) / w
    sqp = _trapz2(hg.values * dq * dp, hg.grid) / w
    return np.array([[sqq, sqp], [sqp, spp]])


def husimi_diagnostics(
    hg: HusimiGrid,
) -> tuple[float, tuple[float, float] | None, np.ndarray | None]:
    """(husimi_norm, husimi_centroid, husimi_second_moments) from one
    integral of Q; the last two are None where husimi_centroid would raise
    GridTooSmall."""
    w = _trapz2(hg.values, hg.grid)
    try:
        centroid = _centroid(hg, w)
    except GridTooSmall:
        return w / 2, None, None
    return w / 2, centroid, _second_moments(hg, w, centroid)


def count_local_maxima(hg: HusimiGrid) -> int:
    """Number of distinct local maxima above PEAK_FRAC * max(Q); plateau peaks
    are merged via connected-component labelling."""
    Q = hg.values
    peaks = (Q == maximum_filter(Q, size=3, mode="constant")) & (Q > PEAK_FRAC * Q.max())
    _, n_comp = label(peaks)
    return int(n_comp)
