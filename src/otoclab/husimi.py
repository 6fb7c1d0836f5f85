"""Husimi Q distribution of a pure state on a rectangular phase-space grid,
with norm, centroid, second-moment, and peak-counting diagnostics.
``husimi_second_moments`` returns the centroid it is centred on together
with its matrix, so a caller that needs both does not integrate the
centroid twice.

Q(q1, p1) = |<alpha|psi>|^2 / pi with alpha = (q1 + i p1)/sqrt(2). The
overlap uses the exact coherent amplitudes for n < D, so no truncation of
the probe state is involved; Q is bounded by 1/pi everywhere.

The overlap is e^{-|alpha|^2/2} f(conj(alpha)) with the Bargmann polynomial
f(z) = sum_n c_n z^n / sqrt(n!). Horner's rule for f is run in blocks of
RESCALE_EVERY steps: each block is one small matrix-vector product against
a table of the powers z^0 .. z^RESCALE_EVERY, and a per-point log scale
keeps neither large |alpha| nor the e^{-|alpha|^2} factor from overflowing
or underflowing where Q is representable. The scale is taken every R
blocks, R the most blocks the bound in the RESCALE_EVERY comment lets pass
at the grid's largest |alpha| while |b| stays under B_MAX: 9 on a +-40
grid, and 1 from |alpha| of about 5.4e7 on. At ALPHA_MAX one block's bound
alone is 1.7e305, so only a rescale after every block keeps |b| finite.

Integration measure: d^2 alpha = dq dp / 2, so grid integrals carry a
factor 1/2 to make a fully captured state integrate to 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# Horner steps per block. A normalised state has |c_n| <= 1, so every block
# coefficient g_k and carry factor sigma is at most 1 in modulus, and with
# M = max(1, |alpha|) a block turns |b| into at most M^16 (|b| + 16), or
# 17 M^16 for the highest block, which starts from b = 0. So from |b| <= 1
# after a rescale, r blocks leave |b| <= (17 M^16)^r. The Horner value is
# rescaled every R blocks, R the largest r whose bound is at most B_MAX, a
# wide margin under the float64 maximum 1.8e308, and at least 1: R = 1 from
# |alpha| of about 5.4e7, where two blocks' bound passes B_MAX, and past
# about 3.5e15 one block's bound does too. With R = 1 the bound 17 M^16, and
# every power in the table, stays finite for |alpha| up to about 1.5e19;
# grids are held to ALPHA_MAX, inside that envelope: husimi_q raises
# ValueError for a grid past it, and the config rejects such a grid when it
# is loaded.
RESCALE_EVERY = 16
B_MAX = 1e250
ALPHA_MAX = 1e19
# grid points per power table z^0 .. z^RESCALE_EVERY: 16 * 17 bytes a point,
# 1.1 MB per table
CHUNK = 4096


def max_abs_alpha(grid: PhaseGrid) -> float:
    """The largest |alpha| on the grid, reached at a corner."""
    q = max(abs(grid.q_min), abs(grid.q_max))
    p = max(abs(grid.p_min), abs(grid.p_max))
    return math.hypot(q, p) / math.sqrt(2)


def _rescale_period(reach: float) -> int:
    """R of the RESCALE_EVERY comment for a grid reaching |alpha| = reach:
    the most blocks whose bound (17 max(1, reach)^16)^R on |b| is at most
    B_MAX, and at least 1."""
    block_growth = 17 * max(1.0, reach) ** RESCALE_EVERY
    return max(1, int(math.log(B_MAX) / math.log(block_growth)))


def _blocks(state: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Horner's rule for f, b = c_n + s_n z b with s_n = 1/sqrt(n + 1), cut
    into blocks [m, top), highest first, each ending at an n = m that is a
    multiple of RESCALE_EVERY. Over one block b becomes
    sigma z^L b + sum_k g_k z^k with g_k = c_{m+k} prod_{j<k} s_{m+j} and
    sigma = prod_{j<L} s_{m+j}. The highest block starts from b = 0 (sigma is
    0) and is 1 to RESCALE_EVERY + 1 steps long; the others are
    RESCALE_EVERY long."""
    D = state.shape[0]
    inv_sqrt = 1.0 / np.sqrt(np.arange(1, D))
    blocks = []
    top = D
    for m in range(RESCALE_EVERY * (max(D - 2, 0) // RESCALE_EVERY), -1, -RESCALE_EVERY):
        w = np.ones(top - m)
        np.cumprod(inv_sqrt[m:top - 1], out=w[1:])
        sigma = w[-1] * inv_sqrt[top - 1] if top < D else 0.0
        blocks.append((state[m:top] * w, sigma))
        top = m
    return blocks


def husimi_q(state: np.ndarray, grid: PhaseGrid) -> HusimiGrid:
    """Evaluate Q on every grid point by a blocked Horner's rule.

    With z = conj(alpha), f(z) = sum_n c_n z^n / sqrt(n!) is accumulated
    block by block (see _blocks): b = sigma z^L b + e^{-log_scale} sum_k g_k z^k,
    where the sum is one complex matrix-vector product of the block's g_k with
    a table of z^0 .. z^RESCALE_EVERY. After every R-th block b is divided by
    max(|b|, 1) and the log of that factor is added to a per-point log scale.
    R comes from the grid's reach (see RESCALE_EVERY): the most blocks whose
    bound on |b| stays under B_MAX, 9 on a +-40 grid. R is 1 from |alpha| of
    about 5.4e7 on; at ALPHA_MAX one block may take |b| from 1 to nearly
    1.7e305, so b must be rescaled after every block there. Between two
    rescales the log scale, and so e^{-log_scale}, stays as it was.
    Q = exp(2 ln|b| + 2 log_scale - |alpha|^2) / pi is formed in the log
    domain from a finite |b|, so no rescale is needed after the last block.

    The grid is evaluated CHUNK points at a time. Memory is the power table
    (1.1 MB), a few chunk-sized arrays and a few grid-sized ones, whatever
    the dimension D. A grid whose corners pass |alpha| = ALPHA_MAX raises
    ValueError before any arithmetic.
    """
    reach = max_abs_alpha(grid)
    if reach > ALPHA_MAX:
        raise ValueError(f"grid corners reach |alpha| = {reach:.3g}, "
                         f"past ALPHA_MAX = {ALPHA_MAX:g}")
    blocks = _blocks(state)
    period = _rescale_period(reach)
    alpha_c = ((grid.q_axis()[:, None] - 1j * grid.p_axis()) / np.sqrt(2)).ravel()
    values = np.empty(alpha_c.size)
    powers = np.empty((RESCALE_EVERY + 1, min(CHUNK, alpha_c.size)), dtype=complex)
    for start in range(0, alpha_c.size, CHUNK):
        z = alpha_c[start:start + CHUNK]
        log_q = _log_q(blocks, z, powers[:, :z.size], period)
        values[start:start + z.size] = np.exp(log_q) / np.pi
    return HusimiGrid(grid=grid, values=values.reshape(grid.n_q, grid.n_p))


def _log_q(blocks: list[tuple[np.ndarray, float]], z: np.ndarray,
           powers: np.ndarray, period: int) -> np.ndarray:
    """ln(pi Q) at the points conj(alpha) = z; powers is the table to fill,
    and b is rescaled after every period-th block."""
    powers[0] = 1.0
    for k in range(1, RESCALE_EVERY + 1):
        np.multiply(powers[k - 1], z, out=powers[k])
    b = np.zeros(z.size, dtype=complex)
    log_scale = np.zeros(z.size)
    # complex, so each block's sum times exp(-log_scale) is formed in one buffer
    coeff_scale = np.ones(z.size, dtype=complex)
    term = np.empty_like(b)
    factor = np.empty(z.size)
    for i, (g, sigma) in enumerate(blocks, 1):
        np.matmul(g, powers[:g.size], out=term)
        term *= coeff_scale
        b *= powers[RESCALE_EVERY]
        b *= sigma
        b += term
        if i % period:
            continue
        np.abs(b, out=factor)
        np.maximum(factor, 1.0, out=factor)
        b /= factor
        np.log(factor, out=factor)
        log_scale += factor
        coeff_scale[:] = np.exp(-log_scale)
    with np.errstate(divide="ignore"):  # b = 0 gives ln 0 = -inf, so Q = 0
        return 2 * (np.log(np.abs(b)) + log_scale) - np.abs(z) ** 2


def _trapz2(vals: np.ndarray, grid: PhaseGrid) -> float:
    inner = np.trapezoid(vals, grid.p_axis(), axis=1)
    return float(np.trapezoid(inner, grid.q_axis()))


def husimi_norm(hg: HusimiGrid) -> float:
    """Integral of Q over the grid in the d^2 alpha = dq dp / 2 measure;
    1 when the grid captures the whole state."""
    return _trapz2(hg.values, hg.grid) / 2


def husimi_centroid(hg: HusimiGrid) -> tuple[float, float]:
    """Normalized first moments (qbar, pbar) of Q over the grid.

    Requires husimi_norm >= 0.99, which a nan norm fails, so the centroid
    is meaningful.
    """
    _, centroid = _weight_and_centroid(hg)
    return centroid


def husimi_second_moments(hg: HusimiGrid) -> tuple[tuple[float, float], np.ndarray]:
    """The centroid (qbar, pbar), as husimi_centroid gives it, and the central
    second-moment matrix [[<dq^2>, <dq dp>], [<dq dp>, <dp^2>]] about it."""
    w, (qbar, pbar) = _weight_and_centroid(hg)
    dq = hg.grid.q_axis()[:, None] - qbar
    dp = hg.grid.p_axis()[None, :] - pbar
    sqq = _trapz2(hg.values * dq * dq, hg.grid) / w
    spp = _trapz2(hg.values * dp * dp, hg.grid) / w
    sqp = _trapz2(hg.values * dq * dp, hg.grid) / w
    return (qbar, pbar), np.array([[sqq, sqp], [sqp, spp]])


def _weight_and_centroid(hg: HusimiGrid) -> tuple[float, tuple[float, float]]:
    """The integral w of Q over the grid (twice husimi_norm) and the
    centroid; GridTooSmall when the norm is under 0.99 or nan."""
    w = _trapz2(hg.values, hg.grid)
    norm = w / 2
    if not norm >= 0.99:
        raise GridTooSmall(
            f"grid captures only {norm:.4f} of the packet; enlarge the window"
        )
    qs = hg.grid.q_axis()[:, None]
    ps = hg.grid.p_axis()[None, :]
    qbar = _trapz2(hg.values * qs, hg.grid) / w
    pbar = _trapz2(hg.values * ps, hg.grid) / w
    return w, (qbar, pbar)


def count_local_maxima(hg: HusimiGrid) -> int:
    """Number of distinct local maxima above PEAK_FRAC * max(Q).

    A peak is a point equal to the largest value of its 3 x 3 neighbourhood,
    where points off the grid count as 0; peaks that share an edge (a
    plateau) are one maximum."""
    Q = hg.values
    n_q, n_p = Q.shape
    padded = np.pad(Q, 1)
    largest = Q.copy()
    for i in range(3):
        for j in range(3):
            np.maximum(largest, padded[i:i + n_q, j:j + n_p], out=largest)
    return _count_components((Q == largest) & (Q > PEAK_FRAC * Q.max()))


def _count_components(mask: np.ndarray) -> int:
    """Number of 4-connected components of the True points of a 2-D mask."""
    todo = set(zip(*(ix.tolist() for ix in np.nonzero(mask))))
    count = 0
    while todo:
        count += 1
        stack = [todo.pop()]
        while stack:
            i, j = stack.pop()
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in todo:
                    todo.remove(nb)
                    stack.append(nb)
    return count
