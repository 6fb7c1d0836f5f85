"""Exact unitary evolution by spectral decomposition, mean-photon and OTOC
time series.

Both Hamiltonians are real symmetric, commute with photon-number parity and
are banded inside each parity block (bandwidth 1 for IHO, 2 for HIHO).
``diagonalize`` takes H as ``fock.build_hamiltonian`` returns it: a real
``fock.Banded`` lower band whose odd diagonals are zero. The even and odd
photon-number blocks are ``lower[0::2, 0::2]`` and ``lower[0::2, 1::2]``,
each solved by numpy's LAPACK in ``_eigh_band``. A tridiagonal block with an
exactly zero diagonal (the IHO's) couples its even positions only to its odd
ones, so it is solved by the SVD of that coupling matrix; any other block
(the HIHO's pentadiagonal ones) by a dense ``eigh``. Eigenvector storage is
8 (D/2)^2 bytes per block, in Fortran order; the full D x D eigenvector
matrix is assembled lazily, only for the commutator oracle and the tests.

``evolve`` and ``evolve_batch`` share one product, ``_product``. A coherent
state populates a narrow band of each block's spectrum, so per block it
keeps only the contiguous window [lo, hi) of c = V_b^T psi0 outside which
the heads and tails each weigh at most tau^2 |psi0|^2 / 4, with
tau = eps sqrt(D) (eps = 2.2e-16), the rounding error a computed V^T psi0
already carries. V is orthogonal and |e^{-i lam t}| = 1, so the dropped
components move every psi(t) by at most tau |psi0| (two blocks, two ends),
at every t. The block is one real GEMM of V_b[:, lo:hi] (a view) into the
complex-as-real view of the phased window coefficients, written straight
into the block's rows; an empty window writes exact zeros, and a non-finite
coefficient keeps the whole block so nan propagates. The phases
e^{-i lam t} are built per state, for the window alone, and no D x T phase
table is kept: summed over the spectral sweep, the windows of each
propagator's three states hold about 40% of the phases one table per
propagator would (13% of the components, D-weighted).

Each propagator keeps one slot for its last state: a private copy of psi0
with each block's (lo, hi, c[lo:hi]), and the observable rows of the last
grid evolved from it, C(t), <n>(t) and the tail population, with a private
copy of that grid. ``_product`` reuses the coefficients for an equal psi0,
so ``evolve`` and ``evolve_batch`` on a kept state skip V_b^T psi0 and the
window and return what a cold call returns, bit for bit; another psi0
replaces the slot, rows included. ``variance_otoc`` and ``photon_series``
on one (propagator, state, grid) share one evolution. The slot holds
16 D + 24 T bytes at most and is freed with its propagator.

The rows come from one loop over blocks of COLUMN_BLOCK time columns:
each block is evolved by ``evolve_batch`` and reduced at once on its real
view R (re/im interleaved), each row a weighted contraction, so no D x T
Psi, no complex temporary and no P psi is formed; the only D-row arrays
are one column block of Psi and one of R squared. P acts on the truncated
ladder as (P psi)_n = i (sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1}) / sqrt(2), so
|P psi|^2 = sum_j w_j |psi_j|^2 / 2 - cross exactly, with w_j = 2j + 1
(w_{D-1} = D - 1, the truncated edge) and one same-parity cross term;
the diagonal part, <n> and the tail are one 3 x D weight matrix times the
squares. For a packet far out in X the diagonal part (about <n> + 1/2) and
the cross term (about Re<a^2>) cancel, so C keeps fewer digits there than
a sum of squares of P psi would: for the IHO at n_p = 1200 and
(q, p) = (35, 0), over t in [0, 3], C reaches 0.43 of the test suite's
per-time bound, where a sum of squares reaches 0.0028.

The OTOC is evaluated in two ways: the cheap Schroedinger-picture momentum
variance (production path) and the explicit Heisenberg commutator with the
initial-state projector (expensive, kept as a cross-check oracle).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, TruncationGuardError
from .fock import Banded, FockDim

# Production guard: population above n = D - ceil(D/10) must stay below this,
# otherwise the run is reflecting off the truncation edge of an undersized
# reference rather than showing intended finite-size physics.
TAIL_GUARD_TOL = 1e-6

# Observables evolve and reduce Psi this many time columns at a time, so a
# miss holds one D x COLUMN_BLOCK block of Psi, one window's phases of that
# width and the block's squares, whatever T is. 128 and 256 measured slower.
COLUMN_BLOCK = 64


@dataclass(frozen=True)
class TimeSeries:
    """A real-valued series on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


class _Slot(NamedTuple):
    """A propagator's last state: a private copy of psi0 with each block's
    (lo, hi, c[lo:hi]), and the observable rows of the last grid evolved
    from it with a private copy of that grid (None until ``_rows`` fills
    them)."""

    psi0: np.ndarray
    coefficients: tuple
    times: np.ndarray | None = None
    rows: np.ndarray | None = None


@dataclass(eq=False)
class Propagator:
    """Block spectral decomposition H = sum_b V_b diag(L_b) V_b^dag enabling
    exact e^{-iHt}.

    ``blocks`` holds one ``(indices, eigenvalues, eigenvectors)`` triple per
    invariant block: ``indices`` is the slice of photon numbers the block
    spans, its eigenvalues ascend, and its eigenvectors are the columns of
    a block-sized matrix. ``_last_rows`` is the slot of the last state,
    which ``_coefficients`` fills and ``_rows`` completes. A propagator
    equals only itself and hashes by identity.
    """

    dim: FockDim
    blocks: tuple[tuple[slice, np.ndarray, np.ndarray], ...] = field(repr=False)
    _last_rows: _Slot | None = field(default=None, init=False, repr=False)

    @cached_property
    def _full(self) -> tuple[np.ndarray, np.ndarray]:
        lam = np.concatenate([b[1] for b in self.blocks])
        order = np.argsort(lam, kind="stable")
        V = np.zeros((self.dim.dim, lam.size))
        col = 0
        for idx, lam_b, V_b in self.blocks:
            V[idx, col:col + lam_b.size] = V_b
            col += lam_b.size
        return lam[order], V[:, order]

    @property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending (assembled on first use)."""
        return self._full[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Full D x D eigenvector matrix, columns matching ``eigenvalues``
        (assembled on first use; production paths use ``blocks``)."""
        return self._full[1]


def _eigh_band(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and eigenvectors, in Fortran order, of the
    real symmetric matrix A whose lower band is ``band``:
    band[k, r] = A[r + k, r].

    A tridiagonal A with a zero diagonal is [[0, B], [B^T, 0]] once its even
    positions come first, with B[i, j] = A[2i, 2j + 1]. For B = U S W^T each
    singular triple (s, u, w) gives the eigenpairs +-s with eigenvectors
    (u, +-w)/sqrt(2), and an odd-sized A has one more, 0 with (u, 0) for the
    last column of U. Any other A goes to a dense ``eigh``. Fortran order
    keeps each window of columns contiguous for ``_product``'s GEMM, which
    rounds a one-column product as it rounds a batch."""
    m = band.shape[1]
    if band.shape[0] != 2 or np.any(band[0]):
        A = np.zeros((m, m))
        for k in range(band.shape[0]):
            A[np.arange(k, m), np.arange(m - k)] = band[k, : m - k]
        lam, V = np.linalg.eigh(A, UPLO="L")
        return lam, np.asfortranarray(V)
    n_even, n_odd = (m + 1) // 2, m // 2
    B = np.zeros((n_even, n_odd))
    B[np.arange(n_odd), np.arange(n_odd)] = band[1, 0:2 * n_odd:2]  # A[2i + 1, 2i]
    j = np.arange(n_even - 1)
    B[j + 1, j] = band[1, 1:2 * n_even - 1:2]  # A[2j + 2, 2j + 1]
    U, s, Wt = np.linalg.svd(B)
    lam = np.concatenate([-s, np.zeros(m - 2 * n_odd), s[::-1]])
    r = 1 / np.sqrt(2)
    V = np.zeros((m, m), order="F")
    V[0::2, :n_odd] = U[:, :n_odd] * r
    V[1::2, :n_odd] = -Wt.T * r
    V[0::2, n_odd:m - n_odd] = U[:, n_odd:]
    V[0::2, m - n_odd:] = U[:, :n_odd][:, ::-1] * r
    V[1::2, m - n_odd:] = Wt[::-1].T * r
    return lam, V


def diagonalize(H: Banded) -> Propagator:
    """Diagonalize H, symmetric by its band layout, as ``fock.build_hamiltonian``
    returns it, one photon-number parity block at a time; eigenvalues ascending
    within each block. Raises ValueError for a band that is not real, holds inf
    or nan, or whose odd diagonals are not zero."""
    lower = H.lower
    if lower.dtype.kind != "f" or not np.all(np.isfinite(lower)) or np.any(lower[1::2]):
        raise ValueError("diagonalize needs a finite real band whose odd diagonals are zero")
    parts = ((slice(0, None, 2), lower[0::2, 0::2]), (slice(1, None, 2), lower[0::2, 1::2]))
    blocks = tuple((idx, *_eigh_band(band)) for idx, band in parts)
    return Propagator(dim=FockDim(H.shape[0] - 1), blocks=blocks)


def _check_dim(prop: Propagator, psi: np.ndarray):
    if psi.shape[0] != prop.dim.dim:
        raise DimMismatch(f"state dim {psi.shape[0]} != propagator dim {prop.dim.dim}")


def _window(c: np.ndarray, tol2: float) -> tuple[int, int]:
    """The range [lo, hi) of a block's coefficients c (eigenvalues
    ascending) that is kept: the largest lo and smallest hi whose dropped
    heads and tails each weigh at most tol2 in sum |c_j|^2. Each end sums
    from its own side, small terms first. Non-finite coefficients keep
    everything, so nan propagates instead of becoming zeros."""
    w = (c.real**2 + c.imag**2).ravel()
    head = np.cumsum(w)
    if not (np.isfinite(head[-1]) and np.isfinite(tol2)):
        return 0, w.size
    lo = int(np.searchsorted(head, tol2, side="right"))
    hi = w.size - int(np.searchsorted(np.cumsum(w[::-1]), tol2, side="right"))
    return lo, max(lo, hi)


def _coefficients(prop: Propagator, psi0: np.ndarray) -> tuple:
    """Per block, (lo, hi, c[lo:hi]) for c = V_b^T psi0[indices_b] and
    [lo, hi) its ``_window``. Kept in ``prop._last_rows`` with a private
    copy of psi0, which replaces the slot, and returned again for an equal
    psi0."""
    last = prop._last_rows
    if last is not None and np.array_equal(last.psi0, psi0):
        return last.coefficients
    _check_dim(prop, psi0)
    psi0 = np.array(psi0, dtype=complex)
    # tau = eps sqrt(D); four dropped ends of tau^2 |psi0|^2 / 4 each
    tol2 = np.finfo(float).eps ** 2 * prop.dim.dim * np.vdot(psi0, psi0).real / 4
    kept = []
    for idx, _, V in prop.blocks:
        c = (V.T @ np.ascontiguousarray(psi0[idx]).view(np.float64).reshape(-1, 2)
             ).view(np.complex128)
        lo, hi = _window(c, tol2)
        kept.append((lo, hi, c[lo:hi].copy()))
    prop._last_rows = _Slot(psi0, tuple(kept))
    return prop._last_rows.coefficients


def _product(prop: Propagator, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Columns psi(t_k) of a fresh D x T array: per block b, with
    (lo, hi, c[lo:hi]) from ``_coefficients``,
    V_b[:, lo:hi] (e^{-i lam t_k} c)[lo:hi], one real GEMM on the
    complex-as-real view written straight into the block's rows (exact
    zeros for an empty window)."""
    out = np.empty((prop.dim.dim, times.size), dtype=complex)
    for (idx, lam, V), (lo, hi, c) in zip(prop.blocks, _coefficients(prop, psi0)):
        rows = out.view(np.float64)[idx]
        if lo == hi:
            rows[...] = 0.0
            continue
        # theta = lam t in X.imag, then X = (cos - i sin) theta * c, in place:
        # the window's X is the only array of its size
        X = np.empty((hi - lo, times.size), dtype=complex)
        np.multiply(lam[lo:hi, None], times, out=X.imag)
        np.cos(X.imag, out=X.real)
        np.sin(X.imag, out=X.imag)
        np.negative(X.imag, out=X.imag)
        X *= c
        np.matmul(V[:, lo:hi], X.view(np.float64), out=rows)
        del X  # before the next block's X exists, so only one is alive
    return out


def evolve(prop: Propagator, psi0: np.ndarray, t: float) -> np.ndarray:
    """psi(t) = V diag(e^{-i L t}) V^T psi0, block by block."""
    return _product(prop, psi0, np.array([t], dtype=float))[:, 0]


def evolve_batch(prop: Propagator, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Columns psi(t_k) for every requested time, one GEMM per block."""
    return _product(prop, psi0, np.asarray(times, dtype=float))


def _rows(prop: Propagator, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows C(t), <n>(t) and the tail population above n = D - ceil(D/10)
    of psi(t) = ``evolve_batch(prop, psi0, times)``, kept in
    ``prop._last_rows`` with a private copy of the grid and returned again
    for an equal grid and an equal psi0.

    One loop over blocks of COLUMN_BLOCK columns, each evolved by
    ``evolve_batch`` and reduced on its real view R: the squares of R
    times the weight rows w/2, n and the tail indicator, then
    cross = sum_{m=1}^{D-2} sqrt(m (m+1)) Re(conj(psi_{m-1}) psi_{m+1}) and
    <P> = sqrt(2) sum_{j=0}^{D-2} sqrt(j+1) Im(conj(psi_j) psi_{j+1}), each
    summed over the re/im pairs R interleaves."""
    last = prop._last_rows
    if last is not None and np.array_equal(last.times, times) and np.array_equal(last.psi0, psi0):
        return last.rows
    # check psi0 and fill the slot before the loop, so every column block,
    # and an empty grid, finds its coefficients
    _coefficients(prop, psi0)
    D = prop.dim.dim
    n = np.arange(D, dtype=float)
    # w/2, n and the tail indicator, applied to |psi_j|^2 by one product
    weights = np.zeros((3, D))
    weights[0] = n + 0.5
    weights[0, -1] = (D - 1) / 2
    weights[1] = n
    weights[2, D - math.ceil(D / 10):] = 1.0
    s_cross = np.sqrt(n[1:-1] * n[2:])
    s_p = np.sqrt(n[1:])
    rows = np.empty((3, times.size))
    for j in range(0, times.size, COLUMN_BLOCK):
        cols = slice(j, j + COLUMN_BLOCK)
        R_b = evolve_batch(prop, psi0, times[cols]).view(np.float64)
        re, im = R_b[:, 0::2], R_b[:, 1::2]
        diag = (weights @ (R_b * R_b)).reshape(3, -1, 2).sum(axis=2)
        cross = np.einsum("i,ij,ij->j", s_cross, R_b[:-2], R_b[2:]).reshape(-1, 2).sum(axis=1)
        exp_p = math.sqrt(2) * (np.einsum("i,ij,ij->j", s_p, re[:-1], im[1:])
                                - np.einsum("i,ij,ij->j", s_p, im[:-1], re[1:]))
        rows[0, cols] = diag[0] - cross - exp_p**2
        rows[1:, cols] = diag[1:]
        del R_b, re, im  # before the next block is evolved
    prop._last_rows = prop._last_rows._replace(times=times.copy(), rows=rows)
    return rows


def variance_otoc(
    prop: Propagator,
    psi0: np.ndarray,
    times: np.ndarray,
    label: str = "",
) -> TimeSeries:
    """C(t) = Var[P](t) = <psi(t)|P^2|psi(t)> - <psi(t)|P|psi(t)>^2."""
    times = np.asarray(times, dtype=float)
    return TimeSeries(times=times, values=_rows(prop, psi0, times)[0].copy(), label=label)


def commutator_otoc(prop: Propagator, psi0: np.ndarray, P: np.ndarray, t: float) -> float:
    """Brute-force oracle C(t) = <[P(t), V]^dag [P(t), V]> with the projector
    V = |psi0><psi0|, built from explicit dense matrices.

    Deliberately expensive (O(D^3)); kept out of production paths.
    """
    _check_dim(prop, psi0)
    if P.shape[0] != prop.dim.dim:
        raise DimMismatch("operator dim mismatch")
    V = prop.eigenvectors
    U = V @ (np.exp(-1j * prop.eigenvalues * t)[:, None] * V.conj().T)
    P_t = U.conj().T @ P @ U
    proj = np.outer(psi0, psi0.conj())
    comm = P_t @ proj - proj @ P_t
    val = np.vdot(psi0, comm.conj().T @ comm @ psi0)
    return float(val.real)


def photon_series(
    prop: Propagator,
    psi0: np.ndarray,
    times: np.ndarray,
    label: str = "",
    tail_guard: bool = False,
) -> TimeSeries:
    """<a^dag a>(t) on the requested time grid. With ``tail_guard``, raises
    TruncationGuardError at the first time whose population above
    n = D - ceil(D/10) exceeds TAIL_GUARD_TOL or is nan."""
    times = np.asarray(times, dtype=float)
    _, mean_n, tails = _rows(prop, psi0, times)
    bad = np.nonzero(~(tails <= TAIL_GUARD_TOL))[0]  # a nan tail trips it too
    if tail_guard and bad.size:
        i, D = bad[0], prop.dim.dim
        raise TruncationGuardError(
            f"{label or 'run'}: tail population {tails[i]:.3e} above "
            f"n={D - math.ceil(D / 10)} at t={times[i]:.6g} exceeds {TAIL_GUARD_TOL}; "
            f"increase n_p"
        )
    return TimeSeries(times=times, values=mean_n.copy(), label=label)
