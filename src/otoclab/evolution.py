"""Exact unitary evolution by spectral decomposition, mean-photon and OTOC
time series.

Both Hamiltonians are real symmetric, commute with photon-number parity and
are banded inside each parity block (bandwidth 1 for IHO, 2 for HIHO).
``diagonalize`` takes H as ``fock.build_hamiltonian`` returns it: a real
``fock.Banded`` lower band whose odd diagonals are zero. The even and odd
photon-number blocks are ``lower[0::2, 0::2]`` and ``lower[0::2, 1::2]``,
each solved as it is by ``scipy.linalg.eig_banded``. ``evolve`` and
``evolve_batch`` share one product, ``_product``: it multiplies each block's
real eigenvectors into the complex-as-real view of the phased coefficients,
one real GEMM per block, about 4x fewer flops than one complex D x D
product. Eigenvector storage is 8 (D/2)^2 bytes per block; the full D x D
eigenvector matrix is assembled lazily, only for the commutator oracle and
the tests.

The phase table e^{-i lam t} depends only on the propagator and the time
grid, so the process keeps one: a single entry keyed on the propagator
object (held by weakref) and on a private copy of the grid, rebuilt on any
other request and freed with its propagator. The same entry holds the last
evolved state Psi, keyed also on a private copy of psi0, so the observables
of one (propagator, state, grid) share one evolution; any other state drops
that Psi before the next one is evolved. Table and Psi take 2 * 16 D T
bytes (22 MiB at D = 1201, T = 601). ``evolve_batch`` itself is uncached: it
writes each block's GEMM straight into that block's rows of a fresh result,
and the observables reduce the D x T result in column blocks, so no other
D x T array is formed. ``evolve`` builds its own phase column for its one
time and never reads or replaces the table.

The OTOC is evaluated in two ways: the cheap Schroedinger-picture momentum
variance (production path, P applied as a two-term stencil) and the
explicit Heisenberg commutator with the initial-state projector (expensive,
kept as a cross-check oracle).
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eig_banded

from .errors import DimMismatch, TruncationGuardError
from .fock import Banded, FockDim

# Production guard: population above n = D - ceil(D/10) must stay below this,
# otherwise the run is reflecting off the truncation edge of an undersized
# reference rather than showing intended finite-size physics.
TAIL_GUARD_TOL = 1e-6

# Observables reduce Psi in blocks of this many time columns, so no other
# D x T temporary is formed; each column's sum is unchanged by the split.
COLUMN_BLOCK = 64

# The one cache entry of the process: (weakref to its propagator, a copy of
# its time grid, one e^{-i lam t} array per block, and the last evolved state
# as (a copy of psi0, read-only Psi) or None); see ``_phases`` and ``_evolved``.
_phase_table: tuple[weakref.ref, np.ndarray, list[np.ndarray],
                    tuple[np.ndarray, np.ndarray] | None] | None = None


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


@dataclass(frozen=True)
class Propagator:
    """Block spectral decomposition H = sum_b V_b diag(L_b) V_b^dag enabling
    exact e^{-iHt}.

    ``blocks`` holds one ``(indices, eigenvalues, eigenvectors)`` triple per
    invariant block: ``indices`` is the slice of photon numbers the block
    spans, its eigenvalues ascend, and its eigenvectors are the columns of
    a block-sized matrix.
    """

    dim: FockDim
    blocks: tuple[tuple[slice, np.ndarray, np.ndarray], ...] = field(repr=False)

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


def diagonalize(H: Banded) -> Propagator:
    """Diagonalize H as ``fock.build_hamiltonian`` returns it, one
    photon-number parity block at a time; eigenvalues ascending within each
    block. Raises ValueError for a band that is not real or whose odd
    diagonals are not zero."""
    if H.lower.dtype.kind != "f" or np.any(H.lower[1::2]):
        raise ValueError("diagonalize needs a real band whose odd diagonals are zero")
    parts = ((slice(0, None, 2), H.lower[0::2, 0::2]),
             (slice(1, None, 2), H.lower[0::2, 1::2]))
    blocks = tuple((idx, *eig_banded(band, lower=True)) for idx, band in parts)
    return Propagator(dim=FockDim(H.shape[0] - 1), blocks=blocks)


def _check_dim(prop: Propagator, psi: np.ndarray):
    if psi.shape[0] != prop.dim.dim:
        raise DimMismatch(f"state dim {psi.shape[0]} != propagator dim {prop.dim.dim}")


def _product(prop: Propagator, psi0: np.ndarray, times: np.ndarray, phases) -> np.ndarray:
    """Columns psi(t_k) of a fresh D x T array: per block b,
    V_b (e^{-i lam_b t_k} V_b^T psi0[indices_b]), one real GEMM on the
    complex-as-real view written straight into the block's rows.
    ``phases(prop, times)`` gives the e^{-i lam_b t_k} arrays; it is called
    after the coefficients, so a wrong-sized psi0 raises DimMismatch before
    any phase is built."""
    # out comes first: allocated after a new phase table instead, it raised
    # the spectral-sweep benchmark's peak RSS by 0.7 MiB
    out = np.empty((prop.dim.dim, times.size), dtype=complex)
    _check_dim(prop, psi0)
    psi0 = np.asarray(psi0, dtype=complex)
    coeffs = [(V.T @ np.ascontiguousarray(psi0[idx]).view(np.float64).reshape(-1, 2))
              .view(np.complex128) for idx, _, V in prop.blocks]
    for (idx, _, V), c, table in zip(prop.blocks, coeffs, phases(prop, times)):
        X = table * c
        np.matmul(V, X.view(np.float64), out=out.view(np.float64)[idx])
        del X  # before the next block's X exists, so only one is alive
    return out


def _fresh_phases(prop: Propagator, times: np.ndarray) -> list[np.ndarray]:
    """e^{-i lam_b t_k} of every block, built here and kept nowhere."""
    return [np.exp(-1j * np.outer(lam, times)) for _, lam, _ in prop.blocks]


def evolve(prop: Propagator, psi0: np.ndarray, t: float) -> np.ndarray:
    """psi(t) = V diag(e^{-i L t}) V^T psi0, block by block. Its phases are
    built for this one time: the phase table is neither read nor replaced."""
    return _product(prop, psi0, np.array([t], dtype=float), _fresh_phases)[:, 0]


def _is_for(entry, prop: Propagator, times: np.ndarray) -> bool:
    """Whether the cache entry belongs to this propagator and time grid."""
    return entry is not None and entry[0]() is prop and np.array_equal(entry[1], times)


def _phases(prop: Propagator, times: np.ndarray) -> list[np.ndarray]:
    """Per-block phase tables e^{-i lam_b t_k}, kept in one process-wide entry.

    The entry is reused only for the same propagator object and a time grid
    equal to a private copy of the one it was built for; anything else
    drops it before the new table is built, so at most one table is alive.
    """
    global _phase_table
    entry = _phase_table
    if _is_for(entry, prop, times):
        return entry[2]
    _phase_table = entry = None
    tables = []
    for _, lam, _ in prop.blocks:
        theta = np.outer(lam, times)
        # cos - i sin, filled in place: equal bit for bit to np.exp(-1j * theta)
        table = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=table.real)
        np.sin(theta, out=table.imag)
        np.negative(table.imag, out=table.imag)
        del theta  # before the next block's table is allocated
        tables.append(table)
    _phase_table = (weakref.ref(prop, _drop_phases), times.copy(), tables, None)
    return tables


def _drop_phases(ref: weakref.ref):
    """Free the phase table and Psi as soon as their propagator is collected."""
    global _phase_table
    if _phase_table is not None and _phase_table[0] is ref:
        _phase_table = None


def evolve_batch(prop: Propagator, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Columns psi(t_k) for every requested time, one GEMM per block, with
    the phases from the process-wide table."""
    return _product(prop, psi0, np.asarray(times, dtype=float), _phases)


def _evolved(prop: Propagator, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``evolve_batch(prop, psi0, times)``, read-only, kept in the phase-table
    entry.

    The cached Psi is returned only for the same propagator object, a grid
    equal to the entry's and a psi0 equal to its private copy; anything else
    drops the cached Psi before evolving, so at most one Psi is alive.
    """
    global _phase_table
    entry = _phase_table
    if entry is not None and entry[3] is not None:
        if _is_for(entry, prop, times) and np.array_equal(entry[3][0], psi0):
            return entry[3][1]
        _phase_table = entry[:3] + (None,)
    del entry  # so the old Psi is freed before the new one is evolved
    Psi = evolve_batch(prop, psi0, times)
    Psi.flags.writeable = False
    entry = _phase_table
    if _is_for(entry, prop, times):
        _phase_table = entry[:3] + ((np.array(psi0), Psi),)
    return Psi


def _guard_tails(Psi: np.ndarray, times: np.ndarray, label: str):
    D = Psi.shape[0]
    k = D - math.ceil(D / 10)
    tails = np.sum(np.abs(Psi[k:, :]) ** 2, axis=0)
    bad = np.nonzero(tails > TAIL_GUARD_TOL)[0]
    if bad.size:
        i = bad[0]
        raise TruncationGuardError(
            f"{label or 'run'}: tail population {tails[i]:.3e} above n={k} "
            f"at t={times[i]:.6g} exceeds {TAIL_GUARD_TOL}; increase n_p"
        )


def _apply_momentum(Psi: np.ndarray) -> np.ndarray:
    """P @ Psi for P = i(a^dag - a)/sqrt(2), as a two-term stencil over the
    truncated ladder: (P psi)[n] = i (sqrt(n) psi[n-1] - sqrt(n+1) psi[n+1])/sqrt(2)."""
    s = (np.sqrt(np.arange(1, Psi.shape[0])) / np.sqrt(2))[:, None]
    out = np.zeros_like(Psi)
    out[1:] = s * Psi[:-1]
    out[:-1] -= s * Psi[1:]
    return 1j * out


def variance_otoc(
    prop: Propagator,
    psi0: np.ndarray,
    times: np.ndarray,
    label: str = "",
) -> TimeSeries:
    """C(t) = Var[P](t) = <psi(t)|P^2|psi(t)> - <psi(t)|P|psi(t)>^2."""
    times = np.asarray(times, dtype=float)
    Psi = _evolved(prop, psi0, times)
    values = np.empty(times.size)
    for j in range(0, times.size, COLUMN_BLOCK):
        cols = slice(j, j + COLUMN_BLOCK)
        PPsi = _apply_momentum(Psi[:, cols])
        exp_p = np.real(np.sum(Psi[:, cols].conj() * PPsi, axis=0))
        exp_p2 = np.real(np.sum(PPsi.conj() * PPsi, axis=0))
        values[cols] = exp_p2 - exp_p**2
    return TimeSeries(times=times, values=values, label=label)


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
    """<a^dag a>(t) on the requested time grid."""
    times = np.asarray(times, dtype=float)
    Psi = _evolved(prop, psi0, times)
    if tail_guard:
        _guard_tails(Psi, times, label)
    n = np.arange(prop.dim.dim)[:, None]
    values = np.empty(times.size)
    for j in range(0, times.size, COLUMN_BLOCK):
        cols = slice(j, j + COLUMN_BLOCK)
        values[cols] = np.sum(n * np.abs(Psi[:, cols]) ** 2, axis=0)
    return TimeSeries(times=times, values=values, label=label)
