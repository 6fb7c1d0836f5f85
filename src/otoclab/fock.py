"""Truncated single-mode Fock space: ladder operators, quadratures, the
Hamiltonian model, and coherent states.

Conventions: hbar = m = omega = 1, X = (a^dag + a)/sqrt(2),
P = i(a^dag - a)/sqrt(2), beta = (q + i p)/sqrt(2). Operators are matrices
indexed by photon number.

Both systems belong to one family, H = kappa P^2 + V(X) with the polynomial
V(X) = v0 + v2 X^2 + v4 X^4, and ``Model`` is the one place a system is
defined; the quantum operator here and the classical flow, Jacobian and
energy in ``classical`` all derive from it:

- iho:  kappa = 1/2, V = -X^2/2, i.e. H = -(a^2 + a^dag^2)/2;
- hiho: kappa = 1,   V = -gamma^2 X^2/4 + g X^4 + gamma^4/(64 g).

The constant v0 sets only where the classical energy is zero. On a state it
is a global phase e^{-i v0 t}, which no observable or Husimi grid reads, so
the quantum operator leaves it out: a huge v0 would otherwise swamp the
dynamics in the eigensolver's precision.

The ladder helpers return dense complex matrices; the Hamiltonian is a
``Banded`` matrix built in O(D) memory and arithmetic: a band algebra
multiplies the truncated ladder bands exactly as the dense truncated products
would, so edge artifacts such as (B B)[D-1, D-1] = D - 1 are kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TailTooHeavy

TAIL_TOL = 1e-10


@dataclass(frozen=True)
class FockDim:
    """Truncation of the Fock space: states |0> .. |n_p> are retained."""

    n_p: int

    def __post_init__(self):
        if self.n_p < 1:
            raise ValueError("n_p must be >= 1 (so dim >= 2)")

    @property
    def dim(self) -> int:
        return self.n_p + 1


@dataclass(frozen=True)
class HihoParams:
    """Double-well parameters: V(Q) = -gamma^2 Q^2/4 + g Q^4 + gamma^4/(64 g)."""

    gamma: float
    g: float

    def __post_init__(self):
        if self.gamma <= 0 or self.g <= 0:
            raise ValueError("gamma and g must be positive")


@dataclass(frozen=True)
class Model:
    """H = kappa P^2 + v0 + v2 X^2 + v4 X^4; v0 enters the classical energy
    only, and ``build_hamiltonian`` leaves it out."""

    kappa: float
    v2: float
    v4: float = 0.0
    v0: float = 0.0


def iho() -> Model:
    """Inverted oscillator (P^2 - X^2)/2."""
    return Model(kappa=0.5, v2=-0.5)


def hiho(gamma: float, g: float) -> Model:
    """Double well P^2 - gamma^2 X^2/4 + g X^4 + gamma^4/(64 g). A
    coefficient past the float range is inf, never an OverflowError, so
    config validation can refuse it."""
    HihoParams(gamma, g)  # positivity check
    # as floats: a JSON int's power is an exact int, whose division raises
    # OverflowError past the float range
    gamma, g = float(gamma), float(g)
    return Model(kappa=1.0, v2=-_power(gamma, 2) / 4, v4=g, v0=_power(gamma, 4) / (64 * g))


def _power(x: float, n: int) -> float:
    """x**n, inf where Python's float power raises OverflowError."""
    try:
        return x**n
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class CoherentParams:
    """Phase-space center (q, p) of a coherent state."""

    q: float
    p: float
    beta: complex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", (self.q + 1j * self.p) / np.sqrt(2))


def make_ladder(dim: FockDim) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators: a[n-1, n] = sqrt(n)."""
    D = dim.dim
    a = np.zeros((D, D), dtype=complex)
    n = np.arange(1, D)
    a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def quadratures(dim: FockDim) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum quadratures X = (a^dag + a)/sqrt(2),
    P = i(a^dag - a)/sqrt(2)."""
    a, ad = make_ladder(dim)
    return (ad + a) / np.sqrt(2), 1j * (ad - a) / np.sqrt(2)


# A banded matrix as {offset k: d} with d[r] = M[r, r + k] for every row r,
# zero where column r + k falls outside the truncation.
_Bands = dict[int, np.ndarray]


def _shift(d: np.ndarray, k: int) -> np.ndarray:
    """w[r] = d[r + k], zero-padded outside [0, len(d)); requires |k| < len(d)."""
    w = np.zeros_like(d)
    if k >= 0:
        w[: d.size - k] = d[k:]
    else:
        w[-k:] = d[: d.size + k]
    return w


def _band_matmul(M: _Bands, N: _Bands) -> _Bands:
    """Truncated product M @ N: (M N)[r, r+p+q] = sum_p M[r, r+p] N[r+p, r+p+q].

    Offsets that reach past the truncation (|p + q| >= D) are dropped.
    """
    D = next(iter(M.values())).size
    out: _Bands = {}
    for p in sorted(M):
        for q in sorted(N):
            k = p + q
            if abs(k) < D:
                out[k] = out.get(k, 0.0) + M[p] * _shift(N[q], p)
    return out


def _ladder_diagonals(dim: FockDim) -> tuple[np.ndarray, np.ndarray]:
    """Row-indexed ladder diagonals: up[r] = a[r, r+1] = sqrt(r+1) and
    down[r] = a^dag[r, r-1] = sqrt(r)."""
    n = np.arange(dim.dim, dtype=float)
    up = np.sqrt(n + 1)
    up[-1] = 0.0
    return up, np.sqrt(n)


@dataclass(frozen=True, eq=False)
class Banded:
    """D x D matrix held as its LAPACK lower band, lower[k, r] = H[r + k, r]
    = H[r, r + k] (zero for r >= D - k), so symmetric by its layout.
    ``evolution.diagonalize`` solves each photon-number parity block of it."""

    lower: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.lower.shape[1], self.lower.shape[1]

    @property
    def max_row_sum(self) -> float:
        """||H||_inf, a bound on every |eigenvalue|; inf or nan for a band holding either."""
        a = np.abs(self.lower)
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            rows = a.sum(axis=0)  # |H[r, r + k]| over k >= 0
            for k in range(1, len(a)):
                rows[k:] += a[k, :-k]  # |H[r, r - k]|
        return float(rows.max())


def build_hamiltonian(dim: FockDim, model: Model) -> Banded:
    """kappa P^2 + v2 X^2 + v4 X^4 with P^2 = -A^2/2, X^2 = B^2/2 and
    X^4 = B^4/4, where A = a^dag - a and B = a^dag + a; ``Banded`` keeps only
    the bands k <= 0. ``model.v0`` is left out (see the module docstring).
    A product past the float range leaves inf or nan in a band, without a
    warning, and ``evolution.diagonalize`` refuses it."""
    up, down = _ladder_diagonals(dim)
    A = {-1: down, 1: -up}
    B = {-1: down, 1: up}
    B2 = _band_matmul(B, B)
    terms = [
        (model.kappa, {k: -d / 2 for k, d in _band_matmul(A, A).items()}),
        (model.v2, {k: d / 2 for k, d in B2.items()}),
    ]
    if model.v4:
        terms.append((model.v4, {k: d / 4 for k, d in _band_matmul(B2, B2).items()}))
    bands: _Bands = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for c, term in terms:
            for k, d in term.items():
                bands[k] = bands.get(k, 0.0) + c * d
    D = dim.dim
    lower = np.zeros((max(bands) + 1, D))
    for k in range(lower.shape[0]):
        if -k in bands:
            lower[k, : D - k] = bands[-k][k:]
    return Banded(lower)


def build_iho(dim: FockDim) -> Banded:
    """Inverted-oscillator Hamiltonian -(a^2 + a^dag^2)/2."""
    return build_hamiltonian(dim, iho())


def build_hiho(dim: FockDim, params: HihoParams) -> Banded:
    """Double-well Hamiltonian, without the constant offset gamma^4/(64 g)."""
    return build_hamiltonian(dim, hiho(params.gamma, params.g))


def coherent_tail(mean: float, dim: FockDim) -> float:
    """Poisson mass at photon numbers >= dim for intensity ``mean``.

    With p_n = e^{-mean} mean^n / n!, the tail is the sum of p_n over
    n >= D while mean < D, where the terms fall from p_D, and 1 minus their
    sum over n < D otherwise, where they rise to p_{D-1}. Each sum is its
    largest term, from its log so nothing overflows, times 1 plus the
    running products of the term ratios, mean/n upwards and n/mean
    downwards, each below 1. Upwards it stops at n = 2D + 63: past 2D each
    ratio is below 1/2, so the terms left out weigh less than 2^-63 p_D.
    ln p_n carries about D ln(mean) eps, so the tail is good to about
    D eps relative (1e-11 at D = 8001).
    """
    if mean == 0.0:
        return 0.0
    if mean == math.inf:  # |q + ip|^2 / 2 overflowed, and -inf + inf is nan
        return 1.0
    D = dim.dim
    if mean < D:
        top, ratios = D, mean / np.arange(D + 1, 2 * D + 64)
    else:
        top, ratios = D - 1, np.arange(D - 1, 0, -1) / mean
    log_top = -mean + top * math.log(mean) - math.lgamma(top + 1.0)
    mass = math.exp(log_top) * (1.0 + float(np.sum(np.cumprod(ratios))))
    return mass if mean < D else 1.0 - mass


def coherent_state(dim: FockDim, cp: CoherentParams) -> np.ndarray:
    """Normalized truncated coherent state centered at (cp.q, cp.p): the
    amplitudes c_n = e^{-|beta|^2/2} beta^n/sqrt(n!) for n < D, accumulated
    in the log domain to avoid overflow, over their norm.

    Raises TailTooHeavy when the discarded Poisson tail exceeds 1e-10,
    i.e. the requested center is too far out for this truncation.
    """
    mu = abs(cp.beta) ** 2
    tail = coherent_tail(mu, dim)
    if tail >= TAIL_TOL:
        raise TailTooHeavy(
            f"coherent state at (q={cp.q}, p={cp.p}) has tail {tail:.3e} "
            f">= {TAIL_TOL} beyond n_p={dim.n_p}; increase n_p"
        )
    n = np.arange(dim.dim)
    if mu == 0.0:  # the vacuum, where ln|beta| is -inf
        return (n == 0).astype(complex)
    log_n_factorial = np.fromiter(map(math.lgamma, (n + 1.0).tolist()), float, n.size)
    log_mag = -mu / 2 + n * np.log(abs(cp.beta)) - 0.5 * log_n_factorial
    c = np.exp(log_mag + 1j * n * np.angle(cp.beta))
    return c / np.linalg.norm(c)
