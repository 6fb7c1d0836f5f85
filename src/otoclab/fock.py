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
``Banded`` matrix built in O(D) memory and arithmetic from closed forms of
the bands of the truncated (a^dag + a)^2, which keep the edge artifacts of
the dense truncated products, such as (B B)[D-1, D-1] = D - 1.
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
    X^4 = B^2 B^2/4, where A = a^dag - a and B = a^dag + a, all truncated;
    ``model.v0`` is left out (see the module docstring). Every band comes
    from the two lower bands of the truncated B^2,

        b0[r] = B^2[r, r] = r + (r + 1), only r at the edge r = D - 1,
        b2[r] = B^2[r + 2, r] = sqrt((r + 1)(r + 2)):

    P^2 has the bands b0/2 and -b2/2, X^2 the bands b0/2 and b2/2, and X^4
    the bands (b2[r-2]^2 + b0[r]^2 + b2[r]^2)/4, (b2[r] b0[r] + b0[r+2] b2[r])/4
    and b2[r] b2[r+2]/4, every b2 past the truncation being zero; the edge
    enters X^4 through b0[D-1]. b0 is summed from sqrt(r)^2 and
    sqrt(r+1)^2, not taken as the integer 2r + 1, and each sum runs in the
    order written, so the bands keep the bits of the dense truncated
    products. A product past the float range leaves inf or nan in a band,
    without a warning, and ``evolution.diagonalize`` refuses it."""
    D = dim.dim
    root = np.sqrt(np.arange(D + 1.0))
    b0 = root[:-1] * root[:-1]
    b0[:-1] += root[1:-1] * root[1:-1]
    b2 = root[1:-2] * root[2:-1]
    terms = [(model.kappa, [b0 / 2, -b2 / 2]), (model.v2, [b0 / 2, b2 / 2])]
    if model.v4:
        x4 = b0 * b0
        x4[2:] += b2 * b2
        x4[:-2] += b2 * b2
        terms.append((model.v4, [x4 / 4, (b2 * b0[:-2] + b0[2:] * b2) / 4,
                                 b2[2:] * b2[:-2] / 4]))
    offsets = range(0, min(2 * len(terms[-1][1]) - 1, D), 2)  # the even ones below D
    lower = np.zeros((offsets[-1] + 1, D))
    with np.errstate(over="ignore", invalid="ignore"):
        for c, bands in terms:
            for k, d in zip(offsets, bands):
                lower[k, : D - k] += c * d
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
