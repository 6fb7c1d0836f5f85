"""Classical Hamiltonian dynamics for both oscillators: analytic inverted-
oscillator flow, fixed-step RK4 integration, Jacobian analysis, Benettin
tangent-space Lyapunov exponents, and saddle-manifold classification.

Both systems are the classical limit of one ``fock.Model``,
H = kappa p^2 + V(q) with V(q) = v0 + v2 q^2 + v4 q^4, so
qdot = 2 kappa p, pdot = -2 v2 q - 4 v4 q^3, and the flow's Jacobian is
[[0, 2 kappa], [-2 v2 - 12 v4 q^2, 0]]:

- iho:  kappa = 1/2, V = -q^2/2, so qdot = p, pdot = q;
- hiho: kappa = 1,   V = -gamma^2 q^2/4 + g q^4 + gamma^4/(64 g),
  so qdot = 2p, pdot = gamma^2 q/2 - 4 g q^3.

A zero coefficient's term is left out rather than multiplied by 0: far out
on an unstable IHO orbit q**3 overflows, and 0 * inf is nan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import StepTooLarge
from .fock import Model, hiho, iho  # iho and hiho are re-exported

ENERGY_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class ClassicalState:
    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError("non-finite phase-space point")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    energy0: float


def energy(m: Model, q: float, p: float) -> float:
    e = m.kappa * p * p + m.v2 * q * q
    if m.v4:
        e += m.v4 * q**4
    if m.v0:
        e += m.v0
    return e


def hamilton_rhs(m: Model, s: ClassicalState) -> tuple[float, float]:
    """Analytic (dq/dt, dp/dt)."""
    return _rhs_scalar(m)(s.q, s.p)


def flow_iho_analytic(s0: ClassicalState, t: float) -> ClassicalState:
    """Closed-form IHO flow: saddle at the origin, manifolds p = -q / p = q."""
    ch, sh = math.cosh(t), math.sinh(t)
    return ClassicalState(q=s0.q * ch + s0.p * sh, p=s0.p * ch + s0.q * sh)


def _rhs_scalar(m: Model):
    # Closure over plain floats: the RK4 loops below run millions of steps,
    # so they avoid per-step numpy/dataclass overhead.
    two_kappa, c1 = 2 * m.kappa, -2 * m.v2
    if not m.v4:
        def f(q, p):
            return two_kappa * p, c1 * q
        return f
    c3 = 4 * m.v4

    def f(q, p):
        return two_kappa * p, c1 * q - c3 * q**3
    return f


def _rk4_step(f, q, p, dt):
    k1q, k1p = f(q, p)
    k2q, k2p = f(q + dt / 2 * k1q, p + dt / 2 * k1p)
    k3q, k3p = f(q + dt / 2 * k2q, p + dt / 2 * k2p)
    k4q, k4p = f(q + dt * k3q, p + dt * k3p)
    return (
        q + dt / 6 * (k1q + 2 * k2q + 2 * k3q + k4q),
        p + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p),
    )


def integrate(
    m: Model,
    s0: ClassicalState,
    t_end: float,
    dt: float,
    check_energy: bool = True,
) -> Trajectory:
    """Fixed-step RK4 trajectory over [0, t_end] (t_end may be negative for
    backward integration; dt is a positive step magnitude)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end == 0:
        raise ValueError("t_end must be nonzero")
    n = max(1, int(round(abs(t_end) / dt)))
    h = t_end / n
    f = _rhs_scalar(m)
    e0 = energy(m, s0.q, s0.p)
    bound = ENERGY_DRIFT_TOL * max(1.0, abs(e0))
    ts = np.empty(n + 1)
    qs = np.empty(n + 1)
    ps = np.empty(n + 1)
    q, p = s0.q, s0.p
    ts[0], qs[0], ps[0] = 0.0, q, p
    for i in range(1, n + 1):
        q, p = _rk4_step(f, q, p, h)
        ts[i], qs[i], ps[i] = i * h, q, p
        if check_energy and abs(energy(m, q, p) - e0) > bound:
            raise StepTooLarge(
                f"energy drift {abs(energy(m, q, p) - e0):.3e} at t={i * h:.6g} "
                f"exceeds {bound:.3e}; reduce dt"
            )
    return Trajectory(times=ts, qs=qs, ps=ps, energy0=e0)


def jacobian_matrix(m: Model, s: ClassicalState) -> np.ndarray:
    """Analytic 2x2 linearization of the flow at s."""
    jqq = -2 * m.v2
    if m.v4:
        jqq -= 12 * m.v4 * s.q**2
    return np.array([[0.0, 2 * m.kappa], [jqq, 0.0]])


def jacobian_eigen(m: Model, s: ClassicalState) -> tuple[complex, complex]:
    """Eigenvalues of the linearized flow, as (+branch, -branch).

    The Jacobians here have the form [[0, b], [c, 0]], so the pair is
    +/- sqrt(b c), real at saddles and purely imaginary at well minima.
    """
    J = jacobian_matrix(m, s)
    lam = complex(np.sqrt(complex(J[0, 1] * J[1, 0])))
    return lam, -lam


def lyapunov_tangent(
    m: Model,
    s0: ClassicalState,
    t_total: float,
    dt: float = 1e-3,
    renorm_every: int = 10,
    tangent0: tuple[float, float] | None = None,
) -> float:
    """Maximal Lyapunov exponent by the Benettin method: co-integrate one
    tangent vector with the flow, renormalize every ``renorm_every`` steps,
    and average the accumulated log growth over t_total.

    ``tangent0`` seeds the tangent vector (default (1, 0)); aligning it with
    the local unstable eigendirection removes the O(1/t) transient.
    """
    if t_total <= 0 or dt <= 0:
        raise ValueError("t_total and dt must be positive")
    if renorm_every < 1:
        raise ValueError("renorm_every must be >= 1")
    f = _rhs_scalar(m)
    b, c1 = 2 * m.kappa, -2 * m.v2  # d(qdot)/dp, d(pdot)/dq at q = 0
    if not m.v4:
        def jqq(q):
            return c1
    else:
        c2 = 12 * m.v4

        def jqq(q):
            return c1 - c2 * q * q

    def ftan(q, p, u, v):
        dq, dp = f(q, p)
        return dq, dp, b * v, jqq(q) * u

    q, p = s0.q, s0.p
    u, v = tangent0 if tangent0 is not None else (1.0, 0.0)
    nrm = math.hypot(u, v)
    u, v = u / nrm, v / nrm
    n = int(round(t_total / dt))
    log_sum = 0.0
    for i in range(1, n + 1):
        k1 = ftan(q, p, u, v)
        k2 = ftan(q + dt / 2 * k1[0], p + dt / 2 * k1[1], u + dt / 2 * k1[2], v + dt / 2 * k1[3])
        k3 = ftan(q + dt / 2 * k2[0], p + dt / 2 * k2[1], u + dt / 2 * k2[2], v + dt / 2 * k2[3])
        k4 = ftan(q + dt * k3[0], p + dt * k3[1], u + dt * k3[2], v + dt * k3[3])
        q += dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p += dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        u += dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        v += dt / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
        if i % renorm_every == 0:
            nrm = math.hypot(u, v)
            log_sum += math.log(nrm)
            u, v = u / nrm, v / nrm
    if n % renorm_every:
        log_sum += math.log(math.hypot(u, v))
    return log_sum / (n * dt)


class ManifoldClass(Enum):
    SADDLE = "saddle"
    STABLE_MANIFOLD = "stable_manifold"
    UNSTABLE_MANIFOLD = "unstable_manifold"
    GENERIC = "generic"


def classify_iho_point(s: ClassicalState, tol: float = 1e-9) -> ManifoldClass:
    """Locate a point relative to the IHO saddle and its manifolds
    p = -q (stable) / p = q (unstable)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if abs(s.q) <= tol and abs(s.p) <= tol:
        return ManifoldClass.SADDLE
    scale = max(1.0, abs(s.q))
    if abs(s.p + s.q) <= tol * scale:
        return ManifoldClass.STABLE_MANIFOLD
    if abs(s.p - s.q) <= tol * scale:
        return ManifoldClass.UNSTABLE_MANIFOLD
    return ManifoldClass.GENERIC


def phase_portrait(
    m: Model,
    seeds: list[ClassicalState],
    t_end: float,
    dt: float,
) -> list[Trajectory]:
    """One trajectory per seed spanning [-t_end, t_end] (backward + forward)."""
    out = []
    for s in seeds:
        fwd = integrate(m, s, t_end, dt)
        bwd = integrate(m, s, -t_end, dt)
        times = np.concatenate([bwd.times[::-1][:-1], fwd.times])
        qs = np.concatenate([bwd.qs[::-1][:-1], fwd.qs])
        ps = np.concatenate([bwd.ps[::-1][:-1], fwd.ps])
        out.append(Trajectory(times=times, qs=qs, ps=ps, energy0=fwd.energy0))
    return out
