"""Classical Hamiltonian dynamics for both oscillators: analytic inverted-
oscillator flow, fixed-step RK4 integration, Jacobian analysis and Benettin
tangent-space Lyapunov exponents.

Both systems are the classical limit of one ``fock.Model``,
H = kappa p^2 + V(q) with V(q) = v0 + v2 q^2 + v4 q^4, so
qdot = 2 kappa p, pdot = -2 v2 q - 4 v4 q^3, and the flow's Jacobian is
[[0, 2 kappa], [-2 v2 - 12 v4 q^2, 0]]:

- iho:  kappa = 1/2, V = -q^2/2, so qdot = p, pdot = q;
- hiho: kappa = 1,   V = -gamma^2 q^2/4 + g q^4 + gamma^4/(64 g),
  so qdot = 2p, pdot = gamma^2 q/2 - 4 g q^3.

A zero coefficient's term is left out rather than multiplied by 0: far out
on an unstable IHO orbit q**3 overflows, and 0 * inf is nan.

``integrate`` and ``lyapunov_tangent`` run millions of steps, so their RK4
stages, and the energy of ``integrate``'s drift guard, are written out as
statements on local floats: no function call, tuple or numpy scalar in a
step. They keep the operation order of the plain closure-based RK4
(tests/test_classical.py holds it as the reference), so their results are
bit-identical to it. Their literals are floats (2.0 * k, x**3.0): Python
converts an int operand to the same double, so the values do not change,
but float-only operations take CPython's specialised fast path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepTooLarge
from .fock import Model, hiho, iho  # iho and hiho are re-exported

ENERGY_DRIFT_TOL = 1e-8
# Benettin steps between renormalisations of the tangent vector
RENORM_EVERY = 10


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


def has_finite_energy(m: Model, q: float, p: float) -> bool:
    """Whether ``energy(m, q, p)`` is finite; a power in it past the float
    range raises OverflowError rather than giving inf."""
    try:
        return math.isfinite(energy(m, q, p))
    except OverflowError:
        return False


def hamilton_rhs(m: Model, s: ClassicalState) -> tuple[float, float]:
    """Analytic (dq/dt, dp/dt)."""
    dp = -2 * m.v2 * s.q
    if m.v4:
        dp -= 4 * m.v4 * s.q**3
    return 2 * m.kappa * s.p, dp


def flow_iho_analytic(s0: ClassicalState, t: float) -> ClassicalState:
    """Closed-form IHO flow: saddle at the origin, manifolds p = -q / p = q."""
    ch, sh = math.cosh(t), math.sinh(t)
    return ClassicalState(q=s0.q * ch + s0.p * sh, p=s0.p * ch + s0.q * sh)


def _step_count(t: float, dt: float, name: str) -> int:
    """round(|t| / dt), refusing what int() cannot take: a NaN or infinite
    t or dt (a NaN passes the callers' sign checks) and a ratio that
    overflows."""
    if not (math.isfinite(t) and math.isfinite(dt)):
        raise ValueError(f"{name} and dt must be finite, got {t!r} and {dt!r}")
    ratio = abs(t) / dt
    if not math.isfinite(ratio):
        raise ValueError(f"{name}={t!r} over dt={dt!r} is not a finite step count")
    return int(round(ratio))


def _not_finite(t: float) -> StepTooLarge:
    return StepTooLarge(f"the energy at t={t:.6g} is not finite: the orbit has left "
                        f"the float range")


def _left_float_range(t: float) -> StepTooLarge:
    return StepTooLarge(f"the Benettin run left the float range by t={t:.6g}")


def integrate(
    m: Model,
    s0: ClassicalState,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Fixed-step RK4 trajectory over [0, t_end] (t_end may be negative for
    backward integration; dt is a positive step magnitude).

    A step whose flow energy E = kappa p^2 + v2 q^2 + v4 q^4 (``energy``
    without v0, which no step changes and whose size would blind the bound)
    drifts from the initial E0 by more than ENERGY_DRIFT_TOL * max(1, |E0|),
    or is not finite, raises StepTooLarge; so does a float power past the
    float range, which Python raises as OverflowError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end == 0:
        raise ValueError("t_end must be nonzero")
    n = max(1, _step_count(t_end, dt, "t_end"))
    h = t_end / n
    hh, h6 = h / 2, h / 6
    kappa, v2, v4 = m.kappa, m.v2, m.v4
    b, c1, c3 = 2 * kappa, -2 * v2, 4 * v4
    q, p = s0.q, s0.p
    qs, ps = [q], [p]
    i = 0
    try:
        energy0 = energy(m, q, p)
        e0 = kappa * p * p + v2 * q * q + (v4 * q**4.0 if v4 else 0.0)
        if not math.isfinite(e0):
            raise _not_finite(0.0)
        bound = ENERGY_DRIFT_TOL * max(1.0, abs(e0))
        for i in range(1, n + 1):
            # a zero quartic term is left out (see the module docstring)
            k1q = b * p
            k1p = c1 * q - c3 * q**3.0 if v4 else c1 * q
            x = q + hh * k1q
            k2q = b * (p + hh * k1p)
            k2p = c1 * x - c3 * x**3.0 if v4 else c1 * x
            x = q + hh * k2q
            k3q = b * (p + hh * k2p)
            k3p = c1 * x - c3 * x**3.0 if v4 else c1 * x
            x = q + h * k3q
            k4q = b * (p + h * k3p)
            k4p = c1 * x - c3 * x**3.0 if v4 else c1 * x
            q += h6 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            p += h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            qs.append(q)
            ps.append(p)
            e = kappa * p * p + v2 * q * q + (v4 * q**4.0 if v4 else 0.0)
            # not <=, so that a NaN energy fails the guard too
            if not abs(e - e0) <= bound:
                if not math.isfinite(e):
                    raise _not_finite(i * h)
                raise StepTooLarge(f"energy drift {abs(e - e0):.3e} at t={i * h:.6g} "
                                   f"exceeds {bound:.3e}; reduce dt")
    except OverflowError:  # a float power past the float range
        raise _not_finite(i * h) from None
    times = np.arange(n + 1) * h
    times[0] = 0.0  # 0 * h is -0.0 when integrating backward
    return Trajectory(times=times, qs=np.array(qs), ps=np.array(ps), energy0=energy0)


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
    tangent0: tuple[float, float] | None = None,
) -> float:
    """Maximal Lyapunov exponent by the Benettin method: co-integrate one
    tangent vector with the flow by RK4, renormalize every RENORM_EVERY
    steps, and average the accumulated log growth over
    n = round(t_total / dt) steps.

    ``tangent0`` seeds the tangent vector (default (1, 0)); aligning it with
    the local unstable eigendirection removes the O(1/t) transient.

    The tangent (u, v) obeys udot = 2 kappa v, vdot = (-2 v2 - 12 v4 q^2) u.
    The stages are written out on local floats in an outer loop over
    renormalisation blocks; with v4 == 0 the tangent coefficients are
    constant, so only (u, v) is integrated.

    An orbit or tangent past the float range raises StepTooLarge, as in
    ``integrate``: from the OverflowError of a float power, or from a
    non-finite exponent.
    """
    if t_total <= 0 or dt <= 0:
        raise ValueError("t_total and dt must be positive")
    n = _step_count(t_total, dt, "t_total")
    if n == 0:
        raise ValueError(f"t_total={t_total!r} is under half a step of dt={dt!r}")
    b, c1 = 2 * m.kappa, -2 * m.v2  # d(qdot)/dp, d(pdot)/dq at q = 0
    v4, c2, c3 = m.v4, 12 * m.v4, 4 * m.v4
    hdt, sdt = dt / 2, dt / 6
    q, p = s0.q, s0.p
    u, v = tangent0 if tangent0 is not None else (1.0, 0.0)
    nrm = math.hypot(u, v)
    if not (0 < nrm < math.inf):
        raise ValueError(f"tangent0 must be a nonzero finite vector, got {tangent0!r}")
    u, v = u / nrm, v / nrm
    log_sum = 0.0
    try:
        for start in range(0, n, RENORM_EVERY):
            steps = range(min(RENORM_EVERY, n - start))
            if v4:
                for _ in steps:
                    k1q = b * p
                    k1p = c1 * q - c3 * q**3.0
                    k1u = b * v
                    k1v = (c1 - c2 * q * q) * u
                    x = q + hdt * k1q
                    k2q = b * (p + hdt * k1p)
                    k2p = c1 * x - c3 * x**3.0
                    k2u = b * (v + hdt * k1v)
                    k2v = (c1 - c2 * x * x) * (u + hdt * k1u)
                    x = q + hdt * k2q
                    k3q = b * (p + hdt * k2p)
                    k3p = c1 * x - c3 * x**3.0
                    k3u = b * (v + hdt * k2v)
                    k3v = (c1 - c2 * x * x) * (u + hdt * k2u)
                    x = q + dt * k3q
                    k4q = b * (p + dt * k3p)
                    k4p = c1 * x - c3 * x**3.0
                    k4u = b * (v + dt * k3v)
                    k4v = (c1 - c2 * x * x) * (u + dt * k3u)
                    q += sdt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
                    p += sdt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
                    u += sdt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
                    v += sdt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            else:
                # (u, v) never reads (q, p) here, so the state is not integrated
                for _ in steps:
                    k1u = b * v
                    k1v = c1 * u
                    k2u = b * (v + hdt * k1v)
                    k2v = c1 * (u + hdt * k1u)
                    k3u = b * (v + hdt * k2v)
                    k3v = c1 * (u + hdt * k2u)
                    k4u = b * (v + dt * k3v)
                    k4v = c1 * (u + dt * k3u)
                    u += sdt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
                    v += sdt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            nrm = math.hypot(u, v)
            log_sum += math.log(nrm)
            u, v = u / nrm, v / nrm
    except OverflowError:  # a float power past the float range
        raise _left_float_range(min(start + RENORM_EVERY, n) * dt) from None
    lam = log_sum / (n * dt)
    if not math.isfinite(lam):  # an orbit that reached inf raises no OverflowError
        raise _left_float_range(t_total)
    return lam


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
