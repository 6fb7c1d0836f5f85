import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import check_named
from hypothesis import assume, given, settings, strategies as st

from otoclab import _benettin
from otoclab.classical import (
    ENERGY_DRIFT_TOL,
    RENORM_EVERY,
    ClassicalState,
    Model,
    Trajectory,
    _left_float_range,
    energy,
    flow_iho_analytic,
    hamilton_rhs,
    hiho,
    iho,
    integrate,
    jacobian_eigen,
    lyapunov_tangent,
    phase_portrait,
)
from otoclab.errors import StepTooLarge

HIHO = hiho(3.0, 1 / 25)


def test_saddle_is_fixed():
    for t in (0.0, 1.0, 10.0):
        s = flow_iho_analytic(ClassicalState(0.0, 0.0), t)
        assert (s.q, s.p) == (0.0, 0.0)


def test_stable_manifold_contracts():
    s = flow_iho_analytic(ClassicalState(5.0, -5.0), 2.0)
    assert s.q == pytest.approx(5 * math.exp(-2.0), rel=1e-12)
    assert s.p == pytest.approx(-5 * math.exp(-2.0), rel=1e-12)


def test_unstable_manifold_expands():
    s = flow_iho_analytic(ClassicalState(3.0, 3.0), 1.5)
    assert s.q == pytest.approx(3 * math.exp(1.5), rel=1e-12)
    assert s.p == pytest.approx(3 * math.exp(1.5), rel=1e-12)


def test_rhs_iho():
    assert hamilton_rhs(iho(), ClassicalState(2.0, -3.0)) == (-3.0, 2.0)


def test_rhs_hiho_fixed_point_and_wells():
    assert hamilton_rhs(HIHO, ClassicalState(0.0, 0.0)) == (0.0, 0.0)
    q_well = math.sqrt(9 / (8 / 25))  # gamma^2/(8g) = 28.125
    _, dp = hamilton_rhs(HIHO, ClassicalState(q_well, 0.0))
    assert dp == pytest.approx(0.0, abs=1e-12)


def test_integrate_matches_analytic_flow():
    traj = integrate(iho(), ClassicalState(5.0, -5.0), 3.0, 1e-3)
    ref = flow_iho_analytic(ClassicalState(5.0, -5.0), 3.0)
    assert abs(traj.qs[-1] - ref.q) <= 1e-8
    assert abs(traj.ps[-1] - ref.p) <= 1e-8


def test_integrate_energy_conserved():
    traj = integrate(HIHO, ClassicalState(8.0, 9.0), 5.0, 1e-3)
    e = traj.ps**2 - 9 * traj.qs**2 / 4 + traj.qs**4 / 25 + 81 * 25 / 64
    assert np.max(np.abs(e - traj.energy0)) <= 1e-8 * max(1.0, abs(traj.energy0))


def test_hiho_orbit_is_periodic():
    # F sits on a closed energy contour; find the period from q-crossings
    traj = integrate(HIHO, ClassicalState(8.0, 9.0), 4.0, 1e-4)
    d = np.hypot(traj.qs - 8.0, traj.ps - 9.0)
    # skip the initial neighborhood, then find the closest return
    i0 = np.argmax(d > 1.0)
    i_ret = i0 + int(np.argmin(d[i0:]))
    # closest-return resolution is set by the sampling step: |v| dt ~ 2e-3
    assert d[i_ret] <= 5e-3
    assert traj.times[i_ret] > 0.5


def test_hiho_saddle_stays_put():
    traj = integrate(HIHO, ClassicalState(0.0, 0.0), 2.0, 1e-3)
    assert np.all(traj.qs == 0.0)
    assert np.all(traj.ps == 0.0)


def test_jacobian_eigen_iho_saddle():
    lam = jacobian_eigen(iho(), ClassicalState(0.0, 0.0))
    assert lam[0] == 1.0 and lam[1] == -1.0


def test_jacobian_eigen_hiho_saddle():
    lam = jacobian_eigen(HIHO, ClassicalState(0.0, 0.0))
    assert lam[0] == 3.0 and lam[1] == -3.0  # exactly +/- gamma


def test_jacobian_eigen_well_minimum_is_center():
    q_well = math.sqrt(28.125)
    lam = jacobian_eigen(HIHO, ClassicalState(q_well, 0.0))
    assert lam[0].real == pytest.approx(0.0, abs=1e-12)
    assert lam[0].imag == pytest.approx(math.sqrt(2 * 9), rel=1e-12)


def test_lyapunov_iho_seed_independent():
    # the tangent-alignment transient decays as ln(c)/t_total, so the run
    # must be long enough to push it below the 1e-3 target
    for s0 in (ClassicalState(3.0, 3.0), ClassicalState(1.0, 0.0)):
        lam = lyapunov_tangent(iho(), s0, t_total=500.0)
        assert lam == pytest.approx(1.0, abs=1e-3)


def test_lyapunov_hiho_displaced_saddle():
    # seed on the stable eigendirection, tangent on the unstable one, so the
    # trajectory stays in the linear regime over the full run
    nrm = math.hypot(2.0, 3.0)
    lam = lyapunov_tangent(
        HIHO,
        ClassicalState(1e-7 * 2 / nrm, -1e-7 * 3 / nrm),
        t_total=10.0,
        tangent0=(2 / nrm, 3 / nrm),
    )
    assert lam == pytest.approx(3.0, abs=1e-2)


@pytest.mark.slow
def test_lyapunov_hiho_periodic_orbit_vanishes(reproduce_all):
    # the 10^6-step run at F is reproduce-all's lambda_F check; read it there
    # rather than integrate it a second time
    c = check_named(reproduce_all[1], "lambda_F")
    assert abs(c["value"]) <= 1e-2
    assert c["passed"]


def test_phase_portrait_manifold_rays():
    trajs = phase_portrait(iho(), [ClassicalState(1.0, 1.0)], 1.0, 1e-3)
    tr = trajs[0]
    assert np.max(np.abs(tr.ps - tr.qs)) <= 1e-8  # stays on p = q
    assert tr.times[0] == pytest.approx(-1.0)
    assert tr.times[-1] == pytest.approx(1.0)


def test_phase_portrait_generic_hyperbola():
    trajs = phase_portrait(iho(), [ClassicalState(0.0, 2.0)], 1.5, 1e-3)
    tr = trajs[0]
    const = tr.ps**2 - tr.qs**2
    assert np.max(np.abs(const - 4.0)) <= 1e-7


def test_rk4_order():
    s0 = ClassicalState(2.0, 1.0)
    ref = flow_iho_analytic(s0, 2.0)

    def max_err(dt):
        tr = integrate(iho(), s0, 2.0, dt)
        exact_q = np.array([flow_iho_analytic(s0, t).q for t in tr.times])
        exact_p = np.array([flow_iho_analytic(s0, t).p for t in tr.times])
        return max(np.max(np.abs(tr.qs - exact_q)), np.max(np.abs(tr.ps - exact_p)))

    factor = max_err(0.02) / max_err(0.01)
    assert 12 <= factor <= 20


def test_time_reversal():
    fwd = integrate(HIHO, ClassicalState(8.0, 9.0), 3.0, 1e-3)
    back = integrate(
        HIHO, ClassicalState(fwd.qs[-1], fwd.ps[-1]), -3.0, 1e-3
    )
    assert abs(back.qs[-1] - 8.0) <= 1e-7
    assert abs(back.ps[-1] - 9.0) <= 1e-7


def test_system_validation():
    # a system is a Model; hiho keeps the positivity check on gamma and g
    with pytest.raises(ValueError):
        hiho(-1.0, 0.04)
    with pytest.raises(ValueError):
        hiho(3.0, 0.0)
    assert iho() == Model(kappa=0.5, v2=-0.5)
    assert HIHO == Model(kappa=1.0, v2=-9 / 4, v4=1 / 25, v0=31.640625)


def test_energy_functions():
    assert energy(iho(), 3.0, 3.0) == 0.0
    assert energy(HIHO, 0.0, 0.0) == pytest.approx(31.640625)


# The closure-based RK4 and Benettin loops that the flat kernels replaced,
# kept as the reference the kernels must equal bit for bit.

def _rhs_scalar(m: Model):
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


def reference_integrate(m, s0, t_end, dt):
    n = max(1, int(round(abs(t_end) / dt)))
    h = t_end / n
    f = _rhs_scalar(m)
    flow = replace(m, v0=0.0)  # the drift guard reads the flow's energy, without v0
    e0 = energy(flow, s0.q, s0.p)
    bound = ENERGY_DRIFT_TOL * max(1.0, abs(e0))
    ts = np.empty(n + 1)
    qs = np.empty(n + 1)
    ps = np.empty(n + 1)
    q, p = s0.q, s0.p
    ts[0], qs[0], ps[0] = 0.0, q, p
    for i in range(1, n + 1):
        q, p = _rk4_step(f, q, p, h)
        ts[i], qs[i], ps[i] = i * h, q, p
        if abs(energy(flow, q, p) - e0) > bound:
            raise StepTooLarge(
                f"energy drift {abs(energy(flow, q, p) - e0):.3e} at t={i * h:.6g} "
                f"exceeds {bound:.3e}; reduce dt"
            )
    return Trajectory(times=ts, qs=qs, ps=ps, energy0=energy(m, s0.q, s0.p))


def reference_lyapunov_tangent(m, s0, t_total, dt=1e-3, tangent0=None):
    f = _rhs_scalar(m)
    b, c1 = 2 * m.kappa, -2 * m.v2
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
        if i % RENORM_EVERY == 0:
            nrm = math.hypot(u, v)
            log_sum += math.log(nrm)
            u, v = u / nrm, v / nrm
    if n % RENORM_EVERY:
        log_sum += math.log(math.hypot(u, v))
    return log_sum / (n * dt)


_NRM = math.hypot(2.0, 3.0)

# (model, seed, keyword arguments); about 40k steps in all
LYAPUNOV_CASES = {
    "iho-default": (iho(), ClassicalState(3.0, 3.0), dict(t_total=5.0)),
    "iho-tangent0": (
        iho(), ClassicalState(1.0, 0.0), dict(t_total=5.0, tangent0=(0.3, -2.0)),
    ),
    "hiho-default": (HIHO, ClassicalState(8.0, 9.0), dict(t_total=5.0)),
    "hiho-renorm10-ragged": (
        HIHO, ClassicalState(-4.0, 2.0), dict(t_total=1.234, dt=2e-3),  # 617 % 10 = 7
    ),
    "lambda_T_displaced": (
        HIHO, ClassicalState(1e-7 * 2.0 / _NRM, -1e-7 * 3.0 / _NRM),
        dict(t_total=10.0, tangent0=(2.0 / _NRM, 3.0 / _NRM)),
    ),
}


LOOPS = ("kernel", "python")


@pytest.fixture
def loop(request, monkeypatch):
    """'kernel': lyapunov_tangent as it runs by default, on the C kernel
    wherever it builds; 'python': its Python loop, forced by hiding the kernel."""
    if request.param == "python":
        monkeypatch.setattr(_benettin, "load", lambda: None)
    return request.param


def on_both_loops(argnames, cases, ids):
    """Parametrize ``loop`` with argnames: each case runs on the default path
    under its own id, and on the forced Python loop under 'python-' + id."""
    params = [pytest.param(lp, *case, id=i if lp == "kernel" else f"python-{i}")
              for lp in LOOPS for case, i in zip(cases, ids)]
    return pytest.mark.parametrize(["loop", *argnames], params, indirect=["loop"])


def python_loop():
    """lyapunov_tangent on its Python loop, in a with block."""
    return mock.patch.object(_benettin, "load", lambda: None)


def outcome(m, s0, **kw):
    """lyapunov_tangent's value, or the type and message of what it raised."""
    try:
        return lyapunov_tangent(m, s0, **kw)
    except (ValueError, StepTooLarge) as exc:
        return type(exc), str(exc)


@on_both_loops(["case"], [(c,) for c in LYAPUNOV_CASES], list(LYAPUNOV_CASES))
def test_lyapunov_tangent_equals_reference(loop, case):
    m, s0, kw = LYAPUNOV_CASES[case]
    assert lyapunov_tangent(m, s0, **kw) == reference_lyapunov_tangent(m, s0, **kw)


INTEGRATE_CASES = {
    "hiho-forward": (HIHO, ClassicalState(8.0, 9.0), 5.0, 1e-3),
    "hiho-backward": (HIHO, ClassicalState(8.0, 9.0), -3.0, 1e-3),
    "iho-forward": (iho(), ClassicalState(2.0, 1.0), 2.0, 0.01),
}


def test_hamilton_rhs_equals_reference():
    rng = np.random.default_rng(5)
    for m in (iho(), HIHO, hiho(2.0, 0.1)):
        f = _rhs_scalar(m)
        for q, p in rng.normal(scale=10.0, size=(200, 2)):
            assert hamilton_rhs(m, ClassicalState(q, p)) == f(q, p)


@pytest.mark.parametrize("case", INTEGRATE_CASES)
def test_integrate_equals_reference(case):
    args = INTEGRATE_CASES[case]
    new, ref = integrate(*args), reference_integrate(*args)
    for name in ("times", "qs", "ps"):
        # bytes, so that signed zeros count (== and np.array_equal ignore them)
        assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name
    assert new.energy0 == ref.energy0


def test_step_too_large_equals_reference():
    # an h = 0.05 step drifts the energy past the bound on the first step
    args = (HIHO, ClassicalState(8.0, 9.0), 5.0, 0.05)
    with pytest.raises(StepTooLarge) as ref:
        reference_integrate(*args)
    with pytest.raises(StepTooLarge) as new:
        integrate(*args)
    assert str(new.value) == str(ref.value)
    assert "at t=0.05 " in str(new.value)


def test_drift_guard_ignores_v0():
    # the guard bounds the drift of the flow's own energy: a huge v0 (tiny g)
    # used to set the bound and let a step of dt = 2 through
    args = (ClassicalState(2.0, -2.0), 10.0, 2.0)
    tiny_g = hiho(3.0, 1e-304)
    messages = []
    for m in (tiny_g, replace(tiny_g, v0=0.0)):
        with pytest.raises(StepTooLarge) as exc:
            integrate(m, *args)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("exceeds 5.000e-08; reduce dt")


def test_lyapunov_zero_steps_is_a_value_error():
    # round(4e-4 / 1e-3) = 0 steps: nothing to average over
    with pytest.raises(ValueError, match="under half a step"):
        lyapunov_tangent(iho(), ClassicalState(1.0, 0.0), 4e-4)


PAST_THE_FLOAT_RANGE = [(0.0, 1e200), (1e154, 0.0), (0.0, 1e308)]


@on_both_loops(["q", "p"], PAST_THE_FLOAT_RANGE, [f"{q}-{p}" for q, p in PAST_THE_FLOAT_RANGE])
def test_lyapunov_orbit_past_the_float_range_is_step_too_large(loop, q, p):
    # the first two raised a bare OverflowError from a float power, and the
    # last returned nan, from inf - inf
    with pytest.raises(StepTooLarge, match="left the float range"):
        lyapunov_tangent(HIHO, ClassicalState(q, p), 1.0)


NON_FINITE = [(math.nan, 1e-3), (1.0, math.nan), (math.inf, 1e-3), (1.0, math.inf),
              (1e300, 1e-300)]


@on_both_loops(["t", "dt"], NON_FINITE, [f"{t}-{dt}" for t, dt in NON_FINITE])
def test_lyapunov_non_finite_time_is_a_value_error(loop, t, dt):
    with pytest.raises(ValueError, match="finite"):
        lyapunov_tangent(iho(), ClassicalState(1.0, 0.0), t, dt)


@pytest.mark.parametrize("t, dt", NON_FINITE + [(-math.inf, 1e-3)])
def test_integrate_non_finite_time_is_a_value_error(t, dt):
    with pytest.raises(ValueError, match="finite"):
        integrate(iho(), ClassicalState(1.0, 0.0), t, dt)


BAD_TANGENTS = [(0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0)]


@on_both_loops(["kw"], [(dict(tangent0=t),) for t in BAD_TANGENTS],
               [f"kw{i}" for i in range(len(BAD_TANGENTS))])
def test_lyapunov_bad_renorm_or_tangent_is_a_value_error(loop, kw):
    # the renormalisation interval is the fixed RENORM_EVERY; only tangent0 can be bad
    with pytest.raises(ValueError, match="tangent0"):
        lyapunov_tangent(iho(), ClassicalState(1.0, 0.0), 1.0, **kw)


def test_kernel_builds_where_cc_is_found(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH: lyapunov_tangent runs its Python loop")
    assert _benettin.load() is not None
    assert _benettin.build(str(tmp_path)) is not None
    (lib,) = os.listdir(tmp_path)  # no temporary file left beside it
    assert lib.startswith("_benettin-") and lib.endswith(".so")


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(0.5, 5.0), g=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    q=st.floats(-30.0, 30.0), p=st.floats(-30.0, 30.0),
    tangent0=st.one_of(st.none(), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))),
    dt=st.floats(5e-4, 1e-2), t_total=st.floats(0.01, 0.5),
)
def test_both_loops_equal_reference(gamma, g, q, p, tangent0, dt, t_total):
    assume(tangent0 is None or math.hypot(*tangent0) > 0.0)
    m = hiho(gamma, g) if g else iho()
    kw = dict(t_total=t_total, dt=dt, tangent0=tangent0)
    new = outcome(m, ClassicalState(q, p), **kw)
    with python_loop():
        assert outcome(m, ClassicalState(q, p), **kw) == new
    if isinstance(new, float):
        assert new == reference_lyapunov_tangent(m, ClassicalState(q, p), **kw)


# the largest double whose cube is finite, 5.64e102, and the next one up
CUBE_EDGE = 5.643803094122361e102
CUBES = [0.0, -0.0, 5e-324, -5e-324, 1e-110, 1e-105, -1e-105, 2.2250738585072014e-308,
         1.0, -1.0, 2.0, -3.5, 1e100, -1e100, CUBE_EDGE, -CUBE_EDGE,
         math.nextafter(CUBE_EDGE, math.inf), -math.nextafter(CUBE_EDGE, math.inf),
         1e200, -1.7976931348623157e308, math.inf, -math.inf, math.nan]


def test_kernel_cube_is_python_cube():
    lib = _benettin.load()
    if lib is None:
        pytest.skip("no kernel built: lyapunov_tangent runs its Python loop")
    import ctypes

    out = ctypes.c_double()
    for x in CUBES:
        try:
            want = struct.pack("<d", x**3.0)  # bytes: the sign of a zero and a nan's bits count
        except OverflowError:
            want = None
        status = lib.otoclab_cube(x, ctypes.byref(out))
        assert (None if status else struct.pack("<d", out.value)) == want, x
    with pytest.raises(OverflowError):
        math.nextafter(CUBE_EDGE, math.inf) ** 3.0


@pytest.mark.parametrize("m, s0, t_left", [
    # the cube of q passes 1.8e308 near t = 2.18, mid-block, and raises
    (hiho(3.0, 1e-300), ClassicalState(1e100, 1e100), 2.18),
    # 2 p overflows to inf, then inf - inf gives nan, and nothing raises
    (HIHO, ClassicalState(0.0, 1e308), 5.0),
    # an int coefficient that no double holds raises in the first block
    (Model(kappa=10**400, v2=-0.5), ClassicalState(1.0, 0.0), 0.01),
], ids=["cube-raises", "product-overflows", "int-past-the-float-range"])
def test_orbit_leaving_the_float_range_on_both_loops(m, s0, t_left):
    new = outcome(m, s0, t_total=5.0)
    with python_loop():
        assert outcome(m, s0, t_total=5.0) == new
    assert new == (StepTooLarge, str(_left_float_range(t_left)))


def _fake_cc(bin_dir: Path, script: str | None) -> None:
    bin_dir.mkdir()
    if script is not None:
        cc = bin_dir / "cc"
        cc.write_text(f"#!/bin/sh\n{script}\n")
        cc.chmod(0o755)


@pytest.mark.parametrize("script", [None, "exit 1", "exec sleep 30"],
                         ids=["no-cc", "cc-fails", "cc-times-out"])
def test_failed_build_runs_the_python_loop(tmp_path, monkeypatch, script):
    _fake_cc(tmp_path / "bin", script)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setattr(_benettin, "BUILD_TIMEOUT_S", 0.5)
    cache = tmp_path / "cache"
    monkeypatch.setattr(_benettin, "CACHE_DIR", str(cache))
    monkeypatch.setattr(_benettin, "_lib", None)
    m, s0, kw = LYAPUNOV_CASES["hiho-default"]
    assert lyapunov_tangent(m, s0, **kw) == reference_lyapunov_tangent(m, s0, **kw)
    assert _benettin._lib is False  # kept: no second build in this process
    assert list(cache.iterdir()) == []  # no temporary file left


def test_unwritable_cache_dir_builds_nothing(tmp_path):
    (tmp_path / "file").write_text("")
    assert _benettin.build(str(tmp_path / "file" / "cache")) is None


def test_library_with_another_hash_is_never_loaded(tmp_path, monkeypatch):
    built = tmp_path / "built"
    if shutil.which("cc") is None or _benettin.build(str(built)) is None:
        pytest.skip("no kernel built: lyapunov_tangent runs its Python loop")
    (lib,) = built.iterdir()
    other = tmp_path / "other"
    other.mkdir()
    shutil.copy(lib, other / "_benettin-0000000000000000.so")
    _fake_cc(tmp_path / "bin", None)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    # a valid library under another name: not found, and no compiler to build it
    assert _benettin.build(str(other)) is None


def test_import_builds_and_loads_nothing(tmp_path):
    # Building or loading the kernel at import would bill every command's
    # start-up, classical or not; it happens on the first lyapunov_tangent.
    shutil.copytree(Path(_benettin.__file__).parent, tmp_path / "otoclab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = (
        "import sys\n"
        "import otoclab.cli\n"
        "from otoclab import _benettin\n"
        "assert _benettin.__file__.startswith(sys.argv[1]), _benettin.__file__\n"
        "assert 'subprocess' not in sys.modules\n"
        "assert _benettin._lib is None\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True,
                   timeout=60)
    cache = tmp_path / "otoclab" / "__pycache__"
    assert not list(cache.glob("_benettin*"))
    if shutil.which("cc") is not None:
        # the same check sees the file that a first call builds
        script = ("from otoclab.classical import ClassicalState, iho, lyapunov_tangent\n"
                  "lyapunov_tangent(iho(), ClassicalState(1.0, 0.0), 0.01)\n")
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
        assert len(list(cache.glob("_benettin-*.so"))) == 1
