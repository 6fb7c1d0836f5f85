import math

import numpy as np
import pytest

from otoclab.classical import (
    ClassicalState,
    ManifoldClass,
    Model,
    classify_iho_point,
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
def test_lyapunov_hiho_periodic_orbit_vanishes():
    lam = lyapunov_tangent(HIHO, ClassicalState(8.0, 9.0), t_total=1000.0)
    assert abs(lam) <= 1e-2


def test_classify_points():
    assert classify_iho_point(ClassicalState(0.0, 0.0)) is ManifoldClass.SADDLE
    assert classify_iho_point(ClassicalState(5.0, -5.0)) is ManifoldClass.STABLE_MANIFOLD
    assert classify_iho_point(ClassicalState(3.0, 3.0)) is ManifoldClass.UNSTABLE_MANIFOLD
    assert classify_iho_point(ClassicalState(-4.267, 5.643)) is ManifoldClass.GENERIC


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
