"""End-to-end acceptance gate.

Each test checks one headline property of the laboratory at its stated
tolerance and prints a single [PASS]/[FAIL] line through the capture
barrier, so the full verdict is readable in any pytest run.
"""
import json
import math
import os

import numpy as np
import pytest
from conftest import expect

from otoclab import classical
from otoclab.analysis import auto_window, correspondence_time, ehrenfest_time, fit_exponential
from otoclab.cli import main
from otoclab.config import ExperimentConfig, LabeledPoint, serialize
from otoclab.evolution import commutator_otoc, evolve, photon_series, variance_otoc
from otoclab.fock import CoherentParams, FockDim, coherent_state, quadratures
from otoclab.husimi import (
    PhaseGrid,
    count_local_maxima,
    husimi_centroid,
    husimi_norm,
    husimi_q,
)

GAMMA, G = 3.0, 0.04
HIHO = classical.hiho(GAMMA, G)


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_acceptance_1_variance_matches_commutator_oracle(
    capsys, iho_prop, hiho_prop
):
    """C(t) from the variance route equals the projector-commutator route."""
    n_p = 59
    d = FockDim(n_p)
    _, P = quadratures(d)
    times = np.array([0.05, 0.2, 0.5, 1.0, 1.5])
    rng = np.random.default_rng(11)
    worst = 0.0
    for prop in (iho_prop(n_p), hiho_prop(n_p)):
        for _ in range(20):
            q, p = rng.uniform(-3, 3, size=2)
            psi = coherent_state(d, CoherentParams(q, p))
            var = variance_otoc(prop, psi, times).values
            for t, v in zip(times, var):
                worst = max(worst, abs(commutator_otoc(prop, psi, P, t) - v))
    _report(capsys, "oracle equivalence (40 states x 5 times, both systems)",
            worst <= 1e-8, f"max |variance - commutator| = {worst:.3e}")


def test_acceptance_2_unstable_growth_rate_and_state_independence(
    capsys, iho_prop
):
    """Saddle OTOC grows at twice the classical exponent, for every start."""
    n_p = 300
    d = FockDim(n_p)
    prop = iho_prop(n_p)
    times = np.linspace(0.0, 3.0, 301)
    points = [("O", 0.0, 0.0), ("A", 5.0, -5.0), ("D", -3.0, 3.0)]
    curves, rates = [], []
    for _, q, p in points:
        series = variance_otoc(prop, coherent_state(d, CoherentParams(q, p)), times)
        curves.append(series)
        rates.append(fit_exponential(series, (0.5, 2.5)).rate)
    rate_ok = all(abs(r - 2.0) <= 0.1 for r in rates)
    tau = math.log(n_p) / 2.0
    mask = times < tau
    max_dev = 0.0
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            a, b = curves[i].values[mask], curves[j].values[mask]
            max_dev = max(max_dev, float(np.max(np.abs(a - b) / np.maximum(a, b))))
    _report(capsys, "saddle growth rate 2.0 +/- 5%, start-independent to 2%",
            rate_ok and max_dev <= 0.02,
            f"rates = {[f'{r:.4f}' for r in rates]}, pointwise dev = {max_dev:.4f}")


def test_acceptance_3_truncation_controls_exponential_duration(capsys, iho_prop):
    """Rate is truncation-independent; the exponential window grows with n_p."""
    times = np.linspace(0.0, 3.5, 701)
    analytic = np.cosh(2.0 * times) / 2.0  # untruncated saddle variance
    rates, durations = [], []
    for n_p in (75, 150, 300):
        d = FockDim(n_p)
        series = variance_otoc(
            iho_prop(n_p), coherent_state(d, CoherentParams(3.0, 3.0)), times
        )
        rates.append(fit_exponential(series, (0.2, 0.6)).rate)
        dev = np.abs(series.values - analytic) / analytic
        idx = np.nonzero(dev > 0.05)[0]
        durations.append(float(times[idx[0]]) if idx.size else float(times[-1]))
    spread = (max(rates) - min(rates)) / min(rates)
    mono = durations[0] < durations[1] < durations[2]
    _report(capsys, "rates agree within 5% across n_p, faithful window grows",
            spread <= 0.05 and mono,
            f"rates = {[f'{r:.4f}' for r in rates]}, "
            f"durations = {[f'{t:.3f}' for t in durations]}")


def test_acceptance_4_false_chaos_at_the_stable_point(capsys, hiho_prop):
    """Quartic-well stable point: fast early OTOC growth with a short
    Ehrenfest time, yet a vanishing classical Lyapunov exponent."""
    n_p = 250
    d = FockDim(n_p)
    times = np.linspace(0.0, 0.3, 121)
    series = variance_otoc(
        hiho_prop(n_p), coherent_state(d, CoherentParams(8.0, 9.0)), times
    )
    window = auto_window(series, 0.08, (0.0, 0.25))
    fit = fit_exponential(series, window)
    tau = ehrenfest_time(fit.rate, n_p)
    lam_f = classical.lyapunov_tangent(
        HIHO, classical.ClassicalState(8.0, 9.0), t_total=1000.0
    )
    ok = (
        abs(fit.rate - 25.52) <= 0.15 * 25.52
        and abs(tau - 0.22) <= 0.15 * 0.22
        and abs(lam_f) <= 1e-2
    )
    _report(capsys, "false chaos: rate 25.52 +/- 15%, tau 0.22 +/- 15%, lambda ~ 0",
            ok, f"rate = {fit.rate:.3f}, tau = {tau:.4f}, lambda = {lam_f:.4f}")


def test_acceptance_5_classical_exponents(capsys):
    """Tangent-space exponents match the linearization at both saddles."""
    lam_o = classical.lyapunov_tangent(
        classical.iho(), classical.ClassicalState(3.0, 3.0), t_total=500.0
    )
    eig = classical.jacobian_eigen(HIHO, classical.ClassicalState(0.0, 0.0))
    jac_dev = max(abs(eig[0] - GAMMA), abs(eig[1] + GAMMA))
    nrm = math.hypot(2.0, 3.0)
    lam_t = classical.lyapunov_tangent(
        HIHO,
        classical.ClassicalState(1e-7 * 2.0 / nrm, -1e-7 * 3.0 / nrm),
        t_total=10.0,
        tangent0=(2.0 / nrm, 3.0 / nrm),
    )
    ok = abs(lam_o - 1.0) <= 1e-3 and jac_dev <= 1e-12 and abs(lam_t - GAMMA) <= 1e-2
    _report(capsys, "classical exponents: lambda 1 +/- 1e-3, Jacobian +/- gamma, "
            "displaced saddle gamma +/- 1e-2",
            ok, f"lambda_saddle = {lam_o:.5f}, jac dev = {jac_dev:.2e}, "
            f"lambda_displaced = {lam_t:.5f}")


def test_acceptance_6_correspondence_time_grows_with_truncation(
    capsys, iho_prop
):
    """Mean-photon curves peel off a 4x-truncation reference later as n_p
    grows, detected at the 2% deviation threshold."""
    times = np.linspace(0.0, 1.8, 361)
    sizes = (100, 200, 300)
    ref_np = 4 * max(sizes)
    ref = photon_series(
        iho_prop(ref_np),
        coherent_state(FockDim(ref_np), CoherentParams(3.0, 3.0)),
        times, tail_guard=True,
    )
    tps = []
    for n_p in sizes:
        run = photon_series(
            iho_prop(n_p),
            coherent_state(FockDim(n_p), CoherentParams(3.0, 3.0)),
            times,
        )
        tps.append(correspondence_time(run, ref, 0.02))
    ok = all(t is not None for t in tps) and tps[0] < tps[1] < tps[2]
    _report(capsys, "correspondence time strictly increasing in n_p",
            ok, f"t_p = {tps} for n_p = {list(sizes)}")


def test_acceptance_7_husimi_fidelity(capsys, iho_prop, hiho_prop):
    """Husimi: exact Gaussian for coherent states, unit mass, and the
    centroid rides the classical trajectory in both systems."""
    d = FockDim(60)
    grid = PhaseGrid(-8.0, 8.0, -8.0, 8.0, 101, 101)
    hg = husimi_q(coherent_state(d, CoherentParams(2.0, -1.0)), grid)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis(), indexing="ij")
    closed = np.exp(-((qq - 2.0) ** 2 + (pp + 1.0) ** 2) / 2.0) / np.pi
    form_dev = float(np.max(np.abs(hg.values - closed)))

    # saddle flow: coherent state at (3, 3) slides out along the diagonal
    n_p = 300
    t = 1.0
    psi = evolve(
        iho_prop(n_p),
        coherent_state(FockDim(n_p), CoherentParams(3.0, 3.0)), t,
    )
    hg_i = husimi_q(psi, PhaseGrid(-20.0, 20.0, -20.0, 20.0, 201, 201))
    norm_i = husimi_norm(hg_i)
    cen_i = husimi_centroid(hg_i)
    target_i = (3.0 * math.exp(t), 3.0 * math.exp(t))
    dev_i = math.hypot(cen_i[0] - target_i[0], cen_i[1] - target_i[1])
    rel_i = dev_i / math.hypot(*target_i)

    # quartic well: follow the numerically integrated orbit from (8, 9)
    n_p, t = 250, 0.14
    psi = evolve(
        hiho_prop(n_p),
        coherent_state(FockDim(n_p), CoherentParams(8.0, 9.0)), t,
    )
    hg_h = husimi_q(psi, PhaseGrid(-15.0, 15.0, -40.0, 40.0, 201, 201))
    norm_h = husimi_norm(hg_h)
    cen_h = husimi_centroid(hg_h)
    traj = classical.integrate(HIHO, classical.ClassicalState(8.0, 9.0), t, 1e-4)
    target_h = (traj.qs[-1], traj.ps[-1])
    rel_h = math.hypot(cen_h[0] - target_h[0], cen_h[1] - target_h[1]) / math.hypot(
        *target_h
    )
    ok = (
        form_dev <= 1e-8
        and abs(norm_i - 1.0) <= 1e-3
        and abs(norm_h - 1.0) <= 1e-3
        and rel_i <= 0.05
        and rel_h <= 0.05
    )
    _report(capsys, "Husimi exact form 1e-8, norm 1 +/- 1e-3, centroid within 5%",
            ok, f"form dev = {form_dev:.2e}, norms = ({norm_i:.5f}, {norm_h:.5f}), "
            f"centroid devs = ({rel_i:.4f}, {rel_h:.4f})")


def test_acceptance_8_wavepacket_fragmentation(capsys, iho_prop):
    """The vacuum packet at the saddle stays singly peaked before half the
    Ehrenfest time and fragments after it."""
    n_p = 300
    prop = iho_prop(n_p)
    psi0 = coherent_state(FockDim(n_p), CoherentParams(0.0, 0.0))
    grid = PhaseGrid(-20.0, 20.0, -20.0, 20.0, 201, 201)
    tau = math.log(n_p) / 2.0
    counts = {}
    for t in (0.3, 1.4, 3.2):
        counts[t] = count_local_maxima(husimi_q(evolve(prop, psi0, t), grid))
    ok = counts[0.3] == 1 and counts[1.4] == 1 and counts[3.2] >= 2
    _report(capsys, "single peak before tau/2, fragmentation after tau",
            ok, f"maxima = {counts}, tau = {tau:.3f}")


def test_acceptance_9_numerical_hygiene(capsys, hiho_prop, tmp_path):
    """Unitarity, energy conservation, integrator order, and bitwise
    reproducibility of the emitted data files."""
    n_p = 250
    d = FockDim(n_p)
    prop = hiho_prop(n_p)
    psi0 = coherent_state(d, CoherentParams(8.0, 9.0))
    norm_dev, energy_dev = 0.0, 0.0
    H = prop.eigenvectors @ np.diag(prop.eigenvalues) @ prop.eigenvectors.conj().T
    e0 = expect(psi0, H)
    for t in (0.3, 0.9, 1.7):
        psi = evolve(prop, psi0, t)
        norm_dev = max(norm_dev, abs(np.linalg.norm(psi) - 1.0))
        energy_dev = max(energy_dev, abs(expect(psi, H) - e0))
    energy_dev /= max(1.0, abs(e0))

    traj = classical.integrate(HIHO, classical.ClassicalState(8.0, 9.0), 5.0, 1e-3)
    drift = max(
        abs(classical.energy(HIHO, q, p) - traj.energy0)
        for q, p in zip(traj.qs[:: len(traj.qs) // 20], traj.ps[:: len(traj.ps) // 20])
    ) / max(1.0, abs(traj.energy0))

    # integrator order: halving dt must shrink the error ~16x
    ref = classical.integrate(HIHO, classical.ClassicalState(8.0, 9.0), 1.0, 1e-5)
    errs = []
    for dt in (4e-3, 2e-3):
        tr = classical.integrate(HIHO, classical.ClassicalState(8.0, 9.0), 1.0, dt)
        errs.append(math.hypot(tr.qs[-1] - ref.qs[-1], tr.ps[-1] - ref.ps[-1]))
    order_factor = errs[0] / errs[1]

    cfg = ExperimentConfig(
        system="iho", n_p=(40,), points=(LabeledPoint("A", 2.0, -2.0),),
        t_end=1.0, n_samples=21,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(serialize(cfg), encoding="utf-8")
    identical = True
    for i in (1, 2):
        assert main(["otoc", "--config", str(cfg_path),
                     "--out", str(tmp_path / f"r{i}")]) == 0
    for name in ("otoc_A_np40.csv", "otoc_summary.json"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        identical = identical and b1 == b2

    ok = (
        norm_dev <= 1e-10
        and energy_dev <= 1e-9
        and drift <= 1e-8
        and 12.0 <= order_factor <= 20.0
        and identical
    )
    _report(capsys, "hygiene: unitary, energy-conserving, 4th order, bit-stable",
            ok, f"norm dev = {norm_dev:.2e}, energy dev = {energy_dev:.2e}, "
            f"drift = {drift:.2e}, order factor = {order_factor:.1f}, "
            f"reruns identical = {identical}")
