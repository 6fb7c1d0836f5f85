"""Command-line front end: figure-reproduction pipelines and serialization.

Subcommands: portrait, photon, otoc, husimi, reproduce-all. Exit codes:
0 success, 1 config error, 2 numerical guard tripped, 3 a derived quantity
could not be extracted or (in reproduce-all) missed its target. An error's
code and stderr prefix come from its category in ``errors``.

Each command makes its own checks, then opens its ``output.Manifest``, which
makes the output directory and reads and checks a manifest already there,
and only then computes: ``main`` makes no directory, so a config error
leaves nothing on disk. ``reproduce-all`` makes its tree with
``output.make_dir`` once its ``--only`` is checked.

A run is its config file: no flag changes what a command computes, and
``--out`` alone names where it writes, ``otoclab_out`` when left out. A bad
command line is a config error too, exit 1, as a bad file is.

Each command builds its truncations once, before its manifest, diagonalizes
them into a dict of its own and frees them when it returns: no propagator
outlives the command that built it, so figures in one ``reproduce-all`` do
not share propagators, and a run holds one figure's eigenvectors at a time.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import resources

import numpy as np

from . import classical
from .analysis import auto_window, correspondence_time, ehrenfest_time, fit_exponential
from .config import (
    MAX_N_P,
    MAX_STEPS,
    ExperimentConfig,
    LabeledPoint,
    config_hash,
    load,
    parse,
)
from .errors import (
    ConfigError,
    GridTooSmall,
    NonFiniteValues,
    NonPositiveValues,
    OtocLabError,
    WindowTooSparse,
)
from .evolution import (
    diagonalize,
    evolve_batch,
    photon_series,
    variance_otoc,
)
from .fock import Banded, CoherentParams, FockDim, coherent_state
from .husimi import (
    count_local_maxima,
    husimi_norm,
    husimi_q,
    husimi_second_moments,
)
from .output import Manifest, make_dir, write_csv, write_grid, write_gnuplot, write_json

# read by the benchmark's spectral gate only: the largest dimension it checks
# against the commutator oracle
ORACLE_MAX_DIM = 80
CORRESPONDENCE_EPS = 0.02
REFERENCE_FACTOR = 4
# A coherent packet's Q is a Gaussian of unit width in q and in p, so a
# window reaching 4 past its centre on every side holds all but 1.3e-4 of it.
PACKET_MARGIN = 4.0
# The largest |lambda t| a run may reach: a float64 phase x is rounded by up
# to eps |x|, so below 1e-6 / eps (4.5e9) every phase keeps 1e-6 rad.
PHASE_LIMIT = 1e-6 / sys.float_info.epsilon


def _hamiltonians(cfg: ExperimentConfig, t_max: float, *n_ps: int) -> dict[int, Banded]:
    """One Hamiltonian per truncation; a ConfigError for any whose
    ``max_row_sum`` (a bound on every |eigenvalue|) times t_max, the largest
    |t| evolved to, is past PHASE_LIMIT or nan: a phase lambda t would lose
    its 1e-6 rad resolution, or a band overflowed."""
    hams = {k: cfg.hamiltonian(FockDim(k)) for k in n_ps}
    for k, H in hams.items():
        if not H.max_row_sum * t_max <= PHASE_LIMIT:
            raise ConfigError(f"n_p={k}: the Hamiltonian's largest absolute row sum "
                              f"{H.max_row_sum:.3g} times t = {t_max:g} is past {PHASE_LIMIT:.3g}"
                              f" = 1e-6 / eps, where a phase lambda t rounds by over 1e-6 rad")
    return hams


def _initial_state(n_p: int, pt: LabeledPoint) -> np.ndarray:
    return coherent_state(FockDim(n_p), CoherentParams(pt.q, pt.p))


def _time_grid(cfg: ExperimentConfig) -> np.ndarray:
    """n_samples times from 0 to t_end; a t_end too small to hold that many
    distinct times is a ConfigError."""
    times = np.linspace(0.0, cfg.t_end, cfg.n_samples)
    if not np.all(np.diff(times) > 0):
        raise ConfigError(f"t_end = {cfg.t_end!r} is too small for n_samples = "
                          f"{cfg.n_samples} strictly increasing times")
    return times


def _quoted(text: str) -> str:
    """``text`` as a gnuplot single-quoted string, inside which '' stands
    for one '."""
    return "'" + text.replace("'", "''") + "'"


def cmd_portrait(cfg: ExperimentConfig, out_dir: str) -> dict:
    """One CSV trajectory (t, q, p) per seed, forward and backward in time."""
    steps = cfg.t_end / cfg.dt
    if not (math.isfinite(steps) and steps <= MAX_STEPS):
        raise ConfigError(f"t_end / dt = {cfg.t_end!r} / {cfg.dt!r} is not a finite step "
                          f"count of at most {MAX_STEPS}")
    model = cfg.model()
    for pt in cfg.points:
        if not classical.has_finite_energy(model, pt.q, pt.p):
            raise ConfigError(f"point {pt.label} ({pt.q}, {pt.p}) has a classical energy "
                              f"past the float range")
    manifest = Manifest(out_dir, config_hash(cfg))
    seeds = [classical.ClassicalState(p.q, p.p) for p in cfg.points]
    trajs = classical.phase_portrait(model, seeds, cfg.t_end, cfg.dt)
    files = []
    for pt, tr in zip(cfg.points, trajs):
        path = os.path.join(out_dir, f"portrait_{pt.label}.csv")
        write_csv(path, ["t", "q", "p"], [tr.times, tr.qs, tr.ps], manifest)
        files.append(os.path.basename(path))
    gp = [
        "# phase portrait",
        'set datafile separator ","',
        "set xlabel 'q'", "set ylabel 'p'",
        "plot " + ", ".join(
            f"{_quoted(f)} skip 1 using 2:3 with lines title {_quoted(p.label)}"
            for f, p in zip(files, cfg.points)
        ),
    ]
    write_gnuplot(os.path.join(out_dir, "portrait.gp"), gp, manifest)
    return {"summary": {"files": files, "energies": [tr.energy0 for tr in trajs]}}


def _series_script(runs: list[dict], ylabel: str, *setup: str) -> list[str]:
    """Gnuplot lines plotting each run's CSV column 2 against t."""
    return [
        'set datafile separator ","', *setup,
        "set xlabel 't'", f"set ylabel '{ylabel}'",
        "plot " + ", ".join(
            f"{_quoted(r['file'])} skip 1 using 1:2 with lines title "
            + _quoted(f"{r['point']} np={r['n_p']}")
            for r in runs
        ),
    ]


def cmd_photon(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Mean-photon series per (point, n_p), a 4x-truncation reference per
    point (tail-guarded), and detected correspondence times t_p."""
    cfg.check_coherent_tails()
    ref_np = REFERENCE_FACTOR * max(cfg.n_p)
    if ref_np > MAX_N_P:
        raise ConfigError(f"the photon reference n_p = {REFERENCE_FACTOR} x {max(cfg.n_p)} "
                          f"= {ref_np} is past the cap of {MAX_N_P}")
    times = _time_grid(cfg)
    hams = _hamiltonians(cfg, cfg.t_end, ref_np, *cfg.n_p)
    manifest = Manifest(out_dir, config_hash(cfg))
    props = {k: diagonalize(H) for k, H in hams.items()}
    runs = []
    for pt in cfg.points:
        ref = photon_series(
            props[ref_np], _initial_state(ref_np, pt), times,
            label=f"{pt.label}/ref", tail_guard=True,
        )
        ref_file = f"photon_{pt.label}_reference_np{ref_np}.csv"
        write_csv(os.path.join(out_dir, ref_file), ["t", "mean_photon"],
                  [ref.times, ref.values], manifest)
        for k in cfg.n_p:
            run = photon_series(
                props[k], _initial_state(k, pt), times,
                label=f"{pt.label}/np{k}",
            )
            fname = f"photon_{pt.label}_np{k}.csv"
            write_csv(os.path.join(out_dir, fname), ["t", "mean_photon"],
                      [run.times, run.values], manifest)
            t_p = correspondence_time(run, ref, CORRESPONDENCE_EPS)
            runs.append({
                "point": pt.label, "n_p": k, "file": fname,
                "t_p": t_p, "reference_file": ref_file,
            })
    summary = {
        "epsilon": CORRESPONDENCE_EPS,
        "reference_n_p": ref_np,
        "runs": runs,
    }
    write_json(os.path.join(out_dir, "photon_summary.json"), summary, manifest)
    write_gnuplot(os.path.join(out_dir, "photon.gp"),
                  _series_script(runs, "mean photon number"), manifest)
    return {"summary": summary}


def cmd_otoc(cfg: ExperimentConfig, out_dir: str) -> dict:
    """OTOC series per (point, n_p), each fitted on the config's ``fit``
    window when it states one."""
    cfg.check_coherent_tails()
    times = _time_grid(cfg)
    hams = _hamiltonians(cfg, cfg.t_end, *cfg.n_p)
    manifest = Manifest(out_dir, config_hash(cfg))
    props = {k: diagonalize(H) for k, H in hams.items()}
    runs = []
    series_map = {}
    for pt in cfg.points:
        for k in cfg.n_p:
            entry = {"point": pt.label, "n_p": k}
            series = variance_otoc(props[k], _initial_state(k, pt), times,
                                   label=f"{pt.label}/np{k}")
            series_map[(pt.label, k)] = series
            fname = f"otoc_{pt.label}_np{k}.csv"
            write_csv(os.path.join(out_dir, fname), ["t", "C"],
                      [series.times, series.values], manifest)
            entry["file"] = fname
            if cfg.fit is not None:
                try:
                    window = (auto_window(series, cfg.fit.min_span, cfg.fit.search)
                              if cfg.fit.auto else cfg.fit.window)
                    fit = fit_exponential(series, window)
                    entry.update(
                        rate=fit.rate,
                        window=list(fit.window),
                        r_squared=fit.r_squared,
                        ehrenfest_time=(
                            ehrenfest_time(fit.rate, k) if fit.rate > 0 else None
                        ),
                    )
                except (NonPositiveValues, NonFiniteValues, WindowTooSparse) as exc:
                    entry["fit_error"] = str(exc)
            runs.append(entry)
    summary = {"runs": runs}
    write_json(os.path.join(out_dir, "otoc_summary.json"), summary, manifest)
    write_gnuplot(os.path.join(out_dir, "otoc.gp"),
                  _series_script(runs, "C(t)", "set logscale y"), manifest)
    return {"summary": summary, "series": series_map}


def _widened(lo: float, hi: float, centre: float) -> tuple[float, float]:
    """The smallest interval holding [lo, hi] and centre +/- PACKET_MARGIN."""
    return min(lo, centre - PACKET_MARGIN), max(hi, centre + PACKET_MARGIN)


def cmd_husimi(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Husimi snapshots per point at the config's one n_p, each point's
    snapshot times evolved in one batch, with norm/centroid/moment
    diagnostics and a generated plot script. The centroid is the one
    ``husimi_second_moments`` returns with its matrix, so each snapshot's
    grid is integrated 7 times: once for the norm, three times for the
    centroid and three for the moments."""
    cfg.check_coherent_tails()
    if cfg.husimi is None:
        raise ConfigError("husimi command requires a husimi section with snapshot times")
    if len(cfg.n_p) != 1:
        raise ConfigError(f"husimi command takes exactly one n_p, got {list(cfg.n_p)}")
    (k,) = cfg.n_p
    times = np.asarray(cfg.husimi.snapshot_times, dtype=float)
    H = _hamiltonians(cfg, float(np.max(np.abs(times))), k)[k]
    manifest = Manifest(out_dir, config_hash(cfg))
    grid = cfg.husimi.grid
    prop = diagonalize(H)
    snapshots = []
    gp = [
        "set view map",
        "set xlabel 'q'", "set ylabel 'p'",
        f"dq = {(grid.q_max - grid.q_min) / (grid.n_q - 1)}",
        f"dp = {(grid.p_max - grid.p_min) / (grid.n_p - 1)}",
    ]
    for pt in cfg.points:
        Psi = evolve_batch(prop, _initial_state(k, pt), times)
        for si, t in enumerate(cfg.husimi.snapshot_times):
            hg = husimi_q(Psi[:, si], grid)
            fname = f"husimi_{pt.label}_s{si}.grid"
            write_grid(os.path.join(out_dir, fname), hg, manifest)
            entry = {
                "point": pt.label, "snapshot": si, "time": t, "file": fname,
                "norm": husimi_norm(hg),
                "n_local_maxima": count_local_maxima(hg),
                "centroid": None,
                "second_moments": None,
            }
            try:
                centroid, mom = husimi_second_moments(hg)
                entry["centroid"] = list(centroid)
                entry["second_moments"] = {
                    "qq": float(mom[0, 0]), "qp": float(mom[0, 1]),
                    "pp": float(mom[1, 1]),
                }
            except GridTooSmall:
                # first snapshot must be captured; later ones may
                # legitimately spread beyond any finite window
                if si == 0:
                    q_lo, q_hi = _widened(grid.q_min, grid.q_max, pt.q)
                    p_lo, p_hi = _widened(grid.p_min, grid.p_max, pt.p)
                    raise GridTooSmall(
                        f"grid misses the initial packet at {pt.label}; try "
                        f"q in [{q_lo:g}, {q_hi:g}], p in [{p_lo:g}, {p_hi:g}]"
                    ) from None
            snapshots.append(entry)
            gp.append(
                f"splot {_quoted(fname)} skip 1 matrix "
                f"using ({grid.q_min}+$2*dq):({grid.p_min}+$1*dp):3 with image "
                f"title {_quoted(f'{pt.label} t={t:g}')}"
            )
            gp.append("pause -1")
    summary = {"n_p": k, "snapshots": snapshots}
    write_json(os.path.join(out_dir, "husimi_summary.json"), summary, manifest)
    write_gnuplot(os.path.join(out_dir, "husimi.gp"), gp, manifest)
    return {"summary": summary}


def _load_bundled(name: str) -> ExperimentConfig:
    ref = resources.files("otoclab.figconfigs").joinpath(f"{name}.json")
    return parse(ref.read_text(encoding="utf-8"))


def _check(name: str, value, ok: bool, target: str) -> dict:
    return {"name": name, "value": value, "target": target, "passed": bool(ok)}


def _faithful_until(run, rtol: float) -> float | None:
    """First time the series departs from the untruncated IHO variance
    cosh(2t)/2 by more than rtol, or is nan, or None if it never does."""
    ref = np.cosh(2 * run.times) / 2
    idx = np.nonzero(~(np.abs(run.values - ref) / ref <= rtol))[0]
    return float(run.times[idx[0]]) if idx.size else None


def _increasing(xs: list) -> bool:
    """Strictly increasing, with no None."""
    return None not in xs and all(a < b for a, b in zip(xs, xs[1:]))


def _checks_classical() -> list[dict]:
    lam_o = classical.lyapunov_tangent(
        classical.iho(), classical.ClassicalState(3.0, 3.0), t_total=500.0
    )
    # fig7's double well and its points: the saddle T and the stable point F
    cfg = _load_bundled("fig7_otoc")
    sys_h, gamma = cfg.model(), cfg.gamma
    pts = {pt.label: classical.ClassicalState(pt.q, pt.p) for pt in cfg.points}
    saddle, stable = pts["T"], pts["F"]
    eig = classical.jacobian_eigen(sys_h, saddle)
    dev = max(abs(eig[0] - gamma), abs(eig[1] + gamma))
    # seed on the stable eigendirection (2, -gamma)/|.|, tangent on the
    # unstable one, so the trajectory stays in the linear regime for the whole run
    nrm = math.hypot(2.0, gamma)
    lam_t = classical.lyapunov_tangent(
        sys_h,
        classical.ClassicalState(saddle.q + 1e-7 * 2.0 / nrm, saddle.p - 1e-7 * gamma / nrm),
        t_total=10.0,
        tangent0=(2.0 / nrm, gamma / nrm),
    )
    lam_f = classical.lyapunov_tangent(sys_h, stable, t_total=1000.0)
    return [
        _check("lambda_O", lam_o, abs(lam_o - 1.0) <= 1e-3, "1.0 +/- 1e-3"),
        _check("jacobian_T", [eig[0].real, eig[1].real], dev <= 1e-12,
               "+/- gamma exactly"),
        _check("lambda_T_displaced", lam_t, abs(lam_t - gamma) <= 1e-2,
               f"{gamma} +/- 1e-2"),
        _check("lambda_F", lam_f, abs(lam_f) <= 1e-2, "0 +/- 1e-2"),
    ]


def _checks_fig2a(res: dict) -> list[dict]:
    """Correspondence time grows with n_p."""
    tps = [r.get("t_p") for r in res["summary"]["runs"]]
    return [_check("fig2a_tp_monotone", tps, _increasing(tps),
                   "strictly increasing in n_p")]


def _checks_fig3(res: dict) -> list[dict]:
    """Rate independent of n_p, exponential window grows with n_p."""
    runs = res["summary"]["runs"]
    rates = [r.get("rate") for r in runs]
    spread_ok = None not in rates and min(rates) > 0 and (
        (max(rates) - min(rates)) / min(rates) <= 0.05
    )
    durations = [_faithful_until(res["series"][(r["point"], r["n_p"])], 0.05)
                 for r in runs]
    return [
        _check("fig3_rate_spread", rates, spread_ok, "mutual agreement within 5%"),
        _check("fig3_exponential_duration", durations, _increasing(durations),
               "strictly increasing in n_p"),
    ]


def _checks_fig4a(res: dict) -> list[dict]:
    """Growth rate twice the saddle exponent, curves coincident before the
    Ehrenfest time ln(n_p) / 2."""
    runs = res["summary"]["runs"]
    checks = [
        _check(f"rate_{r['point']}_np{r['n_p']}", r.get("rate"),
               r.get("rate") is not None and abs(r["rate"] - 2.0) <= 0.1,
               "2.0 +/- 5%")
        for r in runs
    ]
    curves = list(res["series"].values())
    # compare only while every truncation is still faithful: seeds far
    # from the stable manifold spill over the cutoff before tau
    ends = [_faithful_until(c, 0.01) for c in curves]
    t_max = min([math.log(min(r["n_p"] for r in runs)) / 2]
                + [t for t in ends if t is not None])
    mask = curves[0].times < t_max
    max_dev = None
    if mask.any():
        max_dev = 0.0
        for i, a in enumerate(curves):
            for b in curves[i + 1:]:
                va, vb = a.values[mask], b.values[mask]
                max_dev = max(max_dev,
                              float(np.max(np.abs(va - vb) / np.maximum(va, vb))))
    checks.append(_check("fig4a_pointwise_agreement", max_dev,
                         max_dev is not None and max_dev <= 0.02,
                         "<= 2% while all truncations are faithful"))
    return checks


def _checks_fig5(res: dict) -> list[dict]:
    """Single packet before tau/2, fragmentation after tau."""
    summary = res["summary"]
    snaps = [s for s in summary["snapshots"] if s["point"] == "O"]
    tau = math.log(summary["n_p"]) / 2
    early_ok = all(s["n_local_maxima"] == 1 for s in snaps
                   if s["time"] <= 0.5 * tau)
    late = [s["n_local_maxima"] for s in snaps if s["time"] > tau]
    return [_check("fig5_fragmentation",
                   {s["time"]: s["n_local_maxima"] for s in snaps},
                   early_ok and late and all(n >= 2 for n in late),
                   "1 maximum for t <= tau/2, >= 2 for t > tau")]


def _checks_fig7_otoc(res: dict) -> list[dict]:
    """False-chaos growth rate and Ehrenfest time at the stable point F."""
    run = next((r for r in res["summary"]["runs"] if r["point"] == "F"), {})
    rate, tau = run.get("rate"), run.get("ehrenfest_time")
    return [
        _check("rate_F", rate,
               rate is not None and abs(rate - 25.52) <= 0.15 * 25.52,
               "25.52 +/- 15%"),
        _check("tau_F", tau,
               tau is not None and abs(tau - 0.22) <= 0.15 * 0.22,
               "0.22 +/- 15%"),
    ]


def _checks_fig8(res: dict) -> list[dict]:
    """The packet at F stretches along p much faster than along q, from the
    first to the last snapshot."""
    target = "p-moment x4+, q-moment under x2"
    snaps = [s for s in res["summary"]["snapshots"] if s["point"] == "F"]
    moments = [s.get("second_moments") for s in snaps[:1] + snaps[-1:]]
    if len(snaps) < 2 or None in moments:
        return [_check("fig8_vertical_stretch", None, False, target)]
    first, last = moments
    q_ratio = last["qq"] / first["qq"]
    p_ratio = last["pp"] / first["pp"]
    return [_check("fig8_vertical_stretch",
                   {"q_ratio": q_ratio, "p_ratio": p_ratio},
                   p_ratio > 4.0 and q_ratio < 2.0, target)]


# Every bundled figure, in run order: its pipeline and the function that
# checks its result against the paper's targets (None: no check).
FIGURES = {
    "fig1": (cmd_portrait, None),
    "fig2a": (cmd_photon, _checks_fig2a),
    "fig2b": (cmd_photon, None),
    "fig3": (cmd_otoc, _checks_fig3),
    "fig4a": (cmd_otoc, _checks_fig4a),
    "fig4b": (cmd_otoc, None),
    "fig5": (cmd_husimi, _checks_fig5),
    "fig6": (cmd_portrait, None),
    "fig7_photon": (cmd_photon, None),
    "fig7_otoc": (cmd_otoc, _checks_fig7_otoc),
    "fig8": (cmd_husimi, _checks_fig8),
}


def cmd_reproduce_all(out_dir: str, only: str | None = None) -> int:
    """Run every bundled figure pipeline and, unless ``only`` names a single
    figure, compare the derived quantities against their targets. Returns
    the process exit code."""
    if only is not None and only not in FIGURES:
        raise ConfigError(f"unknown figure {only!r}; choose from {list(FIGURES)}")
    wanted = FIGURES if only is None else [only]
    make_dir(out_dir)
    for name in wanted:
        make_dir(os.path.join(out_dir, name))
    checks = _checks_classical() if only is None else []
    report = {"figures": {}, "checks": checks}
    for name in wanted:
        pipeline, figure_checks = FIGURES[name]
        try:
            res = pipeline(_load_bundled(name), os.path.join(out_dir, name))
        except OtocLabError as exc:
            report["figures"][name] = {"status": "error", "error": str(exc)}
            continue
        report["figures"][name] = {"status": "ok", "summary": res["summary"]}
        if only is None and figure_checks is not None:
            checks += figure_checks(res)
    failed = [c["name"] for c in checks if not c["passed"]]
    errored = [n for n, f in report["figures"].items() if f["status"] == "error"]
    report["failed_checks"] = failed
    report["errored_figures"] = errored
    write_json(os.path.join(out_dir, "report.json"), report)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['value']} (target {c['target']})")
    if failed or errored:
        return 3
    return 0


# The commands that run one config file, each ``cmd(cfg, out_dir)``, with
# their help text, in the order ``--help`` lists them.
COMMANDS = {
    "portrait": (cmd_portrait, "classical phase portraits"),
    "photon": (cmd_photon, "mean-photon time series"),
    "otoc": (cmd_otoc, "OTOC time series and fits"),
    "husimi": (cmd_husimi, "Husimi snapshots"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors, exit 1 with
    no traceback; its subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="otoclab",
        description="OTOC growth laboratory for two inverted-oscillator systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default="otoclab_out",
                       help="output directory (default: %(default)s)")

    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="config JSON path")
        add_out(p)
    p_all = sub.add_parser("reproduce-all", help="regenerate all figure data")
    add_out(p_all)
    p_all.add_argument("--only", help="run a single figure pipeline")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "reproduce-all":
            return cmd_reproduce_all(args.out, only=args.only)
        COMMANDS[args.command][0](load(args.config), args.out)
        return 0
    except OtocLabError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
