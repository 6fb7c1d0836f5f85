"""Command-line front end: figure-reproduction pipelines and serialization.

Subcommands: portrait, photon, otoc, husimi, reproduce-all. Exit codes:
0 success, 1 config error, 2 numerical guard tripped, 3 a derived quantity
could not be extracted or (in reproduce-all) missed its target; EXIT_CODES
maps every error type to one of them.
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
    ExperimentConfig,
    LabeledPoint,
    config_hash,
    load,
)
from .errors import (
    ConfigError,
    DimMismatch,
    GridMismatch,
    GridTooSmall,
    InvalidRate,
    NonFiniteValues,
    NonPositiveValues,
    NotHermitian,
    OtocLabError,
    StepTooLarge,
    TailTooHeavy,
    TruncationGuardError,
    WindowTooSparse,
)
from .evolution import (
    Propagator,
    commutator_otoc,
    diagonalize,
    evolve,
    photon_series,
    variance_otoc,
)
from .fock import (
    CoherentParams,
    FockDim,
    coherent_state,
    quadratures,
)
from .husimi import (
    count_local_maxima,
    husimi_diagnostics,
    husimi_q,
)
from .output import Manifest, write_csv, write_grid, write_gnuplot, write_json

ENV_OUT = "OTOCLAB_OUT"
ORACLE_MAX_DIM = 80
CORRESPONDENCE_EPS = 0.02
REFERENCE_FACTOR = 4

FIGURES = [
    "fig1", "fig2a", "fig2b", "fig3", "fig4a", "fig4b",
    "fig5", "fig6", "fig7_photon", "fig7_otoc", "fig8",
]

# Exit code and stderr prefix of every error type; the README's exit-code
# table lists the same mapping.
EXIT_CODES: dict[type[OtocLabError], tuple[int, str]] = {
    ConfigError: (1, "config error"),
    TruncationGuardError: (2, "numerical guard"),
    StepTooLarge: (2, "numerical guard"),
    TailTooHeavy: (2, "numerical guard"),
    GridTooSmall: (2, "numerical guard"),
    NotHermitian: (2, "numerical guard"),
    DimMismatch: (2, "numerical guard"),
    NonPositiveValues: (3, "analysis"),
    NonFiniteValues: (3, "analysis"),
    WindowTooSparse: (3, "analysis"),
    GridMismatch: (3, "analysis"),
    InvalidRate: (3, "analysis"),
}

_prop_cache: dict[tuple, Propagator] = {}


def _propagator(cfg: ExperimentConfig, n_p: int) -> Propagator:
    key = (cfg.model(), n_p)
    if key not in _prop_cache:
        _prop_cache[key] = diagonalize(cfg.hamiltonian(FockDim(n_p)))
    return _prop_cache[key]


def _initial_state(n_p: int, pt: LabeledPoint) -> np.ndarray:
    return coherent_state(FockDim(n_p), CoherentParams(pt.q, pt.p))


def _time_grid(cfg: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_end, cfg.n_samples)


def cmd_portrait(cfg: ExperimentConfig, out_dir: str) -> dict:
    """One CSV trajectory (t, q, p) per seed, forward and backward in time."""
    manifest = Manifest(out_dir, config_hash(cfg))
    seeds = [classical.ClassicalState(p.q, p.p) for p in cfg.points]
    trajs = classical.phase_portrait(cfg.model(), seeds, cfg.t_end, cfg.dt)
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
            f"'{f}' skip 1 using 2:3 with lines title '{p.label}'"
            for f, p in zip(files, cfg.points)
        ),
    ]
    write_gnuplot(os.path.join(out_dir, "portrait.gp"), gp, manifest)
    return {"files": files, "energies": [tr.energy0 for tr in trajs]}


def cmd_photon(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Mean-photon series per (point, n_p), a 4x-truncation reference per
    point (tail-guarded), and detected correspondence times t_p."""
    manifest = Manifest(out_dir, config_hash(cfg))
    times = _time_grid(cfg)
    ref_np = REFERENCE_FACTOR * max(cfg.n_p)
    runs = []
    series_map = {}
    for pt in cfg.points:
        ref_prop = _propagator(cfg, ref_np)
        ref = photon_series(
            ref_prop, _initial_state(ref_np, pt), times,
            label=f"{pt.label}/ref", tail_guard=True,
        )
        ref_file = f"photon_{pt.label}_reference_np{ref_np}.csv"
        write_csv(os.path.join(out_dir, ref_file), ["t", "mean_photon"],
                  [ref.times, ref.values], manifest)
        for k in cfg.n_p:
            run = photon_series(
                _propagator(cfg, k), _initial_state(k, pt), times,
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
            series_map[(pt.label, k)] = run
        series_map[(pt.label, "ref")] = ref
    summary = {
        "epsilon": CORRESPONDENCE_EPS,
        "reference_n_p": ref_np,
        "runs": runs,
    }
    write_json(os.path.join(out_dir, "photon_summary.json"), summary, manifest)
    gp = [
        'set datafile separator ","',
        "set xlabel 't'", "set ylabel 'mean photon number'",
        "plot " + ", ".join(
            f"'{r['file']}' skip 1 using 1:2 with lines title '{r['point']} np={r['n_p']}'"
            for r in runs
        ),
    ]
    write_gnuplot(os.path.join(out_dir, "photon.gp"), gp, manifest)
    return {"summary": summary, "series": series_map}


def _default_fit(cfg: ExperimentConfig, n_p: int, series) -> tuple[float, float]:
    if cfg.fit is not None and not cfg.fit.auto:
        return cfg.fit.window
    if cfg.fit is not None and cfg.fit.auto:
        return auto_window(series, cfg.fit.min_span, cfg.fit.search)
    if cfg.system == "iho":
        # a-priori rate 2*lambda_O = 2 sets the Ehrenfest scale
        t_hi = 0.8 * math.log(n_p) / 2
        if t_hi <= 0.5:
            raise WindowTooSparse(
                f"a-priori fit window [0.5, {t_hi:.4g}] is empty at n_p={n_p}"
            )
        return (0.5, t_hi)
    return auto_window(series, 0.08, (0.0, 0.25))


def cmd_otoc(cfg: ExperimentConfig, out_dir: str, oracle: bool = False) -> dict:
    """OTOC series per (point, n_p) with exponential fits; optional sparse
    commutator-oracle column at small dimensions."""
    manifest = Manifest(out_dir, config_hash(cfg))
    times = _time_grid(cfg)
    runs = []
    series_map = {}
    for pt in cfg.points:
        for k in cfg.n_p:
            entry = {"point": pt.label, "n_p": k}
            prop = _propagator(cfg, k)
            psi0 = _initial_state(k, pt)
            series = variance_otoc(prop, psi0, times, label=f"{pt.label}/np{k}")
            series_map[(pt.label, k)] = series
            cols, hdr = [series.times, series.values], ["t", "C"]
            if oracle:
                if k + 1 <= ORACLE_MAX_DIM:
                    _, P = quadratures(FockDim(k))
                    idx = np.linspace(0, len(times) - 1, 5).astype(int)
                    ora = np.full(len(times), np.nan)
                    for i in idx:
                        ora[i] = commutator_otoc(prop, psi0, P, times[i])
                    cols.append(ora)
                    hdr.append("C_oracle")
                    entry["oracle_max_dev"] = float(
                        np.nanmax(np.abs(ora - series.values))
                    )
                else:
                    entry["oracle"] = f"skipped: D={k + 1} > {ORACLE_MAX_DIM}"
            fname = f"otoc_{pt.label}_np{k}.csv"
            write_csv(os.path.join(out_dir, fname), hdr, cols, manifest)
            entry["file"] = fname
            try:
                window = _default_fit(cfg, k, series)
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
    gp = [
        'set datafile separator ","',
        "set logscale y",
        "set xlabel 't'", "set ylabel 'C(t)'",
        "plot " + ", ".join(
            f"'{r['file']}' skip 1 using 1:2 with lines title '{r['point']} np={r['n_p']}'"
            for r in runs
        ),
    ]
    write_gnuplot(os.path.join(out_dir, "otoc.gp"), gp, manifest)
    return {"summary": summary, "series": series_map}


def cmd_husimi(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Husimi snapshots per point (first n_p), with norm/centroid/moment
    diagnostics and a generated plot script."""
    if cfg.husimi is None:
        raise ConfigError("husimi command requires a husimi section with snapshot times")
    manifest = Manifest(out_dir, config_hash(cfg))
    grid = cfg.husimi.grid
    k = cfg.n_p[0]
    prop = _propagator(cfg, k)
    snapshots = []
    grids = {}
    gp = [
        "set view map",
        "set xlabel 'q'", "set ylabel 'p'",
        f"dq = {(grid.q_max - grid.q_min) / (grid.n_q - 1)}",
        f"dp = {(grid.p_max - grid.p_min) / (grid.n_p - 1)}",
    ]
    for pt in cfg.points:
        psi0 = _initial_state(k, pt)
        for si, t in enumerate(cfg.husimi.snapshot_times):
            psit = evolve(prop, psi0, t)
            hg = husimi_q(psit, grid)
            fname = f"husimi_{pt.label}_s{si}.grid"
            write_grid(os.path.join(out_dir, fname), hg, manifest)
            grids[(pt.label, si)] = hg
            norm, centroid, mom = husimi_diagnostics(hg)
            entry = {
                "point": pt.label, "snapshot": si, "time": t, "file": fname,
                "norm": norm,
                "n_local_maxima": count_local_maxima(hg),
                "centroid": None,
                "second_moments": None,
            }
            if centroid is not None:
                entry["centroid"] = list(centroid)
                entry["second_moments"] = {
                    "qq": mom[0, 0], "qp": mom[0, 1], "pp": mom[1, 1],
                }
            elif si == 0:
                # first snapshot must be captured; later ones may
                # legitimately spread beyond any finite window
                raise GridTooSmall(
                    f"grid misses the initial packet at {pt.label}; try "
                    f"q in [{grid.q_min * 1.5:g}, {grid.q_max * 1.5:g}], "
                    f"p in [{grid.p_min * 1.5:g}, {grid.p_max * 1.5:g}]"
                )
            snapshots.append(entry)
            gp.append(
                f"splot '{fname}' skip 1 matrix "
                f"using ({grid.q_min}+$2*dq):({grid.p_min}+$1*dp):3 with image "
                f"title '{pt.label} t={t:g}'"
            )
            gp.append("pause -1")
    summary = {"n_p": k, "snapshots": snapshots}
    write_json(os.path.join(out_dir, "husimi_summary.json"), summary, manifest)
    write_gnuplot(os.path.join(out_dir, "husimi.gp"), gp, manifest)
    return {"summary": summary, "grids": grids}


def _load_bundled(name: str) -> ExperimentConfig:
    ref = resources.files("otoclab.figconfigs").joinpath(f"{name}.json")
    from .config import parse
    cfg = parse(ref.read_text(encoding="utf-8"))
    cfg.validate()
    return cfg


def _load_figure_config(name: str, config_dir: str | None) -> ExperimentConfig:
    if config_dir is not None:
        path = os.path.join(config_dir, f"{name}.json")
        if not os.path.exists(path):
            raise ConfigError(f"missing config file {path}")
        return load(path)
    return _load_bundled(name)


def _check(checks: list, name: str, value, ok: bool, target: str):
    checks.append({"name": name, "value": value, "target": target,
                   "passed": bool(ok)})


def _classical_checks(checks: list):
    lam_o = classical.lyapunov_tangent(
        classical.iho(), classical.ClassicalState(3.0, 3.0), t_total=500.0
    )
    _check(checks, "lambda_O", lam_o, abs(lam_o - 1.0) <= 1e-3, "1.0 +/- 1e-3")
    sys_h = classical.hiho(3.0, 0.04)
    eig = classical.jacobian_eigen(sys_h, classical.ClassicalState(0.0, 0.0))
    dev = max(abs(eig[0] - 3.0), abs(eig[1] + 3.0))
    _check(checks, "jacobian_T", [eig[0].real, eig[1].real], dev <= 1e-12,
           "+/- gamma exactly")
    # seed on the stable eigendirection (2, -3)/|.|, tangent on the unstable
    # one, so the trajectory stays in the linear regime for the whole run
    nrm = math.hypot(2.0, 3.0)
    lam_t = classical.lyapunov_tangent(
        sys_h,
        classical.ClassicalState(1e-7 * 2.0 / nrm, -1e-7 * 3.0 / nrm),
        t_total=10.0,
        tangent0=(2.0 / nrm, 3.0 / nrm),
    )
    _check(checks, "lambda_T_displaced", lam_t, abs(lam_t - 3.0) <= 1e-2,
           "3.0 +/- 1e-2")
    lam_f = classical.lyapunov_tangent(
        sys_h, classical.ClassicalState(8.0, 9.0), t_total=1000.0
    )
    _check(checks, "lambda_F", lam_f, abs(lam_f) <= 1e-2, "0 +/- 1e-2")


def cmd_reproduce_all(out_dir: str, config_dir: str | None = None,
                      only: str | None = None) -> int:
    """Run every bundled figure pipeline and compare the derived quantities
    against their targets. Returns the process exit code."""
    wanted = FIGURES if only is None else [only]
    if only is not None and only not in FIGURES:
        raise ConfigError(f"unknown figure {only!r}; choose from {FIGURES}")
    report = {"figures": {}, "checks": []}
    checks = report["checks"]
    results = {}
    for name in wanted:
        fig_dir = os.path.join(out_dir, name)
        os.makedirs(fig_dir, exist_ok=True)
        try:
            cfg = _load_figure_config(name, config_dir)
            if cfg.husimi is not None:
                res = cmd_husimi(cfg, fig_dir)
            elif name in ("fig1", "fig6"):
                res = cmd_portrait(cfg, fig_dir)
            elif name in ("fig2a", "fig2b", "fig7_photon"):
                res = cmd_photon(cfg, fig_dir)
            else:
                res = cmd_otoc(cfg, fig_dir)
            results[name] = res
            report["figures"][name] = {"status": "ok",
                                       "summary": res.get("summary", res)}
        except OtocLabError as exc:
            report["figures"][name] = {"status": "error", "error": str(exc)}
    if only is None:
        _classical_checks(checks)
        _figure_checks(checks, results)
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


def _figure_checks(checks: list, results: dict):
    # fig4a: growth rate twice the saddle exponent, curves coincident pre-tau
    if "fig4a" in results:
        runs = results["fig4a"]["summary"]["runs"]
        for r in runs:
            _check(checks, f"rate_{r['point']}_np{r['n_p']}", r.get("rate"),
                   r.get("rate") is not None and abs(r["rate"] - 2.0) <= 0.1,
                   "2.0 +/- 5%")
        series = results["fig4a"]["series"]
        tau = math.log(300) / 2
        curves = [s for s in series.values()]
        # compare only while every truncation is still faithful: seeds far
        # from the stable manifold spill over the cutoff before tau
        t = curves[0].times
        analytic = np.cosh(2 * t) / 2
        t_max = tau
        for c in curves:
            dev = np.abs(c.values - analytic) / analytic
            idx = np.nonzero(dev > 0.01)[0]
            if idx.size:
                t_max = min(t_max, float(t[idx[0]]))
        mask = t < t_max
        max_dev = 0.0
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                a, b = curves[i].values[mask], curves[j].values[mask]
                max_dev = max(max_dev, float(np.max(np.abs(a - b) / np.maximum(a, b))))
        _check(checks, "fig4a_pointwise_agreement", max_dev, max_dev <= 0.02,
               "<= 2% while all truncations are faithful")
    # fig3: rate independent of n_p, exponential window grows with n_p
    if "fig3" in results:
        runs = results["fig3"]["summary"]["runs"]
        rates = [r["rate"] for r in runs]
        spread = (max(rates) - min(rates)) / min(rates)
        _check(checks, "fig3_rate_spread", rates, spread <= 0.05,
               "mutual agreement within 5%")
        series = results["fig3"]["series"]
        durations = []
        for r in runs:
            run = series[(r["point"], r["n_p"])]
            ref = np.cosh(2 * run.times) / 2  # untruncated variance
            dev = np.abs(run.values - ref) / ref
            idx = np.nonzero(dev > 0.05)[0]
            durations.append(float(run.times[idx[0]]) if idx.size else None)
        mono = all(
            a is not None and b is not None and a < b
            for a, b in zip(durations, durations[1:])
        )
        _check(checks, "fig3_exponential_duration", durations, mono,
               "strictly increasing in n_p")
    # fig2a: correspondence time grows with n_p
    if "fig2a" in results:
        runs = results["fig2a"]["summary"]["runs"]
        tps = [r["t_p"] for r in runs]
        mono = all(
            a is not None and b is not None and a < b for a, b in zip(tps, tps[1:])
        )
        _check(checks, "fig2a_tp_monotone", tps, mono, "strictly increasing in n_p")
    # fig7: false-chaos growth rate and Ehrenfest time at the stable point F
    if "fig7_otoc" in results:
        for r in results["fig7_otoc"]["summary"]["runs"]:
            if r["point"] != "F":
                continue
            rate, tau = r.get("rate"), r.get("ehrenfest_time")
            _check(checks, "rate_F", rate,
                   rate is not None and abs(rate - 25.52) <= 0.15 * 25.52,
                   "25.52 +/- 15%")
            _check(checks, "tau_F", tau,
                   tau is not None and abs(tau - 0.22) <= 0.15 * 0.22,
                   "0.22 +/- 15%")
    # fig5: single packet before tau/2, fragmentation after tau
    if "fig5" in results:
        snaps = [s for s in results["fig5"]["summary"]["snapshots"]
                 if s["point"] == "O"]
        tau = math.log(300) / 2
        early_ok = all(s["n_local_maxima"] == 1 for s in snaps
                       if s["time"] <= 0.5 * tau)
        late = [s["n_local_maxima"] for s in snaps if s["time"] > tau]
        _check(checks, "fig5_fragmentation",
               {s["time"]: s["n_local_maxima"] for s in snaps},
               early_ok and late and all(n >= 2 for n in late),
               "1 maximum for t <= tau/2, >= 2 for t > tau")
    # fig8: packet at F stretches along p much faster than along q
    if "fig8" in results:
        snaps = [s for s in results["fig8"]["summary"]["snapshots"]
                 if s["point"] == "F" and s["second_moments"] is not None]
        if len(snaps) >= 2:
            q_ratio = snaps[-1]["second_moments"]["qq"] / snaps[0]["second_moments"]["qq"]
            p_ratio = snaps[-1]["second_moments"]["pp"] / snaps[0]["second_moments"]["pp"]
            _check(checks, "fig8_vertical_stretch",
                   {"q_ratio": q_ratio, "p_ratio": p_ratio},
                   p_ratio > 4.0 and q_ratio < 2.0,
                   "p-moment x4+, q-moment under x2")


def _parse_point(text: str) -> LabeledPoint:
    try:
        q, p = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--point expects 'q,p', got {text!r}") from exc
    return LabeledPoint(label="pt", q=q, p=p)


def _resolve_out(args, cfg: ExperimentConfig | None) -> str:
    if args.out:
        return args.out
    if cfg is not None and cfg.output_dir:
        return cfg.output_dir
    return os.environ.get(ENV_OUT, "otoclab_out")


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    from dataclasses import replace

    if getattr(args, "np_", None) is not None:
        cfg = replace(cfg, n_p=(args.np_,))
    if getattr(args, "point", None) is not None:
        cfg = replace(cfg, points=(_parse_point(args.point),))
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="otoclab",
        description="OTOC growth laboratory for two inverted-oscillator systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, need_config=True):
        p.add_argument("--config", required=need_config, help="config JSON path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--np", dest="np_", type=int, help="override photon number")
        p.add_argument("--point", help="override initial point as 'q,p'")

    add_common(sub.add_parser("portrait", help="classical phase portraits"))
    add_common(sub.add_parser("photon", help="mean-photon time series"))
    p_otoc = sub.add_parser("otoc", help="OTOC time series and fits")
    add_common(p_otoc)
    p_otoc.add_argument("--oracle", action="store_true",
                        help="add sparse commutator-oracle samples (D <= 80)")
    add_common(sub.add_parser("husimi", help="Husimi snapshots"))
    p_all = sub.add_parser("reproduce-all", help="regenerate all figure data")
    p_all.add_argument("--config", help="directory of per-figure config files")
    p_all.add_argument("--out", help="output directory")
    p_all.add_argument("--only", help="run a single figure pipeline")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-all":
            out = args.out or os.environ.get(ENV_OUT, "otoclab_out")
            os.makedirs(out, exist_ok=True)
            return cmd_reproduce_all(out, config_dir=args.config, only=args.only)
        cfg = _apply_overrides(load(args.config), args)
        out = _resolve_out(args, cfg)
        os.makedirs(out, exist_ok=True)
        if args.command == "portrait":
            cmd_portrait(cfg, out)
        elif args.command == "photon":
            cmd_photon(cfg, out)
        elif args.command == "otoc":
            cmd_otoc(cfg, out, oracle=args.oracle)
        elif args.command == "husimi":
            cmd_husimi(cfg, out)
        return 0
    except OtocLabError as exc:
        code, kind = EXIT_CODES[type(exc)]
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
