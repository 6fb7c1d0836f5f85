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
from dataclasses import replace
from importlib import resources

import numpy as np

from . import classical
from .analysis import auto_window, correspondence_time, ehrenfest_time, fit_exponential
from .config import AUTO_MIN_SPAN, ExperimentConfig, LabeledPoint, config_hash, load, parse
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
    evolve_batch,
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
    husimi_centroid,
    husimi_norm,
    husimi_q,
    husimi_second_moments,
)
from .output import Manifest, write_csv, write_grid, write_gnuplot, write_json

ENV_OUT = "OTOCLAB_OUT"
ORACLE_MAX_DIM = 80
CORRESPONDENCE_EPS = 0.02
REFERENCE_FACTOR = 4
# A coherent packet's Q is a Gaussian of unit width in q and in p, so a
# window reaching 4 past its centre on every side holds all but 1.3e-4 of it.
PACKET_MARGIN = 4.0

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
    return {"summary": {"files": files, "energies": [tr.energy0 for tr in trajs]}}


def cmd_photon(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Mean-photon series per (point, n_p), a 4x-truncation reference per
    point (tail-guarded), and detected correspondence times t_p."""
    manifest = Manifest(out_dir, config_hash(cfg))
    times = _time_grid(cfg)
    ref_np = REFERENCE_FACTOR * max(cfg.n_p)
    runs = []
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
    return {"summary": summary}


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
    return auto_window(series, AUTO_MIN_SPAN, (0.0, 0.25))


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


def _widened(lo: float, hi: float, centre: float) -> tuple[float, float]:
    """The smallest interval holding [lo, hi] and centre +/- PACKET_MARGIN."""
    return min(lo, centre - PACKET_MARGIN), max(hi, centre + PACKET_MARGIN)


def cmd_husimi(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Husimi snapshots per point (first n_p), each point's snapshot times
    evolved in one batch, with norm/centroid/moment diagnostics and a
    generated plot script."""
    if cfg.husimi is None:
        raise ConfigError("husimi command requires a husimi section with snapshot times")
    manifest = Manifest(out_dir, config_hash(cfg))
    grid = cfg.husimi.grid
    k = cfg.n_p[0]
    prop = _propagator(cfg, k)
    times = np.asarray(cfg.husimi.snapshot_times, dtype=float)
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
                entry["centroid"] = list(husimi_centroid(hg))
                mom = husimi_second_moments(hg)
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
                f"splot '{fname}' skip 1 matrix "
                f"using ({grid.q_min}+$2*dq):({grid.p_min}+$1*dp):3 with image "
                f"title '{pt.label} t={t:g}'"
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
    cosh(2t)/2 by more than rtol, or None if it never does."""
    ref = np.cosh(2 * run.times) / 2
    idx = np.nonzero(np.abs(run.values - ref) / ref > rtol)[0]
    return float(run.times[idx[0]]) if idx.size else None


def _increasing(xs: list) -> bool:
    """Strictly increasing, with no None."""
    return None not in xs and all(a < b for a, b in zip(xs, xs[1:]))


def _checks_classical() -> list[dict]:
    lam_o = classical.lyapunov_tangent(
        classical.iho(), classical.ClassicalState(3.0, 3.0), t_total=500.0
    )
    sys_h = classical.hiho(3.0, 0.04)
    eig = classical.jacobian_eigen(sys_h, classical.ClassicalState(0.0, 0.0))
    dev = max(abs(eig[0] - 3.0), abs(eig[1] + 3.0))
    # seed on the stable eigendirection (2, -3)/|.|, tangent on the unstable
    # one, so the trajectory stays in the linear regime for the whole run
    nrm = math.hypot(2.0, 3.0)
    lam_t = classical.lyapunov_tangent(
        sys_h,
        classical.ClassicalState(1e-7 * 2.0 / nrm, -1e-7 * 3.0 / nrm),
        t_total=10.0,
        tangent0=(2.0 / nrm, 3.0 / nrm),
    )
    lam_f = classical.lyapunov_tangent(
        sys_h, classical.ClassicalState(8.0, 9.0), t_total=1000.0
    )
    return [
        _check("lambda_O", lam_o, abs(lam_o - 1.0) <= 1e-3, "1.0 +/- 1e-3"),
        _check("jacobian_T", [eig[0].real, eig[1].real], dev <= 1e-12,
               "+/- gamma exactly"),
        _check("lambda_T_displaced", lam_t, abs(lam_t - 3.0) <= 1e-2,
               "3.0 +/- 1e-2"),
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
    checks = _checks_classical() if only is None else []
    report = {"figures": {}, "checks": checks}
    for name in wanted:
        pipeline, figure_checks = FIGURES[name]
        fig_dir = os.path.join(out_dir, name)
        os.makedirs(fig_dir, exist_ok=True)
        try:
            res = pipeline(_load_bundled(name), fig_dir)
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
    """``cfg`` with ``--np`` and ``--point`` applied in one step, so that
    only the config they state together is built and validated."""
    changes = {}
    if args.np_ is not None:
        changes["n_p"] = (args.np_,)
    if args.point is not None:
        changes["points"] = (_parse_point(args.point),)
    return replace(cfg, **changes) if changes else cfg


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
    p_all.add_argument("--out", help="output directory")
    p_all.add_argument("--only", help="run a single figure pipeline")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-all":
            out = _resolve_out(args, None)
            os.makedirs(out, exist_ok=True)
            return cmd_reproduce_all(out, only=args.only)
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
