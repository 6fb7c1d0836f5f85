"""One repetition of a workload, driven through otoclab's CLI and public
functions, and the correctness gate that checks it against the
repository's own oracles.

``run`` is the timed part: it returns what the gate needs in memory.
``gate`` runs afterwards, untimed, and returns one record per operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from otoclab import analysis, classical, cli, config, evolution, fock, output
from otoclab.errors import OtocLabError
from otoclab.output import read_grid

from inputs import GAMMA, G

IHO_FAITHFUL_SHARE = 40   # faithful while the untruncated <n>(t) <= n_p / 40
SERIES_RTOL = 1e-6        # truncated vs untruncated IHO series in that window
INITIAL_TOL = 1e-9        # HIHO initial variance and photon number
NORM_TOL = 1e-10
ORACLE_TOL = 1e-8         # variance route vs commutator oracle (acceptance 1)
Q_BOUND_RTOL = 1e-12      # Q <= 1/pi up to rounding
HUSIMI_MIN_NORM = 0.99
LYAPUNOV_TOL = 1e-6       # IHO Benettin vs its closed-form finite-time value


def _op(name: str, ok: bool, why: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "why": "" if ok else why}


# --------------------------------------------------------------- reproduce

def _run_reproduce(inputs: dict, rep_dir: str, out_dir: str) -> dict:
    argv = ["reproduce-all", "--out", out_dir]
    if inputs["only"]:
        argv += ["--only", inputs["only"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"code": code, "stdout": buf.getvalue()}


def _gate_reproduce(inputs: dict, state: dict, out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    passes = sum(line.startswith("[PASS]") for line in state["stdout"].splitlines())
    whole_ok = (state["code"] == 0 and passes == inputs["checks"]
                and not report["failed_checks"] and not report["errored_figures"])
    why = (f"exit {state['code']}, {passes} [PASS] lines, failed "
           f"{report['failed_checks']}, errored {report['errored_figures']}")
    ops = [_op(f"figure {name}", fig["status"] == "ok" and whole_ok,
               fig.get("error", why))
           for name, fig in report["figures"].items()]
    ops += [_op(f"check {c['name']}", c["passed"] and whole_ok,
                f"{c['value']} (target {c['target']}); {why}")
            for c in report["checks"]]
    missing = inputs["figures"] + inputs["checks"] - len(ops)
    ops += [_op("missing figure or check", False, why)] * max(0, missing)
    return ops


# ----------------------------------------------------------- spectral-sweep

def _run_spectral(inputs: dict, rep_dir: str, out_dir: str) -> dict:
    """Per (system, truncation): build, eigensolve once, then per centre the
    variance OTOC and mean-photon series, auto window, fit, Ehrenfest time
    and the norm of the final state."""
    cells, oracle = [], None
    summaries = {"iho": [], "hiho": []}
    for name in inputs["configs"]:
        cfg = config.load(os.path.join(rep_dir, "configs", f"{name}.json"))
        n_p = cfg.n_p[0]
        dim = fock.FockDim(n_p)
        times = np.linspace(0.0, cfg.t_end, cfg.n_samples)
        H = (fock.build_iho(dim) if cfg.system == "iho"
             else fock.build_hiho(dim, cfg.hiho_params()))
        prop = evolution.diagonalize(H)
        for pt in cfg.points:
            label = f"{cfg.system}/np{n_p}/{pt.label}"
            cell = {"label": label, "system": cfg.system, "n_p": n_p,
                    "q": pt.q, "p": pt.p, "times": times}
            try:
                psi0 = fock.coherent_state(dim, fock.CoherentParams(pt.q, pt.p))
                var = evolution.variance_otoc(prop, psi0, times, label=label)
                photon = evolution.photon_series(prop, psi0, times, label=label)
                window = analysis.auto_window(var, cfg.fit.min_span, cfg.fit.search)
                fit = analysis.fit_exponential(var, window)
                tau = analysis.ehrenfest_time(fit.rate, n_p)
                final = evolution.evolve(prop, psi0, cfg.t_end)
            except OtocLabError as exc:
                cell["error"] = f"{type(exc).__name__}: {exc}"
                cells.append(cell)
                continue
            cell.update(variance=var.values, photon=photon.values,
                        norm=float(np.linalg.norm(final)))
            cells.append(cell)
            summaries[cfg.system].append({
                "n_p": n_p, "point": [pt.q, pt.p], "rate": fit.rate,
                "window": list(fit.window), "r_squared": fit.r_squared,
                "ehrenfest_time": tau,
            })
            if oracle is None and dim.dim <= cli.ORACLE_MAX_DIM:
                oracle = {"label": label, "prop": prop, "psi0": psi0}
    for system, runs in summaries.items():
        output.write_json(os.path.join(out_dir, f"sweep_{system}.json"), {"runs": runs})
    return {"cells": cells, "oracle": oracle}


def iho_untruncated(q: float, p: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form IHO momentum variance and mean photon number of the
    coherent state at (q, p): X(t) = X ch + P sh, P(t) = P ch + X sh."""
    ch, sh = np.cosh(t), np.sinh(t)
    var = np.cosh(2 * t) / 2
    photon = ((q * ch + p * sh) ** 2 + (p * ch + q * sh) ** 2
              + np.cosh(2 * t) - 1) / 2
    return var, photon


def _gate_cell(cell: dict) -> tuple[bool, str]:
    if "error" in cell:
        return False, cell["error"]
    if abs(cell["norm"] - 1.0) > NORM_TOL:
        return False, f"final norm {cell['norm']!r}"
    var, photon = cell["variance"], cell["photon"]
    if cell["system"] == "iho":
        ref_var, ref_n = iho_untruncated(cell["q"], cell["p"], cell["times"])
        faithful = ref_n <= cell["n_p"] / IHO_FAITHFUL_SHARE
        if np.count_nonzero(faithful) < analysis.MIN_FIT_SAMPLES:
            return False, "faithful window shorter than a fit window"
        dev_v = float(np.max(np.abs(var - ref_var)[faithful] / ref_var[faithful]))
        dev_n = float(np.max(np.abs(photon - ref_n)[faithful]
                             / np.maximum(1.0, ref_n[faithful])))
        ok = dev_v <= SERIES_RTOL and dev_n <= SERIES_RTOL
        return ok, f"deviation from cosh(2t)/2 {dev_v:.3e}, from <n>(t) {dev_n:.3e}"
    n0 = (cell["q"] ** 2 + cell["p"] ** 2) / 2
    ok = (abs(var[0] - 0.5) <= INITIAL_TOL
          and abs(photon[0] - n0) <= INITIAL_TOL * max(1.0, n0))
    return ok, f"initial variance {var[0]!r}, <n> {photon[0]!r} vs {n0!r}"


def _gate_spectral(inputs: dict, state: dict, out_dir: str) -> list[dict]:
    ops = []
    oracle = state["oracle"]
    for cell in state["cells"]:
        ok, why = _gate_cell(cell)
        if ok and oracle is not None and cell["label"] == oracle["label"]:
            prop, psi0 = oracle["prop"], oracle["psi0"]
            _, P = fock.quadratures(prop.dim)
            worst = 0.0
            for i in np.linspace(0, len(cell["times"]) - 1, 5).astype(int):
                c = evolution.commutator_otoc(prop, psi0, P, cell["times"][i])
                v = cell["variance"][i]
                worst = max(worst, abs(c - v) / max(1.0, abs(v)))
            ok, why = worst <= ORACLE_TOL, f"oracle deviation {worst:.3e}"
        ops.append(_op(cell["label"], ok, why))
    if oracle is None:
        ops.append(_op("commutator oracle", False, "no cell with D <= 80"))
    return ops


# -------------------------------------------------------------- phase-space

def _run_phase(inputs: dict, rep_dir: str, out_dir: str) -> dict:
    """Husimi snapshots and portraits through the CLI, then Benettin
    exponents through the public function (the CLI has no command for it)."""
    codes = {}
    for cmd in ("husimi", "portrait"):
        codes[cmd] = cli.main([
            cmd, "--config", os.path.join(rep_dir, "configs", f"{cmd}.json"),
            "--out", os.path.join(out_dir, cmd),
        ])
    t_total = inputs["lyapunov_t"]
    exponents = []
    for orb in inputs["lyapunov"]:
        sys_ = (classical.iho() if orb["system"] == "iho"
                else classical.hiho(GAMMA, G))
        try:
            lam = classical.lyapunov_tangent(
                sys_, classical.ClassicalState(orb["q"], orb["p"]), t_total)
        except OtocLabError as exc:
            lam = f"{type(exc).__name__}: {exc}"
        exponents.append(dict(orb, t_total=t_total, exponent=lam))
    output.write_json(os.path.join(out_dir, "lyapunov.json"), {"runs": exponents})
    return {"codes": codes, "exponents": exponents}


def _gate_husimi(cfg: dict, code: int, out_dir: str) -> list[dict]:
    names = [(p["label"], si) for p in cfg["points"]
             for si in range(len(cfg["husimi"]["snapshot_times"]))]
    if code != 0:
        return [_op(f"husimi {n} s{si}", False, f"husimi exit {code}")
                for n, si in names]
    with open(os.path.join(out_dir, "husimi_summary.json"), encoding="utf-8") as fh:
        snaps = {(s["point"], s["snapshot"]): s for s in json.load(fh)["snapshots"]}
    ops = []
    for label, si in names:
        snap = snaps.get((label, si))
        if snap is None:
            ops.append(_op(f"husimi {label} s{si}", False, "snapshot missing"))
            continue
        _, Q = read_grid(os.path.join(out_dir, snap["file"]))
        q_max = float(np.max(Q))
        ok = (np.all(np.isfinite(Q)) and q_max <= (1 + Q_BOUND_RTOL) / math.pi
              and (si > 0 or snap["norm"] >= HUSIMI_MIN_NORM))
        ops.append(_op(f"husimi {label} s{si}", ok,
                       f"max Q * pi {q_max * math.pi!r}, norm {snap['norm']!r}"))
    return ops


def _gate_portraits(cfg: dict, code: int, out_dir: str) -> list[dict]:
    ops = []
    for pt in cfg["points"]:
        path = os.path.join(out_dir, f"portrait_{pt['label']}.csv")
        ok = code == 0 and os.path.exists(path)
        ops.append(_op(f"portrait {pt['label']}", ok,
                       f"portrait exit {code} (2: energy-drift guard)"))
    return ops


def _gate_phase(inputs: dict, state: dict, out_dir: str) -> list[dict]:
    cfgs, codes = inputs["configs"], state["codes"]
    ops = _gate_husimi(cfgs["husimi"], codes["husimi"], os.path.join(out_dir, "husimi"))
    ops += _gate_portraits(cfgs["portrait"], codes["portrait"],
                           os.path.join(out_dir, "portrait"))
    for run in state["exponents"]:
        lam, T = run["exponent"], run["t_total"]
        if isinstance(lam, str):
            ops.append(_op(f"lyapunov {run['label']}", False, lam))
            continue
        if run["system"] == "iho":
            # from tangent (1, 0) the tangent is (cosh t, sinh t), so the
            # Benettin value is ln(cosh 2T) / 2T, which tends to lambda = 1
            expected = math.log(math.cosh(2 * T)) / (2 * T)
            ok = abs(lam - expected) <= LYAPUNOV_TOL
        else:
            expected, ok = None, math.isfinite(lam)
        ops.append(_op(f"lyapunov {run['label']}", ok,
                       f"exponent {lam!r}, expected {expected!r}"))
    return ops


RUN = {"reproduce": _run_reproduce, "spectral-sweep": _run_spectral,
       "phase-space": _run_phase}
GATE = {"reproduce": _gate_reproduce, "spectral-sweep": _gate_spectral,
        "phase-space": _gate_phase}


def run(inputs: dict, rep_dir: str, out_dir: str) -> dict:
    return RUN[inputs["workload"]](inputs, rep_dir, out_dir)


def gate(inputs: dict, state: dict, out_dir: str) -> list[dict]:
    return GATE[inputs["workload"]](inputs, state, out_dir)
