"""Workload inputs drawn from a seed.

Pure standard library, so run.py never imports numpy or otoclab itself:
it writes the inputs (and otoclab config files) into a fresh directory
and hands only those to the worker process.
"""
from __future__ import annotations

import json
import math
import os
import random

# the workloads BENCHMARK.json lists, and one more to run by hand:
# reproduce-all takes about 20 s, so a run fits too few repetitions of it
# to keep its time steady on a shared host (see README.md)
WORKLOADS = ("spectral-sweep", "phase-space")
BY_HAND = ("reproduce",)

GAMMA, G = 3.0, 0.04
# the double-well minima sit at q^2 = gamma^2 / (8 g); the separatrix
# (the energy of the saddle at the origin) is g q_m^4
Q_MIN_SQ = GAMMA**2 / (8 * G)
E_SEPARATRIX = G * Q_MIN_SQ**2

N_FIGURES = 11
N_CHECKS = 16

SIZES = {
    "full": {
        "ladder": (75, 150, 300, 600, 1200),
        "centres": 3,
        "n_samples": 601,
        "husimi_np": 600,
        "husimi_points": 3,
        "husimi_grid": 161,
        "orbits": 4,
        "portrait_t": 5.0,
        "lyapunov_t": 100.0,
    },
    "tiny": {
        "ladder": (75, 150),
        "centres": 2,
        "n_samples": 101,
        "husimi_np": 60,
        "husimi_points": 1,
        "husimi_grid": 161,
        "orbits": 2,
        "portrait_t": 0.2,
        "lyapunov_t": 2.0,
    },
}


def _disk_point(rng: random.Random, radius: float) -> tuple[float, float]:
    r = radius * math.sqrt(rng.random())
    a = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(a), r * math.sin(a)


def _orbit_start(rng: random.Random, energy: float) -> tuple[float, float]:
    """A point of HIHO energy ``energy``, at a drawn phase of the orbit:
    p^2 takes a drawn share of the energy, q solves V(q) = energy - p^2 on
    the outer branch, on a drawn side of the barrier."""
    p = math.copysign(math.sqrt(rng.random() * energy), rng.random() - 0.5)
    q = math.sqrt(Q_MIN_SQ + math.sqrt((energy - p * p) / G))
    return math.copysign(q, rng.random() - 0.5), p


def _reproduce(tiny: bool) -> dict:
    # inputs are the bundled figure configs, fixed by the paper, so the seed
    # is unused.  The tiny size runs one figure, for which reproduce-all
    # runs no checks.
    if tiny:
        return {"only": "fig7_otoc", "figures": 1, "checks": 0}
    return {"only": None, "figures": N_FIGURES, "checks": N_CHECKS}


def _spectral(seed: int, size: dict) -> dict:
    """One config per (system, truncation) with seed-drawn centres.

    IHO centres keep <n>(0) <= n_p / 80, so every cell has a faithful
    window for the untruncated oracle; HIHO centres lie near the saddle,
    where the variance grows and the fit rate is positive."""
    rng = random.Random(seed)
    configs = {}
    for system in ("iho", "hiho"):
        for n_p in size["ladder"]:
            radius = math.sqrt(n_p / 40) if system == "iho" else 1.5
            points = []
            for c in range(size["centres"]):
                q, p = _disk_point(rng, radius)
                points.append({"label": f"c{c}", "q": q, "p": p})
            cfg = {
                "system": system,
                "n_p": [n_p],
                "points": points,
                "n_samples": size["n_samples"],
            }
            if system == "iho":
                cfg.update(t_end=4.0, fit={
                    "window": "auto", "min_span": 0.1,
                    "search": [0.0, math.log(n_p) / 4]})
            else:
                cfg.update(t_end=2.0, gamma=GAMMA, g=G, fit={
                    "window": "auto", "min_span": 0.08,
                    "search": [0.0, math.log(n_p) / 12]})
            configs[f"{system}_np{n_p}"] = cfg
    return {"configs": configs}


def _phase_space(seed: int, size: dict) -> dict:
    """HIHO Husimi snapshots on a +/-40 grid (corner |z|^2/2 = 800, past
    the float64 exponent range), regular HIHO orbits inside and outside
    the separatrix for portraits and Benettin exponents, and one IHO
    Benettin run with a closed-form finite-time value."""
    rng = random.Random(seed)
    n = size["husimi_grid"]
    # centres span the wells and F = (8, 9), scaled down with the
    # truncation so the coherent-tail precondition holds
    scale = min(1.0, math.sqrt(size["husimi_np"] / 600))
    centres = []
    for c in range(size["husimi_points"]):
        q = scale * rng.uniform(-8.0, 8.0)
        p = scale * rng.uniform(-9.0, 9.0)
        centres.append({"label": f"h{c}", "q": q, "p": p})
    husimi = {
        "system": "hiho", "gamma": GAMMA, "g": G,
        "n_p": [size["husimi_np"]],
        "points": centres,
        "t_end": 1.2, "n_samples": 2,
        "husimi": {
            "q_min": -40.0, "q_max": 40.0, "p_min": -40.0, "p_max": 40.0,
            "n_q": n, "n_p": n,
            "snapshot_times": [0.0, rng.uniform(0.1, 0.4),
                               rng.uniform(0.6, 1.2)],
        },
    }
    orbits = []
    for k in range(size["orbits"]):
        inside = k % 2 == 0
        energy = (rng.uniform(0.1, 0.9) * E_SEPARATRIX if inside
                  else rng.uniform(1.15, 3.0) * E_SEPARATRIX)
        q, p = _orbit_start(rng, energy)
        orbits.append({"label": f"{'in' if inside else 'out'}{k}",
                       "q": q, "p": p})
    portrait = {
        "system": "hiho", "gamma": GAMMA, "g": G,
        # portraits ignore n_p; config validation still checks the tail
        "n_p": [600],
        "points": orbits,
        "t_end": size["portrait_t"], "n_samples": 2, "dt": 1e-3,
    }
    iho_start = _disk_point(rng, 3.0)
    lyapunov = [dict(o, system="hiho") for o in orbits]
    lyapunov.append({"label": "iho", "system": "iho",
                     "q": iho_start[0], "p": iho_start[1]})
    return {
        "configs": {"husimi": husimi, "portrait": portrait},
        "lyapunov": lyapunov,
        "lyapunov_t": size["lyapunov_t"],
    }


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Everything a workload needs, as plain JSON data."""
    spec = SIZES[size]
    if workload == "reproduce":
        body = _reproduce(size == "tiny")
    elif workload == "spectral-sweep":
        body = _spectral(seed, spec)
    elif workload == "phase-space":
        body = _phase_space(seed, spec)
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS + BY_HAND}")
    return dict(body, workload=workload, seed=seed, size=size)


def n_ops(inputs: dict) -> int:
    """Operations one repetition attempts: a figure or a check in
    reproduce, a cell elsewhere."""
    w = inputs["workload"]
    if w == "reproduce":
        return inputs["figures"] + inputs["checks"]
    cfgs = inputs["configs"]
    if w == "spectral-sweep":
        return sum(len(c["points"]) for c in cfgs.values())
    hus = cfgs["husimi"]
    return (len(hus["points"]) * len(hus["husimi"]["snapshot_times"])
            + len(cfgs["portrait"]["points"]) + len(inputs["lyapunov"]))


def write_inputs(inputs: dict, rep_dir: str) -> list[str]:
    """Write inputs.json and one otoclab config file per entry of
    ``configs``; return the config paths."""
    os.makedirs(os.path.join(rep_dir, "configs"), exist_ok=True)
    with open(os.path.join(rep_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh, sort_keys=True)
    paths = []
    for name, cfg in inputs.get("configs", {}).items():
        path = os.path.join(rep_dir, "configs", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, sort_keys=True, indent=2)
        paths.append(path)
    return paths
