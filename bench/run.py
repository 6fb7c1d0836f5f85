"""otoclab benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs in a fresh
interpreter (bench/worker.py) writing into a new, empty directory under
.bench_work/, with the BLAS thread count pinned in the child's
environment.  Repetitions continue while the next one is expected to end
within S seconds (at least one of each kind).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from traced repetitions alternated with untraced ones.  Human-readable
lines come first; the last line of standard output is one JSON object.
See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from inputs import BY_HAND, SIZES, WORKLOADS, make_inputs, n_ops, write_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

BLAS_THREADS = 1
SETUP_PROBES = 7
REP_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_frac": "fraction",
}
PER_LAYER = {
    "fock.build_s": "s",
    "fock.build_calls": "count",
    "fock.coherent_s": "s",
    "evolution.eigh_s": "s",
    "evolution.eigh_calls": "count",
    "evolution.eigh_dim3": "D3",
    "evolution.states_per_eigh": "ratio",
    "evolution.evolve_batch_s": "s",
    "evolution.evolve_batch_madds": "madd",
    "evolution.observables_s": "s",
    "evolution.evolve_s": "s",
    "husimi.q_s": "s",
    "husimi.q_work": "madd",
    "husimi.diagnostics_s": "s",
    "classical.lyapunov_s": "s",
    "classical.lyapunov_steps": "count",
    "classical.integrate_s": "s",
    "classical.integrate_steps": "count",
    "analysis.auto_window_s": "s",
    "analysis.auto_window_candidates": "count",
    "analysis.fit_s": "s",
    "output.write_s": "s",
    "output.bytes": "B",
    "output.files": "count",
    "config.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Bench:
    def __init__(self, inputs: dict, work: str):
        self.inputs = inputs
        self.work = work
        self.env = child_env()
        self.count = 0

    def _fresh_dir(self) -> str:
        self.count += 1
        rep_dir = os.path.join(self.work, f"rep{self.count}")
        os.makedirs(rep_dir)
        write_inputs(self.inputs, rep_dir)
        return rep_dir

    def _worker(self, rep_dir: str, *flags: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--rep-dir", rep_dir, *flags],
            env=self.env, cwd=self.work, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )

    def setup_times(self) -> list[float]:
        """Times from spawning an interpreter to its exit after
        ``import otoclab`` and loading the workload's configs."""
        rep_dir = self._fresh_dir()
        times = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            proc = self._worker(rep_dir, "--probe")
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        shutil.rmtree(rep_dir)
        return times

    def repetition(self, traced: bool) -> dict:
        rep_dir = self._fresh_dir()
        proc = self._worker(rep_dir, *(["--trace"] if traced else []))
        if proc.returncode == 2:  # wrong otoclab or BLAS pin: no valid sample
            raise SystemExit(f"bench: worker refused to run:\n{proc.stderr}")
        try:
            with open(os.path.join(rep_dir, "result.json"), encoding="utf-8") as fh:
                res = json.load(fh)
        except FileNotFoundError:
            why = f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"
            res = {"ops": [{"name": "repetition", "ok": False, "why": why}]
                   * n_ops(self.inputs), "wall_s": None, "env": None}
        if traced and os.path.exists(os.path.join(rep_dir, "spans.jsonl")):
            shutil.copy(os.path.join(rep_dir, "spans.jsonl"),
                        os.path.join(os.path.dirname(self.work),
                                     f"spans-{self.inputs['workload']}.jsonl"))
        shutil.rmtree(rep_dir)
        res["traced"] = traced
        res["passed"] = all(op["ok"] for op in res["ops"])
        return res

    def repetitions(self, seconds: float, kinds: list[bool]) -> list[dict]:
        """Cycle through ``kinds`` (traced or not) at least once, then go on
        while the next repetition is expected to end within ``seconds``."""
        start = time.perf_counter()
        reps, durations = [], []
        while True:
            t0 = time.perf_counter()
            reps.append(self.repetition(kinds[len(reps) % len(kinds)]))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(reps) >= len(kinds) and elapsed + statistics.median(durations) > seconds:
                return reps


def _samples(reps: list[dict], traced: bool) -> list[dict]:
    """Repetitions of one kind that passed their gate: a failed one is never
    a timing sample, unless none passed (then the result reads incorrect)."""
    ran = [r for r in reps if r["traced"] == traced and r["wall_s"] is not None]
    return [r for r in ran if r["passed"]] or ran


def _line(name: str, unit: str, samples: list[float]) -> str:
    line = f"{name:34s} {statistics.median(samples):14.6g} {unit}"
    if len(samples) > 1:
        line += f"   (median of {len(samples)}: min {min(samples):.6g}, max {max(samples):.6g})"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="otoclab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + BY_HAND)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "otoclab", "__init__.py")):
        print(f"bench: no otoclab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    inputs = make_inputs(args.workload, args.seed, args.size)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(inputs, work)
    try:
        setup = bench.setup_times() if not args.trace else None
        reps = bench.repetitions(args.seconds, [False, True] if args.trace else [False])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(not op["ok"] for r in reps for op in r["ops"])
    env = next((r["env"] for r in reps if r.get("env")), {})
    print("env: " + json.dumps(dict(env, workload=args.workload, seed=args.seed,
                                    repetitions=len(reps)), sort_keys=True))
    for op in (op for r in reps for op in r["ops"] if not op["ok"]):
        print(f"FAILED {op['name']}: {op['why']}".rstrip())
    plain, traced = _samples(reps, False), _samples(reps, True)
    if not plain or (args.trace and not traced):
        print("bench: no repetition produced a result", file=sys.stderr)
        return 1

    print(_line("fail_frac", "fraction", [failed / attempted])
          + f"   ({failed} of {attempted} operations failed)")
    wall = [r["wall_s"] for r in plain]
    print(_line("cpu_s", "s", [r["cpu_s"] for r in plain]))
    if args.trace:
        traced_wall = [r["wall_s"] for r in traced]
        print(_line("wall_s", "s", wall))
        print(_line("traced wall_s", "s", traced_wall))
        units = PER_LAYER
        samples = {name: [r["trace"].get(name, 0) for r in traced] for name in units}
        samples["trace.overhead_s"] = [statistics.median(traced_wall) - statistics.median(wall)]
    else:
        units = END_TO_END
        samples = {
            "wall_s": wall,
            "setup_s": setup,
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "pass_frac": [(attempted - failed) / attempted],
        }
    metrics = {}
    for name, unit in units.items():
        print(_line(name, unit, samples[name]))
        metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
