"""One benchmark repetition in a fresh interpreter.

    python3 bench/worker.py --rep-dir DIR [--trace] [--probe]

DIR holds inputs.json and configs/ written by run.py.  The worker checks
that otoclab comes from this checkout's src/ and that the BLAS thread pin
took effect, runs the workload into the empty directory DIR/out, gates it,
and writes DIR/result.json (and DIR/spans.jsonl when traced).

With --probe it stops after the set-up a user pays on every run --
interpreter start, ``import otoclab`` and loading the workload's configs --
so run.py can time that process from spawn to exit.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _proc_status(field: str) -> int | None:
    """An integer field of /proc/self/status (Linux only)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    """Versions, core count and the BLAS thread count actually running.

    OpenBLAS starts its pool on the first BLAS call, so after a product the
    process has exactly as many threads as the pin allows."""
    import numpy as np
    import scipy

    a = np.ones((256, 256))
    a @ a
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "threads_running": _proc_status("Threads"),
    }


def config_paths(inputs: dict, rep_dir: str) -> list[str]:
    if inputs["workload"] == "reproduce":
        return sorted(glob.glob(os.path.join(ROOT, "src", "otoclab", "figconfigs", "*.json")))
    return [os.path.join(rep_dir, "configs", f"{name}.json") for name in inputs["configs"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rep-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    import otoclab
    from otoclab import cli, config  # noqa: F401  (cli imports every layer)

    expected = os.path.join(ROOT, "src", "otoclab")
    if os.path.dirname(os.path.abspath(otoclab.__file__)) != expected:
        print(f"worker: otoclab imported from {otoclab.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    with open(os.path.join(args.rep_dir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    if args.probe:
        for path in config_paths(inputs, args.rep_dir):
            config.load(path)
        return 0

    env = environment()
    if env["threads_running"] not in (None, env["blas_threads_pinned"]):
        print(f"worker: {env['threads_running']} threads running, BLAS pinned "
              f"to {env['blas_threads_pinned']}", file=sys.stderr)
        return 2

    import inputs as inputs_mod
    import workloads
    from tracer import Tracer

    out_dir = os.path.join(args.rep_dir, "out")
    os.makedirs(out_dir)  # fails unless the output directory is new
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    error, state = None, None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        state = workloads.run(inputs, args.rep_dir, out_dir)
    except Exception:  # the boundary: any crash fails every operation
        error = traceback.format_exc()
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
    # VmHWM is this process's own peak; ru_maxrss can carry the parent's
    # peak across exec
    peak_kib = _proc_status("VmHWM") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if error is None:
        try:
            ops = workloads.gate(inputs, state, out_dir)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        ops = [{"name": "repetition", "ok": False, "why": error}] * inputs_mod.n_ops(inputs)
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kib / 1024,
        "ops": ops,
        "env": env,
        "trace": tracer.metrics(wall_s) if tracer is not None else None,
    }
    if tracer is not None:
        tracer.write(os.path.join(args.rep_dir, "spans.jsonl"))
    with open(os.path.join(args.rep_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
