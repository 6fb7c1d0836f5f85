"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

It runs every workload once untraced and once traced with tiny inputs,
checks that every metric named in BENCHMARK.json is reported with its
unit, that a seed regenerates identical inputs, and that the tracer sees
the layer calls the CLI makes through its own ``from ... import``
bindings.
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run as bench  # noqa: E402


def _run_bench(cwd, workload, trace, size="tiny"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", inputs.WORKLOADS + inputs.BY_HAND)
def test_seed_regenerates_identical_inputs(workload):
    for size in inputs.SIZES:
        first = inputs.make_inputs(workload, 7, size)
        assert inputs.make_inputs(workload, 7, size) == first
        if workload != "reproduce":  # its inputs are the bundled configs
            assert inputs.make_inputs(workload, 8, size)["configs"] != first["configs"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS + inputs.BY_HAND)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert out["metrics"]["evolution.eigh_calls"]["value"] >= 1


def test_tracer_sees_the_cli_bindings(tmp_path):
    from otoclab import cli, evolution
    from tracer import SELF_METRICS, Tracer

    cfg = {"system": "iho", "n_p": [37], "t_end": 1.0, "n_samples": 21,
           "points": [{"label": "A", "q": 1.0, "p": -1.0}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.diagonalize is evolution.diagonalize
        assert hasattr(cli.diagonalize, "__wrapped__")
        t0 = time.perf_counter()
        code = cli.main(["otoc", "--config", str(path), "--out", str(tmp_path / "out")])
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert code == 0
    assert not hasattr(cli.diagonalize, "__wrapped__")
    assert cli.diagonalize is evolution.diagonalize
    m = tracer.metrics(wall)
    assert m["evolution.eigh_calls"] == 1
    assert m["evolution.eigh_dim3"] == 38 ** 3
    assert m["fock.build_calls"] == 1
    assert m["evolution.evolve_batch_madds"] == 38 ** 2 * 21
    assert m["output.files"] == 3  # series CSV, summary JSON, gnuplot script
    assert m["output.bytes"] == sum(
        os.path.getsize(os.path.join(tmp_path / "out", f))
        for f in os.listdir(tmp_path / "out") if f != "manifest.jsonl")
    # self times and the untraced remainder add up to the traced wall time
    assert sum(m[k] for k in SELF_METRICS) + m["cli.self_s"] == pytest.approx(wall, abs=1e-9)
    assert m["cli.self_s"] >= 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    t0 = time.perf_counter()
    proc = _run_bench(str(tmp_path), "spectral-sweep", 0, size="full")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.perf_counter() - t0 < 180
