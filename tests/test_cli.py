import json
import math
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from otoclab import cli
from otoclab.cli import main
from otoclab.config import (
    ExperimentConfig,
    FitSpec,
    HusimiSpec,
    LabeledPoint,
    config_hash,
    parse,
    serialize,
)
from otoclab.errors import ConfigError, OtocLabError
from otoclab.husimi import PhaseGrid
from otoclab.output import read_grid


def small_cfg(**kw):
    base = dict(
        system="iho",
        n_p=(40,),
        points=(LabeledPoint("A", 2.0, -2.0),),
        t_end=1.0,
        n_samples=21,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(serialize(cfg), encoding="utf-8")
    return str(path)


def test_config_round_trip():
    cfg = small_cfg(
        fit=FitSpec(window=(0.2, 0.8)),
        husimi=HusimiSpec(
            grid=PhaseGrid(-6.0, 6.0, -6.0, 6.0, 21, 21),
            snapshot_times=(0.0, 0.5),
        ),
        output_dir="somewhere",
    )
    assert parse(serialize(cfg)) == cfg


def test_config_round_trip_auto_fit():
    cfg = small_cfg(fit=FitSpec(auto=True, min_span=0.1, search=(0.0, 0.5)))
    assert parse(serialize(cfg)) == cfg


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_cfg(n_p=(0,)).validate()
    with pytest.raises(ConfigError):
        small_cfg(points=()).validate()
    with pytest.raises(ConfigError):
        small_cfg(system="hiho").validate()  # missing gamma/g
    with pytest.raises(ConfigError):
        # point too far out for the truncation
        small_cfg(points=(LabeledPoint("X", 9.0, 9.0),)).validate()
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf, 10**400, "1", True, None):
        with pytest.raises(ConfigError, match="t_end must be positive and finite"):
            small_cfg(t_end=bad).validate()
        with pytest.raises(ConfigError, match="dt must be positive and finite"):
            small_cfg(dt=bad).validate()
    for fit in (
        FitSpec(window=(0.8, 0.2)),
        FitSpec(window=(0.5, 0.5)),
        FitSpec(window=(0.1, 0.2, 0.3)),
        FitSpec(window=(0.1,)),
        FitSpec(auto=True, min_span=0.0),
        FitSpec(auto=True, min_span=-0.1),
        FitSpec(auto=True, search=(0.5, 0.1)),
        FitSpec(auto=True, search=(0.2, 0.2)),
        FitSpec(window=(False, True)),  # JSON booleans are not times
        FitSpec(auto=True, min_span=True),
        FitSpec(auto=True, search=(False, True)),
    ):
        with pytest.raises(ConfigError):
            small_cfg(fit=fit).validate()
    grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 21, 21)
    for bad in (math.nan, math.inf, -math.inf, -10**400, "3", True, None):
        gamma_error = "hiho requires gamma and g" if bad is None else "must be a finite number"
        with pytest.raises(ConfigError, match=gamma_error):
            small_cfg(system="hiho", gamma=bad, g=0.04).validate()
        with pytest.raises(ConfigError, match=gamma_error):
            small_cfg(system="hiho", gamma=3.0, g=bad).validate()
        with pytest.raises(ConfigError, match="needs finite numbers q and p"):
            small_cfg(points=(LabeledPoint("A", bad, 0.0),)).validate()
        with pytest.raises(ConfigError, match="needs finite numbers q and p"):
            small_cfg(points=(LabeledPoint("A", 0.0, bad),)).validate()
        with pytest.raises(ConfigError, match="snapshot times must be finite"):
            small_cfg(husimi=HusimiSpec(grid, (0.0, bad))).validate()
    for bad in (40.5, 40.0, "40", True):
        with pytest.raises(ConfigError, match="n_p must be a non-empty list of integers >= 1"):
            small_cfg(n_p=(bad,)).validate()
        with pytest.raises(ConfigError, match="n_samples must be an integer >= 2"):
            small_cfg(n_samples=bad).validate()
    for n_q, n_p in ((21.5, 21), (21, 21.0)):  # PhaseGrid rejects str and bool itself
        with pytest.raises(ConfigError, match="husimi n_q and n_p must be integers"):
            small_cfg(husimi=HusimiSpec(PhaseGrid(-6.0, 6.0, -6.0, 6.0, n_q, n_p),
                                        (0.0,))).validate()
    with pytest.raises(ConfigError, match="grid bounds must be finite"):
        small_cfg(husimi=HusimiSpec(PhaseGrid(-math.inf, 6.0, -6.0, 6.0, 21, 21),
                                    (0.0,))).validate()
    # labels name the output files
    for labels, message in (
        (("A", "A"), "must be distinct"),
        (("A", "B", "A"), "must be distinct"),
        (("",), "non-empty string without a path separator"),
        (("a/b",), "non-empty string without a path separator"),
        (("a" + os.sep + "b",), "non-empty string without a path separator"),
        ((7,), "non-empty string without a path separator"),
    ):
        points = tuple(LabeledPoint(label, 0.5 * i, 0.0) for i, label in enumerate(labels))
        with pytest.raises(ConfigError, match=message):
            small_cfg(points=points).validate()


def test_config_hash_stable():
    assert config_hash(small_cfg()) == config_hash(small_cfg())
    assert config_hash(small_cfg()) != config_hash(small_cfg(t_end=2.0))


def test_portrait_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        small_cfg(points=(LabeledPoint("A", 2.0, -2.0), LabeledPoint("B", 1.5, 1.5))),
    )
    out = str(tmp_path / "out")
    assert main(["portrait", "--config", cfg, "--out", out]) == 0
    data = np.loadtxt(os.path.join(out, "portrait_A.csv"), delimiter=",", skiprows=1)
    # contracting stable-manifold seed heads toward the saddle
    assert abs(data[-1, 1]) < 2.0 * np.exp(-0.9)
    assert os.path.exists(os.path.join(out, "portrait.gp"))
    assert os.path.exists(os.path.join(out, "manifest.jsonl"))


def test_photon_command_summary(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg(n_p=(40, 80)))
    out = str(tmp_path / "out")
    assert main(["photon", "--config", cfg, "--out", out]) == 0
    summary = json.loads((tmp_path / "out" / "photon_summary.json").read_text())
    assert summary["reference_n_p"] == 320
    assert {r["n_p"] for r in summary["runs"]} == {40, 80}
    for r in summary["runs"]:
        assert os.path.exists(os.path.join(out, r["file"]))


def test_otoc_command_oracle_column(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    out = str(tmp_path / "out")
    assert main(["otoc", "--config", cfg, "--out", out, "--oracle"]) == 0
    summary = json.loads((tmp_path / "out" / "otoc_summary.json").read_text())
    run = summary["runs"][0]
    assert run["oracle_max_dev"] <= 1e-8
    header = open(os.path.join(out, run["file"])).readline().strip()
    assert header == "t,C,C_oracle"


def test_otoc_command_oracle_skipped_large_dim(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg(n_p=(120,)))
    out = str(tmp_path / "out")
    assert main(["otoc", "--config", cfg, "--out", out, "--oracle"]) == 0
    summary = json.loads((tmp_path / "out" / "otoc_summary.json").read_text())
    assert "skipped" in summary["runs"][0]["oracle"]


def test_husimi_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        small_cfg(
            points=(LabeledPoint("V", 0.0, 0.0),),
            husimi=HusimiSpec(
                grid=PhaseGrid(-6.0, 6.0, -6.0, 6.0, 61, 61),
                snapshot_times=(0.0,),
            ),
        ),
    )
    out = str(tmp_path / "out")
    assert main(["husimi", "--config", cfg, "--out", out]) == 0
    summary = json.loads((tmp_path / "out" / "husimi_summary.json").read_text())
    snap = summary["snapshots"][0]
    assert snap["norm"] == pytest.approx(1.0, abs=1e-3)
    assert snap["n_local_maxima"] == 1
    assert snap["centroid"] == pytest.approx([0.0, 0.0], abs=0.02)
    hdr, vals = read_grid(os.path.join(out, snap["file"]))
    assert hdr == (-6.0, 6.0, 61, -6.0, 6.0, 61)
    assert vals.max() == pytest.approx(1 / np.pi, abs=1e-6)


def test_husimi_grid_too_small(tmp_path, capsys):
    # the packet from (2, 2) rides the unstable manifold out of the window:
    # a later snapshot records no centroid, a missed first one is an error
    def run(grid, name):
        cfg = write_cfg(tmp_path, small_cfg(
            points=(LabeledPoint("U", 2.0, 2.0),),
            husimi=HusimiSpec(grid=grid, snapshot_times=(0.0, 1.0)),
        ), name)
        return main(["husimi", "--config", cfg, "--out", str(tmp_path / name[:-5])])

    assert run(PhaseGrid(-4.0, 8.0, -4.0, 8.0, 61, 61), "escapes.json") == 0
    summary = json.loads((tmp_path / "escapes" / "husimi_summary.json").read_text())
    first, later = summary["snapshots"]
    assert first["centroid"] == pytest.approx([2.0, 2.0], abs=0.02)
    assert later["norm"] < 0.99
    assert later["centroid"] is None and later["second_moments"] is None
    capsys.readouterr()
    assert run(PhaseGrid(-1.0, 1.0, -1.0, 1.0, 21, 21), "missed.json") == 2
    assert "grid misses the initial packet at U" in capsys.readouterr().err


def test_cli_overrides(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    out = str(tmp_path / "out")
    assert main(["otoc", "--config", cfg, "--out", out, "--np", "30",
                 "--point", "1.0,1.0"]) == 0
    summary = json.loads((tmp_path / "out" / "otoc_summary.json").read_text())
    assert summary["runs"][0]["n_p"] == 30
    assert summary["runs"][0]["point"] == "pt"


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": "iho", "n_p": [0], "points": [], "t_end": 1.0, "n_samples": 5}')
    assert main(["otoc", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    # bad fit settings are caught by validation, not by the fit itself
    cfg = write_cfg(tmp_path, small_cfg(fit=FitSpec(window=(0.8, 0.2))), "bad_fit.json")
    capsys.readouterr()
    assert main(["otoc", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error: fit window")
    # json writes and reads NaN and Infinity; validation rejects them
    for key, bad in (("t_end", math.nan), ("dt", math.nan), ("dt", math.inf),
                     ("t_end", -math.inf)):
        cfg = write_cfg(tmp_path, small_cfg(**{key: bad}), f"bad_{key}.json")
        assert ("NaN" if bad != bad else "Infinity") in Path(cfg).read_text()
        for cmd in ("portrait", "otoc"):
            assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err.startswith(f"config error: {key} must be")
    # inputs that used to end in a traceback, or exit 0 with NaN data
    base = json.loads(serialize(small_cfg()))
    grid = {"q_min": -6.0, "q_max": 6.0, "p_min": -6.0, "p_max": 6.0, "n_q": 21,
            "n_p": 21, "snapshot_times": [0.0]}
    hiho = {"system": "hiho", "gamma": 3.0, "g": 0.04}
    for name, patch, cmd in (
        ("gamma_nan", {**hiho, "gamma": math.nan}, "otoc"),
        ("gamma_inf", {**hiho, "gamma": math.inf}, "otoc"),
        ("g_ninf", {**hiho, "g": -math.inf}, "otoc"),
        ("gamma_str", {**hiho, "gamma": "3"}, "otoc"),
        ("q_nan", {"points": [{"label": "A", "q": math.nan, "p": 0.0}]}, "otoc"),
        ("q_str", {"points": [{"label": "A", "q": "1", "p": 0.0}]}, "otoc"),
        ("t_end_str", {"t_end": "1"}, "otoc"),
        ("n_p_float", {"n_p": [40.5]}, "otoc"),
        ("n_samples_float", {"n_samples": 11.5}, "otoc"),
        ("snapshot_nan", {"husimi": {**grid, "snapshot_times": [0.0, math.nan]}}, "husimi"),
        ("n_q_float", {"husimi": {**grid, "n_q": 21.5}}, "husimi"),
        ("label_repeated", {"points": [{"label": "A", "q": 0.0, "p": 0.0},
                                       {"label": "A", "q": 1.0, "p": 0.0}]}, "otoc"),
        ("label_slash", {"points": [{"label": "a/b", "q": 0.0, "p": 0.0}]}, "otoc"),
        ("label_empty", {"points": [{"label": "", "q": 0.0, "p": 0.0}]}, "otoc"),
    ):
        path = tmp_path / f"bad_{name}.json"
        path.write_text(json.dumps({**base, **patch}), encoding="utf-8")
        out = tmp_path / f"o_{name}"
        capsys.readouterr()
        assert main([cmd, "--config", str(path), "--out", str(out)]) == 1, name
        assert capsys.readouterr().err.startswith("config error: "), name
        assert not out.exists(), name


def test_cli_bad_point_exit_code(tmp_path):
    # the tail precondition fails at n_p=40 for a far-out point
    cfg = write_cfg(tmp_path, small_cfg())
    rc = main(["otoc", "--config", cfg, "--out", str(tmp_path / "o"),
               "--point", "9.0,9.0"])
    assert rc == 1


@pytest.mark.parametrize("err", OtocLabError.__subclasses__(),
                         ids=lambda e: e.__name__)
def test_every_error_type_has_documented_exit_code(tmp_path, monkeypatch, err):
    def fail(*args, **kwargs):
        raise err("injected")

    monkeypatch.setattr(cli, "cmd_otoc", fail)
    cfg = write_cfg(tmp_path, small_cfg())
    rc = main(["otoc", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CODES[err][0]
    assert rc in (1, 2, 3)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert f"| `{err.__name__}` | {rc} |" in readme.read_text(encoding="utf-8")


def test_otoc_np1_exits_with_analysis_code(tmp_path, capsys):
    # ehrenfest_time needs n_p >= 2: InvalidRate, reported without a traceback
    cfg = resources.files("otoclab.figconfigs").joinpath("fig7_otoc.json")
    rc = main(["otoc", "--config", str(cfg), "--np", "1", "--point", "0,0",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("analysis: n_p must be >= 2")


def test_otoc_empty_a_priori_window_is_a_fit_error(tmp_path, capsys):
    # the a-priori IHO window (0.5, 0.8 ln(n_p)/2) is empty for n_p <= 3:
    # the run is kept and its summary entry records the fit error
    cfg = resources.files("otoclab.figconfigs").joinpath("fig2b.json")
    out = tmp_path / "o"
    rc = main(["otoc", "--config", str(cfg), "--np", "3", "--point", "0,0",
               "--out", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    (run,) = json.loads((out / "otoc_summary.json").read_text())["runs"]
    assert "fit window [0.5, 0.4394] is empty at n_p=3" in run["fit_error"]
    assert "rate" not in run


@pytest.mark.parametrize("fit", [
    FitSpec(auto=True, min_span=0.1, search=(0.0, 1.0)),
    FitSpec(window=(0.2, 0.8)),
], ids=["auto", "fixed"])
def test_otoc_non_finite_series_is_a_fit_error(tmp_path, monkeypatch, fit):
    # a nan sample in the fitted range is kept in the CSV, and the summary
    # entry records the fit error instead of rate = nan
    real = cli.variance_otoc

    def poisoned(*args, **kwargs):
        series = real(*args, **kwargs)
        series.values[10] = np.nan
        return series

    monkeypatch.setattr(cli, "variance_otoc", poisoned)
    cfg = write_cfg(tmp_path, small_cfg(fit=fit))
    out = tmp_path / "o"
    assert main(["otoc", "--config", cfg, "--out", str(out)]) == 0
    (run,) = json.loads((out / "otoc_summary.json").read_text())["runs"]
    assert "finite" in run["fit_error"]
    assert "rate" not in run


def test_determinism_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["otoc", "--config", cfg, "--out", out1]) == 0
    assert main(["otoc", "--config", cfg, "--out", out2]) == 0
    for name in ("otoc_A_np40.csv", "otoc_summary.json", "otoc.gp"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_manifest_entries(tmp_path):
    cfg_obj = small_cfg()
    cfg = write_cfg(tmp_path, cfg_obj)
    out = str(tmp_path / "out")
    assert main(["otoc", "--config", cfg, "--out", out]) == 0
    entries = [json.loads(line) for line in open(os.path.join(out, "manifest.jsonl"))]
    files = {e["file"] for e in entries}
    assert "otoc_A_np40.csv" in files
    for e in entries:
        assert e["config_hash"] == config_hash(cfg_obj)
        assert "otoclab" in e["versions"]
        assert e["wall_time_s"] >= 0


def test_manifest_one_record_per_file_on_rerun(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    out = str(tmp_path / "out")
    assert main(["otoc", "--config", cfg, "--out", out]) == 0
    assert main(["otoc", "--config", cfg, "--out", out]) == 0
    entries = [json.loads(line) for line in open(os.path.join(out, "manifest.jsonl"))]
    files = [e["file"] for e in entries]
    assert len(files) == len(set(files))
    assert set(files) == {"otoc_A_np40.csv", "otoc_summary.json", "otoc.gp"}
    assert all(e["wall_time_s"] >= 0 for e in entries)


def test_env_var_output_dir(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, small_cfg())
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("OTOCLAB_OUT", str(env_out))
    monkeypatch.chdir(tmp_path)
    assert main(["otoc", "--config", cfg]) == 0
    assert (env_out / "otoc_summary.json").exists()


def test_reproduce_all_unknown_figure(tmp_path):
    assert main(["reproduce-all", "--out", str(tmp_path / "o"),
                 "--only", "fig99"]) == 1


def test_reproduce_all_single_figure(tmp_path):
    out = str(tmp_path / "o")
    assert main(["reproduce-all", "--out", out, "--only", "fig1"]) == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["figures"]["fig1"]["status"] == "ok"


def test_reproduce_all_missing_config_dir(tmp_path):
    out = str(tmp_path / "o")
    cfg_dir = str(tmp_path / "empty")
    os.makedirs(cfg_dir)
    rc = main(["reproduce-all", "--out", out, "--only", "fig1",
               "--config", cfg_dir])
    assert rc == 3
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["figures"]["fig1"]["status"] == "error"
