import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from otoclab import cli
from otoclab.cli import main
from otoclab.config import (
    AUTO_MIN_SPAN,
    ExperimentConfig,
    FitSpec,
    HusimiSpec,
    LabeledPoint,
    config_hash,
    load,
    parse,
    serialize,
)
from otoclab.errors import ConfigError, GridTooSmall, OtocLabError
from otoclab.evolution import TimeSeries, evolve
from otoclab.husimi import (
    PhaseGrid,
    husimi_centroid,
    husimi_norm,
    husimi_second_moments,
)
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
    cfg = small_cfg(fit=FitSpec("auto", min_span=0.1, search=(0.0, 0.5)))
    assert parse(serialize(cfg)) == cfg
    # an auto fit that states no min_span searches windows of AUTO_MIN_SPAN
    cfg = small_cfg(fit=FitSpec("auto"))
    assert cfg.fit.min_span == AUTO_MIN_SPAN and cfg.fit.auto
    assert parse(serialize(cfg)) == cfg


@pytest.mark.parametrize("name", sorted(cli.FIGURES))
def test_bundled_config_round_trip(name):
    cfg = cli._load_bundled(name)
    assert parse(serialize(cfg)) == cfg


def _patched_cfg_file(tmp_path, name, patch):
    """A config file holding small_cfg's keys updated by ``patch``, which may
    hold values small_cfg itself refuses to build."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**json.loads(serialize(small_cfg())), **patch}),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("patch", [
    {"dtt": 5},
    {"fit": {"windw": [0.2, 0.8], "window": [0.2, 0.8]}},
    {"husimi": {"q_min": -6.0, "q_max": 6.0, "p_min": -6.0, "p_max": 6.0,
                "n_q": 21, "n_p": 21, "nq": 21, "snapshot_times": [0.0]}},
    {"points": [{"label": "A", "q": 2.0, "p": -2.0, "qq": 1.0}]},
], ids=["top", "fit", "husimi", "point"])
def test_unknown_key_is_a_config_error(tmp_path, capsys, patch):
    cfg = _patched_cfg_file(tmp_path, "unknown", patch)
    out = tmp_path / "o"
    for cmd in ("otoc", "husimi"):
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key"), err
        assert not out.exists()


def test_config_validation_errors():
    # building a config validates it, so an invalid one never exists
    with pytest.raises(ConfigError):
        small_cfg(n_p=(0,))
    with pytest.raises(ConfigError):
        small_cfg(points=())
    with pytest.raises(ConfigError):
        small_cfg(system="hiho")  # missing gamma/g
    with pytest.raises(ConfigError):
        # point too far out for the truncation
        small_cfg(points=(LabeledPoint("X", 9.0, 9.0),))
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf, 10**400, "1", True, None):
        with pytest.raises(ConfigError, match="t_end must be positive and finite"):
            small_cfg(t_end=bad)
        with pytest.raises(ConfigError, match="dt must be positive and finite"):
            small_cfg(dt=bad)
    for fit in (
        FitSpec(window=(0.8, 0.2)),
        FitSpec(window=(0.5, 0.5)),
        FitSpec(window=(0.1, 0.2, 0.3)),
        FitSpec(window=(0.1,)),
        FitSpec(window="automatic"),
        FitSpec(window=None),
        FitSpec("auto", min_span=0.0),
        FitSpec("auto", min_span=-0.1),
        FitSpec("auto", search=(0.5, 0.1)),
        FitSpec("auto", search=(0.2, 0.2)),
        FitSpec(window=(False, True)),  # JSON booleans are not times
        FitSpec("auto", min_span=True),
        FitSpec("auto", search=(False, True)),
        # min_span and search would have no effect on a fixed window
        FitSpec(window=(0.2, 0.8), min_span=0.1),
        FitSpec(window=(0.2, 0.8), search=(0.0, 1.0)),
    ):
        with pytest.raises(ConfigError, match="fit"):
            small_cfg(fit=fit)
    for bad in ((), [40], 40):
        with pytest.raises(ConfigError, match="n_p must be a non-empty list"):
            small_cfg(n_p=bad)
    with pytest.raises(ConfigError, match="output_dir must be a string"):
        small_cfg(output_dir=7)
    grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 21, 21)
    for bad in (math.nan, math.inf, -math.inf, -10**400, "3", True, None):
        gamma_error = "hiho requires gamma and g" if bad is None else "must be a finite number"
        with pytest.raises(ConfigError, match=gamma_error):
            small_cfg(system="hiho", gamma=bad, g=0.04)
        with pytest.raises(ConfigError, match=gamma_error):
            small_cfg(system="hiho", gamma=3.0, g=bad)
        with pytest.raises(ConfigError, match="needs finite numbers q and p"):
            small_cfg(points=(LabeledPoint("A", bad, 0.0),))
        with pytest.raises(ConfigError, match="needs finite numbers q and p"):
            small_cfg(points=(LabeledPoint("A", 0.0, bad),))
        with pytest.raises(ConfigError, match="snapshot times must be finite"):
            small_cfg(husimi=HusimiSpec(grid, (0.0, bad)))
    for bad in (40.5, 40.0, "40", True):
        with pytest.raises(ConfigError, match="n_p must be a non-empty list of integers >= 1"):
            small_cfg(n_p=(bad,))
        with pytest.raises(ConfigError, match="n_samples must be an integer >= 2"):
            small_cfg(n_samples=bad)
    for n_q, n_p in ((21.5, 21), (21, 21.0)):  # PhaseGrid rejects str and bool itself
        with pytest.raises(ConfigError, match="husimi n_q and n_p must be integers"):
            small_cfg(husimi=HusimiSpec(PhaseGrid(-6.0, 6.0, -6.0, 6.0, n_q, n_p),
                                        (0.0,)))
    with pytest.raises(ConfigError, match="grid bounds must be finite"):
        small_cfg(husimi=HusimiSpec(PhaseGrid(-math.inf, 6.0, -6.0, 6.0, 21, 21),
                                    (0.0,)))
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
            small_cfg(points=points)


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
    # the in-memory summary holds plain floats, so printed checks read cleanly
    mem = cli.cmd_husimi(load(cfg), out)["summary"]
    moments = mem["snapshots"][0]["second_moments"]
    assert all(type(v) is float for v in moments.values()), moments


def test_husimi_snapshots_equal_evolve_bit_for_bit(tmp_path, monkeypatch):
    # each point's snapshot times are evolved in one batch; every snapshot
    # state is the single-time evolve's, and the summary holds the
    # diagnostics of its grid
    cfg = small_cfg(
        points=(LabeledPoint("A", 2.0, -2.0), LabeledPoint("B", -1.0, 0.5)),
        husimi=HusimiSpec(grid=PhaseGrid(-7.0, 7.0, -7.0, 7.0, 41, 41),
                          snapshot_times=(0.0, 0.3, 0.9, 1.4, 2.5)),
    )
    seen = []
    husimi_q = cli.husimi_q

    def recorded(state, grid):
        seen.append((state.copy(), husimi_q(state, grid)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "husimi_q", recorded)
    snapshots = cli.cmd_husimi(cfg, str(tmp_path))["summary"]["snapshots"]
    prop = cli._propagator(cfg, 40)
    want = [evolve(prop, cli._initial_state(40, pt), t)
            for pt in cfg.points for t in cfg.husimi.snapshot_times]
    assert len(seen) == len(snapshots) == len(want)
    missed = 0
    for (state, hg), entry, ref in zip(seen, snapshots, want):
        assert np.array_equal(state.view(np.uint64), ref.view(np.uint64))
        assert entry["norm"] == husimi_norm(hg)
        if entry["centroid"] is None:
            missed += 1
            with pytest.raises(GridTooSmall):
                husimi_centroid(hg)
            continue
        assert entry["centroid"] == list(husimi_centroid(hg))
        mom = husimi_second_moments(hg)
        assert entry["second_moments"] == {"qq": mom[0, 0], "qp": mom[0, 1], "pp": mom[1, 1]}
    assert 0 < missed < len(want)  # both branches of the diagnostics run


def test_import_loads_no_scipy_ndimage():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, otoclab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.ndimage')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_husimi_grid_too_small(tmp_path, capsys):
    # the packet from (2, 2) rides the unstable manifold out of the window:
    # a later snapshot records no centroid, a missed first one is an error
    def run(grid, name, centre=(2.0, 2.0), times=(0.0, 1.0)):
        cfg = write_cfg(tmp_path, small_cfg(
            points=(LabeledPoint("U", *centre),),
            husimi=HusimiSpec(grid=grid, snapshot_times=times),
        ), name)
        return main(["husimi", "--config", cfg, "--out", str(tmp_path / name[:-5])])

    assert run(PhaseGrid(-4.0, 8.0, -4.0, 8.0, 61, 61), "escapes.json") == 0
    summary = json.loads((tmp_path / "escapes" / "husimi_summary.json").read_text())
    first, later = summary["snapshots"]
    assert first["centroid"] == pytest.approx([2.0, 2.0], abs=0.02)
    assert later["norm"] < 0.99
    assert later["centroid"] is None and later["second_moments"] is None
    # the hinted window holds the missed one and the packet centre, also
    # when the missed window lies off to one side, and captures the packet
    for centre, lo, hi in (((2.0, 2.0), -1.0, 1.0), ((1.0, 1.0), 4.0, 12.0)):
        capsys.readouterr()
        assert run(PhaseGrid(lo, hi, lo, hi, 21, 21), "missed.json", centre) == 2
        err = capsys.readouterr().err
        assert "grid misses the initial packet at U" in err
        hint = re.search(r"q in \[(\S+), (\S+)\], p in \[(\S+), (\S+)\]", err)
        q_lo, q_hi, p_lo, p_hi = map(float, hint.groups())
        for h_lo, h_hi, c in ((q_lo, q_hi, centre[0]), (p_lo, p_hi, centre[1])):
            assert h_lo <= min(lo, c) and h_hi >= max(hi, c), err
        grid = PhaseGrid(q_lo, q_hi, p_lo, p_hi, 81, 81)
        assert run(grid, "hinted.json", centre, (0.0,)) == 0
        (snap,) = json.loads((tmp_path / "hinted" / "husimi_summary.json").read_text())["snapshots"]
        assert snap["centroid"] == pytest.approx(list(centre), abs=0.02)


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
    cfg = _patched_cfg_file(tmp_path, "bad_fit", {"fit": {"window": [0.8, 0.2]}})
    capsys.readouterr()
    assert main(["otoc", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error: fit window")
    # json writes and reads NaN and Infinity; validation rejects them
    for key, bad in (("t_end", math.nan), ("dt", math.nan), ("dt", math.inf),
                     ("t_end", -math.inf)):
        cfg = _patched_cfg_file(tmp_path, f"bad_{key}", {key: bad})
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


@pytest.mark.parametrize("q_max, p_max", [(1e308, 1e308), (1.5e19, 1.0), (1.0, 1.5e19)],
                         ids=["1e308", "q_past_alpha_max", "p_past_alpha_max"])
def test_husimi_grid_past_alpha_max_is_a_config_error(tmp_path, capsys, q_max, p_max):
    # at +-1e308 the command used to exit 0 with a .grid file of nan;
    # 1.5e19 / sqrt(2) is just past ALPHA_MAX = 1e19
    grid = {"q_min": -q_max, "q_max": q_max, "p_min": -p_max, "p_max": p_max,
            "n_q": 21, "n_p": 21, "snapshot_times": [0.0]}
    cfg = _patched_cfg_file(tmp_path, "far", {"husimi": grid})
    out = tmp_path / "o"
    assert main(["husimi", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: husimi grid corners reach |alpha|"), err
    assert not out.exists()
    with pytest.raises(ConfigError, match="husimi grid corners"):
        small_cfg(husimi=HusimiSpec(PhaseGrid(-q_max, q_max, -p_max, p_max, 21, 21), (0.0,)))
    inside = PhaseGrid(-1.4e19, 1.4e19, -1.0, 1.0, 21, 21)
    assert small_cfg(husimi=HusimiSpec(inside, (0.0,))).husimi.grid == inside


@pytest.mark.parametrize("case", ["missing", "not_utf8", "directory"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, case):
    path = tmp_path / "cfg.json"
    if case == "not_utf8":
        path.write_bytes(serialize(small_cfg()).encode("utf-16"))
    elif case == "directory":
        path.mkdir()
    out = tmp_path / "o"
    assert main(["otoc", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}: ")
    assert "Traceback" not in err
    assert not out.exists()


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
    FitSpec("auto", min_span=0.1, search=(0.0, 1.0)),
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
        # no times, so a rerun writes the same manifest
        assert set(e) == {"config_hash", "file", "versions"}


def test_manifest_one_record_per_file_on_rerun(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    out = str(tmp_path / "out")
    manifest = Path(out) / "manifest.jsonl"
    assert main(["otoc", "--config", cfg, "--out", out]) == 0
    first = manifest.read_bytes()
    assert main(["otoc", "--config", cfg, "--out", out]) == 0
    entries = [json.loads(line) for line in manifest.read_text().splitlines()]
    files = [e["file"] for e in entries]
    assert len(files) == len(set(files))
    assert set(files) == {"otoc_A_np40.csv", "otoc_summary.json", "otoc.gp"}
    assert manifest.read_bytes() == first


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


def test_figure_table_matches_bundled_configs():
    stems = {Path(f.name).stem
             for f in resources.files("otoclab.figconfigs").iterdir()
             if f.name.endswith(".json")}
    assert set(cli.FIGURES) == stems


def cosh_series(point, n_p, scale=1.0, n=61):
    """The untruncated IHO variance cosh(2t)/2 on [0, 3], times ``scale``."""
    t = np.linspace(0.0, 3.0, n)
    return TimeSeries(t, scale * np.cosh(2 * t) / 2, f"{point}/np{n_p}")


def assert_all_failed(checks, names):
    assert [c["name"] for c in checks] == names
    assert not any(c["passed"] for c in checks), checks


def test_checks_fig2a_missing_correspondence_time_fails():
    runs = [{"point": "B", "n_p": k, "t_p": t}
            for k, t in ((100, 0.9), (200, None), (300, 1.5))]
    assert_all_failed(cli._checks_fig2a({"summary": {"runs": runs}}),
                      ["fig2a_tp_monotone"])


def test_checks_fig3_fit_error_fails():
    # a faithful series never departs, so its exponential duration is None
    runs = [{"point": "B", "n_p": 75, "rate": 1.3},
            {"point": "B", "n_p": 150, "fit_error": "window too sparse"}]
    series = {("B", r["n_p"]): cosh_series("B", r["n_p"]) for r in runs}
    checks = cli._checks_fig3({"summary": {"runs": runs}, "series": series})
    assert_all_failed(checks, ["fig3_rate_spread", "fig3_exponential_duration"])
    assert checks[0]["value"] == [1.3, None]


def test_checks_fig4a_fit_error_and_no_faithful_samples_fail():
    # both curves depart from cosh(2t)/2 at t = 0, so nothing is compared
    runs = [{"point": "O", "n_p": 300, "fit_error": "non-positive values"},
            {"point": "A", "n_p": 300, "rate": 3.0}]
    series = {(r["point"], 300): cosh_series(r["point"], 300, scale=2.0)
              for r in runs}
    checks = cli._checks_fig4a({"summary": {"runs": runs}, "series": series})
    assert_all_failed(checks, ["rate_O_np300", "rate_A_np300",
                               "fig4a_pointwise_agreement"])
    assert checks[-1]["value"] is None


def test_checks_fig5_without_late_snapshot_fails():
    snaps = [{"point": "O", "time": 0.0, "n_local_maxima": 1}]
    checks = cli._checks_fig5({"summary": {"n_p": 300, "snapshots": snaps}})
    assert_all_failed(checks, ["fig5_fragmentation"])


@pytest.mark.parametrize("runs", [
    [{"point": "T", "n_p": 250, "rate": 25.5, "ehrenfest_time": 0.22}],
    [{"point": "F", "n_p": 250, "fit_error": "window too sparse"}],
], ids=["no-F-run", "F-fit-error"])
def test_checks_fig7_otoc_missing_f_values_fail(runs):
    checks = cli._checks_fig7_otoc({"summary": {"runs": runs}})
    assert_all_failed(checks, ["rate_F", "tau_F"])
    assert [c["value"] for c in checks] == [None, None]


def test_checks_fig8_lost_last_moments_fail():
    # the last snapshot is the one compared, never an earlier one
    moments = {"qq": 1.0, "qp": 0.0, "pp": 1.0}
    stretched = {"qq": 1.0, "qp": 0.0, "pp": 9.0}
    snaps = [{"point": "F", "time": t, "second_moments": m}
             for t, m in ((0.0, moments), (0.14, stretched), (0.21, None))]
    checks = cli._checks_fig8({"summary": {"snapshots": snaps}})
    assert_all_failed(checks, ["fig8_vertical_stretch"])
    assert checks[0]["value"] is None
