import contextlib
import gc
import json
import math
import os
import re
import resource
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from otoclab import cli, output
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
    )
    assert parse(serialize(cfg)) == cfg
    # the output directory is named by --out alone, never by the config
    with pytest.raises(ConfigError, match="unknown key 'output_dir' in the config"):
        parse(json.dumps({**json.loads(serialize(cfg)), "output_dir": "somewhere"}))


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


def test_config_validation_errors(tmp_path, capsys, monkeypatch):
    # building a config validates it, so an invalid one never exists
    with pytest.raises(ConfigError):
        small_cfg(n_p=(0,))
    with pytest.raises(ConfigError):
        small_cfg(points=())
    with pytest.raises(ConfigError):
        small_cfg(system="hiho")  # missing gamma/g
    # a point too far out for the truncation builds: the commands that build
    # its coherent state refuse it (test_cli_bad_point_exit_code)
    small_cfg(points=(LabeledPoint("X", 9.0, 9.0),))
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf, 10**400, "1", True, None):
        with pytest.raises(ConfigError, match="t_end must be positive and finite"):
            small_cfg(t_end=bad)
        with pytest.raises(ConfigError, match="dt must be positive and finite"):
            small_cfg(dt=bad)
    # the RK4 step cap guards only portrait, the one command that integrates:
    # it refuses an overflowing or finite step count past the cap before it
    # makes its directory (1e22 steps: test_configs_past_the_caps_exit_1)
    for name, t_end, dt, message in (
        ("inf", 1e300, 1e-10, r"t_end / dt = 1e\+300 / 1e-10 is not a finite step"),
        ("past", 1000.5, 1e-3, r"t_end / dt = 1000.5 / 0.001 is not a finite step count "
                               r"of at most 1000000"),
    ):
        cfg = _patched_cfg_file(tmp_path, f"steps_{name}", {"t_end": t_end, "dt": dt})
        out = tmp_path / f"steps_{name}"
        capsys.readouterr()
        assert main(["portrait", "--config", cfg, "--out", str(out)]) == 1, name
        err = capsys.readouterr().err
        assert re.match("config error: " + message, err), err
        assert not out.exists(), name

    # the cap itself is allowed: portrait reaches its integration
    class Integrating(Exception):
        pass

    def integrating(model, seeds, t_end, dt):
        raise Integrating(t_end / dt)

    monkeypatch.setattr(cli.classical, "phase_portrait", integrating)
    cfg = _patched_cfg_file(tmp_path, "steps_at_cap", {"t_end": 1000.0, "dt": 1e-3})
    with pytest.raises(Integrating):
        main(["portrait", "--config", cfg, "--out", str(tmp_path / "steps_at_cap")])
    # a command that never reads dt runs past the portrait cap
    cfg = _patched_cfg_file(tmp_path, "otoc_long", {"t_end": 1500.0, "n_p": [40]})
    assert main(["otoc", "--config", cfg, "--out", str(tmp_path / "otoc_long")]) == 0
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
        # json reads Infinity, which otoc_summary.json could not write back
        FitSpec(window=(0.2, math.inf)),
        FitSpec(window=(-math.inf, 0.6)),
        FitSpec("auto", min_span=math.inf),
        FitSpec("auto", search=(-math.inf, math.inf)),
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
    # a config that still names its output directory exits 1 and makes none
    cfg = _patched_cfg_file(tmp_path, "output_dir", {"output_dir": str(tmp_path / "named")})
    capsys.readouterr()
    assert main(["otoc", "--config", cfg, "--out", str(tmp_path / "o_named")]) == 1
    assert capsys.readouterr().err.startswith("config error: unknown key 'output_dir'")
    assert not (tmp_path / "named").exists() and not (tmp_path / "o_named").exists()
    # iho has no parameters, so a stated gamma or g would only change the hash
    for kw in ({"gamma": 3.0}, {"g": 0.04}, {"gamma": 3.0, "g": 0.04}, {"gamma": math.nan}):
        with pytest.raises(ConfigError, match="iho takes no gamma or g"):
            small_cfg(**kw)
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
    # past the caps on samples and on Husimi grid points; the caps themselves are
    # allowed (10^9 samples: test_configs_past_the_caps_exit_1)
    with pytest.raises(ConfigError, match="n_samples = 100001 is past the cap"):
        small_cfg(n_samples=10**5 + 1)
    assert small_cfg(n_samples=10**5).n_samples == 10**5
    for n_q, n_p in ((100000, 100000), (1001, 1000), (2, 500001)):
        with pytest.raises(ConfigError, match=rf"husimi grid n_q x n_p = {n_q} x {n_p} is "
                                              r"past the cap of 1000000 points"):
            small_cfg(husimi=HusimiSpec(PhaseGrid(-6.0, 6.0, -6.0, 6.0, n_q, n_p), (0.0,)))
    for n_q, n_p in ((1000, 1000), (2, 500000)):
        small_cfg(husimi=HusimiSpec(PhaseGrid(-6.0, 6.0, -6.0, 6.0, n_q, n_p), (0.0,)))
    # past the caps on truncations and on Husimi snapshots; the caps themselves are allowed
    for n_p in ((10**6,), (40, 8001)):
        with pytest.raises(ConfigError, match=rf"n_p = {max(n_p)} is past the cap of 8000"):
            small_cfg(n_p=n_p)
    assert small_cfg(n_p=(8000,)).n_p == (8000,)
    with pytest.raises(ConfigError, match="husimi asks for 101 snapshot times, past the cap "
                                          "of 100"):
        small_cfg(husimi=HusimiSpec(grid, (0.0,) * 101))
    small_cfg(husimi=HusimiSpec(grid, (0.0,) * 100))
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
        (("",), "non-empty printable string without a path separator"),
        (("a/b",), "non-empty printable string without a path separator"),
        (("a" + os.sep + "b",), "non-empty printable string without a path separator"),
        ((7,), "non-empty printable string without a path separator"),
        (("A\nB",), r"point label 'A\\nB' must be a non-empty printable string"),
        (("A\x00B",), r"point label 'A\\x00B' must be a non-empty printable string"),
    ):
        points = tuple(LabeledPoint(label, 0.5 * i, 0.0) for i, label in enumerate(labels))
        with pytest.raises(ConfigError, match=message):
            small_cfg(points=points)
    small_cfg(points=(LabeledPoint("F'", 2.0, -2.0), LabeledPoint("α", 1.0, 1.0)))


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


def test_otoc_command_oracle_column(tmp_path, capsys):
    # --oracle added a column the manifest's config hash did not name; given
    # a valid config and output directory it is still refused before any
    # file is written. The oracle's bound is
    # test_acceptance_1_variance_matches_commutator_oracle's
    cfg = write_cfg(tmp_path, small_cfg())
    out = tmp_path / "out"
    assert main(["otoc", "--config", cfg, "--out", str(out), "--oracle"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "unrecognized arguments: --oracle" in err
    assert not out.exists()


def test_otoc_csv_header_is_t_and_c(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    out = tmp_path / "out"
    assert main(["otoc", "--config", cfg, "--out", str(out)]) == 0
    (run,) = json.loads((out / "otoc_summary.json").read_text())["runs"]
    assert (out / run["file"]).read_text().startswith("t,C\n")


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
    prop = cli._propagators(cfg, 40)[40]
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


def _run_child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this otoclab,
    on one BLAS thread, capturing its output as text."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def test_import_loads_no_scipy():
    code = ("import sys, otoclab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = _run_child(["-c", code], check=True)
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
        # a newline split otoc.gp's plot line inside a quoted string, and a
        # NUL ended in a traceback from open() after the evolution
        ("label_newline", {"points": [{"label": "A\nB", "q": 0.0, "p": 0.0}]}, "otoc"),
        ("label_tab", {"points": [{"label": "A\tB", "q": 0.0, "p": 0.0}]}, "otoc"),
        ("label_nul", {"points": [{"label": "A\x00B", "q": 0.0, "p": 0.0}]}, "otoc"),
        # linspace(0, 5e-324, 3) repeats 0: a traceback after the directory was made
        ("t_end_subnormal_otoc", {"t_end": 5e-324, "n_samples": 3}, "otoc"),
        ("t_end_subnormal_photon", {"t_end": 5e-324, "n_samples": 3}, "photon"),
    ):
        cfg = _patched_cfg_file(tmp_path, f"bad_{name}", patch)
        out = tmp_path / f"o_{name}"
        capsys.readouterr()
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 1, name
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


def _far_point_cfg(tmp_path):
    """A config whose point fails the coherent-tail precondition at n_p=40."""
    return _patched_cfg_file(tmp_path, "far", {"points": [{"label": "pt", "q": 9.0, "p": 9.0}]})


def test_cli_bad_point_exit_code(tmp_path, capsys):
    # every command that builds a coherent state checks the tail first:
    # husimi refuses it before it misses its husimi section
    cfg = _far_point_cfg(tmp_path)
    for cmd in ("photon", "otoc", "husimi"):
        rc = main([cmd, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1, cmd
        assert capsys.readouterr().err.startswith("config error: point pt (9.0, 9.0) violates")
        assert not (tmp_path / "o").exists()


def test_portrait_is_not_refused_for_the_coherent_tail(tmp_path):
    # a classical portrait builds no state, so no truncation can fail it
    out = tmp_path / "o"
    assert main(["portrait", "--config", _far_point_cfg(tmp_path), "--out", str(out)]) == 0
    assert (out / "portrait_pt.csv").exists()


def test_repeated_n_p_is_a_config_error(tmp_path, capsys):
    # each n_p names its files: otoc wrote otoc_A_np40.csv twice and listed
    # the run twice in its summary and its plot script
    cfg = _patched_cfg_file(tmp_path, "twice", {"n_p": [40, 40]})
    for cmd in ("otoc", "photon"):
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 1, cmd
        assert capsys.readouterr().err == "config error: n_p values must be distinct, got [40, 40]\n"
        assert not (tmp_path / "o").exists()


def _concrete_errors(cls=OtocLabError) -> list[type[OtocLabError]]:
    """Every error type below ``cls`` that has no subclass of its own: the
    types code raises, not the categories they inherit their codes from."""
    subs = cls.__subclasses__()
    return [e for sub in subs for e in _concrete_errors(sub)] if subs else [cls]


ERROR_TYPES = _concrete_errors()
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("err", ERROR_TYPES, ids=lambda e: e.__name__)
def test_every_error_type_has_documented_exit_code(tmp_path, monkeypatch, capsys, err):
    def fail(*args, **kwargs):
        raise err("injected")

    monkeypatch.setitem(cli.COMMANDS, "otoc", (fail, "injected"))
    cfg = write_cfg(tmp_path, small_cfg())
    rc = main(["otoc", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc in (1, 2, 3)
    kind, sep, message = capsys.readouterr().err.partition(": ")
    assert (sep, message) == (": ", "injected\n")
    row = f"| `{err.__name__}` | {rc} | {kind} |"
    assert row in README.read_text(encoding="utf-8")


def test_readme_error_table_lists_exactly_the_concrete_error_types():
    rows = re.findall(r"^\| `(\w+)` \| \d \|", README.read_text(encoding="utf-8"), re.M)
    assert sorted(rows) == sorted(e.__name__ for e in ERROR_TYPES)


@pytest.mark.parametrize("how", ["otoc_out_file", "reproduce_all_out_below_file",
                                 "reproduce_all_figure_dir_file",
                                 "output_dir_below_file", "env_below_file"])
def test_uncreatable_output_dir_is_a_config_error(tmp_path, monkeypatch, capsys, how):
    # os.makedirs used to end in FileExistsError or NotADirectoryError
    blocker = tmp_path / "fig1"
    blocker.write_text("")
    below = str(blocker / "x")
    cfg = write_cfg(tmp_path, small_cfg())
    argv = {
        "otoc_out_file": ["otoc", "--config", cfg, "--out", str(blocker)],
        "reproduce_all_out_below_file": ["reproduce-all", "--out", below],
        "reproduce_all_figure_dir_file": ["reproduce-all", "--out", str(tmp_path),
                                          "--only", "fig1"],
        "output_dir_below_file": ["portrait", "--config", cfg, "--out", below],
        "env_below_file": ["photon", "--config", cfg, "--out", below],
    }[how]
    # the environment names no output directory
    monkeypatch.setenv("OTOCLAB_OUT", str(tmp_path / "env"))
    assert main(argv) == 1
    assert not (tmp_path / "env").exists()
    err = capsys.readouterr().err
    target = str(blocker) if how in ("otoc_out_file", "reproduce_all_figure_dir_file") else below
    assert err.startswith(f"config error: cannot create output directory {target}: "), err


@pytest.mark.parametrize("line", ['{"config_hash": "ab", "file": "portr', "[1, 2]",
                                  '{"name": "portrait_A.csv"}', ""],
                         ids=["half_written", "not_an_object", "no_file_key", "blank"])
def test_broken_manifest_line_is_a_config_error(tmp_path, capsys, line):
    # json.loads used to end in JSONDecodeError, KeyError or TypeError
    out = tmp_path / "o"
    out.mkdir()
    (out / "manifest.jsonl").write_text('{"file": "other.csv"}\n' + line + "\n")
    cfg = write_cfg(tmp_path, small_cfg())
    assert main(["portrait", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out / 'manifest.jsonl'} holds a line that is not "
                          f"a manifest record"), err
    assert "Traceback" not in err


def test_manifest_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    # opening it used to end in IsADirectoryError
    out = tmp_path / "o"
    (out / "manifest.jsonl").mkdir(parents=True)
    cfg = write_cfg(tmp_path, small_cfg())
    assert main(["portrait", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {out / 'manifest.jsonl'}: "), err


@pytest.mark.parametrize("name", ["portrait_A.csv", "portrait.gp"])
def test_data_file_that_is_a_directory_is_a_config_error(tmp_path, capsys, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    cfg = write_cfg(tmp_path, small_cfg())
    assert main(["portrait", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}: "), err


@pytest.mark.parametrize("name, command, patch, message", [
    pytest.param("fig7_otoc.json", "portrait", {"t_end": 1e12, "dt": 1e-10},
                 "t_end / dt = 1000000000000.0 / 1e-10 is not a finite step count of at "
                 "most 1000000", id="portrait_steps"),
    pytest.param("fig7_otoc.json", "otoc", {"n_samples": 10**9},
                 "n_samples = 1000000000 is past the cap of 100000", id="n_samples"),
    pytest.param("fig8.json", "husimi", {"husimi": {"n_q": 100000, "n_p": 100000}},
                 "husimi grid n_q x n_p = 100000 x 100000 is past the cap of 1000000 points",
                 id="husimi_grid"),
    pytest.param("fig7_otoc.json", "otoc", {"n_p": [10**6]},
                 "n_p = 1000000 is past the cap of 8000", id="n_p"),
    pytest.param("fig8.json", "husimi",
                 {"husimi": {"snapshot_times": [i / 10**6 for i in range(10**6)]}},
                 "husimi asks for 1000000 snapshot times, past the cap of 100", id="snapshots"),
    pytest.param("fig7_photon.json", "photon", {"n_p": [150, 2001]},
                 "the photon reference n_p = 4 x 2001 = 8004 is past the cap of 8000",
                 id="photon_reference"),
])
def test_configs_past_the_caps_exit_1(tmp_path, name, command, patch, message):
    # each once asked numpy for gigabytes and ended in a traceback; the command
    # runs through its module entry point in a child whose address space is
    # capped as `ulimit -v 3000000` caps it, so a lost cap fails the child alone
    cap = 3_000_000 * 1024
    d = json.loads(resources.files("otoclab.figconfigs").joinpath(name).read_text())
    # a dict in the patch updates the section of the config that it names
    d.update({k: {**d[k], **v} if isinstance(v, dict) else v for k, v in patch.items()})
    path = tmp_path / name
    path.write_text(json.dumps(d), encoding="utf-8")
    out = tmp_path / "o"
    proc = _run_child(["-m", "otoclab.cli", command, "--config", str(path), "--out", str(out)],
                      preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"config error: {message}"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_otoc_np1_exits_with_analysis_code(tmp_path, capsys):
    # ehrenfest_time needs n_p >= 2: InvalidRate, reported without a traceback
    d = json.loads(resources.files("otoclab.figconfigs").joinpath("fig7_otoc.json").read_text())
    d.update(n_p=[1], points=[{"label": "pt", "q": 0.0, "p": 0.0}])
    cfg = tmp_path / "np1.json"
    cfg.write_text(json.dumps(d), encoding="utf-8")
    rc = main(["otoc", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("analysis: n_p must be >= 2")


def test_otoc_empty_a_priori_window_is_a_fit_error(tmp_path, capsys):
    # a stated window holding 3 of the 5 samples a fit needs: the run is
    # kept and its summary entry records the fit error
    cfg = write_cfg(tmp_path, small_cfg(fit=FitSpec(window=(0.48, 0.62))))
    out = tmp_path / "o"
    rc = main(["otoc", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    (run,) = json.loads((out / "otoc_summary.json").read_text())["runs"]
    assert run["fit_error"] == "only 3 samples in [0.48, 0.62]"
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


@pytest.mark.parametrize("command", ["portrait", "photon", "otoc", "husimi"])
def test_every_manifest_record_names_its_config_file(tmp_path, command):
    # nothing but the file decides what a command computes, so every record
    # carries the hash of the file passed
    grid = HusimiSpec(PhaseGrid(-6.0, 6.0, -6.0, 6.0, 21, 21), (0.0, 0.5))
    cfg = write_cfg(tmp_path, small_cfg(fit=FitSpec(window=(0.2, 0.8)), husimi=grid))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    entries = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert sorted(e["file"] for e in entries) == sorted(
        f for f in os.listdir(out) if f != "manifest.jsonl")
    assert {e["config_hash"] for e in entries} == {config_hash(load(cfg))}


@pytest.mark.slow
@pytest.mark.parametrize("name", list(cli.FIGURES))
def test_every_figure_manifest_record_names_its_bundled_config(reproduce_all, name):
    lines = (reproduce_all[2] / name / "manifest.jsonl").read_text().splitlines()
    assert lines
    assert {json.loads(line)["config_hash"] for line in lines} == {
        config_hash(cli._load_bundled(name))}


def test_otoc_without_fit_writes_no_fit_fields(tmp_path, capsys):
    # a fit the config does not state is not made: no a-priori window and
    # no auto search, whose cost grows as n_samples squared
    cfg = write_cfg(tmp_path, small_cfg(n_p=(40, 30)))
    out = tmp_path / "o"
    assert main(["otoc", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    runs = json.loads((out / "otoc_summary.json").read_text())["runs"]
    assert [sorted(r) for r in runs] == [["file", "n_p", "point"]] * 2
    for r in runs:
        data = np.loadtxt(out / r["file"], delimiter=",", skiprows=1)
        assert data.shape == (21, 2) and np.all(data[:, 1] > 0)


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


def test_torn_manifest_stops_a_command_before_it_computes(tmp_path, capsys, diagonalized):
    # the torn line used to be found when the first data file was recorded,
    # after every eigensolve, leaving that file behind with no record
    out = tmp_path / "o"
    out.mkdir()
    torn = '{"config_hash": "ab", "file": "otoc_'
    (out / "manifest.jsonl").write_text(torn, encoding="utf-8")
    cfg = write_cfg(tmp_path, small_cfg())
    assert main(["otoc", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out / 'manifest.jsonl'} holds a line"), err
    assert diagonalized == []
    assert os.listdir(out) == ["manifest.jsonl"]
    assert (out / "manifest.jsonl").read_text(encoding="utf-8") == torn


def test_a_command_reads_its_manifest_at_most_once(tmp_path, monkeypatch):
    # recording a file used to read the manifest back every time
    reads = []
    opened = output._opened

    @contextlib.contextmanager
    def counted(path, mode, **kwargs):
        if os.path.basename(path) == "manifest.jsonl" and mode.startswith("r"):
            reads.append(path)
        with opened(path, mode, **kwargs) as fh:
            yield fh

    monkeypatch.setattr(output, "_opened", counted)
    points = (LabeledPoint("A", 2.0, -2.0), LabeledPoint("B", 1.0, 1.0))
    cfg = write_cfg(tmp_path, small_cfg(points=points))
    out = tmp_path / "o"
    assert main(["portrait", "--config", cfg, "--out", str(out)]) == 0
    assert reads == []
    first = (out / "manifest.jsonl").read_bytes()
    assert main(["portrait", "--config", cfg, "--out", str(out)]) == 0
    assert len(reads) == 1
    assert (out / "manifest.jsonl").read_bytes() == first


def _gnuplot_strings(line: str) -> tuple[list[str], str]:
    """The single-quoted strings of a gnuplot line, unquoted ('' is one '),
    and what is left of the line around them."""
    quoted = re.compile(r"'((?:[^']|'')*)'")
    return ([m.replace("''", "'") for m in quoted.findall(line)], quoted.sub("", line))


def test_gnuplot_scripts_quote_a_label_holding_a_quote(tmp_path):
    # a label F' used to end its single-quoted file name and title early
    grid = HusimiSpec(PhaseGrid(-6.0, 6.0, -6.0, 6.0, 21, 21), (0.0, 0.5))
    cfg = write_cfg(tmp_path, small_cfg(points=(LabeledPoint("F'", 2.0, -2.0),), husimi=grid))
    for command, script in (("portrait", "portrait.gp"), ("photon", "photon.gp"),
                            ("otoc", "otoc.gp"), ("husimi", "husimi.gp")):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        text = (out / script).read_text(encoding="utf-8")
        assert "F''" in text, command
        curves = [line for line in text.splitlines() if line.startswith(("plot", "splot"))]
        assert curves, command
        for line in curves:
            strings, rest = _gnuplot_strings(line)
            assert "'" not in rest, line
            files = [s for s in strings if s.endswith((".csv", ".grid"))]
            titles = [s for s in strings if s not in files]
            assert files and all((out / f).is_file() for f in files), line
            assert titles and all(t.startswith("F' ") or t == "F'" for t in titles), line


def test_env_var_output_dir(tmp_path, monkeypatch):
    # the environment names no output directory: without --out a command
    # writes to otoclab_out
    cfg = write_cfg(tmp_path, small_cfg())
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("OTOCLAB_OUT", str(env_out))
    monkeypatch.chdir(tmp_path)
    assert main(["otoc", "--config", cfg]) == 0
    assert (tmp_path / "otoclab_out" / "otoc_summary.json").exists()
    assert not env_out.exists()


def test_reproduce_all_unknown_figure(tmp_path):
    assert main(["reproduce-all", "--out", str(tmp_path / "o"),
                 "--only", "fig99"]) == 1


@pytest.mark.parametrize("case", ["husimi_without_section", "unknown_figure",
                                  "husimi_two_truncations"])
def test_a_config_error_leaves_no_directory(tmp_path, capsys, case):
    # each of these checks used to run after the output directory was made,
    # as photon's reference cap did (test_configs_past_the_caps_exit_1);
    # husimi with two truncations used to run the first alone
    out = str(tmp_path / "o")
    two = small_cfg(n_p=(40, 60), husimi=HusimiSpec(PhaseGrid(-6.0, 6.0, -6.0, 6.0, 21, 21),
                                                    (0.0,)))
    argv = {
        "husimi_without_section": ["husimi", "--config", write_cfg(tmp_path, small_cfg())],
        "unknown_figure": ["reproduce-all", "--only", "fig99"],
        "husimi_two_truncations": ["husimi", "--config", write_cfg(tmp_path, two)],
    }[case]
    assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if case == "husimi_two_truncations":
        assert err == "config error: husimi command takes exactly one n_p, got [40, 60]\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, message", [
    # a run is its config file: the flags that overrode n_p or the point, or
    # added an oracle column, are gone
    (["otoc", "--config", "c", "--np", "abc"], "otoclab: unrecognized arguments: --np abc"),
    (["otoc", "--config", "c", "--point", "1,1"], "otoclab: unrecognized arguments: --point 1,1"),
    (["otoc", "--config", "c", "--oracle"], "otoclab: unrecognized arguments: --oracle"),
    (["otoc", "--out", "o"], "otoclab otoc: the following arguments are required: --config"),
    (["no-such-command", "--config", "c"],
     "otoclab: argument command: invalid choice: 'no-such-command'"),
    (["portrait", "--config", "c", "--frob"], "otoclab: unrecognized arguments: --frob"),
    (["reproduce-all", "--out", "o", "--only"],
     "otoclab reproduce-all: argument --only: expected one argument"),
    ([], "otoclab: the following arguments are required: command"),
], ids=["np_flag", "point_flag", "oracle_flag", "otoc_without_config", "unknown_subcommand",
        "unknown_flag", "only_without_value", "no_command"])
def test_usage_error_is_a_config_error(tmp_path, monkeypatch, capsys, argv, message):
    # argparse used to exit 2, the code of a numerical guard, by SystemExit
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err
    assert "Traceback" not in err and "usage:" not in err
    assert os.listdir(tmp_path) == []


def test_help_exits_0(capsys):
    for argv in (["--help"], ["otoc", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: otoclab")


def test_reproduce_all_single_figure(tmp_path):
    out = str(tmp_path / "o")
    assert main(["reproduce-all", "--out", out, "--only", "fig1"]) == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["figures"]["fig1"]["status"] == "ok"


@pytest.fixture
def diagonalized(monkeypatch):
    """Every propagator the CLI builds, as (dimension, weakref), in order."""
    built = []
    diagonalize = cli.diagonalize

    def recorded(H):
        prop = diagonalize(H)
        built.append((H.shape[0], weakref.ref(prop)))
        return prop

    monkeypatch.setattr(cli, "diagonalize", recorded)
    return built


@pytest.mark.parametrize("command, cfg", [
    ("otoc", small_cfg(n_p=(40, 30))),
    ("photon", small_cfg(n_p=(40, 30))),
    ("husimi", small_cfg(husimi=HusimiSpec(PhaseGrid(-6.0, 6.0, -6.0, 6.0, 21, 21),
                                           (0.0, 0.5)))),
])
def test_a_command_frees_its_propagators_when_it_returns(tmp_path, diagonalized,
                                                         command, cfg):
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert diagonalized
    gc.collect()
    assert [dim for dim, ref in diagonalized if ref() is not None] == []


def test_a_command_diagonalizes_each_truncation_once(tmp_path, diagonalized):
    # fig2b runs six points at n_p = 300 against its 4x reference; a second
    # run builds both again, because no propagator outlives a command
    for run in ("a", "b"):
        assert main(["reproduce-all", "--out", str(tmp_path / run), "--only", "fig2b"]) == 0
        assert sorted(dim for dim, _ in diagonalized) == [301, 1201]
        diagonalized.clear()
    # two points share their truncation's propagator
    cfg = small_cfg(points=(LabeledPoint("A", 2.0, -2.0), LabeledPoint("B", 1.0, 1.0)))
    assert main(["photon", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "photon")]) == 0
    assert sorted(dim for dim, _ in diagonalized) == [41, 161]


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
