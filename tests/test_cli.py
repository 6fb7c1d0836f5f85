import contextlib
import dataclasses
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

from otoclab import cli, husimi, output
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
from otoclab.fock import FockDim
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


def test_config_validation_errors(tmp_path, monkeypatch):
    # every refusal JSON can state is a row of FAILURES; here are the one it
    # cannot (a Python list for n_p) and the values allowed at each cap
    with pytest.raises(ConfigError, match="n_p must be a non-empty list"):
        small_cfg(n_p=[40])
    # a point too far out for the truncation builds: the commands that build
    # its coherent state refuse it (the far_point rows)
    small_cfg(points=(LabeledPoint("X", 9.0, 9.0),))

    # the RK4 step cap itself is allowed: portrait reaches its integration
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
    assert small_cfg(n_samples=10**5).n_samples == 10**5
    for n_q, n_p in ((1000, 1000), (2, 500000)):
        small_cfg(husimi=HusimiSpec(PhaseGrid(-6.0, 6.0, -6.0, 6.0, n_q, n_p), (0.0,)))
    assert small_cfg(n_p=(8000,)).n_p == (8000,)
    grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 21, 21)
    small_cfg(husimi=HusimiSpec(grid, (0.0,) * 100))
    # 1.4e19 / sqrt(2) is inside ALPHA_MAX = 1e19 (the alpha_max rows pass it)
    inside = PhaseGrid(-1.4e19, 1.4e19, -1.0, 1.0, 21, 21)
    assert small_cfg(husimi=HusimiSpec(inside, (0.0,))).husimi.grid == inside
    small_cfg(points=(LabeledPoint("F'", 2.0, -2.0), LabeledPoint("α", 1.0, 1.0)))


HIHO = {"system": "hiho", "gamma": 3.0, "g": 0.04}
GRID = {"q_min": -6.0, "q_max": 6.0, "p_min": -6.0, "p_max": 6.0, "n_q": 21, "n_p": 21,
        "snapshot_times": [0.0]}
# values JSON can state where a number is asked for: json writes and reads
# NaN and Infinity, an int may pass the float range, and true/false are no
# numbers
NOT_FINITE = {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "huge": -10**400,
              "str": "3", "bool": True, "null": None}
NOT_POSITIVE = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf,
                "ninf": -math.inf, "huge": 10**400, "str": "1", "bool": True, "null": None}
NOT_INT = {"fraction": 40.5, "float": 40.0, "str": "40", "bool": True}
FAR = {"points": [{"label": "pt", "q": 9.0, "p": 9.0}]}


def labelled(*labels):
    return {"points": [{"label": label, "q": 0.5 * i, "p": 0.0}
                       for i, label in enumerate(labels)]}


def refused(name, command, patch, message):
    """A FAILURES row whose input is a config error."""
    return pytest.param(command, patch, 1, "config error: " + message, id=name)


# Every failure, one row each: a command line, the patch of small_cfg's JSON
# it runs on (None: the command line is the whole input, else --config and
# --out are appended), the exit code and the start of stderr, or all of it
# when it ends in a newline.
FAILURES = [
    # a key that names no field, in each section, seen by two commands
    *[refused(f"unknown_key_{where}_{cmd}", cmd, patch, f"unknown key {key!r} in {name};")
      for where, key, name, patch in (
          ("top", "dtt", "the config", {"dtt": 5}),
          ("fit", "windw", "fit", {"fit": {"windw": [0.2, 0.8], "window": [0.2, 0.8]}}),
          ("husimi", "nq", "husimi", {"husimi": {**GRID, "nq": 21}}),
          ("point", "qq", "a point", {"points": [{"label": "A", "q": 2.0, "p": -2.0,
                                                   "qq": 1.0}]}))
      for cmd in ("otoc", "husimi")],
    # the output directory is named by --out alone, never by the config
    refused("output_dir", "otoc", {"output_dir": "named"}, "unknown key 'output_dir'"),
    refused("system", "otoc", {"system": "sho"}, "unknown system 'sho'\n"),
    refused("n_p_zero_points_empty", "otoc", {"n_p": [0], "points": [], "n_samples": 5},
            "n_p must be a non-empty list of integers >= 1, got (0,)\n"),
    refused("points_empty", "otoc", {"points": []}, "at least one initial point is required\n"),
    refused("hiho_without_parameters", "otoc", {"system": "hiho"},
            "hiho requires gamma and g\n"),
    *[refused(f"{key}_{name}_{cmd}", cmd, {key: bad},
              f"{key} must be positive and finite, got {bad!r}\n")
      for key in ("t_end", "dt") for name, bad in NOT_POSITIVE.items()
      for cmd in ("portrait", "otoc")],
    # the RK4 step cap guards only portrait, the one command that integrates
    refused("steps_not_finite", "portrait", {"t_end": 1e300, "dt": 1e-10},
            "t_end / dt = 1e+300 / 1e-10 is not a finite step count of at most 1000000\n"),
    refused("steps_past_cap", "portrait", {"t_end": 1000.5, "dt": 1e-3},
            "t_end / dt = 1000.5 / 0.001 is not a finite step count of at most 1000000\n"),
    # linspace(0, 5e-324, 3) repeats 0: a traceback after the directory was made
    *[refused(f"t_end_subnormal_{cmd}", cmd, {"t_end": 5e-324, "n_samples": 3},
              "t_end = 5e-324 is too small for n_samples = 3 strictly increasing times\n")
      for cmd in ("otoc", "photon")],
    *[refused(f"fit_{name}", "otoc", {"fit": fit}, message) for name, fit, message in (
        ("window_reversed", {"window": [0.8, 0.2]}, "fit window (0.8, 0.2) is neither"),
        ("window_empty", {"window": [0.5, 0.5]}, "fit window (0.5, 0.5) is neither"),
        ("window_three", {"window": [0.1, 0.2, 0.3]}, "fit window (0.1, 0.2, 0.3) is neither"),
        ("window_one", {"window": [0.1]}, "fit window (0.1,) is neither"),
        ("window_word", {"window": "automatic"}, "fit window 'automatic' is neither"),
        ("window_null", {"window": None}, "fit window None is neither"),
        # JSON booleans are not times
        ("window_bools", {"window": [False, True]}, "fit window (False, True) is neither"),
        # json reads Infinity, which otoc_summary.json could not write back
        ("window_inf", {"window": [0.2, math.inf]}, "fit window (0.2, inf) is neither"),
        ("window_ninf", {"window": [-math.inf, 0.6]}, "fit window (-inf, 0.6) is neither"),
        ("min_span_zero", {"window": "auto", "min_span": 0.0},
         "fit min_span must be positive and finite, got 0.0\n"),
        ("min_span_negative", {"window": "auto", "min_span": -0.1},
         "fit min_span must be positive and finite, got -0.1\n"),
        ("min_span_inf", {"window": "auto", "min_span": math.inf},
         "fit min_span must be positive and finite, got inf\n"),
        ("min_span_bool", {"window": "auto", "min_span": True},
         "fit min_span must be positive and finite, got True\n"),
        ("search_reversed", {"window": "auto", "search": [0.5, 0.1]},
         "fit search (0.5, 0.1) is not (t_lo, t_hi)"),
        ("search_empty", {"window": "auto", "search": [0.2, 0.2]},
         "fit search (0.2, 0.2) is not (t_lo, t_hi)"),
        ("search_inf", {"window": "auto", "search": [-math.inf, math.inf]},
         "fit search (-inf, inf) is not (t_lo, t_hi)"),
        ("search_bools", {"window": "auto", "search": [False, True]},
         "fit search (False, True) is not (t_lo, t_hi)"),
        # min_span and search would have no effect on a fixed window
        ("window_with_min_span", {"window": [0.2, 0.8], "min_span": 0.1},
         'fit min_span and search apply only to window "auto"\n'),
        ("window_with_search", {"window": [0.2, 0.8], "search": [0.0, 1.0]},
         'fit min_span and search apply only to window "auto"\n'),
    )],
    refused("n_p_empty", "otoc", {"n_p": []},
            "n_p must be a non-empty list of integers >= 1, got ()\n"),
    refused("n_p_number", "otoc", {"n_p": 40},
            "n_p must be a non-empty list of integers >= 1, got 40\n"),
    # iho has no parameters, so a stated gamma or g would only change the hash
    *[refused(f"iho_{name}", "otoc", patch, message) for name, patch, message in (
        ("gamma", {"gamma": 3.0}, "iho takes no gamma or g, got gamma=3.0, g=None\n"),
        ("g", {"g": 0.04}, "iho takes no gamma or g, got gamma=None, g=0.04\n"),
        ("both", {"gamma": 3.0, "g": 0.04}, "iho takes no gamma or g, got gamma=3.0, g=0.04\n"),
        ("gamma_nan", {"gamma": math.nan}, "iho takes no gamma or g, got gamma=nan, g=None\n"),
    )],
    *[row for name, bad in NOT_FINITE.items() for row in (
        *[refused(f"{key}_{name}", "otoc", {**HIHO, key: bad},
                  "hiho requires gamma and g\n" if bad is None
                  else f"{key} must be a finite number, got {bad!r}\n") for key in ("gamma", "g")],
        refused(f"q_{name}", "otoc", {"points": [{"label": "A", "q": bad, "p": 0.0}]},
                f"point A needs finite numbers q and p, got ({bad!r}, 0.0)\n"),
        refused(f"p_{name}", "otoc", {"points": [{"label": "A", "q": 0.0, "p": bad}]},
                f"point A needs finite numbers q and p, got (0.0, {bad!r})\n"),
        refused(f"snapshot_{name}", "husimi", {"husimi": {**GRID, "snapshot_times": [0.0, bad]}},
                f"husimi snapshot times must be a non-empty list of finite numbers, "
                f"got (0.0, {bad!r})\n"),
    )],
    # an empty list used to write no snapshot and a husimi.gp with no plot line
    refused("snapshots_empty", "husimi", {"husimi": {**GRID, "snapshot_times": []}},
            "husimi snapshot times must be a non-empty list of finite numbers, got ()\n"),
    *[row for name, bad in NOT_INT.items() for row in (
        refused(f"n_p_{name}", "otoc", {"n_p": [bad]},
                f"n_p must be a non-empty list of integers >= 1, got ({bad!r},)\n"),
        refused(f"n_samples_{name}", "otoc", {"n_samples": bad},
                f"n_samples must be an integer >= 2, got {bad!r}\n"),
    )],
    # past the caps; test_configs_past_the_caps_exit_1 runs the far larger
    # asks under a capped address space
    refused("n_samples_past_cap", "otoc", {"n_samples": 10**5 + 1},
            "n_samples = 100001 is past the cap of 100000\n"),
    *[refused(f"grid_{n_q}x{n_p}", "husimi", {"husimi": {**GRID, "n_q": n_q, "n_p": n_p}},
              f"husimi grid n_q x n_p = {n_q} x {n_p} is past the cap of 1000000 points\n")
      for n_q, n_p in ((100000, 100000), (1001, 1000), (2, 500001))],
    *[refused(f"n_p_past_cap_{len(n_p)}", "otoc", {"n_p": n_p},
              f"n_p = {max(n_p)} is past the cap of 8000\n") for n_p in ([10**6], [40, 8001])],
    refused("snapshots_past_cap", "husimi", {"husimi": {**GRID, "snapshot_times": [0.0] * 101}},
            "husimi asks for 101 snapshot times, past the cap of 100\n"),
    *[refused(f"grid_{name}", "husimi", {"husimi": {**GRID, "n_q": n_q, "n_p": n_p}},
              f"husimi n_q and n_p must be integers, got {n_q!r} and {n_p!r}\n")
      for name, n_q, n_p in (("n_q_fraction", 21.5, 21), ("n_p_float", 21, 21.0))],
    refused("grid_bound_ninf", "husimi", {"husimi": {**GRID, "q_min": -math.inf}},
            "husimi grid bounds must be finite numbers, got (-inf, 6.0, -6.0, 6.0)\n"),
    # at +-1e308 the command used to exit 0 with a .grid file of nan;
    # 1.5e19 / sqrt(2) is just past ALPHA_MAX = 1e19
    *[refused(f"alpha_max_{name}", "husimi",
              {"husimi": {**GRID, "q_min": -q, "q_max": q, "p_min": -p, "p_max": p}},
              "husimi grid corners reach |alpha| = ")
      for name, q, p in (("1e308", 1e308, 1e308), ("q", 1.5e19, 1.0), ("p", 1.0, 1.5e19))],
    # labels name the output files, and a newline split otoc.gp's plot line
    # inside a quoted string, and a NUL ended in a traceback from open()
    # after the evolution
    *[refused(f"labels_{name}", "otoc", labelled(*labels),
              f"point labels must be distinct, got {list(labels)}\n")
      for name, labels in (("repeated", ("A", "A")), ("repeated_later", ("A", "B", "A")))],
    *[refused(f"label_{name}", "otoc", labelled(label), f"point label {label!r} must be a "
              f"non-empty printable string without a path separator\n")
      for name, label in (("empty", ""), ("slash", "a/b"), ("os_sep", f"a{os.sep}b"),
                          ("number", 7), ("newline", "A\nB"), ("tab", "A\tB"),
                          ("nul", "A\x00B"))],
    # overflowing model coefficients: an OverflowError traceback from
    # gamma**4 or gamma**2, or v0 = inf and a file of nan with exit 0
    refused("gamma_1e100", "otoc", {**HIHO, "gamma": 1e100},
            "gamma = 1e+100 and g = 0.04 give coefficients past the float range: "
            "Model(kappa=1.0, v2=-2.5e+199, v4=0.04, v0=inf)\n"),
    refused("gamma_1e160", "portrait", {**HIHO, "gamma": 1e160},
            "gamma = 1e+160 and g = 0.04 give coefficients past the float range: "
            "Model(kappa=1.0, v2=-inf, v4=0.04, v0=inf)\n"),
    # a JSON int's power is exact, and dividing it raised OverflowError
    refused("gamma_int_1e200", "otoc", {**HIHO, "gamma": 10**200},
            f"gamma = {10**200} and g = 0.04 give coefficients past the float range: "
            "Model(kappa=1.0, v2=-inf, v4=0.04, v0=inf)\n"),
    *[refused(f"g_1e-320_{cmd}", cmd, {**HIHO, "g": 1e-320},
              "gamma = 3.0 and g = 1e-320 give coefficients past the float range: "
              "Model(kappa=1.0, v2=-2.25, v4=1e-320, v0=inf)\n") for cmd in ("otoc", "photon")],
    # a Hamiltonian whose largest absolute row sum, times the largest |t|
    # evolved to, is past PHASE_LIMIT, beyond which a phase lambda t rounds by
    # over 1e-6 rad: each exited 0, and wrote nan from a band that overflowed
    # (otoc at g = 1e305, photon's 4x reference at 1e304), a row sum that
    # did, or a phase that did (g = 1e200 at t = 1e105), or wrote a plausible
    # curve from phases with no correct digit (gamma = 1e75: C(1) = 25.04;
    # g = 1e303)
    *[refused(f"row_sum_{name}", cmd, {**HIHO, **patch}, f"n_p={k}: the Hamiltonian's "
              f"largest absolute row sum {bound} times t = {t} is past 4.5e+09 = 1e-6 / eps, "
              f"where a phase lambda t rounds by over 1e-6 rad\n")
      for name, cmd, patch, k, bound, t in (
          ("g_1e305_otoc", "otoc", {"g": 1e305}, 40, "inf", "1"),
          # every band finite (largest entry 1.1e308), but an eigenvalue not
          ("g_5e304_otoc", "otoc", {"g": 5e304}, 40, "inf", "1"),
          ("g_1e304_photon_reference", "photon", {"g": 1e304}, 160, "inf", "1"),
          ("g_1e303_otoc", "otoc", {"g": 1e303}, 40, "5.33e+306", "1"),
          ("t_end_otoc", "otoc", {"g": 1e200, "t_end": 1e105, "n_samples": 2}, 40,
           "5.33e+203", "1e+105"),
          ("t_end_photon", "photon", {"g": 1e200, "t_end": 1e105, "n_samples": 2}, 160,
           "9.8e+204", "1e+105"),
          ("snapshot_husimi", "husimi", {"g": 1e200, "husimi": {**GRID,
                                                               "snapshot_times": [0, 1e105]}},
           40, "5.33e+203", "1e+105"),
          *[(f"gamma_1e75_{cmd}", cmd, {"gamma": 1e75, "n_p": [60], **extra}, k,
             bound, "1") for cmd, extra, k, bound in (
              ("otoc", {}, 60, "2.92e+151"),
              ("photon", {}, 240, "1.19e+152"),
              ("husimi", {"husimi": {**GRID, "snapshot_times": [0.0, 1.0]}}, 60,
               "2.92e+151"))])],
    # a portrait seed whose energy is past the float range: an OverflowError
    # traceback from q**4 (hiho), or rows of inf (iho)
    refused("seed_energy_hiho", "portrait",
            {**HIHO, "points": [{"label": "A", "q": 1e100, "p": 0.0}]},
            "point A (1e+100, 0.0) has a classical energy past the float range\n"),
    refused("seed_energy_iho", "portrait", {"points": [{"label": "A", "q": 1e307, "p": 0.0}]},
            "point A (1e+307, 0.0) has a classical energy past the float range\n"),
    # every command that builds a coherent state checks the tail first:
    # husimi refuses it before it misses its husimi section
    *[refused(f"far_point_{cmd}", cmd, FAR, "point pt (9.0, 9.0) violates the coherent tail "
              "precondition at n_p=40\n") for cmd in ("photon", "otoc", "husimi")],
    # each n_p names its files: otoc wrote otoc_A_np40.csv twice and listed
    # the run twice in its summary and its plot script
    *[refused(f"n_p_repeated_{cmd}", cmd, {"n_p": [40, 40]},
              "n_p values must be distinct, got [40, 40]\n") for cmd in ("otoc", "photon")],
    # checks that used to run after the output directory was made; husimi
    # with two truncations used to run the first alone
    refused("husimi_without_section", "husimi", {},
            "husimi command requires a husimi section with snapshot times\n"),
    refused("husimi_two_truncations", "husimi", {"n_p": [40, 60], "husimi": GRID},
            "husimi command takes exactly one n_p, got [40, 60]\n"),
    refused("unknown_figure", "reproduce-all --only fig99 --out o", None,
            "unknown figure 'fig99'; choose from ['fig1', "),
    # a bad command line: argparse used to exit 2, the code of a numerical
    # guard; a run is its config file, so the flags that overrode n_p or the
    # point, or added an oracle column, are gone, also beside a valid config
    *[refused(f"usage_{name}", command, None, f"otoclab{message}") for name, command, message in (
        ("np_flag", "otoc --config c --np abc", ": unrecognized arguments: --np abc\n"),
        ("point_flag", "otoc --config c --point 1,1", ": unrecognized arguments: --point 1,1\n"),
        ("oracle_flag", "otoc --config c --oracle", ": unrecognized arguments: --oracle\n"),
        ("otoc_without_config", "otoc --out o",
         " otoc: the following arguments are required: --config\n"),
        ("unknown_subcommand", "no-such-command --config c",
         ": argument command: invalid choice: 'no-such-command'"),
        ("unknown_flag", "portrait --config c --frob", ": unrecognized arguments: --frob\n"),
        ("only_without_value", "reproduce-all --out o --only",
         " reproduce-all: argument --only: expected one argument\n"),
        ("no_command", "", ": the following arguments are required: command\n"),
    )],
    refused("usage_oracle_flag_valid_config", "otoc --oracle", {},
            "otoclab: unrecognized arguments: --oracle\n"),
    # real inputs that trip a numerical guard (exit 2) or miss an analysis (3)
    pytest.param("portrait", {**HIHO, "points": [{"label": "F", "q": 8.0, "p": 9.0}],
                              "dt": 0.05}, 2,
                 "numerical guard: energy drift 3.200e-03 at t=0.05 exceeds 1.008e-06; "
                 "reduce dt\n", id="step_too_large"),
    # the bound used to scale with v0 = 1.3e304, which hid any drift: exit 0
    # with an end point 530 times off the dt = 1e-3 run's; the flow's own
    # energy E0 = -5 bounds the drift by 5e-8
    pytest.param("portrait", {**HIHO, "g": 1e-304, "t_end": 10.0, "dt": 2.0}, 2,
                 "numerical guard: energy drift 1.782e+04 at t=2 exceeds 5.000e-08; "
                 "reduce dt\n", id="tiny_g_step_too_large"),
    # the drift guard read a NaN energy as a pass: 92,009 rows of inf or
    # nan and exit 0; a float power past the float range was a traceback
    pytest.param("portrait", {"points": [{"label": "A", "q": 1.0, "p": 1.0}],
                              "t_end": 800.0}, 2,
                 "numerical guard: the energy at t=355.238 is not finite: the orbit has left "
                 "the float range\n", id="orbit_leaves_float_range_iho"),
    pytest.param("portrait", {**HIHO, "points": [{"label": "F", "q": 8.0, "p": 9.0}],
                              "t_end": 1e100, "dt": 1e100}, 2,
                 "numerical guard: the energy at t=1e+100 is not finite: the orbit has left "
                 "the float range\n", id="orbit_leaves_float_range_hiho"),
    pytest.param("photon", {"points": [{"label": "B", "q": 3.0, "p": 3.0}], "t_end": 3.0}, 2,
                 "numerical guard: B/ref: tail population 8.348e-05 above n=144 at t=0.9 "
                 "exceeds 1e-06; increase n_p\n", id="reference_truncation_guard"),
    # the reference's guard sees the growth once H leaves out v0 = 1.3e304,
    # which used to swamp the dynamics: exit 0 with <n> = 4 throughout
    pytest.param("photon", {**HIHO, "g": 1e-304, "n_p": [60]}, 2,
                 "numerical guard: A/ref: tail population 3.212e-06 above n=216 at t=0.55 "
                 "exceeds 1e-06; increase n_p\n", id="tiny_g_reference_truncation_guard"),
    # ehrenfest_time needs n_p >= 2
    pytest.param("otoc", {"n_p": [1], "points": [{"label": "pt", "q": 0.0, "p": 0.0}],
                          "fit": {"window": [0.2, 0.8]}}, 3,
                 "analysis: n_p must be >= 2, got 1\n", id="invalid_rate"),
]


@pytest.mark.parametrize("command, patch, code, message", FAILURES)
def test_every_failure_exits_with_its_code_and_message(tmp_path, monkeypatch, capsys,
                                                       command, patch, code, message):
    # run from an empty directory, where --out o and the default otoclab_out
    # both land, so that a config error is seen to leave nothing on disk
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = command.split()
    if patch is not None:
        argv += ["--config", _patched_cfg_file(tmp_path, "cfg", patch), "--out", "o"]
    assert main(argv) == code
    err = capsys.readouterr().err
    # a message that ends its line is the whole of stderr
    assert err == message if message.endswith("\n") else err.startswith(message), err
    assert "Traceback" not in err and "usage:" not in err
    if code == 1:
        assert os.listdir(cwd) == []


def test_otoc_runs_at_half_the_phase_limit(tmp_path):
    # the refusal is not too tight: g = 4.2e5 gives a row sum of 2.24e9 at
    # n_p = 40, just under half of PHASE_LIMIT at t_end = 1
    patch = {**HIHO, "g": 4.2e5}
    H = small_cfg(**patch).hamiltonian(FockDim(40))
    assert 0.49 < H.max_row_sum / cli.PHASE_LIMIT < 0.5
    cfg = _patched_cfg_file(tmp_path, "half", patch)
    out = tmp_path / "out"
    assert main(["otoc", "--config", cfg, "--out", str(out)]) == 0
    C = np.loadtxt(out / "otoc_A_np40.csv", delimiter=",", skiprows=1)[:, 1]
    assert C.size == 21 and np.all(np.isfinite(C))


def test_otoc_grows_at_a_tiny_g(tmp_path):
    # g = 1e-304 gives v0 = 1.3e304, which H used to carry and which swamped
    # the dynamics: C stayed at 0.5 and otoc exited 0
    cfg = _patched_cfg_file(tmp_path, "g_1e-304", {**HIHO, "g": 1e-304, "n_p": [60]})
    out = tmp_path / "out"
    assert main(["otoc", "--config", cfg, "--out", str(out)]) == 0
    t, C = np.loadtxt(out / "otoc_A_np60.csv", delimiter=",", skiprows=1).T
    assert t[-1] == 1.0 and C[-1] > 20


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
    prop = cli.diagonalize(cli._hamiltonians(cfg, 2.5, 40)[40])
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
        centroid, mom = husimi_second_moments(hg)
        assert entry["centroid"] == list(husimi_centroid(hg)) == list(centroid)
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


def test_husimi_integrates_each_snapshot_grid_seven_times(tmp_path, monkeypatch):
    # the norm once, the centroid three times and the moments three times: the
    # centroid comes with the moments, where it used to be integrated apart
    calls = []
    trapz2 = husimi._trapz2

    def counted(vals, grid):
        calls.append(grid)
        return trapz2(vals, grid)

    monkeypatch.setattr(husimi, "_trapz2", counted)
    cfg = cli._load_bundled("fig8")
    snapshots = cli.cmd_husimi(cfg, str(tmp_path))["summary"]["snapshots"]
    assert len(snapshots) == 8 and all(s["centroid"] is not None for s in snapshots)
    assert len(calls) == 7 * 8 == 56


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


def test_husimi_captures_the_earliest_snapshot_in_any_order(tmp_path, capsys):
    # fig5's packet from B = (3, 3) leaves a +-8 window by t = 1.4: the
    # snapshot at the smallest |t| is held to the grid wherever it sits in
    # the list, and a missed one that is not at t = 0 gets no window hint
    def run(times):
        name = "_".join(map(str, times))
        cfg = write_cfg(tmp_path, dataclasses.replace(
            cli._load_bundled("fig5"),
            points=(LabeledPoint("B", 3.0, 3.0),),
            husimi=HusimiSpec(grid=PhaseGrid(-8.0, 8.0, -8.0, 8.0, 81, 81),
                              snapshot_times=times),
        ), f"{name}.json")
        code = main(["husimi", "--config", cfg, "--out", str(tmp_path / name)])
        return code, capsys.readouterr().err

    summaries = []
    for times in ((0.0, 1.4), (1.4, 0.0)):
        assert run(times) == (0, "")
        summary = json.loads((tmp_path / "_".join(map(str, times)) / "husimi_summary.json")
                             .read_text())
        summaries.append({s["time"]: s for s in summary["snapshots"]})
    first, swapped = summaries
    assert first[0.0]["centroid"] == swapped[0.0]["centroid"] is not None
    assert first[1.4]["centroid"] is swapped[1.4]["centroid"] is None
    code, err = run((2.6, 1.4))
    assert code == 2
    assert "grid misses the packet at B at its earliest snapshot, t = 1.4" in err
    assert "try" not in err


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


def test_portrait_is_not_refused_for_the_coherent_tail(tmp_path):
    # a classical portrait builds no state, so no truncation can fail it
    out = tmp_path / "o"
    cfg = _patched_cfg_file(tmp_path, "far", FAR)
    assert main(["portrait", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "portrait_pt.csv").exists()


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
        first, second = (os.path.join(out, name) for out in (out1, out2))
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read(), name


def test_manifest_entries(tmp_path):
    cfg_obj = small_cfg()
    cfg = write_cfg(tmp_path, cfg_obj)
    out = str(tmp_path / "out")
    assert main(["otoc", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "manifest.jsonl"), encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
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


def test_help_exits_0(capsys):
    for argv in (["--help"], ["otoc", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: otoclab")


def test_reproduce_all_single_figure(tmp_path):
    out = str(tmp_path / "o")
    assert main(["reproduce-all", "--out", out, "--only", "fig1"]) == 0
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
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


def test_faithful_until_reads_nan_as_a_departure():
    # nan > rtol is False, so a nan sample used to read as faithful
    run = cosh_series("B", 75)
    assert cli._faithful_until(run, 0.05) is None
    run.values[20] = np.nan
    assert cli._faithful_until(run, 0.05) == run.times[20]


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
