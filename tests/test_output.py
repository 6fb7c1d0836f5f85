import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otoclab import _ckernel
from otoclab._g17 import BLOCK, write_rows
from otoclab.errors import ConfigError
from otoclab.evolution import evolve
from otoclab.fock import CoherentParams, FockDim, coherent_state
from otoclab.husimi import PhaseGrid, husimi_q
from otoclab.output import CSV_ROW_BLOCK, Manifest, fmt, read_grid, write_csv, write_grid

WIDE_GRID = PhaseGrid(-40.0, 40.0, -40.0, 40.0, 161, 161)


def _numpy_path():
    """The writers on numpy's formatter, forced by hiding the C kernel."""
    return mock.patch.object(_ckernel, "load", lambda: None)


# the C kernel wherever it builds, then numpy's formatter
PATHS = (contextlib.nullcontext, _numpy_path)


def _written(block, sep):
    """What write_rows writes of a 2-D block."""
    fh = io.BytesIO()
    write_rows(fh, block, sep)
    return fh.getvalue()


def _oracle(block, sep):
    """Python's own '%.17g', one value at a time: the bytes write_rows must
    write for a 2-D block."""
    return "".join(sep.join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(block, dtype=float).tolist()).encode()


def _reference_write_grid(path, hg):
    """write_grid as it was: one fmt call per value."""
    g = hg.grid
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"{fmt(g.q_min)} {fmt(g.q_max)} {g.n_q} "
            f"{fmt(g.p_min)} {fmt(g.p_max)} {g.n_p}\n"
        )
        for row in hg.values:
            fh.write(" ".join(fmt(v) for v in row) + "\n")


def _reference_write_csv(path, header, columns):
    """write_csv as it was: one fmt call per value."""
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(fmt(col[i]) for col in columns) + "\n")


_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
            1.0, -3.0, 4096.0, 1e16, 2.0**53 + 2, 1e22, 0.1, 1 / 3]


@pytest.mark.parametrize("case", ["special", "random", "integers", "one_column", "empty"])
def test_write_csv_equals_reference_bytes(tmp_path, case):
    rng = np.random.default_rng(5)
    if case == "special":
        single = [np.nan, np.inf, -0.0, 1e-45, 3.4028235e38, 0.1, 1 / 3] * 3
        columns = [np.array(_SPECIAL), np.array(_SPECIAL[::-1]),
                   np.array(single[:len(_SPECIAL)], dtype=np.float32)]
    elif case == "random":
        n = 2 * CSV_ROW_BLOCK + 7
        columns = [np.linspace(0.0, 4.0, n), rng.standard_normal(n),
                   np.exp(rng.uniform(-700, 700, n)) * rng.choice([-1, 1], n)]
    elif case == "integers":
        columns = [np.arange(-50, 50), np.arange(100) * 2.0**40, [float(k) for k in range(100)]]
    elif case == "one_column":
        columns = [rng.standard_normal(7)]
    else:
        columns = [np.zeros(0), []]
    header = [f"c{k}" for k in range(len(columns))]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _reference_write_csv(str(want), header, columns)
    for path in PATHS:
        with path():
            write_csv(str(got), header, columns)
        assert got.read_bytes() == want.read_bytes(), path


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "x.csv"), ["a", "b"], [np.zeros(3), np.zeros(4)])


def test_write_csv_memory_is_bounded_by_the_row_block(tmp_path):
    # Python floats for one block of rows, not for the whole table: 40001 x 3
    # values as Python floats would take about 3.7 MiB
    n = 40001
    columns = [np.linspace(0.0, 4.0, n), np.ones(n), np.zeros(n)]
    for path in PATHS:
        with path():
            tracemalloc.start()
            try:
                write_csv(str(tmp_path / "x.csv"), ["t", "a", "b"], columns)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 64 * len(columns) * CSV_ROW_BLOCK + 64 * 1024, path


_BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_subnormal=True), _BITS), min_size=1, max_size=48))
def test_format_rows_equals_percent_17g_for_any_float64(values):
    # st.floats covers nan, inf, zeros and subnormals; the bit patterns
    # cover every exponent evenly
    column = np.array(values).reshape(-1, 1)
    for path in PATHS:
        with path():
            assert _written(column, b",") == _oracle(column, ",")
            assert _written(column.T, b" ") == _oracle(column.T, " ")


def _edge_values():
    powers = np.array([10.0**k for k in range(-323, 309)])
    ties = ([m / 4 for m in range(4 * 10**15 + 1, 4 * 10**15 + 400)]
            + [m / 2**k for k in range(1, 12) for m in range(2**53 - 300, 2**53)]
            + [(2**53 + 2 * m + 1) * 2.0**k for k in range(0, 8) for m in range(50)])
    switches = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999992e22, 1e-270, 1e290,
                1e-78]  # 1e-78 is below 10^-78 and rounds up to it at 17 digits
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308]
    values = np.concatenate([powers, ties, switches])
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values, special])


def test_format_rows_equals_percent_17g_on_edge_values():
    # powers of ten +/- 1 ulp over the whole range, exact ties at the 18th
    # digit, the fixed/scientific switches and the range limits of the fast
    # path, tables larger than BLOCK included
    values = _edge_values()
    for cols in (1, 7):
        block = values[:values.size // cols * cols].reshape(-1, cols)
        want = _oracle(block, " ")
        for path in PATHS:
            with path():
                assert _written(block, b" ") == want


def test_write_grid_equals_reference_bytes(tmp_path, hiho_prop):
    # an evolved HIHO state at D = 601 on the +/-40 grid, where Q spans
    # about 1e-300 to 0.3
    psi0 = coherent_state(FockDim(600), CoherentParams(8.0, 9.0))
    hg = husimi_q(evolve(hiho_prop(600), psi0, 1.2), WIDE_GRID)
    got, want = tmp_path / "got.grid", tmp_path / "want.grid"
    _reference_write_grid(str(want), hg)
    for path in PATHS:
        with path():
            write_grid(str(got), hg)
        assert got.read_bytes() == want.read_bytes(), path
    assert np.array_equal(read_grid(str(got))[1], hg.values)


def test_write_grid_memory_is_bounded_by_the_block(tmp_path):
    # formatting the whole 161^2 grid at once would take about 3.5 MB
    rng = np.random.default_rng(2)
    hg = husimi_q(coherent_state(FockDim(60), CoherentParams(1.0, -2.0))
                  * np.exp(1j * rng.uniform(0, 6, 61)), WIDE_GRID)
    for path in PATHS:
        with path():
            tracemalloc.start()
            try:
                write_grid(str(tmp_path / "x.grid"), hg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 200 * BLOCK + 64 * 1024, path


def test_tables_are_built_on_first_write_not_at_import():
    code = ("import io, otoclab.cli, otoclab._g17 as g; n = g._tables.cache_info().currsize; "
            "g.write_rows(io.BytesIO(), g.np.ones((1, 1)), b' '); "
            "print(n, g._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.split() == ["0", "1"]


def test_manifest_record_after_a_last_line_without_its_newline(tmp_path):
    # the old last record keeps its own line; the next record still reads it
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"file": "a.csv"}', encoding="utf-8")
    manifest = Manifest(str(tmp_path), "ab")
    manifest.record(str(tmp_path / "b.csv"))
    manifest.record(str(tmp_path / "c.csv"))
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert [json.loads(line)["file"] for line in text.splitlines()] == ["a.csv", "b.csv", "c.csv"]


def test_read_grid_of_a_missing_file_is_a_config_error(tmp_path):
    # a plain open raised FileNotFoundError
    path = tmp_path / "missing.grid"
    with pytest.raises(ConfigError, match=f"^cannot read {re.escape(str(path))}: "):
        read_grid(str(path))


@pytest.mark.parametrize("text, reason", [
    ("", "its header has 0 fields, not 6"),
    ("0 1 2 0 1\n1 2\n3 4\n", "its header has 5 fields, not 6"),
    ("0 1 2 0 1 x\n1 2\n3 4\n", "invalid literal for int"),
    ("0 1 2 0 1 2\n1 2\n3\n", "it holds 3 values, not 2 x 2"),
])
def test_read_grid_of_a_torn_file_is_a_config_error(tmp_path, text, reason):
    # an empty file and a short header raised IndexError, a bad number and
    # a wrong value count ValueError
    path = tmp_path / "torn.grid"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))} is not a Husimi grid file: "
                                          f"{re.escape(reason)}"):
        read_grid(str(path))
