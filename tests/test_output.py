import tracemalloc

import numpy as np
import pytest

from otoclab.output import CSV_ROW_BLOCK, fmt, write_csv


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


@pytest.mark.parametrize("case", ["special", "random", "integers", "one_column"])
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
    else:
        columns = [rng.standard_normal(7)]
    header = [f"c{k}" for k in range(len(columns))]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(str(got), header, columns)
    _reference_write_csv(str(want), header, columns)
    assert got.read_bytes() == want.read_bytes()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "x.csv"), ["a", "b"], [np.zeros(3), np.zeros(4)])


def test_write_csv_memory_is_bounded_by_the_row_block(tmp_path):
    # Python floats for one block of rows, not for the whole table: 40001 x 3
    # values as Python floats would take about 3.7 MiB
    n = 40001
    columns = [np.linspace(0.0, 4.0, n), np.ones(n), np.zeros(n)]
    tracemalloc.start()
    try:
        write_csv(str(tmp_path / "x.csv"), ["t", "a", "b"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * len(columns) * CSV_ROW_BLOCK + 64 * 1024
