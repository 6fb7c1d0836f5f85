"""Deterministic file output: CSV series, JSON summaries, self-describing
Husimi grid files, gnuplot scripts, and a JSON-lines manifest.

All floats are written with 17 significant digits, LF endings, UTF-8, and
JSON keys sorted, so identical configs reproduce bit-identical data files,
manifest included: it records no times. CSV and grid values are formatted
by one vectorised kernel (``_g17.write_rows``) whose bytes equal
``'%.17g' % x`` for every float64; ``fmt`` formats the grid header.

This module is a command's one file-system boundary: a directory that cannot
be created, a config, data file or manifest that cannot be read or written,
and a manifest line that is not a record raise ConfigError naming the path.
A command opens its ``Manifest`` after its own checks and before it
computes, so a config error leaves nothing on disk, and a torn manifest is
found before any data file is written.
"""
from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from . import __version__
from ._g17 import write_rows
from .errors import ConfigError
from .husimi import HusimiGrid


CSV_ROW_BLOCK = 1024


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def make_dir(path: str) -> None:
    """``os.makedirs(path, exist_ok=True)``; an OSError becomes ConfigError
    naming the directory."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{exc.strerror or exc}") from exc


@contextlib.contextmanager
def _opened(path: str, mode: str, **kwargs):
    """``open(path, mode, **kwargs)``; an OSError or a decoding error while
    the file is open becomes ConfigError naming the path."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        verb = "read" if mode.startswith("r") else "write"
        raise ConfigError(f"cannot {verb} {path}: {reason}") from exc


def _recorded_file(line: str, path: str) -> str:
    """The "file" of one manifest line."""
    try:
        record = json.loads(line)
    except ValueError:
        record = None
    if not (isinstance(record, dict) and "file" in record):
        raise ConfigError(f"{path} holds a line that is not a manifest record: {line[:80]!r}")
    return record["file"]


class Manifest:
    """Single-writer JSONL manifest for one output directory, holding one
    record per file: recording a file again replaces its older record.

    Opening it creates the directory and reads and checks a manifest already
    there, once; ``record`` rewrites the file from the records it holds."""

    def __init__(self, out_dir: str, config_hash: str):
        make_dir(out_dir)
        self.path = os.path.join(out_dir, "manifest.jsonl")
        self.config_hash = config_hash
        # (file, line) per record, in file order; a last line without its
        # newline gets one, so no record is glued onto it
        self._records = []
        if os.path.exists(self.path):
            with _opened(self.path, "r", encoding="utf-8") as fh:
                self._records = [(_recorded_file(line, self.path), line.rstrip("\n") + "\n")
                                 for line in fh]

    def record(self, file_path: str):
        entry = {
            "config_hash": self.config_hash,
            "file": os.path.basename(file_path),
            "versions": {
                "numpy": np.__version__,
                "otoclab": __version__,
            },
        }
        name = entry["file"]
        self._records = [(f, line) for f, line in self._records if f != name]
        self._records.append((name, json.dumps(entry, sort_keys=True) + "\n"))
        with _opened(self.path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line for _, line in self._records)


def write_csv(path: str, header: list[str], columns: list[np.ndarray],
              manifest: Manifest | None = None):
    # CSV_ROW_BLOCK rows are stacked at a time to bound the memory
    columns = [np.asarray(col, dtype=float) for col in columns]
    if len({len(col) for col in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    with _opened(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for j in range(0, len(columns[0]), CSV_ROW_BLOCK):
            write_rows(fh, np.column_stack([col[j:j + CSV_ROW_BLOCK] for col in columns]), b",")
    if manifest is not None:
        manifest.record(path)


def write_json(path: str, obj, manifest: Manifest | None = None):
    with _opened(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if manifest is not None:
        manifest.record(path)


def write_grid(path: str, hg: HusimiGrid, manifest: Manifest | None = None):
    """Self-describing text grid: header 'q_min q_max n_q p_min p_max n_p',
    then row-major Q values, one grid row per line."""
    g = hg.grid
    with _opened(path, "wb") as fh:
        fh.write(
            f"{fmt(g.q_min)} {fmt(g.q_max)} {g.n_q} "
            f"{fmt(g.p_min)} {fmt(g.p_max)} {g.n_p}\n".encode()
        )
        write_rows(fh, hg.values, b" ")
    if manifest is not None:
        manifest.record(path)


def read_grid(path: str) -> tuple[tuple[float, float, int, float, float, int], np.ndarray]:
    """The header and the n_q x n_p values of a ``write_grid`` file; a file
    that does not hold one raises ConfigError naming the path."""
    with _opened(path, "r", encoding="utf-8") as fh:
        parts = fh.readline().split()
        text = fh.read()
    try:
        if len(parts) != 6:
            raise ValueError(f"its header has {len(parts)} fields, not 6")
        hdr = (float(parts[0]), float(parts[1]), int(parts[2]),
               float(parts[3]), float(parts[4]), int(parts[5]))
        vals = np.array(text.split(), dtype=float)
        if vals.size != hdr[2] * hdr[5]:
            raise ValueError(f"it holds {vals.size} values, not {hdr[2]} x {hdr[5]}")
        return hdr, vals.reshape(hdr[2], hdr[5])
    except ValueError as exc:
        raise ConfigError(f"{path} is not a Husimi grid file: {exc}") from exc


def write_gnuplot(path: str, lines: list[str], manifest: Manifest | None = None):
    with _opened(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if manifest is not None:
        manifest.record(path)
