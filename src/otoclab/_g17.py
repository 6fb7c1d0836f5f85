"""Byte-exact ``'%.17g' % x`` for float64 tables.

``write_rows(fh, table, sep)`` writes a 2-D table as one line per row with
the fields joined by ``sep``; every field is the text ``'%.17g' % x`` gives.
It runs one method in two places: in ``_ckernel``'s
``otoclab_g17``, a value at a time, where the kernel builds, and here in
numpy, a block at a time, where it does not. Both read the same table of
powers of ten, apply the same proof and leave the same values to Python's
own ``'%.17g'``, so both give the same bytes. The C loop estimates each
decade from the binary exponent and writes the text directly; the rest is
as follows.

Method, per block of values:

- Estimate ``E = floor(log10|x|)`` and form ``N = |x| 10^(16-E)`` as an
  integer part and a fraction: ``10^k`` is a double-double ``hi + lo``
  from a table, and ``|x| hi`` is split exactly into a product and its
  rounding error (Dekker's product), so the error in ``N`` is below 1e-14
  and no fused multiply-add is needed. Where the integer part lies outside
  [1e16, 1e17), ``E`` was off by one and is corrected once.
- Round ``N`` to 17 digits (a round-up to 1e17 moves to the next decade),
  split them into byte lanes by multiply and shift, and assemble the
  ``%g`` layout as four 64-bit words a value from lookup tables: fixed
  notation for ``-4 <= E < 17``, otherwise ``d.ddde±XX``, trailing zeros
  stripped. Zero bytes pad each field and are deleted at the end.
- Zero takes the digits of R = 0 in fixed notation, so ±0 give "0" and
  "-0". A value the fast path cannot prove falls back to Python's own
  ``'%.17g'``: inf, nan, a nonzero ``|x|`` outside [1e-270, 1e290], a
  fraction within 1e-7 of ½ (``m/4`` with 16 integer digits is a true tie),
  and a decade still unresolved after the correction.

The tables (about 60 kB) are built on the first call, not at import.
Working memory is under 200 bytes per value of one block of at most
``BLOCK`` values, whatever the size of the table.
"""
from __future__ import annotations

import functools
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from . import _ckernel

BLOCK = 1024  # values formatted per call

_FAST_MIN, _FAST_MAX = 1e-270, 1e290
_TIE = 1e-7
_POW_MIN, _POW_MAX = -280, 290  # 10^k for every k = 16 - E the fast path uses
_EXP_MIN = -300                 # exponent table covers E in [-300, 300]
_SPLIT = 134217729.0            # 2^27 + 1: Veltkamp's splitter
_FIELD = 25                     # bytes of the longest field and its separator
_LE64 = np.dtype("<u8")


class _Tables(NamedTuple):
    pow10: np.ndarray  # (4, K): hi, lo, and hi split into 26-bit halves
    masks: np.ndarray  # (9, 23 * 18) by (class, digits): for each of the
                       # three region words, the digits kept in place, the
                       # digits moved one byte on past the dot, and the dot
    heads: np.ndarray  # sign and "0.000" prefix by (sign, class)
    klass: np.ndarray  # class clip(E, -5, 17) + 5 by exponent
    exps: np.ndarray   # "e±XX" by exponent, blank in fixed notation


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _pow10(k: int) -> tuple[float, float]:
    """10^k as a double-double, both parts correctly rounded."""
    if k >= 0:
        p = 10**k
        hi = float(p)
        return hi, float(p - int(hi))
    p = 10**-k
    hi = 1 / p
    num, den = hi.as_integer_ratio()
    return hi, (den - num * p) / (den * p)


def _masks(E: int, k: int) -> bytes:
    """The three 24-byte masks of the digit region of a value with decimal
    exponent E and k significant digits: the digits that stay at their byte
    (up to digit dp, the one before the dot), the digits that move one byte
    on past the dot, and the dot. Fixed notation keeps every integer digit,
    trailing zeros included."""
    if E < -4 or E >= 17:
        dp, keep = 0, k
    elif E < 0:
        dp, keep = 17, k  # "0.000" prefix, no dot among the digits
    else:
        dp, keep = E, max(k, E + 1)
    left = (1 << 8 * min(dp + 1, keep)) - 1
    right = dot = 0
    if keep > dp + 1:
        right = (1 << 8 * (keep + 1)) - (1 << 8 * (dp + 2))
        dot = ord(".") << 8 * (dp + 1)
    return b"".join(m.to_bytes(24, "little") for m in (left, right, dot))


def _words(texts: list[bytes]) -> np.ndarray:
    """Each text, zero padded to 8 bytes, as one little-endian word."""
    out = bytearray(8 * len(texts))
    for i, text in enumerate(texts):
        out[8 * i:8 * i + len(text)] = text
    return np.frombuffer(out, _LE64)


@functools.cache
def _tables() -> _Tables:
    ks = range(_POW_MIN, _POW_MAX + 1)
    pow10 = np.empty((4, len(ks)))
    for i, k in enumerate(ks):
        pow10[:2, i] = _pow10(k)
    pow10[2], pow10[3] = _split(pow10[0])

    # one row per class c = clip(E, -5, 17) + 5 and significant digits k
    masks = b"".join(_masks(c - 5, k) for c in range(23) for k in range(18))
    masks = np.frombuffer(masks, _LE64).reshape(-1, 9).T.copy()

    prefix = [b"0." + b"0" * (-E - 1) if -5 < E < 0 else b"" for E in range(-5, 18)]
    heads = _words(prefix + [b"-" + p for p in prefix])
    # "e±XX" sits in bytes 2-6 of the last word, after the region's last two
    exponents = range(_EXP_MIN, -_EXP_MIN + 1)
    exps = _words([b"" if -4 <= E < 17 else b"\0\0e%+03d" % E for E in exponents])
    klass = np.clip(np.array(exponents), -5, 17) + 5
    return _Tables(pow10, masks, heads, klass, exps)


def _scaled(a: np.ndarray, E: np.ndarray, pow10: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16-E) as its integer part (int64) and fraction in [0, 1)."""
    k = 16 - _POW_MIN - E
    hi, lo, hh, hl = pow10
    p = a * hi[k]
    ah, al = _split(a)
    err = ah * hh[k]  # the rounding error of p, exactly (Dekker), then a lo
    err -= p
    err += ah * hl[k]
    err += al * hh[k]
    err += al * hl[k]
    err += a * lo[k]
    whole = np.floor(p)
    err += p - whole
    carry = np.floor(err)
    err -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), err


def _decimal(x: np.ndarray, pow10: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, R, fast): |x| rounds to R 10^(E-16) with R in [1e16, 1e17)
    wherever fast is True, and R = E = 0 (written "0") where x is zero."""
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    R, frac = _scaled(a, E, pow10)
    step = (R < 10**16).astype(np.int64) - (R >= 10**17)
    redo = step.nonzero()[0]
    if redo.size:
        E[redo] -= step[redo]
        R[redo], frac[redo] = _scaled(a[redo], E[redo], pow10)
        fast[redo] &= (R[redo] >= 10**16) & (R[redo] < 10**17)
    frac -= 0.5
    fast &= np.abs(frac) >= _TIE
    R += frac > 0
    up = R == 10**17
    R[up] = 10**16
    E += up
    R[zero] = 0
    E[zero] = 0
    return E, R, fast | zero


def _digit_words(R: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits of R as ASCII bytes 0-16 of three little-endian words,
    and the number of R's trailing zeros."""
    d0 = R // 10**16
    rest = R - d0 * 10**16
    top = rest // 10**8
    x = np.empty((R.size, 2), _LE64)  # digits 1-8 and 9-16
    x[:, 0] = top
    x[:, 1] = rest - top * 10**8
    # split each word into 4-, 2- then 1-digit lanes, most significant in
    # the low lane, dividing by multiply and shift (exact for these ranges)
    hi = x // 10**4
    x -= hi * 10**4
    x <<= 32
    x |= hi
    hi = (x * 10486 >> 20) & 0x0000007F0000007F
    x -= hi * 100
    x <<= 16
    x |= hi
    hi = (x * 103 >> 10) & 0x000F000F000F000F
    x -= hi * 10
    x <<= 8
    x |= hi
    # trailing zeros of a word: 8 less the bytes its bit length spans
    tz = 8 - (np.frexp(x.astype(np.float64))[1] + 7) // 8
    tz = tz[:, 1] + (tz[:, 1] == 8) * tz[:, 0]
    x |= 0x3030303030303030
    w0 = (d0 + 48).view(_LE64) | (x[:, 0] << 8)
    return w0, (x[:, 0] >> 56) | (x[:, 1] << 8), x[:, 1] >> 56, tz


def _fields(v: np.ndarray, E: np.ndarray, R: np.ndarray, tb: _Tables
            ) -> np.ndarray:
    """(n, 4) little-endian words: row i is value i's text, zero padded,
    with its last byte left free for a separator."""
    *words, tz = _digit_words(R)
    c = tb.klass[E - _EXP_MIN]
    key = c * 18
    key += 17
    key -= tz
    buf = np.zeros((v.size, 4), _LE64)
    buf[:, 0] = tb.heads[c + 23 * np.signbit(v)]
    buf[:, 3] = tb.exps[E - _EXP_MIN]
    # words 1-3 hold the digit region: digits up to the dot's stay, the
    # rest move one byte on, the dot goes in and trailing zeros go out
    m, carry = tb.masks, 0
    for i, w in enumerate(words):
        moved = m[i + 3][key]
        moved &= (w << 8) | carry
        carry = w >> 56
        w &= m[i][key]
        w |= moved
        w |= m[i + 6][key]
        buf[:, i + 1] |= w
    return buf


def _kernel_rows(lib, table: np.ndarray, sep: bytes, step: int) -> Iterator[bytes]:
    """The text of each block of step rows of a 2-D float64 table, from the
    kernel's otoclab_g17."""
    limits, pow10 = np.array([_FAST_MIN, _FAST_MAX, _TIE]), _tables().pow10
    rows, cols = table.shape
    n = min(step, rows) * cols
    out = np.empty(n * _FIELD, np.uint8)
    slow = np.empty(1 + 2 * n, np.int64)
    fixed = (limits.ctypes.data, pow10.ctypes.data, pow10.shape[1], _POW_MIN,
             out.ctypes.data, slow.ctypes.data)
    for j in range(0, rows, step):
        block = np.ascontiguousarray(table[j:j + step], dtype=np.float64)
        size = lib.otoclab_g17(block.ctypes.data, block.shape[0], cols, sep[0], *fixed)
        text = out[:size].tobytes()
        if slow[0]:
            # splice Python's own text in where the kernel left a value out
            parts, at = [], 0
            flat = block.ravel()
            for i, end in slow[1:1 + 2 * slow[0]].reshape(-1, 2).tolist():
                parts += (text[at:end], b"%.17g" % flat[i])
                at = end
            parts.append(text[at:])
            text = b"".join(parts)
        yield text


def _numpy_rows(block: np.ndarray, sep: bytes) -> bytes:
    """The lines of a 2-D float64 block, in numpy: each row's '%.17g' fields
    joined by sep, each line ending in a newline."""
    tb = _tables()
    rows, cols = block.shape
    v = np.ravel(block)
    E, R, fast = _decimal(v, tb.pow10)
    buf = _fields(v, E, R, tb)
    fields = buf.view(np.uint8).reshape(rows, cols, 32)
    fields[:, :, 31] = sep[0]
    fields[:, -1, 31] = ord("\n")
    slow = (~fast).nonzero()[0]
    if slow.size:
        fields = fields.reshape(v.size, 32)
        ends = fields[slow, 31].tobytes()
        fields[slow] = np.frombuffer(b"".join(
            (b"%.17g" % value + ends[i:i + 1]).ljust(32, b"\0")
            for i, value in enumerate(v[slow].tolist())), np.uint8).reshape(-1, 32)
    return buf.tobytes().translate(None, b"\0")


def write_rows(fh: BinaryIO, table: np.ndarray, sep: bytes) -> None:
    """Write a 2-D table as one line per row, its '%.17g' fields joined by
    sep, BLOCK values at a time: on the kernel's otoclab_g17 where it
    builds, in numpy where it does not."""
    table = np.asarray(table, dtype=np.float64)
    step = max(1, BLOCK // table.shape[1])
    lib = _ckernel.load()
    if lib is not None:
        fh.writelines(_kernel_rows(lib, table, sep, step))
        return
    for j in range(0, table.shape[0], step):
        fh.write(_numpy_rows(table[j:j + step], sep))
