"""CSV and grayscale-pixmap emission for slice results.

CSV schema: header ``x<axis>[,x<axis>],t,value,argmin,gap`` with one file
per time, named ``<prefix>_t<time>.csv`` with the time in ``format(t, "g")``
(six significant digits).  Both writers name their files through
:func:`_table_paths`, which refuses two times with one name (say 1.0000001
and 1.0000002, both ``t1``) before any file is written.  Floats print with
17 significant digits, exactly as ``format(x, ".17g")``, so files
round-trip losslessly and regenerate byte-identically.

:func:`format_17g_column` formats a whole column at once.  ``.17g`` uses
fixed notation for decimal exponents X from -4 to 16; on 1e-4 <= |x| < 1e16
(X from -4 to 15) a value's 17 digits are the integer nearest |x| * 10**k,
k = 16 - X, ties to even.  That product is exact in float64:
|x| = a * 2**(e - 53) with an integer a < 2**53 (``np.frexp``), 5**k is an
exact float for k <= 20, Dekker's error-free product (Veltkamp's split, no
fused multiply-add) gives a * 5**k = p + err, and scaling both by
2**(e - 53 + k) is exact.  X itself is exact: each power of ten from 1e-4 to
1e15 rounds to a float at or above it.  The text is gathered from the digits
through one layout per exponent, sign and count of significant digits.
Zeros print as ``0`` or ``-0``; every other entry (subnormals, |x| < 1e-4 or
>= 1e16, inf, NaN) goes through :func:`format_17g`, once per distinct value
(a one-branch net's gaps are all +inf).  Argmins print with ``%d``,
once per distinct index.

A table is formatted and written in blocks of ``numeric.GRID_BLOCK`` rows,
blocks outermost, so that each block's coordinates are formatted once for
every time and a write never holds a whole table's text.  A block's fields
are NUL-padded fixed-width byte strings, laid side by side with their
commas; its rows are those bytes without the NULs.
``tools/byte_identity.py`` is the check that files stay byte-identical.

Images are binary 8-bit grayscale portable pixmaps (magic ``P5``): width,
height, 255, then row-major bytes over the grid, minimum value black and
maximum white.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from .numeric import GRID_BLOCK
from .slicing import SliceResult

__all__ = ["write_slice_csv", "write_slice_pgm", "render_pgm"]


def format_17g(x: float) -> str:
    """A float with 17 significant digits: round-trips losslessly."""
    return format(float(x), ".17g")


def _table_paths(result: SliceResult, out_prefix, ext: str) -> list[Path]:
    """Every table's ``<prefix>_t<time>.<ext>``; times that would share a
    file (equal times included) are refused, so no table overwrites another."""
    prefix, paths = Path(out_prefix), {}
    for table in result.tables:
        path = prefix.parent / f"{prefix.name}_t{format(table.t, 'g')}.{ext}"
        if path in paths:
            raise ValueError(
                f"times {paths[path]!r} and {table.t!r} would both write {path}: file names keep t to 6 digits"
            )
        paths[path] = table.t
    return list(paths)


# Each power of ten from 10**-4 to 10**15 rounds to a float at or above it,
# so a search among these floats gives a magnitude's decimal exponent exactly.
_POW10 = np.array([float(f"1e{j}") for j in range(-4, 16)])
_SPLITTER = 2.0**27 + 1
# A value's text is gathered from a row of _WIDTH bytes: its 17 digits, then
# ".", "0", "-" and NUL.
_WIDTH = 24  # the longest .17g text: "-1.2345678901234567e-308"
_DOT, _ZERO, _MINUS, _NUL = 17, 18, 19, 20
_SOURCE = np.frombuffer(bytes(17) + b".0-" + bytes(_WIDTH - 20), np.uint8)


def _halves(a):
    """Veltkamp's split: ``a == hi + lo`` with 26-bit halves, so that
    products of halves are exact."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


# The tables below are built on the formatter's first call, so that commands
# that write no CSV (``eval``, ``verify``) never build them.
@functools.cache
def _powers_of_five():
    """5**0 .. 5**20, all exact floats, and their Veltkamp halves."""
    powers = 5.0 ** np.arange(21)
    return (powers, *_halves(powers))


@functools.cache
def _groups():
    """Every 4-digit group's ASCII digits as one uint32, and its digits up to
    its last nonzero one (0 for 0000)."""
    digits = np.arange(48, 58, dtype=np.uint8)  # b"0123456789"
    groups = np.stack([np.tile(np.repeat(digits, 10 ** (3 - j)), 10**j) for j in range(4)], axis=1)
    last = ((groups != 48) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    return groups.view(np.uint32).ravel(), last


@functools.cache
def _layouts() -> np.ndarray:
    """The source columns to gather, NUL-padded, for every (X + 4, sign,
    digits up to the last nonzero one)."""
    layouts = np.full((20, 2, 18, _WIDTH), _NUL, np.uint8)
    for x, negative, digits in np.ndindex(layouts.shape[:3]):
        exp, cols = x - 4, [_MINUS] * negative
        if exp >= 0:  # the integer digits, then the point and the rest if any
            cols += range(exp + 1)
            cols += [_DOT, *range(exp + 1, digits)] if digits > exp + 1 else []
        else:  # "0.", -exp - 1 zeros, the digits
            cols += [_ZERO, _DOT] + [_ZERO] * (-exp - 1) + list(range(digits))
        layouts[x, negative, digits, : len(cols)] = cols
    return layouts.reshape(-1, _WIDTH)


def _significands(mag, fixed):
    """Each magnitude's decimal exponent X, as X + 5, and its 17 digits: the
    integer nearest mag * 10**(16 - X), ties to even.  Entries outside
    ``fixed`` read X = 0 and digits 0."""
    safe = np.where(fixed, mag, 1.0)
    exp = np.searchsorted(_POW10, safe, side="right")
    k = 21 - exp
    frac, e = np.frexp(safe)
    a = frac * 2.0**53
    a_hi, a_lo = _halves(a)
    pow5, pow5_hi, pow5_lo = (table[k] for table in _powers_of_five())
    p = a * pow5
    err = ((a_hi * pow5_hi - p) + a_hi * pow5_lo + a_lo * pow5_hi) + a_lo * pow5_lo
    e += k - 53
    # mag * 10**k == p' + err' with p' an even integer >= 2**53, so rounding
    # err' half to even rounds the sum half to even.
    sig = np.ldexp(p, e).astype(np.int64) + np.rint(np.ldexp(err, e)).astype(np.int64)
    sig *= fixed
    return np.where(fixed, exp, 5), sig


def _digit_rows(sig):
    """Each 17-digit integer's gather row (its ASCII digits, then the other
    source bytes of _SOURCE) and its digits up to the last nonzero one."""
    top = sig // 10**8
    lead = top // 10**8
    mid, low = top - lead * 10**8, sig - top * 10**8
    mid_hi, low_hi = mid // 10**4, low // 10**4
    groups = (mid_hi, mid - mid_hi * 10**4, low_hi, low - low_hi * 10**4)
    text = np.empty((len(sig), _WIDTH), np.uint8)
    text[:] = _SOURCE
    text[:, 0] = 48 + lead
    quads, (group_text, group_last) = text[:, 1:17].view(np.uint32), _groups()
    digits = (lead != 0).astype(np.intp)
    for j, group in enumerate(groups):
        quads[:, j] = group_text.take(group)
        digits = np.where(group != 0, 4 * j + 1 + group_last.take(group), digits)
    return text, digits


def format_17g_column(column) -> np.ndarray:
    """``format(x, ".17g")`` of every entry of a 1-D float array, as NUL-padded
    ASCII in an ``S24`` array: the same bytes, vectorized (module docstring)."""
    x = np.asarray(column, dtype=float)
    mag = np.abs(x)
    fixed = (mag >= 1e-4) & (mag < 1e16)
    exp, sig = _significands(mag, fixed)
    text, digits = _digit_rows(sig)
    layout = _layouts().take(((exp - 1) * 2 + np.signbit(x)) * 18 + digits, axis=0)
    gather = layout + np.arange(0, text.size, _WIDTH)[:, None]
    out = text.ravel().take(gather).view(f"S{_WIDTH}").ravel()
    rest = np.flatnonzero(~fixed & (mag != 0.0))
    if rest.size:  # no zero is left, and every NaN prints "nan"
        out[rest] = _each_distinct(x[rest], format_17g)
    return out


def _each_distinct(column, text) -> np.ndarray:
    """``text(v)`` of every entry, as bytes, called once per distinct value."""
    values, inverse = np.unique(column, return_inverse=True)
    return np.array([text(v) for v in values.tolist()], dtype="S")[inverse.ravel()]


def _rows(fields, count: int) -> np.ndarray:
    """The bytes of ``count`` CSV rows from byte-string arrays of one entry
    a row, or one for every row: each field's NUL-padded text and a comma,
    the last comma a newline, with every NUL dropped."""
    line = np.empty((count, sum(f.itemsize + 1 for f in fields)), np.uint8)
    end = 0
    for field in fields:
        start, end = end, end + field.itemsize + 1
        line[:, start : end - 1] = field.view(np.uint8).reshape(len(field), field.itemsize)
        line[:, end - 1] = ord(",")
    line[:, -1] = ord("\n")
    return line[line != 0]


def write_slice_csv(result: SliceResult, out_prefix) -> list[Path]:
    """Write one CSV per time; returns the paths written."""
    paths = _table_paths(result, out_prefix, "csv")
    Path(out_prefix).parent.mkdir(parents=True, exist_ok=True)
    header = (",".join(f"x{axis}" for axis in result.spec.free_axes) + ",t,value,argmin,gap\n").encode()
    times = [np.array([format_17g(table.t)], dtype="S") for table in result.tables]
    # The first block (an empty one for an empty grid) starts each file.
    for start in range(0, len(result.grid), GRID_BLOCK) or [0]:
        block = slice(start, start + GRID_BLOCK)
        coords = [format_17g_column(column) for column in result.grid[block].T]
        for table, t, path in zip(result.tables, times, paths):
            values, gaps = (format_17g_column(column[block]) for column in (table.values, table.gaps))
            fields = coords + [t, values, _each_distinct(table.argmin_indices[block], "%d".__mod__), gaps]
            with path.open("ab" if start else "wb") as fh:
                if not start:
                    fh.write(header)
                fh.write(_rows(fields, len(coords[0])))
    return paths


def render_pgm(values: np.ndarray, width: int, height: int) -> bytes:
    """Binary P5 pixmap bytes: min maps to black, max to white."""
    values = np.asarray(values, dtype=float).reshape(height, width)
    if not np.isfinite(values).all():
        raise ValueError("cannot render non-finite values")
    lo, hi = values.min(), values.max()
    if hi > lo:
        scaled = np.round((values - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(values)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + scaled.astype(np.uint8).tobytes()


def write_slice_pgm(result: SliceResult, out_prefix) -> list[Path]:
    """Write one grayscale image per time; returns the paths written."""
    paths = _table_paths(result, out_prefix, "pgm")
    shape = result.spec.grid_shape()
    height, width = (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])
    for table, path in zip(result.tables, paths):
        path.write_bytes(render_pgm(table.values, width, height))
    return paths
