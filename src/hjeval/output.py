"""CSV and grayscale-pixmap emission for slice results.

CSV schema: header ``x<axis>[,x<axis>],t,value,argmin,gap`` with one file
per time, named ``<prefix>_t<time>.csv`` with the time in ``format(t, "g")``
(six significant digits).  Both writers name their files through
:func:`_table_paths`, which refuses two times with one name (say 1.0000001
and 1.0000002, both ``t1``) before any file is written.  Floats print with
17 significant digits so files round-trip losslessly and regenerate
byte-identically.
Every float goes through CPython's ``.17g`` (``"%.17g" % x`` and
``format(x, ".17g")`` share one routine), but each distinct grid coordinate
(told apart by bit pattern, so ``-0`` and ``0`` stay distinct) and each time
is formatted once, and each row is one ``%`` operation.  A table is
formatted and written in blocks of ``numeric.GRID_BLOCK`` rows, so a write
never holds a whole table's values beside all its row strings.
``tools/byte_identity.py`` is the check that files stay byte-identical.

Images are binary 8-bit grayscale portable pixmaps (magic ``P5``): width,
height, 255, then row-major bytes over the grid, minimum value black and
maximum white.
"""

from __future__ import annotations

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


def _column_strings(column: np.ndarray) -> list[str]:
    """The 17-digit text of every entry, formatting each bit pattern once."""
    bits = column.view(np.uint64).tolist()
    text = {b: format_17g(x) for b, x in dict(zip(bits, column.tolist())).items()}
    return [text[b] for b in bits]


def write_slice_csv(result: SliceResult, out_prefix) -> list[Path]:
    """Write one CSV per time; returns the paths written."""
    paths = _table_paths(result, out_prefix, "csv")
    Path(out_prefix).parent.mkdir(parents=True, exist_ok=True)
    header = ",".join(f"x{axis}" for axis in result.spec.free_axes) + ",t,value,argmin,gap"
    coords = [_column_strings(column) for column in result.grid.T]
    for table, path in zip(result.tables, paths):
        row = "%s," * len(coords) + format_17g(table.t) + ",%.17g,%d,%.17g\n"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for start in range(0, len(table.values), GRID_BLOCK):
                block = slice(start, start + GRID_BLOCK)
                cells = [c[block] for c in coords]
                cells += [a[block].tolist() for a in (table.values, table.argmin_indices, table.gaps)]
                fh.write("".join([row % line for line in zip(*cells)]))
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
