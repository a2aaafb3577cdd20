"""Byte-level checks of the slice CSV writer against a per-cell reference."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hjeval.config import load_problem, load_slice
from hjeval.numeric import GRID_BLOCK
from hjeval.output import format_17g_column, write_slice_csv, write_slice_pgm
from hjeval.slicing import SliceResult, SliceSpec, SliceTable, evaluate_slice

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

TINY = 5e-324  # smallest subnormal
T17 = 0.12345678901234568  # needs all 17 significant digits


def _g(x) -> str:
    return format(float(x), ".17g")


def _reference(result: SliceResult) -> dict[str, bytes]:
    """File name -> bytes, formatting every cell on its own."""
    header = ",".join(f"x{axis}" for axis in result.spec.free_axes) + ",t,value,argmin,gap"
    files = {}
    for table in result.tables:
        lines = [header]
        for i in range(result.grid.shape[0]):
            cells = [_g(c) for c in result.grid[i]]
            cells += [_g(table.t), _g(table.values[i]), str(int(table.argmin_indices[i]))]
            lines.append(",".join(cells + [_g(table.gaps[i])]))
        files[f"run_t{format(table.t, 'g')}.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
    return files


def _result(free_axes, columns, times, values, gaps) -> SliceResult:
    grid = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    k = grid.shape[0]
    tables = tuple(
        SliceTable(
            t,
            np.roll(np.asarray(values, dtype=float), j),
            (np.arange(k, dtype=np.int64) * (j + 3)) % 7 + 1,
            np.asarray(gaps, dtype=float),
        )
        for j, t in enumerate(times)
    )
    ranges = tuple((-1.0, 1.0, 2) for _ in free_axes)
    return SliceResult(SliceSpec(tuple(free_axes), ranges, tuple(times)), grid, tables)


# Repeated coordinates out of sorted order, with -0.0 and 0.0 in one column
# and two neighbouring floats (0.3 and 0.1 + 0.2) that must stay apart.
COL_A = [0.0, -0.0, 1.5, -0.0, 0.1 + 0.2, 0.0, 1.5, 0.3, TINY, -2.5]
COL_B = [3.0, 3.0, -0.0, 1e-300, 0.0, 3.0, -7.25, 1e-300, -0.0, 2.0 / 3.0]
VALUES = [math.nan, math.inf, -math.inf, TINY, 1e308, -0.0, 0.0, 1 / 3, -1e-310, 42.0]
GAPS = [0.0, math.nan, math.inf, 1e308, TINY, 0.5, -0.0, 2.0 / 3.0, math.inf, 1e-17]


def _formatter_case(name: str) -> np.ndarray:
    """The formatter's test values: 1,012,432 floats over the six cases."""
    rng = np.random.default_rng(27)
    if name == "bit patterns":
        return rng.integers(0, 2**64, 300_000, dtype=np.uint64, endpoint=False).view(np.float64)
    if name == "1e-14 to 1e18":
        return rng.choice([-1.0, 1.0], 300_000) * 10.0 ** rng.uniform(-14.0, 18.0, 300_000)
    if name == "half-way ties":  # a * 2**-17 is half-way at 17 digits for odd a
        ties = np.arange(2**17, 2**18) * 2.0**-17
        return np.concatenate([ties, -ties])
    if name == "3-decimal rounds":
        return np.round(rng.uniform(-1000.0, 1000.0, 150_000), 3)
    if name == "powers of ten and neighbours":
        powers = 10.0 ** np.arange(-20, 26)
        edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), [1e-4, 1e16]])
        return np.concatenate([edges, -edges])
    return np.array([0.0, -0.0, TINY, -TINY, 2.2250738585072009e-308, math.inf, -math.inf, math.nan])


FORMATTER_CASES = [
    "bit patterns",
    "1e-14 to 1e18",
    "half-way ties",
    "3-decimal rounds",
    "powers of ten and neighbours",
    "specials",
]


@pytest.mark.parametrize("name", FORMATTER_CASES)
def test_formatter_matches_format_17g(name):
    column = _formatter_case(name)
    got = format_17g_column(column)
    assert got.dtype == np.dtype("S24")
    bad = [(x, g) for x, g in zip(column.tolist(), got.tolist()) if g != _g(x).encode()]
    assert bad[:5] == [], f"{len(bad)} of {len(column)} {name} differ"


@pytest.mark.parametrize(
    "free_axes, columns, times",
    [
        ((0,), [COL_A], (0.0, T17)),
        ((2,), [COL_B], (T17,)),
        ((1, 4), [COL_A, COL_B], (0.0, 1.0, T17)),
        ((9, 3), [COL_B, COL_A], (0.0,)),
    ],
)
def test_slice_csv_matches_per_cell_reference(tmp_path, free_axes, columns, times):
    result = _result(free_axes, columns, times, VALUES, GAPS)
    want = _reference(result)
    paths = write_slice_csv(result, tmp_path / "run")
    assert [p.name for p in paths] == list(want)
    for path in paths:
        assert path.read_bytes() == want[path.name], path.name
    # -0.0 and 0.0 print differently in one column
    first = [line.split(",")[0] for line in paths[0].read_text().splitlines()[1:]]
    assert "-0" in first and "0" in first


def test_slice_csv_big_grid_matches_reference(tmp_path):
    rng = np.random.default_rng(3)
    levels = np.concatenate([rng.uniform(-1.0, 1.0, 13), [0.0, -0.0]])
    columns = [rng.choice(levels, 400), rng.choice(levels, 400)]
    values = rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, 400)
    result = _result((0, 1), columns, (0.0, 0.25, T17), values, np.abs(values))
    want = _reference(result)
    for path in write_slice_csv(result, tmp_path / "run"):
        assert path.read_bytes() == want[path.name], path.name


def test_slice_csv_is_written_in_row_blocks(tmp_path):
    # The 10-D plane's 10,201 rows span three GRID_BLOCK blocks.  Writing a
    # block at a time never holds a whole table's values beside all its row
    # strings: about 4.3 MiB of tracemalloc peak when a table went at once.
    net = load_problem(CONFIG_DIR / "ball10d.cfg").build_net()
    result = evaluate_slice(net, load_slice(CONFIG_DIR / "slice_plane10d.cfg"))
    assert len(result.grid) > 2 * GRID_BLOCK
    tracemalloc.start()
    try:
        paths = write_slice_csv(result, tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20
    want = _reference(result)
    assert [p.name for p in paths] == list(want)
    for path in paths:
        assert path.read_bytes() == want[path.name], path.name


@pytest.mark.parametrize("write", [write_slice_csv, write_slice_pgm])
@pytest.mark.parametrize("times", [(0.5, 1.0000001, 1.0000002), (0.5, 0.5)])
def test_tables_sharing_a_file_are_refused_before_any_write(tmp_path, write, times):
    result = _result((0,), [[0.0, 1.0]], times, [1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"^times "):
        write(result, tmp_path / "out" / "run")
    assert not list(tmp_path.rglob("*"))
