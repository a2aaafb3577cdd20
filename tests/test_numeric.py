import re
import tracemalloc

import numpy as np
import pytest

import hjeval.numeric as numeric
from hjeval.catalog import (
    ClippedQuadratic1D,
    HalfSquaredNorm,
    IntervalQuadratic1D,
    MaxAffine,
    PNorm,
    ShiftedNormPlus,
    UnitBallIndicator,
    ensure_extended,
)
from hjeval.numeric import (
    box_grid,
    box_grid_blocks,
    finite_minimum,
    grid_conjugate,
    grid_inf_convolution,
    grid_points,
    recession_quotient,
    tensor_grid,
)


def test_grid_conjugate_half_squared_norm():
    val = grid_conjugate(HalfSquaredNorm(), [1.0], 10.0, 100001)
    assert val == pytest.approx(0.5, abs=1e-4)


def test_grid_conjugate_clipped_quadratic():
    # Closed-form conjugate is p^2/2 on [-1, 2]; at p = 1 that is 0.5.
    val = grid_conjugate(ClippedQuadratic1D(), [1.0], 10.0, 100001)
    assert val == pytest.approx(0.5, abs=1e-4)


def test_grid_conjugate_norm_inside_ball():
    val = grid_conjugate(PNorm(2), [0.5], 10.0, 100001)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_grid_conjugate_never_exceeds_analytic():
    rng = np.random.default_rng(5)
    cases = [
        (HalfSquaredNorm(), 1, 3.0),
        (ClippedQuadratic1D(), 1, 3.0),
        (ShiftedNormPlus(), 1, 3.0),
        (PNorm(2), 1, 3.0),
        (ShiftedNormPlus(), 2, 3.0),
        (PNorm(2), 2, 3.0),
    ]
    for f, n, spread in cases:
        conj = f.conjugate()
        for _ in range(25):
            p = rng.uniform(-spread, spread, n)
            grid = grid_conjugate(f, p, 8.0, 2001 if n == 2 else 100001)
            exact = conj(p)
            assert grid <= exact + 1e-4
            if n == 1 and np.isfinite(exact):
                # 1-D grids are fine enough to certify tightness whenever the
                # maximizer lies inside the box.
                assert grid == pytest.approx(exact, abs=1e-4)


@pytest.mark.parametrize(
    "f, p, pts",
    [
        (HalfSquaredNorm(), [1.0], 100001),
        (ClippedQuadratic1D(), [1.0], 100001),
        (PNorm(2), [0.5], 100001),  # a zero maximum: +0.0
        (ShiftedNormPlus(), [0.3, -0.4], 201),
        (PNorm(2), [-1.5, 2.5], 201),
        (HalfSquaredNorm(), [0.7, -0.2, 1.1], 41),
    ],
)
def test_grid_conjugate_is_the_whole_grid_maximum(f, p, pts):
    # The blocked scan returns the bits of max <p, x> - f(x) over the grid.
    grid = grid_points(np.zeros(len(p)), 8.0, pts)
    want = float((grid @ np.asarray(p) - f(grid)).max())
    assert grid_conjugate(f, p, 8.0, pts).hex() == want.hex()


def test_grid_conjugate_scans_in_blocks():
    # 2001^2 rows: a whole grid and its values would peak past 200 MiB.
    tracemalloc.start()
    try:
        val = grid_conjugate(ShiftedNormPlus(), [0.3, -0.4], 8.0, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert val == pytest.approx(0.5, abs=1e-4)
    assert peak < 1 << 20


def test_grid_conjugate_requires_finite_function():
    with pytest.raises(ValueError, match="finite"):
        grid_conjugate(IntervalQuadratic1D(), [1.0], 5.0, 101)


def test_grid_inf_convolution_norm_with_itself():
    f = PNorm(2)
    val = grid_inf_convolution(f, f, [1.0], 5.0, 10001)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_grid_inf_convolution_half_squared():
    # x^2/2 convolved with itself is x^2/4: split the move evenly.
    g = HalfSquaredNorm()
    val = grid_inf_convolution(g, g, [2.0], 10.0, 10001)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_grid_inf_convolution_with_recession_at_zero():
    L = ClippedQuadratic1D()
    val = grid_inf_convolution(L, L.recession, [0.0], 5.0, 10001)
    assert val == pytest.approx(0.0, abs=1e-3)


def test_grid_inf_convolution_all_infinite():
    h = IntervalQuadratic1D()
    assert grid_inf_convolution(h, h, [50.0], 1.0, 101) == float("inf")


@pytest.mark.parametrize("n", [1, 2])
def test_inf_convolution_with_recession_recovers_function(n):
    # Convolving a closed convex function with its own recession function
    # changes nothing; checked on a sample of the catalog.
    rng = np.random.default_rng(42)
    fns = [PNorm(1), PNorm(2), MaxAffine(rng.uniform(-2, 2, (3, n)), rng.uniform(-1, 1, 3))]
    if n == 1:
        fns.append(ClippedQuadratic1D())
    pts_per_axis = 8001 if n == 1 else 201
    for f in fns:
        for _ in range(10):
            x = rng.uniform(-3, 3, n)
            val = grid_inf_convolution(f, f.recession, x, 4.0, pts_per_axis)
            assert val == pytest.approx(f(x), abs=1e-3)


def test_recession_quotient_matches_analytic():
    L = ClippedQuadratic1D()
    assert recession_quotient(L, [1.0]) == pytest.approx(2.0, abs=1e-6)
    assert recession_quotient(L, [-1.0]) == pytest.approx(1.0, abs=1e-6)
    s = ShiftedNormPlus()
    assert recession_quotient(s, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-6)
    f = MaxAffine([[1.0], [-2.0]], [0.3, -0.7])
    assert recession_quotient(f, [1.5]) == pytest.approx(f.recession([1.5]), abs=1e-6)
    assert recession_quotient(PNorm(2), [0.6, 0.8]) == pytest.approx(1.0, abs=1e-12)


def test_recession_quotient_flags_superlinear_growth():
    g = HalfSquaredNorm()
    assert recession_quotient(g, [50.0]) == float("inf")
    # Moderate directions stay under the blow-up threshold: the quotient is
    # then only a finite lower estimate of the true +inf recession value.
    finite_estimate = recession_quotient(g, [1.0])
    assert np.isfinite(finite_estimate) and finite_estimate > 1e8
    # +inf at a sample (s d leaves the domain from s = 2 on) is +inf at once.
    assert recession_quotient(UnitBallIndicator(), [1.0]) == float("inf")


def test_grid_refuses_high_dimension_and_bad_sizes():
    with pytest.raises(ValueError, match="n=4"):
        grid_points(np.zeros(4), 1.0, 11)
    with pytest.raises(ValueError, match="at least 3"):
        grid_points(np.zeros(1), 1.0, 2)
    with pytest.raises(ValueError, match="cap"):
        grid_points(np.zeros(3), 1.0, 2001)
    with pytest.raises(ValueError, match="halfwidth must be positive"):
        grid_points(np.zeros(1), 0.0, 11)
    with pytest.raises(ValueError, match="n=4"):
        grid_inf_convolution(PNorm(2), PNorm(2), np.zeros(4), 1.0, 11)


def test_grid_contains_center_for_odd_counts():
    pts = grid_points(np.array([0.3, -1.7]), 2.0, 11)
    assert any(np.allclose(p, [0.3, -1.7], atol=1e-12) for p in pts)
    assert pts.shape == (121, 2)


def _linspace_grid(lo, hi, pts):
    """The tensor grid built from whole ``np.linspace`` axes."""
    return tensor_grid([np.linspace(a, b, pts) for a, b in zip(lo, hi)])


@pytest.mark.parametrize("n, pts", [(1, 41), (2, 9), (3, 5)])
def test_grid_blocks_concatenate_to_the_linspace_grid(n, pts):
    rng = np.random.default_rng(n)
    total = pts**n
    # Blocks of one row, of pts rows (a divisor of the row count), of 7 (not
    # a divisor), of all rows but one (a one-row last block) and of more
    # rows than the grid has.
    sizes = {1, pts, 7, total - 1, total + 5}
    for _ in range(10):
        lo = rng.uniform(-50.0, 50.0, n) * 10.0 ** rng.integers(-3, 4, n)
        hi = lo + rng.uniform(1e-6, 100.0, n)
        want = _linspace_grid(lo, hi, pts)
        got = box_grid(lo, hi, pts)
        assert got.shape == want.shape == (total, n)
        assert got.tobytes() == want.tobytes()
        for rows in sizes:
            blocks = list(box_grid_blocks(lo, hi, pts, rows))
            assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
            assert 1 <= len(blocks[-1]) <= rows
            assert np.concatenate(blocks).tobytes() == want.tobytes()


def test_grid_blocks_match_linspace_on_degenerate_axes():
    # A zero-width axis, a step that underflows to 0 (np.linspace then
    # divides before it multiplies) and a reversed box.
    lo, hi = np.array([1.5, 0.0, 2.0]), np.array([1.5, 5e-324, -3.0])
    assert np.concatenate(list(box_grid_blocks(lo, hi, 7, 10))).tobytes() == (
        _linspace_grid(lo, hi, 7).tobytes()
    )


@pytest.mark.parametrize(
    "lo, pts, message",
    [
        (
            np.zeros(4),
            11,
            "grid search refused for n=4 > 3: tensor grids are for desk-scale verification only",
        ),
        (np.zeros(1), 2, "pts_per_axis must be at least 3"),
        (
            np.zeros(3),
            2001,
            "grid of 2001^3 points exceeds the 20000000 point cap; reduce pts_per_axis",
        ),
    ],
)
def test_grid_blocks_refuse_before_the_first_block(lo, pts, message):
    # The first next() raises instead of yielding a block: nothing of the
    # grid is built (2001^3 rows in one block would be 192 GB).
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            next(box_grid_blocks(lo, lo + 1.0, pts, numeric.MAX_GRID_POINTS))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            box_grid(lo, lo + 1.0, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _unblocked_inf_convolution(f_eval, g_eval, x, halfwidth, pts):
    """inf-convolution over the whole grid at once."""
    x = np.asarray(x, dtype=float)
    u = _linspace_grid(x - halfwidth, x + halfwidth, pts)
    return finite_minimum(ensure_extended(f_eval(u)) + ensure_extended(g_eval(x - u)))


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_blocked_inf_convolution_equals_the_unblocked_formula(monkeypatch, block):
    monkeypatch.setattr(numeric, "GRID_BLOCK", block)
    rng = np.random.default_rng(block)
    interval = IntervalQuadratic1D()  # +inf outside its interval
    indicator = PNorm(2).conjugate()  # +inf outside the unit ball
    cases = [
        (ClippedQuadratic1D(), interval, 1, 2001),
        (interval, ClippedQuadratic1D(), 1, 2001),
        (MaxAffine(rng.uniform(-2, 2, (3, 2)), rng.uniform(-1, 1, 3)), indicator, 2, 41),
        (ShiftedNormPlus(), indicator, 3, 11),
    ]
    for f, g, n, pts in cases:
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, n)
            want = _unblocked_inf_convolution(f, g, x, 3.0, pts)
            got = grid_inf_convolution(f, g, x, 3.0, pts)
            assert np.isfinite(want)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # Every term +inf, in every block.
    assert grid_inf_convolution(interval, interval, [50.0], 1.0, 101) == float("inf")


@pytest.mark.parametrize("block", [7, 4096])
def test_inf_convolution_names_neginf_against_a_plus_inf_term(monkeypatch, block):
    # f = -inf exactly where g = +inf: those terms are NaN, yet the error
    # names f's -inf, as f is checked before the sum.
    monkeypatch.setattr(numeric, "GRID_BLOCK", block)
    f = lambda u: np.where(u[:, 0] > 1.0, -np.inf, 0.0)
    g = lambda z: np.where(z[:, 0] < -1.0, np.inf, 0.0)
    with pytest.raises(ValueError, match="produced -inf"):
        grid_inf_convolution(f, g, [0.0], 2.0, 41)


def _raises(message):
    def evaluator(points):
        raise RuntimeError(message)

    return evaluator


@pytest.mark.parametrize("bad, message", [(np.nan, "produced NaN"), (-np.inf, "produced -inf")])
def test_inf_convolution_names_f_before_g_runs(monkeypatch, bad, message):
    f = lambda u: np.full(len(u), bad)
    with pytest.raises(ValueError, match=message):
        grid_inf_convolution(f, _raises("g_eval ran"), [0.0], 1.0, 21)
    # Blocks of 7 rows on u = -1, -0.9, ..., 1 (z = x - u = -u): each block
    # is checked before the next is evaluated.
    monkeypatch.setattr(numeric, "GRID_BLOCK", 7)
    f_early = lambda u: np.where(u[:, 0] < -0.5, bad, 0.0)  # first block
    f_late = lambda u: np.where(u[:, 0] > 0.5, bad, 0.0)  # last block

    def g_early(z):  # raises on the first block
        if (z[:, 0] > 0.5).any():
            raise RuntimeError("g_eval ran on the first block")
        return np.zeros(len(z))

    def g_late(z):  # raises on the last block
        if (z[:, 0] < -0.5).any():
            raise RuntimeError("g_eval ran on the last block")
        return np.zeros(len(z))

    with pytest.raises(ValueError, match=message):
        grid_inf_convolution(f_early, g_late, [0.0], 1.0, 21)
    with pytest.raises(RuntimeError, match="first block"):
        grid_inf_convolution(f_late, g_early, [0.0], 1.0, 21)
    with pytest.raises(ValueError, match=message):
        grid_inf_convolution(f_late, g_late, [0.0], 1.0, 21)


def test_inf_convolution_takes_evaluator_values_as_float64():
    # float32 values and lists are summed as the float64 arrays that
    # ensure_extended makes of them, not in float32.
    f32 = lambda u: HalfSquaredNorm()(u).astype(np.float32)
    g32 = lambda z: PNorm(2)(z).astype(np.float32)
    as_list = lambda u: list(HalfSquaredNorm()(u))
    for f, g in [(f32, g32), (as_list, g32), (f32, PNorm(2))]:
        for x in ([0.3], [-1.7]):
            want = _unblocked_inf_convolution(f, g, x, 2.0, 101)
            got = grid_inf_convolution(f, g, x, 2.0, 101)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
