"""The min-of-branches paths shared by both nets."""

import numpy as np
import pytest

import hjeval.branches as branches
from hjeval.branches import BranchNet
from hjeval.catalog import (
    ClippedQuadratic1D,
    ConcaveFn,
    HalfSquaredNorm,
    MaxAffine,
    PNorm,
    ShiftedNormPlus,
)
from hjeval.initialdata import InitialDataNet, norm_hamiltonian_rows
from hjeval.lagrangian import LagrangianNet

from conftest import norm_net, shipped_net

T = 0.7


def _point_calls(net):
    calls = [lambda x: net.evaluate(x, T), lambda x: net.branch_values(x, T)]
    if hasattr(net, "initial_value"):
        calls.append(net.initial_value)
    return calls


def _batch_calls(net):
    calls = [
        lambda x: net.evaluate_grid(x, T),
        lambda x: net.solution_grid(x, T),
        lambda x: net.solution_grid(x, 0.0),
        net.initial_values,
    ]
    if hasattr(net, "initial_grid"):
        calls.append(net.initial_grid)
    return calls


@pytest.mark.parametrize("problem", ["ball10d", "pwa10d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("path", ["point", "exact", "screen"])
def test_nonfinite_points_are_refused_on_every_path(problem, bad, path, monkeypatch):
    # The activation is the one finiteness check: single points, the exact
    # kernel and the screen's unsafe rows all hand it the bad coordinate.
    net = shipped_net(problem)
    points = np.random.default_rng(3).uniform(-2.0, 2.0, (40, net.dimension))
    points[17, 4] = bad
    screened = []
    if path == "point":
        calls, arg = _point_calls(net), points[17]
    else:
        threshold = 0 if path == "screen" else 1 << 62
        monkeypatch.setattr(branches, "SCREEN_MIN_ELEMENTS", threshold)
        kernel = branches._screened
        monkeypatch.setattr(branches, "_screened", lambda *a: screened.append(1) or kernel(*a))
        calls, arg = _batch_calls(net), points
    for call in calls:
        with pytest.raises(ValueError, match="^points must have finite coordinates$"):
            call(arg)
    assert bool(screened) == (path == "screen")


# -- one time per row ---------------------------------------------------------


def _spy_screen(monkeypatch):
    """Count the screened row blocks from here on."""
    calls = []
    kernel = branches._screened
    monkeypatch.setattr(branches, "_screened", lambda *a: calls.append(1) or kernel(*a))
    return calls


def _assert_rows_equal_scalar_calls(call, points, t, reference=None):
    """``call(points, t)`` at one time per row equals, bit for bit, one
    scalar call per distinct time on that time's rows (``reference(rows)``
    instead where it is given, for the rows at t = 0)."""
    got = call(points, t)
    assert [g.shape for g in got] == [(len(points),)] * 3
    for time in np.unique(t):
        rows = t == time
        want = reference(points[rows]) if reference and time == 0 else call(points[rows], float(time))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g[rows].tobytes() == w.tobytes()


def _lagrangian(rng, fn, m, n):
    return LagrangianNet(fn, rng.uniform(-2.0, 2.0, (m, n)), rng.uniform(-1.0, 1.0, m))


def _initialdata(rng, fn, m, n):
    rows = rng.uniform(-2.0, 2.0, (m, n))
    # Convex offsets, of both signs, keep every row on the envelope.
    return InitialDataNet(fn, rows, 0.5 * (rows * rows).sum(axis=1) - 2.0 * n / 3.0)


_RADIAL_NETS = {
    "snp": lambda rng: _lagrangian(rng, ShiftedNormPlus(), 64, 20),
    "pnorm2": lambda rng: _lagrangian(rng, PNorm(2), 40, 12),
    "neg_half_squared": lambda rng: _initialdata(rng, ConcaveFn(HalfSquaredNorm()), 64, 20),
}


@pytest.mark.parametrize("name", sorted(_RADIAL_NETS))
def test_per_row_times_equal_screened_scalar_calls(name, monkeypatch):
    # Each time's rows alone reach SCREEN_MIN_ELEMENTS, so every scalar
    # reference call at t > 0 is screened (arch2 at t = 0 calls J once per
    # row); the per-row call takes the exact kernel.
    rng = np.random.default_rng(sorted(_RADIAL_NETS).index(name))
    net = _RADIAL_NETS[name](rng)
    times = np.array([0.3, 1.0, 2.7] + ([0.0] if isinstance(net, InitialDataNet) else []))
    per_time = -(-branches.SCREEN_MIN_ELEMENTS // (net.n_branches * net.dimension))
    points = rng.uniform(-4.0, 4.0, (len(times) * per_time, net.dimension))
    t = rng.permutation(np.repeat(times, per_time))
    screened = _spy_screen(monkeypatch)
    net.solution_grid(points, t)
    assert not screened
    _assert_rows_equal_scalar_calls(net.solution_grid, points, t)
    assert len(screened) >= np.count_nonzero(times)
    _assert_rows_equal_scalar_calls(net.evaluate_grid, points, np.where(t > 0, t, 1.0))


@pytest.mark.parametrize("block_rows", [1, 7, None])
def test_per_row_blocks_carry_their_rows_fields(block_rows, monkeypatch):
    # Row blocks of the exact kernel slice beta, scale and offsets with the
    # points; distinct times on neighbouring rows expose any misalignment.
    rng = np.random.default_rng(5)
    for net in (_lagrangian(rng, PNorm(1), 6, 3), _initialdata(rng, ConcaveFn(PNorm(np.inf)), 6, 3)):
        if block_rows:
            monkeypatch.setattr(branches, "EXACT_BLOCK", block_rows * net.n_branches * net.dimension)
        points = rng.uniform(-4.0, 4.0, (50, 3))
        t = rng.uniform(0.1, 3.0, 50)
        t[::5] = 1.0  # the scalar path skips the scale (or beta) at t = 1
        _assert_rows_equal_scalar_calls(net.solution_grid, points, t)


def test_per_row_times_at_zero_keep_the_sign_of_zero():
    # At t = 0 every arch2 branch is J(x) + 0 * b_i, and 0 * b_i is -0.0
    # for b_i < 0.  At x = 0, J(x) = -0.0, so the branch values are -0.0 or
    # +0.0 and tie: the first branch (b_1 < 0 here) wins with -0.0.
    rng = np.random.default_rng(6)
    pieces = MaxAffine(rng.uniform(-1.0, 1.0, (3, 4)), np.zeros(3))
    for fn in (ConcaveFn(HalfSquaredNorm()), ConcaveFn(pieces)):
        rows = rng.uniform(-2.0, 2.0, (12, 4))
        rows[0] = 0.0
        net = InitialDataNet(fn, rows, 0.5 * (rows * rows).sum(axis=1) - 2.0)
        assert net.offsets[0] < 0 and (net.offsets > 0).any()
        points = rng.uniform(-4.0, 4.0, (60, 4))
        points[::2] = 0.0
        t = rng.choice([0.0, 0.5, 1.0], 60)
        _assert_rows_equal_scalar_calls(net.solution_grid, points, t)
        values = net.solution_grid(points, t)[0]
        assert np.signbit(values[(t == 0) & (points == 0).all(axis=1)]).any()


def test_lagrangian_rows_at_time_zero_take_the_recession():
    rng = np.random.default_rng(7)
    clipped = LagrangianNet(ClippedQuadratic1D(), [[-1.0], [1.0]], [0.0, 0.3])
    for net in (_lagrangian(rng, ShiftedNormPlus(), 5, 3), clipped):
        points = rng.uniform(-4.0, 4.0, (40, net.dimension))
        t = rng.choice([0.0, 0.4, 1.0, 2.0], 40)
        _assert_rows_equal_scalar_calls(net.solution_grid, points, t, net.initial_grid)
        zero = np.zeros(40)
        _assert_rows_equal_scalar_calls(net.solution_grid, points, zero, net.initial_grid)


def test_per_row_zero_rows_are_one_screened_batch(monkeypatch):
    # The rows at t = 0 are taken again as one batch at one time: 40 arch1
    # rows of 64 branches in 20-D are screened on the recession, and equal
    # the exact kernel on all m branches.
    rng = np.random.default_rng(14)
    net = _lagrangian(rng, ShiftedNormPlus(), 64, 20)
    points = rng.uniform(-4.0, 4.0, (60, 20))
    t = np.where(np.arange(60) % 3 == 0, 1.3, 0.0)
    screened = _spy_screen(monkeypatch)
    got = net.solution_grid(points, t)
    assert screened
    want = branches._exact_rows(points[t == 0], net._form(0.0))
    for g, w in zip(got, want):
        assert g[t == 0].tobytes() == w.tobytes()


@pytest.mark.parametrize("problem", ["ball10d", "pwa10d"])
def test_per_row_times_are_refused_as_scalar_times(problem):
    net = shipped_net(problem)
    points = np.random.default_rng(8).uniform(-2.0, 2.0, (6, 10))
    t = np.full(6, 0.5)
    t[3] = -0.25
    with pytest.raises(ValueError) as want:
        net.solution_grid(points[3:4], -0.25)
    with pytest.raises(ValueError) as got:
        net.solution_grid(points, t)
    assert str(got.value) == str(want.value)
    if isinstance(net, LagrangianNet):
        t[3] = 0.0
        with pytest.raises(ValueError) as want:
            net.evaluate_grid(points[3:4], 0.0)
        with pytest.raises(ValueError) as got:
            net.evaluate_grid(points, t)
        assert str(got.value) == str(want.value)
    for wrong in (np.full(5, 0.5), np.full(7, 0.5), np.full((6, 1), 0.5)):
        with pytest.raises(ValueError, match="^t: "):
            net.solution_grid(points, wrong)


# -- the one check of a time ---------------------------------------------------


@pytest.mark.parametrize("problem", ["ball10d", "pwa10d"])
def test_nan_time_is_refused_naming_t(problem):
    # A NaN time is refused before the points are looked at, one time or one
    # per row, on every entry point; it never reaches the activation.
    net = shipped_net(problem)
    points = np.random.default_rng(9).uniform(-2.0, 2.0, (6, 10))
    points[2, 5] = np.nan
    per_row = np.array([0.5, 0.0, np.nan, 1.0, 2.0, 0.5])
    calls = [
        lambda: net.evaluate(points[0], np.nan),
        lambda: net.evaluate(points[0], np.float64("nan")),
        lambda: net.branch_values(points[0], np.nan),
        lambda: net.evaluate_grid(points, np.nan),
        lambda: net.solution_grid(np.ones((5, 10)), np.nan),
        lambda: net.solution_grid(points, np.array(np.nan)),
        lambda: net.solution_grid(points, per_row),
        lambda: net.evaluate_grid(points, np.where(per_row == 0, 1.0, per_row)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^t must be a number, got nan$"):
            call()


@pytest.mark.parametrize("problem", ["ball10d", "pwa10d", "clipped1d"])
def test_kink_margin_keeps_its_positive_time(problem):
    net = shipped_net(problem)
    x = np.full(net.dimension, 0.3)
    for t in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="^t must be positive$"):
            net.kink_margin(x, t, 1)
    # Branch indices are 1-based: 0 would read branch m through index -1.
    m = net.n_branches
    for index in (0, m + 1):
        with pytest.raises(ValueError, match=f"^index must be a branch in 1..{m}, got {index}$"):
            net.kink_margin(x, 1.0, index)
    assert net.kink_margin(x, 1.0, m) >= 0.0


def test_zero_d_time_zero_takes_the_recession():
    # A 0-d array is one time, not one per row: at 0 it takes L's recession.
    net = shipped_net("ball10d")
    points = np.random.default_rng(10).uniform(-2.0, 2.0, (40, 10))
    for zero in (np.array(0.0), np.float64(0.0)):
        _assert_same_bits(net.solution_grid(points, zero), net.initial_grid(points))
        assert net.branch_values(points[0], zero).tobytes() == net.branch_values(points[0], 0.0).tobytes()


def test_infinite_time_is_accepted():
    # t = inf is a number: the branch formula gives what IEEE arithmetic
    # gives, here inf * L(0) = inf * 0 = NaN.
    with np.errstate(invalid="ignore"):
        values = shipped_net("clipped1d").evaluate_grid([[0.5]], np.inf)[0]
    assert np.isnan(values).all()


def test_arch2_at_time_zero_skips_the_screen(monkeypatch):
    # At t = 0 every arch2 branch is J(x) + 0 * b_i, so the screen would tie
    # every row: a batch above SCREEN_MIN_ELEMENTS takes the exact kernel.
    net = norm_net("linf", 100)
    points = np.random.default_rng(11).uniform(-4.0, 4.0, (40, 100))
    assert points.size * net.n_branches >= branches.SCREEN_MIN_ELEMENTS
    screened = _spy_screen(monkeypatch)
    for zero in (0.0, np.array(0.0)):
        _assert_same_bits(net.solution_grid(points, zero), branches._exact_rows(points, net._form(0.0)))
    assert not screened
    net.solution_grid(points, 0.5)
    assert screened


# -- arch2 at t = 0: one activation call per row ---------------------------------


_ZERO_TIME_DATA = {
    "half_squared": lambda rng, n: HalfSquaredNorm(),
    "pnorm1": lambda rng, n: PNorm(1),
    "pnorm2": lambda rng, n: PNorm(2),
    "pnorm_inf": lambda rng, n: PNorm(np.inf),
    "shifted_norm_plus": lambda rng, n: ShiftedNormPlus(),
    "max_affine1": lambda rng, n: MaxAffine(rng.uniform(-2.0, 2.0, (1, n)), [0.0]),
    "max_affine5": lambda rng, n: MaxAffine(rng.uniform(-2.0, 2.0, (5, n)), rng.uniform(-1.0, 1.0, 5)),
    "clipped1d": lambda rng, n: ClippedQuadratic1D(),
}


def _full_matrix(net, points, t):
    """Row-wise (values, argmins, gaps) at time t from the branch formula on
    all m branches, reduced as one matrix: the kernel before the t = 0 rule."""
    m = net.n_branches
    matrix = branches.branch_formula(net._form(t), points[None], np.arange(m)[:, None])
    return branches.reduce_branch_matrix(np.ascontiguousarray(matrix.T))


def _zero_time_rows(rng, n):
    """Generic rows, rows of zeros of both signs, rows with -0 coordinates,
    rows at 1e-200 (where |x|^2 underflows) and rows whose J overflows."""
    points = rng.uniform(-4.0, 4.0, (48, n))
    points[:4] = 0.0
    points[2:4] = -0.0
    mixed = points[4:12]
    mixed[rng.random(mixed.shape) < 0.5] = -0.0
    points[12:20] *= 1e-200
    points[20:28] = np.copysign(1.7e308, points[20:28])
    points[28:32] *= 1e200
    return points


@pytest.mark.parametrize("m", [1, 9])
@pytest.mark.parametrize("data", sorted(_ZERO_TIME_DATA))
def test_arch2_at_time_zero_equals_the_full_branch_matrix(data, m):
    # Every call at t = 0 gives, bit for bit (signs of zero and NaN gaps
    # included), what the branch formula on all m branches gives.
    rng = np.random.default_rng(sorted(_ZERO_TIME_DATA).index(data) + 60 + m)
    n = 1 if data == "clipped1d" else 6
    rows = rng.uniform(-2.0, 2.0, (m, n))
    # Convex offsets of both signs, so that 0 * b_i is +0.0 or -0.0.
    net = InitialDataNet(ConcaveFn(_ZERO_TIME_DATA[data](rng, n)), rows, 0.5 * (rows * rows).sum(axis=1) - 1.0)
    points = _zero_time_rows(rng, n)
    t = np.where(np.arange(len(points)) % 3 == 0, 0.0, 0.5)
    with np.errstate(all="ignore"):
        want = _full_matrix(net, points, 0.0)
        for zero in (0.0, np.array(0.0)):
            _assert_same_bits(net.solution_grid(points, zero), want)
        got = net.solution_grid(points, t)
        later = _full_matrix(net, points, 0.5)
        for g, w, w_later in zip(got, want, later):
            assert g.tobytes() == np.where(t == 0, w, w_later).tobytes()
        for x in points:
            single = branches.reduce_branches(branches.branch_formula(net._form(0.0), x))
            res = net.evaluate(x, 0.0)
            got_single = np.array([res.value, res.gap]).tobytes(), res.argmin_index
            assert got_single == (np.array([single.value, single.gap]).tobytes(), single.argmin_index)
    bad = points.copy()
    bad[5, 0] = np.nan
    bad[7, -1] = np.inf
    with pytest.raises(ValueError) as want_error:
        _full_matrix(net, bad, 0.0)
    calls = [lambda: net.solution_grid(bad, 0.0), lambda: net.solution_grid(bad, t), lambda: net.evaluate(bad[7], 0.0)]
    for call in calls:
        with pytest.raises(ValueError) as got_error:
            call()
        assert str(got_error.value) == str(want_error.value) == "points must have finite coordinates"


class _CountingData(ConcaveFn):
    """Concave initial data that records the number of rows of each call."""

    def __init__(self, negated):
        super().__init__(negated)
        self.rows = []

    def __call__(self, x):
        self.rows.append(len(np.atleast_2d(x)))
        return super().__call__(x)


def test_arch2_at_time_zero_calls_the_data_once_per_row():
    # One activation call on the rows, not one per (row, branch) pair.
    data = _CountingData(HalfSquaredNorm())
    net = InitialDataNet(data, *norm_hamiltonian_rows("linf", 100))
    points = np.random.default_rng(12).uniform(-4.0, 4.0, (40, 100))
    net.solution_grid(points, 0.0)
    assert data.rows == [40]
    data.rows.clear()
    net.evaluate(points[0], 0.0)
    assert data.rows == [1]
    data.rows.clear()
    net.solution_grid(points, np.where(np.arange(40) % 4 == 0, 0.0, 1.3))
    # Every row on all m branches at t = 1, then the ten at t = 0 once each.
    assert data.rows[-1] == 10 and sum(data.rows) == 40 * 200 + 10


# -- the nets' own branch parameters ---------------------------------------------


@pytest.mark.parametrize("arch", ["arch1", "arch2"])
def test_nets_keep_their_branch_parameters_from_the_callers_writes(arch, monkeypatch):
    # Writes to the caller's arrays, after construction and again after a
    # screened batch has lifted the branches, reach neither the net's
    # points and offsets nor its values: the net holds read-only copies.
    rng = np.random.default_rng(51)
    if arch == "arch1":
        points, offsets = rng.uniform(-2.0, 2.0, (64, 20)), rng.uniform(-1.0, 1.0, 64)
        net = LagrangianNet(ShiftedNormPlus(), points, offsets)
    else:
        points, offsets = norm_hamiltonian_rows("linf", 100)
        net = InitialDataNet(ConcaveFn(HalfSquaredNorm()), points, offsets)
    kept = net._points.copy(), net.offsets.copy()
    batch = rng.uniform(-4.0, 4.0, (2000, net.dimension))
    screened = _spy_screen(monkeypatch)
    want = net.solution_grid(batch, T), net.evaluate(batch[0], T)
    assert screened
    for _ in range(2):
        points += rng.uniform(-3.0, 3.0, points.shape)
        offsets -= rng.uniform(0.0, 1.0, offsets.shape)
        got = net.solution_grid(batch, T), net.evaluate(batch[0], T)
        _assert_same_bits(got[0], want[0])
        assert got[1] == want[1]
        assert net._points.tobytes() == kept[0].tobytes() and net.offsets.tobytes() == kept[1].tobytes()
    for own in (net._points, net.offsets):
        with pytest.raises(ValueError, match="read-only"):
            own[0] = 0.0


# -- a single point is a batch of one ------------------------------------------


_REDUCE_ENTRIES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf])


def _outcome(call):
    """The bits of ``call()``'s value, argmin and gap, as arrays (an
    :class:`EvalResult` is one row), or its error's message."""
    try:
        with np.errstate(all="ignore"):
            out = call()
    except ValueError as err:
        return str(err)
    if isinstance(out, branches.EvalResult):
        out = [out.value], [out.argmin_index], [out.gap]
    value, argmin, gap = (np.asarray(part) for part in out)
    return value.tobytes(), argmin.astype(np.intp).tobytes(), gap.tobytes()


def test_both_nets_evaluate_through_the_branch_net():
    # One evaluation surface: the nets add only refusals and t = 0 names.
    assert BranchNet.evaluate is BranchNet._evaluate_point
    assert BranchNet.evaluate_grid is BranchNet.solution_grid is BranchNet._branch_matrix
    for name in ("evaluate", "evaluate_grid", "solution_grid"):
        assert getattr(InitialDataNet, name) is getattr(BranchNet, name)
    assert LagrangianNet.solution_grid is BranchNet.solution_grid


def test_reduce_branches_is_row_zero_of_the_batch_reduction():
    # Both reducers take the gap as the runner-up less the winner's own
    # value, so ties at zero keep one sign of their gap and a row holding
    # NaN gives a NaN gap in both.
    rng = np.random.default_rng(52)
    for m in range(1, 12):
        rows = rng.choice(_REDUCE_ENTRIES, (2000, m))
        rows[:600] = rng.choice(_REDUCE_ENTRIES[:2], (600, m))  # ties at zero
        for v in rows:
            assert _outcome(lambda: branches.reduce_branches(v)) == _outcome(
                lambda: branches.reduce_branch_matrix(v[None])
            ), v
    res = branches.reduce_branches([np.nan, 1.0, 2.0])
    (gap,) = branches.reduce_branch_matrix([[np.nan, 1.0, 2.0]])[2]
    assert np.isnan(res.value) and res.argmin_index == 1 and np.isnan(res.gap) and np.isnan(gap)


def test_arch2_points_at_zero_are_their_one_row_batches():
    # At x = 0 and t = 0 every branch is J(0) + 0 * b_i = -0.0 + (+-0.0):
    # ties at zero of both signs, which the exact kernel reduces.
    rng = np.random.default_rng(53)
    x = np.zeros(4)
    for _ in range(400):
        rows = rng.uniform(-2.0, 2.0, (12, 4))
        offsets = 0.5 * (rows * rows).sum(axis=1) - rng.uniform(0.5, 4.0)
        net = InitialDataNet(ConcaveFn(HalfSquaredNorm()), rows, offsets)
        assert _outcome(lambda: net.evaluate(x, 0.0)) == _outcome(lambda: net.solution_grid(x[None], 0.0))


def _point_rows(rng, n):
    """Generic rows, zeros of both signs, rows with -0 coordinates, rows at
    1e-200 (where |x|^2 underflows) and at 1e155 (where it overflows)."""
    points = rng.uniform(-2.0, 2.0, (20, n))
    points[:4] = 0.0
    points[2:4] = -0.0
    mixed = points[4:10]
    mixed[rng.random(mixed.shape) < 0.5] = -0.0
    points[10:14] *= 1e-200
    points[14:18] *= 1e155
    return points


def _one_row_pairs(net, x):
    """(single-point call, its one-row batch call) pairs of ``net`` at x."""
    pairs = [
        (lambda t=t: net.evaluate(x, t), lambda t=t: net.solution_grid(x[None], t)) for t in (1.3, np.inf)
    ]
    pairs.append((lambda: net.evaluate(x, 1.3), lambda: net.evaluate_grid(x[None], 1.3)))
    at_zero = net.initial_value if isinstance(net, LagrangianNet) else lambda x: net.evaluate(x, 0.0)
    pairs.append((lambda: at_zero(x), lambda: net.solution_grid(x[None], 0.0)))
    if isinstance(net, LagrangianNet):
        pairs.append((lambda: at_zero(x), lambda: net.initial_grid(x[None])))
    return pairs


def test_points_are_their_one_row_batches():
    # evaluate and initial_value give the bits of their one-row batch:
    # values, argmins and gaps, signs of zero and NaN gaps included, or the
    # same error.  Zero rows and zero shifts give ties at zero; arch2 at
    # t = inf takes J at infinite arguments, and arch1 multiplies L(0) by it.
    rng = np.random.default_rng(54)
    nets = []
    for m in (1, 2, 9, 12):
        rows = rng.uniform(-2.0, 2.0, (m, 3))
        rows[: m // 2] = 0.0
        nets.append(LagrangianNet(ShiftedNormPlus(), rows, rng.choice([0.0, -0.0, 1.0], m)))
        # Convex offsets, about half of them negative, so that 0 * b_i is
        # +0.0 or -0.0.
        rows = rng.uniform(-2.0, 2.0, (m, 3))
        half_squares = 0.5 * (rows * rows).sum(axis=1)
        for fn in (HalfSquaredNorm(), PNorm(1)):
            nets.append(InitialDataNet(ConcaveFn(fn), rows, half_squares - np.median(half_squares) - 0.1))
    for net in nets:
        for x in _point_rows(rng, 3):
            for point, batch in _one_row_pairs(net, x):
                assert _outcome(point) == _outcome(batch), (net, x)


class _SignedZeroSquares(HalfSquaredNorm):
    """|x|^2 / 2 with its zeros negated, so that J = -(this) is +0.0 there."""

    def _values(self, pts):
        values = super()._values(pts)
        return np.where(values == 0.0, -0.0, values)


def test_arch2_points_at_time_zero_are_their_one_row_batches():
    # At t = 0 a single point takes one activation call, and returns J(x)
    # with the first branch when J(x) is finite and nonzero: gap +0.0, or
    # +inf for one branch.  J(x) = -0.0 (zero rows, and |x|^2 underflowing
    # at 1e-200) and J(x) = +0.0 (the signed-zero squares) go through the
    # branches, whose ties at zero the exact kernel reduces.
    rng = np.random.default_rng(55)
    seen = set()
    for m in (1, 2, 9):
        rows = rng.uniform(-2.0, 2.0, (m, 3))
        half_squares = 0.5 * (rows * rows).sum(axis=1)
        offsets = half_squares - np.median(half_squares) - 0.1
        for fn in (HalfSquaredNorm(), _SignedZeroSquares(), PNorm(1)):
            net = InitialDataNet(ConcaveFn(fn), rows, offsets)
            for x in _point_rows(rng, 3):
                point = _outcome(lambda: net.evaluate(x, 0.0))
                assert point == _outcome(lambda: net.solution_grid(x[None], 0.0)), (net, x)
                j = ConcaveFn(fn)(x)
                seen.add((m == 1, "nonzero" if j else np.copysign(1.0, j)))
    assert seen == {(single, kind) for single in (True, False) for kind in ("nonzero", 1.0, -1.0)}


# -- the two-branch band -------------------------------------------------------


def _exact_kernel(net, points, t, monkeypatch):
    """``net.solution_grid(points, t)`` on the exact kernel, every branch."""
    with monkeypatch.context() as patch:
        patch.setattr(branches, "SCREEN_MIN_ELEMENTS", 1 << 62)
        return net.solution_grid(points, t)


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("kind", ["linf", "l1"])
def test_rows_with_a_third_branch_in_the_band_fall_back(kind, count_pairs, monkeypatch):
    # Rows tie 1, 2 or 3 ways: on linf, that many coordinates share the
    # largest |x_j|; on l1, that many less one coordinates are zero (ties
    # of 1, 2 and 4 sign vectors, exact ones).  A tie of two stays in the
    # pair, smallest index first; a third tied branch falls in the band,
    # and its row takes every branch.
    n = 100 if kind == "linf" else 8
    net = norm_net("linf", n) if kind == "linf" else norm_net("l1", n)
    rng = np.random.default_rng(47)
    points = rng.uniform(-4.0, 4.0, (90, n))
    tied = rng.permutation(np.repeat([1, 2, 3], 30))
    for x, ways in zip(points, tied):
        axes = rng.choice(n, ways, replace=False)
        if kind == "linf":
            x[axes] = 5.0 * rng.choice([-1.0, 1.0], ways)
        else:
            x[axes[1:]] = 0.0
    want = _exact_kernel(net, points, 1.7, monkeypatch)
    counts = count_pairs()
    got = net.solution_grid(points, 1.7)
    _assert_same_bits(got, want)
    band = (tied == 3).sum()
    assert sum(counts) == 2 * (len(points) - band) + net.n_branches * band
    if kind == "l1":
        assert (got[2][tied > 1] == 0.0).all()


@pytest.mark.parametrize("arch", ["arch1", "arch2"])
def test_two_branch_nets_are_screened(arch, count_pairs, monkeypatch):
    # With m = 2 there is no third branch: the third screen value is +inf
    # and every row takes its pair.
    rng = np.random.default_rng(48)
    if arch == "arch1":
        net = _lagrangian(rng, ShiftedNormPlus(), 2, 200)
    else:
        net = _initialdata(rng, ConcaveFn(HalfSquaredNorm()), 2, 200)
    points = rng.uniform(-4.0, 4.0, (100, 200))
    want = _exact_kernel(net, points, 0.9, monkeypatch)
    screened = _spy_screen(monkeypatch)
    counts = count_pairs()
    got = net.solution_grid(points, 0.9)
    assert screened
    _assert_same_bits(got, want)
    assert sum(counts) == 2 * len(points)


def test_large_single_points_are_one_row_batches(count_pairs):
    # From SCREEN_MIN_ELEMENTS (m, n) differences on, evaluate and
    # initial_value screen the point as a batch of one row does, on both
    # nets, with -0 coordinates too.
    rng = np.random.default_rng(49)
    arch1 = _lagrangian(rng, ShiftedNormPlus(), 64, 600)
    arch2 = _initialdata(rng, ConcaveFn(HalfSquaredNorm()), 64, 600)
    assert arch1.n_branches * arch1.dimension >= branches.SCREEN_MIN_ELEMENTS
    x = rng.uniform(-2.0, 2.0, 600)
    x[::3] = -0.0
    for point, batch in (
        (lambda: arch1.evaluate(x, 0.8), lambda: arch1.solution_grid(x[None], 0.8)),
        (lambda: arch1.initial_value(x), lambda: arch1.initial_grid(x[None])),
        (lambda: arch2.evaluate(x, 0.8), lambda: arch2.solution_grid(x[None], 0.8)),
    ):
        counts = count_pairs()
        res = point()
        assert 0 < sum(counts) < arch1.n_branches
        assert _outcome(lambda: res) == _outcome(batch)


def test_screen_bound_covers_underflowed_branch_norms(monkeypatch):
    # Rows near 1e-170 have |v_i|^2 underflow to 0, while t^2 |v_i|^2 at
    # t = 1e150 is about 1e-38: the bound must carry that loss, scaled by
    # beta^2, or the screen's pair misses the exact winner.
    rng = np.random.default_rng(50)
    rows = rng.normal(size=(40, 30)) * 1e-170
    net = InitialDataNet(ConcaveFn(HalfSquaredNorm()), rows, np.zeros(40))
    points = rng.normal(size=(200, 30)) * 1e-20
    want = _exact_kernel(net, points, 1e150, monkeypatch)
    screened = _spy_screen(monkeypatch)
    _assert_same_bits(net.solution_grid(points, 1e150), want)
    assert screened
