import math

import numpy as np
import pytest

from hjeval.branches import EXACT_BLOCK, reduce_branch_matrix
from hjeval.catalog import (
    ClippedQuadratic1D,
    HalfSquaredNorm,
    IntervalQuadratic1D,
    MaxAffine,
    NormOnBall,
    PNorm,
    ShiftedNormPlus,
    UnitBallIndicator,
)
from hjeval.lagrangian import LagrangianNet
from hjeval.oracle import OracleConfig, lax_oleinik_bruteforce
from hjeval.presets import clipped_quadratic_net_1d, shifted_norm_net_10d


def test_evaluate_clipped_net():
    net = clipped_quadratic_net_1d()
    res = net.evaluate([0.0], 1.0)
    # Branch values by hand: {L(2) - 0.5, L(0), L(-2) - 1} = {1.5, 0, 0.5}.
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.argmin_index == 2
    assert res.gap == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(net.branch_values([0.0], 1.0), [1.5, 0.0, 0.5])


def test_evaluate_shifted_norm_net():
    net = shifted_norm_net_10d()
    res = net.evaluate(net.shifts[0], 1.0)
    # Branches: {-0.5, sqrt(21) - 1, sqrt(8) - 2} by hand.
    assert res.value == pytest.approx(-0.5, abs=1e-15)
    assert res.argmin_index == 1
    expected = [-0.5, np.sqrt(21.0) - 1.0, np.sqrt(8.0) - 2.0]
    np.testing.assert_allclose(net.branch_values(net.shifts[0], 1.0), expected, atol=1e-12)


def test_single_branch_net():
    net = LagrangianNet(PNorm(2), [[1.0, 2.0]], [0.75])
    res = net.evaluate([1.0, 2.0], 1.7)
    assert res.value == pytest.approx(1.7 * 0.0 + 0.75)
    assert res.argmin_index == 1
    assert res.gap == float("inf")


def test_single_branch_batches():
    # One branch: every row's argmin is 1 and its gap +inf, and the values
    # are those of the single-point path.
    net = LagrangianNet(PNorm(2), [[1.0, 2.0]], [0.75])
    points = np.random.default_rng(4).uniform(-3.0, 3.0, (7, 2))
    for t in (0.0, 1.7):
        values, argmins, gaps = net.solution_grid(points, t)
        assert (argmins == 1).all() and (gaps == np.inf).all()
        point = net.initial_value if t == 0 else lambda x: net.evaluate(x, t)
        assert values.tolist() == [point(x).value for x in points]


@pytest.mark.parametrize("p, margin", [(1, 0.25), (2, math.sqrt(2.5625)), (math.inf, 1.0)])
def test_pnorm_kink_margin_is_the_distance_to_the_kinks(p, margin):
    # Branch 2's argument at t = 2 is (x - u_2) / 2 = (0.5, -0.25, 1.5): the
    # l1 norm kinks where a coordinate vanishes, l2 only at the origin, and
    # linf where the two largest magnitudes tie.
    net = LagrangianNet(PNorm(p), [[0.0, 0.0, 0.0], [1.0, 1.0, -1.0]], [0.0, 0.3])
    assert net.kink_margin([2.0, 0.5, 2.0], 2.0, 2) == pytest.approx(margin, rel=1e-15)
    # In 1-D every norm is |z|, with its one kink at 0.
    assert LagrangianNet(PNorm(p), [[0.5]], [0.0]).kink_margin([1.5], 4.0, 1) == 0.25


def test_evaluate_rejects_nonpositive_time():
    net = clipped_quadratic_net_1d()
    with pytest.raises(ValueError, match="initial_value"):
        net.evaluate([0.0], 0.0)
    with pytest.raises(ValueError, match="positive"):
        net.evaluate([0.0], -1.0)
    with pytest.raises(ValueError, match="initial_grid"):
        net.evaluate_grid([[0.0]], 0.0)
    with pytest.raises(ValueError, match="t must be positive"):
        net.kink_margin([0.0], 0.0, 1)


def test_initial_value_clipped_net():
    net = clipped_quadratic_net_1d()
    # Branches at x=0: {rec(2) - 0.5, rec(0), rec(-2) - 1} = {3.5, 0, 1}.
    assert net.initial_value([0.0]).value == pytest.approx(0.0)
    # Branches at x=2: {7.5, 4, -1}.
    res = net.initial_value([2.0])
    assert res.value == pytest.approx(-1.0)
    assert res.argmin_index == 3


def test_initial_value_at_shift_with_minimal_offset():
    # At x = u_k with the smallest offset, nonnegative recessions give a_k.
    for lagr in (ClippedQuadratic1D(), PNorm(2), ShiftedNormPlus()):
        n = lagr.dim or 3
        shifts = np.array([[0.5] * n, [-1.0] * n])
        net = LagrangianNet(lagr, shifts, [0.25, 1.5])
        assert net.initial_value(shifts[0]).value == pytest.approx(0.25)


def test_branch_values_follow_the_time_rules():
    # t = 0 gives the recession branches that initial_value reduces; t < 0 is
    # outside the representation on every entry point.
    net = clipped_quadratic_net_1d()
    np.testing.assert_array_equal(net.branch_values([2.0], 0.0), [7.5, 4.0, -1.0])
    for call in (net.branch_values, net.solution_grid):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            call([[2.0]], -1.0)


def test_rejects_non_lipschitz_lagrangian():
    with pytest.raises(ValueError, match="Lipschitz"):
        LagrangianNet(HalfSquaredNorm(), [[0.0]], [0.0])


def test_rejects_bad_parameters():
    with pytest.raises(ValueError, match="finite on all of R\\^n"):
        LagrangianNet(IntervalQuadratic1D(), [[0.0]], [0.0])
    with pytest.raises(ValueError, match="equal length"):
        LagrangianNet(PNorm(2), [[0.0, 0.0]], [0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        LagrangianNet(PNorm(2), [[np.inf, 0.0]], [0.0])
    with pytest.raises(ValueError, match="R\\^1"):
        LagrangianNet(ClippedQuadratic1D(), [[0.0, 1.0]], [0.0])
    net = clipped_quadratic_net_1d()
    with pytest.raises(ValueError, match="dimension"):
        net.evaluate([0.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="ndim=3"):
        net.solution_grid(np.zeros((2, 1, 1)), 1.0)


def test_evaluate_takes_a_one_row_point():
    net = shifted_norm_net_10d()
    x = np.linspace(-1.0, 1.0, 10)
    assert net.evaluate(x[None], 1.5) == net.evaluate(x, 1.5)


def test_hamiltonian_closed_forms():
    assert clipped_quadratic_net_1d().hamiltonian() == IntervalQuadratic1D()
    assert shifted_norm_net_10d().hamiltonian() == NormOnBall()
    net = LagrangianNet(PNorm(2), [[0.0, 0.0]], [0.0])
    assert net.hamiltonian() == UnitBallIndicator(2)


def test_hamiltonian_unavailable_for_max_affine():
    from hjeval.catalog import MaxAffine

    net = LagrangianNet(MaxAffine([[1.0]], [0.0]), [[0.0]], [0.0])
    with pytest.raises(ValueError, match="grid_conjugate"):
        net.hamiltonian()


def test_value_never_exceeds_any_branch():
    rng = np.random.default_rng(2)
    net = shifted_norm_net_10d()
    for _ in range(50):
        x = rng.uniform(-4, 4, 10)
        t = rng.uniform(0.1, 3.0)
        res = net.evaluate(x, t)
        branches = net.branch_values(x, t)
        assert (res.value <= branches).all()
        assert res.value == branches.min()


def test_single_branch_scaling_symmetry():
    # With one branch, value(u + s d, s t) - a scales linearly in s.
    net = LagrangianNet(ClippedQuadratic1D(), [[0.7]], [0.3])
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = rng.uniform(-3, 3)
        t = rng.uniform(0.2, 2.0)
        base = net.evaluate([0.7 + d], t).value - 0.3
        for s in (0.5, 2.0):
            scaled = net.evaluate([0.7 + s * d], s * t).value - 0.3
            assert scaled == pytest.approx(s * base, rel=1e-12, abs=1e-12)


def test_small_time_approaches_initial_data():
    for net, n in ((clipped_quadratic_net_1d(), 1), (shifted_norm_net_10d(), 10)):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-4, 4, (50, n))
        small = net.evaluate_grid(pts, 1e-6)[0]
        initial = net.initial_grid(pts)[0]
        np.testing.assert_allclose(small, initial, atol=1e-3)


def test_grid_evaluation_matches_pointwise():
    net = shifted_norm_net_10d()
    rng = np.random.default_rng(8)
    pts = rng.uniform(-4, 4, (20, 10))
    values, argmins, gaps = net.evaluate_grid(pts, 0.8)
    for i, x in enumerate(pts):
        res = net.evaluate(x, 0.8)
        assert values[i] == res.value
        assert argmins[i] == res.argmin_index
        assert gaps[i] == res.gap


def test_bruteforce_oracle_bounds_from_above():
    net = clipped_quadratic_net_1d()
    cfg = OracleConfig(pts_per_axis=4001)
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.uniform(-4, 4, 1)
        t = rng.uniform(0.1, 3.0)
        oracle = lax_oleinik_bruteforce(net.initial_values, net.lagrangian, x, t, cfg)
        assert oracle >= net.evaluate(x, t).value - 1e-12


@pytest.mark.parametrize("make_net", [clipped_quadratic_net_1d, shifted_norm_net_10d])
def test_initial_values_equal_initial_grid_values(make_net):
    # The oracle integrand reduces with a plain min; only the sign of a zero
    # may differ from the argmin-indexed initial_grid values.
    net = make_net()
    rows_per_block = EXACT_BLOCK // (net.n_branches * net.dimension)
    rng = np.random.default_rng(12)
    points = rng.uniform(-30.0, 30.0, (3 * rows_per_block + 7, net.dimension))
    points[::97] *= 10.0 ** rng.uniform(150.0, 160.0, (len(points[::97]), 1))
    points[1::89] *= -1.0
    points[5], points[6] = 0.0, -0.0
    points[7] = net.shifts[0]
    with np.errstate(over="ignore", invalid="ignore"):
        got = net.initial_values(points)
        want = net.initial_grid(points)[0]
    assert got.shape == want.shape == (len(points),)
    np.testing.assert_array_equal(got, want)  # +-inf included; 0.0 == -0.0


# -- batch path against the per-branch loop ------------------------------------


def _loop_reference(net, points, t):
    """The per-branch loop the batch path replaced: one activation call per branch."""
    if t == 0:
        cols = [net.lagrangian.recession(points - u) + a for u, a in zip(net.shifts, net.offsets)]
    else:
        cols = [t * net.lagrangian((points - u) / t) + a for u, a in zip(net.shifts, net.offsets)]
    return reduce_branch_matrix(np.stack(cols, axis=1))


def _nonradial(rng, n):
    """A Lipschitz activation with no radial form: the batch runs every branch exactly."""
    # Half the draws are max-affine, whose pieces are inner products with each point.
    pick = int(rng.integers(6))
    if pick == 0:
        return ClippedQuadratic1D()
    if pick >= 3:
        pieces = int(rng.integers(1, 9))
        return MaxAffine(rng.uniform(-2.0, 2.0, (pieces, n)), rng.uniform(-1.0, 1.0, pieces))
    return PNorm((1.0, np.inf)[pick - 1])


def _lagrangian_batch(rng, case):
    lagr = (PNorm(2), ShiftedNormPlus())[rng.integers(2)]
    n, m, k = int(rng.integers(1, 13)), int(rng.integers(2, 41)), int(rng.integers(2, 300))
    shifts = rng.uniform(-2.0, 2.0, (m, n))
    offsets = rng.uniform(-1.0, 1.0, m)
    points = rng.uniform(-4.0, 4.0, (k, n))
    t = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 3.0))
    if case == "ties":
        # Duplicated branches, zero offsets and points on branch centres:
        # exact ties, many of them at zero.
        offsets[rng.random(m) < 0.5] = 0.0
        dup = rng.integers(m, size=m // 2)
        shifts[: m // 2], offsets[: m // 2] = shifts[dup], offsets[dup]
        points[: k // 2] = shifts[rng.integers(m, size=k // 2)]
    elif case == "near":
        # Offsets that make every branch tie at one anchor up to rounding,
        # and points within a few ulps of it.  At a branch centre the screen
        # distance is the square root of a rounding error.
        x0 = shifts[0].copy() if rng.random() < 0.5 else points[0]
        base = t * lagr((x0 - shifts) / t) if t else lagr.recession(x0 - shifts)
        offsets = 0.25 - base
        points[: k // 2] = x0 * (1.0 + rng.integers(-3, 4, (k // 2, n)) * 2.0**-52)
    elif case == "scaled":
        shifts, offsets, points, t = shifts * 1e8, offsets * 1e8, points * 1e8, t * 1e8
    elif case == "huge":
        roll = rng.random()
        if roll < 0.2:
            t = np.inf  # 0 * inf: NaN branch values
        elif roll < 0.4:
            t = 1e-200  # |(x - u) / t|^2 overflows where |x - u|^2 does not
        else:
            # |x|^2 near or past overflow: these rows take every branch exactly.
            points[::2] *= 10.0 ** rng.uniform(150.0, 160.0)
    elif case == "nonradial":
        lagr = _nonradial(rng, n)
        if lagr.dim == 1:
            shifts, points = shifts[:, :1], points[:, :1]
    return LagrangianNet(lagr, shifts, offsets), points, t


@pytest.mark.parametrize("case", ["generic", "ties", "near", "scaled", "huge", "nonradial"])
def test_screened_batches_equal_branch_loop(case, check_batch):
    rng = np.random.default_rng(
        ["generic", "ties", "near", "scaled", "huge", "nonradial"].index(case)
    )
    for _ in range(20):
        net, points, t = _lagrangian_batch(rng, case)
        pairs = check_batch(net, points, t, _loop_reference, rng)
        if case == "generic" and net.n_branches >= 8:
            assert pairs < len(points) * net.n_branches  # the screen dropped branches


def test_batch_errors_match_branch_loop():
    net = shifted_norm_net_10d()
    bad = np.zeros((5, 10))
    bad[3, 4] = np.nan
    ones = np.ones((5, 10))
    for points, t in ((bad, 1.0), (bad, 0.0), (ones, 1e-320)):
        with pytest.raises(ValueError) as want, np.errstate(all="ignore"):
            _loop_reference(net, points, t)
        with pytest.raises(ValueError) as got, np.errstate(all="ignore"):
            net.solution_grid(points, t)
        assert str(got.value) == str(want.value) == "points must have finite coordinates"
    with pytest.raises(ValueError, match="net expects 10"):
        net.evaluate_grid(np.zeros((3, 2)), 1.0)
