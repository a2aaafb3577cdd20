import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hjeval.numeric as numeric
import hjeval.oracle as oracle
import hjeval.simplex as simplex
from hjeval.catalog import ConcaveFn, HalfSquaredNorm, PNorm, ensure_extended
from hjeval.config import load_problem
from hjeval.initialdata import InitialDataNet
from hjeval.lagrangian import LagrangianNet
from hjeval.numeric import finite_minimum
from hjeval.oracle import (
    FD_STEP,
    MAX_ORACLE_LPS,
    OracleConfig,
    OracleDomainError,
    _hstar_eval,
    gradient_fd,
    hj_residual,
    hstar_interpolator_1d,
    lax_oleinik_bruteforce,
    lax_oleinik_bruteforce_velocity,
    sample_screened_points,
    screen_point,
    velocity_grid,
    verify_report,
)
from hjeval.presets import (
    clipped_quadratic_net_1d,
    concave_quadratic_net_1d,
    shifted_norm_net_10d,
)
from hjeval.simplex import stack_block_targets

CFG = OracleConfig(pts_per_axis=40001)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _batch(net):
    """The batch evaluator (points, t) -> values that verify passes to the residual."""
    return lambda points, t: net.solution_grid(points, t)[0]


def test_oracle_config_validation():
    with pytest.raises(ValueError, match="odd"):
        OracleConfig(pts_per_axis=100)
    with pytest.raises(ValueError, match="at least 3"):
        OracleConfig(pts_per_axis=1)


def test_bruteforce_matches_lagrangian_net():
    net = clipped_quadratic_net_1d()
    val = lax_oleinik_bruteforce(net.initial_values, net.lagrangian, [0.0], 1.0, CFG)
    assert val == pytest.approx(0.0, abs=2e-3)


def test_bruteforce_velocity_matches_initialdata_net():
    net = concave_quadratic_net_1d()
    hstar = hstar_interpolator_1d(net)
    val = lax_oleinik_bruteforce_velocity(
        net.initial_values, hstar, [0.0], 1.0, net.rows.min(axis=0), net.rows.max(axis=0), 4001
    )
    assert val == pytest.approx(-5.0, abs=2e-3)


def test_bruteforce_velocity_refuses_negative_time_and_an_empty_domain():
    net = concave_quadratic_net_1d()
    hstar = hstar_interpolator_1d(net)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        lax_oleinik_bruteforce_velocity(net.initial_values, hstar, [0.0], -1.0, -2.0, 2.0, 11)
    # The box [3, 4] lies outside dom H* = [-2, 2]: every term is +inf.
    with pytest.raises(OracleDomainError, match="all grid terms are \\+inf"):
        lax_oleinik_bruteforce_velocity(net.initial_values, hstar, [0.0], 1.0, 3.0, 4.0, 11)


def test_velocity_oracle_refuses_grids_above_the_point_cap():
    # 40,001^2 = 1.6e9 velocities: refused before any grid is allocated.
    def never(points):
        raise AssertionError("evaluated a grid above the cap")

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="20000000 point cap"):
            lax_oleinik_bruteforce_velocity(never, never, [0.0, 0.0], 1.0, -2.0, 2.0, 40001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bruteforce_uform_matches_initialdata_net_at_gridpoint():
    # The winning velocity at (0, 1) is 0, so the minimizing u is the grid
    # center and the position-form oracle is exact here too.
    net = concave_quadratic_net_1d()
    hstar = hstar_interpolator_1d(net)
    val = lax_oleinik_bruteforce(net.initial_values, hstar, [0.0], 1.0, CFG)
    assert val == pytest.approx(-5.0, abs=2e-3)


def test_bruteforce_constant_initial_data():
    # With constant data and a conjugate minimized at 0, the value is the constant.
    const = lambda pts: np.full(len(np.atleast_2d(pts)), 4.25)
    hstar = PNorm(2)  # nonnegative, zero at the origin
    val = lax_oleinik_bruteforce(const, hstar, [1.0], 0.7, OracleConfig(2001))
    assert val == pytest.approx(4.25, abs=1e-3)


def test_bruteforce_requires_positive_time():
    net = clipped_quadratic_net_1d()
    with pytest.raises(ValueError, match="positive"):
        lax_oleinik_bruteforce(net.initial_values, net.lagrangian, [0.0], 0.0, CFG)


def test_bruteforce_all_infinite_raises():
    net = clipped_quadratic_net_1d()
    # Conjugate finite only on [35, 36]: reaching it needs u in x - t[35, 36],
    # which lies outside the search box x +- SEARCH_HALFWIDTH (20).
    hstar = lambda v: np.where((v[:, 0] >= 35.0) & (v[:, 0] <= 36.0), 0.0, np.inf)
    with pytest.raises(OracleDomainError):
        lax_oleinik_bruteforce(net.initial_values, hstar, [10.0], 1.0, OracleConfig(101))


def _unblocked_bruteforce(net, x, t, pts):
    """The position oracle over its whole u-grid at once, as float64 bytes."""
    x = np.asarray(x, dtype=float)
    half = oracle.SEARCH_HALFWIDTH
    u = numeric.tensor_grid([np.linspace(c - half, c + half, pts) for c in x])
    initial, hstar = net.initial_values, net.lagrangian
    terms = ensure_extended(initial(u)) + ensure_extended(t * hstar((x - u) / t))
    return np.float64(numeric.finite_minimum(terms)).tobytes()


@pytest.mark.parametrize("block", [7, 4096])
def test_blocked_bruteforce_equals_the_unblocked_formula(monkeypatch, block):
    monkeypatch.setattr(numeric, "GRID_BLOCK", block)
    net = load_problem(CONFIG_DIR / "clipped1d.cfg").build_net()
    rng = np.random.default_rng(block)
    pts = 4001 if block == 7 else 40001
    for _ in range(10):
        x, t = rng.uniform(-4.0, 4.0, 1), float(rng.uniform(0.1, 3.0))
        got = lax_oleinik_bruteforce(net.initial_values, net.lagrangian, x, t, OracleConfig(pts))
        assert np.float64(got).tobytes() == _unblocked_bruteforce(net, x, t, pts)


def test_bruteforce_all_infinite_raises_in_every_block(monkeypatch):
    monkeypatch.setattr(numeric, "GRID_BLOCK", 7)
    net = clipped_quadratic_net_1d()
    hstar = lambda v: np.where((v[:, 0] >= 35.0) & (v[:, 0] <= 36.0), 0.0, np.inf)
    with pytest.raises(OracleDomainError, match="all grid terms are"):
        lax_oleinik_bruteforce(net.initial_values, hstar, [10.0], 1.0, OracleConfig(101))


@pytest.mark.parametrize("bad, message", [(np.nan, "produced NaN"), (-np.inf, "produced -inf")])
def test_bruteforce_refuses_nan_and_neginf_conjugate_values(bad, message):
    # H* is validated once, after scaling by t > 0, which keeps NaN and -inf.
    net = clipped_quadratic_net_1d()
    hstar = lambda v: np.where(v[:, 0] > 3.0, bad, 0.0)
    with pytest.raises(ValueError, match=message):
        lax_oleinik_bruteforce(net.initial_values, hstar, [0.0], 0.5, OracleConfig(101))


@pytest.mark.parametrize("block", [7, 4096])
@pytest.mark.parametrize("bad, message", [(np.nan, "produced NaN"), (-np.inf, "produced -inf")])
def test_bruteforce_refuses_nan_and_neginf_initial_values(monkeypatch, block, bad, message):
    # The bad values sit at u >= 15 alone: with 7-row blocks of the 101-node
    # u-grid on [-20, 20], from the 13th of 15 blocks on.  J is checked
    # before H*, so a NaN H* at the same nodes (v = -u / t <= -30) never shows.
    monkeypatch.setattr(numeric, "GRID_BLOCK", block)
    net = clipped_quadratic_net_1d()
    initial = lambda u: np.where(u[:, 0] >= 15.0, bad, net.initial_values(u))
    with pytest.raises(ValueError, match=message):
        lax_oleinik_bruteforce(initial, net.lagrangian, [0.0], 0.5, OracleConfig(101))
    hstar = lambda v: np.where(v[:, 0] <= -30.0, np.nan, net.lagrangian(v))
    with pytest.raises(ValueError, match=message):
        lax_oleinik_bruteforce(initial, hstar, [0.0], 0.5, OracleConfig(101))


def test_bruteforce_memory_does_not_grow_with_the_grid():
    # 2,000,001 u-points: one block at a time keeps the peak far below the
    # 16 MB of the grid alone (the whole-grid scan peaked at 126 MiB).
    net = load_problem(CONFIG_DIR / "clipped1d.cfg").build_net()
    x, t, pts = np.array([0.7]), 1.3, 2_000_001
    tracemalloc.start()
    try:
        got = lax_oleinik_bruteforce(net.initial_values, net.lagrangian, x, t, OracleConfig(pts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert np.float64(got).tobytes() == _unblocked_bruteforce(net, x, t, pts)


def test_velocity_form_allows_time_zero():
    net = concave_quadratic_net_1d()
    hstar = hstar_interpolator_1d(net)
    val = lax_oleinik_bruteforce_velocity(
        net.initial_values, hstar, [1.5], 0.0, -2.0, 2.0, 4001
    )
    assert val == pytest.approx(net.initial_data([1.5]), abs=1e-12)


@pytest.mark.parametrize("bad, message", [(np.nan, "produced NaN"), (-np.inf, "produced -inf")])
def test_velocity_oracle_refuses_nan_and_neginf_initial_values(bad, message):
    net = concave_quadratic_net_1d()
    hstar = hstar_interpolator_1d(net)
    initial = lambda y: np.where(y[:, 0] > 1.0, bad, net.initial_values(y))
    # At t = 1, y = -v is above 1 on v < -1; at t = 0 every y is x.  The box
    # [-3, 3] is wider than the hull [-2, 2], so t = 0 adds 0 * inf = NaN.
    for x, t in [(0.0, 1.0), (1.5, 0.0)]:
        for half in (2.0, 3.0):
            with pytest.raises(ValueError, match=message):
                lax_oleinik_bruteforce_velocity(initial, hstar, [x], t, -half, half, 401)


def test_velocity_oracle_at_time_zero_returns_the_data_bit_for_bit():
    # On a box wider than the hull, H* is +inf off the hull and 0 * inf is
    # NaN there; the oracle skips those nodes and returns J(x) + 0 * H* = J(x).
    net = concave_quadratic_net_1d()
    hstar = hstar_interpolator_1d(net)
    for x in np.random.default_rng(7).uniform(-4.0, 4.0, 20):
        got = lax_oleinik_bruteforce_velocity(net.initial_values, hstar, [x], 0.0, -3.0, 3.0, 601)
        assert np.float64(got).tobytes() == np.float64(net.initial_data([x])).tobytes()


def test_velocity_oracle_at_time_zero_warns_nothing():
    # pwa1d's hull widened by 1: off the hull H* is +inf, and 0 * inf is NaN
    # there.  The oracle skips those nodes without a RuntimeWarning, and its
    # value keeps its bits (J(0) = -0.0 plus 0 * H* is +0.0).
    net = load_problem(CONFIG_DIR / "pwa1d.cfg").build_net()
    hstar = _hstar_eval(net)
    lo, hi = net.rows.min(axis=0) - 1.0, net.rows.max(axis=0) + 1.0
    v, hstar_v = velocity_grid(hstar, lo, hi, 4001)
    for x in (-3.1, -0.4, 0.0, 0.7, 2.5):
        with np.errstate(invalid="ignore"):
            want = finite_minimum(net.initial_values(x - 0.0 * v) + 0.0 * hstar_v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lax_oleinik_bruteforce_velocity(net.initial_values, hstar, [x], 0.0, lo, hi, 4001)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert got == net.initial_values([[x]])[0]


@pytest.mark.parametrize("problem, pts", [("pwa1d", 4001), ("pwa2d", 21)])
def test_velocity_oracle_equals_the_plain_finite_minimum(problem, pts):
    net = _pwa2d_net() if problem == "pwa2d" else load_problem(CONFIG_DIR / f"{problem}.cfg").build_net()
    hstar = _hstar_eval(net)
    lo, hi = net.rows.min(axis=0), net.rows.max(axis=0)
    rng = np.random.default_rng(8)
    for box_lo, box_hi in [(lo, hi), (lo - 1.0, hi + 0.5)]:
        grid = velocity_grid(hstar, box_lo, box_hi, pts)
        v, hstar_v = grid
        for i in range(20):
            x = rng.uniform(-4.0, 4.0, net.dimension)
            t = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 3.0))
            want = finite_minimum(ensure_extended(net.initial_values(x - t * v)) + t * hstar_v)
            got = lax_oleinik_bruteforce_velocity(
                net.initial_values, hstar, x, t, box_lo, box_hi, pts, grid=grid
            )
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_grid_refinement_never_increases_minimum():
    net = clipped_quadratic_net_1d()
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(-4, 4, 1)
        t = rng.uniform(0.5, 2.0)
        coarse = lax_oleinik_bruteforce(
            net.initial_values, net.lagrangian, x, t, OracleConfig(101)
        )
        fine = lax_oleinik_bruteforce(
            net.initial_values, net.lagrangian, x, t, OracleConfig(201)
        )
        assert fine <= coarse + 1e-12  # nested grids: min over a superset


def test_hstar_interpolator_refuses_nets_above_one_dimension():
    with pytest.raises(ValueError, match="one-dimensional"):
        hstar_interpolator_1d(_pwa2d_net())


def test_hstar_interpolator_agrees_with_lp():
    net = concave_quadratic_net_1d()
    hstar = hstar_interpolator_1d(net)
    rng = np.random.default_rng(1)
    vs = rng.uniform(-2.5, 2.5, 200)
    interp = hstar(vs.reshape(-1, 1))
    lp = np.array([net.hamiltonian_conjugate([v]).value for v in vs])
    finite = np.isfinite(lp)
    np.testing.assert_array_equal(np.isfinite(interp), finite)
    np.testing.assert_allclose(interp[finite], lp[finite], atol=1e-9)


def test_gradient_fd_affine_exact():
    c = np.array([2.0, -3.0, 0.5])
    d = 1.25
    eval_fn = lambda pts, t: pts @ c + d * t
    dt, dx = gradient_fd(eval_fn, [0.3, -0.7, 2.0], 1.0, 1e-4)
    assert dt == pytest.approx(d, abs=1e-10)
    np.testing.assert_allclose(dx, c, atol=1e-10)


def test_gradient_fd_quadratic_second_order():
    eval_fn = lambda pts, t: -0.5 * np.einsum("ij,ij->i", pts, pts)
    rng = np.random.default_rng(2)
    for h in (1e-2, 1e-3):
        x = rng.uniform(-2, 2, 3)
        _, dx = gradient_fd(eval_fn, x, 1.0, h)
        assert np.abs(dx - (-x)).max() <= 10 * h * h


def test_gradient_fd_time_guard():
    with pytest.raises(ValueError, match="t - h"):
        gradient_fd(lambda pts, t: np.zeros(len(pts)), [0.0], 5e-5, 1e-4)
    for h in (0.0, -1e-4):
        with pytest.raises(ValueError, match="h must be positive"):
            gradient_fd(lambda pts, t: np.zeros(len(pts)), [0.0], 1.0, h)


def test_residual_zero_at_smooth_point():
    net = concave_quadratic_net_1d()
    sol = _batch(net)
    res = hj_residual(sol, net.hamiltonian(), [10.0], 1.0, 1e-4)
    assert res <= 1e-6
    dt, dx = gradient_fd(sol, [10.0], 1.0, 1e-4)
    assert dt == pytest.approx(-23.5, abs=1e-6)
    assert dx[0] == pytest.approx(-12.0, abs=1e-6)


def test_gradient_fd_vanishes_at_flat_minimum():
    # Winner branch of the clipped net at (0, 1) is t L(x/t), whose space and
    # time slopes both vanish at the origin.
    net = clipped_quadratic_net_1d()
    sol = _batch(net)
    dt, dx = gradient_fd(sol, [0.0], 1.0, 1e-4)
    assert abs(dt) <= 1e-6
    assert abs(dx[0]) <= 1e-6


def test_residual_stationary_solution():
    # Constant data with H(0) = 0 is a stationary solution.
    sol = lambda pts, t: np.full(len(pts), 4.2)
    res = hj_residual(sol, PNorm(2), [0.4, -1.2], 1.0, 1e-4)
    assert res <= 1e-9


def test_residual_flags_domain_escape():
    from hjeval.catalog import UnitBallIndicator

    sol = lambda pts, t: 3.0 * pts.sum(axis=1)  # gradient (3, 3): far outside the ball
    res = hj_residual(sol, UnitBallIndicator(2), [0.0, 0.0], 1.0, 1e-4)
    assert res == float("inf")


def _pointwise_residual(net, x, t, h):
    """The residual as 2n + 2 single-point ``evaluate`` calls, one stencil
    point at a time: the computation the batched stencil replaced."""
    sol = lambda p, s: net.evaluate(p, s).value
    dt = (sol(x, t + h) - sol(x, t - h)) / (2 * h)
    dx = np.empty_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        dx[j] = (sol(x + step, t) - sol(x - step, t)) / (2 * h)
    h_val = float(net.hamiltonian()(dx))
    return float(dt), dx, float("inf") if np.isinf(h_val) else abs(dt + h_val)


@pytest.mark.parametrize("problem", ["ball10d", "pwa10d", "clipped1d"])
def test_batched_residual_equals_pointwise_stencil(problem):
    net = load_problem(CONFIG_DIR / f"{problem}.cfg").build_net()
    rng = np.random.default_rng(4)
    samples = []
    for _ in range(25):
        x = rng.uniform(-4.0, 4.0, net.dimension)
        t = float(rng.uniform(0.1, 3.0))
        dt, dx, residual = _pointwise_residual(net, x, t, FD_STEP)
        samples.append((x, t, dt, dx, residual))
        got_dt, got_dx = gradient_fd(_batch(net), x, t, FD_STEP)
        assert got_dt.hex() == dt.hex()
        assert got_dx.tobytes() == dx.tobytes()
        got = hj_residual(_batch(net), net.hamiltonian(), x, t, FD_STEP)
        assert got.hex() == residual.hex()
    # The 25 samples again, stacked: one stencil, each row its own sample's.
    xs, ts = np.array([s[0] for s in samples]), np.array([s[1] for s in samples])
    got_dt, got_dx = gradient_fd(_batch(net), xs, ts, FD_STEP)
    got = hj_residual(_batch(net), net.hamiltonian(), xs, ts, FD_STEP)
    assert got_dt.shape == got.shape == (25,) and got_dx.shape == (25, net.dimension)
    for i, (_, _, dt, dx, residual) in enumerate(samples):
        assert got_dt[i].hex() == dt.hex()
        assert got_dx[i].tobytes() == dx.tobytes()
        assert got[i].hex() == residual.hex()


def test_stacked_stencil_is_one_call_of_each_evaluator():
    calls = []

    def solution(points, t):
        calls.append(("S", points.shape, np.shape(t)))
        return points @ np.array([2.0, -3.0]) + 1.25 * t

    def hamiltonian(p):
        calls.append(("H", p.shape))
        return np.zeros(len(p))

    xs, ts = np.random.default_rng(9).uniform(-1.0, 1.0, (7, 2)), np.linspace(0.5, 2.0, 7)
    dt, dx = gradient_fd(solution, xs, ts, 1e-4)
    np.testing.assert_allclose(dt, 1.25, atol=1e-10)
    np.testing.assert_allclose(dx, np.tile([2.0, -3.0], (7, 1)), atol=1e-10)
    assert calls == [("S", (7 * 6, 2), (7 * 6,))]
    calls.clear()
    hj_residual(solution, hamiltonian, xs, ts, 1e-4)
    assert calls == [("S", (7 * 6, 2), (7 * 6,)), ("H", (7, 2))]
    with pytest.raises(ValueError, match="t - h"):
        gradient_fd(solution, xs, np.where(ts > 1.0, ts, 5e-5), 1e-4)


def _pwa2d_net():
    rows = np.array([[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]])
    return InitialDataNet(ConcaveFn(HalfSquaredNorm()), rows, np.full(4, 4.0))


def _count_lps(monkeypatch):
    """Record the targets (LPs) of each ``hamiltonian_conjugate`` call."""
    counts = []
    solve = InitialDataNet.hamiltonian_conjugate

    def counting(self, v):
        counts.append(len(np.atleast_2d(v)))
        return solve(self, v)

    monkeypatch.setattr(InitialDataNet, "hamiltonian_conjugate", counting)
    return counts


def _count_blocks(monkeypatch):
    """Record the targets of each block of a stacked simplex solve."""
    blocks = []
    solve = simplex._minimize_stack

    def counting(costs, points, targets):
        blocks.append(len(targets))
        return solve(costs, points, targets)

    monkeypatch.setattr(simplex, "_minimize_stack", counting)
    return blocks


@pytest.mark.parametrize("samples", [1, 5])
def test_two_dimensional_verify_solves_one_lp_per_grid_node(monkeypatch, samples):
    counts = _count_lps(monkeypatch)
    report = verify_report(_pwa2d_net(), samples, 3, OracleConfig(21))
    assert len(report.records) == samples
    assert sum(counts) == 21 * 21
    assert report.max_oracle_gap <= 2e-3


def test_velocity_grid_is_one_stacked_call_per_block(monkeypatch):
    # Blocks of 100 targets (32 tableau floats each at m = 4, n = 2): the
    # 441 nodes take five stacked blocks, each node's H* bit for bit its own LP.
    net = _pwa2d_net()
    blocks = _count_blocks(monkeypatch)
    velocity_grid(_hstar_eval(net), net.rows.min(axis=0), net.rows.max(axis=0), 21)
    assert blocks == [21 * 21]
    monkeypatch.setattr(simplex, "STACK_BLOCK", 100 * 32)
    blocks.clear()
    v, hstar_v = velocity_grid(_hstar_eval(net), net.rows.min(axis=0), net.rows.max(axis=0), 21)
    assert blocks == [100, 100, 100, 100, 41]
    one = np.array([net.hamiltonian_conjugate(p).value for p in v])
    assert hstar_v.tobytes() == one.tobytes()


def test_velocity_grid_at_the_documented_reach_stays_within_32_mib(monkeypatch):
    # 499^2 = 249,001 LPs, the largest 2-D grid under MAX_ORACLE_LPS, in
    # stacked blocks of 8,192 targets: 0.9-1.1 s untraced and about 1.2 s
    # under tracemalloc, peak 14.9 MiB, on one core of a shared 2-CPU machine.
    net = _pwa2d_net()
    blocks = _count_blocks(monkeypatch)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        v, hstar_v = velocity_grid(_hstar_eval(net), net.rows.min(axis=0), net.rows.max(axis=0), 499)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"velocity_grid, pts_per_axis 499: {elapsed:.2f} s traced, peak {peak / 2**20:.1f} MiB")
    assert peak < 32 << 20
    block = stack_block_targets(4, 2)
    assert sum(blocks) == 499**2 and len(blocks) == -(-(499**2) // block)
    for i in np.random.default_rng(0).choice(len(v), 40, replace=False):
        assert hstar_v[i].hex() == net.hamiltonian_conjugate(v[i]).value.hex()


def test_verify_refuses_velocity_grids_above_the_lp_budget(monkeypatch):
    counts = _count_lps(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="LP budget; reduce pts_per_axis"):
            verify_report(_pwa2d_net(), 5, 0, OracleConfig(501))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not counts
    assert peak < 1 << 20
    # The documented reach: 2-D up to pts_per_axis 499, 3-D up to 61.
    assert 499**2 <= MAX_ORACLE_LPS < 501**2
    assert 61**3 <= MAX_ORACLE_LPS < 63**3


def test_screening_thresholds():
    net = clipped_quadratic_net_1d()
    ok, result = screen_point(net, [0.0], 1.0)
    assert ok and result.gap > 0.1
    # Near the kink of the solution between branches the gap collapses.
    bad_x = None
    for x in np.linspace(-1.4, -0.6, 200):
        r = net.evaluate([x], 1.0)
        if r.gap <= 0.1:
            bad_x = x
            break
    assert bad_x is not None
    ok, _ = screen_point(net, [bad_x], 1.0)
    assert not ok


def test_sample_screened_points_deterministic():
    net = shifted_norm_net_10d()
    a = sample_screened_points(net, 20, seed=3)
    b = sample_screened_points(net, 20, seed=3)
    assert len(a) == len(b) == 20
    for (xa, ta), (xb, tb) in zip(a, b):
        np.testing.assert_array_equal(xa, xb)
        assert ta == tb


def test_sample_screened_points_stalls_when_nothing_passes(monkeypatch):
    monkeypatch.setattr(oracle, "screen_point", lambda net, x, t: (False, None))
    with pytest.raises(RuntimeError, match="stalled"):
        sample_screened_points(clipped_quadratic_net_1d(), 2, seed=0)


def test_verify_report_empty_passes():
    report = verify_report(clipped_quadratic_net_1d(), 0, 0, CFG)
    assert report.passed
    assert report.max_oracle_gap == 0.0
    assert report.screened_count == 0


def test_verify_report_with_no_samples_builds_no_oracle(monkeypatch):
    # At pts_per_axis 501 building the pwa2d oracle would refuse the LP budget.
    counts = _count_lps(monkeypatch)
    monkeypatch.setattr(oracle, "velocity_grid", None)
    report = verify_report(_pwa2d_net(), 0, 0, OracleConfig(501))
    assert report.passed and report.samples == 0 and report.dimension == 2
    assert report.records.shape == (0,) and report.records["x"].shape == (0, 2)
    assert not counts


def _early_times(draws):
    """``oracle._draws`` with every third t moved to 0 or 2 FD_STEP, where
    the time stencil has no room and no residual is taken."""

    def patched(net, seed):
        for i, (x, t) in enumerate(draws(net, seed)):
            yield x, (t if i % 3 else (0.0, 2 * FD_STEP)[i // 3 % 2])

    return patched


def _direct_record(net, x, t, cfg, residual_only):
    """(oracle_gap, residual, screened) at (x, t) from direct calls, NaN
    where no gap or residual is taken."""
    value = net.evaluate(x, t).value
    gap = residual = np.nan
    if not residual_only:
        if isinstance(net, InitialDataNet):
            lo, hi = net.rows.min(axis=0), net.rows.max(axis=0)
            approx = lax_oleinik_bruteforce_velocity(
                net.initial_values, _hstar_eval(net), x, t, lo, hi, cfg.pts_per_axis
            )
        else:
            approx = lax_oleinik_bruteforce(net.initial_values, net.lagrangian, x, t, cfg)
        gap = abs(approx - value)
    if t > 2 * FD_STEP:
        residual = hj_residual(_batch(net), net.hamiltonian(), x, t, FD_STEP)
    return gap, residual, screen_point(net, x, t)[0]


@pytest.mark.parametrize(
    "problem, pts, residual_only",
    [
        ("clipped1d", 40001, False),
        ("pwa1d", 4001, False),
        ("pwa10d", 3, True),
        ("ball10d", 3, True),
        ("pwa2d", 21, False),
    ],
)
def test_verify_records_equal_direct_calls(monkeypatch, problem, pts, residual_only):
    net = _pwa2d_net() if problem == "pwa2d" else load_problem(CONFIG_DIR / f"{problem}.cfg").build_net()
    if isinstance(net, InitialDataNet):  # t = 0 is in its time range
        monkeypatch.setattr(oracle, "_draws", _early_times(oracle._draws))
    cfg = OracleConfig(pts)
    report = verify_report(net, 12, 5, cfg, residual_only=residual_only)
    records = report.records
    assert records.dtype.names == ("x", "t", "oracle_gap", "residual", "screened")
    assert (report.samples, report.dimension) == (12, net.dimension)
    for rec in records:
        gap, residual, screened = _direct_record(net, rec["x"], float(rec["t"]), cfg, residual_only)
        assert float(rec["oracle_gap"]).hex() == float(gap).hex()
        assert float(rec["residual"]).hex() == float(residual).hex()
        assert rec["screened"] == screened
    assert np.isnan(records["oracle_gap"]).all() == residual_only
    assert (np.isnan(records["residual"]) == (records["t"] <= 2 * FD_STEP)).all()
    if isinstance(net, InitialDataNet):
        assert np.isnan(records["residual"]).sum() == 4
    # The summary, from the records as lists of the non-NaN entries.
    gaps = [g for g in records["oracle_gap"].tolist() if g == g]
    res = [r for r, ok in zip(records["residual"].tolist(), records["screened"]) if ok and r == r]
    assert report.max_oracle_gap == (max(gaps) if gaps else 0.0)
    assert report.mean_oracle_gap == (float(np.mean(gaps)) if gaps else 0.0)
    assert report.screened_count == len(res) > 0
    assert (report.max_residual, report.mean_residual) == (max(res), float(np.mean(res)))
    assert report.passed


def _count_solution_grids(monkeypatch, net):
    calls = []
    solution_grid = net.solution_grid
    monkeypatch.setattr(net, "solution_grid", lambda *a: calls.append(1) or solution_grid(*a))
    return calls


@pytest.mark.parametrize("problem", ["pwa10d", "clipped1d"])
def test_verify_stencils_take_one_batch_call_per_chunk(monkeypatch, problem):
    # 50 samples fit one chunk: their residual stencils are one batch call,
    # as are those of 5 samples.
    net = load_problem(CONFIG_DIR / f"{problem}.cfg").build_net()
    counts = []
    for samples in (5, 50):
        calls = _count_solution_grids(monkeypatch, net)
        verify_report(net, samples, 0, OracleConfig(101), residual_only=net.dimension > 3)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 1


def test_verify_memory_grows_only_with_the_records():
    # pwa10d takes 186 samples a chunk: 20,000 samples run 108 chunks, and
    # beyond the records array they peak as high as 200 samples do.
    net = load_problem(CONFIG_DIR / "pwa10d.cfg").build_net()
    verify_report(net, 5, 1, OracleConfig(3), residual_only=True)  # one-off allocations
    extra = []
    for samples in (200, 20_000):
        tracemalloc.start()
        try:
            report = verify_report(net, samples, 1, OracleConfig(3), residual_only=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - report.records.nbytes)
    assert abs(extra[1] - extra[0]) <= 1 << 20


def test_verify_report_refuses_negative_samples():
    with pytest.raises(ValueError, match="samples"):
        verify_report(clipped_quadratic_net_1d(), -1, 0, CFG)


def test_verify_report_deterministic_and_serializable():
    cfg = OracleConfig(pts_per_axis=4001)
    net = concave_quadratic_net_1d()
    rep1 = verify_report(net, 20, 7, cfg)
    rep2 = verify_report(net, 20, 7, cfg)
    assert rep1.to_kv() == rep2.to_kv()
    assert rep1.passed
    kv = dict(line.split("=", 1) for line in rep1.to_kv().strip().splitlines())
    assert kv["samples"] == "20"
    assert kv["passed"] == "true"
    assert float(kv["max_oracle_gap"]) <= 2e-3
    assert "PASS" in rep1.to_text()


@pytest.mark.parametrize("p", [1, 2, math.inf])
@pytest.mark.parametrize("n, pts", [(1, 801), (2, 161)])
def test_verify_passes_on_pnorm_nets(n, pts, p):
    # S = min_i |x - u_i|_p + a_i for every t > 0, and the oracle's grid
    # holds the point itself, its own minimizer.  Samples are screened
    # through the norm's kink margin.
    rng = np.random.default_rng(0)
    net = LagrangianNet(PNorm(p), rng.uniform(-2.0, 2.0, (3, n)), rng.uniform(0.0, 1.0, 3))
    report = verify_report(net, 6, 0, OracleConfig(pts))
    assert report.passed and report.screened_count > 0
    assert report.max_oracle_gap <= 1e-12 and report.max_residual <= 1e-10


def test_verify_report_high_dimension_needs_residual_only():
    net = shifted_norm_net_10d()
    with pytest.raises(ValueError) as err:
        verify_report(net, 5, 0, CFG)
    assert str(err.value) == (
        "oracle comparison is refused above 3 dimensions; use residual_only=True for high-dimensional nets"
    )
    report = verify_report(net, 25, 0, CFG, residual_only=True)
    assert not report.oracle_checked
    assert report.passed
    assert report.max_residual <= 1e-3
