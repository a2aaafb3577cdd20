import math

import numpy as np
import pytest

from hjeval.branches import reduce_branch_matrix
from hjeval.catalog import (
    ClippedQuadratic1D,
    ConcaveFn,
    HalfSquaredNorm,
    MaxAffine,
    PNorm,
    ShiftedNormPlus,
)
from hjeval.initialdata import L1_MAX_DIMENSION, InitialDataNet, norm_hamiltonian_rows
from hjeval.simplex import ENVELOPE_TOL, EnvelopeViolationError, check_witnesses
from hjeval.presets import (
    concave_quadratic_net_1d,
    concave_quadratic_net_10d,
    l1_hamiltonian_net,
    linf_hamiltonian_net,
)


def test_evaluate_concave_quadratic_net():
    net = concave_quadratic_net_1d()
    res = net.evaluate([0.0], 1.0)
    # Branches by hand: {J(2) + 0.5, J(0) - 5, J(-2) + 1} = {-1.5, -5, -1}.
    assert res.value == pytest.approx(-5.0, abs=1e-15)
    assert res.argmin_index == 2
    res = net.evaluate([1.0], 2.0)
    # Branches: {-11.5, -10.5, -2.5}.
    assert res.value == pytest.approx(-11.5, abs=1e-15)
    assert res.argmin_index == 1


def test_time_zero_reduces_to_initial_data():
    for net in (concave_quadratic_net_1d(), concave_quadratic_net_10d()):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-4, 4, net.dimension)
            res = net.evaluate(x, 0.0)
            assert res.value == pytest.approx(net.initial_data(x), abs=0)
            assert res.gap == 0.0  # all branches coincide at t = 0
            assert res.argmin_index == 1


def test_single_branch_batches():
    # One branch: every row's argmin is 1 and its gap +inf, and the values
    # are those of the single-point path.
    net = InitialDataNet(ConcaveFn(HalfSquaredNorm()), [[0.5, -1.0]], [0.25])
    points = np.random.default_rng(4).uniform(-3.0, 3.0, (7, 2))
    for t in (0.0, 1.7):
        values, argmins, gaps = net.solution_grid(points, t)
        assert (argmins == 1).all() and (gaps == np.inf).all()
        assert values.tolist() == [net.evaluate(x, t).value for x in points]


def test_negative_time_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        concave_quadratic_net_1d().evaluate([0.0], -0.5)


def test_hamiltonian_is_max_affine():
    net = concave_quadratic_net_1d()
    ham = net.hamiltonian()
    assert isinstance(ham, MaxAffine)
    assert ham(0.0) == 5.0  # max{-0.5, 5, -1}
    assert ham(1.0) == 5.0  # max{-2.5, 5, 1}
    linf = linf_hamiltonian_net(2)
    assert linf.hamiltonian()([3.0, -1.0]) == 3.0


def test_hamiltonian_conjugate_vertices_and_hull():
    net = concave_quadratic_net_1d()
    assert net.hamiltonian_conjugate([-2.0]).value == pytest.approx(0.5, abs=1e-10)
    sol = net.hamiltonian_conjugate([1.0])
    assert sol.value == pytest.approx(-2.0, abs=1e-10)
    np.testing.assert_allclose(sol.weights, [0.0, 0.5, 0.5], atol=1e-10)
    outside = net.hamiltonian_conjugate([3.0])
    assert outside.value == float("inf")
    assert outside.weights is None


def test_envelope_gate_rejects_bad_offsets():
    with pytest.raises(EnvelopeViolationError) as info:
        InitialDataNet(
            ConcaveFn(HalfSquaredNorm()),
            rows=[[-2.0], [0.0], [2.0]],
            offsets=[0.5, 5.0, 1.0],
        )
    assert info.value.certificate.index == 2
    # Chord of rows 1 and 3 sits at 0.75 over v = 0, far below 5.
    assert info.value.certificate.envelope_value == pytest.approx(0.75, abs=1e-9)


def test_certificate_stored_on_accepted_net():
    net = concave_quadratic_net_1d()
    assert net.certificate.holds
    slack = check_witnesses(net.rows, net.offsets, net.certificate.witnesses)
    assert (slack <= ENVELOPE_TOL).all()
    assert net.lipschitz_initial_data is False  # quadratic data is not Lipschitz
    lipschitz_net = InitialDataNet(ConcaveFn(PNorm(2)), [[0.0]], [0.0])
    assert lipschitz_net.lipschitz_initial_data is True


def test_rejects_bad_parameters():
    j = ConcaveFn(HalfSquaredNorm())
    with pytest.raises(ValueError, match="equal length"):
        InitialDataNet(j, [[0.0]], [0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        InitialDataNet(j, [[np.nan]], [0.0])
    with pytest.raises(TypeError):
        InitialDataNet(HalfSquaredNorm(), [[0.0]], [0.0])


def test_norm_rows_l1():
    rows, offsets = norm_hamiltonian_rows("l1", 5)
    assert rows.shape == (32, 5)
    assert (offsets == 0).all()
    np.testing.assert_array_equal(rows[0], [-1.0] * 5)
    np.testing.assert_array_equal(rows[-1], [1.0] * 5)
    assert {tuple(np.abs(r)) for r in rows} == {(1.0,) * 5}
    cap = L1_MAX_DIMENSION
    assert norm_hamiltonian_rows("l1", cap)[0].shape == (2**cap, cap)
    with pytest.raises(ValueError, match="n > 13"):
        norm_hamiltonian_rows("l1", cap + 1)


@pytest.mark.parametrize("kind, n", [("linf", 200), ("l1", 12), ("l1", L1_MAX_DIMENSION)])
def test_large_norm_nets_construct(kind, n):
    rows, offsets = norm_hamiltonian_rows(kind, n)
    net = InitialDataNet(ConcaveFn(HalfSquaredNorm()), rows, offsets)
    assert net.certificate.holds
    assert net.certificate.screened == (len(rows), 0)
    assert (check_witnesses(rows, offsets, net.certificate.witnesses) <= ENVELOPE_TOL).all()


def test_norm_rows_linf():
    rows, offsets = norm_hamiltonian_rows("linf", 5)
    assert rows.shape == (10, 5)
    assert (offsets == 0).all()
    np.testing.assert_array_equal(rows[0], [1.0, 0, 0, 0, 0])
    np.testing.assert_array_equal(rows[1], [-1.0, 0, 0, 0, 0])
    np.testing.assert_array_equal(rows[8], [0, 0, 0, 0, 1.0])
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        norm_hamiltonian_rows("linf", 0)


def test_norm_rows_coincide_in_1d():
    l1_rows, _ = norm_hamiltonian_rows("l1", 1)
    linf_rows, _ = norm_hamiltonian_rows("linf", 1)
    assert {tuple(r) for r in l1_rows} == {tuple(r) for r in linf_rows} == {(-1.0,), (1.0,)}
    with pytest.raises(ValueError, match="unknown norm kind"):
        norm_hamiltonian_rows("l2", 3)


def test_norm_hamiltonians_evaluate_to_norms():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-5, 5, (200, 5))
    h1 = l1_hamiltonian_net(5).hamiltonian()
    hinf = linf_hamiltonian_net(5).hamiltonian()
    np.testing.assert_allclose(h1(pts), np.abs(pts).sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(hinf(pts), np.abs(pts).max(axis=1), atol=1e-12)


def test_concavity_in_space():
    rng = np.random.default_rng(21)
    net = concave_quadratic_net_1d()
    for _ in range(200):
        x = rng.uniform(-4, 4, 1)
        y = rng.uniform(-4, 4, 1)
        lam = rng.uniform()
        t = rng.uniform(0, 3)
        mid = net.evaluate(lam * x + (1 - lam) * y, t).value
        assert mid >= lam * net.evaluate(x, t).value + (1 - lam) * net.evaluate(y, t).value - 1e-9


def test_grid_evaluation_matches_pointwise():
    net = concave_quadratic_net_10d()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4, 4, (20, 10))
    values, argmins, gaps = net.evaluate_grid(pts, 1.3)
    for i, x in enumerate(pts):
        res = net.evaluate(x, 1.3)
        assert values[i] == res.value
        assert argmins[i] == res.argmin_index
        assert gaps[i] == res.gap


def test_fenchel_young_between_hamiltonian_and_conjugate():
    net = concave_quadratic_net_1d()
    ham = net.hamiltonian()
    rng = np.random.default_rng(31)
    for _ in range(100):
        p = rng.uniform(-5, 5, 1)
        v = rng.uniform(-2, 2, 1)
        conj = net.hamiltonian_conjugate(v).value
        assert ham(p) + conj >= float(p @ v) - 1e-9
    # Equality at a vertex with a supergradient selecting that row.
    for k, (v, b) in enumerate(zip(net.rows, net.offsets)):
        p = np.array([math.copysign(6.0, v[0] if v[0] else 1.0)])
        if net.hamiltonian()(p) == float(p @ v) - b:
            conj = net.hamiltonian_conjugate(v).value
            assert ham(p) + conj == pytest.approx(float(p @ v), abs=1e-6)


# -- batch path against the per-branch loop ------------------------------------


def _loop_reference(net, points, t):
    """The per-branch loop the batch path replaced: one activation call per branch."""
    cols = [net.initial_data(points - t * v) + t * b for v, b in zip(net.rows, net.offsets)]
    return reduce_branch_matrix(np.stack(cols, axis=1))


_RADIAL = (HalfSquaredNorm(), PNorm(2), ShiftedNormPlus())


def _nonradial(rng, n):
    """Concave initial data with no radial form: the batch runs every branch exactly."""
    # Half the draws are max-affine, whose pieces are inner products with each point.
    pick = int(rng.integers(6))
    if pick == 0:
        return ConcaveFn(ClippedQuadratic1D())
    if pick >= 3:
        pieces = int(rng.integers(1, 9))
        rows, offsets = rng.uniform(-2.0, 2.0, (pieces, n)), rng.uniform(-1.0, 1.0, pieces)
        return ConcaveFn(MaxAffine(rows, offsets))
    return ConcaveFn(PNorm((1.0, np.inf)[pick - 1]))


def _initialdata_batch(rng, case):
    j = ConcaveFn(_RADIAL[rng.integers(3)])
    n, m, k = int(rng.integers(1, 13)), int(rng.integers(2, 41)), int(rng.integers(2, 300))
    rows = rng.uniform(-2.0, 2.0, (m, n))
    points = rng.uniform(-4.0, 4.0, (k, n))
    t = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 3.0))
    # Offsets from a convex function of the rows keep every row on the envelope.
    offsets = 0.5 * (rows * rows).sum(axis=1) + rows @ rng.uniform(-1.0, 1.0, n) - 1.0
    if case == "ties":
        # Duplicated rows; at t = 0 every branch equals J(x), and x = 0 with
        # offsets of both signs gives ties between 0.0 and -0.0.
        dup = rng.integers(m, size=m // 2)
        rows[: m // 2], offsets[: m // 2] = rows[dup], offsets[dup]
        points[: k // 3] = 0.0
        if rng.random() < 0.5:
            t = 0.0
    elif case == "near":
        # Rows on a sphere with equal offsets, points on the bisector of two
        # rows (up to rounding) and a few ulps off it.
        rows *= 1.5 / np.linalg.norm(rows, axis=1, keepdims=True)
        rows[1] = -rows[0]
        offsets = np.full(m, 0.5 * 1.5**2)
        t = t or 1.0
        a, b = t * rows[0], t * rows[1]
        d = a - b
        pts = points[: k // 2]
        pts -= np.outer((pts - 0.5 * (a + b)) @ d / (d @ d), d)
        pts *= 1.0 + rng.integers(-3, 4, pts.shape) * 2.0**-52
    elif case == "scaled":
        rows, points, t = rows * 1e8, points * 1e8, t * 1e8
        offsets = 0.5 * (rows * rows).sum(axis=1)
    elif case == "huge":
        # |x|^2 near or past overflow: these rows take every branch exactly.
        points[::2] *= 10.0 ** rng.uniform(150.0, 160.0)
    elif case == "nonradial":
        j = _nonradial(rng, n)
        if j.dim == 1:
            rows, points = rows[:, :1], points[:, :1]
            offsets = 0.5 * rows[:, 0] ** 2
    return InitialDataNet(j, rows, offsets), points, t


@pytest.mark.parametrize("case", ["generic", "ties", "near", "scaled", "huge", "nonradial"])
def test_screened_batches_equal_branch_loop(case, check_batch):
    rng = np.random.default_rng(
        ["generic", "ties", "near", "scaled", "huge", "nonradial"].index(case) + 10
    )
    for _ in range(20):
        net, points, t = _initialdata_batch(rng, case)
        pairs = check_batch(net, points, t, _loop_reference, rng)
        if case == "generic" and net.n_branches >= 8 and t > 0:
            assert pairs < len(points) * net.n_branches  # the screen dropped branches


def test_batch_errors_match_branch_loop():
    net = concave_quadratic_net_10d()
    bad = np.zeros((5, 10))
    bad[1, 2] = np.inf
    ones = np.ones((5, 10))
    for points, t in ((bad, 1.0), (bad, 0.0), (ones, 1.5e308)):
        with pytest.raises(ValueError) as want, np.errstate(all="ignore"):
            _loop_reference(net, points, t)
        with pytest.raises(ValueError) as got, np.errstate(all="ignore"):
            net.solution_grid(points, t)
        assert str(got.value) == str(want.value) == "points must have finite coordinates"


@pytest.mark.parametrize("pieces", [1, 5, 0])
def test_time_zero_ties_every_branch(pieces):
    # At t = 0 every branch is J(x), so all m tie exactly: the first wins with
    # gap 0, on one point and in a batch alike (pieces = 0: the l1 norm).
    # With 34 rows in 9-D a BLAS product of one max-affine piece rounded the
    # stacked copies of x differently, and a later branch won by 4e-16.
    rng = np.random.default_rng(45 + pieces)
    rows = rng.uniform(-2.0, 2.0, (34, 9))
    if pieces:
        negated = MaxAffine(rng.uniform(-2.0, 2.0, (pieces, 9)), rng.uniform(-1.0, 1.0, pieces))
    else:
        negated = PNorm(1)
    net = InitialDataNet(ConcaveFn(negated), rows, 0.5 * (rows * rows).sum(axis=1))
    points = rng.uniform(-4.0, 4.0, (150, 9))
    values, argmins, gaps = net.solution_grid(points, 0.0)
    assert (argmins == 1).all() and (gaps == 0.0).all()
    for x, value in zip(points, values):
        res = net.evaluate(x, 0.0)
        assert (res.value, res.argmin_index, res.gap) == (value, 1, 0.0)


def test_screen_band_is_tight(count_pairs):
    # On generic inputs the band holds the winner and the runner-up only;
    # a band grown too wide would silently give back the screen's gain.
    net = linf_hamiltonian_net(100)
    counts = count_pairs()
    rng = np.random.default_rng(44)
    points = rng.uniform(-4.0, 4.0, (10_000, 100))
    net.solution_grid(points, 1.7)
    assert sum(counts) / len(points) <= 2.0
    assert sum(counts) == 2 * len(points)  # each generic row sends its pair, no more
    # At t = 0 every branch equals J(x): one activation call settles each
    # generic row, and no pair reaches the branch formula.
    counts.clear()
    net.solution_grid(points[:1000], 0.0)
    assert sum(counts) == 0


def test_one_row_batch_is_screened(count_pairs):
    # The batch size alone picks the kernel: one row of m·n = 400·200 =
    # 80,000 differences is screened, so only its band reaches the exact
    # kernel.  A single point of that size is such a one-row batch.
    net = linf_hamiltonian_net(200)
    counts = count_pairs()
    x = np.random.default_rng(46).uniform(-4.0, 4.0, (1, 200))
    (value,), (argmin,), (gap,) = net.solution_grid(x, 1.7)
    assert 0 < sum(counts) < net.n_branches
    counts.clear()
    res = net.evaluate(x[0], 1.7)
    assert 0 < sum(counts) < net.n_branches
    assert (value.hex(), argmin, gap.hex()) == (res.value.hex(), res.argmin_index, res.gap.hex())
