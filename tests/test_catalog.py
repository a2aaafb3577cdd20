import math

import numpy as np
import pytest

from hjeval.catalog import (
    DOMAIN_ATOL,
    ClippedQuadratic1D,
    ConcaveFn,
    HalfSquaredNorm,
    IntervalQuadratic1D,
    MaxAffine,
    NormOnBall,
    PNorm,
    ShiftedNormPlus,
    UnitBallIndicator,
    ensure_extended,
)

INF = float("inf")

FINITE_FNS = [
    ClippedQuadratic1D(),
    PNorm(1),
    PNorm(2),
    PNorm(math.inf),
    ShiftedNormPlus(),
    HalfSquaredNorm(),
    MaxAffine([[1.0, 0.0], [-0.5, 2.0], [0.0, -1.0]], [0.0, 1.0, -0.5]),
]


def test_clipped_quadratic_values():
    L = ClippedQuadratic1D()
    assert L(2.0) == 2.0
    assert L(0.0) == 0.0
    assert L(-2.0) == 1.5  # linear tail: -x - 1/2
    assert L(3.0) == 4.0  # linear tail: 2x - 2
    assert L(1.0) == 0.5


def test_clipped_quadratic_matches_its_three_pieces_bit_for_bit():
    # The one-clip formula against the piecewise definition, at the
    # breakpoints and their neighbours, signed zeros, subnormals, huge and
    # infinite values, and random values on every piece.
    edges = [-1.0, 2.0, 0.0, -0.0, 5e-324, -5e-324, 3e-323, 2.2e-308, -2.2e-308]
    edges += [1e308, -1e308, INF, -INF]
    edges += [np.nextafter(b, d) for b in (-1.0, 2.0, 0.0) for d in (-INF, INF)]
    rng = np.random.default_rng(0)
    x = np.concatenate([edges, rng.uniform(-4.0, 5.0, 10_000), rng.normal(scale=1e6, size=1_000)])
    with np.errstate(over="ignore"):
        want = np.where(x < -1.0, -x - 0.5, np.where(x > 2.0, 2.0 * x - 2.0, 0.5 * x * x))
        got = ClippedQuadratic1D()._values(x[:, None])
    assert got.tobytes() == want.tobytes()


def test_interval_quadratic_values():
    H = IntervalQuadratic1D()
    assert H(3.0) == INF
    assert H(-1.5) == INF
    assert H(1.0) == 0.5
    assert H(-1.0) == 0.5
    assert H(2.0) == 2.0


def test_bounded_domain_membership_slack():
    H = IntervalQuadratic1D()
    assert np.isfinite(H(2.0 + DOMAIN_ATOL / 10))
    assert H(2.0 + 1e-6) == INF
    ball = NormOnBall()
    assert np.isfinite(ball([1.0 + DOMAIN_ATOL / 10, 0.0]))
    assert ball([1.0 + 1e-6, 0.0]) == INF


def test_shifted_norm_plus_values():
    f = ShiftedNormPlus()
    assert f(np.zeros(7)) == 0.0
    assert f([0.5, 0.0]) == 0.0
    assert f([3.0, 4.0]) == 4.0


def test_norms_and_indicators():
    assert PNorm(1)([1.0, -2.0]) == 3.0
    assert PNorm(2)([3.0, 4.0]) == 5.0
    assert PNorm(math.inf)([1.0, -2.0]) == 2.0
    assert UnitBallIndicator(2)([0.6, 0.0]) == 0.0
    assert UnitBallIndicator(2)([1.5, 0.0]) == INF
    assert HalfSquaredNorm()([3.0, 4.0]) == 12.5
    with pytest.raises(ValueError):
        PNorm(3)


def test_max_affine_values():
    f = MaxAffine([[-2.0], [0.0], [2.0]], [0.5, -5.0, 1.0])
    assert f(0.0) == 5.0
    assert f(1.0) == 5.0
    assert f(10.0) == 19.0
    with pytest.raises(ValueError):
        MaxAffine(np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        MaxAffine([[1.0, 0.0]], [0.0, 1.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ClippedQuadratic1D()([1.0, 2.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        MaxAffine([[1.0, 0.0]], [0.0])([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="ndim=3"):
        PNorm(2)(np.zeros((2, 2, 2)))


def test_nonfinite_points_rejected():
    with pytest.raises(ValueError, match="finite"):
        PNorm(2)([np.nan, 0.0])
    with pytest.raises(ValueError, match="finite"):
        PNorm(2)([np.inf, 0.0])


def test_batch_matches_pointwise():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, (40, 2))
    for f in FINITE_FNS:
        if f.dim == 1:
            continue
        batch = f(pts)
        single = np.array([f(p) for p in pts])
        np.testing.assert_allclose(batch, single, rtol=0, atol=0)


def test_conjugate_pairs():
    assert ClippedQuadratic1D().conjugate() == IntervalQuadratic1D()
    assert IntervalQuadratic1D().conjugate() == ClippedQuadratic1D()
    assert HalfSquaredNorm().conjugate() == HalfSquaredNorm()
    assert ShiftedNormPlus().conjugate() == NormOnBall()
    assert NormOnBall().conjugate() == ShiftedNormPlus()
    assert PNorm(2).conjugate() == UnitBallIndicator(2)
    assert PNorm(1).conjugate() == UnitBallIndicator(math.inf)
    assert PNorm(math.inf).conjugate() == UnitBallIndicator(1)
    assert MaxAffine([[1.0]], [0.0]).conjugate() is None


def test_conjugate_involution():
    for f in (ClippedQuadratic1D(), HalfSquaredNorm(), ShiftedNormPlus(), PNorm(1), PNorm(2)):
        assert f.conjugate().conjugate() == f


@pytest.mark.parametrize(
    "f",
    [ClippedQuadratic1D(), HalfSquaredNorm(), ShiftedNormPlus(), PNorm(1), PNorm(2)],
)
def test_fenchel_young_inequality(f):
    rng = np.random.default_rng(7)
    conj = f.conjugate()
    n = f.dim or 3
    for _ in range(200):
        x = rng.uniform(-4, 4, n)
        p = rng.uniform(-4, 4, n)
        lhs = f(x) + conj(p)  # may be +inf, which trivially satisfies the bound
        assert lhs >= float(np.dot(p, x)) - 1e-9


def test_recession_values():
    L = ClippedQuadratic1D()
    assert L.recession(-1.0) == 1.0
    assert L.recession(1.0) == 2.0
    assert ShiftedNormPlus().recession([3.0, 4.0] + [0.0] * 8) == 5.0
    f = MaxAffine([[1.0, 2.0], [0.0, -1.0]], [3.0, -4.0])
    assert f.recession([1.0, 1.0]) == 3.0
    h = HalfSquaredNorm()
    assert h.recession([0.3, 0.0]) == INF
    assert h.recession([0.0, 0.0]) == 0.0


def test_clipped_quadratic_recession_is_the_two_slope_formula_bit_for_bit():
    # -d for d < 0, else 2d: the signed zeros keep their sign, the smallest
    # subnormal doubles, and 2e308 overflows to +inf as 2.0 * d does.
    L = ClippedQuadratic1D()
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])
    scaled = rng.normal(size=997) * 10.0 ** rng.integers(-320, 308, 997)
    scaled[::50] = 0.0
    scaled[1::50] = -0.0
    for d in (special, np.sort(scaled), scaled, scaled[:1], scaled[:3], scaled[:17]):
        want = np.where(d < 0, -d, 2 * d)
        assert L.recession(d[:, None]).tobytes() == want.tobytes()
        for point, value in zip(d, want):
            assert np.float64(L.recession(point)).tobytes() == value.tobytes()
            assert L.recession([[point]]).tobytes() == value.tobytes()


def test_recession_vanishes_at_origin():
    for f in FINITE_FNS:
        n = f.dim or 4
        assert f.recession(np.zeros(n)) == 0.0


@pytest.mark.parametrize(
    "f",
    [
        IntervalQuadratic1D(),
        UnitBallIndicator(1),
        UnitBallIndicator(2),
        UnitBallIndicator(math.inf),
        NormOnBall(),
        HalfSquaredNorm(),
    ],
    ids=repr,
)
def test_recession_is_infinite_in_tiny_directions(f):
    # A bounded domain or superlinear growth recedes to +inf in every
    # nonzero direction, however short: the squared length of these
    # directions underflows to 0.
    n = f.dim or 2
    tiny = np.zeros((3, n))
    tiny[0, 0] = 1e-200
    tiny[1, -1] = -5e-324
    tiny[2] = 1e-170
    assert f.recession(tiny).tolist() == [INF, INF, INF]
    assert f.recession(tiny[0]) == INF
    assert f.recession(-np.zeros(n)) == 0.0


def test_recession_positive_homogeneity():
    rng = np.random.default_rng(11)
    for f in FINITE_FNS:
        n = f.dim or 3
        for _ in range(20):
            d = rng.uniform(-2, 2, n)
            base = f.recession(d)
            for scale in (0.5, 2.0, 10.0):
                scaled = f.recession(scale * d)
                if np.isinf(base):
                    assert np.isinf(scaled)
                else:
                    assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-300)


def test_extended_value_conventions():
    assert INF + 1.5 == INF
    assert min(INF, 2.5) == 2.5
    ensure_extended([1.0, INF])
    with pytest.raises(ValueError, match="NaN"):
        ensure_extended([np.nan])
    with pytest.raises(ValueError, match="-inf"):
        ensure_extended([-np.inf])


def test_catalog_never_returns_nan():
    rng = np.random.default_rng(3)
    fns = FINITE_FNS + [IntervalQuadratic1D(), NormOnBall(), UnitBallIndicator(1)]
    for f in fns:
        n = f.dim or 2
        vals = f(rng.uniform(-10, 10, (100, n)))
        ensure_extended(vals)


def test_flags():
    assert not IntervalQuadratic1D().finite_everywhere
    assert not NormOnBall().finite_everywhere
    assert not UnitBallIndicator(2).finite_everywhere
    with pytest.raises(ValueError, match="ball exponent must be 1, 2 or inf"):
        UnitBallIndicator(ball=3)
    for f in FINITE_FNS:
        assert f.finite_everywhere
    assert not HalfSquaredNorm().uniformly_lipschitz
    assert ClippedQuadratic1D().uniformly_lipschitz
    assert ShiftedNormPlus().uniformly_lipschitz
    assert PNorm(1).uniformly_lipschitz
    assert MaxAffine([[1.0]], [0.0]).uniformly_lipschitz


def test_smoothness_margins():
    L = ClippedQuadratic1D()
    assert L.smoothness_margin([-1.02]) == pytest.approx(0.02)
    assert L.smoothness_margin([0.5]) == pytest.approx(1.5)
    s = ShiftedNormPlus()
    assert s.smoothness_margin([0.8, 0.0]) == pytest.approx(0.2)
    assert HalfSquaredNorm().smoothness_margin([5.0]) == INF
    f = MaxAffine([[1.0], [-1.0]], [0.0, 0.0])
    assert f.smoothness_margin([0.25]) == pytest.approx(0.5)  # top-two value gap
    assert MaxAffine([[1.0]], [0.0]).smoothness_margin([3.0]) == INF  # one piece, no kink
    # Distances to the domain's end points -1 and 2.
    assert IntervalQuadratic1D().smoothness_margin([0.5]) == 1.5
    assert IntervalQuadratic1D().smoothness_margin([1.75]) == 0.25
    # Distance of the ball's own norm from 1.
    assert UnitBallIndicator(2).smoothness_margin([0.6, 0.8]) == pytest.approx(0.0, abs=1e-15)
    assert UnitBallIndicator(1).smoothness_margin([0.5, -0.25]) == 0.25
    assert UnitBallIndicator(INF).smoothness_margin([0.5, -1.5]) == 0.5
    # The kink at 0 or the sphere, whichever is nearer.
    assert NormOnBall().smoothness_margin([0.0, 0.0]) == 0.0
    assert NormOnBall().smoothness_margin([0.0, 0.25]) == 0.25
    assert NormOnBall().smoothness_margin([0.0, -0.875]) == 0.125


def test_concave_wrapper():
    j = ConcaveFn(HalfSquaredNorm())
    assert j([3.0, 4.0]) == -12.5
    np.testing.assert_allclose(j(np.array([[1.0, 0.0], [0.0, 2.0]])), [-0.5, -2.0])
    assert j == ConcaveFn(HalfSquaredNorm())
    with pytest.raises(ValueError):
        ConcaveFn(IntervalQuadratic1D())
