"""Closed-form convex functions with exact conjugates and recession functions.

Every function here maps R^n into R ∪ {+inf}.  Plain IEEE floats carry the
extended reals: ``math.inf`` is +inf, and the usual float arithmetic already
saturates the right way (inf + finite = inf, min(inf, x) = x).  NaN and -inf
are never produced; :func:`ensure_extended` rejects them wherever
user-supplied evaluators feed values back into the library.  The grid
oracles' scans run it only where a minimum they take anyway is NaN or
-inf (in the velocity form, not finite), which covers every case in which
it refuses, so they raise its errors without paying for its checks on
valid values.

Functions with a bounded domain (``finite_everywhere = False``) test
membership with a small absolute slack ``DOMAIN_ATOL``.  Downstream PDE
residual checks evaluate these functions at finite-difference gradients, and
the exact gradient frequently lies on the domain boundary; without the slack
a rounding error of order 1e-12 would flip a boundary value to +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branches import check_branch_parameters

__all__ = [
    "DOMAIN_ATOL",
    "ensure_extended",
    "ConvexFn",
    "ConcaveFn",
    "ClippedQuadratic1D",
    "IntervalQuadratic1D",
    "PNorm",
    "UnitBallIndicator",
    "ShiftedNormPlus",
    "NormOnBall",
    "HalfSquaredNorm",
    "MaxAffine",
]

# Membership slack for bounded domains.  Large enough to absorb
# finite-difference rounding (~1e-11), small against every tolerance used
# by callers (>= 1e-4 grid accuracy, 0.05 kink screens).
DOMAIN_ATOL = 1e-9


def ensure_extended(values):
    """Validate an array of extended reals: no NaN, no -inf.

    Returns the values as a float array.  +inf entries pass through.
    """
    arr = np.asarray(values, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("evaluator produced NaN; values must lie in R ∪ {+inf}")
    if np.isneginf(arr).any():
        raise ValueError("evaluator produced -inf; values must lie in R ∪ {+inf}")
    return arr


def _promote(x, dim):
    """Coerce a point or a stack of points to a (k, n) array.

    Accepts a scalar (one-dimensional point), a length-n vector, or a (k, n)
    array of row points.  Returns the array and whether the input was a
    single point.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim <= 1
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"points must be scalars, vectors or (k, n) arrays, got ndim={arr.ndim}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected points in R^{dim}, got R^{arr.shape[1]}")
    if not np.isfinite(arr).all():
        raise ValueError("points must have finite coordinates")
    return arr, single


class ConvexFn:
    """Base class for the catalog of proper, lsc convex functions.

    Subclasses provide exact closed-form evaluation, and where a closed form
    exists, the convex conjugate and the recession (asymptotic) function.
    Calling an instance with a length-n vector returns a float (possibly
    +inf); calling it with a (k, n) array returns a length-k array.

    Class flags:

    ``dim``
        Fixed dimension, or None if the function is defined on R^n for any n.
    ``finite_everywhere``
        True when the function is real-valued on all of R^n.
    ``uniformly_lipschitz``
        True when the function is globally Lipschitz; only these are
        admissible Lagrangians for :class:`~hjeval.lagrangian.LagrangianNet`.
    """

    dim: int | None = None
    finite_everywhere: bool = True
    uniformly_lipschitz: bool = False
    # Euclidean-family members are radial: f(z) = |z|^2 / 2 for
    # ("square", 0.0) and max(|z| - s, 0) for ("norm", s).  Nets use the
    # form to screen branches with one matrix product; None elsewhere.
    radial: tuple[str, float] | None = None
    radial_recession: tuple[str, float] | None = None

    def __call__(self, x):
        pts, single = _promote(x, self.dim)
        vals = self._values(pts)
        return float(vals[0]) if single else vals

    def recession(self, d):
        """Recession function: directional linear growth rate at infinity.

        Positively 1-homogeneous; 0 at the origin.  Members with a bounded
        domain, or growing faster than linearly, keep the default: the
        indicator of the origin, +inf in every nonzero direction however
        small; globally Lipschitz members override it.
        """
        pts, single = _promote(d, self.dim)
        vals = self._recession(pts)
        return float(vals[0]) if single else vals

    def conjugate(self) -> "ConvexFn | None":
        """Convex conjugate sup_x {<p, x> - f(x)} as a catalog member.

        Returns None when no closed form is in the catalog (max-affine
        functions: use the simplex LP instead).
        """
        return None

    def smoothness_margin(self, z) -> float:
        """Distance from z to the set where the function is not differentiable.

        Used to screen sample points before asserting the PDE pointwise.
        Returns +inf for functions smooth on their whole domain.  For
        max-affine functions the margin is the value gap between the top two
        affine pieces (a conservative surrogate, not a distance).
        """
        return math.inf

    def _values(self, pts):
        raise NotImplementedError

    def _recession(self, pts):
        # Tested on the coordinates, not a norm that could underflow to 0.
        return np.where(pts.any(axis=1), np.inf, 0.0)


@dataclass(frozen=True)
class ClippedQuadratic1D(ConvexFn):
    """x^2/2 on [-1, 2], continued linearly with slopes -1 and 2 outside.

    Globally Lipschitz with constant 2 and continuously differentiable;
    its conjugate is the quadratic restricted to [-1, 2].
    """

    dim = 1
    uniformly_lipschitz = True

    def _values(self, pts):
        # c (x - c/2) with c = clip(x, -1, 2) is -x - 1/2, x^2/2 or 2x - 2
        # with the same bits as each piece's own formula; + 0.0 turns -0 to +0.
        c = pts[:, 0].clip(-1.0, 2.0)
        return c * (pts[:, 0] - 0.5 * c) + 0.0

    @np.errstate(over="ignore")
    def _recession(self, pts):
        # -d where d < 0, else 2d; np.maximum's sign of zero on a tie is
        # implementation-defined.  2d is taken everywhere first, and its
        # overflow is no fault: +inf, a valid value, above about 9e307, and
        # an unused -inf below about -9e307.  As a decorator, errstate costs
        # less per call than a with block.
        d = pts[:, 0]
        return np.negative(d, out=2.0 * d, where=d < 0.0)

    def conjugate(self):
        return IntervalQuadratic1D()

    def smoothness_margin(self, z):
        # Distance to -1 and 2: the transition points between the quadratic
        # and the linear tails, where a gradient sits on the boundary of the
        # conjugate's domain, and the ends of that domain on the conjugate,
        # which shares this margin.
        x = float(np.asarray(z).reshape(-1)[0])
        return min(abs(x + 1.0), abs(x - 2.0))


@dataclass(frozen=True)
class IntervalQuadratic1D(ConvexFn):
    """p^2/2 on the interval [-1, 2], +inf outside."""

    dim = 1
    finite_everywhere = False

    def _values(self, pts):
        p = pts[:, 0]
        inside = (p >= -1.0 - DOMAIN_ATOL) & (p <= 2.0 + DOMAIN_ATOL)
        return np.where(inside, 0.5 * p * p, np.inf)

    def conjugate(self):
        return ClippedQuadratic1D()

    smoothness_margin = ClippedQuadratic1D.smoothness_margin


def _dual_exponent(p: float) -> float:
    return {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}[p]


@dataclass(frozen=True)
class PNorm(ConvexFn):
    """The l^p norm for p in {1, 2, inf}."""

    p: float = 2.0

    uniformly_lipschitz = True

    def __post_init__(self):
        if float(self.p) not in (1.0, 2.0, math.inf):
            raise ValueError("p must be 1, 2 or inf")
        object.__setattr__(self, "p", float(self.p))

    @property
    def radial(self):
        return ("norm", 0.0) if self.p == 2.0 else None

    radial_recession = radial

    def _values(self, pts):
        return np.linalg.norm(pts, ord=self.p, axis=1)

    _recession = _values  # positively homogeneous

    def conjugate(self):
        return UnitBallIndicator(ball=_dual_exponent(self.p))

    def smoothness_margin(self, z):
        z = np.asarray(z, dtype=float).reshape(-1)
        if self.p == 2.0:
            return float(np.linalg.norm(z))  # kink only at the origin
        if self.p == 1.0:
            return float(np.abs(z).min())  # kinks where a coordinate vanishes
        mags = np.sort(np.abs(z))
        if mags.size == 1:
            return float(mags[0])
        return float(mags[-1] - mags[-2])  # kinks where the argmax ties


@dataclass(frozen=True)
class UnitBallIndicator(ConvexFn):
    """Indicator of the closed unit ball of an l^p norm: 0 inside, +inf outside.

    Conjugate of the dual norm; ``ball`` names the ball's own exponent.
    """

    ball: float = 2.0

    finite_everywhere = False

    def __post_init__(self):
        if float(self.ball) not in (1.0, 2.0, math.inf):
            raise ValueError("ball exponent must be 1, 2 or inf")
        object.__setattr__(self, "ball", float(self.ball))

    def _values(self, pts):
        r = np.linalg.norm(pts, ord=self.ball, axis=1)
        return np.where(r <= 1.0 + DOMAIN_ATOL, 0.0, np.inf)

    def conjugate(self):
        return PNorm(p=_dual_exponent(self.ball))

    def smoothness_margin(self, z):
        z = np.asarray(z, dtype=float).reshape(-1)
        return abs(float(np.linalg.norm(z, ord=self.ball)) - 1.0)


@dataclass(frozen=True)
class ShiftedNormPlus(ConvexFn):
    """max(||x||_2 - 1, 0): zero inside the unit ball, the shifted norm outside.

    1-Lipschitz; conjugate is the Euclidean norm restricted to the unit ball.
    """

    uniformly_lipschitz = True
    radial = ("norm", 1.0)
    radial_recession = ("norm", 0.0)

    def _values(self, pts):
        return np.maximum(np.linalg.norm(pts, axis=1) - 1.0, 0.0)

    def _recession(self, pts):
        return np.linalg.norm(pts, axis=1)

    def conjugate(self):
        return NormOnBall()

    def smoothness_margin(self, z):
        # Nonsmooth exactly on the unit sphere; outside it the gradient has
        # unit norm, i.e. sits on the boundary of the conjugate's domain.
        return abs(float(np.linalg.norm(np.asarray(z, dtype=float).reshape(-1))) - 1.0)


@dataclass(frozen=True)
class NormOnBall(ConvexFn):
    """||p||_2 on the closed unit ball, +inf outside."""

    finite_everywhere = False

    def _values(self, pts):
        r = np.linalg.norm(pts, axis=1)
        return np.where(r <= 1.0 + DOMAIN_ATOL, r, np.inf)

    def conjugate(self):
        return ShiftedNormPlus()

    def smoothness_margin(self, z):
        z = np.asarray(z, dtype=float).reshape(-1)
        r = float(np.linalg.norm(z))
        return min(r, abs(r - 1.0))  # kink at 0, domain boundary at the sphere


@dataclass(frozen=True)
class HalfSquaredNorm(ConvexFn):
    """||x||_2^2 / 2.  Self-conjugate; not globally Lipschitz."""

    radial = ("square", 0.0)

    def _values(self, pts):
        return 0.5 * np.einsum("ij,ij->i", pts, pts)

    def conjugate(self):
        return HalfSquaredNorm()


class MaxAffine(ConvexFn):
    """Pointwise maximum of affine functions: x -> max_i {<x, v_i> - b_i}.

    Globally Lipschitz (constant max_i ||v_i||).  No closed-form conjugate in
    the catalog; conjugate values come from the simplex LP
    (:func:`hjeval.simplex.minimize_over_simplex`).
    """

    finite_everywhere = True
    uniformly_lipschitz = True

    def __init__(self, rows, offsets):
        self.rows, self.offsets = check_branch_parameters(rows, offsets, "rows")
        self.dim = self.rows.shape[1]

    def _pieces(self, pts, offsets):
        # einsum rounds each <x, v_i> the same wherever x sits in pts; a BLAS
        # matrix product does not, and a point's value would then depend on
        # the batch it came in (one point against its batch row, or tied
        # branches at t = 0).
        return np.einsum("ij,kj->ik", pts, self.rows) - offsets

    def _values(self, pts):
        return self._pieces(pts, self.offsets).max(axis=1)

    def _recession(self, pts):
        return self._pieces(pts, 0.0).max(axis=1)

    def smoothness_margin(self, z):
        pts, _ = _promote(z, self.dim)
        vals = np.sort(self._pieces(pts, self.offsets)[0])
        if vals.size == 1:
            return math.inf
        return float(vals[-1] - vals[-2])

    def __eq__(self, other):
        return (
            isinstance(other, MaxAffine)
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.offsets, other.offsets)
        )

    __hash__ = None

    def __repr__(self):
        return f"MaxAffine(m={self.rows.shape[0]}, dim={self.dim})"


class ConcaveFn:
    """Real-valued concave function, stored as the negation of a convex one.

    The wrapped convex function must be finite everywhere so that the
    concave function is real-valued, as initial data for the
    min-of-branches solutions must be.
    """

    def __init__(self, negated: ConvexFn):
        if not negated.finite_everywhere:
            raise ValueError("concave wrapper requires a finite-valued convex function")
        self.negated = negated

    @property
    def dim(self):
        return self.negated.dim

    def __call__(self, x):
        return -self.negated(x)

    def smoothness_margin(self, z):
        return self.negated.smoothness_margin(z)

    def __eq__(self, other):
        return isinstance(other, ConcaveFn) and self.negated == other.negated

    __hash__ = None

    def __repr__(self):
        return f"ConcaveFn({self.negated!r})"
