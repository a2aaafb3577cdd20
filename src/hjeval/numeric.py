"""Grid-search verifiers for the convex transforms.

Desk-scale oracles only: they enumerate tensor-product grids, so they refuse
more than three dimensions and cap the total number of grid points.  They
exist to cross-check the closed-form machinery, not to compete with it.

Point evaluators passed in (``f_eval``, ``g_eval``) must accept a (k, n)
array of row points and return a length-k float array with values in
R ∪ {+inf}; every catalog function and bound method in this package already
satisfies that contract.
"""

from __future__ import annotations

import numpy as np

from .catalog import ConvexFn, ensure_extended

__all__ = [
    "MAX_GRID_DIM",
    "MAX_GRID_POINTS",
    "tensor_grid",
    "box_grid",
    "grid_points",
    "finite_minimum",
    "grid_conjugate",
    "grid_inf_convolution",
    "recession_quotient",
]

MAX_GRID_DIM = 3
MAX_GRID_POINTS = 20_000_000
# recession_quotient samples s = 2^0 ... 2^RECESSION_DOUBLINGS and reports a
# quotient beyond RECESSION_BLOWUP as +inf.
RECESSION_DOUBLINGS = 30
RECESSION_BLOWUP = 1e12


def tensor_grid(axes) -> np.ndarray:
    """Tensor product of the 1-D ``axes`` as (k, n) rows, first axis slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def box_grid(lo, hi, pts_per_axis: int) -> np.ndarray:
    """Uniform tensor grid on the box [lo_j, hi_j] per axis, as (k, n) rows.

    Refused, before anything is allocated, above ``MAX_GRID_DIM`` axes or
    ``MAX_GRID_POINTS`` points.
    """
    n = len(lo)
    if n > MAX_GRID_DIM:
        raise ValueError(
            f"grid search refused for n={n} > {MAX_GRID_DIM}: "
            "tensor grids are for desk-scale verification only"
        )
    if pts_per_axis < 3:
        raise ValueError("pts_per_axis must be at least 3")
    if pts_per_axis**n > MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {pts_per_axis}^{n} points exceeds the "
            f"{MAX_GRID_POINTS} point cap; reduce pts_per_axis"
        )
    return tensor_grid([np.linspace(a, b, pts_per_axis) for a, b in zip(lo, hi)])


def grid_points(center, halfwidth: float, pts_per_axis: int) -> np.ndarray:
    """:func:`box_grid` on the box center ± halfwidth.

    With an odd ``pts_per_axis`` the center point is on the grid.
    """
    center = np.asarray(center, dtype=float).reshape(-1)
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    return box_grid(center - halfwidth, center + halfwidth, pts_per_axis)


def finite_minimum(values) -> float:
    """Smallest finite entry of ``values``; +inf when every entry is +inf."""
    finite = np.isfinite(values)
    return float(values[finite].min()) if finite.any() else float("inf")


def grid_conjugate(f: ConvexFn, p, box_halfwidth: float, pts_per_axis: int) -> float:
    """Grid estimate of the conjugate sup_x {<p, x> - f(x)}.

    Maximizes over the box [-box_halfwidth, box_halfwidth]^n; always a lower
    bound on the true conjugate, tight when the maximizer lies in the box.
    """
    if not f.finite_everywhere:
        raise ValueError("grid conjugate requires a finite-valued function")
    p = np.asarray(p, dtype=float).reshape(-1)
    pts = grid_points(np.zeros_like(p), box_halfwidth, pts_per_axis)
    vals = pts @ p - f(pts)
    return float(vals.max())


def grid_inf_convolution(f_eval, g_eval, x, box_halfwidth: float, pts_per_axis: int) -> float:
    """Grid estimate of the inf-convolution inf_u {f(u) + g(x - u)}.

    Minimizes over u in the box x ± box_halfwidth; always an upper bound on
    the true inf-convolution.  Returns +inf when every grid term is +inf.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    u = grid_points(x, box_halfwidth, pts_per_axis)
    return finite_minimum(ensure_extended(f_eval(u)) + ensure_extended(g_eval(x - u)))


def recession_quotient(f_eval, d) -> float:
    """Numeric recession value: sup over s of (f(s d) - f(0)) / s.

    Samples s = 2^0 ... 2^RECESSION_DOUBLINGS from the base point 0.  The
    quotient is nondecreasing in s for a convex function, so the largest
    sample is the best finite estimate from below; a quotient beyond
    ``RECESSION_BLOWUP`` is reported as +inf (superlinear growth).
    """
    d = np.asarray(d, dtype=float).reshape(1, -1)
    scales = 2.0 ** np.arange(RECESSION_DOUBLINGS + 1)
    pts = scales[:, None] * d
    f0 = ensure_extended(f_eval(np.zeros_like(d)))[0]
    quotients = (ensure_extended(f_eval(pts)) - f0) / scales
    if np.isinf(quotients).any():
        return float("inf")
    best = float(quotients.max())
    return float("inf") if best > RECESSION_BLOWUP else best
