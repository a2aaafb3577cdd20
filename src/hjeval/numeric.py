"""Grid-search verifiers for the convex transforms.

Desk-scale oracles only: they enumerate tensor-product grids, so they refuse
more than three dimensions and cap the total number of grid points.  They
exist to cross-check the closed-form machinery, not to compete with it.

One generator, :func:`box_grid_blocks`, builds every grid: it checks the
caps once, then yields the rows of the uniform tensor grid on a box in
consecutive blocks, each row bit for bit the ``np.linspace`` node it
stands for.  :func:`box_grid` and :func:`grid_points` are its one-block
case; :func:`grid_inf_convolution` scans blocks of ``GRID_BLOCK`` rows with
a running minimum, so its memory does not grow with the grid, and
:func:`grid_conjugate` is one such scan.  The scan checks its terms with
:func:`~hjeval.catalog.ensure_extended` only where a block minimum it takes
anyway is NaN or -inf, the one case in which that check refuses, so a
valid block costs one addition and two minima and an invalid one raises
the error, in the order, of checking every term.

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
    "GRID_BLOCK",
    "tensor_grid",
    "box_grid_blocks",
    "box_grid",
    "grid_points",
    "finite_minimum",
    "grid_conjugate",
    "grid_inf_convolution",
    "recession_quotient",
]

MAX_GRID_DIM = 3
MAX_GRID_POINTS = 20_000_000
# Rows per block of grid_inf_convolution's scan, chosen from minor page
# faults in a fresh process: a 10-sample clipped1d verify (m = 3 branches)
# faulted 0 times a sample at 4,096 rows, about 550 at 8,192 and 1,090 with
# the whole 40,001-point grid.  Fewer rows cost more per-call overhead.
GRID_BLOCK = 4096
# recession_quotient samples s = 2^0 ... 2^RECESSION_DOUBLINGS and reports a
# quotient beyond RECESSION_BLOWUP as +inf.
RECESSION_DOUBLINGS = 30
RECESSION_BLOWUP = 1e12


def tensor_grid(axes) -> np.ndarray:
    """Tensor product of the 1-D ``axes`` as (k, n) rows, first axis slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def box_grid_blocks(lo, hi, pts_per_axis: int, block_rows: int):
    """Rows of the uniform tensor grid on the box [lo_j, hi_j] per axis, first
    axis slowest, yielded in consecutive (block_rows, n) blocks (the last
    may be shorter).

    Node i of axis j is ``np.linspace(lo_j, hi_j, pts_per_axis)[i]``, bit for
    bit: with delta = hi_j - lo_j and step = delta / (pts_per_axis - 1), it
    is i * step + lo_j, or (i / (pts_per_axis - 1)) * delta + lo_j where the
    step underflows to 0, and hi_j at the last node.  Refused, before the
    first block is built, above ``MAX_GRID_DIM`` axes or ``MAX_GRID_POINTS``
    points.
    """
    n = len(lo)
    if n > MAX_GRID_DIM:
        raise ValueError(
            f"grid search refused for n={n} > {MAX_GRID_DIM}: "
            "tensor grids are for desk-scale verification only"
        )
    if pts_per_axis < 3:
        raise ValueError("pts_per_axis must be at least 3")
    total = pts_per_axis**n
    if total > MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {pts_per_axis}^{n} points exceeds the "
            f"{MAX_GRID_POINTS} point cap; reduce pts_per_axis"
        )
    div = pts_per_axis - 1
    for start in range(0, total, block_rows):
        k = min(block_rows, total - start)
        block = np.empty((k, n))
        for j, (a, b) in enumerate(zip(lo, hi)):
            # Row r holds node (r // s) mod pts of axis j, s = pts^(n-1-j):
            # take at most one period of nodes from the block's first row on,
            # each s times, and repeat them cyclically over the block.
            s = pts_per_axis ** (n - 1 - j)
            node, offset = start // s % pts_per_axis, start % s
            col = np.arange(node, node + min((k - 1) // s + 2, pts_per_axis), dtype=float)
            col[pts_per_axis - node :] -= pts_per_axis
            step = (b - a) / div
            # Node i is i * step, or (i / div) * (b - a) where the step is 0.
            np.multiply(col if step else col / div, step if step else b - a, out=col)
            col += a
            col[div - node :: pts_per_axis] = b  # node div, at most once a period
            if s > 1:
                col = np.repeat(col, s)
            if offset + k > col.size:
                col = np.resize(col, offset + k)
            block[:, j] = col[offset : offset + k]
        yield block


def box_grid(lo, hi, pts_per_axis: int) -> np.ndarray:
    """Uniform tensor grid on the box [lo_j, hi_j] per axis, as (k, n) rows:
    :func:`box_grid_blocks` in one block."""
    (block,) = box_grid_blocks(lo, hi, pts_per_axis, MAX_GRID_POINTS)
    return block


def _centered_box(center, halfwidth: float):
    center = np.asarray(center, dtype=float).reshape(-1)
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    return center - halfwidth, center + halfwidth


def grid_points(center, halfwidth: float, pts_per_axis: int) -> np.ndarray:
    """:func:`box_grid` on the box center ± halfwidth.

    With an odd ``pts_per_axis`` the center point is on the grid.
    """
    return box_grid(*_centered_box(center, halfwidth), pts_per_axis)


def finite_minimum(values) -> float:
    """Smallest finite entry of ``values``; +inf when every entry is +inf."""
    finite = np.isfinite(values)
    return float(values[finite].min()) if finite.any() else float("inf")


def grid_conjugate(f: ConvexFn, p, box_halfwidth: float, pts_per_axis: int) -> float:
    """Grid estimate of the conjugate sup_x {<p, x> - f(x)}.

    Maximizes over the box [-box_halfwidth, box_halfwidth]^n; always a lower
    bound on the true conjugate, tight when the maximizer lies in the box.
    It is -inf_u {f(u) + <p, 0 - u>}, term by term with exact negations:
    :func:`grid_inf_convolution` at 0, so the grid is scanned in blocks of
    ``GRID_BLOCK`` rows.  ``0.0 -`` negates it and makes a zero +0.0, as
    the direct maximum's <p, u> - f(u) would.
    """
    if not f.finite_everywhere:
        raise ValueError("grid conjugate requires a finite-valued function")
    p = np.asarray(p, dtype=float).reshape(-1)
    lowest = grid_inf_convolution(f, lambda z: z @ p, np.zeros_like(p), box_halfwidth, pts_per_axis)
    return 0.0 - lowest


def grid_inf_convolution(f_eval, g_eval, x, box_halfwidth: float, pts_per_axis: int) -> float:
    """Grid estimate of the inf-convolution inf_u {f(u) + g(x - u)}.

    Minimizes over u in the box x ± box_halfwidth, scanned in blocks of
    ``GRID_BLOCK`` rows; always an upper bound on the true inf-convolution.
    Returns +inf when every grid term is +inf.  A block's f values are
    checked only when their minimum is NaN or -inf, before ``g_eval`` runs
    on the block, and its g values only when the least sum is: the errors
    of checking every term, in the same order (f before g, block by block).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    blocks = box_grid_blocks(*_centered_box(x, box_halfwidth), pts_per_axis, GRID_BLOCK)
    return min(_least_term(np.asarray(f_eval(u), dtype=float), g_eval, x - u) for u in blocks)


def _least_term(f_u, g_eval, z) -> float:
    """Least entry of f_u + g_eval(z), for a float array f_u.

    A minimum is NaN or -inf exactly when :func:`ensure_extended` would
    refuse one of its terms, so it runs only then: on ``f_u`` before
    ``g_eval`` is called, so that f's error comes first, and on g's terms
    when the least sum is.
    """
    if not f_u.min() > -np.inf:
        ensure_extended(f_u)
    g_z = g_eval(z)
    low = float((f_u + g_z).min())
    if not low > -np.inf:
        ensure_extended(g_z)
    return low


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
