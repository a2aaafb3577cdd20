"""Solution net driven by a Lipschitz Lagrangian (first representation).

The net evaluates, without any grid,

    value(x, t) = min_i { t L((x - u_i) / t) + a_i },          t > 0,

for a convex, globally Lipschitz activation L and branch parameters
(u_i, a_i).  Its t -> 0 limit is taken with the recession function of L:

    initial_value(x) = min_i { L_rec(x - u_i) + a_i },

and the Hamilton-Jacobi equation it solves has Hamiltonian H equal to the
convex conjugate of L (finite only on a bounded set when L is Lipschitz).

Evaluation cost is O(m · cost(L)) per point, independent of any mesh.
Every entry point validates its points once and goes through one branch
path (:mod:`hjeval.branches`): a single point runs the m branch formulas
in one activation call; a batch runs in row blocks of at most 2 MiB of
temporaries.  For the radial Lagrangians (``PNorm(2)``, ``ShiftedNormPlus``
and their recessions) a batch block is screened first: one matrix product
gives every |x - u_i|, and only the branches within a forward rounding
bound of the two smallest are evaluated exactly, so values, argmins and
gaps are those of the exact formula on all m branches.  Other activations
run the exact formula on every branch.  On 10,000-point batches (fastest
run, one BLAS thread, shared 2-CPU machine) the earlier loop over branches
took 28.8 us per point for ``ShiftedNormPlus`` at n = 100, m = 64, now
2.7 us; ``ClippedQuadratic1D`` with m = 3 stays at 0.12 us.
"""

from __future__ import annotations

from functools import partial
import numpy as np

from .branches import (
    EvalResult,
    Screen,
    check_branch_parameters,
    check_point,
    check_points,
    min_over_branches,
    reduce_branches,
)
from .catalog import ConvexFn

__all__ = ["LagrangianNet"]


class LagrangianNet:
    """Exact solution evaluator parameterized by (L, {(u_i, a_i)})."""

    def __init__(self, lagrangian: ConvexFn, shifts, offsets):
        if not lagrangian.finite_everywhere:
            raise ValueError("the Lagrangian must be finite on all of R^n")
        if not lagrangian.uniformly_lipschitz:
            raise ValueError(
                "the Lagrangian must be globally Lipschitz; "
                "superlinear activations are not admissible for this representation"
            )
        self.lagrangian = lagrangian
        self.shifts, self.offsets = check_branch_parameters(
            shifts, offsets, lagrangian.dim, "shifts", "activation"
        )
        self._sq = np.einsum("ij,ij->i", self.shifts, self.shifts)

    @property
    def dimension(self) -> int:
        return self.shifts.shape[1]

    @property
    def n_branches(self) -> int:
        return self.shifts.shape[0]

    def _branch_formula(self, t, x, cols=None, out=None):
        """Exact t L((x - u_i)/t) + a_i, or L_rec(x - u_i) + a_i for t None.

        ``x`` broadcasts against the branch rows ``cols`` (all when None);
        one activation call covers every pair.  ``out`` may take the
        differences.
        """
        params = self.shifts if cols is None else self.shifts[cols]
        offsets = self.offsets if cols is None else self.offsets[cols]
        diff = np.subtract(x, params, out=out)
        flat = diff if diff.ndim == 2 else diff.reshape(-1, self.dimension)
        if t is None:
            vals = self.lagrangian.recession(flat)
        else:
            # In place on a workspace: a block then holds one array of differences.
            vals = t * self.lagrangian(flat / t if out is None else np.divide(flat, t, out=flat))
        if diff.ndim != 2:
            vals = vals.reshape(diff.shape[:-1])
        return vals + offsets

    def _branch_matrix(self, points, t: float):
        """Row-wise (values, argmins, gaps) over the branches; t = 0 is L_rec."""
        points = check_points(points, self.dimension)
        moving = None if t == 0 else t
        radial = self.lagrangian.radial_recession if moving is None else self.lagrangian.radial
        screen = None
        if radial is not None:
            scale = 1.0 if moving is None else t
            screen = Screen(radial, 1.0, 1.0, scale, self.shifts, self._sq, self.offsets)
        exact = partial(self._branch_formula, moving)
        return min_over_branches(points, self.n_branches, exact, screen)

    def branch_values(self, x, t: float) -> np.ndarray:
        """All m branch values t L((x - u_i)/t) + a_i at one point."""
        return self._branch_formula(t, check_point(x, self.dimension))

    def evaluate(self, x, t: float) -> EvalResult:
        """Solution value at time t > 0."""
        if t <= 0:
            raise ValueError("t must be positive; use initial_value() for t = 0")
        return reduce_branches(self.branch_values(x, t))

    def initial_value(self, x) -> EvalResult:
        """The t = 0 data: min over branches of the recession of L, shifted."""
        return reduce_branches(self._branch_formula(None, check_point(x, self.dimension)))

    def evaluate_grid(self, points, t: float):
        """Vectorized :meth:`evaluate` over (k, n) row points."""
        if t <= 0:
            raise ValueError("t must be positive; use initial_grid() for t = 0")
        return self._branch_matrix(points, t)

    def initial_grid(self, points):
        """Vectorized :meth:`initial_value` over (k, n) row points."""
        return self._branch_matrix(points, 0.0)

    def solution_grid(self, points, t: float):
        """Grid evaluation dispatching t = 0 to the recession formula."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t == 0:
            return self.initial_grid(points)
        return self.evaluate_grid(points, t)

    def initial_values(self, points) -> np.ndarray:
        """Initial-data values only, for use as an oracle integrand."""
        return self.initial_grid(points)[0]

    def hamiltonian(self) -> ConvexFn:
        """The Hamiltonian of the solved equation: the conjugate of L."""
        conj = self.lagrangian.conjugate()
        if conj is None:
            raise ValueError(
                "no closed-form conjugate for this Lagrangian; "
                "grid_conjugate() can verify values pointwise"
            )
        return conj

    def __repr__(self):
        return (
            f"LagrangianNet({self.lagrangian!r}, m={self.n_branches}, "
            f"dim={self.dimension})"
        )
