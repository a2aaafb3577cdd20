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
path (:class:`hjeval.branches.BranchNet`): a single point runs the m branch
formulas in one activation call; a batch runs in row blocks of at most
2 MiB of temporaries.  For the radial Lagrangians (``PNorm(2)``,
``ShiftedNormPlus`` and their recessions) a batch block is screened first:
one matrix product gives every |x - u_i|, and only the branches within a
forward rounding bound of the two smallest are evaluated exactly, so
values, argmins and gaps are those of the exact formula on all m branches.
Other activations run the exact formula on every branch.
"""

from __future__ import annotations

import numpy as np

from .branches import BranchNet, EvalResult, Screen
from .catalog import ConvexFn

__all__ = ["LagrangianNet"]


class LagrangianNet(BranchNet):
    """Exact solution evaluator parameterized by (L, {(u_i, a_i)})."""

    def __init__(self, lagrangian: ConvexFn, shifts, offsets):
        if not lagrangian.finite_everywhere:
            raise ValueError("the Lagrangian must be finite on all of R^n")
        if not lagrangian.uniformly_lipschitz:
            raise ValueError(
                "the Lagrangian must be globally Lipschitz; "
                "superlinear activations are not admissible for this representation"
            )
        super().__init__(lagrangian, shifts, offsets, "shifts", "activation")

    # The activation and the branch points, by this representation's names.
    lagrangian = property(lambda self: self._activation)
    shifts = property(lambda self: self._points)

    def _branch_formula(self, t, x, cols=None, out=None):
        """Exact t L((x - u_i)/t) + a_i, or L_rec(x - u_i) + a_i for t None."""
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

    def _screen(self, t):
        """|x - u_i| through L at scale t, or through L_rec for t None."""
        radial = self.lagrangian.radial_recession if t is None else self.lagrangian.radial
        if radial is None:
            return None
        scale = 1.0 if t is None else t
        return Screen(radial, 1.0, 1.0, scale, self.shifts, self._sq, self.offsets)

    def evaluate(self, x, t: float) -> EvalResult:
        """Solution value at time t > 0."""
        if t <= 0:
            raise ValueError("t must be positive; use initial_value() for t = 0")
        return self._evaluate_point(x, t)

    def initial_value(self, x) -> EvalResult:
        """The t = 0 data: min over branches of the recession of L, shifted."""
        return self._evaluate_point(x, None)

    def evaluate_grid(self, points, t: float):
        """Vectorized :meth:`evaluate` over (k, n) row points."""
        if t <= 0:
            raise ValueError("t must be positive; use initial_grid() for t = 0")
        return self._branch_matrix(points, t)

    def initial_grid(self, points):
        """Vectorized :meth:`initial_value` over (k, n) row points."""
        return self._branch_matrix(points, None)

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
