"""Solution net driven by a Lipschitz Lagrangian (first representation).

The net evaluates, without any grid,

    value(x, t) = min_i { t L((x - u_i) / t) + a_i },          t > 0,

for a convex, globally Lipschitz activation L and branch parameters
(u_i, a_i).  Its t -> 0 limit is taken with the recession function of L:

    initial_value(x) = min_i { L_rec(x - u_i) + a_i },

and the Hamilton-Jacobi equation it solves has Hamiltonian H equal to the
convex conjugate of L (finite only on a bounded set when L is Lipschitz).

Evaluation cost is O(m · cost(L)) per point, independent of any mesh.
Its branches at any t >= 0 are one :class:`hjeval.branches.Form`
(``fn = L``, ``beta = 1``, ``scale = t``, ``weight = 1``, ``offsets = a``;
at t = 0 ``fn = L_rec`` and ``scale = 1``), which :mod:`hjeval.branches`
evaluates, screens and reduces; batches may give one t per row, which only
``scale`` holds.  ``solution_grid`` is :class:`~hjeval.branches.BranchNet`'s
at every t >= 0 (t = 0 takes the recession formula); ``evaluate`` and
``evaluate_grid`` refuse t = 0, which ``initial_value``, ``initial_grid``
and ``initial_values`` take.  ``initial_values``, the oracle's integrand,
calls the exact kernel for the row minima alone: its t = 0 Form has
``beta = 1``, so no screen or t = 0 rule applies to it.
"""

from __future__ import annotations

import numpy as np

from .branches import BranchNet, EvalResult, Form, _exact_rows, check_points
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

    def _branches(self, t) -> Form:
        """Branches t L((x - u_i)/t) + a_i; at a scalar t = 0, L_rec(x - u_i)
        + a_i.  A 1-D array t (none of it 0) gives one scale per row."""
        L = self._activation
        if type(t) is np.ndarray and t.ndim or t != 0:
            return Form(L, L.radial, 1.0, 1.0, t, self._points, self._lifted, 1.0, self.offsets)
        return Form(L.recession, L.radial_recession, 1.0, 1.0, 1.0, self._points, self._lifted, 1.0, self.offsets)

    def evaluate(self, x, t: float) -> EvalResult:
        """Solution value at time t > 0."""
        if t <= 0:
            raise ValueError("t must be positive; use initial_value() for t = 0")
        return self._evaluate_point(x, t)

    def initial_value(self, x) -> EvalResult:
        """The t = 0 data: min over branches of the recession of L, shifted."""
        return self._evaluate_point(x, 0.0)

    def evaluate_grid(self, points, t):
        """Vectorized :meth:`evaluate` over (k, n) row points, at one time or
        one per row (a length-k array)."""
        if t <= 0 if isinstance(t, float) else np.less_equal(t, 0).any():
            raise ValueError("t must be positive; use initial_grid() for t = 0")
        return self._branch_matrix(points, t)

    def initial_grid(self, points):
        """Vectorized :meth:`initial_value` over (k, n) row points."""
        return self._branch_matrix(points, 0.0)

    def initial_values(self, points) -> np.ndarray:
        """Initial-data values only, for use as an oracle integrand: the
        exact kernel's row minima at t = 0, without argmins or gaps."""
        return _exact_rows(check_points(points, self.dimension), self._form(0.0), values_only=True)[0]

    def hamiltonian(self) -> ConvexFn:
        """The Hamiltonian of the solved equation: the conjugate of L."""
        conj = self.lagrangian.conjugate()
        if conj is None:
            raise ValueError(
                "no closed-form conjugate for this Lagrangian; "
                "grid_conjugate() can verify values pointwise"
            )
        return conj
