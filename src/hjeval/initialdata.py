"""Solution net driven by concave initial data (second representation).

The net evaluates, without any grid,

    value(x, t) = min_i { J(x - t v_i) + t b_i },              t >= 0,

for a real-valued concave activation J and branch parameters (v_i, b_i).
The Hamilton-Jacobi equation it solves has the max-affine Hamiltonian

    H(p) = max_i { <p, v_i> - b_i },

whose conjugate is the linear program
min { Σ α_i b_i : α in the unit simplex, Σ α_i v_i = v }, finite exactly on
the convex hull of the v_i.  The paper assumes every row is live: each
(v_i, b_i) admits a convex interpolant, i.e. lies on the lower convex
envelope of the pair set, so that b_i = H*(v_i).  Construction verifies this
and refuses sets that fail.  Such a set holds dead rows, strictly above the
envelope: their pieces of H are never active and their branches never win at
t > 0, so the formula on every row still solves the equation, with the
values of the live rows alone; the gate refuses them because of the paper's
assumption.

Evaluation cost is O(m · cost(J)) per point, independent of any mesh, and
one call of J at t = 0 wherever J(x) is finite and nonzero.
The branches at time t are one :class:`hjeval.branches.Form` (``fn = J``,
``beta = t``, ``scale = 1``, ``weight = t``, ``offsets = b``), which
:mod:`hjeval.branches` evaluates, screens and reduces; batches may give one
t per row, which ``beta`` and ``weight`` hold.  ``evaluate``,
``evaluate_grid`` and ``solution_grid`` are :class:`~hjeval.branches.BranchNet`'s
as they are, at every t >= 0: this class adds the envelope certificate, the
Hamiltonian and its conjugate, and the initial data's own values.
"""

from __future__ import annotations

import itertools

import numpy as np

from .branches import BranchNet, Form, check_point, check_points
from .catalog import ConcaveFn, MaxAffine
from .simplex import (
    EnvelopeViolationError,
    SimplexSolution,
    lower_envelope_certificate,
    minimize_over_simplex,
)

__all__ = ["InitialDataNet", "norm_hamiltonian_rows", "L1_MAX_DIMENSION"]

# Largest n for the l1 generator (2^n rows): the envelope certificate's
# O(m^2 n) Gram product builds the net within 1 s on one core up to here
# (n = 13: 0.36 s; n = 14: 1.35 s, and about 4x per further step).
L1_MAX_DIMENSION = 13


class InitialDataNet(BranchNet):
    """Exact solution evaluator parameterized by (J, {(v_i, b_i)}).

    ``certificate`` is the accepted :class:`~hjeval.simplex.EnvelopeCertificate`:
    one witness gradient per row, re-checkable with
    :func:`~hjeval.simplex.check_witnesses`.  ``lipschitz_initial_data`` records whether the activation is globally
    Lipschitz (the condition under which this solution is the unique
    uniformly continuous one); it is informational and never enforced.
    """

    def __init__(self, initial_data: ConcaveFn, rows, offsets):
        if not isinstance(initial_data, ConcaveFn):
            raise TypeError("initial data must be a ConcaveFn")
        super().__init__(initial_data, rows, offsets, "rows", "initial data")
        self.certificate = lower_envelope_certificate(self.rows, self.offsets)
        if not self.certificate.holds:
            raise EnvelopeViolationError(self.certificate)
        self.lipschitz_initial_data = initial_data.negated.uniformly_lipschitz

    # The activation and the branch points, by this representation's names.
    initial_data = property(lambda self: self._activation)
    rows = property(lambda self: self._points)

    def _branches(self, t) -> Form:
        """Branches J(x - t v_i) + t b_i, radial through the negated J.  A 1-D
        array t gives one beta and one weight per row."""
        J = self._activation
        return Form(J, J.negated.radial, -1.0, t, 1.0, self._points, self._lifted, t, self.offsets)

    def initial_values(self, points) -> np.ndarray:
        """Initial-data values J on (k, n) row points, for oracle use."""
        return self.initial_data(check_points(points, self.dimension))

    def hamiltonian(self) -> MaxAffine:
        """The max-affine Hamiltonian determined by the branch parameters."""
        return MaxAffine(self.rows, self.offsets)

    def hamiltonian_conjugate(self, v) -> SimplexSolution | np.ndarray:
        """Conjugate of the Hamiltonian at v, by the simplex LP.

        +inf (no weights) outside the convex hull of the v_i, matching the
        conjugate's domain; at each v_k the optimum equals b_k.  A (k, n)
        ``v`` gives the float64 array of its k rows' conjugate values, from
        one stacked solve; non-finite ``v`` is refused.
        """
        v = np.asarray(v, dtype=float)
        v = check_points(v, self.dimension) if v.ndim == 2 else check_point(v, self.dimension)
        return minimize_over_simplex(self.offsets, self.rows, v)


def norm_hamiltonian_rows(kind: str, n: int):
    """Branch parameters whose max-affine Hamiltonian is the l1 or linf norm.

    ``l1`` yields the 2^n sign vectors (lexicographic order, -1 before +1)
    and is refused above ``L1_MAX_DIMENSION`` (13), the largest n whose net
    builds within a 1 s budget; ``linf`` yields the 2n signed basis vectors
    (+e1, -e1, +e2, ...).  All offsets are zero, so the lower-envelope
    condition holds automatically.
    Returns (rows, offsets).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if kind == "l1":
        if n > L1_MAX_DIMENSION:
            raise ValueError(f"l1 constructor refused for n > {L1_MAX_DIMENSION} (2^n rows)")
        rows = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    elif kind == "linf":
        rows = np.zeros((2 * n, n))
        for j in range(n):
            rows[2 * j, j] = 1.0
            rows[2 * j + 1, j] = -1.0
    else:
        raise ValueError(f"unknown norm kind {kind!r}: expected 'l1' or 'linf'")
    return rows, np.zeros(len(rows))
