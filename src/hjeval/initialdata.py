"""Solution net driven by concave initial data (second representation).

The net evaluates, without any grid,

    value(x, t) = min_i { J(x - t v_i) + t b_i },              t >= 0,

for a real-valued concave activation J and branch parameters (v_i, b_i).
The Hamilton-Jacobi equation it solves has the max-affine Hamiltonian

    H(p) = max_i { <p, v_i> - b_i },

whose conjugate is the linear program
min { Σ α_i b_i : α in the unit simplex, Σ α_i v_i = v }, finite exactly on
the convex hull of the v_i.  The representation is valid only when every
(v_i, b_i) admits a convex interpolant, i.e. lies on the lower convex
envelope of the pair set; construction verifies this and rejects violating
parameter sets rather than silently computing a non-solution.
"""

from __future__ import annotations

import itertools

import numpy as np

from .branches import EvalResult, reduce_branch_matrix, reduce_branches
from .catalog import ConcaveFn, MaxAffine
from .simplex import (
    EnvelopeViolationError,
    SimplexSolution,
    lower_envelope_certificate,
    minimize_over_simplex,
)

__all__ = ["InitialDataNet", "norm_hamiltonian_rows"]


class InitialDataNet:
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
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        offsets = np.asarray(offsets, dtype=float).reshape(-1)
        if rows.shape[0] < 1:
            raise ValueError("need at least one branch")
        if rows.shape[0] != offsets.shape[0]:
            raise ValueError("rows and offsets must have equal length")
        if not (np.isfinite(rows).all() and np.isfinite(offsets).all()):
            raise ValueError("branch parameters must be finite")
        if initial_data.dim is not None and rows.shape[1] != initial_data.dim:
            raise ValueError(
                f"initial data is defined on R^{initial_data.dim} "
                f"but branch points live in R^{rows.shape[1]}"
            )
        self.certificate = lower_envelope_certificate(rows, offsets)
        if not self.certificate.holds:
            raise EnvelopeViolationError(self.certificate)
        self.initial_data = initial_data
        self.rows = rows
        self.offsets = offsets
        self.lipschitz_initial_data = initial_data.negated.uniformly_lipschitz

    @property
    def dimension(self) -> int:
        return self.rows.shape[1]

    @property
    def n_branches(self) -> int:
        return self.rows.shape[0]

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dimension:
            raise ValueError(f"point has dimension {x.size}, net expects {self.dimension}")
        return x

    def branch_values(self, x, t: float) -> np.ndarray:
        """All m branch values J(x - t v_i) + t b_i at one point."""
        x = self._check_point(x)
        return self.initial_data(x - t * self.rows) + t * self.offsets

    def evaluate(self, x, t: float) -> EvalResult:
        """Solution value at time t >= 0 (every branch equals J(x) at t = 0)."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        return reduce_branches(self.branch_values(x, t))

    def evaluate_grid(self, points, t: float):
        """Vectorized :meth:`evaluate` over (k, n) row points."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cols = [
            self.initial_data(points - t * v) + t * b
            for v, b in zip(self.rows, self.offsets)
        ]
        return reduce_branch_matrix(np.stack(cols, axis=1))

    solution_grid = evaluate_grid

    def initial_values(self, points) -> np.ndarray:
        """Initial-data values J on (k, n) row points, for oracle use."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.initial_data(points)

    def hamiltonian(self) -> MaxAffine:
        """The max-affine Hamiltonian determined by the branch parameters."""
        return MaxAffine(self.rows, self.offsets)

    def hamiltonian_conjugate(self, v) -> SimplexSolution:
        """Conjugate of the Hamiltonian at v, by the simplex LP.

        +inf (no weights) outside the convex hull of the v_i, matching the
        conjugate's domain; at each v_k the optimum equals b_k.
        """
        v = self._check_point(v)
        return minimize_over_simplex(self.offsets, self.rows, v)

    def __repr__(self):
        return (
            f"InitialDataNet({self.initial_data!r}, m={self.n_branches}, "
            f"dim={self.dimension})"
        )


def norm_hamiltonian_rows(kind: str, n: int):
    """Branch parameters whose max-affine Hamiltonian is the l1 or linf norm.

    ``l1`` yields the 2^n sign vectors (lexicographic order, -1 before +1);
    ``linf`` yields the 2n signed basis vectors (+e1, -e1, +e2, ...).  All
    offsets are zero, so the lower-envelope condition holds automatically.
    Returns (rows, offsets).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if kind == "l1":
        if n > 20:
            raise ValueError("l1 constructor refused for n > 20 (2^n rows)")
        rows = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    elif kind == "linf":
        rows = np.zeros((2 * n, n))
        for j in range(n):
            rows[2 * j, j] = 1.0
            rows[2 * j + 1, j] = -1.0
    else:
        raise ValueError(f"unknown norm kind {kind!r}: expected 'l1' or 'linf'")
    return rows, np.zeros(len(rows))
