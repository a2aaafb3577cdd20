"""Dense two-phase simplex for LPs over the unit simplex.

The only shape needed in this package: minimize c·α over weights α in the
unit simplex subject to Σ α_i v_i = target.  A dense tableau with Bland's
anti-cycling rule is exact enough, dependency free, and easy to audit.
Pivot tolerance 1e-10.

There is one implementation of the set-up, phase 1, drive-out, phase 2 and
weights, on a (k, n) stack of targets sharing the costs and points: one
(k, n + 2, m + n + 2) tableau stack, in blocks of about 2 MiB.  Both phases
run on that one tableau: the drive-out zeroes the structural entries of a
redundant constraint row, so no phase-2 pivot touches it, and each LP's
basis row is its own optimal basis.  A single target is a stack of one and
gets its weights and optimal basis; a stacked solve returns only the k
optimal values.  The stack's size alone picks the pivot kernel: a lone LP
pivots on its one tableau, with its ratio test and tie-break on Python
floats and its rank-1 update in one buffer; a larger stack runs every
pivot, ratio test and tie-break on all LPs still pivoting at once.  Both
kernels make the same pivots with the same floats, so each stacked value is
bit for bit the value of solving its target alone.  Neither phase can be
unbounded, so a kernel that finds an entering column with no positive entry
raises RuntimeError.

The lower-envelope certificate screens all rows at once with witness
gradients checked by one blocked Gram product (scale 1 straight from each
block, later scales only on the rows still left) and solves the LP only for
the rows the screen leaves, whose witnesses are least-squares duals of their
optimal bases; :func:`check_witnesses` re-checks its evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branches import check_branch_parameters

__all__ = [
    "PIVOT_TOL",
    "FEASIBILITY_TOL",
    "ENVELOPE_TOL",
    "SimplexSolution",
    "minimize_over_simplex",
    "STACK_BLOCK",
    "stack_block_targets",
    "EnvelopeCertificate",
    "EnvelopeViolationError",
    "lower_envelope_certificate",
    "check_witnesses",
    "SCREEN_SCALES",
]

PIVOT_TOL = 1e-10
FEASIBILITY_TOL = 1e-9
ENVELOPE_TOL = 1e-9
# Tableau floats of one block of a stacked solve (2 MiB).
STACK_BLOCK = 1 << 18


@dataclass
class SimplexSolution:
    """Outcome of a simplex solve: +inf value and no weights when infeasible.

    ``basis`` is the optimal basis row of the tableau split in two,
    ``(columns, redundant)``: its structural columns, in row order, and its
    artificial indices minus m, the constraint rows of ``[V^T; 1]`` that
    are combinations of the others, so that the remaining rows restricted
    to the columns form a square, invertible matrix.  A redundant row is
    named by its artificial variable, the one left basic in a tableau row
    whose structural entries the drive-out zeroed, which need not be that
    tableau row's own.  None when infeasible.
    """

    value: float
    weights: np.ndarray | None
    basis: tuple[list[int], list[int]] | None = None

    @property
    def feasible(self) -> bool:
        return self.weights is not None


def _pivot_limit(tableau, n_cols: int) -> int:
    """The number of bases of a tableau, or of each tableau of a stack: the
    ways to choose one of ``n_cols`` columns per constraint row.  Bland's
    rule never revisits a basis, so no valid solve pivots more often."""
    return math.comb(n_cols, tableau.shape[-2] - 1)


def _bland_iterate(tableau, basis, n_cols):
    """Minimize the tableau objective with Bland's rule; only the first
    ``n_cols`` columns enter.

    ``tableau`` rows are the constraints plus a final reduced-cost row; the
    last column is the right-hand side.  ``basis`` (a list, or a row of the
    stack's basis array) holds each constraint row's basic column; both are
    updated in place.  Returns at the optimum; raises RuntimeError on an
    entering column with no positive entry (unbounded), and past
    :func:`_pivot_limit` pivots, the bases over all columns but the
    right-hand side.
    """
    costs, rhs = tableau[-1, :n_cols], tableau[:-1, -1]  # views: pivots are in place
    update = np.empty_like(tableau)  # each pivot's rank-1 update
    limit, pivots = _pivot_limit(tableau, tableau.shape[-1] - 1), 0
    while True:
        negative = costs < -PIVOT_TOL
        col = negative.argmax()  # smallest index: Bland's entering rule
        if not negative[col]:
            return
        # The ratio test on Python floats, with numpy's quotients; a row whose
        # entry is not above PIVOT_TOL gets +inf and never ties.  A NaN
        # ratio makes the cut NaN, as numpy's min would: then nothing ties.
        # Their sum is NaN when one is (or when both infinities are there).
        column = tableau[:-1, col].tolist()
        ratios = [b / a if a > PIVOT_TOL else math.inf for a, b in zip(column, rhs.tolist())]
        total = sum(ratios)
        cut = math.nan if total != total and any(map(math.isnan, ratios)) else min(ratios) + 1e-12
        tied = [i for i, r in enumerate(ratios) if r <= cut and column[i] > PIVOT_TOL]
        if not tied and not any(a > PIVOT_TOL for a in column):
            raise RuntimeError(f"unbounded: entering column {col} has no positive entry")
        # Smallest basic index on ties.
        row = tied[0] if len(tied) == 1 else min(tied, key=basis.__getitem__)
        if pivots == limit:
            raise RuntimeError(f"Bland's rule cycled: more pivots than the {limit} bases")
        pivots += 1
        pivot_row = tableau[row]
        pivot_row /= column[row]
        factors = tableau[:, col, None].copy()
        factors[row] = 0.0
        tableau -= np.multiply(factors, pivot_row, out=update)
        basis[row] = col


def minimize_over_simplex(costs, points, target) -> SimplexSolution | np.ndarray:
    """Solve min { c·α : α in the unit simplex, Σ α_i v_i = target }.

    ``points`` is the (m, n) array of the v_i as rows.  Returns the exact
    optimum with an optimal α and its basis, or ``SimplexSolution(inf,
    None)`` when the target lies outside the convex hull of the points
    (phase-1 infeasible).  A (k, n) ``target`` is a stack of k targets: it
    returns the float64 array of their k optimal values (+inf where
    infeasible), from one tableau stack per block of
    :func:`stack_block_targets` targets.  A single target is a stack of one,
    so each value is bit for bit the value of solving its target alone.
    Non-finite costs, points or targets are refused.
    """
    costs = np.asarray(costs, dtype=float).reshape(-1)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float)
    m, n = points.shape
    if costs.size != m:
        raise ValueError("costs and points must have equal length")
    if (target.shape[1] if target.ndim == 2 else target.size) != n:
        raise ValueError("target dimension does not match the points")
    if not (np.isfinite(costs).all() and np.isfinite(points).all() and np.isfinite(target).all()):
        raise ValueError("costs, points and target must be finite")
    if target.ndim == 2:
        values = np.empty(len(target))
        block = stack_block_targets(m, n)
        for start in range(0, len(target), block):
            stop = start + block
            values[start:stop] = _minimize_stack(costs, points, target[start:stop])[0]
        return values
    (value,), weights, basis = _minimize_stack(costs, points, target.reshape(1, n))
    return SimplexSolution(float(value), weights, basis)


def stack_block_targets(m: int, n: int) -> int:
    """Targets per block of a stacked solve: :data:`STACK_BLOCK` tableau floats."""
    return max(1, STACK_BLOCK // ((n + 2) * (m + n + 2)))


def _pivot_stack(tableau, basis, rows, cols):
    """:func:`_bland_iterate`'s pivot on each tableau of the stack at its
    own (row, col)."""
    lps = np.arange(len(tableau))
    tableau[lps, rows] /= tableau[lps, rows, cols][:, None]
    factors = tableau[lps, :, cols]
    factors[lps, rows] = 0.0
    tableau -= factors[:, :, None] * tableau[lps, rows][:, None, :]
    basis[lps, rows] = cols


def _bland_stack(tableau, basis, n_cols):
    """:func:`_bland_iterate` on a tableau stack, in place.

    Each iteration pivots every LP that is not yet optimal, with its own
    entering column, ratio test and tie-break; an optimal LP leaves the
    working stack.  Returns when every LP is optimal; raises RuntimeError
    where an entering column has no positive entry, and past
    :func:`_pivot_limit` pivots.
    """
    work, ids, bases = tableau, np.arange(len(tableau)), basis
    limit, pivots = _pivot_limit(tableau, tableau.shape[-1] - 1), 0
    while ids.size:
        negative = work[:, -1, :n_cols] < -PIVOT_TOL
        running = negative.any(axis=1)
        if not running.all():
            done = ~running
            tableau[ids[done]] = work[done]
            basis[ids[done]] = bases[done]
            work, ids, bases = work[running], ids[running], bases[running]
            negative = negative[running]
            if not ids.size:
                break
        cols = negative.argmax(axis=1)  # smallest index: Bland's entering rule
        column = work[np.arange(len(work)), :-1, cols]
        positive = column > PIVOT_TOL
        if not positive.any(axis=1).all():
            raise RuntimeError("unbounded: an entering column has no positive entry")
        ratios = np.full(column.shape, np.inf)
        np.divide(work[:, :-1, -1], column, out=ratios, where=positive)
        tied = positive & (ratios <= ratios.min(axis=1, keepdims=True) + 1e-12)
        rows = np.where(tied, bases, work.shape[2]).argmin(axis=1)  # no column reaches the width
        if pivots == limit:
            raise RuntimeError(f"Bland's rule cycled: more pivots than the {limit} bases")
        pivots += 1
        _pivot_stack(work, bases, rows, cols)


def _bland(tableau, basis, n_cols):
    """Bland's rule on a tableau stack, in place.  The stack's size picks the
    kernel: a lone LP pivots in :func:`_bland_iterate`, whose ratio test and
    tie-break on Python floats and one update buffer cost less numpy
    dispatch a pivot; a larger stack, in :func:`_bland_stack`.  Both make the
    same pivots with the same floats."""
    if len(tableau) == 1:
        _bland_iterate(tableau[0], basis[0], n_cols)
    else:
        _bland_stack(tableau, basis, n_cols)


def _minimize_stack(costs, points, targets):
    """The two-phase simplex of :func:`minimize_over_simplex` on a (k, n)
    stack of targets.  Returns the k optimal values (+inf where infeasible)
    and, for a feasible stack of one, that LP's weights and
    :attr:`SimplexSolution.basis`; else None and None.

    Both phases pivot the one (k, n + 2, m + n + 2) tableau stack.  Every
    step runs on all LPs still pivoting at once, and each LP runs the float
    operations of solving it alone, in the same order, whatever the stack
    holds besides it.
    """
    k, n = targets.shape
    m = points.shape[0]
    n_rows = n + 1

    # Phase 1: the constraints [V^T; 1] α = [target; 1], each row flipped to
    # a nonnegative right-hand side, under an artificial basis; minimize the
    # artificial sum.  The bits of that objective row depend on the layout
    # of ``a_mat`` (numpy sums pairwise along contiguous memory, else row by
    # row), so it stays a fresh array laid out like ``points.T``.
    rhs = np.ones((k, n_rows))
    rhs[:, :n] = targets
    sign = np.where(rhs < 0, -1.0, 1.0)
    rhs *= sign
    a_mat = np.vstack([points.T, np.ones((1, m))]) * sign[:, :, None]
    tableau = np.zeros((k, n_rows + 1, m + n_rows + 1))
    tableau[:, :n_rows, :m] = a_mat
    tableau[:, :n_rows, m : m + n_rows] = np.eye(n_rows)
    tableau[:, :n_rows, -1] = rhs
    tableau[:, -1, :m] = -a_mat.sum(axis=1)
    tableau[:, -1, -1] = -rhs.sum(axis=1)
    basis = np.empty((k, n_rows), dtype=int)
    basis[:] = np.arange(m, m + n_rows)

    _bland(tableau, basis, m + n_rows)
    feasible = (~(-tableau[:, -1, -1] > FEASIBILITY_TOL)).nonzero()[0]
    tableau, basis = tableau[feasible], basis[feasible]

    # Drive leftover artificials out of the basis, row by row.  A row whose
    # basic artificial has no structural entry is redundant: its structural
    # entries are zeroed, so no later pivot touches it, and its artificial
    # stays basic and names it.  A pivot changes only its own row's basis
    # entry, so only the rows with a basic artificial after phase 1 need a
    # visit.
    for i in (basis >= m).any(axis=0).nonzero()[0]:
        lps = (basis[:, i] >= m).nonzero()[0]
        structural = np.abs(tableau[lps, i, :m]) > PIVOT_TOL
        found = structural.any(axis=1)
        tableau[lps[~found], i, :m] = 0.0
        lps = lps[found]
        if lps.size:
            sub, sub_basis = tableau[lps], basis[lps]
            _pivot_stack(sub, sub_basis, np.full(lps.size, i), structural[found].argmax(axis=1))
            tableau[lps], basis[lps] = sub, sub_basis

    # Phase 2 on the same tableau: the costs, padded with zeros, replace the
    # objective row, which is reduced over the basis in row order; only
    # structural columns enter.
    lps = np.arange(len(tableau))
    obj = tableau[:, -1]
    obj[:] = np.concatenate((costs, np.zeros(n_rows + 1)))
    for i, columns in enumerate(basis.T):
        obj -= obj[lps, columns, None] * tableau[:, i]
    _bland(tableau, basis, m)

    # The weights: each row's right-hand side scattered to its basic column;
    # the artificial columns, a redundant row's among them, are cut off.
    alpha = np.zeros((len(tableau), m + n_rows))
    alpha[lps[:, None], basis] = tableau[:, :-1, -1]
    alpha = alpha[:, :m]
    alpha[np.abs(alpha) < 1e-12] = 0.0
    # Each row of ``costs @ alpha[:, :, None]`` is a vector @ vector matmul,
    # the kernel of ``costs @ alpha`` on one LP, so a value does not depend
    # on its stack (``alpha @ costs`` would).
    values = np.full(k, np.inf)
    values[feasible] = (costs @ alpha[:, :, None])[:, 0]
    if k == 1 and feasible.size:
        row = basis[0]
        return values, alpha[0], (row[row < m].tolist(), (row[row >= m] - m).tolist())
    return values, None, None


@dataclass
class EnvelopeCertificate:
    """Whether every (v_i, b_i) lies on the lower convex envelope of the set.

    ``holds`` is equivalent to the existence of a convex function
    interpolating all the pairs.  When violated, ``index`` is the 1-based
    offending row, and ``weights`` are simplex weights with
    Σ w_j v_j = v_index and Σ w_j b_j = envelope_value < b_index - ENVELOPE_TOL.

    When the set passes, row k of the (m, n) array ``witnesses`` is a
    gradient p_k at which affine piece k of H(p) = max_i <p, v_i> - b_i
    attains the max, and ``slack[k]`` is by how much it misses:
    max_i (<p_k, v_i> - b_i) - (<p_k, v_k> - b_k), which bounds
    b_k - H*(v_k).  :func:`check_witnesses` recomputes ``slack`` from the
    pairs and the witnesses alone.  ``screened`` counts the rows certified
    by the witness screen and by the LP, in that order (up to the first
    violation when the set fails).
    """

    holds: bool
    index: int | None = None
    weights: np.ndarray | None = None
    envelope_value: float | None = None
    witnesses: np.ndarray | None = None
    slack: np.ndarray | None = None
    screened: tuple[int, int] = (0, 0)


class EnvelopeViolationError(ValueError):
    """A (v_i, b_i) set admits no convex interpolant."""

    def __init__(self, certificate: EnvelopeCertificate):
        self.certificate = certificate
        super().__init__(
            f"no convex interpolant: row {certificate.index} lies strictly above "
            f"the lower convex envelope (envelope value "
            f"{certificate.envelope_value:.12g} at that point)"
        )


# Candidate witnesses p_k = s * v_k.  Powers of two scale every product
# exactly, so one Gram product serves all of them; the first is 1, which
# :func:`_slack` takes straight from that product.
SCREEN_SCALES = (1.0, 2.0, 0.5)
# Row blocks of the Gram product hold about 1 MiB of float64 each.
_BLOCK_ELEMENTS = 1 << 17
_MAX_BLOCK_ROWS = 256


def _slack(points, offsets, witnesses, owners, bound):
    """Each row r's slack at the first scale ``s = SCREEN_SCALES[j]``, j <
    ``len(bound)``, where the slack of ``s * witnesses[r]`` for row
    ``owners[r]`` plus ``bound[j, r]`` is at most :data:`ENVELOPE_TOL`, and
    that j; where no scale passes, j = -1 and the slack is at the last one.

    Each block's Gram product is computed once, into a buffer reused across
    blocks, and never for a subset of its rows: its rounding depends on its
    shape.  Scale 1 takes every row's values straight from it, minus the
    offsets, into a second reused buffer (``1.0 * product`` is ``product``,
    so no copy or multiply is needed).  Later scales gather its entries on
    the rows still left into that buffer (``left`` is in range, so "clip"
    never clips), and once no row is left the block's scan stops.
    """
    m = points.shape[0]
    slack, choice = np.empty(len(owners)), np.full(len(owners), -1)
    block = max(1, min(_MAX_BLOCK_ROWS, _BLOCK_ELEMENTS // m, len(owners)))
    gram, work = np.empty((block, m)), np.empty((block, m))
    for start in range(0, len(owners), block):
        stop = min(start + block, len(owners))
        product = np.matmul(witnesses[start:stop], points.T, out=gram[: stop - start])
        left = np.arange(stop - start)
        values = np.subtract(product, offsets, out=work[: left.size])  # scale 1
        for j, scale in enumerate(SCREEN_SCALES[: len(bound)]):
            if j:
                values = np.take(product, left, axis=0, out=work[: left.size], mode="clip")
                values *= scale
                values -= offsets
            rows = start + left
            slack[rows] = values.max(axis=1) - values[np.arange(left.size), owners[rows]]
            passed = slack[rows] + bound[j, rows] <= ENVELOPE_TOL
            choice[rows[passed]] = j
            left = left[~passed]
            if not left.size:
                break
    return slack, choice


def check_witnesses(points, offsets, witnesses) -> np.ndarray:
    """Per-row slack of envelope witnesses, with one blocked Gram product.

    ``slack[k] = max_i (<p_k, v_i> - b_i) - (<p_k, v_k> - b_k)`` for the
    (m, n) witnesses p_k; it is never negative in exact arithmetic, and
    ``slack[k] <= tol`` proves that the simplex LP for row k attains at
    least b_k - tol, i.e. that (v_k, b_k) lies on the lower convex envelope
    up to tol.  This is the code :func:`lower_envelope_certificate` uses, so
    ``check_witnesses(v, b, cert.witnesses)`` re-checks a certificate.
    Both refuse empty or non-finite pairs, and this refuses non-finite
    witnesses.
    """
    points, offsets = check_branch_parameters(points, offsets)
    witnesses = np.asarray(witnesses, dtype=float)
    if witnesses.shape != points.shape:
        raise ValueError(f"witnesses must have shape {points.shape}, got {witnesses.shape}")
    if not np.isfinite(witnesses).all():
        raise ValueError("witnesses must be finite")
    return _slack(points, offsets, witnesses, np.arange(len(points)), np.zeros((1, len(points))))[0]


def _basis_witness(points, offsets, columns) -> np.ndarray:
    """Witness from the optimal basis ``columns`` of the row-k LP: a dual y
    of the equality rows.

    Takes the least-squares solution of A_B^T y = c_B for the unflipped
    A = [V^T; 1], which undoes the solver's row flips.  A redundant row is
    a combination of the other rows in every column, so every solution
    prices every column alike and is a dual of the basis; a singular A_B
    needs no special case.  Dual feasibility <y[:n], v_i> + y[n] <= b_i and
    the optimal value <y[:n], v_k> + y[n] make p = y[:n] a witness for row k.
    """
    a_b = np.vstack([points[columns].T, np.ones(len(columns))])
    return np.linalg.lstsq(a_b.T, offsets[columns])[0][: points.shape[1]]


def lower_envelope_certificate(points, offsets) -> EnvelopeCertificate:
    """Check that each point lies on the lower convex envelope of the pair set.

    Row k passes when the LP min { Σ α_i b_i : α in the simplex,
    Σ α_i v_i = v_k } attains b_k within :data:`ENVELOPE_TOL`, and a witness
    p_k with slack at most that (see :func:`check_witnesses`) proves exactly that.

    1. Screen: the candidates p_k = s v_k for s in :data:`SCREEN_SCALES`
       are tested in that order, from one blocked Gram product V V^T: s = 1
       on all rows, then 2 and then 1/2 only on the rows not yet accepted,
       from the same entries of the same block.  The first scale that
       passes gives the witness.  A row passes only when its slack plus
       twice a forward bound on the rounding error of the products,
       2 (n + 2) eps (|p_k| max_i |v_i| + max_i |b_i|), is at most the
       tolerance, so the screen never accepts on rounding and
       large-magnitude data falls through to the LP.
    2. LP fallback: the remaining rows, in index order, solve the LP with
       :func:`minimize_over_simplex`, which stays the authority.
       The witness of a certified row is a least-squares dual of its
       optimal basis.
       The first violated row (smallest k) is reported with its minimizing
       weights and envelope value, exactly as the LP alone would.
    """
    points, offsets = check_branch_parameters(points, offsets)
    m, n = points.shape
    rows = np.arange(m)

    norms = np.linalg.norm(points, axis=1)
    scales = np.array(SCREEN_SCALES)[:, None]
    bound = 2 * (n + 2) * np.finfo(float).eps * (
        scales * norms * norms.max() + np.abs(offsets).max()
    )
    slack, choice = _slack(points, offsets, points, rows, bound)
    accepted = choice >= 0
    witnesses = scales[choice] * points  # the LP replaces rows not accepted

    fallback = rows[~accepted]
    for k in fallback:
        sol = minimize_over_simplex(offsets, points, points[k])
        if not sol.feasible:
            raise RuntimeError("envelope LP infeasible at one of its own points")
        if sol.value < offsets[k] - ENVELOPE_TOL:
            screened = (int(accepted.sum()), int(np.searchsorted(fallback, k)))
            return EnvelopeCertificate(False, int(k) + 1, sol.weights, sol.value, screened=screened)
        witnesses[k] = _basis_witness(points, offsets, sol.basis[0])
    if fallback.size:
        zero = np.zeros((1, fallback.size))
        slack[fallback] = _slack(points, offsets, witnesses[fallback], fallback, zero)[0]
    return EnvelopeCertificate(
        True, witnesses=witnesses, slack=slack, screened=(m - fallback.size, fallback.size)
    )
