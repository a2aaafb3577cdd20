"""Min-of-branches evaluation shared by both solution representations.

Both nets state their m branches at time t as a :class:`Form`; this module
owns the only exact branch formula (:func:`branch_formula`, which every path
calls with the Form), the screen built from the same Form and the winning
branch's kink margin.

A net's value at a point is the minimum over its m branches; the winning
branch (1-based, smallest index on ties) and the gap to the runner-up come
with it.  Batches of k points are reduced in row blocks whose largest
temporaries stay at a few MiB (``EXACT_BLOCK``, ``SCREEN_BLOCK``), through
one of two kernels:

* **Exact.**  The branch formula on stacked (point, branch) difference
  arrays, one activation call per block.  It is the only kernel whose
  numbers are returned.
* **Screen**, for radial activations (see ``ConvexFn.radial``).  Branch i
  at point x is ``sign * rho(|x - beta c_i|) + o_i``; the squared
  distances come from ``|x|^2 - 2 beta <x, c_i> + beta^2 |c_i|^2`` with one
  matrix product per block.  Each row gets a forward rounding bound ``e``
  on the distance between its screen values and the exact kernel's values
  (through the square root where there is one).  A branch is a candidate
  when its screen value is at most the row's second-smallest screen value
  plus ``2 e``; that band holds the exact minimum, every branch tied with
  it and the exact runner-up, so the exact kernel run on the candidates
  alone returns the same values, argmins and gaps as on all m branches.
  Rows whose magnitudes could overflow or whose bound is not finite go to
  the exact kernel whole, and so raise the same errors.

The size of a batch alone picks the kernel: a batch whose (k, m, n)
differences reach ``SCREEN_MIN_ELEMENTS`` is screened, one row included;
a smaller one takes the exact kernel directly.  A batch with one time per
row takes the exact kernel on a Form whose ``beta``, ``scale`` and
``offsets`` hold one entry per row.  Single points given to ``evaluate``
take their own path (:meth:`BranchNet._evaluate_point`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["BranchNet", "EvalResult", "reduce_branches", "reduce_branch_matrix"]

# Row blocks hold at most this many float64 elements: (rows, m, n) stacked
# differences on the exact kernel (512 KiB), and (rows, m) screen values
# plus about two (rows, n) candidate differences on the screen (1 MiB).
EXACT_BLOCK = 1 << 16
SCREEN_BLOCK = 1 << 17
# Smallest batch worth screening, in elements of the exact kernel's
# (k, m, n) differences; below it the screen's fixed cost is larger.
SCREEN_MIN_ELEMENTS = 1 << 15

_U = 2.0**-53  # unit roundoff
_HUGE = 2.0**500  # rows above this magnitude could overflow: exact kernel


@dataclass(frozen=True)
class EvalResult:
    """Value of a min-of-branches formula with its winning branch.

    ``argmin_index`` is the 1-based index of the winning branch (smallest
    index on ties).  ``gap`` is the runner-up branch value minus the winning
    one (+inf for a single branch); a small gap flags proximity to a kink of
    the solution.
    """

    value: float
    argmin_index: int
    gap: float


def reduce_branches(values: np.ndarray) -> EvalResult:
    """Collapse a vector of branch values into an :class:`EvalResult`."""
    values = np.asarray(values, dtype=float)
    best = int(values.argmin())
    lowest = float(values[best])
    if values.size == 1:
        return EvalResult(lowest, 1, float("inf"))
    # np.partition's copy and partial sort, without its dispatch overhead.
    rest = values.copy()
    rest.partition(1)
    return EvalResult(lowest, best + 1, float(rest[1]) - lowest)


def reduce_branch_matrix(matrix: np.ndarray):
    """Row-wise reduction of a (k, m) branch matrix.

    Returns (values, argmin indices, gaps) as length-k arrays; indices are
    1-based with the smallest index winning ties.
    """
    matrix = np.asarray(matrix, dtype=float)
    best = matrix.argmin(axis=1)
    values = matrix[np.arange(matrix.shape[0]), best]
    if matrix.shape[1] == 1:
        gaps = np.full(matrix.shape[0], np.inf)
    else:
        two = np.partition(matrix, 1, axis=1)[:, :2]
        gaps = two[:, 1] - two[:, 0]
    return values, best + 1, gaps


# -- validation -------------------------------------------------------------


def check_branch_parameters(points, offsets, points_name="points", fn_dim=None, fn_name=None):
    """Branch points as an (m, n) array of finite floats and offsets as a length-m array.

    ``points_name`` and ``fn_name`` word the errors, e.g. "shifts" and
    "activation"; ``fn_dim`` (None: any) is the dimension the points must have.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    offsets = np.asarray(offsets, dtype=float).reshape(-1)
    if points.shape[0] < 1:
        raise ValueError("need at least one branch")
    if points.shape[0] != offsets.shape[0]:
        raise ValueError(f"{points_name} and offsets must have equal length")
    if not (np.isfinite(points).all() and np.isfinite(offsets).all()):
        raise ValueError("branch parameters must be finite")
    if fn_dim is not None and points.shape[1] != fn_dim:
        raise ValueError(
            f"{fn_name} is defined on R^{fn_dim} but branch points live in R^{points.shape[1]}"
        )
    return points, offsets


def check_point(x, dim: int) -> np.ndarray:
    """One point as a length-dim vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        x = x.reshape(-1)
    if x.size != dim:
        raise ValueError(f"point has dimension {x.size}, net expects {dim}")
    return x


def check_points(points, dim: int) -> np.ndarray:
    """Row points as a C-contiguous (k, dim) array of floats.

    Finiteness is left to the activation, which checks every argument it
    is given (see ``catalog._promote``).
    """
    points = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
    if points.ndim != 2:
        raise ValueError(
            f"points must be scalars, vectors or (k, n) arrays, got ndim={points.ndim}"
        )
    if points.shape[1] != dim:
        raise ValueError(f"points have dimension {points.shape[1]}, net expects {dim}")
    return points


# -- batch kernels ----------------------------------------------------------


# Slots: nets build a Form on every call, and this builds faster than a NamedTuple.
@dataclass(slots=True)
class Form:
    """A net's m branches at one time: activation ``fn``, branch points
    ``centers`` (c_i) and ``offsets`` (o_i).

    Branch i at x is ``scale * fn((x - beta c_i) / scale) + offsets_i``.
    Where ``radial`` = (kind, s) is not None, the same branch is ``sign *
    scale * rho(|x - beta c_i| / scale) + offsets_i`` with ``rho(r) = r^2 /
    2`` for "square" (scale 1) and ``max(r - s, 0)`` for "norm"; the screen
    uses that form.  ``sq`` caches ``|c_i|^2``.

    A Form at one time per row of a batch of k points (:func:`_per_row`)
    holds ``offsets`` as a (k, m) array, and ``beta`` or ``scale`` as a
    length-k array where it varies with t (1.0 where it does not): row r's
    entries are those of the Form at row r's time.  Only the exact kernel
    takes it; it is never screened.
    """

    fn: object
    radial: tuple[str, float] | None
    sign: float
    beta: float | np.ndarray
    scale: float | np.ndarray
    centers: np.ndarray
    sq: np.ndarray
    offsets: np.ndarray


def _per_row(form: Form) -> bool:
    """Whether ``form`` holds one time per row of its batch."""
    return form.offsets.ndim == 2


def _arguments(form: Form, x, cols=None, out=None):
    """The activation arguments (x - beta c_i) / scale for the branches ``cols``
    (all when None), written into ``out`` if given."""
    centers = form.centers if cols is None else form.centers[cols]
    if _per_row(form):
        # Arrays hold one entry per row of x (its second-to-last axis); a row
        # at beta or scale 1 needs no skip, as products and quotients by 1.0
        # are exact.
        if isinstance(form.beta, np.ndarray):
            centers = form.beta[:, None] * centers
        diff = np.subtract(x, centers, out=out)
        if isinstance(form.scale, np.ndarray):
            np.divide(diff, form.scale[:, None], out=diff)
        return diff
    diff = np.subtract(x, centers if form.beta == 1.0 else form.beta * centers, out=out)
    if form.scale == 1.0:
        return diff
    # In place on a workspace: a block then holds one array of differences.
    return diff / form.scale if out is None else np.divide(diff, form.scale, out=diff)


def branch_formula(form: Form, x, cols=None, out=None):
    """Exact ``scale * fn((x - beta c_i) / scale) + o_i``.

    ``x`` is broadcast against the branch rows ``cols`` (all when None), an
    index array over x's leading axes; ``out`` is free to take the
    differences.  A :func:`_per_row` Form needs ``cols``, and its rows lie
    on x's second-to-last axis.
    """
    z = _arguments(form, x, cols, out)
    vals = form.fn(z if z.ndim == 2 else z.reshape(-1, z.shape[-1]))
    if z.ndim != 2:
        vals = vals.reshape(z.shape[:-1])
    if _per_row(form):
        if isinstance(form.scale, np.ndarray):
            vals = form.scale * vals
        return vals + form.offsets[np.arange(len(form.offsets)), cols]
    if form.scale != 1.0:
        vals = form.scale * vals
    return vals + (form.offsets if cols is None else form.offsets[cols])


def min_over_branches(points, form: Form, values_only=False):
    """Row-wise (values, argmins, gaps) of the (k, m) branch matrix of
    ``form``, or (values,) with ``values_only``.

    ``points`` is a checked (k, n) array.  Both kernels take their exact
    values from :func:`branch_formula` on ``form``.  Radial forms take the
    screened kernel, except for values only: their row minima come from the
    exact kernel alone.
    """
    (k, n), m = points.shape, len(form.centers)
    if values_only or form.radial is None or m == 1 or k * m * n < SCREEN_MIN_ELEMENTS:
        return _exact_rows(points, form, values_only)
    step = max(1, SCREEN_BLOCK // (m + 2 * n))
    # Blocks write their largest arrays into one workspace, so they reuse
    # memory instead of each taking (and faulting in) fresh pages.
    work = np.empty(min(k, step) * (m + 2 * n))
    cross = (-2.0 * form.beta * form.centers).T  # -2 beta c_i, one column a branch
    blocks = range(0, k, step)
    return _join([_screened(points[lo : lo + step], form, cross, work) for lo in blocks])


def _join(blocks):
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _exact_rows(x, form: Form, values_only=False):
    """The exact kernel on every branch, in row blocks: (values, argmins,
    gaps), or (values,) with ``values_only``."""
    (k, n), m = x.shape, len(form.centers)
    step = max(1, EXACT_BLOCK // (m * n))
    work = np.empty(max(min(k, step), 1) * m * n)
    blocks = range(0, max(k, 1), step)
    return _join([_exact(x[lo : lo + step], _rows(form, lo, step), work, values_only) for lo in blocks])


def _rows(form: Form, lo, step):
    """``form`` on the rows lo : lo + step of its batch: a :func:`_per_row`
    Form's fields are sliced with them, any other Form serves every row."""
    if not _per_row(form):
        return form
    rows = slice(lo, lo + step)
    beta, scale = (f[rows] if isinstance(f, np.ndarray) else f for f in (form.beta, form.scale))
    return replace(form, beta=beta, scale=scale, offsets=form.offsets[rows])


def _exact(x, form: Form, work, values_only):
    # Branch-major pairs keep each branch's points contiguous.
    m = len(form.centers)
    out = work[: m * x.size].reshape(m, *x.shape)
    matrix = branch_formula(form, x[None], np.arange(m)[:, None], out)
    if values_only:
        return (matrix.min(axis=0),)
    return reduce_branch_matrix(np.ascontiguousarray(matrix.T))


def _screen_values(x, s: Form, cross, vals):
    """Fill ``vals`` with the (rows, m) screen values; return each row's band half-width."""
    n = x.shape[1]
    xx = np.einsum("ij,ij->i", x, x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.matmul(x, cross, out=vals)
        vals += xx[:, None]
        vals += (s.beta * s.beta) * s.sq
        # Forward bounds: |x|, |beta c_i| <= p and every computed |.|^2
        # within e2 of the true one (matrix product, norms, sums, underflow).
        p = np.sqrt(xx) + abs(s.beta) * np.sqrt(s.sq.max())
        e2 = (n + 8) * _U * (p * p) + (n + 1) * 2.0**-1000
        omax = float(np.abs(s.offsets).max())
        kind, shift = s.radial
        shift *= s.scale
        if kind == "norm":
            dmin = np.sqrt(np.maximum(vals.min(axis=1), 0.0))
            np.maximum(vals, 0.0, out=vals)
            np.sqrt(vals, out=vals)
            if shift:
                vals -= shift
                np.maximum(vals, 0.0, out=vals)
            spread = np.minimum(np.sqrt(e2), e2 / dmin) + (n + 10) * _U * (p + shift + omax)
        else:
            vals *= 0.5
            spread = e2 + (n + 10) * _U * (p * p + omax)
        if s.sign < 0:
            np.negative(vals, out=vals)
        vals += s.offsets
        # Both kernels' errors, with room to spare, plus underflow of the
        # exact kernel's scaled differences.
        bound = 2.0 * spread + (n + 1) * 2.0**-500 * (1.0 + s.scale)
        safe = (p < _HUGE) & (p / s.scale < _HUGE) & (omax < _HUGE * _HUGE) & np.isfinite(bound)
    return np.where(safe, bound, np.nan)


def _screened(x, s: Form, cross, work):
    (rows, n), m = x.shape, cross.shape[1]
    vals = work[: rows * m].reshape(rows, m)
    bound = _screen_values(x, s, cross, vals)
    r = np.arange(rows)
    best = vals.argmin(axis=1)
    lowest = vals[r, best]
    vals[r, best] = np.inf
    second = vals.min(axis=1)
    vals[r, best] = lowest
    mask = vals <= (second + 2.0 * bound)[:, None]
    mask[~np.isfinite(bound)] = True  # unsafe rows: every branch, exactly
    pair_rows, cols = np.divmod(np.flatnonzero(mask), m)
    # The screen values are spent: the workspace takes the candidates, as
    # many at a time as fit.
    exact_vals = np.empty(len(cols))
    chunk = len(work) // n
    for lo in range(0, len(cols), chunk):
        sel = slice(lo, lo + chunk)
        size = len(cols[sel])
        # The indices come from the mask, so "clip" never clips; unlike
        # "raise", it writes straight into ``out``.
        out = work[: size * n].reshape(size, n)
        candidates = np.take(x, pair_rows[sel], axis=0, out=out, mode="clip")
        exact_vals[sel] = branch_formula(s, candidates, cols[sel], candidates)
    # Segmented reduction over each row's candidates (rows are sorted).
    starts = np.searchsorted(pair_rows, r)
    low = np.minimum.reduceat(exact_vals, starts)
    index = np.arange(len(exact_vals))
    first = np.minimum.reduceat(np.where(exact_vals == low[pair_rows], index, len(index)), starts)
    first = np.minimum(first, len(index) - 1)  # NaN rows match nothing; redone below
    values = exact_vals[first]
    argmins = cols[first] + 1
    exact_vals[first] = np.inf
    runner = np.minimum.reduceat(exact_vals, starts)
    gaps = runner - values
    # NaN rows and ties at zero (whose sign the reduction order decides)
    # take the full-matrix reduction on every branch.
    redo = np.isnan(low) | ((values == 0.0) & (runner == 0.0))
    if redo.any():
        values[redo], argmins[redo], gaps[redo] = _exact_rows(x[redo], s)
    return values, argmins, gaps


# -- nets -------------------------------------------------------------------


class BranchNet:
    """m branches, each an activation of an affine map of (x, t), min-pooled.

    Holds the branch points c_i (their ``|c_i|^2`` cached) and offsets, and
    wires both paths: a single point runs every branch formula in one call
    and reduces it; a batch is checked once and reduced by
    :func:`min_over_branches`, or by the exact kernel when it has one time
    per row.  Subclasses give ``_form(t)``, their branches at time t as a
    :class:`Form` (raising ValueError for a time outside the
    representation), built afresh on every call so that it holds the
    activation's methods as they are at that call.  Given a 1-D array of
    positive times, ``_form`` returns the Form at each row's time
    (:func:`_per_row`).
    """

    def __init__(self, activation, points, offsets, points_name, fn_name):
        self._activation = activation
        self._points, self.offsets = check_branch_parameters(
            points, offsets, points_name, activation.dim, fn_name
        )
        self._sq = np.einsum("ij,ij->i", self._points, self._points)

    @property
    def dimension(self) -> int:
        return self._points.shape[1]

    @property
    def n_branches(self) -> int:
        return self._points.shape[0]

    def branch_values(self, x, t: float) -> np.ndarray:
        """All m branch values at one point."""
        return branch_formula(self._form(t), check_point(x, self.dimension))

    def _evaluate_point(self, x, t) -> EvalResult:
        """The single-point path: one call of the branch formula, reduced."""
        # branch_values inlined: one Python call less on the hottest path.
        return reduce_branches(branch_formula(self._form(t), check_point(x, self.dimension)))

    def _branch_matrix(self, points, t, values_only=False):
        """Row-wise (values, argmins, gaps), or (values,) with ``values_only``,
        over the branches at time t, or at one time per row (a 1-D t)."""
        if not isinstance(t, float) and np.ndim(t):
            return self._per_row_matrix(points, np.asarray(t, dtype=float), values_only)
        form = self._form(t)  # first: a bad time is reported before bad points
        points = check_points(points, self.dimension)
        return min_over_branches(points, form, values_only)

    def _per_row_matrix(self, points, t, values_only):
        """The exact kernel at the times t, one per row.

        Each row's value, argmin and gap are those of a call at its own
        time.  Rows at t = 0 are taken again on the Form at 0, whose
        activation may differ (the Lagrangian's recession).
        """
        if (t < 0).any():
            raise ValueError("t must be nonnegative")
        points = check_points(points, self.dimension)
        if t.shape != (len(points),):
            raise ValueError(f"t: need one time per row ({len(points)}), got shape {t.shape}")
        zero = t == 0  # held at t = 1 here, then redone
        result = _exact_rows(points, self._form(np.where(zero, 1.0, t)), values_only)
        if zero.any():
            for part, again in zip(result, _exact_rows(points[zero], self._form(0.0), values_only)):
                part[zero] = again
        return result

    def kink_margin(self, x, t: float, index: int) -> float:
        """Distance of branch ``index``'s (1-based) activation argument from
        the activation's kink set, at time t > 0."""
        if not t > 0:
            raise ValueError("t must be positive")
        form = self._form(t)
        z = _arguments(form, check_point(x, self.dimension), index - 1)
        return form.fn.smoothness_margin(z)

    def __repr__(self):
        return (
            f"{type(self).__name__}({self._activation!r}, m={self.n_branches}, "
            f"dim={self.dimension})"
        )
