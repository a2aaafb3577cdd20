"""Min-of-branches evaluation shared by both solution representations.

Both nets state their m branches at time t as a :class:`Form`; this module
owns the only exact branch formula (:func:`branch_formula`, which every path
calls with the Form), the screen built from the same Form and the winning
branch's kink margin.

A net's value at a point is the minimum over its m branches; the winning
branch (1-based, smallest index on ties) and the gap come with it.  The
gap is the runner-up's value less the winner's own, in every reduction.
Batches of k points are reduced in row blocks whose largest temporaries
stay at a few MiB (``EXACT_BLOCK``, ``SCREEN_BLOCK``), through one of two
kernels:

* **Exact.**  The branch formula on stacked (point, branch) difference
  arrays, one activation call per block.  It is the only kernel whose
  numbers are returned, and the only one with a values-only mode (the row
  minima alone, for ``LagrangianNet.initial_values``, which calls it
  directly).
* **Screen**, for radial activations (see ``ConvexFn.radial``).  Branch i
  at point x is ``sign * rho(|x - beta c_i|) + o_i``.  A block's screen
  values come from one matrix product: the block's rows, lifted to
  ``[a x, b, c |x|^2, w]``, against the net's lifted matrix, whose column
  i is ``[c_i; |c_i|^2; 1; d_i]`` with the net's offset parameter d_i
  (``o_i = w d_i``, w the Form's ``weight``; built once per net).  On
  "norm" forms the product is the squared distance ``|x - beta c_i|^2``,
  taken on through the square root, shift and offsets ``w d_i`` (formed
  once per block); on "square" forms it is the branch value itself.  Each row gets a forward rounding bound ``e`` on the
  distance between its screen values and the exact kernel's values.

  Let a row's three least screen values be ``s1 <= s2 <= s3`` (argmin and
  gather, three times), of branches i1, i2 and i3.  If ``s3 > s2 + 2 e``,
  every other branch j has exact value at least ``s_j - e >= s3 - e > s2
  + e``, which is above the exact values of both i1 and i2.  So the exact
  minimum, every branch tied with it and the exact runner-up lie in the
  pair (i1, i2), and the exact formula on that pair (the smaller value
  wins, the smaller index on a tie, and the gap is the other value less
  it) returns the value, argmin and gap of all m branches.  Every other
  row takes the exact kernel on all m branches: a row with a third branch
  in the band (three or more branches tied, or nearly), rows whose
  magnitudes could overflow or whose bound is not finite (so they raise
  the same errors), and rows whose pair gives a NaN, or a tie at zero
  whose gap's sign the reduction order decides.

The size of a batch picks the kernel: a batch whose (k, m, n)
differences reach ``SCREEN_MIN_ELEMENTS`` is screened, one row included;
a smaller one takes the exact kernel directly.  A Form with ``beta == 0``
(arch2 at t = 0) takes neither: its branches are J(x) up to signs of zero,
so one activation call on the rows settles every row whose J(x) is finite
and nonzero, and the others take the exact kernel (:func:`_at_time_zero`).
A batch with one time per row takes the exact kernel on a Form whose
``beta``, ``scale`` or ``weight`` hold one entry per row, and its rows at
t = 0 again as one batch.  A single point given to ``evaluate`` takes its
own path (:meth:`BranchNet._evaluate_point`) below ``SCREEN_MIN_ELEMENTS``
(m, n) differences, and is a one-row batch from there on.  Either way it
returns the bits of its one-row batch: :func:`reduce_branches` and
:func:`reduce_branch_matrix` take the same gap, so a tie at zero keeps
its sign and a row holding NaN gives a NaN gap in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = ["BranchNet", "EvalResult", "reduce_branches", "reduce_branch_matrix"]

# Row blocks hold at most this many float64 elements: (rows, m, n) stacked
# differences on the exact kernel (512 KiB), and (rows, m) screen values
# plus (rows, n + 3) lifted rows on the screen (1 MiB).
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
    """Collapse a vector of branch values into an :class:`EvalResult`: row 0
    of :func:`reduce_branch_matrix` on ``values[None]``, bit for bit."""
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
    1-based with the smallest index winning ties.  A gap is the runner-up
    (the partition's second entry) less the winner's own value, as in
    :func:`reduce_branches`: the partition's first entry may be a zero of
    the other sign, or a number where the winner is NaN.
    """
    matrix = np.asarray(matrix, dtype=float)
    best = matrix.argmin(axis=1)
    values = matrix[np.arange(matrix.shape[0]), best]
    if matrix.shape[1] == 1:
        gaps = np.full(matrix.shape[0], np.inf)
    else:
        gaps = np.partition(matrix, 1, axis=1)[:, 1] - values
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
    ``centers`` (c_i) and offset parameters ``offsets`` (d_i: a_i on arch1,
    b_i on arch2), whose branch offsets are o_i = ``weight * offsets_i``
    (weight 1 on arch1, t on arch2).

    Branch i at x is ``scale * fn((x - beta c_i) / scale) + o_i``.  Where
    ``radial`` = (kind, s) is not None, the same branch is ``sign * scale *
    rho(|x - beta c_i| / scale) + o_i`` with ``rho(r) = r^2 / 2`` for
    "square" (scale 1) and ``max(r - s, 0)`` for "norm"; the screen uses
    that form.  ``lifted`` is the net's (n + 3, m) matrix whose column i is
    ``[c_i; |c_i|^2; 1; d_i]``.

    At one time per row of a batch of k points, ``beta``, ``scale`` or
    ``weight`` is a length-k array where it varies with t (1.0 where it does
    not): row r's entries are those of the Form at row r's time.  Only the
    exact kernel takes such a Form; it is never screened.  Its time is one
    that ``BranchNet._form`` accepted, so no kernel checks it again.
    """

    fn: object
    radial: tuple[str, float] | None
    sign: float
    beta: float | np.ndarray
    scale: float | np.ndarray
    centers: np.ndarray
    lifted: np.ndarray
    weight: float | np.ndarray
    offsets: np.ndarray


def _arguments(form: Form, x, cols=None, out=None):
    """The activation arguments (x - beta c_i) / scale for the branches ``cols``
    (all when None), written into ``out`` if given.

    An array ``beta`` or ``scale`` holds one entry per row of x (its
    second-to-last axis).  Products and quotients by 1.0 are exact, so the
    scalar skips change no bit.
    """
    centers = form.centers if cols is None else form.centers[cols]
    if type(form.beta) is np.ndarray:
        centers = form.beta[..., None] * centers
    elif form.beta != 1.0:
        centers = form.beta * centers
    # In place: the differences are ``out`` or a fresh array, and a block's
    # workspace then holds one array of them.
    diff = np.subtract(x, centers, out=out)
    if type(form.scale) is np.ndarray:
        return np.divide(diff, form.scale[..., None], out=diff)
    return diff if form.scale == 1.0 else np.divide(diff, form.scale, out=diff)


def branch_formula(form: Form, x, cols=None, out=None):
    """Exact ``scale * fn((x - beta c_i) / scale) + weight * d_i``.

    ``x`` is broadcast against the branch rows ``cols`` (all when None), an
    index array over x's leading axes; ``out`` is free to take the
    differences.  A Form at one time per row needs ``cols``, and its rows
    lie on x's second-to-last axis.
    """
    z = _arguments(form, x, cols, out)
    vals = form.fn(z if z.ndim == 2 else z.reshape(-1, z.shape[-1]))
    if z.ndim != 2:
        vals = vals.reshape(z.shape[:-1])
    if type(form.scale) is np.ndarray or form.scale != 1.0:
        vals = form.scale * vals
    offsets = form.offsets if cols is None else form.offsets[cols]
    if type(form.weight) is np.ndarray or form.weight != 1.0:
        offsets = form.weight * offsets
    return vals + offsets


def min_over_branches(points, form: Form):
    """Row-wise (values, argmins, gaps) of the (k, m) branch matrix of
    ``form``.

    ``points`` is a checked (k, n) array and ``form`` has one time.  A Form
    with ``beta == 0`` (arch2 at t = 0) calls the activation once per row
    (:func:`_at_time_zero`); its other rows take the exact kernel.  Both
    kernels take their exact values from :func:`branch_formula` on ``form``.
    Radial forms from ``SCREEN_MIN_ELEMENTS`` differences on take the
    screened kernel.
    """
    (k, n), m = points.shape, len(form.centers)
    if form.beta == 0:
        return _retake(*_at_time_zero(points, form), _exact_rows, points, form)
    if form.radial is None or m == 1 or k * m * n < SCREEN_MIN_ELEMENTS:
        return _exact_rows(points, form)
    # A block's row holds m screen values and n + 3 lifted entries, and then,
    # once those are spent, 2 n pair differences.
    width = max(m + n + 3, 2 * n)
    step = max(1, SCREEN_BLOCK // width)
    # Blocks write their largest arrays into one workspace, so they reuse
    # memory instead of each taking (and faulting in) fresh pages.
    work = np.empty(min(k, step) * width)
    return _join([_screened(points[lo : lo + step], form, work) for lo in range(0, k, step)])


def _at_time_zero(x, form: Form):
    """Row-wise results on a Form with ``beta == 0`` from one activation call
    j = J(x), and the mask of the rows the exact kernel must take instead.

    Branch i is J(x - 0 c_i) + 0 d_i.  Its argument differs from x only in
    the sign of zero coordinates, which moves J at most in the sign of a
    zero value, and j + ±0 = j for j nonzero.  So where j is finite and
    nonzero every branch is j bit for bit: the first wins, with gap +0.0
    (+inf for one branch).  The masked rows, where j is zero or not finite,
    keep the exact kernel's signs of zero and NaN gaps.
    """
    j = form.fn(x)
    result = (j, np.ones(len(x), dtype=np.intp), np.full(len(x), np.inf if len(form.centers) == 1 else 0.0))
    return result, ~np.isfinite(j) | (j == 0.0)


def _retake(result, rows, kernel, x, *args):
    """``result`` with its parts on the boolean ``rows`` of x taken again
    from ``kernel(x[rows], *args)``, which gives the same parts."""
    if rows.any():
        for part, again in zip(result, kernel(x[rows], *args)):
            part[rows] = again
    return result


def _join(blocks):
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _exact_rows(x, form: Form, values_only=False):
    """The exact kernel on every branch, in row blocks: (values, argmins,
    gaps), or (values,) with ``values_only`` (the Lagrangian's oracle
    integrand, ``LagrangianNet.initial_values``)."""
    (k, n), m = x.shape, len(form.centers)
    step = max(1, EXACT_BLOCK // (m * n))
    work = np.empty(max(min(k, step), 1) * m * n)
    if k <= step:  # one block, which every field of the Form fits as it is
        return _exact(x, form, work, values_only)
    blocks = [slice(lo, lo + step) for lo in range(0, k, step)]
    return _join([_exact(x[rows], _rows(form, rows), work, values_only) for rows in blocks])


def _rows(form: Form, rows: slice) -> Form:
    """``form`` on the ``rows`` of its batch: the fields that hold one entry
    per row are sliced with them."""
    beta, scale, weight = (f[rows] if np.ndim(f) else f for f in (form.beta, form.scale, form.weight))
    return replace(form, beta=beta, scale=scale, weight=weight)


def _exact(x, form: Form, work, values_only):
    # Branch-major pairs keep each branch's points contiguous.
    m = len(form.centers)
    out = work[: m * x.size].reshape(m, *x.shape)
    matrix = branch_formula(form, x[None], np.arange(m)[:, None], out)
    if values_only:
        return (matrix.min(axis=0),)
    return reduce_branch_matrix(np.ascontiguousarray(matrix.T))


def _screen_values(x, s: Form, work):
    """The (rows, m) screen values, written into ``work``, and each row's
    band half-width ``e`` (NaN on the rows the screen cannot bound)."""
    (rows, n), m = x.shape, s.lifted.shape[1]
    vals = work[: rows * m].reshape(rows, m)
    lift = work[rows * m : rows * (m + n + 3)].reshape(rows, n + 3)
    xx = np.einsum("ij,ij->i", x, x)
    kind, shift = s.radial
    beta = s.beta
    offsets = s.offsets if s.weight == 1.0 else s.weight * s.offsets
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Row [-2 c beta x, c beta^2, c |x|^2, w] against column [c_i;
        # |c_i|^2; 1; d_i] gives c |x - beta c_i|^2 + w d_i: the squared
        # distance on "norm" forms, the branch value on "square" forms.
        c, w = (1.0, 0.0) if kind == "norm" else (0.5 * s.sign, s.weight)
        np.multiply(x, -2.0 * c * beta, out=lift[:, :n])
        np.multiply(xx, c, out=lift[:, n + 1])
        lift[:, n::2] = c * beta * beta, w
        np.matmul(lift, s.lifted, out=vals)
        # Forward bounds: |x|, |beta c_i| <= p and every computed |.|^2
        # within e2 of the true one (lifted rows, matrix product, norms,
        # and underflow of each, scaled by the |c_i| or beta it meets).
        sq = float(s.lifted[n].max())
        p = np.sqrt(xx) + abs(beta) * np.sqrt(sq)
        e2 = (n + 8) * _U * (p * p) + (n + 3) * 2.0**-1000 * (1.0 + sq + beta * beta)
        omax = float(np.abs(offsets).max())
        shift *= s.scale
        if kind == "norm":
            dmin = np.sqrt(np.maximum(vals[np.arange(rows), vals.argmin(axis=1)], 0.0))
            # max(d - shift, 0) as fmax(d, shift) - shift: fmax also takes
            # shift where rounding left the squared distance negative.
            np.sqrt(vals, out=vals)
            np.fmax(vals, shift, out=vals)
            if s.sign < 0:
                np.subtract(offsets + shift, vals, out=vals)
            else:
                vals += offsets - shift
            spread = np.minimum(np.sqrt(e2), e2 / dmin) + (n + 10) * _U * (p + shift + omax)
        else:
            spread = e2 + (n + 10) * _U * (p * p + omax)
        # Both kernels' errors, with room to spare, plus underflow of the
        # exact kernel's scaled differences.
        bound = 2.0 * spread + (n + 1) * 2.0**-500 * (1.0 + s.scale)
        safe = (p < _HUGE) & (p / s.scale < _HUGE) & (omax < _HUGE * _HUGE) & np.isfinite(bound)
    return vals, np.where(safe, bound, np.nan)


def _screened(x, s: Form, work):
    vals, bound = _screen_values(x, s, work)
    r = np.arange(len(x))
    # The row's three least screen values, by argmin and gather.
    best = vals.argmin(axis=1)
    vals[r, best] = np.inf
    second = vals.argmin(axis=1)
    band = vals[r, second] + 2.0 * bound
    vals[r, second] = np.inf
    third = vals[r, vals.argmin(axis=1)]
    # Rows whose third value clears the band (never an unsafe or NaN row)
    # are settled by their first two branches.
    keep = third > band
    rows = slice(None) if keep.all() else keep
    cols = np.stack((best, second))
    xs = x[rows]
    # The screen values are spent: the workspace takes the pair's
    # differences.  The other rows hold NaN, and so take the redo below.
    exact = np.full((2, len(x)), np.nan)
    exact[:, rows] = branch_formula(s, xs, cols[:, rows], work[: 2 * xs.size].reshape(2, *xs.shape))
    first, other = exact
    swap = (other < first) | ((other == first) & (cols[1] < cols[0]))
    values = np.where(swap, other, first)
    runner = np.where(swap, first, other)
    argmins = np.where(swap, cols[1], cols[0]) + 1
    gaps = runner - values
    # NaN rows and ties at zero (whose sign the reduction order decides)
    # take the full-matrix reduction on every branch.
    redo = np.isnan(gaps) | ((values == 0.0) & (runner == 0.0))
    return _retake((values, argmins, gaps), redo, _exact_rows, x, s)


# -- nets -------------------------------------------------------------------


class BranchNet:
    """m branches, each an activation of an affine map of (x, t), min-pooled.

    Holds read-only copies of the branch points c_i and offset parameters
    d_i, so that later writes to the caller's arrays never reach the net,
    lifted once for the screen (``Form.lifted``).  It is both nets'
    evaluation surface: :meth:`evaluate` (the single-point path, which runs
    every branch formula in one call and reduces it, unless the point is
    large enough to be screened as a one-row batch) and ``solution_grid``
    and ``evaluate_grid``, both names of :meth:`_branch_matrix` (a batch,
    checked once and reduced by :func:`min_over_branches`, or by the exact
    kernel when it has one time per row).  A point's result is its one-row
    batch's row, bit for bit.  A subclass adds only names and refusals; one
    that refuses some times calls ``_evaluate_point`` or ``_branch_matrix``,
    the bodies behind those names.

    ``_form(t)`` is the one check of a time: it refuses a negative or NaN
    t, one time or one per row, before any point is looked at (t = inf
    passes).  Subclasses give ``_branches(t)``, which checks nothing: their
    branches at an accepted time t as a :class:`Form` with ``offsets`` =
    d_i, built afresh on every call so that it holds the activation's
    methods as they are at that call.  Given a 1-D array of times (none of
    them 0), ``_branches`` returns the Form at each row's time, its
    t-dependent fields one entry per row; a 0-d array is one time.
    """

    def __init__(self, activation, points, offsets, points_name, fn_name):
        self._activation = activation
        points, offsets = check_branch_parameters(points, offsets, points_name, activation.dim, fn_name)
        self._points, self.offsets = points.copy(), offsets.copy()
        self._points.flags.writeable = self.offsets.flags.writeable = False

    @cached_property
    def _lifted(self):
        """``Form.lifted``, built on the net's first evaluation: a net that is
        only constructed (and certified) never pays for it."""
        c = self._points
        return np.vstack([c.T, np.einsum("ij,ij->i", c, c), np.ones(len(c)), self.offsets])

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
        """Solution value at one point at time t >= 0, with its winning
        branch and gap: bit for bit the row of a one-row :meth:`solution_grid`.

        One call of the branch formula, reduced; from ``SCREEN_MIN_ELEMENTS``
        (m, n) differences on, a one-row batch.  At ``beta == 0`` one
        activation call, on the (1, n) row that :func:`_at_time_zero` takes,
        settles the point unless J(x) is zero or not finite."""
        form, x = self._form(t), check_point(x, self.dimension)
        if form.beta == 0:
            j = form.fn(x)
            if j != 0.0 and math.isfinite(j):
                return EvalResult(j, 1, math.inf if len(form.centers) == 1 else 0.0)
        if x.size * len(form.centers) < SCREEN_MIN_ELEMENTS:
            return reduce_branches(branch_formula(form, x))
        return EvalResult(*(part.item() for part in min_over_branches(x[None], form)))

    evaluate = _evaluate_point

    def _form(self, t) -> Form:
        """The branches at time t, or at one time per row (a 1-D array t):
        the one check of a time, then ``_branches(t)``.  A negative or NaN
        time is refused, at any row."""
        if not (t >= 0).all() if type(t) is np.ndarray and t.ndim else not t >= 0:
            raise ValueError("t must be nonnegative" if np.any(t < 0) else "t must be a number, got nan")
        return self._branches(t)

    def _branch_matrix(self, points, t):
        """Vectorized :meth:`evaluate` over (k, n) row points, at one time or
        one per row (a length-k array): (values, argmins, gaps).

        One time per row takes the exact kernel, and each row's value,
        argmin and gap are those of a call at its own time.  Rows at t = 0
        are held at t = 1, then taken again as one batch on the Form at 0,
        whose activation may differ (the Lagrangian's recession) and whose
        arch2 rows take one activation call each (:func:`_at_time_zero`).
        """
        if isinstance(t, float) or not np.ndim(t):
            form = self._form(t)  # first: a bad time is reported before bad points
            return min_over_branches(check_points(points, self.dimension), form)
        t = np.asarray(t, dtype=float)
        zero = t == 0
        form = self._form(np.where(zero, 1.0, t))
        points = check_points(points, self.dimension)
        if t.shape != (len(points),):
            raise ValueError(f"t: need one time per row ({len(points)}), got shape {t.shape}")
        return _retake(_exact_rows(points, form), zero, min_over_branches, points, self._form(0.0))

    solution_grid = evaluate_grid = _branch_matrix

    def kink_margin(self, x, t: float, index: int) -> float:
        """Distance of branch ``index``'s (1-based, 1..m) activation argument
        from the activation's kink set, at time t > 0."""
        if not t > 0:
            raise ValueError("t must be positive")
        if not 1 <= index <= self.n_branches:
            raise ValueError(f"index must be a branch in 1..{self.n_branches}, got {index}")
        form = self._form(t)
        z = _arguments(form, check_point(x, self.dimension), index - 1)
        return form.fn.smoothness_margin(z)

    def __repr__(self):
        return (
            f"{type(self).__name__}({self._activation!r}, m={self.n_branches}, "
            f"dim={self.dimension})"
        )
