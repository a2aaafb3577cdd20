"""Desk-scale ground truth for the grid-free evaluators.

``lax_oleinik_bruteforce`` minimizes the variational integrand
J(u) + t H*((x - u)/t) over a dense u-grid centered at the query point.  It
is a restricted minimum, hence always an upper bound on the true infimum,
and converges to it as the grid refines.  Because the net evaluators compute
the exact infimum, oracle - evaluator is nonnegative up to rounding, and
small oracle gaps certify the representation.

``hj_residual`` checks the equation ∂_t S + H(∇_x S) = 0 pointwise with
central differences, at one point or at many stacked points, whose
stencil rows (each at its own time) take one batch evaluation.  Viscosity
solutions are nonsmooth, so residuals are asserted only at screened
points: winning-branch gap above a threshold and activation arguments
away from the activation's kink set.

``verify_report`` draws seeded samples and keeps one row per sample in a
structured array (:class:`VerifyReport`): the point ``x`` and time ``t``,
the ``oracle_gap`` |oracle - net| and the ``residual`` (each NaN where it
is not taken) and whether the sample passed ``screened``.  It chooses the
net's oracle once, before the sample loop, screens and runs the oracle
sample by sample, and takes the residuals of each chunk of samples in one
:func:`hj_residual` call whose stencil holds at most
:data:`~hjeval.numeric.GRID_BLOCK` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import ensure_extended
from .initialdata import InitialDataNet
from .lagrangian import LagrangianNet
from .numeric import GRID_BLOCK, MAX_GRID_DIM, MAX_GRID_POINTS, box_grid, finite_minimum, grid_inf_convolution

__all__ = [
    "ORACLE_TOL",
    "MAX_ORACLE_LPS",
    "RESIDUAL_TOL",
    "FD_STEP",
    "GAP_THRESHOLD",
    "MARGIN_THRESHOLD",
    "OracleConfig",
    "OracleDomainError",
    "lax_oleinik_bruteforce",
    "lax_oleinik_bruteforce_velocity",
    "velocity_grid",
    "gradient_fd",
    "hj_residual",
    "hstar_interpolator_1d",
    "screen_point",
    "sample_screened_points",
    "VerifyReport",
    "verify_report",
]

# Module tolerances for the verification report, and the step of its
# central differences.
ORACLE_TOL = 2e-3
RESIDUAL_TOL = 1e-3
FD_STEP = 1e-4

# Residual screening thresholds: minimum winning-branch gap, and minimum
# distance of the active activation argument from the activation's kink set.
# Chosen so that a central-difference stencil of step 1e-4 never straddles a
# branch switch or a kink.
GAP_THRESHOLD = 0.1
MARGIN_THRESHOLD = 0.05

# Largest velocity grid, in nodes, of the oracle for n >= 2 nets: it solves
# one simplex LP per node, stacked (2-D at pts_per_axis 499 took 0.9-1.1 s
# on one core, 3-D at 61 took 1.0-1.1 s, with a tracemalloc peak under
# 16 MiB); 2-D admits pts_per_axis up to 499, 3-D up to 61.
MAX_ORACLE_LPS = 250_000

# Sampling boxes for the verification report (per module invariants), and
# the halfwidth of the position-form oracle's u-grid around each sample.
SAMPLE_X_HALFWIDTH = 4.0
SEARCH_HALFWIDTH = 20.0
T_RANGE_LAGRANGIAN = (0.1, 3.0)
T_RANGE_INITIALDATA = (0.0, 3.0)


@dataclass(frozen=True)
class OracleConfig:
    """Grid settings for the oracle.

    ``pts_per_axis`` must be odd so the grid contains its center; grids are
    refused above ``MAX_GRID_DIM`` (3) dimensions at the call sites.
    """

    pts_per_axis: int

    def __post_init__(self):
        if self.pts_per_axis < 3 or self.pts_per_axis % 2 == 0:
            raise ValueError("pts_per_axis must be odd and at least 3")


class OracleDomainError(RuntimeError):
    """Every grid term was +inf: the search box misses x - t·dom H*."""


def lax_oleinik_bruteforce(initial_eval, hstar_eval, x, t: float, cfg: OracleConfig) -> float:
    """Brute-force variational minimum min_u { J(u) + t H*((x - u)/t) }.

    ``initial_eval`` and ``hstar_eval`` take (k, n) row points and return
    length-k arrays (values in R ∪ {+inf}); +inf terms are skipped.  The
    u-grid is centered at x with halfwidth :data:`SEARCH_HALFWIDTH`: this
    is :func:`~hjeval.numeric.grid_inf_convolution` of J and t H*(·/t).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    value = grid_inf_convolution(
        initial_eval,
        lambda z: t * hstar_eval(z / t),
        x,
        SEARCH_HALFWIDTH,
        cfg.pts_per_axis,
    )
    if value == np.inf:
        raise OracleDomainError(
            "all grid terms are +inf: the search box does not intersect x - t·dom H*"
        )
    return value


def velocity_grid(hstar_eval, box_lo, box_hi, pts_per_axis: int):
    """The velocity-form oracle's fixed part: the v-grid on the box [box_lo,
    box_hi] per axis and H*(v) on it, as (v, H*(v)).

    Neither depends on (x, t), so one grid serves every query.  The grid
    has the caps of :func:`~hjeval.numeric.box_grid`.
    """
    v = box_grid(box_lo, box_hi, pts_per_axis)
    return v, ensure_extended(hstar_eval(v))


def lax_oleinik_bruteforce_velocity(
    initial_eval, hstar_eval, x, t: float, box_lo, box_hi, pts_per_axis: int, *, grid=None
) -> float:
    """Velocity-form variational minimum min_v { J(x - t v) + t H*(v) }.

    The v-grid spans the fixed box [box_lo, box_hi] per axis, normally the
    hull box of the branch velocities (the conjugate's domain).  The
    candidate minimizing velocities, the branch rows, are grid nodes only
    when every row lies on that box's grid, as the rows of every shipped
    config and benchmark net do; otherwise the grid minimum is an upper
    bound within O(h) of the minimum, h the grid step.  t = 0 is allowed
    and reduces every term to J(x).  Complements :func:`lax_oleinik_bruteforce`
    for nets whose conjugate Hamiltonian has a small bounded domain.
    ``grid`` is the :func:`velocity_grid` of the same box and ``hstar_eval``,
    built here when not given.  The least term is taken over the whole
    grid; only when it is not finite are the J values checked with
    :func:`~hjeval.catalog.ensure_extended` and the finite minimum taken
    instead, which skips the NaN terms 0 · inf that t = 0 leaves where H*
    is +inf.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = np.asarray(x, dtype=float).reshape(-1)
    if grid is None:
        lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), x.shape) for b in (box_lo, box_hi))
        grid = velocity_grid(hstar_eval, lo, hi, pts_per_axis)
    v, hstar_v = grid
    j = initial_eval(x - t * v)
    with np.errstate(invalid="ignore"):  # t = 0 makes 0 * inf = NaN off dom H*
        vals = t * hstar_v
        vals += j
    value = float(vals.min())
    # Not finite: a NaN or -inf J, every term +inf, or NaN terms at t = 0
    # where H* is +inf (0 * inf), which the finite minimum skips.
    if not np.isfinite(value):
        ensure_extended(j)
        value = finite_minimum(vals)
    if value == np.inf:
        raise OracleDomainError("all grid terms are +inf: the box misses dom H*")
    return value


def gradient_fd(solution_eval, x, t, h: float):
    """Central-difference gradient of S(x, t): returns (dS/dt, ∇_x S).

    ``x`` is one point and ``t`` one time, giving a float and a length-n
    array; or ``x`` stacks S points as (S, n) rows and ``t`` holds their S
    times, giving arrays of shapes (S,) and (S, n).  Requires t - h > 0.
    ``solution_eval`` maps ((k, n) row points, k times) to k values.  It is
    called once, on every sample's 2n + 2 stencil rows: x + h e_1, ...,
    x + h e_n, x - h e_1, ..., x - h e_n at t, then x at t + h and at t - h.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    times = np.asarray(t, dtype=float)
    if (times - h <= 0).any():
        raise ValueError("need t - h > 0 for the centered time difference")
    single = times.ndim == 0
    times = times.reshape(-1)
    x = np.asarray(x, dtype=float).reshape(len(times), 1, -1)
    n = x.shape[-1]
    steps = h * np.eye(n)
    rows = np.concatenate([x + steps, x - steps, x, x], axis=1).reshape(-1, n)
    row_times = np.column_stack([np.repeat(times[:, None], 2 * n, axis=1), times + h, times - h])
    values = solution_eval(rows, row_times.reshape(-1)).reshape(len(times), 2 * n + 2)
    dx = (values[:, :n] - values[:, n : 2 * n]) / (2 * h)
    dt = (values[:, -2] - values[:, -1]) / (2 * h)
    return (float(dt[0]), dx[0]) if single else (dt, dx)


def hj_residual(solution_eval, hamiltonian_eval, x, t, h: float):
    """|∂_t S + H(∇_x S)| by central differences.

    ``x`` and ``t`` are one point and time, giving a float, or S stacked
    points and their times, giving a length-S array; ``solution_eval`` is
    a batch evaluator at one time per row, as in :func:`gradient_fd`, and
    ``hamiltonian_eval`` is called once, on every sample's gradient.
    Returns +inf where H(∇_x S) = +inf, i.e. the numerical gradient left the
    Hamiltonian's domain; at unscreened points that flags a kink, not a bug.
    """
    dt, dx = gradient_fd(solution_eval, x, t, h)
    h_val = hamiltonian_eval(np.atleast_2d(dx))
    residual = np.where(np.isinf(h_val), np.inf, np.abs(dt + h_val))
    return float(residual[0]) if isinstance(dt, float) else residual


def hstar_interpolator_1d(net: InitialDataNet):
    """Exact vectorized conjugate-Hamiltonian evaluator for a 1-D net.

    The conjugate of a max-affine Hamiltonian is piecewise linear with all
    kinks among the branch velocities, so interpolating the simplex-LP
    values at those nodes reproduces it exactly on the hull and +inf
    outside.  Cross-checked against per-point LP solves in the test suite.
    """
    if net.dimension != 1:
        raise ValueError("interpolator only applies to one-dimensional nets")
    nodes = np.unique(net.rows[:, 0])
    values = net.hamiltonian_conjugate(nodes[:, None])
    lo, hi = nodes[0], nodes[-1]

    def hstar(points):
        v = np.atleast_2d(np.asarray(points, dtype=float))[:, 0]
        out = np.interp(v, nodes, values)
        return np.where((v >= lo) & (v <= hi), out, np.inf)

    return hstar


def screen_point(net, x, t: float):
    """Decide whether (x, t) is safe for a pointwise residual assertion.

    Requires a winning-branch gap above ``GAP_THRESHOLD``, an activation
    argument at least ``MARGIN_THRESHOLD`` from the activation's kink set,
    and room for the centered time stencil of step ``FD_STEP``.  Returns
    (accepted, EvalResult).
    """
    result = net.evaluate(x, t)
    if t <= 2 * FD_STEP:
        return False, result
    if not result.gap > GAP_THRESHOLD:
        return False, result
    if not net.kink_margin(x, t, result.argmin_index) > MARGIN_THRESHOLD:
        return False, result
    return True, result


def _t_range(net):
    return T_RANGE_LAGRANGIAN if isinstance(net, LagrangianNet) else T_RANGE_INITIALDATA


def _draws(net, seed: int):
    """Seeded endless stream of sample points (x, t): x ~ U[-4, 4]^n, then
    t uniform over the net's time range."""
    rng = np.random.default_rng(seed)
    t_lo, t_hi = _t_range(net)
    while True:
        x = rng.uniform(-SAMPLE_X_HALFWIDTH, SAMPLE_X_HALFWIDTH, net.dimension)
        yield x, float(rng.uniform(t_lo, t_hi))


def _hstar_eval(net: InitialDataNet):
    """H* evaluator of an InitialDataNet for the velocity-form oracle."""
    if net.dimension == 1:
        return hstar_interpolator_1d(net)
    return net.hamiltonian_conjugate  # one stacked simplex solve of the (k, n) points


def _oracle(net, cfg: OracleConfig):
    """The brute-force oracle for ``net`` as (x, t) -> value.

    A LagrangianNet gets the position form, whose H* is L itself (H = L*,
    and L is closed).  An InitialDataNet gets the velocity form on the hull
    box of its branch velocities, the conjugate's domain.  The candidate
    minimizing velocities, the branch rows, are grid nodes only when every
    row lies on that box's grid, as the rows of every shipped config and
    benchmark net do; otherwise the grid minimum is an O(h) upper bound, and
    ``verify`` can report FAIL on a correct 2-D or 3-D net.  Neither that
    grid nor H* on it depends on the sample: both are built here, once.
    """
    initial_eval = net.initial_values
    if isinstance(net, LagrangianNet):
        return lambda x, t: lax_oleinik_bruteforce(initial_eval, net.lagrangian, x, t, cfg)
    hull_lo, hull_hi = net.rows.min(axis=0), net.rows.max(axis=0)
    pts, n = cfg.pts_per_axis, net.dimension
    # For n >= 2, H* is one simplex LP per node.  Grids above the point cap
    # are left to box_grid, which refuses them first.
    if n > 1 and MAX_ORACLE_LPS < pts**n <= MAX_GRID_POINTS:
        raise ValueError(
            f"velocity grid of {pts}^{n} nodes needs one simplex LP each, "
            f"above the {MAX_ORACLE_LPS} LP budget; reduce pts_per_axis"
        )
    hstar_eval = _hstar_eval(net)
    grid = velocity_grid(hstar_eval, hull_lo, hull_hi, pts)
    return lambda x, t: lax_oleinik_bruteforce_velocity(
        initial_eval, hstar_eval, x, t, hull_lo, hull_hi, pts, grid=grid
    )


def sample_screened_points(net, count: int, seed: int):
    """Seeded rejection sampler yielding exactly ``count`` screened points."""
    accepted = []
    for attempts, (x, t) in enumerate(_draws(net, seed)):
        if len(accepted) == count:
            return accepted
        if attempts > 1000 * max(count, 1):
            raise RuntimeError("rejection sampling stalled; screening too strict for this net")
        if screen_point(net, x, t)[0]:
            accepted.append((x, t))


def _max_mean(values):
    return (float(values.max()), float(np.mean(values))) if values.size else (0.0, 0.0)


@dataclass
class VerifyReport:
    """Seeded verification run: oracle gaps plus screened PDE residuals.

    ``records`` is a structured array with one row per sample and the
    columns ``x`` (the point, shape (n,)), ``t``, ``oracle_gap`` (NaN when
    the oracle is skipped), ``residual`` (NaN when t <= 2 ``FD_STEP`` leaves
    no room for the time stencil) and ``screened``.  The summary fields are
    computed from the columns once, when the report is built: gaps over the
    non-NaN ``oracle_gap``, residuals over the screened samples.
    """

    label: str
    seed: int
    oracle_checked: bool
    records: np.ndarray
    max_oracle_gap: float = field(init=False)
    mean_oracle_gap: float = field(init=False)
    screened_count: int = field(init=False)
    max_residual: float = field(init=False)
    mean_residual: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        gaps = self.records["oracle_gap"]
        gaps = gaps[~np.isnan(gaps)]
        res = self.records["residual"]
        res = res[self.records["screened"] & ~np.isnan(res)]
        self.max_oracle_gap, self.mean_oracle_gap = _max_mean(gaps)
        self.screened_count = res.size
        self.max_residual, self.mean_residual = _max_mean(res)
        self.passed = (
            not self.oracle_checked or self.max_oracle_gap <= ORACLE_TOL
        ) and self.max_residual <= RESIDUAL_TOL

    @property
    def samples(self) -> int:
        return len(self.records)

    @property
    def dimension(self) -> int:
        return self.records["x"].shape[1]

    def to_kv(self) -> str:
        """Machine-readable serialization: one metric=value per line."""
        items = [
            ("label", self.label),
            ("dimension", self.dimension),
            ("samples", self.samples),
            ("seed", self.seed),
            ("oracle_checked", str(self.oracle_checked).lower()),
            ("max_oracle_gap", repr(self.max_oracle_gap)),
            ("mean_oracle_gap", repr(self.mean_oracle_gap)),
            ("oracle_tolerance", repr(ORACLE_TOL)),
            ("screened_points", self.screened_count),
            ("max_residual", repr(self.max_residual)),
            ("mean_residual", repr(self.mean_residual)),
            ("residual_tolerance", repr(RESIDUAL_TOL)),
            ("passed", str(self.passed).lower()),
        ]
        return "".join(f"{k}={v}\n" for k, v in items)

    def to_text(self) -> str:
        lines = [
            f"verification report: {self.label} (dimension {self.dimension})",
            f"  samples={self.samples} seed={self.seed}",
        ]
        if self.oracle_checked:
            lines.append(
                f"  oracle gap: max={self.max_oracle_gap:.3e} "
                f"mean={self.mean_oracle_gap:.3e} (tolerance {ORACLE_TOL:g})"
            )
        else:
            lines.append("  oracle gap: skipped")
        lines.append(
            f"  residual at {self.screened_count} screened points: "
            f"max={self.max_residual:.3e} mean={self.mean_residual:.3e} "
            f"(tolerance {RESIDUAL_TOL:g})"
        )
        lines.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def verify_report(
    net,
    samples: int,
    seed: int,
    cfg: OracleConfig,
    *,
    residual_only: bool = False,
    label: str | None = None,
) -> VerifyReport:
    """Seeded verification of a net against the oracle and the PDE.

    Draws ``samples`` points x ~ U[-4, 4]^n with t uniform over the net's
    time range, and records per sample the brute-force oracle gap and the
    centered-difference residual (asserted into pass/fail only where the
    sample passes screening).  Oracle comparison needs n <= ``MAX_GRID_DIM``
    (3), the largest grid that ``box_grid_blocks`` builds; pass
    ``residual_only=True`` to skip it in higher dimension.  Negative
    ``samples`` or ``seed`` is refused; zero samples give an empty report
    that passes, and build no oracle.
    """
    if samples < 0:
        raise ValueError(f"samples: must be nonnegative, got {samples}")
    if seed < 0:
        raise ValueError(f"seed: must be nonnegative, got {seed}")
    if not residual_only and net.dimension > MAX_GRID_DIM:
        raise ValueError(
            f"oracle comparison is refused above {MAX_GRID_DIM} dimensions; "
            "use residual_only=True for high-dimensional nets"
        )
    if label is None:
        label = "lagrangian" if isinstance(net, LagrangianNet) else "initial-data"
    columns = [("x", float, (net.dimension,)), ("t", float)]
    columns += [("oracle_gap", float), ("residual", float), ("screened", bool)]
    records = np.zeros(samples, columns)
    if samples:
        # A NaN oracle leaves every gap NaN.
        oracle = (lambda x, t: np.nan) if residual_only else _oracle(net, cfg)
        ham = net.hamiltonian()

        def solution(points, t):
            return net.solution_grid(points, t)[0]

        # Residuals are taken a chunk of samples at a time, in one stencil
        # of at most GRID_BLOCK rows.
        chunk = max(1, GRID_BLOCK // (2 * net.dimension + 2))
        draws = _draws(net, seed)
        for lo in range(0, samples, chunk):
            for i, (x, t) in zip(range(lo, min(lo + chunk, samples)), draws):
                screened, result = screen_point(net, x, t)
                records[i] = x, t, abs(oracle(x, t) - result.value), np.nan, screened
            block = records[lo : lo + chunk]
            timed = block["t"] > 2 * FD_STEP
            if timed.any():
                stencil = hj_residual(solution, ham, block["x"][timed], block["t"][timed], FD_STEP)
                block["residual"][timed] = stencil
    return VerifyReport(label, seed, not residual_only, records)
