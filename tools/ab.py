#!/usr/bin/env python3
"""In-process A/B timing of hjeval kernels: a git revision against this tree.

Run from any directory:

    python3 tools/ab.py REV

REV (any git revision, e.g. ``HEAD~1``) is unpacked with ``git archive``
into a temporary directory, so the repository's ``.git`` is left as it is.
Its ``src/hjeval`` and this checkout's are imported side by side as the
packages ``hjeval_base`` and ``hjeval_head``, with one BLAS thread.  Each
kernel is built once per tree, then timed in 15 interleaved rounds: each
round runs the kernel once on each tree, in alternating order, a run being
as many calls as fill about 20 ms.  Per kernel it prints:

* ``base_us`` / ``head_us``: the fastest run of each tree, per call;
* ``ratio`` with ``q1``-``q3``: the median over rounds of head/base and its
  quartiles (below 1 means this tree is faster);
* ``base_flt`` / ``head_flt``: minor page faults (``ru_minflt``) per call,
  the median over rounds.

Kernels: the envelope certificate of a planted violation (10-D, m = 100),
that set's one fallback LP, the certificate of b = |v|^4/4 on 200 Gaussian
rows in 5-D (mostly LP fallback), the certificate of b = |v|^2/2 on 400
Gaussian rows in 5-D, shaped like ``perfbench``'s ``para5x400`` set, which
the witness screen certifies with no LP (``certificate_para5d_m400``), and
``check_witnesses`` of that set's witnesses
(``check_witnesses_para5d_m400``), a 3-row 1-D LP, the stacked solve of
the 2-D ``pwa2d`` velocity grid at ``--pts 21`` (441 targets), the stacked
solve of a 21 x 21 grid on a plane of 12 points in R^4, whose LPs drop
different pairs of redundant rows, and one LP at that set's centroid,
``verify_report`` on the shipped ``clipped1d`` (10 samples, pts 40001),
``pwa1d`` (10 samples, pts 4001, and at the benchmark's pts 40001:
``verify_pwa1d_40001``), ``ball10d`` and ``pwa10d`` (30 samples each,
residual only) problems and on the ``pwa2d`` net of that velocity grid (2
samples, pts 21), one sample of the position-form oracle
(``lax_oleinik_bruteforce``) on ``clipped1d`` at pts 40001 and at
2,000,001, one sample of the velocity-form oracle
(``lax_oleinik_bruteforce_velocity``) on ``pwa1d``'s prebuilt 40,001-node
grid (``velocity_pwa1d_40001``), one 100,001-point ``grid_conjugate`` of
the clipped quadratic (``grid_conjugate_1d``, the unit of the slowest
tier-1 test), one ``initial_values`` call (the position oracle's
integrand) on one ``numeric.GRID_BLOCK`` block of 4,096 ``clipped1d`` rows
(``oracle_block_clipped1d``), a one-row ``solution_grid`` on the linf Hamiltonian
net at n = 1000 (m = 2000) and on a ``shifted_norm_plus`` net with m = 64
branches in 1000-D, and a single-point ``evaluate`` on that linf net.
Then the nets of ``perfbench``'s ``eval`` workload, each on one
10,000-point ``solution_grid`` batch at one time in [0.1, 3]:
``clipped_quadratic`` (m = 3, 1-D), ``shifted_norm_plus`` (m = 64,
100-D), the linf Hamiltonian at n = 100 (m = 200) and the l1 Hamiltonian
at n = 8 (m = 256), and the last two nets' batches again at t = 0
(``grid10k_linf100_t0``, ``grid10k_l1_8_t0``), where every branch is
J(x); and ``evaluate_slice`` on a plane like the ``slice``
workload's 10-D one: 41 x 41 points at four times on a
``shifted_norm_plus`` net with m = 8, and on the ``slice`` workload's 5-D
plane at t = 0: 41 x 41 points on the linf Hamiltonian net at n = 5
(``slice_linf5_t0``).  ``write_slice_csv`` of the ``slice`` workload's three
tables, into a temporary directory: that 10-D plane (``slice_csv_plane10``),
the 5-D linf plane at t = 0, whose gaps are all +0.0, and at three later
times (``slice_csv_plane5_linf``), and a 1-D line of 801 points at two times
on a clipped-quadratic net with m = 5 (``slice_csv_line1``); and one column
of 4,096 coordinates in [-6, 6] through the tree's ``format_17g_column``, or
through ``format_17g`` a value at a time where the tree has none
(``format17g_4096``).  Then, on each of those four eval
nets, a single-point ``evaluate`` at the batch's time and its first point
(``point_*``) and the same point at t = 0, through ``initial_value`` on the
Lagrangian nets and ``evaluate`` on the others, as the workload's stream
calls them (``point0_*``).  Last, one ``solution_grid`` call at one time
per row on the 660 stencil rows that ``gradient_fd`` lays out for 30
samples in 10-D (2n + 2 rows a sample, at times in [0.5, 2]), on the
shipped ``ball10d`` (arch1) and ``pwa10d`` (arch2) nets (``stencil660_*``),
and the ``ball10d`` rows again with every tenth time set to 0, whose rows
at t = 0 are taken again on the recession (``stencil660_ball10d_t0``).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 15
RUN_SECONDS = 0.02


def load_package(src: Path, name: str):
    """Import the hjeval package at ``src`` under the module name ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _paraboloid(rng, n, m):
    rows = rng.normal(size=(m, n))
    return rows, 0.5 * (rows * rows).sum(axis=1)


def _grid21(rows):
    """The 21 x 21 grid over the bounding box of 2-D ``rows``, as (441, 2) rows."""
    axes = [np.linspace(lo, hi, 21) for lo, hi in zip(rows.min(axis=0), rows.max(axis=0))]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)


def _stencil(hj, n, samples, rng):
    """``gradient_fd``'s stencil rows and their times, one per row, for
    ``samples`` points in [-2, 2]^n at times in [0.5, 2]."""
    rows = []
    hj.oracle.gradient_fd(
        lambda points, times: rows.append((points, times)) or np.zeros(len(points)),
        rng.uniform(-2.0, 2.0, (samples, n)),
        rng.uniform(0.5, 2.0, samples),
        hj.oracle.FD_STEP,
    )
    return rows[0]


def kernels(hj, scratch: Path):
    """Name -> zero-argument callable, each built from the package ``hj``;
    the CSV kernels write under ``scratch``."""
    simplex = hj.simplex
    rng = np.random.default_rng(0)
    planted, offsets = _paraboloid(rng, 10, 100)
    weights = rng.dirichlet(np.ones(3))
    donors = rng.choice(99, 3, replace=False)
    planted[-1] = weights @ planted[donors]
    offsets[-1] = weights @ offsets[donors] + 0.25
    quartic = np.random.default_rng(1).normal(size=(200, 5))
    quartic_offsets = 0.25 * (quartic * quartic).sum(axis=1) ** 2
    para, para_offsets = _paraboloid(np.random.default_rng(6), 5, 400)
    para_witnesses = simplex.lower_envelope_certificate(para, para_offsets).witnesses
    pwa_rows = np.array([[-1.0, 0.0], [1.0, 1.0], [0.0, -1.0]])
    pwa_offsets = np.array([0.5, 0.0, 1.0])
    grid = _grid21(pwa_rows)
    # Twelve points on a plane in R^4: two constraint rows are redundant, and
    # which two an LP drops varies over the grid on the plane.
    plane_rng = np.random.default_rng(2)
    coords = plane_rng.normal(size=(12, 2))
    frame, origin = plane_rng.normal(size=(2, 4)), plane_rng.normal(size=4)
    plane, plane_costs = coords @ frame + origin, 0.5 * (coords * coords).sum(axis=1)
    plane_grid = _grid21(coords) @ frame + origin
    problems = {
        name: hj.config.load_problem(ROOT / "configs" / f"{name}.cfg").build_net()
        for name in ("clipped1d", "pwa1d", "ball10d", "pwa10d")
    }
    problems["pwa2d"] = hj.initialdata.InitialDataNet(
        hj.catalog.ConcaveFn(hj.catalog.HalfSquaredNorm()), pwa_rows, pwa_offsets
    )
    verify = hj.oracle.verify_report
    clipped = problems["clipped1d"]
    pwa1d = problems["pwa1d"]
    pwa1d_box = pwa1d.rows.min(axis=0), pwa1d.rows.max(axis=0)
    pwa1d_hstar = hj.oracle._hstar_eval(pwa1d)
    pwa1d_grid = hj.oracle.velocity_grid(pwa1d_hstar, *pwa1d_box, 40001)
    block = np.linspace(-4.0, 4.0, 4096)[:, None]

    def position_oracle(pts):
        cfg = hj.oracle.OracleConfig(pts)
        return lambda: hj.oracle.lax_oleinik_bruteforce(
            clipped.initial_values, clipped.lagrangian, np.array([0.7]), 1.3, cfg
        )

    presets = importlib.import_module(f"{hj.__name__}.presets")
    linf = presets.linf_hamiltonian_net(1000)
    snp_rng = np.random.default_rng(2)
    snp = hj.lagrangian.LagrangianNet(
        hj.catalog.ShiftedNormPlus(), snp_rng.uniform(-1.0, 1.0, (64, 1000)), snp_rng.uniform(-1.0, 1.0, 64)
    )
    row = np.random.default_rng(3).uniform(-4.0, 4.0, (1, 1000))
    # The eval workload's nets and batch sizes, and its 10-D slice plane.
    eval_rng = np.random.default_rng(4)
    eval_nets = {
        "clipped1d": hj.lagrangian.LagrangianNet(
            hj.catalog.ClippedQuadratic1D(), eval_rng.uniform(-3.0, 3.0, (3, 1)), eval_rng.uniform(-1.0, 1.0, 3)
        ),
        "snp100": hj.lagrangian.LagrangianNet(
            hj.catalog.ShiftedNormPlus(), eval_rng.uniform(-1.0, 1.0, (64, 100)), eval_rng.uniform(-1.0, 1.0, 64)
        ),
        "linf100": presets.linf_hamiltonian_net(100),
        "l1_8": presets.l1_hamiltonian_net(8),
    }
    batches = {
        key: (eval_rng.uniform(-4.0, 4.0, (10_000, net.dimension)), float(eval_rng.uniform(0.1, 3.0)))
        for key, net in eval_nets.items()
    }
    singles = {key: (batch[0], t) for key, (batch, t) in batches.items()}
    stencil_rng = np.random.default_rng(5)
    stencils = {key: _stencil(hj, 10, 30, stencil_rng) for key in ("ball10d", "pwa10d")}
    points, times = stencils["ball10d"]
    stencils["ball10d_t0"] = points, np.where(np.arange(len(times)) % 10 == 0, 0.0, times)
    plane_net = hj.lagrangian.LagrangianNet(
        hj.catalog.ShiftedNormPlus(), eval_rng.uniform(-3.0, 3.0, (8, 10)), eval_rng.uniform(-1.0, 1.0, 8)
    )
    slice_plane = hj.slicing.SliceSpec(
        (2, 7), ((-6.0, 6.0, 41), (-6.0, 6.0, 41)), (0.37, 1.17, 2.57, 4.07), tuple(eval_rng.uniform(-1.0, 1.0, 8))
    )
    linf5 = presets.linf_hamiltonian_net(5)
    slice_linf5 = hj.slicing.SliceSpec(
        (1, 3), ((-6.0, 6.0, 41), (-6.0, 6.0, 41)), (0.0,), tuple(eval_rng.uniform(-1.0, 1.0, 3))
    )
    # The slice workload's three tables, written as CSV: the 10-D plane above,
    # the 5-D linf plane at t = 0 (every gap +0.0) and three later times, and
    # a 1-D line of 801 points at two times on a clipped-quadratic net.
    csv_rng = np.random.default_rng(7)
    line_net = hj.lagrangian.LagrangianNet(
        hj.catalog.ClippedQuadratic1D(), csv_rng.uniform(-3.0, 3.0, (5, 1)), csv_rng.uniform(-1.0, 1.0, 5)
    )
    csv_tables = {
        "plane10": hj.slicing.evaluate_slice(plane_net, slice_plane),
        "plane5_linf": hj.slicing.evaluate_slice(linf5, replace(slice_linf5, times=(0.0, 0.61, 1.73, 3.29))),
        "line1": hj.slicing.evaluate_slice(line_net, hj.slicing.SliceSpec((0,), ((-4.3, 5.1, 801),), (0.47, 2.93))),
    }
    column = csv_rng.uniform(-6.0, 6.0, 4096)
    output = importlib.import_module(f"{hj.__name__}.output")
    formatter = getattr(output, "format_17g_column", None)
    if formatter is None:  # a tree without the column formatter: one call a value
        formatter = lambda values: [output.format_17g(v) for v in values.tolist()]  # noqa: E731
    return {
        "certificate_planted10d_m100": lambda: simplex.lower_envelope_certificate(planted, offsets),
        "lp10d_m100": lambda: simplex.minimize_over_simplex(offsets, planted, planted[-1]),
        "certificate_quartic5d_m200": lambda: simplex.lower_envelope_certificate(
            quartic, quartic_offsets
        ),
        "certificate_para5d_m400": lambda: simplex.lower_envelope_certificate(para, para_offsets),
        "check_witnesses_para5d_m400": lambda: simplex.check_witnesses(para, para_offsets, para_witnesses),
        "lp1d_3rows": lambda: simplex.minimize_over_simplex([0.5, -5.0, 1.0], [[-2.0], [0.0], [2.0]], [1.0]),
        "stack_pwa2d_441": lambda: simplex.minimize_over_simplex(pwa_offsets, pwa_rows, grid),
        "stack_plane4d_441": lambda: simplex.minimize_over_simplex(plane_costs, plane, plane_grid),
        "lp_plane4d_m12": lambda: simplex.minimize_over_simplex(plane_costs, plane, plane.mean(axis=0)),
        "verify_clipped1d_10": lambda: verify(problems["clipped1d"], 10, 0, hj.oracle.OracleConfig(40001)),
        "verify_pwa1d_10": lambda: verify(problems["pwa1d"], 10, 0, hj.oracle.OracleConfig(4001)),
        "verify_pwa1d_40001": lambda: verify(pwa1d, 10, 0, hj.oracle.OracleConfig(40001)),
        "oracle_clipped1d_40001": position_oracle(40001),
        "oracle_clipped1d_2000001": position_oracle(2_000_001),
        "velocity_pwa1d_40001": lambda: hj.oracle.lax_oleinik_bruteforce_velocity(
            pwa1d.initial_values, pwa1d_hstar, np.array([0.7]), 1.3, *pwa1d_box, 40001, grid=pwa1d_grid
        ),
        "grid_conjugate_1d": lambda: hj.numeric.grid_conjugate(hj.catalog.ClippedQuadratic1D(), [1.0], 8.0, 100_001),
        "oracle_block_clipped1d": lambda: clipped.initial_values(block),
        "verify_pwa2d_2": lambda: verify(problems["pwa2d"], 2, 0, hj.oracle.OracleConfig(21)),
        "verify_ball10d_30": lambda: verify(
            problems["ball10d"], 30, 0, hj.oracle.OracleConfig(3), residual_only=True
        ),
        "verify_pwa10d_30": lambda: verify(
            problems["pwa10d"], 30, 0, hj.oracle.OracleConfig(3), residual_only=True
        ),
        "grid1_linf_n1000": lambda: linf.solution_grid(row, 1.7),
        "grid1_snp_m64_n1000": lambda: snp.solution_grid(row, 1.7),
        "point_linf_n1000": lambda: linf.evaluate(row[0], 1.7),
        **{
            f"grid10k_{key}": lambda net=net, batch=batches[key]: net.solution_grid(*batch)
            for key, net in eval_nets.items()
        },
        **{
            f"grid10k_{key}_t0": lambda net=eval_nets[key], points=batches[key][0]: net.solution_grid(points, 0.0)
            for key in ("linf100", "l1_8")
        },
        "slice_plane10d_41x41": lambda: hj.slicing.evaluate_slice(plane_net, slice_plane),
        "slice_linf5_t0": lambda: hj.slicing.evaluate_slice(linf5, slice_linf5),
        **{
            f"slice_csv_{key}": lambda table=table, out=scratch / hj.__name__ / key: output.write_slice_csv(table, out)
            for key, table in csv_tables.items()
        },
        "format17g_4096": lambda: formatter(column),
        **{
            f"point_{key}": lambda net=net, point=singles[key]: net.evaluate(*point)
            for key, net in eval_nets.items()
        },
        # At t = 0 the single-point calls of perfbench's eval workload.
        **{
            f"point0_{key}": (
                lambda net=net, x=singles[key][0]: net.initial_value(x)
                if hasattr(net, "initial_value")
                else net.evaluate(x, 0.0)
            )
            for key, net in eval_nets.items()
        },
        **{
            f"stencil660_{key}": lambda net=problems[key.removesuffix("_t0")], rows=stencils[key]: net.solution_grid(*rows)
            for key in stencils
        },
    }


def _run(fn, calls):
    """Seconds and minor faults per call over ``calls`` calls."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    elapsed = time.perf_counter() - start
    return elapsed / calls, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / calls


def compare(base, head, scratch: Path):
    """Rows of (name, base_us, head_us, ratio, q1, q3, base_flt, head_flt)."""
    rows = []
    base_kernels, head_kernels = kernels(base, scratch), kernels(head, scratch)
    for name, base_fn in base_kernels.items():
        head_fn = head_kernels[name]
        once = min(_run(base_fn, 1)[0], _run(head_fn, 1)[0])  # also warms both
        calls = max(1, int(RUN_SECONDS / max(once, 1e-9)))
        runs = {"base": [], "head": []}
        for i in range(ROUNDS):
            order = (("base", base_fn), ("head", head_fn))
            for side, fn in order if i % 2 == 0 else order[::-1]:
                runs[side].append(_run(fn, calls))
        base_t, base_f = np.array(runs["base"]).T
        head_t, head_f = np.array(runs["head"]).T
        q1, ratio, q3 = np.percentile(head_t / base_t, [25, 50, 75])
        rows.append((name, 1e6 * base_t.min(), 1e6 * head_t.min(), ratio, q1, q3,
                     np.median(base_f), np.median(head_f)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this tree against")
    args = parser.parse_args(argv)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", args.rev, "src"], capture_output=True, check=False
    )
    if archive.returncode != 0:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        base = load_package(Path(tmp) / "src" / "hjeval", "hjeval_base")
        head = load_package(ROOT / "src" / "hjeval", "hjeval_head")
        rows = compare(base, head, Path(tmp))
    print(f"# {args.rev} (base) vs {ROOT} (head), {ROUNDS} rounds, numpy {np.__version__}")
    print(f"{'kernel':30s} {'base_us':>10s} {'head_us':>10s} {'ratio':>6s} {'q1':>6s} {'q3':>6s}"
          f" {'base_flt':>9s} {'head_flt':>9s}")
    for name, base_us, head_us, ratio, q1, q3, base_f, head_f in rows:
        print(f"{name:30s} {base_us:10.1f} {head_us:10.1f} {ratio:6.3f} {q1:6.3f} {q3:6.3f}"
              f" {base_f:9.1f} {head_f:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
