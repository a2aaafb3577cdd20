"""Dimension-scaling benchmark for single-point evaluations.

Evaluation of either net costs O(m · n) per point with no grid anywhere, so
the mean time per point must grow at most polynomially in the dimension.
The benchmark builds synthetic nets per dimension and times repeated
single-point evaluations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .catalog import ShiftedNormPlus
from .lagrangian import LagrangianNet
from .presets import linf_hamiltonian_net

__all__ = ["BenchRow", "synthetic_net", "run_bench", "bench_csv"]
__all__ += ["BENCH_MAX_LINF_DIMENSION", "BENCH_MAX_FLOATS", "BENCH_MAX_WORK"]

POINTS_PER_REP = 1000
# Construction budget, about 1 s and 128 MiB on one core.  arch2's linf
# net certifies its m = 2n rows in O((2n)^2 n), all of it the Gram product:
# 0.71-0.93 s and a 125 MiB peak at n = 1400, 1.0-1.1 s at n = 1500.  arch1 draws m x n shifts and the bench
# 1000 x n points, (m + 1000) n floats: at 2^22 of them (m = 3194,
# n = 1000) the net, the points and one evaluation took 0.16 s and a
# 118 MiB peak, growing in proportion beyond.
BENCH_MAX_LINF_DIMENSION = 1400
BENCH_MAX_FLOATS = 1 << 22
# Run-time budget, about a minute on one core.  One single-point evaluation
# took about 25 us plus 2-12 ns per branch coordinate (m n), so it counts as
# m n + BENCH_CALL_WORK units, and the reps x 1000 calls per dimension may
# add up to at most BENCH_MAX_WORK of them.
BENCH_CALL_WORK = 4096
BENCH_MAX_WORK = 1 << 33


@dataclass(frozen=True)
class BenchRow:
    n: int
    m: int
    mean_eval_time: float  # seconds per single-point evaluation


def synthetic_net(architecture: str, n: int, m: int, seed: int = 0):
    """Benchmark net: random Lipschitz net for arch1, linf generator for arch2.

    arch2 ignores ``m`` (the generator fixes m = 2n) so that the
    lower-envelope condition holds by construction.
    """
    rng = np.random.default_rng(seed)
    if architecture == "arch1":
        shifts = rng.uniform(-1.0, 1.0, (m, n))
        offsets = rng.uniform(-1.0, 1.0, m)
        return LagrangianNet(ShiftedNormPlus(), shifts, offsets)
    if architecture == "arch2":
        return linf_hamiltonian_net(n)
    raise ValueError(f"unknown architecture {architecture!r}")


def run_bench(architecture: str, dims, m: int, reps: int, seed: int = 0) -> list[BenchRow]:
    """Mean single-point evaluation time per dimension, over reps × 1000 points.

    Refuses, before any net is built, an empty ``dims``, a dimension below 1,
    arch1's ``m`` below 1, ``reps`` below 1, a negative ``seed``, and work
    above the construction or run-time budget.
    """
    if not dims:
        raise ValueError("dims must be nonempty")
    if min(dims) < 1:
        raise ValueError(f"dims: every dimension must be at least 1, got {min(dims)}")
    if architecture == "arch1" and m < 1:
        raise ValueError(f"m: the arch1 net needs at least one branch, got {m}")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if seed < 0:
        raise ValueError(f"seed: must be nonnegative, got {seed}")
    if architecture == "arch2" and max(dims) > BENCH_MAX_LINF_DIMENSION:
        raise ValueError(
            f"dims: the arch2 net at n={max(dims)} exceeds the construction budget "
            f"(n <= {BENCH_MAX_LINF_DIMENSION})"
        )
    if architecture == "arch1" and (m + POINTS_PER_REP) * max(dims) > BENCH_MAX_FLOATS:
        raise ValueError(
            f"m, dims: the arch1 net at m={m}, n={max(dims)} needs (m + {POINTS_PER_REP}) n "
            f"floats, above the construction budget of {BENCH_MAX_FLOATS}"
        )
    branches = [2 * n if architecture == "arch2" else m for n in dims]
    work = reps * POINTS_PER_REP * sum(b * n + BENCH_CALL_WORK for b, n in zip(branches, dims))
    if work > BENCH_MAX_WORK:
        raise ValueError(
            f"reps: {reps} x {POINTS_PER_REP} evaluations per dimension need {work} units "
            f"(m n + {BENCH_CALL_WORK} a call), above the run-time budget of {BENCH_MAX_WORK}"
        )
    rows = []
    for n in dims:
        net = synthetic_net(architecture, n, m, seed)
        rng = np.random.default_rng(seed + 1)
        pts = rng.uniform(-1.0, 1.0, (POINTS_PER_REP, n))
        for i in range(min(10, POINTS_PER_REP)):  # warm caches before timing
            net.evaluate(pts[i], 1.0)
        elapsed = 0.0
        for _ in range(reps):
            start = time.perf_counter()
            for i in range(POINTS_PER_REP):
                net.evaluate(pts[i], 1.0)
            elapsed += time.perf_counter() - start
        rows.append(BenchRow(n, net.n_branches, elapsed / (reps * POINTS_PER_REP)))
    return rows


def bench_csv(rows: list[BenchRow]) -> str:
    lines = ["n,m,mean_eval_time"]
    lines.extend(f"{r.n},{r.m},{r.mean_eval_time:.9e}" for r in rows)
    return "\n".join(lines) + "\n"
