"""Layered benchmark for hjeval: four seeded workloads with checked outputs.

Run from the root of a checkout (nothing is installed; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload eval --seed 1 --seconds 24 --trace 0

Workloads (see ``workloads.py`` for why each exists and what is left out):

* ``eval``    library ``evaluate``/``initial_value`` calls and 10,000-point
              ``solution_grid`` batches on four nets;
* ``slice``   ``hjeval slice`` through ``hjeval.cli.main``;
* ``certify`` ``InitialDataNet`` construction (the envelope certificate);
* ``verify``  ``hjeval verify`` through ``hjeval.cli.main``.

Each run starts the workload in a child process (``worker.py``) that runs
whole passes over the workload's inputs, one operation at a time, for
``--seconds`` seconds, and checks every output.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report, also written to
``.perfbench/report_<workload>_trace<0|1>.json``.

End-to-end metrics (``--trace 0``), the same four on every workload:

* ``setup_s``: median, over several fresh processes, of the time from
  process start to readiness (imports, input generation, config load and
  net construction; for ``eval`` this includes the linf n=100 and l1 n=8
  certificates);
* ``items_per_s``: work items per second of one pass built from each
  input's fastest run: batch points on eval, CSV rows on slice, certified
  rows on certify, verify samples on verify;
* ``fastest_gm_ms``: geometric mean, over the workload's inputs (nets,
  configs or sets), of each input's fastest operation.  On eval the
  operation is one single-point call;
* ``peak_rss_mb``: peak resident memory of the workload process.

The timed metrics use each input's fastest run because, on a shared
machine, speed switches between regimes that last seconds: medians and
means of one run move by 20-40% with the regime, the fastest run by a few
percent.  The report keeps the medians and means.

The report adds these workload metrics, each with its unit:
``point_p50_us`` and ``point_p99_us`` with their sample
count and ``batch_points_per_s`` (eval), ``slice_rows_per_s``,
``certify_rows_per_s``, ``verify_samples_per_s`` (totals over every timed
operation), ``failed_ratio`` with both counts, per-input breakdowns and the
run environment.

Per-layer metrics (``--trace 1``) come from spans the benchmark records
around calls into each hjeval module; ``tracing.py`` says how, and
``worker.py`` lists them.  Spans are written to
``.perfbench/trace_<workload>.csv``.

The process exits with code 2, printing no result, when the checkout has no
``src/hjeval`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("eval", "slice", "certify", "verify")
# Set-up is timed in fresh processes, the measuring one included, and the
# median is reported: at least SETUP_MIN_SAMPLES of them, and more, up to
# SETUP_MAX_SAMPLES, while the set-up-only ones take under SETUP_BUDGET_S.
SETUP_MIN_SAMPLES = 7
SETUP_MAX_SAMPLES = 15
SETUP_BUDGET_S = 5.0
# Every child must have finished this long after the run started.
RUN_BUDGET_S = 170.0
# BLAS/OpenMP threads per process.  One caller runs one operation at a time;
# idle BLAS threads spin between calls and would compete with it.
THREAD_PIN = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


class Child:
    """A worker process whose output lines are read against a deadline."""

    def __init__(self, argv, env):
        self.started = perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        self._buffer = b""

    def read_line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise BenchError("worker ran past the run budget")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"worker exited early (code {self.proc.wait()})")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8")

    def finish(self, deadline: float) -> int:
        try:
            return self.proc.wait(timeout=max(deadline - perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not exit within the run budget") from None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _git_sha() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses
    # a checkout which is not one itself.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def _declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREAD_PIN)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    base = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ]
    deadline = perf_counter() + RUN_BUDGET_S
    setup_samples = []
    children = []

    def start(argv):
        child = Child(argv, env)
        children.append(child)
        if child.read_line(deadline) != "ready":
            raise BenchError("worker set-up did not report readiness")
        setup_samples.append(perf_counter() - child.started)
        return child

    try:
        while not args.trace and len(setup_samples) < SETUP_MAX_SAMPLES - 1 and (
            len(setup_samples) < SETUP_MIN_SAMPLES - 1 or sum(setup_samples) < SETUP_BUDGET_S
        ):
            if start(base + ["--setup-only"]).finish(deadline) != 0:
                raise BenchError("set-up worker failed")
        child = start(base)
        result = json.loads(child.read_line(deadline))
        if child.finish(deadline) != 0:
            raise BenchError("worker failed")
    finally:
        for child in children:
            child.stop()

    result["setup_samples_s"] = setup_samples
    result["environment"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": result.pop("numpy"),
        "nproc": nproc,
        "thread_pin": {var: env[var] for var in THREAD_VARS},
        "loop": "closed, one caller",
    }
    return result


def report_lines(result, metrics) -> list[str]:
    env = result["environment"]
    lines = [f"hjeval benchmark: workload={env['workload']} seed={env['seed']} trace={env['trace']}"]
    lines.append("environment: " + json.dumps(env, sort_keys=True))
    lines.append("inputs: " + json.dumps(result["inputs"], sort_keys=True))
    failed, attempted = result["failed"], result["attempted"]
    lines.append(f"failed_ratio: {failed / attempted:.6g} failed/attempted ({failed} of {attempted})")
    for name, value in result["summary"].items():
        if isinstance(value, list):
            lines.append(f"{name}: {value[0]:.6g} {value[1]}")
        else:
            lines.append(f"{name}: {json.dumps(value, sort_keys=True)}")
    for name, metric in metrics.items():
        lines.append(f"{name}: {metric['value']:.6g} {metric['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hjeval layered benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hjeval" / "__init__.py").is_file():
        print(f"error: no hjeval package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        declared = _declared_metrics(args.trace)
        result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {"setup_s": {"value": statistics.median(result["setup_samples_s"]), "unit": "s"}}
        metrics.update(result["end_to_end"])
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        print(f"error: emitted metrics {sorted(emitted)} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    result["failed_ratio"] = result["failed"] / result["attempted"]
    report = ROOT / ".perfbench" / f"report_{args.workload}_trace{args.trace}.json"
    report.write_text(json.dumps({**result, "metrics": metrics}, indent=1, sort_keys=True), encoding="utf-8")
    for line in report_lines(result, metrics):
        print(line)
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
