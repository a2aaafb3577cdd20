"""One workload in one process: set up, signal readiness, measure, check.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready`` on
its own line when set-up is done (the parent times set-up from the process
start to that line) and, unless ``--setup-only`` is given, one JSON line
with the run's records afterwards.

With ``--trace 1`` the process traces its set-up, measures untraced for
half of ``--seconds``, then runs ``TRACE_PASSES`` pairs of an untraced and
a traced pass.  The per-layer metrics come from the spans of the set-up and
the traced passes; ``trace.overhead_ratio`` is the traced passes' operation
time over that of the untraced passes paired with them, minus 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

TRACE_PASSES = 2

EVAL_NETS = (
    ("clipped1d", "lagrangian"),
    ("snp100", "lagrangian"),
    ("linf100", "initialdata"),
    ("l1_8", "initialdata"),
)
CERTIFY_SETS = ("linf50", "linf100", "l1_8", "para10x100", "para5x400", "planted10x100")

# (metric, span name, field, unit) for metrics read straight off the spans.
SPAN_METRICS = [
    ("catalog.activation.calls", "catalog.activation", "calls", "count"),
    ("catalog.activation.busy_s", "catalog.activation", "busy_s", "s"),
    ("catalog.activation.self_s", "catalog.activation", "self_s", "s"),
    ("catalog.activation.elements", "catalog.activation", "elements", "count"),
    ("catalog.activation.bytes_computed", "catalog.activation", "bytes_computed", "B"),
    ("catalog.hamiltonian.calls", "catalog.hamiltonian", "calls", "count"),
    ("catalog.hamiltonian.busy_s", "catalog.hamiltonian", "busy_s", "s"),
]
for _net in ("lagrangian", "initialdata"):
    SPAN_METRICS += [
        (f"{_net}.evaluate.calls", f"{_net}.evaluate", "calls", "count"),
        (f"{_net}.evaluate.busy_s", f"{_net}.evaluate", "busy_s", "s"),
        (f"{_net}.evaluate.self_s", f"{_net}.evaluate", "self_s", "s"),
        (f"{_net}.grid.calls", f"{_net}.grid", "calls", "count"),
        (f"{_net}.grid.points", f"{_net}.grid", "points", "count"),
        (f"{_net}.grid.busy_s", f"{_net}.grid", "busy_s", "s"),
        (f"{_net}.grid.self_s", f"{_net}.grid", "self_s", "s"),
    ]
SPAN_METRICS += [
    ("branches.reduce.calls", "branches.reduce", "calls", "count"),
    ("branches.reduce.cells", "branches.reduce", "cells", "count"),
    ("branches.reduce.busy_s", "branches.reduce", "busy_s", "s"),
    ("simplex.certificate.calls", "simplex.certificate", "calls", "count"),
    ("simplex.certificate.rows", "simplex.certificate", "rows", "count"),
    ("simplex.certificate.busy_s", "simplex.certificate", "busy_s", "s"),
    ("simplex.lp.calls", "simplex.lp", "calls", "count"),
    ("simplex.lp.busy_s", "simplex.lp", "busy_s", "s"),
    ("config.load.calls", "config.load", "calls", "count"),
    ("config.load.busy_s", "config.load", "busy_s", "s"),
    ("config.build_net.busy_s", "config.build_net", "busy_s", "s"),
    ("config.build_net.self_s", "config.build_net", "self_s", "s"),
    ("slicing.evaluate_slice.busy_s", "slicing.evaluate_slice", "busy_s", "s"),
    ("slicing.evaluate_slice.self_s", "slicing.evaluate_slice", "self_s", "s"),
    ("slicing.grid_points.busy_s", "slicing.grid_points", "busy_s", "s"),
    ("output.csv.rows", "output.csv", "rows", "count"),
    ("output.csv.bytes", "output.csv", "bytes", "B"),
    ("output.csv.busy_s", "output.csv", "busy_s", "s"),
    ("output.pgm.calls", "output.pgm", "calls", "count"),
    ("output.pgm.busy_s", "output.pgm", "busy_s", "s"),
    ("oracle.verify_report.busy_s", "oracle.verify_report", "busy_s", "s"),
    ("oracle.verify_report.self_s", "oracle.verify_report", "self_s", "s"),
    ("oracle.bruteforce.calls", "oracle.bruteforce", "calls", "count"),
    ("oracle.bruteforce.grid_points", "oracle.bruteforce", "grid_points", "count"),
    ("oracle.bruteforce.busy_s", "oracle.bruteforce", "busy_s", "s"),
    ("oracle.residual.calls", "oracle.residual", "calls", "count"),
    ("oracle.residual.busy_s", "oracle.residual", "busy_s", "s"),
    ("oracle.screen.calls", "oracle.screen", "calls", "count"),
    ("oracle.screen.accepted", "oracle.screen", "accepted", "count"),
    ("oracle.screen.busy_s", "oracle.screen", "busy_s", "s"),
    ("numeric.grid_points.calls", "numeric.grid_points", "calls", "count"),
    ("numeric.grid_points.points", "numeric.grid_points", "points", "count"),
    ("numeric.grid_points.busy_s", "numeric.grid_points", "busy_s", "s"),
]
for _cmd in ("", ".slice", ".verify"):
    SPAN_METRICS += [
        (f"cli.main{_cmd}.calls", f"cli.main{_cmd}", "calls", "count"),
        (f"cli.main{_cmd}.busy_s", f"cli.main{_cmd}", "busy_s", "s"),
        (f"cli.main{_cmd}.self_s", f"cli.main{_cmd}", "self_s", "s"),
    ]

# Every per-layer metric with its unit, in output order.
PER_LAYER_UNITS = {name: unit for name, _, _, unit in SPAN_METRICS}
PER_LAYER_UNITS.update(
    {
        "simplex.lp_per_row": "ratio",
        "oracle.screen.accept_ratio": "ratio",
        "output.csv.share": "ratio",
        "trace.overhead_ratio": "ratio",
    }
)
for _key, _net in EVAL_NETS:
    PER_LAYER_UNITS[f"{_net}.evaluate.{_key}.fastest_us"] = "us"
    PER_LAYER_UNITS[f"{_net}.grid.{_key}.fastest_us_per_point"] = "us"
for _key in CERTIFY_SETS:
    PER_LAYER_UNITS[f"simplex.certificate.{_key}.s_per_call"] = "s"


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer, workload, untraced_summary, overhead) -> dict:
    """Per-layer metrics from the spans of the traced set-up and passes."""
    agg = tracer.aggregate()
    agg["cli.main"] = {
        key: agg["cli.main.slice"].get(key, 0) + agg["cli.main.verify"].get(key, 0)
        for key in ("calls", "busy_s", "self_s")
    }
    values = {name: agg[span].get(field, 0) for name, span, field, _ in SPAN_METRICS}

    lp_in_certificates = sum(
        1
        for i, name in enumerate(tracer.names)
        if name == "simplex.lp" and tracer.parent[i] >= 0 and tracer.names[tracer.parent[i]] == "simplex.certificate"
    )
    values["simplex.lp_per_row"] = _ratio(lp_in_certificates, agg["simplex.certificate"].get("rows", 0))
    values["oracle.screen.accept_ratio"] = _ratio(
        agg["oracle.screen"].get("accepted", 0), agg["oracle.screen"]["calls"]
    )
    values["output.csv.share"] = _ratio(agg["output.csv"]["busy_s"], agg["cli.main.slice"]["busy_s"])
    values["trace.overhead_ratio"] = overhead

    # Breakdowns behind the ROADMAP baseline.  Per-net eval times are each
    # net's fastest call and fastest batch in the untraced passes of this
    # run, so they carry no span overhead; the report has the medians.
    per_net = untraced_summary.get("per_net", {}) if workload.name == "eval" else {}
    for key, net in EVAL_NETS:
        values[f"{net}.evaluate.{key}.fastest_us"] = per_net.get(key, {}).get("point_fastest_us", 0.0)
        values[f"{net}.grid.{key}.fastest_us_per_point"] = per_net.get(key, {}).get("batch_fastest_us_per_point", 0.0)
    groups = tracer.ops_by_label()
    for key in CERTIFY_SETS:
        ops = set().union(*(ops for label, ops in groups.items() if label.split(":")[-1] == key))
        row = tracer.aggregate(ops)["simplex.certificate"] if ops else {"calls": 0, "busy_s": 0.0}
        values[f"simplex.certificate.{key}.s_per_call"] = _ratio(row["busy_s"], row["calls"])
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def measure(workload, rec, seconds: float) -> int:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    start = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() - start < seconds:
        workload.run_pass(rec)
        passes += 1
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "hjeval"
    sys.path.insert(0, str(root / "src"))
    import hjeval
    import numpy

    if Path(hjeval.__file__).resolve().parent != package:
        print(f"error: imported hjeval from {hjeval.__file__}, not {package}", file=sys.stderr)
        return 2

    from tracing import Tracer, instrument
    from workloads import WORKLOADS, Hooks, Recorder

    tracer = Tracer() if args.trace else None
    work = root / ".perfbench" / "work" / args.workload
    workload = WORKLOADS[args.workload](work, args.seed, args.size, Hooks(tracer))
    if tracer is not None:
        instrument(tracer)
        tracer.enabled = True
    workload.setup()
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rec = Recorder()
    passes = measure(workload, rec, args.seconds / 2 if tracer is not None else args.seconds)
    summary = workload.summary(rec)
    result = {
        "passes": passes,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "summary": summary,
        "numpy": numpy.__version__,
        "inputs": workload.describe(),
    }
    if tracer is None:
        result["end_to_end"] = {
            "items_per_s": {"value": workload.items_per_s(rec), "unit": "1/s"},
            "fastest_gm_ms": {"value": workload.fastest_gm_ms(rec), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    else:
        # Each traced pass follows an untraced one, so that both sides of the
        # overhead ratio see the same machine speed.
        paired, traced = Recorder(), Recorder()
        for _ in range(TRACE_PASSES):
            workload.run_pass(paired)
            instrument(tracer)
            tracer.enabled = True
            workload.run_pass(traced)
            tracer.uninstall()
        overhead = sum(traced.seconds) / sum(paired.seconds) - 1.0
        result["attempted"] += paired.attempted + traced.attempted
        result["failed"] += paired.failed + traced.failed
        result["per_layer"] = layer_metrics(tracer, workload, summary, overhead)
        result["spans"] = len(tracer.names)
        tracer.write_csv(root / ".perfbench" / f"trace_{args.workload}.csv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
