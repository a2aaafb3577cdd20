"""In-memory span tracer that wraps hjeval's public functions from outside.

Nothing inside ``src/`` is instrumented.  :func:`instrument` replaces module
and class attributes of the loaded ``hjeval`` modules with wrappers that
record one span per call: name, start, end, parent span and the id of the
benchmark operation that caused it.  Because the package imports many
functions by name (``from .simplex import minimize_over_simplex``), every
``hjeval`` module attribute bound to a wrapped function is replaced, not
just the defining one.  :meth:`Tracer.uninstall` restores the originals.

Spans stay in memory until :meth:`Tracer.write_csv`.  Aggregation rules:

* ``calls`` and ``busy_s`` of a name count only its outermost spans, so a
  call nested in a span of the same name (``ConcaveFn`` calling the convex
  function it negates, ``solution_grid`` calling ``evaluate_grid``) is not
  counted twice;
* ``self_s`` of a name sums, over all its spans, the span's duration minus
  the time its direct child spans cover;
* counters (points, rows, cells, ...) are summed over outermost spans.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

__all__ = ["Tracer", "instrument", "LAYER_NAMES"]

# Every span name the instrumentation can emit, so that aggregates exist
# (as zero) on workloads that never reach a layer.
LAYER_NAMES = (
    "catalog.activation",
    "catalog.hamiltonian",
    "lagrangian.evaluate",
    "lagrangian.grid",
    "initialdata.evaluate",
    "initialdata.grid",
    "branches.reduce",
    "simplex.certificate",
    "simplex.lp",
    "config.load",
    "config.build_net",
    "slicing.evaluate_slice",
    "slicing.grid_points",
    "output.csv",
    "output.pgm",
    "oracle.verify_report",
    "oracle.bruteforce",
    "oracle.residual",
    "oracle.screen",
    "numeric.grid_points",
    "cli.main.slice",
    "cli.main.verify",
)


class Tracer:
    """Span store plus the attribute patches that feed it."""

    def __init__(self):
        self.enabled = False
        self.op = 0
        self.op_labels = ["setup"]
        self.names: list[str] = []
        self.parent: list[int] = []
        self.op_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.child_time: list[float] = []
        self.outer: list[bool] = []
        self.counters: list[dict | None] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- operations -------------------------------------------------------

    def begin_op(self, label: str) -> None:
        """Start a new benchmark operation; later spans carry its id."""
        self.op = len(self.op_labels)
        self.op_labels.append(label)

    # -- recording --------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """Wrapper recording a span around ``fn``.

        ``name`` is a string or a callable of the call's arguments returning
        one.  ``count(args, kwargs, result)`` returns a dict of counters; it
        runs after the span's end time is taken.  ``result`` is None when
        the call raised.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args)
            idx = len(tracer.names)
            stack = tracer._stack
            tracer.names.append(label)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.outer.append(tracer._depth[label] == 0)
            tracer.child_time.append(0.0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.counters.append(None)
            tracer._depth[label] += 1
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer._depth[label] -= 1
                tracer.start[idx] = start
                tracer.end[idx] = end
                if stack:
                    tracer.child_time[stack[-1]] += end - start
                if count is not None:
                    tracer.counters[idx] = count(args, kwargs, result)

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def aggregate(self, ops=None):
        """Per-name totals: calls, busy_s, self_s and summed counters.

        ``ops`` restricts the spans to a set of operation ids.
        """
        totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in LAYER_NAMES}
        for i, label in enumerate(self.names):
            if ops is not None and self.op_of[i] not in ops:
                continue
            row = totals.setdefault(label, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = self.end[i] - self.start[i]
            row["self_s"] += duration - self.child_time[i]
            if not self.outer[i]:
                continue
            row["calls"] += 1
            row["busy_s"] += duration
            for key, value in (self.counters[i] or {}).items():
                row[key] = row.get(key, 0) + value
        return totals

    def ops_by_label(self):
        """Operation ids grouped by their label."""
        groups = defaultdict(set)
        for op, label in enumerate(self.op_labels):
            groups[label].add(op)
        return groups

    def write_csv(self, path) -> None:
        """Dump every span: id, parent, op, op label, name, start/end (µs)."""
        origin = min(self.start) if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,op_label,name,start_us,end_us,counters\n")
            for i, label in enumerate(self.names):
                counters = ";".join(f"{k}={v}" for k, v in (self.counters[i] or {}).items())
                fh.write(
                    f"{i},{self.parent[i]},{self.op_of[i]},{self.op_labels[self.op_of[i]]},"
                    f"{label},{(self.start[i] - origin) * 1e6:.3f},"
                    f"{(self.end[i] - origin) * 1e6:.3f},{counters}\n"
                )


# -- counters --------------------------------------------------------------


def _size(value) -> int:
    return int(np.size(value))


def _activation_counts(args, kwargs, result):
    inputs = _size(args[1])
    outputs = 0 if result is None else _size(result)
    # Bytes are computed from array sizes (8-byte floats in and out), not
    # measured memory traffic.
    return {"elements": inputs, "bytes_computed": 8 * (inputs + outputs)}


def _points(args, kwargs, result):
    pts = args[1]
    shape = np.shape(pts)
    return {"points": shape[0] if len(shape) == 2 else 1}


def _cells(args, kwargs, result):
    return {"cells": _size(args[0])}


def _certificate_rows(args, kwargs, result):
    if result is None:
        return {"rows": 0}
    rows = np.shape(np.atleast_2d(args[0]))[0]
    return {"rows": rows if result.holds else int(result.index)}


def _grid_rows(args, kwargs, result):
    return {"points": 0 if result is None else int(result.shape[0])}


def _csv_counts(args, kwargs, result):
    table_rows = int(args[0].grid.shape[0]) * len(args[0].tables)
    written = sum(p.stat().st_size for p in result) if result else 0
    return {"rows": table_rows, "bytes": written}


def _bruteforce_points(args, kwargs, result):
    n = np.size(args[2])
    cfg = kwargs.get("cfg", args[4] if len(args) > 4 else None)
    return {"grid_points": int(cfg.pts_per_axis) ** n}


def _velocity_points(args, kwargs, result):
    n = np.size(args[2])
    pts = kwargs.get("pts_per_axis", args[6] if len(args) > 6 else None)
    return {"grid_points": int(pts) ** n}


def _screen_counts(args, kwargs, result):
    return {"accepted": int(bool(result is not None and result[0]))}


# -- instrumentation -------------------------------------------------------


def _hjeval_modules():
    return [mod for name, mod in sorted(sys.modules.items()) if name.startswith("hjeval")]


def _patch_everywhere(tracer, fn, name, count=None):
    """Wrap ``fn`` in every loaded hjeval module that binds it by name."""
    wrapper = tracer.wrap(fn, name, count)
    for module in _hjeval_modules():
        for attr, value in list(vars(module).items()):
            if value is fn:
                tracer.patch(module, attr, wrapper)


def instrument(tracer: Tracer) -> None:
    """Install spans around the public functions of every hjeval layer."""
    import hjeval.branches as branches
    import hjeval.catalog as catalog
    import hjeval.cli as cli
    import hjeval.config as config
    import hjeval.initialdata as initialdata
    import hjeval.lagrangian as lagrangian
    import hjeval.numeric as numeric
    import hjeval.oracle as oracle
    import hjeval.output as output
    import hjeval.simplex as simplex
    import hjeval.slicing as slicing

    # Hamiltonians are catalog functions too; tell them apart from
    # activations by the objects the nets' hamiltonian() methods return.
    # Strong references keep ids from being reused while the tracer lives.
    hamiltonians: dict[int, object] = {}

    def remember(method):
        @functools.wraps(method)
        def hamiltonian(self):
            ham = method(self)
            hamiltonians[id(ham)] = ham
            return ham

        return hamiltonian

    tracer.patch(lagrangian.LagrangianNet, "hamiltonian", remember(lagrangian.LagrangianNet.hamiltonian))
    tracer.patch(initialdata.InitialDataNet, "hamiltonian", remember(initialdata.InitialDataNet.hamiltonian))

    def catalog_name(args):
        return "catalog.hamiltonian" if id(args[0]) in hamiltonians else "catalog.activation"

    for cls, attr in (
        (catalog.ConvexFn, "__call__"),
        (catalog.ConvexFn, "recession"),
        (catalog.ConcaveFn, "__call__"),
    ):
        tracer.patch(cls, attr, tracer.wrap(getattr(cls, attr), catalog_name, _activation_counts))

    net = lagrangian.LagrangianNet
    for attr in ("evaluate", "initial_value"):
        tracer.patch(net, attr, tracer.wrap(getattr(net, attr), "lagrangian.evaluate"))
    for attr in ("evaluate_grid", "initial_grid", "solution_grid"):
        tracer.patch(net, attr, tracer.wrap(getattr(net, attr), "lagrangian.grid", _points))

    net = initialdata.InitialDataNet
    tracer.patch(net, "evaluate", tracer.wrap(net.evaluate, "initialdata.evaluate"))
    for attr in ("evaluate_grid", "solution_grid"):
        tracer.patch(net, attr, tracer.wrap(getattr(net, attr), "initialdata.grid", _points))

    _patch_everywhere(tracer, branches.reduce_branches, "branches.reduce", _cells)
    _patch_everywhere(tracer, branches.reduce_branch_matrix, "branches.reduce", _cells)
    _patch_everywhere(tracer, simplex.lower_envelope_certificate, "simplex.certificate", _certificate_rows)
    _patch_everywhere(tracer, simplex.minimize_over_simplex, "simplex.lp")
    _patch_everywhere(tracer, config.load_problem, "config.load")
    _patch_everywhere(tracer, config.load_slice, "config.load")
    tracer.patch(config.ProblemConfig, "build_net", tracer.wrap(config.ProblemConfig.build_net, "config.build_net"))
    _patch_everywhere(tracer, slicing.evaluate_slice, "slicing.evaluate_slice")
    tracer.patch(
        slicing.SliceSpec, "grid_points", tracer.wrap(slicing.SliceSpec.grid_points, "slicing.grid_points")
    )
    _patch_everywhere(tracer, output.write_slice_csv, "output.csv", _csv_counts)
    _patch_everywhere(tracer, output.write_slice_pgm, "output.pgm")
    _patch_everywhere(tracer, oracle.verify_report, "oracle.verify_report")
    _patch_everywhere(tracer, oracle.lax_oleinik_bruteforce, "oracle.bruteforce", _bruteforce_points)
    _patch_everywhere(
        tracer, oracle.lax_oleinik_bruteforce_velocity, "oracle.bruteforce", _velocity_points
    )
    _patch_everywhere(tracer, oracle.hj_residual, "oracle.residual")
    _patch_everywhere(tracer, oracle.screen_point, "oracle.screen", _screen_counts)
    _patch_everywhere(tracer, numeric.grid_points, "numeric.grid_points", _grid_rows)
    _patch_everywhere(tracer, cli.main, lambda args: f"cli.main.{args[0][0]}")
