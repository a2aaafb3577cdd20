"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Each workload drives ``hjeval`` only through its public functions and
``hjeval.cli.main``, as one caller in a closed loop: the next operation starts
when the previous one has returned.  A *pass* runs every input of the
workload once; passes repeat the same inputs, which :meth:`Workload.setup`
generates from the seed.  Only the library call or command is timed; checks
run after it, untimed and untraced.

Every operation's output is checked, and a wrong output counts as a failed
operation.  The closed forms behind the ``eval`` reference are written out
here from the activations' documented formulas, not taken from the nets.

Inputs left out on purpose, because one of them alone would not finish in a
run-sized budget at this commit (see ROADMAP items 3 and 5):

* ``certify``: linf sets with n >= 200 (21.7 s at n = 200, more than 10
  minutes at n = 1000) and l1 sets near the n <= 20 cap (2^n rows).
* ``verify``: the 2-D arch2 oracle at the default ``--pts 40001`` (1.6e9
  velocity-grid points, each solving a simplex LP); it runs at ``--pts 21``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = ["WORKLOADS", "Recorder", "Hooks"]

# Output checks.  Values agree when within VALUE_RTOL * (1 + |value|); the
# argmin must match wherever the reference's top-two margin exceeds
# ARGMIN_BAND * (1 + |value|), a band far above the rounding of either side.
VALUE_RTOL = 1e-9
ARGMIN_BAND = 1e-9
# Batch points per net that are also evaluated one at a time, untimed, to
# check that single-point and batch evaluation agree.
AGREEMENT_POINTS = 32
# Batch results are checked this many rows at a time, so that the
# reference's (rows, m) arrays stay far below the memory of the timed
# ``solution_grid`` call and peak_rss_mb measures hjeval, not the checks.
CHECK_CHUNK = 1000


class Recorder:
    """Timed operations of a run: label, seconds, work items, and outcome."""

    def __init__(self):
        self.labels: list[str] = []
        self.seconds: list[float] = []
        self.items: list[int] = []
        self.ok: list[bool] = []

    def add(self, label: str, seconds: float, items: int, ok: bool) -> None:
        self.labels.append(label)
        self.seconds.append(seconds)
        self.items.append(items)
        self.ok.append(bool(ok))

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def select(self, label_filter):
        """(seconds, items) arrays of the operations whose label passes."""
        keep = [i for i, label in enumerate(self.labels) if label_filter(label)]
        return (
            np.array([self.seconds[i] for i in keep], dtype=float),
            np.array([self.items[i] for i in keep], dtype=float),
        )


class Hooks:
    """What a workload needs from the harness around it.

    ``begin(label)`` marks the start of an operation for the tracer, and
    ``paused()`` stops span recording while checks run.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer

    def begin(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(label)

    @contextlib.contextmanager
    def paused(self):
        if self.tracer is None:
            yield
            return
        was, self.tracer.enabled = self.tracer.enabled, False
        try:
            yield
        finally:
            self.tracer.enabled = was


def _num(x) -> str:
    return repr(float(x))


def _problem_text(architecture, function, points=None, scalars=None, generator=None, n=None):
    dimension = n if points is None else np.shape(points)[1]
    lines = [
        f"architecture = {architecture}",
        f"dimension = {dimension}",
        f"function = {function}",
    ]
    if generator is not None:
        lines.append(f"norm_hamiltonian = {generator}")
    else:
        for point, scalar in zip(points, scalars):
            lines.append("param = " + ", ".join(_num(v) for v in (*point, scalar)))
    return "\n".join(lines) + "\n"


def _norm_rows(kind: str, n: int) -> np.ndarray:
    """The documented generator rows: l1 sign vectors, linf signed basis."""
    if kind == "l1":
        return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    rows = np.zeros((2 * n, n))
    for j in range(n):
        rows[2 * j, j] = 1.0
        rows[2 * j + 1, j] = -1.0
    return rows


def _geomean(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.exp(np.log(values).mean()))


class Workload:
    """Base: seeded set-up, timed passes, and a summary of the records."""

    name = ""
    FULL: dict = {}
    TINY: dict = {}

    def __init__(self, work_dir: Path, seed: int, size: str, hooks: Hooks):
        self.work = Path(work_dir)
        self.work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.p = self.FULL if size == "full" else self.TINY
        self.hooks = hooks
        # One stream per workload, so workloads with the same seed differ.
        self.rng = np.random.default_rng([seed, sorted(WORKLOADS).index(self.name)])

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec: Recorder) -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        """n, m and sizes of every input, for the run environment."""
        raise NotImplementedError

    def summary(self, rec: Recorder) -> dict:
        """Workload metrics named as in the benchmark documentation."""
        raise NotImplementedError

    def keys(self) -> list[str]:
        raise NotImplementedError

    def throughput_labels(self) -> list[str]:
        """Operation labels that make up the workload's throughput."""
        return [f"{self.name}:{key}" for key in self.keys()]

    latency_labels = throughput_labels

    def items_per_s(self, rec: Recorder) -> float:
        """Work items per second of one pass built from each input's fastest run.

        Timings on a shared machine switch between speed regimes that last
        seconds; the fastest run of each input is the steady estimate of the
        code's own cost.  Means and medians are in :meth:`summary`.
        """
        items = seconds = 0.0
        for label in self.throughput_labels():
            s, n = rec.select(lambda x, label=label: x == label)
            items += n[0]
            seconds += s.min()
        return items / seconds

    def fastest_gm_ms(self, rec: Recorder) -> float:
        """Geometric mean over inputs of each input's fastest operation."""
        fastest = [rec.select(lambda x, label=label: x == label)[0].min() for label in self.latency_labels()]
        return _geomean(fastest) * 1e3

    def mean_items_per_s(self, rec: Recorder) -> float:
        """Work items per second over every timed operation of the run."""
        seconds, items = rec.select(lambda label: True)
        return float(items.sum() / seconds.sum())

    def per_key(self, rec: Recorder, unit: str) -> dict:
        """Median time and work rate of each input."""
        out = {}
        for key in self.keys():
            s, items = rec.select(lambda label, key=key: label == f"{self.name}:{key}")
            out[key] = {
                "median_s": float(np.median(s)),
                "fastest_s": float(s.min()),
                "runs": len(s),
                f"{unit}_per_run": int(items[0]),
                f"{unit}_per_s": float(items.sum() / s.sum()),
            }
        return out

    def _write(self, name: str, text: str) -> Path:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return path


# -- eval -------------------------------------------------------------------


def _reference_matrix(kind, params, offsets, points, times):
    """(k, m) branch values from the activations' closed forms.

    ``times`` holds one time per point.  clipped: L(z) = z^2/2 on [-1, 2],
    linear with slopes -1 and 2 outside, L_rec(d) = -d or 2d.  snp:
    L(z) = max(|z| - 1, 0), so t L(d/t) = max(|d| - t, 0) and L_rec(d) = |d|.
    quad (arch2, J = -|x|^2/2): J(x - t v) + t b, expanded so that the
    cross term is one matrix product.
    """
    t = np.asarray(times, dtype=float)[:, None]
    if kind == "clipped":
        d = points[:, :1] - params[:, 0][None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            moving = np.where(d < -t, -d - 0.5 * t, np.where(d > 2.0 * t, 2.0 * d - 2.0 * t, 0.5 * d * d / t))
        initial = np.where(d < 0.0, -d, 2.0 * d)
        return np.where(t > 0.0, moving, initial) + offsets
    if kind == "snp":
        sq = (points * points).sum(1)[:, None] - 2.0 * points @ params.T + (params * params).sum(1)
        dist = np.sqrt(np.maximum(sq, 0.0))
        return np.where(t > 0.0, np.maximum(dist - t, 0.0), dist) + offsets
    xx = (points * points).sum(1)[:, None]
    vv = (params * params).sum(1)[None, :]
    return -0.5 * (xx - 2.0 * t * (points @ params.T) + t * t * vv) + t * offsets


def _check_rows(reference, values, argmins, gaps):
    """Per-row verdicts plus the mask of rows whose argmin is decisive."""
    m = reference.shape[1]
    best = reference.argmin(axis=1)
    ref_values = reference[np.arange(reference.shape[0]), best]
    scale = 1.0 + np.abs(ref_values)
    ok = np.abs(values - ref_values) <= VALUE_RTOL * scale
    if m == 1:
        return ok, np.ones_like(ok)
    two = np.partition(reference, 1, axis=1)[:, :2]
    margin = two[:, 1] - two[:, 0]
    decisive = margin > ARGMIN_BAND * scale
    ok &= ~decisive | (argmins == best + 1)
    ok &= np.abs(gaps - margin) <= VALUE_RTOL * scale
    return ok, decisive


class Eval(Workload):
    """Library calls: single-point ``evaluate`` and 10,000-point batches.

    Why: this is the paper's headline operation.  At small n the cost is
    per-call overhead (validation, the activation wrapper); at large m, in
    batch, it is the Python loop over branches.  The output and oracle
    layers are bypassed; simplex work appears only in set-up, through the
    linf and l1 certificates.
    """

    name = "eval"
    FULL = dict(snp_n=100, snp_m=64, linf_n=100, l1_n=8, calls_per_net=1000, batch=10_000, t0_share=0.2)
    TINY = dict(snp_n=4, snp_m=5, linf_n=3, l1_n=3, calls_per_net=10, batch=40, t0_share=0.2)

    # Smoke-test hook: called as tamper(argmins, decisive) on each batch
    # result before it is checked.
    tamper = None

    def keys(self):
        return ["clipped1d", "snp100", "linf100", "l1_8"]

    def setup(self):
        from hjeval.config import load_problem

        p, rng = self.p, self.rng
        n, m = p["snp_n"], p["snp_m"]
        self.ref = {
            "clipped1d": ("clipped", rng.uniform(-3.0, 3.0, (3, 1)), rng.uniform(-1.0, 1.0, 3)),
            "snp100": ("snp", rng.uniform(-1.0, 1.0, (m, n)), rng.uniform(-1.0, 1.0, m)),
            "linf100": ("quad", _norm_rows("linf", p["linf_n"]), np.zeros(2 * p["linf_n"])),
            "l1_8": ("quad", _norm_rows("l1", p["l1_n"]), np.zeros(2 ** p["l1_n"])),
        }
        texts = {
            "clipped1d": _problem_text("arch1", "clipped_quadratic", *self.ref["clipped1d"][1:]),
            "snp100": _problem_text("arch1", "shifted_norm_plus", *self.ref["snp100"][1:]),
            "linf100": _problem_text("arch2", "neg_half_squared_norm", generator="linf", n=p["linf_n"]),
            "l1_8": _problem_text("arch2", "neg_half_squared_norm", generator="l1", n=p["l1_n"]),
        }
        self.nets = {}
        for key, text in texts.items():
            self.hooks.begin(f"setup:{key}")
            self.nets[key] = load_problem(self._write(f"{key}.cfg", text)).build_net()
        self.arch1 = {key: self.ref[key][0] != "quad" for key in self.keys()}

        # Single-point stream: an exact share of t = 0 calls per net, in a
        # seeded order over all nets.
        stream = []
        calls = p["calls_per_net"]
        zero = int(round(p["t0_share"] * calls))
        for key in self.keys():
            dim = self.nets[key].dimension
            xs = rng.uniform(-4.0, 4.0, (calls, dim))
            ts = np.concatenate([np.zeros(zero), rng.uniform(0.1, 3.0, calls - zero)])
            stream.extend((key, xs[i], float(ts[i])) for i in range(calls))
        order = rng.permutation(len(stream))
        self.stream = [stream[i] for i in order]
        self.batches = {
            key: (rng.uniform(-4.0, 4.0, (p["batch"], self.nets[key].dimension)), float(rng.uniform(0.1, 3.0)))
            for key in self.keys()
        }
        self._stream_ref = None

    def describe(self):
        return {
            key: {
                "architecture": "arch1" if self.arch1[key] else "arch2",
                "n": self.nets[key].dimension,
                "m": self.nets[key].n_branches,
                "single_calls_per_pass": self.p["calls_per_net"],
                "t0_share": self.p["t0_share"],
                "batch_points": self.p["batch"],
            }
            for key in self.keys()
        }

    def run_pass(self, rec):
        begin = self.hooks.begin
        count = len(self.stream)
        values = np.empty(count)
        argmins = np.empty(count, dtype=int)
        gaps = np.empty(count)
        seconds = np.empty(count)
        for j, (key, x, t) in enumerate(self.stream):
            net = self.nets[key]
            begin(f"eval:{key}")
            if t == 0.0 and self.arch1[key]:
                start = perf_counter()
                result = net.initial_value(x)
                seconds[j] = perf_counter() - start
            else:
                start = perf_counter()
                result = net.evaluate(x, t)
                seconds[j] = perf_counter() - start
            values[j], argmins[j], gaps[j] = result.value, result.argmin_index, result.gap

        batch_out = {}
        for key, (points, t) in self.batches.items():
            net = self.nets[key]
            begin(f"eval:{key}:batch")
            start = perf_counter()
            out = net.solution_grid(points, t)
            batch_out[key] = (perf_counter() - start, out)

        with self.hooks.paused():
            ok = self._check_stream(values, argmins, gaps)
            for j, (key, _, _) in enumerate(self.stream):
                rec.add(f"eval:{key}", seconds[j], 1, ok[j])
            for key, (elapsed, out) in batch_out.items():
                rec.add(f"eval:{key}:batch", elapsed, len(out[0]), self._check_batch(key, out))

    def _check_stream(self, values, argmins, gaps):
        if self._stream_ref is None:
            self._stream_ref = {}
            for key in self.keys():
                idx = np.array([j for j, entry in enumerate(self.stream) if entry[0] == key])
                points = np.stack([self.stream[j][1] for j in idx])
                times = np.array([self.stream[j][2] for j in idx])
                kind, params, offsets = self.ref[key]
                self._stream_ref[key] = (idx, _reference_matrix(kind, params, offsets, points, times))
        ok = np.zeros(len(values), dtype=bool)
        for idx, reference in self._stream_ref.values():
            ok[idx], _ = _check_rows(reference, values[idx], argmins[idx], gaps[idx])
        return ok

    def _check_batch(self, key, out):
        values, argmins, gaps = (np.array(a) for a in out)
        points, t = self.batches[key]
        kind, params, offsets = self.ref[key]

        def check():
            ok, decisive = np.empty(len(points), dtype=bool), np.empty(len(points), dtype=bool)
            for lo in range(0, len(points), CHECK_CHUNK):
                rows = slice(lo, lo + CHECK_CHUNK)
                chunk = points[rows]
                reference = _reference_matrix(kind, params, offsets, chunk, np.full(len(chunk), t))
                ok[rows], decisive[rows] = _check_rows(reference, values[rows], argmins[rows], gaps[rows])
            return ok, decisive

        if self.tamper is not None:
            self.tamper(argmins, check()[1])
        ok, decisive = check()
        # Single-point and batch evaluation must agree on the same points.
        net = self.nets[key]
        for i in range(min(AGREEMENT_POINTS, len(points))):
            single = net.evaluate(points[i], t)
            ok[i] &= abs(single.value - values[i]) <= VALUE_RTOL * (1.0 + abs(values[i]))
            ok[i] &= not decisive[i] or single.argmin_index == argmins[i]
        return bool(ok.all())

    def summary(self, rec):
        single_s, _ = rec.select(lambda label: not label.endswith(":batch"))
        batch_s, batch_pts = rec.select(lambda label: label.endswith(":batch"))
        per_net = {}
        for key in self.keys():
            s, _ = rec.select(lambda label, key=key: label == f"eval:{key}")
            bs, bp = rec.select(lambda label, key=key: label == f"eval:{key}:batch")
            per_net[key] = {
                "point_p50_us": float(np.median(s)) * 1e6,
                "point_p99_us": float(np.percentile(s, 99)) * 1e6,
                "point_fastest_us": float(s.min()) * 1e6,
                "point_samples": len(s),
                "batch_us_per_point": float(bs.sum() / bp.sum()) * 1e6,
                "batch_fastest_us_per_point": float(bs.min() / bp[0]) * 1e6,
                "batch_points": int(bp.sum()),
            }
        return {
            "point_p50_us": (float(np.median(single_s)) * 1e6, "us"),
            "point_p99_us": (float(np.percentile(single_s, 99)) * 1e6, "us"),
            "point_samples": (len(single_s), "count"),
            "batch_points_per_s": (float(batch_pts.sum() / batch_s.sum()), "points/s"),
            "per_net": per_net,
            "items": "batch points through solution_grid",
        }

    def throughput_labels(self):
        return [f"eval:{key}:batch" for key in self.keys()]

    def latency_labels(self):
        return [f"eval:{key}" for key in self.keys()]


# -- commands ----------------------------------------------------------------


def _run_cli(argv) -> int:
    """``hjeval.cli.main`` with its standard output captured, as a pipe would."""
    import hjeval.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _clear(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for path in directory.iterdir():
        path.unlink()


def _fmt17(x) -> str:
    return format(float(x), ".17g")


class Slice(Workload):
    """``hjeval slice`` through ``cli.main`` on seeded generated configs.

    Why: writing the CSVs is most of this command (about 85% at the sizes
    below, over 90% at 101 x 101), while evaluation with small m is under a
    tenth of it.  The formatting layer does most of the work here and none
    anywhere else.
    """

    name = "slice"
    # 41 x 41 planes at 4 times (6,724 rows), not 101 x 101 (40,804): a
    # command takes about 40 ms, so a run holds a few hundred of each and
    # each config's fastest run is steady from run to run.  At 101 x 101 a
    # command takes a quarter of a second and its fastest run moved by up to
    # a third between runs.
    FULL = dict(plane_steps=41, line_steps=801, plane10_m=8, line_m=5)
    TINY = dict(plane_steps=5, line_steps=11, plane10_m=3, line_m=3)

    # Smoke-test hook: called as tamper(paths) on each command's CSVs
    # before they are checked.
    tamper = None

    def keys(self):
        return ["plane10", "plane5_linf", "line1"]

    def setup(self):
        p, rng = self.p, self.rng
        steps = p["plane_steps"]

        def times(count, zero=False):
            # Distinct tenths plus one shared jitter: no time is a short
            # decimal or a binary fraction, so every t and value column is
            # written at full .17g length and the CSV bytes do not depend on
            # the seed.
            picks = np.sort(rng.choice(np.arange(1, 50), count, replace=False)) / 10.0 + rng.uniform(0.01, 0.09)
            return ([0.0] if zero else []) + [float(v) for v in picks]

        def plane(n, t):
            axes = np.sort(rng.choice(n, 2, replace=False))
            fixed = rng.uniform(-1.0, 1.0, n - 2)
            lines = [
                f"free_axes = {axes[0]}, {axes[1]}",
                f"range = -6, 6, {steps}",
                f"range = -6, 6, {steps}",
                "fixed = " + ", ".join(_num(v) for v in fixed),
                "times = " + ", ".join(_num(v) for v in t),
            ]
            return "\n".join(lines) + "\n"

        m = p["plane10_m"]
        line_m = p["line_m"]
        lo, hi = rng.uniform(-6.0, -3.0), rng.uniform(3.0, 6.0)
        specs = {
            "plane10": (
                _problem_text(
                    "arch1", "shifted_norm_plus", rng.uniform(-3.0, 3.0, (m, 10)), rng.uniform(-1.0, 1.0, m)
                ),
                plane(10, times(4)),
                False,
            ),
            "plane5_linf": (
                _problem_text("arch2", "neg_half_squared_norm", generator="linf", n=5),
                plane(5, times(3, zero=True)),
                True,
            ),
            "line1": (
                _problem_text(
                    "arch1",
                    "clipped_quadratic",
                    rng.uniform(-3.0, 3.0, (line_m, 1)),
                    rng.uniform(-1.0, 1.0, line_m),
                ),
                "free_axes = 0\n"
                f"range = {_num(lo)}, {_num(hi)}, {p['line_steps']}\n"
                "times = " + ", ".join(_num(v) for v in times(2)) + "\n",
                False,
            ),
        }
        # key -> (argv, problem config, slice config, output directory)
        self.commands = {}
        for key, (problem, slice_text, render) in specs.items():
            config = self._write(f"{key}.cfg", problem)
            spec = self._write(f"{key}.slice", slice_text)
            out_dir = self.work / "out" / key
            argv = ["slice", "--config", str(config), "--slice", str(spec), "--out", str(out_dir / key)]
            self.commands[key] = (argv + ["--render"] if render else argv, config, spec, out_dir)
        self._expected = {}

    def describe(self):
        from hjeval.config import load_problem, load_slice

        info = {}
        for key, (argv, config, spec_path, _) in self.commands.items():
            net = load_problem(config).build_net()
            spec = load_slice(spec_path)
            info[key] = {
                "architecture": "arch1" if hasattr(net, "shifts") else "arch2",
                "n": net.dimension,
                "m": net.n_branches,
                "grid": list(spec.grid_shape()),
                "times": list(spec.times),
                "render": "--render" in argv,
            }
        return info

    def _expected_files(self, key):
        """The benchmark's own .17g rendering of ``evaluate_slice``."""
        if key not in self._expected:
            from hjeval.config import load_problem, load_slice
            from hjeval.slicing import evaluate_slice

            _, config, spec_path, _ = self.commands[key]
            spec = load_slice(spec_path)
            result = evaluate_slice(load_problem(config).build_net(), spec)
            header = ",".join(f"x{axis}" for axis in spec.free_axes) + ",t,value,argmin,gap"
            coords = [",".join(_fmt17(c) for c in row) for row in result.grid]
            files = {}
            for table in result.tables:
                t = _fmt17(table.t)
                lines = [header]
                lines.extend(
                    f"{c},{t},{_fmt17(v)},{int(a)},{_fmt17(g)}"
                    for c, v, a, g in zip(coords, table.values, table.argmin_indices, table.gaps)
                )
                name = f"{key}_t{format(float(table.t), 'g')}.csv"
                files[name] = ("\n".join(lines) + "\n").encode("utf-8")
            shape = spec.grid_shape()
            width, height = (shape[0], 1) if len(shape) == 1 else (shape[1], shape[0])
            self._expected[key] = (files, width, height, len(result.tables) * len(coords))
        return self._expected[key]

    def run_pass(self, rec):
        for key, (argv, _, _, out_dir) in self.commands.items():
            _clear(out_dir)
            self.hooks.begin(f"slice:{key}")
            start = perf_counter()
            code = _run_cli(argv)
            elapsed = perf_counter() - start
            with self.hooks.paused():
                files, width, height, rows = self._expected_files(key)
                ok = code == 0 and self._check_outputs(out_dir, files, width, height, "--render" in argv)
            rec.add(f"slice:{key}", elapsed, rows, ok)

    def _check_outputs(self, out_dir, files, width, height, render):
        written = sorted(p.name for p in out_dir.iterdir())
        csvs = [name for name in written if name.endswith(".csv")]
        if self.tamper is not None:
            self.tamper([out_dir / name for name in csvs])
        if csvs != sorted(files):
            return False
        for name in csvs:
            if (out_dir / name).read_bytes() != files[name]:
                return False
        pgms = [name for name in written if name.endswith(".pgm")]
        if not render:
            return not pgms
        if pgms != sorted(name[: -len(".csv")] + ".pgm" for name in files):
            return False
        header = f"P5\n{width} {height}\n255\n".encode("ascii")
        for name in pgms:
            data = (out_dir / name).read_bytes()
            if not data.startswith(header) or len(data) != len(header) + width * height:
                return False
        return True

    def summary(self, rec):
        return {
            "slice_rows_per_s": (self.mean_items_per_s(rec), "rows/s"),
            "per_config": self.per_key(rec, "rows"),
            "items": "CSV rows written",
        }


class Certify(Workload):
    """``InitialDataNet`` construction: the envelope certificate.

    Why: the simplex layer does almost all the work.  The linf and l1 sets
    are degenerate (all offsets 0, many LPs tie); the paraboloid sets
    b = |v|^2/2 are in general position, so a witness shortcut that only
    fits the linf/l1 structure cannot pass for a general gain.  The last set
    has one row lifted above the envelope and must be rejected, naming that
    row, after all earlier rows are certified.
    """

    name = "certify"
    FULL = dict(linf=(50, 100), l1=8, para=((10, 100), (5, 400)), planted=(10, 100))
    TINY = dict(linf=(3, 5), l1=3, para=((3, 10), (2, 20)), planted=(3, 10))
    # Sets whose certificate takes a quarter of a second or less.  They run
    # SHORT_RUNS times a pass, the others once, so that their fastest
    # runs rest on more samples: machine speed swings by a third from second
    # to second, and a short set run only eight times may miss every fast
    # second.
    SHORT = ("linf50", "l1_8", "para10x100", "planted10x100")
    SHORT_RUNS = 2

    def keys(self):
        return ["linf50", "linf100", "l1_8", "para10x100", "para5x400", "planted10x100"]

    def setup(self):
        from hjeval.catalog import ConcaveFn, HalfSquaredNorm

        p, rng = self.p, self.rng
        self.activation = ConcaveFn(HalfSquaredNorm())

        def paraboloid(n, m):
            rows = rng.normal(size=(m, n))
            return rows, 0.5 * (rows * rows).sum(1)

        # The seed scales the degenerate sets; their structure (zero
        # offsets, tied LPs) is what the workload is about.  The scales are
        # powers of two, which scale every LP step exactly, so the pivots and
        # the cost are the same for every seed.
        sets = [_norm_rows("linf", n) * rng.choice((0.5, 1.0, 2.0)) for n in p["linf"]]
        sets.append(_norm_rows("l1", p["l1"]) * rng.choice((0.5, 1.0, 2.0)))
        self.sets = {key: (rows, np.zeros(len(rows))) for key, rows in zip(self.keys(), sets)}
        for key, (n, m) in zip(self.keys()[3:5], p["para"]):
            self.sets[key] = paraboloid(n, m)
        n, m = p["planted"]
        rows, offsets = paraboloid(n, m)
        # Last row: a convex combination of three earlier rows, lifted above
        # the combination's offset, so it lies strictly above the envelope.
        weights = rng.dirichlet(np.ones(3))
        donors = rng.choice(m - 1, 3, replace=False)
        rows[-1] = weights @ rows[donors]
        offsets[-1] = weights @ offsets[donors] + 0.25
        self.sets["planted10x100"] = (rows, offsets)
        self.planted_row = m

    def describe(self):
        return {
            key: {
                "n": rows.shape[1],
                "m": rows.shape[0],
                "kind": "planted violation" if key.startswith("planted") else (
                    "paraboloid" if key.startswith("para") else "degenerate norm"
                ),
            }
            for key, (rows, _) in self.sets.items()
        }

    def run_pass(self, rec):
        from hjeval.initialdata import InitialDataNet
        from hjeval.simplex import EnvelopeViolationError

        repeats = [key for _ in range(self.SHORT_RUNS - 1) for key in self.SHORT]
        for key in [*self.sets, *repeats]:
            rows, offsets = self.sets[key]
            self.hooks.begin(f"certify:{key}")
            error = None
            start = perf_counter()
            try:
                net = InitialDataNet(self.activation, rows, offsets)
            except EnvelopeViolationError as exc:
                error = exc
            elapsed = perf_counter() - start
            if key.startswith("planted"):
                ok = error is not None and error.certificate.index == self.planted_row
                scanned = error.certificate.index if error is not None else len(rows)
            else:
                ok = error is None and net.certificate.holds
                scanned = len(rows)
            rec.add(f"certify:{key}", elapsed, scanned, ok)

    def summary(self, rec):
        return {
            "certify_rows_per_s": (self.mean_items_per_s(rec), "rows/s"),
            "per_set": self.per_key(rec, "rows"),
            "items": "envelope rows certified, or scanned before the rejection",
        }


class Verify(Workload):
    """``hjeval verify`` through ``cli.main`` on seeded configs.

    Why: the only workload where the ``oracle`` and ``numeric`` modules carry
    most of the work.  It also uses ``simplex`` unlike ``certify``:
    thousands of LPs with m of about 4 (the 2-D velocity-form oracle solves
    one per grid node) rather than a few with m in the hundreds.
    """

    name = "verify"
    # Few samples per command, so that one run holds about a hundred passes
    # and each config's fastest run catches the machine's fast moments.
    FULL = dict(samples_1d=10, samples_2d=2, pts_2d=21, samples_10d=30)
    TINY = dict(samples_1d=4, samples_2d=2, pts_2d=5, samples_10d=5)

    def keys(self):
        return ["clipped1d", "pwa1d", "pwa2d", "ball10d", "pwa10d"]

    def setup(self):
        p, rng = self.p, self.rng

        def convex_offsets(rows):
            return rng.uniform(0.5, 1.5) * 0.5 * (rows * rows).sum(1)

        # Integer velocities whose hull is the box [-2, 2]^n, so every row is
        # a node of the oracle's velocity grid.  The hull is the same for
        # every seed: the velocity-form oracle's cost depends on it.
        pwa1 = np.array([[-2.0], [float(rng.integers(-1, 2))], [2.0]])
        pwa2 = 2.0 * _norm_rows("l1", 2)
        pwa10 = rng.normal(size=(8, 10))
        clipped = np.sort(rng.uniform(-3.0, 3.0, 3))
        specs = {
            "clipped1d": (
                _problem_text("arch1", "clipped_quadratic", clipped[:, None], rng.uniform(-1.0, 0.0, 3)),
                ["--samples", str(p["samples_1d"])],
            ),
            "pwa1d": (
                _problem_text("arch2", "neg_half_squared_norm", pwa1, convex_offsets(pwa1)),
                ["--samples", str(p["samples_1d"])],
            ),
            "pwa2d": (
                _problem_text("arch2", "neg_half_squared_norm", pwa2, convex_offsets(pwa2)),
                ["--samples", str(p["samples_2d"]), "--pts", str(p["pts_2d"])],
            ),
            "ball10d": (
                _problem_text(
                    "arch1", "shifted_norm_plus", rng.uniform(-3.0, 3.0, (8, 10)), rng.uniform(-1.0, 1.0, 8)
                ),
                ["--samples", str(p["samples_10d"]), "--residual-only"],
            ),
            "pwa10d": (
                _problem_text("arch2", "neg_half_squared_norm", pwa10, 0.5 * (pwa10 * pwa10).sum(1)),
                ["--samples", str(p["samples_10d"]), "--residual-only"],
            ),
        }
        out_dir = self.work / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        # key -> (argv, problem config, report file, samples, extra arguments)
        self.commands = {}
        for i, (key, (problem, extra)) in enumerate(specs.items()):
            config = self._write(f"{key}.cfg", problem)
            argv = ["verify", "--config", str(config), "--seed", str(self.seed * 10 + i), "--out", str(out_dir / key)]
            self.commands[key] = (argv + extra, config, out_dir / f"{key}.kv", int(extra[1]), extra)

    def describe(self):
        from hjeval.config import load_problem

        info = {}
        for key, (_, config, _, samples, extra) in self.commands.items():
            net = load_problem(config).build_net()
            info[key] = {
                "architecture": "arch1" if hasattr(net, "shifts") else "arch2",
                "n": net.dimension,
                "m": net.n_branches,
                "samples": samples,
                "args": extra,
            }
        return info

    def run_pass(self, rec):
        for key, (argv, _, kv, samples, _) in self.commands.items():
            if kv.exists():
                kv.unlink()
            self.hooks.begin(f"verify:{key}")
            start = perf_counter()
            code = _run_cli(argv)
            elapsed = perf_counter() - start
            ok = code == 0 and kv.exists() and "passed=true" in kv.read_text(encoding="utf-8").splitlines()
            rec.add(f"verify:{key}", elapsed, samples, ok)

    def summary(self, rec):
        return {
            "verify_samples_per_s": (self.mean_items_per_s(rec), "samples/s"),
            "per_config": self.per_key(rec, "samples"),
            "items": "verify samples completed",
        }


WORKLOADS = {cls.name: cls for cls in (Eval, Slice, Certify, Verify)}
