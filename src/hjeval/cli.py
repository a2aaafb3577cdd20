"""Command-line front end: eval, slice, verify, bench.

Exit codes: 0 success or verification pass, 1 validation error,
2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

from .bench import bench_csv, run_bench
from .config import ConfigError, load_problem, load_slice, parse_floats, parse_ints
from .numeric import MAX_GRID_DIM
from .oracle import OracleConfig, verify_report
from .output import format_17g, write_slice_csv, write_slice_pgm
from .simplex import EnvelopeViolationError
from .slicing import evaluate_slice

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY_FAIL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let values like "-2,0,0" (coordinate lists starting with a negative
        # number) and "-inf" parse as arguments instead of being mistaken for
        # options, so the field checks can name what is wrong with them.
        self._negative_number_matcher = re.compile(r"(?i)^-(?:(?=[\d.])[\d.,e+-]*|inf(?:inity)?)$")

    def error(self, message):  # route usage errors to the validation exit code
        raise ConfigError("usage", message)


@functools.cache  # parse_args leaves the parser unchanged: build it once
def _build_parser() -> _Parser:
    parser = _Parser(prog="hjeval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="evaluate the solution at one point")
    p_eval.add_argument("--config", required=True, help="problem config path")
    p_eval.add_argument("--x", required=True, help="comma-separated point coordinates")
    p_eval.add_argument("--t", required=True, type=float, help="finite time (>= 0)")

    p_slice = sub.add_parser("slice", help="evaluate a slice and write CSVs")
    p_slice.add_argument("--config", required=True, help="problem config path")
    p_slice.add_argument("--slice", required=True, dest="slice_path", help="slice config path")
    p_slice.add_argument("--out", required=True, help="output path prefix")
    p_slice.add_argument("--render", action="store_true", help="also write grayscale pixmaps")

    p_verify = sub.add_parser("verify", help="run the seeded verification report")
    p_verify.add_argument("--config", required=True, help="problem config path")
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default="verify", help="report path prefix")
    p_verify.add_argument(
        "--residual-only",
        action="store_true",
        help=f"skip the oracle comparison (required above {MAX_GRID_DIM} dimensions)",
    )
    p_verify.add_argument("--pts", type=int, default=40001, help="oracle grid points per axis")

    p_bench = sub.add_parser("bench", help="time single-point evaluations per dimension")
    p_bench.add_argument("--architecture", choices=("arch1", "arch2"), required=True)
    p_bench.add_argument("--dims", required=True, help="comma-separated dimensions")
    p_bench.add_argument("--m", type=int, default=8, help="branches per net (arch1 only)")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return parser


def _cmd_eval(args) -> int:
    net = load_problem(args.config).build_net()
    x = parse_floats("x", args.x)
    if len(x) != net.dimension:
        raise ConfigError("x", f"expected {net.dimension} coordinates, got {len(x)}")
    if not all(map(math.isfinite, x)):
        raise ConfigError("x", "coordinates must be finite")
    if not 0 <= args.t < math.inf:
        raise ConfigError("t", "must be finite and nonnegative")
    (value,), (argmin,), (gap,) = net.solution_grid([x], args.t)
    print(f"value={format_17g(value)} argmin={argmin} gap={format_17g(gap)}")
    return EXIT_OK


def _cmd_slice(args) -> int:
    net = load_problem(args.config).build_net()
    result = evaluate_slice(net, load_slice(args.slice_path))
    paths = write_slice_csv(result, args.out)
    if args.render:
        paths += write_slice_pgm(result, args.out)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_verify(args) -> int:
    net = load_problem(args.config).build_net()
    if net.dimension > MAX_GRID_DIM and not args.residual_only:
        raise ConfigError(
            "residual-only",
            f"oracle comparison is refused for dimension {net.dimension} > {MAX_GRID_DIM}; "
            "pass --residual-only to check the PDE residual instead",
        )
    cfg = OracleConfig(pts_per_axis=args.pts)
    report = verify_report(
        net, args.samples, args.seed, cfg, residual_only=args.residual_only
    )
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.with_suffix(".txt").write_text(report.to_text(), encoding="utf-8")
    out.with_suffix(".kv").write_text(report.to_kv(), encoding="utf-8")
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_bench(args) -> int:
    dims = parse_ints("dims", args.dims)
    rows = run_bench(args.architecture, dims, args.m, args.reps, args.seed)
    text = bench_csv(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "slice": _cmd_slice,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, EnvelopeViolationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
