#!/usr/bin/env python3
"""Write a fixed set of hjeval outputs and a SHA-256 manifest of them.

Run from any directory:

    python3 tools/byte_identity.py OUT

OUT receives, from the source tree this script sits in:

* ``slice/``: the CSVs and pixmaps of every shipped problem/slice pair
  (the pairs of ``demos/figure_slices.py``), through ``hjeval slice --render``;
* ``verify/``: ``hjeval verify`` ``.kv`` and ``.txt`` reports of every shipped
  problem at seeds 0 and 5 (``--residual-only`` above three dimensions,
  ``--pts 4001`` for pwa1d), plus, at ``--samples 20``, two 2-D arch2
  problems at ``--pts 21`` (general rows, and zero-offset l1 rows whose
  LPs tie) and a 3-D arch2 problem at ``--pts 9``: each solves its
  velocity grid's simplex LPs once, and one grid serves many samples;
* ``eval/``: ``solution_grid`` values, argmins and gaps (``tobytes()``) of
  every shipped problem and of two max-affine problems, at t > 0 and t = 0;
* ``oracle/``: the velocity grid and H* on it (``tobytes()``), as ``verify``
  builds them, of each of those arch2 problems;
* ``certificate/``: the envelope certificate's witnesses and slack
  (``tobytes()``) and its ``screened`` counts, for every arch2 problem
  above, for a 1-D set that the witness screen mostly leaves to the LP,
  for paraboloids b = c |v|^2 / 2 with c = 2 and 1/2 (mostly certified by
  the screen's scales 2 and 1/2) and for the l1 rows at n = 8; for a
  planted violation, its index, weights and envelope value;
* ``simplex/``: one-target simplex solves on every target of the LP sets of
  ``tests/test_simplex.py`` (``_stack_sets()`` x ``_stack_targets()``,
  infeasible targets included): one ``.txt`` line a target with the value
  (``hex``) and the basis, and the weights (``tobytes()``) in ``.bin``;
* ``MANIFEST.sha256``: one ``<sha256>  <path>`` line per file, sorted.

Two source trees produce identical manifests exactly when these outputs are
byte-identical: copy this script into each tree, run it, and compare the
manifests (``diff A/MANIFEST.sha256 B/MANIFEST.sha256``).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hjeval.cli import main as cli_main  # noqa: E402
from hjeval.config import load_problem  # noqa: E402
from hjeval.initialdata import norm_hamiltonian_rows  # noqa: E402
from hjeval.oracle import _hstar_eval, velocity_grid  # noqa: E402
from hjeval.simplex import lower_envelope_certificate, minimize_over_simplex  # noqa: E402

CONFIGS = ROOT / "configs"
PROBLEMS = ["clipped1d", "pwa1d", "ball10d", "pwa10d", "l1norm5d", "linfnorm5d"]
SLICES = [
    ("clipped1d", "slice_line1d"),
    ("pwa1d", "slice_line1d"),
    ("ball10d", "slice_plane10d"),
    ("pwa10d", "slice_plane10d_t0"),
    ("l1norm5d", "slice_plane5d"),
    ("linfnorm5d", "slice_plane5d"),
]
SEEDS = (0, 5)
EXTRA_PROBLEMS = {
    "pwa2d": (
        "architecture = arch2\ndimension = 2\nfunction = neg_half_squared_norm\n"
        "param = -1, 0, 0.5\nparam = 1, 1, 0\nparam = 0, -1, 1\n"
    ),
    "l1zero2d": (
        "architecture = arch2\ndimension = 2\nfunction = neg_half_squared_norm\n"
        "param = -1, -1, 0\nparam = -1, 1, 0\nparam = 1, -1, 0\nparam = 1, 1, 0\n"
    ),
    "pwa3d": (
        "architecture = arch2\ndimension = 3\nfunction = neg_half_squared_norm\n"
        "param = 1, 0, 0, 0.5\nparam = -1, 0, 0, 0.3\nparam = 0, 1, 0, 0.4\n"
        "param = 0, -1, 0, 0.6\nparam = 0, 0, 1, 0.2\nparam = 0, 0, -1, 0.7\n"
        "param = 0, 0, 0, -0.1\n"
    ),
    "maxaffine3d_arch1": (
        "architecture = arch1\ndimension = 3\nfunction = max_affine\n"
        "affine = 1, 0.5, -0.25, 0\naffine = -1, 0.3, 0.7, 0.1\naffine = 0.2, -1, 0.4, -0.2\n"
        "param = 0, 0, 0, 0\nparam = 1, -1, 0.5, 0.3\nparam = -0.7, 0.2, 1.1, -0.4\n"
    ),
    "maxaffine3d_arch2": (
        "architecture = arch2\ndimension = 3\nfunction = neg_max_affine\n"
        "affine = 1, 0.5, -0.25, 0\naffine = -1, 0.3, 0.7, 0.1\naffine = 0.2, -1, 0.4, -0.2\n"
        "param = 0, 0, 0, 0\nparam = 1, -1, 0.5, 0.3\nparam = -0.7, 0.2, 1.1, -0.4\n"
    ),
}

# Extra arch2 problems verified against the velocity-grid oracle: --pts of each.
VELOCITY_GRIDS = {"pwa2d": 21, "l1zero2d": 21, "pwa3d": 9}


def _certificate_sets():
    """(name, rows, offsets) pair sets for ``certificate/`` beside the arch2
    problems: offsets 5 x^2 on a 1-D grid, whose tangent slopes 10 x the
    screen's candidates s x miss (every row but x = 0 goes to the LP);
    3-D paraboloids c |v|^2 / 2 whose tangent slopes c v the screen's
    scales c = 2 and 1/2 meet; the l1 rows at n = 8 (zero offsets); and
    2-D offsets 2 |v|^2, mostly left to the LP, with the last row lifted
    0.25 above a convex combination of three others."""
    x = np.linspace(-2.0, 2.0, 9)
    yield "lpfallback1d", x[:, None], 5.0 * x**2
    rows = np.random.default_rng(7).normal(size=(60, 3))
    for label, c in (("2", 2.0), ("half", 0.5)):
        yield f"paraboloid3d_c{label}", rows, 0.5 * c * (rows * rows).sum(axis=1)
    yield "l1_8", *norm_hamiltonian_rows("l1", 8)
    rows = np.random.default_rng(3).normal(size=(12, 2))
    offsets = 2.0 * (rows * rows).sum(axis=1)
    weights = np.array([0.2, 0.3, 0.5])
    rows[-1] = weights @ rows[:3]
    offsets[-1] = weights @ offsets[:3] + 0.25
    yield "planted2d", rows, offsets


def _lp_sets():
    """(name, points, costs, targets) of the stacked-solve tests."""
    spec = importlib.util.spec_from_file_location("test_simplex", ROOT / "tests" / "test_simplex.py")
    tests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tests)
    for seed, (name, points, costs) in enumerate(tests._stack_sets()):
        yield name, points, costs, tests._stack_targets(points, seed)


def _cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"hjeval {' '.join(map(str, argv))} exited {code}")


def write_outputs(out: Path) -> None:
    configs = {name: CONFIGS / f"{name}.cfg" for name in PROBLEMS}
    for name, text in EXTRA_PROBLEMS.items():
        path = out / "configs" / f"{name}.cfg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        configs[name] = path

    (out / "slice").mkdir(parents=True, exist_ok=True)
    for problem, slice_name in SLICES:
        prefix = out / "slice" / f"{problem}_{slice_name}"
        _cli(["slice", "--config", configs[problem], "--slice", CONFIGS / f"{slice_name}.cfg",
              "--out", prefix, "--render"])

    for problem in PROBLEMS + list(VELOCITY_GRIDS):
        dimension = load_problem(configs[problem]).dimension
        for seed in SEEDS:
            argv = ["verify", "--config", configs[problem], "--seed", seed,
                    "--out", out / "verify" / f"{problem}_seed{seed}"]
            if dimension > 3:
                argv.append("--residual-only")
            if problem == "pwa1d":
                argv += ["--pts", 4001]
            if problem in VELOCITY_GRIDS:
                argv += ["--pts", VELOCITY_GRIDS[problem], "--samples", 20]
            _cli(argv)

    (out / "eval").mkdir(parents=True, exist_ok=True)
    for problem, path in configs.items():
        if problem in VELOCITY_GRIDS:
            continue
        net = load_problem(path).build_net()
        points = np.random.default_rng(11).uniform(-4.0, 4.0, (5000, net.dimension))
        for label, t in (("t1.3", 1.3), ("t0", 0.0)):
            values, argmins, gaps = net.solution_grid(points, t)
            blob = values.tobytes() + argmins.tobytes() + gaps.tobytes()
            (out / "eval" / f"{problem}_{label}.bin").write_bytes(blob)


    (out / "oracle").mkdir(parents=True, exist_ok=True)
    for problem, pts in VELOCITY_GRIDS.items():
        net = load_problem(configs[problem]).build_net()
        v, hstar_v = velocity_grid(_hstar_eval(net), net.rows.min(axis=0), net.rows.max(axis=0), pts)
        (out / "oracle" / f"{problem}_hstar.bin").write_bytes(v.tobytes() + hstar_v.tobytes())

    (out / "certificate").mkdir(parents=True, exist_ok=True)
    problems = {name: load_problem(path) for name, path in configs.items()}
    certificates = {
        name: problem.build_net().certificate
        for name, problem in problems.items()
        if problem.architecture == "arch2"
    }
    for name, rows, offsets in _certificate_sets():
        certificates[name] = lower_envelope_certificate(rows, offsets)
    for name, cert in certificates.items():
        text = f"holds={cert.holds}\nscreened={cert.screened}\n"
        if cert.holds:
            blob = cert.witnesses.tobytes() + cert.slack.tobytes()
        else:
            text += f"index={cert.index}\nenvelope_value={cert.envelope_value.hex()}\n"
            blob = cert.weights.tobytes()
        (out / "certificate" / f"{name}.txt").write_text(text, encoding="utf-8")
        (out / "certificate" / f"{name}.bin").write_bytes(blob)

    (out / "simplex").mkdir(parents=True, exist_ok=True)
    for name, points, costs, targets in _lp_sets():
        lines, blob = [], b""
        for target in targets:
            sol = minimize_over_simplex(costs, points, target)
            line = sol.value.hex()
            if sol.feasible:
                columns, redundant = sol.basis
                line += f" columns={','.join(map(str, columns))} redundant={','.join(map(str, redundant))}"
                blob += sol.weights.tobytes()
            lines.append(line + "\n")
        (out / "simplex" / f"{name}.txt").write_text("".join(lines), encoding="utf-8")
        (out / "simplex" / f"{name}.bin").write_bytes(blob)


def write_manifest(out: Path) -> Path:
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "MANIFEST.sha256"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(out).as_posix()}\n")
    manifest = out / "MANIFEST.sha256"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    write_outputs(out)
    print(write_manifest(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
