#!/usr/bin/env python3
"""Mutation check: does tier-1 catch each of a fixed list of planted faults?

Run from any directory:

    python3 tools/mutants.py [-k SUBSTRING]

Each entry of ``MUTANTS`` is a ``(file, old, new, why)`` edit: ``old`` must
occur exactly once in ``file`` (a path under the checkout).  For each
mutant, ``src/`` and ``tests/`` are copied into a temporary directory, the
edit is applied to the copy, and tier-1 runs there with ``-x`` under a
per-mutant timeout of ``TIMEOUT`` seconds.  ``pyproject.toml``, which holds the pytest settings,
is copied beside them; the other top-level directories the tests read
(``configs/``, ``perfbench/``) are linked, not copied, and the checkout
itself is never written.  The unmutated copy runs first and must pass.

Prints one Markdown table row per mutant with its outcome:

* ``caught``: tier-1 failed, naming the first failing test;
* ``timeout``: tier-1 ran past the timeout (a mutant that makes a loop
  cycle, say);
* ``uncaught``: tier-1 passed;
* ``equivalent``: declared in ``EQUIVALENT`` with a reason, and not run;
* ``stale``: ``old`` no longer occurs exactly once, so the list needs
  updating.

``-k`` keeps the mutants whose ``why`` contains SUBSTRING.  The check is
not part of tier-1: it runs tier-1 once per mutant.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
LINKED = ("configs", "perfbench")
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TIER1 += ["--continue-on-collection-errors"]
# Unmutated tier-1 takes about 30 s; a cycling pivot loop once ran past 240 s.
TIMEOUT = 180.0

SIMPLEX = "src/hjeval/simplex.py"
MUTANTS = [
    (
        SIMPLEX,
        "min(tied, key=basis.__getitem__)",
        "max(tied, key=basis.__getitem__)",
        "Bland's tie-break reversed (lone-LP kernel)",
    ),
    (
        SIMPLEX,
        "else min(ratios) + 1e-12",
        "else min(ratios)",
        "ratio-test tie tolerance dropped (lone-LP kernel)",
    ),
    (
        SIMPLEX,
        "FEASIBILITY_TOL = 1e-9",
        "FEASIBILITY_TOL = 1e-3",
        "FEASIBILITY_TOL loosened to 1e-3",
    ),
    (
        SIMPLEX,
        "for i, columns in enumerate(basis.T):",
        "for i, columns in reversed(list(enumerate(basis.T))):",
        "phase-2 objective reduction reversed",
    ),
    (
        SIMPLEX,
        "        tableau[lps[~found], i, :m] = 0.0\n",
        "",
        "redundant rows not zeroed by the drive-out",
    ),
    (
        SIMPLEX,
        "passed = slack[rows] + bound[j, rows] <= ENVELOPE_TOL",
        "passed = slack[rows] <= ENVELOPE_TOL",
        "the screen's rounding bound dropped",
    ),
    (
        SIMPLEX,
        "left = left[~passed]",
        "left = left",
        "later witness scales overwrite earlier ones",
    ),
    (
        SIMPLEX,
        "np.subtract(product, offsets, out=",
        "np.subtract(product, 0.0, out=",
        "the screen's offsets dropped at scale 1",
    ),
    (
        SIMPLEX,
        "            if not left.size:\n                break\n",
        "            if left.size:\n                break\n",
        "the screen's no-row-left exit inverted",
    ),
    (
        SIMPLEX,
        "a_b = np.vstack([points[columns].T, np.ones(len(columns))])",
        "a_b = points[columns].T",
        "least-squares witness without the row of ones",
    ),
    (
        SIMPLEX,
        "witnesses[k] = _basis_witness(points, offsets, sol.basis[0])",
        "witnesses[k] = points[k]",
        "LP witness replaced by v_k",
    ),
    (
        "src/hjeval/branches.py",
        "band = vals[r, second] + 2.0 * bound",
        "band = vals[r, second] + bound",
        "the branch screen's 2e band cut to e",
    ),
    (
        "src/hjeval/catalog.py",
        'return np.einsum("ij,kj->ik", pts, self.rows) - offsets',
        "return pts @ self.rows.T - offsets",
        "the MaxAffine sum switched back to BLAS",
    ),
    (
        "src/hjeval/catalog.py",
        "return np.where(r <= 1.0 + DOMAIN_ATOL, r, np.inf)",
        "return np.where(r <= 2.0 + DOMAIN_ATOL, r, np.inf)",
        "wrong conjugate radius (NormOnBall on the ball of radius 2)",
    ),
    (
        "src/hjeval/oracle.py",
        "dx = (values[:, :n] - values[:, n : 2 * n]) / (2 * h)",
        "dx = (values[:, n : 2 * n] - values[:, :n]) / (2 * h)",
        "the FD stencil's sign flipped",
    ),
    (
        "src/hjeval/catalog.py",
        '    if not np.isfinite(arr).all():\n        raise ValueError("points must have finite coordinates")\n',
        "",
        "the activation's finiteness check removed",
    ),
    (
        "src/hjeval/numeric.py",
        "    return 0.0 - lowest\n",
        "    return lowest\n",
        "grid_conjugate's minus sign dropped",
    ),
    (
        "src/hjeval/branches.py",
        "offsets = form.offsets if cols is None else form.offsets[cols]",
        "offsets = form.offsets",
        "the branch formula's offsets given form.offsets, not form.offsets[cols]",
    ),
    (
        "src/hjeval/oracle.py",
        "times + h, times - h])",
        "times - h, times + h])",
        "the t + h and t - h stencil rows swapped",
    ),
    (
        "src/hjeval/lagrangian.py",
        "Form(L, L.radial, 1.0, 1.0, t,",
        "Form(L, L.radial, 1.0, 1.0, t if not np.ndim(t) else np.full(len(t), t[0]),",
        "every per-row time scaled by the first row's",
    ),
    (
        "src/hjeval/initialdata.py",
        "self._lifted, t, self.offsets)",
        "self._lifted, t if not np.ndim(t) else np.flip(t), self.offsets)",
        "the arch2 per-row weight t taken with the times reversed",
    ),
    (
        "src/hjeval/branches.py",
        "((other == first) & (cols[1] < cols[0]))",
        "((other == first) & (cols[1] > cols[0]))",
        "the screen pair's tie-break given to the larger index",
    ),
    (
        "src/hjeval/branches.py",
        "keep = third > band",
        "keep = np.full(len(x), True)",
        "the third-value test dropped (every row takes its pair)",
    ),
    (
        "src/hjeval/branches.py",
        "(0.5 * s.sign, s.weight)",
        "(0.5 * s.sign, 1.0)",
        "the screen's lifted offset weight fixed at 1 (arch2's square forms)",
    ),
    (
        "src/hjeval/branches.py",
        "if type(form.weight) is np.ndarray or form.weight != 1.0:",
        "if type(form.weight) is not np.ndarray and form.weight != 1.0:",
        "the per-row weight dropped in branch_formula",
    ),
    (
        "src/hjeval/branches.py",
        "else not t >= 0:",
        "else t < 0:",
        "the NaN refusal of one time dropped",
    ),
    (
        "src/hjeval/branches.py",
        "if not (t >= 0).all() if",
        "if np.isnan(t).any() if",
        "the per-row negative check dropped",
    ),
    (
        "src/hjeval/branches.py",
        ", ~np.isfinite(j) | (j == 0.0)",
        ", ~np.isfinite(j)",
        "the J(x) = 0 rows not redone (arch2 at t = 0)",
    ),
    (
        "src/hjeval/branches.py",
        "np.inf if len(form.centers) == 1 else 0.0",
        "0.0",
        "m = 1 gap not +inf (arch2 at t = 0)",
    ),
    (
        "src/hjeval/branches.py",
        "gaps = np.partition(matrix, 1, axis=1)[:, 1] - values",
        "gaps = np.diff(np.partition(matrix, 1, axis=1)[:, :2], axis=1)[:, 0]",
        "batch gap taken from the partition's first entry again",
    ),
    (
        "src/hjeval/catalog.py",
        "return min(abs(x + 1.0), abs(x - 2.0))",
        "return min(abs(x + 1.0), abs(x - 2.5))",
        "the shared kink distance's upper kink moved from 2 to 2.5",
    ),
    (
        "src/hjeval/config.py",
        '"param": (parse_floats, True),',
        '"param": (parse_floats, False),',
        "the param table entry marked as not repeated",
    ),
    (
        "src/hjeval/config.py",
        '_read(text, _PROBLEM_KEYS, ("architecture", "dimension", "function"))',
        '_read(text, _PROBLEM_KEYS, ("architecture", "dimension"))',
        "function dropped from the problem table's required keys",
    ),
    (
        "src/hjeval/output.py",
        "block = slice(start, start + GRID_BLOCK)",
        "block = slice(start, start + GRID_BLOCK - 1)",
        "the CSV chunk loop skipping each chunk's last row",
    ),
    (
        "src/hjeval/output.py",
        "        if path in paths:\n",
        "        if False:\n",
        "the repeated-path refusal dropped",
    ),
    (
        "src/hjeval/output.py",
        "np.rint(np.ldexp(err, e))",
        "np.floor(np.ldexp(err, e) + 0.5)",
        "the column formatter's ties rounded half up",
    ),
    (
        "src/hjeval/output.py",
        "fixed = (mag >= 1e-4) & (mag < 1e16)",
        "fixed = (mag >= 1e-5) & (mag < 1e16)",
        "the column formatter's fallback bound at 1e-5",
    ),
    (
        "src/hjeval/output.py",
        "if digits > exp + 1 else []",
        "if digits > exp + 1 else [_DOT]",
        "the column formatter's point kept with no digits after it",
    ),
    (
        "src/hjeval/branches.py",
        "if not 1 <= index <= self.n_branches:",
        "if False:",
        "the index check dropped",
    ),
    (
        "src/hjeval/numeric.py",
        "    if not f_u.min() > -np.inf:\n        ensure_extended(f_u)\n",
        "",
        "the position oracle's slow-path check of f dropped",
    ),
    (
        "src/hjeval/numeric.py",
        "    if not low > -np.inf:\n        ensure_extended(g_z)\n",
        "",
        "the position oracle's slow-path check of g dropped",
    ),
    (
        "src/hjeval/oracle.py",
        "        value = finite_minimum(vals)\n",
        "",
        "the velocity oracle's fallback to finite_minimum dropped",
    ),
    (
        "src/hjeval/oracle.py",
        "        ensure_extended(j)\n",
        "",
        "the velocity oracle's slow-path check of J dropped",
    ),
    (
        "src/hjeval/numeric.py",
        "            col[div - node :: pts_per_axis] = b",
        "            pass",
        "the grid's last-node write dropped",
    ),
    (
        "src/hjeval/catalog.py",
        "np.negative(d, out=2.0 * d, where=d < 0.0)",
        "np.negative(d, out=2.0 * d, where=d <= 0.0)",
        "the clipped recession's zeros negated (d <= 0)",
    ),
]

# why -> the reason no test can catch the mutant.
EQUIVALENT: dict[str, str] = {
    "phase-2 objective reduction reversed": (
        "the order only rounds the reduced costs differently, and Bland's rule "
        "reads them against PIVOT_TOL: under the mutant no value, weight or basis "
        "bit moves in tools/byte_identity.py's simplex/ section (every target of "
        "_stack_sets() x _stack_targets()), nor in any other of its 148 files"
    ),
    "the branch screen's 2e band cut to e": (
        "the pair must hold the exact minimum and runner-up, and a third branch "
        "outside the band lies above both once its screen value exceeds the "
        "second by 2 max|screen - exact|, so one bound suffices wherever "
        "|screen - exact| <= bound / 2; bound is twice the forward bound spread "
        "plus underflow, and under the lifted product the largest "
        "|screen - exact| / bound is 0.127 over the check_batch suites (2,981 "
        "screened blocks) and 0.187 over 3,000 batches of 64 points a few ulps "
        "from branch centres at scales 1e-3 to 1e9 (0.167 there under the "
        "previous product)"
    ),
}


def _tree(tmp: Path) -> Path:
    """A fresh copy of the checkout's tested files under ``tmp``."""
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, tmp / name)
    for name in LINKED:
        (tmp / name).symlink_to(ROOT / name)
    return tmp


def _tier1(tree: Path):
    """Run tier-1 in ``tree``: (returncode or None on timeout, output, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        TIER1,
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "", time.perf_counter() - start
    return proc.returncode, out, time.perf_counter() - start


def _first_failure(output: str) -> str:
    # The whole node id: a parametrized id may hold spaces, and pytest ends
    # the id with " - " and the message, or with the line.
    match = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.MULTILINE)
    return match.group(1) if match else "tier-1 exited nonzero"


def run_mutant(mutant) -> tuple[str, str, float]:
    """(outcome, detail, seconds) of one mutant."""
    path, old, new, why = mutant
    if why in EQUIVALENT:
        return "equivalent", EQUIVALENT[why], 0.0
    text = (ROOT / path).read_text()
    if text.count(old) != 1:
        return "stale", f"the edit's old text occurs {text.count(old)} times in {path}", 0.0
    with tempfile.TemporaryDirectory(prefix="hjeval-mutant-") as tmp:
        tree = _tree(Path(tmp))
        (tree / path).write_text(text.replace(old, new))
        code, output, seconds = _tier1(tree)
    if code is None:
        return "timeout", f"past {TIMEOUT:g} s", seconds
    if code == 0:
        return "uncaught", "tier-1 passed", seconds
    return "caught", _first_failure(output), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", default="", help="only mutants whose why contains this")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if args.k in m[3]]

    with tempfile.TemporaryDirectory(prefix="hjeval-mutant-") as tmp:
        code, output, seconds = _tier1(_tree(Path(tmp)))
    if code != 0:
        tail = output.strip().splitlines()[-1:] if output else [f"past {TIMEOUT:g} s"]
        print(f"unmutated tier-1 does not pass: {tail[0]}", file=sys.stderr)
        return 1
    print(f"unmutated tier-1 passes in {seconds:.0f} s\n")
    print("| # | file | mutant | outcome | detail | s |")
    print("|---|---|---|---|---|---|")
    outcomes = []
    for i, mutant in enumerate(mutants, 1):
        outcome, detail, seconds = run_mutant(mutant)
        outcomes.append(outcome)
        name = Path(mutant[0]).name
        print(f"| {i} | {name} | {mutant[3]} | {outcome} | `{detail}` | {seconds:.0f} |", flush=True)
    counts = {o: outcomes.count(o) for o in dict.fromkeys(outcomes)}
    print("\n" + ", ".join(f"{n} {o}" for o, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
