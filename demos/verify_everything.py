#!/usr/bin/env python3
"""Run the verification report on every shipped problem.

The 1-D problems are checked against the brute-force variational minimum
(the representations should match it to 2e-3) and against the PDE residual
at screened smooth points.  The 10-D problems skip the oracle -- that is the
whole point of the grid-free representations -- and run residual-only.

Run:
    python demos/verify_everything.py
"""

from pathlib import Path

from hjeval import OracleConfig, load_problem, verify_report

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ("clipped1d", OracleConfig(pts_per_axis=40001), False),
    ("pwa1d", OracleConfig(pts_per_axis=4001), False),
    ("ball10d", OracleConfig(pts_per_axis=4001), True),
    ("pwa10d", OracleConfig(pts_per_axis=4001), True),
    ("l1norm5d", OracleConfig(pts_per_axis=4001), True),
    ("linfnorm5d", OracleConfig(pts_per_axis=4001), True),
]


def main():
    failures = 0
    for problem, cfg, residual_only in RUNS:
        net = load_problem(ROOT / "configs" / f"{problem}.cfg").build_net()
        report = verify_report(
            net, samples=100, seed=0, cfg=cfg, residual_only=residual_only, label=problem
        )
        print(report.to_text())
        failures += 0 if report.passed else 1
    if failures:
        raise SystemExit(f"{failures} problems failed verification")
    print("all problems verified")


if __name__ == "__main__":
    main()
