#!/usr/bin/env python3
"""Show that evaluation time scales tamely with dimension.

A grid method at 100 points per axis would need 100^n samples; the nets
evaluate in O(m n) per point.  This times single-point evaluations of the
linf-Hamiltonian net (m = 2n branches) across dimensions.

Run:
    python demos/dimension_scaling.py
"""

from hjeval.bench import run_bench

DIMS = [1, 2, 5, 10, 50, 100, 200]


def main():
    rows = run_bench("arch2", DIMS, m=8, reps=5)
    print(f"{'n':>5} {'branches':>9} {'mean eval time':>16}")
    for row in rows:
        print(f"{row.n:>5} {row.m:>9} {row.mean_eval_time * 1e6:>13.2f} us")
    by_dim = {row.n: row.mean_eval_time for row in rows}
    ratio = by_dim[100] / by_dim[10]
    print(f"\nn=100 vs n=10: {ratio:.2f}x slower (a 100-per-axis grid would be 10^180x)")


if __name__ == "__main__":
    main()
