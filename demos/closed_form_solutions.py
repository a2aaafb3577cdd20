#!/usr/bin/env python3
"""Tour of the two exact solution representations.

Evaluates both net types at hand-checkable points, shows the per-branch
values behind each minimum, and inspects the induced Hamiltonians.  Nothing
here touches a grid: every value is a finite min/max of closed forms.  The
nets are the shipped configs under configs/.

Run:
    python demos/closed_form_solutions.py
"""

from pathlib import Path

import numpy as np

from hjeval import load_problem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

np.set_printoptions(precision=4, suppress=True)


def shipped(name):
    return load_problem(CONFIGS / f"{name}.cfg").build_net()


def show(title):
    print(f"\n=== {title} ===")


show("1-D Lagrangian net (clipped-quadratic activation, 3 branches)")
net = shipped("clipped1d")
for x, t in [(0.0, 1.0), (2.0, 1.0), (0.0, 3.0)]:
    res = net.evaluate([x], t)
    print(
        f"S({x:+.1f}, t={t}) = {res.value:+.4f}   branches={net.branch_values([x], t)}"
        f"   winner #{res.argmin_index}, gap {res.gap:.3f}"
    )
print("t -> 0 data uses the recession function of the activation:")
for x in (-2.0, 0.0, 2.0):
    print(f"S({x:+.1f}, 0) = {net.initial_value([x]).value:+.4f}")
H = net.hamiltonian()
print(f"Hamiltonian = conjugate of the activation: {H!r}")
print(f"H(1) = {H(1.0)},  H(3) = {H(3.0)}  (finite only on [-1, 2])")

show("10-D Lagrangian net (shifted-norm activation)")
net = shipped("ball10d")
x = net.shifts[0]
res = net.evaluate(x, 1.0)
print(f"at the first shift point: value {res.value:+.4f}, winner #{res.argmin_index}")
print("the evaluation cost is 3 norms in R^10; dimension never enters a grid")

show("1-D initial-data net (concave quadratic data, max-affine Hamiltonian)")
net = shipped("pwa1d")
for x, t in [(0.0, 1.0), (1.0, 2.0), (10.0, 1.0)]:
    res = net.evaluate([x], t)
    print(f"S({x:+.1f}, t={t}) = {res.value:+.4f}   winner #{res.argmin_index}, gap {res.gap:.3f}")
print("t = 0 needs no special case: every branch reduces to the data itself")
print(f"S(1.5, 0) = {net.evaluate([1.5], 0.0).value} = J(1.5) = {net.initial_data([1.5])}")
H = net.hamiltonian()
print(f"max-affine Hamiltonian: H(0) = {H(0.0)}, H(1) = {H(1.0)}")
print("its conjugate comes from a tiny simplex LP over the branch rows:")
for v in (-2.0, 1.0, 3.0):
    sol = net.hamiltonian_conjugate([v])
    print(f"H*({v:+.1f}) = {sol.value}   weights = {sol.weights}")

show("generated norm Hamiltonians (5-D)")
l1 = shipped("l1norm5d")
linf = shipped("linfnorm5d")
p = np.array([3.0, -1.0, 0.5, 0.0, 2.0])
print(f"l1 net: {l1.n_branches} branches, H(p) = {l1.hamiltonian()(p)} = ||p||_1 = {np.abs(p).sum()}")
print(f"linf net: {linf.n_branches} branches, H(p) = {linf.hamiltonian()(p)} = ||p||_inf = {np.abs(p).max()}")

show("what rejection looks like")
from hjeval.initialdata import InitialDataNet
from hjeval.simplex import EnvelopeViolationError

try:
    InitialDataNet(net.initial_data, rows=[[-2.0], [0.0], [2.0]], offsets=[0.5, 5.0, 1.0])
except EnvelopeViolationError as err:
    print(f"raising the middle offset to +5 is rejected: {err}")
