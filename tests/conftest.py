"""Nets and checks shared by the tests.

``shipped_net(name)`` is the net of ``configs/<name>.cfg``, the one
definition of each shipped problem (clipped1d, ball10d, pwa1d, pwa10d, ...);
``norm_net(kind, n)`` is the l1 or linf Hamiltonian net at any n.  The
fixtures check the batch branch path against a reference.
"""

from pathlib import Path

import numpy as np
import pytest

import hjeval.branches as branches
from hjeval.catalog import ConcaveFn, HalfSquaredNorm
from hjeval.config import load_problem
from hjeval.initialdata import InitialDataNet, norm_hamiltonian_rows

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def shipped_net(name):
    """The net of the shipped config ``configs/<name>.cfg``, built afresh."""
    return load_problem(CONFIG_DIR / f"{name}.cfg").build_net()


def norm_net(kind, n):
    """Data -||x||^2/2 in R^n with the ``kind`` ("l1" or "linf") norm as
    Hamiltonian: 2^n branches for l1, 2n for linf."""
    return InitialDataNet(ConcaveFn(HalfSquaredNorm()), *norm_hamiltonian_rows(kind, n))


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.fixture
def count_pairs(monkeypatch):
    """``count_pairs()`` wraps the exact branch formula and returns the list
    of (point, branch) pair counts its calls receive, until the next call."""
    formula = branches.branch_formula

    def install():
        counts = []

        def counting(*args):
            vals = formula(*args)
            counts.append(vals.size)
            return vals

        monkeypatch.setattr(branches, "branch_formula", counting)
        return counts

    return install


@pytest.fixture
def check_batch(monkeypatch, count_pairs):
    """``check_batch(net, points, t, reference, rng)`` runs the screened batch
    path in small random blocks and checks it bit for bit against
    ``reference(net, points, t)``, each screened block's rounding bound
    against the exact kernel, and single points against their batch rows.
    Returns the number of pairs the exact kernel received."""
    monkeypatch.setattr(branches, "SCREEN_MIN_ELEMENTS", 0)
    blocks = []
    screened = branches._screened

    def recording(x, s, work):
        blocks.append((x.copy(), s))
        return screened(x, s, work)

    monkeypatch.setattr(branches, "_screened", recording)

    def check(net, points, t, reference, rng):
        k, n = points.shape
        m = net.n_branches
        width = max(m + n + 3, 2 * n)
        monkeypatch.setattr(branches, "SCREEN_BLOCK", width * int(rng.integers(1, 64)))
        monkeypatch.setattr(branches, "EXACT_BLOCK", m * n * int(rng.integers(1, 8)))
        counts = count_pairs()
        blocks.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            got = net.solution_grid(points, t)
            want = reference(net, points, t)
        _assert_same_bits(got, want)
        pairs = sum(counts)
        # The band argument needs |screen - exact| <= bound on every safe row.
        for x, s in blocks:
            vals, bound = branches._screen_values(x, s, np.empty(len(x) * (m + n + 3)))
            with np.errstate(all="ignore"):
                full = branches.branch_formula(s, x[None], np.arange(m)[:, None]).T
            safe = np.isfinite(bound)
            assert (np.abs(vals[safe] - full[safe]) <= bound[safe, None]).all()
        for i in rng.integers(k, size=3):
            with np.errstate(over="ignore", invalid="ignore"):
                single = net.solution_grid(points[i : i + 1], t)
            _assert_same_bits(single, tuple(a[i : i + 1] for a in got))
        return pairs

    return check
