"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line; run ``pytest tests/test_acceptance.py -s``
to see them.  Golden slice statistics were computed with the same evaluators
after the oracle-equivalence criteria validated them.
"""

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from hjeval.catalog import ClippedQuadratic1D, MaxAffine, PNorm
from hjeval.bench import run_bench
from hjeval.cli import main
from hjeval.initialdata import InitialDataNet, norm_hamiltonian_rows
from hjeval.numeric import grid_inf_convolution
from hjeval.oracle import (
    OracleConfig,
    hj_residual,
    sample_screened_points,
    verify_report,
)
from hjeval.simplex import EnvelopeViolationError
from hjeval.slicing import SliceSpec
from hjeval import presets

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS  {description}")


def test_criterion_01_lagrangian_oracle_equivalence():
    with criterion(1, "Lagrangian net equals the brute-force variational minimum (1-D)"):
        start = time.perf_counter()
        # u-grid spacing 1e-3 over a +-20 window around each sample.
        cfg = OracleConfig(pts_per_axis=40001)
        report = verify_report(presets.clipped_quadratic_net_1d(), 100, 0, cfg)
        elapsed = time.perf_counter() - start
        assert report.max_oracle_gap <= 2e-3
        assert elapsed <= 30.0


def test_criterion_02_initialdata_oracle_equivalence():
    with criterion(2, "initial-data net equals the brute-force variational minimum (1-D)"):
        start = time.perf_counter()
        # Velocity grid at resolution 1e-3 over the hull [-2, 2].
        cfg = OracleConfig(pts_per_axis=4001)
        report = verify_report(presets.concave_quadratic_net_1d(), 100, 0, cfg)
        elapsed = time.perf_counter() - start
        assert report.max_oracle_gap <= 2e-3
        assert elapsed <= 30.0


def test_criterion_03_inf_convolution_with_recession():
    with criterion(3, "inf-convolution with the recession function recovers each function"):
        start = time.perf_counter()
        rng = np.random.default_rng(123)
        for n in (1, 2):
            fns = [
                PNorm(1),
                PNorm(2),
                MaxAffine(rng.uniform(-2, 2, (3, n)), rng.uniform(-1, 1, 3)),
            ]
            if n == 1:
                fns.append(ClippedQuadratic1D())
            pts_per_axis = 8001 if n == 1 else 201
            for f in fns:
                xs = rng.uniform(-3, 3, (50, n))
                for x in xs:
                    val = grid_inf_convolution(f, f.recession, x, 4.0, pts_per_axis)
                    assert abs(val - f(x)) <= 1e-3
        assert time.perf_counter() - start <= 60.0


def test_criterion_04_conjugate_vertex_identity():
    with criterion(4, "LP conjugate attains the offset at every branch velocity"):
        nets = [
            presets.concave_quadratic_net_1d(),
            presets.l1_hamiltonian_net(5),
            presets.linf_hamiltonian_net(5),
        ]
        for net in nets:
            for v, b in zip(net.rows, net.offsets):
                sol = net.hamiltonian_conjugate(v)
                assert sol.feasible
                assert abs(sol.value - b) <= 1e-10


def test_criterion_05_pde_residual_at_screened_points():
    with criterion(5, "PDE residual below 1e-3 at 200 screened smooth points per problem"):
        nets = [
            presets.clipped_quadratic_net_1d(),
            presets.shifted_norm_net_10d(),
            presets.concave_quadratic_net_1d(),
            presets.concave_quadratic_net_10d(),
        ]
        for net in nets:
            sol = lambda points, t: net.solution_grid(points, t)[0]
            ham = net.hamiltonian()
            for x, t in sample_screened_points(net, 200, seed=0):
                assert hj_residual(sol, ham, x, t, 1e-4) <= 1e-3
        # Hand-checkable smooth point: gradient (-12), time slope -23.5,
        # Hamiltonian value 23.5, so the residual vanishes analytically.
        net = presets.concave_quadratic_net_1d()
        res = hj_residual(
            lambda points, t: net.solution_grid(points, t)[0], net.hamiltonian(), [10.0], 1.0, 1e-4
        )
        assert res <= 1e-6


def test_criterion_06_small_time_matches_initial_data():
    with criterion(6, "solution at t = 1e-6 matches the t = 0 data on the test grids"):
        line = np.linspace(-4.0, 4.0, 101).reshape(-1, 1)
        net = presets.clipped_quadratic_net_1d()
        np.testing.assert_allclose(
            net.evaluate_grid(line, 1e-6)[0], net.initial_grid(line)[0], atol=1e-3
        )
        net = presets.concave_quadratic_net_1d()
        np.testing.assert_allclose(
            net.evaluate_grid(line, 1e-6)[0], net.evaluate_grid(line, 0.0)[0], atol=1e-3
        )
        plane = SliceSpec(
            free_axes=(0, 1),
            ranges=((-6.0, 6.0, 41), (-6.0, 6.0, 41)),
            times=(1e-6,),
            fixed_coords=(0.0,) * 8,
        ).grid_points(10)
        net = presets.shifted_norm_net_10d()
        np.testing.assert_allclose(
            net.evaluate_grid(plane, 1e-6)[0], net.initial_grid(plane)[0], atol=1e-3
        )
        net = presets.concave_quadratic_net_10d()
        np.testing.assert_allclose(
            net.evaluate_grid(plane, 1e-6)[0], net.evaluate_grid(plane, 0.0)[0], atol=1e-3
        )


def test_criterion_07_concavity_of_initialdata_solutions():
    with criterion(7, "initial-data solutions are concave in space"):
        rng = np.random.default_rng(2024)
        nets = [
            presets.concave_quadratic_net_1d(),
            presets.concave_quadratic_net_10d(),
            presets.l1_hamiltonian_net(5),
            presets.linf_hamiltonian_net(5),
        ]
        for net in nets:
            n = net.dimension
            for _ in range(1000):
                x = rng.uniform(-4, 4, n)
                y = rng.uniform(-4, 4, n)
                lam = rng.uniform()
                t = rng.uniform(0, 3)
                mid = net.evaluate(lam * x + (1 - lam) * y, t).value
                ends = lam * net.evaluate(x, t).value + (1 - lam) * net.evaluate(y, t).value
                assert mid >= ends - 1e-9


def test_criterion_08_envelope_gate():
    with criterion(8, "convex-interpolant gate accepts the good set, rejects the mutation"):
        net = presets.concave_quadratic_net_1d()
        assert net.certificate.holds
        with pytest.raises(EnvelopeViolationError) as info:
            InitialDataNet(
                net.initial_data, rows=[[-2.0], [0.0], [2.0]], offsets=[0.5, 5.0, 1.0]
            )
        assert info.value.certificate.index == 2


def test_criterion_09_norm_constructors():
    with criterion(9, "generated Hamiltonians equal the l1 / linf norms"):
        rng = np.random.default_rng(7)
        for n in (2, 5):
            rows, _ = norm_hamiltonian_rows("l1", n)
            assert rows.shape[0] == 2**n
            rows, _ = norm_hamiltonian_rows("linf", n)
            assert rows.shape[0] == 2 * n
            pts = rng.uniform(-5, 5, (1000, n))
            h1 = presets.l1_hamiltonian_net(n).hamiltonian()(pts)
            hinf = presets.linf_hamiltonian_net(n).hamiltonian()(pts)
            assert np.abs(h1 - np.abs(pts).sum(axis=1)).max() <= 1e-12
            assert np.abs(hinf - np.abs(pts).max(axis=1)).max() <= 1e-12


def test_criterion_10_dimension_scaling():
    with criterion(10, "evaluation time grows tamely with dimension (no grid blow-up)"):
        start = time.perf_counter()
        rows = run_bench("arch2", [10, 100], m=8, reps=3)
        elapsed = time.perf_counter() - start
        by_dim = {row.n: row.mean_eval_time for row in rows}
        assert by_dim[100] / by_dim[10] <= 15.0
        assert elapsed <= 60.0


# Golden statistics per time: (min, max, winning-branch histogram) of the
# shipped 101x101 plane slices, frozen from oracle-verified evaluators.
GOLDEN_SLICES = {
    "ball10d": {
        "slice": "slice_plane10d.cfg",
        "stats": {
            "1e-06": (-0.9600010000000009, 6.711101550927979, {1: 3255, 2: 2808, 3: 4138}),
            "1": (-1.0, 5.711102550927978, {1: 3255, 2: 2808, 3: 4138}),
            "3": (-1.0, 3.711102550927979, {1: 2833, 2: 2521, 3: 4847}),
            "5": (-1.0, 1.7111025509279791, {1: 1936, 2: 1406, 3: 6859}),
        },
    },
    "pwa10d": {
        "slice": "slice_plane10d_t0.cfg",
        "stats": {
            "0": (-36.0, 0.0, {1: 10201}),
            "1": (-69.5, -5.962400000000001, {1: 2345, 2: 5765, 3: 2091}),
            "3": (-163.5, -34.245599999999996, {1: 1647, 2: 7128, 3: 1426}),
            "5": (-293.5, -86.5, {1: 1043, 2: 8306, 3: 852}),
        },
    },
}


def _csv_stats(path: Path):
    rows = path.read_text().splitlines()[1:]
    values = np.array([float(line.split(",")[3]) for line in rows])
    argmins = Counter(int(line.split(",")[4]) for line in rows)
    return values.min(), values.max(), dict(argmins)


def test_criterion_11_figure_data_regression(tmp_path, capsys):
    with criterion(11, "slice CSVs are byte-stable and match golden statistics"):
        for name, golden in GOLDEN_SLICES.items():
            args = [
                "slice",
                "--config", str(CONFIG_DIR / f"{name}.cfg"),
                "--slice", str(CONFIG_DIR / golden["slice"]),
            ]
            assert main(args + ["--out", str(tmp_path / "a" / name)]) == 0
            assert main(args + ["--out", str(tmp_path / "b" / name)]) == 0
            capsys.readouterr()
            for tag, (vmin, vmax, hist) in golden["stats"].items():
                first = tmp_path / "a" / f"{name}_t{tag}.csv"
                second = tmp_path / "b" / f"{name}_t{tag}.csv"
                assert first.read_bytes() == second.read_bytes()
                got_min, got_max, got_hist = _csv_stats(first)
                assert got_min == pytest.approx(vmin, rel=1e-9, abs=1e-12)
                assert got_max == pytest.approx(vmax, rel=1e-9, abs=1e-12)
                assert got_hist == hist
