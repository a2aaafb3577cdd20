import numpy as np
import pytest

import hjeval.initialdata as initialdata
import hjeval.simplex as simplex
from hjeval import check_witnesses
from hjeval.catalog import ConcaveFn, HalfSquaredNorm, PNorm
from hjeval.cli import main
from hjeval.initialdata import InitialDataNet, norm_hamiltonian_rows
from hjeval.oracle import ORACLE_TOL, hstar_interpolator_1d, lax_oleinik_bruteforce_velocity, velocity_grid
from hjeval.simplex import (
    ENVELOPE_TOL,
    EnvelopeViolationError,
    lower_envelope_certificate,
    minimize_over_simplex,
)

COSTS = [0.5, -5.0, 1.0]
POINTS = [[-2.0], [0.0], [2.0]]


def test_lp_at_a_vertex():
    sol = minimize_over_simplex(COSTS, POINTS, [0.0])
    assert sol.value == pytest.approx(-5.0, abs=1e-10)
    np.testing.assert_allclose(sol.weights, [0.0, 1.0, 0.0], atol=1e-10)


def test_lp_between_vertices():
    # min 0.5 a1 - 5 a2 + a3 with 2(a3 - a1) = 1: optimum mixes rows 2 and 3.
    sol = minimize_over_simplex(COSTS, POINTS, [1.0])
    assert sol.value == pytest.approx(-2.0, abs=1e-10)
    np.testing.assert_allclose(sol.weights, [0.0, 0.5, 0.5], atol=1e-10)


def test_lp_outside_hull_is_infeasible():
    sol = minimize_over_simplex(COSTS, POINTS, [3.0])
    assert sol.value == float("inf")
    assert sol.weights is None
    assert not sol.feasible


def test_lp_returns_its_optimal_basis():
    # Between rows 2 and 3 both are basic; the two equality rows stay.
    sol = minimize_over_simplex(COSTS, POINTS, [1.0])
    columns, redundant = sol.basis
    assert sorted(columns) == [1, 2] and redundant == []
    assert minimize_over_simplex(COSTS, POINTS, [3.0]).basis is None


def test_lp_single_point():
    sol = minimize_over_simplex([7.0], [[3.0]], [3.0])
    assert sol.value == pytest.approx(7.0, abs=1e-12)
    np.testing.assert_allclose(sol.weights, [1.0])
    assert not minimize_over_simplex([7.0], [[3.0]], [2.0]).feasible


def test_lp_weights_live_on_the_simplex():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m, n = 8, 2
        points = rng.uniform(-3, 3, (m, n))
        costs = rng.uniform(-2, 2, m)
        target = points[rng.integers(m)] * rng.uniform(0, 1)
        sol = minimize_over_simplex(costs, points, target)
        if not sol.feasible:
            continue
        w = sol.weights
        assert (w >= -1e-12).all() and (w <= 1.0 + 1e-12).all()
        assert abs(w.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(w @ points, target, atol=1e-9)
        assert sol.value == pytest.approx(float(costs @ w), abs=1e-12)


def test_lp_vertex_value_never_exceeds_cost():
    # Minimizing over weights that can place everything on row k gives at
    # most cost k; equality whenever the envelope certificate holds.
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = 6
        points = rng.uniform(-2, 2, (m, 1))
        costs = rng.uniform(-1, 1, m)
        cert = lower_envelope_certificate(points, costs)
        for k in range(m):
            sol = minimize_over_simplex(costs, points, points[k])
            assert sol.value <= costs[k] + 1e-10
            if cert.holds:
                assert sol.value == pytest.approx(costs[k], abs=1e-10)


def test_lp_degenerate_duplicate_points_terminate():
    sol = minimize_over_simplex([1.0, 1.0, 0.0], [[0.0], [0.0], [1.0]], [0.0])
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_bland_loops_stop_at_the_basis_count(monkeypatch):
    # Bland's rule visits each basis at most once, so a loop that pivots
    # more often than there are bases has cycled: it raises, not hangs.
    # Phase 1 of an interior 2-D target takes three pivots, one a row.
    points, costs = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 1.0, 2.0]
    targets = np.array([[0.2, 0.3], [0.5, 0.25]])
    # Phase 1: 3 structural and 3 artificial columns, 3 constraint rows.
    assert simplex._pivot_limit(np.zeros((4, 7)), 6) == 20
    assert minimize_over_simplex(costs, points, targets[0]).value == pytest.approx(0.8)
    monkeypatch.setattr(simplex, "_pivot_limit", lambda tableau, n_cols: 1)
    with pytest.raises(RuntimeError, match="cycled"):
        minimize_over_simplex(costs, points, targets[0])
    with pytest.raises(RuntimeError, match="cycled"):
        minimize_over_simplex(costs, points, targets)


def _unbounded_tableau():
    # One constraint row -x0 + x1 = 1 with x1 basic, and reduced costs
    # (-1, 0): column 0 enters, but no row bounds its ratio test.
    return np.array([[-1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]]), [1]


def test_bland_kernels_raise_on_an_unbounded_entering_column():
    tableau, basis = _unbounded_tableau()
    with pytest.raises(RuntimeError, match="no positive entry"):
        simplex._bland_iterate(tableau, basis, 2)
    tableau, basis = _unbounded_tableau()
    with pytest.raises(RuntimeError, match="no positive entry"):
        simplex._bland_stack(np.stack([tableau, tableau]), np.array([basis, basis]), 2)


def _tied_tableau(first_rhs):
    # Three constraint rows with basic columns 5, 3 and 4 (identity columns),
    # structural columns 0-2 and reduced costs (-1, 0.5, 0.5): column 0
    # enters, with ratios first_rhs / 1, 4 / 2 and 5 / 1.  One pivot is
    # optimal, and it shows the chosen row in the basis.
    tableau = np.array([
        [1.0, 1.0, 0.0, 0.0, 0.0, 1.0, first_rhs],
        [2.0, 1.0, 1.0, 1.0, 0.0, 0.0, 4.0],
        [1.0, 1.0, 2.0, 0.0, 1.0, 0.0, 5.0],
        [-1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
    ])
    return tableau, [5, 3, 4]


@pytest.mark.parametrize(
    "first_rhs", [2.0, 2.0 - 4e-13], ids=["equal ratios", "ratios 4e-13 apart"]
)
def test_bland_kernels_break_ratio_ties_on_the_smallest_basic_index(first_rhs):
    # Row 0's ratio is the least (or ties it), but row 1's basic index 3 is
    # smaller than row 0's 5, and within 1e-12 the rows tie: row 1 leaves.
    lone, lone_basis = _tied_tableau(first_rhs)
    simplex._bland_iterate(lone, lone_basis, 6)
    assert lone_basis == [5, 0, 4]
    tableau, basis = _tied_tableau(first_rhs)
    other, other_basis = _tied_tableau(1.0)
    stack, stack_basis = np.stack([other, tableau]), np.array([other_basis, basis])
    simplex._bland_stack(stack, stack_basis, 6)
    assert stack_basis[1].tolist() == lone_basis
    assert stack[1].tobytes() == lone.tobytes()
    assert stack_basis[0].tolist() == [0, 3, 4]  # its row 0 ratio, 1, is the least


def _nan_tableaus():
    # Finite inputs keep NaN out, unless pivots overflow.  A NaN ratio makes
    # the least ratio NaN, so no row ties.  Row 0 holds the NaN, or has a
    # negative entry in the entering column while row 1 holds it.
    yield _tied_tableau(np.nan)
    tableau, basis = _tied_tableau(2.0)
    tableau[0, 0], tableau[1, -1] = -1.0, np.nan
    yield tableau, basis


def test_bland_kernels_on_a_nan_right_hand_side():
    # Both kernels raise the same error before any pivot, the stack kernel
    # also for the healthy LP stacked beside the NaN one.
    for tableau, basis in _nan_tableaus():
        lone, lone_basis = tableau.copy(), list(basis)
        with pytest.raises(RuntimeError, match="NaN ratio"):
            simplex._bland_iterate(lone, lone_basis, 6)
        assert np.array_equal(lone, tableau, equal_nan=True) and lone_basis == basis
        other, other_basis = _tied_tableau(1.0)
        stack, stack_basis = np.stack([other, tableau]), np.array([other_basis, basis])
        with pytest.raises(RuntimeError, match="NaN ratio"):
            simplex._bland_stack(stack, stack_basis, 6)
        assert np.array_equal(stack, np.stack([other, tableau]), equal_nan=True)
        assert stack_basis.tolist() == [other_basis, basis]


def test_lp_redundant_rows_from_signed_basis():
    rows, offsets = norm_hamiltonian_rows("linf", 3)
    for k in range(len(rows)):
        sol = minimize_over_simplex(offsets, rows, rows[k])
        assert sol.value == pytest.approx(0.0, abs=1e-10)


def test_envelope_certificate_holds_for_convex_data():
    cert = lower_envelope_certificate(POINTS, COSTS)
    assert cert.holds
    assert cert.index is None


def test_envelope_certificate_violated_midpoint():
    cert = lower_envelope_certificate([[-1.0], [0.0], [1.0]], [0.0, 1.0, 0.0])
    assert not cert.holds
    assert cert.index == 2
    assert cert.envelope_value == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(cert.weights, [0.5, 0.0, 0.5], atol=1e-10)
    # Witness satisfies its defining equations.
    v = cert.weights @ np.array([[-1.0], [0.0], [1.0]])
    assert v[0] == pytest.approx(0.0, abs=1e-9)
    assert cert.envelope_value < 1.0 - 1e-9


def test_envelope_certificate_single_point():
    assert lower_envelope_certificate([[4.0]], [2.0]).holds


def test_envelope_violation_error_reports_row():
    cert = lower_envelope_certificate([[-1.0], [0.0], [1.0]], [0.0, 1.0, 0.0])
    err = EnvelopeViolationError(cert)
    assert "row 2" in str(err)
    assert err.certificate is cert


def _lp_only_certificate(points, offsets, tol=ENVELOPE_TOL):
    """Reference: one simplex LP per row, first violation wins."""
    for k in range(len(points)):
        sol = minimize_over_simplex(offsets, points, points[k])
        if sol.value < offsets[k] - tol:
            return False, k + 1, sol.weights, sol.value
    return True, None, None, None


def _numpy_slack(points, offsets, witnesses):
    values = (witnesses[:, None, :] * points[None, :, :]).sum(axis=2) - offsets[None, :]
    return values.max(axis=1) - np.diagonal(values)


def _paraboloid(rng, n, m):
    points = rng.normal(size=(m, n))
    return points, rng.choice([0.05, 0.5, 5.0]) * (points * points).sum(axis=1)


def _envelope_sets(seed, count):
    """Seeded (kind, points, offsets) sets: random offsets, planted
    violations, duplicates, scaled norm generators, and paraboloids on a
    lower-dimensional affine subspace (redundant LP rows)."""
    rng = np.random.default_rng(seed)
    kinds = ("paraboloid", "planted", "duplicates", "norm", "flat")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        n = int(rng.integers(1, 11))
        m = int(rng.integers(n + 2, 21))
        if kind == "paraboloid":
            points, offsets = _paraboloid(rng, n, m)
            offsets = offsets + rng.uniform(0.0, rng.choice([0.0, 1e-3, 0.1, 1.0]), m)
        elif kind == "planted":
            points, offsets = _paraboloid(rng, n, m)
            row = rng.integers(m)
            donors = rng.choice(np.delete(np.arange(m), row), 3, replace=False)
            weights = rng.dirichlet(np.ones(3))
            points[row] = weights @ points[donors]
            offsets[row] = weights @ offsets[donors] + rng.choice([1e-3, 0.5])
        elif kind == "duplicates":
            points, offsets = _paraboloid(rng, n, m)
            copies = rng.choice(m, 3)
            lift = rng.choice([0.0, 0.0, 1e-2], 3)
            points = np.vstack([points, points[copies]])
            offsets = np.concatenate([offsets, offsets[copies] + lift])
            order = rng.permutation(len(points))
            points, offsets = points[order], offsets[order]
        elif kind == "norm":
            points, offsets = norm_hamiltonian_rows(rng.choice(["l1", "linf"]), min(n, 5))
            points = points * 10.0 ** rng.uniform(-3, 3)
        else:
            latent, offsets = _paraboloid(rng, int(rng.integers(1, max(n, 2))), m)
            points = latent @ rng.normal(size=(latent.shape[1], n + 1)) + rng.normal(size=n + 1)
            offsets = offsets + rng.uniform(0.0, rng.choice([0.0, 0.1]), m)
        yield kind, points, offsets


def _first_passing_scale(points, offsets):
    """Index into SCREEN_SCALES of each row's first witness s v_k whose
    plain-numpy slack plus the screen's rounding bound is within the
    tolerance; -1 where none is."""
    n = points.shape[1]
    norms = np.linalg.norm(points, axis=1)
    first = np.full(len(points), -1)
    for j, s in reversed(list(enumerate(simplex.SCREEN_SCALES))):
        bound = 2 * (n + 2) * np.finfo(float).eps * (s * norms * norms.max() + np.abs(offsets).max())
        first[_numpy_slack(points, offsets, s * points) + bound <= ENVELOPE_TOL] = j
    return first


@pytest.mark.parametrize("seed", range(4))
def test_screened_certificate_matches_lp_only_reference(seed):
    for kind, points, offsets in _envelope_sets(seed, 50):
        cert = lower_envelope_certificate(points, offsets)
        holds, index, weights, value = _lp_only_certificate(points, offsets)
        assert cert.holds == holds, kind
        assert cert.index == index and type(cert.index) is type(index), kind
        if holds:
            assert cert.weights is None and cert.envelope_value is None
            assert sum(cert.screened) == len(points)
            assert cert.witnesses.shape == points.shape
            # Screened rows take the first passing scale; the LP, the rest.
            first = _first_passing_scale(points, offsets)
            screened = first >= 0
            assert cert.screened == (screened.sum(), (~screened).sum()), kind
            scale = np.array(simplex.SCREEN_SCALES)[first[screened]][:, None]
            np.testing.assert_array_equal(cert.witnesses[screened], scale * points[screened])
            slack = _numpy_slack(points, offsets, cert.witnesses)
            assert (slack <= ENVELOPE_TOL).all(), kind
            np.testing.assert_allclose(cert.slack, slack, rtol=0, atol=1e-12)
            assert (check_witnesses(points, offsets, cert.witnesses) <= ENVELOPE_TOL).all()
        else:
            np.testing.assert_array_equal(cert.weights, weights)
            assert cert.envelope_value == value
            assert cert.screened[1] < index


@pytest.mark.parametrize("scale", [1e2, 1e6])
@pytest.mark.parametrize("seed", range(2))
def test_scaled_envelope_sets_certify_and_match_the_lp_alone(seed, scale):
    # Flat sets scaled up keep rounding residue in rows the drive-out names
    # redundant, so an optimal basis matrix can be singular; every LP-certified
    # row still gets a witness, and the result is the LP's alone.
    for kind, points, offsets in _envelope_sets(seed, 50):
        points, offsets = points * scale, offsets * scale**2
        cert = lower_envelope_certificate(points, offsets)
        holds, index, weights, value = _lp_only_certificate(points, offsets)
        assert (cert.holds, cert.index) == (holds, index), kind
        if not holds:
            np.testing.assert_array_equal(cert.weights, weights)
            assert cert.envelope_value == value


def test_eval_on_scaled_flat_data_finishes(tmp_path, capsys):
    # 15 rows on a 4-dimensional affine subspace of R^7, coordinates up to
    # 865 in magnitude, where an exact solve for an LP row's witness meets a
    # singular basis matrix.
    kind, points, offsets = list(_envelope_sets(0, 50))[24]
    assert kind == "flat" and points.shape == (15, 7)
    lines = ["architecture = arch2", "dimension = 7", "function = neg_half_squared_norm"]
    for row, b in zip(points * 100, offsets * 1e4):
        lines.append("param = " + ", ".join(repr(float(v)) for v in (*row, b)))
    cfg = tmp_path / "flat7d.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--config", str(cfg), "--x", "0,0,0,0,0,0,0", "--t", "1"]) == 0
    assert capsys.readouterr().out.startswith("value=-738856.81272856693 argmin=11 ")


@pytest.mark.parametrize("c", [1.0, 2.0, 0.5])
def test_screen_witness_is_the_first_passing_scale(c):
    # Paraboloids b = c |v|^2 / 2 have the tangent slope c v_k at row k, so
    # scale c certifies every row; an earlier scale wins wherever it passes.
    points = np.random.default_rng(7).normal(size=(60, 3))
    offsets = 0.5 * c * (points * points).sum(axis=1)
    cert = lower_envelope_certificate(points, offsets)
    assert cert.holds and cert.screened == (60, 0)
    first = _first_passing_scale(points, offsets)
    scales = np.array(simplex.SCREEN_SCALES)
    assert set(scales[first]) <= {1.0, c}
    assert (scales[first] == c).sum() >= 30  # mostly scale c
    np.testing.assert_array_equal(cert.witnesses, scales[first][:, None] * points)
    np.testing.assert_allclose(cert.slack, _numpy_slack(points, offsets, cert.witnesses), rtol=0, atol=1e-12)
    assert (check_witnesses(points, offsets, cert.witnesses) <= ENVELOPE_TOL).all()


def test_certificate_uses_the_lp_for_rows_the_screen_leaves():
    # Curvature 5: the witness of row k is 10 v_k, outside the screen's
    # scales, so all but the extreme rows take their witness from the LP.
    points = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    offsets = 5.0 * points[:, 0] ** 2
    cert = lower_envelope_certificate(points, offsets)
    assert cert.holds
    assert cert.screened[1] > 0
    assert (check_witnesses(points, offsets, cert.witnesses) <= ENVELOPE_TOL).all()


def test_screen_never_accepts_on_rounding():
    # A paraboloid with one row lifted 1e-12 above the envelope: within the
    # tolerance at unit scale.  At 1e8 the rounding of the Gram product
    # exceeds the tolerance, so every row goes to the LP, whose result
    # stands, although the bare computed slack of some rows is zero.
    rng = np.random.default_rng(3)
    points, _ = _paraboloid(rng, 3, 12)
    offsets = 0.5 * (points * points).sum(axis=1)
    points[5] = 0.5 * (points[1] + points[7])
    offsets[5] = minimize_over_simplex(np.delete(offsets, 5), np.delete(points, 5, axis=0), points[5]).value
    offsets[5] += 1e-12
    assert lower_envelope_certificate(points, offsets).holds

    big_points, big_offsets = points * 1e8, offsets * 1e16
    cert = lower_envelope_certificate(big_points, big_offsets)
    assert cert.screened[0] == 0
    assert (check_witnesses(big_points, big_offsets, big_points) <= ENVELOPE_TOL).any()
    holds, index, weights, value = _lp_only_certificate(big_points, big_offsets)
    assert (cert.holds, cert.index) == (holds, index)
    assert not holds
    np.testing.assert_array_equal(cert.weights, weights)
    assert cert.envelope_value == value


def test_check_witnesses_reports_slack():
    points, offsets = [[-1.0], [0.0], [1.0]], [0.0, 0.0, 0.0]
    # p = 0 ties all three pieces; p = 1 makes piece 3 win by 1 over piece 2.
    slack = check_witnesses(points, offsets, [[-1.0], [0.0], [1.0]])
    np.testing.assert_array_equal(slack, [0.0, 0.0, 0.0])
    slack = check_witnesses(points, offsets, [[-1.0], [1.0], [1.0]])
    np.testing.assert_array_equal(slack, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="shape"):
        check_witnesses(points, offsets, [[1.0], [1.0]])


def _lp_rows(monkeypatch, points):
    """Route the certificate's LPs through a recorder; returns the list of
    row indices whose LP ran, in call order."""
    rows = []

    def recording(costs, pts, target):
        rows.append(int(np.flatnonzero((points == target).all(axis=1))[0]))
        return minimize_over_simplex(costs, pts, target)

    monkeypatch.setattr(simplex, "minimize_over_simplex", recording)
    return rows


def test_certificate_solves_one_lp_per_fallback_row(monkeypatch):
    # LP-fallback set: the witnesses 10 v_k lie outside the screen's scales.
    points = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    rows = _lp_rows(monkeypatch, points)
    cert = lower_envelope_certificate(points, 5.0 * points[:, 0] ** 2)
    assert cert.holds
    assert len(rows) == cert.screened[1] > 0
    assert rows == sorted(set(rows))

    # Planted violation: the last row is a lifted mix of three others.
    rng = np.random.default_rng(11)
    points, offsets = _paraboloid(rng, 3, 40)
    weights = rng.dirichlet(np.ones(3))
    points[-1] = weights @ points[:3]
    offsets[-1] = weights @ offsets[:3] + 0.5
    rows = _lp_rows(monkeypatch, points)
    cert = lower_envelope_certificate(points, offsets)
    assert not cert.holds and cert.index == len(points)
    assert len(rows) == cert.screened[1] + 1
    assert rows == sorted(set(rows)) and rows[-1] == len(points) - 1


def test_certificate_refuses_empty_or_nonfinite_pairs():
    with pytest.raises(ValueError, match="at least one"):
        lower_envelope_certificate(np.zeros((0, 2)), [])
    with pytest.raises(ValueError, match="finite"):
        lower_envelope_certificate([[0.0], [np.nan]], [0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        check_witnesses([[0.0], [1.0]], [0.0, np.inf], [[0.0], [1.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="witnesses must be finite"):
            check_witnesses([[0.0], [1.0]], [0.0, 1.0], [[0.0], [bad]])
    with pytest.raises(ValueError, match="equal length"):
        check_witnesses([[0.0], [1.0]], [0.0], [[0.0], [1.0]])


@pytest.mark.parametrize("seed", range(4))
def test_rows_above_the_envelope_never_change_a_value(monkeypatch, seed):
    # For concave J, min_i J(x - t v_i) + t b_i over all rows is the minimum
    # over the live rows (b_i = H*(v_i)): S is the least J(x - t v) + t H*(v)
    # over conv{v_i}, which each cell of the lifted subdivision attains at a
    # live vertex, and a dead row k adds t (b_k - H*(v_k)) > 0 to a term at
    # least S.  So a set the certificate refuses, built with the gate
    # bypassed, has the values of the net on its live rows.  Rounding could
    # let a row just above the envelope win by its last bits; on these sets
    # the values are bit for bit the same.
    rng = np.random.default_rng(seed)
    activations = [ConcaveFn(HalfSquaredNorm()), ConcaveFn(PNorm(1)), ConcaveFn(PNorm(np.inf))]
    failing = 0
    for kind, points, offsets in _envelope_sets(seed, 50):
        if lower_envelope_certificate(points, offsets).holds:
            continue
        failing += 1
        live = np.array([minimize_over_simplex(offsets, points, v).value >= b - ENVELOPE_TOL
                         for v, b in zip(points, offsets)])
        assert not live.all(), kind
        x = rng.uniform(-4.0, 4.0, (200, points.shape[1]))
        for J in activations:
            pruned = InitialDataNet(J, points[live], offsets[live])
            with monkeypatch.context() as patch:
                patch.setattr(initialdata, "lower_envelope_certificate",
                              lambda *_: simplex.EnvelopeCertificate(True))
                full = InitialDataNet(J, points, offsets)
            for t in (0.3, 1.7):
                values, argmins, _ = full.solution_grid(x, t)
                assert values.tobytes() == pruned.solution_grid(x, t)[0].tobytes(), (kind, J, t)
                assert live[argmins - 1].all(), (kind, J, t)
    assert failing >= 15


def test_one_dimensional_sets_above_the_envelope_solve_the_equation(monkeypatch):
    # The formula on every row of a refused 1-D set, dead rows included,
    # matches the velocity-form minimum min_v J(x - t v) + t H*(v), with H*
    # from the live rows: the dead rows change no value, so the net solves
    # the equation of its own Hamiltonian.  The grid's nodes miss the rows,
    # so the oracle is an upper bound within O(h) of the value.
    rng = np.random.default_rng(13)
    activations = [ConcaveFn(HalfSquaredNorm()), ConcaveFn(PNorm(1)), ConcaveFn(PNorm(np.inf))]
    failing = 0
    for seed in range(4):
        for kind, points, offsets in _envelope_sets(seed, 50):
            if points.shape[1] != 1 or lower_envelope_certificate(points, offsets).holds:
                continue
            failing += 1
            live = np.array([minimize_over_simplex(offsets, points, v).value >= b - ENVELOPE_TOL
                             for v, b in zip(points, offsets)])
            assert not live.all(), kind
            lo, hi = points.min(axis=0), points.max(axis=0)
            hstar = hstar_interpolator_1d(InitialDataNet(activations[0], points[live], offsets[live]))
            grid = velocity_grid(hstar, lo, hi, 40001)
            x = rng.uniform(-4.0, 4.0, (10, 1))
            for J in activations:
                with monkeypatch.context() as patch:
                    patch.setattr(initialdata, "lower_envelope_certificate",
                                  lambda *_: simplex.EnvelopeCertificate(True))
                    net = InitialDataNet(J, points, offsets)
                for t in (0.3, 1.7):
                    values = net.solution_grid(x, t)[0]
                    oracle = [lax_oleinik_bruteforce_velocity(net.initial_values, hstar, p, t, lo, hi, 40001,
                                                              grid=grid) for p in x]
                    assert np.abs(np.subtract(oracle, values)).max() <= ORACLE_TOL, (seed, kind, J, t)
    assert failing >= 10


# -- stacked targets --------------------------------------------------------


def _stack_sets():
    """(name, points, costs) sets: paraboloids, zero-offset norm rows (ties),
    collinear rows (a redundant constraint row), one point of cost -0, and a
    large-magnitude line in 4-D (redundant rows that rounding nearly hides)."""
    rng = np.random.default_rng(5)
    for n, m in ((2, 10), (3, 14), (2, 40)):
        points, costs = _paraboloid(rng, n, m)
        yield f"paraboloid{n}d_m{m}", points, costs
    yield "single", np.array([[0.5, -1.0]]), np.array([-0.0])
    for kind in ("l1", "linf"):
        for n in (2, 3):
            yield f"{kind}{n}d", *norm_hamiltonian_rows(kind, n)
    line = np.linspace(-2.0, 2.0, 5)
    yield "collinear2d", np.stack([line, 0.5 * line - 1.0], axis=1), line**2
    # A line in 3-D with a repeated row: an artificial variable re-enters
    # phase 1, so a dropped row's artificial is not the row's own.
    points = np.array([[-4.0, 3.0, 2.0], [2.0, -3.0, -1.0], [-2.0, 1.0, 1.0], [2.0, -3.0, -1.0]])
    yield "collinear3d", points, np.array([1.0, 1.0, -1.0, 0.0])
    # Nine points on a line in R^4 at scale 4e4: three constraint rows are
    # redundant, and rounding leaves their structural entries near the pivot
    # tolerance, where later pivots would lift them unless they are zeroed.
    rng = np.random.default_rng(44)
    line = rng.normal(size=(9, 1)) @ rng.normal(size=(1, 4)) + rng.normal(size=4)
    yield "flat4d", 4e4 * line, rng.uniform(-1e3, 1e3, 9)


def _stack_targets(points, seed):
    """Vertices, pair midpoints (hull edges among them), box nodes with
    zero and negative coordinates, points in and far outside the hull, and
    every row pushed 1e-7 out from the centroid (the phase-1 tolerance)."""
    rng = np.random.default_rng(seed)
    m, n = points.shape
    i, j = np.triu_indices(m, 1)
    lo, hi = points.min(axis=0), points.max(axis=0)
    axes = [np.linspace(a, b, 5) for a, b in zip(lo, hi)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    centroid = points.mean(axis=0)
    return np.vstack([
        points,
        0.5 * (points[i] + points[j]),
        nodes,
        rng.uniform(1.5 * lo - 0.5, 1.5 * hi + 0.5, (30, n)),
        3.0 * points[:2] + 1.0,
        centroid + (1.0 + 1e-7) * (points - centroid),
    ])


@pytest.mark.parametrize("block", [None, 7])
def test_stacked_targets_equal_one_target_solves_bit_for_bit(monkeypatch, block):
    # block=7 shrinks the blocks to 7 targets, so every stack spans many.
    for seed, (name, points, costs) in enumerate(_stack_sets()):
        m, n = points.shape
        if block is not None:
            monkeypatch.setattr(simplex, "STACK_BLOCK", block * (n + 2) * (m + n + 2))
        targets = _stack_targets(points, seed)
        assert block is None or len(targets) >= 3 * simplex.stack_block_targets(m, n)
        stacked = minimize_over_simplex(costs, points, targets)
        assert stacked.dtype == np.float64 and stacked.shape == (len(targets),), name
        alone = [minimize_over_simplex(costs, points, target) for target in targets]
        assert any(sol.feasible for sol in alone) and not all(sol.feasible for sol in alone)
        for i, sol in enumerate(alone):
            assert stacked[i].hex() == sol.value.hex(), (name, i)
        if name.startswith(("collinear", "flat")):
            assert all(sol.basis[1] for sol in alone if sol.feasible)


def test_single_solves_are_optimal_by_duality():
    # The dual y of the optimal basis, from numpy alone: A_B^T y = c_B over
    # the kept rows of A = [V^T; 1], y = 0 on the dropped ones.  Optimality
    # is primal and dual feasibility, equality on the basis, and equal
    # objectives.
    solves = 0
    for seed, (name, points, costs) in enumerate(_stack_sets()):
        m, n = points.shape
        a_mat = np.vstack([points.T, np.ones(m)])
        tol = 1e-9 * (1.0 + np.abs(costs).max())
        for target in _stack_targets(points, seed):
            sol = minimize_over_simplex(costs, points, target)
            if not sol.feasible:
                continue
            weights = sol.weights
            assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-12, (name, target)
            np.testing.assert_allclose(weights @ points, target, rtol=0, atol=1e-9 * np.abs(points).max())
            columns, redundant = sol.basis
            kept = np.setdiff1d(np.arange(n + 1), redundant)
            y = np.zeros(n + 1)
            y[kept] = np.linalg.solve(a_mat[np.ix_(kept, columns)].T, costs[columns])
            reduced = costs - (points @ y[:n] + y[n])
            assert reduced.min() >= -tol, (name, target)
            np.testing.assert_allclose(reduced[columns], 0.0, atol=tol, err_msg=name)
            assert abs(y[:n] @ target + y[n] - sol.value) <= tol, (name, target)
            assert (costs @ weights).hex() == sol.value.hex(), (name, target)
            solves += 1
    assert solves > 1000


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="Bland's rule cycles in floating point on flat, large-magnitude data "
    "(ROADMAP item 1, one scale for every LP: its fix flips this marker)",
)
@pytest.mark.parametrize("stacked", [False, True])
def test_flat_large_magnitude_plane_solves(stacked):
    # Nine points on a plane in R^4 at scale 4e4: [V^T; 1] has rank 3, and
    # the drive-out pivots on a redundant row whose residue exceeds the
    # absolute PIVOT_TOL, so phase 2 cycles past its basis count on target 35.
    rng = np.random.default_rng(73)
    points = 4e4 * (rng.normal(size=(9, 2)) @ rng.normal(size=(2, 4)) + rng.normal(size=4))
    costs = rng.uniform(-1e3, 1e3, 9)
    targets = _stack_targets(points, 10)
    if stacked:
        values = minimize_over_simplex(costs, points, targets)
        assert np.isfinite(values[35])
    else:
        assert minimize_over_simplex(costs, points, targets[35]).feasible


def test_stacked_targets_edge_cases():
    empty = minimize_over_simplex(COSTS, POINTS, np.zeros((0, 1)))
    assert empty.dtype == np.float64 and empty.shape == (0,)
    (value,) = minimize_over_simplex(COSTS, POINTS, [[1.0]])
    assert value.hex() == minimize_over_simplex(COSTS, POINTS, [1.0]).value.hex()
    with pytest.raises(ValueError, match="target dimension"):
        minimize_over_simplex(COSTS, POINTS, np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_refused_for_either_target_shape(bad):
    net = InitialDataNet(ConcaveFn(HalfSquaredNorm()), POINTS, COSTS)
    for target in ([bad], [[bad]], [[0.0], [bad]]):
        with pytest.raises(ValueError, match="finite"):
            minimize_over_simplex(COSTS, POINTS, target)
        with pytest.raises(ValueError, match="finite"):
            net.hamiltonian_conjugate(target)
    for shape in ((1,), (2, 1)):
        target = np.zeros(shape)
        with pytest.raises(ValueError, match="finite"):
            minimize_over_simplex([0.5, bad, 1.0], POINTS, target)
        with pytest.raises(ValueError, match="finite"):
            minimize_over_simplex(COSTS, [[-2.0], [bad], [2.0]], target)
    # Shape errors keep their messages.
    with pytest.raises(ValueError, match="equal length"):
        minimize_over_simplex([bad], POINTS, [0.0])
    with pytest.raises(ValueError, match="target dimension"):
        minimize_over_simplex(COSTS, POINTS, [[bad, 0.0]])
