import numpy as np
import pytest

from hjeval.slicing import SliceSpec, evaluate_slice

from conftest import norm_net, shipped_net

PLANE = SliceSpec(
    free_axes=(0, 1),
    ranges=((-6.0, 6.0, 21), (-6.0, 6.0, 21)),
    times=(0.0, 1.0),
    fixed_coords=(0.0,) * 8,
)


def test_grid_points_layout():
    spec = SliceSpec(
        free_axes=(1, 3),
        ranges=((0.0, 1.0, 2), (0.0, 2.0, 3)),
        times=(1.0,),
        fixed_coords=(7.0, 8.0),
    )
    pts = spec.grid_points(4)
    assert pts.shape == (6, 4)
    np.testing.assert_array_equal(pts[:, 0], 7.0)  # first fixed coordinate
    np.testing.assert_array_equal(pts[:, 2], 8.0)  # second fixed coordinate
    # Lexicographic: axis 1 outer, axis 3 inner.
    np.testing.assert_allclose(pts[:, 1], [0, 0, 0, 1, 1, 1])
    np.testing.assert_allclose(pts[:, 3], [0, 1, 2, 0, 1, 2])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(free_axes=(0, 0), ranges=((-1, 1, 5), (-1, 1, 5)), times=(1.0,), fixed_coords=(0.0,) * 8), "distinct"),
        (dict(free_axes=(0, 10), ranges=((-1, 1, 5), (-1, 1, 5)), times=(1.0,), fixed_coords=(0.0,) * 8), "out of range"),
        (dict(free_axes=(0,), ranges=((-1, 1, 1),), times=(1.0,), fixed_coords=(0.0,) * 9), "steps"),
        (dict(free_axes=(0,), ranges=((-1, 1, 5),), times=(), fixed_coords=(0.0,) * 9), "time"),
        (dict(free_axes=(0,), ranges=((-1, 1, 5),), times=(1.0, 0.5), fixed_coords=(0.0,) * 9), "sorted"),
        (dict(free_axes=(0,), ranges=((-1, 1, 5),), times=(-1.0,), fixed_coords=(0.0,) * 9), "nonnegative"),
        (dict(free_axes=(0,), ranges=((-1, 1, 5),), times=(1.0,), fixed_coords=(0.0,) * 3), "fixed"),
        (dict(free_axes=(0, 1, 2), ranges=((-1, 1, 5),) * 3, times=(1.0,), fixed_coords=(0.0,) * 7), "one or two"),
        (dict(free_axes=(0, 1), ranges=((-1, 1, 5),), times=(1.0,), fixed_coords=(0.0,) * 8), "one .* range per free axis"),
        (dict(free_axes=(0,), ranges=((-1, 1, 5),), times=(1.0, float("inf")), fixed_coords=(0.0,) * 9), "times must be finite"),
        (dict(free_axes=(0,), ranges=((-1, 1, 5),), times=(float("nan"),), fixed_coords=(0.0,) * 9), "times must be finite"),
        (dict(free_axes=(0,), ranges=((float("-inf"), 1, 3),), times=(1.0,), fixed_coords=(0.0,) * 9), "range needs a finite"),
        (dict(free_axes=(0,), ranges=((-1, float("nan"), 3),), times=(1.0,), fixed_coords=(0.0,) * 9), "range needs a finite"),
        (dict(free_axes=(0,), ranges=((-1, 1, 5),), times=(1.0,), fixed_coords=(0.0,) * 8 + (float("inf"),)), "fixed coordinates must be finite"),
    ],
)
def test_spec_validation_errors(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SliceSpec(**kwargs).validate(10)


def test_slice_matches_direct_evaluation():
    net = shipped_net("pwa10d")
    result = evaluate_slice(net, PLANE)
    pts = PLANE.grid_points(10)
    for table in result.tables:
        for i in (0, 57, 440):
            res = net.evaluate(pts[i], table.t)
            assert table.values[i] == res.value
            assert table.argmin_indices[i] == res.argmin_index


def test_lagrangian_slice_dispatches_time_zero():
    net = shipped_net("clipped1d")
    spec = SliceSpec(free_axes=(0,), ranges=((-4.0, 4.0, 41),), times=(0.0, 1.0))
    result = evaluate_slice(net, spec)
    pts = spec.grid_points(1)
    initial = net.initial_grid(pts)[0]
    np.testing.assert_array_equal(result.tables[0].values, initial)


def test_tiny_slice_reduces_to_single_evaluations():
    net = shipped_net("clipped1d")
    spec = SliceSpec(free_axes=(0,), ranges=((0.0, 1.0, 2),), times=(1.0,))
    result = evaluate_slice(net, spec)
    assert result.grid.shape == (2, 1)
    assert result.tables[0].values[0] == net.evaluate([0.0], 1.0).value
    assert result.tables[0].values[1] == net.evaluate([1.0], 1.0).value


def test_small_time_slice_matches_initial_data():
    net = shipped_net("ball10d")
    spec = SliceSpec(
        free_axes=(0, 1),
        ranges=((-6.0, 6.0, 21), (-6.0, 6.0, 21)),
        times=(1e-6,),
        fixed_coords=(0.0,) * 8,
    )
    result = evaluate_slice(net, spec)
    initial = net.initial_grid(spec.grid_points(10))[0]
    np.testing.assert_allclose(result.tables[0].values, initial, atol=1e-3)


def test_slice_minimum_matches_bruteforce_scan():
    net = shipped_net("clipped1d")
    spec = SliceSpec(free_axes=(0,), ranges=((-4.0, 4.0, 81),), times=(1.0,))
    result = evaluate_slice(net, spec)
    pts = spec.grid_points(1)
    direct = np.array([net.evaluate(x, 1.0).value for x in pts])
    assert result.tables[0].values.min() == direct.min()


def test_initialdata_slice_at_time_zero_equals_data():
    net = shipped_net("pwa10d")
    result = evaluate_slice(net, PLANE)
    pts = PLANE.grid_points(10)
    np.testing.assert_array_equal(result.tables[0].values, net.initial_data(pts))


def test_initialdata_slice_rows_match_direct_eval():
    net = shipped_net("pwa1d")
    spec = SliceSpec(free_axes=(0,), ranges=((-4.0, 4.0, 41),), times=(1.0, 3.0))
    result = evaluate_slice(net, spec)
    pts = spec.grid_points(1)
    for table in result.tables:
        direct = np.array([net.evaluate(x, table.t).value for x in pts])
        np.testing.assert_array_equal(table.values, direct)


def test_l1_net_slice_is_finite_everywhere():
    net = norm_net("l1", 5)
    spec = SliceSpec(
        free_axes=(0, 1),
        ranges=((-6.0, 6.0, 21), (-6.0, 6.0, 21)),
        times=(1.0,),
        fixed_coords=(0.0, 0.0, 0.0),
    )
    result = evaluate_slice(net, spec)
    assert np.isfinite(result.tables[0].values).all()
