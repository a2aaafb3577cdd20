"""The min-of-branches paths shared by both nets."""

import numpy as np
import pytest

import hjeval.branches as branches
from hjeval.presets import concave_quadratic_net_10d, shifted_norm_net_10d

T = 0.7


def _point_calls(net):
    calls = [lambda x: net.evaluate(x, T), lambda x: net.branch_values(x, T)]
    if hasattr(net, "initial_value"):
        calls.append(net.initial_value)
    return calls


def _batch_calls(net):
    calls = [
        lambda x: net.evaluate_grid(x, T),
        lambda x: net.solution_grid(x, T),
        lambda x: net.solution_grid(x, 0.0),
        net.initial_values,
    ]
    if hasattr(net, "initial_grid"):
        calls.append(net.initial_grid)
    return calls


@pytest.mark.parametrize("make_net", [shifted_norm_net_10d, concave_quadratic_net_10d])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("path", ["point", "exact", "screen"])
def test_nonfinite_points_are_refused_on_every_path(make_net, bad, path, monkeypatch):
    # The activation is the one finiteness check: single points, the exact
    # kernel and the screen's unsafe rows all hand it the bad coordinate.
    net = make_net()
    points = np.random.default_rng(3).uniform(-2.0, 2.0, (40, net.dimension))
    points[17, 4] = bad
    screened = []
    if path == "point":
        calls, arg = _point_calls(net), points[17]
    else:
        threshold = 0 if path == "screen" else 1 << 62
        monkeypatch.setattr(branches, "SCREEN_MIN_ELEMENTS", threshold)
        kernel = branches._screened
        monkeypatch.setattr(branches, "_screened", lambda *a: screened.append(1) or kernel(*a))
        calls, arg = _batch_calls(net), points
    for call in calls:
        with pytest.raises(ValueError, match="^points must have finite coordinates$"):
            call(arg)
    assert bool(screened) == (path == "screen")
