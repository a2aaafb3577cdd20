from pathlib import Path

import numpy as np
import pytest

from hjeval.config import ConfigError, load_problem, load_slice, parse_problem, parse_slice
from hjeval.initialdata import InitialDataNet
from hjeval.lagrangian import LagrangianNet
from hjeval.simplex import EnvelopeViolationError
from hjeval import presets

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PRESETS_BY_CONFIG = {
    "clipped1d.cfg": presets.clipped_quadratic_net_1d,
    "ball10d.cfg": presets.shifted_norm_net_10d,
    "pwa1d.cfg": presets.concave_quadratic_net_1d,
    "pwa10d.cfg": presets.concave_quadratic_net_10d,
    "l1norm5d.cfg": presets.l1_hamiltonian_net,
    "linfnorm5d.cfg": presets.linf_hamiltonian_net,
}


@pytest.mark.parametrize("name", sorted(PRESETS_BY_CONFIG))
def test_shipped_configs_build_the_preset_nets(name):
    net = load_problem(CONFIG_DIR / name).build_net()
    expected = PRESETS_BY_CONFIG[name]()
    assert type(net) is type(expected)
    assert net.dimension == expected.dimension
    assert net.n_branches == expected.n_branches
    if isinstance(net, LagrangianNet):
        assert net.lagrangian == expected.lagrangian
        np.testing.assert_array_equal(net.shifts, expected.shifts)
        np.testing.assert_array_equal(net.offsets, expected.offsets)
    else:
        assert net.initial_data == expected.initial_data
        np.testing.assert_array_equal(net.rows, expected.rows)
        np.testing.assert_array_equal(net.offsets, expected.offsets)


@pytest.mark.parametrize("name", sorted(PRESETS_BY_CONFIG))
def test_round_trip_is_lossless(name):
    original = load_problem(CONFIG_DIR / name)
    assert parse_problem(original.serialize()) == original


def test_round_trip_preserves_awkward_floats():
    text = (
        "architecture = arch2\ndimension = 1\nfunction = neg_half_squared_norm\n"
        "param = 0.1, -0.30000000000000004\nparam = 1e-07, 2\n"
    )
    cfg = parse_problem(text)
    assert parse_problem(cfg.serialize()) == cfg
    cfg = parse_problem(text + "param = -inf, inf\n")
    assert parse_problem(cfg.serialize()) == cfg


def test_pnorm_and_max_affine_functions():
    cfg = parse_problem(
        "architecture = arch1\ndimension = 2\nfunction = pnorm\np = inf\nparam = 0, 0, 0\n"
    )
    net = cfg.build_net()
    assert isinstance(net, LagrangianNet)
    assert net.lagrangian(np.array([1.0, -3.0])) == 3.0
    assert parse_problem(cfg.serialize()) == cfg

    cfg = parse_problem(
        "architecture = arch1\ndimension = 1\nfunction = max_affine\n"
        "affine = 1, 0\naffine = -1, 0\nparam = 0, 0\n"
    )
    net = cfg.build_net()
    assert net.lagrangian(2.0) == 2.0
    assert parse_problem(cfg.serialize()) == cfg


def test_norm_generator_config():
    cfg = parse_problem(
        "architecture = arch2\ndimension = 3\nfunction = neg_half_squared_norm\n"
        "norm_hamiltonian = linf\n"
    )
    net = cfg.build_net()
    assert isinstance(net, InitialDataNet)
    assert net.n_branches == 6


def test_comments_and_blank_lines_ignored():
    cfg = parse_problem(
        "# a comment\n\narchitecture = arch1  # trailing comment\n"
        "dimension = 1\nfunction = clipped_quadratic\nparam = 0, 0\n"
    )
    assert cfg.architecture == "arch1"


@pytest.mark.parametrize(
    "text, field",
    [
        ("dimension = 1\nfunction = clipped_quadratic\nparam = 0, 0\n", "architecture"),
        ("architecture = arch3\ndimension = 1\nfunction = clipped_quadratic\nparam = 0, 0\n", "architecture"),
        ("architecture = arch1\nfunction = clipped_quadratic\nparam = 0, 0\n", "dimension"),
        ("architecture = arch1\ndimension = 0\nfunction = clipped_quadratic\nparam = 0, 0\n", "dimension"),
        ("architecture = arch1\ndimension = 1\nparam = 0, 0\n", "function"),
        ("architecture = arch1\ndimension = 1\nfunction = mystery\nparam = 0, 0\n", "function"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\n", "param"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nparam = 0, 0, 0\n", "param"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nparam = zero, 0\n", "param"),
        ("architecture = arch1\ndimension = 1\nfunction = pnorm\nparam = 0, 0\n", "p"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nparam = 0, 0\nwhat = 1\n", "what"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nnorm_hamiltonian = l1\n", "norm_hamiltonian"),
        ("architecture = arch2\ndimension = 1\nfunction = neg_half_squared_norm\nnorm_hamiltonian = l2\n", "norm_hamiltonian"),
        ("architecture = arch2\ndimension = 1\nfunction = clipped_quadratic\nparam = 0, 0\n", "function"),
        ("architecture = arch1\ndimension = 1\nfunction = neg_half_squared_norm\nparam = 0, 0\n", "function"),
        ("architecture = arch1\ndimension = 2\nfunction = clipped_quadratic\nparam = 0, 0, 0\n", "dimension"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nbroken line\n", "line 4"),
        ("architecture = arch1\ndimension = 2.5\nfunction = clipped_quadratic\nparam = 0, 0\n", "dimension"),
        ("architecture = arch1\ndimension = 1\nfunction = max_affine\nparam = 0, 0\n", "affine"),
        ("architecture = arch1\ndimension = 2\nfunction = max_affine\naffine = 1, 0\nparam = 0, 0, 0\n", "affine"),
        (
            "architecture = arch2\ndimension = 1\nfunction = neg_half_squared_norm\n"
            "param = 0, 0\nnorm_hamiltonian = l1\n",
            "param",
        ),
    ],
)
def test_validation_errors_name_the_field(text, field):
    with pytest.raises(ConfigError) as info:
        parse_problem(text)
    assert info.value.field == field


def test_envelope_violating_config_rejected_at_build():
    cfg = parse_problem(
        "architecture = arch2\ndimension = 1\nfunction = neg_half_squared_norm\n"
        "param = -2, 0.5\nparam = 0, 5\nparam = 2, 1\n"
    )
    with pytest.raises(EnvelopeViolationError) as info:
        cfg.build_net()
    assert info.value.certificate.index == 2


def test_non_lipschitz_lagrangian_config_rejected_at_build():
    cfg = parse_problem(
        "architecture = arch1\ndimension = 1\nfunction = half_squared_norm\nparam = 0, 0\n"
    )
    with pytest.raises(ValueError, match="Lipschitz"):
        cfg.build_net()


def test_parse_slice_files():
    spec = load_slice(CONFIG_DIR / "slice_plane10d.cfg")
    assert spec.free_axes == (0, 1)
    assert spec.times == (1e-06, 1.0, 3.0, 5.0)
    assert spec.ranges == ((-6.0, 6.0, 101), (-6.0, 6.0, 101))
    assert spec.fixed_coords == (0.0,) * 8
    spec.validate(10)

    line = parse_slice("free_axes = 0\nrange = -4, 4, 101\ntimes = 1, 3\n")
    assert line.fixed_coords == ()
    line.validate(1)


@pytest.mark.parametrize(
    "text, field",
    [
        ("range = -1, 1, 5\ntimes = 1\n", "free_axes"),
        ("free_axes = 0\ntimes = 1\n", "range"),
        ("free_axes = 0\nrange = -1, 1, 5\n", "times"),
        ("free_axes = a\nrange = -1, 1, 5\ntimes = 1\n", "free_axes"),
        ("free_axes = 0\nrange = -1, 1\ntimes = 1\n", "range"),
        ("free_axes = 0\nrange = -1, 1, 5.5\ntimes = 1\n", "range"),
        ("free_axes = 0\nrange = -1, 1, 5\ntimes = 1\nnope = 2\n", "nope"),
    ],
)
def test_slice_errors_name_the_field(text, field):
    with pytest.raises(ConfigError) as info:
        parse_slice(text)
    assert info.value.field == field
