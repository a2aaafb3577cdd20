from pathlib import Path

import numpy as np
import pytest

from hjeval.config import ConfigError, load_problem, load_slice, parse_problem, parse_slice
from hjeval.initialdata import InitialDataNet
from hjeval.lagrangian import LagrangianNet
from hjeval.simplex import EnvelopeViolationError
from hjeval.slicing import SliceSpec
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


def test_repeated_keys_keep_the_last_value_or_every_line_in_order():
    cfg = parse_problem(
        "architecture = arch2\narchitecture = arch1\ndimension = 3\ndimension = 1\n"
        "function = pnorm\nfunction = max_affine\np = 1\np = 2\n"
        "affine = 1, 0\nparam = 2, -1\naffine = -1, 0.5\nparam = -2, -0.5\n"
        "affine = 0, 2\nparam = 0, 0\n"
    )
    assert (cfg.architecture, cfg.dimension, cfg.function, cfg.p) == ("arch1", 1, "max_affine", 2.0)
    assert cfg.affine == ((1.0, 0.0), (-1.0, 0.5), (0.0, 2.0))
    assert cfg.params == ((2.0, -1.0), (-2.0, -0.5), (0.0, 0.0))
    assert cfg.serialize() == (
        "architecture = arch1\ndimension = 1\nfunction = max_affine\np = 2.0\n"
        "affine = 1.0, 0.0\naffine = -1.0, 0.5\naffine = 0.0, 2.0\n"
        "param = 2.0, -1.0\nparam = -2.0, -0.5\nparam = 0.0, 0.0\n"
    )
    cfg = parse_problem(
        "architecture = arch2\ndimension = 2\nfunction = neg_half_squared_norm\n"
        "norm_hamiltonian = l1\nnorm_hamiltonian = linf\n"
    )
    assert cfg.norm_hamiltonian == "linf" and cfg.build_net().n_branches == 4

    spec = parse_slice(
        "free_axes = 1\nrange = 0, 2, 3\nfree_axes = 0, 1\nfixed = 7\nrange = -1, 1, 5\n"
        "times = 9\nfixed = 1, 2\ntimes = 1, 3\n"
    )
    assert spec == SliceSpec((0, 1), ((0.0, 2.0, 3), (-1.0, 1.0, 5)), (1.0, 3.0), (1.0, 2.0))


@pytest.mark.parametrize(
    "text, field, message",
    [
        ("dimension = 1\nfunction = clipped_quadratic\nparam = 0, 0\n", "architecture",
            "architecture: missing"),
        ("architecture = arch3\ndimension = 1\nfunction = clipped_quadratic\nparam = 0, 0\n", "architecture",
            "architecture: expected arch1 or arch2, got 'arch3'"),
        ("architecture = arch1\nfunction = clipped_quadratic\nparam = 0, 0\n", "dimension",
            "dimension: missing"),
        ("architecture = arch1\ndimension = 0\nfunction = clipped_quadratic\nparam = 0, 0\n", "dimension",
            "dimension: must be at least 1"),
        ("architecture = arch1\ndimension = 1\nparam = 0, 0\n", "function",
            "function: missing"),
        ("architecture = arch1\ndimension = 1\nfunction = mystery\nparam = 0, 0\n", "function",
            "function: unknown activation 'mystery'"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\n", "param",
            "param: missing: need at least one branch"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nparam = 0, 0, 0\n", "param",
            "param: each line needs 1 coords plus a scalar, got 3 values"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nparam = zero, 0\n", "param",
            "param: not a number: 'zero'"),
        ("architecture = arch1\ndimension = 1\nfunction = pnorm\nparam = 0, 0\n", "p",
            "p: function pnorm requires p = 1, 2 or inf"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nparam = 0, 0\nwhat = 1\n", "what",
            "what: unknown key"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nnorm_hamiltonian = l1\n", "norm_hamiltonian",
            "norm_hamiltonian: only arch2 supports generated Hamiltonians"),
        ("architecture = arch2\ndimension = 1\nfunction = neg_half_squared_norm\nnorm_hamiltonian = l2\n", "norm_hamiltonian",
            "norm_hamiltonian: expected l1 or linf, got 'l2'"),
        ("architecture = arch2\ndimension = 1\nfunction = clipped_quadratic\nparam = 0, 0\n", "function",
            "function: arch1 takes a convex activation, arch2 a concave one (neg_ prefix)"),
        ("architecture = arch1\ndimension = 1\nfunction = neg_half_squared_norm\nparam = 0, 0\n", "function",
            "function: arch1 takes a convex activation, arch2 a concave one (neg_ prefix)"),
        ("architecture = arch1\ndimension = 2\nfunction = clipped_quadratic\nparam = 0, 0, 0\n", "dimension",
            "dimension: activation 'clipped_quadratic' is 1-dimensional"),
        ("architecture = arch1\ndimension = 1\nfunction = clipped_quadratic\nbroken line\n", "line 4",
            "line 4: expected 'key = value', got 'broken line'"),
        ("architecture = arch1\ndimension = 2.5\nfunction = clipped_quadratic\nparam = 0, 0\n", "dimension",
            "dimension: not an integer: '2.5'"),
        ("architecture = arch1\ndimension = 1\nfunction = max_affine\nparam = 0, 0\n", "affine",
            "affine: function max_affine requires affine rows"),
        ("architecture = arch1\ndimension = 2\nfunction = max_affine\naffine = 1, 0\nparam = 0, 0, 0\n", "affine",
            "affine: each row needs 2 coords plus an offset"),
        (
            "architecture = arch2\ndimension = 1\nfunction = neg_half_squared_norm\n"
            "param = 0, 0\nnorm_hamiltonian = l1\n",
            "param",
            "param: give either param lines or norm_hamiltonian, not both",
        ),
    ],
)
def test_validation_errors_name_the_field(text, field, message):
    with pytest.raises(ConfigError) as info:
        parse_problem(text)
    assert info.value.field == field
    assert str(info.value) == message


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
    "text, field, message",
    [
        ("range = -1, 1, 5\ntimes = 1\n", "free_axes",
            "free_axes: missing"),
        ("free_axes = 0\ntimes = 1\n", "range",
            "range: missing"),
        ("free_axes = 0\nrange = -1, 1, 5\n", "times",
            "times: missing"),
        ("free_axes = a\nrange = -1, 1, 5\ntimes = 1\n", "free_axes",
            "free_axes: not integers: 'a'"),
        ("free_axes = 0\nrange = -1, 1\ntimes = 1\n", "range",
            "range: expected min, max, steps"),
        ("free_axes = 0\nrange = -1, 1, 5.5\ntimes = 1\n", "range",
            "range: steps must be an integer"),
        ("free_axes = 0\nrange = -1, 1, 5\ntimes = 1\nnope = 2\n", "nope",
            "nope: unknown key"),
    ],
)
def test_slice_errors_name_the_field(text, field, message):
    with pytest.raises(ConfigError) as info:
        parse_slice(text)
    assert info.value.field == field
    assert str(info.value) == message
