import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hjeval.bench import run_bench, synthetic_net
from hjeval.cli import main
from hjeval.initialdata import InitialDataNet
from hjeval.output import render_pgm
from hjeval.presets import linf_hamiltonian_net

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIG_DIR.parent / "src"


def _cfg(name: str) -> str:
    return str(CONFIG_DIR / name)


def test_eval_lagrangian_problem(capsys):
    code = main(["eval", "--config", _cfg("clipped1d.cfg"), "--x", "0", "--t", "1"])
    assert code == 0
    assert capsys.readouterr().out == "value=0 argmin=2 gap=0.5\n"


def test_eval_initialdata_problem(capsys):
    code = main(["eval", "--config", _cfg("pwa1d.cfg"), "--x", "0", "--t", "1"])
    assert code == 0
    assert capsys.readouterr().out == "value=-5 argmin=2 gap=3.5\n"


def test_eval_accepts_negative_coordinates(capsys):
    code = main([
        "eval",
        "--config", _cfg("ball10d.cfg"),
        "--x", "-2,0,0,0,0,0,0,0,0,0",
        "--t", "1",
    ])
    assert code == 0
    assert capsys.readouterr().out == "value=-0.5 argmin=1 gap=1.3284271247461903\n"
    assert main(["eval", "--config", _cfg("clipped1d.cfg"), "--x", "-0.5", "--t", "0.5"]) == 0
    capsys.readouterr()


def test_eval_time_zero_dispatch(capsys):
    code = main(["eval", "--config", _cfg("clipped1d.cfg"), "--x", "2", "--t", "0"])
    assert code == 0
    assert capsys.readouterr().out.startswith("value=-1 ")


def test_eval_validation_failures(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("architecture = arch9\n")
    assert main(["eval", "--config", str(bad), "--x", "0", "--t", "1"]) == 1
    assert "architecture" in capsys.readouterr().err

    assert main(["eval", "--config", _cfg("clipped1d.cfg"), "--x", "0,1", "--t", "1"]) == 1
    assert "x:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "x, t, message",
    [
        ("0", "inf", "t: must be finite"),
        ("0", "nan", "t: must be finite"),
        ("inf", "1", "x: coordinates must be finite"),
        ("nan", "1", "x: coordinates must be finite"),
        ("0", "-inf", "t: must be finite"),
        ("-inf", "1", "x: coordinates must be finite"),
    ],
)
def test_eval_refuses_non_finite_input(capsys, x, t, message):
    assert main(["eval", "--config", _cfg("clipped1d.cfg"), "--x", x, "--t", t]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _fresh_process(argv):
    """Run ``hjeval argv`` in a new interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from hjeval.cli import entry; sys.argv[0] = 'hjeval'; entry()"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=False
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_commands_in_one_process_match_fresh_processes(tmp_path, capsys):
    """The parser is built once per process; reusing it after a usage error
    and between commands changes no exit code, output or file."""
    out = tmp_path / "line"
    commands = [
        ["eval", "--config", _cfg("clipped1d.cfg"), "--x", "0"],
        ["slice", "--config", _cfg("clipped1d.cfg"), "--slice", _cfg("slice_line1d.cfg"),
         "--out", str(out)],
        ["eval", "--config", _cfg("pwa1d.cfg"), "--x", "-1.5", "--t", "0.5"],
    ]

    def files():
        return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    fresh = [(_fresh_process(argv), files()) for argv in commands]
    assert [code for (code, _, _), _ in fresh] == [1, 0, 0]
    for p in tmp_path.iterdir():
        p.unlink()
    for argv, (want, want_files) in zip(commands, fresh):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == want, argv
        assert files() == want_files, argv


@pytest.mark.parametrize(
    "line, message",
    [
        ("times = 1, inf", "times must be finite"),
        ("times = nan", "times must be finite"),
        ("range = -inf, 1, 3", "range needs a finite min and max"),
        ("range = -1, 1, inf", "range: steps must be an integer"),
        ("range = -1, 1, nan", "range: steps must be an integer"),
    ],
)
def test_slice_refuses_non_finite_fields(tmp_path, capsys, line, message):
    key = line.split(" = ")[0]
    base = {"free_axes": "free_axes = 0", "range": "range = -4, 4, 5", "times": "times = 1"}
    base[key] = line
    spec = tmp_path / "slice.cfg"
    spec.write_text("\n".join(base.values()) + "\n")
    out = tmp_path / "run"
    argv = ["slice", "--config", _cfg("clipped1d.cfg"), "--slice", str(spec), "--out", str(out)]
    code = main(argv)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("times", ["1.0000001, 1.0000002", "1, 1"])
def test_slice_times_sharing_a_file_exit_one(tmp_path, capsys, times):
    # Both times name <out>_t1.csv: the second table would overwrite the first.
    spec = tmp_path / "slice.cfg"
    spec.write_text(f"free_axes = 0\nrange = -4, 4, 5\ntimes = {times}\n")
    out = tmp_path / "run"
    argv = ["slice", "--config", _cfg("clipped1d.cfg"), "--slice", str(spec), "--out", str(out), "--render"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: times " in err and "run_t1.csv" in err
    assert not list(tmp_path.glob("run*"))


def test_slice_above_the_grid_cap_exits_one(tmp_path, capsys):
    # 100,000^2 rows would take about 75 GiB a coordinate: refused, naming
    # range, before any grid is built.
    spec = tmp_path / "slice.cfg"
    spec.write_text(
        "free_axes = 0, 1\nrange = -1, 1, 100000\nrange = -1, 1, 100000\n"
        "fixed = 0, 0, 0, 0, 0, 0, 0, 0\ntimes = 1\n"
    )
    out = tmp_path / "run"
    argv = ["slice", "--config", _cfg("ball10d.cfg"), "--slice", str(spec), "--out", str(out)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "error: range: 100000 x 100000 slice points exceed the 20000000 point cap" in err
    assert peak < 1 << 20
    assert not list(tmp_path.glob("run*"))


def test_slice_above_the_float_cap_exits_one(tmp_path, capsys):
    # 2,000^2 points are under the point cap, but their 10 coordinates and
    # one value, argmin and gap at each of 2 times are 64,000,000 floats
    # (about 0.5 GiB): refused, naming range, before any grid is built.
    spec = tmp_path / "slice.cfg"
    spec.write_text(
        "free_axes = 0, 1\nrange = -1, 1, 2000\nrange = -1, 1, 2000\n"
        "fixed = 0, 0, 0, 0, 0, 0, 0, 0\ntimes = 0.5, 1\n"
    )
    out = tmp_path / "run"
    argv = ["slice", "--config", _cfg("ball10d.cfg"), "--slice", str(spec), "--out", str(out)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "error: range: 2000 x 2000 slice points in R^10 at 2 times hold 64000000 floats" in err
    assert "above the 20000000 float cap" in err
    assert peak < 1 << 20
    assert not list(tmp_path.glob("run*"))


def test_l1_generator_above_cap_exits_one(tmp_path, capsys):
    big = tmp_path / "l1big.cfg"
    big.write_text(
        "architecture = arch2\ndimension = 14\nfunction = neg_half_squared_norm\n"
        "norm_hamiltonian = l1\n"
    )
    assert main(["eval", "--config", str(big), "--x", ",".join(["0"] * 14), "--t", "1"]) == 1
    assert "norm_hamiltonian: l1 constructor refused for n > 13" in capsys.readouterr().err


def test_envelope_violation_exit_code_and_witness(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "architecture = arch2\ndimension = 1\nfunction = neg_half_squared_norm\n"
        "param = -2, 0.5\nparam = 0, 5\nparam = 2, 1\n"
    )
    assert main(["eval", "--config", str(bad), "--x", "0", "--t", "1"]) == 1
    err = capsys.readouterr().err
    assert "row 2" in err


def test_usage_errors_exit_one(capsys):
    assert main(["eval", "--config"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    # The oracle's search box is a constant, not an option.
    assert main(["verify", "--config", _cfg("clipped1d.cfg"), "--box", "20"]) == 1
    assert "unrecognized arguments: --box 20" in capsys.readouterr().err


def test_slice_csv_schema_and_determinism(tmp_path, capsys):
    args = [
        "slice",
        "--config", _cfg("pwa1d.cfg"),
        "--slice", _cfg("slice_line1d.cfg"),
    ]
    assert main(args + ["--out", str(tmp_path / "a" / "run")]) == 0
    assert main(args + ["--out", str(tmp_path / "b" / "run")]) == 0
    capsys.readouterr()
    for tag in ("t1", "t3"):
        first = (tmp_path / "a" / f"run_{tag}.csv").read_bytes()
        second = (tmp_path / "b" / f"run_{tag}.csv").read_bytes()
        assert first == second
    lines = (tmp_path / "a" / "run_t1.csv").read_text().splitlines()
    assert lines[0] == "x0,t,value,argmin,gap"
    assert len(lines) == 1 + 101
    cells = lines[1].split(",")
    assert len(cells) == 5
    assert float(cells[0]) == -4.0
    assert float(cells[1]) == 1.0
    assert cells[3] in {"1", "2", "3"}


def test_slice_render_writes_pixmaps(tmp_path, capsys):
    code = main([
        "slice",
        "--config", _cfg("pwa1d.cfg"),
        "--slice", _cfg("slice_line1d.cfg"),
        "--out", str(tmp_path / "img"),
        "--render",
    ])
    assert code == 0
    capsys.readouterr()
    data = (tmp_path / "img_t1.pgm").read_bytes()
    assert data.startswith(b"P5\n101 1\n255\n")
    assert len(data) == len(b"P5\n101 1\n255\n") + 101
    assert data[-101:].count(0) >= 1 and data[-101:].count(255) >= 1


def test_slice_unwritable_output_exits_three(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("i am a file, not a directory")
    code = main([
        "slice",
        "--config", _cfg("pwa1d.cfg"),
        "--slice", _cfg("slice_line1d.cfg"),
        "--out", str(target / "run"),
    ])
    assert code == 3
    assert "I/O" in capsys.readouterr().err


def test_render_pgm_scaling():
    data = render_pgm(np.array([[0.0, 5.0], [10.0, 5.0]]), 2, 2)
    assert data == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 128])
    flat = render_pgm(np.array([3.0, 3.0]), 2, 1)
    assert flat.endswith(bytes([0, 0]))
    with pytest.raises(ValueError, match="non-finite"):
        render_pgm(np.array([np.inf, 0.0]), 2, 1)


def test_verify_pass_and_report_files(tmp_path, capsys):
    out = tmp_path / "report"
    code = main([
        "verify",
        "--config", _cfg("pwa1d.cfg"),
        "--samples", "15",
        "--seed", "1",
        "--pts", "4001",
        "--out", str(out),
    ])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    kv = dict(
        line.split("=", 1) for line in (tmp_path / "report.kv").read_text().splitlines()
    )
    assert kv["passed"] == "true"
    assert float(kv["max_oracle_gap"]) <= 2e-3
    assert "verification report" in (tmp_path / "report.txt").read_text()


def test_verify_two_dimensional_arch2_at_default_pts_exits_one(tmp_path, capsys):
    # The default --pts 40001 asks the velocity oracle for 1.6e9 grid nodes.
    problem = tmp_path / "pwa2d.cfg"
    problem.write_text(
        "architecture = arch2\ndimension = 2\nfunction = neg_half_squared_norm\n"
        "param = -2, -2, 4\nparam = -2, 2, 4\nparam = 2, -2, 4\nparam = 2, 2, 4\n"
    )
    code = main(["verify", "--config", str(problem), "--out", str(tmp_path / "r")])
    assert code == 1
    assert "40001^2 points exceeds the 20000000 point cap" in capsys.readouterr().err
    assert not list(tmp_path.glob("r.*"))


def test_verify_two_dimensional_arch2_above_the_lp_budget_exits_one(tmp_path, capsys, monkeypatch):
    # 4471^2 nodes are under the grid's point cap but each needs a simplex LP.
    lps = []
    solve = InitialDataNet.hamiltonian_conjugate
    monkeypatch.setattr(
        InitialDataNet,
        "hamiltonian_conjugate",
        lambda self, v: lps.append(len(np.atleast_2d(v))) or solve(self, v),
    )
    problem = tmp_path / "pwa2d.cfg"
    problem.write_text(
        "architecture = arch2\ndimension = 2\nfunction = neg_half_squared_norm\n"
        "param = -2, -2, 4\nparam = -2, 2, 4\nparam = 2, -2, 4\nparam = 2, 2, 4\n"
    )
    argv = ["verify", "--config", str(problem), "--pts", "4471", "--out", str(tmp_path / "r")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "4471^2 nodes" in err and "LP budget; reduce pts_per_axis" in err
    assert not lps
    assert not list(tmp_path.glob("r.*"))


def test_verify_high_dimension_requires_residual_only(tmp_path, capsys):
    code = main([
        "verify",
        "--config", _cfg("ball10d.cfg"),
        "--samples", "5",
        "--out", str(tmp_path / "r"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: residual-only: oracle comparison is refused for dimension 10 > 3; "
        "pass --residual-only to check the PDE residual instead\n"
    )

    code = main([
        "verify",
        "--config", _cfg("ball10d.cfg"),
        "--samples", "20",
        "--seed", "0",
        "--residual-only",
        "--out", str(tmp_path / "r2"),
    ])
    assert code == 0
    capsys.readouterr()


def test_slice_l1_net_time_zero_values(tmp_path, capsys):
    code = main([
        "slice",
        "--config", _cfg("l1norm5d.cfg"),
        "--slice", _cfg("slice_plane5d.cfg"),
        "--out", str(tmp_path / "l1"),
    ])
    assert code == 0
    capsys.readouterr()
    rows = (tmp_path / "l1_t0.csv").read_text().splitlines()[1:]
    assert len(rows) == 101 * 101
    for line in rows[:: 500]:
        x1, x2, _, value = (float(c) for c in line.split(",")[:4])
        assert value == pytest.approx(-(x1 * x1 + x2 * x2) / 2, abs=1e-12)


def test_slice_two_by_two_grid(tmp_path, capsys):
    spec = tmp_path / "tiny.cfg"
    spec.write_text(
        "free_axes = 0, 1\nrange = 0, 1, 2\nrange = 0, 1, 2\nfixed = 0, 0, 0\ntimes = 1\n"
    )
    code = main([
        "slice",
        "--config", _cfg("linfnorm5d.cfg"),
        "--slice", str(spec),
        "--out", str(tmp_path / "tiny"),
    ])
    assert code == 0
    capsys.readouterr()
    assert len((tmp_path / "tiny_t1.csv").read_text().splitlines()) == 1 + 4


def test_verify_residual_only_high_dimensional_initialdata(tmp_path, capsys):
    code = main([
        "verify",
        "--config", _cfg("pwa10d.cfg"),
        "--samples", "15",
        "--seed", "0",
        "--residual-only",
        "--out", str(tmp_path / "r"),
    ])
    assert code == 0
    capsys.readouterr()


def test_verify_samples_zero_trivially_passes(tmp_path, capsys):
    code = main([
        "verify",
        "--config", _cfg("clipped1d.cfg"),
        "--samples", "0",
        "--out", str(tmp_path / "empty"),
    ])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("samples, code", [("-5", 1), ("0", 0)])
def test_verify_refuses_negative_samples_but_not_zero(tmp_path, capsys, samples, code):
    # A negative count checks nothing, so it must not pass; zero stays an
    # empty report that passes.
    out = tmp_path / "r"
    assert main([
        "verify",
        "--config", _cfg("pwa10d.cfg"),
        "--samples", samples,
        "--residual-only",
        "--out", str(out),
    ]) == code
    err = capsys.readouterr().err
    if code:
        assert "error: samples:" in err
        assert not out.with_suffix(".kv").exists()
    else:
        kv = out.with_suffix(".kv").read_text()
        assert "samples=0\n" in kv and "passed=true\n" in kv


@pytest.mark.parametrize("architecture", ["arch1", "arch2"])
@pytest.mark.parametrize("dims", ["0", "-1", "3,0"])
def test_bench_refuses_dimensions_below_one(monkeypatch, capsys, architecture, dims):
    built = []
    monkeypatch.setattr("hjeval.bench.synthetic_net", lambda *args: built.append(args))
    assert main(["bench", "--architecture", architecture, "--dims", dims, "--reps", "1"]) == 1
    assert "error: dims:" in capsys.readouterr().err
    assert built == []


def test_bench_refuses_dimensions_that_are_not_integers(monkeypatch, capsys):
    monkeypatch.setattr("hjeval.bench.synthetic_net", None)
    assert main(["bench", "--architecture", "arch1", "--dims", "2,x", "--reps", "1"]) == 1
    assert capsys.readouterr().err == "error: dims: not integers: '2,x'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--architecture", "arch1", "--dims", "2", "--m", "0"], "error: m: the arch1 net needs at least one branch, got 0"),
        (["--architecture", "arch1", "--dims", "2", "--m", "-1"], "error: m: "),
        (["--architecture", "arch1", "--dims", "2", "--seed", "-1"], "error: seed: must be nonnegative, got -1"),
        (["--architecture", "arch2", "--dims", "2", "--seed", "-1"], "error: seed: "),
    ],
)
def test_bench_refuses_no_branches_and_negative_seeds(monkeypatch, capsys, argv, message):
    built = []
    monkeypatch.setattr("hjeval.bench.synthetic_net", lambda *args: built.append(args))
    assert main(["bench", *argv, "--reps", "1"]) == 1
    assert message in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(architecture="arch1", dims=[], m=8, reps=1), "dims must be nonempty"),
        (dict(architecture="arch2", dims=[2], m=8, reps=0), "reps must be at least 1"),
    ],
)
def test_run_bench_refusals_build_no_net(monkeypatch, kwargs, message):
    monkeypatch.setattr("hjeval.bench.synthetic_net", None)
    with pytest.raises(ValueError, match=message):
        run_bench(**kwargs)


def test_synthetic_net_is_the_linf_preset_for_arch2():
    net, preset = synthetic_net("arch2", 6, 8), linf_hamiltonian_net(6)
    np.testing.assert_array_equal(net.rows, preset.rows)
    np.testing.assert_array_equal(net.offsets, preset.offsets)
    assert net.initial_data == preset.initial_data
    with pytest.raises(ValueError, match="unknown architecture 'arch3'"):
        synthetic_net("arch3", 2, 8)


def test_verify_refuses_a_negative_seed_before_its_oracle(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("hjeval.oracle._oracle", None)
    out = tmp_path / "r"
    assert main([
        "verify", "--config", _cfg("pwa1d.cfg"), "--seed", "-1", "--out", str(out),
    ]) == 1
    assert "error: seed: must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.with_suffix(".kv").exists()


def test_bench_csv_output(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main([
        "bench",
        "--architecture", "arch1",
        "--dims", "10",
        "--m", "3",
        "--reps", "1",
        "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "n,m,mean_eval_time"
    n, m, t = lines[1].split(",")
    assert (n, m) == ("10", "3")
    assert float(t) > 0

    assert main(["bench", "--architecture", "arch2", "--dims", "1,2", "--reps", "1"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("n,m,mean_eval_time\n")
    assert main(["bench", "--architecture", "arch2", "--dims", "x", "--reps", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--architecture", "arch2", "--dims", "2,1401"], "dims: the arch2 net at n=1401"),
        (["--architecture", "arch1", "--dims", "2,4200"], "m, dims: the arch1 net at m=8, n=4200"),
        (["--architecture", "arch1", "--dims", "10", "--m", "10000000"], "m, dims"),
    ],
)
def test_bench_above_the_construction_budget_exits_one(capsys, argv, message):
    # Refused before any net or point set is built.
    tracemalloc.start()
    try:
        code = main(["bench", *argv, "--reps", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "construction budget" in err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        # Buildable, but 5,000 calls at 9-36 ms each.
        ["--architecture", "arch2", "--dims", "1400", "--reps", "5"],
        ["--architecture", "arch1", "--dims", "1000", "--m", "3000", "--reps", "3"],
        # Ten million calls of a tiny net.
        ["--architecture", "arch2", "--dims", "1", "--reps", "10000"],
    ],
)
def test_bench_above_the_run_time_budget_exits_one(capsys, argv):
    # Refused before any net or point set is built, naming reps.
    tracemalloc.start()
    try:
        code = main(["bench", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "error: reps:" in err and "run-time budget" in err
    assert peak < 1 << 20
