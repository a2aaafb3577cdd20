"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric is emitted with its unit and that a corrupted
output (one flipped CSV byte, one wrong argmin) counts as a failed
operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Hooks, Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Workload metrics of the report, with their units, beyond the contract's.
REPORTED = {
    "eval": {"point_p50_us": "us", "point_p99_us": "us", "point_samples": "count", "batch_points_per_s": "points/s"},
    "slice": {"slice_rows_per_s": "rows/s"},
    "certify": {"certify_rows_per_s": "rows/s"},
    "verify": {"verify_samples_per_s": "samples/s"},
}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in final["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in final["metrics"].values())

    report = lines[:-1]
    assert any(line.startswith("failed_ratio: 0 failed/attempted") for line in report)
    for name, unit in REPORTED[workload].items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in report), name
    for key in ("git_sha", "python", "numpy", "nproc", "thread_pin", "seed"):
        assert f'"{key}"' in next(line for line in report if line.startswith("environment: "))
    if trace:
        assert "trace.overhead_ratio" in final["metrics"]
        assert (ROOT / ".perfbench" / f"trace_{workload}.csv").stat().st_size > 0


def _workload(name, tmp_path):
    workload = WORKLOADS[name](tmp_path, 3, "tiny", Hooks())
    workload.setup()
    return workload


def test_flipped_csv_byte_counts_as_failure(tmp_path):
    workload = _workload("slice", tmp_path)
    flips = []

    def flip_one_byte(paths):
        if not flips:
            data = bytearray(paths[0].read_bytes())
            data[-2] ^= 0x01
            paths[0].write_bytes(bytes(data))
            flips.append(paths[0])

    workload.tamper = flip_one_byte
    rec = Recorder()
    workload.run_pass(rec)
    assert flips
    assert rec.failed == 1 and rec.attempted == len(workload.keys())


def test_wrong_argmin_counts_as_failure(tmp_path):
    workload = _workload("eval", tmp_path)
    flips = []

    def flip_one_argmin(argmins, decisive):
        if not flips:
            i = int(decisive.nonzero()[0][0])
            argmins[i] = argmins[i] % 3 + 1
            flips.append(i)

    workload.tamper = flip_one_argmin
    rec = Recorder()
    workload.run_pass(rec)
    assert flips
    assert rec.failed == 1 and rec.attempted > 1


def test_untampered_pass_has_no_failures(tmp_path):
    for name in sorted(WORKLOADS):
        rec = Recorder()
        _workload(name, tmp_path / name).run_pass(rec)
        assert rec.failed == 0 and rec.attempted >= 1, name


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
