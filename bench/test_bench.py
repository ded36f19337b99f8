"""Tests of the benchmark itself: ``python -m pytest bench``.

The smoke runs take every workload's code path and every check on tiny
grids, and check that the printed metrics are exactly those
``BENCHMARK.json`` declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_checks_and_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    checks = json.loads(lines[-2])["checks"]
    assert checks and all(c["ok"] for c in checks), checks
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_workloads_match_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(
        workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    w = workloads.get_workload("nonlinear-default")
    assert workloads.make_inputs(w, 5) == workloads.make_inputs(w, 5)
    assert workloads.make_inputs(w, 5) != workloads.make_inputs(w, 6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "nonlinear-default", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    log = [["bench.setup", 0.0, 10.0, -1],
           ["landau.tables", 1.0, 6.0, 0],
           ["landau.epsilon_op", 2.0, 5.0, 1],
           ["dynamics.advance", 10.0, 20.0, -1],
           ["dynamics.collision", 11.0, 15.0, 3],
           ["bench.sink", 16.0, 19.0, 3],
           ["bench.record", 16.5, 18.5, 5]]
    acc = spans.summarize(log)
    assert acc[("setup", "landau.tables")] == [2.0, 5.0, 1]
    assert acc[("setup", "landau.epsilon_op")] == [3.0, 3.0, 1]
    assert acc[("step", "dynamics.advance")] == [3.0, 10.0, 1]
    assert acc[("step", "dynamics.collision")][2] == 1
    assert acc[("record", "bench.record")] == [2.0, 2.0, 1]
