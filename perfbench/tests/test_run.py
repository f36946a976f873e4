"""One short completed run of each workload, on a seed other than the
one the benchmark was tuned with, through the command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, check=False)


def _result(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.rstrip("\n").split("\n")[-1])


@pytest.mark.parametrize("workload", ["steady", "hotspot", "rejoin"])
def test_end_to_end_run(workload):
    from perfbench.run import END_TO_END

    result = _result(_run("--workload", workload, "--seed", "2", "--seconds", "0",
                          "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _u, _b in END_TO_END}
    for name, unit, _better in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    from perfbench.layers import PER_LAYER

    completed = _run("--workload", "hotspot", "--seed", "2", "--seconds", "0",
                     "--trace", "1")
    result = _result(completed)
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _u, _b in PER_LAYER}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["db.locks.requests_per_commit"] > 0
    assert metrics["trace.overhead_ratio"] > 1
    assert all(value == 0 for name, value in metrics.items()
               if name.startswith("reconfig."))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60, check=False)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
