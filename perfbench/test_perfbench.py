"""Smoke test of the benchmark harness at reduced input sizes (``--smoke``)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workdir: Path, workload: str, seed: int, trace: int):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke",
         "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    *_, report_line, result_line = completed.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return json.loads(report_line)["perfbench"], result


def _units(declared):
    return {metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_units_and_seeds(tmp_path, workload):
    first_report, first = _run(tmp_path, workload, 1, 0)
    second_report, second = _run(tmp_path, workload, 2, 0)
    for result in (first, second):
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == _units(SPEC["end_to_end"])
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert first_report["input_sha256"] != second_report["input_sha256"]

    report, traced = _run(tmp_path, workload, 1, 1)
    emitted = {name: metric["unit"] for name, metric in traced["metrics"].items()}
    assert emitted == _units(SPEC["per_layer"])
    assert (tmp_path / report["measurement"]["trace_file"]).is_file()
    layers = {name: metric["value"] for name, metric in traced["metrics"].items()}
    if workload == "cold_sweep":  # one put and no hit per stream
        assert (layers["streamstore.puts"], layers["streamstore.hits"]) == (2, 0)
    if workload == "warm_sweep":  # every stream read back, none written
        assert (layers["streamstore.puts"], layers["streamstore.hits"]) == (0, 2)
