"""Smoke tests of the benchmark: every workload, traced and untraced, on
shrunken inputs, with all output checks on.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_end_to_end_metrics(workload):
    out = result(bench("--smoke", "--workload", workload, "--seed", "0",
                       "--seconds", "1", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [result(bench("--smoke", "--workload", workload, "--seed", "0",
                         "--seconds", "1", "--trace", "1")) for _ in range(2)]
    for out in runs:
        assert out["correct"] and out["failed"] == 0
        assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = [{k: v["value"] for k, v in out["metrics"].items()
               if k.endswith(("_calls", "_rows", "_ratio"))} for out in runs]
    assert counts[0] == counts[1]


def test_traced_rml_counts():
    metrics = result(bench("--smoke", "--workload", "bench_rml", "--seed", "0",
                           "--seconds", "1", "--trace", "1"))["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    # 20 epochs, warmup 3: refreshes after epochs 2..19, the last one unread.
    assert value["rml.refresh_cache_calls"] == 18
    assert value["rml.refresh_read_ratio"] == 17 / 18
    assert value["rml.regroup_median_calls"] == value["numerics.race_draw_calls"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "bench_ce", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
