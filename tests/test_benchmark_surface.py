"""The benchmark under `perfbench/` calls into the program from outside this
suite: its traced run wraps the functions named in `spans.py`'s LAYERS, and
`checks.py` calls `rml.probability_shift` on one pool at a time, and its
refresh check unpacks `rml.refresh_cache`'s call arguments 1 and 2 as the
dataset and the model.  `spans.py` counts the rows of `model.forward` and
`model.loss_and_grad` as the length of call argument 1, the features.  A
rename, deletion or changed signature would break benchmark runs; these tests
fail first instead.  Each workload's set-up also runs here as the benchmark
runs it, in a subprocess, so a break in the calls it makes fails here too."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rml_lab import model, rml
from rml_lab.numerics import RngStream
from rml_lab.verify import check_prop1

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name, monkeypatch):
    """perfbench/<name>.py as a module, without writing bytecode under perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    spans = _load("spans", monkeypatch)
    missing = [f"{layer}.{name}" for layer, names in spans.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"rml_lab.{layer}"), name, None))]
    assert missing == []


def test_prop1_check_accepts_the_program_shift(monkeypatch):
    checks = _load("checks", monkeypatch)
    checks.check_prop1(check_prop1(200, 100, RngStream(0, 5)), rml.probability_shift,
                       np.random.default_rng(0))


def test_refresh_cache_takes_dataset_and_model_second_and_third():
    names = list(inspect.signature(rml.refresh_cache).parameters)
    assert names[1:3] == ["dataset", "model"]


def test_row_counted_functions_take_features_second():
    for fn in (model.forward, model.loss_and_grad):
        assert list(inspect.signature(fn).parameters)[1] == "features"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_setup_runs(workload):
    # -B keeps bytecode out of perfbench/.
    done = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--setup-only", "--smoke",
         "--workload", workload, "--seed", "0"],
        cwd=ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    float(done.stdout)
