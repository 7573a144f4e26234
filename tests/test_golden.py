"""Golden bytes: a small run of every training mode and ablation, and the
verify suite, hashed under one pinned BLAS kernel and SIMD target.

One subprocess runs with OpenBLAS on one thread and its Haswell core, and
numpy's AVX-512 dispatch off, so the bytes do not depend on which of those
the host would pick.  It hashes each `metrics.csv` and checkpoint of
`cmd_train` on 10 x 60 blobs (40% symmetric noise, mlp 64, 20 epochs) and
the sorted `cmd_verify("all", 0)` report at small trial counts, and reads
the BLAS core and SIMD targets from the runs' `summary.json` host block.
The hashes are pinned per numpy major.minor.  A change that moves these bytes
on purpose re-pins them in the same diff; on a host where the pins cannot take
effect, or on a numpy with no pins, the test skips and says why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}

# numpy major.minor -> the SIMD targets the pinned run dispatches, and the
# SHA-256 of every output.
PINS = {
    "2.4": {
        "dispatch": ["X86_V3"],
        "sha256": {
            "ce/metrics.csv":
                "c2a7fdf91f23daf25df477ea4844d9a20488ffe431311c542a6eb53b45af277b",
            "ce/student.ckpt":
                "5fd1f5fbbf017a29d2f0cf2d2d88ae4e91d4720ef37c5c5a95932a0743ae2a9d",
            "rml/metrics.csv":
                "3fb41d05b81731238810eb213b3f773827d04a56824b658e6a1c17e4790a22e4",
            "rml/student.ckpt":
                "28cb994d1e0a5a66314454f26603664ce6c41a7f1bbcc8fbe28988b0b1b0541c",
            "rml/teacher.ckpt":
                "bfa34ec1883c4b74feb7b283a34f5739edda689c9dfa52b803d4075bfddc7bc6",
            "rml_semi/metrics.csv":
                "48d3554d9d6ef3710f8c3662c2b5bc305804c9c795c1e9ade5601d6e69b07a02",
            "rml_semi/student.ckpt":
                "e4085c196a35da02f95414e21136f42f69f36df86a7d221b2536ff531f8e9fa3",
            "rml_semi/teacher.ckpt":
                "53deace9aa04c447e1ba8e9ba5a6d81867decbbcb5e4a4d78557b72bdce0cf10",
            "no_processing/metrics.csv":
                "d91c31cf902f030ab7cdf32ba6c2f3fa5e04869cd2d4bc26dd472e2274adf3f4",
            "no_processing/student.ckpt":
                "16557265abd48f095f86267670b55e1e5cb18aa2ac080bebb937f73eccf1b39e",
            "no_processing/teacher.ckpt":
                "4633668189ba46622b7cdcde2a6cad749ed1f4dda9a8aa3889c852b50ec14d41",
            "no_median/metrics.csv":
                "09c83754fd3e3bc65bbf1828708e1ea4d15900cd3ebd0dc5c5f8cf6b6068683a",
            "no_median/student.ckpt":
                "225f30f0a96995e004d311ff4ba11af3d2887bfb9cc93c6584cc5a99e45f7519",
            "no_median/teacher.ckpt":
                "e6fa8f4e7bb9c7046f8583eec57cb911e454bcd5905d8817392132b4b4ba28fe",
            "verify/report.json":
                "44c59985a33fb96911f394fefba51b765a3b36266a5e19ca16c90072d85a5d79",
        },
    },
}

SCRIPT = r'''
import hashlib, json, sys, tempfile
from pathlib import Path

from rml_lab import cli

SMALL = {
    "dataset": {"kind": "blobs", "num_classes": 10, "per_class": 60, "dim": 8,
                "separation": 4.0},
    "noise": {"kind": "symmetric", "rate": 0.4},
    "model": {"arch": "mlp", "hidden": 64},
    "run": {"total_epochs": 20, "batch_size": 64, "warmup_epochs": 3,
            "ema_lambda": 0.98},
}
RUNS = {
    "ce": {"mode": "ce"},
    "rml": {"mode": "rml"},
    "rml_semi": {"mode": "rml_semi", "common_epochs": 12},
    "no_processing": {"mode": "rml", "regroup": {"use_processed_loss": False}},
    "no_median": {"mode": "rml", "regroup": {"estimator": "mean"}},
}

def sha256(data):
    return hashlib.sha256(data).hexdigest()

hashes = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, run in RUNS.items():
        payload = json.loads(json.dumps(SMALL))
        payload["run"].update(run)
        out = Path(tmp) / name
        host = cli.cmd_train(cli.ExperimentConfig.from_dict(payload), 0, out)["host"]
        for file in ("metrics.csv", "student.ckpt", "teacher.ckpt"):
            if (out / file).exists():
                hashes[f"{name}/{file}"] = sha256((out / file).read_bytes())
report = cli.cmd_verify("all", 0, trials=200)
hashes["verify/report.json"] = sha256(json.dumps(report, sort_keys=True).encode())
json.dump({"corename": host["openblas_core"], "dispatch": host["simd_dispatch"],
           "sha256": hashes}, sys.stdout)
'''


def run_pinned() -> dict:
    env = {**os.environ, **PINNED_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_golden_bytes_under_pinned_kernel():
    version = ".".join(np.__version__.split(".")[:2])
    if version not in PINS:
        pytest.skip(f"no golden bytes pinned for numpy {version}")
    pins = PINS[version]
    got = run_pinned()
    if got["corename"] != "Haswell":
        pytest.skip(f"OpenBLAS ran its {got['corename']} core, not the pinned Haswell")
    if got["dispatch"] != pins["dispatch"]:
        pytest.skip(f"numpy dispatched {got['dispatch']}, not the pinned {pins['dispatch']}")
    assert pins["sha256"], "no hashes pinned"
    assert got["sha256"] == pins["sha256"]
