"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured statistic (run with -s to stream them).

Criteria 6 and 7 train the scaled benchmark (10-class blobs, 40% symmetric
train noise, 100 epochs); their runs are shared through a module-scoped
fixture, run on a process pool, and dominate the suite's runtime.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from rml_lab.cli import ExperimentConfig, cmd_train
from rml_lab.data import (
    feature_stats,
    make_blobs,
    read_idx_images_raw,
    read_idx_labels_raw,
    split,
    standardize,
    write_idx_images,
    write_idx_labels,
)
from rml_lab.model import init_model, init_optimizer
from rml_lab.noise import corruption_mask, inject_pairflip, inject_symmetric
from rml_lab.numerics import RngStream, softmax
from rml_lab.rml import RegroupParams, selection_probabilities
from rml_lab.trainer import RunConfig, train_ce, train_rml, train_rml_semi
from rml_lab.verify import check_mom_robustness, check_prop1, check_prop2
from rml_lab import model as model_ops

# Scaled benchmark: 10 classes x 500, 40% symmetric train noise, mlp(256),
# 100 epochs with 5 warmup epochs and n=6 regrouping.  Weight decay is off
# so the plain-CE baseline is free to memorize the corrupted labels; that is
# the failure mode the weighted loss is supposed to prevent.
BENCH = dict(num_classes=10, per_class=500, dim=8, separation=4.0,
             noise_rate=0.4, hidden=256, lr=0.1, weight_decay=0.0,
             epochs=100, warmup=5, batch=128, n=6, k=20, common=60)
SEEDS = (0, 1, 2, 3, 4)


def _report(criterion: int, detail: str):
    print(f"[criterion {criterion}] PASS: {detail}")


def _bench_data(seed: int):
    ds = make_blobs(BENCH["num_classes"], BENCH["per_class"], BENCH["dim"],
                    BENCH["separation"], RngStream(seed, 1))
    train, test = split(ds, 0.2, RngStream(seed, 3))
    train = inject_symmetric(train, BENCH["noise_rate"], RngStream(seed, 2))
    mean, std = feature_stats(train.features)
    return standardize(train, mean, std), standardize(test, mean, std)


def _bench_run(seed: int, mode: str, regroup_overrides=None):
    train, test = _bench_data(seed)
    student = init_model("mlp", train.dim, train.num_classes,
                         RngStream(seed, 4), hidden=BENCH["hidden"])
    opt = init_optimizer(student, BENCH["lr"], BENCH["epochs"],
                         weight_decay=BENCH["weight_decay"])
    regroup = RegroupParams(n=BENCH["n"], k=BENCH["k"])
    if regroup_overrides:
        regroup = replace(regroup, **regroup_overrides)
    config = RunConfig(
        mode=mode, total_epochs=BENCH["epochs"], batch_size=BENCH["batch"],
        warmup_epochs=BENCH["warmup"], seed=seed, regroup=regroup,
        common_epochs=BENCH["common"] if mode == "rml_semi" else None,
    )
    if mode == "ce":
        model, rows = train_ce(train, student, opt, config, test)
        return model, rows, train
    teacher = student.copy()
    fn = train_rml if mode == "rml" else train_rml_semi
    model, _, rows = fn(train, student, teacher, opt, config, test)
    return model, rows, train


VARIANTS = {
    "ce": ("ce", None),
    "rml": ("rml", None),
    "rml_semi": ("rml_semi", None),
    "no_processing": ("rml", {"use_processed_loss": False}),
    "no_median": ("rml", {"estimator": "mean"}),
}


def _matrix_job(seed: int, name: str):
    """One (seed, variant) run: its final test accuracy, and for seed 0's
    rml also the trained model, metrics rows and training set."""
    mode, overrides = VARIANTS[name]
    model, rows, train = _bench_run(seed, mode, overrides)
    keep = (model, rows, train) if (seed, name) == (SEEDS[0], "rml") else None
    return rows[-1].test_accuracy, keep


@pytest.fixture(scope="module")
def benchmark_matrix():
    """Final test accuracy for every (seed, variant) of the scaled setting,
    plus the seed-0 trained rml model for the separation criterion.

    The runs are independent and deterministic, so they go to one spawned
    worker per CPU, each with OpenBLAS on one thread; on one CPU they run
    here, one after another."""
    jobs = [(seed, name) for seed in SEEDS for name in VARIANTS]
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if workers == 1:
        results = [_matrix_job(*job) for job in jobs]
    else:
        # Workers read the variable when they load numpy, so it must be set
        # before they start.
        with pytest.MonkeyPatch.context() as env:
            env.setenv("OPENBLAS_NUM_THREADS", "1")
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                results = list(pool.map(_matrix_job, *zip(*jobs)))
    accuracy = {name: [] for name in VARIANTS}
    keep = {}
    for (seed, name), (acc, kept) in zip(jobs, results):
        accuracy[name].append(acc)
        if kept is not None:
            keep["model"], keep["rows"], keep["train"] = kept
    return accuracy, keep


def test_criterion_1_selection_shift_identity():
    started = time.time()
    report = check_prop1(10_000, 100, RngStream(0, 5), loss_range=(0.0, 30.0))
    elapsed = time.time() - started
    assert report["pass"]
    assert report["statistic"] < 1e-9
    assert report["beta_always_positive"]
    assert elapsed < 10.0
    _report(1, f"max identity residual {report['statistic']:.2e} over 1e4 pools, "
               f"beta > 0 throughout, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    from tests.test_model import finite_difference_grads, max_relative_error, random_case

    started = time.time()
    worst = 0.0
    rng = RngStream(1, 5)
    for arch in ("linear", "mlp"):
        for trial in range(100):
            model, x, y, w = random_case(arch, rng.child(trial * 2 + (arch == "mlp")))
            _, analytic = model_ops.loss_and_grad(model, x, y, w)
            numeric = finite_difference_grads(model, x, y, w)
            worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.time() - started
    assert worst < 1e-4
    assert elapsed < 30.0
    _report(2, f"max relative gradient error {worst:.2e} over 100 pairs x 2 "
               f"architectures, {elapsed:.1f}s")


def test_criterion_3_median_contamination_containment():
    started = time.time()
    report = check_mom_robustness(ns=(2, 4, 6), ks=(1, 2, 3))
    elapsed = time.time() - started
    assert report["pass"] and report["statistic"] == 0
    assert elapsed < 10.0
    _report(3, f"{report['trials']} contamination patterns, zero containment "
               f"violations, {elapsed:.1f}s")


def test_criterion_4_deviation_bound():
    started = time.time()
    report = check_prop2(100_000, RngStream(2, 5), n=6, k=10, epsilon_r=1.2,
                         loc=1.0, scale=1.0)
    elapsed = time.time() - started
    assert report["margin"] > 0.1
    assert report["pass"] and not report["vacuous"]
    assert elapsed < 60.0
    _report(4, f"exceedance rate {report['statistic']:.5f} <= bound "
               f"{report['bound']:.5f} over 1e5 trials, {elapsed:.1f}s")


def test_criterion_5_noise_injector_rates():
    started = time.time()
    clean = make_blobs(10, 10_000, 4, 6.0, RngStream(3, 1))
    checks = []
    for rate, stream in ((0.2, 21), (0.5, 22)):
        noisy = inject_symmetric(clean, rate, RngStream(3, stream))
        realized = corruption_mask(noisy).mean()
        assert abs(realized - rate) < 0.01
        checks.append(f"symmetric {rate}: {realized:.4f}")
    pair = inject_pairflip(clean, 0.45, RngStream(3, 23))
    realized = corruption_mask(pair).mean()
    assert abs(realized - 0.45) < 0.01
    # Off-band transitions must carry exactly zero mass.
    y, o = pair.true_labels, pair.observed_labels
    off_band = (o != y) & (o != (y + 1) % 10)
    assert not off_band.any()
    checks.append(f"pairflip 0.45: {realized:.4f}, band-confined")
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(5, "; ".join(checks) + f", {elapsed:.1f}s")


def test_criterion_6_loss_separation(benchmark_matrix):
    _, keep = benchmark_matrix
    model, train = keep["model"], keep["train"]
    probs = model_ops.forward(model, train.features)
    losses = model_ops.per_sample_ce(probs, train.observed_labels)
    mask = corruption_mask(train)
    clean_loss = losses[~mask].mean()
    noisy_loss = losses[mask].mean()
    factor = noisy_loss / clean_loss
    assert factor >= 2.0

    processed_p = np.empty(train.n_samples)
    plain_p = np.empty(train.n_samples)
    for members in train.class_index:
        member_losses = losses[members]
        processed_p[members] = selection_probabilities(member_losses, 1.0)
        plain_p[members] = softmax(-member_losses)
    assert processed_p[~mask].mean() > plain_p[~mask].mean()
    _report(6, f"corrupted/clean loss factor {factor:.1f} (>= 2), clean "
               f"selection probability {processed_p[~mask].mean():.3e} processed "
               f"> {plain_p[~mask].mean():.3e} plain")


def test_criterion_7_method_ordering(benchmark_matrix):
    accuracy, _ = benchmark_matrix
    means = {name: float(np.mean(accs)) for name, accs in accuracy.items()}
    table = "; ".join(
        f"{name} mean {means[name]:.4f} per seed "
        + " ".join(f"{acc:.3f}" for acc in accuracy[name])
        for name in sorted(accuracy))
    assert means["rml_semi"] >= means["rml"], table
    assert means["rml"] >= means["ce"], table
    assert means["rml"] >= means["no_processing"], table
    assert means["rml"] >= means["no_median"], table
    assert means["rml"] - means["ce"] >= 0.03, table
    _report(7, "mean accuracy over 5 seeds: " +
               ", ".join(f"{k}={v:.4f}" for k, v in sorted(means.items())) +
               f"; rml-ce margin {means['rml'] - means['ce']:.4f} (>= 0.03)")


def test_criterion_8_cmd_train_determinism(tmp_path):
    payload = {
        "dataset": {"kind": "blobs", "num_classes": 4, "per_class": 60,
                    "dim": 4, "separation": 6.0},
        "noise": {"kind": "symmetric", "rate": 0.3},
        "model": {"arch": "mlp", "hidden": 16},
        "run": {"mode": "rml_semi", "total_epochs": 12, "common_epochs": 8,
                "batch_size": 32, "warmup_epochs": 2, "seed": 11,
                "regroup": {"n": 2, "k": 3}},
    }
    config = ExperimentConfig.from_dict(payload)
    cmd_train(config, seed=11, out_dir=tmp_path / "a")
    cmd_train(config, seed=11, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    _report(8, f"two cmd_train runs produced byte-identical metrics "
               f"({len(a)} bytes)")


def test_criterion_9_idx_round_trip(tmp_path):
    started = time.time()
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, size=(64, 9, 7), dtype=np.uint8)
    labels = rng.integers(0, 10, size=64, dtype=np.uint8)
    write_idx_images(tmp_path / "img.idx", images)
    write_idx_labels(tmp_path / "lab.idx", labels)
    np.testing.assert_array_equal(read_idx_images_raw(tmp_path / "img.idx"), images)
    np.testing.assert_array_equal(read_idx_labels_raw(tmp_path / "lab.idx"), labels)
    elapsed = time.time() - started
    assert elapsed < 1.0
    _report(9, f"images and labels reproduced bit-exactly, {elapsed:.2f}s")
