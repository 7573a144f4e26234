"""Every full-size pass holds a bounded working set, and an injector's
result holds only its labels: traced peak or retained memory (tracemalloc,
which sees numpy's buffers) of one call, with its inputs built before
tracing starts.  Each bound sits between the blocked pass's peak and
that of the same pass done in one piece.  The forward's blocks are even."""

import tracemalloc

import numpy as np
import numpy.random  # noqa: F401 - numpy loads it lazily; its 0.7 MB import counts in no peak
import pytest

from rml_lab import model as model_ops
from rml_lab.data import Dataset, feature_stats, make_blobs
from rml_lab.noise import inject_instance_dependent, inject_pairflip, inject_symmetric
from rml_lab.numerics import RngStream, child_random, softmax
from rml_lab.rml import RegroupParams, regroup_estimates
from rml_lab.verify import check_prop1, check_prop2

MB = 2 ** 20


def traced_call(fn, retained=False):
    """fn()'s result and the peak bytes allocated while it ran, above what
    was live before; with retained=True, the bytes still live after it
    returned, its result included, instead of the peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        return (current if retained else peak) - base, result
    finally:
        tracemalloc.stop()


def test_forward_runs_in_row_blocks():
    # One (20 000, 256) hidden buffer alone would be 41 MB; blocks of 1 000
    # rows hold 2 MB each, next to the (20 000, 10) output.
    model = model_ops.init_model("mlp", 8, 10, RngStream(0, 4), hidden=256)
    x = RngStream(0, 1).normal(size=(20_000, 8))
    peak, probs = traced_call(lambda: model_ops.forward(model, x))
    assert peak < 8 * MB
    whole = softmax(model_ops._logits_parts(model, x)[0], axis=1)
    np.testing.assert_allclose(probs, whole, rtol=1e-12, atol=0)


@pytest.mark.parametrize("rows, blocks", [
    (0, []), (1024, [1024]), (1025, [513, 512]), (4100, [820] * 5),
])
def test_forward_blocks_are_even(rows, blocks, monkeypatch):
    # Even blocks leave no small tail: on OpenBLAS's SkylakeX core, blocks of
    # 1 024 rows and a tail would change bits at 1 100, 1 300 and 4 100 rows,
    # where a tail of a few hundred rows or less takes its small-matrix GEMM.
    model = model_ops.init_model("mlp", 8, 10, RngStream(0, 4), hidden=256)
    seen, logits_parts = [], model_ops._logits_parts
    monkeypatch.setattr(model_ops, "_logits_parts",
                        lambda model, x: seen.append(len(x)) or logits_parts(model, x))
    assert model_ops.forward(model, np.zeros((rows, 8))).shape == (rows, 10)
    assert seen == blocks


def test_refresh_chunks_a_large_class():
    # One 2 000-sample class: chunks of 8 rows keep each (rows, 2 000)
    # array at 128 KB (1.6 MB here; chunks of 32 rows give 2.8).
    g = RngStream(0, 9)
    losses = g.generator.exponential(1.0, 2000)
    dataset = Dataset(g.normal(size=(2000, 2)), np.zeros(2000, dtype=np.int64), 1)
    peak, _ = traced_call(lambda: regroup_estimates(losses, dataset, RegroupParams(),
                                                    RngStream(0, 12)))
    assert peak < 2.2 * MB


def test_prop1_chunks_its_pools():
    # 1.2 MB here; chunks of 655 pools give 4.6.
    peak, _ = traced_call(lambda: check_prop1(10_000, 100, RngStream(0, 5)))
    assert peak < 2 * MB


def test_prop2_chunks_its_trials():
    # 0.6 MB here; chunks of 1 074 trials give 2.5.
    peak, _ = traced_call(lambda: check_prop2(100_000, RngStream(0, 6)))
    assert peak < 1.2 * MB


@pytest.fixture(scope="module")
def blobs_1e5():
    return make_blobs(10, 10_000, 4, 6.0, RngStream(0, 1))


def test_make_blobs_draws_noise_in_blocks():
    # The (10^5, 4) features and one uint8 label array: 3.3 MB here; int64
    # labels give 3.9, a class index built with the dataset as well 4.7,
    # and one whole noise draw and a second int64 label array on top 6.9.
    peak, _ = traced_call(lambda: make_blobs(10, 10_000, 4, 6.0, RngStream(0, 1)))
    assert peak < 3.6 * MB


def test_feature_stats_sums_in_blocks(blobs_1e5):
    # 0.4 MB here; numpy's std builds a whole (N, d) deviation, 3.1 MB.
    peak, _ = traced_call(lambda: feature_stats(blobs_1e5.features))
    assert peak < 1 * MB


def test_instance_dependent_works_class_by_class(blobs_1e5):
    # 10^5 samples of 10 classes: no (N, C) transition or cdf array, no
    # whole-N uniforms, flip probabilities or standardized features, no
    # (N, d) deviation, and uint8 labels (1.3 MB here; int64 labels give
    # 1.9, and whole classes and feature_stats by numpy's std 4.5).
    peak, _ = traced_call(lambda: inject_instance_dependent(blobs_1e5, 0.3, RngStream(0, 24)))
    assert peak < 1.6 * MB


@pytest.mark.parametrize("inject, rate", [(inject_symmetric, 0.2), (inject_pairflip, 0.45)])
def test_flip_injectors_draw_children_in_passes(blobs_1e5, inject, rate):
    # 2.0 and 1.4 MB here with uint8 labels; int64 labels give 2.6 and 2.1,
    # and whole-N indices and uniforms 3.7.
    bound = {inject_symmetric: 2.3, inject_pairflip: 1.8}[inject]
    peak, _ = traced_call(lambda: inject(blobs_1e5, rate, RngStream(0, 21)))
    assert peak < bound * MB


@pytest.mark.parametrize("inject, rate", [(inject_symmetric, 0.2), (inject_pairflip, 0.45),
                                         (inject_instance_dependent, 0.3)])
def test_injectors_retain_only_their_labels(inject, rate):
    # The new (10^5,) uint8 labels, 0.1 MB: not int64 labels (0.8 MB), and
    # no class index of the result, which nothing reads, nor of the input
    # (0.8 MB more with either).  The input is fresh, since the shared one's
    # index may have been built already.
    clean = make_blobs(10, 10_000, 4, 6.0, RngStream(0, 1))
    retained, _ = traced_call(lambda: inject(clean, rate, RngStream(0, 21)), retained=True)
    assert retained < 0.2 * MB


def test_child_random_converts_pass_by_pass():
    # The (10^5, 2) float64 output is 1.5 MB: 2.9 MB here, 3.7 MB with a
    # whole (10^5, 2) uint64 word array beside it.
    indices = np.arange(10 ** 5)
    peak, _ = traced_call(lambda: child_random(RngStream(0, 3), indices, 2))
    assert peak < 3.3 * MB
