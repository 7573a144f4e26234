import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rml_lab import rml
from rml_lab.data import Dataset, feature_stats, make_blobs, standardize
from rml_lab.model import init_model, init_optimizer
from rml_lab.noise import inject_symmetric
from rml_lab.numerics import RngStream, softmax
from rml_lab.rml import (
    LossCache,
    RegroupParams,
    batch_weights,
    dump_cache,
    empty_cache,
    probability_shift,
    processed_loss,
    refresh_cache,
    regroup_estimates,
    regroup_median,
    selection_probabilities,
)
from rml_lab.trainer import RunConfig, train_ce


class TestSelectionProbabilities:
    def test_uniform_for_equal_losses(self):
        probs = selection_probabilities(np.full(8, 1.3))
        np.testing.assert_allclose(probs, 1 / 8)

    def test_processed_loss_value(self):
        assert processed_loss(2.0, 1.0) == 6.0

    def test_closed_form_two_losses(self):
        probs = selection_probabilities(np.array([0.0, 1.0]), epsilon_bias=1.0)
        np.testing.assert_allclose(probs, softmax([0.0, -2.0]))

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            probs = selection_probabilities(rng.uniform(0, 20, rng.integers(1, 50)))
            assert abs(probs.sum() - 1.0) < 1e-10

    def test_rejects_negative_losses(self):
        with pytest.raises(ValueError):
            selection_probabilities(np.array([-0.1, 1.0]))


class TestProbabilityShift:
    def test_constant_vector_zero_shift(self):
        shift, beta = probability_shift(np.full(10, 2.0))
        np.testing.assert_allclose(shift, 0.0, atol=1e-12)
        assert beta == pytest.approx(4.0)   # l^2 for the constant pool

    def test_identity_against_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            losses = rng.uniform(0, 30, 50)
            shift, beta = probability_shift(losses, epsilon_bias=1.0)
            np.testing.assert_allclose(shift, losses ** 2 - beta, atol=1e-9)

    def test_beta_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            _, beta = probability_shift(rng.uniform(0, 10, 20))
            assert beta > 0

    def test_shift_monotone_in_loss(self):
        losses = np.sort(np.random.default_rng(3).uniform(0, 5, 30))
        shift, _ = probability_shift(losses)
        assert (np.diff(shift) > 0).all()

    def test_general_epsilon(self):
        losses = np.random.default_rng(4).uniform(0, 5, 25)
        shift, beta = probability_shift(losses, epsilon_bias=2.5)
        np.testing.assert_allclose(shift, losses * (losses + 1.5) - beta, atol=1e-9)


class TestRegroupMedian:
    def test_singleton_groups(self):
        est, groups = regroup_median(0.5, [1, 2, 3, 4, 5, 6],
                                     RegroupParams(n=6, k=1), RngStream(0))
        assert est == 3.0
        np.testing.assert_allclose(np.sort(groups.means), [1, 2, 3, 4, 5, 6])

    def test_equal_values_majority(self):
        for sample_loss in (0.0, 9.9):
            est, _ = regroup_median(sample_loss, np.full(8, 2.0),
                                    RegroupParams(n=4, k=2), RngStream(1))
            assert est == 2.0

    def test_partition_enumeration_oracle(self):
        # selected [0, 0, 10, 10], n=2, k=2, sample 0: the three distinct
        # partitions give medians {0, 5, 5}; every draw must match the
        # brute-force median for its own grouping and land in {0, 5}.
        selected = np.array([0.0, 0.0, 10.0, 10.0])
        params = RegroupParams(n=2, k=2)
        seen = set()
        for seed in range(40):
            est, groups = regroup_median(0.0, selected, params, RngStream(seed))
            expected_means = selected[groups.assignments].mean(axis=1)
            expected = float(np.median(np.append(expected_means, 0.0)))
            assert est == expected
            seen.add(est)
        assert seen == {0.0, 5.0}

    def test_groups_are_disjoint_and_sized(self):
        params = RegroupParams(n=4, k=3)
        _, groups = regroup_median(1.0, np.arange(12.0), params, RngStream(2))
        flat = groups.assignments.ravel()
        assert sorted(flat.tolist()) == list(range(12))
        assert groups.assignments.shape == (4, 3)
        np.testing.assert_allclose(
            groups.means, np.arange(12.0)[groups.assignments].mean(axis=1)
        )

    def test_median_is_a_member(self):
        rng = RngStream(3)
        for t in range(100):
            child = rng.child(t)
            selected = child.uniform(0, 10, 12)
            sample = float(child.uniform(0, 10))
            est, groups = regroup_median(sample, selected, RegroupParams(n=6, k=2), child)
            pool = np.append(groups.means, sample)
            assert est in pool

    def test_mean_estimator_variant(self):
        selected = np.arange(8.0)
        est, _ = regroup_median(99.0, selected, RegroupParams(n=2, k=4, estimator="mean"),
                                RngStream(4))
        assert est == selected.mean()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regroup_median(1.0, [1.0, 2.0], RegroupParams(n=2, k=2), RngStream(5))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RegroupParams(n=3, k=1)
        with pytest.raises(ValueError):
            RegroupParams(n=2, k=0)


def _cache_dataset(losses_by_class):
    """Dataset with one feature per sample, and the per-sample losses."""
    labels = np.concatenate([
        np.full(len(v), c, dtype=np.int64) for c, v in enumerate(losses_by_class)
    ])
    features = np.zeros((labels.size, 1))
    ds = Dataset(features, labels, len(losses_by_class), true_labels=labels.copy())
    return ds, np.concatenate([np.asarray(v, float) for v in losses_by_class])


def _estimate_first(losses_by_class, params, rng):
    """Sample 0's estimate, through the refresh's per-class estimator."""
    ds, losses = _cache_dataset(losses_by_class)
    return regroup_estimates(losses, ds, params, rng)[0]


class TestEstimateForSample:
    def test_identical_losses(self):
        est = _estimate_first([[2.0] * 30], RegroupParams(n=2, k=3), RngStream(0))
        assert est == 2.0

    def test_singleton_class_returns_own_loss(self):
        est = _estimate_first([[7.5], [1.0] * 10], RegroupParams(n=2, k=2), RngStream(1))
        assert est == 7.5

    def test_outlier_pulled_into_candidate_range(self):
        tight = 1.0 + 0.01 * np.arange(12)
        params = RegroupParams(n=2, k=2)
        for seed in range(30):
            est = _estimate_first([np.concatenate([[50.0], tight])], params, RngStream(seed))
            assert tight.min() <= est <= tight.max()

    def test_shrink_fallback_reduces_k(self, monkeypatch):
        # 9 candidates cannot fill 2 groups of 20; k shrinks to 4.  Each
        # estimate is then a median of group means of 4 peers and its own
        # loss, which a spy on regroup_median sees.
        ds, losses = _cache_dataset([np.linspace(1, 2, 10)])
        seen = []

        def spy(sample_loss, selected, params, rng):
            seen.append((params.n, params.k, len(selected)))
            return regroup_median(sample_loss, selected, params, rng)

        monkeypatch.setattr(rml, "regroup_median", spy)
        est = regroup_estimates(losses, ds, RegroupParams(n=2, k=20), RngStream(2))
        assert seen == [(2, 4, 8)] * 10
        assert (1.0 <= est).all() and (est <= losses).all()

    def test_self_excluded_from_candidates(self):
        # Sample 0 is an outlier; with every other loss equal, any draw that
        # could include sample 0 would contaminate a mean above v.
        params = RegroupParams(n=2, k=4)   # needs all 8 non-self candidates
        for seed in range(20):
            est = _estimate_first([np.concatenate([[100.0], np.full(8, 3.0)])],
                                  params, RngStream(seed))
            assert est == 3.0


class TestCacheUpdates:
    """Propagation (fresh * estimate / plain) and the clamp, on the paths
    training runs: batch_weights and the refresh's estimator."""

    def test_propagate_arithmetic(self):
        cache = LossCache(np.array([4.0]), np.array([1.0]), epoch=0)
        w = batch_weights(cache, np.array([0]), np.array([2.0]))
        assert w[0] * 2.0 == pytest.approx(0.5)

    def test_propagate_identity_ratio(self):
        cache = LossCache(np.array([3.0]), np.array([3.0]), epoch=0)
        w = batch_weights(cache, np.array([0]), np.array([1.7]))
        assert w[0] * 1.7 == pytest.approx(1.7)

    def test_propagate_zero_floor(self):
        # A zero prior loss hits the floor: 0.5 / 1e-12 scales the fresh loss
        # far up, and the clamp brings it back to the fresh loss.
        cache = LossCache(np.array([0.0]), np.array([0.5]), epoch=0)
        w = batch_weights(cache, np.array([0]), np.array([1.0]))
        assert w[0] == 1.0

    def test_correct_estimate(self):
        # A far outlier's median estimate lands among its peers, below its
        # own loss; the low-loss peers' estimates are clamped to their own.
        ds, losses = _cache_dataset([np.concatenate([[50.0], np.full(6, 2.0), [1.0]])])
        est = regroup_estimates(losses, ds, RegroupParams(n=2, k=3), RngStream(3))
        assert est[0] == 2.0
        assert est[-1] == 1.0

    @given(st.lists(st.floats(0, 1e3), min_size=1, max_size=40),
           st.integers(1, 3), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_correct_estimate_never_exceeds_original(self, values, classes, seed):
        ds, losses = _cache_dataset([values[c::classes] for c in range(classes)
                                     if values[c::classes]])
        est = regroup_estimates(losses, ds, RegroupParams(n=2, k=2), RngStream(seed))
        assert (est <= losses).all()


class TestBatchWeights:
    def test_identity_when_estimates_match(self):
        cache = LossCache(np.array([1.0, 2.0]), np.array([1.0, 2.0]), epoch=0)
        w = batch_weights(cache, np.array([0, 1]), np.array([0.5, 3.0]))
        np.testing.assert_allclose(w, 1.0)

    def test_zero_estimate_silences(self):
        cache = LossCache(np.array([1.0]), np.array([0.0]), epoch=0)
        w = batch_weights(cache, np.array([0]), np.array([2.0]))
        assert w[0] == 0.0

    @given(st.lists(st.tuples(st.floats(0, 5), st.floats(0, 1), st.floats(0.05, 5)),
                    min_size=1, max_size=64))
    @example([(0.0, 0.5, 1.0)])   # zero prior loss: the floor, then the clamp
    @example([(1.0, 0.5, 0.0), (0.0, 0.5, 1e-13), (2.0, 0.25, 5e-13)])  # fresh < floor
    @settings(max_examples=200, deadline=None)
    def test_weighted_mean_matches_estimate_mean(self, rows):
        # Each row: prior plain loss, estimate as a share of it, fresh loss.
        loss_prev, share, fresh = (np.array(col) for col in zip(*rows))
        est_prev = share * np.maximum(loss_prev, 0.5)
        cache = LossCache(loss_prev, est_prev, epoch=0)
        w = batch_weights(cache, np.arange(fresh.size), fresh)
        propagated = fresh * est_prev / np.maximum(loss_prev, 1e-12)
        corrected = np.minimum(propagated, fresh)
        assert np.isfinite(w).all() and (w >= 0.0).all() and (w <= 1.0).all()
        np.testing.assert_allclose((w * fresh).mean(), corrected.mean(), rtol=1e-12, atol=1e-12)


def _trained_noisy_setup(seed=0, noise=0.4, separation=5.0, epochs=60, lr=0.5):
    ds = make_blobs(5, 60, 4, separation, RngStream(seed))
    ds = inject_symmetric(ds, noise, RngStream(seed, 2)) if noise else ds
    mean, std = feature_stats(ds.features)
    ds = standardize(ds, mean, std)
    model = init_model("linear", ds.dim, ds.num_classes, RngStream(seed, 4))
    opt = init_optimizer(model, lr, epochs)
    config = RunConfig(mode="ce", total_epochs=epochs, batch_size=64, seed=seed)
    model, _ = train_ce(ds, model, opt, config)
    return ds, model


class TestRefreshCache:
    def test_epoch_increments(self):
        ds, model = _trained_noisy_setup(noise=0.0)
        cache = empty_cache(ds.n_samples)
        out = refresh_cache(cache, ds, model, RegroupParams(n=2, k=5), RngStream(0, 12))
        assert out.epoch == 0
        again = refresh_cache(out, ds, model, RegroupParams(n=2, k=5), RngStream(0, 12))
        assert again.epoch == 1

    def test_deterministic(self):
        ds, model = _trained_noisy_setup(seed=1)
        a = refresh_cache(empty_cache(ds.n_samples), ds, model,
                          RegroupParams(n=2, k=5), RngStream(1, 12))
        b = refresh_cache(empty_cache(ds.n_samples), ds, model,
                          RegroupParams(n=2, k=5), RngStream(1, 12))
        np.testing.assert_array_equal(a.loss_rml, b.loss_rml)

    def test_clean_trained_model_estimates_track_losses(self):
        # Concentrated-loss regime: every sample fit (accuracy 1.0) with
        # homogeneous margins, so the estimates have nothing to correct.
        ds, model = _trained_noisy_setup(seed=2, noise=0.0, separation=20.0,
                                         epochs=5, lr=0.05)
        from rml_lab.model import accuracy

        assert accuracy(model, ds) == 1.0
        cache = refresh_cache(empty_cache(ds.n_samples), ds, model,
                              RegroupParams(n=2, k=5), RngStream(2, 12))
        assert abs(cache.loss_rml.mean() - cache.loss.mean()) <= 0.05 * cache.loss.mean()

    def test_correction_bound_holds_everywhere(self):
        ds, model = _trained_noisy_setup(seed=3)
        cache = refresh_cache(empty_cache(ds.n_samples), ds, model,
                              RegroupParams(n=4, k=3), RngStream(3, 12))
        assert (cache.loss_rml <= cache.loss + 1e-15).all()
        assert (cache.loss_rml >= 0).all()


class TestDumpCache:
    def test_csv_columns_and_rows(self, tmp_path):
        ds, model = _trained_noisy_setup(seed=4)
        cache = refresh_cache(empty_cache(ds.n_samples), ds, model,
                              RegroupParams(n=2, k=3), RngStream(4, 12))
        path = tmp_path / "cache.csv"
        dump_cache(cache, ds, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_id,true_label,observed_label,loss_plain,loss_rml,is_corrupted"
        assert len(lines) == ds.n_samples + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == cache.loss[0]
