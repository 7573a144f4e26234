import itertools
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
from rml_lab.numerics import (LOSS_FLOOR, RACE_MIN_WEIGHT, RngStream, _race_draw, log_softmax_lse,
                              softmax)
from rml_lab.rml import (
    LossCache,
    RegroupParams,
    batch_weights,
    probability_shift,
    processed_loss,
    refresh_cache,
    regroup_estimates,
    regroup_median,
    selection_by_class,
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


class TestSelectionByClass:
    def test_matches_per_class_softmax(self):
        # Class 1 is empty and class 3 a singleton.
        labels = np.array([0, 2, 0, 3, 2, 0, 2], dtype=np.int64)
        ds = Dataset(np.zeros((7, 1)), labels, 4)
        losses = np.random.default_rng(5).uniform(0, 8, 7)
        processed = selection_by_class(ds, losses, 1.5)
        plain = selection_by_class(ds, losses, 1.5, processed=False)
        for members in ds.class_index[:1] + ds.class_index[2:]:
            np.testing.assert_array_equal(processed[members],
                                          selection_probabilities(losses[members], 1.5))
            np.testing.assert_array_equal(plain[members], softmax(-losses[members]))
        assert processed[3] == plain[3] == 1.0


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

    @pytest.mark.parametrize("epsilon_bias", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("shape", [(37,), (5, 37), (163, 100)])
    def test_matches_two_pass_composition(self, shape, epsilon_bias):
        # The reference takes an exp pass per log-softmax and per
        # log-sum-exp; the shift must give its bytes from one per pool.
        def log_softmax(z):
            z = z - np.max(z, axis=-1, keepdims=True)
            return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))

        def logsumexp(v):
            m = np.max(v, axis=-1, keepdims=True)
            return np.squeeze(m, -1) + np.log(np.sum(np.exp(v - m), axis=-1))

        l = RngStream(7).uniform(0, 30, shape)
        proc = processed_loss(l, epsilon_bias)
        shift, beta = probability_shift(l, epsilon_bias)
        assert shift.tobytes() == (log_softmax(-l) - log_softmax(-proc)).tobytes()
        assert beta.tobytes() == (logsumexp(-l) - logsumexp(-proc)).tobytes()
        if len(shape) == 1:
            assert type(beta) is np.float64
        else:
            assert beta.shape == shape[:1]

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_rejects_non_finite_losses(self, bad):
        # 1e200 is finite, but its processed loss overflows to inf.
        for losses in ([0.5, bad, 2.0], [[0.5, 1.0], [bad, 2.0]]):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
                probability_shift(np.array(losses))

    @given(st.integers(1, 6), st.integers(1, 300), st.floats(0.0, 5.0), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_one_pool_calls(self, rows, m, epsilon_bias, seed):
        losses = RngStream(seed).uniform(0, 30, (rows, m))
        shift, beta = probability_shift(losses, epsilon_bias)
        row_lse = log_softmax_lse(-losses)[1]
        assert shift.shape == losses.shape and beta.shape == row_lse.shape == (rows,)
        for r in range(rows):
            one_shift, one_beta = probability_shift(losses[r], epsilon_bias)
            np.testing.assert_array_equal(shift[r], one_shift)
            assert beta[r] == one_beta and isinstance(one_beta, float)
            assert row_lse[r] == log_softmax_lse(-losses[r])[1]


def _rows(values, rows):
    """`rows` copies of one vector, as a (rows, len) float array."""
    return np.tile(np.asarray(values, dtype=np.float64), (rows, 1))


def _perms(rows, width, rng):
    return np.argsort(rng.random((rows, width)), axis=1)


class TestRegroupMedian:
    def test_singleton_groups(self):
        # k=1: the group means are the selected losses themselves, whatever
        # the permutation; the median of [0.5, 1..6] is 3.
        est = regroup_median(np.full(20, 0.5), _rows([1, 2, 3, 4, 5, 6], 20),
                             RegroupParams(n=6, k=1), _perms(20, 6, RngStream(0)))
        assert est.tolist() == [3.0] * 20

    def test_equal_values_majority(self):
        est = regroup_median(np.array([0.0, 9.9]), _rows(np.full(8, 2.0), 2),
                             RegroupParams(n=4, k=2), _perms(2, 8, RngStream(1)))
        assert est.tolist() == [2.0, 2.0]

    def test_partition_enumeration_oracle(self):
        # selected [0, 0, 10, 10], n=2, k=2, sample 0: the three distinct
        # partitions give medians {0, 5, 5}; every row must match the
        # brute-force median for its own grouping and land in {0, 5}.
        selected = np.array([0.0, 0.0, 10.0, 10.0])
        perm = _perms(40, 4, RngStream(2))
        est = regroup_median(np.zeros(40), _rows(selected, 40), RegroupParams(n=2, k=2), perm)
        for row, p in zip(est, perm):
            expected_means = selected[p.reshape(2, 2)].mean(axis=1)
            assert row == float(np.median(np.append(expected_means, 0.0)))
        assert set(est.tolist()) == {0.0, 5.0}

    def test_groups_are_disjoint_and_sized(self):
        # Groups are consecutive k-blocks of perm.  With own loss 0, arange(12)
        # in 4 groups of 3 has means 1, 4, 7, 10 (median 4) for the identity
        # and for the reversed order; the shuffle below gives means 4, 7, 5, 6
        # (median 5).
        params = RegroupParams(n=4, k=3)
        perm = np.array([np.arange(12), np.arange(12)[::-1],
                         [0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6]])
        est = regroup_median(np.zeros(3), _rows(np.arange(12.0), 3), params, perm)
        assert est.tolist() == [4.0, 4.0, 5.0]

    @given(st.integers(1, 8), st.sampled_from([(2, 1), (2, 3), (4, 2), (6, 2)]),
           st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_median_is_a_member(self, rows, nk, seed):
        n, k = nk
        rng = RngStream(seed)
        selected = rng.uniform(0, 10, (rows, n * k))
        own = rng.uniform(0, 10, rows)
        perm = _perms(rows, n * k, rng)
        est = regroup_median(own, selected, RegroupParams(n=n, k=k), perm)
        means = np.take_along_axis(selected, perm, axis=1).reshape(rows, n, k).mean(axis=2)
        for r in range(rows):
            assert est[r] in np.append(means[r], own[r])

    def test_mean_estimator_variant(self):
        selected = _rows(np.arange(8.0), 2)
        selected[1] *= 3
        est = regroup_median(np.array([99.0, 99.0]), selected,
                             RegroupParams(n=2, k=4, estimator="mean"), _perms(2, 8, RngStream(4)))
        assert est.tolist() == [3.5, 10.5]

    @pytest.mark.parametrize("n, k", [(2, 1), (6, 10), (6, 20)])
    def test_no_perm_is_the_identity_bit_for_bit(self, n, k):
        # perm=None groups consecutive columns: the identity permutation's
        # groups, with no gather, on the strided view verify passes.
        rng = RngStream(n * 100 + k)
        values = rng.normal(1.0, 1.0, (300, n * k + 1))
        own, selected = values[:, -1], values[:, :-1]
        identity = np.broadcast_to(np.arange(n * k), selected.shape)
        params = RegroupParams(n=n, k=k)
        np.testing.assert_array_equal(regroup_median(own, selected, params, None),
                                      regroup_median(own, selected, params, identity))

    def test_wrong_perm_shape_named(self):
        with pytest.raises(ValueError, match=r"got \(2,\), \(2, 4\), \(2, 3\)"):
            regroup_median(np.ones(2), np.ones((2, 4)), RegroupParams(n=2, k=2),
                           np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError, match=r"got \(2,\), \(2, 3\), None"):
            regroup_median(np.ones(2), np.ones((2, 3)), RegroupParams(n=2, k=2), None)

    def test_length_mismatch(self):
        index = np.zeros((1, 4), dtype=np.int64)
        for own, selected, perm in [
            (np.ones(1), np.ones((1, 2)), index[:, :2]),     # width != n*k
            (np.ones(2), np.ones((1, 4)), index),            # row counts differ
            (np.ones(1), np.ones((1, 4)), index[:, :3]),     # perm shape
            (np.float64(1.0), np.ones((1, 4)), index),       # own not 1-D
        ]:
            with pytest.raises(ValueError):
                regroup_median(own, selected, RegroupParams(n=2, k=2), perm)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RegroupParams(n=3, k=1)
        with pytest.raises(ValueError):
            RegroupParams(n=2, k=0)

    @pytest.mark.parametrize("epsilon_bias", [-3.0, -1e-9, float("nan")])
    def test_negative_epsilon_bias_rejected(self, epsilon_bias):
        # For eps < 0, l(l + eps) falls on [0, -eps/2]: a smaller loss could
        # get a smaller selection weight.
        with pytest.raises(ValueError, match="epsilon_bias must be >= 0"):
            RegroupParams(epsilon_bias=epsilon_bias)
        assert RegroupParams(epsilon_bias=0.0).epsilon_bias == 0.0


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


def _spy_draws(monkeypatch, pool):
    """Spy on the race draw and the median of a one-class refresh whose
    losses `pool` are distinct, so that a row's own loss names its column.
    Records each loss's k, the weights of the drawn columns and the columns
    of rows that drew themselves."""
    seen, picks = {"k": {}, "weights": [], "self_draws": []}, []

    def race_spy(u, w, count):
        picked = _race_draw(u, w, count)
        seen["weights"].append(np.take_along_axis(w, picked, axis=1))
        picks.append(picked)
        return picked

    def median_spy(own, selected, params, perm):
        picked = picks.pop()
        for r, loss in enumerate(own.tolist()):
            seen["k"][loss] = params.k
            if pool.index(loss) in picked[r]:
                seen["self_draws"].append(pool.index(loss))
        return regroup_median(own, selected, params, perm)

    monkeypatch.setattr(rml, "_race_draw", race_spy)
    monkeypatch.setattr(rml, "regroup_median", median_spy)
    return seen


def _successive_sampling(weights, count):
    """Exact first-order and pairwise inclusion probabilities of `count`
    successive draws without replacement, each with probability
    proportional to `weights` among the columns not yet drawn, summed over
    every ordered draw (Efraimidis & Spirakis, IPL 2006)."""
    first, pair = np.zeros(len(weights)), np.zeros((len(weights), len(weights)))
    for order in itertools.permutations(range(len(weights)), count):
        p, left = 1.0, weights.sum()
        for j in order:
            p *= weights[j] / left
            left -= weights[j]
        first[list(order)] += p
        pair[np.ix_(order, order)] += p
    return first, pair


class TestRefreshSampler:
    def test_draws_follow_successive_sampling(self, monkeypatch):
        # Six candidates, and 1 994 samples at loss 40 whose weight
        # exp(-40 * 41) is 0: every row of those 1 994 draws n*k = 4 of the
        # six, in 60 refreshes' streams.  Its draws must include each
        # candidate, and each pair, at the exact successive-sampling rate.
        candidates = np.linspace(0.05, 1.3, 6)
        ds, losses = _cache_dataset([np.concatenate([candidates, np.full(1994, 40.0)])])
        draws = []

        def race_spy(u, w, count):
            picked = _race_draw(u, w, count)
            # A candidate's own row gives its own column a zero uniform.
            draws.append(picked[np.all(u[:, :6] > 0, axis=1)])
            return picked

        monkeypatch.setattr(rml, "_race_draw", race_spy)
        for index in range(60):
            regroup_estimates(losses, ds, RegroupParams(n=2, k=2), RngStream(0).child(index))
        draws = np.concatenate(draws)
        assert draws.shape == (60 * 1994, 4) and draws.max() < 6
        hits = np.zeros((len(draws), 6), dtype=bool)
        hits[np.arange(len(draws))[:, None], draws] = True
        first, pair = _successive_sampling(np.exp(-processed_loss(candidates, 1.0)), 4)
        pairs = list(itertools.combinations(range(6), 2))
        seen = np.concatenate([hits.mean(axis=0),
                               [np.mean(hits[:, i] & hits[:, j]) for i, j in pairs]])
        exact = np.concatenate([first, [pair[i, j] for i, j in pairs]])
        z = (seen - exact) / np.sqrt(exact * (1 - exact) / len(draws))
        assert np.max(np.abs(z)) < 5


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
        # Class 0: 10 peers at losses 1..2 plus one at 40, whose weight
        # underflows to 0.  Its ten positive-weight members see 9 candidates,
        # which cannot fill 2 groups of 20, so k shrinks to 4; the 40 sees
        # all 10 and gets k = 5.  Class 1 (5 members) shrinks to k = 2, and
        # the singleton class 2 keeps its own loss.  A spy on regroup_median
        # sees one batched call per (class, k) group, never one per sample.
        ds, losses = _cache_dataset([np.append(np.linspace(1, 2, 10), 40.0),
                                     np.linspace(1, 2, 5), [3.0]])
        seen = []

        def spy(own, selected, params, perm):
            seen.append((params.n, params.k, selected.shape))
            return regroup_median(own, selected, params, perm)

        monkeypatch.setattr(rml, "regroup_median", spy)
        est = regroup_estimates(losses, ds, RegroupParams(n=2, k=20), RngStream(2))
        assert seen == [(2, 4, (10, 8)), (2, 5, (1, 10)), (2, 2, (5, 4))]
        assert (1.0 <= est).all() and (est <= losses).all()
        assert est[-1] == 3.0

    def test_no_self_vote_past_a_subnormal_weight(self, monkeypatch):
        # 26.33's selection weight, ~1e-313, is positive but below
        # RACE_MIN_WEIGHT, so its race key can be infinite: it is no
        # candidate.  The four small losses see 3 candidates (k = 1), 26.33
        # sees 4 (k = 2).  Counting it gave k = 2 throughout, and rows short
        # of finite keys drew infinite-key columns, their own among them.
        ds, losses = _cache_dataset([[0.1, 0.2, 0.3, 0.4, 26.33]])
        seen = _spy_draws(monkeypatch, losses.tolist())
        for seed in range(20):
            regroup_estimates(losses, ds, RegroupParams(n=2, k=20), RngStream(seed))
        assert [seen["k"][l] for l in losses.tolist()] == [1, 1, 1, 1, 2]
        assert seen["self_draws"] == []
        assert all((w >= RACE_MIN_WEIGHT).all() for w in seen["weights"])

    @given(st.lists(st.floats(0, 3), min_size=1, max_size=25),
           st.lists(st.floats(25, 41), max_size=5),
           st.sampled_from([2, 4, 6]), st.integers(1, 6), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_no_row_draws_itself(self, small, large, n, k, seed):
        # Losses from 25 up to 41 have subnormal or underflowed selection
        # weights next to peers below 3 (ROADMAP direction 5).
        pool = list(dict.fromkeys(small + large))
        ds, losses = _cache_dataset([pool])
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = _spy_draws(monkeypatch, pool)
            est = regroup_estimates(losses, ds, RegroupParams(n=n, k=k), RngStream(seed))
        assert seen["self_draws"] == []
        assert all((w >= RACE_MIN_WEIGHT).all() for w in seen["weights"])
        assert (est <= losses).all()

    def test_self_excluded_from_candidates(self):
        # Sample 0 is an outlier; with every other loss equal, any draw that
        # could include sample 0 would contaminate a mean above v.
        params = RegroupParams(n=2, k=4)   # needs all 8 non-self candidates
        for seed in range(20):
            est = _estimate_first([np.concatenate([[100.0], np.full(8, 3.0)])],
                                  params, RngStream(seed))
            assert est == 3.0


def _reference_estimates(losses, dataset, params, rng):
    """The refresh one row at a time, the oracle for the batched kernel's
    bytes: class c draws its race uniforms from rng.child(2c) and its
    regroup keys from rng.child(2c + 1), one row after another in order of
    k, then of the sample; the row's own weight is zeroed."""
    estimates = losses.copy()
    n = params.n
    for c, members in enumerate(dataset.class_index):
        pool = losses[members]
        logits = -processed_loss(pool, params.epsilon_bias) if params.use_processed_loss else -pool
        race, regroup = rng.child(2 * c).generator, rng.child(2 * c + 1).generator
        rows = []
        for pos in range(pool.size):
            w = softmax(logits)
            w[pos] = 0.0
            k = min(params.k, np.count_nonzero(w) // n)
            if k > 0:
                rows.append((k, pos, w))
        for k, pos, w in sorted(rows, key=lambda row: row[:2]):
            with np.errstate(divide="ignore", over="ignore"):
                keys = -np.log(race.random(w.size)) / w
            picked = np.argpartition(keys, n * k - 1)[:n * k]
            selected = pool[picked[np.argsort(keys[picked], kind="stable")]]
            perm = np.argsort(regroup.random(n * k))
            means = selected[perm].reshape(n, k).mean(axis=1)
            median = np.partition(np.append(means, pool[pos]), n // 2)[n // 2]
            estimate = selected.mean() if params.estimator == "mean" else median
            estimates[members[pos]] = min(estimate, pool[pos])
    return estimates


class TestReferenceOracle:
    @pytest.mark.parametrize("overrides", [
        {}, {"use_processed_loss": False}, {"estimator": "mean"}, {"n": 2, "k": 2},
    ], ids=["rml", "no_processing", "no_median", "n2k2"])
    @pytest.mark.parametrize("budget", [150 * 150, 60], ids=["one_chunk", "chunked"])
    def test_matches_per_sample_reference(self, overrides, budget, monkeypatch):
        # A class that fills n groups of k; classes smaller than n*k (k
        # shrinks); one with losses near 40, whose processed weights
        # underflow to 0 (so its members see two pool sizes); a singleton.
        # A budget of 150 * 150 holds the largest class in one chunk; a
        # small one splits classes into many chunks of rows, and must not
        # change a byte: each class's streams are read in row order.
        monkeypatch.setattr(rml, "BUDGET", budget)
        g = np.random.default_rng(7)
        ds, losses = _cache_dataset([
            g.exponential(1.0, 150), g.uniform(0, 3, 9),
            np.append(g.uniform(0, 2, 12), [39.5, 40.0, 41.0]), g.uniform(0, 3, 3), [2.5],
        ])
        params = RegroupParams(**overrides)
        for seed in (0, 1):
            np.testing.assert_array_equal(
                regroup_estimates(losses, ds, params, RngStream(seed, 12)),
                _reference_estimates(losses, ds, params, RngStream(seed, 12)))

    def test_one_class_never_moves_another(self):
        # Class 1 shrinks from 40 members to 11 new ones, one of whose
        # weights underflows, so its rows split into k = 4 and k = 5.  Each
        # class draws from its own streams, so classes 0, 2 and 3 keep their
        # bytes although the samples of classes 2 and 3 move.
        g = np.random.default_rng(3)
        classes = [g.exponential(1.0, 60), g.uniform(0, 2, 40), g.uniform(0, 3, 9),
                   g.exponential(2.0, 30)]
        params = RegroupParams(n=2, k=5)
        before_ds, before = _cache_dataset(classes)
        changed = np.append(np.linspace(0.5, 1.5, 10), 40.0)
        after_ds, after = _cache_dataset([classes[0], changed, *classes[2:]])
        est_before = regroup_estimates(before, before_ds, params, RngStream(4, 12))
        est_after = regroup_estimates(after, after_ds, params, RngStream(4, 12))
        for c in (0, 2, 3):
            np.testing.assert_array_equal(est_before[before_ds.class_index[c]],
                                          est_after[after_ds.class_index[c]])


class TestCacheUpdates:
    """The refresh-time weight (estimate / plain, clipped to [0, 1]) and the
    clamp, on the paths training runs: batch_weights and the refresh's
    estimator."""

    def test_propagate_arithmetic(self):
        cache = LossCache(np.array([4.0]), np.array([1.0]))
        w = batch_weights(cache, np.array([0]))
        assert w[0] == 0.25

    def test_propagate_identity_ratio(self):
        cache = LossCache(np.array([3.0]), np.array([3.0]))
        w = batch_weights(cache, np.array([0]))
        assert w[0] == 1.0

    def test_propagate_zero_floor(self):
        # A zero plain loss hits the floor: 0.5 / 1e-12 is far above 1, and
        # the clip brings the weight back to 1.
        cache = LossCache(np.array([0.0]), np.array([0.5]))
        w = batch_weights(cache, np.array([0]))
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
        cache = LossCache(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        w = batch_weights(cache, np.array([0, 1]))
        np.testing.assert_allclose(w, 1.0)

    def test_zero_estimate_silences(self):
        cache = LossCache(np.array([1.0]), np.array([0.0]))
        w = batch_weights(cache, np.array([0]))
        assert w[0] == 0.0

    @given(st.lists(st.tuples(st.floats(0, 5), st.floats(0, 1)), min_size=1, max_size=64))
    @example([(0.0, 0.5)])                          # zero plain loss: the floor
    @example([(5e-13, 0.5), (1e-12, 0.25), (2.0, 1.0)])   # plain at or below the floor
    @settings(max_examples=200, deadline=None)
    def test_weighted_mean_matches_estimate_mean(self, rows):
        # Each row: plain loss, estimate as a share of it (estimates are
        # clamped to the plain loss).
        plain, share = (np.array(col) for col in zip(*rows))
        est = share * plain
        cache = LossCache(plain, est)
        idx = np.arange(plain.size)[::-1]
        w = batch_weights(cache, idx)
        np.testing.assert_array_equal(
            w, np.clip(est[idx] / np.maximum(plain[idx], LOSS_FLOOR), 0.0, 1.0))
        assert ((w >= 0.0) & (w <= 1.0)).all()
        above = plain[idx] >= LOSS_FLOOR
        np.testing.assert_allclose((w * plain[idx])[above], est[idx][above],
                                   rtol=1e-15, atol=1e-300)


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
    def test_index_keys_the_stream(self):
        # Refresh `index` draws from rng.child(index): refreshes 0 and 1 of
        # one model share the plain losses but not the estimates.
        ds, model = _trained_noisy_setup(noise=0.0)
        params, rng = RegroupParams(n=2, k=5), RngStream(0, 12)
        first = refresh_cache(0, ds, model, params, rng)
        second = refresh_cache(1, ds, model, params, rng)
        np.testing.assert_array_equal(first.loss, second.loss)
        for index, cache in enumerate((first, second)):
            np.testing.assert_array_equal(
                cache.loss_rml, regroup_estimates(cache.loss, ds, params, rng.child(index)))
        assert not np.array_equal(first.loss_rml, second.loss_rml)

    def test_deterministic(self):
        ds, model = _trained_noisy_setup(seed=1)
        a = refresh_cache(0, ds, model, RegroupParams(n=2, k=5), RngStream(1, 12))
        b = refresh_cache(0, ds, model, RegroupParams(n=2, k=5), RngStream(1, 12))
        np.testing.assert_array_equal(a.loss_rml, b.loss_rml)

    def test_clean_trained_model_estimates_track_losses(self):
        # Concentrated-loss regime: every sample fit (accuracy 1.0) with
        # homogeneous margins, so the estimates have nothing to correct.
        ds, model = _trained_noisy_setup(seed=2, noise=0.0, separation=20.0,
                                         epochs=5, lr=0.05)
        from rml_lab.model import accuracy

        assert accuracy(model, ds) == 1.0
        cache = refresh_cache(0, ds, model, RegroupParams(n=2, k=5), RngStream(2, 12))
        assert abs(cache.loss_rml.mean() - cache.loss.mean()) <= 0.05 * cache.loss.mean()

    def test_correction_bound_holds_everywhere(self):
        ds, model = _trained_noisy_setup(seed=3)
        cache = refresh_cache(0, ds, model, RegroupParams(n=4, k=3), RngStream(3, 12))
        assert (cache.loss_rml <= cache.loss + 1e-15).all()
        assert (cache.loss_rml >= 0).all()
