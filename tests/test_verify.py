import math

import numpy as np
import pytest

from rml_lab import rml, verify
from rml_lab.data import Dataset
from rml_lab.numerics import RngStream, softmax
from rml_lab.rml import (
    RegroupParams,
    probability_shift,
    regroup_median,
    selection_probabilities,
)
from rml_lab.verify import (
    check_cor1,
    check_mom_robustness,
    check_prop1,
    check_prop2,
    deviation_bound,
    mom_estimate,
)


def _reference_prop1(trials, m, rng, loss_range=(0.0, 30.0), epsilon_bias=1.0,
                     tolerance=1e-9):
    """check_prop1 one pool at a time, pool t being row t of rng's uniforms:
    the oracle for the chunked report."""
    low, high = loss_range
    max_residual = 0.0
    beta_positive = True
    sign_violations = 0
    for losses in rng.uniform(low, high, (trials, m)):
        shift, beta = rml.probability_shift(losses, epsilon_bias)
        closed = losses * (losses + epsilon_bias - 1.0) - beta
        max_residual = max(max_residual, float(np.max(np.abs(shift - closed))))
        beta_positive &= beta > 0
        if epsilon_bias == 1.0:
            crossing = losses ** 2 - beta
            decided = np.abs(crossing) > 1e-12
            sign_violations += int(np.sum(np.sign(shift[decided]) != np.sign(crossing[decided])))
    return {
        "check": "prop1",
        "trials": trials,
        "statistic": max_residual,
        "bound": tolerance,
        "pass": bool(max_residual < tolerance and beta_positive and sign_violations == 0),
        "beta_always_positive": bool(beta_positive),
        "sign_rule_violations": sign_violations,
    }


class TestCheckProp1:
    @pytest.mark.parametrize("epsilon_bias", [1.0, 2.5])
    @pytest.mark.parametrize("budget", [rml.BUDGET, 700], ids=["default", "small"])
    def test_matches_per_pool_reference(self, budget, epsilon_bias, monkeypatch):
        # At m = 100 the default budget takes 655 pools a chunk, so 3 000
        # pools are five chunks, the last of 380; 700 takes 7, so 429
        # chunks, the last of 3.
        monkeypatch.setattr(rml, "BUDGET", budget)
        report = check_prop1(3000, 100, RngStream(0, 5), epsilon_bias=epsilon_bias)
        assert report == _reference_prop1(3000, 100, RngStream(0, 5),
                                          epsilon_bias=epsilon_bias)

    def test_pools_are_rows_of_one_stream(self, monkeypatch):
        # Pool t is row t of rng's uniforms, bit for bit, and each chunk is
        # one row-wise probability_shift call: a budget of 700 losses makes
        # chunks of 7 pools, the last of 3.
        monkeypatch.setattr(rml, "BUDGET", 700)
        seen = []

        def spy(losses, epsilon_bias):
            seen.append(losses.copy())
            return probability_shift(losses, epsilon_bias)

        monkeypatch.setattr(rml, "probability_shift", spy)
        check_prop1(45, 100, RngStream(0, 5))
        assert [len(chunk) for chunk in seen] == [7] * 6 + [3]
        np.testing.assert_array_equal(np.concatenate(seen),
                                      RngStream(0, 5).uniform(0.0, 30.0, (45, 100)))

    def test_small_run_passes(self):
        report = check_prop1(500, 100, RngStream(0, 5))
        assert report["pass"]
        assert report["statistic"] < 1e-9
        assert report["beta_always_positive"]
        assert report["sign_rule_violations"] == 0

    def test_high_loss_sample_loses_probability(self):
        # Direct evaluation of the two selection rules on [0, 10].
        losses = np.array([0.0, 10.0])
        plain = softmax(-losses)
        processed = selection_probabilities(losses)
        assert processed[1] < plain[1]
        assert processed[0] > plain[0]

    def test_m_guard(self):
        with pytest.raises(ValueError):
            check_prop1(10, 1, RngStream(1, 5))

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_prop1(0, 100, RngStream(1, 5))


class TestMomEstimate:
    def test_delegates_bit_for_bit(self):
        # One row per trial through the training kernel, each row regrouped
        # by the argsort of its own uniforms.
        values = np.random.default_rng(2).uniform(0, 5, (30, 13))
        a = mom_estimate(values, 6, 2, RngStream(3, 8))
        perm = np.argsort(RngStream(3, 8).random((30, 12)), axis=1)
        b = regroup_median(values[:, -1], values[:, :-1], RegroupParams(n=6, k=2), perm)
        np.testing.assert_array_equal(a, b)

    def test_shape_guard(self):
        for shape in [(12,), (13,), (2, 12)]:
            with pytest.raises(ValueError):
                mom_estimate(np.zeros(shape), 6, 2, RngStream(4))


class TestDeviationBound:
    def test_constants(self):
        bound, margin = deviation_bound(6, 10, 1.0, 1.2)
        c1 = 2 * (6 + 1)
        c2 = (6 + 10) / (10 * (6 + 1))
        expected_margin = 0.5 - c2 * 1.0 / 1.2 ** 2
        assert margin == pytest.approx(expected_margin)
        assert bound == pytest.approx(math.exp(-c1 * expected_margin ** 2))

    def test_zero_variance_bound(self):
        bound, margin = deviation_bound(6, 10, 0.0, 1.0)
        assert margin == 0.5
        assert bound == pytest.approx(math.exp(-2 * 7 * 0.25))


class TestCheckProp2:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_prop2(0, RngStream(0, 6))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="epsilon_r must be > 0"):
            check_prop2(10, RngStream(0, 6), epsilon_r=0.0)

    def test_point_mass_population(self):
        report = check_prop2(2000, RngStream(5, 9), n=6, k=10, epsilon_r=1.0,
                             loc=1.0, scale=0.0)
        assert report["statistic"] == 0.0
        assert report["bound"] == pytest.approx(math.exp(-2 * 7 * 0.25))
        assert report["pass"]

    def test_normal_population_within_bound(self):
        report = check_prop2(20_000, RngStream(6, 9), n=6, k=10, epsilon_r=2.0,
                             loc=1.0, scale=1.0)
        assert report["pass"]
        assert report["statistic"] <= report["bound"]

    @staticmethod
    def _spied_prop2(monkeypatch, budget):
        # check_prop2's report, the value rows mom_estimate received and the
        # regroup permutations regroup_median received, under `budget`.
        monkeypatch.setattr(rml, "BUDGET", budget)
        values, perms = [], []

        def estimate_spy(samples, n, k, rng):
            values.append(samples.copy())
            return mom_estimate(samples, n, k, rng)

        def median_spy(own, drawn, params, perm):
            perms.append(perm.copy())
            return regroup_median(own, drawn, params, perm)

        monkeypatch.setattr(verify, "mom_estimate", estimate_spy)
        monkeypatch.setattr(rml, "regroup_median", median_spy)
        report = check_prop2(2_000, RngStream(6, 9), n=6, k=10, epsilon_r=0.4)
        return report, values, perms

    def test_rows_do_not_depend_on_the_budget(self, monkeypatch):
        # Trial t is row t of rng.child(0)'s normals and of rng.child(1)'s
        # regroup uniforms, so the default budget (chunks of 1 074 trials)
        # and a budget of 700 draws (chunks of 11) read the same rows.
        want = self._spied_prop2(monkeypatch, rml.BUDGET)
        got = self._spied_prop2(monkeypatch, 700)
        assert [len(chunk) for chunk in want[1]] == [1_074, 926]
        assert [len(chunk) for chunk in got[1]] == [11] * 181 + [9]
        assert got[0] == want[0]
        rng = RngStream(6, 9)
        for rows, expected in ((want[1], rng.child(0).normal(1.0, 1.0, (2_000, 61))),
                               (got[1], rng.child(0).normal(1.0, 1.0, (2_000, 61))),
                               (want[2], np.argsort(rng.child(1).random((2_000, 60)), axis=1)),
                               (got[2], np.argsort(rng.child(1).random((2_000, 60)), axis=1))):
            np.testing.assert_array_equal(np.concatenate(rows), expected)

    @pytest.mark.parametrize("epsilon_r,exact", [(0.4, 1.370e-2), (0.5, 2.196e-3)])
    def test_rate_matches_the_exact_rate(self, epsilon_r, exact):
        # The estimate exceeds loc + eps iff at least n/2 + 1 of its n + 1
        # median inputs do: each of n group means with p1, the own draw with
        # p2 (David & Nagaraja, Order Statistics, 2003).  Twice that, by
        # symmetry, is the exact two-sided rate.
        n, k, trials = 6, 10, 100_000
        p1 = 0.5 * math.erfc(epsilon_r * math.sqrt(k) / math.sqrt(2))
        p2 = 0.5 * math.erfc(epsilon_r / math.sqrt(2))

        def at_least(j):
            return sum(math.comb(n, i) * p1 ** i * (1 - p1) ** (n - i) for i in range(j, n + 1))

        rate = 2 * (p2 * at_least(n // 2) + (1 - p2) * at_least(n // 2 + 1))
        assert rate == pytest.approx(exact, rel=1e-3)
        report = check_prop2(trials, RngStream(0, 6), n=n, k=k, epsilon_r=epsilon_r)
        z = (report["statistic"] - rate) / math.sqrt(rate * (1 - rate) / trials)
        assert abs(z) < 5

    def test_vacuous_configuration_reported(self):
        report = check_prop2(10, RngStream(7, 9), n=2, k=1, epsilon_r=0.5,
                             loc=0.0, scale=10.0)
        assert report["vacuous"] and report["pass"]

    def test_exceedance_rate_non_increasing_in_n(self):
        rates = []
        for n in (2, 4, 6, 8):
            report = check_prop2(20_000, RngStream(8, 9), n=n, k=2, epsilon_r=0.9,
                                 loc=0.0, scale=1.0)
            rates.append(report["statistic"])
        slack = 2 * math.sqrt(0.25 / 20_000)
        assert all(rates[i + 1] <= rates[i] + slack for i in range(len(rates) - 1))

    def test_block_contamination_rarely_moves_estimate(self):
        # Two of the seven median inputs arbitrarily far out; a tight base
        # around 1.0 keeps the estimate within 0.5 of the base mean.
        rng = RngStream(9, 9)
        trials = 5000
        values = np.concatenate([rng.normal(1.0, 0.1, (trials, 5)),
                                 np.tile([1e9, -1e9], (trials, 1))], axis=1)
        values = np.take_along_axis(values, np.argsort(rng.random((trials, 7)), axis=1), axis=1)
        estimate = mom_estimate(values, 6, 1, rng)
        assert np.mean(np.abs(estimate - 1.0) <= 0.5) >= 0.99


class TestMomRobustness:
    def test_exhaustive_containment(self):
        report = check_mom_robustness()
        assert report["pass"]
        assert report["statistic"] == 0
        assert report["trials"] > 0

    def test_pools_run_through_the_training_kernel(self, monkeypatch):
        # One regroup_median call per (n, k), one row per corrupted pool.
        seen = []

        def spy(own, selected, params, perm):
            seen.append((params.n, params.k, selected.shape[0]))
            return regroup_median(own, selected, params, perm)

        monkeypatch.setattr(rml, "regroup_median", spy)
        report = check_mom_robustness(ns=(2, 4), ks=(1, 3))
        assert [s[:2] for s in seen] == [(2, 1), (2, 1), (4, 1), (4, 1)]
        assert sum(s[2] for s in seen) == report["trials"] == 2 * (3 * 2 + 5 * 2 + 10 * 4)


def _separated_losses():
    # Class 0: members 0..5 clean (loss 0.5) and 6..9 noisy (loss 3.0).
    labels = np.zeros(10, dtype=np.int64)
    truth = labels.copy()
    truth[6:] = 1
    ds = Dataset(np.zeros((10, 1)), labels, 2, true_labels=truth)
    loss = np.concatenate([np.full(6, 0.5), np.full(4, 3.0)])
    return ds, loss


class TestCheckCor1:
    def test_separated_losses_gain_clean_mass(self):
        ds, loss = _separated_losses()
        report = check_cor1(ds, loss)
        assert report["premise_holds"]
        assert report["clean_mass_processed"] > report["clean_mass_plain"]
        assert report["pass"]

    def test_identical_losses_equal_mass(self):
        labels = np.zeros(8, dtype=np.int64)
        truth = labels.copy()
        truth[4:] = 1
        ds = Dataset(np.zeros((8, 1)), labels, 2, true_labels=truth)
        loss = np.full(8, 1.7)
        report = check_cor1(ds, loss)
        assert report["clean_mass_processed"] == pytest.approx(report["clean_mass_plain"])
        assert report["pass"]

    def test_trained_cache_direction(self):
        from rml_lab.data import feature_stats, make_blobs, standardize
        from rml_lab.model import forward, init_model, init_optimizer, per_sample_ce
        from rml_lab.noise import inject_symmetric
        from rml_lab.trainer import RunConfig, train_ce

        ds = make_blobs(5, 60, 4, 5.0, RngStream(10))
        ds = inject_symmetric(ds, 0.4, RngStream(10, 2))
        mean, std = feature_stats(ds.features)
        ds = standardize(ds, mean, std)
        model = init_model("linear", ds.dim, 5, RngStream(10, 4))
        opt = init_optimizer(model, 0.5, 40)
        model, _ = train_ce(ds, model, opt,
                            RunConfig(mode="ce", total_epochs=40, batch_size=64, seed=10))
        report = check_cor1(ds, per_sample_ce(forward(model, ds.features), ds.observed_labels))
        assert report["premise_holds"]
        assert report["pass"]
