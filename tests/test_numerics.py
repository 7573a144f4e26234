import math

import numpy as np
import pytest

from rml_lab.model import per_sample_ce
from rml_lab.numerics import RngStream, _race_draw, child_generator_pool, softmax


def row_ce(probs, label: int) -> float:
    """One row through the floored cross-entropy that training uses."""
    return float(per_sample_ce(np.array([probs], dtype=np.float64), np.array([label]))[0])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_closed_form(self):
        # e^{ln 2} = 2 against unit entries: [2, 1, 1] / 4.
        np.testing.assert_allclose(
            softmax([math.log(2.0), 0.0, 0.0]), [0.5, 0.25, 0.25], atol=1e-15
        )

    def test_large_logits_no_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0], 1.0)
        assert out[1] >= 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])

    def test_sums_to_one_and_preserves_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            logits = rng.uniform(-1e3, 1e3, size=rng.integers(2, 40))
            out = softmax(logits)
            assert abs(out.sum() - 1.0) < 1e-12
            assert out.argmax() == logits.argmax()


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert row_ce([1.0, 0.0], 0) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_binary(self):
        assert row_ce([0.5, 0.5], 1) == pytest.approx(math.log(2.0), rel=1e-9)

    def test_uniform_four_way(self):
        assert row_ce([0.25] * 4, 2) == pytest.approx(math.log(4.0), rel=1e-9)

    def test_zero_probability_is_finite(self):
        assert row_ce([1.0, 0.0], 1) == pytest.approx(-math.log(1e-12))


class TestSampleWithoutReplacement:
    """The exponential-race draw the cache refresh uses."""

    def test_degenerate_mass(self):
        rng = RngStream(1)
        for _ in range(20):
            assert _race_draw(np.array([1.0, 0.0, 0.0]), 1, rng).tolist() == [0]

    def test_exhaustive_draw(self):
        rng = RngStream(2)
        assert sorted(_race_draw(np.array([1.0, 1.0]), 2, rng).tolist()) == [0, 1]

    def test_marginal_frequency(self):
        # Single weighted draw: inclusion frequency must match the weight.
        rng = RngStream(3)
        trials = 100_000
        hits = 0
        for t in range(trials):
            pick = _race_draw(np.array([0.9, 0.1]), 1, rng.child(t))
            hits += pick[0] == 0
        assert abs(hits / trials - 0.9) < 0.01

    def test_inclusion_ordering(self):
        rng = RngStream(4)
        counts = np.zeros(3)
        for t in range(20_000):
            picked = _race_draw(np.array([0.5, 0.3, 0.2]), 2, rng.child(t))
            counts[picked] += 1
        assert counts[0] > counts[1] > counts[2]

    def test_no_duplicates(self):
        rng = RngStream(5)
        w = np.abs(rng.normal(size=30)) + 1e-3
        for t in range(200):
            picked = _race_draw(w, 17, rng.child(t))
            assert len(set(picked.tolist())) == 17


class TestRngStream:
    def test_bit_reproducible(self):
        a = RngStream(123, 7).random(64)
        b = RngStream(123, 7).random(64)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 7).random(64)
        b = RngStream(123, 8).random(64)
        assert not np.array_equal(a, b)

    def test_children_are_stable_and_distinct(self):
        base = RngStream(9, 1)
        c1 = base.child(42).random(8)
        c2 = RngStream(9, 1).child(42).random(8)
        np.testing.assert_array_equal(c1, c2)
        assert not np.array_equal(c1, base.child(43).random(8))

    def test_generator_pool_matches_child(self):
        base = RngStream(9, 1)
        fetch = child_generator_pool(base)
        for i in (0, 1, 42, 7, 2**40, -3):
            np.testing.assert_array_equal(fetch(i).random(8), base.child(i).random(8))
