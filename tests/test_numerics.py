import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rml_lab.model import per_sample_ce
from rml_lab.numerics import (
    RACE_MIN_WEIGHT,
    RngStream,
    _PHILOX_LANES,
    _lemire,
    _race_draw,
    child_integers,
    child_random,
    softmax,
)


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
    """The exponential-race draw the cache refresh uses, one row per draw."""

    @staticmethod
    def draw(w, count, rows, rng):
        w = np.broadcast_to(np.asarray(w, dtype=np.float64), (rows, len(w)))
        return _race_draw(rng.random(w.shape), w, count)

    def test_degenerate_mass(self):
        picked = self.draw([1.0, 0.0, 0.0], 1, 20, RngStream(1))
        assert picked.tolist() == [[0]] * 20

    def test_exhaustive_draw(self):
        picked = self.draw([1.0, 1.0], 2, 1, RngStream(2))
        assert sorted(picked[0].tolist()) == [0, 1]

    def test_marginal_frequency(self):
        # Single weighted draw: inclusion frequency must match the weight.
        picked = self.draw([0.9, 0.1], 1, 100_000, RngStream(3))
        assert abs(np.mean(picked[:, 0] == 0) - 0.9) < 0.01

    def test_inclusion_ordering(self):
        picked = self.draw([0.5, 0.3, 0.2], 2, 20_000, RngStream(4))
        counts = np.bincount(picked.ravel(), minlength=3)
        assert counts[0] > counts[1] > counts[2]

    def test_no_duplicates(self):
        rng = RngStream(5)
        w = np.abs(rng.normal(size=30)) + 1e-3
        picked = self.draw(w, 17, 200, rng)
        assert all(len(set(row)) == 17 for row in picked.tolist())

    def test_rows_match_one_row_draws(self):
        # Each row of a batched draw is the draw of that row alone.
        rng = RngStream(6)
        u, w = rng.random((50, 12)), rng.random((50, 12))
        picked = _race_draw(u, w, 5)
        for r in range(50):
            np.testing.assert_array_equal(picked[r], _race_draw(u[r:r + 1], w[r:r + 1], 5)[0])

    def test_min_weight_is_the_finite_key_threshold(self):
        # Against the smallest nonzero uniform, 2**-53, RACE_MIN_WEIGHT's key
        # is finite and beats the next float below, whose key is infinite.
        tiny = 2.0 ** -53
        below = np.nextafter(RACE_MIN_WEIGHT, 0.0)
        with np.errstate(over="ignore"):
            assert np.isfinite(-np.log(tiny) / RACE_MIN_WEIGHT)
            assert np.isinf(-np.log(tiny) / below)
        picked = _race_draw(np.full((1, 2), tiny), np.array([[below, RACE_MIN_WEIGHT]]), 1)
        assert picked.tolist() == [[1]]

    @given(st.integers(1, 12), st.integers(1, 20), st.integers(0, 2**32), st.data())
    @settings(max_examples=100, deadline=None)
    def test_picks_distinct_positive_weight_columns(self, rows, m, seed, data):
        # The refresh zeroes each row's own weight, and softmax weights of
        # far-out losses underflow to 0: a zero weight must never win, and no
        # column may win twice.  Positive weights stay far enough above the
        # subnormal range that their keys are finite.
        rng = RngStream(seed)
        w = rng.random((rows, m)) * np.exp(-rng.uniform(0, 600, (rows, m)))
        w[rng.random((rows, m)) < 0.3] = 0.0
        w[np.arange(rows), rng.integers(0, m, rows)] = 0.0
        positive = int((w > 0).sum(axis=1).min())
        if positive == 0:
            return
        count = data.draw(st.integers(1, positive))
        picked = _race_draw(rng.random((rows, m)), w, count)
        assert picked.shape == (rows, count)
        assert (np.take_along_axis(w, picked, axis=1) > 0).all()
        assert all(len(set(row)) == count for row in picked.tolist())


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


# (seed, stream_id) pairs for the bulk child kernel, with both ends of the
# 64-bit key range.
KERNEL_KEYS = ((0, 0), (2**64 - 1, 2**64 - 1), (9, 1), (0, 2**64 - 1), (2**64 - 1, 21))
# uint32 halves that numpy's Lemire draw rejects for integers(0, 9): the
# products half * 9 whose low word falls below 2**32 % 9 = 4.
REJECTED_9 = (0, 954437177, 1908874354, 2863311531)


def _philox_words(halves):
    """Pack an even number of uint32 halves into 64-bit words, low half first."""
    return np.array([lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])],
                    dtype=np.uint64)


class TestChildKernel:
    @pytest.mark.parametrize("seed,stream_id", KERNEL_KEYS)
    def test_matches_scalar_route(self, seed, stream_id):
        base = RngStream(seed, stream_id)
        expected = np.array([base.child(i).random(8) for i in range(20_000)])
        np.testing.assert_array_equal(child_random(base, np.arange(20_000), 8), expected)

    def test_far_and_negative_indices(self):
        base = RngStream(9, 1)
        indices = np.array([0, 1, 42, 7, 2**40, -3])
        expected = np.array([base.child(int(i)).random(8) for i in indices])
        np.testing.assert_array_equal(child_random(base, indices, 8), expected)

    def test_counts_across_blocks(self):
        base = RngStream(3, 5)
        for count in (1, 5, 13):
            expected = np.array([base.child(i).random(count) for i in range(50)])
            np.testing.assert_array_equal(child_random(base, np.arange(50), count), expected)

    @pytest.mark.parametrize("high", [1, 2, 9, 1000, 2**32 - 7])
    def test_integers_match_scalar_route(self, high):
        base = RngStream(4, 21)

        def scalar(i):
            gen = base.child(i).generator
            gen.random()
            return gen.integers(0, high)

        expected = [scalar(i) for i in range(2_000)]
        np.testing.assert_array_equal(child_integers(base, np.arange(2_000), high, skip=1),
                                      expected)

    def test_integers_across_passes(self):
        # More indices than one pass holds, so the draw crosses pass edges.
        base = RngStream(8, 13)
        indices = np.arange(2 * _PHILOX_LANES + 37)

        def scalar(i):
            gen = base.child(i).generator
            gen.random()
            return gen.integers(0, 9)

        np.testing.assert_array_equal(child_integers(base, indices, 9, skip=1),
                                      [scalar(i) for i in indices.tolist()])

    @pytest.mark.parametrize("high", [0, -1, 2**32, 2**32 + 5])
    def test_integers_reject_high_out_of_range(self, high):
        with pytest.raises(ValueError, match=f"got {high}"):
            child_integers(RngStream(0), np.arange(3), high, skip=1)

    @pytest.mark.parametrize("rejected", [1, 3, 5])
    def test_lemire_rejection_matches_numpy(self, rejected):
        halves = (REJECTED_9 * 2)[:rejected] + (2**32 - 1, 123456789, 5)
        words = _philox_words(halves + (7,) * (8 - len(halves)))
        gen = RngStream(0).generator
        state = gen.bit_generator.state
        state["buffer"] = words
        state["buffer_pos"] = 0
        gen.bit_generator.state = state
        values, drawn = _lemire(words[None, :], 9)
        assert drawn[0]
        assert values[0] == gen.integers(0, 9)

    def test_lemire_reports_exhausted_rows(self):
        values, drawn = _lemire(_philox_words(REJECTED_9 * 2)[None, :], 9)
        assert not drawn[0]

    def test_child_integers_reads_on_past_the_first_block(self, monkeypatch):
        # Every half after the skipped word of the first block is rejected:
        # the draw must come from the second block, as numpy's does.
        import rml_lab.numerics as numerics

        base = RngStream(6, 2)
        rejected = _philox_words(REJECTED_9 + REJECTED_9[:2])
        real = numerics._child_words

        def first_block_rejected(stream, indices, count):
            words = real(stream, indices, count)
            words[:, 1:4] = rejected
            return words

        def numpy_draw(i):
            gen = base.child(i).generator
            gen.random()
            state = gen.bit_generator.state
            state["buffer"][1:4] = rejected
            gen.bit_generator.state = state
            return gen.integers(0, 9)

        monkeypatch.setattr(numerics, "_child_words", first_block_rejected)
        got = child_integers(base, np.arange(3), 9, skip=1)
        np.testing.assert_array_equal(got, [numpy_draw(i) for i in range(3)])
