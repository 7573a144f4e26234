import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import rml_lab
from rml_lab.data import Dataset, make_blobs, split
from rml_lab.noise import (
    _flip_probabilities,
    INSTANCE_FLIP_STDEV,
    NoiseSpec,
    TrueLabelsUnavailable,
    apply,
    corruption_mask,
    empirical_transition_matrix,
    inject_instance_dependent,
    inject_pairflip,
    inject_symmetric,
    instance_flip_distribution,
)
from rml_lab.numerics import RngStream


def _big_clean(n_classes=10, per_class=10_000, dim=4, seed=0):
    return make_blobs(n_classes, per_class, dim, 6.0, RngStream(seed))


@pytest.fixture(scope="module")
def clean_100k():
    return _big_clean()


class TestSymmetric:
    def test_zero_rate_identity(self):
        ds = _big_clean(4, 25, 3, seed=1)
        out = inject_symmetric(ds, 0.0, RngStream(1, 2))
        np.testing.assert_array_equal(out.observed_labels, out.true_labels)

    @pytest.mark.parametrize("rate", [1.5, 1.0, -0.2, float("nan")])
    def test_rate_outside_unit_interval(self, rate):
        ds = _big_clean(4, 25, 3, seed=1)
        with pytest.raises(ValueError, match=f"rate must be in \\[0, 1\\), got {rate}"):
            inject_symmetric(ds, rate, RngStream(1, 2))

    def test_two_classes_swap_only(self):
        # integers(0, 1) draws nothing: every flip goes to the other class.
        ds = _big_clean(2, 500, 2, seed=9)
        out = inject_symmetric(ds, 0.45, RngStream(9, 2))
        flipped = corruption_mask(out)
        assert 0.4 < flipped.mean() < 0.5
        np.testing.assert_array_equal(out.observed_labels[flipped], 1 - out.true_labels[flipped])

    def test_realized_rate(self, clean_100k):
        out = inject_symmetric(clean_100k, 0.5, RngStream(2, 2))
        assert abs(corruption_mask(out).mean() - 0.5) < 0.01

    def test_flipped_mass_uniform_over_wrong_classes(self, clean_100k):
        out = inject_symmetric(clean_100k, 0.5, RngStream(3, 2))
        t = empirical_transition_matrix(out)
        c = out.num_classes
        off = t[~np.eye(c, dtype=bool)]
        np.testing.assert_allclose(off, 0.5 / (c - 1), atol=0.01)
        np.testing.assert_allclose(np.diag(t), 0.5, atol=0.01)

    def test_invariants_preserved(self):
        ds = _big_clean(5, 40, 3, seed=4)
        out = inject_symmetric(ds, 0.4, RngStream(4, 2))
        np.testing.assert_array_equal(out.true_labels, ds.true_labels)
        np.testing.assert_array_equal(out.features, ds.features)
        for c, members in enumerate(out.class_index):
            assert (out.observed_labels[members] == c).all()

    def test_deterministic(self):
        ds = _big_clean(5, 40, 3, seed=5)
        a = inject_symmetric(ds, 0.4, RngStream(5, 2))
        b = inject_symmetric(ds, 0.4, RngStream(5, 2))
        np.testing.assert_array_equal(a.observed_labels, b.observed_labels)

    def test_prefix_stable_when_samples_added(self):
        # Index-keyed decisions: a longer dataset replays the same fates
        # for its common prefix.
        small = _big_clean(4, 30, 3, seed=6)
        large = Dataset(
            np.vstack([small.features, small.features]),
            np.concatenate([small.observed_labels, small.observed_labels]),
            4,
            true_labels=np.concatenate([small.true_labels, small.true_labels]),
        )
        a = inject_symmetric(small, 0.4, RngStream(6, 2))
        b = inject_symmetric(large, 0.4, RngStream(6, 2))
        np.testing.assert_array_equal(
            a.observed_labels, b.observed_labels[: small.n_samples]
        )


class TestPairflip:
    def test_transition_band(self, clean_100k):
        out = inject_pairflip(clean_100k, 0.45, RngStream(2, 2))
        t = empirical_transition_matrix(out)
        c = out.num_classes
        for y in range(c):
            assert abs(t[y, y] - 0.55) < 0.01
            assert abs(t[y, (y + 1) % c] - 0.45) < 0.01
        band = np.eye(c, dtype=bool) | np.roll(np.eye(c, dtype=bool), 1, axis=1)
        assert t[~band].sum() == 0.0

    def test_zero_rate(self):
        ds = _big_clean(3, 20, 2, seed=8)
        out = inject_pairflip(ds, 0.0, RngStream(8, 2))
        np.testing.assert_array_equal(out.observed_labels, out.true_labels)

    def test_two_classes_swap_only(self):
        ds = _big_clean(2, 500, 2, seed=9)
        out = inject_pairflip(ds, 0.45, RngStream(9, 2))
        flipped = corruption_mask(out)
        np.testing.assert_array_equal(
            out.observed_labels[flipped], 1 - out.true_labels[flipped]
        )

    def test_rate_cap(self):
        ds = _big_clean(3, 10, 2, seed=10)
        with pytest.raises(ValueError):
            inject_pairflip(ds, 0.5, RngStream(10, 2))

    @pytest.mark.parametrize("rate", [-0.3, float("nan")])
    def test_rate_below_zero(self, rate):
        ds = _big_clean(3, 10, 2, seed=10)
        with pytest.raises(ValueError, match=f"rate must be in \\[0, 0.5\\), got {rate}"):
            inject_pairflip(ds, rate, RngStream(10, 2))


class TestInstanceDependent:
    def test_realized_rate(self, clean_100k):
        out = inject_instance_dependent(clean_100k, 0.4, RngStream(11, 2))
        assert abs(corruption_mask(out).mean() - 0.4) < 0.02

    def test_identical_features_same_distribution(self):
        x = np.tile(np.array([[0.3, -1.2, 0.7]]), (2, 1))
        q = np.array([0.4, 0.4])
        proj = np.random.default_rng(3).normal(size=(3, 3, 3))
        rows = instance_flip_distribution(x, 1, q, proj)
        np.testing.assert_array_equal(rows[0], rows[1])
        assert rows[0, 1] == pytest.approx(0.6)
        assert rows.sum(axis=1) == pytest.approx([1.0, 1.0])

    def test_deterministic(self):
        ds = _big_clean(4, 100, 3, seed=12)
        a = inject_instance_dependent(ds, 0.3, RngStream(12, 2))
        b = inject_instance_dependent(ds, 0.3, RngStream(12, 2))
        np.testing.assert_array_equal(a.observed_labels, b.observed_labels)

    def test_true_labels_untouched(self):
        ds = _big_clean(4, 100, 3, seed=13)
        out = inject_instance_dependent(ds, 0.3, RngStream(13, 2))
        np.testing.assert_array_equal(out.true_labels, ds.true_labels)


@pytest.mark.parametrize("inject", [inject_symmetric, inject_pairflip, inject_instance_dependent])
def test_clean_labels_untouched(inject):
    # make_blobs gives observed and true labels one array, so an injector
    # that wrote its labels in place would corrupt the clean data set.
    ds = make_blobs(4, 50, 3, 6.0, RngStream(14))
    inject(ds, 0.4, RngStream(14, 2))
    for labels in (ds.observed_labels, ds.true_labels):
        np.testing.assert_array_equal(labels, np.repeat(np.arange(4), 50))


def _label_digest(dataset: Dataset) -> str:
    return hashlib.sha256(dataset.observed_labels.astype(np.int64).tobytes()).hexdigest()


class TestPinnedLabels:
    """SHA-256 of injected labels, recorded when each sample still drew from
    its own per-index generator: the bulk child-stream draw must give the same
    bytes."""

    @pytest.mark.parametrize("kind, rate, stream, digest", [
        ("symmetric", 0.2, 21, "eeb70e542e34c0a5a90150240d1bf746a56beff02562786a97f6057ddaaa34ad"),
        ("pairflip", 0.45, 23, "2d88c548a932dc9a5b8451d747db333ba54124bc19c3f439af32bde055fb82c8"),
        ("instance_dependent", 0.3, 24,
         "11ec9fbc4e49c61f74ffe55ef32917f3dfe2bc64a1a3e15361ced57aa8734b94"),
    ])
    def test_benchmark_injections(self, kind, rate, stream, digest):
        # The benchmark's verify_suite inputs: 10^5 blobs of seed 0.
        clean = make_blobs(10, 10_000, 4, 6.0, RngStream(0, 1))
        assert _label_digest(apply(clean, NoiseSpec(kind, rate, stream), 0)) == digest

    def test_acceptance_training_set(self):
        # The acceptance BENCH training set of seed 0 at 40% symmetric noise.
        train, _ = split(make_blobs(10, 500, 8, 4.0, RngStream(0, 1)), 0.2, RngStream(0, 3))
        noisy = inject_symmetric(train, 0.4, RngStream(0, 2))
        assert _label_digest(noisy) == (
            "773d1658a4133543982811a7aa1673891c8acb328c23300ad284442189d10f6d")


def _tail_masses(rate):
    root2 = math.sqrt(2.0)
    lower = 0.5 * math.erfc(rate / INSTANCE_FLIP_STDEV / root2)
    upper = 0.5 * math.erfc((1.0 - rate) / INSTANCE_FLIP_STDEV / root2)
    return lower, upper, 1.0 - lower - upper


def _per_sample_flip_probabilities(u, rate):
    """The per-sample path: NormalDist.inv_cdf on each draw, inverted from
    the nearer tail."""
    lower, upper, mass = _tail_masses(rate)
    inv_cdf = NormalDist().inv_cdf
    z = [inv_cdf(lower + ui * mass) if lower + ui * mass <= 0.5
         else -inv_cdf(upper + (1.0 - ui) * mass)
         for ui in u.tolist()]
    return np.clip(rate + INSTANCE_FLIP_STDEV * np.array(z), 0.0, 1.0)


class TestFlipProbabilities:
    """Quantiles of normal(rate, 0.1) truncated to [0, 1], against 80-digit
    references, at the extreme draws Generator.random() can return."""

    @pytest.mark.parametrize("rate, u, q", [
        (0.0, 1 - 2**-53, 0.8292361059491083),
        (0.1, 1 - 2**-53, 0.9230109887183753),
        (0.1, 1 - 2**-40, 0.8071706596155549),
        (0.3, 0.25, 0.23286927971511115),
        (0.3, 1 - 2**-53, 0.9999987863041341),
        (0.9, 2**-53, 0.0769890112816247),
        (0.9, 0.0, 0.0),
        (0.9, 0.5, 0.8799826313833109),
    ])
    def test_matches_reference_quantile(self, rate, u, q):
        assert _flip_probabilities(np.array([u]), rate)[0] == pytest.approx(q, rel=0, abs=1e-12)

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.5, 0.9, 0.999])
    def test_bits_match_per_sample_inv_cdf(self, rate):
        # The vectorized central branch must give NormalDist.inv_cdf's bits
        # on 10^6 draws, the extreme ones, and the draws nearest either side
        # of the branch edge |p - 0.5| = 0.425 in both halves.
        lower, upper, mass = _tail_masses(rate)
        u = [RngStream(31).random(1_000_000), [0.0, 2**-53, 0.5, 1 - 2**-53]]
        for edge in ((0.075 - lower) / mass, 1.0 - (0.075 - upper) / mass):
            near = edge + np.arange(-8, 9) * np.spacing(edge)
            near = near[(near >= 0.0) & (near < 1.0)]
            p = lower + near * mass
            p = np.where(p <= 0.5, p, upper + (1.0 - near) * mass)
            central = np.count_nonzero(np.abs(p - 0.5) <= 0.425)
            assert near.size == 0 or 0 < central < near.size
            u.append(near)
        u = np.concatenate(u)
        want = _per_sample_flip_probabilities(u, rate)
        assert _flip_probabilities(u, rate).tobytes() == want.tobytes()

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.9, 0.99])
    def test_extreme_draws_stay_in_unit_interval(self, rate):
        q = _flip_probabilities(np.array([0.0, 2**-53, 0.5, 1 - 2**-53]), rate)
        assert np.all((q >= 0.0) & (q <= 1.0))
        assert np.all(np.diff(q) >= 0.0)


def test_import_loads_no_scipy():
    """The package depends on numpy alone; scipy.stats once cost ~1.2 s and
    ~70 MB of every start-up."""
    src = str(Path(rml_lab.__file__).resolve().parents[1])
    code = ("import sys, rml_lab; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestCorruptionMask:
    def test_clean_dataset_all_false(self):
        ds = _big_clean(3, 10, 2, seed=14)
        assert not corruption_mask(ds).any()

    def test_requires_truth(self):
        ds = _big_clean(3, 10, 2, seed=15)
        stripped = Dataset(ds.features, ds.observed_labels, 3)
        with pytest.raises(TrueLabelsUnavailable):
            corruption_mask(stripped)

    def test_mask_mean_is_realized_rate(self):
        ds = _big_clean(6, 200, 3, seed=16)
        out = inject_symmetric(ds, 0.25, RngStream(16, 2))
        rate = (out.observed_labels != out.true_labels).mean()
        assert corruption_mask(out).mean() == rate


class TestNoiseSpec:
    def test_valid(self):
        spec = NoiseSpec("symmetric", 0.4)
        assert spec.rng_stream == 2

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("salt_and_pepper", 0.1)

    def test_pairflip_rate_bound(self):
        with pytest.raises(ValueError):
            NoiseSpec("pairflip", 0.5)
