import struct

import numpy as np
import pytest

from rml_lab.data import (
    Dataset,
    IdxConsistencyError,
    IdxFormatError,
    build_class_index,
    feature_stats,
    load_dataset,
    make_blobs,
    make_two_moons,
    read_idx,
    read_idx_images_raw,
    read_idx_labels_raw,
    save_dataset,
    split,
    standardize,
    write_idx_images,
    write_idx_labels,
)
from rml_lab.model import init_model, init_optimizer
from rml_lab.numerics import BUDGET, RngStream
from rml_lab.trainer import RunConfig, train_ce


def _train_reference(dataset, arch, epochs=200, hidden=16, lr=0.5):
    """Small reference training run used as an oracle for separability."""
    mean, std = feature_stats(dataset.features)
    ds = standardize(dataset, mean, std)
    model = init_model(arch, ds.dim, ds.num_classes, RngStream(0, 99), hidden=hidden)
    opt = init_optimizer(model, lr, epochs, weight_decay=0.0)
    config = RunConfig(mode="ce", total_epochs=epochs, batch_size=64, seed=0)
    model, _ = train_ce(ds, model, opt, config)
    from rml_lab.model import accuracy

    return accuracy(model, ds)


class TestDatasetInvariants:
    def test_class_index_partitions(self):
        ds = make_blobs(10, 50, 8, 6.0, RngStream(1))
        assert [m.size for m in ds.class_index] == [50] * 10
        all_idx = np.sort(np.concatenate(ds.class_index))
        np.testing.assert_array_equal(all_idx, np.arange(ds.n_samples))

    def test_class_index_roundtrip(self):
        ds = make_blobs(5, 20, 3, 6.0, RngStream(2))
        rebuilt = build_class_index(ds.observed_labels, ds.num_classes)
        for a, b in zip(ds.class_index, rebuilt):
            np.testing.assert_array_equal(a, b)

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 5]), num_classes=2)

    def test_non_finite_feature_names_row(self):
        features = np.zeros((4, 2))
        features[2, 1] = np.nan
        with pytest.raises(ValueError, match="row 2"):
            Dataset(features, np.zeros(4, dtype=int), num_classes=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_last_row_is_named(self, bad):
        features = np.ones((5, 3))
        features[4, 2] = bad
        with pytest.raises(ValueError, match="row 4"):
            Dataset(features, np.zeros(5, dtype=int), num_classes=2)

    def test_no_rows_are_valid(self):
        ds = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), num_classes=2)
        assert (ds.n_samples, ds.dim) == (0, 3)
        assert [m.size for m in ds.class_index] == [0, 0]


class TestMakeBlobs:
    def test_minimal_instance(self):
        ds = make_blobs(2, 1, 1, 10.0, RngStream(3))
        assert ds.n_samples == 2
        assert sorted(ds.observed_labels.tolist()) == [0, 1]

    def test_determinism(self):
        a = make_blobs(3, 10, 4, 5.0, RngStream(4, 9))
        b = make_blobs(3, 10, 4, 5.0, RngStream(4, 9))
        np.testing.assert_array_equal(a.features, b.features)

    def test_separable_for_linear_model(self):
        ds = make_blobs(3, 100, 2, 6.0, RngStream(5))
        assert _train_reference(ds, "linear") >= 0.99

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_blobs(1, 10, 2, 5.0, RngStream(6))
        with pytest.raises(ValueError):
            make_blobs(3, 10, 2, 0.0, RngStream(6))


class TestMakeTwoMoons:
    def test_zero_noise_on_arcs(self):
        ds = make_two_moons(50, 0.0, RngStream(7))
        outer = ds.features[ds.observed_labels == 0]
        radii = np.sqrt((outer ** 2).sum(axis=1))
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_balanced_labels(self):
        ds = make_two_moons(10, 0.1, RngStream(8))
        assert ds.n_samples == 20
        assert (ds.observed_labels == 0).sum() == 10

    def test_linear_fails_mlp_succeeds(self):
        ds = make_two_moons(500, 0.1, RngStream(9))
        assert _train_reference(ds, "linear") < 0.92
        assert _train_reference(ds, "mlp", hidden=16) >= 0.97


class TestIdx:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 5, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10, dtype=np.uint8)
        write_idx_images(tmp_path / "img.idx", images)
        write_idx_labels(tmp_path / "lab.idx", labels)
        np.testing.assert_array_equal(read_idx_images_raw(tmp_path / "img.idx"), images)
        np.testing.assert_array_equal(read_idx_labels_raw(tmp_path / "lab.idx"), labels)

    def test_dataset_scaling(self, tmp_path):
        images = np.full((3, 2, 2), 255, dtype=np.uint8)
        labels = np.array([0, 1, 2], dtype=np.uint8)
        write_idx_images(tmp_path / "img.idx", images)
        write_idx_labels(tmp_path / "lab.idx", labels)
        ds = read_idx(tmp_path / "img.idx", tmp_path / "lab.idx")
        np.testing.assert_array_equal(ds.features, np.ones((3, 4)))
        assert ds.true_labels is None

    def test_bad_magic_names_file(self, tmp_path):
        path = tmp_path / "broken.idx"
        path.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 16)
        with pytest.raises(IdxFormatError, match="broken.idx"):
            read_idx_images_raw(path)

    @pytest.mark.parametrize("reader, writer, data, keep", [
        (read_idx_images_raw, write_idx_images, np.zeros((2, 3, 3), dtype=np.uint8), 10),
        (read_idx_labels_raw, write_idx_labels, np.zeros(4, dtype=np.uint8), 6),
    ])
    def test_truncated_header_names_file(self, tmp_path, reader, writer, data, keep):
        path = tmp_path / "short.idx"
        writer(path, data)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(IdxFormatError, match="truncated .* header in .*short.idx"):
            reader(path)

    def test_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "img.idx", np.zeros((10, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.zeros(9, dtype=np.uint8))
        with pytest.raises(IdxConsistencyError):
            read_idx(tmp_path / "img.idx", tmp_path / "lab.idx")


class TestContainer:
    def test_roundtrip(self, tmp_path):
        ds = make_blobs(4, 25, 3, 5.0, RngStream(10))
        save_dataset(ds, tmp_path / "data.rmld")
        back = load_dataset(tmp_path / "data.rmld")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.observed_labels, ds.observed_labels)
        np.testing.assert_array_equal(back.true_labels, ds.true_labels)
        assert back.num_classes == ds.num_classes

    def test_roundtrip_without_truth(self, tmp_path):
        ds = make_blobs(2, 5, 2, 5.0, RngStream(11))
        ds = Dataset(ds.features, ds.observed_labels, 2)
        save_dataset(ds, tmp_path / "data.rmld")
        assert load_dataset(tmp_path / "data.rmld").true_labels is None

    def test_truncated_names_file(self, tmp_path):
        path = tmp_path / "data.rmld"
        save_dataset(make_blobs(2, 5, 2, 5.0, RngStream(12)), path)
        whole = path.read_bytes()
        for keep in (len(whole) - 1, len(whole) // 2, 12):
            path.write_bytes(whole[:keep])
            with pytest.raises(ValueError, match="truncated file .*data.rmld"):
                load_dataset(path)

    def test_trailing_bytes_name_file(self, tmp_path):
        path = tmp_path / "data.rmld"
        save_dataset(make_blobs(2, 5, 2, 5.0, RngStream(12)), path)
        path.write_bytes(path.read_bytes() + bytes(7))
        with pytest.raises(ValueError, match="trailing bytes in .*data.rmld: 7 past"):
            load_dataset(path)

    def test_unknown_flags_name_file(self, tmp_path):
        # The flags word follows the 8-byte magic and the version.
        path = tmp_path / "data.rmld"
        save_dataset(make_blobs(2, 5, 2, 5.0, RngStream(12)), path)
        whole = bytearray(path.read_bytes())
        whole[12:16] = struct.pack("<I", 6)
        path.write_bytes(bytes(whole))
        with pytest.raises(ValueError, match="unknown flag bits 0x6 in .*data.rmld"):
            load_dataset(path)


class TestSplit:
    def test_sizes(self):
        ds = make_blobs(2, 50, 2, 5.0, RngStream(12))
        train, test = split(ds, 0.2, RngStream(12, 50))
        assert train.n_samples == 80 and test.n_samples == 20

    def test_stratified_counts(self):
        ds = make_blobs(5, 41, 3, 5.0, RngStream(13))
        train, test = split(ds, 0.3, RngStream(13, 50))
        for c in range(5):
            total = 41
            n_test = (test.observed_labels == c).sum()
            assert abs(n_test - round(total * 0.3)) <= 1
            assert (train.observed_labels == c).sum() + n_test == total

    def test_deterministic(self):
        ds = make_blobs(3, 30, 2, 5.0, RngStream(14))
        a_train, _ = split(ds, 0.25, RngStream(14, 50))
        b_train, _ = split(ds, 0.25, RngStream(14, 50))
        np.testing.assert_array_equal(a_train.features, b_train.features)

    def test_rejects_bad_fraction(self):
        ds = make_blobs(2, 10, 2, 5.0, RngStream(15))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                split(ds, bad, RngStream(15, 50))


class TestStandardize:
    def test_train_stats_zero_mean_unit_var(self):
        ds = make_blobs(3, 40, 4, 5.0, RngStream(16))
        mean, std = feature_stats(ds.features)
        out = standardize(ds, mean, std)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)


class TestFeatureStats:
    """numpy's mean(axis=0) and std(axis=0), bit for bit, at sizes around
    one row block of BUDGET elements; a constant column gets stdev 1."""

    @staticmethod
    def _assert_numpy_bits(features):
        mean, std = feature_stats(features)
        want_std = features.std(axis=0)
        assert mean.tobytes() == features.mean(axis=0).tobytes()
        assert std.tobytes() == np.where(want_std < 1e-12, 1.0, want_std).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the mean of no rows
    @pytest.mark.parametrize("d", [1, 2, 8, 784])
    def test_numpy_bits(self, d):
        block = BUDGET // d
        for n in (0, 1, block - 1, block, block + 1, 3 * block + 1):
            features = RngStream(d, n).normal(5.0, 3.0, (n, d))
            if d > 1:
                features[:, -1] = 0.1   # sums to N * 0.1 only up to rounding
            self._assert_numpy_bits(features)
            if d > 1 and n:
                assert feature_stats(features)[1][-1] == 1.0

    def test_fortran_order_gets_numpy_bits(self):
        # numpy sums a contiguous axis 0 pairwise, not row by row.
        self._assert_numpy_bits(np.asfortranarray(
            RngStream(0, 32).normal(5.0, 3.0, (3 * BUDGET // 2 + 1, 2))))
