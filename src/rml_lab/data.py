"""Dataset construction: synthetic generators, IDX image files, a binary
dataset container, stratified splitting, and feature standardization.

A Dataset keeps both the true labels (when known) and the observed, possibly
corrupted labels, in the narrowest unsigned type that holds the class count
(`label_dtype`): up to 255 classes, one byte per label, the byte the IDX and
container files store.  Labels are checked before they are narrowed.  Its
per-class index over the observed labels is built the first time it is
read, so a dataset that nothing groups by class (a label injector's output)
never holds one.  Datasets are treated as immutable after
construction; label corruption produces a new Dataset.  Blob noise and
feature statistics run in row blocks of at most numerics.BUDGET elements,
with the bytes a whole-array pass gives, so their working set stays fixed as
the data grows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import BUDGET, RngStream, even_blocks

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

CONTAINER_MAGIC = b"RMLDATA\x01"
CONTAINER_VERSION = 1
MAX_CLASSES = 256   # one label byte per sample


class IdxFormatError(ValueError):
    """Raised when an IDX file does not carry the expected magic/shape."""


class IdxConsistencyError(ValueError):
    """Raised when paired IDX files disagree on the sample count."""


def label_dtype(num_classes: int) -> np.dtype:
    """The in-memory label type: the narrowest unsigned type that holds
    `num_classes` itself, so that y + 1 before a mod c cannot overflow."""
    return np.min_scalar_type(num_classes)


def _checked_labels(labels, n: int, num_classes: int, which: str) -> np.ndarray:
    """`labels` as an (n,) array of label_dtype(num_classes), checked before
    it is narrowed: a cast first would wrap 257 or -255 to a valid byte."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"Dataset: {which} labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (n,):
        raise ValueError(f"Dataset: {which}_labels length must match features")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"Dataset: {which} labels out of range [0, {num_classes})")
    return labels.astype(label_dtype(num_classes), copy=False)


def class_members(observed_labels: np.ndarray, label: int) -> np.ndarray:
    """Sorted indices of the samples observed as class `label`."""
    return np.flatnonzero(observed_labels == label)


def build_class_index(observed_labels: np.ndarray, num_classes: int) -> list[np.ndarray]:
    """Sorted sample indices per observed class."""
    return [class_members(observed_labels, c) for c in range(num_classes)]


@dataclass
class Dataset:
    """Features with observed (and, when known, true) labels.  `class_index`
    is built from the observed labels on first read and cached."""

    features: np.ndarray                 # (N, d) float64
    observed_labels: np.ndarray          # (N,) label_dtype(num_classes)
    num_classes: int
    true_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("Dataset: features must be 2-D (N, d)")
        # min and max carry any NaN or infinity, without an (N, d) mask.
        if self.features.size and not (np.isfinite(self.features.min())
                                       and np.isfinite(self.features.max())):
            finite = np.isfinite(self.features).all(axis=1)
            raise ValueError(f"Dataset: non-finite feature in row {int(np.argmin(finite))}")
        n = self.features.shape[0]
        self.observed_labels = _checked_labels(self.observed_labels, n, self.num_classes,
                                               "observed")
        if self.true_labels is not None:
            self.true_labels = _checked_labels(self.true_labels, n, self.num_classes, "true")

    @cached_property
    def class_index(self) -> list[np.ndarray]:
        return build_class_index(self.observed_labels, self.num_classes)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def with_observed_labels(self, observed: np.ndarray) -> "Dataset":
        """Copy of this dataset with new observed labels (and no index yet)."""
        return Dataset(
            features=self.features,
            observed_labels=observed,
            num_classes=self.num_classes,
            true_labels=self.true_labels,
        )


def make_blobs(num_classes: int, per_class: int, dim: int, separation: float,
               rng: RngStream) -> Dataset:
    """Gaussian clusters with unit covariance at mutually separated centers.

    Centers are standard-normal draws rescaled so the closest pair sits
    exactly `separation` apart; clean labels (observed == true).
    """
    if num_classes < 2 or per_class < 1 or separation <= 0:
        raise ValueError("make_blobs: need num_classes >= 2, per_class >= 1, separation > 0")
    centers = rng.normal(size=(num_classes, dim))
    diffs = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(-1))
    min_dist = dist[~np.eye(num_classes, dtype=bool)].min()
    if min_dist <= 0:
        raise ValueError("make_blobs: degenerate center draw")
    centers = centers * (separation / min_dist)
    labels = np.repeat(np.arange(num_classes, dtype=label_dtype(num_classes)), per_class)
    features = centers[labels]
    # The noise rows are read from the stream in order, one block at a time.
    for block in even_blocks(labels.size, BUDGET // dim):
        rows = features[block]
        rows += rng.normal(size=rows.shape)
    # One label array for both: datasets are immutable, and every injector
    # writes its labels into a copy.
    return Dataset(features, labels, num_classes, true_labels=labels)


def make_two_moons(per_class: int, noise_stdev: float, rng: RngStream) -> Dataset:
    """Two interleaved half-circles in 2-D with Gaussian jitter."""
    if per_class < 1 or noise_stdev < 0:
        raise ValueError("make_two_moons: need per_class >= 1, noise_stdev >= 0")
    t = np.linspace(0.0, np.pi, per_class)
    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    features = np.vstack([outer, inner])
    if noise_stdev > 0:
        features = features + noise_stdev * rng.normal(size=features.shape)
    labels = np.repeat(np.array([0, 1], dtype=label_dtype(2)), per_class)
    return Dataset(features, labels, 2, true_labels=labels.copy())


# -- IDX files (big-endian magic + dims, unsigned-byte payload) --------------

def _read_idx_raw(path, magic: int, ndim: int, what: str) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped by its `ndim` dimensions."""
    with open(path, "rb") as f:
        header = f.read(4 * (1 + ndim))
        if len(header) < 4 or struct.unpack(">I", header[:4])[0] != magic:
            raise IdxFormatError(f"bad {what} magic in {path}")
        if len(header) != 4 * (1 + ndim):
            raise IdxFormatError(f"truncated {what} header in {path}")
        shape = struct.unpack(f">{ndim}I", header[4:])
        size = math.prod(shape)
        payload = f.read(size)
        if len(payload) != size:
            raise IdxFormatError(f"truncated {what} payload in {path}")
        return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def read_idx_images_raw(path) -> np.ndarray:
    """Raw (n, rows, cols) uint8 array from an IDX images file."""
    return _read_idx_raw(path, IDX_IMAGES_MAGIC, 3, "images")


def read_idx_labels_raw(path) -> np.ndarray:
    """Raw (n,) uint8 label array from an IDX labels file."""
    return _read_idx_raw(path, IDX_LABELS_MAGIC, 1, "labels")


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("write_idx_images: expected (n, rows, cols)")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def read_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair: pixels scaled to [0, 1], rows flattened.

    True labels are unknown for file-backed data, so true_labels is None.
    """
    images = read_idx_images_raw(images_path)
    labels = read_idx_labels_raw(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxConsistencyError(
            f"{images_path} holds {images.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels"
        )
    features = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    num_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(features, labels, num_classes)


# -- binary dataset container -------------------------------------------------

def save_dataset(dataset: Dataset, path) -> None:
    """Self-describing container: magic, version, N/d/c, float64 features,
    one label byte per sample (observed, then true when present)."""
    if dataset.num_classes > MAX_CLASSES:
        raise ValueError(f"save_dataset: label bytes support at most {MAX_CLASSES} classes")
    flags = 1 if dataset.true_labels is not None else 0
    with open(path, "wb") as f:
        f.write(CONTAINER_MAGIC)
        f.write(struct.pack("<II", CONTAINER_VERSION, flags))
        f.write(struct.pack("<QQQ", dataset.n_samples, dataset.dim, dataset.num_classes))
        f.write(dataset.features.astype("<f8").tobytes())
        f.write(dataset.observed_labels.astype(np.uint8).tobytes())
        if dataset.true_labels is not None:
            f.write(dataset.true_labels.astype(np.uint8).tobytes())


def read_exact(f, size: int, path) -> bytes:
    """The next `size` bytes of binary file `f`; fewer means it is truncated."""
    chunk = f.read(size)
    if len(chunk) != size:
        raise ValueError(f"truncated file {path}: {len(chunk)} of {size} bytes "
                         f"at offset {f.tell() - len(chunk)}")
    return chunk


def read_end(f, path) -> None:
    """Raise unless binary file `f` has no bytes past what was read."""
    end = f.tell()
    if f.read(1):
        raise ValueError(f"trailing bytes in {path}: {f.seek(0, 2) - end} "
                         f"past the payload's end at offset {end}")


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        magic = f.read(len(CONTAINER_MAGIC))
        if magic != CONTAINER_MAGIC:
            raise ValueError(f"load_dataset: bad magic in {path}")
        version, flags = struct.unpack("<II", read_exact(f, 8, path))
        if version != CONTAINER_VERSION:
            raise ValueError(f"load_dataset: unsupported version {version} in {path}")
        if flags & ~1:
            raise ValueError(f"load_dataset: unknown flag bits {flags & ~1:#x} in {path}")
        n, d, c = struct.unpack("<QQQ", read_exact(f, 24, path))
        if c > MAX_CLASSES:
            raise ValueError(f"load_dataset: {c} classes in {path}; label bytes "
                             f"support at most {MAX_CLASSES}")
        features = np.frombuffer(read_exact(f, n * d * 8, path), dtype="<f8").reshape(n, d).copy()
        observed = np.frombuffer(read_exact(f, n, path), dtype=np.uint8)
        true = None
        if flags & 1:
            true = np.frombuffer(read_exact(f, n, path), dtype=np.uint8)
        read_end(f, path)
        return Dataset(features, observed, int(c), true_labels=true)


# -- splitting and standardization --------------------------------------------

def split(dataset: Dataset, test_fraction: float, rng: RngStream) -> tuple[Dataset, Dataset]:
    """Stratified train/test split on observed labels; per-class counts in the
    two halves stay within one of the exact proportion."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"split: test_fraction must be in (0, 1), got {test_fraction}")
    test_parts = []
    for c, members in enumerate(dataset.class_index):
        m = members.size
        if m < 2:
            raise ValueError(f"split: class {c} has {m} sample(s); both splits must be non-empty")
        n_test = int(round(m * test_fraction))
        n_test = min(max(n_test, 1), m - 1)
        perm = rng.child(c).permutation(m)
        test_parts.append(members[perm[:n_test]])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.zeros(dataset.n_samples, dtype=bool)
    mask[test_idx] = True
    train_idx = np.nonzero(~mask)[0]
    return take(dataset, train_idx), take(dataset, test_idx)


def take(dataset: Dataset, indices: np.ndarray) -> Dataset:
    """Row subset as a new Dataset."""
    idx = np.asarray(indices, dtype=np.int64)
    true = dataset.true_labels[idx] if dataset.true_labels is not None else None
    return Dataset(
        features=dataset.features[idx].copy(),
        observed_labels=dataset.observed_labels[idx].copy(),
        num_classes=dataset.num_classes,
        true_labels=true,
    )


def _column_sums(blocks, dim: int) -> np.ndarray:
    """Column sums of (rows, dim) blocks, with numpy's bits for the axis-0
    sum of the blocks stacked: numpy adds the rows of a C-ordered array with
    dim >= 2 one after another from 0.0, so each block is summed with the
    running total as its first row."""
    total = np.zeros(dim)
    for block in blocks:
        total = np.concatenate([total[None], block]).sum(axis=0)
    return total


def feature_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and stdev; constant dimensions get stdev 1.

    The bits of features.mean(axis=0) and features.std(axis=0), in row
    blocks of at most BUDGET elements: the sum, then the squared deviations
    from the mean, each divided by N, as numpy's mean and var do.  numpy
    sums a lone column (d = 1), or an array not in C order, pairwise rather
    than row by row, so those take numpy's own calls.
    """
    n, d = features.shape
    if d < 2 or not features.flags.c_contiguous:
        mean, std = features.mean(axis=0), features.std(axis=0)
    else:
        blocks = even_blocks(n, BUDGET // d)
        mean = _column_sums((features[b] for b in blocks), d) / n
        std = np.sqrt(_column_sums((np.square(features[b] - mean) for b in blocks), d) / n)
    return mean, np.where(std < 1e-12, 1.0, std)


def standardize(dataset: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    return Dataset(
        features=(dataset.features - mean) / std,
        observed_labels=dataset.observed_labels.copy(),
        num_classes=dataset.num_classes,
        true_labels=None if dataset.true_labels is None else dataset.true_labels.copy(),
    )
