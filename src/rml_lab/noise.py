"""Label corruption models: symmetric, pairflip, and feature-dependent flips.

Each injector maps a dataset to a new dataset with corrupted observed labels;
true labels and features are untouched and the per-class index is rebuilt.
Per-sample randomness is keyed by sample index: sample i draws from
rng.child(i), so extending a dataset never changes the fate of earlier
samples.  The children are computed in passes by the bulk kernel in
`numerics`, with the bytes each child stream gives on its own.  Every
injector draws its children one Philox pass at a time.  The
instance-dependent injector works one class at a time: the flip
probabilities per pass of child draws, and the standardized features,
transition rows and cdf in even row blocks of at most BUDGET elements per
array, so its working set stays fixed as the data grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import Dataset, feature_stats
from .numerics import (
    _PHILOX_LANES,
    BUDGET,
    RngStream,
    child_integers,
    child_random,
    even_blocks,
)

NOISE_KINDS = ("symmetric", "pairflip", "instance_dependent", "none")

INSTANCE_FLIP_STDEV = 0.1

# The central branch (|p - 0.5| <= 0.425) of AS241's normal quantile
# (Wichura, Applied Statistics 37, 1988): numerator and denominator
# coefficients, highest power of r first, as statistics.NormalDist uses them.
_AS241_NUM = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
              4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
              1.3314166789178437745e+2, 3.3871328727963666080e+0)
_AS241_DEN = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
              2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
              4.2313330701600911252e+1, 1.0)


class TrueLabelsUnavailable(ValueError):
    """Raised when an operation needs true labels a dataset does not carry."""


@dataclass
class NoiseSpec:
    kind: str
    rate: float
    rng_stream: int = 2

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"NoiseSpec: unknown kind {self.kind!r}")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"NoiseSpec: rate must be in [0, 1), got {self.rate}")
        if self.kind == "pairflip" and self.rate >= 0.5:
            raise ValueError("NoiseSpec: pairflip rate must be < 0.5")


def apply(dataset: Dataset, spec: NoiseSpec, seed: int) -> Dataset:
    """Run the injector named by `spec` with its dedicated stream."""
    rng = RngStream(seed, spec.rng_stream)
    if spec.kind == "none":
        return dataset
    if spec.kind == "symmetric":
        return inject_symmetric(dataset, spec.rate, rng)
    if spec.kind == "pairflip":
        return inject_pairflip(dataset, spec.rate, rng)
    return inject_instance_dependent(dataset, spec.rate, rng)


def inject_symmetric(dataset: Dataset, rate: float, rng: RngStream) -> Dataset:
    """Flip each label with probability `rate`, uniformly to one of the other
    c-1 classes, so the realized noise rate matches the nominal rate.
    Sample i flips when rng.child(i).random() < rate and then draws its
    target with that child's integers(0, c-1)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"inject_symmetric: rate must be in [0, 1), got {rate}")
    if dataset.num_classes < 2:
        raise ValueError("inject_symmetric: need at least 2 classes")
    c = dataset.num_classes
    labels = dataset.observed_labels.copy()
    flip = _flipped(rng, labels.size, rate)
    target = child_integers(rng, flip, c - 1, skip=1)
    labels[flip] = target + (target >= labels[flip])
    return dataset.with_observed_labels(labels)


def inject_pairflip(dataset: Dataset, rate: float, rng: RngStream) -> Dataset:
    """Flip each label with probability `rate` to the adjacent class
    (y+1 mod c); all other transitions keep zero mass.  Sample i flips when
    rng.child(i).random() < rate."""
    if not 0.0 <= rate < 0.5:
        raise ValueError(f"inject_pairflip: rate must be in [0, 0.5), got {rate}")
    c = dataset.num_classes
    labels = dataset.observed_labels.copy()
    flip = _flipped(rng, labels.size, rate)
    labels[flip] = (labels[flip] + 1) % c
    return dataset.with_observed_labels(labels)


def _flipped(rng: RngStream, n: int, rate: float) -> np.ndarray:
    """The samples i < n whose rng.child(i).random() is below `rate`, in
    order, drawn one _PHILOX_LANES pass at a time."""
    flip = np.empty(n, dtype=bool)
    for start in range(0, n, _PHILOX_LANES):
        rows = np.arange(start, min(start + _PHILOX_LANES, n))
        flip[start:start + rows.size] = child_random(rng, rows, 1)[:, 0] < rate
    return np.flatnonzero(flip)


def inject_instance_dependent(dataset: Dataset, rate: float, rng: RngStream) -> Dataset:
    """Feature-dependent corruption.

    Per-sample flip probability q_i ~ truncated normal(rate, 0.1, [0, 1]);
    flip targets follow softmax of per-class random-projection scores with
    the current class masked out, so samples that look alike get alike
    corruption.  Scores use an internally standardized feature copy, which
    makes the injector insensitive to the caller's feature scaling.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"inject_instance_dependent: rate must be in [0, 1), got {rate}")
    if dataset.num_classes < 2:
        raise ValueError("inject_instance_dependent: need at least 2 classes")
    n, d = dataset.features.shape
    c = dataset.num_classes
    mean, std = feature_stats(dataset.features)

    # Projections first, from the parent stream, so per-sample substreams
    # stay index-keyed: sample i draws (u_flip, u_target) from rng.child(i).
    proj = rng.normal(size=(c, d, c))
    new_labels = np.empty(n, dtype=np.int64)
    for label, members in enumerate(dataset.class_index):
        # One Philox pass of child draws at a time, and the (rows, c) scores
        # and cdf in even blocks of at most BUDGET elements.
        for draws in even_blocks(members.size, _PHILOX_LANES):
            rows = members[draws]
            u_flip, u_target = child_random(rng, rows, 2).T
            q = _flip_probabilities(u_flip, rate)
            for block in even_blocks(rows.size, BUDGET // max(c, d)):
                part = rows[block]
                x = (dataset.features[part] - mean) / std
                cdf = instance_flip_distribution(x, label, q[block], proj)
                np.cumsum(cdf, axis=1, out=cdf)
                cdf[:, -1] = 1.0
                new_labels[part] = (u_target[block, None] >= cdf).sum(axis=1)
    return dataset.with_observed_labels(new_labels)


def _flip_probabilities(u: np.ndarray, rate: float) -> np.ndarray:
    """Quantiles at `u` in [0, 1) of normal(rate, INSTANCE_FLIP_STDEV)
    truncated to [0, 1].

    The two tail masses come from erfc, which keeps its relative precision
    far out, and each quantile is inverted from the nearer tail: a cdf value
    near 1 would round to 1.0 and lose the tail, or raise in inv_cdf.  The
    upper half inverts p' = upper + (1 - u) * mass and negates.  AS241's
    central branch runs vectorized, with NormalDist.inv_cdf's operations in
    its order, so it gives inv_cdf's bits; the tails call inv_cdf itself.
    """
    root2 = math.sqrt(2.0)
    lower = 0.5 * math.erfc(rate / INSTANCE_FLIP_STDEV / root2)
    upper = 0.5 * math.erfc((1.0 - rate) / INSTANCE_FLIP_STDEV / root2)
    mass = 1.0 - lower - upper
    p = lower + u * mass
    upper_half = p > 0.5
    p[upper_half] = upper + (1.0 - u[upper_half]) * mass
    q = p - 0.5
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    num, den = _AS241_NUM[0], _AS241_DEN[0]
    for a, b in zip(_AS241_NUM[1:], _AS241_DEN[1:]):
        num = num * r + a
        den = den * r + b
    z = np.empty_like(p)
    z[central] = num * qc / den
    inv_cdf = NormalDist().inv_cdf
    z[~central] = [inv_cdf(pi) for pi in p[~central].tolist()]
    z[upper_half] *= -1.0
    return np.clip(rate + INSTANCE_FLIP_STDEV * z, 0.0, 1.0)


def instance_flip_distribution(x: np.ndarray, label: int, q: np.ndarray,
                               proj: np.ndarray) -> np.ndarray:
    """Label transition rows of samples of class `label`: q_i * softmax of
    the sample's class-projection scores with `label` masked out, plus
    1 - q_i staying mass.  A deterministic function of (features, label, q)."""
    scores = x @ proj[label]
    scores[:, label] = -np.inf
    # softmax with one -inf column: exp(-inf) = 0 is what we want.
    scores -= scores.max(axis=1, keepdims=True)
    expd = np.exp(scores)
    transition = expd / expd.sum(axis=1, keepdims=True)
    transition *= q[:, None]
    transition[:, label] = 1.0 - q
    return transition


def corruption_mask(dataset: Dataset) -> np.ndarray:
    """Boolean mask, true where the observed label disagrees with the truth."""
    if dataset.true_labels is None:
        raise TrueLabelsUnavailable("corruption_mask: dataset has no true labels")
    return dataset.observed_labels != dataset.true_labels


def empirical_transition_matrix(dataset: Dataset) -> np.ndarray:
    """Row-normalized c x c counts of true label -> observed label."""
    if dataset.true_labels is None:
        raise TrueLabelsUnavailable("empirical_transition_matrix: no true labels")
    c = dataset.num_classes
    counts = np.zeros((c, c))
    np.add.at(counts, (dataset.true_labels, dataset.observed_labels), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return counts / totals
