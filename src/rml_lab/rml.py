"""Regroup median loss estimation.

For each training sample, same-class candidates are drawn (without
replacement) with probability proportional to exp(-processed loss), where the
processed loss l*(l+eps) widens the gap between small and large losses.  The
drawn losses are regrouped at random into n disjoint groups of k; the sample's
loss estimate is the median of the n group means together with the sample's
own loss.  Because the median of n+1 values tolerates up to ceil((n+1)/2)-1
corrupted entries, a handful of mislabeled candidates cannot drag the
estimate.

The selection rule lives here alone: the refresh draws by
`selection_by_class`, and the training metrics and verify's cor1 report it.
`probability_shift` (Proposition 1) takes one pool or rows of pools.

Loss bookkeeping follows the epoch cache discipline: plain losses and
estimates are recomputed once per epoch, from the refresh's own full forward
pass; each class's estimates take a race draw and a `regroup_median` call
per chunk of rows (at most BUDGET elements per array), drawn from two keyed
streams of the class.  The cache is plain data, the two loss arrays: the
caller numbers its refreshes, and refresh `index` draws from
`rng.child(index)`.  Inside an epoch each sample's weight is fixed by the
refresh: estimate/plain, clipped to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as model_ops
from .data import Dataset
from .numerics import (
    BUDGET,
    LOSS_FLOOR,
    RACE_MIN_WEIGHT,
    RngStream,
    _race_draw,
    log_softmax,
    logsumexp,
    softmax,
)

ESTIMATORS = ("median", "mean")


@dataclass
class RegroupParams:
    """Group count n (even), group size k, and the processing bias eps.

    use_processed_loss / estimator exist for ablations: plain-loss selection
    (no processing) and plain-mean estimation (no median).
    """

    n: int = 6
    k: int = 20
    epsilon_bias: float = 1.0
    use_processed_loss: bool = True
    estimator: str = "median"

    def __post_init__(self):
        for holds, rule in ((self.n >= 2 and self.n % 2 == 0, "n must be a positive even integer"),
                            (self.k >= 1, "k must be >= 1"),
                            (self.epsilon_bias >= 0.0, "epsilon_bias must be >= 0"),
                            (self.estimator in ESTIMATORS, f"estimator must be in {ESTIMATORS}")):
            if not holds:
                raise ValueError(f"RegroupParams: {rule}, got {self}")


@dataclass
class LossCache:
    """Per-sample plain loss and regroup-median estimate for one epoch."""

    loss: np.ndarray
    loss_rml: np.ndarray


def processed_loss(losses: np.ndarray, epsilon_bias: float) -> np.ndarray:
    """l * (l + eps): grows superlinearly, so large losses lose far more
    selection mass than small ones gain."""
    return losses * (losses + epsilon_bias)


def selection_probabilities(losses, epsilon_bias: float = 1.0) -> np.ndarray:
    """Selection distribution exp(-processed)/sum over one candidate pool."""
    l = np.asarray(losses, dtype=np.float64)
    if l.size < 1:
        raise ValueError("selection_probabilities: empty loss vector")
    if np.any(l < 0) or not np.all(np.isfinite(l)):
        raise ValueError("selection_probabilities: losses must be finite and >= 0")
    return softmax(-processed_loss(l, epsilon_bias))


def selection_by_class(dataset: Dataset, losses: np.ndarray, epsilon_bias: float = 1.0,
                       processed: bool = True) -> np.ndarray:
    """Every sample's selection probability within its class:
    `selection_probabilities` over the class's losses, or softmax(-l) with
    processed=False (the no-processing ablation)."""
    losses = np.asarray(losses, dtype=np.float64)
    out = np.empty(losses.size)
    for members in dataset.class_index:
        if members.size:
            pool = losses[members]
            out[members] = (selection_probabilities(pool, epsilon_bias) if processed
                            else softmax(-pool))
    return out


def probability_shift(losses, epsilon_bias: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample log-probability change caused by loss processing, with the
    pool constant beta = log(sum exp(-l) / sum exp(-processed)).

    The change equals l*(l + eps - 1) - beta; with eps = 1 it is l^2 - beta,
    so exactly the samples with l^2 > beta lose selection probability.
    Both probabilities are evaluated in log space.  Rows of pools, (rows, m),
    give (rows, m) shifts and (rows,) betas; one pool gets an np.float64 beta.
    """
    l = np.asarray(losses, dtype=np.float64)
    proc = processed_loss(l, epsilon_bias)
    return log_softmax(-l) - log_softmax(-proc), logsumexp(-l) - logsumexp(-proc)


def regroup_median(own: np.ndarray, selected: np.ndarray, params: RegroupParams,
                   perm: np.ndarray) -> np.ndarray:
    """Per row, the median of n group means and the row's own loss
    (median-of-means; Lugosi & Mendelson, FoCM 2019).

    own is (rows,); selected and perm are (rows, n*k).  Group g of row r
    holds selected[r, perm[r, g*k:(g+1)*k]], perm being the caller's random
    permutation.  With estimator="mean" each row's plain mean is returned.
    """
    n, k = params.n, params.k
    rows = own.size
    if own.shape != (rows,) or selected.shape != (rows, n * k) or perm.shape != selected.shape:
        raise ValueError(f"regroup_median: expected own ({rows},), selected and perm "
                         f"({rows}, {n * k}); got {own.shape}, {selected.shape}, {perm.shape}")
    if params.estimator == "mean":
        return selected.mean(axis=1)
    row_offsets = np.arange(0, selected.size, n * k)[:, None]
    means = selected.ravel()[perm + row_offsets].reshape(rows, n, k).mean(axis=2)
    # n+1 values, odd count: the exact middle order statistic, by partition.
    pool = np.concatenate([means, own[:, None]], axis=1)
    return np.partition(pool, n // 2, axis=1)[:, n // 2]


def batch_weights(cache: LossCache, batch_indices: np.ndarray) -> np.ndarray:
    """Per-sample weights w_i = estimate_i / plain_i, clipped to [0, 1], so
    w_i * plain_i is the sample's estimate (the clip's upper bound is the
    clamp to the plain loss)."""
    idx = np.asarray(batch_indices, dtype=np.int64)
    return np.clip(cache.loss_rml[idx] / np.maximum(cache.loss[idx], LOSS_FLOOR), 0.0, 1.0)


def regroup_estimates(losses: np.ndarray, dataset: Dataset, params: RegroupParams,
                      rng: RngStream) -> np.ndarray:
    """Corrected regroup-median estimate of every sample from plain losses.

    Candidates are the sample's class peers with a selection weight of at
    least RACE_MIN_WEIGHT, so that every candidate's race key is finite; the
    sample itself is excluded so it cannot vote for its own loss.  When the
    candidates cannot fill n groups of k, k shrinks; when they cannot fill n
    groups of one (a singleton class included), the estimate is the sample's
    own loss.  Every estimate is clamped to the plain loss.  Class c of
    `dataset.class_index` draws race uniforms from rng.child(2c) and regroup
    keys from rng.child(2c + 1), in row order (k ascending, then sample), so
    neither chunking nor another class's losses change its draws.
    """
    losses = np.asarray(losses, dtype=np.float64)
    estimates = losses.copy()
    # The race needs weights only up to a constant: the class softmax will do.
    selection = selection_by_class(dataset, losses, params.epsilon_bias,
                                   params.use_processed_loss)
    n = params.n
    for c, members in enumerate(dataset.class_index):
        m = members.size
        if m <= 1:
            continue
        race, regroup = rng.child(2 * c).generator, rng.child(2 * c + 1).generator
        class_losses = losses[members]
        weights = selection[members]
        available = weights >= RACE_MIN_WEIGHT
        # A row's pool is the class's available weights less its own, so a
        # class has at most two k values; rows with k = 0 keep their loss.
        row_k = np.minimum(params.k, (np.count_nonzero(available) - available) // n)
        step = max(1, BUDGET // m)
        for k in np.unique(row_k[row_k > 0]).tolist():
            group = np.flatnonzero(row_k == k)
            k_params = replace(params, k=k)
            for start in range(0, group.size, step):
                rows = group[start:start + step]
                u = race.random((rows.size, m))
                perm = np.argsort(regroup.random((rows.size, n * k)), axis=1)
                # A zero uniform gives the row's own column an infinite key.
                u[np.arange(rows.size), rows] = 0.0
                draw = _race_draw(u, weights[None, :], n * k)
                own = class_losses[rows]
                estimate = regroup_median(own, class_losses[draw], k_params, perm)
                estimates[members[rows]] = np.minimum(estimate, own)
    return estimates


def refresh_cache(index: int, dataset: Dataset, model: "model_ops.ModelState",
                  params: RegroupParams, rng: RngStream) -> LossCache:
    """End-of-epoch rebuild: one full forward pass records plain losses, then
    every sample gets a fresh corrected regroup-median estimate.

    `index` numbers the refresh; it draws from rng.child(index), one pair
    of streams per class (see `regroup_estimates`), so the rebuild is
    reproducible and its classes could run in any order.
    """
    probs = model_ops.forward(model, dataset.features)
    fresh = model_ops.per_sample_ce(probs, dataset.observed_labels)
    return LossCache(fresh, regroup_estimates(fresh, dataset, params, rng.child(index)))
