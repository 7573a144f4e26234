"""Regroup median loss estimation.

For each training sample, same-class candidates are drawn (without
replacement) with probability proportional to exp(-processed loss), where the
processed loss l*(l+eps) widens the gap between small and large losses.  The
drawn losses are regrouped at random into n disjoint groups of k; the sample's
loss estimate is the median of the n group means together with the sample's
own loss.  Because the median of n+1 values tolerates up to ceil((n+1)/2)-1
corrupted entries, a handful of mislabeled candidates cannot drag the
estimate.

Loss bookkeeping follows the epoch cache discipline: plain losses and
estimates are recomputed once per epoch, from the refresh's own full forward
pass.  Inside an epoch the frozen cache is carried to each SGD step's plain
losses by the scale l_new * (estimate/plain), clamped to l_new; the step's
single forward pass supplies l_new, so weighting costs no extra forward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as model_ops
from .data import Dataset
from .numerics import (
    LOSS_FLOOR,
    RngStream,
    _race_draw,
    child_generator_pool,
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
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"RegroupParams: n must be a positive even integer, got {self.n}")
        if self.k < 1:
            raise ValueError(f"RegroupParams: k must be >= 1, got {self.k}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"RegroupParams: unknown estimator {self.estimator!r}")


@dataclass
class GroupMeans:
    assignments: np.ndarray   # (n, k) indices into the selected-loss vector
    means: np.ndarray         # (n,)


@dataclass
class LossCache:
    """Per-sample plain loss and regroup-median estimate for one epoch."""

    loss: np.ndarray
    loss_rml: np.ndarray
    epoch: int


def empty_cache(n_samples: int) -> LossCache:
    return LossCache(np.zeros(n_samples), np.zeros(n_samples), epoch=-1)


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


def probability_shift(losses, epsilon_bias: float = 1.0) -> tuple[np.ndarray, float]:
    """Per-sample log-probability change caused by loss processing, with the
    pool constant beta = log(sum exp(-l) / sum exp(-processed)).

    The change equals l*(l + eps - 1) - beta; with eps = 1 it is l^2 - beta,
    so exactly the samples with l^2 > beta lose selection probability.
    Both probabilities are evaluated in log space.
    """
    l = np.asarray(losses, dtype=np.float64)
    proc = processed_loss(l, epsilon_bias)
    shift = log_softmax(-l) - log_softmax(-proc)
    beta = logsumexp(-l) - logsumexp(-proc)
    return shift, float(beta)


def regroup_median(sample_loss: float, selected_losses, params: RegroupParams,
                   rng: RngStream) -> tuple[float, GroupMeans]:
    """Median of the n random-group means and the sample's own loss.

    The n+1 candidate count is odd, so the median is the exact middle order
    statistic.  With estimator="mean" the plain mean of the selected losses
    is returned instead (the grouping is still reported).
    """
    selected = np.asarray(selected_losses, dtype=np.float64)
    if selected.shape != (params.n * params.k,):
        raise ValueError(
            f"regroup_median: expected {params.n * params.k} selected losses, "
            f"got {selected.shape}"
        )
    assignments = rng.permutation(selected.size).reshape(params.n, params.k)
    means = selected[assignments].mean(axis=1)
    groups = GroupMeans(assignments=assignments, means=means)
    if params.estimator == "mean":
        return float(selected.mean()), groups
    # n+1 values, odd count: the middle order statistic via partition
    # (same element np.median would pick, without its reduction overhead).
    pool = np.append(means, sample_loss)
    mid = pool.size // 2
    return float(np.partition(pool, mid)[mid]), groups


def _class_selection_weights(class_losses: np.ndarray, params: RegroupParams) -> np.ndarray:
    """Selection weights over one class pool (the race sampler only needs
    them up to a constant, so the full-pool softmax serves every member)."""
    if params.use_processed_loss:
        return softmax(-processed_loss(class_losses, params.epsilon_bias))
    return softmax(-class_losses)


def batch_weights(cache: LossCache, batch_indices: np.ndarray,
                  fresh_losses: np.ndarray) -> np.ndarray:
    """Per-sample weights w_i so the weighted batch mean (1/B) sum w_i*l_i
    equals the mean of the propagated estimates, clamped to the fresh losses
    (the clip's upper bound is that clamp)."""
    idx = np.asarray(batch_indices, dtype=np.int64)
    fresh = np.asarray(fresh_losses, dtype=np.float64)
    propagated = fresh * cache.loss_rml[idx] / np.maximum(cache.loss[idx], LOSS_FLOOR)
    return np.clip(propagated / np.maximum(fresh, LOSS_FLOOR), 0.0, 1.0)


def regroup_estimates(losses: np.ndarray, dataset: Dataset, params: RegroupParams,
                      rng: RngStream) -> np.ndarray:
    """Corrected regroup-median estimate of every sample from plain losses.

    Candidates are the sample's class peers, the sample itself excluded so it
    cannot vote for its own loss.  When the positive-weight pool cannot fill
    n groups of k, k shrinks; when it cannot fill n groups of one (a
    singleton class included), the estimate is the sample's own loss.  Every
    estimate is clamped to the plain loss.  Sample i draws only from
    `rng.child(i)`, so the result does not depend on the visiting order.
    """
    losses = np.asarray(losses, dtype=np.float64)
    estimates = losses.copy()
    # Re-keyed generator pool: bit-identical to rng.child(i) but without a
    # fresh BitGenerator object per sample.
    fetch = child_generator_pool(rng)
    for members in dataset.class_index:
        if members.size <= 1:
            continue
        class_losses = losses[members]
        base_weights = _class_selection_weights(class_losses, params)
        for pos in range(members.size):
            weights = base_weights.copy()
            weights[pos] = 0.0
            available = int(np.count_nonzero(weights > 0))
            k = params.k if params.n * params.k <= available else available // params.n
            if k == 0:
                continue
            own = float(class_losses[pos])
            gen = fetch(int(members[pos]))
            # weights come from a softmax and n * k <= available, so the race
            # core can skip re-validation.
            draw = _race_draw(weights, params.n * k, gen)
            local = params if k == params.k else replace(params, k=k)
            estimate, _ = regroup_median(own, class_losses[draw], local, gen)
            estimates[members[pos]] = min(estimate, own)
    return estimates


def refresh_cache(cache: LossCache, dataset: Dataset, model: "model_ops.ModelState",
                  params: RegroupParams, rng: RngStream) -> LossCache:
    """End-of-epoch rebuild: one full forward pass records plain losses, then
    every sample gets a fresh corrected regroup-median estimate.

    The new cache's epoch is the refresh index, cache.epoch + 1; sample i
    draws from rng.child(refresh index).child(i), so the rebuild is
    reproducible and could run in any order.
    """
    probs = model_ops.forward(model, dataset.features)
    fresh = model_ops.per_sample_ce(probs, dataset.observed_labels)
    epoch = cache.epoch + 1
    return LossCache(fresh, regroup_estimates(fresh, dataset, params, rng.child(epoch)),
                     epoch)


def dump_cache(cache: LossCache, dataset: Dataset, path) -> None:
    """Diagnostic CSV: sample_id, labels, plain/estimated loss, corruption."""
    has_truth = dataset.true_labels is not None
    with open(path, "w", newline="") as f:
        f.write("sample_id,true_label,observed_label,loss_plain,loss_rml,is_corrupted\n")
        for i in range(dataset.n_samples):
            true = str(int(dataset.true_labels[i])) if has_truth else ""
            corrupted = (
                str(int(dataset.true_labels[i] != dataset.observed_labels[i]))
                if has_truth else ""
            )
            f.write(
                f"{i},{true},{int(dataset.observed_labels[i])},"
                f"{float(cache.loss[i])!r},{float(cache.loss_rml[i])!r},{corrupted}\n"
            )
