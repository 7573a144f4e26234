"""Training: one epoch loop (`_train`) with three modes, and one epoch
function (`_epoch`) that makes every SGD step.  `ce` is plain cross-entropy;
`rml` weights each batch by the regroup-median loss cache after a CE warmup;
`rml_semi` runs as `rml` up to common_epochs, then filters samples by
teacher/student agreement and trains the unlabeled ones on the teacher's
predicted class.  train_ce, train_rml and train_rml_semi are the entry
points, one per mode.

The loop is deterministic under RunConfig.seed: batch shuffles and the
semi-phase orderings run on derived streams keyed by epoch, cache refreshes
on streams keyed by refresh number and class, so a rerun reproduces
metrics bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import model as model_ops
from . import rml
from .data import Dataset
from .model import ModelState, OptimizerState
from .noise import corruption_mask
from .numerics import RngStream

MODES = ("ce", "rml", "rml_semi")

# Stream ids: one per logical sampling site.
STREAM_SHUFFLE = 11
STREAM_REFRESH = 12
STREAM_SEMI = 13


@dataclass
class RunConfig:
    mode: str = "rml"
    total_epochs: int = 100
    batch_size: int = 128
    warmup_epochs: int = 5
    common_epochs: int | None = None     # semi-supervised switch point; None = all common
    regroup: rml.RegroupParams = field(default_factory=rml.RegroupParams)
    ema_lambda: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"RunConfig: unknown mode {self.mode!r}")
        if self.batch_size < 1:
            raise ValueError("RunConfig: batch_size must be >= 1")
        if self.common_epochs is None:
            self.common_epochs = self.total_epochs
        if self.common_epochs > self.total_epochs:
            raise ValueError("RunConfig: common_epochs must not exceed total_epochs")
        if self.mode != "ce" and self.warmup_epochs < 1:
            raise ValueError("RunConfig: rml modes need warmup_epochs >= 1")
        if self.mode == "rml_semi" and self.common_epochs < self.warmup_epochs:
            raise ValueError("RunConfig: common_epochs must cover the warmup")
        if not 0.0 <= self.ema_lambda <= 1.0:
            raise ValueError("RunConfig: ema_lambda must be in [0, 1]")


@dataclass
class MetricsRow:
    epoch: int
    train_loss: float
    test_accuracy: float
    clean_mean_loss: float
    noisy_mean_loss: float
    clean_mean_selection_prob: float
    noisy_mean_selection_prob: float
    labeled_fraction: float


METRICS_COLUMNS = list(MetricsRow.__dataclass_fields__)


def _epoch_metrics(epoch: int, train_loss: float, dataset: Dataset, losses: np.ndarray,
                   test: Dataset | None, model: ModelState,
                   epsilon_bias: float, labeled_fraction: float) -> MetricsRow:
    """One metrics row for the post-epoch model, from the plain training-set
    losses the caller computed; only the test set is forwarded here."""
    # Held-out evaluation is against the truth when the split retains it, so
    # a noisy test half cannot cap the reported accuracy.
    test_acc = float("nan")
    if test is not None:
        test_acc = model_ops.accuracy(model, test,
                                      against_true=test.true_labels is not None)
    clean_loss = noisy_loss = clean_p = noisy_p = float("nan")
    if dataset.true_labels is not None:
        mask = corruption_mask(dataset)
        sel = rml.selection_by_class(dataset, losses, epsilon_bias)
        if (~mask).any():
            clean_loss = float(losses[~mask].mean())
            clean_p = float(sel[~mask].mean())
        if mask.any():
            noisy_loss = float(losses[mask].mean())
            noisy_p = float(sel[mask].mean())
    return MetricsRow(epoch, float(train_loss), float(test_acc), clean_loss,
                      noisy_loss, clean_p, noisy_p, float(labeled_fraction))


def _epoch(dataset: Dataset, model: ModelState, teacher: ModelState | None,
           opt: OptimizerState, config: RunConfig, epoch: int, rows: np.ndarray,
           cache: rml.LossCache | None = None, pool: np.ndarray | None = None) -> float:
    """One pass over shuffled mini-batches of `rows`: every SGD step of every
    mode.  Returns the mean optimized batch loss.

    With a cache, each batch is weighted by `rml.batch_weights`, fixed at
    the refresh.  A semi epoch passes the unlabeled `pool` (cache None):
    each batch of observed labels gets as many partners, cycled through the
    shuffled pool and labeled with the teacher's current argmax prediction.
    The shuffles come from the phase's stream, keyed by epoch.
    """
    stream_id = STREAM_SHUFFLE if pool is None else STREAM_SEMI
    stream = RngStream(config.seed, stream_id).child(epoch)
    order = rows[stream.permutation(rows.size)]
    cycle = rows[:0] if pool is None else pool[stream.permutation(pool.size)]
    total, count = 0.0, 0
    for pos in range(0, order.size, config.batch_size):
        batch = order[pos:pos + config.batch_size]
        y = dataset.observed_labels[batch]
        weights = None if cache is None else rml.batch_weights(cache, batch)
        if cycle.size:
            partner = cycle[(pos + np.arange(batch.size)) % cycle.size]
            guess = model_ops.forward(teacher, dataset.features[partner]).argmax(axis=1)
            batch = np.concatenate([batch, partner])
            y = np.concatenate([y, guess])
        losses, grads = model_ops.loss_and_grad(model, dataset.features[batch], y, weights)
        total += float(losses.mean())
        model_ops.sgd_step(model, opt, grads, epoch)
        if teacher is not None:
            model_ops.ema_update(teacher, model, config.ema_lambda)
        count += 1
    return total / max(count, 1)


def separate(dataset: Dataset, student_probs: np.ndarray, teacher: ModelState):
    """Samples whose student AND teacher predictions match the observed label
    are kept as labeled; the rest become the unlabeled pool.  `student_probs`
    is the student's forward over `dataset`, which the caller already holds."""
    student_pred = student_probs.argmax(axis=1)
    teacher_pred = model_ops.forward(teacher, dataset.features).argmax(axis=1)
    agree = (student_pred == dataset.observed_labels) & (teacher_pred == dataset.observed_labels)
    idx = np.arange(dataset.n_samples)
    return idx[agree], idx[~agree]


def _train(mode: str, dataset: Dataset, model: ModelState, teacher: ModelState | None,
           opt: OptimizerState, config: RunConfig, test: Dataset | None) -> list[MetricsRow]:
    """The epoch loop behind the entry points; `mode` must be config.mode.

    After the warmup, a weighted epoch reads the cache refreshed after the
    previous epoch.  A semi epoch reads it only when the agreement split
    labels nothing, so refreshes stop before the semi phase and that
    fallback refreshes on demand, keyed as the skipped end-of-epoch refresh.
    The refresh after epoch e is number e + 1 - warmup_epochs.  `ce` runs
    without a teacher: no EMA and no cache.  The post-epoch model is
    forwarded over the training set once: by the refresh when there is one,
    else here, for the metrics and the next epoch's agreement split.
    """
    if config.mode != mode:
        raise ValueError(f"train_{mode}: config.mode is {config.mode!r}, not {mode!r}")
    refresh_stream = RngStream(config.seed, STREAM_REFRESH)
    everyone = np.arange(dataset.n_samples)
    cache = None
    # First semi epoch; `rml` never reaches it, so it keeps the refresh after
    # its last epoch.
    semi_from = config.common_epochs if mode == "rml_semi" else config.total_epochs + 1
    rows = []
    probs = None   # the post-epoch training-set forward, when not a refresh's
    for epoch in range(config.total_epochs):
        labeled_fraction = float("nan")
        if epoch >= semi_from:
            # No refresh ran after epoch - 1, so `probs` is this model's.
            labeled, unlabeled = separate(dataset, probs, teacher)
            labeled_fraction = labeled.size / dataset.n_samples
            if labeled.size:
                train_loss = _epoch(dataset, model, teacher, opt, config, epoch, labeled,
                                    pool=unlabeled)
            else:
                # Nothing labeled: a weighted epoch, from the refresh skipped
                # after epoch - 1 (the model has not moved since).
                cache = rml.refresh_cache(epoch - config.warmup_epochs, dataset, model,
                                          config.regroup, refresh_stream)
                train_loss = _epoch(dataset, model, teacher, opt, config, epoch, everyone,
                                    cache)
        else:
            train_loss = _epoch(dataset, model, teacher, opt, config, epoch, everyone, cache)
        if teacher is not None and config.warmup_epochs <= epoch + 1 < semi_from:
            cache = rml.refresh_cache(epoch + 1 - config.warmup_epochs, dataset, model,
                                      config.regroup, refresh_stream)
            losses, probs = cache.loss, None
        else:
            probs = model_ops.forward(model, dataset.features)
            losses = model_ops.per_sample_ce(probs, dataset.observed_labels)
        rows.append(_epoch_metrics(epoch, train_loss, dataset, losses, test, model,
                                   config.regroup.epsilon_bias, labeled_fraction))
    return rows


def train_ce(dataset: Dataset, model: ModelState, opt: OptimizerState,
             config: RunConfig, test: Dataset | None = None):
    """Plain cross-entropy baseline."""
    return model, _train("ce", dataset, model, None, opt, config, test)


def train_rml(dataset: Dataset, model: ModelState, teacher: ModelState,
              opt: OptimizerState, config: RunConfig, test: Dataset | None = None):
    """Warmup on plain CE to populate the loss cache, then weighted batches
    from the frozen cache with an end-of-epoch cache rebuild."""
    return model, teacher, _train("rml", dataset, model, teacher, opt, config, test)


def train_rml_semi(dataset: Dataset, model: ModelState, teacher: ModelState,
                   opt: OptimizerState, config: RunConfig, test: Dataset | None = None):
    """Common training up to common_epochs; after that, each epoch separates
    the samples by student/teacher agreement and trains on the labeled set
    plus teacher-labeled unlabeled partners (see _epoch)."""
    return model, teacher, _train("rml_semi", dataset, model, teacher, opt, config, test)


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    """One row per epoch; floats via repr so reruns are byte-identical."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow([row.epoch, *(repr(float(getattr(row, c)))
                                          for c in METRICS_COLUMNS[1:])])
