"""Training: one epoch loop (`_train`) with three modes.  `ce` is plain
cross-entropy; `rml` weights each batch by the regroup-median loss cache
after a CE warmup; `rml_semi` runs as `rml` up to common_epochs, then filters
samples by teacher/student agreement and trains the unlabeled ones on the
teacher's predicted class.  train_ce, train_rml and train_rml_semi are the
entry points, one per mode.

The loop is deterministic under RunConfig.seed: batch shuffles and the
semi-phase orderings run on derived streams keyed by epoch, cache refreshes
on streams keyed by refresh index and sample, so a rerun reproduces metrics
bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, replace
from functools import partial

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


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, order.size, batch_size):
        yield order[start:start + batch_size]


def _weighted_epoch(dataset: Dataset, model: ModelState, teacher: ModelState | None,
                    opt: OptimizerState, config: RunConfig, epoch: int,
                    cache: rml.LossCache | None) -> float:
    """One pass over shuffled mini-batches; cache=None means plain CE.

    Returns the mean optimized batch loss.  Each step makes one forward pass:
    with a cache, `rml.batch_weights` carries its estimates to that pass's
    plain losses.
    """
    shuffle = RngStream(config.seed, STREAM_SHUFFLE).child(epoch)
    order = shuffle.permutation(dataset.n_samples)
    total, count = 0.0, 0
    for batch in _batches(order, config.batch_size):
        weigh = None if cache is None else partial(rml.batch_weights, cache, batch)
        losses, grads = model_ops.loss_and_grad(model, dataset.features[batch],
                                                dataset.observed_labels[batch], weigh)
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


def _semi_epoch(dataset: Dataset, model: ModelState, teacher: ModelState,
                opt: OptimizerState, config: RunConfig, epoch: int,
                labeled: np.ndarray, unlabeled: np.ndarray) -> float:
    """One pass over shuffled labeled batches; returns the mean batch loss.

    Each step is plain CE on the labeled batch with its observed labels plus
    an equal number of unlabeled partners, cycled through a shuffled pool and
    labeled with the teacher's current argmax prediction.
    """
    ep_stream = RngStream(config.seed, STREAM_SEMI).child(epoch)
    order = ep_stream.permutation(labeled.size)
    if unlabeled.size:
        cycle = unlabeled[ep_stream.permutation(unlabeled.size)]
    total, count = 0.0, 0
    for pos in range(0, labeled.size, config.batch_size):
        batch = labeled[order[pos:pos + config.batch_size]]
        y = dataset.observed_labels[batch]
        if unlabeled.size:
            partner = cycle[(pos + np.arange(batch.size)) % unlabeled.size]
            guess = model_ops.forward(teacher, dataset.features[partner]).argmax(axis=1)
            batch = np.concatenate([batch, partner])
            y = np.concatenate([y, guess])
        losses, grads = model_ops.loss_and_grad(model, dataset.features[batch], y)
        model_ops.sgd_step(model, opt, grads, epoch)
        model_ops.ema_update(teacher, model, config.ema_lambda)
        total += float(losses.mean())
        count += 1
    return total / max(count, 1)


def _train(mode: str, dataset: Dataset, model: ModelState, teacher: ModelState | None,
           opt: OptimizerState, config: RunConfig, test: Dataset | None) -> list[MetricsRow]:
    """The epoch loop behind the entry points; `mode` must be config.mode.

    After the warmup, a weighted epoch reads the cache refreshed after the
    previous epoch.  A semi epoch reads it only when the agreement split
    labels nothing, so refreshes stop before the semi phase and that
    fallback refreshes on demand, keyed as the skipped end-of-epoch refresh.
    `ce` runs without a teacher: no EMA and no cache.  The post-epoch model
    is forwarded over the training set once: by the refresh when there is
    one, else here, for the metrics and the next epoch's agreement split.
    """
    if config.mode != mode:
        raise ValueError(f"train_{mode}: config.mode is {config.mode!r}, not {mode!r}")
    refresh_stream = RngStream(config.seed, STREAM_REFRESH)
    cache = rml.empty_cache(dataset.n_samples)
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
                train_loss = _semi_epoch(dataset, model, teacher, opt, config, epoch,
                                         labeled, unlabeled)
            else:
                # Nothing labeled: a weighted epoch, from the refresh skipped
                # after epoch - 1 (the model has not moved since).
                skipped = replace(cache, epoch=epoch - config.warmup_epochs - 1)
                cache = rml.refresh_cache(skipped, dataset, model, config.regroup,
                                          refresh_stream)
                train_loss = _weighted_epoch(dataset, model, teacher, opt, config,
                                             epoch, cache)
        else:
            active = cache if teacher is not None and epoch >= config.warmup_epochs else None
            train_loss = _weighted_epoch(dataset, model, teacher, opt, config, epoch, active)
        if teacher is not None and config.warmup_epochs <= epoch + 1 < semi_from:
            cache = rml.refresh_cache(cache, dataset, model, config.regroup, refresh_stream)
            losses = cache.loss
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
    plus teacher-labeled unlabeled partners (see _semi_epoch)."""
    return model, teacher, _train("rml_semi", dataset, model, teacher, opt, config, test)


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    """One row per epoch; floats via repr so reruns are byte-identical."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            record = asdict(row)
            writer.writerow([
                record["epoch"],
                *(repr(float(record[c])) for c in METRICS_COLUMNS[1:]),
            ])
