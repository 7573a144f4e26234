"""Small differentiable classifiers with hand-written gradients.

Two architectures: plain softmax regression and a one-hidden-layer tanh MLP
(tanh keeps finite-difference gradient checks clean).  The optimizer is SGD
with momentum, decoupled-into-gradient weight decay, and a cosine-annealed
learning rate.  A momentum teacher is maintained by exponential moving
average of the student parameters.  Each pass owns one (rows, hidden) buffer;
bias, tanh and tanh' are written into it in place, never into inputs or params.
A training step's rows are its batch; `forward` takes a whole data set in
row blocks of at most FORWARD_BLOCK buffer elements, so its working set stays
fixed however many rows it is given.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, read_end, read_exact
from .numerics import LOSS_FLOOR, RngStream, even_blocks, softmax

CHECKPOINT_MAGIC = b"RMLCKPT\x01"

_ARCH_TAGS = {"linear": 0, "mlp": 1}
_TAG_ARCHS = {v: k for k, v in _ARCH_TAGS.items()}
# Elements of a forward block's (rows, hidden) buffer, at most 2 MB of
# float64: 1 024 rows at hidden 256.  Blocks of a few hundred rows can reach
# OpenBLAS's small-matrix GEMM kernel, whose rounding differs from the kernel
# a whole data set gets, so do not shrink it to save memory.
FORWARD_BLOCK = 1 << 18


class NumericalFailure(RuntimeError):
    """Non-finite loss; carries the index of the offending sample."""

    def __init__(self, message: str, sample_index: int):
        super().__init__(message)
        self.sample_index = sample_index


@dataclass
class ModelState:
    arch: str                       # "linear" | "mlp"
    params: list[np.ndarray]
    dim: int
    num_classes: int
    hidden: int = 0

    def copy(self) -> "ModelState":
        return ModelState(self.arch, [p.copy() for p in self.params],
                          self.dim, self.num_classes, self.hidden)


@dataclass
class OptimizerState:
    lr_init: float
    lr_min: float
    momentum: float
    weight_decay: float
    total_epochs: int
    velocity: list[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        for holds, rule in ((0.0 <= self.momentum < 1.0, "momentum must be in [0, 1)"),
                            (self.lr_init > 0.0, "lr_init must be > 0"),
                            (0.0 <= self.lr_min <= self.lr_init, "lr_min must be in [0, lr_init]"),
                            (self.weight_decay >= 0.0, "weight_decay must be >= 0")):
            if not holds:
                raise ValueError(f"OptimizerState: {rule}")


def init_model(arch: str, dim: int, num_classes: int, rng: RngStream,
               hidden: int = 0) -> ModelState:
    """Weights ~ normal(0, 1/sqrt(fan_in)), biases zero."""
    if arch == "linear":
        params = [rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, num_classes)),
                  np.zeros(num_classes)]
        return ModelState("linear", params, dim, num_classes)
    if arch == "mlp":
        if hidden < 1:
            raise ValueError("init_model: mlp needs hidden >= 1")
        params = [rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden)),
                  np.zeros(hidden),
                  rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, num_classes)),
                  np.zeros(num_classes)]
        return ModelState("mlp", params, dim, num_classes, hidden)
    raise ValueError(f"init_model: unknown architecture {arch!r}")


def init_optimizer(model: ModelState, lr_init: float, total_epochs: int,
                   lr_min: float = 1e-4, momentum: float = 0.9,
                   weight_decay: float = 5e-4) -> OptimizerState:
    return OptimizerState(lr_init, lr_min, momentum, weight_decay, total_epochs,
                          [np.zeros_like(p) for p in model.params])


def cosine_lr(opt: OptimizerState, epoch: int) -> float:
    """Anneal from lr_init (epoch 0) to lr_min (epoch total_epochs)."""
    if opt.total_epochs <= 0:
        return opt.lr_init
    t = min(max(epoch, 0), opt.total_epochs) / opt.total_epochs
    return opt.lr_min + 0.5 * (opt.lr_init - opt.lr_min) * (1.0 + np.cos(np.pi * t))


def _features(model: ModelState, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise ValueError(f"forward: expected (batch, {model.dim}) features, got {x.shape}")
    return x


def _logits_parts(model: ModelState, features: np.ndarray):
    """Logits plus the hidden activation needed for the backward pass, the
    pass's one buffer: bias and tanh go in place; x and params are only read."""
    x = _features(model, features)
    if model.arch == "linear":
        w, b = model.params
        logits = x @ w
        logits += b
        return logits, None
    w1, b1, w2, b2 = model.params
    h = x @ w1
    h += b1
    np.tanh(h, out=h)
    logits = h @ w2
    logits += b2
    return logits, h


def forward(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Class probability rows, one per input row, computed in even blocks
    of at most FORWARD_BLOCK // width rows (width: hidden, or the class count
    of the linear model).  Rows are independent, and no block is a small
    tail that could take a GEMM kernel which rounds differently."""
    x = _features(model, features)
    rows = x.shape[0]
    width = model.hidden if model.arch == "mlp" else model.num_classes
    probs = np.empty((rows, model.num_classes))
    for block in even_blocks(rows, FORWARD_BLOCK // width):
        probs[block] = softmax(_logits_parts(model, x[block])[0], axis=1)
    return probs


def per_sample_ce(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Floored cross-entropy per row; never negative, never infinite."""
    bad = (labels < 0) | (labels >= probs.shape[1])
    if bad.any():
        raise ValueError(f"per_sample_ce: label {int(labels[bad][0])} is outside "
                         f"[0, {probs.shape[1]})")
    picked = probs[np.arange(labels.shape[0]), labels]
    return np.maximum(0.0, -np.log(picked + LOSS_FLOOR))


def loss_and_grad(model: ModelState, features: np.ndarray, labels: np.ndarray,
                  weights: np.ndarray | None = None):
    """One forward and backward pass over a batch.

    `weights` are the per-sample constants w_i, shape (batch,), finite and
    >= 0 (None means w_i = 1).  Returns the weighted per-sample losses
    w_i * ce_i and the gradient of their batch mean.
    tanh' = 1 - h^2 overwrites the forward's buffer h once h.T @ dlogits is taken.
    """
    labels = np.asarray(labels, dtype=np.int64)
    batch = labels.shape[0]
    weights = np.ones(batch) if weights is None else np.asarray(weights, dtype=np.float64)
    if weights.shape != (batch,) or np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError(f"loss_and_grad: weights must be ({batch},), finite and >= 0; "
                         f"got shape {weights.shape}")
    logits, hidden_act = _logits_parts(model, features)
    finite_rows = np.isfinite(logits).all(axis=1)
    if not finite_rows.all():
        bad = int(np.nonzero(~finite_rows)[0][0])
        raise NumericalFailure(f"non-finite loss at sample {bad}", bad)
    probs = softmax(logits, axis=1)
    losses = per_sample_ce(probs, labels)

    # d(-log(p_y + floor))/dlogits = p_y/(p_y + floor) * (probs - onehot);
    # the alpha factor keeps the gradient exact under the loss floor.
    picked = probs[np.arange(batch), labels]
    alpha = picked / (picked + LOSS_FLOOR)
    scale = weights * alpha / batch
    dlogits = probs * scale[:, None]
    dlogits[np.arange(batch), labels] -= scale

    x = np.asarray(features, dtype=np.float64)
    if model.arch == "linear":
        grads = [x.T @ dlogits, dlogits.sum(axis=0)]
    else:
        w1, b1, w2, b2 = model.params
        dh = dlogits @ w2.T
        grad_w2 = hidden_act.T @ dlogits
        np.square(hidden_act, out=hidden_act)
        np.subtract(1.0, hidden_act, out=hidden_act)
        dh *= hidden_act
        grads = [x.T @ dh, dh.sum(axis=0), grad_w2, dlogits.sum(axis=0)]
    return weights * losses, grads


def sgd_step(model: ModelState, opt: OptimizerState, grads: list[np.ndarray],
             epoch: int) -> None:
    """v <- momentum*v + g + wd*p;  p <- p - lr(epoch)*v.  In place."""
    lr = cosine_lr(opt, epoch)
    for p, v, g in zip(model.params, opt.velocity, grads):
        v *= opt.momentum
        v += g + opt.weight_decay * p
        p -= lr * v


def ema_update(teacher: ModelState, student: ModelState, ema_lambda: float) -> ModelState:
    """teacher <- (1 - lambda)*student + lambda*teacher, elementwise."""
    if teacher.arch != student.arch or any(
        tp.shape != sp.shape for tp, sp in zip(teacher.params, student.params)
    ):
        raise ValueError("ema_update: architectures do not match")
    if not 0.0 <= ema_lambda <= 1.0:
        raise ValueError("ema_update: lambda must be in [0, 1]")
    for tp, sp in zip(teacher.params, student.params):
        tp *= ema_lambda
        tp += (1.0 - ema_lambda) * sp
    return teacher


def accuracy(model: ModelState, dataset: Dataset, against_true: bool = False) -> float:
    labels = dataset.true_labels if against_true else dataset.observed_labels
    preds = forward(model, dataset.features).argmax(axis=1)
    return float(np.mean(preds == labels))


# -- checkpoint round-trip ------------------------------------------------------

def save_checkpoint(model: ModelState, path) -> None:
    """Architecture tag, shapes, and '<f8' payload; exact round-trip."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<BIII", _ARCH_TAGS[model.arch], model.dim,
                            model.num_classes, model.hidden))
        f.write(struct.pack("<I", len(model.params)))
        for p in model.params:
            f.write(struct.pack("<B", p.ndim))
            f.write(struct.pack(f"<{p.ndim}I", *p.shape))
            f.write(p.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelState:
    with open(path, "rb") as f:
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"load_checkpoint: bad magic in {path}")
        tag, dim, num_classes, hidden = struct.unpack("<BIII", read_exact(f, 13, path))
        if tag not in _TAG_ARCHS:
            raise ValueError(f"load_checkpoint: unknown architecture tag {tag} in {path}")
        arch = _TAG_ARCHS[tag]
        if arch == "linear":
            shapes = [(dim, num_classes), (num_classes,)]
        else:
            shapes = [(dim, hidden), (hidden,), (hidden, num_classes), (num_classes,)]
        (n_params,) = struct.unpack("<I", read_exact(f, 4, path))
        if n_params != len(shapes):
            raise ValueError(f"load_checkpoint: {path} holds {n_params} arrays, "
                             f"its {arch} header gives {len(shapes)}")
        params = []
        for i, want in enumerate(shapes):
            (ndim,) = struct.unpack("<B", read_exact(f, 1, path))
            shape = struct.unpack(f"<{ndim}I", read_exact(f, 4 * ndim, path))
            if shape != want:
                raise ValueError(f"load_checkpoint: array {i} of {path} has shape {shape}, "
                                 f"its header (dim {dim}, classes {num_classes}, "
                                 f"hidden {hidden}) gives {want}")
            params.append(np.frombuffer(read_exact(f, 8 * int(np.prod(shape)), path),
                                        dtype="<f8").reshape(shape).copy())
        read_end(f, path)
        return ModelState(arch, params, dim, num_classes, hidden)
