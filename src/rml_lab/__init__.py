"""Desk-scale laboratory for training classifiers under label noise with
regroup-median loss estimation.

Subpackages
-----------
numerics   deterministic kernel: softmax, weighted sampling, RNG streams
data       synthetic generators, IDX files, dataset container, splits
noise      symmetric / pairflip / feature-dependent label corruption
model      linear and MLP classifiers with analytic gradients, SGD, EMA teacher
rml        selection distributions, regroup-median estimation, loss cache
trainer    one training loop: CE / regroup-median / semi-supervised modes
verify     statistical checks of the estimator's guarantees
cli        config-driven command-line entry points
"""

from .data import Dataset, make_blobs, make_two_moons, read_idx, split
from .model import ModelState, OptimizerState, ema_update, forward, init_model, init_optimizer
from .noise import (
    NoiseSpec,
    corruption_mask,
    inject_instance_dependent,
    inject_pairflip,
    inject_symmetric,
)
from .numerics import RngStream, softmax
from .rml import (
    LossCache,
    RegroupParams,
    batch_weights,
    probability_shift,
    refresh_cache,
    regroup_median,
    selection_probabilities,
)
from .trainer import RunConfig, train_ce, train_rml, train_rml_semi

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "LossCache",
    "ModelState",
    "NoiseSpec",
    "OptimizerState",
    "RegroupParams",
    "RngStream",
    "RunConfig",
    "batch_weights",
    "corruption_mask",
    "ema_update",
    "forward",
    "init_model",
    "init_optimizer",
    "inject_instance_dependent",
    "inject_pairflip",
    "inject_symmetric",
    "make_blobs",
    "make_two_moons",
    "probability_shift",
    "read_idx",
    "refresh_cache",
    "regroup_median",
    "selection_probabilities",
    "softmax",
    "split",
    "train_ce",
    "train_rml",
    "train_rml_semi",
]
