"""Command-line surface: noise injection, training runs, the verification
suite, and the loss-processing/median ablation.

Configs are strict JSON: unknown keys are rejected so a misspelled
hyperparameter can never silently fall back to a default.  Every command is
reproducible from its config file and seed alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import data as data_ops
from . import model as model_ops
from . import noise as noise_ops
from . import trainer, verify
from .numerics import RngStream
from .rml import RegroupParams
from .trainer import RunConfig

STREAM_DATA = 1
STREAM_SPLIT = 3
STREAM_INIT = 4
STREAM_VERIFY = 5


class ConfigError(ValueError):
    """Configuration validation failure, with the offending key path."""


def _object(section, path: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be a JSON object, got {type(section).__name__}")
    return section


def _fits(hint, value) -> bool:
    """Whether a JSON value has a field's type: an int passes for a float,
    a bool passes only for a bool."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(option, value) for option in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _section(cls, section: dict, path: str, required=frozenset(), keys=None, **parsers):
    """Build dataclass `cls` from one config section.

    The allowed keys are `cls`'s fields unless `keys` narrows them.  A
    section that is not an object, an unknown key, a missing one of
    `required`, or a value whose type does not fit its field fails before
    any sub-section is parsed.  `parsers` map a key to the function that
    parses its sub-section, and a ValueError from the dataclass's own checks
    becomes a ConfigError on `path`.
    """
    section = _object(section, path)
    allowed = keys if keys is not None else {f.name for f in fields(cls)}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key {path}.{sorted(unknown)[0]}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"missing required key {path}.{sorted(missing)[0]}")
    hints = typing.get_type_hints(cls)
    for key, value in section.items():
        hint = hints[key]
        if key not in parsers and not _fits(hint, value):
            raise ConfigError(f"{path}.{key} must be {getattr(hint, '__name__', hint)}, "
                              f"got {value!r}")
    values = {key: parsers[key](value) if key in parsers else value
              for key, value in section.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class DatasetSpec:
    kind: str
    num_classes: int = 10
    per_class: int = 500
    dim: int = 8
    separation: float = 4.0
    noise_stdev: float = 0.1
    images: str = ""
    labels: str = ""
    path: str = ""

    _KEYS = {
        "blobs": {"kind", "num_classes", "per_class", "dim", "separation"},
        "moons": {"kind", "per_class", "noise_stdev"},
        "idx": {"kind", "images", "labels"},
        "container": {"kind", "path"},
    }

    @classmethod
    def from_dict(cls, section: dict) -> "DatasetSpec":
        kind = _object(section, "dataset").get("kind")
        if kind not in cls._KEYS:
            raise ConfigError(f"dataset.kind must be one of {sorted(cls._KEYS)}")
        required = {"kind"} if kind in ("blobs", "moons") else cls._KEYS[kind]
        return _section(cls, section, "dataset", required, cls._KEYS[kind])


@dataclass
class ModelSpec:
    arch: str = "mlp"
    hidden: int = 64

    def __post_init__(self):
        if self.arch not in ("linear", "mlp"):
            raise ValueError(f"ModelSpec: arch must be 'linear' or 'mlp', got {self.arch!r}")


@dataclass
class OptimizerSpec:
    lr_init: float = 0.1
    lr_min: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self):
        # The optimizer's own checks, before any data is built.
        model_ops.OptimizerState(**asdict(self), total_epochs=0)


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    run: RunConfig
    model: ModelSpec = field(default_factory=ModelSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    noise: noise_ops.NoiseSpec | None = None
    test_fraction: float = 0.2
    output_dir: str = "runs/out"

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"ExperimentConfig: test_fraction must be in (0, 1), "
                             f"got {self.test_fraction}")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        return _section(
            cls, payload, "config", {"dataset", "run"},
            dataset=DatasetSpec.from_dict,
            run=lambda s: _section(
                RunConfig, s, "run", {"mode"},
                regroup=lambda r: _section(RegroupParams, r, "run.regroup")),
            model=lambda s: _section(ModelSpec, s, "model"),
            optimizer=lambda s: _section(OptimizerSpec, s, "optimizer"),
            noise=lambda s: _section(noise_ops.NoiseSpec, s, "noise", {"kind", "rate"}),
        )

    def to_dict(self) -> dict:
        """The payload from_dict reads back: the dataset's keys for its kind
        only, and no noise section when there is none."""
        payload = asdict(self)
        payload["dataset"] = {k: payload["dataset"][k]
                              for k in DatasetSpec._KEYS[self.dataset.kind]}
        if self.noise is None:
            del payload["noise"]
        return payload


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_dict(json.load(f))


def build_dataset(spec: DatasetSpec, seed: int) -> data_ops.Dataset:
    rng = RngStream(seed, STREAM_DATA)
    if spec.kind == "blobs":
        return data_ops.make_blobs(spec.num_classes, spec.per_class, spec.dim,
                                   spec.separation, rng)
    if spec.kind == "moons":
        return data_ops.make_two_moons(spec.per_class, spec.noise_stdev, rng)
    if spec.kind == "idx":
        return data_ops.read_idx(spec.images, spec.labels)
    return data_ops.load_dataset(spec.path)


def _prepare_training_data(config: ExperimentConfig, seed: int):
    """Split first, inject noise into the training half only: the held-out
    split stays clean, mirroring evaluation on a trusted test set."""
    dataset = build_dataset(config.dataset, seed)
    train, test = data_ops.split(dataset, config.test_fraction, RngStream(seed, STREAM_SPLIT))
    if config.noise is not None:
        train = noise_ops.apply(train, config.noise, seed)
    mean, std = data_ops.feature_stats(train.features)
    return data_ops.standardize(train, mean, std), data_ops.standardize(test, mean, std)


def run_training(config: ExperimentConfig, seed: int):
    """Full pipeline: data, models, dispatch on mode.  Returns
    (student, teacher_or_None, metrics rows, train set, test set)."""
    train, test = _prepare_training_data(config, seed)
    rng = RngStream(seed, STREAM_INIT)
    student = model_ops.init_model(config.model.arch, train.dim, train.num_classes,
                                   rng, hidden=config.model.hidden)
    opt = model_ops.init_optimizer(student, total_epochs=config.run.total_epochs,
                                   **asdict(config.optimizer))
    run = replace(config.run, seed=seed)
    if run.mode == "ce":
        student, rows = trainer.train_ce(train, student, opt, run, test)
        return student, None, rows, train, test
    teacher = student.copy()
    if run.mode == "rml":
        student, teacher, rows = trainer.train_rml(train, student, teacher, opt, run, test)
    else:
        student, teacher, rows = trainer.train_rml_semi(train, student, teacher, opt, run, test)
    return student, teacher, rows, train, test


# -- subcommands ----------------------------------------------------------------

def _out_dir(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_inject(config: ExperimentConfig, seed: int, out_dir) -> dict:
    if config.noise is None:
        raise ConfigError("inject needs a noise section")
    dataset = build_dataset(config.dataset, seed)
    if dataset.num_classes > data_ops.MAX_CLASSES:   # before --out is made
        raise ValueError(f"inject: label bytes support at most {data_ops.MAX_CLASSES} "
                         f"classes, got {dataset.num_classes}")
    if dataset.true_labels is None:
        # File-backed labels count as the pre-corruption truth.
        dataset = data_ops.Dataset(dataset.features, dataset.observed_labels,
                                   dataset.num_classes,
                                   true_labels=dataset.observed_labels.copy())
    noisy = noise_ops.apply(dataset, config.noise, seed)
    mask = noise_ops.corruption_mask(noisy)
    out = _out_dir(out_dir)
    data_ops.save_dataset(noisy, out / "dataset.rmld")
    with open(out / "mask.csv", "w", newline="") as f:
        f.write("sample_id,is_corrupted\n")
        for i, hit in enumerate(mask):
            f.write(f"{i},{int(hit)}\n")
    return {
        "dataset": str(out / "dataset.rmld"),
        "mask": str(out / "mask.csv"),
        "realized_rate": float(mask.mean()),
    }


def _host() -> dict:
    """What a run's bytes depend on besides its config and seed: numpy's
    version, the OpenBLAS core it runs and its SIMD targets."""
    import ctypes
    from glob import glob
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    core = "unknown"
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob(str(libs / "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            core = get().decode()
    return {"numpy": np.__version__, "openblas_core": core,
            "simd_baseline": list(umath.__cpu_baseline__),
            "simd_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]}


def cmd_train(config: ExperimentConfig, seed: int, out_dir) -> dict:
    out = _out_dir(out_dir)
    started = time.perf_counter()
    student, teacher, rows, train, test = run_training(config, seed)
    wall = time.perf_counter() - started
    trainer.write_metrics_csv(rows, out / "metrics.csv")
    model_ops.save_checkpoint(student, out / "student.ckpt")
    if teacher is not None:
        model_ops.save_checkpoint(teacher, out / "teacher.ckpt")
    summary = {
        "config": config.to_dict(),
        "seed": seed,
        "mode": config.run.mode,
        "n_train": train.n_samples,
        "n_test": test.n_samples,
        "final_test_accuracy": rows[-1].test_accuracy if rows else float("nan"),
        "final_train_loss": rows[-1].train_loss if rows else float("nan"),
        "wall_time_seconds": wall,
        "host": _host(),
    }
    with open(out / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


def _cor1_report(seed: int) -> dict:
    """Train a small model on noisy blobs and check the clean-mass direction
    on its end-of-run plain losses."""
    rng = RngStream(seed, STREAM_DATA)
    dataset = noise_ops.inject_symmetric(
        data_ops.make_blobs(4, 80, 4, 5.0, rng), 0.3, RngStream(seed, 2)
    )
    mean, std = data_ops.feature_stats(dataset.features)
    dataset = data_ops.standardize(dataset, mean, std)
    model = model_ops.init_model("linear", dataset.dim, dataset.num_classes,
                                 RngStream(seed, STREAM_INIT))
    opt = model_ops.init_optimizer(model, 0.5, 30)
    config = RunConfig(mode="ce", total_epochs=30, batch_size=64, seed=seed)
    trainer.train_ce(dataset, model, opt, config)
    losses = model_ops.per_sample_ce(model_ops.forward(model, dataset.features),
                                     dataset.observed_labels)
    return verify.check_cor1(dataset, losses)


VERIFY_SUITES = ("prop1", "prop2", "cor1", "mom", "all")


def cmd_verify(suite: str, seed: int, trials: int | None = None) -> dict:
    if suite not in VERIFY_SUITES:
        raise ValueError(f"verify: unknown suite {suite!r}; expected one of {VERIFY_SUITES}")
    if trials is not None and trials < 1:
        raise ValueError(f"verify: trials must be >= 1, got {trials}")
    if trials is not None and suite in ("mom", "cor1"):
        raise ValueError(f"verify: suite {suite!r} takes no trials")
    rng = RngStream(seed, STREAM_VERIFY)
    reports = []
    if suite in ("prop1", "all"):
        reports.append(verify.check_prop1(10_000 if trials is None else trials, 100, rng.child(1)))
    if suite in ("prop2", "all"):
        reports.append(verify.check_prop2(100_000 if trials is None else trials, rng.child(2)))
    if suite in ("mom", "all"):
        reports.append(verify.check_mom_robustness(seed=seed))
    if suite in ("cor1", "all"):
        reports.append(_cor1_report(seed))
    return {"suite": suite, "pass": all(r["pass"] for r in reports), "reports": reports}


ABLATION_VARIANTS = {
    "full": {},
    "no_processing": {"use_processed_loss": False},
    "no_median": {"estimator": "mean"},
}


def cmd_ablate(config: ExperimentConfig, seeds: list[int], out_dir) -> dict:
    """Same data and seed, three regroup variants; final accuracies side by
    side plus per-variant means."""
    if not seeds:
        raise ValueError("ablate: need at least one seed")
    out = _out_dir(out_dir)
    results = {name: [] for name in ABLATION_VARIANTS}
    for seed in seeds:
        for name, overrides in ABLATION_VARIANTS.items():
            variant = replace(
                config,
                run=replace(config.run, mode="rml",
                            regroup=replace(config.run.regroup, **overrides)),
            )
            _, _, rows, _, _ = run_training(variant, seed)
            results[name].append(rows[-1].test_accuracy)
    with open(out / "ablation.csv", "w", newline="") as f:
        f.write("variant,seed,test_accuracy\n")
        for name, accs in results.items():
            for seed, acc in zip(seeds, accs):
                f.write(f"{name},{seed},{acc!r}\n")
        for name, accs in results.items():
            f.write(f"{name},mean,{float(np.mean(accs))!r}\n")
    return {name: float(np.mean(accs)) for name, accs in results.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rml-lab",
        description="Noisy-label training laboratory with regroup median loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("inject", "corrupt a dataset and write it out"),
                       ("train", "run a training experiment")):
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", required=True)
        command.add_argument("--seed", type=int, default=None)
        command.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the statistical verification suite")
    ver.add_argument("--suite", default="all", choices=VERIFY_SUITES)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=None)
    ver.add_argument("--out", default=None)

    ablate = sub.add_parser("ablate", help="compare regroup variants")
    ablate.add_argument("--config", required=True)
    ablate.add_argument("--seeds", type=int, default=1,
                        help="number of consecutive seeds starting at run.seed")
    ablate.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            report = cmd_verify(args.suite, args.seed, args.trials)
            text = json.dumps(report, indent=2, sort_keys=True)
            print(text)
            if args.out:
                with open(args.out, "w") as f:
                    f.write(text + "\n")
            return 0 if report["pass"] else 1

        config = load_config(args.config)
        out_dir = args.out or config.output_dir
        if args.command == "ablate":
            # ablate has no --seed: its seeds count up from run.seed.
            seeds = [config.run.seed + i for i in range(args.seeds)]
            report = cmd_ablate(config, seeds, out_dir)
        else:
            seed = config.run.seed if args.seed is None else args.seed
            if args.command == "inject":
                report = cmd_inject(config, seed, out_dir)
            else:
                summary = cmd_train(config, seed, out_dir)
                report = {k: summary[k] for k in
                          ("mode", "seed", "final_test_accuracy", "final_train_loss")}
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    except Exception as exc:   # noqa: BLE001 - single CLI failure funnel
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
