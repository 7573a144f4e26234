"""rml-lab benchmark: one workload per call, closed loop, one operation at a
time, BLAS pinned to one thread.

    python3 perfbench/run.py --workload bench_rml --seed 0 --seconds 10 --trace 0

Workloads (see README.md for why each one is there):
  bench_rml, bench_semi, bench_ce   one 100-epoch training run per operation,
                                    through rml_lab.cli.cmd_train
  verify_suite                      the `rml-lab verify --suite all` checks and
                                    three label-noise injectors at N = 10^5

With --trace 0 the run makes as many whole rounds of the workload's operations
as fit in --seconds of wall time (at least one), and reports setup_s, run_s
and peak_rss_mb.  With --trace 1 it runs one round untraced and one round with
every call into the program's public functions recorded as a span, and
reports the per-layer metrics and the tracing overhead.  Every operation's
output is checked against the benchmark's own computations (checks.py).  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
--smoke shrinks every input so the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads its BLAS

import argparse
import json
import resource
import statistics
import subprocess
import traceback
from contextlib import nullcontext
from pathlib import Path

import checks
from spans import CHECK, OP, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3

TRAIN_MODES = {
    "bench_rml": {"mode": "rml"},
    "bench_semi": {"mode": "rml_semi", "common_epochs": 60},
    "bench_ce": {"mode": "ce"},
}
WORKLOADS = (*TRAIN_MODES, "verify_suite")
NOISE_RATE = 0.4
# Two-sided tolerance of rml / rml_semi test accuracy around the
# nearest-centroid accuracy on 1000 test points; scaled by sqrt(1000/n_test).
CENTROID_TOLERANCE = 0.02
# Injector rate tolerance at N = 10^5, scaled by sqrt(10^5 / N).
INJECT_TOLERANCE = 0.01
# (name, noise kind, nominal rate, rng stream): criterion 5's injections.
INJECTIONS = (("symmetric", "symmetric", 0.2, 21),
              ("pairflip", "pairflip", 0.45, 23),
              ("instance_dependent", "instance_dependent", 0.3, 24))


def import_program():
    src = ROOT / "src"
    if not (src / "rml_lab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no rml_lab sources under {src}")
    sys.path.insert(0, str(src))
    import rml_lab

    if Path(rml_lab.__file__).resolve().parent != src / "rml_lab":
        raise SystemExit(f"run.py: rml_lab imported from {rml_lab.__file__}, not {src}")


# -- workloads -------------------------------------------------------------------

def train_payload(workload: str, smoke: bool) -> dict:
    """The acceptance suite's BENCH setting as a cmd_train config."""
    run = {"total_epochs": 100, "batch_size": 128, "warmup_epochs": 5,
           "regroup": {"n": 6, "k": 20}, **TRAIN_MODES[workload]}
    per_class = 500
    if smoke:
        per_class = 60
        # ~80 steps in all: a faster EMA lets the semi phase's teacher move
        # off its initial weights before its labels are used.
        run.update(total_epochs=20, warmup_epochs=3, ema_lambda=0.98)
        if "common_epochs" in run:
            run["common_epochs"] = 12
    return {
        "dataset": {"kind": "blobs", "num_classes": 10, "per_class": per_class,
                    "dim": 8, "separation": 4.0},
        "noise": {"kind": "symmetric", "rate": NOISE_RATE},
        "model": {"arch": "mlp", "hidden": 256},
        "optimizer": {"lr_init": 0.1, "weight_decay": 0.0},
        "run": run,
        "test_fraction": 0.2,
    }


# A workload sets up in its constructor.  Its `operations` are one round, a
# list of (name, call, check); a check receives the call's result and raises
# checks.CheckFailure on a wrong output.

class Training:
    def __init__(self, workload: str, seed: int, smoke: bool):
        from rml_lab import cli, data, model, noise
        from rml_lab.numerics import RngStream

        self.seed = seed
        self.config = cli.ExperimentConfig.from_dict(train_payload(workload, smoke))
        dataset = cli.build_dataset(self.config.dataset, seed)
        train, test = data.split(dataset, self.config.test_fraction,
                                 RngStream(seed, cli.STREAM_SPLIT))
        train = noise.apply(train, self.config.noise, seed)
        mean, std = data.feature_stats(train.features)
        self.train = data.standardize(train, mean, std)
        self.test = data.standardize(test, mean, std)
        # cmd_train repeats all of the above and this init inside each
        # operation; done here too so that setup_s covers every stage.
        student = model.init_model(self.config.model.arch, self.train.dim,
                                   self.train.num_classes,
                                   RngStream(seed, cli.STREAM_INIT),
                                   hidden=self.config.model.hidden)
        model.init_optimizer(student, self.config.optimizer.lr_init,
                             self.config.run.total_epochs)
        self.out_dir = OUT / workload / "run"
        self.near_bayes = self.config.run.mode != "ce"
        self.centroid_acc = None
        self.first_metrics = None
        self.operations = [("train", self.run, self.check)]

    def run(self):
        from rml_lab import cli

        return cli.cmd_train(self.config, self.seed, self.out_dir)

    def check(self, summary):
        train, test = self.train, self.test
        metrics = checks.check_training_run(self.out_dir, summary,
                                            self.config.run.total_epochs,
                                            test.features, test.true_labels)
        if self.first_metrics is None:
            self.first_metrics = metrics
            checks.check_noise_rate(train.observed_labels, train.true_labels, NOISE_RATE)
            self.centroid_acc = checks.nearest_centroid_accuracy(
                train.features, train.true_labels, test.features, test.true_labels,
                train.num_classes)
        checks.require(metrics == self.first_metrics,
                       "metrics.csv differs between two runs of one seed")
        if self.near_bayes:
            tolerance = CENTROID_TOLERANCE * (1000 / test.n_samples) ** 0.5
            acc = summary["final_test_accuracy"]
            checks.require(abs(acc - self.centroid_acc) <= tolerance,
                           f"test accuracy {acc} not within {tolerance:.3f} of "
                           f"nearest-centroid {self.centroid_acc}")



class VerifySuite:
    def __init__(self, seed: int, smoke: bool):
        from rml_lab import cli, data, noise, rml
        from rml_lab.numerics import RngStream

        self.seed = seed
        per_class = 2_000 if smoke else 10_000
        self.trials = {"prop1": 200, "prop2": 2_000} if smoke else {}
        self.clean = data.make_blobs(10, per_class, 4, 6.0, RngStream(seed, 1))
        self.inject_tolerance = INJECT_TOLERANCE * (1e5 / self.clean.n_samples) ** 0.5
        self.probability_shift = rml.probability_shift
        self.operations = [
            (suite, self._verify(cli, suite), getattr(self, f"check_{suite}"))
            for suite in ("prop1", "prop2", "mom", "cor1")
        ] + [
            (name, self._inject(noise, kind, rate, stream), self._check_injection(rate, kind))
            for name, kind, rate, stream in INJECTIONS
        ]

    def _verify(self, cli, suite):
        trials = self.trials.get(suite)
        return lambda: cli.cmd_verify(suite, self.seed, trials)

    def _inject(self, noise, kind, rate, stream):
        spec = noise.NoiseSpec(kind, rate, stream)
        return lambda: noise.apply(self.clean, spec, self.seed)

    def check_prop1(self, result):
        import numpy as np

        checks.check_prop1(checks.check_report(result), self.probability_shift,
                           np.random.default_rng(self.seed))

    def check_prop2(self, result):
        checks.check_prop2(checks.check_report(result), n=6, k=10, variance=1.0,
                           epsilon=1.2, trials=self.trials.get("prop2", 100_000))

    def check_mom(self, result):
        checks.check_mom(checks.check_report(result))

    def check_cor1(self, result):
        checks.check_report(result)

    def _check_injection(self, rate, kind):
        return lambda noisy: checks.check_injection(
            self.clean.true_labels, noisy, rate, self.inject_tolerance,
            pairflip=kind == "pairflip")


def set_up(workload: str, seed: int, smoke: bool):
    if workload == "verify_suite":
        return VerifySuite(seed, smoke)
    return Training(workload, seed, smoke)


# -- measurement -------------------------------------------------------------------

class Runner:
    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def guarded_check(self, name, check, *args):
        try:
            check(*args)
        except Exception as exc:   # noqa: BLE001 - any check error marks the run incorrect
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")

    def round(self, tracer=None) -> list[float | None]:
        """One pass over the workload's operations; returns each one's wall
        time (checks excluded), None for an operation that raised."""
        times = []
        for name, call, check in self.work.operations:
            self.attempted += 1
            started = time.perf_counter()
            try:
                with tracer.span(OP) if tracer else nullcontext():
                    result = call()
            except Exception:   # noqa: BLE001 - a raising operation counts as failed
                self.failed += 1
                traceback.print_exc()
                times.append(None)
                continue
            times.append(time.perf_counter() - started)
            self.guarded_check(name, check, result)
        return times


def round_time(times: list[float | None]) -> float:
    return sum(t for t in times if t is not None)


def repeat_setup(args) -> list[float]:
    """Set-up times of fresh processes that import and set up the same
    workload, then exit."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    return [float(subprocess.run(command, cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout)
            for _ in range(SETUP_REPEATS - 1)]


def measure(args, runner: Runner) -> dict:
    """Whole rounds, as many as fit in --seconds (at least one): a round is
    started only if a round of median length would still end in time.
    run_s sums each operation's median time over the rounds, so a burst of
    host load in one round of one operation does not move it."""
    rounds, walls = [], []
    started = time.perf_counter()
    while not rounds or (time.perf_counter() - started + statistics.median(walls)
                         <= args.seconds):
        round_started = time.perf_counter()
        rounds.append(runner.round())
        walls.append(time.perf_counter() - round_started)
    per_op = [[t for t in op_times if t is not None] for op_times in zip(*rounds)]
    return {
        "run_s": (sum(statistics.median(ts) for ts in per_op if ts), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def check_refresh(call_args, cache):
    """refresh_cache(cache, dataset, model, ...) -> new cache."""
    _, dataset, model = call_args[:3]
    checks.check_refresh(model.params, dataset.features, dataset.observed_labels, cache)


def measure_traced(args, runner: Runner) -> dict:
    untraced = round_time(runner.round())
    tracer = Tracer()
    tracer.on_refresh = lambda call_args, cache: runner.guarded_check(
        "refresh_cache", check_refresh, call_args, cache)
    tracer.install()
    try:
        traced = round_time(runner.round(tracer))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    checking = tracer.per_name()[CHECK][2]
    metrics["trace.overhead_s"] = (traced - checking - untraced, "s")
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / args.workload / "spans.npz")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    work = set_up(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(setup_s)
        return 0
    runner = Runner(work)
    if args.trace:
        metrics = measure_traced(args, runner)
    else:
        setup_s = statistics.median([setup_s, *repeat_setup(args)])
        metrics = {"setup_s": (setup_s, "s"), **measure(args, runner)}
    for problem in runner.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
