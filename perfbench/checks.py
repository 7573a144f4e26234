"""Output checks made apart from the program.

Everything here is the benchmark's own numpy: the MLP forward, the
checkpoint reader, the nearest-centroid rule, the prop1/prop2 closed forms.
A check that fails raises CheckFailure with what it saw.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from itertools import combinations

import numpy as np


class CheckFailure(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# -- models -------------------------------------------------------------------

def read_checkpoint(path) -> list[np.ndarray]:
    """Parameter arrays of a checkpoint: 8-byte magic, <BIII arch/dim/classes/
    hidden, <I count, then per array <B ndim, <I dims and '<f8' data."""
    with open(path, "rb") as f:
        blob = f.read()
    require(blob[:8] == b"RMLCKPT\x01", f"{path}: bad checkpoint magic")
    (count,) = struct.unpack_from("<I", blob, 21)
    pos, params = 25, []
    for _ in range(count):
        ndim = blob[pos]
        shape = struct.unpack_from(f"<{ndim}I", blob, pos + 1)
        pos += 1 + 4 * ndim
        size = int(np.prod(shape)) if ndim else 1
        params.append(np.frombuffer(blob, "<f8", size, pos).reshape(shape))
        pos += 8 * size
    require(pos == len(blob), f"{path}: {len(blob) - pos} trailing bytes")
    return params


def logits(params: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Linear (w, b) or one-hidden-layer tanh MLP (w1, b1, w2, b2)."""
    if len(params) == 2:
        return x @ params[0] + params[1]
    w1, b1, w2, b2 = params
    return np.tanh(x @ w1 + b1) @ w2 + b2


def per_sample_ce(params: list[np.ndarray], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-log(p_y + 1e-12), clipped at 0, with p from a log-space softmax."""
    z = logits(params, x)
    z = z - z.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    p_y = np.exp(log_p[np.arange(y.size), y])
    return np.maximum(0.0, -np.log(p_y + 1e-12))


def check_refresh(model_params: list[np.ndarray], features, labels, cache) -> None:
    """A refreshed cache holds the plain CE of the post-epoch model, and every
    estimate lies in [0, plain loss]."""
    expected = per_sample_ce(model_params, features, labels)
    require(np.allclose(cache.loss, expected, rtol=1e-9, atol=1e-12),
            "refresh_cache: plain losses differ from the recomputed CE by up to "
            f"{np.max(np.abs(cache.loss - expected)):.3g}")
    require(np.all(cache.loss_rml >= 0.0), "refresh_cache: negative estimate")
    require(np.all(cache.loss_rml <= cache.loss), "refresh_cache: estimate above plain loss")


# -- training runs ---------------------------------------------------------------

def nearest_centroid_accuracy(train_x, train_true, test_x, test_true, classes: int) -> float:
    centroids = np.stack([train_x[train_true == c].mean(axis=0) for c in range(classes)])
    dist = ((test_x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(dist.argmin(axis=1) == test_true))


def check_training_run(out_dir, summary: dict, epochs: int, test_x, test_true) -> bytes:
    """Final accuracy recomputed from student.ckpt; one metrics.csv row per
    epoch.  Returns the metrics.csv bytes."""
    params = read_checkpoint(out_dir / "student.ckpt")
    acc = float(np.mean(logits(params, test_x).argmax(axis=1) == test_true))
    require(acc == summary["final_test_accuracy"],
            f"recomputed test accuracy {acc!r} != reported {summary['final_test_accuracy']!r}")
    metrics = (out_dir / "metrics.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(metrics.decode())))
    require([r[0] for r in rows[1:]] == [str(e) for e in range(epochs)],
            f"metrics.csv: {len(rows) - 1} rows for {epochs} epochs")
    return metrics


def check_noise_rate(observed, true, rate: float) -> float:
    """Realized flip rate within five binomial standard errors of `rate`."""
    realized = float(np.mean(observed != true))
    band = 5.0 * math.sqrt(rate * (1.0 - rate) / observed.size)
    require(abs(realized - rate) <= band,
            f"realized noise rate {realized:.4f} outside {rate} +- {band:.4f}")
    return realized


# -- verify suite -----------------------------------------------------------------

def check_report(report: dict) -> dict:
    require(report["pass"], f"verify report failed: {report}")
    return report["reports"][0]


def check_prop1(report: dict, probability_shift, rng: np.random.Generator,
                pools: int = 20, m: int = 100) -> None:
    """Closed form l(l+eps-1) - beta (eps = 1) against log-probability changes
    taken from the benchmark's own log-softmax, and against the program's
    probability_shift, on fresh uniform[0, 30] pools."""
    require(report["statistic"] < report["bound"] and report["sign_rule_violations"] == 0
            and report["beta_always_positive"], f"prop1 report: {report}")

    def log_softmax(v):
        top = v.max()
        return v - top - math.log(np.exp(v - top).sum())

    def lse(v):
        return float(v.max() + math.log(np.exp(v - v.max()).sum()))

    for _ in range(pools):
        l = rng.uniform(0.0, 30.0, m)
        processed = l * (l + 1.0)
        beta = lse(-l) - lse(-processed)
        closed = l * l - beta
        direct = log_softmax(-l) - log_softmax(-processed)
        shift, program_beta = probability_shift(l, 1.0)
        require(beta > 0, f"prop1: beta {beta} <= 0")
        require(np.max(np.abs(direct - closed)) < 1e-9, "prop1: closed form off the direct shift")
        require(np.max(np.abs(shift - closed)) < 1e-9 and abs(program_beta - beta) < 1e-9,
                "prop1: probability_shift off the closed form")


def check_prop2(report: dict, n: int, k: int, variance: float, epsilon: float,
                trials: int) -> None:
    """Bound exp(-2(n+1)(1/2 - (n+k)/(k(n+1)) var/eps^2)^2) and the one-sided
    acceptance rate <= bound + 3 standard errors."""
    bound = math.exp(-2 * (n + 1) * (0.5 - (n + k) / (k * (n + 1)) * variance / epsilon ** 2) ** 2)
    require(math.isclose(report["bound"], bound, rel_tol=1e-12),
            f"prop2 bound {report['bound']!r} != recomputed {bound!r}")
    rate = report["statistic"]
    require(report["trials"] == trials and 0.0 <= rate <= 1.0, f"prop2 report: {report}")
    stderr = math.sqrt(rate * (1 - rate) / trials)
    require(rate <= bound + 3 * stderr, f"prop2 rate {rate} above bound {bound}")


def check_mom(report: dict, ns=(2, 4, 6), ks=(1, 2, 3)) -> None:
    """Every subset of at most ceil((n+1)/2)-1 of the n+1 median inputs, with
    every sign pattern, was tried once, and none moved the median out of range."""
    cases = sum(len(list(combinations(range(n + 1), size))) * 2 ** size
                for n in ns for _ in ks for size in range(1, (n + 2) // 2))
    require(report["trials"] == cases and report["statistic"] == 0,
            f"mom: {report['trials']} cases (expected {cases}), "
            f"{report['statistic']} violations")


def check_injection(clean_labels, noisy, rate: float, tolerance: float,
                    pairflip: bool = False) -> float:
    """Realized rate within `tolerance` of nominal; truth untouched; pairflip
    moves labels only from y to y + 1 mod c."""
    y, o = noisy.true_labels, noisy.observed_labels
    require(np.array_equal(y, clean_labels), "injector changed the true labels")
    realized = float(np.mean(o != y))
    require(abs(realized - rate) <= tolerance,
            f"realized rate {realized:.4f} outside {rate} +- {tolerance:.4f}")
    if pairflip:
        off_band = (o != y) & (o != (y + 1) % noisy.num_classes)
        require(not off_band.any(), f"pairflip: {int(off_band.sum())} labels off the y+1 band")
    return realized
