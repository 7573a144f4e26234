"""Statistical verification of the method's guarantees, independent of any
training run.

Checks covered:
  * prop1: the exact identity for the selection-probability change under
    loss processing, including the sign rule around the pool constant beta;
  * prop2: the exponential concentration bound on the regroup-median
    estimate of a loss population (median-of-means tail bound);
  * mom: exhaustive containment of the median step under contamination;
  * cor1: the direction claim that loss processing concentrates selection
    mass on truly clean samples once noisy losses exceed clean ones.

Each runs the training path's own `rml` kernel on rows: of pools (prop1),
of draws (prop2, mom), or of a model's losses by class (cor1).

Every check returns a JSON-ready report dict: {check, trials, statistic,
bound, pass, ...extras}.
"""

from __future__ import annotations

import math

import numpy as np

from . import rml
from .data import Dataset
from .noise import corruption_mask
from .numerics import RngStream


def deviation_bound(n: int, k: int, variance: float, epsilon_r: float) -> tuple[float, float]:
    """Tail bound exp(-c1 * (1/2 - c2*var/eps^2)^2) with c1 = 2(n+1) and
    c2 = (n+k)/(k(n+1)); returns (bound, margin) where margin <= 0 marks the
    bound vacuous."""
    c1 = 2.0 * (n + 1)
    c2 = (n + k) / (k * (n + 1))
    margin = 0.5 - c2 * variance / epsilon_r ** 2
    return math.exp(-c1 * margin * margin), margin


def check_prop1(trials: int, m: int, rng: RngStream,
                loss_range: tuple[float, float] = (0.0, 30.0),
                epsilon_bias: float = 1.0, tolerance: float = 1e-9) -> dict:
    """Exact shift identity over random loss pools.

    For every pool, the log-probability change of each sample must equal
    l*(l + eps - 1) - beta (computed through two independent float paths),
    the pool constant beta must be positive, and the sign of the change must
    flip exactly where l^2 crosses beta.  Pool t is row t of rng's uniforms,
    read in order, so the report does not depend on chunking; pools are
    checked in chunks of at most rml.BUDGET losses to bound memory.
    """
    if trials < 1:
        raise ValueError("check_prop1: trials must be >= 1")
    if m < 2:
        raise ValueError("check_prop1: need m >= 2")
    step = max(1, rml.BUDGET // m)
    max_residual = 0.0
    beta_positive = True
    sign_violations = 0
    for start in range(0, trials, step):
        losses = rng.uniform(*loss_range, (min(step, trials - start), m))
        shift, beta = rml.probability_shift(losses, epsilon_bias)
        beta = beta[:, None]
        closed = losses * (losses + epsilon_bias - 1.0) - beta
        max_residual = max(max_residual, float(np.max(np.abs(shift - closed))))
        beta_positive &= bool(np.all(beta > 0))
        if epsilon_bias == 1.0:
            # Sign rule: probability falls iff l^2 > beta (guard exact ties).
            crossing = losses ** 2 - beta
            decided = np.abs(crossing) > 1e-12
            sign_violations += int(np.sum(np.sign(shift[decided]) != np.sign(crossing[decided])))
    passed = max_residual < tolerance and beta_positive and sign_violations == 0
    return {
        "check": "prop1",
        "trials": trials,
        "statistic": max_residual,
        "bound": tolerance,
        "pass": bool(passed),
        "beta_always_positive": bool(beta_positive),
        "sign_rule_violations": sign_violations,
    }


def mom_estimate(samples: np.ndarray, n: int, k: int) -> np.ndarray:
    """Regroup-median estimate of each row of n*k+1 iid loss draws, by the
    training-path kernel.  The final column plays the training sample and
    the rest form n groups of k consecutive draws.  The draws are iid, so
    any fixed grouping gives the estimate the same law as a random regroup,
    and none is drawn."""
    values = np.asarray(samples, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != n * k + 1:
        raise ValueError(f"mom_estimate: expected rows of {n * k + 1} samples, got {values.shape}")
    return rml.regroup_median(values[:, -1], values[:, :-1], rml.RegroupParams(n=n, k=k), None)


def _exact_rate(n: int, k: int, epsilon_r: float, scale: float) -> float:
    """P[|estimate - loc| > epsilon_r] for the median of n means of k iid
    normal(loc, scale) draws and one more draw.  The estimate exceeds
    loc + epsilon_r iff at least n/2 + 1 of its n + 1 median inputs do: each
    mean, a normal(loc, scale^2/k), with p1, the own draw with p2 (David &
    Nagaraja, Order Statistics, 2003); twice that, by symmetry."""
    if scale == 0:
        return 0.0
    p1 = 0.5 * math.erfc(epsilon_r * math.sqrt(k) / (scale * math.sqrt(2)))
    p2 = 0.5 * math.erfc(epsilon_r / (scale * math.sqrt(2)))

    def at_least(j):
        return sum(math.comb(n, i) * p1 ** i * (1 - p1) ** (n - i) for i in range(j, n + 1))

    return 2 * (p2 * at_least(n // 2) + (1 - p2) * at_least(n // 2 + 1))


def check_prop2(trials: int, rng: RngStream, n: int = 6, k: int = 10,
                epsilon_r: float = 1.2, loc: float = 1.0, scale: float = 1.0) -> dict:
    """Monte Carlo exceedance rate of the regroup-median estimate of a
    normal(loc, scale) loss population against the analytic tail bound;
    epsilon_r is the deviation radius being tested, distinct from the
    loss-processing bias, and scale=0 makes the population a point mass.
    One-sided: the bound is loose by construction, so acceptance is
    rate <= bound + 3 binomial standard errors.  Vacuous-bound
    configurations are reported, not failed.  The report also gives the
    exact rate and the Monte Carlo rate's binomial z against it (0 where
    the exact law is a point mass).  Trial t is row t of rng.child(0)'s
    normals, read in order, in chunks of at most rml.BUDGET draws, so
    chunking only bounds memory."""
    if trials < 1:
        raise ValueError("check_prop2: trials must be >= 1")
    if not epsilon_r > 0:
        raise ValueError("check_prop2: epsilon_r must be > 0")
    if not math.isfinite(loc):
        raise ValueError(f"check_prop2: loc must be finite, got {loc}")
    if not 0 <= scale < math.inf:
        raise ValueError(f"check_prop2: scale must be finite and >= 0, got {scale}")
    rml.RegroupParams(n=n, k=k)   # names a bad n or k before the bound divides by them
    var = scale ** 2
    bound, margin = deviation_bound(n, k, var, epsilon_r)
    vacuous = margin <= 0
    draw = n * k + 1
    step = max(1, rml.BUDGET // draw)
    values_rng = rng.child(0)
    exceed = 0
    for start in range(0, trials, step):
        values = values_rng.normal(loc, scale, (min(step, trials - start), draw))
        estimates = mom_estimate(values, n, k)
        exceed += int(np.count_nonzero(np.abs(estimates - loc) > epsilon_r))
    rate = exceed / trials
    stderr = math.sqrt(max(rate * (1 - rate), 0.0) / trials)
    exact = _exact_rate(n, k, epsilon_r, scale)
    exact_stderr = math.sqrt(exact * (1 - exact) / trials)
    return {
        "check": "prop2",
        "trials": trials,
        "statistic": rate,
        "bound": bound,
        "exact_rate": exact,
        "z": (rate - exact) / exact_stderr if exact_stderr > 0 else 0.0,
        "pass": True if vacuous else bool(rate <= bound + 3 * stderr),
        "vacuous": vacuous,
        "margin": margin,
        "population_mean": loc,
        "population_var": var,
    }


def check_mom_robustness(ns: tuple[int, ...] = (2, 4, 6),
                         ks: tuple[int, ...] = (1, 2, 3),
                         corrupt_value: float = 1e12,
                         seed: int = 7) -> dict:
    """Exhaustive containment check for the median step.

    For each (n, k): the n+1 median inputs are n means of random groups of
    k and a sample loss; replace every subset of at most ceil((n+1)/2)-1 of
    them with every +-corrupt_value pattern.  Each corrupted pool is a row of
    one training-kernel call (k=1, no regroup), and its median must
    stay within [min, max] of the untouched values in all cases.
    """
    from itertools import combinations, product

    cases = 0
    violations = 0
    for n in ns:
        for k in ks:
            rng = RngStream(seed, n * 100 + k)
            values = rng.uniform(0.0, 5.0, n * k + 1)   # n*k selected, then the sample's
            means = values[rng.permutation(n * k)].reshape(n, k).mean(axis=1)
            pool = np.append(means, values[-1])
            budget = (n + 1 + 1) // 2 - 1   # ceil((n+1)/2) - 1
            rows, low, high = [], [], []
            for size in range(1, budget + 1):
                for positions in combinations(range(n + 1), size):
                    untouched = np.delete(pool, positions)
                    for signs in product((-1.0, 1.0), repeat=size):
                        rows.append(pool.copy())
                        rows[-1][list(positions)] = np.multiply(signs, corrupt_value)
                        low.append(untouched.min())
                        high.append(untouched.max())
            rows = np.array(rows)
            estimates = rml.regroup_median(rows[:, -1], rows[:, :-1], rml.RegroupParams(n=n, k=1),
                                           None)
            cases += len(rows)
            violations += int(np.count_nonzero((estimates < low) | (estimates > high)))
    return {
        "check": "mom",
        "trials": cases,
        "statistic": violations,
        "bound": 0,
        "pass": violations == 0,
    }


def check_cor1(dataset: Dataset, losses: np.ndarray, epsilon_bias: float = 1.0) -> dict:
    """Aggregate selection mass on truly clean samples, with and without
    processing the plain per-sample `losses`.  Under the separation premise
    (noisy mean loss above clean mean loss), processing must not lose clean
    mass."""
    mask = corruption_mask(dataset)
    plain = rml.selection_by_class(dataset, losses, epsilon_bias, processed=False)
    processed = rml.selection_by_class(dataset, losses, epsilon_bias)
    plain_mass = []
    processed_mass = []
    for members in dataset.class_index:
        clean = members[~mask[members]]
        if clean.size:
            plain_mass.append(float(plain[clean].sum()))
            processed_mass.append(float(processed[clean].sum()))
    plain_mean = float(np.mean(plain_mass))
    processed_mean = float(np.mean(processed_mass))
    premise = False
    if mask.any() and (~mask).any():
        premise = float(losses[mask].mean()) > float(losses[~mask].mean())
    passed = processed_mean >= plain_mean - 1e-12 if premise else True
    return {
        "check": "cor1",
        "trials": len(plain_mass),
        "statistic": processed_mean,
        "bound": plain_mean,
        "pass": bool(passed),
        "premise_holds": bool(premise),
        "clean_mass_plain": plain_mean,
        "clean_mass_processed": processed_mean,
    }
