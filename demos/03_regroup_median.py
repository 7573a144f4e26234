"""Why the regroup-median estimate shrugs off contaminated candidates where
a plain mean does not."""

import numpy as np

from rml_lab.numerics import RngStream
from rml_lab.rml import RegroupParams, regroup_median

rng = RngStream(seed=5, stream_id=1)
params = RegroupParams(n=6, k=10)
width = params.n * params.k

base = rng.normal(1.0, 0.1, width)                  # candidate losses near 1.0
magnitudes = np.array([1.0, 10.0, 100.0, 1000.0, 1e6])

# One row per outlier magnitude: 3 of the 60 candidates ruined, each row
# regrouped by its own random permutation, all rows in one kernel call.
corrupted = np.tile(base, (magnitudes.size, 1))
corrupted[:, :3] = magnitudes[:, None]
perm = np.argsort(rng.random(corrupted.shape), axis=1)
own = np.full(magnitudes.size, 1.05)
estimates = regroup_median(own, corrupted, params, perm)

print(f"{'outlier value':>14} {'plain mean':>11} {'regroup median':>15}")
for magnitude, row, estimate in zip(magnitudes, corrupted, estimates):
    print(f"{magnitude:14.1f} {row.mean():11.2f} {estimate:15.4f}")

print("""
The mean tracks the contamination linearly.  Three ruined candidates can
spoil at most three of the six group means, so at least four of the seven
median inputs (six means and the sample's own loss) stay clean, and the
middle order statistic stays with them: the estimate stays near 1 however
far out the outliers are.  With more ruined candidates than that, random
groups put outliers in a majority of groups and the median follows them.
""")
