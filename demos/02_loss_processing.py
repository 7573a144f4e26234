"""How processing a loss pool reshapes the within-class selection
distribution, and the exact identity that governs the change."""

import numpy as np

from rml_lab.numerics import RngStream, softmax
from rml_lab.rml import probability_shift, selection_probabilities

rng = RngStream(seed=3, stream_id=1)

# A class pool after a few epochs of training: most members fit well
# (small loss), the mislabeled minority sits high.
losses = np.sort(np.concatenate([
    rng.uniform(0.02, 0.6, 14),   # plausibly clean
    rng.uniform(2.5, 6.0, 6),     # plausibly mislabeled
]))

plain = softmax(-losses)
processed = selection_probabilities(losses, epsilon_bias=1.0)

print(f"{'loss':>8} {'p_plain':>10} {'p_processed':>12}")
for l, p, q in zip(losses, plain, processed):
    print(f"{l:8.3f} {p:10.5f} {q:12.5f}")

clean = losses < 1.0
print(f"\nselection mass on the small-loss group: "
      f"plain {plain[clean].sum():.4f} -> processed {processed[clean].sum():.4f}")

shift, beta = probability_shift(losses, epsilon_bias=1.0)
print(f"\npool constant beta = {beta:.4f} (always positive)")
print("identity check: log-probability change equals loss^2 - beta")
print(f"  max residual = {np.abs(shift - (losses ** 2 - beta)).max():.2e}")
print(f"  losses below sqrt(beta) = {np.sqrt(beta):.3f} gain probability, "
      "the rest lose it")
