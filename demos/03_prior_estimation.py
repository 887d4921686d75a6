"""Online class-prior estimation from model outputs.

The true class marginal is unknown under partial labels, so it is
tracked by a moving average of prediction statistics. This demo freezes
the predictions at one snapshot and shows all three update rules
converging geometrically from the uniform start.
"""

import numpy as np

from plrlab import (
    PredictionMatrix,
    PseudoLabelMatrix,
    clamp_prior,
    init_uniform,
    prior_error,
    update_prior,
)
from plrlab.core import Rng

np.set_printoptions(precision=4, suppress=True)

rng = Rng(3)
c = 6
truth = clamp_prior(np.array([0.45, 0.25, 0.12, 0.09, 0.06, 0.03]))
labels = rng.generator.choice(c, size=4000, p=truth.values)

# Noisy soft predictions peaked at the drawn label.
noise = rng.uniform(0.01, 0.2, size=(labels.size, c))
noise[np.arange(labels.size), labels] += 1.0
probs = PredictionMatrix(noise / noise.sum(axis=1, keepdims=True))
pseudo = PseudoLabelMatrix(probs.values)

empirical = clamp_prior(np.bincount(labels, minlength=c).astype(float))
print("truth:    ", truth.values)
print("empirical:", empirical.values)
print()

# hard-pseudo reads pseudo-labels; the two other rules read predictions.
sources = {"hard-pred": probs, "soft-pred": probs, "hard-pseudo": pseudo}
for rule, source in sources.items():
    est = init_uniform(c, mu=0.5, rule=rule)
    errors = []
    for _ in range(8):
        est = update_prior(est, source)
        errors.append(prior_error(est, empirical))
    print(f"{rule:12s} estimate {est.r.values}")
    print(f"{'':12s} max error per update: {np.array(errors)}")
