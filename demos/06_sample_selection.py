"""Reliable-sample selection: per-class budgets from the ramped fraction.

A batch is bucketed by pseudo-label argmax and each bucket keeps its
smallest-loss members, at most ceil(rho * r_k * batch) of them. Early in
training rho is small and selection is strict; it ramps up linearly from
0.2 at epoch 0 to 0.5 at epoch 50, a fixed part of the training recipe.
"""

import numpy as np

from plrlab import PseudoLabelMatrix, clamp_prior, rho_at, select_reliable
from plrlab.core import Rng

np.set_printoptions(precision=3, suppress=True)

print("rho schedule:", [round(rho_at(e), 3) for e in (0, 10, 25, 40, 50, 80)])
print()

rng = Rng(5)
batch, c = 20, 3
vals = rng.uniform(0.01, 1.0, (batch, c)) ** 2
vals /= vals.sum(axis=1, keepdims=True)
w = PseudoLabelMatrix(vals)
losses = rng.uniform(0.0, 3.0, batch)
r = clamp_prior(np.array([0.6, 0.3, 0.1]))

labels = np.argmax(vals, axis=1)
print("pseudo argmax per sample:", labels)
print("losses:                  ", losses)
print()

for epoch in (0, 25, 80):
    rho = rho_at(epoch)
    kept = select_reliable(w, losses, r, rho)
    budgets = {k: int(np.ceil(rho * r.values[k] * batch)) for k in range(c)}
    print(f"epoch {epoch:2d} (rho={rho:.2f}): budgets per class {budgets}, "
          f"selected {kept.tolist()}")

# The selected set only ever grows with rho.
sets = [set(select_reliable(w, losses, r, rho).tolist())
        for rho in (0.1, 0.3, 0.5, 1.0)]
print("\nnested as rho grows:", all(a <= b for a, b in zip(sets, sets[1:])))
