"""End-to-end comparison on a synthetic long-tailed partially-labeled task.

Generates a 10-class dataset with a 100:1 imbalance and half the negative
labels flipped into the candidate sets, then trains the same model twice:
once with the prior-punishing update (m=2) and once degenerate to plain
masked renormalization (m=0). Reported is the test accuracy overall and
per class-frequency group. Takes about ten seconds.
"""

import numpy as np

from plrlab import DatasetSpec, PlrHyperparams, TrainConfig, gen_dataset, train

spec = DatasetSpec(n_classes=10, head_count=500, imbalance_ratio=100.0,
                   flip_prob=0.5, feature_dim=16, class_separation=4.0,
                   test_per_class=50, seed=1)
train_ds, test_ds = gen_dataset(spec)
print("class counts:", train_ds.class_counts)
print("mean candidate-set size:", train_ds.candidates.bits.sum(axis=1).mean())
print()

for m in (0.0, 2.0):
    cfg = TrainConfig(epochs=100, pre_epochs=20, batch_size=64,
                      weak_noise_sigma=0.2, strong_noise_sigma=0.8,
                      plr=PlrHyperparams(lam=3.0, m=m), seed=1)
    _, metrics, est = train(train_ds, cfg, test_ds)
    last = metrics[-1]
    label = "regularized (m=2)" if m else "plain (m=0)     "
    print(f"{label}: all={last.acc_all:5.1f} many={last.acc_many:5.1f} "
          f"medium={last.acc_med:5.1f} few={last.acc_few:5.1f}")
    print(f"{'':17s}  estimated prior: {np.round(est.r.values, 3)}")
