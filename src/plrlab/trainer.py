"""Alternating training loop for a small feed-forward softmax classifier.

Each batch gets a weak and a strong augmented view. Pseudo-labels are
solved in closed form from the weak-view predictions and the current class
prior, then used three ways: a classification loss on the whole batch, a
consistency loss on strong-view predictions of the reliably selected
samples, and a mixup loss on convex combinations of the selected samples.
One SGD step runs two forward passes (the weak view, then the strong
selected rows stacked with the mixed rows) and a single backward pass over
all three row blocks, each loss's weight and mean folded into the
gradient at the logits.
The prior is re-estimated once per epoch from full-train-set weak-view
predictions. Training runs in two stages: a short pre-estimation stage
whose only output is a coarse prior, after which the model is
re-initialized and trained for real with that prior carried over.

Backpropagation through the ReLU MLP is written out analytically; there
is no autodiff dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    PROB_EPS,
    NonFiniteLoss,
    PlrHyperparams,
    PredictionMatrix,
    PseudoLabelMatrix,
    Rng,
    ShapeMismatch,
    _check_support,
    clamp_prior,
)
from .datagen import PartialDataset
from .prior import PriorEstimator, init_uniform, prior_error, update_prior
from .report import EpochMetrics, group_accuracy
from .selection import SelectionConfig, _select_rows, rho_at
from .sinkhorn import SinkhornConfig, _solar_weights
from .solver import _plr_weights

__all__ = [
    "ModelParams",
    "TrainConfig",
    "init_params",
    "forward",
    "sgd_momentum_step",
    "cosine_lr",
    "augment",
    "train",
]


@dataclass
class ModelParams:
    """MLP weights and biases, one pair per layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        # Owned float64 copies: sgd_momentum_step updates them in place.
        self.weights = [np.array(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.array(b, dtype=np.float64) for b in self.biases]
        if len(self.weights) != len(self.biases):
            raise ShapeMismatch("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeMismatch("layer weight/bias shapes disagree")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("model parameters must be finite")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the dataset itself."""

    epochs: int = 100
    batch_size: int = 256
    lr0: float = 0.01
    momentum: float = 0.9
    hidden: tuple[int, ...] = (64, 64)
    plr: PlrHyperparams = field(default_factory=PlrHyperparams)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    prior_rule: str = "hard-pred"
    mu_schedule: tuple[float, float] = (0.1, 0.01)
    pre_epochs: int = 20
    weak_noise_sigma: float = 0.05
    strong_noise_sigma: float = 0.2
    strong_dropout_p: float = 0.2
    mixup_alpha: float = 4.0
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    solver: str = "plr"
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    restrict_all_losses: bool = False
    freeze_prior: bool = False
    # Inert: nothing reads it. It stays only because the benchmark still
    # passes timing=False (benchmarks/workloads.py:58 and
    # benchmarks/tests/test_smoke.py:22); it goes once ROADMAP item 1
    # stops passing it.
    timing: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.pre_epochs < 0:
            raise ValueError("epochs and batch_size must be positive, pre_epochs nonnegative")
        if any(width < 1 for width in self.hidden):
            raise ValueError("hidden layer widths must be at least 1")
        # Each test is negated, so NaN fails it too.
        if not 0 < self.lr0 < math.inf or not 0.0 <= self.momentum < 1.0:
            raise ValueError("need a finite lr0 > 0 and momentum in [0, 1)")
        if len(self.mu_schedule) != 2 or len(self.loss_weights) != 3:
            raise ValueError("mu_schedule needs 2 entries and loss_weights 3")
        if not all(0.0 <= mu <= 1.0 for mu in self.mu_schedule):
            raise ValueError("mu_schedule entries must lie in [0, 1]")
        if not (0 <= self.weak_noise_sigma < math.inf and 0 <= self.strong_noise_sigma < math.inf):
            raise ValueError("noise sigmas must be nonnegative and finite")
        if not 0.0 <= self.strong_dropout_p <= 1.0:
            raise ValueError("strong_dropout_p must lie in [0, 1]")
        if not 0 < self.mixup_alpha < math.inf:
            raise ValueError("mixup_alpha must be positive and finite")
        if not all(0 <= wt < math.inf for wt in self.loss_weights) or not any(self.loss_weights):
            raise ValueError("loss weights must be nonnegative and finite, and one positive")
        if self.solver not in ("plr", "sinkhorn"):
            raise ValueError("solver must be 'plr' or 'sinkhorn'")


def init_params(input_dim: int, hidden: tuple[int, ...], n_classes: int,
                rng: Rng) -> ModelParams:
    """He-initialized weights and zero biases."""
    dims = (input_dim,) + tuple(hidden) + (n_classes,)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = math.sqrt(2.0 / fan_in)
        weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def _forward_cached(params: ModelParams, x: np.ndarray):
    """Forward pass keeping post-ReLU activations for backprop."""
    acts = [x]
    out = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        out = np.maximum(out @ w + b, 0.0)
        acts.append(out)
    logits = out @ params.weights[-1] + params.biases[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    return acts, logits, probs


def forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, PredictionMatrix]:
    """Logits and row-softmax probabilities for a feature batch.

    Raises NonFiniteLoss when the probabilities are not finite, as they
    are once training has diverged.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[0]:
        raise ShapeMismatch(f"input shape {x.shape} vs input dim {params.weights[0].shape[0]}")
    _, logits, probs = _forward_cached(params, x)
    if not np.all(np.isfinite(probs)):
        raise NonFiniteLoss("forward pass gave non-finite predictions")
    return logits, PredictionMatrix(probs)


def _backward(params: ModelParams, acts: list[np.ndarray],
              dlogits: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of a scalar loss given its gradient at the logits."""
    n_layers = len(params.weights)
    gw = [None] * n_layers
    gb = [None] * n_layers
    grad = dlogits
    for layer in range(n_layers - 1, -1, -1):
        gw[layer] = acts[layer].T @ grad
        gb[layer] = grad.sum(axis=0)
        if layer > 0:
            grad = (grad @ params.weights[layer].T) * (acts[layer] > 0.0)
    return gw, gb


def _soft_ce(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-sample cross entropy of predictions ``p`` against soft targets ``w``."""
    return -(w * np.log(np.maximum(p, PROB_EPS))).sum(axis=1)


def _grad_logits_soft_ce(p: np.ndarray, w: np.ndarray, scale) -> np.ndarray:
    """Gradient of sum_i scale_i * soft_ce_i at the logits; ``scale`` is a
    scalar or a column of per-row weights."""
    return (p - w) * scale


def sgd_momentum_step(params: ModelParams, grads, velocity: list[np.ndarray],
                      lr: float, momentum: float) -> ModelParams:
    """In-place SGD with momentum: v = momentum*v + grad; p -= lr*v.

    ``velocity`` holds one buffer per array of ``params.weights +
    params.biases``, in that order; the caller owns it and it is updated
    in place.
    """
    gw, gb = grads
    for p, v, g in zip(params.weights + params.biases, velocity, gw + gb):
        v *= momentum
        v += g
        p -= lr * v
    return params


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at epoch 0 toward 0 at total_epochs."""
    if not 0 <= epoch < total_epochs:
        raise ValueError("epoch must lie in [0, total_epochs)")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def augment(x: np.ndarray, rng: Rng, kind: str, cfg: TrainConfig) -> np.ndarray:
    """Weak view: Gaussian jitter. Strong view: heavier jitter plus dropout."""
    if kind == "weak":
        return x + cfg.weak_noise_sigma * rng.normal(size=x.shape)
    if kind == "strong":
        out = x + cfg.strong_noise_sigma * rng.normal(size=x.shape)
        keep = rng.uniform(size=x.shape) >= cfg.strong_dropout_p
        return out * keep
    raise ValueError(f"unknown augmentation kind {kind!r}")


def _mixup(x: np.ndarray, w: np.ndarray, alpha: float, rng: Rng):
    """Convex combination of the batch with a permuted copy of itself.

    The coefficient is Beta(alpha, alpha) and the partner permutation is
    uniform. Target rows stay on the simplex because the combination is
    convex.
    """
    lam_mix = rng.beta(alpha, alpha)
    perm = rng.permutation(x.shape[0])
    return (lam_mix * x + (1.0 - lam_mix) * x[perm],
            lam_mix * w + (1.0 - lam_mix) * w[perm])


def _pseudo_labels(probs: np.ndarray, bits: np.ndarray, est: PriorEstimator,
                   cfg: TrainConfig) -> np.ndarray:
    """Pseudo-label array for validated-upstream predictions and candidate rows."""
    if cfg.solver == "sinkhorn":
        return _solar_weights(probs, bits, est.r.values, cfg.sinkhorn)[0]
    return _plr_weights(probs, bits, est.r.values, cfg.plr.lam, cfg.plr.m)


def _row_scales(batch: int, cls_rows: np.ndarray, n_selected: int,
                loss_weights: tuple[float, float, float]) -> np.ndarray:
    """Per-row weight of the stacked [weak; strong_sel; mix] rows in dlogits.

    Each loss is its weight times the mean over its rows: ``cls_rows`` of
    the weak block (rows outside it get weight zero), and the whole of the
    two ``n_selected``-row blocks.
    """
    weight_cls, weight_cons, weight_mix = loss_weights
    scale = np.zeros(batch + 2 * n_selected)
    scale[cls_rows] = weight_cls / cls_rows.size
    if n_selected:
        scale[batch : batch + n_selected] = weight_cons / n_selected
        scale[batch + n_selected :] = weight_mix / n_selected
    return scale


def _check_finite(name: str, value: float, epoch: int, batch: int) -> None:
    if not math.isfinite(value):
        raise NonFiniteLoss(f"{name} loss is {value} at epoch {epoch}, batch {batch}")


def _run_stage(params: ModelParams, ds: PartialDataset, cfg: TrainConfig,
               est: PriorEstimator, epochs: int, rng: Rng,
               metrics_out: list | None, test: PartialDataset | None):
    velocity = [np.zeros_like(p) for p in params.weights + params.biases]
    for epoch in range(epochs):
        ep_rng = rng.child(epoch)
        lr = cosine_lr(epoch, epochs, cfg.lr0)
        rho = rho_at(cfg.selection, epoch)
        order = ep_rng.permutation(ds.n_samples)
        sums = np.zeros(3)
        counts = np.zeros(3)

        for batch, start in enumerate(range(0, ds.n_samples, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            xb = ds.features[idx]
            bits = ds.candidates.bits[idx]
            weak = augment(xb, ep_rng, "weak", cfg)
            strong = augment(xb, ep_rng, "strong", cfg)

            acts, _, probs = _forward_cached(params, weak)
            if not np.all(np.isfinite(probs)):
                raise NonFiniteLoss(
                    f"predictions went non-finite at epoch {epoch}, "
                    f"batch {batch}; try a smaller learning rate")
            w = _pseudo_labels(probs, bits, est, cfg)
            _check_support(w, bits)

            losses = _soft_ce(probs, w)
            selected = _select_rows(np.argmax(w, axis=1), losses, est.r.values, rho)
            k = selected.size
            cls_rows = selected if cfg.restrict_all_losses and k else np.arange(idx.size)
            loss_cls = float(losses[cls_rows].mean())
            _check_finite("classification", loss_cls, epoch, batch)
            sums[0] += loss_cls * cls_rows.size
            counts[0] += cls_rows.size

            targets = w
            if k:
                w_sel = w[selected]
                x_mix, w_mix = _mixup(weak[selected], w_sel, cfg.mixup_alpha, ep_rng)
                acts_sm, _, probs_sm = _forward_cached(
                    params, np.concatenate((strong[selected], x_mix)))
                targets_sm = np.concatenate((w_sel, w_mix))
                losses_sm = _soft_ce(probs_sm, targets_sm)
                loss_cons = float(losses_sm[:k].mean())
                loss_mix = float(losses_sm[k:].mean())
                _check_finite("consistency", loss_cons, epoch, batch)
                _check_finite("mixup", loss_mix, epoch, batch)
                sums[1] += loss_cons * k
                sums[2] += loss_mix * k
                counts[1:] += k
                acts = [np.concatenate(pair) for pair in zip(acts, acts_sm)]
                probs = np.concatenate((probs, probs_sm))
                targets = np.concatenate((w, targets_sm))

            scale = _row_scales(idx.size, cls_rows, k, cfg.loss_weights)
            grads = _backward(params, acts, _grad_logits_soft_ce(probs, targets, scale[:, None]))
            sgd_momentum_step(params, grads, velocity, lr, cfg.momentum)

        # Epoch-level prior refresh from full-train-set weak-view predictions.
        # Each epoch draws from its own child rng, so skipping these draws
        # under a frozen prior leaves every later epoch unchanged.
        if not cfg.freeze_prior:
            _, source = forward(params, augment(ds.features, ep_rng, "weak", cfg))
            if est.rule == "hard-pseudo":
                source = PseudoLabelMatrix(
                    _pseudo_labels(source.values, ds.candidates.bits, est, cfg))
            est = update_prior(est, source)

        if metrics_out is not None:
            if test is not None:
                _, test_probs = forward(params, test.features)
                preds = np.argmax(test_probs.values, axis=1)
                acc = group_accuracy(preds, test.true_labels, test.group_boundaries)
                accs = (acc.overall, acc.many, acc.medium, acc.few)
            else:
                accs = (math.nan,) * 4
            prior_err = prior_error(est, clamp_prior(ds.class_counts.astype(np.float64)))
            means = [sums[i] / counts[i] if counts[i] else 0.0 for i in range(3)]
            metrics_out.append(EpochMetrics(
                epoch, lr, means[0], means[1], means[2],
                accs[0], accs[1], accs[2], accs[3], prior_err,
            ))
    return est


def train(ds: PartialDataset, cfg: TrainConfig,
          test: PartialDataset | None = None) -> tuple[ModelParams, list[EpochMetrics], PriorEstimator]:
    """Two-stage run: prior pre-estimation, re-init, then the real training.

    Returns the trained parameters, per-epoch metrics for the second
    stage, and the final prior estimator.
    """
    rng = Rng(cfg.seed)
    c = ds.n_classes
    est = init_uniform(c, mu=cfg.mu_schedule[0], rule=cfg.prior_rule)
    if cfg.pre_epochs > 0 and not cfg.freeze_prior:
        pre_params = init_params(ds.feature_dim, cfg.hidden, c, rng.child(0))
        est = _run_stage(pre_params, ds, cfg, est, cfg.pre_epochs, rng.child(1), None, None)

    params = init_params(ds.feature_dim, cfg.hidden, c, rng.child(2))
    est = replace(est, mu=cfg.mu_schedule[1])
    metrics: list[EpochMetrics] = []
    est = _run_stage(params, ds, cfg, est, cfg.epochs, rng.child(3), metrics, test)
    # With a frozen prior and no test set, nothing else checks the last step.
    if not all(np.isfinite(a).all() for a in params.weights + params.biases):
        raise NonFiniteLoss("training left non-finite parameters; try a smaller learning rate")
    return params, metrics, est
