"""Alternating training loop for a small feed-forward softmax classifier.

Each batch gets a weak and a strong augmented view. Pseudo-labels are
solved in closed form from the weak-view predictions and the current class
prior, then used three ways: a classification loss on the whole batch, a
consistency loss on strong-view predictions of the reliably selected
samples, and a mixup loss on convex combinations of the selected samples.
One SGD step, ``_step``, works on plain arrays. It runs two forward passes
(the weak view, then the strong selected rows stacked with the mixed rows)
and a single backward pass over all three row blocks, each loss's weight
and mean folded into the gradient at the logits. The epoch loop around
it, ``_run_stage``, slices the batches, sums the losses, re-estimates the
prior from full-train-set weak-view predictions and records the metrics.
Training runs in two stages: a short pre-estimation stage whose only
output is a coarse prior, after which the model is re-initialized and
trained for real with that prior carried over.

Backpropagation through the ReLU MLP is written out analytically; there
is no autodiff dependency. The parameters live in one float64 vector,
``ModelParams.flat``, whose per-layer views are the weights and biases; a
gradient and the SGD velocity are vectors with the same layout.
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
    _check_integers,
    _pack,
    _scatter,
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


@dataclass(eq=False)
class ModelParams:
    """MLP weights and biases, one pair per layer, as views into one vector."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.float64) for a in (*self.weights, *self.biases)]
        if len(self.weights) != len(self.biases):
            raise ShapeMismatch("weights and biases must pair up")
        for w, b in zip(arrays[: len(arrays) // 2], arrays[len(arrays) // 2 :]):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeMismatch("layer weight/bias shapes disagree")
        # One owned vector, weights then biases; gradients and velocity share its layout.
        self.flat = np.concatenate([a.ravel() for a in arrays])
        if not np.isfinite(self.flat).all():
            raise ValueError("model parameters must be finite")
        ends = np.cumsum([a.size for a in arrays])
        self._layout = [(end - a.size, end, a.shape) for a, end in zip(arrays, ends)]
        self.weights, self.biases = self.split(self.flat)

    def split(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a vector laid out like ``flat``."""
        views = [vector[start:end].reshape(shape) for start, end, shape in self._layout]
        return views[: len(views) // 2], views[len(views) // 2 :]

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the dataset itself; ``solver`` holds the
    pseudo-label solver's config, whose type names it: PlrHyperparams or SinkhornConfig."""

    epochs: int = 100
    batch_size: int = 256
    lr0: float = 0.01
    momentum: float = 0.9
    hidden: tuple[int, ...] = (64, 64)
    solver: PlrHyperparams | SinkhornConfig = field(default_factory=PlrHyperparams)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    prior_rule: str = "hard-pred"
    mu_schedule: tuple[float, float] = (0.1, 0.01)
    pre_epochs: int = 20
    weak_noise_sigma: float = 0.05
    strong_noise_sigma: float = 0.2
    strong_dropout_p: float = 0.2
    mixup_alpha: float = 4.0
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    restrict_all_losses: bool = False
    freeze_prior: bool = False
    # Inert: nothing reads it. It stays only because the benchmark still
    # passes timing=False (benchmarks/workloads.py:58 and
    # benchmarks/tests/test_smoke.py:22); it goes once ROADMAP item 8
    # stops passing it.
    timing: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_integers(epochs=self.epochs, batch_size=self.batch_size,
                        pre_epochs=self.pre_epochs, hidden=self.hidden, seed=self.seed)
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
        if not isinstance(self.solver, (PlrHyperparams, SinkhornConfig)):
            raise ValueError(f"solver must be a PlrHyperparams or SinkhornConfig: {self.solver!r}")


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


def _backward(params: ModelParams, acts: list[np.ndarray], dlogits: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss, laid out like ``params.flat``, from its gradient at the logits."""
    out = np.empty_like(params.flat)
    gw, gb = params.split(out)
    grad = dlogits
    for layer in range(len(gw) - 1, -1, -1):
        np.matmul(acts[layer].T, grad, out=gw[layer])
        grad.sum(axis=0, out=gb[layer])
        if layer > 0:
            grad = (grad @ params.weights[layer].T) * (acts[layer] > 0.0)
    return out


def _soft_ce(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-sample cross entropy of predictions ``p`` against soft targets ``w``."""
    return -(w * np.log(np.maximum(p, PROB_EPS))).sum(axis=1)


def _grad_logits_soft_ce(p: np.ndarray, w: np.ndarray, scale) -> np.ndarray:
    """Gradient of sum_i scale_i * soft_ce_i at the logits; ``scale`` is a
    scalar or a column of per-row weights."""
    return (p - w) * scale


def sgd_momentum_step(params: ModelParams, grad: np.ndarray, velocity: np.ndarray,
                      lr: float, momentum: float) -> ModelParams:
    """In-place SGD with momentum on ``params.flat``: v = momentum*v + grad; p -= lr*v.

    The caller owns ``velocity``; it is updated in place.
    """
    velocity *= momentum
    velocity += grad
    params.flat -= lr * velocity
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


def _pseudo_labels(probs: np.ndarray, index: tuple[np.ndarray, np.ndarray, np.ndarray],
                   r: np.ndarray, solver: PlrHyperparams | SinkhornConfig) -> np.ndarray:
    """The weights of the kernel ``solver`` names at the packed candidate entries ``index``,
    from validated-upstream ``probs`` and prior ``r``; scattered, they stay on the candidates."""
    return (_solar_weights(probs, *index, r, solver)[0] if isinstance(solver, SinkhornConfig)
            else _plr_weights(probs, *index, r, solver.lam, solver.m))


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


def _mean_loss(name: str, losses: np.ndarray, epoch: int, batch: int) -> float:
    value = float(losses.mean())
    if not math.isfinite(value):
        raise NonFiniteLoss(f"{name} loss is {value} at epoch {epoch}, batch {batch}")
    return value


def _step(params: ModelParams, velocity: np.ndarray, x: np.ndarray, bits: np.ndarray,
          est: PriorEstimator, cfg: TrainConfig, rng: Rng, lr: float, rho: float,
          epoch: int, batch: int) -> tuple[list[float], list[int]]:
    """One SGD step on a batch, in place on ``params`` and ``velocity``.

    Returns each loss's row-weighted sum and row count: (cls, cons, mix).
    """
    weak = augment(x, rng, "weak", cfg)
    strong = augment(x, rng, "strong", cfg)
    acts, _, probs = _forward_cached(params, weak)
    if not np.all(np.isfinite(probs)):
        raise NonFiniteLoss(f"predictions went non-finite at epoch {epoch}, "
                            f"batch {batch}; try a smaller learning rate")
    index = _pack(bits)
    w = _scatter(_pseudo_labels(probs, index, est.r.values, cfg.solver), index[0], probs.shape)

    losses = _soft_ce(probs, w)
    selected = _select_rows(np.argmax(w, axis=1), losses, est.r.values, rho)
    k = selected.size
    cls_rows = selected if cfg.restrict_all_losses and k else np.arange(x.shape[0])
    loss_cls = _mean_loss("classification", losses[cls_rows], epoch, batch)
    sums, counts = [loss_cls * cls_rows.size, 0.0, 0.0], [cls_rows.size, 0, 0]

    targets = w
    if k:
        w_sel = w[selected]
        x_mix, w_mix = _mixup(weak[selected], w_sel, cfg.mixup_alpha, rng)
        acts_sm, _, probs_sm = _forward_cached(params, np.concatenate((strong[selected], x_mix)))
        targets_sm = np.concatenate((w_sel, w_mix))
        losses_sm = _soft_ce(probs_sm, targets_sm)
        loss_cons = _mean_loss("consistency", losses_sm[:k], epoch, batch)
        loss_mix = _mean_loss("mixup", losses_sm[k:], epoch, batch)
        sums[1:], counts[1:] = [loss_cons * k, loss_mix * k], [k, k]
        acts = [np.concatenate(pair) for pair in zip(acts, acts_sm)]
        probs = np.concatenate((probs, probs_sm))
        targets = np.concatenate((w, targets_sm))

    scale = _row_scales(x.shape[0], cls_rows, k, cfg.loss_weights)
    grad = _backward(params, acts, _grad_logits_soft_ce(probs, targets, scale[:, None]))
    sgd_momentum_step(params, grad, velocity, lr, cfg.momentum)
    return sums, counts


def _run_stage(params: ModelParams, ds: PartialDataset, cfg: TrainConfig,
               est: PriorEstimator, epochs: int, rng: Rng,
               test: PartialDataset | None) -> tuple[PriorEstimator, list[EpochMetrics]]:
    velocity = np.zeros_like(params.flat)
    metrics = []
    for epoch in range(epochs):
        ep_rng = rng.child(epoch)
        lr = cosine_lr(epoch, epochs, cfg.lr0)
        rho = rho_at(cfg.selection, epoch)
        order = ep_rng.permutation(ds.n_samples)
        totals = np.zeros((2, 3))  # each loss's sum over rows, then its row count
        for batch, start in enumerate(range(0, ds.n_samples, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            totals += _step(params, velocity, ds.features[idx], ds.candidates.bits[idx],
                            est, cfg, ep_rng, lr, rho, epoch, batch)

        # Epoch-level prior refresh from full-train-set weak-view predictions.
        # Each epoch draws from its own child rng, so skipping these draws
        # under a frozen prior leaves every later epoch unchanged.
        if not cfg.freeze_prior:
            _, source = forward(params, augment(ds.features, ep_rng, "weak", cfg))
            if est.rule == "hard-pseudo":
                index, f = ds.candidates.packed, source.values
                source = PseudoLabelMatrix._from_packed(
                    _pseudo_labels(f, index, est.r.values, cfg.solver), *index[:2], f.shape)
            est = update_prior(est, source)

        accs = (math.nan,) * 4
        if test is not None:
            _, test_probs = forward(params, test.features)
            preds = np.argmax(test_probs.values, axis=1)
            acc = group_accuracy(preds, test.true_labels, test.group_boundaries)
            accs = (acc.overall, acc.many, acc.medium, acc.few)
        prior_err = prior_error(est, clamp_prior(ds.class_counts.astype(np.float64)))
        means = [s / n if n else 0.0 for s, n in zip(*totals)]
        metrics.append(EpochMetrics(epoch, lr, *means, *accs, prior_err))
    return est, metrics


def train(ds: PartialDataset, cfg: TrainConfig,
          test: PartialDataset | None = None) -> tuple[ModelParams, list[EpochMetrics], PriorEstimator]:
    """Two-stage run: prior pre-estimation, re-init, then the real training.

    Returns the trained parameters, per-epoch metrics for the second
    stage, and the final prior estimator. A ``test`` split whose class count
    or feature dim differs from ``ds``'s raises ShapeMismatch up front.
    """
    c = ds.n_classes
    if test is not None and (test.n_classes, test.feature_dim) != (c, ds.feature_dim):
        raise ShapeMismatch(f"test set has {test.n_classes} classes and {test.feature_dim} "
                            f"features, training set {c} and {ds.feature_dim}")
    rng = Rng(cfg.seed)
    est = init_uniform(c, mu=cfg.mu_schedule[0], rule=cfg.prior_rule)
    if cfg.pre_epochs > 0 and not cfg.freeze_prior:
        pre_params = init_params(ds.feature_dim, cfg.hidden, c, rng.child(0))
        est, _ = _run_stage(pre_params, ds, cfg, est, cfg.pre_epochs, rng.child(1), None)

    params = init_params(ds.feature_dim, cfg.hidden, c, rng.child(2))
    est = replace(est, mu=cfg.mu_schedule[1])
    est, metrics = _run_stage(params, ds, cfg, est, cfg.epochs, rng.child(3), test)
    # With a frozen prior and no test set, nothing else checks the last step.
    if not np.isfinite(params.flat).all():
        raise NonFiniteLoss("training left non-finite parameters; try a smaller learning rate")
    return params, metrics, est
