"""Alternating training loop for a small feed-forward softmax classifier.

Each batch gets a weak and a strong augmented view. Pseudo-labels are
solved in closed form from the weak-view predictions and the current class
prior, then used three ways: a classification loss on the whole batch, a
consistency loss on strong-view predictions of the reliably selected
samples, and a mixup loss on convex combinations of the selected samples.
One SGD step with momentum 0.9, ``_step``, works on plain arrays. Its three row blocks
(the weak view, the strong view of the selected rows, their mix) live in one buffer that
each stage allocates once. Two forward passes fill it (the weak view, then the other two
blocks) and a single backward pass covers all three, each loss's mean folded into the
gradient at the logits, and ``_step`` returns its step record, plain sums. The epoch loop
around it, ``_run_stage``, packs each batch with ``core._pack``, adds the records, blends
the prior with a statistic of the weak-view predictions (under ``hard-pseudo``, the
pseudo-labels) its steps made, and records the metrics; the test-split forward pass reuses
the buffer. Every forward pass is ``_forward_cached``, the one check that predictions are
finite. Training runs in two stages: a short pre-estimation stage (blend coefficient 0.1)
whose only output is a coarse prior, then a re-initialized model trained for real
(coefficient 0.01) with that prior carried over.

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
    CandidateMatrix,
    ClassPrior,
    NonFiniteLoss,
    PlrHyperparams,
    PredictionMatrix,
    PseudoLabelMatrix,
    Rng,
    ShapeMismatch,
    _Validated,
    _check_integers,
    _check_prior,
    _check_type,
    _pack,
    _scatter,
    clamp_prior,
)
from .datagen import PartialDataset
from .prior import RULES, PriorEstimator, init_uniform, prior_error, update_prior
from .report import EpochMetrics, group_accuracy
from .selection import _select_rows, rho_at
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

# Fixed parts of the training recipe: the strong view's per-coordinate dropout
# probability, the alpha of the Beta(alpha, alpha) mixup coefficient, the SGD
# momentum, and the prior's moving-average coefficient in each stage.
_STRONG_DROPOUT = 0.2
_MIXUP_ALPHA = 4.0
_MOMENTUM = 0.9
_MU_PRE, _MU_MAIN = 0.1, 0.01


@dataclass(eq=False)
class ModelParams(_Validated):
    """MLP weights and biases, one pair per layer, as views into one vector."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.float64) for a in (*self.weights, *self.biases)]
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeMismatch("weights and biases must pair up, with at least one layer")
        for layer, (w, b) in enumerate(zip(arrays[: len(arrays) // 2], arrays[len(arrays) // 2 :])):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeMismatch("layer weight/bias shapes disagree")
            if layer and w.shape[0] != arrays[layer - 1].shape[1]:
                raise ShapeMismatch(f"layer {layer} takes {w.shape[0]} inputs, but layer "
                                    f"{layer - 1} gives {arrays[layer - 1].shape[1]}")
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
    hidden: tuple[int, ...] = (64, 64)
    solver: PlrHyperparams | SinkhornConfig = field(default_factory=PlrHyperparams)
    prior_rule: str = "hard-pred"
    pre_epochs: int = 20
    weak_noise_sigma: float = 0.05
    strong_noise_sigma: float = 0.2
    fixed_prior: ClassPrior | None = None
    # Inert: it stays only while the benchmark passes timing=False
    # (benchmarks/workloads.py:58, benchmarks/tests/test_smoke.py:22; ROADMAP item 8).
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
        if not 0 < self.lr0 < math.inf:
            raise ValueError("need a finite lr0 > 0")
        if not (0 <= self.weak_noise_sigma < math.inf and 0 <= self.strong_noise_sigma < math.inf):
            raise ValueError("noise sigmas must be nonnegative and finite")
        if self.prior_rule not in RULES:
            raise ValueError(f"prior_rule must be one of {RULES}: {self.prior_rule!r}")
        if not isinstance(self.solver, (PlrHyperparams, SinkhornConfig)):
            raise ValueError(f"solver must be a PlrHyperparams or SinkhornConfig: {self.solver!r}")
        if not isinstance(self.fixed_prior, (ClassPrior, type(None))):
            raise ValueError(f"fixed_prior must be a ClassPrior or None: {self.fixed_prior!r}")


def init_params(input_dim: int, hidden: tuple[int, ...], n_classes: int,
                rng: Rng) -> ModelParams:
    """He-initialized weights and zero biases."""
    dims = (input_dim,) + tuple(hidden) + (n_classes,)
    _check_integers(dims=dims)
    if min(dims) < 1:
        raise ValueError(f"layer widths must be at least 1, got {dims}")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = math.sqrt(2.0 / fan_in)
        weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def _buffers(params: ModelParams, rows: int) -> list[np.ndarray]:
    """Row buffers for a forward pass: its input, each layer's outputs, the probabilities."""
    return [np.empty((rows, d)) for d in (*params.dims, params.dims[-1])]


def _forward_cached(params: ModelParams, acts: list[np.ndarray], where: str) -> np.ndarray:
    """Forward pass in place on same-length row blocks laid out as :func:`_buffers`:
    from the input ``acts[0]``, each layer writes its post-ReLU activations (the last
    its logits) into the next block, and the row softmax fills the last, returned.
    Raises NonFiniteLoss naming ``where`` when the probabilities are not finite."""
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = acts[layer + 1]
        np.dot(acts[layer], w, out=out)
        out += b
        if layer + 1 < len(params.weights):
            np.maximum(out, 0.0, out=out)
    logits, probs = acts[-2:]
    np.subtract(logits, np.maximum.reduce(logits, axis=1, keepdims=True), out=probs)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=1, keepdims=True)
    if not np.isfinite(probs).all():
        raise NonFiniteLoss(f"predictions went non-finite at {where}; try a smaller learning rate")
    return probs


def forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, PredictionMatrix]:
    """Logits and row-softmax probabilities for a feature batch.

    Raises ValueError on non-finite features, and NonFiniteLoss when the
    probabilities are not finite, as they are once training has diverged.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[0]:
        raise ShapeMismatch(f"input shape {x.shape} vs input dim {params.weights[0].shape[0]}")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    acts = _buffers(params, x.shape[0])  # fresh, so the returned arrays own their memory
    acts[0] = x
    _forward_cached(params, acts, "forward()")
    return acts[-2], PredictionMatrix(acts[-1])


def _backward(params: ModelParams, acts: list[np.ndarray], deltas: list[np.ndarray],
              gw: list[np.ndarray], gb: list[np.ndarray]) -> None:
    """Backpropagation in place, from ``deltas[-1]``, a scalar loss's gradient at the logits,
    into ``gw`` and ``gb``, the :meth:`ModelParams.split` views of a gradient vector. ``acts``
    holds each layer's input rows; ``deltas[:-1]`` receive the hidden layers' gradients."""
    for layer in range(len(gw) - 1, -1, -1):
        grad = deltas[layer]
        np.dot(acts[layer].T, grad, out=gw[layer])
        np.add.reduce(grad, axis=0, out=gb[layer])
        if layer > 0:
            np.dot(grad, params.weights[layer].T, out=deltas[layer - 1])
            deltas[layer - 1] *= acts[layer] > 0.0


def _soft_ce(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-sample cross entropy of predictions ``p`` against soft targets ``w``."""
    return np.add.reduce(-(w * np.log(np.maximum(p, PROB_EPS))), axis=1)


def _grad_logits_soft_ce(p: np.ndarray, w: np.ndarray, scale, out: np.ndarray) -> np.ndarray:
    """Gradient of sum_i scale_i * soft_ce_i at the logits, written into and returned in
    ``out``; ``scale`` is a scalar or a column of per-row weights."""
    return np.multiply(np.subtract(p, w, out=out), scale, out=out)


def sgd_momentum_step(params: ModelParams, grad: np.ndarray, velocity: np.ndarray,
                      lr: float, momentum: float) -> ModelParams:
    """In-place SGD with momentum on ``params.flat``: v = momentum*v + grad; p -= lr*v.

    The caller owns ``velocity``; it is updated in place. A non-finite or
    negative ``lr`` or ``momentum`` raises ValueError before anything changes.
    """
    if not (0 <= lr < math.inf and 0 <= momentum < math.inf):
        raise ValueError(f"need a finite lr >= 0 and momentum >= 0, got {lr!r} and {momentum!r}")
    velocity *= momentum
    velocity += grad
    params.flat -= lr * velocity
    return params


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at epoch 0 toward 0 at total_epochs."""
    _check_integers(epoch=epoch, total_epochs=total_epochs)
    if not 0 <= epoch < total_epochs:
        raise ValueError("epoch must lie in [0, total_epochs)")
    if not 0 < lr0 < math.inf:
        raise ValueError("need a finite lr0 > 0")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def augment(x: np.ndarray, rng: Rng, kind: str, cfg: TrainConfig) -> np.ndarray:
    """Weak view: Gaussian jitter. Strong view: heavier jitter, then a fixed 0.2 dropout."""
    if kind == "weak":
        return x + cfg.weak_noise_sigma * rng.normal(size=x.shape)
    if kind == "strong":
        out = x + cfg.strong_noise_sigma * rng.normal(size=x.shape)
        keep = rng.uniform(size=x.shape) >= _STRONG_DROPOUT
        return out * keep
    raise ValueError(f"unknown augmentation kind {kind!r}")


def _mixup(x: np.ndarray, w: np.ndarray, rng: Rng):
    """Convex combination of the batch with a permuted copy of itself.

    The coefficient is drawn from the fixed Beta(4, 4) and the partner
    permutation is uniform. Target rows stay on the simplex because the
    combination is convex.
    """
    lam_mix = rng.beta(_MIXUP_ALPHA, _MIXUP_ALPHA)
    perm = rng.permutation(x.shape[0])
    return (lam_mix * x + (1.0 - lam_mix) * x[perm],
            lam_mix * w + (1.0 - lam_mix) * w[perm])


def _pseudo_labels(probs: np.ndarray, index: tuple[np.ndarray, np.ndarray, np.ndarray],
                   r: np.ndarray, solver: PlrHyperparams | SinkhornConfig) -> np.ndarray:
    """The weights of the kernel ``solver`` names at the packed candidate entries ``index``,
    from validated-upstream ``probs`` and prior ``r``; scattered, they stay on the candidates."""
    return (_solar_weights(probs, *index, r, solver)[0] if isinstance(solver, SinkhornConfig)
            else _plr_weights(probs, *index, r, solver.lam, solver.m))


def _step(params: ModelParams, velocity: np.ndarray, ws: tuple, x: np.ndarray, index: tuple,
          r: np.ndarray, cfg: TrainConfig, rng: Rng, lr: float, rho: float,
          seen: np.ndarray, where: str) -> np.ndarray:
    """One SGD step on a batch with packed candidates ``index`` and prior ``r``, in place
    on ``params``, ``velocity`` and the stage's buffers ``ws``; writes the batch's rows of
    the prior's source, its weak-view predictions (pseudo-labels under ``hard-pseudo``), into
    ``seen`` and returns its step record of plain sums. Either forward pass raises
    NonFiniteLoss naming ``where``."""
    acts, deltas, targets, grad, gw, gb = ws
    n = x.shape[0]
    weak = augment(x, rng, "weak", cfg)
    strong = augment(x, rng, "strong", cfg)
    acts[0][:n] = weak
    probs = _forward_cached(params, [a[:n] for a in acts], where)
    w = _scatter(_pseudo_labels(probs, index, r, cfg.solver), index[0], probs.shape)
    seen[...] = w if cfg.prior_rule == "hard-pseudo" else probs

    losses = _soft_ce(probs, w)
    selected = _select_rows(np.argmax(w, axis=1), losses, r, rho)
    k = selected.size
    m = n + 2 * k
    _grad_logits_soft_ce(probs, w, 1.0 / n, deltas[-1][:n])
    # Rows [n:n+k] take the strong view of the selected rows, [n+k:m] their mix; k >= 1,
    # since every label group present has a cap ceil(rho * r_k * n) >= 1.
    t = targets[: 2 * k]
    np.take(strong, selected, axis=0, out=acts[0][n : n + k])
    np.take(w, selected, axis=0, out=t[:k])
    acts[0][n + k : m], t[k:] = _mixup(weak[selected], t[:k], rng)
    probs_sm = _forward_cached(params, [a[n:m] for a in acts], where)
    losses_sm = _soft_ce(probs_sm, t)
    _grad_logits_soft_ce(probs_sm, t, 1.0 / k, deltas[-1][n:m])

    _backward(params, [a[:m] for a in acts], [d[:m] for d in deltas], gw, gb)
    sgd_momentum_step(params, grad, velocity, lr, _MOMENTUM)
    # The step record's slots: the cls, cons and mix loss sums, then the selected rows.
    return np.array([np.add.reduce(losses), np.add.reduce(losses_sm[:k]),
                     np.add.reduce(losses_sm[k:]), k], dtype=np.float64)


def _run_stage(params: ModelParams, ds: PartialDataset, cfg: TrainConfig,
               est: PriorEstimator, epochs: int, rng: Rng,
               test: PartialDataset | None) -> tuple[PriorEstimator, list[EpochMetrics]]:
    # Every pass of the stage runs in buffers allocated once: a step's rows [weak; strong
    # selected; mixed] fill at most 3 batches, and the test forward pass reuses their first
    # rows, the input included.
    b = min(cfg.batch_size, ds.n_samples)
    acts = _buffers(params, max(3 * b, 0 if test is None else test.n_samples))
    grad = np.empty_like(params.flat)
    ws = (acts, [np.empty((3 * b, w.shape[1])) for w in params.weights],
          np.empty((2 * b, ds.n_classes)), grad, *params.split(grad))
    velocity = np.zeros_like(params.flat)
    truth = clamp_prior(ds.class_counts.astype(np.float64))
    metrics = []
    for epoch in range(epochs):
        ep_rng = rng.child(epoch)
        lr = cosine_lr(epoch, epochs, cfg.lr0)
        rho = rho_at(epoch)
        order = ep_rng.permutation(ds.n_samples)
        features, bits = ds.features[order], ds.candidates.bits[order]
        record = np.zeros(4)
        # The prior's source in epoch order; fresh, since the matrix built from it freezes it.
        seen = np.empty((ds.n_samples, ds.n_classes))
        for batch, start in enumerate(range(0, ds.n_samples, cfg.batch_size)):
            end = start + cfg.batch_size
            record += _step(params, velocity, ws, features[start:end], _pack(bits[start:end]),
                            est.r.values, cfg, ep_rng, lr, rho, seen[start:end],
                            f"epoch {epoch}, batch {batch}")
        if cfg.fixed_prior is None:
            est = update_prior(est, PredictionMatrix(seen) if cfg.prior_rule != "hard-pseudo" else
                               PseudoLabelMatrix._from_packed(seen[bits], CandidateMatrix(bits)))

        accs = (math.nan,) * 4
        if test is not None:
            acts[0][: test.n_samples] = test.features
            preds = np.argmax(_forward_cached(
                params, [a[: test.n_samples] for a in acts], f"epoch {epoch}, test split"), axis=1)
            acc = group_accuracy(preds, test.true_labels, test.group_boundaries)
            accs = (acc.overall, acc.many, acc.medium, acc.few)
        means = record[:3] / (ds.n_samples, record[3], record[3])
        metrics.append(EpochMetrics(epoch, lr, *means.tolist(), *accs, prior_error(est, truth)))
    return est, metrics


def train(ds: PartialDataset, cfg: TrainConfig,
          test: PartialDataset | None = None) -> tuple[ModelParams, list[EpochMetrics], PriorEstimator]:
    """Two-stage run: prior pre-estimation, re-init, then the real training.

    Returns the parameters, the second stage's per-epoch metrics and the final
    prior estimator; a ``cfg.fixed_prior`` replaces the first stage and is never
    refreshed. A ``test`` split or fixed prior not fitting ``ds`` raises ShapeMismatch.
    """
    _check_type("dataset", ds, PartialDataset)
    if test is not None:
        _check_type("test set", test, PartialDataset)
    _check_type("config", cfg, TrainConfig)
    c = ds.n_classes
    if test is not None and (test.n_classes, test.feature_dim) != (c, ds.feature_dim):
        raise ShapeMismatch(f"test set has {test.n_classes} classes and {test.feature_dim} "
                            f"features, training set {c} and {ds.feature_dim}")
    rng = Rng(cfg.seed)
    est = init_uniform(c, mu=_MU_PRE, rule=cfg.prior_rule)
    if cfg.fixed_prior is not None:
        _check_prior(c, cfg.fixed_prior)
        est = replace(est, r=cfg.fixed_prior)
    elif cfg.pre_epochs > 0:
        pre_params = init_params(ds.feature_dim, cfg.hidden, c, rng.child(0))
        est, _ = _run_stage(pre_params, ds, cfg, est, cfg.pre_epochs, rng.child(1), None)

    params = init_params(ds.feature_dim, cfg.hidden, c, rng.child(2))
    est = replace(est, mu=_MU_MAIN)
    est, metrics = _run_stage(params, ds, cfg, est, cfg.epochs, rng.child(3), test)
    # Without a test set, no forward pass sees the parameters the last step left.
    if not np.isfinite(params.flat).all():
        raise NonFiniteLoss("training left non-finite parameters; try a smaller learning rate")
    return params, metrics, est
