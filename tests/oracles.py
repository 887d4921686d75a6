"""Independent reference implementations used to check the library.

Everything here is written from the objective definition alone, without
touching the closed-form code paths, so tests compare two genuinely
different routes to the same numbers. The reference trainer is the one
exception: it calls the public solvers, which the oracles above check, and
re-derives only the training step around them.
"""

import itertools
import math

import numpy as np

from plrlab.core import (
    PROB_EPS,
    CandidateMatrix,
    FormatError,
    PredictionMatrix,
    body_lines,
    clamp_prior,
)
from plrlab.prior import prior_error, update_prior
from plrlab.report import EpochMetrics, group_accuracy
from plrlab.selection import rho_at
from plrlab.sinkhorn import SinkhornConfig, solar_update
from plrlab.solver import plr_update
from plrlab.trainer import cosine_lr

_GRID_CACHE = {}
_ENTROPY_CACHE = {}


def simplex_grid(k: int, resolution: int) -> np.ndarray:
    """All points of the k-simplex with coordinates that are multiples of 1/resolution.

    Enumerated by stars and bars; cached, since the k=5 grid at
    resolution 100 has 4.6M points.
    """
    key = (k, resolution)
    if key not in _GRID_CACHE:
        if k == 1:
            grid = np.full((1, 1), float(resolution))
        else:
            combos = itertools.combinations(range(resolution + k - 1), k - 1)
            flat = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int64)
            bars = flat.reshape(-1, k - 1)
            full = np.column_stack([
                np.full(bars.shape[0], -1, dtype=np.int64),
                bars,
                np.full(bars.shape[0], resolution + k - 1, dtype=np.int64),
            ])
            grid = (np.diff(full, axis=1) - 1.0)
        _GRID_CACHE[key] = grid / resolution
    return _GRID_CACHE[key]


def _grid_entropy_sums(k: int, resolution: int) -> np.ndarray:
    """sum_j w_j log w_j per grid point, with 0*log(0) = 0; cached."""
    key = (k, resolution)
    if key not in _ENTROPY_CACHE:
        grid = simplex_grid(k, resolution)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(grid > 0.0, grid * np.log(grid), 0.0).sum(axis=1)
        _ENTROPY_CACHE[key] = ent
    return _ENTROPY_CACHE[key]


def row_objective(w_row: np.ndarray, f_row: np.ndarray, r: np.ndarray,
                  lam: float, m: float) -> float:
    """Single-row objective with 0*log(0) = 0, straight from the definition."""
    total = 0.0
    for w, f, rj in zip(w_row, f_row, r):
        total += -w * np.log(max(f, 1e-12))
        if w > 0:
            total += w * np.log(w) / lam
        total += (m / lam) * w * np.log(rj)
    return total


def grid_min_objective(f_row: np.ndarray, cand: np.ndarray, r: np.ndarray,
                       lam: float, m: float, resolution: int) -> float:
    """Minimum objective over a dense simplex grid on the candidate coordinates.

    The linear part is one matvec over the grid; the entropy part is a
    cached per-grid-point constant scaled by 1/lam.
    """
    idx = np.flatnonzero(cand)
    grid = simplex_grid(idx.size, resolution)
    coeff = -np.log(np.maximum(f_row[idx], 1e-12)) + (m / lam) * np.log(r[idx])
    lin = grid @ coeff
    ent = _grid_entropy_sums(idx.size, resolution)
    return float((lin + ent / lam).min())


def random_feasible_rows(f_row: np.ndarray, cand: np.ndarray, rng, count: int) -> np.ndarray:
    """Random points of the candidate-restricted simplex."""
    idx = np.flatnonzero(cand)
    raw = rng.uniform(0.0, 1.0, size=(count, idx.size)) ** 2
    raw /= raw.sum(axis=1, keepdims=True)
    out = np.zeros((count, f_row.size))
    out[:, idx] = raw
    return out


def select_reliable_loop(w: np.ndarray, losses: np.ndarray, r: np.ndarray,
                         rho: float) -> np.ndarray:
    """Per-class small-loss selection, one class at a time.

    Each argmax bucket keeps its lowest-loss rows (ties toward the smaller
    index) up to min(bucket size, ceil(rho * r_k * batch)), with the
    ceiling guarded so exact-integer budgets do not round up.
    """
    batch = w.shape[0]
    labels = np.argmax(w, axis=1)
    kept = []
    for k in np.unique(labels):
        bucket = np.flatnonzero(labels == k)
        cap = int(np.ceil(rho * r[k] * batch * (1.0 - 1e-12)))
        quota = min(bucket.size, cap)
        if quota <= 0:
            continue
        order = np.lexsort((bucket, losses[bucket]))
        kept.append(bucket[order[:quota]])
    if not kept:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(kept)).astype(np.int64)


def solar_update_loop(f: np.ndarray, bits: np.ndarray, r: np.ndarray, lam: float,
                      max_iters: int, tol: float):
    """Sinkhorn scaling with three full exp passes per iteration.

    Each iteration takes a row logsumexp, materializes the row-scaled kernel
    to measure the column error from its column sums, and then takes a
    column logsumexp for the column scaling; exp runs over the -inf
    entries off the candidate sets. Returns (w, iterations used, relaxed,
    infeasible columns, column-error history).
    """
    def logsumexp(a, axis):
        amax = np.max(a, axis=axis, keepdims=True)
        amax = np.where(np.isfinite(amax), amax, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.exp(a - amax).sum(axis=axis)) + np.squeeze(amax, axis=axis)

    n = f.shape[0]
    log_k = np.where(bits > 0.0, lam * np.log(np.maximum(f, 1e-12)), -np.inf)
    col_target = n * r
    feasible_col = bits.sum(axis=0) > 0
    infeasible = tuple(int(j) for j in np.flatnonzero(~feasible_col))

    log_v = np.zeros(f.shape[1])
    history = []
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        log_u = -logsumexp(log_k + log_v[None, :], axis=1)
        scaled = np.exp(log_u[:, None] + log_k + log_v[None, :])
        col_err = float(np.abs(scaled.sum(axis=0) - col_target).max() / n)
        history.append(col_err)
        if col_err <= tol:
            break
        log_col = logsumexp(log_u[:, None] + log_k, axis=0)
        log_v = np.where(feasible_col, np.log(col_target) - log_col, log_v)

    z = log_k + log_v[None, :]
    z = z - z.max(axis=1, keepdims=True)
    out = np.exp(z)
    out /= out.sum(axis=1, keepdims=True)
    col_err = float(np.abs(out.sum(axis=0) - col_target).max() / max(n, 1))
    relaxed = bool(infeasible) or col_err > tol
    return out, iterations, relaxed, infeasible, np.asarray(history)


def write_dataset_loop(ds, path, comments=()) -> None:
    """The record-by-record dataset writer: one f-string per float.

    The byte-level reference for ``datagen.write_dataset``, which formats in
    bulk and must print the same bytes.
    """
    n, c, d = ds.n_samples, ds.n_classes, ds.feature_dim
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"plrlab-dataset v1 N={n} c={c} d={d}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        for i in range(n):
            feats = "\t".join(f"{x:.17g}" for x in ds.features[i])
            cands = ",".join(str(j) for j in np.flatnonzero(ds.candidates.bits[i]))
            fh.write(f"{i}\t{feats}\t{ds.true_labels[i]}\t{cands}\n")


def parse_records_loop(lines: list[str], n: int, c: int, d: int):
    """The line-by-line dataset record parser: the first fault raises FormatError naming its line.

    The reference for ``datagen._parse_records``, which reads the features
    of all records in one call and must accept, return and raise the same.
    """
    features, labels, cands, record_lines = [], [], [], []
    for row, (lineno, line) in enumerate(body_lines(lines)):
        if row >= n:
            raise FormatError(lineno, f"more than N={n} records")
        parts = line.split("\t")
        if len(parts) != d + 3:
            raise FormatError(lineno, f"expected {d + 3} fields, got {len(parts)}")
        try:
            idx = int(parts[0])
            feats = [float(x) for x in parts[1 : d + 1]]
            label = int(parts[d + 1])
            ids = [int(x) for x in parts[d + 2].split(",")]
        except ValueError as exc:
            raise FormatError(lineno, str(exc)) from None
        if idx != row:
            raise FormatError(lineno, f"record id {idx}, expected {row}")
        if not 0 <= label < c:
            raise FormatError(lineno, f"label {label} out of range")
        if any(not 0 <= j < c for j in ids) or any(b <= a for a, b in zip(ids, ids[1:])):
            raise FormatError(lineno, "candidate ids must be strictly ascending and in range")
        features.append(feats)
        labels.append(label)
        cands.append(ids)
        record_lines.append(lineno)
    # Arrays are sized only now, so a header's N cannot allocate unread records.
    if len(labels) != n:
        raise FormatError(len(lines), f"expected N={n} records, found {len(labels)}")
    features = np.array(features, dtype=np.float64).reshape(n, d)
    # One check over the parsed block rather than one per field.
    finite_rows = np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        raise FormatError(record_lines[int(np.argmin(finite_rows))], "features must be finite")
    bits = np.zeros((n, c))
    for row, ids in enumerate(cands):
        bits[row, ids] = 1.0
    return features, np.array(labels, dtype=np.int64), bits


def _mlp_forward(weights, biases, x):
    """Input and post-ReLU activations of each hidden layer, and the softmax output."""
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    logits = acts[-1] @ weights[-1] + biases[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return acts, e / e.sum(axis=1, keepdims=True)


def _soft_ce_loss(weights, biases, x, targets):
    """Per-row soft cross entropy of the MLP on ``x``, and the weight and bias
    gradients of its mean, by a forward pass and a backward loop of its own."""
    acts, p = _mlp_forward(weights, biases, x)
    rows = -(targets * np.log(np.maximum(p, PROB_EPS))).sum(axis=1)
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    g = (p - targets) / x.shape[0]
    for layer in reversed(range(len(weights))):
        grad_w[layer] = acts[layer].T @ g
        grad_b[layer] = g.sum(axis=0)
        if layer > 0:
            g = (g @ weights[layer].T) * (acts[layer] > 0.0)
    return rows, grad_w + grad_b


def _reference_pseudo_labels(probs, bits, est, cfg):
    f, s = PredictionMatrix(probs), CandidateMatrix(bits)
    if isinstance(cfg.solver, SinkhornConfig):
        return solar_update(f, s, est.r, cfg.solver).w
    return plr_update(f, s, est.r, cfg.solver)


def init_params_reference(dims, rng):
    """He-normal weights drawn layer by layer, zero biases."""
    weights = [rng.normal(scale=math.sqrt(2.0 / a), size=(a, b)) for a, b in zip(dims, dims[1:])]
    return weights, [np.zeros(b) for b in dims[1:]]


def run_stage_reference(weights, biases, ds, cfg, est, epochs, rng, test):
    """One training stage written from the trainer's module docstring.

    Per batch: a weak and a strong view; pseudo-labels from the weak-view
    predictions by the public ``plr_update`` or ``solar_update``; per-class
    small-loss selection by :func:`select_reliable_loop`; then the
    classification loss on the whole batch (on the selected rows under
    ``restrict_all_losses``, when there are any), the consistency loss on the
    strong view of the selected rows, and the mixup loss on a Beta-weighted
    mix of the selected weak rows with a permuted copy. Each loss takes its
    own forward and backward pass; their weighted gradients sum into one
    out-of-place momentum SGD step. After each epoch the prior is blended
    with its rule's statistic of full-train-set weak-view predictions. The
    schedules are the library's public ``cosine_lr`` and ``rho_at``.

    Draws from ``rng.child(epoch)`` in this order: the batch order, then per
    batch the weak noise, the strong noise, the strong keep mask and, if a
    row is selected, the mixup coefficient and partner permutation; last,
    the weak noise of the prior refresh. Returns the weights, biases, prior
    estimator and one EpochMetrics per epoch (NaN accuracies without test).
    """
    velocity = [np.zeros_like(a) for a in weights + biases]
    truth = clamp_prior(ds.class_counts.astype(np.float64))
    metrics = []
    for epoch in range(epochs):
        ep = rng.child(epoch)
        lr = cosine_lr(epoch, epochs, cfg.lr0)
        rho = rho_at(cfg.selection, epoch)
        order = ep.permutation(ds.n_samples)
        epoch_losses = ([], [], [])
        for start in range(0, ds.n_samples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, bits = ds.features[idx], ds.candidates.bits[idx]
            weak = x + cfg.weak_noise_sigma * ep.normal(size=x.shape)
            strong = x + cfg.strong_noise_sigma * ep.normal(size=x.shape)
            strong = strong * (ep.uniform(size=x.shape) >= cfg.strong_dropout_p)

            _, probs = _mlp_forward(weights, biases, weak)
            w = _reference_pseudo_labels(probs, bits, est, cfg).values
            losses = -(w * np.log(np.maximum(probs, PROB_EPS))).sum(axis=1)
            selected = select_reliable_loop(w, losses, est.r.values, rho)
            restrict = cfg.restrict_all_losses and selected.size
            cls_rows = selected if restrict else np.arange(len(idx))
            blocks = [(weak[cls_rows], w[cls_rows])]
            if selected.size:
                lam_mix = ep.beta(cfg.mixup_alpha, cfg.mixup_alpha)
                partner = ep.permutation(selected.size)
                x_sel, w_sel = weak[selected], w[selected]
                blocks += [(strong[selected], w_sel),
                           (lam_mix * x_sel + (1.0 - lam_mix) * x_sel[partner],
                            lam_mix * w_sel + (1.0 - lam_mix) * w_sel[partner])]
            grad = [np.zeros_like(a) for a in velocity]
            for rows_out, weight, (xb, tb) in zip(epoch_losses, cfg.loss_weights, blocks):
                rows, block_grad = _soft_ce_loss(weights, biases, xb, tb)
                rows_out.append(rows)
                grad = [g + weight * gb for g, gb in zip(grad, block_grad)]
            velocity = [cfg.momentum * v + g for v, g in zip(velocity, grad)]
            stepped = [a - lr * v for a, v in zip(weights + biases, velocity)]
            weights, biases = stepped[: len(weights)], stepped[len(weights) :]

        if not cfg.freeze_prior:
            x_full = ds.features + cfg.weak_noise_sigma * ep.normal(size=ds.features.shape)
            _, probs = _mlp_forward(weights, biases, x_full)
            source = PredictionMatrix(probs)
            if est.rule == "hard-pseudo":
                source = _reference_pseudo_labels(probs, ds.candidates.bits, est, cfg)
            est = update_prior(est, source)

        accs = (math.nan,) * 4
        if test is not None:
            _, test_probs = _mlp_forward(weights, biases, test.features)
            acc = group_accuracy(np.argmax(test_probs, axis=1), test.true_labels,
                                 test.group_boundaries)
            accs = (acc.overall, acc.many, acc.medium, acc.few)
        means = [np.concatenate(rows).mean() if rows else 0.0 for rows in epoch_losses]
        metrics.append(EpochMetrics(epoch, lr, *means, *accs, prior_error(est, truth)))
    return weights, biases, est, metrics
