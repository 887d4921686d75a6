"""Independent reference kernels and the output checks the benchmark runs.

The references are written here in log space from the formulas in the
paper and in ``plrlab.sinkhorn``'s docstring; they share no code with
``plrlab.solver`` or the scaling loop of ``plrlab.sinkhorn``, so a defect
in the library's kernels cannot hide in its own reference. Sinkhorn's
reported errors are recomputed with the public ``marginal_errors``. Every
check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import numpy as np
from plrlab.sinkhorn import marginal_errors

# The library's probability and prior floors, restated: the references
# must apply the same clamps to agree with the closed form.
PROB_FLOOR = 1e-12
PRIOR_FLOOR = 1e-8
ROW_TOL = 1e-9
# Direct and log-space evaluations of the same softmax differ by rounding
# only; 1e-9 absolute is far above that and far below any real defect.
MATCH_TOL = 1e-9


def _masked_softmax(z: np.ndarray, bits: np.ndarray) -> np.ndarray:
    z = np.where(bits > 0.0, z, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_plr(f: np.ndarray, bits: np.ndarray, r: np.ndarray, lam: float, m: float) -> np.ndarray:
    """w_ij proportional to S_ij f_ij^lam r_j^-m, evaluated as a masked softmax."""
    return _masked_softmax(lam * np.log(np.maximum(f, PROB_FLOOR)) - m * np.log(r), bits)


def ref_proden(f: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Predictions renormalized over each candidate set."""
    return _masked_softmax(np.log(np.maximum(f, PROB_FLOOR)), bits)


def ref_sinkhorn(f: np.ndarray, bits: np.ndarray, r: np.ndarray, lam: float,
                 max_iters: int, tol: float) -> tuple[np.ndarray, int]:
    """Alternating row/column scaling of S*f^lam toward rows of 1 and columns N*r.

    Stops once the column error with rows scaled to one is within tol, or
    at the cap; the result is the row-renormalized kernel under the latest
    column scaling. Returns the weights and the iterations used.
    """
    n = f.shape[0]
    support = bits > 0.0
    log_k = np.where(support, lam * np.log(np.maximum(f, PROB_FLOOR)), -np.inf)
    log_target = np.log(n * r)
    feasible = support.any(axis=0)
    log_v = np.zeros(f.shape[1])
    used = 0
    for used in range(1, max_iters + 1):
        rows = _masked_softmax(log_k + log_v, bits)
        if np.abs(rows.sum(axis=0) - n * r).max() / n <= tol:
            break
        # Column sums of the row-scaled kernel, in log space, without the
        # current column scaling: log sum_i exp(log_k_ij - logsumexp_i).
        z = log_k + log_v
        zmax = z.max(axis=1, keepdims=True)
        log_u = -(np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax)
        a = log_u + log_k
        amax = np.where(feasible, a.max(axis=0), 0.0)
        with np.errstate(divide="ignore"):
            log_col = np.log(np.exp(a - amax).sum(axis=0)) + amax
        log_v = np.where(feasible, log_target - log_col, log_v)
    return _masked_softmax(log_k + log_v, bits), used


def check_weights(w: np.ndarray, bits: np.ndarray, expected: np.ndarray) -> list[str]:
    """Rows on the simplex, no mass off the candidate set, match to a reference."""
    problems = []
    if not np.all(np.isfinite(w)):
        return ["non-finite weights"]
    if np.abs(w.sum(axis=1) - 1.0).max() > ROW_TOL:
        problems.append("rows do not sum to one")
    if np.any(w[bits == 0.0] != 0.0):
        problems.append("mass off the candidate set")
    if np.abs(w - expected).max() > MATCH_TOL:
        problems.append(f"differs from reference by {np.abs(w - expected).max():.3g}")
    return problems


def check_sinkhorn(result, bits: np.ndarray, prior, cfg, expected) -> list[str]:
    """Weights as in check_weights, plus the reported diagnostics recomputed."""
    w_ref, iters_ref = expected
    problems = check_weights(result.w.values, bits, w_ref)
    if result.iterations_used != iters_ref:
        problems.append(f"{result.iterations_used} iterations, reference took {iters_ref}")
    row_err, col_err = marginal_errors(result.w, prior)
    if col_err != result.col_marginal_err or row_err != result.row_marginal_err:
        problems.append("reported marginal errors disagree with marginal_errors")
    if result.relaxed != (bool(result.infeasible_columns) or col_err > cfg.tol):
        problems.append("relaxed flag disagrees with the column error")
    return problems


def check_prior(r: np.ndarray) -> list[str]:
    """A prior on the clamped simplex: sums to one, no entry below the floor.

    The floor is applied before the final renormalization, so entries may
    sit a relative hair below it, as ``plrlab.core.ClassPrior`` allows.
    """
    problems = []
    if not np.all(np.isfinite(r)):
        return ["non-finite prior"]
    if abs(r.sum() - 1.0) > ROW_TOL:
        problems.append("prior does not sum to one")
    if r.min() < PRIOR_FLOOR * (1.0 - 1e-4):
        problems.append("prior entry below the clamp floor")
    return problems


def check_training(params, metrics, prior: np.ndarray, epochs: int) -> list[str]:
    """Finite parameters, one metrics row per epoch in order, a clamped prior."""
    problems = []
    arrays = list(params.weights) + list(params.biases)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append("non-finite model parameters")
    if [m.epoch for m in metrics] != list(range(epochs)):
        problems.append(f"{len(metrics)} metrics rows for {epochs} epochs")
    return problems + check_prior(prior)


def same_dataset(a, b) -> bool:
    """Two dataset splits hold identical features, labels, candidates and groups."""
    return (np.array_equal(a.features, b.features)
            and np.array_equal(a.true_labels, b.true_labels)
            and np.array_equal(a.candidates.bits, b.candidates.bits)
            and np.array_equal(a.class_counts, b.class_counts)
            and tuple(a.group_boundaries) == tuple(b.group_boundaries))
