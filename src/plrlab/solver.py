"""Closed-form pseudo-label updates and their optimality diagnostics.

The regularized disambiguation objective per sample row is

    sum_j ( -w_j log f_j + (1/lam) w_j log w_j + (m/lam) w_j log r_j )

minimized over the probability simplex restricted to the candidate set.
Strict convexity (the Hessian is diag(1/(lam w_j)) on the support) gives a
unique minimizer with the closed form

    w_j = S_j f_j^lam r_j^(-m) / sum_k S_k f_k^lam r_k^(-m)

With m = 0, or with a uniform prior at lam = 1, it reduces to plain
masked renormalization of the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PROB_EPS,
    CandidateMatrix,
    ClassPrior,
    NonPositiveWeightOnSupport,
    PlrHyperparams,
    PredictionMatrix,
    PseudoLabelMatrix,
    ShapeMismatch,
    row_normalize,
    xlogx,
)

__all__ = [
    "PlrObjectiveBreakdown",
    "KktReport",
    "plr_update",
    "proden_update",
    "plr_objective",
    "kkt_residual",
    "hessian_min_eigen_lower_bound",
]


@dataclass(frozen=True)
class PlrObjectiveBreakdown:
    """The three summed objective terms and their total."""

    classification: float
    entropy: float
    prior_penalty: float
    total: float


@dataclass(frozen=True, eq=False)
class KktReport:
    """First-order optimality diagnostics for a pseudo-label matrix.

    ``multipliers`` holds the per-row equality-constraint multipliers
    recovered from the candidate-set normalizer, in the convention that
    makes the stationarity residual vanish at the closed-form optimum.
    """

    max_stationarity_residual: float
    max_row_sum_violation: float
    max_support_violation: float
    multipliers: np.ndarray


def _check_pair(f: PredictionMatrix, s: CandidateMatrix) -> None:
    if f.values.shape != s.bits.shape:
        raise ShapeMismatch(f"predictions {f.values.shape} vs candidates {s.bits.shape}")


def _check_prior(c: int, r: ClassPrior) -> None:
    if r.n_classes != c:
        raise ShapeMismatch(f"prior has {r.n_classes} classes, expected {c}")


def log_kernel(f_values: np.ndarray, s_bits: np.ndarray, r_values: np.ndarray,
               lam: float, m: float) -> np.ndarray:
    """lam*log f - m*log r on candidate entries, -inf elsewhere.

    Operates on raw arrays so callers can reuse it without constructing
    the validated wrapper types.
    """
    z = lam * np.log(np.maximum(f_values, PROB_EPS)) - m * np.log(r_values)
    return np.where(s_bits > 0.0, z, -np.inf)


def plr_update(f: PredictionMatrix, s: CandidateMatrix, r: ClassPrior,
               h: PlrHyperparams) -> PseudoLabelMatrix:
    """Unique minimizer of the regularized objective over each candidate simplex.

    The kernel S * f^lam * r^(-m) is formed directly: the probability and
    prior clamps keep it finite and its row sums positive for the usual
    hyperparameter range (lam up to ~25, m up to ~35). Outside that range
    the update falls back to exp(lam*log f - m*log r - rowmax), which is
    immune to overflow and underflow.
    """
    _check_pair(f, s)
    _check_prior(f.n_classes, r)
    return PseudoLabelMatrix(_plr_weights(f.values, s.bits, r.values, h.lam, h.m))


def _plr_weights(f: np.ndarray, bits: np.ndarray, r: np.ndarray,
                 lam: float, m: float) -> np.ndarray:
    """The :func:`plr_update` kernel on plain arrays.

    Expects what ``plr_update`` validates: matching shapes, row-stochastic
    ``f``, the ``bits`` of a CandidateMatrix and a clamped prior ``r``.
    """
    kernel = np.maximum(f, PROB_EPS) ** lam
    kernel *= r ** (-m)
    kernel *= bits
    sums = kernel.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(sums)) or np.any(sums == 0.0):
        z = log_kernel(f, bits, r, lam, m)
        z = z - z.max(axis=1, keepdims=True)
        kernel = np.exp(z)
        sums = kernel.sum(axis=1, keepdims=True)
    kernel /= sums
    return kernel


def proden_update(f: PredictionMatrix, s: CandidateMatrix) -> PseudoLabelMatrix:
    """Masked renormalization of predictions over the candidate sets."""
    _check_pair(f, s)
    masked = s.bits * np.maximum(f.values, PROB_EPS)
    return PseudoLabelMatrix(row_normalize(masked))


def plr_objective(w: PseudoLabelMatrix, f: PredictionMatrix, r: ClassPrior,
                  h: PlrHyperparams) -> PlrObjectiveBreakdown:
    """Evaluate the three objective terms at w, using 0*log(0) = 0."""
    if w.values.shape != f.values.shape:
        raise ShapeMismatch(f"pseudo-labels {w.values.shape} vs predictions {f.values.shape}")
    _check_prior(w.n_classes, r)
    classification = float(-(w.values * np.log(np.maximum(f.values, PROB_EPS))).sum())
    entropy = float(xlogx(w.values).sum() / h.lam)
    prior_penalty = float((h.m / h.lam) * (w.values * np.log(r.values)).sum())
    total = classification + entropy + prior_penalty
    return PlrObjectiveBreakdown(classification, entropy, prior_penalty, total)


def kkt_residual(w: PseudoLabelMatrix, f: PredictionMatrix, r: ClassPrior,
                 h: PlrHyperparams, s: CandidateMatrix) -> KktReport:
    """Stationarity, row-sum, and support residuals for a candidate solution.

    The stationarity residual at a candidate entry is

        | -log f_ij + (1/lam)(log w_ij + 1) + (m/lam) log r_j - v_i |

    with the multiplier v_i recovered from the row normalizer
    Z_i = sum_j S_ij f_ij^lam r_j^(-m) as v_i = (1 - log Z_i)/lam, the
    value at which the closed-form solution is exactly stationary.
    """
    _check_pair(f, s)
    _check_prior(f.n_classes, r)
    if w.values.shape != f.values.shape:
        raise ShapeMismatch(f"pseudo-labels {w.values.shape} vs predictions {f.values.shape}")
    support = s.bits > 0.0
    on_support = w.values[support]
    if np.any(on_support <= 0.0):
        bad = np.argwhere(support & (w.values <= 0.0))[0]
        raise NonPositiveWeightOnSupport(int(bad[0]), int(bad[1]))

    z = log_kernel(f.values, s.bits, r.values, h.lam, h.m)
    zmax = z.max(axis=1)
    log_norm = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    multipliers = (1.0 - log_norm) / h.lam

    logf = np.log(np.maximum(f.values, PROB_EPS))
    with np.errstate(divide="ignore"):
        logw = np.log(w.values)
    grad = -logf + (logw + 1.0) / h.lam + (h.m / h.lam) * np.log(r.values)
    resid = np.abs(grad - multipliers[:, None])
    max_stationarity = float(resid[support].max())

    row_sums = w.values.sum(axis=1)
    max_row_violation = float(np.abs(row_sums - 1.0).max())
    outside = w.values[~support]
    max_support_violation = float(outside.max()) if outside.size else 0.0
    return KktReport(max_stationarity, max_row_violation, max_support_violation,
                     multipliers)


def hessian_min_eigen_lower_bound(w: PseudoLabelMatrix, h: PlrHyperparams) -> float:
    """Smallest curvature of the objective on the support of w.

    The objective's Hessian in w is diagonal with entries 1/(lam * w_ij)
    on the support, so the minimum eigenvalue is 1/(lam * max w_ij);
    strictly positive, certifying strict convexity there.
    """
    positive = w.values > 0.0
    if not positive.any():
        raise NonPositiveWeightOnSupport(0, 0)
    return float(1.0 / (h.lam * w.values[positive].max()))
