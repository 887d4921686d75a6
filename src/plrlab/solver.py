"""Closed-form pseudo-label updates and their optimality diagnostics.

The regularized disambiguation objective per sample row is

    sum_j ( -w_j log f_j + (1/lam) w_j log w_j + (m/lam) w_j log r_j )

minimized over the probability simplex restricted to the candidate set.
Strict convexity (the Hessian is diag(1/(lam w_j)) on the support) gives a
unique minimizer with the closed form

    w_j = S_j f_j^lam r_j^(-m) / sum_k S_k f_k^lam r_k^(-m)

With m = 0, or with a uniform prior at lam = 1, it reduces to plain
masked renormalization of the predictions.

The kernel is zero off the candidate set, and a long-tailed batch has a
handful of candidates per row out of c classes. So :func:`plr_update` and
:func:`proden_update` evaluate it on the entries of the packed index
(:attr:`plrlab.core.CandidateMatrix.packed`) only, check the normalized
weights there and scatter them into one zero matrix, as ``solar_update`` does.
"""

from __future__ import annotations

import math
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
    _check_pair,
    _check_prior,
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


def plr_update(f: PredictionMatrix, s: CandidateMatrix, r: ClassPrior,
               h: PlrHyperparams) -> PseudoLabelMatrix:
    """Unique minimizer of the regularized objective over each candidate simplex.

    The kernel f^lam * r^(-m) is formed on the candidate entries only, and
    directly while the probability and prior clamps keep every candidate
    entry a normal float and every row sum finite (lam up to ~25.6; m up to
    ~38 at the 1e-8 prior floor). Outside that range the update uses
    exp(lam*log f - m*log r - rowmax), which is immune to overflow and
    underflow. Entries off the candidate set are exactly zero.
    """
    _check_pair(f, s)
    _check_prior(f.n_classes, r)
    flat, rows, _ = s.packed
    return PseudoLabelMatrix._from_packed(
        _plr_weights(f.values, *s.packed, r.values, h.lam, h.m), flat, rows, s.bits.shape)


# Natural logs of the smallest normal and the largest float64.
_LN_TINY = math.log(np.finfo(np.float64).tiny)
_LN_MAX = math.log(np.finfo(np.float64).max)


def _plr_weights(f: np.ndarray, flat: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 r: np.ndarray, lam: float, m: float) -> np.ndarray:
    """The :func:`plr_update` kernel on plain arrays: the weights at the packed
    candidate entries ``flat``, in rows ``rows`` and columns ``cols`` (see
    :func:`plrlab.core._pack`).

    Expects what ``plr_update`` validates: row-stochastic ``f``, the index of
    a CandidateMatrix of its shape and a clamped prior ``r``.
    """
    n, c = f.shape
    fs = np.maximum(f.ravel()[flat], PROB_EPS)
    # Direct only where exact: each candidate entry is at least PROB_EPS^lam,
    # a normal float, and each row sum at most c * max(r^-m), a finite one.
    if (lam * math.log(PROB_EPS) > _LN_TINY
            and -m * math.log(r.min()) + math.log(c) < _LN_MAX):
        kernel = fs ** lam
        kernel *= (r ** (-m))[cols]
    else:
        z = lam * np.log(fs)
        z -= (m * np.log(r))[cols]
        # Every row holds a candidate, so each row's entries start at its
        # first index in ``rows`` and the reduceat segments are the rows.
        z -= np.maximum.reduceat(z, np.searchsorted(rows, np.arange(n)))[rows]
        kernel = np.exp(z)
    kernel /= np.bincount(rows, weights=kernel)[rows]
    return kernel


def proden_update(f: PredictionMatrix, s: CandidateMatrix) -> PseudoLabelMatrix:
    """Masked renormalization of predictions over the candidate sets.

    Evaluated on the candidate entries only, like :func:`plr_update`.
    """
    _check_pair(f, s)
    flat, rows, _ = s.packed
    fs = np.maximum(f.values.ravel()[flat], PROB_EPS)
    fs /= np.bincount(rows, weights=fs)[rows]
    return PseudoLabelMatrix._from_packed(fs, flat, rows, s.bits.shape)


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

    logf = np.log(np.maximum(f.values, PROB_EPS))
    # log of the kernel S f^lam r^(-m): -inf off the candidate set.
    z = np.where(support, h.lam * logf - h.m * np.log(r.values), -np.inf)
    zmax = z.max(axis=1)
    log_norm = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    multipliers = (1.0 - log_norm) / h.lam

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
