"""Column-constrained pseudo-label baseline via Sinkhorn-Knopp scaling.

Adds the per-class mass constraint sum_i w_ij = N r_j on top of the
row-stochastic disambiguation problem and solves it by alternating
row/column scaling of the kernel K_ij = S_ij f_ij^lam. Column targets use
N = the batch handed in. Candidate-set zeros frequently make both marginal
sets unattainable; when the column error has not reached tolerance at the
iteration cap, the row-renormalized iterate is returned with
``relaxed=True`` (rows take priority, so output rows always sum to one).

Like the :mod:`plrlab.solver` updates, the scaling runs on the packed
candidate entries and returns weights there, which :func:`solar_update`
checks and scatters into one zero matrix. A dense B x c buffer holds only
the row passes, for numpy's row sums, which fix the output bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PROB_EPS,
    CandidateMatrix,
    ClassPrior,
    PredictionMatrix,
    PseudoLabelMatrix,
    _check_integers,
    _check_pair,
    _check_prior,
    _check_type,
)

__all__ = ["SinkhornConfig", "SinkhornResult", "solar_update", "marginal_errors"]


@dataclass(frozen=True)
class SinkhornConfig:
    """Iteration cap, marginal tolerance, and prediction temperature."""

    max_iters: int = 50
    tol: float = 1e-3
    lam: float = 1.0

    def __post_init__(self):
        _check_integers(max_iters=self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")


@dataclass(frozen=True, eq=False)
class SinkhornResult:
    """Scaled pseudo-labels plus convergence diagnostics.

    ``col_err_history`` records the column marginal error once per
    iteration, measured with rows freshly scaled to one.
    ``infeasible_columns`` lists classes with prior mass but no candidate
    anywhere in the batch; their targets are dropped and ``relaxed`` is
    forced.
    """

    w: PseudoLabelMatrix
    iterations_used: int
    row_marginal_err: float
    col_marginal_err: float
    relaxed: bool
    infeasible_columns: tuple[int, ...] = ()
    col_err_history: np.ndarray | None = None


def marginal_errors(w: PseudoLabelMatrix, r: ClassPrior) -> tuple[float, float]:
    """Worst row deviation from 1 and worst column deviation from N*r_j (per sample)."""
    _check_type("pseudo-labels", w, PseudoLabelMatrix)
    _check_prior(w.n_classes, r)
    n = w.n_samples
    row_err = float(np.abs(w.values.sum(axis=1) - 1.0).max()) if n else 0.0
    col_err = float(np.abs(w.values.sum(axis=0) - n * r.values).max() / max(n, 1))
    return row_err, col_err


def solar_update(f: PredictionMatrix, s: CandidateMatrix, r: ClassPrior,
                 cfg: SinkhornConfig) -> SinkhornResult:
    """Alternate row/column scaling of S * f^lam toward both marginal sets.

    Each iteration scales rows exactly to one, measures the column error,
    and then rescales columns toward N*r_j. Exit happens when both
    marginal errors are within ``cfg.tol`` or after ``cfg.max_iters``
    iterations; either way a final row renormalization is applied.
    Scaling runs in log space; non-candidate entries stay exactly zero.
    """
    _check_pair(f, s)
    _check_prior(f.n_classes, r)
    _check_type("config", cfg, SinkhornConfig)

    weights, iterations, history, feasible = _solar_weights(f.values, *s.packed, r.values, cfg)
    w = PseudoLabelMatrix._from_packed(weights, s)
    row_err, col_err = marginal_errors(w, r)
    infeasible = tuple(int(j) for j in np.flatnonzero(~feasible))
    relaxed = bool(infeasible) or col_err > cfg.tol
    return SinkhornResult(w, iterations, row_err, col_err, relaxed,
                          infeasible, np.asarray(history))


def _solar_weights(f: np.ndarray, flat: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   r: np.ndarray, cfg: SinkhornConfig
                   ) -> tuple[np.ndarray, int, list[float], np.ndarray]:
    """The :func:`solar_update` scaling loop on plain arrays.

    Expects what ``solar_update`` validates: row-stochastic ``f``, the packed
    index of a CandidateMatrix of its shape (see :func:`plrlab.core._pack`)
    and a clamped prior ``r``. Returns the row-normalized weights at the
    packed entries, the iterations used, the column error of each iteration
    and the mask of columns with a candidate.

    log K = lam * log f is formed on the candidate entries once. A row pass
    exps log K + log v less each row's max into a zero B x c buffer, the only
    dense write: numpy's pairwise row sums there fix the bits of log u and of
    the output, and no packed sum reproduces them. A column pass exps
    log K + log u less each column's max and sums it with ``np.bincount``,
    which adds a column in row order, as a dense column sum does. Both maxima
    come from ``np.maximum.at``, exact in any order. One row pass runs before
    the loop and one after each column update, so a converged call returns
    the pass it holds. The weights equal a dense loop's bit for bit.
    """
    n, c = f.shape
    fs = np.maximum(f.ravel()[flat], PROB_EPS)
    log_k = cfg.lam * np.log(fs)
    feasible = np.bincount(cols, minlength=c) > 0
    col_target = n * r
    log_target = np.log(col_target)

    dense = np.zeros(n * c)

    def row_pass(log_v):
        z = log_k + log_v[cols]
        row_max = np.full(n, -np.inf)
        np.maximum.at(row_max, rows, z)
        z -= row_max[rows]
        dense[flat] = np.exp(z, out=z)
        return z, row_max, dense.reshape(n, c).sum(axis=1)

    log_v = np.zeros(c)
    history = []
    kernel, row_max, row_sums = row_pass(log_v)
    # log(0) = -inf is the column logsumexp of an infeasible column; its
    # target is dropped, so the -inf never reaches log_v.
    with np.errstate(divide="ignore"):
        for iterations in range(1, cfg.max_iters + 1):
            log_u = -(np.log(row_sums) + row_max)
            z = log_k + log_u[rows]
            col_max = np.full(c, -np.inf)
            np.maximum.at(col_max, cols, z)
            z -= col_max[cols]
            log_col = np.log(np.bincount(cols, weights=np.exp(z, out=z), minlength=c)) + col_max
            col_err = float(np.abs(np.exp(log_col + log_v) - col_target).max() / n)
            history.append(col_err)
            if col_err <= cfg.tol:
                break
            log_v = np.where(feasible, log_target - log_col, log_v)
            kernel, row_max, row_sums = row_pass(log_v)

    kernel /= row_sums[rows]
    return kernel, iterations, history, feasible
