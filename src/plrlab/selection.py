"""Per-class small-loss sample selection with prior-proportional caps.

A batch is bucketed by pseudo-label argmax; each bucket keeps its
lowest-loss samples up to min(bucket size, ceil(rho * r_k * batch)).
The fraction rho ramps up linearly from 0.2 to 0.5 over the first 50
epochs, then stays at 0.5, so that early, unreliable pseudo-labels admit
fewer samples.
"""

from __future__ import annotations

import numpy as np

from .core import (ClassPrior, PseudoLabelMatrix, ShapeMismatch, _check_integers, _check_prior,
                   _check_type)

__all__ = ["rho_at", "select_reliable"]

_RHO_START, _RHO_END, _RAMP_EPOCHS = 0.2, 0.5, 50


def rho_at(epoch: int) -> float:
    """Selection fraction at a given epoch: linear ramp, then constant."""
    _check_integers(epoch=epoch)
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    if epoch >= _RAMP_EPOCHS:
        return _RHO_END
    return _RHO_START + (_RHO_END - _RHO_START) * epoch / _RAMP_EPOCHS


def select_reliable(w: PseudoLabelMatrix, losses: np.ndarray, r: ClassPrior,
                    rho: float) -> np.ndarray:
    """Indices of the per-class smallest-loss samples, sorted ascending.

    Ties in loss are broken toward the smaller index, which makes the
    selected set deterministic and monotone in rho.
    """
    _check_type("pseudo-labels", w, PseudoLabelMatrix)
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.shape[0] != w.n_samples:
        raise ShapeMismatch(f"losses shape {losses.shape} vs {w.n_samples} samples")
    _check_prior(w.n_classes, r)
    # Negated tests, so a NaN loss or rho fails them.
    if not np.all((losses >= 0.0) & (losses < np.inf)):
        raise ValueError("losses must be finite and nonnegative")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return _select_rows(np.argmax(w.values, axis=1), losses, r.values, rho)


def _select_rows(labels: np.ndarray, losses: np.ndarray, r: np.ndarray,
                 rho: float) -> np.ndarray:
    """The :func:`select_reliable` kernel on plain arrays.

    ``labels`` holds each row's pseudo-label argmax. A stable sort by (label,
    loss) keeps tied rows in index order; a row is kept when its rank inside
    its label group is below the group's cap. The rank is below the group
    size, so comparing with the cap alone applies min(group size, cap).
    """
    batch = labels.size
    order = np.lexsort((losses, labels))
    grouped = labels[order]
    rank = np.arange(batch) - np.searchsorted(grouped, grouped)
    # Ceiling with a relative guard so exact-integer budgets computed in
    # floating point (0.2 * 0.5 * 10, say) do not round up an extra slot.
    cap = np.ceil(rho * r * batch * (1.0 - 1e-12))
    return np.sort(order[rank < cap[grouped]])
