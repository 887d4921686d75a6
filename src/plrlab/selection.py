"""Per-class small-loss sample selection with prior-proportional caps.

A batch is bucketed by pseudo-label argmax; each bucket keeps its
lowest-loss samples up to min(bucket size, ceil(rho * r_k * batch)).
The fraction rho ramps up linearly over the first epochs so that early,
unreliable pseudo-labels admit fewer samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassPrior, PseudoLabelMatrix, ShapeMismatch, _check_integers, _check_prior

__all__ = ["SelectionConfig", "rho_at", "select_reliable"]


@dataclass(frozen=True)
class SelectionConfig:
    """Linear ramp of the selection fraction rho."""

    rho_start: float = 0.2
    rho_end: float = 0.5
    ramp_epochs: int = 50

    def __post_init__(self):
        _check_integers(ramp_epochs=self.ramp_epochs)
        if not 0.0 <= self.rho_start <= self.rho_end <= 1.0:
            raise ValueError("need 0 <= rho_start <= rho_end <= 1")
        if self.ramp_epochs < 1:
            raise ValueError("ramp_epochs must be at least 1")


def rho_at(cfg: SelectionConfig, epoch: int) -> float:
    """Selection fraction at a given epoch: linear ramp, then constant."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    if epoch >= cfg.ramp_epochs:
        return cfg.rho_end
    return cfg.rho_start + (cfg.rho_end - cfg.rho_start) * epoch / cfg.ramp_epochs


def select_reliable(w: PseudoLabelMatrix, losses: np.ndarray, r: ClassPrior,
                    rho: float) -> np.ndarray:
    """Indices of the per-class smallest-loss samples, sorted ascending.

    Ties in loss are broken toward the smaller index, which makes the
    selected set deterministic and monotone in rho.
    """
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
