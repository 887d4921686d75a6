"""Moving-average estimation of the marginal class prior.

The prior starts uniform and is blended once per epoch with an empirical
component drawn from the training set: the histogram of predicted classes
(``hard-pred``, the default), the mean predicted probabilities
(``soft-pred``), or the histogram of pseudo-label argmaxes
(``hard-pseudo``). Every update lands back on the clamped simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ClassPrior,
    EmptyBatch,
    PredictionMatrix,
    PseudoLabelMatrix,
    _check_integers,
    _check_prior,
    _check_type,
    clamp_prior,
)

__all__ = [
    "RULES",
    "PriorEstimator",
    "init_uniform",
    "update_prior",
    "prior_error",
]

RULES = ("hard-pred", "soft-pred", "hard-pseudo")


@dataclass(frozen=True)
class PriorEstimator:
    """Current prior estimate plus the blending coefficient and update rule."""

    r: ClassPrior
    mu: float = 0.1
    rule: str = "hard-pred"

    def __post_init__(self):
        _check_prior(None, self.r)
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}")


def init_uniform(c: int, mu: float = 0.1, rule: str = "hard-pred") -> PriorEstimator:
    """Estimator starting from the uniform prior over c classes."""
    _check_integers(c=c)
    if c < 1:
        raise ValueError("need at least one class")
    return PriorEstimator(ClassPrior(np.full(c, 1.0 / c)), mu, rule)


def update_prior(est: PriorEstimator,
                 source: PredictionMatrix | PseudoLabelMatrix) -> PriorEstimator:
    """Blend the estimate with the empirical component its rule names.

    ``hard-pred`` and ``soft-pred`` read a PredictionMatrix (its argmax
    histogram or its column means); ``hard-pseudo`` reads a
    PseudoLabelMatrix (its argmax histogram). Any other source type
    raises ValueError.
    """
    _check_type("estimator", est, PriorEstimator)
    kind = PseudoLabelMatrix if est.rule == "hard-pseudo" else PredictionMatrix
    if not isinstance(source, kind):
        raise ValueError(f"rule {est.rule!r} updates from a {kind.__name__}, "
                         f"not a {type(source).__name__}")
    _check_prior(source.n_classes, est.r)
    if source.n_samples == 0:
        raise EmptyBatch("cannot update the prior from an empty batch")
    if est.rule == "soft-pred":
        empirical = source.values.mean(axis=0)
    else:
        # np.argmax breaks ties toward the smallest class index.
        picks = np.argmax(source.values, axis=1)
        empirical = np.bincount(picks, minlength=source.n_classes) / source.n_samples
    mixed = est.mu * est.r.values + (1.0 - est.mu) * empirical
    return replace(est, r=clamp_prior(mixed))


def prior_error(est: PriorEstimator, truth: ClassPrior) -> float:
    """Largest per-class gap between the estimate and a reference prior."""
    _check_type("estimator", est, PriorEstimator)
    _check_prior(est.r.n_classes, truth)
    return float(np.abs(est.r.values - truth.values).max())
