"""Pseudo-label regularization for long-tailed partial-label learning.

A numpy library for disambiguating candidate label sets under class
imbalance: a closed-form regularized pseudo-label solver, a
Sinkhorn-scaling baseline, online class-prior estimation, reliable-sample
selection, a deterministic MLP training loop, synthetic long-tail dataset
generation, and reporting/benchmark utilities.

The root exports what the README and demos import, plus ``PlrError``.
"""

from .core import (
    CandidateMatrix,
    PlrError,
    PlrHyperparams,
    PredictionMatrix,
    PseudoLabelMatrix,
    clamp_prior,
    row_normalize,
)
from .datagen import DatasetSpec, gen_dataset
from .prior import init_uniform, prior_error, update_prior
from .report import bench_pseudo
from .selection import SelectionConfig, rho_at, select_reliable
from .sinkhorn import SinkhornConfig, marginal_errors, solar_update
from .solver import (hessian_min_eigen_lower_bound, kkt_residual, plr_objective, plr_update,
                     proden_update)
from .trainer import TrainConfig, train

__version__ = "0.1.0"
