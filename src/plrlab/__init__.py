"""Pseudo-label regularization for long-tailed partial-label learning.

A numpy library for disambiguating candidate label sets under class
imbalance: a closed-form regularized pseudo-label solver, a
Sinkhorn-scaling baseline, online class-prior estimation, reliable-sample
selection, a deterministic MLP training loop, synthetic long-tail dataset
generation, and reporting/benchmark utilities.
"""

from .core import (
    AllZeroPrior,
    CandidateMatrix,
    ClassPrior,
    EmptyBatch,
    EmptyCandidateRow,
    FormatError,
    NonFiniteLoss,
    NonPositiveWeightOnSupport,
    PlrError,
    PlrHyperparams,
    PredictionMatrix,
    PseudoLabelMatrix,
    Rng,
    ShapeMismatch,
    SupportViolation,
    TooFewReps,
    ZeroRowSum,
    clamp_prior,
    row_normalize,
    validate_candidates,
    validate_support,
)
from .datagen import (
    DatasetSpec,
    PartialDataset,
    gen_candidates,
    gen_dataset,
    group_split,
    longtail_counts,
    read_dataset,
    write_dataset,
)
from .prior import PriorEstimator, init_uniform, prior_error, update_prior
from .report import (
    BenchRecord,
    EpochMetrics,
    GroupAccuracy,
    bench_pseudo,
    emit_bench,
    emit_metrics,
    group_accuracy,
    logits_adjust_predict,
    read_metrics,
)
from .selection import SelectionConfig, rho_at, select_reliable
from .sinkhorn import SinkhornConfig, SinkhornResult, marginal_errors, solar_update
from .solver import (
    KktReport,
    PlrObjectiveBreakdown,
    hessian_min_eigen_lower_bound,
    kkt_residual,
    plr_objective,
    plr_update,
    proden_update,
)
from .trainer import (
    ModelParams,
    TrainConfig,
    augment,
    cosine_lr,
    forward,
    grad_logits_soft_ce,
    init_params,
    mixup_batch,
    sgd_momentum_step,
    soft_ce,
    train,
)

__version__ = "0.1.0"
