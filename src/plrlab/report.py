"""Group-wise accuracy, prior-adjusted prediction, kernel timing, and result files.

Two machine-readable sinks are defined here. The metrics file is
line-oriented::

    plrlab-metrics v2
    epoch=<int> lr=<g> loss_cls=<g> ... acc_few=<g> prior_err=<g>

with one key per ``EpochMetrics`` field, in field order, and the
benchmark file is plain CSV with header
``method,batch,classes,reps,mean_s,std_s``. Floats are printed at full
precision so parsing recovers them exactly. '#' lines are comments.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    CandidateMatrix,
    ClassPrior,
    FormatError,
    PlrHyperparams,
    PredictionMatrix,
    Rng,
    ShapeMismatch,
    TooFewReps,
    _check_integers,
    body_lines,
    clamp_prior,
    read_ascii,
    row_normalize,
    write_ascii,
)
from .datagen import longtail_counts
from .sinkhorn import SinkhornConfig, solar_update
from .solver import plr_update, proden_update

__all__ = [
    "EpochMetrics",
    "GroupAccuracy",
    "BenchRecord",
    "group_accuracy",
    "logits_adjust_predict",
    "bench_pseudo",
    "emit_metrics",
    "read_metrics",
    "emit_bench",
]


@dataclass(frozen=True)
class EpochMetrics:
    """Per-epoch observables recorded during stage-2 training."""

    epoch: int
    lr: float
    loss_cls: float
    loss_cons: float
    loss_mix: float
    acc_all: float
    acc_many: float
    acc_med: float
    acc_few: float
    prior_err: float


@dataclass(frozen=True)
class GroupAccuracy:
    """Test accuracy overall and within the many/medium/few class groups."""

    overall: float
    many: float
    medium: float
    few: float


@dataclass(frozen=True)
class BenchRecord:
    """Wall-clock timing of one pseudo-label method at one problem size."""

    method: str
    batch_size: int
    n_classes: int
    repetitions: int
    mean_s: float
    std_s: float


def group_accuracy(preds, truth, boundaries: tuple[int, int]) -> GroupAccuracy:
    """Percent correct overall and per class group (grouping by true class)."""
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape or preds.ndim != 1:
        raise ShapeMismatch(f"predictions {preds.shape} vs truth {truth.shape}")
    lo, hi = boundaries
    correct = preds == truth
    out = []
    for mask in (np.ones_like(truth, dtype=bool), truth < lo,
                 (truth >= lo) & (truth < hi), truth >= hi):
        out.append(100.0 * correct[mask].mean() if mask.any() else 0.0)
    return GroupAccuracy(*out)


def logits_adjust_predict(logits, r: ClassPrior, phi: float) -> np.ndarray:
    """Row argmax of logits_j - phi*log r_j; ties go to the smaller class."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] != r.n_classes:
        raise ShapeMismatch(f"logits {logits.shape} vs {r.n_classes} classes")
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    return np.argmax(logits - phi * np.log(r.values), axis=1)


def _bench_instance(batch_size: int, n_classes: int, rng: Rng):
    # A long-tailed batch, the regime these updates are built for: labels
    # drawn from an imbalanced prior, negatives flipped in at a rate that
    # keeps candidate sets around six labels regardless of class count.
    # The per-class mass constraints are tight here, so the scaling
    # baseline has real work to do.
    flip = min(0.5, 5.0 / max(n_classes - 1, 1))
    r = clamp_prior(longtail_counts(1000, 100.0, n_classes).astype(np.float64))
    labels = rng.generator.choice(n_classes, size=batch_size, p=r.values)
    bits = (rng.uniform(size=(batch_size, n_classes)) < flip).astype(np.float64)
    bits[np.arange(batch_size), labels] = 1.0
    f = PredictionMatrix(row_normalize(rng.uniform(0.05, 1.0, (batch_size, n_classes))))
    return f, CandidateMatrix(bits), r


def bench_pseudo(methods, batch_size: int, n_classes: int, reps: int, rng: Rng,
                 plr_params: PlrHyperparams = PlrHyperparams(),
                 sinkhorn_cfg: SinkhornConfig = SinkhornConfig()) -> list[BenchRecord]:
    """Time each pseudo-label method on one shared random batch.

    Each method gets one untimed warm-up call, then ``reps`` timed calls
    on identical inputs; reported is the mean and standard deviation of
    the per-call wall-clock seconds. The first warm-up call also builds
    the candidate matrix's packed index, which every later call reuses.
    """
    _check_integers(batch_size=batch_size, n_classes=n_classes, reps=reps)
    if reps < 3:
        raise TooFewReps(f"need at least 3 repetitions, got {reps}")
    f, s, r = _bench_instance(batch_size, n_classes, rng)
    calls = {
        "plr": lambda: plr_update(f, s, r, plr_params),
        "proden": lambda: proden_update(f, s),
        "sinkhorn": lambda: solar_update(f, s, r, sinkhorn_cfg),
    }
    records = []
    for name in methods:
        if name not in calls:
            raise ValueError(f"unknown method {name!r}; choose from {sorted(calls)}")
        run = calls[name]
        run()
        times = np.empty(reps)
        for i in range(reps):
            t0 = time.perf_counter()
            run()
            times[i] = time.perf_counter() - t0
        records.append(BenchRecord(name, batch_size, n_classes, reps,
                                   float(times.mean()), float(times.std())))
    return records


_METRICS_HEADER = "plrlab-metrics v2"
_METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(EpochMetrics))


def emit_metrics(metrics, path, comments=()) -> None:
    """Write per-epoch metric lines; overwrites any existing file."""
    write_ascii(path, _METRICS_HEADER, comments,
                (f"epoch={m.epoch:d} " + " ".join(f"{key}={getattr(m, key):.17g}"
                                                  for key in _METRIC_FIELDS[1:]) + "\n"
                 for m in metrics))


def read_metrics(path) -> list[EpochMetrics]:
    """Parse a metrics file back into EpochMetrics records."""
    lines = read_ascii(path).split("\n")
    if lines[0] != _METRICS_HEADER:
        raise FormatError(1, f"bad metrics header; expected {_METRICS_HEADER!r}")
    out = []
    for lineno, line in body_lines(lines):
        fields = {}
        for token in line.split(" "):
            key, _, val = token.partition("=")
            fields[key] = val
        if tuple(fields) != _METRIC_FIELDS:
            raise FormatError(lineno, "unexpected metric fields")
        try:
            out.append(EpochMetrics(int(fields["epoch"]),
                                    *(float(fields[k]) for k in _METRIC_FIELDS[1:])))
        except ValueError as exc:
            raise FormatError(lineno, str(exc)) from None
    return out


def emit_bench(records, path, comments=()) -> None:
    """Write benchmark records as CSV under the documented schema."""
    write_ascii(path, "", comments,
                ["method,batch,classes,reps,mean_s,std_s\n"] +
                [f"{rec.method},{rec.batch_size},{rec.n_classes},"
                 f"{rec.repetitions},{rec.mean_s:.17g},{rec.std_s:.17g}\n" for rec in records])
