"""Shared domain types, validated constructors, and seeded randomness.

Everything downstream (solvers, prior estimation, training) works on the
four matrix/vector types defined here. All types are immutable after
construction and carry their invariants: predictions and pseudo-labels are
row-stochastic, candidate sets are binary with no empty row, class priors
live on the clamped simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Probability floor applied to prediction entries before any log or power;
# prevents log(0) and 0**lam underflow.
PROB_EPS = 1e-12
# Prior floor: r**-M diverges at r=0, so priors are clamped away from zero.
PRIOR_EPS = 1e-8
# Tolerance for row-stochasticity checks at construction time.
ROW_SUM_TOL = 1e-9


class PlrError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(PlrError):
    """Operands have incompatible shapes."""


class EmptyCandidateRow(PlrError):
    """A sample has no candidate labels at all."""

    def __init__(self, row: int):
        super().__init__(f"sample {row} has an empty candidate set")
        self.row = row


class AllZeroPrior(PlrError):
    """No class carries any prior mass."""


class ZeroRowSum(PlrError):
    """A row to be normalized sums to zero."""

    def __init__(self, row: int):
        super().__init__(f"row {row} sums to zero and cannot be normalized")
        self.row = row


class NonPositiveWeightOnSupport(PlrError):
    """A pseudo-label weight is zero or negative on a candidate entry."""

    def __init__(self, row: int, col: int):
        super().__init__(f"pseudo-label weight at ({row}, {col}) is not positive")
        self.row = row
        self.col = col


class SupportViolation(PlrError):
    """Pseudo-label mass found outside the candidate set."""

    def __init__(self, row: int, col: int, mass: float):
        super().__init__(f"mass {mass:g} at non-candidate entry ({row}, {col})")
        self.row = row
        self.col = col
        self.mass = mass


class EmptyBatch(PlrError):
    """An update was requested on a batch with no samples."""


class TooFewReps(PlrError):
    """Benchmark repetition count is below the minimum of 3."""


class FormatError(PlrError):
    """A file does not parse under its documented schema."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonFiniteLoss(PlrError):
    """Training produced a NaN or infinite loss."""


def _as_float_matrix(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be a 2-d matrix, got ndim={arr.ndim}")
    if arr.shape[1] < 1:
        raise ShapeMismatch(f"{name} must have at least one column")
    return arr


def _freeze(obj, **arrays) -> None:
    for key, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, key, arr)


@dataclass(frozen=True, eq=False)
class CandidateMatrix:
    """Binary indicator of which labels are plausible for each sample.

    Every row must hold at least one candidate: the constructor raises
    EmptyCandidateRow naming the first empty row, so no solver needs to
    check again.
    """

    bits: np.ndarray

    def __post_init__(self):
        bits = _as_float_matrix(self.bits, "candidate matrix")
        if bits.shape[0] < 1:
            raise ShapeMismatch("candidate matrix must have at least one row")
        if not np.all((bits == 0.0) | (bits == 1.0)):
            raise ValueError("candidate matrix entries must be 0 or 1")
        nonempty = bits.any(axis=1)
        if not nonempty.all():
            raise EmptyCandidateRow(int(np.argmin(nonempty)))
        _freeze(self, bits=bits)

    @property
    def n_samples(self) -> int:
        return self.bits.shape[0]

    @property
    def n_classes(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True, eq=False)
class PredictionMatrix:
    """Row-stochastic classifier outputs, one probability row per sample."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_float_matrix(self.values, "prediction matrix")
        if np.any(values < 0.0):
            raise ValueError("prediction entries must be nonnegative")
        if values.shape[0] > 0:
            sums = values.sum(axis=1)
            # Negated, so a NaN row sum fails too.
            if not np.max(np.abs(sums - 1.0)) <= ROW_SUM_TOL:
                raise ValueError("prediction rows must be finite and sum to 1 within 1e-9")
        _freeze(self, values=values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class PseudoLabelMatrix:
    """Row-stochastic disambiguation weights over classes.

    Support containment (zero mass outside a candidate set) is relative to
    a paired :class:`CandidateMatrix`; check it with
    :func:`validate_support`.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _as_float_matrix(self.values, "pseudo-label matrix")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("pseudo-label entries must lie in [0, 1]")
        if values.shape[0] > 0:
            sums = values.sum(axis=1)
            if not np.max(np.abs(sums - 1.0)) <= ROW_SUM_TOL:
                raise ValueError("pseudo-label rows must be finite and sum to 1 within 1e-9")
        _freeze(self, values=values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ClassPrior:
    """Strictly positive class marginal on the clamped simplex.

    Build instances through :func:`clamp_prior`; direct construction
    requires already-clamped values. Entries may sit a relative hair below
    PRIOR_EPS because clamping happens before the final renormalization.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ShapeMismatch("class prior must be a nonempty vector")
        if np.any(values < PRIOR_EPS * (1.0 - 1e-4)):
            raise ValueError("class prior entries must be at least 1e-8")
        if not abs(values.sum() - 1.0) <= ROW_SUM_TOL:
            raise ValueError("class prior must be finite and sum to 1 within 1e-9")
        _freeze(self, values=values)

    @property
    def n_classes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PlrHyperparams:
    """Pseudo-label regularization knobs: entropy temperature and prior-penalty exponent."""

    lam: float = 3.0
    m: float = 2.0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not 0 <= self.m < math.inf:
            raise ValueError("m must be nonnegative and finite")


class Rng:
    """Deterministic random stream with stable child derivation.

    The same seed yields the same draw sequence on every run and platform.
    Instances are single-owner: never share one across concurrent tasks,
    fork with :meth:`child` instead.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "Rng":
        """Derive an independent stream; (seed, path) fully determines it."""
        return Rng(self.seed, self._key + (int(index),))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def beta(self, a: float, b: float) -> float:
        return float(self.generator.beta(a, b))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, key={self._key})"


def validate_support(w: PseudoLabelMatrix, s: CandidateMatrix) -> None:
    """Raise SupportViolation if w carries mass outside the candidate set."""
    if w.values.shape != s.bits.shape:
        raise ShapeMismatch(
            f"pseudo-labels {w.values.shape} vs candidates {s.bits.shape}"
        )
    _check_support(w.values, s.bits)


def _check_support(w: np.ndarray, bits: np.ndarray) -> None:
    """Array form of :func:`validate_support` for same-shape plain arrays.

    Raises SupportViolation for the first (row-major) entry with positive
    mass where ``bits`` is zero.
    """
    outside = (w > 0.0) & (bits == 0.0)
    if outside.any():
        i, j = np.unravel_index(int(np.argmax(outside)), outside.shape)
        raise SupportViolation(int(i), int(j), float(w[i, j]))


def clamp_prior(raw) -> ClassPrior:
    """Clamp nonnegative class masses to at least 1e-8 and renormalize."""
    raw = np.ascontiguousarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.shape[0] < 1:
        raise ShapeMismatch("prior must be a nonempty vector")
    if not np.all(np.isfinite(raw)):
        raise ValueError("prior masses must be finite")
    if np.any(raw < 0.0):
        raise ValueError("prior masses must be nonnegative")
    total = raw.sum()
    if not total > 0.0:
        raise AllZeroPrior("no class has prior mass")
    clamped = np.maximum(raw / total, PRIOR_EPS)
    return ClassPrior(clamped / clamped.sum())


def row_normalize(v) -> np.ndarray:
    """Divide each row of a nonnegative matrix by its sum."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ShapeMismatch("row_normalize expects a 2-d matrix")
    if np.any(v < 0.0):
        raise ValueError("row_normalize expects nonnegative entries")
    sums = v.sum(axis=1, keepdims=True)
    zero = np.flatnonzero(sums[:, 0] == 0.0)
    if zero.size:
        raise ZeroRowSum(int(zero[0]))
    return v / sums


def xlogx(v: np.ndarray) -> np.ndarray:
    """Elementwise v*log(v) with the convention 0*log(0) = 0."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(v > 0.0, v * np.log(v), 0.0)
    return out


def read_ascii(path) -> str:
    """A file's text; a non-ASCII byte raises FormatError naming its line."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    bad = text.find("\ufffd")
    if bad >= 0:
        raise FormatError(text.count("\n", 0, bad) + 1, "non-ASCII byte")
    return text
