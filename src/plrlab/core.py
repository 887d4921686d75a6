"""Shared domain types, validated constructors, seeded randomness, and file framing.

Everything downstream (solvers, prior estimation, training) works on the
four matrix/vector types defined here. All types are immutable after
construction and carry their invariants: predictions and pseudo-labels are
row-stochastic, candidate sets are binary with no empty row, class priors
live on the clamped simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only :func:`_pack` index of ``bits``, built on first use and kept."""
        index = _pack(self.bits)
        for arr in index:
            arr.setflags(write=False)
        return index

    @property
    def n_samples(self) -> int:
        return self.bits.shape[0]

    @property
    def n_classes(self) -> int:
        return self.bits.shape[1]


def _pack(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat index, row, column) of each positive entry of 2-d ``bits``, in row-major order."""
    flat = (bits > 0.0).ravel().nonzero()[0]
    return (flat, *np.divmod(flat, bits.shape[1]))


def _scatter(values: np.ndarray, flat: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A zero matrix of ``shape`` holding ``values`` at row-major ``flat`` indices."""
    out = np.zeros(shape[0] * shape[1])
    out[flat] = values
    return out.reshape(shape)


def _check_row_stochastic(name: str, values: np.ndarray, sums: np.ndarray) -> None:
    """Raise ValueError unless ``values`` lie in [0, 1] and row ``sums`` are 1 within 1e-9."""
    # Negated, so a NaN entry fails too.
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError(f"{name} entries must be finite and lie in [0, 1]")
    if sums.size and not np.max(np.abs(sums - 1.0)) <= ROW_SUM_TOL:
        raise ValueError(f"{name} rows must sum to 1 within 1e-9")


@dataclass(frozen=True, eq=False)
class _RowStochastic:
    """A matrix with entries in [0, 1] and rows that sum to 1."""

    values: np.ndarray

    def __post_init__(self):
        name = type(self).__name__
        values = _as_float_matrix(self.values, name)
        # BLAS matvec: faster than sum(axis=1)
        _check_row_stochastic(name, values, values @ np.ones(values.shape[1]))
        _freeze(self, values=values)

    @classmethod
    def _from_packed(cls, values: np.ndarray, flat: np.ndarray, rows: np.ndarray,
                     shape: tuple[int, int]):
        """``values`` at row-major ``flat`` indices (rows ``rows``), zero elsewhere;
        checked before the scatter, since a zero entry can fail no check."""
        _check_row_stochastic(cls.__name__, values,
                              np.bincount(rows, weights=values, minlength=shape[0]))
        obj = object.__new__(cls)
        _freeze(obj, values=_scatter(values, flat, shape))
        return obj

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


class PredictionMatrix(_RowStochastic):
    """Row-stochastic classifier outputs, one probability row per sample."""


class PseudoLabelMatrix(_RowStochastic):
    """Row-stochastic disambiguation weights over classes.

    Support containment (zero mass outside a paired :class:`CandidateMatrix`)
    holds by construction: every update returns its kernel's weights at the
    packed candidate entries, and one scatter writes them into a zero matrix.
    """


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
        _check_integers(seed=seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
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


def _check_integers(**settings) -> None:
    """Raise ValueError naming the first setting that is not an integer, or a
    tuple or list setting that holds a non-integer; a bool is not an integer here."""
    for name, value in settings.items():
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (value if isinstance(value, (tuple, list)) else (value,))):
            raise ValueError(f"{name} takes integers only, got {value!r}")


def _check_prior(c: int, r: ClassPrior) -> None:
    """Raise ShapeMismatch unless the prior ``r`` covers ``c`` classes."""
    if r.n_classes != c:
        raise ShapeMismatch(f"prior has {r.n_classes} classes, expected {c}")


def _check_pair(f: PredictionMatrix, s: CandidateMatrix) -> None:
    if f.values.shape != s.bits.shape:
        raise ShapeMismatch(f"predictions {f.values.shape} vs candidates {s.bits.shape}")


def clamp_prior(raw) -> ClassPrior:
    """Clamp nonnegative class masses to at least 1e-8 and renormalize."""
    raw = np.ascontiguousarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.shape[0] < 1:
        raise ShapeMismatch("prior must be a nonempty vector")
    if not np.all(np.isfinite(raw)):
        raise ValueError("prior masses must be finite")
    if np.any(raw < 0.0):
        raise ValueError("prior masses must be nonnegative")
    with np.errstate(over="ignore"):
        total = raw.sum()
    if total == math.inf:  # finite masses whose sum overflows: scale them down first
        raw = raw / raw.max()
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
    with np.errstate(over="ignore", invalid="ignore"):
        sums = v.sum(axis=1, keepdims=True)
    # Negated, so NaN fails too; a finite row sum rules out an inf entry and overflow.
    if not (np.all(v >= 0.0) and np.isfinite(sums).all()):
        raise ValueError("row_normalize expects nonnegative entries and finite row sums")
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


# The bytes a line of a plrlab file may hold: printable ASCII and tab.
_LINE_BYTES = bytes(range(0x20, 0x7F)) + b"\t"


def write_ascii(path, head: str, comments, body) -> None:
    """Write a file in the framing every plrlab file shares: head, comments, body.

    ``head`` is line 1 (none if empty), each comment a '# ' line, and ``body``
    newline-terminated lines, streamed. Head and comments are checked first,
    so a non-ASCII character raises UnicodeEncodeError, and a control
    character (tab aside) ValueError, and either leaves no file.
    """
    top = ([head] if head else []) + [f"# {line}" for line in comments]
    if "".join(top).encode("ascii").translate(None, _LINE_BYTES):
        raise ValueError("control character in a file head or comment")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in top)
        fh.writelines(body)


def read_ascii(path) -> str:
    """A file's text, or FormatError naming the line of its first bad byte.

    Only printable ASCII, tab and line breaks are good; any other byte is a
    "non-ASCII byte" or a "control character".
    """
    with open(path, "r", encoding="latin-1") as fh:
        text = fh.read()
    # The C-level scan: translate deletes the allowed bytes, leaving the bad ones in order.
    bad = text.encode("latin-1").translate(None, _LINE_BYTES + b"\n")
    if bad:
        kind = "non-ASCII byte" if bad[0] > 0x7F else "control character"
        raise FormatError(text.count("\n", 0, text.index(chr(bad[0]))) + 1, kind)
    return text


def body_lines(lines: list[str]) -> list[tuple[int, str]]:
    """(file line number, line) for each line after the header; blank and '#' lines are skipped."""
    return [(lineno, line) for lineno, line in enumerate(lines[1:], start=2)
            if line and not line.startswith("#")]
