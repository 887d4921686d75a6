"""Seeded synthetic long-tailed partially-labeled datasets and their file format.

Class sizes follow an exponential profile between a head count and
head/imbalance_ratio; features are isotropic Gaussian clouds around class
means drawn on a hypersphere whose radius sets the task difficulty.
Candidate sets contain the true label plus each negative label flipped in
independently with the ambiguity probability.

Datasets serialize to a line-oriented text format::

    plrlab-dataset v1 N=<int> c=<int> d=<int>
    <id> TAB f_1 ... TAB f_d TAB <true label> TAB <cand,cand,...>

in the framing of ``core.write_ascii`` ('# ' comments after the header,
blank and '#' lines skipped but counted), with ``%.17g`` features so files
round-trip exactly. The reader requires exactly N records with ids 0..N-1
in order (counted before any array is sized from N), d + 3 fields each, a
label in [0, c), candidate ids strictly ascending in [0, c) and including
the label, class sizes that do not increase from class 0 on, and finite
features; anything else raises FormatError naming the line. Records are
written in bulk and read by one parser, which defines what is accepted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CandidateMatrix,
    FormatError,
    Rng,
    ShapeMismatch,
    _Validated,
    _check_integers,
    _check_type,
    _whole_numbers,
    body_lines,
    read_ascii,
    write_ascii,
)

__all__ = [
    "DatasetSpec",
    "PartialDataset",
    "longtail_counts",
    "gen_candidates",
    "group_split",
    "gen_dataset",
    "write_dataset",
    "read_dataset",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one seeded train/test dataset pair."""

    n_classes: int
    head_count: int
    imbalance_ratio: float = 1.0
    flip_prob: float = 0.0
    feature_dim: int = 16
    class_separation: float = 4.0
    test_per_class: int = 50
    seed: int = 0

    def __post_init__(self):
        _check_integers(n_classes=self.n_classes, head_count=self.head_count,
                        feature_dim=self.feature_dim, test_per_class=self.test_per_class,
                        seed=self.seed)
        if self.n_classes < 1 or self.head_count < 1 or self.feature_dim < 1:
            raise ValueError("n_classes, head_count and feature_dim must be positive")
        if not 1.0 <= self.imbalance_ratio < math.inf:
            raise ValueError("imbalance_ratio must be finite and at least 1")
        if not 0.0 <= self.flip_prob < 1.0:
            raise ValueError("flip_prob must lie in [0, 1)")
        if round(self.head_count / self.imbalance_ratio) < 1:
            raise ValueError("tail class would be empty: head_count/imbalance_ratio < 0.5")
        if self.test_per_class < 1:
            raise ValueError("test_per_class must be positive")
        if not 0.0 <= self.class_separation < math.inf:
            raise ValueError("class_separation must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class PartialDataset(_Validated):
    """Feature matrix, hidden true labels, and candidate sets for one split.

    The constructor derives ``class_counts``, the true labels per class,
    and ``group_boundaries``, the many/medium/few split points; classes are
    ordered head to tail, so counts that increase raise ValueError.
    """

    features: np.ndarray
    true_labels: np.ndarray
    candidates: CandidateMatrix
    class_counts: np.ndarray = field(init=False)
    group_boundaries: tuple[int, int] = field(init=False)

    def __post_init__(self):
        _check_type("candidates", self.candidates, CandidateMatrix)
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = _whole_numbers("true_labels", self.true_labels)
        if feats.ndim != 2 or labels.ndim != 1 or feats.shape[0] != labels.shape[0]:
            raise ShapeMismatch("features and labels disagree on the sample count")
        if feats.shape[0] != self.candidates.n_samples:
            raise ShapeMismatch("candidates disagree with features on the sample count")
        c = self.candidates.n_classes
        if labels.size and (labels.min() < 0 or labels.max() >= c):
            raise ValueError("true labels out of class range")
        rows = np.arange(labels.shape[0])
        if not self.candidates.bits[rows, labels].all():
            raise ValueError("every true label must be inside its candidate set")
        counts = np.bincount(labels, minlength=c)
        object.__setattr__(self, "group_boundaries", group_split(counts, c))
        self._freeze(features=feats, true_labels=labels, class_counts=counts)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return self.candidates.n_classes

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def longtail_counts(head_count: int, imbalance_ratio: float, n_classes: int) -> np.ndarray:
    """Per-class sample counts on an exponential head-to-tail profile.

    Endpoints are exact: class 0 gets head_count, the last class gets
    round(head_count / imbalance_ratio).
    """
    _check_integers(head_count=head_count, n_classes=n_classes)
    if n_classes < 1 or head_count < 1 or not 1.0 <= imbalance_ratio < math.inf:
        raise ValueError("need n_classes >= 1, head_count >= 1, finite imbalance_ratio >= 1")
    if n_classes == 1:
        return np.array([head_count], dtype=np.int64)
    exponents = np.arange(n_classes) / (n_classes - 1)
    raw = head_count * imbalance_ratio ** (-exponents)
    return np.array([round(x) for x in raw], dtype=np.int64)


def _class_means(spec: DatasetSpec, rng: Rng) -> np.ndarray:
    directions = rng.normal(size=(spec.n_classes, spec.feature_dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return spec.class_separation * directions / norms


def _sample_split(means: np.ndarray, counts: np.ndarray, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    labels = np.repeat(np.arange(means.shape[0]), counts)
    feats = means[labels] + rng.normal(size=(labels.shape[0], means.shape[1]))
    return feats, labels


def gen_candidates(true_labels, flip_prob: float, rng: Rng, n_classes: int) -> CandidateMatrix:
    """Candidate sets: the true label plus independently flipped negatives.

    n_classes must be an integer, and labels whole numbers in range(n_classes).
    """
    _check_integers(n_classes=n_classes)
    if not 0.0 <= flip_prob < 1.0:
        raise ValueError("flip_prob must lie in [0, 1)")
    labels = _whole_numbers("true_labels", true_labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"true labels must lie in range({n_classes})")
    bits = rng.uniform(size=(labels.shape[0], n_classes)) < flip_prob
    bits[np.arange(labels.shape[0]), labels] = True
    return CandidateMatrix(bits)


def group_split(class_counts, n_classes: int) -> tuple[int, int]:
    """Boundary indices splitting classes into many/medium/few thirds.

    Classes [0, lo) are many, [lo, hi) medium, [hi, c) few; any remainder
    goes to the middle group. Expects counts sorted non-increasing.
    """
    _check_integers(n_classes=n_classes)
    counts = np.asarray(class_counts)
    if counts.ndim != 1:
        raise ShapeMismatch(f"class counts must be 1-d, got shape {counts.shape}")
    if counts.shape[0] != n_classes:
        raise ShapeMismatch(f"{counts.shape[0]} counts for {n_classes} classes")
    if np.any(np.diff(counts) > 0):
        raise ValueError("class counts must be sorted non-increasing")
    lo = n_classes // 3
    hi = n_classes - n_classes // 3
    return lo, hi


def gen_dataset(spec: DatasetSpec) -> tuple[PartialDataset, PartialDataset]:
    """Seeded (train, test) pair sharing class means.

    The train split is long-tailed with flipped candidate sets; the test
    split is balanced (test_per_class each) with singleton candidates.
    """
    rng = Rng(spec.seed)
    means = _class_means(spec, rng.child(0))
    train_counts = longtail_counts(spec.head_count, spec.imbalance_ratio, spec.n_classes)
    train_x, train_y = _sample_split(means, train_counts, rng.child(1))
    test_counts = np.full(spec.n_classes, spec.test_per_class, dtype=np.int64)
    test_x, test_y = _sample_split(means, test_counts, rng.child(2))

    train_s = gen_candidates(train_y, spec.flip_prob, rng.child(3), spec.n_classes)
    test_s = gen_candidates(test_y, 0.0, rng.child(4), spec.n_classes)

    train = PartialDataset(train_x, train_y, train_s)
    test = PartialDataset(test_x, test_y, test_s)
    return train, test


def write_dataset(ds: PartialDataset, path, comments=()) -> None:
    """Serialize a dataset split; optional '#' comment lines follow the header.

    Records are formatted in bulk (one %-template per record, candidate ids
    from the packed index) and streamed one at a time: neither the file nor
    a Python copy of the feature matrix is ever held whole.
    """
    n, c, d = ds.n_samples, ds.n_classes, ds.feature_dim
    # '%.17g' prints the same digits as f"{x:.17g}", so the bytes match a
    # record-by-record f-string writer.
    template = "%d\t" + "\t".join(["%.17g"] * d) + "\t%d\t%s\n"
    _, rows, cols = ds.candidates.packed
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    labels = ds.true_labels.tolist()
    write_ascii(path, f"plrlab-dataset v1 N={n} c={c} d={d}", comments,
                (template % (i, *ds.features[i].tolist(), labels[i],
                             ",".join(map(str, cols[starts[i] : starts[i + 1]])))
                 for i in range(n)))


_HEADER_RE = re.compile(r"^plrlab-dataset v1 N=(\d+) c=(\d+) d=([1-9]\d*)$")


def read_dataset(path) -> PartialDataset:
    """Parse a dataset file, raising FormatError with the offending line number."""
    lines = read_ascii(path).split("\n")
    if not lines or not lines[0]:
        raise FormatError(1, "missing header")
    match = _HEADER_RE.match(lines[0])
    if match is None:
        raise FormatError(1, f"bad header {lines[0]!r}")
    n, c, d = (int(g) for g in match.groups())
    features, labels, bits = _parse_records(lines, n, c, d)
    try:
        return PartialDataset(features, labels, CandidateMatrix(bits))
    except (ValueError, ShapeMismatch) as exc:
        raise FormatError(len(lines), str(exc)) from None


def _parse_records(lines: list[str], n: int, c: int, d: int):
    """Features, labels and candidate bits of the records after the header.

    The definition of a valid record block. One pass checks each line in
    order: record count, field count, int() id, int() label and candidates,
    id order, label range, candidate order and range. The features of each
    line whose id parsed are read after the pass, in one call to numpy's
    parser; only when it raises does float() re-read them line by line,
    which names the first bad line and reads spellings only float() takes,
    such as '1_0'. Given read_ascii's bytes, numpy takes none that float()
    rejects. A fault the pass found is raised next, so the first fault in
    file order wins; then the record count and finiteness are checked.
    """
    records, record_lines, labels, cands = [], [], [], []
    fault = None
    try:
        for row, (lineno, line) in enumerate(body_lines(lines)):
            if row >= n:
                raise FormatError(lineno, f"more than N={n} records")
            parts = line.split("\t")
            if len(parts) != d + 3:
                raise FormatError(lineno, f"expected {d + 3} fields, got {len(parts)}")
            try:
                idx = int(parts[0])
                records.append(line)
                record_lines.append(lineno)
                label = int(parts[d + 1])
                ids = [int(x) for x in parts[d + 2].split(",")]
            except ValueError as exc:
                raise FormatError(lineno, str(exc)) from None
            if idx != row:
                raise FormatError(lineno, f"record id {idx}, expected {row}")
            if not 0 <= label < c:
                raise FormatError(lineno, f"label {label} out of range")
            if ids[0] < 0 or ids[-1] >= c or any(b <= a for a, b in zip(ids, ids[1:])):
                raise FormatError(lineno, "candidate ids must be strictly ascending and in range")
            labels.append(label)
            cands.append(ids)
    except FormatError as exc:
        fault = exc
    features = None
    if records and d:  # with nothing to read, np.loadtxt warns
        try:
            features = np.loadtxt(records, delimiter="\t", comments=None,
                                  usecols=range(1, d + 1), ndmin=2)
        except ValueError:
            pass
    if features is None:
        parsed = []
        for lineno, line in zip(record_lines, records):
            try:
                parsed.append([float(x) for x in line.split("\t")[1 : d + 1]])
            except ValueError as exc:
                raise FormatError(lineno, str(exc)) from None
        features = np.array(parsed, dtype=np.float64).reshape(len(parsed), d)
    if fault is not None:
        raise fault
    # Arrays are sized only now, so a header's N cannot allocate unread records.
    if len(labels) != n:
        raise FormatError(len(lines), f"expected N={n} records, found {len(labels)}")
    finite_rows = np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        raise FormatError(record_lines[int(np.argmin(finite_rows))], "features must be finite")
    try:
        bits = np.zeros((n, c), dtype=bool)
    except (MemoryError, ValueError):
        raise FormatError(1, f"N={n} x c={c} candidate bits do not fit in memory") from None
    rows = np.repeat(np.arange(n), [len(ids) for ids in cands])
    bits[rows, [j for ids in cands for j in ids]] = True
    return features, np.array(labels, dtype=np.int64), bits
