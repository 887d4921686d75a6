"""Long-tail profiles, candidate flipping, grouping, and the dataset file format."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import parse_records_loop, write_dataset_loop
from plrlab.core import CandidateMatrix, FormatError, Rng, ShapeMismatch, read_ascii
from plrlab.datagen import (
    DatasetSpec,
    PartialDataset,
    _parse_records,
    gen_candidates,
    gen_dataset,
    group_split,
    longtail_counts,
    read_dataset,
    write_dataset,
)
from plrlab.report import group_accuracy


class TestLongtailCounts:
    def test_endpoints_exact(self):
        counts = longtail_counts(5000, 100.0, 10)
        assert counts[0] == 5000
        assert counts[-1] == 50

    def test_balanced_when_ratio_one(self):
        np.testing.assert_array_equal(longtail_counts(123, 1.0, 7), np.full(7, 123))

    def test_profile_value_by_formula(self):
        counts = longtail_counts(5000, 100.0, 10)
        assert counts[1] == round(5000 * 100.0 ** (-1.0 / 9.0)) == 2997

    def test_non_increasing(self):
        for gamma in (1.0, 3.7, 50.0, 200.0):
            counts = longtail_counts(987, gamma, 23)
            assert np.all(np.diff(counts) <= 0)

    def test_single_class(self):
        np.testing.assert_array_equal(longtail_counts(9, 1.0, 1), [9])

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_ratio_rejected(self, gamma):
        # An infinite ratio used to return [10, 0, 0]: two empty classes.
        with pytest.raises(ValueError, match="finite imbalance_ratio"):
            longtail_counts(10, gamma, 3)

    def test_counts_take_integers_only(self):
        # head_count 500.6 gave [501, 50, 5], although class 0 gets exactly
        # head_count, and a float n_classes was accepted.
        with pytest.raises(ValueError, match="^head_count takes integers only"):
            longtail_counts(500.6, 100.0, 3)
        with pytest.raises(ValueError, match="^n_classes takes integers only"):
            longtail_counts(500, 100.0, 3.0)


class TestGenFeatures:
    def test_zero_separation_means_no_signal(self):
        spec = DatasetSpec(n_classes=3, head_count=60, class_separation=0.0,
                           feature_dim=4, flip_prob=0.0, test_per_class=30, seed=2)
        train, test = gen_dataset(spec)
        # All class means collapse to the origin: per-class feature means
        # agree within sampling noise, and a trained classifier stays at
        # chance level on the test split.
        per_class = [train.features[train.true_labels == k].mean(axis=0)
                     for k in range(3)]
        assert max(np.abs(a - b).max() for a in per_class for b in per_class) < 1.0

        from plrlab.prior import init_uniform
        from plrlab.trainer import TrainConfig, train as run_training

        cfg = TrainConfig(epochs=15, pre_epochs=0, fixed_prior=init_uniform(3).r,
                          batch_size=64, hidden=(16,), seed=2)
        _, metrics, _ = run_training(train, cfg, test)
        assert metrics[-1].acc_all < 60.0  # chance is 33%

    def test_wide_separation_trains_to_high_accuracy(self):
        # Hypersphere radius of 10*sqrt(d) makes the classes trivially
        # separable; full supervision (singleton candidates) should clear
        # 95% on the balanced test split.
        d = 4
        spec = DatasetSpec(n_classes=5, head_count=40, imbalance_ratio=2.0,
                           flip_prob=0.0, feature_dim=d,
                           class_separation=10.0 * np.sqrt(d),
                           test_per_class=20, seed=12)
        train, test = gen_dataset(spec)
        from plrlab.prior import init_uniform
        from plrlab.trainer import TrainConfig, train as run_training

        cfg = TrainConfig(epochs=30, pre_epochs=0, fixed_prior=init_uniform(5).r,
                          batch_size=32, hidden=(16,), seed=12)
        _, metrics, _ = run_training(train, cfg, test)
        assert metrics[-1].acc_all > 95.0


class TestGenCandidates:
    def test_no_flips_gives_singletons(self):
        labels = np.array([2, 0, 1, 1])
        s = gen_candidates(labels, 0.0, Rng(0), n_classes=3)
        np.testing.assert_array_equal(s.bits.sum(axis=1), 1.0)
        assert np.all(s.bits[np.arange(4), labels] == 1.0)

    def test_mean_candidate_count_matches_binomial(self):
        labels = Rng(1).integers(0, 10, 10000)
        s = gen_candidates(labels, 0.5, Rng(2), n_classes=10)
        mean_size = s.bits.sum(axis=1).mean()
        assert mean_size == pytest.approx(1.0 + 0.5 * 9.0, abs=0.1)

    def test_flip_rate_within_three_sigma(self):
        psi = 0.3
        labels = Rng(3).integers(0, 8, 12000)
        s = gen_candidates(labels, psi, Rng(4), n_classes=8)
        negatives = 12000 * 7
        flips = s.bits.sum() - 12000
        rate = flips / negatives
        sigma = np.sqrt(psi * (1 - psi) / negatives)
        assert abs(rate - psi) <= 3 * sigma

    def test_true_label_always_candidate(self):
        labels = Rng(7).integers(0, 6, 300)
        s = gen_candidates(labels, 0.4, Rng(8), n_classes=6)
        assert np.all(s.bits[np.arange(300), labels] == 1.0)

    @pytest.mark.parametrize("n_classes", [2.0, True])
    def test_class_count_must_be_an_integer(self, n_classes):
        # Used to raise a bare TypeError from numpy's uniform draw.
        with pytest.raises(ValueError, match=f"^n_classes takes integers only, got {n_classes}$"):
            gen_candidates(np.array([0, 0]), 0.5, Rng(0), n_classes)

    @pytest.mark.parametrize("psi", [1.0, -0.1, float("nan")])
    def test_flip_prob_outside_the_unit_interval_rejected(self, psi):
        with pytest.raises(ValueError, match=r"flip_prob must lie in \[0, 1\)"):
            gen_candidates(np.array([0, 1]), psi, Rng(0), n_classes=3)

    def test_label_outside_class_count_rejected(self):
        for labels in ([0, 3], [-1, 0]):
            with pytest.raises(ValueError, match="range"):
                gen_candidates(np.array(labels), 0.3, Rng(0), n_classes=3)


class TestGroupSplit:
    def test_ten_classes(self):
        assert group_split(np.arange(10)[::-1], 10) == (3, 7)

    def test_hundred_classes(self):
        assert group_split(np.arange(100)[::-1], 100) == (33, 67)

    def test_nine_classes_exact_thirds(self):
        assert group_split(np.arange(9)[::-1], 9) == (3, 6)

    def test_remainder_goes_to_middle(self):
        assert group_split(np.arange(11)[::-1], 11) == (3, 8)

    def test_unsorted_counts_rejected(self):
        with pytest.raises(ValueError):
            group_split(np.array([1, 5, 3]), 3)

    def test_count_per_class_required(self):
        with pytest.raises(ShapeMismatch, match="3 counts for 4 classes"):
            group_split(np.array([5, 3, 1]), 4)
        # A scalar used to raise a bare IndexError.
        with pytest.raises(ShapeMismatch, match=r"^class counts must be 1-d, got shape \(\)$"):
            group_split(5, 3)

    @pytest.mark.parametrize("n_classes", [3.0, True])
    def test_class_count_must_be_an_integer(self, n_classes):
        # 3.0 used to return the float boundaries (1.0, 2.0).
        with pytest.raises(ValueError, match=f"^n_classes takes integers only, got {n_classes}$"):
            group_split(np.array([3, 2, 1]), n_classes)


class TestGenDataset:
    def test_truth_contained_and_counts_exact(self):
        spec = DatasetSpec(n_classes=10, head_count=100, imbalance_ratio=20.0,
                           flip_prob=0.5, feature_dim=8, seed=11)
        train, test = gen_dataset(spec)
        rows = np.arange(train.n_samples)
        assert np.all(train.candidates.bits[rows, train.true_labels] == 1.0)
        np.testing.assert_array_equal(
            train.class_counts, longtail_counts(100, 20.0, 10))
        np.testing.assert_array_equal(test.class_counts, np.full(10, spec.test_per_class))
        assert train.group_boundaries == (3, 7)

    def test_test_split_has_singleton_candidates(self):
        _, test = gen_dataset(DatasetSpec(n_classes=4, head_count=20, seed=0))
        np.testing.assert_array_equal(test.candidates.bits.sum(axis=1), 1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(n_classes=10, head_count=10, imbalance_ratio=100.0)
        with pytest.raises(ValueError):
            DatasetSpec(n_classes=2, head_count=10, flip_prob=1.0)


    @pytest.mark.parametrize("field, value", [
        ("class_separation", float("nan")), ("class_separation", float("inf")),
        ("class_separation", -1.0), ("imbalance_ratio", float("nan")),
        ("imbalance_ratio", float("inf")), ("imbalance_ratio", 0.5),
        ("feature_dim", 0), ("test_per_class", 0),
    ])
    def test_non_finite_or_out_of_range_spec_rejected(self, field, value):
        # NaN passed the old '< 0' and '< 1' tests.
        with pytest.raises(ValueError, match=field):
            DatasetSpec(n_classes=3, head_count=10, **{field: value})


class TestDatasetFile:
    def test_round_trip_identity(self, tmp_path):
        spec = DatasetSpec(n_classes=5, head_count=30, imbalance_ratio=6.0,
                           flip_prob=0.4, feature_dim=3, seed=21)
        train, _ = gen_dataset(spec)
        path = tmp_path / "ds.txt"
        write_dataset(train, path)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.features, train.features)
        np.testing.assert_array_equal(back.true_labels, train.true_labels)
        np.testing.assert_array_equal(back.candidates.bits, train.candidates.bits)
        np.testing.assert_array_equal(back.class_counts, train.class_counts)
        assert back.group_boundaries == train.group_boundaries

    def test_reserialization_is_byte_identical(self, tmp_path):
        train, _ = gen_dataset(DatasetSpec(n_classes=3, head_count=15, seed=4,
                                           flip_prob=0.3))
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_dataset(train, first, comments=["note = dropped on parse"])
        write_dataset(read_dataset(first), second)
        write_dataset(train, first)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_file_rejected_with_line(self, tmp_path):
        train, _ = gen_dataset(DatasetSpec(n_classes=3, head_count=10, seed=5))
        path = tmp_path / "ds.txt"
        write_dataset(train, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-4]) + "\n")
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="line 1: missing header"):
            read_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("plrlab-dataset v2 N=1 c=2 d=1\n0\t1.0\t0\t0\n")
        with pytest.raises(FormatError) as exc:
            read_dataset(path)
        assert exc.value.line == 1

    def test_zero_feature_header_rejected(self, tmp_path):
        # gen cannot write d=0 (DatasetSpec needs feature_dim >= 1), so the reader refuses it too.
        path = tmp_path / "ds.txt"
        path.write_text("plrlab-dataset v1 N=3 c=2 d=0\n0\t0\t0\n1\t1\t1\n2\t0\t0,1\n")
        with pytest.raises(FormatError, match="bad header") as exc:
            read_dataset(path)
        assert exc.value.line == 1

    def test_garbled_record_reports_line_number(self, tmp_path):
        train, _ = gen_dataset(DatasetSpec(n_classes=3, head_count=10, seed=6))
        path = tmp_path / "ds.txt"
        write_dataset(train, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("\t", ";", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            read_dataset(path)
        assert exc.value.line == 4

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_line_number(self, tmp_path, token):
        train, _ = gen_dataset(DatasetSpec(n_classes=3, head_count=10, seed=6))
        path = tmp_path / "ds.txt"
        write_dataset(train, path)
        lines = path.read_text().splitlines()
        fields = lines[5].split("\t")
        fields[2] = token
        lines[5] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="finite") as exc:
            read_dataset(path)
        assert exc.value.line == 6

    @pytest.mark.parametrize("lineno", [1, 2, 4])
    def test_non_ascii_byte_reports_line_number(self, tmp_path, lineno):
        train, _ = gen_dataset(DatasetSpec(n_classes=3, head_count=10, seed=6))
        path = tmp_path / "ds.txt"
        write_dataset(train, path, comments=["note"])
        lines = path.read_bytes().split(b"\n")
        # int() reads "0\x0c" and float() "\x0c0.5"; a file may hold neither.
        for byte, match in [(b"\xe9", "non-ASCII byte"), (b"\x0c", "control character"),
                            (b"\x1c", "control character"), (b"\x7f", "control character")]:
            edited = lines.copy()
            edited[lineno - 1] += byte
            path.write_bytes(b"\n".join(edited))
            with pytest.raises(FormatError, match=match) as exc:
                read_dataset(path)
            assert exc.value.line == lineno

    def test_huge_record_count_is_a_format_error(self, tmp_path):
        # The line loop used to size its arrays from N before counting the
        # records, so this header raised numpy's MemoryError under a memory limit.
        path = tmp_path / "ds.txt"
        path.write_text("plrlab-dataset v1 N=1000000000000 c=2 d=1\n0\t0.5\t0\t0\n")
        with pytest.raises(FormatError, match="expected N=1000000000000 records, found 1"):
            read_dataset(path)

    @pytest.mark.parametrize("c", [10**15, 10**30])
    def test_huge_class_count_is_a_format_error(self, tmp_path, c):
        # 10**15 candidate bits need 8 PB, past any address space, so numpy
        # refuses at once; its MemoryError used to escape the reader, as did
        # the ValueError numpy raises for a dimension past 2**63.
        path = tmp_path / "ds.txt"
        path.write_text(f"plrlab-dataset v1 N=1 c={c} d=1\n0\t0.5\t0\t0\n")
        with pytest.raises(FormatError, match="do not fit in memory") as exc:
            read_dataset(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("comment", ["a\nb", "a\rb", "\x0c", "\x7f"])
    def test_control_character_in_comment_raises_and_leaves_no_file(self, tmp_path, comment):
        # "a\nb" used to write a file that read_dataset rejects on line 3.
        train, _ = gen_dataset(DatasetSpec(n_classes=3, head_count=10, seed=6))
        path = tmp_path / "ds.txt"
        with pytest.raises(ValueError, match="control character"):
            write_dataset(train, path, comments=[comment])
        assert not path.exists()

    def test_non_ascii_comment_raises_and_leaves_no_file(self, tmp_path):
        # Used to leave the header and part of the comments on disk.
        train, _ = gen_dataset(DatasetSpec(n_classes=3, head_count=10, seed=6))
        path = tmp_path / "ds.txt"
        with pytest.raises(UnicodeEncodeError):
            write_dataset(train, path, comments=["out = \xe9.tsv"])
        assert not path.exists()

    def test_a_wide_file_reads_into_a_one_byte_candidate_mask(self, tmp_path):
        # 200 x 5000 candidate entries: a float64 mask alone would take 8 MB.
        n, c = 200, 5000
        labels = np.arange(n) * 10 // n
        bits = np.zeros((n, c), dtype=bool)
        bits[np.arange(n), labels] = bits[:, -1] = True
        write_dataset(PartialDataset(np.zeros((n, 1)), labels, CandidateMatrix(bits)),
                      tmp_path / "wide.tsv")
        tracemalloc.start()
        try:
            back = read_dataset(tmp_path / "wide.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.candidates.bits, bits)
        assert peak < 2 * n * c, peak

    def test_dataset_bytes_stable_across_runs(self, tmp_path):
        spec = DatasetSpec(n_classes=4, head_count=12, flip_prob=0.2, seed=9)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(gen_dataset(spec)[0], a)
        write_dataset(gen_dataset(spec)[0], b)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n_feature_rows, labels, bits, error, match", [
    pytest.param(3, [0, 1], [[1, 0], [0, 1]], ShapeMismatch, "features and labels",
                 id="features-vs-labels"),
    pytest.param(2, [0, 1], [[1, 0], [0, 1], [1, 1]], ShapeMismatch, "candidates disagree",
                 id="candidates-vs-features"),
    pytest.param(2, [0, 2], [[1, 0], [0, 1]], ValueError, "out of class range",
                 id="label-out-of-range"),
])
def test_partial_dataset_rejects_inconsistent_parts(n_feature_rows, labels, bits, error, match):
    with pytest.raises(error, match=match):
        PartialDataset(np.zeros((n_feature_rows, 2)), np.array(labels),
                       CandidateMatrix(np.array(bits, dtype=float)))


def test_partial_dataset_rejects_truth_outside_candidates():
    feats = np.zeros((2, 2))
    labels = np.array([0, 1])
    cands = CandidateMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        PartialDataset(feats, labels, cands)


_LABEL_TAKERS = {
    "PartialDataset": lambda y: PartialDataset(np.zeros((2, 3)), y, CandidateMatrix(np.ones((2, 2)))),
    "gen_candidates": lambda y: gen_candidates(y, 0.0, Rng(0), n_classes=2),
    "group_accuracy": lambda y: group_accuracy(y, [0, 1], (0, 2)),
}


@pytest.mark.parametrize("taker", _LABEL_TAKERS)
@pytest.mark.parametrize("labels, match", [
    pytest.param([0.7, 1.9], "got 0.7 at index 0", id="fraction"),
    pytest.param([0, np.nan], "got nan at index 1", id="nan"),
    pytest.param(np.array([0.0, np.inf]), "got inf at index 1", id="inf"),
    pytest.param([0, True], "got True at index 1", id="bool"),
])
def test_labels_take_whole_numbers_only(taker, labels, match):
    # Each was cast to int64: [0.7, 1.9] became [0, 1], and group_accuracy
    # read predictions 0.9 and 1.2 as 100 % correct.
    with pytest.raises(ValueError, match=f"takes whole numbers only, {match}"):
        _LABEL_TAKERS[taker](labels)


# Features the %-template and f"{x:.17g}" must print alike: signed zeros,
# subnormals and the ends of the float64 range.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3]
_FEATURES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_COMMENTS = st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
                     max_size=3)


@st.composite
def _datasets(draw):
    """A valid split: non-increasing class counts, truth inside each candidate set."""
    c = draw(st.integers(1, 5))
    d = draw(st.integers(1, 4))
    counts = sorted(draw(st.lists(st.integers(0, 4), min_size=c, max_size=c)), reverse=True)
    counts[0] = max(counts[0], 1)
    labels = np.array(draw(st.permutations(np.repeat(np.arange(c), counts).tolist())))
    n = labels.shape[0]
    feats = np.array(draw(st.lists(_FEATURES, min_size=n * d, max_size=n * d))).reshape(n, d)
    bits = np.array(draw(st.lists(st.booleans(), min_size=n * c, max_size=n * c)),
                    dtype=np.float64).reshape(n, c)
    bits[np.arange(n), labels] = 1.0
    return PartialDataset(feats, labels, CandidateMatrix(bits))


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(_datasets(), _COMMENTS)
def test_writer_bytes_equal_the_loop_writer(tmp_path_factory, ds, comments):
    base = tmp_path_factory.getbasetemp()
    write_dataset(ds, base / "bulk.tsv", comments)
    write_dataset_loop(ds, base / "loop.tsv", comments)
    assert (base / "bulk.tsv").read_bytes() == (base / "loop.tsv").read_bytes()
    lines = read_ascii(base / "bulk.tsv").split("\n")
    parsed = _parse_records(lines, ds.n_samples, ds.n_classes, ds.feature_dim)
    expected = (ds.features, ds.true_labels, ds.candidates.bits)
    assert all(_same_bits(a, b) for a, b in zip(parsed, expected))


def _assert_reader_agrees_with_line_loop(path, n, c, d):
    """read_dataset returns the line loop's arrays or raises its FormatError.

    The loop parses what read_ascii returns, so where read_ascii raises,
    read_dataset must raise the same error.
    """
    try:
        loop = parse_records_loop(read_ascii(path).split("\n"), n, c, d)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            read_dataset(path)
        assert (got.value.line, str(got.value)) == (exc.line, str(exc))
        return
    try:
        back = read_dataset(path)
    except FormatError:
        # The parser hands the loop's arrays on; the dataset type rejected them.
        with pytest.raises((ValueError, ShapeMismatch)):
            PartialDataset(loop[0], loop[1], CandidateMatrix(loop[2]))
        return
    assert all(_same_bits(a, b) for a, b in
               zip((back.features, back.true_labels, back.candidates.bits), loop))


def _edit_fields(edit):
    """A mutation of record 1 (file line 3): ``edit`` maps its field list to a new one."""
    def mutate(lines):
        lines[2] = "\t".join(edit(lines[2].split("\t")))
    return mutate


def _set_field(k, value):
    return _edit_fields(lambda parts: parts[:k] + [value] + parts[k + 1:])


def _insert_line(text):
    return lambda lines: lines.insert(3, text)


def _one_record_too_many(lines):
    lines.insert(-1, "6\t" + lines[-2].split("\t", 1)[1])


# Record 1 (file line 3) of a 6-record file with c=3, d=2: fields 0 id,
# 1-2 features, 3 label, 4 candidates.
_LISTED_MUTATIONS = {
    "dropped field": _edit_fields(lambda parts: parts[:-1]),
    "extra field": _edit_fields(lambda parts: parts + ["0"]),
    "bad float": _set_field(1, "1.5.2"),
    "empty float": _set_field(2, ""),
    "nan feature": _set_field(1, "nan"),
    "inf feature": _set_field(2, "-inf"),
    "overflowing feature": _set_field(1, "1e999"),
    "underscored feature": _set_field(1, "1_0"),
    "padded feature": _set_field(2, " 2.5 "),
    "control-padded feature": _set_field(1, "\x1c0.5"),
    "bad id and float": _edit_fields(lambda parts: ["x", "1.5.2"] + parts[2:]),
    "bad float and label": _edit_fields(lambda parts: parts[:2] + ["1.5.2", "x"] + parts[4:]),
    "id out of order": _set_field(0, "2"),
    "id spelled +1": _set_field(0, "+1"),
    "label above range": _set_field(3, "3"),
    "label below range": _set_field(3, "-1"),
    "label outside its candidates": _set_field(4, "1"),
    "candidate out of range": _set_field(4, "0,3"),
    "candidates unsorted": _set_field(4, "2,0"),
    "candidate repeated": _set_field(4, "0,0"),
    "empty candidate": _set_field(4, "0,,1"),
    "blank line between records": _insert_line(""),
    "comment between records": _insert_line("# note"),
    "one record too many": _one_record_too_many,
    "one record too few": lambda lines: lines.pop(-2),
}


@pytest.mark.parametrize("mutation", list(_LISTED_MUTATIONS))
def test_reader_agrees_with_the_line_loop_on_listed_mutations(tmp_path, mutation):
    labels = np.array([0, 0, 0, 1, 1, 2])
    bits = np.eye(3)[labels]
    bits[1, 1] = 1.0
    feats = np.arange(12.0).reshape(6, 2) / 4
    ds = PartialDataset(feats, labels, CandidateMatrix(bits))
    path = tmp_path / "ds.tsv"
    write_dataset(ds, path)
    lines = path.read_text().split("\n")
    _LISTED_MUTATIONS[mutation](lines)
    path.write_text("\n".join(lines))
    _assert_reader_agrees_with_line_loop(path, 6, 3, 2)


@pytest.mark.parametrize("first, second", [
    ("bad float", "label above range"), ("label above range", "bad float"),
    ("id out of order", "empty float"), ("nan feature", "candidates unsorted"),
    ("underscored feature", "one record too few"),
])
def test_the_first_fault_in_file_order_wins(tmp_path, first, second):
    # Features are read after the other checks; a later line's fault must
    # not jump ahead of an earlier line's bad feature, nor the reverse.
    labels = np.array([0, 0, 0, 1, 1, 2])
    ds = PartialDataset(np.arange(12.0).reshape(6, 2) / 4, labels,
                        CandidateMatrix(np.eye(3)[labels]))
    path = tmp_path / "ds.tsv"
    write_dataset(ds, path)
    lines = path.read_text().split("\n")
    # The listed mutations edit file line 3; ``second`` edits line 5 by a swap.
    lines[2], lines[4] = lines[4], lines[2]
    _LISTED_MUTATIONS[second](lines)
    lines[2], lines[4] = lines[4], lines[2]
    _LISTED_MUTATIONS[first](lines)
    path.write_text("\n".join(lines))
    _assert_reader_agrees_with_line_loop(path, 6, 3, 2)


# Field values for the drawn mutations: spellings float() or int() read
# differently from numpy's parser, non-finite values, junk, small integers.
_TOKENS = (st.sampled_from(["", " ", "x", "-", ",", "nan", "-inf", "inf", "1e999", "1_0",
                            "0x1p3", "1e", "1.5.2", "1,5", "+2", " 3", "3 ", "-0", ".5", "5.",
                            "1E3", "00", "Infinity", "1\x00", "\x0b2", "1j", "#",
                            "99999999999999999999"])
           | st.integers(-2, 7).map(str)
           | _FEATURES.map(repr)
           | st.text(st.characters(max_codepoint=127), max_size=4))


def _mutate(data, lines, first_record):
    """Apply one drawn mutation to a written file's lines, in place."""
    records = range(first_record, len(lines) - 1)
    kind = data.draw(st.sampled_from(["replace", "drop", "insert", "candidates", "interleave",
                                      "delete", "duplicate", "swap"]))
    i = data.draw(st.sampled_from(records))
    parts = lines[i].split("\t")
    k = data.draw(st.integers(0, len(parts) - 1))
    if kind == "replace":
        parts[k] = data.draw(_TOKENS)
    elif kind == "drop":
        del parts[k]
    elif kind == "insert":
        parts.insert(k, data.draw(_TOKENS))
    elif kind == "candidates":
        parts[-1] = ",".join(map(str, data.draw(st.lists(st.integers(-2, 6), min_size=1,
                                                         max_size=5))))
    lines[i] = "\t".join(parts)
    if kind == "interleave":
        extra = data.draw(st.sampled_from(["", "#", "# note", "#\t0"]) | _TOKENS)
        lines.insert(data.draw(st.integers(1, len(lines))), extra)
    elif kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = data.draw(st.sampled_from(records))
        lines[i], lines[j] = lines[j], lines[i]


@given(_datasets(), _COMMENTS, st.data())
def test_reader_agrees_with_the_line_loop_on_drawn_mutations(tmp_path_factory, ds, comments, data):
    path = tmp_path_factory.getbasetemp() / "mutated.tsv"
    write_dataset(ds, path, comments)
    lines = path.read_text().split("\n")
    _mutate(data, lines, 1 + len(comments))
    path.write_text("\n".join(lines))
    _assert_reader_agrees_with_line_loop(path, ds.n_samples, ds.n_classes, ds.feature_dim)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3),
       st.text(st.sampled_from(list("0123456789\t\n,.-+e#")) | st.characters(max_codepoint=127),
               max_size=120))
def test_arbitrary_ascii_after_header_raises_only_format_error(tmp_path_factory, n, c, d, body):
    path = tmp_path_factory.getbasetemp() / "fuzz.tsv"
    path.write_bytes(f"plrlab-dataset v1 N={n} c={c} d={d}\n{body}".encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is not a clean rejection either
        try:
            read_dataset(path)
        except FormatError:
            pass
