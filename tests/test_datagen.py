"""Long-tail profiles, candidate flipping, grouping, and the dataset file format."""

import numpy as np
import pytest

from plrlab.core import FormatError, Rng
from plrlab.datagen import (
    DatasetSpec,
    PartialDataset,
    gen_candidates,
    gen_dataset,
    group_split,
    longtail_counts,
    read_dataset,
    write_dataset,
)


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

        from plrlab.trainer import TrainConfig, train as run_training

        cfg = TrainConfig(epochs=15, pre_epochs=0, freeze_prior=True,
                          batch_size=64, hidden=(16,), timing=False, seed=2)
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
        from plrlab.trainer import TrainConfig, train as run_training

        cfg = TrainConfig(epochs=30, pre_epochs=0, freeze_prior=True,
                          batch_size=32, hidden=(16,), timing=False, seed=12)
        _, metrics, _ = run_training(train, cfg, test)
        assert metrics[-1].acc_all > 95.0


class TestGenCandidates:
    def test_no_flips_gives_singletons(self):
        labels = np.array([2, 0, 1, 1])
        s = gen_candidates(labels, 0.0, None, Rng(0), n_classes=3)
        np.testing.assert_array_equal(s.bits.sum(axis=1), 1.0)
        assert np.all(s.bits[np.arange(4), labels] == 1.0)

    def test_mean_candidate_count_matches_binomial(self):
        labels = Rng(1).integers(0, 10, 10000)
        s = gen_candidates(labels, 0.5, None, Rng(2), n_classes=10)
        mean_size = s.bits.sum(axis=1).mean()
        assert mean_size == pytest.approx(1.0 + 0.5 * 9.0, abs=0.1)

    def test_flip_rate_within_three_sigma(self):
        psi = 0.3
        labels = Rng(3).integers(0, 8, 12000)
        s = gen_candidates(labels, psi, None, Rng(4), n_classes=8)
        negatives = 12000 * 7
        flips = s.bits.sum() - 12000
        rate = flips / negatives
        sigma = np.sqrt(psi * (1 - psi) / negatives)
        assert abs(rate - psi) <= 3 * sigma

    def test_hierarchy_blocks_cross_group_flips(self):
        hierarchy = ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
        labels = Rng(5).integers(0, 10, 500)
        s = gen_candidates(labels, 0.5, hierarchy, Rng(6), n_classes=10)
        group_of = np.array([0] * 5 + [1] * 5)
        for i in range(500):
            cands = np.flatnonzero(s.bits[i])
            assert np.all(group_of[cands] == group_of[labels[i]])

    def test_true_label_always_candidate(self):
        labels = Rng(7).integers(0, 6, 300)
        s = gen_candidates(labels, 0.4, None, Rng(8), n_classes=6)
        assert np.all(s.bits[np.arange(300), labels] == 1.0)

    def test_partial_hierarchy_rejected(self):
        labels = np.array([0, 1, 2])
        with pytest.raises(ValueError):
            gen_candidates(labels, 0.3, ((0, 1),), Rng(0), n_classes=3)

    def test_hierarchy_beyond_class_count_rejected(self):
        # Class 3 does not exist among three classes; it must not widen
        # the matrix to four columns.
        labels = np.array([0, 1, 2])
        with pytest.raises(ValueError, match="class 3"):
            gen_candidates(labels, 0.3, ((0, 1), (2, 3)), Rng(0), n_classes=3)
        with pytest.raises(ValueError, match="class -1"):
            gen_candidates(labels, 0.3, ((0, 1, -1), (2,)), Rng(0), n_classes=3)

    def test_label_outside_class_count_rejected(self):
        for labels in ([0, 3], [-1, 0]):
            with pytest.raises(ValueError, match="range"):
                gen_candidates(np.array(labels), 0.3, None, Rng(0), n_classes=3)


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
        with pytest.raises(ValueError):
            DatasetSpec(n_classes=3, head_count=5, hierarchy=((0, 1),))


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

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("plrlab-dataset v2 N=1 c=2 d=1\n0\t1.0\t0\t0\n")
        with pytest.raises(FormatError) as exc:
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

    def test_dataset_bytes_stable_across_runs(self, tmp_path):
        spec = DatasetSpec(n_classes=4, head_count=12, flip_prob=0.2, seed=9)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(gen_dataset(spec)[0], a)
        write_dataset(gen_dataset(spec)[0], b)
        assert a.read_bytes() == b.read_bytes()


def test_partial_dataset_rejects_truth_outside_candidates():
    from plrlab.core import CandidateMatrix

    feats = np.zeros((2, 2))
    labels = np.array([0, 1])
    cands = CandidateMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        PartialDataset.from_arrays(feats, labels, cands)
