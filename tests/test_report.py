"""Group metrics, prior-compensated prediction, kernel timing, result files."""

import dataclasses
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plrlab import report
from plrlab.core import FormatError, Rng, ShapeMismatch, TooFewReps, clamp_prior
from plrlab.report import (
    EpochMetrics,
    bench_pseudo,
    emit_bench,
    emit_metrics,
    group_accuracy,
    logits_adjust_predict,
    read_metrics,
)


class TestGroupAccuracy:
    def test_all_correct(self):
        truth = np.repeat(np.arange(9), 4)
        acc = group_accuracy(truth, truth, (3, 6))
        assert (acc.overall, acc.many, acc.medium, acc.few) == (100.0, 100.0, 100.0, 100.0)

    def test_all_wrong(self):
        truth = np.repeat(np.arange(9), 4)
        preds = (truth + 1) % 9
        acc = group_accuracy(preds, truth, (3, 6))
        assert (acc.overall, acc.many, acc.medium, acc.few) == (0.0, 0.0, 0.0, 0.0)

    def test_only_tail_wrong(self):
        # Balanced test over 10 classes, classes 7-9 all wrong.
        truth = np.repeat(np.arange(10), 5)
        preds = truth.copy()
        preds[truth >= 7] = 0
        acc = group_accuracy(preds, truth, (3, 7))
        assert acc.few == 0.0
        assert acc.many == 100.0
        assert acc.medium == 100.0
        assert acc.overall == pytest.approx(70.0)

    def test_overall_is_group_mean_when_balanced(self):
        rng = np.random.default_rng(2)
        truth = np.repeat(np.arange(9), 10)
        preds = rng.integers(0, 9, truth.size)
        acc = group_accuracy(preds, truth, (3, 6))
        assert acc.overall == pytest.approx((acc.many + acc.medium + acc.few) / 3.0)

    def test_empty_groups_read_nan(self):
        # Two classes fill the medium group only (datagen.group_split gives (0, 2)).
        # The empty groups read 0.0, which looked like a tail that missed every sample.
        truth = np.array([0, 0, 1])
        acc = group_accuracy(truth, truth, (0, 2))
        assert acc.overall == acc.medium == 100.0
        assert np.isnan(acc.many) and np.isnan(acc.few)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            group_accuracy(np.zeros(3, dtype=int), np.zeros(4, dtype=int), (1, 2))


class TestLogitsAdjust:
    def test_phi_zero_is_plain_argmax(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(50, 6))
        r = clamp_prior(rng.uniform(0.05, 1.0, 6))
        np.testing.assert_array_equal(
            logits_adjust_predict(logits, r, 0.0), np.argmax(logits, axis=1))

    def test_equal_logits_prefer_rare_class(self):
        r = clamp_prior(np.array([0.9, 0.1]))
        got = logits_adjust_predict(np.zeros((1, 2)), r, 1.0)
        assert got[0] == 1

    def test_larger_phi_moves_mass_to_tail(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(300, 5))
        r = clamp_prior(np.array([0.6, 0.2, 0.1, 0.07, 0.03]))
        tail_share = []
        for phi in (0.0, 0.5, 1.0, 2.0):
            preds = logits_adjust_predict(logits, r, phi)
            tail_share.append((preds >= 3).mean())
        assert tail_share == sorted(tail_share)

    def test_non_finite_rejected(self):
        r = clamp_prior(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            logits_adjust_predict(np.array([[np.inf, 0.0]]), r, 0.5)

    def test_logits_of_another_class_count_rejected(self):
        r = clamp_prior(np.array([0.5, 0.5]))
        with pytest.raises(ShapeMismatch, match=r"logits \(3, 3\) vs 2 classes"):
            logits_adjust_predict(np.zeros((3, 3)), r, 0.5)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi_rejected(self, phi):
        # A NaN or infinite phi used to predict class 0 for every row.
        r = clamp_prior(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="phi must be finite"):
            logits_adjust_predict(np.zeros((3, 2)), r, phi)


class TestBenchPseudo:
    def test_too_few_reps(self):
        with pytest.raises(TooFewReps):
            bench_pseudo(["plr"], 32, 5, 2, Rng(0))

    @pytest.mark.parametrize("args, name", [
        pytest.param((8.0, 5, 3), "batch_size", id="batch-size"),
        pytest.param((8, 5.0, 3), "n_classes", id="classes"),
        pytest.param((8, 5, 3.5), "reps", id="reps"),
    ])
    def test_non_integer_size_or_reps_names_itself(self, args, name):
        # Each used to raise numpy's bare TypeError.
        with pytest.raises(ValueError, match=f"{name} takes integers only"):
            bench_pseudo(["plr"], *args, Rng(0))

    @pytest.mark.parametrize("args, name", [
        pytest.param((0, 5, 3), "batch_size", id="batch-size"),
        pytest.param((8, 0, 3), "n_classes", id="classes"),
    ])
    def test_size_below_one_names_itself(self, args, name):
        # An empty batch failed in CandidateMatrix, naming no bench setting;
        # zero classes failed in longtail_counts.
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
            bench_pseudo(["plr"], *args, Rng(0))

    def test_records_well_formed(self):
        records = bench_pseudo(["plr", "proden", "sinkhorn"], 64, 10, 3, Rng(1))
        assert [r.method for r in records] == ["plr", "proden", "sinkhorn"]
        for rec in records:
            assert rec.mean_s > 0.0
            assert rec.std_s >= 0.0
            assert rec.repetitions == 3

    def test_plr_faster_than_sinkhorn(self):
        records = {r.method: r for r in
                   bench_pseudo(["plr", "sinkhorn"], 256, 10, 5, Rng(2))}
        assert records["plr"].mean_s < records["sinkhorn"].mean_s

    def test_timing_noise_bounded_after_warmup(self, monkeypatch):
        # Flakiness guard: the warmed-up per-call spread should stay well
        # under half the typical call. Each round's spread is the
        # interquartile range over the median of its 10 timed calls, so one
        # or two stalled calls do not count, and the median over five
        # rounds ignores a round that a longer stall spans. The per-call
        # times are read off the clock bench_pseudo calls, one start and
        # one stop per timed call.
        stamps = []

        def perf_counter():
            stamps.append(time.perf_counter())
            return stamps[-1]

        monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=perf_counter))
        spreads = []
        for _ in range(5):
            stamps.clear()
            records = bench_pseudo(["plr", "sinkhorn"], 256, 50, 10, Rng(6))
            calls = np.diff(stamps)[::2].reshape(len(records), 10)
            np.testing.assert_allclose([rec.mean_s for rec in records], calls.mean(axis=1))
            q1, median, q3 = np.percentile(calls, [25, 50, 75], axis=1)
            spreads.append((q3 - q1) / median)
        assert np.all(np.median(spreads, axis=0) < 0.5), spreads

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            bench_pseudo(["newton"], 32, 5, 3, Rng(0))


def _toy_metrics():
    return [
        EpochMetrics(0, 0.01, 1.5, 0.7, 0.9, 55.0, 80.0, 50.0, 20.0, 0.12),
        EpochMetrics(1, 0.009755, 1.25, 0.6, 0.8, 60.125, 82.0, 55.5, 25.0, 0.1),
    ]


class TestMetricsFile:
    def test_empty_list_writes_header_only(self, tmp_path):
        path = tmp_path / "m.txt"
        emit_metrics([], path)
        assert path.read_text() == "plrlab-metrics v2\n"

    def test_round_trip_recovers_fields_exactly(self, tmp_path):
        path = tmp_path / "m.txt"
        emit_metrics(_toy_metrics(), path)
        back = read_metrics(path)
        assert back == _toy_metrics()

    def test_same_metrics_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        emit_metrics(_toy_metrics(), a, comments=["seed = 7"])
        emit_metrics(_toy_metrics(), b, comments=["seed = 7"])
        assert a.read_bytes() == b.read_bytes()

    def test_comments_skipped_on_parse(self, tmp_path):
        path = tmp_path / "m.txt"
        emit_metrics(_toy_metrics(), path, comments=["alpha = 1", "beta = 2"])
        assert len(read_metrics(path)) == 2

    def test_full_precision_floats_survive(self, tmp_path):
        ugly = EpochMetrics(3, 1.0 / 3.0, np.pi, np.e, 2.0 ** -40,
                            99.999999999999986, 0.1 + 0.2, 1e-17, 0.0, 0.3)
        path = tmp_path / "m.txt"
        emit_metrics([ugly], path)
        assert read_metrics(path)[0] == ugly

    def test_other_format_version_rejected_on_line_one(self, tmp_path):
        path = tmp_path / "m.txt"
        emit_metrics(_toy_metrics(), path)
        path.write_text(path.read_text().replace("plrlab-metrics v2", "plrlab-metrics v1"))
        with pytest.raises(FormatError) as exc:
            read_metrics(path)
        assert exc.value.line == 1

    def test_repeated_key_rejected_on_its_line(self, tmp_path):
        # A later value of a key must not overwrite the earlier one unnoticed.
        path = tmp_path / "m.txt"
        emit_metrics(_toy_metrics(), path)
        lines = path.read_text().splitlines()
        lines[2] += " epoch=7 acc_few=99"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="unexpected metric fields") as exc:
            read_metrics(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("lineno", [1, 2, 4])
    def test_non_ascii_byte_reports_line_number(self, tmp_path, lineno):
        path = tmp_path / "m.txt"
        emit_metrics(_toy_metrics(), path, comments=["seed = 7"])
        lines = path.read_bytes().split(b"\n")
        for byte, match in [(b"\xe9", "non-ASCII byte"), (b"\x0b", "control character"),
                            (b"\x00", "control character")]:
            edited = lines.copy()
            edited[lineno - 1] += byte
            path.write_bytes(b"\n".join(edited))
            with pytest.raises(FormatError, match=match) as exc:
                read_metrics(path)
            assert exc.value.line == lineno


class TestBenchFile:
    def test_schema(self, tmp_path):
        records = bench_pseudo(["plr", "proden"], 32, 6, 3, Rng(5))
        path = tmp_path / "bench.csv"
        emit_bench(records, path, comments=["reps = 3"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# reps = 3"
        assert lines[1] == "method,batch,classes,reps,mean_s,std_s"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "plr"
        assert int(first[1]) == 32
        assert float(first[4]) > 0.0


_ASCII = st.characters(max_codepoint=127)
# Values float() or int() read differently, non-finite values, junk.
_VALUES = (st.sampled_from(["", " ", "=", "#", "nan", "-inf", "1e999", "1_0", "0x1p3", "1.5.2",
                            "+2", "-0", "9" * 5000])
           | st.integers(-3, 3).map(str) | st.floats().map(repr) | st.text(_ASCII, max_size=6))
_KEYS = [f.name for f in dataclasses.fields(EpochMetrics)]


@st.composite
def _metric_lines(draw):
    """A metrics line with every key in order, or with drawn keys."""
    keys = _KEYS
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(_KEYS + ["", "acc"]), max_size=len(_KEYS) + 1))
    return " ".join(f"{key}={draw(_VALUES)}" for key in keys)


@given(st.sampled_from(["plrlab-metrics v2"]) | st.text(_ASCII, max_size=20),
       st.lists(_metric_lines() | st.text(_ASCII, max_size=30), max_size=4))
def test_arbitrary_ascii_metrics_file_raises_only_format_error(tmp_path_factory, head, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz_metrics.txt"
    path.write_bytes("\n".join([head] + lines).encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is not a clean rejection either
        try:
            read_metrics(path)
        except FormatError:
            pass
