"""Subcommand behavior: flags, defaults, exit codes, determinism."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plrlab.cli import _config_comments, main, read_model, write_model
from plrlab.core import (
    ClassPrior,
    FormatError,
    PlrError,
    Rng,
    ShapeMismatch,
    clamp_prior,
)
from plrlab.datagen import read_dataset
from plrlab.prior import init_uniform
from plrlab.report import read_metrics
from plrlab.sinkhorn import SinkhornConfig
from plrlab.trainer import ModelParams, TrainConfig, init_params, train


def _gen(tmp_path, name="ds.txt", extra=()):
    out = tmp_path / name
    args = ["gen", "--classes", "6", "--head", "60", "--gamma", "10", "--psi", "0.4",
            "--dim", "5", "--test-per-class", "8", "--seed", "3", "-o", str(out)]
    assert main(args + list(extra)) == 0
    return out


class TestGen:
    def test_writes_train_and_test_files(self, tmp_path, capsys):
        out = _gen(tmp_path)
        assert out.exists()
        assert (tmp_path / "ds_test.txt").exists()
        printed = capsys.readouterr().out
        assert "class counts:" in printed
        ds = read_dataset(out)
        assert ds.class_counts[0] == 60
        assert ds.class_counts[-1] == 6

    def test_missing_output_flag_exits_one_with_usage(self, capsys):
        assert main(["gen", "--classes", "4"]) == 1
        err = capsys.readouterr().err
        assert "usage: plrlab gen" in err
        assert "--out" in err

    def test_gamma_one_is_balanced(self, tmp_path):
        out = tmp_path / "flat.txt"
        assert main(["gen", "--classes", "4", "--head", "20", "--gamma", "1",
                     "--psi", "0", "-o", str(out)]) == 0
        ds = read_dataset(out)
        np.testing.assert_array_equal(ds.class_counts, np.full(4, 20))

    def test_documented_longtail_profile(self, tmp_path):
        out = tmp_path / "lt.txt"
        assert main(["gen", "--classes", "10", "--head", "500", "--gamma", "100",
                     "--psi", "0.5", "--dim", "16", "--seed", "1",
                     "-o", str(out)]) == 0
        ds = read_dataset(out)
        assert ds.class_counts[0] == 500
        assert ds.class_counts[-1] == 5

    def test_byte_identical_across_runs(self, tmp_path):
        a = _gen(tmp_path, "a.txt")
        b = _gen(tmp_path, "b.txt")
        a_body = a.read_bytes().split(b"\n", 1)[1]
        b_body = b.read_bytes().split(b"\n", 1)[1]
        # Bodies differ only in the echoed output path comment.
        a_body = b"\n".join(l for l in a_body.split(b"\n") if not l.startswith(b"#"))
        b_body = b"\n".join(l for l in b_body.split(b"\n") if not l.startswith(b"#"))
        assert a_body == b_body

    def test_same_path_twice_identical(self, tmp_path):
        out = _gen(tmp_path, "same.txt")
        first = out.read_bytes()
        _gen(tmp_path, "same.txt")
        assert out.read_bytes() == first

    @pytest.mark.parametrize("flag, value", [("--sep", "nan"), ("--sep", "inf"),
                                             ("--gamma", "nan"), ("--gamma", "inf")])
    def test_non_finite_spec_exits_one_and_writes_nothing(self, tmp_path, capsys, flag, value):
        # --sep nan used to exit 0 and write all-nan features.
        out = tmp_path / "bad.txt"
        assert main(["gen", "--classes", "4", "--head", "60", flag, value,
                     "-o", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_ascii_output_path_is_echoed_escaped(self, tmp_path):
        # Used to exit 1 and leave a truncated file holding part of the comments.
        out = _gen(tmp_path, "\xe9.tsv")
        assert f"# out = {tmp_path}/\\xe9.tsv" in out.read_text().splitlines()
        metrics = tmp_path / "m\xe9.txt"
        assert main(["train", "-d", str(out), "--epochs", "1", "--pre-epochs", "0",
                     "--hidden", "4", "--metrics-out", str(metrics)]) == 0
        assert len(read_metrics(metrics)) == 1


def _train(tmp_path, ds, extra=()):
    args = ["train", "-d", str(ds), "--epochs", "3", "--pre-epochs", "1",
            "--batch", "64", "--hidden", "12", "--seed", "2"]
    assert main(args + list(extra)) == 0
    return tmp_path / "ds_metrics.txt", tmp_path / "ds_model.txt"


class TestTrain:
    def test_writes_metrics_and_model(self, tmp_path):
        ds = _gen(tmp_path)
        metrics_path, model_path = _train(tmp_path, ds)
        metrics = read_metrics(metrics_path)
        assert len(metrics) == 3
        params, prior = read_model(model_path)
        assert params.dims == (5, 12, 6)
        assert prior.n_classes == 6

    def test_seeded_runs_byte_identical(self, tmp_path):
        ds = _gen(tmp_path)
        metrics_path, model_path = _train(tmp_path, ds)
        m1, w1 = metrics_path.read_bytes(), model_path.read_bytes()
        _train(tmp_path, ds)
        assert metrics_path.read_bytes() == m1
        assert model_path.read_bytes() == w1

    def test_m_zero_runs(self, tmp_path):
        ds = _gen(tmp_path)
        _train(tmp_path, ds, ["--m", "0", "--lambda", "1"])

    def test_sinkhorn_solver_switch(self, tmp_path, monkeypatch):
        seen = []

        def capture(ds, cfg, test=None):
            seen.append(cfg)
            return train(ds, cfg, test)

        monkeypatch.setattr("plrlab.cli.train", capture)
        ds = _gen(tmp_path)
        metrics_path, _ = _train(tmp_path, ds, ["--solver", "sinkhorn"])
        assert len(read_metrics(metrics_path)) == 3
        # The baseline has one configuration: its config's defaults.
        assert seen[0].solver == SinkhornConfig()

    def test_unknown_solver_exits_one_naming_both(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        assert main(["train", "-d", str(ds), "--solver", "newton"]) == 1
        assert "--solver must be plr or sinkhorn, got 'newton'" in capsys.readouterr().err
        assert not (tmp_path / "ds_metrics.txt").exists()
        assert not (tmp_path / "ds_model.txt").exists()

    @pytest.mark.parametrize("frozen", [True, False], ids=["flag", "no-flag"])
    def test_freeze_prior_flag(self, tmp_path, monkeypatch, frozen):
        seen = []

        def capture(ds, cfg, test=None):
            seen.append(cfg)
            raise PlrError("captured")

        monkeypatch.setattr("plrlab.cli.train", capture)
        extra = ["--freeze-prior"] if frozen else []
        assert main(["train", "-d", str(_gen(tmp_path)), *extra]) == 1
        if frozen:
            # --freeze-prior means the uniform prior over _gen's 6 classes, bit for bit.
            assert np.array_equal(seen[0].fixed_prior.values, init_uniform(6).r.values)
        else:
            assert seen[0].fixed_prior is None

    def test_missing_dataset_is_io_error(self, tmp_path):
        assert main(["train", "-d", str(tmp_path / "nope.txt")]) == 1

    def test_bad_option_is_named_before_the_dataset_is_read(self, tmp_path, capsys):
        # Used to name the missing file: the dataset was read before the config was built.
        assert main(["train", "-d", str(tmp_path / "missing.txt"), "--prior-rule", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "prior_rule" in err and "missing.txt" not in err

    def test_test_split_with_other_classes_exits_one(self, tmp_path, capsys):
        # Used to exit 0 and report accuracies for the wrong groups.
        ds = _gen(tmp_path)
        _gen(tmp_path, "other.txt", ["--classes", "4"])
        assert main(["train", "-d", str(ds), "--test", str(tmp_path / "other_test.txt"),
                     "--epochs", "2", "--pre-epochs", "1"]) == 1
        assert "test set has 4 classes" in capsys.readouterr().err
        assert not (tmp_path / "ds_metrics.txt").exists()
        assert not (tmp_path / "ds_model.txt").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_numeric_blowup_exits_two(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        code = main(["train", "-d", str(ds), "--epochs", "5", "--pre-epochs", "0",
                     "--lr", "1e28", "--seed", "2"])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_flags_are_echoed(self, tmp_path):
        ds = _gen(tmp_path)
        args = ["train", "-d", str(ds), "--seed", "9", "--lambda", "1.5", "--epochs", "4",
                "--pre-epochs", "0"]
        assert main(args) == 0
        assert len(read_metrics(tmp_path / "ds_metrics.txt")) == 4
        header = (tmp_path / "ds_metrics.txt").read_text().splitlines()
        assert "# lam = 1.5" in header
        assert "# seed = 9" in header

    @pytest.mark.parametrize("solver", ["plr", "sinkhorn"])
    def test_headers_echo_lambda_and_m_only_when_read(self, tmp_path, solver):
        # A Sinkhorn run reads neither option; both of its headers used to echo them.
        for path in _train(tmp_path, _gen(tmp_path), ["--solver", solver]):
            lines = path.read_text().splitlines()
            assert f"# solver = {solver}" in lines
            echoed = [line for line in lines if line.startswith(("# lam =", "# m ="))]
            assert echoed == (["# lam = 3.0", "# m = 2.0"] if solver == "plr" else []), echoed

    def test_defaults_are_the_train_config_defaults(self, tmp_path, monkeypatch):
        seen = []

        def capture(ds, cfg, test=None):
            seen.append(cfg)
            raise PlrError("captured")

        monkeypatch.setattr("plrlab.cli.train", capture)
        ds = _gen(tmp_path)
        assert main(["train", "-d", str(ds)]) == 1
        assert seen == [TrainConfig()]

    def test_infinite_learning_rate_exits_one(self, tmp_path, capsys):
        # Used to train into three RuntimeWarnings and a numeric failure (exit 2).
        ds = _gen(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["train", "-d", str(ds), "--lr", "inf"]) == 1
        assert "error: need a finite lr0" in capsys.readouterr().err

    def test_zero_hidden_width_exits_one(self, tmp_path, capsys):
        # Used to die with a ZeroDivisionError traceback in init_params.
        ds = _gen(tmp_path)
        assert main(["train", "-d", str(ds), "--hidden", "0"]) == 1
        assert "error: hidden layer widths must be at least 1" in capsys.readouterr().err

    def test_zero_feature_dim_dataset_exits_one(self, tmp_path, capsys):
        # Training once died here with a ZeroDivisionError traceback; the reader
        # now refuses the d=0 header on line 1, before the model is built.
        ds = tmp_path / "ds.txt"
        ds.write_text("plrlab-dataset v1 N=3 c=2 d=0\n0\t0\t0\n1\t0\t0,1\n2\t1\t1\n")
        args = ["train", "-d", str(ds), "--epochs", "1", "--pre-epochs", "0", "--batch", "2"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "error: line 1: bad header 'plrlab-dataset v1 N=3 c=2 d=0'" in err
        assert "Traceback" not in err

    def test_huge_record_count_exits_one(self, tmp_path, capsys):
        # Used to print numpy's MemoryError traceback under a memory limit.
        ds = tmp_path / "ds.txt"
        ds.write_text("plrlab-dataset v1 N=1000000000000 c=2 d=1\n0\t0.5\t0\t0\n")
        assert main(["train", "-d", str(ds)]) == 1
        assert "error: line 3: expected N=1000000000000 records, found 1" in capsys.readouterr().err

    def test_huge_class_count_exits_one(self, tmp_path, capsys):
        # Used to print numpy's 7.11 PiB MemoryError traceback.
        ds = tmp_path / "ds.txt"
        ds.write_text("plrlab-dataset v1 N=1 c=1000000000000000 d=1\n0\t0.5\t0\t0\n")
        assert main(["train", "-d", str(ds)]) == 1
        assert "error: line 1: N=1 x c=1000000000000000 candidate bits" in capsys.readouterr().err


class TestEval:
    def test_eval_reports_and_writes(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        _, model_path = _train(tmp_path, ds)
        test_path = tmp_path / "ds_test.txt"
        assert main(["eval", "-m", str(model_path), "-d", str(test_path)]) == 0
        printed = capsys.readouterr().out
        assert "acc_all=" in printed
        out = tmp_path / "ds_model_eval.txt"
        body = out.read_text().splitlines()
        assert body[0] == "plrlab-eval v1"
        fields = dict(tok.split("=") for tok in body[-1].split(" "))
        for key in ("acc_all", "acc_many", "acc_med", "acc_few"):
            assert 0.0 <= float(fields[key]) <= 100.0

    def test_phi_zero_matches_plain_argmax_evaluation(self, tmp_path):
        ds = _gen(tmp_path)
        _, model_path = _train(tmp_path, ds)
        test_path = tmp_path / "ds_test.txt"
        out0 = tmp_path / "phi0.txt"
        assert main(["eval", "-m", str(model_path), "-d", str(test_path),
                     "--phi", "0", "-o", str(out0)]) == 0
        params, prior = read_model(model_path)
        from plrlab.report import group_accuracy
        from plrlab.trainer import forward

        test_ds = read_dataset(test_path)
        logits, _ = forward(params, test_ds.features)
        acc = group_accuracy(np.argmax(logits, axis=1), test_ds.true_labels,
                             test_ds.group_boundaries)
        fields = dict(tok.split("=") for tok in
                      out0.read_text().splitlines()[-1].split(" "))
        assert float(fields["acc_all"]) == pytest.approx(acc.overall)

    def test_nan_prior_in_model_file_exits_one(self, tmp_path, capsys):
        # Used to exit 0, predicting class 0 for every sample.
        _gen(tmp_path)
        model_path = tmp_path / "model.txt"
        params = ModelParams([np.ones((5, 6))], [np.zeros(6)])
        write_model(params, ClassPrior(np.full(6, 1.0 / 6)), model_path)
        text = model_path.read_text()
        model_path.write_text(text.replace("prior 0.16666666666666666", "prior nan", 1))
        assert main(["eval", "-m", str(model_path), "-d", str(tmp_path / "ds_test.txt")]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_non_finite_phi_exits_one(self, tmp_path, capsys, phi):
        # Used to exit 0 with the accuracy of predicting class 0 everywhere.
        ds = _gen(tmp_path)
        _, model_path = _train(tmp_path, ds)
        out = tmp_path / "e.txt"
        assert main(["eval", "-m", str(model_path), "-d", str(tmp_path / "ds_test.txt"),
                     "--phi", phi, "-o", str(out)]) == 1
        assert "plrlab eval: error: phi must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_with_other_classes_exits_one(self, tmp_path, capsys):
        # Used to exit 0 and report accuracies for the wrong groups.
        ds = _gen(tmp_path)
        _, model_path = _train(tmp_path, ds)
        _gen(tmp_path, "other.txt", ["--classes", "4"])
        out = tmp_path / "e.txt"
        assert main(["eval", "-m", str(model_path), "-d", str(tmp_path / "other_test.txt"),
                     "-o", str(out)]) == 1
        assert "dataset has 4 classes, the model 6" in capsys.readouterr().err
        assert not out.exists()

    def test_phi_never_touches_the_model_file(self, tmp_path):
        ds = _gen(tmp_path)
        _, model_path = _train(tmp_path, ds)
        before = model_path.read_bytes()
        assert main(["eval", "-m", str(model_path), "-d", str(tmp_path / "ds_test.txt"),
                     "--phi", "0.7"]) == 0
        assert model_path.read_bytes() == before

    def test_eval_deterministic(self, tmp_path):
        ds = _gen(tmp_path)
        _, model_path = _train(tmp_path, ds)
        out = tmp_path / "e.txt"
        argv = ["eval", "-m", str(model_path), "-d", str(tmp_path / "ds_test.txt"),
                "-o", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


class TestBench:
    def test_three_method_roster(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--batch", "64", "--classes", "8", "--reps", "3",
                     "-o", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "method,batch,classes,reps,mean_s,std_s"
        assert [l.split(",")[0] for l in lines[1:]] == ["plr", "proden", "sinkhorn"]

    def test_grid_of_class_counts(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--batch", "32", "--classes", "4,8", "--reps", "3",
                     "--methods", "plr", "-o", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 3
        assert [l.split(",")[2] for l in lines[1:]] == ["4", "8"]

    def test_too_few_reps_exits_one(self, tmp_path):
        assert main(["bench", "--reps", "2", "-o", str(tmp_path / "b.csv")]) == 1

    def test_empty_batch_exits_one_naming_the_setting(self, tmp_path, capsys):
        # Used to fail with "candidate matrix must have at least one row".
        assert main(["bench", "--batch", "0", "--reps", "3", "-o", str(tmp_path / "b.csv")]) == 1
        assert "error: batch_size must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("flag", ["--batch", "--classes", "--methods"])
    def test_empty_list_exits_one_and_writes_nothing(self, tmp_path, capsys, flag):
        # Each used to exit 0 and write a CSV holding only its header.
        args = {"--batch": "8", "--classes": "4", "--methods": "plr", flag: ","}
        assert main(["bench", *(x for kv in args.items() for x in kv), "--reps", "3",
                     "-o", str(tmp_path / "b.csv")]) == 1
        err = capsys.readouterr().err
        assert "usage: plrlab bench" in err
        assert f"error: {flag} needs at least one value" in err
        assert list(tmp_path.iterdir()) == []


class TestHelpAndUsage:
    @pytest.mark.parametrize("cmd", ["gen", "train", "eval", "bench"])
    def test_help_exits_zero_and_mentions_defaults(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default:" in text
        assert "--config" not in text

    @pytest.mark.parametrize("cmd", ["gen", "train", "bench"])
    def test_negative_seed_exits_one_naming_it(self, tmp_path, capsys, cmd):
        # Each used to exit 1 with numpy's "expected non-negative integer".
        args = {"gen": ["-o", str(tmp_path / "g.txt")],
                "train": ["-d", str(_gen(tmp_path)), "--epochs", "1", "--pre-epochs", "0"],
                "bench": ["--batch", "8", "--classes", "4", "--reps", "3",
                          "-o", str(tmp_path / "b.csv")]}[cmd]
        before = sorted(tmp_path.iterdir())
        assert main([cmd, *args, "--seed", "-1"]) == 1
        assert "error: seed must be nonnegative, got -1" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        for args in (["gen", "--bogus", "1"], ["train", "-d", "ds.txt", "--timing", "off"],
                     ["train", "-d", "ds.txt", "--restrict-losses"],
                     ["train", "-d", "ds.txt", "--w-cons", "0"],
                     ["train", "-d", "ds.txt", "--dropout", "0.2"],
                     ["train", "-d", "ds.txt", "--mixup-alpha", "4"],
                     ["train", "-d", "ds.txt", "--momentum", "0.9"],
                     ["train", "-d", "ds.txt", "--mu1", "0.1"],
                     ["train", "-d", "ds.txt", "--mu2", "0.01"],
                     ["train", "-d", "ds.txt", "--rho-start", "0.2"],
                     ["train", "-d", "ds.txt", "--rho-end", "0.5"],
                     ["train", "-d", "ds.txt", "--ramp-epochs", "50"],
                     ["gen", "-o", "ds.txt", "--superclass-size", "3"],
                     ["bench", "-o", "b.csv", "--lambda", "3"],
                     ["bench", "-o", "b.csv", "--sk-iters", "50"],
                     ["train", "-d", "ds.txt", "--sk-iters", "50"],
                     ["train", "-d", "ds.txt", "--sk-tol", "0.01"],
                     ["train", "-d", "ds.txt", "--sk-lambda", "2"],
                     # A prefix of a live flag (--pre-epochs) is not taken for it.
                     ["train", "-d", "ds.txt", "--pre", "5"],
                     ["train", "-d", "ds.txt", "--config", "x.cfg"]):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 1

    def test_bench_m_is_not_read_as_a_methods_prefix(self, tmp_path, capsys):
        # '--m', a removed flag, is no prefix of '--methods' to argparse.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--m", "2", "-o", str(tmp_path / "b.csv")])
        assert exc.value.code == 1
        assert "unrecognized arguments: --m 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_flag_value_exits_one_with_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "-d", "ds.txt", "--lr", "abc"])
        assert exc.value.code == 1
        assert "argument --lr: invalid float value: 'abc'" in capsys.readouterr().err
        # The converter names what it expected, not itself.
        with pytest.raises(SystemExit) as exc:
            main(["train", "-d", "ds.txt", "--hidden", "a,b"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --hidden: expected comma-separated integers, got 'a,b'" in err
        assert "_int_list" not in err

    def test_echoed_values_escape_all_but_printable_ascii(self):
        lines = _config_comments("gen", {"out": "\xe9\n\\ ~x", "hidden": (4, 2)})
        assert lines == ["command = gen", "hidden = 4,2", "out = \\xe9\\n\\ ~x"]

    def test_output_path_collision_rejected(self, tmp_path, capsys):
        # Paths are compared after resolving, so another spelling of one file collides too.
        (tmp_path / "sub").mkdir()
        out = tmp_path / "x.txt"
        for alias in (out, f"{tmp_path}/./x.txt", f"{tmp_path}/sub/../x.txt"):
            assert main(["gen", "--classes", "4", "--head", "10", "--gamma", "2",
                         "-o", str(out), "--test-out", str(alias)]) == 1
            assert "input and output paths must be distinct" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("case", ["train-metrics-over-data", "train-model-over-metrics",
                                      "eval-out-over-model"])
    def test_input_is_never_an_output(self, tmp_path, capsys, case):
        ds = _gen(tmp_path)
        model = tmp_path / "model.txt"
        write_model(init_params(5, (4,), 6, Rng(0)), ClassPrior(np.full(6, 1 / 6)), model)
        out = tmp_path / "out.txt"
        args, kept = {
            "train-metrics-over-data": (["train", "-d", ds, "--metrics-out", ds], ds),
            "train-model-over-metrics": (["train", "-d", ds, "--metrics-out", out,
                                          "--model-out", out], ds),
            "eval-out-over-model": (["eval", "-m", model, "-d", tmp_path / "ds_test.txt",
                                     "-o", model], model),
        }[case]
        before = kept.read_bytes()
        capsys.readouterr()
        assert main([str(arg) for arg in args]) == 1
        assert "input and output paths must be distinct" in capsys.readouterr().err
        assert kept.read_bytes() == before
        assert not out.exists()

    def test_an_input_may_repeat(self, tmp_path):
        # Evaluating on the training file reads it twice and writes neither.
        ds = _gen(tmp_path)
        before = ds.read_bytes()
        assert main(["train", "-d", str(ds), "--test", str(ds), "--epochs", "1",
                     "--pre-epochs", "0"]) == 0
        assert ds.read_bytes() == before


class TestModelFile:
    def test_round_trip(self, tmp_path):
        params = ModelParams(
            [np.array([[0.5, -1.25], [2.0, 0.125]]), np.array([[1.0], [-0.5]])],
            [np.array([0.0, 0.75]), np.array([0.25])],
        )
        prior = ClassPrior(np.array([1.0]))
        path = tmp_path / "model.txt"
        write_model(params, prior, path, comments=["k = v"])
        back, back_prior = read_model(path)
        for a, b in zip(params.weights, back.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(params.biases, back.biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(prior.values, back_prior.values)

    def test_prior_not_fitting_the_model_is_not_written(self, tmp_path):
        # Used to write a file that read_model rejects: "5 prior entries for 2 classes".
        path = tmp_path / "model.txt"
        with pytest.raises(ShapeMismatch, match="prior has 5 classes, expected 2"):
            write_model(init_params(3, (4,), 2, Rng(0)), clamp_prior(np.ones(5)), path)
        assert not path.exists()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("not a model\n")
        with pytest.raises(FormatError):
            read_model(path)

    @pytest.mark.parametrize("dims", ["3", "-2,1", "0,1", "2,0"])
    def test_header_dims_must_be_positive(self, tmp_path, dims):
        # "-2,1" used to load as a (2, 1) layer and "0,1" as a zero-width input.
        path = tmp_path / "model.txt"
        path.write_text(f"plrlab-model v1 dims={dims}\nprior 1\nW0 1 1\nb0 1\n")
        with pytest.raises(FormatError, match="positive input and output dims") as exc:
            read_model(path)
        assert exc.value.line == 1

    # Lines: 1 header, 2 prior, 3 W0, 4 b0, 5 W1, 6 b1. ``token`` replaces the
    # first value of line ``edit``, or drops it when empty; newlines in it add
    # lines. The last case puts a blank line 4 between W0 and ``b0 nan``.
    @pytest.mark.parametrize("edit, token, match, line", [
        (3, b"nan", "finite", 3),
        (6, b"-inf", "finite", 6),
        (1, b"\xe9", "non-ASCII", 1),
        (5, b"0.5\xe9", "non-ASCII", 5),
        (1, b"\x1b", "control character", 1),
        (5, b"\x0c0.5", "control character", 5),
        (4, b"", "inconsistent", 6),
        (2, b"0.5 0.5", "prior", 2),
        (3, b"1 1 1 1 1 1\n\nb0 nan", "finite", 5),
        (4, b"abc", "bad numbers under 'b0'", 4),
    ])
    def test_hostile_file_reports_line_number(self, tmp_path, edit, token, match, line):
        params = ModelParams([np.ones((2, 3)), np.ones((3, 1))], [np.zeros(3), np.zeros(1)])
        path = tmp_path / "model.txt"
        write_model(params, ClassPrior(np.array([1.0])), path)
        lines = path.read_bytes().split(b"\n")
        key, _, *rest = lines[edit - 1].split(b" ")
        lines[edit - 1] = b" ".join([key] + ([token] if token else []) + rest)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match=match) as exc:
            read_model(path)
        assert exc.value.line == line

    @pytest.mark.parametrize("extra, match", [
        (b"W0 0 0 0 0 0 0", "repeated key 'W0'"),
        (b"prior 1", "repeated key 'prior'"),
        (b"W7 1", "unknown key 'W7'"),
        (b"bias 1", "unknown key 'bias'"),
    ])
    def test_repeated_or_unknown_key_rejected(self, tmp_path, extra, match):
        # A second W0 used to replace the first one; an unknown key was skipped.
        params = ModelParams([np.ones((2, 3)), np.ones((3, 1))], [np.zeros(3), np.zeros(1)])
        path = tmp_path / "model.txt"
        write_model(params, ClassPrior(np.array([1.0])), path)
        path.write_bytes(path.read_bytes() + extra + b"\n")
        with pytest.raises(FormatError, match=match) as exc:
            read_model(path)
        assert exc.value.line == 7


_ASCII = st.characters(max_codepoint=127)
# Numbers float() reads, non-finite values, and junk.
_NUMBERS = (st.sampled_from(["", "nan", "-inf", "1e999", "1_0", "0x1p3", "1.5.2", "+2", "-0",
                             "9" * 5000])
            | st.floats().map(repr) | st.text(_ASCII, max_size=4))
# dims=2,3,1 takes a 1-entry prior, 6 in W0, 3 in b0, 3 in W1 and 1 in b1.
_MODEL_HEADS = (st.sampled_from(["plrlab-model v1 dims=2,3,1", "plrlab-model v1 dims=1,1"])
                | st.text(_ASCII, max_size=8).map("plrlab-model v1 dims={}".format)
                | st.text(_ASCII, max_size=20))


@st.composite
def _model_lines(draw):
    key = draw(st.sampled_from(["prior", "W0", "b0", "W1", "b1", "W2", "bias", "", "#"]))
    return " ".join([key] + draw(st.lists(_NUMBERS, max_size=7)))


@given(_MODEL_HEADS, st.lists(_model_lines() | st.text(_ASCII, max_size=30), max_size=7))
def test_arbitrary_ascii_model_file_raises_only_format_error(tmp_path_factory, head, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz_model.txt"
    path.write_bytes("\n".join([head] + lines).encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is not a clean rejection either
        try:
            read_model(path)
        except FormatError:
            pass
