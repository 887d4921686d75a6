"""Subcommand behavior: flags, config precedence, exit codes, determinism."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plrlab.cli import _config_comments, _parse_config_file, main, read_model, write_model
from plrlab.core import ClassPrior, FormatError, PlrError, PlrHyperparams, Rng
from plrlab.datagen import read_dataset
from plrlab.report import read_metrics
from plrlab.sinkhorn import SinkhornConfig
from plrlab.trainer import ModelParams, TrainConfig, init_params


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
                                             ("--gamma", "nan"), ("--gamma", "inf"),
                                             ("--superclass-size", "3")])
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

    def test_superclass_flag_respected(self, tmp_path):
        out = tmp_path / "h.txt"
        assert main(["gen", "--classes", "6", "--head", "30", "--psi", "0.5",
                     "--gamma", "2", "--superclass-size", "3", "-o", str(out)]) == 0
        ds = read_dataset(out)
        group_of = np.array([0, 0, 0, 1, 1, 1])
        for i in range(ds.n_samples):
            cands = np.flatnonzero(ds.candidates.bits[i])
            assert len(set(group_of[cands])) == 1


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

    def test_sinkhorn_solver_switch(self, tmp_path):
        ds = _gen(tmp_path)
        metrics_path, _ = _train(tmp_path, ds, ["--solver", "sinkhorn"])
        assert len(read_metrics(metrics_path)) == 3

    def test_unknown_solver_exits_one_naming_both(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        assert main(["train", "-d", str(ds), "--solver", "newton"]) == 1
        assert "--solver must be plr or sinkhorn, got 'newton'" in capsys.readouterr().err
        assert not (tmp_path / "ds_metrics.txt").exists()
        assert not (tmp_path / "ds_model.txt").exists()

    @pytest.mark.parametrize("text, expected", [("yes", True), ("Off", False)])
    def test_boolean_config_keys(self, tmp_path, monkeypatch, text, expected):
        seen = []

        def capture(ds, cfg, test=None):
            seen.append(cfg)
            raise PlrError("captured")

        monkeypatch.setattr("plrlab.cli.train", capture)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"freeze-prior = {text}\nrestrict_losses = {text}\n")
        assert main(["train", "-d", str(_gen(tmp_path)), "--config", str(cfg)]) == 1
        assert (seen[0].freeze_prior, seen[0].restrict_all_losses) == (expected, expected)

    def test_missing_dataset_is_io_error(self, tmp_path):
        assert main(["train", "-d", str(tmp_path / "nope.txt")]) == 1

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

    def test_config_file_overridden_by_flags(self, tmp_path):
        ds = _gen(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\nseed = 9\n# comment\nlambda = 1.5\n")
        args = ["train", "-d", str(ds), "--config", str(cfg), "--epochs", "4",
                "--pre-epochs", "0"]
        assert main(args) == 0
        metrics = read_metrics(tmp_path / "ds_metrics.txt")
        assert len(metrics) == 4  # flag beat the config file
        header = (tmp_path / "ds_metrics.txt").read_text().splitlines()
        assert "# lam = 1.5" in header  # config key survived
        assert "# seed = 9" in header

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

    @pytest.mark.parametrize("lineno", [1, 2, 3])
    def test_config_non_ascii_byte_reports_line_number(self, tmp_path, lineno):
        cfg = tmp_path / "run.cfg"
        for byte, match in [(b" \xe9", "non-ASCII byte"), (b"\x0c", "control character")]:
            lines = [b"epochs = 2", b"# comment", b"seed = 9"]
            lines[lineno - 1] += byte
            cfg.write_bytes(b"\n".join(lines) + b"\n")
            with pytest.raises(FormatError, match=match) as exc:
                _parse_config_file(str(cfg))
            assert exc.value.line == lineno

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

    def test_unknown_config_key_rejected(self, tmp_path):
        ds = _gen(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana = 3\n")
        assert main(["train", "-d", str(ds), "--config", str(cfg)]) == 1


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

    def test_defaults_are_the_solver_config_defaults(self, tmp_path, monkeypatch):
        seen = []

        def capture(methods, batch_size, n_classes, reps, rng, plr_params, sinkhorn_cfg):
            seen.append((plr_params, sinkhorn_cfg))
            return []

        monkeypatch.setattr("plrlab.cli.bench_pseudo", capture)
        assert main(["bench", "-o", str(tmp_path / "b.csv")]) == 0
        assert seen == [(PlrHyperparams(), SinkhornConfig())]

    def test_too_few_reps_exits_one(self, tmp_path):
        assert main(["bench", "--reps", "2", "-o", str(tmp_path / "b.csv")]) == 1


class TestHelpAndUsage:
    @pytest.mark.parametrize("cmd", ["gen", "train", "eval", "bench"])
    def test_help_exits_zero_and_mentions_defaults(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default:" in text
        assert "--config" in text

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
        for args in (["gen", "--bogus", "1"], ["train", "-d", "ds.txt", "--timing", "off"]):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 1

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

    def test_bad_config_value_keeps_its_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = abc\n")
        assert main(["train", "-d", "ds.txt", "--config", str(cfg)]) == 1
        assert ("error: bad value for config key 'lr': could not convert string to float: 'abc'"
                in capsys.readouterr().err)
        cfg.write_text("freeze_prior = maybe\n")
        assert main(["train", "-d", "ds.txt", "--config", str(cfg)]) == 1
        assert ("error: bad value for config key 'freeze_prior': expected a boolean, got 'maybe'"
                in capsys.readouterr().err)
        cfg.write_text("timing = off\n")
        assert main(["train", "-d", "ds.txt", "--config", str(cfg)]) == 1
        assert "error: unknown config key 'timing'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("cmd", ["gen", "train", "eval", "bench"])
    def test_config_file_is_never_an_output(self, tmp_path, capsys, cmd):
        # eval and bench used to exit 0 here, having replaced the config
        # file with their output.
        ds = _gen(tmp_path)
        model = tmp_path / "model.txt"
        write_model(init_params(5, (4,), 6, Rng(0)), ClassPrior(np.full(6, 1 / 6)), model)
        cfg = tmp_path / "c.txt"
        cfg.write_bytes(b"# no options\n")
        args = {"gen": ["gen", "-o", cfg],
                "train": ["train", "-d", ds, "--metrics-out", cfg],
                "eval": ["eval", "-m", model, "-d", tmp_path / "ds_test.txt", "-o", cfg],
                "bench": ["bench", "--batch", "8", "--classes", "4", "--reps", "3",
                          "--methods", "plr", "-o", cfg]}[cmd]
        capsys.readouterr()
        assert main([str(arg) for arg in args] + ["--config", str(cfg)]) == 1
        assert "input and output paths must be distinct" in capsys.readouterr().err
        assert cfg.read_bytes() == b"# no options\n"


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


@given(st.lists(st.text(st.sampled_from(list("ab_-=# \t")) | _ASCII, max_size=20), max_size=6))
def test_arbitrary_ascii_config_file_raises_only_format_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes("\n".join(lines).encode("ascii"))
    try:
        _parse_config_file(str(path))
    except FormatError:
        pass
