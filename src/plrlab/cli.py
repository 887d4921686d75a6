"""Command-line frontend: dataset generation, training, evaluation, benchmarking.

Four subcommands (``gen``, ``train``, ``eval``, ``bench``) share one option
scheme: argparse holds each default and conversion, and explicit flags
override the defaults. The effective configuration is echoed into every
output file as comment lines escaped to printable ASCII. Exit codes: 0
success, 1 usage or I/O failure (a flag value that does not convert gets
argparse's message), 2 numeric failure.

Model files are line-oriented::

    plrlab-model v1 dims=<d,h1,...,c>
    prior <c floats>
    W0 <fan_in*fan_out floats, row-major>
    b0 <floats>
    ...

Each key appears once; blank and '#' lines are skipped but counted.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .core import (
    ClassPrior,
    FormatError,
    NonFiniteLoss,
    PlrError,
    PlrHyperparams,
    Rng,
    ShapeMismatch,
    _check_prior,
    body_lines,
    read_ascii,
    write_ascii,
)
from .datagen import DatasetSpec, gen_dataset, read_dataset, write_dataset
from .prior import init_uniform
from .report import bench_pseudo, emit_bench, emit_metrics, group_accuracy, logits_adjust_predict
from .sinkhorn import SinkhornConfig
from .trainer import ModelParams, TrainConfig, forward, train

__all__ = ["main", "write_model", "read_model"]


def write_model(params: ModelParams, prior: ClassPrior, path, comments=()) -> None:
    """Serialize MLP weights and the estimated class prior; a prior that does not cover
    the model's output classes raises ShapeMismatch before the file is opened."""
    _check_prior(params.dims[-1], prior)
    dims = ",".join(str(d) for d in params.dims)
    lines = [("prior", prior.values)]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines += [(f"W{i}", w.ravel()), (f"b{i}", b)]
    write_ascii(path, f"plrlab-model v1 dims={dims}", comments,
                (key + " " + " ".join(f"{x:.17g}" for x in values) + "\n"
                 for key, values in lines))


def read_model(path) -> tuple[ModelParams, ClassPrior]:
    """Parse a model file back into parameters and prior.

    Each key (``prior``, then ``W<i>`` and ``b<i>`` per layer) must appear
    exactly once; a repeated or unknown key raises FormatError naming its line.
    """
    lines = read_ascii(path).split("\n")
    if not lines[0].startswith("plrlab-model v1 dims="):
        raise FormatError(1, "bad model header")
    try:
        dims = tuple(int(x) for x in lines[0].split("dims=", 1)[1].split(","))
    except ValueError:
        raise FormatError(1, "bad dims in model header") from None
    if len(dims) < 2 or min(dims) < 1:
        raise FormatError(1, "model needs positive input and output dims")
    keys = {"prior"} | {f"{p}{i}" for i in range(len(dims) - 1) for p in "Wb"}
    fields = {}
    lineno = 1
    for lineno, line in body_lines(lines):
        key, _, rest = line.partition(" ")
        if key not in keys:
            raise FormatError(lineno, f"unknown key {key!r}")
        if key in fields:
            raise FormatError(lineno, f"repeated key {key!r}")
        try:
            fields[key] = np.array([float(x) for x in rest.split()])
        except ValueError:
            raise FormatError(lineno, f"bad numbers under {key!r}") from None
        if not np.isfinite(fields[key]).all():
            raise FormatError(lineno, f"non-finite numbers under {key!r}")
        if key == "prior" and fields[key].size != dims[-1]:
            raise FormatError(lineno, f"{fields[key].size} prior entries for {dims[-1]} classes")
    try:
        prior = ClassPrior(fields["prior"])
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            weights.append(fields[f"W{i}"].reshape(fan_in, fan_out))
            biases.append(fields[f"b{i}"])
        params = ModelParams(weights, biases)
    except (KeyError, ValueError, PlrError) as exc:
        raise FormatError(lineno, f"model fields inconsistent: {exc}") from None
    return params, prior


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (help still exits 0)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    """Bad or missing options; reported with the subcommand usage text."""


def _opt(flags, dest, conv, default, help_text, flag=False):
    return {"flags": flags, "dest": dest, "conv": conv, "default": default,
            "help": help_text, "flag": flag}


# The converter raises ArgumentTypeError, whose text argparse prints as
# it is; for a ValueError it prints the converter's name.
def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


_GEN_OPTS = [
    _opt(["--classes"], "classes", int, 10, "number of classes"),
    _opt(["--head"], "head", int, 500, "sample count of the largest class"),
    _opt(["--gamma"], "gamma", float, 100.0, "imbalance ratio head/tail"),
    _opt(["--psi"], "psi", float, 0.5, "per-negative-label flip probability"),
    _opt(["--dim"], "dim", int, 16, "feature dimension"),
    _opt(["--sep"], "sep", float, 4.0, "class-mean hypersphere radius"),
    _opt(["--test-per-class"], "test_per_class", int, 50, "balanced test samples per class"),
    _opt(["--seed"], "seed", int, 0, "generation seed"),
    _opt(["-o", "--out"], "out", str, None, "output path for the training split (required)"),
    _opt(["--test-out"], "test_out", str, None,
         "output path for the test split (default: <out stem>_test<ext>)"),
]

# Train defaults come from the config dataclasses; train's Sinkhorn solver and bench's
# kernels run at their config's defaults. "plr" names TrainConfig().solver's type (a test
# pins it). gen keeps its literals: the acceptance gamma and psi are not DatasetSpec's.
_TRAIN = TrainConfig()

_TRAIN_OPTS = [
    _opt(["-d", "--data"], "data", str, None, "training dataset file (required)"),
    _opt(["--test"], "test", str, None,
         "test dataset file for per-epoch metrics (default: <data stem>_test<ext> if present)"),
    _opt(["--lambda"], "lam", float, PlrHyperparams().lam,
         "entropy temperature of the pseudo-label solver"),
    _opt(["--m"], "m", float, PlrHyperparams().m,
         "prior-penalty exponent of the pseudo-label solver"),
    _opt(["--epochs"], "epochs", int, _TRAIN.epochs, "training epochs (after pre-estimation)"),
    _opt(["--pre-epochs"], "pre_epochs", int, _TRAIN.pre_epochs, "prior pre-estimation epochs"),
    _opt(["--batch"], "batch", int, _TRAIN.batch_size, "batch size"),
    _opt(["--lr"], "lr", float, _TRAIN.lr0, "initial learning rate (cosine-decayed)"),
    _opt(["--hidden"], "hidden", _int_list, _TRAIN.hidden, "hidden layer sizes, comma-separated"),
    _opt(["--solver"], "solver", str, "plr", "pseudo-label solver: plr or sinkhorn"),
    _opt(["--prior-rule"], "prior_rule", str, _TRAIN.prior_rule,
         "prior estimation rule: hard-pred, soft-pred, or hard-pseudo"),
    _opt(["--weak-sigma"], "weak_sigma", float, _TRAIN.weak_noise_sigma, "weak-view noise sigma"),
    _opt(["--strong-sigma"], "strong_sigma", float, _TRAIN.strong_noise_sigma,
         "strong-view noise sigma"),
    _opt(["--freeze-prior"], "freeze_prior", None, _TRAIN.fixed_prior is not None,
         "keep the prior uniform instead of estimating it", flag=True),
    _opt(["--seed"], "seed", int, _TRAIN.seed, "training seed"),
    _opt(["--metrics-out"], "metrics_out", str, None,
         "metrics file path (default: <data stem>_metrics.txt)"),
    _opt(["--model-out"], "model_out", str, None,
         "model file path (default: <data stem>_model.txt)"),
]

_EVAL_OPTS = [
    _opt(["-m", "--model"], "model", str, None, "model file (required)"),
    _opt(["-d", "--data"], "data", str, None, "dataset file to evaluate on (required)"),
    _opt(["--phi"], "phi", float, 0.0, "prior-compensation strength for prediction"),
    _opt(["-o", "--out"], "out", str, None,
         "summary output path (default: <model stem>_eval.txt)"),
]

_BENCH_OPTS = [
    _opt(["--batch"], "batch", _int_list, (256,), "batch sizes, comma-separated"),
    _opt(["--classes"], "classes", _int_list, (100,), "class counts, comma-separated"),
    _opt(["--reps"], "reps", int, 10, "timed repetitions per method (min 3)"),
    _opt(["--methods"], "methods", str, "plr,proden,sinkhorn",
         "comma-separated subset of plr, proden, sinkhorn"),
    _opt(["--seed"], "seed", int, 0, "benchmark data seed"),
    _opt(["-o", "--out"], "out", str, None, "benchmark CSV path (required)"),
]

def _add_options(parser: argparse.ArgumentParser, opts) -> None:
    for opt in opts:
        common = {"dest": opt["dest"], "default": opt["default"],
                  "help": f"{opt['help']} (default: {opt['default']})"}
        if opt["flag"]:
            parser.add_argument(*opt["flags"], action="store_const", const=True, **common)
        else:
            parser.add_argument(*opt["flags"], type=opt["conv"], metavar="X", **common)


def _config_comments(command: str, values: dict) -> list[str]:
    """'key = value' lines of the options, each character outside printable ASCII escaped."""
    lines = [f"command = {command}"]
    for key in sorted(values):
        val = values[key]
        if isinstance(val, tuple):
            val = ",".join(str(x) for x in val)
        lines.append(re.sub(r"[^ -~]", lambda ch: ch[0].encode("unicode_escape").decode(),
                            f"{key} = {val}"))
    return lines


def _companion(path: str, suffix: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}{suffix}{ext}"


def _require(values: dict, keys) -> None:
    missing = [k for k in keys if values[k] is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + k for k in missing)}")


def _distinct_paths(inputs, outputs) -> None:
    """Each output must differ from every input and every other output; inputs may repeat."""
    read = {os.path.realpath(p) for p in inputs if p is not None}
    written = [os.path.realpath(p) for p in outputs]
    if len(set(written)) != len(written) or read.intersection(written):
        raise UsageError("input and output paths must be distinct")


def _cmd_gen(values: dict) -> int:
    _require(values, ["out"])
    spec = DatasetSpec(
        n_classes=values["classes"], head_count=values["head"],
        imbalance_ratio=values["gamma"], flip_prob=values["psi"],
        feature_dim=values["dim"], class_separation=values["sep"],
        test_per_class=values["test_per_class"], seed=values["seed"],
    )
    test_out = values["test_out"] or _companion(values["out"], "_test")
    _distinct_paths((), (values["out"], test_out))
    train_ds, test_ds = gen_dataset(spec)
    comments = _config_comments("gen", values)
    write_dataset(train_ds, values["out"], comments)
    write_dataset(test_ds, test_out, comments)
    lo, hi = train_ds.group_boundaries
    print(f"wrote {values['out']} ({train_ds.n_samples} samples) and "
          f"{test_out} ({test_ds.n_samples} samples)")
    print("class counts:", " ".join(str(int(x)) for x in train_ds.class_counts))
    print(f"groups: many=[0,{lo}) medium=[{lo},{hi}) few=[{hi},{spec.n_classes})")
    return 0


def _cmd_train(values: dict) -> int:
    _require(values, ["data"])
    if values["solver"] not in ("plr", "sinkhorn"):
        raise ValueError(f"--solver must be plr or sinkhorn, got {values['solver']!r}")
    metrics_out = values["metrics_out"] or _companion(values["data"], "_metrics")
    model_out = values["model_out"] or _companion(values["data"], "_model")
    test_path = values["test"]
    if test_path is None:
        candidate = _companion(values["data"], "_test")
        test_path = candidate if os.path.exists(candidate) else None
    _distinct_paths((values["data"], test_path), (metrics_out, model_out))

    cfg = TrainConfig(
        epochs=values["epochs"], batch_size=values["batch"], lr0=values["lr"],
        hidden=tuple(values["hidden"]), prior_rule=values["prior_rule"],
        solver=(PlrHyperparams(values["lam"], values["m"]) if values["solver"] == "plr" else
                SinkhornConfig()),
        pre_epochs=values["pre_epochs"], weak_noise_sigma=values["weak_sigma"],
        strong_noise_sigma=values["strong_sigma"], seed=values["seed"],
    )
    ds = read_dataset(values["data"])
    test_ds = read_dataset(test_path) if test_path else None
    if values["freeze_prior"]:
        cfg = replace(cfg, fixed_prior=init_uniform(ds.n_classes).r)
    params, metrics, est = train(ds, cfg, test_ds)
    # A Sinkhorn run reads neither --lambda nor --m, so its headers do not echo them.
    unread = ("lam", "m") if values["solver"] == "sinkhorn" else ()
    comments = _config_comments("train", {k: v for k, v in values.items() if k not in unread})
    emit_metrics(metrics, metrics_out, comments)
    write_model(params, est.r, model_out, comments)
    last = metrics[-1]
    print(f"epoch {last.epoch}: loss_cls={last.loss_cls:.4f} "
          f"acc_all={last.acc_all:.2f} acc_few={last.acc_few:.2f}")
    print(f"wrote {metrics_out} and {model_out}")
    return 0


def _cmd_eval(values: dict) -> int:
    _require(values, ["model", "data"])
    out = values["out"] or _companion(values["model"], "_eval")
    _distinct_paths((values["model"], values["data"]), (out,))
    params, prior = read_model(values["model"])
    ds = read_dataset(values["data"])
    if ds.n_classes != prior.n_classes:
        raise ShapeMismatch(f"dataset has {ds.n_classes} classes, the model {prior.n_classes}")
    logits, _ = forward(params, ds.features)
    preds = logits_adjust_predict(logits, prior, values["phi"])
    acc = group_accuracy(preds, ds.true_labels, ds.group_boundaries)
    summary = (f"phi={values['phi']:.17g} acc_all={acc.overall:.17g} "
               f"acc_many={acc.many:.17g} acc_med={acc.medium:.17g} "
               f"acc_few={acc.few:.17g}")
    write_ascii(out, "plrlab-eval v1", _config_comments("eval", values), [summary + "\n"])
    print(summary)
    print(f"wrote {out}")
    return 0


def _cmd_bench(values: dict) -> int:
    _require(values, ["out"])
    methods = [m.strip() for m in values["methods"].split(",") if m.strip()]
    for name, items in (("batch", values["batch"]), ("classes", values["classes"]),
                        ("methods", methods)):
        if not items:
            raise UsageError(f"--{name} needs at least one value")
    records = []
    rng = Rng(values["seed"])
    for classes in values["classes"]:
        for batch in values["batch"]:
            records.extend(bench_pseudo(methods, batch, classes, values["reps"],
                                        rng.child(len(records))))
    emit_bench(records, values["out"], _config_comments("bench", values))
    for rec in records:
        print(f"{rec.method:8s} B={rec.batch_size:<5d} c={rec.n_classes:<4d} "
              f"mean={rec.mean_s:.6f}s std={rec.std_s:.6f}s")
    print(f"wrote {values['out']}")
    return 0


_COMMANDS = {
    "gen": (_cmd_gen, _GEN_OPTS,
            "generate a seeded synthetic long-tailed partially-labeled dataset"),
    "train": (_cmd_train, _TRAIN_OPTS, "train the classifier with regularized pseudo-labels"),
    "eval": (_cmd_eval, _EVAL_OPTS, "evaluate a trained model with optional prior compensation"),
    "bench": (_cmd_bench, _BENCH_OPTS, "time the pseudo-label update kernels"),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The plrlab parser and its subcommand parsers by name."""
    parser = _Parser(prog="plrlab", allow_abbrev=False,
                     description="Long-tailed partial-label learning experiments.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    for name, (_, opts, about) in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=about, description=about, allow_abbrev=False), opts)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    run = _COMMANDS[args.command][0]
    try:
        return run({k: v for k, v in vars(args).items() if k != "command"})
    except NonFiniteLoss as exc:
        print(f"plrlab {args.command}: numeric failure: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(commands[args.command].format_usage(), file=sys.stderr, end="")
        print(f"plrlab {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (PlrError, ValueError, OSError) as exc:
        print(f"plrlab {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
