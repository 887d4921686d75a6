"""The benchmark's workloads: what each runs, why, and which layers it stresses.

Every workload is a closed loop in one process: the next operation starts
when the previous one has returned. An operation is one two-stage
``train()`` call, one pseudo-label kernel call, or one set-up of the inputs
they run on. Each operation's output is checked; an operation that raises
or fails a check counts as failed.

Untraced runs produce the end-to-end metrics. Traced runs alternate
untraced and traced operations on the same inputs, require both to give
identical results, and report per-layer self times and counts from the
traced ones, normalized per operation (per ``train()`` call) or per grid
round on ``kernel-grid``.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import plrlab.trainer as trainer_module
from plrlab.core import (
    CandidateMatrix,
    PlrHyperparams,
    PredictionMatrix,
    Rng,
    clamp_prior,
    row_normalize,
)
from plrlab.datagen import (
    DatasetSpec,
    gen_dataset,
    group_split,
    longtail_counts,
    read_dataset,
    write_dataset,
)
from plrlab.sinkhorn import SinkhornConfig, solar_update
from plrlab.solver import plr_update, proden_update
from plrlab.trainer import TrainConfig, train

import checks
from spans import Tracer, self_times, write_spans

# The acceptance configuration: N = 1,242 training samples, 500 test samples.
ACCEPTANCE_SPEC = dict(n_classes=10, head_count=500, imbalance_ratio=100.0,
                       flip_prob=0.5, feature_dim=16, class_separation=4.0,
                       test_per_class=50)
ACCEPTANCE_TRAIN = dict(pre_epochs=20, epochs=100, batch_size=64,
                        weak_noise_sigma=0.2, strong_noise_sigma=0.8, timing=False)


@dataclass(frozen=True)
class TrainPlan:
    """Inputs of a training workload; every seed in a run comes from --seed.

    ``n_seeds`` distinct dataset+training seeds are each trained once per
    run, and the accuracy metrics average over them, so they are a fixed
    function of --seed. Time left after that re-trains the same seeds, which
    must reproduce their results exactly.
    """

    spec: dict
    config: dict
    n_seeds: int


@dataclass(frozen=True)
class GridPlan:
    """Kernel cells, the headline cell, the instances built per cell, and
    the labelled set (``accuracy_rows`` rows per class count) that the
    pseudo-label accuracy is measured on."""

    batches: tuple[int, ...]
    classes: tuple[int, ...]
    sinkhorn_max_classes: int
    headline: tuple[int, int]
    instances: int
    accuracy_rows: int
    accuracy_classes: tuple[int, ...]
    setup_reps: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: tuple[str, ...]
    plan: TrainPlan | GridPlan


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-c10",
        "Acceptance training run (N=1242, 20+100 epochs, batch 64); per-call overhead "
        "and MLP passes dominate, so trainer, selection and core changes show here",
        ("trainer", "core", "selection", "solver", "prior", "report", "datagen"),
        TrainPlan(ACCEPTANCE_SPEC, ACCEPTANCE_TRAIN, n_seeds=16)),
    Workload(
        "kernel-grid",
        "Direct plr/proden/sinkhorn calls over batch x classes, interleaved round-robin; "
        "the solver layer alone, where trainer-only changes should show no change",
        ("solver", "sinkhorn", "core"),
        GridPlan(batches=(64, 256, 1024), classes=(10, 100, 1000),
                 sinkhorn_max_classes=100, headline=(256, 100),
                 instances=4, accuracy_rows=16384, accuracy_classes=(10, 100),
                 setup_reps=5)),
)}

# Public names plrlab.trainer looks up at call time, and the layer each one
# is charged to. Observers count work at the same boundary.


def _observe_selection(tracer, args, kwargs, result):
    losses = args[1] if len(args) > 1 else kwargs["losses"]
    tracer.count("selection.rows_offered", len(losses))
    tracer.count("selection.rows_kept", len(result))


def _observe_plr(tracer, args, kwargs, result):
    tracer.count("solver.rows", result.n_samples)


def _observe_sinkhorn(tracer, args, kwargs, result):
    tracer.count("sinkhorn.iterations", result.iterations_used)
    tracer.count("sinkhorn.relaxed", int(result.relaxed))


TRAINER_NAMES = {
    "augment": ("trainer.augment", None),
    "mixup_batch": ("trainer.mixup_batch", None),
    "forward": ("trainer.forward", None),
    "soft_ce": ("trainer.soft_ce", None),
    "grad_logits_soft_ce": ("trainer.grad_logits_soft_ce", None),
    "sgd_momentum_step": ("trainer.sgd_momentum_step", None),
    "PredictionMatrix": ("core.validate", None),
    "PseudoLabelMatrix": ("core.validate", None),
    "CandidateMatrix": ("core.validate", None),
    "select_reliable": ("selection.select_reliable", _observe_selection),
    "plr_update": ("solver.plr_update", _observe_plr),
    "solar_update": ("sinkhorn.solar_update", _observe_sinkhorn),
    "update_hard_pred": ("prior.update", None),
    "update_soft_pred": ("prior.update", None),
    "update_hard_pseudo": ("prior.update", None),
    "group_accuracy": ("report.group_accuracy", None),
}
ROOT_SPAN = "trainer"


@dataclass
class Outcome:
    """What one run measured, before it is matched against BENCHMARK.json."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def derive_seeds(seed: int, n: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(ns: float) -> float:
    return ns / 1e6


# --------------------------------------------------------------- training


@dataclass
class _TrainInput:
    seed: int
    train: object
    test: object


class _Datasets:
    """One dataset per derived seed, set up on first use.

    A set-up is ``gen_dataset`` plus the write/read round trip of
    ``plrlab gen`` -> ``plrlab train -d``. Setting up lazily spreads the
    set-ups over the run, so their median samples the same machine
    conditions as the operations. Each set-up is an operation: it fails if
    it raises or the dataset does not read back equal.
    """

    def __init__(self, plan: TrainPlan, seed: int, tmpdir: str, out: Outcome):
        self.seeds = derive_seeds(seed, plan.n_seeds)
        self.plan = plan
        self.tmpdir = tmpdir
        self.out = out
        self.ready: dict[int, _TrainInput | None] = {}
        self.timings: dict[str, list[float]] = {}

    def __len__(self) -> int:
        return len(self.seeds)

    def get(self, i: int) -> _TrainInput | None:
        seed = self.seeds[i % len(self.seeds)]
        if seed not in self.ready:
            self.ready[seed] = self._setup(seed)
        return self.ready[seed]

    def _setup(self, seed: int) -> _TrainInput | None:
        paths = [os.path.join(self.tmpdir, f"{seed}.{part}.tsv") for part in ("train", "test")]
        try:
            t0 = time.perf_counter_ns()
            made = gen_dataset(DatasetSpec(seed=seed, **self.plan.spec))
            t1 = time.perf_counter_ns()
            for ds, path in zip(made, paths):
                write_dataset(ds, path)
            t2 = time.perf_counter_ns()
            loaded = [read_dataset(path) for path in paths]
            t3 = time.perf_counter_ns()
        except Exception as exc:  # a set-up that raises is a failed operation
            self.out.record(f"set-up seed {seed}", [f"{type(exc).__name__}: {exc}"])
            return None
        for path in paths:
            os.remove(path)
        for key, ns in (("datagen.gen_dataset.ms", t1 - t0), ("datagen.write_dataset.ms", t2 - t1),
                        ("datagen.read_dataset.ms", t3 - t2), ("setup_ms", t3 - t0)):
            self.timings.setdefault(key, []).append(_ms(ns))
        same = all(checks.same_dataset(a, b) for a, b in zip(made, loaded))
        self.out.record(f"set-up seed {seed}", [] if same else ["dataset did not read back equal"])
        return _TrainInput(seed, *loaded) if same else None


def _expected_steps(plan: TrainPlan, n_samples: int) -> int:
    cfg = TrainConfig(**plan.config)
    return (cfg.pre_epochs + cfg.epochs) * math.ceil(n_samples / cfg.batch_size)


def _train_once(inp: _TrainInput, plan: TrainPlan, tracer: Tracer | None = None):
    """One timed train() call: (seconds, fingerprint, problems)."""
    cfg = TrainConfig(seed=inp.seed, **plan.config)
    try:
        if tracer is None:
            t0 = time.perf_counter_ns()
            params, metrics, est = train(inp.train, cfg, inp.test)
            elapsed = time.perf_counter_ns() - t0
        else:
            with tracer.installed(trainer_module, TRAINER_NAMES), tracer.span(ROOT_SPAN) as root:
                params, metrics, est = train(inp.train, cfg, inp.test)
            _, start, end, _ = tracer.spans[root]
            elapsed = end - start
    except Exception as exc:  # an operation that raises is a failed operation
        return None, None, [f"{type(exc).__name__}: {exc}"]
    problems = checks.check_training(params, metrics, est.r.values, cfg.epochs)
    if problems:
        return elapsed / 1e9, None, problems
    last = metrics[-1]
    weights = b"".join(a.tobytes() for a in params.weights + params.biases)
    return elapsed / 1e9, (last.acc_all, last.acc_few, weights), []


def run_train(plan: TrainPlan, seed: int, seconds: float, trace: bool, workdir: str,
              span_path: str) -> Outcome:
    out = Outcome()
    with tempfile.TemporaryDirectory(dir=workdir) as tmpdir:
        data = _Datasets(plan, seed, tmpdir, out)
        if trace:
            return _trace_train(plan, data, seconds, out, span_path)
        times, first = [], {}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(data) or time.perf_counter() < deadline:
            inp = data.get(i)
            i += 1
            if inp is None:
                continue
            elapsed, fingerprint, problems = _train_once(inp, plan)
            if fingerprint is not None:
                if inp.seed in first and first[inp.seed] != fingerprint:
                    problems = ["re-training the same seed gave a different result"]
                first.setdefault(inp.seed, fingerprint)
            if elapsed is not None:
                times.append(elapsed)
            out.record(f"train seed {inp.seed}", problems)

    accs = list(first.values())
    out.metrics = {
        "op_ms": statistics.median(times) * 1e3 if times else None,
        "acc_all": statistics.fmean(a[0] for a in accs) if accs else None,
        "err_few": 100.0 - statistics.fmean(a[1] for a in accs) if accs else None,
        "setup_s": statistics.median(data.timings["setup_ms"]) / 1e3
        if data.timings else None,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.notes = {"train_calls": len(times), "distinct_seeds": len(accs)}
    return out


def _trace_train(plan: TrainPlan, data: _Datasets, seconds: float, out: Outcome,
                 span_path: str) -> Outcome:
    untraced, traced, all_spans = [], [], []
    totals: dict[str, list[int]] = {}
    counters: dict[str, float] = {}
    layers = {span for span, _ in TRAINER_NAMES.values()}
    installed = {span for attr, (span, _) in TRAINER_NAMES.items() if hasattr(trainer_module, attr)}
    # The schedule's step count is checked only while the step function is wrapped.
    count_steps = "trainer.sgd_momentum_step" in installed
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        inp = data.get(i)
        i += 1
        if inp is None:
            continue
        t_plain, fp_plain, problems = _train_once(inp, plan)
        out.record(f"train seed {inp.seed}", problems)
        tracer = Tracer()
        t_traced, fp_traced, problems = _train_once(inp, plan, tracer)
        if fp_traced is not None:
            per_name = self_times(tracer.spans, root=0)
            steps = per_name.get("trainer.sgd_momentum_step", (0, 0))[1]
            expected = _expected_steps(plan, inp.train.n_samples)
            if fp_plain is None or fp_traced != fp_plain:
                problems.append("traced result differs from the untraced result")
            if count_steps and steps != expected:
                problems.append(f"{steps} SGD steps traced, the schedule has {expected}")
            _, start, end, _ = tracer.spans[0]
            if sum(ns for ns, _ in per_name.values()) != end - start:
                problems.append("self times do not add up to the traced call")
            for name, (ns, calls) in per_name.items():
                acc = totals.setdefault(name, [0, 0])
                acc[0] += ns
                acc[1] += calls
            for key, value in tracer.counters.items():
                counters[key] = counters.get(key, 0) + value
            untraced.append(t_plain)
            traced.append(t_traced)
        out.record(f"traced train seed {inp.seed}", problems)
        all_spans.append(tracer.spans)

    calls = max(len(traced), 1)

    def per_call(name, index):
        return totals.get(name, (0, 0))[index] / calls

    m = {f"{name}.self_ms": _ms(per_call(name, 0)) for name in layers | {ROOT_SPAN}}
    m.update({f"{name}.calls": per_call(name, 1) for name in
              ("core.validate", "selection.select_reliable", "solver.plr_update",
               "sinkhorn.solar_update", "prior.update")})
    offered = counters.get("selection.rows_offered", 0)
    solar_calls = totals.get("sinkhorn.solar_update", (0, 0))[1]
    m.update({
        "trainer.steps": per_call("trainer.sgd_momentum_step", 1),
        "selection.rows_offered": offered / calls,
        "selection.kept_share": counters.get("selection.rows_kept", 0) / offered if offered else 0.0,
        "solver.rows": counters.get("solver.rows", 0) / calls,
        "sinkhorn.iterations": counters.get("sinkhorn.iterations", 0) / calls,
        "sinkhorn.relaxed_share": counters.get("sinkhorn.relaxed", 0) / solar_calls
        if solar_calls else 0.0,
        "trace.overhead_ms": (statistics.median(traced) - statistics.median(untraced)) * 1e3
        if traced else None,
    })
    for key, values in data.timings.items():
        if key.startswith("datagen."):
            m[key] = statistics.median(values)
    out.metrics = m
    out.notes = {"traced_train_calls": len(traced), "absent_layers": sorted(layers - installed),
                 "step_check": "done" if count_steps else "skipped: sgd_momentum_step absent"}
    _write_all(all_spans, span_path)
    return out


def _write_all(span_lists, path) -> None:
    merged = []
    for spans in span_lists:
        offset = len(merged)
        merged.extend((name, s, e, p + offset if p >= 0 else -1) for name, s, e, p in spans)
    write_spans(merged, path)


# ------------------------------------------------------------ kernel grid


@dataclass
class _Instance:
    f: PredictionMatrix
    s: CandidateMatrix
    r: object
    labels: np.ndarray
    few_from: int


# Labels drawn from a long-tailed prior (head 1000, ratio 100) with
# negatives flipped in at a rate that keeps candidate sets near six labels
# at every class count: the regime of ``plrlab.report.bench_pseudo``, where
# the per-class mass constraints are tight.
TAIL_HEAD_COUNT, TAIL_RATIO = 1000, 100.0
# The labelled accuracy set's synthetic classifier: the true class gets a
# logit boost, every class is shifted by log r (what a model trained on
# long-tailed data leans toward), plus unit Gaussian noise. The prior
# penalty of plr is what undoes the head bias, so its pseudo-label accuracy
# on few-shot classes is the solver-level form of the paper's claim.
SIGNAL = 2.0
HEAD_BIAS = 1.0


def _long_tailed(batch: int, n_classes: int, rng: Rng):
    """(counts, prior, labels, candidate bits) of one long-tailed batch."""
    counts = longtail_counts(TAIL_HEAD_COUNT, TAIL_RATIO, n_classes)
    r = clamp_prior(counts.astype(np.float64))
    labels = rng.generator.choice(n_classes, size=batch, p=r.values)
    flip = min(0.5, 5.0 / max(n_classes - 1, 1))
    bits = (rng.uniform(size=(batch, n_classes)) < flip).astype(np.float64)
    bits[np.arange(batch), labels] = 1.0
    return counts, r, labels, bits


def kernel_instance(batch: int, n_classes: int, rng: Rng) -> _Instance:
    """A timed instance: uniform(0.05, 1) predictions, row-normalized."""
    counts, r, labels, bits = _long_tailed(batch, n_classes, rng)
    f = row_normalize(rng.uniform(0.05, 1.0, (batch, n_classes)))
    _, few_from = group_split(counts, n_classes)
    return _Instance(PredictionMatrix(f), CandidateMatrix(bits), r, labels, few_from)


def labelled_instance(batch: int, n_classes: int, rng: Rng) -> _Instance:
    """An untimed accuracy instance: predictions of the head-biased classifier."""
    counts, r, labels, bits = _long_tailed(batch, n_classes, rng)
    logits = HEAD_BIAS * np.log(r.values) + rng.normal(size=(batch, n_classes))
    logits[np.arange(batch), labels] += SIGNAL
    f = row_normalize(np.exp(logits - logits.max(axis=1, keepdims=True)))
    _, few_from = group_split(counts, n_classes)
    return _Instance(PredictionMatrix(f), CandidateMatrix(bits), r, labels, few_from)


def _grid_cells(plan: GridPlan):
    """(method, batch, classes) in round-robin order."""
    cells = []
    for b in plan.batches:
        for c in plan.classes:
            for method in ("plr", "proden", "sinkhorn"):
                if method != "sinkhorn" or c <= plan.sinkhorn_max_classes:
                    cells.append((method, b, c))
    return cells


def _build_inputs(plan: GridPlan, seed: int) -> tuple[dict, list]:
    """The timed instances per (B, c) cell and the labelled accuracy set."""
    base = Rng(seed)
    timed = {}
    for ci, (b, c) in enumerate((b, c) for b in plan.batches for c in plan.classes):
        cell_rng = base.child(ci)
        timed[(b, c)] = [kernel_instance(b, c, cell_rng.child(k)) for k in range(plan.instances)]
    acc_rng = base.child(len(timed))
    labelled = [labelled_instance(plan.accuracy_rows, c, acc_rng.child(k))
                for k, c in enumerate(plan.accuracy_classes)]
    return timed, labelled


def _digest(built: tuple[dict, list]) -> str:
    timed, labelled = built
    h = hashlib.sha256()
    for x in [x for key in sorted(timed) for x in timed[key]] + labelled:
        for a in (x.f.values, x.s.bits, x.r.values, x.labels):
            h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def _setup_grid(plan: GridPlan, seed: int, out: Outcome) -> tuple[dict, list, float]:
    """Build the inputs ``setup_reps`` times up front; returns the last build
    and the median build time in seconds. Each build is a set-up operation,
    and every build must equal the first, since the same seed must give the
    same inputs. Builds are compared by digest, so one is alive at a time."""
    times, digests, built = [], [], None
    for _ in range(plan.setup_reps):
        built = None
        t0 = time.perf_counter_ns()
        built = _build_inputs(plan, seed)
        times.append((time.perf_counter_ns() - t0) / 1e9)
        digests.append(_digest(built))
        out.record("set-up", [] if digests[-1] == digests[0] else ["rebuilt inputs differ"])
    return built[0], built[1], statistics.median(times)


def _kernel_calls(h, cfg):
    return {
        "plr": lambda x: plr_update(x.f, x.s, x.r, h),
        "proden": lambda x: proden_update(x.f, x.s),
        "sinkhorn": lambda x: solar_update(x.f, x.s, x.r, cfg),
    }


def _reference(method: str, x: _Instance, h, cfg):
    f, bits, r = x.f.values, x.s.bits, x.r.values
    if method == "plr":
        return checks.ref_plr(f, bits, r, h.lam, h.m)
    if method == "proden":
        return checks.ref_proden(f, bits)
    return checks.ref_sinkhorn(f, bits, r, cfg.lam, cfg.max_iters, cfg.tol)


def _check_kernel(method, result, x: _Instance, expected, cfg) -> list[str]:
    if method == "sinkhorn":
        return checks.check_sinkhorn(result, x.s.bits, x.r, cfg, expected)
    return checks.check_weights(result.values, x.s.bits, expected)


def _output(method, result) -> np.ndarray:
    return result.w.values if method == "sinkhorn" else result.values


class _Grid:
    """Round-robin kernel calls. A round calls every method on every cell
    and instance once; the first output per instance is checked against
    the reference kernel, or against ``twin``'s output for the same
    instance when a twin grid is given, and every later one must equal it
    bit for bit."""

    def __init__(self, plan: GridPlan, instances: dict, twin: "_Grid | None" = None):
        self.plan = plan
        self.instances = instances
        self.twin = twin
        self.cells = _grid_cells(plan)
        self.h = PlrHyperparams()
        self.cfg = SinkhornConfig()
        self.first: dict = {}
        self.times = {cell: [] for cell in self.cells}
        self.round_ns: list[int] = []
        self.iterations = {cell: [] for cell in self.cells if cell[0] == "sinkhorn"}

    def round(self, calls: dict, out: Outcome) -> None:
        total = 0
        for k in range(self.plan.instances):
            for cell in self.cells:
                method, b, c = cell
                x = self.instances[(b, c)][k]
                try:
                    t0 = time.perf_counter_ns()
                    result = calls[method](x)
                    elapsed = time.perf_counter_ns() - t0
                except Exception as exc:  # an operation that raises is a failed operation
                    out.record(f"{method} B={b} c={c}", [f"{type(exc).__name__}: {exc}"])
                    continue
                key = (cell, k)
                if key in self.first:
                    same = np.array_equal(_output(method, result), _output(method, self.first[key]))
                    problems = [] if same else ["output changed between identical calls"]
                elif self.twin is not None:
                    same = np.array_equal(_output(method, result),
                                          _output(method, self.twin.first[key]))
                    problems = [] if same else ["traced output differs from the untraced output"]
                    self.first[key] = result
                else:
                    expected = _reference(method, x, self.h, self.cfg)
                    problems = _check_kernel(method, result, x, expected, self.cfg)
                    self.first[key] = result
                out.record(f"{method} B={b} c={c}", problems)
                self.times[cell].append(elapsed)
                total += elapsed
                if method == "sinkhorn":
                    self.iterations[cell].append(result.iterations_used)
        self.round_ns.append(total)

    def p50_us(self, cell) -> float:
        return statistics.median(self.times[cell]) / 1e3


def _pseudo_label_accuracy(labelled: list, h, out: Outcome) -> tuple[float, float]:
    """Argmax accuracy of plr's pseudo-labels against the hidden labels,
    pooled over the labelled set: overall and on few-shot classes. Each
    call is an operation, checked against the reference kernel."""
    hits = total = few_hits = few_total = 0
    for x in labelled:
        label = f"accuracy plr B={x.f.n_samples} c={x.f.n_classes}"
        try:
            w = plr_update(x.f, x.s, x.r, h).values
        except Exception as exc:  # an operation that raises is a failed operation
            out.record(label, [f"{type(exc).__name__}: {exc}"])
            continue
        expected = checks.ref_plr(x.f.values, x.s.bits, x.r.values, h.lam, h.m)
        out.record(label, checks.check_weights(w, x.s.bits, expected))
        right = np.argmax(w, axis=1) == x.labels
        few = x.labels >= x.few_from
        hits, total = hits + right.sum(), total + right.size
        few_hits, few_total = few_hits + right[few].sum(), few_total + few.sum()
    if not total or not few_total:
        return None, None
    return 100.0 * hits / total, 100.0 * few_hits / few_total


def run_grid(plan: GridPlan, seed: int, seconds: float, trace: bool, workdir: str,
             span_path: str) -> Outcome:
    out = Outcome()
    instances, labelled, setup_s = _setup_grid(plan, seed, out)
    grid = _Grid(plan, instances)
    plain_calls = _kernel_calls(grid.h, grid.cfg)
    headline = ("plr",) + plan.headline
    if not trace:
        deadline = time.perf_counter() + seconds
        while not grid.round_ns or time.perf_counter() < deadline:
            grid.round(plain_calls, out)
        acc_all, acc_few = _pseudo_label_accuracy(labelled, grid.h, out)
        out.metrics = {
            "op_ms": statistics.median(grid.round_ns) / 1e6,
            "acc_all": acc_all,
            "err_few": 100.0 - acc_few if acc_few is not None else None,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        out.notes = {"rounds": len(grid.round_ns),
                     "headline_plr_us_p50": grid.p50_us(headline)}
        return out

    # Traced: alternate plain and traced rounds; per-cell timings come from
    # the plain ones, layer self times from the traced ones.
    tracer = Tracer()
    traced_grid = _Grid(plan, instances, twin=grid)
    traced_calls = {
        "plr": tracer.wrap("solver.plr_update", plain_calls["plr"], _observe_plr),
        "proden": plain_calls["proden"],
        "sinkhorn": tracer.wrap("sinkhorn.solar_update", plain_calls["sinkhorn"],
                                _observe_sinkhorn),
    }
    deadline = time.perf_counter() + seconds
    while not traced_grid.round_ns or time.perf_counter() < deadline:
        grid.round(plain_calls, out)
        traced_grid.round(traced_calls, out)

    traced_rounds = len(traced_grid.round_ns)
    per_name = self_times(tracer.spans)
    m = {}
    for name in ("solver.plr_update", "sinkhorn.solar_update"):
        ns, calls = per_name.get(name, (0, 0))
        m[f"{name}.self_ms"] = _ms(ns) / traced_rounds
        m[f"{name}.calls"] = calls / traced_rounds
    solar_calls = per_name.get("sinkhorn.solar_update", (0, 0))[1]
    m["solver.rows"] = tracer.counters.get("solver.rows", 0) / traced_rounds
    m["sinkhorn.iterations"] = tracer.counters.get("sinkhorn.iterations", 0) / traced_rounds
    m["sinkhorn.relaxed_share"] = tracer.counters.get("sinkhorn.relaxed", 0) / max(solar_calls, 1)
    for cell in grid.cells:
        method, b, c = cell
        m[f"kernel.{method}.B{b}.c{c}.us_p50"] = grid.p50_us(cell)
        if method == "sinkhorn":
            m[f"kernel.sinkhorn.B{b}.c{c}.iterations"] = statistics.fmean(grid.iterations[cell])
    for method in ("plr", "proden", "sinkhorn"):
        m[f"kernel.{method}.grid_ms"] = sum(
            grid.p50_us(cell) for cell in grid.cells if cell[0] == method) / 1e3
    head = sorted(grid.times[headline])
    m["kernel.plr.us_p99"] = head[min(len(head) - 1, int(0.99 * len(head)))] / 1e3
    m["trace.overhead_ms"] = (statistics.median(traced_grid.round_ns)
                              - statistics.median(grid.round_ns)) / 1e6
    out.metrics = m
    out.notes = {"rounds": len(grid.round_ns), "traced_rounds": traced_rounds,
                 "headline_calls": len(head)}
    write_spans(tracer.spans, span_path)
    return out


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    workload = WORKLOADS[name]
    span_path = os.path.join(workdir, f"spans-{name}-seed{seed}.tsv")
    runner = run_train if isinstance(workload.plan, TrainPlan) else run_grid
    return runner(workload.plan, seed, seconds, trace, workdir, span_path)
