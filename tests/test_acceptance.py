"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> ...: PASS`` line when it holds (run
with ``pytest -s`` to see them); a failing criterion shows up as an
ordinary pytest failure.
"""

import time

import numpy as np
import pytest

from plrlab.cli import main
from plrlab.core import (
    CandidateMatrix,
    PlrHyperparams,
    PredictionMatrix,
    PseudoLabelMatrix,
    Rng,
    clamp_prior,
    row_normalize,
)
from plrlab.datagen import DatasetSpec, gen_dataset, read_dataset, write_dataset
from plrlab.prior import (
    init_uniform,
    prior_error,
    update_prior,
)
from plrlab.report import (
    bench_pseudo,
    group_accuracy,
    logits_adjust_predict,
    read_metrics,
)
from plrlab.sinkhorn import SinkhornConfig, solar_update
from plrlab.solver import kkt_residual, plr_objective, plr_update, proden_update
from plrlab.trainer import TrainConfig, forward, train
from plrlab.trainer import _backward, _forward_cached, _grad_logits_soft_ce

from oracles import grid_min_objective, row_objective


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def _random_single_row(rng):
    c = int(rng.integers(2, 6))
    f = PredictionMatrix(row_normalize(rng.uniform(0.01, 1.0, (1, c))))
    cand = (rng.uniform(size=c) < 0.6).astype(float)
    cand[rng.integers(0, c)] = 1.0
    s = CandidateMatrix(cand[None, :])
    r = clamp_prior(rng.uniform(0.05, 1.0, c))
    h = PlrHyperparams(lam=float(rng.uniform(0.5, 4.0)), m=float(rng.uniform(0.0, 3.0)))
    return f, s, r, h


def test_criterion_1_closed_form_optimality_oracle():
    # Both sides of the comparison go through the independent objective
    # in oracles.py; the library only supplies the candidate solution.
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        f, s, r, h = _random_single_row(rng)
        w = plr_update(f, s, r, h)
        got = row_objective(w.values[0], f.values[0], r.values, h.lam, h.m)
        ref = grid_min_objective(f.values[0], s.bits[0], r.values, h.lam, h.m, 100)
        assert got <= ref + 1e-9
        assert plr_objective(w, f, r, h).total == pytest.approx(got, abs=1e-10)
        rep = kkt_residual(w, f, r, h, s)
        assert rep.max_stationarity_residual <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"closed-form optimality oracle ({elapsed:.1f}s)")


def test_criterion_2_degeneration_to_masked_renormalization():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        f, s, r, _ = _random_single_row(rng)
        w_reg = plr_update(f, s, r, PlrHyperparams(lam=1.0, m=0.0))
        w_plain = proden_update(f, s)
        np.testing.assert_allclose(w_reg.values, w_plain.values, rtol=0, atol=1e-12)
        uniform = clamp_prior(np.ones(f.n_classes))
        for m in (0.5, 1.0, 2.0):
            w_uni = plr_update(f, s, uniform, PlrHyperparams(lam=1.0, m=m))
            np.testing.assert_allclose(w_uni.values, w_plain.values, rtol=0, atol=1e-12)
    _report(2, "degeneration to masked renormalization")


def test_criterion_3_head_punishment():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        c = int(rng.integers(2, 6))
        j, k = rng.choice(c, size=2, replace=False)
        shared = rng.uniform(0.05, 0.45)
        frow = rng.uniform(0.01, 1.0, c)
        frow[j] = frow[k] = shared
        f = PredictionMatrix(row_normalize(frow[None, :] / frow.sum()))
        cand = np.zeros(c)
        cand[[j, k]] = 1.0
        s = CandidateMatrix(cand[None, :])
        rvals = rng.uniform(0.05, 1.0, c)
        rvals[j] = rvals[k] * rng.uniform(1.5, 4.0)  # j is the head class
        r = clamp_prior(rvals)
        lam = float(rng.uniform(0.5, 4.0))
        previous = None
        for m in (0.5, 1.0, 2.0):
            w = plr_update(f, s, r, PlrHyperparams(lam=lam, m=m)).values[0]
            assert w[j] < w[k] - 1e-12
            if previous is not None:
                assert w[j] < previous - 1e-12
            previous = w[j]
    _report(3, "head punishment, strict and monotone in the exponent")


def test_criterion_4_full_mlp_gradient_check():
    start = time.perf_counter()
    rng = Rng(1004)
    from plrlab.trainer import init_params

    params = init_params(5, (8,), 3, rng.child(0))
    x = rng.normal(size=(4, 5))
    wvals = rng.uniform(0.05, 1.0, (4, 3))
    wvals /= wvals.sum(axis=1, keepdims=True)

    acts, _, probs = _forward_cached(params, x)
    # The per-row weights of a mean over the batch, as the SGD step passes them.
    row_scale = np.full((x.shape[0], 1), 1.0 / x.shape[0])
    gw, gb = params.split(_backward(params, acts, _grad_logits_soft_ce(probs, wvals, row_scale)))

    def loss_with(weights, biases):
        out = x
        for wt, b in zip(weights[:-1], biases[:-1]):
            out = np.maximum(out @ wt + b, 0.0)
        logits = out @ weights[-1] + biases[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        return float(-(wvals * np.log(p)).sum(axis=1).mean())

    step = 1e-5
    worst = 0.0
    for layer in range(len(params.weights)):
        for arrays, grads in ((params.weights, gw), (params.biases, gb)):
            for idx in np.ndindex(*arrays[layer].shape):
                up = [a.copy() for a in params.weights], [b.copy() for b in params.biases]
                down = [a.copy() for a in params.weights], [b.copy() for b in params.biases]
                target_up = up[0] if arrays is params.weights else up[1]
                target_down = down[0] if arrays is params.weights else down[1]
                target_up[layer][idx] += step
                target_down[layer][idx] -= step
                numeric = (loss_with(*up) - loss_with(*down)) / (2 * step)
                denom = max(abs(numeric), abs(grads[layer][idx]), 1e-8)
                worst = max(worst, abs(numeric - grads[layer][idx]) / denom)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 5.0
    _report(4, f"full-MLP gradient vs central differences (err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_5_sinkhorn_behavior():
    rng = np.random.default_rng(1005)
    cfg = SinkhornConfig(max_iters=500, tol=1e-3)
    for _ in range(50):
        n, c = int(rng.integers(4, 65)), int(rng.integers(2, 11))
        f = PredictionMatrix(row_normalize(rng.uniform(0.05, 1.0, (n, c))))
        s = CandidateMatrix(np.ones((n, c)))
        r = clamp_prior(rng.uniform(0.2, 1.0, c))
        res = solar_update(f, s, r, cfg)
        assert res.relaxed is False
        assert res.iterations_used <= 500
        assert res.col_marginal_err <= 1e-3
        assert np.all(np.diff(res.col_err_history) <= 1e-12)

    # Constructed infeasible cases: an absent class, and a class whose
    # demanded mass exceeds what its candidate rows can carry.
    absent = solar_update(
        PredictionMatrix(np.array([[0.7, 0.3], [0.6, 0.4]])),
        CandidateMatrix(np.array([[1.0, 0.0], [1.0, 0.0]])),
        clamp_prior(np.array([0.5, 0.5])),
        SinkhornConfig(),
    )
    assert absent.relaxed is True
    assert absent.infeasible_columns == (1,)
    np.testing.assert_allclose(absent.w.values.sum(axis=1), 1.0, atol=1e-9)

    overloaded = solar_update(
        PredictionMatrix(np.array([[0.9, 0.1], [0.8, 0.2], [0.5, 0.5]])),
        CandidateMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])),
        clamp_prior(np.array([0.2, 0.8])),
        SinkhornConfig(),
    )
    assert overloaded.relaxed is True
    np.testing.assert_allclose(overloaded.w.values.sum(axis=1), 1.0, atol=1e-9)
    _report(5, "scaling baseline convergence and relaxation")


def test_criterion_6_kernel_runtime_gap():
    # Each round times 10 back-to-back calls per method on the same
    # instance; the median of five round means ignores a stall that
    # lands in one or two rounds.
    rounds = [{rec.method: rec.mean_s for rec in bench_pseudo(
        ["plr", "proden", "sinkhorn"], 256, 100, 10, Rng(1006),
        sinkhorn_cfg=SinkhornConfig(max_iters=50),
    )} for _ in range(5)]
    mean_s = {m: float(np.median([rnd[m] for rnd in rounds])) for m in rounds[0]}
    plr_t = mean_s["plr"]
    assert plr_t <= mean_s["sinkhorn"] / 5.0
    assert plr_t <= 3.0 * mean_s["proden"]
    _report(6, f"kernel runtime gap (plr {plr_t * 1e3:.2f} ms, "
               f"sinkhorn/plr {mean_s['sinkhorn'] / plr_t:.0f}x, "
               f"plr/proden {plr_t / mean_s['proden']:.1f}x)")


LONGTAIL_SPEC = dict(n_classes=10, head_count=500, imbalance_ratio=100.0,
                     flip_prob=0.5, feature_dim=16, class_separation=4.0,
                     test_per_class=50)
LONGTAIL_TRAIN = dict(epochs=100, pre_epochs=20, batch_size=64,
                      weak_noise_sigma=0.2, strong_noise_sigma=0.8)
SEEDS = (1, 2, 3)


@pytest.fixture(scope="session")
def longtail_runs():
    """Six seeded runs (3 seeds x exponent in {2, 0}), shared by criteria 7 and 9."""
    start = time.perf_counter()
    runs = {}
    for m in (2.0, 0.0):
        for seed in SEEDS:
            spec = DatasetSpec(seed=seed, **LONGTAIL_SPEC)
            train_ds, test_ds = gen_dataset(spec)
            cfg = TrainConfig(solver=PlrHyperparams(lam=3.0, m=m), seed=seed,
                              **LONGTAIL_TRAIN)
            params, metrics, est = train(train_ds, cfg, test_ds)
            runs[(m, seed)] = (params, est, test_ds, metrics)
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_criterion_7_tail_class_gain(longtail_runs):
    few = {m: np.mean([longtail_runs[(m, s)][3][-1].acc_few for s in SEEDS])
           for m in (2.0, 0.0)}
    overall = {m: np.mean([longtail_runs[(m, s)][3][-1].acc_all for s in SEEDS])
               for m in (2.0, 0.0)}
    gain = few[2.0] - few[0.0]
    drop = overall[0.0] - overall[2.0]
    assert gain >= 10.0
    assert drop <= 2.0
    assert longtail_runs["elapsed"] < 600.0
    _report(7, f"tail-class gain (+{gain:.1f} few, overall {overall[2.0]:.1f} vs "
               f"{overall[0.0]:.1f}, {longtail_runs['elapsed']:.0f}s)")


def test_criterion_8_prior_estimation_convergence():
    spec = DatasetSpec(seed=1, **LONGTAIL_SPEC)
    train_ds, _ = gen_dataset(spec)
    labels = train_ds.true_labels
    c = train_ds.n_classes
    one_hot = np.zeros((labels.size, c))
    one_hot[np.arange(labels.size), labels] = 1.0
    truth = clamp_prior(train_ds.class_counts.astype(np.float64))

    p = PredictionMatrix(one_hot)
    w = PseudoLabelMatrix(one_hot)
    sources = {"hard-pred": p, "soft-pred": p, "hard-pseudo": w}
    for rule, source in sources.items():
        est = init_uniform(c, mu=0.1, rule=rule)
        converged_at = None
        for k in range(1, 71):
            est = update_prior(est, source)
            assert abs(est.r.values.sum() - 1.0) <= 1e-9
            assert est.r.values.min() >= 1e-8 * (1 - 1e-4)
            if converged_at is None and prior_error(est, truth) <= 1e-3:
                converged_at = k
        assert converged_at is not None and converged_at <= 70
    _report(8, "prior estimation convergence under all three rules")


def test_criterion_9_prior_compensation_comparison(longtail_runs):
    phis = (0.3, 0.5, 0.7, 1.0)
    few_by_phi = {phi: [] for phi in (0.0,) + phis}
    for seed in SEEDS:
        params, est, test_ds, _ = longtail_runs[(0.0, seed)]
        logits, _ = forward(params, test_ds.features)
        for phi in (0.0,) + phis:
            preds = logits_adjust_predict(logits, est.r, phi)
            acc = group_accuracy(preds, test_ds.true_labels, test_ds.group_boundaries)
            few_by_phi[phi].append(acc.few)
    mean_few = {phi: float(np.mean(v)) for phi, v in few_by_phi.items()}
    best_phi = max(phis, key=lambda p: mean_few[p])
    upward_at_start = mean_few[0.5] >= mean_few[0.3]
    beats_plain = mean_few[best_phi] > mean_few[0.0]
    assert upward_at_start or beats_plain

    regularized_few = np.mean([longtail_runs[(2.0, s)][3][-1].acc_few for s in SEEDS])
    assert regularized_few > mean_few[best_phi]
    _report(9, f"prior compensation helps (best phi={best_phi}, few "
               f"{mean_few[best_phi]:.1f} vs {mean_few[0.0]:.1f}) but the "
               f"regularized run ({regularized_few:.1f}) beats it")


def test_criterion_10_determinism_and_round_trips(tmp_path):
    gen_args = ["gen", "--classes", "6", "--head", "40", "--gamma", "8",
                "--psi", "0.4", "--dim", "5", "--test-per-class", "6",
                "--seed", "11", "-o"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(gen_args + [str(a)]) == 0
    assert main(gen_args + [str(b)]) == 0
    strip = lambda p: b"\n".join(
        ln for ln in p.read_bytes().split(b"\n") if not ln.startswith(b"#"))
    assert strip(a) == strip(b)  # bodies identical; comments echo the paths

    # Dataset file round-trip: parse then re-serialize, byte for byte.
    ds = read_dataset(a)
    rewritten = tmp_path / "rt.txt"
    write_dataset(ds, rewritten)
    assert strip(rewritten) == strip(a)

    train_args = ["train", "-d", str(a), "--epochs", "3", "--pre-epochs", "1",
                  "--batch", "32", "--hidden", "8", "--seed", "4"]
    assert main(train_args) == 0
    metrics_1 = (tmp_path / "a_metrics.txt").read_bytes()
    model_1 = (tmp_path / "a_model.txt").read_bytes()
    assert main(train_args) == 0
    assert (tmp_path / "a_metrics.txt").read_bytes() == metrics_1
    assert (tmp_path / "a_model.txt").read_bytes() == model_1

    # Metrics file round-trip: parse then re-emit, byte for byte.
    from plrlab.report import emit_metrics

    parsed = read_metrics(tmp_path / "a_metrics.txt")
    re_emitted = tmp_path / "metrics_rt.txt"
    emit_metrics(parsed, re_emitted)
    assert strip(re_emitted) == strip(tmp_path / "a_metrics.txt")

    eval_args = ["eval", "-m", str(tmp_path / "a_model.txt"),
                 "-d", str(tmp_path / "a_test.txt"), "--phi", "0.5",
                 "-o", str(tmp_path / "eval.txt")]
    assert main(eval_args) == 0
    eval_1 = (tmp_path / "eval.txt").read_bytes()
    assert main(eval_args) == 0
    assert (tmp_path / "eval.txt").read_bytes() == eval_1

    # Benchmark outputs: the seeded grid is stable; the two wall-clock
    # columns are measurements and are excluded from the byte comparison.
    bench_args = ["bench", "--batch", "32", "--classes", "6", "--reps", "3",
                  "--seed", "2", "-o"]
    b1, b2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert main(bench_args + [str(b1)]) == 0
    assert main(bench_args + [str(b2)]) == 0
    grid = lambda p: [",".join(ln.split(",")[:4]) for ln in p.read_text().splitlines()
                      if not ln.startswith("#")]
    assert grid(b1) == grid(b2)
    _report(10, "determinism and format round-trips "
                "(wall-clock fields excluded where present)")
