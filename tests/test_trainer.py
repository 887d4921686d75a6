"""MLP forward/backward, optimizer, augmentation, mixup, and the training loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from plrlab.core import PlrHyperparams, Rng, ShapeMismatch, clamp_prior
from plrlab.datagen import DatasetSpec, PartialDataset, gen_candidates, gen_dataset
from plrlab.prior import RULES, init_uniform, prior_error
from plrlab.sinkhorn import SinkhornConfig
from plrlab.trainer import (
    ModelParams,
    TrainConfig,
    augment,
    cosine_lr,
    forward,
    init_params,
    sgd_momentum_step,
    train,
)
from plrlab.trainer import (
    _backward,
    _buffers,
    _forward_cached,
    _grad_logits_soft_ce,
    _mixup,
    _soft_ce,
)

from oracles import init_params_reference, run_stage_reference


def _quick_cfg(**overrides):
    base = dict(epochs=3, batch_size=64, pre_epochs=1, hidden=(16,), seed=5)
    base.update(overrides)
    return TrainConfig(**base)


class TestForward:
    def test_zero_params_give_uniform(self):
        params = ModelParams([np.zeros((4, 8)), np.zeros((8, 3))],
                             [np.zeros(8), np.zeros(3)])
        _, probs = forward(params, np.ones((5, 4)))
        np.testing.assert_allclose(probs.values, 1.0 / 3.0, atol=1e-15)

    def test_shift_invariance_of_softmax(self):
        params = init_params(2, (), 2, Rng(0))
        x = np.array([[3.0, 3.0]])
        logits, probs = forward(params, x)
        params2 = ModelParams([params.weights[0].copy()], [params.biases[0] + 7.5])
        logits2, probs2 = forward(params2, x)
        np.testing.assert_allclose(logits2 - logits, 7.5, atol=1e-12)
        np.testing.assert_allclose(probs.values, probs2.values, atol=1e-12)

    def test_rows_sum_to_one(self):
        params = init_params(6, (9, 7), 4, Rng(1))
        x = Rng(2).normal(size=(11, 6))
        _, probs = forward(params, x)
        np.testing.assert_allclose(probs.values.sum(axis=1), 1.0, atol=1e-9)

    def test_outputs_own_their_memory(self):
        # The kernel writes into row buffers; forward() hands back whole fresh ones,
        # never a view that a later pass could overwrite.
        params = init_params(6, (9, 7), 4, Rng(1))
        logits, probs = forward(params, Rng(2).normal(size=(11, 6)))
        assert logits.flags.owndata and probs.values.flags.owndata

    def test_shape_mismatch(self):
        params = init_params(6, (9,), 4, Rng(1))
        with pytest.raises(ShapeMismatch):
            forward(params, np.ones((2, 5)))

    def test_non_finite_predictions_raise_numeric_error(self):
        from plrlab.core import NonFiniteLoss

        params = init_params(6, (9,), 4, Rng(1))
        params.weights[0][2, 3] = np.nan  # as a diverged SGD step leaves it
        with pytest.raises(NonFiniteLoss):
            forward(params, np.ones((2, 6)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_named(self, bad):
        # Not NonFiniteLoss, whose advice (a smaller learning rate) would not help.
        x = np.ones((2, 6))
        x[1, 4] = bad
        with pytest.raises(ValueError, match="^features must be finite$"):
            forward(init_params(6, (9,), 4, Rng(1)), x)

    @pytest.mark.parametrize("weights, biases, error, match", [
        pytest.param([np.ones((2, 3))], [], ShapeMismatch, "weights and biases must pair up",
                     id="unpaired"),
        pytest.param([np.full((2, 3), np.inf)], [np.zeros(3)], ValueError,
                     "model parameters must be finite", id="non-finite"),
        # Was accepted with dims (2, 3, 1); forward then failed in numpy's matmul.
        pytest.param([np.ones((2, 3)), np.ones((4, 1))], [np.zeros(3), np.zeros(1)],
                     ShapeMismatch, "layer 1 takes 4 inputs, but layer 0 gives 3", id="unchained"),
        # Raised numpy's bare "need at least one array to concatenate".
        pytest.param([], [], ShapeMismatch, "at least one layer", id="no-layer"),
    ])
    def test_unpaired_or_non_finite_layers_rejected(self, weights, biases, error, match):
        with pytest.raises(error, match=match):
            ModelParams(weights, biases)

    @pytest.mark.parametrize("input_dim, n_classes, match", [
        # Died with a ZeroDivisionError in the He scale.
        pytest.param(0, 2, "layer widths must be at least 1", id="zero-input-dim"),
        # Built a model with no outputs.
        pytest.param(2, 0, "layer widths must be at least 1", id="zero-classes"),
        # Raised a bare TypeError from numpy.
        pytest.param(2.5, 2, "dims takes integers only", id="float-input-dim"),
        # Raised "math domain error".
        pytest.param(-1, 2, "layer widths must be at least 1", id="negative-input-dim"),
    ])
    def test_init_params_rejects_bad_layer_widths(self, input_dim, n_classes, match):
        with pytest.raises(ValueError, match=match):
            init_params(input_dim, (3,), n_classes, Rng(0))


def _mean_scale(n_rows):
    """The per-row weights of a mean over the batch, as the SGD step passes them."""
    return np.full((n_rows, 1), 1.0 / n_rows)


def _fresh_forward(params, x):
    """The in-place forward kernel on fresh buffers: (each layer's rows, probabilities)."""
    acts = _buffers(params, x.shape[0])
    acts[0] = x
    return acts, _forward_cached(params, acts, "a test")


def _fresh_backward(params, acts, dlogits):
    """The in-place backward kernel on fresh buffers: the gradient vector, like ``flat``."""
    grad = np.empty_like(params.flat)
    _backward(params, acts, [np.empty_like(a) for a in acts[1:-2]] + [dlogits],
              *params.split(grad))
    return grad


def _fresh_grad_logits(p, w, scale):
    """The in-place logits gradient into a fresh array."""
    return _grad_logits_soft_ce(p, w, scale, np.empty_like(p))


class TestSoftCe:
    def test_matching_one_hot_is_zero(self):
        probs = np.array([[1.0, 0.0]])
        w = np.array([[1.0, 0.0]])
        assert _soft_ce(probs, w)[0] == pytest.approx(0.0, abs=1e-10)

    def test_half_probability_costs_log_two(self):
        probs = np.array([[0.5, 0.5]])
        w = np.array([[1.0, 0.0]])
        assert _soft_ce(probs, w)[0] == pytest.approx(np.log(2.0))

    def test_uniform_target_on_even_candidates(self):
        probs = np.array([[0.5, 0.5]])
        w = np.array([[0.5, 0.5]])
        assert _soft_ce(probs, w)[0] == pytest.approx(np.log(2.0))


class TestGradLogits:
    def test_zero_at_match(self):
        probs = np.array([[0.3, 0.7]])
        w = np.array([[0.3, 0.7]])
        np.testing.assert_allclose(_fresh_grad_logits(probs, w, _mean_scale(1)), 0.0,
                                   atol=1e-15)

    def test_rows_sum_to_zero_for_one_hot_targets(self):
        probs = np.array([[0.2, 0.5, 0.3]])
        w = np.array([[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(
            _fresh_grad_logits(probs, w, _mean_scale(1)).sum(axis=1), 0.0, atol=1e-15)

    def test_matches_finite_differences_at_logit_level(self):
        rng = Rng(33)
        logits = rng.normal(size=(4, 3))
        wvals = rng.uniform(0.1, 1.0, (4, 3))
        wvals /= wvals.sum(axis=1, keepdims=True)

        def loss_at(z):
            shifted = z - z.max(axis=1, keepdims=True)
            p = np.exp(shifted)
            p /= p.sum(axis=1, keepdims=True)
            return float(-(wvals * np.log(p)).sum(axis=1).mean())

        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        analytic = _fresh_grad_logits(p, wvals, _mean_scale(4))

        h = 1e-6
        for i in range(4):
            for j in range(3):
                bump = logits.copy()
                bump[i, j] += h
                dip = logits.copy()
                dip[i, j] -= h
                numeric = (loss_at(bump) - loss_at(dip)) / (2 * h)
                assert numeric == pytest.approx(analytic[i, j], abs=1e-6)


def test_full_network_gradient_matches_central_differences():
    # d=5, hidden=8, c=3, B=4, relative error under 1e-4.
    rng = Rng(77)
    params = init_params(5, (8,), 3, rng.child(0))
    x = rng.normal(size=(4, 5))
    wvals = rng.uniform(0.05, 1.0, (4, 3))
    wvals /= wvals.sum(axis=1, keepdims=True)

    acts, probs = _fresh_forward(params, x)
    gw, gb = params.split(
        _fresh_backward(params, acts, _fresh_grad_logits(probs, wvals, _mean_scale(4))))

    def loss_with(params_mod):
        _, p = _fresh_forward(params_mod, x)
        return float(-(wvals * np.log(np.maximum(p, 1e-300))).sum(axis=1).mean())

    h = 1e-5
    worst = 0.0
    for layer in range(2):
        target = params.weights[layer]
        flat_grad = gw[layer]
        for idx in np.ndindex(*target.shape):
            bumped = [wt.copy() for wt in params.weights]
            dipped = [wt.copy() for wt in params.weights]
            bumped[layer][idx] += h
            dipped[layer][idx] -= h
            up = loss_with(ModelParams(bumped, [b.copy() for b in params.biases]))
            down = loss_with(ModelParams(dipped, [b.copy() for b in params.biases]))
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(flat_grad[idx]), 1e-8)
            worst = max(worst, abs(numeric - flat_grad[idx]) / denom)
    assert worst <= 1e-4


def test_parameters_are_views_of_one_vector():
    params = init_params(5, (8, 6), 3, Rng(12))
    for array in params.weights + params.biases:
        assert np.shares_memory(array, params.flat)
    params.weights[0][1, 2] = 42.0
    assert params.flat[1 * 8 + 2] == 42.0
    dims = params.dims
    assert params.flat.size == sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
    acts, probs = _fresh_forward(params, np.ones((4, 5)))
    gw, gb = params.split(_fresh_backward(params, acts, probs))
    assert [g.shape for g in gw] == [(5, 8), (8, 6), (6, 3)]
    assert [g.shape for g in gb] == [(8,), (6,), (3,)]


def test_parameters_compare_by_identity():
    # Like the matrix types: comparing the arrays would raise numpy's
    # "truth value of an array is ambiguous" instead of answering.
    a, b = (init_params(3, (4,), 2, Rng(0)) for _ in range(2))
    assert a == a and a != b


def _random_targets(rng, n, c):
    vals = rng.uniform(0.05, 1.0, (n, c))
    return vals / vals.sum(axis=1, keepdims=True)


class TestStackedBackward:
    def test_one_stacked_pass_equals_the_sum_of_block_passes(self):
        rng = Rng(81)
        params = init_params(6, (9, 7), 4, rng.child(0))
        blocks = [rng.normal(size=(n, 6)) for n in (12, 5, 5)]
        scales = (0.7 / 12, 1.3 / 5, 0.4 / 5)
        per_block, stacked_acts, stacked_d = [], [], []
        for x, scale in zip(blocks, scales):
            acts, probs = _fresh_forward(params, x)
            d = (probs - _random_targets(rng, x.shape[0], 4)) * scale
            per_block.append(_fresh_backward(params, acts, d))
            stacked_acts.append(acts)
            stacked_d.append(d)
        acts = [np.concatenate(layer) for layer in zip(*stacked_acts)]
        grad = _fresh_backward(params, acts, np.concatenate(stacked_d))
        np.testing.assert_allclose(grad, sum(per_block), rtol=1e-12)


class TestInPlaceKernels:
    # A stage allocates its buffers once and every pass writes into row slices of
    # them; BLAS and the ufuncs must give there the bits they give on fresh arrays.
    # The sizes are the acceptance run's: 16 features, hidden (64, 64), 10 classes.

    @pytest.mark.parametrize("lo", [0, 7])
    def test_forward_on_buffer_rows_equals_the_forward_on_a_fresh_copy(self, lo):
        rng = Rng(83)
        params = init_params(16, (64, 64), 10, rng.child(0))
        acts = _buffers(params, 192)
        for a in acts:
            a[:] = -7.0
        acts[0][:] = rng.normal(size=(192, 16))
        hi = lo + 64
        probs = _forward_cached(params, [a[lo:hi] for a in acts], "a test")
        fresh, fresh_probs = _fresh_forward(params, acts[0][lo:hi].copy())
        np.testing.assert_array_equal(probs, fresh_probs)
        for got, want in zip(acts, fresh, strict=True):
            np.testing.assert_array_equal(got[lo:hi], want)
        for a in acts[1:]:  # the rows outside [lo:hi] are left alone
            assert (a[:lo] == -7.0).all() and (a[hi:] == -7.0).all()

    def test_backward_on_buffer_views_equals_the_backward_on_concatenated_blocks(self):
        # The step's layout: weak rows [:n], strong selected [n:n+k], mixed [n+k:m],
        # each block's gradient at the logits scaled by one over its row count. The
        # reference stacks fresh arrays with np.concatenate and scales by a column.
        rng = Rng(84)
        params = init_params(16, (64, 64), 10, rng.child(0))
        n, k = 64, 21
        m = n + 2 * k
        weak, picked = rng.normal(size=(n, 16)), rng.normal(size=(2 * k, 16))
        targets = _random_targets(rng, m, 10)
        acts = _buffers(params, 3 * n)
        deltas = [np.empty((3 * n, w.shape[1])) for w in params.weights]
        acts[0][:n], acts[0][n:m] = weak, picked
        for lo, hi, scale in ((0, n, 1.0 / n), (n, m, 1.0 / k)):
            probs = _forward_cached(params, [a[lo:hi] for a in acts], "a test")
            _grad_logits_soft_ce(probs, targets[lo:hi], scale, deltas[-1][lo:hi])
        grad = np.empty_like(params.flat)
        _backward(params, [a[:m] for a in acts], [d[:m] for d in deltas], *params.split(grad))

        blocks = [_fresh_forward(params, x) for x in (weak, picked)]
        stacked = [np.concatenate(layer) for layer in zip(*(a for a, _ in blocks))]
        scale = np.repeat([1.0 / n, 1.0 / k, 1.0 / k], [n, k, k])[:, None]
        dlogits = _fresh_grad_logits(stacked[-1], targets, scale)
        np.testing.assert_array_equal(grad, _fresh_backward(params, stacked, dlogits))


class TestSgdMomentum:
    def test_in_place_update_is_bit_identical_to_the_out_of_place_formula(self):
        rng = Rng(91)
        params = init_params(5, (8,), 3, rng.child(0))
        weights = [w.copy() for w in params.weights + params.biases]
        vel = [np.zeros_like(w) for w in weights]
        velocity = np.zeros_like(params.flat)
        for step in range(5):
            grad = rng.normal(size=params.flat.shape)
            sgd_momentum_step(params, grad, velocity, lr=0.05, momentum=0.9)
            gw, gb = params.split(grad)
            for i, g in enumerate(gw + gb):
                vel[i] = 0.9 * vel[i] + g
                weights[i] = weights[i] - 0.05 * vel[i]
            for got, want in zip(params.weights + params.biases, weights):
                np.testing.assert_array_equal(got, want)

    def test_caller_arrays_are_left_untouched(self):
        # The parameters are owned copies; the velocity is the caller's
        # optimizer state and is updated in place.
        w, b = np.array([[1.0, 2.0]]), np.array([0.5, 0.5])
        velocity = np.array([0.1, 0.1, 0.2, 0.2])
        params = ModelParams([w], [b])
        sgd_momentum_step(params, np.ones(4), velocity, lr=0.1, momentum=0.9)
        np.testing.assert_array_equal(w, [[1.0, 2.0]])
        np.testing.assert_array_equal(b, [0.5, 0.5])
        vw, vb = params.split(velocity)
        np.testing.assert_allclose(vw[0], [[1.09, 1.09]])
        np.testing.assert_allclose(vb[0], [1.18, 1.18])
        assert params.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 1.09)

    def test_plain_step_without_momentum(self):
        params = ModelParams([np.array([[1.0]])], [np.array([0.5])])
        grad = np.array([0.25, 0.1])
        sgd_momentum_step(params, grad, np.zeros(2), lr=1.0, momentum=0.0)
        assert params.weights[0][0, 0] == pytest.approx(0.75)
        assert params.biases[0][0] == pytest.approx(0.4)

    def test_momentum_amplifies_second_step(self):
        params = ModelParams([np.array([[0.0]])], [np.array([0.0])])
        g = np.array([1.0, 0.0])
        lr = 0.1
        velocity = np.zeros(2)
        sgd_momentum_step(params, g, velocity, lr, 0.9)
        first = -params.weights[0][0, 0]
        sgd_momentum_step(params, g, velocity, lr, 0.9)
        second = -params.weights[0][0, 0] - first
        assert first == pytest.approx(lr)
        assert second == pytest.approx(1.9 * lr)

    def test_a_step_on_a_copy_moves_the_copy_alone(self, duplicate):
        # A copy is rebuilt by the constructor, so its layers view its own vector.
        params = init_params(3, (4,), 2, Rng(0))
        dup = duplicate(params)
        assert all(np.shares_memory(a, dup.flat) for a in dup.weights + dup.biases)
        x = Rng(1).normal(size=(5, 3))
        before = forward(params, x)[0]
        np.testing.assert_array_equal(forward(dup, x)[0], before)
        sgd_momentum_step(dup, np.ones_like(dup.flat), np.zeros_like(dup.flat), 0.1, 0.0)
        assert not np.array_equal(forward(dup, x)[0], before)
        np.testing.assert_array_equal(forward(params, x)[0], before)

    def test_zero_lr_freezes_params(self):
        params = ModelParams([np.array([[2.0]])], [np.array([1.0])])
        g = np.array([5.0, 5.0])
        sgd_momentum_step(params, g, np.zeros(2), 0.0, 0.9)
        assert params.weights[0][0, 0] == 2.0


class TestCosineLr:
    def test_start(self):
        assert cosine_lr(0, 10, 0.01) == pytest.approx(0.01)

    def test_midpoint_is_half(self):
        assert cosine_lr(5, 10, 0.01) == pytest.approx(0.005)

    def test_tail_approaches_zero(self):
        assert cosine_lr(99, 100, 0.01) < 1e-5

    def test_range_check(self):
        with pytest.raises(ValueError):
            cosine_lr(10, 10, 0.01)

    @pytest.mark.parametrize("epoch, total, name", [
        (float("nan"), 10, "epoch"), (True, 10, "epoch"), (2.5, 10, "epoch"),
        (2, 10.0, "total_epochs"), (0, True, "total_epochs"), (2, float("inf"), "total_epochs"),
    ])
    def test_epochs_take_integers_only(self, epoch, total, name):
        with pytest.raises(ValueError, match=f"^{name} takes integers only"):
            cosine_lr(epoch, total, 0.01)


class TestAugment:
    def test_zero_noise_is_identity(self):
        # At zero sigma the weak view is x and the strong view only drops coordinates.
        cfg = _quick_cfg(weak_noise_sigma=0.0, strong_noise_sigma=0.0)
        x = np.arange(1.0, 13.0).reshape(3, 4)
        np.testing.assert_array_equal(augment(x, Rng(0), "weak", cfg), x)
        strong = augment(x, Rng(0), "strong", cfg)
        assert ((strong == 0.0) | (strong == x)).all()

    def test_seeded_views_reproduce(self):
        cfg = _quick_cfg()
        x = np.ones((4, 6))
        a = augment(x, Rng(3), "strong", cfg)
        b = augment(x, Rng(3), "strong", cfg)
        np.testing.assert_array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            augment(np.ones((1, 1)), Rng(0), "medium", _quick_cfg())


class _FixedDraws:
    """Stands in for Rng in _mixup: hands back a set coefficient and partner."""

    def __init__(self, lam_mix, perm):
        self.lam_mix, self.perm = lam_mix, np.asarray(perm)

    def beta(self, a, b):
        return self.lam_mix

    def permutation(self, n):
        assert n == self.perm.size
        return self.perm


class TestMixup:
    def test_forced_identity_coefficient(self):
        x = np.arange(8.0).reshape(2, 4)
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x2, w2 = _mixup(x, w, _FixedDraws(1.0, [1, 0]))
        np.testing.assert_array_equal(x2, x)
        np.testing.assert_array_equal(w2, w)

    def test_even_mix_of_swapped_pair_is_the_mean(self):
        x = np.array([[0.0, 2.0], [4.0, 6.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x2, w2 = _mixup(x, w, _FixedDraws(0.5, [1, 0]))
        np.testing.assert_allclose(x2, [[2.0, 4.0], [2.0, 4.0]])
        np.testing.assert_allclose(w2, 0.5)

    def test_mixes_with_the_drawn_coefficient_and_partner(self):
        # The coefficient, then the permutation, from the stream handed in:
        # a twin stream redraws both.
        x = np.arange(15.0).reshape(5, 3)
        w = np.eye(5)
        x2, w2 = _mixup(x, w, Rng(0))
        twin = Rng(0)
        lam_mix = twin.beta(4.0, 4.0)
        perm = twin.permutation(5)
        assert 0.0 < lam_mix < 1.0 and not np.array_equal(perm, np.arange(5))
        np.testing.assert_array_equal(x2, lam_mix * x + (1.0 - lam_mix) * x[perm])
        np.testing.assert_array_equal(w2, lam_mix * w + (1.0 - lam_mix) * w[perm])

    def test_rows_stay_on_simplex(self):
        rng = Rng(9)
        x = rng.normal(size=(10, 3))
        vals = rng.uniform(0.01, 1.0, (10, 4))
        vals /= vals.sum(axis=1, keepdims=True)
        for _ in range(20):
            _, w2 = _mixup(x, vals, rng)
            np.testing.assert_allclose(w2.sum(axis=1), 1.0, atol=1e-12)


def _tiny_dataset(seed=0, separation=6.0, flip=0.4, test_per_class=20):
    spec = DatasetSpec(n_classes=4, head_count=40, imbalance_ratio=4.0,
                       flip_prob=flip, feature_dim=6, class_separation=separation,
                       test_per_class=test_per_class, seed=seed)
    return gen_dataset(spec)


class TestTrain:
    def test_same_seed_bitwise_identical(self):
        # TrainConfig.timing is inert: either value gives the same run.
        ds, test = _tiny_dataset()
        params1, metrics1, est1 = train(ds, _quick_cfg(timing=True), test)
        params2, metrics2, est2 = train(ds, _quick_cfg(timing=False), test)
        assert metrics1 == metrics2
        for a, b in zip(params1.weights, params2.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(est1.r.values, est2.r.values)

    def test_batch_beyond_the_training_set_equals_one_full_batch(self):
        # The stage's buffers are sized by the batch it can run, min(batch_size, N):
        # sized by 3 * batch_size, this run asked numpy for 134 GiB.
        ds, test = _tiny_dataset()
        (params1, metrics1, est1), (params2, metrics2, est2) = (
            train(ds, _quick_cfg(batch_size=size), test) for size in (10**9, ds.n_samples))
        np.testing.assert_array_equal(params1.flat, params2.flat)
        np.testing.assert_array_equal(est1.r.values, est2.r.values)
        np.testing.assert_array_equal([dataclasses.astuple(m) for m in metrics1],
                                      [dataclasses.astuple(m) for m in metrics2])

    def test_different_seeds_differ(self):
        ds, test = _tiny_dataset()
        _, metrics1, _ = train(ds, _quick_cfg(seed=5), test)
        _, metrics2, _ = train(ds, _quick_cfg(seed=6), test)
        assert metrics1 != metrics2

    def test_loss_decreases_with_full_supervision(self):
        # Linearly separable, singleton candidate sets.
        spec = DatasetSpec(n_classes=3, head_count=30, imbalance_ratio=1.0,
                           flip_prob=0.0, feature_dim=5, class_separation=8.0,
                           test_per_class=10, seed=3)
        ds, test = gen_dataset(spec)
        cfg = _quick_cfg(epochs=20, pre_epochs=0, fixed_prior=init_uniform(3).r)
        _, metrics, _ = train(ds, cfg, test)
        losses = [m.loss_cls for m in metrics]
        assert losses[-1] < losses[0]
        assert min(losses) == pytest.approx(losses[-1], abs=0.05)

    def test_metrics_schema(self):
        ds, test = _tiny_dataset()
        _, metrics, _ = train(ds, _quick_cfg(epochs=2), test)
        assert len(metrics) == 2
        m = metrics[0]
        assert m.epoch == 0
        assert 0.0 <= m.acc_all <= 100.0
        assert 0.0 <= m.acc_few <= 100.0
        assert m.prior_err >= 0.0

    @pytest.mark.parametrize("rule", RULES)
    def test_every_prior_rule_refreshes_the_prior(self, rule):
        # update_prior raises on a source of the wrong type, so this also
        # checks that the trainer builds pseudo-labels for hard-pseudo only.
        ds, test = _tiny_dataset()
        _, metrics, est = train(ds, _quick_cfg(prior_rule=rule), test)
        assert est.rule == rule
        assert not np.allclose(est.r.values, 1.0 / ds.n_classes)
        truth = clamp_prior(ds.class_counts.astype(np.float64))
        assert metrics[-1].prior_err == prior_error(est, truth)

    def test_sinkhorn_solver_path_runs(self):
        ds, test = _tiny_dataset()
        _, metrics, _ = train(ds, _quick_cfg(epochs=2, solver=SinkhornConfig()), test)
        assert len(metrics) == 2

    def test_sinkhorn_pseudo_labels_equal_the_public_update(self):
        from plrlab.core import PredictionMatrix, _scatter, clamp_prior
        from plrlab.prior import PriorEstimator
        from plrlab.sinkhorn import SinkhornConfig, solar_update
        from plrlab.trainer import _pseudo_labels

        ds, _ = _tiny_dataset()
        rng = np.random.default_rng(3)
        probs = rng.uniform(0.05, 1.0, ds.candidates.bits.shape)
        probs /= probs.sum(axis=1, keepdims=True)
        est = PriorEstimator(clamp_prior(rng.uniform(0.1, 1.0, ds.n_classes)))
        cfg = _quick_cfg(solver=SinkhornConfig(max_iters=7, lam=2.0))
        index = ds.candidates.packed
        got = _scatter(_pseudo_labels(probs, index, est.r.values, cfg.solver), index[0],
                       probs.shape)
        expected = solar_update(PredictionMatrix(probs), ds.candidates, est.r, cfg.solver)
        np.testing.assert_array_equal(got, expected.w.values)

    def test_m_zero_differs_from_m_two_on_imbalanced_data(self):
        ds, test = _tiny_dataset(flip=0.5)
        _, base, _ = train(ds, _quick_cfg(solver=PlrHyperparams(lam=1.0, m=0.0)), test)
        _, reg, _ = train(ds, _quick_cfg(solver=PlrHyperparams(lam=1.0, m=2.0)), test)
        assert base != reg

    def test_empty_candidate_row_raises(self):
        # train() cannot be handed an empty row: the CandidateMatrix its
        # dataset holds rejects one when it is built.
        from plrlab.core import CandidateMatrix, EmptyCandidateRow

        ds, _ = _tiny_dataset()
        bits = ds.candidates.bits.copy()
        bits[7] = 0.0
        with pytest.raises(EmptyCandidateRow) as exc:
            CandidateMatrix(bits)
        assert exc.value.row == 7

    @pytest.mark.parametrize("overrides, match", [
        pytest.param(dict(solver="sinkhorn"),
                     "solver must be a PlrHyperparams or SinkhornConfig: 'sinkhorn'",
                     id="solver-name"),
        pytest.param(dict(solver=init_uniform(2)),
                     "solver must be a PlrHyperparams or SinkhornConfig: PriorEstimator",
                     id="solver-other-config"),
        pytest.param(dict(fixed_prior=np.full(4, 0.25)),
                     r"fixed_prior must be a ClassPrior or None: array\(",
                     id="fixed-prior-array"),
        # Was accepted; only train() failed, in init_uniform.
        pytest.param(dict(prior_rule="bogus"),
                     r"prior_rule must be one of \('hard-pred', 'soft-pred', 'hard-pseudo'\): "
                     "'bogus'", id="prior-rule-unknown"),
    ])
    def test_bad_setting_named_in_its_error(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            _quick_cfg(**overrides)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_strong_view_names_the_step(self, monkeypatch):
        # The weak view stays finite, so its predictions and the pseudo-labels
        # pass their checks; the strong rows overflow the second forward pass,
        # which checks its own predictions.
        import plrlab.trainer as trainer_module
        from plrlab.core import NonFiniteLoss

        real = trainer_module.augment

        def augment(x, rng, kind, cfg):
            out = real(x, rng, kind, cfg)
            return np.full_like(out, 1e308) if kind == "strong" else out

        monkeypatch.setattr(trainer_module, "augment", augment)
        ds, _ = _tiny_dataset()
        with pytest.raises(NonFiniteLoss, match="^predictions went non-finite at epoch 0, "
                                                "batch 0; try a smaller learning rate$"):
            train(ds, _quick_cfg(pre_epochs=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _quick_cfg(epochs=0)
        with pytest.raises(ValueError):
            _quick_cfg(solver="newton")

    @pytest.mark.parametrize("overrides", [
        pytest.param(dict(lr0=np.inf), id="lr0-inf"),
        pytest.param(dict(weak_noise_sigma=np.nan), id="weak-sigma-nan"),
        pytest.param(dict(strong_noise_sigma=np.inf), id="strong-sigma-inf"),
        pytest.param(dict(epochs=2.5), id="epochs-float"),
        pytest.param(dict(pre_epochs=1.0), id="pre-epochs-float"),
        pytest.param(dict(batch_size=16.0), id="batch-size-float"),
        pytest.param(dict(hidden=(8.0,)), id="hidden-width-float"),
    ])
    def test_non_finite_or_degenerate_settings_rejected(self, overrides):
        # Each used to be accepted: training then ended in a numeric
        # failure, or a float count failed in range() with a TypeError,
        # epochs only after the whole pre-estimation stage.
        with pytest.raises(ValueError):
            _quick_cfg(**overrides)

    @pytest.mark.parametrize("change", [dict(n_classes=5), dict(feature_dim=7)],
                             ids=["classes", "feature-dim"])
    def test_mismatched_test_split_rejected_before_the_first_epoch(self, monkeypatch, change):
        # A test split with other classes was scored against the wrong
        # groups; one with another feature dim failed only after a stage.
        import plrlab.trainer as trainer_module

        def no_epoch(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(trainer_module, "_run_stage", no_epoch)
        ds, _ = _tiny_dataset()
        _, other = gen_dataset(DatasetSpec(**{**dict(n_classes=4, head_count=40, feature_dim=6,
                                                     test_per_class=5), **change}))
        with pytest.raises(ShapeMismatch, match="test set has"):
            train(ds, _quick_cfg(), other)

    def test_fixed_prior_of_another_class_count_rejected_before_the_first_epoch(
            self, monkeypatch):
        import plrlab.trainer as trainer_module

        def no_epoch(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(trainer_module, "_run_stage", no_epoch)
        ds, test = _tiny_dataset()
        with pytest.raises(ShapeMismatch, match="prior has 5 classes, expected 4"):
            train(ds, _quick_cfg(fixed_prior=init_uniform(5).r), test)

    def test_fixed_prior_skips_the_pre_estimation_stage(self, monkeypatch):
        # A pre-stage run from a fixed prior leaves the outputs unchanged, so
        # only the stage count shows the wasted epochs.
        import plrlab.trainer as trainer_module

        stages, real = [], trainer_module._run_stage

        def counting(params, ds, cfg, est, epochs, rng, test):
            stages.append(epochs)
            return real(params, ds, cfg, est, epochs, rng, test)

        monkeypatch.setattr(trainer_module, "_run_stage", counting)
        ds, test = _tiny_dataset()
        train(ds, _quick_cfg(pre_epochs=2, fixed_prior=init_uniform(4).r), test)
        assert stages == [3]

    @pytest.mark.parametrize("hidden", [(0,), (16, 0), (-3,)])
    def test_hidden_width_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match="hidden"):
            _quick_cfg(hidden=hidden)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_aborts_with_numeric_error(self):
        from plrlab.core import NonFiniteLoss

        ds, test = _tiny_dataset()
        with pytest.raises(NonFiniteLoss):
            train(ds, _quick_cfg(lr0=1e28, epochs=5), test)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_frozen_prior_divergence_without_test_set_aborts(self):
        # One SGD step to non-finite weights that no later pass looks at: no
        # second batch, no prior refresh (frozen) and no test set.
        from plrlab.core import NonFiniteLoss

        ds, _ = _tiny_dataset()
        cfg = _quick_cfg(lr0=1e308, epochs=1, pre_epochs=0, fixed_prior=init_uniform(4).r,
                         batch_size=ds.n_samples)
        with pytest.raises(NonFiniteLoss):
            train(ds, cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("batches, overrides, with_test, where", [
        pytest.param(2, dict(epochs=1), False, "epoch 0, batch 1", id="second-batch"),
        pytest.param(1, dict(epochs=2, fixed_prior=init_uniform(4).r), False,
                     "epoch 1, batch 0", id="second-epoch"),
        pytest.param(1, dict(epochs=1), False, "epoch 0, prior refresh", id="prior-refresh"),
        pytest.param(1, dict(epochs=1, fixed_prior=init_uniform(4).r), True,
                     "epoch 0, test split", id="test-split"),
    ])
    def test_divergence_names_the_step_that_saw_it(self, batches, overrides, with_test, where):
        # The first step leaves non-finite weights; the next forward pass is the
        # first to see them, and its error says where it ran: the next step, the
        # epoch's prior refresh or, under a fixed prior, the test split.
        from plrlab.core import NonFiniteLoss

        ds, test = _tiny_dataset()
        cfg = _quick_cfg(lr0=1e308, pre_epochs=0, batch_size=ds.n_samples // batches,
                         **overrides)
        with pytest.raises(NonFiniteLoss, match=f"^predictions went non-finite at {where}; "
                                                "try a smaller learning rate$"):
            train(ds, cfg, test if with_test else None)


def test_train_metrics_are_dataclass_rows():
    ds, test = _tiny_dataset()
    _, metrics, _ = train(ds, _quick_cfg(epochs=1), test)
    row = dataclasses.asdict(metrics[0])
    assert set(row) == {
        "epoch", "lr", "loss_cls", "loss_cons", "loss_mix",
        "acc_all", "acc_many", "acc_med", "acc_few", "prior_err",
    }


# The reference takes a separate forward and backward pass per loss, so it
# rounds differently from the stacked pass: the largest relative gap on
# these runs is about 1e-13.
REFERENCE_RTOL = 1e-9


@pytest.mark.parametrize("overrides, test_per_class", [
    pytest.param(dict(), 20, id="plr"),
    pytest.param(dict(solver=SinkhornConfig(max_iters=20), prior_rule="hard-pseudo"), 20,
                 id="sinkhorn-hard-pseudo"),
    # pre_epochs stays 1: a given prior skips the pre-stage and every refresh.
    pytest.param(dict(fixed_prior=clamp_prior(np.array([0.4, 0.3, 0.2, 0.1]))), 20,
                 id="fixed-prior"),
    # 160 test rows, more than the 91 training rows and the step's 3 * 16: the
    # stage's buffers must hold the test split's forward pass too.
    pytest.param(dict(batch_size=16), 40, id="test-split-largest"),
])
def test_train_matches_the_reference_trainer(overrides, test_per_class):
    ds, test = _tiny_dataset(test_per_class=test_per_class)
    _assert_train_matches_reference(ds, _quick_cfg(hidden=(12, 8), **overrides), test)


def _assert_train_matches_reference(ds, cfg, test):
    params, metrics, est = train(ds, cfg, test)

    # train()'s two stages, each from its own child stream.
    rng = Rng(cfg.seed)
    dims = (ds.feature_dim, *cfg.hidden, ds.n_classes)
    # The recipe's constants restated: prior blend 0.1 in the pre-stage, 0.01 after.
    est_ref = init_uniform(ds.n_classes, mu=0.1, rule=cfg.prior_rule)
    if cfg.fixed_prior is None:
        weights, biases = init_params_reference(dims, rng.child(0))
        *_, est_ref, _ = run_stage_reference(weights, biases, ds, cfg, est_ref,
                                             cfg.pre_epochs, rng.child(1), None)
    else:
        est_ref = dataclasses.replace(est_ref, r=cfg.fixed_prior)
    weights, biases = init_params_reference(dims, rng.child(2))
    est_ref = dataclasses.replace(est_ref, mu=0.01)
    weights, biases, est_ref, metrics_ref = run_stage_reference(
        weights, biases, ds, cfg, est_ref, cfg.epochs, rng.child(3), test)

    for got, want in zip(params.weights + params.biases, weights + biases, strict=True):
        np.testing.assert_allclose(got, want, rtol=REFERENCE_RTOL)
    np.testing.assert_allclose(est.r.values, est_ref.r.values, rtol=REFERENCE_RTOL)
    if cfg.fixed_prior is not None:
        np.testing.assert_array_equal(est.r.values, cfg.fixed_prior.values)
    np.testing.assert_allclose([dataclasses.astuple(m) for m in metrics],
                               [dataclasses.astuple(m) for m in metrics_ref],
                               rtol=REFERENCE_RTOL)


@st.composite
def _fuzz_dataset(draw):
    """A tiny PartialDataset: 2-5 classes, non-increasing counts, 5-40 rows, 2-4 features."""
    c = draw(st.integers(2, 5))
    counts = sorted(draw(st.lists(st.integers(0, 12), min_size=c, max_size=c)), reverse=True)
    assume(5 <= sum(counts) <= 40)
    rng = Rng(draw(st.integers(0, 2**16)))
    labels = np.repeat(np.arange(c), counts)
    d = draw(st.integers(2, 4))
    features = 2.0 * rng.normal(size=(c, d))[labels] + rng.normal(size=(labels.size, d))
    bits = gen_candidates(labels, draw(st.sampled_from([0.0, 0.3, 0.7])), rng, c)
    return PartialDataset(features, labels, bits)


@st.composite
def _fuzz_config(draw, n_samples: int, c: int):
    """A config for ``n_samples`` rows of ``c`` classes: every prior rule and prior source,
    both solvers with plr's log-space branch (lam > 25.6) and batch sizes that do not
    divide N."""
    solver = draw(st.sampled_from([PlrHyperparams(lam, m) for lam in (0.5, 3.0, 30.0)
                                   for m in (0.0, 2.0)]
                                  + [SinkhornConfig(max_iters=k) for k in range(1, 6)]))
    drawn = clamp_prior(np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=c, max_size=c))))
    # None twice: only a prior that is not fixed is refreshed.
    fixed_prior = draw(st.sampled_from([None, None, init_uniform(c).r, drawn]))
    return TrainConfig(
        epochs=draw(st.integers(1, 2)), pre_epochs=draw(st.integers(0, 1)),
        batch_size=draw(st.integers(1, n_samples + 3)), lr0=draw(st.sampled_from([0.01, 0.2])),
        hidden=tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))),
        solver=solver, prior_rule=draw(st.sampled_from(RULES)), fixed_prior=fixed_prior,
        seed=draw(st.integers(0, 2**16)))


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_train_matches_the_reference_trainer_on_drawn_runs(data):
    # Differential fuzz: the fixed cases above cover four configs. With a
    # class group missing from the test split, it reads NaN on both sides.
    ds = data.draw(_fuzz_dataset())
    cfg = data.draw(_fuzz_config(ds.n_samples, ds.n_classes))
    _assert_train_matches_reference(ds, cfg, data.draw(st.sampled_from([None, ds])))


@pytest.mark.parametrize("config, name, value", [
    # Each was accepted: a float count silently rounded or truncated
    # (head_count 500.6 gave class 0 501 samples, test_per_class 2.7 gave 2),
    # seed 1.9 replayed seed 1, n_classes 3.0 failed later in numpy with a
    # bare TypeError, and a bool counted as 0 or 1.
    pytest.param(DatasetSpec, "n_classes", 3.0, id="spec-n-classes-float"),
    pytest.param(DatasetSpec, "head_count", 500.6, id="spec-head-count-float"),
    pytest.param(DatasetSpec, "feature_dim", 4.0, id="spec-feature-dim-float"),
    pytest.param(DatasetSpec, "test_per_class", 2.7, id="spec-test-per-class-float"),
    pytest.param(DatasetSpec, "seed", 1.9, id="spec-seed-float"),
    pytest.param(DatasetSpec, "n_classes", True, id="spec-n-classes-bool"),
    pytest.param(DatasetSpec, "seed", False, id="spec-seed-bool"),
    pytest.param(TrainConfig, "seed", 1.9, id="train-seed-float"),
    pytest.param(TrainConfig, "seed", True, id="train-seed-bool"),
    pytest.param(TrainConfig, "epochs", True, id="train-epochs-bool"),
    pytest.param(TrainConfig, "batch_size", True, id="train-batch-size-bool"),
    pytest.param(TrainConfig, "pre_epochs", False, id="train-pre-epochs-bool"),
    pytest.param(TrainConfig, "hidden", (8, True), id="train-hidden-width-bool"),
    pytest.param(SinkhornConfig, "max_iters", True, id="sinkhorn-max-iters-bool"),
])
def test_integer_settings_reject_floats_and_bools(config, name, value):
    base = dict(n_classes=4, head_count=40) if config is DatasetSpec else {}
    with pytest.raises(ValueError, match=f"^{name} takes integers only"):
        config(**{**base, name: value})
