"""Scaling baseline: convergence, relaxation, and marginal bookkeeping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plrlab.core import (
    CandidateMatrix,
    PredictionMatrix,
    Rng,
    ShapeMismatch,
    clamp_prior,
    row_normalize,
)
from plrlab.report import _bench_instance
from plrlab.sinkhorn import SinkhornConfig, marginal_errors, solar_update
from plrlab.solver import proden_update

from oracles import solar_update_loop


def _full_feasible(rng, n, c):
    f = PredictionMatrix(row_normalize(rng.uniform(0.05, 1.0, (n, c))))
    s = CandidateMatrix(np.ones((n, c)))
    r = clamp_prior(rng.uniform(0.2, 1.0, c))
    return f, s, r


class TestSolarUpdate:
    def test_already_satisfied_converges_immediately(self):
        f = PredictionMatrix(np.full((2, 2), 0.5))
        s = CandidateMatrix(np.ones((2, 2)))
        r = clamp_prior(np.array([0.5, 0.5]))
        res = solar_update(f, s, r, SinkhornConfig(lam=1.0))
        assert res.iterations_used == 1
        assert res.relaxed is False
        np.testing.assert_allclose(res.w.values, 0.5 + np.zeros((2, 2)), atol=1e-9)

    def test_boundary_feasible_instance_reaches_identity(self):
        # One fully pinned row forces w = [[1,0],[0,1]]; the scaling
        # approaches it at a slow O(1/t) rate, hence the high cap.
        f = PredictionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
        s = CandidateMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        r = clamp_prior(np.array([0.5, 0.5]))
        res = solar_update(f, s, r, SinkhornConfig(max_iters=2000, lam=1.0))
        assert res.relaxed is False
        np.testing.assert_allclose(res.w.values, [[1.0, 0.0], [0.0, 1.0]], atol=5e-3)
        col_sums = res.w.values.sum(axis=0)
        np.testing.assert_allclose(col_sums, [1.0, 1.0], atol=2 * 1e-3 * 2)

    def test_absent_class_reported_infeasible(self):
        f = PredictionMatrix(np.array([[0.7, 0.3], [0.6, 0.4]]))
        s = CandidateMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        r = clamp_prior(np.array([0.5, 0.5]))
        res = solar_update(f, s, r, SinkhornConfig(lam=1.0))
        assert res.infeasible_columns == (1,)
        assert res.relaxed is True
        np.testing.assert_allclose(res.w.values.sum(axis=1), 1.0, atol=1e-9)

    def test_rows_stochastic_even_when_relaxed(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, c = int(rng.integers(2, 20)), int(rng.integers(2, 8))
            bits = (rng.uniform(size=(n, c)) < 0.4).astype(float)
            bits[np.arange(n), rng.integers(0, c, n)] = 1.0
            f = PredictionMatrix(row_normalize(rng.uniform(0.01, 1.0, (n, c))))
            r = clamp_prior(rng.uniform(0.05, 1.0, c))
            res = solar_update(f, CandidateMatrix(bits), r, SinkhornConfig(max_iters=5))
            np.testing.assert_allclose(res.w.values.sum(axis=1), 1.0, atol=1e-9)

    def test_col_error_non_increasing_on_feasible_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n, c = int(rng.integers(4, 65)), int(rng.integers(2, 11))
            f, s, r = _full_feasible(rng, n, c)
            res = solar_update(f, s, r, SinkhornConfig(max_iters=500))
            assert res.relaxed is False
            diffs = np.diff(res.col_err_history)
            assert np.all(diffs <= 1e-12)

    def test_matches_temperature_sharpened_renormalization_when_consistent(self):
        # Cyclic prediction rows make the plain row-normalized kernel
        # already column-uniform, so the scaling limit equals the
        # temperature-sharpened masked renormalization.
        rng = np.random.default_rng(9)
        c, lam = 5, 2.0
        base = rng.uniform(0.1, 1.0, c)
        rows = np.stack([np.roll(base, k) for k in range(c)])
        f = PredictionMatrix(row_normalize(rows))
        s = CandidateMatrix(np.ones((c, c)))
        r = clamp_prior(np.ones(c))
        res = solar_update(f, s, r, SinkhornConfig(max_iters=500, tol=1e-9, lam=lam))
        sharpened = row_normalize(proden_update(f, s).values ** lam)
        np.testing.assert_allclose(res.w.values, sharpened, atol=1e-6)

    def test_shape_mismatch(self):
        f = PredictionMatrix(np.array([[0.5, 0.5]]))
        s = CandidateMatrix(np.array([[1.0, 1.0, 1.0]]))
        r = clamp_prior(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ShapeMismatch):
            solar_update(f, s, r, SinkhornConfig())


@st.composite
def _sinkhorn_inputs(draw):
    c = draw(st.sampled_from([1, 2, 10, 100]))
    batch = draw(st.integers(1, 80))
    # A few classes carry every sample's true label, so absent (infeasible)
    # classes are common; extra candidates come in at a drawn density.
    used = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=4, unique=True))
    density = draw(st.sampled_from([0.0, 0.06, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.uniform(size=(batch, c)) < density).astype(np.float64)
    bits[np.arange(batch), rng.choice(used, size=batch)] = 1.0
    sharpness = draw(st.sampled_from([1.0, 4.0]))
    f = row_normalize(rng.uniform(0.01, 1.0, (batch, c)) ** sharpness)
    masses = rng.uniform(1e-3, 1.0, c)
    lam = draw(st.sampled_from([0.5, 1.0, 3.0]))
    max_iters = draw(st.sampled_from([1, 2, 3, 7, 50]))
    tol = draw(st.sampled_from([1e-3, 1e-6]))
    return f, bits, masses, SinkhornConfig(max_iters=max_iters, tol=tol, lam=lam)


@given(_sinkhorn_inputs())
@example((np.array([[0.5, 0.5]] * 2), np.ones((2, 2)), np.ones(2), SinkhornConfig()))
@example((np.array([[0.7, 0.3], [0.6, 0.4]]), np.array([[1.0, 0.0], [1.0, 0.0]]),
          np.ones(2), SinkhornConfig(max_iters=1)))
# Every row holds a single candidate, and class 2 is infeasible.
@example((row_normalize(np.arange(1.0, 13.0).reshape(4, 3)), np.eye(3)[[0, 1, 0, 1]],
          np.ones(3), SinkhornConfig()))
# One column is feasible, in ten rows; the three others are infeasible.
@example((row_normalize(np.arange(1.0, 41.0).reshape(10, 4) % 7 + 1.0), np.eye(4)[[1] * 10],
          np.array([0.1, 0.6, 0.2, 0.1]), SinkhornConfig()))
# Zero predictions on candidates are floored at PROB_EPS before lam=3.
@example((np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]), np.ones((3, 3)),
          np.array([0.5, 0.3, 0.2]), SinkhornConfig(lam=3.0)))
# Cyclic rows are column-uniform, so the first iteration converges and the
# call returns the row pass made before the loop.
@example((row_normalize(np.array([[1.0, 2.0, 4.0], [4.0, 1.0, 2.0], [2.0, 4.0, 1.0]])),
          np.ones((3, 3)), np.ones(3), SinkhornConfig(lam=2.0)))
# A skewed prior is still 0.05 off after two iterations, so the call stops at
# the cap and returns the row pass made after the second column update.
@example((row_normalize(np.array([[9.0, 1.0], [4.0, 1.0], [3.0, 2.0]])), np.ones((3, 2)),
          np.array([1.0, 4.0]), SinkhornConfig(max_iters=2)))
def test_scaling_loop_matches_the_three_pass_loop(case):
    f, bits, masses, cfg = case
    r = clamp_prior(masses)
    got = solar_update(PredictionMatrix(f), CandidateMatrix(bits), r, cfg)
    w, iterations, relaxed, infeasible, history = solar_update_loop(
        f, bits, r.values, cfg.lam, cfg.max_iters, cfg.tol)
    np.testing.assert_array_equal(got.w.values, w)
    assert got.iterations_used == iterations
    assert got.relaxed == relaxed
    assert got.infeasible_columns == infeasible
    assert got.col_err_history.shape == history.shape
    np.testing.assert_allclose(got.col_err_history, history, rtol=0.0, atol=1e-12)


def test_scaling_allocates_little_beyond_its_output():
    # The loop runs on the candidate entries of a long-tailed batch and
    # sums through the output buffer itself, so the peak traced allocation
    # of one call stays near the B x c output; a dense loop needs at least
    # one more B x c array.
    f, s, r = _bench_instance(1024, 1000, Rng(74))
    cfg = SinkhornConfig(max_iters=5)
    solar_update(f, s, r, cfg)
    tracemalloc.start()
    try:
        w = solar_update(f, s, r, cfg).w
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * w.values.nbytes, (peak, w.values.nbytes)


class TestMarginalErrors:
    def test_scaled_output_has_tight_marginals(self):
        rng = np.random.default_rng(10)
        f, s, r = _full_feasible(rng, 16, 5)
        res = solar_update(f, s, r, SinkhornConfig(max_iters=500))
        row_err, col_err = marginal_errors(res.w, r)
        assert row_err <= 1e-12
        assert col_err <= 1e-3

    def test_masked_renormalization_misses_columns(self):
        rng = np.random.default_rng(11)
        n, c = 32, 4
        f = PredictionMatrix(row_normalize(rng.uniform(0.01, 1.0, (n, c)) ** 3))
        s = CandidateMatrix(np.ones((n, c)))
        r = clamp_prior(np.array([0.7, 0.1, 0.1, 0.1]))
        _, col_err = marginal_errors(proden_update(f, s), r)
        assert col_err > 0.01

    def test_single_row_exact(self):
        w = solar_update(
            PredictionMatrix(np.array([[0.3, 0.7]])),
            CandidateMatrix(np.array([[1.0, 1.0]])),
            clamp_prior(np.array([0.3, 0.7])),
            SinkhornConfig(),
        ).w
        row_err, col_err = marginal_errors(w, clamp_prior(np.array([0.3, 0.7])))
        assert row_err <= 1e-12
        assert col_err <= 1e-3

    def test_single_row_matching_prior_is_zero_error(self):
        from plrlab.core import PseudoLabelMatrix

        w = PseudoLabelMatrix(np.array([[0.3, 0.7]]))
        row_err, col_err = marginal_errors(w, clamp_prior(np.array([0.3, 0.7])))
        assert row_err == 0.0
        assert col_err == 0.0

    def test_shape_mismatch(self):
        w = solar_update(
            PredictionMatrix(np.array([[0.5, 0.5]])),
            CandidateMatrix(np.array([[1.0, 1.0]])),
            clamp_prior(np.array([0.5, 0.5])),
            SinkhornConfig(),
        ).w
        with pytest.raises(ShapeMismatch):
            marginal_errors(w, clamp_prior(np.array([0.4, 0.3, 0.3])))


class TestSinkhornConfig:
    def test_defaults(self):
        cfg = SinkhornConfig()
        assert cfg.max_iters == 50
        assert cfg.tol == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SinkhornConfig(max_iters=0)
        with pytest.raises(ValueError, match="integer"):
            SinkhornConfig(max_iters=2.5)
        with pytest.raises(ValueError):
            SinkhornConfig(tol=0.0)
        with pytest.raises(ValueError):
            SinkhornConfig(lam=0.0)

    @pytest.mark.parametrize("kwargs", [dict(lam=np.inf), dict(lam=np.nan),
                                        dict(tol=np.inf), dict(tol=np.nan)])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            SinkhornConfig(**kwargs)
