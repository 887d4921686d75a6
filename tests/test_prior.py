"""Moving-average prior estimation rules."""

import numpy as np
import pytest

from plrlab.core import (
    EmptyBatch,
    PredictionMatrix,
    PseudoLabelMatrix,
    ShapeMismatch,
    clamp_prior,
)
from plrlab.prior import (
    RULES,
    PriorEstimator,
    init_uniform,
    prior_error,
    update_prior,
)


class TestInitUniform:
    def test_ten_classes(self):
        est = init_uniform(10)
        np.testing.assert_array_equal(est.r.values, np.full(10, 0.1))

    def test_single_class(self):
        np.testing.assert_array_equal(init_uniform(1).r.values, [1.0])

    def test_two_classes(self):
        np.testing.assert_array_equal(init_uniform(2).r.values, [0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            init_uniform(0)
        # Both used to raise numpy's bare TypeError from np.full.
        for count in (True, 2.0):
            with pytest.raises(ValueError, match="c takes integers only"):
                init_uniform(count)
        with pytest.raises(ValueError):
            init_uniform(3, mu=1.5)
        with pytest.raises(ValueError):
            init_uniform(3, rule="nonsense")


class TestHardPred:
    def test_mu_one_keeps_prior(self):
        est = init_uniform(2, mu=1.0)
        p = PredictionMatrix(np.array([[0.9, 0.1], [0.8, 0.2]]))
        np.testing.assert_allclose(update_prior(est, p).r.values, [0.5, 0.5],
                                   atol=1e-15)

    def test_mu_zero_is_pure_histogram(self):
        est = init_uniform(2, mu=0.0)
        p = PredictionMatrix(np.array([[0.2, 0.8], [0.3, 0.7], [0.9, 0.1], [0.6, 0.4]]))
        np.testing.assert_allclose(update_prior(est, p).r.values, [0.5, 0.5],
                                   atol=1e-12)

    def test_blend_by_hand(self):
        # 0.1*0.5 + 0.9*0.75 = 0.725 on the first class.
        est = PriorEstimator(clamp_prior(np.array([0.5, 0.5])), mu=0.1)
        p = PredictionMatrix(np.array([[0.9, 0.1]] * 3 + [[0.1, 0.9]]))
        got = update_prior(est, p).r.values
        np.testing.assert_allclose(got, [0.725, 0.275], atol=1e-12)

    def test_argmax_ties_go_to_smaller_class(self):
        est = init_uniform(3, mu=0.0)
        p = PredictionMatrix(np.array([[0.4, 0.4, 0.2]]))
        got = update_prior(est, p).r.values
        assert got[0] == got.max()

    def test_empty_batch(self):
        est = init_uniform(2)
        with pytest.raises(EmptyBatch):
            update_prior(est, PredictionMatrix(np.empty((0, 2))))

    def test_pseudo_label_source_rejected(self):
        est = init_uniform(2)
        with pytest.raises(ValueError, match="PredictionMatrix"):
            update_prior(est, PseudoLabelMatrix(np.array([[1.0, 0.0]])))


class TestSoftPred:
    def test_uniform_rows_pull_toward_uniform(self):
        est = PriorEstimator(clamp_prior(np.array([0.9, 0.1])), mu=0.5, rule="soft-pred")
        p = PredictionMatrix(np.full((4, 2), 0.5))
        got = update_prior(est, p).r.values
        np.testing.assert_allclose(got, [0.7, 0.3], atol=1e-12)

    def test_mu_zero_is_column_means(self):
        est = init_uniform(2, mu=0.0, rule="soft-pred")
        p = PredictionMatrix(np.array([[0.9, 0.1], [0.7, 0.3]]))
        np.testing.assert_allclose(update_prior(est, p).r.values, [0.8, 0.2],
                                   atol=1e-12)

    def test_half_blend_with_clamped_point_mass(self):
        est = PriorEstimator(clamp_prior(np.array([1.0, 0.0])), mu=0.5, rule="soft-pred")
        p = PredictionMatrix(np.array([[0.0, 1.0]]))
        got = update_prior(est, p).r.values
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-8)

    def test_empty_batch(self):
        est = init_uniform(2, rule="soft-pred")
        with pytest.raises(EmptyBatch):
            update_prior(est, PredictionMatrix(np.empty((0, 2))))

    def test_pseudo_label_source_rejected(self):
        est = init_uniform(2, rule="soft-pred")
        with pytest.raises(ValueError, match="PredictionMatrix"):
            update_prior(est, PseudoLabelMatrix(np.array([[0.5, 0.5]])))


class TestHardPseudo:
    def test_point_masses_land_on_one_class(self):
        est = init_uniform(4, mu=0.0, rule="hard-pseudo")
        w = PseudoLabelMatrix(np.tile([0.0, 0.0, 0.0, 1.0], (5, 1)))
        got = update_prior(est, w).r.values
        assert got[3] == pytest.approx(1.0, abs=1e-7)
        assert got[:3].max() <= 2e-8

    def test_matches_hand_histogram_blend(self):
        est = PriorEstimator(clamp_prior(np.array([0.25, 0.75])), mu=0.2, rule="hard-pseudo")
        w = PseudoLabelMatrix(np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.7, 0.3]]))
        got = update_prior(est, w).r.values
        np.testing.assert_allclose(got, [0.2 * 0.25 + 0.8 * 0.75,
                                         0.2 * 0.75 + 0.8 * 0.25], atol=1e-12)

    def test_mu_one_keeps_prior(self):
        est = init_uniform(2, mu=1.0, rule="hard-pseudo")
        w = PseudoLabelMatrix(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(update_prior(est, w).r.values, [0.5, 0.5],
                                   atol=1e-15)

    def test_prediction_source_rejected(self):
        est = init_uniform(2, rule="hard-pseudo")
        with pytest.raises(ValueError, match="PseudoLabelMatrix"):
            update_prior(est, PredictionMatrix(np.array([[1.0, 0.0]])))

    def test_empty_batch(self):
        est = init_uniform(2, rule="hard-pseudo")
        with pytest.raises(EmptyBatch):
            update_prior(est, PseudoLabelMatrix(np.empty((0, 2))))

    def test_solver_output_matches_offline_histogram_blend(self):
        # Pseudo-labels from the closed-form solver on a seeded instance;
        # the update must equal a histogram blend recomputed by hand.
        from plrlab.core import (CandidateMatrix, PlrHyperparams,
                                 PredictionMatrix, Rng, row_normalize)
        from plrlab.solver import plr_update

        rng = Rng(55)
        n, c = 12, 4
        f = PredictionMatrix(row_normalize(rng.uniform(0.01, 1.0, (n, c))))
        bits = (rng.uniform(size=(n, c)) < 0.5).astype(float)
        bits[np.arange(n), rng.integers(0, c, n)] = 1.0
        r = clamp_prior(rng.uniform(0.1, 1.0, c))
        w = plr_update(f, CandidateMatrix(bits), r, PlrHyperparams(lam=2.0, m=1.0))

        est = PriorEstimator(r, mu=0.3, rule="hard-pseudo")
        got = update_prior(est, w).r.values
        hist = np.bincount(np.argmax(w.values, axis=1), minlength=c) / n
        expected = 0.3 * r.values + 0.7 * hist
        np.testing.assert_allclose(got, expected / expected.sum(), atol=1e-12)


class TestPriorError:
    def test_exact_match(self):
        truth = clamp_prior(np.array([0.3, 0.7]))
        est = PriorEstimator(truth)
        assert prior_error(est, truth) == 0.0

    def test_uniform_vs_skewed(self):
        est = init_uniform(2)
        truth = clamp_prior(np.array([0.9, 0.1]))
        assert prior_error(est, truth) == pytest.approx(0.4)

    def test_geometric_decay(self):
        truth = np.array([0.6, 0.3, 0.1])
        est = init_uniform(3, mu=0.1)
        gap0 = prior_error(est, clamp_prior(truth))
        p = PredictionMatrix(np.array([[1.0, 0.0, 0.0]] * 6
                                      + [[0.0, 1.0, 0.0]] * 3
                                      + [[0.0, 0.0, 1.0]] * 1))
        for k in range(1, 6):
            est = update_prior(est, p)
            assert prior_error(est, clamp_prior(truth)) <= 0.1 ** k * gap0 + 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            prior_error(init_uniform(2), clamp_prior(np.array([1.0, 1.0, 1.0])))


@pytest.mark.parametrize("rule", RULES)
def test_class_count_mismatch(rule):
    kind = PseudoLabelMatrix if rule == "hard-pseudo" else PredictionMatrix
    with pytest.raises(ShapeMismatch):
        update_prior(init_uniform(3, rule=rule), kind(np.array([[1.0, 0.0]])))


def test_every_rule_stays_on_clamped_simplex():
    rng = np.random.default_rng(17)
    ests = [init_uniform(5, mu=0.3, rule=r) for r in ("hard-pred", "soft-pred", "hard-pseudo")]
    for _ in range(30):
        vals = rng.uniform(0.0, 1.0, (8, 5))
        vals /= vals.sum(axis=1, keepdims=True)
        p = PredictionMatrix(vals)
        w = PseudoLabelMatrix(vals)
        ests[0] = update_prior(ests[0], p)
        ests[1] = update_prior(ests[1], p)
        ests[2] = update_prior(ests[2], w)
        for est in ests:
            assert abs(est.r.values.sum() - 1.0) <= 1e-9
            assert est.r.values.min() >= 1e-8 * (1 - 1e-4)


def test_fixed_point_when_empirical_equals_prior():
    r = clamp_prior(np.array([0.5, 0.25, 0.25]))
    est = PriorEstimator(r, mu=0.4, rule="soft-pred")
    p = PredictionMatrix(np.tile(r.values, (6, 1)))
    got = update_prior(est, p).r.values
    np.testing.assert_allclose(got, r.values, atol=1e-12)
