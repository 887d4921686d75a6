"""Closed-form update, objective, and KKT diagnostics against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plrlab.core import (
    CandidateMatrix,
    EmptyCandidateRow,
    NonPositiveWeightOnSupport,
    PlrHyperparams,
    PredictionMatrix,
    PseudoLabelMatrix,
    ShapeMismatch,
    _pack,
    _scatter,
    clamp_prior,
    row_normalize,
)
from plrlab.prior import PriorEstimator
from plrlab.sinkhorn import SinkhornConfig, solar_update
from plrlab.solver import (
    hessian_min_eigen_lower_bound,
    kkt_residual,
    plr_objective,
    plr_update,
    proden_update,
)
from plrlab.trainer import TrainConfig, _pseudo_labels

from oracles import grid_min_objective, random_feasible_rows, row_objective


def _instance(rng, c=None, lam=None, m=None):
    c = c if c is not None else int(rng.integers(2, 6))
    f = PredictionMatrix(row_normalize(rng.uniform(0.01, 1.0, (1, c))))
    cand = (rng.uniform(size=c) < 0.6).astype(float)
    cand[rng.integers(0, c)] = 1.0
    s = CandidateMatrix(cand[None, :])
    r = clamp_prior(rng.uniform(0.05, 1.0, c))
    h = PlrHyperparams(
        lam=float(lam) if lam is not None else float(rng.uniform(0.5, 4.0)),
        m=float(m) if m is not None else float(rng.uniform(0.0, 3.0)),
    )
    return f, s, r, h


class TestPlrUpdate:
    def test_single_candidate_row_is_a_point(self):
        f = PredictionMatrix(np.array([[0.2, 0.5, 0.3]]))
        s = CandidateMatrix(np.array([[0.0, 1.0, 0.0]]))
        r = clamp_prior(np.array([0.1, 0.1, 0.8]))
        w = plr_update(f, s, r, PlrHyperparams(lam=2.7, m=1.3))
        np.testing.assert_array_equal(w.values, [[0.0, 1.0, 0.0]])

    def test_uniform_prior_lam_one_matches_predictions(self):
        f = PredictionMatrix(np.array([[0.6, 0.4]]))
        s = CandidateMatrix(np.array([[1.0, 1.0]]))
        r = clamp_prior(np.array([0.5, 0.5]))
        for m in (0.0, 0.7, 2.0):
            w = plr_update(f, s, r, PlrHyperparams(lam=1.0, m=m))
            np.testing.assert_allclose(w.values, [[0.6, 0.4]], atol=1e-15)

    def test_two_candidate_value_against_grid_search(self):
        # Direct minimization on the candidate simplex (step 1e-4) must
        # land on the same point as the closed form.
        f = PredictionMatrix(np.array([[0.6, 0.3, 0.1]]))
        s = CandidateMatrix(np.array([[1.0, 1.0, 0.0]]))
        r = clamp_prior(np.array([0.5, 0.3, 0.2]))
        h = PlrHyperparams(lam=2.0, m=1.0)
        w = plr_update(f, s, r, h)
        np.testing.assert_allclose(w.values, [[0.70588, 0.29412, 0.0]], atol=1e-4)

        grid = np.linspace(0.0, 1.0, 10001)
        objs = [row_objective(np.array([g, 1.0 - g, 0.0]), f.values[0], r.values,
                              h.lam, h.m) for g in grid]
        best = grid[int(np.argmin(objs))]
        assert abs(best - w.values[0, 0]) < 1e-4

    def test_empty_candidate_row_propagates(self):
        # plr_update cannot be handed an empty row: the CandidateMatrix it
        # takes rejects one when it is built.
        with pytest.raises(EmptyCandidateRow) as exc:
            CandidateMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert exc.value.row == 1

    def test_shape_mismatch(self):
        f = PredictionMatrix(np.array([[0.5, 0.5]]))
        s = CandidateMatrix(np.array([[1.0, 1.0, 1.0]]))
        r = clamp_prior(np.array([0.5, 0.5]))
        with pytest.raises(ShapeMismatch):
            plr_update(f, s, r, PlrHyperparams())

    def test_extreme_lam_falls_back_without_breaking(self):
        # lam large enough to underflow the direct kernel still returns a
        # valid row via the log-space path.
        f = PredictionMatrix(np.array([[1e-9, 1.0 - 1e-9]]))
        s = CandidateMatrix(np.array([[1.0, 1.0]]))
        r = clamp_prior(np.array([0.5, 0.5]))
        w = plr_update(f, s, r, PlrHyperparams(lam=40.0, m=0.0))
        assert np.isfinite(w.values).all()
        np.testing.assert_allclose(w.values.sum(axis=1), 1.0, atol=1e-12)
        assert w.values[0, 1] > 0.999

    def test_matches_proden_at_lam_one_m_zero(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            f, s, r, _ = _instance(rng)
            w_plr = plr_update(f, s, r, PlrHyperparams(lam=1.0, m=0.0))
            w_pro = proden_update(f, s)
            np.testing.assert_allclose(w_plr.values, w_pro.values, atol=1e-12)

    def test_matches_proden_with_uniform_prior_any_m(self):
        rng = np.random.default_rng(22)
        for m in (0.5, 1.0, 2.0):
            f, s, _, _ = _instance(rng)
            uniform = clamp_prior(np.ones(f.n_classes))
            w_plr = plr_update(f, s, uniform, PlrHyperparams(lam=1.0, m=m))
            w_pro = proden_update(f, s)
            np.testing.assert_allclose(w_plr.values, w_pro.values, atol=1e-12)

    def test_head_class_punished(self):
        # Equal predictions on two candidates: the class with the larger
        # prior must receive strictly less mass, more so as m grows.
        f = PredictionMatrix(np.array([[0.5, 0.5]]))
        s = CandidateMatrix(np.array([[1.0, 1.0]]))
        r = clamp_prior(np.array([0.8, 0.2]))
        previous = 0.5
        for m in (0.5, 1.0, 2.0):
            w = plr_update(f, s, r, PlrHyperparams(lam=1.5, m=m)).values[0]
            assert w[0] < w[1]
            assert w[0] < previous - 1e-12
            previous = w[0]

    def test_prior_scale_cancels(self):
        rng = np.random.default_rng(23)
        f, s, _, h = _instance(rng, c=4)
        raw = rng.uniform(0.1, 1.0, 4)
        w1 = plr_update(f, s, clamp_prior(raw), h)
        w2 = plr_update(f, s, clamp_prior(17.3 * raw), h)
        np.testing.assert_array_equal(w1.values, w2.values)

    def test_rows_solved_independently(self):
        rng = np.random.default_rng(24)
        f = PredictionMatrix(row_normalize(rng.uniform(0.01, 1.0, (6, 4))))
        bits = (rng.uniform(size=(6, 4)) < 0.6).astype(float)
        bits[np.arange(6), rng.integers(0, 4, 6)] = 1.0
        s = CandidateMatrix(bits)
        r = clamp_prior(rng.uniform(0.1, 1.0, 4))
        h = PlrHyperparams(lam=2.2, m=1.4)
        whole = plr_update(f, s, r, h)
        for i in range(6):
            single = plr_update(PredictionMatrix(f.values[i:i + 1]),
                                CandidateMatrix(bits[i:i + 1]), r, h)
            np.testing.assert_allclose(whole.values[i], single.values[0], atol=1e-15)


class TestProdenUpdate:
    def test_full_candidates_identity(self):
        f = PredictionMatrix(np.array([[0.5, 0.5]]))
        s = CandidateMatrix(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(proden_update(f, s).values, [[0.5, 0.5]])

    def test_masked_renormalization_by_hand(self):
        f = PredictionMatrix(np.array([[0.7, 0.2, 0.1]]))
        s = CandidateMatrix(np.array([[1.0, 0.0, 1.0]]))
        np.testing.assert_allclose(proden_update(f, s).values, [[0.875, 0.0, 0.125]])

    def test_single_candidate(self):
        f = PredictionMatrix(np.array([[0.9, 0.1]]))
        s = CandidateMatrix(np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(proden_update(f, s).values, [[0.0, 1.0]])

    def test_zero_predictions_on_candidates_resolved_by_clamp(self):
        f = PredictionMatrix(np.array([[1.0, 0.0, 0.0]]))
        s = CandidateMatrix(np.array([[0.0, 1.0, 1.0]]))
        w = proden_update(f, s).values
        np.testing.assert_allclose(w, [[0.0, 0.5, 0.5]])


class TestPlrObjective:
    def test_one_hot_value(self):
        f = PredictionMatrix(np.array([[0.6, 0.4]]))
        r = clamp_prior(np.array([0.7, 0.3]))
        h = PlrHyperparams(lam=2.0, m=1.0)
        w = PseudoLabelMatrix(np.array([[1.0, 0.0]]))
        got = plr_objective(w, f, r, h)
        assert got.entropy == 0.0
        assert got.total == pytest.approx(-np.log(0.6) + (1.0 / 2.0) * np.log(0.7))

    def test_update_output_dominates_random_feasible_points(self):
        rng = np.random.default_rng(31)
        f, s, r, h = _instance(rng, c=4)
        w = plr_update(f, s, r, h)
        best = plr_objective(w, f, r, h).total
        for other in random_feasible_rows(f.values[0], s.bits[0], rng, 100):
            alt = plr_objective(PseudoLabelMatrix(other[None, :]), f, r, h).total
            assert best <= alt + 1e-9

    def test_classification_cancels_entropy_when_w_equals_f(self):
        rng = np.random.default_rng(32)
        f = PredictionMatrix(row_normalize(rng.uniform(0.05, 1.0, (3, 4))))
        r = clamp_prior(np.ones(4))
        h = PlrHyperparams(lam=1.0, m=0.0)
        got = plr_objective(PseudoLabelMatrix(f.values), f, r, h)
        assert got.total == pytest.approx(0.0, abs=1e-12)
        assert got.prior_penalty == 0.0

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(33)
        f, s, r, h = _instance(rng)
        w = plr_update(f, s, r, h)
        got = plr_objective(w, f, r, h)
        assert got.total == pytest.approx(
            got.classification + got.entropy + got.prior_penalty, abs=1e-10)

    def test_matches_reference_row_objective(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            f, s, r, h = _instance(rng)
            w = plr_update(f, s, r, h)
            expected = row_objective(w.values[0], f.values[0], r.values, h.lam, h.m)
            assert plr_objective(w, f, r, h).total == pytest.approx(expected, abs=1e-10)


class TestKktResidual:
    def test_closed_form_is_stationary(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            f, s, r, h = _instance(rng)
            w = plr_update(f, s, r, h)
            rep = kkt_residual(w, f, r, h, s)
            assert rep.max_stationarity_residual <= 1e-8
            assert rep.max_row_sum_violation <= 1e-12
            assert rep.max_support_violation == 0.0

    def test_uniform_guess_is_far_from_stationary(self):
        f = PredictionMatrix(np.array([[0.9, 0.1]]))
        s = CandidateMatrix(np.array([[1.0, 1.0]]))
        r = clamp_prior(np.array([0.5, 0.5]))
        w = PseudoLabelMatrix(np.array([[0.5, 0.5]]))
        rep = kkt_residual(w, f, r, PlrHyperparams(lam=1.0, m=0.0), s)
        assert rep.max_stationarity_residual > 0.01

    def test_mass_outside_support_reported(self):
        f = PredictionMatrix(np.array([[0.6, 0.3, 0.1]]))
        s = CandidateMatrix(np.array([[1.0, 1.0, 0.0]]))
        r = clamp_prior(np.array([0.4, 0.4, 0.2]))
        w = PseudoLabelMatrix(np.array([[0.5, 0.3, 0.2]]))
        rep = kkt_residual(w, f, r, PlrHyperparams(), s)
        assert rep.max_support_violation == pytest.approx(0.2)

    def test_zero_weight_on_candidate_rejected(self):
        f = PredictionMatrix(np.array([[0.5, 0.5]]))
        s = CandidateMatrix(np.array([[1.0, 1.0]]))
        r = clamp_prior(np.array([0.5, 0.5]))
        w = PseudoLabelMatrix(np.array([[1.0, 0.0]]))
        with pytest.raises(NonPositiveWeightOnSupport):
            kkt_residual(w, f, r, PlrHyperparams(), s)

    @pytest.mark.parametrize("diagnostic", ["objective", "kkt"])
    def test_pseudo_labels_of_another_shape_rejected(self, diagnostic):
        f = PredictionMatrix(np.array([[0.5, 0.5], [0.2, 0.8]]))
        s = CandidateMatrix(np.ones((2, 2)))
        r = clamp_prior(np.array([0.5, 0.5]))
        w = PseudoLabelMatrix(np.array([[0.5, 0.5]]))
        call = {"objective": lambda: plr_objective(w, f, r, PlrHyperparams()),
                "kkt": lambda: kkt_residual(w, f, r, PlrHyperparams(), s)}[diagnostic]
        with pytest.raises(ShapeMismatch, match=r"pseudo-labels \(1, 2\) vs predictions \(2, 2\)"):
            call()

    def test_report_fields_nonnegative(self):
        rng = np.random.default_rng(42)
        f, s, r, h = _instance(rng)
        rep = kkt_residual(plr_update(f, s, r, h), f, r, h, s)
        assert rep.max_stationarity_residual >= 0.0
        assert rep.max_row_sum_violation >= 0.0
        assert rep.max_support_violation >= 0.0
        assert rep.multipliers.shape == (1,)


class TestHessianBound:
    def test_even_split(self):
        w = PseudoLabelMatrix(np.array([[0.5, 0.5]]))
        assert hessian_min_eigen_lower_bound(w, PlrHyperparams(lam=2.0, m=0.0)) == 1.0

    def test_point_mass(self):
        w = PseudoLabelMatrix(np.array([[1.0]]))
        assert hessian_min_eigen_lower_bound(w, PlrHyperparams(lam=1.0, m=0.0)) == 1.0

    def test_skewed_split(self):
        w = PseudoLabelMatrix(np.array([[0.9, 0.1]]))
        got = hessian_min_eigen_lower_bound(w, PlrHyperparams(lam=1.0, m=0.0))
        assert got == pytest.approx(1.0 / 0.9)

    def test_no_rows_no_support(self):
        w = PseudoLabelMatrix(np.zeros((0, 3)))
        with pytest.raises(NonPositiveWeightOnSupport, match=r"\(0, 0\) is not positive"):
            hessian_min_eigen_lower_bound(w, PlrHyperparams())

    def test_always_positive_on_random_updates(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            f, s, r, h = _instance(rng)
            w = plr_update(f, s, r, h)
            assert hessian_min_eigen_lower_bound(w, h) > 0.0


def test_closed_form_beats_dense_grid_small():
    # Scaled-down version of the acceptance oracle: 25 instances, grid
    # step 0.02 over the candidate coordinates.
    rng = np.random.default_rng(61)
    for _ in range(25):
        f, s, r, h = _instance(rng)
        w = plr_update(f, s, r, h)
        got = plr_objective(w, f, r, h).total
        ref = grid_min_objective(f.values[0], s.bits[0], r.values, h.lam, h.m, 50)
        assert got <= ref + 1e-9


@st.composite
def _plr_inputs(draw, min_prior=1e-8):
    """Predictions, candidates and prior for one batch, with tiny entries common."""
    c = draw(st.integers(1, 12))
    batch = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.uniform(size=(batch, c)) < draw(st.sampled_from([0.1, 0.5, 1.0]))).astype(float)
    bits[np.arange(batch), rng.integers(0, c, batch)] = 1.0
    sharpness = draw(st.sampled_from([1.0, 8.0, 40.0]))
    f = PredictionMatrix(row_normalize(rng.uniform(1e-3, 1.0, (batch, c)) ** sharpness))
    r = clamp_prior(np.maximum(rng.uniform(size=c) ** draw(st.sampled_from([1.0, 6.0])),
                               min_prior))
    return f, CandidateMatrix(bits), r


@given(_plr_inputs(), st.floats(0.05, 60.0), st.floats(0.0, 35.0))
def test_plr_rows_are_stochastic_with_no_mass_off_candidates(inputs, lam, m):
    f, s, r = inputs
    w = plr_update(f, s, r, PlrHyperparams(lam=lam, m=m)).values
    assert np.all(w >= 0.0)
    assert np.all(w[s.bits == 0.0] == 0.0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@given(_plr_inputs(), st.floats(0.2, 5.0), st.floats(0.0, 4.0))
def test_plr_kkt_residual_within_tolerance(inputs, lam, m):
    f, s, r = inputs
    h = PlrHyperparams(lam=lam, m=m)
    rep = kkt_residual(plr_update(f, s, r, h), f, r, h, s)
    assert rep.max_stationarity_residual <= 1e-8
    assert rep.max_row_sum_violation <= 1e-12
    assert rep.max_support_violation == 0.0


@given(_plr_inputs(), st.floats(0.05, 25.0), st.floats(0.0, 30.0), st.floats(0.0, 5.0))
def test_head_punishment_monotone_in_m(inputs, lam, m, step):
    # The candidate with the largest prior loses mass as m grows: its weight
    # is 1 / (1 + sum_k (f_k/f_h)^lam (r_h/r_k)^m), and every r_h/r_k >= 1.
    f, s, r = inputs
    head = np.argmax(np.where(s.bits > 0.0, r.values, -1.0), axis=1)
    rows = np.arange(s.n_samples)
    before = plr_update(f, s, r, PlrHyperparams(lam=lam, m=m)).values[rows, head]
    after = plr_update(f, s, r, PlrHyperparams(lam=lam, m=m + step)).values[rows, head]
    assert np.all(after <= before * (1.0 + 1e-12) + 1e-300)


def _log_space_weights(f, bits, r, lam, m):
    """The reference: exp(lam log f - m log r - rowmax) on the support, normalized."""
    z = lam * np.log(np.maximum(f, 1e-12)) - m * np.log(r)
    z = np.where(bits > 0.0, z - np.max(np.where(bits > 0.0, z, -np.inf), axis=1,
                                          keepdims=True), -np.inf)
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


@given(_plr_inputs(min_prior=1e-6), st.floats(20.0, 30.0), st.floats(30.0, 40.0))
def test_direct_and_log_space_branches_agree_near_the_switch(inputs, lam, m):
    # Near lam 25, m 35 the direct kernel S f^lam r^-m starts to underflow;
    # whichever branch runs must return the log-space weights.
    f, s, r = inputs
    got = plr_update(f, s, r, PlrHyperparams(lam=lam, m=m)).values
    want = _log_space_weights(f.values, s.bits, r.values, lam, m)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@given(_plr_inputs(), st.floats(0.05, 60.0), st.floats(0.0, 35.0), st.integers(1, 20))
def test_public_updates_equal_the_trainers_plain_array_kernels(inputs, lam, m, iters):
    # The public updates read the CandidateMatrix's cached index; the
    # trainer packs plain bits per batch. Row 0 holds every class and the
    # last row a single one, so both packed extremes occur.
    f, s, r = inputs
    bits = s.bits.copy()
    bits[0] = 1.0
    bits[-1] = np.eye(s.n_classes)[-1]
    s = CandidateMatrix(bits)
    index = _pack(bits)
    est = PriorEstimator(r)
    h = PlrHyperparams(lam=lam, m=m)
    sink = SinkhornConfig(max_iters=iters, lam=lam)

    def trainer_labels(cfg):
        return _scatter(_pseudo_labels(f.values, index, est.r.values, cfg.solver), index[0],
                        bits.shape)

    np.testing.assert_array_equal(plr_update(f, s, r, h).values,
                                  trainer_labels(TrainConfig(solver=h)))
    # PRODEN is plr at lam 1, m 0, where the kernel is f itself.
    proden = TrainConfig(solver=PlrHyperparams(lam=1.0, m=0.0))
    np.testing.assert_array_equal(proden_update(f, s).values, trainer_labels(proden))
    np.testing.assert_array_equal(
        solar_update(f, s, r, sink).w.values,
        trainer_labels(TrainConfig(solver=sink)))


def _sparse_batch(batch, c, seed):
    """A long-tailed batch with about six candidates per row; row 0 holds
    every class and row 1 a single one, so both packed extremes occur."""
    rng = np.random.default_rng(seed)
    bits = (rng.uniform(size=(batch, c)) < 5.0 / (c - 1)).astype(float)
    bits[np.arange(batch), rng.integers(0, c, batch)] = 1.0
    bits[0] = 1.0
    bits[1] = 0.0
    bits[1, c - 1] = 1.0
    f = PredictionMatrix(row_normalize(rng.uniform(0.05, 1.0, (batch, c))))
    r = clamp_prior(100.0 ** -np.linspace(0.0, 1.0, c))
    return f, CandidateMatrix(bits), r


@pytest.mark.parametrize("lam, m", [(3.0, 2.0), (30.0, 40.0)])
def test_packed_plr_matches_log_space_reference(lam, m):
    # (3, 2) takes the direct branch and (30, 40) the log-space one.
    f, s, r = _sparse_batch(64, 1000, 71)
    got = plr_update(f, s, r, PlrHyperparams(lam=lam, m=m)).values
    want = _log_space_weights(f.values, s.bits, r.values, lam, m)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.all(got[s.bits == 0.0] == 0.0)
    assert np.all(got[s.bits > 0.0] > 0.0)
    np.testing.assert_array_equal(got[1], s.bits[1])


def test_packed_proden_matches_log_space_reference():
    f, s, r = _sparse_batch(64, 1000, 72)
    got = proden_update(f, s).values
    want = _log_space_weights(f.values, s.bits, r.values, 1.0, 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.all(got[s.bits == 0.0] == 0.0)
    np.testing.assert_array_equal(got[1], s.bits[1])


@pytest.mark.parametrize("method", ["plr", "plr-log-space", "proden"])
def test_packed_solve_allocates_little_beyond_its_output(method):
    # Only the candidate entries are evaluated, so the peak traced
    # allocation of one call stays near the B x c output itself; a dense
    # kernel needs at least one more B x c temporary.
    f, s, r = _sparse_batch(1024, 1000, 73)
    call = {
        "plr": lambda: plr_update(f, s, r, PlrHyperparams(lam=3.0, m=2.0)),
        "plr-log-space": lambda: plr_update(f, s, r, PlrHyperparams(lam=30.0, m=40.0)),
        "proden": lambda: proden_update(f, s),
    }[method]
    call()
    tracemalloc.start()
    try:
        w = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * w.values.nbytes, (peak, w.values.nbytes)
