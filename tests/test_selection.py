"""Ramp schedule and per-class small-loss selection."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from plrlab.core import PRIOR_EPS, PseudoLabelMatrix, ShapeMismatch, clamp_prior
from plrlab.selection import rho_at, select_reliable

from oracles import select_reliable_loop


class TestRhoAt:
    def test_ramp_start(self):
        assert rho_at(0) == pytest.approx(0.2)

    def test_after_ramp_constant(self):
        assert rho_at(50) == pytest.approx(0.5)
        assert rho_at(999) == pytest.approx(0.5)

    def test_midpoint(self):
        assert rho_at(25) == pytest.approx(0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            rho_at(-1)

    @pytest.mark.parametrize("epoch", [float("nan"), True, 2.5, 3.0])
    def test_epoch_takes_integers_only(self, epoch):
        with pytest.raises(ValueError, match="epoch takes integers only"):
            rho_at(epoch)


def _one_hot_rows(labels, c):
    w = np.zeros((len(labels), c))
    w[np.arange(len(labels)), labels] = 1.0
    return PseudoLabelMatrix(w)


class TestSelectReliable:
    def test_everything_selected_when_caps_cover_buckets(self):
        labels = [0] * 5 + [1] * 5
        w = _one_hot_rows(labels, 2)
        losses = np.arange(10, dtype=float)
        got = select_reliable(w, losses, clamp_prior(np.array([0.5, 0.5])), rho=1.0)
        np.testing.assert_array_equal(got, np.arange(10))

    def test_tight_caps_keep_smallest_loss_per_class(self):
        # rho*r_k*|B| = 0.2*0.5*10 = 1 slot per class, exactly.
        labels = [0, 0, 0, 1, 1, 0, 1, 1, 0, 1]
        losses = np.array([5.0, 1.0, 4.0, 0.5, 3.0, 2.0, 0.7, 9.0, 6.0, 8.0])
        w = _one_hot_rows(labels, 2)
        got = select_reliable(w, losses, clamp_prior(np.array([0.5, 0.5])), rho=0.2)
        np.testing.assert_array_equal(got, [1, 3])

    def test_empty_bucket_contributes_nothing(self):
        # Classes 1 and 2 have no members; the lone bucket is capped at
        # ceil(1 * (1/3) * 3) = 1 slot.
        labels = [0, 0, 0]
        w = _one_hot_rows(labels, 3)
        losses = np.array([0.2, 0.1, 0.3])
        got = select_reliable(w, losses, clamp_prior(np.ones(3)), rho=1.0)
        np.testing.assert_array_equal(got, [1])

    def test_rho_zero_selects_nothing(self):
        w = _one_hot_rows([0, 1], 2)
        got = select_reliable(w, np.array([1.0, 2.0]), clamp_prior(np.ones(2)), rho=0.0)
        assert got.size == 0

    def test_loss_ties_break_toward_smaller_index(self):
        labels = [0, 0, 0, 0]
        losses = np.array([3.0, 1.0, 1.0, 1.0])
        w = _one_hot_rows(labels, 1)
        got = select_reliable(w, losses, clamp_prior(np.ones(1)), rho=0.5)
        np.testing.assert_array_equal(got, [1, 2])

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, c = 24, 4
            vals = rng.uniform(size=(n, c))
            vals /= vals.sum(axis=1, keepdims=True)
            w = PseudoLabelMatrix(vals)
            losses = rng.uniform(size=n)
            r = clamp_prior(rng.uniform(0.1, 1.0, c))
            selected = [set(select_reliable(w, losses, r, rho).tolist())
                        for rho in (0.1, 0.3, 0.6, 1.0)]
            for small, big in zip(selected, selected[1:]):
                assert small <= big

    def test_kept_losses_dominate_dropped_ones_within_class(self):
        rng = np.random.default_rng(14)
        n, c = 40, 5
        vals = rng.uniform(size=(n, c))
        vals /= vals.sum(axis=1, keepdims=True)
        w = PseudoLabelMatrix(vals)
        losses = rng.uniform(size=n)
        r = clamp_prior(rng.uniform(0.1, 1.0, c))
        got = set(select_reliable(w, losses, r, 0.4).tolist())
        labels = np.argmax(vals, axis=1)
        for k in range(c):
            bucket = set(np.flatnonzero(labels == k).tolist())
            inside = bucket & got
            outside = bucket - got
            if inside and outside:
                assert max(losses[i] for i in inside) <= min(losses[i] for i in outside)

    def test_size_bounded_by_budgets(self):
        rng = np.random.default_rng(15)
        n, c = 30, 3
        vals = rng.uniform(size=(n, c))
        vals /= vals.sum(axis=1, keepdims=True)
        w = PseudoLabelMatrix(vals)
        losses = rng.uniform(size=n)
        r = clamp_prior(np.array([0.6, 0.3, 0.1]))
        rho = 0.3
        got = select_reliable(w, losses, r, rho)
        labels = np.argmax(vals, axis=1)
        budget = sum(min(int((labels == k).sum()), int(np.ceil(rho * r.values[k] * n)))
                     for k in range(c))
        assert got.size <= budget

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_loss_rejected(self, bad):
        # A NaN loss used to pass the "losses < 0" check.
        w = _one_hot_rows([0, 1], 2)
        with pytest.raises(ValueError, match="losses must be finite and nonnegative"):
            select_reliable(w, np.array([1.0, bad]), clamp_prior(np.ones(2)), 0.5)

    @pytest.mark.parametrize("rho", [np.nan, -0.1, 1.5, 5.0, np.inf])
    def test_rho_outside_unit_interval_rejected(self, rho):
        # rho=nan used to select nothing and rho=5 every row, silently.
        w = _one_hot_rows([0, 1], 2)
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\]"):
            select_reliable(w, np.array([1.0, 2.0]), clamp_prior(np.ones(2)), rho)

    def test_shape_mismatch(self):
        w = _one_hot_rows([0, 1], 2)
        with pytest.raises(ShapeMismatch):
            select_reliable(w, np.array([1.0]), clamp_prior(np.ones(2)), 0.5)
        with pytest.raises(ShapeMismatch, match="prior has 3 classes"):
            select_reliable(w, np.array([1.0, 1.0]), clamp_prior(np.ones(3)), 0.5)


@st.composite
def _selection_inputs(draw):
    c = draw(st.sampled_from([1, 2, 3, 10, 100, 1000]))
    batch = draw(st.integers(1, 80))
    # Few distinct labels and losses, so absent classes and loss ties are common.
    used = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.sampled_from(used), min_size=batch, max_size=batch))
    losses = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.5]) | st.floats(0.0, 10.0),
                           min_size=batch, max_size=batch))
    masses = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(1e-3, 1.0, c)
    rho = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return labels, losses, masses, rho


@given(_selection_inputs())
# Exact-integer budgets: 0.2 * 0.5 * 10 = 1 slot, and 0.2 * 0.2 * 50, which
# evaluates to 2.0000000000000004 and must still give 2 slots.
@example(([0, 0, 0, 1, 1, 0, 1, 1, 0, 1], [5.0, 1.0, 4.0, 0.5, 3.0, 2.0, 0.7, 9.0, 6.0, 8.0],
          np.array([1.0, 1.0]), 0.2))
@example(([0] * 50, [1.0] * 50, np.ones(5), 0.2))
def test_vectorized_selection_matches_the_per_class_loop(case):
    labels, losses, masses, rho = case
    c = masses.size
    w = _one_hot_rows(labels, c)
    losses = np.asarray(losses, dtype=np.float64)
    r = clamp_prior(masses)
    got = select_reliable(w, losses, r, rho)
    expected = select_reliable_loop(w.values, losses, r.values, rho)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@st.composite
def _training_batches(draw):
    c = draw(st.integers(1, 12))
    batch = draw(st.integers(1, 64))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=batch, max_size=batch))
    losses = draw(st.lists(st.floats(0.0, 10.0), min_size=batch, max_size=batch))
    # Masses at zero clamp to the prior's floor; one large mass pushes the rest down to it.
    masses = draw(st.lists(st.sampled_from([0.0, PRIOR_EPS, 1.0, 1e9]) | st.floats(0.0, 1.0),
                           min_size=c, max_size=c))
    assume(sum(masses) > 0.0)
    return labels, losses, np.array(masses), draw(st.integers(0, 60))


@given(_training_batches())
@example(([0], [1.0], np.array([0.0, 1.0]), 0))
def test_the_ramp_keeps_a_row_of_every_label_group_present(case):
    # The trainer's step relies on this: it always has a selected row to train on.
    labels, losses, masses, epoch = case
    w = _one_hot_rows(labels, masses.size)
    got = select_reliable(w, np.array(losses), clamp_prior(masses), rho_at(epoch))
    assert set(np.asarray(labels)[got].tolist()) == set(labels)
