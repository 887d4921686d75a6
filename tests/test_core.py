"""Construction invariants, validation errors, and seeded randomness."""

import hashlib

import numpy as np
import pytest

from plrlab.core import (
    AllZeroPrior,
    CandidateMatrix,
    ClassPrior,
    EmptyCandidateRow,
    PlrHyperparams,
    PredictionMatrix,
    PseudoLabelMatrix,
    Rng,
    ShapeMismatch,
    ZeroRowSum,
    clamp_prior,
    _scatter,
    row_normalize,
    xlogx,
)


class TestValidateCandidates:
    """CandidateMatrix is the one place that checks for empty rows."""

    def test_identity_like_rows_pass(self):
        CandidateMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_empty_row_reported_with_index(self):
        with pytest.raises(EmptyCandidateRow) as exc:
            CandidateMatrix(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
        assert exc.value.row == 1

    def test_full_row_passes(self):
        CandidateMatrix(np.array([[1.0, 1.0, 1.0]]))

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ValueError):
            CandidateMatrix(np.array([[0.5, 1.0]]))


class TestPackedIndex:
    def test_built_once_and_read_only(self):
        s = CandidateMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        index = s.packed
        assert s.packed is index
        flat, rows, cols = index
        np.testing.assert_array_equal(flat, [0, 2, 4])
        np.testing.assert_array_equal(rows, [0, 0, 1])
        np.testing.assert_array_equal(cols, flat % 3)
        for arr in index:
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_packed_constructor_scatters_checked_values(self):
        w = PseudoLabelMatrix._from_packed(np.array([0.25, 0.75, 1.0]), np.array([0, 2, 4]),
                                           np.array([0, 0, 1]), (2, 3))
        np.testing.assert_array_equal(w.values, [[0.25, 0.0, 0.75], [0.0, 1.0, 0.0]])
        assert not w.values.flags.writeable

    @pytest.mark.parametrize("values, flat, rows, match", [
        ([0.25, np.nan, 1.0], [0, 2, 4], [0, 0, 1], "finite"),
        ([0.25, 0.75, 1.0 + 5e-10], [0, 2, 4], [0, 0, 1], r"\[0, 1\]"),
        ([0.25, 0.75 + 2e-9, 1.0], [0, 2, 4], [0, 0, 1], "sum to 1"),
        ([0.25, 0.75], [0, 2], [0, 0], "sum to 1"),  # row 1 holds no entry
    ])
    def test_packed_constructor_rejects_what_the_dense_one_does(self, values, flat, rows,
                                                                match):
        values, flat, rows = np.array(values), np.array(flat), np.array(rows)
        with pytest.raises(ValueError, match=match) as dense:
            PseudoLabelMatrix(_scatter(values, flat, (2, 3)))
        with pytest.raises(ValueError, match=match) as packed:
            PseudoLabelMatrix._from_packed(values, flat, rows, (2, 3))
        assert str(packed.value) == str(dense.value)


class TestClampPrior:
    def test_valid_prior_unchanged(self):
        r = clamp_prior(np.array([0.5, 0.5]))
        np.testing.assert_array_equal(r.values, [0.5, 0.5])

    def test_zero_entry_clamped_and_renormalized(self):
        # By hand: [1, 0] -> clamp -> [1, 1e-8] -> divide by (1 + 1e-8).
        r = clamp_prior(np.array([1.0, 0.0]))
        expected = np.array([1.0, 1e-8]) / (1.0 + 1e-8)
        np.testing.assert_allclose(r.values, expected, rtol=1e-12)
        assert r.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroPrior):
            clamp_prior(np.array([0.0, 0.0]))

    def test_scale_invariant(self):
        a = clamp_prior(np.array([3.0, 1.0, 6.0]))
        b = clamp_prior(np.array([30.0, 10.0, 60.0]))
        np.testing.assert_array_equal(a.values, b.values)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            clamp_prior(np.array([0.5, -0.1]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_mass_rejected_before_the_zero_test(self, bad):
        # [inf, 0.5] used to give an all-NaN prior and [nan, 0.5] AllZeroPrior.
        with pytest.raises(ValueError, match="finite"):
            clamp_prior(np.array([bad, 0.5]))

    def test_overflowing_total_scaled_before_the_sum(self):
        # The masses are finite but their total overflows; this used to
        # return the uniform prior, with an overflow warning.
        r = clamp_prior(np.array([1e308, 1e308, 1.0]))
        np.testing.assert_allclose(r.values, [0.5, 0.5, 1e-8], rtol=1e-7)

    @pytest.mark.parametrize("raw", [np.ones((2, 2)), np.array([])], ids=["matrix", "empty"])
    def test_non_vector_rejected(self, raw):
        with pytest.raises(ShapeMismatch, match="prior must be a nonempty vector"):
            clamp_prior(raw)


class TestRowNormalize:
    def test_even_row(self):
        np.testing.assert_array_equal(row_normalize([[2.0, 2.0]]), [[0.5, 0.5]])

    def test_uneven_row(self):
        np.testing.assert_array_equal(row_normalize([[1.0, 3.0]]), [[0.25, 0.75]])

    def test_zero_row_reported_with_index(self):
        with pytest.raises(ZeroRowSum) as exc:
            row_normalize([[1.0, 1.0], [0.0, 0.0]])
        assert exc.value.row == 1

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = row_normalize(rng.uniform(size=(40, 7)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("v", [[[np.nan, 1.0]], [[np.inf, 1.0]], [[1e308, 1e308]],
                                   [[-0.5, 1.0]]], ids=["nan", "inf", "overflow", "negative"])
    def test_nan_negative_or_non_finite_sum_rejected(self, v):
        # A NaN row used to come back all NaN with no warning, an inf entry
        # gave a NaN row and an overflowing row an all-zero one, each with
        # only a RuntimeWarning.
        with pytest.raises(ValueError, match="nonnegative entries and finite row sums"):
            row_normalize(v)

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeMismatch, match="2-d matrix"):
            row_normalize([0.5, 0.5])


class TestMatrixTypes:
    def test_prediction_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            PredictionMatrix(np.array([[0.5, 0.4]]))

    def test_prediction_rejects_negative(self):
        with pytest.raises(ValueError):
            PredictionMatrix(np.array([[1.2, -0.2]]))

    def test_pseudo_label_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            PseudoLabelMatrix(np.array([[0.7, 0.7]]))

    @pytest.mark.parametrize("build", [PredictionMatrix, PseudoLabelMatrix])
    def test_matrices_reject_nan(self, build):
        # A NaN row sum slipped through the old "> tol" row-sum test.
        with pytest.raises(ValueError, match="finite"):
            build(np.array([[0.5, 0.5], [np.nan, 1.0]]))

    @pytest.mark.parametrize("build", [PredictionMatrix, PseudoLabelMatrix])
    def test_matrices_reject_entry_above_one(self, build):
        # The row sums to 1 within tolerance; only the range test catches it.
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            build(np.array([[1.0 + 5e-10, 0.0]]))

    def test_prior_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ClassPrior(np.array([np.nan, 0.5]))

    @pytest.mark.parametrize("values, error, match", [
        pytest.param(np.full((1, 1), 1.0), ShapeMismatch, "nonempty vector", id="matrix"),
        pytest.param(np.array([1.0 - 1e-9, 1e-9]), ValueError, "at least 1e-8",
                     id="entry-below-floor"),
    ])
    def test_prior_rejects_a_non_vector_or_an_entry_below_the_floor(self, values, error, match):
        with pytest.raises(error, match=match):
            ClassPrior(values)

    def test_arrays_frozen_after_construction(self):
        f = PredictionMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            f.values[0, 0] = 0.9

    def test_shapes_exposed(self):
        s = CandidateMatrix(np.ones((3, 4)))
        assert (s.n_samples, s.n_classes) == (3, 4)

    def test_vector_input_rejected(self):
        with pytest.raises(ShapeMismatch):
            PredictionMatrix(np.array([0.5, 0.5]))

    def test_hyperparams_validate(self):
        with pytest.raises(ValueError):
            PlrHyperparams(lam=0.0)
        with pytest.raises(ValueError):
            PlrHyperparams(lam=1.0, m=-0.5)
        assert PlrHyperparams(lam=1.0, m=0.0).m == 0.0

    @pytest.mark.parametrize("kwargs", [dict(lam=np.inf), dict(lam=np.nan),
                                        dict(m=np.inf), dict(m=np.nan)])
    def test_hyperparams_reject_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            PlrHyperparams(**kwargs)


class TestRng:
    def test_golden_sequence(self):
        # Frozen digest of the first 1000 uniforms: any change to the
        # underlying stream across runs or platforms breaks this.
        draws = Rng(20240901).uniform(size=1000)
        digest = hashlib.sha256(draws.tobytes()).hexdigest()
        assert digest == "9159b103bf7a825c43994fde82d9f4a8a360f59ccd617cfe92e85cffa10d40a0"
        np.testing.assert_allclose(
            draws[:3],
            [0.5498554142103897, 0.6003456565153914, 0.8162563703505363],
            rtol=0, atol=0,
        )

    def test_same_seed_same_stream(self):
        a = Rng(1234).normal(size=500)
        b = Rng(1234).normal(size=500)
        np.testing.assert_array_equal(a, b)

    def test_children_are_stable_and_distinct(self):
        a = Rng(9).child(7).uniform(size=4)
        b = Rng(9).child(7).uniform(size=4)
        c = Rng(9).child(8).uniform(size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_independent_of_parent_draws(self):
        parent = Rng(5)
        parent.uniform(size=100)
        np.testing.assert_array_equal(parent.child(0).uniform(size=8),
                                      Rng(5).child(0).uniform(size=8))

    @pytest.mark.parametrize("seed, match", [
        pytest.param(-1, "seed must be nonnegative, got -1", id="negative"),
        pytest.param(1.5, "seed takes integers only, got 1.5", id="float"),
        pytest.param(True, "seed takes integers only, got True", id="bool"),
    ])
    def test_bad_seed_names_itself(self, seed, match):
        # A negative seed used to fail in numpy with a message naming no
        # setting, and 1.5 silently seeded as 1.
        with pytest.raises(ValueError, match=match):
            Rng(seed)

    def test_numpy_integer_seed_keeps_its_stream(self):
        np.testing.assert_array_equal(Rng(np.int64(20240901)).uniform(size=8),
                                      Rng(20240901).uniform(size=8))


class TestXlogx:
    def test_zero_convention(self):
        assert xlogx(np.array([0.0]))[0] == 0.0

    def test_matches_direct_formula_on_positive(self):
        v = np.array([0.1, 0.5, 1.0])
        np.testing.assert_allclose(xlogx(v), v * np.log(v))


def test_pseudo_labels_built_by_operations_revalidate():
    # Pseudo-labels produced by row-normalizing masked nonnegatives always
    # reconstruct cleanly: construction establishes the invariants.
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, c = rng.integers(1, 12), rng.integers(2, 8)
        bits = (rng.uniform(size=(n, c)) < 0.5).astype(float)
        bits[np.arange(n), rng.integers(0, c, n)] = 1.0
        masked = bits * rng.uniform(0.01, 1.0, size=(n, c))
        w = PseudoLabelMatrix(row_normalize(masked))
        PseudoLabelMatrix(w.values)
        assert not w.values[bits == 0.0].any()
