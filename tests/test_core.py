"""Construction invariants, validation errors, copies, and seeded randomness."""

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
    _whole_numbers,
    row_normalize,
    xlogx,
)
from plrlab.cli import write_model
from plrlab.datagen import PartialDataset
from plrlab.prior import PriorEstimator, init_uniform, prior_error, update_prior
from plrlab.report import logits_adjust_predict
from plrlab.selection import select_reliable
from plrlab.sinkhorn import SinkhornConfig, marginal_errors, solar_update
from plrlab.solver import (
    hessian_min_eigen_lower_bound,
    kkt_residual,
    plr_objective,
    plr_update,
    proden_update,
)
from plrlab.trainer import ModelParams, TrainConfig, init_params, train


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

    @pytest.mark.parametrize("make", [
        pytest.param(lambda m: m.astype(np.float64), id="float"),
        pytest.param(lambda m: m.astype(np.int64), id="int"),
        pytest.param(lambda m: m, id="bool"),
        pytest.param(lambda m: m.astype(int).tolist(), id="list"),
        pytest.param(lambda m: np.asfortranarray(m.astype(np.float64)), id="fortran-float"),
        pytest.param(lambda m: np.repeat(m, 2, axis=1)[:, ::2], id="strided-bool"),
    ])
    def test_bits_are_a_contiguous_read_only_bool_mask(self, make):
        # One byte an entry, whatever the input's dtype or layout.
        mask = np.array([[True, False, True], [False, True, False]])
        bits = CandidateMatrix(make(mask)).bits
        assert bits.dtype == np.bool_ and bits.flags.c_contiguous
        assert not bits.flags.writeable
        assert bits.nbytes == mask.size
        np.testing.assert_array_equal(bits, mask)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    @pytest.mark.parametrize("entries, error, match", [
        pytest.param([1.0, 0.0, 1.0], ShapeMismatch,
                     "^candidate matrix must be a 2-d matrix, got ndim=1$", id="1-d"),
        pytest.param(np.zeros((2, 0)), ShapeMismatch,
                     "^candidate matrix must have at least one column$", id="zero-columns"),
        pytest.param(np.zeros((0, 2)), ShapeMismatch,
                     "^candidate matrix must have at least one row$", id="zero-rows"),
        pytest.param([[1.0, 0.0], [0.0, 0.0]], EmptyCandidateRow,
                     "^sample 1 has an empty candidate set$", id="empty-row"),
    ])
    def test_bad_shapes_raise_for_every_dtype(self, entries, error, match, dtype):
        with pytest.raises(error, match=match):
            CandidateMatrix(np.asarray(entries, dtype=dtype))

    @pytest.mark.parametrize("entry", [2.0, -1.0, np.nan, np.inf])
    def test_entries_other_than_zero_or_one_raise(self, entry):
        with pytest.raises(ValueError, match="^candidate matrix entries must be 0 or 1$"):
            CandidateMatrix(np.array([[1.0, entry]]))

    def test_copies_keep_the_bool_mask(self, duplicate):
        dup = duplicate(CandidateMatrix(np.array([[1.0, 0.0], [1.0, 1.0]])))
        assert dup.bits.dtype == np.bool_ and not dup.bits.flags.writeable
        np.testing.assert_array_equal(dup.bits, [[True, False], [True, True]])


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
        s = CandidateMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        w = PseudoLabelMatrix._from_packed(np.array([0.25, 0.75, 1.0]), s)
        np.testing.assert_array_equal(w.values, [[0.25, 0.0, 0.75], [0.0, 1.0, 0.0]])
        assert not w.values.flags.writeable

    # No input has an empty row: a CandidateMatrix cannot hold one.
    @pytest.mark.parametrize("values, match", [
        pytest.param([0.25, np.nan, 1.0], "finite", id="nan"),
        pytest.param([0.25, 0.75, 1.0 + 5e-10], r"\[0, 1\]", id="above-one"),
        pytest.param([0.25, 0.75 + 2e-9, 1.0], "sum to 1", id="row-sum"),
    ])
    def test_packed_constructor_rejects_what_the_dense_one_does(self, values, match):
        s = CandidateMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        values = np.array(values)
        with pytest.raises(ValueError, match=match) as dense:
            PseudoLabelMatrix(_scatter(values, s.packed[0], (2, 3)))
        with pytest.raises(ValueError, match=match) as packed:
            PseudoLabelMatrix._from_packed(values, s)
        assert str(packed.value) == str(dense.value)


def _one_of_each() -> dict:
    s = CandidateMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    return {
        "candidates": s,  # with its packed index, which the next entry builds
        "pseudo-labels": PseudoLabelMatrix._from_packed(np.array([0.25, 0.75, 1.0]), s),
        "predictions": PredictionMatrix(np.array([[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])),
        "prior": clamp_prior(np.array([3.0, 1.0])),
        "dataset": PartialDataset(np.ones((2, 4)), np.array([0, 1]), s),
        "params": init_params(3, (4,), 2, Rng(0)),
    }


def _arrays(obj) -> dict:
    """Every array an instance holds, by attribute name, through a nested CandidateMatrix."""
    out = {}
    for key, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            out[key] = value
        elif isinstance(value, CandidateMatrix):
            out.update({f"{key}.{k}": v for k, v in _arrays(value).items()})
    return out


class TestCopies:
    """A copy or an unpickled instance is rebuilt through the constructor."""

    @pytest.mark.parametrize("kind", list(_one_of_each()))
    def test_copy_is_built_by_the_constructor(self, kind, duplicate):
        obj = _one_of_each()[kind]
        dup = duplicate(obj)
        assert type(dup) is type(obj)
        arrays = _arrays(obj)
        assert arrays and _arrays(dup).keys() == arrays.keys()
        for key, arr in _arrays(dup).items():
            np.testing.assert_array_equal(arr, arrays[key])
            # ModelParams alone is mutable: SGD steps move its vector in place.
            assert arr.flags.writeable == (kind == "params"), key

    def test_a_copied_candidate_matrix_packs_its_own_bits(self, duplicate):
        s = _one_of_each()["candidates"]
        dup = duplicate(s)
        assert "packed" not in vars(dup)
        for got, want in zip(dup.packed, s.packed, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_copying_non_finite_params_raises_as_the_constructor_does(self, duplicate):
        params = _one_of_each()["params"]
        params.flat[0] = np.nan
        with pytest.raises(ValueError, match="model parameters must be finite"):
            duplicate(params)


@pytest.mark.parametrize("build, inputs, kept", [
    pytest.param(CandidateMatrix, [np.ones((2, 2), bool)], True, id="CandidateMatrix-bool"),
    pytest.param(PredictionMatrix, [np.full((2, 2), 0.5)], True, id="PredictionMatrix"),
    pytest.param(ClassPrior, [np.array([0.25, 0.75])], True, id="ClassPrior"),
    pytest.param(lambda x, y: PartialDataset(x, y, CandidateMatrix(np.ones((2, 2), bool))),
                 [np.zeros((2, 3)), np.array([0, 1])], True, id="PartialDataset"),
    pytest.param(CandidateMatrix, [np.ones((2, 2))], False, id="CandidateMatrix-float"),
    pytest.param(lambda w, b: ModelParams([w], [b]), [np.zeros((3, 2)), np.zeros(2)], False,
                 id="ModelParams"),
])
def test_a_kept_input_is_frozen_and_a_converted_one_stays_writable(build, inputs, kept):
    # No defensive copy: an input that already has the stored dtype and layout
    # is held as it is, so it turns read-only for the caller as well.
    held = list(_arrays(build(*inputs)).values())
    for arr in inputs:
        assert any(np.shares_memory(arr, h) for h in held) == kept
        assert arr.flags.writeable == (not kept)


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


@pytest.mark.parametrize("values, expected", [
    pytest.param([2.0, 0.0], [2, 0], id="whole-floats"),
    pytest.param(np.array([3, 1], dtype=np.uint8), [3, 1], id="unsigned"),
    pytest.param(np.array([], dtype=np.float64), [], id="empty"),
])
def test_whole_numbers_keep_integers_whole_floats_and_empty_inputs(values, expected):
    got = _whole_numbers("labels", values)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, expected)


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


@pytest.mark.parametrize("call", [
    pytest.param(lambda f, s, w, r, path: plr_update(f, s, r, PlrHyperparams()), id="plr_update"),
    pytest.param(lambda f, s, w, r, path: plr_objective(w, f, r, PlrHyperparams()),
                 id="plr_objective"),
    pytest.param(lambda f, s, w, r, path: kkt_residual(w, f, r, PlrHyperparams(), s),
                 id="kkt_residual"),
    pytest.param(lambda f, s, w, r, path: solar_update(f, s, r, SinkhornConfig()),
                 id="solar_update"),
    pytest.param(lambda f, s, w, r, path: marginal_errors(w, r), id="marginal_errors"),
    pytest.param(lambda f, s, w, r, path: select_reliable(w, np.ones(2), r, 0.5),
                 id="select_reliable"),
    pytest.param(lambda f, s, w, r, path: update_prior(PriorEstimator(r), f), id="update_prior"),
    pytest.param(lambda f, s, w, r, path: prior_error(init_uniform(2), r), id="prior_error"),
    # The estimator itself rejects the array, so prior_error never reads it.
    pytest.param(lambda f, s, w, r, path: prior_error(PriorEstimator(r), init_uniform(2).r),
                 id="prior_error-estimator"),
    pytest.param(lambda f, s, w, r, path: logits_adjust_predict(np.zeros((2, 2)), r, 0.5),
                 id="logits_adjust_predict"),
    pytest.param(lambda f, s, w, r, path: write_model(
        init_params(2, (3,), 2, Rng(0)), r, path / "model.txt"), id="write_model"),
])
def test_raw_array_prior_raises_a_typed_error(call, tmp_path):
    # Each used to fail with a bare AttributeError ('numpy.ndarray' object
    # has no attribute 'n_classes'); a prior is validated as a ClassPrior.
    f = PredictionMatrix(np.array([[0.6, 0.4], [0.3, 0.7]]))
    s = CandidateMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="prior must be a ClassPrior, got ndarray"):
        call(f, s, PseudoLabelMatrix(f.values), np.array([0.5, 0.5]), tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda f, s, r: PartialDataset(np.zeros((2, 3)), np.array([0, 1]), s.bits),
                 "candidates", id="PartialDataset"),
    pytest.param(lambda f, s, r: plr_update(f, s.bits, r, PlrHyperparams()), "candidates",
                 id="plr_update"),
    pytest.param(lambda f, s, r: proden_update(f, s.bits), "candidates", id="proden_update"),
    pytest.param(lambda f, s, r: kkt_residual(PseudoLabelMatrix(f.values), f, r,
                                              PlrHyperparams(), s.bits),
                 "candidates", id="kkt_residual"),
    pytest.param(lambda f, s, r: solar_update(f.values, s, r, SinkhornConfig()), "predictions",
                 id="solar_update"),
    pytest.param(lambda f, s, r: plr_update(f.values, s, r, PlrHyperparams()), "predictions",
                 id="plr_update-predictions"),
    pytest.param(lambda f, s, r: plr_objective(PseudoLabelMatrix(f.values), f.values, r,
                                               PlrHyperparams()),
                 "predictions", id="plr_objective-predictions"),
    # Pseudo-labels passed as the raw array of their values.
    pytest.param(lambda f, s, r: select_reliable(f.values, np.ones(2), r, 0.5), "pseudo-labels",
                 id="select_reliable-pseudo-labels"),
    pytest.param(lambda f, s, r: marginal_errors(f.values, r), "pseudo-labels",
                 id="marginal_errors-pseudo-labels"),
    pytest.param(lambda f, s, r: plr_objective(f.values, f, r, PlrHyperparams()),
                 "pseudo-labels", id="plr_objective-pseudo-labels"),
    pytest.param(lambda f, s, r: kkt_residual(f.values, f, r, PlrHyperparams(), s),
                 "pseudo-labels", id="kkt_residual-pseudo-labels"),
    pytest.param(lambda f, s, r: hessian_min_eigen_lower_bound(f.values, PlrHyperparams()),
                 "pseudo-labels", id="hessian_min_eigen_lower_bound-pseudo-labels"),
])
def test_raw_array_candidates_or_predictions_raise_a_typed_error(call, name):
    # Each used to fail with a bare AttributeError ('numpy.ndarray' object has
    # no attribute 'bits', 'values', 'n_samples' or 'n_classes'), a bool mask too.
    f = PredictionMatrix(np.array([[0.6, 0.4], [0.3, 0.7]]))
    s = CandidateMatrix(np.ones((2, 2)))
    kind = {"candidates": "CandidateMatrix", "predictions": "PredictionMatrix",
            "pseudo-labels": "PseudoLabelMatrix"}[name]
    with pytest.raises(ValueError, match=f"^{name} must be a {kind}, got ndarray$"):
        call(f, s, clamp_prior(np.array([1.0, 1.0])))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda f, s, r: plr_update(f, s, r, (3.0, 2.0)),
                 "hyperparameters must be a PlrHyperparams, got tuple", id="plr_update"),
    pytest.param(lambda f, s, r: plr_objective(PseudoLabelMatrix(f.values), f, r, (3.0, 2.0)),
                 "hyperparameters must be a PlrHyperparams, got tuple", id="plr_objective"),
    pytest.param(lambda f, s, r: kkt_residual(PseudoLabelMatrix(f.values), f, r, (3.0, 2.0), s),
                 "hyperparameters must be a PlrHyperparams, got tuple", id="kkt_residual"),
    pytest.param(lambda f, s, r: hessian_min_eigen_lower_bound(PseudoLabelMatrix(f.values),
                                                               (3.0, 2.0)),
                 "hyperparameters must be a PlrHyperparams, got tuple",
                 id="hessian_min_eigen_lower_bound"),
    pytest.param(lambda f, s, r: solar_update(f, s, r, PlrHyperparams()),
                 "config must be a SinkhornConfig, got PlrHyperparams", id="solar_update"),
    pytest.param(lambda f, s, r: update_prior(r, f),
                 "estimator must be a PriorEstimator, got ClassPrior", id="update_prior"),
    pytest.param(lambda f, s, r: prior_error(r, r),
                 "estimator must be a PriorEstimator, got ClassPrior", id="prior_error"),
    pytest.param(lambda f, s, r: train(np.zeros((3, 3)), TrainConfig()),
                 "dataset must be a PartialDataset, got ndarray", id="train-dataset"),
    pytest.param(lambda f, s, r: train(PartialDataset(np.zeros((2, 3)), np.array([0, 1]), s),
                                       TrainConfig(), np.zeros((3, 3))),
                 "test set must be a PartialDataset, got ndarray", id="train-test"),
    pytest.param(lambda f, s, r: train(PartialDataset(np.zeros((2, 3)), np.array([0, 1]), s),
                                       PlrHyperparams()),
                 "config must be a TrainConfig, got PlrHyperparams", id="train-config"),
])
def test_wrong_settings_or_estimator_type_raises_a_typed_error(call, message):
    # Each used to fail with a bare AttributeError ('tuple' object has no
    # attribute 'lam'; no attribute 'max_iters', 'rule', 'r' or 'n_classes').
    f = PredictionMatrix(np.array([[0.6, 0.4], [0.3, 0.7]]))
    s = CandidateMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(f, s, clamp_prior(np.array([1.0, 1.0])))
