"""The benchmark's reference kernels against the library on tiny instances."""

import numpy as np
import pytest

import checks
from plrlab.core import CandidateMatrix, PlrHyperparams, PredictionMatrix, Rng, clamp_prior
from plrlab.sinkhorn import SinkhornConfig, solar_update
from plrlab.solver import plr_update, proden_update
from workloads import kernel_instance, labelled_instance


def _tiny():
    f = PredictionMatrix(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
    s = CandidateMatrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    r = clamp_prior(np.array([0.6, 0.3, 0.1]))
    return f, s, r


def test_reference_plr_matches_plr_update_and_the_closed_form():
    f, s, r = _tiny()
    h = PlrHyperparams(lam=3.0, m=2.0)
    ref = checks.ref_plr(f.values, s.bits, r.values, h.lam, h.m)
    kernel = s.bits * f.values ** 3 * r.values ** -2.0
    assert np.allclose(ref, kernel / kernel.sum(axis=1, keepdims=True), rtol=0, atol=1e-15)
    w = plr_update(f, s, r, h)
    assert checks.check_weights(w.values, s.bits, ref) == []


def test_reference_proden_matches_proden_update():
    f, s, _ = _tiny()
    w = proden_update(f, s)
    assert checks.check_weights(w.values, s.bits, checks.ref_proden(f.values, s.bits)) == []


def test_reference_sinkhorn_matches_solar_update_on_a_kernel_instance():
    x = kernel_instance(32, 6, Rng(3))
    cfg = SinkhornConfig()
    expected = checks.ref_sinkhorn(x.f.values, x.s.bits, x.r.values, cfg.lam,
                                   cfg.max_iters, cfg.tol)
    result = solar_update(x.f, x.s, x.r, cfg)
    assert checks.check_sinkhorn(result, x.s.bits, x.r, cfg, expected) == []


def test_check_weights_reports_each_kind_of_defect():
    f, s, r = _tiny()
    good = checks.ref_plr(f.values, s.bits, r.values, 3.0, 2.0)
    off = good.copy()
    off[0, 2] = 1e-3
    assert "mass off the candidate set" in checks.check_weights(off, s.bits, good)
    assert "rows do not sum to one" in checks.check_weights(off, s.bits, good)
    assert checks.check_weights(np.full_like(good, np.nan), s.bits, good) == ["non-finite weights"]
    shifted = good.copy()
    shifted[0, :2] = shifted[0, 1::-1]
    assert any("reference" in p for p in checks.check_weights(shifted, s.bits, good))


def test_check_prior_flags_mass_and_floor():
    assert checks.check_prior(np.array([0.5, 0.5])) == []
    assert checks.check_prior(np.array([0.6, 0.5])) == ["prior does not sum to one"]
    assert checks.check_prior(np.array([1.0, 0.0])) == ["prior entry below the clamp floor"]


@pytest.mark.parametrize("make", [kernel_instance, labelled_instance])
def test_instances_are_seeded_long_tailed_and_about_six_candidates(make):
    a = make(512, 100, Rng(5))
    b = make(512, 100, Rng(5))
    assert np.array_equal(a.f.values, b.f.values) and np.array_equal(a.s.bits, b.s.bits)
    assert 5.0 < a.s.bits.sum(axis=1).mean() < 7.0
    assert np.all(a.s.bits[np.arange(512), a.labels] == 1.0)
    assert np.mean(a.labels < 10) > np.mean(a.labels >= 90)
    assert a.r.values[0] / a.r.values[-1] > 90.0


def test_timed_instances_have_uninformative_predictions():
    # As in report.bench_pseudo: row-normalized uniform(0.05, 1) draws.
    f = kernel_instance(256, 10, Rng(2)).f.values
    ratio = f.max(axis=1) / f.min(axis=1)
    assert np.all(ratio <= 20.0 + 1e-9)
