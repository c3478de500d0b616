"""Decay-law fitting: OLS estimators recover synthetic laws exactly,
model selection separates the two laws, and fitted exponents track the
closed-form predictions of the coefficient module."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmlab.params import BathParams, SystemParams, decoherence_time
from qbmlab.coefficients import alpha_theory, exponent_trace
from qbmlab.evolution import CatStateSpec, evolve_dephasing, init_cat_state
from qbmlab.analysis import (CoherenceTrace, fit_exponential, fit_power_law,
                             model_select)
from references import dephasing_factor, fringe_visibility

SYS = SystemParams(mass=1.0, frequency=0.0, hbar=1.0)
BATH = BathParams(gamma=0.05, cutoff=200.0, kT=0.0)


def _trace(times, values, kind="offdiag_factor"):
    return CoherenceTrace(times=np.asarray(times, dtype=float),
                          values=np.asarray(values, dtype=float),
                          measure_kind=kind)


# ------------------------------------------------------ estimator exactness

def test_power_law_fit_recovers_synthetic_exponent():
    t = np.geomspace(1.0, 100.0, 40)
    fit = fit_power_law(_trace(t, t ** -0.3))
    assert fit.alpha_fit == pytest.approx(0.3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 40


def test_exponential_fit_recovers_synthetic_rate():
    t = np.linspace(0.01, 3.0, 50)
    fit = fit_exponential(_trace(t, np.exp(-2.0 * t)))
    assert fit.rate == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_power_law_alpha_invariant_under_amplitude_rescale():
    # the exponent lives in the slope; amplitude only moves the intercept
    t = np.geomspace(2.0, 50.0, 24)
    base = fit_power_law(_trace(t, t ** -0.7))
    scaled = fit_power_law(_trace(t, 0.37 * t ** -0.7))
    assert scaled.alpha_fit == pytest.approx(base.alpha_fit, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + np.log(0.37),
                                             abs=1e-12)


def test_fit_respects_window_bounds():
    t = np.geomspace(1.0, 1000.0, 60)
    # slope -0.2 for t < 30, slope -0.9 beyond: windowed fits see one each
    v = np.where(t < 30.0, t ** -0.2, 30.0 ** 0.7 * t ** -0.9)
    lo = fit_power_law(_trace(t, v), window=(1.0, 29.0))
    hi = fit_power_law(_trace(t, v), window=(31.0, 1000.0))
    assert lo.alpha_fit == pytest.approx(0.2, abs=1e-10)
    assert hi.alpha_fit == pytest.approx(0.9, abs=1e-10)
    assert lo.window == (1.0, 29.0)
    assert lo.n_points + hi.n_points <= 60


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.05, max_value=3.0),
       scale=st.floats(min_value=0.05, max_value=1.0))
def test_power_law_fit_exact_for_any_exponent(alpha, scale):
    t = np.geomspace(1.0, 80.0, 32)
    fit = fit_power_law(_trace(t, scale * t ** -alpha))
    assert fit.alpha_fit == pytest.approx(alpha, rel=1e-9, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(min_value=0.05, max_value=4.0))
def test_exponential_fit_exact_for_any_rate(rate):
    t = np.linspace(0.1, 2.0, 25)
    fit = fit_exponential(_trace(t, 0.9 * np.exp(-rate * t)))
    assert fit.rate == pytest.approx(rate, rel=1e-9, abs=1e-10)


# --------------------------------------------------------- model selection

def test_model_select_prefers_power_law_on_power_law_data():
    t = np.geomspace(1.0, 1000.0, 48)
    sel = model_select(_trace(t, t ** -0.5))
    assert sel.model == "power_law"
    assert sel.delta_r_squared >= 0.01
    assert sel.power_law.r_squared == pytest.approx(1.0, abs=1e-12)


def test_model_select_prefers_exponential_on_exponential_data():
    t = np.linspace(0.05, 5.0, 48)
    sel = model_select(_trace(t, np.exp(-1.3 * t)))
    assert sel.model == "exponential"
    assert sel.delta_r_squared <= -0.01


def test_model_select_undetermined_when_fits_tie():
    # a constant trace is a perfect fit for both lines (slope zero)
    t = np.linspace(1.0, 2.0, 12)
    sel = model_select(_trace(t, np.full(12, 0.5)))
    assert sel.model == "undetermined"
    assert abs(sel.delta_r_squared) < 0.01


# ------------------------------------------------------------- validation

def test_trace_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="matching 1-D"):
        _trace([1.0, 2.0], [0.5])


def test_trace_rejects_nonpositive_times():
    with pytest.raises(ValueError, match="times must be positive"):
        _trace([0.0, 1.0], [0.5, 0.4])


def test_trace_rejects_unsorted_times():
    with pytest.raises(ValueError, match="strictly increasing"):
        _trace([1.0, 1.0, 2.0], [0.5, 0.4, 0.3])


def test_trace_rejects_nonpositive_values():
    with pytest.raises(ValueError, match="positive"):
        _trace([1.0, 2.0], [0.5, 0.0])


def test_trace_rejects_values_above_one():
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        _trace([1.0, 2.0], [0.5, 1.5])


def test_trace_rejects_unknown_kind():
    with pytest.raises(ValueError, match="offdiag_factor"):
        _trace([1.0, 2.0], [0.5, 0.4], kind="wigner_negativity")


def test_fit_window_needs_enough_points():
    t = np.geomspace(1.0, 100.0, 10)
    with pytest.raises(ValueError, match="holds 3 points"):
        fit_power_law(_trace(t, t ** -0.1), window=(1.0, 3.0))


def test_fit_rejects_malformed_window():
    t = np.geomspace(1.0, 100.0, 10)
    with pytest.raises(ValueError, match="malformed window"):
        fit_power_law(_trace(t, t ** -0.1), window=(5.0, 5.0))


# ------------------------------------------- physics integration (closed)

def _factor_trace(sys, bath, separation, t_lo, t_hi, n=64):
    t = np.geomspace(t_lo, t_hi, n)
    theta = exponent_trace(sys, bath, t).theta
    return _trace(t, np.exp(-separation ** 2 * theta / sys.hbar))


def test_fitted_alpha_approaches_prediction_as_window_moves_late():
    d = 2.0
    target = alpha_theory(SYS, BATH, d)
    early = fit_power_law(_factor_trace(SYS, BATH, d, 0.5, 20.0))
    late = fit_power_law(_factor_trace(SYS, BATH, d, 50.0, 2000.0))
    err_early = abs(early.alpha_fit - target) / target
    err_late = abs(late.alpha_fit - target) / target
    assert err_late < err_early
    assert err_late < 0.01
    assert late.r_squared > 0.999


def test_fitted_alpha_scales_with_separation_squared():
    alphas = {}
    for d in (1.0, 2.0, 4.0):
        alphas[d] = fit_power_law(_factor_trace(SYS, BATH, d, 50.0,
                                                2000.0)).alpha_fit
    assert alphas[2.0] / alphas[1.0] == pytest.approx(4.0, rel=0.02)
    assert alphas[4.0] / alphas[1.0] == pytest.approx(16.0, rel=0.02)


def test_fitted_rate_matches_decoherence_time_when_hot():
    bath = BathParams(gamma=0.1, cutoff=200.0, kT=50.0)
    tau = decoherence_time(SYS, bath, 2.0)
    # start after the bath memory ramp (~1/cutoff) where the diffusion
    # coefficient has reached its plateau; earlier samples bias the rate
    fit = fit_exponential(_factor_trace(SYS, bath, 2.0, 5.0 / bath.cutoff,
                                        3.0 * tau))
    assert fit.rate * tau == pytest.approx(1.0, rel=0.05)


# --------------------------------------------------------------- sampling

def test_fringe_visibility_of_fresh_cat_is_one():
    spec = CatStateSpec(separation=2.0, width=0.5)
    rho = init_cat_state(spec, 161, 8.0)
    assert fringe_visibility(rho, spec) == pytest.approx(1.0, abs=1e-6)


def test_fringe_visibility_tracks_dephasing_factor():
    spec = CatStateSpec(separation=2.0, width=0.5)
    rho = init_cat_state(spec, 161, 8.0)
    rho = evolve_dephasing(rho, SYS, BATH, 40.0)
    want = dephasing_factor(SYS, BATH, spec.separation, 40.0)
    assert fringe_visibility(rho, spec) == pytest.approx(want, rel=1e-9)


def test_fringe_visibility_degenerate_separation():
    spec = CatStateSpec(separation=0.0, width=0.5)
    rho = init_cat_state(spec, 160, 8.0)
    assert fringe_visibility(rho, spec) == 1.0
