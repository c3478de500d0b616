"""Noise kernel: closed forms vs quadrature vs scipy oracles."""
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from qbmlab.params import BathParams, SystemParams
from qbmlab.kernels import (KernelTrace, coth, kernel_trace,
                            noise_kernel_high_T_closed,
                            noise_kernel_quadrature,
                            noise_kernel_zero_T_closed)

SYS = SystemParams()
BATH0 = BathParams(gamma=0.05, cutoff=200.0, kT=0.0)


def _oracle(sys, bath, s):
    """Independent integration of the defining integral via QUADPACK,
    using its oscillatory (QAWO) weight for s > 0."""
    pref = 2.0 * sys.mass * bath.gamma / np.pi

    def density(w):
        if bath.kT == 0:
            return pref * w
        c = 0.5 * sys.hbar / bath.kT
        x = c * w
        if x < 1e-8:
            return pref * (1.0 / c + c * w * w / 3.0)  # w*coth(c w) Laurent
        return pref * w / np.tanh(x)

    if s == 0:
        val, _ = scipy.integrate.quad(density, 0.0, bath.cutoff, limit=200)
    else:
        val, _ = scipy.integrate.quad(density, 0.0, bath.cutoff,
                                      weight="cos", wvar=s, limit=2000,
                                      epsabs=1e-12, epsrel=1e-11)
    return val


# ------------------------------------------------------------ coth helper

def test_coth_matches_reciprocal_tanh():
    x = np.geomspace(1e-3, 30.0, 64)
    np.testing.assert_allclose(coth(x), 1.0 / np.tanh(x), rtol=1e-12)


def test_coth_small_argument_laurent():
    x = np.array([1e-6, 1e-5, 5e-5])
    np.testing.assert_allclose(coth(x), 1.0 / x + x / 3.0, rtol=1e-12)
    assert np.isinf(coth(0.0))


def test_coth_large_argument_saturates():
    assert coth(400.0) == pytest.approx(1.0, abs=1e-15)


# -------------------------------------------------------- zero-T closed form

def test_zero_T_value_at_origin():
    # nu0(0) = M gamma Lambda^2 / pi
    expect = SYS.mass * BATH0.gamma * BATH0.cutoff**2 / np.pi
    assert noise_kernel_zero_T_closed(SYS, BATH0, 0.0) == pytest.approx(
        expect, rel=1e-14)


def test_zero_T_series_branch_is_continuous():
    # Values just below and above the series switch agree.  The closed
    # branch's (cos u - 1)/s^2 carries ~eps/u^2 ~ 2e-8 relative roundoff
    # right at the cut, which sets the tolerance here.
    s_cut = 1e-4 / BATH0.cutoff
    lo = noise_kernel_zero_T_closed(SYS, BATH0, s_cut * 0.999)
    hi = noise_kernel_zero_T_closed(SYS, BATH0, s_cut * 1.001)
    assert lo == pytest.approx(hi, rel=5e-8)


def test_zero_T_closed_vs_scipy_oracle():
    for s in [0.0, 1e-4, 1e-3, 0.005, 0.01, 0.05, 0.1, 0.7, 2.0]:
        closed = noise_kernel_zero_T_closed(SYS, BATH0, s)
        ref = _oracle(SYS, BATH0, s)
        assert closed == pytest.approx(ref, rel=1e-9, abs=1e-9), f"s={s}"


def test_zero_T_closed_vs_quadrature_100_points():
    # Unit-level version of the first acceptance comparison: 100 points
    # in a band clear of the kernel's zero crossings.
    s = np.geomspace(0.002, 2.0, 100) / BATH0.cutoff
    closed = noise_kernel_zero_T_closed(SYS, BATH0, s)
    quad = np.array([noise_kernel_quadrature(SYS, BATH0, x)[0] for x in s])
    rel = np.abs(closed - quad) / np.abs(quad)
    assert rel.max() <= 1e-8


def test_zero_T_has_zero_crossing_near_first_node():
    # u sin u + cos u - 1 = 0 at u ~= 2.3311; the kernel must change sign.
    u_star = 2.3311
    s_lo = (u_star - 0.01) / BATH0.cutoff
    s_hi = (u_star + 0.01) / BATH0.cutoff
    assert noise_kernel_zero_T_closed(SYS, BATH0, s_lo) > 0
    assert noise_kernel_zero_T_closed(SYS, BATH0, s_hi) < 0


# ------------------------------------------------------------- high-T form

def test_high_T_closed_vs_quadrature_in_plateau_regime():
    # beta hbar Lambda = 0.05: the coth ~ 1/x replacement is good to
    # ~(beta hbar Lambda)^2/12 ~ 2e-4 relative.
    bath = BathParams(gamma=0.05, cutoff=200.0, kT=4000.0)
    for s in [0.0, 1e-3, 4e-3, 0.01]:
        closed = noise_kernel_high_T_closed(SYS, bath, s)
        quad, _ = noise_kernel_quadrature(SYS, bath, s)
        assert closed == pytest.approx(quad, rel=1e-3), f"s={s}"


def test_high_T_prefactor():
    bath = BathParams(gamma=0.3, cutoff=5.0, kT=10.0)
    # nu_HT(0) = 4 M gamma kT Lambda / (pi hbar)
    expect = 4.0 * SYS.mass * bath.gamma * bath.kT * bath.cutoff / np.pi
    assert noise_kernel_high_T_closed(SYS, bath, 0.0) == pytest.approx(
        expect, rel=1e-12)


# ----------------------------------------------------------- quadrature path

def test_quadrature_finite_T_vs_scipy_oracle():
    bath = BathParams(gamma=0.1, cutoff=200.0, kT=50.0)
    for s in [0.0, 1e-3, 0.01, 0.03, 0.1]:
        val, err = noise_kernel_quadrature(SYS, bath, s)
        ref = _oracle(SYS, bath, s)
        assert val == pytest.approx(ref, rel=1e-8, abs=1e-8), f"s={s}"
        assert err >= 0


def test_quadrature_error_estimate_bounds_truth_at_zero_T():
    for s in [1e-3, 0.05, 0.5]:
        val, err = noise_kernel_quadrature(SYS, BATH0, s)
        truth = noise_kernel_zero_T_closed(SYS, BATH0, s)
        assert abs(val - truth) <= max(10 * err, 1e-10)


# ------------------------------------------------------------- trace + misc

def test_kernel_trace_auto_method():
    s = np.linspace(0.0, 0.1, 5)
    assert kernel_trace(SYS, BATH0, s).method == "closed_zero_T"
    bath = BathParams(gamma=0.1, cutoff=200.0, kT=50.0)
    assert kernel_trace(SYS, bath, s).method == "quadrature"


def test_kernel_trace_validation():
    with pytest.raises(ValueError):
        kernel_trace(SYS, BATH0, np.array([0.2, 0.1]))  # not increasing
    with pytest.raises(ValueError):
        kernel_trace(SYS, BATH0, np.array([-0.1, 0.1]))  # negative
    with pytest.raises(ValueError):
        KernelTrace(np.array([0.1]), np.array([1.0]), "simpson")


@given(s=st.floats(0.0, 5.0))
@settings(max_examples=40)
def test_evenness(s):
    assert noise_kernel_zero_T_closed(SYS, BATH0, -s) == \
        noise_kernel_zero_T_closed(SYS, BATH0, s)


@given(s=st.floats(0.0, 50.0))
@settings(max_examples=60)
def test_zero_T_bounded_by_origin_value(s):
    # |integral of omega cos(omega s)| <= integral of omega
    assert abs(noise_kernel_zero_T_closed(SYS, BATH0, s)) <= \
        noise_kernel_zero_T_closed(SYS, BATH0, 0.0) * (1.0 + 1e-12)


@given(gamma=st.floats(1e-3, 10.0), scale=st.floats(1.5, 4.0),
       s=st.floats(0.0, 2.0))
@settings(max_examples=40)
def test_linearity_in_gamma(gamma, scale, s):
    bath1 = BathParams(gamma=gamma, cutoff=50.0)
    bath2 = BathParams(gamma=scale * gamma, cutoff=50.0)
    v1 = noise_kernel_zero_T_closed(SYS, bath1, s)
    v2 = noise_kernel_zero_T_closed(SYS, bath2, s)
    assert v2 == pytest.approx(scale * v1, rel=1e-10, abs=1e-12)
