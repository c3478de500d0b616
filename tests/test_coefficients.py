"""Diffusion coefficient, decoherence exponent, Si and Cin."""
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st

from qbmlab import quadrature
from qbmlab.params import BathParams, SystemParams
from qbmlab.coefficients import (EULER_GAMMA, ExponentTrace, _bose_part,
                                 _bose_weight, _diffusion_kernel,
                                 _exponent_kernel, _frequency_integral,
                                 _matsubara_free, _si_cin, alpha_theory,
                                 decoherence_exponent, diffusion_coefficient,
                                 diffusion_moments_zero_T_free,
                                 diffusion_closed_zero_T,
                                 diffusion_zero_T_free,
                                 exponent_closed_zero_T, exponent_trace)
from references import exponent_fubini_reference, exponent_nested_reference

SYS = SystemParams()                       # M = 1, hbar = 1, free particle
SYS_W = SystemParams(frequency=1e-4)
BATH0 = BathParams(gamma=0.05, cutoff=200.0, kT=0.0)
BATH_HOT = BathParams(gamma=0.1, cutoff=200.0, kT=50.0)


# ------------------------------------------------------------- Si and Cin

def test_si_cin_vs_scipy_both_branches():
    # Si and Cin = gamma_E + ln x - Ci across the split at x = 4; Si is
    # odd and Cin even.  Below x = 1 the scipy form of Cin cancels, so
    # the reference there is the defining integral.
    x = np.array([1e-8, 1e-6, 1e-3, 0.1, 0.5, 0.7, 1.0, 2.0, 3.0, 3.9, 4.0,
                  4.1, 8.0, 10.0, 100.0, 2000.0, 4e5, 1e6])
    si_ref, ci_ref = scipy.special.sici(x)
    cin_ref = EULER_GAMMA + np.log(x) - ci_ref
    for j in np.flatnonzero(x < 1.0):
        cin_ref[j] = scipy.integrate.quad(
            lambda y: 2.0 * np.sin(0.5 * y) ** 2 / y, 0.0, x[j],
            epsabs=0.0, epsrel=1e-13)[0]
    si, cin = _si_cin(x)
    np.testing.assert_allclose(si, si_ref, rtol=1e-13)
    np.testing.assert_allclose(cin, cin_ref, rtol=1e-13)
    si_neg, cin_neg = _si_cin(-x)
    assert np.array_equal(si_neg, -si) and np.array_equal(cin_neg, cin)
    assert np.array_equal(_si_cin(np.zeros(2))[0], np.zeros(2))


# --------------------------------------------------- diffusion coefficient

def test_diffusion_zero_time():
    assert diffusion_coefficient(SYS, BATH0, 0.0) == 0.0
    assert diffusion_zero_T_free(SYS, BATH0, 0.0) == 0.0


def test_diffusion_negative_time_rejected():
    with pytest.raises(ValueError):
        diffusion_coefficient(SYS, BATH0, -0.1)


def test_array_times_negative_rejected():
    for route in (diffusion_coefficient, decoherence_exponent):
        with pytest.raises(ValueError):
            route(SYS_W, BATH0, np.array([0.5, -0.1, 1.0]))
        with pytest.raises(ValueError):
            route(SYS_W, BathParams(gamma=0.05, cutoff=200.0, kT=0.3),
                  np.array([0.5, -0.1, 1.0]))


def test_array_times_equal_scalar_calls():
    # one call on an array of times against one call per time, by every
    # route, at kT = 0 and kT > 0 (below and above the Bose cut
    # 40 kT / hbar = Lambda), at W = 0 and W > 0; t = 0 included
    t_grid = np.array([0.0, 0.004, 0.3, 2.0, 45.0])
    for w in (0.0, 0.7):
        sysp = SystemParams(frequency=w)
        for bath in (BATH0, BathParams(gamma=0.05, cutoff=200.0, kT=0.3),
                     BathParams(gamma=0.05, cutoff=20.0, kT=1.0)):
            for method in ("auto", "thermal_split", "quadrature"):
                for route in (diffusion_coefficient, decoherence_exponent):
                    got = route(sysp, bath, t_grid, method=method)
                    assert isinstance(got, np.ndarray)
                    assert got.shape == t_grid.shape
                    for t, g in zip(t_grid, got):
                        one = route(sysp, bath, float(t), method=method)
                        assert isinstance(one, float)
                        assert g == pytest.approx(one, rel=1e-15, abs=0.0), (
                            w, bath.kT, method, route.__name__, t)


def test_thermal_split_batched_matches_per_sample():
    # The Bose term over a whole 64-point grid in one batched quadrature
    # against one call per sample (each a one-interval quadrature)
    grids = (np.linspace(0.025, 187.5, 64), np.geomspace(1e-3, 2e3, 64))
    for w in (1e-4, 0.7, 5.0):
        sysp = SystemParams(frequency=w)
        for kT in (0.1, 0.3, 1.0, 4.0):
            bath = BathParams(gamma=0.05, cutoff=200.0, kT=kT)
            for t_grid in grids:
                theta = exponent_trace(sysp, bath, t_grid).theta
                d = diffusion_coefficient(sysp, bath, t_grid,
                                          method="thermal_split")
                theta_one = [decoherence_exponent(sysp, bath, t)
                             for t in t_grid]
                d_one = [diffusion_coefficient(sysp, bath, t)
                         for t in t_grid]
                np.testing.assert_allclose(theta, theta_one, rtol=1e-14,
                                           atol=0.0)
                np.testing.assert_allclose(d, d_one, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kT", [5.0, 50.0, 200.0])
@pytest.mark.parametrize("w", [0.0, 1e-4, 0.7, 30.0])
def test_bose_term_above_cut_batched_matches_per_sample(monkeypatch, w, kT):
    # Above the Bose cut (40 kT / hbar >= Lambda) every sample is an
    # interval of one batched frequency quadrature with panels no wider
    # than pi/t_i; against one _frequency_integral call per sample.  The
    # panels' Gauss sums round with the number of rows in their matvec,
    # so values agree to a few ulp (at most 4.4e-16 relative here).
    sysp = SystemParams(frequency=w)
    bath = BathParams(gamma=0.1, cutoff=200.0, kT=kT)
    t = np.geomspace(1e-3, 30.0, 40)
    abs_tol, rel_tol = quadrature.ABS_TOL, quadrature.REL_TOL
    batches, singles = [], []
    inner_batch, inner_one = quadrature.integrate_batch, quadrature.integrate

    def counted_batch(f, a, b, **kw):
        batches.append(len(a))
        return inner_batch(f, a, b, **kw)

    def counted_one(*args, **kw):
        singles.append(1)
        return inner_one(*args, **kw)

    for kernel, order, closed in ((_diffusion_kernel, 0,
                                   diffusion_closed_zero_T),
                                  (_exponent_kernel, 1,
                                   exponent_closed_zero_T)):
        c = closed(sysp, bath, t)
        monkeypatch.setattr(quadrature, "integrate_batch", counted_batch)
        monkeypatch.setattr(quadrature, "integrate", counted_one)
        batched = _bose_part(kernel, order, sysp, bath, t, c, abs_tol,
                             rel_tol)
        monkeypatch.undo()
        assert batches == [len(t)] and not singles
        batches.clear()
        weight = _bose_weight(sysp, bath)
        per_sample = [_frequency_integral(kernel, weight, bath.cutoff, sysp,
                                          bath, ti,
                                          max(abs_tol, rel_tol * abs(ci)),
                                          rel_tol)
                      for ti, ci in zip(t, c)]
        np.testing.assert_allclose(batched, per_sample, rtol=1e-14, atol=0.0)


def test_diffusion_zero_T_free_unit_time():
    # (2 * 0.05 / pi) * (1 - cos 200) at t = 1
    expect = (0.1 / np.pi) * (1.0 - np.cos(200.0))
    assert diffusion_zero_T_free(SYS, BATH0, 1.0) == pytest.approx(
        expect, rel=1e-12)


def test_diffusion_closed_vs_quadrature():
    # the kT = 0 closed form at any frequency (above the cutoff too)
    # against the full frequency integral
    for w in [0.0, 1e-4, 0.7, 5.0, 300.0]:
        sysp = SystemParams(frequency=w)
        for t in [1e-3, 0.01, 0.1, 1.0, 7.3]:
            closed = diffusion_coefficient(sysp, BATH0, t)
            quad = diffusion_coefficient(sysp, BATH0, t, method="quadrature")
            assert quad == pytest.approx(closed, rel=1e-6, abs=1e-9), (w, t)
            if w == 0.0:
                assert closed == diffusion_zero_T_free(SYS, BATH0, t)


def test_diffusion_moments_vs_scipy_both_branches():
    # int_0^t D(s) (t - s)^m ds by QUADPACK, across the series/closed-form
    # split at Lambda t = 4; 1 - cos written as 2 sin^2 so that the
    # reference keeps its digits at small Lambda s.
    p = 2.0 * SYS.mass * BATH0.gamma / np.pi
    lam = BATH0.cutoff
    times = np.array([1e-6, 1e-3, 0.0199, 0.0201, 0.1, 2.0])
    moments = diffusion_moments_zero_T_free(SYS, BATH0, times)
    assert moments.shape == (3, len(times))
    for j, t in enumerate(times):
        for m in range(3):
            ref, _ = scipy.integrate.quad(
                lambda s: 2.0 * p * np.sin(0.5 * lam * s) ** 2 / s
                * (t - s) ** m, 0.0, t, limit=400, epsabs=0.0, epsrel=1e-12)
            assert moments[m, j] == pytest.approx(ref, rel=1e-12), (t, m)
    assert np.all(diffusion_moments_zero_T_free(SYS, BATH0, [0.0]) == 0.0)
    # I0 is Theta, on both sides of the split
    np.testing.assert_allclose(moments[0],
                               exponent_closed_zero_T(SYS, BATH0, times),
                               rtol=1e-12)


def test_diffusion_vanishes_at_cutoff_periods():
    # D(2 pi n / Lambda) = 0 exactly at T = 0, frequency 0.
    for n in (1, 2, 5):
        t = 2.0 * np.pi * n / BATH0.cutoff
        assert diffusion_zero_T_free(SYS, BATH0, t) == pytest.approx(
            0.0, abs=1e-12)


def test_diffusion_time_domain_oracle_finite_T():
    # Fully independent two-level scipy quadrature of the time-domain
    # reduction: D(t) = int_0^t nu(s) cos(W s) ds with nu itself computed
    # by QUADPACK.
    def nu(s):
        c = 0.5 * SYS.hbar / BATH_HOT.kT
        pref = 2.0 * SYS.mass * BATH_HOT.gamma / np.pi

        def density(w):
            x = c * w
            if x < 1e-8:
                return pref * (1.0 / c + c * w * w / 3.0)
            return pref * w / np.tanh(x)
        if s == 0:
            val, _ = scipy.integrate.quad(density, 0.0, BATH_HOT.cutoff,
                                          limit=200)
        else:
            val, _ = scipy.integrate.quad(density, 0.0, BATH_HOT.cutoff,
                                          weight="cos", wvar=s, limit=2000,
                                          epsabs=1e-12, epsrel=1e-11)
        return val

    for t in [0.004, 0.02, 0.06]:
        ref, _ = scipy.integrate.quad(
            lambda s: nu(s) * np.cos(SYS_W.frequency * s), 0.0, t,
            limit=500, epsabs=1e-10, epsrel=1e-10)
        val = diffusion_coefficient(SYS_W, BATH_HOT, t)
        assert val == pytest.approx(ref, rel=1e-7, abs=1e-8), f"t={t}"


def test_high_T_plateau_invariant():
    # beta hbar Lambda = 0.05; for t in [20/Lambda, 0.1/frequency] the
    # coefficient sits within 2% of 2 M gamma kT / hbar.
    bath = BathParams(gamma=0.05, cutoff=200.0, kT=4000.0)
    plateau = 2.0 * SYS.mass * bath.gamma * bath.kT / SYS.hbar
    for t in [0.1, 0.5, 2.0]:
        val = diffusion_coefficient(SYS_W, bath, t)
        assert abs(val / plateau - 1.0) <= 0.02, f"t={t}"


# ------------------------------------------------- decoherence exponent

def test_exponent_zero_time():
    assert decoherence_exponent(SYS, BATH0, 0.0) == 0.0
    assert exponent_closed_zero_T(SYS, BATH0, 0.0) == 0.0


def test_exponent_closed_form_value():
    # (2 M gamma / pi)[ln(Lambda t) + gamma_E - Ci(Lambda t)] at t = 10
    t = 10.0
    u = BATH0.cutoff * t
    expect = (0.1 / np.pi) * (np.log(u) + EULER_GAMMA
                              - scipy.special.sici(u)[1])
    assert exponent_closed_zero_T(SYS, BATH0, t) == pytest.approx(
        expect, rel=1e-12)


def test_exponent_series_small_time():
    t = 1e-7  # Lambda t = 2e-5, inside the series branch
    expect = (0.1 / np.pi) * (BATH0.cutoff * t) ** 2 / 4.0
    assert exponent_closed_zero_T(SYS, BATH0, t) == pytest.approx(
        expect, rel=1e-8)


def _cin_sici(x):
    """Cin(|x|) from scipy's Ci, by its series below |x| = 1."""
    x = np.abs(np.asarray(x, dtype=float))
    out = EULER_GAMMA + np.log(np.where(x > 0, x, 1.0)) \
        - scipy.special.sici(x)[1]
    small = x < 1.0
    term, total = np.ones_like(x[small]), np.zeros_like(x[small])
    for k in range(1, 12):
        term = term * (-x[small] ** 2) / ((2 * k - 1) * (2 * k))
        total -= term / (2 * k)
    out[small] = total
    return out


def _theta_sici(sysp, bath, t):
    """Theta at kT = 0, any frequency, from scipy.special.sici."""
    lam, w = bath.cutoff, sysp.frequency

    def b(a):   # int_0^a (1 - cos(s t))/s^2 ds
        return t * scipy.special.sici(a * t)[0] \
            - 2.0 * np.sin(0.5 * a * t) ** 2 / a

    out = (_cin_sici((lam + w) * t) + _cin_sici((lam - w) * t)
           - 2.0 * _cin_sici(w * t)
           + w * (b(lam - w) - b(lam + w) + 2.0 * b(w)))
    return sysp.mass * bath.gamma / np.pi * out


def test_exponent_closed_any_frequency_vs_sici():
    t = np.geomspace(1e-3, 4e5, 61) / BATH0.cutoff
    for w in [1e-4, 0.5, 3.0, 300.0]:
        sysp = SystemParams(frequency=w)
        np.testing.assert_allclose(exponent_closed_zero_T(sysp, BATH0, t),
                                   _theta_sici(sysp, BATH0, t), rtol=1e-12,
                                   err_msg=f"frequency {w}")


def _theta_quadpack(sysp, bath, t):
    """Theta at kT > 0 by QUADPACK: each branch is int h(u) (1 - cos ut)
    / (2 u^2) du over u = w +- W, h = w coth(hbar w / 2 kT); past
    u = 2 pi / t it splits into a smooth part and a weight="cos" part."""
    a = 0.5 * sysp.hbar / bath.kT

    def h(w):
        return 1.0 / a if w == 0.0 else w / np.tanh(a * w)

    total = 0.0
    for shift in (sysp.frequency, -sysp.frequency):
        lo, hi = shift, bath.cutoff + shift
        cut = min(hi, max(2.0 * np.pi / t, 4.0 * abs(shift)))
        total += scipy.integrate.quad(
            lambda u: h(u - shift) * 0.25 * t * t
            * np.sinc(0.5 * u * t / np.pi) ** 2, lo, cut,
            points=[0.0] if lo < 0.0 < cut else None, limit=2000,
            epsabs=0.0, epsrel=1e-12)[0]
        if cut < hi:
            total += scipy.integrate.quad(
                lambda u: h(u - shift) / (2.0 * u * u), cut, hi, limit=200,
                epsabs=0.0, epsrel=1e-12)[0]
            total -= scipy.integrate.quad(
                lambda u: h(u - shift) / (2.0 * u * u), cut, hi,
                weight="cos", wvar=t, limit=2000, epsabs=1e-15,
                epsrel=1e-12)[0]
    return 2.0 * sysp.mass * bath.gamma / np.pi * total


def test_exponent_thermal_split_vs_quadpack():
    # closed form + Bose term against QUADPACK's oscillatory rule, with the
    # Bose cut below (kT 0.1, 1: Matsubara sum, with its Si/Cin head and
    # quadrature tail at W > 0) and above (kT 50: frequency quadrature)
    # Lambda
    for w in [1e-4, 0.7, 5.0]:
        sysp = SystemParams(frequency=w)
        for kT in [0.1, 1.0, 50.0]:
            bath = BathParams(gamma=0.05, cutoff=200.0, kT=kT)
            for t in [0.03, 2.0, 150.0]:
                val = decoherence_exponent(sysp, bath, t)
                ref = _theta_quadpack(sysp, bath, t)
                assert val == pytest.approx(ref, rel=1e-9), (w, kT, t)


def test_matsubara_free_vs_quadpack():
    # The Bose term at W = 0 in closed form, on both sides of its series
    # split at x = pi kT t / hbar = 1: pi (coth x - 1/x) for D against
    # 2 int n_B sin(w t) dw / (kT / hbar), ln(sinh x / x) for Theta against
    # 2 int n_B (1 - cos w t) / w dw, at kT = hbar = 1.  One call per
    # order covers both branches.
    xs = np.array([1e-3, 0.5, 0.999, 1.001, 3.0, 50.0])
    d_val, th_val = _matsubara_free(0, xs), _matsubara_free(1, xs)
    for x, d, th in zip(xs, d_val, th_val):
        t = x / np.pi

        def n_b(w):
            return 1.0 / np.expm1(w)

        d_ref = 2.0 * scipy.integrate.quad(
            lambda w: n_b(w) * np.sin(w * t), 0.0, 40.0, limit=400,
            epsabs=0.0, epsrel=1e-13)[0]
        th_ref = 2.0 * scipy.integrate.quad(
            lambda w: n_b(w) * 2.0 * np.sin(0.5 * w * t) ** 2 / w, 0.0,
            40.0, limit=400, epsabs=0.0, epsrel=1e-13)[0]
        assert d == pytest.approx(d_ref, rel=1e-11), x
        assert th == pytest.approx(th_ref, rel=1e-11), x


def test_diffusion_thermal_split_vs_quadrature():
    # D by thermal_split against the full coth integral, at W = 0 (closed
    # Bose term) and W > 0 (Si head and quadrature tail)
    for w in [0.0, 0.7, 5.0]:
        sysp = SystemParams(frequency=w)
        for kT in [0.1, 1.0]:
            bath = BathParams(gamma=0.05, cutoff=200.0, kT=kT)
            for t in [0.003, 1.0, 150.0]:
                val = diffusion_coefficient(sysp, bath, t)
                ref = diffusion_coefficient(sysp, bath, t,
                                            method="quadrature",
                                            abs_tol=1e-16, rel_tol=1e-11)
                assert val == pytest.approx(ref, rel=1e-9), (w, kT, t)


def test_quadrature_resolves_bose_term_at_low_kT_t():
    # at kT t / hbar = 5e-4 the coth weight bends from 2 kT/hbar to w well
    # inside the first pi/t-wide panel; without a panel break there the
    # quadrature route read D 4.5e-7 and Theta 1.4e-7 (relative) low here,
    # and 6e-6 low at kT = 1e-3, t = 0.5
    for kT, t in [(0.01, 0.05), (1e-3, 0.5)]:
        bath = BathParams(gamma=0.05, cutoff=200.0, kT=kT)
        for route in (diffusion_coefficient, decoherence_exponent):
            quad = route(SYS_W, bath, t, method="quadrature")
            split = route(SYS_W, bath, t, method="thermal_split")
            assert quad == pytest.approx(split, rel=1e-11), (kT, t, route)


def test_thermal_split_cost_flat_in_kT(monkeypatch):
    # The Bose term's quadrature runs over y = kT s / hbar in [0, min(Y, 8)]
    # and converges in one pass, so a trace costs about the same at any kT
    # (a frequency cut at 40 kT / hbar made it grow tenfold over this range).
    # The whole trace is one batched quadrature, whose integrand sees every
    # point.
    points = {}
    calls = []
    batches = []
    inner = quadrature.integrate_batch

    def counted(f, a, b, **kw):
        def g(x, which):
            calls.append(x.size)
            return f(x, which)
        batches.append(len(a))
        return inner(g, a, b, **kw)

    monkeypatch.setattr(quadrature, "integrate_batch", counted)
    t_grid = np.linspace(0.025, 187.5, 64)
    for kT in (0.1, 1.0):
        calls.clear()
        batches.clear()
        exponent_trace(SYS_W, BathParams(gamma=0.02, cutoff=200.0, kT=kT),
                       t_grid)
        points[kT] = sum(calls)
        assert batches == [len(t_grid)], kT
    assert 0 < points[1.0] <= 1.5 * points[0.1]
    assert points[1.0] <= len(t_grid) * 8 * 2 * (16 + 8)


def test_exponent_quadrature_vs_closed_across_five_decades():
    # Agreement <= 1e-6 relative over Lambda t in [1e-2, 1e5].  The small
    # end has Theta ~ 8e-7, so the requested absolute tolerance must sit
    # below the relative target for the comparison to be meaningful.
    for u in np.geomspace(1e-2, 1e5, 9):
        t = u / BATH0.cutoff
        closed = exponent_closed_zero_T(SYS, BATH0, t)
        quad = decoherence_exponent(SYS, BATH0, t, method="quadrature",
                                    abs_tol=1e-16, rel_tol=5e-9)
        assert quad == pytest.approx(closed, rel=1e-6), f"u={u}"


def test_exponent_fubini_reference_agrees():
    # Time-domain (t - s) nu(s) cos(W s) reduction vs the production
    # frequency-domain route, at finite temperature.
    for t in [0.01, 0.05]:
        ref = exponent_fubini_reference(SYS_W, BATH_HOT, t)
        val = decoherence_exponent(SYS_W, BATH_HOT, t)
        assert val == pytest.approx(ref, rel=1e-7, abs=1e-10), f"t={t}"


def test_exponent_nested_reference_agrees():
    # Literal outer integral over diffusion_coefficient samples.
    for t, bath in [(0.05, BATH0), (0.02, BATH_HOT)]:
        ref = exponent_nested_reference(SYS_W, bath, t)
        val = decoherence_exponent(SYS_W, bath, t)
        assert val == pytest.approx(ref, rel=1e-6, abs=1e-10), f"t={t}"


def test_exponent_derivative_consistency():
    # Central difference of Theta at step h = 1e-3 t matches D(t) to 1e-4
    # relative.  h grows with t, so the 3rd-derivative truncation term
    # (~(Lambda t)^2 e-6) caps the usable range at Lambda t ~ 30; beyond
    # that the check tests the difference stencil, not the functions.
    for t in [0.037, 0.11, 0.15]:
        h = 1e-3 * t
        lo = exponent_closed_zero_T(SYS, BATH0, t - h)
        hi = exponent_closed_zero_T(SYS, BATH0, t + h)
        deriv = (hi - lo) / (2.0 * h)
        d = diffusion_zero_T_free(SYS, BATH0, t)
        assert deriv == pytest.approx(d, rel=1e-4), f"t={t}"


def test_exponent_log_slope_approaches_limit():
    # Secant slope over a decade: [Theta(10 t) - Theta(t)] / ln 10
    # -> 2 M gamma / pi within 1% once Lambda t >= 1e3.
    limit = 2.0 * SYS.mass * BATH0.gamma / np.pi
    for u in [1e3, 1e4]:
        t = u / BATH0.cutoff
        slope = (exponent_closed_zero_T(SYS, BATH0, 10.0 * t)
                 - exponent_closed_zero_T(SYS, BATH0, t)) / np.log(10.0)
        assert slope == pytest.approx(limit, rel=0.01), f"u={u}"


def test_exponent_trace_methods_and_dispatch():
    t_grid = np.geomspace(0.1, 50.0, 8)
    auto = exponent_trace(SYS, BATH0, t_grid)
    assert auto.method == "closed_zero_T"
    quad = exponent_trace(SYS, BATH0, t_grid, method="quadrature")
    np.testing.assert_allclose(auto.theta, quad.theta, rtol=1e-6)
    hot = exponent_trace(SYS_W, BATH_HOT, np.linspace(0.01, 0.075, 5))
    assert hot.method == "thermal_split"
    assert np.all(np.diff(hot.theta) > 0)
    hot_quad = exponent_trace(SYS_W, BATH_HOT, hot.t_grid,
                              method="quadrature")
    np.testing.assert_allclose(hot.theta, hot_quad.theta, rtol=1e-7)
    with pytest.raises(ValueError, match="kT = 0"):
        exponent_trace(SYS_W, BATH_HOT, hot.t_grid, method="closed_zero_T")


def test_exponent_trace_validation():
    with pytest.raises(ValueError):
        ExponentTrace(np.array([2.0, 1.0]), np.array([0.1, 0.2]),
                      "closed_zero_T")
    with pytest.raises(ValueError):
        ExponentTrace(np.array([1.0, 2.0]), np.array([0.1, np.inf]),
                      "closed_zero_T")
    with pytest.raises(ValueError):
        ExponentTrace(np.array([1.0]), np.array([0.1]), "simpson")


# ------------------------------------------------------------ alpha_theory

def test_alpha_theory_reference_value():
    assert alpha_theory(SYS, BATH0, 2.0) == pytest.approx(0.4 / np.pi,
                                                          rel=1e-15)


def test_alpha_theory_zero_separation():
    assert alpha_theory(SYS, BATH0, 0.0) == 0.0


@given(dx=st.floats(1e-3, 1e3))
@settings(max_examples=30)
def test_alpha_theory_quadratic_scaling(dx):
    assert alpha_theory(SYS, BATH0, 2.0 * dx) == pytest.approx(
        4.0 * alpha_theory(SYS, BATH0, dx), rel=1e-12)


def test_alpha_matches_exponent_slope():
    # The analytic exponent is the log-log slope of
    # exp(-dx^2 Theta / hbar) at late times.
    dx = 2.0
    t = np.geomspace(50.0, 2000.0, 24)
    theta = exponent_trace(SYS, BATH0, t).theta
    y = -dx * dx * theta / SYS.hbar
    slope = np.polyfit(np.log(t), y, 1)[0]
    assert -slope == pytest.approx(alpha_theory(SYS, BATH0, dx), rel=5e-3)


@given(gamma=st.floats(1e-3, 10.0), c=st.floats(1.5, 5.0),
       u=st.floats(0.1, 1e4))
@settings(max_examples=30, deadline=None)
def test_exponent_linear_in_gamma(gamma, c, u):
    t = u / 200.0
    b1 = BathParams(gamma=gamma, cutoff=200.0)
    b2 = BathParams(gamma=c * gamma, cutoff=200.0)
    e1 = exponent_closed_zero_T(SYS, b1, t)
    e2 = exponent_closed_zero_T(SYS, b2, t)
    assert e2 == pytest.approx(c * e1, rel=1e-10, abs=1e-300)


@given(t1=st.floats(1e-4, 100.0), c=st.floats(1.01, 10.0))
@settings(max_examples=40)
def test_exponent_monotone_zero_T(t1, c):
    assert exponent_closed_zero_T(SYS, BATH0, c * t1) >= \
        exponent_closed_zero_T(SYS, BATH0, t1) - 1e-12
