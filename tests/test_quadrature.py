"""Adaptive panel quadrature vs closed forms and scipy."""
import numpy as np
import pytest
import scipy.integrate

from qbmlab import quadrature
from qbmlab.quadrature import QuadratureError, integrate


def test_polynomial_is_exact():
    # Degree 15 is integrated exactly by both embedded rules.
    value, err = integrate(lambda x: 7.0 * x**6 - x**3 + 2.0, 0.0, 2.0)
    exact = 2.0**7 - 2.0**4 / 4.0 + 4.0
    assert value == pytest.approx(exact, rel=1e-14)
    assert err <= 1e-10


def test_smooth_transcendental():
    value, _ = integrate(np.exp, 0.0, 1.0)
    assert value == pytest.approx(np.e - 1.0, rel=1e-13)


def test_matches_scipy_on_oscillatory_integrand():
    w = 137.0
    f = lambda x: np.cos(w * x) / (1.0 + x * x)
    value, _ = integrate(f, 0.0, 3.0, max_width=np.pi / w)
    ref, ref_err = scipy.integrate.quad(f, 0.0, 3.0, limit=500,
                                        epsabs=1e-13, epsrel=1e-12)
    assert value == pytest.approx(ref, abs=max(1e-11, 10 * ref_err))


def test_highly_oscillatory_with_panel_cap():
    # int_0^1 cos(wx) dx = sin(w)/w; w large enough that an uncapped
    # adaptive pass from one panel would misjudge the scale.
    w = 4.0e4
    value, _ = integrate(lambda x: np.cos(w * x), 0.0, 1.0,
                         max_width=np.pi / w)
    assert value == pytest.approx(np.sin(w) / w, abs=1e-12)


def test_error_estimate_is_honest():
    for f, a, b, exact in [
        (lambda x: np.exp(-x) * np.sin(20 * x), 0.0, 5.0,
         (20.0 - np.exp(-5.0) * (np.sin(100.0) + 20 * np.cos(100.0))) / 401.0),
        (lambda x: 1.0 / (1.0 + 25 * x * x), -1.0, 1.0,
         2.0 * np.arctan(5.0) / 5.0),
    ]:
        value, err = integrate(f, a, b, max_width=0.2)
        assert abs(value - exact) <= max(10 * err, 1e-12)


def test_integrable_peak():
    # Narrow Gaussian spike. Adaptivity refines what the initial panels
    # can see, so the caller caps the panel width near the feature scale
    # (exactly how the kernel/coefficient integrals use max_width).
    s = 1e-3
    f = lambda x: np.exp(-((x - 0.3) / s) ** 2 / 2.0)
    value, _ = integrate(f, 0.0, 1.0, max_width=0.01)
    assert value == pytest.approx(np.sqrt(2 * np.pi) * s, rel=1e-9)


def test_zero_width_interval():
    value, err = integrate(np.exp, 1.0, 1.0)
    assert value == 0.0
    assert err == 0.0


def test_tolerance_scaling():
    f = lambda x: np.sin(3.0 * x) ** 2 / (1.0 + x)
    loose, _ = integrate(f, 0.0, 10.0, rel_tol=1e-4)
    tight, _ = integrate(f, 0.0, 10.0, rel_tol=1e-12)
    assert loose == pytest.approx(tight, rel=1e-4)


def test_budget_exhaustion_raises_with_achieved_error():
    # A non-integrable-looking singular integrand cannot meet 1e-12 with
    # a tiny panel budget; the error must carry the achieved estimate.
    f = lambda x: np.where(x > 0, 1.0 / np.sqrt(np.abs(x) + 1e-300), 0.0)
    with pytest.raises(QuadratureError) as ei:
        integrate(f, 0.0, 1.0, abs_tol=1e-300, rel_tol=1e-15, max_panels=64,
                  max_refine=4)
    assert ei.value.achieved > 0.0


def test_result_independent_of_initial_panelization():
    f = lambda x: np.cos(7.0 * x) * np.exp(-0.3 * x)
    a, b = 0.0, 20.0
    v1, _ = integrate(f, a, b)
    v2, _ = integrate(f, a, b, max_width=0.37)
    v3, _ = integrate(f, a, b, max_width=5.0)
    assert v1 == pytest.approx(v2, rel=1e-10, abs=1e-12)
    assert v1 == pytest.approx(v3, rel=1e-10, abs=1e-12)


def test_gauss_nodes_have_expected_structure():
    assert quadrature._NODES_HI.shape == (16,)
    assert quadrature._NODES_LO.shape == (8,)
    assert np.isclose(np.sum(quadrature._WEIGHTS_HI), 2.0)
    assert np.isclose(np.sum(quadrature._WEIGHTS_LO), 2.0)


# One batched call over intervals of different kinds: exp on [0, 1]
# converges on its first panel; the damped oscillation and the Lorentzian
# need several rounds; exp(5x), whose one panel errs 16 eps times its
# integral of |f| against a tolerance of 13 eps times the value, has no
# panel above both its share and its roundoff floor, so it reaches the
# "split the worst panel" fallback; [2, 2] is empty.
_BATCH_FS = (np.exp, lambda x: np.exp(-x) * np.sin(20.0 * x),
             lambda x: 1.0 / (1.0 + 25.0 * x * x), lambda x: np.exp(5.0 * x),
             np.exp)
_BATCH_A = np.array([0.0, 0.0, -1.0, 0.0, 2.0])
_BATCH_B = np.array([1.0, 5.0, 1.0, 1.0, 2.0])
_BATCH_TOL = np.array([1e-12, 1e-12, 1e-13,
                       13.0 * quadrature._EPS * (np.exp(5.0) - 1.0) / 5.0,
                       1e-12])


def _batch_integrand(x, which):
    out = np.empty_like(x)
    for i, g in enumerate(_BATCH_FS):
        mine = which == i
        out[mine] = g(x[mine])
    return out


def test_batch_reaches_the_split_the_worst_fallback():
    # the precondition of the fallback for interval 3 in its first round
    val, err, resabs = quadrature._panel_sums(
        lambda x, _: _BATCH_FS[3](x), _BATCH_A[3:4], _BATCH_B[3:4],
        np.zeros(1, dtype=int))
    assert err[0] > _BATCH_TOL[3] > 4.0 * quadrature._EPS * resabs[0]
    assert err[0] <= 20.0 * quadrature._EPS * resabs[0]


def test_batch_matches_one_interval_calls():
    values, errors = quadrature.integrate_batch(
        _batch_integrand, _BATCH_A, _BATCH_B, abs_tol=_BATCH_TOL, rel_tol=0.0)
    for i, g in enumerate(_BATCH_FS):
        single, single_err = integrate(g, _BATCH_A[i], _BATCH_B[i],
                                       abs_tol=_BATCH_TOL[i], rel_tol=0.0)
        assert abs(values[i] - single) <= 1e-15 * abs(single), i
        assert errors[i] == pytest.approx(single_err, rel=1e-12), i
        # each interval within its own tolerance
        assert errors[i] <= _BATCH_TOL[i], i
    assert values[4] == 0.0 and errors[4] == 0.0
    exact = [np.e - 1.0,
             (20.0 - np.exp(-5.0) * (np.sin(100.0) + 20 * np.cos(100.0)))
             / 401.0, 2.0 * np.arctan(5.0) / 5.0, (np.exp(5.0) - 1.0) / 5.0]
    for i, ref in enumerate(exact):
        assert abs(values[i] - ref) <= max(10.0 * errors[i], 1e-14), i


def test_batch_max_width_is_per_interval():
    # one panel cap per interval, as in one integrate call each; the empty
    # interval among them keeps its cap from shifting onto the next one
    f = lambda x: np.cos(40.0 * x) * np.exp(-x)
    widths = [np.pi / 40.0, 1e-3, 0.5, np.pi / 400.0]
    a, b = [0.0, 5.0, 0.0, 0.0], [10.0, 5.0, 10.0, 10.0]
    values, errors = quadrature.integrate_batch(
        lambda x, _: f(x), a, b, max_width=widths, abs_tol=1e-13,
        rel_tol=0.0)
    for i, width in enumerate(widths):
        single, single_err = integrate(f, a[i], b[i], max_width=width,
                                       abs_tol=1e-13, rel_tol=0.0)
        assert abs(values[i] - single) <= 1e-15 * abs(single), i
        assert errors[i] == pytest.approx(single_err, rel=1e-12), i


def test_batch_tolerance_is_per_interval():
    # the same integrand at a loose and a tight tolerance in one call
    f = lambda x: np.sin(3.0 * x) ** 2 / (1.0 + x)
    values, errors = quadrature.integrate_batch(
        lambda x, _: f(x), [0.0, 0.0], [10.0, 10.0], abs_tol=[1e-4, 1e-13],
        rel_tol=0.0)
    for i, tol in enumerate((1e-4, 1e-13)):
        single, _ = integrate(f, 0.0, 10.0, abs_tol=tol, rel_tol=0.0)
        assert abs(values[i] - single) <= 1e-15 * abs(single)
        assert errors[i] <= tol
    assert errors[0] > errors[1]


def test_batch_budget_exhaustion_raises():
    # an easy interval beside one that cannot meet its tolerance: the
    # batch raises for the hard one, by panel budget or by rounds
    singular = lambda x: np.where(x > 0, 1.0 / np.sqrt(np.abs(x) + 1e-300),
                                  0.0)

    def f(x, which):
        return np.where(which == 0, np.exp(x), singular(x))

    with pytest.raises(QuadratureError, match="panel budget") as ei:
        quadrature.integrate_batch(f, [0.0, 0.0], [1.0, 1.0],
                                   abs_tol=[1e-10, 1e-300], rel_tol=1e-15,
                                   max_panels=16)
    assert ei.value.achieved > 0.0
    with pytest.raises(QuadratureError, match="rounds exhausted") as ei:
        quadrature.integrate_batch(f, [0.0, 0.0], [1.0, 1.0],
                                   abs_tol=[1e-10, 1e-300], rel_tol=1e-15,
                                   max_refine=4)
    assert ei.value.achieved > 0.0


def test_batch_refines_each_interval_as_alone():
    # Every interval is evaluated at exactly the points of its own
    # one-interval call: its share of the tolerance counts its own panels,
    # not those of the whole batch.
    f = lambda x: np.exp(-x) * np.sin(20.0 * x)
    a, b = np.zeros(3), np.array([5.0, 50.0, 1.0])
    tols = np.array([1e-12, 1e-12, 1e-9])
    seen = []

    def g(x, which):
        seen.append(np.bincount(which, minlength=len(a)))
        return f(x)

    values, _ = quadrature.integrate_batch(g, a, b, abs_tol=tols,
                                           rel_tol=0.0)
    for i in range(len(a)):
        points = []

        def counted(x):
            points.append(x.size)
            return f(x)

        single, _ = integrate(counted, a[i], b[i], abs_tol=tols[i],
                              rel_tol=0.0)
        assert sum(seen)[i] == sum(points), i
        assert abs(values[i] - single) <= 1e-15 * abs(single), i
