"""Weak-coupling master-equation coefficients.

The diffusion coefficient is

    D(t) = integral_0^t  nu(s) cos(Omega s) ds                         (*)

and its running integral Theta(t) = integral_0^t D(t') dt' is the
decoherence exponent: off-diagonal elements at separation dx carry the
factor exp(-dx^2 Theta(t) / hbar).

Expanding nu(s) back into its frequency integral and doing the time
integrals analytically (they are elementary; an exact reordering by
Fubini) leaves one integral over the bath frequency w:

    D(t)     = p int_0^Lambda w c(w) (t/2)  [sinc((w+W)t)     + sinc((w-W)t)]     dw
    Theta(t) = p int_0^Lambda w c(w) (t^2/4)[sinc^2((w+W)t/2) + sinc^2((w-W)t/2)] dw

with p = 2 M gamma / pi, W the system frequency, c(w) the thermal
occupation factor coth(hbar w / 2 kT) and sinc(u) = sin(u)/u.  The
``method`` of D and Theta picks one of three routes:

* ``closed_zero_T`` (kT = 0, any W): c = 1 and both integrals are
  elementary in Si and Cin(x) = int_0^x (1 - cos y)/y dy:

      D     = (p/2) [4 cos(W t) sin^2(Lambda t / 2) / t
                     + W (Si((Lambda-W)t) - Si((Lambda+W)t) + 2 Si(W t))]
      Theta = (p/2) [Cin((Lambda+W)t) + Cin((Lambda-W)t) - 2 Cin(W t)
                     + W (B(Lambda-W) - B(Lambda+W) + 2 B(W))]

  with B(a) = int_0^a (1 - cos(s t))/s^2 ds = t Si(a t) - 2 sin^2(a t/2)/a.
  At W = 0 they reduce to p (1 - cos(Lambda t))/t and
  p [ln(Lambda t) + gamma_E - Ci(Lambda t)].
* ``thermal_split`` (kT > 0): coth = 1 + 2 n_B(w), n_B the Bose
  occupation.  The 1 gives the closed form above.  While
  40 kT / hbar < Lambda the Bose term's weight is below e^-40 at the
  cutoff, so the cutoff is dropped from it and its Matsubara sum over
  k hbar / kT is done in closed form: at W = 0 it is
  p ln(sinh(pi kT t/hbar) / (pi kT t/hbar)) in Theta.  A W > 0 adds Si
  and Cin terms and one quadrature over a fixed range, so the cost does
  not grow with kT or t (_bose_part).  Above that kT the Bose term is
  integrated over frequency up to Lambda.
* ``quadrature`` (any kT): the full frequency integral with the coth
  weight.  It shares no closed form with the other routes and is their
  independent cross-check.

``auto`` picks closed_zero_T at kT = 0 and thermal_split above.  The
literal time-domain nestings cost O((Lambda t)^2) and are unusable at
Lambda*t ~ 1e5; they are kept as references for validation at small t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quadrature
from .kernels import coth, noise_kernel_quadrature, noise_kernel_zero_T_closed
from .params import BathParams, SystemParams

__all__ = [
    "EULER_GAMMA", "METHODS", "CoefficientSet", "ExponentTrace",
    "cosine_integral", "diffusion_coefficient", "diffusion_closed_zero_T",
    "diffusion_zero_T_free", "diffusion_moments_zero_T_free",
    "decoherence_exponent", "exponent_closed_zero_T",
    "exponent_fubini_reference", "exponent_nested_reference",
    "exponent_trace", "alpha_theory",
]

EULER_GAMMA = 0.5772156649015329

METHODS = ("closed_zero_T", "thermal_split", "quadrature")

SERIES_CUT = 1e-4                 # Lambda*t below which Taylor forms kick in
_CI_SPLIT = 4.0                   # series below, f sin - g cos above
# The Bose weight 2 w n_B(w) falls as e^(-hbar w / kT): past
# _BOSE_CUT kT / hbar it is below e^-40 ~ 4e-18 of its value at w = 0,
# far under any tolerance the quadrature is asked for.  So while the
# cutoff Lambda lies beyond that, the Bose term is taken without it.
_BOSE_CUT = 40.0

# Nodes for the auxiliary-function route: Ci(x) = f(x) sin x - g(x) cos x
# with f, g Laplace-type integrals evaluated by Gauss-Laguerre.  A plain
# truncated asymptotic series errs ~1e-2 at x = 4; the integral form of the
# same f, g is accurate to ~1e-13 there.
_LAG_NODES, _LAG_WEIGHTS = np.polynomial.laguerre.laggauss(80)


def _series(x):
    """(Si(x), Cin(x)) for 1-D 0 <= x <= 4 from their power series

        Si(x)  = sum_{k>=0} (-1)^k     x^(2k+1) / ((2k+1) (2k+1)!)
        Cin(x) = sum_{k>=1} (-1)^(k+1) x^(2k)   / (2k (2k)!)
    """
    si = x.copy()
    total = np.zeros_like(x)            # -Cin(x)
    even = np.ones_like(x)              # (-1)^k x^(2k) / (2k)!
    odd = x.copy()                      # (-1)^k x^(2k+1) / (2k+1)!
    k = 0
    while True:
        k += 1
        even = even * (-(x * x)) / ((2 * k - 1) * (2 * k))
        odd = odd * (-(x * x)) / ((2 * k) * (2 * k + 1))
        c_cin = even / (2 * k)
        c_si = odd / (2 * k + 1)
        total += c_cin
        si += c_si
        if (np.all(np.abs(c_cin) < 1e-17 * (1.0 + np.abs(total)))
                and np.all(np.abs(c_si) < 1e-17 * (1.0 + np.abs(si)))):
            return si, -total


def _sici_tail(x):
    """(Si(x), Ci(x)) for 1-D x > 4 from the auxiliary functions

        f(x) = int_0^inf e^(-x u) / (1 + u^2) du
        g(x) = int_0^inf u e^(-x u) / (1 + u^2) du,

    Si = pi/2 - f cos x - g sin x and Ci = f sin x - g cos x, with f and g
    done by Gauss-Laguerre after u -> v/x.
    """
    ratio = _LAG_NODES[None, :] / x[:, None]
    denom = 1.0 + ratio * ratio
    f = (_LAG_WEIGHTS[None, :] / denom).sum(axis=1) / x
    g = (_LAG_WEIGHTS[None, :] * _LAG_NODES[None, :] / denom).sum(axis=1) \
        / (x * x)
    sin, cos = np.sin(x), np.cos(x)
    return 0.5 * np.pi - f * cos - g * sin, f * sin - g * cos


def _si_cin(x):
    """Si(x) and Cin(x) = int_0^x (1 - cos y)/y dy for real x of any shape
    (Si is odd, Cin even).  Above |x| = 4, Cin = ln|x| + gamma_E - Ci(|x|);
    below, its own series, where that difference cancels."""
    ax = np.abs(x)
    si, cin = np.empty_like(ax), np.empty_like(ax)
    lo = ax <= _CI_SPLIT
    si[lo], cin[lo] = _series(ax[lo])
    xs = ax[~lo]
    si[~lo], ci = _sici_tail(xs)
    cin[~lo] = np.log(xs) + EULER_GAMMA - ci
    return np.sign(x) * si, cin


def cosine_integral(x):
    """Cosine integral Ci(x) for x > 0; scalar or array.

    gamma_E + ln x - Cin(x) from the series for x <= 4, the oscillatory
    form f(x) sin x - g(x) cos x above (see _sici_tail).
    """
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("cosine integral requires x > 0")
    out = np.empty_like(x)
    lo = x <= _CI_SPLIT
    out[lo] = EULER_GAMMA + np.log(x[lo]) - _series(x[lo])[1]
    out[~lo] = _sici_tail(x[~lo])[1]
    return float(out[0]) if scalar else out


def _match_scalar(t, out):
    """out as a float when the times t were a scalar."""
    if np.isscalar(t) or getattr(t, "ndim", 0) == 0:
        return float(out)
    return out


def _kernel_times_cos(sys: SystemParams, bath: BathParams,
                      abs_tol: float, rel_tol: float):
    """Vectorized s -> nu(s) cos(Omega s); closed kernel at kT = 0,
    per-sample quadrature otherwise.  Reference/validation path."""
    omega0 = sys.frequency
    if bath.kT == 0:
        def f(s):
            return noise_kernel_zero_T_closed(sys, bath, s) * np.cos(omega0 * s)
    else:
        def f(s):
            nu = np.array([noise_kernel_quadrature(sys, bath, si,
                                                   abs_tol=abs_tol,
                                                   rel_tol=rel_tol)[0]
                           for si in np.atleast_1d(s)])
            return nu * np.cos(omega0 * np.atleast_1d(s))
    return f


def _thermal_weight(sys: SystemParams, bath: BathParams):
    """w -> w * coth(hbar w / 2 kT) (the kT = 0 branch is exactly w)."""
    if bath.kT == 0:
        return lambda w: w
    half_beta_hbar = sys.hbar / (2.0 * bath.kT)
    return lambda w: w * coth(half_beta_hbar * w)


def _bose_weight(sys: SystemParams, bath: BathParams):
    """w -> 2 w n_B(w) = 2 w / (e^(hbar w / kT) - 1), which is 2 kT / hbar
    at w = 0; kT > 0."""
    beta_hbar = sys.hbar / bath.kT

    def weight(w):
        x = beta_hbar * w
        return (2.0 / beta_hbar) * np.divide(x, np.expm1(x),
                                             out=np.ones_like(x),
                                             where=x != 0)
    return weight


# Taylor coefficients, in x^2, of r(x) = (sinh x - x)/x^3 (1/(2k+3)!) and
# of c(x) - r(x) with c(x) = (cosh x - 1)/x^2 ((2k+2)/(2k+3)!), k = 0..9:
# the first term left out is below 1e-21 for x < 1.
_SINH_SERIES = tuple(1.0 / math.factorial(2 * k + 3) for k in range(10))
_COTH_SERIES = tuple((2 * k + 2) / math.factorial(2 * k + 3)
                     for k in range(10))
# The Matsubara kernel's exponential part pi^2/sinh^2(pi y) is below
# 1e-20 past y = _MATSUBARA_TAIL.
_MATSUBARA_TAIL = 8.0


def _horner(coefs, u: float) -> float:
    total = 0.0
    for c in reversed(coefs):
        total = total * u + c
    return total


def _matsubara_free(order: int, x: float) -> float:
    """The Bose part at W = 0 in units of p (kT/hbar)^(1 - order), at
    x = pi kT t / hbar > 0: pi (coth x - 1/x) for D (order 0) and
    ln(sinh x / x) for Theta (order 1).

    These are int_0^Y (Y - y)^order h(y) dy, Y = x / pi, of the Matsubara
    kernel h(y) = 1/y^2 - pi^2/sinh^2(pi y): the noise kernel's Bose part,
    p (kT/hbar)^2 h(kT s / hbar), is the sum over k >= 1 of
    int 2 w e^(-k hbar w / kT) cos(w s) dw.  Below x = 1 they cancel and
    come from the series r and c - r.
    """
    if x < 1.0:
        xr = x * x * _horner(_SINH_SERIES, x * x)
        if order == 0:
            return np.pi * x * _horner(_COTH_SERIES, x * x) / (1.0 + xr)
        return math.log1p(xr)
    if order == 0:
        return np.pi * (1.0 / math.tanh(x) - 1.0 / x)
    return x - math.log(2.0 * x) + math.log1p(-math.exp(-2.0 * x))


def _sinc(u):
    return np.sinc(u / np.pi)


def _diffusion_kernel(omega0: float, t: float):
    return lambda w: 0.5 * t * (_sinc((w + omega0) * t)
                                + _sinc((w - omega0) * t))


def _exponent_kernel(omega0: float, t: float):
    half_t = 0.5 * t
    return lambda w: 0.25 * t * t * (_sinc((w + omega0) * half_t) ** 2
                                     + _sinc((w - omega0) * half_t) ** 2)


def _route(bath: BathParams, method: str) -> str:
    if method == "auto":
        return "closed_zero_T" if bath.kT == 0 else "thermal_split"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "closed_zero_T" and bath.kT != 0:
        raise ValueError("closed_zero_T requires kT = 0")
    return method


def _frequency_integral(kernel, weight, upper: float, sys: SystemParams,
                        bath: BathParams, t: float, abs_tol: float,
                        rel_tol: float, points=()) -> float:
    """p int_0^upper weight(w) kernel(w) dw at scalar t > 0, with panel
    breaks at ``points``."""
    pref = 2.0 * sys.mass * bath.gamma / np.pi
    k = kernel(sys.frequency, t)
    value, _ = quadrature.integrate(lambda w: pref * weight(w) * k(w), 0.0,
                                    upper, max_width=np.pi / t,
                                    points=points, abs_tol=abs_tol,
                                    rel_tol=rel_tol)
    return value


def _bose_part(kernel, order: int, sys: SystemParams, bath: BathParams,
               t: float, closed: float, abs_tol: float,
               rel_tol: float) -> float:
    """The thermal_split correction to the closed form ``closed`` at scalar
    t, to the tolerance of the sum; 0 at kT = 0 or t = 0.

    The Bose term p int 2 w n_B(w) kernel(w) dw, with ``order`` 0 for D
    and 1 for Theta.  While 40 kT / hbar < Lambda the cutoff changes it by
    less than e^-40, and in time it is

        p kappa^(1 - order) int_0^Y (Y - y)^order h(y) cos(q y) dy

    with kappa = kT / hbar, Y = kappa t, q = W / kappa and h the Matsubara
    kernel (_matsubara_free).  At q = 0 that is elementary.  Otherwise
    cos(q y) - 1 = -2 sin^2(q y / 2) against the 1/y^2 head of h gives
    Si and Cin, and against the exponential rest pi^2/sinh^2(pi y) goes to
    quadrature over [0, min(Y, 8)].  So the cost does not grow with kT or
    t.  Above that kT, the frequency integral up to Lambda.
    """
    if bath.kT == 0 or t == 0:
        return 0.0
    kappa = bath.kT / sys.hbar
    if _BOSE_CUT * kappa >= bath.cutoff:
        return _frequency_integral(kernel, _bose_weight(sys, bath),
                                   bath.cutoff, sys, bath, t,
                                   max(abs_tol, rel_tol * abs(closed)),
                                   rel_tol)
    pref = 2.0 * sys.mass * bath.gamma / np.pi * kappa ** (1 - order)
    span = kappa * t
    value = _matsubara_free(order, np.pi * span)
    q = sys.frequency / kappa
    if q == 0:
        return pref * value
    # int_0^Y (Y - y)^order (1 - cos(q y)) / y^2 dy
    si, cin = _si_cin(np.array([q * span]))
    head = q * si[0] - 2.0 * math.sin(0.5 * q * span) ** 2 / span
    if order == 1:
        head = span * head - cin[0]
    value = pref * (value - head)

    def rest(y):
        # 2 sin^2(q y/2) pi^2/sinh^2(x), x = pi y, with
        # 1/sinh^2(x) = 4 e^-2x / expm1(-2x)^2, finite for every x > 0
        e = np.expm1(-2.0 * np.pi * y)
        return (2.0 * pref * np.pi ** 2) * (span - y) ** order \
            * np.sin(0.5 * q * y) ** 2 * 4.0 * (e + 1.0) / (e * e)

    tail, _ = quadrature.integrate(
        rest, 0.0, min(span, _MATSUBARA_TAIL),
        max_width=min(1.0, np.pi / q),
        abs_tol=max(abs_tol, rel_tol * abs(closed + value)), rel_tol=rel_tol)
    return value + tail


def _coefficient(closed, kernel, order: int, sys: SystemParams,
                 bath: BathParams, t: float, method: str, abs_tol: float,
                 rel_tol: float) -> float:
    """D (order 0) or Theta (order 1) at scalar t by the chosen route
    (module docstring), from its kT = 0 closed form and its
    frequency-space kernel."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    method = _route(bath, method)
    if t == 0:
        return 0.0
    if method == "quadrature":
        # The coth weight bends from 2 kT/hbar to w over a few kT/hbar, far
        # inside a first panel of width pi/t at small kT t, where the
        # adaptive rule converges without seeing the bend.  A break at
        # _BOSE_CUT kT/hbar, past which the weight is w to e^-40, gives
        # the bend panels of its own scale.
        return _frequency_integral(kernel, _thermal_weight(sys, bath),
                                   bath.cutoff, sys, bath, t, abs_tol,
                                   rel_tol,
                                   points=(_BOSE_CUT * bath.kT / sys.hbar,))
    value = closed(sys, bath, t)
    return value + _bose_part(kernel, order, sys, bath, t, value, abs_tol,
                              rel_tol)


def diffusion_coefficient(sys: SystemParams, bath: BathParams, t: float, *,
                          method: str = "auto",
                          abs_tol: float = quadrature.ABS_TOL,
                          rel_tol: float = quadrature.REL_TOL) -> float:
    """D(t), the running cosine transform of the noise kernel; D(0) = 0.

    method: auto (closed_zero_T at kT = 0, thermal_split above) or one of
    METHODS (module docstring); quadrature forces the full frequency
    integral, for cross-validation.  The tolerances bind the adaptive part.
    """
    return _coefficient(diffusion_closed_zero_T, _diffusion_kernel, 0, sys,
                        bath, t, method, abs_tol, rel_tol)


def diffusion_zero_T_free(sys: SystemParams, bath: BathParams, t):
    """Closed form D(t) = (2 M gamma / pi)(1 - cos(Lambda t))/t at kT = 0 in
    the free-particle limit; scalar or array t >= 0."""
    lam = bath.cutoff
    pref = 2.0 * sys.mass * bath.gamma / np.pi
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    u = lam * t_arr
    out = np.empty_like(t_arr)
    small = u < SERIES_CUT
    # (1 - cos u)/t = (lam^2 t / 2)(1 - u^2/12 + ...)
    out[small] = pref * 0.5 * lam * lam * t_arr[small] \
        * (1.0 - u[small]**2 / 12.0)
    out[~small] = pref * (1.0 - np.cos(u[~small])) / t_arr[~small]
    return _match_scalar(t, out)


def diffusion_closed_zero_T(sys: SystemParams, bath: BathParams, t):
    """D(t) at kT = 0 for any frequency W (module docstring); scalar or
    array t >= 0.  At W = 0 it is diffusion_zero_T_free."""
    w = sys.frequency
    if w == 0:
        return diffusion_zero_T_free(sys, bath, t)
    lam = bath.cutoff
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    si, _ = _si_cin(np.multiply.outer([lam - w, lam + w, w], t_arr))
    edge = np.divide(4.0 * np.cos(w * t_arr) * np.sin(0.5 * lam * t_arr) ** 2,
                     t_arr, out=np.zeros_like(t_arr), where=t_arr > 0)
    out = (sys.mass * bath.gamma / np.pi) * (
        edge + w * (si[0] - si[1] + 2.0 * si[2]))
    return _match_scalar(t, out)


def exponent_closed_zero_T(sys: SystemParams, bath: BathParams, t):
    """Theta(t) at kT = 0 for any frequency W (module docstring); scalar or
    array t >= 0 (t = 0 returns 0).  At W = 0 it is
    (2 M gamma/pi) Cin(Lambda t)."""
    lam, w = bath.cutoff, sys.frequency
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    si, cin = _si_cin(np.multiply.outer([lam + w, lam - w, w], t_arr))
    out = cin[0] + cin[1] - 2.0 * cin[2]
    if w != 0:
        def b(a, si_at):
            # B(a) = int_0^a (1 - cos(s t))/s^2 ds, odd in a, B(0) = 0
            if a == 0:
                return 0.0
            return t_arr * si_at - 2.0 * np.sin(0.5 * a * t_arr) ** 2 / a
        out = out + w * (b(lam - w, si[1]) - b(lam + w, si[0])
                         + 2.0 * b(w, si[2]))
    out = (sys.mass * bath.gamma / np.pi) * out
    return _match_scalar(t, out)


def diffusion_moments_zero_T_free(sys: SystemParams, bath: BathParams, t):
    """Moments I_m(t) = int_0^t D(s) (t - s)^m ds, m = 0, 1, 2, of the kT = 0
    free-particle diffusion coefficient, stacked as a (3, len(t)) array for
    1-D t >= 0.  With p = 2 M gamma / pi, u = Lambda t and
    Cin(u) = ln u + gamma_E - Ci(u):

        I0 = p Cin(u)                                        (= Theta(t))
        I1 = p t   [Cin(u) - 1 + sin(u)/u]                   (= int_0^t Theta)
        I2 = p t^2 [Cin(u) - 3/2 + sin(u)/u + (1 - cos u)/u^2]

    The brackets cancel at small u, so for u <= 4 each comes from its
    series m! sum_k (-1)^(k+1) u^(2k) / (2k (2k + m)!) instead.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or np.any(t < 0):
        raise ValueError("t must be a 1-D array of times >= 0")
    u = bath.cutoff * t
    brackets = np.empty((3, len(u)))

    lo = u <= _CI_SPLIT
    us = u[lo]
    total = np.zeros((3, len(us)))
    term = np.ones_like(us)
    k = 0
    while True:
        k += 1
        # term_k = (-1)^k u^(2k) / (2k)!, as in cosine_integral
        term = term * (-(us * us)) / ((2 * k - 1) * (2 * k))
        c0 = -term / (2 * k)
        c1 = c0 / (2 * k + 1)
        c2 = 2.0 * c1 / (2 * k + 2)
        total += (c0, c1, c2)
        if np.all(np.abs(c0) < 1e-17 * (1.0 + np.abs(total[0]))):
            break
    brackets[:, lo] = total

    ub = u[~lo]
    cin = np.log(ub) + EULER_GAMMA - cosine_integral(ub)
    sinc = np.sin(ub) / ub
    brackets[0, ~lo] = cin
    brackets[1, ~lo] = cin - 1.0 + sinc
    brackets[2, ~lo] = cin - 1.5 + sinc + (1.0 - np.cos(ub)) / (ub * ub)

    pref = 2.0 * sys.mass * bath.gamma / np.pi
    return pref * np.array([np.ones_like(t), t, t * t]) * brackets


def decoherence_exponent(sys: SystemParams, bath: BathParams, t: float, *,
                         method: str = "auto",
                         abs_tol: float = quadrature.ABS_TOL,
                         rel_tol: float = quadrature.REL_TOL) -> float:
    """Theta(t) = int_0^t D dt' at scalar t >= 0.

    method: auto (closed_zero_T at kT = 0, thermal_split above) or one of
    METHODS (module docstring); quadrature forces the full frequency
    integral even where a closed form applies, for cross-validation.  The
    tolerances bind the adaptive part.
    """
    return _coefficient(exponent_closed_zero_T, _exponent_kernel, 1, sys,
                        bath, t, method, abs_tol, rel_tol)


def exponent_fubini_reference(sys: SystemParams, bath: BathParams,
                              t: float) -> float:
    """Time-domain reference int_0^t (t - s) nu(s) cos(Omega s) ds with
    nu(s) itself quadratured when kT > 0 (two genuinely nested levels).

    Validation-only: the nesting costs O((Lambda t)^2) at kT > 0.
    """
    if t == 0:
        return 0.0
    inner = _kernel_times_cos(sys, bath, quadrature.ABS_TOL,
                              quadrature.REL_TOL)

    def f(s):
        return (t - s) * inner(s)

    width = np.pi / (bath.cutoff + sys.frequency)
    value, _ = quadrature.integrate(f, 0.0, t, max_width=width)
    return value


def exponent_nested_reference(sys: SystemParams, bath: BathParams,
                              t: float) -> float:
    """Literal nested evaluation int_0^t D(t') dt' with D itself quadratured.

    Validation-only: cost grows like (Lambda t)^2, so keep Lambda*t modest.
    """
    if t == 0:
        return 0.0

    def f(tp):
        return np.array([diffusion_coefficient(sys, bath, x,
                                               method="quadrature")
                         for x in np.atleast_1d(tp)])

    width = np.pi / (bath.cutoff + sys.frequency)
    value, _ = quadrature.integrate(f, 0.0, t, max_width=width)
    return value


@dataclass(frozen=True)
class ExponentTrace:
    t_grid: np.ndarray
    theta: np.ndarray
    method: str  # one of METHODS

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "theta", th)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if t.ndim != 1 or th.shape != t.shape:
            raise ValueError("t_grid and theta must be matching 1-D arrays")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("t_grid must be strictly increasing")
        if not np.all(np.isfinite(th)):
            raise ValueError("theta values must be finite")


def exponent_trace(sys: SystemParams, bath: BathParams, t_grid,
                   method: str = "auto") -> ExponentTrace:
    """Theta(t) on a grid, with decoherence_exponent's routes: the closed
    form over the whole grid at once, plus the Bose term per sample for
    thermal_split; quadrature per sample."""
    t_grid = np.asarray(t_grid, dtype=float)
    method = _route(bath, method)
    if method == "quadrature":
        theta = np.array([decoherence_exponent(sys, bath, t, method=method)
                          for t in t_grid])
    else:
        theta = exponent_closed_zero_T(sys, bath, t_grid)
        if bath.kT > 0:
            theta = theta + np.array([
                _bose_part(_exponent_kernel, 1, sys, bath, t, closed,
                           quadrature.ABS_TOL, quadrature.REL_TOL)
                for t, closed in zip(t_grid, theta)])
    return ExponentTrace(t_grid=t_grid, theta=theta, method=method)


def alpha_theory(sys: SystemParams, bath: BathParams, dx: float) -> float:
    """Power-law exponent (2/(pi hbar)) M gamma dx^2 for the zero-T decay."""
    if dx < 0:
        raise ValueError(f"dx must be >= 0, got {dx}")
    return 2.0 * sys.mass * bath.gamma * dx * dx / (np.pi * sys.hbar)


def _zero(t):
    return np.zeros_like(np.asarray(t, dtype=float)) \
        if not np.isscalar(t) else 0.0


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluable master-equation coefficients.

    Only the diffusion coefficient has a derived form here; dissipation,
    anomalous diffusion and the frequency shift default to zero (their
    explicit forms are never needed for the dephasing problem), but any
    callable of t may be supplied for experimentation.
    """
    diffusion: Callable = field(default=_zero)
    dissipation: Callable = field(default=_zero)
    anomalous: Callable = field(default=_zero)
    freq_shift: Callable = field(default=_zero)   # delta-Omega(t)^2

    @classmethod
    def for_params(cls, sys: SystemParams, bath: BathParams) -> "CoefficientSet":
        """Diffusion by diffusion_coefficient's auto route (any kT, Omega)."""
        return cls(diffusion=lambda t: diffusion_coefficient(sys, bath, t))

    @classmethod
    def zero_T_free(cls, sys: SystemParams, bath: BathParams) -> "CoefficientSet":
        """Diffusion via the kT = 0 free-particle closed form (fast; exact
        for frequency = 0)."""
        return cls(diffusion=lambda t: diffusion_zero_T_free(sys, bath, t))
