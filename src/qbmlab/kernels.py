"""Noise kernel of an Ohmic bath at arbitrary temperature.

The kernel is

    nu(s) = (2/pi) M gamma  integral_0^Lambda  omega coth(beta hbar omega / 2)
                                               cos(omega s) d omega,

with closed forms in the two limits:

* absolute zero (coth -> 1 exactly):
      nu0(s) = (2 M gamma / pi) [Lambda sin(Lambda s)/s + (cos(Lambda s) - 1)/s^2]
* high temperature (coth(x) ~ 1/x, valid for beta hbar Lambda << 1):
      nu_HT(s) = (4 M gamma kT / (pi hbar)) sin(Lambda s)/s

Everything in between is adaptive quadrature with oscillation-aware
panelization (panels no wider than half an oscillation period).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .params import BathParams, SystemParams

__all__ = [
    "KernelTrace", "coth", "noise_kernel_zero_T_closed",
    "noise_kernel_high_T_closed", "noise_kernel_quadrature", "kernel_trace",
]

METHODS = ("closed_zero_T", "closed_high_T", "quadrature")

# Below this value of Lambda*s the closed forms switch to Taylor series:
# (cos(Lambda s) - 1)/s^2 loses all significance to cancellation there.
SERIES_CUT = 1e-4


@dataclass(frozen=True)
class KernelTrace:
    s_grid: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "values", v)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if s.ndim != 1 or v.shape != s.shape:
            raise ValueError("s_grid and values must be matching 1-D arrays")
        if np.any(s < 0):
            raise ValueError("s_grid must be >= 0")
        if len(s) > 1 and not np.all(np.diff(s) > 0):
            raise ValueError("s_grid must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("kernel values must be finite")


def _match_scalar(t, out):
    """out as a float when the sample point t was a scalar."""
    if np.ndim(t) == 0:
        return float(out)
    return out


def coth(x):
    """Elementwise coth with the small-argument Laurent form 1/x + x/3
    (avoids overflow of cosh/sinh ratios near zero)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    out = np.empty_like(x)
    xs = x[small]
    out[small] = np.where(xs != 0, 1.0 / np.where(xs != 0, xs, 1.0) + xs / 3.0,
                          np.inf)
    out[~small] = 1.0 / np.tanh(x[~small])
    return out


def noise_kernel_zero_T_closed(sys: SystemParams, bath: BathParams, s):
    """Zero-temperature closed form; accepts scalar or array s >= 0.

    Uses the Taylor form (M gamma Lambda^2/pi)(1 - (Lambda s)^2/4
    + (Lambda s)^4/72 - ...) for Lambda*s < 1e-4.
    """
    lam = bath.cutoff
    pref = 2.0 * sys.mass * bath.gamma / np.pi
    s_arr = np.abs(np.asarray(s, dtype=float))
    u = lam * s_arr
    out = np.empty_like(s_arr)
    small = u < SERIES_CUT
    us = u[small]
    out[small] = 0.5 * pref * lam**2 * (1.0 - us**2 / 4.0 + us**4 / 72.0)
    sb = s_arr[~small]
    ub = u[~small]
    out[~small] = pref * (lam * np.sin(ub) / sb + (np.cos(ub) - 1.0) / sb**2)
    return _match_scalar(s, out)


def noise_kernel_high_T_closed(sys: SystemParams, bath: BathParams, s):
    """High-temperature closed form (4 M gamma kT / (pi hbar)) sin(Lambda s)/s.

    Validity (beta hbar Lambda << 1) is the caller's responsibility; see
    classify_regime.
    """
    lam = bath.cutoff
    pref = 4.0 * sys.mass * bath.gamma * bath.kT / (np.pi * sys.hbar)
    s_arr = np.abs(np.asarray(s, dtype=float))
    u = lam * s_arr
    out = np.empty_like(s_arr)
    small = u < SERIES_CUT
    out[small] = pref * lam * (1.0 - u[small]**2 / 6.0)
    out[~small] = pref * np.sin(u[~small]) / s_arr[~small]
    return _match_scalar(s, out)


def noise_kernel_quadrature(sys: SystemParams, bath: BathParams, s: float, *,
                            abs_tol: float = quadrature.ABS_TOL,
                            rel_tol: float = quadrature.REL_TOL):
    """Direct panel quadrature of the defining integral at one s.

    Returns (value, error_estimate).  Works at any temperature; at kT = 0
    the coth factor is replaced by exactly 1.
    """
    s = abs(float(s))
    lam = bath.cutoff
    pref = 2.0 * sys.mass * bath.gamma / np.pi
    if bath.kT == 0:
        def f(w):
            return pref * w * np.cos(w * s)
    else:
        half_beta_hbar = 0.5 * sys.hbar / bath.kT

        def f(w):
            return pref * w * coth(half_beta_hbar * w) * np.cos(w * s)
    width = np.pi / (2.0 * s) if s > 0 else None
    return quadrature.integrate(f, 0.0, lam, max_width=width,
                                abs_tol=abs_tol, rel_tol=rel_tol)


def kernel_trace(sys: SystemParams, bath: BathParams, s_grid,
                 method: str = "auto") -> KernelTrace:
    """Sample the kernel on a grid; samples are mutually independent.

    method: auto (dispatch on temperature), closed_zero_T, closed_high_T,
    or quadrature.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if method == "auto":
        method = "closed_zero_T" if bath.kT == 0 else "quadrature"
    if method == "closed_zero_T":
        values = noise_kernel_zero_T_closed(sys, bath, s_grid)
    elif method == "closed_high_T":
        values = noise_kernel_high_T_closed(sys, bath, s_grid)
    elif method == "quadrature":
        values = np.array([noise_kernel_quadrature(sys, bath, s)[0]
                           for s in s_grid])
    else:
        raise ValueError(f"unknown method {method!r}")
    return KernelTrace(s_grid=s_grid, values=values, method=method)
