"""Coherence traces and decay-law fitting.

Everything here is plain ordinary least squares on transformed
coordinates — the traces the package produces are deterministic, so a
robust estimator would only hide convergence bugs.  A power law is a line
in (ln t, ln C); an exponential is a line in (t, ln C); ``model_select``
just compares the two r^2 values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import CatStateSpec, DensityGrid, _visibility

__all__ = [
    "CoherenceTrace", "PowerLawFit", "ExponentialFit", "ModelSelection",
    "fringe_visibility", "fit_power_law", "fit_exponential", "model_select",
]

MEASURE_KINDS = ("fringe_visibility", "offdiag_factor")
MIN_FIT_POINTS = 8
# r^2 separation below which neither decay law is declared the winner
MODEL_MARGIN = 0.01
# validation slack on the <= 1 bound (interpolated visibilities of a pure
# state can overshoot by roundoff)
UPPER_SLACK = 1e-6


@dataclass(frozen=True)
class CoherenceTrace:
    times: np.ndarray
    values: np.ndarray
    measure_kind: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be matching 1-D arrays")
        if len(t) == 0 or not np.all(t > 0):
            raise ValueError("times must be positive")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(v > 0):
            raise ValueError("coherence values must be positive")
        if np.any(v > 1.0 + UPPER_SLACK):
            raise ValueError(
                f"coherence values must lie in (0, 1]; max is {v.max():g}")
        if self.measure_kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure_kind {self.measure_kind!r}; "
                             f"options {MEASURE_KINDS}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PowerLawFit:
    alpha_fit: float        # decay exponent, positive for decaying traces
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class ExponentialFit:
    rate: float             # decay rate, positive for decaying traces
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class ModelSelection:
    model: str              # power_law | exponential | undetermined
    power_law: PowerLawFit
    exponential: ExponentialFit
    delta_r_squared: float  # r^2(power_law) - r^2(exponential)


def fringe_visibility(rho: DensityGrid, spec: CatStateSpec) -> float:
    """2|rho(x+, x-)| / (rho(x+,x+) + rho(x-,x-)) at the packet centers
    x+- = grid_center +- separation/2, read from the grid's DST-I
    sine-series interpolant (exact at grid nodes).  Returns 1 for
    separation = 0 (the two sample points coincide)."""
    return _visibility(rho.values, rho.extent, spec)


def _window_arrays(trace: CoherenceTrace, window):
    if window is None:
        window = (float(trace.times[0]), float(trace.times[-1]))
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"malformed window {window}; need lo < hi")
    mask = (trace.times >= lo) & (trace.times <= hi)
    n = int(mask.sum())
    if n < MIN_FIT_POINTS:
        raise ValueError(
            f"fit window [{lo:g}, {hi:g}] holds {n} points; "
            f"need >= {MIN_FIT_POINTS}")
    return trace.times[mask], trace.values[mask], (lo, hi), n


def _ols(x: np.ndarray, y: np.ndarray):
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def fit_power_law(trace: CoherenceTrace, window=None) -> PowerLawFit:
    """Least-squares line through (ln t, ln C); alpha_fit = -slope."""
    t, v, win, n = _window_arrays(trace, window)
    slope, intercept, r2 = _ols(np.log(t), np.log(v))
    return PowerLawFit(alpha_fit=-slope, intercept=intercept, r_squared=r2,
                       window=win, n_points=n)


def fit_exponential(trace: CoherenceTrace, window=None) -> ExponentialFit:
    """Least-squares line through (t, ln C); rate = -slope."""
    t, v, win, n = _window_arrays(trace, window)
    slope, intercept, r2 = _ols(t, np.log(v))
    return ExponentialFit(rate=-slope, intercept=intercept, r_squared=r2,
                          window=win, n_points=n)


def model_select(trace: CoherenceTrace, window=None) -> ModelSelection:
    """Fit both laws; pick the higher r^2, or 'undetermined' when they sit
    within MODEL_MARGIN of each other."""
    pl = fit_power_law(trace, window)
    ex = fit_exponential(trace, window)
    delta = pl.r_squared - ex.r_squared
    if abs(delta) < MODEL_MARGIN:
        model = "undetermined"
    elif delta > 0:
        model = "power_law"
    else:
        model = "exponential"
    return ModelSelection(model=model, power_law=pl, exponential=ex,
                          delta_r_squared=delta)
