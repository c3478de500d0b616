"""Adaptive panel quadrature for oscillatory integrands.

The integrals in this package share one difficulty: integrands like
``omega * coth(beta*hbar*omega/2) * cos(omega*s)`` oscillate many times
across the integration range (``Lambda*s / 2pi`` periods), so a naive
global rule is hopeless at large ``s``.  The cure is cheap and robust:
slice the range into panels no wider than a prescribed fraction of the
oscillation period *before* applying a fixed Gauss-Legendre rule, then
refine the worst panels until a global error estimate meets tolerance.

Error estimation per panel follows the QUADPACK recipe: the raw
|GL16 - GL8| difference tracks the *low* rule's truncation error and so
wildly overestimates the returned GL16 value's error; it is therefore
damped as ``resabs * min(1, (200 * diff / resabs)**1.5)`` (resabs being
the panel integral of |f|), with a small-multiple-of-epsilon floor since
no splitting can beat summation roundoff.
"""
from __future__ import annotations

import numpy as np

__all__ = ["QuadratureError", "integrate"]

# Default tolerances: two orders below the tightest acceptance tolerance.
ABS_TOL = 1e-10
REL_TOL = 1e-8

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(8)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(16)
_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """Tolerance not met within the refinement budget.

    Carries the achieved global error estimate in ``achieved`` so callers
    can report how close the attempt came.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


def _panel_sums(f, left, right):
    """Per-panel (GL16 value, damped error estimate, integral of |f|)."""
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    x_hi = mid[:, None] + half[:, None] * _NODES_HI[None, :]
    y_hi = f(x_hi.ravel()).reshape(x_hi.shape)
    hi = half * (y_hi @ _WEIGHTS_HI)
    resabs = half * (np.abs(y_hi) @ _WEIGHTS_HI)
    x_lo = mid[:, None] + half[:, None] * _NODES_LO[None, :]
    y_lo = f(x_lo.ravel()).reshape(x_lo.shape)
    lo = half * (y_lo @ _WEIGHTS_LO)
    diff = np.abs(hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        damped = np.where(
            resabs > 0.0,
            resabs * np.minimum(1.0, (200.0 * diff / np.maximum(resabs, 1e-300))
                                ** 1.5),
            diff)
    err = np.maximum(damped, 10.0 * _EPS * resabs)
    return hi, err, resabs


def integrate(f, a: float, b: float, *, max_width: float | None = None,
              points=(), abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL,
              max_refine: int = 40, max_panels: int = 1 << 21):
    """Integrate ``f`` over [a, b]; return ``(value, error_estimate)``.

    ``f`` must accept a 1-D ndarray and evaluate elementwise.
    ``max_width`` caps the initial panel width (pass the oscillation
    half-period, e.g. pi/(2*s) for an integrand containing cos(omega*s)).
    ``points`` inside (a, b) become initial panel edges too: place them
    where f changes on a scale far below ``max_width``.
    Raises :class:`QuadratureError` if the panel budget or refinement
    round limit is exhausted before the tolerance is met.
    """
    if b <= a:
        return 0.0, 0.0
    span = b - a
    if max_width is None or max_width >= span:
        n0 = 1
    else:
        n0 = int(np.ceil(span / max_width))
        if n0 > max_panels:
            raise QuadratureError(
                f"initial panelization needs {n0} panels > cap {max_panels}",
                achieved=np.inf)
    edges = np.linspace(a, b, n0 + 1)
    inner = [p for p in points if a < p < b]
    if inner:
        edges = np.union1d(edges, inner)
    left, right = edges[:-1], edges[1:]
    vals, errs, resabs = _panel_sums(f, left, right)

    for _ in range(max_refine):
        total = float(vals.sum())
        err_total = float(errs.sum())
        # Roundoff floor: summing |panel| magnitudes bounds the achievable
        # accuracy; no amount of splitting beats it.
        floor = 4.0 * _EPS * float(resabs.sum())
        tol = max(abs_tol, rel_tol * abs(total), floor)
        if err_total <= tol:
            return total, err_total
        # split every panel holding more than its share of the budget,
        # unless its estimate already sits at its own roundoff floor
        share = 0.5 * tol / len(vals)
        bad = (errs > share) & (errs > 20.0 * _EPS * resabs)
        if not bad.any():  # estimates disagree with the sum; split the worst
            bad = errs >= errs.max()
        if len(vals) + int(bad.sum()) > max_panels:
            raise QuadratureError("panel budget exhausted", achieved=err_total)
        bl, br = left[bad], right[bad]
        bm = 0.5 * (bl + br)
        new_left = np.concatenate([bl, bm])
        new_right = np.concatenate([bm, br])
        new_vals, new_errs, new_resabs = _panel_sums(f, new_left, new_right)
        left = np.concatenate([left[~bad], new_left])
        right = np.concatenate([right[~bad], new_right])
        vals = np.concatenate([vals[~bad], new_vals])
        errs = np.concatenate([errs[~bad], new_errs])
        resabs = np.concatenate([resabs[~bad], new_resabs])

    raise QuadratureError("refinement rounds exhausted", achieved=float(errs.sum()))
