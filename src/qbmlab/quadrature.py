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

``integrate_batch`` runs that loop over many intervals at once: every
round evaluates the integrand once over the panels of all unfinished
intervals, and each interval keeps its own tolerance, share rule and
budgets.  ``integrate`` is its one-interval case.
"""
from __future__ import annotations

import numpy as np

__all__ = ["QuadratureError", "integrate", "integrate_batch"]

# Default tolerances: two orders below the tightest acceptance tolerance.
ABS_TOL = 1e-10
REL_TOL = 1e-8

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(8)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(16)
_NODES = np.concatenate([_NODES_HI, _NODES_LO])   # one integrand call
_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """Tolerance not met within the refinement budget.

    Carries the achieved global error estimate in ``achieved`` so callers
    can report how close the attempt came.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


def _panel_sums(f, left, right, ids):
    """Per-panel (GL16 value, damped error estimate, integral of |f|)."""
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = f(x.ravel(), np.repeat(ids, len(_NODES))).reshape(x.shape)
    y_hi = y[:, :len(_NODES_HI)]
    hi = half * (y_hi @ _WEIGHTS_HI)
    resabs = half * (np.abs(y_hi) @ _WEIGHTS_HI)
    lo = half * (y[:, len(_NODES_HI):] @ _WEIGHTS_LO)
    diff = np.abs(hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        damped = np.where(
            resabs > 0.0,
            resabs * np.minimum(1.0, (200.0 * diff / np.maximum(resabs, 1e-300))
                                ** 1.5),
            diff)
    err = np.maximum(damped, 10.0 * _EPS * resabs)
    return hi, err, resabs


def _panel_counts(span, max_width, max_panels):
    """The fewest panels no wider than ``max_width`` for each span > 0."""
    if max_width is None:
        return np.ones(len(span), dtype=np.int64)
    need = np.maximum(np.ceil(span / max_width), 1.0)
    if need.max() > max_panels:
        raise QuadratureError(
            f"initial panelization needs {int(need.max())} panels > cap "
            f"{max_panels}", achieved=np.inf)
    return need.astype(np.int64)


def _refine(f, left, right, ids, abs_tol, rel_tol, max_refine, max_panels):
    """The adaptive loop from the first panels [left, right) of intervals
    ``ids``; returns every interval's (values, error estimates), one per
    entry of the array ``abs_tol``."""
    m = len(abs_tol)
    values, errors = np.zeros(m), np.zeros(m)
    vals, errs, resabs = _panel_sums(f, left, right, ids)

    for _ in range(max_refine):
        # Decisions use bincount's running sums; a finished interval's
        # returned value is its own array sum, as a one-interval call has.
        count = np.bincount(ids, minlength=m)
        total = np.bincount(ids, vals, m)
        err_total = np.bincount(ids, errs, m)
        # Roundoff floor: summing |panel| magnitudes bounds the achievable
        # accuracy; no amount of splitting beats it.
        floor = np.bincount(ids, resabs, m) * (4.0 * _EPS)
        tol = np.maximum(np.maximum(abs_tol, rel_tol * np.abs(total)), floor)
        done = (err_total <= tol) & (count > 0)
        finished = done.nonzero()[0]
        if len(finished):
            for i in finished:
                mine = ids == i
                values[i], errors[i] = vals[mine].sum(), errs[mine].sum()
            if len(finished) == np.count_nonzero(count):
                return values, errors
            live = ~done[ids]
            left, right, ids = left[live], right[live], ids[live]
            vals, errs, resabs = vals[live], errs[live], resabs[live]
            count[done] = 0
        # split every panel holding more than its interval's share of the
        # budget, unless its estimate already sits at its own roundoff floor
        share = 0.5 * tol / np.maximum(count, 1)
        bad = (errs > share[ids]) & (errs > 20.0 * _EPS * resabs)
        blind = np.bincount(ids, bad, m) == 0
        if blind[ids].any():
            # estimates disagree with the sum; split the worst
            worst = np.full(m, -np.inf)
            np.maximum.at(worst, ids, errs)
            bad |= blind[ids] & (errs >= worst[ids])
        over = count + np.bincount(ids, bad, m) > max_panels
        if over.any():
            raise QuadratureError("panel budget exhausted",
                                  achieved=float(err_total[over][0]))
        keep = ~bad
        bl, br, bid = left[bad], right[bad], ids[bad]
        bm = 0.5 * (bl + br)
        new_left = np.concatenate([bl, bm])
        new_right = np.concatenate([bm, br])
        new_ids = np.concatenate([bid, bid])
        new_vals, new_errs, new_resabs = _panel_sums(f, new_left, new_right,
                                                     new_ids)
        left = np.concatenate([left[keep], new_left])
        right = np.concatenate([right[keep], new_right])
        ids = np.concatenate([ids[keep], new_ids])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        resabs = np.concatenate([resabs[keep], new_resabs])

    achieved = np.bincount(ids, errs, m)[ids[0]]
    raise QuadratureError("refinement rounds exhausted",
                          achieved=float(achieved))


def integrate_batch(f, a, b, *, max_width=None,
                    abs_tol=ABS_TOL, rel_tol: float = REL_TOL,
                    max_refine: int = 40, max_panels: int = 1 << 21):
    """Integrate ``f`` over every interval [a_i, b_i] of the 1-D arrays
    ``a`` and ``b``; return the arrays ``(values, error_estimates)``.

    ``f(x, which)`` must evaluate elementwise at the 1-D ndarray ``x``,
    whose element ``x[j]`` lies in interval ``which[j]``.  ``max_width``
    acts on each interval as in :func:`integrate`; it and ``abs_tol`` may
    be one value per interval.  All intervals refine in the same rounds,
    each by its own rule: its tolerance ``max(abs_tol_i, rel_tol
    |value_i|)``, its own share per panel and its own panel budget, so each
    gets the panels of its own :func:`integrate` call, and its value and
    estimate to roundoff: the Gauss sums of a panel round with the number
    of panels they are formed with.
    An interval that meets its tolerance stops refining.  Raises
    :class:`QuadratureError` when any interval exhausts its panel budget or
    the refinement rounds.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    abs_tol = np.zeros(len(a)) + abs_tol
    live = (b > a).nonzero()[0]
    if not len(live):
        return np.zeros(len(a)), np.zeros(len(a))
    lo, hi = a[live], b[live]
    if max_width is not None:
        max_width = (np.zeros(len(a)) + max_width)[live]
    n0 = _panel_counts(hi - lo, max_width, max_panels)
    ends = n0.cumsum()
    ids = live.repeat(n0)
    # np.linspace's own arithmetic: edge k is k * step + a, the last is b
    k = np.arange(ends[-1]) - (ends - n0).repeat(n0)
    step, start = ((hi - lo) / n0).repeat(n0), lo.repeat(n0)
    left = k * step + start
    right = (k + 1) * step + start
    right[ends - 1] = hi
    return _refine(f, left, right, ids, abs_tol, rel_tol, max_refine,
                   max_panels)


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
    round limit is exhausted before the tolerance is met.  The
    one-interval case of :func:`integrate_batch`'s loop.
    """
    if b <= a:
        return 0.0, 0.0
    n0 = int(_panel_counts(np.array([b - a]), max_width, max_panels)[0])
    edges = np.linspace(a, b, n0 + 1)
    inner = [p for p in points if a < p < b]
    if inner:
        edges = np.union1d(edges, inner)
    values, errors = _refine(lambda x, _: f(x), edges[:-1], edges[1:],
                             np.zeros(len(edges) - 1, dtype=np.int64),
                             np.array([abs_tol]), rel_tol, max_refine,
                             max_panels)
    return float(values[0]), float(errors[0])
