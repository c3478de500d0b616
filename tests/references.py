"""References for the tests only.

Time-domain references for the decoherence exponent: the literal
nestings cost O((Lambda t)^2) and are unusable at Lambda*t ~ 1e5, so they
check the production routes at small t.  Full-grid diagnostics and the
pure-dephasing factor, the references of the solver's per-step scalars.
The mirror flow with its parity blocks applied one after the other, the
bit-for-bit reference of the concurrent one; the mirror path's
whole-grid test, its unpack and its four-product probe, the references
of the top-row versions.  The grid's fringe visibility, read from the
complex grid by two matrix-vector products, the reference of the packed
probe on either row count.  A config writer, which no scenario needs.
"""
import json
import math

import numpy as np

from qbmlab import quadrature
from qbmlab.coefficients import decoherence_exponent, diffusion_coefficient
from qbmlab.evolution import (CatStateSpec, DensityGrid, _cat_probe,
                              _dst_matrix, _half_bottom, _mirror_symmetric)
from qbmlab.scenarios import ScenarioConfig
from qbmlab.kernels import noise_kernel_quadrature, noise_kernel_zero_T_closed
from qbmlab.params import BathParams, SystemParams


def _kernel_times_cos(sys: SystemParams, bath: BathParams,
                      abs_tol: float, rel_tol: float):
    """Vectorized s -> nu(s) cos(Omega s); closed kernel at kT = 0,
    per-sample quadrature otherwise."""
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


def exponent_fubini_reference(sys: SystemParams, bath: BathParams,
                              t: float) -> float:
    """Time-domain reference int_0^t (t - s) nu(s) cos(Omega s) ds with
    nu(s) itself quadratured when kT > 0 (two genuinely nested levels).

    The nesting costs O((Lambda t)^2) at kT > 0.
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

    The cost grows like (Lambda t)^2, so keep Lambda*t modest.
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


def dephasing_factor(sys: SystemParams, bath: BathParams, dx: float,
                     t: float) -> float:
    """exp(-dx^2 * Theta(t) / hbar); 1 at t = 0 or dx = 0."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if dx == 0.0 or t == 0.0:
        return 1.0
    theta = decoherence_exponent(sys, bath, t)
    return math.exp(-dx * dx * theta / sys.hbar)


def grid_trace(rho: DensityGrid) -> float:
    return float(np.sum(rho.values.diagonal().real) * rho.dx)


def hermiticity_residual(rho: DensityGrid) -> float:
    """max |rho - rho^H|, with one complex temporary: rho^T is copied,
    then conjugated and subtracted in place."""
    diff = rho.values.T.copy()
    np.conjugate(diff, out=diff)
    np.subtract(rho.values, diff, out=diff)
    return float(np.max(np.abs(diff)))


def purity(rho: DensityGrid) -> float:
    return float(np.sum(np.abs(rho.values) ** 2) * rho.dx * rho.dx)


def serial_half_flow(top: np.ndarray, work: tuple, blocks: tuple) -> None:
    """evolution._half_flow with the even and then the odd block run in
    turn on the calling thread: the same arithmetic in the same order."""
    n = top.shape[1]
    h = n // 2
    m = n - h
    even, odd, even_tmp, odd_tmp = work
    mirror = top[:, ::-1]
    np.add(top[:, :h], mirror[:, :h], out=even[:, :h])
    np.subtract(top[:h, :h], mirror[:h, :h], out=odd)
    if m > h:
        even[:, h] = top[:, h]
    for g, tmp, (b, left, cos, sin) in zip((even, odd), (even_tmp, odd_tmp),
                                           blocks):
        np.matmul(left, g, out=tmp)
        np.matmul(tmp, b, out=g)
        np.multiply(g.T, sin, out=tmp)
        np.multiply(g, cos, out=g)
        np.add(g, tmp, out=g)
        np.matmul(b, g, out=tmp)
        np.matmul(tmp, b.T, out=g)
    np.add(even[:h, :h], odd, out=top[:h, :h])
    np.subtract(even[:h, :h], odd, out=mirror[:h, :h])
    if m > h:
        top[:, h] = even[:, h]
        top[h, :h] = mirror[h, :h] = even[h, :h]


def packable(v: np.ndarray) -> bool:
    """Whether v = J v J = v^H exactly, tested on the whole grid."""
    return _mirror_symmetric(v) and bool(np.array_equal(v, v.conj().T))


def half_grid(top: np.ndarray) -> np.ndarray:
    """The unpacked grid (Q + Q^T)/2 + i (Q - Q^T)/2 of a packed state,
    with Q/2 mirrored to the whole grid first."""
    n, m = top.shape[1], top.shape[0]
    rho = np.empty((n, n), dtype=complex)
    im = rho.imag
    np.multiply(top, 0.5, out=im[:m])
    im[m:] = _half_bottom(im[:m])
    np.add(im, im.T, out=rho.real)
    np.subtract(im, im.T, out=im)
    return rho


def half_visibility(top: np.ndarray, probe) -> float:
    """The packed state's fringe visibility from four products Q w, each
    [top w ; reverse(top[:h] reverse(w))], at _cat_probe's weights:
    |rho(x+, x-)| = sqrt((a^2 + b^2)/2), a = w+.Q w-, b = w-.Q w+."""
    if probe is None:
        return 1.0
    h = top.shape[1] // 2

    def q_times(w):
        return np.concatenate((top @ w, (top[:h] @ w[::-1])[::-1]))

    wp, wm = probe
    vp, vm = q_times(wp), q_times(wm)
    cross = math.hypot(wp @ vm, wm @ vp) * math.sqrt(0.5)
    return 2.0 * cross / ((wp @ vp) + (wm @ vm))


def probe_visibility(v: np.ndarray, probe) -> float:
    """2|rho(x+, x-)| / (rho(x+, x+) + rho(x-, x-)) of the complex grid
    values v at the weights of _cat_probe, or 1 for None."""
    if probe is None:
        return 1.0
    wp, wm = probe
    vp, vm = v @ wp, v @ wm
    return 2.0 * abs(wp @ vm) / ((wp @ vp).real + (wm @ vm).real)


def fringe_visibility(rho: DensityGrid, spec: CatStateSpec) -> float:
    """2|rho(x+, x-)| / (rho(x+,x+) + rho(x-,x-)) at the packet centers
    x+- = grid_center +- separation/2, read from the grid's DST-I
    sine-series interpolant (exact at grid nodes).  Returns 1 for
    separation = 0 (the two sample points coincide)."""
    return probe_visibility(rho.values,
                            _cat_probe(_dst_matrix(rho.n), rho.extent, spec))


def save_config(cfg: ScenarioConfig, path) -> None:
    """Write cfg as the JSON that scenarios.load_config reads."""
    doc = {"scenario": cfg.scenario, "params": cfg.params,
           "output_dir": cfg.output_dir}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
