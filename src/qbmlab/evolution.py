"""Reduced-density-matrix evolution on an (x, x') grid.

Two evolution paths:

* ``evolve_dephasing`` — the pure-dephasing closed form: every element is
  multiplied by exp(-(x - x')^2 * Theta(t) / hbar), the exact solution when
  only the position-diffusion term acts.  No grid stepping involved.
* ``evolve_full`` — symmetric Strang splitting of the master equation with
  its kinetic, potential and diffusion terms::

      drho/dt = (i hbar / 2M)(d^2/dx^2 - d^2/dx'^2) rho
                - (i M Omega^2 / 2 hbar) (x^2 - x'^2) rho
                - (D(t) / hbar) (x - x')^2 rho

  with the centered second difference and Dirichlet-zero boundaries for
  d^2/dx^2.  Each step is D/2 K D/2, and every substep is exact: the
  potential and diffusion terms act elementwise, and the kinetic term is
  diagonal in the DST-I basis.  The kinetic flow is applied in the
  grid's mirror-parity basis, where it splits into two half-size blocks.
  A run whose state is mirror-symmetric, such as a cat centred on its
  grid, holds only the state's top half: its kinetic flow is four
  (n/2)^3 products, every other substep and diagnostic reads n/2 rows,
  and the full grid is built only for snapshots.  No step allocates a
  full grid.  Individual terms can be toggled off (``TermToggles``) to
  compare limits against closed forms.

A grid-free exact route covers the free particle at kT = 0 with only the
kinetic and diffusion terms acting: ``free_cat_log_rho`` and
``free_cat_log_visibility`` give the cat state's log-density and fringe
visibility in closed form, far below the grid's roundoff floor.

Grids are endpoint-inclusive: n points spanning ``extent`` with spacing
dx = span/(n-1); the trace is the plain Riemann sum of the diagonal.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .params import SystemParams, BathParams
from .coefficients import (CoefficientSet, decoherence_exponent,
                           diffusion_moments_zero_T_free,
                           diffusion_zero_T_free, exponent_trace)

__all__ = [
    "CatStateSpec", "DensityGrid", "EvolveConfig", "TermToggles",
    "EvolutionResult", "init_cat_state", "dephasing_factor",
    "evolve_dephasing", "evolve_full", "free_cat_log_rho",
    "free_cat_log_visibility", "grid_trace", "hermiticity_residual",
    "purity", "min_eigenvalue_estimate", "suggest_timestep",
    "write_snapshot", "read_snapshot", "sample_bilinear",
]

# Grid-resolution contract for initial states: the packet width must span
# at least this many grid points, and the extent must clear the packets'
# tails by this many widths (keeps Dirichlet boundary amplitudes < 1e-10).
MIN_POINTS_PER_WIDTH = 8.0
TAIL_WIDTHS = 12.0
MIN_GRID_POINTS = 64

BOUNDARIES = ("dirichlet_zero",)

# suggest_timestep's accuracy rule.  The grid is checked against the exact
# route until the cat's pure-dephasing visibility exp(-d^2 Theta / hbar)
# falls to RESOLVED_VISIBILITY, at t_res; the rule puts STEPS_TO_RESOLVE
# steps before t_res, and at least MIN_STEPS over the run.
RESOLVED_VISIBILITY = 1e-2
STEPS_TO_RESOLVE = 8
MIN_STEPS = 16


@dataclass(frozen=True)
class CatStateSpec:
    """Superposition of two width-``width`` Gaussian packets whose centers
    sit ``separation`` apart, symmetric about ``grid_center``."""
    separation: float
    width: float
    grid_center: float = 0.0

    def __post_init__(self):
        if self.separation < 0:
            raise ValueError(f"separation must be >= 0, got {self.separation}")
        if self.width <= 0:
            raise ValueError(f"width must be > 0, got {self.width}")


@dataclass(frozen=True)
class DensityGrid:
    n: int
    extent: tuple[float, float]
    values: np.ndarray          # (n, n) complex, rho[i, j] = rho(x_i, x'_j)
    time: float

    def __post_init__(self):
        if self.n < MIN_GRID_POINTS:
            raise ValueError(f"n must be >= {MIN_GRID_POINTS}, got {self.n}")
        lo, hi = self.extent
        if not lo < hi:
            raise ValueError(f"extent must be an increasing pair, got {self.extent}")
        object.__setattr__(self, "extent", (float(lo), float(hi)))
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.n, self.n):
            raise ValueError(
                f"values must be ({self.n}, {self.n}), got {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def dx(self) -> float:
        return (self.extent[1] - self.extent[0]) / (self.n - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(self.extent[0], self.extent[1], self.n)


@dataclass(frozen=True)
class EvolveConfig:
    dt: float
    t_end: float
    record_every: int = 100
    boundary: str = "dirichlet_zero"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(
                f"unknown boundary {self.boundary!r}; options {BOUNDARIES}")


@dataclass(frozen=True)
class TermToggles:
    """Per-term switches for evolve_full (all on by default); disabling
    kinetic+potential reduces the equation to the pure-dephasing limit."""
    kinetic: bool = True
    potential: bool = True
    diffusion: bool = True


@dataclass(frozen=True)
class EvolutionResult:
    """Per-step scalar diagnostics plus periodic full-grid snapshots."""
    times: np.ndarray
    trace: np.ndarray
    herm_residual: np.ndarray
    purity: np.ndarray
    visibility: np.ndarray      # NaN when no CatStateSpec was supplied
    snapshots: list
    snapshot_steps: list
    mirror_steps: int = 0       # kinetic substeps run on the top half

    @property
    def final(self) -> DensityGrid:
        return self.snapshots[-1]


def init_cat_state(spec: CatStateSpec, n: int, extent: float) -> DensityGrid:
    """Pure-state density matrix psi(x) psi*(x') for a two-packet
    superposition, unit trace under the grid's Riemann sum (overlap
    cross-term included via the numerical normalization)."""
    length = float(extent)
    needed = spec.separation + TAIL_WIDTHS * spec.width
    if length < needed:
        raise ValueError(
            f"grid extent {length:g} too small: packets need extent >= "
            f"separation + {TAIL_WIDTHS:g}*width = {needed:g}")
    dx = length / (n - 1)
    if spec.width / dx < MIN_POINTS_PER_WIDTH:
        raise ValueError(
            f"packet width under-resolved: width/dx = {spec.width / dx:.3g} "
            f"< {MIN_POINTS_PER_WIDTH:g} points per width")
    # offsets from the centre, exactly antisymmetric: u_{n-1-i} = -u_i, so
    # psi, and with it rho, is mirror-symmetric bit for bit
    u = (np.arange(n) - 0.5 * (n - 1)) * dx
    half = 0.5 * spec.separation
    g = (np.exp(-((u - half) ** 2) / (4.0 * spec.width ** 2))
         + np.exp(-((u + half) ** 2) / (4.0 * spec.width ** 2)))
    norm = math.sqrt(float(np.sum(g * g)) * dx)
    psi = g / norm
    values = np.outer(psi, psi).astype(complex)
    return DensityGrid(n=n, extent=(spec.grid_center - length / 2.0,
                                    spec.grid_center + length / 2.0),
                       values=values, time=0.0)


def dephasing_factor(sys: SystemParams, bath: BathParams, dx: float,
                     t: float) -> float:
    """exp(-dx^2 * Theta(t) / hbar); 1 at t = 0 or dx = 0."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if dx == 0.0 or t == 0.0:
        return 1.0
    theta = decoherence_exponent(sys, bath, t)
    return math.exp(-dx * dx * theta / sys.hbar)


def evolve_dephasing(rho0: DensityGrid, sys: SystemParams, bath: BathParams,
                     t: float) -> DensityGrid:
    """Advance by duration t under pure dephasing: elementwise scaling by
    exp(-(x-x')^2 [Theta(t0+t) - Theta(t0)] / hbar).  Exact; the diagonal
    is untouched."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return rho0
    t0 = rho0.time
    theta = decoherence_exponent(sys, bath, t0 + t)
    if t0 > 0:
        theta -= decoherence_exponent(sys, bath, t0)
    x = rho0.axis()
    factor = np.subtract.outer(x, x)     # q = x - x', squared in place
    np.multiply(factor, factor, out=factor)
    np.multiply(factor, -theta / sys.hbar, out=factor)
    np.exp(factor, out=factor)
    return DensityGrid(n=rho0.n, extent=rho0.extent,
                       values=rho0.values * factor, time=t0 + t)


def _check_free_zero_T(sys: SystemParams, bath: BathParams,
                       coeffs: CoefficientSet, t: np.ndarray) -> None:
    if sys.frequency != 0 or bath.kT != 0:
        raise ValueError("the exact route needs frequency = 0 and kT = 0, "
                         f"got frequency = {sys.frequency:g}, kT = {bath.kT:g}")
    # one call per coefficient on the whole time array; a scalar return
    # (a constant coefficient) stands for every time
    for name in ("dissipation", "anomalous", "freq_shift"):
        if np.any(np.broadcast_to(getattr(coeffs, name)(t), t.shape) != 0.0):
            raise ValueError(f"the exact route needs {name} = 0: it solves "
                             "the kinetic + diffusion equation only")
    given = np.broadcast_to(coeffs.diffusion(t), t.shape)
    if not np.allclose(given, diffusion_zero_T_free(sys, bath, t),
                       rtol=1e-12, atol=0.0):
        raise ValueError("the exact route needs the kT = 0 free-particle "
                         "diffusion coefficient (CoefficientSet.zero_T_free)")


def free_cat_log_rho(spec: CatStateSpec, sys: SystemParams,
                     bath: BathParams, coeffs: CoefficientSet, x: float,
                     xp: float, t) -> np.ndarray:
    """Complex ln rho(x, x', t) of the unit-trace cat state on the infinite
    line under the free kinetic + diffusion equation; 1-D t >= 0.

    Exact, no grid: in X = (x + x')/2, q = x - x' the equation reads
    d rho/dt = (i hbar/M) d_X d_q rho - (D(t)/hbar) q^2 rho.  A Fourier
    transform in X turns it into transport of q at speed v = hbar k/M,
    damped by exp(-(q^2 I0 - 2 q v I1 + v^2 I2)/hbar) with the moments
    of diffusion_moments_zero_T_free.  Each of the four Gaussian product
    terms of psi(x) psi*(x') then stays Gaussian in k, and its k-integral
    is done in closed form.  The terms are summed by log-sum-exp, so the
    result stays exact where rho itself underflows.

    Raises unless frequency = 0, kT = 0, ``coeffs.diffusion`` is the
    zero_T_free closed form, and dissipation, anomalous and freq_shift
    vanish at every t.
    """
    t = np.asarray(t, dtype=float)
    _check_free_zero_T(sys, bath, coeffs, t)
    moments = diffusion_moments_zero_T_free(sys, bath, t)
    return _free_cat_log_rho(spec, sys, moments, x, xp, t)


def _free_cat_log_rho(spec: CatStateSpec, sys: SystemParams,
                      moments: np.ndarray, x: float, xp: float,
                      t: np.ndarray) -> np.ndarray:
    i0, i1, i2 = moments
    hbar = sys.hbar
    beta = hbar / sys.mass               # v = beta * k
    s2 = spec.width * spec.width
    big_x = 0.5 * (x + xp)
    q = x - xp
    # exponent of each term's k-integrand: -a k^2 + b k + c
    a = 0.5 * s2 + (beta * t) ** 2 / (8.0 * s2) + beta * beta * i2 / hbar
    centers = (spec.grid_center + 0.5 * spec.separation,
               spec.grid_center - 0.5 * spec.separation)
    terms = []
    for ca in centers:
        for cb in centers:
            shift = q - (ca - cb)
            b = (shift * beta * t / (4.0 * s2) + 2.0 * q * beta * i1 / hbar
                 + 1j * (big_x - 0.5 * (ca + cb)))
            c = -shift * shift / (8.0 * s2) - q * q * i0 / hbar
            terms.append(b * b / (4.0 * a) + c + 0.5 * np.log(np.pi / a))
    z = np.array(terms)
    top = z.real.max(axis=0)
    # psi normalization N^2 times the X-transform's sigma sqrt(2 pi)/(2 pi)
    log_pref = -math.log(4.0 * math.pi) - math.log1p(
        math.exp(-spec.separation ** 2 / (8.0 * s2)))
    return log_pref + top + np.log(np.exp(z - top).sum(axis=0))


def free_cat_log_visibility(spec: CatStateSpec, sys: SystemParams,
                            bath: BathParams, coeffs: CoefficientSet,
                            t) -> np.ndarray:
    """ln of the fringe visibility 2|rho(x+, x-)| / (rho(x+, x+) +
    rho(x-, x-)) at the packet centers, by the exact route of
    free_cat_log_rho (same conditions)."""
    t = np.asarray(t, dtype=float)
    _check_free_zero_T(sys, bath, coeffs, t)
    moments = diffusion_moments_zero_T_free(sys, bath, t)
    xp = spec.grid_center + 0.5 * spec.separation
    xm = spec.grid_center - 0.5 * spec.separation

    def log_abs(xa, xb):
        return _free_cat_log_rho(spec, sys, moments, xa, xb, t).real

    return (math.log(2.0) + log_abs(xp, xm)
            - np.logaddexp(log_abs(xp, xp), log_abs(xm, xm)))


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


def min_eigenvalue_estimate(rho: DensityGrid) -> float:
    """Smallest eigenvalue of the (symmetrized) kernel rho(x,x') dx.
    Diagnostic only: transient negativity is expected for this family of
    master equations and is not an error."""
    herm = 0.5 * (rho.values + rho.values.conj().T)
    return float(np.linalg.eigvalsh(herm)[0] * rho.dx)


def sample_bilinear(rho: DensityGrid, xa: float, xb: float) -> complex:
    """Bilinearly interpolated rho(xa, xb); raises if the point is outside
    the grid."""
    return _sample(rho.values, rho.extent, xa, xb)


def _sample(v: np.ndarray, extent: tuple[float, float], xa: float,
            xb: float) -> complex:
    lo, hi = extent
    if not (lo <= xa <= hi and lo <= xb <= hi):
        raise ValueError(
            f"sample point ({xa:g}, {xb:g}) outside grid extent [{lo:g}, {hi:g}]")
    n = v.shape[0]
    dx = (hi - lo) / (n - 1)
    fa = (xa - lo) / dx
    fb = (xb - lo) / dx
    ia = min(int(fa), n - 2)
    ib = min(int(fb), n - 2)
    wa = fa - ia
    wb = fb - ib
    return complex((1 - wa) * (1 - wb) * v[ia, ib]
                   + wa * (1 - wb) * v[ia + 1, ib]
                   + (1 - wa) * wb * v[ia, ib + 1]
                   + wa * wb * v[ia + 1, ib + 1])


def _dst_matrix(n: int) -> np.ndarray:
    """The DST-I matrix S_mk = sqrt(2/(n+1)) sin(pi m k/(n+1)), m, k = 1..n.
    It is symmetric and orthogonal (S S = 1), and it diagonalises the
    Dirichlet-zero second difference (_laplacian_eigenvalues)."""
    m = np.arange(1, n + 1)
    # m k is reduced mod 2(n+1), so every entry is one of 2(n+1) sines
    table = math.sqrt(2.0 / (n + 1)) * np.sin(
        np.pi / (n + 1) * np.arange(2 * (n + 1)))
    index = np.outer(m, m)
    np.remainder(index, 2 * (n + 1), out=index)
    return table[index]


def _toeplitz(line: np.ndarray) -> np.ndarray:
    """The (n, n) read-only view T[i, j] = line[n - 1 + j - i] of a
    (2n - 1)-line; for a line symmetric about its middle, T[i, j] is the
    line's value at i - j as well."""
    n = (line.shape[0] + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(line, n)[::-1]


def _laplacian_eigenvalues(n: int, dx: float) -> np.ndarray:
    """Eigenvalues -4 sin^2(pi m / 2(n+1)) / dx^2, m = 1..n, of the centered
    second difference with Dirichlet-zero ghosts, in _dst_matrix's order."""
    m = np.arange(1, n + 1)
    return -4.0 * np.sin(0.5 * np.pi * m / (n + 1)) ** 2 / (dx * dx)


def _parity_blocks(s: np.ndarray, e: np.ndarray) -> tuple:
    """U = S diag(e) S in the mirror-parity basis, for _kinetic_flow.

    The Dirichlet-zero second difference commutes with the grid's mirror
    x_i <-> x_{n-1-i}, and the DST-I modes 1, 3, ... are even under it and
    2, 4, ... odd.  With P the unnormalised fold (rows top + J bottom, the
    middle row when n is odd, top - J bottom; J the row reversal),
    U = P^T V P with V block-diagonal:
    V+ = S[:m, 0::2] diag(e[0::2]) S[:m, 0::2]^T, m = n - n//2, and
    V- = S[:h, 1::2] diag(e[1::2]) S[:h, 1::2]^T, h = n//2, both
    complex-symmetric.  Returns (V+, V-, conj V+, conj V-)."""
    n = s.shape[0]
    h, m = n // 2, n - n // 2
    even, odd = s[:m, 0::2], s[:h, 1::2]
    vp = (even * e[0::2]) @ even.T
    vm = (odd * e[1::2]) @ odd.T
    return vp, vm, vp.conj(), vm.conj()


def _fold(v: np.ndarray, scratch: np.ndarray) -> None:
    """v <- P v in place (rows top + J bottom, middle, top - J bottom);
    scratch is an (n//2, n) array."""
    h = v.shape[0] // 2
    m = v.shape[0] - h
    np.copyto(scratch, v[m:][::-1])
    np.subtract(v[:h], scratch, out=v[m:])
    np.add(v[:h], scratch, out=v[:h])


def _unfold(v: np.ndarray, scratch: np.ndarray) -> None:
    """v <- P^T v in place, the adjoint of _fold (P P^T = 2 on the paired
    rows and 1 on the middle one, so this is not its inverse)."""
    h = v.shape[0] // 2
    m = v.shape[0] - h
    np.subtract(v[:h], v[m:], out=scratch)
    np.add(v[:h], v[m:], out=v[:h])
    np.copyto(v[m:], scratch[::-1])


def _kinetic_flow(rho: np.ndarray, buf: np.ndarray, scratch: np.ndarray,
                  blocks: tuple) -> None:
    """rho <- U rho U^H in place, with U given by _parity_blocks.

    U rho U^H = (P^T conj(V) P (U rho)^T)^T, because V^T = V: a fold, the
    two row blocks' products with V, an unfold and a transpose, then the
    same with conj(V).  Four half-size products in place of two full
    ones, and no temporary: buf (n, n) and scratch (n//2, n) are
    overwritten."""
    m = rho.shape[0] - rho.shape[0] // 2
    vp, vm, vp_conj, vm_conj = blocks
    for even, odd in ((vp, vm), (vp_conj, vm_conj)):
        _fold(rho, scratch)
        np.matmul(even, rho[:m], out=buf[:m])
        np.matmul(odd, rho[m:], out=buf[m:])
        _unfold(buf, scratch)
        np.copyto(rho, buf.T)


def _mirror_symmetric(v: np.ndarray) -> bool:
    """Whether v equals its mirror image exactly (J v J for a grid, with J
    the mirror x_i <-> x_{n-1-i}; v reversed for a vector).  Never true
    for an array holding a NaN."""
    return bool(np.array_equal(v, np.flip(v)))


def _half_blocks(blocks: tuple) -> tuple:
    """_parity_blocks' (V+, V-, conj V+, conj V-) pre-scaled for _half_flow:
    V+ with its first n//2 columns doubled, and 2 V-."""
    vp, vm, vp_conj, vm_conj = blocks
    h = vm.shape[0]
    scaled = vp.copy()
    scaled[:, :h] *= 2.0
    return scaled, 2.0 * vm, vp_conj, vm_conj


def _half_flow(top: np.ndarray, work: tuple, blocks: tuple) -> None:
    """top <- the top rows of U rho U^H, in place, for a mirror-symmetric
    rho = J rho J held as its top m = n - n//2 rows; blocks come from
    _half_blocks, and work holds two (m, m) and two (h, h) complex arrays,
    h = n//2, which are overwritten.

    U rho U^H = P^T V R conj(V) P with R = P rho P^T (_parity_blocks).
    With C = rho P^T, the column fold of rho, J rho J = rho gives
    C[n-1-i] = C[i] S, with S = +1 on the even and -1 on the odd columns.
    So R's cross-parity blocks vanish, and R++ = diag(2, .., 2, 1) C++,
    R-- = 2 C[:h, m:], both from the top rows alone (the 1 is the middle
    row when n is odd); the 2s are folded into the blocks.  Then
    X+ = V+ R++ conj(V+) and X- = V- R-- conj(V-) are four half-size
    products, and the top rows of P^T X P are the column unfold of
    [X+ | X-] (for odd n, the middle row of X+ alone).  The rebuilt rho
    is exactly mirror-symmetric."""
    n = top.shape[1]
    h = n // 2
    m = n - h
    vp, vm, vp_conj, vm_conj = blocks
    even, odd, even_tmp, odd_tmp = work
    mirror = top[:, ::-1]
    np.add(top[:, :h], mirror[:, :h], out=even[:, :h])
    np.subtract(top[:h, :h], mirror[:h, :h], out=odd)
    if m > h:
        even[:, h] = top[:, h]
    np.matmul(vp, even, out=even_tmp)
    np.matmul(even_tmp, vp_conj, out=even)
    np.matmul(vm, odd, out=odd_tmp)
    np.matmul(odd_tmp, vm_conj, out=odd)
    np.add(even[:h, :h], odd, out=top[:h, :h])
    np.subtract(even[:h, :h], odd, out=mirror[:h, :h])
    if m > h:
        top[:, h] = even[:, h]
        top[h, :h] = mirror[h, :h] = even[h, :h]


def _half_work(n: int) -> tuple:
    """The work arrays of _half_flow on an (n, n) grid."""
    h, m = n // 2, n - n // 2
    return (np.empty((m, m), dtype=complex), np.empty((h, h), dtype=complex),
            np.empty((m, m), dtype=complex), np.empty((h, h), dtype=complex))


def _half_bottom(top: np.ndarray) -> np.ndarray:
    """The bottom n//2 rows of rho = J rho J, as a view of its top rows."""
    return top[:top.shape[1] // 2][::-1, ::-1]


def _half_grid(top: np.ndarray) -> np.ndarray:
    """The full (n, n) grid of rho = J rho J from its top rows."""
    n, m = top.shape[1], top.shape[0]
    full = np.empty((n, n), dtype=complex)
    full[:m] = top
    full[m:] = _half_bottom(top)
    return full


def _half_trace(top: np.ndarray) -> float:
    """Sum of rho's diagonal (real part) from its top rows: each row but
    the middle one (odd n) stands for its mirror row too."""
    d = top.diagonal().real
    h = top.shape[1] // 2
    return float(2.0 * np.sum(d[:h]) + np.sum(d[h:]))


def _half_norm2(top: np.ndarray) -> float:
    """Sum of |rho|^2 from its top rows, counted as in _half_trace."""
    h = top.shape[1] // 2
    return float(2.0 * np.vdot(top[:h], top[:h]).real
                 + np.vdot(top[h:], top[h:]).real)


def _half_residual(top: np.ndarray, buf: np.ndarray,
                   work: np.ndarray) -> float:
    """max |rho - rho^H| from rho's top rows; rho - rho^H is itself
    mirror-symmetric, so its top rows hold its maximum.  buf (complex)
    and work (real) have top's shape and are overwritten."""
    m = top.shape[0]
    # the top rows of rho^T are those of rho's first m columns, transposed
    np.copyto(buf[:, :m], top[:, :m].T)
    np.copyto(buf[:, m:], _half_bottom(top)[:, :m].T)
    np.conjugate(buf, out=buf)
    np.subtract(top, buf, out=buf)
    return float(np.abs(buf, out=work).max())


def _half_matvec(top: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rho @ w from rho's top rows: [top @ w ; reverse(top[:h] @ w[::-1])]."""
    h = top.shape[1] // 2
    return np.concatenate((top @ w, (top[:h] @ w[::-1])[::-1]))


def _sine_weights(s: np.ndarray, extent: tuple[float, float],
                  x: float) -> np.ndarray:
    """Weights w with v(x, x') ~ w(x) . v . w(x'), the DST-I sine-series
    interpolant of grid values v (s from _dst_matrix): w = S u(x) with
    u_m(x) = sqrt(2/(n+1)) sin(pi m (x - x_0 + dx) / ((n+1) dx)).  At a
    grid node w is the unit vector of that node.  Raises if x is outside
    the grid."""
    lo, hi = extent
    if not lo <= x <= hi:
        raise ValueError(
            f"sample point {x:g} outside grid extent [{lo:g}, {hi:g}]")
    n = s.shape[0]
    node = (x - lo) / (hi - lo) * (n - 1) + 1.0     # 1-based node position
    m = np.arange(1, n + 1)
    u = math.sqrt(2.0 / (n + 1)) * np.sin(
        np.pi / (n + 1) * np.mod(m * node, 2 * (n + 1)))
    return s @ u


def _cat_probe(s: np.ndarray, extent: tuple[float, float],
               spec: CatStateSpec):
    """Sine-series weights at the packet centers x+ and x-, or None for the
    degenerate cat (separation 0, both points coincide)."""
    if spec.separation == 0.0:
        return None
    return (_sine_weights(s, extent, spec.grid_center + 0.5 * spec.separation),
            _sine_weights(s, extent, spec.grid_center - 0.5 * spec.separation))


def _probe_visibility(apply, probe) -> float:
    """2|rho(x+, x-)| / (rho(x+, x+) + rho(x-, x-)) at the weights of
    _cat_probe, of the state whose product with a vector w is apply(w); so
    the solver can probe its live arrays."""
    if probe is None:
        return 1.0
    wp, wm = probe
    vp, vm = apply(wp), apply(wm)
    return 2.0 * abs(wp @ vm) / ((wp @ vp).real + (wm @ vm).real)


def _visibility(v: np.ndarray, extent: tuple[float, float],
                spec: CatStateSpec) -> float:
    """Fringe visibility of the grid values v spanning extent, read by the
    sine-series interpolant (see analysis.fringe_visibility)."""
    return _probe_visibility(
        v.__matmul__, _cat_probe(_dst_matrix(v.shape[0]), extent, spec))


def suggest_timestep(sys: SystemParams, bath: BathParams, separation: float,
                     t_end: float) -> float:
    """Time step for evolve_full over [0, t_end] from the accuracy rule:
    STEPS_TO_RESOLVE steps before t_res, the time at which the pure-dephasing
    visibility exp(-separation^2 Theta(t) / hbar) falls to
    RESOLVED_VISIBILITY, and at least MIN_STEPS steps in all.

    t_res is bracketed on 64 samples of Theta over [0, t_end], the bracket
    is narrowed twice more the same way, and its lower end is taken, so
    the rule never puts fewer steps before the true t_res."""
    dt = t_end / MIN_STEPS
    if separation == 0.0:
        return dt
    level = -sys.hbar * math.log(RESOLVED_VISIBILITY) / separation ** 2
    lo, hi = 0.0, t_end
    for _ in range(3):
        t = np.linspace(lo, hi, 65)[1:]
        hit = np.flatnonzero(exponent_trace(sys, bath, t).theta >= level)
        if hit.size == 0:
            return dt          # only on the first pass: never reached
        k = int(hit[0])
        lo, hi = (float(t[k - 1]) if k else lo), float(t[k])
    t_res = lo if lo > 0.0 else hi
    return min(dt, t_res / STEPS_TO_RESOLVE)


def evolve_full(rho0: DensityGrid, sys: SystemParams, bath: BathParams,
                cfg: EvolveConfig, *, terms: TermToggles | None = None,
                cat_spec: CatStateSpec | None = None,
                diagnostics: bool = True) -> EvolutionResult:
    """Strang-split run from rho0.time to rho0.time + t_end.

    Each step of length h is D(h/2) K(h) D(h/2), and each substep is the
    exact flow of its terms, so the scheme is second order in h with no
    stability bound on it:

    * D, from t_a to t_b, multiplies elementwise by
      exp(-(x - x')^2 [Theta(t_b) - Theta(t_a)] / hbar
          - i (M Omega^2 / 2 hbar)(x^2 - x'^2)(t_b - t_a)),
      the diffusion and potential terms.  Theta at every half-step time
      comes from one exponent_trace call; D(t) is never sampled.  The
      diffusion factor depends on i - j alone: with the potential off it
      is 2n - 1 exponentials read through a Toeplitz view.  x is the
      grid's centre plus the exactly antisymmetric offsets
      (i - (n-1)/2) dx, so x^2 is exactly mirror-symmetric on a grid
      centred at 0.
    * K is the kinetic flow, S [(S rho S) * exp(i hbar h (lam_i - lam_j) /
      2M)] S, with S the DST-I matrix and lam the eigenvalues of the
      Dirichlet-zero second difference.  The phase matrix is the outer
      product of e = exp(i hbar h lam / 2M) with its conjugate, so this
      is U rho U^H with U = S diag(e) S.  U commutes with the grid's
      mirror, so it is applied as P^T V P with P the parity fold and V
      two complex-symmetric blocks of half size (_parity_blocks): four
      (n/2, n/2, n) products per step in place of two (n, n, n) ones.

    Whether the run is mirror-symmetric is decided once: when rho0 equals
    J rho0 J exactly (J the mirror x_i <-> x_{n-1-i}), as a cat centred
    on its grid does, and the potential, if on, is mirror-symmetric too,
    every substep keeps rho = J rho J.  Such a run holds only rho's top
    n - n//2 rows: K is four (n/2)^3 products on their column fold
    (_half_flow), D multiplies them by the factor's top rows, and the
    diagnostics come from them by the mirror identities.  The full grid
    is built only for snapshots.  The result's ``mirror_steps`` counts
    the kinetic substeps taken that way.  Any other state runs the full
    grid.

    Every substep and diagnostic works in place in a fixed set of arrays.
    Scalar diagnostics (trace, hermiticity residual, purity, visibility
    read by the sine-series interpolant) are appended every step; with
    ``diagnostics=False`` only the purity is, which the finiteness guard
    computes anyway, and the trace, residual and visibility entries are
    NaN.  Full grids are kept every ``record_every`` steps plus the
    initial and final states.  Raises RuntimeError when Theta is not
    finite, or when the state turns non-finite (with the step index).
    """
    if terms is None:
        terms = TermToggles()
    n, dx, t0 = rho0.n, rho0.dx, rho0.time
    n_steps = max(1, int(math.ceil(cfg.t_end / cfg.dt - 1e-12)))
    elapsed = np.arange(n_steps + 1) * cfg.dt
    elapsed[-1] = cfg.t_end
    times = t0 + elapsed
    # step times at even, half-step times at odd indices
    t_half = np.empty(2 * n_steps + 1)
    t_half[0::2] = times
    t_half[1::2] = 0.5 * (times[:-1] + times[1:])
    dt_half = np.diff(t_half)

    d_theta = np.zeros_like(dt_half)
    if terms.diffusion:
        try:
            theta = exponent_trace(sys, bath, t_half).theta
        except ValueError as exc:   # ExponentTrace refuses a non-finite Theta
            raise RuntimeError(
                f"Theta(t) is not finite on [{t_half[0]:.6g}, "
                f"{t_half[-1]:.6g}]: {exc}") from exc
        d_theta = np.diff(theta)
    x2 = None
    if terms.potential and sys.frequency != 0.0:
        x = 0.5 * (rho0.extent[0] + rho0.extent[1]) \
            + (np.arange(n) - 0.5 * (n - 1)) * dx
        x2 = x * x
    half = _mirror_symmetric(rho0.values) and (
        x2 is None or _mirror_symmetric(x2))
    rows = n - n // 2 if half else n
    # -(x_i - x_j)^2 / hbar depends on i - j alone: a (2n - 1)-line, read
    # as an (n, n) Toeplitz view, exactly symmetric in i - j
    neg_q2_line = -(np.arange(1 - n, n) * dx) ** 2 / sys.hbar
    factor_line = np.empty_like(neg_q2_line)
    neg_q2 = _toeplitz(neg_q2_line)[:rows]
    factor = _toeplitz(factor_line)[:rows]
    potential = None
    if x2 is not None:
        potential = (-0.5j * sys.mass * sys.frequency ** 2 / sys.hbar) \
            * np.subtract.outer(x2[:rows], x2)

    s = _dst_matrix(n) if terms.kinetic or cat_spec is not None else None
    probe = None if cat_spec is None else _cat_probe(s, rho0.extent,
                                                     cat_spec)
    if terms.kinetic:
        lam = _laplacian_eigenvalues(n, dx)

        def propagator(h: float):
            blocks = _parity_blocks(
                s, np.exp((0.5j * sys.hbar * h / sys.mass) * lam))
            return _half_blocks(blocks) if half else blocks

        kinetic = [propagator(cfg.dt)] * n_steps
        # t_end - (n_steps - 1) dt is off dt by rounding alone when
        # t_end / dt is whole; that last step keeps dt's propagator
        h_last = cfg.t_end - float(elapsed[-2])
        if not math.isclose(h_last, cfg.dt, rel_tol=1e-9):
            kinetic[-1] = propagator(h_last)

    # the step's work arrays; no substep or record allocates a full grid
    rho = rho0.values[:rows].copy()
    buf = np.empty_like(rho)
    work = np.empty(rho.shape)
    if not terms.kinetic:
        flow = None
    elif half:
        flow_work = _half_work(n)

        def flow(blocks: tuple) -> None:
            _half_flow(rho, flow_work, blocks)
    else:
        scratch = np.empty((n // 2, n), dtype=complex)

        def flow(blocks: tuple) -> None:
            _kinetic_flow(rho, buf, scratch, blocks)

    def dephase(j: int) -> None:
        if potential is not None:
            np.multiply(potential, dt_half[j], out=buf)
            np.multiply(neg_q2, d_theta[j], out=work)
            np.add(work, buf, out=buf)
            np.exp(buf, out=buf)
            np.multiply(rho, buf, out=rho)
        elif d_theta[j] != 0.0:
            np.multiply(neg_q2_line, d_theta[j], out=factor_line)
            np.exp(factor_line, out=factor_line)
            # a ufunc would buffer the strided real view; a contiguous
            # complex copy multiplies to the same bits without that
            np.copyto(buf, factor)
            np.multiply(rho, buf, out=rho)

    traces, residuals, purities, visibilities = [], [], [], []

    def record() -> float:
        norm2 = _half_norm2(rho) if half else float(np.vdot(rho, rho).real)
        purities.append(norm2 * dx * dx)
        if not diagnostics:
            traces.append(math.nan)
            residuals.append(math.nan)
            visibilities.append(math.nan)
        elif half:
            traces.append(_half_trace(rho) * dx)
            residuals.append(_half_residual(rho, buf, work))
            visibilities.append(math.nan if cat_spec is None else
                                _probe_visibility(
                                    lambda w: _half_matvec(rho, w), probe))
        else:
            traces.append(float(np.sum(rho.diagonal().real) * dx))
            # copied first: conjugating the transposed view would buffer it
            np.copyto(buf, rho.T)
            np.conjugate(buf, out=buf)
            np.subtract(rho, buf, out=buf)
            residuals.append(float(np.abs(buf, out=work).max()))
            visibilities.append(math.nan if cat_spec is None
                                else _probe_visibility(rho.__matmul__, probe))
        return purities[-1]

    def snap(t: float) -> DensityGrid:
        return DensityGrid(n=n, extent=rho0.extent,
                           values=_half_grid(rho) if half else rho.copy(),
                           time=t)

    record()
    snapshots = [snap(t0)]
    snapshot_steps = [0]
    for k in range(1, n_steps + 1):
        dephase(2 * k - 2)
        if flow is not None:
            flow(kinetic[k - 1])
        dephase(2 * k - 1)
        # the sum of |rho|^2 is finite only if every element is
        if not math.isfinite(record()):
            raise RuntimeError(
                f"non-finite values detected at step {k} "
                f"(t = {times[k]:.6g})")
        if k % cfg.record_every == 0 or k == n_steps:
            snapshots.append(snap(float(times[k])))
            snapshot_steps.append(k)

    return EvolutionResult(
        times=times, trace=np.asarray(traces),
        herm_residual=np.asarray(residuals), purity=np.asarray(purities),
        visibility=np.asarray(visibilities), snapshots=snapshots,
        snapshot_steps=snapshot_steps,
        mirror_steps=n_steps if half and flow is not None else 0)


# Binary snapshot layout: little-endian header {u32 n, f64 extent_lo,
# f64 extent_hi, f64 time} then n^2 (real, imag) f64 pairs, row-major in x.
_HEADER = struct.Struct("<Iddd")


def write_snapshot(rho: DensityGrid, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(rho.n, rho.extent[0], rho.extent[1], rho.time))
        inter = np.empty((rho.n, rho.n, 2), dtype="<f8")
        inter[:, :, 0] = rho.values.real
        inter[:, :, 1] = rho.values.imag
        inter.tofile(fh)


def read_snapshot(path) -> DensityGrid:
    with open(path, "rb") as fh:
        n, lo, hi, time = _HEADER.unpack(fh.read(_HEADER.size))
        inter = np.fromfile(fh, dtype="<f8", count=2 * n * n)
    if inter.size != 2 * n * n:
        raise ValueError(f"snapshot file truncated: expected {2*n*n} floats, "
                         f"got {inter.size}")
    inter = inter.reshape(n, n, 2)
    values = inter[:, :, 0] + 1j * inter[:, :, 1]
    return DensityGrid(n=n, extent=(lo, hi), values=values, time=time)
