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
  diagonal in the DST-I basis.  Every term keeps rho Hermitian, so a run
  holds one real matrix, Q = Re rho + Im rho, and builds the complex
  grid only for snapshots; rho0 must be exactly Hermitian.  The kinetic
  flow on Q is four real n^3 products.  A state that is also
  mirror-symmetric, such as a cat centred on its grid, holds only Q's
  top n - n//2 rows: its kinetic flow splits into an even and an odd
  block of DST-I modes, eight real (n/2)^3 products, and every other
  substep and diagnostic reads n/2 rows.  No step allocates a full
  grid.  The two blocks share no data between the fold and the unfold,
  so the odd block runs on a worker thread while the calling thread
  runs the even one, each with the same arithmetic as in turn, so the
  results are bit-identical.  The worker is one thread per process,
  started by the first mirror flow, not at import, and a child forked
  after that starts its own.  Individual terms can be toggled off
  (``TermToggles``) to compare limits against closed forms.

A grid-free exact route covers the free particle at kT = 0 with only the
kinetic and diffusion terms acting: ``free_cat_log_rho`` and
``free_cat_log_visibility`` give the cat state's log-density and fringe
visibility in closed form, far below the grid's roundoff floor.

Grids are endpoint-inclusive: n points spanning ``extent`` with spacing
dx = span/(n-1); the trace is the plain Riemann sum of the diagonal.
"""
from __future__ import annotations

import contextvars
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .params import SystemParams, BathParams
from .coefficients import (decoherence_exponent,
                           diffusion_moments_zero_T_free, exponent_trace)
# unused here; bench/tracing.py wraps this name in this module
from .coefficients import diffusion_zero_T_free  # noqa: F401

__all__ = [
    "CatStateSpec", "DensityGrid", "EvolveConfig", "TermToggles",
    "EvolutionResult", "init_cat_state", "evolve_dephasing", "evolve_full",
    "free_cat_log_rho", "free_cat_log_visibility", "min_eigenvalue_estimate",
    "suggest_timestep", "write_snapshot", "read_snapshot",
]

# Grid-resolution contract for initial states: the packet width must span
# at least this many grid points, and the extent must clear the packets'
# tails by this many widths (keeps Dirichlet boundary amplitudes < 1e-10).
MIN_POINTS_PER_WIDTH = 8.0
TAIL_WIDTHS = 12.0
MIN_GRID_POINTS = 64

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

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


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
    herm_residual: np.ndarray   # 0: the packed state is Hermitian
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


def _check_free_zero_T(sys: SystemParams, bath: BathParams) -> None:
    if sys.frequency != 0 or bath.kT != 0:
        raise ValueError("the exact route needs frequency = 0 and kT = 0, "
                         f"got frequency = {sys.frequency:g}, kT = {bath.kT:g}")


def free_cat_log_rho(spec: CatStateSpec, sys: SystemParams,
                     bath: BathParams, x: float, xp: float,
                     t) -> np.ndarray:
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

    Raises unless frequency = 0 and kT = 0.
    """
    t = np.asarray(t, dtype=float)
    _check_free_zero_T(sys, bath)
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
                            bath: BathParams, t) -> np.ndarray:
    """ln of the fringe visibility 2|rho(x+, x-)| / (rho(x+, x+) +
    rho(x-, x-)) at the packet centers, by the exact route of
    free_cat_log_rho (same conditions)."""
    t = np.asarray(t, dtype=float)
    _check_free_zero_T(sys, bath)
    moments = diffusion_moments_zero_T_free(sys, bath, t)
    xp = spec.grid_center + 0.5 * spec.separation
    xm = spec.grid_center - 0.5 * spec.separation

    def log_abs(xa, xb):
        return _free_cat_log_rho(spec, sys, moments, xa, xb, t).real

    return (math.log(2.0) + log_abs(xp, xm)
            - np.logaddexp(log_abs(xp, xp), log_abs(xm, xm)))


def min_eigenvalue_estimate(rho: DensityGrid) -> float:
    """Smallest eigenvalue of the (symmetrized) kernel rho(x,x') dx.
    Diagnostic only: transient negativity is expected for this family of
    master equations and is not an error."""
    herm = 0.5 * (rho.values + rho.values.conj().T)
    return float(np.linalg.eigvalsh(herm)[0] * rho.dx)


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


def _mirror_symmetric(v: np.ndarray) -> bool:
    """Whether v equals its mirror image exactly (J v J for a grid, with J
    the mirror x_i <-> x_{n-1-i}; v reversed for a vector).  Never true
    for an array holding a NaN."""
    return bool(np.array_equal(v, np.flip(v)))


def _packable(v: np.ndarray) -> bool:
    """Whether the (n, n) grid v equals J v J and v^H exactly, read from
    its top m = n - n//2 rows: v[:m] = (J v J)[:m], and v[:m] = (v^H)[:m]
    read from the columns v[:, :m].T.  Each row below m mirrors one of
    them, so the whole grid then has both symmetries.  Never true for a
    grid holding a NaN."""
    m = v.shape[0] - v.shape[0] // 2
    top = v[:m]
    return bool(np.array_equal(top, v[::-1, ::-1][:m])
                and np.array_equal(top, v[:, :m].T.conj()))


def _flow_block(b: np.ndarray, left: np.ndarray, theta: np.ndarray) -> tuple:
    """(B, L, cos, sin) of one _block_flow: the real modes B, the left
    factor L, and cos and sin of theta_j - theta_k over B's modes."""
    diff = np.subtract.outer(theta, theta)
    return b, left, np.cos(diff), np.sin(diff)


def _half_blocks(s: np.ndarray, theta: np.ndarray) -> tuple:
    """_half_flow's _flow_block per parity: the real modes B (S[:m, 0::2],
    then S[:h, 1::2]) and L = B^T scaled for the row fold (by
    diag(2, .., 2, 1), then 2), theta the kinetic phase of each mode."""
    n = s.shape[0]
    h, m = n // 2, n - n // 2
    fold = np.full(m, 2.0)
    fold[h:] = 1.0
    blocks = []
    for b, scale, t in ((s[:m, 0::2], fold, theta[0::2]),
                        (s[:h, 1::2], 2.0, theta[1::2])):
        b = np.ascontiguousarray(b)
        blocks.append(_flow_block(b, np.ascontiguousarray(b.T * scale), t))
    return tuple(blocks)


def _block_flow(g: np.ndarray, tmp: np.ndarray, block: tuple) -> None:
    """g <- B (G o cos + G^T o sin) B^T with G = L g B, in place, for one
    block (B, L, cos, sin) of _flow_block: all of Q with B = L = S, or a
    parity block of _half_blocks; tmp is overwritten."""
    b, left, cos, sin = block
    np.matmul(left, g, out=tmp)
    np.matmul(tmp, b, out=g)
    np.multiply(g.T, sin, out=tmp)
    np.multiply(g, cos, out=g)
    np.add(g, tmp, out=g)
    np.matmul(b, g, out=tmp)
    np.matmul(tmp, b.T, out=g)


# The one worker thread of _half_flow's odd block, started by the first
# packed flow.  A child forked after that has no such thread, so it
# starts its own.
_worker = None


def _block_worker():
    global _worker
    if _worker is None:
        # imported here: concurrent.futures loads logging, which would add
        # about 10 ms to every start of the package
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(max_workers=1,
                                     thread_name_prefix="qbmlab-odd-block")
    return _worker


def _forget_worker() -> None:
    global _worker
    _worker = None


os.register_at_fork(after_in_child=_forget_worker)


def _half_flow(top: np.ndarray, work: tuple, blocks: tuple) -> None:
    """top <- the top rows of Q' = pack(U rho U^H), in place, for a
    Hermitian rho = J rho J held as the top m = n - n//2 rows of the real
    Q = pack(rho) = Re rho + Im rho; blocks come from _half_blocks, and
    work holds two (m, m) and two (h, h) real arrays, h = n//2, which are
    overwritten.

    Q' = S (G o cos + G^T o sin) S with G = S Q S (evolve_full).  The
    DST-I modes S[:, 0::2] are even under J and S[:, 1::2] odd, so
    Q = J Q J gives G no cross-parity block, and each parity's block
    reads Q's top rows alone.  With C+ the top rows' first h columns
    plus their mirror columns (column n-1-j for column j), and the middle
    column once when n is odd, and C- the first h of those rows with the
    mirror columns subtracted, G+ = B+^T diag(2, .., 2, 1) C+ B+ and
    G- = 2 B-^T C- B-, B+ = S[:m, 0::2] and B- = S[:h, 1::2]; the 1 is
    the middle row when n is odd, and the scaled B^T is _half_blocks'
    L.  _block_flow then forms X = B (G o cos + G^T o sin) B^T, the
    corner of that parity's part of Q' whose mirror images are the rest:
    Q'[:h, :h] = X+[:h, :h] + X-, their difference is the mirrored
    columns, and for odd n the middle row and column come from X+ alone.
    The rebuilt Q is exactly mirror-symmetric.

    The odd block's X runs on the worker thread of _block_worker while
    the calling thread forms the even block's, and both are joined
    before the unfold; an error in either is raised here."""
    n = top.shape[1]
    h = n // 2
    m = n - h
    even, odd, even_tmp, odd_tmp = work
    mirror = top[:, ::-1]
    np.add(top[:, :h], mirror[:, :h], out=even[:, :h])
    np.subtract(top[:h, :h], mirror[:h, :h], out=odd)
    if m > h:
        even[:, h] = top[:, h]
    # the blocks share nothing until the unfold: the odd one runs on the
    # worker thread (in the caller's context, so np.errstate holds there)
    odd_done = _block_worker().submit(contextvars.copy_context().run,
                                      _block_flow, odd, odd_tmp, blocks[1])
    try:
        _block_flow(even, even_tmp, blocks[0])
    finally:
        odd_done.result()
    np.add(even[:h, :h], odd, out=top[:h, :h])
    np.subtract(even[:h, :h], odd, out=mirror[:h, :h])
    if m > h:
        top[:, h] = even[:, h]
        top[h, :h] = mirror[h, :h] = even[h, :h]


def _half_work(n: int) -> tuple:
    """The work arrays of _half_flow on an (n, n) grid."""
    h, m = n // 2, n - n // 2
    return (np.empty((m, m)), np.empty((h, h)), np.empty((m, m)),
            np.empty((h, h)))


def _half_bottom(top: np.ndarray) -> np.ndarray:
    """The bottom n//2 rows of v = J v J, as a view of its top rows."""
    return top[:top.shape[1] // 2][::-1, ::-1]


def _packed_transpose(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows of Q^T that q holds into out, q being all n rows of Q or
    the top m rows of Q = J Q J; then Q's bottom rows' first columns are
    read through the mirror."""
    m = q.shape[0]
    np.copyto(out[:, :m], q[:, :m].T)
    if m < q.shape[1]:
        np.copyto(out[:, m:], _half_bottom(q)[:, :m].T)
    return out


def _unpack(q: np.ndarray) -> np.ndarray:
    """The exactly Hermitian (n, n) grid (Q + Q^T)/2 + i (Q - Q^T)/2 of a
    packed state from q, all of Q or its top rows (_packed_transpose):
    the rows q holds from Q/2 and Q^T/2, and for top rows the bottom
    rows as their mirror image."""
    m, n = q.shape
    rho = np.empty((n, n), dtype=complex)
    re, im = rho.real[:m], rho.imag[:m]
    half_tr = _packed_transpose(q, np.empty_like(q))
    np.multiply(half_tr, 0.5, out=half_tr)
    np.multiply(q, 0.5, out=im)
    np.add(im, half_tr, out=re)
    np.subtract(im, half_tr, out=im)
    if m < n:
        rho[m:] = _half_bottom(rho[:m])
    return rho


def _half_trace(top: np.ndarray) -> float:
    """Sum of the real diagonal of v = J v J from its top rows: each row
    but the middle one (odd n) stands for its mirror row too."""
    d = top.diagonal()
    h = top.shape[1] // 2
    return float(2.0 * np.sum(d[:h]) + np.sum(d[h:]))


def _half_norm2(top: np.ndarray) -> float:
    """Sum of |v|^2 from its top rows, counted as in _half_trace."""
    h = top.shape[1] // 2
    return float(2.0 * np.vdot(top[:h], top[:h])
                 + np.vdot(top[h:], top[h:]))


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


def _packed_visibility(q: np.ndarray, probe) -> float:
    """2|rho(x+, x-)| / (rho(x+, x+) + rho(x-, x-)) of a packed state from
    q, all of Q or its top rows (_packed_transpose), through the 2 x 2
    matrix G = W^T Q W of W = [w+ w-], the weights of _cat_probe; probe
    is (W, Wr) with Wr = J W, or None.  All rows: G = W^T (q W).  Top
    rows: Q's bottom rows are the mirror of q's, so G = W[:m]^T (q W) +
    Wr[:h]^T (q[:h] Wr), one (m, n) and one (h, n) product by an (n, 2)
    matrix.  w.Q w = w.rho w, and |rho(x+, x-)| = sqrt((a^2 + b^2)/2)
    with a = G[0, 1] and b = G[1, 0]."""
    if probe is None:
        return 1.0
    w, w_rev = probe
    m, n = q.shape
    g = w[:m].T @ (q @ w)
    if m < n:
        g += w_rev[:n // 2].T @ (q[:n // 2] @ w_rev)
    return (2.0 * math.sqrt(0.5) * math.hypot(g[0, 1], g[1, 0])
            / (g[0, 0] + g[1, 1]))


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
                cat_spec: CatStateSpec | None = None) -> EvolutionResult:
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
    * K is the kinetic flow, S [(S rho S) * exp(i hbar h (lam_j - lam_k) /
      2M)] S, with S the symmetric, orthogonal DST-I matrix and lam the
      eigenvalues of the Dirichlet-zero second difference: U rho U^H
      with U = S diag(exp(i theta)) S, theta = hbar h lam / 2M.

    Every substep keeps rho Hermitian, so the run holds the real
    Q = pack(rho) = Re rho + Im rho, with Re rho = (Q + Q^T)/2 and
    Im rho = (Q - Q^T)/2; pack commutes with every real linear map.  For
    a Hermitian G and Phi_jk = exp(i (theta_j - theta_k)),
    pack(G o Phi) = pack(G) o cos + pack(G)^T o sin, so K is
    Q <- S (G o cos + G^T o sin) S with G = S Q S: four real n^3
    products (_block_flow over one block, B = L = S).  D multiplies by
    the real diffusion factor, or by the Hermitian f as
    Q o Re f + Q^T o Im f.  The trace is Q's diagonal, the purity the
    sum of Q^2, and the visibility comes from the 2 x 2 matrix W^T Q W of
    the two probe weights W = [w+ w-] (_packed_visibility).  The
    hermiticity residual is 0 by construction, recorded and not
    computed.  Only snapshots unpack to the complex grid (_unpack);
    ``snapshots[0]`` is rho0 itself.

    The row count is decided once: when rho0 also equals J rho0 J (J the
    mirror x_i <-> x_{n-1-i}), as a centred cat does, and the potential,
    if on, is mirror-symmetric too, every substep keeps that symmetry.
    Both symmetries are tested on rho0's top n - n//2 rows, which imply
    them for the whole grid (_packable).  Such a run holds Q's top
    n - n//2 rows: K is eight real (n/2)^3 products (_half_flow), four
    per parity block, the odd block's on one worker thread while the
    calling thread does the even block's; the worker is made by the
    process's first mirror flow, and made again in a child forked after
    it.  Every other substep and diagnostic reads those rows through the
    mirror, and the unpack writes the bottom rows as the top rows'
    mirror image.  ``mirror_steps`` counts the kinetic substeps taken
    that way.

    Every substep and diagnostic works in place in a fixed set of arrays.
    Scalar diagnostics (trace, hermiticity residual, purity, visibility
    read by the sine-series interpolant) are appended every step.  Full
    grids are kept every ``record_every`` steps plus the initial and
    final states.  Raises ValueError when rho0 is not exactly Hermitian,
    and RuntimeError when Theta is not finite, or when the state turns
    non-finite (with the step index).
    """
    if terms is None:
        terms = TermToggles()
    n, dx, t0 = rho0.n, rho0.dx, rho0.time
    v = rho0.values
    mirror = _packable(v)
    if not mirror and not np.array_equal(v, v.conj().T):
        raise ValueError("rho0 must be exactly Hermitian: max|rho0 - "
                         f"rho0^H| = {np.abs(v - v.conj().T).max():.3g}")
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
    half = mirror and (x2 is None or _mirror_symmetric(x2))
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
    if probe is not None:
        # W = [w+ w-] and its row reversal, for _packed_visibility
        w = np.stack(probe, axis=1)
        probe = (w, np.ascontiguousarray(w[::-1]))
    if terms.kinetic:
        lam = _laplacian_eigenvalues(n, dx)

        def propagator(h: float):
            theta = (0.5 * sys.hbar * h / sys.mass) * lam
            return (_half_blocks(s, theta) if half
                    else _flow_block(s, s, theta))

        kinetic = [propagator(cfg.dt)] * n_steps
        # t_end - (n_steps - 1) dt is off dt by rounding alone when
        # t_end / dt is whole; that last step keeps dt's propagator
        h_last = cfg.t_end - float(elapsed[-2])
        if not math.isclose(h_last, cfg.dt, rel_tol=1e-9):
            kinetic[-1] = propagator(h_last)

    # the step's work arrays; no substep or record allocates a full grid
    q = v[:rows].real + v[:rows].imag
    work = np.empty_like(q)
    f = None if potential is None else np.empty(q.shape, complex)
    if not terms.kinetic:
        flow = None
    elif half:
        flow_work = _half_work(n)

        def flow(blocks: tuple) -> None:
            _half_flow(q, flow_work, blocks)
    else:
        def flow(block: tuple) -> None:
            _block_flow(q, work, block)

    def dephase(j: int) -> None:
        if potential is not None:
            np.multiply(potential, dt_half[j], out=f)
            np.multiply(neg_q2, d_theta[j], out=work)
            np.add(work, f, out=f)
            np.exp(f, out=f)
            # f is Hermitian: rho o f packs to Q o Re f + Q^T o Im f
            np.multiply(_packed_transpose(q, work), f.imag, out=work)
            np.multiply(q, f.real, out=q)
            np.add(q, work, out=q)
        elif d_theta[j] != 0.0:
            np.multiply(neg_q2_line, d_theta[j], out=factor_line)
            np.exp(factor_line, out=factor_line)
            # a ufunc would buffer the strided view; a contiguous copy
            # multiplies to the same bits without that
            np.copyto(work, factor)
            np.multiply(q, work, out=q)

    traces, purities, visibilities = [], [], []

    def record() -> float:
        if half:
            trace, norm2 = _half_trace(q), _half_norm2(q)
        else:
            trace, norm2 = float(np.sum(q.diagonal())), float(np.vdot(q, q))
        traces.append(trace * dx)
        purities.append(norm2 * dx * dx)
        visibilities.append(math.nan if cat_spec is None
                            else _packed_visibility(q, probe))
        return purities[-1]

    record()
    snapshots = [rho0]
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
            snapshots.append(DensityGrid(n=n, extent=rho0.extent,
                                         values=_unpack(q),
                                         time=float(times[k])))
            snapshot_steps.append(k)

    return EvolutionResult(
        times=times, trace=np.asarray(traces),
        herm_residual=np.zeros_like(times), purity=np.asarray(purities),
        visibility=np.asarray(visibilities), snapshots=snapshots,
        snapshot_steps=snapshot_steps,
        mirror_steps=n_steps if half and flow is not None else 0)


# Binary snapshot layout: little-endian header {u32 n, f64 extent_lo,
# f64 extent_hi, f64 time} then n^2 (real, imag) f64 pairs, row-major in x.
_HEADER = struct.Struct("<Iddd")


def write_snapshot(rho: DensityGrid, path) -> str:
    """Write rho in the layout above; returns the sha256 of the bytes
    written."""
    header = _HEADER.pack(rho.n, rho.extent[0], rho.extent[1], rho.time)
    values = np.ascontiguousarray(rho.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        values.tofile(fh)
    digest = hashlib.sha256(header)
    digest.update(values)
    return digest.hexdigest()


def read_snapshot(path) -> DensityGrid:
    with open(path, "rb") as fh:
        n, lo, hi, time = _HEADER.unpack(fh.read(_HEADER.size))
        values = np.fromfile(fh, dtype="<c16", count=n * n)
    if values.size != n * n:
        raise ValueError(f"snapshot file truncated: expected {n*n} complex "
                         f"values, got {values.size}")
    return DensityGrid(n=n, extent=(lo, hi), values=values.reshape(n, n),
                       time=time)
