"""Grid evolution: dephasing closed form, the Strang-split solver vs an
exact Fourier-characteristics solution, conservation laws, snapshot I/O."""
import multiprocessing
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.integrate
import scipy.optimize
import scipy.special

from qbmlab.params import BathParams, SystemParams
from qbmlab.coefficients import decoherence_exponent, diffusion_zero_T_free
from qbmlab.evolution import (MIN_STEPS, RESOLVED_VISIBILITY,
                              STEPS_TO_RESOLVE, CatStateSpec, DensityGrid,
                              EvolveConfig, TermToggles, evolve_dephasing,
                              evolve_full, free_cat_log_rho,
                              free_cat_log_visibility, init_cat_state,
                              min_eigenvalue_estimate, read_snapshot,
                              suggest_timestep, write_snapshot)
from qbmlab.evolution import (_block_flow, _cat_probe, _dst_matrix,
                              _flow_block, _half_blocks, _half_flow,
                              _half_work, _laplacian_eigenvalues,
                              _mirror_symmetric, _packable,
                              _packed_visibility, _toeplitz, _unpack)
from references import (dephasing_factor, fringe_visibility, grid_trace,
                        half_grid, half_visibility, hermiticity_residual,
                        packable, purity, serial_half_flow)

SYS = SystemParams()
BATH = BathParams(gamma=1.0, cutoff=40.0, kT=0.0)


# ------------------------------------------------------------- cat state

def test_cat_state_unit_trace_and_hermitian():
    spec = CatStateSpec(separation=2.0, width=0.5)
    rho = init_cat_state(spec, 160, 8.0)
    assert grid_trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert hermiticity_residual(rho) == 0.0
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue_estimate(rho) >= -1e-12


@pytest.mark.parametrize("n", [160, 161])
@pytest.mark.parametrize("center", [0.0, 1.7])
def test_cat_state_is_exactly_mirror_symmetric(n, center):
    spec = CatStateSpec(separation=2.0, width=0.5, grid_center=center)
    rho = init_cat_state(spec, n, 8.0)
    np.testing.assert_array_equal(rho.values, rho.values[::-1, ::-1])
    assert rho.extent == pytest.approx((center - 4.0, center + 4.0))


@pytest.mark.parametrize("n", [160, 161])
def test_cat_state_is_exactly_hermitian(n):
    # with mirror symmetry, what evolve_full needs to hold a run packed
    rho = init_cat_state(CatStateSpec(separation=2.0, width=0.5), n, 8.0)
    np.testing.assert_array_equal(rho.values, rho.values.conj().T)


def test_hermiticity_residual_equals_direct_formula():
    values = _random_rho(161, 11)
    grid = DensityGrid(n=161, extent=(-4.0, 4.0), values=values, time=0.0)
    assert hermiticity_residual(grid) == float(
        np.max(np.abs(values - values.conj().T)))


def test_cat_state_visibility_is_one():
    spec = CatStateSpec(separation=2.0, width=0.5)
    rho = init_cat_state(spec, 160, 8.0)
    assert fringe_visibility(rho, spec) == pytest.approx(1.0, abs=1e-6)


def test_cat_state_extent_guard():
    spec = CatStateSpec(separation=2.0, width=0.5)
    with pytest.raises(ValueError, match="separation"):
        init_cat_state(spec, 128, 6.0)   # needs >= 2 + 12*0.5 = 8


def test_cat_state_resolution_guard():
    spec = CatStateSpec(separation=2.0, width=0.25)
    with pytest.raises(ValueError, match="points per width"):
        init_cat_state(spec, 64, 8.0)    # width/dx = 1.97 < 8


def test_cat_spec_validation():
    with pytest.raises(ValueError):
        CatStateSpec(separation=-1.0, width=0.5)
    with pytest.raises(ValueError):
        CatStateSpec(separation=1.0, width=0.0)


def test_density_grid_validation():
    ok = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        DensityGrid(n=4, extent=(1.0, -1.0), values=ok, time=0.0)
    with pytest.raises(ValueError):
        DensityGrid(n=4, extent=(-1.0, 1.0), values=np.zeros((4, 3)),
                    time=0.0)
    bad = ok.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        DensityGrid(n=4, extent=(-1.0, 1.0), values=bad, time=0.0)


# ------------------------------------------------------------- dephasing

def test_dephasing_factor_limits():
    assert dephasing_factor(SYS, BATH, 0.0, 5.0) == 1.0
    assert dephasing_factor(SYS, BATH, 2.0, 0.0) == 1.0
    assert 0.0 < dephasing_factor(SYS, BATH, 2.0, 1.0) < 1.0


def test_evolve_dephasing_matches_factor_and_keeps_diagonal():
    spec = CatStateSpec(separation=2.0, width=0.5)
    rho0 = init_cat_state(spec, 161, 8.0)
    t = 0.5
    rho = evolve_dephasing(rho0, SYS, BATH, t)
    # diagonal untouched
    np.testing.assert_allclose(np.diag(rho.values), np.diag(rho0.values),
                               rtol=0, atol=1e-15)
    # visibility equals the closed-form factor
    vis = fringe_visibility(rho, spec)
    assert vis == pytest.approx(dephasing_factor(SYS, BATH, 2.0, t),
                                abs=1e-9)
    assert rho.time == pytest.approx(t)


def test_evolve_dephasing_composes():
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, 160, 8.0)
    once = evolve_dephasing(rho0, SYS, BATH, 0.7)
    twice = evolve_dephasing(evolve_dephasing(rho0, SYS, BATH, 0.3),
                             SYS, BATH, 0.4)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


# ----------------------------------------------------------- observables

def test_visibility_degenerate_separation():
    spec = CatStateSpec(separation=0.0, width=0.5)
    rho = init_cat_state(spec, 160, 8.0)
    assert fringe_visibility(rho, spec) == 1.0


# ------------------------------------------------------------ full solver

def _exact_characteristics(rho0: DensityGrid, spec: CatStateSpec,
                           sys, bath, t: float,
                           columns=None) -> np.ndarray:
    """Exact solution of the kinetic + (x - x')^2-damping dynamics by
    Fourier transform in the mean coordinate: along characteristics the
    relative coordinate is transported while the damping accumulates
    moments I0, I1, I2 of the diffusion coefficient.  Only the grid
    columns x'_j for j in ``columns`` when given, else the whole grid."""
    I0, _ = scipy.integrate.quad(
        lambda s: diffusion_zero_T_free(sys, bath, s), 0, t, limit=400)
    I1, _ = scipy.integrate.quad(
        lambda s: diffusion_zero_T_free(sys, bath, s) * (t - s), 0, t,
        limit=400)
    I2, _ = scipy.integrate.quad(
        lambda s: diffusion_zero_T_free(sys, bath, s) * (t - s) ** 2, 0, t,
        limit=400)

    x = rho0.axis()
    n = len(x)
    sig = spec.width
    centers = (spec.grid_center + 0.5 * spec.separation,
               spec.grid_center - 0.5 * spec.separation)
    # Fourier transform over X of each Gaussian product term:
    # rho0_hat(k, q) = N^2 sigma sqrt(2 pi) sum_ab exp(-i k mu_ab)
    #                  exp(-k^2 sigma^2 / 2) exp(-(q - delta_ab)^2/(8 sig^2))
    g = np.exp(-(x[:, None] - np.array(centers)[None, :]) ** 2
               / (4.0 * sig * sig)).sum(axis=1)
    norm2 = 1.0 / (np.sum(g * g) * rho0.dx)   # N^2 of the discrete state

    kmax = 18.0 / sig
    nk = 1441
    k = np.linspace(-kmax, kmax, nk)
    dk = k[1] - k[0]
    v = sys.hbar * k / sys.mass               # transport speed of q

    columns = range(n) if columns is None else columns
    out = np.empty((n, len(columns)), dtype=complex)
    pref = norm2 * sig * np.sqrt(2.0 * np.pi) / (2.0 * np.pi)
    for col, j in enumerate(columns):
        X = 0.5 * (x + x[j])                   # (n,)
        q = x - x[j]                           # (n,)
        q0 = q[:, None] - v[None, :] * t       # shifted relative coord
        acc = np.zeros((n, nk), dtype=complex)
        for ca in centers:
            for cb in centers:
                mu = 0.5 * (ca + cb)
                delta = ca - cb
                acc += (np.exp(-1j * k * mu)[None, :]
                        * np.exp(-(q0 - delta) ** 2 / (8.0 * sig * sig)))
        damp = np.exp(-(q[:, None] ** 2 * I0
                        - 2.0 * q[:, None] * v[None, :] * I1
                        + v[None, :] ** 2 * I2) / sys.hbar)
        phase = np.exp(1j * np.outer(X, k)) * np.exp(-k * k * sig * sig / 2.0)
        out[:, col] = (phase * acc * damp).sum(axis=1) * dk
    return pref * out


@pytest.fixture(scope="module")
def oracle_run():
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, 160, 8.0)
    cfg = EvolveConfig(dt=2e-4, t_end=0.1, record_every=100)
    result = evolve_full(rho0, SYS, BATH, cfg, cat_spec=spec)
    exact = _exact_characteristics(rho0, spec, SYS, BATH, 0.1)
    return spec, rho0, result, exact


def test_full_solver_matches_exact_solution(oracle_run):
    _, _, result, exact = oracle_run
    final = result.final.values
    scale = np.abs(exact).max()
    assert np.abs(final - exact).max() / scale <= 2e-3


def test_full_solver_visibility_matches_exact(oracle_run):
    spec, _, result, exact = oracle_run
    n = result.final.n
    grid = DensityGrid(n=n, extent=result.final.extent, values=exact,
                       time=0.1)
    assert result.visibility[-1] == pytest.approx(
        fringe_visibility(grid, spec), rel=5e-3)


def test_full_solver_conservation(oracle_run):
    _, _, result, _ = oracle_run
    assert np.max(np.abs(result.trace - 1.0)) <= 1e-10
    assert np.max(result.herm_residual) <= 1e-12


def test_exact_route_matches_characteristics(oracle_run):
    # the grid nodes nearest the packet centers x+- stand in for x+-
    spec, rho0, _, exact = oracle_run
    x = rho0.axis()
    ip = int(np.argmin(np.abs(x - 0.5 * spec.separation)))
    im = int(np.argmin(np.abs(x + 0.5 * spec.separation)))
    for i, j in ((ip, im), (ip, ip), (im, im)):
        log_rho = free_cat_log_rho(spec, SYS, BATH, x[i], x[j], [0.1])
        assert np.exp(log_rho[0]) == pytest.approx(exact[i, j], rel=1e-10)


def test_exact_route_rejects_other_dynamics():
    spec = CatStateSpec(separation=1.0, width=0.5)
    t = [0.05, 0.1]
    bound = SystemParams(frequency=0.5)
    with pytest.raises(ValueError, match="frequency = 0.5"):
        free_cat_log_visibility(spec, bound, BATH, t)
    warm = BathParams(gamma=BATH.gamma, cutoff=BATH.cutoff, kT=0.3)
    with pytest.raises(ValueError, match="kT = 0.3"):
        free_cat_log_visibility(spec, SYS, warm, t)
    with pytest.raises(ValueError, match="kT = 0.3"):
        free_cat_log_rho(spec, SYS, warm, 0.5, -0.5, t)


def test_diffusion_only_run_matches_dephasing_closed_form():
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, 128, 7.0)
    toggles = TermToggles(kinetic=False, potential=False)
    cfg = EvolveConfig(dt=2e-4, t_end=0.02, record_every=10 ** 6)
    run = evolve_full(rho0, SYS, BATH, cfg, terms=toggles)
    ref = evolve_dephasing(rho0, SYS, BATH, 0.02)
    assert np.abs(run.final.values - ref.values).max() <= 1e-6


def test_free_gaussian_spreading():
    # Kinetic term only: position variance grows as
    # sigma^2 + (hbar t / (2 M sigma))^2 for a minimum-uncertainty packet.
    spec = CatStateSpec(separation=0.0, width=0.5)
    rho0 = init_cat_state(spec, 208, 12.0)
    toggles = TermToggles(potential=False, diffusion=False)
    t_end = 0.3
    cfg = EvolveConfig(dt=2e-4, t_end=t_end, record_every=10 ** 6)
    run = evolve_full(rho0, SYS, BATH, cfg, terms=toggles)
    x = run.final.axis()
    p = np.real(np.diag(run.final.values)) * run.final.dx
    p /= p.sum()
    var = float(np.sum(p * x * x) - np.sum(p * x) ** 2)
    sig = spec.width
    expect = sig * sig + (SYS.hbar * t_end / (2.0 * SYS.mass * sig)) ** 2
    assert var == pytest.approx(expect, rel=5e-3)


# ------------------------------------------------- packed kinetic flow

def _random_rho(n: int, seed: int) -> np.ndarray:
    # neither Hermitian nor symmetric under the mirror x_i <-> x_{n-1-i}
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_hermitian(n: int, seed: int) -> np.ndarray:
    # exactly rho = rho^H, not real and not mirror-symmetric
    values = _random_rho(n, seed)
    return 0.5 * (values + values.conj().T)


def _theta(n: int, dx: float, h: float) -> np.ndarray:
    # the kinetic phases hbar h lam / 2M of one step
    return 0.5 * SYS.hbar * h / SYS.mass * _laplacian_eigenvalues(n, dx)


def _phases(n: int, dx: float, h: float) -> np.ndarray:
    return np.exp(1j * _theta(n, dx, h))


def _dense_propagator(n: int, dx: float, h: float) -> np.ndarray:
    s = _dst_matrix(n)
    return (s * _phases(n, dx, h)) @ s


@pytest.mark.parametrize("n", [64, 65, 256, 511])
def test_dst_matrix_table_equals_direct_formula(n):
    m = np.arange(1, n + 1)
    direct = np.sqrt(2.0 / (n + 1)) * np.sin(
        np.pi / (n + 1) * (np.outer(m, m) % (2 * (n + 1))))
    assert np.array_equal(_dst_matrix(n), direct)


def _mirror_rho(n: int, seed: int) -> np.ndarray:
    # exactly rho = J rho J, neither Hermitian nor real
    values = _random_rho(n, seed)
    return values + values[::-1, ::-1]


def _hermitian_mirror_rho(n: int, seed: int) -> np.ndarray:
    # exactly rho = J rho J = rho^H, not real
    values = _mirror_rho(n, seed)
    return 0.5 * (values + values.conj().T)


_HERMITIAN_MIRROR = {n: _hermitian_mirror_rho(n, 6000 + n)
                     for n in (64, 65, 160, 161)}


def _coarse_cat(n: int, spec: CatStateSpec, extent: float) -> np.ndarray:
    # init_cat_state's unnormalised psi psi^T without its resolution
    # guard, exactly mirror-symmetric as there
    u = (np.arange(n) - 0.5 * (n - 1)) * (extent / (n - 1))
    half, s2 = 0.5 * spec.separation, 4.0 * spec.width ** 2
    g = np.exp(-(u - half) ** 2 / s2) + np.exp(-(u + half) ** 2 / s2)
    return np.outer(g, g).astype(complex)


def _full_block(n: int, dx: float, h: float) -> tuple:
    # the one block of the kinetic flow on all rows of Q: B = L = S
    s = _dst_matrix(n)
    return _flow_block(s, s, _theta(n, dx, h))


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_parity_flow_matches_dense_propagator(n):
    # the single-block flow on all n rows of Q, for a Hermitian state
    # that is not mirror-symmetric
    dx, h = 8.0 / (n - 1), 3e-3
    u = _dense_propagator(n, dx, h)
    rho = _random_hermitian(n, n)
    ref = u @ rho @ u.conj().T
    assert not _mirror_symmetric(rho)
    q = rho.real + rho.imag
    _block_flow(q, np.empty_like(q), _full_block(n, dx, h))
    out = _unpack(q)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
    np.testing.assert_array_equal(out, out.conj().T)


def _packed_top(rho: np.ndarray) -> np.ndarray:
    # the top rows of Re rho + Im rho
    n = rho.shape[0]
    return rho[:n - n // 2].real + rho[:n - n // 2].imag


def _half_flow_grid(rho: np.ndarray, dx: float, h: float) -> np.ndarray:
    # one kinetic substep on rho's packed top rows, rebuilt to the full grid
    n = rho.shape[0]
    top = _packed_top(rho)
    _half_flow(top, _half_work(n), _half_blocks(_dst_matrix(n),
                                                _theta(n, dx, h)))
    return _unpack(top)


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([64, 65, 160, 161]), row=st.integers(0, 1 << 20),
       col=st.integers(0, 1 << 20), bottom=st.booleans(),
       value=st.sampled_from([0.5, -0.25j, 1e-300, 1e-300j, np.nan,
                              complex(0.0, np.nan)]),
       orbit=st.sampled_from(["entry", "mirror", "mirror + adjoint"]))
def test_top_row_path_test_agrees_with_whole_grid(n, row, col, bottom, value,
                                                  orbit):
    # a Hermitian mirror state with one entry changed in the top rows or
    # the bottom ones, alone, with its mirror image, or with its mirror
    # image and their adjoints (which keeps both symmetries unless NaN)
    h, m = n // 2, n - n // 2
    i = m + row % h if bottom else row % m
    delta = np.zeros((n, n), complex)
    delta[i, col % n] = value
    if orbit != "entry":
        delta = delta + delta[::-1, ::-1]
    if orbit == "mirror + adjoint":
        delta = delta + delta.conj().T
    v = _HERMITIAN_MIRROR[n] + delta
    assert _packable(v) == packable(v)
    if orbit == "mirror + adjoint":
        assert _packable(v) == bool(np.isfinite(value))


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_top_row_path_test_on_whole_grids(n):
    cat = _coarse_cat(n, CatStateSpec(separation=1.0, width=0.5), 8.0)
    for v, want in ((_HERMITIAN_MIRROR[n], True), (cat, True),
                    (_mirror_rho(n, n), False), (_random_rho(n, n), False),
                    (np.full((n, n), np.nan), False)):
        assert _packable(v) == packable(v) == want


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_half_grid_equals_whole_grid_unpack(n):
    # the unpack from top rows, bit for bit the mirrored-then-transposed
    # formula it replaces
    q = np.random.default_rng(7000 + n).standard_normal((n, n))
    top = (q + q[::-1, ::-1])[:n - n // 2]
    assert np.array_equal(_unpack(top), half_grid(top))


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_full_row_unpack_is_exactly_hermitian(n):
    # all n rows: (Q + Q^T)/2 + i (Q - Q^T)/2, exactly Hermitian
    q = np.random.default_rng(7100 + n).standard_normal((n, n))
    rho = _unpack(q)
    np.testing.assert_array_equal(rho.real, 0.5 * q + 0.5 * q.T)
    np.testing.assert_array_equal(rho.imag, 0.5 * q - 0.5 * q.T)
    np.testing.assert_array_equal(rho, rho.conj().T)


@pytest.mark.parametrize("n", [64, 65, 160, 161])
@pytest.mark.parametrize("separation", [1.0, 1.37, 0.0])
def test_packed_probe_matches_four_products(n, separation):
    # G = W^T Q W from two products against four Q w products
    spec = CatStateSpec(separation=separation, width=0.5)
    top = _packed_top(_coarse_cat(n, spec, 8.0) + 1e-2 * _HERMITIAN_MIRROR[n])
    probe = _cat_probe(_dst_matrix(n), (-4.0, 4.0), spec)
    packed = None
    if probe is not None:
        w = np.stack(probe, axis=1)
        packed = (w, np.ascontiguousarray(w[::-1]))
    got, want = _packed_visibility(top, packed), half_visibility(top, probe)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    if probe is None:
        assert got == want == 1.0


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_mirror_flow_matches_dense_propagator(n):
    dx, h = 8.0 / (n - 1), 3e-3
    u = _dense_propagator(n, dx, h)
    rho = _hermitian_mirror_rho(n, n)
    ref = u @ rho @ u.conj().T
    assert _mirror_symmetric(rho)
    out = _half_flow_grid(rho, dx, h)
    scale = np.abs(ref).max()
    assert np.abs(out - ref).max() <= 1e-13 * scale
    np.testing.assert_array_equal(out, out[::-1, ::-1])
    if n % 2:
        # the middle row and column, held once, stand for no mirror row
        mid = n // 2
        assert np.abs(out[mid] - ref[mid]).max() <= 1e-13 * scale
        assert np.abs(out[:, mid] - ref[:, mid]).max() <= 1e-13 * scale


def _packed_flow_case(n: int):
    # a packed Hermitian mirror state, fresh work arrays and one step's
    # blocks
    dx = 8.0 / (n - 1)
    return (_packed_top(_hermitian_mirror_rho(n, 5000 + n)), _half_work(n),
            _half_blocks(_dst_matrix(n), _theta(n, dx, 3e-3)))


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_concurrent_mirror_flow_equals_serial_blocks(n):
    # the odd block runs on the worker thread: bit for bit the serial flow
    top, work, blocks = _packed_flow_case(n)
    ref = top.copy()
    for _ in range(3):
        _half_flow(top, work, blocks)
        serial_half_flow(ref, _half_work(n), blocks)
        assert np.array_equal(top, ref)


def test_mirror_flow_reuses_one_worker_thread():
    top, work, blocks = _packed_flow_case(64)
    start = threading.active_count()
    for _ in range(200):
        _half_flow(top, work, blocks)
    assert threading.active_count() <= start + 1


def test_worker_block_error_reaches_the_caller():
    # only the odd block overflows: the caller's np.errstate holds on the
    # worker thread, and its error is raised here
    top, work, blocks = _packed_flow_case(64)
    odd_only = np.full_like(top, 5e307)    # odd fold 1e308, even fold 0
    odd_only[:, 32:] = -5e307
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        _half_flow(odd_only, work, blocks)
    ref = top.copy()
    _half_flow(top, work, blocks)
    serial_half_flow(ref, _half_work(64), blocks)
    assert np.array_equal(top, ref)


def _flow_and_compare(top, work, blocks, expected) -> None:
    _half_flow(top, work, blocks)
    if not np.array_equal(top, expected):
        raise AssertionError("the forked child's flow differs")


def test_child_forked_after_a_flow_completes_a_flow():
    # the child inherits no running worker thread; it must start its own
    top, work, blocks = _packed_flow_case(64)
    _half_flow(top, work, blocks)
    expected = top.copy()
    serial_half_flow(expected, _half_work(64), blocks)
    child = multiprocessing.get_context("fork").Process(
        target=_flow_and_compare, args=(top, work, blocks, expected))
    child.start()
    child.join(timeout=30.0)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung, "the forked child's flow hung"
    assert child.exitcode == 0


def test_mirror_flow_skips_non_finite_state():
    # NaN != NaN: a symmetric state holding a NaN is not taken as
    # mirror-symmetric
    n = 64
    rho = _mirror_rho(n, 3)
    assert _mirror_symmetric(rho)
    rho[5, 9] = rho[n - 6, n - 10] = np.nan
    assert not _mirror_symmetric(rho)


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_kinetic_run_matches_dense_propagator(n):
    # off-centre grid, a Hermitian state that is not mirror-symmetric, and
    # a last step half as long as the others
    values = _random_hermitian(n, 1000 + n)
    rho0 = DensityGrid(n=n, extent=(1.3 - 4.0, 1.3 + 4.0), values=values,
                       time=0.0)
    dt = 2e-3
    cfg = EvolveConfig(dt=dt, t_end=2.5 * dt, record_every=10 ** 6)
    run = evolve_full(rho0, SYS, BATH, cfg,
                      terms=TermToggles(potential=False, diffusion=False))
    assert len(run.times) == 4
    assert run.mirror_steps == 0
    u, u_last = (_dense_propagator(n, rho0.dx, h) for h in (dt, 0.5 * dt))
    ref = values
    for step in (u, u, u_last):
        ref = step @ ref @ step.conj().T
    assert np.abs(run.final.values - ref).max() <= 1e-13 * np.abs(ref).max()


def _peak_bytes(flow) -> int:
    tracemalloc.start()
    try:
        flow()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_kinetic_flow_allocates_no_full_grid():
    # the four products and the phases of the single-block flow work in
    # the caller's arrays; what is left is numpy's ufunc buffers for the
    # transposed operand.  q is the packed real grid of all 512 rows
    n = 512
    rho = _random_hermitian(n, 7)
    assert not _mirror_symmetric(rho)
    q = rho.real + rho.imag
    tmp, block = np.empty_like(q), _full_block(n, 12.0 / (n - 1), 1e-3)
    peak = _peak_bytes(lambda: _block_flow(q, tmp, block))
    assert peak < q.nbytes / 4


def test_mirror_flow_allocates_no_full_grid():
    # the column fold, the products, the phases and the unfold work in the
    # caller's arrays; what is left is numpy's ufunc buffers for strided
    # operands.  rho is the packed real grid, half a complex one's bytes
    n = 512
    rho = _hermitian_mirror_rho(n, 7)
    rho = rho.real + rho.imag
    top, work = rho[:256].copy(), _half_work(n)
    blocks = _half_blocks(_dst_matrix(n), _theta(n, 12.0 / (n - 1), 1e-3))
    peak = _peak_bytes(lambda: _half_flow(top, work, blocks))
    assert peak < rho.nbytes / 4


def test_toeplitz_dephase_factor():
    n, dx, d_theta = 161, 8.0 / 160, 0.37
    x = np.linspace(-4.0, 4.0, n)
    line = np.exp(-(np.arange(1 - n, n) * dx) ** 2 * d_theta / SYS.hbar)
    factor = _toeplitz(line)
    direct = np.exp(-np.subtract.outer(x, x) ** 2 * d_theta / SYS.hbar)
    assert np.abs(factor - direct).max() <= 1e-14
    np.testing.assert_array_equal(factor, factor.T)
    np.testing.assert_array_equal(factor, factor[::-1, ::-1])


@pytest.mark.parametrize("n", [160, 161])
@pytest.mark.parametrize("center", [0.0, 1.7])
def test_centred_cat_takes_mirror_path_every_step(n, center):
    spec = CatStateSpec(separation=1.0, width=0.5, grid_center=center)
    rho0 = init_cat_state(spec, n, 8.0)
    run = evolve_full(rho0, SYS, BATH, EvolveConfig(dt=2e-3, t_end=0.01),
                      cat_spec=spec)
    assert run.mirror_steps == len(run.times) - 1 == 5
    final = run.final.values
    np.testing.assert_array_equal(final, final[::-1, ::-1])


@pytest.mark.parametrize("n", [160, 161])
def test_centred_potential_takes_half_path(n):
    # x is built from exactly antisymmetric offsets, so x^2 - x'^2 keeps
    # rho = J rho J on a grid centred at 0
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, n, 8.0)
    run = evolve_full(rho0, SystemParams(frequency=2.0), BATH,
                      EvolveConfig(dt=2e-3, t_end=0.01), cat_spec=spec)
    assert run.mirror_steps == len(run.times) - 1 == 5
    final = run.final.values
    np.testing.assert_array_equal(final, final[::-1, ::-1])


def _dense_strang_run(values, extent, sys, bath, dt, n_steps):
    # Strang steps D/2 U D/2 on the full grid: dense U, each half-step's
    # factor exp(-(x-x')^2 dTheta/hbar - i (M W^2/2 hbar)(x^2-x'^2) dt/2)
    n = values.shape[0]
    x = np.linspace(extent[0], extent[1], n)
    u = _dense_propagator(n, (extent[1] - extent[0]) / (n - 1), dt)
    q2 = np.subtract.outer(x, x) ** 2
    pot = (-0.5j * sys.mass * sys.frequency ** 2 / sys.hbar) \
        * np.subtract.outer(x * x, x * x)
    half_times = 0.5 * dt * np.arange(2 * n_steps + 1)
    theta = [decoherence_exponent(sys, bath, t) if t > 0 else 0.0
             for t in half_times]
    rho = values.copy()
    for k in range(n_steps):
        for j in (2 * k, 2 * k + 1):
            rho = rho * np.exp(-q2 * (theta[j + 1] - theta[j]) / sys.hbar
                               + pot * 0.5 * dt)
            if j == 2 * k:
                rho = u @ rho @ u.conj().T
    return rho


@pytest.mark.parametrize("n", [64, 65, 160, 161])
@pytest.mark.parametrize("frequency", [0.0, 2.0])
def test_half_path_run_matches_dense_propagator(n, frequency):
    # random Hermitian, mirror-symmetric states on a grid centred at 0,
    # with diffusion on and the potential off and on
    sys = SystemParams(frequency=frequency)
    values = _hermitian_mirror_rho(n, 3000 + n)
    rho0 = DensityGrid(n=n, extent=(-4.0, 4.0), values=values, time=0.0)
    dt = 2e-3
    run = evolve_full(rho0, sys, BATH,
                      EvolveConfig(dt=dt, t_end=3 * dt, record_every=10 ** 6))
    assert run.mirror_steps == 3
    ref = _dense_strang_run(values, rho0.extent, sys, BATH, dt, 3)
    assert np.abs(run.final.values - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [64, 65, 160, 161])
@pytest.mark.parametrize("frequency", [0.0, 2.0])
def test_non_hermitian_mirror_state_takes_full_path(n, frequency):
    # the packed state holds only Hermitian grids: a state that is not
    # exactly Hermitian is refused, mirror-symmetric or not, or with one
    # diagonal entry's imaginary part 1e-300, and the message names
    # max|rho0 - rho0^H|
    sys = SystemParams(frequency=frequency)
    nudged = _hermitian_mirror_rho(n, 3000 + n)
    nudged[2, 2] += 1e-300j
    for values in (_mirror_rho(n, 3000 + n), _random_rho(n, 3000 + n),
                   nudged):
        rho0 = DensityGrid(n=n, extent=(-4.0, 4.0), values=values, time=0.0)
        residual = float(np.abs(values - values.conj().T).max())
        assert residual > 0.0
        with pytest.raises(ValueError, match=re.escape(
                f"max|rho0 - rho0^H| = {residual:.3g}")):
            evolve_full(rho0, sys, BATH, EvolveConfig(dt=2e-3, t_end=6e-3))


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_off_centre_run_matches_dense_strang_run(n):
    # a Hermitian state on an off-centre grid, with diffusion and the
    # potential on: x^2 - x'^2 is not mirror-symmetric, so all n rows
    sys = SystemParams(frequency=2.0)
    values = _random_hermitian(n, 3100 + n)
    rho0 = DensityGrid(n=n, extent=(1.7 - 4.0, 1.7 + 4.0), values=values,
                       time=0.0)
    dt = 2e-3
    run = evolve_full(rho0, sys, BATH,
                      EvolveConfig(dt=dt, t_end=3 * dt, record_every=10 ** 6))
    assert run.mirror_steps == 0
    ref = _dense_strang_run(values, rho0.extent, sys, BATH, dt, 3)
    assert np.abs(run.final.values - ref).max() <= 1e-13 * np.abs(ref).max()
    np.testing.assert_array_equal(run.herm_residual, 0.0)


@pytest.mark.parametrize("n", [160, 161])
def test_full_row_diagnostics_match_references(n):
    # an off-centre trapped cat runs on all n rows; every step's scalars
    # against the references on its unpacked grid
    spec = CatStateSpec(separation=1.0, width=0.5, grid_center=1.7)
    run = evolve_full(init_cat_state(spec, n, 8.0), SystemParams(frequency=2.0),
                      BATH, EvolveConfig(dt=2e-3, t_end=0.01, record_every=1),
                      cat_spec=spec)
    assert run.mirror_steps == 0
    assert run.snapshot_steps == list(range(6))
    for k, grid in enumerate(run.snapshots):
        assert run.trace[k] == pytest.approx(grid_trace(grid), rel=1e-13)
        assert run.purity[k] == pytest.approx(purity(grid), rel=1e-13)
        assert run.herm_residual[k] == hermiticity_residual(grid) == 0.0
        assert run.visibility[k] == pytest.approx(
            fringe_visibility(grid, spec), rel=1e-13)


@pytest.mark.parametrize("n", [160, 161])
def test_half_path_diagnostics_match_full_grid(n):
    # a centred cat plus a Hermitian, mirror-symmetric perturbation;
    # every step's scalars against the references on its grid
    spec = CatStateSpec(separation=1.0, width=0.5)
    cat = init_cat_state(spec, n, 8.0)
    rho0 = DensityGrid(n=n, extent=cat.extent, time=0.0,
                       values=cat.values
                       + 1e-3 * _hermitian_mirror_rho(n, 4000 + n))
    run = evolve_full(rho0, SystemParams(frequency=2.0), BATH,
                      EvolveConfig(dt=2e-3, t_end=0.01, record_every=1),
                      cat_spec=spec)
    assert run.mirror_steps == 5
    assert run.snapshot_steps == list(range(6))
    for k, grid in enumerate(run.snapshots):
        assert run.trace[k] == pytest.approx(grid_trace(grid), rel=1e-13)
        assert run.purity[k] == pytest.approx(purity(grid), rel=1e-13)
        assert run.herm_residual[k] == pytest.approx(
            hermiticity_residual(grid), rel=1e-13)
        assert run.visibility[k] == pytest.approx(
            fringe_visibility(grid, spec), rel=1e-13)


@pytest.mark.parametrize("n", [160, 161])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_state_raises_on_either_path(n, symmetric):
    # hbar h lam / 2M overflows: the kinetic phase, and so the state, is
    # not finite after the first step's flow, on the top rows of a
    # centred cat or on all rows of a random Hermitian state
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, n, 8.0)
    if not symmetric:
        rho0 = DensityGrid(n=n, extent=rho0.extent, time=0.0,
                           values=_random_hermitian(n, n))
    assert _mirror_symmetric(rho0.values) == symmetric
    with pytest.raises(RuntimeError, match=r"non-finite values detected "
                                           r"at step 1 \(t = 0.1\)"):
        evolve_full(rho0, SystemParams(mass=1e-320), BATH,
                    EvolveConfig(dt=0.1, t_end=0.3), cat_spec=spec)


def test_off_centre_potential_takes_full_path():
    # x^2 - x'^2 is not mirror-symmetric about an off-centre grid's middle
    spec = CatStateSpec(separation=1.0, width=0.5, grid_center=1.7)
    rho0 = init_cat_state(spec, 160, 8.0)
    run = evolve_full(rho0, SystemParams(frequency=2.0), BATH,
                      EvolveConfig(dt=2e-3, t_end=0.01))
    assert run.mirror_steps == 0


def test_full_solver_probe_matches_exact_route(oracle_run):
    # the visibility probe reads the sine-series interpolant of the grid;
    # at dt = 2e-4 the run's worst deviation from the exact route over
    # every recorded time is 1.28e-4, the grid's spatial error
    spec, _, result, _ = oracle_run
    exact = np.exp(free_cat_log_visibility(spec, SYS, BATH, result.times))
    assert np.max(np.abs(result.visibility / exact - 1.0)) <= 2e-4


@pytest.fixture(scope="module")
def fine_grid_case():
    # dx = 7/255: the grid's own error (1.1e-5 against the exact solution
    # at t = 0.05) sits well under the splitting error of the steps below
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, 256, 7.0)
    x = rho0.axis()
    cols = [int(np.argmin(np.abs(x - 0.5 * spec.separation))),
            int(np.argmin(np.abs(x + 0.5 * spec.separation)))]
    exact = _exact_characteristics(rho0, spec, SYS, BATH, 0.05, cols)
    return spec, rho0, cols, exact


def _column_error(run, cols, exact) -> float:
    return float(np.abs(run.final.values[:, cols] - exact).max()
                 / np.abs(exact).max())


def test_strang_second_order_convergence(fine_grid_case):
    # ratios 4.09 and 3.78 when measured; each halving stays on top of
    # the grid's own error
    _, rho0, cols, exact = fine_grid_case
    errs = [_column_error(evolve_full(rho0, SYS, BATH,
                                      EvolveConfig(dt=dt, t_end=0.05)),
                          cols, exact)
            for dt in (0.05, 0.025, 0.0125)]
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=1.0)


def test_step_far_beyond_old_cfl_bound_matches_exact(fine_grid_case):
    # 100x the kinetic bound 0.25 M dx^2 / hbar that explicit RK4 needed
    spec, rho0, cols, exact = fine_grid_case
    dt = 100 * 0.25 * SYS.mass * rho0.dx ** 2 / SYS.hbar
    run = evolve_full(rho0, SYS, BATH, EvolveConfig(dt=dt, t_end=0.05),
                      cat_spec=spec)
    assert len(run.times) == 4
    assert np.all(np.isfinite(run.final.values))
    assert _column_error(run, cols, exact) <= 2e-3
    vis = np.exp(free_cat_log_visibility(spec, SYS, BATH, [0.05]))
    assert run.visibility[-1] == pytest.approx(vis[0], rel=5e-3)


# The blow-ups are the point here; the overflow warnings on the way are noise.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_input_raises_runtime_error():
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, 128, 7.0)
    cfg = EvolveConfig(dt=0.1, t_end=0.3)
    # p Cin(Lambda t) overflows: Theta is not finite
    huge = BathParams(gamma=1e308, cutoff=40.0)
    with pytest.raises(RuntimeError, match="Theta"):
        evolve_full(rho0, SYS, huge, cfg)
    # hbar h lam / 2M overflows: the kinetic phase, and so the state, is not
    with pytest.raises(RuntimeError, match="non-finite values detected "
                                           "at step 1 "):
        evolve_full(rho0, SystemParams(mass=1e-320), BATH, cfg)


def _t_res_sici(sys, bath, separation: float) -> float:
    """Where exp(-d^2 Theta / hbar) = RESOLVED_VISIBILITY at frequency 0,
    kT = 0, from Theta = (2 M gamma / pi) Cin(Lambda t), Cin by scipy."""
    level = -sys.hbar * np.log(RESOLVED_VISIBILITY) / separation ** 2
    pref = 2.0 * sys.mass * bath.gamma / np.pi

    def excess(t):
        u = bath.cutoff * t
        return pref * (np.euler_gamma + np.log(u)
                       - scipy.special.sici(u)[1]) - level

    return scipy.optimize.brentq(excess, 1e-6, 1.0, xtol=1e-15)


def test_suggest_timestep_resolves_dephasing():
    sys0 = SystemParams(frequency=0.0)
    strong = BathParams(gamma=25.0, cutoff=200.0)
    for d in (2.0, 3.0):
        t_res = _t_res_sici(sys0, strong, d)
        dt = suggest_timestep(sys0, strong, d, 0.15)
        assert STEPS_TO_RESOLVE <= t_res / dt <= 1.001 * STEPS_TO_RESOLVE
    # a run that ends before t_res, or no dephasing at all: the floor
    assert suggest_timestep(sys0, strong, 2.0, 1e-3) == 1e-3 / MIN_STEPS
    assert suggest_timestep(sys0, strong, 0.0, 0.15) == 0.15 / MIN_STEPS


def test_evolve_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.1, t_end=0.0)
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.1, t_end=1.0, record_every=0)


def test_snapshot_roundtrip(tmp_path):
    spec = CatStateSpec(separation=2.0, width=0.5)
    rho = init_cat_state(spec, 161, 8.0)
    rho = evolve_dephasing(rho, SYS, BATH, 0.3)
    path = tmp_path / "rho.bin"
    write_snapshot(rho, path)
    back = read_snapshot(path)
    assert back.n == rho.n
    assert back.extent == pytest.approx(rho.extent)
    assert back.time == pytest.approx(rho.time)
    np.testing.assert_array_equal(back.values, rho.values)


def test_snapshot_header_layout(tmp_path):
    # little-endian u32 n + 3 f64, then n^2 interleaved (re, im) f64 pairs
    spec = CatStateSpec(separation=2.0, width=0.5)
    cat = init_cat_state(spec, 161, 8.0)
    rho = DensityGrid(n=161, extent=cat.extent, time=0.0,
                      values=cat.values + 1e-3 * _random_rho(161, 17))
    assert np.abs(rho.values.imag).min() > 0.0
    path = tmp_path / "rho.bin"
    write_snapshot(rho, path)
    raw = path.read_bytes()
    assert len(raw) == 28 + 161 * 161 * 16
    n, lo, hi, t = struct.unpack("<Iddd", raw[:28])
    assert n == 161 and lo == pytest.approx(-4.0) \
        and hi == pytest.approx(4.0) and t == 0.0
    pairs = [v for z in rho.values.ravel() for v in (z.real, z.imag)]
    assert raw[28:] == struct.pack(f"<{len(pairs)}d", *pairs)
