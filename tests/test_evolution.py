"""Grid evolution: dephasing closed form, the Strang-split solver vs an
exact Fourier-characteristics solution, conservation laws, snapshot I/O."""
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special

from qbmlab.params import BathParams, SystemParams
from qbmlab.coefficients import (CoefficientSet, decoherence_exponent,
                                 diffusion_zero_T_free)
from qbmlab.evolution import (MIN_STEPS, RESOLVED_VISIBILITY,
                              STEPS_TO_RESOLVE, CatStateSpec, DensityGrid,
                              EvolveConfig, TermToggles, dephasing_factor,
                              evolve_dephasing, evolve_full,
                              free_cat_log_rho, free_cat_log_visibility,
                              grid_trace, hermiticity_residual,
                              init_cat_state, min_eigenvalue_estimate,
                              purity, read_snapshot, sample_bilinear,
                              suggest_timestep, write_snapshot)
from qbmlab.evolution import (_dst_matrix, _half_blocks, _half_flow,
                              _half_grid, _half_work, _kinetic_flow,
                              _laplacian_eigenvalues, _mirror_symmetric,
                              _parity_blocks, _toeplitz, _visibility)
from qbmlab.analysis import fringe_visibility

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

def test_sample_bilinear_exact_on_bilinear_function():
    n = 64
    x = np.linspace(-1.0, 1.0, n)
    vals = np.add.outer(2.0 * x, 3.0 * x).astype(complex)  # 2 x + 3 x'
    rho = DensityGrid(n=n, extent=(-1.0, 1.0), values=vals, time=0.0)
    got = sample_bilinear(rho, 0.123, -0.456)
    assert got.real == pytest.approx(2 * 0.123 + 3 * (-0.456), rel=1e-12)


def test_sample_bilinear_out_of_grid():
    spec = CatStateSpec(separation=2.0, width=0.5)
    rho = init_cat_state(spec, 160, 8.0)
    with pytest.raises(ValueError):
        sample_bilinear(rho, 10.0, 0.0)


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
    coeffs = CoefficientSet.zero_T_free(SYS, BATH)
    x = rho0.axis()
    ip = int(np.argmin(np.abs(x - 0.5 * spec.separation)))
    im = int(np.argmin(np.abs(x + 0.5 * spec.separation)))
    for i, j in ((ip, im), (ip, ip), (im, im)):
        log_rho = free_cat_log_rho(spec, SYS, BATH, coeffs, x[i], x[j],
                                   [0.1])
        assert np.exp(log_rho[0]) == pytest.approx(exact[i, j], rel=1e-10)


def test_exact_route_rejects_other_dynamics():
    spec = CatStateSpec(separation=1.0, width=0.5)
    t = [0.05, 0.1]
    coeffs = CoefficientSet.zero_T_free(SYS, BATH)
    bound = SystemParams(frequency=0.5)
    with pytest.raises(ValueError, match="frequency"):
        free_cat_log_visibility(spec, bound, BATH, coeffs, t)
    damped = CoefficientSet(diffusion=coeffs.diffusion,
                            dissipation=lambda s: 0.3)
    with pytest.raises(ValueError, match="dissipation"):
        free_cat_log_visibility(spec, SYS, BATH, damped, t)
    with pytest.raises(ValueError, match="dissipation"):
        free_cat_log_rho(spec, SYS, BATH, damped, 0.5, -0.5, t)


def test_exact_route_calls_each_coefficient_once():
    # every coefficient is called once, on the whole time array
    t = np.linspace(0.01, 0.1, 17)
    closed = CoefficientSet.zero_T_free(SYS, BATH)
    calls = []

    def counted(f):
        def wrapped(s):
            calls.append(np.shape(s))
            return f(s)
        return wrapped

    coeffs = CoefficientSet(diffusion=counted(closed.diffusion),
                            dissipation=counted(closed.dissipation),
                            anomalous=counted(closed.anomalous),
                            freq_shift=counted(lambda s: 0.0))
    free_cat_log_visibility(CatStateSpec(separation=1.0, width=0.5), SYS,
                            BATH, coeffs, t)
    assert calls == [t.shape] * 4


def test_diffusion_only_run_matches_dephasing_closed_form():
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, 128, 7.0)
    toggles = TermToggles(kinetic=False, potential=False)
    cfg = EvolveConfig(dt=2e-4, t_end=0.02, record_every=10 ** 6)
    run = evolve_full(rho0, SYS, BATH, cfg, terms=toggles)
    ref = evolve_dephasing(rho0, SYS, BATH, 0.02)
    assert np.abs(run.final.values - ref.values).max() <= 1e-6


def test_run_without_diagnostics_keeps_the_grid():
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, 128, 7.0)
    cfg = EvolveConfig(dt=2e-3, t_end=0.02, record_every=4)
    toggles = TermToggles(kinetic=False, potential=False)
    full = evolve_full(rho0, SYS, BATH, cfg, terms=toggles, cat_spec=spec)
    bare = evolve_full(rho0, SYS, BATH, cfg, terms=toggles, cat_spec=spec,
                       diagnostics=False)
    assert bare.snapshot_steps == full.snapshot_steps
    for a, b in zip(bare.snapshots, full.snapshots):
        np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(bare.purity, full.purity)
    for name in ("trace", "herm_residual", "visibility"):
        values = getattr(bare, name)
        assert values.shape == bare.times.shape
        assert np.all(np.isnan(values))


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


# ------------------------------------------------- parity kinetic flow

def _random_rho(n: int, seed: int) -> np.ndarray:
    # neither Hermitian nor symmetric under the mirror x_i <-> x_{n-1-i}
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _phases(n: int, dx: float, h: float) -> np.ndarray:
    lam = _laplacian_eigenvalues(n, dx)
    return np.exp(0.5j * SYS.hbar * h / SYS.mass * lam)


def _dense_propagator(n: int, dx: float, h: float) -> np.ndarray:
    s = _dst_matrix(n)
    return (s * _phases(n, dx, h)) @ s


def _flow_buffers(n: int):
    return (np.empty((n, n), dtype=complex),
            np.empty((n // 2, n), dtype=complex))


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


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_parity_flow_matches_dense_propagator(n):
    dx, h = 8.0 / (n - 1), 3e-3
    u = _dense_propagator(n, dx, h)
    rho = _random_rho(n, n)
    ref = u @ rho @ u.conj().T
    blocks = _parity_blocks(_dst_matrix(n), _phases(n, dx, h))
    assert not _mirror_symmetric(rho)
    _kinetic_flow(rho, *_flow_buffers(n), blocks)
    assert np.abs(rho - ref).max() <= 1e-13 * np.abs(ref).max()


def _half_flow_grid(rho: np.ndarray, dx: float, h: float) -> np.ndarray:
    # one kinetic substep on rho's top rows, rebuilt to the full grid
    n = rho.shape[0]
    top = rho[:n - n // 2].copy()
    blocks = _parity_blocks(_dst_matrix(n), _phases(n, dx, h))
    _half_flow(top, _half_work(n), _half_blocks(blocks))
    return _half_grid(top)


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_mirror_flow_matches_dense_propagator(n):
    dx, h = 8.0 / (n - 1), 3e-3
    u = _dense_propagator(n, dx, h)
    rho = _mirror_rho(n, n)
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


def test_mirror_flow_skips_non_finite_state():
    # NaN != NaN: a symmetric state holding a NaN is not taken as
    # mirror-symmetric, so it would run on the full grid
    n = 64
    rho = _mirror_rho(n, 3)
    assert _mirror_symmetric(rho)
    rho[5, 9] = rho[n - 6, n - 10] = np.nan
    assert not _mirror_symmetric(rho)


@pytest.mark.parametrize("n", [64, 65, 160, 161])
def test_kinetic_run_matches_dense_propagator(n):
    # off-centre grid, and a last step half as long as the others
    values = _random_rho(n, 1000 + n)
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


def _blocks_512() -> tuple:
    n = 512
    return _parity_blocks(_dst_matrix(n), _phases(n, 12.0 / (n - 1), 1e-3))


def test_kinetic_flow_allocates_no_full_grid():
    # the fold, the four half-size products, the unfold and the
    # transposes all work in the caller's arrays
    rho = _random_rho(512, 7)
    assert not _mirror_symmetric(rho)
    blocks, (buf, scratch) = _blocks_512(), _flow_buffers(512)
    peak = _peak_bytes(lambda: _kinetic_flow(rho, buf, scratch, blocks))
    assert peak < rho.nbytes / 4


def test_mirror_flow_allocates_no_full_grid():
    # the column fold, the products and the unfold work in the caller's
    # arrays; what is left is numpy's ufunc buffers for strided operands
    rho = _mirror_rho(512, 7)
    top, work = rho[:256].copy(), _half_work(512)
    blocks = _half_blocks(_blocks_512())
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
    # random mirror-symmetric, non-Hermitian states on a grid centred at
    # 0, with diffusion on and the potential off and on
    sys = SystemParams(frequency=frequency)
    values = _mirror_rho(n, 3000 + n)
    rho0 = DensityGrid(n=n, extent=(-4.0, 4.0), values=values, time=0.0)
    dt = 2e-3
    run = evolve_full(rho0, sys, BATH,
                      EvolveConfig(dt=dt, t_end=3 * dt, record_every=10 ** 6))
    assert run.mirror_steps == 3
    ref = _dense_strang_run(values, rho0.extent, sys, BATH, dt, 3)
    assert np.abs(run.final.values - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [160, 161])
def test_half_path_diagnostics_match_full_grid(n):
    # a centred cat plus a mirror-symmetric, non-Hermitian perturbation;
    # every step's scalars against the public functions on its grid
    spec = CatStateSpec(separation=1.0, width=0.5)
    cat = init_cat_state(spec, n, 8.0)
    rho0 = DensityGrid(n=n, extent=cat.extent, time=0.0,
                       values=cat.values + 1e-3 * _mirror_rho(n, 4000 + n))
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
            _visibility(grid.values, grid.extent, spec), rel=1e-13)
    assert run.herm_residual.min() > 1e-5


@pytest.mark.parametrize("n", [160, 161])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_state_raises_on_either_path(n, symmetric):
    # hbar h lam / 2M overflows: the kinetic phase, and so the state, is
    # not finite after the first step's flow, on the top rows of a
    # centred cat or on the full grid of a random state
    spec = CatStateSpec(separation=1.0, width=0.5)
    rho0 = init_cat_state(spec, n, 8.0)
    if not symmetric:
        rho0 = DensityGrid(n=n, extent=rho0.extent, time=0.0,
                           values=_random_rho(n, n))
    assert _mirror_symmetric(rho0.values) == symmetric
    for diagnostics in (True, False):
        with pytest.raises(RuntimeError, match=r"non-finite values detected "
                                               r"at step 1 \(t = 0.1\)"):
            evolve_full(rho0, SystemParams(mass=1e-320), BATH,
                        EvolveConfig(dt=0.1, t_end=0.3), cat_spec=spec,
                        diagnostics=diagnostics)


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
    coeffs = CoefficientSet.zero_T_free(SYS, BATH)
    exact = np.exp(free_cat_log_visibility(spec, SYS, BATH, coeffs,
                                           result.times))
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
    coeffs = CoefficientSet.zero_T_free(SYS, BATH)
    vis = np.exp(free_cat_log_visibility(spec, SYS, BATH, coeffs, [0.05]))
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
    for diagnostics in (True, False):
        with pytest.raises(RuntimeError, match="non-finite values detected "
                                               "at step 1 "):
            evolve_full(rho0, SystemParams(mass=1e-320), BATH, cfg,
                        diagnostics=diagnostics)


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
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.1, t_end=1.0, boundary="periodic")


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
    rho = init_cat_state(spec, 161, 8.0)
    path = tmp_path / "rho.bin"
    write_snapshot(rho, path)
    raw = path.read_bytes()
    assert len(raw) == 28 + 161 * 161 * 16
    import struct
    n, lo, hi, t = struct.unpack("<Iddd", raw[:28])
    assert n == 161 and lo == pytest.approx(-4.0) \
        and hi == pytest.approx(4.0) and t == 0.0
