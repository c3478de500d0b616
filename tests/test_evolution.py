"""Grid evolution: dephasing closed form, the Strang-split solver vs an
exact Fourier-characteristics solution, conservation laws, snapshot I/O."""
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special

from qbmlab.params import BathParams, SystemParams
from qbmlab.coefficients import CoefficientSet, diffusion_zero_T_free
from qbmlab.evolution import (MIN_STEPS, RESOLVED_VISIBILITY,
                              STEPS_TO_RESOLVE, CatStateSpec, DensityGrid,
                              EvolveConfig, TermToggles, dephasing_factor,
                              evolve_dephasing, evolve_full,
                              free_cat_log_rho, free_cat_log_visibility,
                              grid_trace, hermiticity_residual,
                              init_cat_state, min_eigenvalue_estimate,
                              purity, read_snapshot, sample_bilinear,
                              suggest_timestep, write_snapshot)
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
    with pytest.raises(RuntimeError, match="non-finite values detected at "
                                           "step 1 "):
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
