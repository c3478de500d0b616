"""Acceptance gate: end-to-end behavior at pinned tolerances.

Each criterion prints one PASS/FAIL line (through the capture plug) so a
plain pytest run shows the scoreboard.  Assertions come after the print:
a failing criterion still reports its measured numbers.

Budgets are wall-clock seconds on the reference container; they guard
against quadrature regressions that silently turn minutes into hours.
"""
import math
import time

import numpy as np
import pytest
import scipy.integrate

from qbmlab.params import (BathParams, SystemParams, decoherence_time,
                           default_fit_window, derive_timescales)
from qbmlab.analysis import CoherenceTrace, fit_power_law, model_select
from qbmlab.coefficients import (alpha_theory, exponent_nested_reference,
                                 exponent_trace)
from qbmlab.evolution import (CatStateSpec, EvolveConfig, TermToggles,
                              evolve_full, init_cat_state)
from qbmlab.kernels import kernel_trace
from qbmlab.scenarios import ScenarioConfig, run_scenario

SYS = SystemParams(mass=1.0, frequency=1e-4, hbar=1.0)
COLD = BathParams(gamma=0.05, cutoff=200.0, kT=0.0)
HOT = BathParams(gamma=0.1, cutoff=200.0, kT=50.0)


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def _coherence(sysp, bath, times, separation, method="auto"):
    theta = exponent_trace(sysp, bath, times, method=method).theta
    return CoherenceTrace(times, np.exp(-separation ** 2 * theta
                                        / sysp.hbar), "offdiag_factor")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def cold_trace():
    t0 = time.monotonic()
    lo, hi = default_fit_window(derive_timescales(SYS, COLD))
    times = np.geomspace(lo, hi, 64)
    trace = _coherence(SYS, COLD, times, 2.0)
    return trace, time.monotonic() - t0


@pytest.fixture(scope="module")
def hot_trace():
    t0 = time.monotonic()
    tau = decoherence_time(SYS, HOT, 2.0)
    times = np.linspace(5.0 / HOT.cutoff, 3.0 * tau, 64)
    trace = _coherence(SYS, HOT, times, 2.0)
    return trace, tau, time.monotonic() - t0


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    # the expensive one: full master-equation integration at strong
    # coupling, defaults of the full_vs_dephasing scenario
    out = tmp_path_factory.mktemp("acceptance") / "full"
    t0 = time.monotonic()
    manifest = run_scenario(ScenarioConfig(scenario="full_vs_dephasing",
                                           output_dir=str(out)))
    elapsed = time.monotonic() - t0
    checks = {c["name"]: c for c in manifest["checks"]}
    return manifest, checks, elapsed, out


# --------------------------------------------------------------- criteria

def test_ac1_zero_temperature_power_law(cold_trace, capsys):
    trace, elapsed = cold_trace
    fit = fit_power_law(trace)
    target = alpha_theory(SYS, COLD, 2.0)
    rel = abs(fit.alpha_fit - target) / target
    ok = rel <= 0.05 and fit.r_squared >= 0.999 and elapsed <= 10.0
    _report(capsys, "AC-1", ok,
            f"alpha rel err {rel:.4g} (tol 0.05), r^2 {fit.r_squared:.6f} "
            f"(min 0.999), {elapsed:.1f}s (budget 10s)")
    assert rel <= 0.05
    assert fit.r_squared >= 0.999
    assert elapsed <= 10.0


def test_ac2_alpha_scales_with_separation_squared(capsys):
    t0 = time.monotonic()
    lo, hi = default_fit_window(derive_timescales(SYS, COLD))
    times = np.geomspace(lo, hi, 64)
    alphas = {d: fit_power_law(_coherence(SYS, COLD, times, d)).alpha_fit
              for d in (1.0, 2.0, 4.0)}
    elapsed = time.monotonic() - t0
    r21 = alphas[2.0] / alphas[1.0]
    r41 = alphas[4.0] / alphas[1.0]
    worst = max(abs(r21 / 4.0 - 1.0), abs(r41 / 16.0 - 1.0))
    ok = worst <= 0.02 and elapsed <= 30.0
    _report(capsys, "AC-2", ok,
            f"ratio(2d)/4 off by {abs(r21 / 4 - 1):.2e}, "
            f"ratio(4d)/16 off by {abs(r41 / 16 - 1):.2e} (tol 0.02), "
            f"{elapsed:.1f}s (budget 30s)")
    assert worst <= 0.02
    assert elapsed <= 30.0


def test_ac3_high_temperature_exponential(hot_trace, capsys):
    trace, tau, elapsed = hot_trace
    sel = model_select(trace)
    rate_theory = (2.0 * SYS.mass * HOT.gamma * HOT.kT * 4.0
                   / (SYS.hbar * SYS.hbar))
    rel = abs(sel.exponential.rate - rate_theory) / rate_theory
    product = sel.exponential.rate * tau
    ok = (rel <= 0.05 and abs(product - 1.0) <= 0.05
          and sel.model == "exponential" and elapsed <= 10.0)
    _report(capsys, "AC-3", ok,
            f"rate rel err {rel:.4g} (tol 0.05), rate*tau_dec "
            f"{product:.4f} (1 +- 0.05), model {sel.model!r}, "
            f"{elapsed:.1f}s (budget 10s)")
    assert rel <= 0.05
    assert abs(product - 1.0) <= 0.05
    assert sel.model == "exponential"
    assert elapsed <= 10.0


def test_ac4_coefficient_cross_validation(capsys):
    t0 = time.monotonic()

    # (a) noise kernel: closed form vs direct quadrature, 100 log-spaced
    # lags.  The kernel crosses zero inside this range, so each point is
    # normalized by max(|value| at that point, envelope peak * 1e-3) to
    # keep the comparison meaningful at the crossings.
    s = np.geomspace(1e-3, 1.0, 100)
    closed = kernel_trace(SYS, COLD, s, method="closed_zero_T").values
    quad = kernel_trace(SYS, COLD, s, method="quadrature").values
    peak = np.max(np.abs(closed))
    denom = np.maximum(np.abs(closed), 1e-3 * peak)
    kernel_err = float(np.max(np.abs(closed - quad) / denom))

    # (b) decay exponent: closed form vs frequency-space quadrature on 20
    # log-spaced times spanning the bath-memory to late-power-law range
    times = np.geomspace(0.05, 2000.0, 20)
    th_closed = exponent_trace(SystemParams(mass=1.0, frequency=0.0,
                                            hbar=1.0), COLD, times,
                               method="closed_zero_T").theta
    th_quad = exponent_trace(SystemParams(mass=1.0, frequency=0.0,
                                          hbar=1.0), COLD, times,
                             method="quadrature").theta
    theta_err = float(np.max(np.abs(th_quad - th_closed)
                             / np.abs(th_closed)))

    # (c) the literal nested double integral, affordable at early times
    sys0 = SystemParams(mass=1.0, frequency=0.0, hbar=1.0)
    nested_err = max(
        abs(exponent_nested_reference(sys0, COLD, float(t))
            - th) / th
        for t, th in zip(times[:9], th_closed[:9]))

    elapsed = time.monotonic() - t0
    ok = (kernel_err <= 1e-8 and theta_err <= 1e-6
          and nested_err <= 1e-6 and elapsed <= 60.0)
    _report(capsys, "AC-4", ok,
            f"kernel {kernel_err:.2e} (tol 1e-8), exponent {theta_err:.2e} "
            f"(tol 1e-6), nested {nested_err:.2e} (tol 1e-6), "
            f"{elapsed:.1f}s (budget 60s)")
    assert kernel_err <= 1e-8
    assert theta_err <= 1e-6
    assert nested_err <= 1e-6
    assert elapsed <= 60.0


def _reference_log_visibility(sysp, bath, spec, times):
    """ln fringe visibility of the free cat under the kinetic + diffusion
    equation, by k-quadrature of the characteristic solution (as
    _exact_characteristics in test_evolution.py) with QUADPACK moments of
    D(s) = (2 M gamma / pi)(1 - cos Lambda s)/s; shares no code with the
    package's closed-form route."""
    p = 2.0 * sysp.mass * bath.gamma / math.pi
    lam = bath.cutoff
    i0, i1, i2 = (np.array([scipy.integrate.quad(
        lambda s: 2.0 * p * math.sin(0.5 * lam * s) ** 2 / s * (t - s) ** m,
        0.0, t, limit=400)[0] for t in times]) for m in range(3))
    sig = spec.width
    # trapezoid in k: every integrand here is a Gaussian at least ~0.7
    # wide in k, far wider than the step
    k = np.linspace(-18.0 / sig, 18.0 / sig, 401)
    v = sysp.hbar * k / sysp.mass
    centers = (spec.grid_center + 0.5 * spec.separation,
               spec.grid_center - 0.5 * spec.separation)

    def rho(x, xp):   # up to the normalization, which cancels below
        mean, q = 0.5 * (x + xp), x - xp
        q0 = q - v[None, :] * times[:, None]
        acc = sum(np.exp(1j * k * (mean - 0.5 * (ca + cb)))[None, :]
                  * np.exp(-(q0 - (ca - cb)) ** 2 / (8.0 * sig * sig))
                  for ca in centers for cb in centers)
        damp = np.exp(-(q * q * i0[:, None]
                        - 2.0 * q * v[None, :] * i1[:, None]
                        + v[None, :] ** 2 * i2[:, None]) / sysp.hbar
                      - k * k * sig * sig / 2.0)
        return (acc * damp).sum(axis=1)

    xp, xm = centers
    return np.log(2.0 * np.abs(rho(xp, xm))
                  / (rho(xp, xp).real + rho(xm, xm).real))


def test_ac5_full_dynamics_vs_dephasing(full_run, capsys):
    manifest, checks, elapsed, out = full_run
    dep = checks["dephasing_match_max_norm"]["value"]
    grid = checks["grid_vs_exact_visibility_max_rel_err"]
    rel = checks["visibility_slope_rel_err"]["value"]
    fit = manifest["fit"]
    slope = fit["slope"]

    # Reference slope at the run's own recorded window times.  At these
    # defaults the full dynamics does not follow t^(-alpha): momentum
    # spreading carries each packet's own coherence to (x+, x-), and the
    # visibility rises through the window.
    prm = manifest["config_echo"]["params"]
    sysp = SystemParams(mass=prm["mass"], frequency=prm["frequency"],
                        hbar=prm["hbar"])
    bath = BathParams(gamma=prm["gamma"], cutoff=prm["cutoff"], kT=prm["kT"])
    spec = CatStateSpec(separation=prm["separation"], width=prm["width"],
                        grid_center=prm["grid_center"])
    times = np.loadtxt(out / "vis_full.csv", delimiter=",", skiprows=1,
                       usecols=0)
    lo, hi = fit["window"]
    tw = times[(times >= lo) & (times <= hi)]
    s_ref = np.polyfit(np.log(tw),
                       _reference_log_visibility(sysp, bath, spec, tw), 1)[0]
    alpha = alpha_theory(sysp, bath, spec.separation)
    rel_ref = abs(s_ref + alpha) / alpha

    slope_ok = abs(slope - s_ref) <= 0.15 * abs(s_ref)
    rel_ok = abs(rel - rel_ref) <= 0.15 * rel_ref
    ok = (dep <= 1e-6 and grid["pass"] and slope_ok and rel_ok
          and elapsed <= 600.0)
    _report(capsys, "AC-5", ok,
            f"dephasing-limit match {dep:.2e} (tol 1e-6), grid vs exact "
            f"{grid['value']:.2e} (tol {grid['tolerance']:g}), window slope "
            f"{slope:.4g} vs reference {s_ref:.4g} (tol 0.15 rel), slope "
            f"rel err {rel:.4g} vs reference {rel_ref:.4g} (tol 0.15 rel), "
            f"{elapsed:.0f}s (budget 600s)")
    assert dep <= 1e-6
    assert elapsed <= 600.0
    assert grid["pass"]
    assert len(tw) == fit["n_points"]
    assert slope_ok
    assert rel_ok


def test_ac6_conservation_laws(full_run, capsys):
    manifest, checks, _, _ = full_run
    drift = checks["trace_drift_max"]["value"]
    herm = checks["hermiticity_residual_max"]["value"]

    # free-packet variance growth against the textbook closed form
    spec = CatStateSpec(separation=0.0, width=0.5)
    rho0 = init_cat_state(spec, 208, 12.0)
    sys0 = SystemParams(mass=1.0, frequency=0.0, hbar=1.0)
    toggles = TermToggles(potential=False, diffusion=False)
    run = evolve_full(rho0, sys0, COLD,
                      EvolveConfig(dt=2e-4, t_end=0.3,
                                   record_every=10 ** 6),
                      terms=toggles)
    x = run.final.axis()
    p = np.real(np.diag(run.final.values)) * run.final.dx
    p /= p.sum()
    var = float(np.sum(p * x * x) - np.sum(p * x) ** 2)
    expect = 0.25 + (0.3 / (2 * 0.5)) ** 2
    spread_err = abs(var / expect - 1.0)

    ok = drift <= 1e-6 and herm <= 1e-8 and spread_err <= 5e-3
    _report(capsys, "AC-6", ok,
            f"trace drift {drift:.2e} (tol 1e-6), hermiticity {herm:.2e} "
            f"(tol 1e-8), spreading off by {spread_err:.2e} (tol 5e-3)")
    assert drift <= 1e-6
    assert herm <= 1e-8
    assert spread_err <= 5e-3


def test_ac7_model_discrimination(cold_trace, hot_trace, capsys):
    cold, _ = cold_trace
    hot, _, _ = hot_trace
    sel_cold = model_select(cold)
    sel_hot = model_select(hot)
    ok = (sel_cold.model == "power_law"
          and sel_cold.delta_r_squared >= 0.01
          and sel_hot.model == "exponential"
          and -sel_hot.delta_r_squared >= 0.01)
    _report(capsys, "AC-7", ok,
            f"cold pick {sel_cold.model!r} margin "
            f"{sel_cold.delta_r_squared:.4f}, hot pick {sel_hot.model!r} "
            f"margin {-sel_hot.delta_r_squared:.4f} (min 0.01 each)")
    assert sel_cold.model == "power_law"
    assert sel_cold.delta_r_squared >= 0.01
    assert sel_hot.model == "exponential"
    assert -sel_hot.delta_r_squared >= 0.01
