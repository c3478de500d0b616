"""Fast tests of the benchmark's own references, checks and inputs.

    python3 -m pytest bench

They sit outside the package's ``testpaths``, so the package's test suite
does not collect them.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import checks
from workloads import WORKLOADS, expected_window, round_configs

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------- references agree at small L t

def _theta_direct(mass, gamma, cutoff, kT, frequency, t):
    """Theta(t) as one plain quad of the frequency-domain integrand."""
    def f(w):
        weight = w if kT == 0 else (2.0 * kT if w == 0 else
                                    w / math.tanh(0.5 * w / kT))
        return weight * sum(0.5 * t * t * np.sinc(0.5 * (w + s) * t / math.pi)
                            ** 2 for s in (frequency, -frequency))
    value = scipy.integrate.quad(f, 0.0, cutoff, limit=2000, epsabs=0.0,
                                 epsrel=1e-12)[0]
    return 0.5 * (2.0 * mass * gamma / math.pi) * value


@pytest.mark.parametrize("frequency", [0.0, 1e-4, 0.7])
def test_sici_theta_matches_direct_quadrature(frequency):
    t = np.array([0.01, 0.05, 0.2])           # Lambda t from 2 to 40
    got = checks.theta_zero_T(1.0, 0.05, 200.0, frequency, t)
    ref = [_theta_direct(1.0, 0.05, 200.0, 0.0, frequency, tk) for tk in t]
    np.testing.assert_allclose(got, ref, rtol=1e-10)


@pytest.mark.parametrize("t", [0.02, 0.1, 0.3])
def test_qawo_theta_matches_direct_quadrature(t):
    got = checks.theta_thermal(1.0, 1.0, 0.02, 200.0, 0.5, 1e-4, t)
    ref = _theta_direct(1.0, 0.02, 200.0, 0.5, 1e-4, t)
    assert got == pytest.approx(ref, rel=1e-10)


def test_qawo_theta_tends_to_sici_theta_as_kT_falls():
    # the thermal part of Theta grows as (kT t)^2 while kT t << 1: the two
    # references must meet at low kT
    got = checks.theta_thermal(1.0, 1.0, 0.05, 200.0, 1e-6, 1e-4, 40.0)
    ref = float(checks.theta_zero_T(1.0, 0.05, 200.0, 1e-4, [40.0])[0])
    assert got == pytest.approx(ref, rel=1e-7)


def test_quadpack_moments_integrate_the_sici_theta():
    t = np.array([0.003, 0.02, 0.1])
    i0, i1, i2 = checks.diffusion_moments(1.0, 25.0, 200.0, t)

    def theta(s):
        return float(checks.theta_zero_T(1.0, 25.0, 200.0, 0.0, [s])[0]) \
            if s > 0 else 0.0

    def running(s):    # int_0^s Theta
        return scipy.integrate.quad(theta, 0.0, s, epsrel=1e-12)[0]

    np.testing.assert_allclose(i0, [theta(tk) for tk in t], rtol=1e-10)
    np.testing.assert_allclose(i1, [running(tk) for tk in t], rtol=1e-9)
    np.testing.assert_allclose(
        i2, [2.0 * scipy.integrate.quad(running, 0.0, tk, epsrel=1e-11)[0]
             for tk in t], rtol=1e-8)


def test_cat_visibility_is_pure_dephasing_without_kinetics():
    # an immobile particle (M -> infinity) keeps its packets: the
    # visibility is the dephasing factor exp(-d^2 Theta / hbar) alone
    params = {"mass": 1e12, "hbar": 1.0, "gamma": 25.0 * 1e-12,
              "cutoff": 200.0, "separation": 2.5, "width": 0.42,
              "grid_center": 0.0}
    t = np.array([1e-3, 4e-3, 2e-2])
    got = checks.cat_visibility(params, t)
    theta = checks.theta_zero_T(1e12, 25.0 * 1e-12, 200.0, 0.0, t)
    np.testing.assert_allclose(got, np.exp(-2.5 ** 2 * theta), rtol=1e-10)


# ------------------------------------------------ perturbed outputs fail

def _manifest(out: Path, files, checks_doc) -> None:
    doc = {"files": [{"path": f, "sha256": hashlib.sha256(
        (out / f).read_bytes()).hexdigest()} for f in sorted(files)],
        "checks": checks_doc}
    (out / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")


def _passing(name, value, tol):
    return {"name": name, "value": value, "tolerance": tol, "pass": True}


def _fake_zero_temperature(out: Path, p: dict, scale: float) -> None:
    times = np.geomspace(p["t_lo"], p["t_hi"], int(p["n_points"]))
    theta = checks.theta_zero_T(p["mass"], p["gamma"], p["cutoff"],
                                p["frequency"], times)
    coh = np.exp(-p["separation"] ** 2 * theta / p["hbar"])
    alpha = -np.polyfit(np.log(times), np.log(coh), 1)[0]
    coh[40] *= scale
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.csv").write_text("t,coherence\n" + "".join(
        f"{t:.12e},{c:.12e}\n" for t, c in zip(times, coh)), "utf-8")
    (out / "fit.json").write_text(json.dumps({"alpha_fit": alpha}), "utf-8")
    _manifest(out, ["trace.csv", "fit.json"],
              [_passing("alpha_fit_rel_err", 0.001, 0.05)])


def test_zero_temperature_check_catches_a_perturbed_trace(tmp_path):
    p = round_configs("zero_T_power_law", 7)[0]["params"]
    _fake_zero_temperature(tmp_path / "good", p, 1.0)
    checks.CHECKS["zero_temperature"](tmp_path / "good", p, 0)
    _fake_zero_temperature(tmp_path / "bad", p, 1.0 + 1e-6)
    with pytest.raises(checks.CheckFailed, match="sici"):
        checks.CHECKS["zero_temperature"](tmp_path / "bad", p, 0)


def _fake_cat(out: Path, p: dict, vis_scale, trace_shift=0.0) -> None:
    times = np.linspace(0.0, p["t_end"], 60)
    vis = checks.cat_visibility(p, times) * vis_scale
    trace = np.ones_like(times)
    trace[-1] += trace_shift
    out.mkdir(parents=True, exist_ok=True)
    (out / "vis_full.csv").write_text(
        "t,visibility,trace,herm_residual,purity\n" + "".join(
            f"{t:.12e},{v:.12e},{tr:.12e},0,1\n"
            for t, v, tr in zip(times, vis, trace)), "utf-8")
    (out / "rho_final.bin").write_bytes(b"\0" * 8)
    ref = checks.cat_visibility(p, times)
    dev = np.abs(vis / ref - 1.0)[ref >= 1e-2].max()
    _manifest(out, ["vis_full.csv", "rho_final.bin"], [
        _passing("trace_drift_max", 0.0, 1e-6),
        _passing("grid_vs_exact_visibility_max_rel_err", float(dev), 2e-2)])


def test_cat_check_catches_a_perturbed_visibility_or_trace(tmp_path):
    p = round_configs("cat_state_solver", 7)[0]["params"]
    ok = np.full(60, 1.0 + 5e-3)
    _fake_cat(tmp_path / "good", p, ok)
    checks.CHECKS["full_vs_dephasing"](tmp_path / "good", p, 0)
    bad = ok.copy()
    bad[5] = 1.03
    _fake_cat(tmp_path / "vis", p, bad)
    with pytest.raises(checks.CheckFailed, match="k-quadrature"):
        checks.CHECKS["full_vs_dephasing"](tmp_path / "vis", p, 0)
    _fake_cat(tmp_path / "trace", p, ok, trace_shift=2e-6)
    with pytest.raises(checks.CheckFailed, match="trace drifts"):
        checks.CHECKS["full_vs_dephasing"](tmp_path / "trace", p, 0)


def test_manifest_check_catches_a_changed_file(tmp_path):
    p = round_configs("zero_T_power_law", 7)[0]["params"]
    _fake_zero_temperature(tmp_path, p, 1.0)
    with open(tmp_path / "fit.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    with pytest.raises(checks.CheckFailed, match="sha256"):
        checks.CHECKS["zero_temperature"](tmp_path, p, 0)


# ------------------------------------------------------------- inputs

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_configs(workload):
    assert round_configs(workload, 11) == round_configs(workload, 11)
    assert round_configs(workload, 11) != round_configs(workload, 12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_configs_pass_scenario_validation(workload, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from qbmlab.scenarios import ScenarioConfig, load_config

    for seed in range(20):
        for i, doc in enumerate(round_configs(workload, seed)):
            path = tmp_path / f"{seed}-{i}.json"
            path.write_text(json.dumps(doc), "utf-8")
            cfg = load_config(path)
            assert isinstance(cfg, ScenarioConfig)
            assert cfg.params == doc["params"]


def test_thermal_draws_keep_the_window():
    windows = {expected_window(doc["params"]) for seed in range(20)
               for doc in round_configs("thermal_crossover", seed)}
    lo, hi = zip(*windows)
    assert max(hi) - min(hi) <= 1e-9 * max(hi)
    assert max(lo) == min(lo)
