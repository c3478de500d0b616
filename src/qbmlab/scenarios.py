"""Named end-to-end experiments with reproducible manifests.

Each scenario resolves its defaults, runs deterministically, writes its
artifacts (CSV traces, fit JSON, binary grids) under ``output_dir``, and
emits ``manifest.json`` listing every file with a sha256 alongside the
pass/fail checks.  Two runs with the same config produce byte-identical
artifacts; nothing here depends on wall-clock or thread scheduling.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .params import (SystemParams, BathParams, coherence_length,
                     decoherence_time, derive_timescales, default_fit_window)
from .coefficients import alpha_theory, exponent_trace
from .evolution import (RESOLVED_VISIBILITY, CatStateSpec, EvolveConfig,
                        TermToggles, evolve_dephasing, evolve_full,
                        free_cat_log_visibility, init_cat_state,
                        suggest_timestep, write_snapshot)
from .analysis import CoherenceTrace, _ols, fit_power_law, model_select

__all__ = ["ScenarioConfig", "SCENARIOS", "load_config", "run_scenario",
           "MANIFEST_VERSION"]

MANIFEST_VERSION = "0.2.0"

SCENARIOS = ("zero_temperature", "high_temperature", "separation_sweep",
             "full_vs_dephasing")

# Per-scenario parameter schema: key -> default (None = derived at runtime).
_BASE = {"mass": 1.0, "frequency": 1e-4, "hbar": 1.0,
         "gamma": 0.05, "cutoff": 200.0, "kT": 0.0}
_DEFAULTS: dict[str, dict] = {
    "zero_temperature": {**_BASE, "separation": 2.0, "width": 0.25,
                         "n_points": 64, "t_lo": 50.0, "t_hi": 2000.0},
    "high_temperature": {**_BASE, "gamma": 0.1, "kT": 50.0,
                         "separation": 2.0, "width": 0.25, "n_points": 64,
                         "t_lo": None, "t_hi": None},
    "separation_sweep": {**_BASE, "separations": [1.0, 2.0, 4.0],
                         "width": 0.25, "n_points": 64,
                         "t_lo": 50.0, "t_hi": 2000.0},
    "full_vs_dephasing": {**_BASE, "frequency": 0.0, "gamma": 25.0,
                          "separation": 2.0, "width": 0.4,
                          "grid_center": 0.0, "grid_n": 256,
                          "grid_extent": 12.0, "dt": None, "t_end": 0.15,
                          "record_every": 1000},
}

# The dephasing-dominated reading of the dynamics assumes the packet
# separation well exceeds the coherence length; below this multiple the
# manifest carries a warning (never a failure).
APPROX_SEP_MULTIPLE = 3.0

# The grid's fringe visibility must match the exact route to GRID_EXACT_TOL
# (relative) wherever the exact visibility is at least
# GRID_EXACT_MIN_VISIBILITY, the level suggest_timestep resolves; inside
# the fit window a larger deviation marks the grid as below its noise
# floor there.
GRID_EXACT_TOL = 2e-2
GRID_EXACT_MIN_VISIBILITY = RESOLVED_VISIBILITY

_FLOAT_FMT = "{:.12e}"
# vis_full.csv carries 17 significant digits, enough to round-trip every
# double: the grid-vs-exact deviation a reader recomputes from it is about
# 1e-7, and 13 digits would leave only six digits of it.
_ROUND_TRIP_FMT = "{:.16e}"


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: dict = field(default_factory=dict)
    output_dir: str = "qbm_out"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; options {SCENARIOS}")
        if not isinstance(self.params, dict):
            raise ValueError("config field 'params' must be a JSON object")
        allowed = _DEFAULTS[self.scenario]
        for key, value in self.params.items():
            if key not in allowed:
                raise ValueError(
                    f"unknown config key {key!r} for scenario "
                    f"{self.scenario!r}")
            if key == "separations":
                if (not isinstance(value, (list, tuple)) or len(value) == 0
                        or not all(isinstance(v, (int, float))
                                   and not isinstance(v, bool) for v in value)):
                    raise ValueError(
                        "config key 'separations' must be a non-empty list "
                        "of numbers")
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be a number, "
                                 f"got {value!r}")


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    known = {"scenario", "params", "output_dir"}
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
    if "scenario" not in raw:
        raise ValueError("config missing required key 'scenario'")
    return ScenarioConfig(scenario=raw["scenario"],
                          params=raw.get("params", {}),
                          output_dir=raw.get("output_dir", "qbm_out"))


def _resolved(cfg: ScenarioConfig) -> dict:
    out = dict(_DEFAULTS[cfg.scenario])
    out.update(cfg.params)
    return out


def _sys_bath(p: dict) -> tuple[SystemParams, BathParams]:
    return (SystemParams(mass=p["mass"], frequency=p["frequency"],
                         hbar=p["hbar"]),
            BathParams(gamma=p["gamma"], cutoff=p["cutoff"], kT=p["kT"]))


def _write_text(path: Path, text: str) -> str:
    """Write text as UTF-8; returns the sha256 of the bytes written."""
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _csv_text(header: str, rows, fmt: str) -> str:
    """The header line, then one line per row: floats formatted with fmt,
    other values with str."""
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt.format(c) if isinstance(c, float)
                              else str(c) for c in row))
    return "\n".join(lines) + "\n"


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _check(name: str, value: float, tolerance: float, passed: bool) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance,
            "pass": bool(passed)}


def _emit_manifest(out_dir: Path, cfg: ScenarioConfig, resolved: dict,
                   files: dict, checks: list, warnings: list,
                   fit: dict | None = None) -> dict:
    """Write manifest.json; ``files`` maps each artifact's path, relative
    to out_dir, to the sha256 its writer returned."""
    manifest = {
        "version": MANIFEST_VERSION,
        "config_echo": {"scenario": cfg.scenario, "params": resolved},
        "files": [{"path": rel, "sha256": files[rel]}
                  for rel in sorted(files)],
        "checks": checks,
        "warnings": warnings,
    }
    if fit is not None:
        manifest["fit"] = fit
    _write_text(out_dir / "manifest.json", _json_text(manifest))
    return manifest


def _coherence_from_exponent(sysp, bath, times, separation):
    trace = exponent_trace(sysp, bath, times)
    return np.exp(-separation * separation * trace.theta / sysp.hbar)


def _run_zero_temperature(cfg: ScenarioConfig, out_dir: Path) -> dict:
    p = _resolved(cfg)
    sysp, bath = _sys_bath(p)
    d = p["separation"]
    times = np.geomspace(p["t_lo"], p["t_hi"], int(p["n_points"]))
    coh = _coherence_from_exponent(sysp, bath, times, d)
    files = {"trace.csv": _write_text(
        out_dir / "trace.csv",
        _csv_text("t,coherence", zip(times, coh), _FLOAT_FMT))}

    trace = CoherenceTrace(times, coh, "offdiag_factor")
    sel = model_select(trace)
    alpha = alpha_theory(sysp, bath, d)
    rel = abs(sel.power_law.alpha_fit - alpha) / alpha
    fit_doc = {"model": sel.model, "alpha_fit": sel.power_law.alpha_fit,
               "r_squared": sel.power_law.r_squared,
               "window": list(sel.power_law.window),
               "alpha_theory": alpha, "rel_err": rel}
    files["fit.json"] = _write_text(out_dir / "fit.json", _json_text(fit_doc))

    checks = [
        _check("alpha_fit_rel_err", rel, 0.05, rel <= 0.05),
        _check("power_law_r_squared", sel.power_law.r_squared, 0.999,
               sel.power_law.r_squared >= 0.999),
        _check("model_select_margin", sel.delta_r_squared, 0.01,
               sel.model == "power_law" and sel.delta_r_squared >= 0.01),
    ]
    return _emit_manifest(out_dir, cfg, p, files, checks, [])


def _run_high_temperature(cfg: ScenarioConfig, out_dir: Path) -> dict:
    p = _resolved(cfg)
    sysp, bath = _sys_bath(p)
    d = p["separation"]
    tau_d = decoherence_time(sysp, bath, d)
    t_lo = p["t_lo"] if p["t_lo"] is not None else 5.0 / bath.cutoff
    t_hi = p["t_hi"] if p["t_hi"] is not None else 3.0 * tau_d
    p = {**p, "t_lo": t_lo, "t_hi": t_hi}
    times = np.linspace(t_lo, t_hi, int(p["n_points"]))
    coh = _coherence_from_exponent(sysp, bath, times, d)
    files = {"trace.csv": _write_text(
        out_dir / "trace.csv",
        _csv_text("t,coherence", zip(times, coh), _FLOAT_FMT))}

    trace = CoherenceTrace(times, coh, "offdiag_factor")
    sel = model_select(trace)
    rate_theory = (2.0 * sysp.mass * bath.gamma * bath.kT * d * d
                   / (sysp.hbar * sysp.hbar))
    rate = sel.exponential.rate
    rel = abs(rate - rate_theory) / rate_theory
    product = rate * tau_d
    fit_doc = {"model": sel.model, "rate": rate,
               "r_squared": sel.exponential.r_squared,
               "window": list(sel.exponential.window),
               "rate_theory": rate_theory, "rel_err": rel,
               "decoherence_time": tau_d}
    files["fit.json"] = _write_text(out_dir / "fit.json", _json_text(fit_doc))

    checks = [
        _check("rate_rel_err", rel, 0.05, rel <= 0.05),
        _check("rate_times_decoherence_time", product, 0.05,
               abs(product - 1.0) <= 0.05),
        _check("model_select_margin", -sel.delta_r_squared, 0.01,
               sel.model == "exponential" and -sel.delta_r_squared >= 0.01),
    ]
    return _emit_manifest(out_dir, cfg, p, files, checks, [])


def _run_separation_sweep(cfg: ScenarioConfig, out_dir: Path) -> dict:
    p = _resolved(cfg)
    sysp, bath = _sys_bath(p)
    seps = [float(d) for d in p["separations"]]
    times = np.geomspace(p["t_lo"], p["t_hi"], int(p["n_points"]))
    # Theta is separation-independent: computed once for every separation.
    theta = exponent_trace(sysp, bath, times).theta

    files: dict[str, str] = {}
    alphas: dict[float, float] = {}
    for d in seps:
        coh = np.exp(-d * d * theta / sysp.hbar)
        sub = f"d_{d:g}"
        files[f"{sub}/trace.csv"] = _write_text(
            out_dir / sub / "trace.csv",
            _csv_text("t,coherence", zip(times, coh), _FLOAT_FMT))
        fit = fit_power_law(CoherenceTrace(times, coh, "offdiag_factor"))
        alpha = alpha_theory(sysp, bath, d)
        doc = {"model": "power_law", "alpha_fit": fit.alpha_fit,
               "r_squared": fit.r_squared, "window": list(fit.window),
               "alpha_theory": alpha,
               "rel_err": abs(fit.alpha_fit - alpha) / alpha}
        files[f"{sub}/fit.json"] = _write_text(out_dir / sub / "fit.json",
                                               _json_text(doc))
        alphas[d] = fit.alpha_fit

    d0 = seps[0]
    checks = []
    for d in seps[1:]:
        expected = (d / d0) ** 2
        ratio = alphas[d] / alphas[d0]
        rel = abs(ratio / expected - 1.0)
        checks.append(_check(f"alpha_ratio_d{d:g}_vs_d{d0:g}", ratio,
                             0.02, rel <= 0.02))
    return _emit_manifest(out_dir, cfg, p, files, checks, [])


def _run_full_vs_dephasing(cfg: ScenarioConfig, out_dir: Path) -> dict:
    p = _resolved(cfg)
    sysp, bath = _sys_bath(p)
    spec = CatStateSpec(separation=p["separation"], width=p["width"],
                        grid_center=p["grid_center"])
    warnings: list[str] = []
    lam_q = coherence_length(sysp, bath)
    if spec.separation < APPROX_SEP_MULTIPLE * lam_q:
        warnings.append(
            f"approximation regime violated: separation {spec.separation:g} "
            f"< {APPROX_SEP_MULTIPLE:g} x coherence_length ({lam_q:g}); the "
            "dephasing-dominated reading assumes separation >> "
            "coherence_length")

    rho0 = init_cat_state(spec, int(p["grid_n"]), p["grid_extent"])
    dt = p["dt"] if p["dt"] is not None else suggest_timestep(
        sysp, bath, spec.separation, p["t_end"])
    p = {**p, "dt": dt}
    run_cfg = EvolveConfig(dt=dt, t_end=p["t_end"],
                           record_every=int(p["record_every"]))
    result = evolve_full(rho0, sysp, bath, run_cfg, cat_spec=spec)

    vis_text = _csv_text(
        "t,visibility,trace,herm_residual,purity",
        zip(result.times, result.visibility, result.trace,
            result.herm_residual, result.purity), _ROUND_TRIP_FMT)
    files = {"vis_full.csv": _write_text(out_dir / "vis_full.csv", vis_text),
             "rho_final.bin": write_snapshot(result.final,
                                             out_dir / "rho_final.bin")}

    checks = [
        _check("trace_drift_max", float(np.max(np.abs(result.trace - 1.0))),
               1e-6, bool(np.max(np.abs(result.trace - 1.0)) <= 1e-6)),
        _check("hermiticity_residual_max", float(np.max(result.herm_residual)),
               1e-8, bool(np.max(result.herm_residual) <= 1e-8)),
    ]

    # Pure-dephasing cross-check: kinetic/potential off reduces the solver
    # to the closed-form elementwise factor.
    t_cmp = min(0.02, p["t_end"])
    dep_cfg = EvolveConfig(dt=dt, t_end=t_cmp, record_every=10 ** 9)
    toggles = TermToggles(kinetic=False, potential=False)
    dep_run = evolve_full(rho0, sysp, bath, dep_cfg, terms=toggles)
    dep_exact = evolve_dephasing(rho0, sysp, bath, t_cmp)
    max_norm = float(np.max(np.abs(dep_run.final.values - dep_exact.values)))
    checks.append(_check("dephasing_match_max_norm", max_norm, 1e-6,
                         max_norm <= 1e-6))

    # Grid-free exact route for the free particle at kT = 0.
    log_vis_exact = dev = None
    if bath.kT == 0 and sysp.frequency == 0:
        log_vis_exact = free_cat_log_visibility(spec, sysp, bath,
                                                result.times)
        with np.errstate(divide="ignore"):
            dev = np.abs(np.expm1(np.log(result.visibility) - log_vis_exact))
        resolved = log_vis_exact >= math.log(GRID_EXACT_MIN_VISIBILITY)
        grid_err = float(np.max(dev[resolved]))
        checks.append(_check("grid_vs_exact_visibility_max_rel_err",
                             grid_err, GRID_EXACT_TOL,
                             grid_err <= GRID_EXACT_TOL))

    # Late-time visibility slope vs the analytic exponent, over the
    # default regime window (clipped to the run).  Where the grid strays
    # from the exact route inside the window it is below its noise floor,
    # and the slope comes from the exact route at the same times.
    window = default_fit_window(derive_timescales(sysp, bath))
    w_lo, w_hi = window[0], min(window[1], float(result.times[-1]))
    mask = (result.times >= w_lo) & (result.times <= w_hi)
    alpha = alpha_theory(sysp, bath, spec.separation)
    fit_doc = None
    if int(mask.sum()) >= 8 and w_lo < w_hi:
        fit_doc = {"alpha_theory": alpha, "window": [w_lo, w_hi],
                   "n_points": int(mask.sum()), "slope_route": "grid",
                   "below_noise_floor": None,
                   "grid_vs_exact_window_max_rel_err": None}
        log_vw = None
        if dev is not None:
            window_err = float(np.max(dev[mask]))
            below = window_err > GRID_EXACT_TOL
            fit_doc.update(below_noise_floor=below,
                           grid_vs_exact_window_max_rel_err=window_err)
            if below:
                fit_doc["slope_route"] = "exact"
                log_vw = log_vis_exact[mask]
        if log_vw is None and np.all(result.visibility[mask] > 0):
            log_vw = np.log(result.visibility[mask])
        if log_vw is not None:
            slope, _, r2 = _ols(np.log(result.times[mask]), log_vw)
            rel = abs(slope - (-alpha)) / alpha
            checks.append(_check("visibility_slope_rel_err", rel, 0.15,
                                 rel <= 0.15))
            fit_doc.update(slope=slope, rel_err=rel, r_squared=r2)
        else:
            checks.append(_check("visibility_slope_rel_err", math.inf, 0.15,
                                 False))
            fit_doc.update(slope=None, rel_err=None, r_squared=None,
                           note="visibility hit zero inside the window")
        files["fit.json"] = _write_text(out_dir / "fit.json",
                                        _json_text(fit_doc))
    else:
        warnings.append(
            f"fit window [{w_lo:g}, {w_hi:g}] not covered by the run; "
            "visibility slope check skipped")

    return _emit_manifest(out_dir, cfg, p, files, checks, warnings,
                          fit=fit_doc)


_RUNNERS = {
    "zero_temperature": _run_zero_temperature,
    "high_temperature": _run_high_temperature,
    "separation_sweep": _run_separation_sweep,
    "full_vs_dephasing": _run_full_vs_dephasing,
}


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Run a named scenario; returns the manifest dict (also written to
    ``output_dir/manifest.json``).  Callers map any failed check to a
    nonzero exit."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg.scenario](cfg, out_dir)
