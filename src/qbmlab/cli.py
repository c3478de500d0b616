"""Command-line entry point.

Subcommands: kernel, coeffs, alpha, evolve, fit, scenario.  Every
subcommand writes its artifacts into ``--out`` (default ``qbm_out``) and
prints the paths it wrote unless ``--quiet``.  Physics parameters come
from flags, or from a JSON ``--config`` document with keys {mass,
frequency, hbar, gamma, cutoff, kT} (flags win); the ``scenario``
subcommand instead takes a full scenario config document.
"""
from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import analysis, coefficients, evolution, kernels, scenarios
from .params import (BathParams, SystemParams, coherence_length,
                     decoherence_time, derive_timescales, default_fit_window)
from .quadrature import REL_TOL

__all__ = ["main"]

_PARAM_KEYS = ("mass", "frequency", "hbar", "gamma", "cutoff", "kT")
# Baseline free-particle-ish zero-T parameter set; every flag overrides.
_PARAM_DEFAULTS = {"mass": 1.0, "frequency": 1e-4, "hbar": 1.0,
                   "gamma": 0.05, "cutoff": 200.0, "kT": 0.0}
_FMT = "{:.12e}"


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_FMT.format(c) if isinstance(c, float) else
                              str(c) for c in row) + "\n")


def _params_from(args) -> tuple[SystemParams, BathParams]:
    base = dict(_PARAM_DEFAULTS)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        for key in doc:
            if key not in _PARAM_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if not isinstance(doc[key], (int, float)) \
                    or isinstance(doc[key], bool):
                raise ValueError(f"config key {key!r} must be a number")
        base.update(doc)
    for key in _PARAM_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            base[key] = flag
    sysp = SystemParams(mass=base["mass"], frequency=base["frequency"],
                        hbar=base["hbar"])
    bath = BathParams(gamma=base["gamma"], cutoff=base["cutoff"],
                      kT=base["kT"])
    return sysp, bath


def _param_doc(sysp: SystemParams, bath: BathParams) -> dict:
    return {"mass": sysp.mass, "frequency": sysp.frequency,
            "hbar": sysp.hbar, "gamma": bath.gamma,
            "cutoff": bath.cutoff, "kT": bath.kT}


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for key in _PARAM_KEYS:
        p.add_argument(f"--{key}", type=float, default=None)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="JSON parameter document (flags override it)")
    p.add_argument("--out", default="qbm_out",
                   help="output directory (default qbm_out)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress informational prints")


# ---------------------------------------------------------------- kernel

def _cmd_kernel(args) -> int:
    sysp, bath = _params_from(args)
    if not (0.0 < args.s_min < args.s_max):
        raise ValueError("need 0 < --s-min < --s-max")
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    s_grid = np.geomspace(args.s_min, args.s_max, args.n)
    trace = kernels.kernel_trace(sysp, bath, s_grid, method=args.method)

    out = Path(args.out)
    _write_csv(out / "kernel.csv", "s,nu,method",
               [(float(s), float(v), trace.method)
                for s, v in zip(trace.s_grid, trace.values)])

    # Cross-check against an independent path where one exists: at kT = 0
    # the closed form and the quadrature check each other; at kT > 0 the
    # quadrature is the only exact route, so a closed_high_T trace is
    # checked against it and a quadrature trace has no oracle.
    oracle = None
    if bath.kT == 0:
        other = "quadrature" if trace.method == "closed_zero_T" \
            else "closed_zero_T"
        oracle = kernels.kernel_trace(sysp, bath, s_grid, method=other).values
    elif trace.method == "closed_high_T":
        oracle = kernels.kernel_trace(sysp, bath, s_grid,
                                      method="quadrature").values
    max_rel = None
    if oracle is not None:
        scale = np.max(np.abs(oracle))
        mask = np.abs(oracle) > 1e-12 * scale
        max_rel = float(np.max(np.abs(trace.values[mask] - oracle[mask])
                               / np.abs(oracle[mask])))
    _write_json(out / "kernel.json",
                {"params": _param_doc(sysp, bath), "tolerance": REL_TOL,
                 "max_rel_err_vs_oracle": max_rel})
    _say(args, f"wrote {out / 'kernel.csv'} and {out / 'kernel.json'}")
    return 0


# ---------------------------------------------------------------- coeffs

def _cmd_coeffs(args) -> int:
    sysp, bath = _params_from(args)
    if not (0.0 < args.t_min < args.t_max):
        raise ValueError("need 0 < --t-min < --t-max")
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    space = np.linspace if args.linear else np.geomspace
    t_grid = space(args.t_min, args.t_max, args.n)
    trace = coefficients.exponent_trace(sysp, bath, t_grid,
                                        method=args.method)
    diff = [coefficients.diffusion_coefficient(sysp, bath, float(t),
                                               method=trace.method)
            for t in t_grid]

    out = Path(args.out)
    _write_csv(out / "coeffs.csv", "t,D,theta,method",
               [(float(t), float(d), float(th), trace.method)
                for t, d, th in zip(t_grid, diff, trace.theta)])
    _say(args, f"wrote {out / 'coeffs.csv'}")
    return 0


# ---------------------------------------------------------------- alpha

def _cmd_alpha(args) -> int:
    sysp, bath = _params_from(args)
    lo, hi = default_fit_window(derive_timescales(sysp, bath))
    doc = {"alpha": coefficients.alpha_theory(sysp, bath, args.separation),
           "lambda_q": coherence_length(sysp, bath),
           "regime_window_suggestion": [_jsonable(lo), _jsonable(hi)]}
    out = Path(args.out)
    _write_json(out / "alpha.json", doc)
    _say(args, f"wrote {out / 'alpha.json'}")
    if not args.quiet:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------- evolve

def _cmd_evolve(args) -> int:
    sysp, bath = _params_from(args)
    spec = evolution.CatStateSpec(separation=args.separation,
                                  width=args.width,
                                  grid_center=args.grid_center)
    rho0 = evolution.init_cat_state(spec, args.grid_n, args.grid_extent)
    dt = args.dt if args.dt is not None else evolution.suggest_timestep(
        sysp, bath, spec.separation, args.t_end)
    cfg = evolution.EvolveConfig(dt=dt, t_end=args.t_end,
                                 record_every=args.record_every,
                                 boundary=args.boundary)
    result = evolution.evolve_full(rho0, sysp, bath, cfg, cat_spec=spec)

    out = Path(args.out)
    _write_csv(out / "evolve.csv", "t,visibility,trace,herm_residual,purity",
               [(float(result.times[i]), float(result.visibility[i]),
                 float(result.trace[i]), float(result.herm_residual[i]),
                 float(result.purity[i]))
                for i in range(len(result.times))])
    _say(args, f"wrote {out / 'evolve.csv'} (dt = {dt:.6g}, "
               f"{len(result.times)} steps)")
    if args.snapshots:
        out.mkdir(parents=True, exist_ok=True)
        for step, snap in zip(result.snapshot_steps, result.snapshots):
            path = out / f"rho_{step:08d}.bin"
            evolution.write_snapshot(snap, path)
            _say(args, f"wrote {path}")
    return 0


# ---------------------------------------------------------------- fit

def _read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Accepts a plain trace (header t,coherence) or evolve output (any
    header containing t and visibility columns)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        value_col = next((name for name in ("coherence", "visibility")
                          if name in header), None)
        if "t" not in header or value_col is None:
            raise ValueError(
                "trace CSV header must contain a 't' column and a "
                f"'coherence' or 'visibility' column, got {','.join(header)!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError("trace CSV row width does not match its header")
    return data[:, header.index("t")], data[:, header.index(value_col)]


def _cmd_fit(args) -> int:
    sysp, bath = _params_from(args)
    times, values = _read_trace_csv(args.trace)
    # evolve output starts at t = 0 (the normalization point); decay fits
    # live in log time, so nonpositive-t rows are dropped, not an error
    keep = times > 0
    trace = analysis.CoherenceTrace(times[keep], values[keep], args.kind)
    window = tuple(args.window) if args.window is not None else None
    sel = analysis.model_select(trace, window)

    alpha = coefficients.alpha_theory(sysp, bath, args.separation)
    doc = {"model": sel.model, "window": None, "r_squared": None,
           "alpha_theory": alpha, "rel_err": None}
    if sel.model == "power_law":
        doc["alpha_fit"] = sel.power_law.alpha_fit
        doc["r_squared"] = sel.power_law.r_squared
        doc["window"] = list(sel.power_law.window)
        doc["rel_err"] = abs(sel.power_law.alpha_fit - alpha) / alpha
    elif sel.model == "exponential":
        doc["rate"] = sel.exponential.rate
        doc["r_squared"] = sel.exponential.r_squared
        doc["window"] = list(sel.exponential.window)
        if bath.kT > 0:
            rate_theory = 1.0 / decoherence_time(sysp, bath, args.separation)
            doc["rate_theory"] = rate_theory
            doc["rel_err"] = abs(sel.exponential.rate
                                 - rate_theory) / rate_theory
    else:
        doc["alpha_fit"] = sel.power_law.alpha_fit
        doc["rate"] = sel.exponential.rate
        doc["r_squared"] = max(sel.power_law.r_squared,
                               sel.exponential.r_squared)
        doc["window"] = list(sel.power_law.window)
    doc["delta_r_squared"] = sel.delta_r_squared

    out = Path(args.out)
    _write_json(out / "fit.json", doc)
    _say(args, f"wrote {out / 'fit.json'}")
    if not args.quiet:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------- scenario

def _cmd_scenario(args) -> int:
    if args.config is not None:
        cfg = scenarios.load_config(args.config)
        if cfg.scenario != args.name:
            raise ValueError(
                f"scenario name {args.name!r} does not match config "
                f"scenario {cfg.scenario!r}")
        if args.out != "qbm_out":
            cfg = scenarios.ScenarioConfig(scenario=cfg.scenario,
                                           params=cfg.params,
                                           output_dir=args.out,
                                           seed=cfg.seed)
    else:
        cfg = scenarios.ScenarioConfig(scenario=args.name,
                                       output_dir=args.out)
    manifest = scenarios.run_scenario(cfg)
    failed = [c for c in manifest["checks"] if not c["pass"]]
    if not args.quiet:
        for c in manifest["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"{status} {c['name']}: value {c['value']:.6g} "
                  f"(tolerance {c['tolerance']:.6g})")
        for w in manifest["warnings"]:
            print(f"warning: {w}")
        print(f"wrote {Path(cfg.output_dir) / 'manifest.json'}")
    return 1 if failed else 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qbmlab",
        description="Numerical laboratory for low-temperature dephasing of "
                    "a particle coupled to an Ohmic bath")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="sample the bath noise kernel")
    _add_common(p)
    _add_param_flags(p)
    p.add_argument("--s-min", type=float, default=1e-3)
    p.add_argument("--s-max", type=float, default=1.0)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--method", default="auto",
                   choices=("auto",) + kernels.METHODS)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("coeffs",
                       help="sample the diffusion coefficient and its "
                            "accumulated exponent")
    _add_common(p)
    _add_param_flags(p)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=2000.0)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--linear", action="store_true",
                   help="linear time grid (default logarithmic)")
    p.add_argument("--method", default="auto",
                   choices=("auto",) + coefficients.METHODS)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("alpha",
                       help="print the analytic late-time decay exponent")
    _add_common(p)
    _add_param_flags(p)
    p.add_argument("--separation", type=float, default=2.0)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("evolve", help="integrate the full master equation")
    _add_common(p)
    _add_param_flags(p)
    p.add_argument("--separation", type=float, default=2.0)
    p.add_argument("--width", type=float, default=0.5)
    p.add_argument("--grid-center", type=float, default=0.0)
    # defaults satisfy the grid guards: extent >= separation + 12 width,
    # width/dx >= 8 (dx = 8/159 ~ 0.050)
    p.add_argument("--grid-n", type=int, default=160)
    p.add_argument("--grid-extent", type=float, default=8.0)
    p.add_argument("--dt", type=float, default=None,
                   help="time step (default: from the accuracy rule of "
                        "suggest_timestep)")
    p.add_argument("--t-end", type=float, default=0.1)
    p.add_argument("--record-every", type=int, default=100)
    p.add_argument("--boundary", default="dirichlet_zero",
                   choices=evolution.BOUNDARIES)
    p.add_argument("--snapshots", action="store_true",
                   help="write binary grid snapshots at recorded steps")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("fit", help="fit decay models to a trace CSV")
    _add_common(p)
    _add_param_flags(p)
    p.add_argument("trace", help="CSV with header t,coherence")
    p.add_argument("--kind", default="offdiag_factor",
                   choices=analysis.MEASURE_KINDS)
    p.add_argument("--separation", type=float, default=2.0)
    p.add_argument("--window", type=float, nargs=2, default=None,
                   metavar=("T_LO", "T_HI"))
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("scenario", help="run a named experiment")
    _add_common(p)
    p.add_argument("name", choices=scenarios.SCENARIOS)
    p.set_defaults(func=_cmd_scenario)

    return top


def main(argv=None) -> int:
    """Run one subcommand.  Exit 0 on success, 1 when a scenario check
    fails, 2 on a usage or numerical error (bad input, unreadable file,
    quadrature budget exhausted, solver blow-up), reported on one line."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
