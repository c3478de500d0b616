"""Independent references and the per-operation output checks.

Nothing here calls qbmlab: each check recomputes what a scenario wrote
from the benchmark's own inputs, by a route that shares no code with the
package, and compares.  scipy is imported only here, after the timed part
of a run.

* ``theta_zero_T``: Theta(t) at kT = 0 and any Omega from the sine and
  cosine integrals of ``scipy.special.sici``.
* ``theta_thermal``: Theta(t) at kT > 0 from ``scipy.integrate.quad``,
  its oscillatory part with ``weight="cos"`` (QUADPACK's QAWO).
* ``cat_visibility``: the free cat's fringe visibility under the kinetic +
  diffusion equation, by a k-quadrature of the Gaussian solution whose
  moments of D(t) come from QUADPACK.

Theta(t) = p int_0^Lambda w c(w) [(1 - cos((w+W)t)) / (2 (w+W)^2)
                                  + (1 - cos((w-W)t)) / (2 (w-W)^2)] dw,
with p = 2 M gamma / pi, W the system frequency and c(w) = coth(hbar w /
2 kT) (1 at kT = 0).  Substituting u = w +- W turns each branch into
integrals of (1 - cos ut)/u and (1 - cos ut)/u^2 with weight h(u).
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.special

from workloads import expected_window

EULER_GAMMA = 0.5772156649015329

# Tolerances the checks apply (the program's quadrature asks for 1e-8
# relative; the CSVs carry 13 significant digits).
THETA_REL_TOL = 1e-7
FIT_REL_TOL = 1e-6
GRID_TIME_REL_TOL = 1e-11
REPORTED_REL_TOL = 1e-6


class CheckFailed(Exception):
    """An output disagrees with its independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------ references

def _cin(x):
    """Cin(x) = int_0^x (1 - cos y)/y dy = gamma_E + ln x - Ci(x), x >= 0;
    the series below 1, where the sum of logs cancels."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1.0
    xs = x[small]
    term = np.ones_like(xs)
    total = np.zeros_like(xs)
    for k in range(1, 12):
        term = term * (-(xs * xs)) / ((2 * k - 1) * (2 * k))
        total -= term / (2 * k)
    out[small] = total
    _, ci = scipy.special.sici(x[~small])
    out[~small] = EULER_GAMMA + np.log(x[~small]) - ci
    return out


def _b_integral(u, t):
    """B(u) = int_0^u (1 - cos(s t)) / s^2 ds = t Si(u t) - (1 - cos ut)/u,
    odd in u; B(0) = 0."""
    u = np.asarray(u, dtype=float)
    si, _ = scipy.special.sici(u * t)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = t * si - 2.0 * np.sin(0.5 * u * t) ** 2 / u
    return np.where(u == 0.0, 0.0, out)


def theta_zero_T(mass, gamma, cutoff, frequency, t):
    """Theta(t) at kT = 0 for any frequency W < cutoff (closed form):

        Theta = (p/2) [Cin((L+W)t) + Cin((L-W)t) - 2 Cin(W t)
                       + W (B(L-W) - B(L+W) + 2 B(W))]
    """
    t = np.asarray(t, dtype=float)
    p = 2.0 * mass * gamma / math.pi
    lam, w = cutoff, frequency
    out = _cin((lam + w) * t) + _cin((lam - w) * t) - 2.0 * _cin(w * t)
    if w != 0.0:
        out = out + w * (_b_integral(lam - w, t) - _b_integral(lam + w, t)
                         + 2.0 * _b_integral(w, t))
    return 0.5 * p * out


def theta_thermal(mass, hbar, gamma, cutoff, kT, frequency, t):
    """Theta(t) at kT > 0 by QUADPACK; scalar t > 0.

    Each branch is int h(u) (1 - cos ut)/u^2 du with h(u) = w coth(hbar w /
    2 kT), w = u -+ W.  Below u = 2 pi / t the full integrand goes to plain
    quad (it is finite at u = 0); above it the branch splits into a smooth
    integral of h/u^2 and an oscillatory one done by weight="cos".
    """
    a = 0.5 * hbar / kT
    p = 2.0 * mass * gamma / math.pi

    def wc(w):   # w coth(a w), 1/a at w = 0
        return 1.0 / a if w == 0.0 else w / math.tanh(a * w)

    total = 0.0
    for shift in (-frequency, frequency):   # u = w + shift
        lo, hi = shift, cutoff + shift
        cut = min(hi, max(2.0 * math.pi / t, 4.0 * abs(shift)))

        def full(u, shift=shift):
            return (wc(u - shift) * 0.5 * t * t
                    * np.sinc(0.5 * u * t / math.pi) ** 2)

        def smooth(u, shift=shift):
            return wc(u - shift) / (u * u)

        pts = [0.0] if lo < 0.0 < cut else None
        total += scipy.integrate.quad(full, lo, cut, points=pts, limit=200,
                                      epsabs=0.0, epsrel=1e-12)[0]
        if cut < hi:
            total += scipy.integrate.quad(smooth, cut, hi, limit=200,
                                          epsabs=0.0, epsrel=1e-12)[0]
            total -= scipy.integrate.quad(smooth, cut, hi, weight="cos",
                                          wvar=t, limit=2000, epsabs=1e-15,
                                          epsrel=1e-12)[0]
    return 0.5 * p * total


def diffusion_moments(mass, gamma, cutoff, t):
    """I_m(t) = int_0^t D(s) (t - s)^m ds, m = 0, 1, 2, by QUADPACK, with
    D(s) = (2 M gamma / pi)(1 - cos Lambda s)/s; shape (3, len(t))."""
    p = 2.0 * mass * gamma / math.pi

    def moment(tk, m):
        return scipy.integrate.quad(
            lambda s: 2.0 * p * math.sin(0.5 * cutoff * s) ** 2 / s
            * (tk - s) ** m, 0.0, tk, limit=400, epsabs=0.0,
            epsrel=1e-13)[0]

    return np.array([[moment(float(tk), m) if tk > 0 else 0.0 for tk in t]
                     for m in range(3)])


def cat_visibility(params: dict, t) -> np.ndarray:
    """Fringe visibility 2|rho(x+, x-)| / (rho(x+, x+) + rho(x-, x-)) of the
    free cat state at times t.

    In X = (x + x')/2, q = x - x' the equation is d rho/dt = (i hbar / M)
    d_X d_q rho - (D/hbar) q^2 rho.  Its X-Fourier mode k carries q at the
    speed v = hbar k / M and decays by exp(-(q^2 I0 - 2 q v I1 + v^2 I2) /
    hbar).  The cat's four Gaussian terms start as exp(-(X - m)^2 / 2 s^2
    - (q - delta)^2 / 8 s^2); the k-integral is a trapezoid sum, exact to
    roundoff for these Gaussians.  The normalization cancels in the ratio.
    """
    t = np.asarray(t, dtype=float)
    hbar, mass = params["hbar"], params["mass"]
    sig2 = params["width"] ** 2
    i0, i1, i2 = (m[:, None] for m in diffusion_moments(
        mass, params["gamma"], params["cutoff"], t))
    k = np.linspace(-60.0, 60.0, 2401)[None, :]
    v = hbar * k / mass
    half = 0.5 * params["separation"]
    centers = (params["grid_center"] + half, params["grid_center"] - half)

    def rho(x, xp):
        big_x, q = 0.5 * (x + xp), x - xp
        decay = -(q * q * i0 - 2.0 * q * v * i1 + v * v * i2) / hbar
        acc = 0.0
        for ca in centers:
            for cb in centers:
                q0 = q - v * t[:, None] - (ca - cb)
                acc = acc + np.exp(1j * k * (big_x - 0.5 * (ca + cb))
                                   - 0.5 * sig2 * k * k
                                   - q0 * q0 / (8.0 * sig2) + decay)
        return acc.sum(axis=1)

    xp, xm = centers
    return 2.0 * np.abs(rho(xp, xm)) / (rho(xp, xp).real + rho(xm, xm).real)


# ------------------------------------------------------------ helpers

def _ols_slope(x, y) -> float:
    x, y = np.asarray(x), np.asarray(y)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def _read_csv(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _rel(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)) / np.abs(np.asarray(b))


def check_manifest(out_dir: Path, expected_files: set) -> dict:
    """Every manifest check passes and every listed file hashes to its
    sha256; returns the checks by name."""
    manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
    listed = {f["path"] for f in manifest["files"]}
    _require(listed == expected_files,
             f"manifest lists {sorted(listed)}, expected "
             f"{sorted(expected_files)}")
    for entry in manifest["files"]:
        digest = hashlib.sha256((out_dir / entry["path"]).read_bytes())
        _require(digest.hexdigest() == entry["sha256"],
                 f"sha256 of {entry['path']} does not match the manifest")
    checks = {c["name"]: c for c in manifest["checks"]}
    failed = [name for name, c in checks.items() if not c["pass"]]
    _require(not failed, f"manifest checks failed: {failed}")
    _require(bool(checks), "manifest holds no checks")
    return checks


def _check_trace_times(times, expected, what):
    _require(len(times) == len(expected)
             and bool(np.all(_rel(times, expected) <= GRID_TIME_REL_TOL)),
             f"{what}: time grid differs from the configured one")


def _check_zero_T_trace(out_dir: Path, rel: str, p: dict,
                        d: float) -> tuple[float, float]:
    """trace.csv at kT = 0 against the sici closed form, and the reported
    exponent against the benchmark's own fit of its own coherence; returns
    (own exponent, reported exponent)."""
    cols = _read_csv(out_dir / rel / "trace.csv")
    times = np.geomspace(p["t_lo"], p["t_hi"], int(p["n_points"]))
    _check_trace_times(cols["t"], times, rel)
    theta = theta_zero_T(p["mass"], p["gamma"], p["cutoff"], p["frequency"],
                         times)
    log_ref = -d * d * theta / p["hbar"]
    err = float(np.max(_rel(np.log(cols["coherence"]), log_ref)))
    _require(err <= THETA_REL_TOL,
             f"{rel}: ln coherence off the sici closed form by {err:.3g} "
             f"(tolerance {THETA_REL_TOL:g})")
    alpha_own = -_ols_slope(np.log(times), log_ref)
    fit = json.loads((out_dir / rel / "fit.json").read_text("utf-8"))
    fit_err = abs(fit["alpha_fit"] - alpha_own) / alpha_own
    _require(fit_err <= FIT_REL_TOL,
             f"{rel}: reported alpha_fit {fit['alpha_fit']:.10g} against "
             f"the benchmark's fit {alpha_own:.10g}")
    return alpha_own, fit["alpha_fit"]


def _alpha_theory(p: dict, d: float) -> float:
    return 2.0 * p["mass"] * p["gamma"] * d * d / (math.pi * p["hbar"])


# --------------------------------------------------------- per scenario

def check_zero_temperature(out_dir: Path, p: dict, op: int) -> None:
    check_manifest(out_dir, {"trace.csv", "fit.json"})
    d = p["separation"]
    alpha_own, _ = _check_zero_T_trace(out_dir, ".", p, d)
    theory = _alpha_theory(p, d)
    err = abs(alpha_own - theory) / theory
    _require(err <= 0.05, f"fitted exponent {alpha_own:.6g} against "
                          f"2 M gamma d^2 / (pi hbar) = {theory:.6g}")


def check_separation_sweep(out_dir: Path, p: dict, op: int) -> None:
    seps = p["separations"]
    subs = [f"d_{d:g}" for d in seps]
    check_manifest(out_dir, {f"{s}/{name}" for s in subs
                             for name in ("trace.csv", "fit.json")})
    fits = [_check_zero_T_trace(out_dir, s, p, d) for s, d in zip(subs, seps)]
    for d, (own, reported) in zip(seps, fits):
        theory = _alpha_theory(p, d)
        _require(abs(own - theory) / theory <= 0.05,
                 f"d = {d:g}: fitted exponent {own:.6g} against {theory:.6g}")
        ratio = reported / fits[0][1]
        expected = (d / seps[0]) ** 2
        _require(abs(ratio / expected - 1.0) <= FIT_REL_TOL,
                 f"reported exponent ratio {ratio:.10g} does not scale as "
                 f"d^2 ({expected:.10g})")


def check_high_temperature(out_dir: Path, p: dict, op: int) -> None:
    check_manifest(out_dir, {"trace.csv", "fit.json"})
    cols = _read_csv(out_dir / "trace.csv")
    lo, hi = expected_window(p)
    times = np.linspace(lo, hi, int(p["n_points"]))
    _check_trace_times(cols["t"], times, "trace.csv")
    d = p["separation"]
    log_c = np.log(cols["coherence"])
    rate_own = -_ols_slope(times, log_c)
    theory = 2.0 * p["mass"] * p["gamma"] * p["kT"] * d * d / p["hbar"] ** 2
    err = abs(rate_own - theory) / theory
    _require(err <= 0.05, f"fitted rate {rate_own:.6g} against 2 M gamma kT "
                          f"d^2 / hbar^2 = {theory:.6g}")
    fit = json.loads((out_dir / "fit.json").read_text("utf-8"))
    _require(abs(fit["rate"] - rate_own) / rate_own <= FIT_REL_TOL,
             f"reported rate {fit['rate']:.10g} against the benchmark's fit "
             f"{rate_own:.10g}")
    # three Theta samples per operation, spread over the late half
    n = len(times)
    for i in (n // 2 + op % 8, 3 * n // 4 + op % 8, n - 1 - op % 8):
        ref = theta_thermal(p["mass"], p["hbar"], p["gamma"], p["cutoff"],
                            p["kT"], p["frequency"], float(times[i]))
        got = -p["hbar"] * log_c[i] / (d * d)
        _require(abs(got - ref) / ref <= THETA_REL_TOL,
                 f"Theta({times[i]:.6g}) = {got:.12g} against QUADPACK "
                 f"{ref:.12g}")


def check_full_vs_dephasing(out_dir: Path, p: dict, op: int) -> None:
    checks = check_manifest(out_dir, {"vis_full.csv", "rho_final.bin"})
    cols = _read_csv(out_dir / "vis_full.csv")
    drift_tol = checks["trace_drift_max"]["tolerance"]
    drift = float(np.max(np.abs(cols["trace"] - 1.0)))
    _require(drift <= drift_tol,
             f"trace drifts {drift:.3g} from 1 (tolerance {drift_tol:g})")
    grid = checks["grid_vs_exact_visibility_max_rel_err"]
    # the reference covers every time the grid or the exact route puts
    # at 1e-2 or more: the two stay within 2% of each other there
    vis = cols["visibility"]
    near = vis >= 5e-3
    ref = cat_visibility(p, cols["t"][near])
    err = _rel(vis[near], ref)
    recorded = float(err[vis[near] >= 1e-2].max())
    _require(recorded <= grid["tolerance"],
             f"recorded visibility off the k-quadrature by {recorded:.4g} "
             f"(tolerance {grid['tolerance']:g})")
    # the program reports the same deviation over the times where the
    # exact visibility is at least 1e-2
    own = float(err[ref >= 1e-2].max())
    _require(abs(own - grid["value"]) <= REPORTED_REL_TOL * grid["value"],
             f"reported grid-vs-exact deviation {grid['value']:.10g} "
             f"against the benchmark's {own:.10g}")


# scenario -> check(out_dir, params, operation index); each raises
# CheckFailed unless the operation's outputs pass
CHECKS = {
    "zero_temperature": check_zero_temperature,
    "separation_sweep": check_separation_sweep,
    "high_temperature": check_high_temperature,
    "full_vs_dephasing": check_full_vs_dephasing,
}
