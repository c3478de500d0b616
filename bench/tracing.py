"""Spans and counts around qbmlab's public functions, from outside ``src/``.

Each traced function is wrapped where its caller looks it up: a function
that ``scenarios`` imported by name is replaced in ``qbmlab.scenarios``, a
function reached as ``quadrature.integrate`` is replaced in
``qbmlab.quadrature``.  A span holds (name, start, end, parent, operation
id); spans stay in memory until the run writes them out.  A layer's self
time is the time of its spans minus the time of their child spans.
"""
from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np


def _count_points(tracer, args, kwargs):
    """Wrap the integrand handed to integrate so every abscissa counts."""
    f = args[0]

    def counted(x):
        tracer.counts["quadrature.points"] += x.size
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _count_theta(tracer, args, result):
    tracer.counts["coefficients.theta_samples"] += len(result.t_grid)


def _count_theta_single(tracer, args, result):
    # exponent_trace counts its own samples; count only the direct calls
    if tracer.parent_name() != "coefficients.exponent_trace":
        tracer.counts["coefficients.theta_samples"] += 1


def _count_diffusion(tracer, args, result):
    tracer.counts["coefficients.diffusion_calls"] += int(np.size(args[2]))


def _count_steps(tracer, args, result):
    tracer.counts["evolution.steps"] += len(result.times) - 1
    tracer.counts["evolution.snapshot_bytes"] += sum(
        s.values.nbytes for s in result.snapshots)


# (module, attribute, span name, argument hook, result hook).  Every name a
# workload's calls pass through appears once per module that looks it up.
SITES = (
    ("cli", "main", "cli.main", None, None),
    ("scenarios", "load_config", "scenarios.load_config", None, None),
    ("scenarios", "run_scenario", "scenarios.run_scenario", None, None),
    ("scenarios", "model_select", "analysis.model_select", None, None),
    ("scenarios", "fit_power_law", "analysis.fit", None, None),
    ("scenarios", "_ols", "analysis.fit", None, None),
    ("analysis", "fit_power_law", "analysis.fit", None, None),
    ("analysis", "fit_exponential", "analysis.fit", None, None),
    ("scenarios", "evolve_full", "evolution.evolve_full", None, _count_steps),
    ("scenarios", "suggest_timestep", "evolution.suggest_timestep", None,
     None),
    ("scenarios", "free_cat_log_visibility", "evolution.exact_route", None,
     None),
    ("scenarios", "exponent_trace", "coefficients.exponent_trace", None,
     _count_theta),
    ("coefficients", "decoherence_exponent",
     "coefficients.decoherence_exponent", None, _count_theta_single),
    ("evolution", "decoherence_exponent", "coefficients.decoherence_exponent",
     None, _count_theta_single),
    ("coefficients", "diffusion_coefficient",
     "coefficients.diffusion_coefficient", None, _count_diffusion),
    ("coefficients", "diffusion_zero_T_free",
     "coefficients.diffusion_zero_T_free", None, _count_diffusion),
    ("evolution", "diffusion_zero_T_free",
     "coefficients.diffusion_zero_T_free", None, _count_diffusion),
    ("evolution", "diffusion_moments_zero_T_free",
     "coefficients.diffusion_moments", None, None),
    ("coefficients", "coth", "kernels.coth", None, None),
    ("kernels", "coth", "kernels.coth", None, None),
    ("quadrature", "integrate", "quadrature.integrate", _count_points, None),
)


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores
    every wrapped attribute."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []    # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def parent_name(self):
        # the caller's span: the innermost open one is the current call's
        return self.spans[self._stack[-2]][0] if len(self._stack) > 1 else None

    def _wrap(self, fn, name, arg_hook, result_hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if arg_hook is not None:
                args, kwargs = arg_hook(self, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if result_hook is not None:
                    result_hook(self, args, result)
            finally:
                rec[2] = clock()
                stack.pop()
            return result

        return traced

    def install(self):
        for mod_name, attr, name, arg_hook, result_hook in SITES:
            module = getattr(self.package, mod_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, arg_hook, result_hook))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, n_ops: int, io: Counter) -> dict:
    """Per-operation layer metrics from a traced run of ``n_ops``
    operations; ``io`` holds the files and bytes the operations wrote."""
    selfs = tracer.self_times()
    calls = Counter(span[0] for span in tracer.spans)
    c = tracer.counts

    def layer_self(layer):
        return sum(v for k, v in selfs.items() if k.split(".")[0] == layer)

    steps = c["evolution.steps"]
    per_op = {
        "quadrature.calls": (calls["quadrature.integrate"], "count/op"),
        "quadrature.points": (c["quadrature.points"], "count/op"),
        "quadrature.self_s": (layer_self("quadrature"), "s/op"),
        "kernels.coth.calls": (calls["kernels.coth"], "count/op"),
        "kernels.coth.self_s": (selfs.get("kernels.coth", 0.0), "s/op"),
        "coefficients.theta_samples": (c["coefficients.theta_samples"],
                                       "count/op"),
        "coefficients.diffusion_calls": (c["coefficients.diffusion_calls"],
                                         "count/op"),
        "coefficients.self_s": (layer_self("coefficients"), "s/op"),
        "evolution.steps": (steps, "count/op"),
        "evolution.evolve_full.self_s": (
            selfs.get("evolution.evolve_full", 0.0), "s/op"),
        "evolution.suggest_timestep.self_s": (
            selfs.get("evolution.suggest_timestep", 0.0), "s/op"),
        "evolution.exact_route.self_s": (
            selfs.get("evolution.exact_route", 0.0), "s/op"),
        "evolution.snapshot_bytes": (c["evolution.snapshot_bytes"], "B/op"),
        "analysis.fits": (calls["analysis.fit"], "count/op"),
        "analysis.self_s": (layer_self("analysis"), "s/op"),
        "scenarios.self_s": (layer_self("scenarios"), "s/op"),
        "scenarios.bytes_written": (io["bytes"], "B/op"),
        "scenarios.files_written": (io["files"], "count/op"),
        "cli.self_s": (layer_self("cli"), "s/op"),
    }
    out = {name: {"value": value / n_ops, "unit": unit}
           for name, (value, unit) in per_op.items()}
    step_s = selfs.get("evolution.evolve_full", 0.0) / steps if steps else 0.0
    out["evolution.step_s"] = {"value": step_s, "unit": "s/step"}
    return out
