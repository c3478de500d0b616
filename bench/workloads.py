"""Seeded scenario configs for the three benchmark workloads.

One operation is one ``qbmlab scenario`` run.  A round is the list of
operations a run repeats until its time is up; it is drawn once from the
seed, so the same seed gives the same configs and every run attempts whole
rounds of the same operations.  The draws move the physics, not the cost:
each round of a workload does the same work whatever the seed.

Every config spells out all the parameters its checks rely on, so the
checks compute from the benchmark's own inputs, not from the program's
echo of them.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("zero_T_power_law", "thermal_crossover", "cat_state_solver")

# zero_T_power_law: the scenarios' defaults, with gamma and separation drawn.
ZERO_T_BASE = {"mass": 1.0, "frequency": 1e-4, "hbar": 1.0, "cutoff": 200.0,
               "kT": 0.0, "n_points": 64, "t_lo": 50.0, "t_hi": 2000.0}
GAMMA_RANGE = (0.03, 0.08)
SEPARATION_RANGE = (1.5, 2.5)
SWEEP_BASE_RANGE = (0.75, 1.25)
SWEEP_FACTORS = (1.0, 2.0, 4.0)

# thermal_crossover: kT log-uniform, gamma * kT * d^2 fixed, so the default
# window [5/Lambda, 3 tau_d] is the same for every draw.
THERMAL_BASE = {"mass": 1.0, "frequency": 1e-4, "hbar": 1.0, "cutoff": 200.0,
                "separation": 2.0, "n_points": 64}
KT_LOG10_RANGE = (-1.0, 0.0)
GAMMA_KT_D2 = 0.008
THERMAL_ROUND = 4

# cat_state_solver: the scenario's own grid, t_end short of the fit window
# and short enough that a run holds over a dozen operations.
CAT_BASE = {"mass": 1.0, "frequency": 0.0, "hbar": 1.0, "gamma": 25.0,
            "cutoff": 200.0, "kT": 0.0, "grid_center": 0.0, "grid_n": 256,
            "grid_extent": 12.0, "t_end": 0.0025, "record_every": 1000}
CAT_SEPARATION_RANGE = (2.0, 3.0)
# 8 points per width admits width 0.376 on this grid, but the scenario's
# grid-vs-exact check fails below about 0.40 at t_end = 0.005 (see the
# README).
CAT_WIDTH_RANGE = (0.40, 0.45)


def round_configs(workload: str, seed: int) -> list[dict]:
    """The round of scenario config documents for ``workload`` and ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; options {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def draw(bounds):
        return float(rng.uniform(*bounds))

    if workload == "zero_T_power_law":
        single = {**ZERO_T_BASE, "gamma": draw(GAMMA_RANGE),
                  "separation": draw(SEPARATION_RANGE), "width": 0.25}
        d0 = draw(SWEEP_BASE_RANGE)
        sweep = {**ZERO_T_BASE, "gamma": draw(GAMMA_RANGE), "width": 0.25,
                 "separations": [d0 * f for f in SWEEP_FACTORS]}
        return [{"scenario": "zero_temperature", "params": single},
                {"scenario": "separation_sweep", "params": sweep}]
    if workload == "thermal_crossover":
        docs = []
        for _ in range(THERMAL_ROUND):
            kT = 10.0 ** draw(KT_LOG10_RANGE)
            d = THERMAL_BASE["separation"]
            docs.append({"scenario": "high_temperature",
                         "params": {**THERMAL_BASE, "kT": kT, "width": 0.25,
                                    "gamma": GAMMA_KT_D2 / (kT * d * d)}})
        return docs
    return [{"scenario": "full_vs_dephasing",
             "params": {**CAT_BASE, "separation": draw(CAT_SEPARATION_RANGE),
                        "width": draw(CAT_WIDTH_RANGE)}}]


def expected_window(params: dict) -> tuple[float, float]:
    """The high_temperature scenario's default window [5/Lambda, 3 tau_d]."""
    lam_th = params["hbar"] / math.sqrt(2.0 * params["mass"] * params["kT"])
    tau_d = (1.0 / params["gamma"]) * (lam_th / params["separation"]) ** 2
    return 5.0 / params["cutoff"], 3.0 * tau_d
