"""qbmlab — numerical laboratory for the dephasing of a particle weakly
coupled to an Ohmic heat bath.

At zero bath temperature the off-diagonal density-matrix elements decay
as a power law t^(-alpha) with alpha = (2/pi) M gamma (x - x')^2 / hbar,
in contrast to the exponential decay familiar from the high-temperature
regime; the modules here compute the bath kernels and master-equation
coefficients behind that statement, integrate the reduced density matrix
on a grid, and fit decay laws to the resulting coherence traces.
"""
from .params import (SystemParams, BathParams, Timescales, RegimeReport,
                     derive_timescales, coherence_length, decoherence_time,
                     classify_regime, default_fit_window)
from .kernels import (KernelTrace, kernel_trace, noise_kernel_zero_T_closed,
                      noise_kernel_high_T_closed, noise_kernel_quadrature)
from .coefficients import (ExponentTrace, alpha_theory, diffusion_coefficient,
                           diffusion_closed_zero_T, diffusion_zero_T_free,
                           diffusion_moments_zero_T_free, decoherence_exponent,
                           exponent_closed_zero_T, exponent_trace)
from .evolution import (CatStateSpec, DensityGrid, EvolveConfig, TermToggles,
                        EvolutionResult, init_cat_state, evolve_dephasing,
                        evolve_full, free_cat_log_rho,
                        free_cat_log_visibility, suggest_timestep,
                        write_snapshot, read_snapshot)
from .analysis import (CoherenceTrace, PowerLawFit, ExponentialFit,
                       ModelSelection, fit_power_law, fit_exponential,
                       model_select)
from .scenarios import ScenarioConfig, SCENARIOS, load_config, run_scenario

__version__ = "0.1.0"

__all__ = [
    "SystemParams", "BathParams", "Timescales", "RegimeReport",
    "derive_timescales", "coherence_length", "decoherence_time",
    "classify_regime", "default_fit_window",
    "KernelTrace", "kernel_trace", "noise_kernel_zero_T_closed",
    "noise_kernel_high_T_closed", "noise_kernel_quadrature",
    "ExponentTrace", "alpha_theory", "diffusion_coefficient",
    "diffusion_closed_zero_T", "diffusion_zero_T_free",
    "diffusion_moments_zero_T_free", "decoherence_exponent",
    "exponent_closed_zero_T", "exponent_trace",
    "CatStateSpec", "DensityGrid", "EvolveConfig", "TermToggles",
    "EvolutionResult", "init_cat_state", "evolve_dephasing", "evolve_full",
    "free_cat_log_rho", "free_cat_log_visibility", "suggest_timestep",
    "write_snapshot", "read_snapshot",
    "CoherenceTrace", "PowerLawFit", "ExponentialFit", "ModelSelection",
    "fit_power_law", "fit_exponential", "model_select",
    "ScenarioConfig", "SCENARIOS", "load_config", "run_scenario",
    "__version__",
]
