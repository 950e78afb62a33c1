"""Dissipative entanglement of two atomic ensembles: Gaussian moment
dynamics, multilevel rate equations, light readout, stochastic measurement
records and parameter estimation.

The exported names load their module on first access (PEP 562), so
``import eprsim`` alone imports no engine and no numpy."""

__version__ = "0.1.0"

_EXPORTS = {
    "spin_model": ("ModelParams", "GaussianState", "EprReport",
                   "bogoliubov_amplitudes", "epr_variance", "css_state"),
    "gaussian_dynamics": ("NoiseChannels", "Trajectory", "propagate_moments"),
    "multilevel_rates": ("PopulationState", "RateSet",
                         "propagate_populations"),
    "light_readout": ("LossParams", "reconstruct_atomic_variance"),
    "records": ("ModeFunctional", "conditional_variance", "optimize_gain"),
    "estimation": ("FitProblem", "fit_parameters", "calibrate_pn",
                   "orientation"),
    "scenarios": ("run_scenario", "scenario_params"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
