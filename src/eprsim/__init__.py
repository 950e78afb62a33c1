"""Dissipative entanglement of two atomic ensembles: Gaussian moment
dynamics, multilevel rate equations, light readout, stochastic measurement
records and parameter estimation."""

__version__ = "0.1.0"

from .spin_model import (
    ModelParams,
    GaussianState,
    EprReport,
    bogoliubov_amplitudes,
    epr_variance,
    css_state,
)
from .gaussian_dynamics import NoiseChannels, Trajectory, propagate_moments
from .multilevel_rates import PopulationState, RateSet, propagate_populations
from .light_readout import LossParams, reconstruct_atomic_variance
from .records import ModeFunctional, conditional_variance, optimize_gain
from .estimation import FitProblem, fit_parameters, calibrate_pn, orientation
from .scenarios import run_scenario, scenario_params

__all__ = [
    "ModelParams", "GaussianState", "EprReport", "bogoliubov_amplitudes",
    "epr_variance", "css_state", "NoiseChannels", "Trajectory",
    "propagate_moments", "PopulationState", "RateSet",
    "propagate_populations", "LossParams", "reconstruct_atomic_variance",
    "ModeFunctional", "conditional_variance", "optimize_gain", "FitProblem",
    "fit_parameters", "calibrate_pn", "orientation", "run_scenario",
    "scenario_params",
]
