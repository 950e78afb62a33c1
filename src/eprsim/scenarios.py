"""End-to-end scenario fixtures: deterministic pipelines reproducing the
four experimental configurations (labelled fig2a-fig2d after the figure
panels they correspond to).

Every number in a fixture is either a published value (comment gives the
source quantity) or marked "assumption" where the publication leaves it
open.  A scenario returns a report dict and, per artifact file, named
columns (arrays, or strings for a label column), so the CLI can write them
without further knowledge of the physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EprSimError
from .estimation import forward_model
from .gaussian_dynamics import trajectory_to_csv
from .light_readout import LossParams, invert_readout
from .multilevel_rates import PopulationState
from .records import (
    ModeFunctional,
    discrete_calibration,
    hybrid_readout,
)
from .spin_model import ModelParams, bogoliubov_amplitudes

__all__ = [
    "ScenarioResult",
    "scenario_params",
    "run_scenario",
    "inclusive_range",
    "SCENARIO_NAMES",
]

SCENARIO_NAMES = ("fig2a", "fig2b", "fig2c", "fig2d")


def inclusive_range(start: float, stop: float, step: float) -> np.ndarray:
    """The points of ``np.arange(start, ..., step)`` up to ``stop`` included.

    A point counts as within ``stop`` if it exceeds it by less than 1e-9 of
    a step (the rounding of the arange arithmetic); no point lies further.
    """
    grid = np.arange(start, stop + 0.5 * step, step)
    return grid[grid <= stop + 1e-9 * step]


_MU, _NU = bogoliubov_amplitudes(0.4)  # (mu - nu)^2 = 0.16

_BASE = dict(
    Gamma=0.002,  # single-atom scattering rate, ms^-1
    mu=_MU,
    nu=_NU,
    Gamma_col=0.002,  # collisional rate, ms^-1
    Gamma_pump=0.0,
    Gamma_L_out=0.025,  # leak out of F=4; assumption (not published)
    Phi=1.0,  # photon-flux scale; assumption (uncalibrated)
    Omega=2.0 * math.pi * 322.0,  # Larmor, 322 kHz in rad/ms
    N=1.0,  # per-atom normalisation
    eta=0.84,  # detector efficiency
)


def scenario_params(name: str) -> ModelParams:
    """Parameter fixture of a named scenario."""
    if name in ("fig2a", "fig2b"):
        d = 55.0 if name == "fig2a" else 35.0  # optical depths
        return ModelParams(d=d, Gamma_tilde=0.193, **_BASE)
    if name == "fig2c":
        base = dict(_BASE, Gamma_pump=0.168)  # incoherent pump rate
        return ModelParams(d=37.0, Gamma_tilde=0.233, **base)
    if name == "fig2d":
        return ModelParams(d=55.0, Gamma_tilde=0.193, **_BASE)
    raise ValueError(f"unknown scenario {name!r}")


# Initial populations of every scenario and of the CLI's --pops, and the
# time grid (t0, t1, dt) in ms of fig2a-fig2c and of the CLI's --grid
INITIAL_POP = PopulationState(n44=0.99, n43=0.01, nh=0.0)
TIME_GRID = (0.0, 45.0, 0.25)

# Dark (drive off) dephasing rate; assumption calibrated so the entanglement
# deficit e-folds in ~2 ms.
_DARK_DEPHASING = 0.5


@dataclass
class ScenarioResult:
    """``artifacts`` maps each file name to its columns (header -> values)."""

    name: str
    params: ModelParams
    report: dict
    artifacts: dict = field(default_factory=dict)


def _sub_unity_window(times, xi):
    """(t_enter, t_exit, duration) of the first contiguous xi < 1 stretch."""
    below = xi < 1.0
    if not below.any():
        return None
    i0 = int(np.argmax(below))
    i1 = i0
    while i1 + 1 < below.size and below[i1 + 1]:
        i1 += 1
    t_enter = times[i0] if i0 == 0 else float(np.interp(
        1.0, [xi[i0], xi[i0 - 1]], [times[i0], times[i0 - 1]]))
    t_exit = times[i1] if i1 + 1 == below.size else float(np.interp(
        1.0, [xi[i1], xi[i1 + 1]], [times[i1], times[i1 + 1]]))
    return float(t_enter), float(t_exit), float(t_exit - t_enter)


def _run_fig2a(params, grid):
    xi_ml, _, traj, _ = forward_model(params, INITIAL_POP, grid)
    window = _sub_unity_window(grid, xi_ml)
    report = {
        "xi_min": float(xi_ml.min()),
        "t_min_ms": float(grid[np.argmin(xi_ml)]),
        "window": window,
    }
    arts = {
        "trajectory.csv": trajectory_to_csv(traj),
        "xi_multilevel.csv": {"time_ms": grid, "xi": xi_ml},
    }
    return report, arts


def _run_fig2b(params, grid):
    xi_on = forward_model(params, INITIAL_POP, grid)[0]
    # Drive off: no engineered dissipation, rate model loses the drive terms.
    dark = params.replace(Gamma=0.0)
    xi_off = forward_model(dark, INITIAL_POP, grid)[0]
    report = {
        "xi_min_drive_on": float(xi_on.min()),
        "xi_min_drive_off": float(xi_off.min()),
        "drive_off_entangled": bool((xi_off < 1.0).any()),
    }
    arts = {
        "xi_drive_on.csv": {"time_ms": grid, "xi": xi_on},
        "xi_drive_off.csv": {"time_ms": grid, "xi": xi_off},
    }
    return report, arts


def _dark_decay(params, state0, pop0, horizon=8.0, dt=0.05):
    """Drive switched off after generation: relax under dark dephasing."""
    dark = params.replace(Gamma=0.0, Gamma_tilde=_DARK_DEPHASING)
    grid = inclusive_range(0.0, horizon, dt)
    return grid, forward_model(dark, pop0, grid, initial_state=state0)[0]


def _deficit_efold_time(times, xi):
    """Time for the entanglement deficit 1 - xi to shrink by factor e."""
    deficit = 1.0 - xi
    if deficit[0] <= 0:
        raise EprSimError("no initial entanglement deficit to decay")
    target = deficit[0] / math.e
    below = deficit <= target
    if not below.any():
        return None
    k = int(np.argmax(below))
    return float(np.interp(target, [deficit[k], deficit[k - 1]],
                           [times[k], times[k - 1]]))


def _run_fig2c(params, grid):
    xi_pump, _, traj, pops = forward_model(params, INITIAL_POP, grid,
                                           pump=True)
    xi_nopump = forward_model(params, INITIAL_POP, grid)[0]
    w_pump = _sub_unity_window(grid, xi_pump)
    w_nopump = _sub_unity_window(grid, xi_nopump)
    # Inset: stop the drive at the witness minimum and watch the decay.
    k_min = int(np.argmin(xi_pump))
    t_dark, xi_dark = _dark_decay(params, traj.state(k_min),
                                  pops.state(k_min))
    efold = (_deficit_efold_time(t_dark, xi_dark)
             if xi_dark[0] < 1.0 else None)
    report = {
        "window_pump": w_pump,
        "window_no_pump": w_nopump,
        "xi_min_pump": float(xi_pump.min()),
        "dark_deficit_efold_ms": efold,
        "dark_time_above_unity_ms": (
            float(t_dark[np.argmax(xi_dark >= 1.0)])
            if (xi_dark >= 1.0).any() else None),
    }
    arts = {
        "xi_pump.csv": {"time_ms": grid, "xi": xi_pump},
        "xi_no_pump.csv": {"time_ms": grid, "xi": xi_nopump},
        "xi_dark_decay.csv": {"time_ms": t_dark, "xi": xi_dark},
    }
    return report, arts


# Hybrid-scheme fixture values (ms^-1, ms), and the defaults of the CLI's
# readout options of the same names; detection efficiency is the parameters'
# eta.  Splitting the published total decay 1/T2 = 0.27 ms^-1 into gamma_s
# and gamma_extra is an assumption; handover >= 5/gamma gives steady state.
# gm_min and gm_max bound the gamma_m scan.
READOUT_DEFAULTS = dict(gamma_s=0.19, gamma_extra=0.08, handover_ms=20.0,
                        probe_ms=5.0, dt_ms=0.1, trials=2000, gm_min=0.1,
                        gm_max=1.5)
_F2D_GRID = inclusive_range(READOUT_DEFAULTS["gm_min"],
                            READOUT_DEFAULTS["gm_max"], 0.05)  # ms^-1


def _run_fig2d(params, seed, trials):
    rd = READOUT_DEFAULTS
    loss = LossParams(rd["gamma_s"], rd["gamma_extra"], params.eta)
    probe, dt = rd["probe_ms"], rd["dt_ms"]
    mu_nu = (params.mu, params.nu)
    window = (rd["handover_ms"], rd["handover_ms"] + probe)
    # Exact affine calibration of the readout-mode variance against the
    # atomic variance at handover (probe window referred to its own start);
    # both branches and both statistics go through this same inverse.
    probe_mode = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                                direction="falling",
                                window=(0.0, probe))
    slope, floor = discrete_calibration(loss, mu_nu, dt, probe, probe_mode)

    initial_var = {"css": 1.0, "anti_squeezed": 4.0}
    # Common random numbers across the two branches: one draw per seed, and
    # only the initial variance differs, so the branch-to-branch difference
    # isolates the initial-state dependence.
    readouts = hybrid_readout(trials, loss, mu_nu, dt, window, seed,
                              initial_vars=tuple(initial_var.values()),
                              gamma_m_grid=_F2D_GRID)
    report = {}
    for label, r in zip(initial_var, readouts):
        # standard error of a variance estimate, pushed through the
        # (linear) inversion
        se_var = 0.5 * math.hypot(*r.conditional) * math.sqrt(
            2.0 / (trials - 1))
        report[label] = {
            "alpha_star": r.alpha_star,
            "gamma_m_star": r.gamma_m_star,
            "xi_unconditional": invert_readout(r.unconditional, slope, floor),
            "xi_conditional": invert_readout(r.conditional, slope, floor),
            "xi_conditional_se": se_var / slope,
        }
    report["gamma_total"] = loss.gamma
    report["calibration_slope"] = slope
    report["calibration_floor"] = floor
    d = abs(report["css"]["xi_conditional"]
            - report["anti_squeezed"]["xi_conditional"])
    se = math.hypot(report["css"]["xi_conditional_se"],
                    report["anti_squeezed"]["xi_conditional_se"])
    report["initial_state_gap"] = d
    report["initial_state_gap_se"] = se
    summary = {"initial_state": list(initial_var)}
    for k in ("alpha_star", "gamma_m_star", "xi_unconditional",
              "xi_conditional", "xi_conditional_se"):
        summary[k] = [report[label][k] for label in initial_var]
    arts = {"hybrid_summary.csv": summary}
    return report, arts


def run_scenario(name: str, overrides: dict | None = None, seed: int = 0,
                 grid=None, trials: int | None = None) -> ScenarioResult:
    """Deterministic end-to-end pipeline for a named scenario; ``trials``
    (default ``READOUT_DEFAULTS["trials"]``, at least 2 for a variance) is
    fig2d's only and ``grid`` the others' (ValueError)."""
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"choose from {SCENARIO_NAMES}")
    if name == "fig2d" and grid is not None:
        raise ValueError("fig2d samples records and takes no time grid")
    if name != "fig2d" and trials is not None:
        raise ValueError(f"{name} samples no records and takes no trials")
    if name == "fig2d" and trials is not None and trials < 2:
        raise ValueError("fig2d needs at least 2 trials for a variance")
    params = scenario_params(name)
    if overrides:
        params = params.replace(**overrides)
    if grid is None:
        grid = inclusive_range(*TIME_GRID)
    grid = np.asarray(grid, dtype=float)
    if name == "fig2d":  # record Monte Carlo: no time grid
        report, arts = _run_fig2d(params, seed, READOUT_DEFAULTS["trials"]
                                  if trials is None else trials)
    else:
        run = {"fig2a": _run_fig2a, "fig2b": _run_fig2b, "fig2c": _run_fig2c}
        report, arts = run[name](params, grid)
    return ScenarioResult(name=name, params=params, report=report,
                          artifacts=arts)
