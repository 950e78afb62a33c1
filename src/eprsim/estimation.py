"""Parameter estimation: rate/dephasing fits to xi(t) and J_x(t) series,
projection-noise calibration, and the orientation of a sublevel
distribution.

The forward model couples the three-level population dynamics to the
Gaussian moment engine: the populations throttle the collective rate and
supply the multilevel correction to the witness.  Fitting is weighted least
squares (finite-difference Gauss-Newton via scipy) on at most five physical
parameters with positivity bounds.

A fit keeps the population series of its last len(free) + 1 rate sets,
keyed on the exact ``RateSet``, which d and Gamma_tilde do not enter: a
Jacobian pass propagates its base point's populations once for all such
columns, and the residuals are bit for bit those of propagating every time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FitFailureError, IdentifiabilityError
from .gaussian_dynamics import NoiseChannels, propagate_moments
from .multilevel_rates import (
    PopulationState,
    multilevel_xi,
    polarization_slope,
    propagate_populations,
    transition_rates,
)
from .spin_model import ModelParams, css_state

__all__ = [
    "FitProblem",
    "FitResult",
    "CalibrationPoint",
    "FITTABLE",
    "forward_model",
    "fit_parameters",
    "calibrate_pn",
    "orientation",
]

FITTABLE = ("d", "Gamma_col", "Gamma_tilde", "Gamma_L_out", "Gamma_pump")

# the F = 4 magnetic sublevels
_M_VALUES = np.arange(-4, 5)


@dataclass(frozen=True)
class FitProblem:
    """Observed series plus the parameter split for a fit.

    ``observed`` is a structured record of aligned 1-D arrays: t (ms), xi,
    xi_err, jx_norm, jx_err; entries of jx_norm may be NaN where only the
    witness was measured (they are skipped).  Times and xi must be finite,
    and every error that weights a residual finite, > 0 and of finite 1/err^2
    (ValueError).
    A finite ``slope_obs`` (ms^-1), the measured t = 0 polarisation slope,
    pins Gamma_L_out, which then cannot be free; None leaves it unpinned.
    """

    times: np.ndarray
    xi: np.ndarray
    xi_err: np.ndarray
    jx_norm: np.ndarray
    jx_err: np.ndarray
    free: tuple
    fixed: ModelParams
    initial_pop: PopulationState
    pump: bool = False
    slope_obs: float | None = None

    def __post_init__(self):
        for name in ("times", "xi", "xi_err", "jx_norm", "jx_err"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        n = self.times.size
        if n == 0:
            raise ValueError("observed series must be nonempty")
        for name in ("xi", "xi_err", "jx_norm", "jx_err"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must be aligned with times")
        if not np.all(np.isfinite(self.times) & np.isfinite(self.xi)):
            raise ValueError("observed times and xi must be finite")
        # xi_err weights every row, jx_err only the rows with a jx_norm
        for name, err in (("xi_err", self.xi_err),
                          ("jx_err", self.jx_err[np.isfinite(self.jx_norm)])):
            with np.errstate(divide="ignore", over="ignore"):
                ok = np.isfinite(err) & (err > 0) & np.isfinite(err ** -2.0)
            if not ok.all():
                raise ValueError(f"{name} must be finite and > 0 with a "
                                 f"finite weight 1/{name}^2")
        unknown = set(self.free) - set(FITTABLE)
        if unknown:
            raise ValueError(f"not fittable: {sorted(unknown)}")
        if len(set(self.free)) != len(self.free):
            raise ValueError("duplicate free parameters")
        if self.slope_obs is not None and not np.isfinite(self.slope_obs):
            raise ValueError("slope_obs must be finite")
        if self.slope_obs is not None and "Gamma_L_out" in self.free:
            raise ValueError("Gamma_L_out is determined by the slope "
                             "constraint; remove it from the free set")


@dataclass
class FitResult:
    params: ModelParams
    covariance: np.ndarray
    residuals: np.ndarray
    free: tuple
    cost: float


@dataclass(frozen=True)
class CalibrationPoint:
    """One point of the projection-noise calibration curve."""

    theta: float  # Faraday angle, proportional to J_x
    xi0: float  # reconstructed initial noise in PN units
    weight: float = 1.0

    def __post_init__(self):
        if not all(map(np.isfinite, (self.theta, self.xi0, self.weight))):
            raise ValueError("calibration theta, xi0 and weight must be "
                             "finite")
        if self.theta <= 0:
            raise ValueError("Faraday angle must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def _resolve_gamma_l_out(problem: FitProblem, trial: dict) -> float:
    """Invert the linear t = 0 polarisation-slope identity for Gamma_L_out."""
    p = problem.fixed.replace(**{k: v for k, v in trial.items()
                                 if k != "Gamma_L_out"})
    # the slope falls by exactly g_out from its value at g_out = 0
    rates = replace(transition_rates(p, problem.pump), g_out=0.0)
    g_out = polarization_slope(problem.initial_pop, rates) - problem.slope_obs
    gl = g_out - p.Gamma_col
    if gl < 0:
        raise FitFailureError(
            f"slope constraint forces Gamma_L_out = {gl:.4g} < 0"
        )
    return gl


def forward_model(params: ModelParams, initial_pop: PopulationState, times,
                  pump: bool = False, *, pops=None):
    """Predicted (xi_multilevel, jx_norm) series for a parameter set;
    ``pops``, if given, is its rates' population series on ``times``."""
    times = np.asarray(times, dtype=float)
    if pops is None:
        pops = propagate_populations(initial_pop,
                                     transition_rates(params, pump), times)
    noise = NoiseChannels.from_params(params, pump=pump)
    traj = propagate_moments(css_state(), params, noise, times,
                             populations=pops)
    xi_ml = multilevel_xi(traj.xi, pops)
    jx_norm = pops.jx_frac / pops.jx_frac[0]
    return xi_ml, jx_norm, traj, pops


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first fit.

    ``fit_parameters`` calls it through this module global, so a wrapper
    bound here (perfbench/tracer.py counts ``nfev`` and ``njev`` this way)
    sees every solve.
    """
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


def fit_parameters(problem: FitProblem) -> FitResult:
    """Weighted least squares over the coupled rate + moment forward model."""
    mask = np.isfinite(problem.jx_norm)  # rows with a measured J_x
    n_obs = problem.times.size + np.count_nonzero(mask)
    memo = {}  # RateSet -> PopulationSeries; see the module docstring

    def build(x):
        trial = dict(zip(problem.free, x))
        if problem.slope_obs is not None:
            trial["Gamma_L_out"] = _resolve_gamma_l_out(problem, trial)
        return problem.fixed.replace(**trial)

    def residuals(x):
        p = build(x)
        rates = transition_rates(p, problem.pump)
        if rates not in memo:
            if len(memo) > len(problem.free):
                del memo[next(iter(memo))]
            memo[rates] = propagate_populations(problem.initial_pop, rates,
                                                problem.times)
        xi_m, jx_m, _, _ = forward_model(p, problem.initial_pop,
                                         problem.times, pump=problem.pump,
                                         pops=memo[rates])
        res = [(xi_m - problem.xi) / problem.xi_err]
        if mask.any():
            res.append((jx_m[mask] - problem.jx_norm[mask])
                       / problem.jx_err[mask])
        return np.concatenate(res)

    if not problem.free:
        r = residuals(np.empty(0))
        return FitResult(params=build(np.empty(0)),
                         covariance=np.empty((0, 0)), residuals=r,
                         free=(), cost=0.5 * float(r @ r))

    if n_obs < len(problem.free):
        raise ValueError("fewer data points than free parameters")

    x0 = np.array([getattr(problem.fixed, name) for name in problem.free])
    lo = np.array([1.0 if n == "d" else 0.0 for n in problem.free])
    hi = np.array([1e4 if n == "d" else 10.0 for n in problem.free])
    x0 = np.clip(x0, lo + 1e-6, hi - 1e-6)

    # Relative step of the forward-difference Jacobian.  The forward model
    # is exact to rounding, so no solver noise floor forces this value; the
    # fit's iterates, and so its results, depend on it.
    sol = least_squares(residuals, x0, bounds=(lo, hi), xtol=1e-15,
                        ftol=1e-15, gtol=1e-15, diff_step=1e-5,
                        x_scale=np.maximum(np.abs(x0), 1e-3))
    if not (sol.success and np.all(np.isfinite(sol.x))):
        raise FitFailureError(f"fit did not converge: {sol.message}",
                              best=build(sol.x))

    jac = sol.jac
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s[0] == 0 or s[-1] / s[0] < 1e-10:
        direction = {name: float(v) for name, v in zip(problem.free, vt[-1])}
        worst = max(direction, key=lambda k: abs(direction[k]))
        raise IdentifiabilityError(
            f"information matrix is singular along a direction dominated by "
            f"{worst}", direction=direction)
    cov = (vt.T / s**2) @ vt
    return FitResult(params=build(sol.x), covariance=cov,
                     residuals=sol.fun, free=tuple(problem.free),
                     cost=float(sol.cost))


def calibrate_pn(points) -> tuple:
    """Fit xi0 = a*theta + b*theta^2; returns (a, b, b/a).

    The linear part defines the projection-noise level; the quadratic part
    captures classical noise growing with atom number.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least three calibration points")
    theta = np.array([p.theta for p in points])
    xi0 = np.array([p.xi0 for p in points])
    w = np.sqrt(np.array([p.weight for p in points]))
    design = np.stack([theta, theta**2], axis=1) * w[:, None]
    if np.linalg.matrix_rank(design, tol=1e-12 * np.abs(design).max()) < 2:
        raise FitFailureError("calibration points are collinear in "
                              "(theta, theta^2)")
    coef, *_ = np.linalg.lstsq(design, xi0 * w, rcond=None)
    a, b = (float(c) for c in coef)
    if a == 0.0:
        raise FitFailureError("degenerate calibration: zero linear part")
    return a, b, b / a


def orientation(populations) -> float:
    """Orientation o = (1/4) sum_m m p_m of a sublevel distribution."""
    p = np.asarray(populations, dtype=float)
    if p.shape != (9,):
        raise ValueError("need nine sublevel populations (m = -4..4)")
    if not np.all(np.isfinite(p)):
        raise ValueError("populations must be finite")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("populations must be a distribution")
    return float(_M_VALUES @ p) / 4.0
