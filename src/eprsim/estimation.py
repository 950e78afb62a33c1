"""Parameter estimation: rate/dephasing fits to xi(t) and J_x(t) series,
projection-noise calibration, and the orientation of a sublevel
distribution.

The forward model couples the three-level population dynamics to the
Gaussian moment engine: the populations throttle the collective rate and
supply the multilevel correction to the witness.  Fitting is weighted least
squares (scipy's trust-region Gauss-Newton) on at most five physical
parameters with positivity bounds, with the exact Jacobian: forward-mode
derivatives taken through the same closed forms that give the values
(``forward_tangents``), from the populations and trajectory that the
residuals computed at the same point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FitFailureError, IdentifiabilityError
from .gaussian_dynamics import (
    NoiseChannels,
    moment_tangents,
    propagate_moments,
)
from .multilevel_rates import (
    PopulationState,
    RateSet,
    multilevel_xi,
    polarization_slope,
    population_tangents,
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
    "forward_tangents",
    "fit_parameters",
    "calibrate_pn",
    "orientation",
]

FITTABLE = ("d", "Gamma_col", "Gamma_tilde", "Gamma_L_out", "Gamma_pump")

# the F = 4 magnetic sublevels
_M_VALUES = np.arange(-4, 5)

# least_squares' stop, set above the forward model's rounding floor as
# measured on acceptance criterion 8's fits and the benchmark's: the cost's
# relative floor is <= 2e-15 on noisy series (ftol), estimates repeat to
# ~1e-11 under rounding-level changes (xtol), and a noise-free series
# reaches its floor at a first-order optimality <= 5e-7 (gtol)
_FTOL = _XTOL = 1e-10
_GTOL = 1e-5


@dataclass(frozen=True)
class FitProblem:
    """Observed series plus the parameter split for a fit.

    ``observed`` is a structured record of aligned 1-D arrays: t (ms), xi,
    xi_err, jx_norm, jx_err; entries of jx_norm may be NaN where only the
    witness was measured (they are skipped).  Times and xi must be finite,
    and every error that weights a residual finite, > 0 and of finite 1/err^2,
    with the value it weights finite over it (ValueError).
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
        has_jx = np.isfinite(self.jx_norm)
        for value, name, x, err in (
                ("xi", "xi_err", self.xi, self.xi_err),
                ("jx_norm", "jx_err", self.jx_norm[has_jx],
                 self.jx_err[has_jx])):
            with np.errstate(divide="ignore", over="ignore"):
                ok = np.isfinite(err) & (err > 0) & np.isfinite(err ** -2.0)
                scaled = np.isfinite(x / err)
            if not ok.all():
                raise ValueError(f"{name} must be finite and > 0 with a "
                                 f"finite weight 1/{name}^2")
            if not scaled.all():
                raise ValueError(f"{value}/{name} must be finite")
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


def _rate_tangents(directions, pump: bool) -> np.ndarray:
    """d(g34, g43, g_out, g_in, pump) of ``transition_rates`` along
    directions over FITTABLE, shape (P, 5)."""
    _, col, _, l_out, pmp = np.transpose(directions)
    return np.stack([col, col, col + l_out, col, pmp * pump], axis=1)


def _directions(problem: FitProblem) -> np.ndarray:
    """d(FITTABLE)/d(free), shape (len(free), 5): unit rows, and under the
    slope constraint d Gamma_L_out by the chain rule through
    ``_resolve_gamma_l_out``, which is linear in the other rates."""
    eye = np.eye(len(FITTABLE))
    rows = eye[[FITTABLE.index(name) for name in problem.free]]
    if problem.slope_obs is not None:
        for row, d in zip(rows, _rate_tangents(rows, problem.pump)):
            row[3] = polarization_slope(
                problem.initial_pop, RateSet(*d[:2], 0.0, *d[3:])) - row[1]
    return rows


def forward_model(params: ModelParams, initial_pop: PopulationState, times,
                  pump: bool = False):
    """Predicted (xi_multilevel, jx_norm) series for a parameter set, with
    the trajectory and population series they come from."""
    times = np.asarray(times, dtype=float)
    pops = propagate_populations(initial_pop, transition_rates(params, pump),
                                 times)
    noise = NoiseChannels.from_params(params, pump=pump)
    traj = propagate_moments(css_state(), params, noise, times,
                             populations=pops)
    xi_ml = multilevel_xi(traj.xi, pops)
    jx_norm = pops.jx_frac / pops.jx_frac[0]
    return xi_ml, jx_norm, traj, pops


def forward_tangents(params: ModelParams, initial_pop: PopulationState,
                     traj, pops, directions, pump: bool = False):
    """Derivatives (P, len(times)) of forward_model's (xi_multilevel,
    jx_norm) along P directions over FITTABLE, shape (P, 5), from the
    ``traj`` and ``pops`` it returned for ``params``."""
    directions = np.reshape(directions, (-1, len(FITTABLE)))
    d_rates = _rate_tangents(directions, pump)
    d_pops = population_tangents(initial_pop,
                                 transition_rates(params, pump), pops,
                                 d_rates)
    # NoiseChannels.from_params: dephasing Gamma_tilde, pump refill the pump
    d_d, _, d_tilde, _, _ = directions.T
    d_xi = moment_tangents(traj, params,
                           NoiseChannels.from_params(params, pump=pump),
                           np.stack([d_d, d_tilde, d_rates[:, 4]], axis=1),
                           d_pops)
    _, d_xi_ml = multilevel_xi(traj.xi, pops, (d_xi, d_pops))
    d_jx = 4.0 * d_pops[0] + 3.0 * d_pops[1]  # of jx_frac
    jx0 = pops.jx_frac[0]
    return d_xi_ml, (d_jx - pops.jx_frac / jx0 * d_jx[:, :1]) / jx0


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
    last = {}  # x of the latest residuals -> its (params, traj, pops)

    def build(x):
        trial = dict(zip(problem.free, x))
        if problem.slope_obs is not None:
            trial["Gamma_L_out"] = _resolve_gamma_l_out(problem, trial)
        return problem.fixed.replace(**trial)

    def residuals(x):
        p = build(x)
        xi_m, jx_m, traj, pops = forward_model(p, problem.initial_pop,
                                               problem.times,
                                               pump=problem.pump)
        last.clear()
        last[x.tobytes()] = p, traj, pops
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
    directions = _directions(problem)

    def jacobian(x):
        # least_squares asks for the Jacobian at the x it last evaluated
        if x.tobytes() not in last:
            residuals(x)
        p, traj, pops = last[x.tobytes()]
        d_xi, d_jx = forward_tangents(p, problem.initial_pop, traj, pops,
                                      directions, pump=problem.pump)
        return np.concatenate([d_xi.T / problem.xi_err[:, None],
                               d_jx[:, mask].T / problem.jx_err[mask, None]])

    x0 = np.array([getattr(problem.fixed, name) for name in problem.free])
    lo = np.array([1.0 if n == "d" else 0.0 for n in problem.free])
    hi = np.array([1e4 if n == "d" else 10.0 for n in problem.free])
    x0 = np.clip(x0, lo + 1e-6, hi - 1e-6)

    # exact Jacobian; a stop below the rounding floor would let last-bit
    # rounding decide where the fit ends
    sol = least_squares(residuals, x0, jac=jacobian, bounds=(lo, hi),
                        ftol=_FTOL, xtol=_XTOL, gtol=_GTOL,
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
    with np.errstate(over="ignore"):
        design = np.stack([theta, theta**2], axis=1) * w[:, None]
    if not np.all(np.isfinite(design)):
        raise ValueError("calibration theta^2 times weight must be finite")
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
    with np.errstate(over="ignore"):
        if not (np.all(np.isfinite(p)) and np.isfinite(p.sum())):
            raise ValueError("populations and their sum must be finite")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("populations must be a distribution")
    return float(_M_VALUES @ p) / 4.0
