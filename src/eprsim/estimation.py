"""Parameter estimation: rate/dephasing fits to xi(t) and J_x(t) series,
projection-noise calibration, and the orientation of a sublevel
distribution.

The forward model couples the three-level population dynamics to the
Gaussian moment engine: the populations throttle the collective rate and
supply the multilevel correction to the witness.  ``_ForwardModel`` sets it
up once for a grid, a start and the tangent directions; each evaluation
then does only the parameters' work and checks, and returns arrays.
Fitting is weighted least squares (``least_squares``, a projected
Levenberg-Marquardt in numpy) on at most five physical parameters with box
bounds, over one set-up per fit, with the exact Jacobian from one complex
step of the model's own kernels in the same evaluation as the residuals;
the solver stops by ``_FTOL``, ``_XTOL``, ``_GTOL`` and
``_NFEV_PER_PARAMETER``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import FitFailureError, IdentifiabilityError
from .gaussian_dynamics import (
    NoiseChannels,
    Trajectory,
    _mix,
    _moments,
    _start_row,
    _weights,
    _witness,
)
from .multilevel_rates import (
    PopulationSeries,
    PopulationState,
    RateSet,
    _checked_grid,
    _closed_form,
    _levels,
    _populations,
    _renormalised,
    _unchecked,
    multilevel_xi,
    polarization_slope,
    transition_rates,
)
from .spin_model import ModelParams, css_state, two_mode_squeezed_cov

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

# least_squares' stop, set above the forward model's rounding floor as
# measured on acceptance criterion 8's fits and the benchmark's: the cost's
# relative floor is <= 2e-15 on noisy series (ftol), estimates repeat to
# ~1e-11 under rounding-level changes (xtol), and a noise-free series'
# optimum has a gradient <= 3e-8 (gtol).  Noisy fits converge linearly
# (Gauss-Newton on large residuals); at ftol = 3e-11 the five-parameter
# pumped fit stops 3e-6 standard errors from its optimum, at 1e-10 it
# stopped 1.4e-5 away, with a covariance 2e-4 off
_FTOL, _XTOL = 3e-11, 1e-10
_GTOL = 1e-5
# least_squares' evaluation budget, per free parameter
_NFEV_PER_PARAMETER = 100
# least_squares' message by status
_STOPS = ("the evaluation budget is spent", "gtol is met", "ftol is met",
          "xtol is met", "ftol and xtol are met")
# Step of the complex-step derivative (Squire & Trapp, SIAM Rev. 40 (1998)
# 110; Martins, Sturdza & Alonso, ACM TOMS 29 (2003) 245): parameters + i h
# d carry the derivative along d in their imaginary part, computed without a
# difference that cancels; the O(h^2) error is far below rounding
_STEP = 2.0**-80


@dataclass(frozen=True)
class FitProblem:
    """Observed series plus the parameter split for a fit.

    ``observed`` is a structured record of aligned 1-D arrays: t (ms), xi,
    xi_err, jx_norm, jx_err; entries of jx_norm may be NaN where only the
    witness was measured (they are skipped).  Times and xi must be finite,
    the times strictly increasing, and every error that weights a residual
    finite, > 0 and of finite 1/err^2, with the value it weights finite over
    it (ValueError).
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
        if np.any(self.times[1:] <= self.times[:-1]):
            raise ValueError("observed times t must strictly increase")
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
    at_bound: tuple = ()  # held on a bound: zero covariance rows/columns


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


# the derivatives of _tangents' columns by each of FITTABLE (rows)
_TANGENT_MAP = np.array([[0, 0, 0, 0, 0, 1, 0, 0], [1, 1, 1, 1, 0, 0, 0, 0],
                         [0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0, 0, 0],
                         [0, 0, 0, 0, 1, 0, 0, 1]], dtype=float)


def _tangents(directions, pump: bool) -> np.ndarray:
    """d(g34, g43, g_out, g_in, pump) of ``transition_rates``, then d(d,
    dephasing, pump_refill) of ``NoiseChannels.from_params``, along the P
    directions over FITTABLE, shape (P, 8); Gamma_pump moves only a pump."""
    k = 5 if pump else 4
    return np.reshape(directions, (-1, 5))[:, :k] @ _TANGENT_MAP[:k]


def _directions(problem: FitProblem) -> np.ndarray:
    """d(FITTABLE)/d(free), shape (len(free), 5): unit rows, and under the
    slope constraint d Gamma_L_out by the chain rule through
    ``_resolve_gamma_l_out``, which is linear in the other rates."""
    eye = np.eye(len(FITTABLE))
    rows = eye[[FITTABLE.index(name) for name in problem.free]]
    if problem.slope_obs is not None:
        for row, d in zip(rows, _tangents(rows, problem.pump)):
            row[3] = polarization_slope(
                problem.initial_pop, RateSet(*d[:2], 0.0, *d[3:5])) - row[1]
    return rows


def _observed(xi_gauss, pops):
    """(xi_multilevel, jx_norm) along the last axis from the Gaussian
    witness and the populations, or from their complex steps."""
    return multilevel_xi(xi_gauss, pops), pops.jx_frac / pops.jx_frac[..., :1]


class _ForwardModel:
    """``forward_model``'s set-up, made once for the inputs a fit fixes: the
    grid is checked, the start's witness row read (``_start_row``) and the
    ``directions`` scaled into the complex step's moves.  A call evaluates
    the model at a ModelParams, with every check that depends on it."""

    def __init__(self, initial_pop: PopulationState, times, pump=False,
                 initial_state=None, directions=None):
        self.times = _checked_grid(times)
        self.t, self.h = self.times - self.times[0], np.diff(self.times)
        self.n0 = (initial_pop.n44, initial_pop.n43, initial_pop.nh)
        self.pump, self.steps = pump, None
        self.initial = css_state() if initial_state is None else initial_state
        self.row0 = _start_row(self.initial)
        if directions is not None:
            self.steps = 1j * (_STEP * _tangents(directions, pump))
            self.moving = np.flatnonzero(self.steps[:, :5].imag.any(axis=1))

    def __call__(self, params: ModelParams):
        """(xi_multilevel, jx_norm, pops, moments), the last two holding the
        arrays of the PopulationSeries and the Trajectory; with directions,
        then (d_xi_multilevel, d_jx_norm) (P, len(times))."""
        rates = transition_rates(params, self.pump)
        r = (rates.g34, rates.g43, rates.g_out, rates.g_in, rates.pump)
        n44, n43, nh = sol = _populations(self.n0, self.t, r)
        pops = SimpleNamespace(**_levels(n44, n43, nh, np.abs(n44 - n43)))
        phi, x = _moments(self.h, params, NoiseChannels.from_params(
            params, pump=self.pump), pops.p2_tilde, pops.nh)
        moments = _witness(phi, x, self.row0,
                           two_mode_squeezed_cov(params.mu, params.nu))
        values = (*_observed(moments["xi"], pops), pops, moments)
        if self.steps is None:
            return values
        # the same kernels at the rates, d, dephasing and refill moved by
        # ``steps``: the closed form per direction that moves a population
        # rate, the moments for all directions at once as (P, 1) columns;
        # |n44 - n43| and nh's clip at 0 go by the sign of the real value,
        # and the rounding-level clips pass the tangents through
        z = np.array([*r, params.d, params.Gamma_tilde, r[4]]) + self.steps
        moved = sol[:, None] + np.zeros((len(z), 1), complex)
        for p in self.moving:
            moved[:, p] = _renormalised(np.array(_closed_form(
                self.n0, self.t, *z[p, :5].tolist())))
        n44, n43, nh = moved
        d, dephasing, refill = z[:, 5:].T[:, :, None]
        diff = n44 - n43
        pops = SimpleNamespace(**_levels(n44, n43, nh,
                                         diff * np.sign(diff.real)))
        phi, x = _weights(self.h, d * params.Gamma, dephasing, pops.p2_tilde,
                          refill * (nh * (nh.real > 0)))
        xi = _mix(phi, x, moments["corners"][:, 2])
        return values + tuple(v.imag / _STEP for v in _observed(xi, pops))


def forward_model(params: ModelParams, initial_pop: PopulationState, times,
                  pump: bool = False, initial_state=None, directions=None):
    """Predicted (xi_multilevel, jx_norm) series for a parameter set, with
    the trajectory and population series they come from; the moments start
    from the GaussianState ``initial_state`` (None: the CSS).

    ``directions`` (P, 5) over FITTABLE adds the series' derivatives (P,
    len(times)) along them, (d_xi_multilevel, d_jx_norm), by one complex
    step; the values do not depend on them.
    """
    model = _ForwardModel(initial_pop, times, pump, initial_state, directions)
    xi, jx, pops, moments, *tangents = model(params)
    pops = _unchecked(PopulationSeries, times=model.times, **vars(pops))
    traj = _unchecked(Trajectory, times=model.times, initial=model.initial,
                      populations=pops, **moments)
    return (xi, jx, traj, pops, *tangents)


def least_squares(fun, x0, bounds):
    """min 0.5 |f(x)|^2 over the box lo <= x <= hi by projected
    Levenberg-Marquardt (More, LNM 630 (1978); Madsen, Nielsen & Tingleff,
    Methods for Non-Linear Least Squares Problems (2004), sec. 3.2).

    ``fun(x)`` returns the residuals f and their Jacobian J at x, from one
    evaluation.  A step solves (J^T J + mu / s^2) dx = -J^T f, with the
    step scale s = max(|x0|, 1e-3), over the variables that the gradient
    does not hold at a bound, and is clipped to the box.  mu starts at
    1e-6 max diag(J^T J) s^2 and follows the gain ratio; a trial with
    non-finite residuals is rejected, and an accepted trial's J is the next
    step's.  The stop is scipy's at this module's constants: status 1, the
    gradient projected at the active bounds below _GTOL in the infinity
    norm; 2, an accepted step lowering the cost by under _FTOL * cost at a
    gain ratio above 1/4; 3, a step shorter than _XTOL * (_XTOL + |x|); 4,
    both 2 and 3; 0 (no success), _NFEV_PER_PARAMETER evaluations per
    parameter spent.  x is the best iterate.

    ``fit_parameters`` calls it through this module global, so a wrapper
    bound here (perfbench/tracer.py counts ``nfev`` and ``njev`` this way)
    sees every solve.  The result carries scipy's fields; ``njev`` counts
    the Jacobians the steps used, the first and one per accepted step.

    The Gauss-Newton model is kept on purpose.  A Dennis-Gay-Welsch
    structured-secant term for the residuals' curvature (NL2SOL's
    large-residual correction) was tried always on, switched on by
    Fletcher-Xu when a step lowers the cost by under 20 %, and chosen as
    in NL2SOL by which model predicted the last step better: it took the
    benchmark's noisy fit from 10 evaluations to 7, but the test suite's
    102 fits from 793 evaluations to 813, 803 and 841.
    """
    lo, hi = bounds
    x = np.array(x0, dtype=float)
    f, J = fun(x)
    cost, nfev, njev, status = 0.5 * float(f @ f), 1, 1, None
    max_nfev = _NFEV_PER_PARAMETER * x.size
    scale = np.maximum(np.abs(x), 1e-3)
    mu, nu = 1e-6 * float(np.max(np.sum((J * scale) ** 2, axis=0))), 2.0
    while True:
        g = J.T @ f
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        if np.abs(g[free]).max(initial=0.0) < _GTOL:
            status = 1
        if status is not None or nfev >= max_nfev:
            break
        A, all_free = J.T @ J, free.all()
        while True:
            if all_free:  # no masked copies: the same solve on A, g, scale
                dx = np.linalg.solve(A + np.diag(mu / scale**2), -g)
            else:
                dx = np.zeros(x.shape)
                dx[free] = np.linalg.solve(A[free][:, free]
                                           + np.diag(mu / scale[free]**2),
                                           -g[free])
            x_new = (x + dx).clip(lo, hi)
            dx = x_new - x
            f_new, J_new = fun(x_new)
            nfev += 1
            cost_new = (0.5 * float(f_new @ f_new)
                        if np.isfinite(f_new).all() else np.inf)
            short = (math.sqrt(dx.dot(dx))
                     < _XTOL * (_XTOL + math.sqrt(x.dot(x))))
            if cost_new < cost:
                break
            mu, nu = mu * nu, 2.0 * nu
            if short:
                status = 3
            if short or nfev >= max_nfev:
                break
        if cost_new >= cost:
            break
        predicted = -float(g @ dx + 0.5 * dx @ A @ dx)
        ratio = (cost - cost_new) / predicted if predicted > 0 else 0.0
        mu, nu = mu * max(1 / 3, 1 - (2 * min(ratio, 1.0) - 1) ** 3), 2.0
        fstop = cost - cost_new < _FTOL * cost and ratio > 0.25
        if fstop or short:
            status = 4 if fstop and short else 2 if fstop else 3
        x, f, J, cost = x_new, f_new, J_new, cost_new
        njev += 1
    if status is None:  # the budget is spent
        status = 0
    return SimpleNamespace(x=x, fun=f, jac=J, cost=cost, nfev=nfev,
                           njev=njev, status=status, success=status > 0,
                           message=_STOPS[status])


def fit_parameters(problem: FitProblem) -> FitResult:
    """Weighted least squares over the coupled rate + moment forward model."""
    mask = np.isfinite(problem.jx_norm)  # rows with a measured J_x
    observed = np.concatenate([problem.xi, problem.jx_norm[mask]])
    err = np.concatenate([problem.xi_err, problem.jx_err[mask]])
    model = _ForwardModel(problem.initial_pop, problem.times, problem.pump,
                          directions=_directions(problem) if problem.free
                          else None)

    def build(x):
        # floats, not the solver's NumPy scalars, which warn on overflow
        trial = dict(zip(problem.free, x.tolist()))
        if problem.slope_obs is not None:
            trial["Gamma_L_out"] = _resolve_gamma_l_out(problem, trial)
        return problem.fixed.replace(**trial)

    def evaluate(x):
        # the residuals and their Jacobian from one evaluation; with nothing
        # free there are no tangents, and J has no columns
        xi_m, jx_m, _, _, *tangents = model(build(x))
        d_xi, d_jx = tangents or np.empty((2, 0, problem.times.size))
        return ((np.concatenate([xi_m, jx_m[mask]]) - observed) / err,
                np.concatenate([d_xi.T, d_jx[:, mask].T]) / err[:, None])

    if not problem.free:
        r, _ = evaluate(np.empty(0))
        return FitResult(params=build(np.empty(0)),
                         covariance=np.empty((0, 0)), residuals=r,
                         free=(), cost=0.5 * float(r @ r))

    if observed.size < len(problem.free):
        raise ValueError("fewer data points than free parameters")

    x0 = np.array([getattr(problem.fixed, name) for name in problem.free])
    lo = np.array([1.0 if n == "d" else 0.0 for n in problem.free])
    hi = np.array([1e4 if n == "d" else 10.0 for n in problem.free])
    x0 = np.clip(x0, lo + 1e-6, hi - 1e-6)

    sol = least_squares(evaluate, x0, bounds=(lo, hi))
    if not (sol.success and np.all(np.isfinite(sol.x))):
        raise FitFailureError(f"fit did not converge: {sol.message}",
                              best=build(sol.x))

    # a parameter within the xtol stop of a bound that the gradient pushes
    # against is held there, with no variance; the identifiability check
    # and the covariance are those of the other parameters
    x, g, free = sol.x, sol.jac.T @ sol.fun, np.array(problem.free, object)
    near = _XTOL * (_XTOL + np.abs(x))
    live = ~(((x - lo <= near) & (g > 0)) | ((hi - x <= near) & (g < 0)))
    cov = np.zeros((x.size, x.size))
    if live.any():
        _, s, vt = np.linalg.svd(sol.jac[:, live], full_matrices=False)
        if s[0] == 0 or s[-1] / s[0] < 1e-10:
            direction = dict(zip(free[live], vt[-1].tolist()))
            worst = max(direction, key=lambda k: abs(direction[k]))
            raise IdentifiabilityError(
                f"information matrix is singular along a direction dominated "
                f"by {worst}", direction=direction)
        cov[np.ix_(live, live)] = (vt.T / s**2) @ vt
    return FitResult(params=build(x), covariance=cov, residuals=sol.fun,
                     free=tuple(problem.free), cost=float(sol.cost),
                     at_bound=tuple(free[~live]))


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
