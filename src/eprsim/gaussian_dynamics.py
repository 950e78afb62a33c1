"""Second-moment dynamics of the two ensembles under engineered dissipation.

The master equation with the nonlocal jump operators A = mu J-_I - nu J-_II
and B = mu J+_II - nu J+_I becomes, in the Holstein-Primakoff limit, a pair
of bosonic Lindblad channels L1 = mu a - nu b^dag, L2 = mu b - nu a^dag at
the collective rate.  Working out the first and second moments (the drift
matrix is proportional to the identity, so the covariance relaxes uniformly)
gives

    d<r>/dt  = -gamma_c <r>
    dC/dt    = -2 gamma_c (C - C_tms)

where C_tms is the two-mode-squeezed covariance with diagonal mu^2 + nu^2
and cross blocks +/- 2 mu nu.  In the nonlocal basis this is exactly the
relaxation of var((X_I - X_II)/sqrt(2)) and var((P_I + P_II)/sqrt(2)) toward
(mu - nu)^2 at rate 2 gamma_c, with the conjugate combinations anti-squeezed
toward (mu + nu)^2.  The collective rate is

    2 gamma_c = d * Gamma * N2(t) P2(t) / N

so population loss and depolarisation throttle the entangling channel
quasi-statically.  Local dephasing pulls every covariance entry back toward
the CSS identity at rate Gamma_tilde.  These equations are certified against
the exact few-spin Lindblad integrator in ``lindblad_oracle``.

With g2 = 2 gamma_c and c the CSS-restoring rate (both may vary in time),
the solution stays in the span of C0, T = C_tms and I:

    C(t) = phi C0 + x T + (1 - phi - x) I,     <r>(t) = sqrt(phi) <r>(0)
    dphi/dt = -rate phi,    dx/dt = -rate x + g2,    rate = g2 + c

The rates are linear between population times, so over each such interval
[a, b] the solution is exact: phi_b = phi_a e^-dR with dR = int_a^b rate, and
x_b = x_a e^-dR + int_{e^-dR}^1 q du, with q = g2 / rate in [0, 1] taken at
the root s(u) of the quadratic int_s^b rate = -ln u; a fixed Gauss-Legendre
rule integrates this bounded, smooth q, however stiff the rates.  phi, x >= 0
and phi + x <= 1 make C a convex mix of physical covariances, hence physical,
and the witness (linear in C) mixes the witnesses of C0, T and I alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .multilevel_rates import series_to_csv
from .spin_model import (
    GaussianState,
    ModelParams,
    css_state,
    epr_variance,
    require_finite,
    two_mode_squeezed_cov,
)

__all__ = [
    "NoiseChannels",
    "Trajectory",
    "relaxation_rate",
    "moment_derivative",
    "propagate_moments",
    "trajectory_to_csv",
]


def __getattr__(name):
    # The engine is closed-form and never calls solve_ivp; the name stays
    # only because perfbench/tracer.py wraps it as a layer.  It loads on
    # access, since scipy.integrate alone adds 0.3-0.8 s to start-up.  The
    # shim goes away with ROADMAP item 2, which retires those metrics.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Gauss-Legendre rule on [-1, 1] for the x increment of one interval
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class NoiseChannels:
    """Local (single-ensemble) noise processes on top of the engineered bath.

    ``dephasing`` drives every quadrature variance back toward the CSS level;
    ``pump_refill`` is the quadrature-noise side of the incoherent pump (0
    without a pump) and has the same CSS-restoring structure.  The two
    ensembles are indistinguishable emitters, so the engineered bath always
    drives them toward the joint two-mode-squeezed state.
    """

    dephasing: float = 0.0
    pump_refill: float = 0.0

    def __post_init__(self):
        require_finite(dephasing=self.dephasing, pump_refill=self.pump_refill)
        if self.dephasing < 0 or self.pump_refill < 0:
            raise InvariantViolationError("noise rates must be >= 0")

    def pump_noise_rate(self, nh_frac) -> float:
        """Quadrature-noise rate of the incoherent pump.

        Refilled atoms re-enter the collective mode in a random spin state,
        so the noise injection scales with the refill flux, i.e. with the
        hidden-level fraction -- not with the bare pump rate.
        """
        return self.pump_refill * np.maximum(0.0, nh_frac)

    @classmethod
    def from_params(cls, params: ModelParams, pump: bool = False) -> "NoiseChannels":
        return cls(dephasing=params.Gamma_tilde,
                   pump_refill=params.Gamma_pump if pump else 0.0)


@dataclass
class Trajectory:
    """Moments on ``times`` as C = phi C0 + x T + (1 - phi - x) I.

    ``initial`` holds C0 and the means at ``times[0]``; ``target`` is T.
    The witness arrays ``var_x_minus``, ``var_p_plus`` and ``xi`` are
    aligned with ``times``.
    """

    times: np.ndarray
    phi: np.ndarray
    x: np.ndarray
    initial: GaussianState
    target: np.ndarray
    populations: object = None

    def __post_init__(self):
        self.times, self.phi, self.x = (
            np.asarray(a, float) for a in (self.times, self.phi, self.x))
        if np.any(np.diff(self.times) <= 0):
            raise InvariantViolationError("trajectory times must strictly increase")
        if not self.times.shape == self.phi.shape == self.x.shape:
            raise InvariantViolationError("trajectory series lengths differ")
        # the target and the CSS are physical by construction
        ends = [epr_variance(self.initial)] + [
            epr_variance(s, validate=False) for s in (
                GaussianState(mean=np.zeros(4), cov=self.target), css_state())]
        weights = np.stack([self.phi, self.x, 1.0 - self.phi - self.x], axis=1)
        mixed = weights @ np.array([[r.var_x_minus, r.var_p_plus, r.xi]
                                    for r in ends])
        self.var_x_minus, self.var_p_plus, self.xi = mixed.T

    def state(self, k: int) -> GaussianState:
        """GaussianState at ``times[k]``."""
        p, x = self.phi[k], self.x[k]
        return GaussianState(mean=np.sqrt(p) * self.initial.mean,
                             cov=p * self.initial.cov + x * self.target
                             + (1.0 - p - x) * np.eye(4))


def relaxation_rate(params: ModelParams, p2_tilde: float = 1.0) -> float:
    """Covariance relaxation rate 2*gamma_c of the engineered dissipation."""
    return params.d * params.Gamma * p2_tilde


def moment_derivative(state: GaussianState, params: ModelParams,
                      noise: NoiseChannels, p2_tilde: float = 1.0,
                      nh_frac: float = 0.0):
    """Time derivative (dmean, dcov) of a Gaussian state.

    ``p2_tilde`` = N2 P2 / N throttles the collective rate when the
    population model is coupled in; 1.0 is the fully polarised two-level
    limit.  ``nh_frac`` feeds the pump noise channel.
    """
    g2 = relaxation_rate(params, p2_tilde)
    css = noise.dephasing + noise.pump_noise_rate(nh_frac)
    target = two_mode_squeezed_cov(params.mu, params.nu)
    dmean = -(0.5 * g2 + 0.5 * css) * state.mean
    dcov = -g2 * (state.cov - target) - css * (state.cov - np.eye(4))
    return dmean, dcov


def propagate_moments(initial: GaussianState, params: ModelParams,
                      noise: NoiseChannels, grid,
                      populations=None) -> Trajectory:
    """Evolve the moments exactly over ``grid`` (ms, strictly increasing).

    ``populations`` may be a PopulationSeries (or anything with ``times`` and
    ``p2_tilde`` arrays, optionally ``nh``) whose N2(t) P2(t) throttles the
    collective rate quasi-statically; see the module docstring.  ``initial``
    is checked once, when the Trajectory reads its witness.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a nonempty 1-D array of finite values")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must strictly increase")
    if populations is None:
        pt, p2, nh = grid[[0, -1]], np.ones(2), np.zeros(2)
    else:
        pt, p2 = np.asarray(populations.times, float), populations.p2_tilde
        nh = getattr(populations, "nh", np.zeros(len(pt)))
    nodes = np.union1d(grid, pt[(pt > grid[0]) & (pt < grid[-1])])
    g2 = relaxation_rate(params, np.interp(nodes, pt, p2))
    rate = g2 + noise.dephasing + noise.pump_noise_rate(np.interp(nodes, pt, nh))
    dR = 0.5 * np.diff(nodes) * (rate[:-1] + rate[1:])
    inc = np.zeros_like(dR)
    live = dR > 0  # a zero-rate interval leaves x unchanged
    width = -np.expm1(-dR[live])
    # v = -ln(u) / dR at the rule's nodes u = 1 - width (1 - z) / 2
    v = -np.log1p(-0.5 * np.outer(width, 1.0 - _GL_NODES)) / dR[live, None]
    ga, gb = g2[:-1, None][live], g2[1:, None][live]
    ra, rb = rate[:-1, None][live], rate[1:, None][live]
    # rate(s)^2 = v ra^2 + (1 - v) rb^2 at the root s = b - f (b - a)
    rs = np.hypot(np.sqrt(v) * ra, np.sqrt(1.0 - v) * rb)
    f = v * (ra + rb) / (rb + rs)
    inc[live] = 0.5 * width * (((gb + f * (ga - gb)) / rs) @ _GL_WEIGHTS)
    phi, x = np.ones_like(nodes), np.zeros_like(nodes)
    for k, (e, dx) in enumerate(zip(np.exp(-dR), inc)):
        phi[k + 1], x[k + 1] = phi[k] * e, x[k] * e + dx
    at = np.searchsorted(nodes, grid)
    phi, x = phi[at], x[at]
    tol = 1e-8  # slack on the simplex: the covariance check's atol
    if not np.all((phi >= -tol) & (x >= -tol) & (phi + x <= 1.0 + tol)):
        raise InvariantViolationError(
            "moment weights left the simplex phi, x >= 0, phi + x <= 1")
    target = two_mode_squeezed_cov(params.mu, params.nu)
    return Trajectory(times=grid, phi=np.clip(phi, 0.0, 1.0),
                      x=np.clip(x, 0.0, 1.0), initial=initial, target=target,
                      populations=populations)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize a trajectory to CSV (shared schema with population series)."""
    return series_to_csv(traj.times, (traj.var_x_minus, traj.var_p_plus,
                                      traj.xi), traj.populations)
