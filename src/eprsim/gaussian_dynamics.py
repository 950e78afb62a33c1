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
the CSS identity at rate Gamma_tilde.  ``lindblad_oracle`` checks these
equations against one spin per ensemble, only early on: within 0.05 up to
t = 0.1 / (d Gamma) of pure engineered dissipation (acceptance criterion 2)
and 1e-6 under pure dephasing; the steady state is unchecked (ROADMAP 6).

With g2 = 2 gamma_c and c the CSS-restoring rate (both may vary in time),
the solution stays in the span of C0, T = C_tms and I:

    C(t) = phi C0 + x T + (1 - phi - x) I,     <r>(t) = sqrt(phi) <r>(0)
    dphi/dt = -rate phi,    dx/dt = -rate x + g2,    rate = g2 + c

The populations are given on the moment grid itself and the rates are
linear between grid points, so over each grid interval [a, b] the solution
is exact: phi_b = phi_a e^-dR with dR = int_a^b rate, and
x_b = x_a e^-dR + int_{e^-dR}^1 q du, with q = g2 / rate in [0, 1] taken at
the root s(u) of the quadratic int_s^b rate = -ln u; a fixed Gauss-Legendre
rule integrates this bounded, smooth q, however stiff the rates.  phi, x >= 0
and phi + x <= 1 make C a convex mix of physical covariances, hence physical,
and the witness (linear in C) mixes the witnesses of C0, T and I alike, as
its rate derivatives mix theirs; the same pass gives those of phi and x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePolarizationError, InvariantViolationError
from .spin_model import (
    GaussianState,
    ModelParams,
    epr_variance,
    epr_witness,
    require_finite,
    two_mode_squeezed_cov,
)

__all__ = [
    "NoiseChannels",
    "Trajectory",
    "relaxation_rate",
    "propagate_moments",
    "series_columns",
    "trajectory_to_csv",
]


def __getattr__(name):
    # Never called: the engine is closed-form.  The name stays only because
    # perfbench/tracer.py wraps it as a layer; it loads on access and needs
    # scipy, which perfbench and the tests install but the runtime does not.
    # The shim goes with ROADMAP items 2a/4, which retire those metrics.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Gauss-Legendre rule on [-1, 1] for the x increment of one interval:
# numpy.polynomial.legendre.leggauss(8), written out so that importing the
# engine does not load numpy.polynomial (which NumPy 1 imports anyway)
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])
# the rule's node terms 1 - z and (1 - z) / 2, and d(rb + rs)/d(ra, rb)'s
# constant part
_GL_GAPS = 1.0 - _GL_NODES
_GL_HALF_GAPS = 0.5 * _GL_GAPS
_D_RB = np.array([0.0, 1.0])[:, None, None]

# The CSS covariance, the third corner of every trajectory, and its witness
_CSS_COV = np.eye(4)
_CSS_COV.flags.writeable = False
_CSS_ROW = epr_witness(_CSS_COV)


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
    C0 is validated (``epr_variance``) unless it is exactly the CSS
    identity with finite means, which is physical as it stands and takes
    the CSS witness row without validation.  The witness arrays
    ``var_x_minus``, ``var_p_plus`` and ``xi`` are aligned with ``times``.
    ``d_weights``, the derivatives (d_phi, d_x), each (P, len(times)),
    along P directions, give the witness's ``d_xi`` (None without them).
    """

    times: np.ndarray
    phi: np.ndarray
    x: np.ndarray
    initial: GaussianState
    target: np.ndarray
    populations: object = None
    d_weights: tuple | None = None

    def __post_init__(self):
        self.times, self.phi, self.x = (
            np.asarray(a, float) for a in (self.times, self.phi, self.x))
        if (self.times[1:] - self.times[:-1] <= 0).any():
            raise InvariantViolationError("trajectory times must strictly increase")
        if not self.times.shape == self.phi.shape == self.x.shape:
            raise InvariantViolationError("trajectory series lengths differ")
        # only C0 is checked, and not when it is the CSS: T and the CSS are
        # physical by construction
        c0, m0 = self.initial.cov, self.initial.mean
        if (c0 == _CSS_COV).all() and np.isfinite(m0).all():
            row0 = _CSS_ROW
        else:
            r0 = epr_variance(self.initial)
            row0 = r0.var_x_minus, r0.var_p_plus, r0.xi
        corners = np.array([row0, epr_witness(self.target), _CSS_ROW])
        weights = np.empty((self.times.size, 3))
        weights[:, 0], weights[:, 1] = self.phi, self.x
        weights[:, 2] = 1.0 - self.phi - self.x
        self.var_x_minus, self.var_p_plus, self.xi = (weights @ corners).T
        self.d_xi = None
        if self.d_weights is not None:  # the witness is linear in them
            (d_phi, d_x), (xi0, xi_t, xi_css) = self.d_weights, corners[:, 2]
            self.d_xi = d_phi * (xi0 - xi_css) + d_x * (xi_t - xi_css)

    def state(self, k: int) -> GaussianState:
        """GaussianState at ``times[k]``."""
        p, x = self.phi[k], self.x[k]
        return GaussianState(mean=np.sqrt(p) * self.initial.mean,
                             cov=p * self.initial.cov + x * self.target
                             + (1.0 - p - x) * np.eye(4))


def relaxation_rate(params: ModelParams, p2_tilde: float = 1.0) -> float:
    """Covariance relaxation rate 2*gamma_c of the engineered dissipation."""
    return params.d * params.Gamma * p2_tilde


def _increments(h, g2, rate, partials=False):
    """Per interval of widths ``h``: dR, the integral of the rate, and the x
    increment, from g2 and the rate at the interval ends (see the module
    docstring).  ``partials`` adds the increment's derivatives with respect
    to (rate_a, rate_b, g2_a, g2_b), the values at each interval's two ends,
    shape (4, len(h)), taken through the same terms; dR's are h / 2.
    InvariantViolationError where a dR is not finite."""
    with np.errstate(over="ignore"):
        dR = 0.5 * h * (rate[:-1] + rate[1:])
    if not np.isfinite(dR).all():
        raise InvariantViolationError("moment rates overflow: their "
                                      "integral over an interval is not finite")
    inc = np.zeros(dR.shape)
    # a zero-rate interval leaves x unchanged; where none has a zero rate,
    # a slice picks every interval with views instead of masked copies
    live = dR > 0
    live = slice(None) if live.all() else live
    width = -np.expm1(-dR[live])
    # v = -ln(u) / dR at the rule's nodes u = 1 - width (1 - z) / 2
    u = -0.5 * (width[:, None] * _GL_GAPS)
    v = -np.log1p(u) / dR[live, None]
    ga, gb = g2[:-1, None][live], g2[1:, None][live]
    ra, rb = rate[:-1, None][live], rate[1:, None][live]
    # rate(s)^2 = v ra^2 + (1 - v) rb^2 at the root s = b - f (b - a)
    w = 1.0 - v
    rs = np.hypot(np.sqrt(v) * ra, np.sqrt(w) * rb)
    r_ab, rb_rs, g_ab = ra + rb, rb + rs, ga - gb
    f = v * r_ab / rb_rs
    q = (gb + f * g_ab) / rs
    q_sum = q @ _GL_WEIGHTS
    inc[live] = 0.5 * width * q_sum
    if not partials:
        return dR, inc
    # d/d rate_a and d/d rate_b: each moves dR by h / 2
    d_width = (1.0 - width) * 0.5 * h[live]
    d_v = (_GL_HALF_GAPS * d_width[:, None] / (1.0 + u)
           - 0.5 * h[live, None] * v) / dR[live, None]
    d_rs = (0.5 * d_v * (ra**2 - rb**2) + np.array([v * ra, w * rb])) / rs
    d_f = (d_v * r_ab + v - f * (d_rs + _D_RB)) / rb_rs
    d_q = [*((d_f * g_ab - q * d_rs) / rs), f / rs, (1.0 - f) / rs]
    parts = np.zeros((4, h.size))
    parts[:, live] = 0.5 * width * (np.array(d_q) @ _GL_WEIGHTS)
    parts[:2, live] += 0.5 * d_width * q_sum
    return dR, inc, parts


def _population_rates(populations, times: np.ndarray) -> tuple:
    """(p2_tilde, nh) of the PopulationSeries ``populations`` on ``times``
    (None: 1 and 0); ValueError for populations on other times."""
    if populations is None:
        return np.ones(times.size), np.zeros(times.size)
    if not (populations.times.shape == times.shape
            and (populations.times == times).all()):
        raise ValueError("the populations must be on the trajectory's times")
    return populations.p2_tilde, populations.nh


def propagate_moments(initial: GaussianState, params: ModelParams,
                      noise: NoiseChannels, grid, populations=None,
                      d_rates=None) -> Trajectory:
    """Evolve the moments exactly over ``grid`` (ms, strictly increasing).

    ``populations``, a PopulationSeries on ``grid`` itself (ValueError
    otherwise), throttles the collective rate quasi-statically by its
    N2(t) P2(t); see the module docstring.  ``initial`` is checked once,
    when the Trajectory reads its witness, unless it is the CSS.

    ``d_rates`` (P, 3), d(d, dephasing, pump_refill) per direction, adds the
    weights' derivatives along them, and so the witness's ``d_xi``; the
    populations move along the same directions by their ``tangents`` (None
    holds them fixed).  The tangents go through the same dR, Gauss-Legendre
    terms and phi/x recursion as the values, from one ``_increments`` call.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError("grid must be a nonempty 1-D array of finite values")
    h = grid[1:] - grid[:-1]
    if (h <= 0).any():
        raise ValueError("grid must strictly increase")
    p2, nh = _population_rates(populations, grid)
    if not math.isfinite(params.d * params.Gamma):  # else inf * (P2 = 0)
        raise InvariantViolationError("moment rates overflow: d * Gamma is "
                                      "not finite")
    g2 = relaxation_rate(params, p2)
    rate = g2 + noise.dephasing + noise.pump_noise_rate(nh)
    dR, inc, *parts = _increments(h, g2, rate, partials=d_rates is not None)
    decay = np.exp(-dR)
    # accumulate is a sequential left fold: the recursion's products
    phi = np.multiply.accumulate(np.concatenate(([1.0], decay)))
    decay = decay.tolist()
    xk, x = 0.0, [0.0]
    for e, dx in zip(decay, inc.tolist()):
        xk = xk * e + dx
        x.append(xk)
    x = np.array(x)
    tol = 1e-8  # slack on the simplex: the covariance check's atol
    if not ((phi >= -tol) & (x >= -tol) & (phi + x <= 1.0 + tol)).all():
        raise InvariantViolationError(
            "moment weights left the simplex phi, x >= 0, phi + x <= 1")
    phi, x = phi.clip(0.0, 1.0), x.clip(0.0, 1.0)
    d_weights = None
    if d_rates is not None:
        d_p2 = d_nh = 0.0
        if populations is not None and populations.tangents is not None:
            d_p2, d_nh = populations.d_p2_tilde, populations.tangents[2]
        dd, d_deph, d_refill = np.asarray(d_rates).reshape(-1, 3).T[:, :, None]
        d_g2 = params.Gamma * (dd * p2 + params.d * d_p2)
        d_rate = (d_g2 + d_deph + d_refill * np.maximum(0.0, nh)
                  + noise.pump_refill * (nh > 0) * d_nh)
        ra, rb, ga, gb = parts[0]  # the increments' partials
        d_dR = 0.5 * h * (d_rate[:, :-1] + d_rate[:, 1:])
        d_inc = (ra * d_rate[:, :-1] + rb * d_rate[:, 1:]
                 + ga * d_g2[:, :-1] + gb * d_g2[:, 1:])
        d_x, xs = np.empty((len(d_dR), grid.size)), x.tolist()
        for row, a, b in zip(d_x, d_dR.tolist(), d_inc.tolist()):
            y, col = 0.0, [0.0]  # one direction's d_x recursion
            for e, xk, da, di in zip(decay, xs, a, b):
                y = (y - xk * da) * e + di
                col.append(y)
            row[:] = col
        d_phi = np.zeros((len(d_dR), grid.size))
        d_dR.cumsum(axis=1, out=d_phi[:, 1:])
        d_weights = (-phi * d_phi, d_x)
    return Trajectory(times=grid, phi=phi, x=x, initial=initial,
                      target=two_mode_squeezed_cov(params.mu, params.nu),
                      populations=populations, d_weights=d_weights)


def series_columns(times, witness=None, pops=None) -> dict:
    """The time-series schema as named columns: time_ms, then ``witness``
    (var_x_minus, var_p_plus, xi; None: empty), then Jx_norm, N2 and P2 of
    the PopulationSeries ``pops`` interpolated onto ``times`` (None: 1, empty,
    empty).  Jx_norm is <J_x> over its initial value, which must be positive
    (DegeneratePolarizationError)."""
    cols = [times, *(witness or (None, None, None)), np.ones(len(times)),
            None, None]
    if pops is not None:
        jx0 = pops.jx_frac[0]
        if jx0 <= 0.0:
            raise DegeneratePolarizationError(
                "initial mean spin vanishes; Jx_norm is undefined")
        jx, n2, p2 = (np.interp(times, pops.times, v)
                      for v in (pops.jx_frac, pops.n2_frac, pops.p2))
        cols[4:] = [jx / jx0, n2, p2]
    return dict(zip(("time_ms", "var_x_minus", "var_p_plus", "xi", "Jx_norm",
                     "N2", "P2"), cols))


def trajectory_to_csv(traj: Trajectory) -> dict:
    """The trajectory's columns in the ``series_columns`` schema; the CLI
    writes them as CSV.  The name stays because perfbench/tracer.py times
    it as a layer, until the run manifest replaces that (ROADMAP item 4)."""
    return series_columns(traj.times, (traj.var_x_minus, traj.var_p_plus,
                                       traj.xi), traj.populations)
