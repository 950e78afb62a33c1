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
and the witness (linear in C) mixes the witnesses of C0, T and I alike.
These kernels also take complex rates, as ``estimation``'s complex step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .multilevel_rates import _checked_grid, series_columns
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
# u - 1 = width * _GL_SHIFTS at the rule's nodes, exact in binary
_GL_SHIFTS = -0.5 * (1.0 - _GL_NODES)

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

    def pump_noise_rate(self, nh_frac) -> np.ndarray:
        """Quadrature-noise rate of the incoherent pump, shaped like
        ``nh_frac`` (a NumPy scalar for a scalar).

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
    ``var_x_minus``, ``var_p_plus`` and ``xi`` are aligned with ``times``;
    ``corners`` holds the witness rows of C0, T and the CSS.
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
        if (self.times[1:] - self.times[:-1] <= 0).any():
            raise InvariantViolationError("trajectory times must strictly increase")
        if not self.times.shape == self.phi.shape == self.x.shape:
            raise InvariantViolationError("trajectory series lengths differ")
        vars(self).update(_witness(self.phi, self.x,
                                   _start_row(self.initial), self.target))

    def state(self, k: int) -> GaussianState:
        """GaussianState at ``times[k]``."""
        p, x = self.phi[k], self.x[k]
        return GaussianState(mean=np.sqrt(p) * self.initial.mean,
                             cov=p * self.initial.cov + x * self.target
                             + (1.0 - p - x) * np.eye(4))


def _start_row(initial: GaussianState) -> tuple:
    """C0's witness row, validated unless C0 is the CSS (class docstring)."""
    if (initial.cov == _CSS_COV).all() and np.isfinite(initial.mean).all():
        return _CSS_ROW
    r0 = epr_variance(initial)
    return r0.var_x_minus, r0.var_p_plus, r0.xi


def _witness(phi, x, row0, target) -> dict:
    """A Trajectory's arrays but its times from the weights, C0's witness
    row ``row0`` and T = ``target``: the corners and their mix."""
    corners = np.array([row0, epr_witness(target), _CSS_ROW])
    rows = _mix(phi, x, corners)
    return dict(phi=phi, x=x, target=target, corners=corners,
                var_x_minus=rows[:, 0], var_p_plus=rows[:, 1], xi=rows[:, 2])


def _mix(phi, x, corners):
    """The witness rows of C = phi C0 + x T + (1 - phi - x) I, one per entry
    of ``phi`` and ``x``, from ``corners``, the rows of C0, T and I."""
    weights = np.empty(phi.shape + (3,), phi.dtype)
    weights[..., 0], weights[..., 1] = phi, x
    weights[..., 2] = 1.0 - phi - x
    return weights @ corners


def relaxation_rate(params: ModelParams, p2_tilde: float = 1.0) -> float:
    """Covariance relaxation rate 2*gamma_c of the engineered dissipation."""
    return params.d * params.Gamma * p2_tilde


def _analytic(f, df):
    """The ufunc ``f`` taking complex steps x + i y to first order, f(x) +
    i y df(x, f(x)): f's complex step to rounding, at a fraction of the
    cost of NumPy's complex sqrt and log1p, whose log1p also takes its real
    part as log|1 + z| and so loses relative accuracy near z = 0."""
    def stepped(z):
        if not np.iscomplexobj(z):
            return f(z)
        out = np.empty_like(z)
        f(z.real, out=out.real)
        np.multiply(z.imag, df(z.real, out.real), out=out.imag)
        return out
    return stepped


_log1p = _analytic(np.log1p, lambda x, fx: 1.0 / (1.0 + x))
_sqrt = _analytic(np.sqrt, lambda x, fx: 0.5 / fx)


def _hypot(a, b):
    """np.hypot, and for complex a, b its first-order extension: hypot's
    value bits, and a tangent that overflows only where hypot would."""
    if not np.iscomplexobj(a):
        return np.hypot(a, b)
    r = np.hypot(a.real, b.real)
    return r + 1j * (a.imag * (a.real / r) + b.imag * (b.real / r))


def _increments(h, g2, rate):
    """Per interval of widths ``h``: dR, the integral of the rate, and the x
    increment, from g2 and the rate at the interval ends along the last axis
    (module docstring).  InvariantViolationError where a dR is not finite."""
    with np.errstate(over="ignore"):
        dR = 0.5 * h * (rate[..., :-1] + rate[..., 1:])
    if not np.isfinite(dR).all():
        raise InvariantViolationError("moment rates overflow: their "
                                      "integral over an interval is not finite")
    inc = np.zeros(dR.shape, dR.dtype)
    # a zero-rate interval leaves x unchanged; where none has a zero rate,
    # a slice picks every interval with views instead of masked copies
    live = dR.real > 0
    live = slice(None) if live.all() else live
    width = -np.expm1(-dR[live])
    # v = -ln(u) / dR at the rule's nodes u = 1 - width (1 - z) / 2
    v = _log1p(width[..., None] * _GL_SHIFTS) / -dR[live][..., None]
    ga, gb = g2[..., :-1, None][live], g2[..., 1:, None][live]
    ra, rb = rate[..., :-1, None][live], rate[..., 1:, None][live]
    # rate(s)^2 = v ra^2 + (1 - v) rb^2 at the root s = b - f (b - a)
    rs = _hypot(_sqrt(v) * ra, _sqrt(1.0 - v) * rb)
    f = v * (ra + rb) / (rb + rs)
    q = (gb + f * (ga - gb)) / rs
    inc[live] = 0.5 * width * (q @ _GL_WEIGHTS)
    return dR, inc


def _weights(h, d_gamma, dephasing, p2_tilde, pump_noise):
    """phi and x on steps ``h`` along the last axis (module docstring) for
    g2 = d_gamma p2_tilde and the rate g2 + dephasing + pump_noise."""
    g2 = d_gamma * p2_tilde
    dR, inc = _increments(h, g2, g2 + dephasing + pump_noise)
    decay = np.exp(-dR)
    # accumulate is a sequential left fold: the recursion's products
    phi = np.multiply.accumulate(np.concatenate(
        (np.ones(dR.shape[:-1] + (1,)), decay), axis=-1), axis=-1)
    x = []
    for es, ds in zip(np.atleast_2d(decay).tolist(),
                      np.atleast_2d(inc).tolist()):
        xk, row = 0.0, [0.0]  # x's recursion, one row at a time
        for e, dx in zip(es, ds):
            xk = xk * e + dx
            row.append(xk)
        x.append(row)
    return phi, np.array(x).reshape(phi.shape)


def _population_rates(populations, times: np.ndarray) -> tuple:
    """(p2_tilde, nh) of the PopulationSeries ``populations`` on ``times``
    (None: 1 and 0); ValueError for populations on other times."""
    if populations is None:
        return np.ones(times.size), np.zeros(times.size)
    if not (populations.times.shape == times.shape
            and (populations.times == times).all()):
        raise ValueError("the populations must be on the trajectory's times")
    return populations.p2_tilde, populations.nh


def _moments(h, params: ModelParams, noise: NoiseChannels, p2_tilde, nh):
    """phi and x on the steps ``h`` for the populations' p2_tilde and nh,
    clipped to [0, 1]; refused where d * Gamma overflows or they leave the
    simplex."""
    d_gamma = relaxation_rate(params)
    if not math.isfinite(d_gamma):  # else inf * (P2 = 0)
        raise InvariantViolationError("moment rates overflow: d * Gamma is "
                                      "not finite")
    phi, x = _weights(h, d_gamma, noise.dephasing, p2_tilde,
                      noise.pump_noise_rate(nh))
    tol = 1e-8  # slack on the simplex: the covariance check's atol
    if not ((phi >= -tol) & (x >= -tol) & (phi + x <= 1.0 + tol)).all():
        raise InvariantViolationError(
            "moment weights left the simplex phi, x >= 0, phi + x <= 1")
    return phi.clip(0.0, 1.0), x.clip(0.0, 1.0)


def propagate_moments(initial: GaussianState, params: ModelParams,
                      noise: NoiseChannels, grid, populations=None
                      ) -> Trajectory:
    """Evolve the moments exactly over ``grid`` (ms, strictly increasing).

    ``populations``, a PopulationSeries on ``grid`` itself (ValueError
    otherwise), throttles the collective rate quasi-statically by its
    N2(t) P2(t); see the module docstring.  ``initial`` is checked once,
    when the Trajectory reads its witness, unless it is the CSS.
    """
    grid = _checked_grid(grid)
    phi, x = _moments(grid[1:] - grid[:-1], params, noise,
                      *_population_rates(populations, grid))
    return Trajectory(times=grid, phi=phi, x=x, initial=initial,
                      target=two_mode_squeezed_cov(params.mu, params.nu),
                      populations=populations)


def trajectory_to_csv(traj: Trajectory) -> dict:
    """The trajectory's columns in the ``series_columns`` schema; the CLI
    writes them as CSV.  The name stays because perfbench/tracer.py times
    it as a layer, until the run manifest replaces that (ROADMAP item 4)."""
    return series_columns(traj.times, (traj.var_x_minus, traj.var_p_plus,
                                       traj.xi), traj.populations)
