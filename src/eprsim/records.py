"""Synthetic measurement records of the Stokes component S2, temporal-mode
integration and the conditional-variance (hybrid) scheme.

Records are generated at baseband in the frame rotating at the Larmor
frequency: each time bin carries the (cos, sin) quadrature pair of S2, one
independent vacuum mode pair per bin with unit variance.  The per-bin update
is the differential form of the input-output relations, so mode-functional
integrals have exactly the first and second moments predicted by the
closed-form relations in :mod:`eprsim.light_readout` (the aggregated signal
coefficient telescopes to the continuous kappa for any bin width).

Per bin of width tau, channel pair (u couples to cos, v to sin):

    s_n = exp(-gamma tau) w_n + kappa_tau u_n + eps sqrt(1-exp(-2 gamma tau)) g_n
    u_(n+1) = exp(-gamma tau) u_n - s^2 kappa_tau w_n
              + eps sqrt(1-exp(-2 gamma tau)) f_n

with kappa_tau^2 = (1-eps^2)(1-exp(-2 gamma tau))/s^2, s = mu - nu.
Trial i of a batch uses the seed ``master_seed XOR i`` and draws, in this
order, its two initial atomic values and its (nbins, 2, 4) noise.

Layout: the sampler writes a batch into one (2, nbins, trials) float64
buffer, and ``RecordBatch.samples`` is its (trials, nbins, 2) transposed
view, so one channel over a mode's window is a (trials, bins) slice whose
trial axis is contiguous.  The noise is drawn TRIAL_BLOCK trials at a time
and copied to bin-major order BIN_CHUNK bins at a time, so besides the
records (16 bytes per trial-bin) the sampler holds one block's noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoInformationError, StatisticsError
from .light_readout import LossParams

__all__ = [
    "RecordBatch",
    "ModeFunctional",
    "HybridReadout",
    "simulate_batch",
    "integrate_mode_batch",
    "conditional_variance",
    "optimize_gain",
    "hybrid_readout",
]

# Cap on trials x bins per batch: the records take 16 bytes per trial-bin,
# so this is 400 MB, enough for fig2d at 10^5 trials of 250 bins.  The
# gamma_m scan integrates every trial once per grid point, so trials x grid
# points is held to the same cap.
MAX_TRIAL_BINS = 25_000_000
# Cap on bins per batch: the sampler steps bin by bin at about 5 us per bin
# for a few trials (measured on a 2-core x86 host), so 2 x 10^4 bins take
# about 0.1 s; larger batches are bounded by MAX_TRIAL_BINS.
MAX_BINS = 20_000
# Cap on gamma_m scan points: each point builds a feed mode and integrates
# every trial (about 90 us even for two trials), so 10^4 points take about
# a second.
MAX_GAIN_POINTS = 10_000
# Trials whose noise the sampler draws at a time: it holds one block's
# (trials, nbins, 2, 4) noise, 64 bytes per trial-bin (8 MB at fig2d's 250
# bins), besides the records.
TRIAL_BLOCK = 512
# Bins per bin-major copy of a block's noise (2 MB per 512 trials).
BIN_CHUNK = 64


@dataclass
class RecordBatch:
    """Batch of baseband S2 records sharing timing; trial i used seed
    master_seed ^ i.  A single record is a one-trial batch."""

    dt: float
    samples: np.ndarray  # shape (trials, nbins, 2): (cos, sin) per bin
    master_seed: int

    @property
    def n_trials(self) -> int:
        return self.samples.shape[0]

    @property
    def nbins(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ModeFunctional:
    """Temporal mode: cos/sin quadrature, exponential envelope, window.

    The discrete weights are normalised to unit vacuum variance for the
    record at hand (sum of squared weights = 1).
    """

    phase: str  # 'cos' | 'sin'
    exponent_rate: float
    direction: str  # 'falling' | 'rising'
    window: tuple

    def __post_init__(self):
        if self.phase not in ("cos", "sin"):
            raise ValueError("phase must be 'cos' or 'sin'")
        if self.direction not in ("falling", "rising"):
            raise ValueError("direction must be 'falling' or 'rising'")
        t0, t1 = self.window
        if not t1 > t0:
            raise ValueError("mode window must be nonempty")
        # the envelope exponent must stay finite across the window
        if not (self.exponent_rate >= 0
                and math.isfinite(float(self.exponent_rate) * (t1 - t0))):
            raise ValueError("exponent rate must be >= 0 and finite")

    def weights(self, dt: float, nbins: int):
        """Discrete weights over the record grid: (slice of the window's
        bins, weights)."""
        t0, t1 = self.window
        times = (np.arange(nbins) + 0.5) * dt
        idx = np.nonzero((times >= t0) & (times < t1))[0]
        if idx.size == 0:
            raise ValueError("mode window overlaps no record bins")
        bins = slice(idx[0], idx[-1] + 1)  # bin times increase: one run
        sgn = -1.0 if self.direction == "falling" else 1.0
        arg = sgn * self.exponent_rate * (times[bins] - t0)
        raw = np.exp(arg - arg.max())  # overflow-safe; renormalised below
        return bins, raw / np.sqrt(np.sum(raw**2))


def simulate_batch(n_trials: int, duration: float, dt: float,
                   loss: LossParams, mu_nu: tuple, master_seed: int,
                   initial_var=(1.0, 1.0)) -> RecordBatch:
    """Simulate a batch of baseband S2 records.

    ``initial_var`` sets the (cos, sin) variances of the zero-mean Gaussian
    atomic start; detection loss ``loss.eta`` applies to every bin.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(duration) and math.isfinite(dt) and duration > 0
            and dt > 0 and math.isfinite(duration / dt)):
        raise ValueError("duration and dt must be finite and positive")
    nbins = int(round(duration / dt))
    if nbins < 1:
        raise ValueError("duration shorter than one bin")
    if nbins > MAX_BINS:
        raise ValueError(f"{nbins} bins exceeds {MAX_BINS} bins per batch")
    if n_trials * nbins > MAX_TRIAL_BINS:
        raise ValueError(f"{n_trials} trials x {nbins} bins exceeds "
                         f"{MAX_TRIAL_BINS} trial-bins")
    if dt * loss.gamma > 0.2:
        raise ValueError(
            f"dt={dt} too coarse for gamma={loss.gamma} (aliasing)"
        )
    mu, nu = mu_nu
    s = mu - nu
    s2 = s**2
    eps_sq = loss.epsilon_sq
    eta = loss.eta
    init_sd = np.sqrt(np.asarray(initial_var)).reshape(-1, 1)
    sqrt_eta, sqrt_vac = np.sqrt(eta), np.sqrt(1.0 - eta)

    e2 = np.exp(-2.0 * loss.gamma * dt)
    e1 = np.exp(-loss.gamma * dt)
    kappa_tau = np.sqrt((1.0 - eps_sq) * (1.0 - e2)) / s
    anoise = np.sqrt(eps_sq * (1.0 - e2))

    out = np.empty((2, nbins, n_trials))
    for b0 in range(0, n_trials, TRIAL_BLOCK):
        b1 = min(b0 + TRIAL_BLOCK, n_trials)
        u = np.empty((2, b1 - b0))
        noise = np.empty((b1 - b0, nbins, 2, 4))
        for j in range(b1 - b0):
            rng = np.random.default_rng((master_seed ^ (b0 + j))
                                        & 0xFFFFFFFFFFFFFFFF)
            u[:, j] = rng.standard_normal(2)
            rng.standard_normal(out=noise[j])
        u *= init_sd
        for n0 in range(0, nbins, BIN_CHUNK):
            # bin-major (4, bins, 2, trials): each bin's rows are contiguous
            w, f, g, h = np.ascontiguousarray(
                noise[:, n0:n0 + BIN_CHUNK].transpose(3, 1, 2, 0))
            # the noise terms of the update below, scaled up front; the
            # recursion adds them in the same order, so values are unchanged
            feed = (s2 * kappa_tau) * w
            w *= e1
            f *= anoise
            g *= anoise
            if eta < 1.0:
                h *= sqrt_vac
            for n in range(len(feed)):
                s_n = out[:, n0 + n, b0:b1]
                # s_n = e1 w + kappa_tau u + anoise g, then detection loss
                np.multiply(kappa_tau, u, out=s_n)
                s_n += w[n]
                s_n += g[n]
                if eta < 1.0:
                    s_n *= sqrt_eta
                    s_n += h[n]
                # u = e1 u - s^2 kappa_tau w + anoise f
                u *= e1
                u -= feed[n]
                u += f[n]
    return RecordBatch(dt=dt, samples=out.transpose(2, 1, 0),
                       master_seed=master_seed)


def integrate_mode_batch(batch: RecordBatch, mode: ModeFunctional) -> np.ndarray:
    """Mode integrals for every trial of a batch."""
    t0, t1 = mode.window
    if t0 < -1e-12 or t1 > batch.nbins * batch.dt + 1e-9:
        raise ValueError("mode window exceeds record span")
    bins, w = mode.weights(batch.dt, batch.nbins)
    col = 0 if mode.phase == "cos" else 1
    return batch.samples[:, bins, col] @ w


def _check_disjoint(readout_mode: ModeFunctional, feed_mode: ModeFunctional):
    r0, r1 = readout_mode.window
    f0, f1 = feed_mode.window
    if not (f1 <= r0 + 1e-12 or r1 <= f0 + 1e-12):
        raise ValueError("readout and feedback windows must be disjoint")


def conditional_variance(batch: RecordBatch, readout_mode: ModeFunctional,
                         feed_mode: ModeFunctional, alpha: float) -> float:
    """Sample variance of y_readout - alpha * y_feed across the batch."""
    _check_disjoint(readout_mode, feed_mode)
    y_read = integrate_mode_batch(batch, readout_mode)
    if y_read.size < 2:
        raise StatisticsError("need at least two records for a variance")
    y_feed = integrate_mode_batch(batch, feed_mode)
    return float(np.var(y_read - alpha * y_feed, ddof=1))


def check_gain_scan(n_trials: int, n_points: int) -> None:
    """ValueError unless a gamma_m scan of ``n_points`` over ``n_trials``
    trials is nonempty and within the caps; callable before sampling."""
    if n_points == 0:
        raise ValueError("gamma_m grid must be nonempty")
    if n_points > MAX_GAIN_POINTS:
        raise ValueError(f"{n_points} gamma_m points exceeds "
                         f"{MAX_GAIN_POINTS}")
    if n_trials * n_points > MAX_TRIAL_BINS:
        raise ValueError(f"{n_trials} trials x {n_points} gamma_m "
                         f"points exceeds {MAX_TRIAL_BINS}")


def optimize_gain(batch: RecordBatch, readout_mode: ModeFunctional,
                  gamma_m_grid):
    """Optimise feedback gain and feed-mode time constant.

    For each gamma_m in the grid a rising-exponential feed mode is built
    from t = 0 up to the readout window and the closed-form optimal gain
    alpha* = cov(y_read, y_feed)/var(y_feed) is used.  Returns (alpha_star,
    gamma_m_star, min_variance).
    """
    grid = np.atleast_1d(np.asarray(gamma_m_grid, dtype=float))
    check_gain_scan(batch.n_trials, grid.size)
    feed_window = (0.0, readout_mode.window[0])
    y_read = integrate_mode_batch(batch, readout_mode)
    if y_read.size < 2:
        raise StatisticsError("need at least two records")
    best = None
    for gm in grid:
        mode = ModeFunctional(phase=readout_mode.phase, exponent_rate=gm,
                              direction="rising", window=feed_window)
        y_feed = integrate_mode_batch(batch, mode)
        var_feed = np.var(y_feed, ddof=1)
        if var_feed <= 0:
            raise NoInformationError("feedback mode variance is degenerate")
        alpha = float(np.cov(y_read, y_feed, ddof=1)[0, 1] / var_feed)
        v = float(np.var(y_read - alpha * y_feed, ddof=1))
        if best is None or v < best[2]:
            best = (alpha, float(gm), v)
    return best


class HybridReadout(NamedTuple):
    """(cos, sin) readout-mode variances of a batch, before and after
    conditioning on the earlier record."""

    unconditional: tuple
    conditional: tuple | None
    alpha_star: float | None
    gamma_m_star: float | None


def hybrid_readout(batch: RecordBatch, window: tuple, gamma: float,
                   gamma_m_grid=None) -> HybridReadout:
    """Readout statistics of the (cos, sin) falling-exponential modes with
    rate ``gamma`` on ``window``.

    With a ``gamma_m_grid`` the cos channel picks the gain and feed-mode rate
    (:func:`optimize_gain` on the record before the window) and the sin
    channel is conditioned with the same pair; without one only the
    unconditional variances are computed.
    """
    cos, sin = (ModeFunctional(phase=ph, exponent_rate=gamma,
                               direction="falling", window=window)
                for ph in ("cos", "sin"))
    conditional = alpha = gamma_m = None
    if gamma_m_grid is not None:
        alpha, gamma_m, cv_cos = optimize_gain(batch, cos, gamma_m_grid)
        feed_sin = ModeFunctional(phase="sin", exponent_rate=gamma_m,
                                  direction="rising", window=(0.0, window[0]))
        conditional = (cv_cos, conditional_variance(batch, sin, feed_sin,
                                                    alpha))
    unconditional = tuple(float(np.var(integrate_mode_batch(batch, m),
                                       ddof=1)) for m in (cos, sin))
    return HybridReadout(unconditional, conditional, alpha, gamma_m)


def exact_mode_variance(loss: LossParams, mu_nu: tuple, dt: float,
                        duration: float, mode: ModeFunctional,
                        initial_var: float = 1.0) -> float:
    """Exact var(integrate_mode_batch) of the discrete model, no sampling.

    Propagates the joint second moments of (atomic quadrature, partial mode
    sum) bin by bin; the result is what a Monte Carlo estimate converges to.
    Serves both as a test oracle and as the calibration for unbiased
    inversion of record statistics (the published two-parameter closed form
    omits the within-window atomic noise, so its floor is lower).
    """
    nbins = int(round(duration / dt))
    mu, nu = mu_nu
    s2 = (mu - nu) ** 2
    e2 = np.exp(-2.0 * loss.gamma * dt)
    e1 = np.exp(-loss.gamma * dt)
    kt = np.sqrt((1.0 - loss.epsilon_sq) * (1.0 - e2)) / (mu - nu)
    a2 = loss.epsilon_sq * (1.0 - e2)

    bins, w = mode.weights(dt, nbins)
    weights = np.zeros(nbins)
    weights[bins] = w

    var_u, var_y, cov = float(initial_var), 0.0, 0.0
    for wn in weights:
        # y += wn * s_n with s_n = e1 w + kt u + a g
        var_y += wn**2 * (e1**2 + kt**2 * var_u + a2) + 2.0 * wn * kt * cov
        # u' = e1 u - s2 kt w + a f; cov(u', y') with y' = y + wn s_n
        cov = e1 * cov + wn * (e1 * kt * var_u - s2 * kt * e1)
        var_u = e1**2 * var_u + s2**2 * kt**2 + a2
    if loss.eta < 1.0:
        # per-bin detection: s -> sqrt(eta) s + sqrt(1-eta) vac, and the
        # mode weights are unit-norm, so the vacuum admixture adds 1 - eta
        var_y = loss.eta * var_y + (1.0 - loss.eta)
    return float(var_y)


def discrete_calibration(loss: LossParams, mu_nu: tuple, dt: float,
                         duration: float, mode: ModeFunctional) -> tuple:
    """(slope, floor) of var(y) = slope * var_atomic_in + floor.

    Exact affine calibration of the discrete record model for the given
    mode, detection loss included; inverting with these constants recovers
    the atomic variance at the start of the record without bias.
    """
    floor = exact_mode_variance(loss, mu_nu, dt, duration, mode,
                                initial_var=0.0)
    at_one = exact_mode_variance(loss, mu_nu, dt, duration, mode,
                                 initial_var=1.0)
    return at_one - floor, floor
