"""Synthetic measurement records of the Stokes component S2, temporal-mode
integration and the conditional-variance (hybrid) scheme.

Records are generated at baseband in the frame rotating at the Larmor
frequency: each time bin carries the (cos, sin) quadrature pair of S2, one
independent vacuum mode pair per bin with unit variance.  The record model is
the differential form of the input-output relations: the aggregated signal
coefficient telescopes to the continuous kappa for any bin width, so mode
integrals follow the closed-form map of :mod:`eprsim.light_readout`, whose
floor is exact only without extra decay (``discrete_calibration`` is).

Per bin of width tau and channel (u couples to cos, v to sin), the physical
update draws four vacuum normals w, f, g, h:

    s_n = sqrt(eta) (e1 w_n + kappa_tau u_n + a g_n) + sqrt(1-eta) h_n
    u_(n+1) = e1 u_n - s^2 kappa_tau w_n + a f_n

with e1 = exp(-gamma tau), a^2 = eps^2 (1-e1^2),
kappa_tau^2 = (1-eps^2)(1-e1^2)/s^2 and s = mu - nu.  This is a scalar state
u observed as s_n = H u_n + v_n, H = sqrt(eta) kappa_tau, with measurement
noise variance R = eta (e1^2 + a^2) + 1 - eta, process noise variance
Q = s^4 kappa_tau^2 + a^2 and cross-covariance C = -sqrt(eta) e1 s^2
kappa_tau.  The sampler draws the same law in innovations form, one normal
eps_n per bin and channel: the Kalman/Riccati recursion from P_0 = 0,

    S_n = H^2 P_n + R,  K_n = (e1 P_n H + C) / S_n,
    P_(n+1) = e1^2 P_n + Q - K_n^2 S_n,

is a Moebius map of P_n, so P_n has a closed form in its two fixed points
(:func:`_riccati`), built once per batch as arrays; each trial steps its
predicted state x from x_0 = u_0:

    s_n = H x_n + sqrt(S_n) eps_n,  x_(n+1) = e1 x_n + K_n sqrt(S_n) eps_n.

Trial i of a batch uses the seed ``master_seed XOR i`` (master_seed in
[0, 2^64)) and draws, in this order, its two unit initial values z and its
(nbins, 2) noise (:func:`hybrid_readout`: its (K, 2) mode normals, below);
the initial atomic values are u_0 = sqrt(initial_var) z.
Its normals are a fixed function of its seed s and the draw's index, from a
counter-based SplitMix64 stream (Steele, Lea and Flood, OOPSLA 2014): with
mix the SplitMix64 finaliser and gamma = 0x9E3779B97F4A7C15, the stream's
key is k = mix(s), its word j is mix(k + (j + 1) gamma) mod 2^64, and the
top 53 bits m of a word give a uniform.  Row r of a trial (z in row 0, then its
noise's (cos, sin) rows) is the Box-Muller pair of words 2r and 2r + 1,
sqrt(-2 log u) (cos theta, sin theta) with u = (m_2r + 1) 2^-53 in (0, 1]
and theta = 2 pi m_(2r+1) 2^-53 (:func:`_normals`).  No state is kept: a
block's words are uint64 arithmetic over all its trials at once, and a
trial draws the same normals whatever the block or the trial count.  The
draws repeat byte for byte; they are not NumPy's ``default_rng`` stream,
and their bytes across hosts are not promised (the words are, but log, cos
and sin may round otherwise under another libm or SIMD path).

Mode integrals in closed form: a mode integral y = sum_n w_n s_n is
(w . r) u_0 + sum_m C_m eps_m with C_m = sqrt(S_m) (w_m + K_m b_m),
r_n = H e1^n and b_m = sum_(j>m) H w_j e1^(j-1-m), the backward recursion
b_(m-1) = H w_m + e1 b_m from the window's last bin down (b = 0 there).
:func:`_mode_coefficients` takes b for K modes at once as a suffix scan in
blocks of SCAN_BLOCK bins; :func:`discrete_calibration` is its one-mode
case, var(y) = rho^2 var(u_0) + C . C.  The referee of the whole law is the
four-noise update itself, built as a dense linear map in the tests
(``TestExactLaw``); the bin-by-bin loops are the closed forms' referees.

Gain selection is exact.  Two modes x and y have covariance Sigma_xy =
rho_x rho_y var(u_0) + C_x . C_y.  For the readout mode r and the rising
feed mode f(gamma_m) on the record before it, the feed envelope is
geometric, so its b, norm and rho_f are geometric sums per grid point, and
:func:`optimize_gain` sums Sigma_rf and Sigma_ff over (feed bins, points)
arrays in blocks of SCAN_BLOCK bins and chunks of points
(:func:`_feed_sums`).  It returns alpha* = Sigma_rf / Sigma_ff at the
gamma_m that minimises the conditional variance Sigma_rr - alpha*
Sigma_rf.  Monte Carlo only evaluates that pair.

:func:`hybrid_readout` never builds a record, nor draws one normal per bin.
Every statistic it reports is a sample variance of each trial's mode
integrals: K modes (the readout, then the feed modes) on two channels.
Per channel they are rho u_0 + x R, with R the K x K triangular factor of
the QR of the (nbins, K) coefficients and x K unit normals, which has the
covariance C^T C = R^T R of the noise's integrals: the same law from 2 + 2K
normals per trial instead of 2 + 2 nbins.  Trials are drawn MODE_BLOCK at a
time into one trial-minor (trials, K + 1, 2) block, z in row 0, so each
normal column is contiguous over the trials; the products with R are sums
over contiguous rows in a fixed order, einsum's "tmc,mk->tkc" order, with
no BLAS call, so the bytes do not follow the BLAS thread count
(:func:`_readout_columns`).  Each initial variance v adds sqrt(v) z rho,
and the blocks' counts, means and sums of squared deviations are merged in
block order (Chan, Golub and LeVeque's pairwise update), so memory is one
block whatever the trial count.

:func:`simulate_batch` keeps the record-level API: it writes a batch into
one (2, nbins, trials) float64 buffer, and ``RecordBatch.samples`` is its
(trials, nbins, 2) transposed view, so one channel over a mode's window is a
(trials, bins) slice whose trial axis is contiguous.  It draws blocks of
TRIAL_BLOCK trials, trial-minor like the readout's, writes the scaled noise
to bin-major order in the records buffer (16 bytes per trial-bin), frees
the block and runs the innovations recursion once over the whole batch.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StatisticsError
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

# Cap on trials x bins per batch: simulate_batch takes about 90 ns per
# trial-bin on one core (2-core x86 host, 250 bins), so this is about 2 s,
# and its records take 16 bytes per trial-bin (400 MB here).
MAX_TRIAL_BINS = 25_000_000
# Cap on hybrid_readout's trials.  It draws per mode, not per bin: about
# 0.17-0.31 us per trial whatever the bin count, for the CLI's readouts of
# 1-3 modes (4 x 10^5 trials of reconstruct, conditional and fig2d at 250
# bins took 0.07-0.13 s on a 2-core x86 host), so this is under 0.2 s,
# holding one MODE_BLOCK of draws whatever the trial count.
MAX_READOUT_TRIALS = 600_000
# Cap on bins per batch: simulate_batch's innovations recursion steps bin by
# bin at about 10 us per bin for a few trials (measured on a 2-core x86
# host), so 2 x 10^4 bins take about 0.2 s; the record law, the mode
# coefficients and hybrid_readout's other work per batch take about 10 ms
# there.  Larger batches are bounded by MAX_TRIAL_BINS.
MAX_BINS = 20_000
# Largest bin width times decay rate, dt gamma: coarser bins alias the decay
MAX_DT_GAMMA = 0.2
# Caps on the exact gamma_m scan, checked before any draw: grid points, and
# grid points x feed bins.  The scan takes about 0.5 us per feed bin plus
# 12-16 ns per point and feed bin (2-core x86 host), so the largest
# accepted scans take up to about 0.16 s (501 points over 19 950 feed bins,
# or 9800 points over 1020).
MAX_GAIN_POINTS = 10_000
MAX_SCAN_POINT_BINS = 10_000_000
# Bins per block of the suffix scans over the record (mode coefficients and
# the gamma_m scan): within a block the scans scale by e1^-j, j <= 256,
# at most e^51 at dt gamma <= MAX_DT_GAMMA
SCAN_BLOCK = 256
# Values per (block bins, grid points) array of the gamma_m scan: with its
# tables and temporaries the largest scans peak at about 4 MB (tracemalloc)
SCAN_CHUNK = 1 << 16
# Trials whose records are drawn at a time by simulate_batch: one block
# holds (trials, nbins + 1, 2) draws, z and the noise, 16 bytes per
# trial-bin (2 MB at 250 bins); drawing it holds about 32 bytes per
# trial-bin more at its peak, the stream's words and their floats.
TRIAL_BLOCK = 512
# Trials whose mode-space draws hybrid_readout makes at a time: one
# trial-minor block holds (trials, K + 1, 2) draws, 64 bytes per trial for
# fig2d's K = 3 modes; with the stream's words, the products and the
# merged columns its peak is about 270 bytes per trial there (1.1 MB under
# tracemalloc), whatever the trial count.
MODE_BLOCK = 4096


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
        bins, weights).  ValueError for a window past the record's span."""
        t0, t1 = self.window
        if t0 < -1e-12 or t1 > nbins * dt + 1e-9:
            raise ValueError("mode window exceeds record span")
        times = (np.arange(nbins) + 0.5) * dt
        idx = np.nonzero((times >= t0) & (times < t1))[0]
        if idx.size == 0:
            raise ValueError("mode window overlaps no record bins")
        bins = slice(idx[0], idx[-1] + 1)  # bin times increase: one run
        rate = (self.exponent_rate if self.direction == "rising"
                else -self.exponent_rate)
        arg = (times[bins] - t0) * rate
        # overflow-safe, renormalised below: arg is monotone in the bin, so
        # its maximum is the last bin's for a rising envelope, else the first
        raw = np.exp(arg - (arg[-1] if rate > 0 else arg[0]))
        return bins, raw / np.sqrt(np.sum(raw**2))


def _record_law(loss: LossParams, mu_nu: tuple, duration: float,
                dt: float, n_trials: int = 1) -> tuple:
    """Innovations form of one channel's record law (module docstring):
    (e1, H, K_n, sqrt(S_n), r_n = H e1^n) over the record's bins.

    ValueError unless ``duration`` and ``dt`` are finite and positive, the
    record has 1..MAX_BINS bins, ``n_trials`` x bins is within
    MAX_TRIAL_BINS and dt gamma <= MAX_DT_GAMMA (aliasing).
    """
    if not (math.isfinite(duration) and math.isfinite(dt) and duration > 0
            and dt > 0 and math.isfinite(duration / dt)):
        raise ValueError("duration and dt must be finite and positive")
    # compared as a float first: a huge count is never made an integer
    if duration / dt > MAX_BINS + 0.5:
        raise ValueError(f"{duration / dt:.4g} bins exceeds {MAX_BINS} "
                         f"bins per batch")
    nbins = int(round(duration / dt))
    if nbins < 1:
        raise ValueError("duration shorter than one bin")
    if n_trials * nbins > MAX_TRIAL_BINS:
        raise ValueError(f"{n_trials} trials x {nbins} bins exceeds "
                         f"{MAX_TRIAL_BINS} trial-bins")
    if dt * loss.gamma > MAX_DT_GAMMA:
        raise ValueError(
            f"dt={dt} too coarse for gamma={loss.gamma} (aliasing)"
        )
    mu, nu = mu_nu
    eta = loss.eta
    e2 = np.exp(-2.0 * loss.gamma * dt)
    e1, kappa_tau, a2 = map(float, (
        np.exp(-loss.gamma * dt),
        np.sqrt((1.0 - loss.epsilon_sq) * (1.0 - e2)) / (mu - nu),
        loss.epsilon_sq * (1.0 - e2)))
    s2 = (mu - nu) ** 2
    H = math.sqrt(eta) * kappa_tau
    R = eta * (e1**2 + a2) + 1.0 - eta
    Q = s2**2 * kappa_tau**2 + a2
    C = -math.sqrt(eta) * e1 * s2 * kappa_tau
    # Q R - C^2 as a sum of terms >= 0: exactly 0 without extra decay at
    # eta = 1, where P_0 = 0 is a fixed point
    beta = s2**2 * kappa_tau**2 * (eta * a2 + 1.0 - eta) + a2 * R
    P = _riccati(e1, H, R, e1**2 * R + Q * H**2 - 2.0 * e1 * H * C, beta,
                 nbins)
    S = H**2 * P + R
    # bin n's response to a unit initial atomic value
    return (e1, H, (e1 * H * P + C) / S, np.sqrt(S),
            H * e1 ** np.arange(nbins))


def _riccati(e1: float, H: float, R: float, alpha: float, beta: float,
             nbins: int) -> np.ndarray:
    """P_n, n < nbins, of the record law's Riccati recursion from P_0 = 0,
    in closed form.

    The step P -> (alpha P + beta) / (H^2 P + R) is a Moebius map.  Its
    fixed points are p > 0, the discrete algebraic Riccati equation's
    root, and p' = -beta / (H^2 p), and from P_0 = 0

        P_n = p (1 - k^n) / (1 + q k^n),  q = p / |p'| = H^2 p^2 / beta,

    with k = lambda' / lambda in (0, 1) the ratio of its eigenvalues
    lambda = H^2 p + R and lambda' = H^2 p' + R (1 - k = H^2 (p - p') /
    lambda).  beta = 0 keeps P at 0; H = 0 makes the map linear,
    P_(n+1) = e1^2 P_n + beta / R (alpha = e1^2 R).
    """
    n = np.arange(nbins)
    if beta == 0.0:
        return np.zeros(nbins)
    h2, d = H * H, R - alpha
    if h2 == 0.0:  # H = 0, or H^2 below the smallest double
        log_k = 2.0 * math.log(e1)
        if log_k == 0.0:
            return beta / R * n
        return beta / R * (np.expm1(n * log_k) / math.expm1(log_k))
    root = math.sqrt(d * d + 4.0 * h2 * beta)
    # the positive root of h2 p^2 + d p - beta = 0, without cancellation
    p = 2.0 * beta / (d + root) if d >= 0.0 else (root - d) / (2.0 * h2)
    x = n * math.log1p(-(h2 * p + beta / p) / (h2 * p + R))  # n log k
    # 1 / (1 + q k^n) from logs: q overflows for a subnormal beta
    log_q = math.log(h2) + 2.0 * math.log(p) - math.log(beta)
    return p * -np.expm1(x) * np.exp(-np.logaddexp(0.0, x + log_q))


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the stream's increment,
# the golden gamma, and its finaliser's multipliers (Stafford's Mix13)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser of the uint64 array ``z``, in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _normals(seeds: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out[k]``, (rows, 2) standard normals in any layout, from the
    stream of the uint64 seed ``seeds[k]`` (module docstring): row r is the
    Box-Muller pair of the stream's words 2r and 2r + 1.

    The words are built as a (2, rows, trials) array, so the radii and the
    angles are each one contiguous array and every element of the log, cos
    and sin takes the same code path whatever the trial count."""
    rows = out.shape[1]
    steps = _GAMMA * np.arange(1, 2 * rows + 1, dtype=np.uint64)
    words = np.empty((2, rows, len(seeds)), np.uint64)
    np.add(steps.reshape(rows, 2).T[..., None],
           _mix(np.array(seeds, np.uint64)), out=words)
    _mix(words)
    words >>= np.uint64(11)  # the top 53 bits
    radius, angle = words.astype(float)
    del words
    radius += 1.0  # u in (0, 1]: the log is finite
    radius *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= math.tau * 2.0**-53
    np.multiply(radius, np.cos(angle), out=out[:, :, 0].T)
    np.sin(angle, out=angle)
    np.multiply(radius, angle, out=out[:, :, 1].T)


def _check_draws(n_trials: int, master_seed: int) -> None:
    """ValueError unless there is a trial and the seed is in [0, 2^64)."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= operator.index(master_seed) < 1 << 64:
        raise ValueError(f"master seed {master_seed} outside [0, 2**64)")


def _check_initial_var(v) -> float:
    """``v`` as a float; ValueError unless it is finite and >= 0."""
    v = float(v)
    if not (math.isfinite(v) and v >= 0.0):
        raise ValueError(f"initial variance {v} must be finite and >= 0")
    return v


def _draw_blocks(n_trials: int, rows: int, master_seed: int,
                 block: int = TRIAL_BLOCK):
    """Yield (first trial, draws) per ``block`` trials: draws[k] holds trial
    (first + k)'s z in row 0, then its (rows, 2) normals.  Every block
    reuses one trial-minor buffer, a transposed (rows + 1, 2, trials)
    array, so each normal's column is contiguous over the trials."""
    noise = np.empty((rows + 1, 2, min(n_trials, block))).transpose(2, 0, 1)
    for lo in range(0, n_trials, block):
        draws = noise[:min(block, n_trials - lo)]
        _normals(np.uint64(master_seed) ^ np.arange(
            lo, lo + len(draws), dtype=np.uint64), draws)
        yield lo, draws


def simulate_batch(n_trials: int, duration: float, dt: float,
                   loss: LossParams, mu_nu: tuple, master_seed: int,
                   initial_var=(1.0, 1.0)) -> RecordBatch:
    """Simulate a batch of baseband S2 records.

    ``initial_var`` sets the (cos, sin) variances of the zero-mean Gaussian
    atomic start; detection loss ``loss.eta`` applies to every bin.
    """
    _check_draws(n_trials, master_seed)
    e1, H, gain, innov_sd, _ = _record_law(loss, mu_nu, duration, dt,
                                           n_trials)
    nbins = gain.size
    init_sd = np.sqrt(np.broadcast_to(np.asarray(initial_var, dtype=float),
                                      (2,))).reshape(-1, 1)

    out = np.empty((2, nbins, n_trials))
    z = np.empty((2, n_trials))
    for b0, block in _draw_blocks(n_trials, nbins, master_seed):
        b1 = b0 + len(block)
        z[:, b0:b1] = block[:, 0].T
        # the innovations sqrt(S_n) eps_n, bin-major in the records buffer
        np.multiply(block[:, 1:].transpose(2, 1, 0), innov_sd[:, None],
                    out=out[:, :, b0:b1])
    del block  # the last view keeps the draws alive
    x = z * init_sd
    hx, step = np.empty_like(x), np.empty_like(x)
    for n in range(nbins):
        s_n = out[:, n]
        np.multiply(gain[n], s_n, out=step)
        np.multiply(H, x, out=hx)
        s_n += hx
        x *= e1
        x += step
    return RecordBatch(dt=dt, samples=out.transpose(2, 1, 0),
                       master_seed=master_seed)


def integrate_mode_batch(batch: RecordBatch, mode: ModeFunctional) -> np.ndarray:
    """Mode integrals for every trial of a batch."""
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


def _mode_coefficients(law: tuple, weights: np.ndarray) -> tuple:
    """Mode integrals over the innovations (module docstring): for (n, K)
    ``weights`` on the record's first n bins, (C, rho) with y_k = rho_k u_0
    + sum_m C[m, k] eps_m, for all K modes at once.

    b_m = sum_(j>m) H w_j e1^(j-1-m) is a suffix scan in blocks of
    SCAN_BLOCK bins from the last: within a block starting at bin m0 it is
    e1^-(m+1-m0) times the suffix sum of H w_j e1^(j-m0), plus e1^(m1-1-m)
    times b at the block's last bin m1 - 1, carried from the block after.
    """
    e1, H, gain, innov_sd, response = law
    n = weights.shape[0]
    powers = e1 ** np.arange(min(n, SCAN_BLOCK) + 1)
    b = np.empty_like(weights)
    carry = np.zeros(weights.shape[1])  # b at the block's last bin
    for m0 in range((n - 1) // SCAN_BLOCK * SCAN_BLOCK, -1, -SCAN_BLOCK):
        w = weights[m0:m0 + SCAN_BLOCK]
        size = len(w)
        tail = np.zeros_like(w)  # suffix sums past each bin of the block
        np.cumsum((H * w * powers[:size, None])[:0:-1], axis=0,
                  out=tail[-2::-1])
        b[m0:m0 + size] = (tail / powers[1:size + 1, None]
                           + powers[size - 1::-1, None] * carry)
        carry = H * w[0] + e1 * b[m0]
    coeff = innov_sd[:n, None] * (weights + gain[:n, None] * b)
    # one dot per contiguous row, so each rho rounds alike for any K
    return coeff, np.array([response[:n] @ w for w in weights.T.copy()])


def _mode_weights(modes, dt: float, nbins: int) -> np.ndarray:
    """(nbins, modes) weights of ``modes`` on the record's bins."""
    weights = np.zeros((nbins, len(modes)))
    for k, mode in enumerate(modes):
        bins, w = mode.weights(dt, nbins)
        weights[bins, k] = w
    return weights


def _check_grid(gamma_m_grid) -> np.ndarray:
    """The gamma_m grid as a float array; ValueError if it is empty or over
    MAX_GAIN_POINTS."""
    grid = np.atleast_1d(np.asarray(gamma_m_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("gamma_m grid must be nonempty")
    if grid.size > MAX_GAIN_POINTS:
        raise ValueError(f"{grid.size} gamma_m points exceeds "
                         f"{MAX_GAIN_POINTS}")
    return grid


def _power_sums(i, log_hi, log_ratio) -> np.ndarray:
    """sum_(k<i) a^(i-1-k) b^k = a^(i-1) (1 - r^i) / (1 - r) for every point
    of the arrays log a = ``log_hi`` and log r = log(b / a) = ``log_ratio``
    <= 0 (i a^(i-1) where r = 1), as (points,) for a scalar ``i`` and
    (len(i), points) for an array."""
    i = np.asarray(i, dtype=float)[..., None]
    den = np.expm1(log_ratio)
    flat = den == 0.0
    ratio = np.where(flat, i, np.expm1(i * log_ratio)
                     / np.where(flat, 1.0, den))
    return np.exp((i - 1.0) * log_hi) * ratio


def _feed_sums(law: tuple, dt: float, c_read: np.ndarray, nfeed: int,
               grid: np.ndarray) -> tuple:
    """(Sigma_rf - rho_r rho_f v, Sigma_ff - rho_f^2 v, rho_f) per gamma_m of
    ``grid`` for the readout mode's coefficients ``c_read`` and the
    normalised rising feed mode on the record's first ``nfeed`` bins.

    At distance i = nfeed - 1 - m from the last feed bin the feed envelope
    is u = d^i, d = e^(-gamma_m dt), before normalisation, and b_m = H T_i
    with T_i = sum_(k<i) d^(i-1-k) e1^k.  Its norm and rho_f = H T_nfeed
    are geometric sums.  C_f,m = sqrt(S_m) (u + K_m b_m) is summed against
    c_read and itself in blocks of SCAN_BLOCK bins: at block offset i0,
    u = d^i0 d^j and T_(i0+j) = d^j T_i0 + e1^i0 T_j, so one table of d^j
    and T_j (j < SCAN_BLOCK) per chunk of points serves every block.  Each
    (bins, points) array holds at most SCAN_CHUNK values, and the sums over
    bins are einsum's, which does not hand them to BLAS.
    """
    e1, H, gain, innov_sd, response = law
    # feed bins from the last one back
    sd, skh = innov_sd[nfeed - 1::-1], (innov_sd * gain * H)[nfeed - 1::-1]
    c_read = c_read[nfeed - 1::-1]
    log_e1 = math.log(e1)
    log_d = -grid * dt
    log_hi = np.maximum(log_d, log_e1)  # log max(d, e1)
    log_ratio = np.minimum(log_d, log_e1) - log_hi
    width = min(nfeed, SCAN_BLOCK)
    j = np.arange(width)
    s_rf, s_ff = np.zeros(grid.size), np.zeros(grid.size)
    step = max(1, SCAN_CHUNK // width)
    for p in (slice(k, k + step) for k in range(0, grid.size, step)):
        d_j = np.exp(np.multiply.outer(j, log_d[p]))
        t_j = _power_sums(j, log_hi[p], log_ratio[p])
        for i0 in range(0, nfeed, SCAN_BLOCK):
            blk = slice(i0, i0 + SCAN_BLOCK)
            rows = min(SCAN_BLOCK, nfeed - i0)
            c = np.multiply.outer(skh[blk], _power_sums(i0, log_hi[p],
                                                        log_ratio[p]))
            c += np.multiply.outer(sd[blk], np.exp(i0 * log_d[p]))
            c *= d_j[:rows]
            c += t_j[:rows] * (e1**i0 * skh[blk])[:, None]
            s_rf[p] += np.einsum("i,ij->j", c_read[blk], c)
            s_ff[p] += np.einsum("ij,ij->j", c, c)
    scale = 1.0 / np.sqrt(_power_sums(nfeed, 0.0, 2.0 * log_d))
    return (s_rf * scale, s_ff * scale**2,
            H * _power_sums(nfeed, log_hi, log_ratio) * scale)


def _gain_scan(law: tuple, dt: float, readout_mode: ModeFunctional,
               grid: np.ndarray, c_read: np.ndarray, rho_read: float):
    """The exact gamma_m scan of :func:`optimize_gain` on the record
    ``law``, whose last bin ends ``readout_mode``'s window, given that
    mode's coefficients ``c_read`` and ``rho_read``
    (:func:`_mode_coefficients`); the feed sums do not depend on the initial
    variance (:func:`_feed_sums`).
    Returns pick(v) = (alpha*, gamma_m*, conditional variance) at initial
    atomic variance v.  ValueError for a feed mode that ModeFunctional
    refuses or a scan over MAX_SCAN_POINT_BINS, before the sums."""
    t0, _ = readout_mode.window
    for gm in (grid.min(), grid.max()):  # the feed modes' own checks
        feed, _ = ModeFunctional(phase=readout_mode.phase, exponent_rate=gm,
                                 direction="rising",
                                 window=(0.0, t0)).weights(dt, law[2].size)
    if grid.size * feed.stop > MAX_SCAN_POINT_BINS:
        raise ValueError(f"{grid.size} gamma_m points x {feed.stop} feed "
                         f"bins exceeds {MAX_SCAN_POINT_BINS:.4g}")
    s_rf, s_ff, rho_feed = _feed_sums(law, dt, c_read, feed.stop, grid)
    rho_rf, rho_ff = rho_read * rho_feed, rho_feed**2
    rho_rr, c_rr = rho_read**2, float(c_read @ c_read)

    def pick(v: float) -> tuple:
        sigma_rf = rho_rf * v + s_rf
        alpha = sigma_rf / (rho_ff * v + s_ff)
        cond = rho_rr * v + c_rr - alpha * sigma_rf
        k = int(np.argmin(cond))
        return float(alpha[k]), float(grid[k]), float(cond[k])
    return pick


def optimize_gain(loss: LossParams, mu_nu: tuple, dt: float,
                  readout_mode: ModeFunctional, *, gamma_m_grid,
                  initial_var: float = 1.0) -> tuple:
    """Exact feedback gain and feed-mode rate for ``readout_mode``.

    For each gamma_m in the grid the feed mode is a rising exponential from
    t = 0 up to the readout window, on the record law of ``loss`` and bin
    width ``dt`` with initial atomic variance ``initial_var``.  Returns
    (alpha*, gamma_m*, conditional variance), exact (module docstring); the
    first grid point wins a tie.  ValueError for a negative or non-finite
    ``initial_var``, an empty grid, one over MAX_GAIN_POINTS or
    MAX_SCAN_POINT_BINS, or a record the sampler refuses; nothing is drawn.
    """
    v = _check_initial_var(initial_var)
    grid = _check_grid(gamma_m_grid)
    law = _record_law(loss, mu_nu, readout_mode.window[1], dt)
    coeff, rho = _mode_coefficients(
        law, _mode_weights([readout_mode], dt, law[2].size))
    return _gain_scan(law, dt, readout_mode, grid, coeff[:, 0],
                      float(rho[0]))(v)


class HybridReadout(NamedTuple):
    """(cos, sin) readout-mode variances, before and after conditioning on
    the earlier record with the gain alpha* on the feed mode gamma_m*."""

    unconditional: tuple
    conditional: tuple | None
    alpha_star: float | None
    gamma_m_star: float | None


def _merge_moments(acc: list, x: np.ndarray) -> None:
    """Merge the rows of ``x`` into acc = [count, means, sums of squared
    deviations] over its first axis (Chan, Golub and LeVeque's pairwise
    update)."""
    n_b, mean_b = len(x), x.mean(axis=0)
    dev = x - mean_b
    m2_b = np.einsum("i...,i...->...", dev, dev)
    n_a, mean_a, m2_a = acc
    n = n_a + n_b
    delta = mean_b - mean_a
    acc[:] = [n, mean_a + delta * (n_b / n),
              m2_a + m2_b + delta**2 * (n_a * n_b / n)]


def _readout_columns(draws: np.ndarray, r: np.ndarray, rho: np.ndarray,
                     pairs: list, initial_vars: tuple,
                     out: np.ndarray) -> np.ndarray:
    """Each trial's readout integrals, then (with ``pairs``) its conditioned
    ones, per initial variance, written into the C-contiguous (trials,
    columns, 2) ``out`` and returned, from the trial-minor (trials, K + 1,
    2) ``draws`` of :func:`_draw_blocks`, z in row 0.

    The mode integrals y_k = sum_m x_m R[m, k] are summed over every m in
    order from zero, as einsum "tmc,mk->tkc" sums them, one contiguous
    (2, trials) row at a time."""
    x = draws.transpose(1, 2, 0)  # (K + 1, 2, trials), rows contiguous
    k_modes = len(r)
    y = np.zeros((k_modes, *x.shape[1:]))
    t = np.empty(x.shape[1:])
    for k in range(k_modes):
        for m in range(k_modes):
            np.multiply(x[1 + m], r[m, k], out=t)
            y[k] += t
    width = 1 + bool(pairs)  # columns per initial variance
    for j, v in enumerate(initial_vars):
        u0 = math.sqrt(v) * x[0]
        read_y = out[:, width * j].T
        np.multiply(u0, rho[0], out=read_y)
        read_y += y[0]
        if pairs:
            np.multiply(u0, rho[j + 1], out=t)
            t += y[j + 1]
            t *= pairs[j][0]
            np.subtract(read_y, t, out=out[:, width * j + 1].T)
    return out


def _readout_modes(law: tuple, dt: float, read: ModeFunctional, grid,
                   initial_vars: tuple) -> tuple:
    """(R, rho, pairs) of :func:`hybrid_readout` on the record ``law``: the
    modes are ``read`` and, with a ``grid``, the feed mode of each initial
    variance's exact (alpha*, gamma_m*), listed in ``pairs`` (empty without
    a grid); rho holds their responses to u_0, and R is the triangular
    factor of the QR of their (nbins, K) coefficients C, so x R for K unit
    normals x has the noise's covariance C^T C = R^T R."""
    nbins = law[2].size
    coeff, rho = _mode_coefficients(law, _mode_weights([read], dt, nbins))
    pairs = []
    if grid is not None:
        pick = _gain_scan(law, dt, read, grid, coeff[:, 0], float(rho[0]))
        pairs = [pick(v)[:2] for v in initial_vars]
        feeds = [ModeFunctional(phase="cos", exponent_rate=gm,
                                direction="rising",
                                window=(0.0, read.window[0]))
                 for _, gm in pairs]
        feed_coeff, feed_rho = _mode_coefficients(
            law, _mode_weights(feeds, dt, nbins))
        coeff = np.hstack([coeff, feed_coeff])
        rho = np.concatenate([rho, feed_rho])
    return np.linalg.qr(coeff, mode="r"), rho, pairs


def hybrid_readout(n_trials: int, loss: LossParams, mu_nu: tuple, dt: float,
                   window: tuple, master_seed: int, *, initial_vars=(1.0,),
                   gamma_m_grid=None) -> tuple:
    """Readout statistics of the (cos, sin) falling-exponential modes with
    rate ``loss.gamma`` on ``window``, over ``n_trials`` records of
    ``window[1]`` ms in ``dt`` bins: one HybridReadout per initial atomic
    variance in ``initial_vars``, all from the same draws (trial i seeds
    ``master_seed ^ i``).

    With a ``gamma_m_grid`` each variance gets its exact (alpha*, gamma_m*)
    (:func:`optimize_gain`'s, from one scan for all variances, checked
    before any draw), and the conditional variances are those of both
    channels at that pair; without one only the unconditional variances
    are computed.  No record is built: each trial draws its mode integrals
    in mode space, one normal per mode and channel (module docstring).
    ValueError for no initial variance, one that is negative or not
    finite, or more than MAX_READOUT_TRIALS trials, and StatisticsError for
    fewer than two trials, before any scan or draw.
    """
    initial_vars = tuple(map(_check_initial_var, initial_vars))
    if not initial_vars:
        raise ValueError("need at least one initial variance")
    read = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                          direction="falling", window=window)
    grid = None if gamma_m_grid is None else _check_grid(gamma_m_grid)
    _check_draws(n_trials, master_seed)
    if n_trials < 2:
        raise StatisticsError("need at least two records for a variance")
    if n_trials > MAX_READOUT_TRIALS:
        raise ValueError(f"{n_trials} trials exceeds {MAX_READOUT_TRIALS} "
                         f"trials per readout")
    law = _record_law(loss, mu_nu, window[1], dt)
    r, rho, pairs = _readout_modes(law, dt, read, grid, initial_vars)
    # per initial variance, the readout's and (with pairs) the conditioned
    # integrals' count, means and sums of squared deviations per channel
    acc = [0, 0.0, 0.0]
    cols = np.empty((min(n_trials, MODE_BLOCK),
                     len(initial_vars) * (1 + bool(pairs)), 2))
    for _, draws in _draw_blocks(n_trials, len(r), master_seed, MODE_BLOCK):
        _merge_moments(acc, _readout_columns(draws, r, rho, pairs,
                                             initial_vars, cols[:len(draws)]))
    var = (acc[2] / (n_trials - 1)).tolist()
    if not pairs:
        return tuple(HybridReadout(tuple(v), None, None, None) for v in var)
    return tuple(HybridReadout(tuple(var[2 * j]), tuple(var[2 * j + 1]),
                               *pair) for j, pair in enumerate(pairs))


def discrete_calibration(loss: LossParams, mu_nu: tuple, dt: float,
                         duration: float, mode: ModeFunctional) -> tuple:
    """(slope, floor) of var(y) = slope * var_atomic_in + floor.

    Exact affine calibration of the discrete record model for the given
    mode, detection loss included: the one-mode case of the backward pass
    over the sampler's law (module docstring), under the sampler's checks on
    ``duration`` and ``dt``.  Inverting with these constants recovers the
    atomic variance at the start of the record without bias.
    """
    law = _record_law(loss, mu_nu, duration, dt)
    coeff, rho = _mode_coefficients(law, _mode_weights([mode], dt,
                                                       law[2].size))
    c = coeff[:, 0]
    return float(rho[0]) ** 2, float(c @ c)
