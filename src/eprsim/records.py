"""Synthetic measurement records of the Stokes component S2, temporal-mode
integration and the conditional-variance (hybrid) scheme.

Records are generated at baseband in the frame rotating at the Larmor
frequency: each time bin carries the (cos, sin) quadrature pair of S2, one
independent vacuum mode pair per bin with unit variance.  The record model is
the differential form of the input-output relations, so mode-functional
integrals have exactly the first and second moments predicted by the
closed-form relations in :mod:`eprsim.light_readout` (the aggregated signal
coefficient telescopes to the continuous kappa for any bin width).

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
    P_(n+1) = max(0, e1^2 P_n + Q - K_n^2 S_n),

runs once per batch, and each trial steps its predicted state x from
x_0 = u_0:

    s_n = H x_n + sqrt(S_n) eps_n,  x_(n+1) = e1 x_n + K_n sqrt(S_n) eps_n.

Trial i of a batch uses the seed ``master_seed XOR i`` (master_seed in
[0, 2^64)) and draws, in this order, its two unit initial values z and its
(nbins, 2) noise; the initial atomic values are u_0 = sqrt(initial_var) z.
The draws are those of ``np.random.default_rng(master_seed ^ i)``, bit for
bit, but no generator is built per trial: one pass over a block's uint32
seed words computes every trial's ``SeedSequence`` state words (NumPy's
hash, fixed by its stream-compatibility policy NEP 19), PCG's seeding turns
each into a PCG64 state, and one reused generator, set to that state, draws
the trial's z and noise in one call.  The tests pin both to NumPy's own.

:func:`discrete_calibration` is one backward pass over the same law: a mode
integral y = sum_n w_n s_n is (w . r) u_0 + sum_m sqrt(S_m) (w_m + K_m b_m)
eps_m, with r_n = H e1^n and b_(m-1) = H w_m + e1 b_m from the window's
last bin down (b = 0 there), so var(y) = (w . r)^2 var(u_0) + sum_m S_m
(w_m + K_m b_m)^2.  The referee of the whole law is the four-noise update
itself, built as a dense linear map in the tests (``TestExactLaw``).

Layout: the sampler writes a batch into one (2, nbins, trials) float64
buffer, and ``RecordBatch.samples`` is its (trials, nbins, 2) transposed
view, so one channel over a mode's window is a (trials, bins) slice whose
trial axis is contiguous.  The draws are made TRIAL_BLOCK trials at a time
into one (trials, nbins + 1, 2) block, z in row 0, and the scaled noise is
written to bin-major order in the records buffer, so besides the records
(16 bytes per trial-bin) the sampler holds one block's draws.  The block is
freed before the innovations recursion, which then runs once over the whole
batch.

The record is linear in u_0, which reaches bin n only as r_n u_0 with
r_n = H e1^n.  A batch keeps z and r, and ``RecordBatch.retarget`` adds
(sqrt(v') - sqrt(v)) z r_n bin by bin: branches that differ only in the
initial variance share one draw per seed, and no (trials, nbins) temporary
is made.
"""

from __future__ import annotations

import math
import operator
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
# Cap on bins per batch: the record law and the sampler's innovations
# recursion, run once per batch, step bin by bin at about 10 us per bin for
# a few trials (measured on a 2-core x86 host), so 2 x 10^4 bins take about
# 0.2 s; larger batches are bounded by MAX_TRIAL_BINS.
MAX_BINS = 20_000
# Cap on gamma_m scan points: the scan weights every feed bin and integrates
# every trial per point, in matrix products (about 2 us per point for two
# trials of 200 feed bins, 50 us at 2500 trials, on a 2-core x86 host), so
# 10^4 points take 0.02-0.5 s.
MAX_GAIN_POINTS = 10_000
# Cap on trials x gamma_m points x feed bins: the scan's matrix products take
# 0.2-0.4 ns per unit, and building the feed-mode envelopes 30-50 ns per
# point and feed bin, as much as GAIN_ENVELOPE_TRIALS more trials (2000
# trials x 141 points x 200 feed bins, the conditional defaults, in 13 ms;
# 100 trials x 1000 points x 19 950 feed bins in 1.4 s; 2 trials x 10^4
# points x 19 950 feed bins in 6.5 s; 2-core x86 host, one BLAS thread).  So
# the cap holds a scan to about half a second and admits fig2d at
# MAX_TRIAL_BINS (10^5 trials x 29 points x 200 feed bins).
MAX_GAIN_WORK = 1_000_000_000
GAIN_ENVELOPE_TRIALS = 100
# Trial-points, and bin-points, per matrix product of the gamma_m scan (2 MB).
GAIN_CHUNK = 1 << 18
# Trials whose draws the sampler makes at a time: it holds one block's
# (trials, nbins + 1, 2) draws, z and the noise, 16 bytes per trial-bin (2 MB
# at fig2d's 250 bins), and the block's seed words, besides the records.
TRIAL_BLOCK = 512


@dataclass
class RecordBatch:
    """Batch of baseband S2 records sharing timing; trial i used seed
    master_seed ^ i.  A single record is a one-trial batch."""

    dt: float
    samples: np.ndarray  # shape (trials, nbins, 2): (cos, sin) per bin
    master_seed: int
    # kept by the sampler for retarget: (cos, sin) variances, the unit
    # initial draws z (trials, 2) and the unit-u_0 response r (nbins,)
    initial_var: np.ndarray | None = None
    initial_draws: np.ndarray | None = None
    initial_response: np.ndarray | None = None

    @property
    def n_trials(self) -> int:
        return self.samples.shape[0]

    @property
    def nbins(self) -> int:
        return self.samples.shape[1]

    def retarget(self, initial_var) -> None:
        """Move the batch in place to the (cos, sin) ``initial_var``: the
        records become those of the same seeds drawn at ``initial_var``, up
        to rounding.  ValueError for a batch without initial draws."""
        if self.initial_draws is None:
            raise ValueError("batch keeps no initial draws to re-target")
        new = np.broadcast_to(np.asarray(initial_var, dtype=float), (2,))
        if np.array_equal(new, self.initial_var):
            return
        z = self.initial_draws.T * (np.sqrt(new)
                                    - np.sqrt(self.initial_var))[:, None]
        out = self.samples.transpose(2, 1, 0)  # (2, nbins, trials)
        for n, r_n in enumerate(self.initial_response):
            out[:, n] += r_n * z
        self.initial_var = new


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
        sgn = -1.0 if self.direction == "falling" else 1.0
        bins, w = _envelopes(dt, nbins, self.window,
                             [sgn * self.exponent_rate])
        return bins, w[:, 0]


def _envelopes(dt: float, nbins: int, window: tuple, rates):
    """Unit-norm envelopes exp(rate (t - t0)) on the window's record bins,
    one column per rate: (slice of the window's bins, (bins, rates))."""
    t0, t1 = window
    times = (np.arange(nbins) + 0.5) * dt
    idx = np.nonzero((times >= t0) & (times < t1))[0]
    if idx.size == 0:
        raise ValueError("mode window overlaps no record bins")
    bins = slice(idx[0], idx[-1] + 1)  # bin times increase: one run
    rates = np.asarray(rates, dtype=float)
    arg = np.multiply.outer(times[bins] - t0, rates)
    # overflow-safe, renormalised below: arg is monotone in the bin, so a
    # column's maximum is its last row for a rising envelope, else its first
    arg -= np.where(rates > 0, arg[-1], arg[0])
    raw = np.exp(arg, out=arg)
    return bins, raw / np.sqrt(np.sum(raw**2, axis=0))


def _record_law(loss: LossParams, mu_nu: tuple, duration: float,
                dt: float, n_trials: int = 1) -> tuple:
    """Innovations form of one channel's record law (module docstring):
    (e1, H, K_n, sqrt(S_n), r_n = H e1^n) over the record's bins.

    ValueError unless ``duration`` and ``dt`` are finite and positive, the
    record has 1..MAX_BINS bins, ``n_trials`` x bins is within
    MAX_TRIAL_BINS and dt gamma <= 0.2 (aliasing).
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
    if dt * loss.gamma > 0.2:
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
    innov_sd = np.empty(nbins)  # sqrt(S_n)
    gain = np.empty(nbins)  # K_n
    P = 0.0
    for n in range(nbins):
        S = H**2 * P + R
        K = (e1 * P * H + C) / S
        gain[n], innov_sd[n] = K, math.sqrt(S)
        P = max(0.0, e1**2 * P + Q - K**2 * S)
    # bin n's response to a unit initial atomic value
    return e1, H, gain, innov_sd, H * e1 ** np.arange(nbins)


# PCG64's 128-bit LCG multiplier, and the mask of its state
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    seed s of the uint64 array ``seeds``, as a (seeds, 4) uint64 array.

    NumPy's pool-4 hash (fixed by its stream-compatibility policy, NEP 19)
    over all seeds at once: the entropy is the seed's low and high 32-bit
    words (a missing high word hashes like a zero one).
    """
    m32 = 0xFFFFFFFF
    hash_a = 0x43B0D7E5

    def hashmix(v):
        nonlocal hash_a
        v = v ^ np.uint32(hash_a)
        hash_a = hash_a * 0x931E8875 & m32
        v = v * np.uint32(hash_a)
        return v ^ v >> 16

    def mix(x, y):
        r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return r ^ r >> 16

    zero = np.zeros(seeds.shape, np.uint32)
    pool = [hashmix(w) for w in ((seeds & m32).astype(np.uint32),
                                (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_b = 0x8B51F9DD
    words = []
    for k in range(8):
        v = pool[k % 4] ^ np.uint32(hash_b)
        hash_b = hash_b * 0x58F38DED & m32
        v = v * np.uint32(hash_b)
        words.append(v ^ v >> 16)
    words = np.stack(words, axis=-1).astype(np.uint64)
    return words[..., ::2] | words[..., 1::2] << 32  # little-endian pairs


def _draw_normals(seeds: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out[k]`` with the first standard normals of
    ``np.random.default_rng(seeds[k])`` for every uint64 seed: one generator,
    its PCG64 state set from the seed words by PCG's "setseq" seeding."""
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for k, (s_hi, s_lo, i_hi, i_lo) in enumerate(_seed_words(seeds).tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=out[k])


def simulate_batch(n_trials: int, duration: float, dt: float,
                   loss: LossParams, mu_nu: tuple, master_seed: int,
                   initial_var=(1.0, 1.0)) -> RecordBatch:
    """Simulate a batch of baseband S2 records.

    ``initial_var`` sets the (cos, sin) variances of the zero-mean Gaussian
    atomic start; detection loss ``loss.eta`` applies to every bin.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= operator.index(master_seed) < 1 << 64:
        raise ValueError(f"master seed {master_seed} outside [0, 2**64)")
    e1, H, gain, innov_sd, response = _record_law(loss, mu_nu, duration, dt,
                                                  n_trials)
    nbins = gain.size
    init_var = np.broadcast_to(np.asarray(initial_var, dtype=float), (2,))
    init_sd = np.sqrt(init_var).reshape(-1, 1)

    out = np.empty((2, nbins, n_trials))
    z = np.empty((2, n_trials))
    noise = np.empty((min(n_trials, TRIAL_BLOCK), nbins + 1, 2))
    for b0 in range(0, n_trials, TRIAL_BLOCK):
        b1 = min(b0 + TRIAL_BLOCK, n_trials)
        block = noise[:b1 - b0]  # per trial: z in row 0, then the noise
        _draw_normals(np.uint64(master_seed)
                      ^ np.arange(b0, b1, dtype=np.uint64), block)
        z[:, b0:b1] = block[:, 0].T
        # the innovations sqrt(S_n) eps_n, bin-major in the records buffer
        np.multiply(block[:, 1:].transpose(2, 1, 0), innov_sd[:, None],
                    out=out[:, :, b0:b1])
    del noise, block
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
                       master_seed=master_seed, initial_var=init_var,
                       initial_draws=z.T, initial_response=response)


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


def check_gain_scan(n_trials: int, n_points: int,
                    n_feed_bins: float) -> None:
    """ValueError unless a gamma_m scan of ``n_points`` over ``n_trials``
    trials, with feed modes of about ``n_feed_bins`` bins (the readout
    window's start over the bin width), is nonempty and within the caps;
    callable before sampling."""
    if n_points == 0:
        raise ValueError("gamma_m grid must be nonempty")
    if n_points > MAX_GAIN_POINTS:
        raise ValueError(f"{n_points} gamma_m points exceeds "
                         f"{MAX_GAIN_POINTS}")
    if n_trials * n_points > MAX_TRIAL_BINS:
        raise ValueError(f"{n_trials} trials x {n_points} gamma_m "
                         f"points exceeds {MAX_TRIAL_BINS}")
    if ((n_trials + GAIN_ENVELOPE_TRIALS) * n_points * n_feed_bins
            > MAX_GAIN_WORK):
        raise ValueError(f"{n_trials} trials (+{GAIN_ENVELOPE_TRIALS} for "
                         f"the envelopes) x {n_points} gamma_m points x "
                         f"{n_feed_bins:.4g} feed bins exceeds "
                         f"{MAX_GAIN_WORK:.4g}")


def optimize_gain(batch: RecordBatch, readout_mode: ModeFunctional,
                  gamma_m_grid):
    """Optimise feedback gain and feed-mode time constant.

    For each gamma_m in the grid a rising-exponential feed mode is built
    from t = 0 up to the readout window and the closed-form optimal gain
    alpha* = cov(y_read, y_feed)/var(y_feed) is used.  Returns (alpha_star,
    gamma_m_star, min_variance); the first grid point wins a tie.
    """
    grid = np.atleast_1d(np.asarray(gamma_m_grid, dtype=float))
    feed_window = (0.0, readout_mode.window[0])
    check_gain_scan(batch.n_trials, grid.size, feed_window[1] / batch.dt)
    for gm in (grid.min(), grid.max()):  # the feed modes' own checks
        ModeFunctional(phase=readout_mode.phase, exponent_rate=gm,
                       direction="rising", window=feed_window)
    y_read = integrate_mode_batch(batch, readout_mode)
    if y_read.size < 2:
        raise StatisticsError("need at least two records")
    col = 0 if readout_mode.phase == "cos" else 1
    # grid points per matrix product
    step = max(1, GAIN_CHUNK // max(batch.n_trials, batch.nbins))
    read_dev = y_read - y_read.mean()
    best = None
    for k0 in range(0, grid.size, step):
        bins, w = _envelopes(batch.dt, batch.nbins, feed_window,
                             grid[k0:k0 + step])
        y_feed = w.T @ batch.samples[:, bins, col].T  # (points, trials)
        var_feed = np.var(y_feed, axis=1, ddof=1)
        if np.any(var_feed <= 0):
            raise NoInformationError("feedback mode variance is degenerate")
        cov = (y_feed - y_feed.mean(axis=1, keepdims=True)) @ read_dev
        alpha = cov / (y_read.size - 1) / var_feed
        v = np.var(y_read - alpha[:, None] * y_feed, axis=1, ddof=1)
        k = int(np.argmin(v))
        if best is None or v[k] < best[2]:
            best = (float(alpha[k]), float(grid[k0 + k]), float(v[k]))
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


def discrete_calibration(loss: LossParams, mu_nu: tuple, dt: float,
                         duration: float, mode: ModeFunctional) -> tuple:
    """(slope, floor) of var(y) = slope * var_atomic_in + floor.

    Exact affine calibration of the discrete record model for the given
    mode, detection loss included: one backward pass over the sampler's law
    (module docstring), under the sampler's checks on ``duration`` and
    ``dt``.  Inverting with these constants recovers the atomic variance at
    the start of the record without bias.
    """
    e1, H, gain, innov_sd, response = _record_law(loss, mu_nu, duration, dt)
    bins, w = mode.weights(dt, gain.size)
    weights = np.zeros(bins.stop)  # no bin after the window carries weight
    weights[bins] = w
    b = np.zeros(bins.stop)  # b_m = sum_(n>m) H w_n e1^(n-1-m)
    for m in range(bins.stop - 1, 0, -1):
        b[m - 1] = H * weights[m] + e1 * b[m]
    coeff = innov_sd[:bins.stop] * (weights + gain[:bins.stop] * b)
    return float(w @ response[bins]) ** 2, float(coeff @ coeff)
