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

Mode integrals in closed form: a mode integral y = sum_n w_n s_n is
(w . r) u_0 + sum_m C_m eps_m with C_m = sqrt(S_m) (w_m + K_m b_m),
r_n = H e1^n and b_(m-1) = H w_m + e1 b_m from the window's last bin down
(b = 0 there).  One backward pass gives C and rho = w . r for K modes at
once; :func:`discrete_calibration` is its one-mode case, var(y) =
rho^2 var(u_0) + C . C.  The referee of the whole law is the four-noise
update itself, built as a dense linear map in the tests (``TestExactLaw``).

Gain selection is exact.  Two modes x and y have covariance Sigma_xy =
rho_x rho_y var(u_0) + C_x . C_y.  For the readout mode r and the rising
feed mode f(gamma_m) on the record before it, :func:`optimize_gain` runs
the same backward recursion over the feed bins with one vector across the
gamma_m grid per quantity, accumulating Sigma_rf and Sigma_ff bin by bin
without a (bins, points) matrix.  It returns alpha* = Sigma_rf / Sigma_ff
at the gamma_m that minimises the conditional variance Sigma_rr - alpha*
Sigma_rf.  Monte Carlo only evaluates that pair.

:func:`hybrid_readout` never builds a record: it draws TRIAL_BLOCK trials at
a time into one (trials, nbins + 1, 2) block, z in row 0, and multiplies the
block's noise by the coefficients of the readout and feed modes on both
channels; each initial variance v adds sqrt(v) z rho and takes the block's
count, column means and sums of squared deviations.  With W processes (one
per CPU the caller may run on, at most one per block) the caller computes
blocks k = 0 (mod W) and each of W - 1 forked workers blocks k = w (mod W),
sending every block's moments through its own pipe.  The caller merges the
blocks' moments into running ones in block order (Chan, Golub and
LeVeque's pairwise update), so the results are the same bits whatever W
is; each matrix product takes PRODUCT_ROWS trials, so they do not follow
the BLAS thread count either.  Each process holds one block (16 bytes per
bin and trial of the block, 2 MB at fig2d's 250 bins) whatever the trial
count.

:func:`simulate_batch` keeps the record-level API: it writes a batch into
one (2, nbins, trials) float64 buffer, and ``RecordBatch.samples`` is its
(trials, nbins, 2) transposed view, so one channel over a mode's window is a
(trials, bins) slice whose trial axis is contiguous.  It draws the same
blocks, writes the scaled noise to bin-major order in the records buffer
(16 bytes per trial-bin), frees the block and runs the innovations
recursion once over the whole batch.  The record is linear in u_0, which
reaches bin n only as r_n u_0: a batch keeps z and r, and
``RecordBatch.retarget`` adds (sqrt(v') - sqrt(v)) z r_n bin by bin, so a
batch moves to another initial variance without a (trials, nbins)
temporary.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StatisticsError, WorkerError
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

# Cap on trials x bins per batch: drawing takes about 80 ns per trial-bin
# on one core (2-core x86 host), so this is about 2 s, fig2d at 10^5 trials
# of 250 bins; hybrid_readout draws its blocks on every CPU, which divides
# that by up to the CPU count.  simulate_batch's records take 16 bytes per
# trial-bin (400 MB here); hybrid_readout holds one block of draws per
# process whatever the trial count.
MAX_TRIAL_BINS = 25_000_000
# Cap on bins per batch: the record law and the sampler's innovations
# recursion, run once per batch, step bin by bin at about 10 us per bin for
# a few trials (measured on a 2-core x86 host), so 2 x 10^4 bins take about
# 0.2 s; larger batches are bounded by MAX_TRIAL_BINS.
MAX_BINS = 20_000
# Caps on the exact gamma_m scan, checked before any draw: grid points, and
# grid points x feed bins.  The scan's backward pass steps through the feed
# bins in vector operations over the grid, about 25 us per feed bin plus
# 10 ns per point and feed bin (2-core x86 host), so the largest accepted
# scans take up to 0.75 s (501 points over 19 950 feed bins).
MAX_GAIN_POINTS = 10_000
MAX_SCAN_POINT_BINS = 10_000_000
# Trials whose draws are made at a time: one block holds (trials, nbins + 1,
# 2) draws, z and the noise, 16 bytes per trial-bin (2 MB at fig2d's 250
# bins), and the block's seed words.  It is also hybrid_readout's unit of
# work per process: blocks are dealt to the processes round robin.
TRIAL_BLOCK = 512
# Trials per matrix product in a block: OpenBLAS's thread split of a whole
# block changes the rounding, while 128 trials gave the same bits for 1 to 8
# threads on its SkylakeX, Haswell and Zen kernels, 50 to 20 000 bins.
PRODUCT_ROWS = 128


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


def _draw_blocks(n_trials: int, nbins: int, master_seed: int,
                 blocks=None):
    """Yield (first trial, draws) per TRIAL_BLOCK trials, for the block
    indices ``blocks`` in order (default: all): draws[k] holds trial
    (first + k)'s z in row 0, then its (nbins, 2) noise.  Every block
    reuses one buffer."""
    noise = np.empty((min(n_trials, TRIAL_BLOCK), nbins + 1, 2))
    if blocks is None:
        blocks = range(-(-n_trials // TRIAL_BLOCK))
    for b0 in (k * TRIAL_BLOCK for k in blocks):
        block = noise[:min(TRIAL_BLOCK, n_trials - b0)]
        _draw_normals(np.uint64(master_seed)
                      ^ np.arange(b0, b0 + len(block), dtype=np.uint64),
                      block)
        yield b0, block


def simulate_batch(n_trials: int, duration: float, dt: float,
                   loss: LossParams, mu_nu: tuple, master_seed: int,
                   initial_var=(1.0, 1.0)) -> RecordBatch:
    """Simulate a batch of baseband S2 records.

    ``initial_var`` sets the (cos, sin) variances of the zero-mean Gaussian
    atomic start; detection loss ``loss.eta`` applies to every bin.
    """
    _check_draws(n_trials, master_seed)
    e1, H, gain, innov_sd, response = _record_law(loss, mu_nu, duration, dt,
                                                  n_trials)
    nbins = gain.size
    init_var = np.broadcast_to(np.asarray(initial_var, dtype=float), (2,))
    init_sd = np.sqrt(init_var).reshape(-1, 1)

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


def _mode_coefficients(law: tuple, weights: np.ndarray) -> tuple:
    """Mode integrals over the innovations (module docstring): for (n, K)
    ``weights`` on the record's first n bins, (C, rho) with y_k = rho_k u_0
    + sum_m C[m, k] eps_m, one backward pass for all K modes."""
    e1, H, gain, innov_sd, response = law
    n = weights.shape[0]
    b = np.zeros_like(weights)  # b_m = sum_(n>m) H w_n e1^(n-1-m)
    for m in range(n - 1, 0, -1):
        b[m - 1] = H * weights[m] + e1 * b[m]
    coeff = innov_sd[:n, None] * (weights + gain[:n, None] * b)
    return coeff, response[:n] @ weights


def _mode_weights(modes, dt: float, nbins: int) -> np.ndarray:
    """(bins, modes) weights of ``modes`` up to the last bin any of them
    covers."""
    spans = [mode.weights(dt, nbins) for mode in modes]
    weights = np.zeros((max(bins.stop for bins, _ in spans), len(spans)))
    for k, (bins, w) in enumerate(spans):
        weights[bins, k] = w
    return weights


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
    grid = np.atleast_1d(np.asarray(gamma_m_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("gamma_m grid must be nonempty")
    if grid.size > MAX_GAIN_POINTS:
        raise ValueError(f"{grid.size} gamma_m points exceeds "
                         f"{MAX_GAIN_POINTS}")
    t0, t1 = readout_mode.window
    law = _record_law(loss, mu_nu, t1, dt)
    e1, H, gain, innov_sd, response = law
    for gm in (grid.min(), grid.max()):  # the feed modes' own checks
        feed, _ = ModeFunctional(phase=readout_mode.phase, exponent_rate=gm,
                                 direction="rising",
                                 window=(0.0, t0)).weights(dt, gain.size)
    if grid.size * feed.stop > MAX_SCAN_POINT_BINS:
        raise ValueError(f"{grid.size} gamma_m points x {feed.stop} feed "
                         f"bins exceeds {MAX_SCAN_POINT_BINS:.4g}")
    coeff, rho = _mode_coefficients(
        law, _mode_weights([readout_mode], dt, gain.size))
    c_read, rho_read = coeff[:, 0], float(rho[0])
    # feed bins from the last down: the unnormalised envelope u (1 at the
    # last bin), b and the sums, one grid-long vector each
    decay = np.exp(-grid * dt)
    u, b = np.ones(grid.size), np.zeros(grid.size)
    s_rf, s_ff, norm, rho_feed = (np.zeros(grid.size) for _ in range(4))
    for m in range(feed.stop - 1, -1, -1):
        c = innov_sd[m] * (u + gain[m] * b)
        s_rf += c_read[m] * c
        s_ff += c * c
        norm += u * u
        rho_feed += response[m] * u
        b = H * u + e1 * b
        u *= decay
    scale = 1.0 / np.sqrt(norm)
    rho_feed *= scale
    sigma_rf = rho_read * rho_feed * v + s_rf * scale
    sigma_ff = rho_feed**2 * v + s_ff * scale**2
    alpha = sigma_rf / sigma_ff
    cond = rho_read**2 * v + float(c_read @ c_read) - alpha * sigma_rf
    k = int(np.argmin(cond))
    return float(alpha[k]), float(grid[k]), float(cond[k])


class HybridReadout(NamedTuple):
    """(cos, sin) readout-mode variances, before and after conditioning on
    the earlier record with the gain alpha* on the feed mode gamma_m*."""

    unconditional: tuple
    conditional: tuple | None
    alpha_star: float | None
    gamma_m_star: float | None


def _block_moments(x: np.ndarray) -> np.ndarray:
    """[count, column means, column sums of squared deviations] of the rows
    of ``x``, as one float row."""
    mean = x.mean(axis=0)
    dev = x - mean
    return np.concatenate([[len(x)], mean, np.einsum("ij,ij->j", dev, dev)])


def _merge_moments(acc: list, moments: np.ndarray) -> None:
    """Merge a block's :func:`_block_moments` into acc = [count, column
    means, column sums of squared deviations] (Chan, Golub and LeVeque's
    pairwise update)."""
    cols = (len(moments) - 1) // 2
    n_b = int(moments[0])
    mean_b, m2_b = moments[1:cols + 1], moments[cols + 1:]
    n_a, mean_a, m2_a = acc
    n = n_a + n_b
    delta = mean_b - mean_a
    acc[:] = [n, mean_a + delta * (n_b / n),
              m2_a + m2_b + delta**2 * (n_a * n_b / n)]


def _worker_count(n_blocks: int) -> int:
    """Processes that draw ``n_blocks`` blocks: one per CPU this process may
    run on, at most one per block, and 1 without os.fork or
    os.sched_getaffinity."""
    import os
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_blocks)


def _fold_blocks(n_trials: int, nbins: int, master_seed: int, reduce,
                 shape: tuple, fold) -> None:
    """Call ``fold(reduce(draws))`` for every block of :func:`_draw_blocks`,
    in block order; ``reduce`` returns a float64 array of ``shape``.

    With W = :func:`_worker_count` processes, the caller reduces blocks
    k = 0 (mod W) and a forked worker w the blocks k = w (mod W), writing
    each result's bytes to its own pipe; the caller reads the pipes in block
    order, so ``fold`` sees the same values whatever W is.  A worker that
    cannot be forked leaves its blocks to the caller.  WorkerError if a
    worker ends before sending all its blocks.  On return or on any
    exception every worker has been reaped (and killed first on an
    exception); workers leave by os._exit, without flushing stdio.
    """
    import os
    n_blocks = -(-n_trials // TRIAL_BLOCK)
    n_workers = _worker_count(n_blocks)
    nbytes = 8 * math.prod(shape)
    workers = {}  # w -> (pid, read end of its pipe)
    try:
        for w in range(1, n_workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                continue
            if pid == 0:  # the worker: never returns into the caller
                status = 1
                try:
                    os.close(r)
                    for _, pipe in workers.values():
                        pipe.close()
                    for _, block in _draw_blocks(
                            n_trials, nbins, master_seed,
                            range(w, n_blocks, n_workers)):
                        data = memoryview(reduce(block).tobytes())
                        while data:
                            data = data[os.write(wr, data):]
                    status = 0
                finally:
                    os._exit(status)
            os.close(wr)
            workers[w] = (pid, open(r, "rb"))
        own = _draw_blocks(n_trials, nbins, master_seed,
                           [k for k in range(n_blocks)
                            if k % n_workers not in workers])
        for k in range(n_blocks):
            w = k % n_workers
            if w not in workers:
                fold(reduce(next(own)[1]))
                continue
            data = workers[w][1].read(nbytes)
            if len(data) < nbytes:
                pid, pipe = workers.pop(w)
                pipe.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise WorkerError(
                    f"sampler worker {pid} ended "
                    f"{'with exit status' if code >= 0 else 'by signal'} "
                    f"{abs(code)} before sending block {k}")
            fold(np.frombuffer(data).reshape(shape))
    except BaseException:
        import signal
        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in workers.values():
            pipe.close()
            os.waitpid(pid, 0)


def hybrid_readout(n_trials: int, loss: LossParams, mu_nu: tuple, dt: float,
                   window: tuple, master_seed: int, *, initial_vars=(1.0,),
                   gamma_m_grid=None) -> tuple:
    """Readout statistics of the (cos, sin) falling-exponential modes with
    rate ``loss.gamma`` on ``window``, over ``n_trials`` records of
    ``window[1]`` ms in ``dt`` bins: one HybridReadout per initial atomic
    variance in ``initial_vars``, all from the same draws (trial i seeds
    ``master_seed ^ i``, as in :func:`simulate_batch`).

    With a ``gamma_m_grid`` each variance gets its exact (alpha*, gamma_m*)
    (:func:`optimize_gain`, checked before any draw), and the conditional
    variances are those of both channels at that pair; without one only
    the unconditional variances are computed.  No record is built, and the
    blocks of trials are drawn on every CPU with the same results as on one
    (module docstring).  ValueError for no initial variance or one that is
    negative or not finite, before any scan or draw; WorkerError if a
    worker process fails.
    """
    initial_vars = tuple(map(_check_initial_var, initial_vars))
    if not initial_vars:
        raise ValueError("need at least one initial variance")
    read = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                          direction="falling", window=window)
    pairs = [optimize_gain(loss, mu_nu, dt, read, gamma_m_grid=gamma_m_grid,
                           initial_var=v)[:2]
             for v in initial_vars] if gamma_m_grid is not None else []
    _check_draws(n_trials, master_seed)
    law = _record_law(loss, mu_nu, window[1], dt, n_trials)
    if n_trials < 2:
        raise StatisticsError("need at least two records for a variance")
    feeds = [ModeFunctional(phase="cos", exponent_rate=gm,
                            direction="rising", window=(0.0, window[0]))
             for _, gm in pairs]
    coeff, rho = _mode_coefficients(
        law, _mode_weights([read, *feeds], dt, law[2].size))
    # column 2k + channel: mode k (the readout, then each feed mode) on the
    # cos (0) or sin (1) channel; row 2n + channel is that channel's bin n
    n = coeff.shape[0]
    c2 = np.zeros((2 * n, 2 * coeff.shape[1]))
    c2[0::2, 0::2] = coeff
    c2[1::2, 1::2] = coeff
    # per initial variance: count, then means and sums of squared deviations
    # of the readout (cos, sin) and, with pairs, the conditioned (cos, sin)
    shape = (len(initial_vars), 1 + 2 * (4 if pairs else 2))

    def moments(block):
        x = block[:, 1:n + 1].reshape(len(block), -1)
        y = np.concatenate([x[i:i + PRODUCT_ROWS] @ c2
                            for i in range(0, len(x), PRODUCT_ROWS)])
        z = block[:, 0]
        out = np.empty(shape)
        for j, v in enumerate(initial_vars):
            u0 = math.sqrt(v) * z
            read_y = y[:, :2] + rho[0] * u0
            if pairs:
                feed_y = y[:, 2 * j + 2:2 * j + 4] + rho[j + 1] * u0
                read_y = np.hstack([read_y, read_y - pairs[j][0] * feed_y])
            out[j] = _block_moments(read_y)
        return out

    acc = [[0, 0.0, 0.0] for _ in initial_vars]

    def fold(block_moments):
        for a, m in zip(acc, block_moments):
            _merge_moments(a, m)

    _fold_blocks(n_trials, law[2].size, master_seed, moments, shape, fold)
    out = []
    for j, (count, _, m2) in enumerate(acc):
        var = tuple(float(x) for x in m2 / (count - 1))
        out.append(HybridReadout(var[:2], var[2:], *pairs[j]) if pairs
                   else HybridReadout(var, None, None, None))
    return tuple(out)


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
