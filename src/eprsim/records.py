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
Trial i of a batch uses the seed ``master_seed XOR i``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoInformationError, StatisticsError
from .light_readout import LossParams, reconstruct_atomic_variance

__all__ = [
    "LightRecord",
    "RecordBatch",
    "ModeFunctional",
    "simulate_batch",
    "synthesize_record",
    "integrate_mode",
    "integrate_mode_batch",
    "conditional_variance",
    "optimize_gain",
    "reconstruct_conditional_xi",
    "record_to_csv",
    "record_from_csv",
    "generate_carrier_signal",
    "lock_in_demodulate",
]

# Cap on trials x bins per batch: the noise tensor takes 64 bytes per
# trial-bin, so this is 1.6 GB, enough for fig2d at 10^5 trials of 250 bins.
MAX_TRIAL_BINS = 25_000_000


@dataclass
class LightRecord:
    """Sampled S2 photocurrent, (cos, sin) quadrature pair per bin."""

    dt: float
    samples: np.ndarray  # shape (nbins, 2)
    omega: float
    seed: int
    sx_norm: float = 1.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.dt <= 0:
            raise ValueError("sample interval must be positive")
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise ValueError("samples must have shape (nbins, 2)")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    @property
    def nbins(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.nbins * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.nbins) * self.dt


@dataclass
class RecordBatch:
    """Batch of records sharing timing; trial i used seed master ^ i."""

    dt: float
    samples: np.ndarray  # shape (trials, nbins, 2)
    omega: float
    master_seed: int
    sx_norm: float = 1.0

    @property
    def n_trials(self) -> int:
        return self.samples.shape[0]

    @property
    def nbins(self) -> int:
        return self.samples.shape[1]

    def record(self, i: int) -> LightRecord:
        return LightRecord(dt=self.dt, samples=self.samples[i],
                           omega=self.omega, seed=self.master_seed ^ i,
                           sx_norm=self.sx_norm)


@dataclass(frozen=True)
class ModeFunctional:
    """Temporal mode: cos/sin quadrature, exponential envelope, window.

    ``norm`` of None means "normalise to unit vacuum variance for the record
    at hand" (sum of squared discrete weights = 1), which is the convention
    everywhere in this package; a fixed value overrides it.
    """

    phase: str  # 'cos' | 'sin'
    exponent_rate: float
    direction: str  # 'falling' | 'rising'
    window: tuple
    norm: float | None = None

    def __post_init__(self):
        if self.phase not in ("cos", "sin"):
            raise ValueError("phase must be 'cos' or 'sin'")
        if self.direction not in ("falling", "rising"):
            raise ValueError("direction must be 'falling' or 'rising'")
        if self.exponent_rate < 0:
            raise ValueError("exponent rate must be >= 0")
        t0, t1 = self.window
        if not t1 > t0:
            raise ValueError("mode window must be nonempty")
        if self.norm is not None and self.norm <= 0:
            raise ValueError("norm must be positive")

    def weights(self, dt: float, nbins: int):
        """Discrete weights (bin indices, weights) over the record grid."""
        t0, t1 = self.window
        times = (np.arange(nbins) + 0.5) * dt
        idx = np.nonzero((times >= t0) & (times < t1))[0]
        if idx.size == 0:
            raise ValueError("mode window overlaps no record bins")
        sgn = -1.0 if self.direction == "falling" else 1.0
        arg = sgn * self.exponent_rate * (times[idx] - t0)
        if self.norm is None:
            arg = arg - arg.max()  # overflow-safe; renormalised below
        raw = np.exp(arg)
        if self.norm is None:
            raw = raw / np.sqrt(np.sum(raw**2))
        else:
            raw = raw / self.norm
        return idx, raw


def _trial_noise(master_seed: int, n_trials: int, nbins: int):
    """Per-trial noise tensors; trial i uses seed master_seed XOR i."""
    init = np.empty((n_trials, 2))
    noise = np.empty((n_trials, nbins, 2, 4))
    for i in range(n_trials):
        rng = np.random.default_rng((master_seed ^ i) & 0xFFFFFFFFFFFFFFFF)
        init[i] = rng.standard_normal(2)
        noise[i] = rng.standard_normal((nbins, 2, 4))
    return init, noise


def simulate_batch(n_trials: int, duration: float, dt: float,
                   loss: LossParams, mu_nu: tuple, master_seed: int,
                   initial_var=(1.0, 1.0), initial_mean=(0.0, 0.0),
                   omega: float = 0.0, apply_detection: bool = True,
                   gamma_profile=None) -> RecordBatch:
    """Simulate a batch of baseband S2 records.

    ``initial_var``/``initial_mean`` set the Gaussian atomic (u, v) start.
    ``gamma_profile`` optionally maps bin start times to a total-decay rate
    (quasi-static population throttling); epsilon^2 is held fixed.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(duration) and math.isfinite(dt) and duration > 0
            and dt > 0 and math.isfinite(duration / dt)):
        raise ValueError("duration and dt must be finite and positive")
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
    s = mu - nu
    s2 = s**2
    eps_sq = loss.epsilon_sq
    eta = loss.eta

    init, noise = _trial_noise(master_seed, n_trials, nbins)
    u = init * np.sqrt(np.asarray(initial_var)) + np.asarray(initial_mean)

    times = np.arange(nbins) * dt
    if gamma_profile is None:
        gam = np.full(nbins, loss.gamma)
    else:
        gam = np.asarray([gamma_profile(t) for t in times], dtype=float)
    e2 = np.exp(-2.0 * gam * dt)
    e1 = np.exp(-gam * dt)
    kappa_tau = np.sqrt((1.0 - eps_sq) * (1.0 - e2)) / s
    anoise = np.sqrt(eps_sq * (1.0 - e2))

    out = np.empty((n_trials, nbins, 2))
    for n in range(nbins):
        w = noise[:, n, :, 0]
        f = noise[:, n, :, 1]
        g = noise[:, n, :, 2]
        h = noise[:, n, :, 3]
        s_n = e1[n] * w + kappa_tau[n] * u + anoise[n] * g
        if apply_detection and eta < 1.0:
            s_n = np.sqrt(eta) * s_n + np.sqrt(1.0 - eta) * h
        out[:, n, :] = s_n
        u = e1[n] * u - s2 * kappa_tau[n] * w + anoise[n] * f
    return RecordBatch(dt=dt, samples=out, omega=omega,
                       master_seed=master_seed)


def synthesize_record(trajectory, params, dt: float, seed: int,
                      duration: float | None = None,
                      initial_var=(1.0, 1.0)) -> LightRecord:
    """Single record consistent with a moment trajectory.

    The collective coupling tracks the trajectory's population series
    (quasi-static); local decoherence enters as the extra-decay channel.
    """
    from .gaussian_dynamics import relaxation_rate

    pops = getattr(trajectory, "populations", None)
    if duration is None:
        duration = float(trajectory.times[-1] - trajectory.times[0])
    if pops is not None:
        pt = np.asarray(pops.times, dtype=float)
        pv = np.asarray(pops.p2_tilde, dtype=float)
        profile_s = lambda t: 0.5 * relaxation_rate(params, float(np.interp(t, pt, pv)))
    else:
        profile_s = lambda t: 0.5 * relaxation_rate(params)
    gamma_extra = 0.5 * params.Gamma_tilde
    gamma_s0 = profile_s(0.0)
    loss = LossParams(gamma_s=gamma_s0, gamma_extra=gamma_extra,
                      eta=params.eta)
    profile = lambda t: profile_s(t) + gamma_extra
    batch = simulate_batch(1, duration, dt, loss, (params.mu, params.nu),
                           seed, initial_var=initial_var, omega=params.Omega,
                           gamma_profile=profile)
    return batch.record(0)


def integrate_mode(record: LightRecord, mode: ModeFunctional) -> float:
    """Normalised mode-functional integral of a single record."""
    t0, t1 = mode.window
    if t0 < -1e-12 or t1 > record.duration + 1e-9:
        raise ValueError("mode window exceeds record span")
    idx, w = mode.weights(record.dt, record.nbins)
    col = 0 if mode.phase == "cos" else 1
    return float(np.dot(w, record.samples[idx, col]))


def integrate_mode_batch(batch: RecordBatch, mode: ModeFunctional) -> np.ndarray:
    """Mode integrals for every trial of a batch."""
    t0, t1 = mode.window
    if t0 < -1e-12 or t1 > batch.nbins * batch.dt + 1e-9:
        raise ValueError("mode window exceeds record span")
    idx, w = mode.weights(batch.dt, batch.nbins)
    col = 0 if mode.phase == "cos" else 1
    return batch.samples[:, idx, col] @ w


def _mode_values(records, mode: ModeFunctional) -> np.ndarray:
    if isinstance(records, RecordBatch):
        return integrate_mode_batch(records, mode)
    return np.array([integrate_mode(r, mode) for r in records])


def _check_disjoint(readout_mode: ModeFunctional, feed_mode: ModeFunctional):
    r0, r1 = readout_mode.window
    f0, f1 = feed_mode.window
    if not (f1 <= r0 + 1e-12 or r1 <= f0 + 1e-12):
        raise ValueError("readout and feedback windows must be disjoint")


def conditional_variance(records, readout_mode: ModeFunctional,
                         feed_mode: ModeFunctional, alpha: float) -> float:
    """Sample variance of y_readout - alpha * y_feed across the batch."""
    _check_disjoint(readout_mode, feed_mode)
    y_read = _mode_values(records, readout_mode)
    if y_read.size < 2:
        raise StatisticsError("need at least two records for a variance")
    y_feed = _mode_values(records, feed_mode)
    return float(np.var(y_read - alpha * y_feed, ddof=1))


def optimize_gain(records, readout_mode: ModeFunctional, gamma_m_grid,
                  feed_window: tuple | None = None):
    """Optimise feedback gain and feed-mode time constant.

    For each gamma_m in the grid a rising-exponential feed mode is built on
    ``feed_window`` (default: from t = 0 up to the readout window) and the
    closed-form optimal gain alpha* = cov(y_read, y_feed)/var(y_feed) is
    used.  Returns (alpha_star, gamma_m_star, min_variance).
    """
    grid = np.atleast_1d(np.asarray(gamma_m_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("gamma_m grid must be nonempty")
    if feed_window is None:
        feed_window = (0.0, readout_mode.window[0])
    y_read = _mode_values(records, readout_mode)
    if y_read.size < 2:
        raise StatisticsError("need at least two records")
    best = None
    for gm in grid:
        mode = ModeFunctional(phase=readout_mode.phase, exponent_rate=gm,
                              direction="rising", window=feed_window)
        _check_disjoint(readout_mode, mode)
        y_feed = _mode_values(records, mode)
        var_feed = np.var(y_feed, ddof=1)
        if var_feed <= 0:
            raise NoInformationError("feedback mode variance is degenerate")
        alpha = float(np.cov(y_read, y_feed, ddof=1)[0, 1] / var_feed)
        v = float(np.var(y_read - alpha * y_feed, ddof=1))
        if best is None or v < best[2]:
            best = (alpha, float(gm), v)
    return best


def reconstruct_conditional_xi(cond_var_cos: float, cond_var_sin: float,
                               kappa_sq: float, mu_nu: tuple,
                               eta: float = 1.0) -> float:
    """Map conditional light variances back to the conditional EPR witness.

    Same calibrated inversion as the unconditional reconstruction, averaged
    over the two channels.
    """
    rc = reconstruct_atomic_variance(cond_var_cos, kappa_sq, mu_nu, eta=eta)
    rs = reconstruct_atomic_variance(cond_var_sin, kappa_sq, mu_nu, eta=eta)
    return 0.5 * (rc.value + rs.value)


def exact_mode_variance(loss: LossParams, mu_nu: tuple, dt: float,
                        duration: float, mode: ModeFunctional,
                        initial_var: float = 1.0,
                        apply_detection: bool = True,
                        gamma_profile=None) -> float:
    """Exact var(integrate_mode) of the discrete model, no sampling.

    Propagates the joint second moments of (atomic quadrature, partial mode
    sum) bin by bin; the result is what a Monte Carlo estimate converges to.
    Serves both as a test oracle and as the calibration for unbiased
    inversion of record statistics (the published two-parameter closed form
    omits the within-window atomic noise, so its floor is lower).
    """
    nbins = int(round(duration / dt))
    mu, nu = mu_nu
    s2 = (mu - nu) ** 2
    eps_sq = loss.epsilon_sq
    times = np.arange(nbins) * dt
    if gamma_profile is None:
        gam = np.full(nbins, loss.gamma)
    else:
        gam = np.asarray([gamma_profile(t) for t in times], dtype=float)
    e2 = np.exp(-2.0 * gam * dt)
    e1 = np.exp(-gam * dt)
    kt = np.sqrt((1.0 - eps_sq) * (1.0 - e2)) / (mu - nu)
    a2 = eps_sq * (1.0 - e2)

    idx, w = mode.weights(dt, nbins)
    weights = np.zeros(nbins)
    weights[idx] = w

    var_u, var_y, cov = float(initial_var), 0.0, 0.0
    for n in range(nbins):
        wn = weights[n]
        # y += wn * s_n with s_n = e1 w + kt u + a g
        var_y += wn**2 * (e1[n] ** 2 + kt[n] ** 2 * var_u + a2[n]) \
            + 2.0 * wn * kt[n] * cov
        # u' = e1 u - s2 kt w + a f; cov(u', y') with y' = y + wn s_n
        cov = e1[n] * cov + wn * (e1[n] * kt[n] * var_u
                                  - s2 * kt[n] * e1[n])
        var_u = e1[n] ** 2 * var_u + s2**2 * kt[n] ** 2 + a2[n]
    if apply_detection and loss.eta < 1.0:
        # per-bin detection: s -> sqrt(eta) s + sqrt(1-eta) vac, and the
        # mode weights are unit-norm, so the vacuum admixture adds 1 - eta
        var_y = loss.eta * var_y + (1.0 - loss.eta)
    return float(var_y)


def discrete_calibration(loss: LossParams, mu_nu: tuple, dt: float,
                         duration: float, mode: ModeFunctional,
                         gamma_profile=None) -> tuple:
    """(slope, floor) of var(y) = slope * var_atomic_in + floor.

    Exact affine calibration of the discrete record model for the given
    mode, detection loss included; inverting with these constants recovers
    the atomic variance at the start of the record without bias.
    """
    floor = exact_mode_variance(loss, mu_nu, dt, duration, mode,
                                initial_var=0.0,
                                gamma_profile=gamma_profile)
    at_one = exact_mode_variance(loss, mu_nu, dt, duration, mode,
                                 initial_var=1.0,
                                 gamma_profile=gamma_profile)
    return at_one - floor, floor


# --- CSV round trip ---------------------------------------------------------


def record_to_csv(record: LightRecord, stream=None) -> str:
    own = stream is None
    out = io.StringIO() if own else stream
    out.write("dt_ms,omega,seed,sx_norm\n")
    out.write(f"{record.dt!r},{record.omega!r},{record.seed},"
              f"{record.sx_norm!r}\n")
    out.write("t_ms,s2_cos,s2_sin\n")
    for n in range(record.nbins):
        t = n * record.dt
        out.write(f"{t!r},{float(record.samples[n, 0])!r},"
                  f"{float(record.samples[n, 1])!r}\n")
    return out.getvalue() if own else ""


def record_from_csv(text: str) -> LightRecord:
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    if len(lines) < 3 or lines[0] != "dt_ms,omega,seed,sx_norm":
        raise ValueError("not a light-record CSV")
    dt_s, omega_s, seed_s, sx_s = lines[1].split(",")
    if lines[2] != "t_ms,s2_cos,s2_sin":
        raise ValueError("missing sample column header")
    rows = [ln.split(",") for ln in lines[3:]]
    samples = np.array([[float(c), float(s)] for _, c, s in rows])
    return LightRecord(dt=float(dt_s), samples=samples, omega=float(omega_s),
                       seed=int(seed_s), sx_norm=float(sx_s))


# --- Carrier-level cross-check path -----------------------------------------


def generate_carrier_signal(x_disp: float, p_disp: float, omega: float,
                            dt: float, duration: float) -> np.ndarray:
    """Deterministic S2 carrier trace for a static quadrature displacement."""
    t = np.arange(int(round(duration / dt))) * dt
    return x_disp * np.cos(omega * t) + p_disp * np.sin(omega * t)


def lock_in_demodulate(signal: np.ndarray, omega: float, dt: float,
                       bin_len: int) -> np.ndarray:
    """Ideal lock-in: multiply by 2cos/2sin and boxcar-average per bin.

    Returns an (nbins, 2) baseband array comparable to LightRecord samples
    (up to the white-noise normalisation, which this demo path ignores).
    """
    n = signal.size - signal.size % bin_len
    t = np.arange(n) * dt
    c = 2.0 * signal[:n] * np.cos(omega * t)
    s = 2.0 * signal[:n] * np.sin(omega * t)
    c = c.reshape(-1, bin_len).mean(axis=1)
    s = s.reshape(-1, bin_len).mean(axis=1)
    return np.stack([c, s], axis=1)
