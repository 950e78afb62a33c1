import math
import tracemalloc
import warnings

import numpy as np
import pytest

from eprsim import records
from eprsim.errors import NoInformationError, StatisticsError
from eprsim.light_readout import LossParams, apply_io_lossy
from eprsim.records import (
    MAX_BINS,
    MAX_GAIN_POINTS,
    MAX_TRIAL_BINS,
    TRIAL_BLOCK,
    ModeFunctional,
    RecordBatch,
    check_gain_scan,
    conditional_variance,
    discrete_calibration,
    exact_mode_variance,
    hybrid_readout,
    integrate_mode_batch,
    optimize_gain,
    simulate_batch,
)

MU_NU = (1.45, 1.05)
VACUUM = LossParams(gamma_s=0.0, gamma_extra=0.0)
LOSSY = LossParams(gamma_s=0.19, gamma_extra=0.08)
LOSSLESS = LossParams(gamma_s=0.27, gamma_extra=0.0)


def vacuum_batch(trials=10_000, duration=5.0, dt=0.1, seed=0):
    return simulate_batch(trials, duration, dt, VACUUM, MU_NU, seed)


class TestModeFunctional:
    @pytest.mark.parametrize("phase", ["cos", "sin"])
    @pytest.mark.parametrize("rate,direction", [
        (0.27, "falling"), (0.83, "rising"), (0.0, "falling")])
    def test_unit_vacuum_variance(self, phase, rate, direction):
        batch = vacuum_batch()
        mode = ModeFunctional(phase=phase, exponent_rate=rate,
                              direction=direction, window=(0.0, 5.0))
        y = integrate_mode_batch(batch, mode)
        se = math.sqrt(2.0 / (len(y) - 1))
        assert np.var(y, ddof=1) == pytest.approx(1.0, abs=3 * se)

    def test_weights_unit_norm(self):
        mode = ModeFunctional(phase="cos", exponent_rate=0.5,
                              direction="rising", window=(1.0, 4.0))
        _, w = mode.weights(0.05, 200)
        assert np.sum(w**2) == pytest.approx(1.0, abs=1e-12)

    def test_flat_mode_is_windowed_average(self):
        batch = vacuum_batch(trials=4)
        flat = ModeFunctional(phase="cos", exponent_rate=0.0,
                              direction="falling", window=(0.0, 5.0))
        y = integrate_mode_batch(batch, flat)
        n = batch.nbins
        ref = batch.samples[:, :, 0].sum(axis=1) / math.sqrt(n)
        np.testing.assert_allclose(y, ref, atol=1e-12)

    def test_zero_record_integrates_to_zero(self):
        rec = RecordBatch(dt=0.1, samples=np.zeros((1, 50, 2)),
                          master_seed=0)
        mode = ModeFunctional(phase="sin", exponent_rate=0.27,
                              direction="falling", window=(0.0, 5.0))
        assert integrate_mode_batch(rec, mode)[0] == 0.0
        # a hand-built batch keeps no initial draws to re-target
        with pytest.raises(ValueError, match="initial draws"):
            rec.retarget((4.0, 4.0))

    def test_window_overflow(self):
        rec = RecordBatch(dt=0.1, samples=np.zeros((1, 10, 2)),
                          master_seed=0)
        mode = ModeFunctional(phase="cos", exponent_rate=0.1,
                              direction="falling", window=(0.0, 5.0))
        with pytest.raises(ValueError):
            integrate_mode_batch(rec, mode)

    def test_invalid_shape_params(self):
        with pytest.raises(ValueError):
            ModeFunctional(phase="tan", exponent_rate=0.1,
                           direction="falling", window=(0.0, 1.0))
        with pytest.raises(ValueError):
            ModeFunctional(phase="cos", exponent_rate=0.1,
                           direction="falling", window=(1.0, 1.0))


    def test_overflowing_envelope_rejected(self):
        # rate x window length overflows: the weights would be NaN
        for rate in (1e307, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ModeFunctional(phase="cos", exponent_rate=rate,
                               direction="rising", window=(0.0, 20.0))


class TestSynthesisMoments:
    def test_lossless_matches_closed_form(self):
        # MC mode-integral variance vs the input-output prediction
        for v0 in (1.0, 0.16):
            batch = simulate_batch(20_000, 5.0, 0.05, LOSSLESS, MU_NU, 3,
                                   initial_var=(v0, v0))
            mode = ModeFunctional(phase="cos", exponent_rate=LOSSLESS.gamma,
                                  direction="falling", window=(0.0, 5.0))
            y = integrate_mode_batch(batch, mode)
            snap = apply_io_lossy((v0, v0), LOSSLESS, MU_NU, 5.0)
            se = snap.y_out[0] * math.sqrt(2.0 / (len(y) - 1))
            assert np.var(y, ddof=1) == pytest.approx(snap.y_out[0],
                                                      abs=3 * se)

    def test_steady_state_squeezes_light(self):
        # entangled atoms push the readout mode below its CSS level
        css = simulate_batch(20_000, 5.0, 0.05, LOSSLESS, MU_NU, 5,
                             initial_var=(1.0, 1.0))
        sq = simulate_batch(20_000, 5.0, 0.05, LOSSLESS, MU_NU, 6,
                            initial_var=(0.16, 0.16))
        mode = ModeFunctional(phase="cos", exponent_rate=LOSSLESS.gamma,
                              direction="falling", window=(0.0, 5.0))
        v_css = np.var(integrate_mode_batch(css, mode), ddof=1)
        v_sq = np.var(integrate_mode_batch(sq, mode), ddof=1)
        snap_css = apply_io_lossy((1.0, 1.0), LOSSLESS, MU_NU, 5.0)
        snap_sq = apply_io_lossy((0.16, 0.16), LOSSLESS, MU_NU, 5.0)
        assert v_sq < v_css
        assert v_sq / v_css == pytest.approx(
            snap_sq.y_out[0] / snap_css.y_out[0], rel=0.05)

    def test_exact_propagator_matches_monte_carlo(self):
        mode = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                              direction="falling", window=(0.0, 5.0))
        batch = simulate_batch(40_000, 5.0, 0.05, LOSSY, MU_NU, 7,
                               initial_var=(0.7, 0.7))
        ex = exact_mode_variance(LOSSY, MU_NU, 0.05, 5.0, mode,
                                 initial_var=0.7)
        y = integrate_mode_batch(batch, mode)
        se = ex * math.sqrt(2.0 / (len(y) - 1))
        assert np.var(y, ddof=1) == pytest.approx(ex, abs=3 * se)

    def test_exact_propagator_lossless_closed_form(self):
        mode = ModeFunctional(phase="cos", exponent_rate=LOSSLESS.gamma,
                              direction="falling", window=(0.0, 5.0))
        for v0 in (1.0, 0.16, 4.0):
            ex = exact_mode_variance(LOSSLESS, MU_NU, 0.05, 5.0, mode,
                                     initial_var=v0)
            snap = apply_io_lossy((v0, v0), LOSSLESS, MU_NU, 5.0)
            assert ex == pytest.approx(snap.y_out[0], rel=1e-6)

    def test_calibration_slope_equals_kappa_sq(self):
        mode = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                              direction="falling", window=(0.0, 5.0))
        slope, floor = discrete_calibration(LOSSY, MU_NU, 0.05, 5.0, mode)
        snap = apply_io_lossy((1.0, 1.0), LOSSY, MU_NU, 5.0)
        assert slope == pytest.approx(snap.kappa_sq, rel=1e-6)
        assert floor > 0.0

    def test_phase_exchange_symmetry(self):
        # cos and sin statistics are exchangeable (rotating-frame symmetry)
        batch = simulate_batch(20_000, 5.0, 0.1, LOSSY, MU_NU, 9)
        mc = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                            direction="falling", window=(0.0, 5.0))
        ms = ModeFunctional(phase="sin", exponent_rate=LOSSY.gamma,
                            direction="falling", window=(0.0, 5.0))
        vc = np.var(integrate_mode_batch(batch, mc), ddof=1)
        vs = np.var(integrate_mode_batch(batch, ms), ddof=1)
        se = vc * math.sqrt(2.0 / batch.n_trials)
        assert vc == pytest.approx(vs, abs=6 * se)

    def test_aliasing_guard(self):
        with pytest.raises(ValueError, match="aliasing"):
            simulate_batch(2, 50.0, 5.0, LOSSY, MU_NU, 0)

    @pytest.mark.parametrize("trials, checked", [
        (4, range(4)),
        # across the sampler's first block boundary
        (TRIAL_BLOCK + 2, range(TRIAL_BLOCK - 1, TRIAL_BLOCK + 2)),
    ], ids=["one-block", "block-boundary"])
    def test_seed_splitting_rule(self, trials, checked):
        # trial i of a batch is the one-trial batch drawn with master ^ i
        batch = simulate_batch(trials, 1.0, 0.1, LOSSY, MU_NU, 12,
                               initial_var=(0.5, 2.0))
        for i in checked:
            single = simulate_batch(1, 1.0, 0.1, LOSSY, MU_NU, 12 ^ i,
                                    initial_var=(0.5, 2.0))
            np.testing.assert_array_equal(batch.samples[i],
                                          single.samples[0])

    def test_determinism(self):
        a = simulate_batch(8, 2.0, 0.1, LOSSY, MU_NU, 21)
        b = simulate_batch(8, 2.0, 0.1, LOSSY, MU_NU, 21)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_sampler_memory_bounded(self):
        # the noise, one normal per bin and channel, is held one block of
        # trials at a time (2 MB), so the peak stays within 1.25 times the
        # 40 MB of records; noise for the whole batch would take 40 MB more
        tracemalloc.start()
        try:
            batch = simulate_batch(10_000, 25.0, 0.1, LOSSY, MU_NU, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.samples.nbytes == 40_000_000
        assert peak < 1.25 * batch.samples.nbytes

    @pytest.mark.parametrize("window", [(0.0, 10.0), (10.0, 15.0)],
                             ids=["feed-from-0", "readout-mid-record"])
    @pytest.mark.parametrize("phase", ["cos", "sin"])
    def test_integration_independent_of_layout(self, window, phase):
        # a hand-built C-ordered batch integrates like the sampler's own;
        # the two layouts may sum in another order, so an integral that
        # cancels to near zero differs by rounding of its O(1) terms (atol)
        batch = simulate_batch(300, 15.0, 0.1, LOSSY, MU_NU, 17)
        c_order = RecordBatch(dt=batch.dt, master_seed=batch.master_seed,
                              samples=np.ascontiguousarray(batch.samples))
        mode = ModeFunctional(phase=phase, exponent_rate=0.4,
                              direction="rising", window=window)
        np.testing.assert_allclose(integrate_mode_batch(c_order, mode),
                                   integrate_mode_batch(batch, mode),
                                   rtol=1e-13, atol=1e-13)


def four_noise_covariance(loss, dt, nbins, initial_var):
    """Record covariance of one channel under the physical per-bin update,
    from its linear map over u_0 and the four vacuum normals w, f, g, h of
    every bin:

        s_n = sqrt(eta) (e1 w + kappa_tau u_n + a g) + sqrt(1-eta) h
        u_(n+1) = e1 u_n - s^2 kappa_tau w + a f
    """
    e1 = math.exp(-loss.gamma * dt)
    s = MU_NU[0] - MU_NU[1]
    kt = math.sqrt((1.0 - loss.epsilon_sq) * (1.0 - e1**2)) / s
    a = math.sqrt(loss.epsilon_sq * (1.0 - e1**2))
    eye = np.eye(1 + 4 * nbins)
    u = math.sqrt(initial_var) * eye[0]
    rows = []
    for n in range(nbins):
        w, f, g, h = eye[1 + 4 * n:5 + 4 * n]
        rows.append(math.sqrt(loss.eta) * (e1 * w + kt * u + a * g)
                    + math.sqrt(1.0 - loss.eta) * h)
        u = e1 * u - s**2 * kt * w + a * f
    m = np.array(rows)
    return m @ m.T


class _BasisGenerator:
    """Stands in for trial j's generator: its draws, in order, are row j of
    the identity, so trial j of a batch is column j of the sampler's linear
    map from (z, noise) to the record."""

    def __init__(self, eye, seed):
        self.draws = iter(eye[seed])

    def standard_normal(self, size=None, out=None):
        target = np.empty(size) if out is None else out
        target.flat[:] = [next(self.draws) for _ in range(target.size)]
        return target


class TestExactLaw:
    NBINS = 60
    DT = 0.1

    def sampler_covariance(self, loss, initial_var, monkeypatch):
        # trial j's inputs are the j-th unit vector of (z, (nbins, 2) noise)
        eye = np.eye(2 + 2 * self.NBINS)
        monkeypatch.setattr(records.np.random, "default_rng",
                            lambda seed: _BasisGenerator(eye, seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = simulate_batch(len(eye), self.NBINS * self.DT, self.DT,
                                   loss, MU_NU, 0,
                                   initial_var=(initial_var, initial_var))
        m = batch.samples.reshape(len(eye), -1).T  # rows (bin, channel)
        assert np.all(np.isfinite(m))
        return m @ m.T

    @pytest.mark.parametrize("initial_var", [0.0, 1.0, 4.0])
    @pytest.mark.parametrize("loss", [
        LossParams(gamma_s=0.19, gamma_extra=ge, eta=eta)
        for eta in (1.0, 0.84) for ge in (0.0, 0.08, 0.3)
    ] + [
        LossParams(gamma_s=0.0, gamma_extra=0.0),  # gamma = 0
        LossParams(gamma_s=0.19, gamma_extra=0.08, eta=0.0),
        LossParams(gamma_s=0.0, gamma_extra=0.3, eta=0.84),  # kappa = 0
    ], ids=lambda p: f"gs{p.gamma_s}-ge{p.gamma_extra}-eta{p.eta}")
    def test_covariance_matches_four_noise_update(self, loss, initial_var,
                                                  monkeypatch):
        got = self.sampler_covariance(loss, initial_var, monkeypatch)
        ref = four_noise_covariance(loss, self.DT, self.NBINS, initial_var)
        # channels are independent copies of the one-channel law
        want = np.kron(ref, np.eye(2))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestRetarget:
    @pytest.mark.parametrize("eta", [1.0, 0.84])
    @pytest.mark.parametrize("start, target", [
        ((0.5, 2.0), (2.0, 0.5)),
        ((0.0, 0.0), (0.5, 2.0)),
        ((0.5, 2.0), (0.0, 0.0)),
    ], ids=["unequal", "from-zero", "to-zero"])
    def test_matches_fresh_draw(self, eta, start, target):
        # the same seeds drawn at the target variance, across a block
        # boundary of the sampler
        loss = LossParams(gamma_s=0.19, gamma_extra=0.08, eta=eta)
        batch = simulate_batch(TRIAL_BLOCK + 2, 25.0, 0.1, loss, MU_NU, 12,
                               initial_var=start)
        batch.retarget(target)
        fresh = simulate_batch(TRIAL_BLOCK + 2, 25.0, 0.1, loss, MU_NU, 12,
                               initial_var=target)
        np.testing.assert_allclose(batch.samples, fresh.samples,
                                   rtol=0.0, atol=1e-12)

    def test_memory_bounded(self):
        # bin by bin: no (trials, nbins) temporary
        batch = simulate_batch(4000, 10.0, 0.1, LOSSY, MU_NU, 3)
        tracemalloc.start()
        try:
            batch.retarget((4.0, 4.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batch.samples.nbytes / 10


class TestConditionalVariance:
    READ = ModeFunctional(phase="cos", exponent_rate=0.27,
                          direction="falling", window=(10.0, 15.0))
    FEED = ModeFunctional(phase="cos", exponent_rate=0.6,
                          direction="rising", window=(0.0, 10.0))

    def batch(self, seed=31, trials=5000):
        return simulate_batch(trials, 15.0, 0.1, LOSSY, MU_NU, seed)

    def test_zero_gain_is_unconditional(self):
        b = self.batch()
        cv = conditional_variance(b, self.READ, self.FEED, 0.0)
        y = integrate_mode_batch(b, self.READ)
        assert cv == pytest.approx(np.var(y, ddof=1))

    def test_closed_form_gain_beats_brute_scan(self):
        b = self.batch()
        y_read = integrate_mode_batch(b, self.READ)
        y_feed = integrate_mode_batch(b, self.FEED)
        alpha_star = float(np.cov(y_read, y_feed, ddof=1)[0, 1]
                           / np.var(y_feed, ddof=1))
        cv_star = conditional_variance(b, self.READ, self.FEED, alpha_star)
        for alpha in np.arange(-2.0, 2.0, 1e-3):
            assert cv_star <= conditional_variance(
                b, self.READ, self.FEED, alpha) + 1e-12

    def test_uncorrelated_windows_prefer_zero_gain(self):
        b = vacuum_batch(trials=20_000, duration=15.0)
        y_read = integrate_mode_batch(b, self.READ)
        y_feed = integrate_mode_batch(b, self.FEED)
        alpha_star = float(np.cov(y_read, y_feed, ddof=1)[0, 1]
                           / np.var(y_feed, ddof=1))
        assert abs(alpha_star) < 3.0 / math.sqrt(b.n_trials)

    def test_overlapping_windows_rejected(self):
        b = self.batch(trials=10)
        bad = ModeFunctional(phase="cos", exponent_rate=0.6,
                             direction="rising", window=(0.0, 12.0))
        with pytest.raises(ValueError, match="disjoint"):
            conditional_variance(b, self.READ, bad, 0.5)

    def test_insufficient_batch(self):
        b = self.batch(trials=1)
        with pytest.raises(StatisticsError):
            conditional_variance(b, self.READ, self.FEED, 0.0)

    def test_optimize_gain_contract(self):
        b = self.batch()
        grid = np.arange(0.2, 1.2, 0.1)
        alpha, gm, best = optimize_gain(b, self.READ, grid)
        # returned minimum beats every scanned (alpha, gamma_m) node
        for g in grid:
            mode = ModeFunctional(phase="cos", exponent_rate=g,
                                  direction="rising", window=(0.0, 10.0))
            for a in np.arange(-1.0, 1.0, 0.05):
                assert best <= conditional_variance(b, self.READ, mode, a) \
                    + 1e-12

    def test_optimize_gain_single_node(self):
        b = self.batch()
        alpha, gm, best = optimize_gain(b, self.READ, [0.6])
        assert gm == 0.6
        assert best == pytest.approx(
            conditional_variance(b, self.READ, self.FEED, alpha))

    @pytest.mark.parametrize("chunk", [records.GAIN_CHUNK, 15_000],
                             ids=["one-product", "chunked"])
    def test_optimize_gain_matches_point_loop(self, chunk, monkeypatch):
        # one feed mode and one variance per point, as the scan did before
        # it was batched; the sums differ only in order (rel 1e-12)
        monkeypatch.setattr(records, "GAIN_CHUNK", chunk)
        b = self.batch()
        grid = np.arange(0.2, 1.2, 0.05)
        y_read = integrate_mode_batch(b, self.READ)
        ref = None
        for g in grid:
            mode = ModeFunctional(phase="cos", exponent_rate=g,
                                  direction="rising", window=(0.0, 10.0))
            y_feed = integrate_mode_batch(b, mode)
            alpha = float(np.cov(y_read, y_feed, ddof=1)[0, 1]
                          / np.var(y_feed, ddof=1))
            v = float(np.var(y_read - alpha * y_feed, ddof=1))
            if ref is None or v < ref[2]:
                ref = (alpha, float(g), v)
        alpha, gm, best = optimize_gain(b, self.READ, grid)
        assert gm == ref[1]
        assert alpha == pytest.approx(ref[0], rel=1e-12)
        assert best == pytest.approx(ref[2], rel=1e-12)

    def test_degenerate_feed_mode(self):
        # an empty feed record carries no information at any point
        samples = np.zeros((20, 150, 2))
        samples[:, 100:, 0] = np.arange(20.0)[:, None]
        rec = RecordBatch(dt=0.1, samples=samples, master_seed=0)
        with pytest.raises(NoInformationError):
            optimize_gain(rec, self.READ, [0.3, 0.6])

    @pytest.mark.parametrize("grid", [[0.5, -0.1], [0.5, math.nan]])
    def test_bad_rates_rejected(self, grid):
        with pytest.raises(ValueError, match="exponent rate"):
            optimize_gain(self.batch(trials=10), self.READ, grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimize_gain(self.batch(trials=10), self.READ, [])


class TestHybridReadout:
    READ = TestConditionalVariance.READ
    GRID = np.arange(0.2, 1.2, 0.1)

    def test_matches_scan_and_conditional_variance(self):
        b = simulate_batch(3000, 15.0, 0.1, LOSSY, MU_NU, 41)
        r = hybrid_readout(b, self.READ.window, self.READ.exponent_rate,
                           self.GRID)
        alpha, gm, cv_cos = optimize_gain(b, self.READ, self.GRID)
        read_sin = ModeFunctional(phase="sin", exponent_rate=0.27,
                                  direction="falling", window=(10.0, 15.0))
        feed_sin = ModeFunctional(phase="sin", exponent_rate=gm,
                                  direction="rising", window=(0.0, 10.0))
        assert (r.alpha_star, r.gamma_m_star) == (alpha, gm)
        assert r.conditional == (
            cv_cos, conditional_variance(b, read_sin, feed_sin, alpha))
        assert r.unconditional == tuple(
            float(np.var(integrate_mode_batch(b, m), ddof=1))
            for m in (self.READ, read_sin))

    def test_without_grid_is_unconditional_only(self):
        b = simulate_batch(50, 5.0, 0.1, LOSSY, MU_NU, 2)
        r = hybrid_readout(b, (0.0, 5.0), 0.27)
        assert r.conditional is r.alpha_star is r.gamma_m_star is None
        assert len(r.unconditional) == 2

    def test_scan_size_capped_before_integration(self):
        # MAX_TRIAL_BINS one-bin trials (a zero-copy view) and two grid
        # points: integrating them would fail on the window, so the cap
        # must trip first
        b = RecordBatch(dt=0.1, master_seed=0, samples=np.broadcast_to(
            0.0, (MAX_TRIAL_BINS, 1, 2)))
        with pytest.raises(ValueError, match="gamma_m points"):
            optimize_gain(b, self.READ, [0.5, 0.6])

    def test_scan_work_capped(self):
        # conditional's defaults and fig2d at MAX_TRIAL_BINS pass; a long
        # feed record scanned finely does not, even over two trials, whose
        # feed-mode envelopes alone take seconds
        check_gain_scan(2000, 141, 200.0)
        check_gain_scan(MAX_TRIAL_BINS // 250, 29, 200.0)
        for trials in (100, 2):
            with pytest.raises(ValueError, match="feed bins"):
                check_gain_scan(trials, 9334, 19_950.0)

    def test_scan_points_capped_before_integration(self):
        # a one-bin record cannot hold the readout window, so integrating
        # would fail on the window: the points cap must trip first
        b = RecordBatch(dt=0.1, master_seed=0, samples=np.zeros((2, 1, 2)))
        with pytest.raises(ValueError, match="gamma_m points"):
            optimize_gain(b, self.READ,
                          np.linspace(0.1, 1.5, MAX_GAIN_POINTS + 1))

    def test_bins_per_batch_capped(self):
        with pytest.raises(ValueError, match="bins per batch"):
            simulate_batch(1, (MAX_BINS + 1) * 1e-3, 1e-3, LOSSY, MU_NU, 0)
        assert simulate_batch(1, MAX_BINS * 1e-3, 1e-3, LOSSY, MU_NU,
                              0).nbins == MAX_BINS
