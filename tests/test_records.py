import hashlib
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from eprsim import records
from eprsim.cli import main
from eprsim.errors import (
    InvariantViolationError,
    NoInformationError,
    StatisticsError,
)
from eprsim.light_readout import (
    LossParams,
    closed_form_calibration,
    readout_kappa_sq,
    require_information,
)
from eprsim.records import (
    MAX_BINS,
    MAX_GAIN_POINTS,
    MAX_READOUT_TRIALS,
    MAX_TRIAL_BINS,
    TRIAL_BLOCK,
    ModeFunctional,
    RecordBatch,
    conditional_variance,
    discrete_calibration,
    hybrid_readout,
    integrate_mode_batch,
    optimize_gain,
    simulate_batch,
)
from eprsim.scenarios import _F2D_GRID, inclusive_range

MU_NU = (1.45, 1.05)
VACUUM = LossParams(gamma_s=0.0, gamma_extra=0.0)
LOSSY = LossParams(gamma_s=0.19, gamma_extra=0.08)
LOSSLESS = LossParams(gamma_s=0.27, gamma_extra=0.0)


def _closed_form_variance(v0, loss, T):
    """Readout-mode variance slope * v0 + floor of the closed-form map."""
    slope, floor = closed_form_calibration(
        readout_kappa_sq(loss, MU_NU, T), MU_NU, loss.eta)
    return slope * v0 + floor


def vacuum_batch(trials=10_000, duration=5.0, dt=0.1, seed=0):
    return simulate_batch(trials, duration, dt, VACUUM, MU_NU, seed)


def reference_batch(trials, duration, dt, loss, master,
                    initial_var=(1.0, 1.0)):
    """The sampler with one ``default_rng(master ^ i)`` per trial i, each
    drawing its two initial normals z, then its (nbins, 2) noise:
    (samples (trials, nbins, 2), z (trials, 2))."""
    e1, H, gain, innov_sd, _ = records._record_law(loss, MU_NU, duration,
                                                    dt, trials)
    noise = np.empty((trials, gain.size, 2))
    z = np.empty((trials, 2))
    for i in range(trials):
        rng = np.random.default_rng((master ^ i) & (2**64 - 1))
        z[i] = rng.standard_normal(2)
        rng.standard_normal(out=noise[i])
    out = noise.transpose(2, 1, 0) * innov_sd[:, None]
    x = z.T * np.sqrt(np.asarray(initial_var, dtype=float))[:, None]
    for n in range(gain.size):
        step = gain[n] * out[:, n]
        out[:, n] += H * x
        x = e1 * x + step
    return out.transpose(2, 1, 0), z


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

    def test_window_overflow(self):
        rec = RecordBatch(dt=0.1, samples=np.zeros((1, 10, 2)),
                          master_seed=0)
        mode = ModeFunctional(phase="cos", exponent_rate=0.1,
                              direction="falling", window=(0.0, 5.0))
        with pytest.raises(ValueError):
            integrate_mode_batch(rec, mode)

    @pytest.mark.parametrize("rates", [
        [0.4, 2.0, 1e3], [-0.4, -2.0, -1e3], [0.0, -0.0], [-1.5, 0.0, 1.5],
    ], ids=["rising", "falling", "zero", "mixed"])
    def test_envelopes_match_max_formula(self, rates):
        # the maximum taken from one end is the same bits as max()
        times = (np.arange(250) + 0.5) * 0.1
        for rate in rates:
            mode = ModeFunctional(phase="cos", exponent_rate=abs(rate),
                                  direction="rising" if math.copysign(
                                      1.0, rate) > 0 else "falling",
                                  window=(1.0, 21.0))
            bins, w = mode.weights(0.1, 250)
            arg = (times[bins] - 1.0) * rate
            raw = np.exp(arg - arg.max())
            assert w.tobytes() == (raw / np.sqrt(np.sum(raw**2))).tobytes()

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
            ex = _closed_form_variance(v0, LOSSLESS, 5.0)
            se = ex * math.sqrt(2.0 / (len(y) - 1))
            assert np.var(y, ddof=1) == pytest.approx(ex, abs=3 * se)

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
        assert v_sq < v_css
        assert v_sq / v_css == pytest.approx(
            _closed_form_variance(0.16, LOSSLESS, 5.0)
            / _closed_form_variance(1.0, LOSSLESS, 5.0), rel=0.05)

    def test_exact_propagator_matches_monte_carlo(self):
        mode = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                              direction="falling", window=(0.0, 5.0))
        batch = simulate_batch(40_000, 5.0, 0.05, LOSSY, MU_NU, 7,
                               initial_var=(0.7, 0.7))
        slope, floor = discrete_calibration(LOSSY, MU_NU, 0.05, 5.0, mode)
        ex = slope * 0.7 + floor
        y = integrate_mode_batch(batch, mode)
        se = ex * math.sqrt(2.0 / (len(y) - 1))
        assert np.var(y, ddof=1) == pytest.approx(ex, abs=3 * se)

    def test_exact_propagator_lossless_closed_form(self):
        mode = ModeFunctional(phase="cos", exponent_rate=LOSSLESS.gamma,
                              direction="falling", window=(0.0, 5.0))
        slope, floor = discrete_calibration(LOSSLESS, MU_NU, 0.05, 5.0, mode)
        for v0 in (1.0, 0.16, 4.0):
            ex = slope * v0 + floor
            assert ex == pytest.approx(
                _closed_form_variance(v0, LOSSLESS, 5.0), rel=1e-6)

    def test_calibration_slope_equals_kappa_sq(self):
        mode = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                              direction="falling", window=(0.0, 5.0))
        slope, floor = discrete_calibration(LOSSY, MU_NU, 0.05, 5.0, mode)
        assert slope == pytest.approx(readout_kappa_sq(LOSSY, MU_NU, 5.0),
                                      rel=1e-6)
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

    @pytest.mark.parametrize("trials, seed", [
        (40, 0), (40, 2**32 - 1), (40, 2**32), (40, 2**63 + 12345),
        (40, 2**64 - 1), (TRIAL_BLOCK + 2, 2**40 + 5),
    ])
    def test_streams_pinned_to_numpy(self, trials, seed):
        # every record and initial draw is the per-trial default_rng's
        batch = simulate_batch(trials, 3.0, 0.1, LOSSY, MU_NU, seed,
                               initial_var=(0.5, 2.0))
        samples, z = reference_batch(trials, 3.0, 0.1, LOSSY, seed,
                                     initial_var=(0.5, 2.0))
        assert batch.samples.tobytes() == samples.tobytes()
        # row 0 of every block holds its trials' initial normals
        drawn = np.concatenate([block[:, 0].copy() for _, block in
                                records._draw_blocks(trials, batch.nbins,
                                                     seed)])
        assert drawn.tobytes() == z.tobytes()

    def test_seed_words_are_numpys(self):
        seeds = np.random.default_rng(3).integers(
            0, 2**64, size=1000, dtype=np.uint64, endpoint=False)
        want = [np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                for s in seeds]
        np.testing.assert_array_equal(records._seed_words(seeds), want)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_out_of_range_rejected(self, seed):
        # not masked to 64 bits: that would repeat another seed's trials
        with pytest.raises(ValueError, match="outside"):
            simulate_batch(2, 1.0, 0.1, LOSSY, MU_NU, seed)

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


M64 = 2**64 - 1
# seed-word rows (initstate high, low, initseq high, low): all zeros, all
# ones, a carry out of the low word in inc + initstate, one in the final
# + inc, and one where initseq's top low bit shifts into inc's high word
HAND_ROWS = [(0, 0, 0, 0), (M64, M64, M64, M64), (0, 1, 0, 2**63 - 1),
             (0, 0, 0, 2**63 - 1), (5, 7, 0, 2**64 - 1)]


def ziggurat_tables():
    """records' ziggurat tables, read back if not yet."""
    streams = records._Streams()
    streams.rows(np.zeros(1, np.uint64))
    return streams.ziggurat()


def lockstep_columns(zig, trials):
    """Most normals per trial for which _draw_normals takes the lockstep
    pass at ``trials`` trials (records._lockstep_pays)."""
    columns = 0
    while records._lockstep_pays(trials, columns + 1, zig.miss):
        columns += 1
    return columns


def memory_rows(streams, states):
    """State rows (state, inc) as Python ints in ``streams``' memory order,
    as _Streams.rows gives them."""
    words = np.array([[s >> 64, s & M64, i >> 64, i & M64]
                      for s, i in states], dtype=np.uint64)
    return memoryview(np.ascontiguousarray(words[:, streams._order])).cast("B")


def numpy_from_state(state, inc):
    """NumPy's own PCG64 Generator set to (state, inc) through the public
    state setter."""
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def routed_rows(monkeypatch):
    """The 32-byte state rows that any _Streams draws through its per-trial
    loop from now on."""
    rows, draw = [], records._Streams.draw

    def counted(self, block_rows, out):
        rows.extend(bytes(block_rows[k:k + 32])
                    for k in range(0, len(block_rows), 32))
        return draw(self, block_rows, out)
    monkeypatch.setattr(records._Streams, "draw", counted)
    return rows


def certified(zig, outputs):
    """Whether each uint64 output is on the certified fast path."""
    outputs = np.asarray(outputs, dtype=np.uint64)
    rabs = outputs >> np.uint64(9) & np.uint64(2**52 - 1)
    return rabs < zig.bound[(outputs & np.uint64(0x1FF)).astype(np.intp)]


class TestInPlaceStreams:
    SEEDS = np.concatenate([
        np.random.default_rng(17).integers(0, 2**64, size=1000,
                                           dtype=np.uint64, endpoint=False),
        np.array([0, 1, 2**63, 2**64 - 1, 2**64 - 2], dtype=np.uint64)])
    # one block and seven trials more, seeds that differ in high bits
    BLOCK_SEEDS = (np.arange(records.MODE_BLOCK + 7, dtype=np.uint64)
                   * np.uint64(0x9E3779B97F4A7C15)) << np.uint64(20)

    # None: one normal per trial more than lockstep_columns
    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (251, 2), (4, 2),
                                       None])
    def test_normals_are_default_rngs(self, shape, monkeypatch):
        zig = ziggurat_tables()
        routed = routed_rows(monkeypatch)
        for seeds in (self.SEEDS, self.BLOCK_SEEDS):
            columns = lockstep_columns(zig, len(seeds))
            trial = shape or (columns + 1, 1)
            lockstep = math.prod(trial) <= columns
            routed.clear()
            out = np.empty((len(seeds), *trial))
            records._draw_normals(seeds, out)
            want = np.stack([np.random.default_rng(int(s)).standard_normal(
                trial) for s in seeds])
            assert out.tobytes() == want.tobytes()
            # the per-trial loop takes the trials off the certified path,
            # or all of them past the rule
            if lockstep:
                assert 0 < len(routed) < len(seeds) / 2
            else:
                assert len(routed) == len(seeds)

    def test_fast_path_edges(self, monkeypatch):
        # forged states whose first output is each layer's last certified
        # magnitude and the next one, of both signs: the latter, and layer
        # 1 (NumPy's ki is 0 there), go to the per-trial loop; layer 0 has
        # no ratio bound and is certified by bisection
        zig = ziggurat_tables()
        bound = zig.bound[:256].tolist()
        assert bound[1] == 0 and all(bound[:1] + bound[2:])
        assert 0.9 * 2**52 < bound[0] < 2**52
        assert zig.bound[256:].tolist() == bound
        inc = 0xDA3E39CB94B95BDB_5851F42D4C957F2D | 1
        cases = []  # (first output, sent to the loop)
        for layer, b in enumerate(bound):
            edges = [(b - 1, False)] if b else [(0, True)]
            edges += [(b, True)] if b < 2**52 else []
            cases += [(layer | sign << 8 | rabs << 9, loop)
                      for rabs, loop in edges for sign in (0, 1)]
        states = [(records._pcg_preimage(r, inc), inc) for r, _ in cases]
        for (r, _), (state, _) in zip(cases, states):
            assert numpy_from_state(state, inc).bit_generator.random_raw() \
                == r
        streams = records._Streams()
        streams.rows(self.SEEDS[:1])
        rows = memory_rows(streams, states)
        routed = routed_rows(monkeypatch)
        out = np.empty((len(cases), 1, 1))
        records._draw_normals(None, out, streams, rows)
        want = [numpy_from_state(*s).standard_normal((1, 1)) for s in states]
        assert out.tobytes() == np.stack(want).tobytes()
        assert set(routed) == {bytes(rows[32 * k:32 * k + 32])
                               for k, (_, loop) in enumerate(cases) if loop}
        assert any(np.signbit(out[k]) for k, (r, loop) in enumerate(cases)
                   if r & 0x100 and not loop)

    def test_only_last_column_missed(self, monkeypatch):
        # 8 normals per trial whose eighth output alone is off the
        # certified path (layer 1, then just past layer 7's bound), and one
        # whose eighth is the last certified magnitude: the first two go
        # to the per-trial loop
        zig = ziggurat_tables()
        b7 = int(zig.bound[7])
        lasts = [(1 | 5 << 9, True), (7 | b7 << 9, True),
                 (7 | 1 << 8 | b7 - 1 << 9, False)]
        states = []
        for last, loop in lasts:
            for inc in range(1, 2**20, 2):
                state = last
                for _ in range(8):
                    state = records._pcg_preimage(state, inc)
                raw = numpy_from_state(state, inc).bit_generator.random_raw(8)
                if certified(zig, raw[:7]).all():
                    break
            assert raw[7] == last
            assert certified(zig, raw).tolist() == [True] * 7 + [not loop]
            states.append((state, inc))
        streams = records._Streams()
        streams.rows(self.SEEDS[:1])
        rows = memory_rows(streams, states)
        routed = routed_rows(monkeypatch)
        # three trials alone would go to the loop by cost
        monkeypatch.setattr(records, "_lockstep_pays", lambda *args: True)
        out = np.empty((len(states), 4, 2))
        records._draw_normals(None, out, streams, rows)
        want = [numpy_from_state(*s).standard_normal((4, 2)) for s in states]
        assert out.tobytes() == np.stack(want).tobytes()
        assert routed == [bytes(rows[:32]), bytes(rows[32:64])]

    @pytest.mark.parametrize("fault", ["layer", "probe"])
    def test_refused_tables_send_trials_to_loop(self, fault, monkeypatch):
        # a layer whose bound query fails is not certified; tables that
        # pass their queries (every normal read back doubled) but not the
        # probe certify nothing: either way the draws stay NumPy's, and
        # every trial with such a draw goes to the per-trial loop
        layer, query = 100, records._Streams.query

        def faulty(self, r, inc):
            value, once = query(self, r, inc)
            if fault == "probe":
                return 2.0 * value, once
            return value, once and not (r & 0xFF == layer and r >> 9 != 1)
        monkeypatch.setattr(records, "_ZIGGURAT", None)
        monkeypatch.setattr(records._Streams, "query", faulty)
        seeds, shape = self.SEEDS, (4, 2)
        streams = records._Streams()
        rows = streams.rows(seeds)
        zig = streams.ziggurat()
        routed = routed_rows(monkeypatch)
        out = np.empty((len(seeds), *shape))
        records._draw_normals(seeds, out, streams, rows)
        want = np.stack([np.random.default_rng(int(s)).standard_normal(
            shape) for s in seeds])
        assert out.tobytes() == want.tobytes()
        raw = np.stack([np.random.default_rng(int(s)).bit_generator
                        .random_raw(8) for s in seeds])
        if fault == "layer":
            assert zig.bound[[layer, layer + 256]].tolist() == [0, 0]
            assert zig.bound[[layer - 1, layer + 1]].all()
            hit = ((raw & np.uint64(0xFF)) == layer).any(axis=1)
        else:
            assert not zig.bound.any() and zig.miss == 1.0
            hit = np.ones(len(seeds), bool)
        assert hit.sum() > 10
        assert set(routed) >= {bytes(rows[32 * k:32 * k + 32])
                               for k in np.flatnonzero(hit)}

    @pytest.mark.parametrize("fail_from, bound", [(0, 0), (2**40, 2**40)],
                             ids=["at-zero", "mid-range"])
    def test_bisection_bound_is_first_failed_query(self, fail_from, bound,
                                                   monkeypatch):
        # layer 0 has no ratio bound, so only the bisection certifies it:
        # its bound is the first magnitude whose query fails, and a query
        # that fails at magnitude 0 (every one of the layer's but wi's own
        # at magnitude 1) leaves it at bound 0; the draws stay NumPy's and
        # trials with a layer-0 draw past the bound go to the per-trial loop
        query = records._Streams.query

        def faulty(self, r, inc):
            value, once = query(self, r, inc)
            rabs = r >> 9
            return value, once and not (r & 0xFF == 0 and rabs != 1
                                        and rabs >= fail_from)
        monkeypatch.setattr(records, "_ZIGGURAT", None)
        monkeypatch.setattr(records._Streams, "query", faulty)
        seeds, shape = self.SEEDS, (4, 2)
        streams = records._Streams()
        rows = streams.rows(seeds)
        zig = streams.ziggurat()
        assert zig.bound[[0, 256]].tolist() == [bound, bound]
        assert zig.bound[2:256].all() and zig.bound[1] == 0
        routed = routed_rows(monkeypatch)
        out = np.empty((len(seeds), *shape))
        records._draw_normals(seeds, out, streams, rows)
        want = np.stack([np.random.default_rng(int(s)).standard_normal(
            shape) for s in seeds])
        assert out.tobytes() == want.tobytes()
        raw = np.stack([np.random.default_rng(int(s)).bit_generator
                        .random_raw(8) for s in seeds])
        hit = (((raw & np.uint64(0xFF)) == 0)
               & (raw >> np.uint64(9) & np.uint64(2**52 - 1)
                  >= np.uint64(bound))).any(axis=1)
        assert hit.sum() > 10
        assert set(routed) >= {bytes(rows[32 * k:32 * k + 32])
                               for k in np.flatnonzero(hit)}

    @pytest.mark.parametrize("trials, columns, lockstep", [
        (512, 18, False), (64, 4, False), (4096, 8, True)])
    def test_lockstep_rule_compares_costs(self, trials, columns, lockstep):
        # TRIAL_BLOCK trials of 8 bins, a 64-trial readout and a full
        # block of fig2d's readout
        zig = ziggurat_tables()
        assert records._lockstep_pays(trials, columns, zig.miss) == lockstep

    def test_tables_unread_where_lockstep_cannot_pay(self, monkeypatch):
        # 64 trials of 4 normals go to the loop even if no draw missed, so
        # the tables are not read for them
        monkeypatch.setattr(records, "_ZIGGURAT", None)
        monkeypatch.setattr(records._Streams, "ziggurat", _not_called)
        assert not records._lockstep_pays(64, 4, 0.0)
        seeds = self.SEEDS[:64]
        out = np.empty((len(seeds), 2, 2))
        records._draw_normals(seeds, out)
        want = np.stack([np.random.default_rng(int(s)).standard_normal(
            (2, 2)) for s in seeds])
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lockstep", [True, False],
                             ids=["lockstep", "loop"])
    def test_any_out_layout(self, lockstep, monkeypatch):
        # a trial-minor block draws the bytes of a C-contiguous one on
        # both branches
        monkeypatch.setattr(records, "_lockstep_pays",
                            lambda *args: lockstep)
        seeds = self.BLOCK_SEEDS
        c_order = np.empty((len(seeds), 4, 2))
        minor = np.empty((4, 2, len(seeds))).transpose(2, 0, 1)
        for out in (c_order, minor):
            records._draw_normals(seeds, out)
        assert not minor.flags.c_contiguous
        assert np.ascontiguousarray(minor).tobytes() == c_order.tobytes()

    def test_block_without_a_miss(self, monkeypatch):
        # lockstep over trials whose draws are all certified: none is
        # redrawn
        monkeypatch.setattr(records, "_lockstep_pays", lambda *args: True)
        zig = ziggurat_tables()
        seeds = [s for s in self.SEEDS if certified(
            zig, np.random.default_rng(int(s)).bit_generator.random_raw(4))
            .all()][:3]
        routed = routed_rows(monkeypatch)
        out = np.empty((len(seeds), 2, 2))
        records._draw_normals(np.array(seeds, np.uint64), out)
        want = np.stack([np.random.default_rng(int(s)).standard_normal(
            (2, 2)) for s in seeds])
        assert len(seeds) == 3 and not routed
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nbins", [2, 4, 8, 16, 20, 250])
    def test_simulate_batch_same_on_either_branch(self, nbins, monkeypatch):
        # the records of two blocks, the last one short, with lockstep
        # forced and with the loop forced
        records_bytes = []
        for lockstep in (True, False):
            monkeypatch.setattr(records, "_lockstep_pays",
                                lambda *args, v=lockstep: v)
            records_bytes.append(simulate_batch(
                TRIAL_BLOCK + 37, nbins * 0.1, 0.1, LOSSY, MU_NU,
                2**63 + 5).samples.tobytes())
        assert records_bytes[0] == records_bytes[1]

    def test_vectorised_seeding_is_python_ints(self):
        def carries(row):  # out of the low word in inc + initstate, + inc
            s_hi, s_lo, i_hi, i_lo = row
            inc = ((i_hi << 64 | i_lo) << 1 | 1) % 2**128
            prod = (inc + (s_hi << 64 | s_lo)) * records._PCG_MULT
            return ((inc & M64) + s_lo > M64,
                    (prod & M64) + (inc & M64) > M64)
        assert carries(HAND_ROWS[2])[0] and carries(HAND_ROWS[3])[1]
        rows = np.vstack([
            np.array(HAND_ROWS, dtype=np.uint64),
            records._seed_words(self.SEEDS)])
        for row, words in zip(rows, records._pcg_states(rows).tolist()):
            state, inc = records._pcg_state(row)
            assert words == [state >> 64, state & M64, inc >> 64, inc & M64]

    def test_pcg_state_is_numpys(self):
        for s in self.SEEDS[-5:]:
            want = np.random.PCG64(int(s)).state["state"]
            words = np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
            assert records._pcg_state(words) == (want["state"], want["inc"])

    def test_no_state_between_calls(self):
        # two samplers advanced alternately draw what each draws alone
        trials, nbins = 2 * TRIAL_BLOCK + 7, 3
        seeds = (5, 2**63 + 9)
        alone = [[block.copy() for _, block in
                  records._draw_blocks(trials, nbins, s)] for s in seeds]
        mixed = [[], []]
        for a, b in zip(*(records._draw_blocks(trials, nbins, s)
                          for s in seeds)):
            mixed[0].append(a[1].copy())
            mixed[1].append(b[1].copy())
        for got, want in zip(mixed, alone):
            assert b"".join(x.tobytes() for x in got) == \
                b"".join(x.tobytes() for x in want)

    @pytest.mark.parametrize("found, expected, order", [
        ((11, 10, 13, 12), (10, 11, 12, 13), [1, 0, 3, 2]),  # native
        ((10, 11, 12, 13), (10, 11, 12, 13), [0, 1, 2, 3]),  # emulated
    ], ids=["native", "emulated"])
    def test_word_order(self, found, expected, order):
        assert records._word_order(found, expected) == order

    @pytest.mark.parametrize("found, expected", [
        ((10, 11, 12, 14), (10, 11, 12, 13)),  # a word not seeded
        ((10, 10, 12, 13), (10, 11, 12, 13)),  # one seeded word twice
        ((10, 10, 12, 13), (10, 10, 12, 13)),  # order not determined
        ((10, 11, 12), (10, 11, 12, 13)),
    ], ids=["foreign", "repeated", "ambiguous", "short"])
    def test_word_order_refuses_non_permutations(self, found, expected):
        with pytest.raises(InvariantViolationError, match="permutation"):
            records._word_order(found, expected)

    def test_seeding_checked_before_any_write(self, monkeypatch):
        # vectorised seeding that disagrees with the Python-int formula is
        # refused by the read-back, before a trial's words are written
        real = records._pcg_states
        monkeypatch.setattr(records, "_pcg_states",
                            lambda words: real(words) ^ np.uint64(1 << 40))
        out = np.full((4, 2, 2), np.nan)
        with pytest.raises(InvariantViolationError):
            records._draw_normals(self.SEEDS[:4], out)
        assert np.isnan(out).all()


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


class TestExactLaw:
    NBINS = 60
    DT = 0.1

    def sampler_covariance(self, loss, initial_var, monkeypatch):
        # trial j's draws, in order, are row j of the identity, so trial j
        # of the batch is column j of the sampler's linear map from
        # (z, (nbins, 2) noise) to the record
        eye = np.eye(2 + 2 * self.NBINS)

        def basis_draws(seeds, out, *streams):
            out.reshape(len(seeds), -1)[:] = eye[seeds]
        monkeypatch.setattr(records, "_draw_normals", basis_draws)
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


# TestExactLaw's loss cases: eta 1 and 0.84 at three extra decays, gamma = 0,
# eta = 0 and kappa = 0
LAW_LOSSES = [
    LossParams(gamma_s=0.19, gamma_extra=ge, eta=eta)
    for eta in (1.0, 0.84) for ge in (0.0, 0.08, 0.3)
] + [
    LossParams(gamma_s=0.0, gamma_extra=0.0),
    LossParams(gamma_s=0.19, gamma_extra=0.08, eta=0.0),
    LossParams(gamma_s=0.0, gamma_extra=0.3, eta=0.84),
]


def exact_pair_covariance(loss, dt, read, gamma_m, initial_var):
    """(Sigma_rr, Sigma_rf, Sigma_ff) of ``read`` and the rising feed mode
    at ``gamma_m`` before it, from the dense four-noise covariance."""
    nbins = int(round(read.window[1] / dt))
    feed = ModeFunctional(phase=read.phase, exponent_rate=gamma_m,
                          direction="rising", window=(0.0, read.window[0]))
    w = np.zeros((2, nbins))
    for row, mode in zip(w, (read, feed)):
        bins, wm = mode.weights(dt, nbins)
        row[bins] = wm
    cov = w @ four_noise_covariance(loss, dt, nbins, initial_var) @ w.T
    return cov[0, 0], cov[0, 1], cov[1, 1]


class TestCalibration:
    NBINS = TestExactLaw.NBINS
    DT = TestExactLaw.DT

    @pytest.mark.parametrize("initial_var", [0.0, 1.0, 4.0])
    @pytest.mark.parametrize("mode", [
        ModeFunctional(phase="cos", exponent_rate=0.27, direction="falling",
                       window=(4.0, 6.0)),
        ModeFunctional(phase="sin", exponent_rate=0.6, direction="rising",
                       window=(0.0, 4.0)),
    ], ids=["readout", "feed"])
    @pytest.mark.parametrize("loss", LAW_LOSSES, ids=lambda p: (
        f"gs{p.gamma_s}-ge{p.gamma_extra}-eta{p.eta}"))
    def test_matches_four_noise_update(self, loss, mode, initial_var):
        # slope v + floor is w^T Sigma w under the physical update
        bins, w = mode.weights(self.DT, self.NBINS)
        weights = np.zeros(self.NBINS)
        weights[bins] = w
        sigma = four_noise_covariance(loss, self.DT, self.NBINS, initial_var)
        slope, floor = discrete_calibration(loss, MU_NU, self.DT,
                                            self.NBINS * self.DT, mode)
        assert slope * initial_var + floor == pytest.approx(
            weights @ sigma @ weights, rel=0.0, abs=1e-12)

    def test_slope_of_a_late_window(self):
        # the initial value reaches the (20, 25) ms window damped by
        # exp(-gamma 20 ms) ~ 6e-5: the slope is eta kappa_tau^2 (w . e1^n)^2
        # to rounding, with no cancellation against the floor
        loss = LossParams(gamma_s=0.19, gamma_extra=0.3, eta=0.84)
        dt, nbins = 0.05, 500
        mode = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                              direction="falling", window=(20.0, 25.0))
        bins, w = mode.weights(dt, nbins)
        e1 = math.exp(-loss.gamma * dt)
        kt_sq = ((1.0 - loss.epsilon_sq) * (1.0 - e1**2)
                 / (MU_NU[0] - MU_NU[1]) ** 2)
        want = loss.eta * kt_sq * float(
            w @ e1 ** np.arange(bins.start, bins.stop)) ** 2
        slope, _ = discrete_calibration(loss, MU_NU, dt, nbins * dt, mode)
        assert slope == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_window_past_the_record_rejected(self):
        # the integrator refuses this mode, so a calibration of it would
        # describe a shorter, renormalised mode
        mode = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                              direction="falling", window=(4.0, 10.0))
        with pytest.raises(ValueError, match="record span"):
            discrete_calibration(LOSSY, MU_NU, 0.1, 5.0, mode)

    @pytest.mark.parametrize("dt, duration, match", [
        (0.1, math.inf, "finite"),
        (math.nan, 5.0, "finite"),
        (5e-5, 5.0, "bins per batch"),
        (1.0, 5.0, "aliasing"),
    ], ids=["inf-duration", "nan-dt", "too-many-bins", "aliasing"])
    def test_refuses_what_the_sampler_refuses(self, dt, duration, match):
        mode = ModeFunctional(phase="cos", exponent_rate=LOSSLESS.gamma,
                              direction="falling", window=(0.0, 5.0))
        for call in (lambda: simulate_batch(1, duration, dt, LOSSLESS,
                                            MU_NU, 0),
                     lambda: discrete_calibration(LOSSLESS, MU_NU, dt,
                                                  duration, mode)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=match):
                call()
            assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("loss", LAW_LOSSES[-2:],
                             ids=["eta-zero", "kappa-zero"])
    def test_no_information_returned_then_refused(self, loss):
        # the calibration is the record's law even without information (a
        # zero slope); fig2d refuses it through require_information
        mode = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                              direction="falling", window=(0.0, 5.0))
        slope, floor = discrete_calibration(loss, MU_NU, self.DT, 5.0, mode)
        assert slope == 0.0
        assert floor == pytest.approx(1.0, rel=0.0, abs=1e-12)
        with pytest.raises(NoInformationError, match="no atomic"):
            require_information(slope, floor)


def loop_law(loss, duration, dt):
    """The record law with its Riccati recursion stepped bin by bin from
    P_0 = 0: the referee of the closed form, (e1, H, K_n, sqrt(S_n),
    r_n = H e1^n) as ``records._record_law``."""
    mu, nu = MU_NU
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
    nbins = int(round(duration / dt))
    innov_sd, gain = np.empty(nbins), np.empty(nbins)
    P = 0.0
    for n in range(nbins):
        S = H**2 * P + R
        K = (e1 * P * H + C) / S
        gain[n], innov_sd[n] = K, math.sqrt(S)
        P = max(0.0, e1**2 * P + Q - K**2 * S)
    return e1, H, gain, innov_sd, H * e1 ** np.arange(nbins)


def loop_mode_coefficients(law, weights):
    """(C, rho) of ``records._mode_coefficients`` from its backward pass
    b_(m-1) = H w_m + e1 b_m, bin by bin; each mode's rho is one dot
    product with its own contiguous weights."""
    e1, H, gain, innov_sd, response = law
    b = np.zeros_like(weights)
    for m in range(len(weights) - 1, 0, -1):
        b[m - 1] = H * weights[m] + e1 * b[m]
    n = len(weights)
    return (innov_sd[:n, None] * (weights + gain[:n, None] * b),
            np.array([response[:n] @ np.ascontiguousarray(weights[:, k])
                      for k in range(weights.shape[1])]))


def loop_feed_sums(law, dt, c_read, nfeed, grid):
    """``records._feed_sums`` from one backward pass over the feed bins,
    one grid-long vector per quantity."""
    e1, H, gain, innov_sd, response = law
    decay = np.exp(-grid * dt)
    u, b = np.ones(grid.size), np.zeros(grid.size)
    s_rf, s_ff, norm, rho = (np.zeros(grid.size) for _ in range(4))
    for m in range(nfeed - 1, -1, -1):
        c = innov_sd[m] * (u + gain[m] * b)
        s_rf += c_read[m] * c
        s_ff += c * c
        norm += u * u
        rho += response[m] * u
        b = H * u + e1 * b
        u = u * decay
    scale = 1.0 / np.sqrt(norm)
    return s_rf * scale, s_ff * scale**2, rho * scale


def assert_close_at_scale(got, want, rtol=1e-12):
    """|got - want| within ``rtol`` of want's largest magnitude: relative
    to each value, a sum that crosses zero would fail on its rounding."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * np.max(
        np.abs(want), initial=0.0)


# the closed forms' cases: gamma_extra x eta at two bin widths, a maximal
# record at dt gamma = MAX_DT_GAMMA, and no decay at all (e1 = 1)
LOOP_CASES = [
    (LossParams(gamma_s=0.19, gamma_extra=ge, eta=eta), dt, 25.0)
    for ge in (0.0, 0.08, 0.3) for eta in (1.0, 0.84, 0.5, 0.0)
    for dt in (0.1, 0.01)
] + [
    (LossParams(gamma_s=1.7, gamma_extra=0.3, eta=0.84), 0.1,
     MAX_BINS * 0.1),
    (VACUUM, 0.1, 25.0),
]


def _loop_case_id(case):
    loss, dt, duration = case
    return (f"gs{loss.gamma_s}-ge{loss.gamma_extra}-eta{loss.eta}-dt{dt}"
            f"-{int(round(duration / dt))}bins")


class TestClosedFormsMatchLoops:
    """The record law, the mode coefficients and the gamma_m scan in closed
    form against the bin-by-bin loops they replace."""

    @pytest.mark.parametrize("case", LOOP_CASES, ids=_loop_case_id)
    def test_record_law(self, case):
        loss, dt, duration = case
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = records._record_law(loss, MU_NU, duration, dt)
        want = loop_law(loss, duration, dt)
        assert got[:2] == want[:2]
        for g, w in zip(got[2:], want[2:]):
            assert_close_at_scale(g, w)
        # S_n >= R = S_0, so P_n = (S_n - R) / H^2 >= 0
        assert np.all(got[3] >= got[3][0])

    @pytest.mark.parametrize("case", LOOP_CASES, ids=_loop_case_id)
    def test_mode_coefficients(self, case):
        # a readout and a feed mode, and weights of changing sign
        loss, dt, duration = case
        law = records._record_law(loss, MU_NU, duration, dt)
        nbins = law[2].size
        weights = np.column_stack([
            records._mode_weights([
                ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                               direction="falling",
                               window=(duration - 5.0, duration)),
                ModeFunctional(phase="cos", exponent_rate=0.6,
                               direction="rising",
                               window=(0.0, duration - 5.0))], dt, nbins),
            np.random.default_rng(nbins).standard_normal(nbins)])
        coeff, rho = records._mode_coefficients(law, weights)
        want_coeff, want_rho = loop_mode_coefficients(law, weights)
        for k in range(weights.shape[1]):
            assert_close_at_scale(coeff[:, k], want_coeff[:, k])
        assert rho.tobytes() == want_rho.tobytes()

    @pytest.mark.parametrize("case", LOOP_CASES, ids=_loop_case_id)
    def test_gain_scan(self, case):
        # the scan's sums per point, and its pick, with a point at exactly
        # gamma_m = gamma
        loss, dt, duration = case
        law = records._record_law(loss, MU_NU, duration, dt)
        read = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                              direction="falling",
                              window=(duration - 5.0, duration))
        grid = np.append(inclusive_range(0.2, 1.2, 0.1 if
                                         law[2].size > 5000 else 0.05),
                         loss.gamma)
        coeff, rho = records._mode_coefficients(
            law, records._mode_weights([read], dt, law[2].size))
        nfeed = int(round((duration - 5.0) / dt))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sums = records._feed_sums(law, dt, coeff[:, 0], nfeed, grid)
        want = loop_feed_sums(law, dt, coeff[:, 0], nfeed, grid)
        for got, ref in zip(sums, want):
            assert_close_at_scale(got, ref)
        pick = records._gain_scan(law, dt, read, grid, coeff[:, 0],
                                  float(rho[0]))
        s_rf, s_ff, rho_f = want
        for v in (0.0, 1.0, 4.0):
            sigma_rf = rho[0] * rho_f * v + s_rf
            alpha = sigma_rf / (rho_f**2 * v + s_ff)
            cond = rho[0]**2 * v + coeff[:, 0] @ coeff[:, 0] - alpha * sigma_rf
            k = int(np.argmin(cond))
            a, gm, best = pick(v)
            assert gm == grid[k]
            assert a == pytest.approx(alpha[k], rel=1e-12, abs=1e-15)
            assert best == pytest.approx(cond[k], rel=1e-12)

    def test_first_of_tied_points_wins(self):
        # gamma_m* = gamma (at 1.05 ms^-1 before a 5 ms readout) three
        # times, in two chunks of points, among worse points: the tied
        # sums are the same bits, so the first of them wins
        loss, dt = LossParams(gamma_s=0.97, gamma_extra=0.08, eta=0.84), 0.1
        law = records._record_law(loss, MU_NU, 25.0, dt)
        read = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                              direction="falling", window=(20.0, 25.0))
        coeff, rho = records._mode_coefficients(
            law, records._mode_weights([read], dt, law[2].size))
        step = records.SCAN_CHUNK // 200  # points per chunk at 200 bins
        ties = [3, step - 1, step + 4]
        grid = np.linspace(3.0, 4.0, 2 * step)
        grid[ties] = loss.gamma
        sums = records._feed_sums(law, dt, coeff[:, 0], 200, grid)
        for x in sums:
            assert x[ties[0]] == x[ties[1]] == x[ties[2]]
        a, gm, best = records._gain_scan(law, dt, read, grid, coeff[:, 0],
                                         float(rho[0]))(1.0)
        s_rf, s_ff, rho_f = sums
        sigma_rf = rho[0] * rho_f + s_rf
        cond = (rho[0]**2 + coeff[:, 0] @ coeff[:, 0]
                - sigma_rf**2 / (rho_f**2 + s_ff))
        assert int(np.argmin(cond)) == ties[0] and gm == loss.gamma


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
        # the returned minimum is the exact conditional variance at its
        # pair and beats every scanned (alpha, gamma_m) node
        grid = np.arange(0.2, 1.2, 0.1)
        alpha, gm, best = optimize_gain(LOSSY, MU_NU, 0.1, self.READ,
                                        gamma_m_grid=grid)
        for g in grid:
            s_rr, s_rf, s_ff = exact_pair_covariance(LOSSY, 0.1, self.READ,
                                                     g, 1.0)
            if g == gm:
                assert best == pytest.approx(
                    s_rr - 2 * alpha * s_rf + alpha**2 * s_ff, rel=1e-12)
            for a in np.arange(-1.0, 1.0, 0.05):
                assert best <= s_rr - 2 * a * s_rf + a**2 * s_ff + 1e-12

    def test_optimize_gain_single_node(self):
        alpha, gm, best = optimize_gain(LOSSY, MU_NU, 0.1, self.READ,
                                        gamma_m_grid=[0.6])
        assert gm == 0.6
        s_rr, s_rf, s_ff = exact_pair_covariance(LOSSY, 0.1, self.READ, 0.6,
                                                 1.0)
        assert alpha == pytest.approx(s_rf / s_ff, rel=1e-12)
        assert best == pytest.approx(s_rr - s_rf**2 / s_ff, rel=1e-12)

    @pytest.mark.parametrize("initial_var", [0.0, 1.0, 4.0])
    @pytest.mark.parametrize("loss", LAW_LOSSES, ids=lambda p: (
        f"gs{p.gamma_s}-ge{p.gamma_extra}-eta{p.eta}"))
    def test_optimize_gain_matches_point_loop(self, loss, initial_var):
        # one feed mode and one dense w^T Sigma w per point under the
        # four-noise update; the first of equal points wins
        grid = np.arange(0.2, 1.2, 0.05)
        ref = None
        for g in grid:
            s_rr, s_rf, s_ff = exact_pair_covariance(loss, 0.1, self.READ, g,
                                                     initial_var)
            v = s_rr - s_rf**2 / s_ff
            if ref is None or v < ref[2] - 1e-12:
                ref = (s_rf / s_ff, float(g), v)
        alpha, gm, best = optimize_gain(loss, MU_NU, 0.1, self.READ,
                                        gamma_m_grid=grid,
                                        initial_var=initial_var)
        assert gm == ref[1]
        assert alpha == pytest.approx(ref[0], rel=1e-12, abs=1e-15)
        assert best == pytest.approx(ref[2], rel=1e-12)

    def test_degenerate_feed_mode(self):
        # without coupling (kappa = 0) the feed record carries no atomic
        # information: zero gain, the first point, the unconditional value
        loss = LossParams(gamma_s=0.0, gamma_extra=0.3, eta=0.84)
        alpha, gm, best = optimize_gain(loss, MU_NU, 0.1, self.READ,
                                        gamma_m_grid=[0.3, 0.6])
        slope, floor = discrete_calibration(loss, MU_NU, 0.1, 15.0,
                                            self.READ)
        assert (alpha, gm) == (0.0, 0.3)
        assert best == pytest.approx(slope + floor, rel=1e-12)

    @pytest.mark.parametrize("grid", [[0.5, -0.1], [0.5, math.nan]])
    def test_bad_rates_rejected(self, grid):
        with pytest.raises(ValueError, match="exponent rate"):
            optimize_gain(LOSSY, MU_NU, 0.1, self.READ, gamma_m_grid=grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            optimize_gain(LOSSY, MU_NU, 0.1, self.READ, gamma_m_grid=[])


def _no_draws(*args):
    raise AssertionError("records drawn")


def _not_called(*args, **kwargs):
    raise AssertionError("called")


def einsum_columns(draws, r, rho, pairs, initial_vars, out):
    """records._readout_columns as one einsum and one np.stack: the
    referee of its fixed-order products and preallocated columns."""
    y = np.einsum("tmc,mk->tkc", draws[:, 1:], r)
    z = draws[:, 0]
    cols = []
    for j, v in enumerate(initial_vars):
        u0 = math.sqrt(v) * z
        read_y = y[:, 0] + rho[0] * u0
        cols.append(read_y)
        if pairs:
            cols.append(read_y - pairs[j][0] * (y[:, j + 1]
                                                + rho[j + 1] * u0))
    return np.stack(cols, axis=1)


def artifact_digests(runs, out):
    """sha256 of every artifact that the CLI ``runs`` write under ``out``."""
    for k, argv in enumerate(runs):
        assert main([*argv, "--out", str(out / str(k))]) == 0
    return {f.relative_to(out): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*.*"))}


class TestReadoutColumns:
    @pytest.mark.parametrize("n", [1, 2, records.MODE_BLOCK,
                                   records.MODE_BLOCK + 7])
    @pytest.mark.parametrize("k_modes", [1, 2, 3])
    def test_products_are_einsums(self, k_modes, n):
        # triangular R with zeros above the diagonal too, at scales from
        # 1e-300 to 1e300, and draws with signed zeros, for which a sum
        # that does not start from zero would keep a -0
        # (one feed mode per initial variance, as hybrid_readout has)
        rng = np.random.default_rng(100 * k_modes + n)
        initial_vars = (0.0, 4.0)[:k_modes - 1] or (0.0, 1.0, 4.0)
        for scale in (1e-300, 1.0, 1e300):
            r = np.triu(rng.standard_normal((k_modes, k_modes))) * scale
            r[0, k_modes - 1] = 0.0
            rho = rng.standard_normal(k_modes)
            pairs = [(float(a), 0.5) for a in
                     rng.standard_normal(k_modes - 1)]
            draws = np.empty((k_modes + 1, 2, n)).transpose(2, 0, 1)
            draws[...] = rng.standard_normal(draws.shape)
            draws[::3, 1:] = -0.0
            draws[1::5, 1:] = 0.0
            cols = len(initial_vars) * (1 + bool(pairs))
            got = records._readout_columns(draws, r, rho, pairs,
                                           initial_vars,
                                           np.empty((n, cols, 2)))
            want = einsum_columns(draws, r, rho, pairs, initial_vars, None)
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous

    def test_artifacts_unchanged(self, monkeypatch, tmp_path):
        # fig2d over two blocks, conditional and reconstruct write the
        # same bytes as under the einsum/stack referee
        runs = [["scenario", "fig2d", "--trials",
                 str(records.MODE_BLOCK + 904), "--seed", "5"],
                ["conditional", "--trials", "700", "--seed", "3145728"],
                ["reconstruct", "--trials", "300", "--seed", "9"]]
        new = artifact_digests(runs, tmp_path / "new")
        monkeypatch.setattr(records, "_readout_columns", einsum_columns)
        assert artifact_digests(runs, tmp_path / "einsum") == new


class TestHybridReadout:
    READ = TestConditionalVariance.READ
    GRID = np.arange(0.2, 1.2, 0.1)

    @pytest.mark.parametrize("initial_vars", [(1.0, 4.0), (1.0, 1.0)],
                             ids=["fig2d", "duplicate-feeds"])
    def test_mode_factor_keeps_the_gram(self, initial_vars):
        # R^T R = C^T C for the readout and both feed modes at fig2d's
        # settings, where both branches pick gamma_m* = 0.6; equal initial
        # variances make the feed columns equal bit for bit
        law = records._record_law(LOSSY, MU_NU, 25.0, 0.1)
        read = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                              direction="falling", window=(20.0, 25.0))
        r, rho, pairs = records._readout_modes(law, 0.1, read, _F2D_GRID,
                                               initial_vars)
        assert [round(gm, 2) for _, gm in pairs] == [0.6, 0.6]
        feeds = [ModeFunctional(phase="cos", exponent_rate=gm,
                                direction="rising", window=(0.0, 20.0))
                 for _, gm in pairs]
        coeff, want_rho = records._mode_coefficients(
            law, records._mode_weights([read, *feeds], 0.1, law[2].size))
        assert r.shape == (3, 3) and np.all(np.tril(r, -1) == 0.0)
        assert_close_at_scale(r.T @ r, coeff.T @ coeff)
        assert rho.tobytes() == want_rho.tobytes()

    def test_rho_independent_of_mode_count(self):
        # the readout and five feed modes at fig2d's settings: the first K
        # of them, K = 1 .. 6, give each mode's rho alone, bit for bit
        law = records._record_law(LOSSY, MU_NU, 25.0, 0.1)
        modes = [ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                                direction="falling", window=(20.0, 25.0))]
        modes += [ModeFunctional(phase="cos", exponent_rate=gm,
                                 direction="rising", window=(0.0, 20.0))
                  for gm in (0.1, 0.35, 0.6, 0.97, 1.5)]
        weights = records._mode_weights(modes, 0.1, law[2].size)
        alone = np.concatenate([
            records._mode_coefficients(law, weights[:, [k]])[1]
            for k in range(len(modes))])
        for k in range(1, len(modes) + 1):
            _, rho = records._mode_coefficients(law, weights[:, :k])
            assert rho.tobytes() == alone[:k].tobytes()

    @pytest.mark.parametrize("initial_var", [1.0, 4.0])
    @pytest.mark.parametrize("loss", [
        LossParams(gamma_s=0.19, gamma_extra=ge, eta=eta)
        for ge in (0.0, 0.08, 0.3) for eta in (1.0, 0.84, 0.5, 0.0)
    ], ids=lambda p: f"ge{p.gamma_extra}-eta{p.eta}")
    def test_variances_match_record_path(self, loss, initial_var):
        # the mode-space variances and the record path's (simulate_batch,
        # integrate_mode_batch) are draws of the same law: each lies within
        # 5 SE of the exact variance, and they agree within 5 SE of their
        # difference (the two share each trial's z)
        trials, seed = 4000, 7 << 20
        r, = hybrid_readout(trials, loss, MU_NU, 0.1, self.READ.window, seed,
                            initial_vars=(initial_var,),
                            gamma_m_grid=self.GRID)
        read = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                              direction="falling", window=(10.0, 15.0))
        alpha, gm, exact_cond = optimize_gain(
            loss, MU_NU, 0.1, read, gamma_m_grid=self.GRID,
            initial_var=initial_var)
        assert (r.alpha_star, r.gamma_m_star) == (alpha, gm)
        slope, floor = discrete_calibration(loss, MU_NU, 0.1, 15.0, read)
        b = simulate_batch(trials, 15.0, 0.1, loss, MU_NU, seed,
                           initial_var=(initial_var, initial_var))
        y = {(rate, ph): integrate_mode_batch(b, ModeFunctional(
            phase=ph, exponent_rate=rate, direction=d, window=w))
             for rate, d, w in ((loss.gamma, "falling", (10.0, 15.0)),
                                (gm, "rising", (0.0, 10.0)))
             for ph in ("cos", "sin")}
        for ph, k in (("cos", 0), ("sin", 1)):
            read_y = y[loss.gamma, ph]
            for got, want, exact in (
                    (r.unconditional[k], np.var(read_y, ddof=1),
                     slope * initial_var + floor),
                    (r.conditional[k],
                     np.var(read_y - alpha * y[gm, ph], ddof=1),
                     exact_cond)):
                se = exact * math.sqrt(2.0 / (trials - 1))
                assert abs(got - exact) < 5 * se
                assert abs(want - exact) < 5 * se
                assert abs(got - want) < 5 * math.sqrt(2.0) * se

    @pytest.mark.parametrize("window, grid", [((0.0, 5.0), None),
                                              ((10.0, 15.0), GRID)],
                             ids=["reconstruct", "conditional"])
    def test_large_batch_within_error_of_exact(self, window, grid):
        # 40 000 trials put 5 SE at 3.5 % of each variance: on a window
        # from t = 0, where the initial variance makes most of the readout's
        # at v = 4, a tenth too much or too little of it moves the value out
        trials = 40_000
        read = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                              direction="falling", window=window)
        readouts = hybrid_readout(trials, LOSSY, MU_NU, 0.1, window,
                                  11 << 20, initial_vars=(0.0, 1.0, 4.0),
                                  gamma_m_grid=grid)
        slope, floor = discrete_calibration(LOSSY, MU_NU, 0.1, window[1],
                                            read)
        for v, r in zip((0.0, 1.0, 4.0), readouts):
            checks = [(r.unconditional, slope * v + floor)]
            if grid is not None:
                checks.append((r.conditional, optimize_gain(
                    LOSSY, MU_NU, 0.1, read, gamma_m_grid=grid,
                    initial_var=v)[2]))
            for got, exact in checks:
                se = exact * math.sqrt(2.0 / (trials - 1))
                for x in got:
                    assert abs(x - exact) < 5 * se

    @pytest.mark.parametrize("grid", [None, GRID], ids=["no-grid", "grid"])
    def test_repeated_calls_same_bytes(self, grid):
        # over two mode-space blocks, the last one short
        calls = [hybrid_readout(records.MODE_BLOCK + 40, LOSSY, MU_NU, 0.1,
                                self.READ.window, 5 << 20,
                                initial_vars=(1.0, 4.0), gamma_m_grid=grid)
                 for _ in range(2)]
        assert calls[0] == calls[1]

    def test_blocks_merge_to_one_pass(self, monkeypatch):
        # the same trials drawn in blocks of 100 and in one block: trial i
        # draws from master ^ i whatever the block, and the merged moments
        # are the one-pass variances up to rounding
        def readout():
            return hybrid_readout(1050, LOSSY, MU_NU, 0.1, self.READ.window,
                                  9 << 20, initial_vars=(1.0, 4.0),
                                  gamma_m_grid=self.GRID)
        monkeypatch.setattr(records, "MODE_BLOCK", 100)
        blocks = readout()
        monkeypatch.setattr(records, "MODE_BLOCK", 2000)
        one = readout()
        for a, b in zip(blocks, one):
            assert a[2:] == b[2:]
            np.testing.assert_allclose(a.unconditional + a.conditional,
                                       b.unconditional + b.conditional,
                                       rtol=1e-12)

    def test_monte_carlo_within_error_of_exact(self):
        # the conditional variances at the exact pair scatter about the
        # exact value with the standard error of a variance
        trials = 4000
        for v in (1.0, 4.0):
            r, = hybrid_readout(trials, LOSSY, MU_NU, 0.1, (20.0, 25.0),
                                3 << 20, initial_vars=(v,),
                                gamma_m_grid=_F2D_GRID)
            read = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                                  direction="falling", window=(20.0, 25.0))
            *_, exact = optimize_gain(LOSSY, MU_NU, 0.1, read,
                                      gamma_m_grid=_F2D_GRID, initial_var=v)
            se = exact * math.sqrt(2.0 / (trials - 1))
            for cv in r.conditional:
                assert abs(cv - exact) < 5 * se

    @pytest.mark.parametrize("grid, handover, gm, alpha", [
        (_F2D_GRID, 20.0, 0.60, 0.3787),
        (inclusive_range(0.1, 1.5, 0.01), 20.0, 0.58, 0.3765),
    ], ids=["fig2d", "conditional"])
    def test_exact_pairs(self, grid, handover, gm, alpha):
        # fig2d's 29-point and conditional's 141-point scans at their
        # defaults (gamma_s 0.19, gamma_extra 0.08, eta 0.84, 0.1 ms bins)
        loss = LossParams(gamma_s=0.19, gamma_extra=0.08, eta=0.84)
        read = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                              direction="falling",
                              window=(handover, handover + 5.0))
        a, g, _ = optimize_gain(loss, MU_NU, 0.1, read, gamma_m_grid=grid)
        assert round(g, 2) == gm
        assert round(a, 4) == alpha

    def test_without_grid_is_unconditional_only(self):
        r, = hybrid_readout(50, LOSSY, MU_NU, 0.1, (0.0, 5.0), 2)
        assert r.conditional is r.alpha_star is r.gamma_m_star is None
        assert len(r.unconditional) == 2

    @pytest.mark.parametrize("initial_vars", [
        (), (math.nan,), (math.inf,), (1.0, -1.0)],
        ids=["empty", "nan", "inf", "negative"])
    def test_bad_initial_variances_refused_first(self, initial_vars,
                                                 monkeypatch):
        # before the gamma_m scan or any draw
        for name in ("optimize_gain", "_draw_normals"):
            monkeypatch.setattr(records, name, _not_called)
        with pytest.raises(ValueError, match="initial variance"):
            hybrid_readout(2000, LOSSY, MU_NU, 0.1, self.READ.window, 0,
                           initial_vars=initial_vars,
                           gamma_m_grid=self.GRID)

    @pytest.mark.parametrize("initial_var", [math.nan, math.inf, -1.0])
    def test_optimize_gain_refuses_bad_initial_variance(self, initial_var,
                                                        monkeypatch):
        monkeypatch.setattr(records, "_record_law", _not_called)
        with pytest.raises(ValueError, match="initial variance"):
            optimize_gain(LOSSY, MU_NU, 0.1, self.READ,
                          gamma_m_grid=self.GRID, initial_var=initial_var)

    @pytest.mark.parametrize("grid", [None, GRID], ids=["no-grid", "grid"])
    def test_one_trial_has_no_variance(self, grid, monkeypatch):
        # refused before the record law, the gamma_m scan or any draw
        monkeypatch.setattr(records, "_draw_normals", _no_draws)
        for name in ("_record_law", "_gain_scan"):
            monkeypatch.setattr(records, name, _not_called)
        with pytest.raises(StatisticsError):
            hybrid_readout(1, LOSSY, MU_NU, 0.1, self.READ.window, 2,
                           gamma_m_grid=grid)

    @pytest.mark.parametrize("grid", [None, GRID], ids=["no-grid", "grid"])
    def test_trial_cap_counts_trials(self, grid, monkeypatch):
        # the readout draws per mode: its cap is on trials, checked before
        # the record law, the gamma_m scan or any draw, while
        # simulate_batch keeps its cap on trial-bins
        monkeypatch.setattr(records, "_draw_normals", _no_draws)
        for name in ("_record_law", "_gain_scan"):
            monkeypatch.setattr(records, name, _not_called)
        with pytest.raises(ValueError, match="trials per readout"):
            hybrid_readout(MAX_READOUT_TRIALS + 1, LOSSY, MU_NU, 0.1,
                           self.READ.window, 2, gamma_m_grid=grid)
        monkeypatch.undo()
        monkeypatch.setattr(records, "_draw_normals", _no_draws)
        assert MAX_READOUT_TRIALS * 250 > MAX_TRIAL_BINS
        with pytest.raises(ValueError, match="trial-bins"):
            simulate_batch(MAX_TRIAL_BINS // 250 + 1, 25.0, 0.1, LOSSY,
                           MU_NU, 0)

    def test_scan_size_capped_before_integration(self, monkeypatch):
        # a scan over the caps is refused before any draw, whatever the
        # trial count
        monkeypatch.setattr(records, "_draw_normals", _no_draws)
        with pytest.raises(ValueError, match="gamma_m points"):
            hybrid_readout(MAX_TRIAL_BINS // 150, LOSSY, MU_NU, 0.1,
                           self.READ.window, 0,
                           gamma_m_grid=np.linspace(0.1, 1.5, 20_000))

    def test_scan_work_capped(self):
        # conditional's defaults pass; a long feed record scanned finely
        # is refused at once
        read = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                              direction="falling", window=(20.0, 25.0))
        optimize_gain(LOSSY, MU_NU, 0.1, read,
                      gamma_m_grid=inclusive_range(0.1, 1.5, 0.01))
        long_read = ModeFunctional(phase="cos", exponent_rate=LOSSY.gamma,
                                   direction="falling",
                                   window=(1995.0, 2000.0))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="feed bins"):
            optimize_gain(LOSSY, MU_NU, 0.1, long_read,
                          gamma_m_grid=np.linspace(0.1, 1.5, 9334))
        assert time.perf_counter() - start < 0.5

    def test_scan_points_capped_before_integration(self):
        # refused before the record law is built
        with pytest.raises(ValueError, match="gamma_m points"):
            optimize_gain(LOSSY, MU_NU, math.nan, self.READ,
                          gamma_m_grid=np.linspace(0.1, 1.5,
                                                   MAX_GAIN_POINTS + 1))

    def test_bins_per_batch_capped(self):
        with pytest.raises(ValueError, match="bins per batch"):
            simulate_batch(1, (MAX_BINS + 1) * 1e-3, 1e-3, LOSSY, MU_NU, 0)
        assert simulate_batch(1, MAX_BINS * 1e-3, 1e-3, LOSSY, MU_NU,
                              0).nbins == MAX_BINS
