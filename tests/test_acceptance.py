"""End-to-end acceptance gate.

One test per top-level criterion; each prints a single pass/fail line so the
suite doubles as a release checklist (`pytest -s tests/test_acceptance.py`).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import expm

from eprsim.cli import main as cli_main
from eprsim.estimation import (
    CalibrationPoint,
    FitProblem,
    calibrate_pn,
    fit_parameters,
    forward_model,
)
from eprsim.gaussian_dynamics import (
    NoiseChannels,
    propagate_moments,
    relaxation_rate,
)
from eprsim.light_readout import (
    LossParams,
    apply_detection_loss,
    apply_io_lossy,
    reconstruct_atomic_variance,
)
from eprsim.lindblad_oracle import validate_against_oracle
from eprsim.multilevel_rates import (
    PopulationState,
    RateSet,
    polarization_slope,
    propagate_populations,
    rate_matrix,
    sm_variance_drift,
)
from eprsim.records import (
    ModeFunctional,
    conditional_variance,
    integrate_mode_batch,
    simulate_batch,
)
from eprsim.scenarios import run_scenario
from eprsim.spin_model import css_state

from test_spin_model import make_params

MU_NU = (1.45, 1.05)
POP0 = PopulationState(n44=0.99, n43=0.01, nh=0.0)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_steady_state_target():
    with criterion(1, "steady-state witness 0.16"):
        t0 = time.perf_counter()
        params = make_params(d=1000.0, Gamma=0.01)
        traj = propagate_moments(css_state(), params, NoiseChannels(),
                                 np.linspace(0.0, 5.0, 26))
        elapsed = time.perf_counter() - t0
        assert traj.xi[-1] == pytest.approx(0.16, abs=1e-4)
        assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "Gaussian engine vs exact Lindblad"):
        t0 = time.perf_counter()
        params = make_params()
        horizon = 0.1 / (params.d * params.Gamma)
        diff = validate_against_oracle(params, horizon,
                                       NoiseChannels(dephasing=0.0))
        assert diff < 0.05
        diff_deph = validate_against_oracle(make_params(d=0.0), 5.0,
                                            NoiseChannels(dephasing=0.193))
        assert diff_deph < 1e-6
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_round_trip_reconstruction():
    with criterion(3, "readout round trip"):
        t0 = time.perf_counter()
        eta = 0.84
        # deterministic variance-level round trip, exact to 1e-12
        loss_det = LossParams(gamma_s=0.19, gamma_extra=0.08)
        for v in (1.0, 0.16):
            snap = apply_io_lossy((v, v), loss_det, MU_NU, 5.0)
            y = apply_detection_loss(snap.y_out[0], eta)
            rec = reconstruct_atomic_variance(y, snap.kappa_sq, MU_NU,
                                              eta=eta)
            assert rec.value == pytest.approx(v, abs=1e-12)
        # Monte Carlo round trip over simulated records
        loss = LossParams(gamma_s=0.27, gamma_extra=0.0, eta=eta)
        kappa_sq = apply_io_lossy((1.0, 1.0), loss, MU_NU, 5.0).kappa_sq
        mode = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                              direction="falling", window=(0.0, 5.0))
        trials = 10_000
        for v in (1.0, 0.16):
            batch = simulate_batch(trials, 5.0, 0.05, loss, MU_NU, 42,
                                   initial_var=(v, v))
            var_y = float(np.var(integrate_mode_batch(batch, mode), ddof=1))
            rec = reconstruct_atomic_variance(var_y, kappa_sq, MU_NU,
                                              eta=eta)
            se_y = var_y * math.sqrt(2.0 / (trials - 1))
            se_v = se_y / (eta * kappa_sq)
            assert rec.value == pytest.approx(v, abs=3.0 * se_v)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_entanglement_window():
    with criterion(4, "witness dips below unity for 5-30 ms"):
        result = run_scenario("fig2a")
        window = result.report["window"]
        assert window is not None
        assert result.report["xi_min"] < 1.0
        assert 5.0 <= window[2] <= 30.0


def test_criterion_5_pump_extends_window():
    with criterion(5, "pump extends window; dark decay ~2 ms"):
        base = run_scenario("fig2a")
        pumped = run_scenario("fig2c", overrides={"d": 55.0,
                                                  "Gamma_tilde": 0.193})
        w_pump = pumped.report["window_pump"]
        w_nopump = pumped.report["window_no_pump"]
        assert w_pump is not None and w_nopump is not None
        # monotone comparisons only: vs the undriven pump-off run and vs
        # the criterion-4 fixture
        assert w_pump[2] > w_nopump[2]
        assert w_pump[2] > base.report["window"][2]
        # drive off at the witness minimum: decays back above 1 on the
        # published 2 ms scale (tolerance x2 either way)
        t_cross = pumped.report["dark_time_above_unity_ms"]
        assert t_cross is not None
        assert 1.0 <= t_cross <= 4.0


def test_criterion_6_hybrid_steady_state():
    with criterion(6, "measurement-feedback hybrid steady state"):
        t0 = time.perf_counter()
        result = run_scenario("fig2d", seed=1, trials=10_000)
        rep = result.report
        for label in ("css", "anti_squeezed"):
            branch = rep[label]
            assert branch["gamma_m_star"] > rep["gamma_total"]
            assert branch["xi_conditional"] < branch["xi_unconditional"]
        # initial-state independence within combined statistical error
        assert rep["initial_state_gap"] < 3.0 * rep["initial_state_gap_se"]
        assert time.perf_counter() - t0 < 120.0


def test_criterion_7_rate_model_closed_forms():
    with criterion(7, "rate model matches closed forms"):
        rates = RateSet(g34=0.005, g43=0.0042, g_out=0.027, g_in=0.002)
        grid = np.linspace(0.0, 40.0, 9)
        series = propagate_populations(POP0, rates, grid)
        a = rate_matrix(rates)
        n0 = np.array([POP0.n44, POP0.n43, POP0.nh])
        for k, t in enumerate(grid):
            ref = expm(a * t) @ n0
            got = np.array([series.n44[k], series.n43[k], series.nh[k]])
            np.testing.assert_allclose(got, ref, atol=1e-8)
        # slope closed forms vs first-order finite differences
        h = 1e-4
        s = propagate_populations(POP0, rates, np.array([0.0, h, 2 * h]))
        jx = s.jx_frac / s.jx_frac[0]
        fd = (jx[2] - jx[0]) / (2 * h)
        assert polarization_slope(POP0, rates) == pytest.approx(fd, abs=1e-6)
        params = make_params()
        drift0 = sm_variance_drift(POP0, params, rates)
        drift1 = sm_variance_drift(s.states[1], params, rates)
        assert abs(drift1 - drift0) < 1e-4  # slope is first-order accurate


def test_criterion_8_fit_recovery():
    with criterion(8, "parameter fit recovery"):
        truth = make_params()
        free = ("d", "Gamma_col", "Gamma_tilde")
        start = truth.replace(d=40.0, Gamma_col=0.004, Gamma_tilde=0.15)

        # noise-free: 1e-4 relative recovery
        grid_nf = np.linspace(0.0, 30.0, 16)
        xi_nf, jx_nf, _, _ = forward_model(truth, POP0, grid_nf)
        prob = FitProblem(times=grid_nf, xi=xi_nf,
                          xi_err=np.full_like(xi_nf, 0.01),
                          jx_norm=jx_nf, jx_err=np.full_like(jx_nf, 0.005),
                          free=free, fixed=start, initial_pop=POP0)
        res = fit_parameters(prob)
        for name in free:
            assert getattr(res.params, name) == pytest.approx(
                getattr(truth, name), rel=1e-4)

        # 5% multiplicative noise: 10% relative, truth within 3 sigma.
        # The denser grid keeps the weakly coupled d / Gamma_tilde
        # direction identified at this noise level.
        grid = np.linspace(0.0, 40.0, 201)
        xi, jx, _, _ = forward_model(truth, POP0, grid)
        rng = np.random.default_rng(1)
        xi_n = xi * (1.0 + 0.05 * rng.standard_normal(xi.size))
        jx_n = jx * (1.0 + 0.05 * rng.standard_normal(jx.size))
        prob_n = FitProblem(times=grid, xi=xi_n, xi_err=0.05 * xi,
                            jx_norm=jx_n, jx_err=0.05 * jx,
                            free=free, fixed=start, initial_pop=POP0)
        res_n = fit_parameters(prob_n)
        sigma = np.sqrt(np.diag(res_n.covariance))
        for k, name in enumerate(free):
            est, tv = getattr(res_n.params, name), getattr(truth, name)
            assert abs(est - tv) / tv < 0.10
            assert abs(est - tv) < 3.0 * sigma[k]

        # projection-noise calibration is exact on synthetic data
        theta = np.array([0.5, 1.0, 2.0, 3.0, 5.0])
        a, b, _ = calibrate_pn(
            [CalibrationPoint(t, t + 0.004 * t**2) for t in theta])
        assert a == pytest.approx(1.0, abs=1e-10)
        assert b == pytest.approx(0.004, abs=1e-10)


def test_criterion_9_property_suite(tmp_path):
    with criterion(9, "invariants and determinism"):
        # symplectic bound holds on every trajectory step
        traj = propagate_moments(css_state(), make_params(),
                                 NoiseChannels(dephasing=0.193),
                                 np.linspace(0.0, 40.0, 41))
        for state in traj.states:
            state.validate()

        # unit vacuum variance for every mode shape
        vac = simulate_batch(10_000, 5.0, 0.1, LossParams(0.0, 0.0), MU_NU, 0)
        se = math.sqrt(2.0 / (vac.n_trials - 1))
        for phase in ("cos", "sin"):
            for direction in ("falling", "rising"):
                mode = ModeFunctional(phase=phase, exponent_rate=0.4,
                                      direction=direction, window=(0.0, 5.0))
                y = integrate_mode_batch(vac, mode)
                assert np.var(y, ddof=1) == pytest.approx(1.0, abs=3 * se)

        # closed-form feedback gain beats a brute-force scan
        loss = LossParams(gamma_s=0.19, gamma_extra=0.08)
        batch = simulate_batch(3000, 15.0, 0.1, loss, MU_NU, 5)
        read = ModeFunctional(phase="cos", exponent_rate=loss.gamma,
                              direction="falling", window=(10.0, 15.0))
        feed = ModeFunctional(phase="cos", exponent_rate=0.6,
                              direction="rising", window=(0.0, 10.0))
        y_r = integrate_mode_batch(batch, read)
        y_f = integrate_mode_batch(batch, feed)
        alpha_star = float(np.cov(y_r, y_f, ddof=1)[0, 1]
                           / np.var(y_f, ddof=1))
        cv_star = conditional_variance(batch, read, feed, alpha_star)
        for alpha in np.arange(-2.0, 2.0, 1e-3):
            assert cv_star <= conditional_variance(batch, read, feed,
                                                   alpha) + 1e-12

        # population conservation to 1e-9
        rates = RateSet(g34=0.005, g43=0.0042, g_out=0.027, g_in=0.002)
        s = propagate_populations(POP0, rates, np.linspace(0.0, 100.0, 41))
        np.testing.assert_allclose(s.n44 + s.n43 + s.nh, 1.0, atol=1e-9)

        # byte-identical CLI outputs under a fixed seed
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["reconstruct", "--trials", "500", "--seed", "3"]
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert (a / "reconstruct.csv").read_bytes() == \
            (b / "reconstruct.csv").read_bytes()
