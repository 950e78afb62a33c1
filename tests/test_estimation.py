import numpy as np
import pytest

from eprsim.errors import FitFailureError, IdentifiabilityError
from eprsim.estimation import (
    CalibrationPoint,
    FitProblem,
    calibrate_pn,
    fit_parameters,
    forward_model,
    orientation,
)
from eprsim.multilevel_rates import (
    PopulationState,
    polarization_slope,
    propagate_populations,
    transition_rates,
)

from test_spin_model import make_params

POP0 = PopulationState(n44=0.99, n43=0.01, nh=0.0)
GRID = np.linspace(0.0, 30.0, 13)


def synthetic_problem(truth, start, free, **kwargs):
    xi, jx, _, _ = forward_model(truth, POP0, GRID,
                                 pump=kwargs.get("pump", False))
    return FitProblem(times=GRID, xi=xi, xi_err=np.full_like(xi, 0.01),
                      jx_norm=jx, jx_err=np.full_like(jx, 0.005),
                      free=free, fixed=start, initial_pop=POP0, **kwargs)


class TestForwardModel:
    def test_witness_dips_below_unity(self):
        truth = make_params()
        xi, jx, _, _ = forward_model(truth, POP0, GRID)
        assert xi[0] > 1.0 - 0.1  # small multilevel offset at t=0
        assert xi.min() < 1.0
        assert np.all(np.diff(jx) < 0.0)  # polarisation decays

    def test_polarisation_normalised(self):
        _, jx, _, _ = forward_model(make_params(), POP0, GRID)
        assert jx[0] == 1.0


class TestFitParameters:
    def test_zero_free_path(self):
        truth = make_params()
        res = fit_parameters(synthetic_problem(truth, truth, free=()))
        assert res.free == ()
        np.testing.assert_allclose(res.residuals, 0.0, atol=1e-9)
        assert res.cost == pytest.approx(0.0, abs=1e-18)

    def test_single_parameter_recovery(self):
        truth = make_params()
        start = truth.replace(Gamma_tilde=0.12)
        res = fit_parameters(synthetic_problem(truth, start,
                                               free=("Gamma_tilde",)))
        assert res.params.Gamma_tilde == pytest.approx(truth.Gamma_tilde,
                                                       rel=1e-5)
        assert res.covariance.shape == (1, 1)
        assert res.covariance[0, 0] > 0.0

    def test_solver_called_through_module_global(self, monkeypatch):
        # a wrapper bound at eprsim.estimation.least_squares sees every
        # solve; a function-local scipy import would bypass it
        from eprsim import estimation
        solve, results = estimation.least_squares, []

        def counted(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(estimation, "least_squares", counted)
        truth = make_params()
        fit_parameters(synthetic_problem(truth,
                                         truth.replace(Gamma_tilde=0.12),
                                         free=("Gamma_tilde",)))
        assert len(results) == 1 and results[0].nfev > 0

    def test_slope_constraint_recovers_loss_rate(self):
        truth = make_params()  # Gamma_L_out = 0.025
        slope = polarization_slope(POP0, transition_rates(truth))
        start = truth.replace(Gamma_L_out=0.1)
        prob = synthetic_problem(truth, start, free=(), slope_obs=slope)
        res = fit_parameters(prob)
        assert res.params.Gamma_L_out == pytest.approx(0.025, rel=1e-9)

    def test_slope_constraint_with_pump_and_hidden_atoms(self):
        # the slope counts the hidden-level refill and the pump, so the
        # pumped fit from a partly hidden start recovers the loss rate
        truth = make_params(Gamma_pump=0.168)  # Gamma_L_out = 0.025
        pop0 = PopulationState(n44=0.8, n43=0.1, nh=0.1)
        slope = polarization_slope(pop0, transition_rates(truth, pump=True))
        xi, jx, _, _ = forward_model(truth, pop0, GRID, pump=True)
        prob = FitProblem(times=GRID, xi=xi, xi_err=np.full_like(xi, 0.01),
                          jx_norm=jx, jx_err=np.full_like(jx, 0.005),
                          free=("Gamma_tilde",), initial_pop=pop0, pump=True,
                          fixed=truth.replace(Gamma_L_out=0.1,
                                              Gamma_tilde=0.12),
                          slope_obs=slope)
        res = fit_parameters(prob)
        assert res.params.Gamma_L_out == pytest.approx(0.025, abs=1e-9)
        assert res.params.Gamma_tilde == pytest.approx(truth.Gamma_tilde,
                                                       rel=1e-5)

    def test_slope_constraint_rejects_negative_rate(self):
        truth = make_params()
        prob = synthetic_problem(truth, truth, free=(), slope_obs=0.05)
        with pytest.raises(FitFailureError):
            fit_parameters(prob)

    def test_unidentifiable_pump_rate(self):
        # pump off: the Gamma_pump column of the Jacobian is exactly zero
        truth = make_params()
        start = truth.replace(Gamma_pump=0.1)
        prob = synthetic_problem(truth, start,
                                 free=("Gamma_pump", "Gamma_tilde"))
        with pytest.raises(IdentifiabilityError) as exc:
            fit_parameters(prob)
        worst = max(exc.value.direction, key=lambda k:
                    abs(exc.value.direction[k]))
        assert worst == "Gamma_pump"

    def test_too_few_points(self):
        truth = make_params()
        t = np.array([0.0, 1.0])
        xi, jx, _, _ = forward_model(truth, POP0, t)
        prob = FitProblem(times=t, xi=xi, xi_err=np.full(2, 0.01),
                          jx_norm=np.full(2, np.nan), jx_err=np.full(2, 1.0),
                          free=("d", "Gamma_tilde", "Gamma_col"),
                          fixed=truth, initial_pop=POP0)
        with pytest.raises(ValueError):
            fit_parameters(prob)

    def test_unknown_free_name(self):
        with pytest.raises(ValueError):
            synthetic_problem(make_params(), make_params(), free=("mu",))

    def test_duplicate_free_name(self):
        with pytest.raises(ValueError):
            synthetic_problem(make_params(), make_params(),
                              free=("d", "d"))

    def test_slope_constraint_excludes_gamma_l_out(self):
        with pytest.raises(ValueError):
            synthetic_problem(make_params(), make_params(),
                              free=("Gamma_L_out",), slope_obs=0.0)

    @pytest.mark.parametrize("slope", [np.nan, np.inf])
    def test_slope_obs_must_be_finite(self, slope):
        with pytest.raises(ValueError, match="finite"):
            synthetic_problem(make_params(), make_params(), free=(),
                              slope_obs=slope)

    def test_nan_jx_entries_skipped(self):
        truth = make_params()
        xi, jx, _, _ = forward_model(truth, POP0, GRID)
        jx = jx.copy()
        jx[1::2] = np.nan
        prob = FitProblem(times=GRID, xi=xi, xi_err=np.full_like(xi, 0.01),
                          jx_norm=jx, jx_err=np.full_like(jx, 0.005),
                          free=(), fixed=truth, initial_pop=POP0)
        res = fit_parameters(prob)
        assert res.residuals.size == GRID.size + GRID.size // 2 + 1

    @pytest.mark.parametrize("name, value", [
        ("times", np.nan), ("times", np.inf), ("xi", np.nan),
        ("xi_err", 0.0), ("xi_err", -0.01), ("xi_err", np.nan),
        ("jx_err", 0.0), ("jx_err", np.inf), ("xi_err", 1e-300),
        ("xi_err", 1e-320), ("jx_err", 1e-300), ("jx_err", -1e-320)])
    def test_bad_observed_series_rejected(self, name, value):
        # a negative error used to fit, a zero one to leak a RuntimeWarning
        # and a NaN time to fail as a population invariant
        truth = make_params()
        xi, jx, _, _ = forward_model(truth, POP0, GRID)
        obs = dict(times=GRID.copy(), xi=xi, xi_err=np.full_like(xi, 0.01),
                   jx_norm=jx, jx_err=np.full_like(jx, 0.005))
        obs[name][1] = value
        with pytest.raises(ValueError, match=name):
            FitProblem(**obs, free=("d",), fixed=truth, initial_pop=POP0)

    def test_unused_jx_err_not_checked(self):
        # jx_err is read only where jx_norm was measured
        truth = make_params()
        xi, jx, _, _ = forward_model(truth, POP0, GRID)
        jx, jx_err = jx.copy(), np.full_like(jx, 0.005)
        jx[1], jx_err[1] = np.nan, np.nan
        FitProblem(times=GRID, xi=xi, xi_err=np.full_like(xi, 0.01),
                   jx_norm=jx, jx_err=jx_err, free=("d",), fixed=truth,
                   initial_pop=POP0)


def _noisy_problem(free=("d", "Gamma_col", "Gamma_tilde"), **kwargs):
    """Criterion 8's noisy set-up: 5 % noise on 201 points, fig2a-like
    truth, the free rates moved off it."""
    truth = make_params(**kwargs.pop("truth", {}))
    pop0, pump = kwargs.pop("initial_pop", POP0), kwargs.get("pump", False)
    grid = np.linspace(0.0, 40.0, 201)
    xi, jx, _, _ = forward_model(truth, pop0, grid, pump=pump)
    rng = np.random.default_rng(1)
    xi_n = xi * (1.0 + 0.05 * rng.standard_normal(xi.size))
    jx_n = jx * (1.0 + 0.05 * rng.standard_normal(jx.size))
    start = kwargs.pop("start", truth.replace(d=40.0, Gamma_col=0.004,
                                              Gamma_tilde=0.15))
    return FitProblem(times=grid, xi=xi_n, xi_err=0.05 * xi, jx_norm=jx_n,
                      jx_err=0.05 * jx, free=free, fixed=start,
                      initial_pop=pop0, **kwargs)


_SLOPE = polarization_slope(POP0, transition_rates(make_params()))
_PUMP_POP0 = PopulationState(n44=0.8, n43=0.1, nh=0.1)

MEMO_SETUPS = {
    "criterion-8-noisy": {},
    "slope-constrained": dict(slope_obs=_SLOPE, start=make_params(
        d=40.0, Gamma_col=0.004, Gamma_tilde=0.15, Gamma_L_out=0.1)),
    "pumped": dict(free=("Gamma_pump",), pump=True, initial_pop=_PUMP_POP0,
                   truth=dict(Gamma_pump=0.168),
                   start=make_params(Gamma_pump=0.1)),
}


class TestPopulationMemo:
    @pytest.mark.parametrize("setup", MEMO_SETUPS)
    def test_fit_matches_propagating_every_evaluation(self, setup,
                                                      monkeypatch):
        from eprsim import estimation

        problem = _noisy_problem(**MEMO_SETUPS[setup])
        got = fit_parameters(problem)

        def referee(params, initial_pop, times, pump=False, *, pops=None):
            return forward_model(params, initial_pop, times, pump)

        monkeypatch.setattr(estimation, "forward_model", referee)
        want = fit_parameters(problem)
        assert got.free == want.free
        assert got.params == want.params
        assert np.array_equal(got.covariance, want.covariance)
        assert got.cost == want.cost
        assert np.array_equal(got.residuals, want.residuals)

    @pytest.mark.parametrize("setup", MEMO_SETUPS)
    def test_one_propagation_per_distinct_rate_set(self, setup,
                                                   monkeypatch):
        from eprsim import estimation

        problem = _noisy_problem(**MEMO_SETUPS[setup])
        propagated, evaluated = [], []

        def counted_propagation(initial_pop, rates, grid):
            propagated.append(rates)
            return propagate_populations(initial_pop, rates, grid)

        def counted_model(params, initial_pop, times, pump=False, **kw):
            evaluated.append(transition_rates(params, pump))
            return forward_model(params, initial_pop, times, pump, **kw)

        monkeypatch.setattr(estimation, "propagate_populations",
                            counted_propagation)
        monkeypatch.setattr(estimation, "forward_model", counted_model)
        fit_parameters(problem)
        assert len(propagated) == len(set(propagated))
        assert set(propagated) == set(evaluated)
        # only d and Gamma_tilde leave the rates alone, so only a fit that
        # frees one of them evaluates a rate set twice
        shared = {"d", "Gamma_tilde"} & set(problem.free)
        assert (len(evaluated) > len(propagated)) == bool(shared)


class TestCalibratePn:
    def test_exact_quadratic(self):
        theta = np.array([0.5, 1.0, 2.0, 3.0, 5.0])
        pts = [CalibrationPoint(t, 1.0 * t + 0.004 * t**2) for t in theta]
        a, b, ratio = calibrate_pn(pts)
        assert a == pytest.approx(1.0, abs=1e-10)
        assert b == pytest.approx(0.004, abs=1e-10)
        assert ratio == pytest.approx(0.004, abs=1e-10)

    def test_pure_linear(self):
        pts = [CalibrationPoint(t, 0.7 * t) for t in (1.0, 2.0, 4.0)]
        a, b, _ = calibrate_pn(pts)
        assert a == pytest.approx(0.7, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            calibrate_pn([CalibrationPoint(1.0, 1.0),
                          CalibrationPoint(2.0, 2.0)])

    def test_collinear_points(self):
        with pytest.raises(FitFailureError):
            calibrate_pn([CalibrationPoint(1.0, 1.0)] * 3)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        theta = np.array([0.5, 1.0, 2.0, 4.0])
        noisy = theta + 0.004 * theta**2 + 0.01 * rng.standard_normal(4)
        a1, b1, _ = calibrate_pn(
            [CalibrationPoint(t, y, weight=2.0) for t, y in zip(theta, noisy)])
        a2, b2, _ = calibrate_pn(
            [CalibrationPoint(t, y, weight=8.0) for t, y in zip(theta, noisy)])
        assert a1 == pytest.approx(a2, abs=1e-12)
        assert b1 == pytest.approx(b2, abs=1e-12)

    def test_invalid_points(self):
        with pytest.raises(ValueError):
            CalibrationPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            CalibrationPoint(1.0, 1.0, weight=0.0)

    @pytest.mark.parametrize("theta, xi0, weight", [
        (np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.inf),
        (np.inf, 1.0, 1.0), (1.0, -np.inf, 1.0), (1.0, 1.0, np.nan)])
    def test_non_finite_points(self, theta, xi0, weight):
        with pytest.raises(ValueError, match="finite"):
            CalibrationPoint(theta, xi0, weight=weight)


class TestOrientation:
    def test_stretched_state(self):
        p = np.zeros(9)
        p[-1] = 1.0  # everything in m = +4
        assert orientation(p) == pytest.approx(1.0)

    def test_example_distribution(self):
        p = np.zeros(9)
        p[-1], p[-2] = 0.992, 0.008
        assert orientation(p) == pytest.approx(0.998)

    def test_uniform_is_unoriented(self):
        assert orientation(np.full(9, 1.0 / 9.0)) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            orientation(np.full(9, 0.5))
        with pytest.raises(ValueError):
            orientation(np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_populations(self, bad):
        p = np.zeros(9)
        p[0], p[-1] = bad, 1.0
        with pytest.raises(ValueError, match="finite"):
            orientation(p)
