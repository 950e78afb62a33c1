import dataclasses
import hashlib
import math
import warnings
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from eprsim import (
    estimation,
    gaussian_dynamics,
    lindblad_oracle,
    multilevel_rates,
)
from eprsim.cli import main
from eprsim.errors import (
    FitFailureError,
    IdentifiabilityError,
    InvariantViolationError,
)
from eprsim.estimation import (
    FITTABLE,
    CalibrationPoint,
    FitProblem,
    calibrate_pn,
    fit_parameters,
    forward_model,
    orientation,
)
from eprsim.gaussian_dynamics import NoiseChannels
from eprsim.multilevel_rates import (
    PopulationState,
    multilevel_xi,
    polarization_slope,
    propagate_populations,
    transition_rates,
)
from eprsim.spin_model import GaussianState, css_state, two_mode_squeezed_cov

from test_gaussian_dynamics import (
    count_state_checks,
    list_loop_moments,
    list_loop_propagate_moments,
)
from test_multilevel_rates import van_loan_propagate_populations
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

    def test_initial_state_is_the_hand_composed_chain(self):
        # fig2c's dark decay: the drive stops at the pumped witness minimum,
        # and the dark run starts from the Gaussian state and populations
        # there; every output is the chain's own, bit for bit
        from eprsim.gaussian_dynamics import NoiseChannels, propagate_moments
        from eprsim.multilevel_rates import multilevel_xi
        from eprsim.scenarios import (
            _DARK_DEPHASING,
            INITIAL_POP,
            inclusive_range,
            scenario_params,
        )

        params = scenario_params("fig2c")
        grid = inclusive_range(0.0, 45.0, 0.25)
        xi, _, traj, pops = forward_model(params, INITIAL_POP, grid,
                                          pump=True)
        k = int(np.argmin(xi))
        state0, pop0 = traj.state(k), pops.state(k)
        assert traj.xi[k] < 1.0  # entangled: not the default CSS
        dark = params.replace(Gamma=0.0, Gamma_tilde=_DARK_DEPHASING)
        t = inclusive_range(0.0, 8.0, 0.05)
        got_xi, got_jx, got_traj, got_pops = forward_model(
            dark, pop0, t, initial_state=state0)
        want_pops = propagate_populations(pop0, transition_rates(dark), t)
        want_traj = propagate_moments(state0, dark,
                                      NoiseChannels.from_params(dark), t,
                                      populations=want_pops)
        assert got_xi.tobytes() == multilevel_xi(want_traj.xi,
                                                 want_pops).tobytes()
        assert got_jx.tobytes() == (want_pops.jx_frac
                                    / want_pops.jx_frac[0]).tobytes()
        for name in ("phi", "x", "xi", "var_x_minus", "var_p_plus"):
            assert (getattr(got_traj, name).tobytes()
                    == getattr(want_traj, name).tobytes())
        for name in ("n44", "n43", "nh"):
            assert (getattr(got_pops, name).tobytes()
                    == getattr(want_pops, name).tobytes())


class TestInitialStateChecks:
    """A CSS start is physical as it stands and skips the state check; any
    other initial state is validated once per call."""

    def test_css_start_not_validated(self, monkeypatch):
        calls = count_state_checks(monkeypatch)
        forward_model(make_params(), POP0, GRID)
        forward_model(make_params(), POP0, GRID, directions=np.eye(5))
        assert calls == Counter()

    def test_initial_state_validated_once_per_call(self, monkeypatch):
        params = make_params()
        start = GaussianState(mean=np.zeros(4),
                              cov=two_mode_squeezed_cov(params.mu, params.nu))
        calls = count_state_checks(monkeypatch)
        for k in (1, 2):
            forward_model(params, POP0, GRID, initial_state=start,
                          directions=np.eye(5))
            assert calls == Counter(validate=k, epr_variance=k)

    def test_unphysical_initial_state_refused(self):
        bad = GaussianState(mean=np.zeros(4), cov=0.5 * np.eye(4))
        with pytest.raises(InvariantViolationError,
                           match=r"^symplectic eigenvalue 0\.500000 below the "
                                 r"Heisenberg bound$"):
            forward_model(make_params(), POP0, GRID, initial_state=bad)


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
        # solve; a solver reached by any other name would bypass it
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
        ("xi_err", 1e-320), ("jx_err", 1e-300), ("jx_err", -1e-320),
        ("times", 0.0), ("times", -1.0)])
    def test_bad_observed_series_rejected(self, name, value):
        # a negative error used to fit, a zero one to leak a RuntimeWarning,
        # a NaN time to fail as a population invariant and a repeated (0.0)
        # or unsorted (-1.0) one with a message about a grid
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
    grid = kwargs.pop("grid", np.linspace(0.0, 40.0, 201))
    xi, jx, _, _ = forward_model(truth, pop0, grid, pump=pump)
    rng = np.random.default_rng(kwargs.pop("seed", 1))
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
    """The Jacobian reads the tangents that the residuals computed at the
    same x, in the same forward-model pass as the values."""

    @pytest.mark.parametrize("setup", MEMO_SETUPS)
    def test_fit_matches_propagating_every_evaluation(self, setup,
                                                      monkeypatch):
        problem = _noisy_problem(**MEMO_SETUPS[setup])
        got = fit_parameters(problem)
        directions = estimation._directions(problem)
        mask = np.isfinite(problem.jx_norm)
        solve = estimation.least_squares

        def referee_jac(x):
            # a fresh forward_model(..., directions=...) at every Jacobian
            trial = dict(zip(problem.free, x))
            if problem.slope_obs is not None:
                trial["Gamma_L_out"] = estimation._resolve_gamma_l_out(
                    problem, trial)
            *_, d_xi, d_jx = forward_model(
                problem.fixed.replace(**trial), problem.initial_pop,
                problem.times, pump=problem.pump, directions=directions)
            return np.concatenate([
                d_xi.T / problem.xi_err[:, None],
                d_jx[:, mask].T / problem.jx_err[mask, None]])

        def referee(fun, x0, bounds):
            return solve(lambda x: (fun(x)[0], referee_jac(x)), x0, bounds)

        monkeypatch.setattr(estimation, "least_squares", referee)
        want = fit_parameters(problem)
        assert got.free == want.free
        assert got.params == want.params
        assert np.array_equal(got.covariance, want.covariance)
        assert got.cost == want.cost
        assert np.array_equal(got.residuals, want.residuals)

    @pytest.mark.parametrize("setup", MEMO_SETUPS)
    def test_one_propagation_per_evaluation(self, setup, monkeypatch):
        # one forward-model set-up per fit and one evaluation of it per
        # evaluation of the residuals and their Jacobian: one propagation of
        # the populations at the evaluation's rates, one increment pass real
        # for the values and one complex for the tangents of every
        # direction, and the closed form (no matrix exponential) once real
        # and once complex per direction that moves a population rate
        problem = _noisy_problem(**MEMO_SETUPS[setup])
        set_up, propagated, evaluated, calls = [], [], [], Counter()
        populations = estimation._populations

        class CountedModel(estimation._ForwardModel):
            def __init__(self, *args, **kwargs):
                set_up.append(args)
                super().__init__(*args, **kwargs)

            def __call__(self, params):
                rates = transition_rates(params, self.pump)
                evaluated.append((rates.g34, rates.g43, rates.g_out,
                                  rates.g_in, rates.pump))
                return super().__call__(params)

        def counted_populations(n0, t, r):
            propagated.append(r)
            return populations(n0, t, r)

        # the real closed form is looked up in multilevel_rates, the
        # complex one in estimation
        for module, name, arg in ((lindblad_oracle, "_expm_grid", 0),
                                  (gaussian_dynamics, "_increments", 2),
                                  (multilevel_rates, "_closed_form", 2),
                                  (estimation, "_closed_form", 2)):
            def counted(*args, _fn=getattr(module, name), _name=name,
                        _arg=arg, **kwargs):
                calls[_name, np.iscomplexobj(args[_arg])] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(estimation, "_populations", counted_populations)
        monkeypatch.setattr(estimation, "_ForwardModel", CountedModel)
        _, sol = _solve(problem, monkeypatch)
        assert len(set_up) == 1
        assert propagated == evaluated
        assert len(evaluated) == sol.nfev and sol.njev > 0
        moving = estimation._tangents(estimation._directions(problem),
                                      problem.pump)[:, :5].any(axis=1)
        passes = {("_increments", False): 1, ("_increments", True): 1,
                  ("_closed_form", False): 1,
                  ("_closed_form", True): np.count_nonzero(moving)}
        assert calls == {key: n * sol.nfev for key, n in passes.items()}

        fun, x0 = _objective(problem, monkeypatch)
        calls.clear()
        set_up.clear()
        propagated.clear()
        fun(x0)
        assert not set_up and len(propagated) == 1 and calls == passes


class TestSetUp:
    """The fit sets its forward model up once; every check that depends on
    the parameters still runs at each evaluation, as in forward_model."""

    def test_grid_checked_once_per_fit(self, monkeypatch):
        problem, calls = _criterion_8(noisy=True), []
        checked = multilevel_rates._checked_grid

        def counted(grid):
            calls.append(grid)
            return checked(grid)
        for module in (multilevel_rates, gaussian_dynamics, estimation):
            monkeypatch.setattr(module, "_checked_grid", counted)
        _, sol = _solve(problem, monkeypatch)
        assert sol.nfev > 1 and len(calls) == 1

    def test_overflowing_fixed_rate_refused_as_by_forward_model(self):
        # d * Gamma overflows at the start's d = 55: the fit refuses it with
        # forward_model's error, and no overflow warning comes first
        problem = _noisy_problem(free=("d",), start=make_params(Gamma=5e306))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError) as fit_error:
                fit_parameters(problem)
            with pytest.raises(InvariantViolationError) as model_error:
                forward_model(problem.fixed, problem.initial_pop,
                              problem.times, directions=np.eye(5)[:1])
        assert str(fit_error.value) == str(model_error.value) \
            == "moment rates overflow: d * Gamma is not finite"

    @pytest.mark.parametrize("gamma", [1e170, 1e300])
    def test_tangents_finite_at_extreme_rates(self, gamma):
        # the hypot extension's tangent overflowed past Gamma ~ 1e166,
        # though hypot itself does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, d_xi, d_jx = forward_model(make_params(Gamma=gamma), POP0,
                                           GRID, directions=np.eye(5))
        assert np.isfinite(d_xi).all() and np.isfinite(d_jx).all()


class _Captured(Exception):
    """Raised in place of the solve, once its arguments are seen."""


def _objective(problem, monkeypatch):
    """(fun, x0) that fit_parameters hands the solver; fun(x) returns the
    residuals and their Jacobian."""
    got = {}

    def capture(fun, x0, bounds):
        got.update(fun=fun, x0=x0)
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(estimation, "least_squares", capture)
        with pytest.raises(_Captured):
            fit_parameters(problem)
    return got["fun"], got["x0"]


def _solve(problem, monkeypatch, solve=None):
    """The fit, or the IdentifiabilityError it raised, and the result of
    ``solve`` (default: the module's solver)."""
    solve, sols = solve or estimation.least_squares, []

    def kept(*args, **kwargs):
        sols.append(solve(*args, **kwargs))
        return sols[-1]

    with monkeypatch.context() as m:
        m.setattr(estimation, "least_squares", kept)
        try:
            res = fit_parameters(problem)
        except IdentifiabilityError as exc:
            res = exc
    return res, sols[0]


_PUMPED = dict(pump=True, initial_pop=_PUMP_POP0,
               truth=dict(Gamma_pump=0.168))
_START = make_params(d=40.0, Gamma_col=0.004, Gamma_tilde=0.15,
                     Gamma_pump=0.1, Gamma_L_out=0.03)
JACOBIAN_SETUPS = {
    "pump-off": dict(free=FITTABLE, start=_START),
    "pump-on": dict(free=FITTABLE, start=_START, **_PUMPED),
    "slope-constrained": dict(
        free=("d", "Gamma_col", "Gamma_tilde", "Gamma_pump"), start=_START,
        slope_obs=polarization_slope(_PUMP_POP0, transition_rates(
            make_params(Gamma_pump=0.168), pump=True)), **_PUMPED),
}
# criterion 8's noise-free grid and its 201-point noisy one
JACOBIAN_GRIDS = {"16-points": np.linspace(0.0, 30.0, 16),
                  "201-points": np.linspace(0.0, 40.0, 201)}


def fused_forward_model(params, initial_pop, times, pump, directions):
    """(d_xi_multilevel, d_jx_norm) along ``directions`` as forward_model
    took them before the complex step: the population tangents from the
    Van Loan referee, the witness's by the chain rule through the list-loop
    referee, and the multilevel and J_x quotients differentiated by hand."""
    d, col, tilde, l_out, pmp = np.asarray(directions, dtype=float).T
    d_rates = np.array([col, col, col + l_out, col, pmp * pump]).T
    pops = van_loan_propagate_populations(
        initial_pop, transition_rates(params, pump), times, d_rates)
    traj = list_loop_propagate_moments(
        css_state(), params, NoiseChannels.from_params(params, pump=pump),
        times, populations=pops, pop_tangents=pops.tangents,
        d_rates=np.array([d, tilde, pmp * pump]).T)
    d44, d43, _ = pops.tangents
    d_n2, d_jx = d44 + d43, 4.0 * d44 + 3.0 * d43
    d_p2_tilde = np.sign(pops.n44 - pops.n43) * (d44 - d43)
    # xi = (2 jx xi_gauss + 14 n43) / den, den = |n44 - n43| + 7 n2
    xi = multilevel_xi(traj.xi, pops)
    d_num = 2.0 * d_jx * traj.xi + 2.0 * pops.jx_frac * traj.d_xi + 14.0 * d43
    d_xi = (d_num - xi * (d_p2_tilde + 7.0 * d_n2)) \
        / (pops.n2_frac * (pops.p2 + 7.0))
    jx_norm = pops.jx_frac / pops.jx_frac[0]
    return d_xi, (d_jx - jx_norm * d_jx[:, :1]) / pops.jx_frac[0]


class TestJacobian:
    @pytest.mark.parametrize("grid", JACOBIAN_GRIDS)
    @pytest.mark.parametrize("setup", JACOBIAN_SETUPS)
    def test_matches_central_differences(self, setup, grid, monkeypatch):
        problem = _noisy_problem(grid=JACOBIAN_GRIDS[grid],
                                 **JACOBIAN_SETUPS[setup])
        fun, x0 = _objective(problem, monkeypatch)
        r, got = fun(x0)
        assert got.shape == (r.size, len(problem.free))
        for k, name in enumerate(problem.free):
            step = np.zeros_like(x0)
            step[k] = 1e-5 * x0[k]
            want = (fun(x0 + step)[0] - fun(x0 - step)[0]) / (2.0 * step[k])
            if name == "Gamma_pump" and not problem.pump:
                # the pump-off rate enters nothing, so its column is zero
                assert not got[:, k].any() and not want.any()
                continue
            scale = np.abs(got[:, k]).max()
            assert scale > 0
            assert np.abs(got[:, k] - want).max() <= 1e-7 * scale, name

    @pytest.mark.parametrize("grid", JACOBIAN_GRIDS)
    @pytest.mark.parametrize("setup", JACOBIAN_SETUPS)
    def test_matches_fused_referee(self, setup, grid):
        # each direction's tangents within 1e-13 of their largest: the
        # fit's directions (the slope-constrained ones included), each unit
        # direction and random ones with a zero row
        problem = _noisy_problem(grid=JACOBIAN_GRIDS[grid],
                                 **JACOBIAN_SETUPS[setup])
        args = (problem.fixed, problem.initial_pop, problem.times,
                problem.pump)
        random = np.random.default_rng(problem.times.size).standard_normal(
            (4, 5))
        random[1] = 0.0
        for directions in (estimation._directions(problem), np.eye(5),
                           random):
            got = forward_model(*args, directions=directions)[4:]
            want = fused_forward_model(*args, directions)
            for g, w in zip(got, want):
                assert g.shape == w.shape == (len(directions),
                                              problem.times.size)
                for p in range(len(directions)):
                    scale = np.abs(w[p]).max()
                    assert np.abs(g[p] - w[p]).max() <= 1e-13 * scale, p
        assert not got[0][1].any() and not got[1][1].any()

    @pytest.mark.parametrize("setup", JACOBIAN_SETUPS)
    def test_values_independent_of_directions(self, setup):
        # the values come from the real pass alone, and the directions only
        # from a separate complex step: the values have the same bytes
        # with and without them
        problem = _noisy_problem(**JACOBIAN_SETUPS[setup])
        args = (problem.fixed, problem.initial_pop, problem.times)
        plain = forward_model(*args, pump=problem.pump)
        fused = forward_model(*args, pump=problem.pump,
                              directions=estimation._directions(problem))
        for got in fused[4:]:
            assert got.shape == (len(problem.free), problem.times.size)
        for want, got in ((plain[0], fused[0]), (plain[1], fused[1]),
                          *((getattr(plain[2], n), getattr(fused[2], n))
                            for n in ("phi", "x", "xi")),
                          *((getattr(plain[3], n), getattr(fused[3], n))
                            for n in ("n44", "n43", "nh"))):
            assert got.tobytes() == want.tobytes()
        # directions that move no rate have zero tangents: the zero one,
        # and Gamma_pump's without the pump
        idle = np.zeros((2, 5))
        idle[1, 4] = not problem.pump
        still = forward_model(*args, pump=problem.pump, directions=idle)
        for got in still[4:]:
            assert got.shape == (2, problem.times.size) and not got.any()
        for want, got in zip(plain[:2], still[:2]):
            assert got.tobytes() == want.tobytes()


def _criterion_8(noisy):
    """Criterion 8's noise-free (16 points) or noisy (201 points) fit."""
    if noisy:
        return _noisy_problem()
    truth = make_params()
    grid = np.linspace(0.0, 30.0, 16)
    xi, jx, _, _ = forward_model(truth, POP0, grid)
    return FitProblem(times=grid, xi=xi, xi_err=np.full_like(xi, 0.01),
                      jx_norm=jx, jx_err=np.full_like(jx, 0.005),
                      free=("d", "Gamma_col", "Gamma_tilde"),
                      fixed=truth.replace(d=40.0, Gamma_col=0.004,
                                          Gamma_tilde=0.15),
                      initial_pop=POP0)


class TestStop:
    @pytest.mark.parametrize("noisy", [False, True],
                             ids=["noise-free", "noisy"])
    def test_stop_independent_of_rounding(self, noisy, monkeypatch):
        # observations moved by 1e-13 relative change only rounding, so
        # the solver takes the same steps and stops at the same place
        problem = _criterion_8(noisy)
        moved = dataclasses.replace(problem, xi=problem.xi * (1 + 1e-13),
                                    jx_norm=problem.jx_norm * (1 + 1e-13))
        res, sol = _solve(problem, monkeypatch)
        res_m, sol_m = _solve(moved, monkeypatch)
        assert (sol_m.nfev, sol_m.njev) == (sol.nfev, sol.njev)
        for name in problem.free:
            assert getattr(res_m.params, name) == pytest.approx(
                getattr(res.params, name), rel=1e-9, abs=0.0)


def _referee(fun, x0, bounds):
    """scipy's least_squares at the module solver's step scale, run to its
    rounding floor."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    return least_squares(lambda x: fun(x)[0], x0, jac=lambda x: fun(x)[1],
                         bounds=bounds, ftol=1e-15, xtol=1e-15, gtol=1e-15,
                         x_scale=np.maximum(np.abs(x0), 1e-3))


# the pump rate's truth is 0, and this noise pulls its unconstrained optimum
# below: the fit ends on the lower bound
_PUMP_AT_BOUND = dict(free=("Gamma_pump", "Gamma_tilde"), pump=True,
                      initial_pop=_PUMP_POP0, truth=dict(Gamma_pump=0.0),
                      start=make_params(Gamma_pump=0.1, Gamma_tilde=0.15))
REFEREE_CASES = {
    "criterion-8-noise-free": lambda: _criterion_8(False),
    **{f"memo-{k}": lambda v=v: _noisy_problem(**v)
       for k, v in MEMO_SETUPS.items()},
    **{f"jacobian-{k}": lambda v=v: _noisy_problem(**v)
       for k, v in JACOBIAN_SETUPS.items()},
    "pump-at-bound": lambda: _noisy_problem(**_PUMP_AT_BOUND),
}


class TestScipyReferee:
    @pytest.mark.parametrize("case", REFEREE_CASES)
    def test_matches_scipy(self, case, monkeypatch):
        # noise-free within 1e-8 relative; noisy within 1e-4 standard
        # errors, with the covariance within 1e-4 relative
        problem = REFEREE_CASES[case]()
        got, sol = _solve(problem, monkeypatch)
        want, ref = _solve(problem, monkeypatch, solve=_referee)
        assert sol.success and ref.success
        assert type(got) is type(want)  # pump-off: both unidentifiable
        # a column that moves no residual (the pump-off rate) stays at x0
        live = ref.jac.any(axis=0)
        assert np.array_equal(sol.x[~live], ref.x[~live])
        if case.endswith("noise-free"):
            np.testing.assert_allclose(sol.x, ref.x, rtol=1e-8, atol=0.0)
        else:
            info = ref.jac[:, live].T @ ref.jac[:, live]
            sigma = np.sqrt(np.diag(np.linalg.inv(info)))
            assert np.all(np.abs(sol.x - ref.x)[live] <= 1e-4 * sigma)
        if isinstance(want, estimation.FitResult):
            np.testing.assert_allclose(got.covariance, want.covariance,
                                       rtol=1e-4, atol=0.0)

    def test_optimum_on_a_bound(self, monkeypatch):
        # the gradient holds the pump rate at 0, where the fit ends exactly
        res, sol = _solve(_noisy_problem(**_PUMP_AT_BOUND), monkeypatch)
        assert sol.success and res.params.Gamma_pump == 0.0
        assert (sol.jac.T @ sol.fun)[0] > 0.0  # the cost falls below it


class TestAtBound:
    @pytest.mark.parametrize("case, name", [
        (_PUMP_AT_BOUND, "Gamma_pump"),
        (JACOBIAN_SETUPS["pump-on"], "Gamma_L_out")],
        ids=["pump-at-bound", "pump-on"])
    def test_held_parameter_has_no_variance(self, case, name, monkeypatch):
        # the fit ends on the lower bound with the gradient pushing below
        # it: that parameter gets no variance, and the others' covariance
        # is the inverse information over their own columns
        problem = _noisy_problem(**case)
        res, sol = _solve(problem, monkeypatch)
        k = problem.free.index(name)
        assert res.at_bound == (name,)
        assert getattr(res.params, name) == 0.0
        assert (sol.jac.T @ sol.fun)[k] > 0.0
        assert not res.covariance[k].any()
        assert not res.covariance[:, k].any()
        live = np.arange(len(problem.free)) != k
        info = sol.jac[:, live].T @ sol.jac[:, live]
        np.testing.assert_allclose(res.covariance[np.ix_(live, live)],
                                   np.linalg.inv(info), rtol=1e-8, atol=0.0)

    def test_every_parameter_held(self):
        # the pump rate alone: nothing is left to have a covariance
        res = fit_parameters(_noisy_problem(**{**_PUMP_AT_BOUND,
                                               "free": ("Gamma_pump",)}))
        assert res.at_bound == ("Gamma_pump",)
        assert res.params.Gamma_pump == 0.0
        assert res.covariance.tolist() == [[0.0]]

    def test_interior_fit_holds_nothing(self, monkeypatch):
        res, _ = _solve(_criterion_8(noisy=True), monkeypatch)
        assert res.at_bound == ()
        assert np.all(np.diag(res.covariance) > 0.0)


class TestSolver:
    def test_spent_budget_raises_with_the_best_iterate(self, monkeypatch):
        problem = _criterion_8(noisy=True)
        solve, seen = estimation.least_squares, []

        def short(fun, x0, bounds):
            def kept(x):
                r, J = fun(x)
                seen.append((0.5 * float(r @ r), x.copy()))
                return r, J
            return solve(kept, x0, bounds)

        monkeypatch.setattr(estimation, "least_squares", short)
        # a budget of 4 evaluations over the 3 free parameters
        monkeypatch.setattr(estimation, "_NFEV_PER_PARAMETER", Fraction(4, 3))
        with pytest.raises(FitFailureError, match="budget") as exc:
            fit_parameters(problem)
        assert len(seen) == 4
        cost, x = min(seen, key=lambda c: c[0])
        assert cost < seen[0][0]
        assert exc.value.best == problem.fixed.replace(
            **dict(zip(problem.free, x)))

    def test_default_budget_is_100_evaluations_per_parameter(
            self, monkeypatch):
        # r = x^2 halves x at every accepted step; with no tolerance to
        # meet, only the budget stops it
        for name in ("_FTOL", "_XTOL", "_GTOL"):
            monkeypatch.setattr(estimation, name, 0.0)
        sol = estimation.least_squares(
            lambda x: (x**2, np.diag(2.0 * x)), np.array([1.0]),
            bounds=(np.array([-2.0]), np.array([2.0])))
        assert (sol.nfev, sol.status, sol.success) == (100, 0, False)
        assert 0.0 < sol.x[0] < 1e-20

    def test_non_finite_trial_rejected(self):
        # residuals are NaN past x = 2; the unconstrained optimum, 3, lies
        # there, so the first trials are rejected and the fit ends below 2
        def fun(x):
            return np.where(x < 2.0, x - 3.0, np.nan), np.ones((1, 1))

        sol = estimation.least_squares(
            fun, np.array([0.0]),
            bounds=(np.array([-10.0]), np.array([10.0])))
        assert sol.success and np.isfinite(sol.fun).all()
        assert 1.9 < sol.x[0] < 2.0 and sol.njev < sol.nfev


def masked_least_squares(fun, x0, bounds):
    """``estimation.least_squares`` as it was before the unmasked step:
    every step solves on the boolean-indexed copies of A, g and the scale
    and scatters the result, also when no variable is held at a bound.
    Kept as a same-bits referee."""
    lo, hi = bounds
    x = np.array(x0, dtype=float)
    f, J = fun(x)
    cost, nfev, njev, status = 0.5 * float(f @ f), 1, 1, None
    max_nfev = estimation._NFEV_PER_PARAMETER * x.size
    scale = np.maximum(np.abs(x), 1e-3)
    mu, nu = 1e-6 * float(np.max(np.sum((J * scale) ** 2, axis=0))), 2.0
    while True:
        g = J.T @ f
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        if np.abs(g[free]).max(initial=0.0) < estimation._GTOL:
            status = 1
        if status is not None or nfev >= max_nfev:
            break
        A = J.T @ J
        while True:
            dx = np.zeros(x.shape)
            dx[free] = np.linalg.solve(A[free][:, free]
                                       + np.diag(mu / scale[free]**2),
                                       -g[free])
            x_new = (x + dx).clip(lo, hi)
            dx = x_new - x
            f_new, J_new = fun(x_new)
            nfev += 1
            cost_new = (0.5 * float(f_new @ f_new)
                        if np.isfinite(f_new).all() else np.inf)
            short = (math.sqrt(dx.dot(dx)) < estimation._XTOL
                     * (estimation._XTOL + math.sqrt(x.dot(x))))
            if cost_new < cost:
                break
            mu, nu = mu * nu, 2.0 * nu
            if short:
                status = 3
            if short or nfev >= max_nfev:
                break
        if cost_new >= cost:
            break
        predicted = -float(g @ dx + 0.5 * dx @ A @ dx)
        ratio = (cost - cost_new) / predicted if predicted > 0 else 0.0
        mu, nu = mu * max(1 / 3, 1 - (2 * min(ratio, 1.0) - 1) ** 3), 2.0
        fstop = cost - cost_new < estimation._FTOL * cost and ratio > 0.25
        if fstop or short:
            status = 4 if fstop and short else 2 if fstop else 3
        x, f, J, cost = x_new, f_new, J_new, cost_new
        njev += 1
    if status is None:
        status = 0
    return SimpleNamespace(x=x, fun=f, jac=J, cost=cost, nfev=nfev,
                           njev=njev, status=status, success=status > 0,
                           message=estimation._STOPS[status])


class TestSameBitsReferees:
    """The unmasked solver step, the per-direction recursions and the
    slice-indexed increments change no floating-point operation, so the
    fits and the artifacts keep their bits."""

    @pytest.mark.parametrize("problem", [
        lambda: _criterion_8(False), lambda: _criterion_8(True),
        lambda: _noisy_problem(**_PUMP_AT_BOUND)],
        ids=["noise-free", "noisy", "held-at-bound"])
    def test_solver_matches_masked_step(self, problem, monkeypatch):
        problem = problem()
        _, sol = _solve(problem, monkeypatch)
        _, ref = _solve(problem, monkeypatch, solve=masked_least_squares)
        for name in ("x", "fun", "jac"):
            got, want = getattr(sol, name), getattr(ref, name)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        for name in ("nfev", "njev", "status", "cost"):
            assert getattr(sol, name) == getattr(ref, name), name

    def test_artifacts_unchanged(self, monkeypatch, tmp_path):
        # the CLI writes the same bytes with the referees in place of the
        # solver step and of the moments core (the values' increments and
        # recursions)
        truth = make_params()
        grid = np.linspace(0.0, 40.0, 41)
        xi, jx, _, _ = forward_model(truth, POP0, grid)
        rng = np.random.default_rng(5)

        def observed(name, xi, xi_err, jx, jx_err, rows=slice(None)):
            path = tmp_path / name
            path.write_text("t,xi,xi_err,jx_norm,jx_err\n" + "".join(
                ",".join(f"{v:.17g}" for v in row) + "\n"
                for row in zip(*(np.broadcast_to(c, grid.shape)[rows]
                                 for c in (grid, xi, xi_err, jx, jx_err)))))
            return str(path)

        exact = observed("exact.csv", xi, 0.01, jx, 0.005,
                         slice(None, None, 2))
        noisy = observed(
            "noisy.csv", xi * (1.0 + 0.05 * rng.standard_normal(xi.size)),
            0.05 * xi, jx * (1.0 + 0.05 * rng.standard_normal(jx.size)),
            0.05 * jx)
        pumped = truth.replace(Gamma_pump=0.05, Gamma_L_out=0.002)
        p_xi, p_jx, _, _ = forward_model(pumped, POP0, grid, pump=True)
        pump_obs = observed("pumped.csv", p_xi, 0.01, p_jx, 0.005)
        start, p_start = tmp_path / "start.json", tmp_path / "p_start.json"
        start.write_text(truth.replace(d=40.0, Gamma_col=0.004,
                                       Gamma_tilde=0.15).to_json())
        p_start.write_text(pumped.replace(
            d=40.0, Gamma_col=0.004, Gamma_tilde=0.15, Gamma_pump=0.04,
            Gamma_L_out=0.003).to_json())
        three = ["--free", "d", "Gamma_col", "Gamma_tilde"]
        runs = [["fit", exact, "--params", str(start), *three],
                ["fit", noisy, "--params", str(start), *three,
                 "--format", "json"],
                ["fit", pump_obs, "--params", str(p_start), "--pump",
                 "--free", *FITTABLE, "--format", "json"],
                ["simulate", "--params", str(p_start), "--pump"],
                ["populations", "--grid", "0,100,0.01"],
                *(["scenario", name] for name in ("fig2a", "fig2b", "fig2c"))]

        def digests(out):
            for k, argv in enumerate(runs):
                assert main([*argv, "--out", str(out / str(k))]) == 0
            return {f.relative_to(out): hashlib.sha256(f.read_bytes())
                    .hexdigest() for f in sorted(out.rglob("*.*"))}
        new = digests(tmp_path / "new")
        assert len(new) == 15
        monkeypatch.setattr(estimation, "least_squares", masked_least_squares)
        # every real phi and x, the fit's included, comes from the moments
        # core; the fit's complex step keeps the engine's increments
        for module in (gaussian_dynamics, estimation):
            monkeypatch.setattr(module, "_moments", list_loop_moments)
        assert digests(tmp_path / "referees") == new


# replicates of criterion 8's noisy fit, seeds 2**20, 2 * 2**20, ...
COVERAGE_REPLICATES = 200


def test_covariance_coverage():
    # pulls z = (estimate - truth) / sigma are standard normal when the
    # covariance is calibrated.  The noise sigma is taken from the truth
    # (xi_err = 0.05 xi), the weighting the fit's covariance assumes.
    #
    # Bounds, from the sampling error of n independent standard normal
    # pulls (fixed: nothing is read off the sample under test, so a heavy
    # tail cannot widen its own tolerance):
    #   SE(mean) = 1 / sqrt(n);
    #   Var(s**2) = (k - 1) / n for kurtosis k, so by the delta method
    #   SE(s) = sqrt((k - 1) / (4 n)) = 1 / sqrt(2 n) at a normal's k = 3.
    # Each check allows 4 SE (a two-sided normal tail of 6e-5): 0.28 on the
    # mean and 0.20 on the std at n = 200.  The fit is nonlinear and the
    # pulls of d read a kurtosis of about 5, which would widen SE(s) by
    # sqrt(2); the normal bound is kept, so the check on d is the stricter.
    truth = make_params()
    free = ("d", "Gamma_col", "Gamma_tilde")
    n = COVERAGE_REPLICATES
    pulls = []
    for k in range(n):
        res = fit_parameters(_noisy_problem(seed=(k + 1) * 2**20))
        sigma = np.sqrt(np.diag(res.covariance))
        pulls.append([(getattr(res.params, name) - getattr(truth, name))
                      / s for name, s in zip(free, sigma)])
    pulls = np.array(pulls)
    assert np.all(np.abs(pulls.mean(axis=0)) <= 4.0 / np.sqrt(n))
    assert np.all(np.abs(pulls.std(axis=0, ddof=1) - 1.0)
                  <= 4.0 / np.sqrt(2 * n))


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
