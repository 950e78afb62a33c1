import math

import numpy as np
import pytest

from eprsim.errors import InvariantViolationError
from eprsim.gaussian_dynamics import (
    NoiseChannels,
    Trajectory,
    moment_derivative,
    propagate_moments,
    relaxation_rate,
    trajectory_to_csv,
)
from eprsim.spin_model import (
    GaussianState,
    css_state,
    epr_variance,
    two_mode_squeezed_cov,
)

from test_spin_model import make_params


def analytic_cov(c0, params, noise, t, nh_frac=0.0):
    """Closed-form solution for constant rates: uniform affine relaxation."""
    g2 = relaxation_rate(params)
    css = noise.dephasing + noise.pump_noise_rate(nh_frac)
    total = g2 + css
    target = (g2 * two_mode_squeezed_cov(params.mu, params.nu)
              + css * np.eye(4)) / total
    return target + np.exp(-total * t) * (c0 - target)


class TestMomentDerivative:
    def test_matches_finite_difference(self):
        # derivative vs central finite difference of the propagator
        params = make_params()
        noise = NoiseChannels(dephasing=0.193)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 3.0 * np.eye(4)
        mean = rng.normal(size=4)
        st = GaussianState(mean=mean, cov=cov)
        dm, dc = moment_derivative(st, params, noise)
        h = 1e-5
        grid = np.array([0.0, h, 2 * h])
        traj = propagate_moments(st, params, noise, grid)
        fd_mean = (traj.state(2).mean - traj.state(0).mean) / (2 * h)
        fd_cov = (traj.state(2).cov - traj.state(0).cov) / (2 * h)
        np.testing.assert_allclose(dm, fd_mean, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(dc, fd_cov, rtol=1e-5, atol=1e-8)

    def test_css_fixed_point_of_dephasing(self):
        params = make_params(d=0.0)
        noise = NoiseChannels(dephasing=0.5)
        dm, dc = moment_derivative(css_state(), params, noise)
        np.testing.assert_allclose(dm, 0.0, atol=1e-14)
        np.testing.assert_allclose(dc, 0.0, atol=1e-14)

    def test_tms_fixed_point_of_dissipation(self):
        params = make_params()
        noise = NoiseChannels(dephasing=0.0)
        st = GaussianState(mean=np.zeros(4),
                           cov=two_mode_squeezed_cov(params.mu, params.nu))
        _, dc = moment_derivative(st, params, noise)
        np.testing.assert_allclose(dc, 0.0, atol=1e-12)


class TestPropagateMoments:
    def test_matches_analytic_relaxation(self):
        params = make_params()
        noise = NoiseChannels(dephasing=0.193)
        grid = np.linspace(0.0, 20.0, 9)
        traj = propagate_moments(css_state(), params, noise, grid)
        for k, t in enumerate(grid):
            np.testing.assert_allclose(
                traj.state(k).cov, analytic_cov(np.eye(4), params, noise, t),
                atol=1e-8)

    def test_steady_state_witness(self):
        params = make_params(d=1000.0, Gamma=0.01)
        noise = NoiseChannels(dephasing=0.0)
        traj = propagate_moments(css_state(), params, noise,
                                 np.linspace(0.0, 5.0, 11))
        assert traj.xi[-1] == pytest.approx(0.16, abs=1e-6)

    def test_mean_decay_rate(self):
        params = make_params()
        noise = NoiseChannels(dephasing=0.1)
        st = GaussianState(mean=np.array([1.0, -0.5, 0.3, 0.2]),
                           cov=np.eye(4))
        t = 3.0
        traj = propagate_moments(st, params, noise, np.array([0.0, t]))
        rate = 0.5 * (relaxation_rate(params) + noise.dephasing)
        np.testing.assert_allclose(traj.state(-1).mean,
                                   st.mean * np.exp(-rate * t), rtol=1e-7)

    def test_population_throttling(self):
        params = make_params()
        noise = NoiseChannels(dephasing=0.0)

        class Series:
            times = np.array([0.0, 100.0])
            p2_tilde = np.array([0.5, 0.5])

        t = 4.0
        slow = propagate_moments(css_state(), params, noise,
                                 np.array([0.0, t]), populations=Series())
        fast = propagate_moments(css_state(), params, noise,
                                 np.array([0.0, 0.5 * t]))
        # halved rate over t equals full rate over t/2
        np.testing.assert_allclose(slow.state(-1).cov, fast.state(-1).cov,
                                   atol=1e-8)

    def test_single_point_grid(self):
        traj = propagate_moments(css_state(), make_params(),
                                 NoiseChannels(), np.array([0.0]))
        assert traj.times.size == traj.xi.size == 1
        assert traj.xi[0] == pytest.approx(1.0)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            propagate_moments(css_state(), make_params(), NoiseChannels(),
                              np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("grid", [[0.0, math.inf], [math.nan],
                                      [0.0, math.nan]],
                             ids=["inf", "nan", "zero-nan"])
    def test_non_finite_grid_rejected(self, grid):
        # [0, inf] and [nan] used to return a witness, [0, nan] to fail the
        # simplex invariant
        with pytest.raises(ValueError, match="finite"):
            propagate_moments(css_state(), make_params(), NoiseChannels(),
                              np.array(grid))

    def test_initial_state_validated_once(self, monkeypatch):
        # the two-mode-squeezed target and the CSS are physical by
        # construction; only the initial state is checked
        calls = []
        check = GaussianState.validate

        def counted(state):
            calls.append(state)
            return check(state)
        monkeypatch.setattr(GaussianState, "validate", counted)
        propagate_moments(css_state(), make_params(), NoiseChannels(),
                          np.linspace(0.0, 5.0, 6))
        assert len(calls) == 1

    def test_unphysical_initial_state_rejected(self):
        bad = GaussianState(mean=np.zeros(4), cov=0.5 * np.eye(4))
        with pytest.raises(InvariantViolationError, match="symplectic"):
            propagate_moments(bad, make_params(), NoiseChannels(),
                              np.linspace(0.0, 5.0, 6))

    def test_symplectic_bound_along_trajectory(self):
        params = make_params()
        noise = NoiseChannels(dephasing=0.193)
        traj = propagate_moments(css_state(), params, noise,
                                 np.linspace(0.0, 40.0, 41))
        for k in range(traj.times.size):
            traj.state(k).validate()  # raises if the bound is violated


class TestTrajectoryCsv:
    def test_schema_and_values(self):
        traj = propagate_moments(css_state(), make_params(),
                                 NoiseChannels(dephasing=0.193),
                                 np.linspace(0.0, 2.0, 3))
        cols = trajectory_to_csv(traj)
        assert list(cols) == ["time_ms", "var_x_minus", "var_p_plus", "xi",
                              "Jx_norm", "N2", "P2"]
        assert cols["time_ms"][0] == 0.0
        assert cols["xi"][0] == pytest.approx(1.0)
        assert cols["xi"] is traj.xi
        np.testing.assert_array_equal(cols["Jx_norm"], 1.0)
        assert cols["N2"] is cols["P2"] is None

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvariantViolationError):
            Trajectory(times=np.array([0.0, 1.0]), phi=np.array([1.0]),
                       x=np.array([0.0]), initial=css_state(),
                       target=np.eye(4))

    def test_corner_rows_are_the_witness_of_target_and_css(self):
        # phi = 0 reads the target row, phi = x = 0 the CSS row, exactly
        params = make_params()
        target = two_mode_squeezed_cov(params.mu, params.nu)
        traj = Trajectory(times=np.array([0.0, 1.0, 2.0]),
                          phi=np.array([1.0, 0.0, 0.0]),
                          x=np.array([0.0, 1.0, 0.0]), initial=css_state(),
                          target=target)
        rows = np.stack([traj.var_x_minus, traj.var_p_plus, traj.xi], axis=1)
        for k, state in ((1, GaussianState(mean=np.zeros(4), cov=target)),
                         (2, css_state())):
            r = epr_variance(state)
            assert rows[k].tolist() == [r.var_x_minus, r.var_p_plus, r.xi]


class TestTimeVaryingRates:
    def test_grid_aligned_populations_match_interpolated_path(self):
        # population times equal to the grid take no interpolation pass;
        # one extra time past the grid's end forces that pass and leaves
        # every bit of the result unchanged
        from eprsim.multilevel_rates import (
            PopulationSeries,
            PopulationState,
            propagate_populations,
            transition_rates,
        )

        params = make_params(Gamma_pump=0.168)
        grid = np.linspace(0.0, 20.0, 21)
        rates = transition_rates(params, pump=True)
        start = PopulationState(n44=0.6, n43=0.2, nh=0.2)
        on_grid = propagate_populations(start, rates, grid)
        past = propagate_populations(start, rates, np.append(grid, 25.0))
        noise = NoiseChannels(dephasing=0.1, pump_refill=0.5)
        a, b = (propagate_moments(css_state(), params, noise, grid,
                                  populations=pops)
                for pops in (on_grid, past))
        assert np.array_equal(on_grid.p2_tilde, past.p2_tilde[:-1])
        for name in ("phi", "x", "xi", "var_x_minus", "var_p_plus"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        # without populations: the same as constant ones on the end points
        ends = PopulationSeries(times=grid[[0, -1]], n44=np.ones(2),
                                n43=np.zeros(2), nh=np.zeros(2))
        plain, const = (propagate_moments(css_state(), params, noise, grid,
                                          populations=pops)
                        for pops in (None, ends))
        assert np.array_equal(plain.xi, const.xi)

    def test_matches_full_moment_solve(self):
        # pumped populations make both p2_tilde(t) and nh(t) vary; the
        # reference integrates moment_derivative on the full mean and
        # covariance
        from scipy.integrate import solve_ivp

        from eprsim.multilevel_rates import (
            PopulationState,
            propagate_populations,
            transition_rates,
        )

        params = make_params(Gamma_pump=0.168)
        grid = np.linspace(0.0, 20.0, 21)
        pops = propagate_populations(
            PopulationState(n44=0.6, n43=0.2, nh=0.2),
            transition_rates(params, pump=True), grid)
        assert np.ptp(pops.p2_tilde) > 0.1 and np.ptp(pops.nh) > 0.03
        noise = NoiseChannels(dephasing=0.1, pump_refill=0.5)
        st0 = GaussianState(mean=np.array([0.4, -0.3, 0.2, 0.5]),
                            cov=two_mode_squeezed_cov(params.mu, params.nu))

        def rhs(t, y):
            st = GaussianState(mean=y[:4], cov=y[4:].reshape(4, 4))
            dm, dc = moment_derivative(
                st, params, noise,
                p2_tilde=float(np.interp(t, pops.times, pops.p2_tilde)),
                nh_frac=float(np.interp(t, pops.times, pops.nh)))
            return np.concatenate([dm, dc.ravel()])

        ref = solve_ivp(rhs, (grid[0], grid[-1]),
                        np.concatenate([st0.mean, st0.cov.ravel()]),
                        t_eval=grid, rtol=1e-11, atol=1e-13)
        traj = propagate_moments(st0, params, noise, grid, populations=pops)
        for k in range(grid.size):
            st = traj.state(k)
            np.testing.assert_allclose(st.mean, ref.y[:4, k], atol=1e-7)
            np.testing.assert_allclose(st.cov, ref.y[4:, k].reshape(4, 4),
                                       atol=1e-7)
            want = epr_variance(GaussianState(mean=ref.y[:4, k],
                                              cov=ref.y[4:, k].reshape(4, 4)))
            assert traj.xi[k] == pytest.approx(want.xi, abs=1e-7)
            assert traj.var_x_minus[k] == pytest.approx(want.var_x_minus,
                                                        abs=1e-7)
            assert traj.var_p_plus[k] == pytest.approx(want.var_p_plus,
                                                       abs=1e-7)


class TestExactEngine:
    def test_matches_per_interval_reference(self):
        # population times off the moment grid, p2_tilde and nh both varying;
        # the rates are linear between the union of the two sets of times, so
        # a tight DOP853 solve of the (phi, x) ODE per interval is the
        # reference
        from scipy.integrate import solve_ivp

        from eprsim.multilevel_rates import (
            PopulationState,
            propagate_populations,
            transition_rates,
        )

        params = make_params(Gamma_pump=0.168)
        pops = propagate_populations(
            PopulationState(n44=0.6, n43=0.2, nh=0.2),
            transition_rates(params, pump=True), np.linspace(0.0, 20.0, 13))
        assert np.ptp(pops.p2_tilde) > 0.1 and np.ptp(pops.nh) > 0.03
        noise = NoiseChannels(dephasing=0.1, pump_refill=0.5)
        grid = np.linspace(0.5, 19.0, 17)
        traj = propagate_moments(css_state(), params, noise, grid,
                                 populations=pops)

        def rhs(t, y):
            g2 = relaxation_rate(
                params, np.interp(t, pops.times, pops.p2_tilde))
            rate = g2 + noise.dephasing + noise.pump_noise_rate(
                np.interp(t, pops.times, pops.nh))
            return [-rate * y[0], g2 - rate * y[1]]

        inner = pops.times[(pops.times > grid[0]) & (pops.times < grid[-1])]
        nodes = np.union1d(grid, inner)
        ref = [np.array([1.0, 0.0])]
        for a, b in zip(nodes[:-1], nodes[1:]):
            ref.append(solve_ivp(rhs, (a, b), ref[-1], method="DOP853",
                                 rtol=1e-13, atol=1e-15).y[:, -1])
        ref = np.array(ref)[np.isin(nodes, grid)]
        np.testing.assert_allclose(traj.phi, ref[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.x, ref[:, 1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [55.0, 1e12], ids=["fixture", "stiff"])
    def test_constant_rates_closed_form(self, d):
        params = make_params(d=d)
        noise = NoiseChannels(dephasing=0.193)
        grid = np.linspace(0.0, 40.0, 81)
        traj = propagate_moments(css_state(), params, noise, grid)
        g2 = relaxation_rate(params)
        rate = g2 + noise.dephasing
        np.testing.assert_allclose(traj.phi, np.exp(-rate * grid),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(traj.x, -g2 / rate * np.expm1(-rate * grid),
                                   rtol=0, atol=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_zero_rate_leaves_weights_fixed(self):
        traj = propagate_moments(css_state(), make_params(Gamma=0.0),
                                 NoiseChannels(), np.linspace(0.0, 30.0, 31))
        assert np.all(traj.phi == 1.0) and np.all(traj.x == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_rate_vanishing_at_nodes(self):
        # p2_tilde stays 0, rises and falls back to 0; with no CSS-restoring
        # rate q = 1, so x = 1 - phi and phi = exp(-int rate) exactly
        params = make_params()
        grid = np.linspace(0.0, 20.0, 21)

        class Series:
            times = np.array([0.0, 5.0, 10.0, 20.0])
            p2_tilde = np.array([0.0, 0.0, 1.0, 0.0])

        traj = propagate_moments(css_state(), params, NoiseChannels(), grid,
                                 populations=Series())
        rate = relaxation_rate(params, np.interp(grid, Series.times,
                                                 Series.p2_tilde))
        decay = np.exp(-0.5 * np.diff(grid) * (rate[:-1] + rate[1:]))
        phi = np.concatenate([[1.0], np.cumprod(decay)])
        np.testing.assert_allclose(traj.phi, phi, rtol=0, atol=1e-13)
        np.testing.assert_allclose(traj.x, 1.0 - phi, rtol=0, atol=1e-13)
