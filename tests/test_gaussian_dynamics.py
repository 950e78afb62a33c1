import math
import warnings
from collections import Counter

import numpy as np
import pytest

from eprsim import gaussian_dynamics as gd
from eprsim.errors import InvariantViolationError
from eprsim.gaussian_dynamics import (
    NoiseChannels,
    Trajectory,
    propagate_moments,
    relaxation_rate,
    trajectory_to_csv,
)
from eprsim.multilevel_rates import PopulationSeries
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


def count_state_checks(monkeypatch) -> Counter:
    """Count the calls of GaussianState.validate and of the engine's
    epr_variance from here on."""
    calls = Counter()
    validate, variance = GaussianState.validate, gd.epr_variance

    def counted_validate(state):
        calls["validate"] += 1
        return validate(state)

    def counted_variance(state):
        calls["epr_variance"] += 1
        return variance(state)
    monkeypatch.setattr(GaussianState, "validate", counted_validate)
    monkeypatch.setattr(gd, "epr_variance", counted_variance)
    return calls


class TestGaussLegendreRule:
    def test_literals_within_an_ulp_of_leggauss(self):
        # written out so that no import loads numpy.polynomial
        nodes, weights = np.polynomial.legendre.leggauss(8)
        for got, want in ((gd._GL_NODES, nodes), (gd._GL_WEIGHTS, weights)):
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    @pytest.mark.parametrize("k", range(16))
    def test_integrates_monomials_exactly(self, k):
        # 8 nodes integrate x^k over [-1, 1] exactly for k <= 15, up to the
        # rounding of eight terms of at most 2 (leggauss's own rule is off
        # by 1.2e-15 at k = 2)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert gd._GL_WEIGHTS @ gd._GL_NODES**k == pytest.approx(
            exact, abs=8 * np.finfo(float).eps)


def moment_derivative(state, params, noise, p2_tilde=1.0, nh_frac=0.0):
    """Time derivative (dmean, dcov) of a Gaussian state under the moment
    equations, written out as a referee for the closed-form engine.

    ``p2_tilde`` = N2 P2 / N throttles the collective rate when the
    population model is coupled in; 1.0 is the fully polarised two-level
    limit.  ``nh_frac`` feeds the pump noise channel.
    """
    g2 = relaxation_rate(params, p2_tilde)
    css = noise.dephasing + noise.pump_noise_rate(nh_frac)
    target = two_mode_squeezed_cov(params.mu, params.nu)
    dmean = -(0.5 * g2 + 0.5 * css) * state.mean
    dcov = -g2 * (state.cov - target) - css * (state.cov - np.eye(4))
    return dmean, dcov


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
        t = 4.0
        half = PopulationSeries(times=[0.0, t], n44=[0.75, 0.75],
                                n43=[0.25, 0.25], nh=[0.0, 0.0])
        assert np.all(half.p2_tilde == 0.5)
        slow = propagate_moments(css_state(), params, noise,
                                 np.array([0.0, t]), populations=half)
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
        params = make_params()
        start = GaussianState(mean=np.zeros(4),
                              cov=two_mode_squeezed_cov(params.mu, params.nu))
        calls = count_state_checks(monkeypatch)
        propagate_moments(start, params, NoiseChannels(),
                          np.linspace(0.0, 5.0, 6))
        assert calls == Counter(validate=1, epr_variance=1)

    def test_css_start_not_validated(self, monkeypatch):
        # the identity covariance with finite means cannot fail the check
        calls = count_state_checks(monkeypatch)
        traj = propagate_moments(css_state(), make_params(), NoiseChannels(),
                                 np.linspace(0.0, 5.0, 6))
        assert calls == Counter()
        assert traj.xi[0] == epr_variance(css_state()).xi

    def test_css_row_is_the_validated_witness(self):
        # the row a CSS start takes is the one validation would give, bit
        # for bit
        r = epr_variance(css_state())
        assert gd._CSS_ROW == (r.var_x_minus, r.var_p_plus, r.xi)

    def test_css_covariance_with_non_finite_mean_refused(self):
        # only the identity with finite means skips the check
        start = GaussianState(mean=[math.nan, 0.0, 0.0, 0.0], cov=np.eye(4))
        with pytest.raises(InvariantViolationError,
                           match="state means are not finite"):
            propagate_moments(start, make_params(), NoiseChannels(),
                              np.linspace(0.0, 5.0, 6))

    @pytest.mark.parametrize("params, noise, pops, cause", [
        (make_params(), NoiseChannels(dephasing=1e308), None, "integral"),
        (make_params(d=1e308, Gamma=10.0), NoiseChannels(), None,
         "d \\* Gamma"),
        # P2 = 0 at the start: inf * 0 would be NaN
        (make_params(d=1e308, Gamma=10.0), NoiseChannels(),
         (0.5, 0.5, 0.0), "d \\* Gamma")],
        ids=["dephasing", "collective", "collective-unpolarised"])
    def test_overflowing_rate_rejected(self, params, noise, pops, cause):
        # refused before the quadrature turns the rates into NaN, with no
        # warning
        grid = np.linspace(0.0, 1.0, 3)
        if pops is not None:
            pops = PopulationSeries(times=grid, n44=[pops[0]] * 3,
                                    n43=[pops[1]] * 3, nh=[pops[2]] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError,
                               match=f"moment rates overflow: .*{cause}"):
                propagate_moments(css_state(), params, noise, grid, pops)

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
        # p2_tilde and nh both varying on the moment grid; the rates are
        # linear between grid points, so a tight DOP853 solve of the
        # (phi, x) ODE per interval is the reference
        from scipy.integrate import solve_ivp

        from eprsim.multilevel_rates import (
            PopulationState,
            propagate_populations,
            transition_rates,
        )

        params = make_params(Gamma_pump=0.168)
        grid = np.linspace(0.5, 19.0, 17)
        pops = propagate_populations(
            PopulationState(n44=0.6, n43=0.2, nh=0.2),
            transition_rates(params, pump=True), grid)
        assert np.ptp(pops.p2_tilde) > 0.1 and np.ptp(pops.nh) > 0.03
        noise = NoiseChannels(dephasing=0.1, pump_refill=0.5)
        traj = propagate_moments(css_state(), params, noise, grid,
                                 populations=pops)

        def rhs(t, y):
            g2 = relaxation_rate(
                params, np.interp(t, pops.times, pops.p2_tilde))
            rate = g2 + noise.dephasing + noise.pump_noise_rate(
                np.interp(t, pops.times, pops.nh))
            return [-rate * y[0], g2 - rate * y[1]]

        ref = [np.array([1.0, 0.0])]
        for a, b in zip(grid[:-1], grid[1:]):
            ref.append(solve_ivp(rhs, (a, b), ref[-1], method="DOP853",
                                 rtol=1e-13, atol=1e-15).y[:, -1])
        ref = np.array(ref)
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
        p2 = np.interp(grid, [0.0, 5.0, 10.0, 20.0], [0.0, 0.0, 1.0, 0.0])
        pops = PopulationSeries(times=grid, n44=0.5 + 0.5 * p2,
                                n43=0.5 - 0.5 * p2, nh=np.zeros(grid.size))
        assert np.all(pops.p2_tilde[[0, 5, 20]] == 0.0)
        traj = propagate_moments(css_state(), params, NoiseChannels(), grid,
                                 populations=pops)
        rate = relaxation_rate(params, pops.p2_tilde)
        decay = np.exp(-0.5 * np.diff(grid) * (rate[:-1] + rate[1:]))
        phi = np.concatenate([[1.0], np.cumprod(decay)])
        np.testing.assert_allclose(traj.phi, phi, rtol=0, atol=1e-13)
        np.testing.assert_allclose(traj.x, 1.0 - phi, rtol=0, atol=1e-13)


class TestPopulationsOnGrid:
    GRID = np.linspace(0.0, 20.0, 21)

    @staticmethod
    def full(times):
        n = len(times)
        return PopulationSeries(times=times, n44=np.ones(n), n43=np.zeros(n),
                                nh=np.zeros(n))

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 20.0, 13), np.linspace(0.0, 25.0, 26),
        np.linspace(0.0, 20.0, 21)[:-1], np.array([0.0, 20.0])],
        ids=["coarser", "longer", "shorter", "ends"])
    def test_other_times_refused(self, times):
        # propagate_moments reads the populations the same way with and
        # without tangents: on the trajectory's own times or not at all
        params = make_params()
        noise = NoiseChannels(dephasing=0.1)
        with pytest.raises(ValueError, match="trajectory's times"):
            propagate_moments(css_state(), params, noise, self.GRID,
                              populations=self.full(times))
        with pytest.raises(ValueError, match="trajectory's times"):
            propagate_moments(css_state(), params, noise, self.GRID,
                              populations=self.full(times),
                              d_rates=np.ones((1, 3)))

    def test_full_polarisation_is_no_populations(self):
        # p2_tilde = 1 and nh = 0 on the grid: the same bits as None
        params = make_params()
        noise = NoiseChannels(dephasing=0.1, pump_refill=0.5)
        plain, full = (propagate_moments(css_state(), params, noise,
                                         self.GRID, populations=pops)
                       for pops in (None, self.full(self.GRID)))
        assert plain.xi.tobytes() == full.xi.tobytes()


def mask_increments(h, g2, rate, partials=False):
    """The engine's increments as they were computed before the slice
    branch: every interval through a boolean mask, the partials' terms
    formed afresh.  Kept as a same-bits referee."""
    with np.errstate(over="ignore"):
        dR = 0.5 * h * (rate[:-1] + rate[1:])
    if not np.isfinite(dR).all():
        raise InvariantViolationError("moment rates overflow")
    inc = np.zeros(dR.shape)
    live = dR > 0
    width = -np.expm1(-dR[live])
    u = -0.5 * (width[:, None] * (1.0 - gd._GL_NODES))
    v = -np.log1p(u) / dR[live, None]
    ga, gb = g2[:-1, None][live], g2[1:, None][live]
    ra, rb = rate[:-1, None][live], rate[1:, None][live]
    rs = np.hypot(np.sqrt(v) * ra, np.sqrt(1.0 - v) * rb)
    f = v * (ra + rb) / (rb + rs)
    q = (gb + f * (ga - gb)) / rs
    inc[live] = 0.5 * width * (q @ gd._GL_WEIGHTS)
    if not partials:
        return dR, inc
    d_width = (1.0 - width) * 0.5 * h[live]
    d_v = (0.5 * (1.0 - gd._GL_NODES) * d_width[:, None] / (1.0 + u)
           - 0.5 * h[live, None] * v) / dR[live, None]
    d_rs = (0.5 * d_v * (ra**2 - rb**2) + np.array([v * ra, (1.0 - v) * rb])
            ) / rs
    d_f = (d_v * (ra + rb) + v
           - f * (d_rs + np.array([0.0, 1.0])[:, None, None])) / (rb + rs)
    d_q = [*((d_f * (ga - gb) - q * d_rs) / rs), f / rs, (1.0 - f) / rs]
    parts = np.zeros((4, h.size))
    parts[:, live] = 0.5 * width * (np.array(d_q) @ gd._GL_WEIGHTS)
    parts[:2, live] += 0.5 * d_width * (q @ gd._GL_WEIGHTS)
    return dR, inc, parts


def list_loop_propagate_moments(initial, params, noise, grid,
                                populations=None, d_rates=None):
    """propagate_moments as it was before the per-direction recursions: phi
    and x in one scalar loop, d_x as one list of P values per time, the
    increments from ``mask_increments``.  Kept as a same-bits referee."""
    grid = np.asarray(grid, dtype=float)
    h = grid[1:] - grid[:-1]
    p2, nh = gd._population_rates(populations, grid)
    g2 = relaxation_rate(params, p2)
    rate = g2 + noise.dephasing + noise.pump_noise_rate(nh)
    dR, inc, *parts = mask_increments(h, g2, rate,
                                      partials=d_rates is not None)
    decay = np.exp(-dR).tolist()
    phi, x = [1.0], [0.0]
    for e, dx in zip(decay, inc.tolist()):
        phi.append(phi[-1] * e)
        x.append(x[-1] * e + dx)
    phi, x = np.array(phi), np.array(x)
    phi, x = phi.clip(0.0, 1.0), x.clip(0.0, 1.0)
    d_weights = None
    if d_rates is not None:
        d_p2 = d_nh = 0.0
        if populations is not None and populations.tangents is not None:
            d_p2, d_nh = populations.d_p2_tilde, populations.tangents[2]
        dd, d_deph, d_refill = np.asarray(d_rates).reshape(-1, 3).T[:, :, None]
        d_g2 = params.Gamma * (dd * p2 + params.d * d_p2)
        d_rate = (d_g2 + d_deph + d_refill * np.maximum(0.0, nh)
                  + noise.pump_refill * (nh > 0) * d_nh)
        ra, rb, ga, gb = parts[0]
        d_dR = 0.5 * h * (d_rate[:, :-1] + d_rate[:, 1:])
        d_inc = (ra * d_rate[:, :-1] + rb * d_rate[:, 1:]
                 + ga * d_g2[:, :-1] + gb * d_g2[:, 1:])
        rows = [[0.0] * len(d_dR)]
        for e, xk, a, b in zip(decay, x.tolist(), d_dR.T.tolist(),
                               d_inc.T.tolist()):
            rows.append([(y - xk * da) * e + di
                         for y, da, di in zip(rows[-1], a, b)])
        d_phi = np.zeros((len(d_dR), grid.size))
        d_dR.cumsum(axis=1, out=d_phi[:, 1:])
        d_weights = (-phi * d_phi, np.array(rows).T)
    return Trajectory(times=grid, phi=phi, x=x, initial=initial,
                      target=two_mode_squeezed_cov(params.mu, params.nu),
                      populations=populations, d_weights=d_weights)


def same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSameBitsReferees:
    """The per-direction recursions, phi by np.multiply.accumulate and the
    slice-indexed increments make the referees' floating-point operations
    in the referees' order, so they give the same bits."""

    @staticmethod
    def setup(pump, n_dirs, n_points, zero_rates):
        from eprsim.multilevel_rates import (
            PopulationState,
            propagate_populations,
            transition_rates,
        )
        rng = np.random.default_rng(7 * n_dirs + n_points + 3 * pump)
        grid = np.linspace(0.0, 40.0, n_points)
        if zero_rates:
            # p2_tilde is 0 on the first two points at least, and the
            # dephasing and the hidden level are 0, so the first interval
            # has zero rate (the mask branch)
            params = make_params(Gamma_tilde=0.0)
            p2 = np.linspace(0.0, 1.0, grid.size)
            p2[:max(2, grid.size // 3)] = 0.0
            tangents = rng.standard_normal((3, n_dirs, grid.size))
            tangents[:, :, p2 == 0] = 0.0
            pops = PopulationSeries(times=grid, n44=0.5 + 0.5 * p2,
                                    n43=0.5 - 0.5 * p2,
                                    nh=np.zeros(grid.size),
                                    tangents=tangents)
            noise = NoiseChannels(pump_refill=0.5 if pump else 0.0)
        else:
            params = make_params(Gamma_pump=0.168 if pump else 0.0)
            pops = propagate_populations(
                PopulationState(n44=0.8, n43=0.1, nh=0.1),
                transition_rates(params, pump=pump), grid,
                d_rates=rng.standard_normal((n_dirs, 5)))
            noise = NoiseChannels.from_params(params, pump=pump)
        return params, noise, grid, pops, rng.standard_normal((n_dirs, 3))

    @pytest.mark.parametrize("zero_rates", [False, True],
                             ids=["slice", "mask"])
    @pytest.mark.parametrize("n_points", [2, 3, 41, 401])
    @pytest.mark.parametrize("n_dirs", [1, 2, 3, 5])
    @pytest.mark.parametrize("pump", [False, True], ids=["no-pump", "pump"])
    def test_trajectory_matches_list_loop(self, pump, n_dirs, n_points,
                                          zero_rates):
        params, noise, grid, pops, d_rates = self.setup(
            pump, n_dirs, n_points, zero_rates)
        start = GaussianState(mean=np.zeros(4),
                              cov=two_mode_squeezed_cov(params.mu, params.nu))
        for initial in (css_state(), start):
            got = propagate_moments(initial, params, noise, grid,
                                    populations=pops, d_rates=d_rates)
            want = list_loop_propagate_moments(
                initial, params, noise, grid, populations=pops,
                d_rates=d_rates)
            for name in ("phi", "x", "xi", "d_xi"):
                same_bits(getattr(got, name), getattr(want, name))
            for g, w in zip(got.d_weights, want.d_weights):
                same_bits(g, w)
            assert (got.phi[1] == 1.0) == zero_rates
            plain = propagate_moments(initial, params, noise, grid,
                                      populations=pops)
            same_bits(plain.phi, want.phi)
            same_bits(plain.x, want.x)

    @pytest.mark.parametrize("zero_rates", [False, True],
                             ids=["slice", "mask"])
    @pytest.mark.parametrize("n_points", [2, 3, 41, 401])
    def test_increments_match_mask_referee(self, n_points, zero_rates):
        rng = np.random.default_rng(n_points)
        h = rng.uniform(0.01, 2.0, n_points - 1)
        rate = rng.uniform(0.0, 5.0, n_points)
        if zero_rates:
            rate[: max(2, n_points // 3)] = 0.0
        g2 = rate * rng.uniform(0.0, 1.0, n_points)
        for partials in (False, True):
            got = gd._increments(h, g2, rate, partials=partials)
            want = mask_increments(h, g2, rate, partials=partials)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                same_bits(g, w)
