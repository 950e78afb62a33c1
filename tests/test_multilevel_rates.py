import numpy as np
import pytest
from scipy.linalg import expm

from eprsim.errors import DegeneratePolarizationError, InvariantViolationError
from eprsim.multilevel_rates import (
    PopulationState,
    PumpConfig,
    RateSet,
    multilevel_entanglement,
    multilevel_xi,
    polarization_slope,
    populations_to_csv,
    propagate_populations,
    rate_matrix,
    sm_variance_drift,
    transition_rates,
)

from test_spin_model import make_params

POP0 = PopulationState(n44=0.99, n43=0.01, nh=0.0)
RATES = RateSet(g34=0.005, g43=0.0042, g_out=0.027, g_in=0.002)


class TestPopulationState:
    def test_derived_quantities(self):
        p = PopulationState(n44=0.8, n43=0.1, nh=0.1)
        assert p.n2_frac == pytest.approx(0.9)
        assert p.p2 == pytest.approx(0.7 / 0.9)
        assert p.p2_tilde == pytest.approx(0.7)
        assert p.jx_frac == pytest.approx(3.5)

    def test_sum_invariant(self):
        with pytest.raises(InvariantViolationError):
            PopulationState(n44=0.5, n43=0.1, nh=0.1)

    def test_nonnegative(self):
        with pytest.raises(InvariantViolationError):
            PopulationState(n44=1.1, n43=-0.1, nh=0.0)


class TestRateMatrix:
    def test_columns_sum_to_zero(self):
        a = rate_matrix(RATES)
        np.testing.assert_allclose(a.sum(axis=0), 0.0, atol=1e-15)
        a = rate_matrix(RATES, PumpConfig(rate=0.168, branching=0.3))
        np.testing.assert_allclose(a.sum(axis=0), 0.0, atol=1e-15)

    def test_transition_rates_from_params(self):
        p = make_params()
        r = transition_rates(p)
        assert r.g34 == pytest.approx(p.mu**2 * p.Gamma + p.Gamma_col)
        assert r.g43 == pytest.approx(p.nu**2 * p.Gamma + p.Gamma_col)
        assert r.g_out == pytest.approx(p.Gamma_L_out + p.Gamma_col)
        assert r.g_in == pytest.approx(p.Gamma_col)


class TestPropagation:
    def test_matches_expm_oracle(self):
        # independent propagation through the matrix exponential
        grid = np.linspace(0.0, 40.0, 17)
        series = propagate_populations(POP0, RATES, grid)
        a = rate_matrix(RATES)
        n0 = np.array([POP0.n44, POP0.n43, POP0.nh])
        for k, t in enumerate(grid):
            ref = expm(a * t) @ n0
            got = np.array([series.n44[k], series.n43[k], series.nh[k]])
            np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_defective_generator(self):
        # the pump alone: double eigenvalue -p with a single eigenvector
        p, b = 0.168, 0.3
        pop0 = PopulationState(n44=0.2, n43=0.3, nh=0.5)
        grid = np.linspace(0.0, 40.0, 21)
        s = propagate_populations(pop0, RateSet(0.0, 0.0, 0.0, 0.0), grid,
                                  PumpConfig(rate=p, branching=b))
        decay = np.exp(-p * grid)
        np.testing.assert_allclose(s.nh, pop0.nh * decay, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            s.n43, decay * (pop0.n43 + (1.0 - b) * p * grid * pop0.nh),
            rtol=0, atol=1e-12)

    def test_conservation(self):
        grid = np.linspace(0.0, 100.0, 41)
        s = propagate_populations(POP0, RATES, grid,
                                  PumpConfig(rate=0.168))
        np.testing.assert_allclose(s.n44 + s.n43 + s.nh, 1.0, atol=1e-9)

    def test_closed_form_n2(self):
        # dN2/dt = -(g_out + 2 g_in) N2 + 2 g_in, solved analytically
        grid = np.linspace(0.0, 30.0, 13)
        s = propagate_populations(POP0, RATES, grid)
        lam = RATES.g_out + 2.0 * RATES.g_in
        n2_inf = 2.0 * RATES.g_in / lam
        ref = n2_inf + (POP0.n2_frac - n2_inf) * np.exp(-lam * grid)
        np.testing.assert_allclose(s.n2_frac, ref, atol=1e-10)

    def test_pump_maintains_polarisation(self):
        grid = np.linspace(0.0, 40.0, 21)
        plain = propagate_populations(POP0, RATES, grid)
        pumped = propagate_populations(POP0, RATES, grid,
                                       PumpConfig(rate=0.168))
        assert pumped.p2_tilde[-1] > plain.p2_tilde[-1]
        assert pumped.n2_frac[-1] > plain.n2_frac[-1]


class TestSlopes:
    def test_polarization_slope_matches_fd(self):
        h = 1e-4
        s = propagate_populations(POP0, RATES, np.array([0.0, h, 2 * h]))
        jx = s.jx_frac / s.jx_frac[0]
        fd = (jx[2] - jx[0]) / (2 * h)
        assert polarization_slope(POP0, RATES) == pytest.approx(fd, abs=1e-6)

    def test_polarization_slope_degenerate(self):
        empty = PopulationState(n44=0.0, n43=0.0, nh=1.0)
        with pytest.raises(DegeneratePolarizationError):
            polarization_slope(empty, RATES)

    def test_variance_slope_matches_own_drift_series(self):
        # integrate the drift expression along the population flow and
        # compare its t=0 finite difference with the closed form
        from scipy.integrate import solve_ivp
        params = make_params()
        grid = np.linspace(0.0, 0.02, 5)
        pops = propagate_populations(POP0, RATES, grid)

        def rhs(t, v):
            k = np.searchsorted(grid, t)
            k = min(k, len(pops.states) - 1)
            return [sm_variance_drift(pops.states[k], params, RATES)]

        sol = solve_ivp(rhs, (0.0, grid[-1]), [1.0], t_eval=grid,
                        rtol=1e-10, atol=1e-12)
        fd = (sol.y[0, 1] - sol.y[0, 0]) / (grid[1] - grid[0])
        assert sm_variance_drift(POP0, params, RATES) == pytest.approx(
            fd, rel=1e-3)

    def test_collective_term_vanishes_at_squeeze_floor(self):
        params = make_params()
        s2 = params.squeeze_sq
        pop = PopulationState(n44=(1 + s2) / 2, n43=(1 - s2) / 2, nh=0.0)
        drift = sm_variance_drift(pop, params, RATES)
        no_coll = (7.0 * RATES.g_in * pop.p2
                   - 7.0 * (RATES.g_out + RATES.g34 - RATES.g43) * pop.n43)
        assert drift == pytest.approx(no_coll, abs=1e-12)


class TestMultilevelWitness:
    def test_fully_polarised_reduces_to_gaussian(self):
        pop = PopulationState(n44=1.0, n43=0.0, nh=0.0)
        for xi_g in (0.16, 0.5, 1.0, 2.0):
            assert multilevel_xi(xi_g, pop) == pytest.approx(xi_g, abs=1e-12)

    def test_n43_noise_raises_witness(self):
        pop = PopulationState(n44=0.95, n43=0.05, nh=0.0)
        assert multilevel_xi(1.0, pop) > 1.0

    def test_extensive_form(self):
        pop = PopulationState(n44=0.9, n43=0.05, nh=0.05, N=100.0)
        sigma_j = 2.0 * pop.Jx * 0.5
        expected = (sigma_j + 14.0 * pop.N * pop.n43) / (
            pop.N2 * (pop.p2 + 7.0))
        assert multilevel_entanglement(sigma_j, pop) == pytest.approx(expected)

    def test_empty_subsystem(self):
        pop = PopulationState(n44=0.0, n43=0.0, nh=1.0)
        with pytest.raises(DegeneratePolarizationError):
            multilevel_entanglement(1.0, pop)


class TestCsv:
    def test_shared_schema(self):
        s = propagate_populations(POP0, RATES, np.linspace(0.0, 5.0, 3))
        lines = populations_to_csv(s).strip().splitlines()
        assert lines[0] == "time_ms,var_x_minus,var_p_plus,xi,Jx_norm,N2,P2"
        row = lines[1].split(",")
        assert row[1] == row[2] == row[3] == ""
        assert float(row[4]) == pytest.approx(1.0)


class TestSeriesArrays:
    def test_vectorised_witness_matches_per_state(self):
        s = propagate_populations(POP0, RATES, np.linspace(0.0, 30.0, 16),
                                  pump=PumpConfig(rate=0.1))
        xi = np.linspace(0.2, 1.5, s.times.size)
        np.testing.assert_array_equal(
            multilevel_xi(xi, s),
            [multilevel_xi(x, st) for x, st in zip(xi, s.states)])
        np.testing.assert_array_equal(s.p2, [st.p2 for st in s.states])

    @pytest.mark.parametrize("n44", [np.nan, np.inf, -0.1, 0.5])
    def test_bad_fractions_rejected(self, n44):
        from eprsim.multilevel_rates import PopulationSeries
        with pytest.raises(InvariantViolationError):
            PopulationSeries(times=[0.0, 1.0], n44=[1.0, n44],
                             n43=[0.0, 0.0], nh=[0.0, 0.0])
