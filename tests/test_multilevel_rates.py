import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from eprsim import multilevel_rates as mr
from eprsim.cli import main
from eprsim.errors import DegeneratePolarizationError, InvariantViolationError
from eprsim.gaussian_dynamics import series_columns
from eprsim.multilevel_rates import (
    PopulationSeries,
    PopulationState,
    RateSet,
    multilevel_xi,
    polarization_slope,
    propagate_populations,
    rate_matrix,
    transition_rates,
)
from eprsim.scenarios import inclusive_range, scenario_params

from test_spin_model import make_params

POP0 = PopulationState(n44=0.99, n43=0.01, nh=0.0)
RATES = RateSet(g34=0.005, g43=0.0042, g_out=0.027, g_in=0.002)
PUMPED = replace(RATES, pump=0.168)


def one_point(n44, n43, nh):
    """A one-point PopulationSeries: the derived fractions live there."""
    return PopulationSeries(times=[0.0], n44=[n44], n43=[n43], nh=[nh])


class TestPopulationState:
    def test_derived_quantities(self):
        p = one_point(0.8, 0.1, 0.1)
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
        a = rate_matrix(PUMPED)
        np.testing.assert_allclose(a.sum(axis=0), 0.0, atol=1e-15)

    def test_transition_rates_from_params(self):
        p = make_params()
        r = transition_rates(p)
        assert r.g34 == pytest.approx(p.mu**2 * p.Gamma + p.Gamma_col)
        assert r.g43 == pytest.approx(p.nu**2 * p.Gamma + p.Gamma_col)
        assert r.g_out == pytest.approx(p.Gamma_L_out + p.Gamma_col)
        assert r.g_in == pytest.approx(p.Gamma_col)
        assert r.pump == 0.0
        assert transition_rates(p.replace(Gamma_pump=0.168),
                                pump=True).pump == 0.168


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

    @pytest.mark.parametrize("pump", [False, True], ids=["no-pump", "pump"])
    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
    def test_matches_scipy_on_scenario_grids(self, name, pump):
        # the scenarios' own generators and 0-45 ms grid, against the
        # independent scipy matrix exponential
        rates = transition_rates(scenario_params(name), pump=pump)
        grid = np.arange(0.0, 45.125, 0.25)
        s = propagate_populations(POP0, rates, grid)
        n0 = np.array([POP0.n44, POP0.n43, POP0.nh])
        ref = expm(rate_matrix(rates) * grid[:, None, None]) @ n0
        np.testing.assert_allclose(np.stack([s.n44, s.n43, s.nh], axis=1),
                                   ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("horizon, atol", [(3.0, 1e-14), (1e3, 1e-11)],
                             ids=["short", "long"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy_on_random_generators(self, seed, horizon, atol):
        # every column of exp(A t), out to t ||A||_1 = horizon; the long
        # horizon takes about 11 squarings, the short one tests the Taylor
        # polynomial itself
        rng = np.random.default_rng(seed)
        rates = RateSet(*rng.uniform(0.0, 1.0, 4),
                        pump=rng.uniform(0.0, 1.0) if seed % 2 else 0.0)
        a = rate_matrix(rates)
        grid = np.linspace(0.0, horizon / np.abs(a).sum(axis=0).max(), 41)
        ref = expm(a * grid[:, None, None])
        for j, n0 in enumerate(np.eye(3)):
            s = propagate_populations(PopulationState(*n0), rates, grid)
            np.testing.assert_allclose(np.stack([s.n44, s.n43, s.nh], axis=1),
                                       ref[:, :, j], rtol=0, atol=atol)

    @pytest.mark.parametrize("rates", [RATES, PUMPED], ids=["plain", "pump"])
    def test_start_is_exact(self, rates):
        # exp(0) is the identity; fractions summing to 1 in floating point
        # also pass the renormalisation unchanged
        pop0 = PopulationState(n44=0.625, n43=0.25, nh=0.125)
        s = propagate_populations(pop0, rates, np.array([3.0, 4.0]))
        assert (s.n44[0], s.n43[0], s.nh[0]) == (0.625, 0.25, 0.125)

    @pytest.mark.parametrize("grid", [[0.0, 10.0, 5.0], [0.0, 1.0, 1.0],
                                      [10.0, 0.0]],
                             ids=["unsorted", "repeated", "backwards"])
    def test_grid_must_increase(self, grid):
        # a backwards step used to run the rates backwards in time
        with pytest.raises(ValueError, match="strictly increase"):
            propagate_populations(POP0, RATES, np.array(grid))

    def test_unrepresentable_horizon_is_nan(self):
        # past the squaring cap the points are NaN, which the population
        # check refuses; no overflow on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError, match="finite"):
                propagate_populations(POP0, RATES, np.array([0.0, 1e300]))

    def test_defective_generator(self):
        # the pump alone: double eigenvalue -p with a single eigenvector;
        # half of the refilled atoms land in |4,+/-3>
        p, b = 0.168, 0.5
        pop0 = PopulationState(n44=0.2, n43=0.3, nh=0.5)
        grid = np.linspace(0.0, 40.0, 21)
        s = propagate_populations(pop0, RateSet(0.0, 0.0, 0.0, 0.0, pump=p),
                                  grid)
        decay = np.exp(-p * grid)
        np.testing.assert_allclose(s.nh, pop0.nh * decay, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            s.n43, decay * (pop0.n43 + (1.0 - b) * p * grid * pop0.nh),
            rtol=0, atol=1e-12)

    def test_conservation(self):
        grid = np.linspace(0.0, 100.0, 41)
        s = propagate_populations(POP0, PUMPED, grid)
        np.testing.assert_allclose(s.n44 + s.n43 + s.nh, 1.0, atol=1e-9)

    def test_closed_form_n2(self):
        # dN2/dt = -(g_out + 2 g_in) N2 + 2 g_in, solved analytically
        grid = np.linspace(0.0, 30.0, 13)
        s = propagate_populations(POP0, RATES, grid)
        lam = RATES.g_out + 2.0 * RATES.g_in
        n2_inf = 2.0 * RATES.g_in / lam
        ref = n2_inf + (POP0.n44 + POP0.n43 - n2_inf) * np.exp(-lam * grid)
        np.testing.assert_allclose(s.n2_frac, ref, atol=1e-10)

    def test_pump_maintains_polarisation(self):
        grid = np.linspace(0.0, 40.0, 21)
        plain = propagate_populations(POP0, RATES, grid)
        pumped = propagate_populations(POP0, PUMPED, grid)
        assert pumped.p2_tilde[-1] > plain.p2_tilde[-1]
        assert pumped.n2_frac[-1] > plain.n2_frac[-1]

    @pytest.mark.parametrize("grid", [[0.0, math.inf], [math.nan],
                                      [0.0, math.nan]],
                             ids=["inf", "nan", "zero-nan"])
    def test_non_finite_grid_rejected(self, grid):
        # each used to fail the population invariant ("need atom number N")
        with pytest.raises(ValueError, match="finite"):
            propagate_populations(POP0, RATES, np.array(grid))


def mask_loop_expm_grid(a, t):
    """_expm_grid with its squarings done through boolean masks, one copy
    of the squared points per squaring: the referee of the in-place
    suffix squaring."""
    n = a.shape[0]
    norm = np.abs(a).sum(axis=0).max()
    b = a / norm if norm > 0 else a
    terms = [np.eye(n)]
    for j in range(1, mr._TAYLOR_DEGREE + 1):
        terms.append(terms[-1] @ b / j)
    tau = t * norm
    s = np.maximum(np.frexp(2.0 * tau)[1], 0)
    ok = s <= mr._MAX_SQUARINGS
    s = np.where(ok, s, 0)
    h = np.where(ok, np.ldexp(tau, -s), 0.0)
    e = (h[:, None] ** np.arange(mr._TAYLOR_DEGREE + 1)
         @ np.reshape(terms, (mr._TAYLOR_DEGREE + 1, n * n))).reshape(-1, n, n)
    for i in range(s.max()):
        sq = s > i
        e[sq] = e[sq] @ e[sq]
    e[~ok] = np.nan
    return e


def _van_loan_block():
    # the 6x6 generator propagate_populations exponentiates for one
    # direction
    block = np.kron(np.eye(2), rate_matrix(PUMPED))
    block[:3, 3:] = rate_matrix(RATES)
    return block


class TestExpmGrid:
    @pytest.mark.parametrize("a", [rate_matrix(PUMPED), _van_loan_block()],
                             ids=["3x3", "6x6"])
    @pytest.mark.parametrize("squarings", range(6))
    def test_suffix_squaring_matches_mask_loop(self, a, squarings):
        norm = np.abs(a).sum(axis=0).max()
        # 2 tau just below 2^squarings at the last point
        t = np.linspace(0.0, (2.0**squarings - 0.01) / (2.0 * norm), 37)
        assert np.frexp(2.0 * t[-1] * norm)[1] == squarings
        assert mr._expm_grid(a, t).tobytes() == \
            mask_loop_expm_grid(a, t).tobytes()

    def test_nan_tail_matches_mask_loop(self):
        # past 2^52 squarings the points are NaN, after finite ones that
        # need from 0 to 50 squarings
        a = rate_matrix(PUMPED)
        t = np.concatenate([np.geomspace(1e-3, 1e15, 60), [1e300, 1e301]])
        got = mr._expm_grid(a, t)
        assert np.isnan(got[-2:]).all() and np.isfinite(got[:-2]).all()
        assert got.tobytes() == mask_loop_expm_grid(a, t).tobytes()

    @pytest.mark.parametrize("a", [rate_matrix(PUMPED), _van_loan_block()],
                             ids=["3x3", "6x6"])
    def test_chunks_match_whole_grid(self, a, monkeypatch):
        # two chunks of 32 points: squaring counts change inside both and
        # the NaN tail ends the second, and the bits are the whole grid's
        t = np.concatenate([[0.0], np.geomspace(1e-3, 1e15, 60),
                            [1e300, 1e301]])
        monkeypatch.setattr(mr, "_CHUNK_POINTS", 32)
        got = mr._expm_grid(a, t)
        assert np.isnan(got[-2:]).all() and np.isfinite(got[:-2]).all()
        assert got.tobytes() == mask_loop_expm_grid(a, t).tobytes()

    @pytest.mark.parametrize("rates", [
        RateSet(g34=1e308, g43=1e308, g_out=0.027, g_in=0.002),
        replace(RATES, g_out=1.7e308),
        replace(RATES, pump=1e308)], ids=["collisions", "loss", "pump"])
    def test_overflowing_norm_rejected(self, rates):
        # each rate finite, the generator's 1-norm not: refused before the
        # scaling divides by it, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError, match="norm"):
                propagate_populations(POP0, rates, [0.0, 0.5, 1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_width_is_nan(self):
        # a finite norm whose product with the width overflows: NaN like a
        # point past _MAX_SQUARINGS, not an overflow warning, and refused
        rates = RateSet(g34=1e200, g43=1e200, g_out=0.027, g_in=0.002)
        grid = [0.0, 1e-205, 1e108, 1e200]
        got = mr._expm_grid(rate_matrix(rates), np.array(grid))
        assert np.isfinite(got[:2]).all() and np.isnan(got[2:]).all()
        with pytest.raises(InvariantViolationError, match="finite"):
            propagate_populations(POP0, rates, grid)

    def test_memory_bounded_on_long_grid(self):
        # a million points: the output and the series dominate; whole-grid
        # Taylor powers and squaring copies peaked at 241-253 MB
        grid = inclusive_range(0.0, 40.0, 4.0001e-5)
        assert grid.size == 999_976
        tracemalloc.start()
        try:
            series = propagate_populations(POP0, PUMPED, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(series.n44).all()
        assert peak < 160e6

    def test_artifacts_unchanged(self, monkeypatch, tmp_path):
        # populations and fig2a-fig2c write the same bytes as under the
        # mask loop
        runs = [["populations", "--grid", "0,100,0.01"],
                *(["scenario", name] for name in ("fig2a", "fig2b", "fig2c"))]

        def digests(out):
            for k, argv in enumerate(runs):
                assert main([*argv, "--out", str(out / str(k))]) == 0
            return {f.relative_to(out): hashlib.sha256(f.read_bytes())
                    .hexdigest() for f in sorted(out.rglob("*.*"))}
        new = digests(tmp_path / "new")
        monkeypatch.setattr(mr, "_expm_grid", mask_loop_expm_grid)
        assert digests(tmp_path / "mask") == new


class TestSlopes:
    @pytest.mark.parametrize("pump", [False, True], ids=["no-pump", "pump"])
    @pytest.mark.parametrize("pops", [(0.99, 0.01, 0.0), (0.8, 0.1, 0.1)],
                             ids=["pop0", "hidden"])
    def test_polarization_slope_matches_fd(self, pops, pump):
        # the hidden-level refill and the pump move the slope too
        # (fig2c: -0.028028, -0.027607, -0.027384, -0.005784)
        pop0 = PopulationState(*pops)
        rates = transition_rates(scenario_params("fig2c"), pump=pump)
        h = 1e-5
        s = propagate_populations(pop0, rates, np.array([0.0, h, 2 * h]))
        jx = s.jx_frac / s.jx_frac[0]
        fd = (jx[2] - jx[0]) / (2 * h)
        assert polarization_slope(pop0, rates) == pytest.approx(fd, abs=1e-6)

    def test_polarization_slope_degenerate(self):
        empty = PopulationState(n44=0.0, n43=0.0, nh=1.0)
        with pytest.raises(DegeneratePolarizationError):
            polarization_slope(empty, RATES)


class TestMultilevelWitness:
    def test_fully_polarised_reduces_to_gaussian(self):
        pop = one_point(1.0, 0.0, 0.0)
        for xi_g in (0.16, 0.5, 1.0, 2.0):
            assert multilevel_xi(xi_g, pop) == pytest.approx(xi_g, abs=1e-12)

    def test_n43_noise_raises_witness(self):
        pop = one_point(0.95, 0.05, 0.0)
        assert multilevel_xi(1.0, pop) > 1.0

    def test_closed_form(self):
        # xi = (Sigma_J + 14 n43) / (n2 (P2 + 7)), Sigma_J = 2 <J_x> xi_gauss
        pop = one_point(0.9, 0.05, 0.05)
        sigma_j = 2.0 * (4.0 * 0.9 + 3.0 * 0.05) * 0.5
        expected = (sigma_j + 14.0 * 0.05) / (0.95 * (0.85 / 0.95 + 7.0))
        assert multilevel_xi(0.5, pop) == pytest.approx(expected, rel=1e-14)

    def test_empty_subsystem(self):
        pop = one_point(0.0, 0.0, 1.0)
        with pytest.raises(DegeneratePolarizationError):
            multilevel_xi(1.0, pop)


class TestCsv:
    def test_shared_schema(self):
        s = propagate_populations(POP0, RATES, np.linspace(0.0, 5.0, 3))
        cols = series_columns(s.times, pops=s)
        assert list(cols) == ["time_ms", "var_x_minus", "var_p_plus", "xi",
                              "Jx_norm", "N2", "P2"]
        assert cols["var_x_minus"] is cols["var_p_plus"] is cols["xi"] is None
        assert cols["Jx_norm"][0] == pytest.approx(1.0)

    def test_zero_initial_spin_rejected(self):
        s = propagate_populations(PopulationState(n44=0.0, n43=0.0, nh=1.0),
                                  RATES, np.linspace(0.0, 5.0, 3))
        with pytest.raises(DegeneratePolarizationError):
            series_columns(s.times, pops=s)


class TestSeriesArrays:
    @pytest.mark.parametrize("n44", [np.nan, np.inf, -0.1, 0.5])
    def test_bad_fractions_rejected(self, n44):
        with pytest.raises(InvariantViolationError):
            PopulationSeries(times=[0.0, 1.0], n44=[1.0, n44],
                             n43=[0.0, 0.0], nh=[0.0, 0.0])
