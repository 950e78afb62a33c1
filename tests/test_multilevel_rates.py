import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import lindblad_oracle as lo
from eprsim import multilevel_rates as mr
from eprsim.errors import DegeneratePolarizationError, InvariantViolationError
from eprsim.estimation import _STEP
from eprsim.gaussian_dynamics import NoiseChannels
from eprsim.lindblad_oracle import (
    ExactState,
    integrate_exact,
    validate_against_oracle,
)
from eprsim.multilevel_rates import (
    PopulationSeries,
    PopulationState,
    RateSet,
    multilevel_xi,
    polarization_slope,
    propagate_populations,
    rate_matrix,
    series_columns,
    transition_rates,
)
from eprsim.scenarios import inclusive_range, scenario_params

from test_spin_model import make_params

POP0 = PopulationState(n44=0.99, n43=0.01, nh=0.0)
RATES = RateSet(g34=0.005, g43=0.0042, g_out=0.027, g_in=0.002)
PUMPED = replace(RATES, pump=0.168)


def steady_state(rates):
    """(n2, D = n44 - n43) as t -> inf from fractions summing to 1, at the
    equal pump split: n2 = (2 g_in + pump) / a with a = g_out + 2 g_in +
    pump, and D = k n2 / lam with k = g34 - g43 + pump and lam = g34 + g43
    + g_out + pump."""
    a = rates.g_out + 2.0 * rates.g_in + rates.pump
    lam = rates.g34 + rates.g43 + rates.g_out + rates.pump
    n2 = (2.0 * rates.g_in + rates.pump) / a
    return n2, (rates.g34 - rates.g43 + rates.pump) * n2 / lam


def _random_rates(seed):
    rng = np.random.default_rng(seed)
    return RateSet(*rng.uniform(0.0, 1.0, 4),
                   pump=rng.uniform(0.0, 1.0) if seed % 2 else 0.0)


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
        expm = pytest.importorskip("scipy.linalg").expm
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
        expm = pytest.importorskip("scipy.linalg").expm
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
        # every column of exp(A t), out to t ||A||_1 = horizon
        expm = pytest.importorskip("scipy.linalg").expm
        rates = _random_rates(seed)
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

    def test_extreme_horizon_is_steady_state(self):
        # the closed form holds at any finite horizon: 1e300 ms is the
        # steady state, with no overflow on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = propagate_populations(POP0, RATES, np.array([0.0, 1e300]))
        n2_inf, d_inf = steady_state(RATES)
        assert abs(s.n2_frac[-1] - n2_inf) <= 1e-15
        assert abs(s.n44[-1] - s.n43[-1] - d_inf) <= 1e-15

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


def van_loan_propagate_populations(initial, rates, grid, d_rates):
    """The propagation by matrix exponential, the referee of the closed
    form: the derivative of exp(A t) along E is the upper-right block of
    exp([[A, E], [0, A]] t) (Van Loan 1978), so one ``_expm_grid`` call on
    [[A, E_1 .. E_k], [0, diag(A .. A)]] over the directions with E != 0
    gives the series and, as its ``tangents`` (3, P, len(grid)), the
    derivatives of (n44, n43, nh) along the P directions ``d_rates``, each
    E_i scaled to the 1-norm of A so the scaling step is that of A."""
    grid = np.asarray(grid, dtype=float)
    n0 = np.array([initial.n44, initial.n43, initial.nh])
    a, t = rate_matrix(rates), grid - grid[0]
    d_a = np.array([mr._generator(*d)
                    for d in np.asarray(d_rates).reshape(-1, 5)])
    norm = np.abs(d_a).sum(axis=1).max(axis=1)  # 1-norm of each E_i
    live = norm > 0
    k = np.count_nonzero(live)
    scale = (np.abs(a).sum(axis=0).max() or 1.0) / norm[live]
    block = np.zeros((3 * k + 3, 3 * k + 3))  # (k + 1)^2 blocks of 3 x 3
    for i in range(0, 3 * k + 3, 3):
        block[i:i + 3, i:i + 3] = a
    block[:3, 3:] = (d_a[live] * scale[:, None, None]).transpose(
        1, 0, 2).reshape(3, -1)
    e = lo._expm_grid(block, t)[:, :3]
    sol = (e[:, :, :3] @ n0).T
    d_sol = np.zeros((3, len(d_a), t.size))
    d_sol[:, live] = (e[:, :, 3:].reshape(t.size, 3, k, 3) @ n0
                      / scale).transpose(1, 2, 0)
    sol = np.maximum(sol, 0.0)
    sol /= sol.sum(axis=0, keepdims=True)
    series = PopulationSeries(times=grid, n44=sol[0], n43=sol[1], nh=sol[2])
    series.tangents = (d_sol - sol[:, None] * d_sol.sum(axis=0)) / n0.sum()
    return series


# a = g_out + 2 g_in + pump and lam = g34 + g43 + g_out + pump, the rates of
# n2 and of D = n44 - n43; dyadic rates make a == lam exactly
DEGENERATE_RATES = {
    "a-zero": RateSet(g34=0.005, g43=0.0042, g_out=0.0, g_in=0.0),
    "a-equals-lam": RateSet(g34=0.25, g43=0.125, g_out=0.5, g_in=0.1875),
    "a-equals-lam-pump": RateSet(g34=0.25, g43=0.125, g_out=0.5,
                                 g_in=0.1875, pump=0.0625),
    "all-zero": RateSet(0.0, 0.0, 0.0, 0.0),
    "pump-only": RateSet(0.0, 0.0, 0.0, 0.0, pump=0.168),
}
REFEREE_RATES = {
    **{f"{name}{'-pump' * pump}": transition_rates(
        scenario_params(name), pump=pump)
       for name in ("fig2a", "fig2b", "fig2c") for pump in (False, True)},
    **{f"random-{seed}": _random_rates(seed) for seed in range(6)},
    **DEGENERATE_RATES,
}


class TestVanLoanReferee:
    D_RATES = np.vstack([np.eye(5), np.zeros(5),
                         np.random.default_rng(7).standard_normal((3, 5))])

    @staticmethod
    def grid(rates, horizon):
        norm = np.abs(rate_matrix(rates)).sum(axis=0).max() or 1.0
        return np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 40)]) \
            * horizon / norm

    @pytest.mark.parametrize("horizon", [3.0, 30.0, 1e3],
                             ids=["short", "mid", "long"])
    @pytest.mark.parametrize("pops", [(0.99, 0.01, 0.0), (0.2, 0.3, 0.5)],
                             ids=["pop0", "hidden"])
    @pytest.mark.parametrize("rates", REFEREE_RATES)
    def test_closed_form_matches_van_loan(self, rates, pops, horizon):
        # values within 1e-14, from t = 0 to t ||A||_1 = horizon (t =
        # horizon where A = 0)
        rates, pop0 = REFEREE_RATES[rates], PopulationState(*pops)
        grid = self.grid(rates, horizon)
        got = propagate_populations(pop0, rates, grid)
        want = van_loan_propagate_populations(pop0, rates, grid,
                                              self.D_RATES)
        drift = 0.0
        if rates.g_out == rates.g_in == rates.pump == 0.0:
            # a = 0 conserves n2, which the closed form holds to the bit;
            # the referee's squarings (11 at t ||A||_1 = 1e3) drift it, by
            # 1.4e-13 from the hidden start, and that drift is the referee's
            assert (got.n2_frac == got.n2_frac[0]).all()
            drift = np.abs(want.n2_frac - want.n2_frac[0]).max()
        for n in ("n44", "n43", "nh"):
            np.testing.assert_allclose(getattr(got, n), getattr(want, n),
                                       rtol=0, atol=1e-14 + drift)

    @pytest.mark.parametrize("horizon", [3.0, 30.0, 1e3],
                             ids=["short", "mid", "long"])
    @pytest.mark.parametrize("pops", [(0.99, 0.01, 0.0), (0.2, 0.3, 0.5)],
                             ids=["pop0", "hidden"])
    @pytest.mark.parametrize("rates", REFEREE_RATES)
    def test_complex_step_matches_van_loan(self, rates, pops, horizon):
        # the tangents as the fit takes them, one complex step through the
        # closed form and the renormalisation: each direction's within
        # 1e-12 of its largest, along each rate, one that moves none and
        # random ones
        rates = REFEREE_RATES[rates]
        grid = self.grid(rates, horizon)
        want = van_loan_propagate_populations(
            PopulationState(*pops), rates, grid, self.D_RATES).tangents
        r = np.array([rates.g34, rates.g43, rates.g_out, rates.g_in,
                      rates.pump])
        got = mr._renormalised(np.array([
            mr._closed_form(pops, grid - grid[0], *z)
            for z in (r + 1j * _STEP * self.D_RATES).tolist()]).swapaxes(
                0, 1)).imag / _STEP
        assert not got[:, 5].any()
        for p in range(len(self.D_RATES)):
            err = np.abs(got[:, p] - want[:, p]).max()
            assert err <= 1e-12 * np.abs(want[:, p]).max(), p


def mask_loop_expm_grid(a, t):
    """_expm_grid with its squarings done through boolean masks, one copy
    of the squared points per squaring: the referee of the in-place
    suffix squaring."""
    n = a.shape[0]
    norm = np.abs(a).sum(axis=0).max()
    b = a / norm if norm > 0 else a
    terms = [np.eye(n)]
    for j in range(1, lo._TAYLOR_DEGREE + 1):
        terms.append(terms[-1] @ b / j)
    tau = t * norm
    s = np.maximum(np.frexp(2.0 * tau)[1], 0)
    ok = s <= lo._MAX_SQUARINGS
    s = np.where(ok, s, 0)
    h = np.where(ok, np.ldexp(tau, -s), 0.0)
    e = (h[:, None] ** np.arange(lo._TAYLOR_DEGREE + 1)
         @ np.reshape(terms, (lo._TAYLOR_DEGREE + 1, n * n))).reshape(-1, n, n)
    for i in range(s.max()):
        sq = s > i
        e[sq] = e[sq] @ e[sq]
    e[~ok] = np.nan
    return e


def _van_loan_block():
    # the 6x6 generator van_loan_propagate_populations exponentiates for
    # one direction
    block = np.kron(np.eye(2), rate_matrix(PUMPED))
    block[:3, 3:] = rate_matrix(RATES)
    return block


class TestVanLoanBlock:
    @pytest.mark.parametrize("n_dirs", [1, 3, 5])
    @pytest.mark.parametrize("pump", [False, True], ids=["no-pump", "pump"])
    def test_block_is_the_fancy_indexed_one(self, pump, n_dirs,
                                            monkeypatch):
        # the referee's block, built by slices, holds the bits of the (k +
        # 1, 3, k + 1, 3) array filled by fancy indexing, for every live
        # direction
        rates = transition_rates(make_params(Gamma_pump=0.168), pump=pump)
        d_rates = np.random.default_rng(n_dirs).standard_normal((n_dirs, 5))
        d_rates[0] = 0.0  # a direction that moves no rate is left out
        blocks, expm_grid = [], lo._expm_grid

        def kept(a, t):
            blocks.append(a.copy())
            return expm_grid(a, t)
        monkeypatch.setattr(lo, "_expm_grid", kept)
        van_loan_propagate_populations(POP0, rates,
                                       np.linspace(0.0, 40.0, 41), d_rates)
        a = rate_matrix(rates)
        d_a = np.array([mr._generator(*d) for d in d_rates])
        norm = np.abs(d_a).sum(axis=1).max(axis=1)
        live = norm > 0
        k = np.count_nonzero(live)
        scale = np.abs(a).sum(axis=0).max() / norm[live]
        want = np.zeros((k + 1, 3, k + 1, 3))
        want[range(k + 1), :, range(k + 1)] = a
        want[0, :, 1:] = (d_a[live] * scale[:, None, None]).transpose(1, 0, 2)
        assert blocks[0].tobytes() == want.reshape(3 * k + 3, -1).tobytes()


class TestExpmGrid:
    # lindblad_oracle._expm_grid, on the population generators and a Van
    # Loan block of them
    @pytest.mark.parametrize("a", [rate_matrix(PUMPED), _van_loan_block()],
                             ids=["3x3", "6x6"])
    @pytest.mark.parametrize("squarings", range(6))
    def test_suffix_squaring_matches_mask_loop(self, a, squarings):
        norm = np.abs(a).sum(axis=0).max()
        # 2 tau just below 2^squarings at the last point
        t = np.linspace(0.0, (2.0**squarings - 0.01) / (2.0 * norm), 37)
        assert np.frexp(2.0 * t[-1] * norm)[1] == squarings
        assert lo._expm_grid(a, t).tobytes() == \
            mask_loop_expm_grid(a, t).tobytes()

    def test_nan_tail_matches_mask_loop(self):
        # past 2^52 squarings the points are NaN, after finite ones that
        # need from 0 to 50 squarings
        a = rate_matrix(PUMPED)
        t = np.concatenate([np.geomspace(1e-3, 1e15, 60), [1e300, 1e301]])
        got = lo._expm_grid(a, t)
        assert np.isnan(got[-2:]).all() and np.isfinite(got[:-2]).all()
        assert got.tobytes() == mask_loop_expm_grid(a, t).tobytes()

    @pytest.mark.parametrize("a", [rate_matrix(PUMPED), _van_loan_block()],
                             ids=["3x3", "6x6"])
    def test_chunks_match_whole_grid(self, a, monkeypatch):
        # two chunks of 32 points: squaring counts change inside both and
        # the NaN tail ends the second, and the bits are the whole grid's
        t = np.concatenate([[0.0], np.geomspace(1e-3, 1e15, 60),
                            [1e300, 1e301]])
        monkeypatch.setattr(lo, "_CHUNK_POINTS", 32)
        got = lo._expm_grid(a, t)
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
    def test_overflowing_width_nan_in_expm_grid_steady_in_populations(self):
        # a finite norm whose product with the width overflows: NaN like a
        # point past _MAX_SQUARINGS, not an overflow warning; the closed
        # form reads the steady state there
        rates = RateSet(g34=1e200, g43=1e200, g_out=0.027, g_in=0.002)
        grid = [0.0, 1e-205, 1e108, 1e200]
        got = lo._expm_grid(rate_matrix(rates), np.array(grid))
        assert np.isfinite(got[:2]).all() and np.isnan(got[2:]).all()
        s = propagate_populations(POP0, rates, grid)
        n2_inf, d_inf = steady_state(rates)
        assert np.abs(s.n2_frac[2:] - n2_inf).max() <= 1e-15
        assert np.abs(s.n44[2:] - s.n43[2:] - d_inf).max() <= 1e-15

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

    def test_artifacts_unchanged(self, monkeypatch):
        # the Lindblad oracle's check and its state stack hold the same
        # bytes as under the mask loop; no population artifact uses it
        times = np.cumsum([0.0, 0.5, 3.0, 0.01, 40.0, 7.5, 1e3])

        def oracle():
            out = []
            for name, deph in (("fig2a", 0.0), ("fig2c", 0.02)):
                params = scenario_params(name)
                noise = NoiseChannels(dephasing=deph)
                out.append(validate_against_oracle(params, 2.0, noise))
                out.append(integrate_exact(ExactState.css(), params, noise,
                                           times).tobytes())
            return out
        new = oracle()
        monkeypatch.setattr(lo, "_expm_grid", mask_loop_expm_grid)
        assert oracle() == new


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

    @pytest.mark.parametrize("pump", [False, True], ids=["no-pump", "pump"])
    @pytest.mark.parametrize("name", ["fig2a", "fig2c"])
    def test_columns_are_the_series_own(self, name, pump):
        # the columns read the series on its own times: the bits of the
        # interpolation onto those times that they used to go through
        s = propagate_populations(
            PopulationState(n44=0.8, n43=0.1, nh=0.1),
            transition_rates(scenario_params(name), pump=pump),
            inclusive_range(0.0, 60.0, 0.05))
        cols = series_columns(s.times, pops=s)
        for key, v, scale in (("Jx_norm", s.jx_frac, s.jx_frac[0]),
                              ("N2", s.n2_frac, 1.0), ("P2", s.p2, 1.0)):
            want = np.interp(s.times, s.times, v) / scale
            assert cols[key].tobytes() == want.tobytes(), key

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 5.0, 6), np.linspace(0.0, 5.0, 11)[:-1],
        np.linspace(0.0, 6.0, 11)], ids=["coarser", "shorter", "stretched"])
    def test_other_times_refused(self, times):
        # a series on other times is refused, not cut or interpolated
        s = propagate_populations(POP0, RATES, np.linspace(0.0, 5.0, 11))
        with pytest.raises(ValueError, match="series' times"):
            series_columns(times, pops=s)


class TestSeriesArrays:
    @pytest.mark.parametrize("n44", [np.nan, np.inf, -0.1, 0.5])
    def test_bad_fractions_rejected(self, n44):
        with pytest.raises(InvariantViolationError):
            PopulationSeries(times=[0.0, 1.0], n44=[1.0, n44],
                             n43=[0.0, 0.0], nh=[0.0, 0.0])
