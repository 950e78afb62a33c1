import time

import numpy as np
import pytest

from eprsim.errors import InvariantViolationError
from eprsim import lindblad_oracle
from eprsim.gaussian_dynamics import NoiseChannels, relaxation_rate
from eprsim.lindblad_oracle import (
    ExactState,
    ensemble_operators,
    exact_lindblad_step,
    integrate_exact,
    jump_operators,
    validate_against_oracle,
    xi_exact,
)

from eprsim.scenarios import scenario_params

from test_spin_model import make_params


class TestExactState:
    def test_css_is_valid(self):
        ExactState.css().validate()

    def test_css_witness_is_unity(self):
        assert xi_exact(ExactState.css()) == pytest.approx(1.0, abs=1e-12)

    def test_bad_trace_rejected(self):
        st = ExactState.css()
        st.rho = 2.0 * st.rho
        with pytest.raises(InvariantViolationError):
            st.validate()

    def test_size_limit(self):
        # one spin per ensemble: only a 4 x 4 density matrix is accepted
        for dim in (2, 16):
            with pytest.raises(InvariantViolationError):
                ExactState(rho=np.eye(dim) / dim)


class TestOperators:
    def test_collective_annihilator_action(self):
        a1, a2, sz = ensemble_operators()
        # a |flipped> = |pumped> within ensemble I
        flipped = np.zeros(4)
        flipped[2] = 1.0  # index 2 = |f>|p| in the 2-spin register
        out = a1 @ flipped
        assert out[0] == pytest.approx(1.0)
        assert np.linalg.norm(a1 @ np.eye(4)[:, 0]) == 0.0

    def test_constants_match_kron_construction(self):
        sz, i2 = np.diag([1.0, -1.0]), np.eye(2)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        a1, a2 = np.kron(a, i2), np.kron(i2, a)
        got = ensemble_operators()
        want = (a1, a2, [np.kron(sz, i2), np.kron(i2, sz)])
        for g, w in zip([*got[:2], *got[2]], [*want[:2], *want[2]]):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        collective = [0.5 * (a1 + a1.conj().T), 0.5j * (a1.conj().T - a1),
                      0.5 * (a1 @ a1.conj().T - a1.conj().T @ a1),
                      0.5 * (a2 + a2.conj().T), 0.5j * (a2.conj().T - a2),
                      0.5 * (a2 @ a2.conj().T - a2.conj().T @ a2)]
        for g, w in zip([*lindblad_oracle._COLLECTIVE[0],
                         *lindblad_oracle._COLLECTIVE[1]], collective):
            assert g.dtype == w.dtype and np.array_equal(g, w)
            assert not g.flags.writeable
        for op in [*got[:2], *got[2]]:
            assert not op.flags.writeable

    def test_jump_operator_count(self):
        params = make_params()
        ops = jump_operators(params, NoiseChannels(dephasing=0.1))
        assert len(ops) == 4  # two nonlocal + one dephasing per spin
        ops = jump_operators(params, NoiseChannels(dephasing=0.0))
        assert len(ops) == 2


class TestSteadyState:
    def test_exact_two_qubit_dark_state(self):
        # The qubit-truncated two-mode squeezed state is dark for the
        # nonlocal jump operators: integrate long and compare.
        params = make_params()
        noise = NoiseChannels(dephasing=0.0)
        horizon = 80.0 / relaxation_rate(params)
        states = integrate_exact(ExactState.css(), params, noise,
                                 np.array([0.0, horizon]))
        lam = params.nu / params.mu
        psi = np.zeros(4)
        psi[0] = 1.0
        psi[3] = lam
        psi = psi / np.linalg.norm(psi)
        target = np.outer(psi, psi)
        np.testing.assert_allclose(states[-1], target, atol=1e-6)


class TestExactIntegration:
    def test_pure_dephasing_closed_form(self):
        # sigma_z dephasing keeps the populations and damps the (pp, ff)
        # coherence at Gamma_tilde: two spins flip sign, each at rate
        # Gamma_tilde / 2.
        params = make_params(d=0.0)
        deph = 0.193
        psi = np.zeros(4)
        psi[0] = 1.0
        psi[3] = params.nu / params.mu
        psi = psi / np.linalg.norm(psi)
        rho0 = np.outer(psi, psi)
        states = integrate_exact(ExactState(rho=rho0),
                                 params, NoiseChannels(dephasing=deph),
                                 np.array([0.0, 5.0]))
        rho = states[-1]
        np.testing.assert_allclose(np.diag(rho).real, np.diag(rho0),
                                   rtol=0, atol=1e-12)
        assert abs(rho[0, 3] - rho0[0, 3] * np.exp(-deph * 5.0)) < 1e-12

    @pytest.mark.parametrize("times", [[0.0, 1.0, 0.5], [0.0, np.nan]])
    def test_bad_grid_rejected(self, times):
        with pytest.raises(ValueError):
            integrate_exact(ExactState.css(), make_params(),
                            NoiseChannels(dephasing=0.0), times)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -np.inf])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError):
            validate_against_oracle(make_params(), horizon)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_rate_refused(self):
        # inf * 0 in the operators would warn and then fail a later check
        params = scenario_params("fig2a").replace(d=1e308, Gamma=10.0)
        with pytest.raises(InvariantViolationError,
                           match=r"d \* Gamma is not finite"):
            validate_against_oracle(params, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("horizon, valid", [
        (1e6, True), (1e7, False), (1e300, False)])
    def test_horizon_validity(self, horizon, valid):
        # the docstring's claim: 20 intervals at fig2a rates stay valid
        # over 1e6 ms; past that the state check refuses, without warnings
        times = np.linspace(0.0, horizon, 21)
        args = (ExactState.css(), scenario_params("fig2a"),
                NoiseChannels(dephasing=0.0), times)
        if valid:
            assert len(integrate_exact(*args)) == 21
        else:
            with pytest.raises(InvariantViolationError):
                integrate_exact(*args)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unresolved_interval_refused_as_not_finite(self):
        # an interval _expm_grid cannot resolve gives NaN states: refused
        # as such, not as a failed trace or Hermitian check
        p = scenario_params("fig2a")
        with pytest.raises(InvariantViolationError, match="not finite"):
            integrate_exact(ExactState.css(), p, NoiseChannels(dephasing=0.0),
                            np.linspace(0.0, 1e300, 21))
        with pytest.raises(InvariantViolationError, match="not finite"):
            validate_against_oracle(p, 1.0, NoiseChannels(dephasing=1e300))
        # the generator's norm finite, norm x interval overflows
        with pytest.raises(InvariantViolationError, match="not finite"):
            validate_against_oracle(p, 1e200, NoiseChannels(dephasing=1e200))

    def test_cost_independent_of_horizon(self):
        t0 = time.perf_counter()
        validate_against_oracle(make_params(), 1e4,
                                NoiseChannels(dephasing=0.0))
        assert time.perf_counter() - t0 < 1.0


class TestOracleAgreement:
    def test_dissipation_only_bound(self):
        params = make_params()
        horizon = 0.1 / relaxation_rate(params)
        diff = validate_against_oracle(params, horizon,
                                       NoiseChannels(dephasing=0.0))
        assert diff < 0.05

    def test_pure_dephasing_exact(self):
        params = make_params(d=0.0)
        diff = validate_against_oracle(params, 5.0,
                                       NoiseChannels(dephasing=0.193))
        assert diff < 1e-6

    def test_fig2a_value_unchanged(self):
        # criterion 2's set-up at fig2a, bit for bit; within 1e-15 of the
        # value scipy's per-interval expm gave
        p = scenario_params("fig2a")
        diff = validate_against_oracle(p, 0.1 / (p.d * p.Gamma),
                                       NoiseChannels(dephasing=0.0))
        assert diff == 0.04630793251586618
        assert abs(diff - 0.04630793251586629) <= 1e-15

    def test_zero_horizon(self):
        assert validate_against_oracle(make_params(), 0.0) == 0.0


def referee_generator(params, noise):
    """The Lindblad generator on row-major vec(rho), built in complex
    arithmetic from the adjoints: L rho L^+ - (L^+ L rho + rho L^+ L) / 2."""
    eye = np.eye(4)
    gen = np.zeros((16, 16), dtype=complex)
    for L in jump_operators(params, noise):
        LdL = L.conj().T @ L
        gen += (np.kron(L, L.conj()) - 0.5 * np.kron(LdL, eye)
                - 0.5 * np.kron(eye, LdL.T))
    return gen


# widths 1, 0.5, 2.5, 0.1: out of order, so the batched exponential must
# sort them and put its results back
UNSORTED_GRID = [0.0, 1.0, 1.5, 4.0, 4.1]
REFEREE_CASES = [(make_params(), 0.0), (make_params(), 0.193),
                 (make_params(d=0.0), 0.193)]


class TestScipyReferee:
    @pytest.mark.parametrize("params, deph", REFEREE_CASES)
    def test_propagators_match_expm(self, params, deph, monkeypatch):
        expm = pytest.importorskip("scipy.linalg").expm
        noise = NoiseChannels(dephasing=deph)
        seen = []

        def expm_grid(generator, widths):
            out = expm_grid.real(generator, widths)
            seen.append((widths, out))
            return out

        expm_grid.real = lindblad_oracle._expm_grid
        monkeypatch.setattr(lindblad_oracle, "_expm_grid", expm_grid)
        integrate_exact(ExactState.css(), params, noise, UNSORTED_GRID)
        gen = referee_generator(params, noise)
        (widths, propagators), = seen
        # one call over the sorted widths
        assert np.array_equal(widths, np.sort(np.diff(UNSORTED_GRID)))
        assert len(propagators) == len(UNSORTED_GRID) - 1
        for got, dt in zip(propagators, widths):
            want = expm(gen * dt)
            assert got.dtype == float
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("params, deph", REFEREE_CASES)
    def test_states_match_scipy_stepping(self, params, deph):
        expm = pytest.importorskip("scipy.linalg").expm
        noise = NoiseChannels(dephasing=deph)
        gen = referee_generator(params, noise)
        states = integrate_exact(ExactState.css(), params, noise,
                                 UNSORTED_GRID)
        rho = ExactState.css().rho
        for state, dt in zip(states[1:], np.diff(UNSORTED_GRID)):
            rho = (expm(gen * dt) @ rho.ravel()).reshape(4, 4)
            rho = 0.5 * (rho + rho.conj().T)
            np.testing.assert_allclose(state, rho, rtol=0, atol=1e-12)


def referee_xi(rho):
    """The witness as a trace of products per operator."""
    (y1, z1, x1), (y2, z2, x2) = lindblad_oracle._COLLECTIVE

    def var(op):
        return np.trace(rho @ op @ op).real - np.trace(rho @ op).real ** 2

    return ((var(y1 - y2) + var(z1 + z2))
            / (abs(np.trace(rho @ x1).real) + abs(np.trace(rho @ x2).real)))


def _valid_stack(n):
    p = scenario_params("fig2a")
    return integrate_exact(ExactState.css(), p, NoiseChannels(dephasing=0.1),
                           np.linspace(0.0, 1.0 / (p.d * p.Gamma), n))


def _spoil(rho, kind):
    """``rho`` made to fail exactly one state check, the ``kind`` one."""
    rho = rho.copy()
    if kind == "not finite":
        rho[1, 2] = np.nan
    elif kind == "trace":
        rho *= 2.0
    elif kind == "Hermitian":
        rho[0, 1] += 1e-3
    else:
        rho[...] = np.diag([1.5, -0.5, 0.0, 0.0])
    return rho


class TestStateStack:
    @pytest.mark.parametrize("params, deph", REFEREE_CASES)
    def test_stack_is_a_chain_of_steps(self, params, deph):
        # bit for bit, on the out-of-order grid
        noise = NoiseChannels(dephasing=deph)
        rhos = integrate_exact(ExactState.css(), params, noise, UNSORTED_GRID)
        assert rhos.shape == (len(UNSORTED_GRID), 4, 4)
        assert rhos.dtype == complex
        dts = np.diff(UNSORTED_GRID)
        order = dts.argsort()
        propagators = lindblad_oracle._expm_grid(
            lindblad_oracle._generator(jump_operators(params, noise)),
            dts[order])[order.argsort()]
        state = ExactState.css()
        assert np.array_equal(rhos[0], state.rho)
        for rho, propagator in zip(rhos[1:], propagators):
            state = exact_lindblad_step(state, propagator)
            assert np.array_equal(rho, state.rho)

    def test_generator_matches_kron(self):
        # the same products as np.kron, bit for bit
        eye = np.eye(4)
        for params, deph in REFEREE_CASES:
            ops = jump_operators(params, NoiseChannels(dephasing=deph))
            want = np.zeros((16, 16))
            for L in ops:
                LdL = L.T @ L
                want += (np.kron(L, L) - 0.5 * np.kron(LdL, eye)
                         - 0.5 * np.kron(eye, LdL.T))
            assert np.array_equal(lindblad_oracle._generator(ops), want)

    @pytest.mark.parametrize("params, deph", [
        (scenario_params("fig2a"), 0.0), *REFEREE_CASES])
    def test_witness_batch_matches_per_state(self, params, deph):
        rhos = integrate_exact(ExactState.css(), params,
                               NoiseChannels(dephasing=deph),
                               np.linspace(0.0, 5.0, 21))
        batch = lindblad_oracle._xi_batch(rhos)
        assert batch.shape == (21,)
        for rho, xi in zip(rhos, batch):
            assert abs(xi_exact(ExactState(rho=rho)) - xi) <= 1e-15
            assert abs(referee_xi(rho) - xi) <= 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("j", [0, 3, 6])
    @pytest.mark.parametrize("kind, message", [
        ("not finite", "not finite"), ("trace", "trace drifted"),
        ("Hermitian", "not Hermitian"), ("PSD", "not PSD")])
    def test_earliest_bad_state_decides(self, j, kind, message):
        # states past the bad one fail the first check, as garbage
        # stepped from it would: the earliest state's message still wins
        rhos = _valid_stack(7)
        lindblad_oracle._check_states(rhos)
        rhos[j] = _spoil(rhos[j], kind)
        rhos[j + 1:] = np.inf
        with pytest.raises(InvariantViolationError, match=message):
            lindblad_oracle._check_states(rhos)
        with pytest.raises(InvariantViolationError, match=message):
            ExactState(rho=rhos[j]).validate()
