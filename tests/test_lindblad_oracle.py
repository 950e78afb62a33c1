import time

import numpy as np
import pytest

from eprsim.errors import InvariantViolationError
from eprsim import lindblad_oracle
from eprsim.gaussian_dynamics import NoiseChannels, relaxation_rate
from eprsim.lindblad_oracle import (
    ExactState,
    ensemble_operators,
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
        np.testing.assert_allclose(states[-1].rho, target, atol=1e-6)


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
        rho = states[-1].rho
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
        # criterion 2's set-up at fig2a: the value the operators gave when
        # they were rebuilt by np.kron on every call, bit for bit
        p = scenario_params("fig2a")
        diff = validate_against_oracle(p, 0.1 / (p.d * p.Gamma),
                                       NoiseChannels(dephasing=0.0))
        assert diff == 0.04630793251586629

    def test_zero_horizon(self):
        assert validate_against_oracle(make_params(), 0.0) == 0.0
