import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from eprsim.errors import InvariantViolationError
from eprsim.spin_model import (
    GaussianState,
    ModelParams,
    bogoliubov_amplitudes,
    css_state,
    epr_variance,
    epr_witness,
    symplectic_check,
    symplectic_eigenvalues,
    two_mode_squeezed_cov,
)


def make_params(**over):
    mu, nu = bogoliubov_amplitudes(0.4)
    base = dict(d=55.0, Gamma=0.002, mu=mu, nu=nu, Gamma_col=0.002,
                Gamma_tilde=0.193, Gamma_pump=0.0, Gamma_L_out=0.025,
                Phi=1.0, Omega=2023.0, N=1.0, eta=0.84)
    base.update(over)
    return ModelParams(**base)


class TestBogoliubov:
    def test_nominal_amplitudes(self):
        mu, nu = bogoliubov_amplitudes(0.4)
        assert mu == pytest.approx(1.45)
        assert nu == pytest.approx(1.05)

    @pytest.mark.parametrize("s", [0.1, 0.4, 0.7, 0.99])
    def test_hyperbolic_normalisation(self, s):
        mu, nu = bogoliubov_amplitudes(s)
        assert mu**2 - nu**2 == pytest.approx(1.0, abs=1e-12)
        assert mu - nu == pytest.approx(s, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bogoliubov_amplitudes(0.0)


class TestModelParams:
    def test_json_round_trip(self):
        p = make_params()
        q = ModelParams.from_json(p.to_json())
        assert p == q

    def test_unknown_key_rejected(self):
        doc = json.loads(make_params().to_json())
        doc["bogus"] = 1.0
        with pytest.raises(ValueError, match="unknown"):
            ModelParams.from_json(json.dumps(doc))

    def test_missing_key_rejected(self):
        doc = json.loads(make_params().to_json())
        del doc["d"]
        with pytest.raises(ValueError, match="missing"):
            ModelParams.from_json(json.dumps(doc))

    def test_key_messages(self):
        # the field list is the schema: every field without a default is
        # required, and each message lists its keys in sorted order
        doc = json.loads(make_params().to_json())
        with pytest.raises(ValueError) as exc:
            ModelParams.from_json(json.dumps({**doc, "zeta": 1, "bogus": 2}))
        assert str(exc.value) == "unknown parameter keys: ['bogus', 'zeta']"
        del doc["eta"], doc["d"], doc["gamma_s_scale"]
        with pytest.raises(ValueError) as exc:
            ModelParams.from_json(json.dumps(doc))
        assert str(exc.value) == "missing parameter keys: ['d', 'eta']"
        with pytest.raises(ValueError) as exc:
            make_params().replace(bogus=1.0, Gamma_tilde=0.1)
        assert str(exc.value) == "unknown parameter keys: ['bogus']"

    def test_scale_key_optional(self):
        doc = json.loads(make_params().to_json())
        del doc["gamma_s_scale"]
        p = ModelParams.from_json(json.dumps(doc))
        assert p.gamma_s_scale == 1.0

    @pytest.mark.parametrize("value, got", [
        (10**400, "got a number too large for a float"),
        (-10**400, "got a number too large for a float"),
        (math.inf, "got inf")], ids=["huge", "-huge", "inf"])
    def test_unrepresentable_value_refused(self, value, got):
        # as an invariant violation naming the field, not an OverflowError
        with pytest.raises(InvariantViolationError, match=f"d must be a "
                           f"finite number, {got}$"):
            make_params(d=value)

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "is nested too deep to parse"),
        ("[1]", "must be a JSON object")], ids=["deep", "list"])
    def test_document_not_an_object_refused(self, text, message):
        with pytest.raises(ValueError, match=f"parameter document {message}"):
            ModelParams.from_json(text)

    def test_invalid_mu_nu(self):
        with pytest.raises(InvariantViolationError):
            make_params(mu=1.0, nu=1.2)
        with pytest.raises(InvariantViolationError):
            make_params(mu=2.0, nu=1.0)  # mu^2 - nu^2 != 1

    def test_negative_rate_rejected(self):
        with pytest.raises(InvariantViolationError):
            make_params(Gamma_tilde=-0.1)

    def test_eta_range(self):
        with pytest.raises(InvariantViolationError):
            make_params(eta=1.3)

    def test_squeeze_sq(self):
        assert make_params().squeeze_sq == pytest.approx(0.16)


class TestEprVariance:
    def test_css_is_unity(self):
        r = epr_variance(css_state())
        assert r.xi == pytest.approx(1.0)
        assert r.var_x_minus == pytest.approx(0.5)
        assert not r.entangled

    def test_double_thermal(self):
        st = GaussianState(mean=np.zeros(4), cov=2.0 * np.eye(4))
        assert epr_variance(st).xi == pytest.approx(2.0)

    def test_two_mode_squeezed_target(self):
        mu, nu = bogoliubov_amplitudes(0.4)
        st = GaussianState(mean=np.zeros(4), cov=two_mode_squeezed_cov(mu, nu))
        r = epr_variance(st)
        assert r.xi == pytest.approx((mu - nu) ** 2, abs=1e-12)
        assert r.entangled

    def test_matches_sampling_oracle(self):
        # witness as quadratic form vs brute-force Monte Carlo sampling
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 3.0 * np.eye(4)
        st = GaussianState(mean=np.zeros(4), cov=cov)
        draws = rng.multivariate_normal(np.zeros(4), cov, size=400_000)
        u = 0.5 * (draws[:, 0] - draws[:, 2])
        v = 0.5 * (draws[:, 1] + draws[:, 3])
        mc = u.var() + v.var()
        assert epr_variance(st).xi == pytest.approx(mc, rel=0.01)

    def test_asymmetric_cov_rejected(self):
        cov = np.eye(4)
        cov[0, 1] = 0.5
        with pytest.raises(InvariantViolationError):
            epr_variance(GaussianState(mean=np.zeros(4), cov=cov))

    @pytest.mark.parametrize("cells, value", [
        ([(1, 1)], np.inf), ([(1, 1)], -np.inf), ([(0, 2), (2, 0)], np.inf)],
        ids=["diagonal-inf", "diagonal-minus-inf", "pair-inf"])
    def test_non_finite_cov_rejected(self, cells, value):
        # equal infinities pass the symmetry check; they used to reach
        # eigvalsh, which raised numpy's LinAlgError
        cov = np.eye(4)
        for i, j in cells:
            cov[i, j] = value
        with pytest.raises(InvariantViolationError,
                           match="covariance must be finite"):
            GaussianState(mean=np.zeros(4), cov=cov).validate()

    def test_report_is_the_shared_witness(self):
        mu, nu = bogoliubov_amplitudes(0.4)
        for cov in (np.eye(4), two_mode_squeezed_cov(mu, nu)):
            r = epr_variance(GaussianState(mean=np.zeros(4), cov=cov))
            assert (r.var_x_minus, r.var_p_plus, r.xi) == epr_witness(cov)


def _symmetry_rejected(cov) -> bool:
    """Whether validate refuses ``cov`` for its symmetry; the later PSD
    and symplectic checks may refuse what passes it."""
    try:
        GaussianState(mean=np.zeros(4), cov=cov).validate()
    except InvariantViolationError as e:
        return "not symmetric" in str(e)
    return False


class TestSymmetryCheck:
    """validate's symmetry check accepts exactly what
    np.allclose(cov, cov.T, atol=1e-8) accepts."""

    @staticmethod
    def _cov(upper, lower, i=0, j=2):
        cov = np.array([[1.5, 0.0, 0.3, 0.0], [0.0, 1.5, 0.0, -0.3],
                        [0.3, 0.0, 1.5, 0.0], [0.0, -0.3, 0.0, 1.5]])
        cov[i, j], cov[j, i] = upper, lower
        return cov

    def test_tolerance_edge(self):
        outcomes = set()
        for b in (0.3, -0.3, 0.0, 1e-3, 2.0):
            edge = 1e-8 + 1e-5 * abs(b)
            for a in (b + edge, b - edge, b + 2 * edge, b - 2 * edge,
                      b + edge / 2):
                for step in (-1, 0, 1):
                    a_k = a
                    for _ in range(abs(step)):
                        a_k = np.nextafter(a_k, step * np.inf)
                    for cov in (self._cov(a_k, b), self._cov(b, a_k)):
                        want = not np.allclose(cov, cov.T, atol=1e-8)
                        assert _symmetry_rejected(cov) == want
                        outcomes.add(want)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("upper, lower", [
        (np.nan, np.nan), (np.nan, 0.3), (np.inf, np.inf),
        (-np.inf, -np.inf), (np.inf, -np.inf), (np.inf, 0.3),
        (0.3, -np.inf), (np.inf, np.nan)])
    def test_non_finite_pairs(self, upper, lower):
        for i, j in ((0, 2), (1, 1)):
            cov = self._cov(upper, lower, i, j)
            want = not np.allclose(cov, cov.T, atol=1e-8)
            assert _symmetry_rejected(cov) == want


class TestSymplectic:
    def test_css_eigenvalues(self):
        np.testing.assert_allclose(symplectic_eigenvalues(np.eye(4)),
                                   [1.0, 1.0], atol=1e-12)

    def test_two_mode_squeezed_is_pure(self):
        mu, nu = bogoliubov_amplitudes(0.4)
        nus = symplectic_eigenvalues(two_mode_squeezed_cov(mu, nu))
        np.testing.assert_allclose(nus, [1.0, 1.0], atol=1e-9)

    def test_thermal_eigenvalues(self):
        np.testing.assert_allclose(symplectic_eigenvalues(2.0 * np.eye(4)),
                                   [2.0, 2.0], atol=1e-12)

    def test_unphysical_rejected(self):
        with pytest.raises(InvariantViolationError):
            symplectic_check(np.diag([0.5, 0.5, 1.0, 1.0]))

    def test_squeezed_but_physical_passes(self):
        symplectic_check(np.diag([0.5, 2.0, 1.0, 1.0]))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x",
                                     None, True])
    def test_domain_types_reject(self, bad):
        from eprsim.gaussian_dynamics import NoiseChannels
        from eprsim.light_readout import LossParams
        from eprsim.multilevel_rates import PopulationState, RateSet
        builders = [
            lambda v: make_params(Gamma_tilde=v),
            lambda v: make_params(N=v),
            lambda v: PopulationState(n44=v, n43=0.0, nh=0.0),
            lambda v: RateSet(g34=v, g43=0.0, g_out=0.0, g_in=0.0),
            lambda v: RateSet(g34=0.0, g43=0.0, g_out=0.0, g_in=0.0,
                              pump=v),
            lambda v: NoiseChannels(dephasing=v),
            lambda v: NoiseChannels(pump_refill=v),
            lambda v: LossParams(gamma_s=v, gamma_extra=0.0),
            lambda v: LossParams(gamma_s=0.1, gamma_extra=0.0, eta=v),
        ]
        for build in builders:
            with pytest.raises(InvariantViolationError):
                build(bad)

    def test_replace_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            make_params().replace(bogus=1.0)

    @pytest.mark.parametrize("kw", [
        {}, {"Gamma_tilde": 0.12},
        {"d": 40.0, "Gamma_col": 0.004, "Gamma_tilde": 0.15},
        {"mu": 1.25, "nu": 0.75, "gamma_s_scale": 2.0},
    ])
    def test_replace_matches_rebuild(self, kw):
        p = make_params()
        assert p.replace(**kw) == ModelParams(**{**asdict(p), **kw})

    def test_replace_still_validates(self):
        with pytest.raises(InvariantViolationError):
            make_params().replace(Gamma_tilde=-0.1)
