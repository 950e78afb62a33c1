import math

import numpy as np
import pytest

from eprsim.errors import InvariantViolationError, NoInformationError
from eprsim.light_readout import (
    LossParams,
    closed_form_calibration,
    invert_readout,
    readout_kappa_sq,
    reconstruct_atomic_variance,
)


MU_NU = (1.45, 1.05)


class TestLossParams:
    def test_epsilon_split(self):
        loss = LossParams(gamma_s=0.19, gamma_extra=0.08)
        assert loss.gamma == pytest.approx(0.27)
        assert loss.epsilon_sq == pytest.approx(0.08 / 0.27)

    def test_zero_total(self):
        assert LossParams(gamma_s=0.0, gamma_extra=0.0).epsilon_sq == 0.0

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolationError):
            LossParams(gamma_s=-0.1, gamma_extra=0.0)

    @pytest.mark.parametrize("gamma_s, gamma_extra", [
        (1e308, 1e308), (1.7e308, 0.2e308)])
    def test_overflowing_total_rejected(self, gamma_s, gamma_extra):
        # each rate finite, their sum not: epsilon^2 would read 0
        with pytest.raises(InvariantViolationError, match="total decay"):
            LossParams(gamma_s=gamma_s, gamma_extra=gamma_extra)


def _forward(v, loss, T, eta=1.0, mu_nu=MU_NU):
    """Detected light variance of atomic variance ``v``: the closed-form
    map slope * v + floor."""
    slope, floor = closed_form_calibration(
        readout_kappa_sq(loss, mu_nu, T), mu_nu, eta)
    return slope * v + floor


class TestLosslessMap:
    # gamma_extra = 0: the map is the lossless input-output relation
    def test_hand_computed_variance(self):
        T, gamma_s = 5.0, 0.27
        loss = LossParams(gamma_s, 0.0)
        e2 = math.exp(-2.0 * gamma_s * T)
        k2 = (1.0 - e2) / 0.16
        assert readout_kappa_sq(loss, MU_NU, T) == pytest.approx(k2)
        assert _forward(1.0, loss, T) == pytest.approx(e2 + k2)

    def test_steady_state_output_is_shot_noise(self):
        # atoms at the dissipative floor leave the light at vacuum level
        assert _forward(0.16, LossParams(0.27, 0.0), 5.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_qnd_limit_bookkeeping(self):
        # weak squeezing: var(y_out) -> 1 + kappa^2 for CSS atoms
        s = 0.01
        mu_nu = (0.5 * (s + 1.0 / s), 0.5 * (1.0 / s - s))
        loss = LossParams(1e-4, 0.0)
        assert _forward(1.0, loss, 1.0, mu_nu=mu_nu) == pytest.approx(
            1.0 + readout_kappa_sq(loss, mu_nu, 1.0), rel=1e-3)


class TestClosedFormCalibration:
    @pytest.mark.parametrize("eta", [1.0, 0.84])
    @pytest.mark.parametrize("gamma_extra", [0.0, 0.08, 0.3])
    def test_hand_formula(self, gamma_extra, eta):
        # slope = eta kappa^2 and floor = eta (e^-2gT + eps^2 (1 - e^-2gT))
        # + 1 - eta: the light-side noise admixture and the detection loss
        gamma_s, T = 0.19, 5.0
        gamma = gamma_s + gamma_extra
        e2 = math.exp(-2.0 * gamma * T)
        eps_sq = gamma_extra / gamma
        k2 = (1.0 - eps_sq) * (1.0 - e2) / 0.16
        loss = LossParams(gamma_s, gamma_extra, eta=eta)
        assert readout_kappa_sq(loss, MU_NU, T) == pytest.approx(
            k2, rel=1e-14)
        slope, floor = closed_form_calibration(k2, MU_NU, eta)
        assert slope == pytest.approx(eta * k2, rel=1e-14)
        assert floor == pytest.approx(
            eta * (e2 + eps_sq * (1.0 - e2)) + 1.0 - eta, rel=1e-14)

    @pytest.mark.parametrize("eta, error, message", [
        (0.0, NoInformationError, "no atomic information"),
        (-0.1, ValueError, r"eta must lie in \[0, 1\]"),
        (1.1, ValueError, r"eta must lie in \[0, 1\]"),
    ])
    def test_eta_range(self, eta, error, message):
        # eta = 0 is in LossParams' range, and its zero slope is refused
        # by the information rule; outside [0, 1] eta itself is refused
        with pytest.raises(error, match=message):
            closed_form_calibration(4.0, MU_NU, eta)


def _affine_inverse(y_pair, loss, T, eta):
    """Closed-form constants through the shared (cos, sin) inversion."""
    slope, floor = closed_form_calibration(
        readout_kappa_sq(loss, MU_NU, T), MU_NU, eta)
    return invert_readout(y_pair, slope, floor)


class TestReconstruction:
    @pytest.mark.parametrize("v, inversion", [
        *(pytest.param(v, "reconstruct", id=str(v))
          for v in (0.16, 0.5, 1.0, 2.7)),
        *(pytest.param(v, "affine", id=f"affine-{v}")
          for v in (0.16, 0.5, 1.0, 2.7)),
    ])
    def test_round_trip_exact(self, v, inversion):
        # criterion: deterministic variance-level round trip to 1e-12
        loss = LossParams(gamma_s=0.19, gamma_extra=0.08, eta=1.0)
        y = _forward(v, loss, 5.0, eta=0.84)
        if inversion == "affine":
            assert _affine_inverse((y, y), loss, 5.0, 0.84) == pytest.approx(
                v, abs=1e-12)
            return
        rec = reconstruct_atomic_variance(
            y, readout_kappa_sq(loss, MU_NU, 5.0), MU_NU, eta=0.84)
        assert rec == pytest.approx(v, abs=1e-12)

    def test_negative_returned_not_clamped(self):
        rec = reconstruct_atomic_variance(0.2, 4.0, MU_NU)
        slope, floor = closed_form_calibration(4.0, MU_NU, 1.0)
        assert rec == (0.2 - floor) / slope
        assert rec < 0.0

    def test_zero_coupling_rejected(self):
        with pytest.raises(NoInformationError):
            reconstruct_atomic_variance(1.0, 0.0, MU_NU)

    @pytest.mark.parametrize("eta", [1.0, 0.84])
    def test_slope_lost_in_floor_rejected(self, eta):
        # ulp(floor) > 1e-6 slope: rounding alone would move xi by more
        # than a part per million (the floor is just below 1, ulp 2^-53)
        for kappa_sq in (1e-300, 1e-15, 1e-12, 0.9 * 2**-53 * 1e6 / eta):
            with pytest.raises(NoInformationError, match="vanishes"):
                closed_form_calibration(kappa_sq, MU_NU, eta)
        slope, floor = closed_form_calibration(1.1 * 2**-53 * 1e6 / eta,
                                               MU_NU, eta)
        assert math.ulp(floor) <= 1e-6 * slope

    def test_monte_carlo_round_trip(self):
        # sampled light variances invert back within statistical error
        rng = np.random.default_rng(5)
        loss = LossParams(gamma_s=0.19, gamma_extra=0.08)
        v = 0.16
        kappa_sq = readout_kappa_sq(loss, MU_NU, 5.0)
        y = _forward(v, loss, 5.0)
        n = 200_000
        draws = rng.normal(scale=math.sqrt(y), size=n)
        rec = reconstruct_atomic_variance(float(np.var(draws, ddof=1)),
                                          kappa_sq, MU_NU)
        se = y * math.sqrt(2.0 / (n - 1)) / kappa_sq
        assert rec == pytest.approx(v, abs=3.0 * se)


class TestInvariants:
    def test_light_noise_budget_nonnegative(self):
        # 1 - kappa^2 s^2 - decay^2 = eps^2 (1 - decay^2) >= 0
        for ge in (0.0, 0.05, 0.2):
            loss = LossParams(gamma_s=0.19, gamma_extra=ge)
            for T in (0.1, 1.0, 10.0):
                e2 = math.exp(-2.0 * loss.gamma * T)
                zeta = 1.0 - readout_kappa_sq(loss, MU_NU, T) * 0.16 - e2
                assert zeta == pytest.approx(
                    loss.epsilon_sq * (1.0 - e2), abs=1e-12)
