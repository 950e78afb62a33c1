import math

import numpy as np
import pytest

from eprsim.errors import InvariantViolationError, NoInformationError
from eprsim.light_readout import (
    LossParams,
    apply_detection_loss,
    apply_io_lossy,
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


class TestLosslessIo:
    # gamma_extra = 0: the map is the lossless input-output relation
    def test_hand_computed_variances(self):
        T, gamma_s = 5.0, 0.27
        snap = apply_io_lossy((1.0, 1.0), LossParams(gamma_s, 0.0),
                              MU_NU, T)
        e2 = math.exp(-2.0 * gamma_s * T)
        k2 = (1.0 - e2) / 0.16
        assert snap.kappa_sq == pytest.approx(k2)
        assert snap.y_out[0] == pytest.approx(e2 + k2)
        assert snap.atomic_out[0] == pytest.approx(
            e2 + 0.16**2 * k2)

    def test_steady_state_output_is_shot_noise(self):
        # atoms at the dissipative floor leave the light at vacuum level
        snap = apply_io_lossy((0.16, 0.16), LossParams(0.27, 0.0),
                              MU_NU, 5.0)
        assert snap.y_out[0] == pytest.approx(1.0, abs=1e-12)
        assert snap.y_out[1] == pytest.approx(1.0, abs=1e-12)

    def test_qnd_limit_bookkeeping(self):
        # weak squeezing: var(y_out) -> 1 + kappa^2 for CSS atoms
        s = 0.01
        mu_nu = (0.5 * (s + 1.0 / s), 0.5 * (1.0 / s - s))
        snap = apply_io_lossy((1.0, 1.0), LossParams(1e-4, 0.0),
                              mu_nu, 1.0)
        assert snap.y_out[0] == pytest.approx(1.0 + snap.kappa_sq, rel=1e-3)


class TestDetectionLoss:
    def test_beam_splitter(self):
        assert apply_detection_loss(5.0, 0.84) == pytest.approx(
            0.84 * 5.0 + 0.16)

    def test_unit_efficiency_identity(self):
        assert apply_detection_loss(3.3, 1.0) == 3.3

    def test_vacuum_fixed_point(self):
        assert apply_detection_loss(1.0, 0.3) == pytest.approx(1.0)


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
        snap = apply_io_lossy((v, v), loss, MU_NU, 5.0)
        y = [apply_detection_loss(yv, 0.84) for yv in snap.y_out]
        if inversion == "affine":
            assert _affine_inverse(y, loss, 5.0, 0.84) == pytest.approx(
                v, abs=1e-12)
            return
        rec = reconstruct_atomic_variance(y[0], snap.kappa_sq, MU_NU,
                                          eta=0.84)
        assert rec.value == pytest.approx(v, abs=1e-12)
        assert not rec.below_floor

    def test_below_floor_flagged_not_clamped(self):
        rec = reconstruct_atomic_variance(0.2, 4.0, MU_NU)
        assert rec.below_floor
        assert rec.value < 0.0

    def test_zero_coupling_rejected(self):
        with pytest.raises(NoInformationError):
            reconstruct_atomic_variance(1.0, 0.0, MU_NU)

    def test_monte_carlo_round_trip(self):
        # sampled light variances invert back within statistical error
        rng = np.random.default_rng(5)
        loss = LossParams(gamma_s=0.19, gamma_extra=0.08)
        v = 0.16
        snap = apply_io_lossy((v, v), loss, MU_NU, 5.0)
        n = 200_000
        draws = rng.normal(scale=math.sqrt(snap.y_out[0]), size=n)
        rec = reconstruct_atomic_variance(float(np.var(draws, ddof=1)),
                                          snap.kappa_sq, MU_NU)
        se = snap.y_out[0] * math.sqrt(2.0 / (n - 1)) / snap.kappa_sq
        assert rec.value == pytest.approx(v, abs=3.0 * se)


class TestInvariants:
    def test_light_noise_budget_nonnegative(self):
        # 1 - kappa^2 s^2 - decay^2 = eps^2 (1 - decay^2) >= 0
        for ge in (0.0, 0.05, 0.2):
            loss = LossParams(gamma_s=0.19, gamma_extra=ge)
            for T in (0.1, 1.0, 10.0):
                snap = apply_io_lossy((1.0, 1.0), loss, MU_NU, T)
                e2 = math.exp(-2.0 * loss.gamma * T)
                zeta = 1.0 - snap.kappa_sq * 0.16 - e2
                assert zeta == pytest.approx(
                    loss.epsilon_sq * (1.0 - e2), abs=1e-12)
