"""The closed-form readout map from atomic to detected light variance, and
its inverse, the atomic noise reconstruction.

Units: vacuum/shot-noise variance is 1 for every light mode and the CSS
level is 1 for every atomic quadrature (the supplement's two-cell noise
operators with var(F) = 1/2 appear here as unit-variance modes).

With interaction time T, s = mu - nu, gamma = gamma_s + gamma_extra and
epsilon^2 = gamma_extra / gamma, the light mode of one (cos or sin) channel
leaves as y_out = exp(-gamma T) y_in + kappa atomic_in + zeta f_in, with
kappa^2 = (1 - epsilon^2)(1 - exp(-2 gamma T)) / s^2 and f_in the
unit-variance noise that the extra decay admixes.  The commutator fixes
zeta^2 = 1 - kappa^2 s^2 - exp(-2 gamma T) = epsilon^2 (1 - exp(-2 gamma T))
>= 0.  For vacuum input light, var(y_out) = exp(-2 gamma T) + kappa^2
var_atomic + zeta^2 = kappa^2 var_atomic + 1 - kappa^2 s^2, and detection
with efficiency eta (a beam splitter mixing in vacuum) gives

    var(y) = slope var_atomic + floor,
    slope = eta kappa^2,    floor = eta (1 - kappa^2 s^2) + 1 - eta.

Against the sampled record of ``records`` the floor is exact only for
gamma_extra = 0; ``records.discrete_calibration`` is that record's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolationError, NoInformationError
from .spin_model import require_finite

__all__ = [
    "LossParams",
    "readout_kappa_sq",
    "require_information",
    "closed_form_calibration",
    "invert_readout",
    "reconstruct_atomic_variance",
]


@dataclass(frozen=True)
class LossParams:
    """Decay budget of the atomic state during readout."""

    gamma_s: float
    gamma_extra: float
    eta: float = 1.0

    def __post_init__(self):
        require_finite(**vars(self))
        if self.gamma_s < 0 or self.gamma_extra < 0:
            raise InvariantViolationError("decay rates must be >= 0")
        if not math.isfinite(self.gamma):
            raise InvariantViolationError(
                "total decay rate gamma_s + gamma_extra must be finite")
        if not 0.0 <= self.eta <= 1.0:
            raise InvariantViolationError("eta must lie in [0, 1]")

    @property
    def gamma(self) -> float:
        return self.gamma_s + self.gamma_extra

    @property
    def epsilon_sq(self) -> float:
        g = self.gamma
        return 0.0 if g == 0.0 else self.gamma_extra / g


def readout_kappa_sq(loss: LossParams, mu_nu: tuple, T: float) -> float:
    """kappa^2 = (1 - epsilon^2)(1 - exp(-2 gamma T)) / (mu - nu)^2."""
    mu, nu = mu_nu
    return ((1.0 - loss.epsilon_sq) * -math.expm1(-2.0 * loss.gamma * T)
            / (mu - nu) ** 2)


def require_information(slope: float, floor: float) -> None:
    """NoInformationError unless var(y) = slope * var_atomic + floor carries
    atomic information: slope > 0, and the floor's rounding does not swamp
    it (ulp(floor) <= 1e-6 slope), or rounding alone would move the
    inverse, and so xi, by more than a part per million."""
    if not slope > 0 or math.ulp(floor) > 1e-6 * slope:
        raise NoInformationError(
            f"the readout slope {slope:.3g} vanishes against the rounding of "
            f"the floor {floor:.6g} and carries no atomic information")


def closed_form_calibration(kappa_sq: float, mu_nu: tuple,
                            eta: float) -> tuple:
    """(slope, floor) of var(y) = slope * var_atomic + floor in closed form.

    See the module docstring for the derivation; ``require_information``
    refuses a slope that carries no atomic information (kappa^2 = 0 among
    them).
    """
    if eta <= 0 or eta > 1:
        raise ValueError("eta must lie in (0, 1]")
    mu, nu = mu_nu
    floor = eta * (1.0 - kappa_sq * (mu - nu) ** 2) + 1.0 - eta
    slope = eta * kappa_sq
    require_information(slope, floor)
    return slope, floor


def invert_readout(variances, slope: float, floor: float) -> float:
    """Mean over ``variances`` of the affine inverse (v - floor) / slope.

    For the (cos, sin) pair of readout variances this is the EPR witness xi
    of the atomic state at the start of the readout window.
    """
    return sum((v - floor) / slope for v in variances) / len(variances)


def reconstruct_atomic_variance(y_out_var: float, kappa_sq: float,
                                mu_nu: tuple, eta: float = 1.0) -> float:
    """(var(y) - floor) / slope with the closed-form constants; a negative
    result is returned as is, since clamping would bias xi toward
    entanglement."""
    slope, floor = closed_form_calibration(kappa_sq, mu_nu, eta)
    return invert_readout((y_out_var,), slope, floor)
