"""Input-output relations between atomic quadratures and light modes,
including decoherence, detection loss, and the inversion used for atomic
noise reconstruction.

Variance bookkeeping uses a single unit convention: vacuum/shot-noise
variance is 1 for every light mode and the CSS level is 1 for every atomic
quadrature.  The supplement's two-cell noise operators with var(F) = 1/2
appear here as unit-variance modes; every formula below has been mapped
into this convention once, so no factor-of-2 dictionary leaks into call
sites.

Lossless relations (interaction time T, s = mu - nu):

    atomic_out = exp(-gamma_s T) atomic_in - s^2 kappa y_in
    y_out      = exp(-gamma_s T) y_in      + kappa   atomic_in

with kappa^2 = (1 - exp(-2 gamma_s T)) / s^2.  With extra atomic decay
gamma_extra (total gamma, epsilon^2 = gamma_extra / gamma) the decay becomes
exp(-gamma T), kappa^2 = (1 - epsilon^2)(1 - exp(-2 gamma T)) / s^2, and a
unit-variance noise mode enters with amplitude epsilon sqrt(1-exp(-2 gamma T))
on the atomic side and the commutator-preserving counterpart on the light
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvariantViolationError, NoInformationError
from .spin_model import require_finite

__all__ = [
    "LossParams",
    "IoSnapshot",
    "ReconstructedVariance",
    "apply_io_lossy",
    "apply_detection_loss",
    "readout_kappa_sq",
    "closed_form_calibration",
    "invert_readout",
    "reconstruct_atomic_variance",
]

_VACUUM = 1.0  # variance of the vacuum input light (shot-noise units)


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
        if not 0.0 <= self.eta <= 1.0:
            raise InvariantViolationError("eta must lie in [0, 1]")

    @property
    def gamma(self) -> float:
        return self.gamma_s + self.gamma_extra

    @property
    def epsilon_sq(self) -> float:
        g = self.gamma
        return 0.0 if g == 0.0 else self.gamma_extra / g


@dataclass(frozen=True)
class IoSnapshot:
    """Variances before/after one application of the input-output map.

    ``atomic_in``/``atomic_out`` hold the (cos, sin) channel pair, i.e. the
    nonlocal X- and P-type combinations; ``y_out`` is the matching pair of
    output light-mode variances for vacuum input light (variance 1).
    """

    atomic_in: tuple
    atomic_out: tuple
    y_out: tuple
    kappa_sq: float

    def __post_init__(self):
        vals = (*self.atomic_in, *self.atomic_out, *self.y_out)
        if any(v < 0 for v in vals):
            raise InvariantViolationError("variances must be >= 0")


class ReconstructedVariance(NamedTuple):
    """Reconstruction result; negative estimates are flagged, never clamped."""

    value: float
    below_floor: bool


def _io_variances(atomic_in, decay_sq, kappa_sq, s2, eps_sq):
    """Vacuum-input variance IO map for both channels, no cross-correlation."""
    noise_sq = eps_sq * (1.0 - decay_sq)
    atomic_out = tuple(decay_sq * v + s2**2 * kappa_sq * _VACUUM + noise_sq
                       for v in atomic_in)
    # Light-side noise admixture preserves the commutator budget:
    # 1 - kappa^2 s2 - decay_sq = eps^2 (1 - decay_sq) >= 0.  It is exactly
    # this term that makes the reconstruction formula an exact inverse.
    zeta_sq = max(0.0, 1.0 - kappa_sq * s2 - decay_sq)
    y_out = tuple(decay_sq * _VACUUM + kappa_sq * v + zeta_sq
                  for v in atomic_in)
    return atomic_out, y_out


def apply_io_lossy(atomic_in, loss: LossParams, mu_nu: tuple,
                   T: float) -> IoSnapshot:
    """Input-output map for vacuum input light, with extra atomic decay
    toward the CSS; lossless for gamma_extra = 0."""
    if T < 0:
        raise ValueError("interaction time must be >= 0")
    mu, nu = mu_nu
    s2 = (mu - nu) ** 2
    eps_sq = loss.epsilon_sq
    decay_sq = math.exp(-2.0 * loss.gamma * T)
    kappa_sq = readout_kappa_sq(loss, mu_nu, T)
    atomic_out, y_out = _io_variances(tuple(atomic_in), decay_sq, kappa_sq,
                                      s2, eps_sq)
    return IoSnapshot(atomic_in=tuple(atomic_in), atomic_out=atomic_out,
                      y_out=y_out, kappa_sq=kappa_sq)


def apply_detection_loss(y_var: float, eta: float) -> float:
    """Beam-splitter detection model: eta y + (1 - eta) vacuum."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return eta * y_var + (1.0 - eta)


def readout_kappa_sq(loss: LossParams, mu_nu: tuple, T: float) -> float:
    """kappa^2 = (1 - epsilon^2)(1 - exp(-2 gamma T)) / (mu - nu)^2."""
    mu, nu = mu_nu
    return ((1.0 - loss.epsilon_sq) * -math.expm1(-2.0 * loss.gamma * T)
            / (mu - nu) ** 2)


def closed_form_calibration(kappa_sq: float, mu_nu: tuple,
                            eta: float) -> tuple:
    """(slope, floor) of var(y) = slope * var_atomic + floor in closed form.

    The IO map with vacuum input gives var(y) = kappa^2 var_atomic + 1 -
    kappa^2 (mu-nu)^2, and the eta beam splitter scales that by eta and
    adds 1 - eta.
    """
    if kappa_sq <= 0:
        raise NoInformationError("kappa^2 = 0 carries no atomic information")
    if eta <= 0 or eta > 1:
        raise ValueError("eta must lie in (0, 1]")
    mu, nu = mu_nu
    floor = eta * (1.0 - kappa_sq * (mu - nu) ** 2) + 1.0 - eta
    return eta * kappa_sq, floor


def invert_readout(variances, slope: float, floor: float) -> float:
    """Mean over ``variances`` of the affine inverse (v - floor) / slope.

    For the (cos, sin) pair of readout variances this is the EPR witness xi
    of the atomic state at the start of the readout window.
    """
    return sum((v - floor) / slope for v in variances) / len(variances)


def reconstruct_atomic_variance(y_out_var: float, kappa_sq: float,
                                mu_nu: tuple,
                                eta: float = 1.0) -> ReconstructedVariance:
    """Invert detection loss and the IO map to recover the atomic variance.

    var_atomic = (var(y) - floor) / slope with the closed-form constants.
    Statistically negative results are reported with ``below_floor=True``
    -- clamping would bias the witness toward entanglement.
    """
    slope, floor = closed_form_calibration(kappa_sq, mu_nu, eta)
    value = invert_readout((y_out_var,), slope, floor)
    return ReconstructedVariance(value=value, below_floor=bool(value < 0.0))
