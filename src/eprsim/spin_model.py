"""Core domain types: model parameters, Gaussian two-ensemble states and the
EPR entanglement criterion.

Unit conventions used throughout the package:

* Canonical quadratures ``(X_I, P_I, X_II, P_II)`` are scaled so that a
  coherent spin state (CSS) has unit variance per quadrature, i.e. the
  covariance of the CSS is the 4x4 identity.  The commutator is then
  ``[X, P] = 2i`` and symplectic eigenvalues of any physical covariance are
  >= 1.
* The EPR witness is the mean of the two normalised nonlocal variances,

      xi = var((X_I - X_II)/2) + var((P_I + P_II)/2),

  which equals 1 for the CSS and (mu - nu)^2 for the ideal two-mode-squeezed
  steady state of the engineered dissipation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InvariantViolationError

__all__ = [
    "ModelParams",
    "GaussianState",
    "EprReport",
    "bogoliubov_amplitudes",
    "epr_variance",
    "epr_witness",
    "symplectic_eigenvalues",
    "symplectic_check",
    "two_mode_squeezed_cov",
    "css_state",
    "require_finite",
]

# Symplectic form for (X_I, P_I, X_II, P_II) with [X, P] = 2i.
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

_JSON_REQUIRED = (
    "d",
    "Gamma",
    "mu",
    "nu",
    "Gamma_col",
    "Gamma_tilde",
    "Gamma_pump",
    "Gamma_L_out",
    "Phi",
    "Omega",
    "N",
    "eta",
)
# Calibration scale for gamma_s; the proportionality constant is not fixed by
# the physics, so it travels with the parameter set but is optional in JSON.
_JSON_OPTIONAL = ("gamma_s_scale",)


def require_finite(**values) -> None:
    """Raise InvariantViolationError unless every value is a finite real."""
    for name, v in values.items():
        if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                or not math.isfinite(v)):
            raise InvariantViolationError(
                f"{name} must be a finite number, got {v!r}")


def _check_keys(doc: dict, required=()) -> None:
    """Reject parameter keys ModelParams does not know (and missing ones)."""
    known = set(_JSON_REQUIRED + _JSON_OPTIONAL)
    for what, bad in (("unknown", set(doc) - known),
                      ("missing", set(required) - set(doc))):
        if bad:
            raise ValueError(f"{what} parameter keys: {sorted(bad)}")


def bogoliubov_amplitudes(squeeze: float) -> tuple[float, float]:
    """Return (mu, nu) with mu^2 - nu^2 = 1 and mu - nu = ``squeeze``.

    ``squeeze`` is the amplitude s with s^2 the steady-state EPR variance of
    the engineered dissipation; s = 0.4 gives the nominal (mu-nu)^2 = 0.16.
    """
    if squeeze <= 0:
        raise ValueError("squeeze amplitude must be positive")
    s = squeeze
    return (s + 1.0 / s) / 2.0, (1.0 / s - s) / 2.0


@dataclass(frozen=True)
class ModelParams:
    """All physical rates and coupling coefficients of the two-ensemble model.

    Rates are in ms^-1, Omega in rad/ms, Phi in photons/ms (arbitrary scale),
    d and N dimensionless.
    """

    d: float
    Gamma: float
    mu: float
    nu: float
    Gamma_col: float
    Gamma_tilde: float
    Gamma_pump: float
    Gamma_L_out: float
    Phi: float
    Omega: float
    N: float
    eta: float
    gamma_s_scale: float = 1.0

    def __post_init__(self):
        require_finite(**vars(self))
        if self.d < 0:
            raise InvariantViolationError("optical depth d must be >= 0")
        for name in ("Gamma", "Gamma_col", "Gamma_tilde", "Gamma_pump",
                     "Gamma_L_out", "Phi", "gamma_s_scale"):
            if getattr(self, name) < 0:
                raise InvariantViolationError(f"{name} must be >= 0")
        if not 0.0 <= self.eta <= 1.0:
            raise InvariantViolationError("eta must lie in [0, 1]")
        if self.N <= 0:
            raise InvariantViolationError("atom number N must be > 0")
        if not self.mu > self.nu >= 0:
            raise InvariantViolationError("require mu > nu >= 0")
        if abs(self.mu**2 - self.nu**2 - 1.0) > 1e-9:
            raise InvariantViolationError("require mu^2 - nu^2 = 1")
        if (self.mu - self.nu) ** 2 >= 1.0:
            raise InvariantViolationError(
                "(mu - nu)^2 must be < 1 for an entangled steady state"
            )

    @property
    def squeeze_sq(self) -> float:
        """Steady-state EPR variance (mu - nu)^2 of pure engineered dissipation."""
        return (self.mu - self.nu) ** 2

    def replace(self, **kwargs) -> "ModelParams":
        _check_keys(kwargs)
        return dataclasses.replace(self, **kwargs)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("parameter document must be a JSON object")
        _check_keys(doc, required=_JSON_REQUIRED)
        return cls(**doc)


@dataclass(frozen=True)
class GaussianState:
    """Means and covariance of (X_I, P_I, X_II, P_II) in CSS units."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.mean.shape != (4,) or self.cov.shape != (4, 4):
            raise InvariantViolationError("mean must be (4,), cov must be (4, 4)")

    def validate(self) -> "GaussianState":
        # np.allclose(cov, cov.T, atol=1e-8), NaN and infinities included
        c, ct = self.cov, self.cov.T
        with np.errstate(invalid="ignore"):
            close = ((np.abs(c - ct) <= 1e-8 + 1e-5 * np.abs(ct))
                     & np.isfinite(ct) | (c == ct))
        if not close.all():
            raise InvariantViolationError("covariance is not symmetric")
        # equal infinities pass the symmetry check; eigvalsh cannot take them
        if not np.all(np.isfinite(c)):
            raise InvariantViolationError("covariance must be finite")
        eigs = np.linalg.eigvalsh(0.5 * (self.cov + self.cov.T))
        if eigs.min() < -1e-8:
            raise InvariantViolationError(
                f"covariance is not PSD (min eigenvalue {eigs.min():.3e})"
            )
        symplectic_check(self.cov)
        return self


@dataclass(frozen=True)
class EprReport:
    """EPR witness split into its two nonlocal half-variances."""

    var_x_minus: float
    var_p_plus: float
    xi: float
    entangled: bool


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a 4x4 covariance; >= 1 for physical states."""
    m = 1j * SYMPLECTIC_FORM @ np.asarray(cov, dtype=float)
    vals = np.sort(np.abs(np.linalg.eigvals(m)))
    # Eigenvalues come in +/- pairs of equal modulus; keep one per pair.
    return vals[::2]


def symplectic_check(cov: np.ndarray) -> None:
    """Raise if the covariance violates the Heisenberg (symplectic) bound
    by more than 1e-7."""
    nu_min = symplectic_eigenvalues(cov)[0]
    if nu_min < 1.0 - 1e-7:
        raise InvariantViolationError(
            f"symplectic eigenvalue {nu_min:.6f} below the Heisenberg bound"
        )


def epr_witness(c) -> tuple:
    """(var((X_I - X_II)/2), var((P_I + P_II)/2), xi) of a covariance c."""
    # var((X_I - X_II)/2): quadrature indices 0 and 2.
    var_xm = 0.25 * (c[0, 0] + c[2, 2] - 2.0 * c[0, 2])
    # var((P_I + P_II)/2): quadrature indices 1 and 3.
    var_pp = 0.25 * (c[1, 1] + c[3, 3] + 2.0 * c[1, 3])
    return var_xm, var_pp, var_xm + var_pp


def epr_variance(state: GaussianState) -> EprReport:
    """Evaluate the EPR witness xi for a Gaussian state, validated first.

    xi < 1 certifies inseparability; the CSS sits exactly at xi = 1.
    """
    state.validate()
    # Means contribute nothing to the witness but guard against silent NaNs.
    if not np.all(np.isfinite(state.mean)):
        raise InvariantViolationError("state means are not finite")
    var_xm, var_pp, xi = epr_witness(state.cov)
    return EprReport(var_x_minus=var_xm, var_p_plus=var_pp, xi=xi,
                     entangled=bool(xi < 1.0))


def two_mode_squeezed_cov(mu: float, nu: float) -> np.ndarray:
    """Covariance of the ideal dissipative steady state (pure EPR state)."""
    c = mu**2 + nu**2
    s = 2.0 * mu * nu
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def css_state() -> GaussianState:
    """Coherent spin state: zero means, identity covariance."""
    return GaussianState(mean=np.zeros(4), cov=np.eye(4))
