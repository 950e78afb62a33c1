"""Three-level rate model: populations, polarisation, the t = 0 polarisation
slope and the multilevel entanglement formula.

Atoms live in |4,+/-4> (fraction n44), |4,+/-3> (n43) and a hidden level
|3,+/-3> (nh); both ensembles are treated symmetrically so one state serves
both.  Every quantity is a fraction of the atom number, which cancels from
all outputs.  All transitions are linear with constant rates, so summing
and subtracting pairs of equations gives the textbook forms

    dn2/dt       = -(G_out + 2 G_in) n2 + 2 G_in
    dP2_tilde/dt = -(G_34 + G_43 + G_out) P2_tilde + (G_34 - G_43) n2

with n2 = n44 + n43 and P2_tilde = P2 n2, which ``propagate_populations``
solves in closed form (for n2 and D = n44 - n43): two exponentials and
their divided differences over the whole time grid at once.  The closed
form also takes complex rates, and the renormalisation complex fractions,
which is how ``estimation`` differentiates them.  The optional incoherent
pump (``RateSet.pump``) refills the hidden level into F=4 and repolarises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePolarizationError, InvariantViolationError, ModelViolationError
from .spin_model import ModelParams, require_finite

__all__ = [
    "PopulationState",
    "RateSet",
    "PopulationSeries",
    "series_columns",
    "transition_rates",
    "rate_matrix",
    "propagate_populations",
    "polarization_slope",
    "multilevel_xi",
]


# Fraction of pump-refilled atoms landing in |4,+/-4>; the split is not
# pinned down by the physics, so it is an equal split.
_PUMP_BRANCHING = 0.5

# <J_x>/N carried by each level (n44, n43, nh): m = 4, 3 and none
_JX_WEIGHTS = np.array([4.0, 3.0, 0.0])


def _check_populations(n44, n43, nh) -> None:
    """Fractions (scalars or aligned arrays) are finite, >= 0, sum to 1."""
    fr = np.array([n44, n43, nh], dtype=float)
    if not (np.isfinite(fr) & (fr >= -1e-12)).all():
        raise InvariantViolationError(
            "population fractions must be finite and >= 0")
    if (np.abs(fr.sum(axis=0) - 1.0) > 1e-9).any():
        raise InvariantViolationError("population fractions must sum to 1")


@dataclass(frozen=True)
class PopulationState:
    """Sublevel population fractions of one ensemble (both are symmetric)."""

    n44: float
    n43: float
    nh: float

    def __post_init__(self):
        require_finite(n44=self.n44, n43=self.n43, nh=self.nh)
        _check_populations(self.n44, self.n43, self.nh)


@dataclass(frozen=True)
class RateSet:
    """Transition rates of the three-level model (ms^-1).

    ``pump`` is the incoherent pump: it moves |4,+/-3> atoms to |4,+/-4>
    and refills the hidden level into F=4, half into each level.
    """

    g34: float  # |4,+/-3> -> |4,+/-4>  (driving-field cooling + collisions)
    g43: float  # |4,+/-4> -> |4,+/-3>  (heating + collisions)
    g_out: float  # either F=4 level -> hidden
    g_in: float  # hidden -> either F=4 level
    pump: float = 0.0  # incoherent pump rate; 0 without a pump

    def __post_init__(self):
        require_finite(**vars(self))
        for name, v in vars(self).items():
            if v < 0:
                raise InvariantViolationError(f"rate {name} must be >= 0")


def transition_rates(params: ModelParams, pump: bool = False) -> RateSet:
    """Rates from the model parameters; collisions feed every transition and
    ``pump`` adds the incoherent pump at Gamma_pump."""
    return RateSet(
        g34=params.mu**2 * params.Gamma + params.Gamma_col,
        g43=params.nu**2 * params.Gamma + params.Gamma_col,
        g_out=params.Gamma_L_out + params.Gamma_col,
        g_in=params.Gamma_col,
        pump=params.Gamma_pump if pump else 0.0,
    )


def rate_matrix(rates: RateSet) -> np.ndarray:
    """Generator of the linear population system, ordered (n44, n43, nh)."""
    return _generator(rates.g34, rates.g43, rates.g_out, rates.g_in,
                      rates.pump)


def _generator(g34, g43, g_out, g_in, pump) -> np.ndarray:
    """``rate_matrix`` of plain numbers, with no check on them."""
    a = np.array(
        [
            [-(g43 + g_out), g34, g_in],
            [g43, -(g34 + g_out), g_in],
            [g_out, g_out, -2.0 * g_in],
        ]
    )
    if pump != 0:
        p, b = pump, _PUMP_BRANCHING
        a += np.array(
            [
                [0.0, p, b * p],
                [0.0, -p, (1.0 - b) * p],
                [0.0, 0.0, -p],
            ]
        )
    return a


@dataclass
class PopulationSeries:
    """Population trajectory; arrays are aligned with ``times``."""

    times: np.ndarray
    n44: np.ndarray
    n43: np.ndarray
    nh: np.ndarray

    def __post_init__(self):
        self.times, self.n44, self.n43, self.nh = (
            np.asarray(a, dtype=float)
            for a in (self.times, self.n44, self.n43, self.nh))
        if not self.times.shape == self.n44.shape == self.n43.shape \
                == self.nh.shape:
            raise InvariantViolationError("population series lengths differ")
        _check_populations(self.n44, self.n43, self.nh)
        vars(self).update(_levels(self.n44, self.n43, self.nh,
                                  np.abs(self.n44 - self.n43)))

    def state(self, k: int) -> PopulationState:
        """PopulationState at ``times[k]``."""
        return PopulationState(n44=self.n44[k], n43=self.n43[k],
                               nh=self.nh[k])


def _levels(n44, n43, nh, p2_tilde) -> dict:
    """A PopulationSeries' arrays but its times from the fractions and
    p2_tilde = |n44 - n43|, real or complex; P2 is 0 where n2 = 0."""
    n2 = n44 + n43
    p2 = np.divide(p2_tilde, n2, out=np.zeros(n2.shape, n2.dtype),
                   where=n2.real > 0)
    return dict(n44=n44, n43=n43, nh=nh, p2_tilde=p2_tilde, n2_frac=n2,
                p2=p2, jx_frac=4.0 * n44 + 3.0 * n43)


def _unchecked(cls, **fields):
    """The dataclass ``cls`` holding ``fields`` as they are, without its
    __post_init__: for arrays that were checked where they were computed."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def series_columns(times, witness=None, pops=None) -> dict:
    """The time-series schema as named columns: time_ms, then ``witness``
    (var_x_minus, var_p_plus, xi; None: empty), then Jx_norm, N2 and P2 of
    the PopulationSeries ``pops``, which must be on ``times`` (ValueError;
    None: 1, empty, empty).  Jx_norm is <J_x> over its initial value, which
    must be positive (DegeneratePolarizationError)."""
    cols = [times, *(witness or (None, None, None)), np.ones(len(times)),
            None, None]
    if pops is not None:
        if not np.array_equal(pops.times, times):
            raise ValueError("the populations must be on the series' times")
        jx0 = pops.jx_frac[0]
        if jx0 <= 0.0:
            raise DegeneratePolarizationError(
                "initial mean spin vanishes; Jx_norm is undefined")
        cols[4:] = [pops.jx_frac / jx0, pops.n2_frac, pops.p2]
    return dict(zip(("time_ms", "var_x_minus", "var_p_plus", "xi", "Jx_norm",
                     "N2", "P2"), cols))


def _checked_grid(grid) -> np.ndarray:
    """``grid`` as floats; ValueError unless 1-D, nonempty, finite, rising."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError("grid must be a nonempty 1-D array of finite values")
    if (grid[1:] - grid[:-1] <= 0).any():
        raise ValueError("grid must strictly increase")
    return grid


def _divided(x, y, e_x, e_y, t):
    """(e^{-x t} - e^{-y t}) / (y - x) over ``t`` for the scalar rates x
    and y, given e_x = e^{-x t} and e_y = e^{-y t}: e^{-x t} (-expm1(-(y -
    x) t)) / (y - x) from the rate of smaller real part, so no difference of
    exponentials cancels, and t e^{-x t} where the two coincide, so
    defective generators are exact."""
    if y.real < x.real:
        x, y, e_x = y, x, e_y
    if x == y:
        return t * e_x
    return np.expm1((x - y) * t) * e_x / (x - y)


def _closed_form(n0, t, g34, g43, g_out, g_in, pump):
    """(n44, n43, nh) at the times ``t`` >= 0 from ``n0`` for scalar rates:
    floats, or complex for a complex step.

    With total = n0's sum, n2 = n44 + n43 and D = n44 - n43 obey

        n2' = -a n2 + q total            a = g_out + q, q = 2 g_in + pump
        D'  = -lam D + k n2 + (2 b - 1) pump nh
                                         lam = g34 + g43 + g_out + pump
                                         k = g34 - g43 + pump

    (b = _PUMP_BRANCHING, nh = total - n2), so n2 relaxes at rate a, moving
    ``shift`` = n2(0) - n2(inf) = total g_out / a - nh(0) into the hidden
    level, and D is e^{-lam t} and divided differences of e^{-a t},
    e^{-lam t} and 1.  Where a = 0, g_out = 0 and nothing moves.
    """
    n44, n43, nh = n0
    n2_0, d_0 = n44 + n43, n44 - n43
    total = n2_0 + nh
    a, lam = g_out + 2.0 * g_in + pump, g34 + g43 + g_out + pump
    c = (2.0 * _PUMP_BRANCHING - 1.0) * pump
    kc = g34 - g43 + pump - c
    # a complex a is 0 only along a direction that keeps g_out = 0 too, if
    # it keeps every rate >= 0
    shift = total * g_out / a - nh if a else 0.0
    e_a, e_lam = np.exp(-a * t), np.exp(-lam * t)
    moved = (1.0 - e_a) * shift
    source = kc * (n2_0 - shift) + c * total  # D's drive as t -> inf
    d = (d_0 * e_lam + source * _divided(0.0, lam, 1.0, e_lam, t)
         + kc * shift * _divided(a, lam, e_a, e_lam, t))
    n2 = n2_0 - moved
    return 0.5 * (n2 + d), 0.5 * (n2 - d), nh + moved


def _renormalised(sol):
    """Level fractions ``sol`` (3, ...) scaled to sum to 1 at every time."""
    return sol / sol.sum(axis=0, keepdims=True)


def _populations(n0, t, r) -> np.ndarray:
    """(n44, n43, nh), shape (3, len(t)), at ``t`` >= 0 from ``n0`` under
    the rates ``r`` (``RateSet``'s order): the closed form, clipped at 0,
    renormalised and checked; refused where the rates overflow or a
    fraction goes negative."""
    with np.errstate(over="ignore"):
        # rate_matrix's 1-norm, its largest absolute column sum; finite, it
        # bounds a, lam and the closed form's coefficients
        norm = 2.0 * max(r[1] + r[2], r[0] + r[2] + r[4], 2.0 * r[3] + r[4])
        if not np.isfinite(norm):
            raise InvariantViolationError(
                "population rates overflow: the generator's norm is not "
                "finite")
        sol = np.array(_closed_form(n0, t, *r))
    if sol.min() < -1e-8:
        raise ModelViolationError(
            f"population went negative ({sol.min():.3e}); rates are unphysical"
        )
    sol = _renormalised(np.maximum(sol, 0.0))
    _check_populations(*sol)
    return sol


def propagate_populations(initial: PopulationState, rates: RateSet,
                          grid) -> PopulationSeries:
    """Exact propagation of the linear population system over ``grid`` (ms,
    strictly increasing), in closed form (``_closed_form``): exact at every
    finite horizon, the steady state included."""
    grid = _checked_grid(grid)
    n44, n43, nh = _populations(
        (initial.n44, initial.n43, initial.nh), grid - grid[0],
        (rates.g34, rates.g43, rates.g_out, rates.g_in, rates.pump))
    return _unchecked(PopulationSeries, times=grid,
                      **_levels(n44, n43, nh, np.abs(n44 - n43)))


def polarization_slope(initial: PopulationState, rates: RateSet) -> float:
    """d/dt of P = <J_x(t)>/<J_x(0)> at t = 0, read off the generator:
    w A n0 / (w n0) with A = rate_matrix(rates) and w = (4, 3, 0) the
    <J_x>/N weight of each level.  Every transition counts, the hidden-level
    refill and the pump included, and the slope falls by exactly g_out."""
    n0 = np.array([initial.n44, initial.n43, initial.nh])
    jx0 = _JX_WEIGHTS @ n0
    if jx0 <= 0:
        raise DegeneratePolarizationError("macroscopic spin must be positive")
    return float(_JX_WEIGHTS @ rate_matrix(rates) @ n0 / jx0)


def multilevel_xi(xi_gauss, pop):
    """Multilevel witness xi = (Sigma_J + 14 n43) / (n2 (P2 + 7)) from the
    normalised Gaussian witness.

    Sigma_J = 2 <J_x> xi_gauss is the EPR spin variance; the |4,+/-3> atoms
    add excess noise and the denominator renormalises to the shrinking
    two-level subsystem.  Everything is per atom, since the atom number
    cancels.  ``pop`` is a PopulationSeries aligned with ``xi_gauss``, or
    its complex step.
    """
    if (pop.n2_frac <= 0).any():
        raise DegeneratePolarizationError("two-level subsystem is empty")
    sigma_j = 2.0 * pop.jx_frac * xi_gauss
    den = pop.n2_frac * (pop.p2 + 7.0)
    return (sigma_j + 14.0 * pop.n43) / den
