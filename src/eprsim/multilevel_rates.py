"""Three-level rate model: populations, polarisation, the t = 0 polarisation
slope and the multilevel entanglement formula.

Atoms live in |4,+/-4> (fraction n44), |4,+/-3> (n43) and a hidden level
|3,+/-3> (nh); both ensembles are treated symmetrically so one state serves
both.  Every quantity is a fraction of the atom number, which cancels from
all outputs.  All transitions are linear, so the population dynamics is a
3x3 linear ODE solved exactly by the matrix exponential exp(A t), computed
in numpy by Taylor scaling and squaring for the whole time grid at once;
the same call, on Van Loan's block matrix, gives the rate derivatives too.
Summing pairs of equations recovers the textbook forms

    dn2/dt       = -(G_out + 2 G_in) n2 + 2 G_in
    dP2_tilde/dt = -(G_34 + G_43 + G_out) P2_tilde + (G_34 - G_43) n2

with n2 = n44 + n43 and P2_tilde = P2 n2.  The optional incoherent pump
(``RateSet.pump``) refills the hidden level into F=4 and repolarises.
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
    """``rate_matrix`` of plain numbers: linear in them, so a rate tangent
    (any sign) gives the generator's tangent."""
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
    """Population trajectory; arrays are aligned with ``times``, and
    ``tangents`` (3, P, len(times)), if any, are the derivatives of (n44,
    n43, nh) along P directions: d_n2, d_p2_tilde and d_jx follow."""

    times: np.ndarray
    n44: np.ndarray
    n43: np.ndarray
    nh: np.ndarray
    tangents: np.ndarray | None = None

    def __post_init__(self):
        self.times, self.n44, self.n43, self.nh = (
            np.asarray(a, dtype=float)
            for a in (self.times, self.n44, self.n43, self.nh))
        if not self.times.shape == self.n44.shape == self.n43.shape \
                == self.nh.shape:
            raise InvariantViolationError("population series lengths differ")
        _check_populations(self.n44, self.n43, self.nh)
        self.n2_frac = self.n44 + self.n43
        self.p2_tilde = np.abs(self.n44 - self.n43)
        self.p2 = np.divide(self.p2_tilde, self.n2_frac,
                            out=np.zeros(self.n2_frac.shape),
                            where=self.n2_frac > 0)
        self.jx_frac = 4.0 * self.n44 + 3.0 * self.n43
        if self.tangents is not None:
            d44, d43, _ = self.tangents
            self.d_n2, self.d_jx = d44 + d43, 4.0 * d44 + 3.0 * d43
            self.d_p2_tilde = np.sign(self.n44 - self.n43) * (d44 - d43)

    def state(self, k: int) -> PopulationState:
        """PopulationState at ``times[k]``."""
        return PopulationState(n44=self.n44[k], n43=self.n43[k],
                               nh=self.nh[k])


# Degree of the Taylor polynomial: each point's argument is scaled to
# ||A t|| <= 1/2, where the remainder is below 0.5^19 / 19! ~ 2e-23
_TAYLOR_DEGREE = 18
# Each squaring about doubles the relative rounding error; past 52 of them
# (2^52 eps ~ 1) the result is noise, so such points come back NaN
_MAX_SQUARINGS = 52
# Grid points evaluated at a time, which bounds the Taylor powers and
# squaring copies held at once; a power of two keeps the BLAS kernel's row
# groups aligned, so each point rounds as in one whole-grid product
_CHUNK_POINTS = 1 << 16


def _expm_grid(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(a t_k) for every t_k >= 0 of the nondecreasing ``t``, shape
    (len(t), n, n), by Taylor scaling and squaring (Al-Mohy & Higham 2009)
    batched over _CHUNK_POINTS points at a time; NaN, with no overflow
    warning, where more than _MAX_SQUARINGS squarings are needed or
    ``a``'s 1-norm times t_k is not finite, InvariantViolationError where
    that norm is not finite.

    No eigendecomposition, so defective generators are as exact as any.
    """
    n = a.shape[0]
    with np.errstate(over="ignore"):
        norm = np.abs(a).sum(axis=0).max()  # 1-norm
        if not np.isfinite(norm):
            raise InvariantViolationError(
                "population rates overflow: the generator's norm is not "
                "finite")
        tau = t * norm
        tau2 = 2.0 * tau
    b = a / norm if norm > 0 else a
    terms = [np.eye(n)]  # B^j / j!
    for j in range(1, _TAYLOR_DEGREE + 1):
        terms.append(terms[-1] @ b / j)
    terms = np.array(terms).reshape(_TAYLOR_DEGREE + 1, n * n)
    # 2 tau = m 2^s with m in [0.5, 1), so tau / 2^s < 1/2; a 2 tau that
    # overflowed would need more than _MAX_SQUARINGS squarings too
    s = np.maximum(np.frexp(tau2)[1], 0)
    ok = (s <= _MAX_SQUARINGS) & np.isfinite(tau2)
    s = np.where(ok, s, 0)
    h = np.where(ok, np.ldexp(tau, -s), 0.0)
    # t is nondecreasing, so s is too: the finite points are a prefix, and
    # those of a chunk squared an (i + 1)-th time a suffix of its part of
    # that prefix, squared in place
    n_ok = np.count_nonzero(ok)
    e = np.empty((t.size, n, n))
    for c in range(0, t.size, _CHUNK_POINTS):
        chunk = e[c:c + _CHUNK_POINTS]
        np.matmul(h[c:c + _CHUNK_POINTS, None]
                  ** np.arange(_TAYLOR_DEGREE + 1), terms,
                  out=chunk.reshape(-1, n * n))
        s_ok = s[c:min(c + _CHUNK_POINTS, n_ok)]
        for i in range(s_ok.max(initial=0)):
            tail = chunk[s_ok.searchsorted(i, side="right"):s_ok.size]
            np.matmul(tail, tail, out=tail)
    e[n_ok:] = np.nan
    return e


def propagate_populations(initial: PopulationState, rates: RateSet,
                          grid, d_rates=None) -> PopulationSeries:
    """Exact propagation of the linear population system over ``grid`` (ms,
    strictly increasing).

    ``d_rates`` (P, 5), d(g34, g43, g_out, g_in, pump) per direction, adds
    the series' derivatives along them as its ``tangents``, shape (3, P,
    len(grid)) for (n44, n43, nh).  The derivative of exp(A t) along E is
    the upper-right block of exp([[A, E], [0, A]] t) (Van Loan 1978), whose
    diagonal blocks are exp(A t) itself: one ``_expm_grid`` call on [[A,
    E_1 .. E_k], [0, diag(A .. A)]] over the directions with E != 0 gives
    the series and its tangents, each E_i scaled to the 1-norm of A so the
    scaling step is that of A.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError("grid must be a nonempty 1-D array of finite values")
    if (grid[1:] - grid[:-1] <= 0).any():
        raise ValueError("grid must strictly increase")
    n0 = np.array([initial.n44, initial.n43, initial.nh])
    a, t = rate_matrix(rates), grid - grid[0]
    if d_rates is None:
        sol = (_expm_grid(a, t) @ n0).T
    else:
        d_a = np.array([_generator(*d)
                        for d in np.asarray(d_rates).reshape(-1, 5)])
        norm = np.abs(d_a).sum(axis=1).max(axis=1)  # 1-norm of each E_i
        live = norm > 0
        k = np.count_nonzero(live)
        scale = (np.abs(a).sum(axis=0).max() or 1.0) / norm[live]
        block = np.zeros((k + 1, 3, k + 1, 3))  # (k + 1)^2 blocks of 3 x 3
        block[range(k + 1), :, range(k + 1)] = a
        block[0, :, 1:] = (d_a[live] * scale[:, None, None]).transpose(1, 0, 2)
        e = _expm_grid(block.reshape(3 * k + 3, -1), t)[:, :3]
        sol = (e[:, :, :3] @ n0).T
        d_sol = np.zeros((3, len(d_a), t.size))
        d_sol[:, live] = (e[:, :, 3:].reshape(t.size, 3, k, 3) @ n0
                          / scale).transpose(1, 2, 0)
    if sol.min() < -1e-8:
        raise ModelViolationError(
            f"population went negative ({sol.min():.3e}); rates are unphysical"
        )
    sol = np.maximum(sol, 0.0)
    sol /= sol.sum(axis=0, keepdims=True)
    # the renormalisation, differentiated; the columns of A sum to zero, so
    # the raw sum is that of n0 at every time
    return PopulationSeries(
        times=grid, n44=sol[0], n43=sol[1], nh=sol[2],
        tangents=None if d_rates is None
        else (d_sol - sol[:, None] * d_sol.sum(axis=0)) / n0.sum())


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


def multilevel_xi(xi_gauss, pop, d_xi_gauss=None):
    """Multilevel witness xi = (Sigma_J + 14 n43) / (n2 (P2 + 7)) from the
    normalised Gaussian witness.

    Sigma_J = 2 <J_x> xi_gauss is the EPR spin variance; the |4,+/-3> atoms
    add excess noise and the denominator renormalises to the shrinking
    two-level subsystem.  Everything is per atom, since the atom number
    cancels.  ``pop`` is a PopulationSeries aligned with ``xi_gauss``.
    ``d_xi_gauss`` (P, n), the Gaussian witness's derivatives along the P
    directions of ``pop.tangents``, makes it return (xi, d_xi) with d_xi of
    shape (P, n).
    """
    if (pop.n2_frac <= 0).any():
        raise DegeneratePolarizationError("two-level subsystem is empty")
    sigma_j = 2.0 * pop.jx_frac * xi_gauss
    den = pop.n2_frac * (pop.p2 + 7.0)
    xi = (sigma_j + 14.0 * pop.n43) / den
    if d_xi_gauss is None:
        return xi
    # den = |n44 - n43| + 7 n2
    d_den = pop.d_p2_tilde + 7.0 * pop.d_n2
    d_num = (2.0 * pop.d_jx * xi_gauss + 2.0 * pop.jx_frac * d_xi_gauss
             + 14.0 * pop.tangents[1])
    return xi, (d_num - xi * d_den) / den
