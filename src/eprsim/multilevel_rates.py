"""Three-level rate model: populations, polarisation, slope constraints and
the multilevel entanglement formula.

Atoms live in |4,+/-4> (fraction n44), |4,+/-3> (n43) and a hidden level
|3,+/-3> (nh); both ensembles are treated symmetrically so one state serves
both.  All transitions are linear, so the population dynamics is a 3x3
linear ODE solved exactly by matrix exponential.  Summing pairs of equations
recovers the textbook forms

    dN2/dt       = -(G_out + 2 G_in) N2 + 2 N G_in
    dP2_tilde/dt = -(G_34 + G_43 + G_out) P2_tilde + (G_34 - G_43) N2 / N

with P2_tilde = P2 N2 / N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePolarizationError, InvariantViolationError, ModelViolationError
from .spin_model import ModelParams, require_finite

__all__ = [
    "PopulationState",
    "RateSet",
    "PumpConfig",
    "PopulationSeries",
    "transition_rates",
    "rate_matrix",
    "propagate_populations",
    "polarization_slope",
    "sm_variance_drift",
    "multilevel_entanglement",
    "multilevel_xi",
    "columns_to_csv",
    "series_to_csv",
    "populations_to_csv",
]


def _check_populations(n44, n43, nh, N) -> None:
    """Fractions (scalars or aligned arrays) are finite, >= 0, sum to 1."""
    require_finite(N=N)
    fr = np.array([n44, n43, nh], dtype=float)
    if N <= 0 or not np.all(np.isfinite(fr) & (fr >= -1e-12)):
        raise InvariantViolationError(
            "need atom number N > 0 and finite population fractions >= 0")
    if np.any(np.abs(fr.sum(axis=0) - 1.0) > 1e-9):
        raise InvariantViolationError("population fractions must sum to 1")


@dataclass(frozen=True)
class PopulationState:
    """Sublevel population fractions of one ensemble (both are symmetric)."""

    n44: float
    n43: float
    nh: float
    N: float = 1.0

    def __post_init__(self):
        require_finite(n44=self.n44, n43=self.n43, nh=self.nh)
        _check_populations(self.n44, self.n43, self.nh, self.N)

    @property
    def n2_frac(self) -> float:
        return self.n44 + self.n43

    @property
    def N2(self) -> float:
        return self.N * self.n2_frac

    @property
    def p2(self) -> float:
        n2 = self.n2_frac
        if n2 == 0.0:
            return 0.0
        return abs(self.n44 - self.n43) / n2

    @property
    def p2_tilde(self) -> float:
        """P2 N2 / N, the polarisation weighted by two-level occupancy."""
        return abs(self.n44 - self.n43)

    @property
    def jx_frac(self) -> float:
        """<J_x>/N from the magnetic quantum numbers 4 and 3."""
        return 4.0 * self.n44 + 3.0 * self.n43

    @property
    def Jx(self) -> float:
        return self.N * self.jx_frac


@dataclass(frozen=True)
class RateSet:
    """Transition rates of the three-level model (ms^-1)."""

    g34: float  # |4,+/-3> -> |4,+/-4>  (driving-field cooling + collisions)
    g43: float  # |4,+/-4> -> |4,+/-3>  (heating + collisions)
    g_out: float  # either F=4 level -> hidden
    g_in: float  # hidden -> either F=4 level

    def __post_init__(self):
        require_finite(**vars(self))
        for name in ("g34", "g43", "g_out", "g_in"):
            if getattr(self, name) < 0:
                raise InvariantViolationError(f"rate {name} must be >= 0")


@dataclass(frozen=True)
class PumpConfig:
    """Incoherent pump: refills the hidden level into F=4 and repolarises.

    ``branching`` is the fraction of refilled atoms landing in |4,+/-4>;
    the split is not pinned down by the physics, equal split is the default.
    """

    rate: float
    branching: float = 0.5

    def __post_init__(self):
        require_finite(rate=self.rate, branching=self.branching)
        if self.rate < 0 or not 0.0 <= self.branching <= 1.0:
            raise InvariantViolationError("invalid pump configuration")


def transition_rates(params: ModelParams) -> RateSet:
    """Rates from the model parameters; collisions feed every transition."""
    return RateSet(
        g34=params.mu**2 * params.Gamma + params.Gamma_col,
        g43=params.nu**2 * params.Gamma + params.Gamma_col,
        g_out=params.Gamma_L_out + params.Gamma_col,
        g_in=params.Gamma_col,
    )


def rate_matrix(rates: RateSet, pump: PumpConfig | None = None) -> np.ndarray:
    """Generator of the linear population system, ordered (n44, n43, nh)."""
    a = np.array(
        [
            [-(rates.g43 + rates.g_out), rates.g34, rates.g_in],
            [rates.g43, -(rates.g34 + rates.g_out), rates.g_in],
            [rates.g_out, rates.g_out, -2.0 * rates.g_in],
        ]
    )
    if pump is not None and pump.rate > 0:
        p, b = pump.rate, pump.branching
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
    N: float = 1.0

    def __post_init__(self):
        self.times, self.n44, self.n43, self.nh = (
            np.asarray(a, dtype=float)
            for a in (self.times, self.n44, self.n43, self.nh))
        if not self.times.shape == self.n44.shape == self.n43.shape \
                == self.nh.shape:
            raise InvariantViolationError("population series lengths differ")
        _check_populations(self.n44, self.n43, self.nh, self.N)
        self.n2_frac = self.n44 + self.n43
        self.p2_tilde = np.abs(self.n44 - self.n43)
        self.p2 = np.divide(self.p2_tilde, self.n2_frac,
                            out=np.zeros_like(self.n2_frac),
                            where=self.n2_frac > 0)
        self.jx_frac = 4.0 * self.n44 + 3.0 * self.n43

    def state(self, k: int) -> PopulationState:
        """PopulationState at ``times[k]``."""
        return PopulationState(n44=self.n44[k], n43=self.n43[k],
                               nh=self.nh[k], N=self.N)

    @property
    def states(self) -> list:
        """PopulationState at every time point, built on demand."""
        return [self.state(k) for k in range(self.times.size)]


def propagate_populations(initial: PopulationState, rates: RateSet, grid,
                          pump: PumpConfig | None = None) -> PopulationSeries:
    """Exact propagation of the linear population system over ``grid``."""
    from scipy.linalg import expm  # loaded on first use: costly at start-up

    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-D array")
    a = rate_matrix(rates, pump)
    n0 = np.array([initial.n44, initial.n43, initial.nh])
    t_rel = grid - grid[0]
    # one batched matrix exponential over the grid: exact and safe for
    # defective generators (an eigendecomposition breaks down when pump
    # degeneracies make the rate matrix non-diagonalizable)
    sol = (expm(a * t_rel[:, None, None]) @ n0).T
    if sol.min() < -1e-8:
        raise ModelViolationError(
            f"population went negative ({sol.min():.3e}); rates are unphysical"
        )
    sol = np.clip(sol, 0.0, None)
    sol /= sol.sum(axis=0, keepdims=True)
    return PopulationSeries(times=grid, n44=sol[0], n43=sol[1], nh=sol[2],
                            N=initial.N)


def polarization_slope(initial: PopulationState, rates: RateSet) -> float:
    """d/dt of P = <J_x(t)>/<J_x(0)> at t = 0 from the rate model."""
    if initial.Jx <= 0:
        raise DegeneratePolarizationError("macroscopic spin must be positive")
    num = (-(rates.g43 + 4.0 * rates.g_out) * initial.n44
           + (rates.g34 - 3.0 * rates.g_out) * initial.n43)
    return num / initial.jx_frac


def sm_variance_drift(pop: PopulationState, params: ModelParams,
                      rates: RateSet) -> float:
    """Drift of the normalised rate-model variance; at the initial
    populations it is the small-time slope the slope constraints use.  The
    collective term vanishes exactly at P2 = (mu - nu)^2."""
    s2 = params.squeeze_sq
    p2 = pop.p2
    collective = -4.0 * params.d * params.Gamma * p2 * (1.0 - p2 / s2)
    refill = 7.0 * rates.g_in * p2
    leak = -7.0 * (rates.g_out + rates.g34 - rates.g43) * pop.n43
    return collective + refill + leak


def multilevel_entanglement(sigma_j, pop):
    """xi = (Sigma_J + 14 N_{|4,+/-3>}) / (N2 (P2 + 7)).

    ``sigma_j`` is the EPR spin variance in extensive spin units; the
    |4,+/-3> atoms add excess noise and the denominator renormalises to the
    shrinking two-level subsystem.
    """
    n2_atoms = pop.N * pop.n2_frac
    if np.any(n2_atoms <= 0):
        raise DegeneratePolarizationError("two-level subsystem is empty")
    n43_atoms = pop.N * pop.n43
    return (sigma_j + 14.0 * n43_atoms) / (n2_atoms * (pop.p2 + 7.0))


def multilevel_xi(xi_gauss, pop):
    """Multilevel witness from the normalised Gaussian witness.

    Uses Sigma_J = 2 |<J_x>| xi_gauss; the atom number cancels.  ``pop`` is
    a PopulationState, or a PopulationSeries aligned with ``xi_gauss``.
    """
    sigma_j = 2.0 * (pop.N * pop.jx_frac) * xi_gauss
    return multilevel_entanglement(sigma_j, pop)


def columns_to_csv(header, columns) -> str:
    """CSV with one row per index and every value written as %.17g; a column
    given as None is left empty."""
    n = len(next(c for c in columns if c is not None))
    cells = [[""] * n if c is None else [f"{v:.17g}" for v in c]
             for c in columns]
    rows = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(rows) + "\n"


def series_to_csv(times, witness=None, pops: PopulationSeries | None = None
                  ) -> str:
    """Shared time-series schema of trajectories and population series.

    ``witness`` holds the (var_x_minus, var_p_plus, xi) columns; ``pops`` is
    interpolated onto ``times``.  Jx_norm is <J_x> over its initial value
    (1 without populations), which must be positive.
    """
    cols = [times, *(witness or (None, None, None)), np.ones(len(times)),
            None, None]
    if pops is not None:
        jx0 = pops.jx_frac[0]
        if jx0 <= 0.0:
            raise DegeneratePolarizationError(
                "initial mean spin vanishes; Jx_norm is undefined")
        jx, n2, p2 = (np.interp(times, pops.times, v)
                      for v in (pops.jx_frac, pops.n2_frac, pops.p2))
        cols[4:] = [jx / jx0, n2, p2]
    return columns_to_csv(("time_ms", "var_x_minus", "var_p_plus", "xi",
                           "Jx_norm", "N2", "P2"), cols)


def populations_to_csv(series: PopulationSeries) -> str:
    """CSV export in the trajectory schema, witness columns empty."""
    return series_to_csv(series.times, pops=series)
