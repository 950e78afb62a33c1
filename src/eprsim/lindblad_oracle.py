"""Exact few-spin Lindblad integrator used to certify the moment equations.

Each ensemble is a register of n <= 3 two-level spins.  The local basis per
spin is (pumped, flipped); the collective flip operator of an ensemble is
sum_i |pumped><flipped|_i, which is the Holstein-Primakoff annihilator up to
the sqrt(n) normalisation.  The nonlocal jump operators then read

    L1 = sqrt(rate) (mu a_I - nu a_II^dag) / sqrt(n)
    L2 = sqrt(rate) (mu a_II - nu a_I^dag) / sqrt(n)

with ``rate`` equal to the covariance relaxation rate 2*gamma_c of the
Gaussian engine (the two scales are matched by construction so the models
can be compared state for state).  Local dephasing is sqrt(Gamma_tilde/4)
sigma_z per spin, which reproduces the Gaussian dephasing channel exactly
at the level of first and second moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .gaussian_dynamics import NoiseChannels, propagate_moments, relaxation_rate
from .spin_model import ModelParams, css_state

__all__ = [
    "ExactState",
    "ensemble_operators",
    "jump_operators",
    "exact_lindblad_step",
    "integrate_exact",
    "xi_exact",
    "validate_against_oracle",
]

_SZ = np.diag([1.0, -1.0])
_A = np.array([[0.0, 1.0], [0.0, 0.0]])  # |pumped><flipped|


def _embed(op, which, n_total):
    """Kronecker-embed a single-spin operator at site ``which``."""
    mats = [np.eye(2)] * n_total
    mats[which] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@dataclass
class ExactState:
    """Density matrix over n_I (x) n_II two-level spins."""

    rho: np.ndarray
    n_per_ensemble: int

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.n_per_ensemble < 1 or self.n_per_ensemble > 3:
            raise InvariantViolationError("n_per_ensemble must be in 1..3")
        if self.rho.shape != (self.dim, self.dim):
            raise InvariantViolationError("density matrix has wrong shape")

    @property
    def dim(self) -> int:
        return 4**self.n_per_ensemble

    def validate(self, atol: float = 1e-10) -> "ExactState":
        if abs(np.trace(self.rho).real - 1.0) > atol or abs(np.trace(self.rho).imag) > atol:
            raise InvariantViolationError("density matrix trace drifted from 1")
        if not np.allclose(self.rho, self.rho.conj().T, atol=atol):
            raise InvariantViolationError("density matrix is not Hermitian")
        if np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min() < -atol:
            raise InvariantViolationError("density matrix is not PSD")
        return self

    @classmethod
    def css(cls, n_per_ensemble: int = 1) -> "ExactState":
        """Both ensembles fully pumped (the HP vacuum)."""
        dim = 4**n_per_ensemble
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(rho=rho, n_per_ensemble=n_per_ensemble)


def ensemble_operators(n: int):
    """Collective annihilators (a_I, a_II) and per-spin sigma_z list."""
    n_total = 2 * n
    a1 = sum(_embed(_A, i, n_total) for i in range(n))
    a2 = sum(_embed(_A, n + i, n_total) for i in range(n))
    sz = [_embed(_SZ, i, n_total) for i in range(n_total)]
    return a1, a2, sz


def jump_operators(params: ModelParams, noise: NoiseChannels, n: int,
                   rate: float | None = None):
    """Lindblad operator list matching the Gaussian engine's rates."""
    if rate is None:
        rate = relaxation_rate(params)
    a1, a2, sz = ensemble_operators(n)
    root = np.sqrt(rate / n)
    ops = []
    if rate > 0:
        ops.append(root * (params.mu * a1 - params.nu * a2.conj().T))
        ops.append(root * (params.mu * a2 - params.nu * a1.conj().T))
    css = noise.css_rate
    if css > 0:
        for z in sz:
            ops.append(np.sqrt(css / 4.0) * z)
    return ops


def _rhs(rho, ops):
    out = np.zeros_like(rho)
    for L in ops:
        Ld = L.conj().T
        LdL = Ld @ L
        out += L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def exact_lindblad_step(state: ExactState, params: ModelParams,
                        noise: NoiseChannels, dt: float,
                        rate: float | None = None,
                        _ops=None) -> ExactState:
    """One fourth-order (RK4) step of the Lindblad equation."""
    if dt == 0.0:
        return state
    ops = _ops if _ops is not None else jump_operators(params, noise,
                                                       state.n_per_ensemble,
                                                       rate=rate)
    rho = state.rho
    k1 = _rhs(rho, ops)
    k2 = _rhs(rho + 0.5 * dt * k1, ops)
    k3 = _rhs(rho + 0.5 * dt * k2, ops)
    k4 = _rhs(rho + dt * k3, ops)
    rho = rho + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    rho = 0.5 * (rho + rho.conj().T)
    new = ExactState(rho=rho, n_per_ensemble=state.n_per_ensemble)
    new.validate()
    return new


def integrate_exact(state: ExactState, params: ModelParams,
                    noise: NoiseChannels, times, rate: float | None = None):
    """Integrate over a strictly increasing grid; returns state list."""
    times = np.asarray(times, dtype=float)
    ops = jump_operators(params, noise, state.n_per_ensemble, rate=rate)
    # RK4 substep small enough that dt * max(rate) stays << 1.
    rates = [rate if rate is not None else relaxation_rate(params),
             noise.css_rate]
    dt_max = 0.02 / max(max(rates), 1e-12)
    out = [state]
    for t0, t1 in zip(times[:-1], times[1:]):
        span = t1 - t0
        nsub = max(1, int(np.ceil(span / dt_max)))
        dt = span / nsub
        cur = out[-1]
        for _ in range(nsub):
            cur = exact_lindblad_step(cur, params, noise, dt, _ops=ops)
        out.append(cur)
    return out


def _collective_operators(n: int):
    """Transverse collective components and the macroscopic component.

    Per ensemble: Y = sum sigma_x / 2, Z = sum sigma_y / 2 (transverse) and
    X = sum sigma_z / 2 (the pumping axis in this basis).
    """
    a1, a2, sz = ensemble_operators(n)
    y1 = 0.5 * (a1 + a1.conj().T)
    y2 = 0.5 * (a2 + a2.conj().T)
    z1 = 0.5j * (a1.conj().T - a1)
    z2 = 0.5j * (a2.conj().T - a2)
    x1 = 0.5 * sum(sz[:n])
    x2 = 0.5 * sum(sz[n:])
    return (y1, z1, x1), (y2, z2, x2)


def xi_exact(state: ExactState) -> float:
    """EPR witness evaluated directly on the density matrix.

    Normalised by the instantaneous macroscopic spin, exactly as the
    measured witness: xi = [var(Y_I - Y_II) + var(Z_I + Z_II)] /
    (|<X_I>| + |<X_II>|).  This reduces to the canonical-quadrature form in
    the fully polarised limit and stays meaningful as the small exact system
    depolarises.
    """
    (y1, z1, x1), (y2, z2, x2) = _collective_operators(state.n_per_ensemble)
    rho = state.rho

    def _var(op):
        return (np.trace(rho @ op @ op).real
                - np.trace(rho @ op).real ** 2)

    num = _var(y1 - y2) + _var(z1 + z2)
    den = abs(np.trace(rho @ x1).real) + abs(np.trace(rho @ x2).real)
    if den <= 0:
        raise InvariantViolationError("macroscopic spin vanished")
    return num / den


def validate_against_oracle(params: ModelParams, horizon: float,
                            noise: NoiseChannels | None = None,
                            n_points: int = 21) -> float:
    """Max |xi_gaussian - xi_exact| for N = 1 spin per ensemble.

    Contract: < 0.05 over horizons <= 0.1 / gamma_c, with gamma_c = d Gamma
    the witness relaxation rate, for pure engineered dissipation (the
    Gaussian-approximation regime); < 1e-6 for a pure-dephasing channel,
    where both descriptions agree exactly.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if noise is None:
        noise = NoiseChannels(dephasing=0.0)
    if horizon == 0.0:
        return 0.0
    times = np.linspace(0.0, horizon, n_points)
    exact_states = integrate_exact(ExactState.css(1), params, noise, times)
    xi_ex = np.array([xi_exact(s) for s in exact_states])
    traj = propagate_moments(css_state(), params, noise, times)
    return float(np.max(np.abs(traj.xi - xi_ex)))
