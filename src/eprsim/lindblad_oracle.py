"""Exact few-spin Lindblad integrator used to certify the moment equations.

Each ensemble is a register of n <= 2 two-level spins.  The local basis per
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

The generator does not depend on time, so each grid interval is one exact
map vec(rho) <- expm(generator dt) vec(rho): one dense 16^n x 16^n exponential
per interval whatever its length (256^2, tens of ms, for n = 2).  Registers
stop at n = 2: n = 3 would need 4096^2 complex entries (268 MB, tens of
seconds per interval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

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
        if self.n_per_ensemble < 1 or self.n_per_ensemble > 2:
            raise InvariantViolationError("n_per_ensemble must be in 1..2")
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


def jump_operators(params: ModelParams, noise: NoiseChannels, n: int):
    """Lindblad operator list matching the Gaussian engine's rates."""
    rate = relaxation_rate(params)
    a1, a2, sz = ensemble_operators(n)
    root = np.sqrt(rate / n)
    ops = []
    if rate > 0:
        ops.append(root * (params.mu * a1 - params.nu * a2.conj().T))
        ops.append(root * (params.mu * a2 - params.nu * a1.conj().T))
    if noise.dephasing > 0:
        for z in sz:
            ops.append(np.sqrt(noise.dephasing / 4.0) * z)
    return ops


def _generator(ops, dim: int) -> np.ndarray:
    """Lindblad generator acting on the row-major vec(rho)."""
    eye = np.eye(dim)
    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    for L in ops:
        LdL = L.conj().T @ L
        gen += (np.kron(L, L.conj()) - 0.5 * np.kron(LdL, eye)
                - 0.5 * np.kron(eye, LdL.T))
    return gen


def exact_lindblad_step(state: ExactState, generator: np.ndarray,
                        dt: float) -> ExactState:
    """Advance ``state`` by ``dt``: vec(rho) <- expm(generator dt) vec(rho)."""
    rho = (expm(generator * dt) @ state.rho.ravel()).reshape(state.rho.shape)
    rho = 0.5 * (rho + rho.conj().T)
    return ExactState(rho=rho, n_per_ensemble=state.n_per_ensemble).validate()


def integrate_exact(state: ExactState, params: ModelParams,
                    noise: NoiseChannels, times):
    """Exact states on a strictly increasing grid; returns the state list.

    One matrix exponential per interval, so the cost does not grow with the
    horizon.  Validity is limited by ``ExactState.validate``'s 1e-10 trace
    check instead: at fig2a rates 20 intervals over 1e6 ms stay valid, while
    over 1e7 ms the trace drifts and ``InvariantViolationError`` is raised.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a 1-D array of finite values")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must strictly increase")
    ops = jump_operators(params, noise, state.n_per_ensemble)
    generator = _generator(ops, state.dim)
    out = [state]
    for dt in np.diff(times):
        out.append(exact_lindblad_step(out[-1], generator, dt))
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
                            noise: NoiseChannels | None = None) -> float:
    """Max |xi_gaussian - xi_exact| on 21 times, N = 1 spin per ensemble.

    Contract: < 0.05 over horizons <= 0.1 / gamma_c, with gamma_c = d Gamma
    the witness relaxation rate, for pure engineered dissipation (the
    Gaussian-approximation regime); < 1e-6 for a pure-dephasing channel,
    where both descriptions agree exactly.
    """
    if not 0.0 <= horizon < np.inf:
        raise ValueError("horizon must be finite and >= 0")
    if noise is None:
        noise = NoiseChannels(dephasing=0.0)
    if horizon == 0.0:
        return 0.0
    times = np.linspace(0.0, horizon, 21)
    exact_states = integrate_exact(ExactState.css(1), params, noise, times)
    xi_ex = np.array([xi_exact(s) for s in exact_states])
    traj = propagate_moments(css_state(), params, noise, times)
    return float(np.max(np.abs(traj.xi - xi_ex)))
