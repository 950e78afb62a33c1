"""Exact two-spin Lindblad integrator, a check of the moment equations at
early times only: they agree within 0.05 up to t = 0.1 / (d Gamma) of pure
engineered dissipation (acceptance criterion 2) and within 1e-6 under pure
dephasing.  The steady state is not checked: with one spin per ensemble
the two models part long before it (ROADMAP item 6).

Each ensemble is one two-level spin with local basis (pumped, flipped); its
flip operator a = |pumped><flipped| is the Holstein-Primakoff annihilator
truncated to one excitation.  The nonlocal jump operators then read

    L1 = sqrt(rate) (mu a_I - nu a_II^dag)
    L2 = sqrt(rate) (mu a_II - nu a_I^dag)

with ``rate`` equal to the covariance relaxation rate 2*gamma_c of the
Gaussian engine (the two scales are matched by construction so the models
can be compared state for state).  Local dephasing is sqrt(Gamma_tilde/4)
sigma_z per spin, which reproduces the Gaussian dephasing channel exactly
at the level of first and second moments.

The generator is real and does not depend on time, so each grid interval
is one exact map vec(rho) <- exp(generator dt) vec(rho), a dense 16 x 16
exponential whatever its length: one numpy ``_expm_grid`` call gives all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .gaussian_dynamics import NoiseChannels, propagate_moments, relaxation_rate
from .multilevel_rates import _expm_grid
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
_I2 = np.eye(2)
_DIM = 4  # spin I (x) spin II
# operators on spin I (x) spin II: built once, read-only (frozen below)
_A1, _A2 = np.kron(_A, _I2), np.kron(_I2, _A)
_SZ1, _SZ2 = np.kron(_SZ, _I2), np.kron(_I2, _SZ)


@dataclass
class ExactState:
    """Density matrix over spin I (x) spin II."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (_DIM, _DIM):
            raise InvariantViolationError("density matrix has wrong shape")

    def validate(self) -> "ExactState":
        atol = 1e-10
        if abs(np.trace(self.rho).real - 1.0) > atol or abs(np.trace(self.rho).imag) > atol:
            raise InvariantViolationError("density matrix trace drifted from 1")
        if not np.allclose(self.rho, self.rho.conj().T, atol=atol):
            raise InvariantViolationError("density matrix is not Hermitian")
        if np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min() < -atol:
            raise InvariantViolationError("density matrix is not PSD")
        return self

    @classmethod
    def css(cls) -> "ExactState":
        """Both ensembles fully pumped (the HP vacuum)."""
        return cls(rho=np.diag([1.0, 0.0, 0.0, 0.0]))


def ensemble_operators():
    """Annihilators (a_I, a_II) and the sigma_z of spin I and spin II."""
    return _A1, _A2, [_SZ1, _SZ2]


def jump_operators(params: ModelParams, noise: NoiseChannels):
    """Lindblad operator list matching the Gaussian engine's rates."""
    rate = relaxation_rate(params)
    if not np.isfinite(rate):  # else inf * 0 in the operators
        raise InvariantViolationError("rate overflow: d * Gamma is not finite")
    a1, a2, sz = ensemble_operators()
    root = np.sqrt(rate)
    ops = []
    if rate > 0:
        ops.append(root * (params.mu * a1 - params.nu * a2.conj().T))
        ops.append(root * (params.mu * a2 - params.nu * a1.conj().T))
    if noise.dephasing > 0:
        for z in sz:
            ops.append(np.sqrt(noise.dephasing / 4.0) * z)
    return ops


def _generator(ops) -> np.ndarray:
    """Lindblad generator of the real ``ops``, on the row-major vec(rho)."""
    eye = np.eye(_DIM)
    gen = np.zeros((_DIM * _DIM, _DIM * _DIM))
    for L in ops:
        LdL = L.T @ L
        gen += (np.kron(L, L) - 0.5 * np.kron(LdL, eye)
                - 0.5 * np.kron(eye, LdL.T))
    return gen


def exact_lindblad_step(state: ExactState,
                        propagator: np.ndarray) -> ExactState:
    """Advance ``state`` one interval: vec(rho) <- propagator vec(rho)."""
    rho = (propagator @ state.rho.ravel()).reshape(state.rho.shape)
    rho = 0.5 * (rho + rho.conj().T)
    return ExactState(rho=rho).validate()


def integrate_exact(state: ExactState, params: ModelParams,
                    noise: NoiseChannels, times):
    """Exact states on a strictly increasing grid; returns the state list.

    One exponential per interval, all from one ``_expm_grid`` call over the
    sorted widths, so the cost does not grow with the horizon.  Validity is
    limited by ``ExactState.validate``'s 1e-10 trace check instead: at fig2a
    rates 20 intervals over 1e6 ms stay valid, while over 1e7 ms the trace
    drifts and ``InvariantViolationError`` is raised.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a 1-D array of finite values")
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise ValueError("times must strictly increase")
    generator = _generator(jump_operators(params, noise))
    order = dts.argsort()  # _expm_grid needs nondecreasing arguments
    propagators = _expm_grid(generator, dts[order])[order.argsort()]
    out = [state]
    for propagator in propagators:
        out.append(exact_lindblad_step(out[-1], propagator))
    return out


def _collective_operators(a1, a2):
    """Transverse spin components and the macroscopic component.

    Per ensemble: Y = sigma_x / 2, Z = sigma_y / 2 (transverse) and
    X = sigma_z / 2 = [a, a^dag] / 2 (the pumping axis in this basis).
    """
    y1 = 0.5 * (a1 + a1.conj().T)
    y2 = 0.5 * (a2 + a2.conj().T)
    z1 = 0.5j * (a1.conj().T - a1)
    z2 = 0.5j * (a2.conj().T - a2)
    x1 = 0.5 * (a1 @ a1.conj().T - a1.conj().T @ a1)
    x2 = 0.5 * (a2 @ a2.conj().T - a2.conj().T @ a2)
    return (y1, z1, x1), (y2, z2, x2)


_COLLECTIVE = _collective_operators(_A1, _A2)
for _op in (_A1, _A2, _SZ1, _SZ2, *_COLLECTIVE[0], *_COLLECTIVE[1]):
    _op.flags.writeable = False


def xi_exact(state: ExactState) -> float:
    """EPR witness evaluated directly on the density matrix.

    Normalised by the instantaneous macroscopic spin, exactly as the
    measured witness: xi = [var(Y_I - Y_II) + var(Z_I + Z_II)] /
    (|<X_I>| + |<X_II>|).  This reduces to the canonical-quadrature form in
    the fully polarised limit and stays meaningful as the small exact system
    depolarises.
    """
    (y1, z1, x1), (y2, z2, x2) = _COLLECTIVE
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
    """Max |xi_gaussian - xi_exact| on 21 times, one spin per ensemble.

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
    exact_states = integrate_exact(ExactState.css(), params, noise, times)
    xi_ex = np.array([xi_exact(s) for s in exact_states])
    traj = propagate_moments(css_state(), params, noise, times)
    return float(np.max(np.abs(traj.xi - xi_ex)))
