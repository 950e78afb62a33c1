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
The states of a grid live in one complex (times, 4, 4) stack: it is
stepped in place, checked by one vectorised pass (:func:`_check_states`)
and read by one witness einsum (:func:`_xi_batch`).
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
        _check_states(self.rho[None])
        return self

    @classmethod
    def css(cls) -> "ExactState":
        """Both ensembles fully pumped (the HP vacuum)."""
        return cls(rho=np.diag([1.0, 0.0, 0.0, 0.0]))


# the state checks in the order they are made, each with its refusal
_STATE_CHECKS = ("density matrix is not finite",
                 "density matrix trace drifted from 1",
                 "density matrix is not Hermitian",
                 "density matrix is not PSD")


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length if none."""
    return int(mask.argmax()) if mask.any() else mask.size


def _check_states(rhos: np.ndarray) -> np.ndarray:
    """``rhos``, a (states, 4, 4) stack, if every state is a density matrix.

    Per state, in order: every entry finite; the trace within 1e-10 of 1
    (real and imaginary parts); ``np.allclose`` to its adjoint (atol
    1e-10); the Hermitian part's ``eigvalsh`` >= -1e-10.  Raises
    InvariantViolationError with the first failing check of the earliest
    failing state, as a state-by-state loop would.  Only the states before
    the first non-finite one are tested further (NaN and inf would warn in
    the sums), and only those before the first failure get ``eigvalsh``.
    """
    atol = 1e-10
    fails = np.zeros((len(rhos), len(_STATE_CHECKS)), dtype=bool)
    fails[:, 0] = ~np.isfinite(rhos).all(axis=(1, 2))
    n = _first(fails[:, 0])
    fine = rhos[:n]
    adj = fine.conj().transpose(0, 2, 1)
    trace = np.trace(fine, axis1=1, axis2=2)
    fails[:n, 1] = ((np.abs(trace.real - 1.0) > atol)
                    | (np.abs(trace.imag) > atol))
    # np.allclose(rho, rho^dag, atol=atol): on finite entries its test is
    # just this
    fails[:n, 2] = ~(np.abs(fine - adj) <= atol + 1e-5 * np.abs(adj)
                     ).all(axis=(1, 2))
    m = _first(fails[:n, 1:3].any(axis=1))
    if m:
        fails[:m, 3] = (np.linalg.eigvalsh(0.5 * (fine[:m] + adj[:m]))
                        .min(axis=1) < -atol)
    bad = fails.any(axis=1)
    if bad.any():
        raise InvariantViolationError(
            _STATE_CHECKS[int(fails[_first(bad)].argmax())])
    return rhos


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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 4 x 4 matrices, the same products without its
    general-shape handling."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(_DIM * _DIM,
                                                             _DIM * _DIM)


def _generator(ops) -> np.ndarray:
    """Lindblad generator of the real ``ops``, on the row-major vec(rho)."""
    eye = np.eye(_DIM)
    gen = np.zeros((_DIM * _DIM, _DIM * _DIM))
    for L in ops:
        LdL = L.T @ L
        gen += (_kron(L, L) - 0.5 * _kron(LdL, eye)
                - 0.5 * _kron(eye, LdL.T))
    return gen


def _step(rho: np.ndarray, propagator: np.ndarray) -> np.ndarray:
    """vec(rho) <- propagator vec(rho), then the Hermitian part."""
    rho = (propagator @ rho.ravel()).reshape(rho.shape)
    return 0.5 * (rho + rho.conj().T)


def exact_lindblad_step(state: ExactState,
                        propagator: np.ndarray) -> ExactState:
    """Advance ``state`` one interval: vec(rho) <- propagator vec(rho)."""
    return ExactState(rho=_step(state.rho, propagator)).validate()


def integrate_exact(state: ExactState, params: ModelParams,
                    noise: NoiseChannels, times) -> np.ndarray:
    """Exact states on a strictly increasing grid, as a validated complex
    (len(times), 4, 4) stack whose row 0 is ``state.rho``.

    One exponential per interval, all from one ``_expm_grid`` call over the
    sorted widths, so the cost does not grow with the horizon.  The whole
    stack is stepped (each row by :func:`exact_lindblad_step`'s formula),
    then checked once (:func:`_check_states`, the start included): the
    earliest invalid state is refused as a state-by-state loop would.
    Validity is limited by the 1e-10 trace check: at fig2a rates 20
    intervals over 1e6 ms stay valid, while over 1e7 ms the trace drifts
    and ``InvariantViolationError`` is raised.
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
    rhos = np.empty((times.size, _DIM, _DIM), dtype=complex)
    rhos[0] = state.rho
    for k, propagator in enumerate(propagators):
        rhos[k + 1] = _step(rhos[k], propagator)
    return _check_states(rhos)


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


def _witness_operators():
    """(A, A A, B, B B, X_I, X_II) with A = Y_I - Y_II, B = Z_I + Z_II:
    the witness needs tr(rho O) of these six alone."""
    (y1, z1, x1), (y2, z2, x2) = _COLLECTIVE
    a, b = y1 - y2, z1 + z2
    ops = np.array([a, a @ a, b, b @ b, x1, x2], dtype=complex)
    ops.flags.writeable = False
    return ops


_WITNESS_OPS = _witness_operators()


def _xi_batch(rhos: np.ndarray) -> np.ndarray:
    """:func:`xi_exact` of every state of a (states, 4, 4) stack: one
    einsum gives tr(rho O) = sum_ij rho_ij O_ji for the six operators."""
    tr = np.einsum("tij,kji->tk", rhos, _WITNESS_OPS).real
    num = (tr[:, 1] - tr[:, 0] ** 2) + (tr[:, 3] - tr[:, 2] ** 2)
    den = np.abs(tr[:, 4]) + np.abs(tr[:, 5])
    if np.any(den <= 0):
        raise InvariantViolationError("macroscopic spin vanished")
    return num / den


def xi_exact(state: ExactState) -> float:
    """EPR witness evaluated directly on the density matrix.

    Normalised by the instantaneous macroscopic spin, exactly as the
    measured witness: xi = [var(Y_I - Y_II) + var(Z_I + Z_II)] /
    (|<X_I>| + |<X_II>|).  This reduces to the canonical-quadrature form in
    the fully polarised limit and stays meaningful as the small exact system
    depolarises.  The one-state case of :func:`_xi_batch`.
    """
    return float(_xi_batch(state.rho[None])[0])


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
    xi_ex = _xi_batch(integrate_exact(ExactState.css(), params, noise,
                                      times))
    traj = propagate_moments(css_state(), params, noise, times)
    return float(np.max(np.abs(traj.xi - xi_ex)))
