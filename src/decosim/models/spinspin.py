"""Central qubit coupled to a bath of environment qubits through sigma_z.

H = (splitting/2) sz - (tunneling/2) sx + (sz/2) (x) sum_i g_i sz_i

Every environment operator is diagonal in the computational product
basis, so the joint Hamiltonian splits into one 2x2 system block per
environment bit string, shifted by the string's coupling sum.  Exact
evolution therefore costs 2^N two-by-two matrix exponentials instead of
one 2^(N+1)-dimensional one, and the joint pure state stays available
for information-flow analyses.  Dense Hamiltonian and propagator
builders are provided for small N so the block solver can be checked
against brute force.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import (
    NORM_TOL,
    DensityMatrix,
    Operator,
    StateVector,
    symmetrize,
)

MAX_ENV_QUBITS = 14
MAX_DENSE_QUBITS = 10

_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _sign_table(n: int) -> np.ndarray:
    """(2^n, n) array of sigma_z values, spin 0 on the most significant bit."""
    codes = np.arange(2**n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    return 1.0 - 2.0 * bits


@dataclass(frozen=True)
class SpinEnvironment:
    """Coupling strengths plus the initial product state of the bath qubits.

    ``env_states`` holds one normalized 2-vector per bath qubit in the
    computational basis; omitted entries default to the equal
    superposition.  ``splitting`` and ``tunneling`` parametrize the
    system's own Hamiltonian.
    """

    couplings: tuple[float, ...]
    env_states: tuple[np.ndarray, ...] | None = None
    splitting: float = 0.0
    tunneling: float = 0.0
    shift_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.couplings)
        if n == 0:
            raise ValueError("need at least one environment qubit")
        if n > MAX_ENV_QUBITS:
            raise ValueError(
                f"{n} environment qubits exceeds the brute-force limit {MAX_ENV_QUBITS}"
            )
        if self.env_states is None:
            object.__setattr__(self, "env_states", tuple(_PLUS.copy() for _ in range(n)))
        states = []
        for i, chi in enumerate(self.env_states):
            arr = np.asarray(chi, dtype=complex)
            if arr.shape != (2,):
                raise ValueError(f"environment qubit {i} state must be a 2-vector")
            if abs(np.linalg.norm(arr) - 1.0) > NORM_TOL:
                raise ValueError(f"environment qubit {i} state is not normalized")
            arr = arr.copy()
            arr.setflags(write=False)
            states.append(arr)
        object.__setattr__(self, "env_states", tuple(states))
        shifts = _sign_table(n) @ np.asarray(self.couplings, dtype=float)
        shifts.setflags(write=False)
        object.__setattr__(self, "shift_sums", shifts)

    @property
    def n_spins(self) -> int:
        return len(self.couplings)

    def env_amplitudes(self) -> np.ndarray:
        amps = np.ones(1, dtype=complex)
        for chi in self.env_states:
            amps = np.kron(amps, chi)
        return amps

    def env_populations(self) -> np.ndarray:
        return np.abs(self.env_amplitudes()) ** 2

    def block_unitaries(self, t: float) -> np.ndarray:
        """(2^N, 2, 2) system propagators, one per environment bit string."""
        a = 0.5 * (self.splitting + self.shift_sums)
        b = -0.5 * self.tunneling
        omega = np.hypot(a, b)
        c = np.cos(omega * t)
        # sin(w t)/w with its w -> 0 limit
        k = np.where(omega > 0.0, np.sin(omega * t) / np.where(omega > 0.0, omega, 1.0), t)
        u = np.empty((a.size, 2, 2), dtype=complex)
        u[:, 0, 0] = c - 1j * k * a
        u[:, 1, 1] = c + 1j * k * a
        u[:, 0, 1] = -1j * k * b
        u[:, 1, 0] = -1j * k * b
        return u

    def reduced_evolution(self, psi0, t_grid) -> np.ndarray:
        """Reduced 2x2 trajectory of a pure system state; (T, 2, 2) array."""
        psi = np.asarray(getattr(psi0, "amplitudes", psi0), dtype=complex).reshape(2)
        times = np.asarray(t_grid, dtype=float)
        pops = self.env_populations()
        out = np.empty((times.size, 2, 2), dtype=complex)
        for k, t in enumerate(times):
            branches = self.block_unitaries(float(t)) @ psi
            rho = np.einsum("e,ei,ej->ij", pops, branches, branches.conj())
            out[k] = symmetrize(rho)
        return out


@dataclass(frozen=True)
class SpinSpinResult:
    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    decoherence_factor: np.ndarray | None  # |rho01(t)/rho01(0)|, tunneling-free runs only
    joint_states: tuple[StateVector, ...] | None

    def coherence(self) -> np.ndarray:
        return np.array([s.entries[0, 1] for s in self.states])


def spin_spin_exact(
    env: SpinEnvironment, psi0, t_grid, keep_joint: bool = False
) -> SpinSpinResult:
    """Exact reduced trajectory; joint pure states retained on request."""
    psi = np.asarray(getattr(psi0, "amplitudes", psi0), dtype=complex).reshape(2)
    if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
        raise ValueError("system state is not normalized")
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a nonempty 1-d time grid")
    raw = env.reduced_evolution(psi, times)
    states = tuple(DensityMatrix(r, dims=(2,)) for r in raw)
    factor = None
    rho01_0 = psi[0] * np.conj(psi[1])
    if env.tunneling == 0.0 and abs(rho01_0) > 1e-12:
        factor = np.abs(raw[:, 0, 1]) / abs(rho01_0)
    joint = None
    if keep_joint:
        amps = env.env_amplitudes()
        dims = (2,) * (env.n_spins + 1)
        frames = []
        for t in times:
            branches = env.block_unitaries(float(t)) @ psi  # (E, 2)
            frames.append(StateVector((branches.T * amps).reshape(-1), dims=dims))
        joint = tuple(frames)
    return SpinSpinResult(times, states, factor, joint)


def _require_dense(env: SpinEnvironment, what: str) -> int:
    if env.n_spins > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense {what} limited to {MAX_DENSE_QUBITS} environment qubits"
        )
    return 2**env.n_spins


def spin_spin_hamiltonian(env: SpinEnvironment) -> Operator:
    """Dense joint Hamiltonian, system qubit first in the tensor order."""
    n_env = _require_dense(env, "Hamiltonian")
    a = 0.5 * (env.splitting + env.shift_sums)
    b = -0.5 * env.tunneling
    dim = 2 * n_env
    h = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(n_env)
    h[idx, idx] = a
    h[n_env + idx, n_env + idx] = -a
    h[idx, n_env + idx] = b
    h[n_env + idx, idx] = b
    return Operator(h, dims=(2,) * (env.n_spins + 1))


def spin_spin_propagator(env: SpinEnvironment, t: float) -> Operator:
    """Dense joint propagator assembled from the per-string blocks."""
    n_env = _require_dense(env, "propagator")
    u_blocks = env.block_unitaries(float(t))
    dim = 2 * n_env
    u = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(n_env)
    u[idx, idx] = u_blocks[:, 0, 0]
    u[idx, n_env + idx] = u_blocks[:, 0, 1]
    u[n_env + idx, idx] = u_blocks[:, 1, 0]
    u[n_env + idx, n_env + idx] = u_blocks[:, 1, 1]
    return Operator(u, dims=(2,) * (env.n_spins + 1))
