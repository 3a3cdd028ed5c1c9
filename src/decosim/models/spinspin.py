"""Central qubit coupled to a bath of environment qubits through sigma_z.

H = (splitting/2) sz - (tunneling/2) sx + (sz/2) (x) sum_i g_i sz_i

Every environment operator is diagonal in the computational product
basis, so the joint Hamiltonian splits into one 2x2 system block
h_s = a_s sz + b sx per environment bit string s, with a_s shifted by the
string's coupling sum.  Each block propagator has the closed form
exp(-i h_s t) = cos(w_s t) - i sin(w_s t) h_s / w_s, w_s = |(a_s, b)|, so
the reduced state is a population-weighted mixture of 2^N branches that
is linear in cos(2 w_s t) and sin(2 w_s t) (``reduced_evolution``).  On
a uniform time grid each phase splits into a coarse and a fine part,
t = c + u, so the sums need cosines and sines of (n1 + n2) 2^N phases,
n1 n2 >= T and n2 about sqrt(T), not of T 2^N (``_phase_sums``).  Only
the reduced state is computed; the joint pure state is never formed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import KET_PLUS, NORM_TOL, SIGMA_X, SIGMA_Z, EvolutionResult

MAX_ENV_QUBITS = 14
# (times x bit strings) entries per chunk of the reduced-state sums; bounds their memory
_CHUNK_ENTRIES = 2**16


def _phase_sums(times, theta, cos_weights, sin_weights) -> np.ndarray:
    """(T, 3) sums cos(t theta) @ cos_weights + sin(t theta) @ sin_weights.

    Each time is split as t = c + u, and
    cos(A + B) w_c + sin(A + B) w_s = cos A (w_c cos B + w_s sin B) + sin A (w_s cos B - w_c sin B)
    folds the fine parts u into two (2^N, 3 n2) tables F_c and F_s, so the
    sums are cos(c theta) @ F_c + sin(c theta) @ F_s.  On a uniform grid
    t_k = t0 + k dt, k = n2 k1 + k2 gives c = t0 + k1 n2 dt and u = k2 dt
    with n2 about sqrt(T), capped so each table holds at most
    ``_CHUNK_ENTRIES`` entries; rows past the last time are dropped.  On
    any other grid c = times and u = {0}, where F_c = w_c and F_s = w_s
    exactly and this is the direct sum.
    """
    n_times, size = times.size, theta.size
    n2 = min(math.isqrt(max(n_times - 1, 0)) + 1, _CHUNK_ENTRIES // (3 * size))
    coarse, fine = times, np.zeros(1)
    if n2 > 1:
        # near DBL_MAX the model times may overflow: that grid is taken as not uniform
        with np.errstate(over="ignore", invalid="ignore"):
            step = (times[-1] - times[0]) / (n_times - 1)
            model = times[0] + np.arange(n_times) * step
            tol = 4.0 * np.finfo(float).eps * np.abs(times).max()
            uniform = (np.all(np.abs(model - times) <= tol)
                       and np.isfinite(theta.max() * np.abs(model).max()))
        if uniform:
            coarse, fine = model[::n2], np.arange(n2) * step
    n2 = fine.size
    sin_fine = np.sin(np.outer(theta, fine))
    cos_fine = np.cos(np.outer(theta, fine))
    table_c = np.empty((size, n2, 3))
    table_s = np.empty((size, n2, 3))
    for f in range(3):  # one feature at a time keeps the temporaries at (2^N, n2)
        np.multiply(cos_fine, cos_weights[:, f, None], out=table_c[:, :, f])
        table_c[:, :, f] += sin_fine * sin_weights[:, f, None]
        np.multiply(cos_fine, sin_weights[:, f, None], out=table_s[:, :, f])
        table_s[:, :, f] -= sin_fine * cos_weights[:, f, None]
    del sin_fine, cos_fine  # freed before the coarse chunks, which bounds the peak memory
    table_c = table_c.reshape(size, 3 * n2)
    table_s = table_s.reshape(size, 3 * n2)

    flat = np.empty((coarse.size * n2, 3))
    # coarse rows per chunk: with fine tables they take half the entries, so
    # tables and chunk fit the budget; without, the direct sum's rows as before
    rows = max(1, _CHUNK_ENTRIES // (size if n2 == 1 else 2 * size))
    for lo in range(0, coarse.size, rows):
        phase = np.outer(coarse[lo : lo + rows], theta)
        block = np.cos(phase) @ table_c
        block += np.sin(phase, out=phase) @ table_s
        flat[lo * n2 : (lo + rows) * n2] = block.reshape(-1, 3)
    return flat[:n_times]


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
            object.__setattr__(self, "env_states", (KET_PLUS.amplitudes,) * n)
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
        with np.errstate(over="ignore", invalid="ignore"):
            shifts = _sign_table(n) @ np.asarray(self.couplings, dtype=float)
        if not np.all(np.isfinite(shifts)):  # a non-finite coupling, or sums that overflow
            raise ValueError(f"couplings and their sums must be finite, got {list(self.couplings)}")
        with np.errstate(over="ignore"):
            fields = self.splitting + shifts
        if not np.all(np.isfinite(fields)):  # _block_fields adds the splitting to every sum
            raise ValueError(
                f"splitting {self.splitting!r} plus each coupling sum must be finite"
            )
        shifts.setflags(write=False)
        object.__setattr__(self, "shift_sums", shifts)

    def env_amplitudes(self) -> np.ndarray:
        amps = np.ones(1, dtype=complex)
        for chi in self.env_states:
            amps = np.kron(amps, chi)
        return amps

    def env_populations(self) -> np.ndarray:
        return np.abs(self.env_amplitudes()) ** 2

    def _block_fields(self) -> tuple[np.ndarray, float]:
        """(a_s, b) of the system blocks h_s = a_s sz + b sx, one a_s per bit string."""
        return 0.5 * (self.splitting + self.shift_sums), -0.5 * self.tunneling

    def reduced_evolution(self, psi0, t_grid) -> np.ndarray:
        """Reduced 2x2 trajectory of a pure system state; (T, 2, 2) array.

        With P = psi psi^dag, c = cos(w_s t) and k = sin(w_s t) / w_s,

            rho(t) = sum_s p_s [c^2 P + i c k (P h_s - h_s P) + k^2 h_s P h_s],

        and c^2, c k, k^2 are affine in cos(2 w_s t) and sin(2 w_s t).  So
        (rho00, Re rho01, Im rho01) is a constant plus one (T, 2^N) cosine
        and one (T, 2^N) sine matrix, each times a fixed (2^N, 3) weight,
        and rho11 = sum_s p_s - rho00.  The a_s / w_s and b / w_s factors
        sit in the weights, set to 0 where w_s = 0, so that block
        contributes P at every t without a special case.  ``_phase_sums``
        forms those products: on a uniform grid t = c + u from n1 coarse
        and n2 fine times, n1 n2 >= T, with (n1 + n2) 2^N cosines and as
        many sines; on any other grid directly from the T 2^N phases.
        """
        psi = np.asarray(getattr(psi0, "amplitudes", psi0), dtype=complex).reshape(2)
        times = np.asarray(t_grid, dtype=float)
        pops = self.env_populations()
        a, b = self._block_fields()
        omega = np.hypot(a, b)
        if not np.isfinite(2.0 * float(omega.max()) * float(np.abs(times).max(initial=0.0))):
            raise ValueError("the phases 2 omega_s t overflow a double")
        nonzero = omega > 0.0
        safe = np.where(nonzero, omega, 1.0)
        alpha = np.where(nonzero, a / safe, 0.0)
        beta = np.where(nonzero, b / safe, 0.0)

        sz, sx = SIGMA_Z, SIGMA_X
        p = np.outer(psi, psi.conj())
        even = np.stack([p, sz @ p @ sz, sz @ p @ sx + sx @ p @ sz, sx @ p @ sx])
        odd = np.stack([1j * (p @ sz - sz @ p), 1j * (p @ sx - sx @ p)])

        def features(mats):  # (rho00, Re rho01, Im rho01) of each 2x2 matrix
            return np.stack([mats[:, 0, 0].real, mats[:, 0, 1].real, mats[:, 0, 1].imag], 1)

        half = 0.5 * pops
        coeffs = np.stack([half, half * alpha**2, half * alpha * beta, half * beta**2], 1)
        constant = coeffs.sum(0) @ features(even)
        cos_weights = (coeffs * [1.0, -1.0, -1.0, -1.0]) @ features(even)
        sin_weights = np.stack([half * alpha, half * beta], 1) @ features(odd)

        flat = _phase_sums(times, 2.0 * omega, cos_weights, sin_weights)
        flat += constant
        out = np.empty((times.size, 2, 2), dtype=complex)
        out[:, 0, 0] = flat[:, 0]
        out[:, 1, 1] = pops.sum() - flat[:, 0]
        out[:, 0, 1] = flat[:, 1] + 1j * flat[:, 2]
        out[:, 1, 0] = out[:, 0, 1].conj()
        return out


def spin_spin_exact(env: SpinEnvironment, psi0, t_grid) -> EvolutionResult:
    """Exact reduced trajectory of the central qubit from the pure state ``psi0``."""
    psi = np.asarray(getattr(psi0, "amplitudes", psi0), dtype=complex).reshape(2)
    if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
        raise ValueError("system state is not normalized")
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a nonempty 1-d time grid")
    return EvolutionResult.checked(times, env.reduced_evolution(psi, times))
