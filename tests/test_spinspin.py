import numpy as np
import pytest
from scipy.linalg import expm

from decosim import (
    DensityMatrix,
    Operator,
    StateVector,
    apply_channel,
    kraus_from_unitary,
    partial_trace_keep_state,
    purity,
)
from decosim.core import EvolutionResult, symmetrize
from decosim.errors import PhysicalityError
from decosim.models import spinspin
from decosim.models import SpinEnvironment, spin_spin_exact
from decosim.models.spinspin import _CHUNK_ENTRIES, _phase_sums

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _decoherence_factor(res) -> np.ndarray:
    """|rho01(t) / rho01(0)| of a run from PLUS."""
    return np.abs(res.states[:, 0, 1]) / abs(PLUS[0] * np.conj(PLUS[1]))


def _block_unitaries(env: SpinEnvironment, t: float) -> np.ndarray:
    """Oracle: (2^N, 2, 2) system propagators exp(-i h_s t), one per environment bit string."""
    a, b = env._block_fields()
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


def _reduced_evolution_loop(env: SpinEnvironment, psi, times) -> np.ndarray:
    """Oracle: propagate every branch with its block unitary and mix, one time at a time."""
    pops = env.env_populations()
    out = np.empty((len(times), 2, 2), dtype=complex)
    for k, t in enumerate(times):
        branches = _block_unitaries(env, float(t)) @ psi
        out[k] = symmetrize(np.einsum("e,ei,ej->ij", pops, branches, branches.conj()))
    return out


def _direct_phase_sums(times, theta, cos_weights, sin_weights) -> np.ndarray:
    """Oracle: cos(t theta) @ w_c + sin(t theta) @ w_s from one cosine and one sine matrix per chunk."""
    flat = np.empty((times.size, 3))
    step = max(1, _CHUNK_ENTRIES // theta.size)
    for lo in range(0, times.size, step):
        phase = np.outer(times[lo : lo + step], theta)
        flat[lo : lo + step] = np.cos(phase) @ cos_weights + np.sin(phase) @ sin_weights
    return flat


def _direct_reduced_evolution(env: SpinEnvironment, psi, times, monkeypatch) -> np.ndarray:
    with monkeypatch.context() as patch:
        patch.setattr(spinspin, "_phase_sums", _direct_phase_sums)
        return env.reduced_evolution(psi, times)


def spin_spin_hamiltonian(env: SpinEnvironment) -> Operator:
    """Oracle: the dense joint Hamiltonian, system qubit first in the tensor order."""
    n_env = 2**len(env.couplings)
    a, b = env._block_fields()
    h = np.zeros((2 * n_env, 2 * n_env), dtype=complex)
    idx = np.arange(n_env)
    h[idx, idx] = a
    h[n_env + idx, n_env + idx] = -a
    h[idx, n_env + idx] = b
    h[n_env + idx, idx] = b
    return Operator(h, dims=(2,) * (len(env.couplings) + 1))


def spin_spin_propagator(env: SpinEnvironment, t: float) -> Operator:
    """Oracle: the dense joint propagator assembled from the per-string blocks."""
    n_env = 2**len(env.couplings)
    u_blocks = _block_unitaries(env, float(t))
    u = np.zeros((2 * n_env, 2 * n_env), dtype=complex)
    idx = np.arange(n_env)
    u[idx, idx] = u_blocks[:, 0, 0]
    u[idx, n_env + idx] = u_blocks[:, 0, 1]
    u[n_env + idx, idx] = u_blocks[:, 1, 0]
    u[n_env + idx, n_env + idx] = u_blocks[:, 1, 1]
    return Operator(u, dims=(2,) * (len(env.couplings) + 1))


def _random_qubit(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 4, 12, 14])
@pytest.mark.parametrize("splitting", [0.0, 0.7])
@pytest.mark.parametrize("tunneling", [0.0, 0.3])
def test_reduced_evolution_matches_the_block_loop(n, splitting, tunneling):
    rng = np.random.default_rng(100 * n + int(10 * splitting) + int(10 * tunneling))
    env = SpinEnvironment(
        tuple(rng.uniform(0.2, 1.2, n)),
        env_states=tuple(_random_qubit(rng) for _ in range(n)),  # non-uniform bath
        splitting=splitting,
        tunneling=tunneling,
    )
    psi = _random_qubit(rng)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 4.0, 30))])  # non-uniform grid
    closed = env.reduced_evolution(psi, times)
    assert np.abs(closed - _reduced_evolution_loop(env, psi, times)).max() < 1e-13


def test_reduced_evolution_with_a_zero_frequency_block():
    # couplings (1, 1) put the strings 01 and 10 at a_s = b = 0: those branches never move
    env = SpinEnvironment((1.0, 1.0))
    assert np.count_nonzero(env.shift_sums == 0.0) == 2
    psi = np.array([0.6, 0.8j], dtype=complex)
    times = np.linspace(0.0, 3.0, 13)
    closed = env.reduced_evolution(psi, times)
    assert np.abs(closed - _reduced_evolution_loop(env, psi, times)).max() < 1e-13


def test_reduced_evolution_across_several_chunks():
    rng = np.random.default_rng(5)
    env = SpinEnvironment(tuple(rng.uniform(0.2, 1.2, 10)), splitting=0.4, tunneling=0.3)
    times = np.linspace(0.0, 5.0, 3 * _CHUNK_ENTRIES // 2**10 + 7)
    closed = env.reduced_evolution(PLUS, times)
    assert np.abs(closed - _reduced_evolution_loop(env, PLUS, times)).max() < 1e-13


_UNIFORM_COUNTS = [1, 2, 3, 4, 17, 121, 199, 201, 2001]  # primes, squares, padded counts


def _spot_rows(n_times: int, rng, n_random: int = 16) -> np.ndarray:
    """Every row of a short grid; the ends and some random rows of a long one."""
    if n_times <= 32:
        return np.arange(n_times)
    ends = [0, 1, 2, n_times - 3, n_times - 2, n_times - 1]
    return np.unique(np.concatenate([ends, rng.choice(n_times, n_random, replace=False)]))


@pytest.mark.parametrize("n", [1, 4, 12, 14, "zero-frequency"])
@pytest.mark.parametrize("splitting", [0.0, 0.3])
@pytest.mark.parametrize("tunneling", [0.0, 0.3])
def test_reduced_evolution_on_uniform_grids(monkeypatch, n, splitting, tunneling):
    # every row against the direct sum, spot rows against the block loop; at
    # N = 14 the fine table holds one column (the direct sum), so the grid
    # stops at 201 times there
    rng = np.random.default_rng(7 if n == "zero-frequency" else n)
    couplings = (1.0, 1.0) if n == "zero-frequency" else tuple(rng.uniform(0.2, 1.2, n))
    env = SpinEnvironment(
        couplings,
        env_states=tuple(_random_qubit(rng) for _ in couplings),
        splitting=splitting,
        tunneling=tunneling,
    )
    psi = _random_qubit(rng)
    for n_times in _UNIFORM_COUNTS if n != 14 else _UNIFORM_COUNTS[:-1]:
        for t0 in (0.0, 0.37):
            times = np.linspace(t0, 5.0, n_times)
            closed = env.reduced_evolution(psi, times)
            assert np.abs(closed - _direct_reduced_evolution(env, psi, times, monkeypatch)).max() < 1e-13
            rows = _spot_rows(n_times, rng, 4 if n == 14 else 16)  # the loop costs 2^N per row
            loop = _reduced_evolution_loop(env, psi, times[rows])
            assert np.abs(closed[rows] - loop).max() < 1e-13
            if t0 == 0.0 and len(couplings) <= 4:
                # at N >= 12 the constant and the cosine weights cancel to about 1e-14 at t = 0
                assert np.abs(closed[0] - np.outer(psi, psi.conj())).max() < 1e-15


@pytest.mark.parametrize("n", [1, 4, 12, 14])
def test_phase_sums_on_a_non_uniform_grid_are_the_direct_sum(n):
    rng = np.random.default_rng(40 + n)
    theta = rng.uniform(0.0, 3.0, 2**n)
    cos_weights, sin_weights = rng.normal(size=(2, 2**n, 3))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 4.0, 60))])
    nudged = np.linspace(0.0, 4.0, 61)
    nudged[30] += 1e-9  # uniform but for one time
    for grid in (times, times[:1], times[::-1], nudged):
        assert np.array_equal(_phase_sums(grid, theta, cos_weights, sin_weights),
                              _direct_phase_sums(grid, theta, cos_weights, sin_weights))


def test_reduced_evolution_across_coarse_chunks_with_a_full_fine_table(monkeypatch):
    # 2^10 strings: the fine table stops at its cap of n2 columns, and the
    # coarse rows take three chunks, the last one partly padded
    n = 10
    n2 = _CHUNK_ENTRIES // (3 * 2**n)
    rows = _CHUNK_ENTRIES // (2 * 2**n)
    n_times = 2 * rows * n2 + 7
    assert np.sqrt(n_times) > n2 and -(-n_times // n2) > 2 * rows
    rng = np.random.default_rng(11)
    env = SpinEnvironment(tuple(rng.uniform(0.2, 1.2, n)), splitting=0.4, tunneling=0.3)
    times = np.linspace(0.25, 6.0, n_times)
    closed = env.reduced_evolution(PLUS, times)
    assert np.abs(closed - _direct_reduced_evolution(env, PLUS, times, monkeypatch)).max() < 1e-13
    rows = _spot_rows(n_times, rng)
    assert np.abs(closed[rows] - _reduced_evolution_loop(env, PLUS, times[rows])).max() < 1e-13


def test_decoherence_factor_is_a_product_of_cosines():
    couplings = (0.3, 0.45, 0.7)
    env = SpinEnvironment(couplings)
    times = np.linspace(0.0, 5.0, 41)
    res = spin_spin_exact(env, PLUS, times)
    expected = np.abs(np.prod(np.cos(np.outer(times, couplings)), axis=1))
    assert np.abs(_decoherence_factor(res) - expected).max() < 1e-12
    # equal-superposition bath leaves rho01 real
    assert np.abs(res.states[:, 0, 1].imag).max() < 1e-12


def test_purity_tracks_the_coherence_factor():
    env = SpinEnvironment((0.2, 0.9, 1.3, 0.5))
    times = np.linspace(0.0, 4.0, 17)
    res = spin_spin_exact(env, PLUS, times)
    for state, r in zip(res.states, _decoherence_factor(res)):
        assert purity(state) == pytest.approx(0.5 * (1.0 + r**2), abs=1e-12)


def test_commensurate_couplings_revive_the_coherence():
    base = 0.4
    env = SpinEnvironment((base, 2 * base, 3 * base))
    t_star = 2.0 * np.pi / base
    res = spin_spin_exact(env, PLUS, np.array([0.0, 0.25 * t_star, t_star]))
    factor = _decoherence_factor(res)
    assert factor[0] == pytest.approx(1.0, abs=1e-12)
    assert factor[2] == pytest.approx(1.0, abs=1e-9)
    # a quarter period in, the base-frequency factor is cos(pi/2) = 0
    assert factor[1] < 1e-9


def test_reduced_state_matches_dilation_channel():
    # tracing the joint propagator against the bath state must reproduce
    # the block solver's reduced state
    chi = (
        np.array([0.8, 0.6], dtype=complex),
        np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
        np.array([np.sqrt(1 / 3), np.sqrt(2 / 3) * np.exp(0.7j)], dtype=complex),
    )
    env = SpinEnvironment((0.25, 0.6, 1.1), env_states=chi, splitting=0.9, tunneling=0.8)
    t = 1.7
    psi = np.array([0.6, 0.8j], dtype=complex)
    rho_sys = DensityMatrix(np.outer(psi, psi.conj()))
    rho_env_mat = np.ones((1, 1), dtype=complex)
    for c in chi:
        rho_env_mat = np.kron(rho_env_mat, np.outer(c, c.conj()))
    u = spin_spin_propagator(env, t)
    channel = kraus_from_unitary(
        Operator(u.entries, dims=(2, 2 ** len(env.couplings))), DensityMatrix(rho_env_mat)
    )
    via_channel = apply_channel(channel, rho_sys)
    res = spin_spin_exact(env, psi, np.array([0.0, t]))
    assert np.abs(via_channel.entries - res.states[1]).max() < 1e-10


def test_dense_propagator_matches_matrix_exponential():
    env = SpinEnvironment((0.35, 0.8), splitting=0.7, tunneling=0.5)
    h = spin_spin_hamiltonian(env)
    assert np.abs(h.entries - h.entries.conj().T).max() < 1e-14
    t = 1.3
    u = spin_spin_propagator(env, t)
    brute = expm(-1j * t * h.entries)
    assert np.abs(u.entries - brute).max() < 1e-12
    assert u.is_unitary()


def test_joint_state_traces_down_to_the_reduced_state():
    env = SpinEnvironment((0.4, 1.2), splitting=0.3, tunneling=0.6)
    times = np.linspace(0.0, 3.0, 7)
    res = spin_spin_exact(env, PLUS, times)
    amps = env.env_amplitudes()
    dims = (2,) * (len(env.couplings) + 1)
    for t, state in zip(times, res.states):
        branches = _block_unitaries(env, float(t)) @ PLUS  # (2^N, 2)
        joint = StateVector((branches.T * amps).reshape(-1), dims=dims)
        reduced = partial_trace_keep_state(joint, [0])
        assert np.abs(reduced.entries - state).max() < 1e-12


def test_tunneling_keeps_the_reduced_states_physical():
    env = SpinEnvironment((0.5, 0.7), tunneling=0.4)
    res = spin_spin_exact(env, PLUS, np.linspace(0.0, 1.0, 5))
    # populations no longer conserved, but states stay physical
    assert all(abs(np.trace(s) - 1.0) < 1e-12 for s in res.states)


def test_environment_populations_normalized():
    env = SpinEnvironment(
        (0.3, 0.8), env_states=(np.array([0.6, 0.8]), np.array([1.0, 0.0]))
    )
    pops = env.env_populations()
    assert pops.sum() == pytest.approx(1.0, abs=1e-12)
    assert pops.shape == (4,)


@pytest.mark.parametrize("couplings", [(np.inf,), (np.nan, 0.5), (1e308, 1e308)])
def test_couplings_and_their_sums_must_be_finite(couplings):
    with pytest.raises(ValueError, match="finite"):
        SpinEnvironment(couplings)


def test_overflowing_phases_are_rejected():
    with pytest.raises(ValueError, match="overflow"):
        spin_spin_exact(SpinEnvironment((1e308,)), PLUS, np.array([0.0, 2.0]))


def test_block_unitaries_are_unitary():
    env = SpinEnvironment((0.31, 0.77, 1.9), splitting=1.1, tunneling=0.8)
    for t in (0.0, 0.4, 2.9):
        u = _block_unitaries(env, t)
        defect = np.abs(
            np.einsum("eij,ekj->eik", u, u.conj()) - np.eye(2)[None, :, :]
        ).max()
        assert defect < 1e-12


def test_spin_spin_exact_returns_a_read_only_evolution_result(monkeypatch):
    times = np.linspace(0.0, 1.0, 5)
    res = spin_spin_exact(SpinEnvironment((0.4, 0.9)), PLUS, times)
    assert type(res) is EvolutionResult
    assert not np.shares_memory(res.times, times)
    assert np.array_equal(res.times, times)
    for arr in (res.times, res.states, res.spectra):
        assert not arr.flags.writeable
    # a failing state is named by its time, as evolve names it
    def doubled(self, psi0, t_grid):
        out = np.zeros((len(t_grid), 2, 2), dtype=complex)
        out[:, 0, 0] = out[:, 1, 1] = 0.5
        out[2] *= 2.0
        return out
    monkeypatch.setattr(SpinEnvironment, "reduced_evolution", doubled)
    with pytest.raises(PhysicalityError, match=r"^trace .* at t=0\.5$"):
        spin_spin_exact(SpinEnvironment((0.4,)), PLUS, times)


def test_validation_guards():
    with pytest.raises(ValueError):
        SpinEnvironment(())
    with pytest.raises(ValueError):
        SpinEnvironment(tuple(0.1 * (i + 1) for i in range(15)))
    with pytest.raises(ValueError):
        SpinEnvironment((0.5,), env_states=(np.array([1.0, 1.0]),))  # not normalized
    with pytest.raises(ValueError):
        SpinEnvironment((0.5,), env_states=(np.array([1.0, 0.0, 0.0]),))
    with pytest.raises(ValueError):
        spin_spin_exact(SpinEnvironment((0.5,)), np.array([1.0, 1.0]), [0.0, 1.0])
