import numpy as np
import pytest
from scipy.linalg import expm

from decosim import (
    DensityMatrix,
    Operator,
    apply_channel,
    kraus_from_unitary,
    partial_trace_keep_state,
    purity,
)
from decosim.core import symmetrize
from decosim.models import (
    SpinEnvironment,
    spin_spin_exact,
    spin_spin_hamiltonian,
    spin_spin_propagator,
)
from decosim.models.spinspin import _CHUNK_ENTRIES

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _reduced_evolution_loop(env: SpinEnvironment, psi, times) -> np.ndarray:
    """Oracle: propagate every branch with its block unitary and mix, one time at a time."""
    pops = env.env_populations()
    out = np.empty((len(times), 2, 2), dtype=complex)
    for k, t in enumerate(times):
        branches = env.block_unitaries(float(t)) @ psi
        out[k] = symmetrize(np.einsum("e,ei,ej->ij", pops, branches, branches.conj()))
    return out


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


def test_decoherence_factor_is_a_product_of_cosines():
    couplings = (0.3, 0.45, 0.7)
    env = SpinEnvironment(couplings)
    times = np.linspace(0.0, 5.0, 41)
    res = spin_spin_exact(env, PLUS, times)
    expected = np.abs(np.prod(np.cos(np.outer(times, couplings)), axis=1))
    assert np.abs(res.decoherence_factor - expected).max() < 1e-12
    # equal-superposition bath leaves rho01 real
    assert np.abs(res.states[:, 0, 1].imag).max() < 1e-12


def test_purity_tracks_the_coherence_factor():
    env = SpinEnvironment((0.2, 0.9, 1.3, 0.5))
    times = np.linspace(0.0, 4.0, 17)
    res = spin_spin_exact(env, PLUS, times)
    for state, r in zip(res.states, res.decoherence_factor):
        assert purity(state) == pytest.approx(0.5 * (1.0 + r**2), abs=1e-12)


def test_commensurate_couplings_revive_the_coherence():
    base = 0.4
    env = SpinEnvironment((base, 2 * base, 3 * base))
    t_star = 2.0 * np.pi / base
    res = spin_spin_exact(env, PLUS, np.array([0.0, 0.25 * t_star, t_star]))
    assert res.decoherence_factor[0] == pytest.approx(1.0, abs=1e-12)
    assert res.decoherence_factor[2] == pytest.approx(1.0, abs=1e-9)
    # a quarter period in, the base-frequency factor is cos(pi/2) = 0
    assert res.decoherence_factor[1] < 1e-9


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
        Operator(u.entries, dims=(2, 2 ** env.n_spins)), DensityMatrix(rho_env_mat)
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
    res = spin_spin_exact(env, PLUS, times, keep_joint=True)
    assert res.joint_states is not None
    for joint, state in zip(res.joint_states, res.states):
        reduced = partial_trace_keep_state(joint, [0])
        assert np.abs(reduced.entries - state).max() < 1e-12


def test_tunneling_disables_the_decoherence_factor():
    env = SpinEnvironment((0.5, 0.7), tunneling=0.4)
    res = spin_spin_exact(env, PLUS, np.linspace(0.0, 1.0, 5))
    assert res.decoherence_factor is None
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
        u = env.block_unitaries(t)
        defect = np.abs(
            np.einsum("eij,ekj->eik", u, u.conj()) - np.eye(2)[None, :, :]
        ).max()
        assert defect < 1e-12


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
    dense_limit = SpinEnvironment(tuple(0.1 * (i + 1) for i in range(11)))
    with pytest.raises(ValueError):
        spin_spin_hamiltonian(dense_limit)
