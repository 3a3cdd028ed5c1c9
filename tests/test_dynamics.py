from functools import partial

import numpy as np
import pytest

from decosim import (
    DensityMatrix,
    LindbladSpec,
    Operator,
    SIGMA_X,
    SIGMA_Z,
    StateVector,
    TrajectoryConfig,
    evolve,
    unravel,
)
from decosim.dynamics import (
    DENSE_PROPAGATOR_MAX_DIM,
    TRAJECTORY_BLOCK,
    _block_noise,
    compiled_rhs,
)
from decosim.errors import PositivityError
from decosim.models import caldeira_leggett_generator, coherent_state
from decosim.models.spinboson import SpinBosonBornMarkovGenerator

KAPPA = 0.8


def _dephasing_spec(kappa=KAPPA, h=None):
    ham = Operator(np.zeros((2, 2)) if h is None else h)
    return LindbladSpec(ham, ((Operator(SIGMA_Z), kappa),))


def _plus_density():
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def test_dephasing_matches_exponential_law():
    # off-diagonal element decays as exp(-2 kappa t) for L = sigma_z
    spec = _dephasing_spec()
    t_final = 1.0 / KAPPA
    res = evolve(spec, _plus_density(), t_final, dt=2.5e-4, store_every=400)
    got = res.final().entries[0, 1]
    expected = 0.5 * np.exp(-2.0 * KAPPA * t_final)
    assert abs(got - expected) / expected < 1e-8


def test_rabi_oscillation_without_dissipation():
    omega = 1.3
    spec = LindbladSpec(Operator(0.5 * omega * SIGMA_X), ())
    rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    res = evolve(spec, rho0, 2.0, dt=1e-3, store_every=100)
    for t, state in zip(res.times, res.states):
        assert state.entries[0, 0].real == pytest.approx(
            np.cos(0.5 * omega * t) ** 2, abs=1e-8
        )


def test_amplitude_damping_populations():
    kappa = 0.6
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    spec = LindbladSpec(Operator(np.zeros((2, 2))), ((Operator(lower), kappa),))
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    res = evolve(spec, rho0, 2.0, dt=5e-4, store_every=200)
    for t, state in zip(res.times, res.states):
        assert state.entries[1, 1].real == pytest.approx(np.exp(-kappa * t), abs=1e-8)


def test_evolution_preserves_trace_and_hermiticity():
    spec = _dephasing_spec(h=0.7 * SIGMA_X)
    res = evolve(spec, _plus_density(), 3.0, dt=1e-3, store_every=250)
    for state in res.states:
        assert abs(np.trace(state.entries) - 1.0) < 1e-10
        assert np.abs(state.entries - state.entries.conj().T).max() < 1e-10


def test_times_grid_includes_endpoint():
    spec = _dephasing_spec()
    res = evolve(spec, _plus_density(), 1.0, dt=0.01, store_every=7)
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(1.0)


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        LindbladSpec(Operator(np.zeros((2, 2))), ((Operator(SIGMA_Z), -1.0),))


def test_nonhermitian_hamiltonian_rejected():
    with pytest.raises(ValueError):
        LindbladSpec(Operator(np.array([[0, 1], [0, 0]], dtype=complex)), ())


def _lindblad_rhs_oracle(spec, rho):
    """The hand-written Lindblad right-hand side the compiled form replaced."""
    h = spec.hamiltonian.entries
    out = -1j * (h @ rho - rho @ h)
    for op, rate in spec.lindblad_terms:
        l = op.entries
        ldl = l.conj().T @ l
        out += rate * (l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def test_compiled_lindblad_matches_hand_written_rhs():
    rng = np.random.default_rng(7)
    d = 3
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    spec = LindbladSpec(
        Operator(_random_hermitian(rng, d)),
        ((Operator(jumps[0]), 0.7), (Operator(jumps[1]), 0.3)),
    )
    for _ in range(5):
        rho = _random_hermitian(rng, d)
        err = np.abs(compiled_rhs(spec.compiled, rho) - _lindblad_rhs_oracle(spec, rho)).max()
        assert err <= 1e-13 * np.linalg.norm(rho)


def _snapshot_generators():
    rng = np.random.default_rng(11)
    lower = Operator(np.array([[0, 1], [0, 0]], dtype=complex))
    lindblad = LindbladSpec(Operator(0.6 * SIGMA_X), ((lower, 0.5), (Operator(SIGMA_Z), 0.2)))
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    psi = coherent_state(1.0, 12).amplitudes
    oscillator = DensityMatrix(np.outer(psi, psi.conj()))
    yield lindblad, plus
    yield caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=12), oscillator
    yield SpinBosonBornMarkovGenerator(0.5, 1.0, 0.05, 0.02, 0.03), plus
    h = _random_hermitian(rng, 3)
    yield LindbladSpec(Operator(h), ((Operator(h @ h), 0.1),)), DensityMatrix(np.eye(3) / 3)
    # above DENSE_PROPAGATOR_MAX_DIM, so evolve takes the expm_multiply path
    psi = coherent_state(1.0, 30).amplitudes
    oscillator = DensityMatrix(np.outer(psi, psi.conj()))
    yield caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=30), oscillator


def _rk4_evolve_oracle(generator, rho0, t_final, dt, store_every):
    """The fixed-step RK4 loop ``evolve`` ran before it propagated exactly."""
    rhs = partial(compiled_rhs, generator.compiled)
    n_steps = max(1, int(round(t_final / dt)))
    rho = rho0.entries
    times, states = [0.0], [rho]
    for step in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % store_every == 0 or step == n_steps:
            times.append(step * dt)
            states.append(rho)
    return np.array(times), np.array(states)


# 0.47 / 1e-3 = 470 steps: 7 full snapshot intervals of 60 and a final one of 50
@pytest.mark.parametrize("t_final, store_every", [(0.5, 50), (0.47, 60)])
def test_evolve_matches_the_rk4_oracle(t_final, store_every):
    dt = 1e-3
    dims = []
    for gen, rho0 in _snapshot_generators():
        res = evolve(gen, rho0, t_final, dt=dt, store_every=store_every)
        times, states = _rk4_evolve_oracle(gen, rho0, t_final, dt, store_every)
        np.testing.assert_array_equal(res.times, times)
        got = np.array([state.entries for state in res.states])
        assert np.abs(got - states).max() < 1e-10, gen
        dims.append(gen.dim)
    assert min(dims) <= DENSE_PROPAGATOR_MAX_DIM < max(dims)  # both propagators ran


def test_evolve_snapshots_are_exactly_hermitian():
    for gen, rho0 in _snapshot_generators():
        res = evolve(gen, rho0, 0.5, dt=1e-3, store_every=50)
        assert len(res.states) == 11
        for state in res.states:
            assert np.array_equal(state.entries, state.entries.conj().T)


@pytest.mark.parametrize("t_final, dt, store_every", [
    (1.0, -0.01, 1),
    (1.0, 0.0, 1),
    (1.0, np.nan, 1),
    (1.0, np.inf, 1),
    (np.nan, 0.01, 1),
    (-1.0, 0.01, 1),
    (np.inf, 0.01, 1),
    (1.0, 0.01, 0),
])
def test_evolve_rejects_degenerate_run_parameters(t_final, dt, store_every):
    with pytest.raises(ValueError):
        evolve(_dephasing_spec(), _plus_density(), t_final, dt, store_every)


def test_non_cp_generator_raises_positivity_error_naming_t():
    # large Born-Markov coefficients without matching dephasing are far from CP
    gen = SpinBosonBornMarkovGenerator(0.0, 1.0, 0.0, 2.0, 2.0)
    rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(PositivityError, match=r"below floor -0\.001 at t=0\.01$"):
        evolve(gen, rho0, 1.0, dt=1e-3, store_every=10)


def test_trajectory_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=-0.1, t_final=1.0, n_trajectories=10, master_seed=1)
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.1, t_final=1.0, n_trajectories=0, master_seed=1)


def _traj_setup(n, seed=1122):
    spec = _dephasing_spec(kappa=1.0)
    psi0 = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
    cfg = TrajectoryConfig(dt=2e-3, t_final=1.0, n_trajectories=n, master_seed=seed)
    return spec, psi0, cfg


def test_unraveling_is_reproducible():
    spec, psi0, cfg = _traj_setup(64)
    a = unravel(spec, psi0, cfg, store_every=100)
    b = unravel(spec, psi0, cfg, store_every=100)
    for x, y in zip(a.ensemble, b.ensemble):
        assert np.array_equal(x.entries, y.entries)


def test_unraveling_workers_do_not_change_result():
    # more than two blocks, so the thread pool runs and the last block is partial
    spec = _dephasing_spec(kappa=1.0, h=0.4 * SIGMA_X)
    psi0 = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
    cfg = TrajectoryConfig(
        dt=2e-3, t_final=0.05, n_trajectories=2 * TRAJECTORY_BLOCK + 3, master_seed=1122
    )
    serial = unravel(spec, psi0, cfg, store_every=5, n_workers=1)
    for workers in (2, 4):
        parallel = unravel(spec, psi0, cfg, store_every=5, n_workers=workers)
        assert len(parallel.ensemble) == len(serial.ensemble)
        for x, y in zip(serial.ensemble, parallel.ensemble):
            assert np.array_equal(x.entries, y.entries)
        assert np.array_equal(serial.final_states, parallel.final_states)


def test_unravel_rejects_degenerate_workers_and_stride():
    spec, psi0, cfg = _traj_setup(4)
    with pytest.raises(ValueError):
        unravel(spec, psi0, cfg, n_workers=0)
    with pytest.raises(ValueError):
        unravel(spec, psi0, cfg, store_every=0)


def _philox(seed, index):
    # a uint64 key: a plain list would pass through float64 and round seeds >= 2**53
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _textbook_unravel(h, terms, psi0, cfg, store_every):
    """Per-operator Euler-Maruyama step, trajectories as rows: the oracle for ``unravel``.

    Trajectory i draws its increments from a fresh Philox keyed by
    (master_seed, i); returns (ensemble snapshots, final states).
    """
    n, n_steps, dt = cfg.n_trajectories, cfg.n_steps, cfg.dt
    dw = np.stack([
        _philox(cfg.master_seed, i).standard_normal((n_steps, len(terms)))
        for i in range(n)
    ]) * np.sqrt(dt)
    psi = np.tile(psi0.astype(complex), (n, 1))
    snapshots = [psi.T @ psi.conj() / n]
    for step in range(n_steps):
        drift = -1j * (psi @ h.T)
        stoch = np.zeros_like(psi)
        for mu, (l, rate) in enumerate(terms):
            l_psi = psi @ l.T
            expect = np.einsum("bi,bi->b", psi.conj(), l_psi).real[:, None]
            centered = l_psi - expect * psi
            drift -= 0.5 * rate * (centered @ l.T - expect * centered)
            stoch += np.sqrt(rate) * centered * dw[:, step, mu][:, None]
        psi = psi + dt * drift + stoch
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        if (step + 1) % store_every == 0 or step + 1 == n_steps:
            snapshots.append(psi.T @ psi.conj() / n)
    return snapshots, psi


def test_fused_step_matches_textbook_oracle():
    rng = np.random.default_rng(31)

    def hermitian(d):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return 0.5 * (z + z.conj().T)

    h, l1, l2 = hermitian(3), hermitian(3), hermitian(3)
    assert np.abs(l1 @ l2 - l2 @ l1).max() > 0.1
    terms = ((l1, 0.7), (l2, 0.3))
    psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi0 /= np.linalg.norm(psi0)
    spec = LindbladSpec(Operator(h), tuple((Operator(l), rate) for l, rate in terms))
    # crosses a block boundary, so later blocks' keys are checked too
    cfg = TrajectoryConfig(
        dt=1e-3, t_final=0.1, n_trajectories=TRAJECTORY_BLOCK + 5, master_seed=2024
    )
    got = unravel(spec, StateVector(psi0), cfg, store_every=25, n_workers=1)
    snapshots, finals = _textbook_unravel(h, terms, psi0, cfg, store_every=25)
    assert len(got.ensemble) == len(snapshots)
    for state, ref in zip(got.ensemble, snapshots):
        assert np.abs(state.entries - ref).max() < 1e-12
    assert np.abs(got.final_states - finals).max() < 1e-12


def test_block_noise_is_the_per_trajectory_philox_stream():
    n_steps = 37
    for seed in (0, 1122, 2**63 + 5):
        indices = range(TRAJECTORY_BLOCK - 2, TRAJECTORY_BLOCK + 3)
        noise = _block_noise(seed, indices, n_steps, 1)
        for row, i in zip(noise, indices):
            expected = _philox(seed, i).standard_normal(n_steps)
            assert np.array_equal(row[:, 0], expected)


def test_unraveling_mean_tracks_master_equation():
    spec, psi0, cfg = _traj_setup(2000)
    traj = unravel(spec, psi0, cfg, store_every=100)
    ref = evolve(spec, psi0.density(), cfg.t_final, cfg.dt, store_every=100)
    assert np.allclose(traj.times, ref.times)
    final_err = np.abs(traj.ensemble[-1].entries - ref.final().entries).max()
    # statistical error ~ 1/sqrt(2000) ~ 0.022; generous ceiling
    assert final_err < 0.08


def test_trajectory_states_stay_normalized():
    spec, psi0, cfg = _traj_setup(16)
    traj = unravel(spec, psi0, cfg, store_every=500)
    norms = np.linalg.norm(traj.final_states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9
