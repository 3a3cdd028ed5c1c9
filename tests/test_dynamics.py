from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

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
    _THETA13,
    DENSE_PROPAGATOR_MAX_DIM,
    TRAJECTORY_BLOCK,
    _block_noise,
    _expm,
    compiled_rhs,
    liouvillian,
    liouvillian_norm_bound,
)
from decosim.errors import ConvergenceError, PositivityError
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
    got = res.states[-1][0, 1]
    expected = 0.5 * np.exp(-2.0 * KAPPA * t_final)
    assert abs(got - expected) / expected < 1e-8


def test_rabi_oscillation_without_dissipation():
    omega = 1.3
    spec = LindbladSpec(Operator(0.5 * omega * SIGMA_X), ())
    rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    res = evolve(spec, rho0, 2.0, dt=1e-3, store_every=100)
    for t, state in zip(res.times, res.states):
        assert state[0, 0].real == pytest.approx(
            np.cos(0.5 * omega * t) ** 2, abs=1e-8
        )


def test_amplitude_damping_populations():
    kappa = 0.6
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    spec = LindbladSpec(Operator(np.zeros((2, 2))), ((Operator(lower), kappa),))
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    res = evolve(spec, rho0, 2.0, dt=5e-4, store_every=200)
    for t, state in zip(res.times, res.states):
        assert state[1, 1].real == pytest.approx(np.exp(-kappa * t), abs=1e-8)


def test_evolution_preserves_trace_and_hermiticity():
    spec = _dephasing_spec(h=0.7 * SIGMA_X)
    res = evolve(spec, _plus_density(), 3.0, dt=1e-3, store_every=250)
    for state in res.states:
        assert abs(np.trace(state) - 1.0) < 1e-10
        assert np.abs(state - state.conj().T).max() < 1e-10


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
    # above DENSE_PROPAGATOR_MAX_DIM, so evolve takes the Taylor branch
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
        got = res.states
        assert np.abs(got - states).max() < 1e-10, gen
        dims.append(gen.dim)
    assert min(dims) <= DENSE_PROPAGATOR_MAX_DIM < max(dims)  # both propagators ran


def test_evolve_snapshots_are_exactly_hermitian():
    for gen, rho0 in _snapshot_generators():
        res = evolve(gen, rho0, 0.5, dt=1e-3, store_every=50)
        assert len(res.states) == 11
        for state in res.states:
            assert np.array_equal(state, state.conj().T)


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


def _norm1(a):
    return np.abs(a).sum(axis=0).max()


def _assert_expm_matches_scipy(a):
    ref = scipy.linalg.expm(a)
    assert _norm1(_expm(a, _norm1(a)) - ref) <= 1e-12 * _norm1(ref)


def _random_liouvillian(rng, d):
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    spec = LindbladSpec(Operator(_random_hermitian(rng, d)),
                        ((Operator(jumps[0]), 0.7), (Operator(jumps[1]), 0.3)))
    return liouvillian(spec.compiled)


# small 1-norms take no squaring; theta_13 approached from both sides
# takes none and then one
@pytest.mark.parametrize("norm", [1e-8, 1e-3, 0.1, 1.0, 0.99 * _THETA13, 1.01 * _THETA13])
def test_expm_matches_scipy_across_the_scaling_bound(norm):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    _assert_expm_matches_scipy(a * (norm / _norm1(a)))


@pytest.mark.parametrize("d", [2, 4, 12])
@pytest.mark.parametrize("t", [1e-4, 0.05, 1.0, 20.0])
def test_expm_matches_scipy_on_lindblad_liouvillians(d, t):
    _assert_expm_matches_scipy(t * _random_liouvillian(np.random.default_rng(d), d))


def test_expm_matches_scipy_after_many_squarings():
    a = 500.0 * _random_liouvillian(np.random.default_rng(5), 3)
    assert np.log2(_norm1(a) / _THETA13) > 10  # more than 10 squarings
    _assert_expm_matches_scipy(a)


def test_expm_of_a_diagonal_is_exact():
    assert np.array_equal(_expm(np.zeros((4, 4), dtype=complex), 0.0), np.eye(4))
    diag = np.diag([0.0, -0.3 + 2j, -7.0, 1e-3])
    assert np.array_equal(_expm(diag, 7.0), np.diag(np.exp(np.diag(diag))))


def test_stiff_damping_keeps_its_stationary_state():
    # each dt = 0.1 interval has ||L||_1 dt = 2e9, which takes 29 squarings;
    # the ground state's column must stay exact through them, or trace
    # errors grow 2^29-fold past 1e-10
    lower = Operator(np.array([[0, 1], [0, 0]], dtype=complex))
    spec = LindbladSpec(Operator(SIGMA_X), ((lower, 1e10),))
    res = evolve(spec, _plus_density(), 1.0, dt=0.1)
    assert np.abs(res.states[1:] - np.diag([1.0, 0.0])).max() < 1e-9


def _sparse_liouvillian(compiled):
    """The Liouvillian of ``liouvillian``, assembled with scipy.sparse.kron."""
    g, pairs = compiled
    one = scipy.sparse.identity(g.shape[0], format="csr")
    kron = partial(scipy.sparse.kron, format="csr")
    out = kron(g, one) + kron(one, g.conj())
    for a, b in pairs:
        out = out + kron(a, b.T) + kron(b.conj().T, a.conj())
    return out


def _coherent_density(alpha, n_max):
    psi = coherent_state(alpha, n_max).amplitudes
    return DensityMatrix(np.outer(psi, psi.conj()))


def _random_lindblad_run(d):
    rng = np.random.default_rng(d)
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    spec = LindbladSpec(Operator(_random_hermitian(rng, d)),
                        ((Operator(jumps[0]), 0.05), (Operator(jumps[1]), 0.02)))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = m @ m.conj().T
    return spec, DensityMatrix(rho0 / np.trace(rho0).real)


# (generator, rho0, t_final, dt, store_every); "pure-cl-40" is the benchmark's
# cat configuration, and "-rest" runs it with 1.05 / 1e-2 = 105 steps: 2
# intervals of 50, each of 83 substeps, and a shorter last interval of 5
_TAYLOR_CASES = {
    "pure-cl-13": lambda: (caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=13,
                                                      pure_decoherence=True),
                           _coherent_density(1.0, 13), 0.5, 1e-3, 50),
    "pure-cl-40": lambda: (caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 50.0, n_max=40,
                                                      pure_decoherence=True),
                           _coherent_density(2.0, 40), 0.1, 1e-4, 50),
    "full-cl-30": lambda: (caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=30),
                           _coherent_density(1.0, 30), 0.5, 1e-3, 50),
    "lindblad-16": lambda: (*_random_lindblad_run(16), 0.3, 1e-2, 5),
    "pure-cl-40-rest": lambda: (caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 50.0, n_max=40,
                                                           pure_decoherence=True),
                                _coherent_density(2.0, 40), 1.05, 1e-2, 50),
}


@pytest.mark.parametrize("case", list(_TAYLOR_CASES))
def test_taylor_branch_matches_expm_multiply(case):
    gen, rho0, t_final, dt, store_every = _TAYLOR_CASES[case]()
    assert gen.dim > DENSE_PROPAGATOR_MAX_DIM
    res = evolve(gen, rho0, t_final, dt, store_every)
    lv = _sparse_liouvillian(gen.compiled)
    vec = rho0.entries.reshape(-1)
    ref = [rho0.entries]
    for h in np.diff(res.times):
        vec = scipy.sparse.linalg.expm_multiply(h * lv, vec)
        ref.append(vec.reshape(gen.dim, gen.dim))
    ref = np.array(ref)
    assert np.abs(res.states - ref).max() <= 1e-13 * np.abs(ref).max()
    if case.endswith("-rest"):
        assert np.diff(res.times)[-1] < np.diff(res.times)[0]


def test_liouvillian_norm_bound_holds():
    rng = np.random.default_rng(17)
    generators = [caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 50.0, n_max=12),
                  caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 50.0, n_max=12,
                                             pure_decoherence=True)]
    for d in (2, 3, 5, 8):
        jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
        generators.append(LindbladSpec(
            Operator(_random_hermitian(rng, d)),
            tuple((Operator(op), rate) for op, rate in zip(jumps, rng.uniform(0.0, 3.0, 3)))))
    # a jump into one state from all of them: ||A||_1 = d but ||A||_inf = 1, so
    # a bound that swapped the two norms of A or of B would fall below ||L||_1
    feed = np.zeros((6, 6))
    feed[:, 0] = 1.0
    generators.append(LindbladSpec(Operator(np.zeros((6, 6))), ((Operator(feed), 1.0),)))
    for gen in generators:
        exact = _norm1(liouvillian(gen.compiled))
        assert liouvillian_norm_bound(gen.compiled) >= exact, gen


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, DENSE_PROPAGATOR_MAX_DIM + 1])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_overflowing_liouvillian_raises_convergence_error(d, scale):
    # a scaled sigma_z: at scale 1 the compiled form stays finite and L's
    # diagonal (-2 * rate) overflows; at scale 2 the compiled form overflows
    op = Operator(scale * np.diag([1.0, -1.0] * d)[:d, :d])
    spec = LindbladSpec(Operator(np.zeros((d, d))), ((op, 1e308),))
    rho0 = DensityMatrix(np.full((d, d), 1.0 / d, dtype=complex))
    with pytest.raises(ConvergenceError, match="overflows a double"):
        evolve(spec, rho0, 1.0, dt=0.1)


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
    assert np.array_equal(a.ensemble, b.ensemble)


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
        assert np.array_equal(serial.ensemble, parallel.ensemble)
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
        assert np.abs(state - ref).max() < 1e-12
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
    final_err = np.abs(traj.ensemble[-1] - ref.states[-1]).max()
    # statistical error ~ 1/sqrt(2000) ~ 0.022; generous ceiling
    assert final_err < 0.08


def test_trajectory_states_stay_normalized():
    spec, psi0, cfg = _traj_setup(16)
    traj = unravel(spec, psi0, cfg, store_every=500)
    norms = np.linalg.norm(traj.final_states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9
