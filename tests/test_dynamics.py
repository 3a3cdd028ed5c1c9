import tracemalloc
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
from decosim.core import symmetrize
from decosim.dynamics import (
    _RENORM_EVERY,
    _TAYLOR_THETA,
    _THETA13,
    DENSE_PROPAGATOR_MAX_DIM,
    MAX_SPARSE_NORM_TIME,
    TRAJECTORY_BLOCK,
    _expm,
    liouvillian,
    liouvillian_norm_bound,
)
from decosim.errors import ConvergenceError, PositivityError
from decosim.models import CaldeiraLeggettGenerator, coherent_state
from decosim.models.spinboson import SpinBosonBornMarkovGenerator

from conftest import compiled_rhs

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
    yield CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=12), oscillator
    yield SpinBosonBornMarkovGenerator(0.5, 1.0, 0.05, 0.02, 0.03), plus
    h = _random_hermitian(rng, 3)
    yield LindbladSpec(Operator(h), ((Operator(h @ h), 0.1),)), DensityMatrix(np.eye(3) / 3)
    # above DENSE_PROPAGATOR_MAX_DIM, so evolve takes the Taylor branch
    psi = coherent_state(1.0, 30).amplitudes
    oscillator = DensityMatrix(np.outer(psi, psi.conj()))
    yield CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=30), oscillator


def _rk4_evolve_oracle(generator, rho0, t_final, dt, store_every):
    """The fixed-step RK4 loop ``evolve`` ran before it propagated exactly."""
    rhs = partial(compiled_rhs, generator.compiled)
    n_steps = int(round(t_final / dt))
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
    # t_final > 0 that rounds to no step: one step would snapshot past it
    (1e-300, 1.0, 1),
    (1.0, 2.0, 1),
    (0.049, 0.1, 1),
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


@pytest.mark.filterwarnings("error")
def test_expm_of_a_diagonal_is_exact():
    # a zero norm takes no squaring, and no log2(0)
    assert np.array_equal(_expm(np.zeros((4, 4), dtype=complex), 0.0), np.eye(4))


def _diagonal_evolve_oracle(generator, rho0, t_final, dt, store_every):
    """The per-interval propagation ``evolve`` ran for a diagonal L before its closed form:
    one propagator np.diag(exp(k dt lambda)) per interval of k steps, applied to vec(rho)."""
    lv = liouvillian(generator.compiled)
    assert np.count_nonzero(lv) == np.count_nonzero(lv.diagonal())  # L is diagonal
    d = generator.dim
    n_steps = int(round(t_final / dt))
    steps = np.append(np.arange(0, n_steps, store_every), n_steps)
    vec = symmetrize(rho0.entries).reshape(-1)
    states = [rho0.entries]
    for k in np.diff(steps).tolist():
        vec = np.diag(np.exp(k * dt * lv.diagonal())) @ vec
        states.append(symmetrize(vec.reshape(d, d)))
    return steps * dt, np.array(states)


def _complex_density(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def _random_diagonal_spec(d):
    # complex jump diagonals, whose products round, so lambda's summation order shows
    rng = np.random.default_rng(d)
    jumps = [np.diag(rng.normal(size=d) + 1j * rng.normal(size=d)) for _ in range(2)]
    return LindbladSpec(Operator(np.diag(rng.normal(size=d))),
                        ((Operator(jumps[0]), 0.7), (Operator(jumps[1]), 0.3)))


# (generator, rho0, t_final, dt, store_every); 0.47 / 1e-3 = 470 steps: 7
# snapshot intervals of 60 and a short last one of 50.  A rate-0 jump
# compiles to a pair whose B is all zero, which adds nothing to L however
# A is shaped
_DIAGONAL_CASES = {
    "sigma-z-uniform": lambda: (_dephasing_spec(h=SIGMA_Z), _complex_density(2, 3),
                                0.5, 1e-3, 50),
    "sigma-z-short-last": lambda: (_dephasing_spec(h=SIGMA_Z), _complex_density(2, 3),
                                   0.47, 1e-3, 60),
    "spin-boson-no-tunneling": lambda: (SpinBosonBornMarkovGenerator(0.5, 0.0, 0.05, 0.0, 0.0),
                                        _complex_density(2, 4), 0.47, 1e-3, 60),
    "dead-sigma-x-jump": lambda: (LindbladSpec(Operator(SIGMA_Z), ((Operator(SIGMA_X), 0.0),)),
                                  _complex_density(2, 5), 0.47, 1e-3, 60),
    "random-diagonal-4": lambda: (_random_diagonal_spec(4), _complex_density(4, 6),
                                  0.47, 1e-3, 60),
}


@pytest.mark.parametrize("case", list(_DIAGONAL_CASES))
def test_diagonal_generators_match_the_per_interval_oracle_bitwise(case):
    gen, rho0, t_final, dt, store_every = _DIAGONAL_CASES[case]()
    res = evolve(gen, rho0, t_final, dt, store_every)
    times, states = _diagonal_evolve_oracle(gen, rho0, t_final, dt, store_every)
    np.testing.assert_array_equal(res.times, times)
    assert np.array_equal(res.states.view(float), states.view(float))
    # each interval's propagator is exactly np.exp of k dt times L's diagonal:
    # from rho0 = 1/d everywhere (d a power of 2), the first snapshot is 1/d of it
    d, k = gen.dim, store_every
    uniform = DensityMatrix(np.full((d, d), 1.0 / d, dtype=complex))
    first = evolve(gen, uniform, k * dt, dt, k).states[1]
    lam = liouvillian(gen.compiled).diagonal()
    assert np.array_equal(first, symmetrize(np.exp(k * dt * lam).reshape(d, d) / d))


def _diagonal_spec_above_the_dense_limit(rate):
    # integer jump entries and a power-of-2 rate keep every product exact, so
    # the populations' entries of L's diagonal are exactly 0
    d = DENSE_PROPAGATOR_MAX_DIM + 3
    ham = Operator(np.diag(np.linspace(-1.0, 1.0, d)))
    return LindbladSpec(ham, ((Operator(np.diag(np.arange(d) - 5.0)), rate),))


def test_a_diagonal_generator_above_the_dense_limit_matches_expm():
    spec = _diagonal_spec_above_the_dense_limit(0.25)
    assert spec.dim > DENSE_PROPAGATOR_MAX_DIM
    rho0 = _complex_density(spec.dim, 12)
    res = evolve(spec, rho0, 0.47, 1e-2, 10)
    lv = liouvillian(spec.compiled)
    vec = rho0.entries.reshape(-1)
    for t, state in zip(res.times, res.states):
        ref = (scipy.linalg.expm(t * lv) @ vec).reshape(spec.dim, spec.dim)
        assert np.abs(state - ref).max() <= 1e-13


@pytest.mark.filterwarnings("error")
def test_a_stiff_diagonal_generator_decoheres_exactly_at_any_dimension():
    # the Taylor branch refuses a run this stiff; the closed form needs no steps
    spec, t_final = _diagonal_spec_above_the_dense_limit(2.0 ** 30), 1.0
    assert liouvillian_norm_bound(spec.compiled) * t_final > MAX_SPARSE_NORM_TIME
    rho0 = _complex_density(spec.dim, 12)
    res = evolve(spec, rho0, t_final, dt=0.1)
    off = ~np.eye(spec.dim, dtype=bool)
    for state in res.states[1:]:
        assert np.array_equal(np.diag(state), np.diag(rho0.entries))
        assert not np.any(state[off])


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


def _ladder_run(d):
    """Amplitude damping of a d-level ladder from its top level, and a dt that
    puts 10 snapshots in one window reaching 0.999 _TAYLOR_THETA.

    L is strongly non-normal (each level feeds the one below), so Taylor
    terms grow far above the state before they cancel.
    """
    lower = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    spec = LindbladSpec(Operator(np.zeros((d, d))), ((Operator(lower), 1.0),))
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[-1, -1] = 1.0
    dt = 0.999 * _TAYLOR_THETA / (10 * liouvillian_norm_bound(spec.compiled))
    return spec, DensityMatrix(rho0), 40 * dt, dt, 1


# (generator, rho0, t_final, dt, store_every); "pure-cl-40" is the benchmark's
# cat configuration, with 4 snapshots in a window; "-every" stores all 50
# steps of its run, 24 in a window; "-rest" runs it with 1.05 / 1e-2 = 105
# steps: 2 intervals of 50, each of 21 substeps, and a shorter last interval
# of 5, of 3 substeps
_TAYLOR_CASES = {
    "pure-cl-13": lambda: (CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=13,
                                                    pure_decoherence=True),
                           _coherent_density(1.0, 13), 0.5, 1e-3, 50),
    "pure-cl-40": lambda: (CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 50.0, n_max=40,
                                                    pure_decoherence=True),
                           _coherent_density(2.0, 40), 0.1, 1e-4, 50),
    "full-cl-30": lambda: (CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=30),
                           _coherent_density(1.0, 30), 0.5, 1e-3, 50),
    "lindblad-16": lambda: (*_random_lindblad_run(16), 0.3, 1e-2, 5),
    "pure-cl-40-every": lambda: (CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 50.0, n_max=40,
                                                          pure_decoherence=True),
                                 _coherent_density(2.0, 40), 0.05, 1e-3, 1),
    "pure-cl-40-rest": lambda: (CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 50.0, n_max=40,
                                                         pure_decoherence=True),
                                _coherent_density(2.0, 40), 1.05, 1e-2, 50),
    "ladder-16": lambda: _ladder_run(16),
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
    generators = [CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 50.0, n_max=12),
                  CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 50.0, n_max=12,
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
    for seed in (-1, 2**64, 1e300, 1.5):
        with pytest.raises(ValueError, match="master_seed"):
            TrajectoryConfig(dt=0.1, t_final=1.0, n_trajectories=1, master_seed=seed)
    for seed in (2**64 - 1, np.uint64(7)):
        TrajectoryConfig(dt=0.1, t_final=1.0, n_trajectories=1, master_seed=seed)
    for t_final in (-1.0, np.nan):
        with pytest.raises(ValueError, match="t_final >= 0"):
            TrajectoryConfig(dt=0.1, t_final=t_final, n_trajectories=1, master_seed=1)
    assert TrajectoryConfig(dt=0.1, t_final=0.0, n_trajectories=1, master_seed=1).n_steps == 0
    for t_final, dt in ((1e-300, 1.0), (1.0, 2.0), (0.049, 0.1)):
        with pytest.raises(ValueError, match=r"rounds to no step.*dt=.*t_final="):
            TrajectoryConfig(dt=dt, t_final=t_final, n_trajectories=1, master_seed=1)
    assert TrajectoryConfig(dt=0.1, t_final=1.04, n_trajectories=1, master_seed=1).n_steps == 10


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
    assert not any(arr.flags.writeable for arr in (a.times, a.ensemble, a.final_states))


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


def test_unravel_refuses_a_snapshot_grid_too_large_to_address():
    # 1e300 snapshots: the grid is refused as evolve refuses it, naming dt and store_every
    spec, psi0, _ = _traj_setup(3)
    cfg = TrajectoryConfig(dt=1e-300, t_final=1.0, n_trajectories=3, master_seed=1)
    with pytest.raises(ValueError, match=r"1e\+300 snapshots .* fit in memory; raise dt"):
        unravel(spec, psi0, cfg)


def _block_normals(seed, block, n_steps, m, b):
    """Block ``block``'s normals in one draw, shape (n_steps, m, b)."""
    bitgen = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,)))
    return np.random.Generator(bitgen).standard_normal((n_steps, m, b))


def _textbook_unravel(h, terms, psi0, cfg, store_every):
    """Per-operator Euler-Maruyama step, trajectories as rows: the oracle for ``unravel``.

    Block k, trajectories k TRAJECTORY_BLOCK and up, draws its increments
    in one call from a fresh SFC64 seeded by (master_seed, spawn_key=(k,)); returns
    (ensemble snapshots, final states, and the least over steps of the
    mean |norm - 1| before renormalization).
    """
    n, n_steps, dt = cfg.n_trajectories, cfg.n_steps, cfg.dt
    dw = np.concatenate([
        _block_normals(cfg.master_seed, lo // TRAJECTORY_BLOCK, n_steps, len(terms),
                       min(TRAJECTORY_BLOCK, n - lo)).transpose(2, 0, 1)
        for lo in range(0, n, TRAJECTORY_BLOCK)
    ]) * np.sqrt(dt)
    psi = np.tile(psi0.astype(complex), (n, 1))
    snapshots = [psi.T @ psi.conj() / n]
    least_move = np.inf
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
        norms = np.linalg.norm(psi, axis=1)
        least_move = min(least_move, np.abs(norms - 1.0).mean())
        psi /= norms[:, None]
        if (step + 1) % store_every == 0 or step + 1 == n_steps:
            snapshots.append(psi.T @ psi.conj() / n)
    return snapshots, psi, least_move


def test_fused_step_matches_textbook_oracle():
    rng = np.random.default_rng(31)

    def hermitian(d):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return 0.5 * (z + z.conj().T)

    h, l1, l2 = hermitian(3), hermitian(3), hermitian(3)
    assert np.abs(l1 @ l2 - l2 @ l1).max() > 0.1
    psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi0 /= np.linalg.norm(psi0)
    cases = [
        # crosses a block boundary, so later blocks' keys are checked too
        ((0.7, 0.3), TrajectoryConfig(
            dt=1e-3, t_final=0.1, n_trajectories=TRAJECTORY_BLOCK + 5, master_seed=2024
        ), 25),
        # only the final snapshot: the state is carried unnormalized through
        # four renormalization periods and a remainder, at rates that move
        # its norm every step
        ((6.0, 2.5), TrajectoryConfig(
            dt=1e-3, t_final=0.139, n_trajectories=300, master_seed=77
        ), 139),
    ]
    for rates, cfg, store_every in cases:
        terms = tuple(zip((l1, l2), rates))
        spec = LindbladSpec(Operator(h), tuple((Operator(l), rate) for l, rate in terms))
        got = unravel(spec, StateVector(psi0), cfg, store_every=store_every, n_workers=1)
        snapshots, finals, least_move = _textbook_unravel(h, terms, psi0, cfg, store_every)
        assert len(got.ensemble) == len(snapshots)
        for state, ref in zip(got.ensemble, snapshots):
            assert np.abs(state - ref).max() < 1e-12
        assert np.abs(got.final_states - finals).max() < 1e-12
        assert np.abs(np.linalg.norm(got.final_states, axis=1) - 1.0).max() < 1e-12
    # the last case is the one described above
    assert cfg.n_steps == store_every > 4 * _RENORM_EVERY
    assert cfg.n_steps % _RENORM_EVERY
    assert least_move > 1e-3


@pytest.mark.parametrize("m", [0, 1, 2])
def test_blocks_draw_their_periods_from_the_per_block_sfc64_stream(monkeypatch, m):
    # 37 steps: one full renormalization period and a partial one; the last block is partial
    n_steps, widths = 37, (TRAJECTORY_BLOCK, 3)
    generator = np.random.Generator
    draws = []

    class Recording:
        """A Generator that keeps its seed arguments and a copy of every period it draws."""

        def __init__(self, bitgen):
            assert isinstance(bitgen, np.random.SFC64)
            self.rng = generator(bitgen)
            self.seeds = (bitgen.seed_seq.entropy, bitgen.seed_seq.spawn_key)
            self.periods = []
            draws.append(self)

        def standard_normal(self, *, out):
            self.rng.standard_normal(out=out)
            self.periods.append(out.copy())
            return out

    terms = ((SIGMA_X, 0.6), (SIGMA_Z, 2.1))[:m]
    spec = LindbladSpec(Operator(0.4 * SIGMA_X), tuple((Operator(op), r) for op, r in terms))
    psi0 = StateVector(np.array([0.6, 0.8j]))
    firsts = {}  # the first 96 normals of each (seed, block) stream
    for seed in (0, 1, 2**63 + 5, 2**64 - 1):
        draws.clear()
        cfg = TrajectoryConfig(dt=1e-3, t_final=n_steps * 1e-3, n_trajectories=sum(widths),
                               master_seed=seed)
        assert cfg.n_steps == n_steps
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "Generator", Recording)
            unravel(spec, psi0, cfg, store_every=n_steps, n_workers=1)
        assert [rec.seeds for rec in draws] == [(seed, (k,)) for k in range(len(widths))]
        for k, (rec, b) in enumerate(zip(draws, widths)):
            assert [p.shape for p in rec.periods] == [(_RENORM_EVERY, m, b), (5, m, b)]
            want = _block_normals(seed, k, n_steps, m, b)
            assert np.array_equal(np.concatenate(rec.periods), want)
            firsts[seed, k] = rec.periods[0].ravel()[:96].tobytes()
    if m:  # blocks 0 and 1, and seeds s and s + 1, start on different normals
        assert len(set(firsts.values())) == len(firsts)


def test_full_blocks_do_not_depend_on_the_ensemble_size():
    spec = LindbladSpec(Operator(0.4 * SIGMA_X), ((Operator(SIGMA_Z), 1.3),))
    psi0 = StateVector(np.array([0.6, 0.8j]))
    finals = [
        unravel(spec, psi0, TrajectoryConfig(dt=1e-3, t_final=0.02, n_trajectories=n,
                                             master_seed=9), n_workers=1).final_states
        for n in (TRAJECTORY_BLOCK + 3, 2 * TRAJECTORY_BLOCK)
    ]
    assert np.array_equal(finals[0][:TRAJECTORY_BLOCK], finals[1][:TRAJECTORY_BLOCK])


def test_noise_memory_does_not_grow_with_the_step_count():
    spec, psi0, _ = _traj_setup(64)
    cfg = TrajectoryConfig(dt=1e-4, t_final=2.0, n_trajectories=64, master_seed=5)
    assert cfg.n_steps == 20_000
    unravel(spec, psi0, cfg, store_every=cfg.n_steps, n_workers=1)  # warm
    tracemalloc.start()
    try:
        unravel(spec, psi0, cfg, store_every=cfg.n_steps, n_workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _column_noise_block(ops, rates, psi0, cfg, block, b, sample_steps):
    """The block step with the whole block's noise drawn in one call, scaled up
    front and read one strided column per step, s by ``einsum``, and every view
    sliced in the loop: the bitwise oracle for ``_unravel_block``."""
    dt, n_steps = cfg.dt, cfg.n_steps
    d, m = psi0.size, rates.size
    noise = _block_normals(cfg.master_seed, block, n_steps, m, b).transpose(2, 0, 1)
    noise *= np.sqrt(dt * rates)
    half_dt_rates = (0.5 * dt * rates)[:, None]
    bufs = np.empty((2, m + 2, 2 * d, b))
    bufs[0, 0] = np.concatenate([psi0.real, psi0.imag])[:, None]
    cur, nxt = ((buf, buf.reshape(-1, b)[2 * d:]) for buf in bufs)
    dots = np.empty((m + 1, b))
    e, q, u = np.empty((3, m, b))
    weights = np.ones((m + 2, b))
    sums = np.empty((sample_steps.size, d, d), dtype=complex)
    snapshots = set(sample_steps.tolist())

    def ensemble_sum(psi):
        z = psi[:d] + 1j * psi[d:]
        return np.einsum("ib,jb->ij", z, z.conj())

    pos = 0
    if 0 in snapshots:
        sums[pos] = ensemble_sum(cur[0][0])
        pos += 1
    for step in range(1, n_steps + 1):
        buf, products = cur
        psi = buf[0]
        np.matmul(ops, psi, out=products)
        np.einsum("mkb,kb->mb", buf[: m + 1], psi, out=dots)
        np.divide(dots[1:], dots[0], out=e)
        np.multiply(half_dt_rates, e, out=q)
        np.add(q, noise[:, step - 1].T, out=u)
        np.add(u, q, out=weights[1 : m + 1])
        np.einsum("mb,mb->b", e, u, out=weights[0])
        np.subtract(1.0, weights[0], out=weights[0])
        np.einsum("mb,mkb->kb", weights, buf, out=nxt[0][0])
        cur, nxt = nxt, cur
        at_snapshot = step in snapshots
        if at_snapshot or step % _RENORM_EVERY == 0:
            psi = cur[0][0]
            psi /= np.sqrt(np.einsum("kb,kb->b", psi, psi))
            if at_snapshot:
                sums[pos] = ensemble_sum(psi)
                pos += 1
    psi = cur[0][0]
    return sums, (psi[:d] + 1j * psi[d:]).T


@pytest.mark.parametrize("terms", [(), ((SIGMA_Z, 1.3),), ((SIGMA_X, 0.6), (SIGMA_Z, 2.1))],
                         ids=["m0", "m1", "m2"])
@pytest.mark.parametrize("t_final, store_every", [(0.101, 7), (0.013, 5)],
                         ids=["partial-last-chunk", "one-partial-chunk"])
def test_chunked_noise_step_matches_column_noise_oracle(monkeypatch, terms, t_final,
                                                        store_every):
    spec = LindbladSpec(Operator(0.4 * SIGMA_X + 0.2 * SIGMA_Z),
                        tuple((Operator(op), rate) for op, rate in terms))
    psi0 = StateVector(np.array([0.6, 0.8j]))
    cfg = TrajectoryConfig(dt=1e-3, t_final=t_final, n_trajectories=TRAJECTORY_BLOCK + 3,
                           master_seed=4242)
    # odd step counts off the renormalization period, and a stride that divides neither
    assert cfg.n_steps % 2 and cfg.n_steps % _RENORM_EVERY and cfg.n_steps % store_every
    got = unravel(spec, psi0, cfg, store_every=store_every, n_workers=1)
    monkeypatch.setattr("decosim.dynamics._unravel_block", _column_noise_block)
    want = unravel(spec, psi0, cfg, store_every=store_every, n_workers=1)
    assert np.array_equal(got.ensemble, want.ensemble)
    assert np.array_equal(got.final_states, want.final_states)


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
