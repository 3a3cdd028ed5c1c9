import numpy as np
import pytest
from scipy.integrate import solve_ivp

from decosim import DensityMatrix, evolve
from decosim.errors import GridResolutionError
from decosim.models import (
    caldeira_leggett_generator,
    cat_state,
    coherent_state,
    evolve_free_particle,
    free_particle_generator,
    position_moments,
    truncation_tail,
    two_gaussian_superposition,
    wigner_from_fock,
)
from decosim.core import symmetrize
from decosim.models.collisional import GridState
from decosim.models.qbm import (
    WignerGrid,
    hermite_functions,
    ladder,
    position_momentum,
    wigner_transform,
)

from conftest import compiled_rhs


def test_ladder_commutator():
    a = ladder(30)
    comm = a @ a.conj().T - a.conj().T @ a
    # truncation corrupts only the top diagonal entry
    assert np.abs(comm[:-1, :-1] - np.eye(29)).max() < 1e-13


def test_position_momentum_commutator():
    x, p = position_momentum(40, mass=1.3, frequency=0.7)
    comm = x @ p - p @ x
    assert np.abs(comm[:-1, :-1] - 1j * np.eye(39)).max() < 1e-12


def _second_moments(gen, rho):
    x, p = gen.x, gen.p
    xp = x @ p + p @ x
    return np.array(
        [
            np.real(np.trace(rho @ x @ x)),
            np.real(np.trace(rho @ xp)),
            np.real(np.trace(rho @ p @ p)),
        ]
    )


def _caldeira_leggett_rhs_oracle(gen, rho):
    """The hand-written right-hand side the compiled form replaced, in either representation."""
    x, p = gen.x, gen.p
    out = -1j * (gen.h_eff @ rho - rho @ gen.h_eff)
    if not getattr(gen, "pure_decoherence", False):
        anti = p @ rho + rho @ p
        out += -1j * gen.gamma0 * (x @ anti - anti @ x)
    inner = x @ rho - rho @ x
    out -= gen.diffusion * (x @ inner - inner @ x)
    return out


def _spectral_kinetic(positions, mass):
    """p^2/2M built directly from the squared wavenumbers, not as a product of p with itself."""
    n = positions.size
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=positions[1] - positions[0])
    f = np.fft.fft(np.eye(n), axis=0)
    return np.conj(f.T) / n @ ((k**2)[:, None] * f) / (2.0 * mass)


def _free_particle_rhs_oracle(gen, rho):
    """The grid right-hand side, written on the position vector: the oscillator's at W = 0."""
    x = gen.positions
    kinetic = _spectral_kinetic(x, gen.mass)
    out = -1j * (kinetic @ rho - rho @ kinetic)
    anti = gen.p @ rho + rho @ gen.p
    out += -1j * gen.gamma0 * (x[:, None] * anti - anti * x[None, :])
    out -= gen.diffusion * (x[:, None] - x[None, :]) ** 2 * rho
    return out


def _strang_evolve_oracle(gen, state, t_final, dt, store_every):
    """Strang split on the grid: exact half-steps of the position decay around an RK4 drift step.

    The decay -D[x,[x,rho]] multiplies rho(x, x') by exp(-D (x - x')^2 dt / 2)
    per half-step; the drift is the rest of the equation, compiled to
    G = -iH' - i gamma0 x p with one pair (x, -i gamma0 p).  Returns the
    matrices at every ``store_every``-th step and the last.
    """
    x = gen.positions
    half = np.exp(-0.5 * dt * gen.diffusion * (x[:, None] - x[None, :]) ** 2)
    drift = (-1j * gen.h_eff - 1j * gen.gamma0 * (gen.x @ gen.p),
             ((gen.x, -1j * gen.gamma0 * gen.p),))
    n_steps = int(round(t_final / dt))
    rho = symmetrize(state.matrix)
    frames = [rho]
    for step in range(1, n_steps + 1):
        rho = half * rho
        k1 = compiled_rhs(drift, rho)
        k2 = compiled_rhs(drift, rho + 0.5 * dt * k1)
        k3 = compiled_rhs(drift, rho + 0.5 * dt * k2)
        k4 = compiled_rhs(drift, rho + dt * k3)
        rho = half * (rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if step % store_every == 0 or step == n_steps:
            frames.append(rho)
    return np.array(frames)


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


@pytest.mark.parametrize("pure", [True, False])
def test_compiled_caldeira_leggett_matches_hand_written_rhs(pure):
    gen = caldeira_leggett_generator(1.3, 0.7, 0.02, 10.0, 5.0, n_max=30, pure_decoherence=pure)
    rng = np.random.default_rng(5)
    for _ in range(3):
        rho = _random_hermitian(rng, gen.dim)
        err = np.abs(compiled_rhs(gen.compiled, rho) - _caldeira_leggett_rhs_oracle(gen, rho)).max()
        assert err <= 1e-13 * np.linalg.norm(rho)


def test_compiled_free_particle_drift_matches_hand_written_rhs():
    gen = free_particle_generator(np.linspace(-12.0, 12.0, 64), 1.0, 1.0, 0.5)
    assert np.array_equal(gen.x, np.diag(gen.positions))
    rng = np.random.default_rng(6)
    for _ in range(3):
        rho = _random_hermitian(rng, gen.dim)
        err = np.abs(compiled_rhs(gen.compiled, rho) - _free_particle_rhs_oracle(gen, rho)).max()
        assert err <= 1e-13 * np.linalg.norm(rho)
        # the operator form the oscillator's oracle reads agrees too
        err = np.abs(compiled_rhs(gen.compiled, rho) - _caldeira_leggett_rhs_oracle(gen, rho)).max()
        assert err <= 1e-13 * np.linalg.norm(rho)


def test_bound_motion_matches_moment_odes():
    """Second moments obey a closed linear ODE system; integrate it independently.

    Parameters keep the shifted stiffness positive (2 gamma0 cutoff < freq^2)
    and the temperature well above the level spacing, where the equation's
    transient positivity defects stay under its declared tolerance.
    """
    mass, freq, gamma0, cutoff, temp = 1.0, 1.0, 0.01, 10.0, 10.0
    gen = caldeira_leggett_generator(mass, freq, gamma0, cutoff, temp, n_max=50)
    shifted_sq = freq**2 - 2.0 * gamma0 * cutoff
    diffusion = gen.diffusion

    def rhs(_, y):
        xx, xp, pp = y
        return [
            xp / mass,
            2 * pp / mass - 2 * mass * shifted_sq * xx - 2 * gamma0 * xp,
            -mass * shifted_sq * xp - 4 * gamma0 * pp + 2 * diffusion,
        ]

    psi = coherent_state(1.2, 50)
    rho0 = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    t_final = 1.5
    res = evolve(gen, rho0, t_final, dt=2e-4, store_every=1500)
    y0 = _second_moments(gen, rho0.entries)
    sol = solve_ivp(rhs, (0, t_final), y0, t_eval=res.times, rtol=1e-10, atol=1e-12)
    for k in range(len(res.times)):
        got = _second_moments(gen, res.states[k])
        assert np.abs(got - sol.y[:, k]).max() < 2e-4


def test_pure_decoherence_keeps_energy_alive():
    gen = caldeira_leggett_generator(1.0, 1.0, 0.02, 30.0, 3.0, n_max=40, pure_decoherence=True)
    psi = coherent_state(1.0, 40)
    rho0 = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    res = evolve(gen, rho0, 1.0, dt=5e-4, store_every=500)
    # double commutator heats: <p^2> grows at 2 D, <x^2> untouched directly
    start = _second_moments(gen, res.states[0])
    finish = _second_moments(gen, res.states[-1])
    assert finish[2] > start[2]
    for state in res.states:
        assert abs(np.trace(state) - 1.0) < 1e-9


def test_truncation_tail_flags_basis_exhaustion():
    psi = coherent_state(3.0, 16)  # |alpha|^2 = 9 barely fits in 16 levels
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    assert truncation_tail(rho) > 1e-3
    psi_ok = coherent_state(1.0, 40)
    rho_ok = np.outer(psi_ok.amplitudes, psi_ok.amplitudes.conj())
    assert truncation_tail(rho_ok) < 1e-12


def test_cat_state_parity():
    psi = cat_state(2.0, 50)
    # even superposition of +/- alpha populates only even number states
    odd = psi.amplitudes[1::2]
    assert np.abs(odd).max() < 1e-14


def test_free_particle_matches_moment_odes():
    mass, gamma0, temp = 1.0, 1.0, 0.5
    x = np.linspace(-12.0, 12.0, 96)
    gen = free_particle_generator(x, mass, gamma0, temp)
    state = two_gaussian_superposition(x, 0.0, 1.0)  # single packet
    diffusion = 2 * mass * gamma0 * temp

    def rhs(_, y):
        xx, xp, pp = y
        return [xp / mass, 2 * pp / mass - 2 * gamma0 * xp, -4 * gamma0 * pp + 2 * diffusion]

    def grid_moments(frame):
        mean, var = position_moments(frame)
        return mean, var

    times, frames = evolve_free_particle(gen, state, t_final=2.0, dt=2e-3, store_every=250)
    mean0, var0 = grid_moments(frames[0])
    # initial packet: sigma = 1 -> <x^2> = 1, <p^2> = 1/(4 sigma^2), <xp+px> = 0
    sol = solve_ivp(
        rhs, (0, times[-1]), [var0, 0.0, 0.25], t_eval=times, rtol=1e-10, atol=1e-12
    )
    for k, frame in enumerate(frames):
        _, var = grid_moments(frame)
        assert var == pytest.approx(sol.y[0, k], rel=2e-3, abs=2e-3)


def test_free_particle_grid_mismatch_rejected():
    x = np.linspace(-5, 5, 32)
    gen = free_particle_generator(x, 1.0, 0.5, 1.0)
    other = two_gaussian_superposition(np.linspace(-4, 4, 32), 0.0, 0.8)
    with pytest.raises(ValueError):
        evolve_free_particle(gen, other, 0.1, 1e-3)


def _broken_grid(case):
    """A 32-point grid on [-5, 5] broken in one way."""
    x = np.linspace(-5.0, 5.0, 32)
    h = x[1] - x[0]
    if case == "nan":
        x[5] = np.nan
    elif case == "+inf":
        x[-1] = np.inf
    elif case == "-inf":
        x[0] = -np.inf
    elif case == "decreasing":
        x = x[::-1].copy()
    elif case == "repeated":
        x[6] = x[5]
    elif case == "non-uniform":
        x[16] += 0.25 * h
    return x


_GRID_USERS = {
    "GridState": lambda x: GridState(x, np.eye(32, dtype=complex) / (32 * 10.0 / 31)),
    "free_particle_generator": lambda x: free_particle_generator(x, 1.0, 0.5, 1.0),
    "wigner_from_fock": lambda x: wigner_from_fock(np.diag([1.0, 0, 0, 0, 0, 0]), 1.0, 1.0, x),
}


@pytest.mark.parametrize("user", _GRID_USERS)
@pytest.mark.parametrize("case", ["nan", "+inf", "-inf", "decreasing", "repeated", "non-uniform"])
def test_every_position_grid_meets_the_one_grid_rule(user, case):
    build = _GRID_USERS[user]
    build(_broken_grid(None))  # the unbroken grid is accepted
    rule = "position grid must be finite, increasing and uniform"
    with pytest.raises(ValueError, match=rule) as exc:
        build(_broken_grid(case))
    assert type(exc.value) is ValueError  # not a GridResolutionError about the trace


@pytest.mark.parametrize("t_final, dt, store_every", [
    (0.1, 0.0, 1), (0.1, -1e-3, 1), (0.1, np.nan, 1), (0.1, np.inf, 1),
    (-0.1, 1e-3, 1), (np.nan, 1e-3, 1), (np.inf, 1e-3, 1), (0.1, 1e-3, 0),
])
def test_free_particle_shares_the_run_parameter_checks(t_final, dt, store_every):
    x = np.linspace(-5, 5, 32)
    gen = free_particle_generator(x, 1.0, 0.5, 1.0)
    state = two_gaussian_superposition(x, 0.0, 0.8)
    with pytest.raises(ValueError, match="need"):
        evolve_free_particle(gen, state, t_final, dt, store_every)
    # t_final = 0 keeps the initial frame alone, as evolve does
    times, frames = evolve_free_particle(gen, state, 0.0, 1e-3)
    assert times.tolist() == [0.0] and frames == [state]


def test_free_particle_matches_the_strang_split_oracle():
    x = np.linspace(-5.0, 5.0, 32)
    gen = free_particle_generator(x, 1.0, 0.5, 1.0)
    state = two_gaussian_superposition(x, 0.0, 0.8)
    scale = np.abs(state.matrix).max()
    errors = []
    for dt in (1e-3, 2.5e-4):
        times, frames = evolve_free_particle(gen, state, 0.1, dt, store_every=10)
        split = _strang_evolve_oracle(gen, state, 0.1, dt, store_every=10)
        assert len(frames) == len(split) == len(times)
        errors.append(max(np.abs(f.matrix - r).max() for f, r in zip(frames, split)) / scale)
    # the split errs by O(dt^2) against the exact propagation
    assert errors[0] < 1e-7
    assert errors[1] <= errors[0] / 10.0


def test_free_particle_carries_a_grid_trace_off_one():
    x = np.linspace(-5.0, 5.0, 32)
    gen = free_particle_generator(x, 1.0, 0.5, 1.0)
    base = two_gaussian_superposition(x, 0.0, 0.8)
    state = GridState(x, base.matrix * (1.0 + 5e-9))
    times, frames = evolve_free_particle(gen, state, 0.1, 1e-3, store_every=25)
    assert frames[0] is state and len(frames) == len(times) == 5
    for frame in frames:
        trace = np.real(np.trace(frame.matrix)) * frame.spacing
        assert abs(trace - (1.0 + 5e-9)) < 1e-12


def test_free_particle_refuses_a_run_too_long_to_store_at_once():
    x = np.linspace(-5.0, 5.0, 32)
    gen = free_particle_generator(x, 1.0, 0.5, 1.0)
    state = two_gaussian_superposition(x, 0.0, 0.8)
    with pytest.raises(ValueError, match="fit in memory"):
        evolve_free_particle(gen, state, 1e12, 1e-3)


def test_wigner_ground_state_is_the_expected_gaussian():
    n_max, mass, freq = 24, 1.0, 1.0
    rho = np.zeros((n_max, n_max), dtype=complex)
    rho[0, 0] = 1.0
    grid = wigner_from_fock(rho, mass, freq, np.linspace(-6, 6, 181))
    # exp(-x^2 - p^2)/pi at the actual grid nodes; the momentum grid of an
    # odd-length transform has no p = 0 node, so compare pointwise
    expected = np.exp(-grid.x[:, None] ** 2 - grid.p[None, :] ** 2) / np.pi
    assert np.abs(grid.values - expected).max() < 1e-8
    assert grid.values.min() > -1e-9


def test_wigner_cat_state_has_negative_fringes():
    n_max = 40
    psi = cat_state(2.0, n_max)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    grid = wigner_from_fock(rho, 1.0, 1.0, np.linspace(-8, 8, 161))
    assert grid.values.min() < -0.05


def _wigner_transform_oracle(state):
    """The gather-loop transform over all 2n - 1 offsets that the paired form replaced."""
    x = state.positions
    n = x.size
    h = state.spacing
    rho = state.matrix
    offsets = np.arange(-(n - 1), n)  # y = j h
    gathered = np.zeros((n, offsets.size), dtype=complex)
    for row, j in enumerate(offsets):
        idx = np.arange(n)
        ok = (idx + j >= 0) & (idx + j < n) & (idx - j >= 0) & (idx - j < n)
        gathered[ok, row] = rho[idx[ok] + j, idx[ok] - j]
    p_grid = -np.pi / (2.0 * h) + np.pi / (h * n) * np.arange(n)
    phase = np.exp(-2.0j * np.outer(offsets * h, p_grid))
    return np.real(gathered @ phase) * (h / np.pi)


def _grid_state_from_fock(rho, positions):
    """The position-grid state ``wigner_from_fock`` transforms, at unit mass and frequency."""
    phi = hermite_functions(rho.shape[0], positions)
    rho_x = phi.T @ rho @ phi
    trace = np.real(np.trace(rho_x)) * (positions[1] - positions[0])
    return GridState(positions, symmetrize(rho_x) / trace)


def _nearly_hermitian_grid_state(rng, n):
    """A random grid state whose matrix is Hermitian only to within GridState's 1e-10."""
    positions = np.linspace(-4.0, 4.0, n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    rho /= np.real(np.trace(rho)) * (positions[1] - positions[0])
    rho += 5e-11 * (rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n)))
    state = GridState(positions, rho)
    assert 1e-11 < np.abs(state.matrix - state.matrix.conj().T).max() <= 1e-10
    return state


def test_paired_wigner_transform_matches_the_gather_loop():
    xs = np.linspace(-8.0, 8.0, 161)
    cat = cat_state(2.0, 30).amplitudes  # criterion 11's initial state and grid
    n = np.arange(30)
    thermal = np.diag(np.exp(-n / 1.5) / np.exp(-n / 1.5).sum()).astype(complex)
    states = {
        "cat": _grid_state_from_fock(np.outer(cat, cat.conj()), xs),
        "thermal": _grid_state_from_fock(thermal, xs),
        "nearly hermitian": _nearly_hermitian_grid_state(np.random.default_rng(11), 64),
    }
    for name, state in states.items():
        # a random matrix fills the momentum window, so its edge check is switched off
        got = wigner_transform(state, boundary_tol=np.inf).values
        assert np.abs(got - _wigner_transform_oracle(state)).max() <= 1e-13, name
    # the paired form is the one wigner_from_fock takes
    grid = wigner_from_fock(np.outer(cat, cat.conj()), 1.0, 1.0, xs)
    assert np.array_equal(grid.values, wigner_transform(states["cat"]).values)


def test_wigner_grid_too_small_is_rejected():
    n_max = 30
    psi = coherent_state(2.5, n_max)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    with pytest.raises(GridResolutionError):
        wigner_from_fock(rho, 1.0, 1.0, np.linspace(-2, 2, 41))


def test_model_containers_freeze_a_private_copy_not_the_callers_arrays():
    psi = coherent_state(1.0, 20).amplitudes
    positions = np.linspace(-8.0, 8.0, 161)
    grid = wigner_from_fock(np.outer(psi, psi.conj()), 1.0, 1.0, positions)
    x = np.linspace(-4.0, 4.0, 16)
    matrix = np.diag(np.full(16, 1.0 / (16 * (x[1] - x[0])))).astype(complex)
    state = GridState(x, matrix)
    gen = free_particle_generator(x, 1.0, 0.5, 1.0)
    values = grid.values.copy()
    direct = WignerGrid(grid.x.copy(), grid.p.copy(), values)
    for caller in (positions, x, matrix, values):
        assert caller.flags.writeable
    for built in (grid.x, grid.p, grid.values, state.positions, state.matrix, gen.positions,
                  direct.values):
        assert not built.flags.writeable
    values *= 3.0  # the caller may go on using its array
    assert np.array_equal(direct.values, grid.values)


@pytest.mark.parametrize("params", [
    (1.0, 1.0, 0.1, 0.0, 1.0),
    (1.0, 1.0, 0.1, -1.0, 1.0),
    (1.0, 1.0, -0.01, 10.0, 1.0),
    (1.0, 1.0, 0.1, 10.0, -1.0),
    (np.nan, 1.0, 0.1, 10.0, 1.0),
    (1.0, np.inf, 0.1, 10.0, 1.0),
    (1.0, 1.0, np.nan, 10.0, 1.0),
    (1.0, 1.0, 0.1, np.inf, 1.0),
    (1.0, 1.0, 0.1, 10.0, np.inf),
])
def test_caldeira_leggett_rejects_invalid_parameters(params):
    with pytest.raises(ValueError):
        caldeira_leggett_generator(*params, n_max=8)


@pytest.mark.parametrize("mass, gamma0, temperature", [
    (-1.0, 0.5, 1.0), (0.0, 0.5, 1.0), (np.nan, 0.5, 1.0), (np.inf, 0.5, 1.0),
    (1.0, -0.5, 1.0), (1.0, np.inf, 1.0), (1.0, np.nan, 1.0),
    (1.0, 0.5, -1.0), (1.0, 0.5, np.inf),
])
def test_free_particle_rejects_invalid_parameters(mass, gamma0, temperature):
    with pytest.raises(ValueError):
        free_particle_generator(np.linspace(-5.0, 5.0, 32), mass, gamma0, temperature)


def test_generator_guards():
    with pytest.raises(ValueError):
        caldeira_leggett_generator(1.0, 1.0, 0.1, 10.0, 1.0, n_max=2)
    with pytest.raises(ValueError):
        free_particle_generator(np.linspace(0, 1, 4), 1.0, 0.1, 1.0)
