import numpy as np
import pytest
from scipy.integrate import solve_ivp

from decosim import DensityMatrix, evolve
from decosim.dynamics import compiled_rhs
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
from decosim.models.qbm import ladder, position_momentum


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
    """The hand-written number-basis right-hand side the compiled form replaced."""
    x, p = gen.x, gen.p
    out = -1j * (gen.h_eff @ rho - rho @ gen.h_eff)
    if not gen.pure_decoherence:
        anti = p @ rho + rho @ p
        out += -1j * gen.gamma0 * (x @ anti - anti @ x)
    inner = x @ rho - rho @ x
    out -= gen.diffusion * (x @ inner - inner @ x)
    return out


def _free_particle_drift_oracle(gen, rho):
    """The hand-written grid drift (unitary plus damping) the compiled form replaced."""
    out = -1j * (gen.kinetic @ rho - rho @ gen.kinetic)
    x = gen.positions
    anti = gen.p_op @ rho + rho @ gen.p_op
    out += -1j * gen.gamma0 * (x[:, None] * anti - anti * x[None, :])
    return out


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
    rng = np.random.default_rng(6)
    for _ in range(3):
        rho = _random_hermitian(rng, gen.dim)
        err = np.abs(compiled_rhs(gen.compiled, rho) - _free_particle_drift_oracle(gen, rho)).max()
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


def test_wigner_grid_too_small_is_rejected():
    n_max = 30
    psi = coherent_state(2.5, n_max)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    with pytest.raises(GridResolutionError):
        wigner_from_fock(rho, 1.0, 1.0, np.linspace(-2, 2, 41))


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


def test_generator_guards():
    with pytest.raises(ValueError):
        caldeira_leggett_generator(1.0, 1.0, 0.1, 10.0, 1.0, n_max=2)
    with pytest.raises(ValueError):
        free_particle_generator(np.linspace(0, 1, 4), 1.0, 0.1, 1.0)
