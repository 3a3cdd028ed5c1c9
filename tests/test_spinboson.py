import numpy as np
import pytest

from decosim import DensityMatrix, OhmicLorentzCutoff, evolve
from decosim.core import SIGMA_Y, SIGMA_Z
from decosim.errors import ConvergenceError
from decosim.models import (
    spin_boson_born_markov_generator,
    spin_boson_exact_dephasing,
)
from decosim.models.qbm import ladder
from decosim.models.spinboson import _coherence_product, _mode_parameters

from conftest import SampledSpectralDensity, compiled_rhs

DENSITY = OhmicLorentzCutoff(mass=1.0, gamma0=0.02, cutoff=8.0)

# -log |coherence| for the density above at T = 2, frozen from an
# independent fine-grid quadrature of 4 J(w)/w^2 (1 - cos(w t)) coth(w/2T)
CONTINUUM_EXPONENT = {
    0.5: 0.15678840673154257,
    1.0: 0.31738200461471466,
    3.0: 0.9573941660462738,
}


def _triangle_spike(center: float, half_width: float, weight: float):
    # piecewise-linear spike with integral `weight`
    apex = weight / half_width
    grid = np.array([0.0, center - half_width, center, center + half_width, center + 0.2])
    vals = np.array([0.0, 0.0, apex, 0.0, 0.0])
    return SampledSpectralDensity(grid, vals)


def _fock_cutoff(omega: float, g: float, temperature: float) -> int:
    occupation = 0.0
    if temperature > 0.0:
        occupation = 1.0 / np.expm1(omega / temperature)
    reach = (g / omega) ** 2
    return int(np.ceil(10.0 * occupation + 25.0 * np.sqrt(reach + 1e-30) + 12.0))


def _fock_mode_coherence(omega: float, g: float, temperature: float, times: np.ndarray):
    """Tr[e^{-i h_- t} rho_th e^{+i h_+ t}] for one displaced mode, in a truncated Fock space.

    h_pm = w a^dag a +/- g (a + a^dag).  The cutoff drops the thermal tail
    beyond ~10 occupation quanta, which is what limits agreement at T > 0.
    """
    n_f = _fock_cutoff(omega, g, temperature)
    a = ladder(n_f)
    num = np.diag(np.arange(n_f, dtype=float)).astype(complex)
    coupling = g * (a + a.conj().T)
    h_plus = omega * num + coupling
    h_minus = omega * num - coupling
    if temperature > 0.0:
        weights = np.exp(-omega * np.arange(n_f) / temperature)
    else:
        weights = np.zeros(n_f)
        weights[0] = 1.0
    weights /= weights.sum()
    rho = np.diag(weights).astype(complex)
    ep, vp = np.linalg.eigh(h_plus)
    em, vm = np.linalg.eigh(h_minus)
    coeff = (vp.conj().T @ rho @ vm) * (vm.conj().T @ vp).T
    phase_p = np.exp(-1j * np.outer(times, ep))
    phase_m = np.exp(1j * np.outer(times, em))
    return np.einsum("tm,mn,tn->t", phase_p, coeff, phase_m)


@pytest.mark.parametrize("omega, g, temperature, tol", [
    (0.5, 0.05, 0.0, 1e-12),
    (0.1, 0.01, 0.0, 1e-12),
    (0.5, 0.05, 4.0, 1e-4),
    (0.1, 0.01, 2.0, 1e-4),
])
def test_closed_form_mode_factor_matches_fock_solver(omega, g, temperature, tol):
    # one midpoint mode at omega over (0, 2 omega) with g^2 = J(omega) * 2 omega
    density = SampledSpectralDensity(
        np.array([0.0, 4.0 * omega]), np.full(2, g * g / (2.0 * omega))
    )
    times = np.linspace(0.0, 4.0 * np.pi / omega, 41)
    res = spin_boson_exact_dephasing(
        density, temperature, times, n_modes=1, omega_max=2.0 * omega,
        check_convergence=False,
    )
    fock = _fock_mode_coherence(omega, g, temperature, times)
    assert np.abs(res.coherence - fock).max() < tol
    assert res.population_drift == 0.0


def _direct_coherence(density, temperature, times, omega_max, n_modes):
    """exp(-sum_j W_j (1 - cos w_j t)) from the full (times, modes) cosine matrix."""
    omegas, g_sq = _mode_parameters(density, omega_max, n_modes)
    weight = 4.0 * g_sq / omegas**2
    if temperature > 0.0:
        weight /= np.tanh(omegas / (2.0 * temperature))
    exponent = (1.0 - np.cos(np.outer(times, omegas))) @ weight
    return np.exp(-exponent), exponent


_UNIFORM_TIMES = np.linspace(0.0, 25.0, 201)  # omega_max t up to 1e3 at omega_max = 40
_UNEVEN_TIMES = np.concatenate(
    [[0.0], np.cumsum(np.random.default_rng(3).uniform(1e-3, 0.5, 60))]
)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 7, 64, 511, 512, 1000, 1024, 4096])
@pytest.mark.parametrize("temperature", [0.0, 0.05, 1.2, 50.0])
@pytest.mark.parametrize("times", [_UNIFORM_TIMES, _UNEVEN_TIMES], ids=["uniform", "uneven"])
def test_two_table_product_matches_the_direct_cosine_sum(n_modes, temperature, times):
    # square, prime and zero-padded mode counts; the coherence's relative
    # error is the exponent's absolute error, so above an exponent of 1 the
    # bound is relative to the exponent
    got = _coherence_product(DENSITY, temperature, times, 40.0, n_modes)
    expected, exponent = _direct_coherence(DENSITY, temperature, times, 40.0, n_modes)
    assert got[0] == 1.0
    assert np.all(np.abs(got / expected - 1.0) <= 1e-13 * np.maximum(exponent, 1.0))


def test_single_mode_closed_form_at_zero_temperature():
    # all spectral weight near w0 acts as one displaced mode:
    # |coherence| = exp[-(4 W / w0^2) (1 - cos w0 t)] with W the total weight
    w0, weight = 3.0, 0.04
    density = _triangle_spike(w0, 0.05, weight)
    times = np.array([0.0, 0.4, 1.0, 2.0, 3.0])
    res = spin_boson_exact_dephasing(
        density, 0.0, times, n_modes=512, omega_max=density.default_omega_max()
    )
    expected = np.exp(-(4.0 * weight / w0**2) * (1.0 - np.cos(w0 * times)))
    assert np.abs(np.abs(res.coherence) - expected).max() < 2e-4
    # at zero temperature the no-splitting coherence is purely real
    assert np.abs(res.coherence.imag).max() < 1e-9


def test_exact_dephasing_matches_continuum_quadrature():
    times = np.array([0.0] + sorted(CONTINUUM_EXPONENT))
    # the exponent integrand has a 1/w^3 tail, so the default window
    # (5 cutoff) leaves a 0.7% deficit at early times; widen it instead
    # of loosening the comparison
    res = spin_boson_exact_dephasing(DENSITY, 2.0, times, n_modes=1024, omega_max=80.0)
    for t, gamma in CONTINUUM_EXPONENT.items():
        k = int(np.where(times == t)[0][0])
        got = -np.log(np.abs(res.coherence[k]))
        assert got == pytest.approx(gamma, rel=3e-3)
    assert res.population_drift < 1e-10
    assert res.doubling_change is not None and res.doubling_change < 0.02


def test_splitting_contributes_a_pure_phase():
    times = np.linspace(0.0, 2.0, 9)
    plain = spin_boson_exact_dephasing(DENSITY, 1.0, times, check_convergence=False)
    split = spin_boson_exact_dephasing(
        DENSITY, 1.0, times, splitting=1.5, check_convergence=False
    )
    assert np.allclose(split.coherence, plain.coherence * np.exp(-1.5j * times))
    assert plain.doubling_change is None


def test_unresolved_spike_fails_the_doubling_check():
    # at 8 modes the midpoint grid lands on the spike, at 16 it misses it
    density = _triangle_spike(3.0, 0.02, 0.04)
    times = np.linspace(0.0, 2.0, 21)
    with pytest.raises(ConvergenceError):
        spin_boson_exact_dephasing(density, 0.0, times, n_modes=8, omega_max=3.2)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        spin_boson_exact_dephasing(DENSITY, 1.0, np.array([0.1, 0.2]), n_modes=16)
    with pytest.raises(ValueError):
        spin_boson_exact_dephasing(DENSITY, 1.0, np.array([0.0, 0.5, 0.4]), n_modes=16)


def test_born_markov_pure_dephasing_solution():
    gen = spin_boson_born_markov_generator(DENSITY, 2.0, splitting=0.7, tunneling=0.0)
    # no tunneling: the sine-weighted coefficients vanish identically
    assert gen.renormalization == 0.0
    assert gen.decay == 0.0
    # and the dephasing coefficient sits at its high-temperature value
    assert gen.dephasing == pytest.approx(2.0 * 1.0 * 0.02 * 2.0, rel=1e-4)
    rho0 = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    res = evolve(gen, rho0, t_final=1.0, dt=1e-3, store_every=200)
    for k, t in enumerate(res.times):
        expected = 0.5 * np.exp(-4.0 * gen.dephasing * t) * np.exp(-0.7j * t)
        assert abs(res.states[k][0, 1] - expected) < 1e-8


@pytest.mark.parametrize("gamma0, temperature", [(1e300, 2.0), (0.02, 1.7976931348623157e308)])
def test_weak_coupling_coefficients_beyond_the_double_range_raise(gamma0, temperature):
    # J'(0) or 2 T J'(0) overflows: a ValueError, with no numpy warning first
    density = OhmicLorentzCutoff(mass=1e10, gamma0=gamma0, cutoff=8.0)
    with pytest.raises(ValueError, match="overflow a double"):
        spin_boson_born_markov_generator(density, temperature, splitting=0.5, tunneling=0.0)


def _born_markov_rhs_oracle(gen, rho):
    """The hand-written weak-coupling right-hand side the compiled form replaced."""
    h = gen.h_eff
    out = -1j * (h @ rho - rho @ h.conj().T)
    inner = SIGMA_Z @ rho - rho @ SIGMA_Z
    out -= gen.dephasing * (SIGMA_Z @ inner - inner @ SIGMA_Z)
    out += gen.zeta * (SIGMA_Z @ rho @ SIGMA_Y)
    out += np.conj(gen.zeta) * (SIGMA_Y @ rho @ SIGMA_Z)
    return out


def test_compiled_born_markov_matches_hand_written_rhs():
    gen = spin_boson_born_markov_generator(DENSITY, 2.0, splitting=0.5, tunneling=1.0)
    assert gen.renormalization != 0.0 and gen.decay != 0.0
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a + a.conj().T
        err = np.abs(compiled_rhs(gen.compiled, rho) - _born_markov_rhs_oracle(gen, rho)).max()
        assert err <= 1e-13 * np.linalg.norm(rho)


def test_born_markov_trace_exactly_conserved_with_tunneling():
    gen = spin_boson_born_markov_generator(DENSITY, 2.0, splitting=0.5, tunneling=1.0)
    rho0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    res = evolve(gen, rho0, t_final=2.0, dt=1e-3, store_every=250)
    for state in res.states:
        assert abs(np.trace(state).real - 1.0) < 1e-12
        assert abs(np.trace(state).imag) < 1e-14
