import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre, sici

from decosim.errors import PhysicalityError
from decosim.models import (
    GridState,
    ScatteringModel,
    decoherence_rates,
    evolve_collisional,
    localization_rate,
    two_gaussian_superposition,
)
from decosim.models.collisional import _sine_integral

from conftest import angular_factor, quad_localization_rate, quad_rates

RHO0, SPEED, F2, QMAX = 1.0, 1.0, 0.1, 2.0
_gauss_legendre_rule = functools.cache(roots_legendre)


def _uniform_model():
    return ScatteringModel(RHO0, SPEED, F2, QMAX)


def _rate_closed_form(dx: float) -> float:
    """Independent evaluation for constant density, speed, and cross section.

    The double angular average of 1 - e^{i q (n - n') . dx} reduces to
    1 - sinc^2(q dx); integrating over q in [0, Q] gives
    4 pi rho v |f|^2 [Q - (Si(2 Q dx) - sin^2(Q dx)/(Q dx)) / dx].
    """
    z = QMAX * dx
    si, _ = sici(2.0 * z)
    return 4 * np.pi * RHO0 * SPEED * F2 * (QMAX - (si - np.sin(z) ** 2 / z) / dx)


def test_sine_integral_matches_sici():
    # a log grid over 1e-8 .. 1e6 plus the series / continued-fraction seam at 4
    x = np.concatenate([np.logspace(-8.0, 6.0, 2801), np.linspace(3.99, 4.01, 201),
                        [np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 8.0)]])
    ref, _ = sici(x)
    assert np.all(np.abs(_sine_integral(x) - ref) <= 4e-15 * ref)


def test_rate_against_closed_form():
    model = _uniform_model()
    for dx in (0.01, 0.1, 1.0, 5.0, 100.0):
        assert localization_rate(model, dx) == pytest.approx(
            _rate_closed_form(dx), rel=1e-8
        )


def _gauss_legendre_angular_factor(u: float) -> float:
    """int dc dc' (1 - cos(u (c - c'))) over [-1,1]^2 by Gauss-Legendre.

    The node count doubles from 96 until it exceeds the phase argument,
    so the oscillatory integrand stays resolved at large separations.
    """
    n = 96
    while n < u:
        n *= 2
    nodes, weights = _gauss_legendre_rule(n)
    phase = u * nodes
    # |int dc e^{iuc}|^2 expands the double integral of cos(u(c - c')).
    return 4.0 - ((weights @ np.cos(phase)) ** 2 + (weights @ np.sin(phase)) ** 2)


def test_angular_factor_matches_gauss_legendre():
    for u in np.geomspace(1e-3, 5000.0, 40):
        assert abs(angular_factor(u) - _gauss_legendre_angular_factor(u)) < 1e-13


def test_total_rate_and_prefactor_closed_forms():
    rates = decoherence_rates(_uniform_model())
    assert rates.total_rate == pytest.approx(4 * np.pi * RHO0 * SPEED * F2 * QMAX, rel=1e-10)
    assert rates.prefactor == pytest.approx(
        4 * np.pi / 3 * RHO0 * SPEED * F2 * QMAX**3 / 3, rel=1e-10
    )


def test_rate_vanishes_at_zero_separation():
    assert localization_rate(_uniform_model(), 0.0) == 0.0


def test_rate_is_even_in_separation():
    model = _uniform_model()
    assert localization_rate(model, -0.7) == localization_rate(model, 0.7)


@given(st.floats(min_value=-2.0, max_value=2.5))
@settings(max_examples=20, deadline=None)
def test_rate_bounded_by_total_rate(log_dx):
    model = _uniform_model()
    rate = localization_rate(model, 10.0**log_dx)
    assert -1e-12 <= rate <= decoherence_rates(model).total_rate * (1 + 1e-9)


def test_rate_monotone_in_separation():
    model = _uniform_model()
    grid = np.geomspace(1e-3, 50.0, 25)
    rates = localization_rate(model, grid)
    assert all(b >= a * (1 - 1e-9) for a, b in zip(rates, rates[1:]))


def test_grid_state_validation():
    x = np.linspace(-1, 1, 8)
    with pytest.raises(PhysicalityError):
        GridState(x, np.eye(8, dtype=complex))  # trace not normalized to the grid
    mat = np.eye(8, dtype=complex) / (8 * (x[1] - x[0]))
    GridState(x, mat)  # normalized: fine
    bad = mat.copy()
    bad[0, 1] = 0.5
    with pytest.raises(PhysicalityError):
        GridState(x, bad)  # hermiticity broken


def _nan_at(*cells):
    x = np.linspace(-1, 1, 8)
    mat = np.eye(8, dtype=complex) / (8 * (x[1] - x[0]))
    for cell in cells:
        mat[cell] = np.nan
    return lambda: GridState(x, mat)


@pytest.mark.parametrize("build, error, message", [
    (_nan_at((0, 5), (5, 0)), PhysicalityError, "not Hermitian"),
    (_nan_at((3, 3)), PhysicalityError, "not Hermitian"),
    (lambda: evolve_collisional(two_gaussian_superposition(np.linspace(-6, 6, 41), 4.0, 0.5),
                                _uniform_model(), np.nan), ValueError, "time must be nonnegative"),
], ids=["off-diagonal-pair", "diagonal", "time"])
def test_nan_fails_the_grid_state_and_time_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("bad", [(np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.nan)],
                         ids=["density", "speed", "cross-section"])
def test_nan_model_data_gets_the_nonnegativity_message(bad):
    with pytest.raises(ValueError, match="need density, speed and cross-section >= 0"):
        ScatteringModel(*bad, 1.0)


def test_infinite_time_gets_the_time_error():
    state = two_gaussian_superposition(np.linspace(-6, 6, 41), 4.0, 0.5)
    with pytest.raises(ValueError, match="time must be nonnegative and finite"):
        evolve_collisional(state, _uniform_model(), np.inf)


def test_superposition_state_normalization():
    x = np.linspace(-6, 6, 121)
    state = two_gaussian_superposition(x, separation=4.0, sigma=0.5)
    assert np.real(np.diag(state.matrix)).sum() * state.spacing == pytest.approx(1.0)
    assert np.abs(state.matrix - state.matrix.conj().T).max() < 1e-14


def test_collisional_evolution_fixes_diagonal():
    x = np.linspace(-6, 6, 61)
    state = two_gaussian_superposition(x, 4.0, 0.5)
    evolved = evolve_collisional(state, _uniform_model(), 0.8)
    assert np.abs(np.diag(evolved.matrix) - np.diag(state.matrix)).max() < 1e-12


def test_collisional_evolution_is_a_semigroup():
    x = np.linspace(-6, 6, 41)
    state = two_gaussian_superposition(x, 4.0, 0.5)
    model = _uniform_model()
    one_step = evolve_collisional(state, model, 1.1)
    two_step = evolve_collisional(evolve_collisional(state, model, 0.4), model, 0.7)
    assert np.abs(one_step.matrix - two_step.matrix).max() < 1e-13


def test_collisional_offdiagonal_decay_rate_is_exact():
    x = np.linspace(-6, 6, 41)
    state = two_gaussian_superposition(x, 4.0, 0.5)
    model = _uniform_model()
    t = 0.9
    evolved = evolve_collisional(state, model, t)
    i, j = 5, 30
    rate = localization_rate(model, abs(i - j) * state.spacing)
    expected = state.matrix[i, j] * np.exp(-rate * t)
    assert evolved.matrix[i, j] == pytest.approx(expected, rel=1e-12)


def test_decoherence_rates_summary():
    rates = decoherence_rates(_uniform_model())
    assert rates.total_rate == pytest.approx(4 * np.pi * RHO0 * SPEED * F2 * QMAX)
    assert rates.coherence_time(0.0) == np.inf
    assert rates.coherence_time(2.0) == pytest.approx(1.0 / (rates.prefactor * 4.0))


def _uniform_curve(separations):
    return localization_rate(_uniform_model(), separations)


def test_uniform_beam_curve_matches_the_quadrature_path():
    # U = q_max dx over [1e-3, 1e3], across the switch to the series at 1e-2;
    # the grid holds U = 199.5, where quad at its default tolerances erred by 7.4e-7
    separations = np.geomspace(1e-3, 1e3, 61) / QMAX
    model = _uniform_model()
    expected = np.array([quad_localization_rate(model, dx) for dx in separations])
    assert np.abs(_uniform_curve(separations) / expected - 1.0).max() < 1e-9


def test_uniform_beam_curve_matches_the_sine_integral_form():
    separations = np.geomspace(1e-2, 1e3, 61) / QMAX  # U = q_max dx over [1e-2, 1e3]
    independent = np.array([_rate_closed_form(dx) for dx in separations])
    assert np.abs(_uniform_curve(separations) / independent - 1.0).max() < 1e-10


def test_uniform_beam_curve_follows_the_quadratic_law_at_small_separations():
    separations = np.geomspace(1e-12, 1e-6, 13)
    lam = decoherence_rates(_uniform_model()).prefactor
    assert np.abs(_uniform_curve(separations) / (lam * separations**2) - 1.0).max() < 1e-10
    assert _uniform_curve([0.0])[0] == 0.0


def test_uniform_beam_limits_match_the_quadrature_rates():
    rates = decoherence_rates(_uniform_model())
    total, prefactor = quad_rates(_uniform_model())
    assert rates.total_rate == pytest.approx(total, rel=1e-12)
    assert rates.prefactor == pytest.approx(prefactor, rel=1e-12)
    # far past any wavelength the curve is Gamma_tot, also where q_max dx overflows
    wide_model = ScatteringModel(RHO0, SPEED, F2, 1e10)
    wide = localization_rate(wide_model, [1e300])
    assert wide[0] == decoherence_rates(wide_model).total_rate
    with pytest.raises(ValueError):
        ScatteringModel(RHO0, SPEED, F2, 0.0)
    for bad in ((-1.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, -0.1),
                (np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.nan)):
        with pytest.raises(ValueError):
            ScatteringModel(*bad, 1.0)
