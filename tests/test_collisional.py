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
    localization_prefactor,
    localization_rate,
    separation_rates,
    total_scattering_rate,
    two_gaussian_superposition,
    uniform_beam_localization_rates,
    uniform_beam_rates,
)
from decosim.models.collisional import _angular_factor, _sine_integral

RHO0, SPEED, F2, QMAX = 1.0, 1.0, 0.1, 2.0
_gauss_legendre_rule = functools.cache(roots_legendre)


def _uniform_model(regime="full"):
    return ScatteringModel(
        density_of_momenta=lambda q: RHO0,
        speed=lambda q: SPEED,
        cross_section=lambda q: F2,
        q_max=QMAX,
        regime=regime,
    )


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
        assert abs(_angular_factor(u) - _gauss_legendre_angular_factor(u)) < 1e-13


def test_total_rate_and_prefactor_closed_forms():
    model = _uniform_model()
    assert total_scattering_rate(model) == pytest.approx(
        4 * np.pi * RHO0 * SPEED * F2 * QMAX, rel=1e-10
    )
    assert localization_prefactor(model) == pytest.approx(
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
    assert -1e-12 <= rate <= total_scattering_rate(model) * (1 + 1e-9)


def test_rate_monotone_in_separation():
    model = _uniform_model()
    grid = np.geomspace(1e-3, 50.0, 25)
    rates = [localization_rate(model, dx) for dx in grid]
    assert all(b >= a * (1 - 1e-9) for a, b in zip(rates, rates[1:]))


def test_regime_dispatch():
    assert localization_rate(_uniform_model("short-wavelength"), 0.3) == pytest.approx(
        4 * np.pi * RHO0 * SPEED * F2 * QMAX
    )
    lam = localization_prefactor(_uniform_model())
    assert localization_rate(_uniform_model("long-wavelength"), 0.3) == pytest.approx(
        lam * 0.09
    )
    with pytest.raises(ValueError):
        _uniform_model("sideways")


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


def test_superposition_state_normalization():
    x = np.linspace(-6, 6, 121)
    state = two_gaussian_superposition(x, separation=4.0, sigma=0.5)
    assert np.real(np.diag(state.matrix)).sum() * state.spacing == pytest.approx(1.0)
    assert np.abs(state.matrix - state.matrix.conj().T).max() < 1e-14


def test_collisional_evolution_fixes_diagonal():
    x = np.linspace(-6, 6, 61)
    state = two_gaussian_superposition(x, 4.0, 0.5)
    model = _uniform_model()
    rates = separation_rates(model, state)
    evolved = evolve_collisional(state, model, 0.8, rates=rates)
    assert np.abs(np.diag(evolved.matrix) - np.diag(state.matrix)).max() < 1e-12


def test_collisional_evolution_is_a_semigroup():
    x = np.linspace(-6, 6, 41)
    state = two_gaussian_superposition(x, 4.0, 0.5)
    model = _uniform_model()
    rates = separation_rates(model, state)
    one_step = evolve_collisional(state, model, 1.1, rates=rates)
    two_step = evolve_collisional(
        evolve_collisional(state, model, 0.4, rates=rates), model, 0.7, rates=rates
    )
    assert np.abs(one_step.matrix - two_step.matrix).max() < 1e-13


def test_collisional_offdiagonal_decay_rate_is_exact():
    x = np.linspace(-6, 6, 41)
    state = two_gaussian_superposition(x, 4.0, 0.5)
    model = _uniform_model()
    rates = separation_rates(model, state)
    t = 0.9
    evolved = evolve_collisional(state, model, t, rates=rates)
    i, j = 5, 30
    expected = state.matrix[i, j] * np.exp(-rates[abs(i - j)] * t)
    assert evolved.matrix[i, j] == pytest.approx(expected, rel=1e-12)


def test_decoherence_rates_summary():
    rates = decoherence_rates(_uniform_model())
    assert rates.total_rate == pytest.approx(4 * np.pi * RHO0 * SPEED * F2 * QMAX)
    assert rates.coherence_time(0.0) == np.inf
    assert rates.coherence_time(2.0) == pytest.approx(1.0 / (rates.prefactor * 4.0))


def _uniform_curve(separations, regime="full"):
    return uniform_beam_localization_rates(RHO0, SPEED, F2, QMAX, separations, regime)


def test_uniform_beam_curve_matches_the_quadrature_path():
    # U = q_max dx over [1e-3, 1e3], across the switch to the series at 1e-2;
    # the grid holds U = 199.5, where quad at its default tolerances erred by 7.4e-7
    separations = np.geomspace(1e-3, 1e3, 61) / QMAX
    model = _uniform_model()
    expected = np.array([localization_rate(model, dx) for dx in separations])
    assert np.abs(_uniform_curve(separations) / expected - 1.0).max() < 1e-9


def test_uniform_beam_curve_matches_the_sine_integral_form():
    separations = np.geomspace(1e-2, 1e3, 61) / QMAX  # U = q_max dx over [1e-2, 1e3]
    independent = np.array([_rate_closed_form(dx) for dx in separations])
    assert np.abs(_uniform_curve(separations) / independent - 1.0).max() < 1e-10


def test_uniform_beam_curve_follows_the_quadratic_law_at_small_separations():
    separations = np.geomspace(1e-12, 1e-6, 13)
    lam = uniform_beam_rates(RHO0, SPEED, F2, QMAX).prefactor
    assert np.abs(_uniform_curve(separations) / (lam * separations**2) - 1.0).max() < 1e-10
    assert _uniform_curve([0.0])[0] == 0.0


def test_uniform_beam_regimes_match_localization_rate():
    separations = np.array([0.0, 0.03, 0.7, 12.0])
    for regime in ("short-wavelength", "long-wavelength"):
        model = _uniform_model(regime)
        expected = [localization_rate(model, dx) for dx in separations]
        assert _uniform_curve(separations, regime) == pytest.approx(expected, rel=1e-12)
    rates = uniform_beam_rates(RHO0, SPEED, F2, QMAX)
    reference = decoherence_rates(_uniform_model())
    assert rates.total_rate == pytest.approx(reference.total_rate, rel=1e-12)
    assert rates.prefactor == pytest.approx(reference.prefactor, rel=1e-12)
    # far past any wavelength the curve is Gamma_tot, also where q_max dx overflows
    wide = uniform_beam_localization_rates(RHO0, SPEED, F2, 1e10, [1e300])
    assert wide[0] == uniform_beam_rates(RHO0, SPEED, F2, 1e10).total_rate
    with pytest.raises(ValueError):
        _uniform_curve(separations, "sideways")
    with pytest.raises(ValueError):
        uniform_beam_rates(RHO0, SPEED, F2, 0.0)
    for bad in ((-1.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, -0.1),
                (np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.nan)):
        with pytest.raises(ValueError):
            uniform_beam_rates(*bad, 1.0)
        with pytest.raises(ValueError):
            uniform_beam_localization_rates(*bad, 1.0, [0.5, 5.0])
