import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import psi

from decosim import OhmicLorentzCutoff, qbm_coefficients, spin_boson_coefficients
from decosim.baths import _digamma

from conftest import SampledSpectralDensity

MASS, GAMMA0, CUTOFF = 1.0, 0.02, 8.0
DENSITY = OhmicLorentzCutoff(MASS, GAMMA0, CUTOFF)


def test_density_shape_and_slope():
    w = np.array([0.5, CUTOFF, 40.0])
    vals = DENSITY(w)
    expected = (2 * MASS * GAMMA0 / np.pi) * w * CUTOFF**2 / (CUTOFF**2 + w**2)
    assert np.allclose(vals, expected, rtol=1e-14)
    assert DENSITY.zero_frequency_slope() == pytest.approx(2 * MASS * GAMMA0 / np.pi)


def test_pure_dephasing_coefficient_closed_form():
    # int_0^inf nu = (pi/2) * [J(w) coth(w/2T)]_{w->0} = 2 M gamma0 T
    for temperature in (1.0, 2.0, 4.0):
        coeffs = spin_boson_coefficients(DENSITY, temperature, tunneling=0.0)
        assert coeffs.dephasing == pytest.approx(
            2 * MASS * GAMMA0 * temperature, rel=1e-5
        )
        assert coeffs.renormalization == pytest.approx(0.0, abs=1e-12)
        assert coeffs.decay == pytest.approx(0.0, abs=1e-12)


def test_decay_coefficient_closed_form():
    # int_0^inf eta sin(Delta0 t) = (pi/2) J(Delta0)
    delta0 = 1.5
    coeffs = spin_boson_coefficients(DENSITY, 2.0, tunneling=delta0)
    assert coeffs.decay == pytest.approx(0.5 * np.pi * DENSITY(delta0), rel=1e-5)


def test_oscillator_coefficients_closed_forms():
    omega = 1.0
    temperature = 6.0
    coeffs = qbm_coefficients(DENSITY, temperature, omega)
    lorentz = CUTOFF**2 / (CUTOFF**2 + omega**2)
    assert coeffs.damping == pytest.approx(GAMMA0 * lorentz, rel=1e-5)
    # normal diffusion: (pi/2) J(W) coth(W/2T)
    expected_diff = 0.5 * np.pi * DENSITY(omega) / np.tanh(omega / (2 * temperature))
    assert coeffs.normal_diffusion == pytest.approx(expected_diff, rel=1e-5)
    # frequency shift: -(2/M) integral of M gamma0 c^2 e^{-c t} cos(W t)
    expected_shift = -2 * GAMMA0 * CUTOFF**3 / (CUTOFF**2 + omega**2)
    assert coeffs.frequency_shift_sq == pytest.approx(expected_shift, rel=1e-4)


def _subtracted_pole(f, w0: float) -> float:
    """PV int_0^inf f(w) / (w^2 - W^2) dw as an ordinary integral.

    PV int_0^inf dw / (w^2 - W^2) vanishes, so subtracting f(W) removes
    the pole without changing the value.
    """

    def regular(w):
        return (f(w) - f(w0)) / (w * w - w0 * w0)

    pieces = ((0.0, w0), (w0, 2.0 * w0), (2.0 * w0, np.inf))
    return sum(
        quad(regular, a, b, limit=200, epsabs=0.0, epsrel=1e-12)[0] for a, b in pieces
    )


# at T = 0.05, 1 + cutoff / 2 pi T is past 10, so psi takes the series with
# no recurrence step; W = 8 is W = cutoff, where the T = 0 value is exactly
# 0, and W = 40 is W >> cutoff
@pytest.mark.parametrize("temperature", [0.0, 0.05, 0.5, 2.0, 6.0, 200.0])
@pytest.mark.parametrize("frequency", [0.3, 1.5, 5.0, 8.0, 40.0])
def test_principal_value_coefficients_match_subtracted_pole(temperature, frequency):
    def thermal(w):
        if temperature == 0.0:
            return DENSITY(w)
        return DENSITY(w) / np.tanh(w / (2.0 * temperature))

    pv = _subtracted_pole(thermal, frequency)
    two_level = spin_boson_coefficients(DENSITY, temperature, frequency)
    assert two_level.renormalization == pytest.approx(-frequency * pv, rel=1e-8)
    oscillator = qbm_coefficients(DENSITY, temperature, frequency)
    assert oscillator.anomalous_diffusion == pytest.approx(pv / MASS, rel=1e-8)


def test_digamma_matches_scipy_psi():
    # Re z from 1 up, so both the recurrence and the series are exercised
    re = np.geomspace(1.0, 1e15, 61)
    im = np.concatenate([[0.0], np.geomspace(1e-3, 1e300, 121)])
    z = re[:, None] + 1j * im[None, :]
    expected = psi(z)
    assert np.all(np.abs(_digamma(z) - expected) <= 1e-13 * np.abs(expected))


def test_zero_temperature_two_level_coefficients_are_finite():
    coeffs = spin_boson_coefficients(DENSITY, 0.0, 1.0)
    values = [coeffs.dephasing, coeffs.renormalization, coeffs.decay]
    assert np.all(np.isfinite(values))
    # coth -> 1 at T = 0, so dephasing and decay coincide
    assert coeffs.dephasing == pytest.approx(0.5 * np.pi * DENSITY(1.0), rel=1e-14)
    assert coeffs.decay == pytest.approx(0.5 * np.pi * DENSITY(1.0), rel=1e-14)


def test_high_temperature_limits():
    omega = 0.5
    coeffs = qbm_coefficients(DENSITY, 200.0, omega)
    assert coeffs.normal_diffusion == pytest.approx(2 * MASS * GAMMA0 * 200.0, rel=5e-3)
    assert coeffs.damping == pytest.approx(GAMMA0, rel=5e-3)


def test_sampled_density_interpolation():
    grid = np.array([0.0, 1.0, 2.0])
    dens = SampledSpectralDensity(grid, np.array([0.0, 2.0, 0.0]))
    assert dens(0.5) == pytest.approx(1.0)
    assert dens(3.0) == 0.0
    assert dens.zero_frequency_slope() == pytest.approx(2.0)


def test_sampled_density_validation():
    with pytest.raises(ValueError):
        SampledSpectralDensity(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        SampledSpectralDensity(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
