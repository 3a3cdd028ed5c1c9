"""Collisional (scattering-induced) spatial decoherence.

A gas of incoming particles with momentum distribution rho(q), speed
v(q), and isotropic differential cross section |f(q)|^2 suppresses
position-space coherences pointwise:

    rho(x, x', t) = rho(x, x', 0) exp(-F(x - x') t)

with the localization rate

    F(dx) = int dq rho(q) v(q) int dn dn'/4pi (1 - e^{i q (n - n') . dx}) |f(q)|^2.

F vanishes at dx = 0, grows like Lambda dx^2 for separations small
against the dominant wavelength, and saturates at the total scattering
rate Gamma_tot once single collisions resolve the separation.

For a beam with constant rho, v and |f|^2 on (0, q_max) the q-integral
closes in the sine integral (``uniform_beam_localization_rates``); the
callable ``ScatteringModel`` path integrates numerically and serves
momentum-dependent models.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import frozen, hermiticity_defect
from ..errors import PhysicalityError

GRID_TRACE_TOL = 1e-8
REGIMES = ("full", "short-wavelength", "long-wavelength")
# below this U = q_max dx the sine-integral form cancels; a Taylor series takes over
SERIES_BELOW = 1e-2


@dataclass(frozen=True)
class ScatteringModel:
    """Environment monochromatic-beam data, all functions of momentum q > 0.

    density_of_momenta: number density per momentum interval (1/(length^3 * momentum))
    speed:              particle speed at momentum q (length/time)
    cross_section:      |f(q)|^2, isotropic (area/steradian)
    q_max:              upper limit of the momentum support used in quadrature
    regime:             'full', 'short-wavelength', or 'long-wavelength'
    """

    density_of_momenta: Callable[[float], float]
    speed: Callable[[float], float]
    cross_section: Callable[[float], float]
    q_max: float
    regime: str = "full"

    def __post_init__(self):
        if self.q_max <= 0:
            raise ValueError("q_max must be positive")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")


def total_scattering_rate(model: ScatteringModel) -> float:
    """Gamma_tot = int dq rho(q) v(q) sigma_tot(q) with sigma_tot = 4 pi |f|^2."""
    from scipy.integrate import quad

    value, _ = quad(
        lambda q: model.density_of_momenta(q) * model.speed(q) * 4.0 * np.pi * model.cross_section(q),
        0.0,
        model.q_max,
        limit=200,
    )
    return float(value)


def localization_prefactor(model: ScatteringModel) -> float:
    """Lambda = (4 pi / 3) int dq rho(q) v(q) q^2 |f(q)|^2, the small-separation curvature."""
    from scipy.integrate import quad

    value, _ = quad(
        lambda q: model.density_of_momenta(q)
        * model.speed(q)
        * q**2
        * 4.0
        * np.pi
        / 3.0
        * model.cross_section(q),
        0.0,
        model.q_max,
        limit=200,
    )
    return float(value)


def _angular_factor(u: float) -> float:
    """int dc dc' (1 - cos(u (c - c'))) over [-1,1]^2 = 4 (1 - sinc^2 u).

    Multiplied by pi |f|^2 this is the angular average of the collision
    integrand for an isotropic cross section (azimuth already integrated).
    """
    return 4.0 * (1.0 - float(np.sinc(u / np.pi)) ** 2)


def localization_rate(model: ScatteringModel, separation: float) -> float:
    """Decoherence rate F at a given position-space separation (1/time).

    Dispatches on the model regime: the full angular quadrature, the
    saturated short-wavelength limit Gamma_tot, or the quadratic
    long-wavelength law Lambda * separation^2.
    """
    dx = abs(float(separation))
    if dx == 0.0:
        return 0.0
    if model.regime == "short-wavelength":
        return total_scattering_rate(model)
    if model.regime == "long-wavelength":
        return localization_prefactor(model) * dx**2

    from scipy.integrate import quad

    def integrand(q: float) -> float:
        return (
            model.density_of_momenta(q)
            * model.speed(q)
            * np.pi
            * model.cross_section(q)
            * _angular_factor(q * dx)
        )

    # default tolerances miss the oscillating 1 - sinc^2 by up to 3e-7 above q_max dx ~ 1e2
    value, _ = quad(integrand, 0.0, model.q_max, limit=400, epsabs=0.0, epsrel=1e-10)
    return float(value)


@dataclass(frozen=True)
class DecoherenceRates:
    """Summary rates for one scattering environment."""

    total_rate: float  # Gamma_tot, 1/time
    prefactor: float  # Lambda, 1/(time * length^2)

    def coherence_time(self, separation: float) -> float:
        """1 / F(dx) in the long-wavelength law; inf at zero separation."""
        if separation == 0.0:
            return np.inf
        return 1.0 / (self.prefactor * separation**2)


def decoherence_rates(model: ScatteringModel) -> DecoherenceRates:
    return DecoherenceRates(total_scattering_rate(model), localization_prefactor(model))


def uniform_beam_rates(
    density: float, speed: float, cross_section: float, q_max: float
) -> DecoherenceRates:
    """Gamma_tot = 4 pi rho v |f|^2 q_max and Lambda = Gamma_tot q_max^2 / 9.

    Closed forms of ``decoherence_rates`` for constant rho, v and |f|^2 on (0, q_max).
    """
    if q_max <= 0:
        raise ValueError("q_max must be positive")
    if not min(density, speed, cross_section) >= 0:  # also catches NaN
        raise ValueError("need density, speed and cross-section >= 0")
    total = 4.0 * np.pi * density * speed * cross_section * q_max
    prefactor = total * q_max * q_max / 9.0
    if not (np.isfinite(total) and np.isfinite(prefactor)):
        raise ValueError("Gamma_tot or Lambda overflows a double")
    return DecoherenceRates(total, prefactor)


def _sine_integral(x: np.ndarray) -> np.ndarray:
    """Si(x) = int_0^x sin(s)/s ds for an array of x > 0, to a few ulps.

    Below x = 4 the power series sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!),
    whose 20 terms reach 4^39 / 39! < 1e-23.  From 4 on Si = pi/2 + Im E_1(ix),
    with E_1(ix) = e^(-ix) / (1 + ix - 1^2 / (3 + ix - 2^2 / (5 + ix - ...)))
    (Abramowitz & Stegun 5.1.22) evaluated by the modified Lentz method
    (Numerical Recipes 6.9) until a step changes it by under 2^-52: 48
    partial denominators at x = 4, 4 at x = 800.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x < 4.0
    xs = x[low]
    term = xs.copy()
    total = xs.copy()
    for k in range(1, 20):
        term *= -xs * xs / ((2 * k) * (2 * k + 1))
        total += term / (2 * k + 1)
    out[low] = total
    xs = x[~low]
    b = 1.0 + 1j * xs
    c = np.full_like(b, 1e300)  # Lentz's C starts infinite; 1e300 stands in
    d = 1.0 / b
    frac = d.copy()
    done = np.zeros(xs.shape, dtype=bool)
    for n in range(1, 100):  # converged by n = 47 on x >= 4
        if done.all():
            break
        b += 2.0
        d = 1.0 / (b - n * n * d)
        c = b - n * n / c
        delta = c * d
        frac = np.where(done, frac, frac * delta)
        done |= np.abs(delta - 1.0) < 2.0**-52
    out[~low] = 0.5 * np.pi + (np.exp(-1j * xs) * frac).imag
    return out


def _saturation_fraction(u: np.ndarray) -> np.ndarray:
    """g(U) / U with g(U) = int_0^U (1 - sinc^2 s) ds = U - Si(2U) + sin^2(U) / U.

    Rises from 0 like U^2 / 9 to 1; below ``SERIES_BELOW`` the series
    U^2/9 - 2U^4/225 + U^6/2205 replaces the cancelling closed form.
    """
    small = u < SERIES_BELOW
    big = np.where(small, 1.0, u)
    si = _sine_integral(2.0 * big)
    closed = 1.0 - si / big + (np.sin(big) / big) ** 2
    u2 = u * u
    series = u2 * (1.0 / 9.0 - u2 * (2.0 / 225.0 - u2 / 2205.0))
    return np.where(small, series, closed)


def uniform_beam_localization_rates(
    density: float,
    speed: float,
    cross_section: float,
    q_max: float,
    separations,
    regime: str = "full",
) -> np.ndarray:
    """F(dx) for constant rho, v and |f|^2 on (0, q_max), one value per separation.

    F = Gamma_tot g(U) / U with U = q_max |dx| in the full regime, and the
    same limits as ``localization_rate`` in the other two.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    rates = uniform_beam_rates(density, speed, cross_section, q_max)
    dx = np.abs(np.asarray(separations, dtype=float))
    if regime == "short-wavelength":
        return np.where(dx == 0.0, 0.0, rates.total_rate)
    if regime == "long-wavelength":
        return rates.prefactor * dx**2
    # the fraction is 1 to double precision from U = 1e20 on; the cap keeps U finite
    return rates.total_rate * _saturation_fraction(q_max * np.minimum(dx, 1e20 / q_max))


def uniform_positions(positions, min_points: int = 2) -> np.ndarray:
    """``positions`` as floats, after the one rule of every position grid: at least
    ``min_points`` finite, increasing points on one axis, whose steps spread by at
    most 1e-9 of their mean.  The test says what must hold, so NaN fails it."""
    x = np.asarray(positions, dtype=float)
    if x.ndim != 1 or x.size < min_points:
        raise ValueError(f"need a 1-d position grid with at least {min_points} points, "
                         f"got shape {x.shape}")
    steps = np.diff(x)
    if not (np.isfinite(x).all() and steps.min() > 0 and np.ptp(steps) <= 1e-9 * steps.mean()):
        raise ValueError("the position grid must be finite, increasing and uniform")
    return x


@dataclass(frozen=True)
class GridState:
    """Position-space density matrix sampled on a uniform grid.

    Normalization is sum(diag) * spacing = 1 within 1e-8; hermiticity
    within 1e-10 of the matrix entries.
    """

    positions: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        x = uniform_positions(self.positions)
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (x.size, x.size):
            raise ValueError(f"matrix shape {rho.shape} does not match grid size {x.size}")
        if hermiticity_defect(rho) > 1e-10:
            raise PhysicalityError("grid density matrix is not Hermitian within 1e-10")
        trace = float(np.real(np.sum(np.diag(rho))) * np.diff(x).mean())
        if abs(trace - 1.0) > GRID_TRACE_TOL:
            raise PhysicalityError(f"grid trace {trace!r} deviates from 1 beyond {GRID_TRACE_TOL}")
        object.__setattr__(self, "positions", frozen(x, self.positions))
        object.__setattr__(self, "matrix", frozen(rho, self.matrix))

    @property
    def spacing(self) -> float:
        return float(self.positions[1] - self.positions[0])


def separation_rates(model: ScatteringModel, state: GridState) -> np.ndarray:
    """F(k * spacing) for k = 0 .. n-1, one value per distinct grid separation."""
    n = state.positions.size
    return np.array([localization_rate(model, k * state.spacing) for k in range(n)])


def evolve_collisional(
    state: GridState,
    model: ScatteringModel,
    t: float,
    rates: np.ndarray | None = None,
) -> GridState:
    """Pointwise exponential suppression of off-diagonal coherences.

    The diagonal is untouched (F(0) = 0); precomputed per-separation
    ``rates`` can be passed to amortize the quadrature across times.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if rates is None:
        rates = separation_rates(model, state)
    n = state.positions.size
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    decay = np.exp(-np.asarray(rates)[idx] * t)
    return GridState(state.positions, state.matrix * decay)


def two_gaussian_superposition(
    positions: np.ndarray, separation: float, sigma: float
) -> GridState:
    """Symmetric coherent superposition of two Gaussian packets, grid normalized."""
    x = np.asarray(positions, dtype=float)
    psi = np.exp(-((x - 0.5 * separation) ** 2) / (4.0 * sigma**2)) + np.exp(
        -((x + 0.5 * separation) ** 2) / (4.0 * sigma**2)
    )
    spacing = x[1] - x[0]
    psi = psi.astype(complex)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * spacing)
    return GridState(x, np.outer(psi, psi.conj()))
