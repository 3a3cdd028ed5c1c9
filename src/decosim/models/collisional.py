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

``ScatteringModel`` is a beam with constant rho, v and |f|^2 on
(0, q_max); for it the q-integral closes in the sine integral, which
``localization_rate`` evaluates for a whole array of separations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import frozen, hermiticity_defect
from ..errors import PhysicalityError

GRID_TRACE_TOL = 1e-8
# below this U = q_max dx the sine-integral form cancels; a Taylor series takes over
SERIES_BELOW = 1e-2


@dataclass(frozen=True)
class ScatteringModel:
    """A monochromatic beam with constant data on the momentum support (0, q_max).

    density_of_momenta: number density per momentum interval (1/(length^3 * momentum))
    speed:              particle speed (length/time)
    cross_section:      |f|^2, isotropic (area/steradian)
    q_max:              upper limit of the momentum support
    """

    density_of_momenta: float
    speed: float
    cross_section: float
    q_max: float

    def __post_init__(self):
        if not self.q_max > 0:
            raise ValueError("q_max must be positive")
        # each tested on its own, so a NaN fails wherever it sits
        if not all(x >= 0 for x in (self.density_of_momenta, self.speed, self.cross_section)):
            raise ValueError("need density, speed and cross-section >= 0")
        rates = decoherence_rates(self)
        if not (np.isfinite(rates.total_rate) and np.isfinite(rates.prefactor)):
            raise ValueError("Gamma_tot or Lambda overflows a double")


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
    """Gamma_tot = 4 pi rho v |f|^2 q_max and Lambda = Gamma_tot q_max^2 / 9."""
    q_max = model.q_max
    total = 4.0 * np.pi * model.density_of_momenta * model.speed * model.cross_section * q_max
    return DecoherenceRates(total, total * q_max * q_max / 9.0)


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


def localization_rate(model: ScatteringModel, separations) -> np.ndarray:
    """F(dx) = Gamma_tot g(U) / U with U = q_max |dx| (1/time), one value per separation.

    Its two limits, Lambda dx^2 and Gamma_tot, are ``decoherence_rates``.
    """
    rates = decoherence_rates(model)
    dx = np.abs(np.asarray(separations, dtype=float))
    # the fraction is 1 to double precision from U = 1e20 on; the cap keeps U finite
    q_max = model.q_max
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
        if not hermiticity_defect(rho) <= 1e-10:  # also catches NaN
            raise PhysicalityError("grid density matrix is not Hermitian within 1e-10")
        trace = float(np.real(np.sum(np.diag(rho))) * np.diff(x).mean())
        if not abs(trace - 1.0) <= GRID_TRACE_TOL:
            raise PhysicalityError(f"grid trace {trace!r} deviates from 1 beyond {GRID_TRACE_TOL}")
        object.__setattr__(self, "positions", frozen(x, self.positions))
        object.__setattr__(self, "matrix", frozen(rho, self.matrix))

    @property
    def spacing(self) -> float:
        return float(self.positions[1] - self.positions[0])


def evolve_collisional(state: GridState, model: ScatteringModel, t: float) -> GridState:
    """Pointwise exponential suppression of off-diagonal coherences.

    One rate per grid separation k * spacing; the diagonal is untouched (F(0) = 0).
    """
    if not 0 <= t < np.inf:  # also catches NaN
        raise ValueError("time must be nonnegative and finite")
    n = state.positions.size
    rates = localization_rate(model, np.arange(n) * state.spacing)
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    decay = np.exp(-rates[idx] * t)
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
