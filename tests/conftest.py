from dataclasses import dataclass

import numpy as np
import pytest

from decosim import DensityMatrix, Operator, StateVector


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    probs = rng.dirichlet(np.ones(rank))
    u = random_unitary(rng, dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for k in range(rank):
        v = u[:, k]
        mat += probs[k] * np.outer(v, v.conj())
    return 0.5 * (mat + mat.conj().T)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


def as_state(vec) -> StateVector:
    return StateVector(np.asarray(vec, dtype=complex) / np.linalg.norm(vec))


def as_density(mat, dims=()) -> DensityMatrix:
    return DensityMatrix(mat, dims)


def as_operator(mat, dims=()) -> Operator:
    return Operator(mat, dims)


def compiled_rhs(compiled, rho: np.ndarray) -> np.ndarray:
    """K + K^dag with K = G rho + sum (A rho) B, for ``compiled`` = (G, pairs) and Hermitian rho."""
    g, pairs = compiled
    k = g @ rho
    for a, b in pairs:
        k += (a @ rho) @ b
    return k + k.conj().T


@dataclass(frozen=True)
class SampledSpectralDensity:
    """Nonnegative samples on an increasing frequency grid, linear in between, zero outside.

    A test-side density for single-mode and spike baths: it offers the
    call that the spin-boson mode discretization reads.  The spin-boson
    solver's default window needs a Drude cutoff, so calls with this
    density pass ``omega_max``, such as ``default_omega_max``.
    """

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        j = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.size < 2 or j.shape != w.shape:
            raise ValueError("need matching 1-d omega and value arrays with >= 2 samples")
        if np.any(np.diff(w) <= 0) or w[0] < 0:
            raise ValueError("frequency grid must be strictly increasing and nonnegative")
        if np.any(j < 0):
            raise ValueError("spectral density must be nonnegative")
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "values", j)

    def __call__(self, omega):
        return np.interp(
            np.asarray(omega, dtype=float), self.omegas, self.values, left=0.0, right=0.0
        )

    def zero_frequency_slope(self) -> float:
        w, j = self.omegas, self.values
        k = 1 if w[0] == 0.0 else 0
        return float(j[k] / w[k]) if w[k] > 0 else 0.0

    def default_omega_max(self) -> float:
        return float(self.omegas[-1])


def angular_factor(u: float) -> float:
    """int dc dc' (1 - cos(u (c - c'))) over [-1,1]^2 = 4 (1 - sinc^2 u).

    Multiplied by pi |f|^2 this is the angular average of the collision
    integrand for an isotropic cross section (azimuth already integrated).
    """
    return 4.0 * (1.0 - float(np.sinc(u / np.pi)) ** 2)


def quad_rates(model) -> tuple[float, float]:
    """Gamma_tot = int dq rho v 4 pi |f|^2 and Lambda = (4 pi / 3) int dq rho v q^2 |f|^2
    of a ``ScatteringModel`` by quadrature: the oracle of ``decoherence_rates``."""
    from scipy.integrate import quad

    flux = model.density_of_momenta * model.speed * model.cross_section
    total, _ = quad(lambda q: flux * 4.0 * np.pi, 0.0, model.q_max, limit=200)
    prefactor, _ = quad(lambda q: flux * q**2 * 4.0 * np.pi / 3.0, 0.0, model.q_max, limit=200)
    return total, prefactor


def quad_localization_rate(model, separation: float) -> float:
    """F at one separation by quadrature of the scattering integral over q: the
    oracle of ``localization_rate``."""
    from scipy.integrate import quad

    dx = abs(float(separation))
    if dx == 0.0:
        return 0.0
    flux = model.density_of_momenta * model.speed * model.cross_section
    # default tolerances miss the oscillating 1 - sinc^2 by up to 3e-7 above q_max dx ~ 1e2
    value, _ = quad(lambda q: flux * np.pi * angular_factor(q * dx), 0.0, model.q_max,
                    limit=400, epsabs=0.0, epsrel=1e-10)
    return value
