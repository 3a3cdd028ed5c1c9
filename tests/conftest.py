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


@dataclass(frozen=True)
class SampledSpectralDensity:
    """Nonnegative samples on an increasing frequency grid, linear in between, zero outside.

    A test-side density for single-mode and spike baths: it offers the
    call that the spin-boson mode discretization reads, and the call,
    ``zero_frequency_slope`` and ``default_omega_max`` that ``bath_kernels``
    reads.  The spin-boson solver's default window needs a Drude cutoff,
    so calls with this density pass ``omega_max``.
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
