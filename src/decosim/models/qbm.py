"""High-temperature quantum Brownian motion of a single particle.

Two representations of the same master equation

    drho/dt = -i[H', rho] - i gamma0 [x, {p, rho}] - 2 M gamma0 T [x, [x, rho]]

with H' = p^2/2M + M(W^2 - 2 gamma0 Lambda) x^2 / 2, each compiled once,
by one routine, to the (G, pairs) form of ``decosim.dynamics`` and
propagated by its ``evolve``: a truncated oscillator number basis for
bound motion (with an optional pure-decoherence variant that drops the
dissipative term and is then of Lindblad form), and a uniform position
grid with a spectral momentum operator for the free particle.

Also provides the Wigner transform W(x, p) = (1/pi) int dy rho(x + y, x - y)
e^{-2 i p y} of grid and number-basis states, summed over y by one FFT, on
position grids that meet the one rule of ``collisional.uniform_positions``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import DensityMatrix, StateVector, basis_state, frozen, ket, symmetrize
from ..dynamics import evolve
from ..errors import GridResolutionError, PhysicalityError
from .collisional import GridState, uniform_positions

WIGNER_NORM_TOL = 1e-6
MIN_N_MAX = 4
TRUNCATION_TAIL_STATES = 5


def ladder(n_max: int) -> np.ndarray:
    """Annihilation operator on the lowest n_max number states."""
    return np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), 1).astype(complex)


def position_momentum(n_max: int, mass: float, frequency: float) -> tuple[np.ndarray, np.ndarray]:
    a = ladder(n_max)
    # the zero-point widths (2 M W)^(-1/2) and (M W / 2)^(1/2): where one is 0
    # or inf, x or p holds only zeros, or nan where inf meets a zero entry
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        x_width = np.sqrt(1.0 / (2.0 * np.float64(mass) * frequency))
        p_width = np.sqrt(np.float64(mass) * frequency / 2.0)
    if not (0.0 < x_width < np.inf and 0.0 < p_width < np.inf):
        raise ValueError(
            f"zero-point widths of mass {mass!r} and frequency {frequency!r} "
            "must be finite and nonzero"
        )
    x = x_width * (a + a.conj().T)
    p = 1j * p_width * (a.conj().T - a)
    return x, p


def _check_parameters(mass: float, gamma0: float, temperature: float, **positive: float) -> None:
    """The checks both representations share: every parameter finite, mass > 0,
    gamma0 >= 0, temperature >= 0, and each of ``positive`` > 0."""
    params = dict(mass=mass, gamma0=gamma0, temperature=temperature, **positive)
    if not np.all(np.isfinite(list(params.values()))):
        raise ValueError(f"parameters must be finite, got {params}")
    if any(value <= 0 for value in (mass, *positive.values())) or min(gamma0, temperature) < 0:
        names = ", ".join(f"{name} > 0" for name in ("mass", *positive))
        raise ValueError(f"need {names}, gamma0 >= 0, temperature >= 0, got {params}")


def _compile(gen, x: np.ndarray, p: np.ndarray, h_eff: np.ndarray, damped: bool) -> None:
    """Set ``x``, ``p``, ``h_eff`` and the compiled form of the master equation on ``gen``.

    G = -iH' - D x^2 - i gamma0 x p with the one pair (x, D x - i gamma0 p),
    D = ``gen.diffusion``; without damping both gamma0 terms drop.
    """
    # parameters near the double range overflow the compiled form to
    # inf or nan entries, which evolve reports as one numerical-contract error
    with np.errstate(over="ignore", invalid="ignore"):
        g = -1j * h_eff - gen.diffusion * (x @ x)
        b = gen.diffusion * x
        if damped:
            g -= 1j * gen.gamma0 * (x @ p)
            b -= 1j * gen.gamma0 * p
    object.__setattr__(gen, "x", x)
    object.__setattr__(gen, "p", p)
    object.__setattr__(gen, "h_eff", h_eff)
    object.__setattr__(gen, "compiled", (g, ((x, b),)))


@dataclass(frozen=True)
class CaldeiraLeggettGenerator:
    """Number-basis master-equation generator for a damped oscillator.

    ``pure_decoherence`` drops -i gamma0 [x, {p, rho}]; what remains is a
    double-commutator dissipator (Lindblad form, tight positivity
    tolerance).  The full equation is not of Lindblad form and tolerates
    small transient negativity, reflected in a looser tolerance.
    Compiled form, with D the momentum diffusion:
      G = -iH' - D x^2 - i gamma0 x p,  one pair (x, D x - i gamma0 p);
    the pure-decoherence variant drops both gamma0 terms.
    """

    mass: float
    frequency: float
    gamma0: float
    cutoff: float
    temperature: float
    n_max: int = 60
    pure_decoherence: bool = False
    x: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)
    h_eff: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_max < MIN_N_MAX:
            raise ValueError(f"n_max must be at least {MIN_N_MAX}, got {self.n_max}")
        _check_parameters(self.mass, self.gamma0, self.temperature,
                          frequency=self.frequency, cutoff=self.cutoff)
        # past the double range a float product is inf, where ** raises OverflowError
        frequency_sq = self.frequency * self.frequency
        if frequency_sq == np.inf:
            raise ValueError(f"frequency^2 overflows a double, got frequency {self.frequency}")
        x, p = position_momentum(self.n_max, self.mass, self.frequency)
        shifted_sq = frequency_sq - 2.0 * self.gamma0 * self.cutoff
        with np.errstate(over="ignore", invalid="ignore"):
            h_eff = p @ p / (2.0 * self.mass) + 0.5 * self.mass * shifted_sq * (x @ x)
        _compile(self, x, p, h_eff, damped=not self.pure_decoherence)

    @property
    def dim(self) -> int:
        return self.n_max

    @property
    def positivity_tol(self) -> float:
        """Eigenvalue floor of the snapshots: 1e-6 in Lindblad form, else 1e-3."""
        return 1e-6 if self.pure_decoherence else 1e-3

    @property
    def diffusion(self) -> float:
        """D = 2 M gamma0 T, the momentum-diffusion coefficient."""
        return 2.0 * self.mass * self.gamma0 * self.temperature


def caldeira_leggett_generator(
    mass: float,
    frequency: float,
    gamma0: float,
    cutoff: float,
    temperature: float,
    n_max: int = 60,
    pure_decoherence: bool = False,
) -> CaldeiraLeggettGenerator:
    return CaldeiraLeggettGenerator(
        mass, frequency, gamma0, cutoff, temperature, n_max, pure_decoherence
    )


def truncation_tail(rho: np.ndarray) -> float | np.ndarray:
    """Population in the top ``TRUNCATION_TAIL_STATES`` (5) number states; certifies truncation.

    A float for one matrix, an array of one value per matrix for a (T, d, d) stack.
    """
    diag = np.real(np.diagonal(np.asarray(rho), axis1=-2, axis2=-1))
    tail = diag[..., -TRUNCATION_TAIL_STATES:].sum(axis=-1)
    return float(tail) if tail.ndim == 0 else tail


def coherent_state(alpha: complex, n_max: int) -> StateVector:
    """Truncated coherent state; renormalized, so keep |alpha|^2 well under n_max.

    A mean number |alpha|^2 of n_max or more does not fit the truncation
    at all and raises ValueError.
    """
    if not abs(alpha) < math.sqrt(n_max):  # also catches a nan alpha
        raise ValueError(
            f"|alpha| = {abs(alpha)!r} must stay below sqrt(n_max) = {math.sqrt(n_max)!r}: "
            "the truncation cannot hold a mean number |alpha|^2 >= n_max"
        )
    if alpha == 0:  # the vacuum; log 0 would make the n = 0 term 0 * (-inf)
        return basis_state(n_max, 0)
    n = np.arange(n_max)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_max)))])
    amps = np.exp(n * np.log(complex(alpha)) - 0.5 * log_fact - 0.5 * abs(alpha) ** 2)
    return ket(amps)


def cat_state(alpha: complex, n_max: int) -> StateVector:
    """Even superposition of +alpha and -alpha coherent states."""
    plus = coherent_state(alpha, n_max).amplitudes
    minus = coherent_state(-alpha, n_max).amplitudes
    return ket(plus + minus)


# --- free particle on a position grid ------------------------------------

@dataclass(frozen=True)
class FreeParticleGenerator:
    """Grid master-equation generator for a free particle: the oscillator's equation, no potential.

    x = diag(positions), p is the spectral (FFT) momentum and H' = p^2/2M;
    the compiled form is the oscillator's, G = -iH' - D x^2 - i gamma0 x p
    with one pair (x, D x - i gamma0 p).  The equation is not of Lindblad
    form, hence the loose positivity tolerance.
    """

    positivity_tol = 1e-3  # eigenvalue floor of the snapshots; a class constant, not a field

    positions: np.ndarray
    mass: float
    gamma0: float
    temperature: float
    x: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)
    h_eff: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = uniform_positions(self.positions, min_points=8)
        h = x[1] - x[0]
        _check_parameters(self.mass, self.gamma0, self.temperature)
        n = x.size
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        f = np.fft.fft(np.eye(n), axis=0)
        p = np.conj(f.T) / n @ (k[:, None] * f)
        with np.errstate(over="ignore", invalid="ignore"):
            h_eff = p @ p / (2.0 * self.mass)
        object.__setattr__(self, "positions", frozen(x, self.positions))
        _compile(self, np.diag(x).astype(complex), p, h_eff, damped=True)

    @property
    def dim(self) -> int:
        return self.positions.size

    @property
    def diffusion(self) -> float:
        """D = 2 M gamma0 T, the momentum-diffusion coefficient."""
        return 2.0 * self.mass * self.gamma0 * self.temperature


def free_particle_generator(
    positions: np.ndarray, mass: float, gamma0: float, temperature: float
) -> FreeParticleGenerator:
    return FreeParticleGenerator(positions, mass, gamma0, temperature)


def evolve_free_particle(
    gen: FreeParticleGenerator,
    state: GridState,
    t_final: float,
    dt: float,
    store_every: int = 10,
) -> tuple[np.ndarray, list[GridState]]:
    """Propagate a grid state with ``decosim.dynamics.evolve``; snapshots and checks as there.

    The Hermitian part of the grid matrix, divided by its trace, enters as
    the unit-trace density matrix spacing rho / trace(spacing rho); the
    frames are scaled back, so a grid trace within ``GridState``'s
    tolerance of 1 is carried unchanged.  Frame 0 is ``state`` itself.
    """
    if not np.array_equal(state.positions, gen.positions):
        raise ValueError("state grid does not match the generator grid")
    rho = symmetrize(state.matrix)
    norm = np.real(np.trace(rho))
    res = evolve(gen, DensityMatrix(rho / norm), t_final, dt, store_every)
    frames = [state] + [GridState(gen.positions, s * norm) for s in res.states[1:]]
    return res.times, frames


def position_moments(state: GridState) -> tuple[float, float]:
    """(mean, variance) of position under the grid density matrix."""
    x = state.positions
    prob = np.real(np.diag(state.matrix)) * state.spacing
    mean = float(x @ prob)
    var = float(((x - mean) ** 2) @ prob)
    return mean, var


# --- Wigner transform -----------------------------------------------------

@dataclass(frozen=True)
class WignerGrid:
    """Wigner function samples on an (x, p) rectangle; integrates to 1 within 1e-6."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        w = np.asarray(self.values, dtype=float)
        if w.shape != (x.size, p.size):
            raise ValueError(f"values shape {w.shape} does not match grids {(x.size, p.size)}")
        total = float(w.sum() * (x[1] - x[0]) * (p[1] - p[0]))
        if abs(total - 1.0) > WIGNER_NORM_TOL:
            raise PhysicalityError(
                f"Wigner normalization {total!r} deviates from 1 beyond {WIGNER_NORM_TOL}"
            )
        for name, arr in (("x", x), ("p", p), ("values", w)):
            object.__setattr__(self, name, frozen(arr, getattr(self, name)))

    def negativity_volume(self) -> float:
        dx = float(self.x[1] - self.x[0])
        dp = float(self.p[1] - self.p[0])
        return float(np.abs(self.values[self.values < 0.0]).sum() * dx * dp)


def wigner_transform(state: GridState, boundary_tol: float = 1e-3) -> WignerGrid:
    """Discrete Wigner transform of a grid density matrix.

    The momentum grid spans the Nyquist interval [-pi/2h, pi/2h) of the
    half-coordinate y; weight within 2 rows of the momentum boundary
    above ``boundary_tol`` of the peak raises GridResolutionError.

    The offsets y = +-j h pair up through H = rho + rho^dag:
    Re W(x_i, p) = (h/pi) sum_{j >= 0} c_j Re(H[i+j, i-j] e^{-2i y_j p}),
    c_0 = 1/2 and c_j = 1 otherwise, for any matrix, Hermitian or not.
    As 2 y_j p_k = -j pi + 2 pi j k/n, the sum is one length-n ``np.fft.fft``
    of (-1)^j c_j H[i+j, i-j], zero-padded from the (n + 1)/2 offsets j.
    """
    x = state.positions
    n = x.size
    h = state.spacing
    rho = state.matrix
    herm = rho + rho.conj().T
    idx = np.arange(n)[:, None]
    offsets = np.arange((n + 1) // 2)  # j <= min(i, n - 1 - i) < (n + 1) / 2
    inside = offsets <= np.minimum(idx, n - 1 - idx)
    gathered = np.where(inside, herm[np.minimum(idx + offsets, n - 1), np.abs(idx - offsets)], 0.0)
    gathered[:, 0] *= 0.5
    gathered[:, 1::2] *= -1.0  # the (-1)^j of e^{-2i y_j p_k}
    p_grid = -np.pi / (2.0 * h) + np.pi / (h * n) * np.arange(n)
    w = np.fft.fft(gathered, n, axis=1).real * (h / np.pi)
    peak = np.abs(w).max()
    edge = np.abs(w[:, [0, 1, -2, -1]]).max()
    if peak > 0 and edge > boundary_tol * peak:
        raise GridResolutionError(
            "momentum content reaches the Nyquist boundary "
            f"(edge/peak = {edge / peak:.2e}); refine the position grid"
        )
    return WignerGrid(x, p_grid, w)


def hermite_functions(n_max: int, xi: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions phi_n(xi), unit frequency and mass."""
    out = np.zeros((n_max, xi.size))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * xi**2)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for n in range(2, n_max):
        out[n] = np.sqrt(2.0 / n) * xi * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def wigner_positions(positions, mass: float, frequency: float) -> np.ndarray:
    """``positions`` as a window for ``wigner_from_fock``: a grid that meets
    ``uniform_positions`` and whose |x| sqrt(M w) squares to a finite double."""
    x = uniform_positions(positions)
    # Python floats overflow to inf quietly
    xi_max = float(np.abs(x).max()) * float(np.sqrt(mass * frequency))
    if not math.isfinite(xi_max * xi_max):
        raise ValueError(f"the position grid reaches |x| sqrt(M w) = {xi_max!r}, whose square "
                         "overflows a double in the oscillator functions")
    return x


def wigner_from_fock(
    rho: np.ndarray, mass: float, frequency: float, positions: np.ndarray
) -> WignerGrid:
    """Wigner transform of a number-basis density matrix via a position grid."""
    rho = np.asarray(rho, dtype=complex)
    n_max = rho.shape[0]
    x = wigner_positions(positions, mass, frequency)
    scale = np.sqrt(mass * frequency)
    phi = hermite_functions(n_max, scale * x) * np.sqrt(scale)
    rho_x = phi.T @ rho @ np.conj(phi)
    trace = float(np.real(np.trace(rho_x)) * (x[1] - x[0]))
    if abs(trace - 1.0) > 1e-6:
        raise GridResolutionError(
            f"position grid captures trace {trace!r}; widen or refine the grid"
        )
    state = GridState(x, symmetrize(rho_x) / trace)
    return wigner_transform(state)
