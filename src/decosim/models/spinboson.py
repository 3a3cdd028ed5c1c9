"""Two-level system coupled to a bosonic bath through sigma_z.

Two solvers for the same physics at different trust levels:

* ``spin_boson_exact_dephasing`` discretizes the bath into independent
  modes on a midpoint grid.  With the tunneling term absent the total
  Hamiltonian block-diagonalizes over the two system levels, so the
  reduced coherence factorizes into per-mode factors, each given in
  closed form by the independent-boson result.  The product's exponent
  is summed from two phase tables of about sqrt(M) modes each (see
  ``_coherence_product``), so T times and M modes cost T (n1 + n2) sines
  and cosines plus one (2T, n1) @ (n1, n2) product, and memory grows like
  T sqrt(M), not T M.  A doubled-mode-count rerun certifies
  discretization convergence.

* ``spin_boson_born_markov_generator`` is the weak-coupling master
  equation with dephasing, renormalization, and decay coefficients from
  ``spin_boson_coefficients``.  Its Hamiltonian has an anti-Hermitian
  part, so it is a dedicated generator rather than a Lindblad spec,
  compiled to the (G, pairs) form of ``decosim.dynamics``; the structure
  keeps the trace exactly conserved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..baths import OhmicLorentzCutoff, spin_boson_coefficients
from ..core import SIGMA_X, SIGMA_Y, SIGMA_Z
from ..errors import ConvergenceError

MODE_DOUBLING_TOL = 0.02


@dataclass(frozen=True)
class SpinBosonExactResult:
    times: np.ndarray
    coherence: np.ndarray  # complex rho01(t) / rho01(0)
    population_drift: float  # 0.0: the closed form conserves populations exactly
    doubling_change: float | None


def _mode_parameters(
    density: OhmicLorentzCutoff, omega_max: float, n_modes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint discretization: g_j^2 = J(w_j) dw on a uniform grid."""
    dw = omega_max / n_modes
    omegas = (np.arange(n_modes) + 0.5) * dw
    g_sq = np.asarray(density(omegas), dtype=float) * dw
    return omegas, g_sq


def _coherence_product(
    density: OhmicLorentzCutoff,
    temperature: float,
    times: np.ndarray,
    omega_max: float,
    n_modes: int,
) -> np.ndarray:
    """Independent-boson product over the modes, exp(-sum_j W_j (1 - cos w_j t)).

    W_j = (4 g_j^2 / w_j^2) coth(w_j / 2T), with coth = 1 at T = 0, and
    W_j (1 - cos w_j t) is the exact decay exponent of one displaced mode
    starting thermal.

    The sum is taken from two phase tables, not from a (T, M) cosine
    matrix.  The modes sit on the midpoint grid w_j = (j + 1/2) dw, so
    with j = n2 j1 + j2 (n2 = ceil(sqrt M), n1 = ceil(M / n2), W zero-padded
    to an (n1, n2) matrix) each phase is a + b with a = n2 dw j1 t and
    b = (j2 + 1/2) dw t, and the exact identity
    1 - e^{i(a+b)} = (1 - e^{ia}) + e^{ia} (1 - e^{ib}) gives

        sum_j W_j (1 - cos w_j t) = Re[E(a) @ W.sum(1) + rowsum((e^{ia} @ W) * E(b))],

    E(x) = 1 - e^{ix} = 2 sin^2(x/2) - i sin x.  Sines and cosines run on
    T (n1 + n2) arguments and one real (2T, n1) @ (n1, n2) product does
    the rest, so memory grows like T sqrt(M).  Every term is built from
    sines, so the exponent is exactly 0 at t = 0, and nothing cancels
    against sum W.
    """
    # a tanh(w / 2T) that saturates to 1 as T -> 0 is the T = 0 limit; any
    # other overflow leaves a weight, or 8 times their sum, beyond a double
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omegas, g_sq = _mode_parameters(density, omega_max, n_modes)
        weight = 4.0 * g_sq / omegas**2
        if temperature > 0.0:
            weight /= np.tanh(omegas / (2.0 * temperature))
        if not np.isfinite(8.0 * weight.sum()):  # every partial sum below stays under 5 sum W
            raise ValueError("the bath mode weights overflow a double")
    n2 = math.isqrt(n_modes - 1) + 1
    n1 = -(-n_modes // n2)
    table = np.zeros(n1 * n2)
    table[:n_modes] = weight
    table = table.reshape(n1, n2)
    dw = omega_max / n_modes
    a = np.outer(times, (n2 * dw) * np.arange(n1))
    b = np.outer(times, (np.arange(n2) + 0.5) * dw)
    re, im = np.split(np.concatenate([np.cos(a), np.sin(a)]) @ table, 2)  # e^{ia} @ W
    exponent = 2.0 * np.sin(0.5 * a) ** 2 @ table.sum(1)
    exponent += np.einsum("tk,tk->t", re, 2.0 * np.sin(0.5 * b) ** 2)
    exponent += np.einsum("tk,tk->t", im, np.sin(b))
    return np.exp(-exponent)


def spin_boson_exact_dephasing(
    density: OhmicLorentzCutoff,
    temperature: float,
    times: np.ndarray,
    splitting: float = 0.0,
    n_modes: int = 512,
    omega_max: float | None = None,
    check_convergence: bool = True,
) -> SpinBosonExactResult:
    """Exact reduced coherence of the no-tunneling model on a discretized bath.

    The modes fill (0, omega_max), by default (0, 5 cutoff).  The
    coherence includes the free phase e^{-i splitting t}; populations
    are conserved identically, so the reported drift is 0.0.
    Raises ConvergenceError when doubling the mode count moves the
    coherence by more than 2% anywhere on the time grid.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("need an increasing time grid starting at 0")
    if not 0.0 <= temperature < np.inf:
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature}")
    if n_modes < 1:
        raise ValueError(f"need at least one bath mode, got {n_modes}")
    if omega_max is None:
        omega_max = 5.0 * density.cutoff
    if not np.isfinite(float(omega_max) * float(times[-1])):
        raise ValueError("the phases omega t overflow a double")
    coherence = _coherence_product(density, temperature, times, omega_max, n_modes)
    doubling = None
    if check_convergence:
        refined = _coherence_product(density, temperature, times, omega_max, 2 * n_modes)
        doubling = float(np.abs(refined - coherence).max())
        if doubling > MODE_DOUBLING_TOL:
            raise ConvergenceError(
                f"bath discretization not converged: doubling the mode count moves "
                f"the coherence by {doubling:.3f} (> {MODE_DOUBLING_TOL})"
            )
        coherence = refined
    phase = np.exp(-1j * splitting * times)
    return SpinBosonExactResult(times, coherence * phase, 0.0, doubling)


@dataclass(frozen=True)
class SpinBosonBornMarkovGenerator:
    """Weak-coupling two-level generator with bath-dressed tunneling.

    drho/dt = -i (H' rho - rho H'^dag) - D [sz, [sz, rho]]
              + zeta sz rho sy + conj(zeta) sy rho sz

    with zeta = renormalization + i decay and
    H' = (splitting/2) sz - (tunneling/2 + renormalization) sx + i decay sx,
    compiled to G = -iH' - D 1 with one pair (sz, D sz + zeta sy).
    The anti-Hermitian piece balances the zeta terms so the trace is
    exactly conserved; positivity holds only approximately at weak
    coupling, hence the loose positivity tolerance.
    """

    positivity_tol = 1e-3  # eigenvalue floor of the snapshots; a class constant, not a field

    splitting: float
    tunneling: float
    dephasing: float
    renormalization: float
    decay: float
    h_eff: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = (
            0.5 * self.splitting * SIGMA_Z
            - (0.5 * self.tunneling + self.renormalization) * SIGMA_X
            + 1j * self.decay * SIGMA_X
        )
        g = -1j * h - self.dephasing * np.eye(2)
        pair = (SIGMA_Z, self.dephasing * SIGMA_Z + self.zeta * SIGMA_Y)
        object.__setattr__(self, "h_eff", h)
        object.__setattr__(self, "compiled", (g, (pair,)))

    @property
    def dim(self) -> int:
        return 2

    @property
    def zeta(self) -> complex:
        return complex(self.renormalization, self.decay)


def spin_boson_born_markov_generator(
    density: OhmicLorentzCutoff,
    temperature: float,
    splitting: float,
    tunneling: float,
) -> SpinBosonBornMarkovGenerator:
    """Assemble the weak-coupling generator from the closed-form coefficients."""
    coeffs = spin_boson_coefficients(density, temperature, tunneling)
    return SpinBosonBornMarkovGenerator(
        splitting=splitting,
        tunneling=tunneling,
        dephasing=coeffs.dephasing,
        renormalization=coeffs.renormalization,
        decay=coeffs.decay,
    )
