"""The Lorentz-Drude spectral density and its weak-coupling coefficients.

The weak-coupling master-equation coefficients are half-line time
integrals of the bath's noise and dissipation kernels against
trigonometric factors at the system frequency.  They reduce to J and
coth at that frequency plus two principal-value frequency integrals,
and for the Lorentz-Drude density those have exact forms: a rational
function for the frequency shift, and a Matsubara sum, written with the
digamma function, for the renormalization and anomalous diffusion.  No
kernel grid and no quadrature is needed for them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OhmicLorentzCutoff:
    """J(w) = (2 M gamma0 / pi) * w * cutoff^2 / (cutoff^2 + w^2).

    ``mass`` and ``gamma0`` set the overall coupling scale; ``cutoff``
    is the Lorentz-Drude roll-off frequency.
    """

    mass: float
    gamma0: float
    cutoff: float

    def __post_init__(self):
        finite = np.isfinite([self.mass, self.gamma0, self.cutoff]).all()
        if not finite or self.mass <= 0 or self.cutoff <= 0 or self.gamma0 < 0:
            raise ValueError("need finite mass > 0, cutoff > 0, gamma0 >= 0")
        # J divides by cutoff^2 + w^2, so the square must be a finite normal double
        if not np.finfo(float).tiny <= self.cutoff * self.cutoff < np.inf:
            raise ValueError(f"cutoff^2 must be a finite normal double, got cutoff {self.cutoff}")

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        return (2.0 * self.mass * self.gamma0 / np.pi) * w * self.cutoff**2 / (
            self.cutoff**2 + w**2
        )

    def zero_frequency_slope(self) -> float:
        return 2.0 * self.mass * self.gamma0 / np.pi


def _thermal_weight(
    omega: np.ndarray, j_vals: np.ndarray, temperature: float, slope0: float
) -> np.ndarray:
    """J(w) coth(w / 2T) with the w -> 0 limit 2 T J'(0) filled in by hand."""
    if temperature == 0.0:
        return j_vals.copy()
    if temperature < 0.0:
        raise ValueError("temperature must be nonnegative")
    out = np.empty_like(j_vals)
    small = omega < 1e-12 * max(temperature, 1.0)
    x = omega[~small] / (2.0 * temperature)
    out[~small] = j_vals[~small] / np.tanh(x)
    out[small] = 2.0 * temperature * slope0
    return out


@dataclass(frozen=True)
class CoefficientSet:
    """Weak-coupling master-equation coefficients.

    The oscillator family fills ``frequency_shift_sq`` (shift of the
    squared frequency, 1/time^2), ``damping`` (1/time),
    ``normal_diffusion``, and ``anomalous_diffusion``; the two-level
    family fills ``dephasing``, ``renormalization``, and ``decay``.
    """

    frequency_shift_sq: float | None = None
    damping: float | None = None
    normal_diffusion: float | None = None
    anomalous_diffusion: float | None = None
    dephasing: float | None = None
    renormalization: float | None = None
    decay: float | None = None


# B_2k / 2k for k = 1..7, the coefficients of z^-2k in the asymptotic series of psi
_PSI_SERIES = np.array([1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12])


def _digamma(z) -> np.ndarray:
    """psi(z) for Re z >= 1, with an error of order 1e-16 max(|psi(z)|, 1).

    The recurrence psi(z) = psi(z + 1) - 1/z lifts |z| to 10 or more; there
    the asymptotic series ln z - 1/2z - sum_k B_2k / (2k z^2k) with seven
    terms leaves a remainder below 1e-16 (Abramowitz & Stegun 6.3.5, 6.3.18).
    """
    z = np.array(z, dtype=complex)
    out = np.zeros_like(z)
    small = np.abs(z) < 10.0
    while small.any():
        out[small] -= 1.0 / z[small]
        z[small] += 1.0
        small = np.abs(z) < 10.0
    inv = 1.0 / z
    inv2 = inv * inv
    series = np.polynomial.polynomial.polyval(inv2, _PSI_SERIES) * inv2
    return out + np.log(z) - 0.5 * inv - series


def _renormalization(density: OhmicLorentzCutoff, temperature: float, frequency: float) -> float:
    """R(W) = -W PV int J(w) coth(w/2T) / (w^2 - W^2) dw, in closed form.

    For the Lorentz-Drude density the Matsubara sum of the thermal weight
    gives, with c = J'(0), L the cutoff and x = 2 pi T (Weiss, Quantum
    Dissipative Systems),

        R = W c L / (L^2 + W^2) [pi T - L (psi(1 + L/x) - Re psi(1 + iW/x))],

    and R = -W c L^2 ln(L/W) / (L^2 + W^2) at T = 0, which is also the
    limit taken wherever L/x or W/x overflows.  W L / (L^2 + W^2) is
    evaluated as (W/h)(L/h) with h = hypot(L, W), so no square overflows.
    """
    cutoff = density.cutoff
    h = math.hypot(cutoff, frequency)
    scale = density.zero_frequency_slope() * (frequency / h) * (cutoff / h)
    x = 2.0 * math.pi * temperature
    if temperature > 0.0 and max(cutoff, frequency) / x < math.inf:
        psi = _digamma([1.0 + cutoff / x, 1.0 + 1j * frequency / x]).real
        return scale * math.pi * temperature - scale * cutoff * float(psi[0] - psi[1])
    return -scale * cutoff * (math.log(cutoff) - math.log(frequency))


def _thermal(density: OhmicLorentzCutoff, temperature: float, omega: float) -> float:
    """J(w) coth(w / 2T) at one frequency, finite at w = 0."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    j_vals = np.asarray(density(w), dtype=float)
    return float(_thermal_weight(w, j_vals, temperature, density.zero_frequency_slope())[0])


def qbm_coefficients(
    density: OhmicLorentzCutoff, temperature: float, frequency: float
) -> CoefficientSet:
    """Oscillator weak-coupling coefficients at system frequency W.

    frequency_shift_sq  = -(2/M) PV int J(w) w / (w^2 - W^2) = -2 gamma0 L^3 / (L^2 + W^2),
    damping             =  pi J(W) / (2 M W),
    normal_diffusion    =  (pi/2) J(W) coth(W/2T),
    anomalous_diffusion =  (1/M) PV int J(w) coth(w/2T) / (w^2 - W^2) = -R(W) / (W M),

    with M the density's mass, L its cutoff and R from _renormalization.
    These are the half-line time integrals of the bath kernels against
    cos(W t) and sin(W t), done in closed form.  In the high-temperature
    ohmic regime normal_diffusion approaches 2 M gamma0 T and damping
    approaches gamma0, temperature-independent.
    """
    if frequency <= 0:
        raise ValueError("system frequency must be positive")
    mass, cutoff = density.mass, density.cutoff
    h = math.hypot(cutoff, frequency)
    return CoefficientSet(
        frequency_shift_sq=-2.0 * density.gamma0 * cutoff * (cutoff / h) ** 2,
        damping=0.5 * np.pi * float(density(frequency)) / (mass * frequency),
        normal_diffusion=0.5 * np.pi * _thermal(density, temperature, frequency),
        anomalous_diffusion=-_renormalization(density, temperature, frequency) / (frequency * mass),
    )


def spin_boson_coefficients(
    density: OhmicLorentzCutoff, temperature: float, tunneling: float
) -> CoefficientSet:
    """Two-level weak-coupling coefficients at tunneling frequency Delta0.

    dephasing       = (pi/2) J(Delta0) coth(Delta0/2T)  (pi T J'(0) at Delta0 = 0),
    renormalization = -Delta0 PV int J(w) coth(w/2T) / (w^2 - Delta0^2),
    decay           = (pi/2) J(Delta0).

    These are the half-line time integrals of the noise and dissipation
    kernels against cos(Delta0 t) and sin(Delta0 t), done in closed form.
    At Delta0 = 0 the renormalization and decay coefficients vanish and
    the master equation reduces to pure dephasing.
    """
    if tunneling < 0:
        raise ValueError("tunneling frequency must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dephasing = 0.5 * np.pi * _thermal(density, temperature, tunneling)
        if tunneling == 0.0:
            coeffs = CoefficientSet(dephasing=dephasing, renormalization=0.0, decay=0.0)
        else:
            coeffs = CoefficientSet(
                dephasing=dephasing,
                renormalization=_renormalization(density, temperature, tunneling),
                decay=0.5 * np.pi * float(density(tunneling)),
            )
    if not np.isfinite([coeffs.dephasing, coeffs.renormalization, coeffs.decay]).all():
        raise ValueError("the weak-coupling coefficients overflow a double")
    return coeffs
