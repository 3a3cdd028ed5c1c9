"""Back-of-envelope decoherence timescales in SI units.

The solver modules work in natural units; this one deliberately does
not.  It converts laboratory numbers (grams, kelvins, centimeters)
into the thermal-wavelength ratio that controls spatial decoherence,
and tabulates localization times for a set of standard environment
scenarios.  Scattering constants for the scenario table are config
inputs: the published order-of-magnitude times are carried along for
display next to the computed values, never as the source of the
constants.

The physical constants are the exact SI definitions (the 2019 SI fixes
h and k_B), not ``scipy.constants``: the same doubles, without SciPy's
import cost in a short-lived process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import ConfigError

hbar = 6.62607015e-34 / (2.0 * math.pi)  # J s, from the exact Planck constant h
k_boltzmann = 1.380649e-23  # J / K, exact

ENVIRONMENTS = (
    "cosmic background radiation",
    "photons at room temperature",
    "best laboratory vacuum",
    "air at normal pressure",
)

# (label, separation in meters); separation equals the object size
OBJECTS = (
    ("dust grain", 1e-5),
    ("large molecule", 1e-8),
)

# Published order-of-magnitude localization times in seconds, shown
# alongside computed values for comparison only.
REFERENCE_SECONDS = {
    ("cosmic background radiation", "dust grain"): 1e0,
    ("cosmic background radiation", "large molecule"): 1e24,
    ("photons at room temperature", "dust grain"): 1e-18,
    ("photons at room temperature", "large molecule"): 1e6,
    ("best laboratory vacuum", "dust grain"): 1e-14,
    ("best laboratory vacuum", "large molecule"): 1e-2,
    ("air at normal pressure", "dust grain"): 1e-31,
    ("air at normal pressure", "large molecule"): 1e-19,
}


@dataclass(frozen=True)
class TimescaleReport:
    tau_d: float  # seconds
    tau_r: float  # seconds
    ratio: float  # tau_r / tau_d
    lambda_db: float  # meters


def thermal_de_broglie_wavelength(mass: float, temperature: float) -> float:
    """hbar / sqrt(2 m k_B T), all SI; ValueError when it is not a positive finite double."""
    if mass <= 0 or temperature <= 0:
        raise ValueError("mass and temperature must be positive")
    with np.errstate(over="ignore", divide="ignore"):
        lam = hbar / np.sqrt(2.0 * mass * k_boltzmann * temperature)
    if not 0.0 < lam < np.inf:
        raise ValueError(
            f"thermal wavelength for mass {mass} kg at {temperature} K is outside the double range"
        )
    return lam


def timescale_ratio(
    mass: float, temperature: float, separation: float, relaxation_time: float = 1.0
) -> TimescaleReport:
    """Ratio of relaxation to decoherence time for a separated superposition.

    mass in kg, temperature in K, separation in m.  Absolute times are
    anchored to ``relaxation_time`` (seconds): only the ratio is fixed
    by the inputs.
    """
    if separation <= 0 or relaxation_time <= 0:
        raise ValueError("separation and relaxation_time must be positive")
    lam = thermal_de_broglie_wavelength(mass, temperature)
    with np.errstate(over="ignore", divide="ignore"):
        ratio = (separation / lam) ** 2
        tau_d = relaxation_time / ratio
    if not (0.0 < ratio < np.inf and tau_d < np.inf):
        raise ValueError(
            f"timescale ratio for separation {separation} m and thermal wavelength "
            f"{lam:.3e} m is outside the double range"
        )
    return TimescaleReport(
        tau_d=tau_d,
        tau_r=relaxation_time,
        ratio=ratio,
        lambda_db=lam,
    )


@dataclass(frozen=True)
class ScenarioEntry:
    environment: str
    object_label: str
    separation: float  # m
    constant_kind: str  # "lambda" (1/(m^2 s)) or "gamma_tot" (1/s)
    constant_value: float
    tau_computed: float  # s
    tau_reference: float  # s, display only


def table1_scenarios(
    constants: Mapping[str, Mapping[str, Mapping[str, float]]],
) -> list[ScenarioEntry]:
    """Localization times for the standard environment/object pairs.

    ``constants[environment][object]`` must supply exactly one of
    ``{"lambda": ...}`` (long-wavelength regime, tau = 1/(lambda dx^2))
    or ``{"gamma_tot": ...}`` (short-wavelength regime, tau = 1/gamma).
    """
    if not isinstance(constants, Mapping):
        raise ConfigError(f"constants must be a JSON object, got {constants!r}")
    entries = []
    missing = []
    for env in ENVIRONMENTS:
        row = constants.get(env) or {}
        for label, dx in OBJECTS:
            spec = row.get(label) if isinstance(row, Mapping) else row
            if not spec:
                missing.append(f"{env} / {label}")
                continue
            if not isinstance(spec, Mapping) or set(spec) not in ({"lambda"}, {"gamma_tot"}):
                raise ConfigError(
                    f"{env} / {label}: supply exactly one of 'lambda' or 'gamma_tot', "
                    f"got {spec!r}"
                )
            ((kind, raw),) = spec.items()
            try:
                value = float(raw)
            except (TypeError, ValueError):
                value = np.nan
            if not 0.0 < value < np.inf:
                raise ConfigError(
                    f"{kind} must be a finite positive number for {env} / {label}, got {raw!r}"
                )
            rate = value * dx**2 if kind == "lambda" else value  # lambda dx^2 may underflow to 0
            if not (rate > 0.0 and 1.0 / rate < np.inf):
                raise ConfigError(
                    f"{kind} = {value!r} for {env} / {label} gives a localization time "
                    "outside the double range"
                )
            tau = 1.0 / rate
            entries.append(
                ScenarioEntry(
                    environment=env,
                    object_label=label,
                    separation=dx,
                    constant_kind=kind,
                    constant_value=value,
                    tau_computed=tau,
                    tau_reference=REFERENCE_SECONDS[(env, label)],
                )
            )
    if missing:
        raise ConfigError("missing scattering constants for: " + "; ".join(missing))
    return entries


@dataclass(frozen=True)
class VisibilityCurve:
    pressures: np.ndarray
    visibility: np.ndarray
    v0: float
    log_slope: float  # d ln(V) / d p, exact model value


def visibility_vs_pressure(
    gamma_per_pressure: float, t_transit: float, pressures, v0: float = 1.0
) -> VisibilityCurve:
    """Interference visibility V0 exp(-gamma_per_pressure * p * t_transit)."""
    if gamma_per_pressure < 0 or t_transit < 0 or v0 <= 0:
        raise ValueError("rates, times, and V0 must be nonnegative (V0 positive)")
    p = np.asarray(pressures, dtype=float)
    if np.any(p < 0):
        raise ValueError("pressures must be nonnegative")
    # an overflowed exponent is -inf (visibility 0), or NaN when t_transit is 0
    with np.errstate(over="ignore", invalid="ignore"):
        vis = v0 * np.exp(-gamma_per_pressure * p * t_transit)
    log_slope = -gamma_per_pressure * t_transit
    if not (np.isfinite(log_slope) and np.isfinite(vis).all()):
        raise ValueError("gamma_per_pressure * t_transit * pressure overflows a double")
    p = p.copy()
    p.setflags(write=False)
    vis.setflags(write=False)
    return VisibilityCurve(p, vis, v0, log_slope)
