"""Concrete open-system models: scattering, oscillator baths, spin baths, estimators.

Like the ``decosim`` package, this one loads each model module on first use.
"""

import importlib

# exported name -> the model module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "collisional": (
            "DecoherenceRates", "GridState", "ScatteringModel", "decoherence_rates",
            "evolve_collisional", "localization_rate", "two_gaussian_superposition",
        ),
        "estimates": (
            "ScenarioEntry", "TimescaleReport", "VisibilityCurve", "table1_scenarios",
            "thermal_de_broglie_wavelength", "timescale_ratio", "visibility_vs_pressure",
        ),
        "qbm": (
            "CaldeiraLeggettGenerator", "FreeParticleGenerator", "WignerGrid", "cat_state",
            "coherent_state", "evolve_free_particle", "position_moments", "truncation_tail",
            "wigner_from_fock", "wigner_transform",
        ),
        "spinboson": (
            "SpinBosonBornMarkovGenerator", "SpinBosonExactResult",
            "spin_boson_born_markov_generator", "spin_boson_exact_dephasing",
        ),
        "spinspin": ("SpinEnvironment", "spin_spin_exact"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
