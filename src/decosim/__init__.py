"""Open-quantum-system toolkit: channels, master equations, trajectory
unravelings, scattering and oscillator decoherence models, protected-subspace
search, and a three-qubit phase-flip code, with a CLI front end.

Submodules load on first use (PEP 562): ``decosim.evolve`` imports
``decosim.dynamics`` when it is first read, so a process that runs one
solver compiles and executes only the modules that solver needs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "DensityMatrix", "EvolutionResult", "KET_0", "KET_1", "KET_MINUS", "KET_PLUS",
            "Operator", "PAULIS", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "StateVector", "basis_state",
            "embed", "entropy", "identity", "ket", "mutual_information", "overlap",
            "partial_trace", "partial_trace_keep_state", "purity", "sigma", "tensor",
        ),
        "channels": (
            "IndirectMeasurement", "KrausChannel", "apply_channel", "indirect_measurement",
            "kraus_from_unitary", "measurement_operators", "verify_completeness",
        ),
        "dynamics": (
            "LindbladSpec", "TrajectoryConfig", "TrajectoryResult", "evolve", "unravel",
        ),
        "baths": (
            "CoefficientSet", "OhmicLorentzCutoff", "qbm_coefficients", "spin_boson_coefficients",
        ),
        "errors": (
            "ConfigError", "ConvergenceError", "GridResolutionError", "PhysicalityError",
            "PositivityError",
        ),
        "pointer": (
            "CollectiveDFSReport", "DFSResult", "FragmentCurve", "InteractionSpec", "SieveReport",
            "collective_dephasing_spec", "collective_dfs", "commutativity_residual", "dfs_find",
            "fragment_mutual_information", "pointer_states", "predictability_sieve",
        ),
        "qec": (
            "ErrorModel", "LogicalErrorRow", "SyndromeOutcome", "apply_errors", "code_words",
            "decode", "encode", "expand_in_pauli_errors", "logical_error_rate",
            "syndrome_and_recover",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"models"}

__all__ = ["__version__", *_EXPORTS, "models"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
