"""Scenario runner: every solver reachable as a subcommand that emits data files.

Configuration comes from a strict JSON file (--config), with any scalar
key overridable by a same-named flag; unknown keys are rejected rather
than ignored.  Each run writes plot-ready CSV (17-significant-digit
scientific notation) plus a manifest.json recording the fully resolved
config, the seed, library versions, and wall time; the manifest's
"config" block rerun through --config reproduces the CSV bytes exactly.

Exit codes: 0 success, 2 config error, 3 numerical contract violation.
``main`` is the only place that maps exceptions to them, each reported
as one stderr line: ConvergenceError (positivity abort, non-convergent
quadrature), PhysicalityError, GridResolutionError and numpy's
LinAlgError exit 3; any other ValueError exits 2.  That covers a
ConfigError from the parsing here and every library constructor or
solver that rejects a parameter, so handlers call the library without
wrapping it and the CLI adds only checks the library cannot make: JSON
shapes, cross-field rules, and finite floats for every float field.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .baths import OhmicLorentzCutoff
from .core import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    Operator,
    StateVector,
    purity,
    spectral_entropy,
)
from .dynamics import LindbladSpec, TrajectoryConfig, evolve, unravel
from .errors import (
    ConfigError,
    ConvergenceError,
    GridResolutionError,
    PhysicalityError,
)
from .models import (
    SpinEnvironment,
    caldeira_leggett_generator,
    cat_state,
    coherent_state,
    spin_boson_born_markov_generator,
    spin_boson_exact_dephasing,
    spin_spin_exact,
    table1_scenarios,
    timescale_ratio,
    truncation_tail,
    uniform_beam_localization_rates,
    uniform_beam_rates,
    visibility_vs_pressure,
    wigner_from_fock,
)
from .pointer import collective_dfs, dfs_find, InteractionSpec, predictability_sieve
from .qec import logical_error_rate
from .serialize import (
    format_floats,
    pairs_to_array,
    write_coordinate_matrix,
    write_csv,
    write_json,
)

_NAMED_OPERATORS = {
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
    "identity": PAULIS["I"],
}
_NAMED_STATES = {
    "zero": KET_0.amplitudes,
    "one": KET_1.amplitudes,
    "plus": KET_PLUS.amplitudes,
    "minus": KET_MINUS.amplitudes,
}


@dataclass(frozen=True)
class Field:
    """One config key: JSON type, default, and the mirrored CLI flag."""

    name: str
    kind: str  # float | int | bool | str | json
    help: str
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None


def _coerce(field: Field, value):
    if field.kind == "json":
        return value
    try:
        if field.kind == "float":
            out = float(value)
        elif field.kind == "int":
            out = int(value)
            if isinstance(value, float) and value != out:
                raise ValueError(value)
        elif isinstance(value, bool if field.kind == "bool" else str):
            out = value
        else:
            raise TypeError(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{field.name}' expects a {field.kind}, got {value!r}") from None
    if field.kind == "float" and not np.isfinite(out):
        raise ConfigError(f"'{field.name}' must be finite, got {value!r}")
    if field.choices and out not in field.choices:
        raise ConfigError(f"'{field.name}' must be one of {list(field.choices)}, got {value!r}")
    return out


def _resolve_config(schema: tuple[Field, ...], config_path: str | None, ns) -> dict:
    data = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in schema}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for field in schema:
        value = getattr(ns, field.name, None)
        if value is None:
            value = data.get(field.name)
        if value is None:
            if field.required:
                raise ConfigError(f"missing required config key '{field.name}'")
            value = field.default
        merged[field.name] = None if value is None else _coerce(field, value)
    return merged


def _parse_operator(spec, what: str) -> np.ndarray:
    if isinstance(spec, str):
        if spec not in _NAMED_OPERATORS:
            raise ConfigError(f"{what}: unknown operator name {spec!r}")
        return _NAMED_OPERATORS[spec]
    try:
        arr = pairs_to_array(spec)
    except (ValueError, TypeError):
        raise ConfigError(f"{what}: expected an operator name or [re, im] matrix") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{what}: matrix must be square")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what}: entries must be finite")
    return arr


def _parse_state(spec, what: str) -> np.ndarray:
    if isinstance(spec, str):
        if spec not in _NAMED_STATES:
            raise ConfigError(f"{what}: unknown state name {spec!r}")
        return _NAMED_STATES[spec]
    try:
        arr = pairs_to_array(spec)
    except (ValueError, TypeError):
        raise ConfigError(f"{what}: expected a state name or [re, im] vector") from None
    if arr.ndim != 1:
        raise ConfigError(f"{what}: state must be a vector")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what}: entries must be finite")
    norm = np.linalg.norm(arr)
    if norm == 0:
        raise ConfigError(f"{what}: zero vector is not a state")
    return arr / norm


def _parse_list(spec, what: str) -> list:
    if not isinstance(spec, list):
        raise ConfigError(f"{what}: expected a JSON list, got {spec!r}")
    return spec


def _density_columns(dim: int) -> list[str]:
    """Headers of ``states.reshape(T, -1).view(float)``: re and im of each entry, row-major."""
    return [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim) for part in ("re", "im")]


def _build_lindblad(cfg) -> LindbladSpec:
    h = _parse_operator(cfg["hamiltonian"], "hamiltonian")
    terms = []
    for k, item in enumerate(_parse_list(cfg["lindblad"], "lindblad")):
        if not isinstance(item, dict) or set(item) != {"operator", "rate"}:
            raise ConfigError(f"lindblad[{k}]: expected {{'operator': ..., 'rate': ...}}")
        op = _parse_operator(item["operator"], f"lindblad[{k}].operator")
        rate = _coerce(Field(f"lindblad[{k}].rate", "float", ""), item["rate"])
        terms.append((Operator(op), rate))
    return LindbladSpec(Operator(h), tuple(terms))


# ---------------------------------------------------------------- subcommands

_OPERATOR_FIELDS = (
    Field("hamiltonian", "json", "operator name or [re,im] matrix", required=True),
    Field("lindblad", "json", "list of {operator, rate}", default=[]),
)

EVOLVE_SCHEMA = _OPERATOR_FIELDS + (
    Field("rho0", "json", "initial state name, vector, or density matrix", default="plus"),
    Field("t_final", "float", "evolution time", required=True),
    Field("dt", "float", "snapshot time step", required=True),
    Field("store_every", "int", "snapshot stride in steps", default=1),
    Field("output", "str", "output directory", default="."),
)


def _cmd_evolve(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    spec = _build_lindblad(cfg)
    raw = cfg["rho0"]
    if isinstance(raw, str):
        rho0 = StateVector(_parse_state(raw, "rho0")).density()
    else:
        try:
            mat = pairs_to_array(raw)
        except (ValueError, TypeError):
            raise ConfigError("rho0: expected a state name, [re,im] vector, or matrix") from None
        if mat.ndim == 1:
            rho0 = StateVector(_parse_state(raw, "rho0")).density()
        else:
            try:
                rho0 = DensityMatrix(mat)
            except ValueError as exc:
                raise ConfigError(f"rho0: {exc}") from None
    result = evolve(spec, rho0, cfg["t_final"], cfg["dt"], cfg["store_every"])
    header = ["t", "purity", "entropy"] + _density_columns(spec.dim)
    table = np.column_stack([result.times, purity(result.states), spectral_entropy(result.spectra),
                             result.states.reshape(len(result.times), -1).view(float)])
    path = os.path.join(outdir, "evolve.csv")
    write_csv(path, header, table.tolist())
    return [path], {}


TRAJECTORIES_SCHEMA = _OPERATOR_FIELDS + (
    Field("psi0", "json", "initial pure state", default="plus"),
    Field("t_final", "float", "evolution time", required=True),
    Field("dt", "float", "Euler-Maruyama step", required=True),
    Field("n_trajectories", "int", "ensemble size", required=True),
    Field("master_seed", "int", "seed of the per-trajectory counter RNG", default=2026),
    Field("store_every", "int", "snapshot stride in steps", default=1),
    Field("workers", "int", "thread count (default: DECOSIM_WORKERS or 1)"),
    Field("output", "str", "output directory", default="."),
)


def _cmd_trajectories(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    spec = _build_lindblad(cfg)
    psi0 = StateVector(_parse_state(cfg["psi0"], "psi0"))
    tc = TrajectoryConfig(
        dt=cfg["dt"],
        t_final=cfg["t_final"],
        n_trajectories=cfg["n_trajectories"],
        master_seed=cfg["master_seed"],
    )
    ens = unravel(spec, psi0, tc, store_every=cfg["store_every"], n_workers=cfg["workers"])
    ref = evolve(spec, psi0.density(), cfg["t_final"], cfg["dt"], cfg["store_every"])
    header = (
        ["t"]
        + ["ens_" + c for c in _density_columns(spec.dim)]
        + ["ref_" + c for c in _density_columns(spec.dim)]
        + ["trace_distance"]
    )
    distance = 0.5 * np.abs(np.linalg.eigvalsh(ens.ensemble - ref.states)).sum(axis=1)
    n = len(ens.times)
    table = np.column_stack([ens.times, ens.ensemble.reshape(n, -1).view(float),
                             ref.states.reshape(n, -1).view(float), distance])
    path = os.path.join(outdir, "trajectories.csv")
    write_csv(path, header, table.tolist())
    return [path], {"final_trace_distance": distance[-1]}


COLLISIONAL_SCHEMA = (
    Field("density_amplitude", "float", "momentum density, uniform on (0, q_max)", required=True),
    Field("q_max", "float", "momentum support cutoff", required=True),
    Field("speed", "float", "environment particle speed (constant)", required=True),
    Field("f2", "float", "isotropic |f|^2 (area per steradian)", required=True),
    Field("regime", "str", "rate regime", default="full",
          choices=("full", "short-wavelength", "long-wavelength")),
    Field("dx_min", "float", "smallest separation", required=True),
    Field("dx_max", "float", "largest separation", required=True),
    Field("n_dx", "int", "number of separations", default=25),
    Field("log_spacing", "bool", "log-spaced separations", default=True),
    Field("output", "str", "output directory", default="."),
)


def _cmd_collisional(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    if cfg["n_dx"] < 1 or cfg["dx_min"] <= 0 or cfg["dx_max"] <= cfg["dx_min"]:
        raise ConfigError("need n_dx >= 1 and 0 < dx_min < dx_max")
    rho0, v0, f2 = cfg["density_amplitude"], cfg["speed"], cfg["f2"]
    if min(rho0, v0, f2) < 0:
        raise ConfigError("need density_amplitude, speed and f2 >= 0")
    rates = uniform_beam_rates(rho0, v0, f2, cfg["q_max"])
    # the lambda_dx2 column and the long-wavelength curve both hold Lambda dx^2
    if not np.isfinite(rates.prefactor * (cfg["dx_max"] * cfg["dx_max"])):
        raise ConfigError("Lambda * dx_max^2 overflows a double")
    if cfg["log_spacing"]:
        grid = np.geomspace(cfg["dx_min"], cfg["dx_max"], cfg["n_dx"])
    else:
        grid = np.linspace(cfg["dx_min"], cfg["dx_max"], cfg["n_dx"])
    curve = uniform_beam_localization_rates(rho0, v0, f2, cfg["q_max"], grid, cfg["regime"])
    rows = np.column_stack(
        [grid, curve, np.full_like(grid, rates.total_rate), rates.prefactor * grid**2]
    ).tolist()
    path = os.path.join(outdir, "collisional.csv")
    write_csv(path, ["dx", "localization_rate", "gamma_tot", "lambda_dx2"], rows)
    return [path], {"gamma_tot": rates.total_rate, "lambda": rates.prefactor}


QBM_SCHEMA = (
    Field("mass", "float", "oscillator mass", default=1.0),
    Field("frequency", "float", "oscillator frequency", default=1.0),
    Field("gamma0", "float", "damping rate", required=True),
    Field("cutoff", "float", "bath cutoff frequency", required=True),
    Field("temperature", "float", "bath temperature", required=True),
    Field("n_max", "int", "number-basis truncation", default=60),
    Field("pure_decoherence", "bool", "drop the dissipative term", default=False),
    Field("alpha", "float", "coherent amplitude of the two-packet state", required=True),
    Field("t_final", "float", "evolution time", required=True),
    Field("dt", "float", "snapshot time step", required=True),
    Field("store_every", "int", "snapshot stride in steps", default=10),
    Field("wigner", "bool", "dump initial/final Wigner grids", default=True),
    Field("n_x", "int", "Wigner position-grid points", default=201),
    Field("x_max", "float", "Wigner grid half-width (default: auto)"),
    Field("output", "str", "output directory", default="."),
)


def _cmd_qbm(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    gen = caldeira_leggett_generator(
        cfg["mass"], cfg["frequency"], cfg["gamma0"], cfg["cutoff"], cfg["temperature"],
        n_max=cfg["n_max"], pure_decoherence=cfg["pure_decoherence"],
    )
    alpha = cfg["alpha"]
    psi = cat_state(alpha, cfg["n_max"])
    rho0 = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    result = evolve(gen, rho0, cfg["t_final"], cfg["dt"], cfg["store_every"])
    left = coherent_state(alpha, cfg["n_max"]).amplitudes
    right = coherent_state(-alpha, cfg["n_max"]).amplitudes
    cross = np.array([abs(left.conj() @ state @ right) for state in result.states])
    relative = cross / cross[0] if cross[0] > 0 else np.zeros_like(cross)
    tail = [truncation_tail(state) for state in result.states]
    table = np.column_stack([result.times, purity(result.states),
                             spectral_entropy(result.spectra), tail, relative])
    path = os.path.join(outdir, "qbm.csv")
    write_csv(path, ["t", "purity", "entropy", "tail_population", "relative_coherence"],
              table.tolist())
    outputs = [path]
    summary = {"final_relative_coherence": relative[-1]}
    if cfg["wigner"]:
        scale = np.sqrt(1.0 / (2.0 * cfg["mass"] * cfg["frequency"]))
        # default window: packet separation plus a thermal-width margin
        occupation = 1.0 / np.expm1(cfg["frequency"] / cfg["temperature"]) if cfg["temperature"] > 0 else 0.0
        x_max = cfg["x_max"] or (2.0 * abs(alpha) * np.sqrt(2.0)
                                 + 7.0 * np.sqrt(2.0 * occupation + 1.0)) * scale
        positions = np.linspace(-x_max, x_max, cfg["n_x"])
        for tag, state in (("initial", result.states[0]), ("final", result.states[-1])):
            grid = wigner_from_fock(state, cfg["mass"], cfg["frequency"], positions)
            # each value is rendered once and shared by both files
            xs, ps, ws = (format_floats(a) for a in (grid.x, grid.p, grid.values))
            triples = ((x, p, w) for x, row in zip(xs, ws) for p, w in zip(ps, row))
            tri_path = os.path.join(outdir, f"wigner_{tag}.csv")
            write_csv(tri_path, ["x", "p", "w"], triples)
            mat_path = os.path.join(outdir, f"wigner_{tag}_matrix.csv")
            write_coordinate_matrix(mat_path, xs, ps, ws)
            outputs += [tri_path, mat_path]
    return outputs, summary


SPINBOSON_SCHEMA = (
    Field("mass", "float", "bath mass parameter of the spectral density", default=1.0),
    Field("gamma0", "float", "coupling scale of the spectral density", required=True),
    Field("cutoff", "float", "spectral-density cutoff", required=True),
    Field("temperature", "float", "bath temperature", required=True),
    Field("splitting", "float", "level splitting", default=0.0),
    Field("tunneling", "float", "tunneling matrix element", default=0.0),
    Field("t_max", "float", "last grid time", required=True),
    Field("n_times", "int", "time-grid points", default=101),
    Field("n_modes", "int", "bath modes for the exact solver", default=512),
    Field("check_convergence", "bool", "mode-doubling certification", default=True),
    Field("born_markov", "bool", "also integrate the weak-coupling equation", default=True),
    Field("output", "str", "output directory", default="."),
)


def _cmd_spinboson(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    if cfg["n_times"] < 2:  # the weak-coupling step below reads times[1]
        raise ConfigError(f"'n_times' must be at least 2, got {cfg['n_times']}")
    density = OhmicLorentzCutoff(cfg["mass"], cfg["gamma0"], cfg["cutoff"])
    times = np.linspace(0.0, cfg["t_max"], cfg["n_times"])
    header = ["t"]
    columns = [times]
    summary: dict = {}
    if cfg["tunneling"] == 0.0:
        exact = spin_boson_exact_dephasing(
            density, cfg["temperature"], times, splitting=cfg["splitting"],
            n_modes=cfg["n_modes"], check_convergence=cfg["check_convergence"],
        )
        header += ["exact_abs", "exact_re", "exact_im"]
        columns += [np.abs(exact.coherence), exact.coherence.real, exact.coherence.imag]
        summary["population_drift"] = exact.population_drift
        summary["mode_doubling_change"] = exact.doubling_change
    if cfg["born_markov"]:
        gen = spin_boson_born_markov_generator(
            density, cfg["temperature"], cfg["splitting"], cfg["tunneling"]
        )
        result = evolve(gen, KET_PLUS.density(), cfg["t_max"], times[1] - times[0], store_every=1)
        coherence = result.states[:, 0, 1]
        header += ["born_markov_abs"]
        columns += [np.abs(coherence / coherence[0])]
    path = os.path.join(outdir, "spinboson.csv")
    write_csv(path, header, np.column_stack(columns).tolist())
    return [path], summary


SPINSPIN_SCHEMA = (
    Field("couplings", "json", "list of coupling strengths (overrides n_env)"),
    Field("n_env", "int", "number of environment qubits to draw"),
    Field("coupling_seed", "int", "seed for drawn couplings", default=7),
    Field("coupling_low", "float", "lower bound of drawn couplings", default=0.25),
    Field("coupling_high", "float", "upper bound of drawn couplings", default=1.0),
    Field("splitting", "float", "system level splitting", default=0.0),
    Field("tunneling", "float", "system tunneling element", default=0.0),
    Field("psi0", "json", "initial system state", default="plus"),
    Field("t_max", "float", "last grid time", required=True),
    Field("n_times", "int", "time-grid points", default=201),
    Field("output", "str", "output directory", default="."),
)


def _resolve_couplings(cfg: dict) -> tuple[float, ...]:
    if cfg["couplings"] is not None:
        try:
            return tuple(float(g) for g in cfg["couplings"])
        except (TypeError, ValueError):
            raise ConfigError("couplings must be a list of numbers") from None
    if cfg["n_env"] is None:
        raise ConfigError("provide either 'couplings' or 'n_env'")
    if not np.isfinite(cfg["coupling_high"] - cfg["coupling_low"]):
        raise ConfigError("coupling_high - coupling_low must be finite")
    rng = np.random.default_rng(cfg["coupling_seed"])
    return tuple(rng.uniform(cfg["coupling_low"], cfg["coupling_high"], cfg["n_env"]).tolist())


def _cmd_spinspin(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    couplings = _resolve_couplings(cfg)
    env = SpinEnvironment(couplings, splitting=cfg["splitting"], tunneling=cfg["tunneling"])
    psi0 = StateVector(_parse_state(cfg["psi0"], "psi0"))
    times = np.linspace(0.0, cfg["t_max"], cfg["n_times"])
    result = spin_spin_exact(env, psi0, times)
    coherence = result.states[:, 0, 1]
    magnitude = np.hypot(coherence.real, coherence.imag)  # abs() of each entry, to the bit
    header = ["t", "coherence_abs", "purity"]
    columns = [times, magnitude / magnitude[0] if magnitude[0] > 0 else np.zeros_like(times),
               purity(result.states)]
    if cfg["tunneling"] == 0.0:
        header.append("product_reference")
        columns.append(np.prod(np.abs(np.cos(np.outer(times, couplings))), axis=1))
    path = os.path.join(outdir, "spinspin.csv")
    write_csv(path, header, np.column_stack(columns).tolist())
    return [path], {"couplings": list(couplings)}


SIEVE_SCHEMA = (
    Field("scenario", "str", "model family", required=True,
          choices=("dephasing-qubit", "spin-spin")),
    Field("kappa", "float", "dephasing rate (dephasing-qubit)", default=1.0),
    Field("couplings", "json", "spin-spin couplings"),
    Field("n_env", "int", "spin-spin environment size"),
    Field("coupling_seed", "int", "seed for drawn couplings", default=7),
    Field("coupling_low", "float", "lower bound of drawn couplings", default=0.25),
    Field("coupling_high", "float", "upper bound of drawn couplings", default=1.0),
    Field("splitting", "float", "spin-spin level splitting", default=0.0),
    Field("tunneling", "float", "spin-spin tunneling element", default=0.0),
    Field("t_final", "float", "ranking horizon", required=True),
    Field("n_times", "int", "time-grid points", default=41),
    Field("measure", "str", "ranking measure", default="purity",
          choices=("purity", "entropy")),
    Field("output", "str", "output directory", default="."),
)


def _cmd_sieve(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    labels = ["zero", "one", "plus", "minus"]
    candidates = [StateVector(_NAMED_STATES[name]) for name in labels]
    times = np.linspace(0.0, cfg["t_final"], cfg["n_times"])
    if cfg["scenario"] == "dephasing-qubit":
        generator = LindbladSpec(
            Operator(np.zeros((2, 2), dtype=complex)),
            ((Operator(SIGMA_Z), cfg["kappa"]),),
        )
    else:
        generator = SpinEnvironment(
            _resolve_couplings(cfg), splitting=cfg["splitting"], tunneling=cfg["tunneling"]
        )
    report = predictability_sieve(
        generator, candidates, times, measure=cfg["measure"], labels=labels
    )
    rows = [[cand.label, *cells] for cand in report.candidates
            for cells in np.column_stack([times, cand.purity, cand.entropy]).tolist()]
    path = os.path.join(outdir, "sieve.csv")
    write_csv(path, ["label", "t", "purity", "entropy"], rows)
    print("ranking (most predictable first): " + ", ".join(report.ranking))
    return [path], {"ranking": list(report.ranking)}


DFS_SCHEMA = (
    Field("collective", "bool", "use the shared sigma_z coupling family", default=False),
    Field("n", "int", "number of qubits (collective mode)"),
    Field("system_terms", "json", "list of system coupling matrices"),
    Field("env_terms", "json", "list of environment coupling matrices"),
    Field("output", "str", "output directory", default="."),
)

_DFS_EXPORT_CAP = 1 << 20  # amplitudes written to JSON at most


def _cmd_dfs(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    payload: dict = {}
    if cfg["collective"]:
        if cfg["n"] is None:
            raise ConfigError("collective mode needs 'n'")
        report = collective_dfs(cfg["n"])
        labels = None
        if report.result is not None:
            labels = [format(int(np.argmax(np.abs(vec.amplitudes))), f"0{cfg['n']}b")
                      for vec in report.result.basis]
        print(f"dimension {report.dimension}")
        if labels:
            print("basis: " + " ".join(labels))
        payload = {
            "dimension": report.dimension,
            "magnetization": report.magnetization,
            "exact_bits": report.exact_bits,
            "stirling_bits": report.stirling_bits,
            "efficiency": report.efficiency,
            "odd_fallback": report.odd_fallback,
            "basis_labels": labels,
        }
        if report.result is not None and report.dimension * 2 ** cfg["n"] <= _DFS_EXPORT_CAP:
            payload["basis"] = [np.stack([vec.amplitudes.real, vec.amplitudes.imag], -1).tolist()
                                for vec in report.result.basis]
        summary = {"dimension": report.dimension}
    else:
        if not cfg["system_terms"] or not cfg["env_terms"]:
            raise ConfigError("provide system_terms and env_terms, or use --collective")
        s_ops = [_parse_operator(m, f"system_terms[{k}]")
                 for k, m in enumerate(_parse_list(cfg["system_terms"], "system_terms"))]
        e_ops = [_parse_operator(m, f"env_terms[{k}]")
                 for k, m in enumerate(_parse_list(cfg["env_terms"], "env_terms"))]
        if len(s_ops) != len(e_ops):
            raise ConfigError("system_terms and env_terms must pair up")
        result = dfs_find(InteractionSpec(terms=tuple(zip(s_ops, e_ops))))
        print(f"dimension {result.dimension}")
        payload = {
            "dimension": result.dimension,
            "eigenvalues": list(result.eigenvalues),
            "certificate_defect": result.certificate_defect,
            "basis": [np.stack([vec.amplitudes.real, vec.amplitudes.imag], -1).tolist()
                      for vec in result.basis],
        }
        summary = {"dimension": result.dimension}
    path = os.path.join(outdir, "dfs_basis.json")
    write_json(path, payload)
    return [path], summary


QEC_SCHEMA = (
    Field("p_list", "json", "phase-flip probabilities", default=[0.01, 0.02, 0.05]),
    Field("n_shots", "int", "Monte Carlo shots per probability", default=100_000),
    Field("seed", "int", "sampling seed", default=0),
    Field("output", "str", "output directory", default="."),
)


def _cmd_qec(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    try:
        p_values = [float(p) for p in cfg["p_list"]]
    except (TypeError, ValueError):
        raise ConfigError("p_list must be a list of numbers") from None
    rows = logical_error_rate(p_values, n_shots=cfg["n_shots"], seed=cfg["seed"])
    path = os.path.join(outdir, "qec.csv")
    write_csv(
        path,
        ["p", "logical_error_rate_uncorrected", "logical_error_rate_corrected", "n_shots"],
        [[r.flip_probability, r.uncorrected_rate, r.corrected_rate, r.n_shots] for r in rows],
    )
    return [path], {}


ESTIMATE_SCHEMA = (
    Field("mass_g", "float", "object mass in grams (ratio mode)"),
    Field("temp_K", "float", "temperature in kelvin (ratio mode)"),
    Field("dx_cm", "float", "superposition separation in cm (ratio mode)"),
    Field("table1", "bool", "emit the scenario table", default=False),
    Field("constants", "json", "scattering constants per environment/object"),
    Field("visibility", "bool", "emit the visibility-vs-pressure curve", default=False),
    Field("gamma_per_pressure", "float", "decoherence rate per unit pressure"),
    Field("t_transit", "float", "interferometer transit time"),
    Field("p_max", "float", "largest pressure"),
    Field("n_p", "int", "pressure-grid points", default=50),
    Field("v0", "float", "zero-pressure visibility", default=1.0),
    Field("output", "str", "output directory", default="."),
)


def _cmd_estimate(cfg: dict, outdir: str) -> tuple[list[str], dict]:
    outputs: list[str] = []
    summary: dict = {}
    ran = False
    if cfg["mass_g"] is not None or cfg["temp_K"] is not None or cfg["dx_cm"] is not None:
        for key in ("mass_g", "temp_K", "dx_cm"):
            if cfg[key] is None:
                raise ConfigError(f"ratio mode needs '{key}'")
        report = timescale_ratio(cfg["mass_g"] * 1e-3, cfg["temp_K"], cfg["dx_cm"] * 1e-2)
        print(
            f"relaxation/decoherence ratio ~ {report.ratio:.3e} "
            f"(thermal wavelength {report.lambda_db:.3e} m)"
        )
        path = os.path.join(outdir, "estimate.csv")
        write_csv(
            path,
            ["mass_g", "temp_K", "dx_cm", "lambda_db_m", "ratio"],
            [[cfg["mass_g"], cfg["temp_K"], cfg["dx_cm"], report.lambda_db, report.ratio]],
        )
        outputs.append(path)
        summary["ratio"] = report.ratio
        ran = True
    if cfg["table1"]:
        if not cfg["constants"]:
            raise ConfigError("table mode needs 'constants'")
        entries = table1_scenarios(cfg["constants"])
        path = os.path.join(outdir, "estimate_table.csv")
        write_csv(
            path,
            ["environment", "object", "separation_m", "constant_kind", "constant_value",
             "tau_computed_s", "tau_reference_s"],
            [[e.environment, e.object_label, e.separation, e.constant_kind,
              e.constant_value, e.tau_computed, e.tau_reference] for e in entries],
        )
        outputs.append(path)
        ran = True
    if cfg["visibility"]:
        for key in ("gamma_per_pressure", "t_transit", "p_max"):
            if cfg[key] is None:
                raise ConfigError(f"visibility mode needs '{key}'")
        if cfg["n_p"] < 1:
            raise ConfigError(f"'n_p' must be at least 1, got {cfg['n_p']}")
        curve = visibility_vs_pressure(
            cfg["gamma_per_pressure"], cfg["t_transit"],
            np.linspace(0.0, cfg["p_max"], cfg["n_p"]), v0=cfg["v0"],
        )
        path = os.path.join(outdir, "visibility.csv")
        write_csv(
            path,
            ["pressure", "visibility"],
            [[p, v] for p, v in zip(curve.pressures, curve.visibility)],
        )
        outputs.append(path)
        ran = True
    if not ran:
        raise ConfigError(
            "choose a mode: --mass-g/--temp-K/--dx-cm, --table1, or --visibility"
        )
    return outputs, summary


COMMANDS = {
    "evolve": (EVOLVE_SCHEMA, _cmd_evolve, "integrate a diagonal-form master equation"),
    "trajectories": (TRAJECTORIES_SCHEMA, _cmd_trajectories,
                     "diffusive unraveling vs the master equation"),
    "collisional": (COLLISIONAL_SCHEMA, _cmd_collisional,
                    "scattering localization rate curve"),
    "qbm": (QBM_SCHEMA, _cmd_qbm, "damped-oscillator evolution with Wigner dumps"),
    "spinboson": (SPINBOSON_SCHEMA, _cmd_spinboson,
                  "exact dephasing vs the weak-coupling equation"),
    "spinspin": (SPINSPIN_SCHEMA, _cmd_spinspin, "central qubit in a qubit bath"),
    "sieve": (SIEVE_SCHEMA, _cmd_sieve, "predictability ranking of candidate states"),
    "dfs": (DFS_SCHEMA, _cmd_dfs, "protected-subspace search"),
    "qec": (QEC_SCHEMA, _cmd_qec, "phase-flip code logical error rates"),
    "estimate": (ESTIMATE_SCHEMA, _cmd_estimate, "SI timescale and visibility estimators"),
}


def _json_flag(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _add_field_flag(parser: argparse.ArgumentParser, field: Field) -> None:
    flag = "--" + field.name.replace("_", "-")
    kwargs: dict = {"dest": field.name, "help": field.help, "default": None}
    if field.kind == "float":
        kwargs["type"] = float
    elif field.kind == "int":
        kwargs["type"] = int
    elif field.kind == "bool":
        parser.add_argument(flag, dest=field.name, help=field.help, default=None,
                            action=argparse.BooleanOptionalAction)
        return
    elif field.kind == "str":
        kwargs["type"] = str
        if field.choices:
            kwargs["choices"] = field.choices
    else:  # json payloads stay flag-accessible as JSON text or a bare name
        kwargs["type"] = _json_flag
    parser.add_argument(flag, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="decosim",
        description="open-quantum-system scenario runner; emits CSV/JSON plus a manifest",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (schema, _, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for field in schema:
            _add_field_flag(p, field)
    return parser


def _json_safe(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    schema, handler, _ = COMMANDS[args.command]
    started = time.perf_counter()
    try:
        cfg = _resolve_config(schema, args.config, args)
        outdir = cfg.get("output") or "."
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"'output': cannot create directory: {exc}") from None
        outputs, summary = handler(cfg, outdir)
    # the numerical classes first: PhysicalityError, GridResolutionError and
    # LinAlgError are ValueErrors too
    except (ConvergenceError, PhysicalityError, GridResolutionError, np.linalg.LinAlgError) as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and every library parameter check
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = next(
        (cfg[k] for k in ("seed", "master_seed", "coupling_seed") if k in cfg), None
    )
    manifest = {
        "subcommand": args.command,
        "config": _json_safe(cfg),
        "seed": seed,
        "outputs": [os.path.basename(p) for p in outputs],
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "decosim": __version__,
        },
        "wall_time_s": time.perf_counter() - started,
        "summary": _json_safe(summary),
    }
    write_json(os.path.join(outdir, "manifest.json"), manifest)
    for path in outputs:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
