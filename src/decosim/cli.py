"""Scenario runner: every solver reachable as a subcommand that emits data files.

Configuration comes from a strict JSON file (--config), with any key
overridable by a same-named flag; unknown keys are rejected rather than
ignored.  A flag takes the same value as its key, written as JSON text
(bare text for str fields and for operator or state names; --x/--no-x for
bools), and ``_coerce`` checks both alike.  One rule, kept by ``_Config``,
decides which keys a run takes: a key the run reads must be set unless it
has a default, and a key that is set but never read (one that the chosen
mode of a subcommand does not use) exits 2 after the handler returns,
before any write.  Each run writes plot-ready CSV (17-significant-digit
scientific notation) plus a manifest.json recording the config keys the
run read, the seed, library versions, and wall time; the manifest's
"config" block rerun through --config reproduces the CSV bytes.  (Older
manifests echoed every field, defaults included, and replay only without
the keys their mode never reads.)

Handlers compute and return their outputs, each a file name (or names), a
writer and its unrendered arguments, with the manifest summary and the
result lines for stdout, and ``main`` alone writes them, then the
manifest, then prints the lines.  So a run that exits 2 or 3 writes no
data file and no manifest and prints nothing to stdout, and an output that
cannot be written exits 2: ``main`` removes every file the run already
wrote.

Exit codes: 0 success, 2 config error, 3 numerical contract violation.
``main`` is the only place that maps exceptions to them, each reported
as one stderr line: ConvergenceError (positivity abort, unconverged bath
discretization, too stiff a generator), PhysicalityError,
GridResolutionError and numpy's LinAlgError exit 3; any other ValueError
exits 2, and so does a MemoryError, since a grid too large for memory is a
config choice.  That covers a malformed command line, a ConfigError from
the parsing here and every library constructor or solver that rejects a
parameter, so handlers call the library without wrapping it and the CLI
adds only checks the library cannot make: JSON types and shapes,
cross-field rules, finite floats for every float field and int64 range
for every int field.
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
from typing import TYPE_CHECKING

import numpy as np

# only what every subcommand needs: each handler imports its solver when it runs
from . import __version__
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
from .errors import (
    ConfigError,
    ConvergenceError,
    GridResolutionError,
    PhysicalityError,
)
from .serialize import (
    pairs_to_array,
    render_cells,
    write_coordinate_matrix,
    write_csv,
    write_json,
)

if TYPE_CHECKING:
    from .dynamics import LindbladSpec
    from .models.qbm import WignerGrid

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
    choices: tuple[str, ...] | None = None


_JSON_TYPES = {"float": (int, float), "int": (int, float), "bool": bool, "str": str}


def _coerce(field: Field, value):
    """The one check of a config value, from a file or a flag: JSON type, range, choices.

    Numbers are JSON numbers, never booleans or text; an int may be written 1e3.
    A float must be finite and an int must fit an int64, except master_seed,
    the SeedSequence entropy of the per-block SFC64 streams, whose range
    [0, 2**64) TrajectoryConfig checks.
    """
    if field.kind == "json":
        return value
    out = value
    try:
        if (isinstance(value, bool) != (field.kind == "bool")
                or not isinstance(value, _JSON_TYPES[field.kind])):
            raise TypeError(value)
        if field.kind == "float":
            out = float(value)
        elif field.kind == "int" and (out := int(value)) != value:
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{field.name}' expects a {field.kind}, got {value!r}") from None
    if field.kind == "float" and not np.isfinite(out):
        raise ConfigError(f"'{field.name}' must be finite, got {value!r}")
    if field.kind == "int" and field.name != "master_seed" and not -2**63 <= out < 2**63:
        raise ConfigError(f"'{field.name}' must lie in [-2**63, 2**63), got {value!r}")
    if field.choices and out not in field.choices:
        raise ConfigError(f"'{field.name}' must be one of {list(field.choices)}, got {value!r}")
    return out


class _Config(dict):
    """A resolved config that records the keys a run reads.

    ``given`` holds the keys set by a flag or the config file, ``read`` the
    keys the run looked up.  ``cfg[key]`` on a key that holds no value is a
    missing required key; ``cfg.get(key)`` reads a key whose unset value
    the caller handles itself.
    """

    def __init__(self, values: dict, given: set[str]):
        super().__init__(values)
        self.given, self.read = given, set()

    def __getitem__(self, key):
        if (value := self.get(key)) is None:
            raise ConfigError(f"missing required config key '{key}'")
        return value

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _resolve_config(schema: tuple[Field, ...], config_path: str | None, ns) -> _Config:
    data = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        except RecursionError:
            raise ConfigError("config file nests JSON too deeply") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - {f.name for f in schema})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values, given = {}, set()
    for field in schema:
        value = getattr(ns, field.name, None)
        if value is None:
            value = data.get(field.name)
        if value is None:
            value = field.default
        else:
            given.add(field.name)
        values[field.name] = None if value is None else _coerce(field, value)
    return _Config(values, given)


def _parse_pairs(spec, what: str, names: dict, kind: str) -> np.ndarray:
    """A named constant, or a finite array from nested [re, im] pairs (a vector or a matrix)."""
    if isinstance(spec, str):
        if spec not in names:
            raise ConfigError(f"{what}: unknown {kind} name {spec!r}")
        return names[spec]
    try:
        arr = pairs_to_array(spec)
    except (ValueError, TypeError, OverflowError):
        raise ConfigError(f"{what}: expected a {kind} name or nested [re, im] pairs") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what}: entries must be finite")
    return arr


def _parse_operator(spec, what: str) -> np.ndarray:
    arr = _parse_pairs(spec, what, _NAMED_OPERATORS, "operator")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{what}: matrix must be square")
    return arr


def _unit_vector(arr: np.ndarray, what: str) -> np.ndarray:
    if arr.ndim != 1:
        raise ConfigError(f"{what}: state must be a vector")
    norm = np.linalg.norm(arr)
    if norm == 0:
        raise ConfigError(f"{what}: zero vector is not a state")
    return arr / norm


def _parse_state(spec, what: str) -> np.ndarray:
    arr = _parse_pairs(spec, what, _NAMED_STATES, "state")
    return arr if isinstance(spec, str) else _unit_vector(arr, what)


def _parse_list(spec, what: str) -> list:
    if not isinstance(spec, list):
        raise ConfigError(f"{what}: expected a JSON list, got {spec!r}")
    return spec


def _parse_floats(spec, what: str) -> list[float]:
    return [_coerce(Field(f"{what}[{k}]", "float", ""), v)
            for k, v in enumerate(_parse_list(spec, what))]


def _density_columns(dim: int) -> list[str]:
    """Headers of ``states.reshape(T, -1).view(float)``: re and im of each entry, row-major."""
    return [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim) for part in ("re", "im")]


def _uniform_grid(start: float, stop: float, n: int, what: str) -> np.ndarray:
    """n uniform points from start to stop; a grid past the double range is a config error."""
    # near DBL_MAX linspace's last product overflows before it puts stop itself
    # there, and a stop - start past DBL_MAX makes every point inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(start, stop, n)
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"the {what} grid from {start!r} to {stop!r} overflows a double")
    return grid


def _build_lindblad(cfg) -> LindbladSpec:
    from .dynamics import LindbladSpec

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
    Field("hamiltonian", "json", "operator name or [re,im] matrix"),
    Field("lindblad", "json", "list of {operator, rate}", default=[]),
)

EVOLVE_SCHEMA = _OPERATOR_FIELDS + (
    Field("rho0", "json", "initial state name, vector, or density matrix", default="plus"),
    Field("t_final", "float", "evolution time"),
    Field("dt", "float", "snapshot time step"),
    Field("store_every", "int", "snapshot stride in steps", default=1),
    Field("output", "str", "output directory", default="."),
)


def _cmd_evolve(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .dynamics import evolve

    spec = _build_lindblad(cfg)
    raw = cfg["rho0"]
    arr = _parse_pairs(raw, "rho0", _NAMED_STATES, "state")
    if arr.ndim == 1:
        rho0 = StateVector(arr if isinstance(raw, str) else _unit_vector(arr, "rho0")).density()
    else:
        try:
            rho0 = DensityMatrix(arr)
        except ValueError as exc:
            raise ConfigError(f"rho0: {exc}") from None
    result = evolve(spec, rho0, cfg["t_final"], cfg["dt"], cfg["store_every"])
    header = ["t", "purity", "entropy"] + _density_columns(spec.dim)
    table = np.column_stack([result.times, purity(result.states), spectral_entropy(result.spectra),
                             result.states.reshape(len(result.times), -1).view(float)])
    return [("evolve.csv", write_csv, header, table)], {}, []


TRAJECTORIES_SCHEMA = _OPERATOR_FIELDS + (
    Field("psi0", "json", "initial pure state", default="plus"),
    Field("t_final", "float", "evolution time"),
    Field("dt", "float", "Euler-Maruyama step"),
    Field("n_trajectories", "int", "ensemble size"),
    Field("master_seed", "int", "seed in [0, 2**64) of the per-block SFC64/SeedSequence streams",
          default=2026),
    Field("store_every", "int", "snapshot stride in steps", default=1),
    Field("workers", "int", "thread count (default: DECOSIM_WORKERS or 1)"),
    Field("output", "str", "output directory", default="."),
)


def _cmd_trajectories(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .dynamics import TrajectoryConfig, evolve, unravel

    spec = _build_lindblad(cfg)
    psi0 = StateVector(_parse_state(cfg["psi0"], "psi0"))
    tc = TrajectoryConfig(
        dt=cfg["dt"],
        t_final=cfg["t_final"],
        n_trajectories=cfg["n_trajectories"],
        master_seed=cfg["master_seed"],
    )
    ens = unravel(spec, psi0, tc, store_every=cfg["store_every"], n_workers=cfg.get("workers"))
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
    return ([("trajectories.csv", write_csv, header, table)],
            {"final_trace_distance": distance[-1]}, [])


COLLISIONAL_SCHEMA = (
    Field("density_amplitude", "float", "momentum density, uniform on (0, q_max)"),
    Field("q_max", "float", "momentum support cutoff"),
    Field("speed", "float", "environment particle speed (constant)"),
    Field("f2", "float", "isotropic |f|^2 (area per steradian)"),
    Field("dx_min", "float", "smallest separation"),
    Field("dx_max", "float", "largest separation"),
    Field("n_dx", "int", "number of separations", default=25),
    Field("log_spacing", "bool", "log-spaced separations", default=True),
    Field("output", "str", "output directory", default="."),
)


def _cmd_collisional(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .models.collisional import ScatteringModel, decoherence_rates, localization_rate

    if cfg["n_dx"] < 1 or cfg["dx_min"] <= 0 or cfg["dx_max"] <= cfg["dx_min"]:
        raise ConfigError("need n_dx >= 1 and 0 < dx_min < dx_max")
    model = ScatteringModel(cfg["density_amplitude"], cfg["speed"], cfg["f2"], cfg["q_max"])
    rates = decoherence_rates(model)
    # the lambda_dx2 column holds Lambda dx^2
    if not np.isfinite(rates.prefactor * (cfg["dx_max"] * cfg["dx_max"])):
        raise ConfigError("Lambda * dx_max^2 overflows a double")
    if cfg["log_spacing"]:
        grid = np.geomspace(cfg["dx_min"], cfg["dx_max"], cfg["n_dx"])
    else:
        grid = np.linspace(cfg["dx_min"], cfg["dx_max"], cfg["n_dx"])
    curve = localization_rate(model, grid)
    table = np.column_stack(
        [grid, curve, np.full_like(grid, rates.total_rate), rates.prefactor * grid**2]
    )
    header = ["dx", "localization_rate", "gamma_tot", "lambda_dx2"]
    return ([("collisional.csv", write_csv, header, table)],
            {"gamma_tot": rates.total_rate, "lambda": rates.prefactor}, [])


QBM_SCHEMA = (
    Field("mass", "float", "oscillator mass", default=1.0),
    Field("frequency", "float", "oscillator frequency", default=1.0),
    Field("gamma0", "float", "damping rate"),
    Field("cutoff", "float", "bath cutoff frequency"),
    Field("temperature", "float", "bath temperature"),
    Field("n_max", "int", "number-basis truncation", default=60),
    Field("pure_decoherence", "bool", "drop the dissipative term", default=False),
    Field("alpha", "float", "coherent amplitude of the two-packet state"),
    Field("t_final", "float", "evolution time"),
    Field("dt", "float", "snapshot time step"),
    Field("store_every", "int", "snapshot stride in steps", default=10),
    Field("wigner", "bool", "dump initial/final Wigner grids", default=True),
    Field("n_x", "int", "Wigner position-grid points", default=201),
    Field("x_max", "float", "Wigner grid half-width (default: auto)"),
    Field("output", "str", "output directory", default="."),
)


def _cmd_qbm(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .dynamics import evolve
    from .models.qbm import (
        CaldeiraLeggettGenerator,
        cat_state,
        coherent_state,
        truncation_tail,
        wigner_from_fock,
        wigner_positions,
    )

    gen = CaldeiraLeggettGenerator(
        cfg["mass"], cfg["frequency"], cfg["gamma0"], cfg["cutoff"], cfg["temperature"],
        n_max=cfg["n_max"], pure_decoherence=cfg["pure_decoherence"],
    )
    alpha = cfg["alpha"]
    if cfg["wigner"]:  # the window is checked before the evolution pays for it
        scale = np.sqrt(1.0 / (2.0 * cfg["mass"] * cfg["frequency"]))
        # default window: packet separation plus a thermal-width margin
        # near T = 0 expm1 overflows to inf, and 1/inf is the occupation's limit 0
        with np.errstate(over="ignore"):
            occupation = 1.0 / np.expm1(cfg["frequency"] / cfg["temperature"]) if cfg["temperature"] > 0 else 0.0
        if not np.isfinite(occupation):
            raise ConfigError(f"thermal occupation at temperature {cfg['temperature']!r} overflows")
        auto = (2.0 * abs(alpha) * np.sqrt(2.0) + 7.0 * np.sqrt(2.0 * occupation + 1.0)) * scale
        x_max = cfg.get("x_max")  # 0 or below fails the grid rule
        if x_max is None:
            x_max = auto
        positions = wigner_positions(_uniform_grid(-x_max, x_max, cfg["n_x"], "position"),
                                     cfg["mass"], cfg["frequency"])
    psi = cat_state(alpha, cfg["n_max"])
    rho0 = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    result = evolve(gen, rho0, cfg["t_final"], cfg["dt"], cfg["store_every"])
    left = coherent_state(alpha, cfg["n_max"]).amplitudes
    right = coherent_state(-alpha, cfg["n_max"]).amplitudes
    # <left| rho |right> over the stack; the (1, d) @ (d, 1) products take the
    # dot-product path of a single state's ``bra @ right``, so the column matches it bitwise
    bras = (left.conj() @ result.states)[:, None, :]
    cross = np.abs(bras @ right[:, None])[:, 0, 0]
    relative = cross / cross[0] if cross[0] > 0 else np.zeros_like(cross)
    table = np.column_stack([result.times, purity(result.states), spectral_entropy(result.spectra),
                             truncation_tail(result.states), relative])
    header = ["t", "purity", "entropy", "tail_population", "relative_coherence"]
    outputs = [("qbm.csv", write_csv, header, table)]
    if cfg["wigner"]:
        for tag, state in (("initial", result.states[0]), ("final", result.states[-1])):
            grid = wigner_from_fock(state, cfg["mass"], cfg["frequency"], positions)
            outputs.append(((f"wigner_{tag}.csv", f"wigner_{tag}_matrix.csv"), _write_wigner, grid))
    return outputs, {"final_relative_coherence": relative[-1]}, []


def _write_wigner(tri_path: str, mat_path: str, grid: WignerGrid) -> None:
    """(x, p, w) triples and the coordinate matrix of one grid, from one rendering of each value."""
    xs, ps, ws = render_cells(grid.x), render_cells(grid.p), render_cells(grid.values)
    triples = np.column_stack([np.repeat(xs, ps.size), np.tile(ps, xs.size), ws.ravel()])
    write_csv(tri_path, ["x", "p", "w"], triples)
    write_coordinate_matrix(mat_path, xs, ps, ws)


SPINBOSON_SCHEMA = (
    Field("mass", "float", "bath mass parameter of the spectral density", default=1.0),
    Field("gamma0", "float", "coupling scale of the spectral density"),
    Field("cutoff", "float", "spectral-density cutoff"),
    Field("temperature", "float", "bath temperature"),
    Field("splitting", "float", "level splitting", default=0.0),
    Field("tunneling", "float", "tunneling matrix element", default=0.0),
    Field("t_max", "float", "last grid time"),
    Field("n_times", "int", "time-grid points", default=101),
    Field("n_modes", "int", "bath modes for the exact solver", default=512),
    Field("check_convergence", "bool", "mode-doubling certification", default=True),
    Field("born_markov", "bool", "also integrate the weak-coupling equation", default=True),
    Field("output", "str", "output directory", default="."),
)


def _cmd_spinboson(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .baths import OhmicLorentzCutoff
    from .dynamics import evolve
    from .models.spinboson import spin_boson_born_markov_generator, spin_boson_exact_dephasing

    if cfg["n_times"] < 2:  # the weak-coupling step below reads times[1]
        raise ConfigError(f"'n_times' must be at least 2, got {cfg['n_times']}")
    if cfg["tunneling"] != 0.0 and not cfg["born_markov"]:
        raise ConfigError("with 'tunneling' != 0 there is no exact solver: turn on 'born_markov'")
    density = OhmicLorentzCutoff(cfg["mass"], cfg["gamma0"], cfg["cutoff"])
    times = _uniform_grid(0.0, cfg["t_max"], cfg["n_times"], "time")
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
    return [("spinboson.csv", write_csv, header, np.column_stack(columns))], summary, []


_SPIN_BATH_FIELDS = (
    Field("couplings", "json", "list of coupling strengths, one per environment qubit"),
    Field("splitting", "float", "system level splitting", default=0.0),
    Field("tunneling", "float", "system tunneling element", default=0.0),
)

SPINSPIN_SCHEMA = _SPIN_BATH_FIELDS + (
    Field("psi0", "json", "initial system state", default="plus"),
    Field("t_max", "float", "last grid time"),
    Field("n_times", "int", "time-grid points", default=201),
    Field("output", "str", "output directory", default="."),
)


def _cmd_spinspin(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .models.spinspin import SpinEnvironment, spin_spin_exact

    couplings = tuple(_parse_floats(cfg["couplings"], "couplings"))
    env = SpinEnvironment(couplings, splitting=cfg["splitting"], tunneling=cfg["tunneling"])
    psi0 = StateVector(_parse_state(cfg["psi0"], "psi0"))
    times = _uniform_grid(0.0, cfg["t_max"], cfg["n_times"], "time")
    result = spin_spin_exact(env, psi0, times)
    coherence = result.states[:, 0, 1]
    magnitude = np.hypot(coherence.real, coherence.imag)  # abs() of each entry, to the bit
    header = ["t", "coherence_abs", "purity"]
    columns = [times, magnitude / magnitude[0] if magnitude[0] > 0 else np.zeros_like(times),
               purity(result.states)]
    if cfg["tunneling"] == 0.0:
        header.append("product_reference")
        columns.append(np.prod(np.abs(np.cos(np.outer(times, couplings))), axis=1))
    return ([("spinspin.csv", write_csv, header, np.column_stack(columns))],
            {"couplings": list(couplings)}, [])


SIEVE_SCHEMA = (
    Field("scenario", "str", "model family", choices=("dephasing-qubit", "spin-spin")),
    Field("kappa", "float", "dephasing rate (dephasing-qubit)", default=1.0),
) + _SPIN_BATH_FIELDS + (
    Field("t_final", "float", "ranking horizon"),
    Field("n_times", "int", "time-grid points", default=41),
    Field("output", "str", "output directory", default="."),
)


def _cmd_sieve(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .dynamics import LindbladSpec
    from .models.spinspin import SpinEnvironment
    from .pointer import predictability_sieve

    labels = ["zero", "one", "plus", "minus"]
    candidates = [StateVector(_NAMED_STATES[name]) for name in labels]
    times = _uniform_grid(0.0, cfg["t_final"], cfg["n_times"], "time")
    if cfg["scenario"] == "dephasing-qubit":
        generator = LindbladSpec(
            Operator(np.zeros((2, 2), dtype=complex)),
            ((Operator(SIGMA_Z), cfg["kappa"]),),
        )
    else:
        generator = SpinEnvironment(
            tuple(_parse_floats(cfg["couplings"], "couplings")),
            splitting=cfg["splitting"], tunneling=cfg["tunneling"],
        )
    report = predictability_sieve(generator, candidates, times, labels=labels)
    cands = report.candidates
    values = np.column_stack([np.tile(times, len(cands)),
                              np.concatenate([c.purity for c in cands]),
                              np.concatenate([c.entropy for c in cands])])
    label_cells = np.repeat(np.array([c.label for c in cands], dtype=bytes), times.size)
    return ([("sieve.csv", write_csv, ["label", "t", "purity", "entropy"],
              np.column_stack([label_cells, render_cells(values)]))],
            {"ranking": list(report.ranking)},
            ["ranking (most predictable first): " + ", ".join(report.ranking)])


DFS_SCHEMA = (
    Field("collective", "bool", "use the shared sigma_z coupling family", default=False),
    Field("n", "int", "number of qubits (collective mode)"),
    Field("system_terms", "json", "list of system coupling matrices"),
    Field("env_terms", "json", "list of environment coupling matrices"),
    Field("output", "str", "output directory", default="."),
)


def _cmd_dfs(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .pointer import InteractionSpec, collective_dfs, dfs_find

    payload: dict = {}
    if cfg["collective"]:
        report = collective_dfs(cfg["n"])
        lines = [f"dimension {report.dimension}"]
        if report.labels:
            lines.append("basis: " + " ".join(report.labels))
        payload = {
            "dimension": report.dimension,
            "magnetization": report.magnetization,
            "exact_bits": report.exact_bits,
            "stirling_bits": report.stirling_bits,
            "efficiency": report.efficiency,
            "odd_fallback": report.odd_fallback,
            "basis_labels": report.labels,
        }
        if report.result is not None:
            payload["basis"] = report.result.basis
        summary = {"dimension": report.dimension}
    else:
        s_ops = [_parse_operator(m, f"system_terms[{k}]")
                 for k, m in enumerate(_parse_list(cfg["system_terms"], "system_terms"))]
        e_ops = [_parse_operator(m, f"env_terms[{k}]")
                 for k, m in enumerate(_parse_list(cfg["env_terms"], "env_terms"))]
        if len(s_ops) != len(e_ops):
            raise ConfigError("system_terms and env_terms must pair up")
        result = dfs_find(InteractionSpec(terms=tuple(zip(s_ops, e_ops))))
        lines = [f"dimension {result.dimension}"]
        payload = {
            "dimension": result.dimension,
            "eigenvalues": list(result.eigenvalues),
            "certificate_defect": result.certificate_defect,
            "basis": result.basis,
        }
        summary = {"dimension": result.dimension}
    return [("dfs_basis.json", write_json, payload)], summary, lines


QEC_SCHEMA = (
    Field("p_list", "json", "phase-flip probabilities", default=[0.01, 0.02, 0.05]),
    Field("n_shots", "int", "Monte Carlo shots per probability", default=100_000),
    Field("seed", "int", "sampling seed", default=0),
    Field("output", "str", "output directory", default="."),
)


def _cmd_qec(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .qec import logical_error_rate

    p_values = _parse_floats(cfg["p_list"], "p_list")
    rows = logical_error_rate(p_values, n_shots=cfg["n_shots"], seed=cfg["seed"])
    rates = np.array([[r.flip_probability, r.uncorrected_rate, r.corrected_rate] for r in rows])
    shots = np.array([str(r.n_shots) for r in rows], dtype=bytes)
    header = ["p", "logical_error_rate_uncorrected", "logical_error_rate_corrected", "n_shots"]
    return [("qec.csv", write_csv, header,
             np.column_stack([render_cells(rates.reshape(-1, 3)), shots]))], {}, []


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


def _cmd_estimate(cfg: _Config) -> tuple[list, dict, list[str]]:
    from .models.estimates import table1_scenarios, timescale_ratio, visibility_vs_pressure

    outputs: list = []
    summary: dict = {}
    lines: list[str] = []
    if cfg.given & {"mass_g", "temp_K", "dx_cm"}:
        report = timescale_ratio(cfg["mass_g"] * 1e-3, cfg["temp_K"], cfg["dx_cm"] * 1e-2)
        lines.append(
            f"relaxation/decoherence ratio ~ {report.ratio:.3e} "
            f"(thermal wavelength {report.lambda_db:.3e} m)"
        )
        values = [cfg["mass_g"], cfg["temp_K"], cfg["dx_cm"], report.lambda_db, report.ratio]
        outputs.append(("estimate.csv", write_csv,
                        ["mass_g", "temp_K", "dx_cm", "lambda_db_m", "ratio"], np.array([values])))
        summary["ratio"] = report.ratio
    if cfg["table1"]:
        entries = table1_scenarios(cfg["constants"])
        text = np.array([[e.environment, e.object_label, e.constant_kind] for e in entries],
                        dtype=bytes)
        numbers = render_cells(np.array([[e.separation, e.constant_value, e.tau_computed,
                                          e.tau_reference] for e in entries]))
        outputs.append((
            "estimate_table.csv", write_csv,
            ["environment", "object", "separation_m", "constant_kind", "constant_value",
             "tau_computed_s", "tau_reference_s"],
            np.column_stack([text[:, :2], numbers[:, :1], text[:, 2:], numbers[:, 1:]]),
        ))
    if cfg["visibility"]:
        if cfg["n_p"] < 1:
            raise ConfigError(f"'n_p' must be at least 1, got {cfg['n_p']}")
        curve = visibility_vs_pressure(
            cfg["gamma_per_pressure"], cfg["t_transit"],
            _uniform_grid(0.0, cfg["p_max"], cfg["n_p"], "pressure"), v0=cfg["v0"],
        )
        outputs.append(("visibility.csv", write_csv, ["pressure", "visibility"],
                        np.column_stack([curve.pressures, curve.visibility])))
    if not outputs:
        raise ConfigError(
            "choose a mode: --mass-g/--temp-K/--dx-cm, --table1, or --visibility"
        )
    return outputs, summary, lines


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
    except json.JSONDecodeError:  # a bare name, or text that _coerce rejects
        return text
    except RecursionError:  # the parser reports it through _Parser.error, a ConfigError
        raise argparse.ArgumentTypeError("JSON text nested too deeply") from None


def _add_field_flag(parser: argparse.ArgumentParser, field: Field) -> None:
    """A flag that converts and checks nothing itself: ``_coerce`` checks its value."""
    kwargs: dict = {"dest": field.name, "help": field.help, "default": None}
    if field.kind == "bool":
        kwargs["action"] = argparse.BooleanOptionalAction
    elif field.kind != "str":
        kwargs["type"] = _json_flag
    if field.choices:
        kwargs["metavar"] = "{" + ",".join(field.choices) + "}"
    parser.add_argument("--" + field.name.replace("_", "-"), **kwargs)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError: one stderr line and exit 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(
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


def _inode(path: str) -> int | None:
    try:
        return os.stat(path).st_ino
    except OSError:
        return None


def _write(outdir: str, before: dict, names, writer, *args) -> list[str]:
    """Call an output's writer on its paths in ``outdir``; ``before`` keeps each path's prior inode."""
    names = (names,) if isinstance(names, str) else names
    paths = [os.path.join(outdir, name) for name in names]
    before.update((path, _inode(path)) for path in paths)
    try:
        writer(*paths, *args)
    except OSError as exc:
        raise ConfigError(f"'output': cannot write {' and '.join(names)}: {exc}") from None
    return paths


def main(argv=None) -> int:
    started = time.perf_counter()
    before: dict[str, int | None] = {}
    try:
        args = build_parser().parse_args(argv)
        schema, handler, _ = COMMANDS[args.command]
        cfg = _resolve_config(schema, args.config, args)
        outdir = cfg["output"] or "."
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"'output': cannot create directory: {exc}") from None
        outputs, summary, lines = handler(cfg)
        unused = sorted(cfg.given - cfg.read)
        if unused:
            raise ConfigError(f"config keys this run does not use: {', '.join(unused)}")
        paths = [path for output in outputs for path in _write(outdir, before, *output)]
        manifest = {
            "subcommand": args.command,
            "config": _json_safe({k: v for k, v in cfg.items() if k in cfg.read}),
            "seed": next((cfg[k] for k in ("seed", "master_seed") if k in cfg), None),
            "outputs": [os.path.basename(p) for p in paths],
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "decosim": __version__,
            },
            "wall_time_s": time.perf_counter() - started,
            "summary": _json_safe(summary),
        }
        _write(outdir, before, "manifest.json", write_json, manifest)
    # the numerical classes first: PhysicalityError, GridResolutionError and
    # LinAlgError are ValueErrors too
    except (ConvergenceError, PhysicalityError, GridResolutionError, np.linalg.LinAlgError) as exc:
        code, message = 3, f"numerical contract violated: {exc}"
    except ValueError as exc:  # ConfigError and every library parameter check
        code, message = 2, f"config error: {exc}"
    except MemoryError as exc:
        code, message = 2, "config error: out of memory" + (f": {exc}" if str(exc) else "")
    else:
        for line in lines:
            print(line)
        for path in paths:
            print(f"wrote {path}")
        return 0
    for path, inode in before.items():  # a file this run created or replaced
        if _inode(path) not in (None, inode):
            os.unlink(path)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
