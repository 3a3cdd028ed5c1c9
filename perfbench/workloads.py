"""Benchmark workloads: seeded CLI inputs and the closed-form oracle for each op.

An op is one or more ``decosim`` subcommand invocations (steps).  Every
drawn parameter comes from the workload seed through stratified antithetic
draws: ops come in pairs at u and 1 - u of each parameter's range, with the
u of successive pairs taken from shuffled strata.  Any even number of ops is
then symmetric about the middle of every range, so a run's median op does
not hinge on which corner of the range a seed lands in.  The warm-up op
runs every parameter at the top of its range, so the process's high-water
memory is that of the workload's largest input in every run.

Each step's oracle reads the files the CLI wrote and raises ``OracleError``
when they disagree with a closed form evaluated here, independently of the
solver that produced them.

Known behaviour, recorded rather than hidden:

* ``qbm`` with its default Wigner window exits 3 (``GridResolutionError``)
  at T = 50, alpha = 2, n_max = 30: the thermal margin 7 sqrt(2 nbar + 1)
  makes the 161-point grid too coarse.  ``cat_master_equation`` therefore
  passes the explicit window x in [-8, 8] used by acceptance criterion 11.
* ``collisional`` fills its Gauss-Legendre node cache on first use (about
  1 s cold, 0.15 s warm); the warm-up op pays that fill, so it shows in
  ``setup_s`` of ``cli_sweep``.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# SI constants (CODATA 2018, exact by definition of the SI units)
HBAR = 6.62607015e-34 / (2.0 * math.pi)
K_BOLTZMANN = 1.380649e-23

STRATA = 4  # pairs per cycle


class OracleError(Exception):
    """An output disagrees with its closed-form reference."""


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its argv (without ``--output``) and its oracle."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[str, str], None]  # (output dir, captured stdout)
    trajectories: bool = False  # an ensemble whose bytes must not depend on workers


def _num(value: float) -> str:
    return repr(float(value))


def _flags(values: dict) -> tuple[str, ...]:
    """``--key value`` pairs for the CLI, keys in flag spelling."""
    return tuple(x for k, v in values.items() for x in ("--" + k.replace("_", "-"), str(v)))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def read_csv(path: str) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: [row[k] for row in body] for k, name in enumerate(header)}


def column(table: dict[str, list[str]], name: str) -> np.ndarray:
    return np.array([float(v) for v in table[name]])


def read_manifest(outdir: str) -> dict:
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ draws

class Draws:
    """Stratified antithetic per-op parameter values derived from one seed."""

    def __init__(self, seed: int, ranges: dict[str, tuple[float, float]]):
        self.ranges = ranges
        self.rng = np.random.default_rng(seed)
        self.cache: list[dict[str, float]] = []

    def _cycle(self) -> list[dict[str, float]]:
        columns = {}
        for name in self.ranges:
            u = (self.rng.permutation(STRATA) + self.rng.random(STRATA)) / STRATA
            columns[name] = np.ravel(np.column_stack([u, 1.0 - u]))
        return [
            {name: lo + float(columns[name][k]) * (hi - lo)
             for name, (lo, hi) in self.ranges.items()}
            for k in range(2 * STRATA)
        ]

    def op(self, index: int) -> dict[str, float]:
        while len(self.cache) <= index:
            self.cache += self._cycle()
        return self.cache[index]

    def top(self) -> dict[str, float]:
        return {name: hi for name, (lo, hi) in self.ranges.items()}


def _seed_int(u: float) -> int:
    """Map a draw in [0, 1] to a nonnegative 31-bit integer seed."""
    return int(u * (2**31 - 1))


# ---------------------------------------------------------- shared oracles

def _dephasing_reference(kappa: float, t: np.ndarray) -> np.ndarray:
    """Off-diagonal element of |+><+| under sigma_z dephasing at rate kappa."""
    return 0.5 * np.exp(-2.0 * kappa * t)


def _check_trajectories(kappa: float, n_traj: int) -> Callable[[str, str], None]:
    def check(outdir: str, stdout: str) -> None:
        table = read_csv(os.path.join(outdir, "trajectories.csv"))
        t = column(table, "t")
        ref = column(table, "ref_rho_0_1_re")
        dev = float(np.abs(ref - _dephasing_reference(kappa, t)).max())
        _require(dev < 1e-9, f"reference coherence off the closed form by {dev:.3e}")
        final = read_manifest(outdir)["summary"]["final_trace_distance"]
        # ensemble-vs-reference distance times sqrt(n) has mean ~0.45
        bound = 3.0 / math.sqrt(n_traj)
        _require(0.0 <= final < bound,
                 f"final trace distance {final:.4f} exceeds 3/sqrt(n) = {bound:.4f}")
    return check


def _trajectories_step(kappa: float, seed: int, n_traj: int) -> Step:
    argv = (
        "trajectories", "--hamiltonian", "identity",
        "--lindblad", json.dumps([{"operator": "sigma_z", "rate": kappa}]),
        "--psi0", "plus", "--t-final", "1.0", "--dt", "0.002",
        "--n-trajectories", str(n_traj), "--store-every", "50",
        "--master-seed", str(seed),
    )
    return Step("trajectories", argv, _check_trajectories(kappa, n_traj), trajectories=True)


# ------------------------------------------------------ trajectory_ensemble

def trajectory_ensemble(p: dict[str, float]) -> list[Step]:
    return [_trajectories_step(p["kappa"], _seed_int(p["seed"]), 4000)]


# ------------------------------------------------------ cat_master_equation

CAT = dict(mass=1.0, frequency=1.0, gamma0=0.01, cutoff=10.0, temperature=50.0, n_max=40)


def cat_master_equation(p: dict[str, float]) -> list[Step]:
    alpha = p["alpha"]
    argv = (
        "qbm", *_flags(CAT), "--pure-decoherence", "--alpha", _num(alpha),
        "--t-final", "0.1", "--dt", "1e-4", "--store-every", "50",
        "--wigner", "--n-x", "161", "--x-max", "8.0",
    )

    def check(outdir: str, stdout: str) -> None:
        table = read_csv(os.path.join(outdir, "qbm.csv"))
        t = column(table, "t")
        rel = column(table, "relative_coherence")
        early = t <= 0.04 + 1e-12
        rate = float(-np.polyfit(t[early], np.log(rel[early]), 1)[0])
        # packets at +-2 alpha x_zpf, x_zpf = 1/sqrt(2 M w)
        dx = 4.0 * alpha / math.sqrt(2.0 * CAT["mass"] * CAT["frequency"])
        predicted = 2.0 * CAT["mass"] * CAT["gamma0"] * CAT["temperature"] * dx**2
        _require(abs(rate - predicted) < 0.10 * predicted,
                 f"early decay rate {rate:.3f} vs 2 M gamma0 T dx^2 = {predicted:.3f}")
        tail = float(column(table, "tail_population").max())
        _require(tail < 1e-8, f"Fock tail population {tail:.3e} >= 1e-8")
        matrix = read_csv(os.path.join(outdir, "wigner_final_matrix.csv"))
        _require(len(matrix["row\\col"]) == 161, "Wigner matrix does not have 161 rows")

    return [Step("qbm", argv, check)]


# ------------------------------------------------------ spin_boson_crossval

SPIN_BOSON = dict(mass=1.0, gamma0=0.01, cutoff=8.0, n_modes=512, n_times=81)


def independent_boson_coherence(temperature: float, times: np.ndarray, n_modes: int) -> np.ndarray:
    """|rho01(t)/rho01(0)| = exp(-sum_j 4 g_j^2/w_j^2 (1 - cos w_j t) coth(w_j / 2T)).

    Evaluated on the solver's midpoint grid, g_j^2 = J(w_j) dw over
    (0, 5 cutoff), for the Ohmic Lorentz-Drude density J.
    """
    m, g0, wc = SPIN_BOSON["mass"], SPIN_BOSON["gamma0"], SPIN_BOSON["cutoff"]
    dw = 5.0 * wc / n_modes
    w = (np.arange(n_modes) + 0.5) * dw
    g_sq = (2.0 * m * g0 / math.pi) * w * wc**2 / (wc**2 + w**2) * dw
    weight = 4.0 * g_sq / w**2 / np.tanh(w / (2.0 * temperature))
    return np.exp(-(1.0 - np.cos(np.outer(times, w))) @ weight)


def spin_boson_crossval(p: dict[str, float]) -> list[Step]:
    temperature = p["temperature"]
    t_max = 16.0 / temperature
    argv = (
        "spinboson", *_flags(SPIN_BOSON), "--temperature", _num(temperature),
        "--t-max", _num(t_max), "--check-convergence", "--born-markov",
    )

    def check(outdir: str, stdout: str) -> None:
        table = read_csv(os.path.join(outdir, "spinboson.csv"))
        t = column(table, "t")
        exact = column(table, "exact_abs")
        # the doubling check reports the refined (2 n_modes) product
        closed = independent_boson_coherence(temperature, t, 2 * SPIN_BOSON["n_modes"])
        dev = float(np.abs(exact - closed).max())
        _require(dev < 5e-4, f"exact_abs off the independent-boson closed form by {dev:.2e}")
        below = np.nonzero(exact < 1.0 / math.e)[0]
        _require(below.size > 0, "coherence never falls below 1/e on the time grid")
        k = int(below[0])
        tau = float(np.interp(1.0 / math.e, [exact[k], exact[k - 1]], [t[k], t[k - 1]]))
        weak = column(table, "born_markov_abs")
        window = t <= tau
        rel = float((np.abs(weak[window] - exact[window]) / exact[window]).max())
        _require(rel < 0.05, f"Born-Markov envelope deviates {rel:.2%} before the 1/e time")
        summary = read_manifest(outdir)["summary"]
        _require(abs(summary["population_drift"]) < 1e-10, "population drift above 1e-10")
        _require(abs(summary["mode_doubling_change"]) < 0.02, "mode doubling moved >= 0.02")

    return [Step("spinboson", argv, check)]


# ---------------------------------------------------------------- cli_sweep

def _evolve_step(kappa: float) -> Step:
    argv = (
        "evolve", "--hamiltonian", "identity",
        "--lindblad", json.dumps([{"operator": "sigma_z", "rate": kappa}]),
        "--rho0", "plus", "--t-final", "1.0", "--dt", "0.001", "--store-every", "20",
    )

    def check(outdir: str, stdout: str) -> None:
        table = read_csv(os.path.join(outdir, "evolve.csv"))
        t = column(table, "t")
        coh = column(table, "rho_0_1_re")
        dev = float(np.abs(coh - _dephasing_reference(kappa, t)).max())
        _require(dev < 1e-8, f"evolve coherence off 0.5 exp(-2 kappa t) by {dev:.2e}")
        purity = column(table, "purity")
        dev = float(np.abs(purity - 0.5 * (1.0 + np.exp(-4.0 * kappa * t))).max())
        _require(dev < 1e-8, f"evolve purity off the closed form by {dev:.2e}")

    return Step("evolve", argv, check)


def _collisional_step(density: float, speed: float, f2: float) -> Step:
    q_max = 2.0
    argv = (
        "collisional", "--density-amplitude", _num(density), "--q-max", _num(q_max),
        "--speed", _num(speed), "--f2", _num(f2),
        "--dx-min", "0.01", "--dx-max", "200.0", "--n-dx", "40", "--log-spacing",
    )

    def check(outdir: str, stdout: str) -> None:
        gamma_tot = 4.0 * math.pi * density * speed * f2 * q_max
        prefactor = (4.0 * math.pi / 3.0) * density * speed * f2 * q_max**3 / 3.0
        summary = read_manifest(outdir)["summary"]
        _require(abs(summary["gamma_tot"] - gamma_tot) < 1e-6 * gamma_tot, "Gamma_tot off")
        _require(abs(summary["lambda"] - prefactor) < 1e-6 * prefactor, "Lambda off")
        table = read_csv(os.path.join(outdir, "collisional.csv"))
        dx = column(table, "dx")
        rate = column(table, "localization_rate")
        _require(abs(rate[-1] - gamma_tot) < 0.01 * gamma_tot,
                 f"rate at dx={dx[-1]:g} not saturated at Gamma_tot")
        quad_law = prefactor * dx[0] ** 2
        _require(abs(rate[0] - quad_law) < 1e-3 * quad_law,
                 f"rate at dx={dx[0]:g} off the quadratic law")

    return Step("collisional", argv, check)


def _spinspin_step(couplings: list[float], tunneling: float) -> Step:
    t_max, n_times = 2.0, 201
    argv = (
        "spinspin", "--couplings", json.dumps(couplings), "--tunneling", _num(tunneling),
        "--psi0", "plus", "--t-max", _num(t_max), "--n-times", str(n_times),
    )

    def check(outdir: str, stdout: str) -> None:
        # each bath bit string s gives H_s = a_s sz + b sx; propagate |+> by
        # eigendecomposition and average with equal weights
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(couplings))))
        a = 0.5 * signs @ np.asarray(couplings)
        b = -0.5 * tunneling
        h = np.zeros((a.size, 2, 2))
        h[:, 0, 0], h[:, 1, 1] = a, -a
        h[:, 0, 1] = h[:, 1, 0] = b
        energies, vectors = np.linalg.eigh(h)
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        amps = np.einsum("sji,j->si", vectors, plus)  # eigenbasis coefficients
        times = np.linspace(0.0, t_max, n_times)
        coherence = np.empty(n_times)
        purity = np.empty(n_times)
        for k, t in enumerate(times):
            psi = np.einsum("sij,sj->si", vectors, amps * np.exp(-1j * energies * t))
            rho = np.einsum("si,sj->ij", psi, psi.conj()) / a.size
            coherence[k] = abs(rho[0, 1]) / 0.5
            purity[k] = float(np.real(np.sum(rho * rho.T)))
        table = read_csv(os.path.join(outdir, "spinspin.csv"))
        dev = float(np.abs(column(table, "coherence_abs") - coherence).max())
        _require(dev < 1e-9, f"spin-spin coherence off the eigenbasis reference by {dev:.2e}")
        dev = float(np.abs(column(table, "purity") - purity).max())
        _require(dev < 1e-9, f"spin-spin purity off the eigenbasis reference by {dev:.2e}")

    return Step("spinspin", argv, check)


def _check_ranking(first_two: set[str]) -> Callable[[str, str], None]:
    def check(outdir: str, stdout: str) -> None:
        ranking = read_manifest(outdir)["summary"]["ranking"]
        _require(set(ranking[:2]) == first_two,
                 f"sieve ranking {ranking} does not lead with {sorted(first_two)}")
        _require(f"ranking (most predictable first): {', '.join(ranking)}" in stdout,
                 "printed ranking differs from the manifest")
    return check


def _sieve_spinspin_step(couplings: list[float]) -> Step:
    argv = (
        "sieve", "--scenario", "spin-spin", "--couplings", json.dumps(couplings),
        "--tunneling", "0.2", "--t-final", "1.5", "--n-times", "121",
    )
    return Step("sieve_spinspin", argv, _check_ranking({"zero", "one"}))


def _sieve_dephasing_step(kappa: float) -> Step:
    argv = (
        "sieve", "--scenario", "dephasing-qubit", "--kappa", _num(kappa),
        "--t-final", "1.0", "--n-times", "11",
    )
    ranking = _check_ranking({"zero", "one"})

    def check(outdir: str, stdout: str) -> None:
        ranking(outdir, stdout)
        table = read_csv(os.path.join(outdir, "sieve.csv"))
        labels = np.array(table["label"])
        t = column(table, "t")
        purity = column(table, "purity")
        for label in ("plus", "minus"):
            sel = labels == label
            dev = float(np.abs(purity[sel] - 0.5 * (1.0 + np.exp(-4.0 * kappa * t[sel]))).max())
            _require(dev < 1e-6, f"sieve purity of {label} off the closed form by {dev:.2e}")
        for label in ("zero", "one"):
            dev = float(np.abs(purity[labels == label] - 1.0).max())
            _require(dev < 1e-9, f"sieve purity of {label} left 1 by {dev:.2e}")

    return Step("sieve_dephasing", argv, check)


def _dfs_step() -> Step:
    argv = ("dfs", "--collective", "--n", "8")

    def check(outdir: str, stdout: str) -> None:
        with open(os.path.join(outdir, "dfs_basis.json"), encoding="utf-8") as handle:
            payload = json.load(handle)
        _require(payload["dimension"] == math.comb(8, 4) and "dimension 70" in stdout,
                 "collective DFS dimension != C(8,4)")
        labels = payload["basis_labels"]
        _require(len(set(labels)) == 70 and all(s.count("1") == 4 for s in labels),
                 "collective DFS basis is not the balanced 8-bit strings")

    return Step("dfs", argv, check)


def _qec_step(p_values: list[float], seed: int) -> Step:
    n_shots = 100_000
    argv = (
        "qec", "--p-list", json.dumps(p_values), "--n-shots", str(n_shots), "--seed", str(seed),
    )

    def check(outdir: str, stdout: str) -> None:
        table = read_csv(os.path.join(outdir, "qec.csv"))
        p = column(table, "p")
        raw = column(table, "logical_error_rate_uncorrected")
        corrected = column(table, "logical_error_rate_corrected")
        # corrected failures need two or more flips: 3p^2 - 2p^3 ~ 3p^2;
        # uncorrected ones need at least one flip: 1 - (1-p)^3
        for observed, expected, what in (
            (corrected, 3.0 * p**2 - 2.0 * p**3, "corrected"),
            (raw, 1.0 - (1.0 - p) ** 3, "uncorrected"),
        ):
            sigma = np.sqrt(expected * (1.0 - expected) / n_shots)
            z = float(np.abs(observed - expected).max() / sigma.min())
            _require(np.all(np.abs(observed - expected) < 5.0 * sigma),
                     f"{what} logical error rate off the binomial law (|z| up to {z:.1f})")

    return Step("qec", argv, check)


def _estimate_ratio_step(mass_g: float, temp_k: float, dx_cm: float) -> Step:
    argv = ("estimate", "--mass-g", _num(mass_g), "--temp-K", _num(temp_k), "--dx-cm", _num(dx_cm))

    def check(outdir: str, stdout: str) -> None:
        # (dx / lambda_dB)^2 with lambda_dB = hbar / sqrt(2 m k T); 7.4487e40 at 1 g, 300 K, 1 cm
        wavelength = HBAR / math.sqrt(2.0 * mass_g * 1e-3 * K_BOLTZMANN * temp_k)
        expected = (dx_cm * 1e-2 / wavelength) ** 2
        ratio = read_manifest(outdir)["summary"]["ratio"]
        _require(abs(ratio - expected) < 1e-9 * expected,
                 f"timescale ratio {ratio:.6e} vs (dx/lambda)^2 = {expected:.6e}")

    return Step("estimate_ratio", argv, check)


def _estimate_visibility_step(gamma: float, t_transit: float, p_max: float) -> Step:
    argv = (
        "estimate", "--visibility", "--gamma-per-pressure", _num(gamma),
        "--t-transit", _num(t_transit), "--p-max", _num(p_max), "--n-p", "50",
    )

    def check(outdir: str, stdout: str) -> None:
        table = read_csv(os.path.join(outdir, "visibility.csv"))
        pressure = column(table, "pressure")
        expected = np.exp(-gamma * t_transit * pressure)
        dev = float(np.abs(column(table, "visibility") - expected).max())
        _require(dev < 1e-12, f"visibility off exp(-gamma p t) by {dev:.2e}")

    return Step("estimate_visibility", argv, check)


def cli_sweep(p: dict[str, float]) -> list[Step]:
    spin_rng = np.random.default_rng(_seed_int(p["couplings"]))
    bath = [float(g) for g in spin_rng.uniform(0.25, 1.0, 12)]
    sieve_bath = [float(g) for g in spin_rng.uniform(0.8, 1.2, 4)]
    p_values = [0.01, 0.02, p["p_flip"]]
    return [
        _evolve_step(p["kappa_evolve"]),
        _trajectories_step(p["kappa_traj"], _seed_int(p["seed"]), 200),
        _collisional_step(p["density"], p["speed"], p["f2"]),
        _spinspin_step(bath, p["tunneling"]),
        _sieve_spinspin_step(sieve_bath),
        _sieve_dephasing_step(p["kappa_sieve"]),
        _dfs_step(),
        _qec_step(p_values, _seed_int(p["seed"])),
        _estimate_ratio_step(p["mass_g"], p["temp_K"], p["dx_cm"]),
        _estimate_visibility_step(p["gamma_p"], p["t_transit"], p["p_max"]),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    ranges: dict[str, tuple[float, float]]
    build: Callable[[dict[str, float]], list[Step]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trajectory_ensemble", {"kappa": (0.5, 2.0), "seed": (0.0, 1.0)},
                 trajectory_ensemble),
        Workload("cat_master_equation", {"alpha": (1.5, 2.5)}, cat_master_equation),
        Workload("spin_boson_crossval", {"temperature": (1.0, 1.2)}, spin_boson_crossval),
        Workload(
            "cli_sweep",
            {
                "kappa_evolve": (0.25, 1.0), "kappa_traj": (0.5, 2.0), "seed": (0.0, 1.0),
                "density": (0.5, 2.0), "speed": (0.5, 2.0), "f2": (0.5, 2.0),
                "couplings": (0.0, 1.0), "tunneling": (0.1, 0.5), "kappa_sieve": (0.5, 2.0),
                "p_flip": (0.03, 0.08), "mass_g": (0.5, 2.0), "temp_K": (200.0, 400.0),
                "dx_cm": (0.5, 2.0), "gamma_p": (0.5, 3.0), "t_transit": (0.2, 1.0),
                "p_max": (1.0, 5.0),
            },
            cli_sweep,
        ),
    )
}
