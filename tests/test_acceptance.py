"""End-to-end acceptance suite: one test per headline scenario.

Every test carries a hard wall-clock budget and prints a one-line summary
with its measured figure of merit.  Expected constants are frozen from
closed-form oracles; the per-module unit suites hold the derivations.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from decosim import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    SIGMA_Z,
    DensityMatrix,
    ErrorModel,
    LindbladSpec,
    OhmicLorentzCutoff,
    Operator,
    StateVector,
    TrajectoryConfig,
    apply_channel,
    apply_errors,
    collective_dephasing_spec,
    collective_dfs,
    dfs_find,
    encode,
    evolve,
    indirect_measurement,
    kraus_from_unitary,
    logical_error_rate,
    predictability_sieve,
    syndrome_and_recover,
    unravel,
)
from decosim.models import (
    CaldeiraLeggettGenerator,
    FreeParticleGenerator,
    GridState,
    ScatteringModel,
    SpinEnvironment,
    cat_state,
    coherent_state,
    decoherence_rates,
    evolve_collisional,
    evolve_free_particle,
    localization_rate,
    position_moments,
    spin_boson_born_markov_generator,
    spin_boson_exact_dephasing,
    timescale_ratio,
    truncation_tail,
    two_gaussian_superposition,
    wigner_from_fock,
)
from decosim.models.estimates import ENVIRONMENTS, OBJECTS, REFERENCE_SECONDS


class _Budget:
    """Wall-clock guard; check() asserts and returns the elapsed seconds."""

    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit:.0f}s"
        return elapsed


def _pure(amplitudes: np.ndarray) -> DensityMatrix:
    return DensityMatrix(np.outer(amplitudes, amplitudes.conj()))


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


DEPHASING = LindbladSpec(
    Operator(np.zeros((2, 2), dtype=complex)), ((Operator(SIGMA_Z), 1.0),)
)
PLUS = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))


def test_criterion_01_macroscopic_timescale_ratio():
    budget = _Budget(1.0)
    report = timescale_ratio(1e-3, 300.0, 1e-2)
    magnitude = np.log10(report.ratio)
    assert 39.0 <= magnitude <= 41.0
    assert report.ratio == pytest.approx(7.448729632423218e40, rel=1e-6)
    elapsed = budget.check()
    print(f"criterion 01 PASS: log10(tau_r/tau_d) = {magnitude:.2f} [{elapsed:.2f}s]")


def test_criterion_02_collective_dfs_dimension_and_projector():
    budget = _Budget(5.0)
    report = collective_dfs(4)
    assert report.dimension == 6
    labels = {
        format(int(np.argmax(np.abs(row))), "04b")
        for row in report.result.basis
    }
    assert labels == {"0011", "0101", "0110", "1001", "1010", "1100"}
    found = dfs_find(collective_dephasing_spec(4))
    gap = float(np.linalg.norm(found.projector() - report.result.projector()))
    assert gap < 1e-9
    elapsed = budget.check()
    print(f"criterion 02 PASS: dim 6, projector gap {gap:.2e} [{elapsed:.2f}s]")


def test_criterion_03_dephasing_closed_form():
    budget = _Budget(1.0)
    res = evolve(DEPHASING, _pure(PLUS.amplitudes), 1.0, dt=2.5e-4, store_every=4000)
    coherence = res.states[-1][0, 1]
    expected = 0.5 * np.exp(-2.0)
    rel = abs(coherence - expected) / expected
    assert rel < 1e-6
    elapsed = budget.check()
    print(f"criterion 03 PASS: off-diagonal rel error {rel:.2e} [{elapsed:.2f}s]")


def test_criterion_04_channel_dilation_equivalence():
    budget = _Budget(10.0)
    rng = np.random.default_rng(404)
    projectors = (
        Operator(np.diag([1.0, 0.0]).astype(complex)),
        Operator(np.diag([0.0, 1.0]).astype(complex)),
    )

    def random_pure(dim: int) -> DensityMatrix:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return _pure(psi / np.linalg.norm(psi))

    worst_channel = 0.0
    worst_mixture = 0.0
    for _ in range(50):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        u = Operator(q * (np.diagonal(r) / np.abs(np.diagonal(r))), dims=(2, 2))
        rho_sys = random_pure(2)
        rho_env = random_pure(2)
        # brute-force oracle: conjugate the joint state, trace out the ancilla
        joint = u.entries @ np.kron(rho_sys.entries, rho_env.entries) @ u.entries.conj().T
        oracle = joint.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        through = apply_channel(kraus_from_unitary(u, rho_env), rho_sys).entries
        worst_channel = max(worst_channel, float(np.abs(through - oracle).max()))
        branches = indirect_measurement(u, rho_sys, rho_env, projectors)
        mixture = sum(p * cond.entries for p, cond in branches if cond is not None)
        worst_mixture = max(worst_mixture, float(np.abs(mixture - through).max()))
    assert worst_channel < 1e-10
    assert worst_mixture < 1e-9
    elapsed = budget.check()
    print(
        f"criterion 04 PASS: channel dev {worst_channel:.2e}, "
        f"mixture dev {worst_mixture:.2e} [{elapsed:.2f}s]"
    )


def test_criterion_05_trajectory_convergence_rate():
    budget = _Budget(60.0)
    reference = evolve(
        DEPHASING, _pure(PLUS.amplitudes), 1.0, dt=2.5e-4, store_every=4000
    ).states[-1]

    sizes = (100, 1000, 10000)
    means = []
    single_run = None
    for i, n in enumerate(sizes):
        reps = []
        for r in range(25):
            cfg = TrajectoryConfig(
                dt=2e-3, t_final=1.0, n_trajectories=n, master_seed=7000 + 100 * i + r
            )
            out = unravel(DEPHASING, PLUS, cfg, store_every=500)
            reps.append(_trace_distance(out.ensemble[-1], reference))
        means.append(float(np.mean(reps)))
        if n == 10000:
            single_run = reps[0]
    assert single_run < 0.02
    slope = float(np.polyfit(np.log10(sizes), np.log10(means), 1)[0])
    assert -0.6 <= slope <= -0.4
    elapsed = budget.check()
    print(
        f"criterion 05 PASS: d(1e4) = {single_run:.4f}, "
        f"scaling exponent {slope:.3f} [{elapsed:.1f}s]"
    )


def test_criterion_06_collisional_rate_limits():
    budget = _Budget(30.0)
    model = ScatteringModel(1.0, 1.0, 1.0, q_max=2.0)
    gamma_tot = decoherence_rates(model).total_rate
    assert gamma_tot == pytest.approx(8.0 * np.pi, rel=1e-9)
    prefactor = decoherence_rates(model).prefactor
    saturated = localization_rate(model, 200.0)
    rel_big = abs(saturated - gamma_tot) / gamma_tot
    assert rel_big < 0.01
    quadratic = localization_rate(model, 0.01)
    rel_small = abs(quadratic - prefactor * 1e-4) / (prefactor * 1e-4)
    assert rel_small < 0.01

    slow = ScatteringModel(1000.0, 1.0, 1.0, q_max=0.05)
    lam = decoherence_rates(slow).prefactor
    x = np.linspace(-6.0, 6.0, 121)
    state = two_gaussian_superposition(x, separation=4.0, sigma=0.2)
    evolved = evolve_collisional(state, slow, 1.0)
    n = x.size
    block0 = np.abs(state.matrix[: n // 2, n // 2 + 1 :])
    block1 = np.abs(evolved.matrix[: n // 2, n // 2 + 1 :])
    peak = np.unravel_index(np.argmax(block0), block0.shape)
    exponent = float(np.log(block0[peak] / block1[peak]))
    expected = lam * 16.0
    rel_grid = abs(exponent - expected) / expected
    assert rel_grid < 0.01
    elapsed = budget.check()
    print(
        f"criterion 06 PASS: saturation {rel_big:.2%}, quadratic {rel_small:.2%}, "
        f"grid exponent {rel_grid:.2%} [{elapsed:.2f}s]"
    )


def test_criterion_07_localization_rates():
    budget = _Budget(120.0)
    gen = CaldeiraLeggettGenerator(
        1.0, 1.0, 0.01, 10.0, 50.0, n_max=30, pure_decoherence=True
    )
    res = evolve(gen, _pure(cat_state(2.0, 30).amplitudes), 0.04, 2e-4, store_every=20)
    left = coherent_state(2.0, 30).amplitudes
    right = coherent_state(-2.0, 30).amplitudes
    cross = np.array([abs(left.conj() @ s @ right) for s in res.states])
    rate = float(-np.polyfit(res.times, np.log(cross), 1)[0])
    # separation 4*sqrt(2) and thermal wavelength 0.1 give a predicted rate 32
    predicted = 0.01 * (4.0 * np.sqrt(2.0) / 0.1) ** 2
    rel_cat = abs(rate - predicted) / predicted
    assert rel_cat < 0.10
    assert truncation_tail(res.states[-1]) < 1e-8

    x = np.linspace(-12.0, 12.0, 96)
    psi = np.exp(-x * x / 4.0).astype(complex)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
    times, frames = evolve_free_particle(
        FreeParticleGenerator(x, 1.0, 1.0, 0.5),
        GridState(x, np.outer(psi, psi.conj())),
        5.0,
        5e-3,
        store_every=100,
    )
    times = np.asarray(times)
    variances = np.array([position_moments(f)[1] for f in frames])
    late = times >= 3.0
    slope = float(np.polyfit(times[late], variances[late], 1)[0])
    rel_free = abs(slope - 0.5) / 0.5
    assert rel_free < 0.10
    elapsed = budget.check()
    print(
        f"criterion 07 PASS: superposition rate {rate:.2f} vs {predicted:.0f} "
        f"({rel_cat:.2%}), spreading slope {slope:.4f} ({rel_free:.2%}) [{elapsed:.1f}s]"
    )


def test_criterion_08_spin_boson_cross_validation():
    budget = _Budget(300.0)
    density = OhmicLorentzCutoff(1.0, 0.01, 8.0)
    taus = {}
    worst = 0.0
    for temperature, t_max in ((2.0, 8.0), (4.0, 4.0)):
        times = np.linspace(0.0, t_max, 81)
        exact = spin_boson_exact_dephasing(
            density, temperature, times, n_modes=2048, omega_max=160.0
        )
        assert exact.population_drift < 1e-10
        gen = spin_boson_born_markov_generator(density, temperature, 0.0, 0.0)
        envelope = np.exp(-4.0 * gen.dephasing * times)
        magnitude = np.abs(exact.coherence)
        tau = float(np.interp(1.0 / np.e, magnitude[::-1], times[::-1]))
        taus[temperature] = tau
        window = times <= tau
        rel = np.abs(magnitude[window] - envelope[window]) / envelope[window]
        worst = max(worst, float(rel.max()))
        assert rel.max() < 0.05
    ratio = taus[2.0] / taus[4.0]
    assert abs(ratio - 2.0) / 2.0 < 0.10
    elapsed = budget.check()
    print(
        f"criterion 08 PASS: worst envelope dev {worst:.2%}, "
        f"1/e-time ratio {ratio:.3f} [{elapsed:.1f}s]"
    )


def test_criterion_09_pointer_basis_crossover():
    budget = _Budget(60.0)
    candidates = [KET_0, KET_1, KET_PLUS, KET_MINUS]
    labels = ["zero", "one", "plus", "minus"]
    coupled = SpinEnvironment((0.8, 1.0, 1.2, 0.9), tunneling=0.2)
    ranking_a = predictability_sieve(
        coupled, candidates, np.linspace(0.0, 1.5, 121), labels=labels
    ).ranking
    assert ranking_a == ("zero", "one", "plus", "minus")
    tunneling = SpinEnvironment((0.3, 0.25, 0.35, 0.28), tunneling=25.0)
    ranking_b = predictability_sieve(
        tunneling, candidates, np.linspace(0.0, 40.0, 161), labels=labels
    ).ranking
    assert ranking_b == ("plus", "minus", "zero", "one")
    elapsed = budget.check()
    print(
        f"criterion 09 PASS: coupling-dominated {ranking_a[:2]}, "
        f"tunneling-dominated {ranking_b[:2]} [{elapsed:.1f}s]"
    )


def _phase_flip(state: StateVector, qubit: int) -> StateVector:
    op = np.array([[1.0]], dtype=complex)
    for k in range(3):
        factor = SIGMA_Z if k == qubit else np.eye(2, dtype=complex)
        op = np.kron(op, factor)
    return StateVector(op @ state.amplitudes, dims=(2, 2, 2))


def test_criterion_10_phase_flip_code_contract():
    budget = _Budget(60.0)
    logical = StateVector(
        np.array([np.cos(0.35), np.exp(0.3j) * np.sin(0.35)], dtype=complex)
    )
    encoded = encode(logical)
    for qubit in range(3):
        outcomes = syndrome_and_recover(_phase_flip(encoded, qubit), psi_logical=logical)
        assert len(outcomes) == 1
        assert abs(outcomes[0].fidelity - 1.0) < 1e-10
        assert outcomes[0].corrected_qubit == qubit

    # syndrome statistics carry no amplitude information
    model = ErrorModel("partial-decoherence", entangled_qubits=3, angle=0.45)

    def profile(state: StateVector) -> dict:
        noisy, _ = apply_errors(encode(state), model)
        return {
            out.label: out.probability
            for out in syndrome_and_recover(noisy, psi_logical=state)
        }

    first = profile(logical)
    second = profile(StateVector(np.array([0.28, -0.96j], dtype=complex)))
    assert set(first) == set(second)
    for key in first:
        assert abs(first[key] - second[key]) < 1e-10

    rows = logical_error_rate([0.01, 0.02, 0.03, 0.05], n_shots=100_000, seed=0)
    leading = 3 * 0.05**2
    rel_rate = abs(rows[-1].corrected_rate - leading) / leading
    assert rel_rate < 0.10
    weights = np.sqrt([row.corrected_rate * row.n_shots for row in rows])
    slope = float(
        np.polyfit(
            np.log([row.flip_probability for row in rows]),
            np.log([row.corrected_rate for row in rows]),
            1,
            w=weights,
        )[0]
    )
    assert 1.8 <= slope <= 2.2
    elapsed = budget.check()
    print(
        f"criterion 10 PASS: quadratic fit slope {slope:.3f}, "
        f"rate at p=0.05 within {rel_rate:.2%} [{elapsed:.1f}s]"
    )


def test_criterion_11_interference_ridge_decay():
    budget = _Budget(60.0)
    gen = CaldeiraLeggettGenerator(
        1.0, 1.0, 0.01, 10.0, 50.0, n_max=30, pure_decoherence=True
    )
    res = evolve(gen, _pure(cat_state(2.0, 30).amplitudes), 0.04, 2e-4, store_every=50)
    xs = np.linspace(-8.0, 8.0, 161)
    x0 = 2.0 * np.sqrt(2.0)
    ridges, peaks, volumes = [], [], []
    for state in res.states:
        grid = wigner_from_fock(state, 1.0, 1.0, xs)
        near_zero = np.abs(grid.x) < 0.7
        lobes = (np.abs(grid.x - x0) < 1.0) | (np.abs(grid.x + x0) < 1.0)
        ridges.append(float(np.abs(grid.values[near_zero]).max()))
        peaks.append(float(grid.values[lobes].max()))
        volumes.append(grid.negativity_volume())
    assert all(b < a for a, b in zip(ridges, ridges[1:]))
    assert all(p > 0.5 * peaks[0] for p in peaks)
    assert all(b <= a + 1e-6 for a, b in zip(volumes, volumes[1:]))
    elapsed = budget.check()
    print(
        f"criterion 11 PASS: ridge {ridges[0]:.3f}->{ridges[-1]:.3f} monotone, "
        f"direct peaks hold {peaks[-1] / peaks[0]:.2f}x, negativity "
        f"{volumes[0]:.3f}->{volumes[-1]:.3f} [{elapsed:.1f}s]"
    )


def test_criterion_12_reference_values_are_display_only():
    names = [name for name, _ in OBJECTS]
    assert set(REFERENCE_SECONDS) == set(itertools.product(ENVIRONMENTS, names))
    assert all(value > 0 for value in REFERENCE_SECONDS.values())
    print(
        "criterion 12 PASS: bundled absolute decoherence timescales, measured "
        "interference visibilities, and hardware coherence times are "
        "display-only reference values; the suite validates scaling laws and "
        "closed forms rather than reproducing them."
    )
