import numpy as np
import pytest

from decosim import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    LindbladSpec,
    Operator,
    SIGMA_X,
    SIGMA_Z,
    StateVector,
    collective_dephasing_spec,
    collective_dfs,
    commutativity_residual,
    dfs_find,
    fragment_mutual_information,
    predictability_sieve,
    tensor,
)
from decosim.models import SpinEnvironment
from decosim.pointer import InteractionSpec, pointer_states


def _bit_label(state: StateVector, n: int) -> str:
    index = int(np.argmax(np.abs(state.amplitudes)))
    return format(index, f"0{n}b")


def test_collective_dfs_four_qubits():
    report = collective_dfs(4)
    assert report.dimension == 6
    assert report.magnetization == 0
    assert not report.odd_fallback
    assert report.exact_bits == pytest.approx(np.log2(6))
    assert report.efficiency == pytest.approx(np.log2(6) / 4)
    labels = {_bit_label(v, 4) for v in report.result.basis}
    assert labels == {"1100", "1010", "1001", "0110", "0101", "0011"}


def test_dfs_search_recovers_the_balanced_subspace():
    spec = collective_dephasing_spec(4)
    found = dfs_find(spec)
    assert found.dimension == 6
    assert found.eigenvalues == (pytest.approx(0.0),)
    reference = collective_dfs(4).result.projector()
    assert np.linalg.norm(found.projector() - reference) < 1e-9
    assert found.certificate_defect is not None
    assert found.certificate_defect < 1e-8


def test_dfs_in_a_rotated_degenerate_operator():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = np.linalg.qr(m)[0]
    coupling = u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T
    spec = InteractionSpec(terms=((coupling, SIGMA_X),))
    found = dfs_find(spec)
    assert found.dimension == 2
    assert found.eigenvalues == (pytest.approx(1.0),)
    expected = u[:, :2] @ u[:, :2].conj().T
    assert np.linalg.norm(found.projector() - expected) < 1e-9


def test_incompatible_couplings_have_no_common_eigenspace():
    spec = InteractionSpec(
        terms=((SIGMA_Z, SIGMA_X), (SIGMA_X, SIGMA_X))
    )
    found = dfs_find(spec)
    assert found.dimension == 0
    assert found.basis == ()
    assert found.eigenvalues == ()
    with pytest.raises(ValueError):
        found.projector()
    assert pointer_states(spec) == []


def test_commutativity_residual_flags_pointer_observables():
    spec = collective_dephasing_spec(3)
    total_z = spec.terms[0][0]
    assert commutativity_residual(total_z, spec) < 1e-12
    lifted_x = np.kron(SIGMA_X, np.eye(4))
    assert commutativity_residual(lifted_x, spec) > 0.1
    with pytest.raises(ValueError):
        commutativity_residual(SIGMA_X, spec)


def test_collective_dfs_odd_count_falls_back():
    report = collective_dfs(5)
    assert report.odd_fallback
    assert report.magnetization == 1
    assert report.dimension == 10
    labels = {_bit_label(v, 5) for v in report.result.basis}
    assert all(label.count("1") == 2 for label in labels)
    assert len(labels) == 10


def test_collective_dfs_large_count_keeps_only_numbers():
    report = collective_dfs(20)
    assert report.result is None
    assert report.dimension == 184756
    assert report.stirling_bits == pytest.approx(
        20 - 0.5 * np.log2(np.pi * 10.0), rel=1e-12
    )
    assert 0.8 < report.efficiency < 0.9
    with pytest.raises(ValueError):
        collective_dfs(0)


def test_sieve_prefers_coupling_eigenstates():
    env = SpinEnvironment((0.4, 0.9, 1.3))
    report = predictability_sieve(
        env,
        [KET_0, KET_1, KET_PLUS, KET_MINUS],
        np.linspace(0.0, 2.0, 9),
        labels=["zero", "one", "plus", "minus"],
    )
    assert set(report.ranking[:2]) == {"zero", "one"}
    assert set(report.ranking[2:]) == {"plus", "minus"}
    assert report.best() in ("zero", "one")
    by_label = {c.label: c for c in report.candidates}
    assert by_label["zero"].purity == pytest.approx(1.0)
    assert by_label["plus"].purity[-1] < 0.99
    # entropy measure agrees on who wins
    alt = predictability_sieve(
        env,
        [KET_0, KET_PLUS],
        np.linspace(0.0, 2.0, 9),
        measure="entropy",
        labels=["zero", "plus"],
    )
    assert alt.ranking == ("zero", "plus")


def test_sieve_scores_are_phase_invariant():
    env = SpinEnvironment((0.4, 0.9))
    grid = np.linspace(0.0, 1.5, 7)
    phase = np.exp(1.2j)
    rotated = StateVector(phase * KET_PLUS.amplitudes)
    a = predictability_sieve(env, [KET_PLUS], grid)
    b = predictability_sieve(env, [rotated], grid)
    assert np.abs(a.candidates[0].purity - b.candidates[0].purity).max() < 1e-12


def test_sieve_accepts_master_equation_generators():
    spec = LindbladSpec(
        hamiltonian=Operator(np.zeros((2, 2), dtype=complex)),
        lindblad_terms=((Operator(SIGMA_Z), 0.5),),
    )
    report = predictability_sieve(
        spec, [KET_PLUS, KET_0], np.linspace(0.0, 1.0, 5), labels=["plus", "zero"]
    )
    assert report.ranking == ("zero", "plus")
    # rho01 decays at 2 kappa, so purity is (1 + e^{-4 kappa t}) / 2
    plus = report.candidates[0]
    expected = 0.5 * (1.0 + np.exp(-4.0 * 0.5 * np.linspace(0.0, 1.0, 5)))
    assert np.abs(plus.purity - expected).max() < 1e-6


def test_sieve_validation():
    env = SpinEnvironment((0.5,))
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        predictability_sieve(env, [KET_0], grid, measure="fidelity")
    with pytest.raises(ValueError):
        predictability_sieve(env, [], grid)
    with pytest.raises(ValueError):
        predictability_sieve(env, [KET_0], np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        predictability_sieve(env, [KET_0], grid, labels=["a", "b"])
    with pytest.raises(TypeError):
        predictability_sieve(object(), [KET_0], grid)


def test_sieve_grids_per_generator_kind():
    # a master equation is propagated by one evolve call on dt multiples;
    # an exact model takes any increasing grid
    spec = LindbladSpec(Operator(np.zeros((2, 2))), ((Operator(SIGMA_Z), 0.5),))
    uneven = np.array([0.0, 0.1, 0.3, 1.0])
    with pytest.raises(ValueError, match="uniform"):
        predictability_sieve(spec, [KET_PLUS], uneven)
    report = predictability_sieve(SpinEnvironment((0.4, 0.9)), [KET_PLUS], uneven)
    assert report.candidates[0].purity.shape == (4,)


def _ghz(n_factors: int) -> StateVector:
    amps = np.zeros(2**n_factors, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(amps, dims=(2,) * n_factors)


def test_fragment_information_plateau_for_ghz():
    state = _ghz(6)  # system + 5 environment qubits
    curve = fragment_mutual_information(state, [0, 1, 2, 4, 5])
    assert curve.system_entropy == pytest.approx(1.0, abs=1e-10)
    assert curve.mean_information[0] == 0.0
    # every proper fragment already holds the full classical bit
    for k in (1, 2, 3):
        assert curve.mean_information[k] == pytest.approx(1.0, abs=1e-9)
        assert curve.std_information[k] < 1e-9
    # the total environment doubles it: quantum correlations included
    assert curve.mean_information[4] == pytest.approx(2.0, abs=1e-9)


def test_fragment_information_vanishes_for_product_states():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    amps = plus
    for _ in range(3):
        amps = np.kron(amps, plus)
    state = StateVector(amps, dims=(2,) * 4)
    curve = fragment_mutual_information(state, [1, 2, 3])
    assert np.abs(curve.mean_information).max() < 1e-10
    assert curve.system_entropy == pytest.approx(0.0, abs=1e-10)


def test_fragment_sampling_is_deterministic():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=2**10) + 1j * rng.normal(size=2**10)
    state = StateVector(amps / np.linalg.norm(amps), dims=(2,) * 10)
    a = fragment_mutual_information(state, [4], n_samples=20, seed=5)
    b = fragment_mutual_information(state, [4], n_samples=20, seed=5)
    assert a.mean_information[0] == b.mean_information[0]
    assert a.std_information[0] == b.std_information[0]
    assert a.n_samples == 20


def test_fragment_validation():
    state = _ghz(3)
    with pytest.raises(ValueError):
        fragment_mutual_information(state, [3])  # only 2 env factors
    single = StateVector(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        fragment_mutual_information(single, [1])
    wide = StateVector(
        np.eye(1, 2**14, 0, dtype=complex).ravel(), dims=(2,) * 14
    )
    with pytest.raises(ValueError):
        fragment_mutual_information(wide, [1])


def test_tensor_and_spec_guards():
    with pytest.raises(ValueError):
        InteractionSpec(terms=())
    with pytest.raises(ValueError):
        InteractionSpec(terms=((SIGMA_Z, np.eye(2)), (np.eye(3), np.eye(2))))
    # non-Hermitian couplings are rejected by the search
    upper = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        dfs_find(InteractionSpec(terms=((upper, np.eye(2)),)))
    bell = tensor(KET_0, KET_0)
    assert bell.dims == (2, 2)
