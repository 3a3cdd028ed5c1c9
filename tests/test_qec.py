import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decosim import Operator, StateVector
from decosim.errors import PhysicalityError
from decosim.qec import (
    SYNDROME_TABLE,
    ErrorModel,
    apply_errors,
    code_words,
    decode,
    encode,
    expand_in_pauli_errors,
    logical_error_rate,
    syndrome_and_recover,
)
from decosim.qec import _weight_flags

SZ = np.diag([1.0, -1.0]).astype(complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)


def _logical(theta=0.3, phase=0.4) -> StateVector:
    return StateVector(np.array([np.cos(theta), np.exp(1j * phase) * np.sin(theta)]))


def _flip(encoded: StateVector, qubits) -> StateVector:
    mats = [SZ if q in qubits else np.eye(2, dtype=complex) for q in range(3)]
    op = np.kron(np.kron(mats[0], mats[1]), mats[2])
    return StateVector(op @ encoded.amplitudes, dims=(2, 2, 2))


def test_code_words_are_orthonormal():
    plus3, minus3 = code_words()
    assert abs(np.vdot(plus3, plus3) - 1.0) < 1e-12
    assert abs(np.vdot(minus3, minus3) - 1.0) < 1e-12
    assert abs(np.vdot(plus3, minus3)) < 1e-12


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(5):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = StateVector(raw / np.linalg.norm(raw))
        recovered, weight = decode(encode(psi))
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert np.abs(recovered.amplitudes - psi.amplitudes).max() < 1e-12


def test_decode_rejects_states_outside_the_code_space():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    stray = StateVector(np.kron(np.kron(plus, minus), plus), dims=(2, 2, 2))
    with pytest.raises(PhysicalityError):
        decode(stray)
    with pytest.raises(ValueError):
        decode(_logical())


def test_clean_state_reports_clean_syndrome():
    psi = _logical()
    outcomes = syndrome_and_recover(encode(psi), psi_logical=psi)
    assert len(outcomes) == 1
    out = outcomes[0]
    assert out.label == (0, 0)
    assert out.corrected_qubit is None
    assert out.probability == pytest.approx(1.0, abs=1e-12)
    assert out.fidelity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("qubit,label", [(0, (1, 0)), (1, (1, 1)), (2, (0, 1))])
def test_single_flips_are_fully_corrected(qubit, label):
    psi = _logical(0.7, 1.1)
    noisy = _flip(encode(psi), {qubit})
    outcomes = syndrome_and_recover(noisy, psi_logical=psi)
    assert len(outcomes) == 1
    out = outcomes[0]
    assert out.label == label
    assert SYNDROME_TABLE[out.label] == qubit
    assert out.corrected_qubit == qubit
    assert out.fidelity == pytest.approx(1.0, abs=1e-10)


def test_double_flip_miscorrects_into_a_logical_error():
    psi = _logical()
    noisy = _flip(encode(psi), {0, 1})
    outcomes = syndrome_and_recover(noisy, psi_logical=psi)
    assert len(outcomes) == 1
    out = outcomes[0]
    # the syndrome points at the untouched third qubit
    assert out.corrected_qubit == 2
    assert out.fidelity < 0.9


def test_pauli_expansion_of_the_partial_decoherence_gate():
    theta = 0.35
    u = Operator(
        np.cos(theta) * np.eye(4, dtype=complex) - 1j * np.sin(theta) * np.kron(SZ, SY),
        dims=(2, 2),
    )
    e0 = StateVector(np.array([1.0, 0.0], dtype=complex))
    comp = expand_in_pauli_errors(u, _logical(), e0)
    assert comp.defect < 1e-10
    assert comp.weight("I") == pytest.approx(np.cos(theta) ** 2, abs=1e-12)
    assert comp.weight("z") == pytest.approx(np.sin(theta) ** 2, abs=1e-12)
    assert comp.weight("x") < 1e-24
    assert comp.weight("y") < 1e-24
    # conditional kets do not depend on the system state
    other = expand_in_pauli_errors(u, _logical(1.2, 0.9), e0)
    for key in "Ixyz":
        assert np.abs(comp.components[key] - other.components[key]).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.floats(0.05, 1.5), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_pauli_expansion_state_independence_property(theta, a, b):
    u = Operator(
        np.cos(theta) * np.eye(4, dtype=complex) - 1j * np.sin(theta) * np.kron(SZ, SY),
        dims=(2, 2),
    )
    e0 = StateVector(np.array([1.0, 0.0], dtype=complex))
    first = expand_in_pauli_errors(u, _logical(a, b), e0)
    second = expand_in_pauli_errors(u, _logical(b + 0.1, a), e0)
    for key in "Ixyz":
        assert np.abs(first.components[key] - second.components[key]).max() < 1e-10


def test_partial_decoherence_on_one_qubit_stays_correctable():
    psi = _logical(0.5, 0.2)
    model = ErrorModel(kind="partial-decoherence", entangled_qubits=1, angle=0.35)
    corrupted, record = apply_errors(encode(psi), model)
    assert record == ("partial-decoherence", 1, 0.35)
    outcomes = syndrome_and_recover(corrupted, psi_logical=psi)
    labels = {o.label: o.probability for o in outcomes}
    assert abs(sum(labels.values()) - 1.0) < 1e-10
    assert labels[(0, 0)] == pytest.approx(np.cos(0.35) ** 2, abs=1e-10)
    assert labels[(1, 0)] == pytest.approx(np.sin(0.35) ** 2, abs=1e-10)
    for out in outcomes:
        assert out.fidelity == pytest.approx(1.0, abs=1e-10)


def test_partial_decoherence_on_all_qubits_matches_the_branch_mixture():
    # Each syndrome groups a correctable pattern with its complement; the
    # complement survives recovery as a logical flip, so the branch fidelity
    # is an exact two-component mixture rather than one.
    theta = 0.6
    psi = _logical()
    alpha, beta = psi.amplitudes
    x_logical = (2.0 * np.real(np.conj(alpha) * beta)) ** 2
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    model = ErrorModel(kind="partial-decoherence", entangled_qubits=3, angle=theta)
    corrupted, _ = apply_errors(encode(psi), model)
    outcomes = syndrome_and_recover(corrupted, psi_logical=psi)
    assert len(outcomes) == 4
    assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-10
    for out in outcomes:
        if out.label == (0, 0):
            w_small, w_big = c2**3, s2**3
        else:
            w_small, w_big = c2**2 * s2, c2 * s2**2
        assert out.probability == pytest.approx(w_small + w_big, abs=1e-10)
        expected = (w_small + w_big * x_logical) / (w_small + w_big)
        assert out.fidelity == pytest.approx(expected, abs=1e-10)


def test_noisy_readout_redirects_the_correction():
    psi = _logical()
    noisy = _flip(encode(psi), {0})
    outcomes = syndrome_and_recover(noisy, psi_logical=psi, readout_flip_probability=1.0)
    assert len(outcomes) == 1
    out = outcomes[0]
    # true syndrome (1, 0) reads back inverted as (0, 1)
    assert out.label == (0, 1)
    assert out.corrected_qubit == 2
    assert out.fidelity < 0.9


def test_stochastic_flips_consume_the_rng():
    psi = _logical()
    model = ErrorModel(kind="independent-phase-flip", flip_probability=0.5)
    state, flipped = apply_errors(encode(psi), model, rng=np.random.default_rng(4))
    assert all(0 <= q < 3 for q in flipped)
    again, flipped_again = apply_errors(encode(psi), model, rng=np.random.default_rng(4))
    assert flipped_again == flipped
    assert np.abs(again.amplitudes - state.amplitudes).max() < 1e-15
    with pytest.raises(ValueError):
        apply_errors(encode(psi), model)


def test_sampled_recovery_is_reproducible():
    psi = _logical()
    model = ErrorModel(kind="partial-decoherence", entangled_qubits=2, angle=0.7)
    corrupted, _ = apply_errors(encode(psi), model)
    one = syndrome_and_recover(
        corrupted, psi_logical=psi, mode="sampled", rng=np.random.default_rng(9)
    )
    two = syndrome_and_recover(
        corrupted, psi_logical=psi, mode="sampled", rng=np.random.default_rng(9)
    )
    assert one.label == two.label
    with pytest.raises(ValueError):
        syndrome_and_recover(corrupted, mode="sampled")
    with pytest.raises(ValueError):
        syndrome_and_recover(corrupted, mode="best-effort")


def test_logical_error_rates_match_the_closed_forms():
    probs = [0.0, 0.02, 0.05, 0.1]
    rows = logical_error_rate(probs, n_shots=1_000_000, seed=0)
    for row in rows:
        p = row.flip_probability
        raw_exact = 1.0 - (1.0 - p) ** 3
        corr_exact = 3.0 * p**2 * (1.0 - p) + p**3
        for got, exact in ((row.uncorrected_rate, raw_exact), (row.corrected_rate, corr_exact)):
            sigma = np.sqrt(max(exact * (1.0 - exact), 1e-12) / row.n_shots)
            assert abs(got - exact) < 5.0 * sigma + 1e-12
    # correction helps at small p and rates grow with p
    assert rows[1].corrected_rate < rows[1].uncorrected_rate
    corrected = [r.corrected_rate for r in rows]
    assert corrected == sorted(corrected)


def _pattern_outcome(pattern: tuple[int, ...], reference: StateVector) -> tuple[bool, bool]:
    """(uncorrected is wrong, corrected is wrong) for one definite flip pattern, by circuit."""
    enc = encode(reference)
    noisy = _flip(enc, pattern)
    raw_fid = abs(np.vdot(enc.amplitudes, noisy.amplitudes)) ** 2
    branches = syndrome_and_recover(noisy, psi_logical=reference, mode="exhaustive")
    # phase flips give a deterministic syndrome: a single surviving branch
    assert len(branches) == 1
    return raw_fid < 1.0 - 1e-9, branches[0].fidelity < 1.0 - 1e-9


_PATTERNS = [tuple(q for q in range(3) if mask >> q & 1) for mask in range(8)]


@pytest.mark.parametrize("psi", [
    _logical(),  # the default reference of logical_error_rate
    StateVector(np.array([1.0, 0.0])),
    StateVector(np.array([0.0, 1.0])),
    StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0)),  # X_L leaves |+_L> alone
    StateVector(np.array([1.0, -1.0]) / np.sqrt(2.0)),  # and |-_L> up to a sign
], ids=["default", "zero", "one", "plus", "minus"])
def test_weight_flags_match_the_syndrome_circuit(psi):
    flags = _weight_flags(psi)
    expected = [_pattern_outcome(pat, psi) for pat in _PATTERNS]
    assert [flags[len(pat)] for pat in _PATTERNS] == expected


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))
def test_weight_flags_match_the_syndrome_circuit_on_random_states(theta, phase):
    psi = _logical(theta, phase)
    flags = _weight_flags(psi)
    expected = [_pattern_outcome(pat, psi) for pat in _PATTERNS]
    assert [flags[len(pat)] for pat in _PATTERNS] == expected


def test_harmless_logical_flip_counts_no_failures():
    # at p = 1 every shot flips all three qubits: the identity on |+_L>, X_L on the default
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    (row,) = logical_error_rate([1.0], n_shots=50, psi_logical=plus)
    assert row.uncorrected_rate == 0.0 and row.corrected_rate == 0.0
    (row,) = logical_error_rate([1.0], n_shots=50)
    assert row.uncorrected_rate == 1.0 and row.corrected_rate == 1.0


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(kind="depolarizing")
    with pytest.raises(ValueError):
        ErrorModel(kind="independent-phase-flip", flip_probability=1.5)
    with pytest.raises(ValueError):
        ErrorModel(kind="partial-decoherence", entangled_qubits=4)
    with pytest.raises(ValueError):
        logical_error_rate([1.2], n_shots=10)
    with pytest.raises(ValueError, match="seed"):
        logical_error_rate([0.1], n_shots=10, seed=-1)
    with pytest.raises(ValueError):
        logical_error_rate([0.1], n_shots=10, psi_logical=StateVector(np.ones(4) / 2.0))
    with pytest.raises(ValueError):
        syndrome_and_recover(encode(_logical()), readout_flip_probability=-0.1)
