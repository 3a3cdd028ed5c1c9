"""Three-qubit phase-flip code with ancilla-based syndrome recovery.

The code stores one logical qubit as alpha|+++> + beta|--->, so a
single sigma_z on any physical qubit is detectable by the two plus/minus
parity checks.  Error channels come in two flavors: stochastic
independent phase flips, and coherent partial decoherence in which some
qubits rotate into private environment qubits by a coupling angle.
Syndrome extraction writes the parities onto two ancillas, measures
them (exhaustively over branches, or sampled), and applies the inverse
flip.  An optional ancilla readout-flip probability models noisy
measurement; it defaults to off.

A Pauli-expansion helper decomposes an arbitrary qubit-environment
unitary into conditional environment kets, which is what makes the
discrete error taxonomy legitimate for continuous couplings.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import (
    KET_0,
    KET_MINUS,
    KET_PLUS,
    NORM_TOL,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Operator,
    StateVector,
    _pure_reduced_array,
)
from .errors import PhysicalityError

RECONSTRUCTION_TOL = 1e-10
PROBABILITY_SUM_TOL = 1e-10
BRANCH_PRUNE_TOL = 1e-14


# syndrome (check01, check12) -> qubit to flip back, None for clean
SYNDROME_TABLE = {(0, 0): None, (1, 0): 0, (1, 1): 1, (0, 1): 2}


def _kron_all(*vecs: np.ndarray) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for v in vecs:
        out = np.kron(out, v)
    return out


def code_words() -> tuple[np.ndarray, np.ndarray]:
    plus, minus = KET_PLUS.amplitudes, KET_MINUS.amplitudes
    return _kron_all(plus, plus, plus), _kron_all(minus, minus, minus)


def encode(psi_logical: StateVector) -> StateVector:
    """alpha|0> + beta|1>  ->  alpha|+++> + beta|--->."""
    if psi_logical.dim != 2:
        raise ValueError("logical input must be a single qubit")
    plus3, minus3 = code_words()
    amps = psi_logical.amplitudes[0] * plus3 + psi_logical.amplitudes[1] * minus3
    return StateVector(amps, dims=(2, 2, 2))


def decode(state: StateVector) -> tuple[StateVector, float]:
    """Project a 3-qubit state onto the code space.

    Returns the normalized logical qubit and the weight left inside the
    code space; weight below NORM_TOL has no decodable content.
    """
    if state.dims != (2, 2, 2):
        raise ValueError("decode expects a bare 3-qubit state")
    plus3, minus3 = code_words()
    comp = np.array([np.vdot(plus3, state.amplitudes), np.vdot(minus3, state.amplitudes)])
    weight = float(np.vdot(comp, comp).real)
    if weight < NORM_TOL:
        raise PhysicalityError("state has no support on the code space")
    return StateVector(comp / np.sqrt(weight)), weight


@dataclass(frozen=True)
class PauliErrorComponents:
    """Environment kets conditioned on which Pauli hit the system qubit."""

    components: dict[str, np.ndarray]  # unnormalized kets, keys I/x/y/z
    defect: float  # norm of reconstruction residual

    def weight(self, label: str) -> float:
        vec = self.components[label]
        return float(np.vdot(vec, vec).real)


def expand_in_pauli_errors(
    u_se: Operator, psi: StateVector, e0: StateVector
) -> PauliErrorComponents:
    """Split U(|psi>|e0>) into identity/bit/phase/both error branches.

    The conditional kets depend only on U and |e0|; the supplied system
    state is used to evaluate the reconstruction residual.
    """
    if len(u_se.dims) != 2 or u_se.dims[0] != 2:
        raise ValueError("expected a unitary on (qubit, environment) with dims (2, d_e)")
    d_e = u_se.dims[1]
    if e0.dim != d_e or psi.dim != 2:
        raise ValueError("state dimensions do not match the unitary")
    u4 = u_se.entries.reshape(2, d_e, 2, d_e)
    kets = {}
    for label, sig in PAULIS.items():
        block = 0.5 * np.einsum("ik,kaib->ab", sig, u4)
        kets[label] = block @ e0.amplitudes
    joint = sum(
        np.kron(sig @ psi.amplitudes, kets[label]) for label, sig in PAULIS.items()
    )
    exact = u_se.entries @ np.kron(psi.amplitudes, e0.amplitudes)
    defect = float(np.linalg.norm(joint - exact))
    if defect > RECONSTRUCTION_TOL:
        raise PhysicalityError(f"error expansion failed to reconstruct: defect {defect:.2e}")
    return PauliErrorComponents(components=kets, defect=defect)


@dataclass(frozen=True)
class ErrorModel:
    """Stochastic phase flips or coherent entanglement with private qubits."""

    kind: str  # "independent-phase-flip" | "partial-decoherence"
    flip_probability: float = 0.0
    entangled_qubits: int = 0
    angle: float = 0.0
    n_qubits: int = 3

    def __post_init__(self):
        if self.kind == "independent-phase-flip":
            if not 0.0 <= self.flip_probability <= 1.0:
                raise ValueError("flip probability must lie in [0, 1]")
        elif self.kind == "partial-decoherence":
            if not 0 <= self.entangled_qubits <= self.n_qubits:
                raise ValueError("entangled qubit count must lie in [0, n_qubits]")
        else:
            raise ValueError(f"unknown error model kind {self.kind!r}")


def _apply_single(amps: np.ndarray, dims: tuple[int, ...], mat: np.ndarray, site: int) -> np.ndarray:
    moved = np.moveaxis(amps.reshape(dims), site, 0)
    out = np.tensordot(mat, moved, axes=(1, 0))
    return np.moveaxis(out, 0, site).reshape(-1)


def _apply_pair(
    amps: np.ndarray, dims: tuple[int, ...], gate: np.ndarray, site_a: int, site_b: int
) -> np.ndarray:
    moved = np.moveaxis(amps.reshape(dims), (site_a, site_b), (0, 1))
    rest = moved.shape[2:]
    flat = moved.reshape(4, -1)
    out = (gate @ flat).reshape((2, 2) + rest)
    return np.moveaxis(out, (0, 1), (site_a, site_b)).reshape(-1)


def apply_errors(
    state: StateVector, model: ErrorModel, rng: np.random.Generator | None = None
):
    """Corrupt an encoded state; returns (state, record) with the truth kept aside.

    Independent flips consume the RNG; partial decoherence is a fixed
    unitary that appends one fresh environment qubit per entangled data
    qubit, so its record is just the parameters.
    """
    dims = state.dims
    if len(dims) < model.n_qubits:
        raise ValueError("state has fewer tensor factors than the error model expects")
    amps = state.amplitudes.copy()
    if model.kind == "independent-phase-flip":
        if rng is None:
            raise ValueError("independent flips need an rng")
        flipped = tuple(
            q for q in range(model.n_qubits) if rng.random() < model.flip_probability
        )
        for q in flipped:
            amps = _apply_single(amps, dims, SIGMA_Z, q)
        return StateVector(amps, dims=dims), flipped
    # coherent branch: cos(theta) - i sin(theta) sz (x) sy on (data, fresh env)
    gate = np.cos(model.angle) * np.eye(4, dtype=complex) - 1j * np.sin(
        model.angle
    ) * np.kron(SIGMA_Z, SIGMA_Y)
    for q in range(model.entangled_qubits):
        amps = np.kron(amps, KET_0.amplitudes)
        dims = dims + (2,)
        amps = _apply_pair(amps, dims, gate, q, len(dims) - 1)
    record = ("partial-decoherence", model.entangled_qubits, model.angle)
    return StateVector(amps, dims=dims), record


@dataclass(frozen=True)
class SyndromeOutcome:
    label: tuple[int, int]  # reported ancilla readout
    probability: float
    state: StateVector  # post-measurement, ancillas still attached
    corrected: StateVector
    corrected_qubit: int | None
    fidelity: float | None  # against the reference logical state, if given


def _parity_imprint(amps: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Append two |0> ancillas and write the two +/- parity checks onto them."""
    zero = KET_0.amplitudes
    amps = np.kron(np.kron(amps, zero), zero)
    dims = dims + (2, 2)
    anc0, anc1 = len(dims) - 2, len(dims) - 1
    # controlled flip: ancilla toggles when the data qubit is |->
    plus, minus = KET_PLUS.amplitudes, KET_MINUS.amplitudes
    proj_plus = np.outer(plus, plus.conj())
    proj_minus = np.outer(minus, minus.conj())
    gate = np.kron(proj_plus, np.eye(2)) + np.kron(proj_minus, SIGMA_X)
    for data, anc in ((0, anc0), (1, anc0), (1, anc1), (2, anc1)):
        amps = _apply_pair(amps, dims, gate, data, anc)
    return amps, dims


def _logical_fidelity(amps: np.ndarray, dims: tuple[int, ...], reference: np.ndarray) -> float:
    reduced = _pure_reduced_array(amps, dims, [0, 1, 2])
    return float(np.real(reference.conj() @ reduced @ reference))


def syndrome_and_recover(
    state: StateVector,
    psi_logical: StateVector | None = None,
    mode: str = "exhaustive",
    rng: np.random.Generator | None = None,
    readout_flip_probability: float = 0.0,
):
    """Measure the two parity ancillas and undo the indicated flip.

    Exhaustive mode returns every branch with its exact probability (the
    test oracle); sampled mode draws one.  A nonzero readout flip
    probability corrupts the classical record (not the quantum state),
    so the correction may target the wrong qubit.  Fidelities are
    reported against ``psi_logical`` when provided.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if not 0.0 <= readout_flip_probability <= 1.0:
        raise ValueError("readout flip probability must lie in [0, 1]")
    amps, dims = _parity_imprint(state.amplitudes, state.dims)
    anc0, anc1 = len(dims) - 2, len(dims) - 1
    reference = encode(psi_logical).amplitudes if psi_logical is not None else None

    # collapse branches over the true ancilla values
    tensor = amps.reshape(dims)
    branches = {}
    for a0, a1 in product((0, 1), repeat=2):
        taken = np.moveaxis(tensor, (anc0, anc1), (0, 1))[a0, a1]
        prob = float(np.vdot(taken, taken).real)
        if prob <= BRANCH_PRUNE_TOL:
            continue
        collapsed = np.zeros_like(tensor)
        idx = [slice(None)] * len(dims)
        idx[anc0], idx[anc1] = a0, a1
        collapsed[tuple(idx)] = taken / np.sqrt(prob)
        branches[(a0, a1)] = (prob, collapsed.reshape(-1))
    total = sum(p for p, _ in branches.values())
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise PhysicalityError(f"syndrome probabilities sum to {total!r}")

    q = readout_flip_probability
    flip_probs = {
        (f0, f1): (q if f0 else 1 - q) * (q if f1 else 1 - q)
        for f0, f1 in product((0, 1), repeat=2)
    }
    outcomes = []
    for (a0, a1), (prob, collapsed) in sorted(branches.items()):
        for (f0, f1), fp in sorted(flip_probs.items()):
            if fp <= BRANCH_PRUNE_TOL:
                continue
            label = (a0 ^ f0, a1 ^ f1)
            target = SYNDROME_TABLE[label]
            corrected = (
                _apply_single(collapsed, dims, SIGMA_Z, target) if target is not None else collapsed
            )
            fid = _logical_fidelity(corrected, dims, reference) if reference is not None else None
            outcomes.append(
                SyndromeOutcome(
                    label=label,
                    probability=prob * fp,
                    state=StateVector(collapsed, dims=dims),
                    corrected=StateVector(corrected, dims=dims),
                    corrected_qubit=target,
                    fidelity=fid,
                )
            )
    if mode == "exhaustive":
        return tuple(outcomes)
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    probs = np.array([o.probability for o in outcomes])
    return outcomes[int(rng.choice(len(outcomes), p=probs / probs.sum()))]


@dataclass(frozen=True)
class LogicalErrorRow:
    flip_probability: float
    uncorrected_rate: float
    corrected_rate: float
    n_shots: int


def _pattern_outcome(pattern: tuple[int, ...], reference: StateVector) -> tuple[bool, bool]:
    """(uncorrected is wrong, corrected is wrong) for one definite flip pattern."""
    enc = encode(reference)
    amps = enc.amplitudes
    for qubit in pattern:
        amps = _apply_single(amps, enc.dims, SIGMA_Z, qubit)
    noisy = StateVector(amps, dims=enc.dims)
    raw_fid = abs(np.vdot(enc.amplitudes, amps)) ** 2
    branches = syndrome_and_recover(noisy, psi_logical=reference, mode="exhaustive")
    # phase flips give a deterministic syndrome: a single surviving branch
    if len(branches) != 1:
        raise PhysicalityError("phase-flip pattern produced a non-deterministic syndrome")
    corrected_fid = branches[0].fidelity
    return raw_fid < 1.0 - 1e-9, corrected_fid < 1.0 - 1e-9


def logical_error_rate(
    flip_probabilities,
    n_shots: int = 100_000,
    seed: int = 0,
    psi_logical: StateVector | None = None,
) -> list[LogicalErrorRow]:
    """Monte Carlo failure rates with and without correction.

    Shots are grouped by flip pattern (the syndrome is deterministic per
    pattern), so a multinomial draw over the eight patterns reproduces
    the per-shot sampling law exactly.  The reference state defaults to
    a generic non-symmetric logical qubit so every unflagged logical
    operation counts as an error.
    """
    if n_shots < 1:
        raise ValueError(f"need n_shots >= 1, got {n_shots}")
    if psi_logical is None:
        psi_logical = StateVector(np.array([np.cos(0.3), np.exp(0.4j) * np.sin(0.3)]))
    patterns = [tuple(q for q in range(3) if mask >> q & 1) for mask in range(8)]
    flags = [_pattern_outcome(pat, psi_logical) for pat in patterns]
    rng = np.random.default_rng(seed)
    rows = []
    for p in np.atleast_1d(np.asarray(flip_probabilities, dtype=float)):
        if not 0.0 <= p <= 1.0:
            raise ValueError("flip probabilities must lie in [0, 1]")
        probs = np.array([p ** len(pat) * (1 - p) ** (3 - len(pat)) for pat in patterns])
        counts = rng.multinomial(n_shots, probs)
        raw = sum(c for c, (bad, _) in zip(counts, flags) if bad) / n_shots
        corrected = sum(c for c, (_, bad) in zip(counts, flags) if bad) / n_shots
        rows.append(LogicalErrorRow(float(p), float(raw), float(corrected), n_shots))
    return rows
