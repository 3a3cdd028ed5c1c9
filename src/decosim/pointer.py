"""Which states survive monitoring: pointer bases, sieves, and safe subspaces.

The structural tools here answer three questions about a coupling
H_int = sum_a S_a (x) E_a without ever integrating a master equation:

* which system observables commute with the coupling (pointer
  observables),
* which states lose purity slowest under the actual dynamics
  (predictability sieve), and
* which subspaces are invisible to the environment altogether
  (degenerate simultaneous eigenspaces of every S_a).

Subspace search works by recursive eigenspace intersection: diagonalize
the first coupling operator, compress the next one into each degenerate
block, and repeat.  Compression can manufacture spurious eigenvectors
when the couplings fail to commute, so every surviving branch is
re-verified against the raw residual bound before it is reported, and
the winning subspace is certified dynamically under the full interaction
propagator whenever the joint space is small enough to diagonalize.

The sieve and the fragment-information scan both operate on exact
reduced states, so their cost is set by the model's own evolution, not
by this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import (
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    EvolutionResult,
    StateVector,
    _pure_reduced_array,
    embed,
    entropy,
    frozen,
    partial_trace_keep_state,
    purity,
    spectral_entropy,
)

EIGENVECTOR_RESIDUAL_TOL = 1e-9
DEGENERACY_REL_TOL = 1e-9
ORTHONORMAL_TOL = 1e-10
CERTIFICATE_DIM_CAP = 4096
# dimensionless multiples of 1/||H_int|| probed by the dynamical certificate
CERTIFICATE_TIMES = (0.3, 0.7, 1.1, 1.9, 2.6)
MAX_FRAGMENT_QUBITS = 12
COLLECTIVE_LABEL_MAX_QUBITS = 14
COLLECTIVE_MAX_QUBITS = 14_000  # C(N, N/2) keeps under Python's 4300-digit int-to-text limit
COLLECTIVE_BASIS_CAP = 1 << 20  # amplitudes of an explicit collective basis, at most
UNIFORM_GRID_TOL = 1e-12  # relative to the last grid time
# final-time scores closer than this are a tie, ranked in candidate order
RANK_TIE_TOL = 1e-12


def _as_array(op) -> np.ndarray:
    arr = np.asarray(getattr(op, "entries", op), dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("operators must be square matrices")
    return arr


@dataclass(frozen=True)
class InteractionSpec:
    """Coupling terms (S_a, E_a) of H_int = sum_a S_a (x) E_a."""

    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one coupling term")
        pairs = []
        d_s = d_e = None
        for k, (s_op, e_op) in enumerate(self.terms):
            s_arr, e_arr = _as_array(s_op), _as_array(e_op)
            if d_s is None:
                d_s, d_e = s_arr.shape[0], e_arr.shape[0]
            if s_arr.shape[0] != d_s:
                raise ValueError(f"term {k}: system operator dimension differs")
            if e_arr.shape[0] != d_e:
                raise ValueError(f"term {k}: environment operator dimension differs")
            pairs.append((frozen(s_arr, s_op), frozen(e_arr, e_op)))
        object.__setattr__(self, "terms", tuple(pairs))

    @property
    def system_dim(self) -> int:
        return self.terms[0][0].shape[0]

    @property
    def env_dim(self) -> int:
        return self.terms[0][1].shape[0]

    def system_operators(self) -> tuple[np.ndarray, ...]:
        return tuple(s for s, _ in self.terms)

    def interaction(self) -> np.ndarray:
        """Dense H_int on the joint space (system factor first)."""
        out = sum(np.kron(s, e) for s, e in self.terms)
        return out


def commutativity_residual(o_system, spec: InteractionSpec) -> float:
    """|| [O (x) 1, H_int] ||_F scaled by ||O||_F ||H_int||_F; 0 means pointer observable."""
    o_arr = _as_array(o_system)
    if o_arr.shape[0] != spec.system_dim:
        raise ValueError("observable dimension does not match the coupling")
    h_int = spec.interaction()
    lifted = np.kron(o_arr, np.eye(spec.env_dim))
    comm = lifted @ h_int - h_int @ lifted
    denom = np.linalg.norm(o_arr) * np.linalg.norm(h_int)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(comm) / denom)


def _cluster(values: np.ndarray, tol: float) -> list[tuple[float, slice]]:
    """Group ascending values (eigenvalues, sieve scores) whose neighbors sit within tol."""
    groups = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[i - 1] > tol:
            groups.append((float(values[start:i].mean()), slice(start, i)))
            start = i
    return groups


def _branches(ops: Sequence[np.ndarray], dim: int) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """All candidate simultaneous eigenspaces as (eigenvalue tuple, basis columns)."""
    tols = []
    for s_arr in ops:
        if np.linalg.norm(s_arr - s_arr.conj().T) > ORTHONORMAL_TOL * max(
            1.0, np.linalg.norm(s_arr)
        ):
            raise ValueError("coupling operators must be Hermitian")
        tols.append(DEGENERACY_REL_TOL * float(np.linalg.norm(s_arr, 2)))
    done: list[tuple[tuple[float, ...], np.ndarray]] = []
    stack = [((), np.eye(dim, dtype=complex))]
    while stack:
        values, basis = stack.pop()
        level = len(values)
        if level == len(ops):
            done.append((values, basis))
            continue
        compressed = basis.conj().T @ ops[level] @ basis
        eigs, vecs = np.linalg.eigh(0.5 * (compressed + compressed.conj().T))
        for value, block in _cluster(eigs, tols[level]):
            stack.append((values + (value,), basis @ vecs[:, block]))
    # verify against the raw operators; compression can fake eigenvectors
    verified = []
    for values, basis in done:
        ok = True
        for s_arr, value in zip(ops, values):
            residual = s_arr @ basis - value * basis
            if np.linalg.norm(residual, axis=0).max() >= EIGENVECTOR_RESIDUAL_TOL:
                ok = False
                break
        if ok:
            verified.append((values, basis))
    verified.sort(key=lambda item: (-item[1].shape[1], item[0]))
    return verified


def pointer_states(spec: InteractionSpec) -> list[tuple[StateVector, tuple[float, ...]]]:
    """Simultaneous eigenvectors of every coupling operator, with eigenvalue tuples.

    Empty when the couplings share no eigenvectors at all.
    """
    out = []
    for values, basis in _branches(spec.system_operators(), spec.system_dim):
        for col in basis.T:
            out.append((StateVector(col), values))
    return out


@dataclass(frozen=True)
class DFSResult:
    """A common eigenspace of all coupling operators, with its certificates.

    ``basis`` holds the orthonormal basis vectors as the rows of one
    read-only (k, d) complex array; k is 0 for an empty subspace.
    """

    basis: np.ndarray
    eigenvalues: tuple[float, ...]
    certificate_defect: float | None = None

    def __post_init__(self):
        rows = np.asarray(self.basis, dtype=complex)
        if rows.ndim != 2:
            raise ValueError(f"subspace basis must be a (k, d) array, got shape {rows.shape}")
        with np.errstate(all="ignore"):  # a non-finite or huge entry makes the defect nan or inf
            defect = np.abs(rows @ rows.conj().T - np.eye(rows.shape[0])).max(initial=0.0)
        if not defect <= ORTHONORMAL_TOL:
            raise ValueError("subspace basis rows are not finite and orthonormal")
        object.__setattr__(self, "basis", frozen(rows, self.basis))

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        if not self.dimension:
            raise ValueError("empty subspace has no projector")
        return self.basis.T @ self.basis.conj()


def _certificate(spec: InteractionSpec, basis: np.ndarray) -> float:
    """Max deviation from perfect system-state preservation under e^{-i H_int t}."""
    h_int = spec.interaction()
    scale = float(np.linalg.norm(h_int, 2))
    if scale == 0.0:
        return 0.0
    eigs, vecs = np.linalg.eigh(h_int)
    rng = np.random.default_rng(7)
    coeff = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
    psi = basis @ (coeff / np.linalg.norm(coeff))
    env0 = np.zeros(spec.env_dim, dtype=complex)
    env0[0] = 1.0
    joint0 = vecs.conj().T @ np.kron(psi, env0)
    worst = 0.0
    dims = (spec.system_dim, spec.env_dim)
    for factor in CERTIFICATE_TIMES:
        joint = vecs @ (np.exp(-1j * eigs * (factor / scale)) * joint0)
        reduced = _pure_reduced_array(joint, dims, [0])
        fidelity = float(np.real(psi.conj() @ reduced @ psi))
        worst = max(worst, abs(1.0 - fidelity))
    return worst


def dfs_find(spec: InteractionSpec) -> DFSResult:
    """Largest common eigenspace of all coupling operators.

    Branches tie-break lexicographically on the eigenvalue tuple.  When
    the joint dimension is at most ``CERTIFICATE_DIM_CAP``, a random state
    of the subspace is evolved under the full coupling propagator and its
    worst return-fidelity defect is recorded as ``certificate_defect``;
    above the cap it is None.
    """
    branches = _branches(spec.system_operators(), spec.system_dim)
    if not branches:
        return DFSResult(basis=np.zeros((0, spec.system_dim), dtype=complex), eigenvalues=())
    values, basis = branches[0]
    defect = None
    if basis.shape[1] > 0 and spec.system_dim * spec.env_dim <= CERTIFICATE_DIM_CAP:
        defect = _certificate(spec, basis)
    return DFSResult(
        basis=basis.T,
        eigenvalues=values,
        certificate_defect=defect,
    )


def collective_dephasing_spec(n_qubits: int) -> InteractionSpec:
    """All qubits coupled through their summed sigma_z to one environment qubit's sigma_x."""
    total = sum(embed(SIGMA_Z, i, n_qubits) for i in range(n_qubits))
    return InteractionSpec(terms=((total, SIGMA_X),))


@dataclass(frozen=True)
class CollectiveDFSReport:
    """Size and coding efficiency of the balanced-magnetization subspace."""

    n_qubits: int
    magnetization: int  # summed sigma_z eigenvalue of the reported class
    dimension: int
    exact_bits: float  # log2(dimension)
    stirling_bits: float  # N - log2(pi N / 2)/2
    efficiency: float  # exact_bits / N
    odd_fallback: bool
    labels: tuple[str, ...] | None  # basis bit strings, qubit 0 first; None above 14 qubits
    result: DFSResult | None  # explicit basis while it has at most 2**20 amplitudes, else None


def collective_dfs(n_qubits: int) -> CollectiveDFSReport:
    """Protected subspace of collective dephasing: balanced bit strings.

    Odd qubit numbers have no balanced class; the +1-magnetization class
    (the joint largest) is reported instead, flagged by ``odd_fallback``.
    Up to ``COLLECTIVE_LABEL_MAX_QUBITS`` (14) qubits the basis bit strings
    are listed in ``labels``; the basis vectors themselves are materialized
    in ``result`` only while dimension * 2**N is at most
    ``COLLECTIVE_BASIS_CAP`` (2**20 amplitudes, N <= 11).  Above that only
    the counting survives, up to ``COLLECTIVE_MAX_QUBITS`` (14 000).
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > COLLECTIVE_MAX_QUBITS:
        raise ValueError(f"{n_qubits} qubits exceeds the limit {COLLECTIVE_MAX_QUBITS}")
    odd = n_qubits % 2 == 1
    n_zeros = (n_qubits + 1) // 2
    magnetization = 2 * n_zeros - n_qubits  # 0 for even N, +1 for odd
    dimension = math.comb(n_qubits, n_zeros)
    exact_bits = math.log2(dimension)
    stirling_bits = n_qubits - 0.5 * math.log2(math.pi * n_qubits / 2.0)
    labels = result = None
    if n_qubits <= COLLECTIVE_LABEL_MAX_QUBITS:
        # qubit 0 is the most significant bit of each code
        codes = [sum(1 << (n_qubits - 1 - q) for q in ones)
                 for ones in combinations(range(n_qubits), n_qubits - n_zeros)]
        labels = tuple(format(code, f"0{n_qubits}b") for code in codes)
    if dimension * 2**n_qubits <= COLLECTIVE_BASIS_CAP:
        basis = np.zeros((dimension, 2**n_qubits), dtype=complex)
        basis[np.arange(dimension), codes] = 1.0
        result = DFSResult(basis=basis, eigenvalues=(float(magnetization),))
    return CollectiveDFSReport(
        n_qubits=n_qubits,
        magnetization=magnetization,
        dimension=dimension,
        exact_bits=exact_bits,
        stirling_bits=stirling_bits,
        efficiency=exact_bits / n_qubits,
        odd_fallback=odd,
        labels=labels,
        result=result,
    )


@dataclass(frozen=True)
class SieveCandidate:
    label: str
    state: StateVector
    purity: np.ndarray
    entropy: np.ndarray  # bits


@dataclass(frozen=True)
class SieveReport:
    candidates: tuple[SieveCandidate, ...]
    measure: str
    ranking: tuple[str, ...]  # most predictable first

    def best(self) -> str:
        return self.ranking[0]


def _reduced_series(generator, psi: np.ndarray, times: np.ndarray) -> EvolutionResult:
    """The reduced states (T, d, d) from ``psi`` on ``times``, validated once."""
    if hasattr(generator, "reduced_evolution"):
        states = np.asarray(generator.reduced_evolution(psi, times), dtype=complex)
        return EvolutionResult.checked(times, states)
    if not hasattr(generator, "compiled"):
        raise TypeError(
            "generator must expose reduced_evolution(psi0, t_grid) or a compiled "
            "master-equation form (G, pairs)"
        )
    from .dynamics import evolve

    # one evolve call snapshots every multiple of dt, so the grid must be those
    dt = times[1]
    if np.abs(times - dt * np.arange(times.size)).max() > UNIFORM_GRID_TOL * times[-1]:
        raise ValueError("a compiled generator needs a uniform time grid")
    return evolve(generator, DensityMatrix(np.outer(psi, psi.conj())), times[-1], dt)


def predictability_sieve(
    generator,
    candidates: Sequence[StateVector],
    t_grid,
    measure: str = "purity",
    labels: Sequence[str] | None = None,
) -> SieveReport:
    """Rank pure initial states by how well they keep their purity.

    Works on anything with ``reduced_evolution(psi0, t_grid)`` (exact
    models, any grid) or a compiled master-equation form ``compiled``
    (one ``evolve`` call per candidate, so the grid must be uniform).
    Ranking compares the chosen measure at the final grid time: highest
    purity first, or lowest entropy first.  Scores that chain within
    ``RANK_TIE_TOL`` of each other are tied, and tied candidates keep their
    order in ``candidates``, so rounding never reorders them.
    """
    if measure not in ("purity", "entropy"):
        raise ValueError("measure must be 'purity' or 'entropy'")
    if not candidates:
        raise ValueError("need at least one candidate state")
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("need an increasing time grid with at least two points")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0 so series begin at the pure state")
    if labels is None:
        labels = [f"candidate-{i}" for i in range(len(candidates))]
    if len(labels) != len(candidates):
        raise ValueError("labels and candidates differ in length")
    entries = []
    for label, cand in zip(labels, candidates):
        psi = np.asarray(getattr(cand, "amplitudes", cand), dtype=complex)
        series = _reduced_series(generator, psi, times)
        state = cand if isinstance(cand, StateVector) else StateVector(psi)
        entries.append(SieveCandidate(label, state, purity(series.states),
                                      spectral_entropy(series.spectra)))
    if measure == "purity":
        scores = [-c.purity[-1] for c in entries]
    else:
        scores = [c.entropy[-1] for c in entries]
    order = np.argsort(scores, kind="stable")
    ranked = [i for _, tied in _cluster(np.take(scores, order), RANK_TIE_TOL)
              for i in sorted(order[tied].tolist())]
    return SieveReport(
        candidates=tuple(entries),
        measure=measure,
        ranking=tuple(entries[i].label for i in ranked),
    )


@dataclass(frozen=True)
class FragmentCurve:
    sizes: np.ndarray
    mean_information: np.ndarray  # bits
    std_information: np.ndarray
    n_samples: int
    system_entropy: float  # bits


def fragment_mutual_information(
    total_state: StateVector,
    fragment_sizes: Sequence[int],
    n_samples: int = 30,
    seed: int = 0,
) -> FragmentCurve:
    """Average mutual information between the system and random environment fragments.

    The system is tensor factor 0; the remaining factors are the
    environment pool.  All fragments of a size are enumerated when there
    are at most ``n_samples`` of them, otherwise that many are drawn
    with a deterministic generator.  Pure-state complements keep every
    entropy evaluation on the smaller side of its cut.
    """
    dims = total_state.dims
    n_env = len(dims) - 1
    if n_env < 1:
        raise ValueError("state has no environment factors")
    if n_env > MAX_FRAGMENT_QUBITS:
        raise ValueError(f"{n_env} environment factors exceeds the limit {MAX_FRAGMENT_QUBITS}")
    sizes = [int(s) for s in fragment_sizes]
    if any(s < 0 or s > n_env for s in sizes):
        raise ValueError(f"fragment sizes must lie in [0, {n_env}]")
    all_factors = set(range(len(dims)))

    def cut_entropy(keep: list[int]) -> float:
        # equal entropies across a pure-state cut; compute the cheaper side
        other = sorted(all_factors - set(keep))
        side = keep if math.prod(dims[k] for k in keep) <= math.prod(
            dims[k] for k in other
        ) else other
        if not side:
            return 0.0
        return entropy(partial_trace_keep_state(total_state, side))

    s_system = cut_entropy([0])
    rng = np.random.default_rng(seed)
    means, stds = [], []
    for size in sizes:
        if size == 0:
            means.append(0.0)
            stds.append(0.0)
            continue
        if math.comb(n_env, size) <= n_samples:
            picks = [list(c) for c in combinations(range(1, n_env + 1), size)]
        else:
            picks = [
                sorted(rng.choice(np.arange(1, n_env + 1), size=size, replace=False).tolist())
                for _ in range(n_samples)
            ]
        values = np.array([s_system + cut_entropy(frag) - cut_entropy([0] + frag) for frag in picks])
        means.append(float(values.mean()))
        stds.append(float(values.std()))
    sizes_arr = np.asarray(sizes, dtype=int)
    return FragmentCurve(
        sizes=sizes_arr,
        mean_information=np.asarray(means),
        std_information=np.asarray(stds),
        n_samples=n_samples,
        system_entropy=s_system,
    )
