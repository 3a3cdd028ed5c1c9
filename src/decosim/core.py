"""Dense finite-dimensional Hilbert-space primitives.

States, operators, and density matrices carry an explicit tensor-factor
signature (``dims``) so composition and reduction never have to guess
subsystem boundaries.  Everything is dense numpy; the intended working
range is product dimension <= 4096.  hbar = kB = 1 throughout, with SI
unit handling confined to the physical estimators in ``models``.

Validators re-assert invariants and raise on violation; nothing is
silently repaired.  Use :func:`symmetrize` explicitly when an algorithm
is entitled to discard an anti-Hermitian numerical residue.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PhysicalityError

NORM_TOL = 1e-12
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
LOG2 = math.log(2.0)


def _as_complex(a) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    # real/imag views work on any memory layout; a float view would not
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise PhysicalityError("array contains non-finite entries")
    return arr


def _check_dims(dims: Sequence[int], total: int, what: str) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"{what}: factor dimensions must be positive, got {dims}")
    if math.prod(dims) != total:
        raise ValueError(
            f"{what}: factor dimensions {dims} do not multiply to total dimension {total}"
        )
    return dims


def frozen(arr: np.ndarray, source) -> np.ndarray:
    """``arr`` made read-only; copied first when it may share memory with the caller's ``source``.

    ``np.asarray`` hands back an input that already has the right dtype, so
    freezing its result in place would freeze the caller's array too.
    """
    if isinstance(source, np.ndarray) and np.may_share_memory(arr, source):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state: complex amplitudes plus tensor-factor dimensions.

    Amplitudes must be normalized within 1e-12.  ``dims`` defaults to a
    single factor of the full dimension.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        amp = _as_complex(self.amplitudes).reshape(-1)
        dims = self.dims if self.dims else (amp.size,)
        dims = _check_dims(dims, amp.size, "StateVector")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise PhysicalityError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", frozen(amp, self.amplitudes))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True)
class Operator:
    """Square complex matrix acting on a tensor-factored space."""

    entries: np.ndarray
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        ent = _as_complex(self.entries)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError(f"operator must be square, got shape {ent.shape}")
        dims = self.dims if self.dims else (ent.shape[0],)
        dims = _check_dims(dims, ent.shape[0], "Operator")
        object.__setattr__(self, "entries", frozen(ent, self.entries))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self) -> bool:
        """Hermitian within ``HERM_TOL`` (1e-10)."""
        return hermiticity_defect(self.entries) <= HERM_TOL

    def is_unitary(self) -> bool:
        """Unitary within ``HERM_TOL`` (1e-10), max-abs over U^dag U - 1."""
        d = self.dim
        defect = np.abs(self.entries.conj().T @ self.entries - np.eye(d)).max()
        return bool(defect <= HERM_TOL)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit trace, positive within tolerance.

    Construction runs :func:`check_states` on the matrix: hermiticity
    within 1e-10, trace within 1e-10 of one, and minimum eigenvalue >=
    -1e-8.  The eigenvalues it returns are kept as ``spectrum``, so
    :func:`entropy` needs no second eigendecomposition.
    """

    entries: np.ndarray
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=complex)
        if ent.ndim != 2:
            raise ValueError(f"density matrix must be square, got shape {ent.shape}")
        spectrum = check_states(ent)
        dims = _check_dims(self.dims or (ent.shape[0],), ent.shape[0], "DensityMatrix")
        object.__setattr__(self, "entries", frozen(ent, self.entries))
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def check_states(states, eig_floor: float = EIG_FLOOR, times=None) -> np.ndarray:
    """Validate one density matrix (d, d) or a stack of them (T, d, d); return the eigenvalues.

    Every matrix must be finite, Hermitian within 1e-10, of trace 1 within
    1e-10 and have no eigenvalue below ``eig_floor``.  The eigenvalues are
    ``eigvalsh``'s, ascending, shape (d,) or (T, d).  A stack's error names
    its first failing matrix, by time when ``times`` is given and by index
    otherwise, and reports the first check that matrix fails.
    """
    s = np.asarray(states, dtype=complex)
    if s.ndim not in (2, 3) or s.shape[-1] != s.shape[-2]:
        raise ValueError(f"need a (d, d) matrix or a (T, d, d) stack, got shape {s.shape}")
    if eig_floor > 0.0:
        raise ValueError("eig_floor must be nonpositive")
    stack = s.reshape((-1,) + s.shape[-2:])
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():  # zeroed, so the other checks run warning-free
        stack = np.where(finite[:, None, None], stack, 0.0)
    defect = hermiticity_defect(stack)
    trace = np.trace(stack, axis1=1, axis2=2)
    eigs = np.linalg.eigvalsh(stack)
    bad = ~finite | (defect > HERM_TOL) | (np.abs(trace - 1.0) > TRACE_TOL)
    bad |= eigs[:, 0] < eig_floor
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            message = "array contains non-finite entries"
        elif defect[k] > HERM_TOL:
            message = f"hermiticity defect {defect[k]:.3e} exceeds {HERM_TOL}"
        elif abs(trace[k] - 1.0) > TRACE_TOL:
            message = f"trace {complex(trace[k])!r} deviates from 1 beyond {TRACE_TOL}"
        else:
            message = f"minimum eigenvalue {eigs[k, 0]:.3e} below floor {eig_floor}"
        if s.ndim == 3:
            message += f" at t={times[k]:g}" if times is not None else f" at index {k}"
        raise PhysicalityError(message)
    return eigs.reshape(s.shape[:-1])


@dataclass(frozen=True)
class EvolutionResult:
    """Snapshot times (T,), validated read-only states (T, d, d) and their eigenvalues (T, d)."""

    times: np.ndarray
    states: np.ndarray
    spectra: np.ndarray

    @classmethod
    def checked(cls, times, states: np.ndarray, eig_floor: float = EIG_FLOOR) -> EvolutionResult:
        """The series after one ``check_states`` call, whose errors name a time; ``times``
        is copied, and all three arrays are read-only."""
        times = np.array(times, dtype=float)
        spectra = check_states(states, eig_floor, times)
        for arr in (times, states, spectra):
            arr.setflags(write=False)
        return cls(times, states, spectra)


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dag)/2 of a matrix or a stack; the only sanctioned repair."""
    m = np.asarray(matrix, dtype=complex)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermiticity_defect(matrix):
    """Largest |M - M^dag| entry of a matrix, a float; of each matrix of a stack, an array."""
    m = np.asarray(matrix)
    out = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def tensor(a, b):
    """Kronecker composition; dims concatenate.  Both arguments must share a kind."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(np.kron(a.entries, b.entries), a.dims + b.dims)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.entries, b.entries), a.dims + b.dims)
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def _partial_trace_array(
    ent: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Partial trace on a raw matrix; kept factors stay in ascending order."""
    dims = tuple(dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= n:
        raise IndexError(f"keep indices {keep} out of range for {n} factors")
    arr = ent.reshape(dims + dims)
    # Trace dropped factors from the highest index down so axis numbers stay valid.
    cur = list(range(n))
    for idx in [i for i in range(n - 1, -1, -1) if i not in keep]:
        pos = cur.index(idx)
        m = len(cur)
        arr = np.trace(arr, axis1=pos, axis2=pos + m)
        cur.pop(pos)
    d_keep = math.prod(dims[k] for k in keep)
    return arr.reshape(d_keep, d_keep)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduce a density matrix to the factors listed in ``keep`` (ascending order)."""
    keep = sorted(set(int(k) for k in keep))
    out = _partial_trace_array(rho.entries, rho.dims, keep)
    return DensityMatrix(out, tuple(rho.dims[k] for k in keep))


def partial_trace_keep_state(psi: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix of a pure state without forming the full outer product."""
    keep = sorted(set(int(k) for k in keep))
    out = _pure_reduced_array(psi.amplitudes, psi.dims, keep)
    return DensityMatrix(out, tuple(psi.dims[k] for k in keep))


def _pure_reduced_array(
    amp: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    dims = tuple(dims)
    n = len(dims)
    keep = list(keep)
    drop = [i for i in range(n) if i not in keep]
    psi = amp.reshape(dims).transpose(keep + drop)
    d_keep = math.prod(dims[k] for k in keep)
    d_drop = math.prod(dims[k] for k in drop) if drop else 1
    mat = psi.reshape(d_keep, d_drop)
    return mat @ mat.conj().T


def overlap(e1: StateVector, e2: StateVector) -> complex:
    """Inner product <e1|e2>."""
    if e1.dim != e2.dim:
        raise ValueError(f"overlap dimension mismatch: {e1.dim} vs {e2.dim}")
    return complex(np.vdot(e1.amplitudes, e2.amplitudes))


def purity(rho):
    """Tr(rho^2) of a DensityMatrix or matrix (a float), or of each matrix of a stack (an array)."""
    s = np.asarray(getattr(rho, "entries", rho))
    out = np.sum(s * s.swapaxes(-1, -2), axis=(-2, -1)).real
    return float(out) if out.ndim == 0 else out


def spectral_entropy(spectra) -> np.ndarray:
    """Von Neumann entropy in bits of each row of eigenvalues, with 0 log 0 := 0.

    Eigenvalues <= 0 are dropped (:func:`check_states` enforces the floor).
    Each row's terms are packed to the front and summed in groups of equal
    length, which numpy sums as it sums one row alone: bitwise per-state values.
    """
    p = np.asarray(spectra, dtype=float)
    rows = p.reshape(-1, p.shape[-1])
    positive = rows > 0.0
    terms = rows * np.log(np.where(positive, rows, 1.0))
    packed = np.take_along_axis(terms, np.argsort(~positive, axis=1, kind="stable"), axis=1)
    counts = positive.sum(axis=1)
    sums = np.empty(len(rows))
    for m in np.flatnonzero(np.bincount(counts)):  # the distinct counts, ascending
        sums[counts == m] = packed[counts == m, :m].sum(axis=1)
    return (-sums / LOG2).reshape(p.shape[:-1])


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits, from the spectrum validated at construction."""
    return float(spectral_entropy(rho.spectrum))


def mutual_information(rho: DensityMatrix, cut: Iterable[int]) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) across a factor cut.

    ``cut`` lists the factor indices forming subsystem A; the rest form B.
    """
    n = len(rho.dims)
    cut = sorted(set(int(k) for k in cut))
    if not cut or len(cut) == n:
        raise ValueError("cut must be a proper nonempty subset of the factors")
    if cut[0] < 0 or cut[-1] >= n:
        raise IndexError(f"cut indices {cut} out of range for {n} factors")
    rest = [i for i in range(n) if i not in cut]
    return entropy(partial_trace(rho, cut)) + entropy(partial_trace(rho, rest)) - entropy(rho)


# --- common constructors -------------------------------------------------

def basis_state(dim: int, index: int, dims: tuple[int, ...] = ()) -> StateVector:
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for dimension {dim}")
    amp = np.zeros(dim, dtype=complex)
    amp[index] = 1.0
    return StateVector(amp, dims)


def ket(amplitudes, dims: tuple[int, ...] = ()) -> StateVector:
    """Normalize and wrap raw amplitudes."""
    amp = _as_complex(amplitudes).reshape(-1)
    norm = np.linalg.norm(amp)
    if norm == 0:
        raise PhysicalityError("cannot normalize the zero vector")
    return StateVector(amp / norm, dims)


def identity(dim: int, dims: tuple[int, ...] = ()) -> Operator:
    return Operator(np.eye(dim, dtype=complex), dims)


def _constant(entries) -> np.ndarray:
    """A module constant, read-only from import on, so no caller can change it."""
    arr = np.array(entries, dtype=complex)
    arr.setflags(write=False)
    return arr


SIGMA_X = _constant([[0, 1], [1, 0]])
SIGMA_Y = _constant([[0, -1j], [1j, 0]])
SIGMA_Z = _constant([[1, 0], [0, -1]])
PAULIS = {"I": _constant(np.eye(2)), "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

KET_0 = basis_state(2, 0)
KET_1 = basis_state(2, 1)
KET_PLUS = ket([1, 1])
KET_MINUS = ket([1, -1])


def sigma(axis: str) -> Operator:
    return Operator(PAULIS[axis])


def embed(op: np.ndarray, site: int, n_factors: int, dims: Sequence[int] | None = None) -> np.ndarray:
    """Place a single-factor operator at ``site`` in an n-factor product, identity elsewhere."""
    if dims is None:
        dims = [op.shape[0]] * n_factors
    mats = [np.eye(d, dtype=complex) for d in dims]
    mats[site] = np.asarray(op, dtype=complex)
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out
