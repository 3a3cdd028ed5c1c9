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


def _frozen_array(obj, name: str, arr: np.ndarray) -> None:
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


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
        _frozen_array(self, "amplitudes", amp)
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
        _frozen_array(self, "entries", ent)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        return hermiticity_defect(self.entries) <= tol

    def is_unitary(self, tol: float = HERM_TOL) -> bool:
        d = self.dim
        defect = np.abs(self.entries.conj().T @ self.entries - np.eye(d)).max()
        return bool(defect <= tol)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit trace, positive within tolerance.

    Construction enforces hermiticity within 1e-10, trace within 1e-10
    of one, and minimum eigenvalue >= ``eig_floor`` (default -1e-8).
    Evolution under a generator that is not completely positive may pass
    a looser floor for its snapshots; the floor is never positive.
    """

    entries: np.ndarray
    dims: tuple[int, ...] = ()
    eig_floor: float = EIG_FLOOR

    def __post_init__(self):
        ent = _as_complex(self.entries)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {ent.shape}")
        dims = self.dims if self.dims else (ent.shape[0],)
        dims = _check_dims(dims, ent.shape[0], "DensityMatrix")
        if self.eig_floor > 0.0:
            raise ValueError("eig_floor must be nonpositive")
        defect = hermiticity_defect(ent)
        if defect > HERM_TOL:
            raise PhysicalityError(f"hermiticity defect {defect:.3e} exceeds {HERM_TOL}")
        tr = complex(np.trace(ent))
        if abs(tr - 1.0) > TRACE_TOL:
            raise PhysicalityError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(0.5 * (ent + ent.conj().T)).min())
        if lo < self.eig_floor:
            raise PhysicalityError(
                f"minimum eigenvalue {lo:.3e} below floor {self.eig_floor}"
            )
        _frozen_array(self, "entries", ent)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dag)/2.  The only sanctioned hermiticity repair."""
    m = np.asarray(matrix, dtype=complex)
    return 0.5 * (m + m.conj().T)


def hermiticity_defect(matrix: np.ndarray) -> float:
    m = np.asarray(matrix)
    return float(np.abs(m - m.conj().T).max())


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


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), real in [1/d, 1] for a valid state."""
    return float(np.real(np.sum(rho.entries * rho.entries.T)))


def _entropy_from_eigs(eigs: np.ndarray, floor: float = EIG_FLOOR) -> float:
    lo = float(eigs.min())
    if lo < floor:
        raise PhysicalityError(f"eigenvalue {lo:.3e} below floor {floor}")
    p = np.clip(eigs, 0.0, None)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)) / LOG2)


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits, with 0 log 0 := 0.

    Eigenvalues down to the state's own ``eig_floor`` are clipped to
    zero; anything lower raises.
    """
    return _entropy_from_eigs(np.linalg.eigvalsh(rho.entries), rho.eig_floor)


def _entropy_array(mat: np.ndarray) -> float:
    return _entropy_from_eigs(np.linalg.eigvalsh(symmetrize(mat)))


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
    s_a = _entropy_array(_partial_trace_array(rho.entries, rho.dims, cut))
    s_b = _entropy_array(_partial_trace_array(rho.entries, rho.dims, rest))
    s_ab = entropy(rho)
    return s_a + s_b - s_ab


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


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": np.eye(2, dtype=complex), "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

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
