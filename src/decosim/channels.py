"""Operator-sum (Kraus) channels and their unitary dilations.

A channel can be built directly from operators or extracted from a
system-environment unitary plus an environment state.  The completeness
convention used throughout is trace preservation, sum_k W_k^dag W_k = 1;
``verify_completeness`` measures the defect against that convention.

Indirect measurement decomposes the same dilation by a projective
readout on the environment, yielding outcome probabilities and
conditional post-measurement system states.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    Operator,
    StateVector,
    _partial_trace_array,
    symmetrize,
)
from .errors import PhysicalityError

COMPLETENESS_TOL = 1e-9
UNITARY_TOL = 1e-10
PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """Set of Kraus operators acting on one system dimension.

    Construction checks shapes only; completeness is diagnosed by
    :func:`verify_completeness` so that deliberately truncated channels
    remain representable.
    """

    operators: tuple[Operator, ...]
    dim: int

    def __post_init__(self):
        if not self.operators:
            raise ValueError("channel needs at least one Kraus operator")
        for op in self.operators:
            if op.dim != self.dim:
                raise ValueError(
                    f"Kraus operator dimension {op.dim} does not match channel dimension {self.dim}"
                )
        object.__setattr__(self, "operators", tuple(self.operators))


@dataclass(frozen=True)
class IndirectMeasurement:
    """Measurement operators M[alpha, k] from a dilation read out on the environment.

    Satisfies sum M^dag M = 1 within 1e-9 when the projector set is complete.
    """

    operators: tuple[Operator, ...]
    outcome_labels: tuple[tuple[int, int], ...]
    dim: int


def verify_completeness(channel: KrausChannel | IndirectMeasurement) -> float:
    """Max-abs defect of sum_k W_k^dag W_k from the identity."""
    acc = np.zeros((channel.dim, channel.dim), dtype=complex)
    for op in channel.operators:
        acc += op.entries.conj().T @ op.entries
    return float(np.abs(acc - np.eye(channel.dim)).max())


def _dilation_blocks(u: Operator) -> tuple[int, int, np.ndarray]:
    if len(u.dims) != 2:
        raise ValueError(f"dilation unitary needs dims (d_system, d_env), got {u.dims}")
    d_s, d_e = u.dims
    if not u.is_unitary():  # within HERM_TOL, the same 1e-10 as UNITARY_TOL
        raise PhysicalityError(f"dilation operator is not unitary within {UNITARY_TOL}")
    return d_s, d_e, u.entries.reshape(d_s, d_e, d_s, d_e)


def _env_eigensystem(rho_env: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    probs, vecs = np.linalg.eigh(rho_env.entries)
    probs = np.clip(probs, 0.0, None)
    return probs, vecs


def kraus_from_unitary(u: Operator, rho_env: DensityMatrix) -> KrausChannel:
    """Extract Kraus operators W = sqrt(p_i) <j| U |E_i> from a dilation.

    |E_i> runs over the eigenbasis of the environment state (weights p_i)
    and <j| over the fixed computational basis of the environment, giving
    at most d_env^2 operators; operators below Frobenius norm 1e-12 are
    pruned.
    """
    d_s, d_e, blocks = _dilation_blocks(u)
    if rho_env.dim != d_e:
        raise ValueError(f"environment state dimension {rho_env.dim} does not match {d_e}")
    probs, vecs = _env_eigensystem(rho_env)
    ops: list[Operator] = []
    for i in range(d_e):
        if probs[i] <= 0.0:
            continue
        root = np.sqrt(probs[i])
        # <j|U|E_i> for all j at once: contract the env input leg with |E_i>.
        w_all = np.tensordot(blocks, vecs[:, i], axes=([3], [0]))  # (d_s, d_e_out, d_s)
        for j in range(d_e):
            w = root * w_all[:, j, :]
            if np.linalg.norm(w) >= PRUNE_TOL:
                ops.append(Operator(w, (d_s,)))
    return KrausChannel(tuple(ops), d_s)


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Operator-sum action sum_k W rho W^dag; warns if completeness is violated."""
    defect = verify_completeness(channel)
    if defect > COMPLETENESS_TOL:
        warnings.warn(
            f"Kraus completeness defect {defect:.3e} exceeds {COMPLETENESS_TOL}; "
            "output trace is not protected",
            stacklevel=2,
        )
    out = np.zeros_like(rho.entries)
    for op in channel.operators:
        out += op.entries @ rho.entries @ op.entries.conj().T
    return DensityMatrix(symmetrize(out), rho.dims)


def _check_projectors(projectors, d_e: int) -> None:
    acc = np.zeros((d_e, d_e), dtype=complex)
    mats = [p.entries for p in projectors]
    for i, p in enumerate(mats):
        if p.shape != (d_e, d_e):
            raise ValueError(f"projector {i} has shape {p.shape}, expected {(d_e, d_e)}")
        if np.abs(p - p.conj().T).max() > UNITARY_TOL or np.abs(p @ p - p).max() > 1e-8:
            raise PhysicalityError(f"projector {i} is not an orthogonal projector")
        acc += p
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if np.abs(mats[i] @ mats[j]).max() > 1e-8:
                raise PhysicalityError(f"projectors {i} and {j} are not orthogonal")
    if np.abs(acc - np.eye(d_e)).max() > UNITARY_TOL:
        raise PhysicalityError("projector set does not resolve the identity")


def indirect_measurement(
    u: Operator,
    rho_sys: DensityMatrix,
    rho_env: DensityMatrix,
    projectors: tuple[Operator, ...],
) -> list[tuple[float, DensityMatrix | None]]:
    """Projective environment readout after the dilation unitary.

    Returns one (probability, conditional system state) pair per
    projector.  Probabilities sum to one within 1e-9; outcomes with
    probability below 1e-12 carry ``None`` in place of a state.
    """
    d_s, d_e, _ = _dilation_blocks(u)
    if rho_env.dim != d_e or rho_sys.dim != d_s:
        raise ValueError("state dimensions do not match the dilation unitary")
    _check_projectors(projectors, d_e)
    joint = np.kron(rho_sys.entries, rho_env.entries)
    evolved = u.entries @ joint @ u.entries.conj().T
    eye_s = np.eye(d_s, dtype=complex)
    outcomes: list[tuple[float, DensityMatrix | None]] = []
    for proj in projectors:
        big = np.kron(eye_s, proj.entries)
        cut = big @ evolved @ big
        prob = float(np.real(np.trace(cut)))
        if prob < 1e-12:
            outcomes.append((max(prob, 0.0), None))
            continue
        red = _partial_trace_array(cut, (d_s, d_e), [0]) / prob
        outcomes.append((prob, DensityMatrix(symmetrize(red), rho_sys.dims)))
    total = sum(p for p, _ in outcomes)
    if abs(total - 1.0) > COMPLETENESS_TOL:
        raise PhysicalityError(f"outcome probabilities sum to {total!r}, not 1")
    return outcomes


def measurement_operators(
    u: Operator,
    rho_env: DensityMatrix,
    projectors: tuple[Operator, ...],
) -> IndirectMeasurement:
    """Build M[alpha, k] = sqrt(p_k) <alpha| U |E_k> for rank-1 projectors."""
    d_s, d_e, blocks = _dilation_blocks(u)
    if rho_env.dim != d_e:
        raise ValueError(f"environment state dimension {rho_env.dim} does not match {d_e}")
    _check_projectors(projectors, d_e)
    probs, vecs = _env_eigensystem(rho_env)
    ops: list[Operator] = []
    labels: list[tuple[int, int]] = []
    for alpha, proj in enumerate(projectors):
        evals, evecs = np.linalg.eigh(proj.entries)
        rank1 = [evecs[:, i] for i in range(d_e) if evals[i] > 0.5]
        if len(rank1) != 1:
            raise ValueError("measurement_operators requires rank-1 projectors")
        bra = rank1[0].conj()
        for k in range(d_e):
            if probs[k] <= 0.0:
                continue
            w_all = np.tensordot(blocks, vecs[:, k], axes=([3], [0]))
            m = np.sqrt(probs[k]) * np.tensordot(bra, w_all, axes=([0], [1]))
            ops.append(Operator(m, (d_s,)))
            labels.append((alpha, k))
    return IndirectMeasurement(tuple(ops), tuple(labels), d_s)
