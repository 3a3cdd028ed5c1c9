import numpy as np
import pytest

from decosim import (
    DensityMatrix,
    Operator,
    apply_channel,
    indirect_measurement,
    kraus_from_unitary,
    measurement_operators,
    verify_completeness,
)
from decosim.channels import KrausChannel
from decosim.errors import PhysicalityError

from conftest import random_density, random_unitary


def _dilation(rng, d_s=2, d_e=2) -> Operator:
    return Operator(random_unitary(rng, d_s * d_e), dims=(d_s, d_e))


def dilation_action(u: Operator, rho_sys: DensityMatrix, rho_env: DensityMatrix) -> np.ndarray:
    """Reference map Tr_env[ U (rho_sys x rho_env) U^dag ], as a (d_s, d_s) array."""
    d_s, d_e = u.dims
    joint = np.kron(rho_sys.entries, rho_env.entries)
    evolved = u.entries @ joint @ u.entries.conj().T
    return np.einsum("ajbj->ab", evolved.reshape(d_s, d_e, d_s, d_e))


def test_kraus_extraction_matches_partial_trace_reference(rng):
    for _ in range(20):
        u = _dilation(rng)
        rho_env = DensityMatrix(random_density(rng, 2))
        rho_sys = DensityMatrix(random_density(rng, 2))
        channel = kraus_from_unitary(u, rho_env)
        via_kraus = apply_channel(channel, rho_sys)
        reference = dilation_action(u, rho_sys, rho_env)
        assert np.abs(via_kraus.entries - reference).max() < 1e-12


def test_kraus_completeness(rng):
    for d_s, d_e in ((2, 2), (2, 3), (3, 2)):
        u = _dilation(rng, d_s, d_e)
        rho_env = DensityMatrix(random_density(rng, d_e))
        channel = kraus_from_unitary(u, rho_env)
        assert verify_completeness(channel) < 1e-12
        assert len(channel.operators) <= d_e * d_e


def test_pure_environment_gives_at_most_denv_operators(rng):
    u = _dilation(rng, 2, 3)
    v = np.zeros(3, dtype=complex)
    v[1] = 1.0
    rho_env = DensityMatrix(np.outer(v, v.conj()))
    channel = kraus_from_unitary(u, rho_env)
    assert len(channel.operators) <= 3


def test_nonunitary_dilation_rejected(rng):
    bad = Operator(random_unitary(rng, 4) + 0.01, dims=(2, 2))
    rho_env = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(PhysicalityError):
        kraus_from_unitary(bad, rho_env)


def test_dilation_needs_two_factor_dims(rng):
    u = Operator(random_unitary(rng, 4))  # single factor
    with pytest.raises(ValueError):
        kraus_from_unitary(u, DensityMatrix(np.eye(4) / 4))


def test_incomplete_channel_warns(rng):
    half = Operator(0.5 * np.eye(2))
    channel = KrausChannel((half,), 2)
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.warns(UserWarning):
        with pytest.raises(PhysicalityError):
            # trace is no longer one, so construction of the output fails
            apply_channel(channel, rho)


def _z_projectors(d_e=2):
    p0 = np.zeros((d_e, d_e), dtype=complex)
    p0[0, 0] = 1.0
    p1 = np.eye(d_e, dtype=complex) - p0
    return (Operator(p0), Operator(p1))


def test_indirect_measurement_probabilities_and_average(rng):
    u = _dilation(rng)
    rho_sys = DensityMatrix(random_density(rng, 2))
    rho_env = DensityMatrix(random_density(rng, 2))
    outcomes = indirect_measurement(u, rho_sys, rho_env, _z_projectors())
    probs = [p for p, _ in outcomes]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    # readout ignored: the statistical mixture reproduces the channel output
    avg = sum(p * s.entries for p, s in outcomes if s is not None)
    channel_out = apply_channel(kraus_from_unitary(u, rho_env), rho_sys)
    assert np.abs(avg - channel_out.entries).max() < 1e-10


def test_indirect_measurement_on_trivial_unitary():
    u = Operator(np.eye(4), dims=(2, 2))
    rho_sys = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    rho_env = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    outcomes = indirect_measurement(u, rho_sys, rho_env, _z_projectors())
    assert outcomes[0][0] == pytest.approx(1.0, abs=1e-12)
    assert outcomes[1][1] is None
    assert np.abs(outcomes[0][1].entries - rho_sys.entries).max() < 1e-12


def test_projector_set_validation(rng):
    u = _dilation(rng)
    rho = DensityMatrix(np.eye(2) / 2)
    p0 = np.zeros((2, 2), dtype=complex)
    p0[0, 0] = 1.0
    with pytest.raises(PhysicalityError):
        indirect_measurement(u, rho, rho, (Operator(p0), Operator(p0)))
    with pytest.raises(PhysicalityError):
        indirect_measurement(u, rho, rho, (Operator(p0),))


def test_measurement_operators_resolve_identity(rng):
    u = _dilation(rng)
    rho_env = DensityMatrix(random_density(rng, 2))
    meas = measurement_operators(u, rho_env, _z_projectors())
    assert verify_completeness(meas) < 1e-10
    # measurement statistics agree with the projective route
    rho_sys = DensityMatrix(random_density(rng, 2))
    outcomes = indirect_measurement(u, rho_sys, rho_env, _z_projectors())
    for alpha in (0, 1):
        p_direct = sum(
            float(np.real(np.trace(op.entries @ rho_sys.entries @ op.entries.conj().T)))
            for op, (a, _) in zip(meas.operators, meas.outcome_labels)
            if a == alpha
        )
        assert p_direct == pytest.approx(outcomes[alpha][0], abs=1e-10)


def test_measurement_operators_need_rank_one_projectors(rng):
    u = Operator(random_unitary(rng, 8), dims=(2, 4))
    rho_env = DensityMatrix(np.eye(4) / 4)
    p0 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    p1 = np.eye(4) - p0
    with pytest.raises(ValueError):
        measurement_operators(u, rho_env, (Operator(p0), Operator(p1)))
