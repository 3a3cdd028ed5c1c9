import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decosim import (
    DensityMatrix,
    KET_0,
    KET_PLUS,
    Operator,
    StateVector,
    basis_state,
    embed,
    entropy,
    identity,
    ket,
    mutual_information,
    overlap,
    partial_trace,
    partial_trace_keep_state,
    purity,
    sigma,
    tensor,
)
from decosim.core import PAULIS, check_states, spectral_entropy
from decosim.pointer import InteractionSpec, collective_dephasing_spec
from decosim.errors import PhysicalityError

from conftest import random_density, random_pure, random_unitary


def test_entropy_frozen_value():
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    # -(3/4) log2(3/4) - (1/4) log2(1/4), evaluated independently
    assert entropy(rho) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_of_pure_state_is_zero(rng):
    for dim in (2, 3, 5):
        v = random_pure(rng, dim)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert abs(entropy(rho)) < 1e-9
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)


def test_maximally_mixed_extremes():
    for dim in (2, 4, 7):
        rho = DensityMatrix(np.eye(dim) / dim)
        assert entropy(rho) == pytest.approx(np.log2(dim), abs=1e-12)
        assert purity(rho) == pytest.approx(1.0 / dim, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_purity_and_entropy_bounds(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    rho = DensityMatrix(random_density(rng, dim))
    p = purity(rho)
    s = entropy(rho)
    assert 1.0 / dim - 1e-10 <= p <= 1.0 + 1e-10
    assert -1e-9 <= s <= np.log2(dim) + 1e-9


def test_bell_state_mutual_information_is_two_bits():
    bell = ket([1, 0, 0, 1], dims=(2, 2))
    assert mutual_information(bell.density(), [0]) == pytest.approx(2.0, abs=1e-10)


def test_product_state_mutual_information_vanishes(rng):
    a = random_pure(rng, 2)
    b = random_pure(rng, 3)
    joint = ket(np.kron(a, b), dims=(2, 3))
    assert abs(mutual_information(joint.density(), [0])) < 1e-9


def test_partial_trace_of_product_state(rng):
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    joint = DensityMatrix(np.kron(a, b), dims=(2, 3))
    left = partial_trace(joint, [0])
    right = partial_trace(joint, [1])
    assert np.abs(left.entries - a).max() < 1e-12
    assert np.abs(right.entries - b).max() < 1e-12


def test_partial_trace_keep_state_matches_density_route(rng):
    v = random_pure(rng, 12)
    psi = StateVector(v, dims=(2, 3, 2))
    for keep in ([0], [1], [2], [0, 2]):
        direct = partial_trace_keep_state(psi, keep)
        via_density = partial_trace(psi.density(), keep)
        assert np.abs(direct.entries - via_density.entries).max() < 1e-12


def test_tensor_and_embed_consistency():
    sz = sigma("z")
    sx = sigma("x")
    joint = tensor(sz, sx)
    rebuilt = embed(sz.entries, 0, 2) @ embed(sx.entries, 1, 2)
    assert np.abs(joint.entries - rebuilt).max() < 1e-14


def test_embed_on_mixed_dimensions():
    op = np.diag([1.0, 2.0, 3.0]).astype(complex)
    big = embed(op, 1, 3, dims=(2, 3, 2))
    assert big.shape == (12, 12)
    # acts as identity on the other factors
    assert np.abs(big @ big - embed(op @ op, 1, 3, dims=(2, 3, 2))).max() < 1e-12


def test_basis_state_and_overlap():
    e2 = basis_state(4, 2, dims=(2, 2))
    assert e2.amplitudes[2] == 1.0
    assert overlap(e2, e2) == pytest.approx(1.0)
    assert abs(overlap(e2, basis_state(4, 1, dims=(2, 2)))) == 0.0
    assert overlap(KET_0, KET_PLUS) == pytest.approx(1 / np.sqrt(2))


def test_state_norm_guard():
    with pytest.raises(PhysicalityError):
        StateVector(np.array([1.0, 1.0]))


def test_density_construction_guards():
    with pytest.raises(PhysicalityError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(PhysicalityError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(PhysicalityError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_dims_must_factor_the_dimension():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0, 0, 0]), dims=(3,))
    with pytest.raises(ValueError):
        Operator(np.eye(4), dims=(2, 3))


def test_arrays_are_frozen():
    psi = ket([1, 0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 9.0


def test_containers_freeze_a_private_copy_not_the_callers_array():
    caller = {
        "operator": np.eye(2, dtype=complex),
        "density": np.eye(2, dtype=complex) / 2,
        "state": np.array([1.0, 0.0], dtype=complex),
        "system": np.diag([1.0, -1.0]).astype(complex),
        "environment": np.array([[0, 1], [1, 0]], dtype=complex),
    }
    built = {
        "operator": Operator(caller["operator"]).entries,
        "density": DensityMatrix(caller["density"]).entries,
        "state": StateVector(caller["state"]).amplitudes,
    }
    built["system"], built["environment"] = InteractionSpec(
        ((caller["system"], caller["environment"]),)).terms[0]
    for name, arr in caller.items():
        assert arr.flags.writeable, name
        before = built[name].copy()
        arr *= 3.0  # the caller may go on using its array
        assert np.array_equal(built[name], before), name
        assert not built[name].flags.writeable, name


def test_operator_constants_are_read_only_from_import():
    states = [m.flags.writeable for m in PAULIS.values()]
    collective_dephasing_spec(2)
    Operator(PAULIS["x"])
    assert states == [m.flags.writeable for m in PAULIS.values()] == [False] * 4


def test_operator_hermitian_and_unitary_flags(rng):
    u = random_unitary(rng, 3)
    assert Operator(u).is_unitary()
    assert not Operator(u + 0.1).is_unitary()
    h = random_density(rng, 3)
    assert Operator(h).is_hermitian()


def test_identity_helper():
    one = identity(6, dims=(2, 3))
    assert np.abs(one.entries - np.eye(6)).max() == 0.0
    assert one.dims == (2, 3)


def test_check_states_names_the_first_failing_matrix(rng):
    good = np.stack([random_density(rng, 3) for _ in range(5)])
    spectra = check_states(good)
    assert spectra.shape == (5, 3)
    assert np.array_equal(spectra, np.stack([DensityMatrix(m).spectrum for m in good]))
    bad = good.copy()
    bad[4] = np.diag([0.7, 0.7, 0.7])  # trace 2.1
    bad[2, 0, 0] += 1e-3  # fails the trace check too, and comes first
    bad[3, 0, 0] = np.inf
    with pytest.raises(PhysicalityError, match=r"^trace .* at index 2$"):
        check_states(bad)
    bad[2] = np.diag([1.5, -0.5, 0.0])
    with pytest.raises(PhysicalityError, match=r"^minimum eigenvalue .* at t=0\.5$"):
        check_states(bad, times=np.linspace(0.0, 1.0, 5))
    bad[2] = good[2]
    with pytest.raises(PhysicalityError, match=r"^array contains non-finite entries at index 3$"):
        check_states(bad)
    with pytest.raises(ValueError, match="stack"):
        check_states(np.zeros((2, 2, 3)))


def _entropy_oracle(eigs):
    p = eigs[eigs > 0.0]
    return -np.sum(p * np.log(p)) / np.log(2.0)


def test_stacked_entropy_and_purity_equal_the_per_state_values_bitwise(rng):
    for dim in (2, 9, 41):
        states = [DensityMatrix(random_density(rng, dim, rank=r)) for r in (1, 2, dim, dim)]
        # diagonal states with exact zeros: every row sums a different count of terms
        for rank in (1, dim // 2, dim - 1):
            p = np.zeros(dim)
            p[rng.permutation(dim)[:rank]] = rng.dirichlet(np.ones(rank))
            states.append(DensityMatrix(np.diag(p)))
        stack = np.stack([rho.entries for rho in states])
        spectra = check_states(stack)
        ent = spectral_entropy(spectra)
        assert np.array_equal(ent, [entropy(rho) for rho in states])
        assert np.array_equal(ent, [_entropy_oracle(e) for e in spectra])
        assert np.array_equal(purity(stack), [purity(rho) for rho in states])
