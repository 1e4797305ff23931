import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telecert.statevec import (
    DensityOperator,
    PureState,
    apply_unitary,
    basis_state,
    expectation,
    partial_trace,
    tensor,
    to_density,
)
from telecert.gates import cnot, ghz_rotation, hadamard, pauli_x

from oracle import lift

RNG = np.random.default_rng(20240811)


def random_state(n, rng=RNG, normalized=True):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    if normalized:
        v /= np.linalg.norm(v)
    return PureState(n, v)


def random_unitary(k, rng=RNG):
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_tensor_basis_composition():
    got = tensor(basis_state(1, 0), basis_state(1, 0))
    np.testing.assert_allclose(got.amplitudes, [1, 0, 0, 0])


def test_tensor_one_kron_plus():
    plus = PureState(1, np.array([1, 1]) / np.sqrt(2))
    got = tensor(basis_state(1, 1), plus)
    np.testing.assert_allclose(got.amplitudes, [0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_tensor_matches_kron_oracle():
    # includes the 3-qubit circuit input: 1-qubit rotation share times the ebit
    psi = apply_unitary(basis_state(1), ghz_rotation(1, np.pi / 2), [0])
    ebit = PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    np.testing.assert_allclose(tensor(psi, ebit).amplitudes,
                               np.kron(psi.amplitudes, ebit.amplitudes), atol=1e-15)
    for _ in range(10):
        a, b = random_state(2), random_state(3)
        np.testing.assert_allclose(tensor(a, b).amplitudes,
                                   np.kron(a.amplitudes, b.amplitudes), atol=1e-15)


def test_tensor_associative():
    a, b, c = random_state(1), random_state(2), random_state(1)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-15)



def test_apply_x_on_qubit0():
    got = apply_unitary(basis_state(2, 0b00), pauli_x(), [0])
    np.testing.assert_allclose(got.amplitudes, basis_state(2, 0b10).amplitudes)


def test_apply_hadamard():
    got = apply_unitary(basis_state(1), hadamard(), [0])
    np.testing.assert_allclose(got.amplitudes, [1, 1] / np.sqrt(2))


def test_apply_cnot_entangles():
    plus0 = PureState(2, np.array([1, 0, 1, 0]) / np.sqrt(2))
    got = apply_unitary(plus0, cnot(), [0, 1])
    np.testing.assert_allclose(got.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))


@pytest.mark.parametrize("n,targets", [(2, [0]), (2, [1]), (3, [2, 0]), (4, [1, 3]), (3, [0, 1, 2])])
def test_apply_unitary_matches_lift_oracle(n, targets):
    u = random_unitary(len(targets))
    state = random_state(n)
    got = apply_unitary(state, u, targets)
    want = lift(u, targets, n) @ state.amplitudes
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-12)
    assert abs(got.norm_sq - 1) < 1e-12


def test_apply_unitary_errors():
    with pytest.raises(ValueError):
        apply_unitary(basis_state(2), cnot(), [0])  # dimension mismatch
    with pytest.raises(ValueError):
        apply_unitary(basis_state(2), cnot(), [0, 0])  # duplicate target
    with pytest.raises(ValueError):
        apply_unitary(basis_state(2), pauli_x(), [5])


def test_to_density_examples():
    np.testing.assert_allclose(to_density(basis_state(1)).matrix, [[1, 0], [0, 0]])
    plus = PureState(1, np.array([1, 1]) / np.sqrt(2))
    np.testing.assert_allclose(to_density(plus).matrix, np.full((2, 2), 0.5), atol=1e-15)
    sub = PureState(1, np.array([0.5, 0]))  # branch state with norm^2 = 1/4
    assert abs(to_density(sub).trace - 0.25) < 1e-15


def test_partial_trace_bell():
    bell = PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    got = partial_trace(to_density(bell), {1})
    np.testing.assert_allclose(got.matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product():
    got = partial_trace(to_density(basis_state(2, 0b01)), {1})
    np.testing.assert_allclose(got.matrix, [[1, 0], [0, 0]], atol=1e-15)


def test_partial_trace_recovers_left_factor():
    for _ in range(5):
        a, b = random_state(2), random_state(2)
        got = partial_trace(to_density(tensor(a, b)), {2, 3})
        np.testing.assert_allclose(got.matrix, to_density(a).matrix, atol=1e-12)


def test_partial_trace_preserves_trace_and_discard_all():
    rho = to_density(random_state(3))
    reduced = partial_trace(rho, {0, 2})
    assert abs(reduced.trace - rho.trace) < 1e-12
    everything = partial_trace(rho, {0, 1, 2})
    assert everything.num_qubits == 0
    np.testing.assert_allclose(everything.matrix, [[1.0]], atol=1e-12)


def test_expectation_extremes_and_half():
    zero, one = basis_state(1, 0), basis_state(1, 1)
    assert expectation(to_density(zero), zero) == pytest.approx(1.0, abs=1e-15)
    assert expectation(to_density(one), zero) == pytest.approx(0.0, abs=1e-15)
    mixed = DensityOperator(1, np.eye(2) / 2)
    assert expectation(mixed, random_state(1)) == pytest.approx(0.5, abs=1e-12)


def test_expectation_linear_in_rho():
    psi = random_state(2)
    r1, r2 = to_density(random_state(2)), to_density(random_state(2))
    a, b = 0.3, 0.45
    combined = DensityOperator(2, a * r1.matrix + b * r2.matrix)
    assert expectation(combined, psi) == pytest.approx(
        a * expectation(r1, psi) + b * expectation(r2, psi), abs=1e-12)


def test_expectation_requires_matching_dims_and_norm():
    with pytest.raises(ValueError):
        expectation(to_density(basis_state(2)), basis_state(1))
    with pytest.raises(ValueError):
        expectation(to_density(basis_state(1)), PureState(1, np.array([0.5, 0])))


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(1, np.array([[0, 1], [0, 0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(1, np.array([[1.5, 0], [0, -0.5]]))  # not PSD
    with pytest.raises(ValueError):
        DensityOperator(1, np.eye(2))  # trace 2 > 1


def test_purestate_validation_and_immutability():
    with pytest.raises(ValueError):
        PureState(2, np.zeros(3))
    s = basis_state(2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(0, 2 * np.pi), phi=st.floats(0, 2 * np.pi),
       seed=st.integers(0, 2**31))
def test_unitaries_preserve_norm(theta, phi, seed):
    state = random_state(1, np.random.default_rng(seed))
    # a general unitary, up to a phase on |1>: the rotation, then diag(1, e^(i phi))
    u = np.diag([1, np.exp(1j * phi)]) @ ghz_rotation(1, theta).entries
    out = apply_unitary(state, u, [0])
    assert abs(out.norm_sq - 1) < 1e-12
