import numpy as np
import pytest

from telecert.gates import (
    UnitaryMatrix,
    cnot,
    entanglement_gadget,
    entanglement_gadget_inverse,
    ghz_rotation,
    hadamard,
    pauli_x,
    pauli_z,
)

SQ2 = np.sqrt(2)

# printed reference matrices for the two-qubit gates
CNOT_REF = np.array([[1, 0, 0, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, 1, 0]])
GADGET_REF = np.array([[1, 0, 1, 0],
                       [0, 1, 0, 1],
                       [0, 1, 0, -1],
                       [1, 0, -1, 0]]) / SQ2


def test_hadamard_action():
    h = hadamard().entries
    np.testing.assert_allclose(h @ [1, 0], [1 / SQ2, 1 / SQ2])
    np.testing.assert_allclose(h @ [0, 1], [1 / SQ2, -1 / SQ2])


def test_pauli_actions():
    np.testing.assert_allclose(pauli_x().entries @ [0, 1], [1, 0])
    minus = np.array([1, -1]) / SQ2
    np.testing.assert_allclose(pauli_z().entries @ (np.array([1, 1]) / SQ2), minus)


def test_cnot_matrix_and_action():
    np.testing.assert_allclose(cnot().entries, CNOT_REF)
    np.testing.assert_allclose(cnot().entries @ [0, 0, 1, 0], [0, 0, 0, 1])  # |10> -> |11>
    np.testing.assert_allclose(cnot().entries @ [1, 0, 0, 0], [1, 0, 0, 0])  # |00> -> |00>


def test_ghz_rotation_examples():
    np.testing.assert_allclose(ghz_rotation(1, 0.0).entries, np.eye(2), atol=1e-15)
    ghz3 = ghz_rotation(3, np.pi / 2).entries @ np.eye(8)[:, 0]
    want = np.zeros(8)
    want[0] = want[7] = 1 / SQ2
    np.testing.assert_allclose(ghz3, want, atol=1e-15)
    flipped = ghz_rotation(2, np.pi).entries @ np.eye(4)[:, 0]
    np.testing.assert_allclose(flipped, [0, 0, 0, 1], atol=1e-15)


def test_ghz_rotation_norm_for_random_theta():
    rng = np.random.default_rng(7)
    for theta in rng.uniform(0, 2 * np.pi, size=1000):
        v = ghz_rotation(2, theta).entries @ np.eye(4)[:, 0]
        assert abs(np.vdot(v, v).real - 1) < 1e-12


def test_ghz_rotation_m1_equals_bloch_phi0():
    for theta in (0.0, 0.7, np.pi / 2, 2.8):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        np.testing.assert_allclose(ghz_rotation(1, theta).entries, [[c, -s], [s, c]], atol=1e-15)


def test_gadget_matrix_and_ebits():
    g = entanglement_gadget().entries
    np.testing.assert_allclose(g, GADGET_REF, atol=1e-15)
    np.testing.assert_allclose(g @ [1, 0, 0, 0], [1 / SQ2, 0, 0, 1 / SQ2], atol=1e-15)
    np.testing.assert_allclose(g @ [0, 0, 1, 0], [1 / SQ2, 0, 0, -1 / SQ2], atol=1e-15)
    # images of the basis are orthonormal
    images = [g @ np.eye(4)[:, i] for i in range(4)]
    for i in range(4):
        for j in range(i):
            assert abs(np.vdot(images[i], images[j])) < 1e-12


def test_gadget_inverse_property():
    g = entanglement_gadget().entries
    ginv = entanglement_gadget_inverse().entries
    np.testing.assert_allclose(ginv @ g, np.eye(4), atol=1e-12)
    for i in range(4):
        e = np.eye(4)[:, i]
        np.testing.assert_allclose(ginv @ (g @ e), e, atol=1e-12)


def test_all_constructors_unitary():
    gates = [hadamard(), pauli_x(), pauli_z(), cnot(),
             entanglement_gadget(), entanglement_gadget_inverse(), ghz_rotation(3, 0.9)]
    for g in gates:
        np.testing.assert_allclose(g.entries.conj().T @ g.entries, np.eye(g.dim), atol=1e-12)


def test_unitarity_enforced_at_construction():
    with pytest.raises(ValueError):
        UnitaryMatrix(2, np.array([[1, 1], [0, 1]], dtype=complex))
    # the naive GHZ-rotation combination is rejected: it is not an isometry
    theta = 1.0
    naive = np.cos(theta / 2) * np.eye(4) + np.sin(theta / 2) * np.kron(
        [[0, 1], [1, 0]], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        UnitaryMatrix(4, naive.astype(complex))
    # but it acts on |0...0> exactly as the unitary completion does
    v = ghz_rotation(2, theta).entries @ np.eye(4)[:, 0]
    np.testing.assert_allclose(naive @ np.eye(4)[:, 0], v, atol=1e-15)
