"""The unitary vocabulary used by the teleportation protocols.

All constructors return a UnitaryMatrix whose unitarity is verified at
construction to 1e-12. Matrices are stored as printed (H has determinant -1;
no SU(2) re-phasing).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .statevec import ATOL_CONSTRUCT, _frozen


@dataclass(frozen=True)
class UnitaryMatrix:
    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.ascontiguousarray(self.entries, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrix, got {mat.shape}")
        if self.dim & (self.dim - 1):
            raise ValueError(f"dimension {self.dim} is not a power of two")
        if np.max(np.abs(mat.conj().T @ mat - np.eye(self.dim))) > ATOL_CONSTRUCT:
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "entries", _frozen(mat))


def _u(entries) -> UnitaryMatrix:
    entries = np.asarray(entries, dtype=complex)
    return UnitaryMatrix(entries.shape[0], entries)


def hadamard() -> UnitaryMatrix:
    """H: |e> -> (|0> + (-1)^e |1>)/sqrt(2)."""
    return _u(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def pauli_x() -> UnitaryMatrix:
    return _u([[0, 1], [1, 0]])


def pauli_z() -> UnitaryMatrix:
    return _u([[1, 0], [0, -1]])


def cnot() -> UnitaryMatrix:
    """|e0 e1> -> |e0, e1 xor e0>; control is the higher-order qubit."""
    return _u([[1, 0, 0, 0],
               [0, 1, 0, 0],
               [0, 0, 0, 1],
               [0, 0, 1, 0]])


def ghz_rotation(m: int, theta: float) -> UnitaryMatrix:
    """m-qubit rotation with R|0...0> = cos(t/2)|0>^m + sin(t/2)|1>^m.

    Implemented as the plane rotation in span{|0>^m, |1>^m}, identity on the
    orthogonal complement. The naive combination cos(t/2) I + sin(t/2) X^m
    has the same action on |0>^m but is not unitary (its square is
    I + sin(t) X^m), so the plane rotation is the unitary completion; the
    protocols never apply the gate to anything but |0>^m. For m = 1 this is
    the real rotation [[c, -s], [s, c]], c = cos(t/2), s = sin(t/2).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    dim = 2**m
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    mat = np.eye(dim, dtype=complex)
    mat[0, 0] = c
    mat[0, dim - 1] = -s
    mat[dim - 1, 0] = s
    mat[dim - 1, dim - 1] = c
    return UnitaryMatrix(dim, mat)


def entanglement_gadget() -> UnitaryMatrix:
    """CNOT . (H x I): maps the computational basis to the four ebits."""
    h1 = np.kron(hadamard().entries, np.eye(2))
    return _u(cnot().entries @ h1)


def entanglement_gadget_inverse() -> UnitaryMatrix:
    """(H x I) . CNOT, the Bell-measurement rotation."""
    h1 = np.kron(hadamard().entries, np.eye(2))
    return _u(h1 @ cnot().entries)
