"""Dense multi-qubit pure states and density operators.

Qubit ordering convention, used everywhere in this package: qubit index 0 is
the most significant bit of the computational-basis label, so the basis state
|b0 b1 ... b(n-1)> sits at amplitude index sum(b_q * 2**(n-1-q)).

Values are immutable after construction (backing arrays are write-protected)
and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ATOL_CONSTRUCT = 1e-12   # construction-time algebraic checks
ATOL_EIG = 1e-10         # eigenvalue positivity (eigensolvers are looser)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector over an ordered qubit register.

    Sub-normalized states are first class: a branch state after a projective
    measurement carries its branch probability as its squared 2-norm.
    """

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be >= 0")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(f"expected {2**self.num_qubits} amplitudes, got {amps.shape}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def norm_sq(self) -> float:
        """Squared 2-norm; equals the branch probability for measurement residues."""
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm_sq - 1.0) <= ATOL_CONSTRUCT

    def require_normalized(self) -> None:
        if not self.is_normalized:
            raise ValueError(f"state not normalized (norm^2 = {self.norm_sq!r})")


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian positive matrix over a qubit register, possibly sub-normalized.

    Sub-normalized operators (trace < 1) are meaningful data: the trace of a
    branch operator is the branch probability.
    """

    num_qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be >= 0")
        dim = 2**self.num_qubits
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_CONSTRUCT:
            raise ValueError("matrix is not Hermitian")
        if dim <= 2**8 and np.min(np.linalg.eigvalsh(mat)) < -ATOL_EIG:
            raise ValueError("matrix is not positive semidefinite")
        tr = np.trace(mat)
        if abs(tr.imag) > ATOL_CONSTRUCT or tr.real < -ATOL_CONSTRUCT or tr.real > 1 + ATOL_CONSTRUCT:
            raise ValueError(f"trace {tr} outside [0, 1]")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def basis_state(num_qubits: int, index: int = 0) -> PureState:
    """Computational basis state |index> on the given register size."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return PureState(num_qubits, amps)


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker composition; a's qubits take the high-order positions."""
    return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def apply_unitary(state: PureState, u, targets: list[int]) -> PureState:
    """Apply a unitary to the listed target qubits, identity elsewhere.

    `u` is a UnitaryMatrix (see gates module) or any matrix already verified
    unitary; its dimension must be 2**len(targets).
    """
    mat = getattr(u, "entries", u)
    n = state.num_qubits
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target index in {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for {n} qubits")
    if mat.shape != (2**k, 2**k):
        raise ValueError(f"unitary dimension {mat.shape} does not match {k} targets")

    psi = state.amplitudes.reshape([2] * n)
    # tensordot contracts u's column axes with the target axes, then the
    # result's leading axes are the new target axes in order.
    u_tensor = mat.reshape([2] * (2 * k))
    psi = np.tensordot(u_tensor, psi, axes=(list(range(k, 2 * k)), targets))
    psi = np.moveaxis(psi, list(range(k)), targets)
    return PureState(n, psi.reshape(-1))


def to_density(psi: PureState) -> DensityOperator:
    """Rank-1 operator |psi><psi|; trace equals the squared norm."""
    v = psi.amplitudes
    return DensityOperator(psi.num_qubits, np.outer(v, v.conj()))


def partial_trace(rho: DensityOperator, discard: set[int] | list[int]) -> DensityOperator:
    """Trace out the given qubits; remaining qubits keep their relative order.

    Discarding every qubit yields the 1x1 operator holding the trace.
    """
    discard = sorted(set(discard))
    n = rho.num_qubits
    for q in discard:
        if not 0 <= q < n:
            raise ValueError(f"discard index {q} out of range for {n} qubits")
    t = rho.matrix.reshape([2] * (2 * n))
    for offset, q in enumerate(discard):
        m = n - offset  # qubits remaining before this trace
        t = np.trace(t, axis1=q - offset, axis2=m + q - offset)
    k = n - len(discard)
    return DensityOperator(k, t.reshape(2**k, 2**k))


def expectation(rho: DensityOperator, psi: PureState) -> float:
    """<psi|rho|psi> for normalized psi; real within 1e-12 residue."""
    if rho.num_qubits != psi.num_qubits:
        raise ValueError(
            f"dimension mismatch: rho has {rho.num_qubits} qubits, psi has {psi.num_qubits}"
        )
    psi.require_normalized()
    val = complex(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes))
    if abs(val.imag) > ATOL_CONSTRUCT:
        raise ValueError(f"expectation has imaginary residue {val.imag}")
    return val.real
