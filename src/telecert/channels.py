"""Non-unitary primitives: destructive measurement, trash, reset, and the RNG stream.

Measurement is destructive: the measured qubit is deleted from the register,
so an n-qubit state becomes an (n-1)-qubit state plus one classical bit.
The comparison direction follows the Born rule: outcome 0 occurs with
probability p0 = sum of |amplitude|^2 over labels whose measured bit is 0.

Trash discards a qubit with no classical record (a partial trace); it differs
from measure-and-forget only in that no bit exists, not in the surviving
state: the probability-weighted average of the two measurement branches
equals the partial trace exactly.

Nothing here samples: protocols draws every announcement from RngStream rows
in one function, _sample_bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import DensityOperator, PureState, partial_trace, to_density

_PROB_ATOL = 1e-9  # degenerate-probability guard for corrupted states


class RngStream:
    """Counter-based deterministic PRNG (Philox), seeded by one integer.

    A stream is single-owner mutable. Philox is counter-based: every block of
    4 draws comes from one counter value, so skip() can start a fresh stream
    at any draw index that is a multiple of 4. Row i of the draws is the
    block of trajectory or shot i: run_sampled reads one row per call, and
    Monte Carlo estimation reads its rows in chunks that start on a counter
    step, so chunk rows equal the rows of one uniform_block over all shots,
    and its results are a function of (seed, shot index) only.

    A draw is one raw 64-bit Philox word w, and uniform_block returns the
    words as they are: u = (w >> 11) * 2^-53 is exactly the float that
    Generator.random makes of the same word. The sampler compares words
    with word thresholds and makes no float and no shift.
    """

    algorithm = "philox"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))
        self._words = self._gen.bit_generator.random_raw
        self.draws = 0

    def skip(self, draws: int) -> None:
        """Move a fresh stream past its first `draws` draws (a multiple of 4)."""
        if draws < 0 or draws % 4:
            raise ValueError(f"skip needs a non-negative multiple of 4 draws, got {draws}")
        if self.draws:
            raise ValueError("skip needs a fresh stream; this one has drawn already")
        self._gen.bit_generator.advance(draws // 4)

    def uniform(self) -> float:
        """One draw, uniform on [0, 1)."""
        self.draws += 1
        return float(self._gen.random())

    def uniform_block(self, shape: tuple[int, ...]) -> np.ndarray:
        """Bulk raw words w, uint64, of u = (w >> 11) * 2^-53 on [0, 1); row i is shot i's block."""
        block = self._words(shape)
        self.draws += block.size
        return block

    def __repr__(self):
        return f"RngStream(algorithm={self.algorithm!r}, seed={self.seed}, draws={self.draws})"


@dataclass(frozen=True)
class MeasurementOutcome:
    """One outcome of a destructive single-qubit measurement.

    post_state is renormalized, with the measured qubit removed; it is None
    for zero-probability branches (the undefined-state flag).
    """

    bit: int
    probability: float
    post_state: PureState | None


def _project(state: PureState, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    psi = state.amplitudes.reshape([2] * n)
    return np.take(psi, 0, axis=qubit).reshape(-1), np.take(psi, 1, axis=qubit).reshape(-1)


def measure_branches(state: PureState, qubit: int) -> list[MeasurementOutcome]:
    """Exact enumeration of both outcomes; probabilities sum to 1."""
    state.require_normalized()
    sub0, sub1 = _project(state, qubit)
    n = state.num_qubits
    out = []
    for bit, sub in ((0, sub0), (1, sub1)):
        p = float(np.vdot(sub, sub).real)
        post = PureState(n - 1, sub / np.sqrt(p)) if p > 0.0 else None
        out.append(MeasurementOutcome(bit, p, post))
    total = out[0].probability + out[1].probability
    if abs(total - 1.0) > _PROB_ATOL:
        raise ValueError(f"branch probabilities sum to {total}, state corrupted")
    return out


def trash(state: PureState | DensityOperator, qubit: int) -> DensityOperator:
    """Discard a qubit with no record; mathematically a partial trace."""
    rho = to_density(state) if isinstance(state, PureState) else state
    return partial_trace(rho, {qubit})


def regenerate_zero(state: DensityOperator, at: int) -> DensityOperator:
    """Tensor-insert a fresh |0><0| qubit at register position `at`."""
    n = state.num_qubits
    if not 0 <= at <= n:
        raise ValueError(f"insert position {at} out of range for {n} qubits")
    t = state.matrix.reshape([2] * (2 * n))
    out = np.zeros([2] * (2 * (n + 1)), dtype=complex)
    idx = [slice(None)] * (2 * (n + 1))
    idx[at] = 0
    idx[n + 1 + at] = 0
    # remaining axes keep their relative order on both row and column sides
    out[tuple(idx)] = t
    return DensityOperator(n + 1, out.reshape(2 ** (n + 1), 2 ** (n + 1)))
