"""Agent-level semantics for the five teleportation protocols.

No agent touches C's m - 1 ancillas, and every target has support only on
|0..0> and |1..1>, so the ancillas act as one logical qubit and m is a label:
a target is its logical state on k = min(m, 2) qubits (build_target), and a
run holds those k share qubits plus D's pair, at most four, for any m:

    0 .. k-2   C's ancillas, |0..0> and |1..1> read as |0> and |1> (none if m = 1)
    k-1        the share C hands to the sender A
    k, k+1     A's and B's halves of the entangled pair supplied by D

Every protocol starts the same way: C prepares the logical target on qubits
0..k-1 and D turns qubits (k, k+1) into the entangled pair. What A and B do
next is one row of PROTOCOL_OPS, a short tuple of ops:

    bell         A applies the Bell rotation to (k-1, k)
    measure(x)   A measures qubit k-1 and announces the outcome as bit x
    trash(j)     A discards j qubits from k-1 on, leaving no record
    coin(x)      A announces a fair random bit x instead of a measured one
    correct      B applies X^b, then Z^a, to his qubit
    fake         B splits off his qubit and sends |a> in its place

Measurements are destructive (the register shrinks), so A always acts on
qubit k-1 and B's qubit is always the last one. A branch travels as a list of
unnormalized pure components whose outer products sum to its state: trashing
a qubit splits every component into its two slices along that qubit (the
Kraus picture of the partial trace), so only a trash or a fake adds
components, and the table never measures after one. Each branch output is
built once, over C's logical ancilla and the qubit B delivers, and a branch
holds only that logical output, never a dense m-qubit form. Outputs are
normalized; the sub-normalized operator is probability * logical. B's fake
commutes with A's operations (disjoint registers), so running it after A's,
as the table does, is equivalent to any interleaving (the test suite checks
this against an independent simulation that orders B first).

One interpreter, _run, runs the table on a logical target and keeps both
outcomes of every measure and coin, so its branches come out in draw order;
_branches labels them for run_exact (one point, the reference) and
_branch_maps.
Branch outputs are linear in the input (Nielsen & Chuang, section 8.2), so
_branch_maps caches each protocol's per-announcement maps E_b, exact, from
one run on a Choi state. _compiled_branches (grids, the trajectory table)
evaluates them at target_amplitudes, the one writer of a target's two
logical amplitudes; _averaged_branches contracts them with a target
distribution's moments instead. Both read p_b through
_checked_probabilities, the one probability-sum check.

run_sampled reads a per-target trajectory table, _trajectory_table, an LRU
cache of at most 256 (protocol, params) entries beside _branch_maps. An entry
holds the target's amplitudes, p_b, f_b and the sampler's per-bit thresholds
(_bit_thresholds), from one checked _compiled_branches call, and each
branch's validated logical output, built on the first call that draws that
branch and never before: a branch never drawn may have p_b = 0 and no output.
A call then draws one RngStream row, one raw Philox word per announced bit,
through _sample_bits, the one sampler, and returns the drawn branch's
logical output. A word w stands for u = (w >> 11) * 2^-53, and each
announced bit is one word comparison against its one threshold, for one row
or a Monte Carlo chunk alike: a measured bit is 1 when w >= W =
ceil(P(0 | earlier bits) * 2^53) * 2^11, exactly when u >= P(0 | earlier
bits), and a coin is 1 when w < 2^63. No row's odds for a bit depend on its
earlier bits (a coin, or a Bell outcome, uniform for every input); a table
whose W would differ between two prefixes of positive probability is
refused when it is built.
Monte Carlo reads the same entry for its announcements, thresholds and
branch fidelities, so only this module turns a target into sampler inputs,
and repeated estimates at one target share the entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import gates
from .channels import RngStream, _project, measure_branches
from .statevec import (
    ATOL_CONSTRUCT,
    DensityOperator,
    PureState,
    apply_unitary,
    basis_state,
    tensor,
)


def _enum_parser(noun: str) -> classmethod:
    """The parse classmethod of an Enum of lower-case names; an unknown name raises, naming noun."""
    def parse(cls, s: str):
        try:
            return cls(s.strip().lower())
        except ValueError:
            raise ValueError(f"unknown {noun} {s!r}; expected one of "
                             f"{[e.value for e in cls]}") from None

    return classmethod(parse)


class ProtocolId(Enum):
    P0 = "p0"
    PA1 = "pa1"
    PA2 = "pa2"
    PB = "pb"
    PAB = "pab"

    parse = _enum_parser("protocol")


# The ops A and B run after C's preparation and D's gadget (see module docstring).
PROTOCOL_OPS: dict[ProtocolId, tuple[tuple, ...]] = {
    # honest teleportation
    ProtocolId.P0: (("bell",), ("measure", "a"), ("measure", "b"), ("correct",)),
    # A measures her share directly and fakes b; B is honest
    ProtocolId.PA1: (("measure", "a"), ("trash", 1), ("coin", "b"), ("correct",)),
    # A trashes both her qubits and fakes both bits; B is honest
    ProtocolId.PA2: (("trash", 2), ("coin", "a"), ("coin", "b"), ("correct",)),
    # A is honest; B ignores b and sends |a>
    ProtocolId.PB: (("bell",), ("measure", "a"), ("measure", "b"), ("fake",)),
    # A announces the single measured bit a; B sends |a>
    ProtocolId.PAB: (("bell",), ("measure", "a"), ("trash", 1), ("fake",)),
}

# ops that announce a classical bit; each consumes one draw when sampled
ANNOUNCING = ("measure", "coin")
# each row's announcing ops in draw order
DRAW_KINDS = {p: tuple(op for op, *_ in ops if op in ANNOUNCING) for p, ops in PROTOCOL_OPS.items()}


class InputFamily(Enum):
    TRIVIAL = "trivial"
    GHZ = "ghz"
    BLOCH = "bloch"

    parse = _enum_parser("family")


@dataclass(frozen=True)
class ProtocolParams:
    m: int = 1
    family: InputFamily = InputFamily.BLOCH
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.family is InputFamily.BLOCH and self.m != 1:
            raise ValueError("bloch family requires m = 1")
        for name in ("theta", "phi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # an angle the family's target never reads is refused; -0.0 passes
        for name, read in (("theta", self.family is not InputFamily.TRIVIAL),
                           ("phi", self.family is InputFamily.BLOCH)):
            if getattr(self, name) and not read:
                raise ValueError(f"the {self.family.value} family reads no {name}, "
                                 f"got {name} = {getattr(self, name)}")


@dataclass(frozen=True)
class Announcement:
    """Classical bits sent from A to B; b is absent for PAB."""

    a: int
    b: int | None = None


@dataclass(frozen=True)
class Branch:
    """One announcement outcome of an exact run.

    logical is the normalized output on k = min(m, 2) qubits, C's logical
    ancilla (if m > 1) and B's qubit, or None on a zero-probability branch;
    the m-qubit output it stands for is never built, and m is not kept: the
    branches at m = 2, 3, ... are equal.
    """

    announcement: Announcement
    probability: float
    logical: DensityOperator | None


def target_amplitudes(family: InputFamily, theta, phi=0.0) -> np.ndarray:
    """The logical pair (cos(theta/2), e^(i phi) sin(theta/2)) of a family's target, per angle.

    The one writer of target amplitudes; theta and phi broadcast. GHZ has
    phi = 0 and the trivial family theta = 0. Non-finite angles raise as in
    ProtocolParams.
    """
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    for name, value in (("theta", theta), ("phi", phi)):
        finite = np.isfinite(value)
        if np.count_nonzero(finite) < finite.size:  # cheaper than .all() on one angle
            raise ValueError(f"{name} must be finite, got {value[~finite].flat[0]}")
    half = np.zeros_like(theta) if family is InputFamily.TRIVIAL else theta / 2
    amps = np.empty(np.broadcast(theta, phi).shape + (2,), dtype=complex)
    amps[..., 0] = np.cos(half)
    amps[..., 1] = np.sin(half) * np.exp(1j * phi) if family is InputFamily.BLOCH else np.sin(half)
    return amps


def _logical_state(k: int, pair) -> PureState:
    """The amplitude pair on |0..0> and |1..1> of k qubits, |0_L> and |1_L>."""
    amps = np.zeros(2**k, dtype=complex)
    amps[[0, -1]] = pair
    return PureState(k, amps)


def build_target(params: ProtocolParams) -> PureState:
    """The state C prepares and later compares against, as its logical form at any m.

    That is target_amplitudes on |0..0> and |1..1>, on min(m, 2) qubits: for
    the GHZ family the action of gates.ghz_rotation on |0..0>.
    """
    psi = _logical_state(min(params.m, 2),
                         target_amplitudes(params.family, params.theta, params.phi))
    psi.require_normalized()
    return psi


def _with_ebit(psi: PureState) -> PureState:
    """The logical target psi followed by the entangled pair D supplies."""
    ebit = apply_unitary(basis_state(2), gates.entanglement_gadget(), [0, 1])
    return tensor(psi, ebit)


def _split(comps: list[PureState], qubit: int) -> list[PureState]:
    """Components after trashing qubit: every 0-slice, then every 1-slice, unnormalized."""
    n = comps[0].num_qubits - 1
    slices = [_project(c, qubit) for c in comps]
    return [PureState(n, s[bit]) for bit in (0, 1) for s in slices]


def _apply(op: str, args: list, bits: dict[str, int], comps: list[PureState],
           k: int) -> list[PureState]:
    """One op that announces nothing, on the components of a live branch."""
    if op == "bell":
        u = gates.entanglement_gadget_inverse()
        return [apply_unitary(c, u, [k - 1, k]) for c in comps]
    if op == "trash":
        for _ in range(args[0]):
            comps = _split(comps, k - 1)
        return comps
    if op == "correct":  # X^b, then Z^a, on B's qubit
        for gate, bit in ((gates.pauli_x, bits["b"]), (gates.pauli_z, bits["a"])):
            if bit:
                u = gate()
                comps = [apply_unitary(c, u, [c.num_qubits - 1]) for c in comps]
        return comps
    if op == "fake":
        sent = basis_state(1, bits["a"])
        return [tensor(c, sent) for c in _split(comps, comps[0].num_qubits - 1)]
    raise ValueError(f"unknown op {op!r}")


def _outcomes(op: str, comps: list[PureState] | None, qubit: int) -> list[tuple]:
    """(bit, conditional probability, post components) for both outcomes of an announcing op."""
    if op == "coin":
        return [(0, 0.5, comps), (1, 0.5, comps)]
    if comps is None:
        return [(0, 0.0, None), (1, 0.0, None)]
    [state] = comps  # no row measures after a trash
    return [(o.bit, o.probability, None if o.post_state is None else [o.post_state])
            for o in measure_branches(state, qubit)]


def _run(protocol: ProtocolId, psi: PureState) -> list[tuple[dict[str, int], float, list | None]]:
    """Run PROTOCOL_OPS[protocol] on the k-qubit logical target psi.

    Returns (bits, probability, components) branches in draw order (each
    announcing op splits every branch into its 0 then its 1 outcome);
    components is None on a zero-probability branch and stays None below it.
    """
    k = psi.num_qubits
    branches = [({}, 1.0, [_with_ebit(psi)])]
    for op, *args in PROTOCOL_OPS[protocol]:
        if op in ANNOUNCING:
            branches = [({**bits, args[0]: bit}, p * q, post)
                        for bits, p, comps in branches
                        for bit, q, post in _outcomes(op, comps, k - 1)]
        else:
            branches = [(bits, p, None if comps is None else _apply(op, args, bits, comps, k))
                        for bits, p, comps in branches]
    return branches


def _density(comps: list[PureState]) -> np.ndarray:
    """Sum of |c><c| over components, halves first: the order of successive partial traces."""
    if len(comps) == 1:
        v = comps[0].amplitudes
        return np.outer(v, v.conj())
    half = len(comps) // 2
    rho = _density(comps[:half])
    rho += _density(comps[half:])
    return rho


def _branches(protocol: ProtocolId, psi: PureState) -> list[Branch]:
    """_run's branches on psi, in draw order."""
    return [Branch(Announcement(bits["a"], bits.get("b")), p,
                   None if comps is None else DensityOperator(comps[0].num_qubits, _density(comps)))
            for bits, p, comps in _run(protocol, psi)]


def run_exact(protocol: ProtocolId, params: ProtocolParams) -> list[Branch]:
    """Enumerate every announcement branch with its exact probability.

    Random-bit announcements contribute branch coordinates with probability
    1/2 each, so P0, PA1, PA2 and PB have four branches and PAB has two.
    Branches come in the interpreter's draw order: branch i announces the
    bits of i, first announced bit highest, the order _bit_thresholds and
    _sample_bits index by. Probabilities sum to one.
    """
    return _branches(protocol, build_target(params))


@lru_cache(maxsize=10)
def _branch_maps(protocol: ProtocolId, k: int) -> tuple[tuple[Announcement, ...], np.ndarray,
                                                        np.ndarray, np.ndarray]:
    """The per-announcement linear maps E_b of a protocol on k logical qubits.

    One interpreter run fixes every map: its input is the Choi state
    (|0>_R|0_L> + |1>_R|1_L>)/sqrt(2) on k + 1 qubits, a reference qubit R in
    front of C's ancillas, which the interpreter treats as one more ancilla.
    Branch b's sub-normalized output is then J_b = (1/2) sum_ij |i><j|_R x
    E_b(|i_L><j_L|) (Choi, Linear Algebra Appl. 10, 285 (1975)), so
    E[b, i, j] = 2 J_b[i, :, j, :]. Every gate is H, CNOT, X or Z, so each
    entry is rounded onto the Gaussian-dyadic grid (Z + iZ) / 256; one more
    than 1e-12 off it raises ValueError.
    Returns the announcements in run_exact's order, E[b, i, j] =
    E_b(|i_L><j_L|) over the k output qubits, its logical block R[b, i, j, r, c]
    = <s_r| E[b, i, j] |s_c> and T[b, i, j] = tr E[b, i, j]. The arrays are
    read-only: the cache hands the same ones to every caller.
    """
    ends = [0, 2**k - 1]  # |0_L> = |0..0>, |1_L> = |1..1>
    s = 1 / math.sqrt(2)
    branches = _branches(protocol, _logical_state(k + 1, (s, s)))
    choi = np.array([np.zeros((2**(k + 1),) * 2) if br.logical is None
                     else br.probability * br.logical.matrix
                     for br in branches])  # a zero-probability branch maps to zero
    raw = 2 * choi.reshape(-1, 2, 2**k, 2, 2**k).transpose(0, 1, 3, 2, 4)
    e = np.round(256 * raw) / 256  # real and imaginary parts alike
    off = np.abs(raw - e).max()
    if off > 1e-12:
        raise ValueError(f"{protocol.value} branch maps lie {off:.3g} off the 1/256 grid")
    r = np.ascontiguousarray(e[..., ends, :][..., ends])
    t = np.trace(e, axis1=3, axis2=4)
    e.flags.writeable = r.flags.writeable = t.flags.writeable = False
    return tuple(br.announcement for br in branches), e, r, t


def _checked_probabilities(p: np.ndarray) -> np.ndarray:
    """p[n, b] after the check sum_b p = 1; the one probability-sum check.

    A NaN sum fails it. Rounding-level negatives are clipped to 0, so no
    negative probability or sampler threshold leaves.
    """
    error = np.abs(p.sum(axis=1) - 1.0)
    if not error.max(initial=0.0) <= 1e-9:
        raise ValueError(f"branch probabilities sum to {p.sum(axis=1)[error.argmax()]}")
    return np.maximum(p, 0.0)


def _checked_overlaps(pf: np.ndarray) -> np.ndarray:
    """The real part of p_b * f_b [n, b] after exact_report's checks.

    Those are an imaginary overlap residue <= ATOL_CONSTRUCT and f_th in [0, 1],
    each read off the extremes once; a NaN f_th fails the second.
    """
    residue = np.abs(pf.imag).max(initial=0.0)
    if residue > ATOL_CONSTRUCT:
        raise ValueError(f"expectation has imaginary residue {residue}")
    pf = pf.real
    f_th = pf.sum(axis=1)
    lo, hi = f_th.min(initial=np.inf), f_th.max(initial=-np.inf)
    if not (-1e-12 <= lo and hi <= 1 + 1e-12):
        raise ValueError(f"threshold fidelity outside [0, 1]: {lo}, {hi}")
    return pf


def _compiled_branches(protocol: ProtocolId, m: int, amps: np.ndarray
                       ) -> tuple[tuple[Announcement, ...], np.ndarray, np.ndarray]:
    """p_b and p_b * f_b at amplitude pairs amps[n]: exact_report's checks, once per grid.

    Adds m as ProtocolParams checks it to the probability and overlap checks.
    """
    ProtocolParams(m=m, family=InputFamily.GHZ)  # raises for an m no run accepts
    announcements, _, r, t = _branch_maps(protocol, min(m, 2))
    conj = amps.conj()
    p = _checked_probabilities(np.einsum("ni,nj,bij->nb", amps, conj, t).real)
    pf = np.einsum("nr,ni,nj,nc,bijrc->nb", conj, amps, conj, amps, r)
    return announcements, p, _checked_overlaps(pf)


def _averaged_branches(protocol: ProtocolId, m: int, second: np.ndarray, fourth: np.ndarray
                       ) -> tuple[tuple[Announcement, ...], np.ndarray, np.ndarray]:
    """The averages of p_b and p_b * f_b over a distribution of targets, from its moments.

    p_b is linear in second[i, j] = E[a_i conj(a_j)] and p_b * f_b in
    fourth[i, j, r, c] = E[conj(a_r) a_i conj(a_j) a_c] (the indices of R), so
    one contraction each gives the exact averages, with no nodes.
    _compiled_branches' checks apply to them: the m check, sum_b p_b = 1, the
    residue and f_th in [0, 1].
    """
    ProtocolParams(m=m, family=InputFamily.GHZ)
    announcements, _, r, t = _branch_maps(protocol, min(m, 2))
    [p] = _checked_probabilities(np.einsum("ij,bij->b", second, t).real[None])
    [pf] = _checked_overlaps(np.einsum("ijrc,bijrc->b", fourth, r)[None])
    return announcements, p, pf


_HALF = np.uint64(2**63)  # the word at which u = 1/2 starts


def _bit_thresholds(kinds: tuple[str, ...], probs: np.ndarray) -> tuple[tuple, ...]:
    """The sampler's (cut, below) pair per announced bit at probs, in run_exact's order.

    Bit j of a row with word w is 1 when w < cut if below, else when w >= cut.
    A coin is (2^63, True), u < 1/2 for the uniform u = (w >> 11) * 2^-53 of w.
    A measured bit is (K * 2^11, False), K = ceil(c * 2^53), where
    c = P(bit j = 0 | earlier bits) at every prefix of positive probability
    (the empty one has probability 1, not the float sum): c * 2^53 is exact,
    so w >= K * 2^11 exactly when u >= c. c >= 1 would need 2^64, no uint64,
    and is (0, True), never 1. Two prefixes with different K raise ValueError.
    """
    out = []
    for j, kind in enumerate(kinds):
        if kind == "coin":
            out.append((_HALF, True))
            continue
        # joint[i, x]: probability of earlier bits i followed by bit x
        joint = probs.reshape(2**j, 2, -1).sum(axis=2)
        cond0 = joint[:, 0]
        if j:
            prefix = joint.sum(axis=1)
            cond0 = cond0[prefix > 0] / prefix[prefix > 0]
        ks = set(np.ceil(cond0 * 2.0**53).astype(np.uint64).tolist())
        if len(ks) > 1:
            raise ValueError(f"announced bit {j} depends on the earlier bits; "
                             "the sampler draws each bit against one threshold")
        [k] = ks
        out.append((np.uint64(0), True) if k >= 2**53 else (np.uint64(k << 11), False))
    return tuple(out)


def _sample_bits(thresholds: tuple[tuple, ...], words: np.ndarray) -> list[np.ndarray]:
    """Each row's announced bits, one bool array per bit in draw order; the one sampler.

    Column j of words holds bit j's raw Philox words (RngStream.uniform_block)
    and thresholds[j] is its (cut, below) pair from _bit_thresholds: one
    uint64 comparison per bit, and no float or shift. The same code reads one
    run_sampled row and a Monte Carlo chunk.
    """
    return [words[:, j] < cut if below else words[:, j] >= cut
            for j, (cut, below) in enumerate(thresholds)]


@dataclass(eq=False, slots=True)
class _Trajectories:
    """What run_sampled and Monte Carlo read at one target; outputs fill in as branches are drawn."""

    k: int
    announcements: tuple[Announcement, ...]
    maps: np.ndarray                           # E of _branch_maps
    amps: np.ndarray                           # the target's logical amplitudes
    probs: np.ndarray                          # p_b
    fidelities: np.ndarray                     # f_b = p_b * f_b / p_b, 0.0 where p_b = 0
    thresholds: tuple[tuple, ...]              # _bit_thresholds': one (cut, below) per bit
    outputs: list[DensityOperator | None]      # E_b(|t><t|) / p_b, None until b is drawn

    def output(self, b: int) -> DensityOperator:
        """Branch b's logical output, built on its first draw (an undrawn b may have p_b = 0)."""
        out = self.outputs[b]
        if out is None:  # threads racing here build equal outputs; either is kept
            rho = np.einsum("i,j,ijrc->rc", self.amps, self.amps.conj(), self.maps[b])
            out = self.outputs[b] = DensityOperator(self.k, rho / self.probs[b])
        return out


@lru_cache(maxsize=256)
def _trajectory_table(protocol: ProtocolId, params: ProtocolParams) -> _Trajectories:
    """The per-target table of run_sampled and Monte Carlo, checked once.

    p_b and p_b * f_b come from one _compiled_branches call, which runs every
    check. Equal params share an entry (theta = -0.0 is theta = 0.0). The
    arrays are read-only, as _branch_maps' are; only the output list fills in.
    """
    k = min(params.m, 2)
    amps = target_amplitudes(params.family, params.theta, params.phi)
    announcements, [probs], [pf] = _compiled_branches(protocol, params.m, amps[None])
    fids = np.divide(pf, probs, out=np.zeros_like(pf), where=probs > 0)
    amps.flags.writeable = probs.flags.writeable = fids.flags.writeable = False
    return _Trajectories(k, announcements, _branch_maps(protocol, k)[1], amps, probs, fids,
                         _bit_thresholds(DRAW_KINDS[protocol], probs), [None] * len(announcements))


def run_sampled(protocol: ProtocolId, params: ProtocolParams,
                rng: RngStream) -> tuple[Announcement, DensityOperator]:
    """One protocol trajectory, read off the target's trajectory table.

    p_b is T_b at the target's logical amplitudes t. One row of draws, one per
    announced bit in (a, b) order, picks b; the output is E_b(|t><t|) / p_b,
    the logical output run_exact's Branch.logical holds. Mutates rng, and
    fills the bounded per-target cache (_trajectory_table) on the first call
    at a target or branch.
    """
    table = _trajectory_table(protocol, params)
    b = 0
    for bit in _sample_bits(table.thresholds, rng.uniform_block((1, len(table.thresholds)))):
        b = 2 * b + int(bit[0])
    return table.announcements[b], table.output(b)
