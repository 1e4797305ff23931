"""Threshold fidelity, swept curves, averaged fidelities, Monte Carlo estimates.

The threshold fidelity of a protocol run is the announcement sum

    f_th = sum_branches probability * <target| output |target>,

i.e. the plain sum of target overlaps with the sub-normalized branch
operators. Exact values come from branch enumeration; Monte Carlo estimates
sample announcement trajectories and are reduced through outcome tallies, so
results are deterministic for a fixed seed regardless of thread count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import RngStream
from .protocols import (
    ANNOUNCING,
    PROTOCOL_OPS,
    Announcement,
    Branch,
    InputFamily,
    ProtocolId,
    ProtocolParams,
    TargetState,
    build_target,
    logical_target,
    run_exact,
)
from .statevec import expectation


@dataclass(frozen=True)
class BranchFidelity:
    announcement: Announcement
    probability: float   # exact probability, or observed frequency in MC mode
    fidelity: float      # overlap of the normalized branch output with the target


@dataclass(frozen=True)
class FidelityReport:
    protocol: ProtocolId
    params: ProtocolParams
    f_th: float
    per_branch: tuple[BranchFidelity, ...]
    mode: str                  # "exact" | "monte_carlo"
    shots: int | None = None
    stderr: float | None = None
    seed: int | None = None


def threshold_fidelity(branches: list[Branch], target: TargetState,
                       protocol: ProtocolId | None = None,
                       params: ProtocolParams | None = None) -> FidelityReport:
    """Announcement-summed fidelity of an exact branch set against the target."""
    m = target.psi.num_qubits  # checked here: logical states cannot tell m = 3 from m = 4
    if any(br.m != m for br in branches):
        raise ValueError(f"dimension mismatch: branches are not at the target's m = {m}")
    psi = logical_target(target)
    per = [BranchFidelity(br.announcement, br.probability,
                          expectation(br.logical, psi) if br.logical is not None else 0.0)
           for br in branches]
    f_th = math.fsum(bf.probability * bf.fidelity for bf in per)
    if not -1e-12 <= f_th <= 1 + 1e-12:
        raise ValueError(f"threshold fidelity {f_th} outside [0, 1]")
    return FidelityReport(protocol, params, f_th, tuple(per), mode="exact")


def exact_report(protocol: ProtocolId, params: ProtocolParams) -> FidelityReport:
    branches = run_exact(protocol, params)
    return threshold_fidelity(branches, build_target(params), protocol, params)


def exact_threshold(protocol: ProtocolId, params: ProtocolParams) -> float:
    return exact_report(protocol, params).f_th


def theta_sweep(protocol: ProtocolId, m: int, grid) -> list[tuple[float, float]]:
    """Pointwise exact f_th over a theta grid (GHZ input family)."""
    out = []
    for theta in grid:
        params = ProtocolParams(m=m, family=InputFamily.GHZ, theta=float(theta))
        out.append((float(theta), exact_threshold(protocol, params)))
    return out


def _parse_quadrature(text: str) -> tuple[str, int]:
    kind, _, n_s = text.partition(":")
    kind = kind.strip().lower()
    if kind not in ("gauss", "grid"):
        raise ValueError(f"unknown quadrature kind {kind!r}; expected gauss:<n> or grid:<n>")
    n = int(n_s)
    if n < 2:
        raise ValueError(f"quadrature resolution {n} < 2")
    return kind, n


def theta_nodes(quadrature: str = "gauss:64") -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for averaging over theta uniform on [0, pi)."""
    kind, n = _parse_quadrature(quadrature)
    if kind == "gauss":
        x, w = np.polynomial.legendre.leggauss(n)
        return (x + 1) * (np.pi / 2), w / 2
    thetas = (np.arange(n) + 0.5) * (np.pi / n)
    return thetas, np.full(n, 1.0 / n)


def theta_average(protocol: ProtocolId, m: int, quadrature: str = "gauss:64") -> float:
    """Average of f_th(theta) for theta uniform on [0, pi), GHZ family."""
    thetas, weights = theta_nodes(quadrature)
    values = [exact_threshold(protocol, ProtocolParams(m=m, family=InputFamily.GHZ, theta=t))
              for t in thetas]
    return math.fsum(w * v for w, v in zip(weights, values))


@dataclass(frozen=True)
class AnnouncementAverage:
    """Bloch-sphere averages for one announcement bit value.

    plain_average is the uniform sphere average of the delivered-state
    fidelity; squared_average is the sphere average of its square (for the
    basis states delivered here this also equals the Born-weighted fidelity
    of the matching measure-and-prepare channel, whose classical benchmark is
    2/3); postselected_average renormalizes the squared form by the plain
    average. table_value is the branch-probability-weighted entry as printed
    in the certification table: the raw squared form for a = 0 and the
    postselected form for a = 1, the outcome the 2/3 benchmark retains.
    """

    a: int
    branch_probability: float
    plain_average: float
    squared_average: float

    @property
    def postselected_average(self) -> float:
        return self.squared_average / self.plain_average

    @property
    def table_value(self) -> float:
        if self.a == 0:
            return self.branch_probability * self.squared_average
        return self.branch_probability * self.postselected_average


@dataclass(frozen=True)
class BlochAverageReport:
    protocol: ProtocolId
    per_announcement: tuple[AnnouncementAverage, ...]
    postselected: float | None = None


def bloch_average(protocol: ProtocolId, postselect: int | None = None,
                  theta_nodes_n: int = 64, phi_nodes_n: int = 8) -> BlochAverageReport:
    """Uniform Bloch-sphere averages of branch fidelities for PB or PAB (m = 1).

    Quadrature is Gauss-Legendre in cos(theta) and midpoint in phi, with the
    uniform sphere measure. Announcement probabilities for these protocols do
    not depend on the prepared state, so the per-announcement branch
    probability is reported as the sphere average of the per-branch value.
    """
    if protocol not in (ProtocolId.PB, ProtocolId.PAB):
        raise ValueError(f"bloch_average is defined for PB and PAB, not {protocol}")
    if postselect is not None and postselect not in (0, 1):
        raise ValueError("postselect must be 0, 1, or None")

    u, wu = np.polynomial.legendre.leggauss(theta_nodes_n)
    wu = wu / 2  # d(cos theta)/2
    phis = (np.arange(phi_nodes_n) + 0.5) * (2 * np.pi / phi_nodes_n)

    acc_p = {0: [], 1: []}
    acc_f = {0: [], 1: []}
    acc_f2 = {0: [], 1: []}
    for ui, wi in zip(u, wu):
        theta = float(np.arccos(ui))
        for phi in phis:
            w = wi / phi_nodes_n
            params = ProtocolParams(m=1, family=InputFamily.BLOCH, theta=theta, phi=float(phi))
            per_branch = exact_report(protocol, params).per_branch
            for a in (0, 1):
                group = [bf for bf in per_branch if bf.announcement.a == a]
                p_tot = math.fsum(bf.probability for bf in group)
                fid = math.fsum(bf.probability * bf.fidelity for bf in group) / p_tot
                acc_p[a].append(w * group[0].probability)
                acc_f[a].append(w * fid)
                acc_f2[a].append(w * fid * fid)

    per = tuple(
        AnnouncementAverage(a, math.fsum(acc_p[a]), math.fsum(acc_f[a]), math.fsum(acc_f2[a]))
        for a in (0, 1)
    )
    post = per[postselect].postselected_average if postselect is not None else None
    return BlochAverageReport(protocol, per, post)


# ---------------------------------------------------------------------------
# Monte Carlo estimation

# Shots per chunk; a multiple of 4, so every chunk starts on a Philox counter
# step whatever the number of bits per shot.
CHUNK_SHOTS = 2**16


def monte_carlo_threshold(protocol: ProtocolId, params: ProtocolParams, shots: int,
                          seed: int, threads: int = 1) -> FidelityReport:
    """Shot-based estimate of f_th with its standard error.

    Shots sample the exact trajectory distribution: announcement bits are
    drawn in order from per-shot uniforms, and each shot contributes the
    branch fidelity of its announcement. Shot i reads row i of the
    counter-based Philox stream of `seed`, so the draws are a function of
    (seed, shot index) only. Each worker draws, samples and tallies its own
    chunks of CHUNK_SHOTS shots, started at their row with RngStream.skip,
    so memory is bounded by the chunk, not the shot count. The reduction goes
    through integer outcome tallies, which makes the estimate independent of
    chunking and thread count.
    """
    if shots < 100:
        raise ValueError("shots must be >= 100")
    if threads < 1:
        raise ValueError("threads must be >= 1")

    per_branch = exact_report(protocol, params).per_branch
    kinds = [op for op, *_ in PROTOCOL_OPS[protocol] if op in ANNOUNCING]
    fids = np.array([bf.fidelity for bf in per_branch])
    probs = np.array([bf.probability for bf in per_branch])

    def tally_chunk(start):  # no np.bincount: it would copy idx to 8-byte integers
        rng = RngStream(seed)
        rng.skip(start * len(kinds))
        draws = rng.uniform_block((min(CHUNK_SHOTS, shots - start), len(kinds)))
        idx = _sample_branch_indices(kinds, probs, draws)
        return np.array([np.count_nonzero(idx == i) for i in range(len(per_branch))])

    starts = range(0, shots, CHUNK_SHOTS)
    workers = min(threads, len(starts), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(lambda w: sum(map(tally_chunk, starts[w::workers])),
                            range(workers)))
    tally = np.sum(parts, axis=0)

    estimate = math.fsum(int(c) * f for c, f in zip(tally, fids)) / shots
    var = math.fsum(int(c) * (f - estimate) ** 2 for c, f in zip(tally, fids)) / (shots - 1)
    stderr = math.sqrt(var / shots)

    per = tuple(BranchFidelity(bf.announcement, int(c) / shots, f)
                for bf, c, f in zip(per_branch, tally, fids))
    return FidelityReport(protocol, params, estimate, per, mode="monte_carlo",
                          shots=shots, stderr=stderr, seed=seed)


def _sample_branch_indices(kinds: list[str], probs: np.ndarray,
                           draws: np.ndarray) -> np.ndarray:
    """Vectorized announcement sampling; branch order matches run_exact.

    kinds are the announcing ops of PROTOCOL_OPS in draw order; column j of
    draws is the draw of bit j. The conventions are run_sampled's: a measured
    bit is 1 when u >= P(0 | earlier bits), and a coin is 1 when u < 1/2.
    Branch index i has the bits of i, first bit highest; it fits one byte,
    as does every other per-shot array but draws.
    """
    idx = np.zeros(1, dtype=np.uint8)  # the empty prefix, broadcast over shots
    for j, kind in enumerate(kinds):
        if kind == "coin":
            bit = draws[:, j] < 0.5
        else:
            # joint[i, x]: probability of earlier bits i followed by bit x
            joint = probs.reshape(2**j, 2, -1).sum(axis=2)
            with np.errstate(invalid="ignore", divide="ignore"):
                # the empty prefix has probability 1 by definition, not the float sum
                prefix = joint.sum(axis=1) if j else np.ones(1)
                cond0 = np.where(prefix > 0, joint[:, 0] / prefix, 0.5)
            bit = np.zeros(len(draws), dtype=bool)
            for i, c in enumerate(cond0):  # one threshold per prefix, not a float per shot
                bit |= (idx == i) & (draws[:, j] >= c)
        idx = 2 * idx + bit
    return idx
