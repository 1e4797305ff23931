"""Threshold fidelity, swept curves, averaged fidelities, Monte Carlo estimates.

The threshold fidelity of a protocol run is the announcement sum

    f_th = sum_branches probability * <target| output |target>,

i.e. the plain sum of target overlaps with the sub-normalized branch
operators. Every grid of exact values (theta_sweep and theta_curve, the curve
behind computed thresholds; theta_average's gauss:<n> rule, bloch_average)
is one contraction of the per-announcement linear maps E_b that
protocols._branch_maps compiles, exactly, from one interpreter run on a
Choi state per (protocol, k = min(m, 2)), through
protocols._compiled_branches. exact_report
enumerates the branches at one point with the interpreter (run_exact); it
is the reference the maps are tested against.

The averages are exact. p_b is quadratic and p_b * f_b quartic in the
target's amplitudes (Horodecki, Horodecki & Horodecki, PRA 60, 1888 (1999)),
so theta_average's default contracts the maps with the closed-form
half-circle moments of (cos(theta/2), sin(theta/2)) through
protocols._averaged_branches, with no nodes. bloch_average reads the 12
vertices of the icosahedron, a spherical 5-design (Delsarte, Goethals &
Seidel, Geom. Dedicata 6, 363 (1977)): it averages every polynomial of
degree <= 5 in the Bloch vector exactly, and a branch fidelity and its square
are such polynomials wherever the announcement's probability does not depend
on the state, which bloch_average checks. The Gauss-Legendre rule of an
explicit gauss:<n> average is computed once per resolution per process, on
first use, and shared as read-only arrays.
Monte Carlo estimates read the target's entry of
protocols._trajectory_table, the table run_sampled reads, for the
announcements, the sampler's word thresholds and the branch fidelities. Each
worker reads one Philox stream over a contiguous range of chunks, and the
chunks are reduced through outcome tallies counted off the sampled bits, so
results are deterministic for a fixed seed regardless of thread count. The
caller is worker 0; each further worker is one plain thread. A worker holds
one chunk's Philox block at a time, at most CHUNK_SHOTS rows x bits x 8 B
(512 KiB at 2 bits per shot).
"""
from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .channels import RngStream
from .protocols import (
    Announcement,
    Branch,
    InputFamily,
    ProtocolId,
    ProtocolParams,
    _averaged_branches,
    _compiled_branches,
    _sample_bits,
    _trajectory_table,
    build_target,
    run_exact,
    target_amplitudes,
)
from .statevec import ATOL_CONSTRUCT, PureState, expectation


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


def threshold_fidelity(branches: list[Branch], target: PureState,
                       protocol: ProtocolId | None = None,
                       params: ProtocolParams | None = None) -> FidelityReport:
    """Announcement-summed fidelity of an exact branch set against the logical target.

    m is a label: branches at m = 3 score against the m = 4 target as the
    m = 4 branches do. expectation refuses branches on another qubit count.
    """
    per = [BranchFidelity(br.announcement, br.probability,
                          0.0 if br.logical is None else expectation(br.logical, target))
           for br in branches]
    f_th = math.fsum(bf.probability * bf.fidelity for bf in per)
    if not -1e-12 <= f_th <= 1 + 1e-12:
        raise ValueError(f"threshold fidelity {f_th} outside [0, 1]")
    return FidelityReport(protocol, params, f_th, tuple(per), mode="exact")


def exact_report(protocol: ProtocolId, params: ProtocolParams) -> FidelityReport:
    return threshold_fidelity(run_exact(protocol, params), build_target(params), protocol, params)


def _theta_grid(thetas) -> np.ndarray:
    """Angles as a one-dimensional float array; a scalar is a one-point grid."""
    grid = np.asarray(thetas, dtype=float)
    if grid.ndim > 1:
        raise ValueError(f"theta grid must be a scalar or one-dimensional, got shape {grid.shape}")
    return np.atleast_1d(grid)


def theta_sweep(protocol: ProtocolId, m: int, grid) -> list[tuple[float, float]]:
    """(theta, f_th) at each theta of a grid (GHZ input family), from theta_curve."""
    thetas = _theta_grid(grid)
    return list(zip(thetas.tolist(), theta_curve(protocol, m, thetas).tolist()))


def _parse_quadrature(text: str) -> tuple[str, int]:
    """(kind, n) of exact or gauss:<n>; exact has n = 0."""
    kind, colon, n_s = text.partition(":")
    kind = kind.strip().lower()
    if kind == "exact":
        if colon:
            raise ValueError(f"exact quadrature takes no resolution, got {text!r}")
        return kind, 0
    if kind != "gauss":
        raise ValueError(f"unknown quadrature kind {kind!r}; expected exact or gauss:<n>")
    try:
        n = int(n_s)
    except ValueError:
        raise ValueError(f"quadrature resolution must be an integer, got {text!r}; "
                         "expected gauss:<n>") from None
    if n < 2:
        raise ValueError(f"quadrature resolution {n} < 2")
    if n > sys.maxsize:
        raise ValueError(f"quadrature resolution {n} > {sys.maxsize}, the largest array length")
    return kind, n


@lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n), computed on the first call for n and shared read-only after it."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def theta_curve(protocol: ProtocolId, m: int, thetas) -> np.ndarray:
    """f_th(theta) at each theta of a grid (GHZ family), read off the compiled branch maps.

    A scalar gives a one-point curve. Agrees with exact_report's f_th, the
    per-point reference, to rounding (a few ulp).
    """
    amps = target_amplitudes(InputFamily.GHZ, _theta_grid(thetas))
    _, _, pf = _compiled_branches(protocol, m, amps)
    return pf.sum(axis=1)


# E[c^(2-w) s^w] and E[c^(4-w) s^w] for c = cos(theta/2), s = sin(theta/2)
# and theta uniform on [0, pi), w = 0, 1, ...
HALF_CIRCLE_QUADRATIC = (1 / 2, 1 / math.pi, 1 / 2)
HALF_CIRCLE_QUARTIC = (3 / 8, 1 / (2 * math.pi), 1 / 8, 1 / (2 * math.pi), 3 / 8)


@lru_cache(maxsize=1)
def _half_circle_moments() -> tuple[np.ndarray, np.ndarray]:
    """E[a_i a_j] and E[a_i a_j a_r a_c] for (a_0, a_1) = (c, s), read-only.

    The amplitudes are real, so these are _averaged_branches' second and
    fourth moments; w is the number of indices equal to 1.
    """
    second = np.take(HALF_CIRCLE_QUADRATIC, np.indices((2,) * 2).sum(axis=0))
    fourth = np.take(HALF_CIRCLE_QUARTIC, np.indices((2,) * 4).sum(axis=0))
    second.flags.writeable = fourth.flags.writeable = False
    return second, fourth


def theta_average(protocol: ProtocolId, m: int, quadrature: str = "exact") -> float:
    """Average of f_th(theta) for theta uniform on [0, pi), GHZ family.

    exact (the default) contracts the branch maps with the half-circle
    moments (_half_circle_moments), with no nodes; gauss:<n> sums
    theta_curve over the n Gauss-Legendre nodes mapped onto [0, pi).
    """
    kind, n = _parse_quadrature(quadrature)
    if kind == "exact":
        _, _, pf = _averaged_branches(protocol, m, *_half_circle_moments())
        return math.fsum(pf)
    x, w = _gauss_legendre(n)
    return math.fsum(w / 2 * theta_curve(protocol, m, (x + 1) * (np.pi / 2)))


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


@lru_cache(maxsize=1)
def _icosahedron() -> np.ndarray:
    """The Bloch-family amplitude pairs at the 12 vertices of the icosahedron, read-only.

    The vertices are the cyclic permutations of (0, +-1, +-g) / |(0, 1, g)|,
    g the golden ratio; equally weighted they form a spherical 5-design.
    """
    g = (1 + math.sqrt(5)) / 2
    v = np.array([(0.0, a, b) for a in (-1.0, 1.0) for b in (-g, g)])
    n = np.concatenate([np.roll(v, k, axis=1) for k in range(3)]) / math.hypot(1, g)
    amps = target_amplitudes(InputFamily.BLOCH, np.arccos(n[:, 2]), np.arctan2(n[:, 1], n[:, 0]))
    amps.flags.writeable = False
    return amps


def bloch_average(protocol: ProtocolId, postselect: int | None = None) -> BlochAverageReport:
    """Uniform Bloch-sphere averages of branch fidelities for PB or PAB (m = 1).

    The nodes are the 12 equally weighted vertices of the icosahedron
    (_icosahedron), a spherical 5-design: their mean is the sphere average of
    every polynomial of degree <= 5 in the Bloch vector n. An announcement's
    p * f is quadratic in n, so its fidelity, p * f / p, and the square of it
    are averaged exactly when its probability p does not depend on the
    prepared state. That is the exactness condition, checked at the nodes
    (to ATOL_CONSTRUCT); it holds for PB and PAB, and the per-announcement
    branch probability is reported as the node mean of the per-branch value.
    """
    if protocol not in (ProtocolId.PB, ProtocolId.PAB):
        raise ValueError(f"bloch_average is defined for PB and PAB, not {protocol}")
    if postselect is not None and postselect not in (0, 1):
        raise ValueError("postselect must be 0, 1, or None")

    announcements, p, pf = _compiled_branches(protocol, 1, _icosahedron())
    nodes = len(p)

    per = []
    for a in (0, 1):
        group = [b for b, ann in enumerate(announcements) if ann.a == a]
        p_a = p[:, group].sum(axis=1)
        if np.ptp(p_a) > ATOL_CONSTRUCT:
            raise ValueError(f"announcement a = {a} has probability {p_a.min()} to "
                             f"{p_a.max()} over the sphere; the 12-node average needs "
                             "a constant one")
        fid = pf[:, group].sum(axis=1) / p_a
        per.append(AnnouncementAverage(a, math.fsum(p[:, group[0]]) / nodes,
                                       math.fsum(fid) / nodes, math.fsum(fid * fid) / nodes))
    post = per[postselect].postselected_average if postselect is not None else None
    return BlochAverageReport(protocol, tuple(per), post)


# ---------------------------------------------------------------------------
# Monte Carlo estimation

# Shots per chunk; a multiple of 4, so every chunk starts on a Philox counter
# step whatever the number of bits per shot. A worker's live Philox block is
# at most CHUNK_SHOTS rows x bits x 8 B: 512 KiB at 2 bits per shot. Below
# 2^15 the per-chunk overhead starts to show in the draw-sample-tally loop.
CHUNK_SHOTS = 2**15


def _branch_tally(bits: list[np.ndarray]) -> list[int]:
    """Rows per branch index (the bits of the index, first bit highest), from bit counts alone.

    all_set[s] counts the rows with every bit of the index mask s set, the
    row count at s = 0; branch i's rows are the inclusion-exclusion sum of
    (-1)^|s - i| all_set[s] over the masks s that contain i. Two bits cost
    three counts and one AND, and no per-row index is made.
    """
    n = len(bits)
    masks = range(2**n)
    all_set = [len(bits[0])]
    for s in masks[1:]:
        chosen = [bit for j, bit in enumerate(bits) if s >> (n - 1 - j) & 1]
        all_set.append(np.count_nonzero(reduce(np.logical_and, chosen)))
    return [sum((-1) ** bin(s ^ i).count("1") * all_set[s] for s in masks if s & i == i)
            for i in masks]


def monte_carlo_threshold(protocol: ProtocolId, params: ProtocolParams, shots: int,
                          seed: int, threads: int = 1) -> FidelityReport:
    """Shot-based estimate of f_th with its standard error.

    Shots sample the exact trajectory distribution: announcement bits are
    drawn in order from per-shot raw Philox words through the sampler
    thresholds of the target's trajectory table (the one run_sampled reads),
    and each shot contributes the branch fidelity of its announcement, the
    table's p_b * f_b / p_b off the compiled maps (0.0 where p_b = 0, as in
    exact_report). Shot i reads row i of the counter-based Philox stream of
    `seed`, so the draws are a function of (seed, shot index) only. Each
    worker takes a contiguous range of chunks of CHUNK_SHOTS shots and reads
    it from one RngStream, skipped once to the range's first row; it draws,
    samples and tallies chunk by chunk, so a worker holds at most
    CHUNK_SHOTS rows x bits x 8 B of words, whatever the shot count. There
    is at most one worker per chunk and per CPU the process may run on (its
    affinity mask, else os.cpu_count()). The caller is worker 0, and
    workers 1..n-1 are plain threads, so threads=1 starts none. The caller
    joins every thread and re-raises the error of the lowest-numbered worker
    that failed; after a failure the others stop at their next chunk, so an
    error or an interrupt does not wait out the whole run. A chunk is tallied
    from the counts of its sampled bits (_branch_tally), and the reduction
    goes through these integer tallies, which makes the estimate
    independent of chunking and thread count.
    """
    if shots < 100:
        raise ValueError("shots must be >= 100")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if seed < 0:  # before any worker seeds its stream
        raise ValueError(f"seed must be >= 0, got {seed}")

    table = _trajectory_table(protocol, params)
    fids = table.fidelities
    bits = len(table.thresholds)
    chunks = -(-shots // CHUNK_SHOTS)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # the CPUs this process may run on
    workers = min(threads, chunks, cpus)

    def tally_range(w):  # chunks [first, last) from one stream
        first, last = w * chunks // workers, (w + 1) * chunks // workers
        rng = RngStream(seed)
        rng.skip(first * CHUNK_SHOTS * bits)
        tally = [0] * len(fids)
        for start in range(first * CHUNK_SHOTS, min(last * CHUNK_SHOTS, shots), CHUNK_SHOTS):
            if failed.is_set():  # another worker failed; its error is what the caller raises
                break
            # the chunk's words are freed once sampled, before the next chunk is drawn
            counts = _branch_tally(_sample_bits(
                table.thresholds, rng.uniform_block((min(CHUNK_SHOTS, shots - start), bits))))
            tally = [t + c for t, c in zip(tally, counts)]
        return tally

    parts, errors = [None] * workers, [None] * workers
    failed = threading.Event()

    def work(w):
        try:
            parts[w] = tally_range(w)
        except Exception as exc:  # re-raised by the caller once every worker has stopped
            errors[w] = exc
            failed.set()

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    try:
        for helper in helpers:
            helper.start()
        work(0)
    except BaseException:  # a helper that could not start, or an interrupt
        failed.set()
        raise
    finally:
        for helper in helpers:
            if helper.ident is not None:  # started
                helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    tally = [sum(column) for column in zip(*parts)]

    estimate = math.fsum(c * f for c, f in zip(tally, fids)) / shots
    var = math.fsum(c * (f - estimate) ** 2 for c, f in zip(tally, fids)) / (shots - 1)
    stderr = math.sqrt(var / shots)

    per = tuple(BranchFidelity(ann, c / shots, f)
                for ann, c, f in zip(table.announcements, tally, fids))
    return FidelityReport(protocol, params, estimate, per, mode="monte_carlo",
                          shots=shots, stderr=stderr, seed=seed)
