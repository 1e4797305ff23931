"""Threshold fidelity, swept curves, averaged fidelities, Monte Carlo estimates.

The threshold fidelity of a protocol run is the announcement sum

    f_th = sum_branches probability * <target| output |target>,

i.e. the plain sum of target overlaps with the sub-normalized branch
operators. Every grid of exact values (theta_sweep and theta_curve, the curve
behind computed thresholds; theta_average, bloch_average) is one contraction
of the per-announcement linear maps E_b that protocols._branch_maps compiles
from four interpreter runs per (protocol, k = min(m, 2)), through
protocols._compiled_branches. exact_report enumerates the branches at one
point with the interpreter (run_exact); it is the reference the maps are
tested against. The Gauss-Legendre rules behind the averages (theta_nodes'
gauss:<n>, bloch_average's rule in cos(theta)) are computed once per
resolution per process, on first use, and shared as read-only arrays.
Monte Carlo estimates read the target's entry of
protocols._trajectory_table, the table run_sampled reads, for the
announcements and the sampler's thresholds, and the branch fidelities off the
same maps; they are reduced through outcome tallies, so results are
deterministic for a fixed seed regardless of thread count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import RngStream
from .protocols import (
    Announcement,
    Branch,
    InputFamily,
    ProtocolId,
    ProtocolParams,
    TargetState,
    _compiled_branches,
    _sample_branch_indices,
    _trajectory_table,
    build_target,
    run_exact,
    target_amplitudes,
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
    m = target.m  # checked here: logical states cannot tell m = 3 from m = 4
    if any(br.m != m for br in branches):
        raise ValueError(f"dimension mismatch: branches are not at the target's m = {m}")
    per = [BranchFidelity(br.announcement, br.probability,
                          0.0 if br.logical is None else expectation(br.logical, target.logical))
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
    kind, _, n_s = text.partition(":")
    kind = kind.strip().lower()
    if kind not in ("gauss", "grid"):
        raise ValueError(f"unknown quadrature kind {kind!r}; expected gauss:<n> or grid:<n>")
    try:
        n = int(n_s)
    except ValueError:
        raise ValueError(f"quadrature resolution must be an integer, got {text!r}; "
                         "expected gauss:<n> or grid:<n>") from None
    if n < 2:
        raise ValueError(f"quadrature resolution {n} < 2")
    return kind, n


@lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n), computed on the first call for n and shared read-only after it."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def theta_nodes(quadrature: str = "gauss:64") -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for averaging over theta uniform on [0, pi)."""
    kind, n = _parse_quadrature(quadrature)
    if kind == "gauss":
        x, w = _gauss_legendre(n)
        return (x + 1) * (np.pi / 2), w / 2
    thetas = (np.arange(n) + 0.5) * (np.pi / n)
    return thetas, np.full(n, 1.0 / n)


def theta_curve(protocol: ProtocolId, m: int, thetas) -> np.ndarray:
    """f_th(theta) at each theta of a grid (GHZ family), read off the compiled branch maps.

    A scalar gives a one-point curve. Agrees with exact_threshold, the
    per-point reference, to rounding (a few ulp).
    """
    amps = target_amplitudes(InputFamily.GHZ, _theta_grid(thetas))
    _, _, pf = _compiled_branches(protocol, m, amps)
    return pf.sum(axis=1)


def theta_average(protocol: ProtocolId, m: int, quadrature: str = "gauss:64") -> float:
    """Average of f_th(theta) for theta uniform on [0, pi), GHZ family."""
    thetas, weights = theta_nodes(quadrature)
    return math.fsum(weights * theta_curve(protocol, m, thetas))


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


# bloch_average's quadrature: nodes in cos(theta) and in phi
BLOCH_THETA_NODES = 64
BLOCH_PHI_NODES = 8


def bloch_average(protocol: ProtocolId, postselect: int | None = None) -> BlochAverageReport:
    """Uniform Bloch-sphere averages of branch fidelities for PB or PAB (m = 1).

    Quadrature is Gauss-Legendre in cos(theta) and midpoint in phi
    (BLOCH_THETA_NODES x BLOCH_PHI_NODES), with the uniform sphere measure.
    Announcement probabilities for these protocols do not depend on the
    prepared state, so the per-announcement branch probability is reported
    as the sphere average of the per-branch value.
    """
    if protocol not in (ProtocolId.PB, ProtocolId.PAB):
        raise ValueError(f"bloch_average is defined for PB and PAB, not {protocol}")
    if postselect is not None and postselect not in (0, 1):
        raise ValueError("postselect must be 0, 1, or None")

    u, wu = _gauss_legendre(BLOCH_THETA_NODES)
    wu = wu / 2  # d(cos theta)/2
    phis = (np.arange(BLOCH_PHI_NODES) + 0.5) * (2 * np.pi / BLOCH_PHI_NODES)

    # nodes in (theta, phi) order, phi fastest: the order of the sums below
    amps = target_amplitudes(InputFamily.BLOCH, np.repeat(np.arccos(u), BLOCH_PHI_NODES),
                             np.tile(phis, BLOCH_THETA_NODES))
    weights = np.repeat(wu / BLOCH_PHI_NODES, BLOCH_PHI_NODES)
    announcements, p, pf = _compiled_branches(protocol, 1, amps)

    per = []
    for a in (0, 1):
        group = [b for b, ann in enumerate(announcements) if ann.a == a]
        fid = pf[:, group].sum(axis=1) / p[:, group].sum(axis=1)
        per.append(AnnouncementAverage(a, math.fsum(weights * p[:, group[0]]),
                                       math.fsum(weights * fid), math.fsum(weights * fid * fid)))
    per = tuple(per)
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
    drawn in order from per-shot uniforms through the sampler thresholds of
    the target's trajectory table (the one run_sampled reads), and each shot
    contributes the branch fidelity of its announcement, p_b * f_b / p_b off
    the compiled maps at the table's amplitudes (0.0 where p_b = 0, as in
    exact_report). Shot i reads row i of the counter-based Philox stream of
    `seed`, so the draws are a function of (seed, shot index) only. Each
    worker draws, samples and tallies its own chunks of CHUNK_SHOTS shots,
    started at their row with RngStream.skip, so memory is bounded by the
    chunk, not the shot count. There is at most one worker per chunk and per
    CPU the process may run on (its affinity mask). The reduction goes
    through integer outcome tallies, which makes the estimate independent of
    chunking and thread count.
    """
    if shots < 100:
        raise ValueError("shots must be >= 100")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if seed < 0:  # before any worker seeds its stream
        raise ValueError(f"seed must be >= 0, got {seed}")

    table = _trajectory_table(protocol, params)
    _, p, pf = _compiled_branches(protocol, params.m, table.amps[None])
    fids = np.divide(pf[0], p[0], out=np.zeros_like(pf[0]), where=p[0] > 0)
    bits = len(table.thresholds)

    def tally_chunk(start):  # no np.bincount: it would copy idx to 8-byte integers
        rng = RngStream(seed)
        rng.skip(start * bits)
        draws = rng.uniform_block((min(CHUNK_SHOTS, shots - start), bits))
        idx = _sample_branch_indices(table.thresholds, draws)
        return np.array([np.count_nonzero(idx == i) for i in range(len(fids))])

    starts = range(0, shots, CHUNK_SHOTS)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # the CPUs this process may run on
    workers = min(threads, len(starts), cpus)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(lambda w: sum(map(tally_chunk, starts[w::workers])),
                            range(workers)))
    tally = np.sum(parts, axis=0)

    estimate = math.fsum(int(c) * f for c, f in zip(tally, fids)) / shots
    var = math.fsum(int(c) * (f - estimate) ** 2 for c, f in zip(tally, fids)) / (shots - 1)
    stderr = math.sqrt(var / shots)

    per = tuple(BranchFidelity(ann, int(c) / shots, f)
                for ann, c, f in zip(table.announcements, tally, fids))
    return FidelityReport(protocol, params, estimate, per, mode="monte_carlo",
                          shots=shots, stderr=stderr, seed=seed)
