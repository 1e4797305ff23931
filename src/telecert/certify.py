"""Certificate decisions: observed fidelity + adversary + bar source -> issue/deny.

A certificate is issued only when observed > threshold + ATOL_CONSTRUCT
(1e-12), for either source: under "meets the bar" a perfect classical cheater
would be certified, so the boundary goes to the adversary. The margin keeps
rounding from certifying a cheat's own optimum: the computed (2, ghz) bars
are exact, but a pointwise bar read off cos(theta/2) at grid nodes may sit
an ulp off its closed form.
Consequently the honest certificate (Certificate 1, fidelity threshold
exactly 1) can never be issued; it is kept for completeness.

Thresholds come from two sources. "tabulated" uses the historical constants
(1, 1/2, 3/8, 3/16, 2/3). "computed" derives the bound from this simulator's
own exact enumeration of the matching cheating protocol, which is the bound a
certifier should use: a cheater must strictly beat their own optimal circuit.
The two sources agree except for the B-cheat theta average, where the
tabulated 3/16 is half the enumerated optimum 3/8 (the 3/16 descends from a
branch bookkeeping convention whose probabilities sum to 1/2; the enumerated
value conserves probability). threshold_table reports both with provenance.
Models, criteria and families are declared once, here: the enums, _MODELS,
_FAMILY, and _TABULATED, whose keys are the pairs both sources answer; every
other pair is refused with one message. The CLI's choices and help read the enums.
select_threshold names the bar of an (adversary, criterion, m, source) and
decide compares an observation with it; --self observes the computed bar.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import fidelity as fid
from .protocols import InputFamily, ProtocolId, ProtocolParams, _enum_parser
from .statevec import ATOL_CONSTRUCT


class Adversary(Enum):
    HONEST = "honest"
    CHEATING_A = "cheating_a"
    CHEATING_B = "cheating_b"
    CHEATING_AB = "cheating_ab"

    parse = _enum_parser("adversary model")


class Criterion(Enum):
    POINTWISE = "pointwise"
    THETA_AVERAGE = "theta_average"
    BLOCH_POSTSELECTED = "bloch_postselected"

    parse = _enum_parser("criterion")


class ThresholdSource(Enum):
    TABULATED = "tabulated"
    COMPUTED = "computed"


# the rule for issuing a certificate, as certify reports it
COMPARISON = f"greater-than-threshold-plus-{ATOL_CONSTRUCT:g}"


@dataclass(frozen=True)
class CertificateDecision:
    certificate: int           # certificate 1 (honest), 3 (A), 4 (B), 5 (A and B)
    observed: float
    threshold: float
    verdict: str               # "issue" | "deny"
    provenance: str
    criterion: str
    comparison: str = COMPARISON


# Per adversary: its certificate number and the protocols its computed bar enumerates.
_MODELS = {
    Adversary.HONEST: (1, (ProtocolId.P0,)),
    Adversary.CHEATING_A: (3, (ProtocolId.PA1, ProtocolId.PA2)),
    Adversary.CHEATING_B: (4, (ProtocolId.PB,)),
    Adversary.CHEATING_AB: (5, (ProtocolId.PAB,)),
}

# The one family an averaged criterion reads, as its refusal names it; pointwise reads any.
_FAMILY = {
    Criterion.THETA_AVERAGE: (InputFamily.GHZ, "the ghz family"),
    Criterion.BLOCH_POSTSELECTED: (InputFamily.BLOCH, "the bloch family (m=1)"),
}

# The defined (model, criterion) pairs, for both sources, and their tabulated values.
_TABULATED = {
    (Adversary.HONEST, Criterion.POINTWISE):
        (1.0, "honest-protocol bound: exact teleportation has fidelity 1"),
    (Adversary.CHEATING_A, Criterion.POINTWISE):
        (0.5, "A-cheat optimum 1/2 (isolated qubit; equals the theta=0 maximum "
              "of the curve 1/2 - sin^2(theta)/4)"),
    (Adversary.CHEATING_A, Criterion.THETA_AVERAGE):
        (3 / 8, "uniform-theta average 3/8 of the A-cheat curve 1/2 - sin^2(theta)/4"),
    (Adversary.CHEATING_B, Criterion.POINTWISE):
        (0.5, "B-cheat bound 1/2 (value of the trivial/isolated case)"),
    (Adversary.CHEATING_B, Criterion.THETA_AVERAGE):
        (3 / 16, "tabulated B-cheat average 3/16, from the curve 1/4 - sin^2(theta)/8; "
                 "exact enumeration gives 3/8, see the computed source"),
    (Adversary.CHEATING_B, Criterion.BLOCH_POSTSELECTED):
        (2 / 3, "postselected Bloch-sphere average 2/3 (outcome a=1 retained)"),
    (Adversary.CHEATING_AB, Criterion.POINTWISE):
        (0.5, "AB-cheat optimum 1/2 (isolated qubit and theta=0 maximum)"),
    (Adversary.CHEATING_AB, Criterion.THETA_AVERAGE):
        (3 / 8, "uniform-theta average 3/8 of the AB-cheat curve 1/2 - sin^2(theta)/4"),
    (Adversary.CHEATING_AB, Criterion.BLOCH_POSTSELECTED):
        (2 / 3, "postselected Bloch-sphere average 2/3 (outcome a=1 retained)"),
}


def _undefined(adversary: Adversary, criterion: Criterion,
               family: InputFamily | None = None) -> str | None:
    """Why no threshold applies: the pair, then (when given) the family; None when one does."""
    if (adversary, criterion) not in _TABULATED:
        return f"criterion {criterion.value} is not defined for {adversary.value}"
    if family is None or criterion not in _FAMILY:
        return None
    required, name = _FAMILY[criterion]
    return None if family is required else f"{criterion.value} criterion applies to {name}"


@lru_cache(maxsize=256)
def _computed_threshold(adversary: Adversary, criterion: Criterion, m: int) -> tuple[float, str]:
    """The threshold of a defined (model, criterion) pair, from this simulator's own runs.

    An LRU cache of at most 256 (adversary, criterion, m) entries, as the
    trajectory table is: m is unbounded, and an evicted entry is recomputed.
    """
    if adversary is Adversary.HONEST:  # pointwise, its one defined criterion
        return 1.0, "computed: honest protocol fidelity (constant 1)"
    protocols = _MODELS[adversary][1]
    names = "/".join(p.value for p in protocols)
    if criterion is Criterion.POINTWISE:
        grid = np.linspace(0.0, np.pi, 33)
        best = max(float(fid.theta_curve(p, m, grid).max()) for p in protocols)
        return best, f"computed: max over theta of enumerated f_th({names}), m={m}"
    if criterion is Criterion.THETA_AVERAGE:
        best = max(fid.theta_average(p, m) for p in protocols)
        return best, f"computed: uniform-theta average of enumerated f_th({names}), m={m}"
    value = fid.bloch_average(protocols[0], postselect=1).postselected
    return value, f"computed: postselected Bloch-sphere average of {names} (m=1)"


def select_threshold(adversary: Adversary, criterion: Criterion, m: int,
                     source: ThresholdSource = ThresholdSource.TABULATED) -> tuple[float, str]:
    """The bar (value, provenance) that the adversary must strictly beat, from the source."""
    if reason := _undefined(adversary, criterion):
        raise ValueError(reason)
    if source is ThresholdSource.COMPUTED:
        return _computed_threshold(adversary, criterion, m)
    return _TABULATED[(adversary, criterion)]


def decide(observed: float, adversary: Adversary, m: int = 1,
           family: InputFamily = InputFamily.BLOCH,
           criterion: Criterion = Criterion.POINTWISE,
           source: ThresholdSource = ThresholdSource.TABULATED) -> CertificateDecision:
    """Issue or deny the certificate matching the adversary.

    The verdict is issue exactly when observed exceeds the selected threshold
    by more than ATOL_CONSTRUCT, so it is monotone in the observation.
    """
    ProtocolParams(m=m, family=family)  # raises for a pair no run accepts
    if not (0.0 <= observed <= 1.0) or math.isnan(observed):
        raise ValueError(f"observed fidelity {observed} outside [0, 1]")
    if reason := _undefined(adversary, criterion, family):
        raise ValueError(reason)
    threshold, provenance = select_threshold(adversary, criterion, m, source)
    verdict = "issue" if observed > threshold + ATOL_CONSTRUCT else "deny"
    return CertificateDecision(_MODELS[adversary][0], observed, threshold,
                               verdict, provenance, criterion.value)


def threshold_table(m: int, family: InputFamily) -> list[dict]:
    """All applicable (model, criterion, threshold) rows with provenance."""
    ProtocolParams(m=m, family=family)  # raises for a pair no run accepts
    rows: list[dict] = []
    for adversary, criterion in _TABULATED:  # in adversary x criterion order
        if _undefined(adversary, criterion, family) is None:
            for source in ThresholdSource:
                value, provenance = select_threshold(adversary, criterion, m, source)
                rows.append({"model": adversary.value, "certificate": _MODELS[adversary][0],
                             "criterion": criterion.value, "source": source.value,
                             "threshold": value, "provenance": provenance})
    return rows
