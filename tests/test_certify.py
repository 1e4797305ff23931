import numpy as np
import pytest

from telecert import certify
from telecert.certify import (
    Adversary,
    Criterion,
    ThresholdSource,
    decide,
    select_threshold,
    threshold_table,
)
from telecert.fidelity import exact_report
from telecert.protocols import InputFamily, ProtocolId, ProtocolParams

TAB = dict(adversary=Adversary.CHEATING_A, source=ThresholdSource.TABULATED)


def test_decide_examples():
    d = decide(0.51, Adversary.CHEATING_A, m=1)
    assert d.verdict == "issue" and d.certificate == 3

    d = decide(0.5, Adversary.CHEATING_A, m=1)
    assert d.verdict == "deny"  # boundary goes to the adversary

    d = decide(0.70, Adversary.CHEATING_B, m=1,
               family=InputFamily.BLOCH, criterion=Criterion.BLOCH_POSTSELECTED)
    assert d.verdict == "issue" and d.threshold == pytest.approx(2 / 3)

    d = decide(0.375, Adversary.CHEATING_AB, m=2,
               family=InputFamily.GHZ, criterion=Criterion.THETA_AVERAGE)
    assert d.verdict == "deny"  # equality is not strict exceedance


def test_honest_certificate_needs_strict_exceedance():
    # fidelity exactly 1 does not strictly exceed the honest threshold 1,
    # so the perfection certificate is never issued
    d = decide(1.0, Adversary.HONEST)
    assert d.certificate == 1 and d.verdict == "deny"


def test_honest_protocol_passes_every_cheating_model():
    for adversary in (Adversary.CHEATING_A, Adversary.CHEATING_B, Adversary.CHEATING_AB):
        for source in ThresholdSource:
            for criterion, family, m in [
                (Criterion.POINTWISE, InputFamily.BLOCH, 1),
                (Criterion.THETA_AVERAGE, InputFamily.GHZ, 2),
                (Criterion.BLOCH_POSTSELECTED, InputFamily.BLOCH, 1),
            ]:
                if criterion is Criterion.BLOCH_POSTSELECTED and adversary is Adversary.CHEATING_A:
                    continue
                d = decide(1.0, adversary, m=m, family=family, criterion=criterion,
                           source=source)
                assert d.verdict == "issue", (adversary, source, criterion)


def test_self_defeating_cheats_are_denied():
    for adversary in (Adversary.CHEATING_A, Adversary.CHEATING_B, Adversary.CHEATING_AB):
        for criterion, family, m in [
            (Criterion.POINTWISE, InputFamily.GHZ, 2),
            (Criterion.THETA_AVERAGE, InputFamily.GHZ, 2),
            (Criterion.BLOCH_POSTSELECTED, InputFamily.BLOCH, 1),
        ]:
            if criterion is Criterion.BLOCH_POSTSELECTED and adversary is Adversary.CHEATING_A:
                continue
            own = select_threshold(adversary, criterion, m, ThresholdSource.COMPUTED)[0]
            d = decide(own, adversary, m=m, family=family, criterion=criterion,
                       source=ThresholdSource.COMPUTED)
            assert d.verdict == "deny", (adversary, criterion)


# Each cheat's closed-form optimum per criterion, at the (family, m) it is read at.
CHEAT_OPTIMA = [
    (adversary, criterion, family, m, optimum)
    for adversary in (Adversary.CHEATING_A, Adversary.CHEATING_B, Adversary.CHEATING_AB)
    for criterion, family, m, optimum in (
        (Criterion.POINTWISE, InputFamily.GHZ, 2, 1 / 2),
        (Criterion.THETA_AVERAGE, InputFamily.GHZ, 2, 3 / 8),
        (Criterion.BLOCH_POSTSELECTED, InputFamily.BLOCH, 1, 2 / 3))
    if (adversary, criterion) in certify._TABULATED
]


@pytest.mark.parametrize("source", list(ThresholdSource))
@pytest.mark.parametrize("adversary, criterion, family, m, optimum", CHEAT_OPTIMA)
def test_cheat_optimum_is_denied_and_beaten_by_1e9_issued(adversary, criterion, family, m,
                                                          optimum, source):
    # the boundary goes to the adversary: the optimum itself is denied. The
    # computed (2, ghz) thresholds are the optima exactly. The tabulated
    # B-cheat average is 3/16, half the optimum (see the strict xfails), so
    # its boundary is 3/16.
    if source is ThresholdSource.TABULATED:
        optimum = certify._TABULATED[(adversary, criterion)][0]
    kw = dict(m=m, family=family, criterion=criterion, source=source)
    assert decide(optimum, adversary, **kw).verdict == "deny"
    assert decide(optimum + 1e-9, adversary, **kw).verdict == "issue"


def test_decide_monotone_in_observed():
    rng = np.random.default_rng(2)
    for adversary in (Adversary.CHEATING_A, Adversary.CHEATING_B):
        observations = np.sort(rng.uniform(0, 1, size=1000))
        verdicts = [decide(x, adversary, m=1).verdict for x in observations]
        first_issue = verdicts.index("issue") if "issue" in verdicts else len(verdicts)
        assert all(v == "deny" for v in verdicts[:first_issue])
        assert all(v == "issue" for v in verdicts[first_issue:])


def test_decide_validation():
    with pytest.raises(ValueError):
        decide(1.2, **TAB)
    with pytest.raises(ValueError):
        decide(-0.1, **TAB)
    with pytest.raises(ValueError):
        decide(0.5, **TAB, family=InputFamily.BLOCH, criterion=Criterion.THETA_AVERAGE)
    with pytest.raises(ValueError):
        decide(0.5, **TAB, family=InputFamily.BLOCH, criterion=Criterion.BLOCH_POSTSELECTED)
    with pytest.raises(ValueError):
        Adversary.parse("cheating_c")


def test_threshold_table_m1_bloch():
    rows = threshold_table(1, InputFamily.BLOCH)
    values = {(r["model"], r["criterion"], r["source"]): r["threshold"] for r in rows}
    assert values[("honest", "pointwise", "tabulated")] == 1.0
    assert values[("cheating_a", "pointwise", "tabulated")] == 0.5
    assert values[("cheating_b", "pointwise", "tabulated")] == 0.5
    assert values[("cheating_b", "bloch_postselected", "tabulated")] == pytest.approx(2 / 3)
    assert values[("cheating_b", "bloch_postselected", "computed")] == pytest.approx(2 / 3, abs=1e-9)
    assert all(r["provenance"] for r in rows)


def test_threshold_table_m2_ghz_averaged():
    rows = threshold_table(2, InputFamily.GHZ)
    values = {(r["model"], r["criterion"], r["source"]): r["threshold"] for r in rows}
    assert values[("cheating_a", "theta_average", "tabulated")] == pytest.approx(3 / 8)
    assert values[("cheating_b", "theta_average", "tabulated")] == pytest.approx(3 / 16)
    assert values[("cheating_ab", "theta_average", "tabulated")] == pytest.approx(3 / 8)
    # the computed B-cheat average is the enumerated optimum, above the tabulated constant
    assert values[("cheating_b", "theta_average", "computed")] == pytest.approx(3 / 8, abs=1e-9)
    assert values[("cheating_a", "theta_average", "computed")] == pytest.approx(3 / 8, abs=1e-9)


@pytest.mark.parametrize("m, family", [
    (1, InputFamily.BLOCH), (2, InputFamily.GHZ), (3, InputFamily.GHZ), (1, InputFamily.TRIVIAL)])
def test_select_threshold_is_every_table_row(m, family):
    # the table reads each row through select_threshold, under both sources
    rows = threshold_table(m, family)
    certify._computed_threshold.cache_clear()  # recompute, not read back the table's entries
    assert {r["source"] for r in rows} == {s.value for s in ThresholdSource}
    for row in rows:
        got = select_threshold(Adversary(row["model"]), Criterion(row["criterion"]), m,
                               ThresholdSource(row["source"]))
        assert got == (row["threshold"], row["provenance"]), row


@pytest.mark.parametrize("adversary, protocols", [
    (Adversary.CHEATING_A, (ProtocolId.PA1, ProtocolId.PA2)),
    (Adversary.CHEATING_B, (ProtocolId.PB,)),
    (Adversary.CHEATING_AB, (ProtocolId.PAB,)),
])
def test_computed_pointwise_threshold_matches_theta_sweep(adversary, protocols):
    # the computed threshold reads compiled maps, as theta_sweep does; the
    # reference runs the interpreter at each of the same 33 angles
    grid = np.linspace(0, np.pi, 33)
    for m in (1, 2, 3, 8):
        want = max(exact_report(p, ProtocolParams(m=m, family=InputFamily.GHZ, theta=t)).f_th
                   for p in protocols for t in grid)
        got, _ = select_threshold(adversary, Criterion.POINTWISE, m, ThresholdSource.COMPUTED)
        assert abs(got - want) <= 1e-12


def test_computed_threshold_cache_is_bounded():
    # m is unbounded, so thresholds at many share sizes evict the oldest
    # entries instead of growing the cache; an evicted entry is recomputed
    cached = certify._computed_threshold

    def own(m):
        return select_threshold(Adversary.CHEATING_A, Criterion.THETA_AVERAGE, m,
                                ThresholdSource.COMPUTED)[0]

    cached.cache_clear()
    first = own(1)
    limit = cached.cache_info().maxsize
    assert limit is not None
    for m in range(2, limit + 50):
        own(m)
    assert cached.cache_info().currsize == limit
    misses = cached.cache_info().misses
    assert own(1) == first
    assert cached.cache_info().misses == misses + 1
    cached.cache_clear()
