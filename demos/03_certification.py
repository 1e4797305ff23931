"""Certification: thresholds, verdicts, and why self-certification fails.

The certifier never hears the announcement; it compares an observed fidelity
against the threshold bound to the declared adversary and issues the
certificate only on strict exceedance. Feeding a cheating protocol's own
optimal fidelity back into the decision always ends in denial: no classical
strategy can strictly beat itself.
"""
from telecert import (
    Adversary,
    Criterion,
    InputFamily,
    ProtocolId,
    ThresholdSource,
    bloch_average,
    decide,
    threshold_table,
)
from telecert.certify import select_threshold

print("Threshold table, m = 2, GHZ family:")
for row in threshold_table(2, InputFamily.GHZ):
    print(f"  cert {row['certificate']}  {row['model']:<12} {row['criterion']:<14}"
          f" {row['source']:<9} threshold = {row['threshold']:.6f}")
    print(f"        {row['provenance']}")

print("\nSample decisions (pointwise criterion, m = 1):")
for observed, model in [(0.55, Adversary.CHEATING_A),
                        (0.50, Adversary.CHEATING_A),
                        (0.95, Adversary.CHEATING_AB)]:
    d = decide(observed, model, m=1)
    print(f"  observed {observed:.2f} under {model.value:<12} -> {d.verdict}"
          f" (threshold {d.threshold:.4f}, certificate {d.certificate})")

print("\nPostselected Bloch-sphere benchmark (B-cheat, m = 1):")
report = bloch_average(ProtocolId.PB, postselect=1)
print(f"  postselected average = {report.postselected:.9f} (the classical 2/3 benchmark)")
d = decide(0.70, Adversary.CHEATING_B, m=1,
           family=InputFamily.BLOCH, criterion=Criterion.BLOCH_POSTSELECTED)
print(f"  observed 0.70 against it -> {d.verdict}")

print("\nSelf-certification is self-defeating (computed thresholds):")
for adversary in (Adversary.CHEATING_A, Adversary.CHEATING_B, Adversary.CHEATING_AB):
    own, _ = select_threshold(adversary, Criterion.THETA_AVERAGE, 2, ThresholdSource.COMPUTED)
    d = decide(own, adversary, m=2, family=InputFamily.GHZ, criterion=Criterion.THETA_AVERAGE,
               source=ThresholdSource.COMPUTED)
    print(f"  {adversary.value:<12} own average {own:.6f} -> {d.verdict}")
