"""Acceptance suite: one test (or test group) per acceptance criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion check. Three checks assert tabulated reference constants for the
B-cheat and AB-cheat protocols that exact branch enumeration provably cannot
reproduce (their reference bookkeeping carries branch probabilities summing
to 1/2 instead of 1); those are marked strict-xfail with the enumerated value
documented next to them, and the independent brute-force oracle adjudicates.
"""
import math

import numpy as np
import pytest

from telecert.certify import (
    Adversary,
    Criterion,
    ThresholdSource,
    decide,
    select_threshold,
)
from telecert.channels import measure_branches, trash
from telecert.fidelity import bloch_average, exact_report, monte_carlo_threshold, theta_average
from telecert.gates import (
    cnot,
    entanglement_gadget,
    entanglement_gadget_inverse,
    ghz_rotation,
    hadamard,
    pauli_x,
    pauli_z,
)
from telecert.protocols import InputFamily, ProtocolId, ProtocolParams, run_exact
from telecert.statevec import PureState, to_density

import oracle

A_CURVE = lambda t: 0.5 - np.sin(t) ** 2 / 4          # noqa: E731
B_CURVE_TABULATED = lambda t: 0.25 - np.sin(t) ** 2 / 8  # noqa: E731

CHEATS = (ProtocolId.PA1, ProtocolId.PA2, ProtocolId.PB, ProtocolId.PAB)


def note(criterion: int, status: str, message: str) -> None:
    print(f"[criterion {criterion}] {status}: {message}")


def ghz(m, theta):
    return ProtocolParams(m=m, family=InputFamily.GHZ, theta=theta)


def bloch(theta, phi=0.0):
    return ProtocolParams(m=1, family=InputFamily.BLOCH, theta=theta, phi=phi)


def exact_f_th(protocol, params):
    """f_th at one point, from the per-point interpreter."""
    return exact_report(protocol, params).f_th


def branch_trace(br):
    """The trace of the branch operator probability * logical: the branch probability."""
    return br.probability * br.logical.trace


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_honest_exactness():
    worst = 0.0
    for m in (1, 2, 3):
        f = exact_f_th(ProtocolId.P0, ProtocolParams(m=m, family=InputFamily.TRIVIAL))
        worst = max(worst, abs(f - 1))
        for theta in np.linspace(0, np.pi, 20):
            f = exact_f_th(ProtocolId.P0, ghz(m, theta))
            worst = max(worst, abs(f - 1))
    for theta in np.linspace(0, np.pi, 10):
        for phi in np.linspace(0, 2 * np.pi, 10):
            f = exact_f_th(ProtocolId.P0, bloch(theta, phi))
            worst = max(worst, abs(f - 1))
    assert worst <= 1e-12
    note(1, "PASS", f"honest protocol f_th = 1 on all families; worst |f-1| = {worst:.2e}")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_isolated_qubit_cheat_thresholds():
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(50):
        theta = float(np.arccos(rng.uniform(-1, 1)))
        phi = float(rng.uniform(0, 2 * np.pi))
        for protocol in (ProtocolId.PA1, ProtocolId.PA2):
            f = exact_f_th(protocol, bloch(theta, phi))
            worst = max(worst, abs(f - 0.5))
    assert worst <= 1e-12
    note(2, "PASS", f"PA1 = PA2 = 1/2 at m=1 over 50 random Bloch targets; worst dev {worst:.2e}")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_entangled_curves_a_family_and_ab():
    worst = 0.0
    for protocol in (ProtocolId.PA1, ProtocolId.PA2, ProtocolId.PAB):
        for m in (2, 3):
            for theta in np.linspace(0, np.pi, 20):
                f = exact_f_th(protocol, ghz(m, theta))
                worst = max(worst, abs(f - A_CURVE(theta)))
    assert worst <= 1e-10
    note(3, "PASS", f"PA1/PA2/PAB match 1/2 - sin^2(theta)/4; worst dev {worst:.2e}")


def test_criterion_3_pb_resolved_by_enumeration():
    # Resolution of the B-cheat curve: exact enumeration, cross-checked
    # against the independent full-register oracle. The enumerated curve is
    # 1/2 - sin^2(theta)/4 (equal to the A-cheat curve) with the trivial
    # point f(0) = 1/2; the tabulated curve 1/4 - sin^2(theta)/8 is exactly
    # half of it and is inconsistent with its own trivial-case value.
    worst_oracle = worst_curve = 0.0
    for m in (2, 3):
        for theta in np.linspace(0, np.pi, 20):
            f = exact_f_th(ProtocolId.PB, ghz(m, theta))
            worst_oracle = max(worst_oracle, abs(f - oracle.threshold("pb", m, "ghz", theta)))
            worst_curve = max(worst_curve, abs(f - A_CURVE(theta)))
    assert worst_oracle <= 1e-10
    assert worst_curve <= 1e-10
    f0 = exact_f_th(ProtocolId.PB, ghz(2, 0.0))
    assert abs(f0 - 0.5) <= 1e-12
    note(3, "PASS", "PB adjudicated by brute-force enumeration: curve = 1/2 - sin^2/4, "
                    f"f(0) = {f0:.12f} (trivial case 1/2); oracle dev {worst_oracle:.2e}; "
                    "tabulated 1/4 - sin^2/8 is half the enumerated value at every point")


@pytest.mark.xfail(strict=True,
                   reason="tabulated B-cheat curve 1/4 - sin^2(theta)/8 is half the enumerated "
                          "value; its branch bookkeeping sums probabilities to 1/2 and "
                          "contradicts its own trivial point f(0) = 1/2")
def test_criterion_3_pb_tabulated_curve():
    note(3, "FAIL (documented)", "PB tabulated curve 1/4 - sin^2/8 vs enumerated 1/2 - sin^2/4")
    worst = 0.0
    for m in (2, 3):
        for theta in np.linspace(0, np.pi, 20):
            f = exact_f_th(ProtocolId.PB, ghz(m, theta))
            worst = max(worst, abs(f - B_CURVE_TABULATED(theta)))
    assert worst <= 1e-10


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_theta_averages():
    worst = 0.0
    for protocol in (ProtocolId.PA1, ProtocolId.PA2, ProtocolId.PAB):
        worst = max(worst, abs(theta_average(protocol, 2, "gauss:64") - 3 / 8))
    assert worst <= 1e-9
    pb = theta_average(ProtocolId.PB, 2, "gauss:64")
    note(4, "PASS", f"theta-averages 3/8 for PA1/PA2/PAB (worst dev {worst:.2e}); "
                    f"PB enumerated average = {pb:.12f} (= the A-cheat average)")


@pytest.mark.xfail(strict=True,
                   reason="tabulated B-cheat average 3/16 is half the enumerated average 3/8")
def test_criterion_4_pb_tabulated_average():
    note(4, "FAIL (documented)", "PB tabulated theta-average 3/16 vs enumerated 3/8")
    assert abs(theta_average(ProtocolId.PB, 2, "gauss:64") - 3 / 16) <= 1e-9


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_bloch_sphere_averages():
    for protocol, p_branch in ((ProtocolId.PB, 1 / 4), (ProtocolId.PAB, 1 / 2)):
        report = bloch_average(protocol, postselect=1)
        v0 = report.per_announcement[0].table_value
        v1 = report.per_announcement[1].table_value
        assert abs(v0 - p_branch * (1 / 3)) <= 1e-9
        assert abs(v1 - p_branch * (2 / 3)) <= 1e-9
        assert abs(report.postselected - 2 / 3) <= 1e-9
        note(5, "PASS", f"{protocol.value}: per-announcement table values "
                        f"({v0:.9f}, {v1:.9f}) = {p_branch} * (1/3, 2/3); "
                        f"postselected = {report.postselected:.9f} = 2/3")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_monte_carlo_consistency():
    shots = 100_000
    for protocol in ProtocolId:
        for theta in (0.0, np.pi / 4, np.pi / 2):
            params = ghz(2, theta)
            exact = exact_report(protocol, params)
            mc = monte_carlo_threshold(protocol, params, shots=shots, seed=1234)
            band = 4 * (mc.stderr or 0.0) + 1e-12
            assert abs(mc.f_th - exact.f_th) <= band, (protocol, theta)
            exact_p = {bf.announcement: bf.probability for bf in exact.per_branch}
            for bf in mc.per_branch:
                p = exact_p[bf.announcement]
                if 0 < p < 1:
                    fb = 4 * math.sqrt(p * (1 - p) / shots)
                    assert abs(bf.probability - p) <= fb, (protocol, theta, bf)
            mc4 = monte_carlo_threshold(protocol, params, shots=shots, seed=1234, threads=4)
            assert mc4.f_th == mc.f_th and mc4.stderr == mc.stderr
    note(6, "PASS", "1e5-shot estimates within 4*stderr of exact for every protocol and "
                    "theta in {0, pi/4, pi/2}; announcement frequencies within the binomial "
                    "band; bitwise identical across thread counts")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_trace_bookkeeping_attainable():
    # honest protocol: every branch carries probability (= sub-normalized trace) 1/4
    for params in (bloch(1.1, 0.4), ghz(2, 0.9)):
        for br in run_exact(ProtocolId.P0, params):
            assert abs(branch_trace(br) - 0.25) <= 1e-12
    # B-cheat at m = 1: 1/4 per branch
    for br in run_exact(ProtocolId.PB, bloch(0.7, 1.2)):
        assert abs(branch_trace(br) - 0.25) <= 1e-12
    # A-cheat-1: traces bounded by 1/2, with equality pattern |psi_a|^2 / 2 at m = 1
    theta = 0.8
    for br in run_exact(ProtocolId.PA1, bloch(theta, 0.0)):
        tr = branch_trace(br)
        assert tr <= 0.5 + 1e-12
        want = (np.cos(theta / 2) ** 2 if br.announcement.a == 0 else np.sin(theta / 2) ** 2) / 2
        assert abs(tr - want) <= 1e-12
    for br in run_exact(ProtocolId.PA1, ghz(2, 1.3)):
        assert branch_trace(br) <= 0.5 + 1e-12
    # A-cheat-2 at m = 1: the sub-normalized branch operator is exactly I/8
    # (trace 1/4, the branch probability)
    for br in run_exact(ProtocolId.PA2, bloch(2.1, 0.5)):
        np.testing.assert_allclose(br.probability * br.logical.matrix, np.eye(2) / 8, atol=1e-12)
    # AB-cheat at m = 1: 1/2 per branch
    for br in run_exact(ProtocolId.PAB, bloch(0.9, 2.2)):
        assert abs(branch_trace(br) - 0.5) <= 1e-12
    note(7, "PASS", "traces: P0 1/4, PB(m=1) 1/4, PA1 bounded by 1/2 (= |psi_a|^2/2 at m=1), "
                    "PA2(m=1) operator I/8, PAB(m=1) 1/2")


@pytest.mark.xfail(strict=True,
                   reason="tabulated PB m>1 branch trace 1/8 would make branch probabilities "
                          "sum to 1/2; enumeration conserves probability with traces 1/4")
def test_criterion_7_pb_m2_tabulated_trace():
    note(7, "FAIL (documented)", "PB m=2 branch traces: tabulated 1/8 vs enumerated 1/4")
    for br in run_exact(ProtocolId.PB, ghz(2, 1.0)):
        assert abs(branch_trace(br) - 1 / 8) <= 1e-12


@pytest.mark.xfail(strict=True,
                   reason="tabulated PAB m>1 branch trace 1/4 would make the two branch "
                          "probabilities sum to 1/2; enumeration gives 1/2 each")
def test_criterion_7_pab_m2_tabulated_trace():
    note(7, "FAIL (documented)", "PAB m=2 branch traces: tabulated 1/4 vs enumerated 1/2")
    for br in run_exact(ProtocolId.PAB, ghz(2, 1.0)):
        assert abs(branch_trace(br) - 1 / 4) <= 1e-12


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_certification_logic():
    # self-defeating cheats: the adversary's own optimum never strictly
    # exceeds the computed threshold
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

    # honest protocol output passes every cheating model
    for adversary in (Adversary.CHEATING_A, Adversary.CHEATING_B, Adversary.CHEATING_AB):
        for source in ThresholdSource:
            d = decide(1.0, adversary, m=1, source=source)
            assert d.verdict == "issue"

    # monotonicity over 1000 random observations
    rng = np.random.default_rng(88)
    xs = np.sort(rng.uniform(0, 1, 1000))
    verdicts = [decide(x, Adversary.CHEATING_AB, m=1).verdict for x in xs]
    switch = verdicts.index("issue") if "issue" in verdicts else len(verdicts)
    assert all(v == "deny" for v in verdicts[:switch])
    assert all(v == "issue" for v in verdicts[switch:])
    note(8, "PASS", "self-certification always denied (computed thresholds); honest output "
                    "issues under every cheating model; decide monotone over 1000 points")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_property_suites():
    # unitarity of every gate constructor
    for g in (hadamard(), pauli_x(), pauli_z(), cnot(),
              entanglement_gadget(), entanglement_gadget_inverse(),
              ghz_rotation(2, 2.3), ghz_rotation(3, 0.4)):
        assert np.max(np.abs(g.entries.conj().T @ g.entries - np.eye(len(g.entries)))) <= 1e-12

    # branch probabilities sum to one for every protocol
    for protocol in ProtocolId:
        for params in (bloch(0.9, 0.4), ghz(2, 1.1), ghz(3, 2.0)):
            total = math.fsum(br.probability for br in run_exact(protocol, params))
            assert abs(total - 1.0) <= 1e-12

    # measure-and-discard is operationally identical to trash
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(3, v / np.linalg.norm(v))
        for q in range(3):
            averaged = np.zeros((4, 4), dtype=complex)
            for out in measure_branches(state, q):
                if out.post_state is not None:
                    averaged += out.probability * to_density(out.post_state).matrix
            np.testing.assert_allclose(averaged, trash(state, q).matrix, atol=1e-12)

    # sampled/exact announcement agreement at one site (the full sweep over
    # all protocols and thetas runs in criterion 6)
    params = ghz(2, np.pi / 4)
    mc = monte_carlo_threshold(ProtocolId.PA1, params, shots=100_000, seed=6)
    for bf, br in zip(mc.per_branch, run_exact(ProtocolId.PA1, params)):
        p = br.probability
        assert abs(bf.probability - p) <= 4 * math.sqrt(p * (1 - p) / 100_000)
    note(9, "PASS", "gate unitarity at 1e-12; branch probabilities sum to 1; "
                    "measure-and-discard equals trash at 1e-12; sampled/exact agreement")
