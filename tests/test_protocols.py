import math

import numpy as np
import pytest

from telecert import fidelity, gates, protocols
from telecert.channels import RngStream, measure_branches, trash
from telecert.protocols import (
    ANNOUNCING,
    DRAW_KINDS,
    PROTOCOL_OPS,
    InputFamily,
    ProtocolId,
    ProtocolParams,
    _bit_thresholds,
    _sample_bits,
    _trajectory_table,
    build_target,
    run_exact,
    run_sampled,
)
from telecert.statevec import partial_trace, to_density

import oracle

SQ2 = np.sqrt(2)
ALL_PROTOCOLS = list(ProtocolId)


def branch_indices(bits):
    """Each row's branch index from the sampler's bits, first bit highest."""
    n = len(bits)
    return sum(bit.astype(np.int64) << (n - 1 - j) for j, bit in enumerate(bits))


def ghz(m, theta):
    return ProtocolParams(m=m, family=InputFamily.GHZ, theta=theta)


def bloch(theta, phi):
    return ProtocolParams(m=1, family=InputFamily.BLOCH, theta=theta, phi=phi)


def test_build_target_examples():
    got = build_target(ProtocolParams(m=3, family=InputFamily.TRIVIAL))
    assert got.m == 3
    np.testing.assert_allclose(got.logical.amplitudes, np.eye(4)[0], atol=1e-15)

    got = build_target(ghz(2, np.pi / 2))
    np.testing.assert_allclose(got.logical.amplitudes, [1 / SQ2, 0, 0, 1 / SQ2], atol=1e-15)

    got = build_target(bloch(np.pi / 2, np.pi))
    np.testing.assert_allclose(got.logical.amplitudes, [1 / SQ2, -1 / SQ2], atol=1e-12)

    # the logical amplitudes are ghz_rotation's action on |0..0> at |0..0 x>
    # and |1..1 x>, and the rest of that column is 0
    for m in (1, 2, 3, 4):
        for theta in (0.0, 0.7, np.pi / 2, 2.9):
            column = gates.ghz_rotation(m, theta).entries[:, 0]
            support = sorted({0, 1, 2**m - 2, 2**m - 1})
            np.testing.assert_allclose(build_target(ghz(m, theta)).logical.amplitudes,
                                       column[support], atol=1e-15)
            np.testing.assert_allclose(np.delete(column, support), 0, atol=1e-15)


def test_target_amplitudes_grid_and_non_finite_angles():
    # one call over a grid writes each point's pair, bitwise, as build_target does
    thetas, phis = np.array([0.0, 1.0, -7.0, 9.5]), np.array([0.5, 2.0, -3.0, 0.0])
    for family in InputFamily:
        got = protocols.target_amplitudes(family, thetas, phis)
        for theta, phi, pair in zip(thetas, phis, got):
            want = build_target(ProtocolParams(m=1, family=family, theta=theta, phi=phi))
            assert pair.tolist() == want.logical.amplitudes.tolist()
    # ProtocolParams's message, also where a grid bypasses ProtocolParams
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^theta must be finite, got {bad}$"):
            fidelity.theta_curve(ProtocolId.PA1, 2, [0.1, bad])
        with pytest.raises(ValueError, match=f"^phi must be finite, got {bad}$"):
            protocols.target_amplitudes(InputFamily.BLOCH, 0.1, bad)


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(m=2, family=InputFamily.BLOCH)
    with pytest.raises(ValueError):
        ProtocolParams(m=0)
    assert ProtocolParams(m=30, family=InputFamily.GHZ).m == 30  # m is a label, never refused
    with pytest.raises(ValueError):
        ProtocolId.parse("p7")


def test_enum_parse_messages():
    from telecert.certify import Adversary, Criterion

    assert ProtocolId.parse(" PA1 ") is ProtocolId.PA1
    assert Criterion.parse("Theta_Average") is Criterion.THETA_AVERAGE
    for cls, text, want in (
            (ProtocolId, "p7", "unknown protocol 'p7'; expected one of "
                               "['p0', 'pa1', 'pa2', 'pb', 'pab']"),
            (InputFamily, "w", "unknown family 'w'; expected one of ['trivial', 'ghz', 'bloch']"),
            (Adversary, "cheating_c", "unknown adversary model 'cheating_c'; expected one of "
                                      "['honest', 'cheating_a', 'cheating_b', 'cheating_ab']"),
            (Criterion, " x ", "unknown criterion ' x '; expected one of "
                               "['pointwise', 'theta_average', 'bloch_postselected']")):
        with pytest.raises(ValueError) as info:
            cls.parse(text)
        assert str(info.value) == want
        assert info.value.__cause__ is None and info.value.__suppress_context__


def test_p0_trivial_m1_four_equal_branches():
    branches = run_exact(ProtocolId.P0, ProtocolParams(m=1, family=InputFamily.TRIVIAL))
    assert len(branches) == 4
    target = to_density(build_target(ProtocolParams(m=1, family=InputFamily.TRIVIAL)).logical)
    for br in branches:
        assert br.probability == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(br.logical.matrix, target.matrix, atol=1e-12)


_TARGETS = np.random.default_rng(27).uniform(0.0, 2 * np.pi, size=(8, 2))


@pytest.mark.parametrize("protocol, probability", [
    (ProtocolId.P0, 1 / 4), (ProtocolId.PB, 1 / 4), (ProtocolId.PAB, 1 / 2)])
@pytest.mark.parametrize("params", [
    *[ProtocolParams(m=m, family=InputFamily.TRIVIAL) for m in (1, 2)],
    *[ghz(m, t) for m in (1, 2, 3, 4) for t, _ in _TARGETS],
    *[bloch(t, p) for t, p in _TARGETS],
])
def test_announcement_carries_no_information_about_the_target(protocol, probability, params):
    # every announcement is equally likely whatever the target: observing it
    # tells nothing about theta, phi or the family
    for br in run_exact(protocol, params):
        assert abs(br.probability - probability) <= 1e-12, br.announcement


@pytest.mark.parametrize("params", [
    ProtocolParams(m=2, family=InputFamily.TRIVIAL),
    *[ghz(m, t) for m in (1, 2, 3) for t in np.linspace(0, np.pi, 20)],
    *[bloch(t, p) for t in np.linspace(0, np.pi, 20) for p in np.linspace(0, 2 * np.pi, 20)],
])
def test_p0_is_exact_teleportation(params):
    target = to_density(build_target(params).logical)
    branches = run_exact(ProtocolId.P0, params)
    for br in branches:
        np.testing.assert_allclose(br.logical.matrix, target.matrix, atol=1e-12)
    # announcement independence: all four outputs identical
    first = branches[0].logical.matrix
    for br in branches[1:]:
        np.testing.assert_allclose(br.logical.matrix, first, atol=1e-12)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("params", [
    ProtocolParams(m=1, family=InputFamily.TRIVIAL),
    bloch(0.9, 0.4),
    ghz(2, 1.1),
    ghz(3, 2.0),
])
def test_branch_probabilities_sum_to_one(protocol, params):
    branches = run_exact(protocol, params)
    assert math.fsum(br.probability for br in branches) == pytest.approx(1.0, abs=1e-12)
    for br in branches:
        if br.logical is not None:
            assert br.logical.trace == pytest.approx(1.0, abs=1e-12)


def test_branch_counts_and_announcement_shapes():
    for protocol, count in [(ProtocolId.P0, 4), (ProtocolId.PA1, 4), (ProtocolId.PA2, 4),
                            (ProtocolId.PB, 4), (ProtocolId.PAB, 2)]:
        branches = run_exact(protocol, ghz(2, 0.7))
        assert len(branches) == count
        for br in branches:
            assert (br.announcement.b is None) == (protocol is ProtocolId.PAB)


def test_pa2_delivers_maximally_mixed_qubit():
    for params in (bloch(1.2, 0.3), ghz(2, 0.8), ghz(3, 2.5)):
        for br in run_exact(ProtocolId.PA2, params):
            # trace out the k - 1 logical ancillas
            delivered = partial_trace(br.logical, set(range(br.logical.num_qubits - 1)))
            np.testing.assert_allclose(delivered.matrix, np.eye(2) / 2, atol=1e-12)


def test_pa1_m1_branch_data():
    theta, phi = 0.9, 2.0
    branches = run_exact(ProtocolId.PA1, bloch(theta, phi))
    p = {0: np.cos(theta / 2) ** 2, 1: np.sin(theta / 2) ** 2}
    for br in branches:
        assert br.probability == pytest.approx(p[br.announcement.a] / 2, abs=1e-12)
        np.testing.assert_allclose(br.logical.matrix, np.eye(2) / 2, atol=1e-12)


def test_pab_m1_branch_data():
    branches = run_exact(ProtocolId.PAB, bloch(0.9, 0.3))
    assert len(branches) == 2
    for br in branches:
        assert br.probability == pytest.approx(0.5, abs=1e-12)
        want = np.zeros((2, 2))
        want[br.announcement.a, br.announcement.a] = 1.0
        np.testing.assert_allclose(br.logical.matrix, want, atol=1e-12)
        assert br.probability * br.logical.trace == pytest.approx(0.5, abs=1e-12)


def test_pa1_zero_probability_branch_flagged():
    branches = run_exact(ProtocolId.PA1, bloch(0.0, 0.0))
    dead = [br for br in branches if br.announcement.a == 1]
    assert len(dead) == 2
    for br in dead:
        assert br.probability == 0.0 and br.logical is None


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("m,family,theta,phi", [
    (1, "bloch", 0.9, 0.4),
    (1, "trivial", 0.0, 0.0),
    (2, "ghz", 1.1, 0.0),
    (2, "trivial", 0.0, 0.0),
    (3, "ghz", 2.0, 0.0),
    (4, "ghz", 2.0, 0.0),
    (5, "trivial", 0.0, 0.0),
])
def test_exact_run_matches_brute_force_oracle(protocol, m, family, theta, phi):
    """Branch-by-branch agreement with the independent full-register oracle.

    The oracle executes B's trash-and-regenerate before A's operations for PB
    and PAB, so agreement also certifies that the interleaving is irrelevant.
    """
    params = ProtocolParams(m=m, family=InputFamily(family), theta=theta, phi=phi)
    got = run_exact(protocol, params)
    want = oracle.branches(protocol.value, m, family, theta, phi)
    assert len(got) == len(want)
    for br in got:
        key = (br.announcement.a, br.announcement.b)
        ref = want[key]
        assert br.probability == pytest.approx(np.trace(ref).real, abs=1e-12)
        if br.logical is None:
            np.testing.assert_allclose(ref, 0, atol=1e-12)
        else:
            dense = _zero_padded(br.probability * br.logical.matrix, m)
            np.testing.assert_allclose(dense, ref, atol=1e-12)


def _zero_padded(block, m):
    """A logical operator on min(m, 2) qubits as the m-qubit one it stands for.

    Its entries land on the support |0..0 x> and |1..1 x>, indices
    {0, 1, 2^m - 2, 2^m - 1}.
    """
    idx = sorted({0, 1, 2**m - 2, 2**m - 1})
    full = np.zeros((2**m, 2**m), dtype=complex)
    full[np.ix_(idx, idx)] = block
    return full


def _pauli_conjugate(rho, z_pow, x_pow):
    """U rho U^dagger for U = Z^z X^x on the last qubit of a density matrix."""
    u = np.linalg.matrix_power(np.diag([1, -1]), z_pow) @ \
        np.linalg.matrix_power(np.array([[0, 1], [1, 0]]), x_pow)
    full = np.kron(np.eye(len(rho) // 2), u)
    return full @ rho @ full.conj().T


def test_pa1_trash_equals_measure_and_discard():
    # replace A's trash by measure-and-forget on the same pre-measurement
    # state and rebuild the branch outputs; they must match exactly
    from telecert.protocols import _with_ebit

    params = ghz(2, 1.3)
    m = params.m
    state = _with_ebit(build_target(params).logical)  # after C's and D's steps
    expected = {(br.announcement.a, br.announcement.b): br
                for br in run_exact(ProtocolId.PA1, params)}
    for oa in measure_branches(state, m - 1):
        discarded = np.zeros((2**m, 2**m), dtype=complex)
        for forgotten in measure_branches(oa.post_state, m - 1):
            if forgotten.post_state is not None:
                discarded += forgotten.probability * to_density(forgotten.post_state).matrix
        for b in (0, 1):
            rho = _pauli_conjugate(trash(oa.post_state, m - 1).matrix, oa.bit, b)
            br = expected[(oa.bit, b)]
            np.testing.assert_allclose(rho, br.logical.matrix, atol=1e-12)
            corrected_discard = _pauli_conjugate(discarded, oa.bit, b)
            np.testing.assert_allclose(corrected_discard, br.logical.matrix, atol=1e-12)


def test_run_sampled_p0_and_pa2_outputs():
    target = to_density(build_target(ProtocolParams(m=1, family=InputFamily.TRIVIAL)).logical)
    for seed in (0, 1, 2, 99):
        ann, rho = run_sampled(ProtocolId.P0, ProtocolParams(m=1, family=InputFamily.TRIVIAL),
                               RngStream(seed))
        np.testing.assert_allclose(rho.matrix, target.matrix, atol=1e-12)
        ann, rho = run_sampled(ProtocolId.PA2, bloch(1.1, 0.2), RngStream(seed))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    # every protocol: the sampled output is run_exact's logical output for the
    # drawn announcement
    cases = [ProtocolParams(m=m, family=InputFamily.TRIVIAL) for m in (1, 2, 3)]
    cases += [ghz(m, t) for m in (1, 2, 3, 4) for t in (0.0, 0.9, np.pi / 2, 2.4)]
    cases += [bloch(t, p) for t in (0.0, 1.1, 2.8) for p in (0.0, 0.2, 4.0)]
    for protocol in ALL_PROTOCOLS:
        for params in cases:
            exact = {br.announcement: br for br in run_exact(protocol, params)}
            rng = RngStream(5)
            for _ in range(6):
                ann, rho = run_sampled(protocol, params, rng)
                assert rho.num_qubits == min(params.m, 2)
                np.testing.assert_allclose(rho.matrix, exact[ann].logical.matrix, atol=1e-12)

    # m = 22: the same logical output, where a dense one would hold 2^44 entries
    for protocol in ALL_PROTOCOLS:
        params = ghz(22, 1.7)
        exact = {br.announcement: br for br in run_exact(protocol, params)}
        ann, rho = run_sampled(protocol, params, RngStream(3))
        np.testing.assert_allclose(rho.matrix, exact[ann].logical.matrix, atol=1e-12)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("m", [13, 10**6])
def test_branch_outputs_stay_logical_at_any_m(protocol, m):
    # past m = 12 a dense m-qubit output would not fit one array; every
    # branch output stays on the two logical qubits
    for br in run_exact(protocol, ghz(m, 0.8)):
        assert br.logical.num_qubits == 2


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_branches_come_in_draw_order(protocol, m):
    # branch i announces the bits of i, first announced bit highest: the
    # order _bit_thresholds and _sample_bits index by
    params = bloch(0.9, 0.4) if m == 1 else ghz(m, 0.9)
    names = [args[0] for op, *args in PROTOCOL_OPS[protocol] if op in ANNOUNCING]
    n = len(DRAW_KINDS[protocol])
    assert len(names) == n
    branches = run_exact(protocol, params)
    assert len(branches) == 2**n
    for i, br in enumerate(branches):
        for j, name in enumerate(names):
            assert getattr(br.announcement, name) == (i >> (n - 1 - j)) & 1
        assert (br.announcement.b is None) == ("b" not in names)


def test_branch_maps_run_the_interpreter_once_per_map(monkeypatch):
    runs = []
    run = protocols._run

    def counting(protocol, psi):
        runs.append((protocol, psi.num_qubits))
        return run(protocol, psi)

    monkeypatch.setattr(protocols, "_run", counting)
    protocols._branch_maps.cache_clear()
    for protocol in ALL_PROTOCOLS:
        for k in (1, 2):
            protocols._branch_maps(protocol, k)
    # one run per (protocol, k), on the k + 1 qubits of the Choi state
    assert runs == [(protocol, k + 1) for protocol in ALL_PROTOCOLS for k in (1, 2)]


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("k", [1, 2])
def test_branch_maps_match_the_interpreter_and_lie_on_the_grid(protocol, k):
    # E_b(|psi><psi|) is the interpreter's p * out at psi, branch by branch,
    # at random complex logical states
    _, e, _, _ = protocols._branch_maps(protocol, k)
    rng = np.random.default_rng(17 + k)
    for _ in range(20):
        pair = rng.normal(size=2) + 1j * rng.normal(size=2)
        pair /= np.linalg.norm(pair)
        got = np.einsum("i,j,bijrc->brc", pair, pair.conj(), e)
        branches = protocols._branches(protocol, protocols._logical_state(k, pair))
        want = [np.zeros((2**k, 2**k)) if out is None else p * out.matrix
                for _, p, out in branches]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    # every entry of 256 E is a Gaussian integer, exactly
    grid = 256 * e
    assert np.array_equal(grid.real, np.round(grid.real))
    assert np.array_equal(grid.imag, np.round(grid.imag))


def test_branch_maps_off_the_grid_raise(monkeypatch):
    branches = protocols._branches

    def perturbed(protocol, psi):
        return [(ann, p + 1e-9, out) for ann, p, out in branches(protocol, psi)]

    monkeypatch.setattr(protocols, "_branches", perturbed)
    protocols._branch_maps.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"^pa1 branch maps lie 1e-09 off the 1/256 grid$"):
            protocols._branch_maps(ProtocolId.PA1, 2)
    finally:  # no perturbed map stays cached
        protocols._branch_maps.cache_clear()


@pytest.mark.parametrize("f_th, ok", [
    (-1e-12, True), (1 + 1e-12, True), (0.5, True),
    (np.nextafter(-1e-12, -1.0), False), (np.nextafter(1 + 1e-12, 2.0), False), (np.nan, False),
])
def test_checked_overlaps_bounds_f_th_at_its_extremes(f_th, ok):
    # f_th in [-1e-12, 1 + 1e-12], ends included, checked on the grid's
    # smallest and largest value; a NaN fails the check
    pf = np.array([[0.25, 0.25], [f_th, 0.0]], dtype=complex)  # row sums 0.5 and f_th
    if ok:
        assert np.array_equal(protocols._checked_overlaps(pf), pf.real)
        return
    lo, hi = (np.nan, np.nan) if np.isnan(f_th) else (min(0.5, f_th), max(0.5, f_th))
    with pytest.raises(ValueError, match=rf"^threshold fidelity outside \[0, 1\]: {lo}, {hi}$"):
        protocols._checked_overlaps(pf)


@pytest.mark.parametrize("total", [1 + 2e-9, 1 - 2e-9, np.nan])
def test_checked_probabilities_reject_a_bad_or_nan_sum(total):
    p = np.array([[0.5, 0.5], [total - 0.5, 0.5]])
    with pytest.raises(ValueError, match=r"^branch probabilities sum to "):
        protocols._checked_probabilities(p)
    assert np.array_equal(protocols._checked_probabilities(p[:1]), p[:1])


def test_checked_overlaps_accept_an_empty_grid_and_bound_the_residue():
    assert protocols._checked_overlaps(np.zeros((0, 4), dtype=complex)).shape == (0, 4)
    pf = np.array([[0.5, 0.5 - 2e-12j]])
    with pytest.raises(ValueError, match=r"^expectation has imaginary residue 2e-12$"):
        protocols._checked_overlaps(pf)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("params", [ghz(1, 0.9), ghz(2, 1.3), ghz(3, 2.2), bloch(1.1, 0.4)],
                         ids=["ghz1", "ghz2", "ghz3", "bloch"])
def test_run_sampled_reads_one_row_per_trajectory(protocol, params):
    # successive trajectories of one stream announce what the Monte Carlo
    # sampler gives on one uniform block of the same stream, row by row
    n, seed = 300, 31
    branches = run_exact(protocol, params)
    kinds = DRAW_KINDS[protocol]
    assert 2 ** len(kinds) == len(branches)  # one draw per announced bit
    probs = np.array([br.probability for br in branches])
    want = branch_indices(_sample_bits(_bit_thresholds(kinds, probs),
                                       RngStream(seed).uniform_block((n, len(kinds)))))
    rng = RngStream(seed)
    got = [run_sampled(protocol, params, rng)[0] for _ in range(n)]
    assert got == [branches[i].announcement for i in want]
    assert rng.draws == n * len(kinds)


def test_run_sampled_deterministic_for_fixed_seed():
    for protocol in ALL_PROTOCOLS:
        a1, r1 = run_sampled(protocol, ghz(2, 0.9), RngStream(42))
        a2, r2 = run_sampled(protocol, ghz(2, 0.9), RngStream(42))
        assert a1 == a2
        np.testing.assert_allclose(r1.matrix, r2.matrix, atol=0)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("params", [ghz(2, 0.0), ghz(2, 0.9), ghz(2, np.pi / 2), ghz(2, np.pi),
                                    bloch(np.pi, 0.3), ghz(1, 0.9)],
                         ids=["ghz2-0", "ghz2-0.9", "ghz2-pi/2", "ghz2-pi", "bloch-pi", "ghz1"])
def test_sampler_matches_per_row_oracle(protocol, params):
    # the word sampler, at the thresholds run_sampled reads, against a plain
    # per-row walk of the bits on the float draws u = (w >> 11) * 2^-53;
    # ghz theta = 0 and pi have prefixes of probability zero, and pa1's
    # a = 0 branches at bloch theta = pi have p_b = 1.9e-33
    table = _trajectory_table(protocol, params)
    kinds = DRAW_KINDS[protocol]
    words = RngStream(19).uniform_block((10**4, len(kinds)))
    got = branch_indices(_sample_bits(table.thresholds, words))
    assert got.tolist() == [oracle.sample_branch(kinds, table.probs, row)
                            for row in ((words >> np.uint64(11)) * 2.0**-53).tolist()]


TOP = 2**64 - 1  # the largest word, u = 1 - 2^-53
HIGH = range(2**64 - 2**12, 2**64)  # float64 spacing is 2^11 here: a float compare flips
COIN = (2**63, True)


def uniform(w):
    """The float Generator.random makes of the word w."""
    return (w >> 11) * 2.0**-53


def cut_of(c):
    """The (cut, below) pair of a measured bit with P(0) = c, in plain Python."""
    return (0, True) if c == 1 else (math.ceil(c * 2**53) << 11, False)  # c * 2^53 is exact


def pairs(thresholds):
    """_bit_thresholds' pairs as plain (int, bool), after checking their types."""
    assert all(cut.dtype == np.uint64 and type(below) is bool for cut, below in thresholds)
    return [(int(cut), below) for cut, below in thresholds]


def hand(*entries):
    """Thresholds written by hand as (int, bool) pairs."""
    return tuple((np.uint64(cut), below) for cut, below in entries)


@pytest.mark.parametrize("c, k", [
    (0.0, 0), (1.0, 2**53), (5e-324, 1), (2.0**-53, 1),
    (np.nextafter(2.0**-53, 1.0), 2), (np.nextafter(1.0, 0.0), 2**53 - 1),
    (np.nextafter(1.0, 2.0), 2**53 + 2),
])
def test_bit_thresholds_are_exact_ceilings(c, k):
    # cut = ceil(c * 2^53) * 2^11, so a word w is at least the cut exactly
    # when its float draw is at least c; a floor would read 5e-324 and
    # nextafter(2^-53, 1) one numerator too low. c = 1 would need 2^64, no
    # uint64: it is (0, True), w < 0, which reads 0 on every word, as is a
    # P(0) rounded one ulp above 1
    thresholds = _bit_thresholds(("measure",), np.array([c, max(1.0 - c, 0.0)]))
    w_c = k << 11
    assert pairs(thresholds) == [(0, True) if k >= 2**53 else (w_c, False)]
    ws = [w for w in (0, w_c - 1, w_c, w_c + 1, w_c + 2**11, TOP) if 0 <= w <= TOP]
    [bit] = _sample_bits(thresholds, np.array(ws, dtype=np.uint64)[:, None])
    assert bit.tolist() == [uniform(w) >= c for w in ws] == [w >= w_c for w in ws]


@pytest.mark.parametrize("c", [0.0, 1.0, 2.0**-53, np.nextafter(1.0, 0.0)])
def test_sampler_word_edges(c):
    # words at W - 1 and W and the top 2^12 words, where any float64
    # promotion rounds words onto each other, read u >= c exactly. A coin
    # reads w < 2^63 at 2^63 - 1, 2^63 and the top words alike.
    w_c = math.ceil(c * 2**53) << 11  # c * 2^53 is exact
    ws = [w for w in (w_c - 1, w_c) if 0 <= w <= TOP] + list(HIGH)
    [bit] = _sample_bits(_bit_thresholds(("measure",), np.array([c, 1.0 - c])),
                         np.array(ws, dtype=np.uint64)[:, None])
    assert bit.tolist() == [w >= w_c for w in ws] == [uniform(w) >= c for w in ws]

    coins = [2**63 - 1, 2**63] + list(HIGH)
    thresholds = _bit_thresholds(("coin",), np.array([0.5, 0.5]))
    assert pairs(thresholds) == [COIN]
    [coin] = _sample_bits(thresholds, np.array(coins, dtype=np.uint64)[:, None])
    assert coin.tolist() == [w < 2**63 for w in coins] == [uniform(w) < 0.5 for w in coins]


@pytest.mark.parametrize("c", [0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0])
def test_a_bit_that_depends_on_the_earlier_bits_is_refused(c):
    # P(second = 0 | first = 0) = c and P(second = 0 | first = 1) = 1/2: no
    # one cut serves both prefixes, so the table is refused, naming the bit
    probs = np.array([c / 2, (1.0 - c) / 2, 0.25, 0.25])
    with pytest.raises(ValueError, match=r"^announced bit 1 depends on the earlier bits; "
                                         r"the sampler draws each bit against one threshold$"):
        _bit_thresholds(("measure", "measure"), probs)


@pytest.mark.parametrize("c", [0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0])
@pytest.mark.parametrize("first", [0, 1])
def test_a_prefix_of_probability_zero_is_skipped(c, first):
    # the first bit always reads first, so the other prefix is never drawn
    # and the second bit takes the one cut of P(second = 0 | first) = c
    pair = [c, 1.0 - c]
    probs = np.array(pair + [0.0, 0.0] if first == 0 else [0.0, 0.0] + pair)
    thresholds = _bit_thresholds(("measure", "measure"), probs)
    assert pairs(thresholds) == [(0, True) if first == 0 else (0, False), cut_of(c)]
    w_c = math.ceil(c * 2**53) << 11
    ws = [0] + [w for w in (w_c - 1, w_c) if 0 <= w <= TOP] + list(HIGH)
    for prefix_word in (0, TOP):  # the first bit's word does not matter
        words = np.stack([np.full(len(ws), prefix_word, dtype=np.uint64),
                          np.array(ws, dtype=np.uint64)], axis=1)
        first_bits, second = _sample_bits(thresholds, words)
        assert first_bits.tolist() == [bool(first)] * len(ws)
        assert second.tolist() == [uniform(w) >= c for w in ws]


@pytest.mark.parametrize("thresholds, rows", [
    # bits: measured, coin, measured. A measured bit is 1 at w >= cut, so a
    # word equal to its cut gives 1; a coin is 1 at w < 2^63, so a word of
    # exactly 2^63 gives 0
    (hand((2**62, False), COIN, (3 * 2**62, False)), [
        ([2**62, 3 * 2**62, 3 * 2**62], 0b101),   # both measured words equal their cuts
        ([2**62 - 1, 2**63, 3 * 2**62 - 1], 0b000),  # just below; coin at 2^63
        ([TOP, 2**63 - 1, TOP], 0b111),           # coin just below 2^63
        ([0, 0, 0], 0b010),
    ]),
    # cut 0 (c = 0) always gives 1, and (0, True) (c = 1) never does
    (hand((0, False), COIN, (0, True)), [
        ([0, 2**63, TOP], 0b100),
        ([0, 2**63 - 1, 0], 0b110),
        ([TOP, TOP, TOP], 0b100),
    ]),
], ids=["cuts", "always-never"])
def test_sampler_edges_by_hand(thresholds, rows):
    words = np.array([row for row, _ in rows], dtype=np.uint64)
    bits = _sample_bits(thresholds, words)
    assert [bit.dtype for bit in bits] == [np.bool_] * 3
    assert branch_indices(bits).tolist() == [want for _, want in rows]
    # the same rows one at a time, and a random block row by row
    singles = [branch_indices(_sample_bits(thresholds, row[None])).tolist() for row in words]
    assert singles == [[want] for _, want in rows]
    words = RngStream(23).uniform_block((500, 3))
    assert branch_indices(_sample_bits(thresholds, words)).tolist() == [
        int(branch_indices(_sample_bits(thresholds, row[None]))[0]) for row in words]


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("theta", [0.0, np.pi])
@pytest.mark.parametrize("family", [InputFamily.GHZ, InputFamily.BLOCH])
def test_trajectory_table_probabilities_are_non_negative(protocol, theta, family):
    # pa1's a = 0 branches at bloch theta = pi have p_b = 1.9e-33; negatives
    # at that level are clipped, so no probability or threshold leaves [0, 1]
    params = ghz(2, theta) if family is InputFamily.GHZ else bloch(theta, 0.3)
    table = _trajectory_table(protocol, params)
    assert np.all(table.probs >= 0.0)
    for cut, below in pairs(table.thresholds):  # P(0 | prefix) in [0, 1], as a cut K * 2^11
        assert cut % 2**11 == 0
        assert not below or cut in (0, 2**63)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("family, m, phi", [
    (InputFamily.TRIVIAL, 1, 0.0), (InputFamily.TRIVIAL, 2, 0.0),
    (InputFamily.BLOCH, 1, 0.0), (InputFamily.BLOCH, 1, 0.3),
    (InputFamily.GHZ, 1, 0.0), (InputFamily.GHZ, 2, 0.0),
    (InputFamily.GHZ, 3, 0.0), (InputFamily.GHZ, 4, 0.0),
])
def test_every_announced_bit_reads_one_cut(protocol, family, m, phi):
    # at every target of the sweep, each measured bit's P(0 | earlier bits),
    # summed in plain Python from the table's p_b, gives the same cut at
    # every prefix of positive probability, and that cut is the table's
    kinds = DRAW_KINDS[protocol]
    n = len(kinds)
    for theta in np.linspace(0.0, np.pi, 37).tolist():
        table = _trajectory_table(protocol, ProtocolParams(m, family, theta, phi))
        probs = table.probs.tolist()

        def mass(prefix, length):
            return sum(probs[i] for i in range(2**n) if i >> (n - length) == prefix)

        for j, (kind, got) in enumerate(zip(kinds, pairs(table.thresholds))):
            if kind == "coin":
                assert got == COIN
                continue
            for prefix in range(2**j):
                total = 1.0 if j == 0 else mass(prefix, j)
                if total > 0:
                    assert got == cut_of(mass(2 * prefix, j + 1) / total), (theta, j, prefix)


def test_trajectory_table_builds_outputs_lazily():
    # at theta = 0, pa1's a = 1 branches have p_b = 0 and no output to build
    params = ghz(2, 0.0)
    _trajectory_table.cache_clear()
    rng = RngStream(12)
    drawn = {run_sampled(ProtocolId.PA1, params, rng)[0] for _ in range(1000)}
    assert {ann.a for ann in drawn} == {0}
    outputs = _trajectory_table(ProtocolId.PA1, params).outputs
    assert [out is None for out in outputs] == [False, False, True, True]


def test_trajectory_table_builds_each_drawn_output_once(monkeypatch):
    built = []

    class Counting(protocols.DensityOperator):
        def __post_init__(self):
            built.append(self.num_qubits)
            super().__post_init__()

    params = ghz(2, 0.7431)
    for protocol in ALL_PROTOCOLS:
        _trajectory_table.cache_clear()
        protocols._branch_maps(protocol, 2)  # compiled per protocol, not per target
        built.clear()
        monkeypatch.setattr(protocols, "DensityOperator", Counting)
        rng = RngStream(8)
        drawn = {run_sampled(protocol, params, rng)[0] for _ in range(200)}
        monkeypatch.undo()
        assert 0 < len(built) <= len(drawn), protocol


def test_trajectory_table_is_bounded_and_keyed_by_params():
    assert _trajectory_table.cache_info().maxsize is not None
    # -0.0 == 0.0, so both angles are one target and read one entry
    assert ghz(2, -0.0) == ghz(2, 0.0)
    for protocol in ALL_PROTOCOLS:
        _trajectory_table.cache_clear()
        runs = []
        for theta in (0.0, -0.0):
            rng = RngStream(4)
            runs.append([run_sampled(protocol, ghz(2, theta), rng) for _ in range(20)])
        assert runs[0] == runs[1]
        assert _trajectory_table.cache_info().currsize == 1


# 50 successive trajectories from RngStream(42) at ghz(2, 0.9), one digit per
# announcement (2a + b, or a for PAB), and the draws they consumed. Pinned
# from an earlier build: a fixed seed must keep giving the same trajectories.
PINNED_TRAJECTORIES = {
    ProtocolId.P0: ("01111133230010003212331223033331223032330330002121", 100),
    ProtocolId.PA1: ("10000002121101112303000110120020110101001001111030", 100),
    ProtocolId.PA2: ("32222200103323330121002110300002110301003003331212", 100),
    ProtocolId.PB: ("01111133230010003212331223033331223032330330002121", 100),
    ProtocolId.PAB: ("00010101010111111011000001000000111001101111011010", 50),
}


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_run_sampled_trajectories_pinned(protocol):
    rng = RngStream(42)
    digits = ""
    for _ in range(50):
        ann, _ = run_sampled(protocol, ghz(2, 0.9), rng)
        digits += str(ann.a if ann.b is None else 2 * ann.a + ann.b)
    assert (digits, rng.draws) == PINNED_TRAJECTORIES[protocol]


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_run_sampled_frequencies_match_exact(protocol):
    # a single serial stream here; the 1e5-shot acceptance check runs Monte
    # Carlo, whose shot i reads row i of the Philox stream, drawn in chunks
    params = ghz(2, 1.0)
    exact = {(br.announcement.a, br.announcement.b): br.probability
             for br in run_exact(protocol, params)}
    n = 6000
    rng = RngStream(777)
    counts: dict[tuple, int] = {}
    for _ in range(n):
        ann, _ = run_sampled(protocol, params, rng)
        key = (ann.a, ann.b)
        counts[key] = counts.get(key, 0) + 1
    for key, p in exact.items():
        freq = counts.get(key, 0) / n
        band = 4 * np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= band, (protocol, key, freq, p)

