import functools
import itertools
import math
import re
import threading

import numpy as np
import pytest

from telecert import fidelity, protocols
from telecert.channels import RngStream
from telecert.cli import main
from telecert.fidelity import (
    CHUNK_SHOTS,
    bloch_average,
    exact_report,
    monte_carlo_threshold,
    theta_average,
    theta_sweep,
    threshold_fidelity,
)
from telecert.protocols import (
    DRAW_KINDS,
    InputFamily,
    ProtocolId,
    ProtocolParams,
    _averaged_branches,
    _branch_maps,
    _trajectory_table,
    build_target,
    run_exact,
)

import oracle

A_CURVE = lambda t: 0.5 - np.sin(t) ** 2 / 4  # noqa: E731


def ghz(m, theta):
    return ProtocolParams(m=m, family=InputFamily.GHZ, theta=theta)


def bloch(theta, phi=0.0):
    return ProtocolParams(m=1, family=InputFamily.BLOCH, theta=theta, phi=phi)


def exact_f_th(protocol, params):
    """f_th at one point, from the per-point interpreter."""
    return exact_report(protocol, params).f_th


def test_threshold_fidelity_report_consistency():
    params = ghz(2, 0.9)
    report = exact_report(ProtocolId.PA1, params)
    recomputed = math.fsum(bf.probability * bf.fidelity for bf in report.per_branch)
    assert report.f_th == pytest.approx(recomputed, abs=1e-12)
    assert 0.0 <= report.f_th <= 1.0
    assert report.mode == "exact"


def test_exact_thresholds_key_values():
    assert exact_f_th(ProtocolId.P0, bloch(1.0, 0.3)) == pytest.approx(1.0, abs=1e-12)
    assert exact_f_th(ProtocolId.PA1, bloch(0.7, 1.9)) == pytest.approx(0.5, abs=1e-12)
    assert exact_f_th(ProtocolId.PA1, ghz(2, np.pi / 2)) == pytest.approx(0.25, abs=1e-12)
    # B-cheat at m >= 2: the enumerated value; see test_pb_curve_vs_oracle
    assert exact_f_th(ProtocolId.PB, ghz(2, np.pi / 2)) == pytest.approx(0.25, abs=1e-12)


def test_threshold_fidelity_dimension_mismatch():
    branches = run_exact(ProtocolId.P0, ghz(2, 0.5))
    wrong_target = build_target(ghz(3, 0.5))
    with pytest.raises(ValueError):
        threshold_fidelity(branches, wrong_target)
    # both logical targets are normalized here; only the m check tells them apart
    branches = run_exact(ProtocolId.P0, ghz(3, 0.0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        threshold_fidelity(branches, build_target(ghz(4, 0.0)))


def test_theta_sweep_examples():
    pts = dict(theta_sweep(ProtocolId.PA2, 2, [0.0]))
    assert pts[0.0] == pytest.approx(0.5, abs=1e-12)
    pts = dict(theta_sweep(ProtocolId.PAB, 2, [np.pi / 2]))
    assert pts[np.pi / 2] == pytest.approx(0.25, abs=1e-12)
    pts = dict(theta_sweep(ProtocolId.PA1, 3, [np.pi / 4]))
    assert pts[np.pi / 4] == pytest.approx(3 / 8, abs=1e-12)


def test_theta_curve_scalar_and_grid_shapes():
    # a scalar is a one-point curve; a grid of more than one dimension is refused
    want = exact_f_th(ProtocolId.PA1, ghz(2, 0.5))
    for theta in (0.5, np.float64(0.5), np.array(0.5)):
        curve = fidelity.theta_curve(ProtocolId.PA1, 2, theta)
        assert curve.shape == (1,) and curve[0] == pytest.approx(want, abs=1e-12)
        assert theta_sweep(ProtocolId.PA1, 2, theta) == [(0.5, curve[0])]
    grid = np.zeros((2, 3))
    for call in (fidelity.theta_curve, theta_sweep):
        with pytest.raises(ValueError, match=r"^theta grid must be a scalar or one-dimensional, "
                                             r"got shape \(2, 3\)$"):
            call(ProtocolId.PA1, 2, grid)


@pytest.mark.parametrize("protocol", [ProtocolId.PA1, ProtocolId.PA2, ProtocolId.PAB])
@pytest.mark.parametrize("m", [2, 3])
def test_cheating_curves_closed_form(protocol, m):
    for theta, f in theta_sweep(protocol, m, np.linspace(0, np.pi, 20)):
        assert abs(f - A_CURVE(theta)) <= 1e-10


def test_pa1_equals_pa2_branch_sums():
    for m in (1, 2, 3):
        for theta in np.linspace(0, np.pi, 7):
            fam = InputFamily.GHZ
            f1 = exact_f_th(ProtocolId.PA1, ProtocolParams(m=m, family=fam, theta=theta))
            f2 = exact_f_th(ProtocolId.PA2, ProtocolParams(m=m, family=fam, theta=theta))
            assert abs(f1 - f2) <= 1e-12


def test_pb_curve_vs_oracle():
    """The enumerated B-cheat curve, cross-checked against the independent
    oracle at every grid point. It coincides with the A-cheat curve, twice the
    tabulated reference 1/4 - sin^2(theta)/8 (whose branch bookkeeping does
    not conserve probability); the trivial point theta = 0 adjudicates: both
    routes give exactly 1/2 there.
    """
    for m in (2, 3):
        for theta in np.linspace(0, np.pi, 9):
            got = exact_f_th(ProtocolId.PB, ghz(m, theta))
            want = oracle.threshold("pb", m, "ghz", theta)
            assert abs(got - want) <= 1e-10
            assert abs(got - A_CURVE(theta)) <= 1e-10
    assert exact_f_th(ProtocolId.PB, ghz(2, 0.0)) == pytest.approx(0.5, abs=1e-12)


def test_theta_average_values():
    for protocol in (ProtocolId.PA1, ProtocolId.PA2, ProtocolId.PAB):
        assert abs(theta_average(protocol, 2) - 3 / 8) <= 1e-9
        assert abs(theta_average(protocol, 3) - 3 / 8) <= 1e-9


def test_theta_average_pb_enumerated():
    # enumeration yields the A-cheat average, not half of it
    assert abs(theta_average(ProtocolId.PB, 2) - 3 / 8) <= 1e-9


@pytest.mark.xfail(strict=True,
                   reason="tabulated B-cheat average 3/16 is half the enumerated optimum; "
                          "the 3/16 bookkeeping has branch probabilities summing to 1/2")
def test_pb_average_is_half_of_pa_average():
    assert abs(theta_average(ProtocolId.PB, 2) - theta_average(ProtocolId.PA2, 2) / 2) <= 1e-9


def test_theta_average_quadrature_modes_and_convergence():
    gauss32 = theta_average(ProtocolId.PA1, 2, "gauss:32")
    gauss64 = theta_average(ProtocolId.PA1, 2, "gauss:64")
    assert abs(gauss32 - gauss64) <= 1e-12
    with pytest.raises(ValueError):
        theta_average(ProtocolId.PA1, 2, "gauss:1")
    with pytest.raises(ValueError):
        theta_average(ProtocolId.PA1, 2, "simpson:10")


def test_bloch_average_components_and_table():
    for protocol, p_branch in ((ProtocolId.PB, 0.25), (ProtocolId.PAB, 0.5)):
        report = bloch_average(protocol, postselect=1)
        for ann in report.per_announcement:
            assert ann.branch_probability == pytest.approx(p_branch, abs=1e-9)
            assert ann.plain_average == pytest.approx(0.5, abs=1e-9)
            assert ann.squared_average == pytest.approx(1 / 3, abs=1e-9)
            assert ann.postselected_average == pytest.approx(2 / 3, abs=1e-9)
        assert report.per_announcement[0].table_value == pytest.approx(p_branch / 3, abs=1e-9)
        assert report.per_announcement[1].table_value == pytest.approx(2 * p_branch / 3, abs=1e-9)
        assert report.postselected == pytest.approx(2 / 3, abs=1e-9)


def test_bloch_average_validation():
    with pytest.raises(ValueError):
        bloch_average(ProtocolId.P0)
    with pytest.raises(ValueError):
        bloch_average(ProtocolId.PB, postselect=2)


# Sweeps and averages read the compiled branch maps; these references run the
# interpreter at every node. The two differ only in rounding.
COMPILED_TOL = 1e-12


@pytest.mark.parametrize("protocol", list(ProtocolId))
@pytest.mark.parametrize("m", [1, 2, 3, 22])
def test_theta_sweep_matches_per_point_reference(protocol, m):
    grid = np.linspace(-1.5 * np.pi, 3.5 * np.pi, 11)  # theta < 0 and theta > 2 pi included
    sweep = theta_sweep(protocol, m, grid)
    assert [theta for theta, _ in sweep] == grid.tolist()
    for theta, f in sweep:
        assert abs(f - exact_f_th(protocol, ghz(m, theta))) <= COMPILED_TOL


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_theta_average_matches_per_point_reference(protocol):
    x, w = np.polynomial.legendre.leggauss(64)
    thetas, weights = (x + 1) * (np.pi / 2), w / 2
    for m in (1, 2, 3, 8):
        want = math.fsum(wi * exact_f_th(protocol, ghz(m, float(t)))
                         for t, wi in zip(thetas, weights))
        assert abs(theta_average(protocol, m, "gauss:64") - want) <= COMPILED_TOL


def _bloch_reference(protocol, theta_nodes_n, phi_nodes_n):
    """Per-announcement (branch probability, plain, squared) sums, one exact_report per node."""
    u, wu = np.polynomial.legendre.leggauss(theta_nodes_n)
    phis = (np.arange(phi_nodes_n) + 0.5) * (2 * np.pi / phi_nodes_n)
    acc = {a: ([], [], []) for a in (0, 1)}
    for ui, wi in zip(u, wu / 2):
        for phi in phis:
            w = wi / phi_nodes_n
            per_branch = exact_report(protocol, bloch(float(np.arccos(ui)), float(phi))).per_branch
            for a, (acc_p, acc_f, acc_f2) in acc.items():
                group = [bf for bf in per_branch if bf.announcement.a == a]
                f = (math.fsum(bf.probability * bf.fidelity for bf in group)
                     / math.fsum(bf.probability for bf in group))
                acc_p.append(w * group[0].probability)
                acc_f.append(w * f)
                acc_f2.append(w * f * f)
    return {a: tuple(map(math.fsum, sums)) for a, sums in acc.items()}


@pytest.mark.parametrize("protocol", [ProtocolId.PB, ProtocolId.PAB])
def test_bloch_average_matches_per_point_reference(protocol):
    ref = _bloch_reference(protocol, 64, 8)
    report = bloch_average(protocol, postselect=1)
    for ann in report.per_announcement:
        p, plain, squared = ref[ann.a]
        table = p * squared if ann.a == 0 else p * squared / plain
        for got, want in ((ann.branch_probability, p), (ann.plain_average, plain),
                          (ann.squared_average, squared),
                          (ann.postselected_average, squared / plain), (ann.table_value, table)):
            assert abs(got - want) <= COMPILED_TOL
    assert abs(report.postselected - ref[1][2] / ref[1][1]) <= COMPILED_TOL


def _sphere_moment(a, b, c):
    """E[x^a y^b z^c] over the uniform unit sphere: (a-1)!!(b-1)!!(c-1)!!/(a+b+c+1)!!."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    double = lambda n: math.prod(range(n, 0, -2))  # noqa: E731
    return double(a - 1) * double(b - 1) * double(c - 1) / double(a + b + c + 1)


def test_icosahedron_is_a_spherical_5_design():
    # the Bloch vectors of the amplitude pairs bloch_average evaluates
    a0, a1 = fidelity._icosahedron().T
    assert len(a0) == 12
    cross = 2 * a0.conj() * a1
    n = np.stack([cross.real, cross.imag, abs(a0) ** 2 - abs(a1) ** 2])
    np.testing.assert_allclose(np.linalg.norm(n, axis=0), 1.0, rtol=0, atol=1e-15)
    assert _sphere_moment(2, 0, 0) == 1 / 3 and _sphere_moment(4, 0, 0) == 1 / 5
    assert _sphere_moment(2, 2, 0) == 1 / 15
    for a, b, c in itertools.product(range(6), repeat=3):
        if a + b + c <= 5:
            got = math.fsum(n[0] ** a * n[1] ** b * n[2] ** c) / 12
            assert abs(got - _sphere_moment(a, b, c)) <= 1e-15, (a, b, c)


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_exact_theta_average_matches_gauss(protocol):
    for m in (1, 2, 3):
        exact = theta_average(protocol, m)
        assert exact == theta_average(protocol, m, " EXACT ")
        assert abs(exact - theta_average(protocol, m, "gauss:64")) <= 1e-12


def test_exact_averages_reproduce_closed_forms():
    # the maps are exact, so the averages land on the closed forms, not an ulp off
    for m in (1, 2, 3):
        assert theta_average(ProtocolId.P0, m) == 1.0
    for protocol in (ProtocolId.PA1, ProtocolId.PA2, ProtocolId.PB, ProtocolId.PAB):
        assert theta_average(protocol, 1) == 0.5
        for m in (2, 3):
            assert theta_average(protocol, m) == 0.375
    for protocol, p_branch in ((ProtocolId.PB, 1 / 4), (ProtocolId.PAB, 1 / 2)):
        report = bloch_average(protocol, postselect=1)
        for ann in report.per_announcement:
            for got, want in ((ann.branch_probability, p_branch), (ann.plain_average, 1 / 2),
                              (ann.squared_average, 1 / 3), (ann.postselected_average, 2 / 3)):
                assert got == want
        assert report.postselected == 2 / 3


def test_exact_theta_average_errors():
    for quadrature in ("exact", "gauss:64"):
        with pytest.raises(ValueError, match=r"^m must be >= 1$"):
            theta_average(ProtocolId.PA1, 0, quadrature)
    for kind in ("simpson", "grid"):
        with pytest.raises(ValueError, match=rf"^unknown quadrature kind '{kind}'; "
                                             r"expected exact or gauss:<n>$"):
            theta_average(ProtocolId.PA1, 2, f"{kind}:10")
    with pytest.raises(ValueError, match="exact quadrature takes no resolution"):
        theta_average(ProtocolId.PA1, 2, "exact:64")


def test_averaged_branches_keep_the_compiled_checks():
    # the moment form runs _compiled_branches' checks on the averages
    second, fourth = fidelity._half_circle_moments()
    with pytest.raises(ValueError, match="branch probabilities sum to"):
        _averaged_branches(ProtocolId.PA1, 2, 2 * second, fourth)
    with pytest.raises(ValueError, match="imaginary residue"):
        _averaged_branches(ProtocolId.PA1, 2, second, fourth + 1e-9j)
    with pytest.raises(ValueError, match="outside"):
        _averaged_branches(ProtocolId.PA1, 2, second, 3 * fourth)
    with pytest.raises(ValueError, match=r"^m must be >= 1$"):
        _averaged_branches(ProtocolId.PA1, 0, second, fourth)


def test_bloch_average_checks_its_exactness_condition(monkeypatch):
    # a fidelity is quadratic in the Bloch vector only where its announcement's
    # probability is constant; the 12 nodes are exact only then
    compiled = fidelity._compiled_branches

    def tilted(protocol, m, amps):
        announcements, p, pf = compiled(protocol, m, amps)
        tilt = 1 + 1e-6 * (abs(amps[:, 0]) ** 2 - 1 / 2)
        return announcements, p * tilt[:, None], pf

    monkeypatch.setattr(fidelity, "_compiled_branches", tilted)
    with pytest.raises(ValueError, match="needs a constant one"):
        bloch_average(ProtocolId.PB, postselect=1)


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_average_fidelity_from_entanglement_fidelity(protocol):
    # Horodecki, Horodecki & Horodecki, PRA 60, 1888 (1999): a qubit channel
    # with entanglement fidelity F_e has average fidelity (2 F_e + 1) / 3. The
    # channel is the announcement sum of the m = 1 maps; f_th is quadratic in
    # the Bloch vector, so 3 Gauss nodes in cos(theta) and 4 midpoints in phi
    # give the sphere average exactly.
    _, _, r, _ = _branch_maps(protocol, 1)
    f_e = np.einsum("bijij->", r).real / 4
    u, wu = np.polynomial.legendre.leggauss(3)
    phis = (np.arange(4) + 0.5) * (np.pi / 2)
    sphere = math.fsum(wi / 2 / 4 * exact_report(protocol, bloch(float(np.arccos(ui)),
                                                                 float(phi))).f_th
                       for ui, wi in zip(u, wu) for phi in phis)
    assert abs((2 * f_e + 1) / 3 - sphere) <= COMPILED_TOL


QUADRATURES = ("gauss:2", "gauss:64")


def _average_hexes():
    """Every theta_average and bloch_average float the rule cache feeds, as hex strings."""
    thetas = [theta_average(p, 2, q).hex() for p in ProtocolId for q in QUADRATURES]
    blochs = []
    for protocol in (ProtocolId.PB, ProtocolId.PAB):
        report = bloch_average(protocol, postselect=1)
        blochs.append(report.postselected.hex())
        blochs.extend(x.hex() for ann in report.per_announcement
                      for x in (ann.branch_probability, ann.plain_average, ann.squared_average))
    return thetas, blochs


def _theta_average_reference(protocol, quadrature):
    """theta_average with its Gauss-Legendre rule built here, from leggauss."""
    x, w = np.polynomial.legendre.leggauss(int(quadrature.removeprefix("gauss:")))
    thetas, weights = (x + 1) * (np.pi / 2), w / 2
    return math.fsum(weights * fidelity.theta_curve(protocol, 2, thetas)).hex()


def test_gauss_rule_cache_leaves_averages_bitwise_unchanged(monkeypatch):
    fidelity._gauss_legendre.cache_clear()
    cold = _average_hexes()
    assert fidelity._gauss_legendre.cache_info().currsize == 2  # the Bloch average has none
    warm = _average_hexes()
    assert cold == warm
    assert cold[0] == [_theta_average_reference(p, q) for p in ProtocolId for q in QUADRATURES]
    monkeypatch.setattr(fidelity, "_gauss_legendre", np.polynomial.legendre.leggauss)
    assert cold[1] == _average_hexes()[1]


def test_gauss_rule_is_read_only_and_keyed_on_parsed_n():
    fidelity._gauss_legendre.cache_clear()
    theta_average(ProtocolId.PA1, 2, "gauss:64")
    theta_average(ProtocolId.PA1, 2, " GAUSS:64")
    info = fidelity._gauss_legendre.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for arr in fidelity._gauss_legendre(64):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_failed_gauss_rule_is_not_cached(monkeypatch, capsys):
    want = theta_average(ProtocolId.PA1, 2, "gauss:48")
    fidelity._gauss_legendre.cache_clear()

    def exhausted(n):
        raise MemoryError(f"no room for a {n}-node rule")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", exhausted)
    with pytest.raises(MemoryError):
        theta_average(ProtocolId.PA1, 2, "gauss:48")
    assert main(["average", "--quadrature", "gauss:48"]) == 3
    assert capsys.readouterr() == ("", "capacity error: no room for a 48-node rule\n")
    assert fidelity._gauss_legendre.cache_info().currsize == 0
    monkeypatch.undo()
    assert theta_average(ProtocolId.PA1, 2, "gauss:48").hex() == want.hex()


# Hex floats of the per-point path (exact_report: f_th, then (probability,
# fidelity) per branch), captured before averages moved to compiled maps; that
# change must leave this path untouched.
PINNED_EXACT = {
    "ghz(2, 0.9)": {
        "p0": ("0x1.ffffffffffffbp-1", (("0x1.ffffffffffffbp-3", "0x1.0000000000000p+0"),
                                        ("0x1.ffffffffffffbp-3", "0x1.0000000000000p+0"),
                                        ("0x1.ffffffffffffbp-3", "0x1.0000000000000p+0"),
                                        ("0x1.ffffffffffffbp-3", "0x1.0000000000000p+0"))),
        "pa1": ("0x1.62eb0ab0daf16p-2", (("0x1.9f21d4b49710dp-2", "0x1.9f21d4b49710cp-2"),
                                         ("0x1.9f21d4b49710dp-2", "0x1.9f21d4b49710cp-2"),
                                         ("0x1.8378ad2da3bc6p-4", "0x1.8378ad2da3bc9p-4"),
                                         ("0x1.8378ad2da3bc6p-4", "0x1.8378ad2da3bc9p-4"))),
        "pa2": ("0x1.62eb0ab0daf17p-2", (("0x1.0000000000000p-2", "0x1.62eb0ab0daf17p-2"),
                                         ("0x1.0000000000000p-2", "0x1.62eb0ab0daf17p-2"),
                                         ("0x1.0000000000000p-2", "0x1.62eb0ab0daf17p-2"),
                                         ("0x1.0000000000000p-2", "0x1.62eb0ab0daf17p-2"))),
        "pb": ("0x1.62eb0ab0daf15p-2", (("0x1.ffffffffffffbp-3", "0x1.50975a0d0489ap-1"),
                                        ("0x1.ffffffffffffbp-3", "0x1.50975a0d0489ap-1"),
                                        ("0x1.ffffffffffffbp-3", "0x1.253b0a3d667e0p-5"),
                                        ("0x1.ffffffffffffbp-3", "0x1.253b0a3d667e0p-5"))),
        "pab": ("0x1.62eb0ab0daf15p-2", (("0x1.ffffffffffffdp-2", "0x1.50975a0d04899p-1"),
                                         ("0x1.ffffffffffffdp-2", "0x1.253b0a3d667e0p-5"))),
    },
    "bloch(1.0, 0.3)": {
        "p0": ("0x1.ffffffffffffcp-1", (("0x1.ffffffffffffcp-3", "0x1.0000000000000p+0"),
                                        ("0x1.ffffffffffffcp-3", "0x1.0000000000000p+0"),
                                        ("0x1.ffffffffffffcp-3", "0x1.0000000000000p+0"),
                                        ("0x1.ffffffffffffcp-3", "0x1.0000000000000p+0"))),
        "pa1": ("0x1.ffffffffffffdp-2", (("0x1.8a51407da8344p-2", "0x1.fffffffffffffp-2"),
                                         ("0x1.8a51407da8344p-2", "0x1.fffffffffffffp-2"),
                                         ("0x1.d6bafe095f2e6p-4", "0x1.0000000000001p-1"),
                                         ("0x1.d6bafe095f2e6p-4", "0x1.0000000000001p-1"))),
        "pa2": ("0x1.fffffffffffffp-2", (("0x1.0000000000000p-2", "0x1.fffffffffffffp-2"),
                                         ("0x1.0000000000000p-2", "0x1.fffffffffffffp-2"),
                                         ("0x1.0000000000000p-2", "0x1.fffffffffffffp-2"),
                                         ("0x1.0000000000000p-2", "0x1.fffffffffffffp-2"))),
        "pb": ("0x1.ffffffffffffcp-2", (("0x1.ffffffffffffcp-3", "0x1.8a51407da8346p-1"),
                                        ("0x1.ffffffffffffcp-3", "0x1.8a51407da8346p-1"),
                                        ("0x1.ffffffffffffcp-3", "0x1.d6bafe095f2e6p-3"),
                                        ("0x1.ffffffffffffcp-3", "0x1.d6bafe095f2e6p-3"))),
        "pab": ("0x1.ffffffffffffcp-2", (("0x1.ffffffffffffcp-2", "0x1.8a51407da8346p-1"),
                                         ("0x1.ffffffffffffcp-2", "0x1.d6bafe095f2e7p-3"))),
    },
}
# theta_sweep reads the compiled maps; these are its values since it moved there.
PINNED_SWEEP_PA1 = ["0x1.0000000000000p-1", "0x1.c000000000001p-2", "0x1.4000000000001p-2",
                    "0x1.fffffffffffffp-3", "0x1.4000000000000p-2", "0x1.bfffffffffffep-2",
                    "0x1.0000000000000p-1"]


def test_per_point_path_pinned():
    for label, params in (("ghz(2, 0.9)", ghz(2, 0.9)), ("bloch(1.0, 0.3)", bloch(1.0, 0.3))):
        for protocol in ProtocolId:
            rep = exact_report(protocol, params)
            got = (rep.f_th.hex(), tuple((bf.probability.hex(), bf.fidelity.hex())
                                         for bf in rep.per_branch))
            assert got == PINNED_EXACT[label][protocol.value]
    sweep = theta_sweep(ProtocolId.PA1, 2, np.linspace(0, np.pi, 7))
    assert [f.hex() for _, f in sweep] == PINNED_SWEEP_PA1


def test_monte_carlo_zero_variance_case():
    report = monte_carlo_threshold(ProtocolId.P0, bloch(0.8, 0.1), shots=10_000, seed=3)
    assert report.f_th == pytest.approx(1.0, abs=1e-12)
    assert report.stderr == pytest.approx(0.0, abs=1e-12)


def test_monte_carlo_estimates():
    report = monte_carlo_threshold(ProtocolId.PA2, bloch(1.3, 0.4), shots=100_000, seed=11)
    assert abs(report.f_th - 0.5) <= 4 * report.stderr + 1e-12
    report = monte_carlo_threshold(ProtocolId.PAB, ghz(2, np.pi / 2), shots=100_000, seed=11)
    assert abs(report.f_th - 0.25) <= 4 * report.stderr + 1e-12


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo_threshold(ProtocolId.P0, bloch(0.1), shots=99, seed=1)
    with pytest.raises(ValueError):
        monte_carlo_threshold(ProtocolId.P0, bloch(0.1), shots=1000, seed=1, threads=0)


def test_monte_carlo_deterministic_across_threads_and_runs():
    params = ghz(2, 0.8)
    ref = monte_carlo_threshold(ProtocolId.PB, params, shots=50_000, seed=5)
    for threads in (1, 2, 7):
        rep = monte_carlo_threshold(ProtocolId.PB, params, shots=50_000, seed=5, threads=threads)
        assert rep.f_th == ref.f_th and rep.stderr == ref.stderr
        assert [bf.probability for bf in rep.per_branch] == \
               [bf.probability for bf in ref.per_branch]


@functools.lru_cache(maxsize=None)
def _oracle_branches(protocol, params, shots, seed):
    """Branch index of each shot, walked by the oracle over Generator.random's floats."""
    kinds = DRAW_KINDS[protocol]
    probs = [bf.probability for bf in exact_report(protocol, params).per_branch]
    rows = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(
        (shots, len(kinds)))
    return np.array([oracle.sample_branch(kinds, probs, row) for row in rows.tolist()])


def _monolithic_counts(protocol, params, shots, seed):
    """The tally of one Philox block holding every shot's draws, off the library's sampler."""
    idx = _oracle_branches(protocol, params, 3 * CHUNK_SHOTS + 5, seed)[:shots]
    return np.bincount(idx, minlength=2 ** len(DRAW_KINDS[protocol])).tolist()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_branch_tally_counts_each_index(n):
    # counts of the bits and their ANDs give each index's rows, as a
    # per-row index would, including indices no row has
    rng = np.random.default_rng(n)
    bits = [rng.random(1000) < q for q in (0.3, 0.9, 0.02)[:n]]
    idx = sum(bit.astype(int) << (n - 1 - j) for j, bit in enumerate(bits))
    assert fidelity._branch_tally(bits) == np.bincount(idx, minlength=2**n).tolist()


@pytest.mark.parametrize("protocol", [ProtocolId.PAB, ProtocolId.PB])  # 1 and 2 bits per shot
@pytest.mark.parametrize("shots", [CHUNK_SHOTS - 1, CHUNK_SHOTS, CHUNK_SHOTS + 1,
                                   3 * CHUNK_SHOTS + 5])
def test_monte_carlo_chunks_equal_monolithic_block(protocol, shots):
    params = ghz(2, 1.2)
    counts = _monolithic_counts(protocol, params, shots, seed=13)
    assert sum(counts) == shots
    for threads in (1, 2, 3):
        rep = monte_carlo_threshold(protocol, params, shots=shots, seed=13, threads=threads)
        assert [bf.probability for bf in rep.per_branch] == [c / shots for c in counts]


# Captured from an earlier build that held one Philox block for all shots;
# 200 003 shots span four chunks. The counts date from that build; f_th and its
# stderr are re-read with the branch fidelities off the compiled maps.
PINNED_MULTI_CHUNK = ("0x1.62d301bdbc963p-2", "0x1.6c5e4f6108385p-11",
                      [49905, 50067, 50085, 49946])


def test_monte_carlo_multi_chunk_report_pinned():
    shots = 200_003
    assert shots > 3 * CHUNK_SHOTS
    f_th, stderr, counts = PINNED_MULTI_CHUNK
    for threads in (1, 2):
        rep = monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.9), shots=shots, seed=7,
                                    threads=threads)
        assert (rep.f_th.hex(), rep.stderr.hex()) == (f_th, stderr)
        assert [bf.probability for bf in rep.per_branch] == [c / shots for c in counts]


def _count_streams(monkeypatch, fail=None):
    """Record each RngStream a Monte Carlo worker opens, with its thread, skip and block rows.

    A worker opens exactly one stream, so the records count the workers.
    fail(rng), if given, runs before each block is drawn and may raise.
    """
    streams = []

    class Counted(RngStream):
        def __init__(self, seed):
            super().__init__(seed)
            self.thread = threading.current_thread()
            self.skipped, self.rows = None, []
            streams.append(self)

        def skip(self, draws):
            assert self.skipped is None
            self.skipped = draws
            super().skip(draws)

        def uniform_block(self, shape):
            if fail is not None:
                fail(self)
            self.rows.append(shape[0])
            return super().uniform_block(shape)

    monkeypatch.setattr(fidelity, "RngStream", Counted)
    return streams


def _count_threads(monkeypatch):
    """Record every thread made while the patch holds."""
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(threading, "Thread", Recorded)
    return made


def _cpus(monkeypatch, n):
    monkeypatch.setattr(fidelity.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_monte_carlo_pool_is_bounded(monkeypatch):
    # --threads asks for at most one worker per chunk: three chunks on eight
    # CPUs open three streams however many workers were asked for
    shots = 2 * CHUNK_SHOTS + 5  # three chunks
    ref = monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.8), shots=shots, seed=5)
    _cpus(monkeypatch, 8)
    streams = _count_streams(monkeypatch)
    rep = monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.8), shots=shots, seed=5,
                                threads=10**6)
    assert rep == ref
    assert sorted(rng.skipped for rng in streams) == [0, 2 * CHUNK_SHOTS, 4 * CHUNK_SHOTS]


def test_monte_carlo_pool_is_capped_at_the_cpus_it_may_run_on(monkeypatch):
    # an affinity mask of one CPU gives one worker however many cores exist;
    # where the OS has no mask, os.cpu_count() caps the pool
    streams = _count_streams(monkeypatch)
    monkeypatch.setattr(fidelity.os, "cpu_count", lambda: 64)
    _cpus(monkeypatch, 1)
    shots = 2 * CHUNK_SHOTS + 5  # three chunks
    rep = monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.8), shots=shots, seed=5, threads=3)
    assert len(streams) == 1
    monkeypatch.delattr(fidelity.os, "sched_getaffinity")
    monkeypatch.setattr(fidelity.os, "cpu_count", lambda: 2)
    assert monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.8), shots=shots, seed=5,
                                 threads=3) == rep
    assert len(streams) == 1 + 2


def test_monte_carlo_caller_is_worker_0(monkeypatch):
    # threads=1 starts no thread; with three workers the caller reads the
    # first range and two threads read the others
    _cpus(monkeypatch, 4)
    made = _count_threads(monkeypatch)
    streams = _count_streams(monkeypatch)
    shots = 2 * CHUNK_SHOTS + 5  # three chunks
    rep = monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.8), shots=shots, seed=5, threads=1)
    assert made == [] and [rng.thread for rng in streams] == [threading.current_thread()]
    assert monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.8), shots=shots, seed=5,
                                 threads=3) == rep
    first, *rest = sorted(streams[1:], key=lambda rng: rng.skipped)
    assert first.thread is threading.current_thread()
    assert len(made) == 2 and {rng.thread for rng in rest} == set(made)
    assert not any(thread.is_alive() for thread in made)


def test_monte_carlo_reads_one_stream_per_worker(monkeypatch):
    # each of 3 workers reads a contiguous range of the 4 chunks from one
    # stream, skipped once to its first row; together they draw every row once
    shots = 3 * CHUNK_SHOTS + 5  # four chunks
    ref = monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.8), shots=shots, seed=5)
    streams = _count_streams(monkeypatch)
    _cpus(monkeypatch, 4)
    rep = monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.8), shots=shots, seed=5, threads=3)
    assert rep == ref
    assert len(streams) == 3
    by_first = sorted(streams, key=lambda rng: rng.skipped)
    assert [rng.skipped for rng in by_first] == [0, 2 * CHUNK_SHOTS, 4 * CHUNK_SHOTS]  # pb: 2 bits
    assert [rng.rows for rng in by_first] == [[CHUNK_SHOTS], [CHUNK_SHOTS], [CHUNK_SHOTS, 5]]


def _fail_worker(w, words_per_range):
    """A fail hook that runs out of memory in worker w, the one whose stream skips w ranges."""
    def fail(rng):
        if rng.skipped == w * words_per_range:
            raise MemoryError(f"no room for worker {w}'s block")
    return fail


@pytest.mark.parametrize("w", [0, 1, 2], ids=["caller", "helper-1", "helper-2"])
def test_monte_carlo_worker_error_reaches_the_caller(monkeypatch, w):
    # the caller re-raises a worker's error once every thread has stopped
    _cpus(monkeypatch, 4)
    made = _count_threads(monkeypatch)
    _count_streams(monkeypatch, _fail_worker(w, 2 * CHUNK_SHOTS))  # pb: 2 bits
    with pytest.raises(MemoryError, match=f"worker {w}"):
        monte_carlo_threshold(ProtocolId.PB, ghz(2, 0.8), shots=2 * CHUNK_SHOTS + 5, seed=5,
                              threads=3)
    assert len(made) == 2 and not any(thread.is_alive() for thread in made)


def test_monte_carlo_workers_stop_after_a_failure(monkeypatch):
    # the caller fails at its first chunk; the helper stops at its next chunk
    # boundary instead of drawing the 256 chunks of its range
    _cpus(monkeypatch, 2)
    streams = _count_streams(monkeypatch, _fail_worker(0, 256 * CHUNK_SHOTS))  # pab: 1 bit
    with pytest.raises(MemoryError, match="worker 0"):
        monte_carlo_threshold(ProtocolId.PAB, ghz(2, 0.8), shots=512 * CHUNK_SHOTS, seed=5,
                              threads=2)
    helper, = [rng for rng in streams if rng.skipped]
    assert len(helper.rows) < 128


def test_monte_carlo_worker_memory_error_exits_3(monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    made = _count_threads(monkeypatch)
    _count_streams(monkeypatch, _fail_worker(1, 2 * CHUNK_SHOTS))  # pb: 2 bits
    code = main(["run", "--protocol", "pb", "--m", "2", "--family", "ghz", "--mode",
                 "monte_carlo", "--shots", str(2 * CHUNK_SHOTS), "--seed", "7",
                 "--threads", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert re.fullmatch(r"capacity error: no room for worker 1's block\n", err)
    assert len(made) == 1 and not made[0].is_alive()


def test_monte_carlo_reads_only_the_compiled_maps(monkeypatch):
    # with the maps compiled, an estimate needs neither the interpreter, nor
    # an m-qubit target, nor exact_report
    for protocol in ProtocolId:
        for k in (1, 2):
            _branch_maps(protocol, k)
    _trajectory_table.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("Monte Carlo left the compiled maps")

    monkeypatch.setattr(protocols, "_run", refuse)
    monkeypatch.setattr(protocols, "build_target", refuse)
    monkeypatch.setattr(fidelity, "exact_report", refuse)
    for protocol in ProtocolId:
        for params in (ghz(2, 0.7), ghz(3, 0.7), bloch(0.7, 0.2)):
            rep = monte_carlo_threshold(protocol, params, shots=1000, seed=3)
            assert sum(bf.probability for bf in rep.per_branch) == pytest.approx(1.0)


def test_monte_carlo_shares_the_trajectory_table_entry():
    params = ghz(2, 0.61)
    _trajectory_table(ProtocolId.PB, params)
    before = _trajectory_table.cache_info()
    for threads in (1, 2):
        monte_carlo_threshold(ProtocolId.PB, params, shots=1000, seed=3, threads=threads)
    after = _trajectory_table.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


def test_monte_carlo_branch_fidelities_match_exact_report():
    zero_branches = 0
    for protocol in ProtocolId:
        for params in [ghz(2, t) for t in (0.0, 0.9, np.pi / 2, np.pi)] + [bloch(0.9, 0.3)]:
            exact = exact_report(protocol, params).per_branch
            rep = monte_carlo_threshold(protocol, params, shots=1000, seed=1)
            assert [bf.announcement for bf in rep.per_branch] == [bf.announcement for bf in exact]
            for got, want in zip(rep.per_branch, exact):
                if want.probability == 0.0:
                    zero_branches += 1
                    assert got.fidelity == 0.0 and got.probability == 0.0
                assert abs(got.fidelity - want.fidelity) <= 1e-12
    assert zero_branches  # pa1 at theta = 0 and pi


def test_monte_carlo_and_exact_agree_on_a_rounding_level_branch():
    # pa1's a = 0 branches at bloch theta = pi have p_b = 1.9e-33: the table
    # reads the interpreter's probability there, not a clipped negative, and
    # both modes fidelity 1/2
    params = bloch(np.pi, 0.3)
    exact = exact_report(ProtocolId.PA1, params).per_branch
    assert 0 < exact[0].probability < 1e-32
    assert _trajectory_table(ProtocolId.PA1, params).probs[0] == pytest.approx(exact[0].probability,
                                                                             rel=1e-15)
    rep = monte_carlo_threshold(ProtocolId.PA1, params, shots=1000, seed=1)
    for got, want in zip(rep.per_branch, exact):
        assert abs(got.fidelity - want.fidelity) <= 1e-15


def test_monte_carlo_frequencies_match_run_sampled():
    # the tally sampler and the trajectory simulator draw from the same
    # announcement distribution
    from telecert.channels import RngStream
    from telecert.protocols import run_sampled

    params = bloch(1.0, 0.7)
    report = monte_carlo_threshold(ProtocolId.PA1, params, shots=20_000, seed=9)
    n = 6000
    rng = RngStream(10)
    counts = {}
    for _ in range(n):
        ann, _ = run_sampled(ProtocolId.PA1, params, rng)
        counts[ann] = counts.get(ann, 0) + 1
    exact = {br.announcement: br.probability for br in run_exact(ProtocolId.PA1, params)}
    for bf in report.per_branch:
        p = exact[bf.announcement]
        band = 4 * np.sqrt(p * (1 - p) / n)
        assert abs(bf.probability - p) <= band
        assert abs(counts.get(bf.announcement, 0) / n - p) <= band
