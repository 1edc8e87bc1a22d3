import dataclasses

import numpy as np
import pytest

from foldedmaps import moduli as Mo
from foldedmaps import sphere as S
from foldedmaps import tunneling as T
from foldedmaps.errors import (DomainError, InputError,
                               NonImmersedBoundaryError, TierViolationError)

RNG = np.random.default_rng(31415)
M_RES, NR = 128, 48


def small_family(c, m):
    return Mo.degree1_family(Mo.ModuliParam(c, m), M_RES, NR)


# ---------------------------------------------------------------------------
# det omega closed form


def test_det_omega_closed_form_oracle():
    # cross-check the closed form against the frame-based pointwise ratio
    for _ in range(50):
        v = RNG.normal(size=5)
        v = v / np.linalg.norm(v)
        p = S.Point4Sphere(v)
        assert abs(S.det_omega(p) - Mo.det_omega_closed_form(v[0])) < 1e-12


# ---------------------------------------------------------------------------
# degree-1 family


def test_param_validation():
    with pytest.raises(DomainError):
        Mo.ModuliParam(1.2, 1.0)
    with pytest.raises(DomainError):
        Mo.ModuliParam(0.3, 2.0)
    with pytest.raises(DomainError):
        Mo.ModuliParam(complex(np.nan, 0.0), 1.0)
    with pytest.raises(DomainError):
        Mo.ModuliParam(0.3, complex(1.0, np.inf))
    with pytest.raises(DomainError):
        Mo.degree1_family(Mo.ModuliParam(0.995, 1.0), M_RES, NR)


def test_family_c0_boundary_is_characteristic():
    b = small_family(0.0, 1.0)
    th = np.arange(M_RES) * 2 * np.pi / M_RES
    assert np.max(np.abs(b.pair.v_plus.boundary()[:, 0] - np.exp(1j * th))) < 1e-12
    assert np.max(np.abs(b.pair.v_plus.boundary()[:, 1])) < 1e-12


def test_family_verifies():
    for c, m in [(0.0, 1.0), (0.5 + 0.2j, np.exp(0.7j)), (0.6, 1j)]:
        rep = Mo.verify_folded_holomorphic(small_family(c, m))
        assert rep.passed(1e-8), rep.as_dict()


def test_family_boundary_unit_norm():
    b = small_family(0.6, 1j)
    norms = np.sum(np.abs(b.pair.v_plus.boundary()) ** 2, axis=1)
    assert np.max(np.abs(norms - 1)) < 1e-12


def test_family_gap_profile():
    # derived: a = (1 + |c|^2) / (1 - |c|^2), so c = 0 gives a = 1
    from foldedmaps.boundary_operator import boperator_data_from_bundle
    b = small_family(0.5, 1.0)
    data = boperator_data_from_bundle(b)
    assert np.max(np.abs(data.a_samples - 5.0 / 3.0)) < 1e-10
    b0 = small_family(0.0, 1.0)
    data0 = boperator_data_from_bundle(b0)
    assert np.max(np.abs(data0.a_samples - 1.0)) < 1e-9
    assert data0.degenerate_f


def test_family_energies_closed_form():
    # derived: E(u+) = 1 - |c|^2, E(u-) = 1 + |c|^2, E(v+-) = |c|^2
    for c in (0.0, 0.37, 0.8):
        b = small_family(c, np.exp(0.2j))
        e = b.energies
        assert abs(e["E_u_plus"] - (1 - c ** 2)) < 1e-9
        assert abs(e["E_u_minus"] - (1 + c ** 2)) < 1e-9
        assert abs(e["E_v_plus"] - c ** 2) < 1e-9
        assert abs(e["E_v_minus"] - c ** 2) < 1e-9


def test_energy_identities_across_family():
    totals, plus_pairs, minus_pairs = [], [], []
    for _ in range(5):
        c = RNG.uniform(0, 0.9) * np.exp(2j * np.pi * RNG.uniform())
        m = np.exp(2j * np.pi * RNG.uniform())
        e = small_family(c, m).energies
        totals.append(e["E_u_plus"] + e["E_u_minus"])
        plus_pairs.append(e["E_u_plus"] + e["E_v_plus"])
        minus_pairs.append(e["E_u_minus"] - e["E_v_minus"])
        assert abs(e["E_v_plus"] - e["E_v_minus"]) < 1e-7
    assert np.ptp(totals) < 1e-6
    assert np.ptp(plus_pairs) < 1e-6
    assert np.ptp(minus_pairs) < 1e-6


def test_verify_detects_involution_reflection():
    # lower map built by reflecting the upper one through the fold gives a
    # continuous image; its tunneling double fails the marker condition
    from foldedmaps.tunneling import make_conjugate_pair, check_conjugate
    b = small_family(0.5, 1.0)
    naive = make_conjugate_pair(b.pair.v_plus, b.pair.v_plus, b.x)
    rep = check_conjugate(naive)
    assert rep.marker_defect > 0.1


def test_verify_reports_boundary_noise_linearly():
    b = small_family(0.45, 1.0)
    noise = 1e-3
    rng = np.random.default_rng(7)
    pert = rng.normal(size=b.boundary_plus.shape)
    b.boundary_plus = b.boundary_plus + noise * pert / np.max(np.abs(pert))
    rep = Mo.verify_folded_holomorphic(b)
    assert 0.1 * noise < rep.boundary_match_plus < 10 * noise


def test_gauge_rotation_invariance():
    # precomposing with a rigid rotation preserves residuals and energies
    c, m, beta = 0.5, np.exp(0.4j), 0.77
    base = small_family(c, m)
    r0 = np.sqrt(1 - abs(c) ** 2)
    rotated_curve = Mo.CurveInput(
        np.array([0, r0 * m * np.exp(1j * beta)]), np.array([m * c]), m)
    rot = Mo.construct_degree_d(rotated_curve, m, M_RES, NR)
    e1, e2 = base.energies, rot.energies
    for k in e1:
        assert abs(e1[k] - e2[k]) < 1e-8
    r1 = Mo.verify_folded_holomorphic(base)
    r2 = Mo.verify_folded_holomorphic(rot)
    assert abs(r1.max_residual() - r2.max_residual()) < 1e-8


# ---------------------------------------------------------------------------
# compactification and reduction


def test_compactification_trend():
    rows = Mo.compactification_sample(np.linspace(0, 0.99, 8), 1.0, M_RES, NR)
    e_plus = [r.e_u_plus for r in rows]
    assert all(a > b for a, b in zip(e_plus, e_plus[1:]))
    totals = np.array([r.e_total for r in rows])
    assert np.ptp(totals) < 1e-6
    assert e_plus[-1] < 0.5 * rows[-1].e_total
    # energy drains from the upper map as the parameter leaves the disk
    assert rows[-1].e_u_plus < rows[3].e_u_plus


def test_compactification_limit_label():
    m = np.exp(0.3j)
    phase = np.exp(1j * 1.1)
    rows = Mo.compactification_sample(
        phase * np.linspace(0.1, 0.99, 4), m, 64, 24)
    limit = m * phase
    assert rows[-1].limit_label == f"(0,{limit.real:.12g}{limit.imag:+.12g}j)"


def test_hopf_reduce_orbit_collapse():
    a = Mo.hopf_reduce(Mo.ModuliParam(0.5, 1.0))
    b = Mo.hopf_reduce(Mo.ModuliParam(0.5, 1j))
    assert a.distance(b) < 1e-12
    # all m at c = 0 collapse to the base point [1 : 0]
    z = Mo.hopf_reduce(Mo.ModuliParam(0.0, np.exp(2.1j)))
    assert z.distance(S.ProjectivePoint.of(np.array([1.0, 0.0]))) < 1e-12


def test_hopf_reduce_injective_in_c_abs():
    vals = [Mo.hopf_reduce(Mo.ModuliParam(c, 1.0)) for c in (0.1, 0.4, 0.7)]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert vals[i].distance(vals[j]) > 1e-3


# ---------------------------------------------------------------------------
# degree-d construction


def test_curve_input_validation():
    with pytest.raises(InputError):
        Mo.CurveInput(np.array([1.0]), np.array([]), 1.0)  # degree 0
    with pytest.raises(InputError):
        Mo.CurveInput(np.array([0, 1.0]), np.array([]), 2.0)  # |m| != 1
    with pytest.raises(InputError):
        Mo.CurveInput(np.array([0, np.nan]), np.array([0.5]), 1.0)
    with pytest.raises(InputError):
        Mo.CurveInput(np.array([0, 1.0]), np.array([0.5]), complex(np.nan))


def test_curve_json_roundtrip():
    c = Mo.CurveInput(np.array([0, 0.8]), np.array([0.6j]), np.exp(0.5j))
    c2 = Mo.CurveInput.from_json(c.to_json())
    assert np.allclose(c2.p_coeffs, c.p_coeffs)
    assert np.allclose(c2.q_coeffs, c.q_coeffs)
    assert abs(c2.m - c.m) < 1e-15


def test_degree1_oracle_equivalence():
    c, m = 0.5 + 0.2j, np.exp(0.7j)
    r0 = np.sqrt(1 - abs(c) ** 2)
    curve = Mo.CurveInput(np.array([0, r0 * m]), np.array([m * c]), m)
    bc = Mo.construct_degree_d(curve, m, M_RES, NR)
    bf = Mo.degree1_family(Mo.ModuliParam(c, m), M_RES, NR)
    assert np.max(np.abs(bc.chart_plus.values - bf.chart_plus.values)) < 1e-7
    assert np.max(np.abs(bc.chart_minus.values - bf.chart_minus.values)) < 1e-7
    assert np.max(np.abs(bc.boundary_minus - bf.boundary_minus)) < 1e-7
    assert np.max(np.abs(bc.pair.v_minus.rings - bf.pair.v_minus.rings)) < 1e-7
    rc = Mo.verify_folded_holomorphic(bc).as_dict()
    rf = Mo.verify_folded_holomorphic(bf).as_dict()
    for k in rc:
        assert abs(rc[k] - rf[k]) < 1e-7


def test_degree2_curve_passes():
    b = Mo.construct_degree_d(
        Mo.CurveInput(np.array([0, 0, 1.0]), np.array([0.3]), 1.0),
        1.0, M_RES, NR)
    assert b.degree == 2
    rep = Mo.verify_folded_holomorphic(b)
    assert rep.passed(1e-7), rep.as_dict()
    # fold radius satisfies rho^4 + 0.09 = 1
    assert abs(b.pair.v_plus.rho - (1 - 0.09) ** 0.25) < 1e-9


def test_degree2_energy_closed_forms():
    # derived by the Stokes route: E(u+) = 2 rho^4, E(v+-) = 2(1 - rho^4),
    # and the bookkeeping identities both equal the class pairing 2
    b = Mo.construct_degree_d(
        Mo.CurveInput(np.array([0, 0, 1.0]), np.array([0.3]), 1.0),
        1.0, 256, 96)
    rho4 = b.pair.v_plus.rho ** 4
    e = b.energies
    assert abs(e["E_u_plus"] - 2 * rho4) < 1e-8
    assert abs(e["E_v_plus"] - 2 * (1 - rho4)) < 1e-8
    assert abs(e["E_v_minus"] - e["E_v_plus"]) < 1e-8
    assert abs(e["E_u_plus"] + e["E_v_plus"] - 2.0) < 1e-8
    assert abs(e["E_u_minus"] - e["E_v_minus"] - 2.0) < 1e-8
    assert abs(e["E_u_plus"] + e["E_u_minus"] - 4.0) < 1e-8


def test_degree2_partner_agrees_with_curve_route():
    # two independent constructions of the lower tunneling map: the
    # normalization multiplier of the curve route and the transition
    # function of the partner construction
    from foldedmaps.tunneling import conjugate_partner
    b = Mo.construct_degree_d(
        Mo.CurveInput(np.array([0, 0, 1.0]), np.array([0.3]), 1.0),
        1.0, M_RES, NR)
    built = conjugate_partner(b.pair.v_plus, b.x)
    assert np.max(np.abs(built.rings - b.pair.v_minus.rings)) < 1e-9


def test_noncircular_fold_tier_violation():
    with pytest.raises(TierViolationError):
        Mo.construct_degree_d(
            Mo.CurveInput(np.array([5.0, 1.0]), np.array([0.1]), 1.0),
            1.0, 64, 24)


def test_degenerate_f_derivative_rejected():
    # constant Hopf projection (q = 0): no immersed boundary data
    with pytest.raises(NonImmersedBoundaryError):
        Mo.construct_degree_d(
            Mo.CurveInput(np.array([0, 1.0]), np.array([]), 1.0),
            1.0, 64, 24)


def test_bundle_report_schema():
    rep = Mo.bundle_report(small_family(0.4, 1.0))
    assert rep["schema"] == "folded-maps/1"
    assert rep["residuals"]["max_residual"] < 1e-8
    assert rep["boundary_operator"] is not None
    assert len(rep["boundary_operator"]["a"]) == M_RES


def test_bundle_report_reuses_verification_conjugacy():
    bundle = small_family(0.4, 1.0)
    conj = T.check_conjugate(bundle.pair)
    report = Mo.verify_folded_holomorphic(bundle)
    assert report.conjugacy == conj
    assert report.conjugacy_max == conj.max_residual()
    assert Mo.bundle_report(bundle, report)["conjugacy"] == \
        dataclasses.asdict(conj)
