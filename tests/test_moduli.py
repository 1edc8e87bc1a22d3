import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from foldedmaps import _sides
from foldedmaps import _spectral as sp
from foldedmaps import cli
from foldedmaps import harmonic as H
from foldedmaps import moduli as Mo
from foldedmaps import sphere as S
from foldedmaps import tunneling as T
from foldedmaps.config import GridDefaults
from foldedmaps.errors import (DomainError, InputError,
                               NonImmersedBoundaryError, TierViolationError,
                               VerificationError)

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


def test_family_c_bound_message_names_the_bound():
    # both samplers of the family reject |c| > 0.99 with a message that
    # names the bound and the given |c|, not another entry point
    for call in (lambda: Mo.degree1_family(Mo.ModuliParam(0.995, 1.0),
                                           M_RES, NR),
                 lambda: Mo.compactification_sample([0.5, 0.995], 1.0,
                                                    64, 16)):
        with pytest.raises(DomainError) as info:
            call()
        message = str(info.value)
        assert "0.99," in message and "0.995" in message
        assert "compactification_sample" not in message


@pytest.mark.parametrize("c", [0.3 + 0.2j, 0.7 - 0.1j, 0.95j])
def test_family_chart_energies_converge_under_refinement(c):
    # each doubling of the radial Gauss nodes cuts the error of E_u+- in
    # 1 -+ |c|^2 by at least 100x, down to a round-off plateau
    m = np.exp(0.7j)
    errors = {key: [] for key in ("E_u_plus", "E_u_minus")}
    for nr in (4, 8, 16):
        energies = Mo.degree1_family(Mo.ModuliParam(c, m), 64, nr).energies
        for key, side in (("E_u_plus", 1), ("E_u_minus", -1)):
            errors[key].append(abs(energies[key] - (1 - side * abs(c) ** 2)))
    for errs in errors.values():
        assert errs[0] > 1e-10
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= max(coarse / 100, 1e-14)
        assert errs[-1] <= 1e-14


# the default radial node count, and the four times finer reference grid
# its chart energies are pinned against
NR_DEFAULT = GridDefaults().radial_nodes
NR_FINE = 4 * NR_DEFAULT


def _relative_gap(coarse, fine):
    return max(abs(a - b) / abs(b) for a, b in zip(coarse, fine))


@pytest.mark.parametrize("c_abs", [0.0, 0.3, 0.6, 0.9, 0.99])
def test_default_radial_nodes_resolve_the_family_charts(c_abs):
    # E_u+- = 1 -+ |c|^2 to 1e-14 on the default grid, which agrees with
    # a 4x finer one to 1e-13 relative
    c, m = c_abs * np.exp(0.4j), np.exp(1.1j)
    energies = {}
    for nr in (NR_DEFAULT, NR_FINE):
        energies[nr] = [Mo._family_chart(c, m, 128, nr, side)[1]
                        for side in (1, -1)]
    for e, target in zip(energies[NR_DEFAULT], (1 - c_abs ** 2,
                                                1 + c_abs ** 2)):
        assert abs(e - target) <= 1e-14
    assert _relative_gap(energies[NR_DEFAULT], energies[NR_FINE]) <= 1e-13


def test_default_radial_nodes_resolve_the_curve_charts(monkeypatch):
    # every admissible curve (a z^d, beta z^k), a = sqrt(1 - beta^2), with
    # d <= 18, k in {0, d // 2, d - 1} and beta in {0.1, 0.6, 0.95}: its
    # E_u+- on the default grid agree with a 4x finer one to 1e-13
    # relative (4e-14 measured; 48 nodes read 1.6e-10); the immersion
    # floor rejects 6 of the 153 at d >= 15, k = 0
    fields = _capture_f_log(monkeypatch)
    m_res, worst, admissible = 64, 0.0, 0
    for d in range(1, 19):
        for k in sorted({0, d // 2, d - 1}):
            for beta in (0.1, 0.6, 0.95):
                curve = Mo.CurveInput(
                    np.r_[np.zeros(d), np.sqrt(1 - beta ** 2)],
                    np.r_[np.zeros(k), beta], 1.0)
                try:
                    bundle = Mo.construct_degree_d(curve, 1.0, m_res,
                                                   NR_DEFAULT)
                except NonImmersedBoundaryError:
                    continue
                admissible += 1
                rho = fields[-1].kind.rho
                fine = [Mo._curve_chart(
                    curve, f_log, rho, m_res, NR_FINE, side)[1]
                    for f_log, side in ((None, 1), (fields[-1], -1))]
                worst = max(worst, _relative_gap(
                    [bundle.energies["E_u_plus"],
                     bundle.energies["E_u_minus"]], fine))
    assert admissible == 147
    assert worst <= 1e-13


def test_family_c0_boundary_is_characteristic():
    b = small_family(0.0, 1.0)
    th = np.arange(M_RES) * 2 * np.pi / M_RES
    assert np.max(np.abs(b.pair.v_plus.boundary()[0] - np.exp(1j * th))) < 1e-12
    assert np.max(np.abs(b.pair.v_plus.boundary()[1])) < 1e-12


def test_family_verifies():
    for c, m in [(0.0, 1.0), (0.5 + 0.2j, np.exp(0.7j)), (0.6, 1j)]:
        rep = Mo.verify_folded_holomorphic(small_family(c, m))
        assert rep.passed(1e-8), rep.as_dict()


def test_family_boundary_unit_norm():
    b = small_family(0.6, 1j)
    norms = np.sum(np.abs(b.pair.v_plus.boundary()) ** 2, axis=0)
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


def test_puncture_energies_read_d_c_squared():
    # E_v+- = d |c|^2, read at s = e^{-u} = 0 from the ladder's polynomial
    # fit: 40 degree-1 maps, ending at |c| = 0.95..0.99 where the puncture
    # circulation converges slowest, and 120 curves (r0 m z^d, m c),
    # d = 1..5, all at M = 256 and nr = 64; three-ring Aitken on the
    # 201-ring ladder was off by up to 3.6e-11 here
    rng = np.random.default_rng(2024)

    def phase():
        return np.exp(2j * np.pi * rng.uniform())

    def v_error(bundle, target):
        e = bundle.energies
        return max(abs(e["E_v_plus"] - target), abs(e["E_v_minus"] - target))

    worst = 0.0
    for a in np.r_[rng.uniform(0.0, 0.99, 36), 0.95, 0.97, 0.98, 0.99]:
        m = phase()
        bundle = Mo.degree1_family(Mo.ModuliParam(a * phase(), m), 256, 64)
        worst = max(worst, v_error(bundle, a ** 2))
    for i in range(120):
        d, a, m = i % 5 + 1, rng.uniform(0.0, 0.9), phase()
        curve = _power_curve(d, a * phase(), m)
        bundle = Mo.construct_degree_d(curve, m, 256, 64)
        worst = max(worst, v_error(bundle, d * a ** 2))
    assert worst <= 1e-13


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
    from foldedmaps.tunneling import ConjugatePair, check_conjugate
    b = small_family(0.5, 1.0)
    naive = ConjugatePair(b.pair.v_plus, b.pair.v_plus)
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


@pytest.mark.parametrize("chart", ["chart_plus", "chart_minus"])
def test_verify_recomputes_det_omega_sign_from_charts(chart):
    b = small_family(0.45, 1.0)
    assert Mo.verify_folded_holomorphic(b).tau_sign_violation == 0.0
    # a chart value outside the unit ball puts it on the wrong side of
    # the fold, where det(omega) has the wrong sign
    getattr(b, chart).planes[:, 3, 5] = [1.5, 0.5]
    assert Mo.verify_folded_holomorphic(b).tau_sign_violation > 0.0


@pytest.mark.parametrize("tamper", ["none", "outside", "equator", "nan"])
@pytest.mark.parametrize("chart,side", [("chart_plus", 1),
                                        ("chart_minus", -1)])
def test_sign_violation_blocks_match_whole_chart_formula(chart, side, tamper):
    # M = 1024: the 40 rings are swept in blocks of 16, 16 and 8; one sample
    # of the last block is put outside the ball, on the equator, or NaN
    grid = getattr(Mo.degree1_family(Mo.ModuliParam(0.45, 1.0), 1024, 40),
                   chart)
    if tamper != "none":
        grid.planes[:, 35, 5] = {"outside": [1.5, 0.5], "equator": [1.0, 0.0],
                                 "nan": [np.nan, 0.0]}[tamper]
    tau = Mo.det_omega_closed_form(side * Mo._x0(grid.planes))
    whole = float(np.maximum(-np.min(side * tau), 0.0))
    got = grid.sign_violation(side)
    assert np.float64(got).tobytes() == np.float64(whole).tobytes()
    assert (got > 0.0) == (tamper == "outside")


def _heap_above_bundle(build):
    """A build at M = 2048 and the tracemalloc peak of it and its
    verification above the bundle it leaves, after a warm-up at 64."""
    import tracemalloc
    Mo.verify_folded_holomorphic(build(64))
    tracemalloc.start()
    try:
        bundle = build(2048)
        live = tracemalloc.get_traced_memory()[0]
        Mo.verify_folded_holomorphic(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return bundle, peak - live


def test_build_and_verify_heap_stays_within_one_sample():
    # every ladder and chart temporary is one ring block: at M = 2048 the
    # heap peak of a build and its verification sits less than one
    # sample's planes (7.9 MB) above the bundle they leave
    param = Mo.ModuliParam(0.3 + 0.2j, 0.6 + 0.8j)
    bundle, above = _heap_above_bundle(
        lambda m_res: Mo.degree1_family(param, m_res))
    assert above < bundle.pair.v_plus.planes.nbytes, above


def test_degree_d_build_and_verify_heap_stays_within_one_sample():
    # both tunneling maps and both charts of a construction are built one
    # ring block at a time: at M = 2048 the peak sits 2.7 MB above the
    # bundle in 34 of 40 builds and 5.2-5.8 MB in the rest, less than one
    # sample's 7.9 MB of planes (full-ladder temporaries reached 15.5 MB,
    # full-grid chart d/dr planes 10.3 MB)
    curve = _power_curve(2, 0.3 + 0.2j, 0.6 + 0.8j)
    bundle, above = _heap_above_bundle(
        lambda m_res: Mo.construct_degree_d(curve, curve.m, m_res))
    assert above < bundle.pair.v_plus.planes.nbytes, above


@pytest.mark.parametrize("side", [1, -1], ids=["upper", "lower"])
@pytest.mark.parametrize("construction", ["degree1", "degree-d"])
def test_chart_build_heap_stays_within_one_plane_pair(construction, side):
    # a chart is sampled and integrated one ring block at a time: at
    # M = 2048 and 64 radial nodes each chart peaks 0.9-3.1 MB above the
    # grid it returns, below one (2, nr, M) plane pair (4.19 MB); full-grid
    # d/dr planes took it to 5.3-10.5 MB
    import tracemalloc
    m_res, nr = 2048, 64
    curve, rho, f_log = _varying_multiplier(m_res)

    def build():
        if construction == "degree1":
            return Mo._family_chart(0.3 + 0.2j, 0.6 + 0.8j, m_res, nr, side)
        return Mo._curve_chart(curve, f_log if side < 0 else None, rho,
                               m_res, nr, side)

    build()
    tracemalloc.start()
    try:
        chart, _ = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - chart.planes.nbytes < chart.planes.nbytes, peak


def test_verification_report_keeps_nan():
    # Python's max drops a NaN that follows a float; the report must not
    nan_conj = T.ConjugacyReport(1e-12, np.nan, 0.0, 0.0, 0.0)
    conj = T.ConjugacyReport(1e-12, 0.0, 0.0, 0.0, 0.0)
    for holo_minus, c in ((np.nan, conj), (1e-12, nan_conj),
                          (np.nan, nan_conj)):
        rep = Mo.VerificationReport(1e-12, holo_minus, 0.0, 0.0, 1e-13,
                                    1e-13, c)
        assert np.isnan(rep.as_dict()["max_residual"])
        assert not rep.passed()
    rep = Mo.VerificationReport(1e-12, 2e-12, 0.0, 0.0, 1e-13, 1e-13, conj)
    assert rep.max_residual() == 2e-12 and rep.passed()


@pytest.mark.parametrize("chart", ["chart_plus", "chart_minus"])
@pytest.mark.parametrize("nan_samples", ["all", "one"])
def test_nan_chart_fails_verification(chart, nan_samples):
    b = small_family(0.45, 1.0)
    grid = getattr(b, chart)
    if nan_samples == "all":
        grid.planes = np.full_like(grid.planes, np.nan)
    else:
        grid.planes[:, 30, 5] = np.nan
    assert np.isnan(grid.holomorphy_residual())
    assert np.isnan(grid.sign_violation(1 if chart == "chart_plus" else -1))
    rep = Mo.verify_folded_holomorphic(b)
    assert np.isnan(rep.tau_sign_violation)
    assert np.isnan(rep.max_residual()) and not rep.passed()


def test_nan_multiplier_fails_the_lower_ball_test():
    curve, rho, f_log = _varying_multiplier(M_RES)
    coeffs = f_log.coeffs.copy()
    coeffs[0] = np.nan
    nan_log = H.LaurentField(f_log.kind, coeffs, f_log.puncture_pole_order)
    with pytest.raises(VerificationError, match="lower domain"):
        Mo._curve_chart(curve, nan_log, rho, M_RES, NR, -1)


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


def test_degree1_oracle_equivalence():
    c, m = 0.5 + 0.2j, np.exp(0.7j)
    r0 = np.sqrt(1 - abs(c) ** 2)
    curve = Mo.CurveInput(np.array([0, r0 * m]), np.array([m * c]), m)
    bc = Mo.construct_degree_d(curve, m, M_RES, NR)
    bf = Mo.degree1_family(Mo.ModuliParam(c, m), M_RES, NR)
    assert np.max(np.abs(bc.chart_plus.planes - bf.chart_plus.planes)) < 1e-7
    assert np.max(np.abs(bc.chart_minus.planes - bf.chart_minus.planes)) < 1e-7
    assert np.max(np.abs(bc.boundary_minus - bf.boundary_minus)) < 1e-7
    assert np.max(np.abs(bc.pair.v_minus.rings - bf.pair.v_minus.rings)) < 1e-7
    rc = Mo.verify_folded_holomorphic(bc).as_dict()
    rf = Mo.verify_folded_holomorphic(bf).as_dict()
    for k in rc:
        assert abs(rc[k] - rf[k]) < 1e-7


def test_samples_are_normalized_planes():
    # the degree-1 ladders are unit planes within 4 ulp of the closed form
    # w / |w|, evaluated in extended precision at the exact angles
    # 2 pi k / M; the curve's ladder keeps the planes it normalized, equal
    # bit for bit to dividing the values by their norm
    eps = np.finfo(float).eps
    # where long double is double, the reference carries its own round-off
    tol = 4 * eps + 64 * np.finfo(np.longdouble).eps
    c, m, m_res = 0.45 + 0.3j, np.exp(0.7j), 64
    theta = 2 * np.arccos(np.longdouble(-1)) * np.arange(m_res) / m_res
    for side in (1, -1):
        v = Mo._family_ladder(c, m, m_res, side, T.default_ladder())
        assert np.shares_memory(v.planes, v.rings)
        z = (np.longdouble(v.rho) * np.exp(v.ladder.u.astype(np.longdouble))
             )[:, None] * np.exp(1j * theta)[None, :]
        mm, cc = np.clongdouble(m), np.clongdouble(c)
        w = (np.stack([mm * z, np.full_like(z, mm * cc)])
             if side > 0 else np.stack([mm / z, mm * cc / z ** 2]))
        expected = w / np.sqrt(np.sum(np.abs(w) ** 2, axis=0))
        assert float(np.max(np.abs(v.planes - expected))) <= tol
        norms = np.linalg.norm(v.planes, axis=0)
        assert float(np.max(np.abs(norms - 1.0))) <= 4 * eps
    ladder = T.default_ladder()
    z = 0.8 * np.exp(ladder.u)[:, None] * np.exp(1j * sp.angles(64))[None, :]
    curve = Mo.CurveInput(np.array([0.1, 0.0, 0.9 * m]), np.array([m * c]), m)
    vals = Mo._unit(curve.eval(z))
    w = curve.eval(z)
    expected = w / np.linalg.norm(w, axis=0)
    assert vals.tobytes() == expected.tobytes()
    v = T.TunnelMapSample(0.8, ladder, vals, S.CharacteristicParam(m), 1)
    assert np.shares_memory(v.planes, vals)


def _report_text(build):
    return cli.format_json(Mo.bundle_report(build()))


def _check_concurrent_callers(m_res, nr, rounds):
    # three callers share the one side thread; every report must equal the
    # one computed with both sides inline on a single thread
    c, m = 0.4 + 0.1j, np.exp(0.3j)
    r0 = np.sqrt(1 - abs(c) ** 2)
    curve = Mo.CurveInput(np.array([0, 0, 0, r0 * m]), np.array([m * c]), m)
    builds = [lambda: Mo.degree1_family(Mo.ModuliParam(c, m), m_res, nr),
              lambda: Mo.construct_degree_d(curve, m, m_res, nr)]
    # a call made on the side thread runs both of its sides inline
    expected = [_sides._pool.submit(_report_text, b).result(timeout=60)
                for b in builds]
    failures = []

    def caller(k):
        for j in range(rounds):
            n = (k + j) % len(builds)
            try:
                if _report_text(builds[n]) != expected[n]:
                    failures.append((k, n))
            except Exception as exc:    # reported through the assert below
                failures.append((k, n, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,))
                   for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_concurrent_callers_match_one_thread():
    _check_concurrent_callers(M_RES, NR, 4)


def test_concurrent_callers_match_one_thread_multi_block():
    # M = 1024: the chart passes take blocks of 16 of the 40 rings, the
    # ladder passes blocks of 16 of the 121 rings
    _check_concurrent_callers(1024, 40, 2)


def test_each_op_makes_one_both_call_per_phase(monkeypatch, tmp_path):
    # construction, chart checks and conjugacy check: one call each; a
    # degree-d construction has two phases, v_+ beside the upper chart
    # and then the lower chart beside v_-
    calls = []

    def counted(f, plus, minus):
        calls.append(f)
        return _sides.both(f, plus, minus)

    monkeypatch.setattr(Mo, "both", counted)
    monkeypatch.setattr(T, "both", counted)
    out = str(tmp_path / "r.json")
    assert cli.main(["degree1", "--c", "0.3", "--resolution", "64",
                     "--out", out]) == cli.EXIT_PASS
    assert len(calls) == 3
    calls.clear()
    c, m = 0.4 + 0.1j, np.exp(0.3j)
    r0 = np.sqrt(1 - abs(c) ** 2)
    curve = Mo.CurveInput(np.array([0, 0, 0, r0 * m]), np.array([m * c]), m)
    Mo.verify_folded_holomorphic(Mo.construct_degree_d(curve, m, M_RES, NR))
    assert len(calls) == 4


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


def _direct_sum_v_minus(curve, bundle):
    # the lower tunneling map through a direct Laurent sum of the
    # normalization function on the complex ladder points
    vp, x, d = bundle.pair.v_plus, bundle.x, bundle.degree
    rho = vp.rho
    dv = T.derived_fields(vp)
    data = -dv.alpha_u[0]
    data = data - np.mean(data)
    if np.max(np.abs(data)) < 1e-9 * max(np.max(np.abs(dv.alpha_t[0])), 1e-3):
        data = np.zeros_like(data)
    marker = x.point(-2.0 * T.puncture_parameters(vp, n_dirs=1)[0])
    f_log = H.solve_f_degree_d(H.BoundaryLoopSamples(data, rho), marker, x, d)

    def multiplier_at(z):
        vals = np.zeros_like(z, dtype=complex)
        for k, cn in zip(sp.modes(f_log.m), f_log.coeffs):
            if k <= 0 and abs(cn) > 1e-300:
                vals = vals + cn * (rho / z) ** (-k)
        return np.exp(vals) * (z / rho) ** f_log.puncture_pole_order

    def v_minus_fn(z):
        fw = multiplier_at(z) * curve.eval(z)
        return fw / np.linalg.norm(fw, axis=0)

    return T.sample_tunnel_map(v_minus_fn, rho, vp.m, x, -d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_v_minus_matches_direct_laurent_sum(d):
    m = np.exp(0.9j * d)
    c = 0.4 * np.exp(1.3j * d)
    curve = Mo.CurveInput(np.r_[np.zeros(d), np.sqrt(1 - abs(c) ** 2) * m],
                          np.array([m * c]), m)
    bundle = Mo.construct_degree_d(curve, m, M_RES, NR)
    direct = _direct_sum_v_minus(curve, bundle)
    assert np.max(np.abs(bundle.pair.v_minus.rings - direct.rings)) < 1e-13


def _capture_f_log(monkeypatch):
    # the normalization fields solved by the constructions that follow
    fields = []
    solve = Mo.solve_f_degree_d
    monkeypatch.setattr(Mo, "solve_f_degree_d",
                        lambda *args: fields.append(solve(*args))
                        or fields[-1])
    return fields


@pytest.mark.parametrize("m_res", [128, 256])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_degree_d_chart_energies_and_values(d, m_res, monkeypatch):
    m = np.exp(0.9j * d)
    c = 0.4 * np.exp(1.3j * d)
    curve = Mo.CurveInput(np.r_[np.zeros(d), np.sqrt(1 - abs(c) ** 2) * m],
                          np.array([m * c]), m)
    fields = _capture_f_log(monkeypatch)
    bundle = Mo.construct_degree_d(curve, m, m_res)
    f_log, = fields
    rho, nr = f_log.kind.rho, len(bundle.chart_plus.radii)
    th = sp.angles(m_res)
    for chart, key in ((bundle.chart_plus, "E_u_plus"),
                       (bundle.chart_minus, "E_u_minus")):
        assert chart.planes.flags.c_contiguous
        # the energy from exact d/dr against the barycentric reference
        ref = S.omega_energy(chart.planes, chart.radii, chart.weights)
        assert abs(bundle.energies[key] - ref) <= 1e-12 * abs(ref)
    # the chart values of the construction before it took exact d/dr
    radii, _ = S.gauss_legendre_radial(nr)
    z_plus = rho * radii[:, None] * np.exp(1j * th)[None, :]
    assert bundle.chart_plus.planes.tobytes() == \
        curve.eval(z_plus).tobytes()
    zr = 1.0 / (radii / rho)
    y_minus = (f_log.multiplier_samples(zr)
               * curve.eval(zr[:, None] * np.exp(1j * th)[None, :])
               )[..., (-np.arange(m_res)) % m_res]
    assert bundle.chart_minus.planes.tobytes() == y_minus.tobytes()


def _varying_multiplier(m_res):
    """A degree-2 curve, its fold radius and a log-scale field F with
    modes -1 and -2; Re F < 0 on the fold keeps |f w| below 1."""
    m = np.exp(0.9j)
    curve = Mo.CurveInput(np.array([0, 0, np.sqrt(0.84) * m]),
                          np.array([0.4 * m]), m)
    rho = Mo.find_circular_fold(curve)
    n = sp.modes(m_res)
    coeffs = np.zeros(m_res, complex)
    coeffs[0] = -0.05 + 0.3j
    coeffs[n == -1] = 0.02
    coeffs[n == -2] = 0.01j
    return curve, rho, H.LaurentField(H.ExteriorPunctured(rho), coeffs, -4)


def test_lower_chart_derivative_follows_a_varying_multiplier():
    # the curves tried give a nearly constant normalization field (its
    # non-constant modes at most 1e-9), so the lower chart's d/dr term in
    # dF/dr is checked on a field with modes -1 and -2
    curve, rho, f_log = _varying_multiplier(M_RES)
    chart, energy = Mo._curve_chart(curve, f_log, rho, M_RES, NR, -1)
    ref = S.omega_energy(chart.planes, chart.radii, chart.weights)
    assert abs(energy - ref) <= 1e-12 * abs(ref)


def _lower_planes_one_pass(curve, f_log, rho, m_res, nr):
    # radii, weights, values and exact d/dr planes of the lower chart of
    # `_curve_chart`, with every ring in one pass
    radii, weights = S.gauss_legendre_radial(nr)
    ph = np.exp(1j * sp.angles(m_res))[None, :]
    zeta_r = radii / rho
    zr = 1.0 / zeta_r
    z = zr[:, None] * ph
    f = f_log.multiplier_samples(zr)
    df = f * (f_log.radial_derivative(zr)
              + f_log.puncture_pole_order / zr[:, None])
    flip = (-np.arange(m_res)) % m_res
    y = np.empty((2, nr, m_res), complex)
    dy = np.empty_like(y)
    for k, (w, dw) in enumerate(zip(curve.eval(z), curve.derivative(z))):
        y[k] = (f * w)[:, flip]
        dy[k] = (df * w + f * (ph * dw))[:, flip]
    dy *= -(zr ** 2)[:, None]
    return zeta_r, weights / rho, y, dy


@pytest.mark.parametrize("m_res", [64, 256, 1024])
def test_lower_chart_blocks_match_one_pass(m_res):
    # one block of the NR = 48 rings at M = 64 and 256, three at M = 1024;
    # the energy integrates the one-pass planes in one pass too
    curve, rho, f_log = _varying_multiplier(m_res)
    assert (len(S.ring_blocks(NR, m_res)) > 1) == (m_res == 1024)
    chart, energy = Mo._curve_chart(curve, f_log, rho, m_res, NR, -1)
    radii, weights, y, dy = _lower_planes_one_pass(curve, f_log, rho, m_res,
                                                   NR)
    for a, b in ((chart.radii, radii), (chart.weights, weights),
                 (chart.planes, y)):
        assert a.tobytes() == b.tobytes()
    sums = S.chart_ring_sums(y, dy)
    expected = float(np.dot(weights, sums * radii)) * (8.0 / m_res)
    assert np.float64(energy).tobytes() == np.float64(expected).tobytes()


def _inline(f, plus, minus):
    return f(plus), f(minus)


def _power_curve(degree, c=0.35 + 0.25j, m=np.exp(0.9j)):
    r0 = np.sqrt(1 - abs(c) ** 2)
    return Mo.CurveInput(np.r_[np.zeros(degree), r0 * m], np.array([m * c]),
                         m)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_degree_d_phases_match_an_inline_run(degree, monkeypatch):
    # the two phases of the construction share one side thread; with both
    # halves of every phase run inline on the caller, every sampled plane,
    # energy and report byte is the same
    curve = _power_curve(degree)
    pooled = Mo.construct_degree_d(curve, curve.m, M_RES, NR)
    pooled_text = _report_text(lambda: pooled)
    monkeypatch.setattr(Mo, "both", _inline)
    inline = Mo.construct_degree_d(curve, curve.m, M_RES, NR)
    for a, b in ((pooled.chart_plus, inline.chart_plus),
                 (pooled.chart_minus, inline.chart_minus),
                 (pooled.pair.v_plus, inline.pair.v_plus),
                 (pooled.pair.v_minus, inline.pair.v_minus)):
        assert a.planes.tobytes() == b.planes.tobytes()
    assert pooled.energies == inline.energies
    assert _report_text(lambda: inline) == pooled_text


@pytest.mark.parametrize("schedule", ["pooled", "inline"])
def test_degree_d_failures_keep_their_exit_codes(schedule, tmp_path,
                                                 monkeypatch, capsys):
    if schedule == "inline":
        monkeypatch.setattr(Mo, "both", _inline)
    path = tmp_path / "curve.json"

    def exit_code(p, q):
        path.write_text(json.dumps({"p": [[v, 0.0] for v in p],
                                    "q": [[v, 0.0] for v in q],
                                    "m": [1.0, 0.0]}))
        return cli.main(["degree-d", "--curve", str(path), "--resolution",
                         "64", "--out", str(tmp_path / "r.json")])

    # a fold that is not a circle, a curve whose Hopf projection is
    # constant, and a multiplier twice too large for the lower ball
    assert exit_code([5.0, 1.0], [0.1]) == cli.EXIT_TIER
    assert exit_code([0.0, 1.0], []) == cli.EXIT_INPUT
    samples = H.LaurentField.multiplier_samples
    monkeypatch.setattr(H.LaurentField, "multiplier_samples",
                        lambda self, r=None: 2.0 * samples(self, r))
    assert exit_code([0.0, 0.0, 0.8], [0.6]) == cli.EXIT_VERIFY
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        "tier violation", "input error", "verification error"]
    assert "degenerates near the fold" in err[1]
    assert "exceeds 1 on the lower domain" in err[2]
    assert not (tmp_path / "r.json").exists()


def test_constructions_make_no_barycentric_energy_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("chart energies take exact radial derivatives")

    monkeypatch.setattr(S, "omega_energy", forbidden)
    monkeypatch.setattr(S, "_barycentric_diff_matrix", forbidden)
    b1 = small_family(0.3 + 0.2j, np.exp(0.5j))
    assert abs(b1.energies["E_u_plus"] - (1 - abs(0.3 + 0.2j) ** 2)) < 1e-12
    curve = Mo.CurveInput(np.array([0, 0, 0.8]), np.array([0.6]), 1.0)
    bd = Mo.construct_degree_d(curve, 1.0, M_RES, NR)
    assert Mo.verify_folded_holomorphic(bd).passed()


def _reference_fold_radius(curve, m_probe=512):
    # a 200-step bisection on the sampled mean of |w|
    th = 2 * np.pi * np.arange(m_probe) / m_probe

    def mean_mod(rho):
        return float(np.mean(np.linalg.norm(
            curve.eval(rho * np.exp(1j * th)), axis=0))) - 1.0

    lo, hi = 1e-6, 1.0
    while mean_mod(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_mod(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_find_circular_fold_matches_full_bisection(d):
    m = np.exp(0.3j * d)
    for r0, c in [(1.0, 0.3), (0.7, 0.5j), (2.5, 0.0)]:
        curve = Mo.CurveInput(np.r_[np.zeros(d), r0 * m], np.array([m * c]), m)
        rho, ref = Mo.find_circular_fold(curve), _reference_fold_radius(curve)
        assert abs(rho - ref) <= 8 * np.spacing(ref)


def _mean_square(curve, s):
    # P(s), the circle mean of |w|^2 at radius sqrt(s), by Parseval
    return sum(abs(c) ** 2 * s ** k
               for coeffs in (curve.p_coeffs, curve.q_coeffs)
               for k, c in enumerate(coeffs))


@pytest.mark.parametrize("p, q", [
    *[(np.r_[np.zeros(d), 0.9 * np.exp(0.9j)], [0.35 + 0.25j])
      for d in range(1, 6)],
    ([0, 0.866], [0.5]),                  # the README curve
    ([0, 0.5, 1e-100], [0.1]),            # a negligible top term
    ([0, 0.1], [0.995]),                  # |w(0)| just below 1
])
def test_fold_radius_solves_the_mean_square_equation(p, q):
    curve = Mo.CurveInput(np.array(p, complex), np.array(q, complex), 1.0)
    rho = Mo.find_circular_fold(curve)
    # rounding rho to a double moves P(rho^2) ~ rho^(2d) by up to d ulp
    ulps = 2 * curve.degree + 2
    assert abs(_mean_square(curve, rho * rho) - 1.0) \
        <= ulps * np.spacing(1.0)


def test_find_circular_fold_evaluates_the_curve_once(monkeypatch):
    calls = []
    evaluate = Mo.CurveInput.eval
    monkeypatch.setattr(Mo.CurveInput, "eval",
                        lambda self, z: calls.append(z.shape)
                        or evaluate(self, z))
    Mo.find_circular_fold(Mo.CurveInput(np.array([0, 0, 0.8]),
                                        np.array([0.6]), 1.0))
    assert calls == [(512,)]


@pytest.mark.parametrize("p, q, message", [
    ([0.3, 1.0], [0.2], "not a circle"),            # |w(0)| < 1
    ([0, 1e-7], [1e-8], "never reaches 1"),         # rho = 1e7
    ([0, 1e7], [1e-8], "exceeds 1 everywhere"),     # rho = 1e-7
    ([1.0, 1.0], [0.0], "exceeds 1 everywhere"),    # |w(0)| = 1
])
def test_fold_outside_tier_1_is_a_tier_violation(p, q, message):
    curve = Mo.CurveInput(np.array(p, complex), np.array(q, complex), 1.0)
    with pytest.raises(TierViolationError, match=message):
        Mo.find_circular_fold(curve)


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
    assert rep["schema"] == "folded-maps/2"
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
