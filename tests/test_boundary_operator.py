import json
from dataclasses import replace

import numpy as np
import pytest

from foldedmaps import _spectral as sp
from foldedmaps import boundary_operator as B
from foldedmaps import cli
from foldedmaps import moduli as Mo
from foldedmaps.config import CONFIG
from foldedmaps.errors import DomainError
from foldedmaps.tunneling import derived_fields

RNG = np.random.default_rng(2718)
M_RES, NR = 128, 48
TH = sp.angles(M_RES)


def family_bundle(c=0.5 + 0.2j, m=np.exp(0.7j)):
    return Mo.degree1_family(Mo.ModuliParam(c, m), M_RES, NR)


BUNDLE = family_bundle()
BOP = B.boperator_data_from_bundle(BUNDLE)


def section(xi_f=None, xi_k=None, xi_l=None):
    z = np.zeros(M_RES)
    return B.BoundarySectionEF(
        z.astype(complex) if xi_f is None else xi_f,
        z if xi_k is None else xi_k,
        z if xi_l is None else xi_l)


# ---------------------------------------------------------------------------
# the transmission operator


def test_b_sends_reeb_to_minus_reeb():
    for a in (0.3, 1.0, 4.7):
        handle = B.build_B(B.synthetic_boperator_data(M_RES, a=a))
        out = handle.apply(section(xi_l=np.ones(M_RES)))
        assert np.max(np.abs(out.xi_f)) < 1e-12
        assert np.max(np.abs(out.xi_k)) < 1e-12
        assert np.max(np.abs(out.xi_l + 1.0)) < 1e-12


def test_b_fixes_transverse_direction_at_unit_gap():
    handle = B.build_B(B.synthetic_boperator_data(M_RES, a=1.0))
    out = handle.apply(section(xi_k=np.ones(M_RES)))
    assert np.max(np.abs(out.xi_k - 1.0)) < 1e-12
    assert np.max(np.abs(out.xi_l)) < 1e-12


def test_b_gauge_identity_on_family():
    # the derivative of the map along the fold is sent to the derivative
    # of the opposite map: both sides evaluated from the closed forms
    dp = derived_fields(BUNDLE.pair.v_plus)
    dm = derived_fields(BUNDLE.pair.v_minus)
    xi = section(xi_f=dp.chi_sigma.copy(), xi_l=dp.alpha_t[0].copy())
    out = B.build_B(BOP).apply(xi)
    assert np.max(np.abs(out.xi_f - dm.chi_sigma)) < 1e-7
    assert np.max(np.abs(out.xi_k)) < 1e-7
    assert np.max(np.abs(out.xi_l - dm.alpha_t[0])) < 1e-7


def test_b_linearity():
    handle = B.build_B(BOP)
    rng = np.random.default_rng(11)

    def random_section():
        return section(
            xi_f=rng.normal(size=M_RES) + 1j * rng.normal(size=M_RES),
            xi_k=rng.normal(size=M_RES), xi_l=rng.normal(size=M_RES))

    for _ in range(5):
        s1, s2 = random_section(), random_section()
        a, b = rng.normal(), rng.normal()
        comb = section(xi_f=a * s1.xi_f + b * s2.xi_f,
                       xi_k=a * s1.xi_k + b * s2.xi_k,
                       xi_l=a * s1.xi_l + b * s2.xi_l)
        o1, o2, oc = handle.apply(s1), handle.apply(s2), handle.apply(comb)
        assert np.max(np.abs(oc.xi_f - a * o1.xi_f - b * o2.xi_f)) < 1e-10
        assert np.max(np.abs(oc.xi_k - a * o1.xi_k - b * o2.xi_k)) < 1e-10
        assert np.max(np.abs(oc.xi_l - a * o1.xi_l - b * o2.xi_l)) < 1e-10


def test_gap_data_positive_and_constant_for_family():
    c = 0.5 + 0.2j
    expect = (1 + abs(c) ** 2) / (1 - abs(c) ** 2)
    assert np.max(np.abs(BOP.a_samples - expect)) < 1e-10
    assert np.min(np.abs(BOP.af_samples)) > 0.99


# ---------------------------------------------------------------------------
# graph consistency


def test_graph_check_reeb_section():
    r = B.graph_check_dDeltaZ(section(xi_l=np.ones(M_RES)), BOP)
    assert r < 1e-9


def test_graph_check_zero_section():
    assert B.graph_check_dDeltaZ(section(), BOP) == 0.0


def test_graph_check_single_modes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(-8, 9))
        ph = np.exp(2j * np.pi * rng.uniform())
        xi = section(xi_f=ph * np.exp(1j * k * TH),
                     xi_l=rng.normal() * np.cos(k * TH))
        assert B.graph_check_dDeltaZ(xi, BOP) < 1e-7


def test_graph_check_rejects_transverse_sections():
    with pytest.raises(DomainError):
        B.graph_check_dDeltaZ(section(xi_k=np.ones(M_RES)), BOP)


# ---------------------------------------------------------------------------
# principal symbol and ellipticity


def test_symbol_unit_data():
    sym = B.principal_symbol_B(1.0, 1.0, 0.0, 0.0)
    up, _ = B._RANGE_P[+1]
    # unit entries on the projected subspace
    for w in up:
        assert abs(np.linalg.norm(sym.b_plus @ w) - 1.0) < 1e-12


def test_symbol_pure_transverse_input_scales_with_gap():
    for a in (0.5, 1.0, 3.3):
        sym = B.principal_symbol_B(a, np.exp(0.4j), 0.7, -0.2)
        up, _ = B._RANGE_P[+1]
        assert abs(np.linalg.norm(sym.b_plus @ up[1]) - a) < 1e-12


def test_symbol_f_independence():
    base = B.principal_symbol_B(1.7, np.exp(0.3j), 0.0, 0.0)
    for fc, fj in [(10.0, 0.0), (0.0, 10.0), (3.0, -7.0)]:
        other = B.principal_symbol_B(1.7, np.exp(0.3j), fc, fj)
        for nu, b0, b1 in ((+1, base.b_plus, other.b_plus),
                           (-1, base.b_minus, other.b_minus)):
            up, _ = B._RANGE_P[nu]
            for w in up:
                assert np.max(np.abs((b0 - b1) @ w)) < 1e-12


def symbol_by_products(a, af, f_chi, f_jchi, nu):
    """The boundary symbol multiplied out from its frame blocks."""
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    z2 = np.zeros((2, 2))
    a_full = np.block([[np.array([[af.real, -af.imag], [af.imag, af.real]]), z2],
                       [z2, np.diag([1.0, -1.0])]]).astype(complex)
    f_c = np.zeros((4, 4), dtype=complex)
    f_c[2:, :2] = np.array([[f_chi, f_jchi], [-f_jchi, f_chi]])
    proj_f = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    proj_e = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    j4 = np.block([[rot, z2], [z2, -rot]]).astype(complex)
    pi_k = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
    c_nu = -(np.eye(4) - nu * 1j * j4) @ pi_k @ a_full
    return a_full @ (np.eye(4) - f_c @ proj_f) \
        + c_nu @ ((1.0 - a) * proj_e - f_c @ proj_f)


def test_symbol_closed_form_matches_block_products():
    for _ in range(50):
        a, f_chi, f_jchi = RNG.uniform(0.05, 4.0), RNG.normal(), RNG.normal()
        af = complex(RNG.uniform(0.3, 3.0) * np.exp(1j * RNG.uniform(0, 7)))
        sym = B.principal_symbol_B(a, af, f_chi, f_jchi)
        for nu, b in ((+1, sym.b_plus), (-1, sym.b_minus)):
            ref = symbol_by_products(a, af, f_chi, f_jchi, nu)
            assert b.tobytes() == ref.tobytes()


def test_ellipticity_matches_per_sample_symbol():
    m = 64
    data = B.BOperatorData(
        1.0, RNG.uniform(0.05, 4.0, m),
        RNG.uniform(0.3, 3.0, m) * np.exp(1j * RNG.uniform(0, 2 * np.pi, m)),
        RNG.normal(0.0, 3.0, m), RNG.normal(0.0, 3.0, m))
    expected = np.empty(m)
    for k in range(m):
        sym = B.principal_symbol_B(data.a_samples[k], data.af_samples[k],
                                   data.f_chi[k], data.f_jchi[k])
        vals = []
        for nu, b in ((+1, sym.b_plus), (-1, sym.b_minus)):
            up, low = B._RANGE_P[nu]
            mat = np.stack([-b @ w for w in up] + list(low), axis=1)
            vals.append(np.linalg.svd(mat, compute_uv=False)[-1])
        expected[k] = min(vals)
    rep = B.check_ellipticity(data)
    assert rep.per_sample.tobytes() == expected.tobytes()
    assert rep.sigma_min == expected.min()


def random_operator_data(m, rng):
    return B.BOperatorData(
        1.0, rng.uniform(0.05, 4.0, m),
        rng.uniform(0.3, 3.0, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m)),
        rng.normal(0.0, 3.0, m), rng.normal(0.0, 3.0, m))


def restricted_symbols(data, nu):
    """The symbol at covector sign nu on the Calderon range, (M, 4, 4)."""
    neg_b = -B._symbol_stack(data.a_samples, data.af_samples, data.f_chi,
                             data.f_jchi, nu)
    upper, lower = B._RANGE_P[nu]
    cols = [neg_b @ w for w in upper] \
        + [np.broadcast_to(w, neg_b.shape[:-1]) for w in lower]
    return np.stack(cols, axis=-1)


def conj_bits(x):
    # conj flips the sign of zero imaginary parts; + 0.0 makes every zero +0
    return (np.conj(x) + 0.0).tobytes()


def test_minus_covector_sign_is_the_conjugate():
    rng = np.random.default_rng(31)
    for _ in range(30):
        data = random_operator_data(64, rng)
        args = (data.a_samples, data.af_samples, data.f_chi, data.f_jchi)
        plus, minus = B._symbol_stack(*args, +1), B._symbol_stack(*args, -1)
        assert (minus + 0.0).tobytes() == conj_bits(plus)
        x_plus = restricted_symbols(data, +1)
        x_minus = restricted_symbols(data, -1)
        assert (x_minus + 0.0).tobytes() == conj_bits(x_plus)
        sv_plus = np.linalg.svd(x_plus, compute_uv=False)
        sv_minus = np.linalg.svd(x_minus, compute_uv=False)
        assert sv_minus.tobytes() == sv_plus.tobytes()
    for w_plus, w_minus in zip(sum(B._RANGE_P[+1], ()),
                               sum(B._RANGE_P[-1], ())):
        assert (w_minus + 0.0).tobytes() == conj_bits(w_plus)


def ellipticity_two_svd(data):
    """(sigma_min, argmin, per-sample minima) from one SVD per sign."""
    mins = np.minimum(*(np.linalg.svd(restricted_symbols(data, nu),
                                      compute_uv=False)[:, -1]
                        for nu in (+1, -1)))
    smin = float(mins.min())
    ties = np.flatnonzero(mins <= smin + B._ARGMIN_TIE_RTOL * abs(smin))
    return smin, int(ties[0]), mins


def tampered_report_data():
    bundle = degree_curve_bundle(3)
    data = B.boperator_data_from_bundle(bundle)
    report = serialized_report(bundle, data,
                               B.boundary_condition_loops(bundle))
    op = report["boundary_operator"]
    op["a"][13] = 1e-3
    op["AF_re"][40] *= 3.0
    op["f_chi"][7] = -25.0
    cert = B.certificate_from_report(report)
    arrays = {k: np.array(op[k]) for k in B._OPERATOR_KEYS}
    return B.BOperatorData(op["sigma_radius"], arrays["a"],
                           arrays["AF_re"] + 1j * arrays["AF_im"],
                           arrays["f_chi"], arrays["f_jchi"]), cert


@pytest.mark.parametrize("make", [
    lambda: (BOP, None),
    lambda: (B.boperator_data_from_bundle(degree_curve_bundle(3)), None),
    tampered_report_data,
], ids=["degree1", "degree3", "tampered"])
def test_ellipticity_matches_two_svd_reference(make):
    data, cert = make()
    smin, arg, mins = ellipticity_two_svd(data)
    rep = B.check_ellipticity(data)
    assert rep.sigma_min == smin
    assert rep.argmin_sample == arg
    assert rep.per_sample.tobytes() == mins.tobytes()
    if cert is not None:
        assert (cert["sigmaMin"], cert["argminSample"]) == (smin, arg)
        assert arg == 13


@pytest.mark.parametrize("bad", ["a", "af"])
def test_operator_data_rejects_nan_samples(bad):
    a, af = np.ones(64), np.ones(64, complex)
    (a if bad == "a" else af)[9] = np.nan
    with pytest.raises(DomainError):
        B.BOperatorData(1.0, a, af, np.zeros(64), np.zeros(64))


@pytest.mark.parametrize("bad", ["f_chi", "f_jchi"])
def test_operator_data_rejects_nan_f(bad):
    # NaN f would reach the SVD of check_ellipticity, which does not converge
    f_chi, f_jchi = np.zeros(64), np.zeros(64)
    (f_chi if bad == "f_chi" else f_jchi)[9] = np.nan
    with pytest.raises(DomainError):
        B.BOperatorData(1.0, np.ones(64), np.ones(64, complex), f_chi, f_jchi)


def test_ellipticity_trivial_frames():
    rep = B.check_ellipticity(B.synthetic_boperator_data(64, a=1.0))
    assert rep.passed
    assert abs(rep.sigma_min - 1.0) < 1e-10


def test_ellipticity_fails_at_zeroed_sample():
    a = np.ones(64)
    a[17] = 1e-13
    data = B.BOperatorData(1.0, a, np.ones(64, complex),
                           np.zeros(64), np.zeros(64))
    rep = B.check_ellipticity(data)
    assert not rep.passed
    assert rep.argmin_sample == 17


@pytest.mark.parametrize("dip, expected", [(1e-14, 0), (1e-6, 40)])
def test_ellipticity_argmin_is_first_of_round_off_ties(dip, expected):
    # a minimum lower than the others by round-off only is a tie, and the
    # first tied sample is reported
    a = np.ones(64)
    a[40] -= dip
    data = B.BOperatorData(1.0, a, np.ones(64, complex),
                           np.zeros(64), np.zeros(64))
    rep = B.check_ellipticity(data)
    assert rep.sigma_min == rep.per_sample[40] < rep.per_sample[0]
    assert rep.argmin_sample == expected


def test_ellipticity_family_pipeline():
    b = family_bundle(0.7, 1.0)
    data = B.boperator_data_from_bundle(b)
    rep = B.check_ellipticity(data)
    assert rep.passed
    assert rep.sigma_min > 0.1 * np.min(data.a_samples)


def test_ellipticity_monotone_in_gap():
    data = B.boperator_data_from_bundle(BUNDLE)
    base = B.check_ellipticity(data).sigma_min
    halved = B.BOperatorData(data.sigma_radius, data.a_samples.copy(),
                             data.af_samples, data.f_chi, data.f_jchi)
    halved.a_samples[5] *= 0.5
    assert B.check_ellipticity(halved).sigma_min <= base + 1e-12


def test_homotopy_certificate():
    assert abs(B.symbol_homotopy_bt(np.ones(16)) - 1.0) < 1e-12
    assert abs(B.symbol_homotopy_bt(np.full(16, 0.5)) - 0.5) < 1e-12
    assert abs(B.symbol_homotopy_bt(np.array([0.2, 1.0, 5.0])) - 0.2) < 1e-12


# ---------------------------------------------------------------------------
# Maslov and index arithmetic


def loop_rzd(d, m=M_RES):
    th = sp.angles(m)
    frames = np.zeros((m, 2, 2), dtype=complex)
    frames[:, 0, 0] = np.exp(1j * d * th)
    frames[:, 1, 1] = 1.0
    return B.TotallyRealLoop(frames)


def test_maslov_standard_loops():
    for d in (1, 2, 3):
        assert B.maslov_index(loop_rzd(d)) == 2 * d


def test_maslov_constant_loop():
    assert B.maslov_index(loop_rzd(0)) == 0


def test_maslov_orientation_reversal():
    fwd = loop_rzd(3)
    rev = B.TotallyRealLoop(fwd.frames[::-1].copy())
    assert B.maslov_index(fwd) + B.maslov_index(rev) == 0


def test_maslov_additive_under_concatenation():
    # winding of det^2 is additive when loops are pointwise multiplied
    th = sp.angles(M_RES)
    frames = np.zeros((M_RES, 2, 2), dtype=complex)
    frames[:, 0, 0] = np.exp(1j * 2 * th) * np.exp(1j * 3 * th)
    frames[:, 1, 1] = 1.0
    assert B.maslov_index(B.TotallyRealLoop(frames)) == \
        B.maslov_index(loop_rzd(2)) + B.maslov_index(loop_rzd(3))


def test_maslov_rejects_degenerate_plane():
    frames = np.zeros((M_RES, 2, 2), dtype=complex)
    frames[:, 0, 0] = 1.0
    frames[:, 0, 1] = 1j  # second vector parallel over C
    with pytest.raises(DomainError):
        B.maslov_index(B.TotallyRealLoop(frames))


def test_index_arithmetic():
    assert B.reduced_index(2, 2, 2) == 3
    assert B.reduced_index(6, 6, 2) == 11
    assert B.fredholm_index(0, 0, 2) == 4
    for d in range(1, 6):
        assert B.reduced_index(2 * d, 2 * d, 2) == 4 * d - 1


def test_boundary_condition_loops_family():
    lp, lm = B.boundary_condition_loops(BUNDLE)
    assert B.maslov_index(lp) == 2
    assert B.maslov_index(lm) == 2
    assert B.reduced_index(2, 2, 2) == 3


def test_boundary_condition_loops_degenerate_stratum():
    b0 = family_bundle(0.0, 1.0)
    lp, lm = B.boundary_condition_loops(b0)
    assert B.maslov_index(lp) == 2
    assert B.maslov_index(lm) == 2


def test_immersion_floor_decides_data_and_loops_together(monkeypatch):
    # c != 0 is immersed at the default floor; above |chi_+| both the
    # operator data and the loops take the degenerate branch
    assert not BOP.degenerate_f
    monkeypatch.setattr(CONFIG, "tol",
                        replace(CONFIG.tol, immersion_floor=1e3))
    data = B.boperator_data_from_bundle(BUNDLE)
    assert data.degenerate_f
    assert not np.any(data.f_chi) and not np.any(data.f_jchi)
    # the transition phase g on sigma, in [0, 1)
    ratio = BUNDLE.pair.v_minus.planes[0, 0] / BUNDLE.pair.v_plus.planes[0, 0]
    af = np.exp(4j * np.pi * ((np.angle(ratio) / (2.0 * np.pi)) % 1.0))
    assert data.af_samples.tobytes() == af.tobytes()
    for loop in B.boundary_condition_loops(BUNDLE):
        assert loop.frames[:, 0, 0].tobytes() == np.exp(1j * TH).tobytes()


def test_certificate_schema():
    loops = B.boundary_condition_loops(BUNDLE)
    cert = B.ellipticity_certificate(BOP, loops)
    assert cert["pass"]
    assert cert["reducedIndex"] == 3
    assert cert["index"] == 8
    assert cert["maslovPlus"] == cert["maslovMinus"] == 2
    assert cert["sigmaMin"] > 0.1 * cert["aMin"]


# ---------------------------------------------------------------------------
# report sections and the certificate of a report


def degree_curve_bundle(d, c=0.3 + 0.2j, m=np.exp(0.7j)):
    r0m = np.sqrt(1 - abs(c) ** 2) * m
    curve = Mo.CurveInput(np.array([0] * d + [r0m]), np.array([m * c]), m)
    return Mo.construct_degree_d(curve, m, M_RES, NR)


@pytest.mark.parametrize("degree", [1, 3])
def test_loop_directions_agree_on_both_sides(degree):
    # dir_- = conj(A^F / |A^F|) chi_- / |chi_-| with A^F = chi_- / chi_+
    # is chi_+ / |chi_+| = dir_+, so maslovMinus = maslovPlus by
    # construction; the samples agree to round-off
    bundle = BUNDLE if degree == 1 else degree_curve_bundle(degree)
    lp, lm = (loop.frames[:, 0, 0]
              for loop in B.boundary_condition_loops(bundle))
    assert np.max(np.abs(lm - lp)) <= 1e-14


def serialized_report(bundle, data, loops):
    report = Mo.bundle_report(bundle, Mo.verify_folded_holomorphic(bundle),
                              data, loops)
    return json.loads(cli.format_json(report))


def test_from_directions_frames():
    dirs = np.exp(2j * TH)
    frames = B.TotallyRealLoop.from_directions(dirs).frames
    assert frames.shape == (M_RES, 2, 2)
    assert np.array_equal(frames[:, 0, 0], dirs)
    assert np.all(frames[:, 1, 1] == 1.0)
    assert np.all(frames[:, 0, 1] == 0.0) and np.all(frames[:, 1, 0] == 0.0)


def test_report_sections_list_operator_data_and_loop_directions():
    lp, lm = B.boundary_condition_loops(BUNDLE)
    operator, loop_data = B.report_sections(BOP, (lp, lm))
    assert operator == {
        "a": BOP.a_samples.tolist(),
        "AF_re": BOP.af_samples.real.tolist(),
        "AF_im": BOP.af_samples.imag.tolist(),
        "f_chi": BOP.f_chi.tolist(),
        "f_jchi": BOP.f_jchi.tolist(),
        "sigma_radius": BOP.sigma_radius,
    }
    assert loop_data == {
        "plus_re": lp.frames[:, 0, 0].real.tolist(),
        "plus_im": lp.frames[:, 0, 0].imag.tolist(),
        "minus_re": lm.frames[:, 0, 0].real.tolist(),
        "minus_im": lm.frames[:, 0, 0].imag.tolist(),
    }
    assert list(operator) == ["a", "AF_re", "AF_im", "f_chi", "f_jchi",
                              "sigma_radius"]
    assert list(loop_data) == ["plus_re", "plus_im", "minus_re", "minus_im"]
    assert all(type(x) is float for x in operator["a"] + loop_data["plus_re"])


@pytest.mark.parametrize("make", [
    lambda: BUNDLE,
    lambda: family_bundle(0.0, 1.0),     # degenerate stratum
    lambda: degree_curve_bundle(3),
], ids=["degree1", "degenerate", "degree3"])
def test_certificate_from_report_round_trip(make):
    bundle = make()
    data = B.boperator_data_from_bundle(bundle)
    loops = B.boundary_condition_loops(bundle)
    cert = B.certificate_from_report(serialized_report(bundle, data, loops))
    expected = B.ellipticity_certificate(data, loops)
    assert cert == expected
    assert list(cert) == list(expected)


def test_certificate_from_report_negative_gap_fails():
    report = serialized_report(BUNDLE, BOP, B.boundary_condition_loops(BUNDLE))
    report["boundary_operator"]["a"][13] = -0.25
    cert = B.certificate_from_report(report)
    assert cert["aMin"] == -0.25
    assert cert["argminSample"] == 13
    assert cert["pass"] is False
