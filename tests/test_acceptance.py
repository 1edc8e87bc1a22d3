"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from foldedmaps import _spectral as sp
from foldedmaps import boundary_operator as B
from foldedmaps import harmonic as H
from foldedmaps import moduli as Mo
from foldedmaps import tunneling as T
from foldedmaps.sphere import CharacteristicParam

RNG = np.random.default_rng(20260808)
M_FULL = 512
N_PARAMS = 20


def _report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def family_bundles():
    """20 verified degree-1 bundles at M = 512 with their wall times."""
    out = []
    for _ in range(N_PARAMS):
        c = RNG.uniform(0.0, 0.9) * np.exp(2j * np.pi * RNG.uniform())
        m = np.exp(2j * np.pi * RNG.uniform())
        t0 = time.time()
        bundle = Mo.degree1_family(Mo.ModuliParam(c, m), M_FULL, 128)
        report = Mo.verify_folded_holomorphic(bundle)
        elapsed = time.time() - t0
        out.append((c, m, bundle, report, elapsed))
    return out


def test_criterion_01_degree1_verification(family_bundles):
    worst = max(r.max_residual() for _, _, _, r, _ in family_bundles)
    slowest = max(t for *_, t in family_bundles)
    ok = worst < 1e-7 and slowest < 10.0
    _report(1, "degree-1 family verification",
            ok, f"(worst residual {worst:.2e}, slowest {slowest:.2f}s)")


def test_criterion_02_energy_identities(family_bundles):
    totals, pair_plus, v_diffs = [], [], []
    for _, _, bundle, _, _ in family_bundles:
        e = bundle.energies
        totals.append(e["E_u_plus"] + e["E_u_minus"])
        pair_plus.append(e["E_u_plus"] + e["E_v_plus"])
        v_diffs.append(abs(e["E_v_plus"] - e["E_v_minus"]))
    rel_total = np.ptp(totals) / np.mean(totals)
    rel_pair = np.ptp(pair_plus) / np.mean(pair_plus)
    ok = rel_total < 1e-6 and rel_pair < 1e-6 and max(v_diffs) < 1e-7
    _report(2, "energy identities", ok,
            f"(total spread {rel_total:.2e}, u+v spread {rel_pair:.2e}, "
            f"tunneling mismatch {max(v_diffs):.2e})")


def test_criterion_03_compactification_trend():
    rows = Mo.compactification_sample(np.linspace(0.0, 0.99, 8), 1.0, 256, 96)
    e_plus = [r.e_u_plus for r in rows]
    decreasing = all(a > b for a, b in zip(e_plus, e_plus[1:]))
    fraction = e_plus[-1] / rows[-1].e_total
    ok = decreasing and fraction < 0.02
    _report(3, "compactification trend", ok,
            f"(strictly decreasing {decreasing}, final fraction {fraction:.4f})")


def test_criterion_04_index_reproduction():
    ok = True
    detail = []
    for d in range(1, 6):
        r0, m = np.sqrt(1 - 0.4 ** 2), np.exp(0.3j)
        p = np.zeros(d + 1, complex)
        p[d] = r0 * m
        bundle = Mo.construct_degree_d(
            Mo.CurveInput(p, np.array([m * 0.4]), m), m, 256, 64)
        lp, lm = B.boundary_condition_loops(bundle)
        red = B.reduced_index(B.maslov_index(lp), B.maslov_index(lm), 2)
        ok = ok and red == 4 * d - 1
        detail.append(f"d={d}:{red}")
        # direct Maslov loop value
        th = sp.angles(256)
        frames = np.zeros((256, 2, 2), dtype=complex)
        frames[:, 0, 0] = np.exp(1j * d * th)
        frames[:, 1, 1] = 1.0
        ok = ok and B.maslov_index(B.TotallyRealLoop(frames)) == 2 * d
    _report(4, "index reproduction 4d-1", ok, "(" + " ".join(detail) + ")")


def test_criterion_05_ellipticity_certificate(family_bundles):
    ok = True
    worst_margin = np.inf
    for _, _, bundle, _, _ in family_bundles:
        data = B.boperator_data_from_bundle(bundle)
        rep = B.check_ellipticity(data)
        margin = rep.sigma_min - 0.1 * float(np.min(data.a_samples))
        worst_margin = min(worst_margin, margin)
        ok = ok and rep.passed and margin > 0
    # zeroing the gap at one sample must flip the certificate
    data = B.boperator_data_from_bundle(family_bundles[0][2])
    a = data.a_samples.copy()
    a[37] = 1e-300
    broken = B.BOperatorData(data.sigma_radius, a, data.af_samples,
                             data.f_chi, data.f_jchi)
    rep = B.check_ellipticity(broken)
    ok = ok and (not rep.passed) and rep.argmin_sample == 37
    _report(5, "ellipticity certificate", ok,
            f"(worst margin over 0.1 min(a): {worst_margin:.3f}, "
            f"zeroed-gap flips to FAIL at sample {rep.argmin_sample})")


def test_criterion_06_conjugate_partner_oracle():
    worst = 0.0
    for _ in range(5):
        c = RNG.uniform(0.05, 0.9) * np.exp(2j * np.pi * RNG.uniform())
        m = np.exp(2j * np.pi * RNG.uniform())
        x = CharacteristicParam(m)
        ladder = T.default_ladder()
        vp = Mo._family_ladder(c, m, M_FULL, 1, ladder)
        vm_closed = Mo._family_ladder(c, m, M_FULL, -1, ladder)
        built = T.conjugate_partner(vp, x)
        worst = max(worst, float(np.max(np.abs(built.rings - vm_closed.rings))))
    ok = worst < 1e-7
    _report(6, "conjugate-partner oracle", ok, f"(sup error {worst:.2e})")


def test_criterion_07_degree_d_oracle_equivalence():
    c, m = 0.5 + 0.2j, np.exp(0.7j)
    r0 = np.sqrt(1 - abs(c) ** 2)
    curve = Mo.CurveInput(np.array([0, r0 * m]), np.array([m * c]), m)
    bc = Mo.construct_degree_d(curve, m, M_FULL, 128)
    bf = Mo.degree1_family(Mo.ModuliParam(c, m), M_FULL, 128)
    diffs = [
        np.max(np.abs(bc.chart_plus.planes - bf.chart_plus.planes)),
        np.max(np.abs(bc.chart_minus.planes - bf.chart_minus.planes)),
        np.max(np.abs(bc.boundary_plus - bf.boundary_plus)),
        np.max(np.abs(bc.boundary_minus - bf.boundary_minus)),
        np.max(np.abs(bc.pair.v_plus.rings - bf.pair.v_plus.rings)),
        np.max(np.abs(bc.pair.v_minus.rings - bf.pair.v_minus.rings)),
    ]
    rc = Mo.verify_folded_holomorphic(bc).as_dict()
    rf = Mo.verify_folded_holomorphic(bf).as_dict()
    res_diff = max(abs(rc[k] - rf[k]) for k in rc)
    ok = max(diffs) < 1e-7 and res_diff < 1e-7
    _report(7, "degree-d oracle equivalence", ok,
            f"(sample diff {max(diffs):.2e}, residual diff {res_diff:.2e})")


def test_criterion_08_graph_consistency():
    bundle = Mo.degree1_family(Mo.ModuliParam(0.5 + 0.2j, np.exp(0.7j)),
                               M_FULL, 128)
    data = B.boperator_data_from_bundle(bundle)
    th = sp.angles(M_FULL)
    worst = 0.0
    for _ in range(20):
        k = int(RNG.integers(-16, 17))
        phase = np.exp(2j * np.pi * RNG.uniform())
        xi = B.BoundarySectionEF(
            phase * np.exp(1j * k * th),
            np.zeros(M_FULL),
            RNG.normal() * np.cos(k * th + RNG.uniform()))
        worst = max(worst, B.graph_check_dDeltaZ(xi, data))
    ok = worst < 1e-7
    _report(8, "operator graph consistency", ok, f"(worst residual {worst:.2e})")


def test_criterion_09_harmonic_spectral_suite():
    m = 256
    th = sp.angles(m)
    worst_rel = 0.0

    def rel(err, exact):
        # relative to the mode solution where it is representable, to the
        # unit boundary data in the fully decayed regime
        scale = float(np.max(np.abs(exact)))
        return err / scale if scale >= 1e-8 else err

    # band-limited Dirichlet, Neumann, conjugate, Qtilde: modes to m/4
    for k in (1, 2, 3, 7, 16, 3 * m // 16, m // 4):
        data = np.cos(k * th)
        f = H.solve_dirichlet(H.BoundaryLoopSamples(data), H.Disk(1.0))
        exact = 0.6 ** k * data
        worst_rel = max(worst_rel, rel(
            np.max(np.abs(np.real(f.trace(0.6)) - exact)), exact))
        fe = H.solve_dirichlet(H.BoundaryLoopSamples(data),
                               H.ExteriorPunctured(1.0))
        exact = 2.0 ** -k * data
        worst_rel = max(worst_rel, rel(
            np.max(np.abs(np.real(fe.trace(2.0)) - exact)), exact))
        g = H.solve_neumann_vanishing(H.BoundaryLoopSamples(data),
                                      H.ExteriorPunctured(1.0))
        exact = data / k
        worst_rel = max(worst_rel, rel(
            np.max(np.abs(np.real(g.trace()) - exact)), exact))
        conj = H.harmonic_conjugate(fe)
        exact = -np.sin(k * th)
        worst_rel = max(worst_rel, rel(
            np.max(np.abs(np.real(conj.trace()) - exact)), exact))
        qf, qg = H.solve_Qtilde(H.BoundaryLoopSamples(data))
        err = max(np.max(np.abs(qf.values - data)),
                  np.max(np.abs(qg.values - (-np.sin(k * th)))))
        worst_rel = max(worst_rel, err)
    bvp_ok = worst_rel < 1e-10

    period_exact = abs(H.boundary_period(
        H.BoundaryLoopSamples(np.cos(5 * th) - 3 * np.sin(11 * th))))
    dtheta = abs(H.boundary_period(H.BoundaryLoopSamples(np.ones(m)))
                 - 2 * np.pi)
    period_ok = period_exact < 1e-12 and dtheta < 1e-12

    out = B.build_B(B.synthetic_boperator_data(m, a=2.7)).apply(
        B.BoundarySectionEF(np.zeros(m), np.zeros(m), np.ones(m)))
    breeb = max(np.max(np.abs(out.xi_f)), np.max(np.abs(out.xi_k)),
                np.max(np.abs(out.xi_l + 1.0)))
    reeb_ok = breeb < 1e-9

    ok = bvp_ok and period_ok and reeb_ok
    _report(9, "harmonic engine spectral suite", ok,
            f"(BVP {worst_rel:.2e}, periods {max(period_exact, dtheta):.2e}, "
            f"B(R)+R {breeb:.2e})")


def test_criterion_10_flat_fold():
    n = 64
    circle = np.exp(2j * np.pi * np.arange(n) / n)
    torus = np.exp(2j * np.pi * RNG.uniform(size=n))
    worst = 0.0
    for theta0 in (0.0, 0.125, 0.3, 0.77):
        rep = T.flat_fold_diagonal_check(theta0, circle, torus)
        worst = max(worst, rep.max_residual())
    instance, _ = T.flat_fold_apply(0.0, np.array([np.exp(1j * np.pi / 2)]),
                                    np.array([1.0]))
    worst = max(worst, float(abs(instance[0] - np.exp(-1j * np.pi / 2))))
    ok = worst < 1e-12
    _report(10, "flat-fold diagonal identities", ok, f"(residual {worst:.2e})")
