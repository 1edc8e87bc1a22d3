import sys
import threading

import numpy as np
import pytest

from foldedmaps import _spectral as sp
from foldedmaps import tunneling as T
from foldedmaps.errors import (DomainError, GapSignError,
                               NonTransverseCrossingError, VerificationError)
from foldedmaps.harmonic import (BoundaryLoopSamples, ExteriorPunctured,
                                 solve_neumann_vanishing)
from foldedmaps.sphere import CharacteristicParam

RNG = np.random.default_rng(90125)
M = 256
R = len(T.default_ladder().u)   # rings of every construction


def family_maps(c, m):
    def vplus(z):
        w = np.stack([m * z, np.full_like(z, m * c)])
        return w / np.linalg.norm(w, axis=0)

    def vminus(z):
        w = np.stack([m / z, m * c / z ** 2])
        return w / np.linalg.norm(w, axis=0)

    return vplus, vminus


def family_samples(c, m, M=M):
    r0 = np.sqrt(1 - abs(c) ** 2)
    x = CharacteristicParam(m)
    vplus, vminus = family_maps(c, m)
    vp = T.sample_tunnel_map(vplus, r0, M, x, 1)
    vm = T.sample_tunnel_map(vminus, r0, M, x, -1)
    return vp, vm, x


# ---------------------------------------------------------------------------
# ladder derivatives


def d_u_direct(values, u, width=9):
    """Per-ring Fornberg weights, evaluated afresh for every ring and
    summed left to right over the window, as `Ladder.d_u` documents."""
    r = len(u)
    width = min(width, r)
    out = np.empty_like(values)
    for i in range(r):
        lo = min(max(i - width // 2, 0), r - width)
        w = sp.fd_weights(u[lo:lo + width], float(u[i]), 1)
        acc = w[0] * values[lo]
        for j in range(1, width):
            acc = acc + w[j] * values[lo + j]
        out[i] = acc
    return out


def ladder_values(n_rings, m=16):
    shape = (n_rings, m, 2)
    return RNG.normal(size=shape) + 1j * RNG.normal(size=shape)


@pytest.mark.parametrize("u", [T.default_ladder().u,
                               np.cumsum(np.linspace(0.01, 0.08, 60))],
                         ids=["default", "nonuniform"])
def test_d_u_cached_stencil_matches_direct(u):
    vals = ladder_values(len(u))
    assert T.Ladder(u).d_u(vals).tobytes() == d_u_direct(vals, u).tobytes()


@pytest.mark.parametrize("u", [T.default_ladder().u,
                               np.cumsum(np.linspace(0.01, 0.08, 60))],
                         ids=["default", "nonuniform"])
def test_fd_weights_batch_rows_match_1d_calls(u):
    lo = np.minimum(np.maximum(np.arange(len(u)) - 4, 0), len(u) - 9)
    windows = u[lo[:, None] + np.arange(9)]
    batch = sp.fd_weights(windows, u, 1)
    rows = np.stack([sp.fd_weights(w, float(x), 1)
                     for w, x in zip(windows, u)])
    assert batch.tobytes() == rows.tobytes()
    assert T.Ladder(u).weights.tobytes() == rows.tobytes()


def test_default_ladder_is_graded_toward_the_puncture():
    # u = -7 ln(1 - xi / 7), xi uniform with a step of at most 0.04
    u = T.default_ladder().u
    du = np.diff(u)
    assert len(u) == 121 and u[0] == 0.0
    assert abs(u[-1] - 8.0) < 1e-12
    assert 0.0395 < du[0] <= 0.04
    assert np.all(np.diff(du) > 0)


@pytest.mark.parametrize("u", [T.default_ladder().u, [0.0, 1.0, 2.5]],
                         ids=["default", "3-rings"])
def test_puncture_weights_reproduce_polynomials_in_s(u):
    # the fit is exact on polynomials of degree <= min(6, n - 1) in s, so
    # its value at s = 0 is their constant term, for any data shape
    ladder = T.Ladder(u)
    n = len(ladder.puncture)
    assert n == min(20, len(u)) and not ladder.puncture.flags.writeable
    x = np.exp(ladder.u[-n] - ladder.u)          # s / s_{R-n}
    shape = (min(7, n), 3)
    coef = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    vals = np.polynomial.polynomial.polyval(x, coef).T     # (R, 3)
    assert np.max(np.abs(ladder.at_puncture(vals) - coef[0])) < 1e-12
    real = ladder.at_puncture(vals[:, 0].real)
    assert real.dtype == float and abs(real - coef[0, 0].real) < 1e-12


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9, 0.99])
def test_graded_ladder_keeps_the_f_residual_small(c):
    # the spacing grows as e^{u/7}; a coarser grading lets the stencil
    # error of the outer rings reach the F residual
    for v in family_samples(c * np.exp(0.7j), np.exp(0.3j), M=2048)[:2]:
        assert T.residual_H(v).f_residual <= 1e-10


def test_fd_weights_central_difference():
    w = sp.fd_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 1)
    assert w.tolist() == [-0.5, 0.0, 0.5]


@pytest.mark.parametrize("m", [64, 256, 2048])
def test_d_u_ring_blocks_match_direct(m):
    # (R, M) complex ladders: one block of 256 rings at M = 64 (longer than
    # the ladder), 64 rings at M = 256 and 8 rings at M = 2048
    ladder = T.default_ladder()
    u = ladder.u
    vals = ladder_values(len(u), m)[..., 0]
    assert T.ring_blocks(len(u), m)[0] == slice(0, min(len(u),
                                                      max(8, 16384 // m)))
    assert ladder.d_u(vals).tobytes() == d_u_direct(vals, u).tobytes()
    real = np.ascontiguousarray(vals.real)
    assert ladder.d_u(real).tobytes() == d_u_direct(real, u).tobytes()


@pytest.mark.parametrize("n_rings", range(3, 13))
def test_d_u_short_ladders_match_direct(n_rings):
    u = np.cumsum(np.linspace(0.02, 0.05, n_rings))
    vals = ladder_values(n_rings)
    assert T.Ladder(u).d_u(vals).tobytes() == d_u_direct(vals, u).tobytes()


@pytest.mark.parametrize("u", [T.default_ladder().u,
                               np.cumsum(np.linspace(0.01, 0.08, 60))],
                         ids=["default", "nonuniform"])
def test_d_u_real_is_real_part_of_complex(u):
    ladder = T.Ladder(u)
    vals = ladder_values(len(u))[..., 0]
    real = ladder.d_u(np.ascontiguousarray(vals.real))
    assert real.dtype == float
    assert real.tobytes() == \
        np.ascontiguousarray(ladder.d_u(vals).real).tobytes()


@pytest.mark.parametrize("u", [T.default_ladder().u,
                               np.cumsum(np.linspace(0.01, 0.08, 60))],
                         ids=["default", "nonuniform"])
def test_d_u_signed_zero_columns_match_direct(u):
    ladder = T.Ladder(u)
    vals = ladder_values(len(u))[..., 0]
    vals[:, 3] = 0.0
    vals.real[:, 5] = -0.0
    vals.imag[:, 5] = -0.0
    vals.real[:, 8] = -0.0
    assert ladder.d_u(vals).tobytes() == d_u_direct(vals, u).tobytes()
    real = np.ascontiguousarray(vals.real)
    assert ladder.d_u(real).tobytes() == d_u_direct(real, u).tobytes()


def omega_density(v):
    """Pullback of omega_Z = d(alpha) in the (u, theta) coordinates of
    one sample: the oracle of the difference route of check_conjugate."""
    d = T.derived_fields(v)
    return v.ladder.d_u(d.alpha_t) - sp.theta_derivative(d.alpha_u)


def test_one_ladder_and_one_weight_build_per_construction(monkeypatch):
    # v_+, v_- and the conjugate partner share the construction's ladder,
    # so an op builds its d/du weights once, whatever reads them later
    from foldedmaps import boundary_operator as B
    from foldedmaps import moduli as Mo
    calls = []
    fd_weights = sp.fd_weights

    def counting(*args):
        calls.append(args)
        return fd_weights(*args)

    monkeypatch.setattr(sp, "fd_weights", counting)
    bundle = Mo.degree1_family(Mo.ModuliParam(0.4 + 0.1j, np.exp(0.2j)), 64,
                               24)
    report = Mo.verify_folded_holomorphic(bundle)
    data = B.boperator_data_from_bundle(bundle)
    loops = B.boundary_condition_loops(bundle)
    Mo.bundle_report(bundle, report, data, loops)
    B.ellipticity_certificate(data, loops)
    assert bundle.pair.v_plus.ladder is bundle.pair.v_minus.ladder
    assert len(calls) == 1
    calls.clear()
    pair = _degree3_pair()
    partner = T.conjugate_partner(pair.v_plus, pair.v_plus.x)
    T.asymptotic_energy(partner, 0.1)
    assert pair.v_plus.ladder is pair.v_minus.ladder is partner.ladder
    assert len(calls) == 1


def test_d_theta_matches_per_ring():
    planes = np.ascontiguousarray(np.moveaxis(ladder_values(7), 2, 0))
    expected = np.stack([
        np.stack([sp.theta_derivative(planes[c, i]) for i in range(7)])
        for c in (0, 1)])
    assert sp.theta_derivative(planes).tobytes() == expected.tobytes()
    real = planes[0].real
    expected = np.stack([sp.theta_derivative(real[i]) for i in range(7)])
    out = np.ascontiguousarray(sp.theta_derivative(real))
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", [16, 15])
def test_real_theta_derivative_rows_match_1d_calls(m):
    x = RNG.normal(size=(7, m))
    out = sp.theta_derivative(x)
    assert out.dtype == np.float64
    for i in range(7):
        assert out[i].tobytes() == sp.theta_derivative(x[i]).tobytes()


@pytest.mark.parametrize("m", [16, 15, 256, 255])
def test_real_theta_derivative_matches_complex_route(m):
    # the real FFT pair and the complex one, Nyquist mode included
    x = RNG.normal(size=(5, m))
    real = sp.theta_derivative(x)
    full = sp.theta_derivative(x.astype(complex))
    scale = float(np.max(np.abs(full)))
    assert float(np.max(np.abs(real - full.real))) <= 1e-13 * scale
    assert float(np.max(np.abs(full.imag))) <= 1e-13 * scale


def test_d_u_stencil_is_per_ladder():
    u1 = T.default_ladder().u
    u2 = 1.5 * u1
    vals = ladder_values(len(u1))
    d1 = T.Ladder(u1).d_u(vals)
    d2 = T.Ladder(u2).d_u(vals)
    assert d2.tobytes() == d_u_direct(vals, u2).tobytes()
    assert not np.allclose(d1, d2)


def test_d_u_stencil_cache_under_threads():
    # six threads share six ladders, each read by several threads at once
    ladders = [T.Ladder(np.cumsum(np.full(40, 0.01 * (k + 1))))
               for k in range(6)]
    vals = ladder_values(40)
    expected = [d_u_direct(vals, ladder.u) for ladder in ladders]
    failures = []

    def worker(k):
        for j in range(20):
            n = (k + j) % len(ladders)
            if ladders[n].d_u(vals).tobytes() != expected[n].tobytes():
                failures.append((k, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def derived_reference(v):
    """The derived fields by whole-ladder formulas, every product kept."""
    a, b = v.planes
    dth_a, dth_b = sp.theta_derivative(v.planes)
    du_a = d_u_direct(a, v.ladder.u)
    du_b = d_u_direct(b, v.ladder.u)
    ca, cb = np.conj(a), np.conj(b)
    alpha_t = np.imag(0.0 + ca * dth_a + cb * dth_b) / T.TWO_PI
    alpha_u = np.imag(0.0 + ca * du_a + cb * du_b) / T.TWO_PI
    chi_t = 0.0 + (-b) * dth_a + a * dth_b
    chi_u = 0.0 + (-b) * du_a + a * du_b
    return alpha_t, alpha_u, chi_t, chi_u


def short_ladder(v, n_rings):
    """v on its first n_rings rings."""
    if n_rings == v.n_rings:
        return v
    return T.TunnelMapSample(v.rho, T.Ladder(v.ladder.u[:n_rings]),
                             v.planes[:, :n_rings], v.x, v.degree)


@pytest.mark.parametrize("m,n_rings", [(64, R), (256, R), (2048, R),
                                       (2048, 5), (256, 70), (2048, 3)],
                         ids=["64", "256", "2048", "2048-short", "256-70",
                              "2048-3"])
def test_derived_fields_match_whole_ladder_formulas(m, n_rings):
    # the 121 rings are shorter than one block at M = 64, a block of 64
    # and one of 57 at M = 256 and 15 blocks of 8 and a 1-ring tail at
    # M = 2048, and 5 or 3 rings are fewer than one block; 70 rings at
    # M = 256 end in a block of 6
    vp, _, _ = family_samples(0.45 + 0.3j, np.exp(0.7j), M=m)
    vp = short_ladder(vp, n_rings)
    alpha_t, alpha_u, chi_t, _ = derived_reference(vp)
    d = T.derived_fields(vp)
    assert d.alpha_t.tobytes() == alpha_t.tobytes()
    assert d.alpha_u.tobytes() == alpha_u.tobytes()
    assert d.chi_sigma.tobytes() == chi_t[0].tobytes()


def test_asymptotic_energy_matches_whole_ladder_chi():
    from scipy.integrate import simpson
    vp, _, _ = family_samples(0.5, np.exp(0.3j))
    delta = 0.1
    alpha_t, alpha_u, chi_t, chi_u = derived_reference(vp)
    s = vp.ladder.u / T.TWO_PI
    a_t = T.TWO_PI * alpha_t
    dens = (np.abs(T.TWO_PI * alpha_u) ** 2
            + (T.TWO_PI * vp.ladder.d_u(a_t)) ** 2
            + (T.TWO_PI * sp.theta_derivative(a_t)) ** 2
            + (T.TWO_PI ** 2) * (np.abs(chi_u) ** 2 + np.abs(chi_t) ** 2))
    ring_density = np.mean(dens, axis=1) * np.exp(delta * s)
    e_r = np.array([simpson(ring_density[i:], x=s[i:])
                    for i in range(vp.n_rings - 1)] + [0.0])
    prof = T.asymptotic_energy(vp, delta)
    assert prof.e_r.tobytes() == e_r.tobytes()


# ---------------------------------------------------------------------------
# residuals


def test_residual_family():
    vp, vm, _ = family_samples(0.5 + 0.2j, np.exp(0.7j))
    for v in (vp, vm):
        res = T.residual_H(v)
        assert res.f_residual < 1e-8
        assert res.l_residual < 1e-8


def test_residual_constant_map():
    def const(z):
        out = np.zeros((2,) + z.shape, dtype=complex)
        out[0] = 0.6
        out[1] = 0.8j
        return out

    v = T.sample_tunnel_map(const, 1.0, 64, CharacteristicParam(1.0), 0,
                            ladder=T.Ladder(np.linspace(0, 1, 32)))
    res = T.residual_H(v)
    assert res.f_residual < 1e-12
    assert res.l_residual < 1e-12


def test_residual_detects_warp():
    c, m = 0.5, 1.0
    r0 = np.sqrt(1 - c ** 2)
    vplus, _ = family_maps(c, m)

    def warped(z):
        th = np.angle(z)
        zz = np.abs(z) * np.exp(1j * (th + 0.2 * np.sin(th)))
        return vplus(zz)

    v = T.sample_tunnel_map(warped, r0, M, CharacteristicParam(1.0), 1)
    assert T.residual_H(v).f_residual > 0.01


def test_residual_needs_rings():
    # a sample too short for d/du estimates cannot be built: its ladder
    # is rejected first
    vp, _, x = family_samples(0.3, 1.0)
    with pytest.raises(DomainError, match="at least 3"):
        T.TunnelMapSample(vp.rho, T.Ladder(vp.ladder.u[:2]),
                          vp.planes[:, :2], x, 1)


@pytest.mark.parametrize("u", [
    [0.0, np.nan, 0.08, 0.12], [0.0, 0.04, np.inf], [-np.inf, 0.0, 0.04],
    [0.0, 0.04, 0.04, 0.12], [0.0, 0.08, 0.04, 0.12],
    [[0.0, 0.04, 0.08], [0.12, 0.16, 0.2]], [0.0, 0.04], [0.0], []],
    ids=["nan", "inf", "minus-inf", "repeated", "decreasing", "2d",
         "2-rings", "1-ring", "empty"])
def test_ladder_rejects_bad_rings(u):
    with pytest.raises(DomainError, match="ring ladder"):
        T.Ladder(np.array(u))


def test_ladder_mismatch_with_planes_is_rejected():
    vp, _, x = family_samples(0.3, 1.0, M=64)
    with pytest.raises(DomainError, match="ring ladder shape mismatch"):
        T.TunnelMapSample(vp.rho, T.Ladder(vp.ladder.u[:50]), vp.planes, x,
                          1)


def test_sample_planes_are_the_stored_form():
    vp, _, x = family_samples(0.3 + 0.1j, 1.0, M=64)
    assert vp.planes.shape == (2, vp.n_rings, 64)
    assert vp.planes.flags.c_contiguous and not vp.planes.flags.writeable
    assert np.shares_memory(vp.rings, vp.planes)
    assert np.array_equal(vp.rings, np.moveaxis(vp.planes, 0, 2))
    with pytest.raises(ValueError):
        vp.planes[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        vp.rings[0, 0, 1] = 0.0
    # a sample built from another's planes keeps the same memory
    again = T.TunnelMapSample(vp.rho, vp.ladder, vp.planes, x, 1)
    assert np.shares_memory(again.planes, vp.planes)


def test_sample_rejects_the_component_last_layout():
    vp, _, x = family_samples(0.3 + 0.1j, 1.0, M=64)
    with pytest.raises(DomainError, match=r"shape \(2, R, M\)"):
        T.TunnelMapSample(vp.rho, vp.ladder, vp.rings, x, 1)
    with pytest.raises(DomainError, match=r"shape \(2, R, M\)"):
        T.TunnelMapSample(vp.rho, vp.ladder, vp.planes[0], x, 1)


@pytest.mark.parametrize("ring", [0, 100, -1])
def test_sample_rejects_a_ring_off_the_sphere(ring):
    # at M = 2048 the norm check sweeps blocks of 8 rings; a ring off S^3
    # is caught in the first, a middle and the last, short block
    vp, _, x = family_samples(0.3 + 0.1j, 1.0, M=2048)
    planes = vp.planes.copy()
    planes[:, ring, 1000] *= 1.0 + 1e-8
    with pytest.raises(DomainError, match="must lie on S"):
        T.TunnelMapSample(vp.rho, vp.ladder, planes, x, 1)


def test_sample_rejects_nan_samples():
    vp, _, x = family_samples(0.3 + 0.1j, 1.0, M=64)
    with pytest.raises(DomainError, match="must lie on S"):
        T.TunnelMapSample(vp.rho, vp.ladder, np.full_like(vp.planes, np.nan),
                          x, 1)


@pytest.mark.parametrize("rho", [np.nan, -1.0, 0.0, np.inf])
def test_sample_rejects_a_bad_fold_radius(rho):
    # radii() and a conjugate partner would be built on it unchecked
    vp, _, x = family_samples(0.3 + 0.1j, 1.0, M=64)
    with pytest.raises(DomainError, match="fold radius rho"):
        T.TunnelMapSample(rho, vp.ladder, vp.planes, x, 1)


def test_sample_ladders_are_read_only_and_derived_fields_cached():
    vplus, _ = family_maps(0.3, 1.0)
    u = np.linspace(0.0, 8.0, 201)
    planes = vplus(np.exp(u)[:, None] * np.exp(1j * sp.angles(64))[None, :])
    v = T.TunnelMapSample(1.0, T.Ladder(u), planes, CharacteristicParam(1.0),
                          1)
    with pytest.raises(ValueError):
        v.planes[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        v.ladder.u[1] = 0.5
    with pytest.raises(ValueError):
        v.ladder.weights[1, 0] = 0.5
    with pytest.raises(ValueError):
        v.ladder.puncture[0] = 0.5
    assert planes.flags.writeable and u.flags.writeable
    assert T.derived_fields(v) is T.derived_fields(v)


# ---------------------------------------------------------------------------
# periods


def test_periods_family():
    vp, vm, _ = family_samples(0.6, np.exp(0.3j))
    assert T.check_periods(vp) < 1e-9
    assert T.check_periods(vm) < 1e-9


def test_periods_detect_dtheta():
    # map winding along the Reeb direction with a radial modulation has
    # v*alpha o j with nonzero period
    def bad(z):
        t = np.log(np.abs(z))
        out = np.zeros((2,) + z.shape, dtype=complex)
        out[0] = np.exp(2j * np.pi * t)
        return out

    v = T.sample_tunnel_map(bad, 1.0, 64, CharacteristicParam(1.0), 0,
                            ladder=T.Ladder(np.linspace(0, 0.5, 24)))
    periods = T.ring_periods(v)
    assert np.max(np.abs(periods)) > 6.0  # detects the 2 pi circulation


def test_periods_ring_independent():
    vp, _, _ = family_samples(0.45 + 0.3j, 1.0)
    periods = T.ring_periods(vp)
    assert np.max(np.abs(periods - periods[0])) < 1e-10


# ---------------------------------------------------------------------------
# asymptotic energy


def test_energy_constant_map_zero():
    def const(z):
        out = np.zeros((2,) + z.shape, dtype=complex)
        out[0] = 1.0
        return out

    v = T.sample_tunnel_map(const, 1.0, 64, CharacteristicParam(1.0), 0,
                            ladder=T.Ladder(np.linspace(0, 2, 48)))
    prof = T.asymptotic_energy(v, 0.1)
    assert prof.total < 1e-20
    assert not prof.divergent


def test_energy_family_finite_and_monotone():
    vp, _, _ = family_samples(0.5, 1.0)
    prof = T.asymptotic_energy(vp, 0.1)
    assert np.isfinite(prof.total) and prof.total > 0
    assert prof.decay_exponent <= -0.1
    assert not prof.divergent
    assert np.all(np.diff(prof.e_r) <= 1e-12)


def test_energy_oracle_quadrature():
    # independent oracle: dense midpoint quadrature of the closed-form
    # integrand for c = 0.5, m = 1, delta = 0.1
    c, delta = 0.5, 0.1
    r0 = np.sqrt(1 - c ** 2)

    def density(s):
        # analytic integrand of the family map (see the pullback formulas):
        # v*alpha(ds) = 0, v*alpha(dt) = r^2/(r^2+c^2), |pi_F dv|^2 with
        # |chi_t| = 2 pi r c / (r^2 + c^2) and chi_u = i chi_t
        r = r0 * np.exp(2 * np.pi * s)
        at = r ** 2 / (r ** 2 + c ** 2)
        dat_ds = 2 * np.pi * r * (2 * r * c ** 2 / (r ** 2 + c ** 2) ** 2)
        pf2 = 2 * (2 * np.pi * r * c / (r ** 2 + c ** 2)) ** 2
        return (dat_ds ** 2 + pf2) * np.exp(delta * s)

    ss = np.linspace(0, 4, 400001)
    oracle = np.trapezoid(density(ss), ss)

    vp, _, _ = family_samples(c, 1.0)
    prof = T.asymptotic_energy(vp, delta)
    assert abs(prof.total - oracle) < 1e-4 * oracle


def test_energy_divergence_flag():
    # constant pullback of alpha along ds: integrand grows like e^{delta s}
    def spiral(z):
        t = np.log(np.abs(z)) / (2 * np.pi)
        out = np.zeros((2,) + z.shape, dtype=complex)
        out[0] = np.exp(2j * np.pi * 5 * t)
        return out

    v = T.sample_tunnel_map(spiral, 1.0, 64, CharacteristicParam(1.0), 0,
                            ladder=T.Ladder(np.linspace(0, 3, 64)))
    prof = T.asymptotic_energy(v, 0.5)
    assert prof.divergent


# ---------------------------------------------------------------------------
# gap function


def test_gap_symmetric_family():
    # c = 0: the involution-symmetric map has gap identically one
    th = sp.angles(M)
    plus = BoundaryLoopSamples(np.full(M, 1.0 / (2 * np.pi)))
    minus = BoundaryLoopSamples(np.full(M, -1.0 / (2 * np.pi)))
    a = T.gap_function(plus, minus)
    assert np.max(np.abs(a.values - 1.0)) < 1e-12


def test_gap_family_value():
    # derived: a = (1 + |c|^2)/(1 - |c|^2) for the degree-1 family
    c = 0.5
    plus = BoundaryLoopSamples(np.full(M, (1 - c ** 2) / (2 * np.pi)))
    minus = BoundaryLoopSamples(np.full(M, -(1 + c ** 2) / (2 * np.pi)))
    a = T.gap_function(plus, minus)
    assert np.max(np.abs(a.values - 5.0 / 3.0)) < 1e-12
    assert np.min(a.values) > 0


def test_gap_sign_violation():
    plus = BoundaryLoopSamples(np.full(M, 0.2))
    with pytest.raises(GapSignError):
        T.gap_function(plus, plus)


def test_gap_non_transverse():
    plus = BoundaryLoopSamples(np.zeros(M))
    minus = BoundaryLoopSamples(np.ones(M))
    with pytest.raises(NonTransverseCrossingError):
        T.gap_function(plus, minus)


def test_gap_rejects_nan_samples():
    plus = np.full(M, 0.2)
    plus[5] = np.nan
    with pytest.raises(NonTransverseCrossingError):
        T.gap_function(BoundaryLoopSamples(plus),
                       BoundaryLoopSamples(np.full(M, -0.2)))


# ---------------------------------------------------------------------------
# conjugacy


def test_check_conjugate_family():
    for c, m in [(0.5 + 0.2j, np.exp(0.7j)), (0.75, 1.0), (0.2j, np.exp(2j))]:
        vp, vm, x = family_samples(c, m)
        rep = T.check_conjugate(T.ConjugatePair(vp, vm))
        assert rep.max_residual() < 1e-8, (c, m, rep)


def _degree3_pair():
    from foldedmaps import moduli as Mo
    c, m = 0.35 + 0.25j, np.exp(0.9j)
    r0 = np.sqrt(1 - abs(c) ** 2)
    curve = Mo.CurveInput(np.array([0, 0, 0, r0 * m]), np.array([m * c]), m)
    return Mo.construct_degree_d(curve, m, 128, 24).pair


def _ring_tampered_pair():
    # one ring of v_- turned by e^{0.01 i sin theta}, which keeps it on
    # S^3; the ring is near the fold, where v_- still varies along u:
    # far out the turn is nearly a change of gauge, which omega ignores
    # (6e-7 on ring 100, 1.1e-3 on ring 4)
    vp, vm, _ = family_samples(0.4 + 0.1j, np.exp(0.2j))
    planes = vm.planes.copy()
    planes[:, 4] *= np.exp(0.01j * np.sin(sp.angles(vm.m)))
    return T.ConjugatePair(
        vp, T.TunnelMapSample(vm.rho, vm.ladder, planes, vm.x, vm.degree))


@pytest.mark.parametrize("make", [
    lambda: T.ConjugatePair(*family_samples(0.4 + 0.1j, np.exp(0.2j))[:2]),
    _degree3_pair, _ring_tampered_pair], ids=["degree1", "degree3",
                                              "tampered"])
def test_omega_residual_matches_per_side_oracle(make):
    # the residual takes d of the plus-minus difference of the contact
    # pullbacks; the oracle differences each side's omega density
    pair = make()
    omega = T.check_conjugate(pair).omega_residual
    oracle = float(np.max(np.abs(omega_density(pair.v_plus)
                                 - omega_density(pair.v_minus))))
    assert abs(omega - oracle) <= 1e-13
    assert (omega > 1e-4) == (make is _ring_tampered_pair)


def hopf_reference(v):
    """The Hopf ratio by its whole-ladder formula."""
    a, b = v.planes
    return b / a if np.max(np.abs(b)) <= np.max(np.abs(a)) else a / b


def sweep_reference(pair):
    """The omega residual and the base distance of check_conjugate by
    whole-ladder formulas: d of the plus-minus difference of the contact
    pullbacks, and the Fubini-Study distance of the Hopf ratios."""
    dp = T.derived_fields(pair.v_plus)
    dm = T.derived_fields(pair.v_minus)
    omega = (d_u_direct(dp.alpha_t - dm.alpha_t, pair.v_plus.ladder.u)
             - sp.theta_derivative(dp.alpha_u - dm.alpha_u))
    hp, hm = hopf_reference(pair.v_plus), hopf_reference(pair.v_minus)
    return (float(np.max(np.abs(omega))),
            float(np.max(np.abs(hp - hm) / (1.0 + np.abs(hp) ** 2))))


@pytest.mark.parametrize("m,n_rings", [(64, R), (2048, R), (64, 3)],
                         ids=["64", "2048", "64-3"])
@pytest.mark.parametrize("tampered", [False, True], ids=["family", "ring"])
def test_block_passes_match_whole_ladder_formulas(m, n_rings, tampered):
    # each side thread sweeps half the rings: one block each at M = 64,
    # 7 blocks of 8 and a tail of 4 or 5 at M = 2048
    vp, vm, _ = family_samples(0.45 + 0.3j, np.exp(0.7j), M=m)
    vp, vm = short_ladder(vp, n_rings), short_ladder(vm, n_rings)
    if tampered:
        # a turn of one ring of v_-, as in _ring_tampered_pair
        planes = vm.planes.copy()
        planes[:, min(4, n_rings - 1)] *= np.exp(0.01j * np.sin(sp.angles(m)))
        vm = T.TunnelMapSample(vm.rho, vm.ladder, planes, vm.x, vm.degree)
    # v_- with its two components swapped takes the other Hopf chart
    swapped = T.TunnelMapSample(vm.rho, vm.ladder, vm.planes[::-1], vm.x,
                                vm.degree)
    for v in (vp, vm, swapped):
        assert T.hopf_ratio(v).tobytes() == hopf_reference(v).tobytes()
    pair = T.ConjugatePair(vp, vm)
    rep = T.check_conjugate(pair)
    assert (rep.omega_residual, rep.base_distance) == sweep_reference(pair)
    assert (rep.omega_residual > 1e-6) == tampered, rep


@pytest.mark.parametrize("m", [64, 2048])
@pytest.mark.parametrize("lead", [1, -1, 0],
                         ids=["b-on-ring-3", "a-on-ring-3", "tie"])
def test_hopf_chart_hinges_on_one_ring(m, lead):
    # |a| leads on every ring but ring 3, where |b| leads by more (or the
    # other way round), so the middle of one block sets the chart; b = i a
    # ties with a and takes b / a
    phi = np.full(R, np.pi / 4 - lead * 1e-3)
    phi[3] = np.pi / 4 + lead * 2e-3
    b_rows = np.sin(phi) if lead else 1j * np.cos(phi)
    planes = (np.stack([np.cos(phi), b_rows])[:, :, None]
              * np.exp(1j * sp.angles(m)))
    v = T.TunnelMapSample(1.0, T.default_ladder(), planes,
                          CharacteristicParam(1.0), 1)
    a, b = v.planes
    expected = b / a if lead <= 0 else a / b
    assert T.hopf_ratio(v).tobytes() == expected.tobytes()
    assert T.hopf_ratio(v).tobytes() == hopf_reference(v).tobytes()


# the NaN quotient of the Hopf ratio warns on whichever thread sweeps it
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("where", ["alpha_t", "planes"])
@pytest.mark.parametrize("ring", [3, R - 11], ids=["calling", "pooled"])
def test_nan_ring_fails_conjugacy_in_either_half(where, ring):
    # rings [0, R // 2) are swept on the calling thread, [R // 2, R) on
    # the pooled one; a NaN in either half survives the join of the halves
    from foldedmaps import moduli as Mo
    bundle = Mo.degree1_family(Mo.ModuliParam(0.4 + 0.1j, np.exp(0.2j)),
                               64, 24)
    clean = T.check_conjugate(bundle.pair)
    vm = bundle.pair.v_minus
    planes = vm.planes.copy()
    nan_vm = T.TunnelMapSample(vm.rho, vm.ladder, planes, vm.x, vm.degree)
    # NaN after the S^3 check: in a cached contact pullback, or in the
    # samples after the derived fields and the Hopf chart are cached
    d = T.derived_fields(nan_vm)
    (d.alpha_t if where == "alpha_t" else planes)[..., ring, 5] = np.nan
    bundle.pair = T.ConjugatePair(bundle.pair.v_plus, nan_vm)
    rep = Mo.verify_folded_holomorphic(bundle)
    conj = rep.conjugacy
    if where == "alpha_t":
        assert np.isnan(conj.omega_residual)
        assert conj.base_distance == clean.base_distance
    else:
        assert conj.omega_residual == clean.omega_residual
        assert np.isnan(conj.base_distance)
    assert not rep.passed()


def test_check_conjugate_rejects_samples_on_different_ladders():
    vp, vm, _ = family_samples(0.4 + 0.1j, np.exp(0.2j))
    u = vm.ladder.u * 1.01
    other = T.TunnelMapSample(vm.rho, T.Ladder(u), vm.planes, vm.x, vm.degree)
    with pytest.raises(DomainError, match="different grids"):
        T.check_conjugate(T.ConjugatePair(vp, other))


def test_conjugate_base_projections_agree():
    vp, vm, x = family_samples(0.4 + 0.4j, 1.0)
    rep = T.check_conjugate(T.ConjugatePair(vp, vm))
    assert rep.base_distance < 1e-8


def test_check_conjugate_detects_flow_shift():
    vp, vm, x = family_samples(0.5, 1.0)
    shifted = T.TunnelMapSample(
        vm.rho, vm.ladder,
        np.exp(2j * np.pi * 0.3) * vm.planes, x, vm.degree)
    rep = T.check_conjugate(T.ConjugatePair(vp, shifted))
    assert abs(rep.marker_defect - abs(np.exp(2j * np.pi * 0.3) - 1)) < 1e-6


def test_check_conjugate_rejects_naive_double():
    # v- = v+ (the reflection-through-the-fold construction): the marker
    # condition fails away from the reference direction
    vp, _, x = family_samples(0.5, 1.0)
    rep = T.check_conjugate(T.ConjugatePair(vp, vp))
    assert rep.marker_defect > 0.1


@pytest.mark.parametrize("where", [0, 1, 4])
def test_report_maxima_keep_nan(where):
    # Python's max drops a NaN that follows a float; the reports must not
    values = [1e-12, 0.0, 3e-13, 0.0, 0.0]
    values[where] = np.nan
    assert np.isnan(T.ConjugacyReport(*values).max_residual())
    assert np.isnan(T.FlatFoldReport(*values[:3]).max_residual()) == \
        (where < 3)
    assert T.ConjugacyReport(1e-12, 0.0, 3e-13, 0.0, 0.0).max_residual() \
        == 1e-12


@pytest.mark.parametrize("bad", ["f", "l", "period"])
def test_conjugate_partner_rejects_nan_inputs(bad, monkeypatch):
    vp, _, x = family_samples(0.5, 1.0, M=64)
    res = T.residual_H(vp)
    if bad == "period":
        monkeypatch.setattr(T, "check_periods", lambda v: np.nan)
    else:
        nan_res = T.HResidual(np.nan if bad == "f" else res.f_residual,
                              np.nan if bad == "l" else res.l_residual)
        monkeypatch.setattr(T, "residual_H", lambda v: nan_res)
    with pytest.raises(VerificationError):
        T.conjugate_partner(vp, x)


def test_conjugate_partner_matches_closed_form():
    for c, m in [(0.5 + 0.2j, np.exp(0.7j)), (0.0, 1.0), (0.85j, np.exp(-1.1j))]:
        vp, vm, x = family_samples(c, m)
        built = T.conjugate_partner(vp, x)
        assert np.max(np.abs(built.rings - vm.rings)) < 1e-7
        assert built.degree == -1
        rep = T.check_conjugate(T.ConjugatePair(vp, built))
        assert rep.max_residual() < 1e-7


def _twisted_family_sample(c, m, beta):
    r0 = np.sqrt(1 - c ** 2)
    x = CharacteristicParam(m)
    vplus, vminus = family_maps(c, m)

    def h(z):
        return np.real(beta * r0 / z)

    def twisted_plus(z):
        return np.exp(2j * np.pi * h(z)) * vplus(z)

    def twisted_minus(z):
        return np.exp(-2j * np.pi * h(z)) * vminus(z)

    vp = T.sample_tunnel_map(twisted_plus, r0, M, x, 1)
    vm = T.sample_tunnel_map(twisted_minus, r0, M, x, -1)
    return vp, vm, x


def test_conjugate_partner_twisted_family():
    # flow-twisting by a decaying harmonic function preserves the
    # tunneling equations and sends the partner to the oppositely
    # twisted closed form; this drives the Neumann solve with honestly
    # nonzero boundary data
    vp, vm_expected, x = _twisted_family_sample(0.45, np.exp(0.5j), 0.07)
    res = T.residual_H(vp)
    assert max(res.f_residual, res.l_residual) < 1e-7
    built = T.conjugate_partner(vp, x)
    assert np.max(np.abs(built.rings - vm_expected.rings)) < 1e-7
    rep = T.check_conjugate(T.ConjugatePair(vp, built))
    assert rep.max_residual() < 1e-7


def _reference_partner_rings(v_plus, g0):
    # per-ring transition phases, as the broadcast must reproduce bitwise
    t_plus = float(T.puncture_parameters(v_plus, n_dirs=1)[0])
    const = -2.0 * t_plus
    th = sp.angles(v_plus.m)
    winding = -2 * v_plus.degree
    rings = np.empty_like(v_plus.rings)
    for i, r in enumerate(v_plus.radii()):
        g_single = np.real(g0.trace(r)) if g0 is not None else 0.0
        g_tot = winding * th / T.TWO_PI + g_single + const
        rings[i] = np.exp(2j * np.pi * g_tot)[:, None] * v_plus.rings[i]
    return rings


@pytest.mark.parametrize("twisted", [False, True])
def test_conjugate_partner_matches_per_ring_loop(twisted):
    if twisted:
        vp, _, x = _twisted_family_sample(0.45, np.exp(0.5j), 0.07)
    else:
        vp, _, x = family_samples(0.5 + 0.2j, np.exp(0.7j))
    data = 2.0 * T.derived_fields(vp).alpha_u[0]
    data = data - np.mean(data)
    g0 = solve_neumann_vanishing(BoundaryLoopSamples(data, vp.rho),
                                   ExteriorPunctured(vp.rho)) \
        if twisted else None
    built = T.conjugate_partner(vp, x)
    assert np.array_equal(built.rings, _reference_partner_rings(vp, g0))


def test_conjugate_partner_involutive():
    vp, _, x = family_samples(0.6, np.exp(0.25j))
    back = T.conjugate_partner(T.conjugate_partner(vp, x), x)
    assert np.max(np.abs(back.rings - vp.rings)) < 1e-7


def test_conjugate_partner_characteristic_circle():
    # one-dimensional image: v+ on the characteristic itself (c = 0);
    # the hand oracle from the marker law is the reflected parametrization
    vp, vm, x = family_samples(0.0, 1.0)
    built = T.conjugate_partner(vp, x)
    th = sp.angles(M)
    expected = np.exp(-1j * th)  # first component of the reflected map
    assert np.max(np.abs(built.rings[0, :, 0] - expected)) < 1e-9


def test_lambda_vanishes_after_partner():
    vp, _, x = family_samples(0.55, np.exp(0.4j))
    vm = T.conjugate_partner(vp, x)
    rep = T.check_conjugate(T.ConjugatePair(vp, vm))
    assert rep.lambda_residual < 1e-8


def test_tunneling_energies_agree():
    vp, vm, x = family_samples(0.62, np.exp(1.9j))
    ep = T.tunneling_omega_energy(vp)
    em = T.tunneling_omega_energy(vm)
    assert abs(ep - em) < 1e-7
    assert abs(ep - abs(0.62) ** 2) < 1e-7


# ---------------------------------------------------------------------------
# flat fold


def test_flat_fold_instance():
    out, _ = T.flat_fold_apply(0.0, np.array([np.exp(1j * np.pi / 2)]),
                               np.array([0.3 + 0.4j]))
    assert abs(out[0] - np.exp(-1j * np.pi / 2)) < 1e-15


def test_flat_fold_half_period_and_graph():
    th = np.exp(2j * np.pi * np.arange(64) / 64)
    torus = RNG.normal(size=64) + 1j * RNG.normal(size=64)
    for theta0 in (0.0, 0.21, 0.37):
        rep = T.flat_fold_diagonal_check(theta0, th, torus)
        assert rep.graph_residual < 1e-12
        assert rep.half_period_residual < 1e-12
        assert rep.torus_fixed_residual == 0.0


def test_flat_fold_torus_fixed_random():
    th = np.exp(2j * np.pi * RNG.uniform(size=100))
    torus = RNG.normal(size=100)
    _, tout = T.flat_fold_apply(0.13, th, torus)
    assert np.array_equal(tout, torus)
