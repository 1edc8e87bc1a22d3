import sys
import threading

import numpy as np
import pytest

from foldedmaps import _spectral as sp
from foldedmaps import tunneling as T
from foldedmaps.errors import (DomainError, GapSignError,
                               NonTransverseCrossingError)
from foldedmaps.harmonic import BoundaryLoopSamples
from foldedmaps.sphere import CharacteristicParam

RNG = np.random.default_rng(90125)
M = 256


def family_maps(c, m):
    def vplus(z):
        w = np.stack([m * z, np.full_like(z, m * c)], axis=-1)
        return w / np.linalg.norm(w, axis=-1, keepdims=True)

    def vminus(z):
        w = np.stack([m / z, m * c / z ** 2], axis=-1)
        return w / np.linalg.norm(w, axis=-1, keepdims=True)

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
    """Per-ring Fornberg weights, evaluated afresh for every ring."""
    r = len(u)
    out = np.empty_like(values, dtype=complex)
    for i in range(r):
        lo = min(max(i - width // 2, 0), r - width)
        w = sp.fd_weights(u[lo:lo + width], float(u[i]), 1)
        out[i] = np.tensordot(w, values[lo:lo + width], axes=(0, 0))
    return out


def ladder_values(n_rings):
    shape = (n_rings, 16, 2)
    return RNG.normal(size=shape) + 1j * RNG.normal(size=shape)


@pytest.mark.parametrize("u", [T.default_ring_u(),
                               np.cumsum(np.linspace(0.01, 0.08, 60))],
                         ids=["default", "nonuniform"])
def test_d_u_cached_stencil_matches_direct(u):
    vals = ladder_values(len(u))
    assert T._d_u(vals, u).tobytes() == d_u_direct(vals, u).tobytes()
    weights, starts = T._ladder_stencil(tuple(u.tolist()), 9)
    assert not weights.flags.writeable and not starts.flags.writeable


def test_d_theta_matches_per_ring():
    vals = ladder_values(7)
    expected = np.stack([
        np.stack([sp.theta_derivative(vals[i, :, c]) for c in (0, 1)], axis=1)
        for i in range(7)])
    assert np.ascontiguousarray(T._d_theta(vals)).tobytes() == expected.tobytes()
    real = vals[..., 0].real
    expected = np.stack([sp.theta_derivative(real[i]) for i in range(7)])
    assert np.ascontiguousarray(T._d_theta(real)).tobytes() == expected.tobytes()


def test_d_u_stencil_is_per_ladder():
    u1 = T.default_ring_u()
    u2 = 1.5 * u1
    vals = ladder_values(len(u1))
    d1 = T._d_u(vals, u1)
    d2 = T._d_u(vals, u2)
    assert d2.tobytes() == d_u_direct(vals, u2).tobytes()
    assert not np.allclose(d1, d2)
    assert T._ladder_stencil(tuple(u1.tolist()), 9)[0] \
        is not T._ladder_stencil(tuple(u2.tolist()), 9)[0]


def test_d_u_stencil_cache_under_threads():
    ladders = [np.cumsum(np.full(40, 0.01 * (k + 1))) for k in range(6)]
    vals = ladder_values(40)
    expected = [d_u_direct(vals, u) for u in ladders]
    failures = []

    def worker(k):
        for j in range(20):
            n = (k + j) % len(ladders)
            if T._d_u(vals, ladders[n]).tobytes() != expected[n].tobytes():
                failures.append((k, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        T._ladder_stencil.cache_clear()
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


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
        out = np.zeros(z.shape + (2,), dtype=complex)
        out[..., 0] = 0.6
        out[..., 1] = 0.8j
        return out

    v = T.sample_tunnel_map(const, 1.0, 64, CharacteristicParam(1.0), 0,
                            ring_u=np.linspace(0, 1, 32))
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
    vp, _, x = family_samples(0.3, 1.0)
    short = T.TunnelMapSample(vp.rho, vp.ring_u[:2], vp.rings[:2], x, 1)
    with pytest.raises(DomainError):
        T.residual_H(short)


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
        out = np.zeros(z.shape + (2,), dtype=complex)
        out[..., 0] = np.exp(2j * np.pi * t)
        return out

    v = T.sample_tunnel_map(bad, 1.0, 64, CharacteristicParam(1.0), 0,
                            ring_u=np.linspace(0, 0.5, 24))
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
        out = np.zeros(z.shape + (2,), dtype=complex)
        out[..., 0] = 1.0
        return out

    v = T.sample_tunnel_map(const, 1.0, 64, CharacteristicParam(1.0), 0,
                            ring_u=np.linspace(0, 2, 48))
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
        out = np.zeros(z.shape + (2,), dtype=complex)
        out[..., 0] = np.exp(2j * np.pi * 5 * t)
        return out

    v = T.sample_tunnel_map(spiral, 1.0, 64, CharacteristicParam(1.0), 0,
                            ring_u=np.linspace(0, 3, 64))
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


# ---------------------------------------------------------------------------
# conjugacy


def test_check_conjugate_family():
    for c, m in [(0.5 + 0.2j, np.exp(0.7j)), (0.75, 1.0), (0.2j, np.exp(2j))]:
        vp, vm, x = family_samples(c, m)
        rep = T.check_conjugate(T.make_conjugate_pair(vp, vm, x))
        assert rep.max_residual() < 1e-8, (c, m, rep)


def test_conjugate_base_projections_agree():
    vp, vm, x = family_samples(0.4 + 0.4j, 1.0)
    rep = T.check_conjugate(T.make_conjugate_pair(vp, vm, x))
    assert rep.base_distance < 1e-8


def test_check_conjugate_detects_flow_shift():
    vp, vm, x = family_samples(0.5, 1.0)
    shifted = T.TunnelMapSample(
        vm.rho, vm.ring_u,
        np.exp(2j * np.pi * 0.3) * vm.rings, x, vm.degree)
    rep = T.check_conjugate(T.make_conjugate_pair(vp, shifted, x))
    assert abs(rep.marker_defect - abs(np.exp(2j * np.pi * 0.3) - 1)) < 1e-6


def test_check_conjugate_rejects_naive_double():
    # v- = v+ (the reflection-through-the-fold construction): the marker
    # condition fails away from the reference direction
    vp, _, x = family_samples(0.5, 1.0)
    rep = T.check_conjugate(T.make_conjugate_pair(vp, vp, x))
    assert rep.marker_defect > 0.1


def test_conjugate_partner_matches_closed_form():
    for c, m in [(0.5 + 0.2j, np.exp(0.7j)), (0.0, 1.0), (0.85j, np.exp(-1.1j))]:
        vp, vm, x = family_samples(c, m)
        built = T.conjugate_partner(vp, x)
        assert np.max(np.abs(built.rings - vm.rings)) < 1e-7
        assert built.degree == -1
        rep = T.check_conjugate(T.make_conjugate_pair(vp, built, x))
        assert rep.max_residual() < 1e-7


def test_conjugate_partner_twisted_family():
    # flow-twisting by a decaying harmonic function preserves the
    # tunneling equations and sends the partner to the oppositely
    # twisted closed form; this drives the Neumann solve with honestly
    # nonzero boundary data
    c, m, beta = 0.45, np.exp(0.5j), 0.07
    r0 = np.sqrt(1 - c ** 2)
    x = CharacteristicParam(m)
    vplus, vminus = family_maps(c, m)

    def h(z):
        return np.real(beta * r0 / z)

    def twisted_plus(z):
        return np.exp(2j * np.pi * h(z))[..., None] * vplus(z)

    def twisted_minus(z):
        return np.exp(-2j * np.pi * h(z))[..., None] * vminus(z)

    vp = T.sample_tunnel_map(twisted_plus, r0, M, x, 1)
    res = T.residual_H(vp)
    assert max(res.f_residual, res.l_residual) < 1e-7
    vm_expected = T.sample_tunnel_map(twisted_minus, r0, M, x, -1)
    built = T.conjugate_partner(vp, x)
    assert np.max(np.abs(built.rings - vm_expected.rings)) < 1e-7
    rep = T.check_conjugate(T.make_conjugate_pair(vp, built, x))
    assert rep.max_residual() < 1e-7


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
    rep = T.check_conjugate(T.make_conjugate_pair(vp, vm, x))
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
