import numpy as np
import pytest

from foldedmaps import _spectral as sp
from foldedmaps import harmonic as H
from foldedmaps.errors import (DomainError, PeriodObstructionError,
                               ResolutionError)
from foldedmaps.sphere import CharacteristicParam

RNG = np.random.default_rng(424242)
M = 128
TH = sp.angles(M)


# ---------------------------------------------------------------------------
# samples container


def test_power_of_two_required():
    with pytest.raises(DomainError):
        H.BoundaryLoopSamples(np.zeros(100))


def test_resolution_invariant():
    good = H.BoundaryLoopSamples(np.cos(3 * TH))
    good.check_resolution()
    noisy = H.BoundaryLoopSamples(np.cos((M // 2 - 1) * TH))
    with pytest.raises(ResolutionError):
        noisy.check_resolution()


# ---------------------------------------------------------------------------
# Dirichlet


def test_dirichlet_first_harmonic_disk():
    f = H.solve_dirichlet(H.BoundaryLoopSamples(np.cos(TH)), H.Disk(1.0))
    # field is Re(z): single +-1 modes with coefficient 1/2
    c = f.coeffs
    n = sp.modes(M)
    assert abs(c[n == 1][0] - 0.5) < 1e-14
    assert abs(c[n == -1][0] - 0.5) < 1e-14
    assert np.max(np.abs(np.delete(c, [1, M - 1]))) < 1e-14


def test_dirichlet_constant():
    f = H.solve_dirichlet(H.BoundaryLoopSamples(np.ones(M)), H.Disk(1.0))
    assert np.max(np.abs(np.real(f.trace(0.3)) - 1.0)) < 1e-14


def test_dirichlet_exterior_decay_mode():
    # oracle: the mode solution of cos(3 theta) decays like r^-3
    f = H.solve_dirichlet(H.BoundaryLoopSamples(np.cos(3 * TH)),
                          H.ExteriorPunctured(1.0))
    for r in (1.5, 2.0, 4.0):
        assert np.max(np.abs(np.real(f.trace(r)) - r ** -3 * np.cos(3 * TH))) < 1e-13


def test_dirichlet_band_limited_exactness():
    # every mode below M/4 reproduced to 1e-10 relative error
    for k in (1, 2, 5, 11, M // 4):
        data = np.cos(k * TH) + 0.3 * np.sin(k * TH)
        f = H.solve_dirichlet(H.BoundaryLoopSamples(data), H.Disk(1.0))
        r = 0.7
        exact = r ** k * data
        assert np.max(np.abs(np.real(f.trace(r)) - exact)) < 1e-10 * max(
            1.0, np.max(np.abs(exact)))


def test_dirichlet_maximum_principle():
    for _ in range(5):
        c = RNG.normal(size=6)
        data = sum(c[k] * np.cos((k + 1) * TH) for k in range(3))
        data += sum(c[k + 3] * np.sin((k + 1) * TH) for k in range(3))
        f = H.solve_dirichlet(H.BoundaryLoopSamples(data), H.Disk(1.0))
        mx = np.max(data)
        for r in (0.2, 0.5, 0.9):
            vals = np.real(f.eval_at(r, RNG.uniform(0, 2 * np.pi, size=40)))
            assert np.max(vals) <= mx + 1e-9


def test_annulus_requires_two_arrays():
    with pytest.raises(DomainError):
        H.solve_dirichlet(H.BoundaryLoopSamples(np.cos(TH)),
                          H.Annulus(0.5, 2.0))
    with pytest.raises(DomainError):
        H.solve_dirichlet(H.BoundaryLoopSamples(np.cos(TH)), H.Disk(1.0),
                          H.BoundaryLoopSamples(np.cos(TH)))


def test_annulus_solution_matches_both_traces():
    inner = H.BoundaryLoopSamples(np.cos(TH) - 0.4, radius=0.5)
    outer = H.BoundaryLoopSamples(2 * np.sin(TH) + 1.0, radius=2.0)
    f = H.solve_dirichlet(inner, H.Annulus(0.5, 2.0), outer)
    assert np.max(np.abs(np.real(f.trace(0.5)) - inner.values)) < 1e-12
    assert np.max(np.abs(np.real(f.trace(2.0)) - outer.values)) < 1e-12
    # harmonicity oracle: radial mean value log-linear in r for the n=0 part
    means = [np.mean(np.real(f.trace(r))) for r in (0.5, 1.0, 2.0)]
    slope1 = (means[1] - means[0]) / np.log(2.0)
    slope2 = (means[2] - means[1]) / np.log(2.0)
    assert abs(slope1 - slope2) < 1e-12


# ---------------------------------------------------------------------------
# Neumann with vanishing at the puncture


def test_neumann_zero_data():
    g = H.solve_neumann_vanishing(H.BoundaryLoopSamples(np.zeros(M)),
                                  H.ExteriorPunctured(1.0))
    assert np.max(np.abs(g.trace(3.0))) < 1e-14


def test_neumann_single_mode_oracle():
    # oracle: g = cos(theta) (rho/r) has dg o j(d_theta) = -r dg/dr = cos
    g = H.solve_neumann_vanishing(H.BoundaryLoopSamples(np.cos(TH)),
                                  H.ExteriorPunctured(1.0))
    for r in (1.0, 2.0):
        assert np.max(np.abs(np.real(g.trace(r)) - np.cos(TH) / r)) < 1e-13


def test_neumann_solvability():
    with pytest.raises(PeriodObstructionError):
        H.solve_neumann_vanishing(H.BoundaryLoopSamples(np.cos(TH) - 0.3),
                                  H.ExteriorPunctured(1.0))


def test_neumann_wrong_kind():
    with pytest.raises(DomainError):
        H.solve_neumann_vanishing(H.BoundaryLoopSamples(np.cos(TH)),
                                  H.Disk(1.0))


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_disk():
    f = H.solve_dirichlet(H.BoundaryLoopSamples(np.cos(TH)), H.Disk(1.0))
    g = H.harmonic_conjugate(f)
    assert np.max(np.abs(np.real(g.trace()) - np.sin(TH))) < 1e-13


def test_conjugate_exterior_mode_oracle():
    # f = Re z^-2 on the exterior -> g = Im z^-2
    f = H.solve_dirichlet(H.BoundaryLoopSamples(np.cos(2 * TH)),
                          H.ExteriorPunctured(1.0))
    g = H.harmonic_conjugate(f)
    assert np.max(np.abs(np.real(g.trace()) - (-np.sin(2 * TH)))) < 1e-13
    for r in (1.5, 3.0):
        assert np.max(np.abs(np.real(g.trace(r)) - (-np.sin(2 * TH) / r ** 2))) < 1e-13


def test_conjugate_twice_is_minus_plus_const():
    data = np.cos(TH) + 0.5 * np.sin(4 * TH) + 2.0
    f = H.solve_dirichlet(H.BoundaryLoopSamples(data), H.Disk(1.0))
    gg = H.harmonic_conjugate(H.harmonic_conjugate(f))
    diff = np.real(gg.trace()) + data
    assert np.max(np.abs(diff - np.mean(diff))) < 1e-12


def test_conjugate_pair_cauchy_riemann():
    # F = f + i g is holomorphic: finite-difference CR residual on a grid
    data = np.cos(TH) - 0.7 * np.sin(3 * TH)
    f = H.solve_dirichlet(H.BoundaryLoopSamples(data), H.Disk(1.0))
    g = H.harmonic_conjugate(f)
    h = 1e-5
    worst = 0.0
    for r in (0.4, 0.7):
        for t in np.linspace(0, 2 * np.pi, 7)[:-1]:
            def F(rr, tt):
                return complex(np.real(f.eval_at(rr, np.array([tt]))[0])
                               + 1j * np.real(g.eval_at(rr, np.array([tt]))[0]))
            dr = (F(r + h, t) - F(r - h, t)) / (2 * h)
            dt = (F(r, t + h) - F(r, t - h)) / (2 * h)
            # CR in polar form: dF/dr + (i/r) dF/dtheta = 0 fails for
            # holomorphic... the correct relation is dF/dtheta = i r dF/dr
            worst = max(worst, abs(dt - 1j * r * dr))
    assert worst < 1e-9


def test_conjugate_annulus_obstructed():
    inner = H.BoundaryLoopSamples(np.cos(TH), radius=0.5)
    outer = H.BoundaryLoopSamples(np.cos(TH), radius=2.0)
    f = H.solve_dirichlet(inner, H.Annulus(0.5, 2.0), outer)
    with pytest.raises(DomainError):
        H.harmonic_conjugate(f)


# ---------------------------------------------------------------------------
# periods


def test_period_exact_differential():
    samples = H.BoundaryLoopSamples(np.cos(5 * TH) - 2 * np.sin(2 * TH))
    assert abs(H.boundary_period(samples)) < 1e-12


def test_period_dtheta():
    assert abs(H.boundary_period(H.BoundaryLoopSamples(np.ones(M)))
               - 2 * np.pi) < 1e-12


# ---------------------------------------------------------------------------
# Qtilde


def test_qtilde_zero():
    f, g = H.solve_Qtilde(H.BoundaryLoopSamples(np.zeros(M)))
    assert np.max(np.abs(f.values)) < 1e-14
    assert np.max(np.abs(g.values)) < 1e-14


def test_qtilde_single_mode():
    f, g = H.solve_Qtilde(H.BoundaryLoopSamples(np.cos(TH)))
    assert np.max(np.abs(f.values - np.cos(TH))) < 1e-13
    assert np.max(np.abs(g.values - (-np.sin(TH)))) < 1e-13


def test_qtilde_constant():
    f, g = H.solve_Qtilde(H.BoundaryLoopSamples(np.full(M, 0.7)))
    assert np.max(np.abs(f.values - 0.7)) < 1e-14
    assert np.max(np.abs(g.values)) < 1e-14


def test_qtilde_linearity():
    a, b = 1.3, -0.8
    z1 = np.cos(TH) + 0.2 * np.sin(3 * TH)
    z2 = np.sin(2 * TH) - 0.5
    f1, g1 = H.solve_Qtilde(H.BoundaryLoopSamples(z1))
    f2, g2 = H.solve_Qtilde(H.BoundaryLoopSamples(z2))
    f3, g3 = H.solve_Qtilde(H.BoundaryLoopSamples(a * z1 + b * z2))
    assert np.max(np.abs(f3.values - a * f1.values - b * f2.values)) < 1e-10
    assert np.max(np.abs(g3.values - a * g1.values - b * g2.values)) < 1e-10


# ---------------------------------------------------------------------------
# degree-d normalization function


def test_f_degree_d_family_case():
    x = CharacteristicParam(1.0)
    fd = H.solve_f_degree_d(H.BoundaryLoopSamples(np.zeros(M)),
                            x.point(0.0), x, 1)
    assert fd.puncture_pole_order == -2
    # multiplier is exactly z^-2 (unit phase fixed by the marker at x(0))
    assert np.max(np.abs(fd.multiplier_samples() - np.exp(-2j * TH))) < 1e-13
    assert np.max(np.abs(fd.multiplier_samples(2.0)
                         - 0.25 * np.exp(-2j * TH))) < 1e-13


def test_f_degree_d_marker_phase():
    x = CharacteristicParam(1.0)
    fd = H.solve_f_degree_d(H.BoundaryLoopSamples(np.zeros(M)),
                            x.point(0.25), x, 1)
    assert np.max(np.abs(fd.multiplier_samples()
                         - 1j * np.exp(-2j * TH))) < 1e-12


def test_f_degree_d_zero_data_zero_marker_degree_zero():
    x = CharacteristicParam(1.0)
    fd = H.solve_f_degree_d(H.BoundaryLoopSamples(np.zeros(M)),
                            x.point(0.0), x, 0)
    assert np.max(np.abs(fd.coeffs)) < 1e-14  # the log object vanishes
    assert np.max(np.abs(fd.multiplier_samples() - 1.0)) < 1e-13


def test_f_degree_d_single_mode():
    # single-mode tangential data gives a single Laurent mode in the log
    data = np.cos(3 * TH)
    x = CharacteristicParam(1.0)
    fd = H.solve_f_degree_d(H.BoundaryLoopSamples(data), x.point(0.0), x, 2)
    n = sp.modes(M)
    c = fd.coeffs
    exact = np.zeros(M, dtype=complex)
    # Re F boundary = antiderivative of -2 cos 3t = -(2/3) sin 3t;
    # exterior completion kills the positive mode
    exact[n == -3] = (-2.0 / 3.0) * (-1.0 / (2j)) * 2.0
    assert np.max(np.abs(c - exact)) < 1e-13
    assert fd.check_support()


def test_f_degree_d_period_error():
    x = CharacteristicParam(1.0)
    with pytest.raises(PeriodObstructionError):
        H.solve_f_degree_d(H.BoundaryLoopSamples(np.cos(TH) + 0.2),
                           x.point(0.0), x, 1)


def test_f_degree_d_marker_off_characteristic():
    from foldedmaps.sphere import FoldPoint
    x = CharacteristicParam(1.0)
    with pytest.raises(DomainError):
        H.solve_f_degree_d(H.BoundaryLoopSamples(np.zeros(M)),
                           FoldPoint(0.6, 0.8), x, 1)


def test_field_support_invariants():
    f = H.solve_dirichlet(H.BoundaryLoopSamples(np.exp(2j * TH)), H.Disk(1.0))
    assert f.check_support()
    g = H.solve_dirichlet(H.BoundaryLoopSamples(np.exp(-3j * TH)),
                          H.ExteriorPunctured(1.0))
    assert g.check_support()


# ---------------------------------------------------------------------------
# evaluation on radius arrays


def _decaying_coeffs(scale):
    c = RNG.normal(size=M) + 1j * RNG.normal(size=M)
    return c * np.exp(-scale * np.abs(sp.modes(M)))


@pytest.mark.parametrize("kind, radii", [
    (H.Disk(1.5), np.linspace(0.05, 1.5, 41)),
    (H.ExteriorPunctured(1.3), 1.3 * np.exp(np.arange(0.0, 8.02, 0.04))),
    (H.Annulus(0.5, 2.0), np.linspace(0.5, 2.0, 41)),
])
@pytest.mark.parametrize("pole", [0, -2, -6])
def test_radius_array_matches_per_radius_stack(kind, radii, pole):
    # the 0.8 decay keeps r^n and r^-n bounded on the annulus
    c = _decaying_coeffs(0.8)
    coeffs = np.stack([c, np.conj(c)]) if isinstance(kind, H.Annulus) else c
    f = H.LaurentField(kind, coeffs, pole)
    trace = f.trace(radii)
    mult = f.multiplier_samples(radii)
    assert trace.shape == mult.shape == (len(radii), M)
    assert trace.tobytes() == np.stack([f.trace(r) for r in radii]).tobytes()
    assert mult.tobytes() == \
        np.stack([f.multiplier_samples(r) for r in radii]).tobytes()
    assert f.trace().tobytes() == f.trace(f.boundary_radius()).tobytes()


def test_radius_array_domain_checks():
    f = H.LaurentField(H.Disk(1.0), _decaying_coeffs(0.5))
    with pytest.raises(DomainError):
        f.trace(np.array([0.5, 1.5]))
    g = H.LaurentField(H.ExteriorPunctured(1.0), _decaying_coeffs(0.5))
    with pytest.raises(DomainError):
        g.multiplier_samples(np.array([2.0, 0.5]))


# ---------------------------------------------------------------------------
# radial derivative

# fields h(r, theta) with their analytic d/dr, and radii inside the domain
_KNOWN_FIELDS = {
    "disk": (
        H.Disk(1.5),
        lambda r, t: r ** 3 * np.exp(3j * t) + 0.5 * r ** 2 * np.exp(-2j * t)
        + 0.2,
        lambda r, t: 3 * r ** 2 * np.exp(3j * t) + r * np.exp(-2j * t),
        np.linspace(0.05, 1.45, 8)),
    "exterior": (
        H.ExteriorPunctured(1.3),
        lambda r, t: np.exp(-2j * t) / r ** 2 + 0.3 * np.exp(1j * t) / r
        + 0.7,
        lambda r, t: -2 * np.exp(-2j * t) / r ** 3
        - 0.3 * np.exp(1j * t) / r ** 2,
        1.3 * np.exp(np.linspace(0.01, 3.0, 8))),
}


@pytest.mark.parametrize("name", sorted(_KNOWN_FIELDS))
@pytest.mark.parametrize("pole", [0, -4])
def test_radial_derivative_of_known_field(name, pole):
    kind, h, dh, radii = _KNOWN_FIELDS[name]
    rho = kind.rho
    coeffs = H.solve_dirichlet(H.BoundaryLoopSamples(h(rho, TH), rho),
                               kind).coeffs
    f = H.LaurentField(kind, coeffs, pole)
    for r in radii:
        d = f.radial_derivative(r)
        assert np.max(np.abs(d - dh(r, TH))) < 1e-12
        eps = 1e-5 * r
        centred = (f.trace(r + eps) - f.trace(r - eps)) / (2 * eps)
        assert np.max(np.abs(d - centred)) < 1e-8
        # the multiplier exp(F) (r/rho)^k e^{ik theta} has d/dr
        # exp(F) (r/rho)^k e^{ik theta} (dF/dr + k/r)
        dmult = f.multiplier_samples(r) * (d + pole / r)
        centred = (f.multiplier_samples(r + eps)
                   - f.multiplier_samples(r - eps)) / (2 * eps)
        assert np.max(np.abs(dmult - centred)) \
            < 1e-8 * max(1.0, float(np.max(np.abs(dmult))))


@pytest.mark.parametrize("kind, radii", [
    (H.Disk(1.5), np.linspace(0.05, 1.5, 41)),
    (H.ExteriorPunctured(1.3), 1.3 * np.exp(np.arange(0.0, 8.02, 0.04))),
])
@pytest.mark.parametrize("pole", [0, -6])
def test_radial_derivative_radius_array_matches_per_radius_stack(kind, radii,
                                                                 pole):
    f = H.LaurentField(kind, _decaying_coeffs(0.8), pole)
    d = f.radial_derivative(radii)
    assert d.shape == (len(radii), M)
    assert d.tobytes() == \
        np.stack([f.radial_derivative(r) for r in radii]).tobytes()
    assert f.radial_derivative().tobytes() == \
        f.radial_derivative(f.boundary_radius()).tobytes()


def test_radial_derivative_domain_checks():
    c = _decaying_coeffs(0.5)
    with pytest.raises(DomainError):
        H.LaurentField(H.Annulus(0.5, 2.0), np.stack([c, c])
                       ).radial_derivative(1.0)
    with pytest.raises(DomainError):
        H.LaurentField(H.Disk(1.0), c).radial_derivative(np.array([0.5, 1.5]))
    with pytest.raises(DomainError):
        H.LaurentField(H.Disk(1.0), c).radial_derivative(0.0)
    with pytest.raises(DomainError):
        H.LaurentField(H.ExteriorPunctured(1.0), c).radial_derivative(
            np.array([2.0, 0.5]))
