import dataclasses

import numpy as np
import pytest

from foldedmaps import sphere as S
from foldedmaps import _spectral as sp
from foldedmaps.errors import DomainError

RNG = np.random.default_rng(20240811)
EPS = np.finfo(float).eps


def random_fold_point(rng=RNG):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return S.FoldPoint(complex(v[0], v[1]), complex(v[2], v[3]))


# ---------------------------------------------------------------------------
# charts


def test_embed_pole():
    p = S.embed_hemisphere(+1, np.array([0.0, 0.0]))
    assert np.allclose(p.x, [1, 0, 0, 0, 0])


def test_embed_equator_fixed():
    p = S.embed_hemisphere(+1, np.array([1.0, 0.0]))
    assert np.allclose(p.x, [0, 1, 0, 0, 0])
    for _ in range(10):
        y = RNG.normal(size=4)
        y = y / np.linalg.norm(y)
        yc = np.array([complex(y[0], y[1]), complex(y[2], y[3])])
        q = S.embed_hemisphere(-1, yc)
        assert abs(q.x0) < 1e-14
        assert np.allclose(q.equator_part(), yc)


def test_embed_explicit_value():
    # direct arithmetic from the rational formula at y = (0.6, 0)
    p = S.embed_hemisphere(-1, np.array([0.6, 0.0]))
    assert abs(p.x0 - (-(1 - 0.36) / (1 + 0.36))) < 1e-15
    assert abs(p.x[1] - 1.2 / 1.36) < 1e-15


def test_embed_domain_error():
    with pytest.raises(DomainError):
        S.embed_hemisphere(+1, np.array([1.2, 0.0]))


def _random_ball_point(scale=0.9):
    y = RNG.normal(size=4)
    y = y / np.linalg.norm(y) * RNG.uniform(0, scale)
    return np.array([complex(y[0], y[1]), complex(y[2], y[3])])


def test_embed_involution_equivariance():
    for _ in range(20):
        yc = _random_ball_point()
        a = S.involution(S.embed_hemisphere(+1, yc))
        b = S.embed_hemisphere(-1, yc)
        assert np.allclose(a.x, b.x, atol=1e-15)


def test_chart_roundtrip():
    for _ in range(20):
        yc = _random_ball_point()
        p = S.embed_hemisphere(+1, yc)
        assert np.allclose(S.chart_of_hemisphere(p, +1), yc, atol=1e-14)


def test_project_equator():
    assert np.allclose(
        S.Point4Sphere(np.array([1.0, 0, 0, 0, 0])).equator_part(), [0, 0])
    assert np.allclose(
        S.Point4Sphere(np.array([0.0, 1, 0, 0, 0])).equator_part(), [1, 0])
    y = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    p = S.embed_hemisphere(+1, y)
    expected = 2 * y / (1 + np.real(np.vdot(y, y)))
    assert np.allclose(p.equator_part(), expected, atol=1e-15)


# ---------------------------------------------------------------------------
# contact structure


def test_alpha_of_reeb_is_one():
    for _ in range(25):
        p = random_fold_point()
        assert abs(S.alpha_eval(S.reeb_vector(p)) - 1.0) < 1e-12


def test_alpha_vanishes_on_contact_plane():
    for _ in range(25):
        p = random_fold_point()
        fr = S.fold_frame(p)
        assert abs(S.alpha_eval(fr.f1)) < 1e-12
        assert abs(S.alpha_eval(fr.f2)) < 1e-12


def test_alpha_explicit():
    p = S.FoldPoint(1.0, 0.0)
    v = S.TangentAtFold(p, 2j * np.pi * np.array([1.0, 0.0]))
    assert abs(S.alpha_eval(v) - 1.0) < 1e-14


def test_reeb_matches_flow_derivative():
    h = 1e-6
    for _ in range(10):
        p = random_fold_point()
        num = (p.flow(h).as_c2() - p.flow(-h).as_c2()) / (2 * h)
        assert np.allclose(num, S.reeb_vector(p).vec, atol=1e-8)


def test_reeb_matches_flow_derivative_downstream():
    # flow to t = 0.25, then differentiate numerically there
    h = 1e-6
    for _ in range(10):
        p = random_fold_point()
        q = p.flow(0.25)
        num = (p.flow(0.25 + h).as_c2() - p.flow(0.25 - h).as_c2()) / (2 * h)
        assert np.allclose(num, S.reeb_vector(q).vec, atol=1e-8)


def test_fold_frame_orthonormal():
    for _ in range(25):
        p = random_fold_point()
        m = S.fold_frame(p).matrix()
        gram = np.real(m.conj().T @ m)
        assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_frame_projections_complete():
    for _ in range(25):
        p = random_fold_point()
        v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        t = S.TangentAtFold(p, v, validate=False)
        k, l, chi = S.split_ekl_f(t)
        assert abs(k ** 2 + l ** 2 + abs(chi) ** 2
                   - np.linalg.norm(v) ** 2) < 1e-9


def test_pi_f_of_reeb_vanishes():
    for _ in range(10):
        p = random_fold_point()
        _, _, chi = S.split_ekl_f(S.reeb_vector(p))
        assert abs(chi) < 1e-12


def test_contact_plane_at_base_point():
    # at (1, 0) the contact plane is {(0, a)}
    fr = S.fold_frame(S.FoldPoint(1.0, 0.0))
    assert abs(fr.f1.vec[0]) < 1e-15
    assert abs(fr.f2.vec[0]) < 1e-15


# ---------------------------------------------------------------------------
# one-sided complex structures


def test_j_onesided_on_transverse_direction():
    for _ in range(10):
        p = random_fold_point()
        fr = S.fold_frame(p)
        r = S.reeb_vector(p)
        up = S.j_onesided(+1, fr.k)
        dn = S.j_onesided(-1, fr.k)
        assert np.allclose(up.vec, r.vec / (2 * np.pi), atol=1e-12)
        assert np.allclose(dn.vec, -r.vec / (2 * np.pi), atol=1e-12)


def test_j_onesided_agrees_on_contact_plane():
    for _ in range(10):
        p = random_fold_point()
        fr = S.fold_frame(p)
        for v in (fr.f1, fr.f2):
            up = S.j_onesided(+1, v)
            dn = S.j_onesided(-1, v)
            assert np.allclose(up.vec, 1j * v.vec, atol=1e-12)
            assert np.allclose(dn.vec, up.vec, atol=1e-12)


def test_j_onesided_squares_to_minus_one():
    for side in (+1, -1):
        for _ in range(10):
            p = random_fold_point()
            v = S.TangentAtFold(p, RNG.normal(size=2) + 1j * RNG.normal(size=2),
                                validate=False)
            jv = S.j_onesided(side, v)
            jjv = S.j_onesided(side, jv)
            assert np.allclose(jjv.vec, -v.vec, atol=1e-12)


# ---------------------------------------------------------------------------
# Hopf projection


def test_hopf_base_points():
    assert S.hopf_project(S.FoldPoint(1.0, 0.0)).distance(
        S.ProjectivePoint.of(np.array([1.0, 0.0]))) < 1e-14


def test_hopf_fiber_invariance():
    for _ in range(20):
        p = random_fold_point()
        t = RNG.uniform()
        assert S.hopf_project(p).distance(S.hopf_project(p.flow(t))) < 1e-12


def test_hopf_complex_linearity():
    # d(pi_V) restricted to F is complex linear: finite-difference check
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        p = random_fold_point()
        fr = S.fold_frame(p)
        f = fr.f1.vec

        def curve(vec, t):
            q = p.as_c2() + t * vec
            return S.hopf_project(S.normalize_to_fold(q)).bloch()

        d_f = (curve(f, h) - curve(f, -h)) / (2 * h)
        d_if = (curve(1j * f, h) - curve(1j * f, -h)) / (2 * h)
        # complex linearity on the base sphere: d(if) = rotation of d(f)
        # by 90 degrees about the base point axis
        n = S.hopf_project(p).bloch()
        rotated = np.cross(n, d_f)
        worst = max(worst, float(np.linalg.norm(d_if - rotated)))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# folded form and energies


def test_det_omega_sign_and_equator():
    np_pole = S.Point4Sphere(np.array([1.0, 0, 0, 0, 0]))
    sp_pole = S.Point4Sphere(np.array([-1.0, 0, 0, 0, 0]))
    assert S.det_omega(np_pole) > 0
    assert S.det_omega(sp_pole) < 0
    assert abs(S.det_omega(np_pole) - 2 / np.pi ** 2) < 1e-12
    eq = S.FoldPoint(0.6, 0.8).as_point4()
    assert abs(S.det_omega(eq)) < 1e-12


def test_det_omega_transverse_vanishing():
    h = 1e-5
    for _ in range(10):
        p = random_fold_point()
        pc = p.as_c2()

        def at(x0):
            r = np.sqrt(1 - x0 ** 2)
            v = r * pc
            return S.det_omega(S.Point4Sphere(np.array(
                [x0, v[0].real, v[0].imag, v[1].real, v[1].imag])))

        slope = (at(h) - at(-h)) / (2 * h)
        assert abs(slope) > 0.1


def test_det_omega_sign_change_along_meridian():
    p = S.FoldPoint(0.36 + 0.48j, 0.8)
    pc = p.as_c2()
    x0s = np.linspace(-0.5, 0.5, 21)
    vals = []
    for x0 in x0s:
        v = np.sqrt(1 - x0 ** 2) * pc
        vals.append(S.det_omega(S.Point4Sphere(np.array(
            [x0, v[0].real, v[0].imag, v[1].real, v[1].imag]))))
    vals = np.array(vals)
    assert np.all(np.sign(vals[x0s > 0.01]) > 0)
    assert np.all(np.sign(vals[x0s < -0.01]) < 0)


def _disk_grid(fn, dfn, nr, m):
    r, w = S.gauss_legendre_radial(nr)
    th = sp.angles(m)
    z = r[:, None] * np.exp(1j * th[None, :])
    dy = dfn(z) if dfn is not None else None
    return fn(z), r, w, dy


def test_energy_constant_map_zero():
    g = _disk_grid(lambda z: np.stack(
        [np.full_like(z, 0.3 + 0.1j), np.full_like(z, 0.2)]), None, 32, 64)
    assert abs(S.omega_energy(*g)) < 1e-13


def test_energy_equator_disk():
    # oracle: two resolutions of independent midpoint quadrature, Richardson
    def brute(n):
        hr = 1.0 / n
        rr = (np.arange(n) + 0.5) * hr
        tt = (np.arange(2 * n) + 0.5) * (2 * np.pi / (2 * n))
        z = rr[:, None] * np.exp(1j * tt[None, :])
        y = np.stack([z, np.zeros_like(z)])
        yv = S.equator_map(y)
        e = 1e-6
        dyr = (S.equator_map(np.stack([(rr[:, None] + e) * np.exp(1j * tt[None, :]),
                                       np.zeros_like(z)])) -
               S.equator_map(np.stack([(rr[:, None] - e) * np.exp(1j * tt[None, :]),
                                       np.zeros_like(z)]))) / (2 * e)
        dyt = np.gradient(yv, tt, axis=2)
        dens = np.imag(np.sum(np.conj(dyr) * dyt, axis=0)) / np.pi
        return np.sum(dens) * hr * (2 * np.pi / (2 * n))

    e1, e2 = brute(40), brute(80)
    oracle = e2 + (e2 - e1) / 3.0
    assert abs(oracle - 1.0) < 1e-3  # independent oracle pins the value 1

    g = _disk_grid(lambda z: np.stack([z, np.zeros_like(z)]),
                   lambda z: np.stack([np.exp(1j * np.angle(z)),
                                       np.zeros_like(z)]), 64, 128)
    assert abs(S.omega_energy(*g) - 1.0) < 1e-12


def _reference_diff_matrix(x):
    # the textbook double loop the vectorized matrix must reproduce bitwise
    n = len(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    wb = 1.0 / np.prod(diff, axis=1)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = wb[j] / (wb[i] * (x[i] - x[j]))
        d[i, i] = -np.sum(d[i, :])
    return d


@pytest.mark.parametrize("scale", [0.999, 1.0 / 0.999])
def test_barycentric_diff_matrix_matches_loop(scale):
    r, _ = S.gauss_legendre_radial(128)
    x = scale * r
    assert np.array_equal(S._barycentric_diff_matrix(x),
                          _reference_diff_matrix(x))


def test_barycentric_diff_matrix_differentiates_polynomials():
    n = 24
    x, _ = S.gauss_legendre_radial(n)
    d = S._barycentric_diff_matrix(x)
    for k in range(n):
        assert np.max(np.abs(d @ x ** k - k * x ** max(k - 1, 0))) < 1e-10


@pytest.mark.parametrize("c, m", [(0.0, 1.0), (0.5 + 0.2j, np.exp(0.7j)),
                                  (0.85j, np.exp(-1.1j))])
def test_omega_energy_barycentric_matches_exact_derivative(c, m):
    from foldedmaps import moduli as Mo
    for side in (1, -1):
        radii, weights, y, dy = Mo._family_planes(c, m, 128, 128, side)
        energy = S.omega_energy(y, radii, weights)
        assert abs(energy - S.omega_energy(y, radii, weights, dy)) < 1e-12
        # the einsum the matmul replaced, up to its summation order
        vals = S.equator_map(y)
        dr = np.einsum("ij,cjk->cik", _reference_diff_matrix(radii), vals)
        dt = sp.theta_derivative(vals)
        density = np.imag(np.sum(np.conj(dr) * dt, axis=0)) / np.pi
        ref = np.dot(weights, np.sum(density, axis=-1) * (2 * np.pi / 128))
        assert abs(energy - ref) <= 16 * np.finfo(float).eps * abs(ref)


def test_equator_map_on_one_vector():
    y = np.array([0.3 - 0.2j, 0.4j])
    dy = np.array([1.0, 0.5 - 0.1j])
    d = 1.0 + np.sum(np.abs(y) ** 2)
    assert np.allclose(S.equator_map(y), 2.0 * y / d, rtol=0, atol=1e-15)
    inner = np.real(np.vdot(y, dy))
    expected = 2.0 * dy / d - 4.0 * y * inner / d ** 2
    assert np.allclose(S.equator_map_differential(y, dy), expected,
                       rtol=0, atol=1e-15)


def _last(planes):
    """The (..., 2) view of a (2, ...) stack, the layout of the references."""
    return np.moveaxis(planes, 0, -1)


def _reference_grid_energy(y, radii, weights, dy=None):
    # the (nr, M, 2) formulas of equator_map, its differential and
    # omega_energy that the plane kernels must reproduce bitwise
    n2 = np.sum(np.abs(y) ** 2, axis=-1, keepdims=True)
    vals = 2.0 * y / (1.0 + n2)
    dvr = None
    if dy is not None:
        d = 1.0 + n2
        inner = np.sum(np.real(np.conj(y) * dy), axis=-1, keepdims=True)
        dvr = 2.0 * dy / d - 4.0 * y * inner / d ** 2
    dtheta = np.moveaxis(sp.theta_derivative(np.moveaxis(vals, 1, -1)), -1, 1)
    dr = dvr
    if dr is None:
        d = S._barycentric_diff_matrix(radii)
        flat = vals.reshape(len(vals), -1).view(float)
        dr = (d @ flat).view(complex).reshape(vals.shape)
    density = np.imag(np.sum(np.conj(dr) * dtheta, axis=2)) / np.pi
    ring_integrals = np.sum(density, axis=1) * (2.0 * np.pi / vals.shape[1])
    return vals, dvr, float(np.dot(weights, ring_integrals))


def _chart_sides(degree, m_res, nr, monkeypatch):
    """(chart, energy, exact d/dr planes) of both sides of a construction.

    degree 1 is the degree-1 family; higher degrees the curve
    (r0 m z^d, m c).  The energy is the one the construction integrated,
    and the d/dr planes, which the charts do not keep, are rebuilt with
    the construction's own `_family_planes` or `_curve_planes`.
    """
    if degree == 1:
        return _family_chart_sides(m_res, nr)
    return _curve_chart_sides(degree, m_res, nr, monkeypatch)


def _family_chart_sides(m_res, nr, c=0.4 - 0.3j, m=np.exp(0.9j)):
    from foldedmaps import moduli as Mo
    sides = []
    for s in (1, -1):
        radii, weights, y, dy = Mo._family_planes(c, m, m_res, nr, s)
        sides.append(Mo._chart(radii, weights, y, dy) + (dy,))
    return sides


def _curve_chart_sides(degree, m_res, nr, monkeypatch, c=0.4 - 0.3j,
                       m=np.exp(0.9j)):
    from foldedmaps import moduli as Mo
    r0m = np.sqrt(1 - abs(c) ** 2) * m
    curve = Mo.CurveInput(np.array([0] * degree + [r0m]),
                          np.array([m * c]), m)
    fields = []
    solve = Mo.solve_f_degree_d
    monkeypatch.setattr(Mo, "solve_f_degree_d",
                        lambda *args: fields.append(solve(*args))
                        or fields[-1])
    bundle = Mo.construct_degree_d(curve, m, m_res, nr)
    monkeypatch.undo()
    f_log, = fields
    return [(chart, bundle.energies[key],
             Mo._curve_planes(curve, f_log, f_log.kind.rho, m_res, nr, s)[3])
            for chart, key, s in ((bundle.chart_plus, "E_u_plus", 1),
                                  (bundle.chart_minus, "E_u_minus", -1))]


@pytest.mark.parametrize("degree", [1, 3])
def test_plane_grid_kernels_match_reference(degree, monkeypatch):
    for chart, energy, dy in _chart_sides(degree, 128, 48, monkeypatch):
        y, radii, weights = chart.planes, chart.radii, chart.weights
        # the exact radial derivatives the construction integrated
        vals, dvr, ref = _reference_grid_energy(_last(y), radii, weights,
                                                _last(dy))
        assert _last(S.equator_map(y)).tobytes() == vals.tobytes()
        assert _last(S.equator_map_differential(y, dy)).tobytes() \
            == dvr.tobytes()
        assert S.omega_energy(y, radii, weights, dy) == ref
        # the construction integrates the closed-form holomorphic density
        assert abs(energy - ref) <= 8 * EPS * abs(ref)
        # the barycentric derivative of the same values
        ref = _reference_grid_energy(_last(y), radii, weights)[2]
        assert S.omega_energy(y, radii, weights) == ref


def _reference_holomorphy_residual(values, radii):
    # the full-array formula that the ring-block sweep must reproduce
    m = values.shape[1]
    scale = max(float(np.max(np.abs(values))), 1e-300)
    coef = np.fft.fft(values, axis=1) / m
    n = sp.modes(m)
    window = np.abs(n) <= m // 4
    pos = window & (n >= 0)
    neg = window & (n < 0)
    ratio = (radii[:, None] / radii[-1]) ** n[None, pos.nonzero()[0]]
    predicted = coef[-1:, pos, :] * ratio[:, :, None]
    res_pos = float(np.max(np.abs(coef[:, pos, :] - predicted)))
    res_neg = float(np.max(np.abs(coef[:, neg, :])))
    return max(res_pos, res_neg) / scale


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("m_res, nr", [(2048, 44), (64, 48)],
                         ids=["blocks", "one-block"])
def test_ring_block_chart_passes_match_full_arrays(degree, m_res, nr,
                                                   monkeypatch):
    # M = 2048: blocks of 8 rings, the last one 4 rings long; M = 64: one
    # block of all the rings
    for chart, energy, dy in _chart_sides(degree, m_res, nr, monkeypatch):
        assert chart.holomorphy_residual() == _reference_holomorphy_residual(
            _last(chart.planes), chart.radii)
        # every chart's energy takes the ring-block pass over exact d/dr,
        # which the chart does not keep
        assert [f.name for f in dataclasses.fields(chart)] \
            == ["radii", "weights", "planes"]
        ref = _reference_grid_energy(_last(chart.planes), chart.radii,
                                     chart.weights, _last(dy))[2]
        assert abs(energy - ref) <= 8 * EPS * abs(ref)


def test_closed_form_chart_energy_matches_fft_route(monkeypatch):
    # the closed-form density of a holomorphic chart against the equator
    # map, its FFT d/dtheta and its exact radial differential: degree-1
    # family charts, and the degree-d construction's charts of the curves
    # (r0 m z^d, m c), d = 1..5
    cases = [_family_chart_sides(m_res, nr, c)
             for m_res, nr, c in ((256, 64, 0.4 - 0.3j), (2048, 44, 0.0),
                                  (2048, 44, 0.85j), (64, 48, -0.6 + 0.1j))]
    cases += [_curve_chart_sides(d, 256, 64, monkeypatch)
              for d in range(1, 6)]
    for sides in cases:
        for chart, energy, dy in sides:
            radii, weights = chart.radii, chart.weights
            y = chart.planes
            assert S.chart_omega_energy(y, dy, radii, weights) == energy
            ref = S.omega_energy(y, radii, weights, dy)
            assert abs(energy - ref) <= 8 * EPS * abs(ref)


def test_closed_form_chart_energy_needs_a_holomorphic_chart():
    # y = (conj z, 0) is antiholomorphic: the FFT route gives its energy
    # -1, while the holomorphic density, which assumes d/dtheta y =
    # i r dy, reads +1, the energy of y = (z, 0)
    r, w = S.gauss_legendre_radial(32)
    z = r[:, None] * np.exp(1j * sp.angles(64))[None, :]
    for fn, dfn, fft_energy in ((np.conj, lambda z: np.conj(z) / np.abs(z),
                                 -1.0),
                                (lambda z: z, lambda z: z / np.abs(z), 1.0)):
        y = np.stack([fn(z), np.zeros_like(z)])
        dy = np.stack([dfn(z), np.zeros_like(z)])
        ref = S.omega_energy(y, r, w, dy)
        assert abs(ref - fft_energy) < 1e-13
        assert abs(S.chart_omega_energy(y, dy, r, w) - 1.0) < 1e-13


def test_gauss_legendre_radial_is_cached_and_read_only():
    r, w = S.gauss_legendre_radial(32)
    again = S.gauss_legendre_radial(32)
    assert again[0] is r and again[1] is w
    assert not r.flags.writeable and not w.flags.writeable
    assert abs(np.sum(w) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        r[0] = 0.0


def test_energy_degenerate_grid_error():
    r, w = S.gauss_legendre_radial(4)
    with pytest.raises(DomainError, match="degenerate"):
        S.omega_energy(np.zeros((2, 1, 8)), np.array([0.5]), np.array([1.0]))
    with pytest.raises(DomainError, match="degenerate"):
        S.omega_energy(np.zeros((2, 4, 2)), r, w)
    with pytest.raises(DomainError, match="mismatch"):
        S.omega_energy(np.zeros((2, 3, 8)), r, w)
    # a d/dr of another shape would broadcast into a wrong energy
    with pytest.raises(DomainError, match="mismatch"):
        S.omega_energy(np.zeros((2, 4, 8)), r, w, np.zeros((2, 4, 1)))
    # the (nr, M, 2) layout is not a chart
    with pytest.raises(DomainError, match="shape"):
        S.omega_energy(np.zeros((4, 8, 2)), r, w)


def test_omega0_conventions():
    e1 = np.array([1.0, 0.0])
    assert abs(S.omega0(e1, 1j * e1) - 1.0) < 1e-15
    u = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    assert abs(S.omega0(u, v) + S.omega0(v, u)) < 1e-13


def test_characteristic_param():
    x = S.CharacteristicParam(np.exp(0.3j))
    p = x.point(0.2)
    assert abs(x.parameter_of(p) - 0.2) < 1e-12
    q = x.add(0.15, 0.25)
    assert abs(x.parameter_of(q) - 0.4) < 1e-12
