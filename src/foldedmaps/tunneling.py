"""Tunneling maps into the fold: residuals, energy, conjugacy.

A tunneling map is sampled on a ladder of circles |z| = rho * e^u inside
its punctured exterior domain.  In the conformal coordinate w = u + i*theta
the domain is a half cylinder, radial derivatives become d/du, and all
tangential derivatives are spectral.  The cylinder coordinate (s, t) used
by the asymptotic energy is (u, theta) / (2 pi).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson

from . import _spectral as sp
from .config import CONFIG
from .errors import (DomainError, GapSignError, NonTransverseCrossingError,
                     VerificationError)
from .harmonic import BoundaryLoopSamples, ExteriorPunctured, boundary_period, \
    solve_neumann_vanishing
from .sphere import CharacteristicParam, FoldPoint

TWO_PI = 2.0 * np.pi


def default_ring_u(u_max: float = 8.0, spacing: float = 0.04) -> np.ndarray:
    return np.arange(0.0, u_max + 0.5 * spacing, spacing)


# ---------------------------------------------------------------------------
# samples


@dataclass
class TunnelMapSample:
    """Tunneling map samples on a ring ladder of its exterior domain.

    rings[i, k] is the unit C^2 value at z = rho e^{ring_u[i]} e^{i theta_k};
    ring_u[0] = 0 is the domain fold sigma.  `x` and `degree` record the
    limiting closed characteristic and the puncture multiplicity.
    """

    rho: float
    ring_u: np.ndarray
    rings: np.ndarray              # (R, M, 2) complex
    x: CharacteristicParam
    degree: int

    def __post_init__(self):
        self.ring_u = np.asarray(self.ring_u, dtype=float)
        self.rings = np.asarray(self.rings, dtype=complex)
        if self.rings.ndim != 3 or self.rings.shape[2] != 2:
            raise DomainError("rings must have shape (R, M, 2)")
        if self.rings.shape[0] != len(self.ring_u):
            raise DomainError("ring ladder shape mismatch")
        if np.any(np.diff(self.ring_u) <= 0):
            raise DomainError("ring radii must be strictly increasing")
        norms = np.sum(np.abs(self.rings) ** 2, axis=2)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise DomainError("ring samples must lie on S^3")

    @property
    def m(self) -> int:
        return self.rings.shape[1]

    @property
    def n_rings(self) -> int:
        return self.rings.shape[0]

    def radii(self) -> np.ndarray:
        return self.rho * np.exp(self.ring_u)

    def boundary(self) -> np.ndarray:
        return self.rings[0]

    def boundary_fold_points(self) -> list[FoldPoint]:
        return [FoldPoint(complex(v[0]), complex(v[1])) for v in self.rings[0]]


def sample_tunnel_map(fn: Callable[[np.ndarray], np.ndarray], rho: float,
                      m: int, x: CharacteristicParam, degree: int,
                      ring_u: Optional[np.ndarray] = None) -> TunnelMapSample:
    """Sample fn(z) -> unit C^2 values over the default ring ladder."""
    if ring_u is None:
        ring_u = default_ring_u()
    th = sp.angles(m)
    z = rho * np.exp(ring_u)[:, None] * np.exp(1j * th)[None, :]
    vals = fn(z)
    return TunnelMapSample(rho, ring_u, vals, x, degree)


# ---------------------------------------------------------------------------
# derivatives on the ladder


def _d_theta(values: np.ndarray) -> np.ndarray:
    """Spectral d/dtheta of ladder data (R, M, ...), one FFT along the angles."""
    return np.moveaxis(sp.theta_derivative(np.moveaxis(values, 1, 0)), 0, 1)


@functools.lru_cache(maxsize=16)
def _ladder_stencil(nodes: tuple[float, ...],
                    width: int) -> tuple[np.ndarray, np.ndarray]:
    """Fornberg d/du weights (R, width) and window starts (R,) of a ladder.

    Built once per distinct ladder and shared process-wide; the arrays are
    read-only, so concurrent callers can use them without copying.
    """
    u = np.asarray(nodes)
    r = len(u)
    starts = np.minimum(np.maximum(np.arange(r) - width // 2, 0), r - width)
    weights = np.stack([sp.fd_weights(u[lo:lo + width], float(u[i]), 1)
                        for i, lo in enumerate(starts)])
    weights.setflags(write=False)
    starts.setflags(write=False)
    return weights, starts


def _d_u(values: np.ndarray, u: np.ndarray, width: int = 9) -> np.ndarray:
    """d/du of ladder data (R, ...) with windowed high-order stencils."""
    r = values.shape[0]
    width = min(width, r)
    weights, starts = _ladder_stencil(tuple(u.tolist()), width)
    out = np.empty_like(values, dtype=complex)
    for i, lo in enumerate(starts):
        out[i] = np.tensordot(weights[i], values[lo:lo + width], axes=(0, 0))
    return out


@dataclass
class _Derived:
    """Cached derived fields of a tunneling sample."""

    alpha_t: np.ndarray    # (R, M)  v*alpha(d_theta)
    alpha_u: np.ndarray    # (R, M)  v*alpha(d_u)
    chi_t: np.ndarray      # (R, M)  F-coefficient of dv(d_theta)
    chi_u: np.ndarray      # (R, M)  F-coefficient of dv(d_u)
    d_theta: np.ndarray
    d_u: np.ndarray


def derived_fields(v: TunnelMapSample) -> _Derived:
    cached = getattr(v, "_derived", None)
    if cached is not None:
        return cached
    dth = _d_theta(v.rings)
    du = _d_u(v.rings, v.ring_u)
    a = v.rings[:, :, 0]
    b = v.rings[:, :, 1]
    ca, cb = np.conj(a), np.conj(b)
    # two-term sums start from +0.0, as np.sum does, so exact zeros are +0
    alpha_t = np.imag(0.0 + ca * dth[..., 0] + cb * dth[..., 1]) / TWO_PI
    alpha_u = np.imag(0.0 + ca * du[..., 0] + cb * du[..., 1]) / TWO_PI
    # F-coefficients against the contact frame (-conj w, conj z) pointwise
    chi_t = 0.0 + (-b) * dth[..., 0] + a * dth[..., 1]
    chi_u = 0.0 + (-b) * du[..., 0] + a * du[..., 1]
    out = _Derived(alpha_t, alpha_u, chi_t, chi_u, dth, du)
    v._derived = out
    return out


def hopf_ratio(v: TunnelMapSample) -> np.ndarray:
    """Affine coordinate of the Hopf projection in the dominant chart."""
    a = v.rings[:, :, 0]
    b = v.rings[:, :, 1]
    if np.max(np.abs(b)) <= np.max(np.abs(a)):
        return b / a
    return a / b


# ---------------------------------------------------------------------------
# residuals of the tunneling equations


@dataclass
class HResidual:
    f_residual: float
    l_residual: float


def residual_H(v: TunnelMapSample) -> HResidual:
    """Sup-norm residuals of the two tunneling equations.

    The F-part residual is the antiholomorphic derivative of the projected
    map to the base sphere (scale invariant through the Fubini-Study
    weight); the L-part is the closedness defect of the rotated pullback
    of the contact form.
    """
    if v.n_rings < 3:
        raise DomainError("need at least 3 rings for derivative estimates")
    d = derived_fields(v)
    h = hopf_ratio(v)
    h_u = _d_u(h, v.ring_u)
    h_t = _d_theta(h)
    dbar = 0.5 * (h_u + 1j * h_t)
    f_res = float(np.max(np.abs(dbar) / (1.0 + np.abs(h) ** 2)))

    # (v*alpha o j) has components (alpha_t, -alpha_u) on (d_u, d_theta)
    lam_u = d.alpha_t
    lam_t = -d.alpha_u
    closed = _d_u(lam_t.astype(complex), v.ring_u).real - _d_theta(lam_u)
    l_res = float(np.max(np.abs(closed)))
    return HResidual(f_res, l_res)


def check_periods(v: TunnelMapSample) -> float:
    """Max over rings of the period of v*alpha o j."""
    d = derived_fields(v)
    periods = [boundary_period(BoundaryLoopSamples(-d.alpha_u[i], v.radii()[i]))
               for i in range(v.n_rings)]
    return float(np.max(np.abs(periods)))


def ring_periods(v: TunnelMapSample) -> np.ndarray:
    d = derived_fields(v)
    return np.array([-TWO_PI * np.mean(d.alpha_u[i]) for i in range(v.n_rings)])


# ---------------------------------------------------------------------------
# asymptotic energy


@dataclass
class EnergyProfile:
    radii: np.ndarray
    e_r: np.ndarray
    decay_exponent: float
    delta: float
    divergent: bool

    @property
    def total(self) -> float:
        return float(self.e_r[0])


def asymptotic_energy(v: TunnelMapSample, delta: float,
                      r: Optional[float] = None) -> EnergyProfile:
    """Exponentially weighted tail energy on the cylindrical end.

    Integrand (in cylinder coordinates s, t with unit circle period):
    |v*alpha(ds)|^2 + |d(v*alpha(dt))|^2 + |pi_F dv|^2, weighted e^{delta s}.
    Returns the tail integrals from every ring outward together with a
    fitted decay exponent of the integrand.
    """
    if not 0 < delta <= CONFIG.tol.delta_max:
        raise DomainError(
            f"weight delta must lie in (0, {CONFIG.tol.delta_max}]")
    d = derived_fields(v)
    s = v.ring_u / TWO_PI
    a_s = TWO_PI * d.alpha_u
    a_t = TWO_PI * d.alpha_t
    a_t_s = TWO_PI * _d_u(a_t.astype(complex), v.ring_u).real
    a_t_t = TWO_PI * _d_theta(a_t)
    pf2 = (TWO_PI ** 2) * (np.abs(d.chi_u) ** 2 + np.abs(d.chi_t) ** 2)
    dens = np.abs(a_s) ** 2 + a_t_s ** 2 + a_t_t ** 2 + pf2
    ring_density = np.mean(dens, axis=1) * np.exp(delta * s)

    e_r = np.empty(v.n_rings)
    for i in range(v.n_rings):
        if i == v.n_rings - 1:
            e_r[i] = 0.0
        else:
            e_r[i] = simpson(ring_density[i:], x=s[i:])
    tail = ring_density[2 * v.n_rings // 3:-1]
    s_tail = s[2 * v.n_rings // 3:-1]
    good = tail > 1e-300
    if np.count_nonzero(good) >= 2:
        slope = float(np.polyfit(s_tail[good], np.log(tail[good]), 1)[0])
    else:
        slope = -np.inf
    divergent = slope >= 0 and float(np.max(tail)) > 1e-12
    if r is not None:
        keep = v.radii() >= r * (1 - 1e-12)
        return EnergyProfile(v.radii()[keep], e_r[keep], slope, delta, divergent)
    return EnergyProfile(v.radii(), e_r, slope, delta, divergent)


def tunneling_omega_energy(v: TunnelMapSample) -> float:
    """Integral of v*omega over the punctured domain via the Stokes route.

    omega restricted to the fold is d(alpha), so the energy is the
    difference of boundary circulations of v*alpha, with the puncture
    circulation extrapolated geometrically from the outer rings.
    """
    d = derived_fields(v)
    circ = TWO_PI * np.mean(d.alpha_t, axis=1)
    c1, c2, c3 = circ[-3], circ[-2], circ[-1]
    denom = (c3 - c2) - (c2 - c1)
    limit = c3 if abs(denom) < 1e-15 else c3 - (c3 - c2) ** 2 / denom
    return float(limit - circ[0])


# ---------------------------------------------------------------------------
# gap function


def gap_function(u_plus_alpha: BoundaryLoopSamples,
                 u_minus_alpha: BoundaryLoopSamples) -> BoundaryLoopSamples:
    """Pointwise gap a = - u_-^*alpha / u_+^*alpha along the fold.

    Both inputs are the pullbacks evaluated on one common tangent
    direction per sample; the transverse-crossing convention makes every
    value positive.
    """
    p = np.real(u_plus_alpha.values)
    q = np.real(u_minus_alpha.values)
    floor = CONFIG.tol.transverse_floor
    if np.min(np.abs(p)) < floor:
        raise NonTransverseCrossingError(
            f"denominator |u_+^*alpha| fell below {floor:.1e}")
    a = -q / p
    if np.min(a) <= 0:
        raise GapSignError(
            f"gap function is not positive (min {np.min(a):.3e}); "
            "the two inputs do not come from opposite sides")
    return BoundaryLoopSamples(a, u_plus_alpha.radius)


# ---------------------------------------------------------------------------
# conjugacy


@dataclass
class ConjugatePair:
    """Conjugate tunneling maps with their transition data.

    g_boundary are samples of the circle-valued transition function on
    sigma (values in [0,1) mod 1), f_scale the conformal factor relating
    the two pullbacks of omega (identically one in the circle-invariant
    theory).
    """

    v_plus: TunnelMapSample
    v_minus: TunnelMapSample
    x: CharacteristicParam
    g_boundary: np.ndarray
    f_scale: float = 1.0


@dataclass
class ConjugacyReport:
    omega_residual: float
    lambda_residual: float
    marker_defect: float
    base_distance: float
    eigenmode_direction_residual: float

    def max_residual(self) -> float:
        return max(self.omega_residual, self.lambda_residual,
                   self.marker_defect, self.base_distance,
                   self.eigenmode_direction_residual)


def puncture_parameters(v: TunnelMapSample, n_dirs: int = 16) -> np.ndarray:
    """Characteristic parameter of the puncture limit along n_dirs rays.

    Aitken extrapolation of the first-component phase over the three
    outermost rings; the limit lies on the closed characteristic.
    """
    step = max(1, v.m // n_dirs)
    cols = np.arange(0, v.m, step)
    zs = v.rings[-3:, cols, 0]
    ph = zs / np.abs(zs) / v.x.m
    p1, p2, p3 = ph[0], ph[1], ph[2]
    denom = (p3 - p2) - (p2 - p1)
    small = np.abs(denom) < 1e-14
    limit = np.where(small, p3, p3 - (p3 - p2) ** 2 / np.where(small, 1, denom))
    return np.angle(limit) / TWO_PI


def _omega_density(v: TunnelMapSample) -> np.ndarray:
    """Pullback of omega_Z = d(alpha) in the (u, theta) coordinates."""
    d = derived_fields(v)
    return _d_u(d.alpha_t.astype(complex), v.ring_u).real - _d_theta(d.alpha_u)


def check_conjugate(pair: ConjugatePair, n_dirs: int = 16) -> ConjugacyReport:
    """Residuals of the three conjugacy conditions plus the two proxies.

    Reports the conformal-factor relation between the omega pullbacks, the
    vanishing of lambda on the fold tangent, the marker defect over
    sampled puncture directions (through the characteristic group law),
    the sup distance of the base projections, and the direction mismatch
    of the leading decaying Hopf mode at the outermost ring.
    """
    vp, vm = pair.v_plus, pair.v_minus
    if vp.m != vm.m or vp.n_rings != vm.n_rings:
        raise DomainError("conjugate pair samples disagree in shape")

    dens_p = _omega_density(vp)
    dens_m = _omega_density(vm)
    omega_res = float(np.max(np.abs(dens_p - pair.f_scale * dens_m)))

    dp = derived_fields(vp)
    dm = derived_fields(vm)
    lam_sigma = -(dp.alpha_u[0] + dm.alpha_u[0])
    lambda_res = float(np.max(np.abs(lam_sigma)))

    tp = puncture_parameters(vp, n_dirs)
    tm = puncture_parameters(vm, n_dirs)
    marker = float(np.max(np.abs(np.exp(2j * np.pi * (tp + tm)) - 1.0)))

    hp = hopf_ratio(vp)
    hm = hopf_ratio(vm)
    base = float(np.max(np.abs(hp - hm) / (1.0 + np.abs(hp) ** 2)))

    cp = sp.coeffs(hp[-1])
    cm = sp.coeffs(hm[-1])
    cp[0] = 0.0
    cm[0] = 0.0
    ip, im = int(np.argmax(np.abs(cp))), int(np.argmax(np.abs(cm)))
    if ip != im or abs(cp[ip]) < 1e-14:
        eig = 1.0 if abs(cp[ip]) > 1e-12 or abs(cm[im]) > 1e-12 else 0.0
    else:
        eig = float(abs(cp[ip] / abs(cp[ip]) - cm[im] / abs(cm[im])))
    return ConjugacyReport(omega_res, lambda_res, marker, base, eig)


def conjugate_partner(v_plus: TunnelMapSample,
                      x: CharacteristicParam) -> TunnelMapSample:
    """Construct the conjugate map by the circle-valued transition function.

    The transition is harmonic with Neumann data minus twice the rotated
    pullback of the contact form, carries the prescribed winding -2d at
    the puncture, and its constant is fixed by the marker condition
    through the characteristic group law.  The partner is the pointwise
    flow action of the transition on the input.
    """
    res = residual_H(v_plus)
    if max(res.f_residual, res.l_residual) > 1e-6:
        raise VerificationError(
            f"input is not a tunneling map: residuals {res!r}")
    if check_periods(v_plus) > 1e-8:
        raise VerificationError("input has nonvanishing periods")

    d = derived_fields(v_plus)
    data = 2.0 * d.alpha_u[0]
    data = data - np.mean(data)  # remove quadrature-level mean noise
    scale = max(float(np.max(np.abs(d.alpha_t[0]))), 1e-3)
    if np.max(np.abs(data)) < 1e-9 * scale:
        g0 = None  # data is stencil noise around the exact zero
    else:
        g0 = solve_neumann_vanishing(
            BoundaryLoopSamples(data, v_plus.rho), ExteriorPunctured(v_plus.rho))

    t_plus = float(puncture_parameters(v_plus, n_dirs=1)[0])
    const = -2.0 * t_plus
    th = sp.angles(v_plus.m)
    radii = v_plus.radii()
    winding = -2 * v_plus.degree

    rings = np.empty_like(v_plus.rings)
    for i, r in enumerate(radii):
        g_single = np.real(g0.trace(r)) if g0 is not None else 0.0
        g_tot = winding * th / TWO_PI + g_single + const
        rings[i] = np.exp(2j * np.pi * g_tot)[:, None] * v_plus.rings[i]
    return TunnelMapSample(v_plus.rho, v_plus.ring_u, rings, x,
                           -v_plus.degree)


def make_conjugate_pair(v_plus: TunnelMapSample, v_minus: TunnelMapSample,
                        x: CharacteristicParam) -> ConjugatePair:
    """Assemble a ConjugatePair, reading the transition off the samples."""
    ratio = v_minus.rings[0, :, 0] / v_plus.rings[0, :, 0]
    g_boundary = (np.angle(ratio) / TWO_PI) % 1.0
    return ConjugatePair(v_plus, v_minus, x, g_boundary)


# ---------------------------------------------------------------------------
# flat fold model


@dataclass
class FlatFoldReport:
    graph_residual: float
    half_period_residual: float
    torus_fixed_residual: float

    def max_residual(self) -> float:
        return max(self.graph_residual, self.half_period_residual,
                   self.torus_fixed_residual)


def flat_fold_apply(theta0: float, circle: np.ndarray,
                    torus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat-fold scattering map on S^1 x T^2.

    Sends (e^{2 pi i (theta0 + t)}, z) to (e^{2 pi i (theta0 - t)}, z): the
    circle factor reflects through the angle theta0, the torus factor is
    fixed.
    """
    out = np.exp(4j * np.pi * theta0) / np.asarray(circle, dtype=complex)
    return out, np.asarray(torus)


def flat_fold_diagonal_check(theta0: float, circle: np.ndarray,
                             torus: np.ndarray) -> FlatFoldReport:
    """Verify the graph identities of the flat-fold diagonal on samples."""
    circle = np.asarray(circle, dtype=complex)
    torus = np.asarray(torus)
    out, tout = flat_fold_apply(theta0, circle, torus)
    # graph membership: the product of paired circle factors is constant
    graph = float(np.max(np.abs(circle * out - np.exp(4j * np.pi * theta0))))
    out2, _ = flat_fold_apply(theta0 + 0.5, circle, torus)
    half = float(np.max(np.abs(out - out2)))
    torus_fixed = float(np.max(np.abs(tout - torus))) if torus.size else 0.0
    return FlatFoldReport(graph, half, torus_fixed)
