"""Tunneling maps into the fold: residuals, energy, conjugacy.

A tunneling map is sampled on a ladder of circles |z| = rho * e^u inside
its punctured exterior domain.  In the conformal coordinate w = u + i*theta
the domain is a half cylinder, radial derivatives become d/du, and all
tangential derivatives are spectral.  The cylinder coordinate (s, t) used
by the asymptotic energy is (u, theta) / (2 pi).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import simpson

from . import _spectral as sp
from ._sides import both
from .config import CONFIG
from .errors import (DomainError, GapSignError, NonTransverseCrossingError,
                     VerificationError)
from .harmonic import BoundaryLoopSamples, ExteriorPunctured, \
    solve_neumann_vanishing
from .sphere import CharacteristicParam, _block_rings

TWO_PI = 2.0 * np.pi

S3_TOL = 1e-9                 # max ||v|^2 - 1|; far above round-off
PARTNER_RESIDUAL_TOL = 1e-6   # partner input; resolved residuals ~1e-10
PARTNER_PERIOD_TOL = 1e-8     # partner input; resolved periods ~1e-14
FOLD_DATA_NOISE_RTOL = 1e-9   # relative size of fold d/du stencil noise
OMEGA_AITKEN_TINY = 1e-15     # round-off of O(1) ring circulations
PUNCTURE_AITKEN_TINY = 1e-14  # round-off of the unit puncture phases
HOPF_MODE_FLOOR = 1e-14       # leading Hopf mode too small to have a phase
HOPF_MODE_MISMATCH_FLOOR = 1e-12  # a larger unmatched mode is a mismatch
DELTA_MAX = 12.0              # asymptotic_energy weights lie in (0, DELTA_MAX]


# ---------------------------------------------------------------------------
# the ring ladder and derivatives on it


class Ladder:
    """The rings u of a ladder |z| = rho e^u and their d/du stencil.

    `u` is a read-only copy of the rings: finite, strictly increasing and
    at least 3.  `weights[i]` are the read-only Fornberg weights (Math.
    Comp. 51 (1988) 699-706) of d/du at ring i over the WIDTH rings
    centred on it, shifted inward at the two ends.  One ladder is built
    per construction and shared by its samples.
    """

    WIDTH = 9       # eighth order on a uniform ladder

    def __init__(self, u):
        u = np.array(u, dtype=float)
        # negated, so NaN rings fail it too
        if not (u.ndim == 1 and len(u) >= 3 and np.all(np.isfinite(u))
                and np.all(np.diff(u) > 0)):
            raise DomainError("a ring ladder needs at least 3 finite, "
                              "strictly increasing rings")
        r, width = len(u), min(self.WIDTH, len(u))
        lo = np.clip(np.arange(r) - width // 2, 0, r - width)
        self.u, self._lo = u, lo       # _lo: first ring of each window
        self.weights = sp.fd_weights(u[lo[:, None] + np.arange(width)], u, 1)
        u.flags.writeable = self.weights.flags.writeable = False

    def reads(self, i0: int, i1: int) -> tuple[int, int]:
        """The rows [j0, j1) of ladder data that rows [i0, i1) of d/du read."""
        return self._lo[i0], self._lo[i1 - 1] + self.weights.shape[1]

    def d_u_rows(self, out: np.ndarray, x: np.ndarray, i0: int, i1: int,
                 j0: int = 0) -> None:
        """Rows [i0, i1) of d/du of float ladder data (R, n) into out.

        x holds the data's rows from j0 on, `reads(i0, i1)` at least.  The
        edge rows at either end share one window; the rows between have
        centred windows, read as a sliding window view of x.  Each row block
        is one einsum contraction over the window, summed left to right.
        """
        w = self.weights
        r, width = w.shape
        half = width // 2
        hi = r - width + half + 1          # rows [half, hi) are centred
        a = min(max(i0, half), i1)
        b = min(max(i0, hi), i1)
        if a > i0:
            np.einsum("kj,jm->km", w[i0:a], x[:width], out=out[:a - i0])
        if b > a:
            windows = sliding_window_view(x, width, axis=0)[
                a - half - j0:b - half - j0]
            np.einsum("kj,kmj->km", w[a:b], windows, out=out[a - i0:b - i0])
        if i1 > b:
            np.einsum("kj,jm->km", w[b:i1], x[-width:], out=out[b - i0:])

    def d_u(self, values: np.ndarray) -> np.ndarray:
        """d/du along axis 0 of ladder data (R, ...).

        Each row is +0.0 plus its stencil terms, added left to right, taken
        on the float64 view (complex data as interleaved re/im) by plain
        NumPy multiply-adds without BLAS or temporaries; so a row whose terms
        are all -0.0 is +0.0.  Real data gives real output.
        """
        r = values.shape[0]
        x = np.ascontiguousarray(values).reshape(r, -1)
        if np.iscomplexobj(x):
            x = x.view(float)
        out = np.empty_like(x)
        self.d_u_rows(out, x, 0, r)
        return out.view(values.dtype).reshape(values.shape)


def default_ladder() -> Ladder:
    """The ladder u = 0, 0.04, ..., 8 (201 rings) of every construction."""
    return Ladder(np.arange(0.0, 8.02, 0.04))


# ---------------------------------------------------------------------------
# samples


@dataclass
class TunnelMapSample:
    """Tunneling map samples on a ring ladder of its exterior domain.

    planes[c, i, k] is component c of the unit C^2 value at
    z = rho e^{u_i} e^{i theta_k}, u = ladder.u; u_0 = 0 is the domain fold
    sigma.  The planes are two C-contiguous (R, M) arrays, so every kernel
    runs along the contiguous angle axis.  `x` and `degree` record the
    limiting closed characteristic and the puncture multiplicity.
    `planes` is a read-only view and the ladder is read-only, so the
    derived fields cached on the sample stay in step with them.
    """

    rho: float
    ladder: Ladder
    planes: np.ndarray             # (2, R, M) complex
    x: CharacteristicParam
    degree: int
    _derived: Optional[_Derived] = field(default=None, init=False,
                                         repr=False, compare=False)
    _b_over_a: bool = field(default=True, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        # negated, so a NaN radius fails too
        if not 0.0 < self.rho < np.inf:
            raise DomainError(
                f"fold radius rho must be positive and finite, got {self.rho}")
        # a view, so the caller's array stays writable
        self.planes = np.ascontiguousarray(self.planes, dtype=complex).view()
        if self.planes.ndim != 3 or self.planes.shape[0] != 2:
            raise DomainError("planes must have shape (2, R, M)")
        self.planes.flags.writeable = False
        if self.n_rings != len(self.ladder.u):
            raise DomainError("ring ladder shape mismatch")
        # swept in ring blocks, so the norm temporaries stay block-sized;
        # the negated test rejects NaN samples too
        step, top = _block_rings(self.planes[0, 0].nbytes), np.zeros(2)
        for i0 in range(0, self.n_rings, step):
            mod = np.abs(self.planes[:, i0:i0 + step])
            top = np.maximum(top, np.max(mod, axis=(1, 2)))
            if not np.max(np.abs(mod[0] ** 2 + mod[1] ** 2 - 1.0)) <= S3_TOL:
                raise DomainError("ring samples must lie on S^3")
        # the Hopf chart of hopf_ratio: max|b| <= max|a| over the ladder
        self._b_over_a = bool(top[1] <= top[0])

    @property
    def rings(self) -> np.ndarray:
        """The samples as a read-only (R, M, 2) view of the planes."""
        return np.moveaxis(self.planes, 0, 2)

    @property
    def m(self) -> int:
        return self.planes.shape[2]

    @property
    def n_rings(self) -> int:
        return self.planes.shape[1]

    def radii(self) -> np.ndarray:
        return self.rho * np.exp(self.ladder.u)

    def boundary(self) -> np.ndarray:
        """The (2, M) samples on the domain fold sigma."""
        return self.planes[:, 0]


def sample_tunnel_map(fn: Callable[[np.ndarray], np.ndarray], rho: float,
                      m: int, x: CharacteristicParam, degree: int,
                      ladder: Optional[Ladder] = None) -> TunnelMapSample:
    """Sample fn(z) -> unit C^2 values (2, ...) over a ring ladder."""
    if ladder is None:
        ladder = default_ladder()
    th = sp.angles(m)
    z = rho * np.exp(ladder.u)[:, None] * np.exp(1j * th)[None, :]
    return TunnelMapSample(rho, ladder, fn(z), x, degree)


@dataclass
class _Derived:
    """Cached derived fields of a tunneling sample."""

    alpha_t: np.ndarray    # (R, M)  v*alpha(d_theta)
    alpha_u: np.ndarray    # (R, M)  v*alpha(d_u)
    chi_sigma: np.ndarray  # (M,)    F-coefficient of dv(d_theta) on sigma


def _alpha_rows(out: np.ndarray, ca: np.ndarray, cb: np.ndarray,
                da: np.ndarray, db: np.ndarray, ta: np.ndarray,
                tb: np.ndarray) -> None:
    """out = Im(0.0 + ca da + cb db) / 2 pi, through the scratch ta, tb.

    Complex addition is componentwise, so summing the imaginary parts
    alone gives the same bits; the sum starts from +0.0, as np.sum does,
    so exact zeros are +0.
    """
    np.multiply(ca, da, out=ta)
    np.multiply(cb, db, out=tb)
    np.add(0.0, ta.imag, out=out)
    out += tb.imag
    out /= TWO_PI


def derived_fields(v: TunnelMapSample) -> _Derived:
    """v*alpha along d_theta and d_u on every ring, chi on sigma; cached.

    One pass over ring blocks: d/dtheta, d/du, the conjugates and the
    products live only per block, and the fields go into their outputs.
    """
    if v._derived is not None:
        return v._derived
    a, b = v.planes
    r, m = a.shape
    x = v.planes.view(float)                   # (2, R, 2M)
    alpha_t = np.empty((r, m))
    alpha_u = np.empty((r, m))
    step = min(_block_rings(a[0].nbytes), r)
    du = np.empty((2, step, 2 * m))
    conj = np.empty((2, step, m), complex)
    ta = np.empty((step, m), complex)
    tb = np.empty((step, m), complex)
    for i0 in range(0, r, step):
        i1 = min(i0 + step, r)
        n = i1 - i0
        dth_a, dth_b = sp.theta_derivative(v.planes[:, i0:i1])
        if i0 == 0:
            # F-coefficient against the contact frame (-conj w, conj z)
            chi_sigma = 0.0 + (-b[0]) * dth_a[0] + a[0] * dth_b[0]
        v.ladder.d_u_rows(du[0, :n], x[0], i0, i1)
        v.ladder.d_u_rows(du[1, :n], x[1], i0, i1)
        du_a, du_b = du[:, :n].view(complex)
        ca = np.conj(a[i0:i1], out=conj[0, :n])
        cb = np.conj(b[i0:i1], out=conj[1, :n])
        _alpha_rows(alpha_t[i0:i1], ca, cb, dth_a, dth_b, ta[:n], tb[:n])
        _alpha_rows(alpha_u[i0:i1], ca, cb, du_a, du_b, ta[:n], tb[:n])
    v._derived = _Derived(alpha_t, alpha_u, chi_sigma)
    return v._derived


def hopf_ratio(v: TunnelMapSample, rings=slice(None)) -> np.ndarray:
    """Affine Hopf coordinate on the given rings, in the ladder's chart."""
    a, b = v.planes[:, rings]
    return b / a if v._b_over_a else a / b


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
    d = derived_fields(v)
    h = hopf_ratio(v)
    h_u = v.ladder.d_u(h)
    h_t = sp.theta_derivative(h)
    dbar = 0.5 * (h_u + 1j * h_t)
    f_res = float(np.max(np.abs(dbar) / (1.0 + np.abs(h) ** 2)))

    # (v*alpha o j) has components (alpha_t, -alpha_u) on (d_u, d_theta)
    lam_u = d.alpha_t
    lam_t = -d.alpha_u
    closed = v.ladder.d_u(lam_t) - sp.theta_derivative(lam_u)
    l_res = float(np.max(np.abs(closed)))
    return HResidual(f_res, l_res)


def check_periods(v: TunnelMapSample) -> float:
    """Max over rings of the period of v*alpha o j."""
    return float(np.max(np.abs(ring_periods(v))))


def ring_periods(v: TunnelMapSample) -> np.ndarray:
    """Period of v*alpha o j on every ring, shape (R,)."""
    return -TWO_PI * np.mean(derived_fields(v).alpha_u, axis=1)


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


def asymptotic_energy(v: TunnelMapSample, delta: float) -> EnergyProfile:
    """Exponentially weighted tail energy on the cylindrical end.

    Integrand (in cylinder coordinates s, t with unit circle period):
    |v*alpha(ds)|^2 + |d(v*alpha(dt))|^2 + |pi_F dv|^2, weighted e^{delta s}.
    Returns the tail integrals from every ring outward together with a
    fitted decay exponent of the integrand.
    """
    if not 0 < delta <= DELTA_MAX:
        raise DomainError(
            f"weight delta must lie in (0, {DELTA_MAX}]")
    d = derived_fields(v)
    s = v.ladder.u / TWO_PI
    a_s = TWO_PI * d.alpha_u
    a_t = TWO_PI * d.alpha_t
    a_t_s = TWO_PI * v.ladder.d_u(a_t)
    a_t_t = TWO_PI * sp.theta_derivative(a_t)
    # F-coefficients of dv(d_theta) and dv(d_u) on every ring, needed here
    # only, so built here and not cached
    a, b = v.planes
    dth_a, dth_b = sp.theta_derivative(v.planes)
    chi_t = 0.0 + (-b) * dth_a + a * dth_b
    chi_u = 0.0 + (-b) * v.ladder.d_u(a) + a * v.ladder.d_u(b)
    pf2 = (TWO_PI ** 2) * (np.abs(chi_u) ** 2 + np.abs(chi_t) ** 2)
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
    return EnergyProfile(v.radii(), e_r, slope, delta, divergent)


def _aitken(x1, x2, x3, tiny: float):
    """One Aitken step x3 - (x3 - x2)^2 / D, D = (x3 - x2) - (x2 - x1).

    Elementwise on arrays; x3 itself where |D| < tiny.
    """
    denom = (x3 - x2) - (x2 - x1)
    small = np.abs(denom) < tiny
    return np.where(small, x3, x3 - (x3 - x2) ** 2 / np.where(small, 1, denom))


def tunneling_omega_energy(v: TunnelMapSample) -> float:
    """Integral of v*omega over the punctured domain via the Stokes route.

    omega restricted to the fold is d(alpha), so the energy is the
    difference of boundary circulations of v*alpha, with the puncture
    circulation extrapolated geometrically from the outer rings.
    """
    circ = TWO_PI * np.mean(derived_fields(v).alpha_t, axis=1)
    return float(_aitken(*circ[-3:], OMEGA_AITKEN_TINY) - circ[0])


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
    # negated tests, so NaN samples fail them too
    if not np.min(np.abs(p)) >= floor:
        raise NonTransverseCrossingError(
            f"denominator |u_+^*alpha| fell below {floor:.1e}")
    a = -q / p
    if not np.min(a) > 0:
        raise GapSignError(
            f"gap function is not positive (min {np.min(a):.3e}); "
            "the two inputs do not come from opposite sides")
    return BoundaryLoopSamples(a, u_plus_alpha.radius)


# ---------------------------------------------------------------------------
# conjugacy


@dataclass
class ConjugatePair:
    """Conjugate tunneling maps.

    The conformal factor relating the two pullbacks of omega is
    identically one in the circle-invariant theory, so it is not stored.
    """

    v_plus: TunnelMapSample
    v_minus: TunnelMapSample


@dataclass
class ConjugacyReport:
    omega_residual: float
    lambda_residual: float
    marker_defect: float
    base_distance: float
    eigenmode_direction_residual: float

    def max_residual(self) -> float:
        return float(np.max(astuple(self)))


def puncture_parameters(v: TunnelMapSample, n_dirs: int = 16) -> np.ndarray:
    """Characteristic parameter of the puncture limit along n_dirs rays.

    Aitken extrapolation of the first-component phase over the three
    outermost rings; the limit lies on the closed characteristic.
    """
    step = max(1, v.m // n_dirs)
    cols = np.arange(0, v.m, step)
    zs = v.planes[0, -3:][:, cols]
    ph = zs / np.abs(zs) / v.x.m
    return np.angle(_aitken(*ph, PUNCTURE_AITKEN_TINY)) / TWO_PI


def fold_data(v: TunnelMapSample,
              factor: float) -> tuple[Optional[np.ndarray], float]:
    """Neumann data on sigma and the marker parameter of a tunneling map.

    The data is factor * v*alpha(d_u) on the fold with its mean removed,
    or None when it is stencil noise around the exact zero; the marker
    parameter is -2 t_+ for the puncture parameter t_+ of v.
    """
    d = derived_fields(v)
    data = factor * d.alpha_u[0]
    data = data - np.mean(data)  # remove quadrature-level mean noise
    scale = max(float(np.max(np.abs(d.alpha_t[0]))), 1e-3)
    if np.max(np.abs(data)) < FOLD_DATA_NOISE_RTOL * scale:
        data = None
    return data, -2.0 * float(puncture_parameters(v, n_dirs=1)[0])


def check_conjugate(pair: ConjugatePair) -> ConjugacyReport:
    """Residuals of the three conjugacy conditions plus the two proxies.

    Reports the conformal-factor relation between the omega pullbacks, the
    vanishing of lambda on the fold tangent, the marker defect over
    sampled puncture directions (through the characteristic group law),
    the sup distance of the base projections, and the direction mismatch
    of the leading decaying Hopf mode at the outermost ring.
    """
    vp, vm = pair.v_plus, pair.v_minus
    # every residual compares the two samples point by point
    if vp.m != vm.m or not np.array_equal(vp.ladder.u, vm.ladder.u):
        raise DomainError("conjugate pair samples lie on different grids")

    dp, dm = derived_fields(vp), derived_fields(vm)
    step = _block_rings(16 * vp.m)

    def sweep(rings):
        # omega_+ - omega_- = d(alpha_+ - alpha_-) and the base distance,
        # one ring block at a time; np.maximum keeps a NaN of either operand
        omega = base = 0.0
        for i0 in range(*rings, step):
            i1 = min(i0 + step, rings[1])
            j0, j1 = vp.ladder.reads(i0, i1)
            du = np.empty((i1 - i0, vp.m))
            vp.ladder.d_u_rows(du, dp.alpha_t[j0:j1] - dm.alpha_t[j0:j1],
                               i0, i1, j0)
            du -= sp.theta_derivative(dp.alpha_u[i0:i1] - dm.alpha_u[i0:i1])
            omega = np.maximum(omega, np.max(np.abs(du)))
            hp, hm = (hopf_ratio(v, slice(i0, i1)) for v in (vp, vm))
            base = np.maximum(base, np.max(np.abs(hp - hm)
                                           / (1.0 + np.abs(hp) ** 2)))
        return omega, base

    # the plus half sweeps the inner rings, the pooled thread the outer ones
    mid = vp.n_rings // 2
    halves = both(sweep, (0, mid), (mid, vp.n_rings))
    omega_res, base = np.maximum(*halves).tolist()

    lam_sigma = -(dp.alpha_u[0] + dm.alpha_u[0])
    lambda_res = float(np.max(np.abs(lam_sigma)))

    tp = puncture_parameters(vp)
    tm = puncture_parameters(vm)
    marker = float(np.max(np.abs(np.exp(2j * np.pi * (tp + tm)) - 1.0)))

    cp = sp.coeffs(hopf_ratio(vp, -1))
    cm = sp.coeffs(hopf_ratio(vm, -1))
    cp[0] = 0.0
    cm[0] = 0.0
    ip, im = int(np.argmax(np.abs(cp))), int(np.argmax(np.abs(cm)))
    if ip != im or abs(cp[ip]) < HOPF_MODE_FLOOR:
        eig = 1.0 if (abs(cp[ip]) > HOPF_MODE_MISMATCH_FLOOR
                      or abs(cm[im]) > HOPF_MODE_MISMATCH_FLOOR) else 0.0
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
    # negated tests, so NaN inputs fail them too
    res = residual_H(v_plus)
    if not (res.f_residual <= PARTNER_RESIDUAL_TOL
            and res.l_residual <= PARTNER_RESIDUAL_TOL):
        raise VerificationError(
            f"input is not a tunneling map: residuals {res!r}")
    if not check_periods(v_plus) <= PARTNER_PERIOD_TOL:
        raise VerificationError("input has nonvanishing periods")

    data, const = fold_data(v_plus, 2.0)
    g0 = None if data is None else solve_neumann_vanishing(
        BoundaryLoopSamples(data, v_plus.rho), ExteriorPunctured(v_plus.rho))

    th = sp.angles(v_plus.m)
    winding = -2 * v_plus.degree

    g_single = 0.0 if g0 is None else np.real(g0.trace(v_plus.radii()))
    g_tot = winding * th / TWO_PI + g_single + const
    # g_tot is (M,) untwisted or (R, M) twisted; either broadcasts over rings
    planes = np.exp(2j * np.pi * g_tot) * v_plus.planes
    return TunnelMapSample(v_plus.rho, v_plus.ladder, planes, x,
                           -v_plus.degree)


# ---------------------------------------------------------------------------
# flat fold model


@dataclass
class FlatFoldReport:
    graph_residual: float
    half_period_residual: float
    torus_fixed_residual: float

    def max_residual(self) -> float:
        return float(np.max(astuple(self)))


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
