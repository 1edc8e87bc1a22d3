"""Explicit moduli of folded holomorphic maps into the folded 4-sphere.

The degree-1 family is sampled from its closed forms; higher degree maps
are built from a plane curve through the normalization function of the
harmonic engine.  Both produce a FoldedMapBundle whose verification
recomputes every defining condition from the samples.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _spectral as sp
from .config import CONFIG
from .errors import (DomainError, InputError, NonImmersedBoundaryError,
                     TierViolationError, VerificationError)
from .harmonic import BoundaryLoopSamples, solve_f_degree_d
from .sphere import (CharacteristicParam, FoldPoint, PolarMapGrid,
                     gauss_legendre_radial, grid_from_chart, hopf_project,
                     omega_energy, ProjectivePoint)
from .tunneling import (ConjugacyReport, ConjugatePair, check_conjugate,
                        derived_fields, make_conjugate_pair,
                        sample_tunnel_map, tunneling_omega_energy)

TWO_PI = 2.0 * np.pi


def det_omega_closed_form(x0: np.ndarray) -> np.ndarray:
    """det(omega) on S^4 as a function of the transverse coordinate.

    Closed form 2 x0 / pi^2 of the frame-based ratio; cross-checked in the
    tests against the pointwise evaluation.
    """
    return 2.0 * np.asarray(x0) / np.pi ** 2


# ---------------------------------------------------------------------------
# bundle containers


@dataclass(frozen=True)
class ModuliParam:
    c: complex
    m: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.c) and cmath.isfinite(self.m)):
            raise DomainError(f"parameters must be finite, got c={self.c}, "
                              f"m={self.m}")
        if abs(self.c) >= 1.0:
            raise DomainError(f"|c| must be < 1, got {abs(self.c)}")
        if abs(abs(self.m) - 1.0) > 1e-12:
            raise DomainError(f"|m| must be 1, got {abs(self.m)}")


@dataclass
class ChartGrid:
    """Ball-chart samples of one side on a polar tensor grid."""

    radii: np.ndarray
    weights: np.ndarray
    values: np.ndarray                       # (nr, M, 2) complex
    dvalues_dr: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def to_equator_grid(self) -> PolarMapGrid:
        return grid_from_chart(self.values, self.radii, self.weights,
                               self.dvalues_dr)

    def holomorphy_residual(self) -> float:
        """Cross-ring Laurent consistency of the chart samples.

        A holomorphic map has angular coefficients c_n(r) = a_n r^n with no
        negative modes; the residual compares every ring against the
        coefficients fitted at the outermost ring, plus the negative-mode
        content, normalized by the sample scale.
        """
        vals = self.values
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        coef = np.fft.fft(vals, axis=1) / self.m
        n = sp.modes(self.m)
        window = np.abs(n) <= self.m // 4
        pos = window & (n >= 0)
        neg = window & (n < 0)
        r = self.radii
        ratio = (r[:, None] / r[-1]) ** n[None, pos.nonzero()[0]]
        predicted = coef[-1:, pos, :] * ratio[:, :, None]
        res_pos = float(np.max(np.abs(coef[:, pos, :] - predicted)))
        res_neg = float(np.max(np.abs(coef[:, neg, :])))
        return max(res_pos, res_neg) / scale


@dataclass
class FoldedMapBundle:
    """A folded holomorphic map candidate with all of its sampled data.

    Charts hold the two hemisphere maps in their ball coordinates (the
    lower side in the inverted coordinate of its disk); boundary loops are
    parametrized by the fold circle of the common domain.  Homology labels
    are (characteristic, degree) per side.
    """

    m_res: int
    x: CharacteristicParam
    degree: int
    psi_scale: float
    chart_plus: ChartGrid
    chart_minus: ChartGrid
    boundary_plus: np.ndarray        # (M, 2) fold values u_+|sigma
    boundary_minus: np.ndarray
    pair: ConjugatePair
    tau_plus: np.ndarray
    tau_minus: np.ndarray
    energies: dict[str, float]
    tracking_point: Optional[FoldPoint] = None
    label: str = ""

    @property
    def homology_labels(self) -> dict[str, tuple[complex, int]]:
        return {"plus": (self.x.m, self.degree),
                "minus": (self.x.m, -self.degree)}


@dataclass
class VerificationReport:
    holo_plus: float
    holo_minus: float
    tau_boundary: float
    tau_sign_violation: float
    boundary_match_plus: float
    boundary_match_minus: float
    conjugacy: ConjugacyReport

    @property
    def conjugacy_max(self) -> float:
        return self.conjugacy.max_residual()

    def max_residual(self) -> float:
        return max(self.holo_plus, self.holo_minus, self.tau_boundary,
                   self.tau_sign_violation, self.boundary_match_plus,
                   self.boundary_match_minus, self.conjugacy_max)

    def passed(self, tol: float = 1e-7) -> bool:
        return self.max_residual() < tol

    def as_dict(self) -> dict[str, float]:
        return {
            "holo_plus": self.holo_plus,
            "holo_minus": self.holo_minus,
            "tau_boundary": self.tau_boundary,
            "tau_sign_violation": self.tau_sign_violation,
            "boundary_match_plus": self.boundary_match_plus,
            "boundary_match_minus": self.boundary_match_minus,
            "conjugacy_max": self.conjugacy_max,
            "max_residual": self.max_residual(),
        }


# ---------------------------------------------------------------------------
# degree-1 family


def _family_charts(c: complex, m: complex, m_res: int, nr: int):
    r0 = np.sqrt(1.0 - abs(c) ** 2)
    th = sp.angles(m_res)

    radii, weights = gauss_legendre_radial(nr)
    z = radii[:, None] * np.exp(1j * th)[None, :]
    ph = np.exp(1j * th)[None, :]

    y_plus = np.stack([r0 * m * z, np.full_like(z, m * c)], axis=2)
    dy_plus = np.stack([r0 * m * ph * np.ones_like(z), np.zeros_like(z)], axis=2)

    # lower side in the inverted coordinate zeta = 1/z
    y_minus = np.stack([r0 * m * z, m * c * z ** 2], axis=2)
    dy_minus = np.stack([r0 * m * ph * np.ones_like(z),
                         2 * m * c * z * ph], axis=2)
    return (ChartGrid(radii, weights, y_plus, dy_plus),
            ChartGrid(radii, weights, y_minus, dy_minus), r0, th)


def family_v_plus(c: complex, m: complex):
    def fn(z):
        w = np.stack([m * z, np.full_like(z, m * c)], axis=-1)
        return w / np.linalg.norm(w, axis=-1, keepdims=True)
    return fn


def family_v_minus(c: complex, m: complex):
    def fn(z):
        w = np.stack([m / z, m * c / z ** 2], axis=-1)
        return w / np.linalg.norm(w, axis=-1, keepdims=True)
    return fn


def _tau_grids(chart_plus: ChartGrid, chart_minus: ChartGrid):
    def x0_of(vals, side):
        n2 = np.sum(np.abs(vals) ** 2, axis=2)
        return side * (1.0 - n2) / (1.0 + n2)

    tau_p = det_omega_closed_form(x0_of(chart_plus.values, +1))
    tau_m = det_omega_closed_form(x0_of(chart_minus.values, -1))
    return tau_p, tau_m


def degree1_family(param: ModuliParam, m_res: int = 0,
                   nr: int = 0) -> FoldedMapBundle:
    """Sample the explicit degree-1 family at the given parameter.

    All five closed-form components are sampled: the two hemisphere maps,
    the conjugate tunneling pair, and the domain rescaling; the bundle
    records the intersection tracking point used by the Hopf reduction.
    """
    c, m = param.c, param.m
    if abs(c) > 0.99:
        raise DomainError(
            "|c| too close to 1; use compactification_sample for the limit")
    m_res = m_res or CONFIG.grid.boundary_samples
    nr = nr or CONFIG.grid.radial_nodes

    chart_p, chart_m, r0, th = _family_charts(c, m, m_res, nr)
    x = CharacteristicParam(m)

    vp = sample_tunnel_map(family_v_plus(c, m), r0, m_res, x, 1)
    vm = sample_tunnel_map(family_v_minus(c, m), r0, m_res, x, -1)
    pair = make_conjugate_pair(vp, vm, x)

    boundary_plus = np.stack(
        [r0 * m * np.exp(1j * th), np.full(m_res, m * c)], axis=1)
    boundary_minus = np.stack(
        [r0 * m * np.exp(-1j * th), m * c * np.exp(-2j * th)], axis=1)

    tau_p, tau_m = _tau_grids(chart_p, chart_m)

    energies = {
        "E_u_plus": omega_energy(chart_p.to_equator_grid()),
        "E_u_minus": omega_energy(chart_m.to_equator_grid()),
        "E_v_plus": tunneling_omega_energy(vp),
        "E_v_minus": tunneling_omega_energy(vm),
    }
    return FoldedMapBundle(
        m_res=m_res, x=x, degree=1, psi_scale=r0,
        chart_plus=chart_p, chart_minus=chart_m,
        boundary_plus=boundary_plus, boundary_minus=boundary_minus,
        pair=pair, tau_plus=tau_p, tau_minus=tau_m, energies=energies,
        tracking_point=FoldPoint(m * r0, m * c),
        label=f"degree1(c={c!r}, m={m!r})")


# ---------------------------------------------------------------------------
# verification


def verify_folded_holomorphic(bundle: FoldedMapBundle) -> VerificationReport:
    """Recompute every defining condition of a folded holomorphic map.

    Reports the chart holomorphy residuals, the sign and boundary
    vanishing of the pullback of det(omega), the matching of hemisphere
    and tunneling boundary values, and the full conjugacy report of the
    tunneling pair.
    """
    holo_p = bundle.chart_plus.holomorphy_residual()
    holo_m = bundle.chart_minus.holomorphy_residual()

    def x0_boundary(vals):
        n2 = np.sum(np.abs(vals) ** 2, axis=1)
        return (1.0 - n2) / (1.0 + n2)

    tau_b = float(max(
        np.max(np.abs(det_omega_closed_form(x0_boundary(bundle.boundary_plus)))),
        np.max(np.abs(det_omega_closed_form(x0_boundary(bundle.boundary_minus))))))
    viol_p = float(max(0.0, -np.min(bundle.tau_plus)))
    viol_m = float(max(0.0, np.max(bundle.tau_minus)))
    tau_sign = max(viol_p, viol_m)

    match_p = float(np.max(np.abs(bundle.boundary_plus
                                  - bundle.pair.v_plus.boundary())))
    match_m = float(np.max(np.abs(bundle.boundary_minus
                                  - bundle.pair.v_minus.boundary())))

    return VerificationReport(
        holo_plus=holo_p, holo_minus=holo_m, tau_boundary=tau_b,
        tau_sign_violation=tau_sign, boundary_match_plus=match_p,
        boundary_match_minus=match_m, conjugacy=check_conjugate(bundle.pair))


# ---------------------------------------------------------------------------
# compactification and reduction


@dataclass
class CompactificationRow:
    c_abs: float
    e_u_plus: float
    e_u_minus: float
    e_total: float
    limit_label: str


def compactification_sample(c_values: np.ndarray, m: complex,
                            m_res: int = 256, nr: int = 96) -> list[CompactificationRow]:
    """Energy table along a radial path of parameters approaching the fold.

    The upper-hemisphere energy drains into the fold while the total stays
    constant; each row records the limiting point map on the second
    closed characteristic.
    """
    c_values = np.asarray(c_values, dtype=complex)
    mags = np.abs(c_values)
    phases = np.where(mags > 1e-12, c_values / np.where(mags > 0, mags, 1), 1.0)
    ray_phase = phases[np.argmax(mags)]
    rows = []
    for c in c_values:
        bundle = degree1_family(ModuliParam(complex(c), m), m_res, nr)
        ep = bundle.energies["E_u_plus"]
        em = bundle.energies["E_u_minus"]
        limit = m * ray_phase
        label = f"(0,{limit.real:.12g}{limit.imag:+.12g}j)"
        rows.append(CompactificationRow(float(abs(c)), ep, em, ep + em, label))
    return rows


def hopf_reduce(param: ModuliParam) -> ProjectivePoint:
    """Image of the tracked intersection point under the Hopf quotient."""
    r0 = np.sqrt(1.0 - abs(param.c) ** 2)
    return hopf_project(FoldPoint(param.m * r0, param.m * param.c))


# ---------------------------------------------------------------------------
# degree-d construction


@dataclass
class CurveInput:
    """Plane curve w(z) = (p(z), q(z)) in ascending coefficient order."""

    p_coeffs: np.ndarray
    q_coeffs: np.ndarray
    m: complex

    def __post_init__(self):
        self.p_coeffs = np.trim_zeros(np.asarray(self.p_coeffs, complex), "b")
        self.q_coeffs = np.trim_zeros(np.asarray(self.q_coeffs, complex), "b")
        if not (np.all(np.isfinite(self.p_coeffs))
                and np.all(np.isfinite(self.q_coeffs))
                and cmath.isfinite(self.m)):
            raise InputError("curve coefficients and m must be finite")
        if self.degree < 1:
            raise InputError("curve must have degree at least 1")
        if abs(abs(self.m) - 1.0) > 1e-12:
            raise InputError("|m| must be 1")

    @property
    def degree(self) -> int:
        dp = len(self.p_coeffs) - 1 if len(self.p_coeffs) else -1
        dq = len(self.q_coeffs) - 1 if len(self.q_coeffs) else -1
        return max(dp, dq)

    def eval(self, z: np.ndarray) -> np.ndarray:
        p = np.polynomial.polynomial.polyval(z, self.p_coeffs) \
            if len(self.p_coeffs) else np.zeros_like(z)
        q = np.polynomial.polynomial.polyval(z, self.q_coeffs) \
            if len(self.q_coeffs) else np.zeros_like(z)
        return np.stack([p, q], axis=-1)

    def eval_derivative(self, z: np.ndarray) -> np.ndarray:
        dp = np.polynomial.polynomial.polyder(self.p_coeffs) \
            if len(self.p_coeffs) > 1 else np.zeros(1, complex)
        dq = np.polynomial.polynomial.polyder(self.q_coeffs) \
            if len(self.q_coeffs) > 1 else np.zeros(1, complex)
        return np.stack([np.polynomial.polynomial.polyval(z, dp),
                         np.polynomial.polynomial.polyval(z, dq)], axis=-1)

    @staticmethod
    def from_json(data: dict) -> "CurveInput":
        def arr(key):
            return np.array([complex(re, im) for re, im in data[key]])
        return CurveInput(arr("p"), arr("q"),
                          complex(data["m"][0], data["m"][1]))

    def to_json(self) -> dict:
        return {
            "p": [[z.real, z.imag] for z in self.p_coeffs],
            "q": [[z.real, z.imag] for z in self.q_coeffs],
            "m": [self.m.real, self.m.imag],
        }


def find_circular_fold(curve: CurveInput, m_probe: int = 512) -> float:
    """Radius of the circular fold |w| = 1, certified to tolerance.

    Bisection on the mean of |w| over circles; the Tier-1 contract then
    requires |w| to equal one on the whole circle.
    """
    th = sp.angles(m_probe)

    def mean_mod(rho):
        return float(np.mean(np.linalg.norm(
            curve.eval(rho * np.exp(1j * th)), axis=-1))) - 1.0

    lo, hi = 1e-6, 1.0
    while mean_mod(hi) < 0:
        hi *= 2.0
        if hi > 1e6:
            raise TierViolationError("no fold circle: |w| never reaches 1")
    if mean_mod(lo) > 0:
        raise TierViolationError("no fold circle: |w| exceeds 1 everywhere")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_mod(mid) < 0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    defect = float(np.max(np.abs(np.linalg.norm(
        curve.eval(rho * np.exp(1j * th)), axis=-1) - 1.0)))
    if defect > CONFIG.tol.fold_circularity:
        raise TierViolationError(
            f"fold locus is not a circle: circularity defect {defect:.3e}")
    return rho


def construct_degree_d(curve: CurveInput, m: Optional[complex] = None,
                       m_res: int = 0, nr: int = 0) -> FoldedMapBundle:
    """Build a degree-d folded holomorphic map from a plane curve.

    The upper map is the curve inside its fold circle; the lower map is
    the curve rescaled by the normalization multiplier whose log-scale
    object the harmonic engine solves, with the phase pinned through the
    marker on the limiting characteristic.
    """
    m = curve.m if m is None else m
    m_res = m_res or CONFIG.grid.boundary_samples
    nr = nr or CONFIG.grid.radial_nodes
    d = curve.degree
    if len(curve.p_coeffs) - 1 != d or (
            len(curve.q_coeffs) - 1 if len(curve.q_coeffs) else -1) >= d:
        raise DomainError(
            "curve must be dominated by its first component so that it "
            "meets the line at infinity on the reference characteristic")

    rho = find_circular_fold(curve)
    th = sp.angles(m_res)
    x = CharacteristicParam(m)

    # tunneling map v_+ = projection of the curve on the exterior
    def v_plus_fn(z):
        w = curve.eval(z)
        return w / np.linalg.norm(w, axis=-1, keepdims=True)

    vp = sample_tunnel_map(v_plus_fn, rho, m_res, x, d)

    # immersion floor for pi_F dw near the fold (cylinder-scaled
    # Fubini-Study derivative of the projected curve)
    near = vp.ring_u <= 1.0
    zz = rho * np.exp(vp.ring_u[near])[:, None] * np.exp(1j * th)[None, :]
    w_near = curve.eval(zz)
    dw_near = curve.eval_derivative(zz)
    num = np.abs(w_near[..., 0] * dw_near[..., 1]
                 - w_near[..., 1] * dw_near[..., 0]) * np.abs(zz)
    den = np.sum(np.abs(w_near) ** 2, axis=-1)
    fs = num / den
    if float(np.min(fs)) < CONFIG.tol.immersion_floor:
        raise NonImmersedBoundaryError(
            f"pi_F dw degenerates near the fold (min {np.min(fs):.3e})")

    # normalization multiplier from the harmonic engine
    dv = derived_fields(vp)
    data = -dv.alpha_u[0]              # (v_+^* alpha o j)(d_theta) on sigma
    data = data - np.mean(data)
    scale = max(float(np.max(np.abs(dv.alpha_t[0]))), 1e-3)
    if np.max(np.abs(data)) < 1e-9 * scale:
        data = np.zeros_like(data)
    from .tunneling import puncture_parameters
    t_plus = float(puncture_parameters(vp, n_dirs=1)[0])
    marker = x.point(-2.0 * t_plus)
    f_log = solve_f_degree_d(BoundaryLoopSamples(data, rho), marker, x, d)

    # grids: upper side on the fold disk, lower side in zeta = 1/z
    radii, weights = gauss_legendre_radial(nr)
    z_plus = rho * radii[:, None] * np.exp(1j * th)[None, :]
    chart_p = ChartGrid(rho * radii, rho * weights, curve.eval(z_plus))

    zeta_r = radii / rho
    y_minus = np.empty((nr, m_res, 2), dtype=complex)
    for i, rr in enumerate(zeta_r):
        zr = 1.0 / rr
        mult = f_log.multiplier_samples(zr)          # at angles th of z
        wz = curve.eval(zr * np.exp(1j * th))
        vals = mult[:, None] * wz                    # u_-(z) in chart coords
        y_minus[i] = vals[(-np.arange(m_res)) % m_res]  # reindex to zeta angle
    over = np.max(np.sqrt(np.sum(np.abs(y_minus) ** 2, axis=2)))
    if over > 1.0 + 1e-8:
        raise VerificationError(
            f"|f w| exceeds 1 on the lower domain (max {over:.6f}); "
            "the curve leaves the lower hemisphere")
    chart_m = ChartGrid(zeta_r, weights / rho, y_minus)

    def multiplier_at(z):
        # exp(F(z)) (z/rho)^pole from the exterior log coefficients
        n = sp.modes(f_log.m)
        vals = np.zeros_like(z, dtype=complex)
        for k, cn in zip(n, f_log.coeffs):
            if k <= 0 and abs(cn) > 1e-300:
                vals = vals + cn * (rho / z) ** (-k)
        return np.exp(vals) * (z / rho) ** f_log.puncture_pole_order

    def v_minus_fn(z):
        fw = multiplier_at(z)[..., None] * curve.eval(z)
        return fw / np.linalg.norm(fw, axis=-1, keepdims=True)

    vm = sample_tunnel_map(v_minus_fn, rho, m_res, x, -d)
    pair = make_conjugate_pair(vp, vm, x)

    boundary_plus = curve.eval(rho * np.exp(1j * th))
    mult_sigma = f_log.multiplier_samples()
    boundary_minus_z = mult_sigma[:, None] * boundary_plus
    boundary_minus = boundary_minus_z  # parametrized by sigma angle theta

    tau_p, tau_m = _tau_grids(chart_p, chart_m)
    energies = {
        "E_u_plus": omega_energy(chart_p.to_equator_grid()),
        "E_u_minus": omega_energy(chart_m.to_equator_grid()),
        "E_v_plus": tunneling_omega_energy(vp),
        "E_v_minus": tunneling_omega_energy(vm),
    }
    return FoldedMapBundle(
        m_res=m_res, x=x, degree=d, psi_scale=1.0,
        chart_plus=chart_p, chart_minus=chart_m,
        boundary_plus=boundary_plus, boundary_minus=boundary_minus,
        pair=pair, tau_plus=tau_p, tau_minus=tau_m, energies=energies,
        tracking_point=None, label=f"degree{d}(curve)")


# ---------------------------------------------------------------------------
# export


def bundle_report(bundle: FoldedMapBundle,
                  report: Optional[VerificationReport] = None) -> dict:
    """Machine-readable summary with residuals, energies and frame data."""
    from .boundary_operator import (boperator_data_from_bundle,
                                    boundary_condition_loops)
    if report is None:
        report = verify_folded_holomorphic(bundle)
    conj = report.conjugacy
    bop = boperator_data_from_bundle(bundle)
    data = {
        "a": list(map(float, bop.a_samples)),
        "AF_re": list(map(float, bop.af_samples.real)),
        "AF_im": list(map(float, bop.af_samples.imag)),
        "f_chi": list(map(float, bop.f_chi)),
        "f_jchi": list(map(float, bop.f_jchi)),
        "sigma_radius": float(bop.sigma_radius),
    }
    lp, lm = boundary_condition_loops(bundle)
    loops = {
        "plus_re": list(map(float, lp.frames[:, 0, 0].real)),
        "plus_im": list(map(float, lp.frames[:, 0, 0].imag)),
        "minus_re": list(map(float, lm.frames[:, 0, 0].real)),
        "minus_im": list(map(float, lm.frames[:, 0, 0].imag)),
    }
    return {
        "schema": "folded-maps/1",
        "label": bundle.label,
        "degree": bundle.degree,
        "m": [bundle.x.m.real, bundle.x.m.imag],
        "resolution": bundle.m_res,
        "psi_scale": bundle.psi_scale,
        "residuals": report.as_dict(),
        "conjugacy": {
            "omega_residual": conj.omega_residual,
            "lambda_residual": conj.lambda_residual,
            "marker_defect": conj.marker_defect,
            "base_distance": conj.base_distance,
            "eigenmode_direction_residual": conj.eigenmode_direction_residual,
        },
        "energies": dict(bundle.energies),
        "boundary_operator": data,
        "loops": loops,
    }
