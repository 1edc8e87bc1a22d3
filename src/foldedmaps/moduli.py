"""Explicit moduli of folded holomorphic maps into the folded 4-sphere.

The degree-1 family is sampled from its closed forms; higher degree maps
are built from a plane curve through the normalization function of the
harmonic engine.  Both produce a FoldedMapBundle whose verification
recomputes every defining condition from the samples.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import _spectral as sp
from ._sides import both
from .boundary_operator import (boperator_data_from_bundle,
                                boundary_condition_loops, report_sections)
from .config import CONFIG
from .errors import (DomainError, InputError, NonImmersedBoundaryError,
                     TierViolationError, VerificationError)
from .harmonic import BoundaryLoopSamples, LaurentField, solve_f_degree_d
from .sphere import (CharacteristicParam, FoldPoint, ProjectivePoint,
                     _block_rings, chart_omega_energy, gauss_legendre_radial,
                     hopf_project)
from .tunneling import (ConjugacyReport, ConjugatePair, Ladder,
                        TunnelMapSample, check_conjugate, default_ladder,
                        fold_data, sample_tunnel_map, tunneling_omega_energy)

TWO_PI = 2.0 * np.pi
# tag of the reports written by bundle_report and the CLI
SCHEMA = "folded-maps/2"
# how far |m| may be from 1: m is used as given, so only round-off is
# allowed
UNIT_MODULUS_TOL = 1e-12
# a bundle passes when its worst verification residual is below this:
# spectrally resolved maps sit near 1e-12, unresolved ones far above
RESIDUAL_PASS_TOL = 1e-7
# how far |u_-| = |f w| may exceed 1 on the lower chart before the curve
# counts as leaving the lower ball: |f w| = 1 on the fold circle holds
# only to its certified circularity (Tolerances.fold_circularity, 1e-8)
LOWER_BALL_TOL = 1e-8
# the fold radii find_circular_fold accepts; a fold outside violates Tier 1
FOLD_RADIUS_RANGE = (1e-6, 1e6)


def det_omega_closed_form(x0: np.ndarray) -> np.ndarray:
    """det(omega) on S^4 as a function of the transverse coordinate.

    Closed form 2 x0 / pi^2 of the frame-based ratio; cross-checked in the
    tests against the pointwise evaluation.
    """
    return 2.0 * np.asarray(x0) / np.pi ** 2


def _x0(planes: np.ndarray) -> np.ndarray:
    """Transverse coordinate of upper-side ball-chart values (2, ...)."""
    n2 = np.sum(np.abs(planes) ** 2, axis=0)
    return (1.0 - n2) / (1.0 + n2)


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
        if abs(abs(self.m) - 1.0) > UNIT_MODULUS_TOL:
            raise DomainError(f"|m| must be 1, got {abs(self.m)}")


@dataclass
class ChartGrid:
    """Ball-chart samples of one side on a polar tensor grid.

    planes[c, i, k] is component c of the chart at radius radii[i] and
    angle 2 pi k / M.  The chart's energy is integrated where the planes
    are built (`_chart`), from exact radial derivatives that the grid does
    not keep.
    """

    radii: np.ndarray
    weights: np.ndarray
    planes: np.ndarray                       # (2, nr, M) complex

    @property
    def m(self) -> int:
        return self.planes.shape[2]

    def holomorphy_residual(self) -> float:
        """Cross-ring Laurent consistency of the chart samples.

        A holomorphic map has angular coefficients c_n(r) = a_n r^n with no
        negative modes; the residual compares every ring against the
        coefficients fitted at the outermost ring, plus the negative-mode
        content, normalized by the sample scale.  After the outermost
        ring's FFT, the rings are swept in blocks of `_block_rings`.
        """
        planes, m = self.planes, self.m
        # modes 0..M/4 and -M/4..-1, in FFT order
        pos, neg = slice(0, m // 4 + 1), slice(m - m // 4, m)
        n_pos = np.arange(m // 4 + 1)
        r = self.radii
        outer = (np.fft.fft(planes[:, -1], axis=-1) / m)[:, None, pos]
        scale = res_pos = res_neg = 0.0
        step = _block_rings(16 * m)
        # np.maximum, unlike max, keeps a NaN of either operand
        for i0 in range(0, len(r), step):
            block = planes[:, i0:i0 + step]
            coef = np.fft.fft(block, axis=-1) / m
            ratio = (r[i0:i0 + step, None] / r[-1]) ** n_pos
            scale = np.maximum(scale, np.max(np.abs(block)))
            res_pos = np.maximum(res_pos, np.max(np.abs(
                coef[..., pos] - outer * ratio)))
            res_neg = np.maximum(res_neg, np.max(np.abs(coef[..., neg])))
        return float(np.maximum(res_pos, res_neg)
                     / np.maximum(scale, 1e-300))

    def sign_violation(self, side: int) -> float:
        """How far det(omega) on the chart falls short of the side's sign.

        det(omega) is positive on the upper chart and negative on the
        lower one, whose transverse coordinate is -x0.
        """
        step, short = _block_rings(16 * self.m), 0.0
        for i0 in range(0, len(self.radii), step):
            x0 = _x0(self.planes[:, i0:i0 + step])
            tau = det_omega_closed_form(side * x0)
            short = np.maximum(short, -np.min(side * tau))
        # keeps NaN; a tie returns the second operand, so -0.0 reads +0.0
        return float(np.maximum(short, 0.0))


@dataclass
class FoldedMapBundle:
    """A folded holomorphic map candidate with all of its sampled data.

    Charts hold the two hemisphere maps in their ball coordinates (the
    lower side in the inverted coordinate of its disk); boundary loops are
    parametrized by the fold circle of the common domain.  Homology labels
    are (characteristic, degree) per side; `m_res`, `x` and `degree` are
    read off the tunneling map v_+.
    """

    psi_scale: float
    chart_plus: ChartGrid
    chart_minus: ChartGrid
    boundary_plus: np.ndarray        # (2, M) fold values u_+|sigma
    boundary_minus: np.ndarray
    pair: ConjugatePair
    energies: dict[str, float]
    label: str = ""

    @property
    def m_res(self) -> int:
        return self.pair.v_plus.m

    @property
    def x(self) -> CharacteristicParam:
        return self.pair.v_plus.x

    @property
    def degree(self) -> int:
        return self.pair.v_plus.degree


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
        return self.as_dict()["max_residual"]

    def passed(self, tol: float = RESIDUAL_PASS_TOL) -> bool:
        return self.max_residual() < tol

    def as_dict(self) -> dict[str, float]:
        """The residual fields in declaration order, the conjugacy report
        by its maximum, then the maximum of them all, NaN if any is."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "conjugacy"}
        out["conjugacy_max"] = self.conjugacy_max
        out["max_residual"] = float(np.max(list(out.values())))
        return out


# ---------------------------------------------------------------------------
# degree-1 family


def _chart(radii: np.ndarray, weights: np.ndarray, y: np.ndarray,
           dy: np.ndarray) -> tuple[ChartGrid, float]:
    """A side's chart grid of (2, nr, M) value planes y, and its energy.

    The omega energy is the closed-form holomorphic density of
    `chart_omega_energy`, integrated from the exact radial derivative
    planes dy, which the grid does not keep.  Every chart of both
    constructions is holomorphic in its sample coordinate.
    """
    return (ChartGrid(radii, weights, y),
            chart_omega_energy(y, dy, radii, weights))


def _family_planes(c: complex, m: complex, m_res: int, nr: int, side: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Radii, weights and the (2, nr, M) value and exact d/dr planes of
    one side's chart in the degree-1 family.

    The upper chart is (r0 m z, m c) and the lower one, in the inverted
    coordinate zeta = 1/z, is (r0 m zeta, m c zeta^2).  Each plane is the
    outer product of a per-ring real and a per-angle phase; e^{2i theta_k}
    is the sampled e^{i theta} read at the exact index 2k mod M.
    """
    r0 = np.sqrt(1.0 - abs(c) ** 2)
    radii, weights = gauss_legendre_radial(nr)
    ph = np.exp(1j * sp.angles(m_res))
    y = np.empty((2, nr, m_res), complex)
    dy = np.empty_like(y)
    np.multiply(radii[:, None], r0 * m * ph, out=y[0])
    dy[0] = r0 * m * ph
    if side > 0:
        y[1] = m * c
        dy[1] = 0.0
    else:
        ph2 = m * c * ph[2 * np.arange(m_res) % m_res]
        np.multiply((radii * radii)[:, None], ph2, out=y[1])
        np.multiply((2.0 * radii)[:, None], ph2, out=dy[1])
    return radii, weights, y, dy


def _unit(planes: np.ndarray) -> np.ndarray:
    """Radial projection onto S^3 of C^2 values in (2, ...) planes, in place.

    Returns the planes.  The norm is the expression of np.linalg.norm
    along the component axis, so the values equal
    w / np.linalg.norm(w, axis=0) bit for bit.
    """
    sq = np.conj(planes[0])
    sq *= planes[0]
    norm = sq.real.copy()
    np.conj(planes[1], out=sq)
    sq *= planes[1]
    norm += sq.real
    planes /= np.sqrt(norm, out=norm)
    return planes


def _family_ladder(c: complex, m: complex, m_res: int, side: int,
                   ladder: Ladder) -> TunnelMapSample:
    """One side's tunneling map of the degree-1 family on the ladder.

    With r = r0 e^u and s = sqrt(r^2 + |c|^2),
    v_+ = (m e^{i theta} r/s, m c/s) and
    v_- = (m e^{-i theta} r/s, m c e^{-2i theta}/s), so each (R, M) plane
    is written as the outer product of a per-ring real and a per-angle
    phase.  e^{-i theta_k} and e^{-2i theta_k} are the sampled
    e^{i theta} read at the exact indices (-k) mod M and (-2k) mod M.
    """
    r0 = np.sqrt(1.0 - abs(c) ** 2)
    r = r0 * np.exp(ladder.u)
    s = np.sqrt(r * r + abs(c) ** 2)
    ph = np.exp(1j * sp.angles(m_res))
    if side > 0:
        ph0, ph1 = ph, np.ones(m_res)
    else:
        k = np.arange(m_res)
        ph0, ph1 = ph[-k % m_res], ph[-2 * k % m_res]
    planes = np.empty((2, len(r), m_res), complex)
    np.multiply((r / s)[:, None], m * ph0, out=planes[0])
    np.multiply((1.0 / s)[:, None], m * c * ph1, out=planes[1])
    return TunnelMapSample(r0, ladder, planes, CharacteristicParam(m), side)


def _side(chart: tuple[ChartGrid, float], v: TunnelMapSample
          ) -> tuple[ChartGrid, float, TunnelMapSample, float]:
    """One side's (chart grid, chart energy, tunneling map, its energy)."""
    return (*chart, v, tunneling_omega_energy(v))


def _assemble(sides: tuple[tuple, tuple], boundary_plus: np.ndarray,
              boundary_minus: np.ndarray, psi_scale: float,
              label: str) -> FoldedMapBundle:
    """Pair the two sides' tunneling maps and bundle them with the charts."""
    (chart_p, e_up, vp, e_vp), (chart_m, e_um, vm, e_vm) = sides
    energies = {"E_u_plus": e_up, "E_u_minus": e_um,
                "E_v_plus": e_vp, "E_v_minus": e_vm}
    return FoldedMapBundle(
        psi_scale=psi_scale, chart_plus=chart_p, chart_minus=chart_m,
        boundary_plus=boundary_plus, boundary_minus=boundary_minus,
        pair=ConjugatePair(vp, vm), energies=energies,
        label=label)


# the largest |c| the degree-1 family is sampled at
FAMILY_C_MAX = 0.99


def _check_family_c(c: complex) -> None:
    if abs(c) > FAMILY_C_MAX:
        raise DomainError(f"|c| = {abs(c)!r} is above {FAMILY_C_MAX}, the "
                          "largest |c| the degree-1 family is sampled at")


def degree1_family(param: ModuliParam, m_res: int,
                   nr: int = 0) -> FoldedMapBundle:
    """Sample the explicit degree-1 family at the given parameter.

    All five closed-form components are sampled: the two hemisphere maps,
    the conjugate tunneling pair, and the domain rescaling.
    """
    c, m = param.c, param.m
    _check_family_c(c)
    nr = nr or CONFIG.grid.radial_nodes

    r0 = np.sqrt(1.0 - abs(c) ** 2)
    th = sp.angles(m_res)
    ladder = default_ladder()

    def sample_side(side):
        return _side(_chart(*_family_planes(c, m, m_res, nr, side)),
                     _family_ladder(c, m, m_res, side, ladder))

    sides = both(sample_side, 1, -1)

    boundary_plus = np.stack([r0 * m * np.exp(1j * th), np.full(m_res, m * c)])
    boundary_minus = np.stack(
        [r0 * m * np.exp(-1j * th), m * c * np.exp(-2j * th)])
    return _assemble(sides, boundary_plus, boundary_minus, r0,
                     f"degree1(c={c!r}, m={m!r})")


# ---------------------------------------------------------------------------
# verification


def verify_folded_holomorphic(bundle: FoldedMapBundle) -> VerificationReport:
    """Recompute every defining condition of a folded holomorphic map.

    Reports the chart holomorphy residuals, the sign and boundary
    vanishing of the pullback of det(omega), the matching of hemisphere
    and tunneling boundary values, and the full conjugacy report of the
    tunneling pair.  det(omega) is positive on the upper chart and
    negative on the lower one, whose transverse coordinate is -x0.
    """
    def chart_checks(side):
        chart, sign = side
        return chart.holomorphy_residual(), chart.sign_violation(sign)

    (holo_p, viol_p), (holo_m, viol_m) = both(
        chart_checks, (bundle.chart_plus, 1), (bundle.chart_minus, -1))

    tau_b = float(np.max(np.abs(det_omega_closed_form(_x0(np.concatenate(
        [bundle.boundary_plus, bundle.boundary_minus], axis=-1))))))
    tau_sign = float(np.maximum(viol_p, viol_m))

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


def compactification_sample(c_values: np.ndarray, m: complex, m_res: int,
                            nr: int) -> list[CompactificationRow]:
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
        param = ModuliParam(complex(c), m)
        _check_family_c(param.c)
        _, ep = _chart(*_family_planes(param.c, param.m, m_res, nr, 1))
        _, em = _chart(*_family_planes(param.c, param.m, m_res, nr, -1))
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
        if abs(abs(self.m) - 1.0) > UNIT_MODULUS_TOL:
            raise InputError("|m| must be 1")

    @property
    def degree(self) -> int:
        dp = len(self.p_coeffs) - 1 if len(self.p_coeffs) else -1
        dq = len(self.q_coeffs) - 1 if len(self.q_coeffs) else -1
        return max(dp, dq)

    def eval(self, z: np.ndarray) -> np.ndarray:
        """The curve's values (p(z), q(z)) as a (2, ...) stack."""
        p = np.polynomial.polynomial.polyval(z, self.p_coeffs) \
            if len(self.p_coeffs) else np.zeros_like(z)
        q = np.polynomial.polynomial.polyval(z, self.q_coeffs) \
            if len(self.q_coeffs) else np.zeros_like(z)
        return np.stack([p, q])

    def derivative(self, z: np.ndarray) -> np.ndarray:
        """The curve's derivative (p'(z), q'(z)) as a (2, ...) stack."""
        dp = np.polynomial.polynomial.polyder(self.p_coeffs) \
            if len(self.p_coeffs) > 1 else np.zeros(1, complex)
        dq = np.polynomial.polynomial.polyder(self.q_coeffs) \
            if len(self.q_coeffs) > 1 else np.zeros(1, complex)
        return np.stack([np.polynomial.polynomial.polyval(z, dp),
                         np.polynomial.polynomial.polyval(z, dq)])

    @staticmethod
    def from_json(data: dict) -> "CurveInput":
        def arr(key):
            return np.array([complex(re, im) for re, im in data[key]])
        return CurveInput(arr("p"), arr("q"),
                          complex(data["m"][0], data["m"][1]))


def find_circular_fold(curve: CurveInput) -> float:
    """Radius of the circular fold |w| = 1, certified to tolerance.

    By Parseval the circle mean of |w|^2 at radius sqrt(s) is the convex,
    increasing P(s) = sum_k a_k s^k, a_k = |p_k|^2 + |q_k|^2.  Newton's
    method falls monotonically to P = 1 from the least a_k^{-1/k}, k >= 1,
    where P is in [1, d + 1] (a_d^{-1/d} for w = (p_d z^d, q_0)).  The
    Tier-1 contract then requires |w| = 1 on 512 samples of the circle.
    """
    poly = np.polynomial.polynomial
    lo, hi = FOLD_RADIUS_RANGE
    a = np.zeros(curve.degree + 1)
    # a square past the float range is rejected below; a P(hi^2) past it
    # is inf, which reaches 1
    with np.errstate(over="ignore"):
        a[:len(curve.p_coeffs)] += np.abs(curve.p_coeffs) ** 2
        a[:len(curve.q_coeffs)] += np.abs(curve.q_coeffs) ** 2
        p_hi = poly.polyval(hi * hi, a)
    if not np.all(np.isfinite(a)):
        raise TierViolationError(
            "no fold circle: a curve coefficient's square overflows")
    if p_hi < 1.0:
        raise TierViolationError("no fold circle: |w| never reaches 1")
    if a[0] >= 1.0 or poly.polyval(lo * lo, a) > 1.0:
        raise TierViolationError("no fold circle: |w| exceeds 1 everywhere")
    k = np.flatnonzero(a[1:]) + 1      # not empty, as P(hi^2) >= 1 > a_0
    with np.errstate(over="ignore"):   # a tiny a_k's inf start is cut to hi^2
        s, last = min(np.min(a[k] ** (-1.0 / k)), hi * hi), np.inf
    da = poly.polyder(a)
    while s < last:                    # until a step no longer decreases s
        last, s = s, s - (poly.polyval(s, a) - 1.0) / poly.polyval(s, da)
    rho = float(np.sqrt(last))
    th = sp.angles(512)
    defect = float(np.max(np.abs(np.linalg.norm(
        curve.eval(rho * np.exp(1j * th)), axis=0) - 1.0)))
    if defect > CONFIG.tol.fold_circularity:
        raise TierViolationError(
            f"fold locus is not a circle: circularity defect {defect:.3e}")
    return rho


def _curve_planes(curve: CurveInput, f_log: Optional[LaurentField],
                  rho: float, m_res: int, nr: int, side: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Radii, weights and the (2, nr, M) value and exact d/dr planes of
    one side's chart in the degree-d construction.

    The upper chart (side +1) is the curve w on the fold disk |z| <= rho,
    with d/dr = e^{i theta} w'(z); it needs no f_log.  The lower chart is
    u_- = f w at z = 1/zeta, f = exp(F) (z/rho)^k the multiplier of the
    log-scale field F: it is sampled on the circles |z| = 1/|zeta| at the
    angles of z and reindexed to the zeta angle, and d/d|zeta| = -|z|^2
    d/dr with d/dr f = f (d/dr F + k/r), written in `_block_rings` blocks.
    """
    radii, weights = gauss_legendre_radial(nr)
    ph = np.exp(1j * sp.angles(m_res))[None, :]
    if side > 0:
        z = rho * radii[:, None] * ph
        dy = curve.derivative(z)
        dy *= ph
        return rho * radii, rho * weights, curve.eval(z), dy
    zeta_r = radii / rho
    zr = 1.0 / zeta_r
    flip = (-np.arange(m_res)) % m_res
    y = np.empty((2, nr, m_res), complex)
    dy = np.empty_like(y)
    step = _block_rings(16 * m_res)
    for i0 in range(0, nr, step):
        rows, r = slice(i0, i0 + step), zr[i0:i0 + step]
        z = r[:, None] * ph
        f = f_log.multiplier_samples(r)
        df = f * (f_log.radial_derivative(r)
                  + f_log.puncture_pole_order / r[:, None])
        for k, (w, dw) in enumerate(zip(curve.eval(z), curve.derivative(z))):
            # the multiplier stays the first operand, which decides the
            # rounding of the product
            y[k, rows] = (f * w)[:, flip]
            dy[k, rows] = (df * w + f * (ph * dw))[:, flip]
    over = np.max(np.sqrt(np.abs(y[0]) ** 2 + np.abs(y[1]) ** 2))
    if not over <= 1.0 + LOWER_BALL_TOL:       # negated, so NaN fails too
        raise VerificationError(
            f"|f w| exceeds 1 on the lower domain (max {over:.6f}); "
            "the curve leaves the lower hemisphere")
    dy *= -(zr ** 2)[:, None]
    return zeta_r, weights / rho, y, dy


def construct_degree_d(curve: CurveInput, m: complex, m_res: int,
                       nr: int = 0) -> FoldedMapBundle:
    """Build a degree-d folded holomorphic map from a plane curve.

    The upper map is the curve inside its fold circle; the lower map is
    the curve rescaled by the normalization multiplier whose log-scale
    object the harmonic engine solves, with the phase pinned through the
    marker on the limiting characteristic.  Two `both` phases follow that
    chain: v_+ beside the upper chart, then the lower chart beside v_-.
    """
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

    def tunnel_plus():
        # tunneling map v_+ = projection of the curve on the exterior
        vp = sample_tunnel_map(lambda z: _unit(curve.eval(z)), rho, m_res,
                               x, d)
        # immersion floor for pi_F dw near the fold (cylinder-scaled
        # Fubini-Study derivative of the projected curve)
        near = vp.ladder.u <= 1.0
        zz = rho * np.exp(vp.ladder.u[near])[:, None] * np.exp(1j * th)
        p, q = curve.eval(zz)
        dp, dq = curve.derivative(zz)
        fs = (np.abs(p * dq - q * dp) * np.abs(zz)
              / (np.abs(p) ** 2 + np.abs(q) ** 2))
        if float(np.min(fs)) < CONFIG.tol.immersion_floor:
            raise NonImmersedBoundaryError(
                f"pi_F dw degenerates near the fold (min {np.min(fs):.3e})")
        # the data is (v_+^* alpha o j)(d_theta) = -v_+^* alpha(d_u) on sigma
        return vp, fold_data(vp, -1.0), tunneling_omega_energy(vp)

    def tunnel_minus():
        # tunneling map v_- = projection of f w on the ladder of v_+
        radii_v = vp.radii()
        fw = curve.eval(radii_v[:, None] * np.exp(1j * th)[None, :])
        np.multiply(f_log.multiplier_samples(radii_v), fw, out=fw)
        vm = TunnelMapSample(rho, vp.ladder, _unit(fw), x, -d)
        return vm, tunneling_omega_energy(vm)

    # the first task of a phase runs here and its error wins; charts: the
    # upper side on the fold disk, the lower side in zeta = 1/z
    (vp, (data, t_marker), e_vp), chart_p = both(
        lambda task: task(), tunnel_plus,
        lambda: _chart(*_curve_planes(curve, None, rho, m_res, nr, 1)))
    # normalization multiplier from the harmonic engine
    if data is None:
        data = np.zeros(m_res)
    f_log = solve_f_degree_d(BoundaryLoopSamples(data, rho),
                             x.point(t_marker), x, d)
    chart_m, (vm, e_vm) = both(
        lambda task: task(),
        lambda: _chart(*_curve_planes(curve, f_log, rho, m_res, nr, -1)),
        tunnel_minus)

    boundary_plus = curve.eval(rho * np.exp(1j * th))
    # parametrized by the sigma angle theta
    boundary_minus = f_log.multiplier_samples() * boundary_plus
    return _assemble(((*chart_p, vp, e_vp), (*chart_m, vm, e_vm)),
                     boundary_plus, boundary_minus, 1.0, f"degree{d}(curve)")


# ---------------------------------------------------------------------------
# export


def bundle_report(bundle: FoldedMapBundle,
                  report: Optional[VerificationReport] = None,
                  op_data=None, loops=None) -> dict:
    """Machine-readable summary with residuals, energies and frame data.

    The verification report, the boundary-operator data and the
    boundary-condition loops are computed here unless the caller passes
    them in.
    """
    if report is None:
        report = verify_folded_holomorphic(bundle)
    if op_data is None:
        op_data = boperator_data_from_bundle(bundle)
    if loops is None:
        loops = boundary_condition_loops(bundle)
    operator, loop_data = report_sections(op_data, loops)
    return {
        "schema": SCHEMA,
        "label": bundle.label,
        "degree": bundle.degree,
        "m": [bundle.x.m.real, bundle.x.m.imag],
        "resolution": bundle.m_res,
        "psi_scale": bundle.psi_scale,
        "residuals": report.as_dict(),
        "conjugacy": asdict(report.conjugacy),
        "energies": dict(bundle.energies),
        "boundary_operator": operator,
        "loops": loop_data,
    }
