"""Geometry of the folded symplectic 4-sphere and its fold S^3.

The 4-sphere sits in R^5 with coordinates (x0, x1..x4); the fold is the
equatorial S^3 = {x0 = 0}, identified with the unit sphere of C^2 via
z = x1 + i x2, w = x3 + i x4.  The folded form is the pullback of the
standard symplectic form of R^4 (scaled by 1/pi) under the projection that
drops x0.  Each closed hemisphere is parametrised by the closed unit ball
of C^2 through `embed_hemisphere`, the equator staying fixed pointwise, and
carries the complex structure inherited from that chart.

Tangent vectors at fold points are stored as vectors of C^2 in the chart
representation: vectors tangent to S^3 are represented by themselves, and
the ball-radial direction +p represents the transverse direction e_K
(the one whose image under the upper one-sided complex structure is the
positive Reeb direction).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _spectral as sp
from .config import CONFIG
from .errors import DomainError

TWO_PI = 2.0 * np.pi
TANGENT_TOL = 1e-10    # TangentAtFold: largest |<p, v>| / max(1, |v|)
HEMISPHERE_TOL = 1e-9  # chart_of_hemisphere: how far past the equator
CHARACTERISTIC_TOL = 1e-8  # CharacteristicParam.parameter_of: largest |w|

# bytes of rows per ring block: 8 complex rings at M = 2048, so one
# block's input and output rows stay in L2, and more rings at smaller M,
# where Python-level block calls would dominate
_BLOCK_BYTES = 8 * 2048 * 16


def _block_rings(row_bytes: int) -> int:
    """Rings per block of a ring-block pass over rows of row_bytes."""
    return max(8, _BLOCK_BYTES // row_bytes)


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class Point4Sphere:
    """Point of the unit 4-sphere in R^5."""

    x: np.ndarray  # shape (5,)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if abs(np.dot(x, x) - 1.0) > CONFIG.tol.point_tol:
            raise DomainError(f"point not on S^4: |x|^2 = {np.dot(x, x)!r}")

    @property
    def x0(self) -> float:
        return float(self.x[0])

    def equator_part(self) -> np.ndarray:
        """The projection Pi dropping x0, (x1 + i x2, x3 + i x4) in C^2."""
        return np.array([self.x[1] + 1j * self.x[2],
                         self.x[3] + 1j * self.x[4]])


@dataclass(frozen=True)
class FoldPoint:
    """Point of the fold S^3, as a unit vector of C^2."""

    z: complex
    w: complex

    def __post_init__(self):
        n = abs(self.z) ** 2 + abs(self.w) ** 2
        if abs(n - 1.0) > CONFIG.tol.point_tol:
            raise DomainError(f"point not on S^3: |p|^2 = {n!r}")

    def as_c2(self) -> np.ndarray:
        return np.array([self.z, self.w], dtype=complex)

    def as_point4(self) -> Point4Sphere:
        return Point4Sphere(np.array([
            0.0, self.z.real, self.z.imag, self.w.real, self.w.imag]))

    def flow(self, t: float) -> "FoldPoint":
        """Characteristic flow t . (z, w) = (e^{2 pi i t} z, e^{2 pi i t} w)."""
        ph = np.exp(2j * np.pi * t)
        return FoldPoint(ph * self.z, ph * self.w)


def fold_point_from_c2(v: np.ndarray) -> FoldPoint:
    v = np.asarray(v, dtype=complex)
    return FoldPoint(complex(v[0]), complex(v[1]))


def normalize_to_fold(v: np.ndarray) -> FoldPoint:
    """Radial projection pi_{S^3} of a nonzero vector of C^2."""
    v = np.asarray(v, dtype=complex)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise DomainError("cannot project the origin onto S^3")
    return fold_point_from_c2(v / n)


@dataclass(frozen=True)
class CharacteristicParam:
    """Parametrised closed characteristic x_m(theta) = (m e^{2 pi i theta}, 0)."""

    m: complex

    def __post_init__(self):
        if abs(abs(self.m) - 1.0) > CONFIG.tol.point_tol:
            raise DomainError(f"|m| != 1: {self.m!r}")

    def point(self, theta: float) -> FoldPoint:
        return FoldPoint(self.m * np.exp(2j * np.pi * theta), 0.0)

    def parameter_of(self, p: FoldPoint) -> float:
        """Inverse parametrisation; p must lie on the characteristic."""
        if abs(p.w) > CHARACTERISTIC_TOL:
            raise DomainError(f"point not on the characteristic: |w| = {abs(p.w)}")
        return float(np.angle(p.z / self.m) / TWO_PI) % 1.0

    def add(self, s: float, t: float) -> FoldPoint:
        """Group structure x(s) + x(t) = x(s + t)."""
        return self.point(s + t)


# ---------------------------------------------------------------------------
# tangent vectors at the fold


@dataclass(frozen=True)
class TangentAtFold:
    """Tangent vector at a fold point in the chart representation.

    `vec` perpendicular to the base point (real inner product) represents a
    vector tangent to S^3; a radial component k*p represents k*e_K, the
    direction transverse to the fold inside S^4.  Pass validate=False to
    allow the latter.
    """

    base: FoldPoint
    vec: np.ndarray  # shape (2,), complex
    validate: bool = True

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex)
        object.__setattr__(self, "vec", v)
        if self.validate:
            ip = float(np.real(np.vdot(self.base.as_c2(), v)))
            if abs(ip) > TANGENT_TOL * max(1.0, np.linalg.norm(v)):
                raise DomainError(
                    f"vector not tangent to S^3: <p, v> = {ip!r}")


def real_inner(u: np.ndarray, v: np.ndarray) -> float:
    """Real Euclidean inner product of C^2 = R^4 vectors."""
    return float(np.real(np.vdot(u, v)))


def omega0(u: np.ndarray, v: np.ndarray) -> float:
    """Standard symplectic form of R^4 = C^2: omega0(u, v) = Im<u, v>."""
    return float(np.imag(np.vdot(u, v)))


def alpha_eval(v: TangentAtFold) -> float:
    """Contact form alpha = (x1 dx2 - x2 dx1 + x3 dx4 - x4 dx3) / (2 pi)."""
    return float(np.imag(np.vdot(v.base.as_c2(), v.vec))) / TWO_PI


def reeb_vector(p: FoldPoint) -> TangentAtFold:
    """Generator of the characteristic flow; alpha(R) = 1."""
    return TangentAtFold(p, 2j * np.pi * p.as_c2())


@dataclass(frozen=True)
class FoldFrame:
    """Orthonormal frame (k, l, f1, f2) at a fold point.

    k spans K (transverse to the fold inside S^4, chart represented by the
    outward ball radial direction), l spans L = R-direction, (f1, f2) is a
    complex frame of the contact plane F with f2 = i f1.
    """

    k: TangentAtFold
    l: TangentAtFold
    f1: TangentAtFold
    f2: TangentAtFold

    def matrix(self) -> np.ndarray:
        """Columns (k, l, f1, f2) as a 2x4 complex matrix."""
        return np.stack([self.k.vec, self.l.vec, self.f1.vec, self.f2.vec],
                        axis=1)


def contact_direction(p: FoldPoint) -> np.ndarray:
    """Unit vector spanning the contact plane F at p as a complex line."""
    return np.array([-np.conj(p.w), np.conj(p.z)])


def fold_frame(p: FoldPoint) -> FoldFrame:
    pc = p.as_c2()
    f1 = contact_direction(p)
    return FoldFrame(
        k=TangentAtFold(p, pc, validate=False),
        l=TangentAtFold(p, 1j * pc),
        f1=TangentAtFold(p, f1),
        f2=TangentAtFold(p, 1j * f1),
    )


def split_ekl_f(v: TangentAtFold) -> tuple[float, float, complex]:
    """Components (k, l, chi) of v in the frame (e_K, e_L, f1): chi complex."""
    p = v.base.as_c2()
    f1 = contact_direction(v.base)
    k = real_inner(p, v.vec)
    l = real_inner(1j * p, v.vec)
    chi = complex(np.vdot(f1, v.vec))
    return k, l, chi


def j_onesided(side: int, v: TangentAtFold) -> TangentAtFold:
    """One-sided complex structure J_side at the fold.

    Both sides act as multiplication by i on the contact plane F; on the
    transverse plane E the upper structure rotates e_K to the Reeb
    direction, the lower one to its negative.
    """
    if side not in (+1, -1):
        raise DomainError(f"side must be +1 or -1, got {side!r}")
    p = v.base.as_c2()
    k, l, chi = split_ekl_f(v)
    f1 = contact_direction(v.base)
    # E part: J_side (k e_K + l e_L) = side * (k e_L - l e_K)
    e_part = side * (k * (1j * p) - l * p)
    f_part = 1j * chi * f1
    return TangentAtFold(v.base, e_part + f_part, validate=False)


# ---------------------------------------------------------------------------
# hemisphere charts


def embed_hemisphere(side: int, y: np.ndarray) -> Point4Sphere:
    """Rational chart of the closed hemisphere over the closed unit ball.

    y in the closed unit ball of C^2 maps to
    (side * (1 - |y|^2) / (1 + |y|^2), 2 y / (1 + |y|^2)); the unit sphere
    |y| = 1 is fixed pointwise on the equator.
    """
    if side not in (+1, -1):
        raise DomainError(f"side must be +1 or -1, got {side!r}")
    y = np.asarray(y, dtype=complex)
    n2 = float(np.real(np.vdot(y, y)))
    if n2 > 1.0 + 1e-9:
        raise DomainError(f"|y| > 1: |y|^2 = {n2!r}")
    d = 1.0 + n2
    vec = 2.0 * y / d
    return Point4Sphere(np.array([
        side * (1.0 - n2) / d,
        vec[0].real, vec[0].imag, vec[1].real, vec[1].imag]))


def chart_of_hemisphere(p: Point4Sphere, side: int) -> np.ndarray:
    """Inverse of embed_hemisphere: y = x / (1 + side * x0)."""
    if side * p.x0 < -HEMISPHERE_TOL:
        raise DomainError("point not on the requested closed hemisphere")
    return p.equator_part() / (1.0 + side * p.x0)


def involution(p: Point4Sphere) -> Point4Sphere:
    """The biholomorphic involution flipping x0."""
    x = p.x.copy()
    x[0] = -x[0]
    return Point4Sphere(x)


def _equator_planes(y: np.ndarray, dy: Optional[np.ndarray] = None
                    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """equator_map (and its differential applied to dy) in one pass.

    y and dy are (2, ...) stacks of the C^2 components; the results are
    contiguous (2, ...) planes.
    """
    y = np.asarray(y, dtype=complex)
    y0, y1 = y
    # two-term sums start from +0.0, as np.sum does, so exact zeros are +0
    d = 1.0 + (0.0 + np.abs(y0) ** 2 + np.abs(y1) ** 2)
    # one component at a time keeps the temporaries plane-sized; [k, ...]
    # is a view even for a single vector
    vals = np.empty((2,) + np.shape(d), dtype=complex)
    for k in (0, 1):
        np.multiply(2.0, y[k], out=vals[k, ...])
        vals[k, ...] /= d
    if dy is None:
        return vals, None
    dy = np.asarray(dy, dtype=complex)
    inner = 0.0 + np.real(np.conj(y0) * dy[0]) + np.real(np.conj(y1) * dy[1])
    d2 = d ** 2
    dvals = np.empty((2,) + np.shape(inner), dtype=complex)
    for k in (0, 1):
        np.subtract(2.0 * dy[k] / d, 4.0 * y[k] * inner / d2,
                    out=dvals[k, ...])
    return vals, dvals


def equator_map(y: np.ndarray) -> np.ndarray:
    """Pi after either hemisphere chart: y -> 2 y / (1 + |y|^2), (2, ...)."""
    return _equator_planes(y)[0]


def equator_map_differential(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Differential of equator_map at y applied to dy, both (2, ...) stacks."""
    return _equator_planes(y, dy)[1]


# ---------------------------------------------------------------------------
# folded form on S^4


def omega_s4(p: Point4Sphere, u: np.ndarray, v: np.ndarray) -> float:
    """The folded form omega = Pi^*(omega0 / pi) on tangents u, v in R^5."""
    uc = np.array([u[1] + 1j * u[2], u[3] + 1j * u[4]])
    vc = np.array([v[1] + 1j * v[2], v[3] + 1j * v[4]])
    return omega0(uc, vc) / np.pi


def _oriented_tangent_basis(p: Point4Sphere) -> list[np.ndarray]:
    """Orthonormal basis of T_p S^4 with det[p, b1..b4] > 0."""
    basis = []
    x = p.x
    for k in range(5):
        e = np.zeros(5)
        e[k] = 1.0
        cand = e - np.dot(e, x) * x
        for b in basis:
            cand = cand - np.dot(cand, b) * b
        n = np.linalg.norm(cand)
        if n > 1e-6:
            basis.append(cand / n)
        if len(basis) == 4:
            break
    mat = np.column_stack([x] + basis)
    if np.linalg.det(mat) < 0:
        basis[0] = -basis[0]
    return basis


def det_omega(p: Point4Sphere) -> float:
    """Ratio (omega ^ omega) / dvol_{S^4} at p; sign equals sign(x0)."""
    b = _oriented_tangent_basis(p)
    om = np.zeros((4, 4))
    for i in range(4):
        for j in range(i + 1, 4):
            om[i, j] = omega_s4(p, b[i], b[j])
            om[j, i] = -om[i, j]
    pf = om[0, 1] * om[2, 3] - om[0, 2] * om[1, 3] + om[0, 3] * om[1, 2]
    return 2.0 * pf


# ---------------------------------------------------------------------------
# Hopf projection


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of the projective line CP^1 = S^2 with a canonical representative."""

    rep: np.ndarray  # unit vector of C^2, first nonzero component positive real

    @staticmethod
    def of(v: np.ndarray) -> "ProjectivePoint":
        v = np.asarray(v, dtype=complex)
        n = np.linalg.norm(v)
        if n == 0:
            raise DomainError("projective point of the zero vector")
        v = v / n
        pivot = v[0] if abs(v[0]) > 0.5 else v[1]
        return ProjectivePoint(v * np.conj(pivot) / abs(pivot))

    def bloch(self) -> np.ndarray:
        """S^2 coordinates (2 Re zbar w, 2 Im zbar w, |z|^2 - |w|^2)."""
        z, w = self.rep
        zw = np.conj(z) * w
        return np.array([2 * zw.real, 2 * zw.imag,
                         abs(z) ** 2 - abs(w) ** 2])

    def distance(self, other: "ProjectivePoint") -> float:
        return float(np.linalg.norm(self.bloch() - other.bloch())) / 2.0


def hopf_project(p: FoldPoint) -> ProjectivePoint:
    """Quotient by the characteristic circle action: [z : w]."""
    return ProjectivePoint.of(p.as_c2())


# ---------------------------------------------------------------------------
# energy quadrature


@functools.lru_cache(maxsize=16)
def gauss_legendre_radial(nr: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], read-only and cached."""
    nodes, weights = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    r.setflags(write=False)
    w.setflags(write=False)
    return r, w


def _barycentric_diff_matrix(x: np.ndarray) -> np.ndarray:
    """Barycentric differentiation matrix on the nodes x (Berrut-Trefethen)."""
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    wb = 1.0 / np.prod(diff, axis=1)
    d = wb[None, :] / (wb[:, None] * diff)
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def omega_energy(y: np.ndarray, radii: np.ndarray, weights: np.ndarray,
                 dy: Optional[np.ndarray] = None) -> float:
    """Integral of the pullback of omega over a chart's polar grid.

    y is a (2, nr, M) stack of ball-chart samples at radius radii[i] and
    angle 2 pi k / M, and `weights` are radial quadrature weights.  The
    integrand is the omega density Im<d_r Pi(y), d_theta Pi(y)> / pi of
    the equator map Pi: spectral in the angle, and in the radius the
    exact derivative planes dy when given, otherwise a barycentric
    differentiation matrix over the radial nodes.  Any chart will do;
    `chart_omega_energy` is the fast route for holomorphic ones.
    """
    y = np.asarray(y, dtype=complex)
    radii = np.asarray(radii, dtype=float)
    if y.ndim != 3 or y.shape[0] != 2:
        raise DomainError("chart samples must have shape (2, nr, M)")
    if len(radii) < 2 or y.shape[2] < 4:
        raise DomainError("degenerate grid")
    if y.shape[1] != len(radii) or (dy is not None
                                    and np.shape(dy) != y.shape):
        raise DomainError("grid shape mismatch")
    vals, dr = _equator_planes(y, dy)
    dt = sp.theta_derivative(vals)
    if dr is None:
        # one real matmul per plane over its interleaved (re, im) columns
        d = _barycentric_diff_matrix(radii)
        dr = (d @ vals.view(float)).view(complex)
    density = np.imag(0.0 + np.conj(dr[0]) * dt[0]
                      + np.conj(dr[1]) * dt[1]) / np.pi
    rings = np.sum(density, axis=-1) * (2.0 * np.pi / density.shape[-1])
    return float(np.dot(np.asarray(weights, dtype=float), rings))


def chart_omega_energy(y: np.ndarray, dy: np.ndarray, radii: np.ndarray,
                       weights: np.ndarray) -> float:
    """Omega energy of a chart that is holomorphic in its sample coordinate.

    y and dy are (2, nr, M) planes of ball-chart samples and their exact
    radial derivatives at the given radii.  The chart must be holomorphic
    in the coordinate r e^{i theta} it is sampled in, which
    `ChartGrid.holomorphy_residual` certifies: then d/dtheta y = i r dy,
    and the omega density Im<d_r Pi(y), d_theta Pi(y)> / pi of the
    equator map Pi(y) = 2 y / d, d = 1 + |y|^2, is the closed form
    r (4 |dy|^2 / d^2 - 8 |<y, dy>|^2 / d^3) / pi.  One pass over blocks
    of `_block_rings` rings integrates it ring by ring, with no equator
    map, no d/dtheta and no grid-sized temporary.  A chart that is not
    holomorphic needs `omega_energy`.
    """
    nr, m = y.shape[1:]
    rings = np.empty(nr)
    step = _block_rings(16 * m)
    for i0 in range(0, nr, step):
        y0, y1 = y[:, i0:i0 + step]
        dy0, dy1 = dy[:, i0:i0 + step]
        d = 1.0 + np.abs(y0) ** 2 + np.abs(y1) ** 2
        inner = np.conj(y0) * dy0 + np.conj(y1) * dy1
        # (|dy|^2 - 2 |<y, dy>|^2 / d) / d^2
        density = (np.abs(dy0) ** 2 + np.abs(dy1) ** 2
                   - 2.0 * np.abs(inner) ** 2 / d) / (d * d)
        rings[i0:i0 + step] = np.sum(density, axis=-1)
    # ring integral: (2 pi / M) * r * (4 / pi) * the sum over the angles
    rings *= radii
    return float(np.dot(np.asarray(weights, float), rings)) * (8.0 / m)
