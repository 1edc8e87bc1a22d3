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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _spectral as sp
from .config import CONFIG
from .errors import DomainError

TWO_PI = 2.0 * np.pi


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
        """The C^2 part (x1 + i x2, x3 + i x4)."""
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

    def parameter_of(self, p: FoldPoint, tol: float = 1e-8) -> float:
        """Inverse parametrisation; p must lie on the characteristic."""
        if abs(p.w) > tol:
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
            if abs(ip) > CONFIG.tol.tangent_tol * max(1.0, np.linalg.norm(v)):
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
    if side * p.x0 < -CONFIG.tol.abs_tol:
        raise DomainError("point not on the requested closed hemisphere")
    return p.equator_part() / (1.0 + side * p.x0)


def project_equator(p: Point4Sphere) -> np.ndarray:
    """Coordinate projection Pi dropping x0, as a vector of C^2 = R^4."""
    return p.equator_part()


def involution(p: Point4Sphere) -> Point4Sphere:
    """The biholomorphic involution flipping x0."""
    x = p.x.copy()
    x[0] = -x[0]
    return Point4Sphere(x)


def equator_map(y: np.ndarray) -> np.ndarray:
    """Pi composed with either hemisphere chart: y -> 2 y / (1 + |y|^2)."""
    y = np.asarray(y, dtype=complex)
    n2 = np.sum(np.abs(y) ** 2, axis=-1, keepdims=True)
    return 2.0 * y / (1.0 + n2)


def equator_map_differential(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Differential of equator_map applied to dy (broadcasts over grids)."""
    y = np.asarray(y, dtype=complex)
    dy = np.asarray(dy, dtype=complex)
    n2 = np.sum(np.abs(y) ** 2, axis=-1, keepdims=True)
    d = 1.0 + n2
    inner = np.sum(np.real(np.conj(y) * dy), axis=-1, keepdims=True)
    return 2.0 * dy / d - 4.0 * y * inner / d ** 2


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


def gauss_legendre_radial(nr: int, r_max: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * r_max * (nodes + 1.0)
    w = 0.5 * r_max * weights
    return r, w


def _barycentric_diff_matrix(x: np.ndarray) -> np.ndarray:
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


@dataclass
class PolarMapGrid:
    """Map samples on a polar tensor grid, taking values in the equator plane.

    values[i, k] is the R^4 = C^2 value at radius radii[i], angle
    2 pi k / M.  `weights` are radial quadrature weights; `dvalues_dr`,
    when given, holds exact radial derivatives (otherwise a barycentric
    differentiation matrix over the radial nodes is used).
    """

    radii: np.ndarray
    weights: np.ndarray
    values: np.ndarray          # (nr, M, 2) complex
    dvalues_dr: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.radii) < 2 or self.values.shape[1] < 4:
            raise DomainError("degenerate grid")
        if self.values.shape[0] != len(self.radii):
            raise DomainError("grid shape mismatch")


def grid_from_chart(chart_values: np.ndarray, radii: np.ndarray,
                    weights: np.ndarray,
                    dchart_dr: Optional[np.ndarray] = None) -> PolarMapGrid:
    """Build a PolarMapGrid from ball-chart samples y (and optional dy/dr)."""
    y = np.asarray(chart_values, dtype=complex)
    vals = equator_map(y)
    dvr = None
    if dchart_dr is not None:
        dvr = equator_map_differential(y, np.asarray(dchart_dr, dtype=complex))
    return PolarMapGrid(np.asarray(radii, float), np.asarray(weights, float),
                        vals, dvr)


def omega_energy(grid: PolarMapGrid) -> float:
    """Integral of the pullback of omega over the gridded 2-domain.

    Spectral in the angle, Gauss quadrature in the radius; exact radial
    derivatives are used when the grid carries them.
    """
    y = grid.values
    m = y.shape[1]
    dtheta = sp.theta_derivative(np.moveaxis(y, 1, 0))
    dtheta = np.moveaxis(dtheta, 0, 1)
    if grid.dvalues_dr is not None:
        dr = grid.dvalues_dr
    else:
        d = _barycentric_diff_matrix(grid.radii)
        dr = np.einsum("ij,jkl->ikl", d, y)
    density = np.imag(np.sum(np.conj(dr) * dtheta, axis=2)) / np.pi
    ring_integrals = np.sum(density, axis=1) * (2.0 * np.pi / m)
    return float(np.dot(grid.weights, ring_integrals))
