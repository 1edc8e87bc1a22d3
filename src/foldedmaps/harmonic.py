"""Spectral solvers for scalar boundary value problems on circular domains.

Everything is a Fourier multiplier: Dirichlet extensions attach the decay
factor (r/rho)^|n| or (rho/r)^|n| to the boundary trace, the harmonic
conjugate multiplies modes by -+ i sign(n) (interior/exterior), and the
Neumann problem divides by |n|.  Fields are represented by their boundary
trace coefficients together with the domain kind, which is exactly the
analytic continuation data for holomorphic fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _spectral as sp
from .config import CONFIG
from .errors import DomainError, PeriodObstructionError
from .sphere import CharacteristicParam, FoldPoint

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# domain kinds


@dataclass(frozen=True)
class Disk:
    rho: float = 1.0


@dataclass(frozen=True)
class ExteriorPunctured:
    """Exterior |z| >= rho of a circle, punctured at infinity."""

    rho: float = 1.0


@dataclass(frozen=True)
class Annulus:
    rho_in: float
    rho_out: float

    def __post_init__(self):
        if not 0 < self.rho_in < self.rho_out:
            raise DomainError("annulus radii must satisfy 0 < rho_in < rho_out")


DomainKind = Union[Disk, ExteriorPunctured, Annulus]
# one radius or an array of radii; None means the boundary radius
Radii = Union[float, np.ndarray, None]


# ---------------------------------------------------------------------------
# boundary samples


@dataclass
class BoundaryLoopSamples:
    """Uniform samples of a function on a circle of given radius.

    The sample count must be a power of two; `orientation` flips the sign
    of loop integrals.
    """

    values: np.ndarray
    radius: float = 1.0
    orientation: int = +1

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        m = v.shape[0]
        if m & (m - 1) != 0 or m < 4:
            raise DomainError(f"sample count must be a power of two, got {m}")
        if self.orientation not in (+1, -1):
            raise DomainError("orientation must be +1 or -1")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def angles(self) -> np.ndarray:
        return sp.angles(self.m)

    def coeffs(self) -> np.ndarray:
        return sp.coeffs(self.values)

    def mean(self) -> complex:
        return complex(np.mean(self.values))

    def check_resolution(self, where: str = "boundary data") -> None:
        sp.check_resolution(self.values, where)


# ---------------------------------------------------------------------------
# Laurent / harmonic fields


@dataclass
class LaurentField:
    """Harmonic or holomorphic scalar field on a circular domain.

    `coeffs` are the Fourier coefficients of the boundary trace (FFT
    order); evaluation attaches the harmonic decay factor of the domain
    kind, which coincides with analytic continuation when the support lies
    on the holomorphic side.  Annulus fields carry two coefficient rows
    (r^n part and r^-n part, with the constant and log r pair at n = 0).

    `puncture_pole_order` records a prescribed winding factor z^order at
    the puncture that multiplies exp(field); see `multiplier_samples`.
    """

    kind: DomainKind
    coeffs: np.ndarray
    puncture_pole_order: int = 0

    @property
    def m(self) -> int:
        return self.coeffs.shape[-1]

    def _radii(self, r: Radii) -> np.ndarray:
        """Radius or radii as a float array with a trailing angle axis."""
        rr = self.boundary_radius() if r is None else r
        return np.asarray(rr, dtype=float)[..., None]

    def _radial_factor(self, r: Union[float, np.ndarray]) -> np.ndarray:
        n = np.abs(sp.modes(self.m))
        if isinstance(self.kind, Disk):
            if np.any(r > self.kind.rho * (1 + 1e-12)):
                raise DomainError("evaluation outside the disk")
            return (r / self.kind.rho) ** n
        if isinstance(self.kind, ExteriorPunctured):
            if np.any(r < self.kind.rho * (1 - 1e-12)):
                raise DomainError("evaluation inside the excluded disk")
            return (self.kind.rho / r) ** n
        raise DomainError("annulus fields are evaluated via trace()")

    def trace(self, r: Radii = None) -> np.ndarray:
        """Field values on the uniform angular grid at radius r.

        r may be an array of radii; the result has one row of M samples per
        radius, each equal to the trace at that radius alone.
        """
        rr = self._radii(r)
        if isinstance(self.kind, Annulus):
            n = sp.modes(self.m)
            a, b = self.coeffs
            fac_a = rr ** n.astype(float)
            fac_b = rr ** (-n.astype(float))
            fac_a[..., n == 0] = 1.0
            fac_b[..., n == 0] = np.log(rr)
            return sp.from_coeffs(a * fac_a + b * fac_b)
        return sp.from_coeffs(self.coeffs * self._radial_factor(rr))

    def radial_derivative(self, r: Radii = None) -> np.ndarray:
        """d/dr of `trace` at radius r > 0 (or one row per radius).

        Each mode's decay factor (r/rho)^|n| or (rho/r)^|n| contributes
        +|n|/r or -|n|/r times itself; annulus fields are not supported.
        """
        if isinstance(self.kind, Annulus):
            raise DomainError("annulus fields have no radial derivative")
        rr = self._radii(r)
        if np.any(rr <= 0):
            raise DomainError("radial derivative needs r > 0")
        n = np.abs(sp.modes(self.m))
        rate = n / rr if isinstance(self.kind, Disk) else -n / rr
        return sp.from_coeffs(self.coeffs * self._radial_factor(rr) * rate)

    def boundary_radius(self) -> float:
        if isinstance(self.kind, Annulus):
            return self.kind.rho_in
        return self.kind.rho

    def eval_at(self, r: float, theta: np.ndarray) -> np.ndarray:
        """Direct evaluation at arbitrary angles (slow path, tests only)."""
        theta = np.atleast_1d(theta)
        n = sp.modes(self.m)
        fac = self._radial_factor(r)
        e = np.exp(1j * np.outer(theta, n))
        return e @ (self.coeffs * fac)

    def check_support(self) -> bool:
        """Coefficients vanish outside the allowed index range.

        Disk-type holomorphic fields live on n >= 0; exterior fields that
        decay at the puncture on n <= 0 (shifted by a prescribed pole
        order).
        """
        n = sp.modes(self.m)
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        if isinstance(self.kind, Disk):
            bad = np.abs(self.coeffs[n < 0])
        elif isinstance(self.kind, ExteriorPunctured):
            bad = np.abs(self.coeffs[n > 0])
        else:
            return True
        return bool(np.all(bad < 1e-10 * scale))

    def multiplier_samples(self, r: Radii = None) -> np.ndarray:
        """exp(field) times the prescribed puncture winding factor.

        With pole order k this is exp(F(z)) (z/rho)^k evaluated on the
        angular grid at radius r (one row per radius when r is an array);
        the boundary modulus is exp(Re F).
        """
        rho = self.boundary_radius()
        k = self.puncture_pole_order
        th = sp.angles(self.m)
        return (np.exp(self.trace(r)) * (self._radii(r) / rho) ** k
                * np.exp(1j * k * th))


# ---------------------------------------------------------------------------
# solvers


def solve_dirichlet(data: BoundaryLoopSamples, kind: DomainKind,
                    data_outer: Optional[BoundaryLoopSamples] = None) -> LaurentField:
    """Harmonic extension of boundary data, bounded at the puncture.

    Annulus domains require both boundary traces (inner first); disk and
    exterior kinds take the single circle the kind describes.
    """
    data.check_resolution("Dirichlet data")
    if isinstance(kind, Annulus):
        if data_outer is None:
            raise DomainError("annulus Dirichlet problem needs two data arrays")
        if data_outer.m != data.m:
            raise DomainError("annulus data arrays disagree in length")
        n = sp.modes(data.m).astype(float)
        ci, co = data.coeffs(), data_outer.coeffs()
        ri, ro = kind.rho_in, kind.rho_out
        a = np.zeros_like(ci)
        b = np.zeros_like(ci)
        nz = sp.modes(data.m) != 0
        det = ri ** n[nz] * ro ** (-n[nz]) - ro ** n[nz] * ri ** (-n[nz])
        a[nz] = (ci[nz] * ro ** (-n[nz]) - co[nz] * ri ** (-n[nz])) / det
        b[nz] = (co[nz] * ri ** n[nz] - ci[nz] * ro ** n[nz]) / det
        # n = 0: c + d log r
        dlog = (co[~nz] - ci[~nz]) / (np.log(ro) - np.log(ri))
        a[~nz] = ci[~nz] - dlog * np.log(ri)
        b[~nz] = dlog
        return LaurentField(kind, np.stack([a, b]))
    if data_outer is not None:
        raise DomainError("only annulus domains take two data arrays")
    if isinstance(kind, (Disk, ExteriorPunctured)):
        return LaurentField(kind, data.coeffs())
    raise DomainError(f"unknown domain kind {kind!r}")


def solve_neumann_vanishing(data: BoundaryLoopSamples,
                            kind: DomainKind) -> LaurentField:
    """Harmonic g on the punctured exterior with g(puncture) = 0 and
    dg o j = data on the boundary tangent.

    The data must have zero mean (solvability: periods of an exact form
    vanish); the radius-independent multiplier is 1/|n|.
    """
    if not isinstance(kind, ExteriorPunctured):
        raise DomainError("vanishing-at-puncture Neumann problem is exterior")
    data.check_resolution("Neumann data")
    c = data.coeffs()
    scale = max(1.0, float(np.max(np.abs(data.values))))
    if abs(c[0]) > CONFIG.tol.period_tol * scale:
        raise PeriodObstructionError(
            f"Neumann data has nonzero mean {c[0]!r}")
    n = sp.modes(data.m)
    out = np.zeros_like(c)
    nz = n != 0
    out[nz] = c[nz] / np.abs(n[nz])
    return LaurentField(kind, out)


def harmonic_conjugate(fld: LaurentField) -> LaurentField:
    """The conjugate g with f + i g holomorphic, normalized g(anchor) = 0.

    The anchor is the disk center or the exterior puncture; the constant
    mode of g is zero in both conventions.
    """
    if isinstance(fld.kind, Annulus):
        raise DomainError("conjugation on an annulus is obstructed (b1 != 0)")
    mult = sp.conjugation_multiplier(fld.m, isinstance(fld.kind, ExteriorPunctured))
    return LaurentField(fld.kind, fld.coeffs * mult, fld.puncture_pole_order)


def boundary_period(one_form_samples: BoundaryLoopSamples) -> float:
    """Loop integral of a sampled 1-form coefficient (on d theta)."""
    v = np.real(one_form_samples.values)
    return float(one_form_samples.orientation * np.mean(v) * TWO_PI)


def solve_Qtilde(zeta_k: BoundaryLoopSamples) -> tuple[BoundaryLoopSamples, BoundaryLoopSamples]:
    """Boundary traces (f, g) of the extension operator on the exterior.

    f is the bounded harmonic extension of the radial coefficient, g its
    conjugate vanishing at the puncture, so that f + i g is holomorphic.
    The Reeb coefficient of the input plays no role in the defining
    conditions and is not an argument.
    """
    zeta_k.check_resolution("Qtilde data")
    kind = ExteriorPunctured(zeta_k.radius)
    f_field = solve_dirichlet(zeta_k, kind)
    g_field = harmonic_conjugate(f_field)
    f_tr = BoundaryLoopSamples(np.real(f_field.trace()), zeta_k.radius)
    g_tr = BoundaryLoopSamples(np.real(g_field.trace()), zeta_k.radius)
    return f_tr, g_tr


def solve_f_degree_d(alpha_pullback_tangent: BoundaryLoopSamples,
                     marker_value: FoldPoint,
                     x: CharacteristicParam,
                     degree: int) -> LaurentField:
    """Holomorphic normalization function for the degree-d construction.

    Returns the log-scale object F: its real boundary part integrates
    minus twice the tangential pullback data, its imaginary part is the
    exterior harmonic conjugate, and the puncture carries the prescribed
    winding -2 d recorded in `puncture_pole_order`.  The two normalization
    constants are fixed by unit boundary modulus and by the marker value
    (a point of the closed characteristic), whose parameter sets the
    asymptotic phase of the multiplier exp(F) z^{-2d}.
    """
    data = alpha_pullback_tangent
    data.check_resolution("tangential data")
    vals = np.real(data.values)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if abs(np.mean(vals)) > CONFIG.tol.period_tol * scale:
        raise PeriodObstructionError(
            f"tangential data has nonzero period {np.mean(vals) * TWO_PI!r}")
    # marker parameter; raises if the value is off the characteristic
    phi = TWO_PI * x.parameter_of(marker_value, tol=1e-8)

    re_boundary = sp.theta_antiderivative(-2.0 * vals)
    kind = ExteriorPunctured(data.radius)
    c = sp.coeffs(re_boundary.astype(complex))
    mult = sp.conjugation_multiplier(data.m, exterior=True)
    log_coeffs = c + 1j * mult * c
    log_coeffs[0] = 1j * phi
    return LaurentField(kind, log_coeffs, puncture_pole_order=-2 * degree)
