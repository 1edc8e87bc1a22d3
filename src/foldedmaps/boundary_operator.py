"""The fold transmission operator, its symbol, ellipticity and indices.

Sections along the fold circle are stored in the moving frame of the
verified map: a complex F-coefficient against the unit contact frame and
two real coefficients (zeta^K, zeta^L) against the transverse direction
and the Reeb field.  The transmission operator combines the pointwise
frame isomorphisms with the trace of the harmonic extension operator of
the tunneling domain; its principal symbol and the resulting ellipticity
certificate are evaluated per sample and covector sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _spectral as sp
from .config import CONFIG
from .errors import DomainError, NonImmersedBoundaryError
from .harmonic import (BoundaryLoopSamples, ExteriorPunctured,
                       solve_neumann_vanishing, solve_Qtilde)
from .tunneling import ConjugatePair, derived_fields, gap_function

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# data containers


@dataclass
class BoundarySectionEF:
    """Section of the fold restriction bundle in frame coefficients."""

    xi_f: np.ndarray   # (M,) complex, F-coefficient in the contact frame
    xi_k: np.ndarray   # (M,) real, transverse coefficient
    xi_l: np.ndarray   # (M,) real, Reeb coefficient

    def __post_init__(self):
        self.xi_f = np.asarray(self.xi_f, dtype=complex)
        self.xi_k = np.asarray(self.xi_k, dtype=float)
        self.xi_l = np.asarray(self.xi_l, dtype=float)
        if not (len(self.xi_f) == len(self.xi_k) == len(self.xi_l)):
            raise DomainError("section component lengths disagree")

    @property
    def m(self) -> int:
        return len(self.xi_f)

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.xi_f)), np.max(np.abs(self.xi_k)),
                         np.max(np.abs(self.xi_l))))


@dataclass
class BOperatorData:
    """Frame data of the transmission operator sampled along the fold."""

    sigma_radius: float
    a_samples: np.ndarray      # (M,) positive gap values
    af_samples: np.ndarray     # (M,) complex frame factors of A^F
    f_chi: np.ndarray          # (M,) f on the unit contact frame vector
    f_jchi: np.ndarray         # (M,) f on its rotation
    degenerate_f: bool = False

    def __post_init__(self):
        if np.min(self.a_samples) <= 0:
            raise DomainError("gap samples must be positive")
        if np.min(np.abs(self.af_samples)) == 0:
            raise DomainError("A^F frame factors must not vanish")

    @property
    def m(self) -> int:
        return len(self.a_samples)


def synthetic_boperator_data(m: int, a: float = 1.0, af: complex = 1.0,
                             f_chi: float = 0.0, f_jchi: float = 0.0,
                             rho: float = 1.0) -> BOperatorData:
    """Constant-coefficient data for direct operator tests."""
    return BOperatorData(rho, np.full(m, float(a)),
                         np.full(m, complex(af)), np.full(m, float(f_chi)),
                         np.full(m, float(f_jchi)))


@dataclass
class TotallyRealLoop:
    """Loop of totally real 2-planes of C^2, stored as frame columns."""

    frames: np.ndarray   # (M, 2, 2) complex, frames[k][:, j] = j-th vector

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=complex)
        if self.frames.ndim != 3 or self.frames.shape[1:] != (2, 2):
            raise DomainError("frames must have shape (M, 2, 2)")

    def dets(self) -> np.ndarray:
        return np.linalg.det(self.frames)


@dataclass
class SymbolMatrix:
    """Principal symbol data at one fold sample, per covector sign."""

    b_plus: np.ndarray    # 4x4 complex, covector sign +1
    b_minus: np.ndarray   # 4x4 complex, covector sign -1


# ---------------------------------------------------------------------------
# extraction from a verified bundle


def _f_values_from_pair(pair: ConjugatePair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_chi, f_jchi, w_theta): f on the unit frame, from lambda data.

    f composed with the F-derivative of the upper map reproduces the
    rotated sum of the contact pullbacks; inverting on the boundary
    derivative frame gives the values of f on the unit contact frame.
    """
    dp = derived_fields(pair.v_plus)
    dm = derived_fields(pair.v_minus)
    w_theta = dp.chi_t[0]
    lam_t = -(dp.alpha_u[0] + dm.alpha_u[0])      # lambda(d_theta)
    lam_u = dp.alpha_t[0] + dm.alpha_t[0]         # lambda(d_u)
    lam_j = -lam_u                                # lambda(j d_theta)
    rw = np.abs(w_theta)
    if np.min(rw) < CONFIG.tol.immersion_floor:
        raise NonImmersedBoundaryError(
            f"F-derivative of the boundary falls below the immersion floor "
            f"(min {np.min(rw):.3e})")
    cphi = w_theta.real / rw
    sphi = w_theta.imag / rw
    f_a = (cphi * lam_t - sphi * lam_j) / rw
    f_b = (sphi * lam_t + cphi * lam_j) / rw
    return f_a, f_b, w_theta


def boperator_data_from_bundle(bundle) -> BOperatorData:
    """Sample (a, A^F, f) along the fold from a verified bundle.

    Falls back to the transition-phase representation of A^F (and the
    vanishing limit of f) when the boundary F-derivative degenerates, as
    it does on the rotation-symmetric stratum.
    """
    pair = bundle.pair
    dp = derived_fields(pair.v_plus)
    dm = derived_fields(pair.v_minus)

    a = gap_function(
        BoundaryLoopSamples(dp.alpha_t[0], pair.v_plus.rho),
        BoundaryLoopSamples(dm.alpha_t[0], pair.v_plus.rho)).values

    try:
        f_a, f_b, w_theta = _f_values_from_pair(pair)
        af = dm.chi_t[0] / w_theta
        degenerate = False
    except NonImmersedBoundaryError:
        af = np.exp(4j * np.pi * pair.g_boundary)
        f_a = np.zeros(bundle.m_res)
        f_b = np.zeros(bundle.m_res)
        degenerate = True
    return BOperatorData(pair.v_plus.rho, a, af, f_a, f_b, degenerate)


# ---------------------------------------------------------------------------
# the transmission operator


class BHandle:
    """Applies the transmission operator to boundary sections.

    The composition is literal: the pointwise frame maps, the transverse
    flip, and the correction operator C = -D o Q o A^E with Q the trace of
    the harmonic extension pair on the tunneling domain.
    """

    def __init__(self, data: BOperatorData):
        self.data = data

    def _f_complexified(self, chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f_C(chi) = f(chi) e_K - f(J chi) R in (K, L) coefficients."""
        x, y = chi.real, chi.imag
        f_chi = x * self.data.f_chi + y * self.data.f_jchi
        f_jchi = -y * self.data.f_chi + x * self.data.f_jchi
        return f_chi, -f_jchi

    def apply(self, xi: BoundarySectionEF) -> BoundarySectionEF:
        d = self.data
        if xi.m != d.m:
            raise DomainError("section length does not match operator data")
        fk, fl = self._f_complexified(xi.xi_f)

        out_f = d.af_samples * xi.xi_f

        # A^E (xi^E - f_C(xi^F))
        e1_k = xi.xi_k - fk
        e1_l = -(xi.xi_l - fl)

        # C ((1 - a) xi^E - f_C(xi^F)),  C = -D o Q o A^E
        c_in_k = (1.0 - d.a_samples) * xi.xi_k - fk
        c_in_l = (1.0 - d.a_samples) * xi.xi_l - fl
        ae_k, ae_l = c_in_k, -c_in_l
        ae_k = sp.band_limit(ae_k)               # frame data trusted to M/4
        if np.max(np.abs(ae_k)) < 1e-12 * max(1.0, xi.max_abs()):
            q_k = np.zeros(xi.m)                 # input at noise level
            q_l = np.zeros(xi.m)
        else:
            fq, gq = solve_Qtilde(BoundaryLoopSamples(ae_k, d.sigma_radius))
            q_k, q_l = fq.values, gq.values      # Reeb slot of the input ignored
        c_k, c_l = -q_k, q_l                     # -D applied to (q_k, q_l)

        return BoundarySectionEF(out_f, e1_k + c_k, e1_l + c_l)


def build_B(data: BOperatorData) -> BHandle:
    return BHandle(data)


# ---------------------------------------------------------------------------
# graph consistency of the two constructions


def graph_check_dDeltaZ(pair: ConjugatePair, xi_hat: BoundarySectionEF,
                        data: Optional[BOperatorData] = None) -> float:
    """Compare the transmission image with the deformation recipe.

    The recipe determines the lower trace through the Neumann problem for
    the auxiliary harmonic function and the explicit formula for the
    Reeb component; the transmission operator reaches the same trace
    through the Dirichlet-extension trace pair.  Returns the sup distance
    of the two results over the fold.
    """
    if np.max(np.abs(xi_hat.xi_k)) > 1e-13 * max(1.0, xi_hat.max_abs()):
        raise DomainError("deformation sections must be tangent to the fold")
    if data is None:
        rho = pair.v_plus.rho
        a = gap_function(
            BoundaryLoopSamples(derived_fields(pair.v_plus).alpha_t[0], rho),
            BoundaryLoopSamples(derived_fields(pair.v_minus).alpha_t[0], rho)).values
        f_a, f_b, w_theta = _f_values_from_pair(pair)
        data = BOperatorData(rho, a, derived_fields(pair.v_minus).chi_t[0] / w_theta,
                             f_a, f_b)
    handle = BHandle(data)
    via_b = handle.apply(xi_hat)

    # constructive recipe: g from the Neumann problem, then the trace formula
    x, y = xi_hat.xi_f.real, xi_hat.xi_f.imag
    f_chi = x * data.f_chi + y * data.f_jchi
    f_jchi = -y * data.f_chi + x * data.f_jchi
    neumann = sp.band_limit(sp.theta_derivative(f_chi))
    if np.max(np.abs(neumann)) < 1e-12 * max(1.0, xi_hat.max_abs()):
        g_trace = np.zeros(xi_hat.m)
    else:
        g_field = solve_neumann_vanishing(
            BoundaryLoopSamples(neumann, data.sigma_radius),
            ExteriorPunctured(data.sigma_radius))
        g_trace = np.real(g_field.trace())
    recipe = BoundarySectionEF(
        data.af_samples * xi_hat.xi_f,
        np.zeros(xi_hat.m),
        -(f_jchi + xi_hat.xi_l + g_trace))

    return float(max(np.max(np.abs(via_b.xi_f - recipe.xi_f)),
                     np.max(np.abs(via_b.xi_k - recipe.xi_k)),
                     np.max(np.abs(via_b.xi_l - recipe.xi_l))))


# ---------------------------------------------------------------------------
# principal symbol and ellipticity


_S = 1.0 / np.sqrt(2.0)
# Orthonormal bases of the Calderon range per covector sign nu, as
# (upper-half basis, lower-half basis) of C^4 vectors in the frame
# coordinates (f1, f2, e_K, e_L).
_RANGE_P = {
    +1: ((np.array([1, -1j, 0, 0]) * _S, np.array([0, 0, 1, -1j]) * _S),
         (np.array([1, 1j, 0, 0]) * _S, np.array([0, 0, 1, -1j]) * _S)),
    -1: ((np.array([1, 1j, 0, 0]) * _S, np.array([0, 0, 1, 1j]) * _S),
         (np.array([1, -1j, 0, 0]) * _S, np.array([0, 0, 1, 1j]) * _S)),
}


def _symbol_stack(a, af, f_chi, f_jchi, nu: int) -> np.ndarray:
    """Boundary symbol at covector sign nu for every sample, shape (..., 4, 4).

    b(w) = A^F(w^F) + A^E(w^E - f_C(w^F)) + c((1-a) w^E - f_C(w^F)) in the
    frame (f1, f2, e_K, e_L), with A^E = diag(1, -1) and the correction
    symbol c = -(1 - i nu J) pi_K A^E, J = diag(rot, -rot).  Multiplied out,
    the f-terms cancel in the e_K row and survive only in the e_L row.
    """
    a = np.asarray(a, dtype=float)
    af = np.asarray(af, dtype=complex)
    f_chi = np.asarray(f_chi, dtype=float)
    f_jchi = np.asarray(f_jchi, dtype=float)
    one_minus_a = 1.0 - a
    b = np.zeros(a.shape + (4, 4), dtype=complex)
    b[..., 0, 0] = af.real
    b[..., 0, 1] = -af.imag
    b[..., 1, 0] = af.imag
    b[..., 1, 1] = af.real
    b[..., 2, 2] = 1.0 - one_minus_a
    b[..., 3, 0] = -f_jchi + nu * 1j * f_chi
    b[..., 3, 1] = f_chi + nu * 1j * f_jchi
    b[..., 3, 2] = -nu * 1j * one_minus_a
    b[..., 3, 3] = -1.0
    b += 0.0    # exact zeros as +0, whatever the signs of zero inputs
    return b


def principal_symbol_B(a: float, af: complex, f_chi: float,
                       f_jchi: float) -> SymbolMatrix:
    """The boundary symbol at one sample for both covector signs."""
    return SymbolMatrix(_symbol_stack(a, af, f_chi, f_jchi, +1),
                        _symbol_stack(a, af, f_chi, f_jchi, -1))


@dataclass
class EllipticityReport:
    sigma_min: float
    passed: bool
    argmin_sample: int
    per_sample: np.ndarray


def check_ellipticity(data: BOperatorData) -> EllipticityReport:
    """Minimum singular value of the boundary symbol over the fold.

    The symbol is restricted to the range of the Calderon projector for
    both covector signs; the certificate passes when the global minimum
    stays above the configured floor.
    """
    sv = []
    for nu in (+1, -1):
        neg_b = -_symbol_stack(data.a_samples, data.af_samples, data.f_chi,
                               data.f_jchi, nu)
        upper, lower = _RANGE_P[nu]
        # one matrix-vector product per column rounds like a single -b @ w
        cols = [neg_b @ w for w in upper] \
            + [np.broadcast_to(w, neg_b.shape[:-1]) for w in lower]
        sv.append(np.linalg.svd(np.stack(cols, axis=-1),
                                compute_uv=False)[:, -1])
    mins = np.minimum(sv[0], sv[1])
    arg = int(np.argmin(mins))
    smin = float(mins[arg])
    return EllipticityReport(smin, smin > CONFIG.tol.ellipticity_floor,
                             arg, mins)


def symbol_homotopy_bt(a_samples: np.ndarray,
                       t_grid: Optional[np.ndarray] = None) -> float:
    """Certificate min |1 + a t - t| over the index homotopy rectangle."""
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 101)
    a = np.asarray(a_samples, dtype=float)
    vals = np.abs(1.0 + np.outer(a, t_grid) - t_grid[None, :])
    return float(np.min(vals))


# ---------------------------------------------------------------------------
# Maslov and Fredholm indices


def maslov_index(loop: TotallyRealLoop) -> int:
    """Winding number of the squared determinant of the plane frames."""
    dets = loop.dets()
    if np.min(np.abs(dets)) < 1e-6:
        raise DomainError(
            "loop is not totally real: frame determinant vanishes "
            f"(min {np.min(np.abs(dets)):.3e})")
    return sp.phase_winding(dets ** 2)


def fredholm_index(mu_plus: int, mu_minus: int, chi: int) -> int:
    """Index of the linearized problem at fixed domain structure."""
    return mu_plus + mu_minus + 2 * chi


def reduced_index(mu_plus: int, mu_minus: int, chi: int) -> int:
    """Index after varying the folded domain and the parametrization."""
    return mu_plus + mu_minus + (2 - 3) * chi + 1


def boundary_condition_loops(bundle) -> tuple[TotallyRealLoop, TotallyRealLoop]:
    """Extract the totally real boundary-condition loops of a bundle.

    Planes K + pi_F du(T sigma) are expressed in the moving unitary frame
    of each side, the lower side twisted by the transition factor of the
    pair, which is the trivialization in which the index homotopy of the
    transmission operator identifies the two conditions.  On the
    rotation-symmetric stratum the F-direction is taken from the degree
    label.
    """
    pair = bundle.pair
    m_res = bundle.m_res
    th = sp.angles(m_res)
    dp = derived_fields(pair.v_plus)
    dm = derived_fields(pair.v_minus)

    chi_p = dp.chi_t[0]
    if np.min(np.abs(chi_p)) < CONFIG.tol.immersion_floor:
        dir_p = np.exp(1j * bundle.degree * th)
        dir_m = np.exp(1j * bundle.degree * th)
    else:
        dir_p = chi_p / np.abs(chi_p)
        af_phase = dm.chi_t[0] / chi_p
        af_phase = af_phase / np.abs(af_phase)
        dir_m = np.conj(af_phase) * dm.chi_t[0] / np.abs(dm.chi_t[0])

    def loop_from(dirs):
        frames = np.zeros((m_res, 2, 2), dtype=complex)
        frames[:, 0, 0] = dirs          # F-direction coefficient slot
        frames[:, 1, 1] = 1.0           # K slot
        return TotallyRealLoop(frames)

    return loop_from(dir_p), loop_from(dir_m)


# ---------------------------------------------------------------------------
# certificate


def ellipticity_certificate(data: BOperatorData,
                            loops: tuple[TotallyRealLoop, TotallyRealLoop],
                            chi: int = 2) -> dict:
    """Full certificate: symbol minimum, homotopy bound, indices."""
    rep = check_ellipticity(data)
    mu_p = maslov_index(loops[0])
    mu_m = maslov_index(loops[1])
    return {
        "sigmaMin": rep.sigma_min,
        "aMin": float(np.min(data.a_samples)),
        "homotopyMin": symbol_homotopy_bt(data.a_samples),
        "maslovPlus": mu_p,
        "maslovMinus": mu_m,
        "index": fredholm_index(mu_p, mu_m, chi),
        "reducedIndex": reduced_index(mu_p, mu_m, chi),
        "pass": bool(rep.passed),
        "argminSample": rep.argmin_sample,
    }
