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
from .errors import DomainError
from .harmonic import (BoundaryLoopSamples, ExteriorPunctured,
                       solve_neumann_vanishing, solve_Qtilde)
from .tunneling import ConjugatePair, derived_fields, gap_function

TWO_PI = 2.0 * np.pi
BAND_NOISE_RTOL = 1e-12   # relative size below which a term is round-off
FRAME_DET_FLOOR = 1e-6    # |det| below which a loop is not totally real
TANGENCY_RTOL = 1e-13     # relative e_K part of a section tangent to the fold


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
        # negated tests, so NaN samples fail them too
        if not np.min(self.a_samples) > 0:
            raise DomainError("gap samples must be positive")
        if not np.min(np.abs(self.af_samples)) > 0:
            raise DomainError("A^F frame factors must not vanish")
        if not (np.all(np.isfinite(self.f_chi))
                and np.all(np.isfinite(self.f_jchi))):
            raise DomainError("f samples must be finite")

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

    @classmethod
    def from_directions(cls, dirs: np.ndarray) -> "TotallyRealLoop":
        """Planes spanned by the F-direction `dirs` (M,) and the K axis."""
        frames = np.zeros((len(dirs), 2, 2), dtype=complex)
        frames[:, 0, 0] = dirs          # F-direction coefficient slot
        frames[:, 1, 1] = 1.0           # K slot
        return cls(frames)

    def dets(self) -> np.ndarray:
        return np.linalg.det(self.frames)


@dataclass
class SymbolMatrix:
    """Principal symbol data at one fold sample, per covector sign."""

    b_plus: np.ndarray    # 4x4 complex, covector sign +1
    b_minus: np.ndarray   # 4x4 complex, covector sign -1


# ---------------------------------------------------------------------------
# extraction from a verified bundle


def _fold_frame(pair: ConjugatePair
                ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(chi_+, A^F = chi_- / chi_+) on sigma, or None off the immersed case.

    chi_+- are the F-coefficients of dv_+-(d_theta) on the fold; None when
    |chi_+| falls below the immersion floor somewhere, as it does on the
    rotation-symmetric stratum.
    """
    chi_p = derived_fields(pair.v_plus).chi_sigma
    if np.min(np.abs(chi_p)) < CONFIG.tol.immersion_floor:
        return None
    return chi_p, derived_fields(pair.v_minus).chi_sigma / chi_p


def boperator_data_from_bundle(bundle) -> BOperatorData:
    """Sample (a, A^F, f) along the fold from a verified bundle.

    f composed with the F-derivative of the upper map reproduces the
    rotated sum of the contact pullbacks; inverting on the boundary
    derivative frame chi_+ gives the values of f on the unit contact
    frame.  Where the fold frame degenerates (`_fold_frame` is None), A^F
    is the transition phase and f its vanishing limit.
    """
    pair = bundle.pair
    dp = derived_fields(pair.v_plus)
    dm = derived_fields(pair.v_minus)

    a = gap_function(
        BoundaryLoopSamples(dp.alpha_t[0], pair.v_plus.rho),
        BoundaryLoopSamples(dm.alpha_t[0], pair.v_plus.rho)).values

    frame = _fold_frame(pair)
    if frame is None:
        # g, in [0, 1), is the circle-valued transition function on sigma
        ratio = pair.v_minus.planes[0, 0] / pair.v_plus.planes[0, 0]
        g = (np.angle(ratio) / TWO_PI) % 1.0
        af = np.exp(4j * np.pi * g)
        return BOperatorData(pair.v_plus.rho, a, af, np.zeros(bundle.m_res),
                             np.zeros(bundle.m_res), degenerate_f=True)
    chi_p, af = frame
    lam_t = -(dp.alpha_u[0] + dm.alpha_u[0])      # lambda(d_theta)
    lam_u = dp.alpha_t[0] + dm.alpha_t[0]         # lambda(d_u)
    lam_j = -lam_u                                # lambda(j d_theta)
    rw = np.abs(chi_p)
    cphi = chi_p.real / rw
    sphi = chi_p.imag / rw
    f_a = (cphi * lam_t - sphi * lam_j) / rw
    f_b = (sphi * lam_t + cphi * lam_j) / rw
    return BOperatorData(pair.v_plus.rho, a, af, f_a, f_b)


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
        if np.max(np.abs(ae_k)) < BAND_NOISE_RTOL * max(1.0, xi.max_abs()):
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


def graph_check_dDeltaZ(xi_hat: BoundarySectionEF,
                        data: BOperatorData) -> float:
    """Compare the transmission image with the deformation recipe.

    The recipe determines the lower trace through the Neumann problem for
    the auxiliary harmonic function and the explicit formula for the
    Reeb component; the transmission operator reaches the same trace
    through the Dirichlet-extension trace pair.  Returns the sup distance
    of the two results over the fold.
    """
    if (np.max(np.abs(xi_hat.xi_k))
            > TANGENCY_RTOL * max(1.0, xi_hat.max_abs())):
        raise DomainError("deformation sections must be tangent to the fold")
    handle = BHandle(data)
    via_b = handle.apply(xi_hat)

    # constructive recipe: g from the Neumann problem, then the trace formula
    f_k, f_l = handle._f_complexified(xi_hat.xi_f)
    neumann = sp.band_limit(sp.theta_derivative(f_k))
    if (np.max(np.abs(neumann))
            < BAND_NOISE_RTOL * max(1.0, xi_hat.max_abs())):
        g_trace = np.zeros(xi_hat.m)
    else:
        g_field = solve_neumann_vanishing(
            BoundaryLoopSamples(neumann, data.sigma_radius),
            ExteriorPunctured(data.sigma_radius))
        g_trace = np.real(g_field.trace())
    recipe = BoundarySectionEF(
        data.af_samples * xi_hat.xi_f,
        np.zeros(xi_hat.m),
        f_l - xi_hat.xi_l - g_trace)

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


# sample minima within this relative distance of the smallest one are
# ties: on circle-invariant inputs they differ by round-off only
_ARGMIN_TIE_RTOL = 1e-12


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
    stays above the configured floor.  a and f are real and A^F enters
    through its real and imaginary parts, so the symbol and the range
    basis at nu = -1 are the conjugates of those at nu = +1, and one SVD
    at nu = +1 gives the singular values of both signs.
    """
    neg_b = -_symbol_stack(data.a_samples, data.af_samples, data.f_chi,
                           data.f_jchi, +1)
    upper, lower = _RANGE_P[+1]
    # one matrix-vector product per column rounds like a single -b @ w
    cols = [neg_b @ w for w in upper] \
        + [np.broadcast_to(w, neg_b.shape[:-1]) for w in lower]
    mins = np.linalg.svd(np.stack(cols, axis=-1), compute_uv=False)[:, -1]
    arg = int(np.argmin(mins))
    smin = float(mins[arg])
    # the first sample tied with the minimum (none when it is NaN)
    ties = np.flatnonzero(mins <= smin + _ARGMIN_TIE_RTOL * abs(smin))
    if ties.size:
        arg = int(ties[0])
    return EllipticityReport(smin, smin > CONFIG.tol.ellipticity_floor,
                             arg, mins)


def symbol_homotopy_bt(a_samples: np.ndarray) -> float:
    """Certificate min |1 + a t - t| over the index homotopy rectangle."""
    t_grid = np.linspace(0.0, 1.0, 101)
    a = np.asarray(a_samples, dtype=float)
    vals = np.abs(1.0 + np.outer(a, t_grid) - t_grid[None, :])
    return float(np.min(vals))


# ---------------------------------------------------------------------------
# Maslov and Fredholm indices


def maslov_index(loop: TotallyRealLoop) -> int:
    """Winding number of the squared determinant of the plane frames.

    The squared unit phase of the determinants is wound, not their
    square, which overflows for frames of large but finite entries.  A
    phase with energy in the Nyquist band steps by up to pi between
    samples, so its winding is aliased: that raises ResolutionError.
    """
    dets = loop.dets()
    size = np.abs(dets)
    if np.min(size) < FRAME_DET_FLOOR:
        raise DomainError(
            "loop is not totally real: frame determinant vanishes "
            f"(min {np.min(size):.3e})")
    phase = (dets / size) ** 2
    sp.check_resolution(phase, "Maslov loop phase")
    return sp.phase_winding(phase)


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
    label.  The two loops agree: with A^F = chi_- / chi_+, the lower
    direction conj(A^F / |A^F|) chi_- / |chi_-| is chi_+ / |chi_+|, the
    upper one, up to round-off, and the degenerate branch uses
    e^{i d theta} for both, so maslovMinus = maslovPlus by construction.
    """
    th = sp.angles(bundle.m_res)
    frame = _fold_frame(bundle.pair)
    if frame is None:
        dir_p = dir_m = np.exp(1j * bundle.degree * th)
    else:
        chi_p, af = frame
        chi_m = derived_fields(bundle.pair.v_minus).chi_sigma
        dir_p = chi_p / np.abs(chi_p)
        dir_m = np.conj(af / np.abs(af)) * chi_m / np.abs(chi_m)
    return (TotallyRealLoop.from_directions(dir_p),
            TotallyRealLoop.from_directions(dir_m))


# ---------------------------------------------------------------------------
# certificate


# Euler characteristic of the domain sphere, the chi of both indices
DOMAIN_EULER_CHI = 2


def ellipticity_certificate(data: BOperatorData,
                            loops: tuple[TotallyRealLoop, TotallyRealLoop]
                            ) -> dict:
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
        "index": fredholm_index(mu_p, mu_m, DOMAIN_EULER_CHI),
        "reducedIndex": reduced_index(mu_p, mu_m, DOMAIN_EULER_CHI),
        "pass": bool(rep.passed),
        "argminSample": rep.argmin_sample,
    }


# ---------------------------------------------------------------------------
# report sections


_OPERATOR_KEYS = ("a", "AF_re", "AF_im", "f_chi", "f_jchi")
_LOOP_KEYS = ("plus_re", "plus_im", "minus_re", "minus_im")


def report_sections(data: BOperatorData,
                    loops: tuple[TotallyRealLoop, TotallyRealLoop]
                    ) -> tuple[dict, dict]:
    """The `boundary_operator` and `loops` sections of a bundle report."""
    lp, lm = (loop.frames[:, 0, 0] for loop in loops)
    columns = (data.a_samples, data.af_samples.real, data.af_samples.imag,
               data.f_chi, data.f_jchi)
    operator = {k: c.tolist() for k, c in zip(_OPERATOR_KEYS, columns)}
    operator["sigma_radius"] = float(data.sigma_radius)
    loop_data = {k: c.tolist() for k, c in
                 zip(_LOOP_KEYS, (lp.real, lp.imag, lm.real, lm.imag))}
    return operator, loop_data


def certificate_from_report(report: dict) -> dict:
    """Certificate of the operator data and loops stored in a bundle report.

    The gap samples are floored at 1e-300 to build the operator data, so a
    tampered report with a vanishing or negative gap still gets a
    certificate; `aMin` is the unfloored minimum and `pass` also requires
    it to be positive.  Raises DomainError when a section is missing or
    its arrays are not finite, non-empty and of one length.
    """
    try:
        operator, loop_data = report["boundary_operator"], report["loops"]
        arrays = {k: np.asarray(operator[k], dtype=float)
                  for k in _OPERATOR_KEYS}
        arrays.update({k: np.asarray(loop_data[k], dtype=float)
                       for k in _LOOP_KEYS})
        rho = float(operator["sigma_radius"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(
            f"missing or malformed report section: {exc!r}") from exc
    n = arrays["a"].shape
    for name, arr in arrays.items():
        if arr.ndim != 1 or arr.shape != n or arr.size == 0 \
                or not np.all(np.isfinite(arr)):
            raise DomainError(
                f"report array {name!r} is not a non-empty list of finite "
                f"numbers of the length of 'a'")
    if not np.isfinite(rho):
        raise DomainError("report sigma_radius must be finite")

    a = arrays["a"]
    data = BOperatorData(rho, np.maximum(a, 1e-300),
                         arrays["AF_re"] + 1j * arrays["AF_im"],
                         arrays["f_chi"], arrays["f_jchi"])
    loops = tuple(TotallyRealLoop.from_directions(
        arrays[side + "_re"] + 1j * arrays[side + "_im"])
        for side in ("plus", "minus"))
    cert = ellipticity_certificate(data, loops)
    a_min = float(np.min(a))
    cert["aMin"] = a_min
    cert["pass"] = cert["pass"] and a_min > 0
    return cert
