"""Compatible triples near the fold by polarizing a skew endomorphism.

Matrix conventions: a 2-form is stored as the matrix Om with
omega(u, v) = v^T Om u, so the standard plane form has Om = [[0,-1],[1,0]]
and the skew endomorphism defined by omega(u, v) = g(A u, v) is
A = g^{-1} Om.  The polarized complex structure is the unitary factor of A,
the unique g-compatible structure with positive omega-pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateSplittingError, DomainError
from .sphere import FoldPoint, Point4Sphere, contact_direction, omega_s4

SQRT_CONDITION_MAX = 1e12  # largest condition number square-rooted
EIGEN_GAP_FLOOR = 1e-12    # least eigenvalue gap that splits the planes


@dataclass
class FoldedTripleEval:
    """Pointwise evaluation (omega, g, J) of a compatible triple."""

    omega: np.ndarray   # 4x4, omega(u, v) = v^T omega u
    g: np.ndarray       # 4x4 symmetric positive definite
    J: np.ndarray       # 4x4, J^2 = -I
    detOmega: float

    def residuals(self) -> dict[str, float]:
        """Compatibility residuals: J^2 = -I, g symmetric, g = omega(., J.)."""
        r1 = float(np.max(np.abs(self.J @ self.J + np.eye(4))))
        r2 = float(np.max(np.abs(self.g - self.g.T)))
        r3 = float(np.max(np.abs(self.g - self.J.T @ self.omega)))
        return {"J_squared": r1, "g_symmetric": r2, "compatibility": r3}


@dataclass
class SkewDecomposition:
    """g-skew endomorphism with its splitting into eigen 2-planes."""

    A: np.ndarray
    eigen_pairs: list[tuple[float, np.ndarray]]  # (|lambda|, 4x2 basis)
    Eplane: np.ndarray  # 4x2, smallest-|lambda| plane
    Fplane: np.ndarray  # 4x2
    g: np.ndarray


def _g_sqrt(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(g)
    if np.min(vals) <= 0:
        raise DomainError("metric matrix is not positive definite")
    if np.max(vals) / np.min(vals) > SQRT_CONDITION_MAX:
        raise DomainError("metric matrix condition number exceeds guard")
    return (vecs * np.sqrt(vals)) @ vecs.T, (vecs / np.sqrt(vals)) @ vecs.T


def skew_endomorphism(g_mat: np.ndarray, omega_mat: np.ndarray,
                      require_gap: bool = True) -> SkewDecomposition:
    """A = g^{-1} omega with its real-Schur eigen-plane splitting.

    Planes are sorted by ascending eigenvalue magnitude; a gap below the
    configured floor between the two pairs raises DegenerateSplittingError
    unless require_gap is False (equal eigenvalues make the E/F labeling
    arbitrary, which is fine when only the polarized structure is wanted).
    """
    g_mat = np.asarray(g_mat, dtype=float)
    omega_mat = np.asarray(omega_mat, dtype=float)
    if np.max(np.abs(omega_mat + omega_mat.T)) > 1e-12 * max(
            1.0, np.max(np.abs(omega_mat))):
        raise DomainError("omega matrix is not antisymmetric")
    gh, gih = _g_sqrt(g_mat)
    b = gh @ (np.linalg.solve(g_mat, omega_mat)) @ gih
    b = 0.5 * (b - b.T)  # exact skew-symmetrization in the orthonormal frame
    t, zm = scipy.linalg.schur(b, output="real")

    pairs: list[tuple[float, np.ndarray]] = []
    singles: list[np.ndarray] = []
    i = 0
    n = b.shape[0]
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-14:
            lam = abs(t[i + 1, i])
            basis = gih @ zm[:, i:i + 2]
            pairs.append((float(lam), basis))
            i += 2
        else:
            singles.append(gih @ zm[:, i:i + 1])
            i += 1
    # group residual null directions into planes
    while len(singles) >= 2:
        pairs.append((0.0, np.hstack([singles.pop(), singles.pop()])))
    pairs.sort(key=lambda p: p[0])

    if require_gap and len(pairs) >= 2 and \
            abs(pairs[0][0] - pairs[1][0]) < EIGEN_GAP_FLOOR:
        raise DegenerateSplittingError(
            f"eigenvalue gap {abs(pairs[0][0] - pairs[1][0]):.3e} below floor")

    a = np.linalg.solve(g_mat, omega_mat)
    return SkewDecomposition(A=a, eigen_pairs=pairs, Eplane=pairs[0][1],
                             Fplane=pairs[1][1], g=g_mat)


def polarize(dec: SkewDecomposition) -> FoldedTripleEval:
    """Unitary factor of the skew endomorphism as a compatible triple.

    J = A (A^T_g A)^{-1/2}; on an eigen-plane where omega carries a factor
    r this reproduces sign(r) times the unit-scale structure.
    """
    g_mat = dec.g
    gh, gih = _g_sqrt(g_mat)
    b = gh @ dec.A @ gih
    b = 0.5 * (b - b.T)
    s = np.linalg.svd(b, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > SQRT_CONDITION_MAX:
        raise DomainError("skew endomorphism is singular on a block")
    u, _ = scipy.linalg.polar(b)
    j = gih @ u @ gh
    omega = g_mat @ dec.A
    om_eval = omega.T  # om_eval[i, j] = omega(b_i, b_j)
    pf = (om_eval[0, 1] * om_eval[2, 3] - om_eval[0, 2] * om_eval[1, 3]
          + om_eval[0, 3] * om_eval[1, 2])
    return FoldedTripleEval(omega=omega, g=j.T @ omega, J=j, detOmega=2.0 * pf)


# ---------------------------------------------------------------------------
# one-sided limits along a meridian


def _meridian_frame(p: FoldPoint, x0: float) -> tuple[Point4Sphere, list[np.ndarray]]:
    """Orthonormal frame (meridian, Reeb-dir, f1, f2) at (x0, sqrt(1-x0^2) p)."""
    pc = p.as_c2()
    r = np.sqrt(1.0 - x0 ** 2)
    q = Point4Sphere(np.array([x0, (r * pc[0]).real, (r * pc[0]).imag,
                               (r * pc[1]).real, (r * pc[1]).imag]))

    def five(c2, first=0.0):
        return np.array([first, c2[0].real, c2[0].imag, c2[1].real, c2[1].imag])

    b_k = five(-x0 * pc, first=r)           # unit meridian tangent (increasing x0)
    b_l = five(1j * pc)
    f = contact_direction(p)
    return q, [b_k, b_l, five(f), five(1j * f)]


# background metric off the fold: I + _PERT_SCALE * x0 * _PERT
_PERT_SCALE = 0.3
_PERT = np.array([
    [0.21, -0.11, 0.05, 0.08],
    [-0.11, -0.17, 0.13, -0.02],
    [0.05, 0.13, 0.07, 0.19],
    [0.08, -0.02, 0.19, -0.23]])


def _triple_at(p: FoldPoint, x0: float) -> FoldedTripleEval:
    q, basis = _meridian_frame(p, x0)
    m = np.zeros((4, 4))
    for i in range(4):
        for j in range(i + 1, 4):
            m[i, j] = omega_s4(q, basis[i], basis[j])
            m[j, i] = -m[i, j]
    om = m.T
    g = np.eye(4) + _PERT_SCALE * x0 * _PERT
    dec = skew_endomorphism(g, om)
    return polarize(dec)


@dataclass
class FoldLimitReport:
    j_plus: np.ndarray
    j_minus: np.ndarray
    f_block_mismatch: float
    e_block_sum: float
    rate_fit_plus: float
    rate_fit_minus: float

    @property
    def ok(self) -> bool:
        return (self.f_block_mismatch < 1e-6 and self.e_block_sum < 1e-6
                and self.rate_fit_plus >= 0.9 and self.rate_fit_minus >= 0.9)


def fold_limit_check(p: FoldPoint) -> FoldLimitReport:
    """One-sided limits of the polarized triple along the meridian through p.

    Uses the exact folded form in a transported frame and a background
    metric that is adapted on the fold but generic away from it, so the
    polarized structure approaches its one-sided limits at rate O(x0),
    fitted over the distances 1e-7 * 4^k, k = 0..7.
    """
    distances = 1e-7 * 4.0 ** np.arange(8)
    j_plus = _triple_at(p, distances[0]).J
    j_minus = _triple_at(p, -distances[0]).J

    def rate(sign: float, j_lim: np.ndarray) -> float:
        errs = []
        for d in distances[1:]:
            jj = _triple_at(p, sign * d).J
            errs.append(np.max(np.abs(jj - j_lim)))
        errs = np.asarray(errs)
        good = errs > 1e-13
        if np.count_nonzero(good) < 2:
            return 1.0  # converged to machine precision instantly
        slope, _ = np.polyfit(np.log(distances[1:][good]), np.log(errs[good]), 1)
        return float(slope)

    f_mismatch = float(np.max(np.abs(j_plus[2:, 2:] - j_minus[2:, 2:])))
    e_sum = float(np.max(np.abs(j_plus[:2, :2] + j_minus[:2, :2])))
    return FoldLimitReport(
        j_plus=j_plus, j_minus=j_minus,
        f_block_mismatch=f_mismatch, e_block_sum=e_sum,
        rate_fit_plus=rate(+1.0, j_plus), rate_fit_minus=rate(-1.0, j_minus))
