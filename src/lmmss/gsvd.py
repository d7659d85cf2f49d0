"""Generalized singular value decomposition of a matrix pair (A, L).

For A (m x n), L (p x n) with m >= n >= p, rank(L) = p and
N(A) ∩ N(L) = {0}, the pair factors as::

    A = U * blockdiag(Sigma, I_{n-p}) * X^{-1}
    L = V * [M  0] * X^{-1}

with U (m x n) and V (p x p) having orthonormal columns, X (n x n)
nonsingular, and diagonals sigma (nondecreasing, in [0, 1]) and mu
(nonincreasing, in (0, 1]) normalized by sigma_i^2 + mu_i^2 = 1.  The ratios
zeta_i = sigma_i / mu_i are the generalized singular values.

Eldén's standard form x = L^+ y + W_0 z uses L^+ and an orthonormal basis
W_0 of N(L), both kept by ``ScalingOperator``.  A complete QR
``A W_0 = [Q_0 Q_perp] [R_0; 0]`` splits off the part of A that L does not
see, and one thin SVD of ``Q_perp^T A L^+`` gives the zeta_i, U's leading
block and, since L L^+ = I_p, V itself.  When L^+ is exactly I_n
(``ScalingOperator.inverse_is_identity``) the products with it are skipped.
Completeness is decided by ``scaling.completeness_holds`` from bounds on the
singular values of [A; L] taken from X and the norms of A and L; the exact
singular values of [A; L] are computed only when the bounds cannot decide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CompletenessViolated, DimensionMismatch, NonFiniteInput
from .scaling import ScalingOperator, completeness_holds

#: The bounds accept a pair only if it passes the rule with s_min^2 divided by
#: this factor, so rounding in X cannot accept a pair the exact singular
#: values reject.
_BOUND_MARGIN = 2.0


@dataclass(frozen=True, eq=False)
class GsvdFactors:
    """Factors of a pair (A, L); see the module docstring for the layout.

    Instances compare and hash by identity.
    """

    U: np.ndarray
    V: np.ndarray
    X: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.V.shape[0]


def _as_matrix(L) -> np.ndarray:
    return np.asarray(getattr(L, "matrix", L), dtype=float)


def _frobenius(M: np.ndarray) -> float:
    # BLAS nrm2 scales as it sums, so entries near 1e200 or 1e-200 neither
    # overflow nor underflow, as squaring them in np.linalg.norm would.
    return scipy.linalg.blas.dnrm2(np.ravel(M))


def gsvd(A, L) -> GsvdFactors:
    """Factor the pair (A, L).

    Per call: a complete QR of A W_0 (skipped when p = n) and one thin SVD
    of the projected ``Q_perp^T A L^+``, whose right factor is V; L^+ and
    W_0 are the ScalingOperator's ``right_inverse`` and ``null_basis``.
    Completeness is decided by ``scaling.completeness_holds``: first on the
    bounds of ``_bounds_complete``, and on the exact singular values of
    [A; L] only when those bounds cannot prove the rule.  A raw L array is
    wrapped in a ScalingOperator, which checks its shape, entries and rank.

    Parameters
    ----------
    A : (m, n) array
    L : (p, n) array or ScalingOperator

    Raises
    ------
    DimensionMismatch
        If m < n, p > n, p < 1 or the column counts differ.
    NonFiniteInput
        If A or L has a NaN or infinite entry.
    RankDeficientL
        If L does not have full row rank.
    CompletenessViolated
        If the stacked pair [A; L] fails the completeness rule, i.e. the
        null spaces of A and L intersect numerically.
    """
    A = np.asarray(A, dtype=float)
    Lmat = _as_matrix(L)
    if A.ndim != 2 or Lmat.ndim != 2:
        raise DimensionMismatch("A and L must be two-dimensional arrays")
    m, n = A.shape
    if Lmat.shape[1] != n:
        raise DimensionMismatch(f"column counts differ: A has {n}, L has {Lmat.shape[1]}")
    if m < n:
        raise DimensionMismatch(f"need m >= n, got m={m}, n={n}")
    if not np.isfinite(A).all():
        raise NonFiniteInput("A has a NaN or infinite entry")
    if not isinstance(L, ScalingOperator):
        L = ScalingOperator(Lmat)
    p = L.p

    # Standard form: x = L^+ y + W_0 z.  The complete QR of A W_0 gives Q_0
    # (range of A on N(L)) and its exact orthogonal complement Q_perp; the
    # SVD of A L^+ projected onto Q_perp gives zeta = sigma / mu and V.
    AL = A if L.inverse_is_identity else A @ L.right_inverse
    if p < n:
        Q, R0 = np.linalg.qr(A @ L.null_basis, mode="complete")
        Q0, Qperp, R0 = Q[:, : n - p], Q[:, n - p :], R0[: n - p]
        Ub, zeta, Vt = np.linalg.svd(Qperp.T @ AL, full_matrices=False)
    else:
        Ub, zeta, Vt = np.linalg.svd(AL, full_matrices=False)
    Ub, zeta, V = Ub[:, ::-1], zeta[::-1], Vt[::-1].T
    mu = 1.0 / np.hypot(1.0, zeta)
    sigma = zeta * mu
    Vmu = V * mu

    # X = [T - W_0 R_0^-1 Q_0^T A T,  W_0 R_0^-1] with T = L^+ V diag(mu).
    # It comes before the completeness decision because its norm bounds s_min.
    # T is C-contiguous on both paths: the layout of X sets the rounding of
    # every later X @ v, and Vmu itself is strided like V.
    T = np.ascontiguousarray(Vmu) if L.inverse_is_identity else L.right_inverse @ Vmu
    if p == n:
        U, X = Ub, T
    else:
        U = np.hstack([Qperp @ Ub, Q0])
        try:
            W0_R0inv = scipy.linalg.solve_triangular(R0, L.null_basis.T, trans="T").T
        except np.linalg.LinAlgError:  # a zero on R_0's diagonal: A W_0 is singular
            X = None
        else:
            X = np.hstack([T - W0_R0inv @ ((Q0.T @ AL) @ Vmu), W0_R0inv])
    if not _bounds_complete(np.hypot(_frobenius(A), _frobenius(Lmat)), X):
        s = np.linalg.svd(np.vstack([A, Lmat]), compute_uv=False)
        # A pair that passes the rule has a finite X in exact arithmetic; one
        # whose X is unusable anyway is refused rather than returned.
        if not completeness_holds(s) or X is None or not np.isfinite(X).all():
            with np.errstate(over="ignore"):  # a refused pair can have s_min above 1e154
                s_min_sq = s[-1] ** 2
            raise CompletenessViolated(f"N(A) and N(L) intersect: s_min^2 = {s_min_sq:.3e}")

    return GsvdFactors(U=U, V=V, X=X, sigma=sigma, mu=mu)


def _bounds_complete(s_max_up, X) -> bool:
    """Whether bounds on the singular values of [A; L] prove the completeness rule.

    The columns of [A; L] X are orthonormal, so s_min >= 1 / ||X||_F; the
    caller passes ``s_max_up = hypot(||A||_F, ||L||_F) >= s_max``.  The bounds
    go through ``completeness_holds`` with s_min^2 divided by
    ``_BOUND_MARGIN``.  False means undecided, as when X is missing or not
    finite.
    """
    if X is None or not np.isfinite(X).all():
        return False
    s_min_low = 1.0 / (np.sqrt(_BOUND_MARGIN) * _frobenius(X))
    return completeness_holds((s_max_up, s_min_low))


def generalized_singular_values(f: GsvdFactors) -> np.ndarray:
    """Return zeta_i = sigma_i / mu_i, nondecreasing and finite since mu_i > 0."""
    return f.sigma / f.mu


def _middle_factors(f: GsvdFactors):
    n, p = f.n, f.p
    D = np.zeros((n, n))
    D[:p, :p] = np.diag(f.sigma)
    D[p:, p:] = np.eye(n - p)
    ML = np.zeros((p, n))
    ML[:, :p] = np.diag(f.mu)
    return D, ML


@dataclass(frozen=True)
class GsvdValidation:
    """Relative reconstruction and orthonormality residuals of a factorization."""

    recon_a: float
    recon_l: float
    orth_u: float
    orth_v: float
    normalization: float
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.recon_a, self.recon_l, self.orth_u, self.orth_v)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def validate(f: GsvdFactors, A, L, tol: float = 1e-10) -> GsvdValidation:
    """Measure how well the factors reproduce (A, L).

    Returns the Frobenius-relative reconstruction residuals of A and L, the
    orthonormality defects of U and V, and the worst normalization defect
    max_i |sigma_i^2 + mu_i^2 - 1|; ``passed`` compares the residual maximum
    against ``tol``, which must be finite and positive (ValueError).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    A = np.asarray(A, dtype=float)
    Lmat = _as_matrix(L)
    if A.shape != (f.m, f.n):
        raise DimensionMismatch(f"A has shape {A.shape}, factors expect {(f.m, f.n)}")
    if Lmat.shape != (f.p, f.n):
        raise DimensionMismatch(
            f"L has shape {Lmat.shape}, factors expect {(f.p, f.n)}"
        )
    Xinv = np.linalg.inv(f.X)
    D, ML = _middle_factors(f)
    recon_a = _frobenius(A - f.U @ D @ Xinv) / max(_frobenius(A), 1e-300)
    recon_l = _frobenius(Lmat - f.V @ ML @ Xinv) / max(_frobenius(Lmat), 1e-300)
    orth_u = _frobenius(f.U.T @ f.U - np.eye(f.n))
    orth_v = _frobenius(f.V.T @ f.V - np.eye(f.p))
    normalization = float(np.abs(f.sigma**2 + f.mu**2 - 1.0).max()) if f.p else 0.0
    return GsvdValidation(
        recon_a=float(recon_a),
        recon_l=float(recon_l),
        orth_u=float(orth_u),
        orth_v=float(orth_v),
        normalization=normalization,
        tol=float(tol),
    )
