"""Generalized singular value decomposition of a matrix pair (A, L).

For A (m x n), L (p x n) with m >= n >= p, rank(L) = p and
N(A) ∩ N(L) = {0}, the pair factors as::

    A = U * blockdiag(Sigma, I_{n-p}) * X^{-1}
    L = V * [M  0] * X^{-1}

with U (m x n) and V (p x p) having orthonormal columns, X (n x n)
nonsingular, and diagonals sigma (nondecreasing, in [0, 1]) and mu
(nonincreasing, in (0, 1]) normalized by sigma_i^2 + mu_i^2 = 1.  The ratios
zeta_i = sigma_i / mu_i are the generalized singular values.

The factorization is computed from a QR of the stacked matrix [A; L]
followed by a cosine-sine split of the orthonormal factor (SVD of the lower
block, then a thin QR to orthonormalize the upper block).  Completeness is
decided by ``scaling.completeness_holds`` from bounds on the singular values
of the triangular factor R taken from R itself and from X = R^{-1} W; the
exact singular values of R are computed only when the bounds cannot decide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CompletenessViolated, DimensionMismatch
from .scaling import ScalingOperator, completeness_holds

#: Relative threshold when locating the first "nonzero" entry of a column.
_SIGN_RTOL = 1e-12

#: The bounds accept a pair only if it passes the rule with s_min^2 divided by
#: this factor, so rounding in X and R cannot accept a pair the exact singular
#: values reject.
_BOUND_MARGIN = 2.0


@dataclass(frozen=True)
class GsvdFactors:
    """Factors of a pair (A, L); see the module docstring for the layout."""

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


def gsvd(A, L) -> GsvdFactors:
    """Factor the pair (A, L).

    One QR of [A; L] gives the factors.  Completeness is decided by
    ``scaling.completeness_holds`` on the singular values of the R factor:
    first on the bounds of ``_bounds_complete``, and on the exact singular
    values only when those bounds cannot prove the rule.  A raw L array is
    wrapped in a ScalingOperator, which checks its shape and rank.

    Parameters
    ----------
    A : (m, n) array
    L : (p, n) array or ScalingOperator

    Raises
    ------
    DimensionMismatch
        If m < n, p > n, p < 1 or the column counts differ.
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
    if not isinstance(L, ScalingOperator):
        L = ScalingOperator(Lmat)
    p = L.p

    Q, R = np.linalg.qr(np.vstack([A, Lmat]))
    # Cosine-sine split of Q = [Q1; Q2]: the SVD of the lower block fixes the
    # sines mu and the right factor W; the upper block times W then has
    # orthogonal columns whose norms are the cosines.  X = R^{-1} W comes
    # before the completeness decision because its norm bounds s_min(R).
    V, mu, Wt = np.linalg.svd(Q[m:], full_matrices=True)
    W = Wt.T
    try:
        X = scipy.linalg.solve_triangular(R, W)
    except np.linalg.LinAlgError:  # a zero on R's diagonal; the exact rule rejects R
        X = None
    if not _bounds_complete(R, X):
        s = np.linalg.svd(R, compute_uv=False)
        if not completeness_holds(s):
            raise CompletenessViolated(f"N(A) and N(L) intersect: s_min^2 = {s[-1] ** 2:.3e}")

    U, Ru = np.linalg.qr(Q[:m] @ W)
    diag = np.diag(Ru).copy()
    U = U * np.where(diag < 0.0, -1.0, 1.0)
    sigma = np.clip(np.abs(diag)[:p], 0.0, 1.0)
    mu = np.clip(mu, 0.0, 1.0)

    # Reproducible signs: make the first nonzero entry of each X column
    # positive, compensating in U (and V for the leading p columns).
    absX = np.abs(X)
    lead = np.argmax(absX > _SIGN_RTOL * absX.max(axis=0), axis=0)
    sign = np.where(X[lead, np.arange(n)] < 0.0, -1.0, 1.0)
    X *= sign
    U *= sign
    V *= sign[:p]

    return GsvdFactors(U=U, V=V, X=X, sigma=sigma, mu=mu)


def _bounds_complete(R, X) -> bool:
    """Whether bounds on the singular values of R prove the completeness rule.

    With X = R^{-1} W and W orthogonal, s_min(R) >= 1 / ||X||_F and
    s_max(R) <= ||R||_F.  The bounds go through ``completeness_holds`` with
    s_min^2 divided by ``_BOUND_MARGIN``.  False means undecided, as when X
    is missing or not finite.
    """
    if X is None or not np.isfinite(X).all():
        return False
    s_min_low = 1.0 / (np.sqrt(_BOUND_MARGIN) * np.linalg.norm(X))
    return completeness_holds((np.linalg.norm(R), s_min_low))


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
    against ``tol``.
    """
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
    recon_a = np.linalg.norm(A - f.U @ D @ Xinv) / max(np.linalg.norm(A), 1e-300)
    recon_l = np.linalg.norm(Lmat - f.V @ ML @ Xinv) / max(np.linalg.norm(Lmat), 1e-300)
    orth_u = np.linalg.norm(f.U.T @ f.U - np.eye(f.n))
    orth_v = np.linalg.norm(f.V.T @ f.V - np.eye(f.p))
    normalization = float(np.abs(f.sigma**2 + f.mu**2 - 1.0).max()) if f.p else 0.0
    return GsvdValidation(
        recon_a=float(recon_a),
        recon_l=float(recon_l),
        orth_u=float(orth_u),
        orth_v=float(orth_v),
        normalization=normalization,
        tol=float(tol),
    )
