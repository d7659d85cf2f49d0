"""Shared oracles and generators for the test suite.

The oracles here are intentionally independent of the library internals:
the generalized singular values come from a symmetric-definite eigenvalue
problem, Jacobian checks from central differences.  ``gsvd_reference`` is
the exception: the earlier stacked-QR form of ``lmmss.gsvd``, kept to check
that the library still makes the same completeness decisions and computes
the same sigma and mu.
"""

import numpy as np
import scipy.linalg

from lmmss import CompletenessViolated, GsvdFactors, ScalingOperator
from lmmss.scaling import completeness_holds


def pencil_gsv_squared(A, L):
    """Finite spectrum of the pencil A^T A x = lam L^T L x, ascending.

    Computed through the equivalent symmetric-definite problem
    ``A^T A v = nu (A^T A + L^T L) v`` (well posed whenever the null spaces
    of A and L only share the origin) and the bijection lam = nu / (1 - nu);
    the p smallest eigenvalues are the finite ones.
    """
    A = np.asarray(A, dtype=float)
    L = np.asarray(L, dtype=float)
    p = L.shape[0]
    G = A.T @ A
    nu = scipy.linalg.eigh(G, G + L.T @ L, eigvals_only=True)
    nu = np.clip(nu, 0.0, 1.0 - 1e-15)
    return np.sort(nu / (1.0 - nu))[:p]


def gsvd_reference(A, L):
    """``lmmss.gsvd`` by a QR of [A; L] and a cosine-sine split of Q.

    It decides completeness from the exact singular values of the stacked R
    factor before anything else and fixes signs one column at a time.  The
    library must reach the same decision with the same error message, and
    the same sigma and mu up to rounding.
    """
    A = np.asarray(A, dtype=float)
    Lmat = np.asarray(L, dtype=float)
    m, n = A.shape
    p = ScalingOperator(Lmat).p
    Q, R = np.linalg.qr(np.vstack([A, Lmat]))
    s = np.linalg.svd(R, compute_uv=False)
    if not completeness_holds(s):
        raise CompletenessViolated(f"N(A) and N(L) intersect: s_min^2 = {s[-1] ** 2:.3e}")
    V, mu, Wt = np.linalg.svd(Q[m:], full_matrices=True)
    W = Wt.T
    U, Ru = np.linalg.qr(Q[:m] @ W)
    diag = np.diag(Ru).copy()
    U = U * np.where(diag < 0.0, -1.0, 1.0)
    sigma = np.clip(np.abs(diag)[:p], 0.0, 1.0)
    mu = np.clip(mu, 0.0, 1.0)
    X = scipy.linalg.solve_triangular(R, W)
    for j in range(n):
        col = X[:, j]
        big = np.abs(col).max()
        nz = np.nonzero(np.abs(col) > 1e-12 * big)[0]
        lead = nz[0] if nz.size else 0
        if col[lead] < 0.0:
            X[:, j] = -col
            U[:, j] = -U[:, j]
            if j < p:
                V[:, j] = -V[:, j]
    return GsvdFactors(U=U, V=V, X=X, sigma=sigma, mu=mu)


def random_pair(rng, m_max=50, n_max=40):
    """A well-conditioned random (A, L) pair with m >= n >= p >= 1."""
    m = int(rng.integers(2, m_max + 1))
    n = int(rng.integers(1, min(m, n_max) + 1))
    p = int(rng.integers(1, n + 1))
    return rng.standard_normal((m, n)), rng.standard_normal((p, n))


def central_diff_jacobian(F, x, step=None):
    """Independent central-difference Jacobian oracle."""
    x = np.asarray(x, dtype=float)
    h = step if step is not None else 1e-6 * (1.0 + np.linalg.norm(x))
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(F(x + e), float) - np.asarray(F(x - e), float)) / (2 * h))
    return np.column_stack(cols)


def in_range_residual(rng, J, noise=0.05):
    """Residual mostly inside range(J), so the q-condition is solvable."""
    m, n = J.shape
    r = J @ rng.standard_normal(n)
    r = r / np.linalg.norm(r) + noise * rng.standard_normal(m)
    return r


def unit_residual_start(problem, y_target, direction):
    """Initial guess x0 = x_dagger + t * direction with ||F(x0) - y_target|| = 1.

    Only valid for linear forward maps; solves the quadratic in t exactly.
    """
    A = problem.evaluate_J(problem.x_dagger)
    av = A @ direction
    e = problem.y_exact - y_target
    a = float(av @ av)
    b = 2.0 * float(av @ e)
    c = float(e @ e) - 1.0
    t = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return problem.x_dagger + t * direction
