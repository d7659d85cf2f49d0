"""Shared oracles and generators for the test suite.

The oracles here are intentionally independent of the library internals:
the generalized singular values come from a symmetric-definite eigenvalue
problem, Jacobian checks from central differences, the LM step and the
q-condition residual from a stacked least-squares solve.  ``gsvd_reference``
is the exception: the earlier stacked-QR form of ``lmmss.gsvd``, kept to
check that the library still computes the same sigma and mu, with a
completeness decision of its own against the library's ``NULL_SPACE_RTOL``.
``SpectralOracle`` reads only ``gsvd``'s public factors, to check the
bidiagonal route's damping search and step against the spectral sums of the
GSVD.
"""

from dataclasses import fields

import numpy as np
import scipy.linalg

from lmmss import (
    CompletenessViolated,
    DimensionMismatch,
    GsvdFactors,
    IterateRecord,
    NonpositiveLambda,
    RunRecord,
    ScalingOperator,
)
from lmmss.gsvd import NULL_SPACE_RTOL, gsvd


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

    It decides completeness before anything else, on its own basis of N(L)
    (``scipy.linalg.null_space``): for p < n the pair is refused unless
    sigma_min(A N) > ``NULL_SPACE_RTOL`` ||A||_F, and for p = n it is
    accepted.  Signs are fixed one column at a time.  The library must reach
    the same decision, and the same sigma and mu up to rounding.
    """
    A = np.asarray(A, dtype=float)
    Lmat = np.asarray(L, dtype=float)
    m, n = A.shape
    p = ScalingOperator(Lmat).p
    if p < n:
        s_min = np.linalg.svd(A @ scipy.linalg.null_space(Lmat), compute_uv=False)[-1]
        a_norm = np.linalg.norm(A)
        if not s_min > NULL_SPACE_RTOL * a_norm:
            ratio = s_min / a_norm if a_norm else 0.0
            raise CompletenessViolated(
                f"N(A) and N(L) intersect: sigma_min(A W_0) / ||A||_F = {ratio:.3e}"
            )
    Q, R = np.linalg.qr(np.vstack([A, Lmat]))
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


class SpectralOracle:
    """zeta_p, the linearized residual and the step of (J, L) at r, by the GSVD's spectral sums.

    Built from the public U, X, sigma and mu of ``gsvd(J, L)``: w = U^T r,
    rho_perp = ||r - U w|| (not sqrt(||r||^2 - ||w||^2), which cancels when
    U is square), the filter-factor step and the secular sum with its slope.
    """

    def __init__(self, J, L, r):
        self.f = f = gsvd(J, L)
        self.zeta_p = float(f.sigma[-1] / f.mu[-1])
        self.w = f.U.T @ r
        self.rho_perp = float(np.linalg.norm(r - f.U @ self.w))

    def step(self, lam):
        """``-X diag(g) w``, g_i = sigma_i / (sigma_i^2 + lam mu_i^2) for i <= p and 1 after."""
        f = self.f
        g = np.ones(f.n)
        g[: f.p] = f.sigma / (f.sigma**2 + lam * f.mu**2)
        return -(f.X @ (g * self.w))

    def omega(self, lam, target=None):
        """``||r + J d(lam)||``; with ``target`` also the Newton iterate toward omega = target.

        The residual is hypot(rho_perp, ||e||) with e_i = lam mu_i^2 w_i /
        (sigma_i^2 + lam mu_i^2), and slope = sum (e_i / ||e||)^2 sigma_i^2 /
        (sigma_i^2 + lam mu_i^2).  The Newton iterate on the secular equation
        in Moré–Sorensen's reciprocal form is lam / (1 + (ratio - 1) / slope)
        with ratio = ||e|| / sqrt(target^2 - rho_perp^2), and NaN where the
        slope vanishes.
        """
        f = self.f
        s2, m2 = f.sigma**2, f.mu**2
        den = s2 + lam * m2
        e = lam * m2 * self.w[: f.p] / den
        gamma = np.linalg.norm(e)
        val = float(np.hypot(self.rho_perp, gamma))
        if target is None:
            return val
        slope = float(((e / gamma) ** 2) @ (s2 / den)) if gamma else 0.0
        if slope == 0.0:
            return val, np.nan
        ratio = gamma / np.sqrt((target - self.rho_perp) * (target + self.rho_perp))
        return val, float(lam / (1.0 + (ratio - 1.0) / slope))


def lm_step_reference(J, r, L, lam):
    """Solve ``(J^T J + lam L^T L) d = -J^T r`` via the stacked system.

    The step is the least-squares solution of ``[J; sqrt(lam) L] d = [-r; 0]``
    with rank cutoff ``rcond = 1e-12``.  Raises ``numpy.linalg.LinAlgError``
    when the stacked system is numerically rank deficient.
    """
    J = np.asarray(J, dtype=float)
    r = np.asarray(r, dtype=float)
    if lam <= 0.0:
        raise NonpositiveLambda(f"lambda must be positive, got {lam}")
    m, n = J.shape
    if r.shape != (m,):
        raise DimensionMismatch(f"residual has shape {r.shape}, expected ({m},)")
    Lmat = np.asarray(getattr(L, "matrix", L), dtype=float)
    B = np.vstack([J, np.sqrt(lam) * Lmat])
    c = np.concatenate([-r, np.zeros(Lmat.shape[0])])
    d, _, rank, _ = np.linalg.lstsq(B, c, rcond=1e-12)
    if rank < n:
        raise np.linalg.LinAlgError(f"stacked system has rank {rank} < {n}")
    return d


def omega_reference(J, L, r, lam):
    """The q-condition residual ``||r + J d(lam)||`` with the stacked step."""
    J = np.asarray(J, dtype=float)
    r = np.asarray(r, dtype=float)
    return float(np.linalg.norm(r + J @ lm_step_reference(J, r, L, lam)))


def random_pair(rng, m_max=50, n_max=40):
    """A well-conditioned random (A, L) pair with m >= n >= p >= 1."""
    m = int(rng.integers(2, m_max + 1))
    n = int(rng.integers(1, min(m, n_max) + 1))
    p = int(rng.integers(1, n + 1))
    return rng.standard_normal((m, n)), rng.standard_normal((p, n))


def cyclic_difference(n):
    """J = I - (cyclic shift): J 1 = 0 exactly, so J W_0 = 0 for the constants W_0 of d1."""
    return np.eye(n) - np.roll(np.eye(n), 1, axis=1)


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


def coefficient_sensitivity_reference(a, u, V):
    """The coefficient problem's ``J(a) V`` by tridiagonal elimination in np.longdouble.

    ``J(a) V = T(a)^-1 diff(flux * halfpoints(V))``, flux the differences of
    the forward solution ``u`` (taken as given, so this checks the
    sensitivity and not the forward solve) and T(a) the tridiagonal matrix
    with diagonal am_i + am_{i+1} and off-diagonal -am_{i+1}, am the
    flux-point conductivities.  V is one direction or a matrix of them along
    the first axis.  T is symmetric positive definite, so the elimination is
    LDL^T without pivoting.  Its pivots come from the recurrence
    d_i = am_{i+1} + g_i, g_0 = am_0, g_{i+1} = am_{i+1} g_i / d_i (g_i is the
    series conductivity of everything left of node i), not from
    am_i + am_{i+1} - am_i^2 / d_{i-1}: the assembled diagonal rounds away the
    smaller of two very different conductivities and the subtraction then
    cancels, which costs about 2.6e-14 relative, even in long double, on a
    1e-3..1e3 conductivity profile at n = 128.  The recurrence subtracts
    nothing.
    """
    ld = np.longdouble
    a = np.asarray(a, dtype=ld)
    n = a.size

    def halfpoints(x):
        xm = np.empty((n + 1,) + x.shape[1:], dtype=ld)
        xm[0], xm[n] = x[0], x[-1]
        xm[1:n] = (x[:-1] + x[1:]) / 2
        return xm

    am = halfpoints(a)
    ue = np.concatenate(([0.0], np.asarray(u, dtype=float), [0.0])).astype(ld)
    w = (halfpoints(np.asarray(V, dtype=ld)).T * (ue[1:] - ue[:-1])).T
    y = w[1:] - w[:-1]
    d = np.empty(n, dtype=ld)
    g = am[0]
    for i in range(n):
        d[i] = am[i + 1] + g
        if i + 1 < n:
            g = am[i + 1] * (g / d[i])
            y[i + 1] += (am[i + 1] / d[i]) * y[i]
    x = np.empty_like(y)
    x[n - 1] = y[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (y[i] + am[i + 1] * x[i + 1]) / d[i]
    return x


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


def _assert_bitwise_equal(a, b, record_type):
    for f in fields(record_type):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), f.name
        elif f.name != "trace":  # compared record by record
            assert type(va) is type(vb) and repr(va) == repr(vb), f.name


def assert_runs_bitwise_equal(got, want):
    """Two RunRecords agree bit for bit in every field of every IterateRecord."""
    _assert_bitwise_equal(got, want, RunRecord)
    assert len(got.trace) == len(want.trace)
    for a, b in zip(got.trace, want.trace):
        _assert_bitwise_equal(a, b, IterateRecord)
