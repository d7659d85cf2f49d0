"""Shared oracles and generators for the test suite.

The oracles here are intentionally independent of the library internals:
the generalized singular values come from a symmetric-definite eigenvalue
problem, Jacobian checks from central differences, the LM step and the
q-condition residual from a stacked least-squares solve.  Two are the
exception.  ``gsvd_reference`` is a dense GSVD by a stacked QR, which
checks that ``bidiagonalize`` reaches the same completeness decision and
the same sigma and mu.  ``SpectralOracle`` takes the library's own standard
form and an exact SVD of its operator, to check the bidiagonal route's
damping search and step against the spectral sums of the GSVD.
"""

from dataclasses import fields
from typing import NamedTuple

import numpy as np
import scipy.linalg

from lmmss import (
    CompletenessViolated,
    DimensionMismatch,
    IterateRecord,
    NonpositiveLambda,
    RunRecord,
    ScalingOperator,
)
from lmmss.gsvd import NULL_SPACE_RTOL, _apply_q, _checked_pair, _standard_form, bidiagonalize


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


#: ``gsvd_reference`` refuses factors that reproduce A or L worse than this,
#: relative in the Frobenius norm.  Measured: random pairs read at most
#: 1.3e-14, the bundled autoconvolution and coefficient Jacobians at x0 up
#: to 6.6e-10 (n = 128, d2; coefficient d2 3.9e-10), and the bundled linear
#: one (condition number about 1e16) 7e-7 to 3.6e-6 at n = 32 and 0.83-1.2
#: from n = 48 on.
REFERENCE_RECON_TOL = 1e-8


class GsvdReference(NamedTuple):
    """A = U diag(sigma, I_{n-p}) X^-1 and L = V [diag(mu) 0] X^-1, sigma^2 + mu^2 = 1."""

    U: np.ndarray
    V: np.ndarray
    X: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray


def gsvd_reference(A, L):
    """The GSVD of (A, L) by a QR of [A; L] and a cosine-sine split of Q.

    It decides completeness before anything else, on its own basis of N(L)
    (``scipy.linalg.null_space``): for p < n the pair is refused unless
    sigma_min(A N) > ``NULL_SPACE_RTOL`` ||A||_F, and for p = n it is
    accepted.  Signs are fixed one column at a time; sigma is nondecreasing.

    It is an oracle only where [A; L] is well conditioned, since X = R^-1 W
    with R the triangle of that QR, and where sigma_i > 0 for every i, since
    U comes from an unpivoted QR of Q_A W, which leaves Q_A W's directions in
    the wrong columns of U when a leading column vanishes.  It measures how
    well its factors reproduce A and L and raises AssertionError above
    ``REFERENCE_RECON_TOL``, so it cannot stand in silently on a pair it
    does not resolve, such as the bundled linear problem from n = 48 on.
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
    Xinv = np.linalg.inv(X)
    recon_a = np.linalg.norm(A - (U * np.r_[sigma, np.ones(n - p)]) @ Xinv) / np.linalg.norm(A)
    recon_l = np.linalg.norm(Lmat - (V * mu) @ Xinv[:p]) / np.linalg.norm(Lmat)
    recon = max(recon_a, recon_l)
    assert recon <= REFERENCE_RECON_TOL, f"gsvd_reference reproduces (A, L) only to {recon:.2e}"
    return GsvdReference(U=U, V=V, X=X, sigma=sigma, mu=mu)


class SpectralOracle:
    """zeta_p, the linearized residual and the step of (J, L) at r, by the GSVD's spectral sums.

    Built on the library's standard form (``_standard_form``, k = n - p) and
    an exact SVD of its operator, Q_perp^T J L^+ = U_b diag(zeta) V^T:
    c = Q^T r, c0 = c[:k] = Q_0^T r and w = U_b^T c[k:].  rho_perp =
    ||c[k:] - U_b w||, not sqrt(||r||^2 - ||w||^2 - ||c0||^2), which cancels
    when U_b is square.  The residual and its slope are the secular sums in
    zeta, and the step is the filter-factor step.
    """

    def __init__(self, J, L, r):
        J, L = _checked_pair(J, L)
        qr, tau, abar, self.G, self.W0_R0inv = _standard_form(J, L)
        Ub, self.zeta, Vt = np.linalg.svd(abar, full_matrices=False)
        self.V = Vt.T
        self.zeta_p = float(self.zeta[0])
        c = r if qr is None else _apply_q("T", qr, tau, r[:, None])[:, 0]
        k = L.n - L.p
        self.c0 = c[:k]
        self.w = Ub.T @ c[k:]
        self.rho_perp = float(np.linalg.norm(c[k:] - Ub @ self.w))

    def step(self, lam):
        """``-G V diag(zeta / (zeta^2 + lam)) w - W_0 R_0^-1 c0``; G is None for L^+ = I."""
        y = -(self.V @ (self.zeta / (self.zeta**2 + lam) * self.w))
        d = y if self.G is None else self.G @ y
        return d - self.W0_R0inv @ self.c0

    def omega(self, lam, target=None):
        """``||r + J d(lam)||``; with ``target`` also the Newton iterate toward omega = target.

        The residual is hypot(rho_perp, ||e||) with e_i = lam w_i /
        (zeta_i^2 + lam), and slope = sum (e_i / ||e||)^2 zeta_i^2 /
        (zeta_i^2 + lam).  The Newton iterate on the secular equation in
        Moré–Sorensen's reciprocal form is lam / (1 + (ratio - 1) / slope)
        with ratio = ||e|| / sqrt(target^2 - rho_perp^2), and NaN where the
        slope vanishes.
        """
        z2 = self.zeta**2
        den = z2 + lam
        e = lam * self.w / den
        gamma = np.linalg.norm(e)
        val = float(np.hypot(self.rho_perp, gamma))
        if target is None:
            return val
        slope = float(((e / gamma) ** 2) @ (z2 / den)) if gamma else 0.0
        if slope == 0.0:
            return val, np.nan
        ratio = gamma / np.sqrt((target - self.rho_perp) * (target + self.rho_perp))
        return val, float(lam / (1.0 + (ratio - 1.0) / slope))


def bidiagonal_reduction_defects(J, L):
    """How far the factors' reflectors are from reducing Abar = Q_perp^T J L^+ to [B; 0].

    Q_B^T and P_B are built column by column from the factors' own
    applications to unit vectors (Q_B^T as ``split`` applies it, P_B as
    ``step`` does).  Returns ||Q_B^T Abar P_B - [B; 0]|| / ||Abar|| and the
    orthogonality defects ||Q_B^T Q_B - I|| and ||P_B^T P_B - I||, each
    divided by the matrix's order.
    """
    J, L = _checked_pair(J, L)
    abar = _standard_form(J, L)[2]
    f = bidiagonalize(J, L)
    rows, p = abar.shape
    qbt = np.column_stack([f._apply_qb_transpose(e) for e in np.eye(rows)])
    pb = np.column_stack([f._apply_pb(e) for e in np.eye(p)])
    want = np.zeros((rows, p))
    want[:p] = np.diag(f._d) + np.diag(f._e, 1)
    return (
        np.linalg.norm(qbt @ abar @ pb - want) / np.linalg.norm(abar),
        np.linalg.norm(qbt.T @ qbt - np.eye(rows)) / rows,
        np.linalg.norm(pb.T @ pb - np.eye(p)) / p,
    )


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


def _halfpoints_ld(x):
    # flux-point values in np.longdouble, as lmmss.problems averages them
    n = len(x)
    xm = np.empty((n + 1,) + x.shape[1:], dtype=np.longdouble)
    xm[0], xm[n] = x[0], x[-1]
    xm[1:n] = (x[:-1] + x[1:]) / 2
    return xm


def _conductivity_elimination(a, y):
    """Solve T(a) x = y in np.longdouble, y one right-hand side or several along the second axis.

    T(a) is the coefficient problem's tridiagonal matrix, with diagonal
    am_i + am_{i+1} and off-diagonal -am_{i+1}, am the flux-point
    conductivities.  T is symmetric positive definite, so the elimination is
    LDL^T without pivoting.  Its pivots come from the recurrence
    d_i = am_{i+1} + g_i, g_0 = am_0, g_{i+1} = am_{i+1} g_i / d_i (g_i is the
    series conductivity of everything left of node i), not from
    am_i + am_{i+1} - am_i^2 / d_{i-1}: the assembled diagonal rounds away the
    smaller of two very different conductivities and the subtraction then
    cancels, which costs about 2.6e-14 relative, even in long double, on a
    1e-3..1e3 conductivity profile at n = 128.  The recurrence subtracts
    nothing.
    """
    am = _halfpoints_ld(np.asarray(a, dtype=np.longdouble))
    y = np.array(y, dtype=np.longdouble)
    n = y.shape[0]
    d = np.empty(n, dtype=np.longdouble)
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


def coefficient_forward_reference(a):
    """The coefficient problem's forward solution ``T(a)^-1 h^2 f`` in np.longdouble.

    The source h^2 f is formed in double as ``problem_coefficient_identification``
    forms it, so this checks the solve and not the source.
    """
    n = len(a)
    h = 1.0 / (n + 1)
    t = np.arange(1, n + 1) * h
    return _conductivity_elimination(a, h * h * (4.0 * np.pi**2 * np.cos(2.0 * np.pi * t)))


def coefficient_sensitivity_reference(a, u, V):
    """The coefficient problem's ``J(a) V`` by ``_conductivity_elimination``.

    ``J(a) V = T(a)^-1 diff(flux * halfpoints(V))``, flux the differences of
    the forward solution ``u`` (taken as given, so this checks the
    sensitivity and not the forward solve).  V is one direction or a matrix
    of them along the first axis.
    """
    ue = np.concatenate(([0.0], np.asarray(u, dtype=float), [0.0])).astype(np.longdouble)
    w = (_halfpoints_ld(np.asarray(V, dtype=np.longdouble)).T * (ue[1:] - ue[:-1])).T
    return _conductivity_elimination(a, w[1:] - w[:-1])


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
