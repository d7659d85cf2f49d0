"""Generalized singular value decomposition of a matrix pair (A, L).

For A (m x n), L (p x n) with m >= n >= p, rank(L) = p and
N(A) ∩ N(L) = {0}, the pair factors as::

    A = U * blockdiag(Sigma, I_{n-p}) * X^{-1}
    L = V * [M  0] * X^{-1}

with U (m x n) and V (p x p) having orthonormal columns, X (n x n)
nonsingular, and diagonals sigma (nondecreasing, in [0, 1]) and mu
(nonincreasing, in (0, 1]) normalized by sigma_i^2 + mu_i^2 = 1.  The ratios
zeta_i = sigma_i / mu_i are the generalized singular values.

Both factorizations start from Eldén's standard form x = L^+ y + W_0 z,
built by ``_standard_form`` from L^+ and an orthonormal basis W_0 of N(L),
both kept by ``ScalingOperator``.  For p < n a QR
``A W_0 = [Q_0 Q_perp] [R_0; 0]`` (LAPACK ``geqrf``) splits off the part of
A that L does not see.  Q is never formed: ``ormqr`` applies its Householder
reflectors, as Q^T to A L^+ (and in ``gsvd`` as Q to assemble U), and
``trtrs`` gives W_0 R_0^-1; an exactly singular R_0 refuses the pair there.
The form is the p-column operator ``Q_perp^T A L^+``, W_0 R_0^-1 and
G = L^+ - W_0 R_0^-1 Q_0^T A L^+; when L^+ is exactly I_n
(``ScalingOperator.inverse_is_identity``) G is None and no product with L^+
is made.  ``gsvd`` takes one thin SVD (``gesdd``) of the operator, which
gives the zeta_i, U's leading block and, since L L^+ = I_p, V itself; then
X = [G V diag(mu), W_0 R_0^-1].  Completeness is decided by
``scaling.completeness_holds`` from bounds on the singular values of [A; L]
taken from ||X||_F and the norms of A and L; the exact singular values of
[A; L] are computed only when the bounds cannot decide.

``gsvd`` serves ``lmmss gsvd`` and ``validate``; the solver factors each
Jacobian by ``bidiagonalize`` alone.  It needs neither U, V nor X, nor even
every zeta_i: only zeta_p, the linearized residual ||r + J d(lam)|| for the
damping search, and the step.  ``bidiagonalize``'s factors answer them
through ``zeta_p`` and the split of the residual, ``split(r)``, whose
``omega(lam)`` and ``step(lam)`` answer the other two, from the same
standard form, G included, and one Householder bidiagonalization of the
operator, ``Q_perp^T J L^+ = Q_B [B; 0] P_B^T`` (LAPACK ``gebrd``, in
``_lapack``; for L = I it is J itself), whose reflectors ``ormqr`` applies
as it applies Q's (P_B's row reflectors transposed once into columns),
without any SVD: bisection
(``stebz``) on B's Golub–Kahan tridiagonal gives zeta_p, and a tridiagonal
augmented system on B (``gtsv``) gives the linearized residual and the
step.  Its completeness bound needs no V; a pair that bound cannot decide
is decided on the exact singular values of [J; L].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import _lapack
from .errors import CompletenessViolated, DimensionMismatch, NonFiniteInput, NonpositiveLambda
from .scaling import ScalingOperator, completeness_holds, euclidean_norm, frobenius

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


def _apply_q(trans: str, qr, tau, C, overwrite: bool = False, blocked: bool = True) -> np.ndarray:
    """Q @ C (trans "N") or Q^T @ C ("T") for the m x m Q held in geqrf-style reflectors.

    When ``blocked``, the workspace is the one ormqr asks for at its largest
    block size (64 columns plus the 65 x 64 block reflector), so it blocks
    whenever Q has enough reflectors for that to pay.  Otherwise it is LAPACK
    ormbr's 64 for one vector, which keeps ormqr on its unblocked path (the
    blocked one rounds differently).  With ``overwrite`` an F-ordered C is
    overwritten.
    """
    lwork = 64 * C.shape[1] + 65 * 64 if blocked else 64
    out, _, info = lapack.dormqr("L", trans, qr, tau, C, lwork, overwrite_c=overwrite)
    if info:
        raise ValueError(f"dormqr rejected argument {-info}")
    return out


def _checked_pair(A, L):
    """Check the pair as ``gsvd`` documents; return A (F-ordered float) and L.

    A raw L array is wrapped in a ScalingOperator, which checks its shape,
    entries and rank; a ScalingOperator is returned as it is.
    """
    # One layout for every input: a product of A with the few columns of W_0
    # rounds differently for C- and F-ordered A, and LAPACK reads F order.
    A = np.asarray(A, dtype=float, order="F")
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
    return A, L


def _standard_form(A, L: ScalingOperator):
    """Eldén's standard form of (A, L), x = L^+ y + W_0 z, with k = n - p.

    Returns ``(qr, tau, Abar, G, W0_R0inv)``, from which ``gsvd`` and
    ``bidiagonalize`` both work.  For p < n, ``qr`` and ``tau`` are
    ``geqrf``'s reflectors of ``A W_0 = Q [R_0; 0]`` with Q = [Q_0 Q_perp],
    ``Abar`` is the p-column operator Q_perp^T A L^+, ``W0_R0inv`` is
    W_0 R_0^-1 and G = L^+ - W_0 R_0^-1 Q_0^T A L^+.  For p = n there is no
    QR: ``(None, None, A L^+, L^+, n x 0 array)``.  When L^+ is exactly I_n,
    A itself stands for A L^+ and G is None, so no product with L^+ is made.
    An exact zero on R_0's diagonal (A W_0 singular) refuses the pair here,
    on the exact singular values of [A; L] (CompletenessViolated).
    """
    k = L.n - L.p
    AL = A if L.inverse_is_identity else A @ L.right_inverse
    if not k:
        G = None if L.inverse_is_identity else L.right_inverse
        return None, None, AL, G, np.empty((L.n, 0))
    qr, tau, _, _ = lapack.dgeqrf(A @ L.null_basis, overwrite_a=1)
    # R_0 is the upper k x k triangle of qr; W_0 R_0^-1 = (R_0^-T W_0^T)^T
    R0invT_W0T, info = lapack.dtrtrs(qr, L.null_basis.T, trans=1)
    if info > 0:
        _require_complete(A, L.matrix, usable=False)
    W0_R0inv = R0invT_W0T.T
    QtAL = _apply_q("T", qr, tau, AL)
    return qr, tau, QtAL[k:], L.right_inverse - W0_R0inv @ QtAL[:k], W0_R0inv


def gsvd(A, L) -> GsvdFactors:
    """Factor the pair (A, L).

    Per call: ``_standard_form`` (a QR of A W_0 kept as reflectors, skipped
    when p = n) and one thin SVD of its ``Q_perp^T A L^+``, whose right
    factor is V; L^+ and W_0 are the ScalingOperator's ``right_inverse`` and
    ``null_basis``.  The factors do not depend on the memory layout of A.
    Completeness is decided by ``scaling.completeness_holds``: first by
    ``_norm_bound_complete`` on ||X||_F, and on the exact singular values of
    [A; L] only when that bound cannot prove the rule.  A raw L array is
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
    numpy.linalg.LinAlgError
        If the SVD does not converge ("SVD did not converge").
    """
    A, L = _checked_pair(A, L)
    qr, tau, Abar, G, W0_R0inv = _standard_form(A, L)
    m, n = A.shape
    p = L.p
    k = n - p

    # The SVD of Q_perp^T A L^+ gives zeta = sigma / mu and V.
    Ub, zeta, Vt, info = lapack.dgesdd(Abar, compute_uv=1, full_matrices=0)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    # U's columns reversed into a new array: a reversed view would make every
    # later U^T r and U w take numpy's loop instead of BLAS.
    Ub, zeta, V = np.asfortranarray(Ub[:, ::-1]), zeta[::-1], Vt[::-1].T
    mu = 1.0 / np.hypot(1.0, zeta)
    sigma = zeta * mu
    Vmu = V * mu

    # X = [G V diag(mu), W_0 R_0^-1].  It comes before the completeness
    # decision because its norm bounds s_min.  Its first block is
    # C-contiguous for every G: the layout of X sets the rounding of every
    # later X @ v, and Vmu itself is strided like V.
    GVmu = np.ascontiguousarray(Vmu) if G is None else G @ Vmu
    if not k:
        U, X = Ub, GVmu
    else:
        # U = Q [[0, I_k], [U_b, 0]] = [Q_perp U_b, Q_0]
        U = np.zeros((m, n), order="F")
        U[k:, :p] = Ub
        U[:k, p:] = np.eye(k)
        U = _apply_q("N", qr, tau, U, overwrite=True)
        X = np.hstack([GVmu, W0_R0inv])
    # ||X||_F >= ||X||_2; nrm2 passes a NaN or infinite entry on, which
    # leaves the bound undecided.
    if not _norm_bound_complete(np.hypot(frobenius(A), L.spectral_norm), frobenius(X)):
        # A pair that passes the rule has a finite X in exact arithmetic; one
        # whose X is unusable anyway is refused rather than returned.
        _require_complete(A, L.matrix, usable=np.isfinite(X).all())

    return GsvdFactors(U=U, V=V, X=X, sigma=sigma, mu=mu)


def _require_complete(A, Lmat, usable: bool = True):
    """Raise CompletenessViolated unless the exact singular values of [A; L] pass the rule.

    A pair that passes is still refused when ``usable`` is False.  The values
    are those of the stacked [A; L], not the reciprocals of those of X: X can
    be ill-conditioned where [A; L] is not, and the tests check every refusal
    against the stacked values.
    """
    s = np.linalg.svd(np.vstack([A, Lmat]), compute_uv=False)
    if not completeness_holds(s) or not usable:
        with np.errstate(over="ignore"):  # a refused pair can have s_min above 1e154
            s_min_sq = s[-1] ** 2
        raise CompletenessViolated(f"N(A) and N(L) intersect: s_min^2 = {s_min_sq:.3e}")


def _norm_bound_complete(s_max_up, x_norm_up) -> bool:
    """Whether bounds on the singular values of [A; L] prove the completeness rule.

    [A; L] X has orthonormal columns for the GSVD's X, so s_min = 1 / ||X||_2,
    and the caller passes ``x_norm_up >= ||X||_2`` and
    ``s_max_up = hypot(||A||_F, ||L||_2) >= s_max``, since
    ||[A; L]||_2 <= hypot(||A||_2, ||L||_2).  The bounds go through
    ``completeness_holds`` with s_min^2 divided by ``_BOUND_MARGIN``.  A NaN
    or infinite ``x_norm_up`` (nrm2 passes a NaN or infinite entry on) is
    undecided: False.

    Rounding: ||L||_2 is ``ScalingOperator.spectral_norm``, the largest
    singular value from ``svdvals``, which can fall a few ulps below the true
    one; the nrm2 norms of A and X are rounded too.  An s_max understated by
    a relative eps lowers the rule's threshold by at most that eps, while the
    margin raises it by a factor sqrt(2), so rounding this small cannot
    accept a pair the exact singular values reject.
    """
    s_min_low = 1.0 / (np.sqrt(_BOUND_MARGIN) * x_norm_up)
    return completeness_holds((s_max_up, s_min_low))


class BidiagonalFactors:
    """Factors of a pair (J, L), m >= n >= p, without singular vectors.

    In the standard form of ``_standard_form`` (k = n - p; Q = [Q_0 Q_perp]
    from the QR of J W_0 stays as reflectors) the p-column operator is
    bidiagonalized, ``Q_perp^T J L^+ = Q_B [B; 0] P_B^T``, with B upper
    bidiagonal and Q_B, P_B kept as ``dgebrd``'s reflectors, which ``ormqr``
    applies on its unblocked path; P_B's row reflectors are transposed into
    columns once, when the factors are made.  The form's
    W_0 R_0^-1 and G = L^+ - W_0 R_0^-1 C with C = Q_0^T J L^+ (k x p) are
    kept too; for L = I, B is J's own bidiagonal and G is None.  Neither U,
    V, X nor the SVD of B is formed; the factors answer:

    - ``zeta_p``, the largest singular value of B, is the largest eigenvalue
      of its Golub–Kahan tridiagonal (``_largest_singular_value``).
    - ``split(r)``: c = Q^T r, c_0 = c[:k] = Q_0^T r and b = Q_B^T c[k:];
      rho_perp = ||b[p:]||, and J^T r = 0 exactly when c_0 = 0 and B^T b[:p]
      = 0.  Its ``omega`` answers the damping search and its ``step`` the
      step (``_BidiagonalSplit``).
    - ``omega`` and the step solve, for b[:p] or another right-hand side h,
      ``[[sqrt(lam) I, B], [B^T, -sqrt(lam) I]] [t; z] = [h; 0]``.
      For h = b[:p], z solves ``(B^T B + lam I) z = B^T b`` and sqrt(lam) t =
      b - B z is the residual of the projected problem.  Taken in the order
      (z_1, t_1, z_2, t_2, ...) the system is tridiagonal, and ``dgtsv``
      solves it in O(p) (Eldén's direct solution of a regularized problem on
      a bidiagonal).  Its condition number is about zeta_p / sqrt(lam), not
      the square that the normal equations would have.
    - ``split(r).step(lam)``: y = -P_B z = L d and ``d = L^+ y - W_0 R_0^-1
      (c_0 + C y) = G y - W_0 R_0^-1 c_0``.  That is the GSVD's
      filter-factor step ``-X diag(g) w`` with w = U^T r, g_i = sigma_i /
      (sigma_i^2 + lam mu_i^2) on the leading p entries and 1 on the rest,
      written without V: X = [G V diag(mu), W_0 R_0^-1], and y = -V
      diag(g_i mu_i) w[:p].
    """

    def __init__(self, shape, a, brd, qr, tau, G, W0_R0inv):
        (self.m, self.n), self.p = shape, a.shape[1]
        self._a, self._qr, self._tau, self._G, self._W0_R0inv = a, qr, tau, G, W0_R0inv
        self._d, self._e, self._tauq, taup = brd
        # P_B's reflectors, rows of a[:p-1, 1:] (ormbr's ormlq block), as ormqr's columns
        self._p_reflectors, self._taup = np.array(a[: self.p - 1, 1:].T, order="F"), taup[:-1]
        self._off = np.empty(2 * self.p - 1)  # the augmented system's off-diagonal
        self._off[0::2], self._off[1::2] = self._d, self._e
        self._sign = np.tile((-1.0, 1.0), self.p)  # its diagonal over sqrt(lam)
        self.zeta_p = _largest_singular_value(self._off)

    def split(self, r) -> _BidiagonalSplit:
        """r in the factors' coordinates; see ``_BidiagonalSplit``."""
        return _BidiagonalSplit(self, r)

    def _apply_qb_transpose(self, c):
        """Q_B^T c, as a new array, for c of length m - k."""
        return _apply_q("T", self._a, self._tauq, c, blocked=False)

    def _apply_pb(self, z):
        """P_B z, in place, for z of length p."""
        if self.p > 1:  # P_B = I for p = 1
            z[1:] = _apply_q("N", self._p_reflectors, self._taup, z[1:], blocked=False)
        return z


class _BidiagonalSplit:
    """A residual r split by bidiagonal factors: c0 = Q_0^T r and b = (Q_B^T Q_perp^T r)[:p].

    It answers one step's questions about r: ``rnorm`` = ||r||, the factors'
    ``zeta_p``, ``gradient_vanishes``, ``omega`` for the damping search and
    ``step`` for the damping it picks.  It copies what it needs of r, so an
    r changed in place afterwards leaves the split's answers as they were.
    J^T r = X^-T diag(sigma, I) w, and diag(zeta) w[:p] is B^T b up to the
    orthogonal W of B's SVD, so J^T r = 0 exactly when c0 and B^T b vanish
    (``gradient_vanishes``).

    Raises DimensionMismatch for a residual whose shape is not (m,) and
    NonFiniteInput for one whose norm is not finite.
    """

    def __init__(self, f: BidiagonalFactors, r):
        r = np.asarray(r, dtype=float)
        if r.shape != (f.m,):
            raise DimensionMismatch(f"residual has shape {r.shape}, expected ({f.m},)")
        self.rnorm = euclidean_norm(r)
        if not math.isfinite(self.rnorm):
            raise NonFiniteInput(
                f"the residual norm is {self.rnorm}: a NaN or infinite entry, or overflow"
            )
        self.factors, self.zeta_p = f, f.zeta_p
        c = r if f._qr is None else _apply_q("T", f._qr, f._tau, r[:, None])[:, 0]
        k = f.n - f.p
        self.c0 = c[:k]
        b = f._apply_qb_transpose(c[k:])
        self.b = b[: f.p]
        self.rho_perp = euclidean_norm(b[f.p :])
        grad = f._d * self.b  # B^T b, B upper bidiagonal
        grad[1:] += f._e * self.b[:-1]
        self.gradient_vanishes = not self.c0.any() and not grad.any()

    def omega(self, lam, target=None):
        """``||r + J d(lam)||`` at lam; with a ``target``, ``(omega, lam_newton)``.

        omega = hypot(rho_perp, gamma), where gamma is the linearized residual
        with rho_perp projected off: gamma = sqrt(lam) ||t|| from one O(p)
        solve of the augmented system, taken from t itself rather than from
        b - B z, which cancels at small lam.  Neither d nor J d is formed.

        ``lam_newton`` is the Newton iterate toward omega = target, which must
        exceed rho_perp, on the secular equation in Moré–Sorensen's reciprocal
        form.  With nu = 1/lam, gamma(nu)^2 = sum w_i^2 / (1 + zeta_i^2 nu)^2
        in the pair's GSVD (w = U^T r, never formed), and ``psi(nu) =
        1/gamma(nu) - 1/sqrt(target^2 - rho_perp^2)`` is increasing and (by
        Cauchy–Schwarz) concave, so Newton from a point where omega > target
        never passes the root and converges monotonically.  It needs slope =
        -(dgamma/dnu) / (lam gamma), from a second solve with right-hand side
        e / gamma, e = sqrt(lam) t: that gives z' / gamma, where z' = lam
        (B^T B + lam I)^-1 z since B^T e = lam z, and slope = lam (z . z') /
        gamma^2, a quadratic form in z that is nonnegative.  In the GSVD it is
        the sum of (e_i / gamma)^2 sigma_i^2 / (sigma_i^2 + lam mu_i^2), with
        e_i = lam mu_i^2 w_i / (sigma_i^2 + lam mu_i^2) and gamma = ||e||.
        Where omega is flat in lam (gamma = 0, or r + J d moving only along
        directions with zeta_i = 0) there is no Newton iterate, and
        ``lam_newton`` is NaN.
        """
        f, root = self.factors, math.sqrt(lam)
        z, t = _solve_augmented(f._off, f._sign * root, self.b)
        t_norm = euclidean_norm(t)
        gamma = root * t_norm
        val = float(np.hypot(self.rho_perp, gamma))
        if target is None:
            return val
        if not gamma:
            return val, np.nan
        z_unit, _ = _solve_augmented(f._off, f._sign * root, t / t_norm)
        slope = float(lam / gamma * (z @ z_unit))
        if slope == 0.0:
            return val, np.nan
        # dgamma/dnu = -lam gamma slope, so the Newton iterate on psi is
        # nu + (gamma/Delta - 1) / (lam slope) with Delta^2 = target^2 - rho_perp^2
        ratio = gamma / np.sqrt((target - self.rho_perp) * (target + self.rho_perp))
        return val, float(lam / (1.0 + (ratio - 1.0) / slope))

    def step(self, lam) -> np.ndarray:
        """Solve ``(J^T J + lam L^T L) d = -J^T r``; see ``BidiagonalFactors``.

        Raises NonpositiveLambda unless lam is positive and finite.
        """
        if not 0.0 < lam < np.inf:
            raise NonpositiveLambda(f"lambda must be positive and finite, got {lam}")
        f = self.factors
        z, _ = _solve_augmented(f._off, f._sign * math.sqrt(lam), self.b)
        y = -f._apply_pb(z)
        if f._G is None:  # L^+ = I, so k = 0 and d = y
            return y
        return f._G @ y - f._W0_R0inv @ self.c0


def _solve_augmented(off, diag, h):
    """``(z, t)`` solving ``BidiagonalFactors``' augmented system for ``[h; 0]``.

    ``off`` = (d_1, e_1, ..., d_p) holds B and is the system's off-diagonal;
    ``diag`` = sqrt(lam) (-1, 1, ..., -1, 1) is its diagonal, overwritten.
    """
    rhs = np.zeros((diag.size, 1))
    rhs[1::2, 0] = h
    _, _, _, u, info = lapack.dgtsv(off, diag, off, rhs, overwrite_d=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"dgtsv rejected argument {-info}")
    if info > 0:  # its eigenvalues are +-sqrt(zeta_i^2 + lam): only a lam lost to rounding
        raise np.linalg.LinAlgError("the augmented step system is singular")
    return u[0::2, 0], u[1::2, 0]


def _largest_singular_value(off) -> float:
    """s_max(B) for the upper bidiagonal B with entries ``off`` = (d_1, e_1, ..., d_p).

    The 2p x 2p symmetric tridiagonal with zero diagonal and off-diagonal
    ``off``, B's Golub–Kahan tridiagonal, has the eigenvalues +-s_i(B), so
    s_max(B) is its largest, found by bisection (``dstebz`` with il = iu =
    2p).  A NaN or infinite entry raises ValueError before bisection, and a
    ``dstebz`` failure numpy.linalg.LinAlgError.
    """
    if not np.isfinite(off).all():
        raise ValueError("the bidiagonal matrix has a NaN or infinite entry")
    n = off.size + 1
    found, w, _, _, info = lapack.dstebz(np.zeros(n), off, 2, 0.0, 0.0, n, n, 0.0, "E")
    if info < 0:
        raise ValueError(f"dstebz rejected argument {-info}")
    if info > 0 or found != 1:
        raise np.linalg.LinAlgError("bisection for the largest singular value of B failed")
    return float(w[0])


def bidiagonalize(J, L) -> BidiagonalFactors:
    """Factor the pair (J, L) by one Householder bidiagonalization (``dgebrd``).

    Per call: ``_standard_form``, which ``gsvd`` takes too (for p < n a QR
    of J W_0 kept as reflectors; it refuses a singular J W_0), and one
    ``dgebrd`` of its (m - k) x p operator Q_perp^T J L^+.  Input is checked
    as ``gsvd`` checks it.

    Completeness needs no V: ``_x_norm_bound`` bounds ||X||_2 from the
    form's G and W_0 R_0^-1 (1 for L = I), and that bound and
    s_max <= hypot(||J||_F, ||L||_2) go through ``_norm_bound_complete``.  G
    forms X's first block in ``gsvd`` too, so the rounding argument there
    holds here.  A pair the bound cannot decide (as for d2 at n = 512 or
    ||J||_F above about 5e4 with L = I) is decided on the exact singular
    values of [J; L] (``_require_complete``), which refuse it with the
    CompletenessViolated message ``gsvd`` gives.

    Raises what ``gsvd`` raises on its input and on a refused pair.
    """
    a, L = _checked_pair(J, L)
    qr, tau, abar, G, W0_R0inv = _standard_form(a, L)
    if not _norm_bound_complete(np.hypot(frobenius(a), L.spectral_norm),
                                _x_norm_bound(G, W0_R0inv)):
        _require_complete(a, L.matrix)
    abar = np.array(abar, order="F")  # a copy: dgebrd overwrites it
    return BidiagonalFactors(a.shape, abar, _lapack.dgebrd(abar), qr, tau, G, W0_R0inv)


def _x_norm_bound(G, W0_R0inv) -> float:
    """An upper bound on ||X||_2, for the GSVD's X of the pair, that needs no V.

    X = [G V diag(mu), W_0 R_0^-1] with ``_standard_form``'s G, V orthogonal
    and mu_i <= 1, so ||X||_2 <= hypot(||G||_F, ||W_0 R_0^-1||_F); for
    L^+ = I (G None, k = 0) X = V diag(mu) and the bound is 1 exactly.
    """
    if G is None:
        return 1.0
    return float(np.hypot(frobenius(G), frobenius(W0_R0inv)))


def generalized_singular_values(f: GsvdFactors) -> np.ndarray:
    """Return zeta_i = sigma_i / mu_i, nondecreasing and finite since mu_i > 0."""
    return f.sigma / f.mu


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
    d = np.concatenate([f.sigma, np.ones(f.n - f.p)])
    recon_a = frobenius(A - (f.U * d) @ Xinv) / max(frobenius(A), 1e-300)
    recon_l = frobenius(Lmat - (f.V * f.mu) @ Xinv[: f.p]) / max(frobenius(Lmat), 1e-300)
    orth_u = frobenius(f.U.T @ f.U - np.eye(f.n))
    orth_v = frobenius(f.V.T @ f.V - np.eye(f.p))
    normalization = float(np.abs(f.sigma**2 + f.mu**2 - 1.0).max()) if f.p else 0.0
    return GsvdValidation(
        recon_a=float(recon_a),
        recon_l=float(recon_l),
        orth_u=float(orth_u),
        orth_v=float(orth_v),
        normalization=normalization,
        tol=float(tol),
    )
