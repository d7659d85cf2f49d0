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
``trtrs`` gives W_0 R_0^-1.  Completeness, N(A) ∩ N(L) = {0}, is two
relative rank decisions: L's, by ``ScalingOperator``, and for p < n
A W_0's, on R_0 (``NULL_SPACE_RTOL``); neither depends on the scale of A or L.
The form is the p-column operator ``Q_perp^T A L^+``, W_0 R_0^-1 and
G = L^+ - W_0 R_0^-1 Q_0^T A L^+; when L^+ is exactly I_n
(``ScalingOperator.inverse_is_identity``) G is None and no product with L^+
is made.  ``gsvd`` takes one thin SVD (``gesdd``) of the operator, which
gives the zeta_i, U's leading block and, since L L^+ = I_p, V itself; then
X = [G V diag(mu), W_0 R_0^-1].

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
without any SVD: bisection (``stebz``) on B's p x p Gram tridiagonal B^T B,
formed from B scaled by a power of two, gives zeta_p, and a tridiagonal
augmented system on B (``gtsv``) gives the linearized residual and the
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import _lapack
from .errors import CompletenessViolated, DimensionMismatch, NonFiniteInput, NonpositiveLambda
from .scaling import ScalingOperator, euclidean_norm, frobenius

#: For p < n, ``_standard_form`` refuses (A, L) unless sigma_min(A W_0) =
#: sigma_min(R_0) > NULL_SPACE_RTOL ||A||_F.  For L of full row rank,
#: N(A) ∩ N(L) = {0} exactly when A W_0 has full column rank, and W_0
#: depends on N(L) alone, so the decision, like the step, is unchanged when
#: A or L is scaled.  A refusal gives a unit z with ||A W_0 z|| <= this
#: times ||A||_F, and L W_0 z = 0; an acceptance rules out a unit v with
#: ||A v|| <= eta ||A||_2 and ||L v|| <= eta ||L||_2 for eta below about
#: this times ``scaling.RANK_RTOL``, since sigma_p(L) > RANK_RTOL ||L||_2
#: puts such a v within eta / RANK_RTOL of N(L).  ||A||_F (nrm2, a few
#: ulps) exceeds ||A||_2 by at most sqrt(n), which errs toward refusal.
#: The value sits about five decades from both sides: an exactly deficient
#: pair (I - 1 1^T / n with d2) reads 9.5e-16 at n = 48 and 6.6e-14 at
#: n = 1024 from rounding, which RANK_RTOL = 1e-12 would clear by only 15x,
#: and the bundled problems at x0 read 0.137-0.82 (n = 32-512, d1 and d2).
NULL_SPACE_RTOL = 1e-8


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
    Completeness is decided here (CompletenessViolated), as L's rank was by
    the ScalingOperator: nothing is left for p = n, and for p < n
    ``NULL_SPACE_RTOL`` decides on R_0.  A W_0 R_0^-1 that overflows (||A||_F
    below about 1e-300) is refused too.
    """
    k = L.n - L.p
    AL = A if L.inverse_is_identity else A @ L.right_inverse
    if not k:
        G = None if L.inverse_is_identity else L.right_inverse
        return None, None, AL, G, np.empty((L.n, 0))
    qr, tau, _, _ = lapack.dgeqrf(A @ L.null_basis, overwrite_a=1)
    # R_0 is the upper k x k triangle of qr
    _, s, _, info = lapack.dgesdd(np.triu(qr[:k, :k]), compute_uv=0)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    a_norm = frobenius(A)
    if not s[-1] > NULL_SPACE_RTOL * a_norm:
        ratio = s[-1] / a_norm if a_norm else 0.0
        raise CompletenessViolated(
            f"N(A) and N(L) intersect: sigma_min(A W_0) / ||A||_F = {ratio:.3e}"
        )
    # W_0 R_0^-1 = (R_0^-T W_0^T)^T
    W0_R0inv = lapack.dtrtrs(qr, L.null_basis.T, trans=1)[0].T
    if not np.isfinite(W0_R0inv).all():
        raise CompletenessViolated("N(A) and N(L) intersect: W_0 R_0^-1 is not finite")
    QtAL = _apply_q("T", qr, tau, AL)
    return qr, tau, QtAL[k:], L.right_inverse - W0_R0inv @ QtAL[:k], W0_R0inv


def gsvd(A, L) -> GsvdFactors:
    """Factor the pair (A, L).

    Per call: ``_standard_form`` (a QR of A W_0 kept as reflectors, skipped
    when p = n) and one thin SVD of its ``Q_perp^T A L^+``, whose right
    factor is V; L^+ and W_0 are the ScalingOperator's ``right_inverse`` and
    ``null_basis``.  The factors do not depend on the memory layout of A.
    Completeness is decided in ``_standard_form``, scale-free.  A raw L array
    is wrapped in a ScalingOperator, which checks its shape, entries and rank.

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
        If the null spaces of A and L intersect numerically (for p < n,
        sigma_min(A W_0) <= ``NULL_SPACE_RTOL`` ||A||_F), or W_0 R_0^-1 overflows.
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

    # X = [G V diag(mu), W_0 R_0^-1].  Its first block is C-contiguous for
    # every G: the layout of X sets the rounding of every later X @ v, and
    # Vmu itself is strided like V.
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
    return GsvdFactors(U=U, V=V, X=X, sigma=sigma, mu=mu)


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

    - ``zeta_p``, the largest singular value of B, is the square root of the
      largest eigenvalue of the p x p tridiagonal B^T B, formed from B scaled
      by a power of two so that no square overflows
      (``_largest_singular_value``).
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

    s_max(B)^2 is the largest eigenvalue of the p x p Gram tridiagonal B^T B
    (diagonal d_i^2 + e_{i-1}^2, off-diagonal d_i e_i), found by bisection
    (``dstebz`` with il = iu = p).  The Gram matrix is formed from 2^-s B,
    where 2^s is the power of two that puts max |entry| in [1/2, 1)
    (``frexp``); ``ldexp`` scales B and the result exactly, except for
    entries too small for their scaled value to be normal, whose squares are
    negligible below.  At every scale of B this gives s_max to a few ulps:

    - No square overflows: each scaled entry is below 1, so each Gram entry
      is below 2.
    - Underflow does not matter: lambda_max >= max |entry|^2 >= 1/4, and a
      square or product that underflows is off by at most 2^-1074, far less
      than an ulp of lambda_max.
    - Weyl's bound: each computed Gram entry is within about 2u (u the unit
      roundoff) of the exact one relative to the same entry of |B|^T |B|.
      Signature matrices on both sides turn B into |B| (its graph is a
      path), so ||E||_2 <= 2u || |B|^T |B| ||_2 = 2u lambda_max for the
      rounding E, and lambda_max moves by at most that, s_max by half of it.
      ``dstebz`` with a zero tolerance bisects to about 2 ulps of lambda_max.

    A NaN or infinite entry raises ValueError before bisection, a ``dstebz``
    failure numpy.linalg.LinAlgError, and an s_max beyond the largest double
    OverflowError; a zero B gives 0.0.
    """
    peak = float(np.abs(off).max())  # NaN if any entry is NaN
    if not math.isfinite(peak):
        raise ValueError("the bidiagonal matrix has a NaN or infinite entry")
    if not peak:
        return 0.0
    scale = math.frexp(peak)[1]
    scaled = np.ldexp(off, -scale)
    d, e = scaled[0::2], scaled[1::2]
    diag = d * d
    diag[1:] += e * e
    p = d.size
    # the wrapper refuses an empty off-diagonal, and LAPACK reads none for p = 1
    sub = d[:-1] * e if p > 1 else np.zeros(1)
    found, w, _, _, info = lapack.dstebz(diag, sub, 2, 0.0, 0.0, p, p, 0.0, "E")
    if info < 0:
        raise ValueError(f"dstebz rejected argument {-info}")
    if info > 0 or found != 1:
        raise np.linalg.LinAlgError("bisection for the largest singular value of B failed")
    return math.ldexp(math.sqrt(w[0]), scale)


def bidiagonalize(J, L) -> BidiagonalFactors:
    """Factor the pair (J, L) by one Householder bidiagonalization (``dgebrd``).

    Per call: ``_standard_form``, which ``gsvd`` takes too (for p < n a QR
    of J W_0 kept as reflectors, on whose triangle it decides completeness),
    and one ``dgebrd`` of its (m - k) x p operator Q_perp^T J L^+.  Input is
    checked as ``gsvd`` checks it, and a pair is refused as ``gsvd`` refuses
    it, with the same CompletenessViolated message.

    Raises what ``gsvd`` raises on its input and on a refused pair.
    """
    a, L = _checked_pair(J, L)
    qr, tau, abar, G, W0_R0inv = _standard_form(a, L)
    abar = np.array(abar, order="F")  # a copy: dgebrd overwrites it
    return BidiagonalFactors(a.shape, abar, _lapack.dgebrd(abar), qr, tau, G, W0_R0inv)


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
