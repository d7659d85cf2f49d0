"""Scaling operators for seminorm regularization.

A scaling operator is a p-by-n matrix L with full row rank, 1 <= p <= n.  It
induces the seminorm ``||v||_L = ||L v||_2``, which vanishes exactly on the
null space of L.  Singular choices (p < n) penalize only selected solution
components, e.g. non-smooth ones for difference stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, DimensionTooSmall, NonFiniteInput, RankDeficientL

#: Relative threshold for the rank decision on L.
RANK_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class ScalingOperator:
    """A p-by-n scaling matrix together with a tag naming its construction.

    Construction checks ``1 <= p <= n`` (DimensionMismatch), finite entries
    (NonFiniteInput) and full row rank (RankDeficientL) once, the rank on the
    singular values of R_L in one complete QR ``L^T = [W_p W_0] [R_L; 0]``.
    L stays fixed while the Jacobian changes, so the standard-form factors
    both factorizations need at every step are kept: ``right_inverse``
    = W_p R_L^-T, the Moore-Penrose inverse L^+ (L L^+ = I_p), and
    ``null_basis = W_0``, an orthonormal basis of N(L).  ``inverse_is_identity``
    records whether ``right_inverse`` came out exactly I_n (as it does for
    L = I_n), so that ``gsvd._standard_form`` skips the products with it for
    both; it is read off the matrix, not off ``kind``.  ``spectral_norm`` is
    ||L||_2, the largest singular value of R_L from the rank check; its one
    reader is ``diagnostics.check_euclidean_bound``.  The derived fields
    cannot be set.
    Instances compare and hash by identity.
    """

    matrix: np.ndarray
    kind: str = "custom"
    right_inverse: np.ndarray = field(init=False, repr=False)
    null_basis: np.ndarray = field(init=False, repr=False)
    inverse_is_identity: bool = field(init=False, repr=False)
    spectral_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        L = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", L)
        if L.ndim != 2 or not 1 <= L.shape[0] <= L.shape[1]:
            raise DimensionMismatch(f"scaling matrix needs 1 <= p <= n, got {L.shape}")
        if not np.isfinite(L).all():
            raise NonFiniteInput("scaling matrix L has a NaN or infinite entry")
        p = L.shape[0]
        W, R = np.linalg.qr(L.T, mode="complete")
        R_L = R[:p]
        s = scipy.linalg.svdvals(R_L)
        if s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]:
            raise RankDeficientL(f"scaling matrix has numerical rank below {p}")
        right_inverse = scipy.linalg.solve_triangular(R_L, W[:, :p].T).T
        object.__setattr__(self, "right_inverse", right_inverse)
        object.__setattr__(self, "null_basis", W[:, p:])
        object.__setattr__(self, "inverse_is_identity", np.array_equal(right_inverse, np.eye(p)))
        object.__setattr__(self, "spectral_norm", float(s[0]))

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def identity(n: int) -> ScalingOperator:
    """Identity scaling (p = n); the induced seminorm is the Euclidean norm."""
    if n < 1:
        raise DimensionTooSmall("identity scaling needs n >= 1")
    return ScalingOperator(np.eye(n), kind="identity")


def first_difference(n: int) -> ScalingOperator:
    """Forward-difference stencil (-1, 1); p = n - 1, null space = constants."""
    if n < 2:
        raise DimensionTooSmall("first-difference scaling needs n >= 2")
    L = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    L[idx, idx] = -1.0
    L[idx, idx + 1] = 1.0
    return ScalingOperator(L, kind="first-difference")


def second_difference(n: int) -> ScalingOperator:
    """Stencil (1, -2, 1); p = n - 2, null space = affine vectors."""
    if n < 3:
        raise DimensionTooSmall("second-difference scaling needs n >= 3")
    L = np.zeros((n - 2, n))
    idx = np.arange(n - 2)
    L[idx, idx] = 1.0
    L[idx, idx + 1] = -2.0
    L[idx, idx + 2] = 1.0
    return ScalingOperator(L, kind="second-difference")


def from_matrix(matrix) -> ScalingOperator:
    """Wrap a user-supplied matrix; a 1-D input is read as a single row."""
    return ScalingOperator(np.atleast_2d(matrix))


def from_spec(spec: str, n: int) -> ScalingOperator:
    """Build a scaling operator from a CLI-style spec string.

    Accepted values: ``identity``, ``d1``, ``d2`` and ``file:<path>`` pointing
    to a whitespace-delimited matrix with n columns.
    """
    if spec == "identity":
        return identity(n)
    if spec in ("d1", "first-difference"):
        return first_difference(n)
    if spec in ("d2", "second-difference"):
        return second_difference(n)
    if spec.startswith("file:"):
        M = np.loadtxt(spec[5:], ndmin=2)
        if M.shape[1] != n:
            raise DimensionMismatch(
                f"scaling matrix has {M.shape[1]} columns, problem has n={n}"
            )
        return from_matrix(M)
    raise ValueError(
        f"unknown scaling spec {spec!r}; use identity, d1, d2 or file:<path>"
    )


#: Below this sum of squares ``euclidean_norm`` takes nrm2.  Squares of
#: entries below about 1e-154 are subnormal or zero, each off by at most
#: 2^-1074, which against a sum of at least 1e-290 is far below an ulp.
_TINY_SQUARE = 1e-290


def euclidean_norm(v: np.ndarray) -> float:
    """Return ``np.linalg.norm(v)`` of a float array, bit for bit, where its square is safe.

    It takes the same steps, the square root of BLAS ``ddot`` of
    ``v.ravel(order="K")`` with itself, without the general function's
    dispatch, which dominates its cost on the short vectors of the hot paths.
    Where the square overflows (entries beyond about 1e154) or falls below
    ``_TINY_SQUARE`` (where the squares of small entries underflow) it
    returns ``frobenius(v)`` instead: nrm2 scales as it sums, so the norm
    neither overflows nor underflows, and no RuntimeWarning is raised.  An
    empty ``v`` gives 0.0.
    """
    v = v.ravel(order="K")
    if v.size == 0:
        return 0.0
    square = scipy.linalg.blas.ddot(v, v)
    return math.sqrt(square) if _TINY_SQUARE <= square < math.inf else frobenius(v)


def frobenius(M: np.ndarray) -> float:
    """Return ||M||_F from BLAS nrm2, summed in M's memory order.

    nrm2 scales as it sums, so entries near 1e200 or 1e-200 neither overflow
    nor underflow, as squaring them in ``np.linalg.norm`` would, and it
    passes a NaN or infinite entry on.  An empty ``M`` gives 0.0.
    """
    v = np.ravel(M, order="K")
    return scipy.linalg.blas.dnrm2(v) if v.size else 0.0


def seminorm(L: ScalingOperator, v) -> float:
    """Return ``||L v||_2``; zero exactly on the null space of L."""
    v = np.asarray(v, dtype=float)
    if v.shape != (L.n,):
        raise DimensionMismatch(f"expected vector of length {L.n}, got shape {v.shape}")
    return euclidean_norm(L.matrix @ v)
