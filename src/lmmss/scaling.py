"""Scaling operators for seminorm regularization and the completeness rule.

A scaling operator is a p-by-n matrix L with full row rank, 1 <= p <= n.  It
induces the seminorm ``||v||_L = ||L v||_2``, which vanishes exactly on the
null space of L.  Singular choices (p < n) penalize only selected solution
components, e.g. non-smooth ones for difference stencils.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DimensionTooSmall, NonFiniteInput, RankDeficientL

#: Relative threshold for the rank decision on L.
RANK_RTOL = 1e-12


@dataclass(frozen=True)
class ScalingOperator:
    """A p-by-n scaling matrix together with a tag naming its construction.

    Construction checks ``1 <= p <= n`` (DimensionMismatch), finite entries
    (NonFiniteInput) and full row rank (RankDeficientL) once, so no consumer
    needs to check them again.  The rank check reads the singular values of
    one full SVD ``L = U_L [S 0] [K_p K_0]^T``.  Since L stays fixed while
    the Jacobian changes, the factors ``gsvd`` needs at every step are kept
    from that SVD: ``U_L``, ``K_p S^-1`` (a right inverse of L), the
    null-space basis ``K_0`` (n x (n - p)) and ``||L||_F``.
    """

    matrix: np.ndarray
    kind: str = "custom"
    _u: np.ndarray = field(init=False, repr=False, compare=False)
    _kp_sinv: np.ndarray = field(init=False, repr=False, compare=False)
    _k0: np.ndarray = field(init=False, repr=False, compare=False)
    _fro: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", L)
        if L.ndim != 2 or not 1 <= L.shape[0] <= L.shape[1]:
            raise DimensionMismatch(f"scaling matrix needs 1 <= p <= n, got {L.shape}")
        if not np.isfinite(L).all():
            raise NonFiniteInput("scaling matrix L has a NaN or infinite entry")
        u, s, kt = np.linalg.svd(L)
        if s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]:
            raise RankDeficientL(f"scaling matrix has numerical rank below {L.shape[0]}")
        p = L.shape[0]
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_kp_sinv", kt[:p].T / s)
        object.__setattr__(self, "_k0", kt[p:].T)
        object.__setattr__(self, "_fro", float(np.linalg.norm(L)))

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


def seminorm(L: ScalingOperator, v) -> float:
    """Return ``||L v||_2``; zero exactly on the null space of L."""
    v = np.asarray(v, dtype=float)
    if v.shape != (L.n,):
        raise DimensionMismatch(f"expected vector of length {L.n}, got shape {v.shape}")
    return float(np.linalg.norm(L.matrix @ v))


def completeness_holds(s) -> bool:
    """The completeness rule on the singular values ``s`` of [J; L], largest first.

    N(J) ∩ N(L) = {0} numerically when s_min^2 (the smallest eigenvalue of
    J^T J + L^T L) exceeds 1e-10 (1 + 2 s_max^2) >= 1e-10 (1 + ||J||^2 + ||L||^2).
    """
    return bool(s[-1] ** 2 > 1e-10 * (1.0 + 2.0 * s[0] ** 2))


@dataclass(frozen=True)
class CompletenessReport:
    """Smallest eigenvalue of J^T J + L^T L and whether it clears the floor.

    ``holds`` is equivalent (numerically) to N(J) and N(L) intersecting only
    at the origin, which makes J^T J + lam L^T L positive definite for every
    lam > 0.
    """

    gamma: float
    holds: bool
    point: np.ndarray | None = None


def completeness_check(J, L: ScalingOperator, point=None) -> CompletenessReport:
    """Check ``completeness_holds`` by one SVD of [J; L]; ``gamma = s_min^2``."""
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[1] != L.n:
        raise DimensionMismatch(
            f"J must be m x {L.n}, got shape {J.shape}"
        )
    s = np.linalg.svd(np.vstack([J, L.matrix]), compute_uv=False)
    if s.size < L.n:  # fewer rows than unknowns: the null spaces must meet
        s = np.append(s, 0.0)
    gamma = float(s[-1]) ** 2
    return CompletenessReport(gamma=gamma, holds=completeness_holds(s), point=point)
