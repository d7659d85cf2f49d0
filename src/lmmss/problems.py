"""Bundled zero-residual inverse problems and exact-norm noise injection.

All bundled instances are square (m = n) desk-scale discretizations chosen
so that the solver's working assumptions (joint rank of Jacobian and
scaling, tangential-cone bound, closeness of the initial guess) can be
checked empirically: a linear smoothing operator, an autoconvolution map,
and a 1-D conductivity identification problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    EvaluationFailure,
    NegativeDelta,
    NonFiniteInput,
    NonpositiveCoefficient,
)
from .scaling import euclidean_norm

#: Positivity floor for nodal conductivities.
A_MIN = 1e-6


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box used as a domain hint by sampling-based diagnostics."""

    lower: np.ndarray
    upper: np.ndarray

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lower).all() and (x <= self.upper).all())


@dataclass(frozen=True, eq=False)
class InverseProblem:
    """A forward map with Jacobian, exact data, and optional exact solution.

    ``m`` is the length of the 1-D ``y_exact``, at least n; a forward map of
    another length fails at its first ``evaluate_F``.  ``y_exact`` and
    ``x_dagger`` must be finite (NonFiniteInput otherwise).  When an exact
    solution ``x_dagger`` is supplied it must reproduce ``y_exact`` to within
    ``1e-10 * (1 + ||y_exact||)`` (zero-residual setting); a NaN residual
    fails this check.  ``eval_jvp(x, v)``, when given, returns the product
    ``J(x) v`` without forming J; without it ``evaluate_jvp`` multiplies by
    ``evaluate_J(x)``.  Instances compare and hash by identity.
    """

    name: str
    eval_F: Callable
    eval_J: Callable
    n: int
    y_exact: np.ndarray
    x_dagger: np.ndarray | None = None
    domain_hint: Box | None = None
    x0_default: np.ndarray | None = None
    eval_jvp: Callable | None = None

    def __post_init__(self):
        if np.ndim(self.y_exact) != 1:
            raise DimensionMismatch(f"y_exact must be 1-D, got shape {np.shape(self.y_exact)}")
        if self.m < self.n:
            raise DimensionMismatch(f"need m >= n, got m={self.m}, n={self.n}")
        for name, value in (("y_exact", self.y_exact), ("x_dagger", self.x_dagger)):
            if value is not None and not np.isfinite(value).all():
                raise NonFiniteInput(f"{name} has a NaN or infinite entry")
        if self.x_dagger is not None:
            gap = euclidean_norm(self.eval_F(self.x_dagger) - self.y_exact)
            if not gap <= 1e-10 * (1.0 + euclidean_norm(np.asarray(self.y_exact, dtype=float))):
                raise ValueError(
                    f"x_dagger is not a zero-residual solution (gap {gap:.3e})"
                )

    @property
    def m(self) -> int:
        return len(self.y_exact)

    def evaluate_F(self, x) -> np.ndarray:
        """Evaluate the forward map, guarding shape and finiteness."""
        return self._evaluate(self.eval_F, x, (self.m,), "forward map")

    def evaluate_J(self, x) -> np.ndarray:
        """Evaluate the Jacobian, guarding shape and finiteness."""
        return self._evaluate(self.eval_J, x, (self.m, self.n), "Jacobian evaluation")

    def evaluate_jvp(self, x, v) -> np.ndarray:
        """Evaluate J(x) v under the guards of evaluate_F; ``evaluate_J(x) @ v`` without a hook."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise DimensionMismatch(f"v has shape {v.shape}, expected ({self.n},)")
        fn = self.eval_jvp if self.eval_jvp is not None else self._dense_jvp
        return self._evaluate(fn, x, (self.m,), "Jacobian-vector product", v)

    def _dense_jvp(self, x, v) -> np.ndarray:
        return self.evaluate_J(x) @ v

    def _evaluate(self, fn, x, shape, what, *args) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"x has shape {x.shape}, expected ({self.n},)")
        try:
            out = np.asarray(fn(x, *args), dtype=float)
        except EvaluationFailure:
            raise
        except Exception as exc:
            raise EvaluationFailure(f"{what} failed: {exc}") from exc
        if out.shape != shape:
            raise EvaluationFailure(f"{what} returned shape {out.shape}, expected {shape}")
        if not np.isfinite(out).all():
            raise EvaluationFailure(f"{what} returned non-finite values")
        return out


@dataclass(frozen=True, eq=False)
class NoisyData:
    """Perturbed data with ``||y_exact - y_delta|| = delta`` exactly.

    ``delta`` must be finite (NonFiniteInput) and nonnegative (NegativeDelta),
    and ``y_delta`` a 1-D (DimensionMismatch), finite (NonFiniteInput) array.
    """

    y_delta: np.ndarray
    delta: float
    seed: int

    def __post_init__(self):
        if not np.isfinite(self.delta):
            raise NonFiniteInput(f"delta must be finite, got {self.delta}")
        if self.delta < 0.0:
            raise NegativeDelta(f"delta must be nonnegative, got {self.delta}")
        y = np.asarray(self.y_delta, dtype=float)
        object.__setattr__(self, "y_delta", y)
        if y.ndim != 1:
            raise DimensionMismatch(f"y_delta must be 1-D, got shape {y.shape}")
        if not np.isfinite(y).all():
            raise NonFiniteInput("y_delta has a NaN or infinite entry")


def make_noisy_data(y, delta: float, seed: int = 0) -> NoisyData:
    """Perturb y by exactly ``delta`` along a seeded unit direction.

    The direction is a standard normal draw from ``default_rng(seed)``,
    normalized, so the same (len(y), seed) always gives the same direction.
    """
    y = np.asarray(y, dtype=float)
    u = np.random.default_rng(int(seed)).standard_normal(y.size)
    u /= euclidean_norm(u)
    return NoisyData(y_delta=y + delta * u, delta=float(delta), seed=int(seed))


def _linear_problem(name: str, A: np.ndarray, y, x_dagger) -> InverseProblem:
    """The linear forward map F(x) = A x, with J = A and J v = A v, started from x0 = 0."""
    return InverseProblem(
        name=name,
        eval_F=lambda x: A @ x,
        eval_J=lambda x: A,
        n=A.shape[1],
        y_exact=y,
        x_dagger=x_dagger,
        x0_default=np.zeros(A.shape[1]),
        eval_jvp=lambda x, v: A @ v,
    )


def problem_linear_illposed(n: int) -> InverseProblem:
    """Discretized smoothing operator: the Gram matrix of a Gaussian kernel.

    The forward map is linear, F(x) = A x, with A built from the kernel
    ``exp(-((t_i - t_j) / w)^2 / 2)``, width w = 0.06, scaled by the grid
    spacing.  Its
    spectrum decays rapidly, so the condition number grows quickly with n.
    The exact profile is ``sin(pi t)``.
    """
    if n < 4:
        raise DimensionTooSmall("linear problem needs n >= 4")
    t = (np.arange(n) + 0.5) / n
    A = (1.0 / n) * np.exp(-0.5 * ((t[:, None] - t[None, :]) / 0.06) ** 2)
    x_dag = np.sin(np.pi * t)
    return _linear_problem("linear", A, A @ x_dag, x_dag)


def problem_autoconvolution(n: int) -> InverseProblem:
    """Autoconvolution on (0, 1]: trapezoid rule for ``int_0^t x(t-s) x(s) ds``.

    The unknown lives on the grid ``t_i = i/n``; the boundary value x(0) is
    pinned to 1 (the exact profile ``1 + sin(2 pi t)`` attains it), which the
    trapezoid endpoints require.  The map is quadratic in x with an analytic
    lower-triangular Jacobian, ``h bc I`` plus ``h`` times the strictly lower
    Toeplitz matrix of ``2 x``; its product with v is one more convolution.
    """
    if n < 8:
        raise DimensionTooSmall("autoconvolution problem needs n >= 8")
    h = 1.0 / n
    t = np.arange(1, n + 1) * h
    bc = 1.0
    # J[i, j] = h * col[i - j] below the diagonal; the lag is clipped at 0 and
    # col[0] = 0, which fills the diagonal and above.
    lag = np.maximum(np.subtract.outer(np.arange(n), np.arange(n)), 0)
    diagonal = (h * bc) * np.eye(n)

    def eval_F(x):
        F = (h * bc) * x
        F[1:] += h * np.convolve(x, x)[: n - 1]
        return F

    def eval_J(x):
        col = np.concatenate(([0.0], 2.0 * x[: n - 1]))
        return h * col[lag] + diagonal

    def eval_jvp(x, v):
        Jv = (h * bc) * v
        Jv[1:] += (2.0 * h) * np.convolve(x, v)[: n - 1]
        return Jv

    x_dag = 1.0 + np.sin(2.0 * np.pi * t)
    return InverseProblem(
        name="autoconvolution",
        eval_F=eval_F,
        eval_J=eval_J,
        n=n,
        y_exact=eval_F(x_dag),
        x_dagger=x_dag,
        x0_default=np.ones(n),
        eval_jvp=eval_jvp,
    )


def _conductivity_halfpoints(a: np.ndarray) -> np.ndarray:
    # Flux-point values by averaging along the first axis, with constant
    # extension at the boundary.
    am = np.empty((len(a) + 1,) + a.shape[1:])
    am[0] = a[0]
    am[-1] = a[-1]
    am[1:-1] = 0.5 * (a[:-1] + a[1:])
    return am


def _resistance_solve(CR: np.ndarray, Rw: np.ndarray) -> np.ndarray:
    # T^-1 diff(w) from the partial sums CR of the resistances and R w
    # (problem_coefficient_identification).
    CRw = Rw.cumsum()
    return CR[:-1] * (CRw[-1] / CR[-1]) - CRw[:-1]


def _conductivity_forward(am: np.ndarray, S: np.ndarray):
    # The resistances R = 1/am, their partial sums and u = T^-1 diff(S).  A
    # NaN or infinite am makes R NaN or 0 and u finite, so it is refused.
    R = 1.0 / am
    if not (R > 0.0).all():
        raise EvaluationFailure("conductivity is NaN or infinite")
    CR = R.cumsum()
    return R, CR, _resistance_solve(CR, R * S)


def problem_coefficient_identification(n: int) -> InverseProblem:
    """Recover a 1-D conductivity profile from interior solution values.

    The steady equation ``-(a u')' = f`` on (0, 1) with homogeneous Dirichlet
    boundary, discretized by finite differences on n interior nodes; the
    unknowns are the nodal conductivities a_i (flux points by averaging,
    constant extension at the boundary).  T = D^T diag(am) D, D the difference
    onto the flux points, so T^-1 diff(w) = cumsum(R * (c - w))[:n] =
    cumsum(R)[:n] c - cumsum(R w)[:n] with the resistances R = 1/am and the
    c = sum(R w) / sum(R) that makes the right boundary value 0.  F, J and
    J v are this one expression, which solves nothing and adds no two
    conductivities.  F takes w = S = [0, cumsum(h^2 f)], so diff(S) = h^2 f.
    The derivative is ``J(a) V = T^-1 diff(flux * halfpoints(V))``, flux the
    differences of u, so ``J v`` takes w = flux * halfpoints(v).  J takes
    V = I, where halfpoints(I) has two nonzeros per column, on the
    diagonal and below it, so the partial sums of R w are known:
    J = outer(cumsum(R)[:n], c) - P, with P_ij = 0 above the diagonal, top_j
    on it and top_j + bottom_j below it, top and bottom the two nonzeros of
    column j of R w.  Column j has the bytes of ``J e_j``.  J is F-ordered,
    the layout LAPACK reads, so ``bidiagonalize`` takes it without a copy.
    The weights of halfpoints(I) and the strictly lower mask (F-ordered like
    J) do not depend on a, so they are built once per problem, read-only.
    Evaluation fails when any a_i drops to the positivity floor ``A_MIN``
    (NonpositiveCoefficient) or is NaN or infinite (EvaluationFailure).

    The source ``f = 4 pi^2 cos(2 pi t)`` makes the flux vanish at the
    boundary, so the solution is least sensitive to boundary-adjacent
    conductivities (the hardest components to recover).
    """
    if n < 8:
        raise DimensionTooSmall("coefficient problem needs n >= 8")
    h = 1.0 / (n + 1)
    t = np.arange(1, n + 1) * h
    f = 4.0 * np.pi**2 * np.cos(2.0 * np.pi * t)
    S = np.concatenate(([0.0], (h * h * f).cumsum()))
    identity_halfpoints = _conductivity_halfpoints(np.eye(n))
    halfpoint_weights = np.stack(
        [identity_halfpoints.diagonal(), identity_halfpoints[1:].diagonal()]
    )
    strictly_lower = np.asfortranarray(np.tri(n, k=-1, dtype=bool))
    halfpoint_weights.flags.writeable = False
    strictly_lower.flags.writeable = False

    def forward(a):
        if (a <= A_MIN).any():
            raise NonpositiveCoefficient(f"conductivity at or below {A_MIN}")
        return _conductivity_forward(_conductivity_halfpoints(a), S)

    def resistances(a):
        # The partial sums of the resistances (the last is sum(R)), and
        # R * flux, flux the differences of u.
        R, CR, u = forward(a)
        flux = np.empty(n + 1)
        flux[0], flux[n] = u[0], -u[-1]
        np.subtract(u[1:], u[:-1], out=flux[1:n])
        return CR, R * flux

    def eval_jvp(a, v):
        CR, Rflux = resistances(a)
        return _resistance_solve(CR, Rflux * _conductivity_halfpoints(v))

    def eval_J(a):
        # Column j of R w is top_j in row j and bottom_j in row j + 1, so every
        # sum eval_jvp(a, e_j) forms adds only zeros to these two: column j
        # has its bytes.
        CR, Rflux = resistances(a)
        top = Rflux[:n] * halfpoint_weights[0]
        below = top + Rflux[1:] * halfpoint_weights[1]
        J = np.empty((n, n), order="F")
        np.multiply(CR[:n, None], below / CR[n], out=J)
        np.subtract(J, below, out=J, where=strictly_lower)
        # a view of J in its own order: ravel() would copy it and drop the update
        J.ravel(order="K")[:: n + 1] -= top
        return J

    a_dag = 1.0 + 0.5 * np.sin(np.pi * t)
    return InverseProblem(
        name="coefficient",
        eval_F=lambda a: forward(a)[2],
        eval_J=eval_J,
        n=n,
        y_exact=forward(a_dag)[2],
        x_dagger=a_dag,
        domain_hint=Box(lower=np.full(n, 0.05), upper=np.full(n, np.inf)),
        x0_default=np.ones(n),
        eval_jvp=eval_jvp,
    )


PROBLEMS = {
    "linear": problem_linear_illposed,
    "autoconvolution": problem_autoconvolution,
    "coefficient": problem_coefficient_identification,
}


def make_problem(name: str, n: int) -> InverseProblem:
    """Instantiate a bundled problem by name."""
    if name not in PROBLEMS:
        known = ", ".join(sorted(PROBLEMS))
        raise ValueError(f"unknown problem {name!r}; available: {known}")
    return PROBLEMS[name](n)


def _load_finite(path, ndmin=0) -> np.ndarray:
    values = np.loadtxt(path, ndmin=ndmin)
    if not np.isfinite(values).all():
        raise NonFiniteInput(f"{path} has a NaN or infinite entry")
    return values


def problem_from_files(matrix_path, rhs_path, solution_path=None) -> InverseProblem:
    """Custom linear problem from whitespace-delimited text files.

    ``matrix_path`` holds the m x n forward matrix (row-major), ``rhs_path``
    the exact data vector; ``solution_path`` optionally supplies an exact
    solution, which must reproduce the data to zero-residual tolerance.  A
    NaN or infinite entry in any of the files is a NonFiniteInput naming it.
    """
    A = _load_finite(matrix_path, ndmin=2)
    y = _load_finite(rhs_path).ravel()
    m, n = A.shape
    if y.shape != (m,):
        raise DimensionMismatch(f"data has length {y.size}, matrix has {m} rows")
    x_dag = None
    if solution_path is not None:
        x_dag = _load_finite(solution_path).ravel()
        if x_dag.shape != (n,):
            raise DimensionMismatch(
                f"solution has length {x_dag.size}, matrix has {n} columns"
            )
    return _linear_problem("custom-linear", A, y, x_dag)
