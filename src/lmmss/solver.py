"""Damped Gauss-Newton iteration with singular scaling.

Each step solves ``(J^T J + lam L^T L) d = -J^T r`` where L may be singular.
The damping parameter lam is chosen so that the linearized residual after
the step equals q times the current residual (the q-condition), which keeps
the iteration regularizing; with noisy data the loop stops at the first
iterate whose residual falls below tau * delta (discrepancy principle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailure,
    DimensionMismatch,
    LmmssError,
    NonpositiveLambda,
    SingularSystem,
    ZeroGradient,
)
from .gsvd import GsvdFactors, generalized_singular_values, gsvd
from .scaling import ScalingOperator, seminorm

#: Relative cutoff for the rank decision inside the stacked least-squares solve.
LSTSQ_RCOND = 1e-12

_SIGMA_ZERO_TOL = 1e-12
_BISECT_MAX_ITER = 60
_BRACKET_LO_FACTOR = 1e-14
_BRACKET_FLOOR_FACTOR = 1e-30


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    ``q`` is the residual contraction target in (0, 1); ``tau`` the
    discrepancy multiplier, constrained to tau > 1/q.  ``res_tol = None``
    resolves to 1e-10 times the initial residual when an exact-data solve
    starts.
    """

    q: float = 0.5
    tau: float = 2.5
    max_iter: int = 500
    lambda_root_tol: float = 1e-10
    grad_tol: float = 1e-12
    res_tol: float | None = None
    lambda_fallback_factor: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if self.tau * self.q <= 1.0:
            raise ValueError(f"need tau > 1/q, got tau={self.tau}, q={self.q}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.lambda_root_tol <= 0.0:
            raise ValueError("lambda_root_tol must be positive")
        if not 0.0 < self.lambda_fallback_factor < 1.0:
            raise ValueError("lambda_fallback_factor must lie in (0, 1)")


@dataclass(frozen=True)
class IterateRecord:
    """State at iterate k plus the step taken from it.

    The terminal record of a run carries only ``k``, ``x`` and ``res_norm``;
    the step fields are None because no step was taken.
    ``lin_res_norm = ||r_k + J_k d_k||`` is the linearized residual at the
    accepted damping parameter.
    """

    k: int
    x: np.ndarray
    res_norm: float
    lam: float | None = None
    zeta_p: float | None = None
    step_Lnorm: float | None = None
    qcond_kind: str | None = None
    lin_res_norm: float | None = None


@dataclass(frozen=True)
class RunRecord:
    """Full trace of a solve plus the stopping index and reason.

    ``trace[k]`` records iterate k; the last entry is the stopped iterate.
    ``zeta_hat`` is the largest per-iteration generalized singular value
    zeta_p encountered before stopping (None when no step was taken).
    """

    trace: tuple[IterateRecord, ...]
    k_star: int
    stop_reason: str
    zeta_hat: float | None
    final_x: np.ndarray
    mode: str
    q: float
    tau: float
    delta: float


def lm_step(J, r, L: ScalingOperator, lam: float) -> np.ndarray:
    """Solve ``(J^T J + lam L^T L) d = -J^T r`` via the stacked system.

    The step is computed as the least-squares solution of
    ``[J; sqrt(lam) L] d = [-r; 0]``, which is unique whenever the
    completeness condition holds at the current point.
    """
    J = np.asarray(J, dtype=float)
    r = np.asarray(r, dtype=float)
    if lam <= 0.0:
        raise NonpositiveLambda(f"lambda must be positive, got {lam}")
    m, n = J.shape
    if r.shape != (m,):
        raise DimensionMismatch(f"residual has shape {r.shape}, expected ({m},)")
    if L.n != n:
        raise DimensionMismatch(f"L has {L.n} columns, J has {n}")
    B = np.vstack([J, np.sqrt(lam) * L.matrix])
    c = np.concatenate([-r, np.zeros(L.p)])
    d, _, rank, _ = np.linalg.lstsq(B, c, rcond=LSTSQ_RCOND)
    if rank < n:
        raise SingularSystem(
            f"stacked system has rank {rank} < {n}; completeness likely violated"
        )
    return d


def lm_step_gsvd(f: GsvdFactors, r, lam: float) -> np.ndarray:
    """Same step computed from the factors of (J, L).

    With w = U^T r the step is ``d = -X diag(g) w`` where
    g_i = sigma_i / (sigma_i^2 + lam mu_i^2) on the leading p entries and 1
    on the trailing block.
    """
    if lam <= 0.0:
        raise NonpositiveLambda(f"lambda must be positive, got {lam}")
    r = np.asarray(r, dtype=float)
    if r.shape != (f.m,):
        raise DimensionMismatch(f"residual has shape {r.shape}, expected ({f.m},)")
    w = f.U.T @ r
    filt = np.ones(f.n)
    filt[: f.p] = f.sigma / (f.sigma**2 + lam * f.mu**2)
    return -(f.X @ (filt * w))


def qcond_residual(J, L, r, lam: float) -> float:
    """Evaluate ``||r + J d(lam)||`` directly.

    ``L`` may be a ScalingOperator (the step is recomputed by least squares)
    or precomputed GsvdFactors of the pair (J, L).  The value is
    nondecreasing in lam, strictly so when J^T r != 0 and some sigma_i > 0.
    """
    J = np.asarray(J, dtype=float)
    if isinstance(L, GsvdFactors):
        d = lm_step_gsvd(L, r, lam)
    else:
        d = lm_step(J, r, L, lam)
    return float(np.linalg.norm(np.asarray(r, dtype=float) + J @ d))


def _limit_residual(factors: GsvdFactors, r, rnorm: float) -> float:
    """Limit of the q-condition residual as lam -> 0+.

    Equals the norm of the projection of r onto the orthogonal complement of
    range(J): components on numerically zero sigma directions plus the part
    of r outside the span of U.
    """
    w = factors.U.T @ r
    dead = factors.sigma <= _SIGMA_ZERO_TOL
    val = float(np.sum(w[: factors.p][dead] ** 2))
    val += max(rnorm**2 - float(w @ w), 0.0)
    return float(np.sqrt(max(val, 0.0)))


def select_lambda_q(J, L, r, q: float, cfg: SolverConfig, factors=None):
    """Choose the damping parameter from the q-condition.

    When ``||r + J d(lam)|| = q ||r||`` admits a root inside the admissible
    interval ``(0, q/(1-q) zeta_p^2]`` it is found by bisection on
    log10(lam) over ``(1e-14 zeta_p^2, q/(1-q) zeta_p^2 (1 + tol)]`` and the
    kind tag is ``"equality"``.  Otherwise a fixed fraction of the interval
    upper bound is returned with kind ``"inequality-fallback"``.  Two
    regimes lack a root: the residual may exceed the target for every lam
    (its lam -> 0 limit, the projection onto the complement of range(J),
    is already above the target), or it may stay below the target even at
    the interval top, because components of r along the image of the
    undamped null space of L are removed regardless of lam.

    Returns
    -------
    (lam, kind) : (float, str)
    """
    J = np.asarray(J, dtype=float)
    r = np.asarray(r, dtype=float)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if np.linalg.norm(J.T @ r) == 0.0:
        raise ZeroGradient("J^T r = 0: the step is zero for every lambda")
    if factors is None:
        factors = gsvd(J, L)
    zeta_p = float(factors.sigma[-1] / factors.mu[-1])
    if zeta_p == 0.0:
        raise BracketFailure(
            "all generalized singular values vanish; the admissible interval is empty"
        )
    rnorm = float(np.linalg.norm(r))
    target = q * rnorm
    rtol = cfg.lambda_root_tol
    bound = q / (1.0 - q) * zeta_p**2

    def omega(lam):
        return qcond_residual(J, factors, r, lam)

    lam_hi = bound * (1.0 + rtol)
    val_hi = omega(lam_hi)
    if abs(val_hi - target) <= rtol * rnorm:
        return lam_hi, "equality"
    if val_hi < target or _limit_residual(factors, r, rnorm) >= target:
        return cfg.lambda_fallback_factor * bound, "inequality-fallback"

    # The default low end covers every regular spectrum; extend it when the
    # root sits below (clusters of tiny sigma_i).
    lam_lo = _BRACKET_LO_FACTOR * zeta_p**2
    val_lo = omega(lam_lo)
    while val_lo > target and lam_lo > _BRACKET_FLOOR_FACTOR * zeta_p**2:
        lam_lo *= 1e-8
        val_lo = omega(lam_lo)
    if abs(val_lo - target) <= rtol * rnorm:
        return lam_lo, "equality"
    if val_lo > target:
        raise BracketFailure(
            "residual exceeds the target even for vanishing damping"
        )

    lo, hi = np.log10(lam_lo), np.log10(lam_hi)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        lam = 10.0**mid
        val = omega(lam)
        if abs(val - target) <= rtol * rnorm:
            return lam, "equality"
        if val < target:
            lo = mid
        else:
            hi = mid
    raise BracketFailure(
        "bisection did not reach the q-condition tolerance; monotonicity is "
        "likely lost to ill-conditioning"
    )


def discrepancy_reached(res_norm: float, tau: float, delta: float) -> bool:
    """True when ``res_norm <= tau * delta``."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return res_norm <= tau * delta


def solve(problem, data, L: ScalingOperator, x0, cfg: SolverConfig) -> RunRecord:
    """Run the damped iteration from x0 until a stopping rule fires.

    Parameters
    ----------
    problem : InverseProblem
    data : NoisyData or None
        None (or delta == 0) selects exact mode: stop once the residual
        falls below ``res_tol`` or the gradient norm below ``grad_tol``.
        Positive delta selects noisy mode with the discrepancy rule
        ``||F_k - y_delta|| <= tau * delta``.
    L : ScalingOperator
    x0 : array
    cfg : SolverConfig

    Stop reasons: ``discrepancy``, ``res_tol``, ``grad_tol``, ``max_iter``,
    ``qcond_unsolvable_hard`` (J^T r = 0 at a nonzero residual).  An
    LmmssError from a step's factorization or damping selection (e.g.
    CompletenessViolated, BracketFailure) is re-raised as the same type with
    the message prefixed by ``iterate k:``.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({problem.n},)")
    noisy = data is not None and data.delta > 0.0
    y = problem.y_exact if data is None else data.y_delta
    delta = 0.0 if data is None else float(data.delta)
    res_tol = cfg.res_tol

    trace: list[IterateRecord] = []
    stop = None
    res = np.inf
    for k in range(cfg.max_iter + 1):
        r = problem.evaluate_F(x) - y
        res = float(np.linalg.norm(r))
        if res_tol is None:
            res_tol = 1e-10 * res
        if noisy and discrepancy_reached(res, cfg.tau, delta):
            stop = "discrepancy"
            break
        if not noisy and res <= res_tol:
            stop = "res_tol"
            break
        J = problem.evaluate_J(x)
        gnorm = float(np.linalg.norm(J.T @ r))
        if not noisy and gnorm <= cfg.grad_tol:
            stop = "grad_tol"
            break
        if gnorm == 0.0:
            stop = "qcond_unsolvable_hard"
            break
        if k == cfg.max_iter:
            stop = "max_iter"
            break
        try:
            factors = gsvd(J, L)
            lam, kind = select_lambda_q(J, L, r, cfg.q, cfg, factors=factors)
        except LmmssError as exc:
            raise type(exc)(f"iterate {k}: {exc}") from exc
        zeta_p = float(generalized_singular_values(factors)[-1])
        d = lm_step_gsvd(factors, r, lam)
        lin_res = float(np.linalg.norm(r + J @ d))
        trace.append(
            IterateRecord(
                k=k,
                x=x.copy(),
                res_norm=res,
                lam=float(lam),
                zeta_p=zeta_p,
                step_Lnorm=seminorm(L, d),
                qcond_kind=kind,
                lin_res_norm=lin_res,
            )
        )
        x = x + d

    trace.append(IterateRecord(k=len(trace), x=x.copy(), res_norm=res))
    zetas = [rec.zeta_p for rec in trace if rec.zeta_p is not None]
    return RunRecord(
        trace=tuple(trace),
        k_star=len(trace) - 1,
        stop_reason=stop,
        zeta_hat=max(zetas) if zetas else None,
        final_x=x.copy(),
        mode="noisy" if noisy else "exact",
        q=cfg.q,
        tau=cfg.tau,
        delta=delta,
    )
