"""Damped Gauss-Newton iteration with singular scaling.

Each step solves ``(J^T J + lam L^T L) d = -J^T r`` where L may be singular.
The damping parameter lam is chosen so that the linearized residual after
the step equals q times the current residual (the q-condition), which keeps
the iteration regularizing; with noisy data the loop stops at the first
iterate whose residual falls below tau * delta (discrepancy principle).

Each step's damping search and step come from one factorization of (J, L),
which splits the residual once (``split(r)``) and answers ``zeta_p``, the
omega kernel's values and ``step(r, lam)``: at n >= 34 a Householder
bidiagonalization of the standard-form operator of each new Jacobian
(``bidiagonalize``), which forms neither singular vectors nor singular
values beyond the largest, and ``gsvd`` below that n and for a Jacobian
factored a second time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailure,
    DimensionMismatch,
    LmmssError,
    NonFiniteInput,
    NonpositiveLambda,
    ZeroGradient,
)
from .gsvd import BidiagonalFactors, GsvdFactors, bidiagonalize, gsvd
from .scaling import ScalingOperator, euclidean_norm, seminorm

_SEARCH_MAX_ITER = 60
_BRACKET_LO_FACTOR = 1e-14

#: From this n on, ``solve`` factors each new Jacobian by ``bidiagonalize``
#: instead of ``gsvd``, for every scaling.  One step on a new Jacobian
#: (factor, damping search, step) at J(x0) of the three bundled problems with
#: identity, d1 and d2 (2-vCPU Xeon, one BLAS thread, numpy 2.4.6 / scipy
#: 1.17.1) takes on the bidiagonal route 0.86-1.18 times gsvd's time at
#: n = 32, 0.87-1.02 at n = 33, 0.84-0.96 at n = 34 and 0.71-0.91 at n = 36;
#: for the coefficient problem, ``gsvd`` against ``bidiagonalize``, n = 48
#: 0.52-0.79 / 0.43-0.47 ms and n = 128 3.0-3.2 / 1.2-1.4 ms.  So one
#: crossover serves every L.  On factors kept for an unchanged J a step costs
#: 42-74 us with ``gsvd``'s U against 143-192 us on the bidiagonal (linear
#: problem, n = 48-128), and one ``gsvd`` 0.5-0.9 ms at n = 48-64 and
#: 1.8-2.8 ms at n = 128.  So a J that recurs, as a linear map's does, is
#: factored once more, by ``gsvd``: summed over delta = 1e-2 ... 1e-5 (k* 4-21)
#: linear solves take 9-13% less time with it at n = 96-112 and up to 35% less
#: at n = 48-64 (k* >= 9), and at n = 128 it breaks even at about k* = 15.
_BIDIAG_MIN_N = 34

Factors = GsvdFactors | BidiagonalFactors


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    ``q`` is the residual contraction target in (0, 1); ``tau`` the
    discrepancy multiplier, constrained to tau > 1/q.  ``res_tol = None``
    resolves to 1e-10 times the initial residual when an exact-data solve
    starts.  Every field is checked here, once (ValueError), so ``solve``
    trusts them.  The command line's ``[solver]`` section is this class,
    field by field and in order.
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
        if not 1.0 < self.tau * self.q < np.inf:
            raise ValueError(f"need finite tau > 1/q, got tau={self.tau}, q={self.q}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter}")
        if not 0.0 < self.lambda_root_tol < np.inf:
            raise ValueError(f"lambda_root_tol must be finite and > 0, got {self.lambda_root_tol}")
        if not np.isfinite(self.grad_tol):
            raise ValueError(f"grad_tol must be finite, got {self.grad_tol}")
        if self.res_tol is not None and not 0.0 <= self.res_tol < np.inf:
            raise ValueError(f"res_tol must be finite and nonnegative, got {self.res_tol}")
        if not 0.0 < self.lambda_fallback_factor < 1.0:
            raise ValueError("lambda_fallback_factor must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class IterateRecord:
    """State at iterate k plus the step taken from it.

    The terminal record of a run carries only ``k``, ``x`` and ``res_norm``;
    the step fields are None because no step was taken.
    ``lin_res_norm = ||r_k + J_k d_k||`` is the linearized residual at the
    accepted damping parameter, and ``omega_evals`` the number of q-condition
    residual evaluations the damping search spent on the step.
    """

    k: int
    x: np.ndarray
    res_norm: float
    lam: float | None = None
    zeta_p: float | None = None
    step_Lnorm: float | None = None
    qcond_kind: str | None = None
    lin_res_norm: float | None = None
    omega_evals: int | None = None


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Full trace of a solve plus its stop reason and noise level.

    ``trace[k]`` records iterate k; the last entry is the stopped iterate,
    whose x is ``final_x``.  Everything else is read off the trace and delta:
    the stopping index ``k_star``, ``zeta_hat`` (the largest per-iteration
    generalized singular value zeta_p before stopping, None when no step was
    taken) and ``mode`` (``"noisy"`` when delta > 0, else ``"exact"``).
    """

    trace: tuple[IterateRecord, ...]
    stop_reason: str
    final_x: np.ndarray
    delta: float

    @property
    def k_star(self) -> int:
        return len(self.trace) - 1

    @property
    def zeta_hat(self) -> float | None:
        return max((rec.zeta_p for rec in self.trace if rec.zeta_p is not None), default=None)

    @property
    def mode(self) -> str:
        return "noisy" if self.delta > 0.0 else "exact"


def lm_step_gsvd(f: Factors, r, lam: float) -> np.ndarray:
    """Solve ``(J^T J + lam L^T L) d = -J^T r`` from the factors of (J, L).

    The factors' ``step`` solves it: from U^T r and X for ``gsvd`` factors,
    from the bidiagonal B for ``bidiagonalize`` ones.
    """
    if not 0.0 < lam < np.inf:
        raise NonpositiveLambda(f"lambda must be positive and finite, got {lam}")
    r = np.asarray(r, dtype=float)
    if r.shape != (f.m,):
        raise DimensionMismatch(f"residual has shape {r.shape}, expected ({f.m},)")
    return f.step(r, lam)


def _omega_kernel(f: Factors, r: np.ndarray):
    """Return ``lam -> ||r + J d(lam)||`` evaluated from the factors of (J, L).

    ``f.split(r)`` supplies what the kernel reads: rho_perp, the part of r
    that no step removes; whether J^T r = 0, on which it raises ZeroGradient;
    and, at each lam, gamma = ||r + J d(lam)|| projected off that part and
    the slope below.  The linearized residual is hypot(rho_perp, gamma).
    Neither d nor J d is formed: gsvd's factors give gamma as a spectral sum
    over w = U^T r in O(p), bidiagonal ones from one O(p) tridiagonal solve
    on B, and one more for the slope.

    Called as ``omega(lam, target)`` it returns ``(omega(lam), lam_newton)``,
    where ``lam_newton`` is the Newton iterate toward ``omega = target`` on
    the secular equation in Moré–Sorensen's reciprocal form: with nu = 1/lam,
    gamma(nu)^2 = omega^2 - rho_perp^2 = sum w_i^2 / (1 + zeta_i^2 nu)^2 in
    the pair's GSVD, and ``psi(nu) = 1/gamma(nu) - 1/sqrt(target^2 -
    rho_perp^2)`` is increasing and (by Cauchy-Schwarz) concave, so Newton
    from a point where omega > target never passes the root and converges
    monotonically.  The slope is -(dgamma/dnu) / (lam gamma).  ``target``
    must exceed rho_perp.  Where omega is flat in lam (gamma = 0, or r + J d
    moving only along directions with zeta_i = 0) there is no Newton
    iterate, and ``lam_newton`` is NaN.
    """
    split = f.split(r)
    if split.gradient_vanishes:
        raise ZeroGradient("J^T r = 0: the step is zero for every lambda")
    rho_perp = split.rho_perp

    def omega(lam, target=None):
        gamma, slope = split.secular(lam, newton=target is not None)
        val = float(np.hypot(rho_perp, gamma))
        if target is None:
            return val
        # dgamma/dnu = -lam gamma slope, so the Newton iterate on psi is
        # nu + (gamma/Delta - 1) / (lam slope) with Delta^2 = target^2 - rho_perp^2
        if slope == 0.0:  # omega is flat in lam here, so there is no Newton iterate
            return val, np.nan
        ratio = gamma / np.sqrt((target - rho_perp) * (target + rho_perp))
        return val, float(lam / (1.0 + (ratio - 1.0) / slope))

    return omega


def select_lambda_q(factors: Factors, r, q: float, cfg: SolverConfig):
    """Choose the damping parameter from the q-condition.

    ``omega(lam) = ||r + J d(lam)||``, nondecreasing in lam, is evaluated
    from ``factors`` of (J, L), in O(p) per call (``_omega_kernel``: a
    spectral sum on gsvd's factors, one or two tridiagonal solves on
    bidiagonal ones) and never twice at one lam.  The search bracket is
    ``[1e-14 zeta_p^2, q/(1-q) zeta_p^2 (1 + tol)]`` with the factors'
    ``zeta_p``: sigma_p / mu_p of gsvd's, the largest singular value of B by
    bisection for bidiagonal ones.  The floor comes first:
    omega within the tolerance of the target ``q ||r||`` there is an
    ``"equality"``, and omega at or above the target returns a fixed fraction
    of the interval upper bound with kind ``"inequality-fallback"`` (the
    residual on directions with zeta_i below about 1e-7 zeta_p counts as
    unremovable).  Otherwise the target exceeds omega(floor) >= rho_perp, the
    residual outside range(U), so the secular equation in Moré–Sorensen's
    reciprocal form is defined, and a safeguarded Newton iteration on it
    starts at the top.  A top within the tolerance is an equality; a top
    below the target falls back (components of r along the image of the
    undamped null space of L are removed regardless of lam).  Otherwise each
    evaluation shrinks the bracket, a Newton iterate outside it is replaced
    by one bisection step on log(lam), and the root found is an equality.

    Returns
    -------
    (lam, kind, evals) : (float, str, int)
        ``evals`` counts the omega evaluations: 1 when the floor decides, 2
        when the top does, plus one per iterate after the top (at most 60).

    Raises DimensionMismatch for a residual whose shape is not (m,),
    NonFiniteInput for one whose norm is not finite, ZeroGradient when
    J^T r = 0, and BracketFailure when every zeta_i vanishes or the search
    misses the tolerance within its iteration cap.
    """
    r = np.asarray(r, dtype=float)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if r.shape != (factors.m,):
        raise DimensionMismatch(f"residual has shape {r.shape}, expected ({factors.m},)")
    rnorm = euclidean_norm(r)
    if not math.isfinite(rnorm):
        raise NonFiniteInput(f"the residual norm is {rnorm}: a NaN or infinite entry, or overflow")
    omega = _omega_kernel(factors, r)
    zeta_p = factors.zeta_p
    if zeta_p == 0.0:
        raise BracketFailure(
            "all generalized singular values vanish; the admissible interval is empty"
        )
    target, tol = q * rnorm, cfg.lambda_root_tol * rnorm
    bound = q / (1.0 - q) * zeta_p**2

    lo = _BRACKET_LO_FACTOR * zeta_p**2
    val = omega(lo)
    if abs(val - target) <= tol:
        return lo, "equality", 1
    if val >= target:
        return cfg.lambda_fallback_factor * bound, "inequality-fallback", 1

    lam = hi = bound * (1.0 + cfg.lambda_root_tol)
    for evals in range(2, _SEARCH_MAX_ITER + 3):
        val, lam_next = omega(lam, target)
        if abs(val - target) <= tol:
            return lam, "equality", evals
        if val >= target:
            hi = lam
        elif evals == 2:  # below the target even at the top
            return cfg.lambda_fallback_factor * bound, "inequality-fallback", 2
        else:
            lo = lam
        lam = lam_next if lo < lam_next < hi else float(np.sqrt(lo) * np.sqrt(hi))
    raise BracketFailure(
        "the safeguarded Newton search did not reach the q-condition tolerance; "
        "monotonicity is likely lost to ill-conditioning"
    )


def solve(problem, data, L: ScalingOperator, x0, cfg: SolverConfig) -> RunRecord:
    """Run the damped iteration from x0 until a stopping rule fires.

    Parameters
    ----------
    problem : InverseProblem
    data : NoisyData or None
        None (or delta == 0) selects exact mode: stop once the residual
        falls below ``res_tol`` or the gradient norm below ``grad_tol``.
        Positive delta selects noisy mode with the discrepancy rule
        ``||F_k - y_delta|| <= tau * delta``.  A ``y_delta`` whose shape is
        not (m,) raises DimensionMismatch.
    L : ScalingOperator
    x0 : array
    cfg : SolverConfig

    Stop reasons: ``discrepancy``, ``res_tol``, ``grad_tol``, ``max_iter``,
    ``qcond_unsolvable_hard`` (J^T r = 0 at a nonzero residual).  An
    LmmssError from a step's factorization or damping selection (e.g.
    CompletenessViolated, BracketFailure) is re-raised as the same type with
    the message prefixed by ``iterate k:``.

    The factors of (J, L) are reused while J is unchanged, compared entry by
    entry with a copy of the last factored J.  The damping search and the
    step still read each step's residual, split once per step: the factors
    keep the split of the last residual.  At n >= ``_BIDIAG_MIN_N`` a new J
    is factored by ``bidiagonalize``, which forms no singular vectors, and
    below that n by ``gsvd``.  A J equal to the last factored one while the
    kept factors are bidiagonal is factored once more, by ``gsvd``, whose
    factors re-project a residual cheaply; so a linear forward map costs one
    bidiagonalization and one ``gsvd`` per solve at n >= ``_BIDIAG_MIN_N``,
    and one ``gsvd`` below.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({problem.n},)")
    if data is not None and data.y_delta.shape != (problem.m,):
        raise DimensionMismatch(
            f"y_delta has shape {data.y_delta.shape}, expected ({problem.m},)"
        )
    noisy = data is not None and data.delta > 0.0
    y = problem.y_exact if data is None else data.y_delta
    delta = 0.0 if data is None else float(data.delta)
    res_tol = cfg.res_tol

    trace: list[IterateRecord] = []
    J_factored = np.full((problem.m, problem.n), np.nan)  # equals no J: step 0 factors
    factors = None
    stop = None
    res = np.inf
    for k in range(cfg.max_iter + 1):
        r = problem.evaluate_F(x) - y
        res = euclidean_norm(r)
        if res_tol is None:
            res_tol = 1e-10 * res
        if noisy and res <= cfg.tau * delta:
            stop = "discrepancy"
            break
        if not noisy and res <= res_tol:
            stop = "res_tol"
            break
        J = problem.evaluate_J(x)
        gnorm = euclidean_norm(J.T @ r)
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
            if not np.array_equal(J, J_factored):
                factors = bidiagonalize(J, L) if problem.n >= _BIDIAG_MIN_N else gsvd(J, L)
                np.copyto(J_factored, J)  # eval_J may hand back one buffer it rewrites
            elif isinstance(factors, BidiagonalFactors):
                factors = gsvd(J, L)
            lam, kind, omega_evals = select_lambda_q(factors, r, cfg.q, cfg)
        except LmmssError as exc:
            raise type(exc)(f"iterate {k}: {exc}") from exc
        d = lm_step_gsvd(factors, r, lam)
        lin_res = euclidean_norm(r + J @ d)
        trace.append(
            IterateRecord(
                k=k,
                x=x.copy(),
                res_norm=res,
                lam=float(lam),
                zeta_p=factors.zeta_p,
                step_Lnorm=seminorm(L, d),
                qcond_kind=kind,
                lin_res_norm=lin_res,
                omega_evals=omega_evals,
            )
        )
        x = x + d

    trace.append(IterateRecord(k=len(trace), x=x.copy(), res_norm=res))
    return RunRecord(trace=tuple(trace), stop_reason=stop, final_x=trace[-1].x, delta=delta)
