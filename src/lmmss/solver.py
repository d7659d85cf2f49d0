"""Damped Gauss-Newton iteration with singular scaling.

Each step solves ``(J^T J + lam L^T L) d = -J^T r`` where L may be singular.
The damping parameter lam is chosen so that the linearized residual after
the step equals q times the current residual (the q-condition), which keeps
the iteration regularizing; with noisy data the loop stops at the first
iterate whose residual falls below tau * delta (discrepancy principle).

Each step's damping search and step come from one factorization of (J, L),
a Householder bidiagonalization of the standard-form operator of each new
Jacobian (``bidiagonalize``), which forms neither singular vectors nor
singular values beyond the largest.  It answers ``zeta_p``, and splits the
residual once (``split(r)``): the split's ``omega`` serves the damping
search (``select_lambda_q(split, cfg)``) and its ``step(lam)`` the step.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DimensionMismatch, LmmssError, ZeroGradient
from .gsvd import _BidiagonalSplit, bidiagonalize
from .scaling import ScalingOperator, euclidean_norm, seminorm

_SEARCH_MAX_ITER = 60
_BRACKET_LO_FACTOR = 1e-14

@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    ``q`` is the residual contraction target in (0, 1); ``tau`` the
    discrepancy multiplier, constrained to tau > 1/q.  ``res_tol = None``
    resolves to 1e-10 times the initial residual when an exact-data solve
    starts (``solve`` lists its other stops).  Every field is checked here,
    once (ValueError), so ``solve`` trusts them.  The command line's
    ``[solver]`` section is this class, field by field and in order.
    """

    q: float = 0.5
    tau: float = 2.5
    max_iter: int = 500
    lambda_root_tol: float = 1e-10
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


def select_lambda_q(split: _BidiagonalSplit, cfg: SolverConfig):
    """Choose the damping parameter from the q-condition with ``q = cfg.q``.

    ``split`` is the residual r split by ``bidiagonalize``'s factors of
    (J, L) (``BidiagonalFactors.split``), which checked r.  ``omega(lam) =
    ||r + J d(lam)||``, nondecreasing in lam, and its Newton iterate come
    from ``split.omega``, in O(p) per call; no lam is evaluated twice.  The
    search bracket is ``[1e-14 zeta_p^2, q/(1-q) zeta_p^2 (1 + tol)]`` with
    ``split.zeta_p``, the largest singular value of B, by bisection on the
    p x p tridiagonal B^T B (``gsvd._largest_singular_value``).

    The floor comes first: omega within the tolerance of the target
    ``q ||r||`` there is an ``"equality"``, and omega at or above the target
    returns a fixed fraction of the interval upper bound with kind
    ``"fallback-floor"`` (the residual on directions with zeta_i below about
    1e-7 zeta_p counts as unremovable; exact-data ``solve`` stops there, by
    ``stagnation``).  Otherwise the target exceeds omega(floor) >= rho_perp,
    so the Newton iterate is defined, and a safeguarded Newton iteration
    starts at the top.  A top within the tolerance is an equality; a top
    below the target returns the same fraction with kind ``"fallback-top"``
    (components of r along the image of the undamped null space of L are
    removed regardless of lam).  Otherwise each evaluation shrinks the
    bracket, a Newton iterate outside it is replaced by one bisection step
    on log(lam), and the root found is an equality.

    Returns
    -------
    (lam, kind, evals) : (float, str, int)
        ``evals`` counts the omega evaluations: 1 when the floor decides, 2
        when the top does, plus one per iterate after the top (at most 60).

    Raises ZeroGradient when J^T r = 0, and BracketFailure when every
    zeta_i vanishes or the search misses the tolerance within its iteration
    cap.
    """
    if split.gradient_vanishes:
        raise ZeroGradient("J^T r = 0: the step is zero for every lambda")
    zeta_p = split.zeta_p
    if zeta_p == 0.0:
        raise BracketFailure(
            "all generalized singular values vanish; the admissible interval is empty"
        )
    q, rnorm = cfg.q, split.rnorm
    target, tol = q * rnorm, cfg.lambda_root_tol * rnorm
    bound = q / (1.0 - q) * zeta_p**2

    lo = _BRACKET_LO_FACTOR * zeta_p**2
    val = split.omega(lo)
    if abs(val - target) <= tol:
        return lo, "equality", 1
    if val >= target:
        return cfg.lambda_fallback_factor * bound, "fallback-floor", 1

    lam = hi = bound * (1.0 + cfg.lambda_root_tol)
    for evals in range(2, _SEARCH_MAX_ITER + 3):
        val, lam_next = split.omega(lam, target)
        if abs(val - target) <= tol:
            return lam, "equality", evals
        if val >= target:
            hi = lam
        elif evals == 2:  # below the target even at the top
            return cfg.lambda_fallback_factor * bound, "fallback-top", 2
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
        falls below ``res_tol``, or by ``stagnation``.  Positive delta
        selects noisy mode with the discrepancy rule
        ``||F_k - y_delta|| <= tau * delta``.  A ``y_delta`` whose shape is
        not (m,) raises DimensionMismatch.
    L : ScalingOperator
    x0 : array
    cfg : SolverConfig

    Stop reasons: ``discrepancy``, ``res_tol``, ``stagnation``, ``max_iter``
    and ``qcond_unsolvable_hard`` (the search's ZeroGradient: J^T r = 0 at
    r != 0, once the pair passed its completeness check and k < ``max_iter``).
    Any other LmmssError raised while working on iterate k (evaluating F or
    J, factoring, selecting the damping, stepping) is re-raised as the same
    type with its message prefixed by ``iterate k:``.

    ``stagnation`` (exact mode only): the search ends with
    ``"fallback-floor"``, omega(floor) >= q ||r||.  omega is nondecreasing,
    so the q-condition has no root in the admissible interval, and the
    premise of the exact-data analysis fails at x_k; no step is taken.  A
    ``"fallback-top"`` does not stop.

    The factors of (J, L) are reused while J is unchanged, entry by entry
    against a copy of the last factored J (in the first J's layout), so a
    linear forward map costs one bidiagonalization per solve; each step's
    residual is split once.
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
    J_factored = factors = None
    stop = None
    res = np.inf
    for k in range(cfg.max_iter + 1):
        try:
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
            if k == cfg.max_iter:
                stop = "max_iter"
                break
            J = problem.evaluate_J(x)
            if factors is None or not np.array_equal(J, J_factored):
                factors = bidiagonalize(J, L)
                if J_factored is None:  # in J's layout, so the compare and copy stay flat
                    J_factored = np.empty_like(J)
                np.copyto(J_factored, J)  # eval_J may hand back one buffer it rewrites
            split = factors.split(r)
            lam, kind, omega_evals = select_lambda_q(split, cfg)
            if not noisy and kind == "fallback-floor":
                stop = "stagnation"
                break
            d = split.step(lam)
        except ZeroGradient:
            stop = "qcond_unsolvable_hard"
            break
        except LmmssError as exc:
            raise type(exc)(f"iterate {k}: {exc}") from exc
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
