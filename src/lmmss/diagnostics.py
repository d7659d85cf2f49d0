"""Empirical verification of the solver's convergence guarantees.

The checks work on recorded runs: the sampled tangential-cone constant, the
per-iteration decrease ("gain") of the squared L-distance to a reference
solution against its certified lower bounds, the stopping-index bound, the
Euclidean-norm bound implied by the seminorm analysis, and the noise-sweep
trend of the stopped iterates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateBall, LmmssError, MissingExactSolution
from .problems import InverseProblem, make_noisy_data
from .scaling import ScalingOperator, euclidean_norm, seminorm
from .solver import RunRecord, SolverConfig, solve

_DENOM_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class TccEstimate:
    """Sampled lower bound on the tangential-cone constant in the L-seminorm.

    ``c_hat`` maximizes ``||J(x)(x~ - x) - F(x~) + F(x)||`` over sampled
    pairs, relative to ``||x~ - x||_L * ||F(x~) - F(x)||``; pairs whose
    denominator falls below 1e-14 are skipped.  ``samples`` counts the pairs
    that actually entered the maximum.
    """

    c_hat: float
    rho: float
    samples: int
    worst_pair: tuple[np.ndarray, np.ndarray]


def tcc_ratio(problem: InverseProblem, L: ScalingOperator, x, x_tilde) -> float | None:
    """Tangential-cone ratio of a single pair.

    Returns None when the denominator is below 1e-14 (pair unusable) and 0.0
    when the numerator sits below measurement precision; for nearby points
    the numerator is pure cancellation noise and would otherwise inflate the
    estimate.
    """
    x = np.asarray(x, dtype=float)
    x_tilde = np.asarray(x_tilde, dtype=float)
    return _tcc_ratio(problem, L, x, x_tilde, problem.evaluate_F(x), problem.evaluate_F(x_tilde))


def _tcc_ratio(problem, L, x, x_tilde, Fx, Fxt) -> float | None:
    """``tcc_ratio`` with the forward values ``Fx = F(x)`` and ``Fxt = F(x_tilde)`` given."""
    lhs = euclidean_norm(problem.evaluate_jvp(x, x_tilde - x) - Fxt + Fx)
    rhs = seminorm(L, x_tilde - x) * euclidean_norm(Fxt - Fx)
    if rhs < _DENOM_FLOOR:
        return None
    scale = 1.0 + euclidean_norm(Fx) + euclidean_norm(Fxt)
    if lhs <= _DENOM_FLOOR * scale:
        return 0.0
    return lhs / rhs


def check_tcc_settings(rho: float, samples: int):
    """Raise ValueError unless rho is finite and positive and samples an integer >= 100."""
    if not 0.0 < rho < np.inf:
        raise ValueError(f"rho must be finite and positive, got {rho}")
    if not isinstance(samples, numbers.Integral):
        raise ValueError(f"the sample count must be an integer, got {samples!r}")
    if samples < 100:
        raise ValueError(f"need at least 100 sample pairs, got {samples}")


def estimate_tcc_constant(
    problem: InverseProblem,
    L: ScalingOperator,
    x0,
    rho: float,
    samples: int = 200,
    seed: int = 0,
) -> TccEstimate:
    """Estimate the tangential-cone constant by sampling pairs in an L-ball.

    Points are drawn as ``x0 + v`` with ``||v||_L`` uniform on (0, rho];
    draws falling outside the problem's domain hint are rejected.  Raises
    DegenerateBall when no pair with a usable denominator is found.
    """
    check_tcc_settings(rho, samples)
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(seed)

    def draw():
        for _ in range(200):
            z = rng.standard_normal(problem.n)
            nl = seminorm(L, z)
            if nl == 0.0:
                continue
            pt = x0 + z * (rho * rng.uniform() / nl)
            if problem.domain_hint is None or problem.domain_hint.contains(pt):
                return pt
        return None

    best = -1.0
    worst = None
    valid = 0
    for _ in range(samples):
        x = draw()
        xt = draw()
        if x is None or xt is None:
            continue
        ratio = tcc_ratio(problem, L, x, xt)
        if ratio is None:
            continue
        valid += 1
        if ratio > best:
            best = ratio
            worst = (x, xt)
    if valid == 0:
        raise DegenerateBall("no admissible sample pairs with usable denominators")
    return TccEstimate(c_hat=best, rho=float(rho), samples=valid, worst_pair=worst)


def run_tcc_ratios(problem, L, run: RunRecord, x_star) -> np.ndarray:
    """Tangential-cone ratios between each trace iterate and x_star.

    Useful to sharpen a sampled estimate to the pairs an actual run visits.
    F(x_star) is evaluated once per call, F at each iterate once.
    """
    if x_star is None:
        raise MissingExactSolution("run_tcc_ratios needs the exact solution")
    x_star = np.asarray(x_star, dtype=float)
    F_star = problem.evaluate_F(x_star)
    ratios = [
        _tcc_ratio(problem, L, rec.x, x_star, problem.evaluate_F(rec.x), F_star)
        for rec in run.trace
    ]
    return np.array([0.0 if r is None else r for r in ratios])


def theta_exact(q: float, c: float, dist_L: float) -> float:
    """Margin factor certified by the exact-data analysis; 1.1 when c * dist is 0."""
    if c * dist_L == 0.0:
        return 1.1
    return q / (c * dist_L)


def theta_noisy(q: float, tau: float, c: float, dist_L: float) -> float:
    """Margin factor certified by the noisy-data analysis (q tau at zero distance)."""
    return q * tau / (1.0 + c * (1.0 + tau) * dist_L)


@dataclass(frozen=True, eq=False)
class GainReport:
    """Per-iteration gains ``||x_k - x*||_L^2 - ||x_{k+1} - x*||_L^2``.

    Three lower bounds are computed at every iteration: the squared step
    L-norm, ``2(theta-1)/(theta lam) ||linearized residual||^2`` and
    ``2(theta-1)(1-q)q / (zeta_p^2 theta) ||residual||^2``.  Each ``ok_*``
    verdict is 1 where the gain meets its bound within slack ``-1e-10 * (1 +
    initial squared L-distance)``, 0 where not, and None for the last two
    off equality-kind iterations, whose premise is the q-condition with
    equality.  ``assumption_ok`` is False when theta <= 1, flagging that the
    initial-guess assumption is breached rather than failing the check.
    """

    theta: float
    gains: np.ndarray
    rhs_step: np.ndarray
    rhs_residual: np.ndarray
    rhs_spectral: np.ndarray
    kinds: tuple[str, ...]
    ok_step: tuple[int, ...]
    ok_residual: tuple[int | None, ...]
    ok_spectral: tuple[int | None, ...]

    @property
    def assumption_ok(self) -> bool:
        return self.theta > 1.0

    @property
    def violations(self) -> tuple[tuple[int, str], ...]:
        """The failed verdicts as ``(k, "step" | "residual" | "spectral")``, in order."""
        rows = enumerate(zip(self.ok_step, self.ok_residual, self.ok_spectral))
        names = ("step", "residual", "spectral")
        return tuple((k, name) for k, oks in rows for name, ok in zip(names, oks) if ok == 0)


def check_gain(run: RunRecord, x_star, L: ScalingOperator, q: float, theta: float) -> GainReport:
    """Check the gain inequalities along a recorded run against x_star."""
    if x_star is None:
        raise MissingExactSolution("check_gain needs the exact solution")
    x_star = np.asarray(x_star, dtype=float)
    d2 = np.array([seminorm(L, rec.x - x_star) ** 2 for rec in run.trace])
    slack = -1e-10 * (1.0 + d2[0])
    steps = run.trace[:-1]
    gains = d2[:-1] - d2[1:]
    rhs_step = np.array([rec.step_Lnorm**2 for rec in steps])
    coef = 2.0 * (theta - 1.0) / theta
    rhs_residual = np.array([coef / rec.lam * rec.lin_res_norm**2 for rec in steps])
    rhs_spectral = np.array(
        [coef * (1.0 - q) * q / rec.zeta_p**2 * rec.res_norm**2 for rec in steps]
    )
    kinds = tuple(rec.qcond_kind for rec in steps)

    def verdicts(rhs, equality_only=False):
        """1 where the gain meets ``rhs`` within the slack, 0 where not, None off the premise."""
        return tuple(
            None if equality_only and kind != "equality" else int(not gain - bound < slack)
            for gain, bound, kind in zip(gains, rhs, kinds)
        )

    return GainReport(
        theta=float(theta),
        gains=gains,
        rhs_step=rhs_step,
        rhs_residual=rhs_residual,
        rhs_spectral=rhs_spectral,
        kinds=kinds,
        ok_step=verdicts(rhs_step),
        ok_residual=verdicts(rhs_residual, equality_only=True),
        ok_spectral=verdicts(rhs_spectral, equality_only=True),
    )


@dataclass(frozen=True)
class KstarBoundReport:
    """Stopping-index bound ``k* tau^2 delta^2 <= C ||x_0 - x*||_L^2``.

    ``C = theta zeta_hat^2 / (2 (theta-1)(1-q) q)``; the squared L-distance
    of the initial guess is the form the telescoped gain inequality yields.
    """

    k_star: int
    lhs: float
    rhs_squared: float
    holds_squared: bool
    theta: float
    zeta_hat: float | None


def check_kstar_bound(
    run: RunRecord, x_star, L: ScalingOperator, q: float, tau: float, theta: float
) -> KstarBoundReport:
    """Evaluate the stopping-index bound for a discrepancy-stopped run at its own delta."""
    if x_star is None:
        raise MissingExactSolution("check_kstar_bound needs the exact solution")
    if run.stop_reason != "discrepancy":
        raise ValueError(
            f"run stopped by {run.stop_reason!r}, not by the discrepancy principle"
        )
    lhs = run.k_star * tau**2 * run.delta**2
    rhs_squared = 0.0
    if run.k_star > 0:
        dist = seminorm(L, run.trace[0].x - np.asarray(x_star, dtype=float))
        C = theta * run.zeta_hat**2 / (2.0 * (theta - 1.0) * (1.0 - q) * q)
        rhs_squared = C * dist**2
    return KstarBoundReport(
        k_star=run.k_star,
        lhs=lhs,
        rhs_squared=rhs_squared,
        holds_squared=lhs <= rhs_squared * (1.0 + 1e-10),
        theta=float(theta),
        zeta_hat=run.zeta_hat,
    )


@dataclass(frozen=True, eq=False)
class EuclideanBoundReport:
    """Per-iteration Euclidean distance of the new iterate against the seminorm bound;
    the verdict ``ok`` is 1 where ``lhs <= rhs (1 + 1e-10) + 1e-14``, 0 where not."""

    lhs: np.ndarray
    rhs: np.ndarray
    ok: tuple[int, ...]

    @property
    def violations(self) -> tuple[int, ...]:
        """The iterations whose verdict failed."""
        return tuple(k for k, ok in enumerate(self.ok) if not ok)


def _extreme_eigenvalue(S: np.ndarray, index: int) -> float:
    """The index-th smallest eigenvalue (1-based) of the symmetric S, no vectors.

    ``abstol`` is twice the underflow threshold, the setting LAPACK documents
    as the most accurate, so a small eigenvalue keeps its relative accuracy.
    """
    w, _, _, _, info = scipy.linalg.lapack.dsyevr(
        S, compute_v=0, range="I", lower=1, il=index, iu=index,
        abstol=2.0 * np.finfo(float).tiny,
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed (info = {info})")
    return float(w[0])


def check_euclidean_bound(
    run: RunRecord, problem: InverseProblem, x_star, L: ScalingOperator, c: float
) -> EuclideanBoundReport:
    """Check, per iteration of an exact-data run, that

    ``||x_{k+1} - x*|| <= ||(J^T J + lam L^T L)^{-1}|| (||J|| c ||F_k - y||
    ||x_k - x*||_L + lam ||L|| ||x_k - x*||_L)``.

    Violations signal that ``c`` underestimates the true tangential-cone
    constant; they are reported, not raised.  Both norms come from J^T J,
    formed once per iterate: ``||J|| = sqrt(lambda_max(J^T J))`` and the
    inverse's norm ``1 / lambda_min(J^T J + lam L^T L)``.
    """
    if x_star is None:
        raise MissingExactSolution("check_euclidean_bound needs the exact solution")
    if run.mode != "exact":
        raise ValueError("the Euclidean bound applies to exact-data runs")
    x_star = np.asarray(x_star, dtype=float)
    LTL = L.matrix.T @ L.matrix
    lhs, rhs = [], []
    for rec, nxt in zip(run.trace, run.trace[1:]):
        J = problem.evaluate_J(rec.x)
        JTJ = J.T @ J
        J_norm = math.sqrt(max(_extreme_eigenvalue(JTJ, JTJ.shape[0]), 0.0))
        inv_norm = 1.0 / max(_extreme_eigenvalue(JTJ + rec.lam * LTL, 1), 1e-300)
        dist_L = seminorm(L, rec.x - x_star)
        rhs.append(
            inv_norm * (J_norm * c * rec.res_norm * dist_L + rec.lam * L.spectral_norm * dist_L)
        )
        lhs.append(euclidean_norm(nxt.x - x_star))
    ok = tuple(int(not a > b * (1.0 + 1e-10) + 1e-14) for a, b in zip(lhs, rhs))
    return EuclideanBoundReport(lhs=np.array(lhs), rhs=np.array(rhs), ok=ok)


@dataclass(frozen=True)
class SweepRow:
    delta: float
    seed: int
    k_star: int
    err_euclid: float
    err_Lnorm: float
    final_residual: float
    stop_reason: str


@dataclass(frozen=True)
class SweepReport:
    """Noise-sweep outcome: one row per (delta, seed); the verdicts are read off the rows.

    ``trend_ok`` asserts that, per seed, the final Euclidean error is
    nonincreasing between consecutive noise levels up to ``slack_factor``;
    ``all_discrepancy`` that every run stopped by the discrepancy rule.
    """

    rows: tuple[SweepRow, ...]

    #: Error growth between consecutive noise levels that the trend tolerates.
    slack_factor = 1.1

    @property
    def all_discrepancy(self) -> bool:
        return all(r.stop_reason == "discrepancy" for r in self.rows)

    @property
    def trend_violations(self) -> tuple[tuple[float, float, int], ...]:
        """(delta_coarse, delta_fine, seed) triples where the error grew by more
        than ``slack_factor`` between consecutive noise levels of one seed.

        The rows are ordered by decreasing delta within each seed.
        """
        seeds = []
        for r in self.rows:
            if r.seed not in seeds:
                seeds.append(r.seed)
        violations = []
        for s in seeds:
            track = [r for r in self.rows if r.seed == s]
            for coarse, fine in zip(track, track[1:]):
                if fine.err_euclid > self.slack_factor * coarse.err_euclid:
                    violations.append((coarse.delta, fine.delta, s))
        return tuple(violations)

    @property
    def trend_ok(self) -> bool:
        return not self.trend_violations


def regularization_sweep(
    problem: InverseProblem,
    L: ScalingOperator,
    x0,
    cfg: SolverConfig,
    deltas,
    seeds,
) -> SweepReport:
    """Solve at every (delta, seed) and check the error trend as delta drops.

    ``deltas`` must be strictly decreasing and positive (exact data is the
    solver's exact mode, not a sweep entry) and ``seeds`` nonempty.  Solve
    errors are re-raised annotated with the offending delta and seed.
    """
    deltas = [float(d) for d in deltas]
    if not deltas or any(d <= 0.0 for d in deltas):
        raise ValueError("deltas must be positive (exact data is not a sweep entry)")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("seeds must not be empty")
    if problem.x_dagger is None:
        raise MissingExactSolution("regularization_sweep needs the exact solution")

    def run_one(d, s):
        data = make_noisy_data(problem.y_exact, d, s)
        try:
            run = solve(problem, data, L, x0, cfg)
        except LmmssError as exc:
            raise type(exc)(f"delta={d:g} seed={s}: {exc}") from exc
        return SweepRow(
            delta=d,
            seed=s,
            k_star=run.k_star,
            err_euclid=euclidean_norm(run.final_x - problem.x_dagger),
            err_Lnorm=seminorm(L, run.final_x - problem.x_dagger),
            final_residual=run.trace[-1].res_norm,
            stop_reason=run.stop_reason,
        )

    return SweepReport(rows=tuple(run_one(d, s) for d in deltas for s in seeds))
