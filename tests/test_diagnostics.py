import dataclasses

import numpy as np
import pytest

from lmmss import (
    Box,
    EuclideanBoundReport,
    GainReport,
    InverseProblem,
    IterateRecord,
    MissingExactSolution,
    RunRecord,
    SolverConfig,
    TccEstimate,
    check_euclidean_bound,
    check_gain,
    check_kstar_bound,
    estimate_tcc_constant,
    make_noisy_data,
    make_problem,
    regularization_sweep,
    run_tcc_ratios,
    seminorm,
    solve,
    theta_exact,
    tcc_ratio,
    theta_noisy,
)
from lmmss.diagnostics import SweepReport, SweepRow, _extreme_eigenvalue, check_tcc_settings
from lmmss.scaling import identity, second_difference


def scalar_square_problem():
    return InverseProblem(
        name="square",
        eval_F=lambda x: x**2,
        eval_J=lambda x: np.array([[2.0 * x[0]]]),
        n=1,
        y_exact=np.array([1.0]),
        x_dagger=np.array([1.0]),
    )


class TestTccEstimate:
    def test_linear_problem_constant_is_zero(self):
        prob = make_problem("linear", 12)
        est = estimate_tcc_constant(prob, identity(12), np.zeros(12), rho=0.5, samples=150, seed=0)
        assert est.c_hat <= 1e-8

    def test_scalar_square_matches_grid_oracle(self):
        prob = scalar_square_problem()
        # oracle: dense grid maximization of 1/|x + xt| over [0.5, 1.5]^2
        grid = np.linspace(0.5, 1.5, 201)
        best = 0.0
        for x in grid:
            for xt in grid:
                if abs(xt - x) < 1e-12 or abs(xt**2 - x**2) < 1e-14:
                    continue
                best = max(best, 1.0 / abs(xt + x))
        assert best == pytest.approx(1.0, abs=2e-2)
        est = estimate_tcc_constant(
            prob, identity(1), np.array([1.0]), rho=0.5, samples=400, seed=3
        )
        assert 0.7 <= est.c_hat <= best * 1.001

    def test_sampling_stability_autoconvolution(self):
        prob = make_problem("autoconvolution", 12)
        L = identity(12)
        x0 = prob.x_dagger
        a = estimate_tcc_constant(prob, L, x0, rho=0.2, samples=200, seed=1)
        b = estimate_tcc_constant(prob, L, x0, rho=0.2, samples=400, seed=1)
        assert a.c_hat > 0.0
        assert abs(b.c_hat - a.c_hat) <= 0.2 * max(a.c_hat, b.c_hat)

    def test_input_validation(self):
        prob = scalar_square_problem()
        with pytest.raises(ValueError):
            estimate_tcc_constant(prob, identity(1), np.array([1.0]), rho=0.0, samples=100)
        with pytest.raises(ValueError):
            estimate_tcc_constant(prob, identity(1), np.array([1.0]), rho=0.5, samples=50)

    def test_non_integral_samples_rejected(self):
        prob = scalar_square_problem()
        for samples in (150.5, 150.0, np.inf):
            with pytest.raises(ValueError):
                check_tcc_settings(0.5, samples)
            with pytest.raises(ValueError):
                estimate_tcc_constant(prob, identity(1), np.array([1.0]), rho=0.5, samples=samples)
        check_tcc_settings(0.5, np.int64(150))

    def test_samples_stay_in_ball(self):
        prob = make_problem("coefficient", 10)
        L = identity(10)
        est = estimate_tcc_constant(prob, L, prob.x_dagger, rho=0.3, samples=120, seed=5)
        for pt in est.worst_pair:
            assert seminorm(L, pt - prob.x_dagger) <= 0.3 + 1e-12
            assert prob.domain_hint.contains(pt)

    def test_degenerate_ball(self):
        from lmmss import Box, DegenerateBall

        base = scalar_square_problem()
        prob = InverseProblem(
            name="walled",
            eval_F=base.eval_F,
            eval_J=base.eval_J,
            n=1,
            y_exact=base.y_exact,
            x_dagger=base.x_dagger,
            domain_hint=Box(lower=np.array([np.inf]), upper=np.array([np.inf])),
        )
        with pytest.raises(DegenerateBall):
            estimate_tcc_constant(prob, identity(1), np.array([1.0]), rho=0.5, samples=100)


class TestTheta:
    def test_exact_formula_and_default(self):
        assert theta_exact(0.5, 0.2, 0.5) == pytest.approx(5.0)
        assert theta_exact(0.5, 0.0, 0.5) == 1.1
        assert theta_exact(0.5, 0.2, 0.0) == 1.1

    def test_noisy_formula_and_default(self):
        assert theta_noisy(0.5, 3.0, 0.0, 0.7) == pytest.approx(1.5)
        assert theta_noisy(0.5, 3.0, 0.2, 0.0) == pytest.approx(1.5)
        assert theta_noisy(0.5, 3.0, 1.0, 0.1) == pytest.approx(1.5 / 1.4)


def _stationary_run(x, L):
    recs = (
        IterateRecord(
            k=0, x=x, res_norm=1.0, lam=1.0, zeta_p=1.0, step_Lnorm=0.0,
            qcond_kind="equality", lin_res_norm=0.5,
        ),
        IterateRecord(k=1, x=x, res_norm=1.0),
    )
    return RunRecord(trace=recs, stop_reason="max_iter", final_x=x, delta=0.0)


class TestGain:
    def test_stationary_iterate_contracts_trivially(self):
        x = np.zeros(3)
        rep = check_gain(_stationary_run(x, identity(3)), np.ones(3), identity(3), 0.5, 2.0)
        assert (0, "step") not in rep.violations

    def test_iterate_moving_away_violates_step_bound(self):
        # the L-distance to x* grows, so the gain is negative and cannot
        # dominate the squared step norm
        x_star = np.ones(3)
        start = _stationary_run(x_star, identity(3)).trace[0]
        far = IterateRecord(k=1, x=x_star + 1.0, res_norm=1.0)
        run = RunRecord(trace=(start, far), stop_reason="max_iter", final_x=far.x, delta=0.0)
        rep = check_gain(run, x_star, identity(3), 0.5, 2.0)
        assert rep.gains[0] == pytest.approx(-3.0)
        assert (0, "step") in rep.violations
        assert rep.assumption_ok

    def test_linear_run_all_inequalities_hold(self):
        n = 16
        prob = make_problem("linear", n)
        L = second_difference(n)
        cfg = SolverConfig(q=0.5, tau=2.5)
        data = make_noisy_data(prob.y_exact, 1e-3, seed=2)
        run = solve(prob, data, L, np.zeros(n), cfg)
        theta = theta_noisy(0.5, 2.5, 0.0, seminorm(L, -prob.x_dagger))
        rep = check_gain(run, prob.x_dagger, L, 0.5, theta)
        assert rep.assumption_ok
        assert rep.violations == ()
        # direct re-evaluation of the gain definition from the trace
        d0 = seminorm(L, run.trace[0].x - prob.x_dagger) ** 2
        d1 = seminorm(L, run.trace[1].x - prob.x_dagger) ** 2
        assert rep.gains[0] == pytest.approx(d0 - d1)

    def test_far_start_flags_assumption_not_failure(self):
        n = 12
        prob = make_problem("coefficient", n)
        L = identity(n)
        cfg = SolverConfig(q=0.6, tau=3.5)
        x0 = np.full(n, 3.0)  # far from the exact profile
        run = solve(prob, None, L, x0, cfg)
        theta = theta_exact(0.6, 2.0, seminorm(L, x0 - prob.x_dagger))
        rep = check_gain(run, prob.x_dagger, L, 0.6, theta)
        assert not rep.assumption_ok  # theta <= 1 is reported, not raised

    @staticmethod
    def _reference_violations(rep, run, x_star, L):
        # the scan check_gain ran before it kept one verdict per row
        slack = -1e-10 * (1.0 + seminorm(L, run.trace[0].x - x_star) ** 2)
        violations = []
        for k, rec in enumerate(run.trace[:-1]):
            if rep.gains[k] - rep.rhs_step[k] < slack:
                violations.append((k, "step"))
            if rec.qcond_kind == "equality":
                if rep.gains[k] - rep.rhs_residual[k] < slack:
                    violations.append((k, "residual"))
                if rep.gains[k] - rep.rhs_spectral[k] < slack:
                    violations.append((k, "spectral"))
        return tuple(violations)

    def test_premises_on_a_run_with_fallback_rows(self):
        # rows 0-2 fall back, rows 3-6 are equality steps; the residual and
        # spectral bounds presume equality, so their verdicts exist only there
        n, q, tau = 32, 0.6, 3.5
        prob = make_problem("coefficient", n)
        L = second_difference(n)
        data = make_noisy_data(prob.y_exact, 1e-3, seed=1)
        run = solve(prob, data, L, prob.x0_default, SolverConfig(q=q, tau=tau))
        x_star = prob.x_dagger
        theta = theta_noisy(q, tau, 0.5, seminorm(L, prob.x0_default - x_star))
        rep = check_gain(run, x_star, L, q, theta)
        equality = [kind == "equality" for kind in rep.kinds]
        assert equality == [False] * 3 + [True] * 4
        for ok in (rep.ok_residual, rep.ok_spectral):
            assert [v is not None for v in ok] == equality
        assert set(rep.ok_step) <= {0, 1}
        assert rep.violations == self._reference_violations(rep, run, x_star, L)

        # one step bound broken at an equality row, then every bound at a
        # fallback row and at an equality row: the verdicts still match the scan
        def fabricate(k, **changes):
            trace = list(run.trace)
            trace[k] = dataclasses.replace(trace[k], **changes)
            return dataclasses.replace(run, trace=tuple(trace))

        away = np.arange(n) ** 2 / n  # outside N(L), so the L-distance to x* grows
        cases = [
            (fabricate(4, step_Lnorm=1e3), ((4, "step"),)),
            (fabricate(1, x=run.trace[1].x + away), ((0, "step"),)),
            (fabricate(5, x=run.trace[5].x + away), ((4, "step"), (4, "residual"), (4, "spectral"))),
        ]
        for bad, expected in cases:
            rep = check_gain(bad, x_star, L, q, theta)
            assert rep.violations == self._reference_violations(rep, bad, x_star, L) == expected
        assert (rep.ok_step[4], rep.ok_residual[4], rep.ok_spectral[4]) == (0, 0, 0)
        assert rep.ok_residual[:3] == rep.ok_spectral[:3] == (None,) * 3

    def test_missing_solution(self):
        with pytest.raises(MissingExactSolution):
            check_gain(_stationary_run(np.zeros(2), identity(2)), None, identity(2), 0.5, 2.0)


class TestRunRecord:
    def test_index_zeta_hat_and_mode_read_off_the_trace(self):
        x = np.zeros(2)
        steps = tuple(
            IterateRecord(
                k=k, x=x, res_norm=1.0, lam=1.0, zeta_p=z, step_Lnorm=0.0,
                qcond_kind="equality", lin_res_norm=0.5,
            )
            for k, z in enumerate((0.5, 2.0, 1.0))
        )
        trace = steps + (IterateRecord(k=3, x=x, res_norm=1.0),)
        noisy = RunRecord(trace=trace, stop_reason="discrepancy", final_x=x, delta=1e-3)
        assert (noisy.k_star, noisy.zeta_hat, noisy.mode) == (3, 2.0, "noisy")
        exact = RunRecord(trace=trace[-1:], stop_reason="res_tol", final_x=x, delta=0.0)
        assert (exact.k_star, exact.zeta_hat, exact.mode) == (0, None, "exact")


class TestKstarBound:
    def test_vacuous_at_zero_index(self):
        prob = make_problem("linear", 8)
        data = make_noisy_data(prob.y_exact, 0.01, seed=0)
        run = solve(prob, data, identity(8), prob.x_dagger, SolverConfig(q=0.5, tau=2.5))
        rep = check_kstar_bound(run, prob.x_dagger, identity(8), 0.5, 2.5, 1.25)
        assert rep.k_star == 0 and rep.holds_squared

    def test_linear_closed_form_stopping_index(self):
        n = 16
        prob = make_problem("linear", n)
        L = identity(n)
        q, tau, delta = 0.5, 2.5, 0.02
        cfg = SolverConfig(q=q, tau=tau)
        data = make_noisy_data(prob.y_exact, delta, seed=9)
        x0 = np.zeros(n)
        run = solve(prob, data, L, x0, cfg)
        r0 = run.trace[0].res_norm
        expected = int(np.ceil(np.log(tau * delta / r0) / np.log(q)))
        assert run.k_star == expected
        theta = theta_noisy(q, tau, 0.0, seminorm(L, x0 - prob.x_dagger))
        rep = check_kstar_bound(run, prob.x_dagger, L, q, tau, theta)
        assert np.isfinite(rep.rhs_squared)
        assert rep.holds_squared

    def test_requires_discrepancy_stop(self):
        prob = make_problem("linear", 8)
        run = solve(prob, None, identity(8), np.zeros(8), SolverConfig(q=0.5, tau=2.5))
        with pytest.raises(ValueError):
            check_kstar_bound(run, prob.x_dagger, identity(8), 0.5, 2.5, 1.25)


class TestEuclideanBound:
    def test_stationary_at_solution_both_sides_zero(self):
        x_star = np.ones(3)
        recs = (
            IterateRecord(
                k=0, x=x_star.copy(), res_norm=0.0, lam=1.0, zeta_p=1.0,
                step_Lnorm=0.0, qcond_kind="equality", lin_res_norm=0.0,
            ),
            IterateRecord(k=1, x=x_star.copy(), res_norm=0.0),
        )
        run = RunRecord(trace=recs, stop_reason="res_tol", final_x=x_star, delta=0.0)
        prob = InverseProblem(
            name="affine", eval_F=lambda x: x.copy(), eval_J=lambda x: np.eye(3),
            n=3, y_exact=x_star,
        )
        rep = check_euclidean_bound(run, prob, x_star, identity(3), c=1.0)
        assert rep.lhs[0] == 0.0 and rep.rhs[0] == 0.0
        assert rep.violations == ()

    def test_far_jump_is_a_violation(self):
        x_star = np.zeros(3)
        recs = (
            IterateRecord(
                k=0, x=x_star + 0.1, res_norm=0.1, lam=1.0, zeta_p=1.0,
                step_Lnorm=1.0, qcond_kind="equality", lin_res_norm=0.05,
            ),
            IterateRecord(k=1, x=x_star + 100.0, res_norm=100.0),
        )
        run = RunRecord(trace=recs, stop_reason="max_iter", final_x=recs[-1].x, delta=0.0)
        prob = InverseProblem(
            name="identity", eval_F=lambda x: x.copy(), eval_J=lambda x: np.eye(3),
            n=3, y_exact=x_star,
        )
        rep = check_euclidean_bound(run, prob, x_star, identity(3), c=0.0)
        # (J^T J + lam L^T L)^-1 = I/2, so the bound is ||x_0 - x*|| / 2
        assert rep.rhs[0] == pytest.approx(0.05 * np.sqrt(3.0))
        assert rep.lhs[0] == pytest.approx(100.0 * np.sqrt(3.0))
        assert rep.violations == (0,)

    def test_linear_reduces_to_scaling_term(self):
        n = 12
        prob = make_problem("linear", n)
        L = second_difference(n)
        cfg = SolverConfig(q=0.5, tau=2.5)
        run = solve(prob, None, L, np.zeros(n), cfg)
        rep = check_euclidean_bound(run, prob, prob.x_dagger, L, c=0.0)
        assert rep.violations == ()
        # with c = 0 the bound is lam ||(J^T J + lam L^T L)^{-1}|| ||L|| dist_L
        k = 0
        rec = run.trace[k]
        J = prob.evaluate_J(rec.x)
        M = J.T @ J + rec.lam * L.matrix.T @ L.matrix
        expected = (
            rec.lam
            * (1.0 / np.linalg.eigvalsh(M)[0])
            * np.linalg.norm(L.matrix, 2)
            * seminorm(L, rec.x - prob.x_dagger)
        )
        assert rep.rhs[k] == pytest.approx(expected, rel=1e-10)

    def test_estimated_constant_on_autoconvolution(self):
        n = 12
        prob = make_problem("autoconvolution", n)
        L = identity(n)
        x0 = prob.x_dagger + 0.05
        cfg = SolverConfig(q=0.5, tau=3.0)
        run = solve(prob, None, L, x0, cfg)
        est = estimate_tcc_constant(prob, L, x0, rho=0.3, samples=150, seed=4)
        rep = check_euclidean_bound(run, prob, prob.x_dagger, L, est.c_hat)
        assert len(rep.lhs) == len(run.trace) - 1  # evaluated per iteration

    def test_norms_from_normal_matrix_match_dense_formulas(self):
        # ||J|| from lambda_max(J^T J) and lambda_min(J^T J + lam L^T L) by
        # one-index dsyevr calls, against the full SVD and eigvalsh.  Both
        # eigenvalue routines are backward stable, so lambda_min agrees to
        # rounding relative to ||M||, not to itself once M is ill conditioned.
        n = 64
        prob = make_problem("coefficient", n)
        L = second_difference(n)
        run = solve(prob, None, L, prob.x0_default, SolverConfig())
        LTL = L.matrix.T @ L.matrix
        for rec in run.trace[:-1]:
            J = prob.evaluate_J(rec.x)
            JTJ = J.T @ J
            J_norm = np.sqrt(_extreme_eigenvalue(JTJ, n))
            assert J_norm == pytest.approx(np.linalg.norm(J, 2), rel=1e-12)
            M = JTJ + rec.lam * LTL
            eigs = np.linalg.eigvalsh(M)
            assert abs(_extreme_eigenvalue(M, 1) - eigs[0]) <= 1e-12 * eigs[-1]
        rep = check_euclidean_bound(run, prob, prob.x_dagger, L, c=0.5)
        assert len(rep.rhs) == len(run.trace) - 1

    def test_requires_exact_mode(self):
        prob = make_problem("linear", 8)
        data = make_noisy_data(prob.y_exact, 0.01, seed=0)
        run = solve(prob, data, identity(8), np.zeros(8), SolverConfig(q=0.5, tau=2.5))
        with pytest.raises(ValueError):
            check_euclidean_bound(run, prob, prob.x_dagger, identity(8), 0.0)


class TestSweep:
    def test_linear_ladder_closed_form(self):
        n = 16
        prob = make_problem("linear", n)
        L = identity(n)
        q, tau = 0.5, 2.5
        cfg = SolverConfig(q=q, tau=tau)
        deltas = (1e-1, 1e-2, 1e-3, 1e-4)
        rep = regularization_sweep(prob, L, np.zeros(n), cfg, deltas, seeds=(1, 2))
        assert rep.all_discrepancy and rep.trend_ok
        ks = {}
        for row in rep.rows:
            data = make_noisy_data(prob.y_exact, row.delta, row.seed)
            r0 = np.linalg.norm(prob.evaluate_F(np.zeros(n)) - data.y_delta)
            expected = max(int(np.ceil(np.log(tau * row.delta / r0) / np.log(q))), 0)
            assert row.k_star == expected
            ks.setdefault(row.seed, []).append(row.k_star)
        for track in ks.values():
            assert all(b >= a for a, b in zip(track, track[1:]))

    def test_rejects_bad_delta_lists(self):
        prob = make_problem("linear", 8)
        cfg = SolverConfig(q=0.5, tau=2.5)
        with pytest.raises(ValueError):
            regularization_sweep(prob, identity(8), np.zeros(8), cfg, (0.0,), (1,))
        with pytest.raises(ValueError):
            regularization_sweep(prob, identity(8), np.zeros(8), cfg, (1e-3, 1e-2), (1,))

    def test_rejects_empty_seeds(self):
        prob = make_problem("linear", 8)
        cfg = SolverConfig(q=0.5, tau=2.5)
        with pytest.raises(ValueError, match="seeds must not be empty"):
            regularization_sweep(prob, identity(8), np.zeros(8), cfg, (1e-2, 1e-3), ())

    def test_trend_violation_detection(self):
        rows = [
            SweepRow(1e-2, 1, 3, 1.0, 1.0, 0.01, "discrepancy"),
            SweepRow(1e-3, 1, 5, 1.2, 1.2, 0.001, "discrepancy"),
        ]
        assert SweepReport(rows=tuple(rows)).trend_violations == ((1e-2, 1e-3, 1),)
        # a growth of 1.05 is within the slack factor 1.1
        within = [rows[0], SweepRow(1e-3, 1, 5, 1.05, 1.05, 0.001, "discrepancy")]
        assert SweepReport(rows=tuple(within)).trend_violations == ()

    def test_solver_errors_annotated_with_delta(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = InverseProblem(
            name="shared-null", eval_F=lambda x: A @ x, eval_J=lambda x: A,
            n=2, y_exact=np.array([1.0, 0.0]), x_dagger=np.array([1.0, 0.0]),
        )
        from lmmss import CompletenessViolated
        from lmmss.scaling import from_matrix

        L = from_matrix([[1.0, 0.0]])
        cfg = SolverConfig(q=0.5, tau=2.5)
        with pytest.raises(CompletenessViolated, match="delta=0.001 seed=1"):
            regularization_sweep(prob, L, np.zeros(2), cfg, (1e-3,), (1,))

    def test_requires_exact_solution(self):
        prob = InverseProblem(
            name="anon", eval_F=lambda x: x.copy(), eval_J=lambda x: np.eye(4),
            n=4, y_exact=np.zeros(4),
        )
        with pytest.raises(MissingExactSolution):
            regularization_sweep(
                prob, identity(4), np.ones(4), SolverConfig(q=0.5, tau=2.5), (1e-2,), (1,)
            )


class TestRunRatios:
    def test_ratios_finite_and_positive_for_nonlinear(self):
        prob = make_problem("coefficient", 10)
        L = identity(10)
        run = solve(prob, None, L, prob.x_dagger + 0.05, SolverConfig(q=0.6, tau=3.5))
        ratios = run_tcc_ratios(prob, L, run, prob.x_dagger)
        assert ratios.shape == (len(run.trace),)
        assert np.all(ratios >= 0.0)

    def test_forward_map_at_the_solution_evaluated_once(self, monkeypatch):
        n = 32
        prob = make_problem("coefficient", n)
        L = identity(n)
        run = solve(prob, make_noisy_data(prob.y_exact, 1e-3, seed=1), L, prob.x0_default,
                    SolverConfig(q=0.6, tau=3.5))
        pairs = [tcc_ratio(prob, L, rec.x, prob.x_dagger) for rec in run.trace]
        want = np.array([0.0 if r is None else r for r in pairs])
        calls = []
        evaluate_F = InverseProblem.evaluate_F

        def counting(self, x):
            calls.append(x)
            return evaluate_F(self, x)

        monkeypatch.setattr(InverseProblem, "evaluate_F", counting)
        got = run_tcc_ratios(prob, L, run, prob.x_dagger)
        assert len(calls) == len(run.trace) + 1
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", ["identity", "d2"])
@pytest.mark.parametrize("name", ["linear", "autoconvolution", "coefficient"])
def test_tcc_on_jvp_hook_matches_dense_jacobian(name, spec):
    # the sampled constant and the run ratios need J(x) v only; the bundled
    # closed-form products must give what the dense Jacobian gives
    n = 32
    prob = make_problem(name, n)
    dense = dataclasses.replace(prob, eval_jvp=None)
    L = identity(n) if spec == "identity" else second_difference(n)
    x0 = prob.x0_default
    run = solve(prob, make_noisy_data(prob.y_exact, 1e-3, seed=1), L, x0, SolverConfig())
    assert prob.eval_jvp is not None and dense.eval_jvp is None
    got, want = (estimate_tcc_constant(p, L, x0, rho=0.5, seed=1) for p in (prob, dense))
    assert got.samples == want.samples
    assert got.c_hat == pytest.approx(want.c_hat, rel=1e-10, abs=1e-300)
    got, want = (run_tcc_ratios(p, L, run, prob.x_dagger) for p in (prob, dense))
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


_RECORDS = {
    "IterateRecord": lambda: IterateRecord(k=0, x=np.zeros(3), res_norm=1.0),
    "RunRecord": lambda: RunRecord(
        trace=(IterateRecord(k=0, x=np.zeros(3), res_norm=1.0),),
        stop_reason="discrepancy", final_x=np.zeros(3), delta=1e-3,
    ),
    "NoisyData": lambda: make_noisy_data(np.ones(3), 1e-3, seed=1),
    "InverseProblem": lambda: make_problem("linear", 4),
    "Box": lambda: Box(np.zeros(2), np.ones(2)),
    "TccEstimate": lambda: TccEstimate(
        c_hat=0.5, rho=0.5, samples=100, worst_pair=(np.zeros(2), np.ones(2))
    ),
    "GainReport": lambda: GainReport(
        theta=2.0, gains=np.ones(2), rhs_step=np.ones(2),
        rhs_residual=np.ones(2), rhs_spectral=np.ones(2),
        kinds=("equality", "fallback-top"), ok_step=(1, 1), ok_residual=(1, None),
        ok_spectral=(1, None),
    ),
    "EuclideanBoundReport": lambda: EuclideanBoundReport(
        lhs=np.ones(2), rhs=np.ones(2), ok=(1, 1)
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_array_records_compare_and_hash_by_identity(name):
    # the generated __eq__ would compare array fields and raise ValueError
    a, b = _RECORDS[name](), _RECORDS[name]()
    assert (a == a) is True
    assert (a == b) is False
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
