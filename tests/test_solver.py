import numpy as np
import pytest

import lmmss
from lmmss import (
    InverseProblem,
    NonpositiveLambda,
    SingularSystem,
    SolverConfig,
    ZeroGradient,
    discrepancy_reached,
    generalized_singular_values,
    gsvd,
    lm_step,
    lm_step_gsvd,
    make_noisy_data,
    make_problem,
    qcond_residual,
    select_lambda_q,
    seminorm,
    solve,
)
from lmmss.scaling import first_difference, from_matrix, from_spec, identity
from helpers import in_range_residual, unit_residual_start

CFG = SolverConfig(q=0.5, tau=2.5)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.max_iter == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q": 0.0},
            {"q": 1.0},
            {"q": 0.5, "tau": 2.0},  # tau * q = 1, needs > 1
            {"max_iter": 0},
            {"lambda_fallback_factor": 1.0},
            {"lambda_root_tol": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestLmStep:
    def test_identity_pair(self):
        d = lm_step(np.eye(2), np.array([1.0, 1.0]), identity(2), 1.0)
        np.testing.assert_allclose(d, [-0.5, -0.5], atol=1e-14)

    def test_small_rectangular_instance(self):
        J = np.array([[1.0, 0.0], [0.0, 0.1], [0.0, 0.0]])
        L = from_matrix([[1.0, -1.0]])
        r = np.array([1.0, 1.0, 1.0])
        # oracle: direct solve of the 2x2 normal equations
        M = np.array([[1.5, -0.5], [-0.5, 0.51]])
        expected = np.linalg.solve(M, -J.T @ r)
        np.testing.assert_allclose(lm_step(J, r, L, 0.5), expected, rtol=1e-12)
        np.testing.assert_allclose(expected, [-1.0874, -1.2621], atol=5e-5)

    def test_orthogonal_residual_gives_zero_step(self):
        J = np.array([[1.0], [0.0]])
        r = np.array([0.0, 1.0])
        d = lm_step(J, r, identity(1), 1.0)
        np.testing.assert_allclose(d, [0.0], atol=1e-15)

    def test_nonpositive_lambda(self):
        with pytest.raises(NonpositiveLambda):
            lm_step(np.eye(2), np.ones(2), identity(2), 0.0)

    def test_singular_system(self):
        J = np.array([[1.0, 0.0], [0.0, 0.0]])
        L = from_matrix([[1.0, 0.0]])
        with pytest.raises(SingularSystem):
            lm_step(J, np.ones(2), L, 1.0)


class TestLmStepGsvd:
    def test_matches_identity_pair(self):
        f = gsvd(np.eye(2), np.eye(2))
        d = lm_step_gsvd(f, np.array([1.0, 1.0]), 1.0)
        np.testing.assert_allclose(d, [-0.5, -0.5], atol=1e-14)

    def test_matches_stacked_route(self):
        J = np.array([[1.0, 0.0], [0.0, 0.1], [0.0, 0.0]])
        L = from_matrix([[1.0, -1.0]])
        r = np.array([1.0, 1.0, 1.0])
        f = gsvd(J, L.matrix)
        np.testing.assert_allclose(
            lm_step_gsvd(f, r, 0.5), lm_step(J, r, L, 0.5), rtol=1e-8
        )

    def test_step_vanishes_for_huge_damping(self):
        rng = np.random.default_rng(1)
        J = rng.standard_normal((6, 4))
        L = from_matrix(rng.standard_normal((4, 4)))
        r = rng.standard_normal(6)
        f = gsvd(J, L.matrix)
        assert np.linalg.norm(lm_step_gsvd(f, r, 1e12)) < 1e-10


class TestQcondResidual:
    def test_identity_closed_form(self):
        r = np.array([3.0, 4.0])
        f = gsvd(np.eye(2), np.eye(2))
        for lam in (1e-3, 0.1, 1.0, 42.0):
            expected = lam / (1.0 + lam) * 5.0
            assert qcond_residual(np.eye(2), f, r, lam) == pytest.approx(expected)
            assert qcond_residual(np.eye(2), identity(2), r, lam) == pytest.approx(expected)

    def test_small_lambda_limit_is_range_complement(self):
        J = np.array([[0.0], [1.0]])
        r = np.array([1.0, 0.1])
        # projector onto range(J)^perp keeps the first component
        assert qcond_residual(J, identity(1), r, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_nondecreasing_on_grid(self):
        rng = np.random.default_rng(17)
        J = rng.standard_normal((6, 4))
        L = from_matrix(rng.standard_normal((3, 4)))
        r = rng.standard_normal(6)
        f = gsvd(J, L.matrix)
        vals = [qcond_residual(J, f, r, lam) for lam in np.logspace(-8, 4, 50)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestSelectLambda:
    def test_identity_pair_closed_form(self):
        lam, kind = select_lambda_q(np.eye(2), identity(2), np.array([3.0, 4.0]), 0.5, CFG)
        assert kind == "equality"
        assert lam == pytest.approx(1.0, rel=1e-6)

    def test_interval_bound_with_zeta_two(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        rng = np.random.default_rng(2)
        r = in_range_residual(rng, A)
        lam, kind = select_lambda_q(A, identity(2), r, 0.5, CFG)
        assert kind == "equality"
        assert 0.0 < lam <= 0.5 / 0.5 * 4.0 * (1.0 + 1e-8)

    def test_unsolvable_triggers_fallback(self):
        J = np.array([[0.0], [1.0]])
        r = np.array([1.0, 0.1])
        # ||P r|| = 1 > q ||r||
        assert 1.0 > 0.5 * np.linalg.norm(r)
        lam, kind = select_lambda_q(J, identity(1), r, 0.5, CFG)
        assert kind == "inequality-fallback"
        f = gsvd(J, np.eye(1))
        zeta_p = generalized_singular_values(f)[-1]
        assert lam == pytest.approx(0.5 * 0.5 / 0.5 * zeta_p**2)

    def test_zero_gradient_rejected(self):
        J = np.array([[1.0], [0.0]])
        with pytest.raises(ZeroGradient):
            select_lambda_q(J, identity(1), np.array([0.0, 1.0]), 0.5, CFG)

    def test_vanishing_spectrum_is_bracket_failure(self):
        # J acts only on the null space of L, so every zeta_i is zero and
        # the admissible interval collapses
        J = np.array([[0.0, 0.0], [0.0, 1.0]])
        L = from_matrix([[1.0, 0.0]])
        with pytest.raises(lmmss.BracketFailure):
            select_lambda_q(J, L, np.array([1.0, 1.0]), 0.5, CFG)

    def test_returned_lambda_meets_target(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            J = rng.standard_normal((n + 2, n))
            L = identity(n)
            r = in_range_residual(rng, J)
            q = float(rng.uniform(0.3, 0.8))
            lam, kind = select_lambda_q(J, L, r, q, CFG)
            if kind == "equality":
                val = qcond_residual(J, L, r, lam)
                assert abs(val - q * np.linalg.norm(r)) <= CFG.lambda_root_tol * np.linalg.norm(r)


class TestDiscrepancy:
    def test_examples(self):
        assert not discrepancy_reached(0.25, 2.0, 0.1)
        assert discrepancy_reached(0.19, 2.0, 0.1)
        assert discrepancy_reached(0.0, 2.0, 0.0)
        assert not discrepancy_reached(1e-300, 2.0, 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            discrepancy_reached(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            discrepancy_reached(1.0, 2.0, -0.1)


class TestSolve:
    def test_linear_contraction(self):
        prob = make_problem("linear", 16)
        data = make_noisy_data(prob.y_exact, 0.04, seed=3)
        rng = np.random.default_rng(7)
        x0 = unit_residual_start(prob, data.y_delta, rng.standard_normal(16))
        run = solve(prob, data, identity(16), x0, SolverConfig(q=0.5, tau=2.5))
        assert run.stop_reason == "discrepancy"
        assert run.k_star == 4
        res = [rec.res_norm for rec in run.trace]
        np.testing.assert_allclose(res, [1.0, 0.5, 0.25, 0.125, 0.0625], atol=5e-8)

    def test_immediate_stop_single_record(self):
        prob = make_problem("linear", 8)
        data = make_noisy_data(prob.y_exact, 0.01, seed=0)
        run = solve(prob, data, identity(8), prob.x_dagger, SolverConfig(q=0.5, tau=2.5))
        assert run.stop_reason == "discrepancy"
        assert run.k_star == 0
        assert len(run.trace) == 1
        assert run.zeta_hat is None

    def test_discrepancy_contract_and_lambda_interval(self):
        prob = make_problem("coefficient", 12)
        data = make_noisy_data(prob.y_exact, 1e-3, seed=5)
        cfg = SolverConfig(q=0.6, tau=3.5)
        x0 = prob.x_dagger + 0.05
        run = solve(prob, data, identity(12), x0, cfg)
        assert run.stop_reason == "discrepancy"
        threshold = cfg.tau * data.delta
        assert run.trace[-1].res_norm <= threshold
        for rec in run.trace[:-1]:
            assert rec.res_norm > threshold
            bound = cfg.q / (1.0 - cfg.q) * rec.zeta_p**2
            assert 0.0 < rec.lam <= bound * (1.0 + cfg.lambda_root_tol)
        assert run.zeta_hat == max(rec.zeta_p for rec in run.trace[:-1])

    def test_exact_mode_reaches_res_tol(self):
        prob = make_problem("autoconvolution", 12)
        x0 = prob.x_dagger + 0.03
        cfg = SolverConfig(q=0.5, tau=2.5, grad_tol=1e-300)
        run = solve(prob, None, identity(12), x0, cfg)
        assert run.stop_reason == "res_tol"
        assert run.trace[-1].res_norm <= 1e-10 * run.trace[0].res_norm

    def test_max_iter_cap(self):
        prob = make_problem("linear", 8)
        cfg = SolverConfig(q=0.9, tau=1.2, max_iter=3, res_tol=1e-300, grad_tol=1e-300)
        run = solve(prob, None, identity(8), np.ones(8), cfg)
        assert run.stop_reason == "max_iter"
        assert run.k_star == 3
        assert len(run.trace) == 4

    def test_zero_gradient_hard_stop(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = InverseProblem(
            name="rank-deficient",
            eval_F=lambda x: A @ x,
            eval_J=lambda x: A,
            m=2,
            n=2,
            y_exact=np.array([0.0, 1.0]),
        )
        data = make_noisy_data(prob.y_exact, 1e-3, seed=0, direction=[0.0, 1.0])
        run = solve(prob, data, identity(2), np.zeros(2), SolverConfig(q=0.5, tau=2.5))
        assert run.stop_reason == "qcond_unsolvable_hard"

    def test_nonlinear_desk_run(self):
        prob = make_problem("coefficient", 16)
        L = identity(16)
        t = np.arange(1, 17) / 17.0
        x0 = prob.x_dagger + 0.05 * np.cos(2 * np.pi * t)
        data = make_noisy_data(prob.y_exact, 1e-2, seed=4)
        run = solve(prob, data, L, x0, SolverConfig(q=0.7, tau=2.5))
        assert run.stop_reason == "discrepancy"
        assert run.trace[-1].res_norm <= 2.5e-2
        dists = [seminorm(L, rec.x - prob.x_dagger) for rec in run.trace]
        slack = 1e-12 * (1.0 + dists[0])
        assert all(b <= a + slack for a, b in zip(dists, dists[1:]))

    def test_exact_mode_gradient_stop(self):
        # ill-conditioned linear operator: the gradient collapses while the
        # residual is still above the residual cutoff
        prob = make_problem("linear", 32)
        cfg = SolverConfig(q=0.5, tau=2.5, grad_tol=1e-12, res_tol=1e-300)
        run = solve(prob, None, identity(32), np.zeros(32), cfg)
        assert run.stop_reason == "grad_tol"

    def test_completeness_violation_reports_iterate(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = InverseProblem(
            name="shared-null",
            eval_F=lambda x: A @ x,
            eval_J=lambda x: A,
            m=2,
            n=2,
            y_exact=np.array([1.0, 0.0]),
        )
        L = from_matrix([[1.0, 0.0]])
        with pytest.raises(lmmss.CompletenessViolated, match="iterate 0"):
            solve(prob, None, L, np.zeros(2), SolverConfig(q=0.5, tau=2.5))

    def test_bracket_failure_reports_iterate(self):
        # the damped direction e1 is annihilated by J, so zeta_p = 0
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        prob = InverseProblem(
            name="flat-damped-direction",
            eval_F=lambda x: A @ x,
            eval_J=lambda x: A,
            m=2,
            n=2,
            y_exact=np.array([1.0, 0.0]),
        )
        L = from_matrix([[1.0, 0.0]])
        with pytest.raises(lmmss.BracketFailure, match="^iterate 0: .*admissible interval is empty"):
            solve(prob, None, L, np.zeros(2), SolverConfig(q=0.5, tau=2.5))

    def test_evaluation_failure_propagates(self):
        prob = make_problem("coefficient", 8)
        x0 = np.full(8, -1.0)  # below the positivity floor
        with pytest.raises(lmmss.NonpositiveCoefficient):
            solve(prob, None, identity(8), x0, SolverConfig(q=0.6, tau=3.5))

    def test_noisy_zero_delta_behaves_as_exact(self):
        prob = make_problem("linear", 8)
        data = make_noisy_data(prob.y_exact, 0.0, seed=1)
        cfg = SolverConfig(q=0.5, tau=2.5, grad_tol=1e-300)
        run = solve(prob, data, identity(8), np.zeros(8), cfg)
        assert run.mode == "exact"
        assert run.stop_reason == "res_tol"

    def test_linearized_residual_bracket_along_exact_run(self):
        # (1 - q/theta) res <= ||J (x* - x_k)|| <= (1 + q/theta) res
        prob = make_problem("coefficient", 12)
        L = identity(12)
        t = np.arange(1, 13) / 13.0
        x0 = prob.x_dagger + 0.05 * np.cos(2 * np.pi * t)
        q = 0.6
        cfg = SolverConfig(q=q, tau=3.5, grad_tol=1e-300)
        run = solve(prob, None, L, x0, cfg)
        est = lmmss.estimate_tcc_constant(
            prob, L, x0, rho=2 * seminorm(L, x0 - prob.x_dagger), samples=150, seed=2
        )
        theta = lmmss.theta_exact(q, est.c_hat, seminorm(L, x0 - prob.x_dagger))
        assert theta > 1.0
        for rec in run.trace:
            if rec.res_norm < 1e-9:
                continue  # below evaluation noise the bracket is meaningless
            jerr = np.linalg.norm(prob.evaluate_J(rec.x) @ (prob.x_dagger - rec.x))
            assert (1.0 - q / theta) * rec.res_norm <= jerr + 1e-12
            assert jerr <= (1.0 + q / theta) * rec.res_norm + 1e-12


class TestLambdaContinuity:
    def test_perturbed_data_moves_lambda_linearly(self):
        rng = np.random.default_rng(31)
        cfg = SolverConfig(q=0.5, tau=2.5, lambda_root_tol=1e-12)
        J = rng.standard_normal((6, 6))
        L = first_difference(6)
        r = rng.standard_normal(6)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        lam0, kind = select_lambda_q(J, L, r, 0.5, cfg)
        assert kind == "equality"
        eps = 1e-3
        diffs = []
        for _ in range(4):
            lam_eps, _ = select_lambda_q(J, L, r - eps * u, 0.5, cfg)
            diffs.append(abs(lam_eps - lam0))
            eps /= 2
        for a, b in zip(diffs, diffs[1:]):
            assert b <= 0.7 * a


class TestCompletenessRule:
    # [J; L] has singular values 1 and t, so the rule
    # s_min^2 > 1e-10 (1 + 2 s_max^2) reads t^2 > 3e-10.
    @pytest.mark.parametrize(
        "t2, holds",
        [
            (3.003e-10, True),
            (2.997e-10, False),
            (2.5e-10, False),  # accepted by the earlier normal-equations rule
        ],
    )
    def test_gsvd_check_and_solve_agree(self, t2, holds):
        u = np.sqrt(t2 / 2.0)
        J = np.array([[1.0, 0.0], [0.0, u]])
        L = from_matrix([[0.0, u]])
        # the earlier rule, gamma > 1e-10 (1 + ||J||^2 + ||L||^2), passed all three
        assert t2 > 1e-10 * (1.0 + np.linalg.norm(J, 2) ** 2 + np.linalg.norm(L.matrix, 2) ** 2)
        rep = lmmss.completeness_check(J, L)
        assert rep.gamma == pytest.approx(t2, rel=1e-12)
        assert rep.holds is holds
        prob = InverseProblem(
            name="near-floor", eval_F=lambda x: J @ x, eval_J=lambda x: J,
            m=2, n=2, y_exact=np.array([1.0, 1.0]),
        )
        cfg = SolverConfig(q=0.5, tau=2.5, max_iter=3)
        if holds:
            gsvd(J, L)
            assert solve(prob, None, L, np.zeros(2), cfg).stop_reason == "max_iter"
        else:
            with pytest.raises(lmmss.CompletenessViolated):
                gsvd(J, L)
            with pytest.raises(lmmss.CompletenessViolated, match="^iterate 0: "):
                solve(prob, None, L, np.zeros(2), cfg)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("spec", ["identity", "d2"])
@pytest.mark.parametrize("n", [32, 48, 64, 128])
@pytest.mark.parametrize("name", ["linear", "autoconvolution", "coefficient"])
def test_size_ladder(name, n, spec, seed):
    # Every bundled problem and scaling reaches the discrepancy rule at every
    # ladder size, with the linearized residual never above the residual and
    # the q-condition met at equality steps.
    prob = make_problem(name, n)
    data = make_noisy_data(prob.y_exact, 1e-3, seed=seed)
    cfg = SolverConfig(q=0.6, tau=3.5, max_iter=200)
    run = solve(prob, data, from_spec(spec, n), prob.x0_default, cfg)
    assert run.stop_reason == "discrepancy"
    steps = run.trace[:-1]
    assert steps
    for rec in steps:
        assert rec.lin_res_norm <= rec.res_norm
        if rec.qcond_kind == "equality":
            assert abs(rec.lin_res_norm / rec.res_norm - cfg.q) <= 1e-8
