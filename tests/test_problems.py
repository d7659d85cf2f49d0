import dataclasses
import inspect

import numpy as np
import pytest

from lmmss import (
    DimensionMismatch,
    DimensionTooSmall,
    EvaluationFailure,
    InverseProblem,
    NegativeDelta,
    NoisyData,
    NonFiniteInput,
    NonpositiveCoefficient,
    make_noisy_data,
    make_problem,
    problem_autoconvolution,
    problem_coefficient_identification,
    problem_from_files,
    problem_linear_illposed,
)
from lmmss.problems import A_MIN, _conductivity_forward, _conductivity_halfpoints
from helpers import (
    central_diff_jacobian,
    coefficient_forward_reference,
    coefficient_sensitivity_reference,
)

ALL_NAMES = ("linear", "autoconvolution", "coefficient")


class TestNoisyData:
    def test_zero_delta_is_exact(self):
        y = np.array([2.0, -1.0, 0.5])
        for seed in (0, 1, 99):
            np.testing.assert_array_equal(make_noisy_data(y, 0.0, seed).y_delta, y)

    def test_norm_equality(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(20)
        data = make_noisy_data(y, 1e-3, seed=4)
        assert np.linalg.norm(y - data.y_delta) == pytest.approx(1e-3, abs=1e-15)

    def test_negative_delta(self):
        with pytest.raises(NegativeDelta):
            make_noisy_data(np.ones(3), -0.1)

    @pytest.mark.parametrize(
        "y_delta, delta, error, match",
        [
            (np.ones((2, 2)), 1e-3, DimensionMismatch, r"y_delta must be 1-D, got shape \(2, 2\)"),
            (np.array(0.3), 1e-3, DimensionMismatch, r"y_delta must be 1-D, got shape \(\)"),
            (np.array([1.0, np.nan]), 1e-3, NonFiniteInput, "y_delta has a NaN or infinite entry"),
            (np.array([1.0, -np.inf]), 1e-3, NonFiniteInput, "y_delta has a NaN or infinite entry"),
            (np.ones(2), np.nan, NonFiniteInput, "delta must be finite, got nan"),
            (np.ones(2), np.inf, NonFiniteInput, "delta must be finite, got inf"),
            (np.ones(2), -0.1, NegativeDelta, "delta must be nonnegative, got -0.1"),
        ],
        ids=["2-D", "0-D", "nan-entry", "inf-entry", "nan-delta", "inf-delta", "negative-delta"],
    )
    def test_malformed_data_rejected(self, y_delta, delta, error, match):
        with pytest.raises(error, match=match):
            NoisyData(y_delta=y_delta, delta=delta, seed=0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_make_noisy_data_rejects_non_finite_delta(self, delta):
        with pytest.raises(NonFiniteInput, match="delta must be finite"):
            make_noisy_data(np.ones(3), delta)

    def test_reproducible_per_seed(self):
        y = np.arange(5, dtype=float)
        a = make_noisy_data(y, 0.2, seed=7)
        b = make_noisy_data(y, 0.2, seed=7)
        np.testing.assert_array_equal(a.y_delta, b.y_delta)
        c = make_noisy_data(y, 0.2, seed=8)
        assert np.any(c.y_delta != a.y_delta)


class TestBundledInvariants:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_zero_residual_certificate(self, name):
        prob = make_problem(name, 16)
        gap = np.linalg.norm(prob.evaluate_F(prob.x_dagger) - prob.y_exact)
        assert gap <= 1e-10 * (1.0 + np.linalg.norm(prob.y_exact))
        assert prob.m >= prob.n

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_jacobian_vs_finite_differences(self, name):
        prob = make_problem(name, 12)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = prob.x_dagger + 0.1 * rng.standard_normal(prob.n)
            if name == "coefficient":
                x = np.clip(x, 0.2, None)
            J = prob.evaluate_J(x)
            Jfd = central_diff_jacobian(prob.evaluate_F, x)
            assert np.abs(J - Jfd).max() <= 1e-5 * max(np.abs(J).max(), 1.0)


class TestLinearProblem:
    def test_jacobian_constant(self):
        prob = problem_linear_illposed(10)
        J1 = prob.evaluate_J(np.zeros(10))
        J2 = prob.evaluate_J(np.ones(10))
        np.testing.assert_array_equal(J1, J2)
        np.testing.assert_allclose(prob.evaluate_F(np.ones(10)), J1 @ np.ones(10))

    def test_taylor_remainder_vanishes(self):
        prob = problem_linear_illposed(10)
        rng = np.random.default_rng(1)
        x, xt = rng.standard_normal(10), rng.standard_normal(10)
        rem = prob.evaluate_J(x) @ (xt - x) - prob.evaluate_F(xt) + prob.evaluate_F(x)
        assert np.linalg.norm(rem) <= 1e-14

    @pytest.mark.parametrize("n", [32, 48])
    def test_condition_number_growth(self, n):
        A = problem_linear_illposed(n).evaluate_J(np.zeros(n))
        s = np.linalg.svd(A, compute_uv=False)
        assert s[0] / s[-1] > 1e6

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            problem_linear_illposed(3)


class TestAutoconvolution:
    def test_zero_maps_to_zero(self):
        prob = problem_autoconvolution(10)
        np.testing.assert_array_equal(prob.evaluate_F(np.zeros(10)), np.zeros(10))

    def test_jacobian_vs_finite_differences(self):
        prob = problem_autoconvolution(14)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = 1.0 + 0.5 * rng.standard_normal(14)
            J = prob.evaluate_J(x)
            Jfd = central_diff_jacobian(prob.evaluate_F, x)
            assert np.abs(J - Jfd).max() <= 1e-6 * max(np.abs(J).max(), 1.0)

    def test_jacobian_affine_in_state(self):
        # quadratic map: J(x + 2d) - J(x) = 2 (J(x + d) - J(x))
        prob = problem_autoconvolution(10)
        rng = np.random.default_rng(2)
        x, d = rng.standard_normal(10), rng.standard_normal(10)
        J0 = prob.evaluate_J(x)
        J1 = prob.evaluate_J(x + d)
        J2 = prob.evaluate_J(x + 2 * d)
        np.testing.assert_allclose(J2 - J0, 2 * (J1 - J0), atol=1e-12)

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            problem_autoconvolution(7)


class TestCoefficientProblem:
    def test_constant_coefficient_parabola(self):
        # the forward solve with the constant source f = 1
        n = 24
        h = 1.0 / (n + 1)
        t = np.arange(1, n + 1) * h
        a0 = 1.7
        S = np.arange(n + 1) * (h * h)  # the partial sums of h^2 f from 0
        u = _conductivity_forward(_conductivity_halfpoints(np.full(n, a0)), S)[2]
        # the three-point stencil is exact for quadratics
        np.testing.assert_allclose(u, t * (1 - t) / (2 * a0), atol=1e-13)

    def test_default_source_closed_form(self):
        n = 40
        prob = problem_coefficient_identification(n)
        t = np.arange(1, n + 1) / (n + 1)
        u = prob.evaluate_F(np.full(n, 2.0))
        h = 1.0 / (n + 1)
        assert np.abs(u - (np.cos(2 * np.pi * t) - 1.0) / 2.0).max() <= 40.0 * h**2

    def test_jacobian_at_exact_solution(self):
        prob = problem_coefficient_identification(12)
        J = prob.evaluate_J(prob.x_dagger)
        Jfd = central_diff_jacobian(prob.evaluate_F, prob.x_dagger)
        assert np.abs(J - Jfd).max() <= 1e-6 * np.abs(J).max()

    def test_boundary_columns_least_sensitive(self):
        prob = problem_coefficient_identification(24)
        J = prob.evaluate_J(prob.x_dagger)
        norms = np.linalg.norm(J, axis=0)
        assert norms[0] < np.median(norms)
        assert norms[-1] < np.median(norms)
        # sensitivity climbs over the first few interior nodes
        assert norms[0] < norms[1] < norms[2]
        assert norms[-1] < norms[-2] < norms[-3]

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than double here: no extended-precision reference",
    )
    @pytest.mark.parametrize("point", ["x0", "perturbed-x-dagger", "log-uniform"])
    @pytest.mark.parametrize("n", [32, 128])
    def test_jacobian_matches_extended_precision_elimination(self, n, point):
        # F, J and J v against a long-double elimination; J and J v at the
        # problem's own forward solution.  The reference's pivots subtract
        # nothing, so its error is a small multiple of n eps_ld
        # (eps_ld = 1.1e-19), below 1e-18 against 60-digit arithmetic at
        # these points.  The closed form rounds R, w and c a bounded number
        # of times and sums positive resistances, so to first order
        # |dJ_ij| <= (i + 5) u M_ij, with u = 1.1e-16 and M = CR |c|^T + |P|
        # where c and P are formed from |top| and |bottom|.  The normwise
        # error is then at most (n + 5) u kappa, and
        # kappa = ||M||_F / ||J||_F is 2.7 to 3.4 here.  Rounding errors of a
        # sum grow like sqrt(n) rather than n in practice, which puts the
        # expected error near sqrt(n + 5) u kappa, 4.4e-15 at most; it is
        # 7.2e-16 or less at all six points.  The 1e-14 gate keeps a factor
        # two over that estimate.
        #
        # F is the same expression at w = S, the partial sums of h^2 f, which
        # change sign: the same analysis with M_i = CR_i sum(R |S|) / sum(R)
        # + cumsum(R |S|)_i, |S| the partial sums of |h^2 f| (which also
        # bound the rounding of S), gives kappa = ||M|| / ||u|| = 8.6 to 13.5
        # and sqrt(n + 5) u kappa = 6.0e-15 to 1.3e-14; the error is 4.3e-16
        # or less.  The 3e-14 gate keeps a factor two over that estimate.  A
        # solve that assembles T's diagonal am_i + am_{i+1} rounds the smaller
        # conductivity away and then cancels: on the log-uniform profile it
        # is 4.3e-13 off at n = 32 and 8.6e-11 at n = 128.
        prob = problem_coefficient_identification(n)
        rng = np.random.default_rng(17)
        a = {
            "x0": prob.x0_default,
            "perturbed-x-dagger": prob.x_dagger * (1.0 + 0.1 * rng.standard_normal(n)),
            "log-uniform": 10.0 ** rng.uniform(-3.0, 3.0, n),
        }[point]
        v = rng.standard_normal(n)
        u = prob.evaluate_F(a)
        want = coefficient_forward_reference(a)
        assert np.linalg.norm(u - want) <= 3e-14 * np.linalg.norm(want)
        for got, V in ((prob.evaluate_J(a), np.eye(n)), (prob.evaluate_jvp(a, v), v)):
            want = coefficient_sensitivity_reference(a, u, V)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_nan_conductivity_is_an_evaluation_failure(self):
        # a NaN or infinite conductivity, at the boundary or inside, makes a
        # resistance NaN or 0; the resistance form would give a finite u on a
        # zero resistance, so F, J and J v refuse it by name
        prob = problem_coefficient_identification(8)
        for value in (np.nan, np.inf):
            for where in (0, 3):
                bad = np.ones(8)
                bad[where] = value
                for evaluate in (
                    prob.evaluate_F,
                    prob.evaluate_J,
                    lambda x: prob.evaluate_jvp(x, np.ones(8)),
                ):
                    with pytest.raises(EvaluationFailure, match="^conductivity is NaN or infinite$"):
                        evaluate(bad)

    def test_positivity_floor(self):
        prob = problem_coefficient_identification(8)
        bad = np.ones(8)
        bad[3] = 0.0
        with pytest.raises(NonpositiveCoefficient):
            prob.evaluate_F(bad)
        with pytest.raises(NonpositiveCoefficient):
            prob.evaluate_J(bad)

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            problem_coefficient_identification(7)


class TestInverseProblemWrapper:
    def test_shape_and_finiteness_guards(self):
        prob = InverseProblem(
            name="bad", eval_F=lambda x: np.array([np.inf]), eval_J=lambda x: np.eye(1),
            n=1, y_exact=np.zeros(1),
        )
        with pytest.raises(EvaluationFailure):
            prob.evaluate_F(np.zeros(1))

    @pytest.mark.parametrize(
        "eval_J, message",
        [
            (lambda x: 1 / 0, "Jacobian evaluation failed: division by zero"),
            (lambda x: np.eye(3), r"Jacobian evaluation returned shape \(3, 3\), expected \(2, 2\)"),
            (lambda x: np.full((2, 2), np.nan), "Jacobian evaluation returned non-finite values"),
        ],
        ids=["raises", "shape", "non-finite"],
    )
    def test_jacobian_guards(self, eval_J, message):
        prob = InverseProblem(
            name="bad-J", eval_F=lambda x: x, eval_J=eval_J, n=2, y_exact=np.zeros(2),
        )
        with pytest.raises(EvaluationFailure, match=message):
            prob.evaluate_J(np.zeros(2))

    def test_data_length_fixes_m(self):
        # m is the length of y_exact; a forward map of another length fails
        # at evaluation, naming both shapes
        prob = InverseProblem(
            name="long", eval_F=lambda x: np.zeros(3), eval_J=lambda x: np.zeros((3, 2)),
            n=2, y_exact=np.zeros(2),
        )
        assert prob.m == 2
        with pytest.raises(EvaluationFailure, match=r"shape \(3,\), expected \(2,\)"):
            prob.evaluate_F(np.zeros(2))
        with pytest.raises(DimensionMismatch, match="1-D"):
            InverseProblem(
                name="flat", eval_F=lambda x: x, eval_J=lambda x: np.eye(2),
                n=2, y_exact=np.zeros((2, 1)),
            )

    def test_inconsistent_exact_solution_rejected(self):
        with pytest.raises(ValueError):
            InverseProblem(
                name="bad", eval_F=lambda x: x, eval_J=lambda x: np.eye(2), n=2,
                y_exact=np.ones(2), x_dagger=np.zeros(2),
            )

    @pytest.mark.parametrize("where", ["x_dagger", "y_exact"])
    def test_non_finite_exact_solution_rejected(self, where):
        # a NaN must be named at construction, not slip into the zero-residual check
        x_dagger, y_exact = np.ones(3), np.ones(3)
        {"x_dagger": x_dagger, "y_exact": y_exact}[where][0] = np.nan
        with pytest.raises(NonFiniteInput, match=f"{where} has a NaN or infinite entry"):
            InverseProblem(
                name="nan", eval_F=lambda x: x, eval_J=lambda x: np.eye(3), n=3,
                y_exact=y_exact, x_dagger=x_dagger,
            )

    def test_infinite_data_without_solution_rejected(self):
        # without x_dagger there is no zero-residual check to catch it; an
        # exact-data solve would otherwise stop at once with residual inf
        A = np.eye(4) + 0.1
        with pytest.raises(NonFiniteInput, match="y_exact has a NaN or infinite entry"):
            InverseProblem(
                name="inf-data", eval_F=lambda x: A @ x, eval_J=lambda x: A, n=4,
                y_exact=np.array([1.0, np.inf, 1.0, 1.0]),
            )

    def test_infinite_solution_named_not_gap(self):
        with pytest.raises(NonFiniteInput, match="x_dagger has a NaN or infinite entry") as exc:
            InverseProblem(
                name="inf-solution", eval_F=lambda x: x, eval_J=lambda x: np.eye(3), n=3,
                y_exact=np.ones(3), x_dagger=np.array([1.0, -np.inf, 1.0]),
            )
        assert "gap" not in str(exc.value)

    def test_unknown_problem_name(self):
        with pytest.raises(ValueError, match="autoconvolution"):
            make_problem("nosuch", 10)


def in_domain_point_and_direction(prob, seed):
    rng = np.random.default_rng(seed)
    x = prob.x_dagger + 0.2 * rng.standard_normal(prob.n)
    return np.clip(x, 0.2, None), rng.standard_normal(prob.n)


class TestJacobianVectorProduct:
    @pytest.mark.parametrize("n", [16, 32, 128])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_hook_matches_dense_product(self, name, n):
        prob = make_problem(name, n)
        assert prob.eval_jvp is not None
        for seed in range(5):
            x, v = in_domain_point_and_direction(prob, seed)
            want = prob.evaluate_J(x) @ v
            got = prob.evaluate_jvp(x, v)
            assert got.shape == (prob.m,)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [8, 32, 128])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_jacobian_columns_are_hook_products_bit_for_bit(self, name, n):
        # J is the product's matrix: column j has the bytes of J e_j, at a
        # point other than x0, and a second J has the first one's bytes.  The
        # coefficient J comes in F order, as LAPACK reads it.
        prob = make_problem(name, n)
        x, _ = in_domain_point_and_direction(prob, 11)
        assert not np.array_equal(x, prob.x0_default)
        J = prob.evaluate_J(x)
        if name == "coefficient":
            assert J.flags.f_contiguous
        for j, e_j in enumerate(np.eye(n)):
            assert J[:, j].tobytes() == prob.evaluate_jvp(x, e_j).tobytes(), j
        assert prob.evaluate_J(x).tobytes() == J.tobytes()

    @pytest.mark.parametrize("n", [8, 128])
    def test_coefficient_identity_halfpoints_built_once_read_only(self, n):
        # J reads halfpoints(I) through its two nonzeros per column, the
        # weights on the diagonal and below it, and places the partial sums
        # below the diagonal by a strictly lower mask; neither depends on the
        # point, so the problem keeps one of each, which no evaluation may
        # change
        prob = problem_coefficient_identification(n)
        kept = inspect.getclosurevars(prob.eval_J).nonlocals
        weights = kept["halfpoint_weights"]
        np.testing.assert_array_equal(
            np.eye(n + 1, n) * weights[0] + np.eye(n + 1, n, k=-1) * weights[1],
            _conductivity_halfpoints(np.eye(n)),
        )
        np.testing.assert_array_equal(kept["strictly_lower"], np.tri(n, k=-1, dtype=bool))
        for array in (weights, kept["strictly_lower"]):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = array[0, 0]

    def test_from_files_has_hook(self, tmp_path):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 4))
        np.savetxt(tmp_path / "A.txt", A, fmt="%.17g")
        np.savetxt(tmp_path / "y.txt", A @ np.ones(4), fmt="%.17g")
        prob = problem_from_files(tmp_path / "A.txt", tmp_path / "y.txt")
        assert prob.eval_jvp is not None
        v = rng.standard_normal(4)
        np.testing.assert_allclose(prob.evaluate_jvp(np.zeros(4), v), A @ v, rtol=1e-14)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_no_hook_falls_back_to_jacobian(self, name):
        prob = dataclasses.replace(make_problem(name, 16), eval_jvp=None)
        x, v = in_domain_point_and_direction(prob, 9)
        assert prob.evaluate_jvp(x, v).tobytes() == (prob.evaluate_J(x) @ v).tobytes()

    @pytest.mark.parametrize("hook", [True, False])
    def test_wrong_lengths_rejected(self, hook):
        prob = make_problem("autoconvolution", 16)
        if not hook:
            prob = dataclasses.replace(prob, eval_jvp=None)
        with pytest.raises(DimensionMismatch, match=r"x has shape \(15,\), expected \(16,\)"):
            prob.evaluate_jvp(np.ones(15), np.ones(16))
        with pytest.raises(DimensionMismatch, match=r"v has shape \(17,\), expected \(16,\)"):
            prob.evaluate_jvp(np.ones(16), np.ones(17))

    @pytest.mark.parametrize(
        "eval_jvp, message",
        [
            (lambda x, v: 1 / 0, "product failed: division by zero"),
            (lambda x, v: np.ones(3), r"product returned shape \(3,\), expected \(2,\)"),
            (lambda x, v: np.array([1.0, np.nan]), "product returned non-finite values"),
        ],
        ids=["raises", "shape", "non-finite"],
    )
    def test_hook_guards(self, eval_jvp, message):
        prob = InverseProblem(
            name="bad-jvp", eval_F=lambda x: x, eval_J=lambda x: np.eye(2), n=2,
            y_exact=np.zeros(2), eval_jvp=eval_jvp,
        )
        with pytest.raises(EvaluationFailure, match=f"^Jacobian-vector {message}"):
            prob.evaluate_jvp(np.zeros(2), np.ones(2))

    def test_coefficient_positivity_floor(self):
        prob = problem_coefficient_identification(8)
        bad = np.ones(8)
        bad[3] = 0.5 * A_MIN
        with pytest.raises(NonpositiveCoefficient):
            prob.evaluate_jvp(bad, np.ones(8))


class TestProblemFromFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((6, 4))
        x = rng.standard_normal(4)
        np.savetxt(tmp_path / "A.txt", A)
        np.savetxt(tmp_path / "y.txt", A @ x)
        np.savetxt(tmp_path / "x.txt", x)
        prob = problem_from_files(
            tmp_path / "A.txt", tmp_path / "y.txt", tmp_path / "x.txt"
        )
        assert prob.m == 6 and prob.n == 4
        np.testing.assert_allclose(prob.evaluate_F(x), prob.y_exact, atol=1e-12)
        assert prob.x_dagger is not None
