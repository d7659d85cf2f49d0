"""The bidiagonal path: ``bidiagonalize`` for every scaling and its use in ``solve``."""

import itertools

import numpy as np
import pytest

import lmmss
from lmmss import (
    CompletenessViolated,
    GsvdFactors,
    InverseProblem,
    SolverConfig,
    generalized_singular_values,
    gsvd,
    lm_step_gsvd,
    make_noisy_data,
    make_problem,
    solve,
)
from lmmss import _lapack
from lmmss.gsvd import BidiagonalFactors, _standard_form, _x_norm_bound, bidiagonalize
from lmmss.scaling import (
    first_difference,
    from_matrix,
    from_spec,
    frobenius,
    identity,
    second_difference,
)
from lmmss.solver import _omega_kernel
from helpers import cyclic_difference, in_range_residual, lm_step_reference, omega_reference


def _problem_pair(name, n):
    prob = make_problem(name, n)
    data = make_noisy_data(prob.y_exact, 1e-3, seed=1)
    x = prob.x0_default
    return prob.evaluate_J(x), prob.evaluate_F(x) - data.y_delta


def _tall_pair(n):
    rng = np.random.default_rng(n)
    J = rng.standard_normal((n + 17, n)) @ np.diag(np.geomspace(1.0, 1e-6, n))
    return J, in_range_residual(rng, J)


def _cases(*axes):
    """The product of ``axes``, the scaling spec last; an identity case is named without it."""
    return [
        pytest.param(*case, id="-".join(map(str, case[:-1] if case[-1] == "identity" else case)))
        for case in itertools.product(*axes)
    ]


@pytest.mark.parametrize(
    "source, n, spec",
    _cases(["linear", "autoconvolution", "coefficient", "tall"], [48, 128], ["identity", "d1", "d2"]),
)
def test_omega_and_step_match_the_stacked_reference(source, n, spec):
    # Over the search bracket, floor 1e-14 zeta_p^2 to top q/(1-q) zeta_p^2
    # with q = 0.6.  w itself is not compared: the signs of singular vectors
    # are a convention.  The step is as accurate as the condition number
    # zeta_p / sqrt(lam) of the regularized problem allows: at the floor of
    # the linear problem (1e7) the gsvd step also differs from the stacked one
    # by 2.5e-9 (n = 48) and 3.3e-8 (n = 128), so beyond a condition number of
    # 1e3 the step's tolerance grows with it; omega and ||r + J d|| do not.
    # The tall source with d1 or d2 has m > n with p < n, so the projection
    # Q_perp^T J L^+ is taller than it is wide.  For p < n the standard form
    # itself can miss the stacked solution by more than these tolerances, and
    # gsvd's factors by as much: with d2 on the tall source ([J; L] has
    # condition number about 2e3) both routes agree to 7e-16 but sit 2.3e-11
    # from the stacked omega at the floor, with a step error 1.8 times the
    # tolerance.  There the bidiagonal route is held to twice gsvd's distance.
    J, r = _tall_pair(n) if source == "tall" else _problem_pair(source, n)
    L = from_spec(spec, n)
    f, g = bidiagonalize(J, L), gsvd(J, L)
    omega, omega_gsvd = _omega_kernel(f, r), _omega_kernel(g, r)
    zeta_p = generalized_singular_values(f)[-1]
    for lam in np.geomspace(1e-14 * zeta_p**2, 1.5 * zeta_p**2, 9):
        want = lm_step_reference(J, r, L, lam)
        omega_want = omega_reference(J, L, r, lam)
        step_slack = omega_slack = 0.0
        if L.p < n:
            step_slack = 2.0 * np.linalg.norm(lm_step_gsvd(g, r, lam) - want)
            omega_slack = 2.0 * abs(omega_gsvd(lam) - omega_want)
        got = lm_step_gsvd(f, r, lam)
        tol = 1e-11 + 1e-14 * zeta_p / np.sqrt(lam)
        assert np.linalg.norm(got - want) <= max(tol * np.linalg.norm(want), step_slack)
        omega_tol = max(1e-11 * omega_want, 1e-12, omega_slack)
        assert abs(omega(lam) - omega_want) <= omega_tol
        assert abs(np.linalg.norm(r + J @ got) - omega_want) <= omega_tol


@pytest.mark.parametrize("source, spec", _cases(["coefficient", "tall"], ["identity", "d1", "d2"]))
def test_spectrum_matches_gsvd(source, spec):
    J, r = _tall_pair(64) if source == "tall" else _problem_pair(source, 64)
    L = from_spec(spec, 64)
    f, g = bidiagonalize(J, L), gsvd(J, L)
    assert f.sigma is None  # the spectrum comes with the first projection
    sigma, mu, w, rho_perp = f.project(r)
    _, _, w_gsvd, rho_perp_gsvd = g.project(r)
    np.testing.assert_allclose(sigma / mu, g.sigma / g.mu, rtol=1e-13)
    # the trailing block, Q_0^T r, has no sign convention to differ by
    np.testing.assert_allclose(w[L.p:], w_gsvd[L.p:], rtol=1e-13, atol=1e-15 * np.linalg.norm(r))
    assert rho_perp == pytest.approx(rho_perp_gsvd, rel=1e-10, abs=1e-14 * np.linalg.norm(r))
    assert f.project(2.0 * r)[0] is sigma  # later projections keep the first spectrum


def _run(prob, L):
    data = make_noisy_data(prob.y_exact, 1e-3, seed=1)
    return solve(prob, data, L, prob.x0_default, SolverConfig(q=0.6, tau=3.5))


def _scaling(spec, n):
    """``from_spec``, and "square": I + 0.5 (superdiagonal), a p = n scaling whose L^+ is not I."""
    if spec == "square":
        return from_matrix(np.eye(n) + 0.5 * np.eye(n, k=1))
    return from_spec(spec, n)


@pytest.mark.parametrize(
    "name, spec", _cases(["autoconvolution", "coefficient"], ["identity", "d2", "square"])
)
def test_both_paths_give_the_same_run(monkeypatch, name, spec):
    prob = make_problem(name, 64)
    fast = _run(prob, _scaling(spec, 64))
    monkeypatch.setattr(lmmss.solver, "_BIDIAG_MIN_N", 10**9)
    slow = _run(prob, _scaling(spec, 64))
    assert fast.k_star == slow.k_star > 2
    assert fast.stop_reason == slow.stop_reason == "discrepancy"
    assert [rec.qcond_kind for rec in fast.trace] == [rec.qcond_kind for rec in slow.trace]
    for a, b in zip(fast.trace, slow.trace):
        assert np.linalg.norm(a.x - b.x) <= 1e-10 * np.linalg.norm(b.x)


@pytest.mark.parametrize(
    "name, spec, n", [("coefficient", "identity", 64), ("linear", "identity", 64),
                      ("coefficient", "identity", 32), ("coefficient", "d2", 64)],
)
def test_factorization_counts(monkeypatch, name, spec, n):
    # At n >= 48 every distinct J is bidiagonalized, for every L, and gsvd is
    # not called; a linear map's one J is bidiagonalized at step 0 and, seen
    # again at step 1, factored once more by gsvd, whose kept U re-projects
    # each later residual.  Below n = 48 every J goes to gsvd.
    calls = []

    def counting(kind, factor):
        def wrapped(*args):
            calls.append(kind)
            return factor(*args)
        return wrapped

    monkeypatch.setattr(lmmss.solver, "gsvd", counting("gsvd", gsvd))
    monkeypatch.setattr(lmmss.solver, "bidiagonalize", counting("bidiag", bidiagonalize))
    prob = make_problem(name, n)
    run = _run(prob, from_spec(spec, n))
    assert run.stop_reason == "discrepancy" and run.k_star > 2
    if n < 48:
        assert calls == ["gsvd"] * run.k_star
    elif name == "linear":
        assert calls == ["bidiag", "gsvd"]
    else:
        assert calls == ["bidiag"] * run.k_star


def test_unconverged_bidiagonal_svd_is_a_linalg_error(monkeypatch):
    J, r = _problem_pair("coefficient", 48)
    f = bidiagonalize(J, identity(48))
    call = _lapack._dbdsqr

    def unconverged(*args):
        call(*args)
        args[-1]._obj.value = 1  # info > 0: that many superdiagonals did not converge

    monkeypatch.setattr(_lapack, "_dbdsqr", unconverged)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        f.project(r)


def test_non_finite_bidiagonal_rejected():
    # dbdsqr does not return on a NaN entry of B
    with pytest.raises(ValueError, match="NaN or infinite"):
        _lapack.dbdsqr(np.array([np.nan, 1.0]), np.array([1.0]), np.ones(2))


def test_lapack_argument_errors_raise():
    a = np.asfortranarray(np.eye(3))
    d, e, tauq, taup = _lapack.dgebrd(a)
    with pytest.raises(ValueError, match="dormbr rejected argument 1"):
        _lapack.dormbr("X", "N", a, tauq, np.ones(3), 3)
    with pytest.raises(ValueError, match="dgebrd needs"):
        _lapack.dgebrd(np.eye(3))  # C order


def test_large_jacobian_refused_as_gsvd_refuses():
    # ||J|| = 1e5 with a zero column: s_min([J; I]) = 1 falls below the rule's
    # 1e-5 hypot(1, s_max, s_max) = 1.41, so the bound cannot decide, the pair
    # goes to gsvd, and both refuse it with the exact singular values' message.
    n = 48
    J = np.zeros((n, n))
    J[0, 0] = 1e5
    with pytest.raises(CompletenessViolated) as want:
        gsvd(J, identity(n))
    with pytest.raises(CompletenessViolated) as got:
        bidiagonalize(J, identity(n))
    assert str(got.value) == str(want.value)


def test_large_jacobian_accepted_by_the_exact_values():
    # ||J||_F = 3e4 sqrt(48) is beyond the bounds, but s_min = 3e4 passes
    J = 3e4 * np.eye(48)
    f = bidiagonalize(J, identity(48))
    r = np.ones(48)
    lam = 1e8
    np.testing.assert_allclose(lm_step_gsvd(f, r, lam), -3e4 / (9e8 + lam) * r, rtol=1e-14)


def test_refusal_in_solve_names_the_iterate(monkeypatch):
    prob = make_problem("coefficient", 48)
    calls = []

    def refuse(J, L):  # factors step 0's J, refuses step 1's
        calls.append(J)
        if len(calls) == 1:
            return bidiagonalize(J, L)
        raise CompletenessViolated("N(A) and N(L) intersect: s_min^2 = 1.000e+00")

    monkeypatch.setattr(lmmss.solver, "bidiagonalize", refuse)
    with pytest.raises(CompletenessViolated, match="^iterate 1: N"):
        _run(prob, identity(48))


@pytest.mark.parametrize("name", ["linear", "autoconvolution", "coefficient"])
@pytest.mark.parametrize("n", [48, 128])
@pytest.mark.parametrize("spec", ["d1", "d2"])
def test_norm_bound_covers_gsvd_x(spec, n, name):
    # Both routes read the one G of the standard form: gsvd's X starts with
    # G V diag(mu), bit for bit.  The bound that needs no V is at least
    # ||X||_F of that X, and at J(x0) of every bundled problem it decides the
    # pair (by 13x or more for d2 at n = 128), so bidiagonalize keeps it.
    prob = make_problem(name, n)
    J = prob.evaluate_J(prob.x0_default)
    L = from_spec(spec, n)
    _, _, _, G, W0_R0inv = _standard_form(np.asfortranarray(J), L)
    f = gsvd(J, L)
    assert f.X[:, : L.p].tobytes() == (G @ (f.V * f.mu)).tobytes()
    assert _x_norm_bound(G, W0_R0inv) >= frobenius(f.X)
    assert isinstance(bidiagonalize(J, L), BidiagonalFactors)


def test_undecided_pair_comes_back_as_gsvd():
    # J = 3e4 I with d2 at n = 48: G = L^+ (C = 0), so the bound reads
    # ||L^+||_F = 2.4e2 against s_max = 2.1e5 and cannot decide, while gsvd's
    # own X, whose columns carry mu_i of about 1e-4, proves the rule.
    J, L = 3e4 * np.eye(48), second_difference(48)
    f = bidiagonalize(J, L)
    assert isinstance(f, GsvdFactors)
    r = np.ones(48)
    np.testing.assert_allclose(lm_step_gsvd(f, r, 1.0), lm_step_reference(J, r, L, 1.0),
                               rtol=1e-12)


def test_constant_null_space_refused_as_gsvd_refuses():
    # J kills the constants, which d2 does too: N(J) and N(L) intersect
    n = 48
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    L = second_difference(n)
    with pytest.raises(CompletenessViolated) as want:
        gsvd(J, L)
    with pytest.raises(CompletenessViolated) as got:
        bidiagonalize(J, L)
    assert str(got.value) == str(want.value)


def test_singular_jacobian_on_the_null_space_refused_in_solve():
    # J kills the constants, which d1 does too, so J W_0 is exactly 0 and the
    # standard form refuses the pair at n = 48, on the bidiagonal route,
    # before any factorization of J L^+.
    n = 48
    J = cyclic_difference(n)
    prob = InverseProblem(name="cyclic-difference", eval_F=lambda x: J @ x,
                          eval_J=lambda x: J, n=n, y_exact=J @ np.linspace(0.0, 1.0, n))
    with pytest.raises(CompletenessViolated, match=r"^iterate 0: N\(A\) and N\(L\) intersect"):
        solve(prob, None, first_difference(n), np.zeros(n), SolverConfig(q=0.6, tau=3.5))
