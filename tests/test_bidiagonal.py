"""The identity-scaled bidiagonal path: ``bidiagonalize`` and its use in ``solve``."""

import numpy as np
import pytest

import lmmss
from lmmss import (
    CompletenessViolated,
    SolverConfig,
    generalized_singular_values,
    gsvd,
    lm_step_gsvd,
    make_noisy_data,
    make_problem,
    solve,
)
from lmmss import _lapack
from lmmss.gsvd import bidiagonalize
from lmmss.scaling import from_spec, identity
from lmmss.solver import _omega_kernel
from helpers import in_range_residual, lm_step_reference, omega_reference


def _problem_pair(name, n):
    prob = make_problem(name, n)
    data = make_noisy_data(prob.y_exact, 1e-3, seed=1)
    x = prob.x0_default
    return prob.evaluate_J(x), prob.evaluate_F(x) - data.y_delta


def _tall_pair(n):
    rng = np.random.default_rng(n)
    J = rng.standard_normal((n + 17, n)) @ np.diag(np.geomspace(1.0, 1e-6, n))
    return J, in_range_residual(rng, J)


@pytest.mark.parametrize("n", [48, 128])
@pytest.mark.parametrize("source", ["linear", "autoconvolution", "coefficient", "tall"])
def test_omega_and_step_match_the_stacked_reference(source, n):
    # Over the search bracket, floor 1e-14 zeta_p^2 to top q/(1-q) zeta_p^2
    # with q = 0.6.  w itself is not compared: the signs of singular vectors
    # are a convention.  The step is as accurate as the condition number
    # zeta_p / sqrt(lam) of the regularized problem allows: at the floor of
    # the linear problem (1e7) the gsvd step also differs from the stacked one
    # by 2.5e-9 (n = 48) and 3.3e-8 (n = 128), so beyond a condition number of
    # 1e3 the step's tolerance grows with it; omega and ||r + J d|| do not.
    J, r = _tall_pair(n) if source == "tall" else _problem_pair(source, n)
    f = bidiagonalize(J)
    omega = _omega_kernel(f, r)
    zeta_p = generalized_singular_values(f)[-1]
    L = identity(n)
    for lam in np.geomspace(1e-14 * zeta_p**2, 1.5 * zeta_p**2, 9):
        want = lm_step_reference(J, r, L, lam)
        got = lm_step_gsvd(f, r, lam)
        tol = 1e-11 + 1e-14 * zeta_p / np.sqrt(lam)
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
        omega_want = omega_reference(J, L, r, lam)
        assert omega(lam) == pytest.approx(omega_want, rel=1e-11)
        assert np.linalg.norm(r + J @ got) == pytest.approx(omega_want, rel=1e-11)


@pytest.mark.parametrize("source", ["coefficient", "tall"])
def test_spectrum_matches_gsvd(source):
    J, r = _tall_pair(64) if source == "tall" else _problem_pair(source, 64)
    f, g = bidiagonalize(J), gsvd(J, identity(64))
    assert f.sigma is None  # the spectrum comes with the first projection
    sigma, mu, _, rho_perp = f.project(r)
    _, _, _, rho_perp_gsvd = g.project(r)
    np.testing.assert_allclose(sigma / mu, g.sigma / g.mu, rtol=1e-13)
    assert rho_perp == pytest.approx(rho_perp_gsvd, rel=1e-10, abs=1e-14 * np.linalg.norm(r))
    assert f.project(2.0 * r)[0] is sigma  # later projections keep the first spectrum


def _run(prob, L):
    data = make_noisy_data(prob.y_exact, 1e-3, seed=1)
    return solve(prob, data, L, prob.x0_default, SolverConfig(q=0.6, tau=3.5))


@pytest.mark.parametrize("name", ["autoconvolution", "coefficient"])
def test_both_paths_give_the_same_run(monkeypatch, name):
    prob = make_problem(name, 64)
    fast = _run(prob, identity(64))
    monkeypatch.setattr(lmmss.solver, "_BIDIAG_MIN_N", 10**9)
    slow = _run(prob, identity(64))
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
    # identity at n >= 48: the first J by gsvd, every later distinct J by
    # bidiagonalization; a linear map has one J.  Below n = 48 or for
    # another L every J goes to gsvd.
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
    if name == "linear":
        assert calls == ["gsvd"]
    elif spec == "identity" and n >= 48:
        assert calls == ["gsvd"] + ["bidiag"] * (run.k_star - 1)
    else:
        assert calls == ["gsvd"] * run.k_star


def test_unconverged_bidiagonal_svd_is_a_linalg_error(monkeypatch):
    J, r = _problem_pair("coefficient", 48)
    f = bidiagonalize(J)
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
    # 1e-5 hypot(1, s_max, s_max) = 1.41, so both factorizations refuse it
    # with the exact singular values' message.
    n = 48
    J = np.zeros((n, n))
    J[0, 0] = 1e5
    with pytest.raises(CompletenessViolated) as want:
        gsvd(J, identity(n))
    with pytest.raises(CompletenessViolated) as got:
        bidiagonalize(J)
    assert str(got.value) == str(want.value)


def test_large_jacobian_accepted_by_the_exact_values():
    # ||J||_F = 3e4 sqrt(48) is beyond the bounds, but s_min = 3e4 passes
    J = 3e4 * np.eye(48)
    f = bidiagonalize(J)
    r = np.ones(48)
    lam = 1e8
    np.testing.assert_allclose(lm_step_gsvd(f, r, lam), -3e4 / (9e8 + lam) * r, rtol=1e-14)


def test_refusal_in_solve_names_the_iterate(monkeypatch):
    prob = make_problem("coefficient", 48)

    def refuse(J):
        raise CompletenessViolated("N(A) and N(L) intersect: s_min^2 = 1.000e+00")

    monkeypatch.setattr(lmmss.solver, "bidiagonalize", refuse)
    with pytest.raises(CompletenessViolated, match="^iterate 1: N"):
        _run(prob, identity(48))
