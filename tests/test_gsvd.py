import numpy as np
import pytest
import scipy.linalg

from lmmss import (
    CompletenessViolated,
    DimensionMismatch,
    GsvdFactors,
    NonFiniteInput,
    RankDeficientL,
    generalized_singular_values,
    make_problem,
    validate,
)
from lmmss.gsvd import bidiagonalize, gsvd
from lmmss.scaling import (
    first_difference,
    from_matrix,
    identity,
    second_difference,
)
from helpers import (
    cyclic_difference,
    gsvd_reference,
    lm_step_reference,
    pencil_gsv_squared,
    random_pair,
)

SQ2 = np.sqrt(0.5)


def test_module_is_bound_to_its_name():
    # the package re-exports the module's classes and helpers but not the
    # function gsvd, so lmmss.gsvd names the module
    import lmmss
    import lmmss.gsvd as module

    assert lmmss.gsvd is module
    assert module.gsvd is gsvd and module.bidiagonalize is bidiagonalize


def test_identity_pair_normalization():
    f = gsvd(np.eye(2), np.eye(2))
    np.testing.assert_allclose(f.sigma, [SQ2, SQ2], atol=1e-14)
    np.testing.assert_allclose(f.mu, [SQ2, SQ2], atol=1e-14)
    np.testing.assert_allclose(generalized_singular_values(f), [1.0, 1.0], atol=1e-14)


def test_diag_pair_matches_pencil_oracle():
    A = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    L = np.eye(2)
    f = gsvd(A, L)
    zeta = generalized_singular_values(f)
    np.testing.assert_allclose(zeta, [1.0, 2.0], rtol=1e-12)
    np.testing.assert_allclose(f.sigma, [1 / np.sqrt(2), 2 / np.sqrt(5)], rtol=1e-12)
    np.testing.assert_allclose(f.mu, [1 / np.sqrt(2), 1 / np.sqrt(5)], rtol=1e-12)
    np.testing.assert_allclose(zeta**2, pencil_gsv_squared(A, L), rtol=1e-10)


def test_rank_one_scaling_pair():
    A = np.eye(2)
    L = np.array([[1.0, -1.0]])
    f = gsvd(A, L)
    rep = validate(f, A, L, tol=1e-12)
    assert rep.passed
    np.testing.assert_allclose(
        generalized_singular_values(f) ** 2, pencil_gsv_squared(A, L), rtol=1e-10
    )


def test_round_trip_and_orderings():
    rng = np.random.default_rng(7)
    for _ in range(30):
        A, L = random_pair(rng)
        f = gsvd(A, L)
        rep = validate(f, A, L, tol=1e-10)
        assert rep.passed, rep
        assert rep.normalization <= 1e-12
        assert np.all(np.diff(f.sigma) >= -1e-14)
        assert np.all(np.diff(f.mu) <= 1e-14)
        assert f.mu[-1] > 0.0
        assert np.all(f.sigma >= 0.0) and np.all(f.sigma <= 1.0)


def test_pencil_consistency_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        A, L = random_pair(rng, m_max=30, n_max=20)
        f = gsvd(A, L)
        zeta2 = np.sort(generalized_singular_values(f) ** 2)
        oracle = pencil_gsv_squared(A, L)
        np.testing.assert_allclose(zeta2, oracle, rtol=1e-8, atol=1e-12)


def test_weighted_gram_identity_random_lambda():
    # X^{-T} blockdiag(sigma^2 + lam mu^2, I) X^{-1} must equal A^T A + lam L^T L.
    rng = np.random.default_rng(3)
    for _ in range(15):
        A, L = random_pair(rng, m_max=25, n_max=15)
        f = gsvd(A, L)
        lam = 10.0 ** rng.uniform(-6, 3)
        n, p = f.n, f.p
        D = np.zeros((n, n))
        D[:p, :p] = np.diag(f.sigma**2 + lam * f.mu**2)
        D[p:, p:] = np.eye(n - p)
        Xinv = np.linalg.inv(f.X)
        lhs = Xinv.T @ D @ Xinv
        rhs = A.T @ A + lam * L.T @ L
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_determinism():
    rng = np.random.default_rng(5)
    A, L = rng.standard_normal((8, 5)), rng.standard_normal((3, 5))
    f1 = gsvd(A, L)
    f2 = gsvd(A.copy(), L.copy())
    np.testing.assert_array_equal(f1.X, f2.X)
    np.testing.assert_array_equal(f1.U, f2.U)


def test_generalized_singular_values_empty():
    f = GsvdFactors(
        U=np.zeros((3, 2)),
        V=np.zeros((0, 0)),
        X=np.eye(2),
        sigma=np.zeros(0),
        mu=np.zeros(0),
    )
    assert generalized_singular_values(f).size == 0


def test_factors_compare_and_hash_by_identity():
    f, g = gsvd(np.eye(3), np.eye(3)), gsvd(np.eye(3), np.eye(3))
    assert (f == f) is True
    assert (f == g) is False
    assert len({f, g, f}) == 2


def test_validate_detects_perturbation():
    A, L = np.eye(2), np.eye(2)
    f = gsvd(A, L)
    good = validate(f, A, L, tol=1e-10)
    assert good.passed and good.max_residual <= 1e-12
    bad = GsvdFactors(
        U=f.U, V=f.V, X=f.X, sigma=f.sigma + np.array([1e-3, 0.0]), mu=f.mu
    )
    rep = validate(bad, A, L, tol=1e-10)
    assert not rep.passed
    assert rep.recon_a == pytest.approx(1e-3, rel=0.5)


def test_validate_random_round_trip():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((10, 6))
    L = rng.standard_normal((4, 6))
    assert validate(gsvd(A, L), A, L, tol=1e-8).passed


def test_validate_shape_mismatch():
    f = gsvd(np.eye(3), np.eye(3))
    with pytest.raises(DimensionMismatch):
        validate(f, np.eye(4), np.eye(3))


@pytest.mark.parametrize(
    "A, L",
    [
        (np.zeros((2, 3)), np.eye(3)),  # m < n
        (np.eye(3), np.zeros((4, 3))),  # p > n
        (np.eye(3), np.zeros((2, 4))),  # column mismatch
        (np.eye(3), np.zeros((0, 3))),  # p < 1
    ],
)
def test_dimension_errors(A, L):
    with pytest.raises(DimensionMismatch):
        gsvd(A, L)


def test_rank_deficient_scaling_rejected():
    L = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(RankDeficientL):
        gsvd(np.eye(3), L)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [gsvd, bidiagonalize])
@pytest.mark.parametrize(
    "A, L",
    [(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0]])),
     (cyclic_difference(48), first_difference(48))],
    ids=["n2", "cyclic-d1-n48"],
)
def test_completeness_violation_detected(A, L, factor):
    # A kills N(L), so the standard form refuses the pair on both routes
    # alike, naming sigma_min(A W_0) / ||A||_F: rounding, far below the
    # tolerance
    with pytest.raises(CompletenessViolated) as got:
        factor(A, L)
    prefix = "N(A) and N(L) intersect: sigma_min(A W_0) / ||A||_F = "
    assert str(got.value).startswith(prefix)
    assert float(str(got.value)[len(prefix):]) <= 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [gsvd, bidiagonalize])
def test_overflowing_x_refused(factor):
    # A = 2^-1040 I with d1 passes the rule (sigma_min(A W_0) / ||A||_F =
    # 1/2), but W_0 R_0^-1, gsvd's second block of X, overflows
    A = np.ldexp(np.eye(4), -1040)
    with pytest.raises(CompletenessViolated, match="W_0 R_0\\^-1 is not finite"):
        factor(A, first_difference(4))


@pytest.mark.parametrize("L", [np.eye(3), np.diff(np.eye(3), axis=0)], ids=["p=n", "p<n"])
def test_svd_failure_raises_linalg_error(monkeypatch, L):
    def no_convergence(a, compute_uv=1, full_matrices=1):
        k = min(a.shape)
        return np.zeros((a.shape[0], k)), np.zeros(k), np.zeros((k, a.shape[1])), 1

    monkeypatch.setattr(scipy.linalg.lapack, "dgesdd", no_convergence)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        gsvd(np.arange(12.0).reshape(4, 3) ** 2, L)


@pytest.mark.parametrize("scaling", [identity, second_difference])
@pytest.mark.parametrize("name", ["coefficient", "autoconvolution"])
def test_factors_do_not_depend_on_layout(name, scaling):
    prob = make_problem(name, 32)
    J = prob.evaluate_J(prob.x0_default)
    L = scaling(32)
    c, f = gsvd(np.ascontiguousarray(J), L), gsvd(np.asfortranarray(J), L)
    for field in ("U", "V", "X", "sigma", "mu"):
        assert getattr(c, field).tobytes() == getattr(f, field).tobytes(), field


@pytest.mark.parametrize("scaling", [first_difference, second_difference])
def test_reflector_path_tall(scaling):
    A = np.random.default_rng(23).standard_normal((40, 24))
    L = scaling(24)
    f = gsvd(A, L)
    report = validate(f, A, L, tol=1e-12)
    assert report.passed and report.orth_u <= 1e-13
    # the trailing n - p columns of U are an orthonormal basis of range(A W_0)
    AW0 = A @ L.null_basis
    Q0 = f.U[:, L.p :]
    residual = np.linalg.norm(AW0 - Q0 @ (Q0.T @ AW0))
    assert residual <= 1e-13 * np.linalg.norm(AW0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_entries_do_not_overflow():
    # ||L||_F^2 and s_max^2 are 2e400 here; neither may be formed
    L = from_matrix(1e200 * np.eye(2))
    f = gsvd(np.eye(2), L)
    assert validate(f, np.eye(2), L).passed
    # L = I leaves nothing to decide, so this J is accepted at any scale.  The
    # stacked least-squares reference cannot solve [J; sqrt(lam) I] (its
    # condition number is 1e100 or more), so the step is checked against its
    # closed form -r_i / (j_i + lam / j_i), which squares nothing.
    j = np.array([1e300, 1e200])
    J = np.diag(j)
    assert validate(gsvd(J, np.eye(2)), J, np.eye(2)).passed
    r, lam = np.array([1.0, -2.0]), 1e250
    np.testing.assert_allclose(bidiagonalize(J, identity(2)).split(r).step(lam),
                               -r / (j + lam / j), rtol=1e-14)


def _count_exact_svds(monkeypatch):
    """Record the shape of every matrix gsvd hands to the exact np.linalg.svd."""
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_linear_d2_n1024_takes_no_exact_svd(monkeypatch):
    # completeness is decided on the 2 x 2 triangle of J W_0, never on the
    # 2046 x 1024 [J; L]
    prob = make_problem("linear", 1024)
    J = prob.evaluate_J(prob.x0_default)
    L = second_difference(1024)
    calls = _count_exact_svds(monkeypatch)
    gsvd(J, L)
    bidiagonalize(J, L)
    assert calls == []


@pytest.mark.parametrize("scaling", [identity, first_difference, second_difference])
def test_factors_accurate_on_coefficient_n128(scaling):
    prob = make_problem("coefficient", 128)
    J = prob.evaluate_J(prob.x0_default)
    L = scaling(128)
    assert validate(gsvd(J, L), J, L).max_residual <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("operand", ["A", "L"])
def test_non_finite_input_rejected(operand, bad):
    A, L = np.eye(3), np.eye(3)[:2]
    (A if operand == "A" else L)[0, 1] = bad
    with pytest.raises(NonFiniteInput, match=rf"\b{operand} has a NaN or infinite entry"):
        gsvd(A, L)


def _near_floor_pair(t2):
    """J = diag(1, u), L = [0, u]: [J; L] has singular values 1 and t, t^2 = 2 u^2 = t2."""
    u = np.sqrt(t2 / 2.0)
    return np.array([[1.0, 0.0], [0.0, u]]), np.array([[0.0, u]])


def _assert_same_as_reference(A, L):
    """gsvd and gsvd_reference agree on the decision and on sigma, mu.

    A refusal's message names a ratio whose rounding differs between the
    two, so only its text up to the ratio is compared.
    """
    try:
        want = gsvd_reference(A, L)
    except CompletenessViolated as exc:
        with pytest.raises(CompletenessViolated) as got:
            gsvd(A, L)
        assert str(got.value).split(" = ")[0] == str(exc).split(" = ")[0]
        return False
    f = gsvd(A, L)
    np.testing.assert_allclose(f.sigma, want.sigma, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(f.mu, want.mu, rtol=0.0, atol=1e-12)
    return True


def test_matches_reference_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(40):
        assert _assert_same_as_reference(*random_pair(rng))


@pytest.mark.parametrize("scaling", [identity, second_difference])
def test_matches_reference_coefficient_n128(scaling):
    prob = make_problem("coefficient", 128)
    J = prob.evaluate_J(prob.x0_default)
    assert _assert_same_as_reference(J, scaling(128).matrix)


def test_matches_reference_near_the_floor_and_singular():
    # N(L) = span(e_1) and J e_1 = e_1, so these pairs are complete at every
    # u, however small [J; L]'s s_min = sqrt(t2): both decide on J W_0 and
    # accept them, and the step is the stacked least-squares one
    r = np.array([1.0, -1.0])
    for t2 in (3.003e-10, 2.997e-10, 2.5e-10):
        J, L = _near_floor_pair(t2)
        assert _assert_same_as_reference(J, L)
        np.testing.assert_allclose(bidiagonalize(J, L).split(r).step(0.5),
                                   lm_step_reference(J, r, L, 0.5), rtol=1e-12)
    assert not _assert_same_as_reference(np.diag([1.0, 0.0]), np.array([[1.0, 0.0]]))
