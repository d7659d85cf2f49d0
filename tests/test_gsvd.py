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
    gsvd,
    make_problem,
    validate,
)
from lmmss.gsvd import _bounds_complete
from lmmss.scaling import (
    completeness_holds,
    first_difference,
    from_matrix,
    identity,
    second_difference,
)
from helpers import gsvd_reference, pencil_gsv_squared, random_pair

SQ2 = np.sqrt(0.5)


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
def test_completeness_violation_detected():
    # A W_0 = 0 leaves an exact zero on R_0's diagonal, so the triangular
    # solve for X fails and the exact singular values must reject the pair on
    # their own.
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    L = np.array([[1.0, 0.0]])
    with pytest.raises(CompletenessViolated, match="s_min\\^2 = 0.000e\\+00"):
        gsvd(A, L)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_entries_do_not_overflow():
    # ||L||_F^2 and s_max^2 are 2e400 here; neither may be formed
    L = from_matrix(1e200 * np.eye(2))
    f = gsvd(np.eye(2), L)
    assert validate(f, np.eye(2), L).passed
    # s_min = 1e200 falls short of 1e-5 sqrt(2) s_max here; the refusal names inf
    with pytest.raises(CompletenessViolated, match=r"s_min\^2 = inf"):
        gsvd(np.diag([1e300, 1e200]), np.eye(2))


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
    """[J; L] with singular values 1 and t; the rule reads t^2 > 3e-10."""
    u = np.sqrt(t2 / 2.0)
    return np.array([[1.0, 0.0], [0.0, u]]), np.array([[0.0, u]])


def _assert_same_as_reference(A, L):
    """gsvd and gsvd_reference agree on the decision, the error and sigma, mu."""
    try:
        want = gsvd_reference(A, L)
    except CompletenessViolated as exc:
        with pytest.raises(CompletenessViolated) as got:
            gsvd(A, L)
        assert str(got.value) == str(exc)
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
    assert _assert_same_as_reference(*_near_floor_pair(3.003e-10))
    assert not _assert_same_as_reference(*_near_floor_pair(2.997e-10))
    assert not _assert_same_as_reference(*_near_floor_pair(2.5e-10))
    assert not _assert_same_as_reference(np.diag([1.0, 0.0]), np.array([[1.0, 0.0]]))


def _bound_and_exact(M, W):
    """The bound decision and the exact rule for the stacked matrix M.

    X = R^{-1} W (M = QR, W orthogonal) is one X for which M X has
    orthonormal columns, as gsvd's X is for M = [A; L].
    """
    R = np.linalg.qr(M, mode="r")
    X = scipy.linalg.solve_triangular(R, W)
    return (
        _bounds_complete(np.linalg.norm(M), X),
        completeness_holds(np.linalg.svd(M, compute_uv=False)),
    )


def test_bounds_undecided_at_the_threshold_n1():
    # Smallest t with [t] passing the rule, then one ulp below it.
    t = np.sqrt(1e-10 / (1.0 - 2e-10))
    while completeness_holds([t, t]):
        t = np.nextafter(t, 0.0)
    while not completeness_holds([t, t]):
        t = np.nextafter(t, 1.0)
    for value in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)):
        for w in (1.0, -1.0):
            assert not _bounds_complete(value, np.array([[w / value]]))


@pytest.mark.parametrize("t2", [3.003e-10, 2.997e-10, 2.5e-10])
def test_bounds_never_accept_near_floor_pairs(t2):
    J, L = _near_floor_pair(t2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rotation = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
    for W in (np.eye(2), swap, rotation):
        bound, _ = _bound_and_exact(np.vstack([J, L]), W)
        assert not bound


def test_bounds_sound_over_prescribed_condition_numbers():
    rng = np.random.default_rng(17)
    accepted = rejected = 0
    for cond in np.geomspace(1e2, 1e6, 33):
        for scale in (1e-2, 1.0, 1e2):
            m, n = 12, 8
            Ul, _ = np.linalg.qr(rng.standard_normal((m, n)))
            Vr, _ = np.linalg.qr(rng.standard_normal((n, n)))
            W, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = scale * np.geomspace(1.0, 1.0 / cond, n)
            bound, exact = _bound_and_exact((Ul * s) @ Vr.T, W)
            assert exact or not bound, (cond, scale)
            accepted += bound
            rejected += not exact
    assert accepted and rejected  # both sides of the rule were exercised
