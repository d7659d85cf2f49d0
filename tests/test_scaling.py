import numpy as np
import pytest

from lmmss import (
    CompletenessViolated,
    DimensionMismatch,
    DimensionTooSmall,
    RankDeficientL,
    make_problem,
    seminorm,
    validate,
)
from lmmss.gsvd import bidiagonalize, gsvd
from lmmss.scaling import (
    ScalingOperator,
    euclidean_norm,
    first_difference,
    frobenius,
    from_matrix,
    from_spec,
    identity,
    second_difference,
)


def test_first_difference_stencil():
    L = first_difference(3)
    np.testing.assert_array_equal(L.matrix, [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert L.p == 2 and L.n == 3 and L.kind == "first-difference"


def test_second_difference_stencil():
    L = second_difference(4)
    np.testing.assert_array_equal(
        L.matrix, [[1.0, -2.0, 1.0, 0.0], [0.0, 1.0, -2.0, 1.0]]
    )
    assert L.p == 2 and L.n == 4


def test_identity_scaling():
    L = identity(2)
    np.testing.assert_array_equal(L.matrix, np.eye(2))
    assert L.p == 2


@pytest.mark.parametrize(
    "ctor, n", [(identity, 0), (first_difference, 1), (second_difference, 2)]
)
def test_too_small(ctor, n):
    with pytest.raises(DimensionTooSmall):
        ctor(n)


def test_stencils_full_row_rank():
    for L in (first_difference(9), second_difference(9)):
        s = np.linalg.svd(L.matrix, compute_uv=False)
        assert s[-1] > 1e-3


def test_from_matrix_rank_check():
    with pytest.raises(RankDeficientL):
        from_matrix([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    L = from_matrix([[1.0, -1.0, 0.0]])
    assert L.p == 1 and L.kind == "custom"


def test_from_matrix_wide_rejected():
    with pytest.raises(DimensionMismatch):
        from_matrix(np.eye(3)[:, :2])  # p > n


@pytest.mark.parametrize(
    "matrix",
    [
        np.eye(3)[:, :2],  # p > n
        np.zeros((0, 3)),  # p = 0
        np.ones(3),  # 1-D
        np.ones((1, 2, 2)),  # 3-D
    ],
)
def test_scaling_operator_rejects_bad_shapes(matrix):
    with pytest.raises(DimensionMismatch):
        ScalingOperator(matrix)


def test_scaling_operator_rejects_rank_deficient():
    with pytest.raises(RankDeficientL):
        ScalingOperator(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))
    with pytest.raises(RankDeficientL):
        ScalingOperator(np.zeros((1, 3)))
    with pytest.raises(RankDeficientL, match=r"^scaling matrix has numerical rank below 3$"):
        ScalingOperator(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))  # p = n


def test_rank_decision_at_the_threshold():
    # L is refused when s_min <= RANK_RTOL * s_max, with RANK_RTOL = 1e-12
    assert from_matrix(np.diag([1.0, 1.01e-12])).p == 2
    with pytest.raises(RankDeficientL, match=r"^scaling matrix has numerical rank below 2$"):
        from_matrix(np.diag([1.0, 0.99e-12]))


@pytest.mark.parametrize("ctor", [identity, first_difference, second_difference])
def test_scaling_operator_keeps_standard_form_factors(ctor):
    # right_inverse is L^+ with L L^+ = I_p; null_basis is orthonormal, L
    # annihilates it, and it spans N(L): constants for d1, affine vectors for d2.
    L = ctor(9)
    n, p = L.n, L.p
    np.testing.assert_allclose(L.matrix @ L.right_inverse, np.eye(p), atol=1e-14)
    np.testing.assert_allclose(L.right_inverse, np.linalg.pinv(L.matrix), atol=1e-13)
    assert L.null_basis.shape == (n, n - p)
    np.testing.assert_allclose(L.null_basis.T @ L.null_basis, np.eye(n - p), atol=1e-14)
    np.testing.assert_allclose(L.matrix @ L.null_basis, 0.0, atol=1e-14)
    affine = np.vstack([np.ones(n), np.arange(n)]).T[:, : n - p]
    np.testing.assert_allclose(L.null_basis @ (L.null_basis.T @ affine), affine, atol=1e-12)


def _factor_arrays(f):
    return (f.U, f.V, f.X, f.sigma, f.mu)


def test_identity_skip_decided_from_the_matrix():
    n = 16
    J = make_problem("coefficient", n).evaluate_J(np.ones(n))
    stock = identity(n)
    assert stock.inverse_is_identity
    # the same matrix from a file or array takes the same path, bit for bit
    wrapped = from_matrix(np.eye(n))
    assert wrapped.inverse_is_identity and wrapped.kind == "custom"
    skipped = gsvd(J, stock)
    for got, want in zip(_factor_arrays(gsvd(J, wrapped)), _factor_arrays(skipped)):
        assert got.tobytes() == want.tobytes()
    # multiplying through L^+ = I gives the same factors as skipping it
    through = identity(n)
    object.__setattr__(through, "inverse_is_identity", False)
    multiplied = gsvd(J, through)
    for got, want in zip(_factor_arrays(multiplied), _factor_arrays(skipped)):
        assert got.tobytes() == want.tobytes()
    # a kind tag does not decide the path: 2 I has L^+ = I / 2
    scaled = ScalingOperator(2.0 * np.eye(n), kind="identity")
    assert not scaled.inverse_is_identity
    f = gsvd(J, scaled)
    assert validate(f, J, scaled).passed
    for factors in (skipped, multiplied, f):
        assert factors.X.flags.c_contiguous


def test_spectral_norm_is_derived():
    for scaling in (identity, first_difference, second_difference):
        L = scaling(9)
        assert L.spectral_norm == pytest.approx(np.linalg.norm(L.matrix, 2), rel=1e-15)
    # the SVD of R_L scales as it goes, so entries near 1e200 do not overflow
    big = from_matrix(1e200 * np.eye(2)).spectral_norm
    assert np.isfinite(big) and big == pytest.approx(1e200, rel=1e-15)
    with pytest.raises(TypeError):
        ScalingOperator(np.eye(2), spectral_norm=1.0)


def test_scaling_operator_compares_and_hashes_by_identity():
    a, b = identity(3), identity(3)
    assert (a == a) is True
    assert (a == b) is False
    assert len({a, b, a}) == 2


def test_from_spec(tmp_path):
    assert from_spec("identity", 4).kind == "identity"
    assert from_spec("d1", 4).p == 3
    assert from_spec("d2", 4).p == 2
    path = tmp_path / "L.txt"
    np.savetxt(path, np.eye(4))
    assert from_spec(f"file:{path}", 4).kind == "custom"
    with pytest.raises(ValueError):
        from_spec("bogus", 4)


def test_seminorm_examples():
    assert seminorm(first_difference(3), np.array([2.5, 2.5, 2.5])) == 0.0
    assert seminorm(identity(2), np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert seminorm(from_matrix([[1.0, -1.0]]), np.array([2.0, -1.0])) == pytest.approx(3.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda v: v,
        lambda v: v[::3],
        lambda v: v[:60].reshape(6, 10),
        lambda v: np.asfortranarray(v[:60].reshape(6, 10)),
        lambda v: v[:0],
    ],
    ids=["contiguous", "strided", "c-order-2d", "f-order-2d", "empty"],
)
def test_euclidean_norm_matches_numpy_bit_for_bit(make):
    v = make(np.random.default_rng(5).standard_normal(97))
    got, want = euclidean_norm(v), np.linalg.norm(v)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_euclidean_norm_does_not_overflow():
    # the squares overflow a dot product; nrm2 scales as it sums
    assert euclidean_norm(np.array([1e200, 1.0, 1.0])) == 1e200
    assert euclidean_norm(np.array([[3e200], [4e200]])) == pytest.approx(5e200, rel=1e-15)
    assert euclidean_norm(np.array([1e200, np.inf])) == np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_euclidean_norm_does_not_underflow():
    # the squares of entries below about 1e-154 underflow a dot product (to 0
    # here); nrm2 scales as it sums
    assert euclidean_norm(np.array([1e-170])) == 1e-170
    assert euclidean_norm(np.array([3e-170, 4e-170])) == pytest.approx(5e-170, rel=1e-15)
    assert euclidean_norm(np.full(4, 1e-320)) == pytest.approx(2e-320, abs=5e-324)
    # a sum of squares above the threshold keeps numpy's bits
    v = 1e-144 * np.random.default_rng(6).standard_normal(97)
    assert np.float64(euclidean_norm(v)).tobytes() == np.linalg.norm(v).tobytes()


@pytest.mark.parametrize("shape", [(0,), (48, 0), (0, 3)], ids=["0", "48x0", "0x3"])
def test_frobenius_of_an_empty_array_is_zero(shape):
    # W_0 R_0^-1 of a square L is n x 0; BLAS nrm2 refuses an empty array
    assert frobenius(np.empty(shape)) == 0.0


def test_seminorm_shape_check():
    with pytest.raises(DimensionMismatch):
        seminorm(identity(3), np.ones(4))


def test_seminorm_vanishes_exactly_on_null_space():
    L = first_difference(6)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(6)
    assert seminorm(L, v) > 0.0
    assert seminorm(L, np.full(6, -1.3)) == 0.0


def assert_complete(J, L, holds):
    """Both factorizations accept (J, L) when ``holds``, and both refuse it otherwise."""
    for factor in (gsvd, bidiagonalize):
        if holds:
            factor(J, L)
        else:
            with pytest.raises(CompletenessViolated):
                factor(J, L)


def test_completeness_identity_pair():
    assert_complete(np.eye(2), identity(2), True)


def test_completeness_complementary_pair():
    assert_complete(np.array([[1.0, 0.0], [0.0, 0.0]]), from_matrix([[0.0, 1.0]]), True)


def test_completeness_shared_null_vector():
    assert_complete(np.array([[1.0, 0.0], [0.0, 0.0]]), from_matrix([[1.0, 0.0]]), False)


def test_completeness_fewer_rows_than_unknowns():
    # gsvd needs J to have at least as many rows as unknowns
    with pytest.raises(DimensionMismatch, match="need m >= n"):
        gsvd(np.ones((1, 4)), from_matrix(np.eye(4)[:2]))
    # a square J whose rows span one direction: [J; L] has rank 3 < 4, so
    # N(J) ∩ N(L) cannot be trivial
    assert_complete(np.ones((4, 4)), from_matrix(np.eye(4)[:2]), False)


def test_completeness_shape_check():
    with pytest.raises(DimensionMismatch, match="column counts differ"):
        gsvd(np.eye(3), identity(2))


def test_norm_equivalence_nonsingular_scaling():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((5, 5))
    L = from_matrix(M)
    s = np.linalg.svd(M, compute_uv=False)
    for _ in range(20):
        v = rng.standard_normal(5)
        nl = seminorm(L, v)
        nv = np.linalg.norm(v)
        assert s[-1] * nv - 1e-12 <= nl <= s[0] * nv + 1e-12


def test_first_difference_completeness_random_and_adversarial():
    rng = np.random.default_rng(9)
    n = 8
    L = first_difference(n)
    for _ in range(10):
        assert_complete(rng.standard_normal((n, n)), L, True)
    # J annihilating constants shares the null space of the stencil
    B = rng.standard_normal((n, n))
    assert_complete(B @ (np.eye(n) - np.full((n, n), 1.0 / n)), L, False)
