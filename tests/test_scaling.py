import numpy as np
import pytest

from lmmss import DimensionMismatch, DimensionTooSmall, RankDeficientL, seminorm
from lmmss.scaling import (
    ScalingOperator,
    completeness_check,
    first_difference,
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


@pytest.mark.parametrize("ctor", [identity, first_difference, second_difference])
def test_scaling_operator_keeps_standard_form_factors(ctor):
    # L K_p S^-1 = U_L (orthogonal), L K_0 = 0, and K_0 spans N(L): constants
    # for d1, affine vectors for d2.
    L = ctor(9)
    n, p = L.n, L.p
    np.testing.assert_allclose(L.matrix @ L._kp_sinv, L._u, atol=1e-14)
    np.testing.assert_allclose(L._u.T @ L._u, np.eye(p), atol=1e-14)
    assert L._k0.shape == (n, n - p)
    np.testing.assert_allclose(L._k0.T @ L._k0, np.eye(n - p), atol=1e-14)
    np.testing.assert_allclose(L.matrix @ L._k0, 0.0, atol=1e-14)
    affine = np.vstack([np.ones(n), np.arange(n)]).T[:, : n - p]
    np.testing.assert_allclose(L._k0 @ (L._k0.T @ affine), affine, atol=1e-12)


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


def test_seminorm_shape_check():
    with pytest.raises(DimensionMismatch):
        seminorm(identity(3), np.ones(4))


def test_seminorm_vanishes_exactly_on_null_space():
    L = first_difference(6)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(6)
    assert seminorm(L, v) > 0.0
    assert seminorm(L, np.full(6, -1.3)) == 0.0


def test_completeness_identity_pair():
    rep = completeness_check(np.eye(2), identity(2))
    assert rep.holds
    assert rep.gamma == pytest.approx(2.0)


def test_completeness_complementary_pair():
    rep = completeness_check(np.array([[1.0, 0.0], [0.0, 0.0]]), from_matrix([[0.0, 1.0]]))
    assert rep.holds
    assert rep.gamma == pytest.approx(1.0)


def test_completeness_shared_null_vector():
    rep = completeness_check(np.array([[1.0, 0.0], [0.0, 0.0]]), from_matrix([[1.0, 0.0]]))
    assert not rep.holds
    assert rep.gamma == pytest.approx(0.0, abs=1e-14)


def test_completeness_fewer_rows_than_unknowns():
    # [J; L] is 3 x 4, so its null space, N(J) ∩ N(L), cannot be trivial
    rep = completeness_check(np.ones((1, 4)), from_matrix(np.eye(4)[:2]))
    assert not rep.holds
    assert rep.gamma == 0.0


def test_completeness_shape_check():
    with pytest.raises(DimensionMismatch):
        completeness_check(np.eye(3), identity(2))


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
        assert completeness_check(rng.standard_normal((n, n)), L).holds
    # J annihilating constants shares the null space of the stencil
    B = rng.standard_normal((n, n))
    J = B @ (np.eye(n) - np.full((n, n), 1.0 / n))
    assert not completeness_check(J, L).holds
