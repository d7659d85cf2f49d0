import numpy as np
import pytest
import scipy.linalg

from lmmss import (
    CompletenessViolated,
    DimensionMismatch,
    NonFiniteInput,
    RankDeficientL,
    make_problem,
)
from lmmss.gsvd import bidiagonalize
from lmmss.scaling import (
    first_difference,
    from_matrix,
    identity,
    second_difference,
)
from helpers import (
    bidiagonal_reduction_defects,
    cyclic_difference,
    gsvd_reference,
    lm_step_reference,
    pencil_gsv_squared,
    random_pair,
)


def _zeta(f):
    """The singular values of the factors' bidiagonal B, ascending: the pair's generalized singular values."""
    return np.linalg.svd(np.diag(f._d) + np.diag(f._e, 1), compute_uv=False)[::-1]


def test_module_is_bound_to_its_name():
    # the package re-exports no function under the module's name, so
    # lmmss.gsvd names the module
    import lmmss
    import lmmss.gsvd as module

    assert lmmss.gsvd is module
    assert module.bidiagonalize is bidiagonalize


def test_diag_pair_matches_pencil_oracle():
    A = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    L = np.eye(2)
    f = bidiagonalize(A, L)
    zeta = _zeta(f)
    np.testing.assert_allclose(zeta, [1.0, 2.0], rtol=1e-12)
    assert f.zeta_p == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(zeta**2, pencil_gsv_squared(A, L), rtol=1e-10)


def test_rank_one_scaling_pair():
    A = np.eye(2)
    L = np.array([[1.0, -1.0]])
    f = bidiagonalize(A, L)
    np.testing.assert_allclose(_zeta(f) ** 2, pencil_gsv_squared(A, L), rtol=1e-10)
    r = np.array([1.0, -2.0])
    np.testing.assert_allclose(f.split(r).step(0.5), lm_step_reference(A, r, L, 0.5), rtol=1e-12)


def test_round_trip_and_orderings():
    # the reflectors take the standard-form operator to [B; 0] and are
    # orthogonal (measured: at most 5.9e-16 and 2.5e-16), and zeta_p is B's
    # largest singular value
    rng = np.random.default_rng(7)
    for _ in range(30):
        A, L = random_pair(rng)
        reduction, qb_orth, pb_orth = bidiagonal_reduction_defects(A, L)
        assert reduction <= 1e-14 and qb_orth <= 1e-15 and pb_orth <= 1e-15
        f = bidiagonalize(A, L)
        zeta = _zeta(f)
        assert np.all(zeta >= 0.0)
        assert f.zeta_p == pytest.approx(zeta[-1], rel=1e-14)


def test_pencil_consistency_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        A, L = random_pair(rng, m_max=30, n_max=20)
        zeta2 = _zeta(bidiagonalize(A, L)) ** 2
        oracle = pencil_gsv_squared(A, L)
        np.testing.assert_allclose(zeta2, oracle, rtol=1e-8, atol=1e-12)


def test_weighted_gram_identity_random_lambda():
    # The factors stand for A^T A + lam L^T L: the step they give solves
    # (A^T A + lam L^T L) d = -A^T r to 1e-10 relative (measured: 2.0e-15).
    rng = np.random.default_rng(3)
    for _ in range(15):
        A, L = random_pair(rng, m_max=25, n_max=15)
        r = rng.standard_normal(A.shape[0])
        lam = 10.0 ** rng.uniform(-6, 3)
        d = bidiagonalize(A, L).split(r).step(lam)
        gram = A.T @ A + lam * L.T @ L
        assert np.linalg.norm(gram @ d + A.T @ r) <= 1e-10 * np.linalg.norm(gram) * np.linalg.norm(d)


def test_determinism():
    rng = np.random.default_rng(5)
    A, L = rng.standard_normal((8, 5)), rng.standard_normal((3, 5))
    r = rng.standard_normal(8)
    f1 = bidiagonalize(A, L)
    f2 = bidiagonalize(A.copy(), L.copy())
    assert f1.zeta_p == f2.zeta_p
    assert f1.split(r).step(0.1).tobytes() == f2.split(r).step(0.1).tobytes()


def test_factors_compare_and_hash_by_identity():
    f, g = bidiagonalize(np.eye(3), np.eye(3)), bidiagonalize(np.eye(3), np.eye(3))
    assert (f == f) is True
    assert (f == g) is False
    assert len({f, g, f}) == 2


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
        bidiagonalize(A, L)


def test_rank_deficient_scaling_rejected():
    L = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(RankDeficientL):
        bidiagonalize(np.eye(3), L)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [gsvd_reference, bidiagonalize])
@pytest.mark.parametrize(
    "A, L",
    [(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0]])),
     (cyclic_difference(48), first_difference(48))],
    ids=["n2", "cyclic-d1-n48"],
)
def test_completeness_violation_detected(A, L, factor):
    # A kills N(L), so the standard form refuses the pair as the reference
    # GSVD does on its own basis of N(L), naming sigma_min(A W_0) / ||A||_F:
    # rounding, far below the tolerance
    with pytest.raises(CompletenessViolated) as got:
        factor(A, getattr(L, "matrix", L))
    prefix = "N(A) and N(L) intersect: sigma_min(A W_0) / ||A||_F = "
    assert str(got.value).startswith(prefix)
    assert float(str(got.value)[len(prefix):]) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_overflowing_x_refused():
    # A = 2^-1040 I with d1 passes the rule (sigma_min(A W_0) / ||A||_F =
    # 1/2), but W_0 R_0^-1, the block of the GSVD's X that the step reads,
    # overflows
    A = np.ldexp(np.eye(4), -1040)
    with pytest.raises(CompletenessViolated, match="W_0 R_0\\^-1 is not finite"):
        bidiagonalize(A, first_difference(4))


def test_svd_failure_raises_linalg_error(monkeypatch):
    # for p < n the completeness decision takes the SVD of R_0
    def no_convergence(a, compute_uv=1, full_matrices=1):
        k = min(a.shape)
        return np.zeros((a.shape[0], k)), np.zeros(k), np.zeros((k, a.shape[1])), 1

    monkeypatch.setattr(scipy.linalg.lapack, "dgesdd", no_convergence)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        bidiagonalize(np.arange(12.0).reshape(4, 3) ** 2, np.diff(np.eye(3), axis=0))


@pytest.mark.parametrize("scaling", [identity, second_difference])
@pytest.mark.parametrize("name", ["coefficient", "autoconvolution"])
def test_factors_do_not_depend_on_layout(name, scaling):
    prob = make_problem(name, 32)
    J = prob.evaluate_J(prob.x0_default)
    L = scaling(32)
    # the factors' answers, zeta_p, omega and the step, are the same bit for bit
    r = np.random.default_rng(3).standard_normal(32)
    c, f = (bidiagonalize(layout(J), L).split(r) for layout in (np.ascontiguousarray,
                                                                 np.asfortranarray))
    assert c.zeta_p == f.zeta_p
    for lam in (1e-6 * f.zeta_p**2, f.zeta_p**2):
        assert c.omega(lam) == f.omega(lam)
        assert c.step(lam).tobytes() == f.step(lam).tobytes()


@pytest.mark.parametrize("scaling", [first_difference, second_difference])
def test_reflector_path_tall(scaling):
    # m > n with p < n: the reflectors of the QR of A W_0 split a residual
    # in range(A W_0) off whole, into c0 = Q_0^T r, and leave nothing to b
    # or rho_perp (measured: 4.1e-16 relative); and the step is the stacked
    # least-squares one (measured: at most 5.6e-15 relative)
    A = np.random.default_rng(23).standard_normal((40, 24))
    L = scaling(24)
    f = bidiagonalize(A, L)
    r = A @ (L.null_basis @ np.arange(1.0, 24 - L.p + 1))
    split = f.split(r)
    norm = np.linalg.norm(r)
    assert abs(np.linalg.norm(split.c0) - norm) <= 1e-13 * norm
    assert np.linalg.norm(split.b) <= 1e-13 * norm and split.rho_perp <= 1e-13 * norm
    r = np.random.default_rng(5).standard_normal(40)
    for lam in (1e-6, 1.0, 1e3):
        np.testing.assert_allclose(f.split(r).step(lam), lm_step_reference(A, r, L, lam),
                                   rtol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_entries_do_not_overflow():
    # ||L||_F^2 and s_max^2 are 2e400 here; neither may be formed.  With
    # L = 1e200 I the step solves (1 + lam 1e400) d = -r.
    L = from_matrix(1e200 * np.eye(2))
    f = bidiagonalize(np.eye(2), L)
    assert f.zeta_p == pytest.approx(1e-200, rel=1e-15)
    r, lam = np.array([1.0, -2.0]), 1e-300
    np.testing.assert_allclose(f.split(r).step(lam), -r / (1.0 + (lam * 1e200) * 1e200),
                               rtol=1e-14)
    # L = I leaves nothing to decide, so this J is accepted at any scale.  The
    # stacked least-squares reference cannot solve [J; sqrt(lam) I] (its
    # condition number is 1e100 or more), so the step is checked against its
    # closed form -r_i / (j_i + lam / j_i), which squares nothing.
    j = np.array([1e300, 1e200])
    J = np.diag(j)
    f = bidiagonalize(J, identity(2))
    assert f.zeta_p == pytest.approx(1e300, rel=1e-15)
    lam = 1e250
    np.testing.assert_allclose(f.split(r).step(lam), -r / (j + lam / j), rtol=1e-14)


def _count_exact_svds(monkeypatch):
    """Record the shape of every matrix handed to the exact np.linalg.svd."""
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
    bidiagonalize(J, L)
    assert calls == []


@pytest.mark.parametrize("scaling", [identity, first_difference, second_difference])
def test_factors_accurate_on_coefficient_n128(scaling):
    # Across the search bracket, the step from the factors solves the normal
    # equations (J^T J + lam L^T L) d = -J^T r to a backward error of 1e-12
    # (measured: 1.3e-16 identity, 2.7e-15 d1, 3.2e-14 d2)
    prob = make_problem("coefficient", 128)
    J = prob.evaluate_J(prob.x0_default)
    L = scaling(128)
    M, r = L.matrix, np.random.default_rng(3).standard_normal(128)
    f = bidiagonalize(J, L)
    split = f.split(r)
    j_norm, l_norm = np.linalg.norm(J, 2), np.linalg.norm(M, 2)
    for lam in np.geomspace(1e-14 * f.zeta_p**2, 1.5 * f.zeta_p**2, 9):
        d = split.step(lam)
        residual = np.linalg.norm(J.T @ (J @ d) + lam * (M.T @ (M @ d)) + J.T @ r)
        d_norm = np.linalg.norm(d)
        scale = j_norm * (j_norm * d_norm + np.linalg.norm(r)) + lam * l_norm**2 * d_norm
        assert residual <= 1e-12 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("operand", ["A", "L"])
def test_non_finite_input_rejected(operand, bad):
    A, L = np.eye(3), np.eye(3)[:2]
    (A if operand == "A" else L)[0, 1] = bad
    with pytest.raises(NonFiniteInput, match=rf"\b{operand} has a NaN or infinite entry"):
        bidiagonalize(A, L)


def _near_floor_pair(t2):
    """J = diag(1, u), L = [0, u]: [J; L] has singular values 1 and t, t^2 = 2 u^2 = t2."""
    u = np.sqrt(t2 / 2.0)
    return np.array([[1.0, 0.0], [0.0, u]]), np.array([[0.0, u]])


def _assert_same_as_reference(A, L):
    """bidiagonalize and gsvd_reference agree on the decision and on sigma, mu.

    sigma = zeta / hypot(1, zeta) and mu = 1 / hypot(1, zeta) come from the
    singular values zeta of B.  A refusal's message names a ratio whose
    rounding differs between the two, so only its text up to the ratio is
    compared.
    """
    try:
        want = gsvd_reference(A, L)
    except CompletenessViolated as exc:
        with pytest.raises(CompletenessViolated) as got:
            bidiagonalize(A, L)
        assert str(got.value).split(" = ")[0] == str(exc).split(" = ")[0]
        return False
    zeta = _zeta(bidiagonalize(A, L))
    np.testing.assert_allclose(zeta / np.hypot(1.0, zeta), want.sigma, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(1.0 / np.hypot(1.0, zeta), want.mu, rtol=0.0, atol=1e-12)
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


def test_reference_refuses_pairs_it_cannot_reproduce():
    # the linear problem's J(x0) has condition number about 1e16, so X =
    # R^-1 W reproduces J only to 0.86 at n = 48; J = 1e5 e_1 e_1^T with L = I
    # has sigma_i = 0 ahead of its one nonzero, which the unpivoted QR puts in
    # the wrong column of U.  Either way the reference raises rather than
    # answer.
    prob = make_problem("linear", 48)
    J = prob.evaluate_J(prob.x0_default)
    with pytest.raises(AssertionError, match="gsvd_reference reproduces"):
        gsvd_reference(J, np.eye(48))
    J = np.zeros((48, 48))
    J[0, 0] = 1e5
    with pytest.raises(AssertionError, match="gsvd_reference reproduces"):
        gsvd_reference(J, np.eye(48))
