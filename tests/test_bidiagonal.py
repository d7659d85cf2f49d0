"""The bidiagonal route: ``bidiagonalize`` for every scaling and its use in ``solve``."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

import lmmss
from lmmss import (
    CompletenessViolated,
    InverseProblem,
    SolverConfig,
    make_noisy_data,
    make_problem,
    select_lambda_q,
    solve,
)
from lmmss import _lapack
from lmmss.gsvd import (
    NULL_SPACE_RTOL,
    _apply_q,
    _largest_singular_value,
    _standard_form,
    bidiagonalize,
    gsvd,
)
from lmmss.scaling import (
    first_difference,
    from_matrix,
    from_spec,
    frobenius,
    identity,
    second_difference,
)
from helpers import (
    SpectralOracle,
    cyclic_difference,
    in_range_residual,
    lm_step_reference,
    omega_reference,
)


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
    # tolerance.  There the bidiagonal route is held to twice the distance
    # of gsvd's spectral sums (SpectralOracle).
    J, r = _tall_pair(n) if source == "tall" else _problem_pair(source, n)
    L = from_spec(spec, n)
    f, g = bidiagonalize(J, L), SpectralOracle(J, L, r)
    omega = f.split(r).omega
    zeta_p = f.zeta_p
    for lam in np.geomspace(1e-14 * zeta_p**2, 1.5 * zeta_p**2, 9):
        want = lm_step_reference(J, r, L, lam)
        omega_want = omega_reference(J, L, r, lam)
        step_slack = omega_slack = 0.0
        if L.p < n:
            step_slack = 2.0 * np.linalg.norm(g.step(lam) - want)
            omega_slack = 2.0 * abs(g.omega(lam) - omega_want)
        got = f.split(r).step(lam)
        tol = 1e-11 + 1e-14 * zeta_p / np.sqrt(lam)
        assert np.linalg.norm(got - want) <= max(tol * np.linalg.norm(want), step_slack)
        omega_tol = max(1e-11 * omega_want, 1e-12, omega_slack)
        assert abs(omega(lam) - omega_want) <= omega_tol
        assert abs(np.linalg.norm(r + J @ got) - omega_want) <= omega_tol


@pytest.mark.parametrize("source, spec", _cases(["coefficient", "tall"], ["identity", "d1", "d2"]))
def test_spectrum_matches_gsvd(source, spec):
    J, r = _tall_pair(64) if source == "tall" else _problem_pair(source, 64)
    L = from_spec(spec, 64)
    f, g = bidiagonalize(J, L), SpectralOracle(J, L, r)
    assert f.zeta_p == pytest.approx(g.zeta_p, rel=1e-13)
    split = f.split(r)
    # the trailing block of w, Q_0^T r, has no sign convention to differ by
    np.testing.assert_allclose(split.c0, g.w[L.p:], rtol=1e-13,
                               atol=1e-15 * np.linalg.norm(r))
    # b = Q_B^T Q_perp^T r and w's leading block differ by the orthogonal U_B of B's SVD
    assert np.linalg.norm(split.b) == pytest.approx(np.linalg.norm(g.w[: L.p]), rel=1e-12)
    assert split.rho_perp == pytest.approx(g.rho_perp, rel=1e-10,
                                           abs=1e-14 * np.linalg.norm(r))


#: Pairs (J, L) whose operator Q_perp^T J L^+ has the shapes where LAPACK's
#: ormbr took its edge cases for P_B: p = 1, p = 2, p = n, d2 (p = n - 2),
#: and a tall J with m - k > p.
REFLECTOR_CASES = {
    "one-row": lambda: (_problem_pair("coefficient", 48)[0], from_matrix(np.ones((1, 48)))),
    "tall-one-row": lambda: (np.random.default_rng(1).standard_normal((65, 48)),
                             from_matrix(np.ones((1, 48)))),
    "tall-two-row": lambda: (np.random.default_rng(1).standard_normal((65, 48)),
                             from_matrix(np.random.default_rng(2).standard_normal((2, 48)))),
    "identity": lambda: (_problem_pair("coefficient", 48)[0], identity(48)),
    "identity-n128": lambda: (_problem_pair("coefficient", 128)[0], identity(128)),
    "square": lambda: (_problem_pair("coefficient", 48)[0], _scaling("square", 48)),
    "d2": lambda: (_problem_pair("coefficient", 48)[0], second_difference(48)),
    "tall-identity": lambda: (_tall_pair(48)[0], identity(48)),
    "tall-d2": lambda: (_tall_pair(48)[0], second_difference(48)),
}


@pytest.mark.parametrize("case", list(REFLECTOR_CASES))
def test_reflectors_reduce_the_operator_to_b(case):
    # Q_B^T and P_B, built column by column from the factors' own
    # applications to unit vectors (Q_B^T as split applies it, P_B as step
    # does), are orthogonal to 1e-15 times their order and take Abar =
    # Q_perp^T J L^+ to [B; 0] within 1e-14 ||Abar||_F (measured: at most
    # 1.1e-14 and 8.4e-16).  A transposed or misordered P_B breaks the
    # reduction.
    J, L = REFLECTOR_CASES[case]()
    abar = _standard_form(np.asfortranarray(J), L)[2]
    f = bidiagonalize(J, L)
    rows, p = abar.shape
    qbt = np.column_stack([f._apply_qb_transpose(e) for e in np.eye(rows)])
    pb = np.column_stack([f._apply_pb(e) for e in np.eye(p)])
    want = np.zeros((rows, p))
    want[:p] = np.diag(f._d) + np.diag(f._e, 1)
    assert np.linalg.norm(qbt @ abar @ pb - want) <= 1e-14 * np.linalg.norm(abar)
    assert np.linalg.norm(qbt.T @ qbt - np.eye(rows)) <= 1e-15 * rows
    assert np.linalg.norm(pb.T @ pb - np.eye(p)) <= 1e-15 * p


@pytest.mark.parametrize("name", ["linear", "autoconvolution", "coefficient"])
@pytest.mark.parametrize("n", [48, 128])
@pytest.mark.parametrize("spec", ["identity", "d1", "d2"])
def test_newton_iterate_matches_gsvd(spec, n, name):
    # Across the bracket of q = 0.6, omega(lam, target) gives the same omega
    # and the same Newton iterate on the bidiagonal route as gsvd's spectral
    # sums (SpectralOracle).  The iterate divides by the
    # slope, which the bidiagonal route takes from a second solve of the
    # augmented system, so it carries that system's condition number
    # zeta_p / sqrt(lam): at J(x0) the routes differ by at most 1.1e-14 times
    # it (6.3e-9 relative at the floor, linear n = 128 d1).
    J, r = _problem_pair(name, n)
    L = from_spec(spec, n)
    f, g = bidiagonalize(J, L), SpectralOracle(J, L, r)
    omega = f.split(r).omega
    target = 0.6 * np.linalg.norm(r)
    for lam in np.geomspace(1e-14 * f.zeta_p**2, 1.5 * f.zeta_p**2 * (1.0 + 1e-10), 9):
        (val, newton), (val_gsvd, newton_gsvd) = omega(lam, target), g.omega(lam, target)
        assert abs(val - val_gsvd) <= 1e-14 * np.linalg.norm(r)
        tol = 1e-12 + 3e-14 * f.zeta_p / np.sqrt(lam)
        assert abs(newton - newton_gsvd) <= tol * abs(newton_gsvd)


def test_omega_matches_the_oracle_on_the_tall_pair():
    # Across the bracket of q = 0.6, m > n with p < n: omega without a target
    # agrees with gsvd's spectral sums (SpectralOracle) as the Newton test's
    # omega does.
    J, r = _tall_pair(64)
    L = from_spec("d2", 64)
    f, g = bidiagonalize(J, L), SpectralOracle(J, L, r)
    omega = f.split(r).omega
    for lam in np.geomspace(1e-14 * f.zeta_p**2, 1.5 * f.zeta_p**2 * (1.0 + 1e-10), 9):
        assert abs(omega(lam) - g.omega(lam)) <= 1e-14 * np.linalg.norm(r)


def test_floor_regime_step_falls_back_as_the_oracle_predicts():
    # Iterate 8 of autoconvolution n = 128, d1, q = 0.05, q tau = 1.01,
    # delta = 1e-9 (seed 1), where that run's fallbacks start: omega at the
    # bracket floor is 0.095 ||r||, above q ||r||, on the bidiagonal factors
    # and in gsvd's spectral sums (SpectralOracle) alike.
    n, q = 128, 0.05
    prob = make_problem("autoconvolution", n)
    data = make_noisy_data(prob.y_exact, 1e-9, seed=1)
    L = from_spec("d1", n)
    cfg = SolverConfig(q=q, tau=1.01 / q, max_iter=8)
    run = solve(prob, data, L, prob.x0_default, cfg)
    assert run.stop_reason == "max_iter"
    assert [rec.qcond_kind for rec in run.trace[:-1]] == ["equality"] * 8
    J, r = prob.evaluate_J(run.final_x), prob.evaluate_F(run.final_x) - data.y_delta
    f, g = bidiagonalize(J, L), SpectralOracle(J, L, r)
    floor = f.split(r).omega(1e-14 * f.zeta_p**2)
    floor_gsvd = g.omega(1e-14 * g.zeta_p**2)
    assert floor == pytest.approx(0.095 * np.linalg.norm(r), rel=0.01)
    assert abs(floor - floor_gsvd) <= 1e-12 * floor_gsvd
    # the search falls back at the floor: omega there is above the target
    # by more than the root tolerance
    assert floor_gsvd - q * np.linalg.norm(r) > cfg.lambda_root_tol * np.linalg.norm(r)
    assert select_lambda_q(f.split(r), cfg)[1:] == ("fallback-floor", 1)


@pytest.mark.parametrize("spec", ["identity", "d1"])
def test_split_keeps_its_answers_when_r_changes_in_place(spec):
    # A split copies what it needs of r (for L = I, k = 0 and c = r itself):
    # one taken before r changes in place answers as before, bit for bit,
    # and only a fresh split of the changed r sees the change.
    J, r = _problem_pair("coefficient", 48)
    f = bidiagonalize(J, from_spec(spec, 48))
    lam, target = f.zeta_p**2, 0.6 * np.linalg.norm(r)
    split = f.split(r)
    omega, step = split.omega(lam, target), split.step(lam)
    r[0] += 1.0
    assert split.omega(lam, target) == omega
    np.testing.assert_array_equal(split.step(lam), step)
    fresh = f.split(r)
    assert fresh.omega(lam, target) != omega
    assert not np.array_equal(fresh.step(lam), step)


def test_one_row_scaling_on_the_bidiagonal_route():
    # p = 1: B is 1 x 1 and the augmented system 2 x 2
    n = 48
    J, r = _problem_pair("coefficient", n)
    L = from_matrix(np.ones((1, n)))
    f, g = bidiagonalize(J, L), SpectralOracle(J, L, r)
    assert f.zeta_p == pytest.approx(g.zeta_p, rel=1e-14)
    omega = f.split(r).omega
    for lam in (1e-3, 1.0, 1e3):
        assert omega(lam) == pytest.approx(g.omega(lam), rel=1e-13)
        np.testing.assert_allclose(f.split(r).step(lam), g.step(lam), rtol=1e-10,
                                   atol=1e-12 * np.linalg.norm(g.step(lam)))


def _run(prob, L):
    data = make_noisy_data(prob.y_exact, 1e-3, seed=1)
    return solve(prob, data, L, prob.x0_default, SolverConfig(q=0.6, tau=3.5))


@pytest.mark.parametrize(
    "name, spec, n", [("coefficient", "identity", 64), ("linear", "identity", 64),
                      ("coefficient", "identity", 32), ("coefficient", "d2", 64),
                      ("coefficient", "d1", 40)],
)
def test_factorization_counts(monkeypatch, name, spec, n):
    # Every distinct J is bidiagonalized, at every n and for every L; a linear
    # map's one J is bidiagonalized at step 0 and its factors serve every step.
    calls = []

    def counting(J, L):
        calls.append("bidiag")
        return bidiagonalize(J, L)

    monkeypatch.setattr(lmmss.solver, "bidiagonalize", counting)
    prob = make_problem(name, n)
    run = _run(prob, from_spec(spec, n))
    assert run.stop_reason == "discrepancy" and run.k_star > 2
    assert calls == ["bidiag"] * (1 if name == "linear" else run.k_star)


def _scaling(spec, n):
    """``from_spec``, and "square": I + 0.5 (superdiagonal), a p = n scaling whose L^+ is not I."""
    if spec == "square":
        return from_matrix(np.eye(n) + 0.5 * np.eye(n, k=1))
    return from_spec(spec, n)


#: The smallest n each bundled problem accepts.
SMALLEST_N = {"linear": 4, "autoconvolution": 8, "coefficient": 8}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "name, spec", _cases(list(SMALLEST_N), ["identity", "d1", "d2", "square"])
)
def test_smallest_sizes_stop_by_discrepancy(name, spec):
    # At the smallest n, B and W_0 are tiny (linear d2: p = k = 2), and every
    # run still stops by discrepancy, with the linearized residual never above
    # the residual and the q-condition met at equality steps.
    n = SMALLEST_N[name]
    prob = make_problem(name, n)
    cfg = SolverConfig(q=0.6, tau=3.5, max_iter=200)
    for delta in (1e-2, 1e-4):
        data = make_noisy_data(prob.y_exact, delta, seed=1)
        run = solve(prob, data, _scaling(spec, n), prob.x0_default, cfg)
        assert run.stop_reason == "discrepancy", delta
        for rec in run.trace[:-1]:
            assert rec.lin_res_norm <= rec.res_norm
            if rec.qcond_kind == "equality":
                assert abs(rec.lin_res_norm / rec.res_norm - cfg.q) <= 1e-8


def test_failed_bisection_raises(monkeypatch):
    # dstebz info > 0 (eigenvalues that did not converge, or a failed Sturm
    # sequence) is a LinAlgError, info < 0 (an illegal argument) a ValueError
    J, _ = _problem_pair("coefficient", 48)
    call = scipy.linalg.lapack.dstebz
    for info, error in [(1, np.linalg.LinAlgError), (4, np.linalg.LinAlgError), (-3, ValueError)]:
        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", lambda *args: (*call(*args)[:-1], info))
        with pytest.raises(error):
            bidiagonalize(J, identity(48))


def test_non_finite_bidiagonal_rejected():
    # bisection has no meaning on a NaN or infinite entry of B
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            _largest_singular_value(np.array([bad, 1.0, 1.0]))


def _eigenvalues_below(off, x):
    """How many eigenvalues of B's Golub–Kahan tridiagonal lie below x > 0, exactly.

    ``off`` = (d_1, e_1, ..., d_p) is that 2p x 2p tridiagonal's
    off-diagonal (its diagonal is zero), with eigenvalues +-s_i(B).  Every
    float is an integer times 2^E, so in units of the smallest such 2^E the
    leading principal minors D_k of T - x I obey the integer recurrence
    D_k = -X D_{k-1} - C_{k-1}^2 D_{k-2}; the units change no sign.  D_k /
    D_{k-1} is the k-th pivot of T - x I, so by Sylvester's law of inertia
    the count is the number of sign changes in D_0, ..., D_2p.
    """
    parts = [math.frexp(v) for v in (x, *map(float, off))]
    ints = [(int(math.ldexp(m, 53)), e - 53) for m, e in parts]
    unit = min(e for m, e in ints if m)
    X, *C = [m << (e - unit) if m else 0 for m, e in ints]
    prev, cur, changes = 0, 1, 0
    for c2 in [0] + [c * c for c in C]:
        prev, cur = cur, -X * cur - c2 * prev
        assert cur, "a leading minor of T - x I vanished"
        changes += (cur < 0) != (prev < 0)
    return changes


def _exact_within_ulps(off, s, ulps):
    """Whether s_max(B) lies within ``ulps`` spacings of s, decided exactly."""
    step = ulps * np.spacing(s)
    n = off.size + 1
    above_lo = s <= step or _eigenvalues_below(off, s - step) <= n - 1
    return above_lo and _eigenvalues_below(off, s + step) == n


def _scaled_bidiagonals():
    # (p, kind, scale): kind "mixed" spreads the entries over 2^-60..1 before
    # scaling, so at 2^-1000 some of them are subnormal; at 2^-1060 every
    # entry is subnormal, and some mixed ones round to 0
    for p in (1, 2, 3, 17, 128, 200):
        for kind in ("normal", "mixed"):
            for scale in (-1060, -1000, -537, -1, 0, 211, 1000):
                yield p, kind, scale


@pytest.mark.parametrize("p, kind, scale", list(_scaled_bidiagonals()))
def test_largest_singular_value_at_every_scale(p, kind, scale):
    # B^T B is formed from B scaled into [1/2, 1), so no square overflows and
    # none that underflows can move the result.  The reference is exact (a
    # Sturm count in integer arithmetic): numpy.linalg.svd is itself up to
    # 15 ulps off s_max at p = 128-200.
    rng = np.random.default_rng([p, scale + 2000, kind == "mixed"])
    base = rng.standard_normal(2 * p - 1)
    if kind == "mixed":
        base *= np.exp2(-rng.integers(0, 61, base.size))
    base = np.ldexp(base, -math.frexp(np.abs(base).max())[1])  # max in [1/2, 1)
    off = np.ldexp(base, scale)
    s = _largest_singular_value(off)
    assert s > 0.0
    assert _exact_within_ulps(off, s, 4)
    # the exact check does reject a value 64 ulps off
    assert not _exact_within_ulps(off, s + 64 * np.spacing(s), 4)
    if -1000 < scale < 1000:
        want = np.linalg.svd(np.diag(off[0::2]) + np.diag(off[1::2], 1), compute_uv=False)[0]
        assert s == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("size", [1, 3, 255])
def test_largest_singular_value_of_zero_bidiagonal(size):
    assert _largest_singular_value(np.zeros(size)) == 0.0


def test_singular_augmented_system_is_a_linalg_error():
    # J's first column is zero, so dgebrd's d_1 and e_1 are exactly 0, and at
    # lam = 0 the augmented system [[0, B], [B^T, 0]] has a zero pivot
    n = 48
    J = np.diag(np.r_[0.0, np.ones(n - 1)])
    f = bidiagonalize(J, identity(n))
    assert f._off[0] == f._off[1] == 0.0
    with pytest.raises(np.linalg.LinAlgError, match="augmented step system is singular"):
        f.split(np.ones(n)).omega(0.0)
    assert f.split(np.ones(n)).omega(1.0) == pytest.approx(np.sqrt(1.0 + (n - 1) / 4.0))


def test_lapack_argument_errors_raise():
    with pytest.raises(ValueError, match="dgebrd needs"):
        _lapack.dgebrd(np.eye(3))  # C order
    # three reflectors for a vector of length 2 (k > m): scipy passes the
    # shapes on, and LAPACK rejects its fifth argument
    with pytest.raises(ValueError, match="dormqr rejected argument 5"):
        _apply_q("T", np.ones((2, 3), order="F"), np.ones(3), np.ones(2), blocked=False)


def test_large_jacobian_accepted_as_gsvd_accepts():
    # ||J|| = 1e5 with zero columns: with L = I, N(L) = {0} and the pair is
    # complete at every scale of J, so both routes accept it, and the step
    # is the stacked least-squares one
    n = 48
    J = np.zeros((n, n))
    J[0, 0] = 1e5
    gsvd(J, identity(n))
    r = np.ones(n)
    np.testing.assert_allclose(bidiagonalize(J, identity(n)).split(r).step(1.0),
                               lm_step_reference(J, r, identity(n), 1.0), rtol=1e-12)


def test_large_jacobian_accepted_by_the_exact_values():
    # ||J||_F = 3e4 sqrt(48): L = I leaves nothing to decide at any scale
    J = 3e4 * np.eye(48)
    f = bidiagonalize(J, identity(48))
    r = np.ones(48)
    lam = 1e8
    np.testing.assert_allclose(f.split(r).step(lam), -3e4 / (9e8 + lam) * r, rtol=1e-14)


def test_refusal_in_solve_names_the_iterate(monkeypatch):
    prob = make_problem("coefficient", 48)
    calls = []

    def refuse(J, L):  # factors step 0's J, refuses step 1's
        calls.append(J)
        if len(calls) == 1:
            return bidiagonalize(J, L)
        raise CompletenessViolated("N(A) and N(L) intersect")

    monkeypatch.setattr(lmmss.solver, "bidiagonalize", refuse)
    with pytest.raises(CompletenessViolated, match="^iterate 1: N"):
        _run(prob, identity(48))


@pytest.mark.parametrize("name", ["linear", "autoconvolution", "coefficient"])
@pytest.mark.parametrize("n", [48, 128])
@pytest.mark.parametrize("spec", ["d1", "d2"])
def test_norm_bound_covers_gsvd_x(spec, n, name):
    # Both routes read the one G of the standard form: gsvd's X starts with
    # G V diag(mu), bit for bit, and ends with W_0 R_0^-1.  V is orthogonal
    # and mu_i <= 1, so the form alone bounds ||X||_F by
    # hypot(||G||_F, ||W_0 R_0^-1||_F).  Both routes accept J(x0) of every
    # bundled problem.
    prob = make_problem(name, n)
    J = prob.evaluate_J(prob.x0_default)
    L = from_spec(spec, n)
    _, _, _, G, W0_R0inv = _standard_form(np.asfortranarray(J), L)
    f = gsvd(J, L)
    assert f.X[:, : L.p].tobytes() == (G @ (f.V * f.mu)).tobytes()
    assert f.X[:, L.p :].tobytes() == W0_R0inv.tobytes()
    assert np.hypot(frobenius(G), frobenius(W0_R0inv)) >= frobenius(f.X)
    bidiagonalize(J, L)


def test_undecided_pair_accepted_by_the_exact_values_stays_bidiagonal():
    # J = 3e4 I with d2 at n = 48: J W_0 has orthonormal columns scaled by
    # 3e4, so sigma_min(J W_0) / ||J||_F = 1 / sqrt(48) accepts the pair,
    # however far ||J|| is from ||L||, and the step is the stacked one.
    J, L = 3e4 * np.eye(48), second_difference(48)
    f = bidiagonalize(J, L)
    r = np.ones(48)
    np.testing.assert_allclose(f.split(r).step(1.0), lm_step_reference(J, r, L, 1.0),
                               rtol=1e-12)


def test_constant_null_space_refused_as_gsvd_refuses():
    # J kills the constants, which d2 does too: N(J) and N(L) intersect.  The
    # computed sigma_min(J W_0) / ||J||_F is rounding that grows with n
    # (9.5e-16 at n = 48, 6.6e-14 at n = 1024); NULL_SPACE_RTOL stays
    # decades above it, so both routes refuse.
    for n in (48, 1024):
        J = np.eye(n) - np.full((n, n), 1.0 / n)
        L = second_difference(n)
        with pytest.raises(CompletenessViolated) as want:
            gsvd(J, L)
        with pytest.raises(CompletenessViolated) as got:
            bidiagonalize(J, L)
        assert str(got.value) == str(want.value)
        assert float(str(got.value).split(" = ")[1]) <= 1e-3 * NULL_SPACE_RTOL


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
