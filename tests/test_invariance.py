"""What the iteration must not notice: the scale, sign and order of L and of (F, y).

The step solves ``(J^T J + lam L^T L) d = -J^T r``, so L -> c L gives the
same d at lam / c^2, and (F, y, delta) -> a (F, y, delta) the same d at
a^2 lam.  Everything else a run decides on is relative too: the damping
search's bracket (in units of zeta_p^2) and tolerance (of ||r||), the
discrepancy rule (tau delta), and the completeness decision (L's rank
against ||L||_2, J W_0's against ||J||_F).  So a scaled run keeps every
iterate, its stop and its tags.  A rule on the singular values of [J; L]
against an absolute floor would refuse every d2 run below at L -> 1e4 L.
A sign, (F, y) -> -(F, y) with delta kept or L -> -L, is the same: a = -1
or c = -1.

A permutation of the data rows or of L's rows, and L -> V L with V
orthogonal, leave J^T J, J^T r and L^T L unchanged in exact arithmetic, but
not the order in which the factorization sums, so those runs agree only to
rounding.

The memory layout of J is not seen either: the coefficient Jacobian comes
in F order, the layout LAPACK reads, and the same Jacobian handed over in
C order is copied into it, so the run is the same bit for bit.  Only
``lin_res_norm`` = ||r + J d|| is a product with J in its own layout and
may differ by rounding.

Every bundled problem at n = 32 with identity, d1 and d2 is run, with
delta = 1e-3 and seed 1.  Scales near the ends of the floating-point range
are a strict xfail: ``_BidiagonalSplit.gradient_vanishes`` forms B^T b in
absolute terms, and lam = q/(1-q) zeta_p^2 squares zeta_p, and both
underflow there (ROADMAP, invariance item).
"""

import dataclasses
import functools

import numpy as np
import pytest

from lmmss import InverseProblem, SolverConfig, make_noisy_data, make_problem, solve
from lmmss.problems import NoisyData
from lmmss.scaling import from_matrix, from_spec

N = 32
CASES = [(name, spec) for name in ("linear", "autoconvolution", "coefficient")
         for spec in ("identity", "d1", "d2")]

#: Relative distance allowed between the iterates of a run and of the run
#: with L or (F, y, delta) scaled by a factor that is not a power of two, or
#: with rows reordered or mixed.  The transformed operands round differently
#: at every step, and the measured drift is at most 4.9e-15 (L's rows
#: permuted; 4.6e-15 for the scalings); this leaves more than two decades.
ITERATE_RTOL = 1e-12


@functools.cache
def _run(name, spec, a=1.0, c=1.0, mix=None):
    """The noisy run of ``name`` with (F, y) -> a (F, y), delta -> |a| delta and L -> c L.

    ``mix`` also permutes the data rows (``"data rows"``) or L's rows
    (``"L rows"``), or multiplies L by an orthogonal matrix
    (``"L orthogonal"``), each drawn from a seeded generator.
    """
    prob = make_problem(name, N)
    data = make_noisy_data(prob.y_exact, 1e-3, seed=1)
    rng = np.random.default_rng(5)
    if a != 1.0 or mix == "data rows":
        rows = rng.permutation(N) if mix == "data rows" else slice(None)
        F, J = prob.eval_F, prob.eval_J
        prob = InverseProblem(name=name, eval_F=lambda x: a * F(x)[rows],
                              eval_J=lambda x: a * J(x)[rows], n=N,
                              y_exact=a * prob.y_exact[rows], x0_default=prob.x0_default)
        data = NoisyData(y_delta=a * data.y_delta[rows], delta=abs(a) * data.delta,
                         seed=data.seed)
    L = from_spec(spec, N)
    if mix == "L rows":
        L = from_matrix(L.matrix[rng.permutation(L.p)])
    if mix == "L orthogonal":
        V = np.linalg.qr(rng.standard_normal((L.p, L.p)))[0]
        L = from_matrix(V @ L.matrix)
    if c != 1.0:
        L = from_matrix(c * L.matrix)
    return solve(prob, data, L, prob.x0_default, SolverConfig(q=0.6, tau=3.5))


def _outline(run):
    return run.k_star, run.stop_reason, [rec.qcond_kind for rec in run.trace]


def _assert_bitwise(name, spec, a, c):
    # The same iterates, and every recorded quantity scaled by exactly |a|,
    # |c| or (a / c)^2.
    got, want = _run(name, spec, a, c), _run(name, spec)
    assert _outline(got) == _outline(want)
    for g, w in zip(got.trace, want.trace):
        assert g.x.tobytes() == w.x.tobytes()
        assert g.res_norm == abs(a) * w.res_norm
        assert g.omega_evals == w.omega_evals
        if w.lam is not None:
            assert g.lam == w.lam * (a / c) ** 2
            assert g.zeta_p == w.zeta_p * abs(a / c)
            assert g.step_Lnorm == abs(c) * w.step_Lnorm
            assert g.lin_res_norm == abs(a) * w.lin_res_norm


def _assert_close(got, want):
    assert want.stop_reason == "discrepancy"
    assert _outline(got) == _outline(want)
    for g, w in zip(got.trace[1:], want.trace[1:]):
        assert np.linalg.norm(g.x - w.x) <= ITERATE_RTOL * np.linalg.norm(w.x)


@pytest.mark.parametrize("a, c", [(1.0, 4.0), (2.0, 1.0), (1.0, -1.0), (-1.0, 1.0)],
                         ids=["L*4", "data*2", "L*-1", "data*-1"])
@pytest.mark.parametrize("name, spec", CASES)
def test_power_of_two_scaling_is_bitwise(name, spec, a, c):
    # Scaling by a signed power of two is exact, so the transformed run is the
    # same run bit for bit.
    _assert_bitwise(name, spec, a, c)


@pytest.mark.xfail(strict=True, reason="ROADMAP invariance item: at 2^-560 B^T b underflows in "
                   "gradient_vanishes (identity stops qcond_unsolvable_hard at k = 0) and "
                   "lam = q/(1-q) zeta_p^2 underflows to 0 (d1 and d2 raise NonpositiveLambda)")
@pytest.mark.parametrize("name, spec", CASES)
def test_tiny_power_of_two_scaling_is_bitwise(name, spec):
    _assert_bitwise(name, spec, 2.0**-560, 1.0)


@pytest.mark.parametrize("a, c", [(1.0, 1e4), (1.0, 1e-4), (1e6, 1.0)],
                         ids=["L*1e4", "L*1e-4", "data*1e6"])
@pytest.mark.parametrize("name, spec", CASES)
def test_scaling_keeps_the_run(name, spec, a, c):
    _assert_close(_run(name, spec, a, c), _run(name, spec))


@pytest.mark.parametrize("mix", ["data rows", "L rows", "L orthogonal"])
@pytest.mark.parametrize("name, spec", CASES)
def test_reordering_keeps_the_run(name, spec, mix):
    _assert_close(_run(name, spec, mix=mix), _run(name, spec))


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("spec", ["identity", "d2"])
def test_jacobian_layout_keeps_the_run(n, spec):
    # The bundled coefficient problem against the same problem whose eval_J
    # returns C order.  ||r + J d|| moved by at most 5.8e-16 relative between
    # the two layouts on the benchmark's runs at n = 32-128.
    prob = make_problem("coefficient", n)
    eval_J = prob.eval_J
    c_ordered = dataclasses.replace(prob, eval_J=lambda x: np.ascontiguousarray(eval_J(x)))
    assert prob.evaluate_J(prob.x0_default).flags.f_contiguous
    assert c_ordered.evaluate_J(prob.x0_default).flags.c_contiguous
    data, L = make_noisy_data(prob.y_exact, 1e-3, seed=1), from_spec(spec, n)
    got, want = (solve(p, data, L, prob.x0_default, SolverConfig(q=0.6, tau=3.5))
                 for p in (c_ordered, prob))
    assert want.stop_reason == "discrepancy"
    assert _outline(got) == _outline(want)
    for g, w in zip(got.trace, want.trace):
        assert g.x.tobytes() == w.x.tobytes()
        assert (g.res_norm, g.lam, g.zeta_p, g.step_Lnorm, g.omega_evals) == (
            w.res_norm, w.lam, w.zeta_p, w.step_Lnorm, w.omega_evals)
        if w.lin_res_norm is not None:
            assert g.lin_res_norm == pytest.approx(w.lin_res_norm, rel=1e-15, abs=0.0)
