"""What the iteration must not notice: the scale of L and of (F, y, delta).

The step solves ``(J^T J + lam L^T L) d = -J^T r``, so L -> c L gives the
same d at lam / c^2, and (F, y, delta) -> a (F, y, delta) the same d at
a^2 lam.  Everything else a run decides on is relative too: the damping
search's bracket (in units of zeta_p^2) and tolerance (of ||r||), the
discrepancy rule (tau delta), and the completeness decision (L's rank
against ||L||_2, J W_0's against ||J||_F).  So a scaled run keeps every
iterate, its stop and its tags.  A rule on the singular values of [J; L]
against an absolute floor would refuse every d2 run below at L -> 1e4 L.

Every bundled problem at n = 32 with identity, d1 and d2 is run, with
delta = 1e-3 and seed 1.  Scales near the ends of the floating-point range
are not covered: ``_BidiagonalSplit.gradient_vanishes`` forms B^T b in
absolute terms, and it underflows there.
"""

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
#: with L or (F, y, delta) scaled by a factor that is not a power of two.
#: The scaled operands round differently at every step, and the measured
#: drift is at most 1.2e-14 (coefficient, d2, L -> 1e-4 L); this leaves
#: nearly two decades.
ITERATE_RTOL = 1e-12


@functools.cache
def _run(name, spec, a=1.0, c=1.0):
    """The noisy run of ``name`` with L -> c L and (F, y, delta) -> a (F, y, delta)."""
    prob = make_problem(name, N)
    data = make_noisy_data(prob.y_exact, 1e-3, seed=1)
    if a != 1.0:
        F, J = prob.eval_F, prob.eval_J
        prob = InverseProblem(name=name, eval_F=lambda x: a * F(x), eval_J=lambda x: a * J(x),
                              n=N, y_exact=a * prob.y_exact, x0_default=prob.x0_default)
        data = NoisyData(y_delta=a * data.y_delta, delta=a * data.delta, seed=data.seed)
    L = from_spec(spec, N)
    if c != 1.0:
        L = from_matrix(c * L.matrix)
    return solve(prob, data, L, prob.x0_default, SolverConfig(q=0.6, tau=3.5))


def _outline(run):
    return run.k_star, run.stop_reason, [rec.qcond_kind for rec in run.trace]


@pytest.mark.parametrize("a, c", [(1.0, 4.0), (2.0, 1.0)], ids=["L*4", "data*2"])
@pytest.mark.parametrize("name, spec", CASES)
def test_power_of_two_scaling_is_bitwise(name, spec, a, c):
    # Scaling by a power of two is exact, so the scaled run is the same run
    # bit for bit: the same iterates, and every recorded quantity scaled by
    # exactly its power of two.
    got, want = _run(name, spec, a, c), _run(name, spec)
    assert _outline(got) == _outline(want)
    for g, w in zip(got.trace, want.trace):
        assert g.x.tobytes() == w.x.tobytes()
        assert g.res_norm == a * w.res_norm
        assert g.omega_evals == w.omega_evals
        if w.lam is not None:
            assert g.lam == w.lam * (a / c) ** 2
            assert g.zeta_p == w.zeta_p * (a / c)
            assert g.step_Lnorm == c * w.step_Lnorm
            assert g.lin_res_norm == a * w.lin_res_norm


@pytest.mark.parametrize("a, c", [(1.0, 1e4), (1.0, 1e-4), (1e6, 1.0)],
                         ids=["L*1e4", "L*1e-4", "data*1e6"])
@pytest.mark.parametrize("name, spec", CASES)
def test_scaling_keeps_the_run(name, spec, a, c):
    got, want = _run(name, spec, a, c), _run(name, spec)
    assert want.stop_reason == "discrepancy"
    assert _outline(got) == _outline(want)
    for g, w in zip(got.trace[1:], want.trace[1:]):
        assert np.linalg.norm(g.x - w.x) <= ITERATE_RTOL * np.linalg.norm(w.x)
