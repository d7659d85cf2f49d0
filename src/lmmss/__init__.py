"""Regularizing Levenberg-Marquardt solver with singular scaling.

Iteratively regularized nonlinear least squares for zero-residual inverse
problems with noisy data: seminorm scaling matrices, q-condition damping
selection, discrepancy-principle stopping, plus a diagnostics suite that
verifies the method's convergence guarantees empirically.
"""

from .errors import (
    BracketFailure,
    CompletenessViolated,
    DegenerateBall,
    DimensionMismatch,
    DimensionTooSmall,
    EvaluationFailure,
    LmmssError,
    MissingExactSolution,
    NegativeDelta,
    NonFiniteInput,
    NonpositiveCoefficient,
    NonpositiveLambda,
    RankDeficientL,
    ZeroGradient,
)
from .scaling import (
    ScalingOperator,
    first_difference,
    identity,
    second_difference,
    seminorm,
)
from .solver import (
    IterateRecord,
    RunRecord,
    SolverConfig,
    select_lambda_q,
    solve,
)
from .problems import (
    Box,
    InverseProblem,
    NoisyData,
    make_noisy_data,
    make_problem,
    problem_autoconvolution,
    problem_coefficient_identification,
    problem_from_files,
    problem_linear_illposed,
)
from .diagnostics import (
    EuclideanBoundReport,
    GainReport,
    KstarBoundReport,
    SweepReport,
    SweepRow,
    TccEstimate,
    check_euclidean_bound,
    check_gain,
    check_kstar_bound,
    estimate_tcc_constant,
    regularization_sweep,
    run_tcc_ratios,
    tcc_ratio,
    theta_exact,
    theta_noisy,
)

__version__ = "0.1.0"
