"""Exception types shared across the package."""


class LmmssError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LmmssError):
    """Operands have inconsistent shapes."""


class NonFiniteInput(LmmssError, ValueError):
    """An input matrix holds a NaN or an infinite entry; the message names it.

    Also a ValueError, so the CLI reports it as bad input (exit status 2).
    """


class DimensionTooSmall(LmmssError):
    """Requested size is below the minimum the constructor supports."""


class RankDeficientL(LmmssError):
    """Scaling matrix does not have full row rank."""


class CompletenessViolated(LmmssError):
    """The null spaces of the Jacobian and the scaling matrix intersect."""


class SingularSystem(LmmssError):
    """Stacked least-squares system is numerically rank deficient."""


class NonpositiveLambda(LmmssError):
    """Damping parameter must be strictly positive."""


class ZeroGradient(LmmssError):
    """J^T r vanishes, so the damping-parameter selection is undefined."""


class BracketFailure(LmmssError):
    """Root bracketing for the damping parameter failed numerically."""


class NegativeDelta(LmmssError):
    """Noise level must be nonnegative."""


class EvaluationFailure(LmmssError):
    """Forward map or Jacobian evaluation failed or returned non-finite values."""


class NonpositiveCoefficient(EvaluationFailure):
    """Conductivity fell at or below the positivity floor."""


class MissingExactSolution(LmmssError):
    """Diagnostic requires a problem with a known exact solution."""


class DegenerateBall(LmmssError):
    """No admissible sample pairs were found in the requested ball."""
