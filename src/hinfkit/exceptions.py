"""Exception hierarchy shared by all hinfkit modules: the CLI exits 2 on a SchemaError,
3 on a ModelError (a model or gain that breaks a hypothesis) and 7 on any other error."""


class HinfkitError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(HinfkitError):
    """A model or gain that breaks a hypothesis of a construction or a check."""


class InvalidInputError(ModelError, ValueError):
    """Non-finite entries, nonpositive rates, or otherwise unusable data."""


class DimensionError(ModelError, ValueError):
    """Matrix or vector shapes are inconsistent with the operation."""


class SingularMatrixError(ModelError):
    """A matrix required to be invertible is singular or numerically near-singular.

    Carries ``rcond``, a reciprocal condition estimate, when one is available.
    """

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class PoleAtEvaluationError(ModelError, ZeroDivisionError):
    """A rational function was evaluated at one of its poles."""


class PoleOnAxisError(ModelError):
    """The closed loop is singular at an evaluation frequency (gain not stabilizing)."""


class NotRealGainError(ModelError):
    """The constructed feedback matrix has a non-negligible imaginary part."""


class HypothesisViolationError(ModelError, ValueError):
    """Structural hypotheses of a construction (symmetry, definiteness, rank) fail."""


class StandingAssumptionError(ModelError):
    """A plant violates a standing well-posedness assumption on the frequency grid."""


class UnstableSystemError(HinfkitError):
    """An operation that requires a stable system received an unstable one."""


class UnstabilizableError(ModelError):
    """No finite feasible attenuation level exists for the synthesis problem."""


class NumericalError(HinfkitError, RuntimeError):
    """An internal numerical procedure failed to converge or bracket."""


class SchemaError(HinfkitError, ValueError):
    """A model document does not match the expected schema.

    ``field`` holds a dotted path to the offending entry.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
