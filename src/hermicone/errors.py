"""Exception types shared across the package."""


class HermiconeError(Exception):
    """Base class for package-specific errors."""


class SchemaError(HermiconeError):
    """Model or metric input violates the JSON schema."""


class UnknownCatalogName(HermiconeError):
    """Requested built-in model does not exist."""


class DegreeOutOfRange(HermiconeError):
    """Bidegree or total degree outside 0..n (resp. 0..2n)."""


class DimensionMismatch(HermiconeError):
    """Operands built over different coframe dimensions, or a dimension the operation
    does not take (n < 2 for the volume root)."""


class ModelInvalid(HermiconeError):
    """Model failed validation (integrability, d*d = 0, or a rank of d that rounding
    would decide)."""


class ModelNotUnimodular(ModelInvalid):
    """d does not vanish on top-minus-one degree; integration by parts is unavailable."""


class ToleranceFailure(HermiconeError):
    """A defining residual exceeded its tolerance."""


class NotSKT(HermiconeError):
    """Metric fails the pluriclosed predicate."""


class NotBalanced(HermiconeError):
    """Metric fails the balanced predicate."""


class NotPositive(HermiconeError):
    """A point is not positive: a metric matrix that is not Hermitian positive definite,
    or a form or normalization integral that is not strictly positive."""


class StepTooLarge(HermiconeError):
    """Finite-difference step left the positivity domain."""


class DirectionNotAdmissible(HermiconeError):
    """Variation direction violates the cone constraint."""


class InfeasibleStart(HermiconeError):
    """Descent start point violates the cone constraints."""


class EmptyCone(HermiconeError):
    """Feasibility probe found no positive element in the constraint span."""
