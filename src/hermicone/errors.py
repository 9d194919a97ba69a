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
    """Operands built over different coframe dimensions."""


class ModelInvalid(HermiconeError):
    """Model failed validation (integrability, d*d = 0, or a rank of d that rounding
    would decide)."""


class ModelNotUnimodular(ModelInvalid):
    """d does not vanish on top-minus-one degree; integration by parts is unavailable."""


class NotPositiveDefinite(HermiconeError):
    """Metric coefficient matrix is not Hermitian positive definite."""


class ToleranceFailure(HermiconeError):
    """A defining residual exceeded its tolerance."""


class NotSKT(HermiconeError):
    """Metric fails the pluriclosed predicate."""


class NotBalanced(HermiconeError):
    """Metric fails the balanced predicate."""


class NotPositive(HermiconeError):
    """Form is not strictly positive."""


class DegenerateDimension(HermiconeError):
    """Operation requires complex dimension at least 2."""


class StepTooLarge(HermiconeError):
    """Finite-difference step left the positivity domain."""


class DirectionNotAdmissible(HermiconeError):
    """Variation direction violates the cone constraint."""


class InfeasibleStart(HermiconeError):
    """Descent start point violates the cone constraints."""


class LineSearchFailure(HermiconeError):
    """Backtracking found no acceptable step above the floor."""


class EmptyCone(HermiconeError):
    """Feasibility probe found no positive element in the constraint span."""
