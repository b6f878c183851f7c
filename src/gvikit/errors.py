"""Exception types shared across the package."""


class ToolkitError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionMismatch(ToolkitError, ValueError):
    """Operand dimensions are incompatible."""


class UnsupportedVariant(ToolkitError, TypeError):
    """The requested operation is not defined for this set variant."""


class DimensionTooLarge(ToolkitError, ValueError):
    """The instance exceeds the enumeration limits this package supports."""


class UnboundedSet(ToolkitError, ValueError):
    """A halfspace intersection used as a feasible set must be bounded."""


class EmptySet(ToolkitError, ValueError):
    """A halfspace intersection used as a feasible set must be nonempty."""


class NonConvergence(ToolkitError, RuntimeError):
    """An iterative routine (rejection sampling, a capped search) gave up."""


class EmptyGrid(ToolkitError, ValueError):
    """Grid generation produced no points inside the set."""


class InversionFailed(ToolkitError, RuntimeError):
    """Numerical inversion found no preimage within tolerance."""

    def __init__(self, message, best_residual=None, best_point=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_point = best_point


class SchemaError(ToolkitError, ValueError):
    """A problem file violates the input schema.

    ``pointer`` is a JSON pointer to the offending location.
    """

    def __init__(self, pointer, message):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer or "/"
        self.reason = message
