"""Exception hierarchy shared across the package."""


class MfrlError(Exception):
    """Base class for all package-specific errors."""


class InputDomainError(MfrlError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UnsupportedDimensionError(MfrlError, ValueError):
    """The operation is only implemented for a restricted set of dimensions."""


class ResourceBudgetError(MfrlError, RuntimeError):
    """A hard resource budget (value-array bytes, support size) would be exceeded."""


class SchemaError(MfrlError, ValueError):
    """A plan or input file does not follow its schema."""


class ConfigurationError(MfrlError, ValueError):
    """A solver or experiment configuration violates a precondition."""


class DivergenceError(MfrlError, RuntimeError):
    """A numerical sweep produced non-finite values."""


class ConsistencyError(MfrlError, RuntimeError):
    """An internal invariant failed (usually signals a convention bug)."""
