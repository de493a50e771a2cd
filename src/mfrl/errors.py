"""Exception hierarchy shared across the package, and the plan-field checks.

Plans and problem files are JSON.  The checks below turn a field of the
wrong type or domain into an ``InputDomainError`` (the CLI reports it as a
schema error) instead of letting ``float``/``int``/numpy raise a bare
``ValueError`` or ``TypeError``.
"""

import math

import numpy as np


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


def check_fields(obj, known, what: str) -> None:
    """Refuse anything but a JSON object whose keys are all in ``known``."""
    if not isinstance(obj, dict):
        raise InputDomainError(f"{what} must be an object, got {obj!r}")
    unknown = set(obj) - set(known)
    if unknown:
        raise InputDomainError(f"unknown {what} fields {sorted(unknown)}")


def plan_int(name: str, value) -> int:
    """An integer field; bools and floats (even whole ones) are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputDomainError(f"plan field {name} must be an integer, got {value!r}")
    return int(value)


def plan_float(name: str, value) -> float:
    """A finite number (not a boolean) as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise InputDomainError(f"plan field {name} must be a finite number, got {value!r}")
