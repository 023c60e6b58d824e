"""Exception types shared across the package."""

import math


class ParseError(ValueError):
    """Malformed textual input (Pauli word, JSON file, ...)."""


class DomainError(ValueError):
    """Argument outside an operation's mathematical domain."""


class DimensionError(DomainError):
    """Objects with mismatched qubit counts were combined."""


class ResourceLimitError(DomainError):
    """A dense-matrix or state-space size cap was exceeded."""


def require_positive(name: str, value) -> None:
    """DomainError unless ``value`` is finite and > 0 (NaN and +-inf included)."""
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and positive, got {value}")
