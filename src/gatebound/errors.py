"""Exception types shared across the package."""

import math
import operator


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


def require_qubit(q, n: int) -> int:
    """``q`` as a plain int if it is an integer in 0..n-1, numpy integers and bools
    included; a float, a string or an index out of range is a DomainError."""
    try:
        index = operator.index(q)
    except TypeError:
        raise DomainError(f"qubit {q!r} is not an integer") from None
    if not 0 <= index < n:
        raise DomainError(f"qubit {q} outside 0..{n - 1}")
    return index
