"""Exception hierarchy shared by every module.

Split along the CLI's exit-code boundaries: domain errors (bad values,
violated preconditions) versus resource errors (magnitude cap tripped).
Parse problems in our own little file/expression formats raise ParseError,
which the CLI also treats as a domain failure.
"""

from __future__ import annotations

__all__ = [
    "CantorbetError",
    "DomainError",
    "PreconditionError",
    "ParseError",
    "MeasureMismatchError",
    "ModulusViolationError",
    "BoundViolationError",
    "ResourceError",
]


class CantorbetError(Exception):
    """Base class for everything raised on purpose by this package."""


class DomainError(CantorbetError):
    """An input is outside the domain of the requested operation."""


class PreconditionError(DomainError):
    """A documented precondition was violated (e.g. not weakly positive)."""


class ParseError(DomainError):
    """Malformed input: files, terms, expressions, or a table's shape."""


class MeasureMismatchError(DomainError):
    """Two martingales for different measures were combined."""


class ModulusViolationError(DomainError):
    """A sequence left the envelope its convergence modulus promised."""


class BoundViolationError(DomainError):
    """A recursion schema exceeded its declared bound.

    Carries enough context to say *which* schema node broke the bound and at
    which recursion step, because that is what the evaluator reports.  The
    bound is on output length for notation recursion and on numeric value
    for bounded recursion.
    """

    def __init__(self, schema: str, step, got: int, allowed: int):
        self.schema = schema
        self.step = step
        self.got = got
        self.allowed = allowed
        super().__init__(
            f"{schema}: bound violated at step {step!r}: "
            f"{got} exceeds allowed {allowed}"
        )


class ResourceError(CantorbetError):
    """The configured magnitude cap would be exceeded."""
