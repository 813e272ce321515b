"""Runtime limits.

Everything in this package computes with exact integers, so the only way to
die is to let a tower of exponentials actually materialize.  The magnitude
cap bounds both string lengths and the bit-length of integers produced by
the growth hierarchy; operations that would cross it raise ResourceError
instead of allocating.
"""

from __future__ import annotations

import os

from .errors import ParseError, ResourceError

__all__ = [
    "DEFAULT_MAGNITUDE_CAP",
    "ENV_VAR",
    "MAX_NESTING",
    "magnitude_cap",
    "set_magnitude_cap",
    "check_magnitude",
]

DEFAULT_MAGNITUDE_CAP = 2 ** 20
ENV_VAR = "CANTORBET_MAGNITUDE_CAP"

# deepest nesting the term and set-expression parsers accept: compiling and
# evaluating recurse a frame or two per level, so deeper input is refused
# up front
MAX_NESTING = 256

_cap = None  # resolved lazily so the env var is honored at first use


def magnitude_cap() -> int:
    global _cap
    if _cap is None:
        from .core import read_natural  # core imports this module
        raw = os.environ.get(ENV_VAR)
        cap = read_natural(raw, ENV_VAR) if raw else DEFAULT_MAGNITUDE_CAP
        if cap == 0:
            raise ParseError(f"{ENV_VAR} must be positive, got {raw!r}")
        _cap = cap
    return _cap


def set_magnitude_cap(value: int | None) -> None:
    """Override the cap (None resets to env/default).  Mainly for tests."""
    global _cap
    if value is not None and value <= 0:
        raise ValueError("magnitude cap must be positive")
    _cap = value


def check_magnitude(size: int, what: str = "value") -> None:
    """Raise ResourceError if `size` (a length / bit-length) exceeds the cap."""
    if size > magnitude_cap():
        # a size past 2^64 is shown by its bit length: too long to print
        shown = size if size.bit_length() <= 64 else \
            f"2^{size.bit_length() - 1} or more"
        raise ResourceError(
            f"{what} of size {shown} exceeds magnitude cap {magnitude_cap()}"
        )
