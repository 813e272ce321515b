"""Exact martingale calculus on Cantor space.

Dyadic arithmetic, resource-bounded measures, martingale regularization,
splitting operators for measured sets, diagonalization, and a metered
function algebra with length bounds — all over exact integer arithmetic.
"""

from .core import Dyadic, bton, ntob, growth

__version__ = "0.1.0"

__all__ = ["Dyadic", "bton", "ntob", "growth"]
