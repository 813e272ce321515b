"""Computable real functions with moduli of uniform continuity: the pasting
combinator and the Robin Hood transfer function.

Functions carry an `approx(n, point)` evaluator accurate to 2**-n, a modulus
of uniform continuity, and (for every function built here) an exact rational
evaluator.  The Robin Hood transfer is the four cases of one body,
`transfer_cases`, on an integer weight and an integer pair over one
denominator: `robin_hood_exact` and the exact regularization route put the
pair on the lcm of its denominators, and the finite-precision route runs it
on 2**-q mantissas.  `robin_hood_pipeline` assembles the same function from
nested pastes, as the reference the test suite holds `robin_hood_exact` to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .core import as_fraction, frac_round_at
from .errors import DomainError

__all__ = [
    "RealFunction",
    "from_exact",
    "paste",
    "robin_hood_exact",
    "robin_hood_pipeline",
    "identity1",
    "negate1",
    "absolute_value",
    "ceil_log2",
    "transfer_cases",
    "weight_bits",
]

Point = tuple
Exact = Callable[[tuple], tuple]


def ceil_log2(q) -> int:
    """Least k >= 0 with q <= 2**k (q a positive rational).

    With q = n/d, q <= 2**k exactly when (n - 1) // d < 2**k, so k is the
    bit length of (n - 1) // d.
    """
    q = as_fraction(q)
    if q <= 0:
        raise DomainError("ceil_log2 needs a positive argument")
    return ((q.numerator - 1) // q.denominator).bit_length()


@dataclass
class RealFunction:
    """A uniformly continuous function with a certified evaluator.

    approx(n, xs) is within 2**-n of the true value componentwise; moving
    every input by at most 2**-modulus(n) moves the value by at most 2**-n.
    exact_fn evaluates the function precisely on rationals.
    """

    arity: int
    coarity: int
    modulus: Callable[[int], int]
    approx_fn: Callable[[int, Point], Point]
    exact_fn: Exact

    def approx(self, n: int, xs: Point) -> Point:
        if n < 0:
            raise DomainError("precision must be >= 0")
        if len(xs) != self.arity:
            raise DomainError(f"expected {self.arity} arguments, got {len(xs)}")
        return self.approx_fn(n, tuple(xs))

    def exact(self, xs: Point) -> tuple:
        if len(xs) != self.arity:
            raise DomainError(f"expected {self.arity} arguments, got {len(xs)}")
        return self.exact_fn(tuple(as_fraction(x) for x in xs))


def from_exact(arity: int, coarity: int, exact_fn: Exact,
               modulus: Callable[[int], int]) -> RealFunction:
    """Wrap an exact rational function; approx rounds canonically at n."""

    def approx_fn(n, xs):
        vals = exact_fn(tuple(as_fraction(x) for x in xs))
        return tuple(frac_round_at(v, n) for v in vals)

    return RealFunction(arity, coarity, modulus, approx_fn, exact_fn)


def identity1() -> RealFunction:
    return from_exact(1, 1, lambda xs: xs, lambda n: n)


def negate1() -> RealFunction:
    return from_exact(1, 1, lambda xs: (-xs[0],), lambda n: n)


def paste(f: RealFunction, g: RealFunction, k: RealFunction) -> RealFunction:
    """Glue f (where k >= 0) and g (where k < 0) into one function.

    The caller vouches that the glued function is continuous across the
    k = 0 seam; under that hypothesis the evaluator below is accurate to
    2**-n: it asks k for a sign at precision m(n)+1 and answers from the
    chosen branch at the same precision, where m is the pointwise max of
    the three moduli (floored at n).
    """
    if not (f.arity == g.arity == k.arity):
        raise DomainError("paste requires a shared arity")
    if f.coarity != g.coarity:
        raise DomainError("paste branches must share a coarity")
    if k.coarity != 1:
        raise DomainError("paste guard must be scalar")

    def modulus(n):
        return max(n, f.modulus(n), g.modulus(n), k.modulus(n))

    def approx_fn(n, xs):
        p = modulus(n) + 1
        sign = k.approx(p, xs)[0]
        branch = f if sign >= 0 else g
        return branch.approx(p, xs)

    def exact_fn(xs):
        return f.exact_fn(xs) if k.exact_fn(xs)[0] >= 0 else g.exact_fn(xs)

    return RealFunction(f.arity, f.coarity, modulus, approx_fn, exact_fn)


def absolute_value() -> RealFunction:
    """|x| as the textbook paste of the identity and its negation."""
    return paste(identity1(), negate1(), identity1())


# ---------------------------------------------------------------------------
# Robin Hood
# ---------------------------------------------------------------------------

def transfer_cases(A: int, B: int, s: int, t: int, one: int):
    """The four cases of the Robin Hood transfer, on a scaled pair.

    The weight is a = A/B with integers 0 < A < B, in any common scale
    (no gcd is taken), and the pair is (s/one, t/one), on integers.  A
    pair outside the domain (s, t >= 0 or mean >= 1) raises DomainError.
    Each output comes back as (n, d), an integer d > 0 with output =
    n / (d * one), so a caller on the 2**-q grid (one = 2**q) rounds n/d
    to a mantissa and an exact caller reduces n / (d * one).  With
    S = A*s + (B-A)*t, the mean is S / (B * one), and the cases are those
    of `robin_hood_exact`:
      * both coordinates in [0, one]: (s, 1) and (t, 1);
      * S >= B * one: both get the mean, (S, B);
      * s >= one: (one, 1), and (S - A*one, B - A) for the other;
      * otherwise t >= one: (S - (B-A)*one, A), and (one, 1).
    """
    if 0 <= s <= one and 0 <= t <= one:
        return (s, 1), (t, 1)
    S = A * s + (B - A) * t
    if S >= B * one:
        return (S, B), (S, B)
    if s < 0 or t < 0:
        raise DomainError(f"({Fraction(s, one)}, {Fraction(t, one)}) outside "
                          f"the transfer domain for {Fraction(A, B)}")
    if s >= one:
        return (one, 1), (S - A * one, B - A)
    # inside the quadrant and not in the unit square, t >= one here
    return (S - (B - A) * one, A), (one, 1)


def _transfer_weight(alpha) -> Fraction:
    """The transfer's weight as a Fraction, strictly inside (0,1)."""
    a = as_fraction(alpha)
    if not (0 < a < 1):
        raise DomainError("transfer weight must lie strictly in (0,1)")
    return a


def robin_hood_exact(alpha, s, t) -> tuple[Fraction, Fraction]:
    """Four-case transfer: average-preserving, floors winners at 1.

    Cases, on the domain [0,inf)^2 union {mean >= 1}:
      * both coordinates already in [0,1]: unchanged;
      * mean >= 1: both get the mean;
      * mean < 1 and s >= 1: s gives its excess, pinned to 1;
      * mean < 1 and t >= 1: symmetric.
    The cases are `transfer_cases`, on T, the lcm of the denominators.
    """
    a = _transfer_weight(alpha)
    s, t = as_fraction(s), as_fraction(t)
    T = lcm(s.denominator, t.denominator)
    (n0, d0), (n1, d1) = transfer_cases(a.numerator, a.denominator,
                                        s.numerator * T // s.denominator,
                                        t.numerator * T // t.denominator, T)
    return Fraction(n0, d0 * T), Fraction(n1, d1 * T)


def weight_bits(A: int, B: int) -> int:
    """ceil(log2) of the transfer's slope max(1, 1/a, 1/(1-a)) at the
    weight a = A/B, 0 < A < B.

    The slope is B / min(A, B - A), and ceil_log2's closed form
    ((n - 1) // d).bit_length() gives the same k for n/d in any scale,
    reduced or not.
    """
    return ((B - 1) // min(A, B - A)).bit_length()


PIPELINE_BOX_BITS = 6


def robin_hood_pipeline(alpha) -> RealFunction:
    """Reference route: the same function assembled from nested pastes.

    Branch order: identity inside the unit square; mean-to-both when the
    mean clears 1; then the two give-to-the-poorer triangles; (1,1) as the
    join of the remaining seams.  Guard moduli are valid on the box
    |s|, |t| <= 2**PIPELINE_BOX_BITS, which is all the tests (and the
    kernel) use.
    """
    a = _transfer_weight(alpha)
    B = PIPELINE_BOX_BITS

    def fn2(exact, modulus):
        return from_exact(2, 2, exact, modulus)

    def guard(exact, modulus):
        return from_exact(2, 1, exact, modulus)

    mean = lambda xs: a * xs[0] + (1 - a) * xs[1]

    ident = fn2(lambda xs: xs, lambda n: n)
    both_mean = fn2(lambda xs: (mean(xs), mean(xs)), lambda n: n)
    give_right = fn2(lambda xs: (Fraction(1), (mean(xs) - a) / (1 - a)),
                     lambda n: n + ceil_log2(1 / (1 - a)))
    give_left = fn2(lambda xs: ((mean(xs) - (1 - a)) / a, Fraction(1)),
                    lambda n: n + ceil_log2(1 / a))
    corner = fn2(lambda xs: (Fraction(1), Fraction(1)), lambda n: n)

    inside = guard(lambda xs: (min((1 - xs[0]) * xs[0], (1 - xs[1]) * xs[1]),),
                   lambda n: n + B + 2)
    mean_high = guard(lambda xs: (mean(xs) - 1,), lambda n: n)
    tri_s = guard(lambda xs: ((xs[0] - 1) * xs[1] * (1 - mean(xs)),),
                  lambda n: n + 2 * B + 6)
    tri_t = guard(lambda xs: ((xs[1] - 1) * xs[0] * (1 - mean(xs)),),
                  lambda n: n + 2 * B + 6)

    last = paste(give_left, corner, tri_t)
    mid = paste(give_right, last, tri_s)
    low = paste(both_mean, mid, mean_high)
    return paste(ident, low, inside)
