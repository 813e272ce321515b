"""Constructors and the capital-conservation diagonalization.

A constructor is a map on bit strings that strictly extends its input;
iterating it from the empty string pins down a single infinite sequence.
`diagonalize` turns a martingale into the constructor that first rushes
through a designated cylinder and afterwards always walks into the child
the (approximated) martingale values less — dodging the bettor's capital.
Each such step asks `approx` for one child, then the other; a regularized
martingale answers both from one path scan, which resumes where the last
step's stopped, so each step extends it by one level and a walk of D steps
costs O(D) base queries, not O(D^2).
`conservation_check` runs that walk for finitely many steps and reports
the capital it compared at each step, witnessing that it never climbs
back to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Dyadic, show_int, validate_string
from .errors import DomainError, PreconditionError
from .martingale import Martingale, max_capital
from .measure import ProbabilityMeasure, same_measure
from .realfun import ceil_log2

__all__ = [
    "Constructor",
    "result_prefix",
    "query_precision",
    "diagonalize",
    "capital_margin",
    "TrajectoryStep",
    "ConservationReport",
    "conservation_check",
]


class Constructor:
    """A strict-extension step function on bit strings."""

    __slots__ = ("_step",)

    def __init__(self, step):
        self._step = step

    def __call__(self, x: str) -> str:
        validate_string(x)
        y = self._step(x)
        validate_string(y)
        if len(y) <= len(x) or not y.startswith(x):
            raise DomainError(
                f"constructor step must strictly extend its input; "
                f"{x!r} -> {y!r}")
        return y


def result_prefix(delta: Constructor, n: int) -> str:
    """First n bits of the sequence the constructor converges to."""
    if n < 0:
        raise DomainError("prefix length must be >= 0")
    x = ""
    while len(x) < n:
        x = delta(x)
    return x[:n]


def query_precision(x: str, m: int) -> int:
    """Precision at which the diagonalizer inspects the children of x."""
    return len(x) + m + 2


def diagonalize(d: Martingale, m: int, w: str) -> Constructor:
    """Constructor that enters the cylinder of w, then starves d.

    Past w, each step compares the two children at precision
    ``query_precision(x, m)`` and extends by the cheaper one; ties go
    to the 0 side.
    """
    validate_string(w)
    if m < 0:
        raise DomainError("margin index must be >= 0")

    def step(x: str) -> str:
        if w.startswith(x) and len(x) < len(w):
            return w
        return x + _cheaper_child(d, m, x)[0]

    return Constructor(step)


def _cheaper_child(d: Martingale, m: int, x: str) -> tuple[str, Dyadic]:
    """The bit of the child of x that d values less at the step's
    precision, and that approximation; ties go to 0."""
    r = query_precision(x, m)
    c0, c1 = d.approx(r, x + "0"), d.approx(r, x + "1")
    return ("0", c0) if c0 <= c1 else ("1", c1)


def capital_margin(d: Martingale, w: str) -> int:
    """Least m with d(w') <= 1 - 2**(1-m) on every prefix w' of w.

    With worst the largest such d(w'), that is the least m >= 1 with
    2**(m-1) >= 1 / (1 - worst), as capital is never negative.
    """
    worst = max_capital(d, w)
    if worst >= 1:
        raise PreconditionError(
            "no margin exists: capital reaches 1 on a prefix of "
            f"{w or 'the root'!r}")
    return 1 + ceil_log2(1 / (1 - worst))


@dataclass(frozen=True)
class TrajectoryStep:
    index: int
    bit: str
    capital: Dyadic

    def render(self) -> str:
        return (f"{self.index} {self.bit} "
                f"{show_int(self.capital.mantissa)} {self.capital.precision}")


@dataclass(frozen=True)
class ConservationReport:
    prefix: str
    steps: tuple[TrajectoryStep, ...]
    max_capital: Fraction

    def render(self) -> str:
        return "\n".join(s.render() for s in self.steps)


def conservation_check(d: Martingale, nu: ProbabilityMeasure, w: str,
                       m: int, depth: int) -> ConservationReport:
    """Walk the diagonalized sequence and certify the capital stays < 1.

    Requires d(root) < nu(w) exactly; that is the regime in which the
    walk provably escapes the bettor.  The walk runs once: inside w each
    step takes w's next bit and asks for that child's approximation;
    past w it compares both children, one `approx` query each.
    Each report line shows the bit taken and the approximation the walk
    itself compared (or asked for), at the step's precision.  The walk
    stops at the first step whose exact capital reaches 1.
    """
    validate_string(w)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if m < 0:
        raise DomainError("margin index must be >= 0")
    same_measure(d.measure, nu)
    n, e = d.pair("")
    mw = nu.mass(w)   # n/e >= M/2**p, on integers
    if n << mw.precision >= mw.mantissa * e:
        raise PreconditionError(
            "initial capital must be strictly below the cylinder mass")

    x = ""
    steps = []
    for i in range(depth):
        if i < len(w):
            bit = w[i]
            capital = d.approx(query_precision(x, m), x + bit)
        else:
            bit, capital = _cheaper_child(d, m, x)
        x += bit
        n, e = d.pair(x)
        if n >= e:
            raise PreconditionError(
                f"capital reached 1 at step {i}; the margin index {m} "
                "is too small for this martingale")
        steps.append(TrajectoryStep(i, bit, capital))
    return ConservationReport(x, tuple(steps), max_capital(d, x))
