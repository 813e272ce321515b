"""Splitting operators: measurements of sets by martingale pairs.

A splitting operator sends a martingale to a pair of martingales
(plus, minus) that divide the input's initial capital between a set and its
complement: successes inside the set are inherited by `plus`, successes
outside by `minus`, and the two root values add up to the input's root
exactly.  The paper indexes its operators by a precision r and lets the
pair exceed the input by 2**-r; every split here has slack 0, so the index
is not an argument.  Each operator computes the pair in one `split(d)`;
`plus` and `minus` are views of it.  The measured value of the set is then
read off the plus component started from the unit martingale.

This module builds the concrete measurements the theory promises:
cylinders (null and positive mass), complements, finite intersections and
unions, subsets of null sets, unions of null sequences, and limits of
eventually-constant measurement sequences.  An intersection or union
applies each operand once, by two terms in place of the paper's four
sign-composition pieces (see `IntersectUnion`), so an expression nested k
deep costs O(k) operator applications.

A positive cylinder splits the regularization of its input, unless the
input is `unit_bounded` (see `Martingale` and `CylinderPos`).  The unit
martingale is unit_bounded, and so is each half the operators build from
such an input by an exact split (see `SplittingOperator`), so a
measurement started from `unit(nu)` regularizes nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .core import (
    Dyadic, ONE, ZERO, read_natural, read_sexpr, read_word, reduced,
    shift_round,
)
from .errors import (
    DomainError, ModulusViolationError, ParseError, PreconditionError,
)
from .measure import ProbabilityMeasure, same_measure
from .martingale import Martingale, SumMartingale, unit, regularize

__all__ = [
    "SplittingOperator",
    "cylinder",
    "complement",
    "IntersectUnion",
    "complete_null",
    "union_sequence",
    "LimitMeasurement",
    "measure_value",
    "initial_capital_surplus",
    "parse_operator",
]


class SplittingOperator:
    """Interface: split(d) returns the pair (plus, minus) of martingales
    over `measure`; plus(d) and minus(d) are its two halves.

    Every subclass gets the two views in its own namespace unless it
    defines them itself, so they can be looked up (and patched) per class.

    Axiom (iii) holds with slack 0 at every precision: plus + minus = d at
    the root for every input d (see each class), so the paper's precision
    index is not an argument.

    A split is exact when both halves come back `unit_bounded`.  Every
    operator here keeps this invariant: if both halves of split(d) are
    unit_bounded, then so is d, and plus + minus = d at every node of
    positive mass.  The cylinders keep it (see `CylinderPos`), a complement
    and a limit return the halves of a split that keeps it, `IntersectUnion`
    marks a sum only when both of its splits were exact, and `NullUnion`
    only when every member's half is unit_bounded.
    """

    measure: ProbabilityMeasure

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in ("plus", "minus"):
            if name not in cls.__dict__:
                setattr(cls, name, SplittingOperator.__dict__[name])

    def split(self, d: Martingale) -> tuple[Martingale, Martingale]:
        raise NotImplementedError

    def plus(self, d: Martingale) -> Martingale:
        return self.split(d)[0]

    def minus(self, d: Martingale) -> Martingale:
        return self.split(d)[1]


# ---------------------------------------------------------------------------
# martingale nodes used by the operators
# ---------------------------------------------------------------------------

class IndicatorMartingale(Martingale):
    """Indicator of a cylinder; a martingale exactly when the cylinder is null.

    `CylinderNull` builds it, on a null cylinder: it is then 0 at every node
    of positive mass, since each node inside the cylinder is null, so it is
    `unit_bounded`."""

    unit_bounded = True

    def __init__(self, w: str, nu: ProbabilityMeasure):
        self.w = w
        self.measure = nu

    def _pair(self, v: str) -> tuple[int, int]:
        return int(v.startswith(self.w)), 1


class SliceMartingale(Martingale):
    """Capital of `inner` at the cylinder root, spread along the way there.

    Inside the cylinder it follows `inner`; on the way down it holds
    inner(w) * nu(w | v), scaled mass that bets everything on reaching w;
    elsewhere 0; `mass` is nu(w).  The conditional honours the positivity
    witness: a mass below threshold reads as 0.  The masses of w's proper
    prefixes are stepped down from the root by `children`, when a query
    first reaches them.

    It is `unit_bounded` when `inner` is and nu(w) clears the witness's
    threshold, as every positive mass of a weakly positive measure does.
    Proof: at a prefix v of w of positive mass the slice holds
    inner(w) * nu(w) / nu(v), in [0, 1] as nu(w) <= nu(v); inside the
    cylinder it holds inner's values, and elsewhere 0.  The averaging
    identity holds at each prefix, where one child carries the capital
    inner(w) * nu(w) and the other none, and inside and outside the
    cylinder it is inner's and 0's.  Where the threshold test fails on a
    positive mass, the slice drops inner's capital at w and is no
    martingale there, so it is not marked.
    """

    def __init__(self, w: str, nu: ProbabilityMeasure, inner: Martingale,
                 mass: Dyadic):
        self.w = w
        self.measure = nu
        self.inner = inner
        self._mw = mass
        self._above = nu.witness.clears(mass, len(w))
        self.unit_bounded = inner.unit_bounded and self._above
        self._masses = [ONE]   # nu(w[:i]) for the i reached so far

    def _pair(self, v: str) -> tuple[int, int]:
        if self.w.startswith(v):        # on the way down (or at the root w)
            if not self._above:
                return 0, 1
            n, d = self.inner._pair(self.w)
            if v == self.w:
                return n, d
            mw, mv = self._mw, self._prefix_mass(len(v))  # nu(w) / nu(v)
            k = mv.precision - mw.precision
            return reduced(n * mw.mantissa << max(k, 0),
                           d * mv.mantissa << max(-k, 0))
        if v.startswith(self.w):        # strictly inside the cylinder
            return self.inner._pair(v)
        return 0, 1

    def _prefix_mass(self, i: int) -> Dyadic:
        """nu(w[:i]), one `children` step per level below the deepest
        prefix whose mass is known."""
        masses, w, nu = self._masses, self.w, self.measure
        for j in range(len(masses) - 1, i):
            masses.append(nu.children(w[:j], masses[j])[int(w[j])])
        return masses[i]


class DiffMartingale(Martingale):
    """Pointwise difference (whole minus part), where the part lies between
    0 and the whole at every node of positive mass, as a slice of the
    whole does.  It is then `unit_bounded` when both are."""

    def __init__(self, whole: Martingale, part: Martingale):
        self.whole = whole
        self.part = part
        self.measure = whole.measure
        self.unit_bounded = whole.unit_bounded and part.unit_bounded

    def _pair(self, w: str) -> tuple[int, int]:
        (a, b), (c, d) = self.whole._pair(w), self.part._pair(w)
        return reduced(a * d - c * b, b * d)


class MemoMartingale(Martingale):
    """A base martingale's exact pairs, kept as they are asked, which
    `CylinderPos` splits in place of a `unit_bounded` input's regularization.

    The memo asks the base at the root and at the cylinder's word w when it
    is built, as a regularization asks its base's root.  A measurement
    builds its halves from the inside out, so these questions are answered
    by memos that the splits below already filled, and the root query that
    follows reads them: deep nesting stays within Python's recursion
    limit.  Every other word is asked once and kept, so nested slices and
    differences that ask one word twice cost linear work, not exponential.
    """

    def __init__(self, base: Martingale, nu: ProbabilityMeasure, w: str):
        self.base = base
        self.measure = same_measure(base.measure, nu)
        self.unit_bounded = base.unit_bounded
        self._memo = {"": base._pair(""), w: base._pair(w)}

    def _pair(self, v: str) -> tuple[int, int]:
        memo = self._memo
        if v not in memo:
            memo[v] = self.base._pair(v)
        return memo[v]


# ---------------------------------------------------------------------------
# cylinder measurements
# ---------------------------------------------------------------------------

class CylinderNull(SplittingOperator):
    """Measurement of a mass-zero cylinder: indicator / identity."""

    def __init__(self, w: str, nu: ProbabilityMeasure):
        self.w = w
        self.measure = nu

    def split(self, d: Martingale) -> tuple[Martingale, Martingale]:
        return IndicatorMartingale(self.w, self.measure), d


class CylinderPos(SplittingOperator):
    """Measurement of a cylinder of positive mass `mass`: the slice of the
    regularized input at the cylinder, and the rest, which add up to the
    regularization, and so to d at the root.

    A `unit_bounded` input d is not regularized: a `MemoMartingale` of d's
    own pairs stands in for `regularize(d, nu)`, which equals d at every
    node of positive mass.  Proof, down the tree from the root, where both
    hold d's root value: at a nondegenerate split both children have
    positive mass, so the transfer is handed d's own pair there, which lies
    in the unit square, and returns it unchanged; at a degenerate split of
    a node of positive mass the one child with mass copies the node's
    value, which is d's at that child by the averaging identity.  Values at
    null nodes may differ, and no root value reads them: every martingale
    here, asked at a node of positive mass, reads its inputs only at nodes
    of positive mass.

    The split is exact in `SplittingOperator`'s sense: the halves of a
    unit_bounded input are the slice and d minus it, unit_bounded unless
    the slice fails the witness's threshold; those of any other input are
    the regularization's, and are not.
    """

    def __init__(self, w: str, nu: ProbabilityMeasure, mass: Dyadic):
        self.w = w
        self.measure = nu
        self.mass = mass

    def split(self, d: Martingale) -> tuple[Martingale, Martingale]:
        nu = self.measure
        lam = MemoMartingale(d, nu, self.w) if d.unit_bounded else \
            regularize(d, nu)
        inside = SliceMartingale(self.w, nu, lam, self.mass)
        return inside, DiffMartingale(lam, inside)


def cylinder(w: str, nu: ProbabilityMeasure) -> SplittingOperator:
    """w's measurement, picked by its one mass query, which checks w."""
    m = nu.mass(w)
    return CylinderNull(w, nu) if m == ZERO else CylinderPos(w, nu, m)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

class Complement(SplittingOperator):
    def __init__(self, inner: SplittingOperator):
        self.inner = inner
        self.measure = inner.measure

    def split(self, d: Martingale) -> tuple[Martingale, Martingale]:
        plus, minus = self.inner.split(d)
        return minus, plus


def complement(op: SplittingOperator) -> SplittingOperator:
    if isinstance(op, Complement):
        return op.inner
    return Complement(op)


class IntersectUnion(SplittingOperator):
    """Intersection (`cap`) or union (`cup`) of the sets phi and psi measure.

    With (a, b) = phi.split(d), psi splits one half:

        cup: (a + psi+(b), psi-(b))        cap: (psi+(a), b + psi-(a))

    Axiom (iii): a + b = d and psi+ + psi- = the half at the root, so
    plus + minus = d there.  Successes are inherited case by case.  For
    cup: a sequence in phi's set makes a succeed, hence plus; one in psi's
    set but not phi's makes b succeed, hence psi+(b); one in neither makes
    b, hence psi-(b), succeed.  For cap: a sequence in both makes a, hence
    psi+(a), succeed; one in phi's set but not psi's makes a, hence
    psi-(a); one outside phi's set makes b succeed.  These two terms
    replace the paper's four theta^{ab} = psi^b(phi^a) on purpose: phi and
    psi are each applied once, so nesting on either side costs linear work.

    The sum is `unit_bounded` when both splits were exact (see
    `SplittingOperator`): then d is unit_bounded, a + b = d,
    psi+ + psi- is the half psi split, and the sum is d minus the other,
    nonnegative half, so it lies in [0, 1] at every node of positive mass
    and the pair adds up to d there.
    """

    def __init__(self, phi: SplittingOperator, psi: SplittingOperator,
                 which: str):
        if which not in ("cap", "cup"):
            raise DomainError("which must be 'cap' or 'cup'")
        self.measure = same_measure(phi.measure, psi.measure)
        self.phi = phi
        self.psi = psi
        self.which = which

    def split(self, d: Martingale) -> tuple[Martingale, Martingale]:
        # a complemented operand splits through its inner operator with the
        # halves swapped, so that it adds no Python frame to the recursion
        phi, psi, cap = self.phi, self.psi, self.which == "cap"
        if isinstance(phi, Complement):
            b, a = phi.inner.split(d)
        else:
            a, b = phi.split(d)
        if isinstance(psi, Complement):
            minus, plus = psi.inner.split(a if cap else b)
        else:
            plus, minus = psi.split(a if cap else b)
        exact = all(h.unit_bounded for h in (a, b, plus, minus))
        if cap:
            return plus, SumMartingale(b, minus, unit_bounded=exact)
        return SumMartingale(a, plus, unit_bounded=exact), minus


# ---------------------------------------------------------------------------
# null sets: subsets and countable unions
# ---------------------------------------------------------------------------

def _require_null(op: SplittingOperator, what: str) -> None:
    """Refuse op unless nu(E), the root of its plus half from the unit
    martingale (nu(E | v) at each v of positive mass), is exactly 0."""
    n, d = op.plus(unit(op.measure)).pair("")
    if n:
        raise PreconditionError(
            f"{what}: operator value {Fraction(n, d)} is not null")


class NullUnion(SplittingOperator):
    """Union of finitely many null sets: each member restarts from the unit
    martingale, the plus half is the sum of their plus halves and the minus
    half is the input itself.

    Each member's half is 0 at the root (see `_require_null`), so the pair
    adds up to the input there.  The sum is `unit_bounded` when every
    member's half is: each is then nu(E_j | v) = 0 at every node v of
    positive mass, as nu(E_j) = 0, and so is the sum."""

    def __init__(self, members):
        self.members = tuple(members)
        self.measure = reduce(same_measure, (m.measure for m in self.members))

    def split(self, d: Martingale) -> tuple[Martingale, Martingale]:
        halves = [op.plus(unit(self.measure)) for op in self.members]
        exact = all(h.unit_bounded for h in halves)
        return SumMartingale(*halves, unit_bounded=exact), d


def complete_null(op: SplittingOperator) -> NullUnion:
    """Measurement of an arbitrary subset of the null set `op` measures:
    the union of that one null set."""
    _require_null(op, "complete_null")
    return NullUnion((op,))


def union_sequence(operators) -> LimitMeasurement:
    """Union of a (finite, hence eventually-empty) family of null sets:
    stage j is the `NullUnion` of members 0 ... j."""
    ops = tuple(operators)
    for j, op in enumerate(ops):
        _require_null(op, f"union_sequence member {j}")
    return LimitMeasurement(NullUnion(ops[:j + 1]) for j in range(len(ops)))


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

class LimitPlusMartingale(Martingale):
    """The limit of the stage plus halves, read through the modulus.

    `halves` are the plus halves of stages k, k+1, ...  Exact values take
    the modulus at face value and read stage k (sound for the library's
    eventually-constant families).  Approximations also check the later
    halves, and refuse to answer outside the promised envelope.
    """

    def __init__(self, halves, k: int, measure: ProbabilityMeasure):
        self.halves = halves
        self.k = k
        self.measure = measure
        self.unit_bounded = halves[0].unit_bounded   # its exact values

    def _pair(self, w: str) -> tuple[int, int]:
        return self.halves[0]._pair(w)

    def _grid(self, t: int, w: str) -> int:
        got = self.halves[0]._grid(t + 1, w)
        for j, half in enumerate(self.halves[1:], self.k + 1):
            probe = half._grid(t + 1, w)
            if abs(probe - got) > 4:  # the envelope, 4 * 2^-(t+1)
                raise ModulusViolationError(
                    f"stage {j} at {w!r} is {Dyadic(probe, t + 1)}, outside "
                    f"the 2^-{t} envelope around {Dyadic(got, t + 1)}")
        return shift_round(got, 1)


class LimitMeasurement(SplittingOperator):
    """Limit of an eventually-constant family: the operators `stages`
    E_0 ... E_n on one measure are the same measurement from index
    k = min(gamma, n) on (gamma defaults to n), so the plus values sit at
    their limit from stage k; stages past n repeat E_n.

    Stage k and up to PROBES later stages (never past the last) are split
    once each; the plus half is the limit of their plus halves, the minus
    half stage k's.  Exact values read stage k, so the pair adds up to the
    input at the root as stage k's does."""

    PROBES = 2

    def __init__(self, operators, gamma: int | None = None):
        self.stages = tuple(operators)
        if not self.stages:
            raise DomainError("modulated family must have at least one stage")
        self.measure = reduce(same_measure, (op.measure for op in self.stages))
        if gamma is not None and gamma < 0:
            raise DomainError("modulus index must be >= 0")
        last = len(self.stages) - 1
        self.k = last if gamma is None else min(gamma, last)

    def split(self, d: Martingale) -> tuple[Martingale, Martingale]:
        k = self.k
        pairs = [op.split(d) for op in self.stages[k:k + self.PROBES + 1]]
        plus = LimitPlusMartingale([p for p, _ in pairs], k, self.measure)
        return plus, pairs[0][1]


# ---------------------------------------------------------------------------
# values and checks
# ---------------------------------------------------------------------------

def measure_value(op: SplittingOperator, r: int) -> Dyadic:
    """The measured value of the set, canonical at precision r: the plus
    component from the unit martingale read at r+1, rounded onto the 2**-r
    grid."""
    if r < 0:
        raise DomainError("precision must be >= 0")
    return op.plus(unit(op.measure)).approx(r + 1, "").round_at(r)


def initial_capital_surplus(op: SplittingOperator, d: Martingale) -> Fraction:
    """plus(λ) + minus(λ) - d(λ): axiom (iii) demands this <= 2**-r at
    precision r, and every operator here makes it 0."""
    plus, minus = op.split(d)
    return plus.value("") + minus.value("") - d.value("")


# ---------------------------------------------------------------------------
# operator expressions
# ---------------------------------------------------------------------------
#   (cyl w)    (compl E)    (cap E F)    (cup E F)    (limit E0 E1 ... K)
# where w is a bit string (~ for the empty string) and K is the index from
# which the limit family is constant.

def _operand(item):
    if isinstance(item, str):
        raise ParseError(f"expected an operator form, got {item!r}")
    return item


def _build_cyl(items, nu: ProbabilityMeasure) -> SplittingOperator:
    if len(items) != 2 or not isinstance(items[1], str):
        raise ParseError("(cyl w) takes exactly one string")
    try:
        return cylinder(read_word(items[1]), nu)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def _build_compl(items, nu: ProbabilityMeasure) -> SplittingOperator:
    if len(items) != 2:
        raise ParseError("(compl E) takes exactly one operator")
    return complement(_operand(items[1]))


def _build_cap_cup(items, nu: ProbabilityMeasure) -> SplittingOperator:
    head = items[0]
    if len(items) != 3:
        raise ParseError(f"({head} E F) takes exactly two operators")
    return IntersectUnion(_operand(items[1]), _operand(items[2]), head)


def _build_limit(items, nu: ProbabilityMeasure) -> SplittingOperator:
    if len(items) < 3 or not isinstance(items[-1], str):
        raise ParseError("(limit E0 E1 ... K) needs stages and an index")
    k = read_natural(items[-1], "limit index")
    return LimitMeasurement(map(_operand, items[1:-1]), k)


def _unknown_head(items, nu: ProbabilityMeasure) -> SplittingOperator:
    raise ParseError(f"unknown operator head {items[0]!r}")


# the builder of a closed form's operator, by the form's head; each takes
# the form's items (its head, then atoms and built operators) and the measure
_BUILDERS = {"cyl": _build_cyl, "compl": _build_compl,
             "cap": _build_cap_cup, "cup": _build_cap_cup,
             "limit": _build_limit}


def parse_operator(text: str, nu: ProbabilityMeasure) -> SplittingOperator:
    """Build an operator expression with `read_sexpr`.  Evaluation
    recurses through `cap`, `cup` and `limit`, so only those count toward
    the nesting bound; `compl` does not, because nested complements
    cancel."""
    def build(items):
        return _BUILDERS.get(items[0], _unknown_head)(items, nu)

    return read_sexpr(text, build, ("cap", "cup", "limit"), "set expression")
