"""Typed term language for oracle-carrying function algebras.

Terms denote functionals over bit strings.  A term's signature is a pair
(oracle slots, string slots); oracles are total bit-string functions and
are passed positionally at evaluation time.  The combinators are
functional composition, expansion (adding ignored slots), recursion on
notation limited by a length bound, and numeric recursion limited by a
value bound.  A term is evaluated by compiling it, once per call, into
nested closures.  Evaluation is metered: step count, largest intermediate
string, and the oracle query log.

The growth-padding primitive (`pad`) and the two recursion schemata are
what separate the algebra families; `closure_construct` builds a checker
for a chosen family.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter

from .config import MAX_NESTING, check_magnitude, magnitude_cap
from .core import (
    bton, growth, read_natural, read_sexpr, show_int, show_word,
    strings_of_length, validate_string,
)
from .errors import (
    BoundViolationError, DomainError, ParseError, PreconditionError,
    ResourceError,
)

__all__ = [
    "Meter",
    "Oracle",
    "load_oracle",
    "dump_oracle",
    "Term",
    "Const",
    "S0",
    "S1",
    "Succ",
    "Pred",
    "Smash",
    "Ap",
    "Proj",
    "Pad",
    "OracleRef",
    "Comp",
    "Expand",
    "Lrn",
    "Br",
    "parse_term",
    "AlgebraChecker",
    "closure_construct",
    "ones_term",
    "binary_length_term",
    "monus_term",
    "if_zero_term",
    "longest_answer_index_term",
    "length_term",
    "length_functional",
    "SecPoly",
    "parse_secpoly",
    "BoundReport",
    "restricted_length",
    "check_bound",
]

# ---------------------------------------------------------------------------
# meters and oracles
# ---------------------------------------------------------------------------


@dataclass(eq=True, slots=True)
class Meter:
    """Evaluation cost ledger: a stand-in for machine time and space.

    Steps grow with every node visited plus every symbol produced;
    max_len tracks the longest string ever materialized; the oracle log
    keeps (query, answer length) pairs in call order.
    """

    steps: int = 0
    max_len: int = 0
    oracle_log: list = field(default_factory=list)

    def saw(self, s: str) -> None:
        if len(s) > self.max_len:
            self.max_len = len(s)

    @property
    def queried_radius(self) -> int:
        return max((len(q) for q, _ in self.oracle_log), default=0)


class Oracle:
    """A total function on bit strings.

    Wrapped around a callable, whose answers are checked on every call,
    or finitely presented as a table with a default answer, whose words
    are checked once when the table is built.  `answer(query)` skips the
    check on the query, which the caller vouches is a bit string.
    """

    table = None
    default = None

    def __init__(self, fn):
        self.answer = lambda w: validate_string(fn(w))

    @classmethod
    def from_table(cls, table: dict, default: str = "") -> "Oracle":
        validate_string(default)
        for q, a in table.items():
            validate_string(q)
            validate_string(a)
        return cls._of_checked_table(dict(table), default)

    @classmethod
    def _of_checked_table(cls, table: dict, default: str) -> "Oracle":
        oracle = cls.__new__(cls)
        oracle.table, oracle.default = table, default
        oracle.answer = lambda w: table.get(w, default)
        return oracle

    def __call__(self, query: str) -> str:
        return self.answer(validate_string(query))


def load_oracle(text: str) -> Oracle:
    """Table format: lines ``query answer``, each query listed once, and a
    final line ``default answer``; ``~`` is the empty word.  Each line is
    split once and its words checked where they are read."""
    table = {}
    default = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise ParseError(f"oracle line {lineno}: expected two fields")
        if default is not None:
            raise ParseError(
                f"oracle line {lineno}: default must be the final line")
        key, answer = parts
        # the answer is checked before the query
        if answer == "~":
            answer = ""
        elif answer.strip("01"):
            raise ParseError(
                f"oracle line {lineno}: not a binary string: {answer!r}")
        if key == "default":
            default = answer
            continue
        if key == "~":
            key = ""
        elif key.strip("01"):
            raise ParseError(
                f"oracle line {lineno}: not a binary string: {key!r}")
        if key in table:
            raise ParseError(f"oracle line {lineno}: {key!r} listed twice")
        table[key] = answer
    if default is None:
        raise ParseError("oracle table needs a final 'default' line")
    return Oracle._of_checked_table(table, default)


def dump_oracle(oracle: Oracle) -> str:
    if oracle.table is None:
        raise DomainError("only table oracles can be serialized")
    lines = [f"{show_word(q)} {show_word(a)}"
             for q, a in sorted(oracle.table.items())]
    lines.append(f"default {show_word(oracle.default)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------
#
# A term is evaluated by compiling it into nested closures
# (fs, xs, meter) -> str, where fs holds the oracles' `answer` functions
# and xs the string arguments, and running the result.  A term of
# signature (k, l) reads only fs[:k] and xs[:l], and every combinator
# indexes slots from the front, so trailing slots are never read and need
# not be cut off.
#
# Every string in xs is an argument that `evaluate` checked and counted in
# max_len, a value some closure made and counted, or a prefix of one of
# those or a numeral no longer than one.  So the closures check no string,
# and the meter is charged inline: every leaf charges 1 plus the length
# of its output and raises max_len to it (a projection or an oracle query
# never raises it by its input), and a composition, or a recursion stage
# after the first, charges 1 more.
#
# Every term lists, in `reads`, the string slots whose contents can change
# its value or its charge; the closures are deterministic in fs and those
# slots.  A `br` whose bound does not read the recursion slot runs the
# bound once, at stage 0, and at every later stage replays that run's
# charge: the same steps and the same oracle log entries, while max_len
# already holds the longest string it made.  A `br` whose step and bound
# both ignore the slot never builds the stage's numeral.  One whose bound
# ignores the slot and whose step is `pred` of the previous value, through
# any expansions, counts down in closed form: max(v - n, 0), charged the
# steps, oracle log entries and max_len of the n stages it does not run.
# An `lrn` runs its bound at every stage, since it peels at most one stage
# per argument bit, but keeps its last call: a call whose read slots equal
# the last call's replays that run, its value, steps and oracle log
# entries, and runs no stage.  Each closure serves one evaluation, one
# oracle tuple and one meter, so max_len already holds what that run made.


def _successor(w: str) -> str:
    """The next numeral in length-then-lexicographic order."""
    return bin(int("1" + w, 2) + 1)[3:]


def _predecessor(w: str) -> str:
    """The previous numeral; the empty string is its own predecessor."""
    return bin(int("1" + w, 2) - 1)[3:]


class Term:
    """Immutable, well-typed by construction."""

    signature: tuple[int, int]
    reads: frozenset[int]       # the string slots the closure depends on

    def compile(self):
        """A closure (fs, xs, meter) -> str that evaluates this term, made
        for one evaluation: it may keep what it ran on that meter."""
        raise NotImplementedError

    def to_sexpr(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<Term {self.to_sexpr()}>"

    def evaluate(self, oracles=(), args=(), meter: Meter | None = None) -> str:
        k, l = self.signature
        if len(oracles) != k:
            raise PreconditionError(
                f"term wants {k} oracle(s), got {len(oracles)}")
        if len(args) != l:
            raise PreconditionError(
                f"term wants {l} string argument(s), got {len(args)}")
        for x in args:
            validate_string(x)
        if meter is None:
            meter = Meter()
        for x in args:
            meter.saw(x)
        run = self.compile()
        return run(tuple(f.answer for f in oracles), tuple(args), meter)


class _Leaf(Term):
    """Primitive with a fixed signature; subclasses fill in compile()."""

    __slots__ = ()
    head = ""

    def to_sexpr(self):
        return f"({self.head})"

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))


class Const(_Leaf):
    head = "const"
    signature = (0, 0)
    reads = frozenset()

    def compile(self):
        def const(fs, xs, meter):
            meter.steps += 1
            return ""
        return const


class _Unary(_Leaf):
    """A primitive of one string whose output is fn(input)."""

    signature = (0, 1)
    reads = frozenset({0})
    fn = None

    def compile(self):
        fn = self.fn

        def unary(fs, xs, meter):
            out = fn(xs[0])
            n = len(out)
            meter.steps += 1 + n
            if n > meter.max_len:
                meter.max_len = n
            return out
        return unary

    def compile_of_proj(self, j: int):
        """(head (proj j ...)) as one closure, charged as the projection,
        the composition and this leaf would be."""
        fn = self.fn

        def unary_of_proj(fs, xs, meter):
            u = xs[j]
            out = fn(u)
            n = len(out)
            meter.steps += 3 + len(u) + n
            if n > meter.max_len:
                meter.max_len = n
            return out
        return unary_of_proj


class S0(_Unary):
    head = "s0"
    fn = staticmethod(lambda w: w + "0")


class S1(_Unary):
    head = "s1"
    fn = staticmethod(lambda w: w + "1")


class Succ(_Unary):
    head = "succ"
    fn = staticmethod(_successor)


class Pred(_Unary):
    head = "pred"
    fn = staticmethod(_predecessor)


class Smash(_Leaf):
    head = "smash"
    signature = (0, 2)
    reads = frozenset({0, 1})

    def compile(self):
        cap = magnitude_cap()

        def smash(fs, xs, meter):
            n = len(xs[0]) * len(xs[1])
            if n > cap:
                check_magnitude(n, "smash output")
            meter.steps += 1 + n
            if n > meter.max_len:
                meter.max_len = n
            return "1" * n
        return smash


def _query(j: int):
    """The closure that feeds its single string to the j-th oracle."""
    def query(fs, xs, meter):
        q = xs[0]
        answer = fs[j](q)
        n = len(answer)
        meter.oracle_log.append((q, n))
        meter.steps += 1 + n
        if n > meter.max_len:
            meter.max_len = n
        return answer
    return query


class Ap(_Leaf):
    """The application functional: feed the string to the first oracle."""

    head = "ap"
    signature = (1, 1)
    reads = frozenset({0})

    def compile(self):
        return _query(0)


@dataclass(frozen=True)
class Proj(Term):
    """j-th of `arity` string arguments."""

    j: int
    arity: int = -1  # defaults to the minimum, j + 1

    def __post_init__(self):
        if self.arity == -1:
            object.__setattr__(self, "arity", self.j + 1)
        if self.j < 0 or self.arity <= self.j:
            raise DomainError(
                f"projection: index {self.j} outside arity {self.arity}")
        object.__setattr__(self, "signature", (0, self.arity))
        object.__setattr__(self, "reads", frozenset({self.j}))

    def to_sexpr(self):
        if self.arity == self.j + 1:
            return f"(proj {self.j})"
        return f"(proj {self.j} {self.arity})"

    def compile(self):
        j = self.j

        def proj(fs, xs, meter):
            out = xs[j]
            meter.steps += 1 + len(out)
            return out
        return proj


@dataclass(frozen=True)
class Pad(Term):
    """x -> a run of ones of length growth(i, |x|)."""

    i: int
    signature = (0, 1)
    reads = frozenset({0})

    def __post_init__(self):
        if self.i < 0:
            raise DomainError("pad: growth index must be >= 0")

    def to_sexpr(self):
        return f"(pad {self.i})"

    def compile(self):
        i = self.i

        def pad(fs, xs, meter):
            n = growth(i, len(xs[0]))
            check_magnitude(n, "pad output")
            meter.steps += 1 + n
            if n > meter.max_len:
                meter.max_len = n
            return "1" * n
        return pad


@dataclass(frozen=True)
class OracleRef(Term):
    """Apply the j-th of `slots` oracles to the single string argument."""

    j: int
    slots: int = -1
    reads = frozenset({0})

    def __post_init__(self):
        if self.slots == -1:
            object.__setattr__(self, "slots", self.j + 1)
        if self.j < 0 or self.slots <= self.j:
            raise DomainError(
                f"oracle reference: slot {self.j} outside {self.slots}")
        object.__setattr__(self, "signature", (self.slots, 1))

    def to_sexpr(self):
        if self.slots == self.j + 1:
            return f"(oracle {self.j})"
        return f"(oracle {self.j} {self.slots})"

    def compile(self):
        return _query(self.j)


@dataclass(frozen=True)
class Comp(Term):
    """Functional composition: outer(fs, inner_1(fs, xs), ...)."""

    outer: Term
    inners: tuple

    def __post_init__(self):
        object.__setattr__(self, "inners", tuple(self.inners))
        if not self.inners:
            raise DomainError("composition: needs at least one inner term")
        ko, lo = self.outer.signature
        if lo != len(self.inners):
            raise DomainError(
                f"composition: outer term takes {lo} string(s), "
                f"got {len(self.inners)} inner term(s)")
        sigs = {t.signature for t in self.inners}
        if len(sigs) != 1:
            raise DomainError(
                "composition: inner terms must share one signature, "
                f"saw {sorted(sigs)}")
        ki, li = next(iter(sigs))
        if ki != ko:
            raise DomainError(
                f"composition: outer term uses {ko} oracle slot(s), "
                f"inner terms use {ki}")
        object.__setattr__(self, "signature", (ko, li))
        # every inner runs and is charged, whether the outer reads it or not
        object.__setattr__(self, "reads",
                           frozenset().union(*(t.reads for t in self.inners)))

    def to_sexpr(self):
        parts = " ".join(t.to_sexpr() for t in self.inners)
        if isinstance(self.outer, _Leaf):
            return f"({self.outer.head} {parts})"
        return f"(comp {self.outer.to_sexpr()} {parts})"

    def compile(self):
        inner = self.inners[0]
        if isinstance(self.outer, _Unary) and isinstance(inner, Proj):
            return self.outer.compile_of_proj(inner.j)
        outer = self.outer.compile()
        inners = [t.compile() for t in self.inners]
        if len(inners) == 1:
            (a,) = inners

            def comp(fs, xs, meter):
                u = a(fs, xs, meter)
                meter.steps += 1
                return outer(fs, (u,), meter)
        elif len(inners) == 2:
            a, b = inners

            def comp(fs, xs, meter):
                u = a(fs, xs, meter)
                v = b(fs, xs, meter)
                meter.steps += 1
                return outer(fs, (u, v), meter)
        else:
            def comp(fs, xs, meter):
                vals = tuple([t(fs, xs, meter) for t in inners])
                meter.steps += 1
                return outer(fs, vals, meter)
        return comp


@dataclass(frozen=True)
class Expand(Term):
    """Add ignored trailing slots: extra oracle slots and string slots."""

    inner: Term
    extra_oracles: int
    extra_args: int

    def __post_init__(self):
        if self.extra_oracles < 0 or self.extra_args < 0:
            raise DomainError("expansion: slot counts must be >= 0")
        k, l = self.inner.signature
        object.__setattr__(
            self, "signature",
            (k + self.extra_oracles, l + self.extra_args))
        object.__setattr__(self, "reads", self.inner.reads)

    def to_sexpr(self):
        return (f"(expand {self.inner.to_sexpr()} "
                f"{self.extra_oracles} {self.extra_args})")

    def compile(self):
        # the inner term never reads the trailing slots
        return self.inner.compile()


def _reads(term: Term, slot: int) -> bool:
    """Whether the term's value or charge can depend on the slot."""
    return slot in term.reads


def _charged(run, fs, xs, meter):
    """run's value, with the steps it charged and the oracle log entries
    it appended: what a second run on the same slots would add to the
    meter, whose max_len that run cannot raise again."""
    steps, logged = meter.steps, len(meter.oracle_log)
    out = run(fs, xs, meter)
    return out, meter.steps - steps, meter.oracle_log[logged:]


def _check_schema(name, recursion):
    """Check the three signatures, then set the recursion's signature and
    reads: the base's, the front slots the step or bound read, and the
    recursion slot, whose length or number fixes the stage count."""
    base, step, bound = recursion.base, recursion.step, recursion.bound
    k, l = base.signature
    if step.signature != (k, l + 2):
        raise DomainError(
            f"{name}: step term must have signature {(k, l + 2)} "
            f"(base plus recursion argument and previous value), "
            f"got {step.signature}")
    if bound.signature != (k, l + 1):
        raise DomainError(
            f"{name}: bound term must have signature {(k, l + 1)}, "
            f"got {bound.signature}")
    object.__setattr__(recursion, "signature", (k, l + 1))
    object.__setattr__(recursion, "reads", base.reads | {l} | {
        j for j in step.reads | bound.reads if j < l})


@dataclass(frozen=True)
class Lrn(Term):
    """Recursion on notation, peeling the last bit, length-limited.

    value(xs, empty) = base(xs); value(xs, w·b) = step(xs, w·b, value(xs, w));
    at every stage |value| <= |bound(xs, stage)|, the empty stage included.
    A call on the same read slots as the last call returns its value and
    replays its meter charge, the steps and oracle log entries, with no
    stage run.
    """

    base: Term
    step: Term
    bound: Term

    def __post_init__(self):
        _check_schema("recursion on notation", self)

    def to_sexpr(self):
        return (f"(lrn {self.base.to_sexpr()} {self.step.to_sexpr()} "
                f"{self.bound.to_sexpr()})")

    def compile(self):
        base, step, bound = (self.base.compile(), self.step.compile(),
                             self.bound.compile())
        l = self.base.signature[1]
        slots = itemgetter(*sorted(self.reads))
        last = [None, None]     # the last call's read slots, and its run

        def stages(fs, xs, meter):
            front, w = xs[:l], xs[l]
            val = base(fs, front, meter)
            for stop in range(len(w) + 1):
                prefix = w[:stop]
                if stop:
                    meter.steps += 1
                    val = step(fs, front + (prefix, val), meter)
                limit = bound(fs, front + (prefix,), meter)
                if len(val) > len(limit):
                    raise BoundViolationError("lrn", prefix, len(val),
                                              len(limit))
            return val

        def lrn(fs, xs, meter):
            key = slots(xs)
            if key != last[0]:
                last[:] = key, _charged(stages, fs, xs, meter)
                return last[1][0]
            out, charge, queries = last[1]
            meter.steps += charge
            if queries:
                meter.oracle_log.extend(queries)
            return out
        return lrn


@dataclass(frozen=True)
class Br(Term):
    """Numeric recursion, value-limited.

    The last argument is read as a number n; value(xs, 0) = base(xs),
    value(xs, t+1) = step(xs, t, value(xs, t)), and numerically
    value(xs, t) <= bound(xs, t) at every t up to n.  A step that is
    `pred` of the previous value, under a bound that ignores t, is
    counted down in closed form and metered as the stages would be.
    """

    base: Term
    step: Term
    bound: Term

    def __post_init__(self):
        _check_schema("bounded recursion", self)

    def to_sexpr(self):
        return (f"(br {self.base.to_sexpr()} {self.step.to_sexpr()} "
                f"{self.bound.to_sexpr()})")

    def compile(self):
        base, step, bound = (self.base.compile(), self.step.compile(),
                             self.bound.compile())
        l = self.base.signature[1]
        cap = magnitude_cap()
        once = not _reads(self.bound, l)
        counted = not once or _reads(self.step, l)
        countdown = once and _counts_down(self.step, l)

        def br(fs, xs, meter):
            front = xs[:l]
            n = int("1" + xs[l], 2) - 1     # bton, on a checked string
            if n > cap:
                check_magnitude(n, "bounded recursion counter")
            val = base(fs, front, meter)
            t = ""                          # the numeral of the stage
            limit, charge, queries = _charged(bound, fs, front + (t,), meter)
            _check_stage(0, val, limit)
            if countdown:
                return _count_down(val, n, charge, queries, meter)
            for stage in range(1, n + 1):
                meter.steps += 1
                val = step(fs, front + (t, val), meter)
                if counted:
                    t = bin(stage + 1)[3:]
                if once:
                    meter.steps += charge
                    if queries:
                        meter.oracle_log.extend(queries)
                else:
                    limit = bound(fs, front + (t,), meter)
                _check_stage(stage, val, limit)
            return val
        return br


def _check_stage(stage: int, val: str, limit: str) -> None:
    # numerals compare by length, then lexicographically, which is the
    # order of their numbers
    a, b = len(val), len(limit)
    if a > b or (a == b and val > limit):
        raise BoundViolationError("br", stage, bton(val), bton(limit))


def _unwrapped(term: Term) -> Term:
    while isinstance(term, Expand):
        term = term.inner
    return term


def _counts_down(step: Term, l: int) -> bool:
    """Whether the step, read through any expansions, is `pred` of the
    previous value.  Wherever the expansions sit, it charges what the
    fused closure does: 3 plus the lengths of its input and output."""
    step = _unwrapped(step)
    if not isinstance(step, Comp) or len(step.inners) != 1:
        return False
    arg = _unwrapped(step.inners[0])
    return (isinstance(_unwrapped(step.outer), Pred)
            and isinstance(arg, Proj) and arg.j == l + 1)


def _numeral_lengths(m: int) -> int:
    """The total length of the numerals of 0 .. m - 1: the sum of
    floor(log2 u) over u = 1 .. m."""
    if not m:
        return 0
    k = m.bit_length() - 1
    return (m + 1) * k - (2 << k) + 2


def _count_down(val: str, n: int, charge: int, queries: list,
                meter: Meter) -> str:
    """n stages of `pred` from val, in closed form, charged as the loop
    would charge them: stage s adds 1, then 3 + |v(s-1)| + |v(s)| for the
    fused step, then the replayed bound's charge and queries.  The value
    never grows, so stage 0's check holds at every stage."""
    v = int("1" + val, 2) - 1
    w = max(v - n, 0)
    meter.steps += (n * (4 + charge) + _numeral_lengths(v + 1)
                    - _numeral_lengths(w + 1) + _numeral_lengths(v)
                    - _numeral_lengths(w))
    if queries:
        meter.oracle_log.extend(queries * n)
    top = v.bit_length() - 1        # the length of the numeral of v - 1
    if n and top > meter.max_len:
        meter.max_len = top
    return bin(w + 1)[3:]


# ---------------------------------------------------------------------------
# s-expression grammar
# ---------------------------------------------------------------------------

_LEAVES = {cls.head: cls for cls in (Const, S0, S1, Succ, Pred, Smash, Ap)}

# the heads that take leading numbers: the term class, and how many
# numbers it takes at most (one at least)
_NUMBERED = {"proj": (Proj, 2), "oracle": (OracleRef, 2), "pad": (Pad, 1)}

_HEADS = frozenset(_LEAVES) | frozenset(_NUMBERED) | {
    "comp", "expand", "lrn", "br"}


def _build_term(items):
    """The term of one closed form: its head, then numbers and subterms.

    The layout is checked before anything is built: one or two leading
    numbers for proj and oracle, one for pad; for expand one subterm,
    then two numbers; subterms only for every other head.
    """
    head = items[0]
    if head not in _HEADS:
        raise ParseError(f"unknown operator {head!r}")
    args = items[1:]
    if head == "expand":
        if [isinstance(a, str) for a in args] != [False, True, True]:
            raise ParseError("'expand' takes one inner term, then two numbers")
        return Expand(args[0], read_natural(args[1], "'expand' count"),
                      read_natural(args[2], "'expand' count"))
    nums = 0
    while nums < len(args) and isinstance(args[nums], str):
        nums += 1
    cls, most = _NUMBERED.get(head, (None, 0))
    if nums > most or (most and not nums):
        raise ParseError(f"'{head}' takes one to {most} leading numbers"
                         if most else f"'{head}' takes subterms only")
    children = args[nums:]
    if any(isinstance(c, str) for c in children):
        raise ParseError(f"'{head}' takes its numbers before its subterms")
    if head in _LEAVES:
        t = _LEAVES[head]()
    elif cls is not None:
        t = cls(*[read_natural(a, f"'{head}' parameter") for a in args[:nums]])
    elif head == "comp":
        if len(children) < 2:
            raise ParseError(
                "'comp' needs an outer term and at least one inner")
        return Comp(children[0], tuple(children[1:]))
    else:
        if len(children) != 3:
            raise ParseError(f"'{head}' takes three terms")
        return (Lrn if head == "lrn" else Br)(*children)
    if children:
        return Comp(t, tuple(children))
    return t


def parse_term(text: str) -> Term:
    """Read a term; every form counts toward the nesting bound."""
    return read_sexpr(text, _build_term, _HEADS, "term")


# ---------------------------------------------------------------------------
# algebra families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraChecker:
    """Decides whether a term is formable in one algebra family."""

    family: str
    pad_limit: int
    notation_recursion: bool
    numeric_recursion: bool
    oracle_slots: int

    def check(self, term: Term) -> tuple[int, int]:
        self._walk(term)
        k, l = term.signature
        if k > self.oracle_slots:
            raise DomainError(
                f"{term.to_sexpr()} uses {k} oracle slot(s); "
                f"{self.family} was given {self.oracle_slots}")
        return term.signature

    def accepts(self, term: Term) -> bool:
        try:
            self.check(term)
        except DomainError:
            return False
        return True

    def _walk(self, term: Term) -> None:
        if isinstance(term, Pad) and term.i > self.pad_limit:
            raise DomainError(
                f"(pad {term.i}) is not available in {self.family}")
        if isinstance(term, Lrn) and not self.notation_recursion:
            raise DomainError(
                f"lrn is not available in {self.family}")
        if isinstance(term, Br) and not self.numeric_recursion:
            raise DomainError(
                f"br is not available in {self.family}")
        for child in _children(term):
            self._walk(child)


def _children(term: Term):
    if isinstance(term, Comp):
        return (term.outer, *term.inners)
    if isinstance(term, Expand):
        return (term.inner,)
    if isinstance(term, (Lrn, Br)):
        return (term.base, term.step, term.bound)
    return ()


_FAMILY = re.compile(r"(bff|bfsf)(?:_(\d+))?\Z")


def closure_construct(base: str, extra_oracles: int = 0) -> AlgebraChecker:
    """Checker for the time family (with or without growth index) or the
    space family; the index caps which pads are admitted."""
    m = _FAMILY.match(base)
    if not m:
        raise DomainError(f"unknown algebra family {base!r}")
    kind, idx = m.group(1), m.group(2)
    if extra_oracles < 0:
        raise DomainError("oracle count must be >= 0")
    if idx is None:
        if kind == "bfsf":
            raise DomainError("the space family needs a growth index")
        return AlgebraChecker(base, 0, True, False, extra_oracles)
    i = int(idx)
    if i < 1:
        raise DomainError("growth index must be >= 1")
    if kind == "bff":
        return AlgebraChecker(base, i, True, False, extra_oracles)
    return AlgebraChecker(base, i, False, True, extra_oracles)


# ---------------------------------------------------------------------------
# a small combinator library, used for the length functional
# ---------------------------------------------------------------------------


def ones_term() -> Term:
    """x -> 1^|x|, by smashing against a single 1."""
    one = Comp(S1(), (Expand(Const(), 0, 1),))
    return Comp(Smash(), (Proj(0), one))


def binary_length_term() -> Term:
    """x -> the numeral for |x| (notation recursion, one succ per bit)."""
    return Lrn(Const(), Comp(Succ(), (Proj(1, 2),)), Proj(0))


def monus_term() -> Term:
    """(a, b) -> numeral for max(a - b, 0), numerically."""
    base = Proj(0)                       # a
    step = Comp(Pred(), (Proj(2, 3),))   # pred(previous)
    bound = Proj(0, 2)                   # never exceeds a
    return Br(base, step, bound)


def if_zero_term() -> Term:
    """(a, b, c) -> a when c encodes 0, else b.

    Numeric recursion on c: stage 0 yields a, any later stage yields b.
    The bound is an all-ones string longer than both candidates.
    """
    base = Proj(0, 2)
    step = Proj(1, 4)
    big = Comp(Smash(), (Comp(S1(), (Proj(0, 3),)),
                         Comp(S1(), (Proj(1, 3),))))
    return Br(base, step, big)


def longest_answer_index_term(space_pure: bool = False) -> Term:
    """(f; n) -> numerically least y <= n maximizing |f(y)|.

    Walks y = 0..n keeping the best index so far; the kept index never
    exceeds the stage number, which is the recursion bound.  Answer
    lengths are compared through their numerals by default; with
    space_pure they are compared through unary encodings instead, so
    the whole term uses numeric recursion only (slower, but formable
    in the space family).
    """
    pr_n = Expand(Proj(0, 2), 1, 0)
    pr_prev = Expand(Proj(1, 2), 1, 0)
    candidate = Comp(Expand(Succ(), 1, 0), (pr_n,))
    ask = Ap()
    len_of = Expand(ones_term() if space_pure else binary_length_term(), 1, 0)
    longer_gap = Comp(Expand(monus_term(), 1, 0), (
        Comp(len_of, (Comp(ask, (candidate,)),)),
        Comp(len_of, (Comp(ask, (pr_prev,)),)),
    ))
    keep = Comp(Expand(if_zero_term(), 1, 0), (pr_prev, candidate, longer_gap))
    return Br(Expand(Const(), 1, 0), keep, Expand(Proj(0), 1, 0))


def length_term(space_pure: bool = False) -> Term:
    """(f; x) -> 1^(max |f(w)| over |w| <= |x|), entirely in the algebra.

    All strings of length <= |x| sit numerically below the all-ones
    string of length |x|, so the search radius is ones(x).
    """
    ones = Expand(ones_term(), 1, 0)
    radius = Comp(ones, (Expand(Proj(0), 1, 0),))
    best = Comp(longest_answer_index_term(space_pure), (radius,))
    return Comp(ones, (Comp(Ap(), (best,)),))


def length_functional(f: Oracle, x: str, method: str = "term") -> str:
    """1^(max |f(w)| over all |w| <= |x|), by algebra term or brute force."""
    validate_string(x)
    if method == "term":
        return length_term().evaluate((f,), (x,))
    if method != "brute":
        raise DomainError(f"unknown method {method!r}")
    return "1" * restricted_length(f, len(x))(len(x))


# ---------------------------------------------------------------------------
# growth-bound expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecPoly:
    """A second-order growth expression over numbers n_j and length
    functions L_j, 1-indexed.  `op` is "c" (the constant `index`), "n"
    (n_index), "L" or "g" (L_index or the growth scale g_index applied to
    parts[0]), or "+" or "*" (a chain of two or more parts)."""

    op: str
    index: int = 0
    parts: tuple = ()

    def __post_init__(self):
        if self.index < 0 and self.op in "cg":
            raise DomainError("constants must be natural numbers"
                              if self.op == "c" else
                              "growth index must be >= 0")

    @classmethod
    def of(cls, op: str, parts) -> SecPoly:
        """The `op` chain of `parts`, or the one part itself.  A part that
        is an `op` chain is spliced in, as `SumMartingale` does, so a long
        chain is one node and evaluates in one loop."""
        if len(parts) == 1:
            return parts[0]
        return cls(op, 0, tuple(u for p in parts
                                for u in (p.parts if p.op == op else (p,))))

    def evaluate(self, lengths=(), nvals=()) -> int:
        # one frame per nesting level: the parts are read in plain loops
        op, j = self.op, self.index
        if op == "c":
            return j
        if op == "n":
            if not 1 <= j <= len(nvals):
                raise DomainError(f"unbound variable n{j}")
            return nvals[j - 1]
        if op == "L":
            if not 1 <= j <= len(lengths):
                raise DomainError(f"unbound variable L{j}")
            return lengths[j - 1](self.parts[0].evaluate(lengths, nvals))
        if op == "g":
            return growth(j, self.parts[0].evaluate(lengths, nvals))
        if op == "+":
            total = 0
            for p in self.parts:
                total += p.evaluate(lengths, nvals)
            return total
        total = 1
        for p in self.parts:
            total *= p.evaluate(lengths, nvals)
            check_magnitude(total.bit_length(), "growth value")
        return total

    def to_text(self) -> str:
        op = self.op
        if op == "c":
            return str(self.index)
        if op == "n":
            return f"n{self.index}"
        if op in "Lg":
            return f"{op}{self.index}({self.parts[0].to_text()})"
        return f" {op} ".join(f"({p.to_text()})" if op == "*" and p.op == "+"
                              else p.to_text() for p in self.parts)

    def __repr__(self):
        return f"<SecPoly {self.to_text()}>"


_SP_TOKEN = re.compile(r"\s*(?:([nLg]\d+|\d+|[()+*])|(\S))")


def _tokenize_secpoly(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _SP_TOKEN.match(text, pos)
        if not m:   # only blanks are left
            break
        if m.group(2):   # no token starts at the first non-blank
            raise ParseError(f"bad character at position {m.start(2)}")
        toks.append((m.group(1), m.start(1)))
        pos = m.end()
    return toks


class _SPParser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self, expect=None):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of expression")
        tok, pos = self.toks[self.i]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r} at position {pos}")
        self.i += 1
        return tok, pos

    def expr(self, depth=0):
        """A sum of products of atoms, read up to the first token that
        cannot continue it.  A parenthesized group or an application
        reads its argument one call deeper; `depth` counts the groups
        open around this one, so recursion is bounded by MAX_NESTING."""
        terms, factors = [], []
        while True:
            tok, pos = self.take()
            head = tok[0]
            if head in "(Lg":
                if depth == MAX_NESTING:
                    raise ParseError(
                        f"growth expression nested deeper than {MAX_NESTING} "
                        f"groups (position {pos})")
                if head == "(":
                    p = self.expr(depth + 1)
                else:
                    index = read_natural(tok[1:], f"index of {head}")
                    self.take("(")
                    p = SecPoly(head, index, (self.expr(depth + 1),))
                self.take(")")
            elif head == "n":
                p = SecPoly("n", read_natural(tok[1:], "index of n"))
            elif head in ")+*":
                raise ParseError(f"unexpected token {tok!r} at position {pos}")
            else:
                p = SecPoly("c", read_natural(tok, "constant"))
            factors.append(p)
            op = self.peek()
            if op == "*":
                self.take()
                continue
            terms.append(SecPoly.of("*", factors))
            if op != "+":
                return SecPoly.of("+", terms)
            self.take()
            factors = []


def parse_secpoly(text: str) -> SecPoly:
    toks = _tokenize_secpoly(text)
    if not toks:
        raise ParseError("empty expression")
    parser = _SPParser(toks)
    p = parser.expr()
    if parser.i != len(parser.toks):
        raise ParseError(
            f"trailing input at position {parser.toks[parser.i][1]}")
    return p


# ---------------------------------------------------------------------------
# metered bound checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    result: str
    steps: int
    max_len: int
    allowed: int
    radius: int
    within_steps: bool
    within_length: bool

    @property
    def within(self) -> bool:
        return self.within_steps and self.within_length

    def render(self) -> str:
        flag = "within" if self.within else "VIOLATED"
        return (f"steps={self.steps} max_len={self.max_len} "
                f"allowed={show_int(self.allowed)} radius={self.radius} "
                f"{flag}")


def restricted_length(f: Oracle, radius: int):
    """|f| by brute force, frozen outside the queried radius."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    cap = magnitude_cap()
    if radius + 1 >= cap.bit_length():  # 2**(radius+1) > cap, unbuilt
        raise ResourceError(f"brute-force search space of size "
                            f"2^{radius + 1} exceeds magnitude cap {cap}")
    best = [0] * (radius + 1)
    seen = 0
    for n in range(radius + 1):
        for w in strings_of_length(n):
            seen = max(seen, len(f(w)))
        best[n] = seen

    def length(n: int) -> int:
        if n < 0:
            raise DomainError("length argument must be >= 0")
        return best[min(n, radius)]

    return length


def check_bound(term: Term, poly: SecPoly, oracles=(), args=()) -> BoundReport:
    """Metered evaluation against a growth bound.

    The expression is evaluated with n_j = |x_j| and L_j = the j-th
    oracle's length function (brute-forced up to the radius actually
    queried).  Both the step meter and the longest intermediate string
    are compared against the bound's value.
    """
    meter = Meter()
    result = term.evaluate(oracles, args, meter)
    radius = meter.queried_radius
    lengths = [restricted_length(f, radius) for f in oracles]
    nvals = [len(x) for x in args]
    allowed = poly.evaluate(lengths, nvals)
    return BoundReport(
        result=result,
        steps=meter.steps,
        max_len=meter.max_len,
        allowed=allowed,
        radius=radius,
        within_steps=meter.steps <= allowed,
        within_length=meter.max_len <= allowed,
    )
