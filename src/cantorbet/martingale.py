"""Martingales over a measure: exact tables, sums, cover diagnostics,
regularity, and the regularization functional.

Every martingale here has an exact rational value at every string, a
reduced integer pair `pair(w)`, plus a canonical finite-precision evaluator
`approx(r, w)` accurate to 2**-r on the 2**-r grid.  Tables extend below
their depth by copying the parent value, which keeps the averaging
identity valid under any measure.

Regularization rebalances each split with the Robin Hood transfer so that
capital, once it reaches 1, never drops below 1 again, without changing
the root value or the averaging identity.  It is computed two ways: an
exact rational recursion (the reference), and a finite-precision recursion
that rounds at every level and decides degenerate splits by comparing
masses against the positivity witness's threshold — the route a
resource-bounded evaluator would take.  Both routes step down the tree one
level at a time, and each level costs one `children` step of the measure
on the split it reads: the masses of a node's children come from the
node's own mass, never from a closed-form `mass` query.  Both ask the base
twice per node, for its two children, and hand each child's base value to
that child's own step.  The exact route fills a missing word from its
deepest memoized prefix down, so a walk that extends its path by one bit
asks for one step.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import lcm

from .core import (
    ONE, Dyadic, check_table, parse_dyadic, read_table, reduced, round_ratio,
    shift_round, show_table, validate_string,
)
from .errors import DomainError, ParseError
from .measure import ProbabilityMeasure, uniform, biased, same_measure
from .realfun import transfer_cases, weight_bits

__all__ = [
    "Martingale",
    "TableMartingale",
    "ConstantMartingale",
    "SumMartingale",
    "RegularizedMartingale",
    "unit",
    "covers",
    "is_regular",
    "regularize",
    "max_capital",
    "load_martingale",
    "dump_martingale",
    "default_measure_resolver",
]


class Martingale:
    """Base: the exact value as a reduced pair `pair(w) -> (n, d)`, d > 0,
    the same rational as `value(w)`, and the canonical approximation
    `approx(r, w)`, each checking w.  A subclass answers on checked words:
    it defines `_pair` or only `value`, and `_grid` if it does not round.

    `unit_bounded` is known from construction, never from sampled values:
    where it is True, the martingale lies in [0, 1] at every node of
    positive mass and keeps the averaging identity at each such node.
    Regularizing such a martingale changes none of those values (see
    `splitting.CylinderPos`).  The unit martingale has it, and so does every
    constant of value <= 1; a table, a regularization or a sum that
    `combine` builds never has it."""

    measure: ProbabilityMeasure | None = None
    unit_bounded = False

    def pair(self, w: str) -> tuple[int, int]:
        return self._pair(validate_string(w))

    def _pair(self, w: str) -> tuple[int, int]:
        if type(self).value is Martingale.value:
            raise NotImplementedError("a martingale defines _pair or value")
        v = self.value(w)
        return v.numerator, v.denominator

    def value(self, w: str) -> Fraction:
        return Fraction(*self.pair(w))

    def approx(self, r: int, w: str) -> Dyadic:
        """Canonical 2**-r approximation, on the 2**-r grid."""
        if r < 0:
            raise DomainError("precision must be >= 0")
        return Dyadic(self._grid(r, validate_string(w)), r)

    def _grid(self, r: int, w: str) -> int:
        """The mantissa of approx(r, w), on checked input; rounds the pair."""
        n, d = self._pair(w)
        return round_ratio(n << r, d)


class ConstantMartingale(Martingale):
    """The same capital at every node; the unit martingale is the case 1."""

    def __init__(self, value: Fraction | int = 1, measure=None):
        v = Fraction(value)
        if v < 0:
            raise DomainError("martingale values must be >= 0")
        self._v = v.numerator, v.denominator
        self.measure = measure
        self.unit_bounded = v <= 1

    def _pair(self, w: str) -> tuple[int, int]:
        return self._v


def unit(measure: ProbabilityMeasure | None = None) -> ConstantMartingale:
    """The unit martingale: capital 1 everywhere, for every measure."""
    return ConstantMartingale(1, measure)


class TableMartingale(Martingale):
    """Exact dyadic table to a depth, parent-copy extension below."""

    def __init__(self, table: dict[str, Dyadic], depth: int,
                 measure: ProbabilityMeasure, validate: bool = True):
        check_table(table, depth)
        self.table = dict(table)
        self.depth = depth
        self.measure = measure
        if validate:
            bad = self.first_identity_violation()
            if bad is not None:
                raise DomainError(
                    f"martingale identity fails at {bad if bad else 'the root'!r}")

    def first_identity_violation(self, depth: int | None = None) -> str | None:
        """First internal node (length-lex order) breaking the identity.

        `depth` restricts the check to parents of length < depth; by default
        the whole table is examined.
        """
        t = self.table
        limit = self.depth if depth is None else min(depth, self.depth)
        if limit < 0:
            raise DomainError("depth must be >= 0")
        return next((w for w, m, m0, m1 in self.measure.splits(limit)
                     if t[w] * m != t[w + "0"] * m0 + t[w + "1"] * m1), None)

    def _pair(self, w: str) -> tuple[int, int]:
        e = self.table[w[:self.depth]]
        return e.mantissa, 1 << e.precision   # a normalized Dyadic is reduced

    def _grid(self, r: int, w: str) -> int:
        """The table entry, a Dyadic, rounded onto the 2**-r grid."""
        e = self.table[w[:self.depth]]
        return shift_round(e.mantissa, e.precision - r)


class SumMartingale(Martingale):
    """Pointwise sum of a flat tuple of terms.

    A sum passed as a term is spliced in, so sums built k deep are one
    level deep.  The approximation asks each of the n terms at
    q = r + 1 + ceil(log2 n) and rounds once: the terms err by at most
    n * 2**-q <= 2**-(r+1) together and the rounding by 2**-(r+1), so the
    answer is within 2**-r whatever the terms are.

    `unit_bounded` is the caller's claim; `splitting.IntersectUnion` and
    `splitting.NullUnion` make it for sums of the halves of exact splits.
    """

    def __init__(self, *terms: Martingale, unit_bounded: bool = False):
        self.terms = tuple(u for t in terms
                           for u in (t.terms if isinstance(t, SumMartingale)
                                     else (t,)))
        self.unit_bounded = unit_bounded
        self.measure = None
        for t in self.terms:
            self.measure = same_measure(self.measure, t.measure)

    def _pair(self, w: str) -> tuple[int, int]:
        n, d = 0, 1
        # a plain loop, not a generator, so that a query through nested
        # halves costs one Python frame per sum
        for t in self.terms:
            tn, td = t._pair(w)
            n, d = n * td + tn * d, d * td
        return reduced(n, d)

    def _grid(self, r: int, w: str) -> int:
        q = r + 1 + (len(self.terms) - 1).bit_length()
        return shift_round(sum(t._grid(q, w) for t in self.terms), q - r)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def covers(d: Martingale, prefix: str) -> bool:
    """Has capital reached 1 somewhere along (or at) this prefix?"""
    return max_capital(d, prefix) >= 1


def is_regular(d: Martingale, depth: int) -> bool:
    """Once capital reaches 1 it never drops below 1 again (to `depth`)."""
    n, e = d._pair("")
    stack = [("", n >= e)]
    while stack:
        w, reached = stack.pop()
        if len(w) >= depth:
            continue
        for b in "01":
            n, e = d._pair(w + b)
            if reached and n < e:
                return False
            stack.append((w + b, reached or n >= e))
    return True


def max_capital(d: Martingale, prefix: str) -> Fraction:
    """Largest capital along the prefix (a finite success diagnostic).

    The prefixes' pairs are compared on integers, by cross-multiplying;
    only the largest is asked for as a `value`."""
    validate_string(prefix)
    best, (bn, bd) = 0, d._pair("")
    for i in range(1, len(prefix) + 1):
        n, e = d._pair(prefix[:i])
        if n * bd > bn * e:
            best, bn, bd = i, n, e
    return d.value(prefix[:best])


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

def _weight(mp: Dyadic, m0: Dyadic) -> tuple[int, int] | None:
    """A split's weight on its 0-child, m0/mp, as the pair (A, B) of their
    mantissas on one grid (no gcd is taken), or None when the split is
    degenerate: a null node, or a 0-child with none or all of the mass."""
    d = mp.precision - m0.precision
    if d >= 0:
        A, B = m0.mantissa << d, mp.mantissa
    else:
        A, B = m0.mantissa, mp.mantissa << -d
    if A == 0 or A == B:    # a null node's 0-child is null too
        return None
    return A, B


class RegularizedMartingale(Martingale):
    """Robin-Hood rebalanced version of a base martingale.

    Recursion down the tree: the root keeps its value; a degenerate split
    (null node, or a child owning none/all of the mass) copies the parent's
    value to both children; otherwise the children receive the transfer of
    (parent + what the base gives each child - what the base held), with
    the split's own conditional as the weight.  The transfer preserves the
    weighted average, so the averaging identity survives; its floor-at-1
    behaviour is what makes the result regular.
    """

    def __init__(self, base: Martingale, nu: ProbabilityMeasure):
        self.base = base
        self.measure = same_measure(base.measure, nu)
        self._nu = nu
        # The exact route's memo: each value as a reduced pair (n, d), d > 0,
        # and each memoized node's mass (the root's is 1), which its
        # children's step reads; and the base's pair at each node not yet
        # expanded where the step above it asked for one, which that
        # node's own step reads
        root = base._pair("")
        self._memo: dict[str, tuple[int, int]] = {"": root}
        self._mass: dict[str, Dyadic] = {"": ONE}
        self._base_pairs: dict[str, tuple[int, int]] = {"": root}
        # The path cursor of the finite-precision route (see `_scan`): the
        # last path scanned, each level's split data along it (the
        # children's masses, the weight and the running slope), and the
        # working precision with the root's and each node's fork at it.
        self._path = ""
        self._splits: list[tuple[Dyadic, Dyadic, tuple[int, int] | None,
                                 int]] = []
        self._q = 0
        self._root = 0
        self._forks: list[tuple[tuple[int, int | None], ...]] = []

    # -- exact route ---------------------------------------------------

    value = Martingale.value   # its own, for perfbench/tracer.py to wrap

    def _pair(self, w: str) -> tuple[int, int]:
        """The exact value from the memo.  A missing w is filled from its
        deepest memoized prefix down, one `_children` step per level, so a
        query k bits below the memo costs k steps and k + 1 probes."""
        memo = self._memo
        if w not in memo:
            k = len(w) - 1
            while w[:k] not in memo:
                k -= 1
            for i in range(k, len(w)):
                self._children(w[:i])
        return memo[w]

    def _children(self, w: str) -> None:
        """Both children's pairs and masses below w, on integers.

        The children's masses come from w's memoized mass by one
        `children` step of the measure, so a node costs the same at any
        depth.  The base is asked for w0 and w1 only: its pair at w was
        kept by the step above w, or asked for here where that step was
        degenerate and kept none.  That pair, the children's and w's own
        value n/d go onto one denominator T, so the pair handed to the
        transfer is (s/T, t/T); `transfer_cases` at one = T gives each
        output as n/(d*T), reduced.
        """
        memo, mass = self._memo, self._mass
        n, d = memo[w]   # _pair() expands w's parent first
        m = mass[w]
        m0, m1 = self._nu.children(w, m)
        mass[w + "0"], mass[w + "1"] = m0, m1
        base_pairs = self._base_pairs
        kept = base_pairs.pop(w, None)
        ab = _weight(m, m0)
        if ab is None:
            memo[w + "0"] = memo[w + "1"] = n, d
            return
        A, B = ab
        base = self.base
        nw, dw = kept or base._pair(w)
        n0, d0 = base_pairs[w + "0"] = base._pair(w + "0")
        n1, d1 = base_pairs[w + "1"] = base._pair(w + "1")
        T = lcm(d, dw, d0, d1)
        c = n * (T // d) - nw * (T // dw)
        s = c + n0 * (T // d0)
        t = c + n1 * (T // d1)
        # a base that breaks the averaging identity can leave the domain
        (n0, e0), (n1, e1) = transfer_cases(A, B, s, t, T)
        memo[w + "0"] = reduced(n0, e0 * T)
        memo[w + "1"] = reduced(n1, e1 * T)

    # -- finite-precision route ----------------------------------------

    approx = Martingale.approx   # its own, for perfbench/tracer.py to wrap

    def _grid(self, r: int, w: str) -> int:
        """Level-by-level rounded recursion with threshold-based zero tests.

        Internal precision covers the accumulated transfer slope plus the
        per-level rounding, so the final answer is within 2**-r.  Masses
        are compared against the witness threshold exactly — for a weakly
        positive measure that test recognizes null and degenerate splits
        precisely.  A non-empty w is one child of the scan of its parent;
        its sibling, asked next at the same r, is read from the cursor.
        """
        if not w:  # the base's root value at q = r + 3 + (3 * 2).bit_length()
            return shift_round(self.base._grid(r + 6, ""), 6)
        fork = self._scan(r, w[:-1])
        return shift_round(fork[int(w[-1])][0], self._q - r)

    def _scan(self, r: int, x: str):
        """The fork below x: both children's states at the working
        precision, from one path scan.

        The two children read the same splits, x's own included, so they
        share the slope budget, the working precision, the rounding pass
        down to x and the last transfer; only the final pick differs.

        The working precision is q = r + 3 + slope + (3(|x| + 3)).bit_length()
        rounded up to a power of two, Q.  More precision only shrinks the
        per-level rounding error, so the 2**-r bound holds at Q as at q;
        and as a walk goes down and q grows, Q changes only O(log D) times
        in D steps.

        Error, in units u = 2**-q, on a weakly positive measure: let E be
        the error of a node's shift cur - dp, dp the base there (within
        u); E = 0 at the root, where cur = dp.  A fork's pair g is then
        within E + u (b's error), the transfer scales that by at most its
        slope L = 1/min(a, 1-a) <= 2**l, l its `weight_bits`, and rounding
        adds u/2.  A child's dp is the b its parent rounded, so b's error
        cancels from the child's E, or adds u where the exact pair takes
        another case of the transfer; a degenerate level adds 2u.  So
        E' <= L (E + u) + 3u/2, E <= 2**s (5/2) k u at depth k (s: the
        slope bits above), and the answer errs by at most 2**slope (5/2)
        (|x| + 1) u + 2**-(r+1), within 2**-r from q = r + 1 + slope +
        log2(5 (|x| + 1) / 2) on (the clamp's pair error is then below
        1/(2L); `_fork` needs 1/L).  So q is slack by two bits of its
        margin 3, over a quarter bit of its length term, Q - q, and the
        slope product (only the give case amplifies); a table base rounds
        half up, halving u.  q is kept: it fixes every output's bytes.

        The scan resumes from the path cursor the last query left.  A
        level's split data (the masses, the weight the threshold test
        keeps, the running slope) depends only on the path down to it, and
        a node's fork (both children's rounded values and base values)
        only on that path and Q.  So the cursor keeps the levels and forks
        on the longest common prefix of the old and new paths, drops the
        forks when Q changes, and extends both level by level with the
        same loop body a scan from the root runs: the answer is byte for
        byte that of a fresh scan at Q, whatever the queries before it.
        A walk that extends its path by one bit per step thus reads one
        new split per step, and rescans from the root only when Q changes.
        Reading a split is one `children` step of the measure from the
        mass the level above handed down.
        """
        nu = self._nu
        witness = nu.witness
        path, splits, forks = self._path, self._splits, self._forks
        k = len(path) if x.startswith(path) else \
            len(os.path.commonprefix((path, x)))
        del splits[k + 1:], forks[k + 1:]
        self._path = x
        # Each level reads its split once: the slope budget counts the
        # splits the exact test finds nondegenerate, and the weight is
        # (A, B), or None where the threshold test finds the split
        # degenerate.
        for i in range(len(splits), len(x) + 1):
            if i:
                m0, m1, _, slope = splits[i - 1]
                mp = m0 if x[i - 1] == "0" else m1
            else:
                mp, slope = self._mass[""], 0
            m0, m1 = nu.children(x[:i], mp)
            ab = _weight(mp, m0)
            if ab is not None:
                slope += weight_bits(*ab)
            live = (witness.clears(mp, i) and witness.clears(m0, i + 1)
                    and witness.clears(m1, i + 1))
            splits.append((m0, m1, ab if live else None, slope))
        q = r + 3 + splits[-1][3] + (3 * (len(x) + 3)).bit_length()
        q = 1 << (q - 1).bit_length()
        if q != self._q:
            self._root = self.base._grid(q, "")
            self._q = q
            forks.clear()
        # A node's state is (cur, dp): the mantissas on the 2**-q grid of
        # its rounded value and of the base at it, dp None where the level
        # above was degenerate and so did not ask the base for it.
        for i in range(len(forks), len(x) + 1):
            cur, dp = forks[i - 1][int(x[i - 1])] if i else \
                (self._root, self._root)
            forks.append(self._fork(q, x[:i], cur, dp, splits[i][2]))
        return forks[-1]

    def _fork(self, q: int, p: str, cur: int, dp: int | None,
              ab: tuple[int, int] | None):
        """Both children's states below node p, at working precision q.

        Everything is a mantissa on the 2**-q grid, one = 2**q: `cur`,
        `dp`, the base's `b0` and `b1`, and the pair g = cur - dp + b
        handed to the transfer.  The transfer's outputs n/d leave the grid
        and are rounded back, half up, by `round_ratio`.

        Rounding can push g out of the transfer domain, the quadrant
        g >= 0 joined with the half-plane mean >= 1, so the clamp below
        moves it back, and no domain test is needed after it.  Proof: if
        neither coordinate is negative, or the mean is >= 1, the pair is
        in the domain and the clamp leaves it.  Otherwise the clamp sets
        the negative coordinates to 0, or sets both to one; either way
        both coordinates are >= 0.  The weight (A, B) comes from a
        nondegenerate split, 0 < m0 < mp, so 0 < A < B.

        The clamp moves the negative coordinates to 0 unless that lifts
        the mean to 1; then it raises the mean to 1 instead, so both
        children get 1.  When the exact pair is within e of this one in
        each coordinate, and e < min(a, 1-a) for a = A/B (q keeps e below
        an eighth of that), the move lands within L*e of the exact
        transfer, L = max(1/a, 1/(1-a)), whichever part of the domain the
        exact pair is in: the slope budget in q already covers this level.
        """
        if ab is None:
            # degenerate: the children inherit the parent value
            return (cur, None), (cur, None)
        A, B = ab
        base = self.base
        if dp is None:
            dp = base._grid(q, p)
        b0, b1 = base._grid(q, p + "0"), base._grid(q, p + "1")
        g0, g1 = cur - dp + b0, cur - dp + b1
        one = 1 << q
        if (g0 < 0 or g1 < 0) and A * g0 + (B - A) * g1 < B * one:
            c0, c1 = max(g0, 0), max(g1, 0)
            if A * c0 + (B - A) * c1 < B * one:
                g0, g1 = c0, c1
            else:
                g0 = g1 = one
        (n0, d0), (n1, d1) = transfer_cases(A, B, g0, g1, one)
        return (round_ratio(n0, d0), b0), (round_ratio(n1, d1), b1)


def regularize(d: Martingale, nu: ProbabilityMeasure) -> RegularizedMartingale:
    return RegularizedMartingale(d, nu)


# ---------------------------------------------------------------------------
# file format: a table (see core.read_table)
# ---------------------------------------------------------------------------
#   martingale measure=SPEC depth=N
#   w mantissa precision        (λ written as ~)
# SPEC is `uniform`, `biased:P` with P dyadic, or a name the caller's
# resolver understands (the CLI resolves file paths).

def default_measure_resolver(spec: str) -> ProbabilityMeasure:
    if spec == "uniform":
        return uniform()
    if spec.startswith("biased:"):
        return biased(parse_dyadic(spec.split(":", 1)[1]))
    raise ParseError(f"unknown measure spec {spec!r} "
                     "(pass a resolver that can load files)")


def dump_martingale(d: TableMartingale, measure_spec: str) -> str:
    return show_table("martingale", {"measure": measure_spec,
                                     "depth": d.depth}, d.table)


def load_martingale(text: str, resolver=None,
                    validate: bool = True) -> TableMartingale:
    fields, table, _ = read_table(text, "martingale", ("measure", "depth"))
    spec = fields["measure"]
    nu = (resolver or default_measure_resolver)(spec)
    d = TableMartingale(table, fields["depth"], nu, validate=validate)
    d.measure_spec = spec
    return d
