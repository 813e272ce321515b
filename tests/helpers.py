"""Shared test utilities: independent oracles and seeded generators.

Oracles here are deliberately written *differently* from the library code
(closed formulas, brute-force scans) so that agreement actually means
something.
"""

from __future__ import annotations

import importlib.util
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from cantorbet.core import Dyadic, growth, strings_shorter_than

# one line per acceptance criterion; conftest echoes these in the final
# report, where no capture mode can hide them
ACCEPTANCE_LINES: list[str] = []

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench_module(name: str):
    """perfbench/<name>.py, loaded from its file, leaving no bytecode
    beside it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


# the benchmark's reference: truth tables and measures of set expressions
ref = load_bench_module("reference")


class ProbeCountingMemo(dict):
    """A memo that counts its membership tests."""

    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return dict.__contains__(self, key)


def bton_oracle(w: str) -> int:
    """Length-then-lex rank, computed by counting, not bit tricks."""
    shorter = (1 << len(w)) - 1
    within = int(w, 2) if w else 0
    return shorter + within


def normalized(d: Dyadic) -> bool:
    """Whether d is in canonical form: its precision is the exponent of its
    reduced denominator, so zero is (0, 0) and a non-integer's mantissa is
    odd (an integer's may be even, at precision 0)."""
    return Fraction(d.mantissa, 1 << d.precision).denominator \
        == 1 << d.precision


def random_dyadic(rng: random.Random, max_precision: int = 8,
                  lo: int = -64, hi: int = 64) -> Dyadic:
    p = rng.randrange(max_precision + 1)
    return Dyadic(rng.randrange(lo << p, (hi << p) + 1), p)


def random_unit_dyadic(rng: random.Random, precision: int) -> Dyadic:
    """Uniform on the open unit interval's 2**-precision grid."""
    return Dyadic(rng.randrange(1, 1 << precision), precision)


def random_conditionals(rng: random.Random, depth: int, precision: int = 6,
                        zeros: bool = False) -> dict[str, Dyadic]:
    """Child-split table: w -> conditional probability of appending 0.

    Values live strictly inside (0, 1) unless `zeros` allows occasional
    degenerate splits (exactly 0 or 1).
    """
    table = {}
    for n in range(depth):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            if zeros and rng.random() < 0.15:
                table[w] = Dyadic(rng.choice([0, 1]), 0)
            else:
                table[w] = random_unit_dyadic(rng, precision)
    return table


def measure_from_conditionals(cond: dict[str, Dyadic]) -> dict[str, Fraction]:
    """Exact cylinder masses generated by a conditional table (mass 1 at root)."""
    masses = {"": Fraction(1)}
    for w, p in sorted(cond.items(), key=lambda kv: (len(kv[0]), kv[0])):
        m = masses[w]
        masses[w + "0"] = m * p.to_fraction()
        masses[w + "1"] = m * (1 - p.to_fraction())
    return masses


def random_transfer_point(rng: random.Random, alpha: Fraction,
                          precision: int = 6) -> tuple[Fraction, Fraction]:
    """A random dyadic point of the transfer domain [0,inf)^2 u {mean >= 1}."""
    while True:
        s = Fraction(rng.randrange(-2 << precision, 4 << precision),
                     1 << precision)
        t = Fraction(rng.randrange(-2 << precision, 4 << precision),
                     1 << precision)
        if (s >= 0 and t >= 0) or alpha * s + (1 - alpha) * t >= 1:
            return s, t


def build_measure(cond: dict[str, Dyadic], depth: int, precision: int = 6):
    """ProbabilityMeasure from a conditional table (plus matching witness)."""
    from cantorbet.measure import ProbabilityMeasure, PositivityWitness

    masses = measure_from_conditionals(cond)
    table = {w: Dyadic.from_fraction(q) for w, q in masses.items()
             if len(w) <= depth}
    return ProbabilityMeasure(table, depth, ("const", Dyadic(1, 1)),
                              PositivityWitness(0, precision))


# A measure file that is weakly positive to depth + 2 but not at every
# depth: below the table each split leaves 1/4 of the mass on one side,
# while the witness lowers its threshold by only 2**-1 per level, so
# 0^k has mass 4**-k and threshold 2**-(4 + k), which it misses from k = 5.
SHALLOW_WITNESS_MEASURE = ("measure depth=1 ext=copy\n~ 1 0\n0 1 2\n"
                           "1 3 2\nl poly 4 1\n")


def random_witnessed_measure(rng: random.Random):
    """A measure with a table of depth 1-3, some of its splits 0 or 1,
    the half or the copy rule below it, and a witness l(n) = c0 + c1*n
    with c0 <= 6 and c1 <= 3 that may fail in the table or below it;
    and the table's conditionals.  Every conditional is on the 2**-3
    grid."""
    from cantorbet.measure import ProbabilityMeasure, PositivityWitness

    depth = rng.randrange(1, 4)
    cond = random_conditionals(rng, depth, precision=3, zeros=True)
    ext = rng.choice([("const", Dyadic(1, 1)), ("copy",)])
    witness = PositivityWitness(rng.randrange(7), rng.randrange(4))
    return (ProbabilityMeasure(build_measure(cond, depth).table, depth, ext,
                               witness), cond)


def random_martingale_table(rng: random.Random, cond: dict[str, Dyadic],
                            depth: int, jitter: int = 6) -> dict[str, Dyadic]:
    """Exact dyadic martingale table for the measure induced by `cond`.

    At a node with capital d and 0-child conditional a/2^k, the children
    (d - (2^k - a)y, d + a*y) satisfy the averaging identity exactly for
    any y, and both stay >= 0 when |y| <= d*2^-k.  Sampling y on a dyadic
    grid keeps the whole table dyadic.  Degenerate splits hand the parent's
    capital to the surviving child; anything goes below a null node.
    """
    vals: dict[str, Dyadic] = {"": Dyadic(rng.randrange(1, 1 << (jitter + 1)),
                                          jitter)}
    free = lambda: Dyadic(rng.randrange(0, 1 << jitter), jitter)
    for n in range(depth):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            d = vals[w]
            p = cond[w]
            if p == Dyadic(0, 0):          # all mass to the 1-child
                vals[w + "0"] = free()
                vals[w + "1"] = d
                continue
            if p == Dyadic(1, 0):
                vals[w + "0"] = d
                vals[w + "1"] = free()
                continue
            k = p.precision
            a = p.mantissa                  # conditional is a / 2^k
            y = Dyadic(rng.randrange(-(1 << jitter), (1 << jitter) + 1),
                       jitter + k) * d
            vals[w + "0"] = d - ((1 << k) - a) * y
            vals[w + "1"] = d + a * y
    return vals


def build_table_martingale(rng: random.Random, nu, cond, depth: int,
                           jitter: int = 6):
    from cantorbet.martingale import TableMartingale

    table = random_martingale_table(rng, cond, depth, jitter)
    return TableMartingale(table, depth, nu)


# Set expressions as tuples: ("cyl", w), ("compl", E), ("cap", E, F),
# ("cup", E, F) or ("limit", [E0, ..., En], K), as `ref` reads them.

def set_expressions(depth: int, leaf=None):
    """Well-formed expressions nested at most `depth` forms deep, with
    words of at most three bits; `leaf` draws the innermost forms, (cyl w)
    by default."""
    if leaf is None:
        leaf = st.tuples(st.just("cyl"), st.text("01", max_size=3))
    e = leaf
    for _ in range(depth):
        e = st.one_of(
            leaf,
            st.tuples(st.just("compl"), e),
            st.tuples(st.sampled_from(["cap", "cup"]), e, e),
            st.tuples(st.just("limit"), st.lists(e, min_size=1, max_size=3),
                      st.integers(0, 3)),
        )
    return e


# the built-in measures' specs, with each one's probability of a 0
BUILTIN_MEASURES = {"uniform": Fraction(1, 2), "biased:3/8": Fraction(3, 8)}
_EIGHTHS = [Fraction(k, 8) for k in range(9)]


@st.composite
def measure_files(draw):
    """A measure file's text and the reference model of its table: the
    `half` or `copy` rule below depth 1 to 3, splits on the 2^-3 grid,
    some of 0 or 1, and the witness l(n) = 3n, which every nonzero mass
    then clears."""
    rule = draw(st.sampled_from(["half", "copy"]))
    depth = draw(st.integers(1, 3))
    table = {"": Fraction(1)}
    for w in strings_shorter_than(depth):
        c = draw(st.sampled_from(_EIGHTHS))
        table[w + "0"], table[w + "1"] = table[w] * c, table[w] * (1 - c)
    lines = [f"measure depth={depth} ext={rule}"]
    lines += [f"{w or '~'} {m.numerator} {m.denominator.bit_length() - 1}"
              for w, m in table.items()]
    lines.append("l poly 0 3")
    below = ("const", Fraction(1, 2)) if rule == "half" else ("copy",)
    return "\n".join(lines) + "\n", ref.MeasureModel(table, depth, below)


def measures():
    """A measure drawn as `measure_files` or a built-in one, loaded in
    process: (the ProbabilityMeasure, its reference model)."""
    from cantorbet.martingale import default_measure_resolver
    from cantorbet.measure import load_measure

    return st.one_of(
        st.sampled_from(sorted(BUILTIN_MEASURES)).map(
            lambda spec: (default_measure_resolver(spec),
                          ref.MeasureModel.coin(BUILTIN_MEASURES[spec]))),
        measure_files().map(lambda f: (load_measure(f[0]), f[1])))


def nesting_shapes(k: int) -> dict[str, tuple[str, Fraction]]:
    """Set expressions with k nested cap/cup/limit forms (k even, k >= 2),
    each with the measure of its set under the uniform measure."""
    half = Fraction(1, 2)

    def right(head):
        return f"({head} (cyl 0) " * k + "(cyl 0)" + ")" * k

    def left(head):
        return f"({head} " * k + "(cyl 0)" + " (cyl 0))" * k

    # E -> (compl (cap E (cyl 0))) turns 0... into 1..., then 1... into all
    compl_cap = "(cyl 0)"
    for _ in range(k):
        compl_cap = f"(compl (cap {compl_cap} (cyl 0)))"
    return {
        "right-cup": (right("cup"), half),
        "right-cap": (right("cap"), half),
        "left-cup": (left("cup"), half),
        "left-cap": (left("cap"), half),
        "compl-cap": (compl_cap, half if k % 2 else Fraction(1)),
        "limit": ("(limit " * k + "(cyl 0)" + " 0)" * k, half),
        # (cup (cyl 1) E) is everything once E covers 0...
        "limit-cup": ("(limit (cyl 0) (cup (cyl 1) " * (k // 2) + "(cyl 0)"
                      + ") 1)" * (k // 2), Fraction(1)),
    }


# terms as texts, built by signature (oracle slots, string slots) so that
# every one is well typed; evaluating one may still break a recursion bound
# (exit 1) or the magnitude cap (exit 3).
_LEAF_SIGNATURES = {"const": (0, 0), "s0": (0, 1), "s1": (0, 1),
                    "succ": (0, 1), "pred": (0, 1), "smash": (0, 2),
                    "ap": (1, 1)}


@st.composite
def terms(draw, k, l, depth):
    """A term of signature (k, l) nested at most depth + 2 forms deep."""
    kinds = ["primitive"]
    if depth:
        kinds += ["comp", "expand"] + (["lrn", "br"] if l else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "comp":
        m = draw(st.integers(1, 2))
        parts = [draw(terms(k, m, depth - 1))]
        parts += [draw(terms(k, l, depth - 1)) for _ in range(m)]
        return "(comp " + " ".join(parts) + ")"
    if kind == "expand":
        k2, l2 = draw(st.integers(0, k)), draw(st.integers(0, l))
        return f"(expand {draw(terms(k2, l2, depth - 1))} {k - k2} {l - l2})"
    if kind != "primitive":
        return (f"({kind} " + " ".join(draw(terms(k, m, depth - 1))
                                        for m in (l - 1, l + 1, l)) + ")")
    prims = [(f"(proj {j} {l})", 0) for j in range(l)]
    prims += [(f"({h})", a) for h, (a, b) in _LEAF_SIGNATURES.items()
              if b == l and a <= k]
    if l == 1:
        prims += [("(pad 0)", 0), ("(pad 1)", 0)]
        prims += [(f"(oracle {j} {k})", k) for j in range(k)]
    text, slots = draw(st.sampled_from(prims))
    return text if slots == k else f"(expand {text} {k - slots} 0)"


@st.composite
def growth_expressions(draw, k, m, depth):
    """A growth expression over L1..Lk and n1..nm, at most depth + 1 deep."""
    kinds = ["atom"]
    if depth:
        kinds += ["g", "+", "*"] + (["L"] if k else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(st.sampled_from(
            [str(draw(st.integers(0, 9)))] + [f"n{j}" for j in range(1, m + 1)]))
    if kind in "+*":
        parts = [draw(growth_expressions(k, m, depth - 1)) for _ in range(2)]
        return f"({f' {kind} '.join(parts)})"
    head = f"L{draw(st.integers(1, k))}" if kind == "L" else \
        f"g{draw(st.integers(0, 2))}"
    return f"{head}({draw(growth_expressions(k, m, depth - 1))})"


_GROWTH_WORD = re.compile(r"([Lg])(\d+)\s*\(|n(\d+)|(\d+)")


def growth_reference(text: str, lengths=(), nvals=()) -> int:
    """The value of a growth expression, read by Python's own parser, not
    by funalg's: nJ becomes the J-th n value, LJ( a call of the J-th length
    function, gI( a call of core.growth(I, ...), and a constant its decimal
    value, so that + and * keep Python's precedence.  Python refuses
    parentheses nested about 200 deep, so keep the texts shallow."""
    def rewrite(m):
        head, index, j, c = m.groups()
        if head == "L":
            return f"_L[{int(index)}]("
        if head == "g":
            return f"_g({int(index)}, "
        return f"_n[{int(j)}]" if j is not None else str(int(c))

    scope = {"_L": dict(enumerate(lengths, 1)),
             "_n": dict(enumerate(nvals, 1)),
             "_g": growth, "__builtins__": {}}
    return eval(_GROWTH_WORD.sub(rewrite, text), scope)
