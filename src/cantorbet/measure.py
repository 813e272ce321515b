"""Probability measures on Cantor space as finite tables plus an extension
rule, with weak-positivity witnesses.

A measure assigns exact dyadic mass to every cylinder.  The table covers all
strings up to a depth N; below that, each subtree continues with a constant
child-conditional: 1/2 (`half`), a fixed parameter (built-in biased coins),
or a copy of the split that produced the subtree's boundary node (`copy`).
Weak positivity — every nonzero mass at depth n is at least 2**-l(n) — is
carried by an affine witness l and is what makes the thresholds of
martingales and slices decidable by exact comparison.

Masses are read two ways.  `mass(w)` is the closed form, for one-off
queries (the CLI, cylinders, slices): below the table it costs O(|w|).
`children(w, mass(w))` is the per-level step down a path or a tree: it
gives the masses of w0 and w1 from w's own with two table reads or two
products, so a walk D levels deep costs O(D) products, not O(D**2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Dyadic, ZERO, ONE, HALF, check_table, read_table, reduced, show_table,
    strings_of_length, strings_shorter_than, validate_string,
)
from .errors import (
    DomainError, MeasureMismatchError, ParseError, PreconditionError,
)

__all__ = [
    "PositivityWitness",
    "ProbabilityMeasure",
    "uniform",
    "biased",
    "same_measure",
    "load_measure",
    "dump_measure",
]


@dataclass(frozen=True)
class PositivityWitness:
    """Affine lower-bound exponent l(n) = c0 + c1*n for nonzero masses."""

    c0: int
    c1: int

    def __post_init__(self):
        if self.c0 < 0 or self.c1 < 0:
            raise DomainError("witness coefficients must be >= 0")

    def __call__(self, n: int) -> int:
        return self.c0 + self.c1 * n

    def clears(self, mass: Dyadic, n: int) -> bool:
        """Whether mass >= 2**-l(n)."""
        return _clears(mass.mantissa, mass.precision, self(n))


def _clears(m: int, p: int, l: int) -> bool:
    """Whether m / 2**p >= 2**-l: for m >= 1, exactly when p <= l or
    m >= 2**(p - l).  The threshold itself is never built; l may run to
    billions of bits."""
    return m > 0 and (p <= l or m.bit_length() > p - l)


class ProbabilityMeasure:
    """Exact measure: table to depth N, constant-conditional extension below.

    `ext` is one of:
      * ("const", c): every below-table split sends mass c to the 0-child;
      * ("copy",): each boundary node continues with the conditional of the
        split that produced it (must be dyadic, checked on construction).
    """

    def __init__(self, table: dict[str, Dyadic], depth: int,
                 ext=("const", HALF), witness: PositivityWitness | None = None):
        self.depth = depth
        self.table = dict(table)
        self.witness = witness if witness is not None else PositivityWitness(0, 1)
        if ext[0] not in ("const", "copy"):
            raise DomainError(f"unknown extension rule {ext[0]!r}")
        self.ext = tuple(ext)
        self._validate()
        # each depth-N node's split (c, 1 - c), where it has a conditional c
        self._split = {u: (c, ONE - c)
                       for u, c in self._boundary_conditionals().items()}

    # -- construction-time checks --------------------------------------

    def _validate(self):
        table = self.table
        check_table(table, self.depth)
        if table[""] != ONE:
            raise DomainError("root mass must be exactly 1")
        # each mass against its children's sum, on the finest of the
        # three grids
        for w in strings_shorter_than(self.depth):
            m, m0, m1 = table[w], table[w + "0"], table[w + "1"]
            p = max(m.precision, m0.precision, m1.precision)
            if (m.mantissa << (p - m.precision)
                    != (m0.mantissa << (p - m0.precision))
                    + (m1.mantissa << (p - m1.precision))):
                raise DomainError(f"additivity fails at {w!r}")

    def _boundary_conditionals(self) -> dict[str, Dyadic]:
        """The conditional each depth-N node u of positive mass splits
        with at every level below it: c under ("const", c); under `copy`,
        mass(parent(u)0)/mass(parent(u)), which must be dyadic for masses
        to stay exact."""
        if self.ext[0] == "const":
            c = self.ext[1]
            if not (ZERO <= c <= ONE):
                raise DomainError("extension conditional must lie in [0,1]")
            return {u: c for u in strings_of_length(self.depth)
                    if self.table[u]}
        if self.depth == 0:
            raise DomainError("ext=copy needs a table of depth >= 1")
        out = {}
        for u in strings_of_length(self.depth):
            if not self.table[u]:
                continue
            a, b = self.table[u[:-1] + "0"], self.table[u[:-1]]
            n, d = reduced(a.mantissa << b.precision,
                           b.mantissa << a.precision)
            if d & (d - 1):
                raise DomainError(f"ext=copy: boundary conditional {n}/{d} "
                                  f"at {u!r} is not dyadic")
            out[u] = Dyadic(n, d.bit_length() - 1)
        return out

    # -- queries -------------------------------------------------------

    def mass(self, w: str) -> Dyadic:
        """Exact cylinder mass, at any depth, in closed form: for one-off
        queries.  Below the table it is the boundary node's mass times
        c**z * (1-c)**o, for a tail with z zeros and o ones under a node
        whose subtree splits with conditional c; a node without a
        conditional is null.  Code that walks down a path or a tree
        steps from each mass to its children's with `children`."""
        validate_string(w)
        if len(w) <= self.depth:
            return self.table[w]
        u = w[:self.depth]
        split = self._split.get(u)
        if split is None:
            return ZERO
        m = self.table[u]
        c, d = split
        z = w.count("0", self.depth)
        o = len(w) - self.depth - z
        return Dyadic(m.mantissa * c.mantissa ** z * d.mantissa ** o,
                      m.precision + c.precision * z + d.precision * o)

    def children(self, w: str, m: Dyadic) -> tuple[Dyadic, Dyadic]:
        """The masses of w0 and w1, given m = mass(w) for a checked word
        w: the per-level step.  Inside the table they are two table reads;
        below it, m times the boundary node's (c, 1 - c), and (0, 0)
        under a node without a conditional."""
        if len(w) < self.depth:
            return self.table[w + "0"], self.table[w + "1"]
        split = self._split.get(w[:self.depth])
        if split is None:
            return ZERO, ZERO
        return m * split[0], m * split[1]

    def splits(self, depth: int):
        """(w, m, m0, m1): each string shorter than `depth`, in length-lex
        order, with the masses of w, w0 and w1: one `children` step
        per w."""
        masses = [self.table[""]]   # in the order of strings_shorter_than
        for i, w in enumerate(strings_shorter_than(depth)):
            m0, m1 = self.children(w, masses[i])
            masses += (m0, m1)
            yield w, masses[i], m0, m1

    def weakly_positive(self, depth: int | None = None) -> bool:
        """Whether every nonzero mass of length n <= depth clears
        2**-l(n); with no depth, of every length.  Below the table a node
        splits with one conditional c at every level, so where 0 < c < 1
        its least mass falls by mu = min(c, 1 - c) per level, and the
        threshold by 2**-c1: every length passes exactly when the table
        does and each such mu clears 2**-c1."""
        if depth is None:
            # the drop per level, min(c, 1 - c) with both on one grid,
            # against 2**-c1
            c1 = self.witness.c1
            return self.weakly_positive(self.depth) and all(
                _clears(min(a, b), p, c1)
                for a, b, p in map(_on_one_grid, self._split.values())
                if a and b)
        # the root's mass, 1, clears every threshold
        l = self.witness
        return all(_clears(m.mantissa, m.precision, l(len(w) + 1))
                   for w, _, m0, m1 in self.splits(depth)
                   for m in (m0, m1) if m.mantissa)

    def __repr__(self):
        return (f"ProbabilityMeasure(depth={self.depth}, ext={self.ext[0]}, "
                f"l(n)={self.witness.c0}+{self.witness.c1}n)")

    def __eq__(self, other):
        if not isinstance(other, ProbabilityMeasure):
            return NotImplemented
        return (self.depth == other.depth and self.ext == other.ext
                and self.witness == other.witness and self.table == other.table)

    __hash__ = None  # content-compared, mutable-looking; keep unhashable


def _on_one_grid(split: tuple[Dyadic, Dyadic]) -> tuple[int, int, int]:
    """The mantissas of (c, 1 - c) on the finer one's grid, and its
    precision."""
    c, d = split
    p = max(c.precision, d.precision)
    return c.mantissa << (p - c.precision), d.mantissa << (p - d.precision), p


def uniform() -> ProbabilityMeasure:
    """The coin-flipping measure: mass(w) = 2**-|w|."""
    return ProbabilityMeasure({"": ONE}, 0, ("const", HALF),
                              PositivityWitness(0, 1))


def biased(p: Dyadic) -> ProbabilityMeasure:
    """Independent biased bits: p is the probability of a 0 at every step."""
    if not (ZERO < p < ONE):
        raise DomainError("bias must lie strictly between 0 and 1")
    k = max(p.precision, (ONE - p).precision)
    return ProbabilityMeasure({"": ONE}, 0, ("const", p),
                              PositivityWitness(0, k))


def same_measure(a: ProbabilityMeasure | None, b: ProbabilityMeasure | None):
    """The measure two objects share; None stands for any measure."""
    if a is None:
        return b
    if b is None or a is b or a == b:
        return a
    raise MeasureMismatchError("martingales or operators on two measures")


# ---------------------------------------------------------------------------
# file format: a table (see core.read_table) and one witness line
# ---------------------------------------------------------------------------
#   measure depth=N ext=half|copy
#   w mantissa precision          (one line per string, λ written as ~)
#   l poly c0 c1

def dump_measure(nu: ProbabilityMeasure) -> str:
    if nu.ext[0] == "const" and nu.ext[1] != HALF:
        raise DomainError("file format only covers ext=half and ext=copy")
    ext = "half" if nu.ext[0] == "const" else "copy"
    return show_table("measure", {"depth": nu.depth, "ext": ext}, nu.table,
                      f"l poly {nu.witness.c0} {nu.witness.c1}")


def load_measure(text: str) -> ProbabilityMeasure:
    fields, table, tagged = read_table(text, "measure", ("depth", "ext"), "l")
    ext = {"half": ("const", HALF), "copy": ("copy",)}.get(fields["ext"])
    if ext is None:
        raise ParseError(f"unknown extension {fields['ext']!r}")
    if len(tagged) != 1:
        raise ParseError(f"{len(tagged)} witness lines `l poly c0 c1`, not 1")
    try:
        parts = tagged[0].split()
        if len(parts) != 4 or parts[1] != "poly":
            raise ValueError("expected `l poly c0 c1`")
        witness = PositivityWitness(int(parts[2]), int(parts[3]))
    except (DomainError, ValueError) as exc:
        raise ParseError(f"bad witness line {tagged[0]!r}: {exc}") from None
    try:
        nu = ProbabilityMeasure(table, fields["depth"], ext, witness)
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    if not nu.weakly_positive():
        raise PreconditionError("measure is not weakly positive for its witness")
    return nu
