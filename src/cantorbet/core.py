"""Exact dyadic arithmetic, the standard enumeration of binary strings,
and the growth hierarchy.

A dyadic rational is kept as mantissa / 2**precision with precision >= 0 and
the representation eagerly normalized (odd mantissa unless the value is 0,
in which case precision is 0).  All arithmetic is exact; the only lossy
operation is `round_at`, the canonical rounding onto a coarser grid, and its
direction (half toward +infinity) is part of the contract because canonical
computations at different precisions must agree deterministically.

Binary strings are plain Python `str` over {'0','1'}; the empty string is
the root of Cantor space.  `bton`/`ntob` give the standard length-then-lex
enumeration with bton('') == 0.

Terms and set expressions are both written as s-expressions;
`read_sexpr` is the one reader for them, and `read_natural` reads the
numbers they contain.  Measure and martingale files are both dyadic
tables: `read_table` and `show_table` are the one reader and writer for
them, and `check_table` checks a table's shape.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain
from math import gcd

from .config import MAX_NESTING, check_magnitude
from .errors import DomainError, ParseError, ResourceError

__all__ = [
    "Dyadic",
    "ZERO",
    "ONE",
    "HALF",
    "parse_dyadic",
    "show_int",
    "shift_round",
    "round_ratio",
    "reduced",
    "frac_round_at",
    "as_fraction",
    "bton",
    "ntob",
    "succ",
    "pred",
    "growth",
    "validate_string",
    "read_word",
    "show_word",
    "strings_of_length",
    "strings_shorter_than",
    "read_natural",
    "read_sexpr",
    "check_table",
    "read_table",
    "show_table",
]


class Dyadic:
    """An exact dyadic rational mantissa / 2**precision.

    Instances are immutable and normalized on construction.  Arithmetic
    (+, -, *, comparisons) is closed and exact, and also accepts ints.
    There is no `/`: a quotient of dyadics need not be dyadic, so code
    that needs one takes it on the mantissas (see `reduced`).
    """

    __slots__ = ("mantissa", "precision")

    def __init__(self, mantissa: int, precision: int = 0):
        if precision < 0:
            raise DomainError("precision must be >= 0")
        if mantissa == 0:
            precision = 0
        elif precision and mantissa % 2 == 0:
            # strip shared powers of two, but never push precision below 0
            tz = ((mantissa & -mantissa).bit_length() - 1)
            k = tz if tz < precision else precision
            mantissa >>= k
            precision -= k
        _set_mantissa(self, mantissa)
        _set_precision(self, precision)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Dyadic is immutable")

    # -- conversions ---------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "Dyadic":
        q = Fraction(q)
        d = q.denominator
        if d & (d - 1):
            raise DomainError(f"{q} is not dyadic")
        return cls(q.numerator, d.bit_length() - 1)

    def to_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.precision)

    # -- arithmetic ----------------------------------------------------

    def _align(self, other: "Dyadic"):
        p = self.precision if self.precision >= other.precision else other.precision
        return (self.mantissa << (p - self.precision),
                other.mantissa << (p - other.precision), p)

    def __add__(self, other):
        if not isinstance(other, Dyadic):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, p = self._align(other)
        if self.precision != other.precision or not p:
            # normalized operands at two precisions: the finer one's odd
            # mantissa makes the sum odd; at precision 0 any sum is an int
            return _dyadic(a + b, p)
        return Dyadic(a + b, p)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Dyadic):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, p = self._align(other)
        if self.precision != other.precision or not p:
            # normalized already, as for a sum
            return _dyadic(a - b, p)
        return Dyadic(a - b, p)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if not isinstance(other, Dyadic):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        m = self.mantissa * other.mantissa
        p = self.precision + other.precision
        if m & 1 or not p:
            # a product of normalized factors with an odd mantissa, or an
            # integer, is normalized already
            return _dyadic(m, p)
        return Dyadic(m, p)

    __rmul__ = __mul__

    # a sign change keeps a normalized mantissa odd and a zero at precision 0
    def __neg__(self):
        return _dyadic(-self.mantissa, self.precision)

    def __abs__(self):
        return _dyadic(abs(self.mantissa), self.precision)

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other) -> int:
        a, b, _ = self._align(other)
        return (a > b) - (a < b)

    def __eq__(self, other):
        if not isinstance(other, Dyadic):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.mantissa == other.mantissa and self.precision == other.precision

    def __hash__(self):
        return hash((self.mantissa, self.precision))

    def __lt__(self, other):
        if not isinstance(other, Dyadic):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other):
        if not isinstance(other, Dyadic):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other):
        if not isinstance(other, Dyadic):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other):
        if not isinstance(other, Dyadic):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._cmp(other) >= 0

    def __bool__(self):
        return self.mantissa != 0

    # -- rounding / rendering ------------------------------------------

    def round_at(self, r: int) -> "Dyadic":
        """Canonical rounding onto the grid with denominator 2**r.

        Round half toward +infinity; exact (identity) when already on the
        grid.  Error is at most 2**-(r+1).
        """
        if r < 0:
            raise DomainError("rounding precision must be >= 0")
        if self.precision <= r:
            return self
        return Dyadic(shift_round(self.mantissa, self.precision - r), r)

    def mantissa_at(self, r: int) -> int:
        """Mantissa on the 2**-r grid; requires the value to lie on it."""
        if self.precision > r:
            raise DomainError(f"value {self!r} not on grid 2^-{r}")
        return self.mantissa << (r - self.precision)

    def render(self, precision: int | None = None) -> str:
        """`mantissa/2^precision`, or a bare integer at precision 0.

        With an explicit `precision`, the value is shown un-normalized on
        that grid (canonical computations report at the precision they were
        asked for).
        """
        if precision is None:
            if self.precision == 0:
                return show_int(self.mantissa)
            return f"{show_int(self.mantissa)}/2^{self.precision}"
        if precision == 0:
            return show_int(self.mantissa_at(0))
        return f"{show_int(self.mantissa_at(precision))}/2^{precision}"

    def __repr__(self):
        return f"Dyadic({show_int(self.mantissa)}, {self.precision})"

    def __str__(self):
        return self.render()


_set_mantissa = Dyadic.mantissa.__set__
_set_precision = Dyadic.precision.__set__


def _dyadic(mantissa: int, precision: int) -> Dyadic:
    """A Dyadic from fields already normalized, built without the checks."""
    d = object.__new__(Dyadic)
    _set_mantissa(d, mantissa)
    _set_precision(d, precision)
    return d


def _coerce(x):
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic(x, 0)
    return NotImplemented


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)
HALF = Dyadic(1, 1)


def show_int(n: int) -> str:
    """Decimal text of n; ResourceError past the interpreter's limit on
    converting integers to text, sys.get_int_max_str_digits()."""
    try:
        return str(n)
    except ValueError:
        raise ResourceError(
            f"an integer of {n.bit_length()} bits has more than "
            f"{sys.get_int_max_str_digits()} decimal digits") from None


def parse_dyadic(text: str) -> Dyadic:
    """Parse `m/2^p`, `p/q` with q a power of two, or a plain integer.

    The exponent of the power of two is a size, like a file's precision:
    past the magnitude cap it is a ResourceError.
    """
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            if den.startswith("2^"):
                m, p = int(num), int(den[2:])
            else:
                d = Dyadic.from_fraction(Fraction(int(num), int(den)))
                m, p = d.mantissa, d.precision
        else:
            m, p = int(text), 0
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse dyadic {text!r}: {exc}") from None
    check_magnitude(p, "dyadic precision")
    return Dyadic(m, p)


def shift_round(m: int, k: int) -> int:
    """m / 2**k rounded half up to an integer: the canonical rounding of a
    mantissa on the 2**-(r+k) grid onto the 2**-r grid (exact for k <= 0)."""
    return (m + (1 << (k - 1))) >> k if k > 0 else m << -k


def round_ratio(n: int, d: int) -> int:
    """n / d, d > 0, rounded half up to an integer: floor(n/d + 1/2)."""
    return (2 * n + d) // (2 * d)


def reduced(n: int, d: int) -> tuple[int, int]:
    """The pair (n, d), d > 0, in lowest terms."""
    g = gcd(n, d)
    return n // g, d // g


def frac_round_at(q: Fraction | int, r: int) -> Dyadic:
    """Canonical rounding of an exact rational onto the 2**-r grid.

    Same convention as Dyadic.round_at (half toward +infinity), which
    rounds a value that is already a Dyadic; exact when q already lies on
    the 2**-r grid.
    """
    if r < 0:
        raise DomainError("rounding precision must be >= 0")
    return Dyadic(round_ratio(q.numerator << r, q.denominator), r)


def as_fraction(x) -> Fraction:
    if isinstance(x, Dyadic):
        return x.to_fraction()
    return Fraction(x)


# ---------------------------------------------------------------------------
# binary strings and the standard enumeration
# ---------------------------------------------------------------------------

_BITS = frozenset("01")


def validate_string(w: str) -> str:
    if w and not _BITS.issuperset(w):
        raise DomainError(f"not a binary string: {w!r}")
    return w


def read_word(tok: str) -> str:
    """A word as written in text: ``~`` stands for the empty string."""
    return validate_string("" if tok == "~" else tok)


def show_word(w: str) -> str:
    """The inverse of read_word: the empty string is written ``~``."""
    return w if w else "~"


def strings_of_length(n: int):
    """All binary strings of length exactly n, in lexicographic order."""
    return (format(i, f"0{n}b") if n else "" for i in range(1 << n))


def strings_shorter_than(n: int):
    """All binary strings of length < n, in length-then-lexicographic order:
    the i-th is ntob(i), and its children are the (2i+1)-th and (2i+2)-th.
    Each length is listed when it is reached: a huge n costs nothing ahead."""
    return chain.from_iterable(map(ntob, range((1 << k) - 1, (2 << k) - 1))
                               for k in range(n))


def bton(w: str) -> int:
    """Index of w in the length-then-lexicographic enumeration ('' -> 0)."""
    validate_string(w)
    return int("1" + w, 2) - 1


def ntob(n: int) -> str:
    """Inverse of bton."""
    if n < 0:
        raise DomainError("enumeration index must be >= 0")
    return bin(n + 1)[3:]


def succ(w: str) -> str:
    return ntob(bton(w) + 1)


def pred(w: str) -> str:
    n = bton(w)
    return ntob(n - 1) if n else ""


# ---------------------------------------------------------------------------
# s-expressions
# ---------------------------------------------------------------------------

def read_natural(tok: str, what: str) -> int:
    """A natural number written in ASCII digits."""
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"{what} must be a natural number, got {tok!r}")
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what} has {len(tok)} digits, more than "
                         f"{sys.get_int_max_str_digits()}") from None


_SEXPR_TOKEN = re.compile(r"[()]|[^\s()]+")


def _token_position(text: str, k: int) -> int:
    """Offset in text of its k-th token; only error messages need it."""
    for j, m in enumerate(_SEXPR_TOKEN.finditer(text)):
        if j == k:
            return m.start()
    return len(text)


def read_sexpr(text: str, build, deep=(), what: str = "expression"):
    """Read one s-expression in a single pass over its tokens.

    `stack` holds the open forms, each as the index of its "(" and the
    items read so far: atoms, and the values built for closed subforms.
    When a form's ")" arrives, build(items) gives its value, so nesting
    depth costs no Python recursion.  A ParseError from build, or for a
    head that is not an atom, gets the form's text position added.  More
    than MAX_NESTING open forms whose head is in `deep` is a ParseError,
    raised when the head is read.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ParseError(f"empty {what}")
    if tokens[0] != "(":
        raise ParseError(f"{what} must start with '(', got {tokens[0]!r}")
    stack = []
    nested = 0
    for i, tok in enumerate(tokens):
        if tok == "(":
            stack.append((i, []))
        elif tok == ")":
            start, items = stack.pop()
            try:
                if not items or not isinstance(items[0], str):
                    raise ParseError("expected an operator name")
                value = build(items)
            except ParseError as exc:
                raise ParseError(f"{exc} (position "
                                 f"{_token_position(text, start)})") from None
            if items[0] in deep:
                nested -= 1
            if not stack:
                if i + 1 < len(tokens):
                    raise ParseError(
                        f"trailing input after {what} at position "
                        f"{_token_position(text, i + 1)}")
                return value
            stack[-1][1].append(value)
        else:
            items = stack[-1][1]
            if not items and tok in deep:
                nested += 1
                if nested > MAX_NESTING:
                    raise ParseError(
                        f"{what} nested deeper than {MAX_NESTING} forms "
                        f"(position {_token_position(text, i)})")
            items.append(tok)
    raise ParseError(f"missing ')' in {what}")


# ---------------------------------------------------------------------------
# dyadic tables: the body of measure and martingale files
# ---------------------------------------------------------------------------

def check_table(table: dict[str, Dyadic], depth: int) -> None:
    """A depth >= 0, an entry for each string up to it and none deeper,
    none negative."""
    if depth < 0:
        raise ParseError("depth must be >= 0")
    for w in table:
        if len(w) > depth:
            raise ParseError(f"entry {w!r} deeper than depth {depth}")
    for w in strings_shorter_than(depth + 1):
        if w not in table:
            raise ParseError(f"table incomplete: missing {w!r}")
        if table[w].mantissa < 0:
            raise ParseError(f"negative entry at {w!r}")


def read_table(text: str, kind: str, keys: tuple[str, ...], tag=None):
    """The header `kind key=value ...`, with exactly `keys` and depth read
    as a natural number; the table of `w mantissa precision` lines; and
    the lines whose first field is `tag`.  Blank and `#` lines are skipped.
    """
    lines = [ln for ln in map(str.strip, text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"empty {kind} file")
    head = lines[0].split()
    fields = dict(part.partition("=")[::2] for part in head[1:])
    if (head[0] != kind or len(head) != len(keys) + 1
            or fields.keys() != set(keys)):
        raise ParseError(f"bad {kind} header: {lines[0]!r}")
    fields["depth"] = read_natural(fields["depth"], f"{kind} depth")
    table, tagged = {}, []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == tag:
            tagged.append(ln)
            continue
        if len(parts) != 3:
            raise ParseError(f"bad {kind} line {ln!r}: expected "
                             "`w mantissa precision`")
        try:
            w, p = read_word(parts[0]), int(parts[2])
            if w in table:
                raise DomainError(f"{w!r} listed twice")
            check_magnitude(p, "table precision")
            table[w] = Dyadic(int(parts[1]), p)
        except (DomainError, ValueError) as exc:
            raise ParseError(f"bad {kind} line {ln!r}: {exc}") from None
    return fields, table, tagged


def show_table(kind: str, fields: dict, table: dict[str, Dyadic], *tail):
    """The header, a line per string up to fields["depth"], then `tail`."""
    head = " ".join([kind, *(f"{k}={v}" for k, v in fields.items())])
    body = (f"{show_word(w)} {table[w].mantissa} {table[w].precision}"
            for w in strings_shorter_than(fields["depth"] + 1))
    return "\n".join([head, *body, *tail]) + "\n"


# ---------------------------------------------------------------------------
# growth hierarchy
# ---------------------------------------------------------------------------

def _floor_log2(n: int) -> int:
    return n.bit_length() - 1 if n >= 2 else 0


def growth(i: int, n: int) -> int:
    """Level-i growth function: 2n, then n**2, then iterated exponentials.

    Levels >= 2 apply the previous level to floor(log2 n) and exponentiate,
    so growth(2, 2**k) == 2**(k*k).  Results whose bit-length would exceed
    the magnitude cap raise ResourceError instead of being built.
    """
    if i < 0:
        raise DomainError("growth level must be >= 0")
    if n < 0:
        raise DomainError("growth argument must be >= 0")
    if i == 0:
        return 2 * n
    # level 1 squares floor(log2) taken i-1 times, which is 0 after
    # log* n steps; each level above exponentiates, so the cap stops the
    # climb within a few levels however large i is
    for _ in range(i - 1):
        if n == 0:
            break
        n = _floor_log2(n)
    r = n * n
    check_magnitude(r.bit_length(), "growth value")
    for _ in range(i - 1):
        check_magnitude(r + 1, "growth value")
        r = 1 << r
    return r
