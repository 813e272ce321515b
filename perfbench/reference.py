"""Independent reference computations for the benchmark's checks.

Nothing here imports the program.  Each function is written from the
definitions, by a different route than the library takes where one
exists: closed-form cylinder masses instead of a per-bit loop, the
transfer's excess form instead of its mean form, truth tables instead of
splitting operators, brute force instead of the algebra's length term.
"""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


class MeasureModel:
    """Cylinder masses: a table to `depth`, then a constant split below.

    `rule` is ("const", c) for a fixed 0-child share c below the table, or
    ("copy",) for a boundary node continuing with the share of the split
    that produced it.  Below the table a mass is m * c^#0 * (1-c)^#1.
    """

    def __init__(self, table: dict, depth: int, rule):
        self.table = {w: Fraction(m) for w, m in table.items()}
        self.depth = depth
        self.rule = rule

    @classmethod
    def coin(cls, p) -> "MeasureModel":
        """Independent bits with probability p of a 0."""
        return cls({"": Fraction(1)}, 0, ("const", Fraction(p)))

    def share(self, u: str) -> Fraction:
        """The 0-child share used below the boundary node u."""
        if self.rule[0] == "const":
            return self.rule[1]
        parent = u[:-1]
        return self.table[parent + "0"] / self.table[parent]

    def mass(self, w: str) -> Fraction:
        if len(w) <= self.depth:
            return self.table[w]
        u = w[:self.depth]
        m = self.table[u]
        if m == 0:
            return m
        c = self.share(u)
        tail = w[self.depth:]
        zeros = tail.count("0")
        return m * c ** zeros * (1 - c) ** (len(tail) - zeros)

    def conditional(self, w: str) -> Fraction:
        """Share of w's mass that goes to w0 (w must have positive mass)."""
        if len(w) >= self.depth:
            return self.share(w[:self.depth])
        return self.table[w + "0"] / self.table[w]


# ---------------------------------------------------------------------------
# the Robin Hood transfer and regularization
# ---------------------------------------------------------------------------


def transfer(a: Fraction, s: Fraction, t: Fraction) -> tuple:
    """The four-case capital transfer with weight a on the first coordinate.

    Written in excess form: a coordinate above 1 hands its excess, scaled
    by the weights, to the other coordinate.
    """
    mean = a * s + (1 - a) * t
    if 0 <= s <= 1 and 0 <= t <= 1:
        return s, t
    if mean >= 1:
        return mean, mean
    if s >= 1:
        return Fraction(1), t + a * (s - 1) / (1 - a)
    if t >= 1:
        return s + (1 - a) * (t - 1) / a, Fraction(1)
    raise ValueError(f"({s}, {t}) is outside the transfer domain for {a}")


def regularized_path(base, model: MeasureModel, w: str):
    """Regularized capital along w, with the sibling at every step.

    `base(u)` is the base martingale's exact value.  Returns a list of
    (taken, other) pairs, one per bit of w, plus the root value first as
    (root, root).
    """
    cur = Fraction(base(""))
    out = [(cur, cur)]
    for i, bit in enumerate(w):
        p = w[:i]
        mp = model.mass(p)
        a = model.mass(p + "0") / mp if mp else None
        if a is None or a == 0 or a == 1:
            c0 = c1 = cur
        else:
            shift = cur - base(p)
            c0, c1 = transfer(a, shift + base(p + "0"), shift + base(p + "1"))
        cur, other = (c0, c1) if bit == "0" else (c1, c0)
        out.append((cur, other))
    return out


# ---------------------------------------------------------------------------
# set expressions
# ---------------------------------------------------------------------------
# An expression is a tuple: ("cyl", w), ("compl", E), ("cap", E, F),
# ("cup", E, F) or ("limit", [E0, ..., En], K) for a family constant from
# stage K on (its limit is stage K).


def expr_words(e) -> list:
    if e[0] == "cyl":
        return [e[1]]
    if e[0] == "limit":
        return [w for s in e[1] for w in expr_words(s)]
    return [w for sub in e[1:] for w in expr_words(sub)]


def contains(e, s: str) -> bool:
    """Is the cylinder of s (long enough to decide) inside the set?"""
    head = e[0]
    if head == "cyl":
        return s.startswith(e[1])
    if head == "compl":
        return not contains(e[1], s)
    if head == "cap":
        return contains(e[1], s) and contains(e[2], s)
    if head == "cup":
        return contains(e[1], s) or contains(e[2], s)
    if head == "limit":
        stages, k = e[1], e[2]
        return contains(stages[min(k, len(stages) - 1)], s)
    raise ValueError(f"unknown head {head!r}")


def set_measure(e, model: MeasureModel) -> Fraction:
    """Measure of a set expression by truth table over all strings of its
    longest word's length."""
    n = max(len(w) for w in expr_words(e))
    total = Fraction(0)
    for i in range(1 << n):
        s = format(i, f"0{n}b") if n else ""
        if contains(e, s):
            total += model.mass(s)
    return total


def expr_text(e) -> str:
    head = e[0]
    if head == "cyl":
        return f"(cyl {e[1] or '~'})"
    if head == "limit":
        stages = " ".join(expr_text(s) for s in e[1])
        return f"(limit {stages} {e[2]})"
    return "(" + head + " " + " ".join(expr_text(s) for s in e[1:]) + ")"


# ---------------------------------------------------------------------------
# oracles and growth expressions
# ---------------------------------------------------------------------------


def longest_answer(table: dict, default: str, n: int) -> int:
    """Largest answer length over every query of length at most n."""
    best = 0
    for k in range(n + 1):
        for i in range(1 << k):
            q = format(i, f"0{k}b") if k else ""
            best = max(best, len(table.get(q, default)))
    return best


# Each bound the benchmark uses, as text for the program and as a Python
# function of (L, n) for the reference; g1(x) = x * x and L(k) is the
# longest answer to a query of length at most k.
BOUNDS = {
    "g1(L1(n1) + n1 + 8)": lambda L, n: (L(n) + n + 8) ** 2,
    "8 * n1 * L1(n1) + 4 * g1(n1) + 64": lambda L, n: 8 * n * L(n) + 4 * n * n + 64,
}
