"""Measures: tables, extensions, built-ins, the conditional functional as
the cylinder slice reads it, and the text format."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cantorbet.core import (
    Dyadic, ZERO, ONE, HALF, frac_round_at, strings_of_length,
)
from cantorbet.errors import DomainError, ParseError, PreconditionError
from cantorbet.martingale import unit
from cantorbet.measure import (
    PositivityWitness, ProbabilityMeasure, uniform, biased, load_measure,
    dump_measure,
)
from cantorbet.splitting import SliceMartingale

from helpers import (
    SHALLOW_WITNESS_MEASURE, random_conditionals, measure_from_conditionals,
    build_measure, normalized, random_unit_dyadic, random_witnessed_measure,
)


def test_uniform_masses():
    mu = uniform()
    assert mu.mass("") == ONE
    assert mu.mass("010") == Dyadic(1, 3)
    assert mu.mass("11") == Dyadic(1, 2)
    assert mu.mass("01") == Dyadic(1, 2)
    assert mu.weakly_positive(8)


def test_biased_masses():
    nu = biased(Dyadic(3, 2))
    assert nu.mass("0") == Dyadic(3, 2)
    assert nu.mass("1") == Dyadic(1, 2)
    assert nu.mass("00") == Dyadic(9, 4)
    assert nu.mass("01") == Dyadic(3, 4)
    assert nu.weakly_positive(8)
    with pytest.raises(DomainError):
        biased(ONE)
    with pytest.raises(DomainError):
        biased(ZERO)


def test_table_with_half_extension():
    nu = ProbabilityMeasure({"": ONE, "0": Dyadic(3, 2), "1": Dyadic(1, 2)}, 1,
                            witness=PositivityWitness(0, 2))
    assert nu.mass("0") == Dyadic(3, 2)
    assert nu.mass("00") == Dyadic(3, 3)          # 3/4 * 1/2
    assert nu.mass("011") == Dyadic(3, 4)
    assert nu.weakly_positive(6)


def test_table_validation():
    with pytest.raises(DomainError):   # root must be 1
        ProbabilityMeasure({"": HALF}, 0)
    with pytest.raises(DomainError):   # additivity
        ProbabilityMeasure({"": ONE, "0": HALF, "1": HALF + HALF}, 1)
    with pytest.raises(DomainError):   # incomplete
        ProbabilityMeasure({"": ONE, "0": HALF}, 1)
    with pytest.raises(DomainError):   # negative mass
        ProbabilityMeasure({"": ONE, "0": Dyadic(3, 1), "1": Dyadic(-1, 1)}, 1)


def test_copy_extension():
    nu = ProbabilityMeasure({"": ONE, "0": Dyadic(3, 2), "1": Dyadic(1, 2)}, 1,
                            ext=("copy",), witness=PositivityWitness(0, 2))
    # both boundary nodes copy the root split (3/4 toward 0)
    assert nu.mass("00") == Dyadic(9, 4)
    assert nu.mass("01") == Dyadic(3, 4)
    assert nu.mass("10") == Dyadic(3, 4)
    assert nu.mass("011") == Dyadic(3, 2) * Dyadic(1, 2) * Dyadic(1, 2)
    # additivity persists below the table
    for w in ["0", "1", "00", "01", "10", "11", "010"]:
        assert nu.mass(w) == nu.mass(w + "0") + nu.mass(w + "1")


def test_copy_extension_requires_dyadic_boundary_split():
    # an additive table whose boundary node 00 continues with its split's
    # conditional (1/4)/(3/4) = 1/3: not dyadic
    with pytest.raises(DomainError) as e:
        ProbabilityMeasure({"": ONE, "0": Dyadic(3, 2), "1": Dyadic(1, 2),
                            "00": Dyadic(1, 2), "01": Dyadic(1, 1),
                            "10": Dyadic(1, 3), "11": Dyadic(1, 3)}, 2,
                           ext=("copy",))
    assert str(e.value) == \
        "ext=copy: boundary conditional 1/3 at '00' is not dyadic"
    with pytest.raises(DomainError):
        ProbabilityMeasure({"": ONE}, 0, ext=("copy",))


def test_zero_mass_subtree_stays_zero():
    nu = ProbabilityMeasure({"": ONE, "0": ONE, "1": ZERO}, 1,
                            witness=PositivityWitness(0, 0))
    assert nu.mass("1") == ZERO
    assert nu.mass("101") == ZERO
    assert nu.mass("0000") == Dyadic(1, 3)


# ---------------------------------------------------------------------------
# conditional functional: the slice of the unit martingale at w reads
# B(w, v) = nu(w | v) on the way down to w, 1 inside the cylinder, 0 beside
# ---------------------------------------------------------------------------

def conditional(nu, w, v):
    return SliceMartingale(w, nu, unit(nu), nu.mass(w)).pair(v)


def test_conditional_three_cases():
    mu = uniform()
    assert conditional(mu, "01", "0") == (1, 2)
    assert conditional(mu, "0", "01") == (1, 1)
    assert conditional(mu, "0", "1") == (0, 1)
    assert conditional(mu, "0", "0") == (1, 1)    # equal strings
    assert conditional(mu, "", "1101") == (1, 1)


def test_conditional_below_threshold_is_zero():
    # witness demands >= 2^-1 at depth 1, but mass('0') is 1/4
    nu = ProbabilityMeasure({"": ONE, "0": Dyadic(1, 2), "1": Dyadic(3, 2)}, 1,
                            witness=PositivityWitness(0, 1))
    assert conditional(nu, "0", "") == (0, 1)
    assert conditional(nu, "0", "0") == (0, 1)
    # the sibling clears it
    assert conditional(nu, "1", "") == (3, 4)


def test_witness_clears_by_brute_force():
    """The closed form agrees with comparing the mass with Dyadic(1, l)."""
    for c0 in range(8):
        for c1 in range(3):
            witness = PositivityWitness(c0, c1)
            for n in range(4):
                t = Dyadic(1, witness(n))
                for p in range(14):
                    for m in range(70):
                        mass = Dyadic(m, p)
                        assert witness.clears(mass, n) == (mass >= t), \
                            (c0, c1, n, m, p)


def test_conditional_non_dyadic_quotient():
    nu = ProbabilityMeasure({"": ONE, "0": Dyadic(5, 3), "1": Dyadic(3, 3),
                             "00": Dyadic(1, 3), "01": Dyadic(1, 1),
                             "10": Dyadic(1, 3), "11": Dyadic(1, 2)}, 2,
                            witness=PositivityWitness(0, 3))
    got = Fraction(*conditional(nu, "00", "0"))
    assert got == Fraction(1, 5)
    assert frac_round_at(got, 4) == Dyadic(3, 4)
    # conditional-probability identity, exactly
    assert got * nu.mass("0").to_fraction() == nu.mass("00").to_fraction()


def test_conditional_identity_randomized():
    rng = random.Random(11)
    for _ in range(20):
        cond = random_conditionals(rng, 4)
        nu = build_measure(cond, 4)
        for _ in range(10):
            n = rng.randrange(5)
            w = "".join(rng.choice("01") for _ in range(n))
            v = w[:rng.randrange(n + 1)]
            val = Fraction(*conditional(nu, w, v))
            if nu.witness.clears(nu.mass(w), len(w)):
                assert val * nu.mass(v).to_fraction() == nu.mass(w).to_fraction()
            else:
                assert val == 0


def test_additivity_depth_12_builtins():
    for nu in (uniform(), biased(Dyadic(3, 2)), biased(Dyadic(5, 3))):
        for n in range(12):
            # spot-check: full depth-12 sweep happens in the acceptance suite
            for w in ["0" * n, "01" * (n // 2), "1" * n]:
                w = w[:n]
                assert nu.mass(w) == nu.mass(w + "0") + nu.mass(w + "1")


# a copy measure whose boundary node 00 continues with conditional 1: its
# parent 0 sends all its mass to it
COPY_ONE = ProbabilityMeasure(
    {"": ONE, "0": HALF, "1": HALF, "00": HALF, "01": ZERO,
     "10": Dyadic(1, 2), "11": Dyadic(1, 2)}, 2, ext=("copy",),
    witness=PositivityWitness(0, 2))


def _product_measures(rng: random.Random) -> list[ProbabilityMeasure]:
    """Measures of every extension below their tables: half, biased, copy
    (with a null node), `COPY_ONE`, const 0 and 1, and random tables with
    null nodes."""
    copy = ProbabilityMeasure(
        {"": ONE, "0": Dyadic(3, 2), "1": Dyadic(1, 2),
         "00": Dyadic(3, 3), "01": Dyadic(3, 3), "10": ZERO,
         "11": Dyadic(1, 2)}, 2, ext=("copy",), witness=PositivityWitness(0, 3))
    table = build_measure(random_conditionals(rng, 3, zeros=True), 3)
    return [uniform(), biased(Dyadic(3, 3)), biased(Dyadic(1, 2)),
            copy, COPY_ONE, table,
            ProbabilityMeasure({"": ONE}, 0, ("const", ZERO)),
            ProbabilityMeasure({"": ONE}, 0, ("const", ONE)),
            ProbabilityMeasure(table.table, 3, ("const", ZERO)),
            ProbabilityMeasure(table.table, 3, ("const", ONE))]


def test_mass_below_table_is_the_per_bit_product():
    rng = random.Random(59)
    for nu in _product_measures(rng):
        for n in list(range(12)) + [rng.randrange(12, 300) for _ in range(8)] \
                + [300]:
            u = "".join(rng.choice("01") for _ in range(nu.depth))
            tail = "".join(rng.choice("01") for _ in range(n))
            want = nu.table[u].to_fraction()
            if nu.ext[0] == "const":
                c = nu.ext[1].to_fraction()
            elif want:
                parent = u[:-1]
                c = (nu.table[parent + "0"].to_fraction()
                     / nu.table[parent].to_fraction())
            else:
                c = Fraction(0)     # every mass under a null node is 0
            for b in tail:
                want *= c if b == "0" else 1 - c
            assert nu.mass(u + tail) == Dyadic.from_fraction(want), (nu, u, n)


def test_children_step_gives_the_masses_of_both_children():
    # children(w, mass(w)) at every length from the root to 12 levels
    # below the table, and at a few lengths up to 300 bits; both results
    # normalized, as the closed form's are
    rng = random.Random(67)
    for nu in _product_measures(rng):
        lengths = list(range(nu.depth + 13)) + \
            [rng.randrange(nu.depth + 13, 300) for _ in range(4)] + [300]
        for n in lengths:
            for _ in range(4):
                w = "".join(rng.choice("01") for _ in range(n))
                got = nu.children(w, nu.mass(w))
                want = nu.mass(w + "0"), nu.mass(w + "1")
                assert [(m.mantissa, m.precision) for m in got] == \
                    [(m.mantissa, m.precision) for m in want], (nu, w)
                assert all(normalized(m) for m in got)


def per_node_weakly_positive(nu: ProbabilityMeasure, depth: int) -> bool:
    """Every nonzero mass to `depth` against 2**-l(n), node by node."""
    return all(m == 0 or m >= Fraction(1, 1 << nu.witness(n))
               for n in range(depth + 1) for w in strings_of_length(n)
               for m in [nu.mass(w).to_fraction()])


def test_weakly_positive_matches_the_per_node_loop():
    rng = random.Random(73)
    tables = []
    for k in (1, 1, 2, 2, 3, 3):
        cond = random_conditionals(rng, k, precision=3, zeros=True)
        tables.append((build_measure(cond, k).table, k))
    outcomes = set()
    for c0 in range(4):
        for c1 in range(5):
            witness = PositivityWitness(c0, c1)
            measures = [ProbabilityMeasure({"": ONE}, 0, ("const", c), witness)
                        for c in (HALF, Dyadic(1, 2), Dyadic(3, 3), ZERO, ONE)]
            measures += [ProbabilityMeasure(t, k, ext, witness)
                         for t, k in tables
                         for ext in (("const", HALF), ("const", ZERO),
                                     ("const", ONE), ("copy",))]
            measures.append(ProbabilityMeasure(COPY_ONE.table, 2, ("copy",),
                                               witness))
            for nu in measures:
                for depth in range(6):
                    got = nu.weakly_positive(depth)
                    assert got == per_node_weakly_positive(nu, depth), \
                        (nu, depth)
                    outcomes.add(got)
    assert outcomes == {True, False}
    # witnesses that sit exactly at a mass: 2**-n under the uniform
    # measure, 4**-n under a 1/4 coin, whose 0-child at depth 1 meets
    # 2**-(1 + n) and whose 00-child at depth 2 misses it
    assert uniform().weakly_positive(8)
    quarter = Dyadic(1, 2)
    assert ProbabilityMeasure({"": ONE}, 0, ("const", quarter),
                              PositivityWitness(0, 2)).weakly_positive(8)
    nu = ProbabilityMeasure({"": ONE}, 0, ("const", quarter),
                            PositivityWitness(1, 1))
    assert nu.weakly_positive(1) and not nu.weakly_positive(2)


def test_weak_positivity_at_every_depth_matches_the_paths_below():
    """weakly_positive() against the table, node by node, and below each
    boundary node against both one-sided paths, 64 levels deep.

    A node below the table splits with one conditional c at every level,
    so its least mass k levels down is on one of those paths.  With c on
    the 2**-3 grid and l(n) = c0 + c1*n, c0 <= 6, c1 <= 3, a path that
    falls below the threshold does so within 40 levels.
    """
    rng = random.Random(101)
    outcomes = set()
    for _ in range(300):
        nu, _ = random_witnessed_measure(rng)
        n, clears = nu.depth, nu.witness.clears
        brute = per_node_weakly_positive(nu, n) and all(
            m == ZERO or clears(m, n + k)
            for u in strings_of_length(n) for b in "01"
            for k in range(1, 65) for m in [nu.mass(u + b * k)])
        assert nu.weakly_positive() == brute, nu
        outcomes.add((nu.weakly_positive(n + 2), brute))
    # some pass, some fail in the table, and some only below depth + 2
    assert outcomes == {(True, True), (False, False), (True, False)}


@given(st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.text(alphabet="01", max_size=12))
def test_masses_are_normalized(seed, w):
    """The closed-form mass, and each carried-down m1 = m - m0."""
    rng = random.Random(seed)
    k = rng.randrange(1, 4)
    table = build_measure(random_conditionals(rng, k, zeros=True), k).table
    for nu in (ProbabilityMeasure(table, k),
               ProbabilityMeasure(table, k, ("copy",)),
               biased(random_unit_dyadic(rng, 5)), uniform()):
        assert normalized(nu.mass(w))
        for _, m, m0, m1 in nu.splits(5):
            assert normalized(m) and normalized(m0) and normalized(m1)


def test_random_tables_match_oracle():
    rng = random.Random(23)
    for _ in range(15):
        cond = random_conditionals(rng, 5)
        masses = measure_from_conditionals(cond)
        nu = build_measure(cond, 5)
        for w, q in masses.items():
            assert nu.mass(w).to_fraction() == q
        assert nu.weakly_positive(5)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

EXAMPLE = """\
measure depth=1 ext=half
~ 1 0
0 3 2
1 1 2
l poly 0 2
"""


def test_load_example():
    nu = load_measure(EXAMPLE)
    assert nu.depth == 1
    assert nu.mass("0") == Dyadic(3, 2)
    assert nu.mass("00") == Dyadic(3, 3)
    assert nu.witness(3) == 6


def test_dump_load_roundtrip():
    rng = random.Random(5)
    cond = random_conditionals(rng, 3)
    nu = build_measure(cond, 3)
    # build_measure uses a const-1/2 extension, which the format calls half
    text = dump_measure(nu)
    back = load_measure(text)
    for w in ["", "0", "1", "0101", "11", "000", "10110"]:
        assert back.mass(w) == nu.mass(w)
    assert dump_measure(back) == text


def test_load_errors():
    with pytest.raises(ParseError):
        load_measure("")
    with pytest.raises(ParseError):
        load_measure("nonsense depth=1 ext=half\n~ 1 0\nl poly 0 1\n")
    with pytest.raises(ParseError):
        load_measure("measure depth=0 ext=weird\n~ 1 0\nl poly 0 1\n")
    with pytest.raises(ParseError):   # missing witness
        load_measure("measure depth=0 ext=half\n~ 1 0\n")
    with pytest.raises(ParseError):   # incomplete table
        load_measure("measure depth=1 ext=half\n~ 1 0\n0 1 1\nl poly 0 1\n")
    with pytest.raises(ParseError):   # additivity broken
        load_measure("measure depth=1 ext=half\n~ 1 0\n0 1 1\n1 3 2\nl poly 0 1\n")


def test_load_rejects_witness_mismatch():
    bad = ("measure depth=1 ext=half\n"
           "~ 1 0\n"
           "0 1 5\n"
           "1 31 5\n"
           "l poly 0 1\n")
    with pytest.raises(PreconditionError):
        load_measure(bad)
    # weakly positive to depth + 2, but not below it
    with pytest.raises(PreconditionError, match="not weakly positive"):
        load_measure(SHALLOW_WITNESS_MEASURE)
    # the same table under a threshold that falls by 2**-2 per level
    load_measure(SHALLOW_WITNESS_MEASURE.replace("l poly 4 1", "l poly 4 2"))


def _fraction_verdict(table: dict[str, Fraction], depth: int, ext: str,
                      c0: int, c1: int):
    """The additivity check's message, or weakly_positive()'s answer, on
    Fractions: every nonzero table mass at length n against 2**-(c0 + c1 n),
    and below the table each boundary split (c, 1 - c) with both sides
    nonzero against 2**-c1."""
    for n in range(depth):
        for w in strings_of_length(n):
            if table[w] != table[w + "0"] + table[w + "1"]:
                return f"additivity fails at {w!r}"
    if any(m and m < Fraction(1, 1 << (c0 + c1 * len(w)))
           for w, m in table.items()):
        return False
    for u in strings_of_length(depth):
        if table[u]:
            c = (Fraction(1, 2) if ext == "half"
                 else table[u[:-1] + "0"] / table[u[:-1]])
            if c and c != 1 and min(c, 1 - c) < Fraction(1, 1 << c1):
                return False
    return True


def test_integer_checks_match_fractions():
    # depth 0-4 tables split top down with shares on the 2**-3 grid, 0 and
    # 1 among them (null nodes); a third of them then move one node's mass
    # by one unit of a grid at least as fine as the table's finest
    rng = random.Random(29)
    seen = set()
    for _ in range(400):
        depth = rng.randrange(5)
        ext = rng.choice(("half", "copy")) if depth else "half"
        table = {"": Fraction(1)}
        for n in range(depth):
            for w in strings_of_length(n):
                share = Fraction(rng.choice((0, 1, 1, 2, 3, 5, 7, 8)), 8)
                table[w + "0"] = table[w] * share
                table[w + "1"] = table[w] - table[w + "0"]
        if depth and rng.randrange(3) == 0:
            finest = max(m.denominator for m in table.values())
            ulp = Fraction(1, finest << rng.randrange(3))
            w = rng.choice([w for w in table if w])
            table[w] += ulp if rng.randrange(2) or not table[w] else -ulp
        c0, c1 = rng.randrange(5), rng.randrange(5)
        want = _fraction_verdict(table, depth, ext, c0, c1)
        try:
            nu = ProbabilityMeasure(
                {w: Dyadic.from_fraction(m) for w, m in table.items()}, depth,
                ("const", HALF) if ext == "half" else ("copy",),
                PositivityWitness(c0, c1))
        except DomainError as exc:
            got = str(exc)
        else:
            got = nu.weakly_positive()
        assert got == want, (table, depth, ext, c0, c1)
        seen.add(want if isinstance(want, bool) else "additivity")
    assert seen == {True, False, "additivity"}
