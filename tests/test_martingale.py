"""Martingales: tables, sums, covers/regularity, regularization, file IO."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cantorbet.core import Dyadic, ONE
from cantorbet.errors import DomainError, MeasureMismatchError, ParseError
from cantorbet.measure import (
    PositivityWitness, ProbabilityMeasure, uniform, biased,
)
from cantorbet.martingale import (
    Martingale, SumMartingale, TableMartingale, unit, covers, is_regular,
    regularize,
    max_capital, min_tail_capital, load_martingale, dump_martingale,
)

from helpers import (
    random_conditionals, build_measure, random_martingale_table,
    build_table_martingale,
)


def table_d(values, depth, nu=None):
    nu = nu or uniform()
    return TableMartingale({w: Dyadic(*mp) for w, mp in values.items()},
                           depth, nu)


COVER_FIXTURE = {
    "": (1, 1), "0": (3, 2), "1": (1, 2),
    "00": (9, 3), "01": (3, 3), "10": (1, 2), "11": (1, 2),
}


def test_unit():
    one = unit()
    assert one.value("") == 1
    assert one.value("0110") == 1
    assert one.approx(5, "01") == ONE
    assert one.approx(5, "01").render(5) == "32/2^5"


def test_table_identity_validated():
    d = table_d(COVER_FIXTURE, 2)
    assert d.value("00") == Fraction(9, 8)
    with pytest.raises(DomainError) as e:
        table_d({"": (1, 0), "0": (1, 0), "1": (3, 2)}, 1)
    assert "identity" in str(e.value)


def test_table_rejects_negative_and_missing():
    with pytest.raises(DomainError):
        table_d({"": (1, 0), "0": (-1, 0), "1": (3, 0)}, 1)
    with pytest.raises(DomainError):
        table_d({"": (1, 0), "0": (1, 0)}, 1)


def test_constant_extension():
    d = table_d(COVER_FIXTURE, 2)
    assert d.value("0101") == d.value("01")
    assert d.value("00111") == Fraction(9, 8)
    # identity survives below the table under any measure
    nu = d.measure
    for w in ["00", "010", "1101"]:
        lhs = d.value(w) * nu.mass(w).to_fraction()
        rhs = sum(d.value(w + b) * nu.mass(w + b).to_fraction() for b in "01")
        assert lhs == rhs


def test_add_values():
    one = unit()
    two = SumMartingale(one, one)
    assert two.value("010") == 2
    d = table_d(COVER_FIXTURE, 2)
    s = SumMartingale(d, one)
    assert s.value("0") == Fraction(7, 4)
    assert s.measure is d.measure


def test_add_measure_mismatch():
    d1 = table_d(COVER_FIXTURE, 2, uniform())
    d2 = unit(biased(Dyadic(3, 2)))
    with pytest.raises(MeasureMismatchError):
        SumMartingale(d1, d2)
    # unit with no pinned measure mixes with anything
    assert SumMartingale(d1, unit()).value("") == Fraction(3, 2)


def test_add_approx_formula():
    rng = random.Random(41)
    cond = random_conditionals(rng, 5)
    nu = build_measure(cond, 5)
    d1 = build_table_martingale(rng, nu, cond, 5)
    d2 = build_table_martingale(rng, nu, cond, 5)
    s = SumMartingale(d1, d2)
    for _ in range(200):
        n = rng.randrange(7)
        w = "".join(rng.choice("01") for _ in range(n))
        r = rng.randrange(12)
        got = s.approx(r, w)
        assert got.precision <= r
        assert abs(got.to_fraction() - s.value(w)) <= Fraction(1, 2 ** r)


def test_covers_examples():
    assert covers(unit(), "")
    d = table_d(COVER_FIXTURE, 2)
    assert covers(d, "00")
    assert not covers(d, "0")
    assert not covers(d, "11")


def test_is_regular_examples():
    assert is_regular(unit(), 8)
    drop = table_d({"": (1, 0), "0": (1, 1), "1": (3, 1),
                    "00": (1, 1), "01": (1, 1), "10": (3, 1), "11": (3, 1)}, 2)
    assert not is_regular(drop, 2)
    ok = table_d(COVER_FIXTURE, 2)
    assert is_regular(ok, 4)   # never reaches 1 except at 00 and stays via extension


def test_capital_diagnostics():
    d = table_d(COVER_FIXTURE, 2)
    assert max_capital(d, "00") == Fraction(9, 8)
    assert max_capital(d, "11") == Fraction(1, 2)
    assert min_tail_capital(d, "", 2) == Fraction(1, 4)
    assert min_tail_capital(d, "00", 3) == Fraction(9, 8)
    with pytest.raises(DomainError):
        min_tail_capital(d, "", -1)


# ---------------------------------------------------------------------------
# regularization: frozen example and laws
# ---------------------------------------------------------------------------

def test_regularize_hand_example():
    # root 1; node 0 holds 2, then its children split to 1/2 and 7/2
    d = table_d({"": (1, 0), "0": (2, 0), "1": (0, 0),
                 "00": (1, 1), "01": (7, 1), "10": (0, 0), "11": (0, 0)}, 2)
    lam = regularize(d, d.measure)
    assert lam.value("") == 1
    assert lam.value("0") == 1 and lam.value("1") == 1
    assert lam.value("00") == 1 and lam.value("01") == 1
    assert lam.value("00") >= 1


def test_regularize_unit_fixed_point():
    lam = regularize(unit(), uniform())
    for w in ["", "0", "10", "0110", "11111"]:
        assert lam.value(w) == 1


def test_regularize_preserves_root_and_identity():
    rng = random.Random(17)
    for _ in range(30):
        cond = random_conditionals(rng, 5, zeros=(rng.random() < 0.5))
        nu = build_measure(cond, 5)
        d = build_table_martingale(rng, nu, cond, 5)
        lam = regularize(d, nu)
        assert lam.value("") == d.value("")
        for n in range(6):
            for i in range(1 << n):
                w = format(i, f"0{n}b") if n else ""
                lhs = lam.value(w) * nu.mass(w).to_fraction()
                rhs = sum(lam.value(w + b) * nu.mass(w + b).to_fraction()
                          for b in "01")
                assert lhs == rhs


def test_regularize_is_regular_and_preserves_covers():
    rng = random.Random(29)
    for _ in range(25):
        cond = random_conditionals(rng, 6, zeros=(rng.random() < 0.3))
        nu = build_measure(cond, 6)
        d = build_table_martingale(rng, nu, cond, 6)
        lam = regularize(d, nu)
        assert is_regular(lam, 6)
        for i in range(1 << 6):
            p = format(i, "06b")
            if covers(d, p):
                assert covers(lam, p)


def test_regularize_cover_level_idempotence_on_regular_inputs():
    rng = random.Random(37)
    for _ in range(10):
        cond = random_conditionals(rng, 5)
        nu = build_measure(cond, 5)
        d = build_table_martingale(rng, nu, cond, 5)
        lam = regularize(d, nu)
        lam2 = regularize(lam, nu)
        for i in range(1 << 5):
            p = format(i, "05b")
            assert covers(lam2, p) == covers(lam, p)


def test_regularize_approx_tracks_exact():
    rng = random.Random(43)
    for trial in range(12):
        zeros = trial % 3 == 0
        cond = random_conditionals(rng, 5, zeros=zeros)
        nu = build_measure(cond, 5)
        d = build_table_martingale(rng, nu, cond, 5)
        lam = regularize(d, nu)
        for _ in range(20):
            n = rng.randrange(7)
            w = "".join(rng.choice("01") for _ in range(n))
            r = rng.randrange(0, 12)
            got = lam.approx(r, w)
            assert got.precision <= r
            assert abs(got.to_fraction() - lam.value(w)) <= Fraction(1, 2 ** r)


def test_regularize_approx_biased_measure():
    rng = random.Random(47)
    nu = biased(Dyadic(3, 2))
    cond = {w: Dyadic(3, 2)
            for n in range(5) for w in
            ([format(i, f"0{n}b") for i in range(1 << n)] if n else [""])}
    d = build_table_martingale(rng, nu, cond, 4)
    lam = regularize(d, nu)
    for _ in range(40):
        n = rng.randrange(6)
        w = "".join(rng.choice("01") for _ in range(n))
        r = rng.randrange(0, 14)
        got = lam.approx(r, w)
        assert abs(got.to_fraction() - lam.value(w)) <= Fraction(1, 2 ** r)


# Under biased:3/8 the rebalanced capital is pinned at exactly 1 at node 0,
# where the base then stakes its whole excess: the exact transfer point at 0
# has mean 1 and a negative coordinate.
PINNED_TABLE = """martingale measure=biased:3/8 depth=2
~ 1 1
0 9 3
1 1 3
00 12525047 22
01 34719 22
10 1 3
11 1 3
"""


def test_regularize_approx_on_pinned_capital():
    d = load_martingale(PINNED_TABLE)
    lam = regularize(d, d.measure)
    assert lam.value("00") == 1
    assert lam.approx(5, "00").render(5) == "32/2^5"
    # siblings follow each other at the same r, so each 1-child is read
    # from the fork its 0-sibling's scan left; a fresh object scans it
    for r in range(14):
        for n in range(6):
            for i in range(1 << n):
                w = format(i, f"0{n}b") if n else ""
                got = lam.approx(r, w)
                want = regularize(d, d.measure).approx(r, w)
                assert (got.mantissa, got.precision) == \
                    (want.mantissa, want.precision), (w, r)
                assert abs(got.to_fraction() - lam.value(w)) <= \
                    Fraction(1, 2 ** r), (w, r)


def test_regularize_approx_copies_splits_below_the_witness_threshold():
    # The witness promises every nonzero mass at depth 1 is at least 1/2,
    # but mass("0") is 1/4: the exact route transfers at the root, while the
    # threshold test makes the approximation copy the root's value.
    nu = ProbabilityMeasure({"": ONE}, 0, ("const", Dyadic(1, 2)),
                            PositivityWitness(0, 1))
    d = TableMartingale({"": Dyadic(1, 1), "0": Dyadic(5, 2),
                         "1": Dyadic(1, 2)}, 1, nu)
    lam = regularize(d, nu)
    assert lam.value("0") == 1
    assert lam.approx(4, "0") == Dyadic(1, 1)


class FixedFractionBettor(Martingale):
    """Stakes a fixed fraction of its capital on 0 at every step, under a
    constant 0-conditional p; 1/p makes its values non-dyadic."""

    def __init__(self, f, capital, p, nu):
        self.f, self.capital, self.p = f, capital, p
        self.measure = nu

    def value(self, w):
        v = self.capital
        for b in w:
            v *= (1 - self.f + self.f / self.p) if b == "0" else 1 - self.f
        return v


def test_regularize_approx_tracks_exact_past_capital_one():
    # the bettors keep staking after their rebalanced capital is pinned at 1
    rng = random.Random(61)
    for nu in (biased(Dyadic(1, 2)), biased(Dyadic(3, 3)), uniform()):
        p = nu.conditional("", "0")
        for _ in range(6):
            f = rng.choice([Fraction(1, 8), Fraction(1, 2), Fraction(3, 4)])
            lam = regularize(FixedFractionBettor(f, Fraction(1, 4), p, nu), nu)
            n = rng.randrange(20, 50)
            w = "".join(rng.choice("0001") for _ in range(n))
            r = rng.randrange(2, 20)
            got = lam.approx(r, w).to_fraction()
            assert abs(got - lam.value(w)) <= Fraction(1, 2 ** r), (f, w, r)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_dump_load_roundtrip():
    d = table_d(COVER_FIXTURE, 2)
    text = dump_martingale(d, "uniform")
    back = load_martingale(text)
    assert back.depth == 2
    assert back.measure_spec == "uniform"
    for w in COVER_FIXTURE:
        assert back.table[w] == d.table[w]
    assert dump_martingale(back, "uniform") == text


def test_load_biased_spec():
    text = ("martingale measure=biased:3/4 depth=1\n"
            "~ 1 0\n"
            "0 1 1\n"
            "1 5 1\n")
    d = load_martingale(text)
    # identity at the root: 1 = (3/4)(1/2) + (1/4)(5/2)
    assert d.measure.mass("0") == Dyadic(3, 2)
    assert d.value("1") == Fraction(5, 2)


def test_load_rejects_identity_violation():
    text = ("martingale measure=uniform depth=1\n"
            "~ 1 0\n"
            "0 1 0\n"
            "1 3 1\n")
    with pytest.raises(DomainError) as e:
        load_martingale(text)
    assert "identity" in str(e.value)
    # but loads with validation off, and the violation is locatable
    d = load_martingale(text, validate=False)
    assert d.first_identity_violation() == ""


def test_load_parse_errors():
    with pytest.raises(ParseError):
        load_martingale("")
    with pytest.raises(ParseError):
        load_martingale("martingale depth=1\n~ 1 0\n")
    with pytest.raises(ParseError):
        load_martingale("martingale measure=nowhere.ms depth=0\n~ 1 0\n")
    with pytest.raises(ParseError):
        load_martingale("martingale measure=uniform depth=0\n~ 1 0 7\n")


def test_random_tables_validate():
    rng = random.Random(53)
    cond = random_conditionals(rng, 4)
    nu = build_measure(cond, 4)
    table = random_martingale_table(rng, cond, 4)
    d = TableMartingale(table, 4, nu)   # validates on construction
    assert d.first_identity_violation() is None
