"""Martingales: tables, sums, covers/regularity, regularization, file IO."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cantorbet.core import (
    Dyadic, ZERO, ONE, frac_round_at, ntob, strings_of_length,
    strings_shorter_than,
)
from cantorbet.errors import DomainError, MeasureMismatchError, ParseError
from cantorbet.measure import (
    PositivityWitness, ProbabilityMeasure, uniform, biased, dump_measure,
    load_measure,
)
from cantorbet.martingale import (
    Martingale, SumMartingale, TableMartingale, unit, covers, is_regular,
    regularize, RegularizedMartingale, _weight,
    max_capital, load_martingale, dump_martingale,
)
from cantorbet.realfun import ceil_log2, robin_hood_exact, weight_bits
from cantorbet.splitting import (
    LimitMeasurement, SliceMartingale, cylinder,
)

from helpers import (
    random_conditionals, build_measure, random_martingale_table,
    build_table_martingale, ProbeCountingMemo,
)
from test_approx import _measure, _split_conditionals, _word


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


class UpwardGrid(Martingale):
    """A constant whose grid answers err upward by just under 2**-q where
    its value sits just above the 2**-q grid: the largest answers the
    approx contract allows."""

    def __init__(self, v):
        self.v = v

    def value(self, w):
        return self.v

    def _grid(self, q, w):
        return (self.v.numerator << q) // self.v.denominator + 1


@pytest.mark.parametrize("n", range(1, 10))
def test_sum_approx_holds_when_every_term_errs_upward(n):
    # Each term is 2**-80 above a point a/2**j, so at every q >= j its grid
    # answer errs by just under 2**-q, all n in the same direction; the last
    # term puts the sum of their answers at 2**-j on a half-up rounding
    # midpoint of the 2**-r grid.
    rng = random.Random(n)
    for r in range(12):
        for j in range(r, r + 6):
            a = [rng.randrange(1 << 12) for _ in range(n)]
            k = j - r
            if k:
                a[-1] += ((1 << (k - 1)) - sum(a) - n) % (1 << k)
            s = SumMartingale(*(UpwardGrid(Fraction(m, 2 ** j)
                                           + Fraction(1, 2 ** 80))
                                for m in a))
            got = s.approx(r, "")
            assert abs(got.to_fraction() - s.value("")) <= \
                Fraction(1, 2 ** r), (r, j, a)


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


def test_max_capital_is_the_largest_value_along_the_prefix():
    # max_capital compares the prefixes' pairs on integers; its answer is
    # the max over their values as Fractions, on tables, regularizations
    # and sums of both
    rng = random.Random(61)
    for kind in ["Table", "Sum", "Slice", "LimitPlus"] * 4:
        base, nu = _regularization_base(kind, rng)
        for d in (base, regularize(base, nu), SumMartingale(base, unit(nu))):
            for n in (0, 1, 5, 30):
                w = _word(rng, n)
                got = max_capital(d, w)
                assert type(got) is Fraction
                assert got == max(d.value(w[:i]) for i in range(n + 1)), \
                    (kind, w)


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
        p = nu.mass("0").to_fraction()
        for _ in range(6):
            f = rng.choice([Fraction(1, 8), Fraction(1, 2), Fraction(3, 4)])
            lam = regularize(FixedFractionBettor(f, Fraction(1, 4), p, nu), nu)
            n = rng.randrange(20, 50)
            w = "".join(rng.choice("0001") for _ in range(n))
            r = rng.randrange(2, 20)
            got = lam.approx(r, w).to_fraction()
            assert abs(got - lam.value(w)) <= Fraction(1, 2 ** r), (f, w, r)


class GridPair(Martingale):
    """A base whose grid answers at the root's children are a chosen pair
    of mantissas, so that the root's fork at (cur, dp) = (0, 0) hands
    exactly (g0, g1) / 2**q to the transfer."""

    def __init__(self, g0, g1):
        self.grid = {"": 0, "0": g0, "1": g1}

    def value(self, w):
        return Fraction(0)

    def _grid(self, r, w):
        return self.grid[w]


def grid_transfer(A, B, g0, g1, q):
    """The finite-precision route's transfer on integer mantissas."""
    lam = RegularizedMartingale(GridPair(g0, g1), uniform())
    (m0, _), (m1, _) = lam._fork(q, "", 0, 0, (A, B))
    return Dyadic(m0, q), Dyadic(m1, q)


def fraction_transfer(A, B, g0, g1, q):
    """The same transfer on Fractions: the clamp, `robin_hood_exact` and
    `frac_round_at`, as the route computed it before integer mantissas."""
    a, one = Fraction(A, B), 1 << q
    s, t = Fraction(g0, one), Fraction(g1, one)
    if (s < 0 or t < 0) and a * s + (1 - a) * t < 1:
        c0, c1 = max(s, Fraction(0)), max(t, Fraction(0))
        s, t = (c0, c1) if a * c0 + (1 - a) * c1 < 1 else (1, 1)
    return tuple(frac_round_at(v, q) for v in robin_hood_exact(a, s, t))


def _transfer_cases(rng):
    """Seeded (A, B, g0, g1, q), each with the region of the plane it tests.

    The weights are split weights of masses at different precisions, so
    (A, B) is often unreduced."""
    cases = []
    # slopes that are powers of two: weights 1/2, 1/4 and 3/4, unreduced
    edges = [(Dyadic(3, 2), Dyadic(3, 3)), (Dyadic(5, 1), Dyadic(5, 3)),
             (Dyadic(1, 0), Dyadic(3, 2))]
    for j in range(400):
        q = rng.randrange(1, 80)
        mp = Dyadic(rng.randrange(1, 1 << 12), rng.randrange(0, 30))
        m0 = Dyadic(rng.randrange(1, 1 << 12), rng.randrange(0, 30))
        if m0 >= mp:
            mp, m0 = m0 + mp, mp
        if j % 8 == 0:
            mp, m0 = edges[j // 8 % len(edges)]
        A, B = _weight(mp, m0)
        one = 1 << q
        inner = rng.randrange(one + 1)
        for g0, g1 in [(0, 0), (0, one), (one, 0), (one, one),
                       (0, inner), (inner, one), (one, inner), (inner, 0)]:
            cases.append(("square edge", A, B, g0, g1, q))
        # the mean is exactly 1 on the line A*g0 + (B-A)*g1 = B*one; far
        # enough along it one coordinate is negative, and the clamp
        # leaves the pair, which is in the half-plane
        k = rng.randrange(1, 4 * one + 2)
        cases.append(("mean one", A, B, one + (B - A) * k, one - A * k, q))
        cases.append(("mean one", A, B, one - (B - A) * k, one + A * k, q))
        # a negative coordinate with the mean below 1: the clamp lifts it
        # to 0, or where that lifts the mean to 1, raises the pair to (1, 1)
        g0, g1 = -rng.randrange(1, 4 * one), rng.randrange(0, one + 1)
        cases.append(("lifted", A, B, g0, g1, q))
        cases.append(("lifted", A, B, g1, g0, q))
        g1 = -(-B * one // (B - A)) + rng.randrange(0, one)
        g0 = (B * one - (B - A) * g1) // A - rng.randrange(1, one + 1)
        cases.append(("raised", A, B, g0, g1, q))
        # a negative coordinate with the mean above 1: the clamp leaves it
        g0 = -rng.randrange(1, 4 * one)
        g1 = (B * one - A * g0) // (B - A) + rng.randrange(1, 3 * one)
        cases.append(("left", A, B, g0, g1, q))
        g1 = -rng.randrange(1, 4 * one)
        g0 = (B * one - (B - A) * g1) // A + rng.randrange(1, 3 * one)
        cases.append(("left", A, B, g0, g1, q))
        g0, g1 = (rng.randrange(-one, 3 * one) for _ in range(2))
        cases.append(("anywhere", A, B, g0, g1, q))
    return cases


def test_integer_transfer_matches_the_fraction_transfer():
    seen, unreduced = {}, 0
    for region, A, B, g0, g1, q in _transfer_cases(random.Random(67)):
        got = grid_transfer(A, B, g0, g1, q)
        want = fraction_transfer(A, B, g0, g1, q)
        assert [(d.mantissa, d.precision) for d in got] == \
            [(d.mantissa, d.precision) for d in want], (A, B, g0, g1, q)
        a = Fraction(A, B)
        assert weight_bits(A, B) == ceil_log2(1 / min(a, 1 - a)), (A, B)
        if region == "left":
            assert min(g0, g1) < 0 <= A * g0 + (B - A) * g1 - B * (1 << q)
        if region in ("lifted", "raised"):
            assert min(g0, g1) < 0 and A * g0 + (B - A) * g1 < B * (1 << q)
        if region == "raised":
            assert got == (Dyadic(1), Dyadic(1))
        seen[region] = seen.get(region, 0) + 1
        unreduced += Fraction(A, B).denominator != B
    assert seen == {"square edge": 3200, "mean one": 800, "lifted": 800,
                    "raised": 400, "left": 800, "anywhere": 400}
    assert unreduced > 1000


def _breaking_table(top):
    # biased:3/4, with value 4 at "1" where the identity asks for 2: the
    # root's transfer gives both children 1, so at "1" the pair handed to
    # the transfer is (-3, top - 4) at the weight 3/4
    return load_martingale("martingale measure=biased:3/4 depth=2\n"
                           "~ 1 1\n0 0 0\n1 4 0\n00 0 0\n01 0 0\n"
                           f"10 0 0\n11 {top} 0\n", validate=False)


def test_exact_route_domain_test_fires_below_a_broken_table():
    d = _breaking_table(15)       # mean 3/4 with a negative coordinate
    lam = regularize(d, d.measure)
    assert [lam.value(w) for w in ("", "0", "1", "01")] == \
        [Fraction(1, 2), 1, 1, 1]
    for w in ("10", "11", "110"):
        with pytest.raises(DomainError) as e:
            lam.value(w)
        assert str(e.value) == "(-3, 12) outside the transfer domain for 3/4"
    assert sorted(lam._memo) == ["", "0", "00", "01", "1"]
    # mean exactly 1 with a negative coordinate lies in the domain
    d = _breaking_table(16)
    lam = regularize(d, d.measure)
    assert [lam.value(w) for w in ("10", "11", "110")] == [1, 1, 1]


def _reference_value(base, nu, w):
    """The regularized value at w on Fractions, root down: a degenerate
    split copies the parent's value; otherwise the pair
    (v - base(u) + base(u0), v - base(u) + base(u1)) goes through the
    transfer's four cases as `robin_hood_exact` states them."""
    v = Fraction(base.value(""))
    for i, b in enumerate(w):
        u = w[:i]
        mp, m0 = nu.mass(u).to_fraction(), nu.mass(u + "0").to_fraction()
        if m0 == 0 or m0 == mp:     # a null node has m0 == 0 too
            continue
        a = m0 / mp
        s = v - base.value(u) + base.value(u + "0")
        t = v - base.value(u) + base.value(u + "1")
        mean = a * s + (1 - a) * t
        assert (s >= 0 and t >= 0) or mean >= 1   # the transfer's domain
        if 0 <= s <= 1 and 0 <= t <= 1:
            pair = s, t
        elif mean >= 1:
            pair = mean, mean
        elif s >= 1:
            pair = Fraction(1), (mean - a) / (1 - a)
        else:
            assert t >= 1
            pair = (mean - (1 - a)) / a, Fraction(1)
        v = pair[int(b)]
    return v


def _copy_rule_measure(rng):
    """A measure file with the copy rule below a table of depth 1-3 whose
    splits are sometimes 0 or 1, so it has null and degenerate splits at
    every depth; every conditional is on the 2**-3 grid, so the witness
    l(n) = 3n holds."""
    depth = rng.randrange(1, 4)
    cond = random_conditionals(rng, depth, precision=3, zeros=True)
    nu = ProbabilityMeasure(build_measure(cond, depth).table, depth,
                            ("copy",), PositivityWitness(0, 3))
    return load_measure(dump_measure(nu)), cond, depth


def _regularization_base(kind, rng):
    """A base of the given kind over one of the measures, and the measure:
    its table bets up to 6 levels below the measure's table."""
    if rng.randrange(4):
        nu, cond, depth = _measure(rng)
    else:
        nu, cond, depth = _copy_rule_measure(rng)
    depth = nu.depth + rng.randrange(7)
    split_cond = _split_conditionals(nu, cond, depth)

    def table():
        return TableMartingale(random_martingale_table(rng, split_cond, depth),
                               depth, nu)

    if kind == "Table":
        return table(), nu
    if kind == "Sum":
        return SumMartingale(table(), RegularizedMartingale(table(), nu)), nu
    if kind == "Slice":
        w = _word(rng, rng.randrange(depth + 2))
        return SliceMartingale(w, nu, RegularizedMartingale(table(), nu),
                               nu.mass(w)), nu
    assert kind == "LimitPlus"
    stages = [cylinder(_word(rng, rng.randrange(4)), nu)
              for _ in range(rng.randrange(1, 4))]
    return LimitMeasurement(stages).plus(table()), nu


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["Table", "Sum", "Slice", "LimitPlus"]),
       seed=st.integers(0, 2 ** 32 - 1),
       words=st.lists(st.text(alphabet="01", max_size=12), min_size=1,
                      max_size=4))
def test_exact_route_matches_a_fraction_reference(kind, seed, words):
    base, nu = _regularization_base(kind, random.Random(seed))
    lam = regularize(base, nu)
    for w in words:
        got, want = lam.value(w), _reference_value(base, nu, w)
        assert type(got) is Fraction and got == want, (w, got, want)
    for n, d in lam._memo.values():
        assert type(n) is int and type(d) is int
        assert d > 0 and gcd(n, d) == 1


def test_exact_route_makes_no_fraction_arithmetic(monkeypatch):
    # A table base answers with integer pairs, so every Fraction operation
    # counted here would be the route's own, or a slice's or difference's.
    rng = random.Random(23)
    p = Dyadic(3, 3)
    cond = {format(i, f"0{n}b") if n else "": p
            for n in range(8) for i in range(1 << n)}
    nu = biased(p)
    # halved to start below 1, so the path reaches 1 through a split that
    # gives an excess away: an output off the dyadic grid
    table = {w: v * Dyadic(1, 1) for w, v in
             random_martingale_table(rng, cond, 8).items()}
    base = TableMartingale(table, 8, nu)
    counts = {}
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        def counted(x, y, op=getattr(Fraction, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return op(x, y)
        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 3) + Fraction(1, 3) == Fraction(2, 3)
    assert counts == {"__add__": 1}
    counts.clear()
    lam = regularize(base, nu)
    w = _word(rng, 40)
    got = lam.value(w)
    assert counts == {}, counts
    assert len(lam._memo) == 81 and type(got) is Fraction
    assert (1, 1) in lam._memo.values()
    assert any(d & (d - 1) for _, d in lam._memo.values())
    # set measurement: both halves of a positive cylinder's split, read on
    # the way down to the cylinder, inside it and beside it
    plus, minus = cylinder("011", nu).split(base)
    words = ["", "0", "01", "011", "0110", "01101", "1", "010", "11"]
    halves = [(plus.value(v), minus.value(v)) for v in words]
    assert is_regular(lam, 6)
    assert counts == {}, counts
    monkeypatch.undo()
    assert got == _reference_value(base, nu, w)
    assert [p + m for p, m in halves] == [lam.value(v) for v in words]
    assert [p for p, _ in halves[6:]] == [0, 0, 0]


def test_interleaved_queries_match_a_fresh_regularization():
    # One long-lived regularization answers pair, value, approx and
    # is_regular queries in random order, so its exact memo, its carried
    # masses and its path cursor are reused across routes; every answer is
    # a fresh object's, and every carried mass is the closed form's.
    rng = random.Random(89)
    for kind in ["Table", "Sum", "Slice", "LimitPlus"] * 3:
        base, nu = _regularization_base(kind, rng)
        lam = regularize(base, nu)
        for _ in range(30):
            query = rng.choice(["pair", "value", "approx", "is_regular"])
            depth, r = rng.randrange(7), rng.randrange(24)
            w = _word(rng, rng.randrange(40))

            def ask(d):
                if query == "is_regular":
                    return is_regular(d, depth)
                if query == "approx":
                    a = d.approx(r, w)
                    return a.mantissa, a.precision
                return getattr(d, query)(w)

            assert ask(lam) == ask(regularize(base, nu)), (kind, query, w)
        assert lam._mass.keys() == lam._memo.keys()
        for w, m in lam._mass.items():
            want = nu.mass(w)
            assert (m.mantissa, m.precision) == \
                (want.mantissa, want.precision), (kind, w)


class PairCountingMartingale(Martingale):
    """Delegates to another martingale, counting its `_pair` calls."""

    def __init__(self, inner: Martingale):
        self.inner = inner
        self.measure = inner.measure
        self.calls = 0

    def _pair(self, w: str) -> tuple[int, int]:
        self.calls += 1
        return self.inner._pair(w)


def test_exact_route_asks_the_base_twice_per_node():
    # Each step asks the base for both children and keeps their pairs, so
    # a child's own step reads its pair back: a fresh regularization's
    # value at an n-bit word asks the base for the root and then for two
    # children per level, on measures whose splits are all nondegenerate.
    rng = random.Random(71)
    half, p = Dyadic(1, 1), Dyadic(3, 3)
    drawn = random_conditionals(rng, 4)
    for nu, cond, depth in [
            (uniform(), dict.fromkeys(strings_shorter_than(6), half), 6),
            (biased(p), dict.fromkeys(strings_shorter_than(6), p), 6),
            (build_measure(drawn, 4), drawn, 4)]:
        for n in (0, 1, 5, 20, 60):
            table = random_martingale_table(rng, cond, depth)
            base = PairCountingMartingale(TableMartingale(table, depth, nu))
            w = _word(rng, n)
            got = regularize(base, nu).value(w)
            assert base.calls == 1 + 2 * n, (n, base.calls)
            assert got == _reference_value(base.inner, nu, w)


def test_a_query_below_the_memo_fills_from_the_deepest_memoized_prefix():
    # A word k bits below the memo costs k `_children` steps, from its
    # deepest memoized prefix down, and k + 1 probes of the memo: one bit
    # below costs one step and two probes, whatever the word's length.
    rng = random.Random(79)
    for kind in ["Table", "Sum", "Slice", "LimitPlus"] * 2:
        base, nu = _regularization_base(kind, rng)
        lam = regularize(base, nu)
        steps = []
        children = lam._children
        lam._children = lambda w: (steps.append(w), children(w))
        x = _word(rng, rng.randrange(20, 40))
        lam.value(x)
        lam._memo = memo = ProbeCountingMemo(lam._memo)
        for k in (1, 1, 2, 7):
            w = x + _word(rng, k)
            del steps[:]
            memo.probes = 0
            got = lam.pair(w)
            assert steps == [w[:i] for i in range(len(x), len(w))], (kind, k)
            assert memo.probes == k + 1, (kind, k, memo.probes)
            assert got == regularize(base, nu).pair(w), (kind, w)
            x = w
        # the sibling was filled with w: one probe, no step
        del steps[:]
        memo.probes = 0
        lam.pair(x[:-1] + "10"[int(x[-1])])
        assert steps == [] and memo.probes == 1


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


def seeded_tables(rng: random.Random):
    """(table, depth, nu, valid): tables over measures with degenerate
    splits and null subtrees, tables that run below their measure's table
    (under the half and copy rules, and under all-or-nothing coins), and
    copies with one entry changed.  valid is None where unknown."""
    for _ in range(10):
        depth = rng.randrange(6)
        cond = random_conditionals(rng, depth, precision=4, zeros=True)
        table = random_martingale_table(rng, cond, depth)
        nu = build_measure(cond, depth)
        yield table, depth, nu, True
        k = rng.randrange(1, depth + 1) if depth else 0
        yield table, depth, build_measure(cond, k), None
        if k:
            # below depth k, the copy rule repeats the split above depth k
            copied = {w: cond[w if len(w) < k else w[:k - 1]] for w in cond}
            copy_nu = ProbabilityMeasure(build_measure(cond, k).table, k,
                                         ("copy",))
            yield random_martingale_table(rng, copied, depth), depth, \
                copy_nu, True
        w = ntob(rng.randrange((1 << (depth + 1)) - 1))
        changed = dict(table)
        changed[w] = table[w] + Dyadic(1, rng.randrange(8))
        yield changed, depth, nu, None
    for c in (ZERO, ONE):
        cond = {w: c for n in range(4) for w in strings_of_length(n)}
        nu = ProbabilityMeasure({"": ONE}, 0, ("const", c))
        yield random_martingale_table(rng, cond, 4), 4, nu, True


def per_node_violation(d: TableMartingale, depth: int) -> str | None:
    """The first node breaking the identity, with three `mass` calls."""
    nu = d.measure
    for n in range(min(depth, d.depth)):
        for w in strings_of_length(n):
            capital = [d.table[x].to_fraction() * nu.mass(x).to_fraction()
                       for x in (w, w + "0", w + "1")]
            if capital[0] != capital[1] + capital[2]:
                return w
    return None


def test_random_tables_validate():
    for table, depth, nu, valid in seeded_tables(random.Random(53)):
        if valid:
            d = TableMartingale(table, depth, nu)   # validates on construction
            assert d.first_identity_violation() is None


def test_first_identity_violation_matches_the_per_node_check():
    found = set()
    for table, depth, nu, _ in seeded_tables(random.Random(71)):
        d = TableMartingale(table, depth, nu, validate=False)
        for limit in range(depth + 2):
            want = per_node_violation(d, limit)
            assert d.first_identity_violation(limit) == want, (depth, limit)
            found.add(want is None)
        assert d.first_identity_violation() == per_node_violation(d, depth)
        with pytest.raises(DomainError):
            d.first_identity_violation(-1)
    assert found == {True, False}
