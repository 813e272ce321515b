"""Dyadic arithmetic, enumeration, smash, and the growth hierarchy."""

from __future__ import annotations

import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cantorbet import config
from cantorbet.core import (
    Dyadic, ZERO, ONE, HALF, parse_dyadic, frac_round_at, round_ratio,
    shift_round,
    bton, ntob, succ, pred, growth, strings_of_length, read_word,
    show_word, read_natural, read_sexpr, strings_shorter_than, check_table,
)
from cantorbet.config import MAX_NESTING
from cantorbet.errors import DomainError, ParseError, ResourceError
from cantorbet.funalg import Smash

from helpers import bton_oracle, normalized, random_dyadic

dyadics = st.builds(Dyadic,
                    st.integers(min_value=-(1 << 24), max_value=1 << 24),
                    st.integers(min_value=0, max_value=20))
bitstrings = st.text(alphabet="01", max_size=14)


# ---------------------------------------------------------------------------
# Dyadic representation and arithmetic
# ---------------------------------------------------------------------------

def test_normalization():
    assert (Dyadic(6, 3).mantissa, Dyadic(6, 3).precision) == (3, 2)
    assert (Dyadic(0, 5).mantissa, Dyadic(0, 5).precision) == (0, 0)
    assert (Dyadic(-8, 2).mantissa, Dyadic(-8, 2).precision) == (-2, 0)
    assert (Dyadic(12, 1).mantissa, Dyadic(12, 1).precision) == (6, 0)


def test_arith_examples():
    assert Dyadic(3, 2) + Dyadic(1, 1) == Dyadic(5, 2)
    assert Dyadic(5, 3) - Dyadic(1, 1) == Dyadic(1, 3)
    assert Dyadic(3, 1) * Dyadic(3, 1) == Dyadic(9, 2)
    assert Dyadic(5, 3) > Dyadic(1, 1)
    assert Dyadic(1, 1) == Dyadic(2, 2)
    assert ZERO < HALF
    assert min(Dyadic(3, 2), ONE) == Dyadic(3, 2)
    assert max(Dyadic(3, 2), ONE) == ONE


def test_negative_precision_rejected():
    with pytest.raises(DomainError):
        Dyadic(1, -1)


@given(dyadics)
def test_normalized_invariant(d):
    assert d.precision >= 0
    if d.mantissa == 0:
        assert d.precision == 0
    elif d.precision > 0:
        assert d.mantissa % 2 == 1


@given(dyadics, dyadics, st.integers(min_value=0, max_value=24),
       st.integers(min_value=0, max_value=8))
def test_every_result_is_normalized(a, b, r, k):
    m, p = a.mantissa << k, a.precision + k     # a, written unnormalized
    results = [a + b, a - b, a * b, -a, abs(a), a + 3, 3 - a, a * 4,
               a.round_at(r), Dyadic.from_fraction(a.to_fraction()),
               Dyadic.from_fraction(m), parse_dyadic(f"{m}/2^{p}"),
               parse_dyadic(f"{m}/{1 << p}"), parse_dyadic(str(m))]
    for d in results:
        assert normalized(d), (d.mantissa, d.precision)


_OPERATORS = [operator.add, operator.sub, operator.mul, operator.eq,
              operator.lt, operator.le, operator.gt, operator.ge]


@given(dyadics, dyadics, st.integers(min_value=-(1 << 20), max_value=1 << 20))
def test_arith_matches_fractions(a, b, k):
    # Dyadic and int operands, on either side: every result is Fraction
    # arithmetic's, and every Dyadic result is normalized.
    fa, fb = a.to_fraction(), b.to_fraction()
    for op in _OPERATORS:
        for x, y, want in [(a, b, op(fa, fb)), (a, k, op(fa, k)),
                           (k, a, op(k, fa)), (a, a, op(fa, fa))]:
            got = op(x, y)
            if isinstance(want, bool):
                assert got is want, (op, x, y)
            else:
                assert normalized(got), (op, x, y, got.mantissa,
                                         got.precision)
                assert got.to_fraction() == want, (op, x, y)


def test_product_fields_are_normalized():
    # a product of normalized factors is normalized already when its
    # mantissa is odd or its precision 0; otherwise its twos are stripped
    for a, b, fields in [(Dyadic(2), Dyadic(1, 1), (1, 0)),
                         (Dyadic(0), Dyadic(3, 2), (0, 0)),
                         (Dyadic(6), Dyadic(3, 1), (9, 0)),
                         (Dyadic(4), Dyadic(3, 3), (3, 1)),
                         (Dyadic(3, 1), Dyadic(5, 2), (15, 3)),
                         (Dyadic(-6), Dyadic(5), (-30, 0)),
                         (Dyadic(1, 1), 6, (3, 0)), (6, Dyadic(1, 2), (3, 1))]:
        got = a * b
        assert (got.mantissa, got.precision) == fields, (a, b)


def test_sum_and_difference_fields_are_normalized():
    # operands at two precisions give an odd mantissa at the finer one and
    # integers an integer, both normalized already; at one precision
    # above 0 the twos of the sum or difference are stripped
    for got, fields in [(Dyadic(1, 1) + Dyadic(1, 1), (1, 0)),
                        (Dyadic(3, 2) - Dyadic(1, 2), (1, 1)),
                        (Dyadic(1, 1) + Dyadic(1, 2), (3, 2)),
                        (Dyadic(1, 2) - Dyadic(1, 1), (-1, 2)),
                        (Dyadic(5) - 5, (0, 0)), (Dyadic(5) + 3, (8, 0)),
                        (2 - Dyadic(3, 1), (1, 1)), (-Dyadic(3, 2), (-3, 2)),
                        (abs(Dyadic(-3, 2)), (3, 2)), (-Dyadic(0), (0, 0))]:
        assert (got.mantissa, got.precision) == fields


def test_foreign_operands_are_not_implemented():
    a = Dyadic(3, 1)
    for other in (Fraction(1, 3), Fraction(1, 2), 0.5, 2.0):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__eq__", "__lt__", "__le__", "__gt__",
                     "__ge__"):
            assert getattr(a, name)(other) is NotImplemented, (name, other)


def test_dyadic_has_no_division():
    # a quotient of dyadics need not be dyadic: Dyadic stays on the grid
    for a, b in [(ONE, ONE), (HALF, Dyadic(3)), (ONE, 3), (3, HALF),
                 (HALF, Fraction(1, 2)), (Fraction(1, 2), HALF), (HALF, 0.5),
                 (0.5, HALF)]:
        with pytest.raises(TypeError):
            a / b


@given(dyadics)
def test_fraction_roundtrip(d):
    assert Dyadic.from_fraction(d.to_fraction()) == d


def test_from_fraction_rejects_non_dyadic():
    with pytest.raises(DomainError):
        Dyadic.from_fraction(Fraction(1, 3))


# ---------------------------------------------------------------------------
# canonical rounding
# ---------------------------------------------------------------------------

def test_round_examples():
    assert Dyadic(3, 3).round_at(2) == Dyadic(1, 1)           # 3/8 -> 1/2
    assert Dyadic(3, 3).round_at(2).mantissa_at(2) == 2
    assert Dyadic(1, 3).round_at(2) == Dyadic(1, 2)           # 1/8 -> 1/4 (half up)
    assert Dyadic(-3, 3).round_at(2) == Dyadic(-1, 2)         # -3/8 -> -1/4
    assert frac_round_at(Fraction(1, 3), 3) == Dyadic(3, 3)   # 0.333 -> 3/8
    assert frac_round_at(Fraction(2, 3), 1) == Dyadic(1, 1)   # 2/3 -> 1/2


def test_round_negative_half_up():
    # -1/3 at r=1: -2/3 + 1/2 = -1/6, floor = -1 -> -1/2
    assert frac_round_at(Fraction(-1, 3), 1) == Dyadic(-1, 1)
    # exactly -1/4 at r=1: -0.5 + 0.5 = 0, floor -> 0
    assert frac_round_at(Fraction(-1, 4), 1) == ZERO
    # exactly +1/4 at r=1: 0.5 + 0.5 = 1 -> 1/2 (ties toward +inf)
    assert frac_round_at(Fraction(1, 4), 1) == HALF


def test_frac_round_rejects_a_negative_precision():
    # the same error as Dyadic.round_at, not a negative shift count
    for q in (Fraction(1, 3), Fraction(-5, 2), 7):
        with pytest.raises(DomainError) as e:
            frac_round_at(q, -2)
        assert str(e.value) == "rounding precision must be >= 0"
    with pytest.raises(DomainError) as e:
        Dyadic(1, 3).round_at(-2)
    assert str(e.value) == "rounding precision must be >= 0"


@given(dyadics, st.integers(min_value=0, max_value=12))
def test_round_error_bound(d, r):
    err = abs(d.round_at(r).to_fraction() - d.to_fraction())
    assert err <= Fraction(1, 2 ** (r + 1))
    assert d.round_at(r).precision <= r


@given(dyadics, dyadics, st.integers(min_value=0, max_value=12))
def test_round_monotone(a, b, r):
    if a <= b:
        assert a.round_at(r) <= b.round_at(r)


@given(st.integers(min_value=-1000, max_value=1000),
       st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=10))
def test_round_exact_on_grid(m, p, extra):
    d = Dyadic(m, p)
    assert d.round_at(d.precision + extra) == d


@given(st.fractions(min_value=-100, max_value=100),
       st.integers(min_value=0, max_value=12))
def test_frac_round_error_bound(q, r):
    got = frac_round_at(q, r)
    assert abs(got.to_fraction() - q) <= Fraction(1, 2 ** (r + 1))


def _half_up(q: Fraction) -> int:
    return (q + Fraction(1, 2)).__floor__()


def test_shift_round_against_brute_force():
    # every mantissa near the ties, negative ones included, at shifts
    # k <= 0 (exact: a coarser grid is finer by -k bits) and k > 0
    for k in range(-4, 9):
        for m in range(-300, 301):
            got = shift_round(m, k)
            assert type(got) is int
            assert got == _half_up(Fraction(m) / Fraction(2) ** k), (m, k)


def test_round_ratio_against_brute_force():
    for d in range(1, 40):
        for n in range(-200, 201):
            assert round_ratio(n, d) == _half_up(Fraction(n, d)), (n, d)


@given(st.integers(), st.integers(min_value=1))
def test_round_ratio_on_big_integers(n, d):
    assert round_ratio(n, d) == _half_up(Fraction(n, d))


# ---------------------------------------------------------------------------
# rendering / parsing
# ---------------------------------------------------------------------------

def test_render():
    assert Dyadic(3, 2).render() == "3/2^2"
    assert Dyadic(2, 0).render() == "2"
    assert Dyadic(1, 1).render(6) == "32/2^6"
    assert ZERO.render() == "0"
    assert Dyadic(-5, 3).render() == "-5/2^3"


def test_parse():
    assert parse_dyadic("3/2^2") == Dyadic(3, 2)
    assert parse_dyadic("7") == Dyadic(7, 0)
    assert parse_dyadic("3/4") == Dyadic(3, 2)
    assert parse_dyadic("-1/2^1") == Dyadic(-1, 1)
    with pytest.raises(DomainError):
        parse_dyadic("1/3")
    with pytest.raises(DomainError):
        parse_dyadic("abc")


@given(dyadics)
def test_parse_render_roundtrip(d):
    assert parse_dyadic(d.render()) == d


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_bton_examples():
    assert bton("") == 0
    assert bton("0") == 1
    assert bton("1") == 2
    assert bton("00") == 3
    assert bton("01") == 4
    assert ntob(0) == ""
    assert ntob(4) == "01"
    assert ntob(3) == "00"


def test_succ_pred_examples():
    assert (succ(""), pred("")) == ("0", "")
    assert (succ("1"), pred("1")) == ("00", "0")
    assert (succ("01"), pred("01")) == ("10", "00")


def test_enumeration_against_oracle():
    for n in range(200):
        w = ntob(n)
        assert bton(w) == n
        assert bton_oracle(w) == n


@given(bitstrings)
def test_roundtrip(w):
    assert ntob(bton(w)) == w
    assert bton_oracle(w) == bton(w)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_roundtrip_numeric(n):
    assert bton(ntob(n)) == n


@given(bitstrings)
def test_succ_pred_inverse(w):
    assert pred(succ(w)) == w
    if w:
        assert succ(pred(w)) == w


def test_enumeration_is_length_then_lex():
    seen = [ntob(n) for n in range(31)]
    expected = []
    for length in range(5):
        expected.extend(strings_of_length(length))
    assert seen == expected
    assert list(strings_shorter_than(5)) == expected


def test_a_huge_table_depth_is_never_enumerated_ahead():
    # counting the 2^(10^8) strings ahead would take a 12.5 MB integer;
    # only the lengths reached are ever listed
    tracemalloc.start()
    try:
        first = list(zip(strings_shorter_than(10 ** 8), range(4)))
        with pytest.raises(ParseError, match="missing '0'"):
            check_table({"": ONE}, 10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [("", 0), ("0", 1), ("1", 2), ("00", 3)]
    assert peak < 1 << 20


def test_bton_validates():
    with pytest.raises(DomainError):
        bton("012")
    with pytest.raises(DomainError):
        ntob(-1)


@given(bitstrings)
def test_word_codec_roundtrip(w):
    assert read_word(show_word(w)) == w
    assert show_word(w) == (w or "~")


def test_word_codec_validates():
    with pytest.raises(DomainError, match="not a binary string"):
        read_word("0~")


# ---------------------------------------------------------------------------
# smash: the algebra's own primitive, on two string arguments
# ---------------------------------------------------------------------------

def smash(u: str, v: str) -> str:
    return Smash().evaluate((), (u, v))


def test_smash():
    assert smash("01", "10") == "1111"
    assert smash("", "1101") == ""
    assert smash("111", "") == ""
    assert smash("0", "0") == "1"


@given(bitstrings, bitstrings)
def test_smash_length(u, v):
    assert smash(u, v) == "1" * (len(u) * len(v))


def test_smash_cap(monkeypatch):
    config.set_magnitude_cap(100)
    try:
        with pytest.raises(ResourceError):
            smash("1" * 20, "1" * 20)
        assert smash("1" * 10, "1" * 10) == "1" * 100
    finally:
        config.set_magnitude_cap(None)


# ---------------------------------------------------------------------------
# growth hierarchy
# ---------------------------------------------------------------------------

def test_growth_closed_forms():
    assert growth(0, 5) == 10
    assert growth(0, 0) == 0
    assert growth(1, 3) == 9
    assert growth(1, 0) == 0
    assert growth(1, 1) == 1
    for k in range(7):
        assert growth(2, 2 ** k) == 2 ** (k * k)


def test_growth_level2_values():
    # direct evaluation of the recursion for spot values
    assert growth(2, 3) == 2          # log2 3 -> 1, 1^2 = 1, 2^1
    assert growth(2, 5) == 16         # log2 5 -> 2, 4, 2^4
    assert growth(2, 0) == 1          # log floor at 0 -> 0, 0^2 = 0, 2^0
    assert growth(3, 4) == 4          # 2^{g2(2)} = 2^2


def test_growth_monotone_nondecreasing():
    for i in range(4):
        prev = growth(i, 0)
        for n in range(1, 300):
            cur = growth(i, n)
            assert cur >= prev
            prev = cur


def test_growth_domain_errors():
    with pytest.raises(DomainError):
        growth(-1, 3)
    with pytest.raises(DomainError):
        growth(1, -2)


def test_growth_resource_cap():
    # 2^(2^19)+ squared crosses the default 2^20-bit cap
    n = 1 << ((1 << 19) + 2)
    with pytest.raises(ResourceError):
        growth(1, n)
    with pytest.raises(ResourceError):
        growth(2, 1 << ((1 << 20)
                        // 1))  # log2 -> 2^20, squared overflows the cap fast


def test_growth_high_levels_hit_the_cap():
    # once log2 bottoms out at 0, each level is one more exponential:
    # levels 3 to 7 at n = 2 are 2, 4, 16, 2^16 and 2^(2^16)
    assert [growth(i, 2) for i in range(3, 8)] == [2, 4, 16, 2 ** 16,
                                                   2 ** 2 ** 16]
    for i in (8, 5000, 10 ** 100):
        with pytest.raises(ResourceError):
            growth(i, 2)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv(config.ENV_VAR, "50")
    config.set_magnitude_cap(None)   # drop cache so the env var is re-read
    try:
        assert config.magnitude_cap() == 50
        with pytest.raises(ResourceError):
            smash("1" * 10, "1" * 10)
    finally:
        monkeypatch.delenv(config.ENV_VAR)
        config.set_magnitude_cap(None)


def test_random_dyadic_helper_sane():
    rng = random.Random(7)
    for _ in range(100):
        d = random_dyadic(rng)
        assert isinstance(d, Dyadic)
        assert abs(d.to_fraction()) <= 64


# ---------------------------------------------------------------------------
# s-expressions
# ---------------------------------------------------------------------------

def test_read_sexpr_builds_inner_forms_first():
    built = []

    def build(items):
        built.append(items)
        return len(built)

    assert read_sexpr("(a (b x) (c))", build) == 3
    assert built == [["b", "x"], ["c"], ["a", 1, 2]]


def test_read_sexpr_errors():
    def build(items):
        if items[0] == "bad":
            raise ParseError("bad form")
        return items[0]

    for text in ["", "  ", "x", ")", "(a", "(a))", "(a) (b)", "(a) x"]:
        with pytest.raises(ParseError):
            read_sexpr(text, build)
    with pytest.raises(ParseError, match=r"bad form \(position 3\)"):
        read_sexpr("(a (bad))", build)


def test_read_sexpr_nesting_bound_counts_deep_heads():
    def nest(head, k):
        return f"({head} " * k + "(x)" + ")" * k

    def head(items):
        return items[0]

    assert read_sexpr(nest("d", MAX_NESTING), head, ("d",)) == "d"
    with pytest.raises(ParseError, match="nested deeper"):
        read_sexpr(nest("d", MAX_NESTING + 1), head, ("d",))
    # other heads do not count, and nesting costs no recursion
    assert read_sexpr(nest("e", 100_000), head, ("d",)) == "e"


def test_read_natural():
    assert read_natural("007", "n") == 7
    for tok in ["", "-1", "+1", "1.0", "x", "\u00b2", "\u0663", "1" * 5000]:
        with pytest.raises(ParseError):
            read_natural(tok, "n")
