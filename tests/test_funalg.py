"""Term language: typing, evaluation, metering, recursion bounds,
growth expressions, and algebra-family checkers."""

from __future__ import annotations

import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cantorbet import funalg
from cantorbet.config import MAX_NESTING, set_magnitude_cap
from cantorbet.errors import (
    BoundViolationError, CantorbetError, DomainError, ParseError,
    PreconditionError, ResourceError,
)
from cantorbet.funalg import (
    Ap, Br, BoundReport, Comp, Const, Expand, Lrn, Meter, Oracle, OracleRef,
    Pad, Pred, Proj, S0, S1, Smash, Succ, binary_length_term, check_bound,
    dump_oracle, if_zero_term, length_functional,
    length_term, load_oracle, monus_term, ones_term, parse_secpoly,
    parse_term, closure_construct, restricted_length,
)
from cantorbet.calibration import EVALUATOR_MARGIN, recalibrate
from cantorbet.core import bton, ntob, read_word

from helpers import growth_expressions, growth_reference, terms


IDENT = Oracle(lambda w: w)
DOUBLE = Oracle(lambda w: w + w)
EMPTY = Oracle(lambda w: "")


def random_oracle(rng, radius=4, answer_len=8):
    table = {}
    for n in range(radius):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            if rng.random() < 0.6:
                table[w] = "".join(
                    rng.choice("01") for _ in range(rng.randrange(answer_len)))
    default = "".join(rng.choice("01")
                      for _ in range(rng.randrange(answer_len)))
    return Oracle.from_table(table, default)


# ---------------------------------------------------------------------------
# primitives and signatures
# ---------------------------------------------------------------------------

def test_primitive_values():
    assert Const().evaluate((), ()) == ""
    assert S0().evaluate((), ("1",)) == "10"
    assert S1().evaluate((), ("1",)) == "11"
    assert Succ().evaluate((), ("0",)) == "1"
    assert Pred().evaluate((), ("1",)) == "0"
    assert Smash().evaluate((), ("11", "111")) == "1" * 6
    assert Proj(1).evaluate((), ("0", "1")) == "1"
    assert Ap().evaluate((IDENT,), ("010",)) == "010"


def test_pad_growth():
    assert Pad(0).evaluate((), ("111",)) == "1" * 6
    assert Pad(1).evaluate((), ("111",)) == "1" * 9
    assert Pad(2).evaluate((), ("1111",)) == "1" * 16
    assert Pad(1).evaluate((), ("",)) == ""


def test_pad_respects_magnitude_cap():
    # growth(2, 64) = 2^36 ones would not fit in memory
    with pytest.raises(ResourceError):
        Pad(2).evaluate((), ("1" * 64,))


def test_signatures():
    assert Const().signature == (0, 0)
    assert Smash().signature == (0, 2)
    assert Proj(2).signature == (0, 3)
    assert Proj(0, 4).signature == (0, 4)
    assert Ap().signature == (1, 1)
    assert OracleRef(1).signature == (2, 1)
    assert Expand(Smash(), 2, 1).signature == (2, 3)
    assert ones_term().signature == (0, 1)
    assert length_term().signature == (1, 1)


def test_bad_constructions():
    with pytest.raises(DomainError):
        Proj(3, 2)
    with pytest.raises(DomainError):
        OracleRef(2, 1)
    with pytest.raises(DomainError):
        Pad(-1)
    with pytest.raises(DomainError):
        Expand(Const(), -1, 0)
    with pytest.raises(DomainError):
        Comp(Smash(), (Proj(0),))  # outer wants two strings
    with pytest.raises(DomainError):
        Comp(Smash(), (Proj(0, 1), Proj(0, 2)))  # differing signatures
    with pytest.raises(DomainError):
        Comp(Ap(), (Proj(0),))  # oracle arity mismatch
    with pytest.raises(DomainError):
        Lrn(Const(), S0(), Proj(0))  # step must take two extra strings
    with pytest.raises(DomainError):
        Br(Const(), Smash(), Const())


def test_evaluate_preconditions():
    with pytest.raises(PreconditionError):
        S0().evaluate((), ())
    with pytest.raises(PreconditionError):
        Ap().evaluate((), ("0",))
    with pytest.raises(DomainError):
        S0().evaluate((), ("2",))


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_examples():
    t = parse_term("(s1 (s0 (const)))")
    assert t.evaluate((), ()) == "01"
    t = parse_term("(comp (smash) (proj 0) (proj 0))")
    assert t.evaluate((), ("11",)) == "1111"
    t = parse_term("(smash (proj 0) (proj 0))")
    assert t.evaluate((), ("111",)) == "1" * 9
    t = parse_term("(pad 1)")
    assert t.evaluate((), ("11",)) == "1111"
    t = parse_term("(expand (const) 1 2)")
    assert t.signature == (1, 2)
    t = parse_term("(oracle 1 2)")
    assert t.evaluate((IDENT, DOUBLE), ("01",)) == "0101"


def test_parse_errors():
    for bad in ["", "(", ")", "(boom)", "(s0", "(proj)", "(pad x)",
                "(comp (s0))", "(lrn (const) (const))", "(const) junk",
                "(expand (const) 1)", "(proj 0) (proj 1)"]:
        with pytest.raises(ParseError):
            parse_term(bad)
    with pytest.raises(DomainError):
        parse_term("(lrn (const) (smash) (const))")  # bound arity wrong


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_term("(comp (s0) (boom))")
    assert "position" in str(e.value)


def test_print_parse_round_trip():
    samples = [
        ones_term(), binary_length_term(), monus_term(), if_zero_term(),
        length_term(), Pad(2), Proj(1, 3), OracleRef(0, 2),
        Comp(Smash(), (Proj(0, 2), Proj(1, 2))),
        Expand(Comp(S1(), (Proj(0),)), 1, 1),
    ]
    for t in samples:
        assert parse_term(t.to_sexpr()) == t
        assert parse_term(t.to_sexpr()).to_sexpr() == t.to_sexpr()


# ---------------------------------------------------------------------------
# recursion on notation
# ---------------------------------------------------------------------------

def test_ones_term():
    t = ones_term()
    for w in ["", "0", "10110", "1" * 8]:
        assert t.evaluate((), (w,)) == "1" * len(w)


def test_binary_length_term():
    t = binary_length_term()
    for w in ["", "0", "11", "10110"]:
        assert bton(t.evaluate((), (w,))) == len(w)


def test_lrn_peels_last_bit():
    log = []

    def spy(w):
        log.append(w)
        return ""

    t = Lrn(Expand(Const(), 1, 0),
            Comp(OracleRef(0), (Expand(Proj(0, 2), 1, 0),)),
            Expand(Proj(0), 1, 0))
    t.evaluate((Oracle(spy),), ("0110",))
    assert log == ["0", "01", "011", "0110"]


def test_lrn_bound_violation():
    grow = Lrn(Const(), Comp(S1(), (Proj(1, 2),)), Expand(Const(), 0, 1))
    with pytest.raises(BoundViolationError) as e:
        grow.evaluate((), ("0",))
    assert e.value.schema == "lrn"
    assert e.value.step == "0"
    assert (e.value.got, e.value.allowed) == (1, 0)


def test_lrn_bound_checked_at_base():
    t = Lrn(Comp(S0(), (Const(),)), Comp(S1(), (Proj(1, 2),)),
            Expand(Const(), 0, 1))
    with pytest.raises(BoundViolationError) as e:
        t.evaluate((), ("11",))
    assert e.value.step == ""


def test_lrn_matches_iterative_expansion():
    rng = random.Random(21)
    lift3 = lambda t: Expand(t, 3, 0)
    keep_prev = Comp(lift3(S0()), (Expand(Proj(1, 2), 3, 0),))
    read_stage = Comp(OracleRef(1, 3), (Expand(Proj(0, 2), 3, 0),))
    wide = Comp(lift3(Smash()), (
        Comp(lift3(Pad(0)), (Comp(lift3(S1()), (lift3(Proj(0)),)),)),
        Comp(lift3(Pad(0)), (Comp(lift3(S1()), (lift3(Proj(0)),)),)),
    ))
    base = Comp(OracleRef(0, 3), (Expand(Const(), 3, 0),))
    for _ in range(20):
        fs = tuple(random_oracle(rng, radius=3, answer_len=4)
                   for _ in range(3))
        for step_kind in (0, 1):
            h = keep_prev if step_kind == 0 else read_stage
            term = Lrn(base, h, wide)
            for size in range(7):
                w = "".join(rng.choice("01") for _ in range(size))
                got = term.evaluate(fs, (w,))
                want = fs[0]("")
                for j in range(1, len(w) + 1):
                    want = want + "0" if step_kind == 0 else fs[1](w[:j])
                assert got == want, (step_kind, w)


# ---------------------------------------------------------------------------
# bounded numeric recursion
# ---------------------------------------------------------------------------

def doubling_counter():
    # value(t) = numeral for 2t; bound n11 is numerically 4n + 6
    base = Const()
    step = Comp(Succ(), (Comp(Succ(), (Proj(1, 2),)),))
    bound = Comp(S1(), (Comp(S1(), (Proj(0),)),))
    return Br(base, step, bound)


def test_br_counts_numerically():
    t = doubling_counter()
    for n in range(41):
        assert bton(t.evaluate((), (ntob(n),))) == 2 * n


def test_br_bound_violation():
    t = Br(Const(), Comp(Succ(), (Comp(Succ(), (Proj(1, 2),)),)), Proj(0))
    with pytest.raises(BoundViolationError) as e:
        t.evaluate((), (ntob(3),))
    assert e.value.schema == "br"
    assert e.value.step == 1
    assert (e.value.got, e.value.allowed) == (2, 1)


def test_br_bound_checked_at_base():
    t = Br(Comp(S1(), (Const(),)), Proj(1, 2), Expand(Const(), 0, 1))
    with pytest.raises(BoundViolationError) as e:
        t.evaluate((), ("",))
    assert e.value.step == 0


def test_br_counter_hits_magnitude_cap():
    t = doubling_counter()
    with pytest.raises(ResourceError):
        t.evaluate((), ("1" * 25,))


def test_monus_and_if_zero():
    ms = monus_term()
    for a, b in [(0, 0), (5, 3), (3, 5), (7, 7), (12, 1)]:
        assert bton(ms.evaluate((), (ntob(a), ntob(b)))) == max(a - b, 0)
    iz = if_zero_term()
    assert iz.evaluate((), ("01", "10", "")) == "01"
    assert iz.evaluate((), ("01", "10", ntob(3))) == "10"


# ---------------------------------------------------------------------------
# read analysis, and the bound run once and replayed
# ---------------------------------------------------------------------------

_WORDS = ["", "0", "01", "110", "1011"]
_TABLES = (Oracle.from_table({"": "11", "0": "10110", "01": "1"}, "0"),
           Oracle.from_table({"1": "", "10": "0111"}, "01"))


def _outcome(term, oracles, args, cap=None):
    """What the term's closure gives on these slots: its value, or its
    error's type, text and fields; and its meter."""
    meter = Meter()
    set_magnitude_cap(cap)
    try:
        out = term.compile()(tuple(f.answer for f in oracles), tuple(args),
                             meter)
    except CantorbetError as exc:
        out = (type(exc), exc.args, vars(exc))
    finally:
        set_magnitude_cap(None)
    return out, meter


_compile_lrn = Lrn.compile


def _lrn_in_full(self):
    """An `lrn` closure that runs every call in full: each call compiles
    the term afresh, and a fresh closure has no last call to replay."""
    def lrn(fs, xs, meter):
        return _compile_lrn(self)(fs, xs, meter)
    return lrn


def _per_stage(term, oracles, args, cap=None):
    """The outcome when every `br` runs its bound at every stage and builds
    every stage's numeral, and every `lrn` call runs all its stages: the
    same loops, told that every slot is read and given no last call."""
    with mock.patch.object(funalg, "_reads", lambda term, slot: True), \
            mock.patch.object(Lrn, "compile", _lrn_in_full):
        return _outcome(term, oracles, args, cap)


def test_reads_examples():
    assert Const().reads == frozenset()
    assert Proj(2, 4).reads == {2}
    assert Expand(Smash(), 1, 2).reads == {0, 1}
    # the outer ignores its second inner, which still runs and is charged
    comp = parse_term("(comp (proj 0 2) (proj 0 2) (succ (proj 1 2)))")
    assert comp.reads == {0, 1}
    # the front slots the base, step or bound read, and the recursion slot
    assert monus_term().reads == {0, 1}
    assert parse_term("(br (proj 0 2) (proj 3 4) (proj 0 3))").reads == {0, 2}
    assert parse_term("(lrn (const) (proj 1 2) (proj 0))").reads == {0}


@settings(max_examples=300)
@given(data=st.data())
def test_slots_outside_the_reads_change_nothing(data):
    """Another string in a slot outside a term's reads leaves its value or
    error and its whole meter as they were.  The closure is run directly:
    `evaluate` also counts every argument in max_len, read or not."""
    k, l = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))
    term = parse_term(data.draw(terms(k, l, 4), label="term"))
    xs = data.draw(st.lists(st.sampled_from(_WORDS), min_size=l, max_size=l))
    ys = [x if j in term.reads else data.draw(st.sampled_from(_WORDS))
          for j, x in enumerate(xs)]
    assert _outcome(term, _TABLES[:k], xs, 4096) \
        == _outcome(term, _TABLES[:k], ys, 4096)


@settings(max_examples=200)
@given(data=st.data())
def test_generated_recursions_replay_like_per_stage_runs(data):
    k, l = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    parts = [data.draw(terms(k, m, 3)) for m in (l, l + 2, l + 1)]
    term = parse_term(f"(br {' '.join(parts)})")
    xs = data.draw(st.lists(st.sampled_from(_WORDS), min_size=l + 1,
                            max_size=l + 1))
    assert _outcome(term, _TABLES[:k], xs, 4096) \
        == _per_stage(term, _TABLES[:k], xs, 4096)


def _counting(fn):
    calls = []
    return Oracle(lambda w: calls.append(w) or fn(w)), calls


# (term, args, cap, the outcome's value or error type); each term's bound
# ignores the recursion slot, so it is run once and replayed
_REPLAYED = [
    # the bound queries the oracle: its log entry is replayed
    ("(br (expand (proj 0) 1 0) (expand (pred (proj 2 3)) 1 0)"
     " (comp (oracle 0) (expand (proj 0 2) 1 0)))", ["101", "0110"], None,
     str),
    # the step reads the counter, the bound does not
    ("(br (proj 0) (succ (proj 1 3)) (s1 (proj 0 2)))", ["0", "00"], None,
     str),
    # bounds broken at stage 0 and at stage 4
    ("(br (s1 (proj 0)) (pred (proj 2 3)) (proj 0 2))", ["1", "11"], None,
     BoundViolationError),
    ("(br (proj 0) (succ (proj 2 3)) (s1 (proj 0 2)))", ["0", "11"], None,
     BoundViolationError),
    # the cap tripped inside the bound, at stage 0
    ("(br (proj 0) (proj 2 3) (comp (pad 2) (proj 0 2)))", ["0" * 40, "1"],
     None, ResourceError),
    # ... and inside the step at stage 3, after two replayed stages
    ("(br (proj 0) (comp (pad 1) (proj 2 3))"
     " (comp (pad 1) (comp (pad 1) (proj 0 2))))", ["11", "00"], 64,
     ResourceError),
]


@pytest.mark.parametrize("text, args, cap, want", _REPLAYED)
def test_replayed_bound_matches_the_per_stage_run(text, args, cap, want):
    term = parse_term(text)
    oracle, calls = _counting(lambda w: w + w)
    k = term.signature[0]
    out, meter = _outcome(term, [oracle] * k, args, cap)
    hoisted_queries = len(calls)
    assert (out[0] if isinstance(out, tuple) else type(out)) is want
    assert (out, meter) == _per_stage(term, [oracle] * k, args, cap)
    if k:
        # one query in the hoisted run, one a stage in the per-stage run
        assert hoisted_queries == 1 and len(calls) > 2
        assert len(meter.oracle_log) == len(calls) - 1


# ---------------------------------------------------------------------------
# an `lrn` called again on the read slots of its last call
# ---------------------------------------------------------------------------


_ROOMY = "(pad 1 (pad 0 (s1 (s1 (s1 (const))))))"


@settings(max_examples=200)
@given(data=st.data())
def test_repeated_lrn_calls_replay_like_full_runs(data):
    """A `br` whose step feeds a generated `lrn` a recursion argument that
    repeats from stage to stage: a front slot, or the previous value.  A
    call on the read slots of the last call is replayed, and the value or
    error and the whole meter are those of running every call in full."""
    k, l, m = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)),
               data.draw(st.integers(0, 1)))

    def bound(j):
        # a generated bound, or one of 36 ones that few values break
        return data.draw(st.one_of(
            terms(k, j, 3), st.just(f"(expand {_ROOMY} {k} {j})")))

    lrn = (f"(lrn {data.draw(terms(k, m, 3))} "
           f"{data.draw(terms(k, m + 2, 3))} {bound(m + 1)})")

    def proj(j):
        p = f"(proj {j} {l + 2})"
        return f"(expand {p} {k} 0)" if k else p

    slots = [data.draw(st.integers(0, l + 1)) for _ in range(m)]
    slots.append(data.draw(st.sampled_from([*range(l), l + 1])))
    step = f"(comp {lrn} {' '.join(map(proj, slots))})"
    base = data.draw(terms(k, l, 3))
    term = parse_term(f"(br {base} {step} {bound(l + 1)})")
    xs = data.draw(st.lists(st.sampled_from(_WORDS), min_size=l,
                            max_size=l))
    xs.append(data.draw(st.text("01", max_size=4), label="counter"))
    assert _outcome(term, _TABLES[:k], xs, 4096) \
        == _per_stage(term, _TABLES[:k], xs, 4096)


def test_length_term_replays_repeated_lrn_calls():
    """In `length_term` the `lrn` that measures f(prev) is asked again on
    the same answer whenever the kept index did not move: fewer runs than
    calls, and the value and meter of running every call in full."""
    calls, runs = [], []
    charged = funalg._charged

    def counted_compile(self):
        run = _compile_lrn(self)

        def lrn(fs, xs, meter):
            calls.append(xs)
            return run(fs, xs, meter)
        return lrn

    def counted_charged(run, fs, xs, meter):
        if run.__qualname__ == "Lrn.compile.<locals>.stages":
            runs.append(xs)
        return charged(run, fs, xs, meter)

    f = random_oracle(random.Random(5))
    term = length_term()
    with mock.patch.object(Lrn, "compile", counted_compile), \
            mock.patch.object(funalg, "_charged", counted_charged):
        out, meter = _outcome(term, [f], ["1011"])
    assert 0 < len(runs) < len(calls)
    assert (out, meter) == _per_stage(term, [f], ["1011"])
    assert out == length_functional(f, "1011", "brute")


# ---------------------------------------------------------------------------
# a `br` that counts its previous value down, in closed form
# ---------------------------------------------------------------------------


def test_numeral_lengths_closed_form():
    total = 0
    for m in range(600):
        assert funalg._numeral_lengths(m) == total
        total += len(ntob(m))


@settings(max_examples=300)
@given(data=st.data())
def test_countdowns_match_per_stage_runs(data):
    """A bound that ignores the recursion slot (an expanded term of the
    front slots) and the step `pred` of the previous value: the closed
    form gives the loop's value or error and its whole meter, whether the
    count reaches 0 or stops short of it."""
    k, l = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    base, bound = data.draw(terms(k, l, 3)), data.draw(terms(k, l, 3))
    step = f"(pred (proj {l + 1} {l + 2}))"
    if k:
        step = f"(expand {step} {k} 0)"
    term = parse_term(f"(br {base} {step} (expand {bound} 0 1))")
    front = data.draw(st.lists(st.sampled_from(_WORDS), min_size=l,
                               max_size=l))
    xs = front + [data.draw(st.text("01", max_size=12), label="counter")]
    assert _outcome(term, _TABLES[:k], xs, 2 ** 13) \
        == _per_stage(term, _TABLES[:k], xs, 2 ** 13)


_COUNTDOWNS = [
    "(br (proj 0) (pred (proj 2 3)) (proj 0 2))",
    "(br (expand (proj 0) 1 0) (expand (pred (proj 2 3)) 1 0)"
    " (comp (oracle 0) (expand (proj 0 2) 1 0)))",
    "(br (expand (proj 0) 1 0) (comp (expand (pred) 1 0)"
    " (expand (proj 2 3) 1 0)) (expand (proj 0 2) 1 0))",
]


@pytest.mark.parametrize("text", _COUNTDOWNS)
@pytest.mark.parametrize("a, n", [(9, 2), (9, 5), (9, 9), (5, 9), (0, 3),
                                  (40, 17)])
def test_countdown_runs_no_stage(text, a, n):
    """The closed form is taken: `pred` is never called, where the
    per-stage run calls it once a stage."""
    calls = []

    def counted(w):
        calls.append(w)
        return funalg._predecessor(w)

    term = parse_term(text)
    oracles = [DOUBLE] * term.signature[0]
    with mock.patch.object(Pred, "fn", staticmethod(counted)):
        out, meter = _outcome(term, oracles, [ntob(a), ntob(n)])
        assert calls == []
        assert (out, meter) == _per_stage(term, oracles, [ntob(a), ntob(n)])
    assert len(calls) == n
    assert out == ntob(max(a - n, 0))


def test_countdown_at_scale():
    """A million stages, counted in closed form; the per-stage loop gives
    the same value and meter in over a second."""
    meter = Meter()
    out = monus_term().evaluate((), (ntob(3_000_000), ntob(1_000_000)),
                                meter)
    assert out == ntob(2_000_000)
    assert (meter.steps, meter.max_len) == (67_805_743, 21)


# ---------------------------------------------------------------------------
# the length functional
# ---------------------------------------------------------------------------

def test_length_examples():
    assert length_functional(IDENT, "101") == "111"
    assert length_functional(EMPTY, "101") == ""
    assert length_functional(DOUBLE, "11") == "1111"
    assert length_functional(DOUBLE, "11", "brute") == "1111"
    with pytest.raises(DomainError):
        length_functional(IDENT, "0", "guess")


def test_length_term_matches_brute_force():
    rng = random.Random(77)
    for _ in range(15):
        f = random_oracle(rng)
        for n in (0, 1, 3, 5):
            x = "".join(rng.choice("01") for _ in range(n))
            assert (length_functional(f, x)
                    == length_functional(f, x, "brute")), (f.table, x)


def test_brute_force_respects_cap():
    set_magnitude_cap(256)
    try:
        with pytest.raises(ResourceError):
            length_functional(IDENT, "1" * 10, "brute")
    finally:
        set_magnitude_cap(None)


# ---------------------------------------------------------------------------
# growth expressions
# ---------------------------------------------------------------------------

def test_secpoly_examples():
    assert parse_secpoly("L1(n1) + 3").evaluate([lambda m: 2 * m], [5]) == 13
    assert parse_secpoly("g1(n1)").evaluate([], [4]) == 16
    assert parse_secpoly("L1(L1(n1))").evaluate([lambda m: m + 1], [0]) == 2
    assert parse_secpoly("2 * n1 + n2 * n2").evaluate([], [3, 4]) == 22
    assert parse_secpoly("(n1 + 1) * (n1 + 2)").evaluate([], [2]) == 12


def test_secpoly_unbound():
    # an application checks its index before it evaluates its argument
    for text, nvals, want in [("n2", [5], "n2"), ("L1(3)", [], "L1"),
                              ("L2(n3)", [], "L2"), ("n0", [1], "n0")]:
        with pytest.raises(DomainError) as err:
            parse_secpoly(text).evaluate([], nvals)
        assert str(err.value) == f"unbound variable {want}", text


def test_secpoly_parse_errors():
    deep = MAX_NESTING + 1
    for bad, want in [
        ("", "empty expression"),
        ("   ", "empty expression"),
        ("%", "bad character at position 0"),
        # the position is the bad character's, past the blanks before it
        ("n1 + \u00b2", "bad character at position 5"),
        ("n1 +   %", "bad character at position 7"),
        ("L1(", "unexpected end of expression"),
        ("3 +", "unexpected end of expression"),
        ("(n1", "unexpected end of expression"),
        ("g1 4", "expected '(' at position 3"),
        ("(n1 n2)", "expected ')' at position 4"),
        ("L1(n1 n2)", "expected ')' at position 6"),
        (")(", "unexpected token ')' at position 0"),
        ("+ 1", "unexpected token '+' at position 0"),
        ("3 * )", "unexpected token ')' at position 4"),
        ("n1 n2", "trailing input at position 3"),
        ("n1 )", "trailing input at position 3"),
        ("(" * deep + "n1" + ")" * deep,
         "growth expression nested deeper than 256 groups (position 256)"),
        ("g0(" * deep + "n1" + ")" * deep,
         "growth expression nested deeper than 256 groups (position 768)"),
        ("L\u0663(n1)",
         "index of L must be a natural number, got '\u0663'"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_secpoly(bad)
        assert str(err.value) == want, bad


def test_secpoly_round_trip():
    for text in ["L1(n1) + 3", "g1(n1)", "(n1 + 2) * L1(3)",
                 "g2(L1(n1) * n2 + 1)"]:
        p = parse_secpoly(text)
        assert parse_secpoly(p.to_text()) == p


@pytest.mark.parametrize("text, shown", [
    ("L1(n1) + 3", "L1(n1) + 3"),
    ("((n1))", "n1"),
    ("1 + (2 + 3) + 4", "1 + 2 + 3 + 4"),
    ("(1 + 2) * (3 * (4 + 5))", "(1 + 2) * 3 * (4 + 5)"),
    ("L1((n1 + 1) * (n2 + 2))", "L1((n1 + 1) * (n2 + 2))"),
    ("g0(1 + 1 * g0(n1))", "g0(1 + 1 * g0(n1))"),
    ("007 +n01*  L02 ( g000(0) )", "7 + n1 * L2(g0(0))"),
])
def test_secpoly_to_text(text, shown):
    assert parse_secpoly(text).to_text() == shown


def test_pinned_growth_expressions_round_trip():
    calls = json.loads((Path(__file__).parent / "pinned_terms.json")
                       .read_text())
    texts = {argv[argv.index("--poly") + 1] for argv, *_ in calls
             if "--poly" in argv}
    assert len(texts) > 100
    lengths, nvals = [lambda n: 2 * n + 1, lambda n: n * n], [3, 5]
    for text in sorted(texts):
        p = parse_secpoly(text)
        shown = p.to_text()
        assert parse_secpoly(shown) == p, text
        assert p.evaluate(lengths, nvals) \
            == growth_reference(text, lengths, nvals) \
            == growth_reference(shown, lengths, nvals), text


@settings(max_examples=300)
@given(st.data())
def test_growth_expressions_match_a_python_reading(data):
    k, m = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    text = data.draw(growth_expressions(k, m, 4), label="text")
    lengths = [lambda n, a=a, b=b: a * n + b
               for a, b in data.draw(st.lists(
                   st.tuples(st.integers(0, 3), st.integers(0, 5)),
                   min_size=k, max_size=k))]
    nvals = data.draw(st.lists(st.integers(0, 20), min_size=m, max_size=m))
    p = parse_secpoly(text)
    assert p.evaluate(lengths, nvals) == growth_reference(text, lengths, nvals)
    assert parse_secpoly(p.to_text()) == p


def test_secpoly_chains_are_flat():
    assert parse_secpoly("1 + (2 + 3) + 4") == parse_secpoly("1 + 2 + 3 + 4")
    assert parse_secpoly("(n1 * n2) * 3").to_text() == "n1 * n2 * 3"
    assert parse_secpoly("(n1 + 1) * 2").to_text() == "(n1 + 1) * 2"
    assert parse_secpoly(" + ".join(["n1"] * 5000)).evaluate([], [2]) \
        == 10000


def test_secpoly_monotone_in_lengths():
    rng = random.Random(5)

    def rand_poly(depth):
        pick = rng.randrange(6 if depth else 2)
        if pick == 0:
            return parse_secpoly(str(rng.randrange(4)))
        if pick == 1:
            return parse_secpoly("n1")
        if pick == 2:
            return parse_secpoly(f"L1({rand_poly(depth - 1).to_text()})")
        if pick == 3:
            return parse_secpoly(f"g1({rand_poly(depth - 1).to_text()})")
        a, b = rand_poly(depth - 1), rand_poly(depth - 1)
        op = "+" if pick == 4 else "*"
        return parse_secpoly(f"({a.to_text()}) {op} ({b.to_text()})")

    lo = lambda m: m + 1
    hi = lambda m: 3 * m + 2
    for _ in range(40):
        p = rand_poly(3)
        for n in (0, 2, 5):
            assert p.evaluate([lo], [n]) <= p.evaluate([hi], [n])


# ---------------------------------------------------------------------------
# metering and bound checks
# ---------------------------------------------------------------------------

def test_meter_contents():
    m = Meter()
    Ap().evaluate((DOUBLE,), ("010",), m)
    assert m.oracle_log == [("010", 6)]
    assert m.max_len == 6
    assert m.queried_radius == 3
    assert m.steps == 1 + 6


def test_expansion_costs_nothing_extra():
    base, expanded = Meter(), Meter()
    S0().evaluate((), ("01",), base)
    Expand(S0(), 1, 1).evaluate((IDENT,), ("01", "1111"), expanded)
    assert expanded.steps == base.steps


def test_determinism():
    rng = random.Random(3)
    f = random_oracle(rng)
    m1, m2 = Meter(), Meter()
    a = length_term().evaluate((f,), ("1011",), m1)
    b = length_term().evaluate((f,), ("1011",), m2)
    assert a == b
    assert m1 == m2


def test_check_bound_pad_within():
    poly = parse_secpoly(f"g1(n1) + {EVALUATOR_MARGIN}")
    rep = check_bound(Pad(1), poly, (), ("1" * 6,))
    assert rep.within and rep.within_steps and rep.within_length
    assert rep.result == "1" * 36


def test_check_bound_flags_violation():
    quartic = parse_term(
        "(smash (smash (proj 0) (proj 0)) (smash (proj 0) (proj 0)))")
    poly = parse_secpoly(f"g1(n1) + {EVALUATOR_MARGIN}")
    rep = check_bound(quartic, poly, (), ("1" * 3,))
    assert not rep.within_length and not rep.within_steps
    assert "VIOLATED" in rep.render()


def test_check_bound_length_term_space_only():
    rng = random.Random(11)
    f = random_oracle(rng)
    poly = parse_secpoly(f"g1(L1(n1) + n1 + {EVALUATOR_MARGIN})")
    rep = check_bound(length_term(), poly, (f,), ("1" * 6,))
    assert rep.within_length          # space stays quadratic
    assert not rep.within_steps       # time is exponential, and flagged
    assert rep.radius == 6


def test_restricted_length():
    table = {"": "1", "0": "111", "11": "11111"}
    f = Oracle.from_table(table, "")
    ln = restricted_length(f, 2)
    assert ln(0) == 1
    assert ln(1) == 3
    assert ln(2) == 5
    assert ln(9) == 5  # frozen beyond the radius
    with pytest.raises(DomainError):
        ln(-1)
    with pytest.raises(DomainError):
        restricted_length(f, -1)


def test_restricted_length_refuses_without_building_the_space(monkeypatch):
    """2**(radius+1) > cap exactly when radius + 1 >= cap.bit_length(), so
    a refusal needs no power of two.  A spy on check_magnitude sees every
    size handed to it; at radius 10**6 a built 2**(radius+1) is cheap to
    make and plain to see."""
    sizes = []
    check = funalg.check_magnitude

    def spy(size, what="value"):
        sizes.append(size)
        check(size, what)

    monkeypatch.setattr(funalg, "check_magnitude", spy)
    set_magnitude_cap(64)
    try:
        assert restricted_length(DOUBLE, 5)(5) == 10  # 2**6 is the cap
        for radius in (6, 10 ** 6):
            with pytest.raises(ResourceError):
                restricted_length(DOUBLE, radius)
    finally:
        set_magnitude_cap(None)
    assert all(size.bit_length() <= 64 for size in sizes)


def test_calibration_margin_still_covers():
    measured = recalibrate()
    assert set(measured) == {"pad_steps", "length_space"}
    assert all(v <= EVALUATOR_MARGIN for v in measured.values())


# ---------------------------------------------------------------------------
# algebra families
# ---------------------------------------------------------------------------

def test_family_pad_rules():
    bff = closure_construct("bff", 1)
    assert bff.accepts(Pad(0))
    assert not bff.accepts(Pad(1))
    with pytest.raises(DomainError) as e:
        bff.check(Pad(2))
    assert "(pad 2)" in str(e.value)
    assert closure_construct("bff_2", 0).accepts(Pad(2))
    assert not closure_construct("bff_2", 0).accepts(Pad(3))
    assert closure_construct("bfsf_1", 0).accepts(Pad(1))


def test_family_recursion_rules():
    lrn_term = binary_length_term()
    br_term = doubling_counter()
    assert closure_construct("bff", 0).accepts(lrn_term)
    assert not closure_construct("bff", 0).accepts(br_term)
    assert not closure_construct("bff_3", 0).accepts(br_term)
    space = closure_construct("bfsf_1", 0)
    assert space.accepts(br_term)
    with pytest.raises(DomainError) as e:
        space.check(lrn_term)
    assert "lrn" in str(e.value)


def test_family_oracle_slots():
    checker0 = closure_construct("bff", 0)
    checker1 = closure_construct("bff", 1)
    assert not checker0.accepts(Ap())
    assert checker1.accepts(Ap())


def test_length_term_lives_in_the_space_family():
    fast, pure = length_term(), length_term(space_pure=True)
    space = closure_construct("bfsf_1", 1)
    # numeric recursion keeps both out of the time family
    assert not closure_construct("bff_2", 1).accepts(fast)
    assert not closure_construct("bff_2", 1).accepts(pure)
    # the default build leans on notation recursion for speed; the pure
    # build compares lengths in unary and passes the space checker
    assert not space.accepts(fast)
    assert space.accepts(pure)
    rng = random.Random(13)
    for _ in range(3):
        f = random_oracle(rng, radius=3, answer_len=4)
        for x in ("", "1", "01"):
            assert (pure.evaluate((f,), (x,))
                    == length_functional(f, x, "brute"))


def test_family_idempotence():
    bff = closure_construct("bff", 1)
    accepted = [ones_term(), Comp(S0(), (Proj(0),)), Pad(0)]
    for t in accepted:
        assert bff.accepts(t)
        assert bff.accepts(Comp(S1(), (t,)))
        assert bff.accepts(Expand(t, 1, 2))
    g, h, k = accepted[1], Comp(S1(), (Proj(2, 3),)), Comp(Pad(0), (Proj(0, 2),))
    assert bff.accepts(Lrn(g, h, k))


def test_family_spelling():
    for bad in ["bfsf", "bff_0", "bfsf_0", "qqq", "bff_", "BFF"]:
        with pytest.raises(DomainError):
            closure_construct(bad)
    with pytest.raises(DomainError):
        closure_construct("bff", -1)


def test_deep_rejection_names_first_node():
    t = Comp(S0(), (Comp(S1(), (Comp(Pad(2), (Proj(0),)),)),))
    with pytest.raises(DomainError) as e:
        closure_construct("bff_1", 0).check(t)
    assert "(pad 2)" in str(e.value)


# ---------------------------------------------------------------------------
# oracle serialization
# ---------------------------------------------------------------------------

def test_oracle_round_trip():
    f = Oracle.from_table({"": "1", "01": "110"}, default="0")
    text = dump_oracle(f)
    g = load_oracle(text)
    assert g.table == f.table and g.default == f.default
    assert "~ 1" in text and text.strip().endswith("default 0")


def test_oracle_parse_errors():
    for bad, message in [
        ("01 1", "oracle table needs a final 'default' line"),
        ("~ 1\n# 0 1\n\n01\ndefault 0", "oracle line 4: expected two fields"),
        ("01 1 1\ndefault 0", "oracle line 1: expected two fields"),
        ("01 2\ndefault 0", "oracle line 1: not a binary string: '2'"),
        ("0 1\n2 1\ndefault 0", "oracle line 2: not a binary string: '2'"),
        # the answer is checked before the query
        ("2 x\ndefault 0", "oracle line 1: not a binary string: 'x'"),
        ("0 default\ndefault 0",
         "oracle line 1: not a binary string: 'default'"),
        ("0 1\ndefault 2", "oracle line 2: not a binary string: '2'"),
        ("default 0\n01 1", "oracle line 2: default must be the final line"),
        ("default 0\ndefault 1",
         "oracle line 2: default must be the final line"),
        ("0 1\n0 11\ndefault 0", "oracle line 2: '0' listed twice"),
        ("~ 1\n1 0\n  ~ 0\ndefault 0", "oracle line 3: '' listed twice"),
    ]:
        with pytest.raises(ParseError) as err:
            load_oracle(bad)
        assert str(err.value) == message, bad


def _load_oracle_by_words(text):
    """The loader as the words are read one by one (`read_word`), with the
    table refusing a query listed twice: the reference for `load_oracle`."""
    table, default = {}, None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"oracle line {lineno}: expected two fields")
        if default is not None:
            raise ParseError(
                f"oracle line {lineno}: default must be the final line")
        try:
            answer = read_word(parts[1])
            if parts[0] == "default":
                default = answer
                continue
            key = read_word(parts[0])
            if key in table:
                raise DomainError(f"{key!r} listed twice")
            table[key] = answer
        except DomainError as e:
            raise ParseError(f"oracle line {lineno}: {e}") from e
    if default is None:
        raise ParseError("oracle table needs a final 'default' line")
    return table, default


_ORACLE_WORDS = ["~", "0", "1", "01", "2", "x", "default", "#", "#0",
                 "\u00e9"]


@settings(max_examples=300)
@given(lines=st.lists(st.lists(st.sampled_from(_ORACLE_WORDS), max_size=3)
                      .map(" ".join), max_size=6),
       last=st.sampled_from(["", "default 1", " default ~ "]))
def test_oracle_loader_matches_the_word_by_word_reader(lines, last):
    text = "\n".join([*lines, last])
    try:
        want = _load_oracle_by_words(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            load_oracle(text)
        assert str(err.value) == str(exc)
    else:
        oracle = load_oracle(text)
        assert (oracle.table, oracle.default) == want


def test_oracle_totality_checked():
    junk = Oracle(lambda w: "2")
    with pytest.raises(DomainError):
        junk("0")
    with pytest.raises(DomainError):
        Oracle.from_table({"0": "x"}, "")
