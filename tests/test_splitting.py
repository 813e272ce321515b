"""Splitting operators: cylinder measurements, the set algebra, null-set
machinery, limits, and value extraction."""

from __future__ import annotations

import contextlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorbet import splitting
from cantorbet.core import (
    Dyadic, ZERO, ONE, strings_of_length, strings_shorter_than,
)
from cantorbet.errors import (
    DomainError, MeasureMismatchError, ModulusViolationError, ParseError,
    PreconditionError,
)
from cantorbet.measure import (
    PositivityWitness, ProbabilityMeasure, uniform, biased,
)
from cantorbet.martingale import (
    ConstantMartingale, RegularizedMartingale, default_measure_resolver,
    unit, covers, regularize,
)
from cantorbet.splitting import (
    Complement, CylinderNull, CylinderPos, IntersectUnion, LimitMeasurement,
    cylinder, complement, complete_null, union_sequence, measure_value,
    initial_capital_surplus, parse_operator, IndicatorMartingale,
    LimitPlusMartingale, SplittingOperator,
)

from helpers import (
    BUILTIN_MEASURES, random_conditionals, build_measure,
    build_table_martingale, measures, nesting_shapes, ref, set_expressions,
)


def null_measure():
    """Everything on the all-zeros ray: mass 1 at '0', 0 at '1'."""
    return ProbabilityMeasure({"": ONE, "0": ONE, "1": ZERO}, 1,
                              witness=PositivityWitness(0, 1))


def random_d(seed, depth=4):
    rng = random.Random(seed)
    cond = random_conditionals(rng, depth)
    nu = build_measure(cond, depth)
    return build_table_martingale(rng, nu, cond, depth), nu


# ---------------------------------------------------------------------------
# cylinder measurements
# ---------------------------------------------------------------------------

def test_null_cylinder():
    nu = null_measure()
    op = cylinder("1", nu)
    plus = op.plus(unit(nu))
    assert plus.value("") == 0
    assert plus.value("1") == 1
    assert plus.value("10") == 1
    assert plus.value("0") == 0
    assert op.minus(unit(nu)).value("0110") == 1
    assert measure_value(op, 8) == ZERO


def test_null_cylinder_preconditions():
    # `cylinder` decides each class's precondition, from its one mass
    # query, and hands a positive mass on
    nu = null_measure()
    op = cylinder("1", nu)
    assert type(op) is CylinderNull and op.w == "1"
    for w, mass in (("0", ONE), ("", ONE)):
        op = cylinder(w, nu)
        assert type(op) is CylinderPos and (op.w, op.mass) == (w, mass)
    op = cylinder("01", uniform())
    assert type(op) is CylinderPos and op.mass == Dyadic(1, 2)


def test_indicator_is_martingale_on_null_cylinder():
    nu = null_measure()
    ind = IndicatorMartingale("1", nu)
    for w in ["", "0", "1", "00", "01", "10", "11", "010"]:
        lhs = ind.value(w) * nu.mass(w).to_fraction()
        rhs = sum(ind.value(w + b) * nu.mass(w + b).to_fraction() for b in "01")
        assert lhs == rhs


def test_positive_cylinder_value():
    mu = uniform()
    op = cylinder("01", mu)
    got = measure_value(op, 6)
    assert got == Dyadic(1, 2)
    assert got.render(6) == "16/2^6"
    for r in range(4, 11):
        v = measure_value(op, r)
        assert abs(v.to_fraction() - Fraction(1, 4)) <= Fraction(1, 2 ** r)


def test_positive_cylinder_at_root_is_regularization():
    mu = uniform()
    d, nu = random_d(3)
    op = cylinder("", nu)
    plus = op.plus(d)
    lam = regularize(d, nu)
    for w in ["", "0", "11", "0101"]:
        assert plus.value(w) == lam.value(w)


def test_positive_cylinder_off_side_zero():
    mu = uniform()
    plus = cylinder("0", mu).plus(unit(mu))
    assert plus.value("1") == 0
    assert plus.value("10") == 0
    assert plus.value("0") == 1
    assert plus.value("") == Fraction(1, 2)


def test_slice_minus_nonnegative():
    d, nu = random_d(11)
    op = cylinder("010", nu)
    minus = op.minus(d)
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randrange(6)
        w = "".join(rng.choice("01") for _ in range(n))
        assert minus.value(w) >= 0


def test_cylinder_dispatch():
    nu = null_measure()
    assert measure_value(cylinder("1", nu), 6) == ZERO
    assert measure_value(cylinder("0", nu), 6) == ONE


def test_a_cylinder_reads_its_mass_once(monkeypatch):
    # parse_operator's (cyl w) asks nu(w) once, and neither the form's
    # split nor its measure_value asks for w again: a null w, a positive w
    # below a `copy` table (the boundary node 0 splits 3/4 : 1/4), and the
    # root
    copy = ProbabilityMeasure({"": ONE, "0": Dyadic(3, 2), "1": Dyadic(1, 2)},
                              1, ext=("copy",),
                              witness=PositivityWitness(0, 3))
    calls = []
    mass = ProbabilityMeasure.mass

    def counted(nu, w):
        calls.append(w)
        return mass(nu, w)

    monkeypatch.setattr(ProbabilityMeasure, "mass", counted)
    for nu, w, want in ((null_measure(), "1", 0),
                        (copy, "0110", Fraction(9, 256)),
                        (uniform(), "", 1)):
        del calls[:]
        op = parse_operator(f"(cyl {w or '~'})", nu)
        assert calls == [w], (w, calls)
        del calls[:]
        op.split(unit(nu))
        got = measure_value(op, 8).to_fraction()
        assert w not in calls, (w, calls)
        assert abs(got - want) <= Fraction(1, 2 ** 8), w


# ---------------------------------------------------------------------------
# complement
# ---------------------------------------------------------------------------

def test_complement_value():
    mu = uniform()
    op = complement(cylinder("0", mu))
    v = measure_value(op, 8)
    assert abs(v.to_fraction() - Fraction(1, 2)) <= Fraction(2, 2 ** 8)


def test_complement_involution():
    mu = uniform()
    base = cylinder("0", mu)
    assert complement(complement(base)) is base


def test_complement_preserves_axiom_iii():
    d, nu = random_d(5)
    assert initial_capital_surplus(complement(cylinder("01", nu)), d) == 0


# ---------------------------------------------------------------------------
# intersection / union
# ---------------------------------------------------------------------------

def test_theta_values():
    """The two-term components: cap's plus is psi+(phi+) alone, cup's minus
    is psi-(phi-) alone, and cap's minus is phi- + psi-(phi+)."""
    mu = uniform()
    c0 = cylinder("0", mu)
    c1 = cylinder("1", mu)
    both = IntersectUnion(c0, c0, "cap").plus(unit(mu))
    assert both.value("") == Fraction(1, 2)
    neither = IntersectUnion(c0, c1, "cup").minus(unit(mu))
    assert neither.value("") == 0
    rest = IntersectUnion(c0, c1, "cap").minus(unit(mu))
    assert rest.value("") == 1


def test_theta_outputs_satisfy_identity():
    d, nu = random_d(7)
    c = cylinder("01", nu)
    for which in ("cap", "cup"):
        op = IntersectUnion(c, c, which)
        for out in (op.plus(d), op.minus(d)):
            for n in range(3):
                for i in range(1 << n):
                    w = format(i, f"0{n}b") if n else ""
                    lhs = out.value(w) * nu.mass(w).to_fraction()
                    rhs = sum(out.value(w + b) * nu.mass(w + b).to_fraction()
                              for b in "01")
                    assert lhs == rhs


def test_intersect_union_validation():
    mu = uniform()
    c = cylinder("0", mu)
    with pytest.raises(DomainError):
        IntersectUnion(c, c, "both")
    with pytest.raises(MeasureMismatchError):
        IntersectUnion(c, cylinder("0", biased(Dyadic(3, 2))), "cap")


class CountingOperator(SplittingOperator):
    """Splits its input into two copies of itself and counts the splits."""

    def __init__(self, nu):
        self.measure = nu
        self.calls = 0

    def split(self, d):
        self.calls += 1
        return d, d


def test_operator_classes_own_their_views():
    # tools look plus and minus up in each class's own namespace
    for cls in (CylinderNull, CylinderPos, Complement, IntersectUnion,
                LimitMeasurement, CountingOperator):
        assert {"plus", "minus", "split"} <= set(vars(cls)), cls

    class OwnPlus(CountingOperator):
        def plus(self, d):
            return "own"

    op = OwnPlus(uniform())
    assert op.plus(unit(op.measure)) == "own"
    assert op.minus(unit(op.measure)) is not None


def test_intersect_union_applies_phi_once_per_sign():
    mu = uniform()
    for which in ("cap", "cup"):
        for side in ("plus", "minus"):
            phi, psi = CountingOperator(mu), CountingOperator(mu)
            getattr(IntersectUnion(phi, psi, which), side)(unit(mu))
            assert (phi.calls, psi.calls) == (1, 1), (which, side)


@contextlib.contextmanager
def counting_splits():
    """Count `split` applications in the block, in the yielded list's one
    entry.

    A profile hook counts them, so the count adds no Python frame per
    nesting level and deep shapes stay within the default recursion limit.
    """
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "split":
            calls[0] += 1

    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(None)


def count_splits(op, r):
    """measure_value(op, r) and the number of `split` applications it made."""
    with counting_splits() as calls:
        value = measure_value(op, r)
    return value, calls[0]


def test_nesting_costs_linear_operator_applications():
    # every operator is split at most once per split of the form around
    # it, so a whole measurement costs at most one split per form
    mu = uniform()
    for name in nesting_shapes(2):
        for k in (4, 8, 16, 32, 64, 128, 256):
            text, want = nesting_shapes(k)[name]
            value, calls = count_splits(parse_operator(text, mu), 4)
            assert value.to_fraction() == want, (name, k)
            assert calls <= text.count("("), (name, k, calls)


def test_union_sequence_limit_splits_each_member_once():
    # the limit splits stage `last` once; its plus half answers every
    # query from that one split
    nu = null_measure()
    for n in (1, 4, 16):
        op = union_sequence([cylinder("1", nu) for _ in range(n)])
        with counting_splits() as calls:
            plus = op.plus(unit(nu))
            for w in ("", "0", "1", "10", "0110"):
                plus.value(w)
                plus.approx(5, w)
        assert calls[0] == n + 2, (n, calls)


def test_cap_cup_cylinder_values():
    mu = uniform()
    c0 = cylinder("0", mu)
    c1 = cylinder("1", mu)
    r = 8
    tol = Fraction(1, 2 ** r)
    assert measure_value(IntersectUnion(c0, c1, "cap"), r).to_fraction() <= tol
    assert abs(measure_value(IntersectUnion(c0, c1, "cup"), r).to_fraction()
               - 1) <= tol
    assert abs(measure_value(IntersectUnion(c0, c0, "cap"), r).to_fraction()
               - Fraction(1, 2)) <= tol


def test_inclusion_exclusion_sample():
    mu = uniform()
    rng = random.Random(19)
    for _ in range(10):
        u = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
        v = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
        cu, cv = cylinder(u, mu), cylinder(v, mu)
        r = 7
        cap = measure_value(IntersectUnion(cu, cv, "cap"), r).to_fraction()
        cup = measure_value(IntersectUnion(cu, cv, "cup"), r).to_fraction()
        lhs = cap + cup
        rhs = mu.mass(u).to_fraction() + mu.mass(v).to_fraction()
        assert abs(lhs - rhs) <= Fraction(2, 2 ** r)


def test_cap_cup_axiom_iii():
    d, nu = random_d(23)
    c0 = cylinder("0", nu)
    c01 = cylinder("01", nu)
    for which in ("cap", "cup"):
        assert initial_capital_surplus(IntersectUnion(c0, c01, which), d) == 0


# ---------------------------------------------------------------------------
# splitting axioms (i)/(ii), finite version
# ---------------------------------------------------------------------------

def eventually_constant(head: str, tail: str, n: int) -> str:
    """First n bits of head followed by an infinite tail of `tail` bits."""
    if n <= len(head):
        return head[:n]
    return head + tail * (n - len(head))


def test_axioms_i_ii_on_cylinders():
    d, nu = random_d(31, depth=5)
    rng = random.Random(77)
    for _ in range(25):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        op = cylinder(w, nu)
        head = "".join(rng.choice("01") for _ in range(rng.randrange(6)))
        tail = rng.choice("01")
        member = eventually_constant(head, tail, 12).startswith(w)
        for n in range(9):
            prefix = eventually_constant(head, tail, n)
            if covers(d, prefix):
                side = op.plus(d) if member else op.minus(d)
                assert any(
                    side.value(eventually_constant(head, tail, m)) >= 1
                    for m in range(13)), (w, head, tail, member)
                break


# ---------------------------------------------------------------------------
# null machinery
# ---------------------------------------------------------------------------

def test_complete_null():
    nu = null_measure()
    op = complete_null(cylinder("1", nu))
    d, _ = (unit(nu), None)
    assert op.minus(d) is d
    p1 = op.plus(d)
    p2 = op.plus(unit(nu))
    assert p1.value("1") == p2.value("1") == 1
    assert measure_value(op, 8) == ZERO


def test_complete_null_gate():
    mu = uniform()
    with pytest.raises(PreconditionError):
        complete_null(cylinder("0", mu))


def test_union_sequence_bounds():
    # every stage is a union of exactly null members: its plus half holds
    # no capital at the root, and its minus half is the input
    nu = null_measure()
    seq = union_sequence([cylinder("1", nu) for _ in range(4)])
    one = unit(nu)
    for stage in seq.stages:
        plus, minus = stage.split(one)
        assert minus is one
        assert plus.value("") == 0 and plus.unit_bounded


def test_union_sequence_gate():
    mu = uniform()
    with pytest.raises(PreconditionError):
        union_sequence([cylinder("0", mu)])


def test_a_null_member_that_breaks_its_modulus_fails_when_measured():
    # stage 0, (cyl 1), is null, and the modulus claims the family constant
    # from there, so the gate, which reads exact values, admits the limit;
    # an approximation from the unit martingale then probes stage 1,
    # (cyl 0), which holds all the mass
    nu = null_measure()
    member = LimitMeasurement([cylinder("1", nu), cylinder("0", nu)], gamma=0)
    for op in (complete_null(member), union_sequence([member])):
        with pytest.raises(ModulusViolationError,
                           match="^stage 1 at '' is 1, outside the 2"):
            measure_value(op, 8)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def test_limit_constant_sequence():
    mu = uniform()
    op = LimitMeasurement([cylinder("01", mu)])
    for r in range(2, 9):
        v = measure_value(op, r)
        assert abs(v.to_fraction() - Fraction(1, 4)) <= Fraction(1, 2 ** r)


def test_limit_increasing_union():
    mu = uniform()
    e0 = cylinder("000", mu)
    e1 = IntersectUnion(cylinder("000", mu), cylinder("001", mu),
                         "cup")
    e2 = IntersectUnion(e1, cylinder("01", mu), "cup")
    op = LimitMeasurement([e0, e1, e2])
    for r in range(2, 9):
        v = measure_value(op, r)
        assert abs(v.to_fraction() - Fraction(1, 2)) <= Fraction(1, 2 ** r)


def test_limit_axiom_iii():
    d, nu = random_d(41)
    assert initial_capital_surplus(LimitMeasurement([cylinder("0", nu)]), d) \
        == 0


def test_limit_modulus_violation_detected():
    mu = uniform()
    # stages genuinely change at index 1, but the modulus claims constancy
    op = LimitMeasurement([cylinder("00", mu), cylinder("0", mu)], gamma=0)
    with pytest.raises(ModulusViolationError) as exc:
        measure_value(op, 8)
    assert str(exc.value) == ("stage 1 at '' is 1/2^1, outside the 2^-9 "
                              "envelope around 1/2^2")


def test_limit_envelope_is_four_steps_of_the_finer_grid():
    # at t = 2 the halves are read on the 2^-3 grid: a later stage 4/8
    # away from stage k is inside the 2^-2 envelope, 5/8 away is not
    mu = uniform()
    halves = [ConstantMartingale(0, mu),
              ConstantMartingale(Fraction(1, 2), mu)]
    assert LimitPlusMartingale(halves, 0, mu).approx(2, "") == ZERO
    halves[1] = ConstantMartingale(Fraction(5, 8), mu)
    with pytest.raises(ModulusViolationError) as exc:
        LimitPlusMartingale(halves, 0, mu).approx(2, "")
    assert str(exc.value) == \
        "stage 1 at '' is 5/2^3, outside the 2^-2 envelope around 0"


def test_limit_empty_family_rejected():
    empty = "modulated family must have at least one stage"
    with pytest.raises(DomainError, match=empty):
        LimitMeasurement([])
    with pytest.raises(DomainError, match=empty):
        union_sequence([])


def test_limit_negative_index_rejected():
    with pytest.raises(DomainError, match="modulus index must be >= 0"):
        LimitMeasurement([cylinder("0", uniform())], gamma=-1)


def test_stages_on_two_measures_are_refused():
    mu, nu = uniform(), biased(Dyadic(3, 3))
    with pytest.raises(MeasureMismatchError):
        LimitMeasurement([cylinder("0", mu), cylinder("0", nu)])
    # everything on the all-ones ray: '0' is null here, as '1' is there
    mirror = ProbabilityMeasure({"": ONE, "0": ZERO, "1": ONE}, 1,
                                witness=PositivityWitness(0, 1))
    with pytest.raises(MeasureMismatchError):
        union_sequence([cylinder("1", null_measure()), cylinder("0", mirror)])


# ---------------------------------------------------------------------------
# values and the paired-capital check
# ---------------------------------------------------------------------------

def test_measure_value_examples():
    mu = uniform()
    disjoint = IntersectUnion(cylinder("0", mu), cylinder("10", mu),
                               "cup")
    v = measure_value(disjoint, 8)
    assert v.precision <= 8
    assert abs(v.to_fraction() - Fraction(3, 4)) <= Fraction(1, 2 ** 8)


def test_axiom_iii_across_operators():
    d, nu = random_d(59)
    ops = [
        cylinder("0", nu),
        cylinder("", nu),
        complement(cylinder("11", nu)),
        IntersectUnion(cylinder("0", nu), cylinder("01", nu), "cap"),
    ]
    for op in ops:
        assert initial_capital_surplus(op, d) == 0


# ---------------------------------------------------------------------------
# operator expressions
# ---------------------------------------------------------------------------

def test_parse_operator_forms():
    mu = uniform()
    op = parse_operator("(cyl 01)", mu)
    assert measure_value(op, 6) == Dyadic(1, 2)
    op = parse_operator("(compl (cyl 0))", mu)
    assert abs(measure_value(op, 8).to_fraction() - Fraction(1, 2)) \
        <= Fraction(2, 2 ** 8)
    op = parse_operator("(cap (cyl 0) (cyl 01))", mu)
    assert abs(measure_value(op, 8).to_fraction() - Fraction(1, 4)) \
        <= Fraction(1, 2 ** 8)
    op = parse_operator("(cup (cyl 0) (cyl 1))", mu)
    assert abs(measure_value(op, 8).to_fraction() - 1) <= Fraction(1, 2 ** 8)
    op = parse_operator("(limit (cyl 00) (cup (cyl 00) (cyl 01)) 1)", mu)
    assert abs(measure_value(op, 7).to_fraction() - Fraction(1, 2)) \
        <= Fraction(1, 2 ** 7)
    op = parse_operator("(cyl ~)", mu)
    assert measure_value(op, 5) == ONE


def test_parse_operator_errors():
    mu = uniform()
    for bad in ["", "(", "(cyl)", "(cyl 2)", "(weird 0)", "(cap (cyl 0))",
                "(cyl 0) extra", "(limit (cyl 0))", "(limit (cyl 0) x)"]:
        with pytest.raises(ParseError):
            parse_operator(bad, mu)


@pytest.mark.parametrize("k", [*range(8), 3000])
def test_nested_complements_cancel_to_the_cylinder(k, monkeypatch):
    # each (compl E) of a Complement unwraps it, so k complements leave
    # the cylinder operator itself for even k and one Complement of it
    # for odd k, however deep
    mu = uniform()
    cyl = cylinder("0", mu)
    monkeypatch.setattr("cantorbet.splitting.cylinder", lambda w, nu: cyl)
    op = parse_operator("(compl " * k + "(cyl 0)" + ")" * k, mu)
    if k % 2:
        assert type(op) is Complement and op.inner is cyl
    else:
        assert op is cyl


@pytest.mark.parametrize("text, message", [
    ("(cyl)", "(cyl w) takes exactly one string (position 0)"),
    ("(cyl 0 1)", "(cyl w) takes exactly one string (position 0)"),
    ("(compl)", "(compl E) takes exactly one operator (position 0)"),
    ("(compl 0)", "expected an operator form, got '0' (position 0)"),
    ("(compl (cyl 0) (cyl 1))",
     "(compl E) takes exactly one operator (position 0)"),
    ("(cap (cyl 0))", "(cap E F) takes exactly two operators (position 0)"),
    ("(cup 0 (cyl 1))", "expected an operator form, got '0' (position 0)"),
    ("(limit (cyl 0))",
     "(limit E0 E1 ... K) needs stages and an index (position 0)"),
    ("(limit (cyl 0) x)",
     "limit index must be a natural number, got 'x' (position 0)"),
    ("(foo (cyl 0))", "unknown operator head 'foo' (position 0)"),
    ("(cap (cyl 0) (cup (cyl 1) 1))",
     "expected an operator form, got '1' (position 13)"),
    ("(cup (cyl 0) (limit 0 (cyl 1) 1))",
     "expected an operator form, got '0' (position 13)"),
])
def test_parse_operator_error_texts(text, message):
    with pytest.raises(ParseError) as info:
        parse_operator(text, uniform())
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# measurements from the unit martingale
# ---------------------------------------------------------------------------
# Splitting `unit(nu)` by the operator of a set E gives, at every node v of
# positive mass, exactly nu(E | v) and 1 - nu(E | v).  So no positive
# cylinder of the measurement regularizes its input, and the measured
# values are those of the route that regularizes every input.  Expressions
# are `helpers.set_expressions` tuples, plus the null sets the grammar
# cannot reach: ("complete", E) is `complete_null` of E and
# ("sequence", [E, ...]) is `union_sequence` of the members.


def _contains(e, s: str) -> bool:
    if e[0] == "complete":
        return ref.contains(e[1], s)
    if e[0] == "sequence":
        return any(ref.contains(m, s) for m in e[1])
    return ref.contains(e, s)


def _longest(e) -> int:
    members = (e[1],) if e[0] == "complete" else \
        e[1] if e[0] == "sequence" else (e,)
    return max(len(w) for m in members for w in ref.expr_words(m))


def _operator(e, nu):
    """The operator of an expression, built from its tuple."""
    head = e[0]
    if head == "cyl":
        return cylinder(e[1], nu)
    if head == "compl":
        return complement(_operator(e[1], nu))
    if head in ("cap", "cup"):
        return IntersectUnion(_operator(e[1], nu), _operator(e[2], nu), head)
    if head == "limit":
        return LimitMeasurement([_operator(s, nu) for s in e[1]], e[2])
    if head == "complete":
        return complete_null(_operator(e[1], nu))
    return union_sequence([_operator(m, nu) for m in e[1]])


def _null(e, model):
    """E where its set is null, and otherwise (cap E (compl E)), which is
    empty."""
    return e if ref.set_measure(e, model) == 0 else ("cap", e, ("compl", e))


def _null_forms(model, depth: int):
    """A `complete_null` or `union_sequence` form of null members drawn
    `depth` forms deep."""
    member = set_expressions(depth).map(lambda e: _null(e, model))
    members = st.lists(member, min_size=1, max_size=3)
    return st.one_of(members.map(lambda ms: ("complete", ms[0])),
                     members.map(lambda ms: ("sequence", ms)))


def _conditionals(e, model) -> dict[str, Fraction]:
    """nu(E | v) at every node v of positive mass down to the longest word
    + 2, by the reference's truth table over the strings of length
    max(|v|, longest word)."""
    n = _longest(e)
    out = {}
    for k in range(n + 3):
        for v in strings_of_length(k):
            m = model.mass(v)
            if m:
                out[v] = sum(model.mass(v + t)
                             for t in strings_of_length(max(n - k, 0))
                             if _contains(e, v + t)) / m
    return out


def _assert_splits_unit_into_conditionals(op, e, nu, model):
    plus, minus = op.split(unit(nu))
    for v, p in _conditionals(e, model).items():
        assert (plus.value(v), minus.value(v)) == (p, 1 - p), v


@settings(max_examples=150)
@given(e=set_expressions(6), measure=measures())
def test_a_split_of_the_unit_martingale_is_the_conditional_probability(
        e, measure):
    # exactly; a limit reads its stage min(K, last), as the reference's
    # truth table does
    nu, model = measure
    op = parse_operator(ref.expr_text(e), nu)
    _assert_splits_unit_into_conditionals(op, e, nu, model)


@settings(max_examples=60)
@given(measure=measures(), data=st.data())
def test_null_unions_split_the_unit_martingale_into_conditionals(
        measure, data):
    # the null gate reads exact values and checks no modulus, so building
    # a null form cannot raise ModulusViolationError
    nu, model = measure
    e = data.draw(_null_forms(model, 4), label="null set")
    _assert_splits_unit_into_conditionals(_operator(e, nu), e, nu, model)


def _seeded_table(model, nu, seed: int):
    """A seeded table martingale on nu to depth 4: each node of positive
    mass splits by the model's conditional, and a null node by 1/2."""
    cond = {w: Dyadic.from_fraction(model.conditional(w)) if model.mass(w)
            else Dyadic(1, 1) for w in strings_shorter_than(4)}
    return build_table_martingale(random.Random(seed), nu, cond, 4)


@settings(max_examples=100)
@given(measure=measures(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_axiom_iii_holds_with_no_slack(measure, data, seed):
    # plus + minus = d at the root exactly, for the grammar's operators and
    # the null forms, from the unit martingale and from a table
    nu, model = measure
    e = data.draw(st.one_of(set_expressions(5), _null_forms(model, 3)),
                  label="set")
    op = _operator(e, nu)
    for d in (unit(nu), _seeded_table(model, nu, seed)):
        assert initial_capital_surplus(op, d) == 0


def _measured(e, nu, r):
    """measure_value of e's operator, built here, as (mantissa,
    precision), or the error that building or measuring it raised."""
    try:
        v = measure_value(_operator(e, nu), r)
    except DomainError as exc:
        return type(exc), str(exc)
    return v.mantissa, v.precision


@settings(max_examples=100)
@given(measure=measures(), data=st.data(), r=st.integers(0, 20))
def test_measured_values_match_the_route_that_regularizes_every_input(
        measure, data, r):
    # null sets nest under cap, cup, compl and limit: a null union's plus
    # half is unit-bounded, so no split of the measurement, or of the null
    # gates' own, regularizes, and the memos measure what the
    # regularizations measure
    nu, model = measure
    leaf = st.one_of(st.tuples(st.just("cyl"), st.text("01", max_size=3)),
                     _null_forms(model, 2))
    e = data.draw(set_expressions(4, leaf), label="expression")
    with pytest.MonkeyPatch.context() as mp, \
            counting_regularizations(mp) as (inputs, built):
        fast = _measured(e, nu, r)
    assert built == [] and all(d.unit_bounded for d in inputs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitting, "MemoMartingale",
                   lambda d, nu, w: regularize(d, nu))
        assert _measured(e, nu, r) == fast


def test_the_null_gates_refuse_a_member_of_any_positive_mass():
    # (cyl 0^11) and (cyl 0^30) measure 2^-11 and 2^-30 under the uniform
    # measure: however small, a positive mass is not null
    mu = uniform()
    for n in (11, 30):
        want = f"operator value 1/{2 ** n} is not null"
        with pytest.raises(PreconditionError) as exc:
            complete_null(cylinder("0" * n, mu))
        assert str(exc.value) == f"complete_null: {want}"
        with pytest.raises(PreconditionError) as exc:
            union_sequence([cylinder("0" * n, mu)])
        assert str(exc.value) == f"union_sequence member 0: {want}"


@contextlib.contextmanager
def counting_regularizations(mp):
    """The inputs of the CylinderPos splits in the block, and the number
    of regularizations built, in the yielded lists."""
    inputs, built = [], []
    split, init = CylinderPos.split, RegularizedMartingale.__init__

    def counted_split(self, d):
        inputs.append(d)
        return split(self, d)

    def counted_init(self, base, nu):
        built.append(base)
        init(self, base, nu)

    mp.setattr(CylinderPos, "split", counted_split)
    mp.setattr(RegularizedMartingale, "__init__", counted_init)
    yield inputs, built


@settings(max_examples=60)
@given(e=set_expressions(6), spec=st.sampled_from(sorted(BUILTIN_MEASURES)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_only_inputs_not_unit_bounded_are_regularized(e, spec, seed):
    # from the unit martingale no split regularizes; from a table, every
    # positive cylinder's split builds one regularization, as the built-in
    # measures have no null cylinder
    nu = default_measure_resolver(spec)
    c = Dyadic.from_fraction(BUILTIN_MEASURES[spec])
    table = build_table_martingale(random.Random(seed), nu,
                                   {w: c for n in range(4)
                                    for w in strings_of_length(n)}, 4)
    op = parse_operator(ref.expr_text(e), nu)
    with pytest.MonkeyPatch.context() as mp, \
            counting_regularizations(mp) as (inputs, built):
        op.split(unit(nu))
        assert inputs and built == []
        del inputs[:]
        plus, minus = op.split(table)
        plus.value("")
        minus.value("")
        assert not any(d.unit_bounded for d in inputs)
        assert len(built) == len(inputs)


def test_slices_step_their_masses_down_from_the_root():
    # A cap of two cylinders on one 64-bit word, split from a table:
    # each regularization walks the 64 levels and asks the slice it
    # regularizes at every level.  A slice steps the masses of w's
    # prefixes down from the root once each, by `children`, so no
    # closed-form mass query follows the cylinders' own.
    nu = biased(Dyadic(3, 3))
    w = "".join(random.Random(5).choice("01") for _ in range(64))
    op = IntersectUnion(cylinder(w, nu), cylinder(w, nu), "cap")
    d = build_table_martingale(random.Random(6), nu,
                               {u: Dyadic(3, 3) for n in range(3)
                                for u in strings_of_length(n)}, 3)
    calls = {"mass": 0, "children": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            def counted(self, *args, name=name,
                        orig=getattr(ProbabilityMeasure, name)):
                calls[name] += 1
                return orig(self, *args)
            mp.setattr(ProbabilityMeasure, name, counted)
        plus, minus = op.split(d)
        plus.value("")
        minus.value("")
    # two regularizations step down 64 levels each, and the slice they
    # ask at every level steps to its 63 proper prefixes; the outer slice
    # is read at the root only
    assert calls == {"mass": 0, "children": 2 * 64 + 63}
    # the stepped masses are the closed form's, whatever order asks them
    a = op.phi.split(d)[0]
    inner = a.inner.value(w)
    for i in [*range(40, 64, 3), *range(0, 64, 5)]:
        ratio = nu.mass(w).to_fraction() / nu.mass(w[:i]).to_fraction()
        assert a.value(w[:i]) == inner * ratio, i
