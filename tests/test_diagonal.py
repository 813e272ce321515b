"""Constructors, diagonalization, and the finite conservation check."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cantorbet.core import Dyadic, strings_of_length
from cantorbet.errors import DomainError, MeasureMismatchError, PreconditionError
from cantorbet.martingale import (
    ConstantMartingale, Martingale, TableMartingale, regularize, unit,
)
from cantorbet.measure import ProbabilityMeasure, biased, uniform
from cantorbet.diagonal import (
    Constructor, capital_margin, conservation_check, diagonalize,
    query_precision, result_prefix,
)

from helpers import (
    ProbeCountingMemo, build_measure, build_table_martingale,
    random_conditionals,
)


def doubling_on_zeros(depth: int) -> TableMartingale:
    """Capital 1/2 at the root, x1.5 on every 0, x0.5 on every 1."""
    t = {"": Dyadic(1, 1)}
    for n in range(depth):
        for w in strings_of_length(n):
            t[w + "0"] = t[w] * Dyadic(3, 1)
            t[w + "1"] = t[w] * Dyadic(1, 1)
    return TableMartingale(t, depth, uniform())


def spike_martingale() -> TableMartingale:
    """Climbs to 15/16 along 000 but starts at 1/2."""
    t = {
        "": Dyadic(1, 1),
        "0": Dyadic(3, 2), "1": Dyadic(1, 2),
        "00": Dyadic(7, 3), "01": Dyadic(5, 3),
        "10": Dyadic(1, 2), "11": Dyadic(1, 2),
        "000": Dyadic(15, 4), "001": Dyadic(13, 4),
        "010": Dyadic(5, 3), "011": Dyadic(5, 3),
        "100": Dyadic(1, 2), "101": Dyadic(1, 2),
        "110": Dyadic(1, 2), "111": Dyadic(1, 2),
    }
    return TableMartingale(t, 3, uniform())


class RecordingMartingale(Martingale):
    """Delegates to another martingale, logging every grid query: each
    public approximation, and each query a regularization makes of it."""

    def __init__(self, inner: Martingale):
        self.inner = inner
        self.measure = inner.measure
        self.calls: list[tuple[int, str]] = []

    def value(self, w: str) -> Fraction:
        return self.inner.value(w)

    def _grid(self, r: int, w: str) -> int:
        self.calls.append((r, w))
        return self.inner._grid(r, w)


# ---------------------------------------------------------------------------
# constructors and result prefixes
# ---------------------------------------------------------------------------

def test_result_prefix_simple():
    zeros = Constructor(lambda x: x + "0")
    assert result_prefix(zeros, 4) == "0000"
    assert result_prefix(zeros, 0) == ""
    repeat = Constructor(lambda x: x + "01")
    assert result_prefix(repeat, 3) == "010"
    assert result_prefix(repeat, 7) == "0101010"


def test_constructor_must_extend():
    with pytest.raises(DomainError):
        Constructor(lambda x: x)("01")
    with pytest.raises(DomainError):
        Constructor(lambda x: "1" + x)("0")
    with pytest.raises(DomainError):
        Constructor(lambda x: x[:-1])("01")
    with pytest.raises(DomainError):
        result_prefix(Constructor(lambda x: x + "0"), -1)


def test_constructor_law_random_inputs():
    d = doubling_on_zeros(5)
    delta = diagonalize(d, 2, "01")
    rng = random.Random(5)
    for _ in range(100):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(8)))
        y = delta(x)
        assert y.startswith(x) and len(y) > len(x)


# ---------------------------------------------------------------------------
# the diagonalizer
# ---------------------------------------------------------------------------

def test_jump_into_cylinder():
    d = unit(uniform())
    delta = diagonalize(d, 3, "01")
    assert delta("") == "01"
    assert delta("0") == "01"
    # at the cylinder word itself the comparison branch takes over
    assert delta("01") == "010"


def test_tie_prefers_zero_side():
    delta = diagonalize(unit(uniform()), 2, "")
    assert result_prefix(delta, 6) == "000000"


def test_avoids_the_favored_side():
    d = doubling_on_zeros(8)
    delta = diagonalize(d, 2, "")
    assert result_prefix(delta, 8) == "11111111"


def test_consistency_with_cylinder_word():
    d = doubling_on_zeros(6)
    rng = random.Random(9)
    for _ in range(20):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        assert result_prefix(diagonalize(d, 2, w), len(w)) == w


def test_queries_only_the_stated_precision():
    m = 3
    rec = RecordingMartingale(doubling_on_zeros(6))
    result_prefix(diagonalize(rec, m, "10"), 10)
    assert rec.calls
    for r, v in rec.calls:
        assert len(v) >= 1
        assert r == query_precision(v[:-1], m)


def test_diagonalize_rejects_negative_margin():
    with pytest.raises(DomainError):
        diagonalize(unit(uniform()), -1, "")


# ---------------------------------------------------------------------------
# margin helper
# ---------------------------------------------------------------------------

def test_capital_margin_values():
    mu = uniform()
    assert capital_margin(ConstantMartingale(Fraction(1, 2), mu), "") == 2
    assert capital_margin(ConstantMartingale(Fraction(3, 4), mu), "") == 3
    assert capital_margin(ConstantMartingale(0, mu), "") == 1
    d = spike_martingale()
    assert capital_margin(d, "") == 2
    assert capital_margin(d, "0") == 3
    assert capital_margin(d, "000") == 5


def test_capital_margin_is_the_least_margin():
    """Brute force over the definition: the least m with every prefix's
    capital at most 1 - 2**(1-m)."""
    mu = uniform()

    def least(d, w):
        m = 0
        while any(d.value(w[:k]) > 1 - Fraction(2, 2 ** m)
                  for k in range(len(w) + 1)):
            m += 1
        return m

    rng = random.Random(9)
    worsts = [Fraction(0), 1 - Fraction(1, 2 ** 500),
              1 - Fraction(1, 2 ** 500) - Fraction(1, 2 ** 900)]
    worsts += [Fraction(rng.randrange(den), den)
               for den in (rng.randrange(1, 1 << 40) for _ in range(300))]
    for worst in worsts:
        d = ConstantMartingale(worst, mu)
        assert capital_margin(d, "") == least(d, "")
    assert capital_margin(ConstantMartingale(1 - Fraction(1, 2 ** 500), mu),
                          "") == 501
    d = spike_martingale()
    for w in ("", "0", "00", "000", "01", "1", "0110"):
        assert capital_margin(d, w) == least(d, w)


def test_capital_margin_requires_room():
    with pytest.raises(PreconditionError):
        capital_margin(unit(uniform()), "")


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

def test_conservation_constant_half():
    mu = uniform()
    d = ConstantMartingale(Fraction(1, 2), mu)
    rep = conservation_check(d, mu, "", 2, 16)
    assert rep.prefix == "0" * 16
    assert rep.max_capital == Fraction(1, 2)
    assert rep.steps[0].render() == "0 0 1 1"
    assert all(s.capital == Dyadic(1, 1) for s in rep.steps)
    assert len(rep.render().splitlines()) == 16


def test_conservation_doubling():
    d = doubling_on_zeros(8)
    rep = conservation_check(d, uniform(), "", 2, 8)
    assert rep.prefix == "1" * 8
    caps = [s.capital.to_fraction() for s in rep.steps]
    assert caps == [Fraction(1, 2 ** (k + 2)) for k in range(8)]
    assert rep.max_capital == Fraction(1, 2)


def test_conservation_dodges_spike():
    d = spike_martingale()
    rep = conservation_check(d, uniform(), "", 2, 8)
    assert max(v.to_fraction() for v in d.table.values()) == Fraction(15, 16)
    assert rep.max_capital <= Fraction(1, 2)


def test_conservation_preconditions():
    mu = uniform()
    with pytest.raises(PreconditionError):
        conservation_check(unit(mu), mu, "", 2, 4)
    d = ConstantMartingale(Fraction(1, 2), mu)
    # mass of the target cylinder does not exceed the starting capital
    with pytest.raises(PreconditionError):
        conservation_check(d, mu, "00", 2, 4)
    with pytest.raises(MeasureMismatchError):
        conservation_check(doubling_on_zeros(3), biased(Dyadic(1, 2)), "", 2, 4)
    with pytest.raises(DomainError):
        conservation_check(d, mu, "", 2, -1)


def test_conservation_precondition_is_exact():
    # capital equal to the cylinder mass fails; just below it passes, also
    # for a capital off the dyadic grid
    message = "initial capital must be strictly below the cylinder mass"
    for nu, w, mass in ((uniform(), "00", Fraction(1, 4)),
                        (biased(Dyadic(3, 3)), "0", Fraction(3, 8)),
                        (biased(Dyadic(3, 3)), "11", Fraction(25, 64))):
        with pytest.raises(PreconditionError) as e:
            conservation_check(ConstantMartingale(mass, nu), nu, w, 2, 1)
        assert str(e.value) == message
        for below in (mass - Fraction(1, 1 << 20), mass * Fraction(5, 6)):
            rep = conservation_check(ConstantMartingale(below, nu), nu, w,
                                     2, 1)
            assert rep.prefix == w[:1]


def test_walk_dodges_unit_capital_child():
    mu = uniform()
    t = {"": Dyadic(1, 1), "0": Dyadic(0, 0), "1": Dyadic(1, 0)}
    d = TableMartingale(t, 1, mu)
    rep = conservation_check(d, mu, "", 1, 6)
    assert rep.prefix.startswith("0")
    assert rep.max_capital < 1


def test_conservation_flags_capital_reaching_one():
    mu = uniform()

    class Trap(Martingale):
        """Not a fair betting strategy; both children beat the parent."""
        measure = mu

        def value(self, w):
            if w == "":
                return Fraction(1, 2)
            return Fraction(1) if w.startswith("0") else Fraction(2)

    with pytest.raises(PreconditionError):
        conservation_check(Trap(), mu, "", 2, 4)


def test_conservation_random_martingales():
    rng = random.Random(123)
    for _ in range(30):
        depth = rng.randrange(2, 6)
        cond = random_conditionals(rng, depth)
        nu = build_measure(cond, depth)
        raw = build_table_martingale(rng, nu, cond, depth)
        table = {w: v * Dyadic(1, 2) for w, v in raw.table.items()}
        d = TableMartingale(table, depth, nu)
        w = max(["0", "1"], key=lambda b: nu.mass(b).to_fraction())
        assert d.value("") < nu.mass(w).to_fraction()
        m = capital_margin(d, w)
        rep = conservation_check(d, nu, w, m, 14)
        assert rep.max_capital < 1
        assert rep.prefix.startswith(w)
        # per-step slack past the cylinder word
        caps = [d.value("")] + [d.value(rep.prefix[: k + 1])
                                for k in range(14)]
        for k in range(len(w), 14):
            assert caps[k + 1] <= caps[k] + Fraction(1, 2 ** (k + m + 1))


def _conservation_walks(seed: int, n: int):
    """n seeded (base, measure, w) for walks that keep capital below 1."""
    rng = random.Random(seed)
    for _ in range(n):
        depth = rng.randrange(2, 5)
        cond = random_conditionals(rng, depth)
        nu = build_measure(cond, depth)
        raw = build_table_martingale(rng, nu, cond, depth)
        table = {w: v * Dyadic(1, 2) for w, v in raw.table.items()}
        heavy = max(["0", "1"], key=lambda b: nu.mass(b).to_fraction())
        yield TableMartingale(table, depth, nu), nu, heavy[:rng.randrange(2)]


def _walk_queries(base, nu, w, steps):
    """The base's approximation calls during one conservation walk of a
    fresh regularization, and the walk's report and margin."""
    rec = RecordingMartingale(base)
    lam = regularize(rec, nu)
    m = capital_margin(lam, w)
    return rec.calls, conservation_check(lam, nu, w, m, steps), m


def test_conservation_scans_once_per_step():
    # Each step asks the regularized martingale for one scan, which resumes
    # from where the last one stopped: all of a walk's base queries are at
    # power-of-two working precisions, and the base is asked for the root
    # once per precision, not once per step.  Inside w the walk asks for
    # the child taken, past w for both children.
    for base, nu, w in _conservation_walks(31, 8):
        calls, rep, m = _walk_queries(base, nu, w, 12)
        used = {q for q, _ in calls}
        assert all(q & (q - 1) == 0 for q in used)
        assert sum(1 for _, v in calls if v == "") <= len(used)
        fresh = regularize(base, nu)
        for s in rep.steps:
            prefix = rep.prefix[: s.index + 1]
            want = fresh.approx(query_precision(prefix[:-1], m), prefix)
            assert (s.capital.mantissa, s.capital.precision) == \
                (want.mantissa, want.precision)


def test_conservation_base_queries_grow_linearly():
    # A scan from the root at every step would make D(D+2) base queries in
    # D steps (3.9x per doubling).  Resumed, a step reads one new level,
    # and the rescans at each new working precision add up to O(D).
    # Counted over eight seeded walks, so that where one walk's precision
    # steps fall relative to D averages out.
    walks = list(_conservation_walks(31, 8))
    counts = [sum(len(_walk_queries(base, nu, w, steps)[0])
                  for base, nu, w in walks)
              for steps in (24, 48, 96, 192)]
    for short, long in zip(counts, counts[1:]):
        assert long <= 2.3 * short, counts


def test_sibling_query_makes_no_base_query():
    # approx(r, x + b) right after approx(r, x + (1 - b)) reads the fork
    # the first query's scan left on the path cursor: the base is not
    # asked again, and the answer is a fresh object's.
    rng = random.Random(23)
    for base, nu, _ in _conservation_walks(23, 6):
        rec = RecordingMartingale(base)
        lam = regularize(rec, nu)
        for _ in range(12):
            x = "".join(rng.choice("01") for _ in range(rng.randrange(12)))
            r = rng.randrange(24)
            first, second = rng.sample("01", 2)
            lam.approx(r, x + first)
            before = len(rec.calls)
            got = lam.approx(r, x + second)
            assert len(rec.calls) == before, (r, x)
            want = regularize(base, nu).approx(r, x + second)
            assert (got.mantissa, got.precision) == \
                (want.mantissa, want.precision), (r, x)
        assert rec.calls                 # the first queries did ask


def test_mass_queries_do_not_grow_with_the_path(monkeypatch):
    # Both routes step from each node's mass to its children's, so a fresh
    # regularization's D-step walk and its value and approx at an n-bit
    # word make the same number of closed-form `mass` queries for every D
    # and n: one, the walk's precondition.  A regularization asks none,
    # since the root's mass is 1.  A route that asked `mass` per level
    # would make O(D + n) of them.
    calls = []
    mass = ProbabilityMeasure.mass

    def counted(nu, w):
        calls.append(w)
        return mass(nu, w)

    monkeypatch.setattr(ProbabilityMeasure, "mass", counted)
    for base, nu, w in _conservation_walks(37, 4):
        m = capital_margin(regularize(base, nu), w)
        counts = []
        for steps, n in ((8, 25), (32, 50), (128, 200)):
            del calls[:]
            lam = regularize(base, nu)
            conservation_check(lam, nu, w, m, steps)
            x = "".join(random.Random(n).choice("01") for _ in range(n))
            lam = regularize(base, nu)
            lam.value(x)
            lam.approx(16, x)
            counts.append(len(calls))
        assert counts == [1, 1, 1], counts


def test_conservation_memo_probes_grow_linearly():
    # Each step asks for the pair of a word one bit below the exact memo,
    # which the fill answers from the deepest memoized prefix in two
    # probes; max_capital probes each prefix once more.  A fill that
    # tested every prefix from the root would make about D**2 / 2.
    nu = uniform()
    base = TableMartingale({"": Dyadic(1, 2)}, 0, nu)
    for steps in (100, 400, 1600):
        lam = regularize(base, nu)
        m = capital_margin(lam, "")
        lam._memo = memo = ProbeCountingMemo(lam._memo)
        rep = conservation_check(lam, nu, "", m, steps)
        assert len(rep.steps) == steps and rep.max_capital == Fraction(1, 4)
        assert memo.probes <= 3 * steps + 3, (steps, memo.probes)


def test_conservation_stops_at_the_first_step_reaching_one():
    # At margin 0 the walk's roundings tie at every step, so it takes the
    # 0 side; capital 63/64 at 00 still fits, and 000 reaches 1 at step 2.
    t = {"": Dyadic(235, 8), "0": Dyadic(123, 7), "1": Dyadic(7, 3),
         "00": Dyadic(63, 6), "01": Dyadic(15, 4),
         "000": Dyadic(1, 0), "001": Dyadic(31, 5)}
    for n in range(3):
        for v in strings_of_length(n):
            for b in "01":
                t.setdefault(v + b, t[v])
    mu = uniform()
    rec = RecordingMartingale(TableMartingale(t, 3, mu))
    with pytest.raises(PreconditionError, match="at step 2;"):
        conservation_check(rec, mu, "", 0, 8)
    assert rec.calls
    assert max(len(v) for _, v in rec.calls) == 3
