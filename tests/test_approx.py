"""Every martingale's canonical approximation: approx(r, w) lies on the
2**-r grid and within 2**-r of value(w), for every Martingale subclass,
and a martingale that keeps state between queries answers each one as a
fresh object would."""

from __future__ import annotations

import importlib
import pkgutil
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import cantorbet
from cantorbet.core import Dyadic, strings_shorter_than
from cantorbet.errors import DomainError, PreconditionError
from cantorbet.measure import biased, dump_measure, load_measure, uniform
from cantorbet.martingale import (
    ConstantMartingale, Martingale, RegularizedMartingale, SumMartingale,
    TableMartingale,
)
from cantorbet.splitting import (
    DiffMartingale, IndicatorMartingale, LimitMeasurement,
    LimitPlusMartingale, MemoMartingale, SliceMartingale, cylinder,
)

from helpers import (
    SHALLOW_WITNESS_MEASURE, build_measure, build_table_martingale,
    random_conditionals, random_martingale_table, random_witnessed_measure,
)


def _measure(rng: random.Random):
    """A weakly positive measure, its conditionals and its table depth.

    About 15 % of a table measure's splits are degenerate (conditional 0
    or 1); below the table every measure keeps splitting.
    """
    kind = rng.randrange(3)
    depth = rng.randrange(1, 4)
    if kind == 0:
        cond = random_conditionals(rng, depth, precision=3, zeros=True)
        return build_measure(cond, depth, precision=3), cond, depth
    p = Dyadic(1, 1) if kind == 1 else Dyadic(rng.choice([1, 3, 5, 7]), 3)
    nu = uniform() if kind == 1 else biased(p)
    cond = {format(i, f"0{n}b") if n else "": p
            for n in range(depth) for i in range(1 << n)}
    return nu, cond, depth


def _word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _build(kind: str, rng: random.Random):
    nu, cond, depth = _measure(rng)

    def table():
        return build_table_martingale(rng, nu, cond, depth)

    if kind == "Table":
        return table()
    if kind == "Constant":
        return ConstantMartingale(Fraction(rng.randrange(1, 50), 3), nu)
    if kind == "Sum":
        left = table() if rng.randrange(2) else \
            RegularizedMartingale(table(), nu)
        right = table() if rng.randrange(2) else \
            ConstantMartingale(Fraction(rng.randrange(1, 50), 3), nu)
        return SumMartingale(left, right)
    if kind == "Regularized":
        return RegularizedMartingale(table(), nu)
    w = _word(rng, rng.randrange(0, depth + 2))
    if kind == "Slice":
        return SliceMartingale(w, nu, RegularizedMartingale(table(), nu),
                               nu.mass(w))
    if kind == "Diff":
        lam = RegularizedMartingale(table(), nu)
        return DiffMartingale(lam, SliceMartingale(w, nu, lam, nu.mass(w)))
    if kind == "Indicator":
        return IndicatorMartingale(w, nu)
    if kind == "Memo":
        return MemoMartingale(table() if rng.randrange(2) else
                              RegularizedMartingale(table(), nu), nu, w)
    assert kind == "LimitPlus"
    stages = [cylinder(_word(rng, rng.randrange(0, 4)), nu)
              for _ in range(rng.randrange(1, 4))]
    d = LimitMeasurement(stages).plus(table())
    assert isinstance(d, LimitPlusMartingale)
    return d


KINDS = ["Table", "Constant", "Sum", "Regularized", "Slice", "Diff",
         "Indicator", "Memo", "LimitPlus"]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_kinds_name_every_martingale_subclass():
    # a subclass added to the package without a builder above fails here
    for mod in pkgutil.iter_modules(cantorbet.__path__):
        importlib.import_module(f"cantorbet.{mod.name}")
    names = {c.__name__ for c in _subclasses(Martingale)
             if c.__module__.startswith("cantorbet.")}
    assert names == {kind + "Martingale" for kind in KINDS}


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1),
       path=st.text(alphabet="01", max_size=20),
       r=st.integers(0, 24))
def test_approx_on_grid_and_within_2_to_minus_r(kind, seed, path, r):
    d = _build(kind, random.Random(seed))
    got = d.approx(r, path)
    assert got.precision <= r
    assert abs(got.to_fraction() - d.value(path)) <= Fraction(1, 2 ** r)
    # the exact protocol: a reduced pair of ints, the same rational as value
    n, e = d.pair(path)
    assert type(n) is int and type(e) is int and e > 0 and gcd(n, e) == 1
    assert Fraction(n, e) == d.value(path)


@pytest.mark.parametrize("kind", KINDS)
def test_approx_checks_precision_then_word(kind):
    # `approx` checks its input the same way for every martingale
    d = _build(kind, random.Random(7 + KINDS.index(kind)))
    for r, w, want in [(-1, "0", "precision must be >= 0"),
                       (-1, "0a", "precision must be >= 0"),
                       (3, "0a", "not a binary string: '0a'")]:
        with pytest.raises(DomainError) as exc:
            d.approx(r, w)
        assert str(exc.value) == want, (r, w)


def test_nested_sum_approx_within_2_to_minus_r():
    rng = random.Random(5)
    for _ in range(300):
        nu, cond, depth = _measure(rng)
        d = SumMartingale(SumMartingale(
            build_table_martingale(rng, nu, cond, depth),
            build_table_martingale(rng, nu, cond, depth)),
            build_table_martingale(rng, nu, cond, depth))
        w = _word(rng, rng.randrange(8))
        r = rng.randrange(20)
        got = d.approx(r, w)
        assert abs(got.to_fraction() - d.value(w)) <= Fraction(1, 2 ** r)


def _split_conditionals(nu, cond, depth):
    """The conditional of every split shorter than `depth`: cond in nu's
    table, and below it the one the boundary node continues with (any
    one under a null node)."""
    out = dict(cond)
    for w in strings_shorter_than(depth):
        if len(w) >= nu.depth:
            u = w[:nu.depth]
            out[w] = nu.ext[1] if nu.ext[0] == "const" else cond[u[:-1]]
    return out


def test_loaded_measures_regularize_within_2_to_minus_r():
    """On each measure file that loads, a table martingale that bets 9
    levels below the measure's table, regularized, has approx(r, w)
    within 2**-r of value(w) at 8 and 9 levels below it.  Among the files
    are witnesses that fail in the table, and ones that fail only below
    depth + 2: approx tells a null split from a live one by the witness's
    threshold, so it needs weak positivity at every depth."""
    rng = random.Random(31)
    files = [(SHALLOW_WITNESS_MEASURE, {"": Dyadic(1, 2)})]
    for _ in range(60):
        nu, cond = random_witnessed_measure(rng)
        files.append((dump_measure(nu), cond))
    kinds, refused = set(), 0
    for text, cond in files:
        try:
            nu = load_measure(text)
        except PreconditionError:
            refused += 1
            continue
        kinds.add(nu.ext[0])
        depth = nu.depth + 9
        table = random_martingale_table(
            rng, _split_conditionals(nu, cond, depth), depth)
        d = RegularizedMartingale(TableMartingale(table, depth, nu), nu)
        for _ in range(12):
            w = _word(rng, depth - rng.randrange(2))
            r = rng.choice([4, 8, 12])
            assert abs(d.approx(r, w).to_fraction() - d.value(w)) \
                <= Fraction(1, 2 ** r), (text, w, r)
    assert kinds == {"const", "copy"} and refused


def _queries(rng: random.Random, n: int):
    """A seeded mix of queries: the path extends by one bit, backtracks,
    jumps to an unrelated word, stays or turns to its sibling; r goes up
    or down, except for a sibling, which is asked at the same r, as a
    diagonalization step asks for both children."""
    path, r = "", rng.randrange(4, 20)
    for _ in range(n):
        move = rng.randrange(7)
        if move == 6 and path:
            path = path[:-1] + "10"[int(path[-1])]
            yield r, path
            continue
        if move < 3:
            path += rng.choice("01")
        elif move == 3:
            path = path[:rng.randrange(len(path) + 1)]
        elif move == 4:
            path = _word(rng, rng.randrange(14))
        r = max(0, r + rng.choice((-5, -1, 0, 1, 2, 6)))
        yield r, path


def _grid(c: Dyadic):
    return c.mantissa, c.precision


@pytest.mark.parametrize("kind", KINDS)
def test_long_lived_martingale_answers_like_fresh_ones(kind):
    # A regularized martingale resumes each scan from the last one; its
    # answers must not depend on the queries it has seen before.
    rng = random.Random(41 + KINDS.index(kind))
    for _ in range(6):
        seed = rng.randrange(2 ** 32)
        d = _build(kind, random.Random(seed))
        for r, path in _queries(rng, 40):
            fresh = _build(kind, random.Random(seed))
            assert _grid(d.approx(r, path)) == _grid(fresh.approx(r, path)), \
                (r, path)
            if kind == "Regularized" and path:
                # below the final rounding too: every node's fork on the
                # path scanned is the one a scan from the root finds
                assert d._forks == fresh._forks, (r, path)
