"""Thirteen end-to-end acceptance checks, one visible verdict line each.

pytest captures stdout, so every criterion reports on the real stdout:
running the suite always prints the thirteen pass/FAIL lines, whatever
else the runner swallows.  Each check re-derives its expectations from
closed forms or exact arithmetic; nothing here trusts a cached number.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

from cantorbet.calibration import EVALUATOR_MARGIN, recalibrate
from cantorbet.core import Dyadic, ONE, growth, strings_of_length
from cantorbet.diagonal import capital_margin, conservation_check, diagonalize
from cantorbet.funalg import (
    Comp, Oracle, Pad, Proj, Smash, check_bound, length_functional,
    length_term, parse_secpoly,
)
from cantorbet.martingale import (
    SumMartingale, TableMartingale, is_regular, regularize, unit,
)
from cantorbet.measure import biased, uniform
from cantorbet.realfun import absolute_value, robin_hood_exact
from cantorbet.splitting import (
    IntersectUnion, LimitMeasurement, complement, cylinder, measure_value,
)

from helpers import (
    ACCEPTANCE_LINES, build_measure, build_table_martingale,
    random_conditionals, random_dyadic, random_martingale_table,
    random_transfer_point,
)


# the thirteen verdict lines as they read when every criterion passes with
# its check count; the CI workflow diffs the suite's report against them
VERDICTS = Path(__file__).with_name("acceptance_verdicts.txt")


def verdict(num: int, name: str, failures: list, checked: int) -> None:
    status = "pass" if not failures else "FAIL"
    line = f"criterion {num:02d} {name}: {status} [{checked} checks]"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert not failures, f"{name}: {len(failures)} failed, first {failures[:3]}"
    # a count that moves means the criterion checks something else
    assert line in VERDICTS.read_text().splitlines(), \
        f"{line!r} is not in {VERDICTS.name}"


def words_up_to(n: int) -> list[str]:
    return [w for k in range(n + 1) for w in strings_of_length(k)]


# -- 1: the averaging identity, exactly, at scale ---------------------------


def test_criterion_01_averaging_identity():
    rng = random.Random(1001)
    depth = 12
    setups = []
    for p in (Dyadic(1, 1), Dyadic(1, 2), Dyadic(5, 3)):
        nu = uniform() if p == Dyadic(1, 1) else biased(p)
        cond, mass = {}, {"": Dyadic(1, 0)}
        for w in words_up_to(depth - 1):
            cond[w] = p
            mass[w + "0"] = mass[w] * p
            mass[w + "1"] = mass[w] * (ONE - p)
        assert all(nu.mass(w) == mass[w] for w in words_up_to(5))
        setups.append((nu, cond, mass))
    parents = words_up_to(depth - 1)
    failures, checked = [], 0
    for i in range(200):
        nu, cond, mass = setups[i % 3]
        d = TableMartingale(random_martingale_table(rng, cond, depth),
                            depth, nu, validate=False)
        t = d.table
        for w in parents:
            checked += 1
            if t[w] * mass[w] != (t[w + "0"] * mass[w + "0"]
                                  + t[w + "1"] * mass[w + "1"]):
                failures.append((i, w))
    verdict(1, "averaging identity exact to depth 12", failures, checked)


# -- 2: the capital transfer's defining properties --------------------------


def test_criterion_02_transfer_properties():
    rng = random.Random(1002)
    failures, checked = [], 0
    for alpha in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)):
        for _ in range(1000):
            s, t = random_transfer_point(rng, alpha)
            s2, t2 = robin_hood_exact(alpha, s, t)
            mean = alpha * s + (1 - alpha) * t
            ok = alpha * s2 + (1 - alpha) * t2 == mean
            if mean >= 1:
                ok = ok and s2 >= 1 and t2 >= 1
            ok = ok and s2 >= min(Fraction(1), s) and t2 >= min(Fraction(1), t)
            if 0 <= s <= 1 and 0 <= t <= 1:
                ok = ok and (s2, t2) == (s, t)
            checked += 1
            if not ok:
                failures.append((alpha, s, t))
    verdict(2, "capital transfer properties exact", failures, checked)


# -- 3: rebalancing: root kept, regular, coverage preserved -----------------


def _covered_leaves(d, nu, depth: int) -> set[str]:
    """Leaves of positive mass whose path saw capital >= 1.

    Null subtrees are pruned: below them the base table is unconstrained
    (the averaging identity is vacuous there), so coverage only means
    anything along paths the measure can see.
    """
    out: set[str] = set()
    stack = [("", False)]
    while stack:
        w, reached = stack.pop()
        if nu.mass(w).mantissa == 0:
            continue
        reached = reached or d.value(w) >= 1
        if len(w) == depth:
            if reached:
                out.add(w)
            continue
        stack.append((w + "0", reached))
        stack.append((w + "1", reached))
    return out


def test_criterion_03_regularization():
    rng = random.Random(1003)
    depth = 10
    failures, checked = [], 0
    for nu in (uniform(), build_measure(random_conditionals(rng, 4), 4)):
        lam1 = regularize(unit(nu), nu)
        bad = [w for w in words_up_to(depth) if lam1.value(w) != 1]
        checked += 2 ** (depth + 1) - 1
        if bad:
            failures.append(("unit", bad[0]))
    for i in range(200):
        cond = random_conditionals(rng, depth, zeros=(i % 4 == 0))
        nu = build_measure(cond, depth)
        d = build_table_martingale(rng, nu, cond, depth)
        lam = regularize(d, nu)
        checked += 3
        if lam.value("") != d.value(""):
            failures.append((i, "root value moved"))
        elif not is_regular(lam, depth):
            failures.append((i, "not regular"))
        elif not _covered_leaves(d, nu, depth) <= _covered_leaves(lam, nu, depth):
            failures.append((i, "lost coverage"))
    verdict(3, "rebalanced martingales stay faithful", failures, checked)


# -- 4: measuring a cylinder recovers its mass ------------------------------


def test_criterion_04_cylinder_values():
    failures, checked = [], 0
    for nu in (uniform(), biased(Dyadic(1, 2))):
        for w in words_up_to(4):
            op = cylinder(w, nu)
            target = nu.mass(w).to_fraction()
            for r in range(4, 11):
                got = measure_value(op, r)
                checked += 1
                if abs(got.to_fraction() - target) > Fraction(1, 2 ** r):
                    failures.append((w, r))
    verdict(4, "cylinder measurements within tolerance", failures, checked)


# -- 5: splitting never mints capital beyond its precision ------------------


def _operator_pools():
    uni, bia = uniform(), biased(Dyadic(1, 2))
    w3, w4 = words_up_to(3), words_up_to(4)
    pool_uni = [cylinder(w, uni) for w in w4]
    pool_uni += [complement(cylinder(w, uni)) for w in w3]
    pool_uni += [IntersectUnion(cylinder(u, uni), cylinder(v, uni), which)
                 for u in w3 for v in w3 for which in ("cap", "cup")]
    pool_bia = [cylinder(w, bia) for w in w4]
    return (uni, pool_uni), (bia, pool_bia)


def test_criterion_05_splitting_surplus():
    rng = random.Random(1005)
    failures, checked = [], 0
    for (nu, pool), p in zip(_operator_pools(), (Dyadic(1, 1), Dyadic(1, 2))):
        cond = {w: p for w in words_up_to(5)}
        ds = [build_table_martingale(rng, nu, cond, 6) for _ in range(50)]
        for i, op in enumerate(pool):
            for j, d in enumerate(ds):
                r = (i * 50 + j) % 11
                plus = op.plus(d).value("")
                minus = op.minus(d).value("")
                checked += 1
                if plus + minus > d.value("") + Fraction(1, 2 ** r):
                    failures.append((i, j, r))
    verdict(5, "splitting surplus bounded by 2^-r", failures, checked)


# -- 6: the measure algebra adds up -----------------------------------------


def test_criterion_06_inclusion_exclusion():
    nu = uniform()
    w3 = words_up_to(3)
    failures, checked = [], 0
    for r in (4, 8, 10):
        tol = Fraction(2, 2 ** r)
        for u in w3:
            for v in w3:
                cup = measure_value(
                    IntersectUnion(cylinder(u, nu), cylinder(v, nu), "cup"), r)
                cap = measure_value(
                    IntersectUnion(cylinder(u, nu), cylinder(v, nu), "cap"), r)
                both = cup.to_fraction() + cap.to_fraction()
                want = (nu.mass(u) + nu.mass(v)).to_fraction()
                checked += 1
                if abs(both - want) > tol:
                    failures.append(("pair", u, v, r))
        for v in w3:
            got = measure_value(complement(cylinder(v, nu)), r)
            want = 1 - nu.mass(v).to_fraction()
            checked += 1
            if abs(got.to_fraction() - want) > Fraction(2, 2 ** r):
                failures.append(("compl", v, r))
    verdict(6, "inclusion-exclusion and complements", failures, checked)


# -- 7: the constructed sequence starves the bettor -------------------------


def test_criterion_07_capital_conservation():
    rng = random.Random(1007)
    depth = 14
    failures, checked = [], 0
    for i in range(100):
        cond = random_conditionals(rng, 6)
        nu = build_measure(cond, 6)
        base = random_martingale_table(rng, cond, 6)
        w = "0" if nu.mass("0") >= nu.mass("1") else "1"
        # the heavier side has mass >= 1/2 and the root holds at most 2, so
        # dividing all capital by 8 lands it strictly inside the cylinder
        d = TableMartingale({u: Dyadic(v.mantissa, v.precision + 3)
                             for u, v in base.items()}, 6, nu)
        m = capital_margin(d, w)
        rep = conservation_check(d, nu, w, m, depth)
        checked += 1
        if not rep.max_capital < 1:
            failures.append((i, "capital reached 1"))
            continue
        delta, x = diagonalize(d, m, w), ""
        for _ in range(depth):
            y = delta(x)
            checked += 1
            if len(y) <= len(x) or not y.startswith(x):
                failures.append((i, "constructor did not extend", x))
                break
            x = y
    verdict(7, "conserved capital stays below 1", failures, checked)


# -- 8: adding strategies keeps canonical accuracy --------------------------


def test_criterion_08_sum_accuracy():
    rng = random.Random(1008)
    failures, checked = [], 0
    pool = []
    for _ in range(25):
        cond = random_conditionals(rng, 5)
        nu = build_measure(cond, 5)
        pool.append((nu, [build_table_martingale(rng, nu, cond, 5)
                          for _ in range(4)]))
    for _ in range(1000):
        nu, ds = pool[rng.randrange(len(pool))]
        s = SumMartingale(ds[rng.randrange(4)], ds[rng.randrange(4)])
        n = rng.randrange(8)
        w = "".join(rng.choice("01") for _ in range(n))
        r = rng.randrange(13)
        got = s.approx(r, w)
        checked += 1
        if got.precision > r or abs(got.to_fraction() - s.value(w)) > \
                Fraction(1, 2 ** r):
            failures.append((w, r))
    verdict(8, "summed approximations stay canonical", failures, checked)


# -- 9: the glued absolute value tracks |x| ---------------------------------


def test_criterion_09_pasted_absolute_value():
    rng = random.Random(1009)
    h = absolute_value()
    failures, checked = [], 0
    for _ in range(1000):
        x = random_dyadic(rng)
        n = rng.randrange(21)
        got = h.approx(n, (x,))[0]
        checked += 1
        if abs(got.to_fraction() - abs(x.to_fraction())) > Fraction(1, 2 ** n):
            failures.append((x, n))
    verdict(9, "pasted |x| accurate to 2^-n", failures, checked)


# -- 10: the in-algebra length functional is the real one -------------------


def _random_oracle(rng: random.Random) -> Oracle:
    table = {}
    for w in words_up_to(4):
        if rng.random() < 0.5:
            table[w] = "".join(rng.choice("01")
                               for _ in range(rng.randrange(9)))
    return Oracle.from_table(table, "1" * rng.randrange(4))


def test_criterion_10_length_functional():
    rng = random.Random(1010)
    failures, checked = [], 0
    for i in range(50):
        f = _random_oracle(rng)
        x = "1" * (i % 7)
        via_term = length_functional(f, x, method="term")
        brute = length_functional(f, x, method="brute")
        checked += 1
        if via_term != brute:
            failures.append((i, x))
    verdict(10, "length functional term equals brute force", failures, checked)


# -- 11: the growth hierarchy's closed forms --------------------------------


def test_criterion_11_growth_closed_forms():
    failures, checked = [], 0
    for k in range(11):
        n = 1 << k
        checked += 1
        if growth(1, n) != n * n:
            failures.append(("g1", n))
    for k in range(6):
        checked += 1
        if growth(2, 1 << k) != 1 << (k * k):
            failures.append(("g2", k))
    verdict(11, "growth scale closed forms", failures, checked)


# -- 12: an increasing union measured in the limit --------------------------


def test_criterion_12_limit_of_union():
    nu = uniform()
    stages = [cylinder("000", nu)]
    stages.append(IntersectUnion(stages[0], cylinder("001", nu), "cup"))
    stages.append(IntersectUnion(stages[1], cylinder("01", nu), "cup"))
    lim = LimitMeasurement(stages)
    failures, checked = [], 0
    for r in range(9):
        got = measure_value(lim, r)
        checked += 1
        if abs(got.to_fraction() - Fraction(1, 2)) > Fraction(1, 2 ** r):
            failures.append(r)
    verdict(12, "limit union converges to 1/2", failures, checked)


# -- 13: metering agrees with the declared growth bounds --------------------


def test_criterion_13_metering_bounds():
    failures, checked = [], 0
    slacks = recalibrate()
    checked += len(slacks)
    for name, c in slacks.items():
        if c > EVALUATOR_MARGIN:
            failures.append(("margin too small", name, c))

    pad_poly = parse_secpoly(f"g1(n1) + {EVALUATOR_MARGIN}")
    for n in range(1, 13):
        rep = check_bound(Pad(1), pad_poly, (), ("1" * n,))
        checked += 1
        if not rep.within:
            failures.append(("pad", n, rep.render()))

    rng = random.Random(1013)
    space_poly = parse_secpoly(f"g1(L1(n1) + n1 + {EVALUATOR_MARGIN})")
    for i in range(5):
        rep = check_bound(length_term(), space_poly,
                          (_random_oracle(rng),), ("1" * (i + 2),))
        checked += 1
        if not rep.within_length:
            failures.append(("length space", i, rep.render()))

    x2 = Comp(Smash(), (Proj(0), Proj(0)))
    x4 = Comp(Smash(), (x2, x2))
    x8 = Comp(Smash(), (x4, x4))
    rep = check_bound(x8, pad_poly, (), ("1" * 4,))
    checked += 1
    if rep.within_steps or rep.within_length:
        failures.append(("tower not flagged", rep.render()))
    verdict(13, "metering matches declared bounds", failures, checked)
