"""Hand-worked cases for the benchmark's reference computations.

    python3 -m pytest -q perfbench/test_reference.py
    python3 perfbench/test_reference.py
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction as F

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def test_mass_closed_form():
    # p^#0 (1-p)^#1: two zeros and a one under p = 1/4
    assert ref.MeasureModel.coin(F(1, 4)).mass("001") == F(3, 64)
    assert ref.MeasureModel.coin(F(1, 2)).mass("") == 1
    assert ref.MeasureModel.coin(F(1, 2)).mass("1010") == F(1, 16)


def test_mass_copy_rule():
    # depth-1 table 1 -> (1/4, 3/4); below "0" the split 1/4 : 3/4 repeats
    m = ref.MeasureModel({"": 1, "0": F(1, 4), "1": F(3, 4)}, 1, ("copy",))
    assert m.mass("01") == F(1, 4) * F(3, 4)
    assert m.mass("100") == F(3, 4) * F(1, 4) * F(1, 4)
    assert m.conditional("") == F(1, 4)
    assert m.conditional("1") == F(1, 4)


def test_transfer_four_cases():
    half = F(1, 2)
    assert ref.transfer(half, F(1, 2), F(1, 4)) == (F(1, 2), F(1, 4))
    assert ref.transfer(half, F(3), F(1)) == (F(2), F(2))
    # mean 3/4: the first coordinate keeps 1, the other gets the rest
    assert ref.transfer(half, F(3, 2), F(0)) == (F(1), F(1, 2))
    assert ref.transfer(F(1, 4), F(0), F(5, 4)) == (F(3, 4), F(1))
    try:
        ref.transfer(half, F(-1), F(1, 2))
    except ValueError:
        pass
    else:
        raise AssertionError("point outside the domain accepted")


def test_regularization_pins_capital_at_one():
    # stake 3/4 on 0 from 1/2 under biased:3/8: the base goes
    # 1/2, 9/8, 81/32, 729/128; the rebalanced capital reaches 1 at "0"
    # (case s >= 1, other side (1/2 - 3/8)/(5/8) = 1/5) and stays 1
    model = ref.MeasureModel.coin(F(3, 8))

    def base(u):
        v = F(1, 2)
        for b in u:
            v *= F(9, 4) if b == "0" else F(1, 4)
        return v

    path = ref.regularized_path(base, model, "000")
    assert path[0] == (F(1, 2), F(1, 2))
    assert path[1] == (F(1), F(1, 5))
    assert path[2] == (F(1), F(1))
    assert path[3] == (F(1), F(1))


def test_set_measure_truth_table():
    uni = ref.MeasureModel.coin(F(1, 2))
    cup = ("cup", ("cyl", "00"), ("cyl", "01"))
    assert ref.set_measure(cup, uni) == F(1, 2)
    quarter = ref.MeasureModel.coin(F(1, 4))
    assert ref.set_measure(("compl", ("cyl", "1")), quarter) == F(1, 4)
    cap = ("cap", ("cyl", "0"), ("cyl", "01"))
    assert ref.set_measure(cap, quarter) == F(3, 16)
    lim = ("limit", [("cyl", "1"), cup], 1)
    assert ref.set_measure(lim, uni) == F(1, 2)
    assert ref.expr_text(lim) == "(limit (cyl 1) (cup (cyl 00) (cyl 01)) 1)"
    assert ref.set_measure(("cyl", ""), quarter) == 1


def test_longest_answer_brute_force():
    table = {"": "1", "0": "101", "11": "1111"}
    assert ref.longest_answer(table, "11", 0) == 1
    assert ref.longest_answer(table, "11", 1) == 3     # "1" gets the default
    assert ref.longest_answer(table, "11", 2) == 4


def test_growth_bounds():
    def L(n):
        return [1, 3, 4][n]

    assert ref.BOUNDS["g1(L1(n1) + n1 + 8)"](L, 1) == (3 + 1 + 8) ** 2
    assert ref.BOUNDS["8 * n1 * L1(n1) + 4 * g1(n1) + 64"](L, 2) == \
        8 * 2 * 4 + 4 * 4 + 64


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"{name}: ok")
