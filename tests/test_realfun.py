"""Pasting and the Robin Hood transfer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cantorbet.core import Dyadic, HALF, frac_round_at
from cantorbet.errors import DomainError
from cantorbet.realfun import (
    from_exact, paste, robin_hood_exact, robin_hood_pipeline, identity1,
    negate1, absolute_value, ceil_log2, transfer_cases, weight_bits,
)

from helpers import random_transfer_point

ALPHAS = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]


def mean(a, s, t):
    return a * s + (1 - a) * t


def _least_power_at_least(q):
    """Least k >= 0 with q <= 2**k, by search."""
    k = 0
    while q > 2 ** k:
        k += 1
    return k


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(Fraction(4, 3)) == 1
    assert ceil_log2(Fraction(1, 3)) == 0
    assert ceil_log2(9) == 4
    for j in range(200):
        assert ceil_log2(Fraction(2 ** j)) == j
        assert ceil_log2(Fraction(2 ** j) + Fraction(1, 2 ** 300)) == j + 1
        assert ceil_log2(Fraction(1, 2 ** j)) == 0
    rng = random.Random(3)
    for _ in range(3000):
        q = Fraction(rng.randrange(1, 1 << rng.randrange(1, 90)),
                     rng.randrange(1, 1 << rng.randrange(1, 90)))
        assert ceil_log2(q) == _least_power_at_least(q)
    with pytest.raises(DomainError):
        ceil_log2(0)


def test_weight_bits_is_log2_of_the_slope():
    rng = random.Random(4)
    for _ in range(1000):
        den = rng.randrange(2, 1 << rng.randrange(2, 60))
        a = Fraction(rng.randrange(1, den), den)
        assert weight_bits(a.numerator, a.denominator) == \
            _least_power_at_least(max(Fraction(1), 1 / a, 1 / (1 - a)))


# ---------------------------------------------------------------------------
# pasting
# ---------------------------------------------------------------------------

def test_paste_absolute_value_point():
    h = absolute_value()
    for n in range(0, 15):
        got = h.approx(n, (Dyadic(-1, 1),))[0]
        assert abs(got.to_fraction() - Fraction(1, 2)) <= Fraction(1, 2 ** n)


def test_paste_accuracy_random():
    rng = random.Random(31)
    h = absolute_value()
    for _ in range(100):
        x = Dyadic(rng.randrange(-1 << 10, 1 << 10), rng.randrange(8))
        n = rng.randrange(21)
        got = h.approx(n, (x,))[0]
        assert abs(got.to_fraction() - abs(x.to_fraction())) \
            <= Fraction(1, 2 ** n)


def test_paste_guard_always_positive_is_left_branch():
    f = identity1()
    h = paste(f, negate1(), absolute_value())
    for x in [Dyadic(-3, 1), Dyadic(5, 2), Dyadic(0, 0)]:
        for n in (2, 8, 14):
            got = h.approx(n, (x,))[0]
            assert abs(got.to_fraction() - x.to_fraction()) \
                <= Fraction(1, 2 ** n)


def test_paste_boundary_agrees_with_both():
    h = absolute_value()
    for n in range(12):
        got = h.approx(n, (Dyadic(0, 0),))[0]
        assert abs(got.to_fraction()) <= Fraction(2, 2 ** n)


def test_paste_modulus_is_max():
    f = identity1()          # modulus n
    g = negate1()            # modulus n
    k = robin_hood_pipeline(Fraction(1, 4))  # wrong arity though
    slow = paste(f, g, identity1())
    assert slow.modulus(7) == 7
    with pytest.raises(DomainError, match="shared arity"):
        paste(f, k, identity1())     # arity mismatch
    with pytest.raises(DomainError, match="shared arity"):
        paste(f, g, robin_hood_pipeline(HALF))  # arity mismatch


def test_paste_checks_coarities_on_equal_arities():
    pair = from_exact(1, 2, lambda xs: (xs[0], xs[0]), lambda n: n)
    for f, g in ((identity1(), pair), (pair, identity1())):
        with pytest.raises(DomainError,
                           match="paste branches must share a coarity"):
            paste(f, g, identity1())
    with pytest.raises(DomainError, match="paste guard must be scalar"):
        paste(identity1(), negate1(), pair)


def test_paste_exact_branching():
    h = absolute_value()
    assert h.exact((Fraction(-2, 3),)) == (Fraction(2, 3),)
    assert h.exact((Fraction(5, 8),)) == (Fraction(5, 8),)


# ---------------------------------------------------------------------------
# Robin Hood: frozen points
# ---------------------------------------------------------------------------

def test_rh_identity_on_unit_square():
    assert robin_hood_exact(HALF, HALF, HALF) == (Fraction(1, 2), Fraction(1, 2))
    assert robin_hood_exact(HALF, 0, 1) == (Fraction(0), Fraction(1))


def test_rh_mean_case():
    assert robin_hood_exact(HALF, 3, 1) == (Fraction(2), Fraction(2))
    assert robin_hood_exact(Fraction(1, 4), 9, 1) == (Fraction(3), Fraction(3))


def test_rh_give_right_case():
    got = robin_hood_exact(HALF, Fraction(3, 2), Fraction(1, 5))
    assert got == (Fraction(1), Fraction(7, 10))
    # the average is untouched
    assert mean(HALF.to_fraction(), *got) == Fraction(17, 20)


def test_rh_give_left_case():
    a = Fraction(1, 2)
    got = robin_hood_exact(a, Fraction(1, 5), Fraction(3, 2))
    assert got == (Fraction(7, 10), Fraction(1))


def test_rh_non_dyadic_output():
    a = Fraction(1, 4)
    got = robin_hood_exact(a, Fraction(3, 2), Fraction(1, 5))
    assert got == (Fraction(1), Fraction(11, 30))
    assert mean(a, *got) == mean(a, Fraction(3, 2), Fraction(1, 5))


def test_rh_negative_coordinate_high_mean():
    # legal: mean >= 1 admits negative coordinates
    got = robin_hood_exact(HALF, Fraction(-1, 2), Fraction(5, 2))
    assert got == (Fraction(1), Fraction(1))
    got = robin_hood_exact(HALF, Fraction(-1, 2), 4)
    assert got == (Fraction(7, 4), Fraction(7, 4))


def test_rh_domain_errors():
    with pytest.raises(DomainError):
        robin_hood_exact(HALF, -1, 0)
    with pytest.raises(DomainError):
        robin_hood_exact(HALF, Fraction(1, 2), Fraction(-1, 8))
    with pytest.raises(DomainError):
        robin_hood_exact(Fraction(3, 2), 1, 1)


def _grid_weights(rng):
    """Weights A/B, 0 < A < B, drawn on the 2**-k grids for several k, and
    scaled by a random factor, since a split's weight comes unreduced."""
    for k in (1, 2, 3, 8, 40):
        for _ in range(6):
            A = rng.randrange(1, 1 << k)
            c = rng.randrange(1, 9)
            yield A * c, c << k


def _outside_the_domain(rng, A, B, one):
    """Pairs with a negative coordinate and a mean below 1, one of each
    kind: s >= one with t < 0, t >= one with s < 0, both negative, and one
    coordinate in [0, one) with the other negative."""
    s = one + rng.randrange(0, 4 * one + 1)
    t_top = min(-1, -(-(B * one - A * s) // (B - A)) - 1)
    yield s, t_top - rng.randrange(0, 3 * one + 1)
    t = one + rng.randrange(0, 4 * one + 1)
    s_top = min(-1, -(-(B * one - (B - A) * t) // A) - 1)
    yield s_top - rng.randrange(0, 3 * one + 1), t
    yield -rng.randrange(1, 4 * one + 1), -rng.randrange(1, 4 * one + 1)
    yield rng.randrange(0, one), -rng.randrange(1, 4 * one + 1)
    yield -rng.randrange(1, 4 * one + 1), rng.randrange(0, one)


def test_transfer_cases_refuses_every_pair_outside_the_domain():
    rng = random.Random(71)
    refused = inside = 0
    for A, B in _grid_weights(rng):
        a = Fraction(A, B)
        pipe = robin_hood_pipeline(a)
        for one in (1, 2, 1 << 5, 1 << 40):
            for s, t in _outside_the_domain(rng, A, B, one):
                assert (s < 0 or t < 0) and A * s + (B - A) * t < B * one
                want = (f"({Fraction(s, one)}, {Fraction(t, one)}) outside "
                        f"the transfer domain for {a}")
                with pytest.raises(DomainError) as e:
                    transfer_cases(A, B, s, t, one)
                assert str(e.value) == want
                with pytest.raises(DomainError) as e:
                    robin_hood_exact(a, Fraction(s, one), Fraction(t, one))
                assert str(e.value) == want
                refused += 1
            for _ in range(5):
                s, t = (rng.randrange(-4 * one, 4 * one + 1)
                        for _ in range(2))
                if (s < 0 or t < 0) and A * s + (B - A) * t < B * one:
                    continue
                (n0, d0), (n1, d1) = transfer_cases(A, B, s, t, one)
                assert (Fraction(n0, d0 * one), Fraction(n1, d1 * one)) == \
                    pipe.exact((Fraction(s, one), Fraction(t, one)))
                inside += 1
    assert refused == 30 * 4 * 5 and inside > 200
    # the two pairs the weight 1/2 used to answer without a word
    for s, t in ((3, -2), (-2, 3)):
        with pytest.raises(DomainError, match="outside the transfer domain"):
            transfer_cases(1, 2, s, t, 1)


# ---------------------------------------------------------------------------
# Robin Hood: properties on random domain points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", ALPHAS)
def test_rh_properties(a):
    rng = random.Random(int(a * 64))
    for _ in range(200):
        s, t = random_transfer_point(rng, a)
        u, v = robin_hood_exact(a, s, t)
        # average preserved, exactly
        assert mean(a, u, v) == mean(a, s, t)
        # high mean floors both at 1
        if mean(a, s, t) >= 1:
            assert u >= 1 and v >= 1
        # never steals below min(1, own value)
        assert u >= min(1, s) and v >= min(1, t)
        # unit square fixed
        if 0 <= s <= 1 and 0 <= t <= 1:
            assert (u, v) == (s, t)


@pytest.mark.parametrize("a", ALPHAS)
def test_rh_output_in_quadrant(a):
    rng = random.Random(99)
    for _ in range(200):
        s, t = random_transfer_point(rng, a)
        u, v = robin_hood_exact(a, s, t)
        assert u >= 0 and v >= 0


# ---------------------------------------------------------------------------
# pipeline route vs direct route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", ALPHAS)
def test_pipeline_exact_agrees(a):
    pipe = robin_hood_pipeline(a)
    rng = random.Random(7)
    for _ in range(300):
        s, t = random_transfer_point(rng, a)
        assert pipe.exact((s, t)) == robin_hood_exact(a, s, t)


@pytest.mark.parametrize("a", ALPHAS)
def test_pipeline_approx_accuracy(a):
    pipe = robin_hood_pipeline(a)
    rng = random.Random(13)
    for _ in range(60):
        s, t = random_transfer_point(rng, a, precision=4)
        want = robin_hood_exact(a, s, t)
        n = rng.randrange(13)
        got = pipe.approx(n, (frac_round_at(s, 8), frac_round_at(t, 8)))
        for gi, wi in zip(got, want):
            assert abs(gi.to_fraction() - wi) <= Fraction(1, 2 ** n)


def test_pipeline_seam_points():
    pipe = robin_hood_pipeline(HALF)
    for (s, t) in [(1, 1), (Fraction(3, 2), Fraction(1, 2)), (1, 0),
                   (Fraction(1, 2), Fraction(3, 2)), (2, 0), (0, 2)]:
        want = robin_hood_exact(HALF, s, t)
        got = pipe.exact((s, t))
        assert got == want
        approx = pipe.approx(10, (frac_round_at(s, 6), frac_round_at(t, 6)))
        for gi, wi in zip(approx, want):
            assert abs(gi.to_fraction() - wi) <= Fraction(1, 2 ** 10)


@given(st.integers(min_value=-64, max_value=256), st.integers(min_value=-64, max_value=256))
def test_rh_half_mean_preserved(sm, tm):
    s, t = Fraction(sm, 64), Fraction(tm, 64)
    if not ((s >= 0 and t >= 0) or s + t >= 2):
        return
    u, v = robin_hood_exact(HALF, s, t)
    assert u + v == s + t
