from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gwvir.errors import ParseError, PolicyMismatch
from gwvir.rationals import format_rational, parse_rational
from gwvir.series import (TruncatedSeries, TruncationPolicy, VarId,
                          monomial, series_derive, series_mul)

POLICY = TruncationPolicy(4, 2, (2,))
X = VarId(0, 1)
Y = VarId(1, 2)


def var(policy, v):
    return TruncatedSeries.variable(policy, v)


def rand_series(rng: random.Random, policy=POLICY) -> TruncatedSeries:
    vids = [VarId(m, a) for m in range(policy.max_level + 1) for a in (1, 2)]
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = {}
        for _ in range(rng.randint(0, policy.max_insertions)):
            v = rng.choice(vids)
            exps[v] = exps.get(v, 0) + 1
        if sum(exps.values()) > policy.max_insertions:
            continue
        deg = tuple(rng.randint(0, d) for d in policy.max_degree)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        mon = monomial(exps.items(), deg)
        if coeff:
            terms[mon] = terms.get(mon, Fraction(0)) + coeff
    return TruncatedSeries(policy, terms)


# --- rationals ---------------------------------------------------------------

def test_rational_round_trip():
    for txt in ("0", "5/7", "-3/4", "12", "-1"):
        assert format_rational(parse_rational(txt)) == txt


def test_rational_rejects_non_canonical():
    for bad in ("1/0", "2/-3", " 1/2", "1.5", "1/2 ", "+3", "",
                "\u0661", "1\n", "\u0661/2", "1/\u0662"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_rational_formats_lowest_terms():
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-6, 3)) == "-2"


def _sevens(digits: int) -> int:
    return sum(7 * 10 ** i for i in range(digits))  # 77...7 without int(str)


def test_rational_past_int_str_digit_limit():
    # Python's int <-> str conversion refuses more than 4,300 digits by default.
    n = _sevens(6000)
    assert format_rational(Fraction(n)) == "7" * 6000
    assert format_rational(Fraction(-n, 10 ** 5200 + 1)) == \
        "-" + "7" * 6000 + "/1" + "0" * 5199 + "1"
    assert parse_rational("7" * 6000) == n
    assert parse_rational("-" + "7" * 6000 + "/3") == Fraction(-n, 3)
    rng = random.Random(4300)
    for _ in range(20):
        x = Fraction(rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 40000)),
                     rng.getrandbits(rng.randint(1, 30000)) or 1)
        assert parse_rational(format_rational(x)) == x


# --- spec examples -----------------------------------------------------------

def test_add_additive_inverse():
    s = var(POLICY, X).scale(2) + var(POLICY, X).scale(-2)
    assert s.is_zero()


def test_add_rationals():
    s = var(POLICY, X).scale(Fraction(1, 2)) + var(POLICY, X).scale(Fraction(1, 3))
    mon = monomial([(X, 1)], (0,))
    assert s.coefficient(mon) == Fraction(5, 6)


def test_add_identity():
    rng = random.Random(7)
    s = rand_series(rng)
    assert s + TruncatedSeries(POLICY) == s


def test_add_scaled_matches_add_and_scale():
    rng = random.Random(8)
    for factor in (Fraction(-3, 2), Fraction(1), Fraction(0), Fraction(2, 5)):
        a, b = rand_series(rng), rand_series(rng)
        expect = a + b.scale(factor)
        b_before = dict(b.terms)
        acc = TruncatedSeries(POLICY) + a
        assert acc.add_scaled(b, factor) is acc
        assert acc == expect and b.terms == b_before
        assert 0 not in acc.terms.values()
    a = rand_series(rng)
    acc = TruncatedSeries(POLICY) + a
    assert acc.add_scaled(a, -1).is_zero()


def test_accumulate_into_an_operand():
    rng = random.Random(9)
    for factor in (Fraction(1, 2), Fraction(-1), Fraction(3, 7), 2):
        s = rand_series(rng)
        if s.is_zero():
            continue
        expect_scaled = s + s.scale(factor)
        expect_product = s + series_mul(s, s).scale(factor)
        expect_mixed = s + series_mul(s, var(POLICY, X)).scale(factor)
        acc = s + TruncatedSeries(POLICY)
        assert acc.add_scaled(acc, factor) == expect_scaled
        acc = s + TruncatedSeries(POLICY)
        assert acc.add_product(acc, acc, factor) == expect_product
        acc = s + TruncatedSeries(POLICY)
        assert acc.add_product(var(POLICY, X), acc, factor) == expect_mixed


def test_mul_simple_and_truncation_boundary():
    xy = series_mul(var(POLICY, X), var(POLICY, Y))
    assert xy.coefficient(monomial([(X, 1), (Y, 1)], (0,))) == 1
    xk = var(POLICY, X)
    for _ in range(POLICY.max_insertions - 1):
        xk = series_mul(xk, var(POLICY, X))
    assert not xk.is_zero()
    assert series_mul(xk, var(POLICY, X)).is_zero()


def test_mul_difference_of_squares():
    one = TruncatedSeries.constant(POLICY, 1)
    s = series_mul(one + var(POLICY, X), one - var(POLICY, X))
    expect = one - series_mul(var(POLICY, X), var(POLICY, X))
    assert s == expect


def test_times_var_is_product_with_variable():
    rng = random.Random(23)
    for _ in range(40):
        s = rand_series(rng)
        for v in (X, Y, VarId(2, 1), VarId(3, 2)):
            assert s.times_var(v) == s * var(POLICY, v)


def test_policy_mismatch():
    other = TruncationPolicy(3, 2, (2,))
    with pytest.raises(PolicyMismatch):
        TruncatedSeries(POLICY) + TruncatedSeries(other)
    with pytest.raises(PolicyMismatch):
        TruncatedSeries(POLICY).add_scaled(TruncatedSeries(other), 1)
    with pytest.raises(PolicyMismatch):
        series_mul(TruncatedSeries(POLICY), TruncatedSeries(other))


def test_derive_spec_examples():
    s = series_mul(series_mul(var(POLICY, X), var(POLICY, X)), var(POLICY, Y)).scale(3)
    d = series_derive(s, X)
    assert d.coefficient(monomial([(X, 1), (Y, 1)], (0,))) == 6
    assert series_derive(var(POLICY, Y) * var(POLICY, Y), X).is_zero()


def test_derive_mixed_partials_commute():
    rng = random.Random(11)
    for _ in range(50):
        s = rand_series(rng)
        assert series_derive(series_derive(s, X), Y) == series_derive(series_derive(s, Y), X)


def test_coefficient_queries():
    s = var(POLICY, X).scale(Fraction(5, 7))
    assert s.coefficient(monomial([(X, 1)], (0,))) == Fraction(5, 7)
    assert s.coefficient(monomial([(Y, 1)], (0,))) == 0
    before = dict(s.terms)
    s.coefficient(monomial([(Y, 2)], (1,)))
    assert s.terms == before


# --- ring laws (seeded property tests) ----------------------------------------

def test_ring_laws():
    rng = random.Random(2024)
    for _ in range(60):
        a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
        assert series_mul(a, b + c) == series_mul(a, b) + series_mul(a, c)


def test_truncation_idempotent():
    # Truncating inputs first then multiplying equals multiplying then truncating.
    rng = random.Random(5)
    big = TruncationPolicy(8, 2, (4,))
    for _ in range(40):
        a, b = rand_series(rng, big), rand_series(rng, big)
        full = series_mul(a, b)
        tight = TruncationPolicy(4, 2, (2,))

        def cut(s):
            return TruncatedSeries(tight, dict(s.items_sorted()))

        assert series_mul(cut(a), cut(b)) == cut(full)


def test_leibniz_inside_margin():
    rng = random.Random(17)
    for _ in range(40):
        a, b = rand_series(rng), rand_series(rng)
        lhs = series_derive(series_mul(a, b), X)
        rhs = series_mul(series_derive(a, X), b) + series_mul(a, series_derive(b, X))
        # Compare strictly inside the policy: margin of one in total exponent.
        for mon, coeff in lhs.items_sorted():
            if mon.total_exponent() < POLICY.max_insertions:
                assert rhs.coefficient(mon) == coeff
        for mon, coeff in rhs.items_sorted():
            if mon.total_exponent() < POLICY.max_insertions:
                assert lhs.coefficient(mon) == coeff


def test_no_stored_zeros():
    rng = random.Random(23)
    for _ in range(40):
        a, b = rand_series(rng), rand_series(rng)
        for s in (a + b, a - a, series_mul(a, b), series_derive(a, X)):
            assert all(c != 0 for c in s.terms.values())


def test_deterministic_ordering():
    rng = random.Random(3)
    s = rand_series(rng)
    items = s.items_sorted()
    assert items == sorted(items)
