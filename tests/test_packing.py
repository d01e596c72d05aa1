"""Property tests of the packed series representation against plain arithmetic.

Random admissible monomials and series are drawn under random policies of
Novikov rank 0 (as for the point), 1 (as for P2) and 2.  Every packed
operation is compared with a brute-force reference: a ``{Monomial: Fraction}``
dict built from ``oracles.monomial_mul``, ``TruncationPolicy.admits`` and
``Fraction`` arithmetic.  Results are compared decoded, through ``items_sorted()``, so the
check does not rest on ``TruncatedSeries.__eq__``, which cross-multiplies
integer numerators over two denominators and is itself under test here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gwvir.series import (Monomial, TruncatedSeries, TruncationPolicy, VarId,
                          monomial, series_derive, series_mul)
from oracles import monomial_mul

CLASSES = 5
SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def policies(draw) -> TruncationPolicy:
    rank = draw(st.sampled_from((0, 1, 2)))
    return TruncationPolicy(draw(st.integers(0, 9)), draw(st.integers(0, 4)),
                            tuple(draw(st.integers(0, 6)) for _ in range(rank)))


def variables(policy: TruncationPolicy, extra_level: int = 0):
    return st.builds(VarId, st.integers(0, policy.max_level + extra_level),
                     st.integers(1, CLASSES))


@st.composite
def monomials(draw, policy: TruncationPolicy, at_caps: bool = False) -> Monomial:
    """A monomial the policy admits; with ``at_caps``, one at the total cap K
    and at every degree cap."""
    budget = policy.max_insertions if at_caps else draw(st.integers(0, policy.max_insertions))
    exps: dict[VarId, int] = {}
    while budget:
        e = draw(st.integers(1, budget))
        v = draw(variables(policy))
        exps[v] = exps.get(v, 0) + e
        budget -= e
    degree = policy.max_degree if at_caps else tuple(
        draw(st.integers(0, d)) for d in policy.max_degree)
    return monomial(exps.items(), degree)


def coefficients():
    return st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


def factors():
    """Scalars as callers pass them: ints, and Fractions with varied denominators."""
    return st.one_of(st.integers(-4, 4),
                     st.fractions(min_value=-9, max_value=9, max_denominator=35))


def term_dicts(policy: TruncationPolicy):
    return st.dictionaries(monomials(policy), coefficients(), max_size=8)


def capped_term_dicts(policy: TruncationPolicy):
    """Term dicts that always hold some monomials at the caps."""
    return st.builds(lambda a, b: {**a, **b}, term_dicts(policy),
                     st.dictionaries(monomials(policy, at_caps=True), coefficients(),
                                     min_size=1, max_size=3))


def truncated(policy: TruncationPolicy, terms: dict[Monomial, Fraction]) -> dict:
    return {m: c for m, c in terms.items() if c and policy.admits(m)}


def decoded(series: TruncatedSeries) -> list[tuple[Monomial, Fraction]]:
    """``items_sorted()``, after checking the stored form: nonzero int numerators."""
    assert series.den > 0
    assert all(type(n) is int and n for n in series.terms.values())
    items = series.items_sorted()
    assert all(type(c) is Fraction for _, c in items)
    return items


def expected(terms: dict) -> list[tuple[Monomial, Fraction]]:
    return sorted((m, Fraction(c)) for m, c in terms.items() if c)


def reference_add(a: dict, b: dict, factor) -> dict:
    out = dict(a)
    for mon, coeff in b.items():
        out[mon] = out.get(mon, Fraction(0)) + factor * coeff
    return out


def reference_times_var(policy, a: dict, v: VarId) -> dict:
    unit = Monomial(((v, 1),), (0,) * len(policy.max_degree))
    return truncated(policy, {monomial_mul(m, unit): c for m, c in a.items()})


def reference_product(policy, a: dict, b: dict) -> dict:
    out: dict[Monomial, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mon = monomial_mul(ma, mb)
            out[mon] = out.get(mon, Fraction(0)) + ca * cb
    return truncated(policy, out)


@SETTINGS
@given(st.data())
def test_decode_inverts_encode(data):
    policy = data.draw(policies())
    packing = policy.packing
    terms = data.draw(term_dicts(policy))
    for mon in terms:
        assert packing.decode(packing.encode(mon)) == mon
    series = TruncatedSeries(policy, terms)
    assert series.items_sorted() == sorted(terms.items())
    for mon, coeff in terms.items():
        assert series.coefficient(mon) == coeff


@SETTINGS
@given(st.data())
def test_key_sum_is_monomial_product(data):
    policy = data.draw(policies())
    packing = policy.packing
    a, b = data.draw(monomials(policy)), data.draw(monomials(policy))
    product = monomial_mul(a, b)
    key = packing.encode(a) + packing.encode(b)
    assert (not (key + packing.add) & packing.guard) == policy.admits(product)
    if policy.admits(product):
        assert key == packing.encode(product)


@SETTINGS
@given(st.data())
def test_times_var_and_derive_match_reference(data):
    policy = data.draw(policies())
    terms = data.draw(term_dicts(policy))
    v = data.draw(variables(policy, extra_level=1))
    series = TruncatedSeries(policy, terms)
    lifted = reference_times_var(policy, terms, v)
    assert decoded(series.times_var(v)) == expected(lifted)
    assert series.times_var(v) == TruncatedSeries(policy, lifted)
    derived = {}
    for mon, coeff in terms.items():
        e = dict(mon.exps).get(v, 0)
        if e:
            lowered = monomial([(u, f - (u == v)) for u, f in mon.exps], mon.degree)
            derived[lowered] = coeff * e
    assert decoded(series_derive(series, v)) == expected(derived)
    assert series_derive(series, v) == TruncatedSeries(policy, derived)


@SETTINGS
@given(st.data())
def test_product_and_add_product_match_reference(data):
    policy = data.draw(policies())
    a, b, c = (data.draw(term_dicts(policy)) for _ in range(3))
    factor = data.draw(factors())
    sa, sb = TruncatedSeries(policy, a), TruncatedSeries(policy, b)
    product = reference_product(policy, a, b)
    assert decoded(series_mul(sa, sb)) == expected(product)
    assert series_mul(sa, sb) == TruncatedSeries(policy, product)
    expect = reference_add(c, product, factor)
    acc = TruncatedSeries(policy, c)
    assert acc.add_product(sa, sb, factor) is acc
    assert decoded(acc) == expected(expect)
    assert acc == TruncatedSeries(policy, expect)


@SETTINGS
@given(st.data())
def test_add_scaled_scale_and_neg_match_reference(data):
    policy = data.draw(policies())
    a, b = data.draw(term_dicts(policy)), data.draw(term_dicts(policy))
    f, g = data.draw(factors()), data.draw(factors())
    sa, sb = TruncatedSeries(policy, a), TruncatedSeries(policy, b)
    assert decoded(sa.scale(f)) == expected({m: f * c for m, c in a.items()})
    assert decoded(-sa) == expected({m: -c for m, c in a.items()})
    assert decoded(sa - sb) == expected(reference_add(a, b, -1))
    # Two accumulations in a row, so the second meets a receiver whose
    # denominator the first already raised.
    acc = TruncatedSeries(policy, a)
    assert acc.add_scaled(sb, f) is acc
    assert decoded(acc) == expected(reference_add(a, b, f))
    acc.add_scaled(sa.scale(g), f)
    expect = reference_add(reference_add(a, b, f), a, f * g)
    assert decoded(acc) == expected(expect)
    assert acc == TruncatedSeries(policy, expect)


@SETTINGS
@given(st.data())
def test_equality_and_coefficients_over_unreduced_denominators(data):
    policy = data.draw(policies())
    terms = data.draw(term_dicts(policy))
    series = TruncatedSeries(policy, terms)
    q = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=35).filter(
        lambda x: abs(x.numerator) > 1 or x.denominator > 1))
    # scale(q).scale(1/q) multiplies the denominator and every numerator by
    # |numerator * denominator| of q, so the result is not in lowest terms.
    round_trip = series.scale(q).scale(1 / q)
    if terms:
        assert math.gcd(round_trip.den, *round_trip.terms.values()) > 1
        assert round_trip.den != series.den
    assert round_trip == series and series == round_trip
    for mon, coeff in terms.items():
        got = round_trip.coefficient(mon)
        assert type(got) is Fraction and got == coeff
        assert math.gcd(got.numerator, got.denominator) == 1
    assert decoded(round_trip) == expected(terms)
    if terms:
        # One coefficient differs (it may become zero): unequal either way.
        mon = data.draw(st.sampled_from(sorted(terms)))
        delta = data.draw(coefficients())
        changed = dict(terms)
        changed[mon] = terms[mon] + delta
        assert round_trip != TruncatedSeries(policy, changed)
        assert TruncatedSeries(policy, changed) != round_trip
    for difference in (series - series, round_trip - series):
        assert difference.is_zero() and difference.terms == {}


@SETTINGS
@given(st.data())
def test_add_times_var_matches_reference(data):
    policy = data.draw(policies())
    a, c = data.draw(capped_term_dicts(policy)), data.draw(term_dicts(policy))
    v = data.draw(variables(policy, extra_level=1))
    factor = data.draw(factors())
    acc = TruncatedSeries(policy, c)
    assert acc.add_times_var(TruncatedSeries(policy, a), v, factor) is acc
    expect = reference_add(c, reference_times_var(policy, a, v), factor)
    assert decoded(acc) == expected(expect)
    # Aliased: acc += factor * t_v * acc reads acc as it was before the call.
    expect = reference_add(expect, reference_times_var(policy, expect, v), factor)
    acc.add_times_var(acc, v, factor)
    assert decoded(acc) == expected(expect)
    assert acc == TruncatedSeries(policy, expect)


@SETTINGS
@given(st.data())
def test_operand_changed_in_place_after_a_product(data):
    """A product operand written in place, then used again, is read as it is now."""
    policy = data.draw(policies())
    a = data.draw(capped_term_dicts(policy))
    b, c, d = (data.draw(term_dicts(policy)) for _ in range(3))
    sa, sb = TruncatedSeries(policy, a), TruncatedSeries(policy, b)
    sc, sd = TruncatedSeries(policy, c), TruncatedSeries(policy, d)
    assert decoded(series_mul(sa, sb)) == expected(reference_product(policy, a, b))
    for _ in range(data.draw(st.integers(1, 3))):
        write = data.draw(st.sampled_from(("add_scaled", "add_product",
                                           "add_times_var", "rescale")))
        factor = data.draw(factors())
        if write == "add_scaled":
            sa.add_scaled(sc, factor)
        elif write == "add_product":
            sa.add_product(sc, sd, factor)
        elif write == "add_times_var":
            sa.add_times_var(sc, data.draw(variables(policy)), factor)
        else:  # the numerators change, the value does not
            grow = data.draw(st.integers(2, 12))
            sa._common(sa.den * grow)
        now = dict(sa.monomials())
        assert decoded(series_mul(sa, sb)) == expected(reference_product(policy, now, b))
        assert decoded(series_mul(sb, sa)) == expected(reference_product(policy, b, now))


@SETTINGS
@given(st.data())
def test_add_product_with_the_receiver_as_operand(data):
    policy = data.draw(policies())
    x, c = data.draw(term_dicts(policy)), data.draw(capped_term_dicts(policy))
    f, g = data.draw(factors()), data.draw(factors())
    sx, acc = TruncatedSeries(policy, x), TruncatedSeries(policy, c)
    series_mul(acc, sx)  # acc has been an operand before it is written
    expect = reference_add(c, reference_product(policy, c, c), f)
    assert acc.add_product(acc, acc, f) is acc
    assert decoded(acc) == expected(expect)
    expect = reference_add(expect, reference_product(policy, x, expect), g)
    acc.add_product(sx, acc, g)
    assert decoded(acc) == expected(expect)
    assert acc == TruncatedSeries(policy, expect)
