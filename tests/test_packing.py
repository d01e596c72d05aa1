"""Property tests of the packed monomial keys against plain Monomial arithmetic.

Random admissible monomials and series are drawn under random policies of
Novikov rank 0 (as for the point), 1 (as for P2) and 2.  Every packed
operation is compared with a brute-force reference built from ``Monomial``
values, ``monomial_mul`` and ``TruncationPolicy.admits``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gwvir.series import (Monomial, TruncatedSeries, TruncationPolicy, VarId,
                          monomial, monomial_mul, series_derive, series_mul)

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
def monomials(draw, policy: TruncationPolicy) -> Monomial:
    """A monomial the policy admits."""
    budget = draw(st.integers(0, policy.max_insertions))
    exps: dict[VarId, int] = {}
    while budget:
        e = draw(st.integers(1, budget))
        v = draw(variables(policy))
        exps[v] = exps.get(v, 0) + e
        budget -= e
    degree = tuple(draw(st.integers(0, d)) for d in policy.max_degree)
    return monomial(exps.items(), degree)


def coefficients():
    return st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


def term_dicts(policy: TruncationPolicy):
    return st.dictionaries(monomials(policy), coefficients(), max_size=8)


def truncated(policy: TruncationPolicy, terms: dict[Monomial, Fraction]) -> dict:
    return {m: c for m, c in terms.items() if c and policy.admits(m)}


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
    zero = (0,) * len(policy.max_degree)
    lifted = truncated(policy, {monomial_mul(m, Monomial(((v, 1),), zero)): c
                                for m, c in terms.items()})
    assert series.times_var(v) == TruncatedSeries(policy, lifted)
    derived = {}
    for mon, coeff in terms.items():
        e = dict(mon.exps).get(v, 0)
        if e:
            lowered = monomial([(u, f - (u == v)) for u, f in mon.exps], mon.degree)
            derived[lowered] = coeff * e
    assert series_derive(series, v) == TruncatedSeries(policy, derived)


@SETTINGS
@given(st.data())
def test_product_and_add_product_match_reference(data):
    policy = data.draw(policies())
    a, b, c = (data.draw(term_dicts(policy)) for _ in range(3))
    factor = data.draw(st.sampled_from((Fraction(1), Fraction(-1), Fraction(3, 2), 0)))
    sa, sb = TruncatedSeries(policy, a), TruncatedSeries(policy, b)
    product = reference_product(policy, a, b)
    assert series_mul(sa, sb) == TruncatedSeries(policy, product)
    expect = dict(c)
    for mon, coeff in product.items():
        expect[mon] = expect.get(mon, Fraction(0)) + factor * coeff
    acc = TruncatedSeries(policy, c)
    assert acc.add_product(sa, sb, factor) is acc
    assert acc == TruncatedSeries(policy, expect)
    assert 0 not in acc.terms.values()
