from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from gwvir import engine as engine_module
from gwvir.cli import run
from gwvir.engine import (CorrelatorKey, Engine, InvariantCache, PrimaryBackend,
                          degree_zero_value, dilaton_reduce, dimension_admissible,
                          divisor_lift, load_table_backend, make_key, string_reduce,
                          wdvv_reduce, _walk_t_monomials, _weight)
from gwvir.errors import (CacheMismatch, NotApplicable, ParseError, TargetUnsupported,
                          ValidationError)
from gwvir.identities import IDENTITY_TAGS, IdentityContext, verify_identity
from gwvir.rationals import format_rational, parse_rational
from gwvir.series import Monomial, TruncatedSeries, TruncationPolicy, VarId
from gwvir.target import _degree_box, load_target, preset

from oracles import divisor_reduce, point_string_oracle, trr_reduce, wdvv_associativity_nd


def closed_form_point(levels):
    k = len(levels)
    if sum(levels) != k - 3:
        return Fraction(0)
    value = Fraction(math.factorial(k - 3))
    for m in levels:
        value /= math.factorial(m)
    return value


DATA = Path(__file__).parent / "data"


def _p1xp1():
    """P1 x P1 from its cohomology alone: classes 1, H1, H2, pt; c1 = 2H1 + 2H2."""
    return load_target((DATA / "P1xP1.json").read_text(encoding="utf-8"))


def _p2_rational_eta():
    """P2 with criterion 9's eta_11 = 1 and eta_22 = 2: eta^{-1} has entries -1 and 1/2."""
    eta = tuple(tuple(Fraction(x) for x in row) for row in ((1, 0, 1), (0, 2, 0), (1, 0, 0)))
    return dataclasses.replace(preset("P2"), name="P2-rational-eta", eta=eta)


def _target(name):
    if name == "P2-rational-eta":
        return _p2_rational_eta()
    return _p1xp1() if name == "P1xP1" else preset(name)


def _t_monomials(policy, ts):
    """Every t-monomial the policy admits as ((VarId, exponent), ...), sorted.

    Built from ``combinations_with_replacement``, independently of the engine.
    Sorted tuples put a monomial before its extensions by later variables and
    an exponent before the next one, which is the engine's depth-first order.
    """
    varids = [VarId(m, a) for m in range(policy.max_level + 1) for a in range(1, ts.classes + 1)]
    return sorted(tuple(sorted(Counter(combo).items()))
                  for k in range(policy.max_insertions + 1)
                  for combo in itertools.combinations_with_replacement(varids, k))


def _insertions(mon):
    return tuple(v for v, e in mon for _ in range(e))


# --- dimension filter -----------------------------------------------------------

def test_dimension_examples(p2_engine, point_engine):
    p2 = p2_engine.ts
    assert dimension_admissible(p2, make_key([(0, 3), (0, 3)], (1,)))
    assert not dimension_admissible(p2, make_key([(0, 3)], (1,)))
    assert dimension_admissible(point_engine.ts, make_key([(0, 1)] * 3, ()))
    # Class indices outside 1..classes: not admissible, neither wrapped nor raised.
    assert not dimension_admissible(p2, make_key([(0, 0), (0, 1), (0, 1)], (0,)))
    assert not dimension_admissible(p2, make_key([(0, 9)], (1,)))


def test_dimension_vanishing(p2_engine):
    """An inadmissible key is 0 at the boundary; the engine is never asked for it."""
    for text, key in (("deg=1;ins=(0,3)", make_key([(0, 3)], (1,))),
                      ("deg=2;ins=(0,2)(0,3)", make_key([(0, 2), (0, 3)], (2,)))):
        assert not dimension_admissible(p2_engine.ts, key)
        code, report = run(["invariant", "--target", "P2", "--key", text], out=io.StringIO())
        assert code == 0
        assert report.details[0]["value"] == "0" and report.details[0]["admissible"] is False


# --- base cases -----------------------------------------------------------------

def test_point_base_cases(point_engine):
    assert point_engine.invariant(make_key([(0, 1)] * 3, ())) == 1
    assert point_engine.invariant(make_key([(2, 1)] + [(0, 1)] * 4, ())) == 1
    assert point_engine.invariant(make_key([(1, 1), (1, 1)] + [(0, 1)] * 3, ())) == 2


def test_degree_zero_value_examples(p2_engine, point_engine):
    p2 = p2_engine.ts
    assert degree_zero_value(p2, make_key([(0, 1), (0, 2), (0, 2)], ())) == 1
    assert degree_zero_value(p2, make_key([(0, 1), (0, 1), (0, 3)], ())) == 1
    assert degree_zero_value(p2, make_key([(0, 2), (0, 3)], ())) == 0  # unstable
    pt = point_engine.ts
    assert degree_zero_value(pt, make_key([(1, 1), (1, 1), (0, 1), (0, 1), (0, 1)], ())) == 2


def test_point_closed_form_k_to_9(point_engine):
    for k in range(3, 10):
        for levels in itertools.combinations_with_replacement(range(k - 2), k):
            if sum(levels) != k - 3:
                continue
            key = make_key([(m, 1) for m in levels], ())
            expect = point_string_oracle(levels)
            assert expect == closed_form_point(levels)
            assert point_engine.invariant(key) == expect


# --- Kontsevich numbers -----------------------------------------------------------

def _nd_key(d):
    return make_key([(0, 3)] * (3 * d - 1), (d,))


def test_nd_matches_wdvv_oracle():
    # d = 60 keeps the oracle under a second; the engine reaches each N_d by
    # WDVV from the one seed N_1, over long spectator and degree splits.
    oracle = wdvv_associativity_nd(60)
    engine = Engine(preset("P2"))
    assert [engine.invariant(_nd_key(d)) for d in range(1, 61)] == oracle
    assert oracle[:6] == [1, 1, 12, 620, 87304, 26312976]


def test_engine_reproduces_nd(p2_engine):
    for d, nd in zip((1, 2, 3), (1, 1, 12)):
        assert p2_engine.invariant(_nd_key(d)) == nd


def test_nd_needs_no_recursion():
    # N_61 needs every N_d below it, on the work stack rather than in one
    # frame per degree, which this limit would not allow.
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    engine = Engine(preset("P2"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        value = engine.invariant(_nd_key(61))
    finally:
        sys.setrecursionlimit(limit)
    assert value.denominator == 1 and value > engine.invariant(_nd_key(60)) > 0


def test_two_point_lift(p2_engine, p1_engine):
    assert p2_engine.invariant(make_key([(0, 3), (0, 3)], (1,))) == 1
    assert p1_engine.invariant(make_key([(0, 2), (0, 2)], (1,))) == 1
    assert p1_engine.invariant(make_key([(0, 2)] * 3, (1,))) == 1


def test_multiple_cover_one_point_anchors(p1_engine, p2_engine):
    # <tau_{3d-2}(pt)>_{0,d} = 1/(d!)^3 on P^2; <tau_{2d-2}(pt)>_{0,d} = 1/(d!)^2 on P^1.
    for d in (1, 2, 3):
        assert p2_engine.invariant(make_key([(3 * d - 2, 3)], (d,))) == \
            Fraction(1, math.factorial(d) ** 3)
        assert p1_engine.invariant(make_key([(2 * d - 2, 2)], (d,))) == \
            Fraction(1, math.factorial(d) ** 2)


# --- reduction rules -----------------------------------------------------------

def test_string_reduce_examples(point_engine, p2_engine):
    pt = point_engine.ts
    terms, scalar = string_reduce(pt, make_key([(0, 1), (1, 1), (0, 1), (0, 1)], ()))
    value = sum(c * point_engine.invariant(k) for k, c in terms) + scalar
    assert value == 1
    terms, scalar = string_reduce(p2_engine.ts, make_key([(0, 1), (0, 2), (0, 2)], ()))
    assert not terms or all(point_engine.invariant(k) == 0 for k, _ in terms)
    assert scalar == 1  # eta_{H,H}
    with pytest.raises(NotApplicable):
        string_reduce(pt, make_key([(1, 1), (1, 1), (1, 1)], ()))
    with pytest.raises(NotApplicable):
        string_reduce(pt, make_key([(0, 1), (0, 1)], ()))


def test_dilaton_reduce_examples(point_engine):
    pt = point_engine.ts
    key, factor = dilaton_reduce(pt, make_key([(1, 1)] + [(0, 1)] * 3, ()))
    assert factor == 1 and point_engine.invariant(key) == 1
    # (k - 2) with k = #remaining matches the closed form 2!/1!1! = 2
    key, factor = dilaton_reduce(pt, make_key([(1, 1), (1, 1)] + [(0, 1)] * 3, ()))
    assert factor * point_engine.invariant(key) == 2
    with pytest.raises(NotApplicable):
        dilaton_reduce(pt, make_key([(0, 1)] * 4, ()))


def test_divisor_reduce_examples(p2_engine, p1_engine):
    p2 = p2_engine.ts
    terms = divisor_reduce(p2, make_key([(0, 2), (0, 3), (0, 3)], (1,)), 2)
    assert sum(c * p2_engine.invariant(k) for k, c in terms) == 1
    p1 = p1_engine.ts
    terms = divisor_reduce(p1, make_key([(0, 2)] * 3, (1,)), 2)
    assert sum(c * p1_engine.invariant(k) for k, c in terms) == 1
    with pytest.raises(NotApplicable):
        divisor_reduce(p2, make_key([(0, 2), (0, 2), (0, 1)], (0,)), 2)


def test_wdvv_reduce_examples(p2_engine):
    p2 = p2_engine.ts
    key = _nd_key(2)  # <pt^5>_2, split as H . H
    terms, own = wdvv_reduce(p2, key)
    assert own == 1
    total = sum(c * p2_engine.invariant(k1) * (p2_engine.invariant(k2) if k2 else 1)
                for c, k1, k2 in terms)
    assert total / own == 1
    assert all(dimension_admissible(p2, k) for _, k1, k2 in terms for k in (k1, k2) if k)
    with pytest.raises(NotApplicable):
        wdvv_reduce(p2, make_key([(1, 3), (0, 3), (0, 3)], (1,)))
    with pytest.raises(TargetUnsupported):
        wdvv_reduce(p2, _nd_key(1))  # two insertions
    with pytest.raises(TargetUnsupported):  # P1 without its seed <>_1
        Engine(preset("P1"), PrimaryBackend({})).invariant(make_key([(0, 2)] * 3, (1,)))
    # Without H . H = pt no insertion splits off a divisor.
    no_split = dataclasses.replace(p2, cup={k: v for k, v in p2.cup.items() if k != (2, 2, 3)})
    with pytest.raises(TargetUnsupported):
        wdvv_reduce(no_split, key)


def test_divisor_lift_examples(p2_engine, point_engine):
    lifted, lowering, pairing = divisor_lift(p2_engine.ts, make_key([(0, 3), (0, 3)], (1,)))
    value = (p2_engine.invariant(lifted)
             - sum(c * p2_engine.invariant(k) for k, c in lowering)) / pairing
    assert value == 1
    with pytest.raises(NotApplicable):
        divisor_lift(point_engine.ts, make_key([(0, 1)] * 4, ()))
    with pytest.raises(TargetUnsupported):
        divisor_lift(preset("point"), CorrelatorKey((VarId(0, 1),), ()))


def test_trr_examples(point_engine, p2_engine):
    pt = point_engine.ts
    key = make_key([(1, 1), (0, 1), (0, 1), (0, 1)], ())
    chosen = key.insertions.index(VarId(1, 1))
    total = sum(c * point_engine.invariant(k1) * point_engine.invariant(k2)
                for c, k1, k2 in trr_reduce(pt, key, chosen))
    assert total == 1 == point_engine.invariant(key)
    with pytest.raises(NotApplicable):
        trr_reduce(pt, make_key([(0, 1)] * 3, ()), 0)


def _splits_brute_force(ts, spectators):
    """(left, right, ways, weight of left, weight of right) of every split.

    From ``itertools.product`` over how many copies of each distinct slot go
    left, the first slot varying fastest; weights from the grading q directly.
    """
    distinct = sorted(set(spectators))
    mults = [spectators.count(v) for v in distinct]
    out = []
    for takes in itertools.product(*(range(n + 1) for n in reversed(mults))):
        takes = takes[::-1]
        left = tuple(v for v, t in zip(distinct, takes) for _ in range(t))
        right = tuple(v for v, t, n in zip(distinct, takes, mults) for _ in range(n - t))
        ways = math.prod(math.comb(n, t) for n, t in zip(mults, takes))
        weights = [sum(m + ts.q[a - 1] - 1 for m, a in side) for side in (left, right)]
        out.append((left, right, ways, *weights))
    return out


@pytest.mark.parametrize("name,spectators", [
    ("point", []),
    ("P1", [(0, 2), (2, 1), (2, 1)]),
    ("P2", [(0, 2), (0, 2), (0, 2), (1, 3), (4, 1), (4, 1)]),
    ("P1xP1", [(0, 2), (0, 3), (0, 3), (1, 4), (2, 2), (2, 2)]),
])
def test_spectator_splits_match_brute_force(name, spectators):
    ts = _target(name)
    spect = tuple(sorted(VarId(m, a) for m, a in spectators))
    rows = ts.spectator_splits(spect)
    assert list(rows) == _splits_brute_force(ts, spect)
    assert ts.spectator_splits(spect) is rows  # built once per multiset


def test_spectator_splits_are_per_target():
    """Targets with different class weights never share rows, in one process."""
    spect = (VarId(0, 2), VarId(1, 1), VarId(1, 1))
    p1, p2 = preset("P1"), preset("P2")
    p1_rows, p2_rows = p1.spectator_splits(spect), p2.spectator_splits(spect)
    assert p1_rows is not p2_rows
    assert list(p1_rows) == _splits_brute_force(p1, spect)
    assert list(p2_rows) == _splits_brute_force(p2, spect)
    # Class 3 weighs q - 1 = 0 on P1 x P1 and 1 on P2; a P2 built after a
    # P1 x P1 is freed (so it may get the same id) still gets its own weights.
    spect = (VarId(1, 3), VarId(1, 3))
    assert [row[3:] for row in _p1xp1().spectator_splits(spect)] == [(0, 2), (1, 1), (2, 0)]
    assert [row[3:] for row in preset("P2").spectator_splits(spect)] == [(0, 4), (2, 2), (4, 0)]


def _trr_full_expansion(ts, key, chosen):
    """Every TRR term, admissible or not, as the rule writes it out."""
    ins, deg = key
    m, alpha = ins[chosen]
    rest = ins[:chosen] + ins[chosen + 1:]
    fixed, spectators = rest[-2:], rest[:-2]
    distinct = sorted(set(spectators))
    mults = [spectators.count(v) for v in distinct]
    out = []
    for takes in itertools.product(*(range(n + 1) for n in mults)):
        left = tuple(v for v, t in zip(distinct, takes) for _ in range(t))
        right = tuple(v for v, t, n in zip(distinct, takes, mults) for _ in range(n - t))
        ways = math.prod(math.comb(n, t) for n, t in zip(mults, takes))
        for deg1 in _degree_box(deg):
            deg2 = tuple(d - a for d, a in zip(deg, deg1))
            for sigma in range(1, ts.classes + 1):
                for rho in range(1, ts.classes + 1):
                    eta_inv = ts.eta_inv[sigma - 1][rho - 1]
                    if eta_inv:
                        key1 = make_key(left + ((m - 1, alpha), (0, sigma)), deg1)
                        key2 = make_key(right + fixed + ((0, rho),), deg2)
                        out.append((eta_inv * ways, key1, key2))
    return out


@pytest.mark.parametrize("name,policy,min_spectators", [
    ("point", TruncationPolicy(7, 3, ()), 0),
    ("P1", TruncationPolicy(4, 2, (2,)), 0),
    ("P2", TruncationPolicy(4, 2, (2,)), 0),
    ("P1xP1", TruncationPolicy(4, 1, (1, 2)), 0),
    ("P2-rational-eta", TruncationPolicy(4, 2, (2,)), 0),
    # Three or more spectators at degrees up to 3: the partner groups meet
    # degree splits with c1 . deg2 up to 9.
    ("P2", TruncationPolicy(6, 1, (3,)), 3),
], ids=["point-policy0", "P1-policy1", "P2-policy2", "P1xP1-policy3",
        "P2-rational-eta-policy4", "P2-3-spectators-policy5"])
def test_trr_reduce_is_full_expansion_filtered(name, policy, min_spectators):
    ts = _target(name)
    if name == "P2-rational-eta":
        assert {Fraction(-1), Fraction(1, 2)} <= set(itertools.chain(*ts.eta_inv))
    checked = 0
    for mon in _t_monomials(policy, ts):
        ins = _insertions(mon)
        if len(ins) < 3 + min_spectators:
            continue
        for deg in _degree_box(policy.max_degree):
            key = CorrelatorKey(ins, deg)
            # The cases with spectators check only admissible keys, which keeps
            # each under a second; the others show inadmissible keys get no terms.
            if min_spectators and not dimension_admissible(ts, key):
                continue
            for chosen in range(len(ins)):
                if ins[chosen].level == 0:
                    continue
                expect = Counter(
                    (c, k1, k2) for c, k1, k2 in _trr_full_expansion(ts, key, chosen)
                    if dimension_admissible(ts, k1) and dimension_admissible(ts, k2))
                got = trr_reduce(ts, key, chosen)
                assert Counter(got) == expect
                checked += bool(got)
    assert checked >= 10


def _wdvv_split(ts, ins):
    """(index, D, g') of the key's first insertion that is one class D g'.

    D is a divisor and g' the least class index that gives it.
    """
    return next((i, (0, cls), (0, h)) for i, (_, g) in enumerate(ins)
                for cls, _ in ts.divisors for h in range(1, ts.classes + 1)
                if ts.cup_product({cls: 1}, h).keys() == {g})


def _wdvv_full_expansion(ts, key):
    """WDVV as the rule writes it out: (terms, own) from every term of both sides.

    The insertion ``_wdvv_split`` names splits off as D g'; c and d are the
    two largest other insertions and S the rest.  Each side expands over
    every split of S, of the degree and every sigma, rho with eta^{sigma rho}
    nonzero; a term is kept when both its keys are admissible.  A degree-0
    factor is evaluated with ``degree_zero_value``: the key itself goes into
    own, and any other nonzero term is kept with its one key.
    """
    ins, deg = key
    chosen, div, prime = _wdvv_split(ts, ins)
    rest = ins[:chosen] + ins[chosen + 1:]
    (d, c), spectators = rest[-2:], rest[:-2]
    distinct = sorted(set(spectators))
    mults = [spectators.count(v) for v in distinct]
    terms, own = [], Fraction(0)
    for sign, x, y in ((-1, prime, c), (1, c, prime)):
        for takes in itertools.product(*(range(n + 1) for n in mults)):
            left = tuple(v for v, t in zip(distinct, takes) for _ in range(t))
            right = tuple(v for v, t, n in zip(distinct, takes, mults) for _ in range(n - t))
            ways = math.prod(math.comb(n, t) for n, t in zip(mults, takes))
            for deg1 in _degree_box(deg):
                deg2 = tuple(n - a for n, a in zip(deg, deg1))
                for sigma, rho in itertools.product(range(1, ts.classes + 1), repeat=2):
                    eta_inv = ts.eta_inv[sigma - 1][rho - 1]
                    if not eta_inv:
                        continue
                    key1 = make_key(left + (div, x, (0, sigma)), deg1)
                    key2 = make_key(right + ((0, rho), y, d), deg2)
                    if not (dimension_admissible(ts, key1) and dimension_admissible(ts, key2)):
                        continue
                    coeff = sign * ways * eta_inv
                    if any(deg1) and any(deg2):
                        terms.append((coeff, key1, key2))
                        continue
                    zero, other = (key1, key2) if any(deg2) else (key2, key1)
                    coeff *= degree_zero_value(ts, zero)
                    if other == key:
                        own -= coeff
                    elif coeff:
                        terms.append((coeff, other, None))
    return terms, own


@pytest.mark.parametrize("name,cap", [
    ("P2", (3,)), ("P2-rational-eta", (3,)), ("P1xP1", (2, 2)), ("P3", (2,)),
])
def test_wdvv_reduce_is_full_expansion_filtered(name, cap):
    """Every all-primary key the reduction hands to WDVV, against the written-out rule."""
    ts, backend = _seeded(name) if name in ("P1xP1", "P3") else (_target(name), None)
    table = Engine(ts, backend).backend.table
    divisors = {cls for cls, _ in ts.divisors}
    # The keys that reach WDVV: no unit or divisor insertion, at least three
    # insertions, nonzero degree and no seed.
    classes = [a for a in range(2, ts.classes + 1) if a not in divisors]
    max_k = max(ts.degree_weight(cap) // min(ts.class_weight[a] for a in classes), 3)
    checked = sorted_branch = 0
    for k in range(3, max_k + 1):
        for combo in itertools.combinations_with_replacement(classes, k):
            for deg in _degree_box(cap):
                key = make_key([(0, a) for a in combo], deg)
                if not any(deg) or key in table or not dimension_admissible(ts, key):
                    continue
                terms, own = _wdvv_full_expansion(ts, key)
                got, got_own = wdvv_reduce(ts, key)
                assert Counter(got) == Counter(terms)
                assert got_own == own
                checked += 1
                # The right side's second slots (g', d) sort before a spectator:
                # its split halves are sorted once per split.
                ins = key.insertions
                chosen, _, prime = _wdvv_split(ts, ins)
                rest = ins[:chosen] + ins[chosen + 1:]
                sorted_branch += len(rest) > 2 and rest[-3] > min(prime, rest[-2])
    assert checked >= 2
    assert sorted_branch >= 1


# --- confluence: every applicable route gives the engine's value -----------------

def _admissible_keys(ts, k_max, m_max, d_max):
    vids = [(m, a) for m in range(m_max + 1) for a in range(1, ts.classes + 1)]
    for k in range(k_max + 1):
        for ins in itertools.combinations_with_replacement(vids, k):
            balance = sum(m + ts.q[a - 1] for m, a in ins) - (ts.complex_dim - 3 + k)
            c = ts.c1_deg[0] if ts.novikov_rank else 0
            if ts.novikov_rank == 0:
                if balance == 0 and k >= 3:
                    yield make_key(ins, ())
            elif balance % c == 0 and 0 <= balance // c <= d_max:
                deg = (balance // c,)
                if any(deg) or k >= 3:
                    yield make_key(ins, deg)


def _check_confluence(engine, k_max, m_max, d_max):
    ts = engine.ts
    checked = 0
    for key in _admissible_keys(ts, k_max, m_max, d_max):
        direct = engine.invariant(key)
        ins, deg = key
        k = len(ins)
        if VarId(0, 1) in ins and (k >= 4 or any(deg)):
            terms, scalar = string_reduce(ts, key)
            assert sum(c * engine.invariant(t) for t, c in terms) + scalar == direct
            checked += 1
        if VarId(1, 1) in ins and (k >= 4 or any(deg)):
            rest, factor = dilaton_reduce(ts, key)
            assert factor * engine.invariant(rest) == direct
            checked += 1
        for cls, _ in ts.divisors:
            if VarId(0, cls) in ins and any(deg):
                terms = divisor_reduce(ts, key, cls)
                assert sum(c * engine.invariant(t) for t, c in terms) == direct
                checked += 1
        if k >= 3:
            for chosen in range(k):
                if ins[chosen].level > 0:
                    total = sum(c * engine.invariant(k1) * engine.invariant(k2)
                                for c, k1, k2 in trr_reduce(ts, key, chosen))
                    assert total == direct
                    checked += 1
    return checked


def test_confluence_point(point_engine):
    assert _check_confluence(point_engine, 8, 3, 0) > 40


def test_confluence_p1(p1_engine):
    assert _check_confluence(p1_engine, 6, 3, 3) > 200


def test_confluence_p2(p2_engine):
    assert _check_confluence(p2_engine, 6, 3, 3) > 200


# --- permutation invariance and cache behaviour ----------------------------------

def test_permutation_invariance(p2_engine):
    rng = random.Random(41)
    ins = [(0, 2), (0, 2), (1, 2), (0, 3)]
    deg = (1,)
    reference = p2_engine.invariant(make_key(ins, deg))
    assert reference == 1
    for _ in range(5):
        rng.shuffle(ins)
        assert p2_engine.invariant(make_key(ins, deg)) == reference


def _canonical(key):
    ins, deg = key
    return (type(key) is CorrelatorKey and type(ins) is tuple and type(deg) is tuple
            and all(type(v) is VarId for v in ins) and list(ins) == sorted(ins))


def test_make_key_canonicalises_outside_keys():
    """Unsorted, plain-pair and list keys enter through ``make_key``, canonical."""
    ins, deg = [(3, 3), (0, 2), (1, 2), (0, 3), (0, 1)], (2,)
    for key in (CorrelatorKey(tuple(VarId(*v) for v in ins), deg),  # unsorted
                CorrelatorKey(tuple(sorted(ins)), deg),  # sorted plain pairs
                CorrelatorKey([list(v) for v in ins], list(deg))):  # lists
        canonical = make_key(key.insertions, key.degree)
        assert _canonical(canonical) and canonical == make_key(ins, deg)
        engine = Engine(preset("P2"))
        assert engine.invariant(canonical) == 3
        assert all(_canonical(k) for k in engine.cache.entries)


def _assert_trusted(engine):
    """Every key the engine published is canonical and dimension-admissible.

    ``Engine.invariant`` checks neither; it trusts the keys the engine builds.
    """
    ts, entries = engine.ts, engine.cache.entries
    assert entries
    assert all(_canonical(k) and dimension_admissible(ts, k) for k in entries)


def test_cold_pass_keeps_every_key_canonical():
    ts = preset("P2")
    engine = Engine(ts)
    keys = engine.admissible_keys(TruncationPolicy(4, 3, (2,)))
    # A canonical miss is published as passed in, not rebuilt.
    engine.invariant(keys[-1])
    assert any(k is keys[-1] for k in engine.cache.entries)
    for key in keys:
        engine.invariant(key)
    _assert_trusted(engine)
    terms = 0
    for key in keys:
        for chosen, (m, _) in enumerate(key.insertions):
            if m and len(key.insertions) >= 3:
                for _, key1, key2 in trr_reduce(ts, key, chosen):
                    assert _canonical(key1) and _canonical(key2)
                    terms += 1
    assert terms > 100
    # The series walks: all 31 tags on one context.
    registry = Engine(ts)
    policy = TruncationPolicy(3, 2, (1,))
    ctx = IdentityContext(registry, policy)
    for tag in IDENTITY_TAGS:
        assert all(f.status == "pass" for f in verify_identity(registry, tag, policy, ctx=ctx))
    _assert_trusted(registry)
    # The file targets with their seed tables: rank 2 and dimension 3.
    for name in ("P1xP1", "P3"):
        file_ts, backend = _seeded(name)
        engine = Engine(file_ts, backend)
        for key in engine.admissible_keys(TruncationPolicy(4, 3, (2,) * file_ts.novikov_rank)):
            engine.invariant(key)
        _assert_trusted(engine)


def _recording_reduce(monkeypatch):
    """Patch ``Engine._reduce`` to record each frame's requested sub-keys, in order."""
    requests, reduce = {}, Engine._reduce

    def recording(self, key):
        asked = requests[key] = []
        steps, value = reduce(self, key), None
        while True:
            try:
                sub = steps.send(value)
            except StopIteration as done:
                return done.value
            asked.append(sub)
            value = yield sub

    monkeypatch.setattr(Engine, "_reduce", recording)
    return requests


@pytest.mark.parametrize("name,policy", [
    ("P2", TruncationPolicy(5, 3, (2,))),
    # Rank 2: several degree splits share one pairing.
    ("P1xP1", TruncationPolicy(4, 2, (1, 1))),
    # Rational eta^{-1}: -1 and 1/2.
    ("P2-rational-eta", TruncationPolicy(4, 3, (2,))),
    # Two partners rho of one weight for sigma = H1 and H2, with eta^{-1} in thirds.
    ("P1xP1-mixed-eta", TruncationPolicy(4, 2, (1, 1))),
])
def test_reducer_sums_the_terms_of_trr_reduce(name, policy, monkeypatch):
    """Each TRR key's value is the sum over ``trr_reduce``'s terms, read as a term list would.

    The reducer sums ``_splittings``' rows without writing the terms out.
    A term's key1 is read first and its key2 only when key1 is not 0, so the
    keys a frame requests are a subsequence of that reading order: none is
    a key2 behind a zero key1.  The targets with a changed eta keep their
    seeds; the sums hold whatever the values are.
    """
    if name == "P2-rational-eta":
        # P2's seed <pt pt>_1 = 1, which the preset gets by its name.
        ts = _p2_rational_eta()
        backend = PrimaryBackend({CorrelatorKey((VarId(0, 3),) * 2, (1,)): Fraction(1)})
        assert {Fraction(-1), Fraction(1, 2)} <= set(itertools.chain(*ts.eta_inv))
    elif name == "P1xP1-mixed-eta":
        ts, backend = _seeded("P1xP1")
        eta = tuple(tuple(map(Fraction, row))
                    for row in ((0, 0, 0, 1), (0, 2, 1, 0), (0, 1, 2, 0), (1, 0, 0, 0)))
        ts = dataclasses.replace(ts, name=name, eta=eta)
        assert any(len(group) > 1 for _, _, groups in ts.raised_table
                   for group in groups.values())
    else:
        ts, backend = _seeded(name)
    requests = _recording_reduce(monkeypatch)
    engine = Engine(ts, backend)
    for key in engine.admissible_keys(policy):
        engine.invariant(key)
    entries = engine.cache.entries
    trr_keys = skipped = 0
    for key, asked in requests.items():
        ins, deg = key
        if not any(deg) or len(ins) < 3 or not ins[-1].level:
            continue
        chosen = min(i for i, v in enumerate(ins) if v.level == ins[-1].level)
        total, reads = Fraction(0), []
        for c, key1, key2 in trr_reduce(ts, key, chosen):
            reads.append(key1)
            if entries[key1]:
                reads.append(key2)
                total += c * entries[key1] * entries[key2]
            else:
                skipped += 1
        assert entries[key] == total
        it = iter(reads)
        assert all(sub in it for sub in asked), key
        trr_keys += 1
    assert trr_keys >= 100 and skipped >= 100


def test_cold_registry_cache_is_recorded_bytes(tmp_path):
    """All 31 tags on one context publish the keys and values the term-list reducer did."""
    engine = Engine(preset("P2"))
    policy = TruncationPolicy(3, 2, (1,))
    ctx = IdentityContext(engine, policy)
    for tag in IDENTITY_TAGS:
        assert all(f.status == "pass" for f in verify_identity(engine, tag, policy, ctx=ctx))
    path = tmp_path / "registry.jsonl"
    engine.cache.save(str(path))
    assert len(engine.cache.entries) == 715
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0be2d13df76f648a67d42124eeca83f8f59d3c04b466955ba78848d86446ee3d")


def test_cache_round_trip(tmp_path, p2_engine):
    path = tmp_path / "cache.jsonl"
    p2_engine.cache.save(str(path))
    loaded = InvariantCache.load(str(path), p2_engine.ts.fingerprint)
    assert loaded.entries == p2_engine.cache.entries
    with pytest.raises(CacheMismatch):
        InvariantCache.load(str(path), "deadbeef")


def test_cache_round_trip_past_int_str_digit_limit(tmp_path):
    huge = Fraction(sum(3 * 10 ** i for i in range(5500)), 7 ** 6000)
    key = make_key([(0, 3)] * 4, (2,))
    cache = InvariantCache(preset("P2").fingerprint, {key: huge})
    path = tmp_path / "cache.jsonl"
    cache.save(str(path))
    assert InvariantCache.load(str(path), cache.fingerprint).entries == {key: huge}


@pytest.mark.parametrize("name", ["point", "P1", "P2", "P1xP1"])
def test_cache_save_writes_json_dumps_text(tmp_path, monkeypatch, name):
    """Each record line is json.dumps(rec, sort_keys=True, separators=(",", ":")).

    The reader takes every line ``save`` writes by its text path: the JSON
    decoder sees only the header.
    """
    ts = _target(name)
    if name == "P1xP1":  # rank-2 degrees; the empty table backend cannot evaluate them
        entries = {make_key([(0, 4)], (1, 0)): Fraction(1),
                   make_key([(1, 2), (0, 2), (0, 3)], (0, 1)): Fraction(-3, 2),
                   make_key([(0, 4)] * 3, (1, 1)): Fraction(2)}
    else:
        engine = Engine(ts)
        for key in engine.admissible_keys(TruncationPolicy(4, 2, (2,) * ts.novikov_rank)):
            engine.invariant(key)
        entries = dict(engine.cache.entries)
    if name == "P1":
        assert entries[make_key([], (1,))] == 1  # a key with no insertions
        entries[make_key([(0, 2)] * 6, (1,))] = Fraction(-sum(3 * 10 ** i for i in range(5000)), 7)
    if name == "point":
        assert entries and all(key.degree == () for key in entries)  # rank 0: "deg":[]
    else:
        assert min(entries.values()) < 0
        assert max(v.denominator for v in entries.values()) > 1
    path = tmp_path / "cache.jsonl"
    InvariantCache(ts.fingerprint, entries).save(str(path))
    expect = [json.dumps({"fingerprint": ts.fingerprint}, sort_keys=True)]
    for key in sorted(entries):
        rec = {"ins": [[m, a] for m, a in key.insertions], "deg": list(key.degree),
               "val": format_rational(entries[key])}
        expect.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    assert path.read_text(encoding="utf-8").split("\n") == expect + [""]
    decoded = []
    decode = engine_module.decode_json
    monkeypatch.setattr(engine_module, "decode_json",
                        lambda text: decoded.append(text) or decode(text))
    assert InvariantCache.load(str(path), ts.fingerprint, ts).entries == entries
    assert decoded == [expect[0] + "\n"]


def _read_lines(lines, ts):
    """The entries ``_read_records`` reads from ``lines``, or its error's class."""
    try:
        return engine_module._read_records(lines, ts)
    except (ValueError, KeyError, TypeError, ParseError) as exc:
        return exc.__class__


def _read_alone(line, ts):
    """The entries ``_read_records`` reads from ``line`` alone, or its error's class."""
    return _read_lines([line], ts)


def test_text_and_json_read_paths_agree(monkeypatch):
    """Each line reads alike with the text path on and forced off.

    Forced off, every line goes to the JSON decoder, the reader for any
    layout; so a line the text path takes must give the same entries, and a
    line it refuses the same class of error.
    """
    good = '{"deg":[1],"ins":[[0,2],[1,3]],"val":"-7/3"}'
    lines = [good + "\n", good, '{"deg":[],"ins":[[0,1],[0,1],[0,1]],"val":"1"}\n',
             '{"deg":[1],"ins":[],"val":"1"}\n',
             '{"deg":[10],"ins":[[1,3],[0,2],[10,1]],"val":"5/12"}\n']  # unsorted
    huge = "1" + "0" * 4300
    for old, new in [("[1]", "[01]"), ("[[0,2]", "[[00,2]"), ("[[0,2]", "[[0,02]"),
                     ("[1]", "[-0]"), ("[[0,2]", "[[-0,2]"), ("[1]", "[true]"),
                     ("[[0,2]", "[[true,2]"), ("[1]", "[1.0]"), ("[[0,2]", "[[0,2.0]"),
                     ("[[0,2]", "[[-1,2]"), ("[1]", "[-1]"),
                     ("[1]", "[\u0661]"), ("[[0,2]", "[[\u0660,2]"), ("-7/3", "-\u0667/3"),
                     ("}", ',"x":1}'), ('{"deg":[1]', '{"deg":[2],"deg":[1]'),
                     ('"val":"-7/3"', '"val":"-7/3","val":"1"'), ("}", "}\r"), ("}", "} "),
                     ("{", " {"), (":", ": "), ('"deg"', '"\\u0064eg"'), ("-7/3", "\\u0031"),
                     ("[1]", f"[{huge}]"), ("[[0,2]", f"[[{huge},2]"), ("-7/3", huge + "/3"),
                     ("[1]", "[1,0]"), ('"-7/3"', "-7"), ("-7/3", "7/0"), ("-7/3", ""),
                     ("[[0,2]", "[[0,2,1]"), ("[[0,2],", "["), ("[[0,2]", "[[0,9]")]:
        assert old in good
        lines += [good.replace(old, new, 1) + "\n", good.replace(old, new, 1)]
    taken = [line for line in lines if engine_module._RECORD_RE.fullmatch(line)]
    assert len(taken) > 10
    targets = (None, preset("point"), preset("P2"))
    normal = [[_read_alone(line, ts) for ts in targets] for line in lines]
    monkeypatch.setattr(engine_module, "_RECORD_RE", re.compile(r"(?!)"))
    forced = [[_read_alone(line, ts) for ts in targets] for line in lines]
    for line, a, b in zip(lines, normal, forced):
        assert a == b, line
    assert any(isinstance(r, dict) and r for row in normal for r in row)
    assert any(r is ValueError for row in normal for r in row)


def _saved_records(name, policy):
    """The records ``save`` writes for a cold pass over ``policy`` on ``name``."""
    engine = Engine(preset(name))
    for key in engine.admissible_keys(policy):
        engine.invariant(key)
    return [{"deg": list(key.degree), "ins": [list(v) for v in key.insertions],
             "val": format_rational(value)} for key, value in sorted(engine.cache.entries.items())]


# Lines in save's layout made to fail its grammar: a leading-zero or signed
# degree, an empty degree item, a stray or a missing bracket, an empty slot, a
# leading-zero level and a slot of three integers.
_OFF_GRAMMAR = [(r'"deg":\[[0-9,]*\]', '"deg":[01]'), (r'"deg":\[[0-9,]*\]', '"deg":[-0]'),
                (r'"deg":\[', '"deg":[,'), (r'\]\],"val"', ']]],"val"'),
                (r'"ins":\[\[', '"ins":[1'), (r'"ins":\[', '"ins":[[],'),
                (r'"ins":\[\[', '"ins":[[00'), (r'"ins":\[\[([0-9]+),', r'"ins":[[\1,0,')]


def test_text_and_json_read_paths_agree_on_whole_files(monkeypatch):
    """Whole files read alike with the text path on and forced off.

    The text path checks each distinct degree and slot text once per file, so
    agreement must hold across lines, not only for a line alone.  The files
    interleave lines in save's layout, lines in other JSON layouts and lines
    in save's layout that fail its grammar (one bad slot text on many lines,
    too); each must read to the same entries or the same class of error.
    """
    layouts = [{"sort_keys": True, "separators": (",", ":")},
               {"sort_keys": True, "separators": (", ", ": ")}, {}]
    files = []
    for name, policy in (("point", TruncationPolicy(8, 5, ())),
                         ("P2", TruncationPolicy(4, 2, (2,)))):
        records = _saved_records(name, policy)
        assert len(records) > 10
        rng = random.Random(name)
        for trial in range(12):
            rng.shuffle(records)
            lines = ['{"fingerprint": "x"}\n'] + [
                json.dumps(rec, **layouts[i % 3 if trial % 2 else i % 2]) + "\n"
                for i, rec in enumerate(records)]
            files.append(lines)
            for pattern, repl in _OFF_GRAMMAR:
                bad = list(lines)
                i = rng.choice([i for i, line in enumerate(lines)
                                if line.startswith('{"deg":[') and re.search(pattern, line)])
                bad[i] = re.sub(pattern, repl, bad[i], count=1)
                assert bad[i] != lines[i]
                files.append(bad)
        # One slot text made bad on every line that has it.
        common = Counter(m for line in lines for m in re.findall(r"\[[0-9]+,[0-9]+\]", line))
        slot, count = common.most_common(1)[0]
        assert count > 5
        files.append([line.replace(slot, slot.replace(",", ",0"))  # "[0,2]" -> "[0,02]"
                      for line in lines])
    targets = (None, preset("point"), preset("P2"))
    normal = [[_read_lines(lines, ts) for ts in targets] for lines in files]
    monkeypatch.setattr(engine_module, "_RECORD_RE", re.compile(r"(?!)"))
    forced = [[_read_lines(lines, ts) for ts in targets] for lines in files]
    for lines, a, b in zip(files, normal, forced):
        assert a == b, lines
    results = [r for row in normal for r in row]
    assert sum(isinstance(r, dict) and len(r) > 10 for r in results) >= 4
    assert ValueError in results


def test_cache_load_refuses_a_later_header_of_another_target(tmp_path):
    p2 = preset("P2")
    header = '{"fingerprint": "%s"}\n' % p2.fingerprint
    good = '{"deg":[1],"ins":[[0,3],[0,3]],"val":"1"}\n'
    appended = '{"deg":[1],"ins":[[0,2],[0,3],[0,3]],"val":"99"}\n'
    path = tmp_path / "cache.jsonl"
    path.write_text(header + good + header + appended)  # a repeated header is skipped
    for ts in (None, p2):
        assert InvariantCache.load(str(path), p2.fingerprint, ts).entries[
            make_key([(0, 2), (0, 3), (0, 3)], (1,))] == 99
    path.write_text(header + good + '{"fingerprint": "another-target"}\n' + appended)
    for ts in (None, p2):
        with pytest.raises(CacheMismatch, match="another-target"):
            InvariantCache.load(str(path), p2.fingerprint, ts)
    # A seed table's headers are optional and name no target it is held to.
    table = tmp_path / "table.jsonl"
    table.write_text('{"fingerprint": "another-target"}\n' + good)
    assert load_table_backend(str(table), p2).table == {make_key([(0, 3), (0, 3)], (1,)): 1}


def test_cache_save_is_atomic(tmp_path, monkeypatch):
    engine = Engine(preset("P1"))
    for key in engine.admissible_keys(TruncationPolicy(3, 1, (2,))):
        engine.invariant(key)
    path = tmp_path / "cache.jsonl"
    path.write_text("previous contents\n")

    def crash(fd):
        raise OSError("disk full")

    # The records are written to a temporary file before the crash.
    monkeypatch.setattr(engine_module.os, "fsync", crash)
    with pytest.raises(OSError):
        engine.cache.save(str(path))
    monkeypatch.undo()
    assert path.read_text() == "previous contents\n"
    engine.cache.save(str(path))
    assert InvariantCache.load(str(path), engine.ts.fingerprint).entries == engine.cache.entries
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


def test_cache_load_rejects_corrupt_records(tmp_path):
    fingerprint = preset("P1").fingerprint
    header = '{"fingerprint": "%s"}\n' % fingerprint
    for body in ("{not json\n", header + "[1, 2]\n", header + '{"ins": [[0, 2]]}\n',
                 header + '{"ins":[[0,2]],"deg":[1],"val":"x"}\n', "[1]\n",
                 # A level, class or degree that is not an integer.
                 header + '{"deg":[1],"ins":[[0,2],[true,2]],"val":"1"}\n',
                 header + '{"deg":[1],"ins":[[0,2],[0,2.0]],"val":"1"}\n',
                 header + '{"deg":[true],"ins":[[0,2],[0,2]],"val":"1"}\n'):
        path = tmp_path / "cache.jsonl"
        path.write_text(body)
        with pytest.raises(CacheMismatch):
            InvariantCache.load(str(path), fingerprint)


def test_cache_load_rejects_keys_off_the_target(tmp_path):
    p1 = preset("P1")
    header = '{"fingerprint": "%s"}\n' % p1.fingerprint
    good = '{"deg":[1],"ins":[[0,2],[0,2]],"val":"1"}\n'
    path = tmp_path / "cache.jsonl"
    path.write_text(header + good)
    assert InvariantCache.load(str(path), p1.fingerprint, p1).entries == {
        make_key([(0, 2), (0, 2)], (1,)): 1}
    # Not admissible; a degree of the wrong length; a class P1 does not have;
    # dimension-admissible with a negative level; dimension-admissible with a
    # negative degree.
    for record in ('{"deg":[2],"ins":[[0,2]],"val":"5"}',
                   '{"deg":[1,0],"ins":[[0,2],[0,2]],"val":"1"}',
                   '{"deg":[1],"ins":[[0,2],[0,3]],"val":"1"}',
                   '{"deg":[1],"ins":[[-1,2],[1,2]],"val":"1"}',
                   '{"deg":[-1],"ins":[[0,1],[0,1],[0,1],[0,1]],"val":"1"}'):
        path.write_text(header + good + record + "\n")
        assert InvariantCache.load(str(path), p1.fingerprint).entries  # unchecked
        with pytest.raises(CacheMismatch):
            InvariantCache.load(str(path), p1.fingerprint, p1)


def test_cache_load_parses_repeated_values_alike(tmp_path):
    p2 = preset("P2")
    header = '{"fingerprint": "%s"}\n' % p2.fingerprint
    records = [('{"deg":[1],"ins":[[0,3],[0,3]],"val":"%s"}', "-7/3"),
               ('{"deg":[1],"ins":[[0,2],[1,3]],"val":"%s"}', "-7/3"),
               ('{"deg":[1],"ins":[[0,3],[1,2]],"val":"%s"}', "5/12"),
               ('{"deg":[1],"ins":[[2,1],[0,3]],"val":"%s"}', "-7/3"),
               ('{"deg":[1],"ins":[[0,2],[0,3],[0,3]],"val":"%s"}', "5/12")]
    path = tmp_path / "cache.jsonl"
    path.write_text(header + "".join(rec % val + "\n" for rec, val in records))
    expect = {}
    for rec, val in records:
        parsed = json.loads(rec % val)
        expect[make_key(parsed["ins"], parsed["deg"])] = parse_rational(val)
    assert len(expect) == len(records)
    for ts in (None, p2):
        assert InvariantCache.load(str(path), p2.fingerprint, ts).entries == expect


def test_cache_load_reads_any_json_layout(tmp_path):
    # The reader is a JSON reader, not a parser of the layout save writes.
    engine = Engine(preset("P2"))
    for key in engine.admissible_keys(TruncationPolicy(3, 2, (2,))):
        engine.invariant(key)
    canonical = tmp_path / "canonical.jsonl"
    engine.cache.save(str(canonical))
    header, *records = canonical.read_text(encoding="utf-8").splitlines()
    assert sum(len(json.loads(r)["ins"]) > 1 for r in records) > 10
    lines = [" " + header.replace(":", " :  ")]
    for i, line in enumerate(records):
        rec = json.loads(line)
        layout = {"val": rec["val"], "ins": rec["ins"][::-1], "deg": rec["deg"]}
        if i % 2:
            layout = dict(reversed(layout.items()))
        lines.append("\t" * (i % 3) + json.dumps(layout, indent=i % 4 or None,
                                                 separators=(" , ", " :  ")).replace("\n", ""))
        if i % 5 == 0:
            lines.append("  ")
    messy = tmp_path / "messy.jsonl"
    messy.write_text("\n".join(lines) + " \n\n", encoding="utf-8")
    ts = engine.ts
    for target in (None, ts):
        loaded = InvariantCache.load(str(messy), ts.fingerprint, target).entries
        assert loaded == InvariantCache.load(str(canonical), ts.fingerprint, target).entries
        assert loaded == engine.cache.entries


@pytest.mark.parametrize("first, second", [
    ('[[0,2],[0,2]]', '[[0,2],[0,2]]'),
    ('[[0,1],[0,2],[1,2]]', '[[1,2],[0,2],[0,1]]'),  # equal once sorted
])
def test_repeated_key_is_a_corrupt_cache(tmp_path, first, second):
    p1 = preset("P1")
    body = ('{"deg":[1],"ins":%s,"val":"1"}\n{"deg":[1],"ins":%s,"val":"5"}\n'
            % (first, second))
    path = tmp_path / "cache.jsonl"
    path.write_text('{"fingerprint": "%s"}\n' % p1.fingerprint + body)
    for ts in (None, p1):
        with pytest.raises(CacheMismatch, match="twice"):
            InvariantCache.load(str(path), p1.fingerprint, ts)
    table = tmp_path / "table.jsonl"
    table.write_text(body)
    with pytest.raises(ParseError, match="twice"):
        load_table_backend(str(table), p1)


def test_cache_determinism_cold_runs(tmp_path):
    files = []
    policy = TruncationPolicy(3, 2, (2,))
    for run in range(2):
        engine = Engine(preset("P2"))
        for key in engine.admissible_keys(policy):
            engine.invariant(key)
        path = tmp_path / f"run{run}.jsonl"
        engine.cache.save(str(path))
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_cache_fingerprint_guard():
    with pytest.raises(CacheMismatch):
        Engine(preset("P2"), cache=InvariantCache.for_target(preset("P1")))


def test_concurrent_invariants():
    # Threads share one engine and its cache; each evaluates on its own work
    # stack.  A short switch interval makes them interleave mid-reduction.
    engine = Engine(preset("P2"))
    keys = engine.admissible_keys(TruncationPolicy(4, 3, (2,)))
    orders = [random.Random(seed).sample(keys, len(keys)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(lambda ks: [engine.invariant(k) for k in ks], ks)
                       for ks in orders]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    reference = Engine(preset("P2"))
    for ks, values in zip(orders, results):
        assert values == [reference.invariant(k) for k in ks]


def test_table_backend():
    p2 = preset("P2")
    table = {make_key([(0, 3)] * 2, (1,)): Fraction(1),
             make_key([(0, 3)] * 5, (2,)): Fraction(1),
             make_key([(0, 3)] * 8, (3,)): Fraction(12)}
    engine = Engine(p2, PrimaryBackend(table))
    assert engine.invariant(make_key([(0, 3)] * 8, (3,))) == 12
    reference = p2_reference_value()
    assert reference != 0
    assert engine.invariant(make_key([(1, 3), (0, 3), (0, 3), (0, 3)], (2,))) == reference
    missing = Engine(p2, PrimaryBackend({}))
    with pytest.raises(TargetUnsupported):
        missing.invariant(make_key([(0, 3), (0, 3)], (1,)))


def p2_reference_value():
    return Engine(preset("P2")).invariant(make_key([(1, 3), (0, 3), (0, 3), (0, 3)], (2,)))


def test_table_backend_rejects_descendents():
    with pytest.raises(ValidationError):
        PrimaryBackend({make_key([(1, 3)], (1,)): Fraction(1)})


# --- generating functions ---------------------------------------------------------

def test_free_energy_coefficients(p2_engine):
    policy = TruncationPolicy(3, 1, (1,))
    f0 = p2_engine.free_energy(policy)
    pt2 = Monomial(((VarId(0, 3), 2),), (1,))
    assert f0.coefficient(pt2) == Fraction(1, 2)  # N_1 / 2!
    classical = Monomial(((VarId(0, 1), 1), (VarId(0, 2), 2)), (0,))
    assert f0.coefficient(classical) == Fraction(1, 2)  # int H^2 / 2!
    for mon, _ in f0.items_sorted():
        if not any(mon.degree):
            assert mon.total_exponent() >= 3


def test_free_energy_n3_coefficient(p2_engine):
    policy = TruncationPolicy(8, 0, (3,))
    f0 = p2_engine.free_energy(policy)
    mon = Monomial(((VarId(0, 3), 8),), (3,))
    assert f0.coefficient(mon) == Fraction(12, math.factorial(8))


def test_correlation_series_classical_term(p2_engine):
    policy = TruncationPolicy(2, 1, (1,))
    series = p2_engine.correlation_series([(0, 2), (0, 2), (0, 1)], policy)
    const = Monomial((), (0,))
    assert series.coefficient(const) == 1  # int H^2


def test_correlation_series_equals_derivative_of_f0(p2_engine):
    from gwvir.series import series_derive
    policy = TruncationPolicy(2, 2, (1,))
    big = TruncationPolicy(3, 2, (1,))
    f0 = p2_engine.free_energy(big)
    v = VarId(1, 3)
    derived = series_derive(f0, v)
    direct = p2_engine.correlation_series([v], policy)
    for mon, coeff in direct.items_sorted():
        assert derived.coefficient(mon) == coeff
    for mon, coeff in derived.items_sorted():
        if policy.admits(mon):
            assert direct.coefficient(mon) == coeff


# --- weight-indexed policy monomials -----------------------------------------------

INDEX_CASES = [("point", TruncationPolicy(5, 4, ())),
               ("P1", TruncationPolicy(5, 4, (3,))),
               ("P2", TruncationPolicy(5, 4, (3,))),
               ("P1xP1", TruncationPolicy(4, 3, (2, 2)))]


@pytest.mark.parametrize("name,policy", INDEX_CASES)
def test_walk_t_monomials_fields_and_order(name, policy):
    ts = _target(name)
    walked = list(_walk_t_monomials(policy, ts))
    mons = [tuple(sorted(Counter(ins).items())) for _, _, ins, _ in walked]
    assert mons == _t_monomials(policy, ts)
    for (weight, tkey, ins, fact), mon in zip(walked, mons):
        assert ins == _insertions(mon)
        assert tkey == policy.packing.exps_key(mon)
        assert weight == _weight(ts, ins) == sum(m + ts.q[a - 1] - 1 for m, a in ins)
        assert fact == math.prod(math.factorial(e) for _, e in mon)
    # Documented order: each monomial comes after the one it extends by its
    # last variable, so (transitively) before all its extensions.
    position = {mon: i for i, mon in enumerate(mons)}
    assert mons[0] == ()
    for i, mon in enumerate(mons[1:], start=1):
        assert position[mon[:-1]] < i
    # With a weight bound, every monomial under it is still walked, in order.
    bound = max(weight for weight, *_ in walked) // 2
    pruned = list(_walk_t_monomials(policy, ts, bound))
    assert len(pruned) < len(walked)
    assert [e for e in pruned if e[0] <= bound] == [e for e in walked if e[0] <= bound]


def test_walk_t_monomials_has_no_recursion_limit():
    # 1,500 insertions deep; only the first monomials are walked, since the
    # whole walk is astronomically long.
    walk = _walk_t_monomials(TruncationPolicy(1500, 1500, ()), preset("point"))
    first = list(itertools.islice(walk, 2000))
    assert len(first) == 2000
    # Depth first: t_0, t_0 t_1, ... down to all 1,500 insertions on distinct levels.
    assert first[1500][2] == tuple(VarId(m, 1) for m in range(1500))
    assert first[1500][3] == 1


@pytest.mark.parametrize("name,policy", INDEX_CASES)
def test_admissible_keys_match_brute_force(name, policy):
    ts = _target(name)
    expect = []
    for mon in _t_monomials(policy, ts):
        ins = _insertions(mon)
        for deg in _degree_box(policy.max_degree):
            key = CorrelatorKey(ins, deg)
            if dimension_admissible(ts, key) and (any(deg) or len(ins) >= 3):
                expect.append(key)
    assert Engine(ts).admissible_keys(policy) == expect


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_correlation_series_match_brute_force(name):
    ts = preset(name)
    policy = TruncationPolicy(3, 2, (2,) * ts.novikov_rank)
    engine = Engine(ts)
    for level in range(policy.max_level + 2):
        for cls in range(1, ts.classes + 1):
            fixed = (VarId(level, cls),)
            terms = {}
            for mon in _t_monomials(policy, ts):
                full = tuple(sorted(fixed + _insertions(mon)))
                fact = math.prod(math.factorial(e) for _, e in mon)
                for deg in _degree_box(policy.max_degree):
                    key = CorrelatorKey(full, deg)
                    if dimension_admissible(ts, key) and (any(deg) or len(full) >= 3):
                        terms[Monomial(mon, deg)] = Fraction(engine.invariant(key), fact)
            expect = TruncatedSeries(policy, terms)
            assert engine.correlation_series(fixed, policy) == expect


# --- every first derivative from one walk ---------------------------------------

def _seeded(name):
    """A target and its backend: the file targets come with their seed tables."""
    if name in ("P1xP1", "P3"):
        ts = load_target((DATA / f"{name}.json").read_text(encoding="utf-8"))
        return ts, load_table_backend(str(DATA / f"{name}_seeds.jsonl"), ts)
    return preset(name), None


def _variables(policy, ts):
    return [VarId(m, a) for m in range(policy.max_level + 1) for a in range(1, ts.classes + 1)]


# (K, M, D): K = 0, 1 and 2, M = 0 and D = 0 each occur.
GRADIENT_POLICIES = [(0, 2, 1), (1, 1, 1), (2, 0, 2), (2, 2, 0), (3, 2, 1)]


@pytest.mark.parametrize("name", ["point", "P1", "P2", "P1xP1", "P3"])
def test_gradient_series_matches_single_slot_series(name):
    ts, backend = _seeded(name)
    for k, m, d in GRADIENT_POLICIES:
        policy = TruncationPolicy(k, m, (d,) * ts.novikov_rank)
        walked, one_by_one = Engine(ts, backend), Engine(ts, backend)
        grads = walked.gradient_series(policy)
        assert list(grads) == _variables(policy, ts)
        for v, series in grads.items():
            assert series == one_by_one.correlation_series((v,), policy)
        # Both cold engines reduced and published the same keys.
        assert walked.cache.entries == one_by_one.cache.entries
        # Warm, from the cache the other path filled.
        warm = one_by_one.gradient_series(policy)
        assert all(warm[v] == grads[v] for v in grads)
        assert walked.cache.entries == one_by_one.cache.entries


@pytest.mark.parametrize("name", ["P2", "P1xP1"])
def test_gradient_series_reads_each_key_once(name, monkeypatch):
    ts, backend = _seeded(name)
    policy = TruncationPolicy(3, 2, (2,) * ts.novikov_rank)
    engine = Engine(ts, backend)
    engine.gradient_series(policy)
    published = len(engine.cache.entries)
    read, lookup = [], engine.invariant

    def invariant(key):
        read.append(key)
        return lookup(key)

    monkeypatch.setattr(engine, "invariant", invariant)
    for v in _variables(policy, ts):
        engine.correlation_series((v,), policy)
    one_by_one = list(read)
    read.clear()
    engine.gradient_series(policy)
    # Every key the single-slot series read, each exactly once; all hits.
    assert len(read) == len(set(read))
    assert set(read) == set(one_by_one)
    assert len(read) < len(one_by_one)
    assert len(engine.cache.entries) == published
