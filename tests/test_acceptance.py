"""Acceptance gate: every criterion at its stated policy, exact comparisons.

One test per criterion; each prints a single PASS line with its wall time
(visible under pytest -v as the test outcome, and on stdout with -s).
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction


from gwvir.engine import Engine, PrimaryBackend, make_key
from gwvir.identities import IDENTITY_TAGS, IdentityContext, verify_identity
from gwvir.series import TruncationPolicy
from gwvir.target import preset
from gwvir.virasoro import build_operator, commutator_residual, psi, psi_tilde

from oracles import point_string_oracle, wdvv_associativity_nd


def _report(number: int, label: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:2d} [{label}]: PASS ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_point_closed_form(point_engine):
    started = time.monotonic()
    checked = 0
    for k in range(3, 10):
        for levels in itertools.combinations_with_replacement(range(k - 2), k):
            if sum(levels) != k - 3:
                continue
            oracle = point_string_oracle(levels)
            closed = Fraction(math.factorial(k - 3))
            for m in levels:
                closed /= math.factorial(m)
            engine_value = point_engine.invariant(make_key([(m, 1) for m in levels], ()))
            assert engine_value == oracle == closed
            checked += 1
    assert checked == 30  # partitions p(0) + ... + p(6)
    _report(1, "point closed form k<=9", started, 5.0)


def test_criterion_02_kontsevich_numbers():
    started = time.monotonic()
    oracle = wdvv_associativity_nd(6)
    engine = Engine(preset("P2"))
    assert [engine.invariant(make_key([(0, 3)] * (3 * d - 1), (d,)))
            for d in range(1, 7)] == oracle
    assert oracle == [1, 1, 12, 620, 87304, 26312976]
    _report(2, "N_d vs WDVV associativity oracle", started, 1.0)


POLICIES_34 = (
    ("point", TruncationPolicy(6, 5, ())),
    ("P1", TruncationPolicy(5, 4, (3,))),
    ("P2", TruncationPolicy(5, 4, (3,))),
)


def _engine_for(name, point_engine, p1_engine, p2_engine):
    return {"point": point_engine, "P1": p1_engine, "P2": p2_engine}[name]


def test_criterion_03_virasoro_constraints(point_engine, p1_engine, p2_engine):
    started = time.monotonic()
    for name, policy in POLICIES_34:
        engine = _engine_for(name, point_engine, p1_engine, p2_engine)
        for n in (1, 2):
            residual = psi(engine, n, policy)
            assert residual.is_zero(), (name, n, residual.items_sorted()[:3])
    _report(3, "Psi_{0,1}, Psi_{0,2} vanish on point, P1, P2", started, 600.0)


def test_criterion_04_tilde_constraints(point_engine, p1_engine, p2_engine):
    started = time.monotonic()
    for name, policy in POLICIES_34:
        engine = _engine_for(name, point_engine, p1_engine, p2_engine)
        for n in (1, 2):
            residual = psi_tilde(engine, n, policy)
            assert residual.is_zero(), (name, n, residual.items_sorted()[:3])
    _report(4, "tilde constraints vanish on point, P1, P2", started, 600.0)


def test_criterion_05_generic_vs_closed_form(point_engine, p1_engine, p2_engine):
    started = time.monotonic()
    for engine in (point_engine, p1_engine, p2_engine):
        ts = engine.ts
        policy = TruncationPolicy(3, 2, (1,) * ts.novikov_rank)
        ctx = IdentityContext(engine, policy)
        for tag in ("PsiClosedForm1", "PsiClosedForm2"):
            findings = verify_identity(ctx, tag)
            assert all(f.status == "pass" for f in findings), (ts.name, tag)
        assert build_operator(ts, 1, 3).classical == ts.chern_power_eta(2)
        assert build_operator(ts, 2, 3).classical == ts.chern_power_eta(3)
    _report(5, "generic operator reproduces closed-form coefficients", started, 120.0)


def test_criterion_06_virasoro_relation():
    started = time.monotonic()
    for name in ("point", "P2"):
        ts = preset(name)
        degs = (0,) * ts.novikov_rank
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                policy = TruncationPolicy(2, m + n + 2, degs)
                assert commutator_residual(ts, m, n, policy).is_empty(), (name, m, n)
    _report(6, "[L_m, L_n] = (m-n) L_{m+n} on the window", started, 120.0)


def test_criterion_07_central_condition():
    started = time.monotonic()
    expect = {
        "point": (Fraction(1, 16), Fraction(1, 16), True),
        "P1": (Fraction(0), Fraction(0), True),
        "P2": (Fraction(-5, 16), Fraction(-5, 16), True),
    }
    for name, triple in expect.items():
        assert preset(name).central_condition() == triple
    _report(7, "central condition on point, P1, P2", started, 5.0)


def test_criterion_08_identity_registry(point_engine, p2_engine):
    started = time.monotonic()
    for engine in (point_engine, p2_engine):
        policy = TruncationPolicy(4, 3, (2,) * engine.ts.novikov_rank)
        ctx = IdentityContext(engine, policy)
        for tag in IDENTITY_TAGS:
            findings = verify_identity(ctx, tag)
            bad = [f for f in findings if f.status != "pass"]
            assert not bad, (engine.ts.name, tag, bad[:2])
    _report(8, f"identity registry ({len(IDENTITY_TAGS)} tags) on point and P2",
            started, 900.0)


# P2's seed <pt pt>_1 = 1.  A perturbed P2 is not P2, so an Engine gives it no
# seed unless it is handed this one.
_P2_SEED = PrimaryBackend({make_key([(0, 3)] * 2, (1,)): 1})


def _perturbed_p2(**changes):
    base = preset("P2")
    fields = dict(name="P2", classes=3, complex_dim=2, q=base.q, eta=base.eta,
                  cup=base.cup, c1_mat=base.c1_mat, novikov_rank=1, c1_deg=(3,),
                  divisors=base.divisors, euler_char=3, c1_cdm1=base.c1_cdm1)
    fields.update(changes)
    return type(base)(**fields)


def test_criterion_09_falsifiability():
    started = time.monotonic()
    policy = TruncationPolicy(3, 2, (1,))
    # (a) perturb one eta entry: criterion-3 check fails with a located coefficient
    eta = [list(r) for r in preset("P2").eta]
    eta[0][0] = Fraction(1)
    bad_eta = _perturbed_p2(eta=tuple(tuple(r) for r in eta))
    residual = psi(Engine(bad_eta, _P2_SEED), 1, policy)
    assert not residual.is_zero()
    mon, coeff = residual.items_sorted()[0]
    assert coeff != 0
    # (b) perturb one C entry: criterion-8 registry fails with a located coefficient
    c1 = [list(r) for r in preset("P2").c1_mat]
    c1[0][1] = Fraction(4)
    bad_c = _perturbed_p2(c1_mat=tuple(tuple(r) for r in c1))
    findings = verify_identity(IdentityContext(Engine(bad_c, _P2_SEED), policy), "FRR")
    located = [f for f in findings if f.status == "fail" and f.monomial]
    assert located
    # (c) poison one cached invariant (a string-determined entry, not the
    # Novikov-gauge value N_1): criterion-3 check fails with a located coefficient
    engine = Engine(preset("P2"))
    engine.cache.entries[make_key([(1, 1), (0, 3), (0, 3)], (1,))] = Fraction(7)
    residual = psi(engine, 1, policy)
    assert not residual.is_zero()
    _report(9, "single perturbations are detected and located", started, 300.0)


def test_criterion_10_higher_constraints(point_engine, p2_engine):
    started = time.monotonic()
    for engine in (point_engine, p2_engine):
        policy = TruncationPolicy(4, 3, (2,) * engine.ts.novikov_rank)
        for n in (3, 4):
            residual = psi(engine, n, policy)
            assert residual.is_zero(), (engine.ts.name, n)
    _report(10, "Psi_{0,3}, Psi_{0,4} vanish (Virasoro consequence)", started, 600.0)
