from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gwvir.engine import Engine, make_key
from gwvir.identities import IDENTITY_TAGS, IdentityContext, verify_identity
from gwvir.errors import (IndexOutOfRange, PolicyTooTight, UnsupportedIndex)
from gwvir.series import TruncatedSeries, TruncationPolicy, VarId, series_mul
from gwvir.target import preset
from gwvir.virasoro import (CLOSED_A, CorrContext, VirasoroOperator, apply_operator,
                            bracket_l0_scale, build_operator,
                            check_shift_relations, coeff_A, coeff_B,
                            combine_fields, commutator_residual, dilaton_field,
                            euler_field, linear_field, psi, psi_tilde, string_field,
                            _psi_generic)

from oracles import gamma_ratio_A, gamma_ratio_B, linear_field_oracle
from test_engine import _target


# --- A and B coefficient functions -------------------------------------------

def test_coeff_A_closed_polynomials():
    rng = random.Random(9)
    for _ in range(30):
        b = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        m = rng.randint(0, 4)
        assert coeff_A(b, 0, m, 1) == (m + b) * (m + b + 1)
        assert coeff_A(b, 1, m, 1) == 2 * m + 2 * b + 1
        assert coeff_A(b, 2, m, 1) == 1
        assert coeff_A(b, 1, m, 2) == 3 * (m + b) ** 2 + 6 * (m + b) + 2
        assert coeff_A(b, 2, m, 2) == 3 * (m + b + 1)


def test_coeff_B_closed_polynomials():
    rng = random.Random(10)
    for _ in range(30):
        b = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        assert coeff_B(b, 0, 0, 1) == b * (1 - b)
        assert coeff_B(b, 1, 0, 2) == -(3 * b * b - 1)
        assert coeff_B(b, 0, 0, 2) == -(b - 1) * b * (b + 1)
        assert coeff_B(b, 0, 1, 2) == (b - 2) * (b - 1) * b


def test_coeff_functions_match_gamma_ratios():
    # Non-integer b keeps every Gamma-ratio factor finite.
    bs = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3),
          Fraction(-5, 3), Fraction(7, 4)]
    for b in bs:
        for n in (1, 2, 3, 4):
            for m in range(5):
                for j in range(n + 2):
                    assert coeff_A(b, j, m, n) == gamma_ratio_A(b, j, m, n)
            for j in range(n):
                for k in range(n - j):
                    assert coeff_B(b, j, k, n) == gamma_ratio_B(b, j, k, n)


def test_coeff_index_errors():
    with pytest.raises(IndexOutOfRange):
        coeff_A(Fraction(1, 2), 3, 0, 1)
    with pytest.raises(IndexOutOfRange):
        coeff_A(Fraction(1, 2), 0, -1, 1)
    with pytest.raises(IndexOutOfRange):
        coeff_B(Fraction(1, 2), 1, 0, 1)
    with pytest.raises(IndexOutOfRange):
        coeff_B(Fraction(1, 2), 0, 1, 1)


# --- operator construction -----------------------------------------------------

def test_build_operator_unsupported_index():
    with pytest.raises(UnsupportedIndex):
        build_operator(preset("P2"), -2, 3)


def test_l_minus_one_is_minus_string_field():
    for name in ("point", "P1", "P2"):
        ts = preset(name)
        op = build_operator(ts, -1, 4)
        minus_s = combine_fields((string_field(ts, 4), Fraction(-1)))
        assert op.linear == minus_s
        assert op.classical == ts.eta
        assert not op.quadratic and op.constant == 0


def test_l0_linear_is_minus_x_minus_half_d():
    for name in ("point", "P1", "P2"):
        ts = preset(name)
        op = build_operator(ts, 0, 4)
        shift = Fraction(3 - ts.complex_dim, 2)
        expected = combine_fields((euler_field(ts, 4), Fraction(-1)),
                                  (dilaton_field(ts, 4), -shift))
        assert op.linear == expected
        assert op.classical == ts.chern_power_eta(1)
        lhs, rhs, _ = ts.central_condition()
        assert op.constant == rhs


@pytest.mark.parametrize("target", ["point", "P1", "P2", "P1xP1"])
def test_linear_fields_match_the_displays(target):
    # C is not symmetric on P1, P2 and P1xP1, so a transposed C shows; M = 0
    # needs the level-1 sources that carry the dilaton shift.
    ts = _target(target)
    for M in (0, 1, 3):
        for n in range(-1, 4):
            assert build_operator(ts, n, M).linear == linear_field_oracle(ts, f"L{n}", M)
        for n in (1, 2):
            assert linear_field(ts, CLOSED_A[n], n, M) == linear_field_oracle(ts, f"L{n}", M)
        ctx = IdentityContext(Engine(ts), TruncationPolicy(2, M, (0,) * ts.novikov_rank))
        for name in ("S", "D", "X", "Ltilde1"):
            assert ctx.field(name) == linear_field_oracle(ts, name, M)


def test_l1_quadratic_coefficient_on_p2():
    op = build_operator(preset("P2"), 1, 3)
    # b = 1/2 class (H): b(1-b) = 1/4 paired through eta with itself.
    quad = {(u, v): c for u, v, c in op.quadratic}
    assert quad[(VarId(0, 2), VarId(0, 2))] == Fraction(1, 4)


def test_operator_invariants():
    for n in (-1, 0, 1, 2, 3):
        op = build_operator(preset("P2"), n, 4)
        assert all(dst.level >= 0 for _, dst, _ in op.linear)
        assert all(u <= v for u, v, _ in op.quadratic)
        # classical part is symmetric
        mat = op.classical
        assert all(mat[i][j] == mat[j][i] for i in range(3) for j in range(3))


def test_classical_forms_match_displays():
    p2 = preset("P2")
    assert build_operator(p2, 1, 3).classical == p2.chern_power_eta(2)
    assert build_operator(p2, 2, 3).classical == p2.chern_power_eta(3)


# --- residuals -------------------------------------------------------------------

def test_apply_operator_string_and_hori(p2_engine):
    policy = TruncationPolicy(3, 2, (2,))
    big = TruncationPolicy(4, 2, (2,))
    f0 = p2_engine.free_energy(big)
    for n in (-1, 0):
        res = apply_operator(build_operator(p2_engine.ts, n, 2), f0, policy)
        assert res.is_zero()


def test_apply_operator_zero_op(p2_engine):
    policy = TruncationPolicy(3, 2, (2,))
    f0 = p2_engine.free_energy(TruncationPolicy(4, 2, (2,)))
    zero = VirasoroOperator((), (), preset("P2").chern_power(5), Fraction(0))
    assert apply_operator(zero, f0, policy).is_zero()


def test_apply_operator_policy_guard(p2_engine):
    policy = TruncationPolicy(3, 2, (2,))
    f0 = p2_engine.free_energy(policy)  # no margin
    with pytest.raises(PolicyTooTight):
        apply_operator(build_operator(p2_engine.ts, 0, 2), f0, policy)


def test_apply_operator_matches_psi(p1_engine):
    policy = TruncationPolicy(2, 1, (2,))
    big = TruncationPolicy(3, 3, (2,))
    f0 = p1_engine.free_energy(big)
    op = build_operator(p1_engine.ts, 1, 1)
    assert apply_operator(op, f0, policy) == psi(p1_engine, 1, policy)


def test_psi_empty_small_policies(point_engine, p1_engine, p2_engine):
    assert psi(point_engine, 1, TruncationPolicy(4, 3, ())).is_zero()
    assert psi(p1_engine, 2, TruncationPolicy(3, 2, (2,))).is_zero()
    assert psi(p2_engine, 1, TruncationPolicy(3, 2, (2,))).is_zero()


def test_psi_rejects_bad_index(p2_engine):
    with pytest.raises(UnsupportedIndex):
        psi(p2_engine, 0, TruncationPolicy(2, 1, (1,)))
    with pytest.raises(UnsupportedIndex):
        psi_tilde(p2_engine, 3, TruncationPolicy(2, 1, (1,)))


def test_psi_tilde_empty_small_policies(point_engine, p2_engine):
    assert psi_tilde(point_engine, 1, TruncationPolicy(4, 3, ())).is_zero()
    assert psi_tilde(p2_engine, 2, TruncationPolicy(3, 2, (2,))).is_zero()


def test_psi_higher_n_on_p1(p1_engine):
    policy = TruncationPolicy(3, 2, (2,))
    for n in (3, 4):
        assert psi(p1_engine, n, policy).is_zero()


def test_perturbed_eta_detected():
    base = preset("P2")
    eta = [list(r) for r in base.eta]
    eta[0][0] = Fraction(1)
    bad = type(base)(name="P2", classes=3, complex_dim=2, q=base.q,
                     eta=tuple(tuple(r) for r in eta), cup=base.cup,
                     c1_mat=base.c1_mat, novikov_rank=1, c1_deg=(3,),
                     divisors=base.divisors, euler_char=3, c1_cdm1=base.c1_cdm1)
    series = _psi_generic(CorrContext(Engine(bad), TruncationPolicy(3, 2, (1,))), 1)
    assert not series.is_zero()


def test_corrupted_cache_detected():
    # Poison a string-equation-determined entry.  (Scaling <pt,pt>_{0,1} alone
    # would NOT be detectable: that is the Novikov rescaling gauge freedom,
    # and the reduction consumes it coherently.)
    engine = Engine(preset("P2"))
    key = make_key([(1, 1), (0, 3), (0, 3)], (1,))
    engine.cache.entries[key] = Fraction(7)
    series = psi(engine, 1, TruncationPolicy(3, 2, (1,)))
    assert not series.is_zero()


# --- derivative families ---------------------------------------------------------

def test_shift_relations_hold_for_doctored_operator(p2_engine):
    # The two dilaton-shift identities hold for the residual of any operator
    # of the ttilde/quadratic/classical shape, not only honest Virasoro ones.
    policy = TruncationPolicy(3, 2, (2,))
    ctx = CorrContext(p2_engine, policy)
    op = build_operator(p2_engine.ts, 1, policy.max_level)
    doctored = VirasoroOperator(
        tuple((s, d, 3 * c) for s, d, c in op.linear[:4]) + op.linear[4:],
        op.quadratic, op.classical, op.constant)
    from gwvir.virasoro import _classical_series
    from gwvir.series import series_mul
    out = ctx.field_series(doctored.linear)
    for u, v, coeff in doctored.quadratic:
        out = out + series_mul(ctx.corr(u), ctx.corr(v)).scale(Fraction(1, 2) * coeff)
    out = out + _classical_series(doctored.classical, policy)
    assert not out.is_zero()
    assert check_shift_relations(out) == []


def test_shift_relations_flag_violations(p2_engine):
    policy = TruncationPolicy(3, 2, (2,))
    series = p2_engine.correlation_series([(1, 1)], policy)
    assert check_shift_relations(series) != []


# --- commutators ------------------------------------------------------------------

def test_commutators_all_presets():
    for name in ("point", "P1", "P2"):
        ts = preset(name)
        degs = (0,) * ts.novikov_rank
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                policy = TruncationPolicy(2, m + n + 2, degs)
                assert commutator_residual(ts, m, n, policy).is_empty()


def test_commutator_antisymmetry_structural():
    ts = preset("P2")
    policy = TruncationPolicy(2, 6, (0,))
    r12 = commutator_residual(ts, 1, 2, policy)
    r21 = commutator_residual(ts, 2, 1, policy)
    assert r12.is_empty() and r21.is_empty()
    assert (-r12).linear == r21.linear and (-r12).quadratic == r21.quadratic


def test_commutator_policy_guard():
    with pytest.raises(PolicyTooTight):
        commutator_residual(preset("P2"), 2, 2, TruncationPolicy(2, 3, (0,)))


def test_bracket_l0_scale_is_minus_two():
    for name in ("point", "P1", "P2"):
        ts = preset(name)
        scale, exact = bracket_l0_scale(ts, TruncationPolicy(2, 4, (0,) * ts.novikov_rank))
        assert scale == -2 and exact


def test_bracket_l0_scale_detects_central_mismatch():
    base = preset("P2")
    bad = type(base)(name="P2c", classes=3, complex_dim=2, q=base.q, eta=base.eta,
                     cup=base.cup, c1_mat=base.c1_mat, novikov_rank=1, c1_deg=(3,),
                     divisors=base.divisors, euler_char=99, c1_cdm1=base.c1_cdm1)
    scale, exact = bracket_l0_scale(bad, TruncationPolicy(2, 4, (0,)))
    assert scale == -2 and not exact


def test_residual_nonzero_for_wrong_rhs_scale():
    # [L_1, L_2] != -2 L_3, so scaling the right side wrongly must be caught.
    from gwvir.virasoro import (_basis_window, _record_map, _residual_records,
                                _scale_op)
    ts = preset("P2")
    policy = TruncationPolicy(2, 6, (0,))
    basis = _basis_window(ts, 2, policy)
    rhs = _scale_op(build_operator(ts, 3, 6), Fraction(-2))
    records = _residual_records(basis, build_operator(ts, 1, 6),
                                build_operator(ts, 2, 6), rhs)
    assert _record_map(records)


@pytest.mark.parametrize("target", ["P1", "P2"])
def test_pair_is_the_weighted_class_sum(target):
    # P2's b(1-b) is the same on classes 1 and 3, which O^1 = O_3 swaps; its
    # grading b is not, so weights indexed by the raised class instead of the
    # lowered one change the sum there.
    ts = preset(target)
    ctx = CorrContext(Engine(ts), TruncationPolicy(3, 2, (1,)))
    sides = [(), ((1, 2),), ((0, ts.classes), (1, 1))]
    for weights in (None, ts.b, tuple(b * (1 - b) for b in ts.b)):
        for level in (0, 1):
            for left in sides:
                for right in sides:
                    expect = TruncatedSeries(ctx.policy)
                    for s in range(1, ts.classes + 1):
                        w = 1 if weights is None else weights[s - 1]
                        expect.add_scaled(series_mul(ctx.corr(*left, (level, s)),
                                                     ctx.corr_raised(s, *right)), w)
                    assert ctx.pair(left, right, weights, level) == expect
    # GenWDVV's canonical ordering of the two sides relies on this symmetry.
    for left in sides:
        for right in sides:
            assert ctx.pair(left, right) == ctx.pair(right, left)


def test_shared_context_series_stay_exact_after_registry():
    # Every tag runs on one context, as ``gw identities`` does; no in-place
    # accumulation may have written into a cached series.
    policy = TruncationPolicy(3, 2, (1,))
    engine = Engine(preset("P2"))
    ctx = IdentityContext(engine, policy)
    for tag in IDENTITY_TAGS:
        assert all(f.status == "pass" for f in verify_identity(engine, tag, policy, ctx=ctx))
    fresh = Engine(preset("P2"))
    assert ctx._corr
    for vids, series in ctx._corr.items():
        assert series == fresh.correlation_series(vids, policy)
    fresh_ctx = CorrContext(fresh, policy)
    assert ctx._contracted
    # The memo is keyed by a per-context tag for each distinct field.
    terms_of = {tag: terms for terms, tag in ctx._field_tags.items()}
    for (tag, vids), series in ctx._contracted.items():
        terms = terms_of[tag]
        assert series == fresh_ctx.field_series(terms, *reversed(vids))
        assert ctx.field_series(terms, *reversed(vids)) is series
    assert ctx._field_raised and ctx._field2
    for (tag, sigma, vids), series in ctx._field_raised.items():
        assert series == fresh_ctx.field_raised(terms_of[tag], sigma, *reversed(vids))
    for (tag, second, vids), series in ctx._field2.items():
        assert series == fresh_ctx.field2_series(terms_of[tag], terms_of[second], *reversed(vids))
    assert ctx._raised
    for (sigma, vids), series in ctx._raised.items():
        assert series == fresh_ctx.corr_raised(sigma, *reversed(vids))
