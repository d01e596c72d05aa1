from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from gwvir.engine import Engine, load_seeds, make_key
from gwvir.identities import IDENTITY_TAGS, IdentityContext, verify_identity
from gwvir.errors import IndexOutOfRange, ParseError, PolicyTooTight, UnsupportedIndex
from gwvir.series import TruncatedSeries, TruncationPolicy, VarId, series_mul
from gwvir.target import load_target, preset, preset_names
from gwvir.virasoro import (CLOSED_A, CorrContext, VirasoroOperator, _complement_sums,
                            _residual, _shifted_complement_sums, apply_operator, bracket,
                            build_operator, check_shift_relations, coeff_A, coeff_B,
                            combine_fields, commutator_residual, euler_field,
                            linear_field, NAMED_FIELDS, psi, psi_tilde)

from oracles import (complement_product_sum, gamma_ratio_A, gamma_ratio_B, linear_field_oracle,
                     operator_action)
from test_acceptance import _P2_SEED
from test_engine import DATA, _target


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


def test_coeff_functions_match_subset_sums():
    # Integer b too: the subset sums, unlike the Gamma ratios, take any b.
    # From n = -1: L_-1 and L_0 read the empty and the one-level windows.
    for b in (Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(2)):
        for n in range(-1, 6):
            for j in range(n + 2):
                for m in range(5):
                    assert coeff_A(b, j, m, n) == complement_product_sum(
                        b, range(m, m + n + 1), j)
            for j in range(n):
                for k in range(n - j):
                    assert coeff_B(b, j, k, n) == (-1) ** (k + 1) * complement_product_sum(
                        b, range(-k - 1, n - k), j)


def test_coeff_functions_read_one_expansion_per_levels():
    # Queried in a shuffled order, each (b, levels) of coeff_A is expanded
    # once and each (b, n) of coeff_B once, and every j and k read from it;
    # an int b and the equal Fraction share one expansion.
    queries = [(coeff_A, b, j, m, n, range(m, m + n + 1), 1)
               for b in (Fraction(0), 2, Fraction(-5, 3)) for n in range(1, 5)
               for m in range(3) for j in range(n + 2)]
    queries += [(coeff_B, b, j, k, n, range(-k - 1, n - k), (-1) ** (k + 1))
                for b in (Fraction(0), 2, Fraction(-5, 3)) for n in range(1, 5)
                for j in range(n) for k in range(n - j)]
    random.Random(4).shuffle(queries)
    _complement_sums.cache_clear()
    _shifted_complement_sums.cache_clear()
    for coeff, b, j, x, n, levels, sign in queries:
        assert coeff(b, j, x, n) == sign * complement_product_sum(Fraction(b), levels, j)
    distinct = {(Fraction(b), levels) for coeff, b, _, _, _, levels, _ in queries
                if coeff is coeff_A}
    assert _complement_sums.cache_info().misses == len(distinct)
    distinct = {(Fraction(b), n) for coeff, b, _, _, n, _, _ in queries if coeff is coeff_B}
    assert _shifted_complement_sums.cache_info().misses == len(distinct)


PRESET_BS = sorted({b for name in preset_names() for b in preset(name).b})


@pytest.mark.parametrize("b", PRESET_BS, ids=str)
def test_coeff_functions_match_subset_sums_up_to_n_40(b):
    """coeff_A and coeff_B at every n <= 40, on each b a preset has.

    coeff_B's sums for each k come from the previous k's by one exact division
    and one multiplication.  Each k's whole expansion must equal a fresh
    product over its levels.  The subset-by-subset oracle checks j = 0, and
    j = 1 at every tenth n, for coeff_B at the first k, the first derived
    one, a middle one and the last.
    """
    for n in range(1, 41):
        size = n + 1
        oracle_js = (0, 1) if n % 10 == 0 else (0,)
        for j in oracle_js:
            assert coeff_A(b, j, 0, n) == complement_product_sum(b, range(size), j)
        for k in range(n):
            levels = range(-k - 1, n - k)
            sign, fresh = (-1) ** (k + 1), _complement_sums(b, levels)
            for j in range(n - k):
                assert coeff_B(b, j, k, n) == sign * fresh[j]
                if j in oracle_js and k in (0, 1, n // 2, n - 1):
                    assert coeff_B(b, j, k, n) == sign * complement_product_sum(b, levels, j)


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_operator_quadratic_terms_match_their_definition(name):
    # sum_{a,j,k} B_{j,k}(b_a) (C^j)_a^beta eta^{a g} d_{k,g} d_{n-k-1-j,beta},
    # each B a subset sum, built independently of build_operator's loops.
    ts = preset(name)
    for n in range(1, 8):
        expect = {}
        for a in range(1, ts.classes + 1):
            for j in range(n):
                for k in range(n - j):
                    coeff = (-1) ** (k + 1) * complement_product_sum(
                        ts.b[a - 1], range(-k - 1, n - k), j)
                    for be in range(1, ts.classes + 1):
                        for g, eta_inv in ts.raised(a):
                            pair = tuple(sorted((VarId(k, g), VarId(n - k - 1 - j, be))))
                            expect[pair] = (expect.get(pair, 0)
                                            + coeff * ts.chern_power(j)[a - 1][be - 1] * eta_inv)
        quadratic = {(u, v): c for u, v, c in build_operator(ts, n, 3).quadratic}
        assert quadratic == {pair: c for pair, c in expect.items() if c}


def test_coeff_index_errors():
    with pytest.raises(IndexOutOfRange):
        coeff_A(Fraction(1, 2), 3, 0, 1)
    with pytest.raises(IndexOutOfRange):
        coeff_A(Fraction(1, 2), 0, -1, 1)
    with pytest.raises(IndexOutOfRange):
        coeff_A(Fraction(1, 2), 0, 0, -2)
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
        minus_s = combine_fields((linear_field(ts, *NAMED_FIELDS["S"], 4), Fraction(-1)))
        assert op.linear == minus_s
        assert op.classical == ts.eta
        assert not op.quadratic and op.constant == 0


def test_l0_linear_is_minus_x_minus_half_d():
    for name in ("point", "P1", "P2"):
        ts = preset(name)
        op = build_operator(ts, 0, 4)
        shift = Fraction(3 - ts.complex_dim, 2)
        expected = combine_fields((euler_field(ts, 4), Fraction(-1)),
                                  (linear_field(ts, *NAMED_FIELDS["D"], 4), -shift))
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


def test_rank_two_end_to_end_on_p1xp1():
    # Three seeds, <pt>_(1,0) = <pt>_(0,1) = <pt pt pt>_(1,1) = 1, and the
    # reduction give every primary under the cap (1, 1).
    ts = _target("P1xP1")
    seeds = load_seeds(str(DATA / "P1xP1_seeds.jsonl"), ts)
    engine = Engine(ts, seeds)
    policy = TruncationPolicy(4, 3, (1, 1))
    for n in (1, 2, 3):
        assert psi(engine, n, policy).is_zero()
    for n in (1, 2):
        assert psi_tilde(engine, n, policy).is_zero()
    small = TruncationPolicy(3, 2, (1, 1))
    ctx = IdentityContext(engine, small)
    for tag in IDENTITY_TAGS:
        assert all(f.status == "pass" for f in verify_identity(ctx, tag))
    for key in seeds:
        wrong = Engine(ts, {**seeds, key: Fraction(2)})
        assert not psi(wrong, 1, policy).is_zero()


def test_p1xp1_primaries_from_the_two_degree_one_seeds():
    # WDVV from <pt>_(1,0) = <pt>_(0,1) = 1 alone: the third seed and the
    # counts of rational curves of bidegree (a, b) through 2a + 2b - 1 points.
    ts = _target("P1xP1")
    seeds = load_seeds(str(DATA / "P1xP1_seeds.jsonl"), ts)
    engine = Engine(ts,
                    {k: v for k, v in seeds.items() if sum(k.degree) == 1})
    for (a, b), count in {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 12, (2, 3): 96,
                          (3, 3): 3510}.items():
        assert engine.invariant(make_key([(0, 4)] * (2 * a + 2 * b - 1), (a, b))) == count


def test_p3_file_target_from_one_seed():
    # Classes 1, H, H^2, pt; the one seed is the line through two points.
    ts = load_target((DATA / "P3.json").read_text(encoding="utf-8"))
    seeds = load_seeds(str(DATA / "P3_seeds.jsonl"), ts)
    engine = Engine(ts, seeds)
    line, pt = (0, 3), (0, 4)  # H^2 is the class of a line
    anchors = [
        ([line] * 4, 1, 2),  # lines meeting 4 lines
        ([pt, line, line], 1, 1),  # lines through a point meeting 2 lines
        ([line] * 8, 2, 92),  # conics meeting 8 lines
        ([pt] * 6, 3, 1),  # twisted cubics through 6 points
        ([pt] * 4, 2, 0),  # a conic is planar: none through 4 general points
    ]
    for ins, d, count in anchors:
        assert engine.invariant(make_key(ins, (d,))) == count
    policy = TruncationPolicy(4, 3, (2,))
    assert psi(engine, 1, policy).is_zero()
    assert psi_tilde(engine, 2, policy).is_zero()
    # Doubling the one seed is the Novikov gauge q -> 2q, as for P2's N_1:
    # degree d scales by 2^d and the constraints still hold.  A seed of 2 for
    # the four-point conic count, which is 0, breaks them.
    (seed,) = seeds
    gauge = Engine(ts, {seed: Fraction(2)})
    assert gauge.invariant(make_key([line] * 8, (2,))) == 4 * 92
    assert psi(gauge, 1, policy).is_zero()
    wrong = Engine(ts, {**seeds, make_key([pt] * 4, (2,)): Fraction(2)})
    assert not psi(wrong, 1, policy).is_zero()


def test_perturbed_eta_detected():
    base = preset("P2")
    eta = [list(r) for r in base.eta]
    eta[0][0] = Fraction(1)
    bad = type(base)(name="P2", classes=3, complex_dim=2, q=base.q,
                     eta=tuple(tuple(r) for r in eta), cup=base.cup,
                     c1_mat=base.c1_mat, novikov_rank=1, c1_deg=(3,),
                     divisors=base.divisors, euler_char=3, c1_cdm1=base.c1_cdm1)
    series = CorrContext(Engine(bad, _P2_SEED), TruncationPolicy(3, 2, (1,))).psi_generic(1)
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
    out = _residual(doctored, lambda v: ctx.factor(("corr", v)), policy)
    assert not out.is_zero()
    assert check_shift_relations(out) == []


def test_shift_relations_flag_violations(p2_engine):
    policy = TruncationPolicy(3, 2, (2,))
    series = p2_engine.correlation_series([(1, 1)], policy)
    assert check_shift_relations(series) != []


# --- commutators ------------------------------------------------------------------

def test_commutators_all_presets():
    # Every L_n comes from one formula, so m, n = -1 and 0 check it too.
    targets = [preset(name) for name in ("point", "P1", "P2")]
    targets += [load_target((DATA / "P3.json").read_text(encoding="utf-8")), _target("P1xP1")]
    for ts in targets:
        degs = (0,) * ts.novikov_rank
        for m in range(-1, 4):
            for n in range(-1, 4):
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


def test_commutator_minus_one_one_on_presets():
    # [L_-1, L_1] = -2 L_0, constant included, on every window M = 2..5.
    for name in ("point", "P1", "P2"):
        ts = preset(name)
        for level in range(2, 6):
            policy = TruncationPolicy(2, level, (0,) * ts.novikov_rank)
            assert commutator_residual(ts, -1, 1, policy).is_empty()


def test_commutator_minus_one_one_locates_central_mismatch():
    # A wrong euler_char changes only L_0's constant, by (3 - d)/2 * (99 - 3)/24
    # = 2, so the residual [L_-1, L_1] + 2 L_0 is the constant 4 alone.
    bad = dataclasses.replace(preset("P2"), name="P2c", euler_char=99)
    residual = commutator_residual(bad, -1, 1, TruncationPolicy(2, 4, (0,)))
    assert not residual.is_empty()
    assert residual.constant == 4
    assert residual.linear == () and residual.quadratic == ()
    assert all(x == 0 for row in residual.classical for x in row)


def test_residual_nonzero_for_wrong_rhs_scale():
    # [L_1, L_2] = -L_3, so against the wrong right side -2 L_3 the residual
    # is exactly L_3 on the window.
    ts = preset("P2")
    l1, l2, l3 = (build_operator(ts, k, 6) for k in (1, 2, 3))
    residual = (bracket(l1, l2) - l3.scaled(Fraction(-2))).window(2)
    assert not residual.is_empty()
    assert residual == l3.window(2)


@pytest.mark.parametrize("m, n", [(-1, 1), (1, -1), (1, 2), (2, 3)])
@pytest.mark.parametrize("target", ["point", "P1", "P2"])
def test_bracket_matches_operator_action(target, m, n):
    # [A, B] p = A(B(p)) - B(A(p)) for every p of degree <= 2 in the window
    # variables.  Two values of lambda tell its lambda^2, lambda^0 and
    # lambda^-2 parts apart.  Degree-6 headroom: each operator can multiply
    # by the degree-2 classical form.  (1, -1) is the one pair here with
    # S_b T_a nonzero: L_-1 has no quadratic terms, and S vanishes for L_n
    # with n >= 2 on these targets.
    ts = preset(target)
    max_level = m + n + 3
    top = max_level - (m + n + 1)
    a, b = build_operator(ts, m, max_level), build_operator(ts, n, max_level)
    window_bracket = bracket(a, b).window(top)
    one = TruncatedSeries.constant(TruncationPolicy(6, max_level, (0,) * ts.novikov_rank), 1)
    slots = [VarId(level, cls) for level in range(top + 1) for cls in range(1, ts.classes + 1)]
    polys = [one] + [one.times_var(v) for v in slots] + [
        one.times_var(u).times_var(v) for i, u in enumerate(slots) for v in slots[i:]]
    for lam in (Fraction(1), Fraction(2)):
        for p in polys:
            commutator = (operator_action(a, operator_action(b, p, lam), lam)
                          - operator_action(b, operator_action(a, p, lam), lam))
            assert operator_action(window_bracket, p, lam) == commutator, (lam, p.items_sorted())


def test_corr_fills_every_variable_from_one_gradient_walk(monkeypatch):
    policy = TruncationPolicy(3, 2, (1,))
    engine = Engine(preset("P2"))
    built = []
    gradient, single = engine.gradient_series, engine.correlation_series
    monkeypatch.setattr(engine, "gradient_series",
                        lambda policy: built.append("gradient") or gradient(policy))
    monkeypatch.setattr(engine, "correlation_series",
                        lambda fixed, policy: built.append(tuple(fixed)) or single(fixed, policy))
    ctx = CorrContext(engine, policy)
    variables = [(m, a) for m in range(3) for a in range(1, 4)]
    first = ctx.factor(("corr", (1, 2)))
    assert built == ["gradient"]
    assert all(("corr", v) in ctx.series for v in variables)
    assert ctx.factor(("corr", VarId(1, 2))) is first
    fresh = Engine(preset("P2"))
    for v in variables:
        assert ctx.factor(("corr", v)) == fresh.correlation_series((v,), policy)
    assert built == ["gradient"]
    # A slot above the level bound and two slots: one series each, as before.
    ctx.factor(("corr", (3, 1)))
    ctx.factor(("corr", (0, 2), (0, 1)))
    assert built == ["gradient", (VarId(3, 1),), (VarId(0, 1), VarId(0, 2))]
    assert ctx.factor(("corr", (-1, 2))).is_zero()


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


# Where the slots begin in a spec of each kind that sorts its slots.
SLOTS_AT = {"corr": 1, "corr_raised": 2, "field_series": 2, "field_raised": 3,
            "field2_series": 3}


def test_shared_context_series_stay_exact_after_registry():
    # Every tag runs on one context, as ``gw identities`` does; no in-place
    # accumulation may have written into a memoised series.
    policy = TruncationPolicy(3, 2, (1,))
    engine = Engine(preset("P2"))
    ctx = IdentityContext(engine, policy)
    for tag in IDENTITY_TAGS:
        assert all(f.status == "pass" for f in verify_identity(ctx, tag))
    # Every kind the registry names outside the products lives in the memo.
    assert {spec[0] for spec in ctx.series} == {
        *SLOTS_AT, "classical", "one", "t", "ttilde", "psi_generic", "psi_closed",
        "operator_residual"}
    fresh = Engine(preset("P2"))
    fresh_ctx = IdentityContext(fresh, policy)
    for spec, series in list(ctx.series.items()):
        if spec[0] == "corr" and all(m >= 0 for m, _ in spec[1:]):
            assert series == fresh.correlation_series(spec[1:], policy)
        at = SLOTS_AT.get(spec[0], len(spec))
        unsorted = (*spec[:at], *reversed(spec[at:]))
        assert fresh_ctx.factor(unsorted) == series
        assert ctx.factor(unsorted) is series


@pytest.mark.parametrize("head", [("corr",), ("field_series", "X")])
def test_factor_sorts_the_slots_before_it_builds(p2_engine, monkeypatch, head):
    # ``factor`` alone settles slot order: the builder runs once, on sorted slots.
    calls = []
    build = getattr(CorrContext, head[0])

    def counted(self, *args):
        calls.append(args)
        return build(self, *args)

    monkeypatch.setattr(CorrContext, head[0], counted)
    ctx = CorrContext(p2_engine, TruncationPolicy(3, 2, (1,)))
    ctx.factor((*head, (0, 2), (0, 1)))
    assert calls == [(*head[1:], (0, 1), (0, 2))]


@pytest.mark.parametrize("sorted_first", [False, True])
def test_unsorted_spec_is_the_sorted_series(p2_engine, sorted_first):
    ctx = IdentityContext(p2_engine, TruncationPolicy(3, 2, (1,)))
    heads = {"corr": ("corr",), "corr_raised": ("corr_raised", 2),
             "field_series": ("field_series", "X"),
             "field_raised": ("field_raised", ("L0", 1), 1),
             "field2_series": ("field2_series", "L1", ("L0", 2))}
    assert heads.keys() == SLOTS_AT.keys()
    slots = ((1, 2), (0, 3), (0, 1))
    for head in heads.values():
        specs = [(*head, *slots), (*head, *sorted(slots))]
        if sorted_first:
            specs.reverse()
        first = ctx.factor(specs[0])
        assert ctx.factor(specs[1]) is first
        assert ctx.series[specs[0]] is ctx.series[specs[1]]
    for name in ("Nope", "L", ("Nope", 1)):
        with pytest.raises(ParseError):
            ctx.factor(("field_series", name, (0, 1)))
