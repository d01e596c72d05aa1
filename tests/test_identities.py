from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from gwvir.engine import Engine
from gwvir.errors import ParseError
from gwvir.identities import (IDENTITY_TAGS, IdentityContext, REGISTRY,
                              render_monomial, verify_identity)
from gwvir.rationals import format_rational
from gwvir.series import TruncationPolicy
from gwvir.target import preset
from gwvir.virasoro import CorrContext

from test_acceptance import _P2_SEED, _perturbed_p2


def test_registry_covers_every_tag_once():
    assert len(IDENTITY_TAGS) == len(set(IDENTITY_TAGS)) == len(REGISTRY)
    expected = {
        "StringEq", "StringCorr1", "StringCorr2", "StringCorr3",
        "DilatonCorr1", "DilatonCorr2", "DilatonCorr3", "QuasiHomog",
        "EulerCorr1", "EulerCorr2", "EulerCorr3", "HoriL0", "TRR", "GenWDVV",
        "FRR", "StringRec", "SWDVV", "XXCorr", "QF1", "QF2", "WDVVRight",
        "L1Corr", "L1L0Corr", "QuadRel_i", "QuadRel_ii", "QuadRel_iii",
        "QuadForm", "Tilde1Corr", "TildeQuadForm", "PsiClosedForm1",
        "PsiClosedForm2",
    }
    assert set(IDENTITY_TAGS) == expected


def test_unknown_identity():
    with pytest.raises(ParseError):
        verify_identity(IdentityContext(Engine(preset("point")), TruncationPolicy(2, 1, ())),
                        "NoSuchLemma")


def test_full_registry_on_point(point_engine):
    policy = TruncationPolicy(4, 3, ())
    ctx = IdentityContext(point_engine, policy)
    for tag in IDENTITY_TAGS:
        findings = verify_identity(ctx, tag)
        assert findings, tag
        bad = [f for f in findings if f.status != "pass"]
        assert not bad, f"{tag}: {bad[:2]}"


def test_selected_tags_on_p1(p1_engine):
    # The whole registry: C is not symmetric on P1, so a transposed c1 row
    # in any checker shows here.
    policy = TruncationPolicy(3, 2, (2,))
    ctx = IdentityContext(p1_engine, policy)
    for tag in IDENTITY_TAGS:
        findings = verify_identity(ctx, tag)
        assert all(f.status == "pass" for f in findings), tag


def test_selected_tags_on_p2_small(p2_engine):
    policy = TruncationPolicy(3, 2, (2,))
    ctx = IdentityContext(p2_engine, policy)
    for tag in ("TRR", "GenWDVV", "FRR", "StringRec", "XXCorr", "QF1", "QF2",
                "WDVVRight", "L1Corr", "QuadRel_ii", "Tilde1Corr"):
        findings = verify_identity(ctx, tag)
        assert all(f.status == "pass" for f in findings), tag


def test_corrupted_c_matrix_located():
    base = preset("P2")
    c1 = [list(r) for r in base.c1_mat]
    c1[0][1] = Fraction(4)  # c1 = 3H perturbed to 4H on the identity row
    bad = type(base)(name="P2", classes=3, complex_dim=2, q=base.q, eta=base.eta,
                     cup=base.cup, c1_mat=tuple(tuple(r) for r in c1),
                     novikov_rank=1, c1_deg=(3,), divisors=base.divisors,
                     euler_char=3, c1_cdm1=base.c1_cdm1)
    engine = Engine(bad, _P2_SEED)
    policy = TruncationPolicy(3, 2, (1,))
    ctx = IdentityContext(engine, policy)
    findings = verify_identity(ctx, "FRR")
    bad_findings = [f for f in findings if f.status == "fail"]
    assert bad_findings
    first = bad_findings[0]
    assert first.monomial is not None and first.lhs != first.rhs
    # SWDVV stays green here by construction: contracting the generalized WDVV
    # tensor with any vector-field coefficients yields it identically, so it
    # cannot see the Chern matrix.  The quasi-homogeneity family does.
    swdvv = verify_identity(ctx, "SWDVV")
    assert all(f.status == "pass" for f in swdvv)


def test_products_live_for_one_tag(p2_engine, monkeypatch):
    policy = TruncationPolicy(3, 2, (1,))
    ctx = IdentityContext(p2_engine, policy)
    pairs, sums = Counter(), Counter()
    pair, total = CorrContext.pair, CorrContext.sum

    def counted_pair(self, *args):
        pairs[args] += 1
        return pair(self, *args)

    def counted_sum(self, *terms):
        sums[terms] += 1
        return total(self, *terms)

    monkeypatch.setattr(CorrContext, "pair", counted_pair)
    monkeypatch.setattr(CorrContext, "sum", counted_sum)

    def canon(u, v, w, x):
        return tuple(sorted((tuple(sorted((u, v))), tuple(sorted((w, x))))))

    vids = [(m, a) for m in ctx.levels() for a in ctx.classes()]
    splittings = set()
    for u, v, w, x in product(vids, repeat=4):
        kl, kr = canon(u, v, w, x), canon(u, w, v, x)
        if kl != kr:
            splittings |= {kl, kr}
    # GenWDVV builds each distinct off-diagonal splitting once, and drops it
    # when the tag ends: the next tag builds it again.
    for runs in (1, 2):
        assert all(f.status == "pass" for f in verify_identity(ctx, "GenWDVV"))
        assert not ctx.products
        assert pairs.keys() == splittings and set(pairs.values()) == {runs}
    # FRR builds one inner sum over mu of two-factor terms per (m, a, nu),
    # shared by every (n, b), and drops it when the tag ends.
    assert all(f.status == "pass" for f in verify_identity(ctx, "FRR"))
    assert not ctx.products
    inner = [terms for terms in sums if all(len(term) == 3 for term in terms)]
    assert len(inner) == len(ctx.levels()) * len(ctx.classes()) ** 2
    assert {sums[terms] for terms in inner} == {1}


# Criterion 9's two perturbations at (3, 2, (1,)): the tags whose factors
# became specs must each still fail, with a located coefficient.
# PsiClosedForm1 fails under neither: for n = 1 its two sides are assembled
# from the same linear field, the same splitting and the same classical form,
# whatever eta and C are, so it checks the hand expansion, not the target data.
_FALSIFIABLE = {
    "eta": ("StringEq", "StringCorr1", "GenWDVV", "FRR", "PsiClosedForm2"),
    "C": ("QuasiHomog", "EulerCorr1", "HoriL0", "FRR"),
}


@pytest.mark.parametrize("perturbed", sorted(_FALSIFIABLE))
def test_rewritten_tags_stay_falsifiable(perturbed):
    if perturbed == "eta":
        eta = [list(r) for r in preset("P2").eta]
        eta[0][0] = Fraction(1)
        ts = _perturbed_p2(eta=tuple(tuple(r) for r in eta))
    else:
        c1 = [list(r) for r in preset("P2").c1_mat]
        c1[0][1] = Fraction(4)
        ts = _perturbed_p2(c1_mat=tuple(tuple(r) for r in c1))
    engine = Engine(ts, _P2_SEED)
    policy = TruncationPolicy(3, 2, (1,))
    ctx = IdentityContext(engine, policy)
    for tag in _FALSIFIABLE[perturbed]:
        located = [f for f in verify_identity(ctx, tag)
                   if f.status == "fail" and f.monomial and f.lhs != f.rhs]
        assert located, (perturbed, tag)


def test_findings_report_shape(point_engine):
    policy = TruncationPolicy(3, 2, ())
    findings = verify_identity(IdentityContext(point_engine, policy), "TRR")
    for f in findings:
        assert f.tag == "TRR"
        assert f.status == "pass" and f.monomial is None


def _side_digests(engine, policy) -> dict[str, tuple[int, str, str]]:
    """tag -> (tuple count, sha256 of the left sides, sha256 of the right sides).

    Each side hashes, tuple by tuple, ``repr((indices, terms))`` with every
    term rendered as (monomial, rational) in Monomial order, so a term that
    drops out of both sides at once still changes a digest.
    """
    ctx = IdentityContext(engine, policy)
    out = {}
    for tag in IDENTITY_TAGS:
        count, digests = 0, (hashlib.sha256(), hashlib.sha256())
        for indices, *sides in REGISTRY[tag](ctx):
            count += 1
            for digest, side in zip(digests, sides):
                terms = [(render_monomial(mon), format_rational(c))
                         for mon, c in ctx.evaluate(side).items_sorted()]
                digest.update(repr((indices, terms)).encode())
        out[tag] = (count, *(d.hexdigest()[:16] for d in digests))
    return out


# Recorded before the checkers' sides became term lists: the first 16 hex
# digits of each tag's side digest on every target.  Every tag passes there,
# so its left and right sides hash alike.
RECORDED_SIDES = {
    'point': {
        'StringEq': (1, '068ba53caf4bb89b'), 'StringCorr1': (1, '7e6851bae7fe7679'),
        'StringCorr2': (3, '57615cbf4d3eb03c'), 'StringCorr3': (9, 'c6458d5080c41974'),
        'DilatonCorr1': (1, '0c92bfe4b0009da6'), 'DilatonCorr2': (3, 'a9ad1bfd8ee4205a'),
        'DilatonCorr3': (9, 'cb992ba5f0eab8e9'), 'QuasiHomog': (1, '1602e1ffcc9080fd'),
        'EulerCorr1': (1, '1602e1ffcc9080fd'), 'EulerCorr2': (3, '319e35c450cf33c6'),
        'EulerCorr3': (9, '95a1a723074fe20b'), 'HoriL0': (1, '068ba53caf4bb89b'),
        'TRR': (18, 'f05fad1593df503d'), 'GenWDVV': (81, 'a3304d2bc5156647'),
        'FRR': (9, '95a1a723074fe20b'), 'StringRec': (9, 'a2eb3900c33e2334'),
        'SWDVV': (18, 'e3f481eb9d7796df'), 'XXCorr': (3, 'f607ed5fe60b06d9'),
        'QF1': (9, '146452dd98897bf8'), 'QF2': (9, 'cb992ba5f0eab8e9'),
        'WDVVRight': (9, '70ed7c643f65056b'), 'L1Corr': (9, '9799cc627e0d7ec3'),
        'L1L0Corr': (3, 'd2a6f4b6b632942a'), 'QuadRel_i': (9, '0ff78dbd2966f5cf'),
        'QuadRel_ii': (9, '9cc372747a330ec9'), 'QuadRel_iii': (9, '8056c398ae07ccf7'),
        'QuadForm': (9, '6299ba670882cb8f'), 'Tilde1Corr': (12, '25d885bf486aa7b4'),
        'TildeQuadForm': (9, '27060e2340e05489'), 'PsiClosedForm1': (17, '9c5064ea42a73555'),
        'PsiClosedForm2': (24, 'f74f8041a75636e2'),
    },
    'P1': {
        'StringEq': (1, '068ba53caf4bb89b'), 'StringCorr1': (1, '52a5d047b2167d88'),
        'StringCorr2': (4, 'fd606dc0c39b5452'), 'StringCorr3': (16, '743bce508ce5e941'),
        'DilatonCorr1': (1, 'a0d4f69153bc5d9a'), 'DilatonCorr2': (4, '9d35174d5df6dd63'),
        'DilatonCorr3': (16, '6179463d3fb582a1'), 'QuasiHomog': (1, 'd8c04ca921bb6801'),
        'EulerCorr1': (1, 'd8c04ca921bb6801'), 'EulerCorr2': (4, 'ff9b78d174e3bd48'),
        'EulerCorr3': (16, '161846b7c589813e'), 'HoriL0': (1, '068ba53caf4bb89b'),
        'TRR': (32, '527cac3037a1ffe0'), 'GenWDVV': (256, '50d5d743bf98da26'),
        'FRR': (16, '161846b7c589813e'), 'StringRec': (16, 'c01ff741650643ef'),
        'SWDVV': (32, 'b278ae94de96dc57'), 'XXCorr': (4, '7edcf7d5666097b5'),
        'QF1': (16, '36214f906e3701d4'), 'QF2': (16, 'c399809d24c9b048'),
        'WDVVRight': (16, '43e92bb28cb815e0'), 'L1Corr': (16, '35fcb7a6b9974672'),
        'L1L0Corr': (4, '52373b9c78434887'), 'QuadRel_i': (16, '7e250f2b3bbc9ce5'),
        'QuadRel_ii': (16, '1535855720f3dde2'), 'QuadRel_iii': (16, '321a3f7f65b1f73e'),
        'QuadForm': (16, '027efa653a6440be'), 'Tilde1Corr': (20, '8eb3de54ed29665c'),
        'TildeQuadForm': (16, '770afd023929f987'), 'PsiClosedForm1': (27, 'a59534ee4dee3d21'),
        'PsiClosedForm2': (39, '358080bec77d8d41'),
    },
    'P2': {
        'StringEq': (1, '068ba53caf4bb89b'), 'StringCorr1': (1, 'b9cf91d586405427'),
        'StringCorr2': (6, 'd12f096f921f8b64'), 'StringCorr3': (36, '32684e701b8ca47f'),
        'DilatonCorr1': (1, '7c1966eea0eaabdc'), 'DilatonCorr2': (6, '9029dac161633a93'),
        'DilatonCorr3': (36, 'c058f4020fc12b40'), 'QuasiHomog': (1, '1fadf9dfc54f2de2'),
        'EulerCorr1': (1, '1fadf9dfc54f2de2'), 'EulerCorr2': (6, '8984de5ca63d5fbb'),
        'EulerCorr3': (36, '287bee0477104657'), 'HoriL0': (1, '068ba53caf4bb89b'),
        'TRR': (108, '28d005ddeda06386'), 'GenWDVV': (1296, '0f27d4a31507b58e'),
        'FRR': (36, '287bee0477104657'), 'StringRec': (36, 'b38e6e3ebeeb5da2'),
        'SWDVV': (72, 'bce9406ae418e94a'), 'XXCorr': (6, 'ea64c5a0831d385c'),
        'QF1': (36, 'f8b1817c7adf4e36'), 'QF2': (36, 'a3d3adb5d9aacc14'),
        'WDVVRight': (36, '7ee83240515cf033'), 'L1Corr': (36, 'be0c7d75c5d09b2c'),
        'L1L0Corr': (6, 'd79e0a85936276a8'), 'QuadRel_i': (36, '658587531025a11c'),
        'QuadRel_ii': (36, '50c9330f84e10603'), 'QuadRel_iii': (36, '1684042d0943406e'),
        'QuadForm': (36, 'eef345d8d7cc4966'), 'Tilde1Corr': (42, '1b442ce6503d0578'),
        'TildeQuadForm': (36, '5af97c4979d038ee'), 'PsiClosedForm1': (40, 'a5a972e4d835f7e2'),
        'PsiClosedForm2': (58, '753a56969b724b88'),
    },
}

RECORDED_POLICIES = {"point": (4, 3, ()), "P1": (3, 2, (2,)), "P2": (3, 2, (1,))}


def test_identity_sides_match_recorded_digests(point_engine, p1_engine, p2_engine):
    engines = {"point": point_engine, "P1": p1_engine, "P2": p2_engine}
    for target, recorded in RECORDED_SIDES.items():
        got = _side_digests(engines[target], TruncationPolicy(*RECORDED_POLICIES[target]))
        assert got.keys() == recorded.keys()
        for tag, (count, digest) in recorded.items():
            assert got[tag] == (count, digest, digest), (target, tag)
