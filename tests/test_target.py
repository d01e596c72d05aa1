from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from gwvir.cli import run
from gwvir.errors import IndexOutOfRange, ParseError, UnknownPreset, ValidationError
from gwvir.target import (TargetSpace, load_target, preset, preset_names, projective_dim,
                          projective_space, serialize_target, validate_target)
from gwvir.virasoro import NAMED_FIELDS, linear_field


def test_preset_names():
    assert preset_names() == ["P1", "P2", "point"]
    with pytest.raises(UnknownPreset):
        preset("P3")


def test_projective_space_is_every_preset_and_p3_and_p4():
    """One rule builds the point, P1, P2, tests/data/P3.json and a hand-written P4."""
    p3 = load_target((Path(__file__).parent / "data" / "P3.json").read_text("utf-8"))
    targets = [preset("point"), preset("P1"), preset("P2"), p3]
    assert [projective_space(n).fingerprint for n in range(4)] == [
        ts.fingerprint for ts in targets]
    assert [projective_dim(ts) for ts in targets] == [0, 1, 2, 3]
    # The P4 document of test_cli.test_key_wdvv_cannot_reduce_is_engine_error.
    n = 4
    doc = {"name": "P4", "classes": n + 1, "complex_dim": n, "q": list(range(n + 1)),
           "eta": [[str(int(i + j == n)) for j in range(n + 1)] for i in range(n + 1)],
           "cup": [[i + 1, j + 1, i + j + 1, "1"]
                   for i in range(n + 1) for j in range(n + 1) if i + j <= n],
           "c1_mat": [[str(5 * int(j == i + 1)) for j in range(n + 1)] for i in range(n + 1)],
           "novikov_rank": 1, "c1_deg": [5], "divisors": [[2, [1]]],
           "euler_char": 5, "c1_cdm1": "50"}
    assert json.loads(serialize_target(projective_space(4))) == doc
    for n in range(7):
        ts = projective_space(n)
        validate_target(ts)
        assert ts.central_condition()[2]


def test_projective_dim_goes_by_content_not_name():
    p2 = preset("P2")
    assert projective_dim(dataclasses.replace(p2, name="custom-surface")) is None
    assert projective_dim(dataclasses.replace(p2, euler_char=4)) is None
    assert projective_dim(dataclasses.replace(preset("P1"), name="P2")) is None


def test_preset_shapes():
    p2 = preset("P2")
    assert (p2.classes, p2.complex_dim, p2.q) == (3, 2, (0, 1, 2))
    p1 = preset("P1")
    assert (p1.classes, p1.complex_dim, p1.q) == (2, 1, (0, 1))
    assert p1.c1_deg == (2,)
    pt = preset("point")
    assert (pt.classes, pt.complex_dim, pt.novikov_rank) == (1, 0, 0)


def test_b_values():
    assert preset("point").b == (Fraction(1, 2),)
    assert preset("P2").b == (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))
    assert preset("P1").b == (Fraction(0), Fraction(1))
    with pytest.raises(IndexOutOfRange):
        preset("P2").b_value(4)


def test_chern_powers():
    p2 = preset("P2")
    ident = p2.chern_power(0)
    assert all(ident[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3))
    c2 = p2.chern_power(2)
    assert c2[0][2] == 9 and sum(1 for r in c2 for x in r if x) == 1
    # The 3H-shift is nilpotent of order 3: H^3 = 0 in P^2.
    c3 = p2.chern_power(3)
    assert all(x == 0 for row in c3 for x in row)
    p1 = preset("P1")
    assert all(x == 0 for row in p1.chern_power(2) for x in row)


def test_c1_matches_cup_by_divisor_multiple():
    # c1 = 2H on P^1 and 3H on P^2: the matrix is cup multiplication scaled.
    for name, mult in (("P1", 2), ("P2", 3)):
        ts = preset(name)
        div = ts.divisors[0][0]
        n = ts.classes
        for a in range(1, n + 1):
            for g in range(1, n + 1):
                assert ts.c1_mat[a - 1][g - 1] == mult * ts.cup_entry(a, div, g)


def test_central_condition_values():
    assert preset("point").central_condition() == (Fraction(1, 16), Fraction(1, 16), True)
    assert preset("P1").central_condition() == (0, 0, True)
    assert preset("P2").central_condition() == (Fraction(-5, 16), Fraction(-5, 16), True)


def test_b_relations_and_cup_structure():
    for name in preset_names():
        ts = preset(name)
        n = ts.classes
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if ts.eta_inv[a - 1][b - 1] != 0:
                    assert ts.b[a - 1] == 1 - ts.b[b - 1]
                if ts.c1_mat[a - 1][b - 1] != 0:
                    assert ts.b[b - 1] == 1 + ts.b[a - 1]
                if ts.chern_power_eta(1)[a - 1][b - 1] != 0:
                    assert ts.b[b - 1] == -ts.b[a - 1]
        # cup associativity, exhaustively
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for g in range(1, n + 1):
                    for d in range(1, n + 1):
                        lhs = sum(ts.cup_entry(a, b, s) * ts.cup_entry(s, g, d)
                                  for s in range(1, n + 1))
                        rhs = sum(ts.cup_entry(b, g, s) * ts.cup_entry(a, s, d)
                                  for s in range(1, n + 1))
                        assert lhs == rhs


def test_round_trip():
    for name in preset_names():
        ts = preset(name)
        again = load_target(serialize_target(ts))
        assert again == ts
        assert again.fingerprint == ts.fingerprint


def _doc(name="P2"):
    return json.loads(serialize_target(preset(name)))


def test_load_rejects_asymmetric_eta():
    doc = _doc()
    doc["eta"][0][1] = "1"
    with pytest.raises(ValidationError, match="eta not symmetric"):
        load_target(json.dumps(doc))


def test_load_rejects_bad_c1_grading():
    doc = _doc()
    doc["c1_mat"][0][0] = "3"  # C_1^1 != 0 but q_1 = q_1
    with pytest.raises(ValidationError, match="c1 grading"):
        load_target(json.dumps(doc))


def test_load_rejects_degenerate_eta():
    doc = _doc()
    doc["eta"] = [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]
    with pytest.raises(ValidationError):
        load_target(json.dumps(doc))


def test_load_rejects_bad_cup():
    doc = _doc()
    doc["cup"] = [q for q in doc["cup"] if q[:3] != [2, 1, 2]]
    with pytest.raises(ValidationError, match="commutative"):
        load_target(json.dumps(doc))


def _six_class_threefold(cup):
    """Classes 1, A, B (q=1), C, D (q=2), P (q=3), paired 1-P, A-C, B-D, with ``cup``.

    The unit products are added; the c1 data are zero, since every cup check
    comes before them.
    """
    cup = dict(cup)
    for x in range(1, 7):
        cup[(1, x, x)] = cup[(x, 1, x)] = Fraction(1)
    eta = [[Fraction(0)] * 6 for _ in range(6)]
    for i, j in ((1, 6), (2, 4), (3, 5)):
        eta[i - 1][j - 1] = eta[j - 1][i - 1] = Fraction(1)
    zero = tuple((Fraction(0),) * 6 for _ in range(6))
    return TargetSpace(name="six-class", classes=6, complex_dim=3, q=(0, 1, 1, 2, 2, 3),
                       eta=tuple(map(tuple, eta)), cup=cup, c1_mat=zero)


def _hand_built(case):
    if case == "cup identity":  # H . O_1 = 2H, kept commutative
        p2 = preset("P2")
        return dataclasses.replace(p2, cup={**p2.cup, (1, 2, 2): Fraction(2),
                                            (2, 1, 2): Fraction(2)})
    if case == "cup not associative":  # (A A) B = C B = P, but A (A B) = 0
        one = Fraction(1)
        return _six_class_threefold({(2, 2, 4): one, (3, 4, 6): one, (4, 3, 6): one})
    # eta_22 = 2: eta(O_1 H, H) = 2 but eta(H H, O_1) = eta(pt, O_1) = 1.
    eta = tuple(tuple(Fraction(x) for x in row) for row in ((0, 0, 1), (0, 2, 0), (1, 0, 0)))
    return dataclasses.replace(preset("P2"), eta=eta)


@pytest.mark.parametrize("case", ["cup identity", "cup not associative",
                                  "cup not Frobenius-compatible"])
def test_validate_reaches_each_cup_check_first(case):
    ts = _hand_built(case)
    with pytest.raises(ValidationError) as info:
        validate_target(ts)
    assert str(info.value) == case


def test_load_rejects_missing_divisor_pairing():
    doc = _doc()
    doc["divisors"] = []
    with pytest.raises(ValidationError, match="Novikov generator"):
        load_target(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("classes", 3.0), ("classes", True), ("complex_dim", True), ("complex_dim", 2.0),
    ("q", [0, 1.9, 2]), ("q", [0, True, 2]), ("novikov_rank", 1.0), ("c1_deg", [3.0]),
    ("divisors", [[2.7, [1.2]]]), ("divisors", [[2, [True]]]), ("euler_char", 3.0),
    ("euler_char", False), ("cup", [[1.0, 1, 1, "1"]]), ("cup", [[1, 1, True, "1"]]),
])
def test_load_rejects_non_integer_in_integer_field(field, value):
    # int() would truncate 1.9 to 1 and read true as 1; the file is malformed.
    doc = _doc()
    doc[field] = value
    with pytest.raises(ParseError, match="must be an integer"):
        load_target(json.dumps(doc))


def test_classical_integral():
    p2 = preset("P2")
    assert p2.classical_integral((2, 2)) == 1      # int H^2
    assert p2.classical_integral((2, 2, 2)) == 0   # H^3 = 0
    assert p2.classical_integral((1, 3)) == 1      # int pt
    assert p2.classical_integral((2,)) == 0        # int H over a surface


# Each target's fingerprint and the sha256 of its ``gw targets show --format
# structured`` less the wall_time_ms line: how a table's entries are typed
# must not change what is serialized.
PINNED = {
    "point": ("0df20135e210469594d466d22634922e54c48d0a6f72a6243fe44a7cf0fe7375",
              "906661e7a64c988a1da6d0e105aa357ac04b678a5b143bca766438fc798cdab1"),
    "P1": ("f17023278ae0e3e5c52ac2566984c8800db089600ced599d3f948f783347b7fb",
           "5482e414bac98f386236f2f7861f13fd3eaafecccb753f283e12810b665bfa31"),
    "P2": ("36fbc72e7ff94c0df2e13739a37175960548ba81664ef7d7b2c86d232efe6adc",
           "0f534454ddce2f6f7f72f1b38dbf9c5a16630daf2aeeba30049e2c0896243fd7"),
    "P3": ("cfd72fdc6ddddab96e94a5bd461d51a1a753ad593d33bbf5b97c8c8dd6bdb9f1",
           "6b1c1fe90b96791871476226b44c2b77fdc6219e6a3a001fadbe192829e727a2"),
    "P1xP1": ("1f9b82108196240ff2a43152e1be4578352f5d495d108bddbcc5a27cc93eb150",
              "52af4ff06a2bdc124a2916b7278c342d32959af14a973a2db8154fc0402b779a"),
}


@pytest.mark.parametrize("name", PINNED)
def test_tables_are_exact_and_serialize_as_pinned(name):
    """Every entry is an int when integral and a Fraction otherwise, never a float."""
    spec = name if name in preset_names() else str(Path(__file__).parent / "data" / f"{name}.json")
    ts = preset(name) if name in preset_names() else load_target(Path(spec).read_text("utf-8"))
    matrices = [ts.eta, ts.c1_mat, ts.eta_inv, (ts.b,)]
    matrices += [ts.chern_power(j) for j in range(3)] + [ts.chern_power_eta(j) for j in range(3)]
    entries = [x for m in matrices for r in m for x in r] + [*ts.cup.values(), ts.c1_cdm1]
    entries += [c for coeffs, top in NAMED_FIELDS.values()
                for _, _, c in linear_field(ts, coeffs, top, 3)]
    assert entries and [x for x in entries if type(x) is not int and (
        type(x) is not Fraction or x.denominator == 1)] == []
    fingerprint, shown = PINNED[name]
    assert ts.fingerprint == fingerprint
    out = io.StringIO()
    assert run(["targets", "show", "--target", spec, "--format", "structured"], out=out)[0] == 0
    text = "".join(line for line in out.getvalue().splitlines(True) if '"wall_time_ms"' not in line)
    assert hashlib.sha256(text.encode()).hexdigest() == shown
