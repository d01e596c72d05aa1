"""Target-space cohomology data: model, validation, presets, file ingestion.

A target is the classical package of the space V: class count N, complex
dimension d, grading q_alpha (half real dimension of each class), the
intersection form eta, the classical cup structure constants kappa, the matrix
C of cup multiplication by the first Chern class, the Novikov lattice data,
and the two integral scalars chi(V) and int c1 wedge c_{d-1} consumed by the
central condition.  All entries are exact rationals; class indices are 1-based
everywhere in the public API.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import IndexOutOfRange, ParseError, UnknownPreset, ValidationError
from .rationals import format_rational, parse_rational
from .series import VarId

Matrix = tuple[tuple[Fraction, ...], ...]
Degree = tuple[int, ...]
# (c1 . deg1 -> (c1 . deg2, [(deg1, deg2), ...])) over the splits deg = deg1 + deg2
DegreeSplits = dict[int, tuple[int, list[tuple[Degree, Degree]]]]
# (tau_0(O_sigma), its weight, {weight of rho: ((tau_0(O_rho), eta^{sigma rho}), ...)})
RaisedRow = tuple[VarId, int, dict[int, tuple[tuple[VarId, int | Fraction], ...]]]
# (left, right, multiplicity binomial, weight of left, weight of right)
SpectatorSplit = tuple[tuple[VarId, ...], tuple[VarId, ...], int, int, int]


def row(matrix: Matrix, a: int) -> list[tuple[int, Fraction]]:
    """The nonzero entries (s, M_{a s}) of row a, classes 1-based."""
    return [(s, c) for s, c in enumerate(matrix[a - 1], 1) if c]


@dataclass(frozen=True)
class TargetSpace:
    name: str
    classes: int
    complex_dim: int
    q: tuple[int, ...]
    eta: Matrix
    cup: dict[tuple[int, int, int], Fraction]
    c1_mat: Matrix
    novikov_rank: int = 0
    c1_deg: tuple[int, ...] = ()
    divisors: tuple[tuple[int, tuple[int, ...]], ...] = ()
    euler_char: int = 0
    c1_cdm1: Fraction = Fraction(0)

    def b_value(self, alpha: int) -> Fraction:
        if not 1 <= alpha <= self.classes:
            raise IndexOutOfRange(f"class index {alpha} not in [1, {self.classes}]")
        return Fraction(self.q[alpha - 1]) - Fraction(self.complex_dim - 1, 2)

    @cached_property
    def b(self) -> tuple[Fraction, ...]:
        return tuple(self.b_value(a) for a in range(1, self.classes + 1))

    @cached_property
    def eta_inv(self) -> Matrix:
        return _invert(self.eta)

    def cup_entry(self, a: int, b: int, g: int) -> Fraction:
        return self.cup.get((a, b, g), Fraction(0))

    def cup_product(self, vec: dict[int, Fraction], cls: int) -> dict[int, Fraction]:
        """Multiply a cohomology vector (class -> coeff) by the class ``cls``."""
        out: dict[int, Fraction] = {}
        for a, coeff in vec.items():
            for g in range(1, self.classes + 1):
                k = self.cup.get((a, cls, g))
                if k:
                    acc = out.get(g, Fraction(0)) + coeff * k
                    if acc:
                        out[g] = acc
                    else:
                        out.pop(g, None)
        return out

    def classical_integral(self, classes: tuple[int, ...]) -> Fraction:
        """Exact integral over V of the cup product of the listed classes."""
        vec = {1: Fraction(1)}
        for cls in classes:
            vec = self.cup_product(vec, cls)
            if not vec:
                return Fraction(0)
        # int O_g = eta_{g,1} since O_1 is the unit.
        return sum((c * self.eta[g - 1][0] for g, c in vec.items()), Fraction(0))

    def chern_power(self, j: int) -> Matrix:
        if j < 0:
            raise IndexOutOfRange("negative matrix power")
        powers = self._chern_powers
        while len(powers) <= j:
            powers.append(_mat_mul(powers[-1], self.c1_mat))
        return powers[j]

    @cached_property
    def _chern_powers(self) -> list[Matrix]:
        return [_identity(self.classes)]

    def chern_power_eta(self, j: int) -> Matrix:
        """(C^j eta)_{alpha beta}, the lowered-index form used classically."""
        return _mat_mul(self.chern_power(j), self.eta)

    def raised(self, sigma: int) -> list[tuple[int, Fraction]]:
        """Nonzero pairs (rho, eta^{sigma rho}) realizing the raised index."""
        return row(self.eta_inv, sigma)

    @cached_property
    def class_weight(self) -> dict[int, int]:
        """Class index a -> q_a - 1, so a slot tau_m(O_a) weighs m + class_weight[a].

        A key is dimension-admissible exactly when its weight equals
        dim - 3 + sum d * c1_deg; a class index not in 1..classes has no weight.
        """
        return {a: qa - 1 for a, qa in enumerate(self.q, start=1)}

    @cached_property
    def raised_table(self) -> tuple[RaisedRow, ...]:
        """One row per sigma: the raised index as the TRR contracts it.

        Built from ``raised``, the partners rho of each sigma grouped by their
        weight q_rho - 1 in ``raised`` order, so the TRR finds the partners
        that balance a key with one dict lookup.  eta^{sigma rho} is an
        ``int`` when integral, so products with it stay in integers.
        """
        w = self.class_weight
        table = []
        for sigma in range(1, self.classes + 1):
            groups: dict[int, tuple[tuple[VarId, int | Fraction], ...]] = {}
            for rho, c in self.raised(sigma):
                groups[w[rho]] = groups.get(w[rho], ()) + (
                    (VarId(0, rho), c.numerator if c.denominator == 1 else c),)
            table.append((VarId(0, sigma), w[sigma], groups))
        return tuple(table)

    def degree_splits(self, deg: Degree) -> DegreeSplits:
        """The splits deg = deg1 + deg2 grouped by c1 . deg1, with their shared c1 . deg2.

        Memoised per degree for the life of the target; the reduction asks only
        for degrees inside the box of the keys it reduces.
        """
        splits = self._degree_splits.get(deg)
        if splits is None:
            c1 = self.c1_deg
            total = sum(d * c for d, c in zip(deg, c1))
            splits = {}
            for deg1 in _degree_box(deg):
                p1 = sum(d * c for d, c in zip(deg1, c1))
                splits.setdefault(p1, (total - p1, []))[1].append(
                    (deg1, tuple(d - a for d, a in zip(deg, deg1))))
            self._degree_splits[deg] = splits
        return splits

    @cached_property
    def _degree_splits(self) -> dict[Degree, DegreeSplits]:
        return {}

    def spectator_splits(self, spectators: tuple[VarId, ...]) -> tuple[SpectatorSplit, ...]:
        """The two-way splits of a multiset of slots, each with its binomial and weights.

        One row (left, right, ways, weight of left, weight of right) per split,
        in ``_sub_multisets`` order; a weight is the sum of m + q_a - 1 over
        its slots.  Memoised per spectator tuple for the life of the target.
        """
        rows = self._spectator_splits.get(spectators)
        if rows is None:
            counts: dict[VarId, int] = {}
            for v in spectators:
                counts[v] = counts.get(v, 0) + 1
            w = self.class_weight
            rows = self._spectator_splits[spectators] = tuple(
                (left, right, ways, sum(m + w[a] for m, a in left),
                 sum(m + w[a] for m, a in right))
                for left, right, ways in _sub_multisets(sorted(counts.items())))
        return rows

    @cached_property
    def _spectator_splits(self) -> dict[tuple[VarId, ...], tuple[SpectatorSplit, ...]]:
        return {}

    def divisor_pairing(self, cls: int) -> tuple[int, ...] | None:
        for idx, vec in self.divisors:
            if idx == cls:
                return vec
        return None

    def central_condition(self) -> tuple[Fraction, Fraction, bool]:
        lhs = sum((bv * (1 - bv) for bv in self.b), Fraction(0)) / 4
        rhs = (Fraction(3 - self.complex_dim, 2) * self.euler_char - self.c1_cdm1) / 24
        return lhs, rhs, lhs == rhs

    def serialize(self) -> str:
        return json.dumps(_to_dict(self), sort_keys=True, separators=(",", ":"))

    @cached_property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


def _degree_box(cap: Degree) -> Iterator[Degree]:
    """Every degree vector below ``cap`` componentwise, first coordinate fastest."""
    if not cap:
        yield ()
        return
    for rest in _degree_box(cap[1:]):
        for a in range(cap[0] + 1):
            yield (a,) + rest


def _sub_multisets(counts: list[tuple[VarId, int]]
                   ) -> Iterator[tuple[tuple[VarId, ...], tuple[VarId, ...], int]]:
    """Split a multiset two ways with the multiplicity binomial of each split."""
    if not counts:
        yield (), (), 1
        return
    (var, mult), rest = counts[0], counts[1:]
    for left, right, ways in _sub_multisets(rest):
        for take in range(mult + 1):
            yield ((var,) * take + left, (var,) * (mult - take) + right,
                   ways * math.comb(mult, take))


def _identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _invert(m: Matrix) -> Matrix:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValidationError("eta not nondegenerate")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def validate_target(ts: TargetSpace) -> None:
    """Check every structural invariant; raise ValidationError naming the first failure."""
    n, d = ts.classes, ts.complex_dim
    if len(ts.q) != n:
        raise ValidationError("q length")
    if ts.q[0] != 0:
        raise ValidationError("q1 must be 0")
    if any(ts.q[i] > ts.q[i + 1] for i in range(n - 1)):
        raise ValidationError("q not non-decreasing")
    if len(ts.eta) != n or any(len(row) != n for row in ts.eta):
        raise ValidationError("eta shape")
    for i in range(n):
        for j in range(n):
            if ts.eta[i][j] != ts.eta[j][i]:
                raise ValidationError("eta not symmetric")
            if ts.eta[i][j] != 0 and ts.q[i] + ts.q[j] != d:
                raise ValidationError("eta grading")
    _invert(ts.eta)  # raises "eta not nondegenerate"
    # O_1 is the unit of the classical ring.
    for b in range(1, n + 1):
        for g in range(1, n + 1):
            if ts.cup_entry(1, b, g) != Fraction(int(b == g)):
                raise ValidationError("cup identity")
    for (a, b, g), v in ts.cup.items():
        if v == 0:
            raise ValidationError("cup stored zero")
        if not (1 <= a <= n and 1 <= b <= n and 1 <= g <= n):
            raise ValidationError("cup index range")
        if ts.cup_entry(b, a, g) != v:
            raise ValidationError("cup not commutative")
        if ts.q[g - 1] != ts.q[a - 1] + ts.q[b - 1]:
            raise ValidationError("cup grading")
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for g in range(1, n + 1):
                for dd in range(1, n + 1):
                    lhs = sum(ts.cup_entry(a, b, s) * ts.cup_entry(s, g, dd) for s in range(1, n + 1))
                    rhs = sum(ts.cup_entry(b, g, s) * ts.cup_entry(a, s, dd) for s in range(1, n + 1))
                    if lhs != rhs:
                        raise ValidationError("cup not associative")
    # Frobenius compatibility: kappa_{ab}^s eta_{sg} totally symmetric.
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for g in range(1, n + 1):
                abc = sum(ts.cup_entry(a, b, s) * ts.eta[s - 1][g - 1] for s in range(1, n + 1))
                bca = sum(ts.cup_entry(b, g, s) * ts.eta[s - 1][a - 1] for s in range(1, n + 1))
                if abc != bca:
                    raise ValidationError("cup not Frobenius-compatible")
    if len(ts.c1_mat) != n or any(len(row) != n for row in ts.c1_mat):
        raise ValidationError("c1 shape")
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if ts.c1_mat[a - 1][b - 1] != 0 and ts.q[b - 1] != ts.q[a - 1] + 1:
                raise ValidationError("c1 grading")
    ceta = ts.chern_power_eta(1)
    for i in range(n):
        for j in range(n):
            if ceta[i][j] != ceta[j][i]:
                raise ValidationError("C eta not symmetric")
    r = ts.novikov_rank
    if len(ts.c1_deg) != r:
        raise ValidationError("c1_deg length")
    for cls, vec in ts.divisors:
        if not 1 <= cls <= n:
            raise ValidationError("divisor index range")
        if ts.q[cls - 1] != 1:
            raise ValidationError("divisor not degree 2")
        if len(vec) != r:
            raise ValidationError("divisor pairing length")
    for j in range(r):
        if not any(vec[j] for _, vec in ts.divisors):
            raise ValidationError("no divisor pairs with Novikov generator")


def _shift_matrix(n: int, cup: dict, divisor_cls: int, multiple: int) -> Matrix:
    """Matrix of cup multiplication by ``multiple * O_divisor`` in the basis."""
    rows = []
    for a in range(1, n + 1):
        row = [Fraction(0)] * n
        for g in range(1, n + 1):
            k = cup.get((a, divisor_cls, g))
            if k:
                row[g - 1] = k * multiple
        rows.append(tuple(row))
    return tuple(rows)


def _preset_point() -> TargetSpace:
    eta = ((Fraction(1),),)
    cup = {(1, 1, 1): Fraction(1)}
    return TargetSpace(
        name="point", classes=1, complex_dim=0, q=(0,), eta=eta, cup=cup,
        c1_mat=((Fraction(0),),), novikov_rank=0, c1_deg=(), divisors=(),
        euler_char=1, c1_cdm1=Fraction(0),
    )


def _preset_p1() -> TargetSpace:
    eta = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    cup = {(1, 1, 1): Fraction(1), (1, 2, 2): Fraction(1), (2, 1, 2): Fraction(1)}
    c1 = _shift_matrix(2, cup, 2, 2)  # c1(P^1) = 2H
    return TargetSpace(
        name="P1", classes=2, complex_dim=1, q=(0, 1), eta=eta, cup=cup,
        c1_mat=c1, novikov_rank=1, c1_deg=(2,), divisors=((2, (1,)),),
        euler_char=2, c1_cdm1=Fraction(2),
    )


def _preset_p2() -> TargetSpace:
    eta = tuple(tuple(Fraction(int(i + j == 2)) for j in range(3)) for i in range(3))
    cup = {
        (1, 1, 1): Fraction(1),
        (1, 2, 2): Fraction(1), (2, 1, 2): Fraction(1),
        (1, 3, 3): Fraction(1), (3, 1, 3): Fraction(1),
        (2, 2, 3): Fraction(1),
    }
    c1 = _shift_matrix(3, cup, 2, 3)  # c1(P^2) = 3H
    return TargetSpace(
        name="P2", classes=3, complex_dim=2, q=(0, 1, 2), eta=eta, cup=cup,
        c1_mat=c1, novikov_rank=1, c1_deg=(3,), divisors=((2, (1,)),),
        euler_char=3, c1_cdm1=Fraction(9),
    )


_PRESETS = {"point": _preset_point, "P1": _preset_p1, "P2": _preset_p2}


def preset(name: str) -> TargetSpace:
    try:
        ts = _PRESETS[name]()
    except KeyError:
        raise UnknownPreset(f"unknown preset {name!r} (have: {', '.join(sorted(_PRESETS))})")
    validate_target(ts)
    return ts


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def _to_dict(ts: TargetSpace) -> dict:
    return {
        "name": ts.name,
        "classes": ts.classes,
        "complex_dim": ts.complex_dim,
        "q": list(ts.q),
        "eta": [[format_rational(x) for x in row] for row in ts.eta],
        "cup": [[a, b, g, format_rational(v)] for (a, b, g), v in sorted(ts.cup.items())],
        "c1_mat": [[format_rational(x) for x in row] for row in ts.c1_mat],
        "novikov_rank": ts.novikov_rank,
        "c1_deg": list(ts.c1_deg),
        "divisors": [[cls, list(vec)] for cls, vec in ts.divisors],
        "euler_char": ts.euler_char,
        "c1_cdm1": format_rational(ts.c1_cdm1),
    }


def serialize_target(ts: TargetSpace) -> str:
    return json.dumps(_to_dict(ts), indent=2, sort_keys=True)


def _parse_matrix(rows, n: int, what: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"{what}: expected {n} rows")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{what}: expected {n} columns")
        out.append(tuple(parse_rational(str(x)) for x in row))
    return tuple(out)


def load_target(text: str) -> TargetSpace:
    """Parse and validate a target file (JSON document, rationals as strings)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"target file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("target file must be a JSON object")
    required = {"name", "classes", "complex_dim", "q", "eta", "cup", "c1_mat",
                "novikov_rank", "c1_deg", "divisors", "euler_char", "c1_cdm1"}
    missing = required - doc.keys()
    if missing:
        raise ParseError(f"target file missing fields: {', '.join(sorted(missing))}")
    try:
        n = int(doc["classes"])
        cup: dict[tuple[int, int, int], Fraction] = {}
        for quad in doc["cup"]:
            a, b, g, v = quad
            value = parse_rational(str(v))
            if value != 0:
                cup[(int(a), int(b), int(g))] = value
        ts = TargetSpace(
            name=str(doc["name"]),
            classes=n,
            complex_dim=int(doc["complex_dim"]),
            q=tuple(int(x) for x in doc["q"]),
            eta=_parse_matrix(doc["eta"], n, "eta"),
            cup=cup,
            c1_mat=_parse_matrix(doc["c1_mat"], n, "c1_mat"),
            novikov_rank=int(doc["novikov_rank"]),
            c1_deg=tuple(int(x) for x in doc["c1_deg"]),
            divisors=tuple((int(cls), tuple(int(x) for x in vec)) for cls, vec in doc["divisors"]),
            euler_char=int(doc["euler_char"]),
            c1_cdm1=parse_rational(str(doc["c1_cdm1"])),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed target file: {exc}") from None
    validate_target(ts)
    return ts
