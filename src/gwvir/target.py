"""Target-space cohomology data: model, validation, presets, file ingestion.

A target is the classical package of the space V: class count N, complex
dimension d, grading q_alpha (half real dimension of each class), the
intersection form eta, the classical cup structure constants kappa, the matrix
C of cup multiplication by the first Chern class, the Novikov lattice data,
and the two integral scalars chi(V) and int c1 wedge c_{d-1} consumed by the
central condition.  Every entry is an int when integral, else a Fraction
(``rationals.exact``); class indices are 1-based everywhere in the public API.

One rule, ``projective_space(n)``, builds P^n; the presets are n = 0, 1, 2.
``projective_dim`` tells a target that is some P^n by its full serialized
content (its fingerprint), never by its name alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import IndexOutOfRange, ParseError, ValidationError
from .rationals import exact, exact_value, format_rational, parse_rational
from .series import VarId

Matrix = tuple[tuple[int | Fraction, ...], ...]
Degree = tuple[int, ...]
# ((tau_0(O_rho), eta^{sigma rho}), ...): a sigma's partners rho of one weight
Partners = tuple[tuple[VarId, int | Fraction], ...]
# (tau_0(O_sigma), its weight, {weight of rho: ((tau_0(O_rho), eta^{sigma rho}), ...)})
RaisedRow = tuple[VarId, int, dict[int, Partners]]
# (tau_0(O_sigma), the splits (deg1, deg2) of one c1 . deg1, sigma's partners of one weight)
SplitHit = tuple[VarId, list[tuple[Degree, Degree]], Partners]
# (balance of key1 before sigma, balance of key2 before rho) -> its hits, in sigma order
SplitTable = dict[tuple[int, int], list[SplitHit]]
# (left, right, multiplicity binomial, weight of left, weight of right)
SpectatorSplit = tuple[tuple[VarId, ...], tuple[VarId, ...], int, int, int]


def row(matrix: Matrix, a: int) -> list[tuple[int, int | Fraction]]:
    """The nonzero entries (s, M_{a s}) of row a, classes 1-based."""
    return [(s, c) for s, c in enumerate(matrix[a - 1], 1) if c]


@dataclass(frozen=True)
class TargetSpace:
    name: str
    classes: int
    complex_dim: int
    q: tuple[int, ...]
    eta: Matrix
    cup: dict[tuple[int, int, int], int | Fraction]
    c1_mat: Matrix
    novikov_rank: int = 0
    c1_deg: tuple[int, ...] = ()
    divisors: tuple[tuple[int, tuple[int, ...]], ...] = ()
    euler_char: int = 0
    c1_cdm1: int | Fraction = 0

    def __post_init__(self):
        """Store each given table's entries by ``rationals.exact``, as derived tables are."""
        setattr_ = object.__setattr__
        setattr_(self, "eta", _exact_matrix(self.eta))
        setattr_(self, "cup", {k: exact_value(v) for k, v in self.cup.items()})
        setattr_(self, "c1_mat", _exact_matrix(self.c1_mat))
        setattr_(self, "c1_cdm1", exact_value(self.c1_cdm1))

    def b_value(self, alpha: int) -> int | Fraction:
        if not 1 <= alpha <= self.classes:
            raise IndexOutOfRange(f"class index {alpha} not in [1, {self.classes}]")
        return exact(2 * self.q[alpha - 1] - self.complex_dim + 1, 2)

    @cached_property
    def b(self) -> tuple[int | Fraction, ...]:
        return tuple(self.b_value(a) for a in range(1, self.classes + 1))

    @cached_property
    def eta_inv(self) -> Matrix:
        return _invert(self.eta)

    def cup_entry(self, a: int, b: int, g: int) -> int | Fraction:
        return self.cup.get((a, b, g), 0)

    @cached_property
    def _cup_rows(self) -> dict[tuple[int, int], list[tuple[int, int | Fraction]]]:
        """(a, b) -> the nonzero (g, kappa_{ab}^g) in g order: the cup as sparse rows."""
        rows: dict[tuple[int, int], list[tuple[int, int | Fraction]]] = {}
        for (a, b, g), k in sorted(self.cup.items()):
            if k:
                rows.setdefault((a, b), []).append((g, k))
        return rows

    def cup_product(self, vec: dict[int, int | Fraction], cls: int
                    ) -> dict[int, int | Fraction]:
        """Multiply a cohomology vector (class -> coeff) by the class ``cls``."""
        out: dict[int, int | Fraction] = {}
        rows = self._cup_rows
        for a, coeff in vec.items():
            for g, k in rows.get((a, cls), ()):
                acc = out.get(g, 0) + coeff * k
                if acc:
                    out[g] = acc
                else:
                    out.pop(g, None)
        return out

    def classical_integral(self, classes: tuple[int, ...]) -> int | Fraction:
        """Exact integral over V of the cup product of the listed classes."""
        vec = {1: 1}
        for cls in classes:
            vec = self.cup_product(vec, cls)
            if not vec:
                return 0
        # int O_g = eta_{g,1} since O_1 is the unit.
        return sum(c * self.eta[g - 1][0] for g, c in vec.items())

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
        """(C^j eta)_{alpha beta}, the lowered-index form used classically.

        Built once per j and target, as the powers of C are.
        """
        out = self._chern_powers_eta.get(j)
        if out is None:
            out = self._chern_powers_eta[j] = _mat_mul(self.chern_power(j), self.eta)
        return out

    @cached_property
    def _chern_powers_eta(self) -> dict[int, Matrix]:
        return {}

    def raised(self, sigma: int) -> list[tuple[int, int | Fraction]]:
        """Nonzero pairs (rho, eta^{sigma rho}) realizing the raised index."""
        return row(self.eta_inv, sigma)

    @cached_property
    def class_weight(self) -> dict[int, int]:
        """Class index a -> q_a - 1, so a slot tau_m(O_a) weighs m + class_weight[a].

        A key is dimension-admissible exactly when its weight is its degree's
        ``degree_weight``; a class index not in 1..classes has no weight.
        """
        return {a: qa - 1 for a, qa in enumerate(self.q, start=1)}

    @cached_property
    def raised_table(self) -> tuple[RaisedRow, ...]:
        """One row per sigma: the raised index as the genus-0 splitting contracts it.

        Built from ``raised``, the partners rho of each sigma grouped by their
        weight q_rho - 1 in ``raised`` order, the groups ``split_table``
        files under the balance they complete.
        """
        w = self.class_weight
        table = []
        for sigma in range(1, self.classes + 1):
            groups: dict[int, Partners] = {}
            for rho, c in self.raised(sigma):
                groups[w[rho]] = groups.get(w[rho], ()) + ((VarId(0, rho), c),)
            table.append((VarId(0, sigma), w[sigma], groups))
        return tuple(table)

    def degree_weight(self, deg: Degree) -> int:
        """dim - 3 + c1 . deg: the weight a key of degree ``deg`` must have."""
        return self.complex_dim - 3 + sum(d * c for d, c in zip(deg, self.c1_deg))

    def degrees_by_weight(self, cap: Degree) -> dict[int, list[Degree]]:
        """The degrees below ``cap`` grouped by ``degree_weight``, in ``_degree_box`` order.

        A key is dimension-admissible exactly when its insertion weight is its
        degree's weight, so the group of a key's insertion weight lists the
        degrees it can take.  Memoised per cap for the life of the target.
        """
        groups = self._degrees_by_weight.get(cap)
        if groups is None:
            groups = {}
            for deg in _degree_box(cap):
                groups.setdefault(self.degree_weight(deg), []).append(deg)
            self._degrees_by_weight[cap] = groups
        return groups

    @cached_property
    def _degrees_by_weight(self) -> dict[Degree, dict[int, list[Degree]]]:
        return {}

    def split_table(self, deg: Degree) -> SplitTable:
        """The genus-0 splitting at degree ``deg``, keyed by the balances of its two keys.

        A key's balance before a slot is 3 - dim plus the weight of its other
        slots, so <X S1 O_sigma>_A1 is dimension-admissible exactly when its
        balance before sigma plus q_sigma - 1 is c1 . A1, and <O_rho Y S2>_A2
        when its balance before rho plus q_rho - 1 is c1 . A2.  So the two
        balances fix, for each sigma, c1 . A1 and the weight rho must have.
        The entry of (balance of key1, balance of key2) lists the hits
        (tau_0(O_sigma), the splits deg = A1 + A2 of that pairing in
        ``_degree_box`` order, sigma's partners rho of that weight) in
        ``raised_table`` order, at most one per sigma; a pair with no hit has
        no entry.  ``_splittings`` looks up one entry per spectator split.
        Memoised per degree for the life of the target; the reduction asks
        only for degrees inside the box of the keys it reduces.
        """
        table = self._split_tables.get(deg)
        if table is None:
            c1 = self.c1_deg
            total = sum(d * c for d, c in zip(deg, c1))
            by_pairing: dict[int, list[tuple[Degree, Degree]]] = {}
            for deg1 in _degree_box(deg):
                by_pairing.setdefault(sum(d * c for d, c in zip(deg1, c1)), []).append(
                    (deg1, tuple(d - a for d, a in zip(deg, deg1))))
            table = {}
            for var_s, w_s, groups in self.raised_table:
                for p1, splits in by_pairing.items():
                    for w_r, partners in groups.items():
                        table.setdefault((p1 - w_s, total - p1 - w_r), []).append(
                            (var_s, splits, partners))
            self._split_tables[deg] = table
        return table

    @cached_property
    def _split_tables(self) -> dict[Degree, SplitTable]:
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

    def central_condition(self) -> tuple[Fraction, Fraction, bool]:
        lhs = sum((bv * (1 - bv) for bv in self.b), Fraction(0)) / 4
        rhs = (Fraction(3 - self.complex_dim, 2) * self.euler_char - self.c1_cdm1) / 24
        return lhs, rhs, lhs == rhs

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 of the target's full content, serialized compactly with sorted keys."""
        text = json.dumps(_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


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


def _exact_matrix(rows) -> Matrix:
    """The rows as a Matrix whose entries are ints when integral, else Fractions."""
    return tuple(tuple(map(exact_value, r)) for r in rows)


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return _exact_matrix((sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                         for i in range(n))


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
    return _exact_matrix(row[n:] for row in aug)


def validate_target(ts: TargetSpace) -> None:
    """Check every structural invariant; raise ValidationError naming the first failure."""
    n, d = ts.classes, ts.complex_dim
    if n < 1:
        raise ValidationError("classes must be at least 1")
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
    ts.eta_inv  # raises "eta not nondegenerate"; built once, kept for the engine
    # O_1 is the unit of the classical ring.
    for b in range(1, n + 1):
        for g in range(1, n + 1):
            if ts.cup_entry(1, b, g) != int(b == g):
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
    # Associativity as (a b) g = (b g) a, the cup being commutative by now.
    classes = range(1, n + 1)
    prod = {(a, b): ts.cup_product({a: 1}, b) for a in classes for b in classes}
    for (a, b), ab in prod.items():
        for g in classes:
            if ts.cup_product(ab, g) != ts.cup_product(prod[b, g], a):
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


def projective_space(n: int) -> TargetSpace:
    """P^n: classes H^0..H^n, H^i cup H^j = H^(i+j), c1 = (n+1)H, divisor H.

    The point is n = 0, with Novikov rank 0.  chi = n + 1, and
    int c1 c_(n-1) = (n+1) C(n+1, 2), since c(P^n) = (1 + H)^(n+1).
    """
    r = range(n + 1)
    return TargetSpace(
        name=f"P{n}" if n else "point", classes=n + 1, complex_dim=n, q=tuple(r),
        eta=tuple(tuple(int(i + j == n) for j in r) for i in r),
        cup={(i + 1, j + 1, i + j + 1): 1 for i in r for j in r if i + j <= n},
        c1_mat=tuple(tuple((n + 1) * int(j == i + 1) for j in r) for i in r),
        novikov_rank=int(n > 0), c1_deg=(n + 1,) if n else (),
        divisors=((2, (1,)),) if n else (),
        euler_char=n + 1, c1_cdm1=(n + 1) * math.comb(n + 1, 2),
    )


@functools.cache
def _projective_fingerprint(n: int) -> str:
    return projective_space(n).fingerprint


def projective_dim(ts: TargetSpace) -> int | None:
    """The n for which ``ts`` is ``projective_space(n)``, else None.

    The test is the fingerprint, the target's full serialized content, so a
    P^n in another basis or under another name is not one.  Only a target
    with complex_dim + 1 classes is compared, so no P^n larger than the
    target itself is ever built.
    """
    n = ts.complex_dim
    if ts.classes == n + 1 and ts.fingerprint == _projective_fingerprint(n):
        return n
    return None


_PRESETS = {"point": 0, "P1": 1, "P2": 2}


def preset(name: str) -> TargetSpace:
    if name not in _PRESETS:
        raise ParseError(f"unknown preset {name!r} (have: {', '.join(sorted(_PRESETS))})")
    ts = projective_space(_PRESETS[name])
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


def _int(value, what: str) -> int:
    """A JSON integer field.  Anything else is a ParseError: ``int`` would read 1.9 as 1."""
    if value.__class__ is not int:
        raise ParseError(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def decode_json(text: str):
    """``json.loads``, but nesting too deep to decode is a ValueError too.

    The decoder skips the whitespace around the value itself.  Target files
    and the cache reader both decode through it.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def load_target(text: str) -> TargetSpace:
    """Parse and validate a target file (JSON document, rationals as strings)."""
    try:
        doc = decode_json(text)
    except ValueError as exc:  # JSONDecodeError or nesting
        raise ParseError(f"target file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("target file must be a JSON object")
    required = {"name", "classes", "complex_dim", "q", "eta", "cup", "c1_mat",
                "novikov_rank", "c1_deg", "divisors", "euler_char", "c1_cdm1"}
    missing = required - doc.keys()
    if missing:
        raise ParseError(f"target file missing fields: {', '.join(sorted(missing))}")
    name = doc["name"]
    if not isinstance(name, str):
        raise ParseError(f"name must be a string, not {json.dumps(name)}")
    try:
        n = _int(doc["classes"], "classes")
        cup: dict[tuple[int, int, int], Fraction] = {}
        for quad in doc["cup"]:
            a, b, g, v = quad
            value = parse_rational(str(v))
            if value != 0:
                cup[tuple(_int(i, "cup index") for i in (a, b, g))] = value
        ts = TargetSpace(
            name=name,
            classes=n,
            complex_dim=_int(doc["complex_dim"], "complex_dim"),
            q=tuple(_int(x, "q") for x in doc["q"]),
            eta=_parse_matrix(doc["eta"], n, "eta"),
            cup=cup,
            c1_mat=_parse_matrix(doc["c1_mat"], n, "c1_mat"),
            novikov_rank=_int(doc["novikov_rank"], "novikov_rank"),
            c1_deg=tuple(_int(x, "c1_deg") for x in doc["c1_deg"]),
            divisors=tuple((_int(cls, "divisor class"),
                            tuple(_int(x, "divisor pairing") for x in vec))
                           for cls, vec in doc["divisors"]),
            euler_char=_int(doc["euler_char"], "euler_char"),
            c1_cdm1=parse_rational(str(doc["c1_cdm1"])),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed target file: {exc}") from None
    validate_target(ts)
    return ts
