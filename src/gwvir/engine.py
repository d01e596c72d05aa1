"""Genus-0 descendent invariants by exact reduction with a memo cache.

A correlator key is a canonically sorted multiset of insertions tau_m(O_alpha)
plus a Novikov degree vector.  Keys from outside enter through one boundary:
``make_key`` builds them canonical (``cli.parse_key`` goes through it), and
the caller tests ``dimension_admissible`` before it asks the engine, as
``gw invariant`` does; an inadmissible key is 0 by the selection rule.  Inside,
the master evaluator trusts its key: a canonical, admissible key is looked up
in the cache as given, and a missing one is reduced to base data in a fixed
order:

  1. degree zero -> closed form, 2. fewer than 3 insertions -> divisor lift,
  3. any positive level -> TRR on the first maximal-level insertion (only
  the dimension-admissible terms), 4. all-primary -> identity insertions
  kill the key at nonzero degree, divisor insertions strip off, and the rest
  is a seed or reduces by WDVV.

The seeds are a plain table of primary invariants.  With none given, it is
every P^n's one seed <pt pt>_1 = 1 when the target is ``projective_space(n)``
in full content (``projective_dim``), and empty otherwise.

Each step strictly decreases (total level, insertion deficit below 3, degree,
rank) lexicographically, where an all-primary key's rank is (non-divisor
insertions, -sum (q_a - 1)^2).  The rank is well-founded where it is
compared: WDVV's degree-0 terms keep the degree and the number of
insertions, so sum (q_a - 1) is fixed by the dimension constraint, and
sum (q_a - 1)^2 is bounded.  So the reduction terminates; it runs on an
explicit work stack rather than by recursion, so deep keys do not hit the
recursion limit.  Every rule builds its sub-keys canonical and keeps only
admissible ones, so canonical keys make the memo cache order-independent.

TRR and WDVV are one genus-0 splitting, sum <X S1 O_s>_A1 eta^{sr}
<O_r Y S2>_A2 over the splits of the spectators S and the degree A, and both
walk its dimension-admissible part through one helper, ``_splittings``.  It
returns rows: a first key plus what its partner keys need.  Every rule hands
the reducer a list of rows of that one shape (``SplitRow``): the divisor
lift and WDVV's degree-0 terms give single-key rows, which have no
partners.  One loop sums every rule's rows: it reads each first key before
any of its partners and builds no partner key behind a first key whose
value is 0, and it requests sub-keys in exactly that order.  What the
helper needs of the target (the class weights q_a - 1, each spectator
multiset's splits with their binomials and weights, and per degree the
split table: the sigmas, degree splits and partners rho that balance a
pair of keys) is built once per target (``TargetSpace.class_weight``,
``spectator_splits``, ``split_table``), so the helper does one table
lookup per spectator split.
A miss sums its products in integers through ``_add``, one numerator over
one lcm denominator, and makes its value once, through ``rationals.exact``:
an ``int`` when it is integral (most values are), else a ``Fraction``.  Every
value the reducer publishes and every value a cache file or seed table loads
is made by that one rule, and none is a ``float``: no ``/`` sees two ints.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import operator
import os
import re
from fractions import Fraction
from typing import Generator, Iterable, Iterator, NamedTuple

from .errors import (CacheMismatch, NotApplicable, ParseError, TargetUnsupported,
                     ValidationError)
from .rationals import exact, format_rational, parse_rational
from .series import TruncatedSeries, TruncationPolicy, VarId
from .target import Degree, Partners, TargetSpace, decode_json, projective_dim

_ZERO = Fraction(0)
_ONE = Fraction(1)

Insertions = tuple[VarId, ...]


class CorrelatorKey(NamedTuple):
    insertions: Insertions
    degree: Degree


def make_key(insertions: Iterable[tuple[int, int]], degree: Iterable[int]) -> CorrelatorKey:
    """Canonical key: insertions sorted by (level, class index).

    The one constructor for keys from outside the engine; ``Engine.invariant``
    takes only keys built canonical like this.
    """
    ins = tuple(sorted(VarId(m, a) for m, a in insertions))
    return CorrelatorKey(ins, tuple(degree))


def dimension_admissible(ts: TargetSpace, key: CorrelatorKey) -> bool:
    """Selection rule: sum of (m_i + q_i) must hit the virtual dimension.

    A key with a class index outside 1..classes is not admissible.
    """
    ins, deg = key
    w = ts.class_weight
    weight = 0
    for m, a in ins:
        wa = w.get(a)
        if wa is None:
            return False
        weight += m + wa
    return weight == ts.degree_weight(deg)


class InvariantCache:
    """Memoized invariant values, bound to one target fingerprint."""

    def __init__(self, fingerprint: str,
                 entries: dict[CorrelatorKey, int | Fraction] | None = None):
        self.fingerprint = fingerprint
        self.entries: dict[CorrelatorKey, int | Fraction] = dict(entries or {})

    def publish(self, key: CorrelatorKey, value: int | Fraction) -> int | Fraction:
        # Publish-once: a key's value is stored once and never replaced.  One
        # engine reduces each key once, but two engines given the same cache,
        # or threads calling one engine (there is no lock), can each reduce a
        # key before either publishes it; the later value must agree.  When
        # setdefault returns ``value`` itself, it has just stored it.
        existing = self.entries.setdefault(key, value)
        if existing is not value and existing != value:
            raise CacheMismatch(f"conflicting values for {key}")
        return existing

    def save(self, path: str) -> None:
        """Write the cache to ``path`` atomically.

        The records go to a temporary file in the same directory, which then
        replaces ``path`` in one step, so a crash during the write leaves the
        previous file whole.
        """
        # Each record is the text json.dumps(..., sort_keys=True,
        # separators=(",", ":")) gives for {"ins", "deg", "val"}, the layout
        # _RECORD_RE reads.  Each distinct slot and degree is formatted once.
        # The records are written line by line, so the file's text is never
        # held whole.
        entries = self.entries
        slots = {v: "[%s,%s]" % v for v in {v for ins, _ in entries for v in ins}}
        degrees = {deg: ",".join(map(str, deg)) for deg in {deg for _, deg in entries}}
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"fingerprint": self.fingerprint}, sort_keys=True) + "\n")
                fh.writelines(f'{{"deg":[{degrees[key.degree]}],'
                              f'"ins":[{",".join(map(slots.__getitem__, key.insertions))}],'
                              f'"val":"{format_rational(entries[key])}"}}\n'
                              for key in sorted(entries))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str, expected_fingerprint: str,
             ts: TargetSpace | None = None) -> "InvariantCache":
        """Read a cache file; a malformed header or record is a CacheMismatch.

        So is a key that appears twice, which ``save`` never writes, and a
        later header naming another fingerprint.  Given the target, a record
        whose key is not a dimension-admissible key of it is a CacheMismatch
        too: such a key is 0 and never cached, and the reduction never asks
        for it.
        """
        with open(path, encoding="utf-8") as fh:
            try:
                header = decode_json(fh.readline())
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, nesting
                raise CacheMismatch(f"cache header of {path} is not JSON: {exc}") from exc
            fingerprint = header.get("fingerprint") if isinstance(header, dict) else None
            if fingerprint != expected_fingerprint:
                raise CacheMismatch(
                    f"cache fingerprint {fingerprint!r} does not match target {expected_fingerprint!r}"
                )
            try:
                entries = _read_records(fh, ts, fingerprint)
            except (ValueError, KeyError, TypeError, ParseError) as exc:
                raise CacheMismatch(f"bad record in cache {path}: {exc}") from exc
        return cls(fingerprint, entries)


# One record in the layout ``InvariantCache.save`` writes, matched loosely: no
# whitespace, the keys in the order deg, ins, val, and one optional newline.
# Groups: the degree text ("1,0"), the insertions text inside the outer
# brackets ("0,2],[1,3"; None when the list is empty) and the value text.
# The match checks only which characters appear where.  ``_read_records``
# checks each distinct degree and slot text against the grammar ``save``
# writes (``_DEGREE_RE``, ``_SLOT_RE``: integers with no sign or leading zero,
# a slot a pair of them) once per file, and a line with a text that fails goes
# to the ``json`` decoder.  The classes hold only ASCII digits, so no part of
# a match is a non-ASCII digit, which the json path refuses in a number.
_RECORD_RE = re.compile(
    r'\{"deg":\[([0-9,]*)\],"ins":\[(?:\[([0-9,\[\]]*)\])?\],"val":"([-/0-9]*)"\}\n?')
_INT = r"(?:0|[1-9][0-9]*)"
_DEGREE_RE = re.compile(rf"(?:{_INT}(?:,{_INT})*)?")
_SLOT_RE = re.compile(rf"{_INT},{_INT}")


def _read_records(lines: Iterable[str], ts: TargetSpace | None = None,
                  fingerprint: str | None = None) -> dict[CorrelatorKey, int | Fraction]:
    """Parse cache-format records, skipping blank lines and headers.

    A line ``_RECORD_RE`` matches loosely is read from its own text.  The
    first time the file shows a degree text or a slot text such as ``0,2``,
    that text is checked against the grammar ``save`` writes (integers with
    no sign or leading zero) and parsed; each distinct value text is parsed
    once, too, and later lines look all three up.  A line with a text that
    fails the grammar goes to the ``json`` decoder, as does any other line
    (another spacing or key order, CRLF, extra keys, a header, bad input).
    So the text path reads exactly the lines in ``save``'s layout, and both
    paths end in the same checks: a record is accepted or refused alike
    whichever path reads it.

    Keys come out canonical; equal insertions share one ``VarId`` and equal
    value strings one value, made by ``rationals.exact`` as the reducer makes
    its values: an ``int`` when integral, else a ``Fraction``.  Levels,
    classes and degrees must be JSON integers, the only values ``save`` writes
    there (with ``str``, which would write ``true`` as ``True``).  A key read
    twice (after sorting its insertions) is a ValueError: ``save`` writes
    each key once.  Given the target, a record whose key is not a
    dimension-admissible key of it (a negative level or degree, a class or
    degree length the target lacks, or the wrong weight) is a ValueError as
    it is read.  A header is a decoded
    line holding ``fingerprint``; given ``fingerprint``, a header naming
    another one is a ValueError, and without it (a table file) every header
    is skipped.
    """
    match, new = _RECORD_RE.fullmatch, tuple.__new__
    degree_ok, slot_ok = _DEGREE_RE.fullmatch, _SLOT_RE.fullmatch
    entries: dict[CorrelatorKey, int | Fraction] = {}
    vids: dict[tuple[int, int], VarId] = {}
    vals: dict[str, int | Fraction] = {}
    # The text path's memos of texts that passed the grammar: slot text ->
    # VarId and degree text -> degree.
    slot_vids: dict[str, VarId] = {}
    degrees: dict[str, Degree] = {}
    # Given the target: the weight m + q_a - 1 of each interned slot (None for
    # a slot the target lacks), and the weight a key of each degree must have.
    weights: dict[VarId, int | None] = {}
    balances: dict[Degree, int] = {}
    # The per-line lookups, bound once.
    get_degree, get_value = degrees.get, vals.get
    get_balance, get_weight = balances.get, weights.__getitem__

    def intern(m: int, a: int) -> VarId:
        vid = vids.get((m, a))
        if vid is None:
            vid = vids[m, a] = VarId(m, a)
            if ts is not None:
                wa = ts.class_weight.get(a)
                weights[vid] = m + wa if m >= 0 and wa is not None else None
        return vid

    def read_slots(slots: list[str]) -> list[VarId] | None:
        """A line's slots; None if a new slot text fails the grammar."""
        for slot in slots:
            if slot not in slot_vids:
                if slot_ok(slot) is None:
                    return None
                m, a = slot.split(",")
                slot_vids[slot] = intern(int(m), int(a))
        return [slot_vids[slot] for slot in slots]

    for line in lines:
        rec = match(line)
        if rec is not None:
            deg_text, ins_text, text = rec.groups()
            deg = get_degree(deg_text)
            if deg is None and degree_ok(deg_text):
                deg = degrees[deg_text] = tuple(map(int, deg_text.split(","))) if deg_text else ()
            slots = ins_text.split("],[") if ins_text is not None else ()
            try:
                ins = [slot_vids[slot] for slot in slots]
            except KeyError:  # a slot text not seen before in this file
                ins = read_slots(slots)
            if deg is None or ins is None:
                rec = None  # outside save's grammar: the json decoder reads the line
        if rec is None:
            if not line or line.isspace():
                continue
            rec = decode_json(line)
            if "fingerprint" in rec:
                if fingerprint is not None and rec["fingerprint"] != fingerprint:
                    raise ValueError(f"a later header names fingerprint {rec['fingerprint']!r},"
                                     f" not {fingerprint!r}")
                continue
            ins = []
            for m, a in rec["ins"]:
                # Before the lookup: (True, 2) and (1.0, 2) hash as (1, 2).
                if m.__class__ is not int or a.__class__ is not int:
                    raise ValueError(f"insertion {[m, a]} is not a pair of integers")
                ins.append(intern(m, a))
            deg = tuple(rec["deg"])
            for d in deg:  # before the lookup, as for the insertions
                if d.__class__ is not int:
                    raise ValueError(f"degree {list(deg)} is not a list of integers")
            text = rec["val"]
        ins.sort()
        key = new(CorrelatorKey, (tuple(ins), deg))
        if ts is not None:
            balance = get_balance(deg)
            if balance is None:
                if len(deg) != ts.novikov_rank or any(d < 0 for d in deg):
                    raise ValueError(f"{key}: degree {list(deg)} is not a degree of {ts.name}")
                balance = balances[deg] = ts.degree_weight(deg)
            try:
                weight = sum(map(get_weight, ins))
            except TypeError:  # a slot the target lacks
                weight = None
            if weight != balance:
                raise ValueError(f"{key} is not an admissible key of {ts.name}")
        value = get_value(text)
        if value is None:
            value = parse_rational(text)
            value = vals[text] = exact(value.numerator, value.denominator)
        size = len(entries)
        entries[key] = value
        if len(entries) == size:
            raise ValueError(f"{key} appears twice")
    return entries


def load_seeds(path: str, ts: TargetSpace) -> dict[CorrelatorKey, int | Fraction]:
    """Read primary invariants of ``ts`` in the cache record format (no header required).

    A seed whose key is not a dimension-admissible key of the target is a
    ParseError, as a cache record would be a CacheMismatch: the reduction would
    never ask for it.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            table = _read_records(fh, ts)
        except (ValueError, KeyError, TypeError, ParseError) as exc:
            raise ParseError(f"table file {path} is not a seed table of {ts.name}: {exc}") from exc
    return table


# ---------------------------------------------------------------------------
# Reduction rules (exposed individually; the master evaluator wires them up).
# ---------------------------------------------------------------------------

def degree_zero_value(ts: TargetSpace, key: CorrelatorKey) -> int | Fraction:
    """Constant-map invariant: psi-class multinomial times a classical integral."""
    ins, deg = key
    if any(deg):
        raise NotApplicable("degree_zero_value needs degree 0")
    k = len(ins)
    if k < 3:
        return 0
    total_level = sum(m for m, _ in ins)
    if total_level != k - 3:
        return 0
    den = 1
    for m, _ in ins:
        den *= math.factorial(m)
    integral = ts.classical_integral(tuple(a for _, a in ins))
    return exact(math.factorial(k - 3) * integral.numerator, den * integral.denominator)


def string_reduce(ts: TargetSpace, key: CorrelatorKey
                  ) -> tuple[list[tuple[CorrelatorKey, Fraction]], Fraction]:
    """String equation: drop one tau_0(O_1), lower each remaining level once.

    Returns (weighted keys, scalar); the scalar carries the eta constant of
    the residual 3-point degree-0 case.
    """
    ins, deg = key
    unit = VarId(0, 1)
    if unit not in ins:
        raise NotApplicable("no tau_0(O_1) insertion")
    if len(ins) < 3 and not any(deg):
        raise NotApplicable("string equation needs k >= 3 or nonzero degree")
    rest = list(ins)
    rest.remove(unit)
    terms: list[tuple[CorrelatorKey, Fraction]] = []
    for i, (m, a) in enumerate(rest):
        if m >= 1:
            lowered = rest[:i] + [VarId(m - 1, a)] + rest[i + 1:]
            terms.append((CorrelatorKey(tuple(sorted(lowered)), deg), _ONE))
    scalar = _ZERO
    if len(rest) == 2 and not any(deg):
        (m, a), (n, b) = rest
        if m == 0 and n == 0:
            scalar = ts.eta[a - 1][b - 1]
    return terms, scalar


def dilaton_reduce(ts: TargetSpace, key: CorrelatorKey) -> tuple[CorrelatorKey, Fraction]:
    """Dilaton equation: drop one tau_1(O_1), scale by (#remaining - 2)."""
    ins, deg = key
    dil = VarId(1, 1)
    if dil not in ins:
        raise NotApplicable("no tau_1(O_1) insertion")
    if len(ins) < 4 and not any(deg):
        raise NotApplicable("dilaton equation needs k >= 4 or nonzero degree")
    rest = list(ins)
    rest.remove(dil)
    return CorrelatorKey(tuple(rest), deg), Fraction(len(rest) - 2)


def divisor_lift(ts: TargetSpace, key: CorrelatorKey
                 ) -> tuple[CorrelatorKey, list[tuple[CorrelatorKey, Fraction]], Fraction]:
    """Inverse divisor equation for k < 3 keys at nonzero degree.

    Returns (lifted key, lowering terms, pairing):
    <key> = (<lifted> - sum of lowering terms) / pairing.
    """
    ins, deg = key
    if len(ins) >= 3:
        raise NotApplicable("divisor lift applies only to k < 3")
    if ts.novikov_rank == 0 or not ts.divisors:
        raise TargetUnsupported("target has no divisor data to lift with")
    if not any(deg):
        raise NotApplicable("divisor lift needs nonzero degree")
    for cls, vec in ts.divisors:
        pairing = Fraction(sum(p * d for p, d in zip(vec, deg)))
        if pairing:
            lifted = CorrelatorKey(tuple(sorted(ins + (VarId(0, cls),))), deg)
            return lifted, _lowering_terms(ts, ins, deg, cls), pairing
    raise TargetUnsupported("no divisor pairs nontrivially with this degree")


def _lowering_terms(ts: TargetSpace, ins: Insertions, deg: Degree, divisor_cls: int
                    ) -> list[tuple[CorrelatorKey, Fraction]]:
    """The divisor equation's lowering terms for a divisor of class ``divisor_cls``.

    One term (<ins with tau_m(O_a) lowered to tau_{m-1}(O_g)>, kappa) for
    each insertion tau_m(O_a) with m >= 1 and each g with
    kappa = kappa_{divisor a}^g nonzero.
    """
    terms = []
    for i, (m, a) in enumerate(ins):
        if m >= 1:
            for g in range(1, ts.classes + 1):
                kappa = ts.cup_entry(divisor_cls, a, g)
                if kappa:
                    lowered = ins[:i] + (VarId(m - 1, g),) + ins[i + 1:]
                    terms.append((CorrelatorKey(tuple(sorted(lowered)), deg), kappa))
    return terms


# One row of a reduction sum: every rule hands the reducer a list of rows of
# this shape.  A row of a genus-0 splitting is key1 = <first S1 O_s>_A1 and
# what its partner keys <O_r second S2>_A2 need: the sorted halves
# (S2 + second), sigma's partners rho (with eta^{sigma rho}) of the one
# weight that balances them, the coefficient ``ways`` (the spectator
# binomial, times WDVV's sign) and A2; it stands for the terms
# eta^{sigma rho} * ways * <key1> * <key2>.  A single-key row
# (key1, None, None, ways, None) stands for the one term ways * <key1>.
SplitRow = tuple[CorrelatorKey, Insertions | None, Partners | None, int | Fraction, Degree | None]


def _splittings(ts: TargetSpace, first: Insertions, second: Insertions,
                spectators: Insertions, deg: Degree) -> list[SplitRow]:
    """The admissible rows of sum <first S1 O_s>_A1 eta^{sr} <O_r second S2>_A2.

    This is the genus-0 splitting that TRR and WDVV both sum.  It runs over
    the splits S1 + S2 of the sorted ``spectators`` (each with its
    multiplicity binomial), A1 + A2 of ``deg``, and the sigma, rho with
    eta^{sigma rho} nonzero, keeping only the terms whose two keys are both
    dimension-admissible (the others vanish by the selection rule).  It
    returns them as a list of rows: a row (key1, halves, partners, ways,
    deg2) stands for the terms eta^{sigma rho} * ways * <key1> * <key2> of
    each (rho, eta^{sigma rho}) in ``partners``, in that order, where key2
    is ``halves`` with rho put in its sorted place (``_partner_key``), at
    degree ``deg2``.  The reducer reads key1 first and builds a partner key
    only when key1 is not 0.

    The rows are found by weight, with one table lookup per spectator split.
    The split's weights give the balances of both keys before sigma and rho
    are added, and the pair of balances is one entry of the degree's split
    table (``TargetSpace.split_table``): the sigmas whose first key it
    balances, each with the degree splits of the pairing c1 . A1 that needs
    and the partners rho that balance the second key, in sigma order.  The
    spectator splits with their weights and the split tables are the
    target's, built once per target.

    Both keys are canonical.  The first key's insertions are sorted once per
    (spectator split, sigma), from ``left + first`` built once per split.
    The halves ``right + second`` are sorted already when the sorted
    ``second`` sorts after every spectator, as the split table's ``right`` is
    a sorted sub-multiset of them; otherwise they are sorted once per split.
    """
    w = ts.class_weight
    # Balances of the two keys before the new primaries are added.
    base1 = base2 = 3 - ts.complex_dim
    for m, a in first:
        base1 += m + w[a]
    for m, a in second:
        base2 += m + w[a]
    ordered = not spectators or spectators[-1] <= second[0]
    hits_of, new = ts.split_table(deg).get, tuple.__new__
    rows: list[SplitRow] = []
    append = rows.append
    for left, right, ways, w_left, w_right in ts.spectator_splits(spectators):
        hits = hits_of((base1 + w_left, base2 + w_right))
        if hits is None:
            continue
        left_first = left + first
        halves = right + second if ordered else tuple(sorted(right + second))
        for var_s, splits, partners in hits:
            ins1 = tuple(sorted(left_first + (var_s,)))
            for deg1, deg2 in splits:
                append((new(CorrelatorKey, (ins1, deg1)), halves, partners, ways, deg2))
    return rows


def _partner_key(halves: Insertions, var_r: VarId, deg2: Degree) -> CorrelatorKey:
    """The canonical key of ``halves`` with ``var_r`` in its sorted place, at ``deg2``.

    ``wdvv_reduce`` builds its degree-0 terms' partner keys with it; the
    reducer's sum loop inlines the same construction.
    """
    at = bisect.bisect(halves, var_r)
    return tuple.__new__(CorrelatorKey, (halves[:at] + (var_r,) + halves[at:], deg2))


def _trr_rows(ts: TargetSpace, key: CorrelatorKey, chosen: int) -> list[SplitRow]:
    """The rows of TRR on ``key``'s insertion ``chosen`` (a positive level).

    The chosen insertion tau_m loses one level and lands in the first factor;
    the two canonically largest remaining insertions stay in the second
    factor; spectators are distributed over both factors with multiplicity
    binomials, the degree splits, and eta^{-1} contracts the two new primary
    insertions.
    """
    ins, deg = key
    if len(ins) < 3:
        raise NotApplicable("TRR needs at least 3 insertions")
    m, alpha = ins[chosen]
    if m <= 0:
        raise NotApplicable("chosen insertion must have positive level")
    rest = ins[:chosen] + ins[chosen + 1:]
    return _splittings(ts, (VarId(m - 1, alpha),), rest[-2:], rest[:-2], deg)


def wdvv_reduce(ts: TargetSpace, key: CorrelatorKey) -> tuple[list[SplitRow], Fraction]:
    """WDVV at coefficient level for an all-primary key with no divisor or unit.

    The key's first insertion that is a single class D gamma' (D a listed
    divisor, gamma' of least q) splits off; c and d are the two largest other
    insertions and S the rest.  Summed over the splits S1 + S2 of S and
    A1 + A2 of the degree, <D gamma' S1 O_e>_A1 eta^{ef} <O_f c d S2>_A2 =
    <D c S1 O_e>_A1 eta^{ef} <O_f gamma' d S2>_A2, and ``key`` is the term
    with A1 = 0 and S1 empty.  Returns (rows, own): ``key`` is the sum of
    the rows' terms (``SplitRow``) divided by own.  The rows are each
    side's ``_splittings`` rows, signed: only dimension-admissible terms,
    every key canonical.  Both sides' rows are walked in full here, so the
    descent check below refuses a key before any sub-key is evaluated.

    A row whose two keys both have nonzero degree passes through.  A row
    with a degree-0 factor is expanded one partner at a time, and the
    factor is evaluated in place: the term's other key is ``key`` (the
    coefficient goes into own) or becomes a single-key row, and must have a
    lower rank than ``key``; a term with two keys lowers the degree of both.
    The rank of a key is (non-divisor insertions, -sum (q_a - 1)^2), compared
    lexicographically, and it is well-founded on the single-key rows.  A
    degree-0 factor of primaries is nonzero only with three insertions, so
    the other key keeps ``key``'s degree and number of insertions, and so,
    by the dimension constraint, its sum (q_a - 1).  Its sum (q_a - 1)^2 can
    then only grow a bounded number of times, since the target has finitely
    many classes.  So the reduction descends, and TargetUnsupported says when
    it cannot: no insertion splits, a term does not descend, or own is 0.
    """
    ins, deg = key
    if not any(deg) or any(m for m, _ in ins):
        raise NotApplicable("WDVV reduces all-primary keys at nonzero degree")
    divisors = [cls for cls, _ in ts.divisors]
    split = next(((i, VarId(0, cls), VarId(0, h)) for i, (_, g) in enumerate(ins)
                  for cls in divisors for h in range(1, ts.classes + 1)
                  if ts.cup_product({cls: _ONE}, h).keys() == {g}), None)
    if split is None or len(ins) < 3:
        raise TargetUnsupported(f"no insertion of {key} splits off a divisor on {ts.name}")
    chosen, div, prime = split
    rest = ins[:chosen] + ins[chosen + 1:]
    spectators, (d, c) = rest[:-2], rest[-2:]
    w = ts.class_weight

    def rank(slots: Insertions) -> tuple[int, int]:
        return sum(a not in divisors for _, a in slots), -sum(w[a] ** 2 for _, a in slots)

    top = rank(ins)
    own, stuck, rows = _ZERO, False, []
    # The left side's terms move over with sign -1, the right side's with +1.
    for sign, first, second in ((-1, (div, prime), (d, c)),
                                (1, (div, c), tuple(sorted((prime, d))))):
        for key1, halves, partners, ways, deg2 in _splittings(ts, first, second, spectators, deg):
            ways *= sign
            if any(key1.degree) and any(deg2):
                rows.append((key1, halves, partners, ways, deg2))
                continue
            for var_r, eta_inv in partners:
                key2 = _partner_key(halves, var_r, deg2)
                zero, other = (key1, key2) if any(deg2) else (key2, key1)
                coeff = eta_inv * ways * degree_zero_value(ts, zero)
                if other == key:
                    own -= coeff
                elif coeff:
                    rows.append((other, None, None, coeff, None))
                    stuck |= rank(other.insertions) >= top
    if stuck or not own:
        raise TargetUnsupported(f"WDVV does not reduce {key} on {ts.name}")
    return rows, own


def _add(num: int, den: int, n: int, d: int) -> tuple[int, int]:
    """num / den + n / d, over the lcm of the two denominators.

    The reducer's one accumulation: a miss sums its products in integers and
    makes its value once at the end, with ``rationals.exact``.
    """
    if den % d:
        lcm = math.lcm(den, d)
        return num * (lcm // den) + n * (lcm // d), lcm
    return num + n * (den // d), den


class Engine:
    """Master evaluator bound to one target, its seed table and a cache.

    ``seeds`` maps all-primary keys to their values; a key with a positive
    level is a ValidationError.
    """

    def __init__(self, ts: TargetSpace, seeds: dict[CorrelatorKey, int | Fraction] | None = None,
                 cache: InvariantCache | None = None):
        self.ts = ts
        if seeds is None:
            # P^n's one seed <pt pt>_1 = 1, the line through two points, when
            # ts is projective_space(n) in full content; no seed otherwise.
            # The point needs none, since every key of it has degree 0.
            n = projective_dim(ts)
            seeds = {CorrelatorKey((VarId(0, n + 1),) * 2, (1,)): 1} if n else {}
        for key in seeds:
            if any(m for m, _ in key.insertions):
                raise ValidationError(f"seed {key} is not primary")
        self.seeds = seeds
        if cache is None:
            cache = InvariantCache(ts.fingerprint)
        elif cache.fingerprint != ts.fingerprint:
            raise CacheMismatch("cache fingerprint does not match the active target")
        self.cache = cache
        # policy -> (weight bound, its monomials of weight <= bound, grouped by weight)
        self._indexes: dict[TruncationPolicy, tuple[int, list[tuple[int, list[_PolicyEntry]]]]] = {}

    # -- scalar invariants -------------------------------------------------

    def invariant(self, key: CorrelatorKey) -> int | Fraction:
        """Exact value of ``key``; a cache miss is reduced and published.

        The value is an ``int`` when it is integral and a ``Fraction``
        otherwise (``rationals.exact``).

        Precondition: ``key`` is canonical, as ``make_key`` builds it, and
        dimension-admissible.  Every key the engine builds itself is (the
        rules' sub-keys, ``admissible_keys``, the series walks), so the key is
        one cache lookup and is not checked again; a key from outside is
        checked where it enters (``make_key``, ``cli.parse_key``, and
        ``dimension_admissible`` before the call).  A miss is reduced by
        ``_evaluate``'s work stack, not by recursion, so no key runs into the
        interpreter's recursion limit.
        """
        value = self.cache.entries.get(key)
        if value is None:
            value = self._evaluate(key)
        return value

    def _evaluate(self, key: CorrelatorKey) -> int | Fraction:
        """Reduce a missing key depth-first with an explicit stack of steps.

        Each frame is a ``_reduce`` generator.  A frame that yields a sub-key
        waits while a frame for the sub-key runs; the sub-key's value, once
        published, is sent back to it.  This is the order plain recursion
        would take, with the same keys published.
        """
        stack = [(key, self._reduce(key))]
        value = None
        while True:
            top, steps = stack[-1]
            try:
                sub = steps.send(value)
            except StopIteration as done:
                value = self.cache.publish(top, done.value)
                stack.pop()
                if not stack:
                    return value
            else:
                stack.append((sub, self._reduce(sub)))
                value = None

    def _reduce(self, key: CorrelatorKey
                ) -> Generator[CorrelatorKey, int | Fraction, int | Fraction]:
        """Reduction steps of one admissible key, run as a frame of ``_evaluate``.

        Yields each admissible sub-key whose value is not cached yet and
        receives that value back; returns the key's value.  The rules build
        their sub-keys canonical, so each is looked up in the cache as built.
        Each rule gives a list of rows (``SplitRow``) and a scale, and one
        loop sums the rows: the key's value is their sum divided by the
        scale.  TRR's rows are ``_splittings``' list, found with one split
        table lookup per spectator split; the divisor lift's and WDVV's are
        lists too.  A row's key1 is read first, and yielded if it is not
        cached.  When it is 0 the row is skipped: its partner keys are
        neither built nor read.  Otherwise each partner key2 is built in
        place, as ``_partner_key`` builds it, and read in turn.  So the
        sub-keys are requested in the order of the rows' terms, each key1
        before its key2, and a key2 only when its key1 is not 0.

        Every sub-key of a target that passed validation is admissible, so
        none is checked here.  The lifted key adds a divisor slot, of weight
        q - 1 = 0.  A lowered slot tau_{m-1}(O_g) weighs what tau_m(O_a) did,
        since the cup grading puts kappa_{D a}^g at q_g = q_a + 1 only.
        TRR's and WDVV's keys come from ``_splittings``' rows, which keep
        only admissible keys.
        """
        ins, deg = key
        if not any(deg):
            return degree_zero_value(self.ts, key)
        if len(ins) < 3:
            # <key> = (<lifted> - sum kappa <lowered>) / pairing
            lifted, lowering, scale = divisor_lift(self.ts, key)
            rows = [(lifted, None, None, 1, None)] + [(k, None, None, -c, None) for k, c in lowering]
        elif ins[-1].level:  # canonical: the last insertion has the top level
            # TRR on the first insertion of the top level
            rows = _trr_rows(self.ts, key, bisect.bisect_left(ins, (ins[-1].level,)))
            scale = 1
        else:
            # All primary: strip the divisors, <key> = factor * <stripped>,
            # down to a seed, a unit (the string equation gives 0) or WDVV.
            pairing, seeds, factor = dict(self.ts.divisors), self.seeds, 1
            while key not in seeds:
                if VarId(0, 1) in ins:
                    return 0
                at = next((i for i, v in enumerate(ins) if v.cls in pairing), None)
                if at is None:
                    rows, own = wdvv_reduce(self.ts, key)
                    scale = Fraction(own, factor)  # not own / factor: exact for an int own
                    break
                factor *= sum(map(operator.mul, pairing[ins[at].cls], deg))
                if not factor:
                    return 0
                ins = ins[:at] + ins[at + 1:]
                key = CorrelatorKey(ins, deg)
            else:
                seed = seeds[key]
                return exact(factor * seed.numerator, seed.denominator)
        # The sum of the rows' terms, as num / den in integers.
        entries, insert, new = self.cache.entries, bisect.bisect_right, tuple.__new__
        num, den = 0, 1
        for key1, halves, partners, ways, deg2 in rows:
            v = entries.get(key1)
            if v is None:
                v = yield key1
            n1 = v.numerator
            if not n1:
                continue
            n1 *= ways.numerator
            d1 = v.denominator * ways.denominator
            if partners is None:
                num, den = _add(num, den, n1, d1)
                continue
            for var_r, eta_inv in partners:
                at = insert(halves, var_r)
                key2 = new(CorrelatorKey, (halves[:at] + (var_r,) + halves[at:], deg2))
                v = entries.get(key2)
                if v is None:
                    v = yield key2
                n = v.numerator
                if n:
                    num, den = _add(num, den, n1 * n * eta_inv.numerator,
                                    d1 * v.denominator * eta_inv.denominator)
        return exact(num * scale.denominator, den * scale.numerator)

    # -- generating functions ------------------------------------------------

    def _policy_index(self, policy: TruncationPolicy, bound: int
                      ) -> list[tuple[int, list[_PolicyEntry]]]:
        """The policy's t-monomials of weight <= ``bound``, grouped by weight in walk order.

        One index per policy: a call with a larger bound than the memoised
        one rebuilds it with that bound; a smaller bound reads it as it is.
        """
        memo = self._indexes.get(policy)
        if memo is None or memo[0] < bound:
            groups: dict[int, list[_PolicyEntry]] = {}
            for weight, tkey, ins, fact in _walk_t_monomials(policy, self.ts, bound):
                if weight <= bound:
                    groups.setdefault(weight, []).append((tkey, ins, fact))
            memo = self._indexes[policy] = (bound, list(groups.items()))
        return memo[1]

    def correlation_series(self, fixed: Iterable[tuple[int, int]],
                           policy: TruncationPolicy) -> TruncatedSeries:
        """Truncated series of <<prod tau_fixed>>_0 expanded at t = 0.

        Each coefficient is computed directly from the defining invariant, so
        the result agrees with iterated derivatives of the free energy without
        any truncation loss.  A weight group of the policy's monomials whose
        balance admits no degree under the cap is skipped whole.  For every
        single slot of the policy at once, ``gradient_series`` reads each key
        once instead of once per slot it holds.  Only monomials of weight up
        to the heaviest degree's weight less ``fixed``'s can have a degree.
        """
        fixed_ins = tuple(sorted(VarId(m, a) for m, a in fixed))
        base = _weight(self.ts, fixed_ins)
        by_weight = self.ts.degrees_by_weight(policy.max_degree)
        degree_key = policy.packing.degree_key
        invariant, new, insert = self.invariant, tuple.__new__, bisect.bisect
        # (key, numerator, denominator) of each coefficient value / prod e!
        found: list[tuple[int, int, int]] = []
        append = found.append
        for weight, entries in self._policy_index(policy, max(by_weight) - base):
            degrees = [(deg, degree_key(deg)) for deg in by_weight.get(base + weight, ())]
            if not degrees:
                continue
            for tkey, ins, fact in entries:
                # ins is canonical: each fixed slot goes in at its sorted place.
                full = ins
                for v in fixed_ins:
                    at = insert(full, v)
                    full = full[:at] + (v,) + full[at:]
                short = len(full) < 3
                for deg, dkey in degrees:
                    if short and not any(deg):
                        continue
                    value = invariant(new(CorrelatorKey, (full, deg)))
                    num = value.numerator
                    if num:
                        append((tkey + dkey, num, value.denominator * fact))
        return _gather(policy, found)

    def gradient_series(self, policy: TruncationPolicy) -> dict[VarId, TruncatedSeries]:
        """<<tau_v>> for every variable v of the policy, from one walk of its monomials.

        The variables are the slots of levels 0..max_level and classes
        1..classes, and each series equals ``correlation_series((v,),
        policy)``.  A key E = e + v holding several variables is looked up
        once, not once for each: it is read from the monomial e and the
        variable v at or after e's last slot, so ``ins + (v,)`` is canonical.
        Its value goes into <<tau_v>> at e and, for each other distinct slot u
        of e, into <<tau_u>> at e - u + v, whose packed key is ``tkey +
        unit(v) - unit(u)`` and whose factorial is e! (e_v + 1) / e_u.  So
        each pair (monomial, slot) is covered exactly once, from its key's
        largest slot.  A monomial e is read only if some e + v can have a
        degree: its weight is at most the heaviest degree's less the lightest v's.
        """
        ts, packing = self.ts, policy.packing
        w, degree_key = ts.class_weight, packing.degree_key
        varids = _variables(policy, ts)
        units = {v: packing.unit(v) for v in varids}
        by_weight = ts.degrees_by_weight(policy.max_degree)
        # (key, numerator, denominator) of each coefficient of each <<tau_v>>
        found: dict[VarId, list[tuple[int, int, int]]] = {v: [] for v in varids}
        invariant, new = self.invariant, tuple.__new__
        bound = max(by_weight) - min(v.level + w[v.cls] for v in varids)
        for weight, entries in self._policy_index(policy, bound):
            # (v, unit(v), found[v], [(deg, packed deg), ...]) of each v whose
            # e + v has a degree under the cap
            reads = []
            for v in varids:
                degrees = by_weight.get(weight + v.level + w[v.cls])
                if degrees:
                    reads.append((v, units[v], found[v],
                                  [(deg, degree_key(deg)) for deg in degrees]))
            if not reads:
                continue
            # The reads at or after each slot, for the monomials that end in it.
            after = {u: [r for r in reads if r[0] >= u] for u in varids}
            for tkey, ins, fact in entries:
                todo = after[ins[-1]] if ins else reads
                if not todo:
                    continue
                exps: dict[VarId, int] = {}
                for u in ins:
                    exps[u] = exps.get(u, 0) + 1
                # (u, unit(u), found[u], e_u) of each distinct slot u of e
                slots = [(u, units[u], found[u], e_u) for u, e_u in exps.items()]
                short = len(ins) < 2
                for v, unit_v, out, degrees in todo:
                    full = ins + (v,)
                    raised = fact * (exps.get(v, 0) + 1)
                    for deg, dkey in degrees:
                        if short and not any(deg):
                            continue
                        value = invariant(new(CorrelatorKey, (full, deg)))
                        num = value.numerator
                        if not num:
                            continue
                        den = value.denominator
                        key = tkey + dkey
                        out.append((key, num, den * fact))
                        key += unit_v
                        for u, unit_u, out_u, e_u in slots:
                            if u != v:
                                out_u.append((key - unit_u, num, den * (raised // e_u)))
        return {v: _gather(policy, terms) for v, terms in found.items()}

    def free_energy(self, policy: TruncationPolicy) -> TruncatedSeries:
        return self.correlation_series((), policy)

    def admissible_keys(self, policy: TruncationPolicy) -> list[CorrelatorKey]:
        """Every admissible key whose monomial the policy admits (cache warming).

        Streams the policy's monomials and keeps none of them; the walk skips
        monomials too heavy for any degree under the cap.
        """
        by_weight = self.ts.degrees_by_weight(policy.max_degree)
        keys, new = [], tuple.__new__
        for weight, _, ins, _ in _walk_t_monomials(policy, self.ts, max(by_weight)):
            for deg in by_weight.get(weight, ()):
                if not any(deg) and len(ins) < 3:
                    continue
                keys.append(new(CorrelatorKey, (ins, deg)))
        return keys


# (packed key of the t-monomial, its insertion tuple, prod of exponent factorials)
_PolicyEntry = tuple[int, Insertions, int]


def _gather(policy: TruncationPolicy, found: list[tuple[int, int, int]]) -> TruncatedSeries:
    """The series with coefficient num / d at each packed key of the (key, num, d) triples.

    The numerators are put over one denominator, the lcm of the d's.
    """
    den = math.lcm(*{d for _, _, d in found})
    series = TruncatedSeries(policy)
    series.terms = {key: num * (den // d) for key, num, d in found}
    series.den = den
    return series


def _variables(policy: TruncationPolicy, ts: TargetSpace) -> list[VarId]:
    """The policy's variables t^a_m, levels 0..max_level and classes 1..classes, in order."""
    return [VarId(m, a) for m in range(policy.max_level + 1) for a in range(1, ts.classes + 1)]


def _weight(ts: TargetSpace, ins: Iterable[VarId]) -> int:
    """Sum of (m + q_a - 1) over the insertions.

    A key is dimension-admissible exactly when its weight is its degree's
    ``degree_weight``, so the weight alone decides its degrees.
    """
    w = ts.class_weight
    return sum(m + w[a] for m, a in ins)


def _walk_t_monomials(policy: TruncationPolicy, ts: TargetSpace, max_weight: int | None = None
                      ) -> Iterator[tuple[int, int, Insertions, int]]:
    """(weight, packed t-key, insertion tuple, prod e!) of every t-monomial the policy admits.

    Depth-first: each monomial comes before its extensions by later variables,
    the constant monomial first; insertion tuples come out canonical.  One
    loop walks an explicit path with one frame per variable of the current
    monomial: its slot, its exponent and the fields with it, those before it
    being the frame below.  The loop extends the current monomial by the next
    slot that fits; with none left it raises the last variable's exponent, or
    else drops that variable and goes on from the slot after it.  Each field
    grows from its prefix's by one variable, and the walk keeps only the path
    (O(K) state), so it streams at any depth.  With ``max_weight``, a monomial
    heavier than that is skipped with all its extensions, as long as no later
    variable has negative weight (so no extension can come back under the
    bound).
    """
    unit, w = policy.packing.unit, ts.class_weight
    slots = [(v, v.level + w[v.cls], unit(v)) for v in _variables(policy, ts)]
    end = len(slots)
    # prune[i]: t_i and every later variable have non-negative weight.
    prune = [max_weight is not None and min(wv for _, wv, _ in slots[i:]) >= 0
             for i in range(end)]
    budget, weight, key, ins, fact = policy.max_insertions, 0, 0, (), 1
    # (slot, exponent, budget, weight, key, ins, fact); path[0] is the constant monomial.
    path = [(-1, 0, budget, weight, key, ins, fact)]
    push = path.append
    yield weight, key, ins, fact
    i = 0  # the next slot the current monomial may be extended by
    while True:
        if budget and i < end:
            v, wv, u = slots[i]
            if prune[i] and weight + wv > max_weight:
                i += 1
                continue
            budget -= 1
            weight += wv
            key += u
            ins += (v,)
            push((i, 1, budget, weight, key, ins, fact))
            yield weight, key, ins, fact
            i += 1
            continue
        # No extension left: raise the last variable's exponent, else drop it.
        last, e = path[-1][:2]
        if last < 0:
            return
        v, wv, u = slots[last]
        i = last + 1
        if budget and not (prune[last] and weight + wv > max_weight):
            e += 1
            budget -= 1
            weight += wv
            key += u
            ins += (v,)
            fact *= e
            path[-1] = (last, e, budget, weight, key, ins, fact)
            yield weight, key, ins, fact
        else:
            path.pop()
            _, _, budget, weight, key, ins, fact = path[-1]
