"""Truncated multivariate formal series over exact rationals.

Variables are descendent coordinates t^alpha_m, identified by ``VarId(level,
cls)`` with level m >= 0 and 1-based cohomology class index.  A monomial is a
sorted tuple of (VarId, exponent) pairs together with a Novikov degree vector;
a series is a finite map from monomials to nonzero rationals, truncated by a
``TruncationPolicy`` (total t-exponent bound K, level bound M, componentwise
degree cap D).  The ring is a plain finitely supported polynomial ring: any
product monomial falling outside the policy is discarded.

Inside a series each monomial is one packed integer (Kronecker substitution,
as in Monagan and Pearce's sparse polynomial arithmetic).  Each policy derives
its ``Packing`` once.  From the least significant bit up, a key holds a field
for the total t-exponent (values up to K), one field per Novikov component
(values up to D_i), each followed by a guard bit, and then one slot per
variable, ``VarId(m, a)`` in slot (a - 1)(M + 1) + m, wide enough for an
exponent of K.  The product of two monomials is the sum of their keys, and it
is admitted exactly when adding ``Packing.add`` sets no guard bit; a carry
between variable slots needs a total above K, which that test rejects.
Coefficients are integer numerators over one positive denominator per series
(``terms[key] / den``), the other half of the same sparse design: the inner
loops of ``add_scaled``, ``add_times_var`` and ``add_product`` are plain
integer multiply-adds.  Each first raises the receiver's ``den`` to a multiple
of the incoming denominator, rescaling the numerators only when it has to
grow.  ``den`` need not be in lowest terms, so ``==`` compares the key sets and
then each pair of numerators cross-multiplied by the other side's denominator;
it never normalises either side.

A product is graded by the *low field* of a key, its bits below
``Packing.var_shift``: the total exponent and the degree fields, each with its
guard bit.  The first time a series is an operand of ``add_product`` it groups
its terms by low field into grades, ``(low, keys, numerators)`` tuples whose
lists share the dict's ints, and keeps them until the series is next written
in place.  Every in-place write goes through ``_common``, which drops them, so
grades are never stale; the only other writes to ``terms`` fill a new series
before anyone reads it (the constructor, ``_like`` and ``engine._gather``).
``add_product`` then tests the guard once per pair of grades: each field holds
at most its bound, so the sum of two low fields fits in the fields and their
guard bits and never carries into the variable slots, and the guard test on
``la + lb`` is the test on ``ka + kb`` for every pair of keys in the two
grades.  The inner loop is only the key sum and the dict update.

``Monomial`` and ``Fraction`` stay the types at the API edge: the constructor
takes ``{Monomial: Fraction}``, and ``coefficient``, ``monomials`` and
``items_sorted`` decode keys and return coefficients in lowest terms, in
Monomial order.  Scalar factors may be ``Fraction``s or ints.

Every operator returns a new series and leaves its operands alone, so a series
can be cached and shared.  The exceptions are ``add_scaled``,
``add_times_var`` and ``add_product``, which update their receiver in place;
call them only on a series the caller has just created and not yet handed
out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple

from .errors import PolicyMismatch

_ZERO = Fraction(0)


class VarId(NamedTuple):
    level: int
    cls: int


class Monomial(NamedTuple):
    # exps: sorted ((VarId, positive exponent), ...); degree: Novikov exponents
    exps: tuple[tuple[VarId, int], ...]
    degree: tuple[int, ...]

    def total_exponent(self) -> int:
        return sum(e for _, e in self.exps)


def monomial(exps: Iterable[tuple[VarId, int]], degree: tuple[int, ...]) -> Monomial:
    """Canonical monomial: sorted variables, no zero exponents."""
    cleaned = tuple(sorted((VarId(*v), e) for v, e in exps if e != 0))
    return Monomial(cleaned, tuple(degree))


class Packing:
    """The packed-key layout of one policy (see the module docstring)."""

    __slots__ = ("total_mask", "deg_fields", "add", "guard",
                 "var_shift", "var_bits", "var_mask", "stride")

    def __init__(self, policy: "TruncationPolicy"):
        shift = add = guard = 0
        fields = []
        for bound in (policy.max_insertions, *policy.max_degree):
            width = bound.bit_length()
            fields.append((shift, (1 << width) - 1))
            add |= ((1 << width) - 1 - bound) << shift
            guard |= 1 << (shift + width)
            shift += width + 1
        self.total_mask = fields[0][1]
        self.deg_fields = tuple(fields[1:])
        self.add, self.guard = add, guard
        self.var_shift = shift
        self.var_bits = max(policy.max_insertions.bit_length(), 1)
        self.var_mask = (1 << self.var_bits) - 1
        self.stride = policy.max_level + 1

    def var_offset(self, v: VarId) -> int:
        """Bit offset of t_v's slot (v within the level bound, cls >= 1)."""
        return self.var_shift + ((v.cls - 1) * self.stride + v.level) * self.var_bits

    def unit(self, v: VarId) -> int:
        """Key of the monomial t_v."""
        return 1 + (1 << self.var_offset(v))

    def degree_key(self, degree: Iterable[int]) -> int:
        return sum(d << shift for d, (shift, _) in zip(degree, self.deg_fields))

    def exps_key(self, exps: Iterable[tuple[VarId, int]]) -> int:
        return sum(e * self.unit(v) for v, e in exps)

    def encode(self, mon: Monomial) -> int:
        """Key of a monomial the policy admits."""
        return self.exps_key(mon.exps) + self.degree_key(mon.degree)

    def decode(self, key: int) -> Monomial:
        degree = tuple((key >> shift) & mask for shift, mask in self.deg_fields)
        exps = []
        rest, slot = key >> self.var_shift, 0
        while rest:
            e = rest & self.var_mask
            if e:
                cls, level = divmod(slot, self.stride)
                exps.append((VarId(level, cls + 1), e))
            rest >>= self.var_bits
            slot += 1
        exps.sort()
        return Monomial(tuple(exps), degree)


@dataclass(frozen=True)
class TruncationPolicy:
    max_insertions: int
    max_level: int
    max_degree: tuple[int, ...]

    def __post_init__(self):
        if self.max_insertions < 0 or self.max_level < 0:
            raise ValueError("policy bounds must be >= 0")
        if any(d < 0 for d in self.max_degree):
            raise ValueError("degree caps must be >= 0")
        object.__setattr__(self, "max_degree", tuple(self.max_degree))

    def admits(self, mon: Monomial) -> bool:
        if len(mon.degree) != len(self.max_degree):
            return False
        if any(not 0 <= a <= b for a, b in zip(mon.degree, self.max_degree)):
            return False
        total = 0
        for v, e in mon.exps:
            if v.level > self.max_level or v.cls < 1:
                return False
            total += e
        return total <= self.max_insertions

    @cached_property
    def packing(self) -> Packing:
        """Derived once per policy object; not a field, so ==, hash and repr ignore it."""
        return Packing(self)


class TruncatedSeries:
    """Finitely supported series under a fixed truncation policy.

    ``terms`` maps packed monomial keys (see ``Packing``) to nonzero integer
    numerators over the one positive denominator ``den``: the coefficient of
    key ``k`` is ``terms[k] / den``.  Every stored key is admitted by the
    policy; ``den`` need not be in lowest terms.  ``_grades`` is None or the
    terms grouped by low field (see ``_grouped``).
    """

    __slots__ = ("terms", "den", "policy", "_grades")

    def __init__(self, policy: TruncationPolicy, terms: dict[Monomial, Fraction] | None = None):
        self.policy = policy
        self.terms: dict[int, int] = {}
        self.den = 1
        self._grades: list[tuple[int, list[int], list[int]]] | None = None
        if terms:
            encode = policy.packing.encode
            kept = [(encode(mon), Fraction(coeff)) for mon, coeff in terms.items()
                    if coeff != 0 and policy.admits(mon)]
            den = self.den = lcm(*(c.denominator for _, c in kept))
            self.terms = {key: c.numerator * (den // c.denominator) for key, c in kept}

    @classmethod
    def constant(cls, policy: TruncationPolicy, value: Fraction | int) -> "TruncatedSeries":
        mon = Monomial((), (0,) * len(policy.max_degree))
        return cls(policy, {mon: value})

    @classmethod
    def variable(cls, policy: TruncationPolicy, v: VarId) -> "TruncatedSeries":
        mon = monomial([(v, 1)], (0,) * len(policy.max_degree))
        return cls(policy, {mon: 1})

    def _check(self, other: "TruncatedSeries") -> None:
        if self.policy is not other.policy and self.policy != other.policy:
            raise PolicyMismatch("series policies differ")

    def _like(self, terms: dict[int, int], den: int) -> "TruncatedSeries":
        res = TruncatedSeries(self.policy)
        res.terms, res.den = terms, den
        return res

    def _common(self, den: int) -> int:
        """Make ``self.den`` a multiple of ``den``; return ``self.den // den``.

        The numerators are rescaled only when the denominator has to grow.
        Every in-place write starts here, so this is where the grades go stale.
        """
        self._grades = None
        if not self.terms:
            self.den = den
            return 1
        mine = self.den
        if mine % den:
            grow = den // gcd(mine, den)
            terms = self.terms
            for key, num in terms.items():
                terms[key] = num * grow
            mine = self.den = mine * grow
        return mine // den

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mon: Monomial) -> Fraction:
        """The coefficient of ``mon``, in lowest terms."""
        if not self.policy.admits(mon):
            return _ZERO
        num = self.terms.get(self.policy.packing.encode(mon))
        return _ZERO if num is None else Fraction(num, self.den)

    def monomials(self) -> Iterator[tuple[Monomial, Fraction]]:
        """(monomial, coefficient in lowest terms) for every term, in no particular order."""
        decode, den = self.policy.packing.decode, self.den
        return ((decode(key), Fraction(num, den)) for key, num in self.terms.items())

    def items_sorted(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.monomials())

    def __eq__(self, other) -> bool:
        """Same policy and the same coefficients; neither side is normalised."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.policy != other.policy or self.terms.keys() != other.terms.keys():
            return False
        mine, theirs = self.den, other.den
        if mine == theirs:
            return self.terms == other.terms
        other_terms = other.terms
        return all(num * theirs == other_terms[key] * mine
                   for key, num in self.terms.items())

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._like(dict(self.terms), self.den).add_scaled(other)

    def add_scaled(self, other: "TruncatedSeries",
                   factor: Fraction | int = 1) -> "TruncatedSeries":
        """In place: self += factor * other.  Returns self."""
        self._check(other)
        if not factor or not other.terms:
            return self
        if other is self:  # the rescale in _common would change other too
            other = self._like(dict(self.terms), self.den)
        mult = self._common(other.den * factor.denominator) * factor.numerator
        terms = self.terms
        get = terms.get
        for key, num in other.terms.items():
            num *= mult
            old = get(key)
            if old is None:
                terms[key] = num
            else:
                num += old
                if num:
                    terms[key] = num
                else:
                    del terms[key]
        return self

    def _grouped(self) -> list[tuple[int, list[int], list[int]]]:
        """The terms grouped by low field, as (low, keys, numerators).

        ``low`` is the key's bits below ``Packing.var_shift``: the total
        exponent and the degree fields.  The lists share the dict's ints.
        Built on first use and kept until the next in-place write.
        """
        grades = self._grades
        if grades is None:
            low_mask = (1 << self.policy.packing.var_shift) - 1
            groups: dict[int, tuple[list[int], list[int]]] = {}
            for key, num in self.terms.items():
                low = key & low_mask
                group = groups.get(low)
                if group is None:
                    groups[low] = ([key], [num])
                else:
                    group[0].append(key)
                    group[1].append(num)
            grades = self._grades = [(low, keys, nums)
                                     for low, (keys, nums) in groups.items()]
        return grades

    def add_product(self, a: "TruncatedSeries", b: "TruncatedSeries",
                    factor: Fraction | int = 1) -> "TruncatedSeries":
        """In place: self += factor * a * b, dropping what the policy does not admit.

        Returns self.  ``a`` and ``b`` are read only, apart from the grades
        each builds and keeps on first use (see ``_grouped``).  The kernel
        walks pairs of grades and skips a pair when ``la + lb`` fails the
        guard test, which is exact (see the module docstring); for a pair it
        keeps, every key sum ``ka + kb`` is admitted, so the inner loop tests
        nothing.
        """
        self._check(a)
        self._check(b)
        if not factor or not a.terms or not b.terms:
            return self
        if a is self or b is self:  # read a copy, not the terms being written
            alias = self._like(dict(self.terms), self.den)
            a = alias if a is self else a
            b = alias if b is self else b
        mult = self._common(a.den * b.den * factor.denominator) * factor.numerator
        packing = self.policy.packing
        add, guard = packing.add, packing.guard
        b_grades = b._grouped()
        terms = self.terms
        get = terms.get
        for la, keys_a, nums_a in a._grouped():
            scaled = None
            for lb, keys_b, nums_b in b_grades:
                if (la + lb + add) & guard:
                    continue
                if scaled is None:
                    scaled = nums_a if mult == 1 else [na * mult for na in nums_a]
                pairs_b = list(zip(keys_b, nums_b))
                for ka, na in zip(keys_a, scaled):
                    for kb, nb in pairs_b:
                        key = ka + kb
                        old = get(key)
                        if old is None:
                            terms[key] = na * nb
                        else:
                            acc = old + na * nb
                            if acc:
                                terms[key] = acc
                            else:
                                del terms[key]
        return self

    def add_times_var(self, other: "TruncatedSeries", v: VarId,
                      factor: Fraction | int = 1) -> "TruncatedSeries":
        """In place: self += factor * t_v * other, dropping what the policy does not admit.

        Returns self.  Each key of ``other`` is lifted by the key of t_v; a
        lifted key is admitted exactly when adding ``Packing.add`` to it sets
        no guard bit, as for a product.
        """
        self._check(other)
        if not factor or not other.terms or v.level > self.policy.max_level:
            return self
        if other is self:  # the rescale in _common would change other too
            other = self._like(dict(self.terms), self.den)
        mult = self._common(other.den * factor.denominator) * factor.numerator
        packing = self.policy.packing
        unit, guard = packing.unit(v), packing.guard
        lift = unit + packing.add
        terms = self.terms
        get = terms.get
        for key, num in other.terms.items():
            if (key + lift) & guard:
                continue
            key += unit
            num *= mult
            old = get(key)
            if old is None:
                terms[key] = num
            else:
                num += old
                if num:
                    terms[key] = num
                else:
                    del terms[key]
        return self

    def __neg__(self) -> "TruncatedSeries":
        return self._like({k: -n for k, n in self.terms.items()}, self.den)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, factor: Fraction | int) -> "TruncatedSeries":
        factor = Fraction(factor)
        num = factor.numerator
        if not num:
            return TruncatedSeries(self.policy)
        return self._like({k: n * num for k, n in self.terms.items()},
                          self.den * factor.denominator)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return series_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def times_var(self, v: VarId) -> "TruncatedSeries":
        """Multiply by the variable t_v; overflowing monomials are discarded."""
        return TruncatedSeries(self.policy).add_times_var(self, v)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Convolution product; monomials exceeding the shared policy are dropped."""
    a._check(b)
    return TruncatedSeries(a.policy).add_product(a, b)


def series_derive(s: TruncatedSeries, v: VarId) -> TruncatedSeries:
    """Formal partial derivative with respect to t_v."""
    v = VarId(*v)
    if v.level > s.policy.max_level or v.cls < 1:
        return TruncatedSeries(s.policy)  # t_v occurs in no admitted monomial
    packing = s.policy.packing
    shift, mask, unit = packing.var_offset(v), packing.var_mask, packing.unit(v)
    out: dict[int, int] = {}
    for key, num in s.terms.items():
        e = (key >> shift) & mask
        if e:
            out[key - unit] = num * e
    return s._like(out, s.den)
