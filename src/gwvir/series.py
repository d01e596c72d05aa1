"""Truncated multivariate formal series over exact rationals.

Variables are descendent coordinates t^alpha_m, identified by ``VarId(level,
cls)`` with level m >= 0 and 1-based cohomology class index.  A monomial is a
sorted tuple of (VarId, exponent) pairs together with a Novikov degree vector;
a series is a finite map from monomials to nonzero Fractions, truncated by a
``TruncationPolicy`` (total t-exponent bound K, level bound M, componentwise
degree cap D).  The ring is a plain finitely supported polynomial ring: any
product monomial falling outside the policy is discarded.

Every operator returns a new series and leaves its operands alone, so a series
can be cached and shared.  The one exception is ``add_scaled``, which updates
its receiver in place; call it only on a series the caller has just created
and not yet handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

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

    def max_level(self) -> int:
        return max((v.level for v, _ in self.exps), default=0)


def monomial(exps: Iterable[tuple[VarId, int]], degree: tuple[int, ...]) -> Monomial:
    """Canonical monomial: sorted variables, no zero exponents."""
    cleaned = tuple(sorted((VarId(*v), e) for v, e in exps if e != 0))
    return Monomial(cleaned, tuple(degree))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[VarId, int] = dict(a.exps)
    for v, e in b.exps:
        exps[v] = exps.get(v, 0) + e
    degree = tuple(x + y for x, y in zip(a.degree, b.degree))
    return Monomial(tuple(sorted(exps.items())), degree)


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
        if any(a > b for a, b in zip(mon.degree, self.max_degree)):
            return False
        total = 0
        for v, e in mon.exps:
            if v.level > self.max_level:
                return False
            total += e
        return total <= self.max_insertions


class TruncatedSeries:
    """Finitely supported series under a fixed truncation policy."""

    __slots__ = ("terms", "policy")

    def __init__(self, policy: TruncationPolicy, terms: dict[Monomial, Fraction] | None = None):
        self.policy = policy
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mon, coeff in terms.items():
                if coeff != 0 and policy.admits(mon):
                    self.terms[mon] = coeff

    @classmethod
    def zero(cls, policy: TruncationPolicy) -> "TruncatedSeries":
        return cls(policy)

    @classmethod
    def constant(cls, policy: TruncationPolicy, value: Fraction | int) -> "TruncatedSeries":
        value = Fraction(value)
        mon = Monomial((), (0,) * len(policy.max_degree))
        return cls(policy, {mon: value})

    @classmethod
    def variable(cls, policy: TruncationPolicy, v: VarId) -> "TruncatedSeries":
        mon = monomial([(v, 1)], (0,) * len(policy.max_degree))
        return cls(policy, {mon: Fraction(1)})

    def _check(self, other: "TruncatedSeries") -> None:
        if self.policy != other.policy:
            raise PolicyMismatch("series policies differ")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mon: Monomial) -> Fraction:
        return self.terms.get(mon, _ZERO)

    def items_sorted(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.policy == other.policy and self.terms == other.terms

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        out = dict(self.terms)
        for mon, coeff in other.terms.items():
            acc = out.get(mon, _ZERO) + coeff
            if acc:
                out[mon] = acc
            else:
                out.pop(mon, None)
        res = TruncatedSeries(self.policy)
        res.terms = out
        return res

    def add_scaled(self, other: "TruncatedSeries", factor: Fraction | int) -> "TruncatedSeries":
        """In place: self += factor * other.  Returns self."""
        self._check(other)
        if factor:
            terms = self.terms
            unit = factor == 1
            for mon, coeff in other.terms.items():
                acc = terms.get(mon, _ZERO) + (coeff if unit else factor * coeff)
                if acc:
                    terms[mon] = acc
                else:
                    terms.pop(mon, None)
        return self

    def __neg__(self) -> "TruncatedSeries":
        res = TruncatedSeries(self.policy)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, factor: Fraction | int) -> "TruncatedSeries":
        factor = Fraction(factor)
        res = TruncatedSeries(self.policy)
        if factor:
            res.terms = {m: c * factor for m, c in self.terms.items()}
        return res

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return series_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def times_var(self, v: VarId) -> "TruncatedSeries":
        """Multiply by the variable t_v; overflowing monomials are discarded.

        Every term is admitted by the policy, so a lifted term is admitted
        exactly when t_v is within the level bound and the term has room for
        one more exponent; only those are built.
        """
        policy = self.policy
        res = TruncatedSeries(policy)
        if v.level > policy.max_level:
            return res
        shift = monomial([(v, 1)], (0,) * len(policy.max_degree))
        room = policy.max_insertions - 1
        res.terms = {monomial_mul(mon, shift): coeff for mon, coeff in self.terms.items()
                     if mon.total_exponent() <= room}
        return res


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Convolution product; monomials exceeding the shared policy are dropped."""
    a._check(b)
    policy = a.policy
    if not a.terms or not b.terms:
        return TruncatedSeries.zero(policy)
    # Bucket one factor by total exponent so oversize pairs are skipped early.
    buckets: dict[int, list[tuple[Monomial, Fraction]]] = {}
    for mon, coeff in b.terms.items():
        buckets.setdefault(mon.total_exponent(), []).append((mon, coeff))
    kmax = policy.max_insertions
    dmax = policy.max_degree
    out: dict[Monomial, Fraction] = {}
    for ma, ca in a.terms.items():
        room = kmax - ma.total_exponent()
        dega = ma.degree
        for tb, bucket in buckets.items():
            if tb > room:
                continue
            for mb, cb in bucket:
                degree = tuple(x + y for x, y in zip(dega, mb.degree))
                if any(x > y for x, y in zip(degree, dmax)):
                    continue
                mon = monomial_mul(ma, mb)
                acc = out.get(mon, _ZERO) + ca * cb
                if acc:
                    out[mon] = acc
                else:
                    out.pop(mon, None)
    res = TruncatedSeries(policy)
    res.terms = out
    return res


def series_derive(s: TruncatedSeries, v: VarId) -> TruncatedSeries:
    """Formal partial derivative with respect to t_v."""
    v = VarId(*v)
    out: dict[Monomial, Fraction] = {}
    for mon, coeff in s.terms.items():
        for i, (var, e) in enumerate(mon.exps):
            if var == v:
                exps = mon.exps[:i] + ((var, e - 1),) if e > 1 else mon.exps[:i]
                exps += mon.exps[i + 1:]
                lowered = Monomial(exps, mon.degree)
                acc = out.get(lowered, _ZERO) + coeff * e
                if acc:
                    out[lowered] = acc
                else:
                    out.pop(lowered, None)
                break
    res = TruncatedSeries(s.policy)
    res.terms = out
    return res
