"""Virasoro operators L_n at genus 0: construction, residuals, commutators.

An operator is stored in the shifted coordinates convention: linear terms
``coeff * ttilde_src * d/dt_dst`` (ttilde = t - delta_{(1,1)}), quadratic
terms carrying the lambda^2 grading, a classical level-0 quadratic form at
lambda^{-2}, and a constant.  The genus-0 residual of L_n against F_0 is

    Psi_{0,n} = sum linear coeff * ttilde_src * <<tau_dst>>
              + 1/2 sum quadratic coeff * <<tau_u>> <<tau_v>>
              + 1/2 sum Q_{ab} t^a_0 t^b_0,

assembled from exact correlation series (the operator constant only enters at
genus 1 and is ignored here).

The A/B coefficient functions are evaluated division-free as sums over
complements of index subsets, which stays finite at the integer b values where
the literal Gamma-ratio form has poles.

Every L_n is a quadratic element of the Weyl algebra in (ttilde, d), so a
commutator is computed in closed form (``bracket``) and compared with the
right side on the window of d levels the truncated operators certify.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Callable
from fractions import Fraction

from .engine import Engine
from .errors import IndexOutOfRange, PolicyTooTight, UnknownIdentity, UnsupportedIndex
from .rationals import exact_value
from .series import (Monomial, TruncatedSeries, TruncationPolicy, VarId,
                     series_derive, series_mul)
from .target import Matrix, TargetSpace, row

_ZERO = Fraction(0)
_ONE = Fraction(1)
DILATON_VAR = VarId(1, 1)

LinearTerm = tuple[VarId, VarId, Fraction]      # (src, dst, coeff): coeff ttilde_src d_dst
QuadraticTerm = tuple[VarId, VarId, Fraction]   # (u, v, coeff), u <= v


@dataclass(frozen=True)
class VirasoroOperator:
    linear: tuple[LinearTerm, ...]
    quadratic: tuple[QuadraticTerm, ...]
    classical: Matrix
    constant: Fraction

    def is_empty(self) -> bool:
        return (not self.linear and not self.quadratic and self.constant == 0
                and all(all(x == 0 for x in row) for row in self.classical))

    def scaled(self, factor: Fraction) -> "VirasoroOperator":
        return VirasoroOperator(
            tuple((s, d, factor * c) for s, d, c in self.linear),
            tuple((u, v, factor * c) for u, v, c in self.quadratic),
            tuple(tuple(factor * x for x in row) for row in self.classical),
            factor * self.constant,
        )

    def __neg__(self) -> "VirasoroOperator":
        return self.scaled(-_ONE)

    def __sub__(self, other: "VirasoroOperator") -> "VirasoroOperator":
        """The difference; linear and quadratic terms that cancel are dropped."""
        return VirasoroOperator(
            combine_fields((self.linear, _ONE), (other.linear, -_ONE)),
            combine_fields((self.quadratic, _ONE), (other.quadratic, -_ONE)),
            tuple(tuple(x - y for x, y in zip(r, s))
                  for r, s in zip(self.classical, other.classical)),
            self.constant - other.constant,
        )

    def window(self, top: int) -> "VirasoroOperator":
        """The terms with every d level at most ``top``, the classical form and the constant."""
        return VirasoroOperator(
            tuple((s, d, c) for s, d, c in self.linear if d.level <= top),
            tuple((u, v, c) for u, v, c in self.quadratic if u.level <= top and v.level <= top),
            self.classical,
            self.constant,
        )


@functools.lru_cache(maxsize=256)
def _complement_sums(b: Fraction, levels: range) -> tuple[Fraction, ...]:
    """Sum over size-j subsets S of ``levels`` of prod_{l not in S} (b + l), for every j.

    That is the z^j coefficient of prod_l (z + b + l), at index j.  With b =
    p/q the product is expanded once, in integers, as prod_l (z + p + l q),
    whose z^j coefficient is q^(len(levels) - j) times the sum.  Memoised,
    so that ``coeff_A`` reads one expansion for every j: an operator asks
    for each (b, levels) at every j in turn.
    """
    p, q = b.numerator, b.denominator
    coeffs = [1]  # of z^0, z^1, ...
    for l in levels:
        coeffs = _times_linear(coeffs, p + l * q)
    return _over_powers(coeffs, q)


@functools.lru_cache(maxsize=64)
def _shifted_complement_sums(b: Fraction, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """``_complement_sums(b, range(-k - 1, n - k))`` for k = 0..n-1, at index k.

    These are coeff_B's sums.  From k - 1 to k the level n - k leaves the
    range and -k - 1 joins it, so each k's integer expansion is the previous
    one divided exactly by z + p + (n - k) q and multiplied by
    z + p - (k + 1) q: O(n) work per k rather than a fresh O(n^2) product.
    Memoised per (b, n), so that ``coeff_B`` reads one table for every j, k.
    """
    p, q = b.numerator, b.denominator
    coeffs = [1]
    for l in range(-1, n):
        coeffs = _times_linear(coeffs, p + l * q)
    sums = [_over_powers(coeffs, q)]
    for k in range(1, n):
        coeffs = _times_linear(_over_linear(coeffs, p + (n - k) * q), p - (k + 1) * q)
        sums.append(_over_powers(coeffs, q))
    return tuple(sums)


def _times_linear(coeffs: list[int], c: int) -> list[int]:
    """The z^0, z^1, ... coefficients of (z + c) times the polynomial ``coeffs``."""
    return [c * x + y for x, y in zip(coeffs + [0], [0] + coeffs)]


def _over_linear(coeffs: list[int], c: int) -> list[int]:
    """The polynomial ``coeffs`` divided by z + c, which must divide it exactly."""
    quotient = [0] * (len(coeffs) - 1)
    carry = 0
    for j in range(len(coeffs) - 1, 0, -1):
        carry = quotient[j - 1] = coeffs[j] - c * carry
    return quotient


def _over_powers(coeffs: list[int], q: int) -> tuple[Fraction, ...]:
    """coeffs[j] / q^(degree - j) for each j: the sums of b = p/q from their integer form."""
    size = len(coeffs) - 1
    return tuple(Fraction(x, q ** (size - j)) for j, x in enumerate(coeffs))


def coeff_A(b: Fraction, j: int, m: int, n: int) -> Fraction:
    """Sum over size-j subsets S of {m, ..., m+n} of prod_{l not in S} (b + l)."""
    if n < -1 or m < 0 or j < 0 or j > n + 1:
        raise IndexOutOfRange(f"coeff_A index out of range: j={j}, m={m}, n={n}")
    return _complement_sums(b, range(m, m + n + 1))[j]


def coeff_B(b: Fraction, j: int, k: int, n: int) -> Fraction:
    """(-1)^{k+1} times the complement-product sum over {-k-1, ..., n-k-1}."""
    if j < 0 or j > n - 1 or k < 0 or k > n - j - 1:
        raise IndexOutOfRange(f"coeff_B index out of range: j={j}, k={k}, n={n}")
    total = _shifted_complement_sums(b, n)[k][j]
    return total if (k + 1) % 2 == 0 else -total


def linear_field(ts: TargetSpace, coeffs: tuple[Callable[[Fraction], Fraction], ...],
                 top: int, max_level: int) -> tuple[LinearTerm, ...]:
    """sum_{m,a,j} coeffs[j](m + b_a) (C^j)_a^beta ttilde^a_m d/dt^beta_{m+top-j}.

    Every linear vector field of the operator calculus has this shape.  Source
    levels run over 0..max(max_level, 1): ttilde^1_1 = t^1_1 - 1 carries the
    dilaton shift even when t_1 is truncated away.  Zero coefficients and
    negative destination levels are dropped; the result is sorted.  A
    coefficient is an int when integral, else a Fraction (``rationals.exact``).
    """
    N = ts.classes
    terms: list[LinearTerm] = []
    for m in range(max(max_level, 1) + 1):
        for a in range(1, N + 1):
            x = m + ts.b[a - 1]
            for j, poly in enumerate(coeffs):
                level = m + top - j
                coeff = poly(x) if level >= 0 else 0
                if not coeff:
                    continue
                row = ts.chern_power(j)[a - 1]
                terms.extend((VarId(m, a), VarId(level, be), exact_value(coeff * row[be - 1]))
                             for be in range(1, N + 1) if row[be - 1])
    return tuple(sorted(terms))


# The hand-expanded A-coefficients of L_1 and L_2 as polynomials in x = m + b,
# equal to coeff_A(b, j, m, n) for j = 0..n+1.
CLOSED_A = {
    1: (lambda x: x * (x + 1), lambda x: 2 * x + 1, lambda x: _ONE),
    2: (lambda x: x * (x + 1) * (x + 2), lambda x: 3 * x * x + 6 * x + 2,
        lambda x: 3 * (x + 1), lambda x: _ONE),
}

# Named linear fields besides X (``euler_field``: its coefficients need the
# target's dimension) and the L<n>: name -> (coeffs, top) as ``linear_field``
# reads them.  Psi1 and Psi2, the linear parts of the closed forms, come from
# CLOSED_A and never from ``build_operator``, so that ``psi_closed`` stays
# independent of the generic L_n.
NAMED_FIELDS = {
    "S": ((lambda x: -_ONE,), -1),  # S = -sum ttilde^a_m d/dt^a_{m-1}
    "D": ((lambda x: -_ONE,), 0),   # D = -sum ttilde^a_m d/dt^a_m
    "Ltilde1": ((lambda x: _ONE,), 1),
    "Psi1": (CLOSED_A[1], 1),
    "Psi2": (CLOSED_A[2], 2),
    "PsiTilde1": ((lambda x: -_ONE,), 1),
    "PsiTilde2": ((lambda x: x + 1, lambda x: _ONE), 2),
    "XXTilde": (CLOSED_A[1], 0),    # the ttilde sums of the Lemma 4.1 right side
    "L1L0Tilde": (CLOSED_A[2], 1),  # and of the Lemma 5.2 right side
}


def euler_field(ts: TargetSpace, max_level: int) -> tuple[LinearTerm, ...]:
    """X = -sum (m + b_a - (3-d)/2) ttilde^a_m d_m - sum C_a^b ttilde^a_m d_{m-1}."""
    shift = Fraction(3 - ts.complex_dim, 2)
    return linear_field(ts, (lambda x: shift - x, lambda x: -_ONE), 0, max_level)


def combine_fields(*pieces: tuple[tuple[LinearTerm, ...], Fraction]) -> tuple[LinearTerm, ...]:
    acc: dict[tuple[VarId, VarId], Fraction] = {}
    for terms, scale in pieces:
        for src, dst, coeff in terms:
            key = (src, dst)
            acc[key] = acc.get(key, _ZERO) + scale * coeff
    return tuple((s, d, c) for (s, d), c in sorted(acc.items()) if c)


def build_operator(ts: TargetSpace, n: int, max_level: int) -> VirasoroOperator:
    """Assemble L_n exactly, for every n >= -1 by the one A/B formula.

    The linear part comes from ``linear_field``; the quadratic part is empty
    below n = 1; only L_0 has a constant, the right side of the central
    condition.
    """
    if n < -1:
        raise UnsupportedIndex("operators below L_{-1} are out of scope")
    # coeff_A(b, j, m, n) == coeff_A(m + b, j, 0, n): shift l -> l - m.
    linear = linear_field(
        ts, tuple(lambda x, j=j: coeff_A(x, j, 0, n) for j in range(n + 2)), n, max_level)
    # coeff_B's one table per (b, n) serves every j and k.
    quadratic: list[QuadraticTerm] = []
    for a, b in enumerate(ts.b, 1):
        for k in range(n):
            for j in range(n - k):
                coeff = coeff_B(b, j, k, n)
                for be, cjab in row(ts.chern_power(j), a):
                    for g, eta_inv in ts.raised(a):
                        u, v = sorted((VarId(k, g), VarId(n - k - 1 - j, be)))
                        quadratic.append((u, v, coeff * cjab * eta_inv))
    return VirasoroOperator(
        linear,
        combine_fields((quadratic, _ONE)),
        ts.chern_power_eta(n + 1),
        ts.central_condition()[1] if n == 0 else _ZERO,
    )


def _classical_series(matrix: Matrix, policy: TruncationPolicy) -> TruncatedSeries:
    """1/2 sum Q_{ab} t^a_0 t^b_0 as a series."""
    zero_deg = (0,) * len(policy.max_degree)
    terms: dict[Monomial, Fraction] = {}
    n = len(matrix)
    half = Fraction(1, 2)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            q = matrix[a - 1][b - 1]
            if not q:
                continue
            if a == b:
                mon = Monomial(((VarId(0, a), 2),), zero_deg)
            else:
                u, v = sorted((VarId(0, a), VarId(0, b)))
                mon = Monomial(((u, 1), (v, 1)), zero_deg)
            terms[mon] = terms.get(mon, _ZERO) + half * q
    return TruncatedSeries(policy, terms)


def add_ttilde(acc: TruncatedSeries, src: VarId, series: TruncatedSeries,
               coeff: Fraction) -> TruncatedSeries:
    """In place: acc += coeff * ttilde_src * series, with ttilde = t - delta_{(1,1)}.

    This is the dilaton shift of the operator convention: coeff * t_src * series,
    plus -coeff * series when src is the dilaton variable t^1_1.  ``acc`` must
    be a series the caller has just created; it is returned.
    """
    acc.add_times_var(series, src, coeff)
    if src == DILATON_VAR:
        acc.add_scaled(series, -coeff)
    return acc


def apply_operator(op: VirasoroOperator, f0: TruncatedSeries,
                   policy: TruncationPolicy) -> TruncatedSeries:
    """Genus-0 residual of ``op`` against a free-energy series.

    ``f0`` must carry at least one extra insertion of margin and enough level
    headroom that no derivative coefficient inside ``policy`` is lost.
    """
    if f0.policy.max_insertions < policy.max_insertions + 1:
        raise PolicyTooTight("free energy needs insertion margin >= 1")
    needed_level = max([policy.max_level] + [dst.level for _, dst, _ in op.linear]
                       + [v.level for _, v, _ in op.quadratic])
    if f0.policy.max_level < needed_level:
        raise PolicyTooTight(f"free energy needs levels up to {needed_level}")
    if len(f0.policy.max_degree) != len(policy.max_degree) or any(
            a < b for a, b in zip(f0.policy.max_degree, policy.max_degree)):
        raise PolicyTooTight("free energy needs the full degree window")

    derivs: dict[VarId, TruncatedSeries] = {}

    def deriv(v: VarId) -> TruncatedSeries:
        """d f0 / dt_v restricted to ``policy``."""
        if v not in derivs:
            derivs[v] = TruncatedSeries(policy, dict(series_derive(f0, v).monomials()))
        return derivs[v]

    return _residual(op, deriv, policy)


def _residual(op: VirasoroOperator, first: Callable[[VarId], TruncatedSeries],
              policy: TruncationPolicy) -> TruncatedSeries:
    """Psi of ``op`` (see the module docstring), where ``first(v)`` is <<tau_v>>."""
    result = _classical_series(op.classical, policy)
    for src, dst, coeff in op.linear:
        add_ttilde(result, src, first(dst), coeff)
    half = Fraction(1, 2)
    for u, v, coeff in op.quadratic:
        result.add_scaled(series_mul(first(u), first(v)), half * coeff)
    return result


def _insert(slots: tuple, v) -> tuple:
    """``slots`` with ``v`` inserted, at its sorted place if ``slots`` is sorted.

    A spec built from unsorted slots is still right: ``CorrContext.factor``
    sorts it.
    """
    i = bisect.bisect(slots, v)
    return (*slots[:i], v, *slots[i:])


# Where the (level, class) slots begin in a spec of each kind that takes
# them; ``factor`` sorts them there.
SLOTS_AT = {"corr": 1, "corr_raised": 2, "field_series": 2, "field_raised": 3,
            "field2_series": 3}


class CorrContext:
    """Memoised correlation series and contractions, and the term evaluator.

    ``evaluate`` sums terms ``(coeff, factor[, factor])``.  A factor
    ``(method, *args)`` is what that method returns: ``("corr", *slots)``,
    ``("corr_raised", sigma, *slots)``, ``("field_series", W, *slots)``,
    ``("field_raised", W, sigma, *slots)``, ``("field2_series", W1, W2,
    *slots)``, ``("pair", left, right[, weights[, level]])``, ``("sum",
    *terms)``, ``("classical", j)``, ``("psi_generic", n)``,
    ``("psi_closed", n)``, ``("one",)``, ``("t", m, a)`` or ``("ttilde", m,
    a)``.  A vector field W is named, as ``field`` reads it.  Subclasses add
    kinds by adding methods.

    ``factor`` is the one memo: each spec is built once and then shared, so
    callers must not mutate a series this context hands out.  The product
    kinds in ``PRODUCTS`` live in ``products``, which ``verify_identity``
    empties when a tag ends: a memo kept for the whole context raised the
    peak RSS of the full P2 registry at K=4 M=3 D=2 from about 40 MB to 56
    MB for no measured gain in time.  Every other kind lives in ``series``
    for the life of the context.  ``factor`` is also the one place that
    sorts slots: a spec whose slots (from ``SLOTS_AT``) are out of order is
    the series of the sorted spec, memoised under both, so slot order cannot
    split the memo.  The methods only build, and a direct call builds anew;
    they reach their sub-series through ``factor``.
    """

    PRODUCTS = frozenset({"pair", "sum"})

    def __init__(self, engine: Engine, policy: TruncationPolicy):
        self.engine = engine
        self.policy = policy
        self.series: dict[tuple, TruncatedSeries] = {}
        self.products: dict[tuple, TruncatedSeries] = {}
        self._fields: dict[str | tuple, tuple[LinearTerm, ...]] = {}

    @property
    def ts(self) -> TargetSpace:
        return self.engine.ts

    def field(self, name) -> tuple[LinearTerm, ...]:
        """The terms of the vector field ``name`` names, memoised.

        ``name`` is ``"X"``, ``"L<n>"`` (the linear part of L_n), a key of
        ``NAMED_FIELDS`` (``"S"``, ``"D"``, ...), or a pair ``(name, k)``:
        that field minus k times the dilaton field D.
        """
        terms = self._fields.get(name)
        if terms is None:
            ts, M = self.ts, self.policy.max_level
            if isinstance(name, tuple):
                base, k = name
                terms = combine_fields((self.field(base), _ONE), (self.field("D"), -k))
            elif name in NAMED_FIELDS:
                terms = linear_field(ts, *NAMED_FIELDS[name], M)
            elif name == "X":
                terms = euler_field(ts, M)
            elif name[:1] == "L" and name[1:].removeprefix("-").isdigit():
                terms = build_operator(ts, int(name[1:]), M).linear
            else:
                raise UnknownIdentity(f"unknown vector field {name!r}")
            self._fields[name] = terms
        return terms

    def evaluate(self, terms) -> TruncatedSeries:
        """sum coeff * (product of the factors) over ``terms``, skipping zero coeffs.

        One factor with coefficient 1 is returned itself, not copied.
        """
        factor = self.factor
        terms = [term for term in terms if term[0]]
        if len(terms) == 1 and len(terms[0]) == 2 and terms[0][0] == 1:
            return factor(terms[0][1])
        out = TruncatedSeries(self.policy)
        for term in terms:
            coeff = term[0]
            if len(term) == 2:
                out.add_scaled(factor(term[1]), coeff)
            else:
                out.add_product(factor(term[1]), factor(term[2]), coeff)
        return out

    def factor(self, spec: tuple) -> TruncatedSeries:
        """The series a factor spec names (see the class docstring), memoised."""
        memo = self.products if spec[0] in self.PRODUCTS else self.series
        out = memo.get(spec)
        if out is None:
            at = SLOTS_AT.get(spec[0], len(spec))
            canon = (*spec[:at], *sorted(spec[at:]))
            out = memo[spec] = (self.factor(canon) if canon != spec
                                else getattr(self, spec[0])(*spec[1:]))
        return out

    def sum(self, *terms) -> TruncatedSeries:
        """The sum of ``terms``, as ``evaluate`` reads them."""
        return self.evaluate(terms)

    def classical(self, j: int) -> TruncatedSeries:
        """1/2 sum (C^j eta)_{ab} t^a_0 t^b_0."""
        return _classical_series(self.ts.chern_power_eta(j), self.policy)

    def one(self) -> TruncatedSeries:
        return TruncatedSeries.constant(self.policy, 1)

    def t(self, level: int, cls: int) -> TruncatedSeries:
        """The variable t^cls_level."""
        return TruncatedSeries.variable(self.policy, VarId(level, cls))

    def ttilde(self, level: int, cls: int) -> TruncatedSeries:
        """ttilde^cls_level = t^cls_level - delta_{(level, cls), (1, 1)}."""
        return add_ttilde(TruncatedSeries(self.policy), VarId(level, cls), self.one(), _ONE)

    def corr(self, *slots: tuple[int, int]) -> TruncatedSeries:
        """<<tau_{slots}>> as a truncated series; negative levels give zero.

        The first single slot of level 0..max_level fills every such
        <<tau_v>> into ``series`` from one ``Engine.gradient_series`` walk;
        other slots (above max_level, or two or more) are built one at a
        time by ``Engine.correlation_series``.
        """
        if any(m < 0 for m, _ in slots):
            return TruncatedSeries.zero(self.policy)
        if (len(slots) == 1 and slots[0][0] <= self.policy.max_level
                and 1 <= slots[0][1] <= self.ts.classes):
            self.series.update((("corr", v), series) for v, series
                               in self.engine.gradient_series(self.policy).items())
            return self.series[("corr", *slots)]
        return self.engine.correlation_series(slots, self.policy)

    def _raised(self, head: tuple, sigma: int, slots: tuple) -> TruncatedSeries:
        """sum_rho eta^{sigma rho} <<head O_rho tau_slots>>.

        ``(*head, *slots)`` is the spec of <<head tau_slots>>.
        """
        return self.evaluate([(c, (*head, *_insert(slots, (0, rho))))
                              for rho, c in self.ts.raised(sigma)])

    def _contracted(self, name, head: tuple, slots: tuple) -> TruncatedSeries:
        """sum c ttilde_src <<head tau_dst tau_slots>> over the terms of the field ``name``.

        ``(*head, *slots)`` is the spec of <<head tau_slots>>.
        """
        out = TruncatedSeries(self.policy)
        for src, dst, coeff in self.field(name):
            inner = self.factor((*head, *_insert(slots, dst)))
            if inner.terms:
                add_ttilde(out, src, inner, coeff)
        return out

    def corr_raised(self, sigma: int, *slots: tuple[int, int]) -> TruncatedSeries:
        """<<O^sigma tau_slots>> = eta^{sigma rho} <<O_rho tau_slots>>."""
        return self._raised(("corr",), sigma, slots)

    def pair(self, left, right, weights=None, level: int = 0) -> TruncatedSeries:
        """sum_s w_s <<left tau_level(O_s)>> <<O^s right>>, as a new series.

        ``left`` and ``right`` are sequences of (level, class) slots.
        ``weights`` is a per-class tuple indexed by the lowered class s (all
        ones when None); a zero weight skips that class.
        """
        return self.evaluate([(1 if weights is None else weights[s - 1],
                               ("corr", *_insert(left, (level, s))),
                               ("corr_raised", s, *right))
                              for s in range(1, self.ts.classes + 1)])

    def field_series(self, name, *slots: tuple[int, int]) -> TruncatedSeries:
        """<<W tau_slots>> for the field W = sum coeff ttilde_src d_dst ``name`` names."""
        return self._contracted(name, ("corr",), slots)

    def field_raised(self, name, sigma: int, *slots: tuple[int, int]) -> TruncatedSeries:
        """<<W O^sigma tau_slots>> = eta^{sigma rho} <<W O_rho tau_slots>>."""
        return self._raised(("field_series", name), sigma, slots)

    def field2_series(self, first, second, *slots: tuple[int, int]) -> TruncatedSeries:
        """<<W1 W2 tau_slots>> = sum c1 ttilde_src1 <<W2 tau_dst1 tau_slots>>."""
        return self._contracted(first, ("field_series", second), slots)

    def psi_generic(self, n: int) -> TruncatedSeries:
        """Psi_{0,n} assembled from the generic operator L_n."""
        return _residual(build_operator(self.ts, n, self.policy.max_level),
                         lambda v: self.factor(("corr", v)), self.policy)

    def psi_closed(self, n: int) -> TruncatedSeries:
        """Psi_{0,n} assembled from the hand-expanded closed form, n in {1, 2}."""
        if n not in CLOSED_A:
            raise UnsupportedIndex("hand-expanded closed forms exist only for n in {1, 2}")
        ts = self.ts
        half = Fraction(1, 2)
        terms = [(1, ("classical", n + 1)), (1, ("field_series", f"Psi{n}"))]
        if n == 1:
            terms.append((1, ("pair", (), (), tuple(half * b * (1 - b) for b in ts.b))))
        else:
            terms.append((1, ("pair", (), (), tuple(-(b - 1) * b * (b + 1) for b in ts.b), 1)))
            terms += [(-half * (3 * b * b - 1) * c, ("corr", (0, be)), ("corr_raised", a))
                      for a, b in enumerate(ts.b, 1) for be, c in row(ts.c1_mat, a)]
        return self.evaluate(terms)


def psi(engine: Engine, n: int, policy: TruncationPolicy) -> TruncatedSeries:
    """Genus-0 L_n constraint residual Psi_{0,n} as a truncated series.

    For n in ``CLOSED_A`` the series is assembled both from the generic
    operator and from the hand-expanded closed form; the two must agree exactly.
    """
    if n < 1:
        raise UnsupportedIndex("psi is defined for n >= 1")
    ctx = CorrContext(engine, policy)
    generic = ctx.psi_generic(n)
    if n in CLOSED_A:
        closed = ctx.psi_closed(n)
        if closed != generic:
            diff = closed - generic
            mon, coeff = diff.items_sorted()[0]
            raise AssertionError(
                f"generic and closed-form Psi_0,{n} differ at {mon}: {coeff}")
    return generic


def psi_tilde(engine: Engine, n: int, policy: TruncationPolicy) -> TruncatedSeries:
    """Auxiliary constraint residuals: Psi~_{0,1} and Psi~_{0,2}."""
    if n not in (1, 2):
        raise UnsupportedIndex("psi_tilde is defined for n in {1, 2}")
    ctx = CorrContext(engine, policy)
    ts = ctx.ts
    half = Fraction(1, 2)
    terms = [(1, ("field_series", f"PsiTilde{n}"))]
    if n == 1:
        terms.append((half, ("pair", (), ())))
    else:
        terms.append((1, ("pair", (), (), tuple(-b for b in ts.b), 1)))
        terms += [(-half * c, ("corr_raised", a), ("corr", (0, be)))
                  for a in range(1, ts.classes + 1) for be, c in row(ts.c1_mat, a)]
    return ctx.evaluate(terms)


def derivative_families(series: TruncatedSeries):
    """Split a residual series into constant/first/second coefficient families.

    Returns (constants, firsts, seconds) mapping degree, (var, degree) and
    (var pair, degree) to exact derivative values at the origin.
    """
    constants: dict[tuple, Fraction] = {}
    firsts: dict[tuple, Fraction] = {}
    seconds: dict[tuple, Fraction] = {}
    for mon, coeff in series.monomials():
        if not mon.exps:
            constants[mon.degree] = coeff
        elif mon.total_exponent() == 1:
            firsts[(mon.exps[0][0], mon.degree)] = coeff
        elif mon.total_exponent() == 2:
            if len(mon.exps) == 1:
                v = mon.exps[0][0]
                seconds[((v, v), mon.degree)] = 2 * coeff
            else:
                (u, _), (v, _) = mon.exps
                seconds[((u, v), mon.degree)] = coeff
    return constants, firsts, seconds


def check_shift_relations(series: TruncatedSeries) -> list[str]:
    """Verify the two dilaton-shift identities among the coefficient families.

    d^2/dt11 dt_v Psi|_0 = -d/dt_v Psi|_0  and  d/dt11 Psi|_0 = -2 Psi|_0.
    Returns a list of human-readable violations (empty when all hold).
    """
    constants, firsts, seconds = derivative_families(series)
    policy = series.policy
    bad: list[str] = []
    degrees = set(constants) | {d for _, d in firsts} | {d for _, d in seconds}
    for deg in sorted(degrees):
        lhs = firsts.get((DILATON_VAR, deg), _ZERO)
        rhs = -2 * constants.get(deg, _ZERO)
        if lhs != rhs:
            bad.append(f"d/dt11 at q^{deg}: {lhs} != {rhs}")
    vars_seen = {v for (v, _) in firsts} | {u for ((u, _), _) in seconds} | {v for ((_, v), _) in seconds}
    for v in sorted(vars_seen):
        if v.level > policy.max_level:
            continue
        for deg in sorted(degrees):
            pair = tuple(sorted((DILATON_VAR, v)))
            lhs = seconds.get((pair, deg), _ZERO)
            rhs = -firsts.get((v, deg), _ZERO)
            if lhs != rhs:
                bad.append(f"d2/dt11 dt{tuple(v)} at q^{deg}: {lhs} != {rhs}")
    return bad




# ---------------------------------------------------------------------------
# Commutators as exact brackets in the quadratic Weyl algebra.
# ---------------------------------------------------------------------------

def _mul(x, y) -> list:
    """The product of two sparse matrices given as (row, col, coeff) terms, unsummed."""
    rows: dict[VarId, list] = {}
    for j, k, c in y:
        rows.setdefault(j, []).append((k, c))
    return [(i, k, c * d) for i, j, c in x for k, d in rows.get(j, ())]


def _sym(x) -> list:
    """x + x^T as (row, col, coeff) terms, unsummed."""
    return [*x, *((j, i, c) for i, j, c in x)]


def _weyl(op: VirasoroOperator) -> tuple[tuple, list, list]:
    """The sparse (M, S, T) of ``op`` (see ``bracket``)."""
    classical = [(VarId(0, a), VarId(0, b), q) for a, row in enumerate(op.classical, 1)
                 for b, q in enumerate(row, 1) if q]
    quadratic = [(u, v, c if u == v else c / 2) for u, v, c in op.quadratic]
    return op.linear, classical, quadratic + [(v, u, c) for u, v, c in quadratic if u != v]


def bracket(a: VirasoroOperator, b: VirasoroOperator) -> VirasoroOperator:
    """The commutator [a, b], exactly.

    With x = ttilde, an operator is x^T M d + 1/2 x^T S x + 1/2 d^T T d + c:
    M[src, dst] holds the linear terms, S the classical form on the level-0
    slots, and the symmetric T the quadratic terms, T_uv = coeff/2 off the
    diagonal and T_uu = coeff on it.  Quadratic elements of the Weyl algebra
    are closed under the bracket; with sym(X) = X + X^T,

        M = M_a M_b - M_b M_a + S_b T_a - S_a T_b,
        S = sym(M_a S_b) - sym(M_b S_a),
        T = sym(T_a M_b) - sym(T_b M_a),
        c = tr(S_b T_a)/2 - tr(S_a T_b)/2,

    and each block keeps its lambda grading.  An S entry off level 0 has no
    place in the operator shape and raises ValueError.
    """
    (ma, sa, ta), (mb, sb, tb) = _weyl(a), _weyl(b)
    sb_ta, sa_tb = _mul(sb, ta), _mul(sa, tb)
    linear = combine_fields((_mul(ma, mb), _ONE), (_mul(mb, ma), -_ONE),
                            (sb_ta, _ONE), (sa_tb, -_ONE))
    s = combine_fields((_sym(_mul(ma, sb)), _ONE), (_sym(_mul(mb, sa)), -_ONE))
    t = combine_fields((_sym(_mul(ta, mb)), _ONE), (_sym(_mul(tb, ma)), -_ONE))
    trace = combine_fields((sb_ta, _ONE), (sa_tb, -_ONE))
    classical = [[_ZERO] * len(a.classical) for _ in a.classical]
    for u, v, c in s:
        if u.level or v.level:
            raise ValueError(f"bracket not Virasoro-shaped: S entry at {tuple(u)}, {tuple(v)}")
        classical[u.cls - 1][v.cls - 1] = c
    return VirasoroOperator(
        linear,
        tuple((u, v, c if u == v else 2 * c) for u, v, c in t if u <= v),
        tuple(map(tuple, classical)),
        sum((c for u, v, c in trace if u == v), _ZERO) / 2)


def commutator_residual(ts: TargetSpace, m: int, n: int,
                        policy: TruncationPolicy) -> VirasoroOperator:
    """[L_m, L_n] - (m - n) L_{m+n} on the level window the policy can certify.

    The operators are built up to ``policy.max_level``, and the exact bracket
    keeps the terms whose d levels are all at most max_level - (m + n + 1),
    with the classical form and the constant.  No term the truncation dropped
    reaches that window, so an empty result certifies the relation there.
    """
    top = policy.max_level - (m + n + 1)
    if top < 0:
        raise PolicyTooTight("max_level must exceed m + n + 1 for the commutator window")
    residual = bracket(build_operator(ts, m, policy.max_level),
                       build_operator(ts, n, policy.max_level))
    if m != n:  # at m = n the L_{m+n} term vanishes, and L_{-2} is out of scope
        residual -= build_operator(ts, m + n, policy.max_level).scaled(Fraction(m - n))
    return residual.window(top)
