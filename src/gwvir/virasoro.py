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
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Callable
from fractions import Fraction

from .engine import Engine
from .errors import IndexOutOfRange, PolicyTooTight, UnsupportedIndex
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

    def __neg__(self) -> "VirasoroOperator":
        return VirasoroOperator(
            tuple((s, d, -c) for s, d, c in self.linear),
            tuple((u, v, -c) for u, v, c in self.quadratic),
            tuple(tuple(-x for x in row) for row in self.classical),
            -self.constant,
        )


def coeff_A(b: Fraction, j: int, m: int, n: int) -> Fraction:
    """Sum over size-j subsets S of {m, ..., m+n} of prod_{l not in S} (b + l)."""
    if n < 1 or m < 0 or j < 0 or j > n + 1:
        raise IndexOutOfRange(f"coeff_A index out of range: j={j}, m={m}, n={n}")
    levels = range(m, m + n + 1)
    total = _ZERO
    for subset in itertools.combinations(levels, j):
        skip = set(subset)
        prod = _ONE
        for l in levels:
            if l not in skip:
                prod *= b + l
        total += prod
    return total


def coeff_B(b: Fraction, j: int, k: int, n: int) -> Fraction:
    """(-1)^{k+1} times the complement-product sum over {-k-1, ..., n-k-1}."""
    if j < 0 or j > n - 1 or k < 0 or k > n - j - 1:
        raise IndexOutOfRange(f"coeff_B index out of range: j={j}, k={k}, n={n}")
    levels = range(-k - 1, n - k)
    total = _ZERO
    for subset in itertools.combinations(levels, j):
        skip = set(subset)
        prod = _ONE
        for l in levels:
            if l not in skip:
                prod *= b + l
        total += prod
    return total if (k + 1) % 2 == 0 else -total


def linear_field(ts: TargetSpace, coeffs: tuple[Callable[[Fraction], Fraction], ...],
                 top: int, max_level: int) -> tuple[LinearTerm, ...]:
    """sum_{m,a,j} coeffs[j](m + b_a) (C^j)_a^beta ttilde^a_m d/dt^beta_{m+top-j}.

    Every linear vector field of the operator calculus has this shape.  Source
    levels run over 0..max(max_level, 1): ttilde^1_1 = t^1_1 - 1 carries the
    dilaton shift even when t_1 is truncated away.  Zero coefficients and
    negative destination levels are dropped; the result is sorted.
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
                terms.extend((VarId(m, a), VarId(level, be), coeff * row[be - 1])
                             for be in range(1, N + 1) if row[be - 1])
    return tuple(sorted(terms))


# The hand-expanded A-coefficients of L_1 and L_2 as polynomials in x = m + b,
# equal to coeff_A(b, j, m, n) for j = 0..n+1.
CLOSED_A = {
    1: (lambda x: x * (x + 1), lambda x: 2 * x + 1, lambda x: _ONE),
    2: (lambda x: x * (x + 1) * (x + 2), lambda x: 3 * x * x + 6 * x + 2,
        lambda x: 3 * (x + 1), lambda x: _ONE),
}


def string_field(ts: TargetSpace, max_level: int) -> tuple[LinearTerm, ...]:
    """S = -sum ttilde^a_m d/dt^a_{m-1}."""
    return linear_field(ts, (lambda x: -_ONE,), -1, max_level)


def dilaton_field(ts: TargetSpace, max_level: int) -> tuple[LinearTerm, ...]:
    """D = -sum ttilde^a_m d/dt^a_m."""
    return linear_field(ts, (lambda x: -_ONE,), 0, max_level)


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
    """Assemble L_n exactly; linear terms come from ``linear_field``."""
    if n < -1:
        raise UnsupportedIndex("operators below L_{-1} are out of scope")
    N = ts.classes
    quadratic: dict[tuple[VarId, VarId], Fraction] = {}

    def add_quadratic(u: VarId, v: VarId, coeff: Fraction) -> None:
        if coeff:
            key = (u, v) if u <= v else (v, u)
            acc = quadratic.get(key, _ZERO) + coeff
            if acc:
                quadratic[key] = acc
            else:
                quadratic.pop(key, None)

    constant = _ZERO
    if n == -1:
        linear = linear_field(ts, (lambda x: _ONE,), -1, max_level)
        classical = ts.eta
    elif n == 0:
        linear = linear_field(ts, (lambda x: x, lambda x: _ONE), 0, max_level)
        classical = ts.chern_power_eta(1)
        constant = (Fraction(3 - ts.complex_dim, 2) * ts.euler_char - ts.c1_cdm1) / 24
    else:
        # coeff_A(b, j, m, n) == coeff_A(m + b, j, 0, n): shift l -> l - m.
        linear = linear_field(
            ts, tuple(lambda x, j=j: coeff_A(x, j, 0, n) for j in range(n + 2)),
            n, max_level)
        for a in range(1, N + 1):
            b = ts.b[a - 1]
            for j in range(n):
                cj = ts.chern_power(j)
                for k in range(n - j):
                    coeff = coeff_B(b, j, k, n)
                    for be in range(1, N + 1):
                        cjab = cj[a - 1][be - 1]
                        if not cjab:
                            continue
                        for g, eta_inv in ts.raised(a):
                            add_quadratic(VarId(k, g), VarId(n - k - 1 - j, be),
                                          coeff * cjab * eta_inv)
        classical = ts.chern_power_eta(n + 1)

    return VirasoroOperator(
        linear,
        tuple((u, v, c) for (u, v), c in sorted(quadratic.items())),
        classical,
        constant,
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
            acc = terms.get(mon, _ZERO) + half * q
            if acc:
                terms[mon] = acc
            else:
                terms.pop(mon, None)
    return TruncatedSeries(policy, terms)


def add_ttilde(acc: TruncatedSeries, src: VarId, series: TruncatedSeries,
               coeff: Fraction) -> TruncatedSeries:
    """In place: acc += coeff * ttilde_src * series, with ttilde = t - delta_{(1,1)}.

    This is the dilaton shift of the operator convention: coeff * t_src * series,
    plus -coeff * series when src is the dilaton variable t^1_1.  ``acc`` must
    be a series the caller has just created; it is returned.
    """
    if src.level <= acc.policy.max_level:
        acc.add_scaled(series.times_var(src), coeff)
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

    result = _classical_series(op.classical, policy)
    for src, dst, coeff in op.linear:
        add_ttilde(result, src, deriv(dst), coeff)
    half = Fraction(1, 2)
    for u, v, coeff in op.quadratic:
        result.add_scaled(series_mul(deriv(u), deriv(v)), half * coeff)
    return result


class CorrContext:
    """Memoised correlation series and contractions, and the term evaluator.

    Each <<tau_slots>>, <<O^sigma tau_slots>>, <<W tau_slots>>, <<W O^sigma
    tau_slots>> and <<W1 W2 tau_slots>> is built once per context and then
    shared: callers must not mutate a series this context hands out.

    ``evaluate`` sums terms ``(coeff, factor[, factor[, factor]])``.  A factor
    ``(method, *args)`` is what that method returns: ``("corr", *slots)``,
    ``("corr_raised", sigma, *slots)``, ``("field_series", W, *slots)``,
    ``("field_raised", W, sigma, *slots)``, ``("field2_series", W1, W2,
    *slots)``, ``("pair", left, right[, weights[, level]])``, ``("one",)``,
    ``("t", m, a)`` or ``("ttilde", m, a)``; ``("series", s)`` is ``s``.

    ``pair``, the genus-0 splitting sum_s w_s <<A tau_p(O_s)>> <<O^s B>>, is
    not memoised: its factors are, and a memo of its products raised the
    peak RSS of the full P2 registry at K=4 M=3 D=2 from about 40 MB to
    56 MB for no measured gain in time.
    """

    def __init__(self, engine: Engine, policy: TruncationPolicy):
        self.engine = engine
        self.policy = policy
        self._corr: dict[tuple[tuple[int, int], ...], TruncatedSeries] = {}
        self._raised: dict[tuple[int, tuple[tuple[int, int], ...]], TruncatedSeries] = {}
        self._contracted: dict[tuple[int, tuple[VarId, ...]], TruncatedSeries] = {}
        self._field_raised: dict[tuple[int, int, tuple[VarId, ...]], TruncatedSeries] = {}
        self._field2: dict[tuple[int, int, tuple[VarId, ...]], TruncatedSeries] = {}
        # id(terms) -> (terms, tag): each vector field's terms are hashed once
        # per context, and holding them here keeps their id from being reused.
        self._field_ids: dict[int, tuple[tuple[LinearTerm, ...], int]] = {}
        self._field_tags: dict[tuple[LinearTerm, ...], int] = {}

    @property
    def ts(self) -> TargetSpace:
        return self.engine.ts

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
            elif len(term) == 3:
                out.add_product(factor(term[1]), factor(term[2]), coeff)
            else:
                _, first, second, third = term
                out.add_product(series_mul(factor(first), factor(second)), factor(third), coeff)
        return out

    def factor(self, spec: tuple) -> TruncatedSeries:
        """The series a factor spec names (see the class docstring)."""
        return spec[1] if spec[0] == "series" else getattr(self, spec[0])(*spec[1:])

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

        The slots are looked up as given and sorted only on a miss, as in
        ``Engine.invariant``: a ``VarId`` equals and hashes as its
        ``(level, cls)`` tuple, so slots already in order hit at once.
        """
        cached = self._corr.get(slots)
        if cached is None:
            vids = tuple(sorted(slots))
            if vids and vids[0][0] < 0:
                return TruncatedSeries.zero(self.policy)
            cached = self._corr.get(vids)
            if cached is None:
                cached = self._corr[vids] = self.engine.correlation_series(vids, self.policy)
        return cached

    def corr_raised(self, sigma: int, *slots: tuple[int, int]) -> TruncatedSeries:
        """<<O^sigma tau_slots>> = eta^{sigma rho} <<O_rho tau_slots>>.

        Looked up as given first and sorted only on a miss, as ``corr`` is.
        """
        out = self._raised.get((sigma, slots))
        if out is None:
            key = (sigma, tuple(sorted(slots)))
            out = self._raised.get(key)
            if out is None:
                out = self._raised[key] = self.evaluate(
                    [(c, ("corr", (0, rho), *key[1])) for rho, c in self.ts.raised(sigma)])
        return out

    def pair(self, left, right, weights=None, level: int = 0) -> TruncatedSeries:
        """sum_s w_s <<left tau_level(O_s)>> <<O^s right>>, as a new series.

        ``left`` and ``right`` are sequences of (level, class) slots.
        ``weights`` is a per-class tuple indexed by the lowered class s (all
        ones when None); a zero weight skips that class.
        """
        out = TruncatedSeries(self.policy)
        # The class slot goes in at its sorted place, so that ``corr`` finds
        # canonical slots as given.
        left = sorted(left)
        for s in range(1, self.ts.classes + 1):
            w = 1 if weights is None else weights[s - 1]
            if w:
                i = bisect.bisect(left, (level, s))
                out.add_product(self.corr(*left[:i], (level, s), *left[i:]),
                                self.corr_raised(s, *right), w)
        return out

    def field_series(self, terms: tuple[LinearTerm, ...],
                     *slots: tuple[int, int]) -> TruncatedSeries:
        """<<W tau_slots>> for W = sum coeff ttilde_src d_dst (tensor slot)."""
        return self._contract(terms, tuple(sorted(VarId(m, a) for m, a in slots)))

    def _field_tag(self, terms: tuple[LinearTerm, ...]) -> int:
        """A small int naming ``terms`` by value; equal fields share a tag."""
        seen = self._field_ids.get(id(terms))
        if seen is None:
            tag = self._field_tags.setdefault(terms, len(self._field_tags))
            seen = self._field_ids[id(terms)] = (terms, tag)
        return seen[1]

    def _contract(self, terms: tuple[LinearTerm, ...],
                  vids: tuple[VarId, ...]) -> TruncatedSeries:
        """Memoised <<W tau_vids>>; ``vids`` sorted, so slot order cannot split the memo."""
        key = (self._field_tag(terms), vids)
        out = self._contracted.get(key)
        if out is None:
            out = TruncatedSeries(self.policy)
            for src, dst, coeff in terms:
                i = bisect.bisect(vids, dst)
                base = self.corr(*vids[:i], dst, *vids[i:])
                if base.terms:
                    add_ttilde(out, src, base, coeff)
            self._contracted[key] = out
        return out

    def field_raised(self, terms: tuple[LinearTerm, ...], sigma: int,
                     *slots: tuple[int, int]) -> TruncatedSeries:
        """<<W O^sigma tau_slots>> = eta^{sigma rho} <<W O_rho tau_slots>>, memoised."""
        vids = tuple(sorted(VarId(m, a) for m, a in slots))
        key = (self._field_tag(terms), sigma, vids)
        out = self._field_raised.get(key)
        if out is None:
            out = self._field_raised[key] = self.evaluate(
                [(c, ("field_series", terms, (0, rho), *vids)) for rho, c in self.ts.raised(sigma)])
        return out

    def field2_series(self, first: tuple[LinearTerm, ...],
                      second: tuple[LinearTerm, ...],
                      *slots: tuple[int, int]) -> TruncatedSeries:
        """<<W1 W2 tau_slots>> = sum c1 ttilde_src1 <<W2 tau_dst1 tau_slots>>, memoised."""
        vids = tuple(sorted(VarId(m, a) for m, a in slots))
        key = (self._field_tag(first), self._field_tag(second), vids)
        out = self._field2.get(key)
        if out is None:
            out = TruncatedSeries(self.policy)
            for src, dst, coeff in first:
                inner = self._contract(second, tuple(sorted(vids + (dst,))))
                if inner.terms:
                    add_ttilde(out, src, inner, coeff)
            self._field2[key] = out
        return out


def psi(ts_or_engine, n: int, policy: TruncationPolicy) -> TruncatedSeries:
    """Genus-0 L_n constraint residual Psi_{0,n} as a truncated series.

    For n in {1, 2} the series is assembled both from the generic operator and
    from the hand-expanded closed form; the two must agree exactly.
    """
    if n < 1:
        raise UnsupportedIndex("psi is defined for n >= 1")
    ctx = CorrContext(_as_engine(ts_or_engine), policy)
    generic = _psi_generic(ctx, n)
    if n in (1, 2):
        closed = _psi_closed_form(ctx, n)
        if closed != generic:
            diff = closed - generic
            mon, coeff = diff.items_sorted()[0]
            raise AssertionError(
                f"generic and closed-form Psi_0,{n} differ at {mon}: {coeff}")
    return generic


def _as_engine(ts_or_engine) -> Engine:
    return ts_or_engine if isinstance(ts_or_engine, Engine) else Engine(ts_or_engine)


def _psi_generic(ctx: CorrContext, n: int) -> TruncatedSeries:
    policy = ctx.policy
    op = build_operator(ctx.ts, n, policy.max_level)
    out = _classical_series(op.classical, policy)
    out.add_scaled(ctx.field_series(op.linear), _ONE)
    half = Fraction(1, 2)
    for u, v, coeff in op.quadratic:
        out.add_scaled(series_mul(ctx.corr(u), ctx.corr(v)), half * coeff)
    return out


def _psi_closed_form(ctx: CorrContext, n: int) -> TruncatedSeries:
    if n not in CLOSED_A:
        raise UnsupportedIndex("hand-expanded closed forms exist only for n in {1, 2}")
    ts, policy = ctx.ts, ctx.policy
    half = Fraction(1, 2)
    terms = [(1, ("series", _classical_series(ts.chern_power_eta(n + 1), policy))),
             (1, ("field_series", linear_field(ts, CLOSED_A[n], n, policy.max_level)))]
    if n == 1:
        terms.append((1, ("pair", (), (), tuple(half * b * (1 - b) for b in ts.b))))
    else:
        terms.append((1, ("pair", (), (), tuple(-(b - 1) * b * (b + 1) for b in ts.b), 1)))
        terms += [(-half * (3 * b * b - 1) * c, ("corr", (0, be)), ("corr_raised", a))
                  for a, b in enumerate(ts.b, 1) for be, c in row(ts.c1_mat, a)]
    return ctx.evaluate(terms)


def psi_tilde(ts_or_engine, n: int, policy: TruncationPolicy) -> TruncatedSeries:
    """Auxiliary constraint residuals: Psi~_{0,1} and Psi~_{0,2}."""
    if n not in (1, 2):
        raise UnsupportedIndex("psi_tilde is defined for n in {1, 2}")
    ctx = CorrContext(_as_engine(ts_or_engine), policy)
    ts = ctx.ts
    half = Fraction(1, 2)
    coeffs = (lambda x: -_ONE,) if n == 1 else (lambda x: x + 1, lambda x: _ONE)
    terms = [(1, ("field_series", linear_field(ts, coeffs, n, policy.max_level)))]
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
# Commutator checking via operator actions on a basis window.
# ---------------------------------------------------------------------------

class _GradedPoly:
    """Polynomial with a lambda grading: maps lambda power -> series."""

    __slots__ = ("parts", "policy")

    def __init__(self, policy: TruncationPolicy, parts=None):
        self.policy = policy
        self.parts: dict[int, TruncatedSeries] = dict(parts or {})

    def add(self, power: int, series: TruncatedSeries) -> None:
        if series.is_zero():
            return
        if power in self.parts:
            acc = self.parts[power] + series
            if acc.is_zero():
                del self.parts[power]
            else:
                self.parts[power] = acc
        else:
            self.parts[power] = series

    def __sub__(self, other: "_GradedPoly") -> "_GradedPoly":
        out = _GradedPoly(self.policy, {k: v for k, v in self.parts.items()})
        for k, v in other.parts.items():
            out.add(k, -v)
        return out

    def is_zero(self) -> bool:
        return not self.parts


def _apply_to_poly(op: VirasoroOperator, poly: _GradedPoly) -> _GradedPoly:
    """Apply the lambda-graded operator to a graded polynomial exactly."""
    policy = poly.policy
    out = _GradedPoly(policy)
    classical = _classical_series(op.classical, policy)
    half = Fraction(1, 2)
    for power, series in poly.parts.items():
        linear = TruncatedSeries(policy)
        for src, dst, coeff in op.linear:
            d = series_derive(series, dst)
            if d.terms:
                add_ttilde(linear, src, d, coeff)
        out.add(power, linear)
        # The quadratic block of the operator is (lambda^2/2) sum coeff d_u d_v.
        for u, v, coeff in op.quadratic:
            d2 = series_derive(series_derive(series, u), v)
            if not d2.is_zero():
                out.add(power + 2, d2.scale(half * coeff))
        if not classical.is_zero():
            out.add(power - 2, series_mul(classical, series))
        if op.constant:
            out.add(power, series.scale(op.constant))
    return out


def _work_policy(policy: TruncationPolicy) -> TruncationPolicy:
    """Internal ring for commutator checks: exponent headroom so that two
    operator applications on a degree-2 basis monomial never truncate (each
    classical multiplication adds total exponent 2)."""
    return TruncationPolicy(6, policy.max_level, policy.max_degree)


def _basis_window(ts: TargetSpace, max_basis_level: int,
                  policy: TruncationPolicy) -> list[tuple[str, _GradedPoly]]:
    work = _work_policy(policy)
    vids = [VarId(m, a) for m in range(max_basis_level + 1)
            for a in range(1, ts.classes + 1)]
    basis: list[tuple[str, _GradedPoly]] = []
    one = _GradedPoly(work, {0: TruncatedSeries.constant(work, 1)})
    basis.append(("1", one))
    for v in vids:
        basis.append((f"t{tuple(v)}", _GradedPoly(
            work, {0: TruncatedSeries.variable(work, v)})))
    for i, u in enumerate(vids):
        for v in vids[i:]:
            mon = TruncatedSeries.variable(work, u).times_var(v)
            basis.append((f"t{tuple(u)}t{tuple(v)}", _GradedPoly(work, {0: mon})))
    return basis


def _collect(label: str, poly: _GradedPoly, records: list) -> None:
    for power, series in sorted(poly.parts.items()):
        for mon, coeff in series.items_sorted():
            records.append((label, power, mon, coeff))


def _scale_op(op: VirasoroOperator, scale: Fraction) -> VirasoroOperator:
    return VirasoroOperator(
        tuple((s, d, scale * c) for s, d, c in op.linear),
        tuple((u, v, scale * c) for u, v, c in op.quadratic),
        tuple(tuple(scale * x for x in row) for row in op.classical),
        scale * op.constant,
    )


def _residual_records(basis, op_m: VirasoroOperator, op_n: VirasoroOperator,
                      rhs: VirasoroOperator | None) -> list:
    """Matrix elements of [L_m, L_n] - L_rhs on the basis window."""
    records: list = []
    for label, p in basis:
        r = _apply_to_poly(op_m, _apply_to_poly(op_n, p)) - \
            _apply_to_poly(op_n, _apply_to_poly(op_m, p))
        if rhs is not None:
            r = r - _apply_to_poly(rhs, p)
        _collect(label, r, records)
    return records


def _action_records(basis, op: VirasoroOperator) -> list:
    records: list = []
    for label, p in basis:
        _collect(label, _apply_to_poly(op, p), records)
    return records


def _reconstruct(ts: TargetSpace, records, policy: TruncationPolicy) -> VirasoroOperator:
    """Rebuild a Virasoro-shaped operator from basis matrix elements."""
    N = ts.classes
    constant = _ZERO
    classical = [[_ZERO] * N for _ in range(N)]
    linear: dict[tuple[VarId, VarId], Fraction] = {}
    quadratic: dict[tuple[VarId, VarId], Fraction] = {}
    by_label: dict[str, list] = {}
    for label, power, mon, coeff in records:
        by_label.setdefault(label, []).append((power, mon, coeff))
    for power, mon, coeff in by_label.get("1", []):
        if power == 0 and not mon.exps:
            constant = coeff
        elif power == -2 and mon.total_exponent() == 2 and mon.max_level() == 0:
            if len(mon.exps) == 1:
                a = mon.exps[0][0].cls
                classical[a - 1][a - 1] = 2 * coeff
            else:
                (u, _), (v, _) = mon.exps
                classical[u.cls - 1][v.cls - 1] = coeff
                classical[v.cls - 1][u.cls - 1] = coeff
        else:
            raise ValueError(f"residual not Virasoro-shaped at basis 1: {power}, {mon}")
    vids = [VarId(m, a) for m in range(policy.max_level + 1) for a in range(1, N + 1)]
    for v in vids:
        label = f"t{tuple(v)}"
        pure_deriv = _ZERO
        for power, mon, coeff in by_label.get(label, []):
            if power != 0:
                continue  # lambda^{-2} entries are the classical poly times t_v
            if mon.total_exponent() == 1:
                u = mon.exps[0][0]
                c = coeff - (constant if u == v else _ZERO)
                if c:
                    linear[(u, v)] = c
            elif not mon.exps:
                pure_deriv = coeff
            else:
                raise ValueError(f"residual not Virasoro-shaped at {label}: {mon}")
        expect = -linear.get((DILATON_VAR, v), _ZERO)
        if pure_deriv != expect:
            raise ValueError(f"residual d_{tuple(v)} term is not of ttilde form")
    for i, u in enumerate(vids):
        for v in vids[i:]:
            label = f"t{tuple(u)}t{tuple(v)}"
            for power, mon, coeff in by_label.get(label, []):
                if power == 2:
                    if mon.exps:
                        raise ValueError(f"residual lambda^2 part not constant at {label}")
                    # (1/2) c d_u d_v hits t_u t_v once off-diagonal, twice on it.
                    quadratic[(u, v)] = coeff if u == v else 2 * coeff
    return VirasoroOperator(
        tuple((s, d, c) for (s, d), c in sorted(linear.items()) if c),
        tuple((u, v, c) for (u, v), c in sorted(quadratic.items()) if c),
        tuple(tuple(row) for row in classical),
        constant,
    )


def commutator_residual(ts: TargetSpace, m: int, n: int,
                        policy: TruncationPolicy) -> VirasoroOperator:
    """[L_m, L_n] - (m - n) L_{m+n} on the level window the policy can certify.

    Matrix elements are read off on basis monomials with levels at most
    max_level - (m + n + 1); within that window truncation can never fabricate
    a zero, so an empty result certifies the relation there.  The returned
    operator is verified to reproduce every matrix element it was read from.
    """
    max_basis_level = policy.max_level - (m + n + 1)
    if max_basis_level < 0:
        raise PolicyTooTight("max_level must exceed m + n + 1 for the commutator window")
    op_m = build_operator(ts, m, policy.max_level)
    op_n = build_operator(ts, n, policy.max_level)
    rhs = _scale_op(build_operator(ts, m + n, policy.max_level), Fraction(m - n))
    basis = _basis_window(ts, max_basis_level, policy)
    records = _residual_records(basis, op_m, op_n, rhs)
    residual = _reconstruct(ts, records, policy)
    replay = _action_records(basis, residual)
    if _record_map(records) != _record_map(replay):
        raise ValueError("commutator residual is not representable as a Virasoro operator")
    return residual


def _record_map(records) -> dict:
    return {(label, power, mon): coeff for label, power, mon, coeff in records}


def bracket_l0_scale(ts: TargetSpace, policy: TruncationPolicy
                     ) -> tuple[Fraction | None, bool]:
    """Empirical scalar c with [L_{-1}, L_1] = c L_0, and whether it fits exactly.

    Returns (c, exact).  c is None when the bracket vanishes outright; exact
    reports whether every matrix element on the window matches c * L_0.
    """
    max_basis_level = policy.max_level - 2
    if max_basis_level < 0:
        raise PolicyTooTight("max_level too small for the bracket probe")
    op_m = build_operator(ts, -1, policy.max_level)
    op_n = build_operator(ts, 1, policy.max_level)
    op_0 = build_operator(ts, 0, policy.max_level)
    basis = _basis_window(ts, max_basis_level, policy)
    bra = _record_map(_residual_records(basis, op_m, op_n, None))
    l0m = _record_map(_action_records(basis, op_0))
    scale = None
    for key, c in sorted(l0m.items()):
        if c and key in bra:
            scale = bra[key] / c
            break
    if scale is None:
        return None, not bra
    keys = set(bra) | set(l0m)
    exact = all(bra.get(k, _ZERO) == scale * l0m.get(k, _ZERO) for k in keys)
    return scale, exact
