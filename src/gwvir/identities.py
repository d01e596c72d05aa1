"""Machine-checkable registry of correlator identities.

Every tag evaluates both sides of one identity as truncated series over all
free index tuples (descendent levels up to the policy level bound minus one,
all class indices) and reports per-tuple pass/fail with the first failing
coefficient.  Vector-field slots inside double brackets are tensor
contractions: the field expands into its ttilde-weighted sum of derivative
slots under the same policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable, Iterator

from .engine import Engine
from .errors import UnknownIdentity
from .rationals import format_rational
from .series import Monomial, TruncatedSeries, TruncationPolicy, VarId, series_mul
from .virasoro import (CLOSED_A, CorrContext, LinearTerm, add_ttilde, apply_operator,
                       build_operator, coeff_A, coeff_B, combine_fields, dilaton_field,
                       euler_field, linear_field, string_field, _as_engine,
                       _psi_closed_form, _psi_generic)

_ONE = Fraction(1)

Check = tuple[tuple, TruncatedSeries, TruncatedSeries]
Checker = Callable[["IdentityContext"], Iterator[Check]]


@dataclass(frozen=True)
class IdentityFinding:
    tag: str
    indices: tuple
    status: str  # "pass" | "fail"
    monomial: str | None = None
    lhs: str | None = None
    rhs: str | None = None


def render_monomial(mon: Monomial) -> str:
    parts = [f"t({v.level},{v.cls})" + (f"^{e}" if e > 1 else "")
             for v, e in mon.exps]
    body = "*".join(parts) if parts else "1"
    if mon.degree and any(mon.degree):
        body += " q^" + ",".join(str(d) for d in mon.degree)
    return body


class IdentityContext(CorrContext):
    """CorrContext plus the vector fields and polynomial helpers the lemmas use."""

    def __init__(self, engine: Engine, policy: TruncationPolicy, idx_max: int | None = None):
        super().__init__(engine, policy)
        self.idx = policy.max_level - 1 if idx_max is None else idx_max
        if self.idx < 0:
            self.idx = 0
        self._fields: dict[str, tuple[LinearTerm, ...]] = {}

    # vector fields ---------------------------------------------------------

    def field(self, name: str) -> tuple[LinearTerm, ...]:
        if name not in self._fields:
            ts, M = self.ts, self.policy.max_level
            if name == "S":
                terms = string_field(ts, M)
            elif name == "D":
                terms = dilaton_field(ts, M)
            elif name == "X":
                terms = euler_field(ts, M)
            elif name == "Ltilde1":
                terms = linear_field(ts, (lambda x: _ONE,), 1, M)
            elif name.startswith("L"):
                terms = build_operator(ts, int(name[1:]), M).linear
            else:
                raise UnknownIdentity(name)
            self._fields[name] = terms
        return self._fields[name]

    def field_minus_kD(self, name: str, k: int) -> tuple[LinearTerm, ...]:
        """Terms of (field - k * D)."""
        return combine_fields((self.field(name), 1), (self.field("D"), -k))

    def field_raised(self, terms: tuple[LinearTerm, ...], sigma: int,
                     *slots: tuple[int, int]) -> TruncatedSeries:
        out = TruncatedSeries(self.policy)
        for rho, coeff in self.ts.raised(sigma):
            out.add_scaled(self.field_series(terms, (0, rho), *slots), coeff)
        return out

    # polynomial helpers ----------------------------------------------------

    def const(self, value: Fraction | int) -> TruncatedSeries:
        return TruncatedSeries.constant(self.policy, value)

    def tvar(self, level: int, cls: int) -> TruncatedSeries:
        return TruncatedSeries.variable(self.policy, VarId(level, cls))

    def ttilde(self, level: int, cls: int) -> TruncatedSeries:
        return add_ttilde(self.zero(), VarId(level, cls), self.const(1), _ONE)

    def zero(self) -> TruncatedSeries:
        return TruncatedSeries.zero(self.policy)

    def classes(self) -> range:
        return range(1, self.ts.classes + 1)

    def levels(self) -> range:
        return range(self.idx + 1)


def _eta_quad(ctx: IdentityContext, matrix) -> TruncatedSeries:
    """1/2 sum M_{ab} t^a_0 t^b_0."""
    out = ctx.zero()
    half = Fraction(1, 2)
    for a in ctx.classes():
        for b in ctx.classes():
            if matrix[a - 1][b - 1]:
                out.add_scaled(ctx.tvar(0, a).times_var(VarId(0, b)), half * matrix[a - 1][b - 1])
    return out


# --- section 2 lemmas ---------------------------------------------------------

def _operator_route(ctx: IdentityContext, n: int):
    # The genus-0 L_n residual against F_0 vanishes identically (no constant).
    # F_0 keeps level 1 even at max_level 0: L_0's source ttilde^1_1, kept for
    # its dilaton shift, differentiates F_0 at level 1.
    policy = ctx.policy
    big = TruncationPolicy(policy.max_insertions + 1, max(policy.max_level, 1),
                           policy.max_degree)
    f0 = ctx.engine.correlation_series((), big)
    op = build_operator(ctx.ts, n, policy.max_level)
    yield ((), apply_operator(op, f0, policy), ctx.zero())


def _check_string_corr1(ctx: IdentityContext):
    yield ((), ctx.field_series(ctx.field("S")), _eta_quad(ctx, ctx.ts.eta))


def _check_string_corr2(ctx: IdentityContext):
    for m in ctx.levels():
        for a in ctx.classes():
            rhs = ctx.zero().add_scaled(ctx.corr((m - 1, a)))
            if m == 0:
                for b in ctx.classes():
                    if ctx.ts.eta[a - 1][b - 1]:
                        rhs.add_scaled(ctx.tvar(0, b), ctx.ts.eta[a - 1][b - 1])
            yield ((m, a), ctx.field_series(ctx.field("S"), (m, a)), rhs)


def _check_string_corr3(ctx: IdentityContext):
    for m in ctx.levels():
        for a in ctx.classes():
            for n in ctx.levels():
                for b in ctx.classes():
                    rhs = ctx.corr((m, a), (n - 1, b)) + ctx.corr((m - 1, a), (n, b))
                    if m == 0 and n == 0:
                        rhs.add_scaled(ctx.const(ctx.ts.eta[a - 1][b - 1]))
                    yield ((m, a, n, b),
                           ctx.field_series(ctx.field("S"), (m, a), (n, b)), rhs)


def _check_dilaton_corr1(ctx: IdentityContext):
    f0 = ctx.corr()
    yield ((), ctx.field_series(ctx.field("D")), f0.scale(-2))


def _check_dilaton_corr2(ctx: IdentityContext):
    for m in ctx.levels():
        for a in ctx.classes():
            yield ((m, a), ctx.field_series(ctx.field("D"), (m, a)),
                   ctx.corr((m, a)).scale(-1))


def _check_dilaton_corr3(ctx: IdentityContext):
    for m in ctx.levels():
        for a in ctx.classes():
            for n in ctx.levels():
                for b in ctx.classes():
                    yield ((m, a, n, b),
                           ctx.field_series(ctx.field("D"), (m, a), (n, b)), ctx.zero())


def _check_quasi_homog(ctx: IdentityContext):
    rhs = _eta_quad(ctx, ctx.ts.chern_power_eta(1)).add_scaled(ctx.corr(), 3 - ctx.ts.complex_dim)
    yield ((), ctx.field_series(ctx.field("X")), rhs)


def _check_euler_corr1(ctx: IdentityContext):
    # Same statement as QuasiHomog, exercised through the tensor-slot route
    # with X recombined as -(L0 + (3-d)/2 D).
    shift = Fraction(3 - ctx.ts.complex_dim, 2)
    terms = ctx.field_minus_kD("L0", -shift)  # L0 + shift*D = -X
    lhs = ctx.field_series(terms).scale(-1)
    rhs = _eta_quad(ctx, ctx.ts.chern_power_eta(1)).add_scaled(ctx.corr(), 3 - ctx.ts.complex_dim)
    yield ((), lhs, rhs)


def _check_euler_corr2(ctx: IdentityContext):
    ts = ctx.ts
    shift = Fraction(3 - ts.complex_dim, 2)
    ceta = ts.chern_power_eta(1)
    for m in ctx.levels():
        for a in ctx.classes():
            rhs = ctx.corr((m, a)).scale(m + ts.b[a - 1] + shift)
            for be in ctx.classes():
                c = ts.c1_mat[a - 1][be - 1]
                if c:
                    rhs.add_scaled(ctx.corr((m - 1, be)), c)
            if m == 0:
                for be in ctx.classes():
                    if ceta[a - 1][be - 1]:
                        rhs.add_scaled(ctx.tvar(0, be), ceta[a - 1][be - 1])
            yield ((m, a), ctx.field_series(ctx.field("X"), (m, a)), rhs)


def _check_euler_corr3(ctx: IdentityContext):
    ts = ctx.ts
    ceta = ts.chern_power_eta(1)
    for m in ctx.levels():
        for a in ctx.classes():
            for n in ctx.levels():
                for b in ctx.classes():
                    rhs = ctx.corr((m, a), (n, b)).scale(m + n + ts.b[a - 1] + ts.b[b - 1])
                    if m == 0 and n == 0:
                        rhs.add_scaled(ctx.const(ceta[a - 1][b - 1]))
                    for g in ctx.classes():
                        c = ts.c1_mat[a - 1][g - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((m - 1, g), (n, b)), c)
                        c = ts.c1_mat[b - 1][g - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((m, a), (n - 1, g)), c)
                    yield ((m, a, n, b),
                           ctx.field_series(ctx.field("X"), (m, a), (n, b)), rhs)


# --- section 2.3: recursion relations ----------------------------------------

def _check_trr(ctx: IdentityContext):
    for m in range(1, ctx.idx + 1):
        for a in ctx.classes():
            for n in ctx.levels():
                for b in ctx.classes():
                    for k in ctx.levels():
                        for g in ctx.classes():
                            yield ((m, a, n, b, k, g), ctx.corr((m, a), (n, b), (k, g)),
                                   ctx.pair([(m - 1, a)], [(n, b), (k, g)]))


def _check_gen_wdvv(ctx: IdentityContext):
    vids = [(m, a) for m in ctx.levels() for a in ctx.classes()]
    # Canonical (pair, pair) -> its splitting.  pair(A, B) == pair(B, A) at
    # level 0 unweighted, so both the slot pairs and their order are sorted.
    prods: dict[tuple, TruncatedSeries] = {}
    zero = ctx.zero()

    def canon(a, b, c, d) -> tuple:
        p = (a, b) if a <= b else (b, a)
        q = (c, d) if c <= d else (d, c)
        return (p, q) if p <= q else (q, p)

    for u in vids:
        for v in vids:
            for w in vids:
                for x in vids:
                    kl = canon(u, v, w, x)
                    kr = canon(u, w, v, x)
                    if kl == kr:
                        yield ((*u, *v, *w, *x), zero, zero)
                        continue
                    for key in (kl, kr):
                        if key not in prods:
                            prods[key] = ctx.pair(*key)
                    yield ((*u, *v, *w, *x), prods[kl], prods[kr])


def _check_frr(ctx: IdentityContext):
    ts = ctx.ts
    ceta = ts.chern_power_eta(1)
    mid: dict[tuple[int, int], TruncatedSeries] = {}
    for mu in ctx.classes():
        for nu in ctx.classes():
            m_series = ctx.corr((0, mu), (0, nu)).scale(ts.b[mu - 1] + ts.b[nu - 1])
            if ceta[mu - 1][nu - 1]:
                m_series.add_scaled(ctx.const(ceta[mu - 1][nu - 1]))
            mid[(mu, nu)] = m_series
    for m in ctx.levels():
        for a in ctx.classes():
            for n in ctx.levels():
                for b in ctx.classes():
                    lhs = ctx.zero()
                    for mu in ctx.classes():
                        left = ctx.corr_raised(mu, (m - 1, a))
                        if m == 0:
                            left = left + ctx.const(1 if mu == a else 0)
                        if left.is_zero():
                            continue
                        for nu in ctx.classes():
                            right = ctx.corr_raised(nu, (n - 1, b))
                            if n == 0:
                                right = right + ctx.const(1 if nu == b else 0)
                            if right.is_zero():
                                continue
                            lhs.add_product(series_mul(left, mid[(mu, nu)]), right)
                    rhs = ctx.corr((m, a), (n, b)).scale(m + n + ts.b[a - 1] + ts.b[b - 1])
                    if m == 0 and n == 0:
                        rhs.add_scaled(ctx.const(ceta[a - 1][b - 1]))
                    for s in ctx.classes():
                        c = ts.c1_mat[a - 1][s - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((m - 1, s), (n, b)), c)
                        c = ts.c1_mat[b - 1][s - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((m, a), (n - 1, s)), c)
                    yield ((m, a, n, b), lhs, rhs)


def _check_string_rec(ctx: IdentityContext):
    for m in ctx.levels():
        for a in ctx.classes():
            for n in ctx.levels():
                for b in ctx.classes():
                    lhs = ctx.corr((m, a), (n - 1, b)) + ctx.corr((m - 1, a), (n, b))
                    rhs = ctx.pair([(m - 1, a)], [(n - 1, b)])
                    if m == 0:
                        rhs.add_scaled(ctx.corr((0, a), (n - 1, b)))
                    if n == 0:
                        rhs.add_scaled(ctx.corr((m - 1, a), (0, b)))
                    yield ((m, a, n, b), lhs, rhs)


def _check_swdvv(ctx: IdentityContext):
    for n in (1, 2):
        ln = ctx.field(f"L{n}")
        l0d = ctx.field_minus_kD("L0", n + 1)
        left_factor = {s: ctx.field2_series(ln, l0d, (0, s)) for s in ctx.classes()}
        for k in ctx.levels():
            for mu in ctx.classes():
                ln_k = {s: ctx.field_series(ln, (k, mu), (0, s)) for s in ctx.classes()}
                for l in ctx.levels():
                    for nu in ctx.classes():
                        lhs = ctx.zero()
                        rhs = ctx.zero()
                        for s in ctx.classes():
                            lhs.add_product(left_factor[s], ctx.corr_raised(s, (k, mu), (l, nu)))
                            rhs.add_product(ln_k[s], ctx.field_raised(l0d, s, (l, nu)))
                        yield ((n, k, mu, l, nu), lhs, rhs)


# --- section 4 lemmas ---------------------------------------------------------

def _l0_l0d_rhs_fields(ctx: IdentityContext) -> tuple[LinearTerm, ...]:
    """The ttilde-weighted 2-point sums shared by the Lemma 4.1 right side."""
    return combine_fields((linear_field(ctx.ts, CLOSED_A[1], 0, ctx.policy.max_level), -1))


def _check_xx_corr(ctx: IdentityContext):
    ts = ctx.ts
    l0 = ctx.field("L0")
    l0d = ctx.field_minus_kD("L0", 1)
    ceta = ts.chern_power_eta(1)
    c2, c2eta = ts.chern_power(2), ts.chern_power_eta(2)
    tilde_part = _l0_l0d_rhs_fields(ctx)
    for m in ctx.levels():
        for a in ctx.classes():
            b = ts.b[a - 1]
            lhs = ctx.field2_series(l0, l0d, (m, a))
            rhs = ctx.corr((m, a)).scale((m + b) * (m + b - 1))
            rhs.add_scaled(ctx.field_series(tilde_part, (m, a)))
            for s in ctx.classes():
                c = ts.c1_mat[a - 1][s - 1]
                if c:
                    rhs.add_scaled(ctx.corr((m - 1, s)), (b + ts.b[s - 1] + 2 * m - 2) * c)
                if c2[a - 1][s - 1]:
                    rhs.add_scaled(ctx.corr((m - 2, s)), c2[a - 1][s - 1])
            if m == 0:
                for s in ctx.classes():
                    if ceta[a - 1][s - 1]:
                        rhs.add_scaled(ctx.tvar(0, s), (2 * b - 1) * ceta[a - 1][s - 1])
                    if c2eta[a - 1][s - 1]:
                        rhs.add_scaled(ctx.ttilde(1, s), -c2eta[a - 1][s - 1])
            if m == 1:
                for s in ctx.classes():
                    if c2eta[a - 1][s - 1]:
                        rhs.add_scaled(ctx.tvar(0, s), c2eta[a - 1][s - 1])
            yield ((m, a), lhs, rhs)


def _check_qf1(ctx: IdentityContext):
    ts = ctx.ts
    for k in ctx.levels():
        for mu in ctx.classes():
            bm = ts.b[mu - 1]
            for l in ctx.levels():
                for nu in ctx.classes():
                    bn = ts.b[nu - 1]
                    gap = k + bm - l - bn
                    lhs = ctx.pair([(k, mu)], [(l, nu)],
                                   tuple(b * gap - (k + bm) * (l + bn + 1) for b in ts.b))
                    rhs = ctx.zero()
                    for a in ctx.classes():
                        c = ts.c1_mat[nu - 1][a - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((k, mu), (l, a)), gap * c)
                        c = ts.c1_mat[mu - 1][a - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((k, a), (l, nu)), -gap * c)
                    rhs.add_scaled(ctx.corr((k + 1, mu), (l, nu)), -(k + bm) * (k + bm + 1))
                    rhs.add_scaled(ctx.corr((k, mu), (l + 1, nu)), -(l + bn) * (l + bn + 1))
                    yield ((k, mu, l, nu), lhs, rhs)


def _check_qf2(ctx: IdentityContext):
    ts = ctx.ts
    c2, c2eta = ts.chern_power(2), ts.chern_power_eta(2)
    for k in ctx.levels():
        for mu in ctx.classes():
            bm = ts.b[mu - 1]
            shifted = tuple(k + b + bm for b in ts.b)
            for l in ctx.levels():
                for nu in ctx.classes():
                    bn = ts.b[nu - 1]
                    lhs = ctx.zero()
                    for be in ctx.classes():
                        cnb = ts.c1_mat[nu - 1][be - 1]
                        if not cnb:
                            continue
                        lhs.add_scaled(ctx.pair([(k, mu)], [(l - 1, be)], shifted), cnb)
                        for a in ctx.classes():
                            cma = ts.c1_mat[mu - 1][a - 1]
                            if cma:
                                lhs.add_scaled(ctx.pair([(k - 1, a)], [(l - 1, be)]), cma * cnb)
                    rhs = ctx.zero()
                    for a in ctx.classes():
                        c = ts.c1_mat[nu - 1][a - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((k, mu), (l, a)), (k + bm + l + bn + 1) * c)
                        if c2[nu - 1][a - 1]:
                            rhs.add_scaled(ctx.corr((k, mu), (l - 1, a)), c2[nu - 1][a - 1])
                    for a in ctx.classes():
                        cma = ts.c1_mat[mu - 1][a - 1]
                        if not cma:
                            continue
                        for be in ctx.classes():
                            cnb = ts.c1_mat[nu - 1][be - 1]
                            if cnb:
                                rhs.add_scaled(ctx.corr((k - 1, a), (l, be)), cma * cnb)
                    if k == 0:
                        for a in ctx.classes():
                            cma = ts.c1_mat[mu - 1][a - 1]
                            if not cma:
                                continue
                            for be in ctx.classes():
                                cnb = ts.c1_mat[nu - 1][be - 1]
                                if cnb:
                                    rhs.add_scaled(ctx.corr((0, a), (l - 1, be)), -cma * cnb)
                    if l == 0:
                        for a in ctx.classes():
                            c = ts.c1_mat[nu - 1][a - 1]
                            if c:
                                rhs.add_scaled(
                                    ctx.field_series(ctx.field("X"), (k, mu), (0, a)), -c)
                    if k == 0 and l == 0:
                        rhs.add_scaled(ctx.const(c2eta[mu - 1][nu - 1]))
                    yield ((k, mu, l, nu), lhs, rhs)


def _check_wdvv_right(ctx: IdentityContext):
    ts = ctx.ts
    l0 = ctx.field("L0")
    l0d = ctx.field_minus_kD("L0", 1)
    c2, c2eta = ts.chern_power(2), ts.chern_power_eta(2)
    weights = tuple(b * (1 - b) for b in ts.b)
    for k in ctx.levels():
        for mu in ctx.classes():
            bm = ts.b[mu - 1]
            for l in ctx.levels():
                for nu in ctx.classes():
                    bn = ts.b[nu - 1]
                    lhs = ctx.zero()
                    for a in ctx.classes():
                        lhs.add_product(ctx.field_series(l0, (k, mu), (0, a)),
                                        ctx.field_raised(l0d, a, (l, nu)))
                    rhs = ctx.pair([(k, mu)], [(l, nu)], weights)
                    rhs.add_scaled(ctx.corr((k + 1, mu), (l, nu)), (k + bm) * (k + bm + 1))
                    rhs.add_scaled(ctx.corr((k, mu), (l + 1, nu)), (l + bn) * (l + bn + 1))
                    for a in ctx.classes():
                        c = ts.c1_mat[mu - 1][a - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((k, a), (l, nu)), (2 * k + 2 * bm + 1) * c)
                        c = ts.c1_mat[nu - 1][a - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((k, mu), (l, a)), (2 * l + 2 * bn + 1) * c)
                        if c2[mu - 1][a - 1]:
                            rhs.add_scaled(ctx.corr((k - 1, a), (l, nu)), c2[mu - 1][a - 1])
                        if c2[nu - 1][a - 1]:
                            rhs.add_scaled(ctx.corr((k, mu), (l - 1, a)), c2[nu - 1][a - 1])
                    if k == 0 and l == 0:
                        rhs.add_scaled(ctx.const(c2eta[mu - 1][nu - 1]))
                    yield ((k, mu, l, nu), lhs, rhs)


# --- section 5 lemmas ---------------------------------------------------------

def _check_l1_corr(ctx: IdentityContext):
    ts = ctx.ts
    l1 = ctx.field("L1")
    c2, c2eta = ts.chern_power(2), ts.chern_power_eta(2)
    weights = tuple(b * (b - 1) for b in ts.b)
    for m in ctx.levels():
        for a in ctx.classes():
            ba = ts.b[a - 1]
            for n in ctx.levels():
                for be in ctx.classes():
                    bb = ts.b[be - 1]
                    lhs = ctx.field_series(l1, (m, a), (n, be))
                    rhs = ctx.pair([(m, a), (n, be)], [], weights)
                    rhs.add_scaled(ctx.pair([(m, a)], [(n, be)], weights))
                    rhs.add_scaled(ctx.corr((m + 1, a), (n, be)), -(m + ba) * (m + ba + 1))
                    rhs.add_scaled(ctx.corr((m, a), (n + 1, be)), -(n + bb) * (n + bb + 1))
                    for s in ctx.classes():
                        c = ts.c1_mat[a - 1][s - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((m, s), (n, be)), -(2 * m + 2 * ba + 1) * c)
                        c = ts.c1_mat[be - 1][s - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((m, a), (n, s)), -(2 * n + 2 * bb + 1) * c)
                        if c2[a - 1][s - 1]:
                            rhs.add_scaled(ctx.corr((m - 1, s), (n, be)), -c2[a - 1][s - 1])
                        if c2[be - 1][s - 1]:
                            rhs.add_scaled(ctx.corr((m, a), (n - 1, s)), -c2[be - 1][s - 1])
                    if m == 0 and n == 0:
                        rhs.add_scaled(ctx.const(c2eta[a - 1][be - 1]), -1)
                    yield ((m, a, n, be), lhs, rhs)


def _l1_l0_tilde_fields(ctx: IdentityContext) -> tuple[LinearTerm, ...]:
    """ttilde-weighted sums on the right side of the Lemma 5.2 display."""
    return combine_fields((linear_field(ctx.ts, CLOSED_A[2], 1, ctx.policy.max_level), -1))


def _check_l1_l0_corr(ctx: IdentityContext):
    ts = ctx.ts
    l1 = ctx.field("L1")
    l0d2 = ctx.field_minus_kD("L0", 2)
    c1 = ts.c1_mat
    c2, c3 = ts.chern_power(2), ts.chern_power(3)
    ceta, c2eta, c3eta = (ts.chern_power_eta(1), ts.chern_power_eta(2),
                          ts.chern_power_eta(3))
    tilde_part = _l1_l0_tilde_fields(ctx)
    weights = tuple((1 - bs) * bs for bs in ts.b)
    for n in ctx.levels():
        for be in ctx.classes():
            b = ts.b[be - 1]
            lhs = ctx.field2_series(l1, l0d2, (n, be))
            rhs = ctx.pair([(n, be)], [], weights).scale(n + b - 1)
            rhs.add_scaled(ctx.corr((n + 1, be)), (n + b) * (n + b + 1) * (n + b - 1))
            rhs.add_scaled(ctx.field_series(tilde_part, (n, be)))
            for s in ctx.classes():
                if c1[be - 1][s - 1]:
                    rhs.add_scaled(ctx.corr((n, s)), (3 * (n + b) ** 2 - 1) * c1[be - 1][s - 1])
                    rhs.add_scaled(ctx.pair([(n - 1, s)], [], weights), c1[be - 1][s - 1])
                if c2[be - 1][s - 1]:
                    rhs.add_scaled(ctx.corr((n - 1, s)), 3 * (n + b) * c2[be - 1][s - 1])
                if c3[be - 1][s - 1]:
                    rhs.add_scaled(ctx.corr((n - 2, s)), c3[be - 1][s - 1])
            if n == 0:
                for s in ctx.classes():
                    if ceta[be - 1][s - 1]:
                        rhs.add_scaled(ctx.corr_raised(s), -b * (b + 1) * ceta[be - 1][s - 1])
                    if c2eta[be - 1][s - 1]:
                        rhs.add_scaled(ctx.tvar(0, s), 3 * b * c2eta[be - 1][s - 1])
                    if c3eta[be - 1][s - 1]:
                        rhs.add_scaled(ctx.ttilde(1, s), -c3eta[be - 1][s - 1])
            if n == 1:
                for s in ctx.classes():
                    if c3eta[be - 1][s - 1]:
                        rhs.add_scaled(ctx.tvar(0, s), c3eta[be - 1][s - 1])
            yield ((n, be), lhs, rhs)


def _check_quadrel_i(ctx: IdentityContext):
    x = ctx.field("X")
    for k in ctx.levels():
        for mu in ctx.classes():
            for l in ctx.levels():
                for nu in ctx.classes():
                    lhs = ctx.zero()
                    rhs = ctx.zero()
                    for be in ctx.classes():
                        lhs.add_product(ctx.field_series(x, (k, mu), (1, be)),
                                        ctx.field_raised(x, be, (l, nu)))
                        rhs.add_product(ctx.field_raised(x, be, (k, mu)),
                                        ctx.field_series(x, (1, be), (l, nu)))
                    yield ((k, mu, l, nu), lhs, rhs)


def _check_quadrel_ii(ctx: IdentityContext):
    x = ctx.field("X")
    for k in ctx.levels():
        for mu in ctx.classes():
            for l in ctx.levels():
                for nu in ctx.classes():
                    lhs = ctx.zero()
                    rhs = ctx.zero()
                    for be in ctx.classes():
                        lhs.add_product(ctx.corr_raised(be, (k - 1, mu)),
                                        ctx.field_series(x, (1, be), (l, nu)))
                        rhs.add_product(ctx.corr((k - 1, mu), (1, be)),
                                        ctx.field_raised(x, be, (l, nu)))
                    rhs.add_scaled(ctx.field_series(x, (k + 1, mu), (l, nu)))
                    if k == 0:
                        rhs.add_scaled(ctx.field_series(x, (1, mu), (l, nu)), -1)
                    yield ((k, mu, l, nu), lhs, rhs)


def _check_quadrel_iii(ctx: IdentityContext):
    for k in ctx.levels():
        for mu in ctx.classes():
            for l in ctx.levels():
                for nu in ctx.classes():
                    lhs = ctx.pair([(l, nu)], [(k, mu)], level=1)
                    rhs = ctx.pair([(k, mu)], [(l, nu)], level=1)
                    rhs.add_scaled(ctx.corr((k + 2, mu), (l, nu)))
                    rhs.add_scaled(ctx.corr((k, mu), (l + 2, nu)), -1)
                    yield ((k, mu, l, nu), lhs, rhs)


def _check_quad_form(ctx: IdentityContext):
    ts = ctx.ts
    ceta = ts.chern_power_eta(1)
    c2 = ts.chern_power(2)
    plus = tuple(b * (b + 1) for b in ts.b)
    minus = tuple(b * (1 - b) for b in ts.b)
    for k in ctx.levels():
        for mu in ctx.classes():
            bm = ts.b[mu - 1]
            for l in ctx.levels():
                for nu in ctx.classes():
                    bn = ts.b[nu - 1]
                    lhs = ctx.pair([(k, mu)], [(l, nu)], plus, 1)
                    lhs.add_scaled(ctx.pair([(l, nu)], [(k, mu)], minus, 1))
                    for a in ctx.classes():
                        for be in ctx.classes():
                            c = ceta[a - 1][be - 1]
                            if c:
                                lhs.add_product(ctx.corr_raised(a, (k, mu)),
                                                ctx.corr_raised(be, (l, nu)),
                                                (2 * ts.b[be - 1] + 1) * c)
                    rhs = ctx.corr((k + 2, mu), (l, nu)).scale(-(k + bm) * (k + bm + 1))
                    rhs.add_scaled(ctx.corr((k, mu), (l + 2, nu)), (l + bn + 1) * (l + bn + 2))
                    for a in ctx.classes():
                        c = ts.c1_mat[mu - 1][a - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((k + 1, a), (l, nu)),
                                           -(2 * k + 2 * bm + 1) * c)
                        c = ts.c1_mat[nu - 1][a - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((k, mu), (l + 1, a)), (2 * l + 2 * bn + 3) * c)
                        if c2[mu - 1][a - 1]:
                            rhs.add_scaled(ctx.corr((k, a), (l, nu)), -c2[mu - 1][a - 1])
                        if c2[nu - 1][a - 1]:
                            rhs.add_scaled(ctx.corr((k, mu), (l, a)), c2[nu - 1][a - 1])
                    yield ((k, mu, l, nu), lhs, rhs)


# --- section 6 lemmas ---------------------------------------------------------

def _check_tilde1_corr(ctx: IdentityContext):
    lt1 = ctx.field("Ltilde1")
    for m in ctx.levels():
        for a in ctx.classes():
            rhs = ctx.pair([(m, a)], []).add_scaled(ctx.corr((m + 1, a)), -1)
            yield ((m, a), ctx.field_series(lt1, (m, a)), rhs)
    for m in ctx.levels():
        for a in ctx.classes():
            for n in ctx.levels():
                for b in ctx.classes():
                    yield ((m, a, n, b), ctx.field_series(lt1, (m, a), (n, b)),
                           ctx.pair([(m, a), (n, b)], []))


def _check_tilde_quad_form(ctx: IdentityContext):
    ts = ctx.ts
    for m in ctx.levels():
        for a in ctx.classes():
            ba = ts.b[a - 1]
            for n in ctx.levels():
                for be in ctx.classes():
                    bb = ts.b[be - 1]
                    lhs = ctx.pair([(n, be)], [(m, a)], ts.b, 1)
                    lhs.add_scaled(ctx.pair([(m, a)], [(n, be)], ts.b, 1))
                    rhs = ctx.corr((m + 2, a), (n, be)).scale(m + ba + 1)
                    rhs.add_scaled(ctx.corr((m, a), (n + 2, be)), n + bb + 1)
                    for s in ctx.classes():
                        c = ts.c1_mat[a - 1][s - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((m + 1, s), (n, be)), c)
                        c = ts.c1_mat[be - 1][s - 1]
                        if c:
                            rhs.add_scaled(ctx.corr((m, a), (n + 1, s)), c)
                    for s in ctx.classes():
                        for r in ctx.classes():
                            c = ts.c1_mat[s - 1][r - 1]
                            if c:
                                rhs.add_product(ctx.corr_raised(s, (m, a)),
                                                ctx.corr((0, r), (n, be)), -c)
                    yield ((m, a, n, be), lhs, rhs)


# --- closed-form coefficient agreement ----------------------------------------

def _check_psi_closed_form(ctx: IdentityContext, n: int):
    ts = ctx.ts
    for a in ctx.classes():
        b = ts.b[a - 1]
        for m in range(ctx.idx + 3):
            for j, poly in enumerate(CLOSED_A[n]):
                yield ((a, m, "A", j), ctx.const(coeff_A(b, j, m, n)), ctx.const(poly(m + b)))
        if n == 1:
            quads = {(0, 0): b * (1 - b)}
        else:
            quads = {
                (0, 0): -(b - 1) * b * (b + 1),
                (0, 1): (b - 2) * (b - 1) * b,
                (1, 0): -(3 * b * b - 1),
            }
        for (j, k), expect in quads.items():
            got = coeff_B(b, j, k, n)
            yield ((a, "B", j, k), ctx.const(got), ctx.const(expect))
    yield (("series", n), _psi_generic(ctx, n), _psi_closed_form(ctx, n))


REGISTRY: dict[str, Checker] = {
    "StringEq": partial(_operator_route, n=-1),
    "StringCorr1": _check_string_corr1,
    "StringCorr2": _check_string_corr2,
    "StringCorr3": _check_string_corr3,
    "DilatonCorr1": _check_dilaton_corr1,
    "DilatonCorr2": _check_dilaton_corr2,
    "DilatonCorr3": _check_dilaton_corr3,
    "QuasiHomog": _check_quasi_homog,
    "EulerCorr1": _check_euler_corr1,
    "EulerCorr2": _check_euler_corr2,
    "EulerCorr3": _check_euler_corr3,
    "HoriL0": partial(_operator_route, n=0),
    "TRR": _check_trr,
    "GenWDVV": _check_gen_wdvv,
    "FRR": _check_frr,
    "StringRec": _check_string_rec,
    "SWDVV": _check_swdvv,
    "XXCorr": _check_xx_corr,
    "QF1": _check_qf1,
    "QF2": _check_qf2,
    "WDVVRight": _check_wdvv_right,
    "L1Corr": _check_l1_corr,
    "L1L0Corr": _check_l1_l0_corr,
    "QuadRel_i": _check_quadrel_i,
    "QuadRel_ii": _check_quadrel_ii,
    "QuadRel_iii": _check_quadrel_iii,
    "QuadForm": _check_quad_form,
    "Tilde1Corr": _check_tilde1_corr,
    "TildeQuadForm": _check_tilde_quad_form,
    "PsiClosedForm1": partial(_check_psi_closed_form, n=1),
    "PsiClosedForm2": partial(_check_psi_closed_form, n=2),
}

IDENTITY_TAGS = tuple(REGISTRY)


def verify_identity(ts_or_engine, tag: str, policy: TruncationPolicy,
                    backend=None, cache=None, idx_max: int | None = None,
                    ctx: IdentityContext | None = None) -> list[IdentityFinding]:
    """Evaluate one tagged identity over all index tuples; exact comparison."""
    if tag not in REGISTRY:
        raise UnknownIdentity(f"unknown identity tag {tag!r}")
    if ctx is None:
        ctx = IdentityContext(_as_engine(ts_or_engine, backend, cache), policy, idx_max)
    findings: list[IdentityFinding] = []
    for indices, lhs, rhs in REGISTRY[tag](ctx):
        if lhs == rhs:
            findings.append(IdentityFinding(tag, indices, "pass"))
        else:
            mon, _ = (lhs - rhs).items_sorted()[0]
            findings.append(IdentityFinding(
                tag, indices, "fail", render_monomial(mon),
                format_rational(lhs.coefficient(mon)), format_rational(rhs.coefficient(mon))))
    return findings
