"""Machine-checkable registry of correlator identities.

Each tag is a generator over the free index tuples of one identity
(descendent levels up to the policy level bound minus one, all class
indices; ``IdentityContext.slots`` enumerates them).  For every tuple it
yields ``(indices, lhs, rhs)``, where each side is a term list as
``CorrContext.evaluate`` reads it: ``(coeff, factor[, factor])`` terms whose
factors are specs naming correlation series, raised series, vector-field
contractions, genus-0 splittings (``pair``), nested term lists (``sum``),
classical quadratic forms, operator residuals, the Psi forms, the constant
1, ``t`` or ``ttilde``.  A product of three factors is a ``sum`` of
two-factor terms times the third.  A spec names its vector field (``"X"``,
``"L1"``, ``("L0", k)`` for L_0 - k D, ...) as ``CorrContext.field`` reads
it.  Vector-field slots inside double brackets are tensor
contractions: the field expands into its ttilde-weighted sum of derivative
slots under the same policy.

``verify_identity`` evaluates both lists on the context it is given (tags
verified together share one) and compares them exactly, reporting per-tuple pass/fail with the first failing
coefficient.  The products a tag names live until that tag ends; every
other factor lives as long as the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator

from .engine import Engine
from .errors import ParseError
from .rationals import format_rational
# ``series_mul`` is unused here, but the benchmark's tracer rebinds it in
# every module that imports it, and its self-test expects this one.
from .series import Monomial, TruncatedSeries, TruncationPolicy, series_mul  # noqa: F401
from .target import row
from .virasoro import CLOSED_A, CorrContext, apply_operator, build_operator, coeff_A, coeff_B

ONE = ("one",)

Terms = list[tuple]
Check = tuple[tuple, Terms, Terms]
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
    """CorrContext plus the index ranges and factors the lemmas use."""

    def __init__(self, engine: Engine, policy: TruncationPolicy):
        super().__init__(engine, policy)
        self.idx = max(policy.max_level - 1, 0)

    def classes(self) -> range:
        return range(1, self.ts.classes + 1)

    def levels(self) -> range:
        return range(self.idx + 1)

    def slots(self, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
        """Every k-tuple of free (level, class) slots, in k nested loops' order."""
        return product([(m, a) for m in self.levels() for a in self.classes()], repeat=k)

    def operator_residual(self, n: int) -> TruncatedSeries:
        """The genus-0 residual of L_n against F_0, which vanishes identically.

        F_0 keeps level 1 even at max_level 0: L_0's source ttilde^1_1, kept
        for its dilaton shift, differentiates F_0 at level 1.
        """
        policy = self.policy
        big = TruncationPolicy(policy.max_insertions + 1, max(policy.max_level, 1),
                               policy.max_degree)
        f0 = self.engine.correlation_series((), big)
        return apply_operator(build_operator(self.ts, n, policy.max_level), f0, policy)


# --- section 2 lemmas ---------------------------------------------------------

def _operator_route(ctx: IdentityContext, n: int):
    yield ((), [(1, ("operator_residual", n))], [])


def _check_string_corr1(ctx: IdentityContext):
    yield ((), [(1, ("field_series", "S"))], [(1, ("classical", 0))])


def _check_string_corr2(ctx: IdentityContext):
    for (m, a), in ctx.slots(1):
        rhs = [(1, ("corr", (m - 1, a)))]
        if m == 0:
            rhs += [(c, ("t", 0, b)) for b, c in row(ctx.ts.eta, a)]
        yield ((m, a), [(1, ("field_series", "S", (m, a)))], rhs)


def _check_string_corr3(ctx: IdentityContext):
    for (m, a), (n, b) in ctx.slots(2):
        rhs = [(1, ("corr", (m, a), (n - 1, b))), (1, ("corr", (m - 1, a), (n, b)))]
        if m == 0 and n == 0:
            rhs.append((ctx.ts.eta[a - 1][b - 1], ONE))
        yield ((m, a, n, b), [(1, ("field_series", "S", (m, a), (n, b)))], rhs)


def _check_dilaton_corr1(ctx: IdentityContext):
    yield ((), [(1, ("field_series", "D"))], [(-2, ("corr",))])


def _check_dilaton_corr2(ctx: IdentityContext):
    for (m, a), in ctx.slots(1):
        yield ((m, a), [(1, ("field_series", "D", (m, a)))], [(-1, ("corr", (m, a)))])


def _check_dilaton_corr3(ctx: IdentityContext):
    for (m, a), (n, b) in ctx.slots(2):
        yield ((m, a, n, b), [(1, ("field_series", "D", (m, a), (n, b)))], [])


def _quasi_homog_rhs(ctx: IdentityContext) -> Terms:
    """<<X>> written out: 1/2 (C eta)_{ab} t^a_0 t^b_0 + (3 - d) <<>>."""
    return [(1, ("classical", 1)), (3 - ctx.ts.complex_dim, ("corr",))]


def _check_quasi_homog(ctx: IdentityContext):
    yield ((), [(1, ("field_series", "X"))], _quasi_homog_rhs(ctx))


def _check_euler_corr1(ctx: IdentityContext):
    # Same statement as QuasiHomog, exercised through the tensor-slot route
    # with X recombined as -(L0 + (3-d)/2 D).
    shift = Fraction(3 - ctx.ts.complex_dim, 2)
    yield ((), [(-1, ("field_series", ("L0", -shift)))], _quasi_homog_rhs(ctx))


def _check_euler_corr2(ctx: IdentityContext):
    ts = ctx.ts
    shift = Fraction(3 - ts.complex_dim, 2)
    for (m, a), in ctx.slots(1):
        rhs = [(m + ts.b[a - 1] + shift, ("corr", (m, a)))]
        rhs += [(c, ("corr", (m - 1, s))) for s, c in row(ts.c1_mat, a)]
        if m == 0:
            rhs += [(c, ("t", 0, s)) for s, c in row(ts.chern_power_eta(1), a)]
        yield ((m, a), [(1, ("field_series", "X", (m, a)))], rhs)


def _euler3_rhs(ctx: IdentityContext, m: int, a: int, n: int, b: int) -> Terms:
    """<<X tau_m(O_a) tau_n(O_b)>> written out; EulerCorr3 and FRR share it."""
    ts = ctx.ts
    rhs = [(m + n + ts.b[a - 1] + ts.b[b - 1], ("corr", (m, a), (n, b)))]
    rhs += [(c, ("corr", (m - 1, s), (n, b))) for s, c in row(ts.c1_mat, a)]
    rhs += [(c, ("corr", (m, a), (n - 1, s))) for s, c in row(ts.c1_mat, b)]
    if m == 0 and n == 0:
        rhs.append((ts.chern_power_eta(1)[a - 1][b - 1], ONE))
    return rhs


def _check_euler_corr3(ctx: IdentityContext):
    for (m, a), (n, b) in ctx.slots(2):
        yield ((m, a, n, b), [(1, ("field_series", "X", (m, a), (n, b)))],
               _euler3_rhs(ctx, m, a, n, b))


# --- section 2.3: recursion relations ----------------------------------------

def _check_trr(ctx: IdentityContext):
    for (m, a), (n, b), (k, g) in ctx.slots(3):
        if m:
            yield ((m, a, n, b, k, g),
                   [(1, ("corr", (m, a), (n, b), (k, g)))],
                   [(1, ("pair", ((m - 1, a),), ((n, b), (k, g))))])


def _check_gen_wdvv(ctx: IdentityContext):
    # pair(A, B) == pair(B, A) at level 0 unweighted, so both the slot pairs
    # and their order are sorted, and each splitting is built once per tag.
    def canon(a, b, c, d) -> tuple:
        p = (a, b) if a <= b else (b, a)
        q = (c, d) if c <= d else (d, c)
        return (p, q) if p <= q else (q, p)

    for u, v, w, x in ctx.slots(4):
        kl = canon(u, v, w, x)
        kr = canon(u, w, v, x)
        if kl == kr:
            yield ((*u, *v, *w, *x), [], [])
        else:
            yield ((*u, *v, *w, *x), [(1, ("pair", *kl))], [(1, ("pair", *kr))])


def _check_frr(ctx: IdentityContext):
    ts = ctx.ts
    ceta = ts.chern_power_eta(1)

    def side(m: int, a: int, mu: int) -> tuple:
        """<<O^mu tau_{m-1}(O_a)>> + delta_{m,0} delta_{mu,a}."""
        return ("sum", (1, ("corr_raised", mu, (m - 1, a))), (int(m == 0 and mu == a), ONE))

    def mid(mu: int, nu: int) -> tuple:
        """(b_mu + b_nu) <<tau_0(O_mu) tau_0(O_nu)>> + (C eta)_{mu nu}."""
        return ("sum", (ts.b[mu - 1] + ts.b[nu - 1], ("corr", (0, mu), (0, nu))),
                (ceta[mu - 1][nu - 1], ONE))

    def inner(m: int, a: int, nu: int) -> tuple:
        """sum_mu side(m, a, mu) mid(mu, nu), shared by every (n, b)."""
        return ("sum", *((1, side(m, a, mu), mid(mu, nu)) for mu in ctx.classes()))

    # sum_{mu,nu} side(m,a,mu) mid(mu,nu) side(n,b,nu), summed over mu first:
    # a truncated product drops only monomials no further factor brings
    # back, so it stays associative.
    for (m, a), (n, b) in ctx.slots(2):
        lhs = [(1, inner(m, a, nu), side(n, b, nu)) for nu in ctx.classes()]
        yield ((m, a, n, b), lhs, _euler3_rhs(ctx, m, a, n, b))


def _check_string_rec(ctx: IdentityContext):
    for (m, a), (n, b) in ctx.slots(2):
        yield ((m, a, n, b),
               [(1, ("corr", (m, a), (n - 1, b))), (1, ("corr", (m - 1, a), (n, b)))],
               [(1, ("pair", ((m - 1, a),), ((n - 1, b),))),
                (int(m == 0), ("corr", (0, a), (n - 1, b))),
                (int(n == 0), ("corr", (m - 1, a), (0, b)))])


def _check_swdvv(ctx: IdentityContext):
    for n in (1, 2):
        ln, l0d = f"L{n}", ("L0", n + 1)
        for (k, mu), (l, nu) in ctx.slots(2):
            yield ((n, k, mu, l, nu),
                   [(1, ("field2_series", ln, l0d, (0, s)),
                     ("corr_raised", s, (k, mu), (l, nu))) for s in ctx.classes()],
                   [(1, ("field_series", ln, (k, mu), (0, s)),
                     ("field_raised", l0d, s, (l, nu))) for s in ctx.classes()])


# --- section 4 lemmas ---------------------------------------------------------

def _check_xx_corr(ctx: IdentityContext):
    ts = ctx.ts
    ceta = ts.chern_power_eta(1)
    c2, c2eta = ts.chern_power(2), ts.chern_power_eta(2)
    for (m, a), in ctx.slots(1):
        b = ts.b[a - 1]
        rhs = [((m + b) * (m + b - 1), ("corr", (m, a))),
               (-1, ("field_series", "XXTilde", (m, a)))]
        rhs += [((b + ts.b[s - 1] + 2 * m - 2) * c, ("corr", (m - 1, s)))
                for s, c in row(ts.c1_mat, a)]
        rhs += [(c, ("corr", (m - 2, s))) for s, c in row(c2, a)]
        if m == 0:
            rhs += [((2 * b - 1) * c, ("t", 0, s)) for s, c in row(ceta, a)]
            rhs += [(-c, ("ttilde", 1, s)) for s, c in row(c2eta, a)]
        if m == 1:
            rhs += [(c, ("t", 0, s)) for s, c in row(c2eta, a)]
        yield ((m, a), [(1, ("field2_series", "L0", ("L0", 1), (m, a)))], rhs)


def _check_qf1(ctx: IdentityContext):
    ts = ctx.ts
    for (k, mu), (l, nu) in ctx.slots(2):
        bm, bn = ts.b[mu - 1], ts.b[nu - 1]
        gap = k + bm - l - bn
        weights = tuple(b * gap - (k + bm) * (l + bn + 1) for b in ts.b)
        rhs = [(gap * c, ("corr", (k, mu), (l, a))) for a, c in row(ts.c1_mat, nu)]
        rhs += [(-gap * c, ("corr", (k, a), (l, nu))) for a, c in row(ts.c1_mat, mu)]
        rhs += [(-(k + bm) * (k + bm + 1), ("corr", (k + 1, mu), (l, nu))),
                (-(l + bn) * (l + bn + 1), ("corr", (k, mu), (l + 1, nu)))]
        yield ((k, mu, l, nu), [(1, ("pair", ((k, mu),), ((l, nu),), weights))], rhs)


def _check_qf2(ctx: IdentityContext):
    ts = ctx.ts
    c1, c2, c2eta = ts.c1_mat, ts.chern_power(2), ts.chern_power_eta(2)
    for (k, mu), (l, nu) in ctx.slots(2):
        bm, bn = ts.b[mu - 1], ts.b[nu - 1]
        shifted = tuple(k + b + bm for b in ts.b)
        lhs = [(cnb, ("pair", ((k, mu),), ((l - 1, be),), shifted))
               for be, cnb in row(c1, nu)]
        lhs += [(cma * cnb, ("pair", ((k - 1, a),), ((l - 1, be),)))
                for be, cnb in row(c1, nu) for a, cma in row(c1, mu)]
        rhs = [((k + bm + l + bn + 1) * c, ("corr", (k, mu), (l, a)))
               for a, c in row(c1, nu)]
        rhs += [(c, ("corr", (k, mu), (l - 1, a))) for a, c in row(c2, nu)]
        rhs += [(cma * cnb, ("corr", (k - 1, a), (l, be)))
                for a, cma in row(c1, mu) for be, cnb in row(c1, nu)]
        if k == 0:
            rhs += [(-cma * cnb, ("corr", (0, a), (l - 1, be)))
                    for a, cma in row(c1, mu) for be, cnb in row(c1, nu)]
        if l == 0:
            rhs += [(-c, ("field_series", "X", (k, mu), (0, a))) for a, c in row(c1, nu)]
        if k == 0 and l == 0:
            rhs.append((c2eta[mu - 1][nu - 1], ONE))
        yield ((k, mu, l, nu), lhs, rhs)


def _check_wdvv_right(ctx: IdentityContext):
    ts = ctx.ts
    c1, c2, c2eta = ts.c1_mat, ts.chern_power(2), ts.chern_power_eta(2)
    weights = tuple(b * (1 - b) for b in ts.b)
    for (k, mu), (l, nu) in ctx.slots(2):
        bm, bn = ts.b[mu - 1], ts.b[nu - 1]
        lhs = [(1, ("field_series", "L0", (k, mu), (0, a)),
                ("field_raised", ("L0", 1), a, (l, nu))) for a in ctx.classes()]
        rhs = [(1, ("pair", ((k, mu),), ((l, nu),), weights)),
               ((k + bm) * (k + bm + 1), ("corr", (k + 1, mu), (l, nu))),
               ((l + bn) * (l + bn + 1), ("corr", (k, mu), (l + 1, nu)))]
        rhs += [((2 * k + 2 * bm + 1) * c, ("corr", (k, a), (l, nu))) for a, c in row(c1, mu)]
        rhs += [((2 * l + 2 * bn + 1) * c, ("corr", (k, mu), (l, a))) for a, c in row(c1, nu)]
        rhs += [(c, ("corr", (k - 1, a), (l, nu))) for a, c in row(c2, mu)]
        rhs += [(c, ("corr", (k, mu), (l - 1, a))) for a, c in row(c2, nu)]
        if k == 0 and l == 0:
            rhs.append((c2eta[mu - 1][nu - 1], ONE))
        yield ((k, mu, l, nu), lhs, rhs)


# --- section 5 lemmas ---------------------------------------------------------

def _check_l1_corr(ctx: IdentityContext):
    ts = ctx.ts
    c1, c2, c2eta = ts.c1_mat, ts.chern_power(2), ts.chern_power_eta(2)
    weights = tuple(b * (b - 1) for b in ts.b)
    for (m, a), (n, be) in ctx.slots(2):
        ba, bb = ts.b[a - 1], ts.b[be - 1]
        rhs = [(1, ("pair", ((m, a), (n, be)), (), weights)),
               (1, ("pair", ((m, a),), ((n, be),), weights)),
               (-(m + ba) * (m + ba + 1), ("corr", (m + 1, a), (n, be))),
               (-(n + bb) * (n + bb + 1), ("corr", (m, a), (n + 1, be)))]
        rhs += [(-(2 * m + 2 * ba + 1) * c, ("corr", (m, s), (n, be))) for s, c in row(c1, a)]
        rhs += [(-(2 * n + 2 * bb + 1) * c, ("corr", (m, a), (n, s))) for s, c in row(c1, be)]
        rhs += [(-c, ("corr", (m - 1, s), (n, be))) for s, c in row(c2, a)]
        rhs += [(-c, ("corr", (m, a), (n - 1, s))) for s, c in row(c2, be)]
        if m == 0 and n == 0:
            rhs.append((-c2eta[a - 1][be - 1], ONE))
        yield ((m, a, n, be), [(1, ("field_series", "L1", (m, a), (n, be)))], rhs)


def _check_l1_l0_corr(ctx: IdentityContext):
    ts = ctx.ts
    c1, c2, c3 = ts.c1_mat, ts.chern_power(2), ts.chern_power(3)
    ceta, c2eta, c3eta = (ts.chern_power_eta(1), ts.chern_power_eta(2),
                          ts.chern_power_eta(3))
    weights = tuple((1 - bs) * bs for bs in ts.b)
    for (n, be), in ctx.slots(1):
        b = ts.b[be - 1]
        rhs = [(n + b - 1, ("pair", ((n, be),), (), weights)),
               ((n + b) * (n + b + 1) * (n + b - 1), ("corr", (n + 1, be))),
               (-1, ("field_series", "L1L0Tilde", (n, be)))]
        rhs += [((3 * (n + b) ** 2 - 1) * c, ("corr", (n, s))) for s, c in row(c1, be)]
        rhs += [(c, ("pair", ((n - 1, s),), (), weights)) for s, c in row(c1, be)]
        rhs += [(3 * (n + b) * c, ("corr", (n - 1, s))) for s, c in row(c2, be)]
        rhs += [(c, ("corr", (n - 2, s))) for s, c in row(c3, be)]
        if n == 0:
            rhs += [(-b * (b + 1) * c, ("corr_raised", s)) for s, c in row(ceta, be)]
            rhs += [(3 * b * c, ("t", 0, s)) for s, c in row(c2eta, be)]
            rhs += [(-c, ("ttilde", 1, s)) for s, c in row(c3eta, be)]
        if n == 1:
            rhs += [(c, ("t", 0, s)) for s, c in row(c3eta, be)]
        yield ((n, be), [(1, ("field2_series", "L1", ("L0", 2), (n, be)))], rhs)


def _check_quadrel_i(ctx: IdentityContext):
    for (k, mu), (l, nu) in ctx.slots(2):
        yield ((k, mu, l, nu),
               [(1, ("field_series", "X", (k, mu), (1, be)),
                 ("field_raised", "X", be, (l, nu))) for be in ctx.classes()],
               [(1, ("field_raised", "X", be, (k, mu)),
                 ("field_series", "X", (1, be), (l, nu))) for be in ctx.classes()])


def _check_quadrel_ii(ctx: IdentityContext):
    for (k, mu), (l, nu) in ctx.slots(2):
        lhs = [(1, ("corr_raised", be, (k - 1, mu)),
                ("field_series", "X", (1, be), (l, nu))) for be in ctx.classes()]
        rhs = [(1, ("corr", (k - 1, mu), (1, be)),
                ("field_raised", "X", be, (l, nu))) for be in ctx.classes()]
        rhs += [(1, ("field_series", "X", (k + 1, mu), (l, nu))),
                (-int(k == 0), ("field_series", "X", (1, mu), (l, nu)))]
        yield ((k, mu, l, nu), lhs, rhs)


def _check_quadrel_iii(ctx: IdentityContext):
    for (k, mu), (l, nu) in ctx.slots(2):
        yield ((k, mu, l, nu),
               [(1, ("pair", ((l, nu),), ((k, mu),), None, 1))],
               [(1, ("pair", ((k, mu),), ((l, nu),), None, 1)),
                (1, ("corr", (k + 2, mu), (l, nu))),
                (-1, ("corr", (k, mu), (l + 2, nu)))])


def _check_quad_form(ctx: IdentityContext):
    ts = ctx.ts
    c1, ceta, c2 = ts.c1_mat, ts.chern_power_eta(1), ts.chern_power(2)
    plus = tuple(b * (b + 1) for b in ts.b)
    minus = tuple(b * (1 - b) for b in ts.b)
    for (k, mu), (l, nu) in ctx.slots(2):
        bm, bn = ts.b[mu - 1], ts.b[nu - 1]
        lhs = [(1, ("pair", ((k, mu),), ((l, nu),), plus, 1)),
               (1, ("pair", ((l, nu),), ((k, mu),), minus, 1))]
        lhs += [((2 * ts.b[be - 1] + 1) * c, ("corr_raised", a, (k, mu)),
                 ("corr_raised", be, (l, nu)))
                for a in ctx.classes() for be, c in row(ceta, a)]
        rhs = [(-(k + bm) * (k + bm + 1), ("corr", (k + 2, mu), (l, nu))),
               ((l + bn + 1) * (l + bn + 2), ("corr", (k, mu), (l + 2, nu)))]
        rhs += [(-(2 * k + 2 * bm + 1) * c, ("corr", (k + 1, a), (l, nu))) for a, c in row(c1, mu)]
        rhs += [((2 * l + 2 * bn + 3) * c, ("corr", (k, mu), (l + 1, a))) for a, c in row(c1, nu)]
        rhs += [(-c, ("corr", (k, a), (l, nu))) for a, c in row(c2, mu)]
        rhs += [(c, ("corr", (k, mu), (l, a))) for a, c in row(c2, nu)]
        yield ((k, mu, l, nu), lhs, rhs)


# --- section 6 lemmas ---------------------------------------------------------

def _check_tilde1_corr(ctx: IdentityContext):
    for (m, a), in ctx.slots(1):
        yield ((m, a), [(1, ("field_series", "Ltilde1", (m, a)))],
               [(1, ("pair", ((m, a),), ())), (-1, ("corr", (m + 1, a)))])
    for (m, a), (n, b) in ctx.slots(2):
        yield ((m, a, n, b), [(1, ("field_series", "Ltilde1", (m, a), (n, b)))],
               [(1, ("pair", ((m, a), (n, b)), ()))])


def _check_tilde_quad_form(ctx: IdentityContext):
    ts = ctx.ts
    c1 = ts.c1_mat
    for (m, a), (n, be) in ctx.slots(2):
        ba, bb = ts.b[a - 1], ts.b[be - 1]
        lhs = [(1, ("pair", ((n, be),), ((m, a),), ts.b, 1)),
               (1, ("pair", ((m, a),), ((n, be),), ts.b, 1))]
        rhs = [(m + ba + 1, ("corr", (m + 2, a), (n, be))),
               (n + bb + 1, ("corr", (m, a), (n + 2, be)))]
        rhs += [(c, ("corr", (m + 1, s), (n, be))) for s, c in row(c1, a)]
        rhs += [(c, ("corr", (m, a), (n + 1, s))) for s, c in row(c1, be)]
        rhs += [(-c, ("corr_raised", s, (m, a)), ("corr", (0, r), (n, be)))
                for s in ctx.classes() for r, c in row(c1, s)]
        yield ((m, a, n, be), lhs, rhs)


# --- closed-form coefficient agreement ----------------------------------------

def _check_psi_closed_form(ctx: IdentityContext, n: int):
    ts = ctx.ts
    for a in ctx.classes():
        b = ts.b[a - 1]
        for m in range(ctx.idx + 3):
            for j, poly in enumerate(CLOSED_A[n]):
                yield ((a, m, "A", j), [(coeff_A(b, j, m, n), ONE)], [(poly(m + b), ONE)])
        if n == 1:
            quads = {(0, 0): b * (1 - b)}
        else:
            quads = {
                (0, 0): -(b - 1) * b * (b + 1),
                (0, 1): (b - 2) * (b - 1) * b,
                (1, 0): -(3 * b * b - 1),
            }
        for (j, k), expect in quads.items():
            yield ((a, "B", j, k), [(coeff_B(b, j, k, n), ONE)], [(expect, ONE)])
    yield (("series", n), [(1, ("psi_generic", n))], [(1, ("psi_closed", n))])


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


def verify_identity(ctx: IdentityContext, tag: str) -> list[IdentityFinding]:
    """Evaluate one tagged identity over all index tuples of ``ctx``; exact comparison.

    The context holds the engine and the policy; tags verified on one
    context share its correlation series.
    """
    if tag not in REGISTRY:
        raise ParseError(f"unknown identity tag {tag!r}")
    findings: list[IdentityFinding] = []
    try:
        for indices, lhs_terms, rhs_terms in REGISTRY[tag](ctx):
            lhs, rhs = ctx.evaluate(lhs_terms), ctx.evaluate(rhs_terms)
            if lhs == rhs:
                findings.append(IdentityFinding(tag, indices, "pass"))
            else:
                mon, _ = (lhs - rhs).items_sorted()[0]
                findings.append(IdentityFinding(
                    tag, indices, "fail", render_monomial(mon),
                    format_rational(lhs.coefficient(mon)), format_rational(rhs.coefficient(mon))))
    finally:
        ctx.products.clear()
    return findings
