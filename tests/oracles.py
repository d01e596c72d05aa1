"""Independent oracles the main code must reproduce.

These deliberately avoid the engine's reduction machinery: the point oracle
uses only the string equation, the plane-curve oracle solves the quantum
associativity equation order by order with generic truncated polynomial
arithmetic, the Gamma oracle evaluates the literal Gamma-ratio formulas as
telescoping products, and ``complement_product_sum`` sums the A and B
coefficients subset by subset.  ``monomial_mul`` multiplies two unpacked
monomials, the reference the packed series keys are checked against.
``operator_action`` applies a Virasoro operator to a polynomial term by term,
the reference the closed-form commutator bracket is checked against.
``divisor_reduce`` is the forward divisor equation, a second route to a value
the engine reaches only by the inverse one.  ``written_out`` writes the rows
the engine's rules hand the reducer out as a term list, and ``trr_reduce``
is TRR's rows written out: the references the row-summing reducer, the full
TRR expansion and the full WDVV expansion are checked against.
``split_table_terms`` lists the genus-0 splitting's (sigma, degree split,
rho) triples by brute force, the reference each degree's split table is
checked against.  ``j_function_one_point`` and ``j_function_two_point``
read the one-point descendants of products of projective spaces, and the
two-point descendants of P^n with a primary H^j, off Givental's J-function,
with no step of the reducer's; ``two_descendants`` builds every two-point
descendant of P^n from those through Givental's two-point function.
``schubert_degree_one`` gives P^n's
degree-1 primary invariants as Schubert numbers on the Grassmannian of
lines, by the Pieri rule.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

from gwvir.engine import CorrelatorKey, SplitRow, _lowering_terms, _trr_rows
from gwvir.errors import NotApplicable
from gwvir.series import Monomial, TruncatedSeries, VarId, series_derive


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a.exps)
    for v, e in b.exps:
        exps[v] = exps.get(v, 0) + e
    degree = tuple(x + y for x, y in zip(a.degree, b.degree))
    return Monomial(tuple(sorted(exps.items())), degree)


def divisor_reduce(ts, key: CorrelatorKey, divisor_cls: int
                   ) -> list[tuple[CorrelatorKey, Fraction]]:
    """Divisor equation for a level-0 divisor insertion at nonzero degree."""
    ins, deg = key
    div = VarId(0, divisor_cls)
    if div not in ins:
        raise NotApplicable("divisor insertion not present at level 0")
    if not any(deg):
        raise NotApplicable("forward divisor equation used only at nonzero degree")
    vec = dict(ts.divisors).get(divisor_cls)
    if vec is None:
        raise NotApplicable(f"class {divisor_cls} is not a listed divisor")
    pairing = Fraction(sum(p * d for p, d in zip(vec, deg)))
    at = ins.index(div)
    rest = ins[:at] + ins[at + 1:]
    return [(CorrelatorKey(rest, deg), pairing)] + _lowering_terms(ts, rest, deg, divisor_cls)


def written_out(rows: Iterable[SplitRow]
                ) -> list[tuple[int | Fraction, CorrelatorKey, CorrelatorKey | None]]:
    """The terms (coeff, key1, key2) the engine's rows stand for, in order.

    A row (key1, halves, partners, ways, deg2) gives the term
    (eta^{sigma rho} * ways, key1, key2) of each (rho, eta^{sigma rho}) in
    ``partners``, key2 being ``halves`` and rho sorted together at ``deg2``;
    a single-key row (partners None) gives (ways, key1, None).  Each term is
    coeff * <key1> (* <key2>).
    """
    terms = []
    for key1, halves, partners, ways, deg2 in rows:
        if partners is None:
            terms.append((ways, key1, None))
        else:
            terms.extend((eta_inv * ways, key1,
                          CorrelatorKey(tuple(sorted(halves + (var_r,))), deg2))
                         for var_r, eta_inv in partners)
    return terms


def trr_reduce(ts, key: CorrelatorKey, chosen: int
               ) -> list[tuple[int | Fraction, CorrelatorKey, CorrelatorKey]]:
    """Genus-0 topological recursion relation at coefficient level.

    The terms (eta^{sigma rho} * binomial, key1, key2) of TRR on ``key``'s
    insertion ``chosen``: the engine's ``_trr_rows`` written out, only those
    whose two keys are both dimension-admissible, both keys canonical.  The
    reducer sums the same rows without writing them out.
    """
    return written_out(_trr_rows(ts, key, chosen))


def split_table_terms(ts, deg: tuple[int, ...]) -> dict[tuple[int, int], list[tuple]]:
    """The terms of the genus-0 splitting at degree ``deg``, by brute force.

    Every (tau_0(O_sigma), deg1, deg2, tau_0(O_rho), eta^{sigma rho}) with
    deg1 + deg2 = deg and eta^{sigma rho} nonzero, filed under the balances
    (c1 . deg1 - (q_sigma - 1), c1 . deg2 - (q_rho - 1)) that make both keys
    admissible.  Each list is in sigma order, then deg1 with its first
    coordinate fastest, then rho order.
    """
    def pairing(d):
        return sum(x * c for x, c in zip(d, ts.c1_deg))

    degrees = sorted(itertools.product(*(range(d + 1) for d in deg)), key=lambda d: d[::-1])
    terms: dict[tuple[int, int], list[tuple]] = {}
    for sigma in range(1, ts.classes + 1):
        for deg1 in degrees:
            deg2 = tuple(d - a for d, a in zip(deg, deg1))
            for rho in range(1, ts.classes + 1):
                eta_inv = ts.eta_inv[sigma - 1][rho - 1]
                if eta_inv:
                    balances = (pairing(deg1) - ts.q[sigma - 1] + 1,
                                pairing(deg2) - ts.q[rho - 1] + 1)
                    terms.setdefault(balances, []).append(
                        (VarId(0, sigma), deg1, deg2, VarId(0, rho), eta_inv))
    return terms


def point_string_oracle(levels: tuple[int, ...], _memo: dict = {}) -> Fraction:
    """Point-target invariant via the string equation alone.

    Any admissible key (sum of levels = k - 3) with k > 3 contains a tau_0;
    removing it and lowering each remaining level once recurses down to
    <tau_0^3> = 1.
    """
    ms = tuple(sorted(levels))
    if ms in _memo:
        return _memo[ms]
    k = len(ms)
    if sum(ms) != k - 3:
        return Fraction(0)
    if k == 3:
        return Fraction(1)  # sum of levels is 0, so all three are tau_0
    assert ms[0] == 0, "admissible point keys with k > 3 contain a tau_0"
    rest = list(ms[1:])
    total = Fraction(0)
    for i, m in enumerate(rest):
        if m >= 1:
            total += point_string_oracle(tuple(rest[:i] + [m - 1] + rest[i + 1:]))
    _memo[ms] = total
    return total


def _poly_mul(a: dict, b: dict, dmax: int) -> dict:
    out: dict[tuple[int, int], Fraction] = {}
    for (da, ja), ca in a.items():
        for (db, jb), cb in b.items():
            if da + db > dmax:
                continue
            key = (da + db, ja + jb)
            acc = out.get(key, Fraction(0)) + ca * cb
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def wdvv_associativity_nd(dmax: int) -> list[Fraction]:
    """Plane-curve counts N_1..N_dmax from quantum associativity.

    The quantum part of the P^2 potential is G = sum_d N_d q^d y^{3d-1}/(3d-1)!
    (q tracks e^{x1}, y is the point coordinate); associativity of the quantum
    product is G_yyy = G_xxy^2 - G_xxx G_xyy, where x-derivatives multiply the
    q^d term by d.  Solving the y^{3d-4} q^d coefficient gives N_d from lower
    degrees; N_1 = 1 seeds the recursion (one line through two points).
    """
    fact = [Fraction(1)]
    for i in range(1, 3 * dmax + 2):
        fact.append(fact[-1] * i)
    n_values = [Fraction(1)]
    for d in range(2, dmax + 1):
        known = dict(enumerate(n_values, start=1))
        g_xxx = {(e, 3 * e - 1): known[e] * e ** 3 / fact[3 * e - 1] for e in known}
        g_xxy = {(e, 3 * e - 2): known[e] * e ** 2 / fact[3 * e - 2] for e in known}
        g_xyy = {(e, 3 * e - 3): known[e] * e / fact[3 * e - 3] for e in known}
        rhs = _poly_mul(g_xxy, g_xxy, d)
        for key, c in _poly_mul(g_xxx, g_xyy, d).items():
            acc = rhs.get(key, Fraction(0)) - c
            if acc:
                rhs[key] = acc
            else:
                rhs.pop(key, None)
        n_values.append(rhs.get((d, 3 * d - 4), Fraction(0)) * fact[3 * d - 4])
    return n_values[:dmax]


def gamma_ratio_A(b: Fraction, j: int, m: int, n: int) -> Fraction:
    """Literal Gamma-ratio form of the first-derivative coefficients.

    Gamma(b+m+n+1)/Gamma(b+m) telescopes to prod_{l=m}^{m+n} (b+l); only valid
    when no factor b+l vanishes (non-integer b in the tested range).
    """
    prefactor = Fraction(1)
    for l in range(m, m + n + 1):
        prefactor *= b + l
    total = Fraction(0)
    for subset in _subsets(list(range(m, m + n + 1)), j):
        term = Fraction(1)
        for l in subset:
            term /= b + l
        total += term
    return prefactor * total


def gamma_ratio_B(b: Fraction, j: int, m: int, n: int) -> Fraction:
    """Literal Gamma-ratio form of the quadratic coefficients.

    Gamma(m+2-b)/Gamma(1-b) = prod_{i=0}^{m} (1-b+i) and
    Gamma(n-m+b)/Gamma(b) = prod_{i=0}^{n-m-1} (b+i).
    """
    prefactor = Fraction(1)
    for i in range(m + 1):
        prefactor *= 1 - b + i
    for i in range(n - m):
        prefactor *= b + i
    total = Fraction(0)
    for subset in _subsets(list(range(-m - 1, n - m)), j):
        term = Fraction(1)
        for l in subset:
            term /= b + l
        total += term
    return prefactor * total


def j_function_one_point(dims: tuple[int, ...], degree: tuple[int, ...]
                         ) -> dict[tuple[int, ...], Fraction]:
    """One-point descendants of P^{n_1} x ... x P^{n_r} from the J-function.

    For each exponent vector j with j_i <= n_i, the value is

        <tau_k(phi_a)>_d = prod_i [h^{j_i}] prod_{m=1..d_i} (1 + h/m)^{-(n_i+1)} / (d_i!)^{n_i+1},

    where phi_a is the class dual to prod_i H_i^{j_i} and k = sum_i (n_i+1) d_i
    + |j| - 2 (Givental, alg-geom/9603021): the z^{-k-2} part of z / prod_i
    prod_m (H_i + m z)^{n_i+1}.  Returns {j: value}.
    """
    factors = [_j_factor(n, d) for n, d in zip(dims, degree)]
    return {js: math.prod((f[j] for f, j in zip(factors, js)), start=Fraction(1))
            for js in itertools.product(*(range(n + 1) for n in dims))}


def j_function_two_point(n: int, d: int, j: int) -> dict[int, Fraction]:
    """Two-point descendants <tau_k(phi_a) tau_0(H^j)>_d of P^n, 0 <= j <= n, d >= 1.

    With phi_a = H^(a-1) and phi^a = H^(n+1-a), modulo H^(n+1),

        sum_{k,a} z^(-k-1) <tau_k(phi_a) tau_0(H^j)>_d phi^a
            = (H + d z)^j / prod_{m=1..d} (H + m z)^(n+1),

    so the value with phi^a = H^h is [h^h] (h + d)^j prod_{m=1..d} (h + m)^-(n+1),
    at k = (n+1) d + h - 1 - j (Givental, alg-geom/9603021; j = 0 is the
    one-point series over z, by the string equation).  Returns {h: value}.
    """
    factor = _j_factor(n, d)
    shift = [math.comb(j, i) * d ** (j - i) for i in range(j + 1)]  # (h + d)^j
    return {h: sum(shift[i] * factor[h - i] for i in range(min(h, j) + 1))
            for h in range(n + 1)}


def two_descendants(n: int, d: int) -> dict[tuple[tuple[int, int], tuple[int, int]], Fraction]:
    """Every nonzero <tau_k(phi_a) tau_l(phi_b)>_d of P^n, d >= 1, from the S-operator.

    At tau = 0, S(z)a = a + sum_e phi^e <a/(z - psi), phi_e>, the descendant
    on a, and its entries <tau_k(H^i) tau_0(H^j)>_e are
    ``j_function_two_point``'s.  Givental's two-point function V(z, w)(a, b)
    = (a, b)/(z + w) + sum_{k,l} z^(-k-1) w^(-l-1) <tau_k(a) tau_l(b)> has
    (z + w) V(z, w)(a, b) = (S(z)a, S(w)b) (alg-geom/9603021).  With x = 1/z
    and y = 1/w, the q^d part of (S(z)a, S(w)b) is therefore x + y times
    sum_{k,l} <tau_k(a) tau_l(b)>_d x^k y^l: the division, done one total
    degree at a time, must be exact, and an ArithmeticError says it was
    not.  Returns {((k, a), (l, b)): value} with phi_a = H^(a-1).
    """
    # e -> {(i, j): {k + 1: <tau_k(H^i) tau_0(H^j)>_e}}, S_e's entries by power of x
    entries: dict[int, dict[tuple[int, int], dict[int, Fraction]]] = {}
    for e in range(1, d + 1):
        entries[e] = {}
        for j in range(n + 1):
            for h, value in j_function_two_point(n, e, j).items():
                if value:
                    entries[e].setdefault((n - h, j), {})[(n + 1) * e + h - j] = value
    values = {}
    for i, i2 in itertools.product(range(n + 1), repeat=2):
        # The q^d part of (S(z)H^i, S(w)H^i2), by (power of x, power of y): S_d
        # on one side with S_0 = 1 on the other, then S_d1 with S_(d-d1).
        # phi^e = H^(n-j) for phi_e = H^j, and (H^(n-j), H^(n-j')) = [j + j' = n].
        terms = [((kx, 0), v) for kx, v in entries[d].get((i, i2), {}).items()]
        terms += [((0, ly), v) for ly, v in entries[d].get((i2, i), {}).items()]
        terms += [((kx, ly), u * v) for d1, j in itertools.product(range(1, d), range(n + 1))
                  for kx, u in entries[d1].get((i, j), {}).items()
                  for ly, v in entries[d - d1].get((i2, n - j), {}).items()]
        p: dict[tuple[int, int], Fraction] = {}
        for power, c in terms:
            p[power] = p.get(power, 0) + c
        # (x + y) sum_m c_m x^m y^(N-1-m) has c_(m-1) + c_m at x^m y^(N-m), so
        # c_m = p_m - c_(m-1), and the remainder is p_N - c_(N-1).
        for total in {kx + ly for kx, ly in p}:
            c = 0
            for m in range(total):
                c = p.get((m, total - m), 0) - c
                if c:
                    values[(m, i + 1), (total - 1 - m, i2 + 1)] = c
            if p.get((total, 0), 0) != c:
                raise ArithmeticError(f"x + y does not divide (S(z)H^{i}, S(w)H^{i2}) at q^{d}")
    return values


def _j_factor(n: int, d: int) -> list[Fraction]:
    """The coefficients of h^0..h^n in prod_{m=1..d} (h + m)^-(n+1)."""
    series = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, d + 1):
        step = [Fraction((-1) ** i * math.comb(n + i, i), m ** i) for i in range(n + 1)]
        series = [sum(series[i] * step[j - i] for i in range(j + 1)) for j in range(n + 1)]
    return [c / math.factorial(d) ** (n + 1) for c in series]


def schubert_degree_one(n: int, exponents: Iterable[int]) -> int:
    """<H^(a_1) ... H^(a_k)>_1 on P^n as the Schubert number int prod sigma_(a_i - 1).

    Lines of P^n form the Grassmannian G(2, n+1); the lines meeting a
    general linear space of codimension a make the special Schubert class
    sigma_(a-1), so the degree-1 primary invariant is the integral of their
    product.  sigma_(-1) = 0 (a unit insertion), and sigma_p = 0 for
    p > n - 1.  Products go by the Pieri rule, sigma_p sigma_(l1, l2) = the
    sum of sigma_(m1, m2) with m1 + m2 = l1 + l2 + p, l1 <= m1 <= n - 1 and
    l2 <= m2 <= l1; the integral is the coefficient of sigma_(n-1, n-1).
    """
    top = n - 1
    classes = {(0, 0): 1}
    for a in exponents:
        p = a - 1
        if p < 0:
            return 0
        product: dict[tuple[int, int], int] = {}
        for (l1, l2), c in classes.items():
            for m1 in range(l1, top + 1):
                m2 = l1 + l2 + p - m1
                if l2 <= m2 <= l1:
                    product[m1, m2] = product.get((m1, m2), 0) + c
        classes = product
    return classes.get((top, top), 0)


def complement_product_sum(b: Fraction, levels: range, j: int) -> Fraction:
    """Sum over size-j subsets S of ``levels`` of prod_{l not in S} (b + l).

    The defining sum of ``coeff_A`` (levels m..m+n) and, up to the sign
    (-1)^{k+1}, of ``coeff_B`` (levels -k-1..n-k-1), subset by subset.
    """
    total = Fraction(0)
    for subset in _subsets(list(levels), j):
        prod = Fraction(1)
        for l in levels:
            if l not in subset:
                prod *= b + l
        total += prod
    return total


def _subsets(pool: list[int], size: int):
    import itertools
    return itertools.combinations(pool, size)


def linear_field_oracle(ts, name: str, max_level: int) -> tuple:
    """A linear vector field of the genus-0 operator calculus, by plain loops.

    ``name`` is ``"L<n>"`` (n >= -1) for the linear part of L_n, or one of
    ``"S"``, ``"D"``, ``"X"`` and ``"Ltilde1"``.  Returns the sorted terms
    ((m, a), (level, beta), coeff), each one coeff ttilde^a_m d/dt^beta_level.
    The linear part of L_n is sum p_j(m + b_a) (C^j)_a^beta ttilde^a_m
    d/dt^beta_{m+n-j}, p_j(x) the z^j coefficient of prod_{l=0}^{n} (z + x + l),
    with b_a = q_a - (d - 1)/2.  Sources run over levels 0..max(max_level, 1):
    ttilde^1_1 = t^1_1 - 1 is nonzero even when t_1 is truncated away.
    """
    N, d = ts.classes, ts.complex_dim
    shift = Fraction(3 - d, 2)
    powers = [[[Fraction(int(r == c)) for c in range(N)] for r in range(N)]]  # C^j
    terms = []
    for m in range(max(max_level, 1) + 1):
        for a in range(1, N + 1):
            x = m + Fraction(ts.q[a - 1]) - Fraction(d - 1, 2)
            if name.startswith("L") and name != "Ltilde1":
                top = int(name[1:])
                poly = [Fraction(1)]  # coefficients in z, lowest first
                for l in range(top + 1):
                    poly = [(poly[i] if i < len(poly) else 0) * (x + l)
                            + (poly[i - 1] if i >= 1 else 0) for i in range(len(poly) + 1)]
            else:
                top, poly = {"S": (-1, [-1]), "D": (0, [-1]),
                             "X": (0, [shift - x, -1]), "Ltilde1": (1, [1])}[name]
            while len(powers) < len(poly):
                prev = powers[-1]
                powers.append([[sum((prev[r][k] * ts.c1_mat[k][c] for k in range(N)),
                                    Fraction(0)) for c in range(N)] for r in range(N)])
            for j, p in enumerate(poly):
                level = m + top - j
                for be in range(1, N + 1):
                    coeff = p * powers[j][a - 1][be - 1]
                    if level >= 0 and coeff:
                        terms.append(((m, a), (level, be), coeff))
    return tuple(sorted(terms))


def operator_action(op, p: TruncatedSeries, lam: Fraction) -> TruncatedSeries:
    """``op`` applied to the polynomial ``p`` with the grading lambda set to ``lam``.

    sum coeff ttilde_src d_dst p + (lam^2 / 2) sum coeff d_u d_v p
    + (1 / (2 lam^2)) sum Q_ab t^a_0 t^b_0 p + constant p, with ttilde^1_1 =
    t^1_1 - 1 and every other ttilde = t.
    """
    out = p.scale(op.constant)
    for src, dst, coeff in op.linear:
        d = series_derive(p, dst)
        out = out + d.times_var(src).scale(coeff)
        if src == (1, 1):
            out = out - d.scale(coeff)
    for u, v, coeff in op.quadratic:
        out = out + series_derive(series_derive(p, u), v).scale(lam * lam * coeff / 2)
    for a, row in enumerate(op.classical, 1):
        for b, q in enumerate(row, 1):
            out = out + p.times_var(VarId(0, a)).times_var(VarId(0, b)).scale(q / (2 * lam * lam))
    return out
