"""Independent oracles the main code must reproduce.

These deliberately avoid the engine's reduction machinery: the point oracle
uses only the string equation, the plane-curve oracle solves the quantum
associativity equation order by order with generic truncated polynomial
arithmetic, and the Gamma oracle evaluates the literal Gamma-ratio formulas
as telescoping products.  ``monomial_mul`` multiplies two unpacked
monomials, the reference the packed series keys are checked against.
"""

from __future__ import annotations

from fractions import Fraction

from gwvir.series import Monomial


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a.exps)
    for v, e in b.exps:
        exps[v] = exps.get(v, 0) + e
    degree = tuple(x + y for x, y in zip(a.degree, b.degree))
    return Monomial(tuple(sorted(exps.items())), degree)


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
