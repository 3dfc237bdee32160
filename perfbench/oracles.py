"""Independent correctness checks for benchmark results.

Every oracle here is written with plain integers and ``Fraction`` and never
calls the augvar code it checks (quotient-field and nilpotent scalars are
the one exception: they are the coefficient type itself).  Each check
returns ``None`` when the result is right and a short reason otherwise; no
check uses ``assert``, so ``python -O`` checks just the same.
"""

import itertools
from fractions import Fraction
from math import comb, factorial, gcd


# --------------------------------------------------------------- 2-D hulls

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def monotone_chain(points):
    """Andrew's monotone chain: strict hull vertices in ccw order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


def _vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def polygon_invariants(cycle):
    """(doubled area, sorted edge lattice lengths) of a ccw polygon."""
    n = len(cycle)
    area2 = sum(cycle[i][0] * cycle[(i + 1) % n][1] - cycle[(i + 1) % n][0] * cycle[i][1]
                for i in range(n))
    lengths = sorted(_vec_gcd((cycle[(i + 1) % n][0] - cycle[i][0],
                               cycle[(i + 1) % n][1] - cycle[i][1]))
                     for i in range(n))
    return area2, lengths


def check_polygon(points, P, record):
    """Hull by monotone chain, volume by shoelace, count by Pick."""
    cycle = monotone_chain(points)
    if sorted(cycle) != list(P.vertices):
        return "2-D hull vertices differ from monotone chain"
    if len(cycle) < 3:
        return "benchmark input is not a full-dimensional polygon"
    area2, lengths = polygon_invariants(cycle)
    if record.normalized_volume != area2:
        return "normalized volume %s != shoelace %s" % (record.normalized_volume, area2)
    if list(record.edge_lattice_lengths) != lengths:
        return "edge lattice lengths differ"
    pick = (area2 + sum(lengths)) // 2 + 1
    if record.lattice_point_count != pick:
        return "lattice count %s fails Pick's identity (%s)" % (record.lattice_point_count, pick)
    return None


# ------------------------------------------------------- n-D hulls by facets

def _det(rows):
    """Exact integer determinant by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def rank(rows):
    """Rank of an integer matrix over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _normal(base, others):
    """Integer normal of the hyperplane through base and d-1 other points,
    by cofactor expansion; None when the points are affinely dependent."""
    rows = [[o[j] - base[j] for j in range(len(base))] for o in others]
    d = len(base)
    normal = []
    for j in range(d):
        minor = [r[:j] + r[j + 1:] for r in rows]
        normal.append((-1) ** j * _det(minor))
    g = _vec_gcd(normal)
    return tuple(x // g for x in normal) if g else None


def facets(vertices):
    """Facet inequalities <n, x> <= c of a full-dimensional polytope, by
    supporting-hyperplane search over vertex subsets."""
    d = len(vertices[0])
    out = set()
    for subset in itertools.combinations(vertices, d):
        n = _normal(subset[0], subset[1:])
        if n is None:
            continue
        c = sum(a * b for a, b in zip(n, subset[0]))
        vals = [sum(a * b for a, b in zip(n, v)) for v in vertices]
        if all(x >= c for x in vals):
            n, c = tuple(-x for x in n), -c
        elif not all(x <= c for x in vals):
            continue
        out.add((n, c))
    return sorted(out)


def box_count(ineqs, points):
    """Lattice points of the bounding box of points meeting every inequality."""
    d = len(points[0])
    ranges = [range(min(p[j] for p in points), max(p[j] for p in points) + 1)
              for j in range(d)]
    count = 0
    for x in itertools.product(*ranges):
        if all(sum(a * b for a, b in zip(n, x)) <= c for n, c in ineqs):
            count += 1
    return count


def check_polytope_nd(points, P, record=None):
    """Hull vertices and, when a record is given, the box lattice count."""
    verts = list(P.vertices)
    d = len(verts[0])
    if rank([[v[j] - verts[0][j] for j in range(d)] for v in verts[1:]]) != d:
        return "benchmark input is not full-dimensional"
    ineqs = facets(verts)
    for p in points:
        if any(sum(a * b for a, b in zip(n, p)) > c for n, c in ineqs):
            return "input point %r lies outside the reported hull" % (p,)
    for v in verts:
        active = [n for n, c in ineqs if sum(a * b for a, b in zip(n, v)) == c]
        if rank(active) != d:
            return "reported vertex %r is not a vertex" % (v,)
    if record is not None:
        count = box_count(ineqs, verts)
        if record.lattice_point_count != count:
            return "lattice count %s != box count %s" % (record.lattice_point_count, count)
    return None


def check_hull(points, P):
    if P.ambient_dim == 2:
        return None if sorted(monotone_chain(points)) == list(P.vertices) \
            else "2-D hull vertices differ from monotone chain"
    return check_polytope_nd(points, P)


# ------------------------------------------------------ polygon decomposition

def decomposable_edges(edges):
    """True when a nonempty proper sub-multiset of primitive edge steps sums
    to zero.  ``edges`` lists (primitive direction, multiplicity); the
    subset sums are enumerated as a set, which stays polynomial in the
    polygon's size."""
    total = sum(m for _, m in edges)
    reach = {(0, 0, 0)}
    for (dx, dy), m in edges:
        reach = {(x + a * dx, y + a * dy, k + a)
                 for (x, y, k) in reach for a in range(m + 1)}
    return any(x == 0 and y == 0 and 0 < k < total for x, y, k in reach)


def polygon_edges(cycle):
    out = []
    n = len(cycle)
    for i in range(n):
        e = (cycle[(i + 1) % n][0] - cycle[i][0], cycle[(i + 1) % n][1] - cycle[i][1])
        g = _vec_gcd(e)
        out.append(((e[0] // g, e[1] // g), g))
    return out


def check_irreducibility_2d(points, verdict):
    """A 2-D certificate says irreducible exactly for indecomposable
    polygons (up to a translate, which clearing does not change)."""
    cycle = monotone_chain(points)
    expected = "inconclusive" if decomposable_edges(polygon_edges(cycle)) else "irreducible"
    if verdict.kind != expected:
        return "certificate %s, expected %s" % (verdict.kind, expected)
    return None


# ------------------------------------------------------------ Laurent checks

def eval_terms(terms, point):
    """Evaluate {exponent: coefficient} at a rational point."""
    total = Fraction(0)
    for exp, c in terms.items():
        term = Fraction(c)
        for x, e in zip(point, exp):
            term *= x ** e
        total += term
    return total


def check_product(f_terms, g_terms, h_terms, point):
    if eval_terms(h_terms, point) != eval_terms(f_terms, point) * eval_terms(g_terms, point):
        return "product disagrees with f*g at a sample point"
    return None


# ----------------------------------------------------------- truncated series

def _series_mul(a, b, order):
    out = {}
    for e1, c1 in a.items():
        d1 = sum(e1)
        for e2, c2 in b.items():
            if d1 + sum(e2) > order:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


def _series_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return out


def _series_exp(s, nvars, order):
    """exp(s) for s without constant term, as a dict of coefficients."""
    one = {(0,) * nvars: Fraction(1)}
    out, power = dict(one), dict(one)
    for j in range(1, order + 1):
        power = _series_mul(power, s, order)
        out = _series_add(out, {e: c * Fraction(1, factorial(j)) for e, c in power.items()})
    return out


def _is_zero(c):
    return c == 0 if isinstance(c, (int, Fraction)) else c.is_zero()


def check_augmentation(relation_terms, var_index, kappa, series_terms, order, image):
    """Substitute y_k = kappa exp(s) and y_i = mu_i into the relation with
    the oracle's own series arithmetic; the result must be ``image``."""
    nmu = len(next(iter(relation_terms))) - 1
    if any(sum(e) == 0 for e in series_terms):
        return "series has a constant term"
    y = {e: c * kappa for e, c in _series_exp(series_terms, nmu, order).items()}
    powers = {}
    total = {}
    for exp, coef in relation_terms.items():
        mono = {tuple(exp[:var_index] + exp[var_index + 1:]): coef}
        if any(e < 0 for e in next(iter(mono))):
            return "relation has negative exponents off the solved variable"
        e = exp[var_index]
        if e < 0:
            return "benchmark relation has a negative exponent in the solved variable"
        if e not in powers:
            p = {(0,) * nmu: Fraction(1)}
            for _ in range(e):
                p = _series_mul(p, y, order)
            powers[e] = p
        total = _series_add(total, _series_mul(mono, powers[e], order))
    total = _series_add(total, {(0,) * nmu: -image})
    bad = [e for e, c in total.items() if sum(e) <= order and not _is_zero(c)]
    if bad:
        return "residual nonzero at degree %d" % min(sum(e) for e in bad)
    return None


def clifford_log_coefficients(ratios, order):
    """Coefficients of log(1 + sum_i r_i mu_i) through ``order``."""
    m = len(ratios)
    out = {}
    for d in range(1, order + 1):
        for exp in _degree_vectors(m, d):
            multi = factorial(d)
            term = Fraction((-1) ** (d - 1), d)
            for r, e in zip(ratios, exp):
                multi //= factorial(e)
                term *= Fraction(r) ** e
            if term:
                out[exp] = term * multi
    return out


def _degree_vectors(m, total):
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _degree_vectors(m - 1, total - first):
            yield (first,) + rest


def cover_contribution(d):
    """Closed form (-1)^(d-1)/d^2 of the d-fold cover."""
    return Fraction((-1) ** (d - 1), d * d)


def monomial_count(m, order):
    """Monomials of total degree 1..order in m variables."""
    return comb(m + order, m) - 1
