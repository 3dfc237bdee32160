"""Slow reference algorithms for convex hulls and linear programs, kept as
test oracles.

``fraction_phase1_feasible`` is the phase-one simplex over ``Fraction``s
that the library's integer-preserving one replaced: the same Bland pivots,
with the reduced costs recomputed at every step.  ``in_convex_hull``
answers membership with one such LP, and ``subset_facets`` enumerates
supporting hyperplanes through every d-subset of the points.  These two
take other routes than the library's hull engine (monotone chain /
beneath-beyond), so agreement is evidence for both.  ``scan_edges``
tests every vertex pair against every facet, as ``LatticePolytope.edges``
did before it counted shared facets.  ``echelon`` is the integer row
echelon form that picked beneath-beyond's start simplex before the pivot
rows of the column reduction did.  ``ridge_index_beneath_beyond`` is the
beneath-beyond that kept, for every ridge, the set of boundary simplices
through it, and found a point's horizon as the ridges of its visible
simplices whose other simplex is not visible.
"""

import itertools
from fractions import Fraction
from math import gcd
from operator import mul

from augvar import intlin
from augvar.errors import PreconditionViolation, VerificationFailure

from lattice_oracles import rational_nullspace


def fraction_phase1_feasible(A, b, entering_trail=None):
    """Solve A x = b, x >= 0 over Q exactly: a list of Fractions, or None.

    Phase-one simplex over Fractions with Bland's rule.  When given,
    ``entering_trail`` collects the entering column of every pivot.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    rhs = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]]
        bi = Fraction(b[i])
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        T.append(row + [Fraction(1 if j == i else 0) for j in range(m)])
        rhs.append(bi)
    basis = [n + i for i in range(m)]
    total = n + m
    # objective: minimize sum of artificials; reduced costs
    cost = [Fraction(0)] * total
    for j in range(n, total):
        cost[j] = Fraction(1)
    while True:
        # reduced costs for current basis, from scratch
        y = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(total):
            if j in basis:
                continue
            zj = sum(y[i] * T[i][j] for i in range(m))
            if zj - cost[j] > 0:
                entering = j
                break  # Bland: first improving index
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            if T[i][entering] > 0:
                ratio = rhs[i] / T[i][entering]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return None  # unbounded phase-one cannot happen with b >= 0
        if entering_trail is not None:
            entering_trail.append(entering)
        piv = T[leaving][entering]
        T[leaving] = [x / piv for x in T[leaving]]
        rhs[leaving] /= piv
        for i in range(m):
            if i != leaving and T[i][entering] != 0:
                f = T[i][entering]
                T[i] = [x - f * y2 for x, y2 in zip(T[i], T[leaving])]
                rhs[i] -= f * rhs[leaving]
        basis[leaving] = entering
    value = sum(rhs[i] for i in range(m) if basis[i] >= n)
    if value != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rhs[i]
    return x


def echelon(vectors, cap=None):
    """Integer row echelon form of the vectors, built one vector at a time.

    Returns (rows, used): rows are (pivot column, row) pairs with distinct
    pivots, each row zero at the pivots of the rows before it; used lists
    the indices of the vectors that raised the rank.  Stops once the rank
    reaches ``cap``.
    """
    rows, used = [], []
    for k, v in enumerate(vectors):
        v = list(v)
        for piv, r in rows:
            if v[piv]:
                v = [r[piv] * a - v[piv] * b for a, b in zip(v, r)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is not None:
            rows.append((piv, v))
            used.append(k)
            if len(rows) == cap:
                break
    return rows, used


def fraction_strict_dual_vector(generators):
    """The strict dual vector LP, solved by :func:`fraction_phase1_feasible`:
    a primitive q with <q, u> >= 1 on every nonzero generator u, or None
    when the cone they span is not pointed.  The library's cone fit used
    it before it read q off the hull's facets."""
    gens = [g for g in generators if any(x != 0 for x in g)]
    if not gens:
        return None
    n, m = len(gens[0]), len(gens)
    A = [[Fraction(x) for x in u] + [Fraction(-x) for x in u]
         + [Fraction(-1 if j == i else 0) for j in range(m)]
         for i, u in enumerate(gens)]
    sol = fraction_phase1_feasible(A, [Fraction(1)] * m)
    if sol is None:
        return None
    return intlin.primitive_vector([sol[i] - sol[n + i] for i in range(n)])


def scan_edges(P):
    """The edges of a LatticePolytope by the scan the library replaced:
    for every vertex pair, the facets holding both, which span an edge
    when they meet in the pair alone."""
    verts, d = P.vertices, P.affine_dim
    if d < 2:
        return [(verts[0], verts[-1])] if d else []
    out = []
    for i, j in itertools.combinations(range(len(verts)), 2):
        containing = [eq for _, _, eq in P._bound[0] if i in eq and j in eq]
        if containing and frozenset.intersection(*containing) == {i, j}:
            out.append((verts[i], verts[j]))
    return sorted(out)


def in_convex_hull(point, points):
    """Exact test whether point lies in the convex hull of points."""
    pts = list(points)
    if not pts:
        return False
    n = len(point)
    A = [[Fraction(p[i]) for p in pts] for i in range(n)]
    A.append([Fraction(1)] * len(pts))
    b = [Fraction(x) for x in point] + [Fraction(1)]
    return fraction_phase1_feasible(A, b) is not None


def lp_vertex_indices(points):
    """Indices of the points that are not in the hull of the others."""
    return [i for i, p in enumerate(points)
            if not in_convex_hull(p, [q for q in points if q != p])]


def affine_rank(points):
    if len(points) <= 1:
        return 0
    p0 = points[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in points[1:]]
    _, pivots = intlin.rref(diffs)
    return len(pivots)


def subset_facets(points):
    """Facets of the hull of points spanning Z^d, d >= 2, as a sorted list
    of (primitive normal, offset, frozenset of indices of the points on the
    facet), by supporting-hyperplane enumeration over all d-subsets."""
    d = len(points[0])
    facets = {}
    for subset in itertools.combinations(range(len(points)), d):
        base = points[subset[0]]
        rows = [tuple(points[i][j] - base[j] for j in range(d))
                for i in subset[1:]]
        normals = rational_nullspace(rows)
        if len(normals) != 1:
            continue
        n = normals[0]
        c = sum(a * b for a, b in zip(n, base))
        vals = [sum(a * b for a, b in zip(n, v)) for v in points]
        if all(x <= c for x in vals):
            pass
        elif all(x >= c for x in vals):
            n = tuple(-x for x in n)
            c = -c
            vals = [-x for x in vals]
        else:
            continue
        eq = frozenset(i for i, x in enumerate(vals) if x == c)
        if affine_rank([points[i] for i in eq]) == d - 1:
            facets[(n, c)] = eq
    return [(n, c, eq) for (n, c), eq in sorted(facets.items())]


def ridge_index_beneath_beyond(points):
    """Triangulated boundary of the hull of points spanning Z^d, d >= 3,
    as a dict from each sorted simplex of d point indices to its outward
    (normal, offset), by the engine's far-first insertion and start
    simplex but with a ridge index: every ridge (d - 1 indices) maps to
    the set of simplices through it, updated on every added and deleted
    simplex, and a ridge not shared by two simplices raises
    :class:`VerificationFailure` when a visible simplex holds it."""
    d = len(points[0])
    m = len(points)
    sums = [sum(col) for col in zip(*points)]
    order = sorted(range(m), key=lambda i: (
        -sum((m * x - s) ** 2 for x, s in zip(points[i], sums)), i))
    base = points[order[0]]
    H, _, rank = intlin._column_reduce([[a - b for a, b in zip(points[i], base)]
                                        for i in order[1:]])
    if rank < d:
        raise PreconditionViolation("hull points do not span Z^%d" % d)
    start = [order[0]] + [order[k + 1] for k in intlin._pivot_rows(H, d)]
    interior = tuple(sum(points[i][j] for i in start) for j in range(d))
    scale = d + 1
    simplices = {}
    ridges = {}

    def faces(simplex):
        return [simplex[:k] + simplex[k + 1:] for k in range(d)]

    def add(simplex):
        plane = intlin._hyperplane([points[i] for i in simplex], interior, scale)
        simplices[simplex] = plane[:2]
        for ridge in faces(simplex):
            ridges.setdefault(ridge, set()).add(simplex)

    for k in range(d + 1):
        add(tuple(sorted(start[:k] + start[k + 1:])))
    taken = set(start)
    for i in order:
        if i in taken:
            continue
        p = points[i]
        visible = {s for s, (n, c) in simplices.items() if sum(map(mul, n, p)) > c}
        horizon = []
        for simplex in visible:
            for ridge in faces(simplex):
                if len(ridges[ridge]) != 2:
                    raise VerificationFailure("hull ridge %r is not shared by "
                                              "two simplices" % (ridge,))
                if not ridges[ridge] <= visible:
                    horizon.append(ridge)
        for simplex in visible:
            del simplices[simplex]
            for ridge in faces(simplex):
                ridges[ridge].discard(simplex)
                if not ridges[ridge]:
                    del ridges[ridge]
        for ridge in horizon:
            add(tuple(sorted(ridge + (i,))))
    return simplices
