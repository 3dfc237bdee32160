"""Slow reference algorithms for convex hulls, kept as test oracles.

``in_convex_hull`` answers membership with one exact phase-one LP, and
``subset_facets`` enumerates supporting hyperplanes through every d-subset
of the points.  Both take other routes than the library's hull engine
(monotone chain / beneath-beyond), so agreement is evidence for both.
"""

import itertools
from fractions import Fraction

from augvar import intlin

from lattice_oracles import rational_nullspace


def in_convex_hull(point, points):
    """Exact test whether point lies in the convex hull of points."""
    pts = list(points)
    if not pts:
        return False
    n = len(point)
    A = [[Fraction(p[i]) for p in pts] for i in range(n)]
    A.append([Fraction(1)] * len(pts))
    b = [Fraction(x) for x in point] + [Fraction(1)]
    return intlin.phase1_feasible(A, b) is not None


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
