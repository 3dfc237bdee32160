"""Exact integer and rational linear algebra.

Small dense integer routines used by the polytope and Laurent machinery:
determinants, inverses of unimodular matrices, the fit of a tangent cone
into the positive orthant, and the exact convex-hull engine.  The only
``Fraction`` code left is in :func:`rref` and in the integer-preserving
phase-one simplex :func:`phase1_feasible` (Edmonds 1967, Bareiss 1968,
the idiom of :func:`det`), which nothing in the library calls; they are
kept because ``perfbench/tracer.py`` wraps them by name.

The cone fit runs no LP.  It takes its dual vector q, positive on the
cone, from the hull: the sum of the inner facet normals at the vertex
(:meth:`augvar.polytope.LatticePolytope.vertex_dual_vector`), and only
completes q to a lattice basis and shears the other rows.

One unimodular column reduction, :func:`_column_reduce` (Cohen, "A Course
in Computational Algebraic Number Theory", 1993, 2.4), is the only
elimination, and :func:`det` the only determinant.  The reduction serves
every integer lattice question: the affine lattice frame of a point set
(its dimension, integer coordinates and membership test), the index of
the lattice spanned by a set of vectors, the start simplex of the hull
engine (its pivot rows, :func:`_pivot_rows`), and the completion of a
primitive vector to a lattice basis.  That completion inverts the
reduction's unimodular matrix by :func:`mat_inverse`, the adjugate, whose
entries are signed minors.  No rational null space is taken.

The hull engine works in integers only: Andrew's monotone chain in the
plane, and beneath-beyond over a triangulated boundary in dimension three
and up.  A facet normal is the vector of signed cofactors of a boundary
simplex's edge vectors, written out in closed form in dimensions three
(the cross product) and four (four 3x3 minors over six 2x2 ones); only
from dimension five on is each minor a :func:`det`.  The gcd g of the
cofactors is the simplex's lattice weight: the cone from a point v of the
hull over the simplex has normalized volume g (c - <n, v>) for the
primitive normal n and offset c, so a volume is one dot product per
boundary simplex and no determinant.  The engine's per-point and
per-plane arithmetic (a normal's offset and orientation, beneath-beyond's
visibility test, the incidence pass that finds each facet's points) is
written over unpacked coordinates in dimensions three and four, and in
the plane for the incidence pass; only from dimension five on is a dot
product ``sum(map(mul, ...))``, still with no call per product.
Beneath-beyond inserts the points far first, by decreasing squared
distance from their centroid, and starts from the first affinely
independent ones in that order, the pivot rows of one column reduction:
a wide start simplex swallows most of the later points, so far fewer
boundary simplices are built and discarded than in lexicographic order.
A point's visible simplices are deleted as they are found, and its
horizon is the ridges that occur once among them, so no index of the
simplices through each ridge is kept; that every ridge lies in two
simplices is checked once, on the final boundary.  The order changes
only how coplanar facets are triangulated, and the volume summed over
the boundary simplices does not depend on the triangulation.  The engine
returns vertices, facets and the boundary in every dimension, each
boundary simplex with its hyperplane and lattice weight: a segment's
endpoints, of weight 1, a polygon's counterclockwise edges, weighted by
their lattice lengths, and beneath-beyond's simplices above the plane.
In the plane the vertices are the monotone chain's cycle, which drops
the points on edges.  Elsewhere a point is a vertex when the facets
through it meet in that point alone, a set intersection of the facets'
point sets with no rank test.  The engine checks its own output, raising
:class:`VerificationFailure` when a check fails.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import gcd, lcm, prod
from operator import mul

from .errors import NotUnimodular, PreconditionViolation, VerificationFailure


def lattice_point(p):
    """The coordinates of p as a tuple of ints.  A coordinate that is not
    an integer value raises PreconditionViolation instead of being
    truncated; integer values such as Fraction(4, 2) are accepted."""
    q = tuple(map(int, p))
    if q != p and any(a != x for a, x in zip(q, p)):
        raise PreconditionViolation(
            "point %r has a non-integer coordinate" % (tuple(p),))
    return q


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(M, v):
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in M)


def det(M):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, in which every division is exact.  The 2x2 and 3x3
    matrices, such as the minors of the adjugate in :func:`mat_inverse` in
    dimensions three and four, take the closed form of the cofactor
    expansion along the first row instead.  No volume calls it: the hull
    boundary carries each simplex's cone determinant as a weight."""
    if len(M) == 2:
        (a, b), (c, e) = M
        return a * e - b * c
    if len(M) == 3:
        (a, b, c), (e, f, g), (h, i, j) = M
        return a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)
    A = [list(r) for r in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if A[r][k] != 0), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1] if n else 1


def is_unimodular(M):
    if not M or len(M) != len(M[0]):
        return False
    if any(not isinstance(x, int) for row in M for x in row):
        return False
    return abs(det(M)) == 1


def mat_inverse(M):
    """Inverse of a unimodular integer matrix, in ints.

    As 1 / det(M) = det(M) when det(M) = +-1, the inverse is det(M) adj(M):
    entry (i, j) is det(M) (-1)^(i + j) times the :func:`det` of M without
    row j and column i.  Any other matrix raises :class:`NotUnimodular`."""
    if not is_unimodular(M):
        raise NotUnimodular("matrix %r is not unimodular" % (M,))
    D = det(M)
    n = len(M)

    def minor(j, i):
        return det([r[:i] + r[i + 1:] for k, r in enumerate(M) if k != j])

    return [[(-1) ** (i + j) * D * minor(j, i) for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form over Q.  Returns (rows, pivot columns).

    Nothing in the library calls it; the tests use it as a rank oracle and
    ``perfbench/tracer.py`` wraps it by name."""
    A = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(A[0]) if A else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A[:r], pivots


def primitive_vector(v):
    """Scale a vector of ints and Fractions to a primitive integer vector
    (gcd 1), building no Fraction; a zero or empty vector comes back as a
    tuple of its zeros."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _column_reduce(rows):
    """Column echelon form of an integer matrix by unimodular column steps.

    Returns (H, U, rank) with rows . U = H and U unimodular.  Row by row,
    every entry right of the current pivot column is cleared by the column
    Euclid: while it is nonzero, the smaller of it and the pivot is swapped
    into the pivot column and the other column is reduced by it.  A row that
    is zero from the pivot column on raises no rank.  Hence the columns of H
    past ``rank`` are zero, and its first ``rank`` columns are a basis of
    the lattice its columns span.
    """
    H = [list(r) for r in rows]
    n = len(H[0]) if H else 0
    U = identity_matrix(n)
    rank = 0
    for row in H:
        if rank == n:
            break
        for c in range(rank + 1, n):
            while row[c]:
                if row[rank] == 0 or abs(row[c]) < abs(row[rank]):
                    for M in (H, U):
                        for r in M:
                            r[rank], r[c] = r[c], r[rank]
                f = row[c] // row[rank]
                for M in (H, U):
                    for r in M:
                        r[c] -= f * r[rank]
        if row[rank]:
            rank += 1
    return H, U, rank


def _pivot_rows(H, rank):
    """The pivot row of each of the first ``rank`` columns of a column
    reduction H: the first row of H that is nonzero in that column, or
    None.  They are the rows that raised the rank, in order."""
    return [next((i for i, r in enumerate(H) if r[c]), None) for c in range(rank)]


def affine_frame(points):
    """The saturated affine lattice of integer points, from one column
    reduction of their differences.

    Returns (d, U, reduced): U is unimodular with (p - p0) U = h for every
    point p, where p0 = points[0] and h is zero past the affine dimension
    d, and ``reduced`` lists h[:d] for every point.  U is unimodular, so
    x -> ((x - p0) U)[:d] maps the lattice points of the affine hull
    bijectively onto Z^d, and a rational x lies on the affine hull exactly
    when ((x - p0) U)[d:] is zero.  A full-dimensional set keeps U = I, so
    its reduced points are the plain differences.  Below full dimension
    the pivot block is size-reduced, as in the Hermite normal form (Cohen,
    "A Course in Computational Algebraic Number Theory", 1993, 2.4): each
    pivot is made positive and the entries left of it are reduced by the
    nearest multiple of it, with the same column steps on U, which keeps
    the coordinates small.  A reduction whose rank does not match its
    columns raises :class:`VerificationFailure`.
    """
    p0 = points[0]
    n = len(p0)
    diffs = [[a - b for a, b in zip(p, p0)] for p in points]
    H, U, d = _column_reduce(diffs)
    if d == n:
        return d, identity_matrix(n), [tuple(r) for r in diffs]
    leads = _pivot_rows(H, d)
    if None in leads or any(r[c] for r in H for c in range(d, n)):
        raise VerificationFailure("column reduction of rank %d does not match "
                                  "its columns" % d)
    for c, i in enumerate(leads):
        if H[i][c] < 0:
            for M in (H, U):
                for r in M:
                    r[c] = -r[c]
        piv = H[i][c]
        for j in range(c):
            f = (2 * H[i][j] + piv) // (2 * piv)
            if f:
                for M in (H, U):
                    for r in M:
                        r[j] -= f * r[c]
    return d, U, [tuple(r[:d]) for r in H]


def lattice_index(vectors, n):
    """Index of the subgroup of Z^n generated by the vectors, 0 below full
    rank.  Column-reduce the matrix whose columns are the vectors: at full
    rank its first n columns are a lower-triangular basis of the same
    lattice, so the index is the absolute product of the pivots."""
    H, _, rank = _column_reduce([[v[i] for v in vectors] for i in range(n)])
    if rank < n:
        return 0
    return abs(prod(H[i][i] for i in range(n)))


def complete_primitive_row(q):
    """A unimodular integer matrix whose first row is the primitive q.

    Column-reduce q to (1, 0, ..., 0) by unimodular operations V; then the
    first row of V^{-1} is q and its rows form the sought basis.
    """
    (row,), V, _ = _column_reduce([q])
    if row[0] == -1:
        for r in V:
            r[0] = -r[0]
    elif row[0] != 1:
        raise ValueError("vector %r is not primitive" % (q,))
    return mat_inverse(V)


# --------------------------------------------------------------------------
# exact phase-one simplex
# --------------------------------------------------------------------------

def _pivot(T, l, e, D):
    """Pivot the integer tableau T on p = T[l][e] > 0, in place.

    Every row but the pivot row becomes (p row - row[e] T[l]) // D, the
    fraction-free step of Edmonds and Bareiss: each entry stays the old
    basis determinant times the rational tableau entry, so every division
    is exact.  Returns p, the new common denominator."""
    prow = T[l]
    p = prow[e]
    for i, row in enumerate(T):
        f = row[e]
        if i == l or (not f and p == D):
            continue
        if f:
            T[i] = [(p * x - f * y) // D for x, y in zip(row, prow)]
        else:
            T[i] = [p * x // D for x in row]
    return p


def phase1_feasible(A, b):
    """Solve A x = b, x >= 0 over Q exactly.

    Returns a feasible x as a list of Fractions, or None.  Phase-one
    simplex with Bland's rule, which cannot cycle.

    Nothing in the library calls it; the tests check it against the
    ``Fraction`` oracle and ``perfbench/tracer.py`` wraps it by name.

    The tableau is integer-preserving.  With L the lcm of the denominators
    of A and b, it is [L A | I | L b], each row negated when its b_i < 0,
    with the reduced costs of the artificial objective as one more row;
    all of it is kept as integers over one common denominator D > 0, the
    last pivot (see :func:`_pivot`).  Bland's entering variable is the
    first nonbasic column with a positive reduced cost; the leaving row
    has the smallest ratio, compared by cross-multiplication, with ties
    to the smaller basis index.  The artificial columns are those of the
    rational tableau [A | I | b] scaled by 1/L, which scales their reduced
    costs and ratios uniformly, so every sign test and comparison, and
    hence every pivot, is the one the rational tableau would make.  The
    answer is checked against A and b before it is returned; a failed
    check raises :class:`VerificationFailure`.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [list(A[i]) + [b[i]] for i in range(m)]
    L = 1
    for row in rows:
        for x in row:
            if type(x) is not int:
                d = Fraction(x).denominator
                L = L * d // gcd(L, d)
    T = []
    for i, row in enumerate(rows):
        row = [x * L if type(x) is int else int(Fraction(x) * L) for x in row]
        if row[-1] < 0:
            row = [-x for x in row]
        unit = [0] * m
        unit[i] = 1
        T.append(row[:-1] + unit + row[-1:])
    total = n + m
    # reduced costs of "minimize the sum of the artificials" at the
    # all-artificial basis: the column sums, zero on the artificials
    R = [sum(col) for col in zip(*T)] if m else [0]
    R[n:total] = [0] * m
    T.append(R)
    basis = list(range(n, total))
    basic = [False] * n + [True] * m
    D = 1
    while True:
        R = T[m]
        entering = next((j for j in range(total) if not basic[j] and R[j] > 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(m):
            a = T[i][entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = T[i][-1] * T[leaving][entering]
                rhs = T[leaving][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            return None  # unbounded phase-one cannot happen with b >= 0
        D = _pivot(T, leaving, entering, D)
        basic[basis[leaving]] = False
        basic[entering] = True
        basis[leaving] = entering
    if T[m][-1]:        # D times the sum of the basic artificials
        return None
    X = [0] * n
    for i in range(m):
        if basis[i] < n:
            X[basis[i]] = T[i][-1]
    if any(x < 0 for x in X) or any(
            sum(a * x for a, x in zip(A[i], X) if x) != D * b[i] for i in range(m)):
        raise VerificationFailure("phase-one simplex answer %r / %d does not "
                                  "solve A x = b, x >= 0" % (X, D))
    return [Fraction(x, D) for x in X]


def fit_cone_to_orthant(generators, q):
    """Unimodular M with M u componentwise >= 0 for all generators u.

    q is a primitive integer vector with <q, u> >= 1 on every nonzero
    generator, such as :meth:`augvar.polytope.LatticePolytope.vertex_dual_vector`
    gives at a vertex.  Complete q to a lattice basis, then shear the
    remaining basis rows by multiples of q until they are nonnegative on
    every generator.  A q that is not positive on some nonzero generator
    raises :class:`PreconditionViolation`.
    """
    gens = [tuple(g) for g in generators if any(x != 0 for x in g)]
    qdots = {u: sum(a * b for a, b in zip(q, u)) for u in gens}
    if any(x <= 0 for x in qdots.values()):
        raise PreconditionViolation("%r is not positive on every generator" % (q,))
    B = complete_primitive_row(q)
    M = [list(q)]
    for row in B[1:]:
        k = 0
        for u in gens:
            d = sum(a * b for a, b in zip(row, u))
            if d < 0:
                # smallest k with d + k*<q,u> >= 0
                k = max(k, (-d + qdots[u] - 1) // qdots[u])
        M.append([a + k * b for a, b in zip(row, q)])
    return M


# --------------------------------------------------------------------------
# exact integer convex hulls
# --------------------------------------------------------------------------

def _dot(a, b):
    """Integer dot product; it stops at the shorter argument, so a normal
    dotted with a prefix of a point sums over the prefix only."""
    return sum(map(mul, a, b))


def _hyperplane(simplex, interior, scale):
    """(n, c, g): the primitive normal n and offset c of the hyperplane
    through d points of Z^d, oriented so that <n, interior> < scale * c,
    and the simplex's lattice weight g.

    The normal g n is the vector of signed cofactors of the edge vectors
    from the first point.  In dimension three that is their cross product;
    in dimension four each of the four signed 3x3 minors is expanded along
    the third edge vector over the six 2x2 minors of the first two; from
    dimension five on every minor is a :func:`det`.  The weight g is the
    gcd of the cofactors.  In dimensions three and four the offset c and
    the side test against ``interior`` are written out over the unpacked
    coordinates too, and from five on they are ``sum(map(mul, ...))``.  A
    degenerate simplex (every cofactor zero) and an interior point on the
    plane raise :class:`VerificationFailure` in every dimension.

    Subtracting the first row s_0 - v from the others turns det(s - v)
    into the determinant of the edge vectors and s_0 - v, whose expansion
    along that row is +-<g n, s_0 - v>; so for a point v beneath the plane
    the cone from v over the simplex has normalized volume g (c - <n, v>),
    the weight times the lattice height of v."""
    base = simplex[0]
    d = len(base)
    if d == 3:
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = simplex
        ax, ay, az = x1 - x0, y1 - y0, z1 - z0
        bx, by, bz = x2 - x0, y2 - y0, z2 - z0
        normal = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    elif d == 4:
        x0, y0, z0, w0 = base
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = (
            (x - x0, y - y0, z - z0, w - w0) for x, y, z, w in simplex[1:])
        m01, m02, m03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
        m12, m13, m23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        normal = (c1 * m23 - c2 * m13 + c3 * m12,
                  c2 * m03 - c0 * m23 - c3 * m02,
                  c0 * m13 - c1 * m03 + c3 * m01,
                  c1 * m02 - c0 * m12 - c2 * m01)
    else:
        rows = [[a - b for a, b in zip(p, base)] for p in simplex[1:]]
        normal = tuple((-1) ** j * det([r[:j] + r[j + 1:] for r in rows])
                       for j in range(d))
    g = gcd(*normal)
    if g == 0:
        raise VerificationFailure("hull simplex %r is degenerate" % (simplex,))
    if g != 1:
        normal = tuple(x // g for x in normal)
    if d == 3:
        a, b, e = normal
        ix, iy, iz = interior
        c = a * x0 + b * y0 + e * z0
        side = a * ix + b * iy + e * iz - scale * c
    elif d == 4:
        a, b, e, f = normal
        ix, iy, iz, iw = interior
        c = a * x0 + b * y0 + e * z0 + f * w0
        side = a * ix + b * iy + e * iz + f * iw - scale * c
    else:
        c = sum(map(mul, normal, base))
        side = sum(map(mul, normal, interior)) - scale * c
    if side == 0:
        raise VerificationFailure("interior point lies on a hull hyperplane")
    if side > 0:
        normal, c = tuple(-x for x in normal), -c
    return normal, c, g


def monotone_chain(points):
    """Hull vertices of distinct points in Z^2 in counterclockwise order.

    Andrew's monotone chain with integer cross products.  Returns indices
    into points, starting at the lexicographically smallest point; points
    on edges are dropped.
    """
    order = sorted(range(len(points)), key=points.__getitem__)
    if len(order) < 3:
        return order

    def cross(o, a, b):
        o, a, b = points[o], points[a], points[b]
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], i) <= 0:
                out.pop()
            out.append(i)
        return out

    return half(order)[:-1] + half(order[::-1])[:-1]


def _chain_planes(points):
    """The boundary of a polygon from its monotone-chain cycle: a dict
    from each edge (a, b), counterclockwise from the smallest point, to
    its outward (normal, offset, weight), the weight being the edge's
    lattice length g."""
    cycle = monotone_chain(points)
    if len(cycle) < 3:
        raise PreconditionViolation("hull points do not span the plane")
    boundary = {}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        ex, ey = (y - x for x, y in zip(points[a], points[b]))
        g = gcd(ex, ey)
        normal = (ey // g, -ex // g)    # outward for a counterclockwise cycle
        boundary[a, b] = normal, _dot(normal, points[a]), g
    return boundary


def _beneath_beyond(points):
    """Triangulated boundary of the hull of points spanning Z^d, d >= 3.

    Keeps simplices of d point indices, each with its outward hyperplane
    and lattice weight.  A new point deletes the simplices it lies
    strictly beyond as it finds them, and replaces them by the cone from
    it over their horizon; points beyond no simplex lie in the hull so far
    and are skipped.  The visibility test of a point p against a simplex,
    <n, p> > c, is written out over the coordinates of p, unpacked once
    per scan, in dimensions three and four, and is ``sum(map(mul, n, p))``
    from dimension five on.  Every ridge (d - 1 indices) of the boundary
    lies in two simplices, so a ridge of a visible simplex is on the
    horizon exactly when it occurs once among the visible simplices: one
    small dict per point finds the horizon, and no ridge index is kept.
    :func:`_hull` checks the pairing once, on the final boundary.
    Coplanar simplices stay separate.  Returns a dict from each boundary
    simplex (sorted index tuple) to its (normal, offset, weight) from
    :func:`_hyperplane`; the facets are its distinct (normal, offset).

    Points go in far first: by decreasing squared distance from the
    centroid, in integers as sum((m x_j - S_j)^2) for m points with
    coordinate sums S, ties to the smaller index.  The first point
    maximises a strictly convex function, so it is a hull vertex, and the
    start simplex is the first affinely independent points in that order,
    a wide one: the pivot rows of one :func:`_column_reduce` of the
    differences from the first point, since a row is a pivot row exactly
    when it raises the rank of the rows before it.  Most later points
    then fall inside the hull so far and cost one visibility scan, where
    lexicographic order makes every point a vertex of the hull so far and
    rebuilds the boundary around it (Clarkson and Shor, "Applications of
    random sampling in computational geometry II", 1989, argue the same
    for a random order).  The order
    decides only how coplanar facets are triangulated: the facets, their
    points and the vertices are those of the hull.  A volume summed over
    the simplices, as cones from one point of the hull, is the same for
    every triangulation, since each one's cones tile the hull once.
    """
    d = len(points[0])
    m = len(points)
    sums = [sum(col) for col in zip(*points)]
    order = sorted(range(m), key=lambda i: (
        -sum((m * x - s) ** 2 for x, s in zip(points[i], sums)), i))
    base = points[order[0]]
    H, _, rank = _column_reduce([[a - b for a, b in zip(points[i], base)]
                                 for i in order[1:]])
    if rank < d:
        raise PreconditionViolation("hull points do not span Z^%d" % d)
    start = [order[0]] + [order[k + 1] for k in _pivot_rows(H, d)]
    interior = tuple(sum(points[i][j] for i in start) for j in range(d))
    scale = d + 1
    simplices = {}     # sorted tuple of d point indices -> (normal, offset, weight)

    def add(simplex):
        simplices[simplex] = _hyperplane([points[j] for j in simplex], interior, scale)

    for k in range(d + 1):
        add(tuple(sorted(start[:k] + start[k + 1:])))
    taken = set(start)
    for i in order:
        if i in taken:
            continue
        p = points[i]
        if d == 3:
            x, y, z = p
            visible = [s for s, ((a, b, e), c, _) in simplices.items()
                       if a * x + b * y + e * z > c]
        elif d == 4:
            x, y, z, w = p
            visible = [s for s, ((a, b, e, f), c, _) in simplices.items()
                       if a * x + b * y + e * z + f * w > c]
        else:
            visible = [s for s, (n, c, _) in simplices.items() if sum(map(mul, n, p)) > c]
        twice = {}     # ridge of a visible simplex -> met in a second one
        for simplex in visible:
            del simplices[simplex]
            for ridge in combinations(simplex, d - 1):
                twice[ridge] = ridge in twice
        for ridge, shared in twice.items():
            if not shared:
                add(tuple(sorted(ridge + (i,))))
    return simplices


def _hull(points):
    """Vertices, facets and boundary of the hull of distinct points of Z^d.

    ``points`` are distinct tuples of ints of one length d, checked by the
    caller: :class:`augvar.polytope.LatticePolytope` runs the engine on the
    points' coordinates in their affine lattice frame.  Points that do not
    span Z^d affinely raise :class:`PreconditionViolation`.

    Returns (vertices, facets, boundary).  ``vertices`` lists the indices of
    the hull vertices in ascending order.  ``facets`` is sorted by (normal,
    offset) and holds (normal, offset, indices) for every facet: the
    inequality <normal, x> <= offset with a primitive integer normal, and
    the indices of all points on the facet.  A point is a vertex exactly
    when the point sets of the facets through it intersect in that point
    alone: the smallest face containing a point is the intersection of the
    facets through it (Ziegler, "Lectures on Polytopes", 2.1), and a face
    of dimension one or more holds at least two of the points, its
    vertices.

    In every dimension ``boundary`` is a dict from boundary simplices,
    tuples of d point indices that cover the boundary once, to their
    (normal, offset, weight): a segment's endpoints (lo,) and (hi,) with
    weight 1, a polygon's edges (a, b) counterclockwise from its smallest
    vertex with their lattice lengths, and above the plane the sorted
    simplices of beneath-beyond with the gcds of their cofactor normals.  The cones over them from any
    point v of the hull tile it, and the one over a simplex has normalized
    volume weight * (offset - <normal, v>), see :func:`_hyperplane`.

    In the plane the vertices are the sorted cycle of the monotone chain,
    the starts of the stored edges: the chain pops a point whenever the
    turn is not strictly left, so the points on edges never enter the
    cycle.  In every other dimension each point collects the point sets
    ``eq`` of the facets through it, and it is a vertex when they
    intersect in it alone; the one rank test, a :func:`_column_reduce`,
    runs only in beneath-beyond, once, for the start simplex.  A facet's
    values at the points are one comprehension over the unpacked
    coordinates in dimensions two to four, ``a x + b y (+ e z (+ f w))``,
    and ``sum(map(mul, ...))`` above.  In every dimension each facet is
    checked to support the points and to hold at least d vertices, as a
    (d - 1)-dimensional face must, so a boundary that lost a facet does not
    pass, and beneath-beyond's boundary is checked to be closed after the
    facets, in one pass: every ridge lies in exactly two of its simplices.
    A failed check raises :class:`VerificationFailure`.
    """
    d = len(points[0])
    if d == 1:
        if len(points) < 2:
            raise PreconditionViolation("hull points do not span the line")
        lo, hi = min(points), max(points)
        boundary = {(points.index(lo),): ((-1,), -lo[0], 1),
                    (points.index(hi),): ((1,), hi[0], 1)}
    elif d == 2:
        boundary = _chain_planes(points)
    else:
        boundary = _beneath_beyond(points)
    planes = {(n, c) for n, c, _ in boundary.values()}
    facets = []
    through = None if d == 2 else [[] for _ in points]
    for normal, c in sorted(planes):
        if d == 2:
            a, b = normal
            vals = [a * x + b * y for x, y in points]
        elif d == 3:
            a, b, e = normal
            vals = [a * x + b * y + e * z for x, y, z in points]
        elif d == 4:
            a, b, e, f = normal
            vals = [a * x + b * y + e * z + f * w for x, y, z, w in points]
        else:
            vals = [sum(map(mul, normal, p)) for p in points]
        if max(vals) != c:
            raise VerificationFailure("hull facet %r <= %d does not support the "
                                      "points" % (normal, c))
        eq = frozenset([i for i, v in enumerate(vals) if v == c])
        facets.append((normal, c, eq))
        if through is not None:
            for i in eq:
                through[i].append(eq)
    if through is None:
        # the chain pops collinear points, so its cycle is the vertex set
        vertices = sorted(a for a, _ in boundary)
    else:
        vertices = [i for i, sets in enumerate(through) if len(sets) >= d
                    and len(frozenset.intersection(*sets)) == 1]
    corners = set(vertices)
    for normal, c, eq in facets:
        if len(eq & corners) < d:
            raise VerificationFailure("hull facet %r <= %d holds fewer than %d "
                                      "vertices" % (normal, c, d))
    if d > 2:
        ridges = Counter(chain.from_iterable(map(combinations, boundary, repeat(d - 1))))
        unpaired = [r for r, n in ridges.items() if n != 2]
        if unpaired:
            raise VerificationFailure("hull ridge %r is not shared by two "
                                      "simplices" % (unpaired[0],))
    return vertices, facets, boundary
