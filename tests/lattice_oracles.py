"""Slow reference algorithms for the lattice layer, kept as test oracles.

``rational_nullspace`` takes the null space over Q by reduced row echelon
form, and ``integer_kernel`` the saturated integer kernel; together,
``integer_kernel(rational_nullspace(diffs))`` is a reference basis of the
saturated lattice of an affine hull, which the library reads off one
column reduction of the differences instead (``intlin.affine_frame``).
``minors_gcd_index`` takes the index of the lattice spanned by vectors as
the gcd of all maximal minors, exponential in the number of vectors.
``split_search_indecomposable`` decides polygon indecomposability by an
exhaustive search over the edge splits, exponential in the edge count.
The library reads the index off one column reduction and decides
indecomposability in one pass over partial sums, so agreement is
evidence for both.  ``fraction_mat_inverse`` is the Gauss-Jordan inverse
over Q that the library's integer adjugate (``intlin.mat_inverse``)
replaced.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from augvar import intlin
from augvar.polytope import ccw_vertex_cycle


def rational_nullspace(rows):
    """Basis of {x : rows . x = 0} over Q, as integer primitive vectors."""
    if not rows:
        return []
    n = len(rows[0])
    R, pivots = intlin.rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -R[i][f]
        basis.append(intlin.primitive_vector(vec))
    return basis


def fraction_mat_inverse(M):
    """Exact inverse by Gauss-Jordan over Fractions; ZeroDivisionError
    when M is singular."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def integer_kernel(rows):
    """Basis of the integer kernel {x in Z^n : rows . x = 0}: the columns
    of U past the rank in the column reduction rows . U = H.  U is
    unimodular, so the basis is saturated."""
    if not rows:
        return []
    _, U, rank = intlin._column_reduce(rows)
    return [tuple(r[c] for r in U) for c in range(rank, len(U))]


def minors_gcd_index(vectors, n):
    """Index of the subgroup of Z^n generated by the vectors (0 if not full
    rank): the gcd of the n x n minors (Smith form)."""
    best = 0
    if len(vectors) < n:
        return 0
    for subset in combinations(vectors, n):
        best = gcd(best, abs(intlin.det([list(r) for r in subset])))
        if best == 1:
            return 1
    return best


def split_search_indecomposable(P):
    """True when no choice a_i in [0, g_i], not all zero and not all full,
    of the polygon's primitive edge steps sums to zero.  Depth-first search
    over every choice, pruned by the reach of the remaining edges."""
    d = P.affine_dim
    if d == 0:
        return True
    if d == 1:
        v, w = P.vertices[0], P.vertices[-1]
        return gcd(*(a - b for a, b in zip(v, w))) == 1
    cycle = ccw_vertex_cycle(P)
    edges = []
    for i in range(len(cycle)):
        v, w = cycle[i], cycle[(i + 1) % len(cycle)]
        e = (w[0] - v[0], w[1] - v[1])
        g = gcd(*e)
        edges.append(((e[0] // g, e[1] // g), g))
    dirs = [p for p, _ in edges]
    mults = [g for _, g in edges]

    def search(i, sx, sy):
        if i == len(edges):
            return sx == 0 and sy == 0
        remx = sum(abs(dirs[j][0]) * mults[j] for j in range(i, len(edges)))
        remy = sum(abs(dirs[j][1]) * mults[j] for j in range(i, len(edges)))
        if abs(sx) > remx or abs(sy) > remy:
            return False
        for a in range(mults[i] + 1):
            choice[i] = a
            if search(i + 1, sx + a * dirs[i][0], sy + a * dirs[i][1]):
                if any(choice) and any(choice[j] < mults[j] for j in range(len(edges))):
                    return True
        choice[i] = 0
        return False

    choice = [0] * len(edges)
    return not search(0, 0, 0)
