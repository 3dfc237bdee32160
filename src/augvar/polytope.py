"""Lattice polytopes for Newton-polytope arguments.

Exact convex hulls of integer points, Minkowski sums, unimodular
invariants (normalized volume, lattice point count, edge lattice lengths),
two-dimensional integral indecomposability, and the suspension-induction
irreducibility certificate for Laurent polynomials.

Everything is exact.  One column reduction of the points' differences
(:func:`augvar.intlin.affine_frame`) gives the frame of their saturated
affine lattice: its dimension, the points' integer coordinates in it and
the membership test for the affine hull, with no rational null space.  The
integer hull engine of :mod:`augvar.intlin` (monotone chain in the plane,
beneath-beyond above it) runs once on those coordinates, in the
constructor, and yields the vertices, the facets and the boundary
simplices together in every dimension: a segment's endpoints, a polygon's
counterclockwise edges, a triangulated boundary above the plane, each
simplex with its hyperplane and lattice weight.  Edges, the polygon
cycle and, at each vertex, a dual vector positive on its tangent cone are
read off its output.  So are the invariants: the normalized volume sums
the cones from one vertex over the boundary simplices, each a weight
times a lattice height, and the lattice point count is Pick's
formula in the plane, its boundary term the sum of the edges' weights,
and above it a walk over the projections onto the first k coordinates
bounded by their own hull facets.  A polygon's edge lattice lengths are
those weights too; above the plane they are the gcds along the edges.

It imports nothing from :mod:`augvar.laurent`, whose ``clear_to_vertex``
checks its vertex against :func:`newton_polytope` and whose
``clear_to_vertex_fitted`` takes its dual vector from the same hull: the
layers run laurent -> polytope -> intlin.
"""

from dataclasses import dataclass
from math import gcd
from operator import mul

from . import intlin
from .errors import (
    DimensionMismatch,
    NotAVertex,
    NotTwoDimensionalInput,
    PreconditionViolation,
    SearchBudgetExceeded,
    VerificationFailure,
    ZeroPolynomial,
)


class LatticePolytope:
    """Convex hull of integer points, stored by its vertex set.

    The constructor builds the affine lattice frame and runs the hull
    engine once, and keeps the hull vertices, their frame coordinates and
    the hull's boundary.  So the vertex list is hull-minimal and
    lexicographically sorted, and equal polytopes compare equal
    structurally.
    """

    __slots__ = (
        "ambient_dim", "vertices", "affine_dim", "_frame",
        # _red: the vertices in coordinates of the saturated affine lattice,
        # a bijection between the polytope's affine lattice points and Z^d,
        # d = affine_dim, that keeps every lattice quantity (edge gcds,
        # normalized volume, point counts).
        "_red",
        # _bound: (facets, boundary, points) of the full-dimensional
        # reduction.  ``facets`` is a list of (normal, offset, vertex index
        # frozenset) with primitive integer normals, inequality <n, x> <= c,
        # sorted by (normal, offset), from the hull engine; none for a
        # point.  ``boundary`` maps the engine's boundary simplices, tuples
        # of d indices into ``points``, the reduced points it ran on, to
        # their (normal, offset, lattice weight), in every dimension (a
        # polygon's edges counterclockwise, weighted by lattice length).
        "_bound",
        "_cache")

    def __init__(self, ambient_dim, points):
        """Hull of integer points in Z^ambient_dim; non-vertices are dropped.

        Coordinates must be integer values, such as ints or Fraction(4, 2);
        any other value raises :class:`PreconditionViolation`.  One column
        reduction of the differences from the lexicographically smallest
        point, which is a vertex, gives the frame of the saturated affine
        lattice (:func:`augvar.intlin.affine_frame`), and the engine runs on
        the points in its coordinates.
        """
        pts = sorted({intlin.lattice_point(p) for p in points})
        if not pts:
            raise ValueError("a polytope needs at least one point")
        if any(len(p) != ambient_dim for p in pts):
            raise DimensionMismatch("point length != ambient dimension")
        d, U, red = intlin.affine_frame(pts)
        keep, facets, boundary = intlin._hull(red) if d else ([0], [], {})
        position = {i: k for k, i in enumerate(keep)}
        facets = [(n, c, frozenset(position[i] for i in eq if i in position))
                  for n, c, eq in facets]
        for name, value in (("ambient_dim", ambient_dim),
                            ("vertices", tuple(pts[i] for i in keep)),
                            ("affine_dim", d),
                            ("_frame", U),
                            ("_red", tuple(red[i] for i in keep)),
                            ("_bound", (facets, boundary, red)),
                            ("_cache", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("LatticePolytope is immutable")

    @classmethod
    def from_points(cls, points):
        """Hull of arbitrary integer points, in the ambient dimension of
        the first; non-vertices are dropped."""
        points = list(points)
        if not points:
            raise ValueError("empty point set")
        return cls(len(points[0]), points)

    # -- basic geometry ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LatticePolytope):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        return "LatticePolytope(%d, %r)" % (self.ambient_dim, list(self.vertices))

    def translate(self, t):
        t = intlin.lattice_point(t)
        return LatticePolytope(
            self.ambient_dim,
            [tuple(a + b for a, b in zip(v, t)) for v in self.vertices])

    # -- faces ---------------------------------------------------------------

    def _through(self):
        """For each vertex, the indices into ``_bound[0]`` of the facets
        through it; built once, on first use."""
        if "through" not in self._cache:
            through = [[] for _ in self.vertices]
            for k, (_, _, eq) in enumerate(self._bound[0]):
                for i in eq:
                    through[i].append(k)
            self._cache["through"] = through
        return self._cache["through"]

    def edges(self):
        """Vertex pairs forming 1-faces, as pairs of ambient vertices.

        The intersection of the facets through two vertices is the
        smallest face holding both, and they span an edge exactly when it
        holds no other vertex.  An edge lies in at least d - 1 facets
        (Ziegler, "Lectures on Polytopes", 2.1), so only the pairs that
        share that many, counted from the facets through each vertex, are
        intersected."""
        verts = self.vertices
        d = self.affine_dim
        if d == 0:
            return []
        if d == 1:
            return [(verts[0], verts[-1])]
        facets = self._bound[0]
        out = []
        for i, mine in enumerate(self._through()):
            shared = {}
            for k in mine:
                eq = facets[k][2]
                for j in eq:
                    if j > i:
                        shared.setdefault(j, []).append(eq)
            for j, sets in shared.items():
                if len(sets) >= d - 1 and len(frozenset.intersection(*sets)) == 2:
                    out.append((verts[i], verts[j]))
        return sorted(out)

    def vertex_dual_vector(self, v):
        """A primitive integer q with <q, w - v> >= 1 for every other
        vertex w, read off the facets through the vertex v.

        The primitive inner normals of the facets through v span its
        normal cone (Ziegler, 2.1 and 7.1): each is >= 0 on every w - v,
        and since those facets meet in v alone, one of them is > 0 on it,
        hence >= 1 in integers.  So their sum works.  The sum lives in the
        frame coordinates, q_red . ((w - v) U)[:d], and is lifted to the
        ambient space as q_j = sum_k U[j][k] q_red[k].  Every other point
        of the polytope is a convex combination of the vertices, so q is
        positive on its difference from v too, and >= 1 on a lattice
        point.  The answer is checked on every other vertex; a failed
        check raises :class:`VerificationFailure`.  A v that is not a
        vertex raises :class:`NotAVertex`, a point polytope
        :class:`PreconditionViolation`.
        """
        v = intlin.lattice_point(v)
        if v not in self.vertices:
            raise NotAVertex("%r is not a vertex of the polytope" % (v,))
        d = self.affine_dim
        if d == 0:
            raise PreconditionViolation("a point has no other vertex to separate")
        i = self.vertices.index(v)
        facets = self._bound[0]
        q_red = [-sum(col) for col in zip(*(facets[k][0] for k in self._through()[i]))]
        # each frame row U[j] pairs with q_red's d entries, where map stops
        q = intlin.primitive_vector(
            [sum(map(mul, row, q_red)) for row in self._frame])
        for w in self.vertices:
            if w != v and sum(a * (x - y) for a, x, y in zip(q, w, v)) < 1:
                raise VerificationFailure("dual vector %r at vertex %r is not "
                                          "positive on the vertex %r" % (q, v, w))
        return q

    # -- invariants ------------------------------------------------------------

    def _volume(self):
        """Normalized volume of the reduction in Z^d, d = affine_dim.

        The cones from the first reduced vertex v0 over the boundary tile
        the polytope, so for d >= 1 it is the sum of |det(s - v0)| over
        the boundary simplices s, which is g (c - <n, v0>) for a simplex of
        weight g on the plane <n, x> = c: one dot product per simplex, and
        no determinant.  A point has volume 1.  Computed once.
        """
        if "volume" not in self._cache:
            v0 = self._red[0]
            self._cache["volume"] = sum(
                g * (c - sum(map(mul, n, v0)))
                for n, c, g in self._bound[1].values()) if self.affine_dim else 1
        return self._cache["volume"]

    def normalized_volume(self):
        """ambient_dim! times the Euclidean volume; 0 when lower-dimensional.

        Read off the hull's boundary, see :meth:`_volume`.
        """
        if self.affine_dim < self.ambient_dim:
            return 0
        return self._volume()

    def lattice_point_count(self):
        """Number of lattice points of the polytope.

        In the plane, Pick's formula: (V + B) / 2 + 1 with V the reduced
        normalized volume and B the sum of the stored edges' weights, their
        lattice lengths.  Above it, the hull facets of the projections onto
        the first k reduced coordinates, k = 1..d, give irredundant bounds
        on the k-th coordinate over each lattice point of the projection
        before; the walk runs over those prefixes and adds the length of
        the last coordinate's range without enumerating it.  The first
        level is the range of the first coordinate, its least and greatest
        value over the vertices, and the last is the polytope's own facets,
        so only the levels 2..d-1 run a projection hull.  Over each prefix of
        length d - 2, the prefix is folded into the offsets of the last
        level's facets once, so each value of the second-to-last
        coordinate costs one floor division per facet
        (:func:`_count_fibres`).
        """
        red = self._red
        d = self.affine_dim
        if d == 0:
            return 1
        if d == 1:
            return self._volume() + 1
        facets, boundary, _ = self._bound
        if d == 2:
            perimeter = sum(g for _, _, g in boundary.values())
            return (self._volume() + perimeter) // 2 + 1
        first = [v[0] for v in red]
        levels = [([((1,), max(first))], [((-1,), -min(first))])]
        for k in range(2, d + 1):
            # the projected points are distinct ints already, so the hull
            # runs without the public entry's input checks
            shadow = (intlin._hull(sorted({v[:k] for v in red}))[1]
                      if k < d else facets)
            levels.append(([(n, c) for n, c, _ in shadow if n[-1] > 0],
                           [(n, c) for n, c, _ in shadow if n[-1] < 0]))
        return _count_fibres(levels, 0, ())

    def edge_lattice_lengths(self):
        """The lattice lengths of the edges, sorted.

        In the plane they are the weights of the stored boundary: each edge
        of the monotone-chain cycle carries its lattice length g in the
        frame coordinates, which the unimodular frame keeps.  In every
        other dimension they are the gcds of the differences along
        :meth:`edges`."""
        if self.affine_dim == 2:
            return tuple(sorted(g for _, _, g in self._bound[1].values()))
        return tuple(sorted(
            gcd(*(a - b for a, b in zip(v, w)))
            for v, w in self.edges()))

    def invariants(self):
        return InvariantRecord(
            ambient_dim=self.ambient_dim,
            affine_dim=self.affine_dim,
            vertex_count=len(self.vertices),
            normalized_volume=self.normalized_volume(),
            lattice_point_count=self.lattice_point_count(),
            edge_lattice_lengths=self.edge_lattice_lengths(),
        )


def _count_fibres(levels, k, prefix):
    """Lattice points over an integer prefix of length k <= d - 2 (the
    empty prefix for k = 0, whose projection is a segment).

    ``levels[k]`` holds the facet inequalities of the projection onto the
    first k + 1 coordinates whose last coefficient is positive and
    negative; the facets with last coefficient zero hold for every prefix
    in the projection one level down.  At k = d - 2 the prefix is folded
    into the offset of each facet of the polytope once, so that over each
    value x of the second-to-last coordinate a facet bounds the last one
    by (c - a x) // b, and the range's length is added without
    enumerating it.
    """
    lo, hi = _range_for_prefix(*levels[k], prefix)
    if lo is None:
        return 0
    if k < len(levels) - 2:
        return sum(_count_fibres(levels, k + 1, prefix + (x,))
                   for x in range(lo, hi + 1))
    # n . (prefix, x, z) <= c  as  a x + b z <= c - n . prefix; the lower
    # bounds keep b negated, so that every divisor is positive
    pos, neg = levels[-1]
    tops = [(n[-2], n[-1], c - sum(map(mul, n, prefix))) for n, c in pos]
    bottoms = [(n[-2], -n[-1], c - sum(map(mul, n, prefix))) for n, c in neg]
    total = 0
    for x in range(lo, hi + 1):
        top = bottom = None
        for a, b, c in tops:
            z = (c - a * x) // b
            if top is None or z < top:
                top = z
        for a, b, c in bottoms:
            z = -((c - a * x) // b)
            if bottom is None or z > bottom:
                bottom = z
        if top >= bottom:
            total += top - bottom + 1
    return total


def _range_for_prefix(pos, neg, prefix):
    """The range (lo, hi) of the next coordinate over the prefix, or
    (None, None) when it is empty; the dot products stop at the end of
    the prefix."""
    hi = lo = None
    for n, c in pos:
        z = (c - sum(map(mul, n, prefix))) // n[-1]
        if hi is None or z < hi:
            hi = z
    for n, c in neg:
        z = -((c - sum(map(mul, n, prefix))) // -n[-1])
        if lo is None or z > lo:
            lo = z
    if lo is None or hi is None or lo > hi:
        return None, None
    return lo, hi


@dataclass(frozen=True)
class InvariantRecord:
    """Unimodular-and-translation invariants of a lattice polytope."""

    ambient_dim: int
    affine_dim: int
    vertex_count: int
    normalized_volume: int
    lattice_point_count: int
    edge_lattice_lengths: tuple

    def as_dict(self):
        return {
            "ambient_dim": self.ambient_dim,
            "affine_dim": self.affine_dim,
            "vertex_count": self.vertex_count,
            "normalized_volume": self.normalized_volume,
            "lattice_point_count": self.lattice_point_count,
            "edge_lattice_lengths": list(self.edge_lattice_lengths),
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certificate-style check; never claims the negative."""

    kind: str            # "distinct" | "unknown" | "irreducible" | "inconclusive"
    witness: str = ""

    def __bool__(self):
        return self.kind in ("distinct", "irreducible")


# --------------------------------------------------------------------------
# module-level operations
# --------------------------------------------------------------------------

def newton_polytope(f):
    """Convex hull of the exponent vectors of a nonzero Laurent polynomial."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton polytope")
    return LatticePolytope.from_points(list(f.terms))


def minkowski_sum(P, Q):
    """Hull of pairwise vertex sums."""
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("Minkowski sum needs equal ambient dimensions")
    sums = [tuple(a + b for a, b in zip(v, w))
            for v in P.vertices for w in Q.vertices]
    return LatticePolytope.from_points(sums)


def polytope_invariants(P):
    return P.invariants()


def certify_distinct(P, Q):
    """Distinct(witness) when some unimodular invariant differs; else Unknown.

    The compared fields are all invariant under GL(n, Z) plus translation,
    so a Distinct verdict is a proof of inequivalence.  Equality of all
    fields proves nothing, hence Unknown.
    """
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("cannot compare polytopes of different ambient dim")
    a, b = P.invariants().as_dict(), Q.invariants().as_dict()
    for field in ("edge_lattice_lengths", "normalized_volume",
                  "lattice_point_count", "vertex_count", "affine_dim"):
        if a[field] != b[field]:
            return Verdict("distinct", witness=field)
    return Verdict("unknown")


# --------------------------------------------------------------------------
# two-dimensional indecomposability
# --------------------------------------------------------------------------

def ccw_vertex_cycle(P):
    """Vertices of a polygon spanning Z^2 counterclockwise from the
    smallest: the hull's stored edges, in a frame that is the identity,
    translated by that vertex.  Any other polytope raises
    :class:`NotTwoDimensionalInput`."""
    if P.ambient_dim != 2 or P.affine_dim != 2:
        raise NotTwoDimensionalInput("the vertex cycle is that of a polygon in Z^2")
    _, edges, points = P._bound
    x0, y0 = P.vertices[0]
    return [(points[a][0] + x0, points[a][1] + y0) for a, _ in edges]


# Largest grid, in cells, whose split states indecomposable_2d keeps as the
# bits of one int; a larger polygon keeps them in a set.  On a 2-vCPU VM
# with Python 3.11, the int path decides the square of side 2047, whose
# grid nearly fills 2^26 cells (an 8 MB int), in 0.32 s at 68 MB peak,
# while the set path took 1.8 s on the square of side 256 already, before
# its move budget below refused such a square.
_GRID_BITS = 1 << 26

# Most moves, states times (g_i + 1) summed over the edges, that the set
# path of indecomposable_2d tries before it gives up.  The thin triangle
# (0, 0), (10^6, 1), (1, 10^6) takes about 10^6 of them in 0.15 s.  A move
# into a set of millions of states costs up to about 0.7 us: on a 2-vCPU VM
# with Python 3.11, 120 seeded wide polygons with 3-12 edges were refused
# within 0.75 s each.
_SET_MOVES = 1200000


def indecomposable_2d(P):
    """True when P admits no Minkowski split into two non-point summands.

    A convex lattice polygon is determined by its counterclockwise edge
    vectors g_i p_i (p_i primitive), which sum to zero.  P = A + B exactly
    when some choice 0 <= a_i <= g_i, neither all zero nor all full, has
    sum a_i p_i = 0.  A choice and its complement give the same split, so
    a_1 >= 1 loses nothing.  One pass over the edges keeps the set of
    states (sum so far, some a_i < g_i so far), dropping sums the remaining
    edges cannot bring back to zero (Gao-Lauder, "Decomposition of
    polytopes and polynomials", 2001).  For P of width w and height h the
    kept sums lie in [-w, w] x [-h, h], so there are at most
    2 (2w + 1)(2h + 1) states, and edge i moves each in g_i + 1 ways: the
    work is polynomial in the edge count, the lattice perimeter and the
    size of P, with no search over splits.

    The states are held in one of two ways, chosen by the size of P.
    When the grid [-2w, 2w] x [-2h, 2h] has at most ``_GRID_BITS`` = 2^26
    cells, as for any P in a square of side 2047, the sums with some
    a_i < g_i are the bits of one int over that grid
    (:func:`_no_split_bits`), and the one choice with every a_i full is
    its own state, the partial sum of the cycle.  An edge then costs
    O(log g_i) shifts and ors of an int of (4w + 1)(4h + 1) bits, and the
    box of sums that can still return to zero is one mask.  A larger
    polygon, such as a long thin triangle, keeps its states in a set
    (:func:`_no_split_set`), whose cost follows the number of states
    reached, at most the product above but often far fewer; a wide one,
    such as a square of side 2048, reaches millions of them.  The set path
    raises :class:`SearchBudgetExceeded` before it would pass
    ``_SET_MOVES`` moves, so such a polygon is refused in about a second.
    """
    if P.ambient_dim != 2:
        raise NotTwoDimensionalInput("indecomposability test is two-dimensional")
    d = P.affine_dim
    if d == 0:
        return True
    if d == 1:
        v, w = P.vertices[0], P.vertices[-1]
        return gcd(*(a - b for a, b in zip(v, w))) == 1
    cycle = ccw_vertex_cycle(P)
    edges = []
    for v, w in zip(cycle, cycle[1:] + cycle[:1]):
        g = gcd(w[0] - v[0], w[1] - v[1])
        edges.append(((w[0] - v[0]) // g, (w[1] - v[1]) // g, g))
    # reach[i] bounds the sums over the edges after the i-th: (lo_x, hi_x,
    # lo_y, hi_y); a state must lie in the negated box to return to zero
    reach = [(0, 0, 0, 0)]
    for px, py, g in reversed(edges[1:]):
        lx, hx, ly, hy = reach[-1]
        reach.append((lx + min(0, g * px), hx + max(0, g * px),
                      ly + min(0, g * py), hy + max(0, g * py)))
    reach.reverse()
    xs = [v[0] for v in cycle]
    ys = [v[1] for v in cycle]
    w, h = max(xs) - min(xs), max(ys) - min(ys)
    if (4 * w + 1) * (4 * h + 1) <= _GRID_BITS:
        return _no_split_bits(edges, reach, w, h)
    return _no_split_set(edges, reach)


def _no_split_set(edges, reach):
    """The split search of :func:`indecomposable_2d` over a set of states
    (x, y, some a_i < g_i so far)."""
    states = {(0, 0, False)}
    low = 1                                 # a_1 >= 1
    moves = 0
    for (px, py, g), (lx, hx, ly, hy) in zip(edges, reach):
        moves += len(states) * (g + 1)
        if moves > _SET_MOVES:
            raise SearchBudgetExceeded("the split search of a polygon this wide would try "
                                       "over %d moves" % _SET_MOVES)
        nxt = set()
        for x, y, short in states:
            for a in range(low, g + 1):
                x1, y1 = x + a * px, y + a * py
                if -hx <= x1 <= -lx and -hy <= y1 <= -ly:
                    nxt.add((x1, y1, short or a < g))
        if (0, 0, True) in nxt:
            return False
        states, low = nxt, 0
    return True


def _no_split_bits(edges, reach, w, h):
    """The split search of :func:`indecomposable_2d` over bitsets.

    The sum (x, y) is bit origin + x (4h + 1) + y, with the origin at the
    centre of the grid [-2w, 2w] x [-2h, 2h].  A kept sum lies in
    [-w, w] x [-h, h] and an edge moves it by at most w across and h up,
    so a move by (x, y) is a shift by x (4h + 1) + y that never wraps
    from one column of the grid into the next.  ``short`` holds the sums
    with some a_i < g_i; ``full`` is the offset of the one sum with every
    a_i full.
    """
    stride = 4 * h + 1
    origin = 2 * w * stride + 2 * h
    px, py, g = edges[0]
    step = px * stride + py
    short = _shift_union(1 << (origin + step), step, g - 1)
    full = g * step
    for (px, py, g), (lx, hx, ly, hy) in zip(edges[1:], reach[1:]):
        step = px * stride + py
        short = (_shift_union(short, step, g + 1)
                 | _shift_union(1 << (origin + full), step, g))
        column = ((1 << (hy - ly + 1)) - 1) << (origin - hx * stride - hy)
        short &= _shift_union(column, stride, hx - lx + 1)
        full += g * step
        if short >> origin & 1:
            return False
    return True


def _shift_union(bits, step, count):
    """The or of bits shifted by 0, step, ..., (count - 1) step, in
    O(log count) shifts: each binary digit of count doubles the run of
    shifts taken so far and may add one more.  Zero for count <= 0."""
    if count <= 0:
        return 0
    out, run = bits, 1
    for digit in bin(count)[3:]:
        out |= _shift(out, run * step)
        run *= 2
        if digit == "1":
            out |= _shift(bits, run * step)
            run += 1
    return out


def _shift(bits, k):
    return bits << k if k >= 0 else bits >> -k


# --------------------------------------------------------------------------
# irreducibility certificate
# --------------------------------------------------------------------------

def _is_simplex(P):
    return len(P.vertices) == P.affine_dim + 1


def irreducibility_certificate(f, facet_restrictions=()):
    """Certify irreducibility of a Laurent polynomial up to monomial units.

    f is first cleared at its lexicographically smallest exponent, which
    is always a vertex of its Newton polytope.  Two routes, both
    conservative (the verdict is Irreducible only when a proof exists; the
    check never claims reducibility):

    * ambient dimension 2: test integral indecomposability of the Newton
      polygon;
    * higher dimension: ``facet_restrictions`` names variables to peel off
      one at a time.  At each level the cleared Newton polytope must be a
      simplex, the terms surviving ``var = 0`` must span exactly the facet
      opposite a lattice-height-one apex (after ``var -> 1/var`` when the
      apex has a negative exponent in var), and the restriction must
      certify irreducible one level down.  Any factorization would then
      force one factor's polytope to a point.

    Returns a :class:`Verdict` of kind "irreducible" or "inconclusive".
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial is not irreducible")
    g = f.shift(tuple(-x for x in min(f.terms)))
    return _certify(g, tuple(facet_restrictions))


def _certify(g, facet_restrictions, P=None):
    """The certificate for g, whose smallest exponent is the origin, with
    P its Newton polytope when the caller has built it: a restriction
    keeps that origin, so its hull is handed down as is."""
    if len(g.terms) == 1:
        return Verdict("inconclusive", witness="monomial input is a unit")
    if len(g.variables) == 1 and set(facet_restrictions) <= set(g.variables):
        # cleared univariate, also at the end of a chain that peels its one
        # variable: irreducible exactly when linear
        top = max(e[0] for e in g.terms)
        if top == 1:
            return Verdict("irreducible", witness="primitive Newton segment")
        return Verdict("inconclusive", witness="Newton segment is not primitive")
    if len(g.variables) > 2 and not facet_restrictions:
        return Verdict("inconclusive",
                       witness="no facet restriction chain supplied")
    var = facet_restrictions[0] if facet_restrictions else None
    if var is not None and var not in g.variables:
        raise PreconditionViolation("unknown restriction variable %r" % var)
    if P is None:
        P = newton_polytope(g)
        if any(P.vertices[0]):
            raise VerificationFailure("the smallest exponent is not a vertex")
    if var is None:
        if indecomposable_2d(P):
            return Verdict("irreducible", witness="2d indecomposable Newton polygon")
        return Verdict("inconclusive",
                       witness="Newton polygon admits a Minkowski split")
    if P.affine_dim != len(g.variables) or not _is_simplex(P):
        return Verdict("inconclusive",
                       witness="cleared Newton polytope is not a full simplex")
    k = g.variables.index(var)
    base_verts = [v for v in P.vertices if v[k] == 0]
    apexes = [i for i, v in enumerate(P.vertices) if v[k] != 0]
    if len(apexes) != 1:
        return Verdict("inconclusive",
                       witness="restriction variable does not isolate an apex")
    a = apexes[0]
    # the base is the one facet of the simplex that misses the apex
    height = next((abs(sum(map(mul, n, P._red[a])) - c)
                   for n, c, eq in P._bound[0] if a not in eq), None)
    if height != 1:
        return Verdict("inconclusive",
                       witness="apex is not at lattice height one over the facet")
    if P.vertices[a][k] < 0:
        # var -> 1/var is unimodular: it keeps the base facet and the
        # height and puts the whole support on var's nonnegative side
        flip = intlin.identity_matrix(len(g.variables))
        flip[k][k] = -1
        g = g.substitute_monomial(flip)
    restriction = g.set_var_zero(var)     # keeps the constant term of g
    Q = newton_polytope(restriction)
    expected = sorted(v[:k] + v[k + 1:] for v in base_verts)
    if sorted(Q.vertices) != expected:
        return Verdict("inconclusive",
                       witness="restriction support does not match the facet")
    sub = _certify(restriction, facet_restrictions[1:], Q)
    if sub.kind != "irreducible":
        return Verdict("inconclusive",
                       witness="facet restriction not certified: " + sub.witness)
    return Verdict("irreducible",
                   witness="suspension over certified facet %r" % (var,))


__all__ = [
    "LatticePolytope",
    "InvariantRecord",
    "Verdict",
    "newton_polytope",
    "minkowski_sum",
    "polytope_invariants",
    "certify_distinct",
    "indecomposable_2d",
    "irreducibility_certificate",
    "ccw_vertex_cycle",
]
