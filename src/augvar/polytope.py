"""Lattice polytopes for Newton-polytope arguments.

Exact convex hulls of integer points, Minkowski sums, unimodular
invariants (normalized volume, lattice point count, edge lattice lengths),
two-dimensional integral indecomposability, and the suspension-induction
irreducibility certificate for Laurent polynomials.

Everything is exact.  Points are first rewritten in coordinates of their
saturated affine lattice; the integer hull engine of :mod:`augvar.intlin`
(monotone chain in the plane, beneath-beyond above it) then yields the
vertices and the facets together, and membership, edges and the
counterclockwise polygon cycle are read off its output.
"""

import itertools
from dataclasses import dataclass
from math import gcd

from . import intlin
from .errors import (
    DimensionMismatch,
    NotTwoDimensionalInput,
    PreconditionViolation,
    VerificationFailure,
    ZeroPolynomial,
)
from .laurent import clear_to_vertex, clear_to_vertex_fitted


def _vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


class LatticePolytope:
    """Convex hull of integer points, stored by its vertex set.

    The vertex list is hull-minimal and lexicographically sorted, so equal
    polytopes compare equal structurally.
    """

    __slots__ = ("ambient_dim", "vertices", "_cache")

    def __init__(self, ambient_dim, vertices):
        verts = sorted({tuple(int(x) for x in v) for v in vertices})
        if not verts:
            raise ValueError("a polytope needs at least one point")
        if any(len(v) != ambient_dim for v in verts):
            raise DimensionMismatch("point length != ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vertices", tuple(verts))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("LatticePolytope is immutable")

    @classmethod
    def from_points(cls, points):
        """Hull of arbitrary integer points; non-vertices are dropped.

        The hull engine runs once, on the points in reduced coordinates.
        The lexicographically smallest point is a vertex and the points
        span the same affine lattice as the vertices, so the reduction, the
        dimension and the facets carry over to the result's cache as they
        would be computed from its vertices.
        """
        pts = sorted({tuple(int(x) for x in p) for p in points})
        if not pts:
            raise ValueError("empty point set")
        support = cls(len(pts[0]), pts)
        d = support.affine_dim
        if d == 0:
            return support
        red, basis = support._reduced()
        vertices, facets = intlin.convex_hull(red)
        P = cls(support.ambient_dim, [pts[i] for i in vertices])
        position = {i: k for k, i in enumerate(vertices)}
        P._cache.update(
            adim=d,
            frame=support._frame(),
            reduced=(tuple(red[i] for i in vertices), basis),
            facets=[(n, c, frozenset(position[i] for i in eq if i in position))
                    for n, c, eq in facets] if d >= 2 else [])
        return P

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
        t = tuple(int(x) for x in t)
        return LatticePolytope(
            self.ambient_dim,
            [tuple(a + b for a, b in zip(v, t)) for v in self.vertices])

    def transform(self, M):
        """Image under an integer linear map (unimodular maps preserve all
        invariants computed here)."""
        return LatticePolytope(
            self.ambient_dim, [intlin.mat_vec(M, v) for v in self.vertices])

    @property
    def affine_dim(self):
        if "adim" not in self._cache:
            v0 = self.vertices[0]
            diffs = [tuple(a - b for a, b in zip(v, v0)) for v in self.vertices[1:]]
            self._cache["adim"] = len(intlin.echelon(diffs)[0])
        return self._cache["adim"]

    def _reduced(self):
        """Vertices rewritten in coordinates of the saturated affine lattice.

        Returns (reduced vertices, basis rows) where the reduction is a
        bijection between the polytope's affine lattice points and Z^d,
        d = affine_dim.  All lattice quantities (edge gcds, normalized
        volume, point counts) are preserved.
        """
        if "reduced" not in self._cache:
            reduced = []
            for v in self.vertices:
                coords = self._coordinates(v)
                if coords is None or any(c.denominator != 1 for c in coords):
                    raise VerificationFailure(
                        "vertex %r has no integer coordinates in the saturated "
                        "basis" % (v,))
                reduced.append(tuple(int(c) for c in coords))
            self._cache["reduced"] = (tuple(reduced), self._frame()[0])
        return self._cache["reduced"]

    def _frame(self):
        """(basis, pivots, inverse) of the saturated affine lattice.

        ``basis`` holds d integer rows spanning the lattice of the affine
        hull, ``pivots`` d ambient coordinates on which those rows are
        independent, and ``inverse`` the inverse of that d x d block.
        """
        if "frame" not in self._cache:
            d = self.affine_dim
            if d == 0:
                basis = []
            elif d == self.ambient_dim:
                basis = intlin.identity_matrix(d)
            else:
                v0 = self.vertices[0]
                normals = intlin.rational_nullspace(
                    [tuple(a - b for a, b in zip(v, v0)) for v in self.vertices])
                basis = intlin.integer_kernel(normals)
                if len(basis) != d:
                    raise VerificationFailure(
                        "saturation basis has rank %d, affine hull has dimension %d"
                        % (len(basis), d))
            pivots = sorted(p for p, _ in intlin.echelon(basis)[0])
            if len(pivots) != d:
                raise VerificationFailure("saturation basis rows are dependent")
            inverse = intlin.mat_inverse([[b[p] for b in basis] for p in pivots])
            self._cache["frame"] = (basis, pivots, inverse)
        return self._cache["frame"]

    def _coordinates(self, point):
        """Exact coordinates of point - vertices[0] in the saturated basis,
        or None when the point is off the affine hull."""
        basis, pivots, inverse = self._frame()
        diff = [a - b for a, b in zip(point, self.vertices[0])]
        coords = [sum(r[k] * diff[p] for k, p in enumerate(pivots)) for r in inverse]
        back = [sum(c * b[i] for c, b in zip(coords, basis))
                for i in range(self.ambient_dim)]
        return coords if back == diff else None

    # -- faces ---------------------------------------------------------------

    def _facets_reduced(self):
        """Facets of the full-dimensional reduction.

        Returns a list of (normal, offset, vertex index frozenset) with
        primitive integer normals, inequality <n, x> <= c, sorted by
        (normal, offset), from the hull engine; empty below dimension two.
        """
        if "facets" not in self._cache:
            verts, _ = self._reduced()
            self._cache["facets"] = (intlin.convex_hull(verts)[1]
                                     if self.affine_dim >= 2 else [])
        return self._cache["facets"]

    def edges(self):
        """Vertex pairs forming 1-faces, as pairs of ambient vertices."""
        verts = self.vertices
        d = self.affine_dim
        if d == 0:
            return []
        if d == 1:
            return [(verts[0], verts[-1])]
        red, _ = self._reduced()
        facets = self._facets_reduced()
        out = []
        for i, j in itertools.combinations(range(len(verts)), 2):
            containing = [eq for (_, _, eq) in facets if i in eq and j in eq]
            if not containing:
                continue
            common = frozenset.intersection(*containing)
            if common == {i, j}:
                out.append((verts[i], verts[j]))
        return sorted(out)

    def contains(self, point):
        """Exact membership test for an ambient rational point: it must
        satisfy the affine-hull equalities and every facet inequality."""
        point = tuple(point)
        if len(point) != self.ambient_dim:
            raise DimensionMismatch("point dimension mismatch")
        x = self._coordinates(point)
        if x is None:
            return False
        if self.affine_dim == 1:
            vals = [v[0] for v in self._reduced()[0]]
            return min(vals) <= x[0] <= max(vals)
        return all(sum(a * b for a, b in zip(n, x)) <= c
                   for n, c, _ in self._facets_reduced())

    # -- invariants ------------------------------------------------------------

    def normalized_volume(self):
        """ambient_dim! times the Euclidean volume; 0 when lower-dimensional."""
        if self.affine_dim < self.ambient_dim:
            return 0
        red, _ = self._reduced()
        return _normalized_volume(list(red), self.affine_dim)

    def lattice_point_count(self):
        red, _ = self._reduced()
        d = self.affine_dim
        if d == 0:
            return 1
        if d == 1:
            vals = [v[0] for v in red]
            return max(vals) - min(vals) + 1
        ineqs = [(n, c) for (n, c, _) in self._facets_reduced()]
        return _count_lattice_points(ineqs, [v for v in red], d)

    def edge_lattice_lengths(self):
        return tuple(sorted(
            _vec_gcd(tuple(a - b for a, b in zip(v, w)))
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


def _normalized_volume(verts, d):
    """d! * volume of a full-dimensional polytope given in Z^d.

    Pyramid decomposition over the facets avoiding a base vertex; the
    lattice height times the facet's own normalized volume multiplies out
    exactly.
    """
    if d == 0:
        return 1
    if d == 1:
        vals = [v[0] for v in verts]
        return max(vals) - min(vals)
    P = LatticePolytope(d, verts)
    if P.affine_dim < d:
        return 0
    red, _ = P._reduced()
    v0 = red[0]
    total = 0
    for n, c, eq in P._facets_reduced():
        h = abs(sum(a * b for a, b in zip(n, v0)) - c)
        if h == 0:
            continue
        fverts = [red[i] for i in sorted(eq)]
        F = LatticePolytope(d, fverts)
        fred, _ = F._reduced()
        total += h * _normalized_volume(list(fred), d - 1)
    return total


def _count_lattice_points(ineqs, sample_vertices, d):
    """Number of integer points satisfying all <n, x> <= c.

    Recursive Fourier-Motzkin elimination of the last coordinate keeps the
    work proportional to the point counts of the projections rather than
    to any bounding box.
    """
    if d == 1:
        lo, hi = _interval(ineqs)
        if lo is None:
            return 0
        return max(0, hi - lo + 1)
    pos = [(n, c) for n, c in ineqs if n[-1] > 0]
    neg = [(n, c) for n, c in ineqs if n[-1] < 0]
    zero = [(n[:-1], c) for n, c in ineqs if n[-1] == 0]
    projected = list(zero)
    for (np_, cp) in pos:
        for (nn, cn) in neg:
            a, b = np_[-1], -nn[-1]
            comb = tuple(b * np_[i] + a * nn[i] for i in range(d - 1))
            projected.append((comb, b * cp + a * cn))
    count = 0
    for prefix in _enumerate_points(projected, d - 1):
        lo, hi = _range_for_prefix(pos, neg, prefix)
        if lo is not None:
            count += max(0, hi - lo + 1)
    return count


def _interval(ineqs):
    """Integer interval satisfying scalar inequalities a x <= c."""
    lo, hi = None, None
    for n, c in ineqs:
        a = n[0]
        if a > 0:
            bound = c // a  # floor(c/a)
            hi = bound if hi is None else min(hi, bound)
        elif a < 0:
            bound = _ceil_div(-c, -a)  # ceil(c/a)
            lo = bound if lo is None else max(lo, bound)
        elif c < 0:
            return None, None
    if lo is None or hi is None or lo > hi:
        # a polytope slice is always bounded, so None here means empty
        return None, None
    return lo, hi


def _ceil_div(a, b):
    return -((-a) // b)


def _range_for_prefix(pos, neg, prefix):
    hi = None
    for n, c in pos:
        rest = c - sum(n[i] * prefix[i] for i in range(len(prefix)))
        bound = rest // n[-1]
        hi = bound if hi is None else min(hi, bound)
    lo = None
    for n, c in neg:
        rest = c - sum(n[i] * prefix[i] for i in range(len(prefix)))
        bound = _ceil_div(-rest, -n[-1])
        lo = bound if lo is None else max(lo, bound)
    if lo is None or hi is None or lo > hi:
        return None, None
    return lo, hi


def _enumerate_points(ineqs, d):
    if d == 1:
        lo, hi = _interval(ineqs)
        if lo is None:
            return
        for x in range(lo, hi + 1):
            yield (x,)
        return
    pos = [(n, c) for n, c in ineqs if n[-1] > 0]
    neg = [(n, c) for n, c in ineqs if n[-1] < 0]
    zero = [(n[:-1], c) for n, c in ineqs if n[-1] == 0]
    projected = list(zero)
    for (np_, cp) in pos:
        for (nn, cn) in neg:
            a, b = np_[-1], -nn[-1]
            comb = tuple(b * np_[i] + a * nn[i] for i in range(d - 1))
            projected.append((comb, b * cp + a * cn))
    for prefix in _enumerate_points(projected, d - 1):
        lo, hi = _range_for_prefix(pos, neg, prefix)
        if lo is None:
            continue
        for x in range(lo, hi + 1):
            yield prefix + (x,)


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
    """Vertices of a full-dimensional polygon in counterclockwise order,
    starting at the lexicographically smallest one: the monotone chain."""
    return [P.vertices[i] for i in intlin.monotone_chain(P.vertices)]


def indecomposable_2d(P):
    """True when P admits no Minkowski split into two non-point summands.

    A convex lattice polygon is determined by its counterclockwise edge
    vectors, which sum to zero.  P = A + B exactly when the edge multiset
    splits into two sub-multisets that each sum to zero (keeping one
    contiguous run of each primitive direction per summand).  Exhaustive
    search over the splits; polygon inputs here are tiny.
    """
    if P.ambient_dim != 2:
        raise NotTwoDimensionalInput("indecomposability test is two-dimensional")
    d = P.affine_dim
    if d == 0:
        return True
    if d == 1:
        v, w = P.vertices[0], P.vertices[-1]
        return _vec_gcd(tuple(a - b for a, b in zip(v, w))) == 1
    cycle = ccw_vertex_cycle(P)
    edges = []
    for i in range(len(cycle)):
        v, w = cycle[i], cycle[(i + 1) % len(cycle)]
        e = (w[0] - v[0], w[1] - v[1])
        g = _vec_gcd(e)
        edges.append(((e[0] // g, e[1] // g), g))
    # choose a_i in [0, g_i] with sum a_i p_i = 0, not all zero, not all full
    dirs = [p for p, _ in edges]
    mults = [g for _, g in edges]

    def search(i, sx, sy):
        if i == len(edges):
            return sx == 0 and sy == 0
        # prune: remaining edges bound the achievable change in each coordinate
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


# --------------------------------------------------------------------------
# irreducibility certificate
# --------------------------------------------------------------------------

def _is_simplex(P):
    return len(P.vertices) == P.affine_dim + 1


def _lattice_height_above_facet(P, facet_vertex_set, apex):
    """Lattice distance of apex from the affine hull of the facet, measured
    in the reduced coordinates of P."""
    red, _ = P._reduced()
    index = {v: i for i, v in enumerate(P.vertices)}
    for n, c, eq in P._facets_reduced():
        if eq == frozenset(index[v] for v in facet_vertex_set):
            a = red[index[apex]]
            return abs(sum(x * y for x, y in zip(n, a)) - c)
    return None


def irreducibility_certificate(f, facet_restrictions=()):
    """Certify irreducibility of a Laurent polynomial up to monomial units.

    Two routes, both conservative (the verdict is Irreducible only when a
    proof exists; the check never claims reducibility):

    * ambient dimension 2: clear to a vertex and test integral
      indecomposability of the Newton polygon;
    * higher dimension: ``facet_restrictions`` names variables to peel off
      one at a time.  At each level the cleared Newton polytope must be a
      simplex, the terms surviving ``var = 0`` must span exactly the facet
      opposite a lattice-height-one apex, and the restriction must certify
      irreducible one level down.  Any factorization would then force one
      factor's polytope to a point.

    Returns a :class:`Verdict` of kind "irreducible" or "inconclusive".
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial is not irreducible")
    g = _cleared(f)
    if len(g.terms) == 1:
        return Verdict("inconclusive", witness="monomial input is a unit")
    if len(f.variables) == 1 and not facet_restrictions:
        # cleared univariate: irreducible exactly when linear
        top = max(e[0] for e in g.terms)
        if top == 1:
            return Verdict("irreducible", witness="primitive Newton segment")
        return Verdict("inconclusive", witness="Newton segment is not primitive")
    if len(f.variables) == 2 and not facet_restrictions:
        P = newton_polytope(g)
        if indecomposable_2d(P):
            return Verdict("irreducible", witness="2d indecomposable Newton polygon")
        return Verdict("inconclusive",
                       witness="Newton polygon admits a Minkowski split")
    if not facet_restrictions:
        return Verdict("inconclusive",
                       witness="no facet restriction chain supplied")
    var = facet_restrictions[0]
    if var not in g.variables:
        raise PreconditionViolation("unknown restriction variable %r" % var)
    P = newton_polytope(g)
    if P.affine_dim != len(g.variables) or not _is_simplex(P):
        return Verdict("inconclusive",
                       witness="cleared Newton polytope is not a full simplex")
    k = g.variables.index(var)
    base_verts = [v for v in P.vertices if v[k] == 0]
    apexes = [v for v in P.vertices if v[k] != 0]
    if len(apexes) != 1 or len(base_verts) != len(P.vertices) - 1:
        return Verdict("inconclusive",
                       witness="restriction variable does not isolate an apex")
    height = _lattice_height_above_facet(P, base_verts, apexes[0])
    if height != 1:
        return Verdict("inconclusive",
                       witness="apex is not at lattice height one over the facet")
    restriction = g.set_var_zero(var)
    if restriction.is_zero():
        return Verdict("inconclusive", witness="restriction vanished")
    Q = newton_polytope(restriction)
    expected = sorted(v[:k] + v[k + 1:] for v in base_verts)
    if sorted(Q.vertices) != expected:
        return Verdict("inconclusive",
                       witness="restriction support does not match the facet")
    sub = irreducibility_certificate(restriction, tuple(facet_restrictions[1:]))
    if sub.kind != "irreducible":
        return Verdict("inconclusive",
                       witness="facet restriction not certified: " + sub.witness)
    return Verdict("irreducible",
                   witness="suspension over certified facet %r" % (var,))


def _cleared(f):
    """Clear f at its grlex-minimal Newton vertex (no-op when the constant
    term is already a vertex)."""
    P = newton_polytope(f)
    v = min(P.vertices)
    return clear_to_vertex(f, v)


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
    "clear_to_vertex",
    "clear_to_vertex_fitted",
]
