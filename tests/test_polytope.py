"""Tests for lattice polytopes, invariants, and certificates.

The oracles here (monotone-chain hull, shoelace area, box lattice counts,
erosion-based Minkowski decomposition search) are implemented locally with
plain integer arithmetic and never call the library's hull code.  The
library's planar hull is a monotone chain too, so hull tests also compare
against the LP membership oracle of ``hull_oracles``, an independent route.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from augvar import intlin, polytope
from augvar.cli import random_unimodular
from augvar.errors import (
    DimensionMismatch,
    NotAVertex,
    NotTwoDimensionalInput,
    PreconditionViolation,
    VerificationFailure,
)
from augvar.laurent import LaurentPoly
from augvar.polytope import (
    LatticePolytope,
    Verdict,
    certify_distinct,
    ccw_vertex_cycle,
    indecomposable_2d,
    irreducibility_certificate,
    minkowski_sum,
    newton_polytope,
    polytope_invariants,
)
from augvar.potentials import toric_relation, user_relation

from hull_oracles import in_convex_hull, lp_vertex_indices
from lattice_oracles import facet_contains, image, split_search_indecomposable

F = Fraction


# --------------------------------------------------------------------------
# independent 2-D oracles
# --------------------------------------------------------------------------

def hull2d(points):
    """Monotone chain; returns ccw vertex list (no collinear points)."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) > 1 else pts


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def in_polygon(p, cycle):
    if len(cycle) == 1:
        return p == cycle[0]
    if len(cycle) == 2:
        a, b = cycle
        if _cross(a, b, p) != 0:
            return False
        return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and \
            min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    n = len(cycle)
    return all(_cross(cycle[i], cycle[(i + 1) % n], p) >= 0 for i in range(n))


def box_lattice_points(cycle):
    xs = [p[0] for p in cycle]
    ys = [p[1] for p in cycle]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if in_polygon((x, y), cycle):
                out.append((x, y))
    return out


def shoelace_doubled(cycle):
    n = len(cycle)
    total = 0
    for i in range(n):
        x1, y1 = cycle[i]
        x2, y2 = cycle[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total)


def decomposable_bruteforce(P):
    """Search all lattice sub-polygons A of P and test P = A + B via the
    erosion B = {x : x + A inside P}."""
    cycle = ccw_oracle(P)
    pts = box_lattice_points(cycle)
    seen = set()
    candidates = []
    for r in range(2, len(pts) + 1):
        for subset in itertools.combinations(pts, r):
            h = tuple(sorted(hull2d(subset)))
            base = h[0]
            canon = tuple(sorted((x - base[0], y - base[1]) for x, y in h))
            if canon in seen:
                continue
            seen.add(canon)
            if len(canon) >= 2:
                candidates.append(canon)
    target = set(P.vertices)
    for A in candidates:
        shifts = []
        for x in range(min(p[0] for p in pts) - max(a[0] for a in A),
                       max(p[0] for p in pts) + 1):
            for y in range(min(p[1] for p in pts) - max(a[1] for a in A),
                           max(p[1] for p in pts) + 1):
                if all(in_polygon((x + ax, y + ay), cycle) for ax, ay in A):
                    shifts.append((x, y))
        if not shifts:
            continue
        B = hull2d(shifts)
        if len(B) < 2:
            continue
        sums = hull2d([(a[0] + b[0], a[1] + b[1]) for a in A for b in B])
        if set(sums) == target:
            return True
    return False


def ccw_oracle(P):
    return hull2d(list(P.vertices))


# --------------------------------------------------------------------------
# hulls and Minkowski sums
# --------------------------------------------------------------------------

def test_newton_polytope_triangle():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    P = newton_polytope(1 + y1 + y2)
    assert P.vertices == ((0, 0), (0, 1), (1, 0))


def test_newton_polytope_constant():
    P = newton_polytope(LaurentPoly.constant(7, ("y1", "y2")))
    assert P.vertices == ((0, 0),)


def test_newton_polytope_clifford_triangle():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    P = newton_polytope(y1 + y2 - (y1 * y2) ** -1)
    assert set(P.vertices) == {(1, 0), (0, 1), (-1, -1)}


def test_hull_drops_interior_and_edge_points():
    P = LatticePolytope.from_points(
        [(0, 0), (2, 0), (0, 2), (1, 0), (0, 1), (1, 1)])
    assert set(P.vertices) == {(0, 0), (2, 0), (0, 2)}


def test_hull_matches_monotone_chain_oracle():
    rng = random.Random(2718)
    for _ in range(200):
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6))
               for _ in range(rng.randint(1, 10))]
        P = LatticePolytope.from_points(pts)
        assert sorted(P.vertices) == sorted(hull2d(pts))
        distinct = sorted(set(pts))
        assert list(P.vertices) == [distinct[i] for i in lp_vertex_indices(distinct)]


def test_lattice_count_3d_matches_membership_oracle():
    rng = random.Random(31415)
    done = 0
    while done < 12:
        pts = [tuple(rng.randint(-2, 3) for _ in range(3))
               for _ in range(rng.randint(4, 7))]
        P = LatticePolytope.from_points(pts)
        if P.affine_dim != 3:
            continue
        los = [min(v[i] for v in P.vertices) for i in range(3)]
        his = [max(v[i] for v in P.vertices) for i in range(3)]
        count = 0
        for x in range(los[0], his[0] + 1):
            for y in range(los[1], his[1] + 1):
                for z in range(los[2], his[2] + 1):
                    inside = in_convex_hull((x, y, z), P.vertices)
                    assert facet_contains(P, (x, y, z)) == inside
                    count += inside
        assert P.lattice_point_count() == count
        done += 1


def test_contains_lower_dimensional_checks_affine_hull():
    # a triangle on the plane x0 = x1 + 1 in Z^3: the stored frame must
    # tell the points off the plane apart
    P = LatticePolytope(3, [(1, 0, 0), (3, 2, 0), (1, 0, 2)])
    assert P.affine_dim == 2
    assert facet_contains(P, (F(3, 2), F(1, 2), F(1, 2)))
    assert facet_contains(P, (2, 1, 1))                            # on an edge
    assert not facet_contains(P, (F(3, 2), F(1, 3), F(1, 2)))      # off the plane
    assert not facet_contains(P, (3, 2, 1))                        # on the plane, outside
    segment = LatticePolytope(3, [(0, 0, 0), (2, 4, 6)])
    assert facet_contains(segment, (F(1, 2), 1, F(3, 2)))
    assert not facet_contains(segment, (F(1, 2), 1, 2))
    assert not facet_contains(segment, (3, 6, 9))
    point = LatticePolytope(2, [(1, -1)])
    assert facet_contains(point, (F(2, 2), -1))
    assert not facet_contains(point, (1, F(-1, 2)))


def test_contains_agrees_with_lp_oracle():
    rng = random.Random(211)
    for trial in range(30):
        ambient = 2 + trial % 3
        pts = [tuple(rng.randint(-2, 2) for _ in range(ambient))
               for _ in range(rng.randint(1, 7))]
        if trial % 3 == 0:
            pts = [(p[1] + 1,) + p[1:] for p in pts]
        P = LatticePolytope.from_points(pts)
        for _ in range(10):
            q = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(ambient))
            if trial % 3 == 0 and rng.random() < 0.5:
                q = (q[1] + 1,) + q[1:]
            assert facet_contains(P, q) == in_convex_hull(q, P.vertices), (P, q)


def test_constructor_keeps_only_hull_vertices():
    P = LatticePolytope(2, [(0, 0), (1, 0), (2, 0), (0, 2)])
    assert P.vertices == ((0, 0), (0, 2), (2, 0))
    assert P.invariants().vertex_count == 3
    assert P.edge_lattice_lengths() == (2, 2, 2)
    assert P == LatticePolytope.from_points([(1, 1), (0, 0), (2, 0), (0, 2)])


def test_transform_image_is_hull_minimal():
    square = LatticePolytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    sheared = image(square, [[1, 1], [0, 1]])
    assert sheared.vertices == ((0, 0), (1, 0), (1, 1), (2, 1))
    flattened = image(square, [[1, 1], [0, 0]])     # not unimodular
    assert flattened.vertices == ((0, 0), (2, 0))
    assert flattened.lattice_point_count() == 3


def test_non_integer_coordinates_are_rejected_not_truncated():
    triangle = LatticePolytope(2, [(0, 0), (3, 0), (0, 3)])
    with pytest.raises(PreconditionViolation):
        image(triangle, [[F(1, 2), 0], [0, 1]])      # (3, 0) -> (3/2, 0)
    with pytest.raises(PreconditionViolation):
        LatticePolytope(2, [(F(1, 2), 0), (3, 0), (0, 3)])
    with pytest.raises(PreconditionViolation):
        triangle.translate((F(1, 2), 0))
    with pytest.raises(PreconditionViolation):
        LatticePolytope(1, [(2.5,)])


def test_constructor_checks_its_points():
    # the one gate in front of the hull engine: empty and ragged input
    # raise, and a repeated point, also one equal once made integer, merges
    with pytest.raises(ValueError):
        LatticePolytope(2, [])
    with pytest.raises(DimensionMismatch):
        LatticePolytope(3, [(0, 0, 0), (1, 0, 0), (0, 1), (0, 0, 1)])
    triangle = LatticePolytope(2, [(0, 0), (1, 0), (0, 1)])
    assert LatticePolytope(2, [(0, 0), (1, 0), (0, 1), (1, 0)]) == triangle
    assert LatticePolytope(2, [(0, 0), (1, 0), (0, 1), (F(2, 2), 0)]) == triangle


def test_integer_valued_fractions_are_accepted():
    triangle = LatticePolytope(2, [(F(0), F(0)), (F(6, 2), 0), (0, 3)])
    assert triangle.vertices == ((0, 0), (0, 3), (3, 0))
    assert all(type(x) is int for v in triangle.vertices for x in v)
    assert image(triangle, [[F(2, 3), 0], [0, F(1, 3)]]).vertices == \
        ((0, 0), (0, 1), (2, 0))
    assert triangle.translate((F(4, 2), -1)).vertices == ((2, -1), (2, 2), (5, -1))


def test_minkowski_point_translates():
    P = LatticePolytope(2, [(0, 0), (1, 0), (0, 1)])
    Q = LatticePolytope(2, [(3, 4)])
    assert minkowski_sum(P, Q) == P.translate((3, 4))


def test_minkowski_segments_make_square():
    S1 = LatticePolytope(2, [(0, 0), (1, 0)])
    S2 = LatticePolytope(2, [(0, 0), (0, 1)])
    assert set(minkowski_sum(S1, S2).vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_minkowski_matches_product_newton():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    f, g = 1 + y1, 1 + y2
    assert newton_polytope(f * g) == minkowski_sum(newton_polytope(f),
                                                   newton_polytope(g))


def test_minkowski_dimension_mismatch():
    P = LatticePolytope(2, [(0, 0)])
    Q = LatticePolytope(3, [(0, 0, 0)])
    with pytest.raises(DimensionMismatch):
        minkowski_sum(P, Q)


def test_ostrowski_random_pairs():
    rng = random.Random(101)
    for trial in range(60):
        nvars = 2 if trial % 2 == 0 else 3
        f = _random_laurent(rng, nvars)
        g = _random_laurent(rng, nvars)
        assert newton_polytope(f * g) == \
            minkowski_sum(newton_polytope(f), newton_polytope(g))


def _random_laurent(rng, nvars, span=3):
    vs = tuple("y%d" % i for i in range(1, nvars + 1))
    terms = {}
    for _ in range(rng.randint(2, 5)):
        e = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[e] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    return LaurentPoly(vs, terms)


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------

def test_invariants_clifford_triangle():
    P = LatticePolytope(2, [(1, 0), (0, 1), (-1, -1)])
    inv = polytope_invariants(P)
    assert inv.normalized_volume == 3
    assert inv.lattice_point_count == 4
    assert inv.edge_lattice_lengths == (1, 1, 1)
    assert inv.vertex_count == 3


def test_invariants_unit_triangle():
    P = LatticePolytope(2, [(0, 0), (1, 0), (0, 1)])
    inv = polytope_invariants(P)
    assert inv.normalized_volume == 1
    assert inv.lattice_point_count == 3
    assert inv.edge_lattice_lengths == (1, 1, 1)


def test_invariants_segment():
    P = LatticePolytope(1, [(0,), (4,)])
    inv = polytope_invariants(P)
    assert inv.edge_lattice_lengths == (4,)
    assert inv.lattice_point_count == 5
    assert inv.normalized_volume == 4     # full-dimensional in ambient dim 1


def test_invariants_lower_dimensional_flagged():
    P = LatticePolytope(2, [(0, 0), (2, 2)])
    inv = polytope_invariants(P)
    assert inv.affine_dim == 1
    assert inv.normalized_volume == 0
    assert inv.edge_lattice_lengths == (2,)
    assert inv.lattice_point_count == 3


def test_volume_and_count_match_oracles_2d():
    rng = random.Random(71)
    for _ in range(30):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4))
               for _ in range(rng.randint(3, 7))]
        P = LatticePolytope.from_points(pts)
        if P.affine_dim != 2:
            continue
        cycle = ccw_oracle(P)
        assert P.normalized_volume() == shoelace_doubled(cycle)
        assert P.lattice_point_count() == len(box_lattice_points(cycle))


def test_volume_3d_known_values():
    cube = LatticePolytope(3, list(itertools.product((0, 1), repeat=3)))
    assert cube.normalized_volume() == 6
    assert cube.lattice_point_count() == 8
    simplex = LatticePolytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert simplex.normalized_volume() == 1
    assert simplex.lattice_point_count() == 4
    big = LatticePolytope(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert big.normalized_volume() == 8
    assert big.lattice_point_count() == 10


def test_cube_edge_structure():
    cube = LatticePolytope(3, list(itertools.product((0, 1), repeat=3)))
    edges = cube.edges()
    assert len(edges) == 12
    assert cube.edge_lattice_lengths() == (1,) * 12
    doubled = LatticePolytope(3, list(itertools.product((0, 2), repeat=3)))
    assert doubled.edge_lattice_lengths() == (2,) * 12


def test_octahedron_structure():
    octa = LatticePolytope(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                               (0, 0, 1), (0, 0, -1)])
    assert len(octa.edges()) == 12
    assert octa.normalized_volume() == 8      # euclidean volume 4/3
    assert octa.lattice_point_count() == 7


def test_vertex_dual_vector_sums_the_inner_normals():
    cube = LatticePolytope(3, list(itertools.product((0, 1), repeat=3)))
    assert cube.vertex_dual_vector((0, 0, 0)) == (1, 1, 1)
    assert cube.vertex_dual_vector((1, 0, 0)) == (-1, 1, 1)
    assert cube.vertex_dual_vector((1, 1, 1)) == (-1, -1, -1)
    octa = LatticePolytope(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                               (0, 0, 1), (0, 0, -1)])
    assert octa.vertex_dual_vector((0, 0, 1)) == (0, 0, -1)   # (0, 0, -4) / 4
    # a segment and a parallelogram in Z^3 take their vector in the frame
    segment = LatticePolytope(3, [(0, 0, 0), (1, -1, 2), (2, -2, 4)])
    square = LatticePolytope(3, [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)])
    for P in (segment, square):
        for v in P.vertices:
            q = P.vertex_dual_vector(v)
            assert gcd(*q) == 1
            assert all(sum(a * (x - y) for a, x, y in zip(q, w, v)) >= 1
                       for w in P.vertices if w != v)
    with pytest.raises(NotAVertex):
        segment.vertex_dual_vector((1, -1, 2))
    with pytest.raises(PreconditionViolation):
        LatticePolytope(2, [(1, 1)]).vertex_dual_vector((1, 1))


def test_sheared_cube_keeps_volume_and_count():
    cube = LatticePolytope(3, list(itertools.product((0, 1), repeat=3)))
    shear = [[1, 2, 0], [0, 1, -1], [0, 0, 1]]
    Q = image(cube, shear).translate((4, -1, 2))
    assert Q.normalized_volume() == 6
    assert Q.lattice_point_count() == 8
    assert Q.edge_lattice_lengths() == cube.edge_lattice_lengths()


def test_invariance_under_unimodular_and_translation():
    rng = random.Random(83)
    for trial in range(40):
        nvars = 2 if trial % 2 == 0 else 3
        pts = [tuple(rng.randint(-3, 3) for _ in range(nvars))
               for _ in range(rng.randint(2, 6))]
        P = LatticePolytope.from_points(pts)
        M = random_unimodular(nvars, seed=trial)
        t = tuple(rng.randint(-5, 5) for _ in range(nvars))
        Q = image(P, M).translate(t)
        assert polytope_invariants(P) == polytope_invariants(Q)


# --------------------------------------------------------------------------
# distinctness certificates
# --------------------------------------------------------------------------

def test_certify_distinct_by_edge_lengths():
    P = LatticePolytope(2, [(1, 0), (0, 1), (-1, -1)])
    Q = LatticePolytope(2, [(0, 0), (3, 0), (0, 1)])
    verdict = certify_distinct(P, Q)
    assert verdict.kind == "distinct"
    assert verdict.witness == "edge_lattice_lengths"


def test_certify_distinct_unknown_for_unimodular_image():
    P = LatticePolytope(2, [(1, 0), (0, 1), (-1, -1)])
    Q = image(P, [[2, 1], [1, 1]]).translate((3, -2))
    assert certify_distinct(P, Q).kind == "unknown"


def test_certify_distinct_unknown_for_translate():
    P = LatticePolytope(2, [(1, 0), (0, 1), (-1, -1)])
    assert certify_distinct(P, P.translate((1, 1))).kind == "unknown"


def test_certify_never_distinct_on_equivalent_random():
    rng = random.Random(97)
    for trial in range(40):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rng.randint(2, 6))]
        P = LatticePolytope.from_points(pts)
        Q = image(P, random_unimodular(2, seed=1000 + trial)) \
            .translate((rng.randint(-4, 4), rng.randint(-4, 4)))
        assert certify_distinct(P, Q).kind == "unknown"


# --------------------------------------------------------------------------
# indecomposability
# --------------------------------------------------------------------------

def test_unit_triangle_indecomposable():
    assert indecomposable_2d(LatticePolytope(2, [(0, 0), (1, 0), (0, 1)]))


def test_unit_square_decomposable():
    assert not indecomposable_2d(
        LatticePolytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)]))


def test_point_indecomposable():
    assert indecomposable_2d(LatticePolytope(2, [(5, -3)]))


def test_segments():
    assert indecomposable_2d(LatticePolytope(2, [(0, 0), (1, 1)]))
    assert not indecomposable_2d(LatticePolytope(2, [(0, 0), (2, 2)]))


def test_indecomposable_requires_dim_2():
    with pytest.raises(NotTwoDimensionalInput):
        indecomposable_2d(LatticePolytope(3, [(0, 0, 0), (1, 0, 0)]))


def test_indecomposable_agrees_with_bruteforce():
    cases = [
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(1, 0), (0, 1), (-1, -1)],
        [(0, 0), (2, 0), (0, 2)],
        [(0, 0), (2, 1), (1, 2)],
        [(0, 0), (1, 0), (1, 1), (0, 2)],
        [(0, 0), (2, 0), (2, 1), (0, 1)],
        [(0, 0), (3, 0), (0, 1)],
        [(0, 0), (2, 0), (1, 2)],
        [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
    ]
    rng = random.Random(7)
    while len(cases) < 18:
        pts = [(rng.randint(0, 3), rng.randint(0, 3))
               for _ in range(rng.randint(3, 6))]
        P = LatticePolytope.from_points(pts)
        if P.affine_dim == 2 and len(box_lattice_points(ccw_oracle(P))) <= 12:
            cases.append(list(P.vertices))
    for verts in cases:
        P = LatticePolytope.from_points(verts)
        if P.affine_dim != 2:
            continue
        assert indecomposable_2d(P) == (not decomposable_bruteforce(P)), verts


def _edge_steps(P):
    cycle = ccw_vertex_cycle(P)
    return [(w[0] - v[0], w[1] - v[1]) for v, w in zip(cycle, cycle[1:] + cycle[:1])]


def test_indecomposable_matches_split_search():
    rng = random.Random(113)
    polygons = []
    while len(polygons) < 150:
        r = rng.randint(2, 6)
        pts = [(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(rng.randint(4, 16))]
        P = LatticePolytope.from_points(pts)
        if P.affine_dim == 2 and 4 <= len(P.vertices) <= 12:
            polygons.append(P)
    # scaled copies have non-primitive edges and split as P + P
    scaled = [image(P, [[k, 0], [0, k]]) for P, k in zip(polygons[:30], itertools.cycle((2, 3)))]
    # lower dimensions: points and segments, primitive or not
    small = [LatticePolytope.from_points(pts) for pts in (
        [(0, 0)], [(4, -1)], [(0, 0), (1, 3)], [(0, 0), (2, 6)], [(-1, 2), (2, -4)],
        [(0, 0), (5, 0)], [(0, 0), (0, -1)])]
    verdicts = []
    for P in polygons + scaled + small:
        verdicts.append(indecomposable_2d(P))
        assert verdicts[-1] == split_search_indecomposable(P), P.vertices
    assert not any(indecomposable_2d(P) for P in scaled)
    assert 20 < sum(verdicts) < len(verdicts) - 20     # both verdicts occur


def indecomposable_polygon(edges):
    """A polygon with ``edges`` primitive edges, all but one pointing into
    the open upper half-plane: the construction of the benchmark ladder."""
    rng = random.Random("ladder-polygon-%d" % edges)
    pool = [(x, y) for y in (1, 2, 3) for x in range(-6, 7) if gcd(x, y) == 1]
    while True:
        up = rng.sample(pool, edges - 1)
        last = (-sum(v[0] for v in up), -sum(v[1] for v in up))
        if gcd(last[0], last[1]) != 1:
            continue
        cycle, x, y = [], 0, 0
        for v in sorted(up, key=lambda v: Fraction(-v[0], v[1])) + [last]:
            cycle.append((x, y))
            x, y = x + v[0], y + v[1]
        return cycle


@pytest.mark.parametrize("edges", [16, 20, 24])
def test_ladder_polygons(edges):
    P = LatticePolytope(2, indecomposable_polygon(edges))
    steps = _edge_steps(P)
    # every edge is primitive and only one points down, so a zero sum of
    # edges that holds one upward edge must hold them all: no split exists
    assert len(steps) == edges
    assert all(gcd(*e) == 1 for e in steps)
    assert sum(e[1] < 0 for e in steps) == 1 and not any(e[1] == 0 for e in steps)
    assert indecomposable_2d(P)
    if edges == 16:
        assert split_search_indecomposable(P)
    assert not indecomposable_2d(image(P, [[2, 0], [0, 2]]))
    assert not indecomposable_2d(minkowski_sum(P, LatticePolytope(2, [(0, 0), (1, 0)])))


def _split_dp_polygons():
    """Seeded polygons, their dilations by 2, 3 and 7, their Minkowski sums
    with segments and the 16/20/24-edge ladder polygons."""
    rng = random.Random(4099)
    polygons = []
    while len(polygons) < 60:
        r = rng.randint(1, 6)
        pts = [(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(rng.randint(3, 14))]
        P = LatticePolytope.from_points(pts)
        if P.affine_dim == 2:
            polygons.append(P)
    dilated = [image(P, [[k, 0], [0, k]])
               for P, k in zip(polygons, itertools.cycle((2, 3, 7)))]
    segments = itertools.cycle([(1, 0), (0, 1), (1, 1), (2, -1), (3, 0), (-2, 4)])
    summed = [minkowski_sum(P, LatticePolytope(2, [(0, 0), s]))
              for P, s in zip(polygons[:30], segments)]
    ladder = [LatticePolytope(2, indecomposable_polygon(e)) for e in (16, 20, 24)]
    return polygons + dilated + summed + ladder


def test_split_paths_agree_on_both_sides_of_the_grid_budget(monkeypatch):
    polygons = _split_dp_polygons()
    verdicts = {}
    for budget in (0, None, 10 ** 30):      # set path, default, bitsets
        if budget is not None:
            monkeypatch.setattr(polytope, "_GRID_BITS", budget)
        verdicts[budget] = [indecomposable_2d(P) for P in polygons]
    assert verdicts[0] == verdicts[None] == verdicts[10 ** 30]
    assert verdicts[0][-3:] == [True] * 3
    assert 10 < sum(verdicts[0]) < len(polygons) - 10       # both verdicts occur


def _split_paths_taken(monkeypatch):
    taken = []
    for name in ("_no_split_bits", "_no_split_set"):
        def traced(*args, real=getattr(polytope, name), name=name):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(polytope, name, traced)
    return taken


# (4 * 2047 + 1)^2 = 67059721 cells fit the 2^26-cell grid, (4 * 2048 + 1)^2 do not
@pytest.mark.parametrize("size, path", [(2047, "_no_split_bits"), (2048, "_no_split_set")])
def test_split_path_follows_the_grid_size(monkeypatch, size, path):
    # edge lengths 1, size - 1, 1: no split
    P = LatticePolytope(2, [(0, 0), (size, 1), (1, size)])
    taken = _split_paths_taken(monkeypatch)
    assert indecomposable_2d(P)
    assert taken == [path]


def test_thin_triangle_takes_the_set_path_quickly(monkeypatch):
    # its grid would hold 1.6e13 cells; the set path reaches few states
    P = LatticePolytope(2, [(0, 0), (10 ** 6, 1), (1, 10 ** 6)])
    taken = _split_paths_taken(monkeypatch)
    start = time.perf_counter()
    assert indecomposable_2d(P)
    assert time.perf_counter() - start < 1
    assert taken == ["_no_split_set"]


def test_ccw_cycle_is_convex():
    rng = random.Random(29)
    for _ in range(20):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
        P = LatticePolytope.from_points(pts)
        if P.affine_dim != 2:
            continue
        cycle = ccw_vertex_cycle(P)
        n = len(cycle)
        for i in range(n):
            assert _cross(cycle[i], cycle[(i + 1) % n], cycle[(i + 2) % n]) > 0


def test_ccw_cycle_is_the_monotone_chain_from_the_smallest_vertex(monkeypatch):
    rng = random.Random(37)
    polygons = []
    for _ in range(40):
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(3, 12))]
        P = LatticePolytope.from_points(pts)
        if P.affine_dim == 2:
            polygons.append((pts, P))
    # the cycle and the split search read the edges the build stored: no
    # second monotone chain runs on a built polygon
    calls = []
    real = intlin.monotone_chain
    monkeypatch.setattr(intlin, "monotone_chain",
                        lambda points: calls.append(1) or real(points))
    for pts, P in polygons:
        assert ccw_vertex_cycle(P) == hull2d(pts)
        assert ccw_vertex_cycle(P)[0] == min(P.vertices)
        indecomposable_2d(P)
    assert calls == []
    # points on edges passed as vertices are not part of the cycle
    P = LatticePolytope(2, [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)])
    assert calls == [1]
    assert ccw_vertex_cycle(P) == [(0, 0), (2, 0), (0, 2)]


def test_ccw_cycle_needs_a_polygon_in_the_plane():
    for pts in ([(0, 0), (2, 1)], [(1, -1)], [(0, 0, 1), (1, 0, 1), (0, 1, 1)],
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        with pytest.raises(NotTwoDimensionalInput):
            ccw_vertex_cycle(LatticePolytope.from_points(pts))


# --------------------------------------------------------------------------
# irreducibility certificates
# --------------------------------------------------------------------------

def test_certificate_unit_triangle_irreducible():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    assert irreducibility_certificate(1 + y1 + y2).kind == "irreducible"


def test_certificate_product_inconclusive_with_factorization():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    f = (1 - y1) * (1 - y2)
    verdict = irreducibility_certificate(f)
    assert verdict.kind == "inconclusive"
    # the library itself exhibits the factorization
    assert (1 - y1) * (1 - y2) == f


def test_certificate_cleared_projective_plane_potential():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    f = 1 + y1 ** 2 * y2 + y1 * y2 ** 2
    assert irreducibility_certificate(f).kind == "irreducible"


def test_certificate_suspension_route():
    vs = ("y1", "y2", "y3")
    y1, y2, y3 = LaurentPoly.gens(vs)
    f = 1 + y1 + y2 + y3
    verdict = irreducibility_certificate(f, ("y3",))
    assert verdict.kind == "irreducible"


def test_certificate_suspension_with_apex_below_the_facet():
    # the apex (1, 1, -1) lies on y3's negative side; y3 -> 1/y3 peels it
    vs = ("y1", "y2", "y3")
    y1, y2, y3 = LaurentPoly.gens(vs)
    for f in (1 + y1 + y2 + y1 * y2 * y3 ** -1, y3 + y1 * y3 + y2 * y3 + y1 * y2):
        verdict = irreducibility_certificate(f, ("y3",))
        assert verdict == Verdict("irreducible",
                                  witness="suspension over certified facet 'y3'")


def test_certificate_peel_of_simplex3_unchanged():
    vs = ("y1", "y2", "y3")
    y1, y2, y3 = LaurentPoly.gens(vs)
    f = 1 + y1 + 2 * y2 - y3
    assert irreducibility_certificate(f, ("y3",)) == Verdict(
        "irreducible", witness="suspension over certified facet 'y3'")


def test_certificate_suspension_over_clifford_facet():
    vs = ("y1", "y2", "y3")
    y1, y2, y3 = LaurentPoly.gens(vs)
    f = 1 + y1 ** 2 * y2 + y1 * y2 ** 2 + y3
    assert irreducibility_certificate(f, ("y3",)).kind == "irreducible"


def test_certificate_double_suspension():
    vs = ("y1", "y2", "y3", "y4")
    y1, y2, y3, y4 = LaurentPoly.gens(vs)
    f = 1 + y1 + y2 + y3 + y4
    assert irreducibility_certificate(f, ("y4", "y3")).kind == "irreducible"


def test_certificate_chain_ending_in_one_variable():
    # the last step of a chain leaves a Newton segment, certified as one
    (y,) = LaurentPoly.gens(("y1",))
    primitive = Verdict("irreducible", witness="primitive Newton segment")
    assert irreducibility_certificate(1 + y, ("y1",)) == primitive
    assert irreducibility_certificate(1 + y) == primitive
    assert irreducibility_certificate(1 + y ** 2, ("y1",)) == Verdict(
        "inconclusive", witness="Newton segment is not primitive")
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    suspension = Verdict("irreducible", witness="suspension over certified facet 'y2'")
    assert irreducibility_certificate(1 + y1 + y2, ("y2", "y1")) == suspension
    assert irreducibility_certificate(1 + y1 + y2, ("y2",)) == suspension
    with pytest.raises(PreconditionViolation):
        irreducibility_certificate(1 + y1 + y2, ("y2", "y2"))
    vs = ("y1", "y2", "y3", "y4")
    z1, z2, z3, z4 = LaurentPoly.gens(vs)
    assert irreducibility_certificate(1 + z1 + z2 + z3 + z4, vs[::-1]).kind == "irreducible"


def test_certificate_rejects_high_apex():
    vs = ("y1", "y2", "y3")
    y1, y2, y3 = LaurentPoly.gens(vs)
    f = 1 + y1 + y2 + y3 ** 2
    verdict = irreducibility_certificate(f, ("y3",))
    assert verdict.kind == "inconclusive"


def test_certificate_rejects_non_simplex():
    vs = ("y1", "y2", "y3")
    y1, y2, y3 = LaurentPoly.gens(vs)
    f = 1 + y1 + y2 + y3 + y1 * y2 * y3
    verdict = irreducibility_certificate(f, ("y3",))
    assert verdict.kind == "inconclusive"


def test_certificate_never_claims_irreducible_for_known_products():
    rng = random.Random(53)
    vs = ("y1", "y2")
    for _ in range(25):
        f = _random_laurent(rng, 2)
        g = _random_laurent(rng, 2)
        if f.is_monomial() or g.is_monomial():
            continue
        verdict = irreducibility_certificate(f * g)
        assert verdict.kind == "inconclusive"


def test_one_hull_per_support(monkeypatch):
    calls = []
    original = intlin._hull
    monkeypatch.setattr(intlin, "_hull", lambda points: calls.append(1) or original(points))
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    z1, z2, z3 = LaurentPoly.gens(("y1", "y2", "y3"))
    f = 3 - y1 ** 2 + 2 * y1 * y2 + 5 * y1 ** -1 * y2 ** 2 - 2 * y1 * y2 ** -1
    irreducibility_certificate(f)
    assert len(calls) == 1
    user_relation(f)
    assert len(calls) == 2
    toric_relation([(1, 0), (0, 1), (-1, -1)])
    assert len(calls) == 3
    # the restriction's hull is the polygon of the next level
    irreducibility_certificate(1 + z1 + 2 * z2 - z3, ("y3",))
    assert len(calls) == 5


def test_certificate_checks_the_cleared_vertex(monkeypatch):
    # the certificate rests on the smallest exponent being a hull vertex;
    # a hull that disagrees raises, also under python -O
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    original = polytope.newton_polytope
    monkeypatch.setattr(polytope, "newton_polytope",
                        lambda g: original(g).translate((1, 0)))
    with pytest.raises(VerificationFailure):
        irreducibility_certificate(y1 ** -1 * (1 + y1 + y2))
