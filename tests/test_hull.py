"""Tests for the exact integer hull engine against slow LP and subset oracles.

The engine (``intlin.convex_hull``: monotone chain in the plane,
beneath-beyond above it) must return exactly what one phase-one LP per
point (vertices) and supporting-hyperplane enumeration over all d-subsets
(facets) return, on seeded random supports and on inputs with points on
edges, in facet interiors, on lines and on lower-dimensional planes.
"""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from augvar import intlin
from augvar.errors import PreconditionViolation, VerificationFailure
from augvar.polytope import LatticePolytope

from hull_oracles import (echelon, in_convex_hull, lp_vertex_indices, scan_edges,
                          subset_facets)
from lattice_oracles import rational_nullspace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _spans(points):
    d = len(points[0])
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    return intlin._column_reduce(rows)[2] == d


GRID_3 = list(itertools.product(range(3), repeat=3))
GRID_4 = list(itertools.product(range(3), repeat=4))
CUBE_WITH_FACET_CENTRES = list(itertools.product((0, 2), repeat=3)) + [
    tuple(v if j == i else 1 for j in range(3)) for i in range(3) for v in (0, 2)]
CROSS_3D = sorted([(0, 0, 0)] + [tuple(s if j == i else 0 for j in range(3))
                                 for i in range(3) for s in (-2, -1, 1, 2)])


def _lp_vertices(pts):
    """The LP oracle's vertices, sorted as ``LatticePolytope`` keeps them."""
    return sorted(pts[i] for i in lp_vertex_indices(pts))


def _random_support(rng, d, n, box):
    """n distinct points of [-box, box]^d spanning Z^d, in random order."""
    while True:
        pts = list({tuple(rng.randint(-box, box) for _ in range(d)) for _ in range(n)})
        if len(pts) > d and _spans(pts):
            rng.shuffle(pts)
            return pts


def _assert_matches_oracles(points):
    assert intlin.convex_hull(points) == (lp_vertex_indices(points),
                                          subset_facets(points)), points


def test_in_convex_hull():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert in_convex_hull((1, 1), square)
    assert in_convex_hull((0, 0), square)
    assert not in_convex_hull((3, 1), square)
    assert not in_convex_hull((-1, 0), square)


@pytest.mark.parametrize("d, trials, max_points", [(2, 80, 12), (3, 50, 11), (4, 30, 10)])
def test_engine_matches_lp_and_subset_oracles(d, trials, max_points):
    rng = random.Random(8100 + d)
    for _ in range(trials):
        _assert_matches_oracles(_random_support(rng, d, rng.randint(d + 1, max_points), 2))


def test_engine_on_edge_and_facet_interior_points():
    cases = [
        list(itertools.product(range(3), repeat=2)),          # edge midpoints, centre
        list(itertools.product(range(3), repeat=3)),          # + facet centres
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),          # simplex with edge midpoints
         (1, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)],
        [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)],   # facet-interior point
        [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
         (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 0)],
        [(0, 0, 0, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3),
         (1, 1, 1, 0), (0, 1, 1, 1), (1, 1, 0, 1)],           # points in facet interiors
        CUBE_WITH_FACET_CENTRES,
        CROSS_3D,
    ]
    rng = random.Random(44)
    for pts in cases:
        pts = list(pts)
        for _ in range(2):
            rng.shuffle(pts)
            _assert_matches_oracles(list(pts))


def test_cube_has_six_square_facets():
    cube = list(itertools.product((0, 1), repeat=3))
    vertices, facets = intlin.convex_hull(cube)
    assert vertices == list(range(8))
    assert len(facets) == 6
    assert all(len(eq) == 4 for _, _, eq in facets)


@pytest.mark.parametrize("ambient", [3, 4])
def test_lower_dimensional_supports_on_a_plane(ambient):
    rng = random.Random(900 + ambient)
    for _ in range(30):
        free = rng.randint(0, ambient - 2)      # affine dimension is free + 1
        pts = sorted({(x + 1, x) + tuple(x + rng.randint(-2, 2) if j < free else 0
                                         for j in range(ambient - 2))
                      for x in [rng.randint(-3, 3) for _ in range(rng.randint(2, 9))]})
        if len(pts) < 2:
            continue
        P = LatticePolytope.from_points(pts)
        assert all(v[0] == v[1] + 1 for v in P.vertices)
        assert list(P.vertices) == [pts[i] for i in lp_vertex_indices(pts)]
        if P.affine_dim >= 2:
            assert P._bound[0] == subset_facets(list(P._red))


def test_collinear_points_keep_their_endpoints():
    for pts in ([(0, 0), (1, 1), (2, 2), (5, 5)],
                [(1, 0, 2), (2, 1, 3), (3, 2, 4), (4, 3, 5)],
                [(0, 1, 0, 0), (0, 3, 0, 2), (0, 5, 0, 4)]):
        P = LatticePolytope.from_points(pts)
        assert P.affine_dim == 1
        assert P.vertices == (min(pts), max(pts))
        assert _lp_vertices(pts) == list(P.vertices)
    assert _lp_vertices([(3, -1, 2)]) == list(LatticePolytope.from_points([(3, -1, 2)]).vertices)


def test_from_points_vertices_match_lp_on_random_subspaces():
    rng = random.Random(61)
    for _ in range(60):
        ambient = rng.randint(2, 4)
        k = rng.randint(1, ambient)
        gens = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(k)]
        shift = [rng.randint(-3, 3) for _ in range(ambient)]
        pts = sorted({tuple(s + sum(c * g[j] for c, g in zip(coefs, gens))
                            for j, s in enumerate(shift))
                      for coefs in [[rng.randint(-2, 2) for _ in range(k)]
                                    for _ in range(rng.randint(1, 8))]})
        rng.shuffle(pts)
        assert list(LatticePolytope.from_points(pts).vertices) == _lp_vertices(pts), pts


def test_from_points_cache_matches_lazy_computation():
    # the constructor builds the frame and the boundary from all the points
    # it is given; a polytope rebuilt from the vertices alone must agree
    rng = random.Random(77)
    for trial in range(40):
        ambient = 2 + trial % 3
        pts = [tuple(rng.randint(-2, 2) for _ in range(ambient))
               for _ in range(rng.randint(1, 9))]
        if trial % 4 == 0:
            pts = [(p[1] + 1,) + p[1:] for p in pts]     # on x0 = x1 + 1
        P = LatticePolytope.from_points(pts)
        fresh = LatticePolytope(P.ambient_dim, P.vertices)
        assert fresh == P
        assert fresh.invariants() == P.invariants()
        assert fresh.edges() == P.edges()
        probes = [tuple(rng.randint(-3, 3) for _ in range(ambient)) for _ in range(12)]
        probes += [(p[1] + 1,) + p[1:] for p in probes]
        probes += [tuple(Fraction(a + b, 2) for a, b in zip(p, q))
                   for p, q in itertools.combinations(pts + probes[:4], 2)]
        assert [fresh.contains(x) for x in probes] == [P.contains(x) for x in probes]
        if P.affine_dim == ambient:
            assert fresh._red == P._red
            assert fresh._bound[0] == P._bound[0]


def test_engine_rejects_points_that_do_not_span():
    with pytest.raises(PreconditionViolation):
        intlin.convex_hull([(0,)])
    with pytest.raises(PreconditionViolation):
        intlin.convex_hull([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(PreconditionViolation):
        intlin.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_engine_check_raises_on_a_facet_that_does_not_support(monkeypatch):
    def shifted(points):
        return [(n, c - 1) for n, c in original(points)]

    original = intlin._chain_planes
    monkeypatch.setattr(intlin, "_chain_planes", shifted)
    with pytest.raises(VerificationFailure):
        intlin.convex_hull([(0, 0), (1, 0), (0, 1)])


def _under_reported(real):
    def reduce(rows):
        H, U, rank = real(rows)
        return H, U, rank - 1
    return reduce


def test_under_reported_rank_raises_verification_failure(monkeypatch):
    monkeypatch.setattr(intlin, "_column_reduce", _under_reported(intlin._column_reduce))
    for pts in ([(1, 0, 0), (2, 1, 0), (1, 0, 3)],                 # a plane in Z^3
                [(1, 0, 0), (2, 1, 0), (1, 0, 3), (3, 2, 1)],
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],      # full-dimensional
                [(0, 1), (2, 5)]):                                 # a segment
        with pytest.raises(VerificationFailure):
            LatticePolytope.from_points(pts)


def test_under_reported_rank_check_survives_python_O():
    script = textwrap.dedent("""
        import sys
        from augvar import intlin
        from augvar.errors import VerificationFailure
        from augvar.polytope import LatticePolytope
        if sys.flags.optimize != 1:
            sys.exit("not running under -O")
        real = intlin._column_reduce
        def reduce(rows):
            H, U, rank = real(rows)
            return H, U, rank - 1
        intlin._column_reduce = reduce
        for pts in ([(1, 0, 0), (2, 1, 0), (1, 0, 3)],
                    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            try:
                LatticePolytope.from_points(pts)
            except VerificationFailure:
                print("raised")
        """)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised", "raised"]


@pytest.mark.parametrize("points", [
    [(0, 0), (1, 0), (0, 1), (1, 0)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)],
    [(2,), (Fraction(4, 2),), (5,)],                  # equal once made integer
])
def test_convex_hull_rejects_repeated_points(points):
    with pytest.raises(PreconditionViolation, match="repeat"):
        intlin.convex_hull(points)


@pytest.mark.parametrize("points", [[], [()], [(), ()]])
def test_convex_hull_rejects_empty_input(points):
    with pytest.raises(PreconditionViolation, match="positive length"):
        intlin.convex_hull(points)


def test_convex_hull_rejects_points_of_differing_lengths():
    with pytest.raises(PreconditionViolation, match="differ in length"):
        intlin.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1), (0, 0, 1)])


@pytest.mark.parametrize("points", [
    [(0,), (Fraction(1, 2),), (2,)],
    [(0, 0), (1, 0), (0, Fraction(1, 2))],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0.5)],
])
def test_convex_hull_rejects_non_integer_coordinates(points):
    with pytest.raises(PreconditionViolation, match="non-integer"):
        intlin.convex_hull(points)


def test_convex_hull_accepts_integer_valued_coordinates():
    assert intlin.convex_hull([(0, 0), (Fraction(4, 2), 0), (0, 1)]) == \
        intlin.convex_hull([(0, 0), (2, 0), (0, 1)])


def _hull_by_coordinates(points):
    """The engine's answer with indices replaced by points, plus the
    volume summed over its triangulated boundary."""
    vertices, facets, simplices = intlin._hull(points)
    corners = sorted(points[i] for i in vertices)
    v0 = corners[0]
    volume = sum(abs(intlin.det([[a - b for a, b in zip(points[i], v0)] for i in s]))
                 for s in simplices)
    return (corners, [(n, c, frozenset(points[i] for i in eq)) for n, c, eq in facets],
            volume)


@pytest.mark.parametrize("name", ["random-3d", "random-4d", "grid-3", "grid-4",
                                  "cube-with-facet-centres"])
def test_hull_does_not_depend_on_the_input_order(name):
    rng = random.Random(name)
    if name.startswith("random"):
        d = int(name[-2])
        supports = [_random_support(rng, d, rng.randint(d + 2, 14), 2) for _ in range(12)]
    else:
        supports = [{"grid-3": GRID_3, "grid-4": GRID_4,
                     "cube-with-facet-centres": CUBE_WITH_FACET_CENTRES}[name]]
    for pts in supports:
        orders = [sorted(pts), sorted(pts, reverse=True)]
        for _ in range(4):
            orders.append(rng.sample(pts, len(pts)))
        answer = _hull_by_coordinates(orders[0])
        assert all(_hull_by_coordinates(p) == answer for p in orders[1:]), pts
        P = LatticePolytope.from_points(pts)
        assert P.normalized_volume() == answer[2]
        for p in orders:
            Q = LatticePolytope.from_points(p)
            assert (Q.normalized_volume(), Q.lattice_point_count()) == \
                (P.normalized_volume(), P.lattice_point_count())


# Simplices beneath-beyond builds on lexicographic input: (far-first
# insertion, lexicographic insertion as before it).
@pytest.mark.parametrize("points, built, lexicographic", [
    (GRID_3, 17, 95), (GRID_4, 71, 767), (CROSS_3D, 11, 39)])
def test_far_first_insertion_builds_fewer_simplices(monkeypatch, points, built,
                                                    lexicographic):
    calls = []
    real = intlin._hyperplane

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(intlin, "_hyperplane", counting)
    intlin._hull(sorted(points))
    assert len(calls) == built < lexicographic


def test_dropped_facet_raises_verification_failure(monkeypatch):
    # without the x = 2 facet of the cube {0,2}^3 the other facets meet in
    # four vertices only, so the facets y = 0, y = 2, z = 0 and z = 2 each
    # hold two of them
    def dropped(points):
        return {s: h for s, h in real(points).items() if h != ((1, 0, 0), 2)}

    real = intlin._beneath_beyond
    cube = list(itertools.product((0, 2), repeat=3))
    monkeypatch.setattr(intlin, "_beneath_beyond", dropped)
    with pytest.raises(VerificationFailure, match="fewer than 3 vertices"):
        intlin._hull(cube)
    with pytest.raises(VerificationFailure):
        LatticePolytope.from_points(cube)


def test_dropped_facet_check_survives_python_O():
    script = textwrap.dedent("""
        import itertools, sys
        from augvar import intlin
        from augvar.errors import VerificationFailure
        if sys.flags.optimize != 1:
            sys.exit("not running under -O")
        real = intlin._beneath_beyond
        def dropped(points):
            return {s: h for s, h in real(points).items() if h != ((1, 0, 0), 2)}
        intlin._beneath_beyond = dropped
        try:
            intlin._hull(list(itertools.product((0, 2), repeat=3)))
        except VerificationFailure:
            print("raised")
        """)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised"]


def _oracle_hyperplane(simplex, interior, scale):
    """The engine's hyperplane through d points of Z^d, with the normal
    taken from the rational null space of the edge vectors: primitive, and
    oriented so that <n, interior> < scale * c.  Returns None for a
    degenerate simplex or an interior point on the plane."""
    base = simplex[0]
    normals = rational_nullspace([[a - b for a, b in zip(p, base)] for p in simplex[1:]])
    if len(normals) != 1:
        return None
    normal = normals[0]
    c = sum(a * b for a, b in zip(normal, base))
    side = sum(a * b for a, b in zip(normal, interior)) - scale * c
    if side == 0:
        return None
    if side > 0:
        normal, c = tuple(-x for x in normal), -c
    return normal, c


@pytest.mark.parametrize("d", [3, 4, 5])
def test_hyperplane_matches_the_null_space_normal(d):
    # d = 3 and 4 take closed forms, d = 5 the cofactor det; all three must
    # give the primitive normal, offset and orientation of the oracle
    rng = random.Random("hyperplane-%d" % d)
    checked = 0
    while checked < 300:
        box = rng.choice((1, 3, 9, 10 ** 6))
        pts = [tuple(rng.randint(-box, box) for _ in range(d)) for _ in range(d + 1)]
        interior = tuple(sum(col) for col in zip(*pts))
        want = _oracle_hyperplane(pts[:d], interior, d + 1)
        if want is None:
            continue
        assert intlin._hyperplane(pts[:d], interior, d + 1) == want, pts
        checked += 1


@pytest.mark.parametrize("d", [3, 4, 5])
def test_degenerate_hull_simplex_raises_verification_failure(d):
    rng = random.Random("degenerate-%d" % d)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d - 2)]
        # the last edge vector is an integer combination of the others
        coefs = [rng.randint(-2, 2) for _ in rows]
        last = [sum(k * r[j] for k, r in zip(coefs, rows)) for j in range(d)]
        base = tuple(rng.randint(-5, 5) for _ in range(d))
        simplex = [base] + [tuple(a + b for a, b in zip(base, r)) for r in rows + [last]]
        interior = tuple(rng.randint(-5, 5) for _ in range(d))
        assert _oracle_hyperplane(simplex, interior, d + 1) is None
        with pytest.raises(VerificationFailure, match="degenerate"):
            intlin._hyperplane(simplex, interior, d + 1)


@pytest.mark.parametrize("d", [3, 4])
def test_interior_point_on_a_hull_hyperplane_raises(d):
    # the plane x_1 + ... + x_d = 1 through the unit vectors, and an
    # "interior" d + 1 times a point on it
    simplex = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    with pytest.raises(VerificationFailure, match="interior point"):
        intlin._hyperplane(simplex, (d + 1,) + (0,) * (d - 1), d + 1)


# _column_reduce calls inside one _hull: the vertices come from facet
# incidence, so only beneath-beyond's start simplex takes a rank.
@pytest.mark.parametrize("points, calls", [
    ([(3,), (0,), (5,), (1,)], 0),
    (_random_support(random.Random(2024), 2, 20, 4), 0),
    (list(itertools.product(range(3), repeat=2)), 0),
    (GRID_3, 1), (CROSS_3D, 1), (CUBE_WITH_FACET_CENTRES, 1), (GRID_4, 1)])
def test_vertices_take_no_rank_test(monkeypatch, points, calls):
    made = []
    real = intlin._column_reduce

    def counting(*args, **kwargs):
        made.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(intlin, "_column_reduce", counting)
    intlin._hull(points)
    assert len(made) == calls


@pytest.mark.parametrize("d", [3, 4, 5])
def test_pivot_rows_are_the_rows_echelon_keeps(d):
    # beneath-beyond's start simplex: the pivot rows of the column
    # reduction are the rows that raise the rank, in order, as in echelon;
    # half the cases lie in a random sublattice of lower rank, with repeats
    rng = random.Random(2900 + d)
    for trial in range(60):
        if trial % 2:
            basis = [[rng.randint(-3, 3) for _ in range(d)]
                     for _ in range(rng.randint(1, d))]
            rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(d)]
                    for _ in range(rng.randint(1, 9))]
        else:
            pts = _random_support(rng, d, rng.randint(d + 1, 10), 2)
            rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        H, _, rank = intlin._column_reduce(rows)
        assert intlin._pivot_rows(H, rank) == echelon(rows)[1], rows


def _with_edge_points(rng, d, n):
    """n random even points spanning Z^d plus the midpoints of random
    pairs of them: points on edges, on facets and inside, so that most
    boundary points are not vertices."""
    corners = [tuple(2 * x for x in p) for p in _random_support(rng, d, n, 2)]
    pairs = list(itertools.combinations(corners, 2))
    mids = {tuple((a + b) // 2 for a, b in zip(p, q))
            for p, q in rng.sample(pairs, min(len(pairs), 3 * n))}
    pts = sorted(set(corners) | mids)
    rng.shuffle(pts)
    return pts


def _vertex_cases():
    rng = random.Random(2051)
    cases = [[(3,), (0,), (5,), (1,), (-2,)],
             list(itertools.product(range(4), repeat=2)),
             GRID_3, CUBE_WITH_FACET_CENTRES, CROSS_3D,
             list(itertools.product(range(2), repeat=4)),
             list(itertools.product(range(2), repeat=5))]
    for d, trials, n in [(1, 4, 4), (2, 12, 9), (3, 10, 7), (4, 6, 6), (5, 4, 7)]:
        for k in range(trials):
            cases.append(_with_edge_points(rng, d, n))
            if k % 2:
                cases.append(_random_support(rng, d, n, 2))
    return cases


def test_vertices_match_the_lp_oracle():
    boundary = corners = 0
    for pts in _vertex_cases():
        vertices, facets, _ = intlin._hull(pts)
        assert vertices == lp_vertex_indices(pts), pts
        boundary += len(frozenset().union(*(eq for _, _, eq in facets)))
        corners += len(vertices)
    assert 2 * corners < boundary       # most boundary points are not vertices


def test_edges_match_the_pair_scan():
    # edges tests only the vertex pairs that share d - 1 facets; the scan
    # over every pair and every facet must give the same list
    rng = random.Random(4412)
    cases = _vertex_cases()
    for _ in range(20):
        ambient, k = rng.randint(2, 4), rng.randint(1, 3)
        gens = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(k)]
        cases.append([tuple(sum(c * g[j] for c, g in zip(coefs, gens)) for j in range(ambient))
                      for coefs in [[rng.randint(-2, 2) for _ in gens] for _ in range(8)]])
    edge_count = 0
    for pts in cases:
        P = LatticePolytope.from_points(pts)
        assert P.edges() == scan_edges(P), pts
        edge_count += len(P.edges())
    assert edge_count > 500


def test_from_points_vertices_match_lp_in_a_hyperplane_of_z4():
    # an injective linear map Z^3 -> Z^4 puts a 3-D support in a
    # hyperplane of Z^4; the hull runs in the reduced frame
    M = [(1, 1, 0), (0, 1, -1), (2, 0, 1), (1, 1, 1)]
    rng = random.Random(3034)
    supports = [GRID_3, CUBE_WITH_FACET_CENTRES, CROSS_3D]
    supports += [_with_edge_points(rng, 3, 6) for _ in range(6)]
    for support in supports:
        pts = [tuple(intlin._dot(r, x) + s for r, s in zip(M, (1, -2, 0, 3)))
               for x in support]
        P = LatticePolytope.from_points(pts)
        assert (P.ambient_dim, P.affine_dim) == (4, 3)
        assert list(P.vertices) == _lp_vertices(pts), support
