"""Normalized volumes and lattice point counts against slow oracles.

The library reads both invariants off one hull.  Here they are compared
with the pyramid recursion and the Fourier-Motzkin count of
``invariant_oracles`` on seeded supports, and with box counts through the
LP membership oracle of ``hull_oracles`` on polytopes that are not
full-dimensional, where the count must use the volume in the reduced
lattice of the affine hull.
"""

import itertools
import math
import random

import pytest

from augvar import intlin
from augvar.polytope import LatticePolytope

from hull_oracles import in_convex_hull
from invariant_oracles import fm_count, pyramid_volume, reference_invariants
from lattice_oracles import random_unimodular, rational_nullspace


def _random_points(rng, ambient, n, box):
    return [tuple(rng.randint(-box, box) for _ in range(ambient)) for _ in range(n)]


def _sublattice_points(rng, ambient, k, n):
    """n points of a random affine sublattice of rank at most k in Z^ambient,
    spanned by generators that need not be a basis of its saturation."""
    gens = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(k)]
    shift = [rng.randint(-3, 3) for _ in range(ambient)]
    return [tuple(s + sum(c * g[j] for c, g in zip(coefs, gens))
                  for j, s in enumerate(shift))
            for coefs in [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]]


def _box_count(P):
    """Lattice points of P from its bounding box: points off the affine
    hull are skipped, the rest go through the LP membership oracle."""
    v0 = P.vertices[0]
    normals = rational_nullspace([[a - b for a, b in zip(v, v0)]
                                  for v in P.vertices])
    count = 0
    ranges = [range(min(v[j] for v in P.vertices), max(v[j] for v in P.vertices) + 1)
              for j in range(P.ambient_dim)]
    for x in itertools.product(*ranges):
        diff = [a - b for a, b in zip(x, v0)]
        if any(sum(a * b for a, b in zip(n, diff)) for n in normals):
            continue
        count += in_convex_hull(x, P.vertices)
    return count


@pytest.mark.parametrize("d, trials, max_points", [(3, 60, 10), (4, 30, 8)])
def test_full_dimensional_invariants_match_oracles(d, trials, max_points):
    rng = random.Random(6300 + d)
    done = 0
    for _ in range(trials):
        pts = _random_points(rng, d, rng.randint(d + 1, max_points), 2)
        P = LatticePolytope.from_points(pts)
        if P.affine_dim != d:
            continue
        assert (P.normalized_volume(),
                P.lattice_point_count()) == reference_invariants(P), P
        done += 1
    assert done >= trials // 2


@pytest.mark.parametrize("ambient", [3, 4])
def test_lower_dimensional_invariants_match_oracles(ambient):
    rng = random.Random(6400 + ambient)
    for _ in range(40):
        k = rng.randint(1, ambient - 1)
        pts = _sublattice_points(rng, ambient, k, rng.randint(2, 8))
        P = LatticePolytope.from_points(pts)
        if P.affine_dim == 0:
            continue
        assert P.normalized_volume() == 0
        assert (P._volume(), P.lattice_point_count()) == reference_invariants(P), P


def test_cached_and_lazy_triangulations_give_one_volume():
    # the constructor triangulates all the points it is given, so a
    # polytope rebuilt from its vertices triangulates only those; both
    # boundaries must give the same volume
    rng = random.Random(6500)
    for trial in range(30):
        d = 3 + trial % 2
        pts = _random_points(rng, d, rng.randint(d + 1, 12), 2)
        P = LatticePolytope.from_points(pts)
        lazy = LatticePolytope(P.ambient_dim, P.vertices)
        assert P.normalized_volume() == lazy.normalized_volume()
        assert P.lattice_point_count() == lazy.lattice_point_count()


def test_polygon_in_z3_count_matches_box_count():
    # a quadrilateral on the plane x - 2y + 3z = 0, whose lattice is not
    # a coordinate plane; the ambient normalized volume is 0
    P = LatticePolytope(3, [(0, 0, 0), (4, 2, 0), (3, 0, -1), (-1, 1, 1)])
    assert P.affine_dim == 2
    assert P.normalized_volume() == 0
    assert P._volume() == pyramid_volume(list(P._red), 2)
    assert P.lattice_point_count() == _box_count(P)
    rng = random.Random(6600)
    for _ in range(8):
        Q = LatticePolytope.from_points(_sublattice_points(rng, 3, 2, rng.randint(3, 6)))
        if Q.affine_dim == 2:
            assert Q.lattice_point_count() == _box_count(Q), Q


def test_3d_polytope_in_z4_count_matches_box_count():
    P = LatticePolytope(4, [(0, 0, 0, 0), (2, 0, 0, 1), (0, 2, 0, -1),
                            (0, 0, 2, 2), (1, 1, 1, 1), (2, 2, 0, 0)])
    assert P.affine_dim == 3
    assert P.normalized_volume() == 0
    assert P.lattice_point_count() == _box_count(P)
    rng = random.Random(6700)
    for _ in range(4):
        Q = LatticePolytope.from_points(_sublattice_points(rng, 4, 3, rng.randint(4, 6)))
        if Q.affine_dim == 3:
            assert Q.lattice_point_count() == _box_count(Q), Q


def _ends_on_facets(rng, d):
    """Points of Z^d whose first coordinate takes its least and greatest
    value on whole facets: random points of Z^(d-1) at x_1 = 0 and at
    x_1 = h, and a few between."""
    h = rng.randint(1, 3)
    pts = [(x,) + p for x in (0, h) for p in _random_points(rng, d - 1, d, 2)]
    return pts + [(rng.randint(0, h),) + p for p in _random_points(rng, d - 1, 1, 2)]


@pytest.mark.parametrize("d, trials", [(3, 40), (4, 20)])
def test_first_walk_level_from_the_extremes_matches_the_oracle(d, trials):
    # the walk's first level is the range of the first reduced coordinate,
    # here attained on whole facets x_1 = 0 and x_1 = h
    rng = random.Random(6800 + d)
    done = facet_ends = 0
    for _ in range(trials):
        P = LatticePolytope.from_points(_ends_on_facets(rng, d))
        if P.affine_dim != d:
            continue
        assert (P.normalized_volume(),
                P.lattice_point_count()) == reference_invariants(P), P
        done += 1
        facet_ends += sum(1 for n, _, _ in P._bound[0] if not any(n[1:]))
    assert done >= trials * 3 // 4
    assert facet_ends >= trials


def test_3d_polytope_in_z4_first_walk_level_matches_the_oracle():
    # the same supports in d = 3, put into Z^4 by a unimodular map: the
    # walk runs in the frame coordinates, whose first one need not be an
    # ambient one
    rng = random.Random(6900)
    done = 0
    for _ in range(30):
        pts = _ends_on_facets(rng, 3)
        M = random_unimodular(rng, 4)
        img = [tuple(sum(a * b for a, b in zip(r, p + (0,))) for r in M) for p in pts]
        P = LatticePolytope.from_points(img)
        if P.affine_dim != 3:
            continue
        assert P.normalized_volume() == 0
        assert (P._volume(), P.lattice_point_count()) == reference_invariants(P), P
        Q = LatticePolytope.from_points(pts)
        assert (P._volume(), P.lattice_point_count()) == (
            Q.normalized_volume(), Q.lattice_point_count())
        done += 1
    assert done >= 20


@pytest.mark.parametrize("d", [3, 4, 5])
def test_lattice_count_hulls_only_the_middle_projections(monkeypatch, d):
    # one projection hull per level 2..d-1: the first level comes from the
    # extremes of the first coordinate, the last is the polytope's own
    P = LatticePolytope.from_points(
        [tuple(2 * (i == j) for j in range(d)) for i in range(-1, d)])
    calls = []
    real = intlin._hull

    def counting(points):
        calls.append(len(points[0]))
        return real(points)

    monkeypatch.setattr(intlin, "_hull", counting)
    assert P.lattice_point_count() == math.comb(d + 2, d)
    assert calls == list(range(2, d))


def test_fourier_motzkin_cliff_case():
    # the elimination oracle takes about two minutes on this support
    P = LatticePolytope.from_points([
        (-3, -2, 2, -3), (-3, 2, 0, 0), (-2, 1, -1, -3), (-1, -1, -3, 2),
        (-1, 2, -2, -3), (-1, 3, -2, 3), (0, -3, -1, 3), (1, -2, 2, -3),
        (1, 0, 2, -1), (2, -2, 2, -2), (2, -1, -1, 0), (3, -2, -3, 3)])
    assert len(P.vertices) == 12
    assert P.normalized_volume() == 2998
    assert P.lattice_point_count() == 158


def test_fm_count_oracle_on_a_box():
    box = [((1, 0), 2), ((-1, 0), 1), ((0, 1), 3), ((0, -1), 0)]
    assert fm_count(box, 2) == 4 * 4
