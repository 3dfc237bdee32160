#!/usr/bin/env python3
"""Per-rung medians for the scaling ladders named in ROADMAP item 1.

    python3 perfbench/ladders.py

Times, with counts from the tracer where they explain the time:

* ``newton_polytope`` of ``(1+y1+y2+y1/y2)^k`` (support (k+1)^2 points,
  up to ROADMAP's 81-point rung);
* ``solve_formal_augmentation`` of the 7-term relation
  ``2+y1-3*y3+y1*y2+y3^2+y1^2*y3+y2^2*y3^2`` at orders 6..12;
* ``indecomposable_2d`` on indecomposable polygons with 16..24 primitive
  edges, where the split search cannot stop early;
* ``rational_roots`` of ``(y-1)(y-c)`` for c near 1e8..1e14.

This table is supporting detail for the benchmark and is not gated; it
takes about half a minute.
"""

import random
import sys
from fractions import Fraction
from math import gcd
from statistics import median
from time import perf_counter

import oracles
import run
from tracer import Tracer

REPEATS = 3


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times)


def counted(fn, key):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.metrics()[key][0]


def indecomposable_polygon(edges):
    """A polygon with ``edges`` primitive edges, all but one pointing into
    the open upper half-plane, so no proper subset of edges sums to zero
    and the split search cannot stop early."""
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
        if oracles.decomposable_edges(oracles.polygon_edges(oracles.monotone_chain(cycle))):
            raise RuntimeError("ladder polygon is decomposable")
        return cycle


def main():
    sys.path.insert(0, run.SRC)
    aug = run.import_augvar()
    rows = []

    base = aug.LaurentPoly(("y1", "y2"), {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, -1): 1})
    for k in (2, 3, 4, 5, 6, 8):
        f = base ** k
        t = timed(lambda: aug.polytope.newton_polytope(f), 1 if k >= 6 else REPEATS)
        lps = counted(lambda: aug.polytope.newton_polytope(f), "intlin.phase1_feasible.calls")
        rows.append(("hull (1+y1+y2+y1/y2)^%d" % k, "%d points" % len(f.terms), t,
                     "%d LPs" % lps))

    rel = aug.LaurentPoly(("y1", "y2", "y3"), {
        (0, 0, 0): 2, (1, 0, 0): 1, (0, 0, 1): -3, (1, 1, 0): 1, (0, 0, 2): 1,
        (2, 0, 1): 1, (0, 2, 2): 1})
    for order in (6, 8, 10, 12):
        solve = lambda: aug.augment.solve_formal_augmentation(rel, "y3", order=order)  # noqa: E731
        t = timed(solve, 1 if order >= 12 else REPEATS)
        products = counted(solve, "rings.series_mul.calls")
        rows.append(("solve 7-term order %d" % order, "3 vars", t, "%d series products" % products))

    for edges in (16, 20, 24):
        P = aug.polytope.LatticePolytope(2, indecomposable_polygon(edges))
        t = timed(lambda: aug.polytope.indecomposable_2d(P), REPEATS)
        rows.append(("indecomposable_2d, no split", "%d edges" % edges, t, ""))

    for exp in (8, 10, 12, 14):
        c = 10 ** exp + 39
        p = aug.rings.UniPoly([Fraction(c), Fraction(-c - 1), Fraction(1)])
        t = timed(lambda: aug.rings.rational_roots(p), 1 if exp >= 14 else REPEATS)
        cands = counted(lambda: aug.rings.rational_roots(p), "rings.rational_roots.candidates")
        rows.append(("rational_roots (y-1)(y-c)", "c = 1e%d+39" % exp, t,
                     "%d candidates" % cands))

    print("%-34s %-14s %12s  %s" % ("ladder rung", "size", "median_ms", "work"))
    for name, size, t, work in rows:
        print("%-34s %-14s %12.2f  %s" % (name, size, t * 1000.0, work))


if __name__ == "__main__":
    sys.exit(main())
