"""Slow reference algorithms for polytope invariants, kept as test oracles.

``pyramid_volume`` decomposes a polytope into pyramids over its facets and
recurses into each facet with its own lattice reduction.  ``fm_count``
counts the integer points of an inequality system by Fourier-Motzkin
elimination of the last coordinate.  The library reads both invariants
off one hull instead (cones over a triangulated boundary, Pick's formula,
walks over projections bounded by their hull facets), so agreement is
evidence for both.  They may be exponentially slower: keep inputs small.
"""

from augvar.polytope import LatticePolytope


def pyramid_volume(verts, d):
    """d! times the volume of the hull of points of Z^d; 0 when it is
    lower-dimensional.  The lattice height of a base vertex over each
    facet times the facet's own normalized volume."""
    if d == 0:
        return 1
    if d == 1:
        vals = [v[0] for v in verts]
        return max(vals) - min(vals)
    P = LatticePolytope(d, verts)
    if P.affine_dim < d:
        return 0
    red = P._red
    v0 = red[0]
    total = 0
    for n, c, eq in P._bound[0]:
        h = abs(sum(a * b for a, b in zip(n, v0)) - c)
        if h:
            F = LatticePolytope(d, [red[i] for i in sorted(eq)])
            total += h * pyramid_volume(list(F._red), d - 1)
    return total


def _fibre(ineqs, prefix):
    """Integer range of the next coordinate over an integer prefix, from
    inequalities <n, x> <= c in len(prefix) + 1 variables; None if empty."""
    lo = hi = None
    for n, c in ineqs:
        rest = c - sum(a * x for a, x in zip(n, prefix))
        a = n[-1]
        if a > 0:
            hi = rest // a if hi is None else min(hi, rest // a)
        elif a < 0:
            bound = -(rest // -a)                     # ceil(rest / a)
            lo = bound if lo is None else max(lo, bound)
        elif rest < 0:
            return None
    if lo is None or hi is None:
        raise ValueError("unbounded inequality system")
    return (lo, hi) if lo <= hi else None


def _eliminate(ineqs):
    """Fourier-Motzkin projection that drops the last coordinate."""
    pos = [(n, c) for n, c in ineqs if n[-1] > 0]
    neg = [(n, c) for n, c in ineqs if n[-1] < 0]
    out = [(n[:-1], c) for n, c in ineqs if n[-1] == 0]
    for np_, cp in pos:
        for nn, cn in neg:
            a, b = np_[-1], -nn[-1]
            out.append((tuple(b * x + a * y for x, y in zip(np_[:-1], nn[:-1])),
                        b * cp + a * cn))
    return out


def _points(ineqs, d):
    """Integer points of {x in Z^d : <n, x> <= c}, by elimination."""
    if d == 1:
        prefixes = [()]
    else:
        prefixes = _points(_eliminate(ineqs), d - 1)
    for prefix in prefixes:
        rng = _fibre(ineqs, prefix)
        if rng is not None:
            for x in range(rng[0], rng[1] + 1):
                yield prefix + (x,)


def fm_count(ineqs, d):
    """Number of integer points of a bounded {x in Z^d : <n, x> <= c}:
    the ranges of the last coordinate over the points of its projection."""
    prefixes = [()] if d == 1 else _points(_eliminate(ineqs), d - 1)
    total = 0
    for prefix in prefixes:
        rng = _fibre(ineqs, prefix)
        if rng is not None:
            total += rng[1] - rng[0] + 1
    return total


def reference_invariants(P):
    """(normalized volume, lattice point count) of P by the oracles, in the
    reduced lattice of its affine hull; P.affine_dim >= 1."""
    red = P._red
    d = P.affine_dim
    volume = pyramid_volume(list(red), d)
    if d == 1:
        return volume, volume + 1
    return volume, fm_count([(n, c) for n, c, _ in P._bound[0]], d)
