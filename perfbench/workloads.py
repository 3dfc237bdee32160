"""The three benchmark workloads: seeded inputs, timed jobs and oracles.

A workload turns ``(seed, pass index)`` into a list of :class:`Job`.  Each
job's ``run`` is the timed call into augvar; its ``check`` runs afterwards,
outside the timed region, and returns ``None`` or the reason the result is
wrong.  augvar receives only the generated inputs.

Why these three workloads:

* ``polytope_certify`` spends its time in ``polytope`` and ``intlin``
  (one phase-one LP per hull candidate, facet enumeration, 4-D lattice
  counting) and never touches the series layer.
* ``series_solve`` spends its time in ``rings`` (truncated-series products,
  quotient-field polynomial division) and never builds a hull.
* ``cli_requests`` runs every subcommand on tiny inputs, where fixed
  per-request cost dominates; it is the only workload that repeats inputs.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import oracles


@dataclass
class Job:
    kind: str
    rung: str
    run: object          # () -> result, timed
    check: object        # result -> None | reason, untimed


def _rng(workload, seed, index):
    return random.Random("%s:%d:%d" % (workload, seed, index))


def pass_jobs(workload, seed, index):
    """Jobs of pass ``index``, in a seeded order."""
    rng = _rng(workload.name, seed, index)
    jobs = workload.build(rng)
    rng.shuffle(jobs)
    return jobs


def warmup_jobs(workload):
    """One job of each kind, at its smallest rung.  The inputs are fixed,
    so set-up time does not depend on the seed, and no timed pass uses
    them."""
    first = {}
    for job in workload.build(_rng(workload.name, 0, -1)):
        first.setdefault(job.kind, job)
    return list(first.values())


def _coef(rng):
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))


def _is_full_dim(points):
    d = len(points[0])
    diffs = [[p[j] - points[0][j] for j in range(d)] for p in points[1:]]
    return oracles.rank(diffs) == d


def _support(rng, dim, n, box):
    """n distinct full-dimensional integer points in [-box, box]^dim."""
    while True:
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-box, box) for _ in range(dim)))
        pts = sorted(pts)
        if _is_full_dim(pts):
            return pts


def _laurent(aug, variables, points, rng):
    return aug.LaurentPoly(variables, {p: _coef(rng) for p in points})


VARS = {2: ("y1", "y2"), 3: ("y1", "y2", "y3"), 4: ("y1", "y2", "y3", "y4")}


# ------------------------------------------------------------- polytope_certify

# (dimension, number of support points, coordinate box, jobs per pass)
INVARIANT_RUNGS = [
    (2, 6, 3, 6), (2, 12, 3, 8), (2, 24, 4, 2), (2, 32, 4, 1),
    (3, 6, 2, 6), (3, 12, 2, 3), (3, 24, 3, 1),
    (4, 6, 2, 2),
]
# 4-D lattice counting cost swings by 100x between random supports of one
# size, so the larger 4-D rungs use fixed bases (16 facets each) moved by
# random sign flips and translations, which keep the counting work fixed.
D4_BASES = {
    8: [(-2, 2, 1, -1), (-1, 1, -2, -2), (-1, 1, 1, 0), (-1, 2, 2, 1), (1, 2, -1, -1),
        (2, -1, 2, 0), (2, 1, -2, 0), (2, 2, -1, -1)],
    9: [(-2, -2, 1, 1), (-2, -1, 1, 1), (-2, 2, -2, -1), (-1, -1, 0, 1), (-1, 2, -1, -2),
        (-1, 2, -1, 1), (0, -1, 0, 1), (0, -1, 2, 1), (0, 0, -2, 0)],
}
POLYGON_RUNGS = [(8, 4), (12, 3), (16, 2), (20, 1), (24, 1)]   # (edges, jobs)
POWER_RUNGS = [(2, 4), (3, 2), (4, 4)]                         # (k, jobs)
OSTROWSKI_RUNGS = [(2, 4, 3), (3, 4, 2)]                       # (dim, terms, jobs)
DISTINCT_RUNGS = [(2, 8, 3), (3, 8, 1)]                        # (dim, points, jobs)
POLYTOPE_TOP = "power-k4"


def _angle_cmp(a, b):
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    cr = a[0] * b[1] - a[1] * b[0]
    return -1 if cr > 0 else 1


def random_polygon(rng, edges, span):
    """Vertices of a convex lattice polygon whose edges are ``edges``
    primitive vectors in pairwise distinct directions."""
    while True:
        vecs = set()
        while len(vecs) < edges - 1:
            v = (rng.randint(-span, span), rng.randint(-span, span))
            if v != (0, 0) and gcd(v[0], v[1]) == 1:
                vecs.add(v)
        last = (-sum(v[0] for v in vecs), -sum(v[1] for v in vecs))
        if last == (0, 0) or gcd(last[0], last[1]) != 1 or last in vecs:
            continue
        vecs.add(last)
        cycle, x, y = [], 0, 0
        for v in sorted(vecs, key=functools.cmp_to_key(_angle_cmp)):
            cycle.append((x, y))
            x, y = x + v[0], y + v[1]
        return cycle


def _expand_power(base, k):
    out = {(0, 0): Fraction(1)}
    for _ in range(k):
        nxt = {}
        for e1, c1 in out.items():
            for e2, c2 in base.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                nxt[e] = nxt.get(e, 0) + c1 * c2
        out = {e: c for e, c in nxt.items() if c}
    return out


def _unimodular(rng, d):
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        f = rng.choice((-1, 1, 2))
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


class PolytopeCertify:
    name = "polytope_certify"
    top_rung = POLYTOPE_TOP

    def __init__(self, aug):
        self.aug = aug

    def build(self, rng):
        P = self.aug.polytope
        out = []
        for dim, n, box, reps in INVARIANT_RUNGS:
            for _ in range(reps):
                pts = _support(rng, dim, n, box)
                out.append(self._invariants(P, dim, pts, _laurent(self.aug, VARS[dim], pts, rng),
                                            "inv-d%d-n%d" % (dim, n)))
        for n, base in sorted(D4_BASES.items()):
            flips = [rng.choice((1, -1)) for _ in range(4)]
            shift = [rng.randint(-3, 3) for _ in range(4)]
            pts = sorted(tuple(f * x + s for f, x, s in zip(flips, p, shift)) for p in base)
            out.append(self._invariants(P, 4, pts, _laurent(self.aug, VARS[4], pts, rng),
                                        "inv-d4-n%d" % n))
        for dim, terms, reps in OSTROWSKI_RUNGS:
            for _ in range(reps):
                f = _laurent(self.aug, VARS[dim], _support(rng, dim, terms, 2), rng)
                g = _laurent(self.aug, VARS[dim], _support(rng, dim, terms, 2), rng)
                out.append(self._ostrowski(P, f, g, rng, "ostrowski-d%d" % dim))
        for edges, reps in POLYGON_RUNGS:
            for _ in range(reps):
                cycle = random_polygon(rng, edges, 4)
                f = _laurent(self.aug, VARS[2], cycle, rng)
                out.append(self._certificate(P, cycle, f, "polygon-e%d" % edges))
        for k, reps in POWER_RUNGS:
            for _ in range(reps):
                base = {(0, 0): Fraction(rng.randint(1, 5)), (1, 0): Fraction(rng.randint(1, 5)),
                        (0, 1): Fraction(rng.randint(1, 5)), (1, -1): Fraction(rng.randint(1, 5))}
                f = self.aug.LaurentPoly(VARS[2], _expand_power(base, k))
                out.append(self._power(P, f, "power-k%d" % k))
        for dim, n, reps in DISTINCT_RUNGS:
            for _ in range(reps):
                pts = _support(rng, dim, n, 2)
                m = _unimodular(rng, dim)
                shift = [rng.randint(-3, 3) for _ in range(dim)]
                image = [tuple(sum(a * b for a, b in zip(row, p)) + s for row, s in zip(m, shift))
                         for p in pts]
                f = _laurent(self.aug, VARS[dim], pts, rng)
                g = _laurent(self.aug, VARS[dim], image, rng)
                out.append(self._distinct(P, f, g, "distinct-d%d" % dim))
        return out

    @staticmethod
    def _invariants(P, dim, pts, f, rung):
        def run():
            poly = P.newton_polytope(f)
            return poly, P.polytope_invariants(poly)

        def check(res):
            poly, rec = res
            if dim == 2:
                return oracles.check_polygon(pts, poly, rec)
            return oracles.check_polytope_nd(pts, poly, rec)
        return Job("invariants", rung, run, check)

    @staticmethod
    def _ostrowski(P, f, g, rng, rung):
        def run():
            h = f * g
            return h, P.newton_polytope(h), P.minkowski_sum(P.newton_polytope(f),
                                                            P.newton_polytope(g))

        point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in f.variables]

        def check(res):
            h, prod, msum = res
            if prod != msum:
                return "Ostrowski: Newton polytope of f*g != Minkowski sum"
            return (oracles.check_product(f.terms, g.terms, h.terms, point)
                    or oracles.check_hull(list(h.terms), prod))
        return Job("ostrowski", rung, run, check)

    @staticmethod
    def _certificate(P, cycle, f, rung):
        def run():
            return P.irreducibility_certificate(f)

        def check(verdict):
            return oracles.check_irreducibility_2d(cycle, verdict)
        return Job("polygon", rung, run, check)

    @staticmethod
    def _power(P, f, rung):
        def run():
            return P.irreducibility_certificate(f)

        def check(verdict):
            # a k-th power with k >= 2 is reducible: never certified
            return None if verdict.kind == "inconclusive" else \
                "power certified %s" % verdict.kind
        return Job("power", rung, run, check)

    @staticmethod
    def _distinct(P, f, g, rung):
        def run():
            return P.certify_distinct(P.newton_polytope(f), P.newton_polytope(g))

        def check(verdict):
            # unimodular images share every invariant
            return None if verdict.kind == "unknown" else \
                "unimodular image reported %s" % verdict.kind
        return Job("distinct", rung, run, check)


# ---------------------------------------------------------------- series_solve

FORMAL2_RUNGS = [(6, 2), (8, 2), (12, 1), (16, 1)]      # (order, jobs)
CLIFFORD_RUNGS = [(3, 8, 2), (3, 16, 1), (4, 8, 1)]     # (n, order, jobs)
FORMAL3_RUNGS = [(4, 2), (6, 6), (8, 1), (10, 3)]       # (order, jobs)
QUOTIENT_RUNGS = [(4, 2), (6, 1)]                       # (order, jobs)
NILPOTENT_RUNGS = [(2, 6, 1), (3, 8, 1), (4, 8, 1)]     # (d, order, jobs)
BIGROOT_RUNGS = [(10 ** 8, 2), (10 ** 10, 1), (10 ** 12, 1)]   # (root scale, jobs)
MULTICOVER_RUNGS = [(2, 10, 1), (3, 8, 1), (4, 6, 1)]   # (m, order, jobs)
SERIES_TOP = "formal3-o10"


def _nonzero(rng, lo, hi):
    return rng.choice([x for x in range(lo, hi + 1) if x])


def _two_roots(rng):
    a = _nonzero(rng, -4, 4)
    b = _nonzero(rng, -4, 4)
    while b == a:
        b = _nonzero(rng, -4, 4)
    return a, b


def _mixed_terms(rng, count, max_y):
    """Terms y1^i y2^j with i >= 1 and small random coefficients."""
    out = {}
    while len(out) < count:
        out[(rng.randint(1, 2), rng.randint(0, max_y))] = _coef(rng)
    return out


class SeriesSolve:
    name = "series_solve"
    top_rung = SERIES_TOP

    def __init__(self, aug):
        self.aug = aug

    def build(self, rng):
        aug = self.aug
        out = []
        for order, reps in FORMAL2_RUNGS:
            for _ in range(reps):
                a, b = _two_roots(rng)
                terms = {(0, 0): Fraction(a * b), (0, 1): Fraction(-a - b), (0, 2): Fraction(1)}
                terms.update(_mixed_terms(rng, 3, 2))
                rel = aug.LaurentPoly(VARS[2], terms)
                out.append(self._formal(rel, "y2", order, "formal2-o%d" % order,
                                        kappa=min((a, b), key=lambda r: (abs(r), -r))))
        for n, order, reps in CLIFFORD_RUNGS:
            for _ in range(reps):
                signs = [rng.choice((1, -1)) for _ in range(n)]
                out.append(self._clifford(n, signs, order, "clifford-n%d-o%d" % (n, order)))
        for order, reps in FORMAL3_RUNGS:
            for _ in range(reps):
                a, b = _two_roots(rng)
                terms = {(0, 0, 0): Fraction(a * b), (0, 0, 1): Fraction(-a - b),
                         (0, 0, 2): Fraction(1)}
                for exp in ((1, 0, 0), (1, 1, 0), (2, 0, 1), (0, 2, 2)):
                    terms[exp] = _coef(rng)
                rel = aug.LaurentPoly(VARS[3], terms)
                out.append(self._formal(rel, "y3", order, "formal3-o%d" % order,
                                        kappa=min((a, b), key=lambda r: (abs(r), -r))))
        for order, reps in QUOTIENT_RUNGS:
            for _ in range(reps):
                while True:
                    p, q = rng.randint(-3, 3), _nonzero(rng, -5, 5)
                    disc = p * p - 4 * q
                    if disc < 0 or isqrt(disc) ** 2 != disc:
                        break
                terms = {(0, 0): Fraction(q), (0, 1): Fraction(p), (0, 2): Fraction(1)}
                terms.update(_mixed_terms(rng, 2, 1))
                rel = aug.LaurentPoly(VARS[2], terms)
                factor = aug.rings.UniPoly([q, p, 1])
                out.append(self._formal(rel, "y2", order, "quotient-o%d" % order,
                                        factor=factor))
        for d, order, reps in NILPOTENT_RUNGS:
            for _ in range(reps):
                a, b = _two_roots(rng)
                terms = {(0, 0): Fraction(a * b), (0, 1): Fraction(-a - b), (0, 2): Fraction(1)}
                terms.update(_mixed_terms(rng, 2, 1))
                rel = aug.LaurentPoly(VARS[2], terms)
                out.append(self._nilpotent(rel, d, order, "nilpotent-d%d-o%d" % (d, order)))
        for scale, reps in BIGROOT_RUNGS:
            for _ in range(reps):
                c = rng.randint(scale, 2 * scale)
                terms = {(0, 0): Fraction(-c), (0, 1): Fraction(1)}
                terms.update(_mixed_terms(rng, 2, 1))
                rel = aug.LaurentPoly(VARS[2], terms)
                out.append(self._formal(rel, "y2", 4, "bigroot-1e%d" % len(str(scale)[1:]),
                                        kappa=c))
        for m, order, reps in MULTICOVER_RUNGS:
            for _ in range(reps):
                out.append(self._multicover(m, order, "multicover-m%d-o%d" % (m, order)))
        return out

    def _formal(self, rel, var, order, rung, kappa=None, factor=None):
        augment = self.aug.augment

        def run():
            return augment.solve_formal_augmentation(rel, var, order=order, factor=factor)

        def check(sol):
            if kappa is not None and sol.kappa != kappa:
                return "root %s, expected %s" % (sol.kappa, kappa)
            if factor is not None and sol.kappa.modulus != factor.monic():
                return "quotient root over the wrong modulus"
            return oracles.check_augmentation(rel.terms, rel.variables.index(var), sol.kappa,
                                              sol.series.terms, order, Fraction(0))
        return Job("formal", rung, run, check)

    def _clifford(self, n, signs, order, rung):
        spec = self.aug.potentials.clifford_relation(n, signs)
        rel = spec.lifted_relation
        var = rel.variables[-1]
        augment = self.aug.augment

        def run():
            return augment.solve_formal_augmentation(rel, var, order=order)

        def check(sol):
            # eps0 + sum eps_i mu_i + eps_n kappa exp(s) = 0 gives
            # kappa = -eps0/eps_n and s = log(1 + sum (eps_i/eps0) mu_i)
            if sol.kappa != Fraction(-signs[0], signs[-1]):
                return "Clifford root %s" % sol.kappa
            expected = oracles.clifford_log_coefficients(
                [Fraction(e, signs[0]) for e in signs[1:-1]], order)
            if sol.series.terms != expected:
                return "Clifford series differs from log(1 + mu)"
            return oracles.check_augmentation(rel.terms, len(rel.variables) - 1, sol.kappa,
                                              sol.series.terms, order, Fraction(0))
        return Job("clifford", rung, run, check)

    def _nilpotent(self, rel, d, order, rung):
        augment = self.aug.augment

        def run():
            return augment.solve_nilpotent_augmentation(rel, d, "y2", order=order)

        def check(sol):
            image = sol.image
            if not (image ** d).is_zero() or (image ** (d - 1)).is_zero():
                return "relation image is not nilpotent of order %d" % d
            return oracles.check_augmentation(rel.terms, 1, sol.kappa, sol.series.terms,
                                              order, image)
        return Job("nilpotent", rung, run, check)

    def _multicover(self, m, order, rung):
        loc = self.aug.localization

        def run():
            contributions = [loc.euler_contribution(loc.hl_cover_weights(d))
                             for d in range(1, order + 1)]
            return contributions, loc.verify_multicover_identity(m, order)

        def check(res):
            contributions, (equal, compared) = res
            for d, c in enumerate(contributions, start=1):
                if c != oracles.cover_contribution(d):
                    return "cover contribution for d=%d is %s" % (d, c)
            if not equal:
                return "multinomial identity reported unequal"
            if compared != oracles.monomial_count(m, order):
                return "compared %d coefficients" % compared
            return None
        return Job("multicover", rung, run, check)


# ---------------------------------------------------------------- cli_requests

CLI_TOP = "solve-aug-rel7"
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")


def _laurent_obj(variables, terms):
    return {"vars": list(variables),
            "terms": [{"exp": list(e), "coef": str(Fraction(c))} for e, c in sorted(terms.items())]}


# Fixed request inputs, so each report digest can be recorded once.
CLI_FILES = {
    "poly2d.json": _laurent_obj(VARS[2], {(0, 0): 3, (2, 0): -1, (1, 1): 2, (0, 3): 1,
                                          (-1, 2): 5, (1, -1): -2, (3, 1): 1, (1, 0): 4}),
    "poly2d_b.json": _laurent_obj(VARS[2], {(0, 0): 1, (1, 0): 1, (0, 1): -1, (2, 2): 3,
                                            (-1, 1): 2}),
    "poly3d.json": _laurent_obj(VARS[3], {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): -1,
                                          (0, 0, 1): 3, (1, 1, 1): -2, (2, 0, 1): 1,
                                          (0, 2, 1): 1, (1, 2, 0): -3}),
    "simplex3.json": _laurent_obj(VARS[3], {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 2,
                                            (0, 0, 1): -1}),
    "anticanonical.json": _laurent_obj(VARS[2], {(0, 0): 1, (2, 0): -1, (1, 1): 1, (1, -1): -1}),
    "rel7.json": _laurent_obj(VARS[3], {(0, 0, 0): 2, (1, 0, 0): 1, (0, 0, 1): -3, (1, 1, 0): 1,
                                        (0, 0, 2): 1, (2, 0, 1): 1, (0, 2, 2): 1}),
    "relq.json": _laurent_obj(VARS[2], {(0, 0): -2, (0, 2): 1, (1, 0): 1, (1, 1): 3}),
    "factor.json": {"modulus": ["-2", "0", "1"]},
    "fan.json": {"rays": [[1, 0], [0, 1], [-1, 2], [0, -1]], "signs": [1, 1, -1, 1]},
    "good.json": {"ell": 2, "y": {"1": ["-2", "1"], "2": ["1", "-2"]},
                  "a": {"12": "0", "21": "0"}, "signs": [1, 1, 1]},
    "bad.json": {"ell": 2, "y": {"1": ["-2", "1"], "2": ["1", "-1"]},
                 "a": {"12": "0", "21": "0"}, "signs": [1, 1, 1]},
}
CLI_RAW_FILES = {"malformed.json": '{"vars": ["y1"], "terms": [{"exp": '}

# (rung, argv, expected exit code); every request runs in text and JSON
CLI_REQUESTS = [
    ("potential", ["potential", "--kind", "clifford", "--n", "4", "--signs", "+,+,-,+"], 0),
    ("potential", ["potential", "--kind", "anticanonical"], 0),
    ("potential", ["potential", "--kind", "unit-sphere-bundle"], 0),
    ("potential-toric", ["potential", "--kind", "toric", "--fan", "fan.json"], 0),
    ("potential", ["potential", "--kind", "user", "--input", "poly2d.json"], 0),
    ("augpoly", ["augpoly", "--input", "poly2d.json"], 0),
    ("newton", ["newton", "--input", "poly2d.json"], 0),
    ("newton", ["newton", "--input", "poly3d.json"], 0),
    ("irreducible", ["irreducible", "--input", "poly2d_b.json"], 0),
    ("irreducible", ["irreducible", "--input", "anticanonical.json"], 2),
    ("irreducible", ["irreducible", "--input", "simplex3.json", "--peel", "y3"], 0),
    ("distinguish", ["distinguish", "--input", "poly2d.json", "--other", "poly2d_b.json"], 0),
    ("solve-aug", ["solve-aug", "--clifford", "3", "--signs", "+,+,-", "--order", "10"], 0),
    (CLI_TOP, ["solve-aug", "--input", "rel7.json", "--var", "y3", "--order", "6"], 0),
    ("solve-aug", ["solve-aug", "--input", "relq.json", "--factor", "factor.json",
                   "--order", "4"], 0),
    ("solve-nilpotent", ["solve-nilpotent", "--clifford", "3", "--multiplicity", "3",
                         "--order", "6"], 0),
    ("partitions", ["partitions", "--ell", "3"], 0),
    ("check-candidate", ["check-candidate", "--input", "good.json"], 0),
    ("check-candidate", ["check-candidate", "--input", "bad.json"], 2),
    ("markov", ["markov", "--bound", "2000"], 0),
    ("localize", ["localize", "--d-max", "6", "--m", "2", "--order", "6"], 0),
    ("chord-degrees", ["chord-degrees", "--sheets", "4"], 0),
    ("input-error", ["newton", "--input", "malformed.json"], 1),
    ("input-error", ["newton", "--input", "missing.json"], 1),
]


def cli_request_list():
    out = []
    for rung, argv, code in CLI_REQUESTS:
        for fmt in ("text", "json"):
            out.append((rung, argv + ["--format", fmt], code))
    return out


def request_key(argv):
    return " ".join(argv)


class CliRequests:
    """Requests through ``augvar.cli.run`` in this process, with stdout and
    stderr captured in memory; the input files live in ``workdir``, which
    must be the current directory while jobs run (reports embed the
    relative paths, so digests do not depend on where the checkout is)."""

    name = "cli_requests"
    top_rung = CLI_TOP

    def __init__(self, aug, workdir, digests=None):
        self.aug = aug
        self.workdir = workdir
        for name, obj in CLI_FILES.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        for name, text in CLI_RAW_FILES.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        if digests is None:
            with open(DIGESTS_FILE, encoding="utf-8") as fh:
                digests = json.load(fh)
        self.digests = digests
        self.report_bytes = None      # tracer hook: called with each report's size

    def build(self, rng):
        return [self._request(argv, code, rung) for rung, argv, code in cli_request_list()]

    def _request(self, argv, code, rung):
        cli = self.aug.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            return rc, out.getvalue()

        def check(res):
            rc, text = res
            if self.report_bytes is not None:
                self.report_bytes(len(text.encode("utf-8")))
            if rc != code:
                return "exit code %d, expected %d" % (rc, code)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if self.digests.get(request_key(argv)) != digest:
                return "report digest changed"
            return None
        return Job(argv[0], rung, run, check)


WORKLOADS = {
    "polytope_certify": PolytopeCertify,
    "series_solve": SeriesSolve,
    "cli_requests": CliRequests,
}
