"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Everything asserts exact equality; there are no tolerances anywhere.

Criterion 8 is split in two.  test_criterion_08a covers the triangle and the
product (1 - y1)(1 - y2).  test_criterion_08b covers the anticanonical
relation 1 - y1^2 + y1 y2 - y1 y2^-1, which is reducible: it factors exactly
as (1 - y1 y2^-1)(1 + y1 y2), and its Newton square is the Minkowski sum of
the two factors' segments.  A sound certificate therefore answers
Inconclusive; the test asserts that verdict, exhibits the factorization, and
checks that no sign choice on the same support certifies Irreducible.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from augvar.augment import (
    build_partition_witness,
    dga_relation_check,
    enumerate_partition_components,
    perturbations,
    reeb_chord_degree,
    solve_formal_augmentation,
    solve_nilpotent_augmentation,
    ChordDegreeParams,
)
from augvar.cli import random_unimodular, run
from augvar.laurent import LaurentPoly
from augvar.localization import (
    euler_contribution,
    hl_cover_weights,
    multicover_series,
    log_series,
)
from augvar.polytope import (
    LatticePolytope,
    certify_distinct,
    irreducibility_certificate,
    minkowski_sum,
    newton_polytope,
    polytope_invariants,
)
from augvar.potentials import (
    clifford_relation,
    markov_fibonacci_check,
    markov_generate,
    product_spheres_relation,
)
from augvar.rings import TruncatedSeries, series_exp, series_log

from lattice_oracles import image
from markov_oracles import markov_brute_force

F = Fraction


def _verdict(n, ok, detail=""):
    line = "ACCEPTANCE %s: %s" % (n, "PASS" if ok else "FAIL")
    if detail:
        line += " — " + detail
    print(line)
    return ok


def _log1p(var, order):
    mu = TruncatedSeries.variable(var, (var,), order)
    return series_log(1 + mu)


# -------------------------------------------------------------- criterion 1

def test_criterion_01_harvey_lawson_clifford_series(capsys):
    rel = clifford_relation(3, "+,+,-").lifted_relation
    sol = solve_formal_augmentation(rel, "y2", order=12)
    ok = sol.kappa == 1
    ok = ok and sol.series == _log1p("y1", 12)
    # independent residual substitution, not the solver's bookkeeping
    mu = TruncatedSeries.variable("y1", ("y1",), 12)
    residual = rel.evaluate({"y1": mu, "y2": series_exp(sol.series).scale(sol.kappa)})
    ok = ok and residual.is_zero()
    # the CLI route reports the same numbers
    code = run(["solve-aug", "--clifford", "3", "--signs", "+,+,-",
                "--order", "12", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    ok = ok and code == 0 and report["result"]["kappa"] == "1"
    coefs = [t["coef"] for t in report["result"]["series"]]
    ok = ok and coefs == [str(F((-1) ** (j - 1), j)) for j in range(1, 13)]
    assert _verdict(1, ok, "kappa=1, s=log(1+mu1) through order 12, residual 0")


# -------------------------------------------------------------- criterion 2

def test_criterion_02_trivial_spin_clifford_series():
    rel = clifford_relation(3).lifted_relation
    sol = solve_formal_augmentation(rel, "y2", order=12)
    ok = sol.kappa == -1 and sol.series == _log1p("y1", 12)
    ok = ok and sol.residual().is_zero()
    assert _verdict(2, ok, "kappa=-1, s=log(1+mu1) through order 12")


# -------------------------------------------------------------- criterion 3

def test_criterion_03_nilpotent_scheme_witnesses():
    y, = LaurentPoly.gens(("y",))
    sol2 = solve_nilpotent_augmentation(1 - y, 2, "y", order=8)
    img2 = sol2.image
    ok = (img2 ** 2).is_zero() and not img2.is_zero()
    # image of the full relation (1 - y)^2 is exactly zero
    ok = ok and (img2 * img2).is_zero()

    y1, yv = LaurentPoly.gens(("y1", "y"))
    sol3 = solve_nilpotent_augmentation(1 + y1 - yv, 3, "y", order=8)
    img3 = sol3.image
    ok = ok and (img3 ** 3).is_zero() and not (img3 ** 2).is_zero()
    ok = ok and sol3.residual().is_zero()
    assert _verdict(3, ok, "nilpotency orders exactly 2 and 3, exact powers")


# -------------------------------------------------------------- criterion 4

def test_criterion_04_multiple_cover_factors():
    ok = all(euler_contribution(hl_cover_weights(d)) == F((-1) ** (d - 1), d * d)
             for d in range(1, 21))
    assert _verdict(4, ok, "(-1)^(d-1)/d^2 for d = 1..20, exact")


# -------------------------------------------------------------- criterion 5

def test_criterion_05_multinomial_logarithm_identity():
    ok = True
    compared_m3 = 0
    for m in (1, 2, 3):
        for order in range(1, 9):
            lhs = multicover_series(m, order)
            rhs = log_series(m, order)
            ok = ok and lhs == rhs
            if m == 3 and order == 8:
                compared_m3 = len(set(lhs.terms) | set(rhs.terms))
    ok = ok and compared_m3 >= 160
    assert _verdict(5, ok, "equals log(1+sum mu) for m=1,2,3, order<=8; "
                           "%d coefficients at m=3" % compared_m3)


# -------------------------------------------------------------- criterion 6

def test_criterion_06_ostrowski_property():
    rng = random.Random(2024)
    checked = 0
    ok = True
    for trial in range(200):
        nvars = 2 if trial % 2 == 0 else 3
        f = _random_laurent(rng, nvars)
        g = _random_laurent(rng, nvars)
        lhs = newton_polytope(f * g)
        rhs = minkowski_sum(newton_polytope(f), newton_polytope(g))
        ok = ok and lhs == rhs
        checked += 1
    ok = ok and checked == 200
    assert _verdict(6, ok, "Newt(fg) = Newt(f) + Newt(g) on 200 seeded pairs")


def _random_laurent(rng, nvars, span=3):
    vs = tuple("y%d" % i for i in range(1, nvars + 1))
    terms = {}
    for _ in range(rng.randint(2, 5)):
        e = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[e] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    return LaurentPoly(vs, terms)


# -------------------------------------------------------------- criterion 7

def test_criterion_07_polytope_inequivalence():
    rng = random.Random(77)
    ok = True
    # invariance of every field under 100 seeded transforms
    for trial in range(100):
        nvars = 2 if trial % 2 == 0 else 3
        pts = [tuple(rng.randint(-3, 3) for _ in range(nvars))
               for _ in range(rng.randint(2, 6))]
        P = LatticePolytope.from_points(pts)
        M = random_unimodular(nvars, seed=trial)
        t = tuple(rng.randint(-5, 5) for _ in range(nvars))
        ok = ok and polytope_invariants(P) == \
            polytope_invariants(image(P, M).translate(t))
    clifford = LatticePolytope(2, [(1, 0), (0, 1), (-1, -1)])
    long_edge = LatticePolytope(2, [(0, 0), (3, 0), (0, 1)])
    ok = ok and certify_distinct(clifford, long_edge).kind == "distinct"
    for seed in range(20):
        Q = image(clifford, random_unimodular(2, seed)) \
            .translate((seed - 3, 2 * seed + 1))
        ok = ok and certify_distinct(clifford, Q).kind == "unknown"
    assert _verdict(7, ok, "invariants stable under 100 transforms; "
                           "Distinct vs {1,1,3}; Unknown on transformed copies")


# -------------------------------------------------------------- criterion 8

def test_criterion_08a_certificates_triangle_and_product():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    ok = irreducibility_certificate(1 + y1 + y2).kind == "irreducible"
    product = (1 - y1) * (1 - y2)
    ok = ok and irreducibility_certificate(product).kind == "inconclusive"
    # the product operator exhibits the factorization of the inconclusive input
    ok = ok and product == LaurentPoly(("y1", "y2"), {
        (0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    assert _verdict("8a", ok, "1+y1+y2 irreducible; (1-y1)(1-y2) inconclusive "
                              "with exhibited factorization")


def test_criterion_08b_anticanonical_certificate_as_specified():
    """The anticanonical relation is reducible, so the sound verdict is
    Inconclusive with a Minkowski-split witness; the factorization and the
    split of its Newton square are exhibited, for every sign choice."""
    split = "Newton polygon admits a Minkowski split"
    anti = product_spheres_relation("anticanonical").lifted_relation
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    left, right = 1 - y1 * y2 ** -1, 1 + y1 * y2
    verdict = irreducibility_certificate(anti)
    ok = verdict.kind == "inconclusive" and verdict.witness == split
    ok = ok and left * right == anti
    square = newton_polytope(anti)
    ok = ok and square.vertices == ((0, 0), (1, -1), (1, 1), (2, 0))
    ok = ok and square.vertices == minkowski_sum(
        newton_polytope(left), newton_polytope(right)).vertices
    # the same support under all 16 sign vectors: never Irreducible, and the
    # relation factors exactly when eps0*eps1 == eps2*eps3
    factoring = 0
    for eps in itertools.product((1, -1), repeat=4):
        rel = product_spheres_relation("anticanonical", list(eps)).lifted_relation
        v = irreducibility_certificate(rel)
        ok = ok and v.kind == "inconclusive" and v.witness == split
        ok = ok and newton_polytope(rel) == square
        product = (eps[0] + eps[3] * y1 * y2 ** -1) \
            * (1 + eps[0] * eps[2] * y1 * y2)
        factors = eps[0] * eps[1] == eps[2] * eps[3]
        ok = ok and (product == rel) == factors
        factoring += factors
    ok = ok and factoring == 8
    assert _verdict("8b", ok,
                    "%s = (1 - y1*y2^-1)(1 + y1*y2) is Inconclusive (%s); "
                    "Newton square = segment + segment; no sign vector "
                    "certifies Irreducible" % (anti, verdict.witness)), \
        ("the anticanonical relation factors as (1 - y1*y2^-1)(1 + y1*y2); "
         "a sound certificate must answer Inconclusive with a Minkowski split, "
         "got %r (%s)" % (verdict.kind, verdict.witness))


# -------------------------------------------------------------- criterion 9

def test_criterion_09_partition_components():
    spec = clifford_relation(3)
    counts = [len(enumerate_partition_components(ell, spec))
              for ell in (2, 3, 4)]
    ok = counts == [2, 4, 10]
    for ell in (2, 3):
        for comp in enumerate_partition_components(ell, spec):
            w = build_partition_witness(comp.blocks, spec.signs, 2)
            ok = ok and dga_relation_check(w).passed
            ok = ok and all(not dga_relation_check(pert).passed
                            for _, pert in perturbations(w))
    assert _verdict(9, ok, "component counts 2/4/10; witnesses pass; every "
                           "single-value perturbation fails")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_markov_triples():
    tree = markov_generate(1000)
    brute = markov_brute_force(1000)
    ok = tree == brute
    ok = ok and all(markov_fibonacci_check(t) for t in tree if t.a == 1)
    assert _verdict(10, ok, "mutation tree = Diophantine enumeration at 1000; "
                            "all (1,b,c) are Fibonacci")


# ------------------------------------------------------------- criterion 11

def test_criterion_11_chord_degrees():
    params = ChordDegreeParams(sheets=3, theta_over_pi=F(2, 9), slope=F(3))
    ok = reeb_chord_degree(params, 1, 2) == (F(-1, 3), 1)
    ok = ok and reeb_chord_degree(params, 2, 3) == (F(-1, 3), 1)
    ok = ok and reeb_chord_degree(params, 1, 3) == (F(1, 3), 1)
    assert _verdict(11, ok, "deg(a12) = deg(a23) = -1/3, deg(a13) = +1/3")


# ------------------------------------------------------------- criterion 12

ALL_SUBCOMMAND_ARGVS = [
    ["potential", "--kind", "clifford", "--n", "3", "--signs", "+,+,-"],
    ["augpoly", "--input", "{POT}"],
    ["newton", "--input", "{POT}"],
    ["irreducible", "--input", "{TRI}"],
    ["distinguish", "--input", "{TRI}", "--other", "{POT}"],
    ["solve-aug", "--clifford", "3", "--signs", "+,+,-", "--order", "8",
     "--seed", "7"],
    ["solve-nilpotent", "--clifford", "2", "--signs", "+,-",
     "--multiplicity", "2", "--order", "6", "--seed", "7"],
    ["partitions", "--ell", "3"],
    ["check-candidate", "--input", "{CAND}"],
    ["markov", "--bound", "200"],
    ["localize", "--d-max", "8", "--m", "2", "--order", "6"],
    ["chord-degrees", "--sheets", "3"],
]


def test_criterion_12_cli_determinism(tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({
        "vars": ["y1", "y2"],
        "terms": [{"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "1"},
                  {"exp": [-1, -1], "coef": "-1"}]}))
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({
        "vars": ["y1", "y2"],
        "terms": [{"exp": [0, 0], "coef": "1"}, {"exp": [1, 0], "coef": "1"},
                  {"exp": [0, 1], "coef": "1"}]}))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({
        "ell": 2, "y": {"1": ["-2", "1"], "2": ["1", "-2"]},
        "a": {"12": "0", "21": "0"}, "signs": [1, 1, 1]}))
    fills = {"{POT}": str(pot), "{TRI}": str(tri), "{CAND}": str(cand)}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    ok = True
    for argv in ALL_SUBCOMMAND_ARGVS:
        argv = [fills.get(a, a) for a in argv]
        for fmt in ("text", "json"):
            cmd = [sys.executable, "-m", "augvar.cli"] + argv + ["--format", fmt]
            first = subprocess.run(cmd, capture_output=True, env=env)
            second = subprocess.run(cmd, capture_output=True, env=env)
            same = (first.stdout != b"" and first.stdout == second.stdout
                    and first.returncode == second.returncode)
            ok = ok and same
    assert _verdict(12, ok, "byte-identical reports across repeated runs of "
                            "every subcommand, text and json")
