"""Tests for potential builders and Markov triples."""

import random
from fractions import Fraction

import pytest

from augvar.errors import (
    DegenerateFan,
    NonPrimitiveRay,
    NotANormalizedTriple,
    PreconditionViolation,
    SignLengthMismatch,
    ZeroPolynomial,
)
from augvar.laurent import LaurentPoly, clear_to_vertex_fitted
from augvar.polytope import newton_polytope
from augvar.potentials import (
    MarkovTriple,
    clifford_relation,
    is_fibonacci,
    markov_fibonacci_check,
    markov_generate,
    product_spheres_relation,
    sign_vector,
    toric_relation,
    user_relation,
)
from augvar.rings import is_zero

from markov_oracles import markov_brute_force


def test_sign_vector_formats():
    assert sign_vector("+,+,-") == (1, 1, -1)
    assert sign_vector("+-") == (1, -1)
    assert sign_vector([1, -1, 1]) == (1, -1, 1)
    with pytest.raises(SignLengthMismatch):
        sign_vector("+,+", 3)
    with pytest.raises(SignLengthMismatch):
        sign_vector([2, 1])


# ------------------------------------------------------------------ clifford

def test_clifford_all_plus():
    spec = clifford_relation(3)
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    assert spec.lifted_relation == 1 + y1 + y2


def test_clifford_mixed_signs():
    spec = clifford_relation(3, "+,+,-")
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    assert spec.lifted_relation == 1 + y1 - y2


def test_clifford_smallest():
    spec = clifford_relation(2, "++")
    y1, = LaurentPoly.gens(("y1",))
    assert spec.lifted_relation == 1 + y1


def test_clifford_term_count_and_units():
    for n in range(2, 7):
        spec = clifford_relation(n)
        assert len(spec.lifted_relation.terms) == n
        assert all(c in (1, -1) for c in spec.lifted_relation.terms.values())


def test_clifford_sign_length_checked():
    with pytest.raises(SignLengthMismatch):
        clifford_relation(3, "+,+")


# ----------------------------------------------------------- product spheres

def test_unit_sphere_bundle_relation():
    spec = product_spheres_relation("unit-sphere-bundle")
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    assert spec.lifted_relation == 1 - y1 - y2 + y1 * y2


def test_unit_sphere_bundle_factors():
    spec = product_spheres_relation("unit-sphere-bundle")
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    assert (1 - y1) * (1 - y2) == spec.lifted_relation


def test_anticanonical_relation():
    spec = product_spheres_relation("anticanonical")
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    assert spec.lifted_relation == 1 - y1 ** 2 + y1 * y2 - y1 * y2 ** -1


# --------------------------------------------------------------------- toric

def test_toric_projective_plane():
    spec = toric_relation([(1, 0), (0, 1), (-1, -1)], vertex=(-1, -1))
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    assert spec.base_potential == y1 + y2 + (y1 * y2) ** -1
    assert spec.lifted_relation == 1 + y1 ** 2 * y2 + y1 * y2 ** 2


def test_toric_projective_line():
    spec = toric_relation([(1,), (-1,)])
    y, = LaurentPoly.gens(("y1",))
    assert spec.base_potential == y + y ** -1


def test_toric_product_of_lines():
    spec = toric_relation([(1, 0), (-1, 0), (0, 1), (0, -1)])
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    assert spec.base_potential == y1 + y1 ** -1 + y2 + y2 ** -1


def test_toric_rejects_non_primitive_ray():
    with pytest.raises(NonPrimitiveRay):
        toric_relation([(2, 0), (0, 1), (-1, -1)])


def test_toric_rejects_degenerate_fan():
    with pytest.raises(DegenerateFan):
        toric_relation([(1, 0), (-1, 0)])
    # spans a finite-index sublattice only
    with pytest.raises(DegenerateFan):
        toric_relation([(1, 1), (1, -1)])


def test_lifted_relation_invariants():
    specs = [
        clifford_relation(4, "+,-,+,-"),
        product_spheres_relation("anticanonical"),
        toric_relation([(1, 0), (0, 1), (-1, -1)]),
    ]
    for spec in specs:
        assert not is_zero(spec.lifted_relation.constant_term())


def test_user_relation_rejects_non_integer_vertex():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    for fit in (True, False):
        with pytest.raises(PreconditionViolation):
            user_relation(1 + y1 + y2, vertex=(Fraction(1, 3), Fraction(1, 2)),
                          fit_basis=fit)


def test_user_relation_clears_and_fits():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    f = y1 + y2 - (y1 * y2) ** -1
    spec = user_relation(f)
    assert not is_zero(spec.lifted_relation.constant_term())
    assert all(x >= 0 for e in spec.lifted_relation.terms for x in e)


def test_relations_run_no_lp(monkeypatch):
    # the fitted basis takes its first row from the Newton polytope's facets
    from augvar import intlin

    def no_lp(A, b):
        raise AssertionError("the cone fit ran an LP")

    monkeypatch.setattr(intlin, "phase1_feasible", no_lp)
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    spec = user_relation(5 * y1 ** -1 * y2 ** 2 + 3 + y2 ** 3 - 2 * y1 * y2 ** -1)
    assert spec.basis != ((1, 0), (0, 1))
    assert all(x >= 0 for e in spec.lifted_relation.terms for x in e)
    spec = toric_relation([(1, 0), (0, 1), (-1, -1)], vertex=(1, 0))
    assert spec.basis != ((1, 0), (0, 1))
    assert all(x >= 0 for e in spec.lifted_relation.terms for x in e)


def test_zero_potentials_raise_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        user_relation(LaurentPoly.zero(("y1", "y2")))
    with pytest.raises(ZeroPolynomial):                 # the rays cancel
        toric_relation([(1, 0), (0, 1), (1, 0), (0, 1)], signs=[1, 1, -1, -1])


def test_default_vertex_is_the_smallest_hull_vertex():
    # differential: the relation builders clear at the smallest exponent
    # without a hull; the oracle reads the smallest vertex off the hull
    rng = random.Random(16)
    for trial in range(60):
        n = 2 + trial % 3
        variables = tuple("y%d" % i for i in range(1, n + 1))
        gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
        shift = [rng.randint(-3, 3) for _ in range(n)]
        terms = {tuple(s + sum(c * g[j] for c, g in zip(coefs, gens))
                       for j, s in enumerate(shift)): rng.choice([-3, -1, 1, 2])
                 for coefs in [[rng.randint(-2, 2) for _ in gens]
                               for _ in range(rng.randint(1, 7))]}
        f = LaurentPoly(variables, terms)
        v = min(newton_polytope(f).vertices)
        spec = user_relation(f)
        assert spec.vertex == v, f
        rel, M = clear_to_vertex_fitted(f, v)
        assert spec.lifted_relation == rel
        assert spec.basis == tuple(tuple(r) for r in M)


def test_relation_vanishes_on_witness_point():
    from fractions import Fraction
    spec = clifford_relation(3)
    point = {"y1": Fraction(-2), "y2": Fraction(1)}
    assert spec.lifted_relation.evaluate(point) == 0


# -------------------------------------------------------------------- markov

def test_markov_small_bounds():
    assert [t.as_tuple() for t in markov_generate(2)] == [(1, 1, 1), (1, 1, 2)]
    assert (1, 2, 5) in [t.as_tuple() for t in markov_generate(5)]
    got30 = [t.as_tuple() for t in markov_generate(30)]
    assert (1, 5, 13) in got30 and (2, 5, 29) in got30


def test_markov_equation_holds():
    for t in markov_generate(200):
        a, b, c = t.as_tuple()
        assert a * a + b * b + c * c == 3 * a * b * c


def test_markov_invalid_triple_rejected():
    with pytest.raises(ValueError):
        MarkovTriple(1, 2, 3)
    with pytest.raises(ValueError):
        MarkovTriple(2, 1, 5)


def test_markov_matches_bruteforce_1000():
    assert markov_generate(1000) == markov_brute_force(1000)


def test_markov_bruteforce_matches_triple_loop():
    """Validate the quadratic-solve enumeration against the literal
    three-variable search at a small bound."""
    bound = 40
    literal = set()
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                if a * a + b * b + c * c == 3 * a * b * c:
                    literal.add((a, b, c))
    assert {t.as_tuple() for t in markov_brute_force(bound)} == literal


def test_fibonacci_membership():
    assert [n for n in range(1, 100) if is_fibonacci(n)] == \
        [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_markov_fibonacci_check():
    assert markov_fibonacci_check(MarkovTriple(1, 1, 1))
    assert markov_fibonacci_check(MarkovTriple(1, 2, 5))
    assert markov_fibonacci_check(MarkovTriple(1, 5, 13))
    with pytest.raises(NotANormalizedTriple):
        markov_fibonacci_check(MarkovTriple(2, 5, 29))


def test_all_normalized_triples_are_fibonacci():
    for t in markov_generate(1000):
        if t.a == 1:
            assert markov_fibonacci_check(t)


def test_toric_rays_must_be_integer_vectors():
    with pytest.raises(PreconditionViolation):           # was the ray (1, 0)
        toric_relation([(Fraction(3, 2), 0), (0, 1), (-1, -1)])
    spec = toric_relation([(Fraction(2, 2), 0), (0, 1), (-1, -1)])
    assert spec.base_potential == toric_relation([(1, 0), (0, 1), (-1, -1)]).base_potential
