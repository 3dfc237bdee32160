"""Tests for Laurent polynomial arithmetic, substitution, and clearing."""

import json
import random
from fractions import Fraction

import pytest

from augvar.errors import (
    NegativeExponentAtZero,
    NotAVertex,
    NotInvertibleAtPoint,
    NotUnimodular,
    PreconditionViolation,
    VariableMismatch,
    VerificationFailure,
)
from augvar.laurent import (
    LaurentPoly,
    clear_to_vertex,
    clear_to_vertex_fitted,
    coeff_from_obj,
    coeff_to_obj,
)
from augvar.cli import random_unimodular
from augvar.intlin import mat_inverse
from augvar.rings import QuotientRingElem, TruncatedSeries, UniPoly

F = Fraction
VS = ("y1", "y2")


def gens():
    return LaurentPoly.gens(VS)


def test_product_of_binomials():
    y1, y2 = gens()
    assert (1 - y1) * (1 - y2) == LaurentPoly(VS, {
        (0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


def test_non_integer_exponents_are_rejected_not_truncated():
    with pytest.raises(PreconditionViolation):
        LaurentPoly(("x",), {(F(3, 2),): 1})          # was silently x
    with pytest.raises(PreconditionViolation):
        LaurentPoly(VS, {(0, 0): 1, (-0.5, 2): 3})
    assert LaurentPoly(("x",), {(F(4, 2),): 1}).terms == {(2,): 1}


def test_str_coefficients_are_read_as_rationals_before_zeros_are_dropped():
    p = LaurentPoly(("y",), {(1,): "1/2", (2,): "0", (3,): "-3"})
    assert p.terms == {(1,): F(1, 2), (3,): F(-3)}
    assert all(type(c) is F for c in p.terms.values())
    assert LaurentPoly(("y",), {(0,): "0"}).is_zero()


def test_multiplicative_identity():
    y1, y2 = gens()
    f = 2 + y1 - 3 * y2
    assert f * LaurentPoly.one(VS) == f


def test_group_ring_inverse():
    y1, _ = gens()
    assert y1 * y1 ** -1 == LaurentPoly.one(VS)


def test_variable_mismatch_raises():
    y1, _ = gens()
    other = LaurentPoly.variable("z", ("z",))
    with pytest.raises(VariableMismatch):
        y1 * other


def test_mul_commutative_associative_random():
    rng = random.Random(5)
    for _ in range(50):
        f = _random_laurent(rng)
        g = _random_laurent(rng)
        h = _random_laurent(rng)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def _random_laurent(rng, nvars=2, span=3):
    vs = tuple("y%d" % i for i in range(1, nvars + 1))
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[e] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    return LaurentPoly(vs, terms)


# ------------------------------------------------------------------ clearing

def test_clear_to_vertex_clifford():
    y1, y2 = gens()
    f = y1 + y2 - (y1 * y2) ** -1
    assert clear_to_vertex(f, (-1, -1)) == y1 ** 2 * y2 + y1 * y2 ** 2 - 1


def test_clear_at_origin_when_vertex():
    y1, y2 = gens()
    f = 1 + y1 + y2
    assert clear_to_vertex(f, (0, 0)) == f


def test_clear_single_monomial():
    y = LaurentPoly.variable("y", ("y",))
    assert clear_to_vertex(y ** 3, (3,)) == LaurentPoly.one(("y",))


def test_clear_rejects_non_vertex():
    y1, y2 = gens()
    f = 1 + y1 + y1 ** 2 + y2
    # (1, 0) lies on the segment between (0,0) and (2,0)
    with pytest.raises(NotAVertex):
        clear_to_vertex(f, (1, 0))


def test_clear_rejects_non_integer_vertex_instead_of_truncating():
    y1, y2 = gens()
    f = 1 + y1 + y2
    # int() would truncate each of these to the vertex (0, 0)
    for v in ((F(1, 2), 0), (F(1, 3), F(1, 2)), (0.5, 0)):
        with pytest.raises(PreconditionViolation):
            clear_to_vertex(f, v)
        with pytest.raises(PreconditionViolation):
            clear_to_vertex_fitted(f, v)
    assert clear_to_vertex(f, (F(0), F(2, 2) - 1)) == f


def test_shift_rejects_non_integer_exponent_instead_of_truncating():
    y1, y2 = gens()
    f = 1 + y1 + y2
    # int() would truncate these to (0, 0) and (1, 0)
    for delta in ((F(1, 2), 0), (F(3, 2), 0), (0, -0.5)):
        with pytest.raises(PreconditionViolation):
            f.shift(delta)
    assert f.shift((F(4, 2), 0)) == y1 ** 2 * f
    assert f.shift([-1, F(2, 2)]) == y1 ** -1 * y2 * f


def test_clear_rejects_edge_midpoint_and_facet_interior_point():
    y1, y2 = gens()
    f = 1 + y1 ** 2 * y2 ** 2 + y1 * y2 + y1 ** 2 - y1
    for v in ((1, 1), (1, 0)):          # midpoints of the edges from (0, 0)
        with pytest.raises(NotAVertex):
            clear_to_vertex(f, v)
    assert clear_to_vertex(f, (2, 2)) == f * (y1 * y2) ** -2
    x1, x2, x3 = LaurentPoly.gens(("x1", "x2", "x3"))
    g = 1 + x1 ** 3 + x2 ** 3 + x3 ** 3 + x1 * x2 * x3   # (1, 1, 1) is inside a facet
    with pytest.raises(NotAVertex):
        clear_to_vertex(g, (1, 1, 1))
    assert clear_to_vertex(g, (0, 0, 3)) == g * x3 ** -3


def test_clear_to_vertex_agrees_with_lp_oracle():
    from hull_oracles import lp_vertex_indices
    rng = random.Random(23)
    for trial in range(40):
        nvars = 2 + trial % 2
        vs = tuple("y%d" % i for i in range(1, nvars + 1))
        terms = {tuple(rng.randint(-2, 2) for _ in range(nvars)): 1
                 for _ in range(rng.randint(1, 8))}
        if trial % 5 == 0:      # support on a line
            terms = {tuple(e[0] * (i + 1) for i in range(nvars)): 1 for e in terms}
        f = LaurentPoly(vs, terms)
        support = list(f.terms)
        vertices = set(lp_vertex_indices(support))
        for i, e in enumerate(support):
            if i in vertices:
                assert clear_to_vertex(f, e) == f.shift(tuple(-x for x in e))
            else:
                with pytest.raises(NotAVertex):
                    clear_to_vertex(f, e)


def test_cleared_output_properties_random():
    from augvar.rings import is_zero
    rng = random.Random(17)
    for _ in range(40):
        f = _random_laurent(rng)
        verts = _hull_vertices(f)
        v = rng.choice(verts)
        g, M = clear_to_vertex_fitted(f, v)
        assert not is_zero(g.constant_term())
        assert all(x >= 0 for e in g.terms for x in e)


def _fit_cases(rng):
    """Seeded Laurent polynomials in 2 to 4 variables: full-dimensional
    supports, supports on a line and supports in a plane."""
    for trial in range(90):
        nvars = 2 + trial % 3
        vs = tuple("y%d" % i for i in range(1, nvars + 1))
        rank = min(nvars, (nvars, 1, 2)[trial // 3 % 3])
        dirs = [[rng.randint(-2, 2) for _ in range(nvars)] for _ in range(rank)]
        shift = [rng.randint(-2, 2) for _ in range(nvars)]
        terms = {}
        for _ in range(rng.randint(rank + 1, 9)):
            coefs = [rng.randint(-2, 2) for _ in dirs]
            e = tuple(s + sum(c * d[j] for c, d in zip(coefs, dirs))
                      for j, s in enumerate(shift))
            terms[e] = rng.choice([-3, -2, -1, 1, 2, 3])
        yield LaurentPoly(vs, terms)


def test_fitted_clearing_at_every_vertex_random():
    from augvar.intlin import is_unimodular
    from augvar.polytope import newton_polytope
    from hull_oracles import fraction_strict_dual_vector
    rng = random.Random(2741)
    fitted = low = 0
    for f in _fit_cases(rng):
        P = newton_polytope(f)
        low += P.affine_dim < len(f.variables)
        items = list(f.terms.items())
        for v in P.vertices:
            g, M = clear_to_vertex_fitted(f, v)
            assert g.constant_term() != 0
            assert all(x >= 0 for e in g.terms for x in e), (f, v)
            assert is_unimodular(M)
            assert g == clear_to_vertex(f, v).substitute_monomial(M)
            rng.shuffle(items)
            assert clear_to_vertex_fitted(LaurentPoly(f.variables, dict(items)), v)[1] == M
            cone = [tuple(a - b for a, b in zip(e, v)) for e in f.terms if e != v]
            if cone:
                assert fraction_strict_dual_vector(cone) is not None
            if M != [[int(i == j) for j in range(len(v))] for i in range(len(v))]:
                fitted += 1
                assert tuple(M[0]) == P.vertex_dual_vector(v)
    assert fitted > 100 and low > 20


def test_fitted_clearing_checks_the_dual_vector(monkeypatch):
    # a facet normal that points the wrong way gives a dual vector that is
    # negative on a vertex of that facet, which raises, also under python -O
    from augvar import intlin
    hull = intlin._hull

    def corrupted(points):
        vertices, facets, simplices = hull(points)
        (n, c, eq), *rest = facets
        return vertices, [(tuple(-x for x in n), -c, eq)] + rest, simplices

    y1, y2 = gens()
    # every vertex of the triangle (0, 0), (1, -1), (2, 1) has a cone of
    # mixed signs; its first facet, by normal, is the edge x + y >= 0
    f = 1 + y1 * y2 ** -1 + y1 ** 2 * y2
    for v in ((0, 0), (1, -1), (2, 1)):
        assert clear_to_vertex_fitted(f, v)[1] != [[1, 0], [0, 1]]
    monkeypatch.setattr(intlin, "_hull", corrupted)
    for v in ((0, 0), (1, -1)):
        with pytest.raises(VerificationFailure):
            clear_to_vertex_fitted(f, v)
    clear_to_vertex_fitted(f, (2, 1))       # its facets are intact


def _hull_vertices(f):
    from augvar.polytope import newton_polytope
    return list(newton_polytope(f).vertices)


# -------------------------------------------------------------- substitution

def test_substitute_identity():
    f = _random_laurent(random.Random(3))
    n = len(f.variables)
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert f.substitute_monomial(eye) == f


def test_substitute_swap():
    y1, y2 = gens()
    f = 1 + 2 * y1 + 3 * y2 ** -1
    swap = [[0, 1], [1, 0]]
    assert f.substitute_monomial(swap) == 1 + 2 * y2 + 3 * y1 ** -1


def test_substitute_shear():
    y1, y2 = gens()
    f = 1 + y1 + y2
    M = [[1, 1], [0, 1]]
    assert f.substitute_monomial(M) == 1 + y1 + y1 * y2


def test_substitute_requires_unimodular():
    f = 1 + gens()[0]
    with pytest.raises(NotUnimodular):
        f.substitute_monomial([[2, 0], [0, 1]])


def test_substitute_round_trip_100_random():
    rng = random.Random(41)
    for trial in range(100):
        f = _random_laurent(rng, nvars=3)
        M = random_unimodular(3, seed=trial)
        Minv = mat_inverse(M)
        assert f.substitute_monomial(M).substitute_monomial(Minv) == f


# --------------------------------------------------------------- restriction

def test_set_vars_zero_keeps_one_variable():
    y1, y2 = gens()
    assert (1 + y1 + y2).set_vars_zero("y2") == UniPoly([1, 1])


def test_set_vars_zero_constant():
    f = LaurentPoly.constant(5, VS)
    assert f.set_vars_zero("y2") == UniPoly([5])


def test_set_vars_zero_negative_exponent_raises():
    y1, y2 = gens()
    with pytest.raises(NegativeExponentAtZero):
        (1 + y1 ** -1 + y2).set_vars_zero("y2")


def test_set_vars_zero_quotient_coefficient_raises():
    """The restriction is a polynomial over Q: a quotient-ring coefficient
    that survives raises PreconditionViolation, and one on a dropped term
    does not matter."""
    y1, y2 = gens()
    t = QuotientRingElem.generator(UniPoly([-2, 0, 1]))
    with pytest.raises(PreconditionViolation):
        (LaurentPoly.constant(1 + t, VS) + y2).set_vars_zero("y2")
    assert (1 + y2 + y1 * t).set_vars_zero("y2") == UniPoly([1, 1])


def test_set_var_zero_single():
    y1, y2 = gens()
    f = 1 + y1 * y2 + y2 ** 2 + y1
    g = f.set_var_zero("y2")
    assert g.variables == ("y1",)
    assert g == 1 + LaurentPoly.variable("y1", ("y1",))


# ---------------------------------------------------------------- evaluation

def test_evaluate_series_point_on_variety():
    y1, y2 = gens()
    f = 1 + y1 - y2
    order = 8
    mu = TruncatedSeries.variable("mu", ("mu",), order)
    value = f.evaluate({"y1": mu, "y2": 1 + mu})
    assert value.is_zero()


def test_evaluate_rational_point():
    y1, y2 = gens()
    assert (1 + y1 + y2).evaluate({"y1": F(-2), "y2": F(1)}) == 0


def test_evaluate_all_ones_gives_coefficient_sum():
    rng = random.Random(13)
    for _ in range(20):
        f = _random_laurent(rng)
        total = sum(f.terms.values())
        assert f.evaluate({v: F(1) for v in f.variables}) == total


def test_evaluate_zero_at_negative_exponent_raises():
    y1, y2 = gens()
    with pytest.raises(NotInvertibleAtPoint):
        (y1 ** -1 + y2).evaluate({"y1": F(0), "y2": F(1)})


def test_evaluate_series_point_with_negative_exponent():
    # the diagonal y1 = y2 kills the factor (1 - y1/y2) of the relation
    y1, y2 = LaurentPoly.gens(VS)
    f = 1 - y1 ** 2 + y1 * y2 - y1 * y2 ** -1
    mu = TruncatedSeries.variable("mu", ("mu",), 7)
    assert f.evaluate({"y1": 1 + mu, "y2": 1 + mu}).is_zero()


def test_evaluate_quotient_field_point():
    y1, y2 = gens()
    t = QuotientRingElem.generator(UniPoly([-2, 0, 1]))
    # 2 - y1^2 vanishes at y1 = t
    f = 2 - y1 ** 2
    assert f.evaluate({"y1": t, "y2": t}) == 0


# ----------------------------------------------------------------- calculus

def test_partial_derivative_basic():
    y1, y2 = gens()
    assert (1 + y1 + y2).partial_derivative("y2") == LaurentPoly.one(VS)
    assert (y1 * y2).partial_derivative("y1") == y2


def test_partial_derivative_laurent_rule():
    y = LaurentPoly.variable("y", ("y",))
    assert (y ** -1).partial_derivative("y") == -(y ** -2)


def test_leibniz_rule_random():
    rng = random.Random(19)
    for _ in range(40):
        f = _random_laurent(rng)
        g = _random_laurent(rng)
        for v in VS:
            lhs = (f * g).partial_derivative(v)
            rhs = f.partial_derivative(v) * g + f * g.partial_derivative(v)
            assert lhs == rhs


# ------------------------------------------------------------- serialization

def _to_json(f):
    """The JSON text of f's object, which reports carry (``to_obj``)."""
    return json.dumps(f.to_obj(), sort_keys=True)


def _from_json(text):
    return LaurentPoly.from_obj(json.loads(text))


def test_json_round_trip_rational():
    rng = random.Random(37)
    for _ in range(25):
        f = _random_laurent(rng)
        assert _from_json(_to_json(f)) == f


@pytest.mark.parametrize("coefs", [("1", "0"), ("1", "1"), ("2", "-2"), ("1", "3")])
def test_from_obj_rejects_a_repeated_exponent(coefs):
    obj = {"vars": ["y1", "y2"],
           "terms": [{"exp": [0, 0], "coef": coefs[0]},
                     {"exp": [1, 0], "coef": "1"},
                     {"exp": [0, 0], "coef": coefs[1]}]}
    with pytest.raises(PreconditionViolation, match=r"exponent \[0, 0\] is listed twice"):
        LaurentPoly.from_obj(obj)
    with pytest.raises(PreconditionViolation):
        _from_json(json.dumps(obj))


def test_json_round_trip_quotient_coefficients():
    m = UniPoly([-2, 0, 1])
    t = QuotientRingElem.generator(m)
    f = LaurentPoly(VS, {(1, 0): t, (0, -2): t * t - 1, (0, 0): t + F(1, 3)})
    g = _from_json(_to_json(f))
    assert g == f


T = UniPoly.gen()


@pytest.mark.parametrize("c, obj", [
    (QuotientRingElem(UniPoly([F(1, 3), -1]), UniPoly([-2, 0, 1])),
     {"residue": ["1/3", "-1"], "modulus": ["-2", "0", "1"]}),
    (QuotientRingElem(F(5, 2), T), {"residue": ["5/2"], "order": 1}),
    (QuotientRingElem(UniPoly([0, -1]), T ** 2), {"residue": ["0", "-1"], "order": 2}),
    (QuotientRingElem(UniPoly([1, 0, F(2, 3), 7]), T ** 4),
     {"residue": ["1", "0", "2/3", "7"], "order": 4}),
], ids=["squarefree", "t^1", "t^2", "t^4"])
def test_quotient_coefficient_json_round_trip(c, obj):
    assert coeff_to_obj(c) == obj
    assert coeff_from_obj(obj) == c
    f = LaurentPoly(VS, {(1, 0): c, (0, -2): c * c + 1})
    text = _to_json(f)
    assert _from_json(text) == f
    assert _to_json(_from_json(text)) == text


def test_power_of_t_coefficient_with_trailing_zeros():
    c = coeff_from_obj({"residue": ["1", "2", "0", "0"], "order": 4})
    assert c == QuotientRingElem(UniPoly([1, 2]), T ** 4)
    assert coeff_to_obj(c) == {"residue": ["1", "2"], "order": 4}
    f = LaurentPoly(VS, {(0, 1): c})
    assert _from_json(_to_json(f)) == f


@pytest.mark.parametrize("obj", [{"residue": ["1"], "modulus": ["1", "2", "1"]},
                                 {"order": 0}, {"residue": ["1"], "order": 0}])
def test_bad_quotient_coefficient_rejected(obj):
    with pytest.raises(ValueError):
        coeff_from_obj(obj)


def test_json_deterministic_output():
    y1, y2 = gens()
    f = y2 + y1 + 1 - y1 * y2
    assert _to_json(f) == _to_json(f)
    # graded-lex term order in the serialized form
    obj = f.to_obj()
    assert [t["exp"] for t in obj["terms"]] == [[0, 0], [1, 0], [0, 1], [1, 1]]
