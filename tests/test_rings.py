"""Tests for the exact coefficient rings and truncated series."""

import operator
import random
from fractions import Fraction

import pytest

from augvar.errors import (
    BackendMismatch,
    ConstantTermNotOne,
    NonzeroConstantTerm,
    NotInvertible,
    ZeroPolynomial,
)
from augvar import rings
from augvar.laurent import LaurentPoly, coeff_to_obj
from augvar.rings import (
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    is_squarefree,
    rational_roots,
    series_exp,
    series_log,
    squarefree_part,
    uni_gcd,
)

from series_oracles import euclid_inverse

F = Fraction
T = UniPoly.gen()


# --------------------------------------------------------------------------
# independent series oracle: naive dict arithmetic, no TruncatedSeries code
# --------------------------------------------------------------------------

def d_mul(a, b, order):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) > order:
                continue
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def d_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def d_scale(a, c):
    return {e: v * c for e, v in a.items() if v * c != 0}


def oracle_exp(s, nvars, order):
    """sum s^j / j! by direct summation."""
    one = {(0,) * nvars: F(1)}
    out = dict(one)
    power = dict(one)
    fact = 1
    for j in range(1, order + 1):
        power = d_mul(power, s, order)
        fact *= j
        out = d_add(out, d_scale(power, F(1, fact)))
    return out


def oracle_log(u, nvars, order):
    """sum (-1)^(j-1) (u-1)^j / j by direct summation."""
    v = d_add(u, {(0,) * nvars: F(-1)})
    out = {}
    power = {(0,) * nvars: F(1)}
    for j in range(1, order + 1):
        power = d_mul(power, v, order)
        out = d_add(out, d_scale(power, F((-1) ** (j - 1), j)))
    return out


# --------------------------------------------------------------------------
# univariate polynomials
# --------------------------------------------------------------------------

def test_uni_gcd_euclid():
    p = UniPoly([-1, 0, 1])        # y^2 - 1
    q = UniPoly([1, -2, 1])        # y^2 - 2y + 1
    assert uni_gcd(p, q) == UniPoly([-1, 1])


def test_uni_gcd_with_zero_is_monic():
    p = UniPoly([2, 4])
    assert uni_gcd(p, UniPoly.zero()) == UniPoly([F(1, 2), 1])


def test_uni_gcd_coprime():
    assert uni_gcd(UniPoly([1, 1]), UniPoly([1, -1])) == UniPoly.one()


def test_squarefree_part_strips_squares():
    p = UniPoly([1, 1]) * UniPoly([1, 1])
    assert squarefree_part(p) == UniPoly([1, 1])


def test_squarefree_part_fixed_point():
    assert squarefree_part(UniPoly([1, 1])) == UniPoly([1, 1])


def test_squarefree_part_already_squarefree_cubic():
    p = UniPoly([0, -1, 0, 1])     # y^3 - y
    assert squarefree_part(p) == p


def test_squarefree_part_zero_raises():
    with pytest.raises(ZeroPolynomial):
        squarefree_part(UniPoly.zero())


def test_squarefree_part_divides_and_is_squarefree():
    rng = random.Random(11)
    for _ in range(50):
        roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        mults = [rng.randint(1, 3) for _ in roots]
        p = UniPoly.one()
        for r, m in zip(roots, mults):
            p = p * UniPoly([-r, 1]) ** m
        s = squarefree_part(p)
        assert (p % s).is_zero()
        assert is_squarefree(s)


def test_rational_roots_ordering():
    # roots 2, -1/2, -3; smallest absolute value first, positive preferred
    p = UniPoly([-2, 1]) * UniPoly([1, 2]) * UniPoly([3, 1])
    assert rational_roots(p) == [F(-1, 2), F(2), F(-3)]


# --------------------------------------------------------------------------
# quotient fields
# --------------------------------------------------------------------------

def test_quotient_invert_generator():
    t = QuotientRingElem.generator(UniPoly([-2, 0, 1]))   # t^2 = 2
    tinv = t.invert()
    assert tinv == QuotientRingElem(UniPoly([0, F(1, 2)]), UniPoly([-2, 0, 1]))
    assert t * tinv == 1


def test_quotient_invert_one():
    one = QuotientRingElem(UniPoly.one(), UniPoly([-2, 0, 1]))
    assert one.invert() == one


def test_quotient_invert_one_plus_t():
    m = UniPoly([-2, 0, 1])
    t = QuotientRingElem.generator(m)
    inv = (1 + t).invert()
    assert inv == t - 1
    assert (1 + t) * (t - 1) == 1


def test_quotient_invert_reducible_modulus_detected():
    m = UniPoly([-1, 0, 1])        # t^2 - 1, squarefree but reducible
    x = QuotientRingElem(UniPoly([-1, 1]), m)
    with pytest.raises(NotInvertible):
        x.invert()


def test_quotient_modulus_must_be_squarefree():
    with pytest.raises(ValueError):
        QuotientRingElem(UniPoly.one(), UniPoly([1, 2, 1]))


def test_quotient_arithmetic_checks_the_modulus_only_once(monkeypatch):
    m = UniPoly([-2, 1, 0, 1])
    t = QuotientRingElem.generator(m)
    calls = []
    real = rings.is_squarefree
    monkeypatch.setattr(rings, "is_squarefree", lambda p: calls.append(p) or real(p))
    x = (t + 1) * (t - F(1, 2)) - 3 * t ** 2 + F(2, 3) + t ** 4
    y = -x / (t + 2)
    assert calls == []
    assert x.residue == UniPoly([F(1, 6), F(5, 2), -3])
    assert y.residue == UniPoly([F(-107, 72), F(7, 36), F(101, 72)])
    QuotientRingElem(UniPoly.one(), m)
    assert calls == [m]


# --------------------------------------------------------------------------
# nilpotent ring
# --------------------------------------------------------------------------

def _nilpotency_order(x, bound):
    """Smallest d <= bound with x^d = 0, or None."""
    return next((d for d in range(1, bound + 1) if (x ** d).is_zero()), None)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_alpha_nilpotency_order(m):
    a = QuotientRingElem.generator(T ** m)
    assert (a ** m).is_zero()
    if m > 1:
        assert not (a ** (m - 1)).is_zero()
    assert _nilpotency_order(a, m) == (m if m > 1 else 1)


def test_nilpotent_unit_inverse():
    u = 1 + QuotientRingElem.generator(T ** 4) * F(3)
    assert u * u.invert() == 1


def test_nilpotent_inverse_matches_euclid():
    """The fraction-free inverse mod t^d equals the half-extended
    Euclid's on seeded elements for d = 1..12, negative and large constant
    terms included, and u u^-1 = 1; a zero constant term is not
    invertible either way."""
    rng = random.Random(4900)
    dens = [1, 2, 3, 7, 10 ** 20 + 39]
    for d in range(1, 13):
        m = T ** d
        for _ in range(8):
            cs = [F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(rng.randint(1, d + 2))]
            cs[0] = cs[0] or F(rng.choice([-10 ** 30 - 7, -2, 5]), rng.choice(dens))
            u = QuotientRingElem(UniPoly(cs), m)
            inv = u.invert()
            assert inv == euclid_inverse(u)
            assert u * inv == 1
            z = u - cs[0]
            for invert in (QuotientRingElem.invert, euclid_inverse):
                with pytest.raises(NotInvertible):
                    invert(z)


def test_nilpotent_alpha_not_invertible():
    with pytest.raises(NotInvertible):
        QuotientRingElem.generator(T ** 3).invert()


def test_power_of_t_modulus_skips_the_squarefree_check(monkeypatch):
    calls = []
    real = rings.is_squarefree
    monkeypatch.setattr(rings, "is_squarefree", lambda p: calls.append(p) or real(p))
    a = QuotientRingElem.generator(UniPoly([0, 0, 0, 2]))      # 2 t^3, made monic
    assert a.modulus == T ** 3
    assert QuotientRingElem.generator(T).is_zero()
    assert calls == []


@pytest.mark.parametrize("modulus", [UniPoly([0, 0, -1, 1]), UniPoly([3])],
                         ids=["t^2(t-1)", "constant"])
def test_modulus_neither_squarefree_nor_power_of_t_rejected(modulus):
    with pytest.raises(ValueError):
        QuotientRingElem(UniPoly.one(), modulus)


def test_reduction_by_power_of_t_truncates():
    x = QuotientRingElem(UniPoly([1, 2, 3, 4, 5]), T ** 3)
    assert x.residue == UniPoly([1, 2, 3])
    assert (x * x).residue == UniPoly([1, 4, 10])


def test_nilpotent_inverse_exists_exactly_for_nonzero_constant_term():
    rng = random.Random(47)
    for _ in range(40):
        cs = [F(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in range(4)]
        x = QuotientRingElem(UniPoly(cs), T ** 4)
        if cs[0] == 0:
            with pytest.raises(NotInvertible):
                x.invert()
            continue
        inv = x.invert()
        assert x * inv == 1
        # the geometric series c^-1 sum_j (-n/c)^j, with n = x - c nilpotent
        n = (x - cs[0]) * (1 / cs[0])
        assert inv == sum(((-n) ** j for j in range(4)), QuotientRingElem(0, T ** 4)) \
            * (1 / cs[0])


def test_quotient_element_prints_in_t():
    assert str(-QuotientRingElem.generator(T ** 2)) == "(-t mod t^2)"
    assert str(QuotientRingElem.generator(UniPoly([-2, 0, 1])) + F(1, 2)) == "(1/2 + t mod -2 + t^2)"


def test_backend_mixing_rejected():
    t = QuotientRingElem.generator(UniPoly([-2, 0, 1]))
    a = QuotientRingElem.generator(T ** 2)
    with pytest.raises(BackendMismatch):
        t + a
    with pytest.raises(BackendMismatch):
        a * t
    with pytest.raises(BackendMismatch):
        QuotientRingElem.generator(T ** 2) + QuotientRingElem.generator(T ** 3)


def test_elements_over_different_moduli_are_unequal_not_mismatched():
    one2, one3 = QuotientRingElem(1, T ** 2), QuotientRingElem(1, T ** 3)
    assert {one2: "x"}.get(one3) is None
    assert one3 not in {one2}
    assert one2 != one3 and not one2 == one3
    assert QuotientRingElem.generator(T ** 2) != QuotientRingElem.generator(UniPoly([-2, 0, 1]))
    # both still equal the rational they hash like
    assert one2 == 1 == one3 and {1: "x"}.get(one3) == "x"
    # series over different moduli compare unequal too
    s2 = TruncatedSeries.constant(one2, ("a",), 2)
    s3 = TruncatedSeries.constant(one3, ("a",), 2)
    assert s2 != s3
    with pytest.raises(BackendMismatch):
        one2 - one3
    with pytest.raises(BackendMismatch):
        s2 + s3


def test_series_constructor_rejects_mixed_moduli():
    a = QuotientRingElem.generator(UniPoly([-2, 0, 1]))
    b = QuotientRingElem.generator(UniPoly([-3, 0, 1]))
    with pytest.raises(BackendMismatch):
        TruncatedSeries(("x",), 4, {(1,): a, (2,): b})
    with pytest.raises(BackendMismatch):
        TruncatedSeries(("x",), 4, {(0,): F(1, 2), (1,): a, (3,): b * 0})
    # one modulus, built as separate equal moduli, and rationals beside it
    c = QuotientRingElem.generator(UniPoly([-2, 0, 1]))
    s = TruncatedSeries(("x",), 4, {(0,): 1, (1,): a, (2,): c})
    assert s.terms == {(0,): 1, (1,): a, (2,): a}
    assert s + s == s.scale(2)


RATIONAL_MODULUS = UniPoly([F(-1, 3), F(1, 2), 1])       # t^2 + t/2 - 1/3


def _constants_of_every_form():
    """(value, its rational) pairs: built directly, and rebuilt from the
    integer form by a quotient-ring product and by the series kernel."""
    out = []
    for m in (T ** 2, UniPoly([-2, 0, 1]), RATIONAL_MODULUS):
        t = QuotientRingElem.generator(m)
        x = 3 + t
        out.append((QuotientRingElem(1, m), F(1)))
        out.append((QuotientRingElem(F(3, 2), m), F(3, 2)))
        out.append((x * x.invert(), F(1)))
        u = TruncatedSeries(("mu",), 3, {(0,): x, (1,): t})
        out.append(((u * u.invert()).constant_term(), F(1)))
        out.append(((u * u).constant_term() - x * x + F(-7, 5), F(-7, 5)))
    out += [(UniPoly([1]), F(1)), (UniPoly([F(-5, 3)]), F(-5, 3)), (UniPoly(), F(0))]
    return out


@pytest.mark.parametrize("index", range(18))
def test_constants_hash_like_their_rational(index):
    x, c = _constants_of_every_form()[index]
    assert x == c
    assert hash(x) == hash(c) == hash(F(c))
    assert x in {c}
    assert {c: "v"}.get(x) == "v"
    if c.denominator == 1:
        assert x in {int(c)}
        assert {int(c): "v"}.get(x) == "v"


def test_equal_elements_hash_alike_across_the_integer_form():
    m = RATIONAL_MODULUS
    t = QuotientRingElem.generator(m)
    a = (t + F(2, 7)) * (t - 5)
    b = QuotientRingElem(UniPoly([F(2, 7), 1]) * UniPoly([-5, 1]), m)
    assert a == b and hash(a) == hash(b) == hash(a.residue)
    assert len({a, b}) == 1


@pytest.mark.parametrize("modulus", [T ** 3, UniPoly([-2, 0, 1]), RATIONAL_MODULUS],
                         ids=["t^3", "t^2-2", "t^2+t/2-1/3"])
def test_scalar_product_matches_ring_product(modulus):
    x = QuotientRingElem(UniPoly([F(1, 3), -2, F(5, 7)]), modulus)
    for c in (0, 1, -3, 10 ** 25, F(2, 9), F(-7, 10 ** 20 + 39)):
        expected = x * QuotientRingElem(c, modulus)
        assert x * c == expected
        assert c * x == expected
        assert (x * c).residue.coeffs == expected.residue.coeffs


def test_rational_modulus_reduction_is_exact():
    m = RATIONAL_MODULUS
    t = QuotientRingElem.generator(m)
    assert t * t == QuotientRingElem(UniPoly([F(1, 3), F(-1, 2)]), m)
    x = QuotientRingElem(UniPoly([1, 2, 3, 4, 5]), m)
    assert x.residue == UniPoly([1, 2, 3, 4, 5]) % m
    assert (x * x).residue == (UniPoly([1, 2, 3, 4, 5]) ** 2) % m
    assert x * x.invert() == 1


@pytest.mark.parametrize("modulus", [T ** 4, UniPoly([-2, 1, 0, 1]), RATIONAL_MODULUS,
                                     UniPoly([F(3, 10), F(-7, 4), F(5, 6), 1]),
                                     UniPoly([-1, 0, 1])],
                         ids=["t^4", "t^3+t-2", "t^2+t/2-1/3", "t^3+5t^2/6-7t/4+3/10",
                              "t^2-1"])
def test_products_match_fraction_polynomial_remainder(modulus):
    """Every operation of the integer form against the Fraction UniPoly
    remainder: zero test, products, sums, differences, scalar products,
    inverses (NotInvertible exactly when gcd(p, m) is nonconstant, as for
    t - 1 mod the reducible t^2 - 1), equality and hash."""
    rng = random.Random("products-" + str(modulus))
    pairs = [(UniPoly([-1, 1]), UniPoly([1, 1]))]          # t - 1 and t + 1
    dens = [1, 2, 3, 7, 10 ** 20 + 39]
    for _ in range(30):
        pairs.append(tuple(UniPoly([F(rng.randint(-9, 9), rng.choice(dens))
                                    for _ in range(rng.randint(0, 6))]) for _ in range(2)))
    for p, q in pairs:
        x, y = QuotientRingElem(p, modulus), QuotientRingElem(q, modulus)
        r = p % modulus
        assert x.residue == r and bool(x) == (not x.is_zero()) == (not r.is_zero())
        assert (x * y).residue == (p * q) % modulus
        assert (x + y).residue == (p + q) % modulus
        assert (x - y).residue == (p - q) % modulus
        for c in (0, -3, 10 ** 25, F(2, 9), F(-7, 10 ** 20 + 39)):
            assert (x * c).residue == (c * x).residue == (p * c) % modulus
        same = QuotientRingElem(p + q * modulus, modulus)
        assert x == same and x == r and hash(x) == hash(same) == hash(r)
        assert (x == y) == ((p - q) % modulus).is_zero()
        if uni_gcd(p, modulus).is_constant():
            assert (x.invert().residue * p) % modulus == UniPoly.one()
        else:
            with pytest.raises(NotInvertible):
                x.invert()


def test_residue_is_built_on_first_read_and_kept(monkeypatch):
    """A computed element keeps only its integer pair until ``residue`` is
    read; the view is built once, and ==, hash and coeff_to_obj read the
    same values before and after."""
    m = RATIONAL_MODULUS
    t = QuotientRingElem.generator(m)
    joins = []
    real = rings._IntModulus.join
    monkeypatch.setattr(rings._IntModulus, "join",
                        lambda self, nums, den: joins.append(den) or real(self, nums, den))
    a = (t + F(2, 7)) * (t - 5)
    b = (t - 5) * (t + F(2, 7)) + t * 0
    assert a == b and a != t and joins == []
    before = (hash(b), coeff_to_obj(b))
    joins.clear()
    view = a.residue
    assert len(joins) == 1
    assert a.residue is view and len(joins) == 1
    assert view == (UniPoly([F(2, 7), 1]) * UniPoly([-5, 1])) % m
    assert a == b and (hash(a), coeff_to_obj(a)) == before


# --------------------------------------------------------------------------
# powers
# --------------------------------------------------------------------------

def _power_bases():
    m = UniPoly([-2, 1, 0, 1])
    vs = ("mu1", "mu2")
    mu1 = TruncatedSeries.variable("mu1", vs, 9)
    mu2 = TruncatedSeries.variable("mu2", vs, 9)
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    return [
        (UniPoly([1, -2, F(1, 3)]), UniPoly.one()),
        (QuotientRingElem(UniPoly([1, F(1, 2), -1]), m),
         QuotientRingElem(UniPoly.one(), m)),
        (QuotientRingElem(UniPoly([2, 1, -1, 3]), T ** 4),
         QuotientRingElem(UniPoly.one(), T ** 4)),
        (1 + mu1 - mu2.scale(F(2, 3)) + mu1 * mu2, TruncatedSeries.one(vs, 9)),
        (2 + y1 - y2 * y1 ** -1, LaurentPoly.one(("y1", "y2"))),
    ]


@pytest.mark.parametrize("index", range(5),
                         ids=["unipoly", "quotient", "nilpotent", "series", "laurent"])
def test_power_equals_repeated_product(index):
    x, one = _power_bases()[index]
    expected = one
    for n in range(10):
        assert x ** n == expected, n
        expected = expected * x


def test_series_power_product_counts(monkeypatch):
    s = 1 + TruncatedSeries.variable("mu", ("mu",), 6)
    calls = []
    real = TruncatedSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    assert s ** 1 == s
    assert len(calls) == 0
    s ** 2
    assert len(calls) == 1
    s ** 3
    assert len(calls) == 3


# --------------------------------------------------------------------------
# truncated series
# --------------------------------------------------------------------------

def _mu(order=8):
    return TruncatedSeries.variable("mu", ("mu",), order)


def test_series_exp_of_zero():
    z = TruncatedSeries.zero(("mu",), 8)
    assert series_exp(z) == 1


def test_series_exp_matches_oracle():
    e = series_exp(_mu(3))
    assert e.terms == oracle_exp({(1,): F(1)}, 1, 3)
    assert e.terms == {(0,): 1, (1,): F(1), (2,): F(1, 2), (3,): F(1, 6)}


def test_series_exp_log_inverse_pair():
    mu = _mu(10)
    assert series_exp(series_log(1 + mu)) == 1 + mu
    assert series_log(series_exp(mu)) == mu


def test_series_log_of_one():
    one = TruncatedSeries.one(("mu",), 8)
    assert series_log(one).is_zero()


def test_series_log_matches_oracle():
    lg = series_log(1 + _mu(3))
    assert lg.terms == oracle_log({(0,): F(1), (1,): F(1)}, 1, 3)
    assert lg.terms == {(1,): F(1), (2,): F(-1, 2), (3,): F(1, 3)}


def test_series_exp_requires_zero_constant():
    with pytest.raises(NonzeroConstantTerm):
        series_exp(1 + _mu())


def test_series_log_requires_constant_one():
    with pytest.raises(ConstantTermNotOne):
        series_log(_mu())


def _random_series(rng, variables, order, zero_const=False, unit_const=False):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exp = tuple(rng.randint(0, order) for _ in variables)
        if sum(exp) > order:
            continue
        terms[exp] = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    zero = (0,) * len(variables)
    if zero_const:
        terms.pop(zero, None)
    if unit_const:
        terms[zero] = F(1)
    return TruncatedSeries(variables, order, terms)


def test_ring_axioms_random_triples():
    rng = random.Random(23)
    vs = ("mu1", "mu2")
    for _ in range(60):
        a = _random_series(rng, vs, 6)
        b = _random_series(rng, vs, 6)
        c = _random_series(rng, vs, 6)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + 0 == a
        assert a * 1 == a


def test_exp_log_round_trip_100_random():
    rng = random.Random(29)
    vs = ("mu1", "mu2")
    for _ in range(100):
        s = _random_series(rng, vs, 6, zero_const=True)
        u = _random_series(rng, vs, 6, unit_const=True)
        assert series_log(series_exp(s)) == s
        assert series_exp(series_log(u)) == u


def test_series_invert():
    rng = random.Random(31)
    for _ in range(30):
        u = _random_series(rng, ("mu",), 7, unit_const=True)
        assert u * u.invert() == 1


@pytest.mark.parametrize("modulus", [UniPoly([-2, 0, 1]), T ** 3],
                         ids=["squarefree", "power_of_t"])
def test_constant_series_equals_its_quotient_scalar(modulus):
    q = QuotientRingElem(UniPoly([1, F(1, 2)]), modulus)
    s = TruncatedSeries.constant(q, ("a",), 2)
    assert s == q
    assert q == s
    assert s != q + 1
    assert q + 1 != s
    # different variables or orders compare unequal without raising
    assert s != TruncatedSeries.constant(q, ("b",), 2)
    assert s != TruncatedSeries.constant(q, ("a",), 3)


def test_series_over_nilpotent_backend():
    a = QuotientRingElem.generator(T ** 3)
    mu = TruncatedSeries.variable("mu", ("mu",), 5)
    s = mu.scale(a)            # alpha * mu has zero constant term
    e = series_exp(s)
    assert e.constant_term() == 1
    assert series_log(e) == s


def test_sums_and_scalings_that_vanish_store_no_zero_terms():
    mu, nu = (TruncatedSeries.variable(v, ("mu", "nu"), 3) for v in ("mu", "nu"))
    s = 1 + mu + mu * nu
    diff = s + (-mu - mu * nu)
    assert diff.terms == {(0, 0): 1}
    assert (s - s).is_zero() and not (s - s).terms
    assert s.scale(0).terms == {}
    # alpha^2 = 0 in Q[alpha]/(alpha^3): scaling alpha^2 * mu + 1 by alpha
    # keeps the constant alpha and drops the vanished product
    a = QuotientRingElem.generator(T ** 3)
    u = 1 + mu.scale(a * a)
    v = u.scale(a)
    assert v.terms == {(0, 0): a}
    assert all(not c.is_zero() for c in v.terms.values())


def _constant_operands():
    return [3, F(-2, 5), QuotientRingElem(UniPoly([1, F(1, 2)]), T ** 3),
            TruncatedSeries.constant(F(7, 2), ("mu", "nu"), 3)]


@pytest.mark.parametrize("c", _constant_operands(),
                         ids=["int", "fraction", "quotient", "constant_series"])
def test_scalar_and_constant_operands_are_scaled_not_convolved(monkeypatch, c):
    mu, nu = (TruncatedSeries.variable(v, ("mu", "nu"), 3) for v in ("mu", "nu"))
    s = 1 + mu.scale(F(1, 3)) + mu * nu - nu * nu
    expected = s.scale(c.constant_term() if isinstance(c, TruncatedSeries) else c)

    def refuse(self):
        raise AssertionError("a constant operand reached the graded kernel")

    monkeypatch.setattr(TruncatedSeries, "_graded", refuse)
    assert s * c == expected
    assert c * s == expected


@pytest.mark.parametrize("c", [0.5, "2", UniPoly([1, 1]), _mu()],
                         ids=["float", "str", "unipoly", "series"])
def test_scale_rejects_non_scalars(c):
    with pytest.raises(TypeError):
        _mu().scale(c)


def test_series_over_different_moduli_do_not_mix():
    """Every quotient coefficient is compared, not only the first term of
    each operand: a leading rational coefficient hides nothing, and the
    one of another modulus is no identity."""
    a = QuotientRingElem.generator(UniPoly([-2, 0, 1]))
    b = QuotientRingElem.generator(UniPoly([-3, 0, 1]))
    s = TruncatedSeries(("x",), 4, {(0,): 1, (1,): a})
    for other in (TruncatedSeries(("x",), 4, {(2,): b}), b,
                  TruncatedSeries.constant(b, ("x",), 4), b * 0 + 1):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(BackendMismatch):
                op(s, other)
            with pytest.raises(BackendMismatch):
                op(other, s)
