"""Ring axioms and inverses of every exact backend, as hypothesis properties.

Associativity, commutativity and distributivity are checked for
``UniPoly``, ``QuotientRingElem`` over the irreducible modulus t^3 - 2,
over the irreducible modulus t^2 + t/2 - 1/3 with non-integer
coefficients and over the nilpotent modulus t^4, and ``TruncatedSeries``
with coefficients in Q, in those quotient fields and in that nilpotent
ring.  Each backend that defines
``invert`` must give x * x.invert() == 1 on its units; ``UniPoly`` has
none beyond the constants, so it is checked for exact division with
remainder instead.  ``series_exp`` and ``series_log`` must be inverse to
each other over every coefficient backend.  Runs with a fixed seed
and a bounded number of examples, so the outcome and the running time do
not vary between runs.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from augvar.rings import (  # noqa: E402
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    series_exp,
    series_log,
)

SETTINGS = hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
MODULUS = UniPoly([-2, 0, 0, 1])            # t^3 - 2, irreducible by Eisenstein
RAT_MODULUS = UniPoly([Fraction(-1, 3), Fraction(1, 2), 1])   # t^2 + t/2 - 1/3
NIL_ORDER = 4
NIL_MODULUS = UniPoly.gen() ** NIL_ORDER
SERIES_VARS = ("mu1", "mu2")
SERIES_ORDER = 4

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _coeffs(size):
    return st.lists(rationals, min_size=0, max_size=size)


unipolys = _coeffs(5).map(UniPoly)
quotients = _coeffs(3).map(lambda cs: QuotientRingElem(UniPoly(cs), MODULUS))
rat_quotients = _coeffs(3).map(lambda cs: QuotientRingElem(UniPoly(cs), RAT_MODULUS))
nilpotents = _coeffs(NIL_ORDER).map(lambda cs: QuotientRingElem(UniPoly(cs), NIL_MODULUS))


def _series_over(coeffs):
    return st.dictionaries(
        st.tuples(st.integers(0, SERIES_ORDER), st.integers(0, SERIES_ORDER)),
        coeffs, max_size=6).map(
            lambda terms: TruncatedSeries(SERIES_VARS, SERIES_ORDER, terms))


# name -> (coefficients, their units, their one)
SERIES_COEFFS = {
    "series": (rationals, rationals.filter(lambda c: c != 0), 1),
    "quotient_series": (quotients, quotients.filter(lambda c: not c.is_zero()),
                        QuotientRingElem(UniPoly.one(), MODULUS)),
    "rat_quotient_series": (rat_quotients, rat_quotients.filter(lambda c: not c.is_zero()),
                            QuotientRingElem(UniPoly.one(), RAT_MODULUS)),
    "nilpotent_series": (nilpotents, nilpotents.filter(lambda c: c.residue[0] != 0),
                         QuotientRingElem(UniPoly.one(), NIL_MODULUS)),
}
SERIES = {name: _series_over(coeffs) for name, (coeffs, _, _) in SERIES_COEFFS.items()}


def _zero_constant(name):
    return SERIES[name].map(lambda s: s - s.constant_term())


def _series_units(name):
    units = SERIES_COEFFS[name][1]
    return st.tuples(_zero_constant(name), units).map(lambda p: p[0] + p[1])


BACKENDS = {"unipoly": unipolys, "quotient": quotients, "rat_quotient": rat_quotients,
            "nilpotent": nilpotents, **SERIES}


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_ring_axioms(name):
    elems = BACKENDS[name]

    @SETTINGS
    @hypothesis.given(elems, elems, elems)
    def check(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a

    check()


@pytest.mark.parametrize("name", ["quotient", "rat_quotient", "nilpotent", "series",
                                  "quotient_series", "rat_quotient_series",
                                  "nilpotent_series"])
def test_units_invert(name):
    units = {
        "quotient": quotients.filter(lambda x: not x.is_zero()),
        "rat_quotient": rat_quotients.filter(lambda x: not x.is_zero()),
        "nilpotent": nilpotents.filter(lambda x: x.residue[0] != 0),
        **{key: _series_units(key) for key in SERIES},
    }[name]

    @SETTINGS
    @hypothesis.given(units)
    def check(x):
        assert x * x.invert() == 1
        assert x.invert() * x == 1

    check()


def test_unipoly_division_with_remainder():
    @SETTINGS
    @hypothesis.given(unipolys, unipolys.filter(lambda q: not q.is_zero()))
    def check(p, q):
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.degree < q.degree

    check()


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_exp_log_round_trip(name):
    one = SERIES_COEFFS[name][2]

    @SETTINGS
    @hypothesis.given(_zero_constant(name))
    def check(s):
        assert series_log(series_exp(s)) == s
        u = s + one
        assert series_exp(series_log(u)) == u

    check()
