"""Ring axioms and inverses of every exact backend, as hypothesis properties.

Associativity, commutativity and distributivity are checked for
``UniPoly``, ``QuotientFieldElem`` over the irreducible modulus t^3 - 2,
``NilpotentElem`` and ``TruncatedSeries`` over Q.  Each backend that
defines ``invert`` must give x * x.invert() == 1 on its units; ``UniPoly``
has none beyond the constants, so it is checked for exact division with
remainder instead.  Runs with a fixed seed and a bounded number of
examples, so the outcome and the running time do not vary between runs.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from augvar.rings import (  # noqa: E402
    NilpotentElem,
    QuotientFieldElem,
    TruncatedSeries,
    UniPoly,
)

SETTINGS = hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
MODULUS = UniPoly([-2, 0, 0, 1])            # t^3 - 2, irreducible by Eisenstein
NIL_ORDER = 4
SERIES_VARS = ("mu1", "mu2")
SERIES_ORDER = 4

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _coeffs(size):
    return st.lists(rationals, min_size=0, max_size=size)


unipolys = _coeffs(5).map(UniPoly)
quotients = _coeffs(3).map(lambda cs: QuotientFieldElem(UniPoly(cs), MODULUS))
nilpotents = _coeffs(NIL_ORDER).map(lambda cs: NilpotentElem(UniPoly(cs), NIL_ORDER))
series = st.dictionaries(
    st.tuples(st.integers(0, SERIES_ORDER), st.integers(0, SERIES_ORDER)),
    rationals, max_size=6).map(
        lambda terms: TruncatedSeries(SERIES_VARS, SERIES_ORDER, terms))

BACKENDS = {"unipoly": unipolys, "quotient": quotients, "nilpotent": nilpotents,
            "series": series}


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


@pytest.mark.parametrize("name", ["quotient", "nilpotent", "series"])
def test_units_invert(name):
    units = {
        "quotient": quotients.filter(lambda x: not x.is_zero()),
        "nilpotent": nilpotents.filter(lambda x: x.constant_part() != 0),
        "series": series.filter(lambda x: x.constant_term() != 0),
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
