"""Ostrowski's theorem as a property: the Newton polytope of a product is
the Minkowski sum of the Newton polytopes of the factors.

Runs under hypothesis with a fixed seed and a bounded number of examples,
so the outcome and the running time do not vary between runs.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from augvar.laurent import LaurentPoly  # noqa: E402
from augvar.polytope import minkowski_sum, newton_polytope  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, derandomize=True, deadline=None)


def _laurent(nvars):
    exponents = st.tuples(*[st.integers(-3, 3)] * nvars)
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
    variables = tuple("y%d" % i for i in range(1, nvars + 1))
    return st.dictionaries(exponents, coefficients, min_size=1, max_size=6).map(
        lambda terms: LaurentPoly(variables, {e: Fraction(c) for e, c in terms.items()}))


@pytest.mark.parametrize("nvars", [2, 3])
def test_newton_polytope_of_product_is_minkowski_sum(nvars):
    @SETTINGS
    @hypothesis.given(_laurent(nvars), _laurent(nvars))
    def check(f, g):
        assert newton_polytope(f * g) == minkowski_sum(newton_polytope(f),
                                                       newton_polytope(g))

    check()
