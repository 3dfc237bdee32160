"""Differential tests of the graded series kernel.

Products, inverses and logarithms of seeded random series over Q,
Q[t]/(t^3 - 2), Q[t]/(t^3) and Q[t]/(t^2 + t/2 - 1/3), a modulus with
non-integer coefficients, must equal, exactly, the naive
term-by-term product and the geometric-series inverse and power-sum
logarithm kept in ``series_oracles``.  Pinned cases cover series that mix
int and Fraction coefficients, a 30-digit denominator, quotient-ring
residues with 20-digit denominators, and rational coefficients beside
quotient-field ones in one series.
"""

import random
from fractions import Fraction

import pytest

from augvar.errors import PreconditionViolation
from augvar.rings import (
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    series_exp,
    series_log,
)

from series_oracles import geometric_invert, naive_mul, power_sum_log

F = Fraction
MODULUS = UniPoly([-2, 0, 0, 1])            # t^3 - 2, irreducible
NIL_MODULUS = UniPoly([0, 0, 0, 1])        # t^3
RAT_MODULUS = UniPoly([F(-1, 3), F(1, 2), 1])   # t^2 + t/2 - 1/3, irreducible
VS = ("mu1", "mu2")
ORDER = 5
MODULI = {"quotient": MODULUS, "nilpotent": NIL_MODULUS, "rational-modulus": RAT_MODULUS}
BACKENDS = ("rational",) + tuple(MODULI)


def _rational(rng):
    return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 12]))


def _scalar(rng, backend):
    if backend == "rational":
        return _rational(rng)
    cs = [_rational(rng) for _ in range(3)]
    return QuotientRingElem(UniPoly(cs), MODULI[backend])


def _one(backend):
    if backend == "rational":
        return F(1)
    return QuotientRingElem(UniPoly.one(), MODULI[backend])


def _series(rng, backend, constant=None):
    """A random series; ``constant`` is "unit", "one", or None for a zero
    constant term."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        a = rng.randint(0, ORDER)
        terms[(a, rng.randint(0, ORDER - a))] = _scalar(rng, backend)
    zero = (0,) * len(VS)
    terms.pop(zero, None)
    if constant == "one":
        terms[zero] = _one(backend)
    elif constant == "unit":
        c = _scalar(rng, backend)
        while c == 0 or (backend == "nilpotent" and c.residue[0] == 0):
            c = _scalar(rng, backend)
        terms[zero] = c
    return TruncatedSeries(VS, ORDER, terms)


@pytest.mark.parametrize("backend", BACKENDS)
def test_product_matches_naive_product(backend):
    rng = random.Random("kernel-mul-" + backend)
    for _ in range(12):
        a = _series(rng, backend, rng.choice([None, "unit"]))
        b = _series(rng, backend, rng.choice([None, "unit"]))
        assert (a * b).terms == naive_mul(a, b).terms


@pytest.mark.parametrize("backend", BACKENDS)
def test_invert_matches_geometric_series(backend):
    rng = random.Random("kernel-invert-" + backend)
    for _ in range(8):
        f = _series(rng, backend, "unit")
        assert f.invert().terms == geometric_invert(f).terms


@pytest.mark.parametrize("backend", BACKENDS)
def test_log_matches_power_sum(backend):
    rng = random.Random("kernel-log-" + backend)
    for _ in range(8):
        u = _series(rng, backend, "one")
        assert series_log(u).terms == power_sum_log(u).terms


def _mixed(order=6):
    """TruncatedSeries.one plus rationals, and one more int coefficient;
    one denominator has 30 digits."""
    big = 10 ** 29 + 37
    rationals = TruncatedSeries(VS, order, {(1, 0): F(3, big), (0, 1): F(-2, 7),
                                            (2, 1): F(5, 4)})
    u = TruncatedSeries.one(VS, order) + rationals
    return TruncatedSeries(VS, order, {**u.terms, (1, 1): -2})


def test_mixed_int_and_fraction_coefficients():
    u = _mixed()
    assert type(u.terms[(0, 0)]) is int and type(u.terms[(1, 1)]) is int
    assert (u * u).terms == naive_mul(u, u).terms
    assert (u * u) == u ** 2
    assert u.invert().terms == geometric_invert(u).terms
    assert u * u.invert() == 1
    assert series_log(u).terms == power_sum_log(u).terms
    assert series_exp(series_log(u)) == u
    s = u - 1
    assert series_log(series_exp(s)) == s
    assert (u.invert() * s).terms == naive_mul(geometric_invert(u), s).terms


def test_rational_and_quotient_coefficients_in_one_series():
    t = QuotientRingElem.generator(MODULUS)
    u = TruncatedSeries(VS, 4, {(0, 0): 1, (1, 0): t, (0, 1): F(1, 3), (1, 1): t * F(2, 5)})
    assert (u * u).terms == naive_mul(u, u).terms
    assert u.invert().terms == geometric_invert(u).terms
    assert u * u.invert() == 1
    assert series_log(u).terms == power_sum_log(u).terms
    assert series_exp(series_log(u)) == u


def test_non_integer_exponents_are_rejected_not_truncated():
    with pytest.raises(PreconditionViolation):
        TruncatedSeries(VS, 4, {(F(3, 2), 0): 1})
    with pytest.raises(PreconditionViolation):
        TruncatedSeries(VS, 4, {(0, 0.5): 1})
    assert TruncatedSeries(VS, 4, {(F(2, 2), 0): 1}).terms == {(1, 0): 1}


@pytest.mark.parametrize("modulus", [MODULUS, NIL_MODULUS, RAT_MODULUS],
                         ids=["t^3-2", "t^3", "t^2+t/2-1/3"])
def test_quotient_residues_with_20_digit_denominators(modulus):
    p, q = 10 ** 19 + 51, 10 ** 19 + 63
    x = QuotientRingElem(UniPoly([F(1, p), F(-3, q), F(p, q)]), modulus)
    y = QuotientRingElem(UniPoly([1, F(q, 7 * p)]), modulus)
    u = TruncatedSeries(VS, 5, {(0, 0): y, (1, 0): x, (0, 1): x * x, (1, 1): F(2, p)})
    assert (u * u).terms == naive_mul(u, u).terms
    assert u.invert().terms == geometric_invert(u).terms
    assert u * u.invert() == 1
    w = u.scale(y.invert())
    assert series_log(w).terms == power_sum_log(w).terms
    assert series_exp(series_log(w)) == w
