"""Differential tests of the graded series kernel.

Products, inverses and logarithms of seeded random series over Q,
Q[t]/(t^3 - 2), Q[t]/(t^3) and Q[t]/(t^2 + t/2 - 1/3), a modulus with
non-integer coefficients, must equal, exactly, the naive
term-by-term product and the geometric-series inverse and power-sum
logarithm kept in ``series_oracles``, also for monomial, sparse and
gapped operands, whose products pair nonzero degree parts only.  Seeded
chains of sums, negations, scalings, products, inverses, exponentials,
logarithms and order changes on the stored degree parts must end at the
series the term-by-term oracles reach, and ``==`` on their parts must
agree with ``==`` on their ``terms``.  Laurent polynomials evaluated at
series values must give the parts and terms of the term-by-term sum of
``series_oracles``.  Pinned cases cover series that mix int and Fraction
coefficients, a 30-digit denominator, quotient-ring residues with
20-digit denominators, and rational coefficients beside quotient-field
ones in one series.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from augvar import rings
from augvar.errors import BackendMismatch, PreconditionViolation, VariableMismatch
from augvar.laurent import LaurentPoly
from augvar.rings import (
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    invert_scalar,
    series_exp,
    series_log,
)

from series_oracles import (
    geometric_invert,
    naive_add,
    naive_mul,
    naive_neg,
    naive_scale,
    power_sum_exp,
    power_sum_log,
    term_sum_evaluate,
)

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


SPARSE_MODULI = {"rational": None, "nilpotent-t3": NIL_MODULUS,
                 "quotient-t2-2": UniPoly([-2, 0, 1])}


def _sparse_operands(rng, modulus, order):
    """Pairs of series in three variables at ``order``: monomials, a few
    scattered terms, and operands whose nonzero degree parts have empty
    parts between them (gapped), with and without a unit constant term."""
    vs = ("x", "y", "z")

    def scalar():
        c = F(rng.choice([-7, -2, -1, 1, 3, 5]), rng.choice([1, 2, 9]))
        if modulus is None:
            return c
        return QuotientRingElem(UniPoly([c, _rational(rng), _rational(rng)]), modulus)

    def term(degree):
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        return (a, b, degree - a - b)

    def series(degrees, constant=False):
        terms = {term(d): scalar() for d in degrees}
        if constant:
            terms[(0, 0, 0)] = F(rng.choice([1, -2, 3]))
        return TruncatedSeries(vs, order, terms)

    out = []
    for _ in range(6):
        out.append((series([rng.randint(1, order)]), series([rng.randint(1, order)])))
        out.append((series([rng.randint(1, order)]),
                    series(rng.sample(range(1, order + 1), 3), constant=True)))
        gaps = [1, order // 2, order]                       # empty parts between
        out.append((series(gaps + [gaps[1]], constant=rng.random() < 0.5),
                    series([2, order - 1], constant=rng.random() < 0.5)))
        out.append((series([rng.randint(1, order) for _ in range(4)]),
                    series([rng.randint(1, order) for _ in range(4)], constant=True)))
    return out


@pytest.mark.parametrize("backend", sorted(SPARSE_MODULI))
def test_product_of_sparse_and_gapped_operands(backend, monkeypatch):
    """Monomial, sparse and gapped operands over Q, Q[t]/(t^3) and
    Q[t]/(t^2 - 2): the product equals the term-by-term one, and the
    kernel runs once per output degree that some pair of nonzero parts
    reaches, and for no other."""
    calls = []
    real = rings._convolve

    def counting(pairs, divisor=1):
        calls.append(len(pairs))
        return real(pairs, divisor)

    monkeypatch.setattr(rings, "_convolve", counting)
    rng = random.Random("kernel-sparse-" + backend)
    for order in (4, 9):
        for a, b in _sparse_operands(rng, SPARSE_MODULI[backend], order):
            for x, y in ((a, b), (b, a)):
                calls.clear()
                got = x * y
                assert got.terms == naive_mul(x, y).terms
                if x.is_constant() or y.is_constant():
                    assert calls == []
                    continue
                da = [i for i, (items, _) in enumerate(x._parts) if items]
                db = [j for j, (items, _) in enumerate(y._parts) if items]
                reached = {i + j for i in da for j in db if i + j <= order}
                assert len(calls) == len(reached)
                assert sum(calls) == sum(1 for i in da for j in db if i + j <= order)


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


# --------------------------------------------------------------------------
# the quotient-ring vector path and the square pairing
# --------------------------------------------------------------------------

VECTOR_MODULI = {"t^%d" % d: UniPoly([0] * d + [1]) for d in range(1, 6)}
VECTOR_MODULI.update({"t^2-2": UniPoly([-2, 0, 1]), "t^3-2": MODULUS,
                      "t^2+t/2-1/3": RAT_MODULUS})


def _cancelling_series(rng, modulus, constant=None, order=4):
    """A series whose coefficients are small ints, halves and quotient-ring
    elements with residue entries in {-1, 0, 1}, so products often cancel,
    and whose degree parts often mix int and quotient numerators; over Q
    alone when ``modulus`` is None.  ``constant`` is "one", "int" (a
    nonzero int) or None for a zero constant term."""
    def scalar():
        if modulus is None or rng.random() < 0.35:
            return rng.choice([-2, -1, 1, 2, F(1, 2), F(-1, 2)])
        res = [rng.randint(-1, 1) for _ in range(modulus.degree)]
        return QuotientRingElem(UniPoly(res or [1]), modulus)
    terms = {}
    for _ in range(rng.randint(1, 7)):
        a = rng.randint(0, order)
        terms[(a, rng.randint(0, order - a))] = scalar()
    terms.pop((0, 0), None)
    if constant is not None:
        terms[(0, 0)] = 1 if constant == "one" else rng.choice([-3, -1, 2, 5])
    return TruncatedSeries(VS, order, terms)


def _cancelling_pair(rng, modulus):
    """Series p = c mu1 + c' mu2 + ... and q = c mu1 - c' mu2 + ..., their
    other terms of degree 2 and more, so the mu1 mu2 coefficient of p q,
    c c' - c' c, cancels; c' is an int and c most often a quotient-ring
    element, so the cancelling products mix the two kinds."""
    def tail():
        s = _cancelling_series(rng, modulus)
        return {e: c for e, c in s.terms.items() if sum(e) >= 2}
    c = _cancelling_series(rng, modulus).terms.get((1, 0), 1)
    c2 = rng.choice([-2, -1, 1, 3])
    p = TruncatedSeries(VS, 4, {**tail(), (1, 0): c, (0, 1): c2})
    q = TruncatedSeries(VS, 4, {**tail(), (1, 0): c, (0, 1): -c2})
    return p, q


def _quotient_kinds(s):
    return {e: isinstance(c, QuotientRingElem) for e, c in s.terms.items()}


@pytest.mark.parametrize("name", sorted(VECTOR_MODULI))
def test_vector_path_matches_the_oracles(name):
    """Seeded products of series over t^d for d = 1..5, t^2 - 2, t^3 - 2
    and a rational modulus, with each other and with series over Q alone,
    and inverses, exponentials and logarithms, equal the term-by-term
    oracles: every coefficient, which of them are quotient-ring elements,
    and the parts.  Some coefficients cancel to zero."""
    modulus = VECTOR_MODULI[name]
    rng = random.Random("kernel-vector-" + name)
    cancelled = 0
    for _ in range(10):
        a = _cancelling_series(rng, modulus, rng.choice([None, "int"]))
        b = _cancelling_series(rng, modulus, rng.choice([None, "int"]))
        r = _cancelling_series(rng, None, rng.choice([None, "int"]))
        for x, y in ((a, b), (a, r), (r, b), (a, a), _cancelling_pair(rng, modulus)):
            got, want = x * y, naive_mul(x, y)
            assert got.terms == want.terms
            assert _quotient_kinds(got) == _quotient_kinds(want)
            assert got == want
            reached = {(e1[0] + e2[0], e1[1] + e2[1]) for e1 in x.terms for e2 in y.terms}
            cancelled += sum(1 for e in reached if sum(e) <= x.order and e not in got.terms)
        u = _cancelling_series(rng, modulus, "int")
        assert u.invert().terms == geometric_invert(u).terms
        s = _cancelling_series(rng, modulus)
        assert series_exp(s).terms == power_sum_exp(s).terms
        w = _cancelling_series(rng, modulus, "one")
        assert series_log(w).terms == power_sum_log(w).terms
    assert cancelled


@pytest.mark.parametrize("backend", BACKENDS)
def test_square_equals_the_product_with_an_equal_copy(backend):
    """x * x pairs each pair of degree parts once; it must give the parts
    of x * y for y equal to x but a distinct object, and so must the powers
    built by squaring."""
    rng = random.Random("kernel-square-" + backend)
    for _ in range(12):
        x = _series(rng, backend, rng.choice([None, "unit"]))
        y = TruncatedSeries(x.variables, x.order, dict(x.terms))
        assert y == x and y._parts is not x._parts
        assert x * x == x * y
        assert (x * x).terms == naive_mul(x, y).terms
        assert x ** 3 == x * y * y
        assert x ** 4 == naive_mul(naive_mul(x, y), naive_mul(x, y))


def test_square_pairs_each_unordered_pair_of_parts_once(monkeypatch):
    """A square makes one kernel call per degree that a pair of nonzero
    parts reaches, as a product does, over the pairs i < j once and the
    diagonal i = i once; a product of two distinct equal series pairs
    every ordered (i, j)."""
    calls = []
    real = rings._convolve

    def counting(pairs, divisor=1):
        calls.append(len(pairs))
        return real(pairs, divisor)

    monkeypatch.setattr(rings, "_convolve", counting)
    rng = random.Random("kernel-square-pairs")
    for backend in BACKENDS:
        for _ in range(8):
            x = _series(rng, backend, rng.choice([None, "unit"]))
            if x.is_constant():
                continue
            y = TruncatedSeries(x.variables, x.order, dict(x.terms))
            nz = [i for i, (items, _) in enumerate(x._parts) if items]
            reached = {i + j for i in nz for j in nz if i + j <= x.order}
            calls.clear()
            x * x
            assert len(calls) == len(reached)
            assert sum(calls) == sum(1 for i in nz for j in nz if i <= j and i + j <= x.order)
            calls.clear()
            x * y
            assert len(calls) == len(reached)
            assert sum(calls) == sum(1 for i in nz for j in nz if i + j <= x.order)


# --------------------------------------------------------------------------
# part arithmetic against the term-by-term oracles
# --------------------------------------------------------------------------

CHAIN_MODULI = {"rational": None, "quotient": MODULUS, "nilpotent": NIL_MODULUS}
CHAIN_OPS = ("add", "sub", "neg", "scale", "mul", "square", "invert", "exp", "log")


def _chain_scalar(rng, backend):
    """An int or a Fraction over Q, and now and then beside the
    quotient-ring elements of the other backends; over Q[t]/(t^3), mostly
    non-units (constant residue term zero), whose products can vanish."""
    if backend == "rational" or rng.random() < 0.15:
        return rng.randint(-4, 4) if rng.random() < 0.4 else _rational(rng)
    cs = [_rational(rng) for _ in range(3)]
    if backend == "nilpotent" and rng.random() < 0.6:
        cs[0] = 0
    return QuotientRingElem(UniPoly(cs), CHAIN_MODULI[backend])


def _chain_series(rng, backend, order):
    terms = {(0, 0): _chain_scalar(rng, backend)} if rng.random() < 0.7 else {}
    for _ in range(rng.randint(1, 5)):
        a = rng.randint(0, order)
        terms[(a, rng.randint(0, order - a))] = _chain_scalar(rng, backend)
    return TruncatedSeries(VS, order, terms)


def _unit(c):
    if isinstance(c, QuotientRingElem) and c.modulus == NIL_MODULUS:
        return c.residue[0] != 0
    return c != 0


def _vanished(a, b, out):
    """How many terms of the product ``out`` of a and b have one
    contributing pair of terms and are missing: zero-divisor products."""
    pairs = Counter(tuple(x + y for x, y in zip(e1, e2)) for e1 in a.terms for e2 in b.terms)
    return sum(1 for e, k in pairs.items()
               if k == 1 and sum(e) <= out.order and e not in out.terms)


def _step(rng, backend, lib, ref, drops):
    """One random operation, applied to the library series ``lib`` with
    the library's arithmetic and to ``ref`` with the oracles; the library
    side never reads ``terms``.  The operation is chosen from what ``ref``
    admits."""
    c = ref.constant_term()
    op = rng.choice(CHAIN_OPS)
    if op in ("invert", "log") and not _unit(c):
        op = "scale"
    if op in ("add", "sub", "mul", "square"):
        other = ref if op == "square" else _chain_series(rng, backend, ref.order)
        if op == "add":
            return lib + other, naive_add(ref, other)
        if op == "sub":
            return lib - other, naive_add(ref, naive_neg(other))
        out = naive_mul(ref, other)
        drops["mul"] += _vanished(ref, other, out)
        return lib * (lib if op == "square" else other), out
    if op == "neg":
        return -lib, naive_neg(ref)
    if op == "scale":
        k = _chain_scalar(rng, backend) if rng.random() < 0.9 else rng.choice([0, 1, -1])
        out = naive_scale(ref, k)
        drops["scale"] += k != 0 and len(out.terms) < len(ref.terms)
        return lib.scale(k), out
    if op == "invert":
        return lib.invert(), geometric_invert(ref)
    if op == "exp":
        shifted = naive_add(ref, naive_neg(TruncatedSeries.constant(c, VS, ref.order)))
        return series_exp(lib - c), power_sum_exp(shifted)
    cinv = invert_scalar(c)
    return series_log(lib.scale(cinv)), power_sum_log(naive_scale(ref, cinv))


@pytest.mark.parametrize("backend", sorted(CHAIN_MODULI))
def test_part_arithmetic_matches_term_oracles_on_random_chains(backend):
    """170 seeded chains of 3-8 operations per backend, 510 in all, with
    sums, differences, negation, scaling, products, inverses,
    exponentials and logarithms.  In Q[t]/(t^3), products and scalings by zero divisors drop terms."""
    rng = random.Random("kernel-chain-" + backend)
    drops = Counter()
    for _ in range(170):
        lib = ref = _chain_series(rng, backend, rng.randint(1, 5))
        for _ in range(rng.randint(3, 8)):
            lib, ref = _step(rng, backend, lib, ref, drops)
        assert lib.order == ref.order
        assert dict(lib.terms) == dict(ref.terms)
        assert lib == ref
    if backend == "nilpotent":
        assert drops["mul"] and drops["scale"]


def _refuse_views(monkeypatch):
    def refuse(self):
        raise AssertionError("a terms view was built")

    monkeypatch.setattr(TruncatedSeries, "_view", refuse)


@pytest.mark.parametrize("backend", sorted(CHAIN_MODULI))
def test_equality_agrees_with_terms_on_random_chains(backend, monkeypatch):
    """On 60 seeded chains per backend, ``a == b`` is ``a.terms ==
    b.terms`` for every pair of series at one order that the chains
    reach, and for pairs that reach one series by two routes: a * b and
    b * a, exp(log u) and u, and (a + b) - b and a.  ``==`` builds no
    ``terms`` view: it runs before any view is read, with ``_view``
    patched to raise."""
    rng = random.Random("kernel-eq-" + backend)
    drops = Counter()
    reached = []
    for _ in range(60):
        lib = ref = _chain_series(rng, backend, rng.randint(1, 5))
        for _ in range(rng.randint(1, 5)):
            lib, ref = _step(rng, backend, lib, ref, drops)
            reached.append(lib)
    pairs = [(a, b) for a, b in zip(reached, reached[1:]) if a.order == b.order]
    for a in reached[::3]:
        b = _chain_series(rng, backend, a.order)
        pairs += [(a * b, b * a), ((a + b) - b, a)]
        c = a.constant_term()
        if _unit(c):
            u = a.scale(invert_scalar(c))
            pairs.append((series_exp(series_log(u)), u))
    _refuse_views(monkeypatch)
    got = [a == b for a, b in pairs]
    monkeypatch.undo()
    assert got == [a.terms == b.terms for a, b in pairs]
    assert 100 < sum(got) < len(got)


def test_equality_is_false_across_variables_orders_and_moduli(monkeypatch):
    """Series over other variables, at another order or over another
    quotient modulus compare unequal, built or computed, and nothing
    raises; two rings with one modulus compare equal."""
    x = TruncatedSeries(VS, 4, {(1, 0): F(1, 2), (0, 2): 3})
    terms = dict(x.terms)
    p, q, r = (TruncatedSeries(VS, 4, {(1, 0): QuotientRingElem.generator(m), (0, 1): 1})
               for m in (MODULUS, NIL_MODULUS, MODULUS))
    _refuse_views(monkeypatch)
    assert not x == TruncatedSeries(("a", "b"), 4, terms)
    assert x != TruncatedSeries(VS, 5, terms)
    assert not (x * x) == TruncatedSeries(VS, 5, terms) * TruncatedSeries(VS, 5, terms)
    assert not p == q and p != q
    assert not (p * p) == (q * q) and (p * p) != (q * q)
    assert p == r and p * p == r * r
    assert (p - r).is_zero()


EVAL_VARS = ("y1", "y2", "y3")


def _eval_value(rng, backend, invertible):
    """A series value over VS at ORDER (a unit constant term when
    ``invertible``) or, one time in three, a unit scalar."""
    if rng.random() < 0.33:
        c = _scalar(rng, backend)
        while not _unit(c):
            c = _scalar(rng, backend)
        return c
    return _series(rng, backend, "unit" if invertible or rng.random() < 0.5 else None)


def _eval_case(rng, backend):
    """A seeded Laurent polynomial in EVAL_VARS, with negative exponents
    half the time, and a point with at least one series value."""
    negative = rng.random() < 0.5
    terms = {tuple(rng.randint(-2 if negative else 0, 3) for _ in EVAL_VARS):
             _chain_scalar(rng, backend) for _ in range(rng.randint(1, 7))}
    poly = LaurentPoly(EVAL_VARS, terms)
    while True:
        point = {v: _eval_value(rng, backend, negative) for v in EVAL_VARS}
        if any(isinstance(x, TruncatedSeries) for x in point.values()):
            return poly, point


def _part_maps(s):
    return [(dict(items), den) for items, den in s._parts]


@pytest.mark.parametrize("backend", sorted(CHAIN_MODULI))
def test_series_evaluation_matches_the_term_sum(backend):
    """LaurentPoly.evaluate at series values, each term built with ``*``
    and the terms added with ``+``: on 60 seeded polynomials per backend (Q, Q[t]/(t^3 -
    2), Q[t]/(t^3)), with negative exponents and mixed scalar and series
    points, and on a constant-only and the zero polynomial, it gives the
    parts and the terms of the term-by-term sum of ``series_oracles``."""
    rng = random.Random("kernel-eval-" + backend)
    cases = [_eval_case(rng, backend) for _ in range(60)]
    poly, point = cases[0]
    cases += [(LaurentPoly.constant(_chain_scalar(rng, backend), EVAL_VARS), point),
              (LaurentPoly.zero(EVAL_VARS), point)]
    negative = 0
    for poly, point in cases:
        got, want = poly.evaluate(point), term_sum_evaluate(poly, point)
        assert _part_maps(got) == _part_maps(want), str(poly)
        assert dict(got.terms) == dict(want.terms)
        negative += any(min(e) < 0 for e in poly.terms)
    assert negative > 10
    assert cases[-1][0].evaluate(cases[-1][1]).is_zero()


def test_series_value_that_no_term_uses_sets_no_variables():
    """A series value that no term uses does not fix the result's
    variables: ``y2 + 1`` at {y1: A, y2: B}, A over (a,) and B over
    (b,), is B + 1 over (b,), and ``y1 + 1`` is A + 1 over (a,), as the
    term-by-term sum gives.  A constant takes the first series value's
    variables and order."""
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    a = TruncatedSeries.variable("a", ("a",), 4)
    b = TruncatedSeries.variable("b", ("b",), 3)
    point = {"y1": a, "y2": b}
    for poly, want in ((y2 + 1, b + 1), (y1 + 1, a + 1),
                       (LaurentPoly.constant(F(2), ("y1", "y2")),
                        TruncatedSeries.constant(F(2), ("a",), 4))):
        got = poly.evaluate(point)
        assert (got.variables, got.order) == (want.variables, want.order)
        assert got == want == term_sum_evaluate(poly, point)


def test_series_evaluation_rejects_mixed_variables_orders_and_moduli():
    """Series values over other variables or at another order raise
    VariableMismatch, and coefficients or values over two quotient moduli
    raise BackendMismatch, as the term-by-term sum does."""
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    mu = TruncatedSeries.variable("mu1", VS, 4)
    t, n = QuotientRingElem.generator(MODULUS), QuotientRingElem.generator(NIL_MODULUS)
    f = 1 + y1 * y2 - y2
    for other, error in ((TruncatedSeries.variable("a", ("a", "b"), 4), VariableMismatch),
                         (TruncatedSeries.variable("mu1", VS, 5), VariableMismatch),
                         (mu.scale(t), BackendMismatch)):
        for poly in (f, y1 * y2):
            point = {"y1": mu.scale(n), "y2": other}
            for evaluate in (poly.evaluate, lambda p: term_sum_evaluate(poly, p)):
                with pytest.raises(error):
                    evaluate(point)
    g = LaurentPoly(("y1", "y2"), {(1, 0): t, (0, 1): n})
    for point in ({"y1": mu, "y2": mu}, {"y1": mu, "y2": F(2)}):
        for evaluate in (g.evaluate, lambda p: term_sum_evaluate(g, p)):
            with pytest.raises(BackendMismatch):
                evaluate(point)


# --------------------------------------------------------------------------
# immutability and validation
# --------------------------------------------------------------------------

def test_terms_are_read_only():
    x = TruncatedSeries.variable("x", ("x", "y"), 4)
    y = TruncatedSeries.variable("y", ("x", "y"), 4)
    for s in (x, x + y, x * y):
        with pytest.raises(TypeError):
            s.terms[(0, 0)] = F(7)
    assert (x * y).terms == {(1, 1): 1}
    assert x.terms == {(1, 0): 1}


@pytest.mark.parametrize("order", [-1, 2.0, True, False])
def test_truncation_order_must_be_a_nonnegative_int(order):
    with pytest.raises(ValueError):
        TruncatedSeries(VS, order)
