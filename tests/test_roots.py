"""Tests for rational root finding by p-adic lifting.

``rational_roots`` is compared with the divisor search it replaced
(``root_oracles.divisor_roots``) on seeded small polynomials, and with
sympy's factorization, gcd and series logarithm where sympy is
installed.  Roots of 40 digits and more must come back in seconds, which
the divisor search cannot do.  The integer squarefree part and gcd are
compared with the Fraction Euclid they replaced (``root_oracles``) and
with sympy on seeded products of repeated factors.
"""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from augvar import rings
from augvar.errors import ZeroPolynomial
from augvar.rings import (
    TruncatedSeries,
    UniPoly,
    is_squarefree,
    rational_roots,
    series_log,
    squarefree_part,
    uni_gcd,
)

from root_oracles import (
    divisor_roots,
    fraction_gcd,
    fraction_is_squarefree,
    fraction_squarefree_part,
)

F = Fraction
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _linear(root):
    """b*y - a for root a/b."""
    return UniPoly([-root.numerator, root.denominator])


def _random_poly(rng, max_num=30, max_den=12):
    """A product of rational linear factors (some repeated), powers of y and
    irreducible quadratics, with a random rational content."""
    p = UniPoly([F(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 5]))])
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.5:
            p = p * _linear(F(rng.randint(-max_num, max_num), rng.randint(1, max_den)))
        elif kind < 0.65:
            p = p * _linear(F(rng.randint(-6, 6), rng.randint(1, 3))) ** 2
        elif kind < 0.8:
            p = p * UniPoly([0, 1]) ** rng.randint(1, 2)
        else:
            q, r = rng.randint(1, 9), rng.randint(-5, 5)
            p = p * UniPoly([q, r, rng.randint(1, 4)]) if r * r < 4 * q else p
    return p


def test_matches_divisor_search_on_seeded_products():
    rng = random.Random(8100)
    kinds = {"zero": 0, "repeated": 0, "non-monic": 0, "none": 0}
    for _ in range(300):
        p = _random_poly(rng)
        if p.degree < 1:
            continue
        got = rational_roots(p)
        assert got == divisor_roots(p), p
        kinds["zero"] += F(0) in got
        kinds["repeated"] += any(p.derivative().evaluate(r) == 0 for r in got)
        kinds["non-monic"] += any(r.denominator > 1 for r in got)
        kinds["none"] += not got
    assert min(kinds.values()) >= 10, kinds


def test_matches_divisor_search_on_random_dense_polys():
    """Dense integer polynomials: mostly no rational root at all."""
    rng = random.Random(8200)
    for _ in range(300):
        deg = rng.randint(1, 6)
        p = UniPoly([rng.randint(-40, 40) for _ in range(deg)] + [rng.choice([1, -2, 3, 6])])
        if p.degree >= 1:
            assert rational_roots(p) == divisor_roots(p), p


@pytest.mark.parametrize("roots", [
    [F(1), F(-1)],
    [F(1, 2), F(-1, 2), F(2)],
    [F(3, 7), F(3, 7), F(-5, 4)],
    [F(0), F(0), F(9, 2)],
])
def test_order_is_abs_then_positive_first(roots):
    p = UniPoly([F(1, 3)])
    for r in roots:
        p = p * _linear(r)
    assert rational_roots(p) == sorted(set(roots), key=lambda r: (abs(r), -r))


def test_degenerate_inputs():
    with pytest.raises(ZeroPolynomial):
        rational_roots(UniPoly())
    assert rational_roots(UniPoly([5])) == []
    assert rational_roots(UniPoly([0, 0, 7])) == [0]
    assert rational_roots(UniPoly([F(-3, 4), F(1, 2)])) == [F(3, 2)]


def test_primes_dividing_the_leading_coefficient_and_discriminant_are_skipped():
    # lead 2*3*5*7 rules out l <= 7; roots 1/2 .. 1/210 collide mod small primes
    roots = [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(2, 3), F(1, 210)]
    p = UniPoly([1])
    for r in roots:
        p = p * _linear(r)
    assert rational_roots(p) == sorted(roots, key=lambda r: (abs(r), -r))


def test_large_roots_return_promptly():
    """The divisor search would run trial division to 1e20 for the first
    polynomial and to 1e30 for the second, so this runs in a subprocess
    with a timeout instead of hanging."""
    c = 10 ** 40 + 121
    script = textwrap.dedent("""\
        from augvar.rings import UniPoly, rational_roots
        c = %d
        print([str(r) for r in rational_roots(UniPoly([c, -c - 1, 1]))])
        print([str(r) for r in rational_roots(UniPoly([10 ** 60 + 39, 7 * 10 ** 20]))])
        """ % c)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == [
        str(["1", str(c)]), str([str(F(-(10 ** 60 + 39), 7 * 10 ** 20))])]


# --------------------------------------------------------------------------
# sympy as an independent oracle
# --------------------------------------------------------------------------

def _to_sympy(sympy, p, x):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], x, domain=sympy.QQ)


def _from_sympy(poly):
    return UniPoly([F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def test_rational_roots_match_sympy_factorization():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(8300)
    for _ in range(100):
        p = _random_poly(rng, max_num=500, max_den=40)
        if p.degree < 1:
            continue
        expected = set()
        for factor, _ in _to_sympy(sympy, p, x).factor_list()[1]:
            if factor.degree() == 1:
                b, a = factor.all_coeffs()
                expected.add(F(int((-a / b).p), int((-a / b).q)))
        assert rational_roots(p) == sorted(expected, key=lambda r: (abs(r), -r)), p


def test_uni_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(8400)
    for _ in range(60):
        common = _random_poly(rng)
        p, q = common * _random_poly(rng), common * _random_poly(rng)
        expected = sympy.gcd(_to_sympy(sympy, p, x), _to_sympy(sympy, q, x)).monic()
        assert uni_gcd(p, q) == _from_sympy(expected)


def test_series_log_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_log
    rng = random.Random(8500)
    R, t, x1, x2 = sympy.ring("t,x1,x2", sympy.QQ)
    for _ in range(10):
        order = rng.randint(1, 6)
        terms = {(0, 0): F(1)}
        for _ in range(rng.randint(1, 6)):
            exp = (rng.randint(0, order), rng.randint(0, order))
            if 0 < sum(exp) <= order:
                terms[exp] = F(rng.randint(-5, 5), rng.choice([1, 2, 3, 7]))
        u = TruncatedSeries(("mu1", "mu2"), order, terms)
        # t grades by total degree, so truncation in t is truncation in
        # total degree
        p = R(0)
        for (a, b), c in u.terms.items():
            p += sympy.QQ(c.numerator, c.denominator) * t ** (a + b) * x1 ** a * x2 ** b
        expected = {(a, b): F(int(c.numerator), int(c.denominator))
                    for (_, a, b), c in rs_log(p, t, order + 1).terms()}
        assert series_log(u).terms == expected


# --------------------------------------------------------------------------
# the integer squarefree part against the Fraction Euclid and sympy
# --------------------------------------------------------------------------

def _repeated_factor_case(rng, i):
    """(p, q, roots) for the i-th seeded case: p a product of rational
    linear factors, each to a power 1-3, times y^z and a rational content;
    q = p' or a second such product sharing factors with p; roots the
    distinct rational roots of p.  Every third case takes factors b y - a
    with |a| near 10^12, so coefficients of p reach 10^24 and beyond."""
    big = i % 3 == 0
    p, q, roots = UniPoly([F(rng.choice([1, -1, 3, -7]), rng.choice([1, 2, 5]))]), None, set()
    shared = []
    for _ in range(rng.randint(1, 3)):
        num = rng.randint(10 ** 12 - 999, 10 ** 12) if big else rng.randint(1, 40)
        root = F(rng.choice((num, -num)), rng.randint(1, 9))
        roots.add(root)
        factor = _linear(root) ** rng.randint(1, 3)
        p = p * factor
        shared.append(factor)
    z = rng.choice((0, 0, 1, 2))
    if z:
        p = p * UniPoly([0, 1]) ** z
        roots.add(F(0))
    if i % 2:
        q = p.derivative()
    else:
        q = UniPoly([F(rng.randint(1, 9), rng.randint(1, 4))])
        for factor in rng.sample(shared, rng.randint(1, len(shared))):
            q = q * factor
        q = q * _linear(F(rng.randint(-50, 50), rng.randint(1, 5)))
    return p, q, sorted(roots, key=lambda r: (abs(r), -r))


CASES = 1000


def test_integer_squarefree_part_and_gcd_match_fraction_euclid():
    """1000 seeded products of repeated rational factors, a third of them
    with coefficients past 10^12 and some with a zero root: squarefree
    part, squarefree test, gcd (with p' and with a product sharing
    factors) and rational roots equal the Fraction Euclid's and the
    known roots."""
    rng = random.Random(8600)
    kinds = {"zero": 0, "repeated": 0, "big": 0}
    for i in range(CASES):
        p, q, roots = _repeated_factor_case(rng, i)
        sqf = squarefree_part(p)
        assert sqf == fraction_squarefree_part(p), p
        assert is_squarefree(p) == fraction_is_squarefree(p) == (sqf.degree == p.degree)
        assert uni_gcd(p, q) == fraction_gcd(p, q), (p, q)
        assert uni_gcd(q, p) == fraction_gcd(q, p), (p, q)
        assert rational_roots(p) == roots, p
        kinds["zero"] += F(0) in roots
        kinds["repeated"] += sqf.degree < p.degree
        kinds["big"] += max(abs(c.numerator) for c in p.coeffs) > 10 ** 12
    assert min(kinds.values()) >= 150, kinds


def test_integer_squarefree_part_and_gcd_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(8600)
    for i in range(CASES):
        p, q, _ = _repeated_factor_case(rng, i)
        sp, sq = _to_sympy(sympy, p, x), _to_sympy(sympy, q, x)
        assert squarefree_part(p) == _from_sympy(sp.sqf_part().monic()), p
        assert uni_gcd(p, q) == _from_sympy(sympy.gcd(sp, sq).monic()), (p, q)


def test_gcd_edge_cases_match_fraction_euclid():
    zero, five = UniPoly(), UniPoly([5])
    p = UniPoly([F(-3, 4), 0, F(1, 2)]) * UniPoly([1, 1]) ** 2
    for a, b in ((zero, zero), (zero, p), (p, zero), (five, p), (p, five),
                 (p, p), (p, -p), (-p, p.derivative())):
        assert uni_gcd(a, b) == fraction_gcd(a, b)
    for a in (five, UniPoly([0, F(-2, 3)]), p, -p, p * p):
        assert squarefree_part(a) == fraction_squarefree_part(a)
        assert is_squarefree(a) == fraction_is_squarefree(a)
    assert not is_squarefree(zero)
    with pytest.raises(ZeroPolynomial):
        squarefree_part(zero)


def test_squarefree_routines_share_the_integer_gcd(monkeypatch):
    """uni_gcd, squarefree_part and is_squarefree each take one integer
    gcd and no UniPoly division."""
    calls = []
    real = rings._int_gcd

    def counting(f, g):
        calls.append(1)
        return real(f, g)

    def refuse(self, other):
        raise AssertionError("a polynomial division over Q")

    monkeypatch.setattr(rings, "_int_gcd", counting)
    monkeypatch.setattr(UniPoly, "__divmod__", refuse)
    p = UniPoly([F(-3, 4), 0, F(1, 2)]) * UniPoly([1, 1]) ** 2
    for routine, args in ((uni_gcd, (p, p.derivative())), (squarefree_part, (p,)),
                          (is_squarefree, (p,))):
        calls.clear()
        routine(*args)
        assert len(calls) == 1, routine.__name__


def test_rational_roots_builds_no_fraction_or_unipoly_before_the_lift():
    """Every Python call made by rational_roots up to the p-adic lift is
    traced: none constructs a Fraction or a UniPoly."""
    p = UniPoly([0, 0, F(-6, 5), F(1, 5), F(1, 5)]) * UniPoly([F(2, 3), 1]) ** 2
    seen = []

    def tracer(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.append((os.path.basename(code.co_filename), code.co_name))

    sys.setprofile(tracer)
    try:
        roots = rational_roots(p)
    finally:
        sys.setprofile(None)
    assert roots == [0, F(-2, 3), 2, -3]
    before = seen[:seen.index(("rings.py", "_lifted_candidates"))]
    assert ("rings.py", "_squarefree_ints") in before
    assert not [call for call in before
                if call in (("rings.py", "__init__"), ("rings.py", "derivative"))
                or call[0] == "fractions.py" and call[1] in ("__new__", "_from_coprime_ints")]
