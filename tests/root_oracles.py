"""Slow reference routines kept as oracles for ``rational_roots`` and the
integer polynomial gcd.

``divisor_roots`` is the divisor search the library used before p-adic
lifting: every rational root a/b in lowest terms has a | a0 and b | an, so
trying each pair of divisors finds them all.  Trial division runs to
sqrt(|a0|), so keep the constant and leading coefficients small when
calling it.

``fraction_gcd``, ``fraction_squarefree_part`` and
``fraction_is_squarefree`` are the gcd, squarefree part and squarefree
test the library used before its integer remainder sequence: the
Euclidean algorithm on ``UniPoly`` with Fraction coefficients.
"""

from fractions import Fraction
from math import gcd

from augvar.errors import ZeroPolynomial


def divisors(n):
    """Positive divisors of n != 0, ascending, by trial division."""
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.update((d, n // d))
        d += 1
    return sorted(out)


def divisor_roots(p):
    """All rational roots of the UniPoly p, sorted by (abs value, -sign)."""
    if p.is_zero():
        raise ZeroPolynomial("every rational is a root of zero")
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    shift = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        shift += 1
    roots = set([Fraction(0)] if shift else [])
    for num in divisors(ints[0]):
        for d in divisors(ints[-1]):
            for cand in (Fraction(num, d), Fraction(-num, d)):
                if p.evaluate(cand) == 0:
                    roots.add(cand)
    return sorted(roots, key=lambda r: (abs(r), -r))


def fraction_gcd(p, q):
    """Monic gcd of two UniPoly by the Euclidean algorithm over Q;
    fraction_gcd(p, 0) is monic(p)."""
    while not q.is_zero():
        p, q = q, p % q
    return p.monic()


def fraction_squarefree_part(p):
    """p / gcd(p, p'), made monic, for a nonzero UniPoly p."""
    return divmod(p, fraction_gcd(p, p.derivative()))[0].monic()


def fraction_is_squarefree(p):
    return not p.is_zero() and fraction_gcd(p, p.derivative()).is_constant()
