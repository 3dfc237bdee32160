"""Slow reference root finder kept as an oracle for ``rational_roots``.

This is the divisor search the library used before p-adic lifting: every
rational root a/b in lowest terms has a | a0 and b | an, so trying each
pair of divisors finds them all.  Trial division runs to sqrt(|a0|), so
keep the constant and leading coefficients small when calling it.
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
