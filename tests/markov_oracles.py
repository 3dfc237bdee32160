"""Markov-triple oracle independent of the mutation tree.

``markov_brute_force`` enumerates the solutions of a^2 + b^2 + c^2 = 3abc
directly; the tests compare it with ``potentials.markov_generate``.
"""

from math import isqrt

from augvar.potentials import MarkovTriple


def markov_brute_force(bound):
    """Independent Diophantine enumeration of a^2 + b^2 + c^2 = 3abc.

    For each a <= b the equation is a quadratic in c; an integer root in
    [b, bound] yields a triple.  Never touches the mutation tree.
    """
    out = set()
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            # c^2 - 3ab c + (a^2 + b^2) = 0
            disc = 9 * a * a * b * b - 4 * (a * a + b * b)
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for c2 in ((3 * a * b - r), (3 * a * b + r)):
                if c2 % 2 == 0:
                    c = c2 // 2
                    if b <= c <= bound:
                        out.add(MarkovTriple(a, b, c))
    return sorted(out)


