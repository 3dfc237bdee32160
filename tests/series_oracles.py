"""Slow reference series routines kept as oracles for the graded kernel.

``geometric_invert`` and ``power_sum_log`` are the inverse and logarithm
the library used before the degree-by-degree recurrences: one full
series product per term of a geometric or power series.  ``naive_mul``
multiplies two coefficient maps term by term in the scalars' own
arithmetic, with no numerator/denominator split.  Series coefficients are
unique, so the library must reproduce all three exactly, for every
scalar backend.
"""

from fractions import Fraction

from augvar.rings import TruncatedSeries, invert_scalar, is_zero


def naive_mul(a, b):
    """a * b for two series over the same variables and order, from their
    coefficient maps alone."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            if sum(exp) > a.order:
                continue
            out[exp] = out[exp] + c1 * c2 if exp in out else c1 * c2
    return TruncatedSeries(a.variables, a.order,
                           {e: c for e, c in out.items() if not is_zero(c)})


def geometric_invert(f):
    """f^{-1} = c^{-1} sum_j (-(f/c - 1))^j, with one product per term."""
    c = f.constant_term()
    cinv = invert_scalar(c)
    v = f.scale(cinv) - 1                 # valuation >= 1
    out = TruncatedSeries.one(f.variables, f.order)
    term = TruncatedSeries.one(f.variables, f.order)
    for _ in range(f.order):
        term = term * (-v)
        if term.is_zero():
            break
        out = out + term
    return out.scale(cinv)


def power_sum_log(u):
    """log(u) = sum (-1)^{j-1} (u-1)^j / j, with one product per term."""
    v = u - 1
    out = TruncatedSeries.zero(u.variables, u.order)
    power = TruncatedSeries.one(u.variables, u.order)
    for j in range(1, u.order + 1):
        power = power * v
        if power.is_zero():
            break
        out = out + power.scale(Fraction((-1) ** (j - 1), j))
    return out
