"""Slow reference series routines kept as oracles for the graded kernel.

``naive_add``, ``naive_neg`` and ``naive_scale`` are the sum, negation
and scaling the library used before series were stored as graded integer
parts: term by term on coefficient maps, in the scalars' own arithmetic.
``naive_mul`` multiplies two coefficient maps term by term, with no
numerator/denominator split.  ``geometric_invert``, ``power_sum_exp`` and
``power_sum_log`` are the inverse, exponential and logarithm as one full
product per term of a geometric or power series.  Every routine above
reads ``terms`` and builds its result with the ``TruncatedSeries``
constructor, so none of them runs the library's series arithmetic.
``term_sum_evaluate`` is the evaluation of a Laurent polynomial at
series values that the library used before it summed all terms in one
kernel pass: each term a product with ``*``, the terms added with ``+``.
``substituted_residual`` is the solvers' final check as the library made
it before it grouped the relation by powers of the solved variable: the
relation evaluated at the solved point, every variable a series.
``euclid_inverse`` is the inverse in Q[t]/(m) by the half-extended
Euclid on the residue, which the library ran for m = t^d too before that
ring took a fraction-free recurrence.
Series coefficients are unique, so the library must reproduce all of
them exactly, for every scalar backend.
"""

from fractions import Fraction
from math import factorial

from augvar.errors import NotInvertible
from augvar.rings import QuotientRingElem, TruncatedSeries, _half_ext_gcd, invert_scalar, is_zero


def naive_add(a, b):
    """a + b for two series over the same variables and order."""
    out = dict(a.terms)
    for exp, c in b.terms.items():
        if exp in out:
            c = out[exp] + c
            if is_zero(c):
                del out[exp]
                continue
        out[exp] = c
    return TruncatedSeries(a.variables, a.order, out)


def naive_neg(a):
    return TruncatedSeries(a.variables, a.order, {e: -c for e, c in a.terms.items()})


def naive_scale(a, c):
    """a times the scalar c, coefficient by coefficient."""
    products = ((e, v * c) for e, v in a.terms.items())
    return TruncatedSeries(a.variables, a.order,
                           {e: p for e, p in products if not is_zero(p)})


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


def _one(f):
    return TruncatedSeries.one(f.variables, f.order)


def geometric_invert(f):
    """f^{-1} = c^{-1} sum_j (-(f/c - 1))^j, with one product per term."""
    cinv = invert_scalar(f.constant_term())
    v = naive_neg(naive_add(naive_scale(f, cinv), naive_neg(_one(f))))
    out = term = _one(f)
    for _ in range(f.order):
        term = naive_mul(term, v)
        if not term.terms:
            break
        out = naive_add(out, term)
    return naive_scale(out, cinv)


def power_sum_exp(s):
    """exp(s) = sum s^j / j! for s with zero constant term."""
    out = power = _one(s)
    for j in range(1, s.order + 1):
        power = naive_mul(power, s)
        if not power.terms:
            break
        out = naive_add(out, naive_scale(power, Fraction(1, factorial(j))))
    return out


def power_sum_log(u):
    """log(u) = sum (-1)^{j-1} (u-1)^j / j, with one product per term."""
    v = naive_add(u, naive_neg(_one(u)))
    out = TruncatedSeries.zero(u.variables, u.order)
    power = _one(u)
    for j in range(1, u.order + 1):
        power = naive_mul(power, v)
        if not power.terms:
            break
        out = naive_add(out, naive_scale(power, Fraction((-1) ** (j - 1), j)))
    return out


def term_sum_evaluate(poly, point):
    """``poly`` at a point whose values include a series: each term is
    its coefficient times ``value ** e`` for every nonzero exponent e,
    multiplied with ``*``, and the terms are added with ``+``.  The result
    is a series over the first series value's variables and order."""
    like = next(point[v] for v in poly.variables if isinstance(point[v], TruncatedSeries))
    acc = None
    for exp, c in poly.terms.items():
        term = c
        for v, e in zip(poly.variables, exp):
            if e:
                term = term * point[v] ** e
        acc = term if acc is None else acc + term
    if not isinstance(acc, TruncatedSeries):
        return TruncatedSeries.constant(Fraction(0) if acc is None else acc,
                                        like.variables, like.order)
    return acc


def substituted_residual(sol):
    """W(mu, kappa exp(s)) - image for the solved augmentation ``sol``,
    by :meth:`LaurentPoly.evaluate` at ``sol.point()``: a variable series
    for each mu and kappa exp(s) for the solved variable."""
    return sol.relation.evaluate(sol.point()) - sol.image


def euclid_inverse(u):
    """u^-1 in Q[t]/(m) from s u = g mod m, g = gcd(residue, m), by the
    half-extended Euclid; a nonconstant g raises NotInvertible."""
    g, s = _half_ext_gcd(u.residue, u.modulus)
    if not g.is_constant():
        raise NotInvertible("gcd(residue, modulus) is nonconstant")
    return QuotientRingElem(s * (1 / g.leading()), u.modulus)
