"""Slow reference solvers kept as oracles for the series solver.

These are routines the library used before it solved the series one
degree at a time: a fixed-slope iteration that gains one order per step,
with the power-sum exponential of ``series_oracles``, and the Newton loop
that doubles the verified order, substituting into the relation and into
its derivative y_k dW/dy_k separately.  Series coefficients are unique
for a given root, so the library must reproduce their results exactly;
the Newton loop must also raise the same errors.
"""

from fractions import Fraction

from augvar.errors import DoubleRoot
from augvar.laurent import LaurentPoly
from augvar.rings import (
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    frac,
    invert_scalar,
    series_exp,
)

from series_oracles import power_sum_exp


def _fixed_slope(relation, var, kap, target, slope, order):
    """s <- s - slope^{-1} (W(mu, kap exp(s)) - target), one order per step."""
    slope_inv = invert_scalar(slope)
    mu_vars = tuple(v for v in relation.variables if v != var)
    s = TruncatedSeries.zero(mu_vars, order)
    point = {v: TruncatedSeries.variable(v, mu_vars, order) for v in mu_vars}
    for _ in range(order + 1):
        point[var] = power_sum_exp(s).scale(kap)
        residual = relation.evaluate(point) - target
        if residual.is_zero():
            return s
        s = s - residual.scale(slope_inv)
    raise AssertionError("fixed-slope iteration did not converge")


def fixed_slope_formal(relation, var, kappa, order):
    """The series s with W(mu, kappa exp(s)) = 0, slope kappa r'(kappa)."""
    r = relation.set_vars_zero(var)
    slope = kappa * r.derivative().evaluate(kappa)
    return _fixed_slope(relation, var, kappa, Fraction(0), slope, order)


def fixed_slope_nilpotent(relation, d, var, kappa, order):
    """(kap, target, s) with W(mu, kap exp(s)) = target = r(kap) for
    kap = kappa (1 + alpha) in Q[t]/(t^d), alpha the class of t."""
    r = relation.set_vars_zero(var)
    kap = (1 + QuotientRingElem.generator(UniPoly.gen() ** d)) * frac(kappa)
    target = r.evaluate(kap)
    slope = kap * r.derivative().evaluate(kap)
    return kap, target, _fixed_slope(relation, var, kap, target, slope, order)


def two_evaluation_newton(relation, var, kap, target, order):
    """Newton's method for W(mu, kap exp(s)) = target, doubling the
    verified order at each step, with the residual W(mu, kap exp(s)) -
    target and the slope dW(mu, kap exp(s)), dW = y_k dW/dy_k, each from
    its own ``LaurentPoly.evaluate``.  A residual term below the verified
    order raises :class:`DoubleRoot` naming the variable and that order."""
    k = relation.variables.index(var)
    dW = LaurentPoly(relation.variables,
                     {e: c * e[k] for e, c in relation.terms.items() if e[k]})
    mu_vars = tuple(v for v in relation.variables if v != var)
    s = TruncatedSeries.zero(mu_vars, order)
    v = 1
    while v <= order:
        p = min(2 * v - 1, order)
        s = TruncatedSeries(mu_vars, p, s.terms)
        point = {u: TruncatedSeries.variable(u, mu_vars, p) for u in mu_vars}
        point[var] = series_exp(s).scale(kap)
        residual = relation.evaluate(point) - target
        if not residual.is_zero():
            low = min(map(sum, residual.terms))       # the lowest degree
            if low < v:
                raise DoubleRoot(
                    "iteration stalled in %r at order %d: residual has a "
                    "degree-%d term" % (var, v - 1, low),
                    variable=var, order=v - 1)
            slope = dW.evaluate(point).invert()
            s = s - (residual.scale(slope.constant_term()) if slope.is_constant()
                     else residual * slope)
        v = p + 1
    return s
