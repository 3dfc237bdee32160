"""Slow reference solvers kept as oracles for the Newton solver.

These are the routines the library used before the Newton loop: a
fixed-slope iteration that gains one order per step, and the power-sum
exponential.  Series coefficients are unique for a given root, so the
library must reproduce their results exactly.
"""

from fractions import Fraction
from math import factorial

from augvar.rings import (
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    frac,
    invert_scalar,
)


def power_sum_exp(s):
    """exp(s) = sum s^j / j! with one full series product per term."""
    out = TruncatedSeries.one(s.variables, s.order)
    power = TruncatedSeries.one(s.variables, s.order)
    for j in range(1, s.order + 1):
        power = power * s
        if power.is_zero():
            break
        out = out + power.scale(Fraction(1, factorial(j)))
    return out


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
