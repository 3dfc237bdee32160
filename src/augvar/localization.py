"""Fixed-point localization identities for multiple covers.

The Euler number of an equivariant obstruction bundle localizes to a sum
over fixed points of (product of bundle weights)/(product of tangent
weights), divided by the automorphism order in the orbifold case.  For the
d-fold cover of the basic disk bounding the Harvey-Lawson filling the
weight multisets are {-1, ..., -(d-1)} over {2, ..., d} with automorphism
group of order d, giving the multiple-cover factor (-1)^{d-1}/d^2.

Weights are only defined up to sign in general; the concrete signed
representatives fixed here are the ones appearing in the displayed
dimension-three computation, which makes every contribution deterministic.

Aggregating the covers with multinomial weights reproduces, degree by
degree, the logarithm log(1 + mu_1 + ... + mu_m); that identity is exposed
as an exact check.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .rings import TruncatedSeries, series_log


@dataclass(frozen=True)
class FixedPointData:
    """Weight data of one fixed point: numerator (bundle) weights,
    denominator (tangent) weights, and the automorphism order."""

    numerator_weights: tuple
    denominator_weights: tuple
    automorphism_order: int = 1

    def __post_init__(self):
        if any(w == 0 for w in self.numerator_weights):
            raise ValueError("zero numerator weight")
        if any(w == 0 for w in self.denominator_weights):
            raise ValueError("zero denominator weight")
        if self.automorphism_order < 1:
            raise ValueError("automorphism order must be >= 1")


def euler_contribution(p):
    """(prod numerator)/(prod denominator)/|Aut|, exactly.

    Empty weight multisets contribute a product of one, so the basic disk
    (d = 1) counts once.  The weights are multiplied as they are, ints in
    int products, and one Fraction is reduced at the end: a Fraction
    product would reduce a number of size about (d - 1)! at every weight
    of the d-fold cover.
    """
    return Fraction(prod(p.numerator_weights),
                    prod(p.denominator_weights, start=p.automorphism_order))


def hl_cover_weights(d):
    """Weight data of the d-fold cover of the basic Harvey-Lawson disk.

    Numerator weights -1, ..., -(d-1); denominator weights 2, ..., d;
    automorphism order d.  The contribution is (-1)^{d-1}/d^2.
    """
    if d < 1:
        raise ValueError("cover degree must be >= 1")
    return FixedPointData(
        numerator_weights=tuple(-j for j in range(1, d)),
        denominator_weights=tuple(range(2, d + 1)),
        automorphism_order=d,
    )


def _packed_vectors(m, order, fact):
    """For each total d <= order, the list of (key, prod_i e_i!) over the
    exponent vectors e of length m with sum d, the first entry
    slowest-varying.  e is packed as the key sum_i e_i (order + 1)^(i-1)
    that :class:`TruncatedSeries` parts use, and ``fact`` lists k! for
    k <= order.  The lists for m variables are built from those for the
    last m - 1, one prepended entry at a time, for all totals at once."""
    base = order + 1
    table = [[(t, fact[t])] for t in range(base)]
    for _ in range(m - 1):
        table = [[(first + key * base, fact[first] * p)
                  for first in range(t + 1) for key, p in table[t - first]]
                 for t in range(base)]
    return table


def multicover_series(m, order):
    """Multinomial aggregation of the cover contributions.

    sum over degree vectors (d_1, ..., d_m), 1 <= d = sum d_i <= order, of
    multinomial(d; d_1, ..., d_m) (-1)^{d-1}/d prod mu_i^{d_i}; the factor
    1/d (not 1/d^2) appears because the d markings of the degree-d cover
    contribute d constrained configurations each.

    Each degree-d part is built directly in the series' graded form: the
    int numerators (-1)^{d-1} d!/(d_1! ... d_m!) over the one denominator
    d.  The vector (d, 0, ..., 0) has multinomial 1, so the part is in
    lowest terms as built, and no Fraction is made.
    """
    if m < 1 or order < 1:
        raise ValueError("need m >= 1 and order >= 1")
    variables = tuple("mu%d" % i for i in range(1, m + 1))
    fact = [factorial(k) for k in range(order + 1)]
    parts = [([], 1)]
    for d, vectors in enumerate(_packed_vectors(m, order, fact)[1:], 1):
        top = fact[d] if d % 2 else -fact[d]
        parts.append(([(key, top // p) for key, p in vectors], d))
    return TruncatedSeries._from_graded(variables, order, parts)


def log_series(m, order):
    """log(1 + mu_1 + ... + mu_m), the closed form of the aggregation."""
    variables = tuple("mu%d" % i for i in range(1, m + 1))
    u = TruncatedSeries.one(variables, order)
    for v in variables:
        u = u + TruncatedSeries.variable(v, variables, order)
    return series_log(u)


def verify_multicover_identity(m, order):
    """Exact comparison of the multinomial sum with the logarithm; returns
    (equal, number of coefficients compared).

    Both series are compared in their graded form, part by part
    (``TruncatedSeries.__eq__``), and the coefficients compared are
    counted from the keys of the two supports, degree by degree, so no
    ``terms`` view and no Fraction is built.
    """
    lhs = multicover_series(m, order)
    rhs = log_series(m, order)
    compared = sum(len({key for key, _ in a} | {key for key, _ in b})
                   for (a, _), (b, _) in zip(lhs._parts, rhs._parts))
    return lhs == rhs, compared
