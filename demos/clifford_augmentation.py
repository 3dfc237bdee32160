#!/usr/bin/env python3
"""Walk through the augmentation of the Clifford Legendrian torus in S^5.

The lifted relation of the Clifford torus is a signed sum

    eps_0 + eps_1 y1 + eps_2 y2,

one monomial per index-two disk, with signs recording the spin structure.
An augmentation sends y1 to the formal holonomy variable mu1 and y2 to
kappa exp(s), where kappa is a transverse root of the relation restricted
to y1 = 0 and s is a power series with zero constant term, solved by
Newton's method, which doubles the verified order at each step.  For both standard sign choices the series comes out as the
logarithm log(1 + mu1), and the script verifies this exactly together with
the vanishing of the relation under the substitution.
"""

from fractions import Fraction

from augvar.augment import find_transverse_root, solve_formal_augmentation
from augvar.potentials import clifford_relation
from augvar.rings import TruncatedSeries, UniPoly, series_log

ORDER = 12


def show_solution(title, signs):
    spec = clifford_relation(3, signs)
    rel = spec.lifted_relation
    print("== %s ==" % title)
    print("lifted relation:   %s" % rel)
    root = find_transverse_root(rel, "y2")
    print("restriction:       %s  (root kappa = %s, derivative %s)"
          % (root.restriction.format("y2"), root.kappa, root.witness))
    sol = solve_formal_augmentation(rel, "y2", order=ORDER)
    print("solved assignment: y1 -> mu1,  y2 -> %s * exp(s)" % sol.kappa)
    coeffs = ["%s" % c for _, c in sol.series_coefficients()]
    print("s coefficients:    [%s]" % ", ".join(coeffs))
    log_ref = series_log(1 + TruncatedSeries.variable("y1", ("y1",), ORDER))
    print("s == log(1+mu1):   %s" % (sol.series == log_ref))
    print("residual is zero:  %s" % sol.residual().is_zero())
    print()


def quotient_field_example():
    """When the restriction has no rational root the solver works over
    Q[t]/(m) for a caller-supplied squarefree factor m."""
    from augvar.laurent import LaurentPoly

    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    rel = -2 + y1 + y2 ** 2
    print("== irrational root: relation %s ==" % rel)
    sol = solve_formal_augmentation(rel, "y2", order=8,
                                    factor=UniPoly([-2, 0, 1]))
    print("kappa:             %s   (kappa^2 = %s)" % (sol.kappa, sol.kappa ** 2))
    print("s coefficients:    [%s]"
          % ", ".join(str(c) for _, c in sol.series_coefficients()))
    closed = series_log(
        1 - TruncatedSeries.variable("y1", ("y1",), 8).scale(Fraction(1, 2))
    ).scale(Fraction(1, 2))
    print("s == log(1-mu1/2)/2: %s" % (sol.series == closed))
    print("residual is zero:  %s" % sol.residual().is_zero())
    print()


def main():
    show_solution("Harvey-Lawson spin structure", "+,+,-")
    show_solution("trivial spin structure", "+,+,+")
    quotient_field_example()


if __name__ == "__main__":
    main()
