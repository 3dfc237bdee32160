"""augvar: exact-arithmetic toolkit for augmentation varieties of
Legendrian lifts of monotone Lagrangian tori.

Subpackages
-----------
rings         exact coefficient rings and truncated power series
laurent       multivariate Laurent polynomials (group-ring elements)
polytope      Newton polytopes, unimodular invariants, irreducibility
potentials    disk potentials, lifted relations, Markov triples
augment       formal and nilpotent augmentation solvers, partitions, DGA checks
localization  fixed-point weights, multiple-cover contributions
cli           deterministic command-line front end
"""

from .rings import (
    DEFAULT_ORDER,
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    rational_roots,
    series_exp,
    series_log,
    squarefree_part,
    uni_gcd,
)
from .laurent import (
    LaurentPoly,
    clear_to_vertex,
    clear_to_vertex_fitted,
)
from .polytope import (
    InvariantRecord,
    LatticePolytope,
    Verdict,
    certify_distinct,
    indecomposable_2d,
    irreducibility_certificate,
    minkowski_sum,
    newton_polytope,
    polytope_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER",
    "QuotientRingElem",
    "TruncatedSeries",
    "UniPoly",
    "rational_roots",
    "series_exp",
    "series_log",
    "squarefree_part",
    "uni_gcd",
    "LaurentPoly",
    "clear_to_vertex",
    "clear_to_vertex_fitted",
    "InvariantRecord",
    "LatticePolytope",
    "Verdict",
    "certify_distinct",
    "indecomposable_2d",
    "irreducibility_certificate",
    "minkowski_sum",
    "newton_polytope",
    "polytope_invariants",
    "__version__",
]
