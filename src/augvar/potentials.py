"""Builders for disk potentials and lifted differential relations.

The lifted relation of a Legendrian torus is a Laurent polynomial with
nonzero constant term, obtained from the disk potential of the Lagrangian
projection by clearing a Newton-polytope vertex (and, when needed, a
unimodular change of basis to make all exponents nonnegative).  Sign
vectors record the spin-structure contribution of each monomial slot and
are raw user input here; deriving them from spin structures is out of
scope.

Also houses the Markov-triple machinery indexing the exotic-torus lifts.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import intlin
from .errors import (
    DegenerateFan,
    NonPrimitiveRay,
    NotANormalizedTriple,
    SignLengthMismatch,
    ZeroPolynomial,
)
from .laurent import LaurentPoly, clear_to_vertex, clear_to_vertex_fitted
from .rings import is_zero


def sign_vector(spec, length=None):
    """Normalize sign input: '+,-,+', [1,-1,1], or '+-+' all work.

    Returns a tuple of +-1; checks the length when one is expected.
    """
    if isinstance(spec, str):
        tokens = [t for t in spec.replace(",", " ").split()] if "," in spec or " " in spec \
            else list(spec)
        signs = []
        for t in tokens:
            if t in ("+", "+1", "1"):
                signs.append(1)
            elif t in ("-", "-1"):
                signs.append(-1)
            else:
                raise SignLengthMismatch("unrecognized sign token %r" % t)
        signs = tuple(signs)
    else:
        signs = tuple(int(s) for s in spec)
        if any(s not in (1, -1) for s in signs):
            raise SignLengthMismatch("signs must be +1 or -1")
    if length is not None and len(signs) != length:
        raise SignLengthMismatch(
            "expected %d signs, got %d" % (length, len(signs)))
    return signs


@dataclass(frozen=True)
class PotentialSpec:
    """A disk potential together with its cleared lifted relation.

    ``lifted_relation`` always has nonzero constant term; ``vertex`` is the
    Newton vertex that was cleared and ``basis`` the unimodular matrix
    applied afterwards (identity when no fit was needed).
    """

    source: str
    base_potential: LaurentPoly
    lifted_relation: LaurentPoly
    vertex: tuple
    basis: tuple
    signs: tuple = ()

    def __post_init__(self):
        if is_zero(self.lifted_relation.constant_term()):
            raise ValueError("lifted relation must have nonzero constant term")


def _identity_basis(n):
    return tuple(tuple(r) for r in intlin.identity_matrix(n))


def clifford_relation(n, signs=None):
    """Lifted relation of the Clifford Legendrian torus in S^{2n-1}.

    ``signs`` has n entries: one for the constant slot and one per variable
    y_1 ... y_{n-1}.  All-plus gives 1 + y_1 + ... + y_{n-1}.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    signs = sign_vector(signs if signs is not None else [1] * n, n)
    variables = tuple("y%d" % i for i in range(1, n))
    terms = {(0,) * (n - 1): Fraction(signs[0])}
    for i in range(1, n):
        exp = tuple(1 if j == i - 1 else 0 for j in range(n - 1))
        terms[exp] = Fraction(signs[i])
    rel = LaurentPoly(variables, terms)
    return PotentialSpec(
        source="clifford(n=%d)" % n,
        base_potential=rel,
        lifted_relation=rel,
        vertex=(0,) * (n - 1),
        basis=_identity_basis(n - 1),
        signs=signs,
    )


def product_spheres_relation(variant, signs=None):
    """Lifted relations for the Legendrian torus over a product of spheres.

    ``variant`` is ``"unit-sphere-bundle"`` (two exact-filling components,
    relation (1 - y1)(1 - y2) expanded) or ``"anticanonical"`` (the lift to
    the unit anticanonical bundle written in the capping-path basis of the
    monomial y1).  Optional signs flip the four monomial slots of the
    anticanonical relation; default matches the standard display.  The
    unit-sphere-bundle relation takes no signs, and signs for it raise
    ValueError.
    """
    variables = ("y1", "y2")
    if variant == "unit-sphere-bundle":
        if signs is not None:
            raise ValueError("the unit-sphere-bundle relation takes no signs")
        rel = LaurentPoly(variables, {
            (0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    elif variant == "anticanonical":
        eps = sign_vector(signs if signs is not None else [1, -1, 1, -1], 4)
        rel = LaurentPoly(variables, {
            (0, 0): eps[0], (2, 0): eps[1], (1, 1): eps[2], (1, -1): eps[3]})
    else:
        raise ValueError("unknown variant %r" % variant)
    return PotentialSpec(
        source="product-spheres(%s)" % variant,
        base_potential=rel,
        lifted_relation=rel,
        vertex=(0, 0),
        basis=_identity_basis(2),
        signs=sign_vector(signs, None) if signs is not None else (),
    )


def _cleared(f, vertex, fit_basis):
    """(v, relation, basis) for f cleared at v, by default its smallest
    exponent, always a Newton vertex."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton polytope")
    v = tuple(vertex) if vertex is not None else min(f.terms)
    if fit_basis:
        rel, M = clear_to_vertex_fitted(f, v)
    else:
        rel, M = clear_to_vertex(f, v), intlin.identity_matrix(len(f.variables))
    return v, rel, M


def toric_relation(rays, signs=None, vertex=None, fit_basis=True):
    """Hori-Vafa style potential for a toric fan, cleared at a vertex.

    ``rays`` are primitive integer vectors spanning the lattice (a
    non-integer coordinate raises :class:`PreconditionViolation`); the base
    potential is sum_i eps_i y^{ray_i}.  The lifted relation clears the
    chosen Newton vertex (default: the lexicographically smallest) and, when
    requested, applies a unimodular basis fit so all exponents end
    nonnegative.  The fit's first row is the sum of the inner facet
    normals of the Newton polytope at the vertex
    (:func:`augvar.laurent.clear_to_vertex_fitted`); no LP runs.
    """
    rays = [intlin.lattice_point(r) for r in rays]
    if not rays:
        raise DegenerateFan("no rays")
    n = len(rays[0])
    for r in rays:
        if len(r) != n:
            raise DegenerateFan("rays of mixed dimension")
        if gcd(*r) != 1:
            raise NonPrimitiveRay("ray %r is not primitive" % (r,))
    # the rays must span Z^n as a group: the generated sublattice has
    # index one, read off the pivots of one column reduction
    if intlin.lattice_index(rays, n) != 1:
        raise DegenerateFan("rays do not span the full lattice")
    signs = sign_vector(signs if signs is not None else [1] * len(rays), len(rays))
    variables = tuple("y%d" % i for i in range(1, n + 1))
    terms = {}
    for eps, r in zip(signs, rays):
        terms[r] = terms.get(r, Fraction(0)) + eps
    base = LaurentPoly(variables, terms)
    v, rel, M = _cleared(base, vertex, fit_basis)
    return PotentialSpec(
        source="toric(%d rays)" % len(rays),
        base_potential=base,
        lifted_relation=rel,
        vertex=v,
        basis=tuple(tuple(r) for r in M),
        signs=signs,
    )


def user_relation(f, vertex=None, fit_basis=True):
    """Wrap a user-supplied Laurent potential, clearing it at a vertex
    (default: the lexicographically smallest exponent)."""
    v, rel, M = _cleared(f, vertex, fit_basis)
    return PotentialSpec(
        source="user-supplied",
        base_potential=f,
        lifted_relation=rel,
        vertex=v,
        basis=tuple(tuple(r) for r in M),
    )


# --------------------------------------------------------------------------
# Markov triples
# --------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class MarkovTriple:
    """Sorted positive solution of a^2 + b^2 + c^2 = 3abc."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if not (0 < a <= b <= c):
            raise ValueError("triple must be sorted and positive")
        if a * a + b * b + c * c != 3 * a * b * c:
            raise ValueError("(%d, %d, %d) is not a Markov triple" % (a, b, c))

    def mutations(self):
        """The three Vieta mutations, re-sorted."""
        a, b, c = self.a, self.b, self.c
        out = []
        for t in ((3 * b * c - a, b, c), (a, 3 * a * c - b, c), (a, b, 3 * a * b - c)):
            out.append(MarkovTriple(*sorted(t)))
        return out

    def as_tuple(self):
        return (self.a, self.b, self.c)


def markov_generate(bound):
    """All Markov triples with max entry <= bound, grown by mutation from
    (1, 1, 1) and returned sorted."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    root = MarkovTriple(1, 1, 1)
    if root.c > bound:
        return []
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for t in frontier:
            for m in t.mutations():
                if m.c <= bound and m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return sorted(seen)


def is_fibonacci(n):
    a, b = 1, 1
    while a < n:
        a, b = b, a + b
    return a == n


def markov_fibonacci_check(t):
    """For a normalized triple (1, b, c): are b and c Fibonacci numbers?"""
    if t.a != 1:
        raise NotANormalizedTriple("triple %r does not start with 1" % (t.as_tuple(),))
    return is_fibonacci(t.b) and is_fibonacci(t.c)
