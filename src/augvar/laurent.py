"""Exact multivariate Laurent polynomials.

Group-ring elements over any scalar backend from :mod:`augvar.rings`; these
carry the disk potentials, lifted differential relations, and the
coordinates ``y_i`` of representation varieties.  Terms are a sparse map
from integer exponent vectors (negative entries allowed) to coefficients.

Display and serialization order terms by graded lexicographic order on
exponent vectors so output is deterministic.
"""

import json
from fractions import Fraction

from . import intlin
from .errors import (
    NegativeExponentAtZero,
    NotAVertex,
    NotInvertibleAtPoint,
    NotInvertible,
    NotUnimodular,
    PreconditionViolation,
    VariableMismatch,
    ZeroPolynomial,
)
from .polytope import newton_polytope
from .rings import (
    SCALAR_TYPES,
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    _join_terms,
    frac,
    invert_scalar,
    is_zero,
    power,
    series_evaluate,
)


def grlex_key(exp):
    return (sum(exp), tuple(-e for e in exp))


class LaurentPoly:
    """Sparse Laurent polynomial over an ordered variable list.

    Exponents must be integer values, such as ints or Fraction(4, 2); any
    other value raises :class:`PreconditionViolation`.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        clean = {}
        for exp, c in (terms or {}).items():
            exp = intlin.lattice_point(exp)
            if len(exp) != len(variables):
                raise VariableMismatch("exponent length != variable count")
            if is_zero(c):
                continue
            clean[exp] = frac(c) if isinstance(c, (int, str)) else c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, c, variables):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables):
        return cls.constant(1, variables)

    @classmethod
    def variable(cls, name, variables):
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch("unknown variable %r" % name)
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, coeff, exp, variables):
        return cls(variables, {tuple(exp): coeff})

    @classmethod
    def gens(cls, variables):
        """All variables as Laurent polynomials, in order."""
        return tuple(cls.variable(v, variables) for v in variables)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms, key=grlex_key)

    def constant_term(self):
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def is_monomial(self):
        return len(self.terms) == 1

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.variables != self.variables:
                raise VariableMismatch(
                    "Laurent polynomials over different variables: %r vs %r"
                    % (self.variables, other.variables))
            return other
        if isinstance(other, SCALAR_TYPES):
            return LaurentPoly.constant(other, self.variables)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = out.get(exp, 0) + c
            if is_zero(acc):
                out.pop(exp, None)
            else:
                out[exp] = acc
        return LaurentPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(exp, 0) + c1 * c2
                if is_zero(acc):
                    out.pop(exp, None)
                else:
                    out[exp] = acc
        return LaurentPoly(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("integer powers only")
        if n < 0:
            if not self.is_monomial():
                raise NotInvertible(
                    "only monomials are invertible in the Laurent ring")
            ((exp, c),) = self.terms.items()
            return LaurentPoly(self.variables,
                               {tuple(n * e for e in exp): invert_scalar(c) ** (-n)})
        return power(self, n, lambda: LaurentPoly.one(self.variables))

    def shift(self, delta):
        """Multiply by the monomial with exponent vector delta.  A
        coordinate of delta that is not an integer value raises
        :class:`PreconditionViolation` instead of being truncated."""
        delta = intlin.lattice_point(delta)
        return LaurentPoly(self.variables,
                           {tuple(a + b for a, b in zip(e, delta)): c
                            for e, c in self.terms.items()})

    # -- calculus and substitution ------------------------------------------

    def partial_derivative(self, var):
        """Formal derivative with the Laurent rule e -> e y^{e-1}."""
        i = self._var_index(var)
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = c * exp[i]
        return LaurentPoly(self.variables, out)

    def _var_index(self, var):
        try:
            return self.variables.index(var)
        except ValueError:
            raise VariableMismatch("unknown variable %r" % var) from None

    def substitute_monomial(self, M):
        """Ring automorphism replacing each exponent e by M e.

        M must be a square unimodular integer matrix of size equal to the
        variable count.
        """
        n = len(self.variables)
        if len(M) != n or any(len(r) != n for r in M):
            raise NotUnimodular("matrix size does not match variable count")
        if not intlin.is_unimodular(M):
            raise NotUnimodular("matrix determinant is not +-1")
        out = {}
        for exp, c in self.terms.items():
            out[intlin.mat_vec(M, exp)] = c
        return LaurentPoly(self.variables, out)

    def set_vars_zero(self, keep):
        """Set every variable except ``keep`` to zero; univariate result.

        Undefined: raises :class:`NegativeExponentAtZero` when a dropped
        variable occurs with a negative exponent (the message suggests a
        unimodular basis change), or when a surviving term is not
        polynomial in ``keep``.  This is the solvers' only check of the
        exponents off the solved variable.
        """
        k = self._var_index(keep)
        coeffs = {}
        for exp, c in self.terms.items():
            if any(e < 0 for i, e in enumerate(exp) if i != k):
                raise NegativeExponentAtZero(
                    "term %s has a negative exponent in a variable set to zero; "
                    "apply a unimodular basis change first" % (exp,))
            if any(e > 0 for i, e in enumerate(exp) if i != k):
                continue
            if exp[k] < 0:
                raise NegativeExponentAtZero(
                    "restriction is not polynomial in %r" % keep)
            coeffs[exp[k]] = coeffs.get(exp[k], Fraction(0)) + c
        if not coeffs:
            return UniPoly.zero()
        top = max(coeffs)
        return UniPoly([coeffs.get(i, Fraction(0)) for i in range(top + 1)])

    def set_var_zero(self, var):
        """Set a single variable to zero, keeping the others.

        The result lives over the remaining variables.  Raises when the
        variable occurs with a negative exponent.
        """
        k = self._var_index(var)
        rest = self.variables[:k] + self.variables[k + 1:]
        out = {}
        for exp, c in self.terms.items():
            if exp[k] < 0:
                raise NegativeExponentAtZero(
                    "%r occurs with negative exponent" % var)
            if exp[k] > 0:
                continue
            out[exp[:k] + exp[k + 1:]] = c
        return LaurentPoly(rest, out)

    def evaluate(self, point):
        """Exact evaluation at a point assigning every variable a value.

        Values may be scalars from any one backend or truncated series;
        negative exponents require the assigned value to be invertible.
        Each power of a value comes from the previous one in its table.
        At scalar values each term is its coefficient times its powers,
        multiplied with ``*``, and the terms are added one by one.  When
        any value is a series, so is the result, and
        :func:`augvar.rings.series_evaluate` sums the terms in one kernel
        pass per degree: each coefficient, times the term's scalar
        powers, enters as a degree-0 part, and no series sum, scaling or
        constant series is built.
        """
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise NotInvertibleAtPoint("no value assigned to %r" % missing[0])
        like = None
        powers = []
        for i, v in enumerate(self.variables):
            val = point[v]
            if like is None and isinstance(val, TruncatedSeries):
                like = val
            try:
                powers.append(_power_table(val, {e[i] for e in self.terms}))
            except (NotInvertible, ZeroDivisionError) as err:
                raise NotInvertibleAtPoint(
                    "value for %r is not invertible: %s" % (v, err)) from None
        if like is not None:
            return series_evaluate(self.terms, powers, like)
        acc = None
        for exp, c in self.terms.items():
            term = c
            for i, e in enumerate(exp):
                if e != 0:
                    term = term * powers[i][e]
            acc = term if acc is None else acc + term
        return Fraction(0) if acc is None else acc

    # -- display and serialization ----------------------------------------

    def __str__(self):
        def mono(exp):
            return "*".join("%s^%d" % (v, e) if e != 1 else v
                            for v, e in zip(self.variables, exp) if e != 0)
        return _join_terms((self.terms[exp], mono(exp)) for exp in self.support())

    __repr__ = __str__

    def to_obj(self):
        """JSON-ready object: {"vars": [...], "terms": [...]} in grlex order."""
        terms = []
        for exp in self.support():
            terms.append({"exp": list(exp), "coef": coeff_to_obj(self.terms[exp])})
        return {"vars": list(self.variables), "terms": terms}

    def to_json(self):
        return json.dumps(self.to_obj(), sort_keys=True)

    @classmethod
    def from_obj(cls, obj):
        """The polynomial of a ``{"vars": [...], "terms": [{"exp": [...],
        "coef": ...}, ...]}`` object.  An exponent listed twice raises
        :class:`PreconditionViolation`, since no one polynomial holds both
        terms."""
        variables = tuple(obj["vars"])
        terms = {}
        for t in obj["terms"]:
            exp = tuple(t["exp"])
            if exp in terms:
                raise PreconditionViolation("exponent %r is listed twice"
                                            % (list(exp),))
            terms[exp] = coeff_from_obj(t["coef"])
        return cls(variables, terms)

    @classmethod
    def from_json(cls, text):
        return cls.from_obj(json.loads(text))


def _power_table(val, exps):
    """{e: val**e} for the nonzero e in exps.  Each power is the previous
    one of the same sign times val**gap (one product for a gap of one);
    negative powers are powers of the inverse."""
    table = {}
    for sign in (1, -1):
        wanted = sorted(sign * e for e in exps if sign * e > 0)
        if not wanted:
            continue
        step = val if sign > 0 else invert_scalar(val)
        prev, cur = 0, None
        for e in wanted:
            gap = power(step, e - prev, None)
            cur = gap if cur is None else cur * gap
            table[sign * e] = cur
            prev = e
    return table


def coeff_to_obj(c):
    if isinstance(c, (int, Fraction)):
        return str(frac(c))
    if isinstance(c, QuotientRingElem):
        residue = [str(x) for x in c.residue.coeffs]
        m = c.modulus
        if any(m.coeffs[:-1]):
            return {"residue": residue, "modulus": [str(x) for x in m.coeffs]}
        return {"residue": residue, "order": m.degree}
    raise TypeError("cannot serialize coefficient %r" % (c,))


def coeff_from_obj(obj):
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, dict) and "modulus" in obj:
        modulus = UniPoly([Fraction(x) for x in obj["modulus"]])
    elif isinstance(obj, dict) and "order" in obj:
        d = int(obj["order"])
        if d < 1:
            raise ValueError("nilpotency order must be a positive integer")
        modulus = UniPoly.gen() ** d
    else:
        raise TypeError("cannot parse coefficient %r" % (obj,))
    return QuotientRingElem(UniPoly([Fraction(x) for x in obj["residue"]]), modulus)


# --------------------------------------------------------------------------
# vertex clearing
# --------------------------------------------------------------------------

def _clear(f, v):
    """(y^{-v} f, the Newton polytope of f), checking that v is a vertex."""
    if f.is_zero():
        raise ZeroPolynomial("cannot clear the zero polynomial")
    v = intlin.lattice_point(v)
    P = newton_polytope(f)
    if v not in P.vertices:
        raise NotAVertex("%r is not a vertex of the Newton polytope" % (v,))
    return f.shift(tuple(-x for x in v)), P


def clear_to_vertex(f, v):
    """y^{-v} f for a vertex v of the Newton polytope of f.

    The result has nonzero constant term and Newton polytope touching the
    origin.  Raises :class:`NotAVertex` when v is not a vertex, and
    :class:`PreconditionViolation` when a coordinate of v is not an
    integer value.
    """
    return _clear(f, v)[0]


def clear_to_vertex_fitted(f, v):
    """Vertex clearing followed by a unimodular change of basis mapping the
    tangent cone at v into the positive orthant.

    Returns (g, M) where g has componentwise nonnegative exponents, nonzero
    constant term, and g = substitute_monomial(y^{-v} f, M).  The first row
    of M is the sum of the inner facet normals at v, read off the Newton
    polytope that checks the vertex
    (:meth:`augvar.polytope.LatticePolytope.vertex_dual_vector`); no LP
    runs, and M depends only on the polytope and v, not on the order of
    the terms.  A cone that is already nonnegative keeps M = I.
    """
    g, P = _clear(f, v)
    exps = [e for e in g.terms if any(x != 0 for x in e)]
    if all(x >= 0 for e in exps for x in e):
        return g, intlin.identity_matrix(len(f.variables))
    M = intlin.fit_cone_to_orthant(exps, P.vertex_dual_vector(v))
    return g.substitute_monomial(M), M
