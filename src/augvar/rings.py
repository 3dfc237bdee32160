"""Exact coefficient rings.

Three backends, all with exact arithmetic and no floating point anywhere:

* rationals (``fractions.Fraction`` used directly),
* univariate polynomials over the rationals (:class:`UniPoly`),
* quotient rings ``Q[t]/(m)`` (:class:`QuotientRingElem`), either for a
  monic squarefree modulus (the quotient fields of transverse roots) or
  for m = t^d (the nilpotent rings of scheme-level witnesses),

plus truncated multivariate power series over any of the scalar backends
(:class:`TruncatedSeries`) with exponential and logarithm, and the
degree-by-degree solve of sum_j D_j exp(j s) = target behind the
augmentation solvers (:func:`solve_exp_sum`).

A quotient-ring element has one integer form and no other state: an int
vector in powers of s = D t (D the least common denominator of the
modulus's coefficients), reduced by the monic integer form of m, over one
int denominator coprime to the vector's content.  Its arithmetic works on
that pair, and its ``residue`` in t is a view built on first read.

A series is stored in its graded integer form, and all series arithmetic
reads and writes that form.  The series is split into homogeneous degree
parts.  Each scalar becomes a numerator over an int denominator: a
Fraction or int gives two ints, and a quotient-ring element gives its int
vector, as an element over the denominator 1, and its denominator.  A
part stores its numerators over one int denominator of its own.  Sums,
differences and scalings work part by part on numerators over the lcm of
the denominators.  Products, :meth:`TruncatedSeries.invert`,
:func:`series_exp`, :func:`series_log` and :func:`solve_exp_sum` share
one graded kernel, :func:`_convolve`, with two coefficient loops, and
the ring a series carries (Q, or Q[t]/(m) for every result of quotient-
ring operands, whatever its coefficients cancel to) picks the loop.
Over Q a multiply-add is two int operations, plain ``*`` and ``+`` on
int numerators.  Over Q[t]/(m) the kernel adds every product for one
output coefficient into one int list in the ring's integer form: a
product is an int convolution (a truncation for m = t^d), and the list
is reduced by the integer form of m and made an element once, at the
end, which takes about 14% off nilpotent solves at order 8 and 10% off
quotient-field solves at order 6.
Every operation ends each output part with one gcd reduction
(:func:`_reduced`).  No Fraction is built by series arithmetic.  The
public ``terms`` map of exact scalars is a read-only view: a computed
series builds it from its parts, one scalar per coefficient, the first
time it is read, and keeps it.  A part in lowest terms is unique, so
``==`` compares two series part by part, denominators and numerators,
and builds no view.

Which product a pair of operands takes is decided in one place,
:meth:`TruncatedSeries.__mul__`: a scalar of any backend, or a constant
series, multiplies the other operand coefficient by coefficient through
:meth:`TruncatedSeries.scale`, and only two non-constant series reach
the kernel.  Callers multiply series with ``*`` and never dispatch on
constancy themselves.  The pairing of degree parts is one private
sum-of-products routine, :func:`_sum_of_products`, which sums a * b over
a list of pairs of series with one :func:`_convolve` call per degree; a
product is its one-pair case, a square pairs each two degree parts once
(which takes a third off the power table of the order-10 final check of
a 7-term relation, and a tenth off the whole check), and the solvers'
final check (:meth:`augvar.augment.AugmentationSeries.residual`) the
case with one pair per power of the solved variable.  A Laurent
polynomial at series values (:meth:`augvar.laurent.LaurentPoly.evaluate`)
is its terms, each built with ``*``, added with ``+``, as at scalar
values.

Rational roots of a univariate polynomial (:func:`rational_roots`) come
from lifting its roots modulo a small prime l to l-adic precision
M > 2 max(|f(0)|, |lead f|)^2 and reconstructing each fraction from its
residue, so their cost is polynomial in the bit size of the
coefficients, not in the size of a root.  The squarefree part f is
computed in integers: the polynomial gcd behind :func:`rational_roots`,
:func:`uni_gcd`, :func:`squarefree_part` and :func:`is_squarefree` is
one primitive integer remainder sequence (:func:`_int_gcd`), and each
candidate root is checked by exact integer evaluation of f.  The only
polynomial Euclid on Fractions left is the inverse in Q[t]/(m) for a
squarefree m; mod t^d the inverse is a fraction-free integer recurrence.

Values are immutable after construction and every operation is pure, so
everything here can be shared freely between threads.  A series caches
its ``terms`` view and a quotient-ring element its ``residue`` on first
read; two threads that race to build one build equal values, and either
may be kept.
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from types import MappingProxyType

from .errors import (
    BackendMismatch,
    ConstantTermNotOne,
    NonzeroConstantTerm,
    NotInvertible,
    VariableMismatch,
    ZeroPolynomial,
)
from .intlin import lattice_point, primitive_vector

DEFAULT_ORDER = 16


def frac(x):
    """Coerce an int, string or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError("cannot coerce %r to a rational number" % (x,))


def is_zero(x):
    """Zero test across all scalar backends."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


def invert_scalar(x):
    """Multiplicative inverse in the element's own backend."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        if x == 0:
            raise NotInvertible("division by zero")
        return 1 / x
    return x.invert()


def power(x, n, one):
    """x**n for an integer n >= 0 by square-and-multiply.

    ``one`` is a zero-argument callable giving the identity; it is called
    only for n = 0.  The first set bit takes x itself and the last bit is
    not followed by a squaring, so x**1 costs no product and x**2 one.
    """
    if n == 0:
        return one()
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return out
        x = x * x


# --------------------------------------------------------------------------
# univariate polynomials over Q
# --------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over Q, coefficients by ascending degree.

    The zero polynomial is the empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def constant(cls, c):
        return cls((frac(c),))

    @classmethod
    def gen(cls):
        """The polynomial t."""
        return cls((0, 1))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        """A polynomial of degree <= 0 equals its rational, so it hashes
        like it."""
        if len(self.coeffs) <= 1:
            return hash(self[0])
        return hash(("UniPoly", self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

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
        if self.is_zero() or other.is_zero():
            return UniPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("UniPoly powers must be nonnegative integers")
        return power(self, n, UniPoly.one)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.leading()
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            q = rem[-1] / dlead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        return UniPoly(tuple(c / lead for c in self.coeffs))

    def derivative(self):
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def evaluate(self, x):
        """Horner evaluation; x may live in any backend containing Q."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        return self.format("t")

    def format(self, var):
        return _join_terms((c, "" if i == 0 else var if i == 1 else "%s^%d" % (var, i))
                           for i, c in enumerate(self.coeffs) if c != 0)

    __repr__ = __str__


def _join_terms(terms):
    """A sum of (coefficient, monomial) terms as text, "0" when there are
    none.  An empty monomial stands for 1; a coefficient of 1 or -1 on a
    monomial is written as its sign alone, and a term that starts with "-"
    is joined by " - " rather than " + "."""
    parts = []
    for c, mono in terms:
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append("%s*%s" % (c, mono))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def uni_gcd(p, q):
    """Monic greatest common divisor; uni_gcd(p, 0) is monic(p)."""
    return UniPoly(_int_gcd(primitive_vector(p.coeffs), primitive_vector(q.coeffs))).monic()


def squarefree_part(p):
    """p / gcd(p, p'), made monic.  Undefined for the zero polynomial."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    return UniPoly(_squarefree_ints(primitive_vector(p.coeffs))).monic()


def is_squarefree(p):
    if p.is_zero():
        return False
    f = primitive_vector(p.coeffs)
    return len(_int_gcd(f, _int_derivative(f))) == 1


# Integer polynomials below are ascending int coefficient sequences with no
# trailing zero; the zero polynomial is empty.

def _primitive(f):
    g = gcd(*f)
    return f if g <= 1 else [c // g for c in f]


def _int_derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _int_gcd(f, g):
    """The gcd of the primitive integer polynomial f and the integer
    polynomial g, primitive with a positive leading coefficient, by the
    primitive remainder sequence (Collins, *Subresultants and reduced
    polynomial remainder sequences*, 1967): each pseudo-remainder is
    divided by its content, so every step stays in integers."""
    while g:
        g = _primitive(g)
        r = list(f)
        lead, top = g[-1], len(g) - 1
        while len(r) > top:
            c, k = r[-1], len(r) - 1 - top
            r = [x * lead for x in r]
            for i, x in enumerate(g, k):
                r[i] -= c * x
            while r and not r[-1]:
                r.pop()
        f, g = g, r
    return [-c for c in f] if f and f[-1] < 0 else f


def _squarefree_ints(f):
    """The squarefree part of the primitive integer polynomial f != 0, f
    divided exactly by its primitive gcd with f', leading coefficient
    positive."""
    g = _int_gcd(f, _int_derivative(f))
    q = [0] * (len(f) - len(g) + 1)
    r = list(f)
    lead = g[-1]
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(g) - 1] // lead
        if c:
            for i, x in enumerate(g, k):
                r[i] -= c * x
    return [-c for c in q] if q[-1] < 0 else q


def rational_roots(p):
    """All rational roots of p, sorted by (abs value, -sign).

    The ordering puts the smallest root first and prefers the positive one
    on ties, matching the root-selection rule used by the augmentation
    solver.

    The roots come from p-adic lifting (Loos, *Computing rational zeros of
    integral polynomials by p-adic expansion*, SIAM J. Comput. 1983), so
    the cost is polynomial in the bit size of the coefficients.  Past the
    zero root, p is scaled to a primitive integer polynomial, and its
    squarefree part f is taken in integers: an exact division by its
    primitive gcd with its derivative, so no Fraction or UniPoly is built
    before the lift.  A root a/b of f in lowest terms has b | lead(f) and
    a | f(0), so for a prime l not dividing lead(f) it reduces to a root
    of f mod l.  The smallest such l at which every root of f mod l is
    simple is used; every prime not dividing lead(f) disc(f) qualifies,
    so l stays small.  Each root mod l lifts to
    a unique l-adic root, known modulo M = l^(2^k) >
    2 max(|f(0)|, |lead(f)|)^2 after k quadratic Hensel steps, and a/b is
    the unique fraction with |a|, b <= sqrt(M/2) congruent to it, found by
    the half-extended Euclid on (M, root).  Every such fraction is
    checked by exact integer evaluation of f, sum f_i a^i b^(deg f - i)
    = 0, and the roots of f are the nonzero roots of p, so no root is
    returned that is not one.
    """
    if p.is_zero():
        raise ZeroPolynomial("every rational is a root of zero")
    coeffs = p.coeffs
    shift = 0
    while coeffs[shift] == 0:
        shift += 1
    roots = []
    if len(coeffs) - shift > 1:
        f = _squarefree_ints(primitive_vector(coeffs[shift:]))
        roots = [Fraction(a, b) for a, b in _lifted_candidates(f) if _is_root(f, a, b)]
    if shift:
        roots.append(Fraction(0))
    return sorted(roots, key=lambda r: (abs(r), -r))


def _is_root(f, a, b):
    """f(a/b) == 0 for the integer polynomial f and ints a, b != 0,
    tested as sum f_i a^i b^(deg f - i) == 0, in integers."""
    acc, bk = 0, 1
    for c in reversed(f):
        acc = acc * a + c * bk
        bk *= b
    return acc == 0


def _eval_mod(f, x, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _lifted_candidates(f):
    """Int pairs (a, b), one per simple root of f mod a small prime, whose
    fractions a/b are the only possible rational roots of the squarefree
    integer polynomial f (ascending coefficients, f(0) != 0, degree >= 1)."""
    lead, f0 = f[-1], f[0]
    df = _int_derivative(f)
    for ell in count(2):
        if lead % ell == 0 or any(ell % q == 0 for q in range(2, isqrt(ell) + 1)):
            continue
        residues = [r for r in range(ell) if _eval_mod(f, r, ell) == 0]
        if all(_eval_mod(df, r, ell) for r in residues):
            break
    bound = 2 * max(abs(f0), abs(lead)) ** 2
    out = []
    for r in residues:
        m = ell
        while m <= bound:
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        half = isqrt(m // 2)
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > half:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if r1 and 0 < abs(t1) <= half:
            out.append((r1, t1))
    return out


# --------------------------------------------------------------------------
# quotient rings Q[t]/(m)
# --------------------------------------------------------------------------

class QuotientRingElem:
    """Element of Q[t]/(m) for a monic modulus m that is squarefree or a
    power of t.

    A squarefree m gives the quotient fields of transverse roots; its
    irreducibility over Q is not checked, so a failed inversion, which
    raises :class:`NotInvertible`, signals a reducible modulus.  m = t^d
    gives the ring Q[alpha]/(alpha^d) of scheme-level witnesses, where the
    class of t is nilpotent of order d and an element inverts exactly when
    its constant term is nonzero, by an integer recurrence with no
    Euclid.  Any other modulus raises ValueError.

    An element is stored only in the integer form of its ring
    (:class:`_IntModulus`): an int vector of length deg m in powers of
    s = D t, reduced mod M, over one int denominator ``den >= 1`` coprime
    to the vector's content.  Sums, products, scalar products and ``==``
    work on that pair; a product of two elements over ``den = 1``, such as
    the numerators of a series, is an integer convolution reduced by M and
    nothing more.  ``residue``, the reduced representative as a
    :class:`UniPoly` of degree below deg m, is a view built from the pair
    on first read and then kept.  ``residue`` and ``modulus`` are
    read-only, and no operation changes an element.  An element is false
    exactly when it is zero, as an int or Fraction is.
    """

    __slots__ = ("_ring", "_nums", "_den", "_residue")

    def __new__(cls, residue, modulus):
        if not isinstance(modulus, UniPoly):
            modulus = UniPoly(modulus)
        if modulus.degree < 1:
            raise ValueError("modulus must be nonconstant")
        modulus = modulus.monic()
        if any(modulus.coeffs[:-1]) and not is_squarefree(modulus):
            raise ValueError("modulus must be squarefree or a power of t")
        if not isinstance(residue, UniPoly):
            residue = UniPoly.constant(residue)
        return _IntModulus(modulus).split(residue.coeffs)

    @classmethod
    def generator(cls, modulus):
        """The class of t."""
        return cls(UniPoly.gen(), modulus)

    @property
    def modulus(self):
        return self._ring.modulus

    @property
    def residue(self):
        """The reduced representative, built from the integer pair the
        first time it is read."""
        view = self._residue
        if view is None:
            view = self._ring.join(self._nums, self._den)
            self._residue = view
        return view

    def _coerce(self, other):
        if isinstance(other, QuotientRingElem):
            if other._ring is not self._ring and other._ring.modulus != self._ring.modulus:
                raise BackendMismatch("different quotient moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return self._ring.constant(other)
        if isinstance(other, UniPoly):
            return self._ring.split(other.coeffs)
        return None

    def is_zero(self):
        return not any(self._nums)

    def __bool__(self):
        return any(self._nums)

    def __eq__(self, other):
        """Equal residues over one modulus; elements over different moduli
        are unequal, though arithmetic mixing them raises."""
        try:
            other = self._coerce(other)
        except BackendMismatch:
            return False
        if other is None:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash(self.residue)

    def __add__(self, other):
        if type(other) is not QuotientRingElem or other._ring is not self._ring:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, da, b, db = self._nums, self._den, other._nums, other._den
        if da == db:
            return self._ring.element([x + y for x, y in zip(a, b)], da)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return self._ring.element([x * fa + y * fb for x, y in zip(a, b)], den)

    __radd__ = __add__

    def __neg__(self):
        return self._ring.element([-c for c in self._nums], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring = self._ring
        if type(other) is not QuotientRingElem or other._ring is not ring:
            if isinstance(other, (int, Fraction)):
                c = other.numerator
                return ring.element([x * c for x in self._nums], self._den * other.denominator)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._nums, _prefix(other._nums)
        n = ring.width
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[:n - i], i):
                    out[j] += x * y
        return ring.element(ring.reduce_ints(out), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("integer powers only")
        if n < 0:
            return self.invert() ** (-n)
        return power(self, n, lambda: self._ring.constant(1))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def invert(self):
        """The inverse mod m, or :class:`NotInvertible`.

        For m = t^d the inverse of N / den, with int entries N_i, is
        fraction-free: B_0 = 1, B_k = -sum_{i=1..k} N_i B_{k-i} N_0^(i-1)
        gives den sum_k B_k N_0^(d-1-k) t^k / N_0^d, reduced once, and a
        zero N_0 is not invertible.  A squarefree m takes the
        half-extended Euclid on the residue.
        """
        ring = self._ring
        if not ring.low:
            return ring.power_series_inverse(self._nums, self._den)
        g, s = _half_ext_gcd(self.residue, self.modulus)
        if not g.is_constant():
            raise NotInvertible(
                "gcd(residue, modulus) = %s is nonconstant" % g.format("t"))
        return self._ring.split(s.coeffs) * (1 / g.leading())

    def __str__(self):
        return "(%s mod %s)" % (self.residue.format("t"), self.modulus.format("t"))

    __repr__ = __str__


class _IntModulus:
    """Q[t]/(m) in integer form, for the monic m = t^d + sum m_i t^i.

    With D the least common denominator of the m_i, the class s = D t is a
    root of the monic integer polynomial M(s) = D^d m(s / D), whose
    coefficients are m_i D^(d-i).  A residue sum r_i t^i is written in
    powers of s as sum (r_i / D^i) s^i, an int vector of length d over one
    int denominator, so a product is an integer convolution reduced by M,
    with no Fraction, and a rational modulus stays exact on the same path.
    For m = t^d, D = 1 and M = t^d, so the reduction is a truncation and
    a product computes only the entries below d.
    """

    __slots__ = ("modulus", "degree", "low", "scale", "width")

    def __init__(self, modulus):
        d = modulus.degree
        scale = lcm(*(c.denominator for c in modulus.coeffs))
        self.modulus = modulus
        self.degree = d
        self.scale = scale
        self.low = [(i, c.numerator * (scale ** (d - i) // c.denominator))
                    for i, c in enumerate(modulus.coeffs[:d]) if c]
        self.width = 2 * d - 1 if self.low else d      # product entries before reduction

    def element(self, nums, den=1):
        """The element nums / den in lowest terms, for a reduced int
        vector ``nums`` of length d and an int den >= 1; a den of 1 takes
        no gcd."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        out = object.__new__(QuotientRingElem)
        out._ring = self
        out._nums = nums
        out._den = den
        out._residue = None
        return out

    def constant(self, c):
        """The element of the int or Fraction ``c``."""
        return self.element([c.numerator] + [0] * (self.degree - 1), c.denominator)

    def split(self, coeffs):
        """The element with the rational t-coefficients ``coeffs``."""
        scale = self.scale
        dens = [c.denominator * scale ** i for i, c in enumerate(coeffs)]
        den = lcm(*dens)
        nums = self.reduce_ints([c.numerator * (den // e) for c, e in zip(coeffs, dens)])
        return self.element(nums + [0] * (self.degree - len(nums)), den)

    def join(self, nums, den):
        """The residue nums / den, read in powers of s, as a UniPoly in t."""
        scale = self.scale
        return UniPoly([Fraction(c * scale ** i, den) for i, c in enumerate(nums)])

    def power_series_inverse(self, nums, den):
        """The inverse of nums / den for m = t^d, by the integer
        recurrence of :meth:`QuotientRingElem.invert`, over the nonzero
        N_i alone."""
        n0 = nums[0]
        if not n0:
            raise NotInvertible("constant term is zero mod t^%d" % self.degree)
        tail = [(i, c) for i, c in enumerate(nums) if i and c]
        pows = [1]                          # N_0^i for i < d
        for _ in nums[1:]:
            pows.append(pows[-1] * n0)
        b = [1]
        for k in range(1, self.degree):
            acc = 0
            for i, c in tail:
                if i > k:
                    break
                acc += c * b[k - i] * pows[i - 1]
            b.append(-acc)
        top = pows[-1] * n0
        if top < 0:
            top, den = -top, -den
        return self.element([x * den * p for x, p in zip(b, reversed(pows))], top)

    def reduce_ints(self, nums):
        """The int list ``nums`` (powers of s, consumed) modulo M."""
        d = self.degree
        if len(nums) > d:
            low = self.low
            if low:
                for k in range(len(nums) - 1, d - 1, -1):
                    top = nums[k]
                    if top:
                        for i, c in low:
                            nums[k - d + i] -= top * c
            del nums[d:]
        return nums


def _half_ext_gcd(a, m):
    """Return (g, s) with g = gcd(a, m) and s*a = g mod m."""
    r0, r1 = a, m
    s0, s1 = UniPoly.one(), UniPoly.zero()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    return r0, s0 % m


SCALAR_TYPES = (int, Fraction, QuotientRingElem)


# --------------------------------------------------------------------------
# truncated multivariate power series
# --------------------------------------------------------------------------


class TruncatedSeries:
    """Multivariate power series truncated past total degree ``order``.

    A series is stored as its ``order + 1`` homogeneous degree parts in
    the numerator/denominator form of the module docstring (int
    numerators, or quotient-ring elements over the denominator 1), and all
    arithmetic reads and writes that form.  ``terms``, the map from
    exponent tuples (nonnegative, total degree at most ``order``) to
    nonzero coefficients in one scalar backend, is a read-only view: the
    validated input of the constructor, or, for a computed series, built
    from the parts on first read and then kept.  A non-integer exponent
    raises :class:`PreconditionViolation`, and a coefficient that is not
    an int, Fraction or quotient-ring element raises TypeError.  Products
    of two non-constant series, inverses, exponentials and logarithms go
    through one graded kernel, :func:`_convolve`; a product with a scalar
    or a constant series is :meth:`scale`; sums and negation work part by
    part.  The quotient-ring coefficients of a series share one modulus:
    terms over two moduli, or operands over different ones, raise
    :class:`BackendMismatch`.
    """

    __slots__ = (
        "variables", "order",
        # _parts: the ``order + 1`` degree parts ``(items, den)``, the form
        # in which the kernel reads a series.  ``items`` lists ``(key,
        # numerator)`` for the terms of that total degree, and the
        # coefficient is numerator / den, one int ``den`` per part.  ``key``
        # packs the exponent in base ``order + 1``, so adding keys adds
        # exponents.
        "_parts",
        # _ring: the _IntModulus of the coefficients, None over Q.
        "_ring",
        "_terms")

    def __init__(self, variables, order, terms=None):
        variables = tuple(variables)
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValueError("truncation order must be a nonnegative integer")
        base = order + 1
        clean = {}
        split = {}
        ring = None
        for exp, c in (terms or {}).items():
            exp = lattice_point(exp)
            if len(exp) != len(variables):
                raise VariableMismatch("exponent length != variable count")
            if any(e < 0 for e in exp):
                raise ValueError("series exponents must be nonnegative")
            degree = sum(exp)
            if degree > order:
                continue
            if isinstance(c, QuotientRingElem):
                ring = _join(ring, c._ring)
            elif not isinstance(c, (int, Fraction)):
                raise TypeError("cannot use %r as a series coefficient" % (c,))
            if is_zero(c):
                continue
            clean[exp] = c
            key = 0
            for e in reversed(exp):
                key = key * base + e
            split.setdefault(degree, []).append((key,) + _ratio(c))
        parts = [([], 1)] * base
        for degree, part in split.items():
            den = lcm(*(d for _, _, d in part))
            parts[degree] = ([(key, n if d == den else n * (den // d)) for key, n, d in part],
                             den)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_ring", ring)
        object.__setattr__(self, "_terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def _from_graded(cls, variables, order, parts, ring=None):
        """The series over the tuple ``variables`` truncated past
        ``order`` with the ``order + 1`` degree parts ``parts`` in the form
        of the ``_parts`` slot, each with nonzero numerators and in lowest
        terms, over ``ring``; its ``terms`` view is built when first read.
        Nothing is checked: callers inside the package build parts this way."""
        out = object.__new__(cls)
        object.__setattr__(out, "variables", variables)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "_parts", parts)
        object.__setattr__(out, "_ring", ring)
        object.__setattr__(out, "_terms", None)
        return out

    def _make(self, parts, ring):
        """A series over this one's variables and at this one's
        truncation, with the degree parts ``parts`` over ``ring``, as
        :meth:`_from_graded` takes them."""
        return TruncatedSeries._from_graded(self.variables, self.order, parts, ring)

    @property
    def terms(self):
        """The coefficients as a read-only map {exponent tuple: scalar}."""
        view = self._terms
        if view is None:
            view = self._view()
            object.__setattr__(self, "_terms", view)
        return view

    def _view(self):
        """The ``terms`` map of a computed series, one scalar per
        coefficient built from the degree parts."""
        base = self.order + 1
        nvars = len(self.variables)
        terms = {}
        for items, den in self._parts:
            for key, n in items:
                exp = []
                for _ in range(nvars):
                    key, e = divmod(key, base)
                    exp.append(e)
                terms[tuple(exp)] = _scalar(n, den)
        return MappingProxyType(terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, order):
        return cls(variables, order, {})

    @classmethod
    def constant(cls, c, variables, order):
        variables = tuple(variables)
        return cls(variables, order, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables, order):
        return cls.constant(1, variables, order)

    @classmethod
    def variable(cls, name, variables, order):
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch("unknown series variable %r" % name)
        index = variables.index(name)
        parts = [([], 1)] * (order + 1)
        terms = {}
        if order:
            parts[1] = ([((order + 1) ** index, 1)], 1)
            terms[tuple(int(v == name) for v in variables)] = Fraction(1)
        out = cls._from_graded(variables, order, parts)
        object.__setattr__(out, "_terms", MappingProxyType(terms))
        return out

    # -- structure ---------------------------------------------------------

    def _check(self, other):
        """The ring of this series and the series ``other`` together."""
        if self.variables != other.variables:
            raise VariableMismatch("series over different variables")
        if self.order != other.order:
            raise VariableMismatch("series with different truncation orders")
        return _join(self._ring, other._ring)

    def is_zero(self):
        return not any(items for items, _ in self._parts)

    def is_constant(self):
        """True when no term has positive degree (the zero series too)."""
        return not any(items for items, _ in self._parts[1:])

    def constant_term(self):
        items, den = self._parts[0]
        return _scalar(items[0][1], den) if items else Fraction(0)

    def __eq__(self, other):
        """Equal variables, orders and degree parts.  A part is in lowest
        terms, so two equal parts have the same denominator and the same
        numerator for each key; no ``terms`` view is built.  Series over
        different variables or orders are unequal, and so are series whose
        coefficients lie over different quotient moduli, since their
        elements are."""
        if isinstance(other, SCALAR_TYPES):
            other = TruncatedSeries.constant(other, self.variables, self.order)
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.variables != other.variables or self.order != other.order:
            return False
        return all(da == db and dict(a) == dict(b)
                   for (a, da), (b, db) in zip(self._parts, other._parts))

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SCALAR_TYPES):
            return TruncatedSeries.constant(other, self.variables, self.order)
        return other if isinstance(other, TruncatedSeries) else None

    def _sum(self, other, sign):
        """self + sign * other for sign = 1 or -1, one degree part at a
        time."""
        ring = self._check(other)
        return self._make([_part_sum(a, b, sign) for a, b in zip(self._parts, other._parts)],
                          ring)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._make([([(k, -n) for k, n in items], den)
                           for items, den in self._parts], self._ring)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product with a scalar or a series.

        A scalar, or a constant series, multiplies the other operand
        through :meth:`scale`, so the graded kernel only sees two
        non-constant series.  There, degree n of the product is
        sum_{i+j=n} a_i b_j over one denominator per operand part.  Only
        nonzero parts are paired, in ascending i for each n, and only a
        degree that receives a pair takes a kernel call, so a monomial or
        a sparse operand costs its nonzero parts alone."""
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        ring = self._check(other)
        if other.is_constant():
            return self._scaled(other.constant_term(), ring)
        if self.is_constant():
            return other._scaled(self.constant_term(), ring)
        return _sum_of_products([(self, other)])

    __rmul__ = __mul__

    def scale(self, c):
        """The product with the scalar ``c``, part by part: numerators
        times the numerator of c over the part denominator times the
        denominator of c.  Anything but an int, Fraction or quotient-ring
        element raises TypeError."""
        if not isinstance(c, SCALAR_TYPES):
            raise TypeError("cannot scale a series by %r" % (c,))
        ring = c._ring if isinstance(c, QuotientRingElem) else None
        return self._scaled(c, _join(self._ring, ring))

    def _scaled(self, c, ring):
        """The product with the scalar ``c``, over ``ring``."""
        if c == 1 and ring is self._ring:
            return self
        n0, d0 = _ratio(c)
        return self._make([_reduced([(k, n * n0) for k, n in items], den * d0)
                           if items else (items, den) for items, den in self._parts], ring)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("integer powers only")
        if n < 0:
            return self.invert() ** (-n)
        return power(self, n, lambda: TruncatedSeries.one(self.variables, self.order))

    def invert(self):
        """Inverse of a series f with invertible constant term c, one
        homogeneous degree at a time.

        From f g = 1, the degree-n parts g_n of g = f^{-1} satisfy

            g_0 = c^{-1},   g_n = -c^{-1} sum_{k=1..n} f_k g_{n-k}

        (Brent-Kung 1978).  Each g_n is one kernel call over the parts
        of f, scaled once by -c^{-1}, and the parts of g already found;
        every part carries its own denominator, reduced by one gcd when
        its numerators are ints.  A zero c raises :class:`NotInvertible`.
        """
        if not self._parts[0][0]:
            raise NotInvertible("series with zero constant term")
        n0, d0 = _ratio(invert_scalar(self.constant_term()))
        f = [([(key, -n * n0) for key, n in items], den * d0)
             for items, den in self._parts]
        parts = [([(0, n0)], d0)]
        ring = self._ring
        for n in range(1, self.order + 1):
            parts.append(_convolve([(f[k], parts[n - k]) for k in range(1, n + 1)], ring))
        return self._make(parts, ring)


def _join(a, b):
    """The one ring of two operands over the rings ``a`` and ``b`` (an
    :class:`_IntModulus` or None for Q); two different moduli raise
    :class:`BackendMismatch`."""
    if a is None or a is b:
        return b
    if b is not None and a.modulus != b.modulus:
        raise BackendMismatch("different quotient moduli")
    return a


def _ratio(c):
    """A scalar as (numerator, denominator) with an int denominator: two
    ints for an int or a Fraction; for a quotient-ring element, its int
    vector as an element over den = 1, and its den."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    return (c if c._den == 1 else c._ring.element(c._nums)), c._den


def _scalar(n, den):
    """The coefficient n / den for an int den >= 1: an int or Fraction for
    an int n (an int exactly when den divides n), and for a quotient-ring
    numerator over den = 1 the element in lowest terms."""
    if type(n) is int:
        return n if den == 1 else Fraction(n, den)
    return n._ring.element(n._nums, den)


def _reduced(items, den):
    """The degree part of the ``(key, numerator)`` pairs ``items`` over the
    int ``den``, with zero numerators dropped, and numerators and
    denominator divided by the gcd of the denominator and every int
    numerator or int vector entry of a quotient-ring numerator."""
    items = [(k, n) for k, n in items if n]
    if den != 1:
        g = den
        for _, n in items:
            g = gcd(g, n) if type(n) is int else gcd(g, *n._nums)
            if g == 1:
                break
        if g != 1:
            items = [(k, n // g if type(n) is int
                      else n._ring.element([c // g for c in n._nums])) for k, n in items]
            den //= g
    return items, den


def _part_sum(a, b, sign=1):
    """The degree part a + sign * b, for sign = 1 or -1, over the lcm of
    the two part denominators."""
    (a, da), (b, db) = a, b
    if not b:
        return a, da
    if not a and sign == 1:
        return b, db
    den = lcm(da, db)
    fa, fb = den // da, sign * (den // db)
    acc = dict(a) if fa == 1 else {k: n * fa for k, n in a}
    for k, n in b:
        if fb != 1:
            n = n * fb
        acc[k] = acc[k] + n if k in acc else n
    return _reduced(acc.items(), den)


def _sum_of_products(operands):
    """The series sum a * b over ``operands``, a nonempty list of pairs
    ``(a, b)`` of series over one set of variables at one order, over the
    ring of them all.  Degree n of the sum is sum a_i b_j over every pair
    and every i + j = n.  Only nonzero parts are paired, in ascending i
    for each operand pair, and all pairs that reach degree n go to one
    :func:`_convolve` call, so a degree that no pair reaches takes none
    and the whole sum takes at most ``order + 1``.  A square, a pair of
    one series with itself, pairs each i < j once, with the numerators of
    part i doubled, and each i with itself once."""
    first = operands[0][0]
    order = first.order
    ring = None
    pairs = [[] for _ in range(order + 1)]
    for a, b in operands:
        ring = _join(_join(ring, a._ring), b._ring)
        square = a is b
        b = [(j, part) for j, part in enumerate(b._parts) if part[0]]
        for i, part in enumerate(a._parts):
            if part[0]:
                if square:
                    if 2 * i > order:
                        break
                    twice = ([(k, 2 * n) for k, n in part[0]], part[1])
                for j, other in b:
                    if i + j > order:
                        break
                    if not square:
                        pairs[i + j].append((part, other))
                    elif j >= i:
                        pairs[i + j].append((part if j == i else twice, other))
    return first._make([_convolve(ps, ring) if ps else ([], 1) for ps in pairs], ring)


def _convolve(pairs, ring, divisor=1):
    """The one coefficient loop: sum a * b / divisor over ``pairs`` of
    degree parts ``(items, den)`` as ``TruncatedSeries._parts`` holds
    them, over ``ring``, the ``_ring`` of their series.  The result is one
    degree part over the lcm of the denominators of the pairs with two
    nonzero parts times ``divisor``, reduced by :func:`_reduced`.

    The ring picks the loop.  Over Q (``ring`` None) every numerator is
    an int, and numerators are multiplied and added with plain ``*`` and
    ``+``, two int operations per multiply-add.  Over Q[t]/(m)
    :func:`_vector_sum` adds the products into int vectors of the ring,
    whatever the order of the pairs.
    """
    pairs = [(a, b, da * db) for (a, da), (b, db) in pairs if a and b]
    den = 1
    for _, _, d in pairs:
        den = lcm(den, d)
    if ring is not None:
        return _vector_sum(pairs, den, divisor, ring)
    acc = {}
    for a, b, d in pairs:
        f = den // d
        for k1, n1 in a:
            if f != 1:
                n1 = n1 * f
            for k2, n2 in b:
                k = k1 + k2
                if k in acc:
                    acc[k] += n1 * n2
                else:
                    acc[k] = n1 * n2
    return _reduced(acc.items(), den * divisor)


def _vector_sum(pairs, den, divisor, ring):
    """The loop of :func:`_convolve` over the quotient ring ``ring``, for
    ``pairs`` ``(a, b, da * db)`` over the common denominator ``den``.

    Each output key adds its products into one int list of length
    ``width`` in the ring's integer form, an int numerator counting as a
    vector of length 1: a product is an int convolution, cut to ``width``,
    which for m = t^d is the truncation.  Each list is reduced mod M and
    made an element once, at the end.  A product of two int numerators
    stays an int sum, so a coefficient that no quotient-ring numerator
    reaches stays rational, as with ``*`` and ``+``.
    """
    width = ring.width
    acc, vec = {}, {}
    for a, b, d in pairs:
        f = den // d
        b = [(k, type(n) is int, [n] if type(n) is int else _prefix(n._nums)) for k, n in b]
        for k1, n1 in a:
            xint = type(n1) is int
            x = [n1] if xint else n1._nums
            if f != 1:
                x = [c * f for c in x]
            for k2, yint, y in b:
                k = k1 + k2
                if xint and yint:
                    acc[k] = acc[k] + x[0] * y[0] if k in acc else x[0] * y[0]
                    continue
                v = vec.get(k)
                if v is None:
                    v = vec[k] = [0] * width
                for i, c in enumerate(x):
                    if c:
                        for j, e in enumerate(y[:width - i], i):
                            v[j] += c * e
    for k, v in vec.items():
        v[0] += acc.get(k, 0)
        acc[k] = ring.element(ring.reduce_ints(v))
    return _reduced(acc.items(), den * divisor)


def _prefix(nums):
    """The int vector ``nums`` without its trailing zeros, at least one
    entry long, so a product costs the nonzero prefix alone."""
    n = len(nums)
    while n > 1 and not nums[n - 1]:
        n -= 1
    return nums[:n]


def series_exp(s):
    """exp(s) for a series with zero constant term, one homogeneous degree
    at a time.

    The Euler operator sum_i x_i d/dx_i multiplies a degree-n part by n and
    is a derivation, so E = exp(s) satisfies

        n E_n = sum_{k=1..n} k s_k E_{n-k}

    for the degree-n parts E_n of E and s_k of s.  Each E_n is one kernel
    call over the weighted parts k s_k, each over the denominator of s_k,
    and the parts of E already found, each over its own denominator.
    """
    graded = s._parts
    if graded[0][0]:
        raise NonzeroConstantTerm("series exponential needs zero constant term")
    weighted = [([(key, k * n) for key, n in items], den)
                for k, (items, den) in enumerate(graded)]
    parts = [([(0, 1)], 1)]
    for n in range(1, s.order + 1):
        parts.append(_convolve([(weighted[k], parts[n - k]) for k in range(1, n + 1)],
                               s._ring, n))
    return s._make(parts, s._ring)


def series_log(u):
    """log(u) for a series with constant term one, one homogeneous degree
    at a time.

    With L = log(u), the Euler operator gives u E(L) = E(u), so for the
    degree-n parts L_n of L and u_n of u

        n L_n = n u_n - sum_{k=1..n-1} k L_k u_{n-k}.

    Each L_n is one kernel call: u_n paired with the constant n, and each
    -k L_k paired with a nonzero u_{n-k}, every part over its own
    denominator.  So a sparse u, such as 1 + mu_1 + ... + mu_m, costs a
    fixed number of pairs per degree.
    """
    if u.constant_term() != 1:
        raise ConstantTermNotOne("series logarithm needs constant term one")
    graded, ring = u._parts, u._ring
    support = [(i, part) for i, part in enumerate(graded) if i and part[0]][::-1]
    parts = [([], 1)]
    weighted = [([], 1)]                    # -k L_k, by degree k
    for n in range(1, u.order + 1):
        pairs = [(graded[n], ([(0, n)], 1))]
        pairs += [(weighted[n - i], part) for i, part in support if i < n]
        items, den = _convolve(pairs, ring, n)
        parts.append((items, den))
        weighted.append(([(key, -n * x) for key, x in items], den))
    return u._make(parts, ring)


def solve_exp_sum(groups, target):
    """The series s with zero constant term that solves

        sum_j D_j exp(j s) = target

    for ``groups`` {j: D_j}, a nonempty map from ints to series over one
    set of variables at one truncation order, and a scalar ``target``,
    one homogeneous degree at a time: the relaxed evaluation of van der
    Hoeven (*Relax, but don't be too lazy*, 2002) with naive products.

    E^(j) = exp(j s) satisfies n E^(j)_n = sum_{k=1..n} k j s_k
    E^(j)_{n-k}, as in :func:`series_exp`, and only its k = n term holds
    s_n, as j s_n.  So at degree n one kernel call over the pairs (D_j[i],
    E^(j)[n - i]), with E^(j)[n] taken without j s_n and only the nonzero
    parts D_j[i], listed once, paired, gives the residual R_n, and R_n +
    c s_n = 0 for the constant c = sum_j j D_j[0].  Hence

        s_n = -R_n / c,   then E^(j)[n] += j s_n,

    and each part of s and of every E^(j) is found once.  Degree 0 is the
    check sum_j D_j[0] = target; a nonzero degree-0 residual raises
    :class:`NonzeroConstantTerm`.  c is inverted at the first degree with
    R_n != 0: a zero c raises :class:`NotInvertible` ("series with zero
    constant term"), and a zero-divisor c whatever :func:`invert_scalar`
    raises.
    """
    template = next(iter(groups.values()))
    ring = target._ring if isinstance(target, QuotientRingElem) else None
    for g in groups.values():
        ring = _join(ring, g._ring)
    graded = {j: g._parts for j, g in groups.items()}
    one = ([(0, 1)], 1)
    n0, d0 = _ratio(target)
    residual = _convolve([(g[0], one) for g in graded.values()] + [(([(0, -n0)], d0), one)],
                         ring)
    if residual[0]:
        raise NonzeroConstantTerm("residual has a degree-0 term")
    slope = _convolve([(g[0], ([(0, j)], 1)) for j, g in graded.items() if j], ring)
    exps = {j: [one] for j in graded if j}   # E^(j), by degree
    weighted = {j: [([], 1)] for j in exps}  # k j s_k, by degree k
    support = {j: [(i, part) for i, part in enumerate(graded[j]) if i and part[0]]
               for j in exps}                # the nonzero parts of D_j past degree 0
    parts = [([], 1)]                        # s, by degree
    step = None                              # -1/c as (numerator, denominator)
    for n in range(1, template.order + 1):
        pairs = []
        partial = {}                         # E^(j)[n] without j s_n
        for j, e in exps.items():
            w = weighted[j]
            partial[j] = p = _convolve([(w[k], e[n - k]) for k in range(1, n)], ring, n)
            pairs.append((graded[j][0], p))
            for i, part in support[j]:
                if i > n:
                    break
                pairs.append((part, e[n - i]))
        if 0 in graded:
            pairs.append((graded[0][n], one))
        items, den = _convolve(pairs, ring)
        if items:
            if step is None:
                if not slope[0]:
                    raise NotInvertible("series with zero constant term")
                step = _ratio(-invert_scalar(_scalar(slope[0][0][1], slope[1])))
            items, den = _reduced([(key, x * step[0]) for key, x in items], den * step[1])
        parts.append((items, den))
        for j, e in exps.items():
            weighted[j].append(([(key, n * j * x) for key, x in items], den))
            e.append(_part_sum(partial[j], ([(key, j * x) for key, x in items], den)))
    return template._make(parts, ring)
