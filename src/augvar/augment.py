"""Constructive augmentation machinery.

Given a lifted relation W with nonzero constant term and nonnegative
exponents, an augmentation is built by expanding around a transverse root
of the one-variable restriction W(0, ..., 0, y_k):

* pick kappa with W(0,...,0,kappa) = 0 and derivative nonzero there,
* solve W(mu_1, ..., mu_{k-1}, kappa exp(s)) = 0 for a power series s with
  zero constant term, truncated past a given total degree.

The series is solved one total degree at a time.  Group W once as
sum_j C_j(mu) y_k^j and put D_j = kappa^j C_j; then F(s) = W(mu, kappa
exp(s)) = sum_j D_j exp(j s).  Since s has no constant term, the
degree-n part of F is R_n + c s_n, where R_n involves only s_1, ...,
s_{n-1} and c = kappa r'(kappa) is the constant sum_j j D_j[0], nonzero
for a transverse root of the restriction r.  So

    s_n = -R_n / c,

and each degree part of s, and of every exp(j s), is found once, with
one pass of each product: the relaxed evaluation of van der Hoeven
(*Relax, but don't be too lazy*, 2002), done by
:func:`rings.solve_exp_sum`.  c is inverted at most once per solve, and
no series is inverted.  Degree 0 is the check r(kappa) = target, and it
is the only place the loop can stall: a nonzero degree-0 residual raises
:class:`DoubleRoot`, whose ``variable`` and ``order`` name the variable
and order 0.

The returned series is re-checked by an independent substitution,
:meth:`AugmentationSeries.residual`.  The substitution for mu is the
identity, so the check groups W by powers of y_k itself and sums every
C_j (kappa exp(s))^j in one kernel pass per degree, the exponential from
:func:`series_exp` and the powers from generic series products: it
shares no code with the solve.  A nonzero result raises
:class:`VerificationFailure`, which ``python -O`` does not strip.

The nilpotent variant runs the same loop over Q[t]/(t^d)[[mu]], where
alpha, the class of t, is nilpotent of order d.  It puts kappa (1 + alpha)
in place of kappa and the target W_i(0, ..., kappa (1 + alpha)) in place
of zero, producing a relation image that is nilpotent of order exactly
the multiplicity d.

Also here: partition components of disconnected Legendrians, the
hard-coded degree-one DGA relation check for two and three sheets with
deterministic witness construction, and exact Reeb-chord degrees.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    BackendMismatch,
    DoubleRoot,
    IndexOutOfRange,
    MissingAssignment,
    NoRootAvailable,
    NonzeroConstantTerm,
    NotInvertible,
    NotInvertibleAtPoint,
    PreconditionViolation,
    VariableMismatch,
    VerificationFailure,
)
from .laurent import LaurentPoly, _power_table, grlex_key
from .rings import (
    DEFAULT_ORDER,
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    _sum_of_products,
    frac,
    invert_scalar,
    is_squarefree,
    is_zero,
    rational_roots,
    series_exp,
    solve_exp_sum,
)


# --------------------------------------------------------------------------
# transverse roots
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TransverseRoot:
    """A simple root of the one-variable restriction of a relation."""

    kappa: object            # Fraction, or QuotientRingElem over a squarefree m
    witness: object          # r'(kappa), nonzero
    variable: str
    restriction: UniPoly


def _var_name(relation, k):
    if isinstance(k, str):
        if k not in relation.variables:
            raise IndexOutOfRange("unknown variable %r" % k)
        return k
    try:
        return relation.variables[k]
    except IndexError:
        raise IndexOutOfRange("variable index %r out of range" % k) from None


def find_transverse_root(relation, k, factor=None):
    """Root selection for the restriction W(0, ..., 0, y_k).

    Rational roots are preferred (smallest absolute value, positive on
    ties); otherwise ``factor`` must supply a squarefree polynomial m
    dividing the restriction, and kappa becomes the class of t in
    Q[t]/(m).  Irreducibility of m is not checked: the caller must supply
    an irreducible m for the quotient to be a field.

    r and ``witness`` = r'(kappa) are computed once for either kind of
    root, and the solvers reuse them unchecked: a rational kappa is a root
    because :func:`rational_roots` evaluates each candidate exactly, a
    root class because m divides r.

    Raises :class:`NegativeExponentAtZero` (from
    :meth:`LaurentPoly.set_vars_zero`), :class:`NoRootAvailable` or
    :class:`DoubleRoot`; the last names the variable and order 0, and
    proposes no other coordinates to retry in.
    """
    var = _var_name(relation, k)
    r = relation.set_vars_zero(var)
    if r.is_constant():
        raise NoRootAvailable("restriction in %r is constant" % var)
    if r[0] == 0:
        raise NoRootAvailable(
            "restriction has zero constant term; clear the relation to a vertex first")
    roots = [x for x in rational_roots(r) if x != 0]
    if roots:
        kappa = roots[0]
        root = "rational root %s of the restriction" % kappa
    elif factor is None:
        raise NoRootAvailable(
            "no rational root; supply a squarefree factor of %s" % r.format("y"))
    else:
        m = (factor if isinstance(factor, UniPoly) else UniPoly(factor)).monic()
        if m.degree < 1 or not is_squarefree(m):
            raise NoRootAvailable("supplied factor must be nonconstant and squarefree")
        if not (r % m).is_zero():
            raise NoRootAvailable("supplied factor does not divide the restriction")
        kappa = QuotientRingElem.generator(m)
        root = "root class of %s" % m.format("t")
    witness = r.derivative().evaluate(kappa)
    if is_zero(witness):
        raise DoubleRoot("%s is not simple" % root, variable=var, order=0)
    return TransverseRoot(kappa, witness, var, r)


# --------------------------------------------------------------------------
# formal power-series augmentations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentationSeries:
    """A solved augmentation: y_i -> mu_i for i != k, y_k -> kappa exp(s).

    ``series`` is s (zero constant term); ``image`` is the constant value
    the relation maps to (zero for the honest solver, a nilpotent constant
    for the scheme variant); ``order`` is the truncation order to which the
    residual was verified by substitution.
    """

    relation: LaurentPoly
    variable: str
    kappa: object
    series: TruncatedSeries
    order: int
    image: object = Fraction(0)
    multiplicity: int = 1

    def residual(self):
        """W(mu, kappa exp(s)) - image, by the independent substitution of
        the module docstring.

        W is grouped here, apart from the solver's
        :func:`_grouped_by_exponent`, as sum_j C_j(mu) y_k^j, each C_j a
        series built from its terms; y_k^j = (kappa exp(s))^j comes from
        one power table of generic products (a negative j from powers of
        the inverse), and one :func:`_sum_of_products` pass sums every
        C_j y_k^j.  A series over other variables than mu, or at another
        order than the point, raises :class:`VariableMismatch`, and
        coefficients over two quotient moduli raise
        :class:`BackendMismatch`.
        """
        s, order = self.series, self.order
        mu_vars = _mu_variables(self.relation, self.variable)
        if s.variables != mu_vars or s.order != order:
            raise VariableMismatch("series over other variables or at another order")
        if len({c.modulus for c in (self.kappa, *self.relation.terms.values())
                if isinstance(c, QuotientRingElem)}) > 1:
            raise BackendMismatch("different quotient moduli")
        k = self.relation.variables.index(self.variable)
        groups = {}
        for exp, c in self.relation.terms.items():
            groups.setdefault(exp[k], {})[exp[:k] + exp[k + 1:]] = c
        try:
            powers = _power_table(series_exp(s).scale(self.kappa), groups)
        except NotInvertible as err:
            raise NotInvertibleAtPoint(
                "value for %r is not invertible: %s" % (self.variable, err)) from None
        one = [([(0, 1)], 1)]
        out = s._make(_sum_of_products(
            [(TruncatedSeries(mu_vars, order, terms)._parts,
              powers[j]._parts if j else one) for j, terms in groups.items()], order))
        return out if is_zero(self.image) else out - self.image

    def series_coefficients(self):
        """Terms of s in deterministic graded-lex order."""
        return [(exp, self.series.terms[exp])
                for exp in sorted(self.series.terms, key=grlex_key)]


def _mu_variables(relation, var):
    return tuple(v for v in relation.variables if v != var)


def _grouped_by_exponent(relation, k):
    """W = sum_j C_j(mu) y_k^j as {j: terms of C_j}, each C_j keyed by the
    exponents of mu, the variables other than y_k."""
    groups = {}
    for exp, c in relation.terms.items():
        groups.setdefault(exp[k], {})[exp[:k] + exp[k + 1:]] = c
    return groups


def _series_solution(relation, var, kap, target, order):
    """Solve W(mu, kap exp(s)) = target for s with zero constant term,
    degree by degree, as the module docstring describes.

    W is grouped once by the exponent j of ``var``, each D_j = kap^j C_j
    is one series built from its already multiplied coefficients, at the
    full order, and :func:`solve_exp_sum` solves sum_j D_j exp(j s) =
    target.  A negative j takes kap^-1 once; a zero or
    non-invertible kap then raises :class:`NotInvertibleAtPoint` before
    anything else is checked.  The only stall is at degree 0, where
    r(kap) != target raises :class:`DoubleRoot`; the solvers' final check
    substitutes independently.
    """
    mu_vars = _mu_variables(relation, var)
    groups = _grouped_by_exponent(relation, relation.variables.index(var))
    if any(j < 0 for j in groups):
        if is_zero(kap):
            raise NotInvertibleAtPoint("value for %r is not invertible: series with "
                                       "zero constant term" % var)
        try:
            inverse = invert_scalar(kap)
        except NotInvertible as err:
            raise NotInvertibleAtPoint(
                "value for %r is not invertible: %s" % (var, err)) from None
    coefficients = {}
    for j, terms in groups.items():
        if j:
            kj = kap ** j if j > 0 else inverse ** -j
            terms = {e: c * kj for e, c in terms.items()}
        coefficients[j] = TruncatedSeries(mu_vars, order, terms)
    try:
        return solve_exp_sum(coefficients, target)
    except NonzeroConstantTerm:
        raise DoubleRoot("iteration stalled in %r at order 0: residual has a "
                         "degree-0 term" % var, variable=var, order=0) from None


def _simple_root(relation, k, kappa, factor):
    """The solvers' common preamble: the solved variable, kappa and the
    restriction r = W(0, ..., 0, y_k).

    With no ``kappa`` these are :func:`find_transverse_root`'s, which has
    already checked that kappa is a simple root of r.  A given kappa is
    checked here, once: :class:`NoRootAvailable` when it is a bool or not
    an int, a Fraction or a :class:`QuotientRingElem` (before anything is
    evaluated) or when r(kappa) != 0, :class:`DoubleRoot` when
    r'(kappa) = 0.  Either way r comes from
    :meth:`LaurentPoly.set_vars_zero`, which raises
    :class:`NegativeExponentAtZero` for a negative exponent off y_k.
    """
    if kappa is None:
        root = find_transverse_root(relation, k, factor=factor)
        return root.variable, root.kappa, root.restriction
    if isinstance(kappa, bool) or not isinstance(kappa, (int, Fraction, QuotientRingElem)):
        raise NoRootAvailable("kappa must be an int, a Fraction or a "
                              "QuotientRingElem, not %s" % type(kappa).__name__)
    var = _var_name(relation, k)
    r = relation.set_vars_zero(var)
    if not is_zero(r.evaluate(kappa)):
        raise NoRootAvailable("kappa is not a root of the restriction")
    if is_zero(r.derivative().evaluate(kappa)):
        raise DoubleRoot("restriction root is not simple", variable=var, order=0)
    return var, kappa, r


def _verified(sol, solver):
    """sol, once its residual is re-checked by direct substitution."""
    if not sol.residual().is_zero():
        raise VerificationFailure("%s left a nonzero residual" % solver)
    return sol


def solve_formal_augmentation(relation, k, kappa=None, order=DEFAULT_ORDER,
                              factor=None):
    """Solution of W(mu, kappa exp(s)) = 0 to total degree ``order``.

    ``kappa`` defaults to the preferred transverse root of the restriction.
    The series is solved degree by degree, each degree part of s once
    (van der Hoeven's relaxed evaluation; see the module docstring), and
    the loop can stall only at degree 0.  The residual of the returned
    solution is re-checked by direct substitution, and a nonzero residual
    raises :class:`VerificationFailure`.
    """
    var, kappa, _ = _simple_root(relation, k, kappa, factor)
    s = _series_solution(relation, var, kappa, Fraction(0), order)
    return _verified(AugmentationSeries(relation=relation, variable=var,
                                        kappa=kappa, series=s, order=order),
                     "solver")


def solve_nilpotent_augmentation(factor_poly, multiplicity, k,
                                 order=DEFAULT_ORDER, kappa=None):
    """Scheme-level augmentation for one irreducible factor W_i of the
    relation, valued in Q[t]/(t^d)[[mu]]; alpha is the class of t.

    The solved assignment sends y_k to kappa (1 + alpha) exp(s) so that the
    image of W_i is the mu-independent constant W_i(0, ..., kappa(1+alpha)),
    nilpotent of order exactly ``multiplicity``; the image of W_i^d is then
    zero while the (d-1)-st power survives.  The series comes from the same
    degree-by-degree loop as the formal solver, with that constant as the
    target, so it too can stall only at degree 0.

    ``multiplicity`` must be an int (not a bool), or ValueError is raised
    before anything is evaluated; = 1 degenerates to the honest formal
    solver (alpha = 0).  Otherwise a given ``kappa`` must be an int or a
    Fraction: any other value raises :class:`NoRootAvailable` before
    anything is evaluated.
    """
    if isinstance(multiplicity, bool) or not isinstance(multiplicity, int):
        raise ValueError("multiplicity must be an int, not %s" % type(multiplicity).__name__)
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    if multiplicity == 1:
        return solve_formal_augmentation(factor_poly, k, kappa=kappa, order=order)
    if kappa is not None and not isinstance(kappa, (int, Fraction)):
        raise NoRootAvailable(
            "nilpotent solver needs a rational root (nilpotents over a "
            "quotient field are not supported)")
    var, kappa, r = _simple_root(factor_poly, k, kappa, None)
    d = multiplicity
    alpha = QuotientRingElem.generator(UniPoly.gen() ** d)
    kap = (1 + alpha) * frac(kappa)
    target = r.evaluate(kap)                # c alpha + higher, c != 0
    s = _series_solution(factor_poly, var, kap, target, order)
    sol = _verified(AugmentationSeries(relation=factor_poly, variable=var,
                                       kappa=kap, series=s, order=order,
                                       image=target, multiplicity=d),
                    "nilpotent solver")
    if not (target ** d).is_zero():
        raise VerificationFailure("image is not nilpotent of order %d" % d)
    if (target ** (d - 1)).is_zero():
        raise VerificationFailure("image is nilpotent of order below %d" % d)
    return sol


def point_on_variety(relation, point):
    """Exact test that a point satisfies the relation."""
    value = relation.evaluate(point)
    return is_zero(value)


# --------------------------------------------------------------------------
# partition components for disconnected Legendrians
# --------------------------------------------------------------------------

def sheet_variables(base_variables, sheet):
    return tuple("%s_%d" % (v, sheet) for v in base_variables)


@dataclass(frozen=True)
class PartitionComponent:
    """One irreducible component of the augmentation variety of a disjoint
    union of sheets, indexed by a partition into blocks of size <= 2.

    Pair blocks contribute diagonal equations y_{i,a} - y_{i,b}; singleton
    blocks contribute the sheet relation in that sheet's variables.
    """

    blocks: tuple                 # tuple of sorted tuples, e.g. ((1, 3), (2,))
    equations: tuple              # defining Laurent equations over all sheets

    def label(self):
        return "|".join("{%s}" % ",".join(str(i) for i in b) for b in self.blocks)


def _partitions_le2(items):
    """All partitions of items (a sorted list) into blocks of size one or
    two, each exactly once, as tuples of sorted blocks in increasing order
    of their least element."""
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for sub in _partitions_le2(rest):
        yield ((head,),) + sub
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in _partitions_le2(remaining):
            yield (tuple(sorted((head, partner))),) + sub


def _rename_into(f, rename, all_vars):
    index = {v: i for i, v in enumerate(all_vars)}
    terms = {}
    for exp, c in f.terms.items():
        new = [0] * len(all_vars)
        for v, e in zip(f.variables, exp):
            new[index[rename[v]]] = e
        terms[tuple(new)] = c
    return LaurentPoly(all_vars, terms)


def enumerate_partition_components(ell, sheet_relation, spin_labels=None):
    """Components of the augmentation variety of ell translated sheets.

    Pair blocks {a, b} are allowed only when the sheets' spin labels agree
    (labels are opaque; only equality matters).  Components are returned in
    a deterministic order sorted by their block structure.
    """
    if ell < 1:
        raise ValueError("need at least one sheet")
    rel = sheet_relation.lifted_relation if hasattr(sheet_relation, "lifted_relation") \
        else sheet_relation
    base_vars = rel.variables
    all_vars = tuple(v for j in range(1, ell + 1)
                     for v in sheet_variables(base_vars, j))
    if spin_labels is None:
        spin_labels = [0] * ell
    if len(spin_labels) != ell:
        raise ValueError("need one spin label per sheet")
    components = []
    for blocks in _partitions_le2(list(range(1, ell + 1))):
        if any(len(b) == 2 and spin_labels[b[0] - 1] != spin_labels[b[1] - 1]
               for b in blocks):
            continue
        eqs = []
        for b in blocks:
            if len(b) == 1:
                j = b[0]
                rename = dict(zip(base_vars, sheet_variables(base_vars, j)))
                eqs.append(_rename_into(rel, rename, all_vars))
            else:
                a, b2 = b
                for v in base_vars:
                    ya = LaurentPoly.variable("%s_%d" % (v, a), all_vars)
                    yb = LaurentPoly.variable("%s_%d" % (v, b2), all_vars)
                    eqs.append(ya - yb)
        components.append(PartitionComponent(blocks=blocks, equations=tuple(eqs)))
    components.sort(key=lambda c: (len(c.blocks), c.blocks))
    return components


# --------------------------------------------------------------------------
# degree-one DGA relations for two and three sheets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AugCandidate:
    """Assignment of sheet coordinates y_{i,b} and mixed-chord values a_{jk}.

    ``y`` maps sheet number (1-based) to the tuple of that sheet's variable
    values; ``a`` maps ordered sheet pairs to chord values.  ``signs`` is
    one sign vector per sheet (constant slot first).  Diagonal chords
    a_{jj} are relation sources, never assigned.
    """

    ell: int
    y: tuple                     # y[j-1] = tuple of values for sheet j
    a: tuple                     # tuple of ((j, k), value) sorted
    signs: tuple                 # signs[j-1] = sign vector for sheet j

    @classmethod
    def from_obj(cls, obj):
        ell = int(obj["ell"])
        rows = obj["y"]
        if not isinstance(rows, dict):
            raise MissingAssignment("\"y\" must map sheet numbers to value lists")
        nv = None
        y = []
        for j in range(1, ell + 1):
            row = rows.get(str(j))
            if row is None:
                raise MissingAssignment("no y values for sheet %d" % j)
            row = tuple(frac(x) for x in row)
            if nv is None:
                nv = len(row)
            elif len(row) != nv:
                raise MissingAssignment("sheets with different variable counts")
            y.append(row)
        a = {}
        for j in range(1, ell + 1):
            for k in range(1, ell + 1):
                if j == k:
                    continue
                key = "%d%d" % (j, k)
                if key not in obj.get("a", {}):
                    raise MissingAssignment("no value for chord a_%s" % key)
                a[(j, k)] = frac(obj["a"][key])
        raw_signs = obj.get("signs", [1] * (nv + 1))
        if raw_signs and isinstance(raw_signs[0], (list, tuple)):
            signs = tuple(tuple(int(s) for s in row) for row in raw_signs)
        else:
            signs = tuple(tuple(int(s) for s in raw_signs) for _ in range(ell))
        if len(signs) != ell or any(len(s) != nv + 1 for s in signs):
            raise MissingAssignment("need one sign per monomial slot per sheet")
        return cls(ell, tuple(y), tuple(sorted(a.items())), signs)

    def to_obj(self):
        return {
            "ell": self.ell,
            "y": {str(j + 1): [str(x) for x in row]
                  for j, row in enumerate(self.y)},
            "a": {"%d%d" % jk: str(v) for jk, v in self.a},
            "signs": [list(s) for s in self.signs],
        }


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    violated: str = ""
    value: object = None

    def __bool__(self):
        return self.passed


def _sheet_value(signs, row):
    """eps_0 + sum_i eps_i y_i for one sheet's ``signs`` (constant slot
    first) and values ``row``; a shorter row sums only its own slots."""
    total = signs[0]
    for e, v in zip(signs[1:], row):
        total += e * v
    return total


def dga_relation_check(cand):
    """Evaluate every degree-one relation of the 2- or 3-sheet DGA.

    Relations checked, with W_j the signed sheet relation:

    * delta(a_jj):  W_j(y_{.,j}) + sum_{k != j} a_jk a_kj = 0;
    * three sheets only, covers of the constant disk:
      delta(a_13) = a_12 a_23,  delta(a_21) = a_23 a_31,
      delta(a_32) = a_31 a_12 must map to zero;
    * chord/diagonal compatibility for every ordered pair (j, k) and every
      coordinate i:  a_jk (y_{i,k} - y_{i,j}) = 0.

    Passes exactly when all values vanish; the first violated relation (in
    the order above) is reported.  The first mixed chord without a value,
    in (j, k) order, raises :class:`MissingAssignment` before any relation
    is evaluated.
    """
    ell = cand.ell
    if ell not in (2, 3):
        raise IndexOutOfRange("relation check is hard-coded for 2 or 3 sheets")
    a = dict(cand.a)
    pairs = [(j, k) for j in range(1, ell + 1) for k in range(1, ell + 1) if j != k]
    for jk in pairs:
        if jk not in a:
            raise MissingAssignment("no value for chord a_%d%d" % jk)
    y = cand.y
    nv = len(y[0])
    # diagonal relations
    for j in range(1, ell + 1):
        total = _sheet_value(cand.signs[j - 1], y[j - 1])
        for k in range(1, ell + 1):
            if k != j:
                total += a[j, k] * a[k, j]
        if total != 0:
            return CheckResult(False, "delta(a_%d%d)" % (j, j), total)
    # covers of the constant disk (three sheets)
    if ell == 3:
        for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            value = a[i, j] * a[j, k]
            if value != 0:
                return CheckResult(False, "delta(a_%d%d)" % (i, k), value)
    # chord/diagonal compatibility
    for j, k in pairs:
        ajk = a[j, k]
        if ajk == 0:
            continue
        for i in range(nv):
            value = ajk * (y[k - 1][i] - y[j - 1][i])
            if value != 0:
                return CheckResult(
                    False, "a_%d%d*(y_%d,%d - y_%d,%d)" % (j, k, i + 1, k, i + 1, j),
                    value)
    return CheckResult(True)


def build_partition_witness(blocks, signs, nvars):
    """Deterministic witness candidate for one partition component.

    Singleton sheets get points exactly on their sheet variety, pair sheets
    get a shared off-variety point; all sheets receive pairwise distinct
    values in every coordinate, so any unit perturbation of any single
    value violates some checked relation.  Chord values: a_ab = 1 and
    a_ba = -W_a for each pair block {a, b}, zero otherwise.

    The sheet relation here is the Clifford-type one encoded by ``signs``
    (constant slot plus one sign per variable), which is linear in the last
    variable and therefore solvable exactly, so every value is an int.
    When the signs of the other variables sum to zero (always, for one
    variable per sheet), that solved value does not depend on the offset,
    and a singleton sheet whose value is zero or already used raises
    :class:`PreconditionViolation` naming the sheets: no witness with
    pairwise distinct values exists.
    """
    blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
    ell = max(max(b) for b in blocks)
    if isinstance(signs[0], int):
        signs = tuple(tuple(signs) for _ in range(ell))
    used = [{} for _ in range(nvars)]       # per coordinate, value -> sheet
    y = [None] * ell

    def fresh_row(start, on_variety, sheet):
        """First row of values with offset >= start meeting all constraints."""
        eps = signs[sheet - 1]
        fixed = on_variety and sum(eps[1:nvars]) == 0    # solved value ignores t
        t = start
        while True:
            row = [t + 7 * i for i in range(nvars)]
            if on_variety:
                # solve the last coordinate from the sheet relation
                row[-1] = last = -_sheet_value(eps, row[:-1]) * eps[nvars]
                if fixed and (last == 0 or last in used[-1]):
                    raise PreconditionViolation(
                        "sheet %d needs y_%d = %d on its variety at every offset, %s, so "
                        "no witness has pairwise distinct values"
                        % (sheet, nvars, last, "as sheet %d does" % used[-1][last]
                           if last in used[-1] else "and the value must be nonzero"))
            ok = all(v != 0 for v in row)
            if ok and not on_variety:
                # keep the pair point off the variety
                ok = _sheet_value(eps, row) != 0
            if ok:
                ok = all(row[i] not in used[i] for i in range(nvars))
            if ok:
                return row
            t += 1

    offset = 2
    for b in blocks:
        if len(b) == 1:
            row = fresh_row(offset, True, b[0])
            y[b[0] - 1] = tuple(row)
        else:
            row = fresh_row(offset, False, b[0])
            y[b[0] - 1] = tuple(row)
            y[b[1] - 1] = tuple(row)
        for i in range(nvars):
            used[i][row[i]] = b[0]
        offset += 11
    a = {(j, k): 0 for j in range(1, ell + 1) for k in range(1, ell + 1) if j != k}
    for b in blocks:
        if len(b) == 2:
            j, k = b
            a[(j, k)] = 1
            a[(k, j)] = -_sheet_value(signs[j - 1], y[j - 1])
    return AugCandidate(ell, tuple(y), tuple(sorted(a.items())), signs)


def perturbations(cand):
    """All single-value +1 perturbations of a candidate, with labels: the
    y values sheet by sheet, then the chords in the (sorted) order of ``a``."""
    out = []
    for j, row in enumerate(cand.y):
        for i, v in enumerate(row):
            y = cand.y[:j] + (row[:i] + (v + 1,) + row[i + 1:],) + cand.y[j + 1:]
            out.append(("y_%d,%d" % (i + 1, j + 1), replace(cand, y=y)))
    for n, (jk, v) in enumerate(cand.a):
        a = cand.a[:n] + ((jk, v + 1),) + cand.a[n + 1:]
        out.append(("a_%d%d" % jk, replace(cand, a=a)))
    return out


# --------------------------------------------------------------------------
# Reeb-chord degrees
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChordDegreeParams:
    """Inputs for the mixed-chord degree formula.

    ``theta_over_pi`` is the translation angle between consecutive sheets
    as an exact multiple of pi; ``slope`` is the grading slope of the
    ambient contact form (3 for the five-sphere setup).
    """

    sheets: int
    theta_over_pi: Fraction
    slope: Fraction

    def __post_init__(self):
        if self.sheets < 2:
            raise ValueError("need at least two sheets")
        if self.theta_over_pi <= 0:
            raise ValueError("rotation angle must be positive")


def reeb_chord_degree(params, j, k):
    """Real degree of the mixed chord a_{jk}; wraps k - j modulo the sheet
    count.  Returns (real degree, Z2 degree); all mixed chords have Z2
    degree one."""
    if not (1 <= j <= params.sheets and 1 <= k <= params.sheets):
        raise IndexOutOfRange("sheet index out of range")
    if j == k:
        raise IndexOutOfRange("mixed chords connect distinct sheets")
    m = (k - j) % params.sheets
    degree = params.slope * m * params.theta_over_pi - 1
    return degree, 1
