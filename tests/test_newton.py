"""Tests for the series solve behind both augmentation solvers.

The degree-by-degree loop must give exactly the series of the
fixed-slope, one-order-per-step iteration (kept in ``newton_oracles``)
over Q, over Q[t]/(m) and over Q[t]/(t^d), and exactly the series and
errors of the Newton loop that substituted into W and dW separately;
``series_exp`` must match the power-sum exponential and sympy.
Verification failures must raise :class:`VerificationFailure`, also under
``python -O``.
"""

import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import pytest

from augvar import augment, laurent, rings
from augvar.augment import (
    AugmentationSeries,
    find_transverse_root,
    solve_formal_augmentation,
    solve_nilpotent_augmentation,
)
from augvar.errors import (
    BackendMismatch,
    DoubleRoot,
    NonzeroConstantTerm,
    NotInvertible,
    NotInvertibleAtPoint,
    VariableMismatch,
    VerificationFailure,
)
from augvar.laurent import LaurentPoly
from augvar.potentials import clifford_relation
from augvar.rings import (
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    series_exp,
    solve_exp_sum,
)

from newton_oracles import (
    fixed_slope_formal,
    fixed_slope_nilpotent,
    two_evaluation_newton,
)
from series_oracles import power_sum_exp, substituted_residual, term_sum_evaluate

F = Fraction
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _relation_with_root(rng, nvars, kappa):
    """A relation in y1..y_n whose restriction to y_n has the simple root
    kappa, plus random mixed terms that vanish at mu = 0."""
    vs = tuple("y%d" % i for i in range(1, nvars + 1))
    gens = LaurentPoly.gens(vs)
    yk = gens[-1]
    other = rng.choice([F(3), F(-3), F(5, 2)])
    rel = (1 - yk * (1 / kappa)) * (1 - yk * (1 / other))
    for _ in range(rng.randint(2, 4)):
        exp = [rng.randint(0, 2) for _ in range(nvars - 1)] + [rng.randint(0, 2)]
        if not any(exp[:-1]):
            exp[rng.randrange(nvars - 1)] = 1
        rel = rel + LaurentPoly.monomial(F(rng.choice([-3, -2, -1, 1, 2, 3])), exp, vs)
    return rel


# --------------------------------------------------------------------------
# the series solve against the fixed-slope oracle
# --------------------------------------------------------------------------

@pytest.mark.parametrize("nvars", [2, 3])
def test_newton_matches_fixed_slope_over_q(nvars):
    rng = random.Random(7100 + nvars)
    for _ in range(8):
        kappa = rng.choice([F(1), F(-1), F(2), F(-2), F(1, 2)])
        rel = _relation_with_root(rng, nvars, kappa)
        order = rng.choice([5, 6, 7]) if nvars == 3 else rng.choice([7, 9, 11])
        var = rel.variables[-1]
        sol = solve_formal_augmentation(rel, var, kappa=kappa, order=order)
        assert sol.series == fixed_slope_formal(rel, var, kappa, order), str(rel)


def test_newton_matches_fixed_slope_on_clifford():
    for signs in ("+,+,+,+", "+,-,+,-", "-,+,-,+"):
        rel = clifford_relation(4, signs).lifted_relation
        sol = solve_formal_augmentation(rel, "y3", order=7)
        assert sol.series == fixed_slope_formal(rel, "y3", sol.kappa, 7)


def test_newton_matches_fixed_slope_over_quotient_field():
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    relq = -2 + y2 ** 2 + y1 + 3 * y1 * y2
    factor = UniPoly([-2, 0, 1])
    sol = solve_formal_augmentation(relq, "y2", factor=factor, order=6)
    assert isinstance(sol.kappa, QuotientRingElem)
    assert sol.series == fixed_slope_formal(relq, "y2", sol.kappa, 6)
    rng = random.Random(7200)
    for _ in range(4):
        p, q = rng.choice([(0, -3), (1, -1), (-1, -5), (2, -1)])
        rel = q + p * y2 + y2 ** 2
        for _ in range(2):
            rel = rel + rng.choice([1, -2, 3]) * y1 ** rng.randint(1, 2) \
                * y2 ** rng.randint(0, 1)
        sol = solve_formal_augmentation(rel, "y2", factor=UniPoly([q, p, 1]), order=5)
        assert sol.series == fixed_slope_formal(rel, "y2", sol.kappa, 5), str(rel)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_newton_matches_fixed_slope_in_nilpotent_ring(d):
    rng = random.Random(7300 + d)
    for _ in range(3):
        kappa = rng.choice([F(1), F(-1), F(2), F(-2)])
        rel = _relation_with_root(rng, 2, kappa)
        sol = solve_nilpotent_augmentation(rel, d, "y2", kappa=kappa, order=6)
        kap, target, series = fixed_slope_nilpotent(rel, d, "y2", kappa, 6)
        assert sol.kappa == kap
        assert sol.image == target
        assert sol.series == series, str(rel)


def test_solve_makes_one_exponential_and_no_series_inverse(monkeypatch):
    """An order-10 solve of a relation shaped like the benchmark's
    three-variable ones takes one exponential and one power table, both
    the final check's, and no Laurent evaluation: the check groups the
    relation by powers of the solved variable itself.  No series is
    inverted and no ``terms`` view is built, and the series equals the
    two-substitution step's."""
    rel = LaurentPoly(("y1", "y2", "y3"), {
        (0, 0, 0): 2, (1, 0, 0): 1, (0, 0, 1): -3, (1, 1, 0): 1, (0, 0, 2): 1,
        (2, 0, 1): 1, (0, 2, 2): 1})
    exps, tables, evaluations, inverts, views = [], [], [], [], []
    real_exp, real_table = augment.series_exp, augment._power_table
    real_evaluate = LaurentPoly.evaluate
    real_invert, real_view = TruncatedSeries.invert, TruncatedSeries._view

    def counting_exp(s):
        exps.append(s.order)
        return real_exp(s)

    def counting_table(val, wanted):
        tables.append(sorted(wanted))
        return real_table(val, wanted)

    def counting_evaluate(self, point):
        evaluations.append(1)
        return real_evaluate(self, point)

    def counting_invert(self):
        inverts.append(self.order)
        return real_invert(self)

    def counting_view(self):
        views.append(self.order)
        return real_view(self)

    monkeypatch.setattr(augment, "series_exp", counting_exp)
    monkeypatch.setattr(augment, "_power_table", counting_table)
    monkeypatch.setattr(LaurentPoly, "evaluate", counting_evaluate)
    monkeypatch.setattr(TruncatedSeries, "invert", counting_invert)
    monkeypatch.setattr(TruncatedSeries, "_view", counting_view)
    sol = solve_formal_augmentation(rel, "y3", order=10)
    assert (exps, tables, evaluations, inverts, views) == ([10], [[0, 1, 2]], [], [], [])
    assert sol.series == two_evaluation_newton(rel, "y3", F(1), F(0), 10, 0)


def test_kernel_calls_grow_linearly_with_the_order(monkeypatch):
    """The loop finds each degree part once: its ``_convolve`` calls are a
    fixed number per degree, so they grow by the same amount from each
    order to the next, in the formal, quotient-field and nilpotent
    solves and with a negative power of the solved variable."""
    calls = []
    real = rings._convolve

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(rings, "_convolve", counting)
    y1, y = LaurentPoly.gens(("y1", "y"))
    alpha = QuotientRingElem.generator(UniPoly.gen() ** 3)
    cases = (
        (clifford_relation(3, "+,+,-").lifted_relation, "y2", F(1), F(0)),
        (y - 1 - y1 * y ** -1, "y", F(1), F(0)),
        (-2 + y1 + 3 * y1 * y + y ** 2, "y",
         QuotientRingElem.generator(UniPoly([-2, 0, 1])), F(0)),
        (1 + y1 - y, "y", 1 + alpha, -alpha),
    )
    for rel, var, kap, target in cases:
        counts = []
        for order in range(1, 13):
            calls.clear()
            augment._series_solution(rel, var, kap, target, order, 0)
            counts.append(len(calls))
        steps = {b - a for a, b in zip(counts, counts[1:])}
        assert len(steps) == 1 and steps.pop() > 0, (str(rel), counts)


def test_one_slope_constant_inverse_per_solve(monkeypatch):
    """The slope constant kappa r'(kappa) is the one scalar inverse of
    these order-10 solves and no series is inverted: a formal solve, a
    quotient-field solve with a supplied factor and a nilpotent d = 3
    solve.  Over Q[t]/(m) that inverse is the one QuotientRingElem.invert
    of the solve."""
    counts = {"solve": 0, "series": 0, "scalar": 0, "quotient": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(augment, "_series_solution",
                        counting("solve", augment._series_solution))
    monkeypatch.setattr(TruncatedSeries, "invert", counting("series", TruncatedSeries.invert))
    for module in (rings, laurent, augment):
        monkeypatch.setattr(module, "invert_scalar", counting("scalar", module.invert_scalar))
    monkeypatch.setattr(QuotientRingElem, "invert", counting("quotient", QuotientRingElem.invert))
    y1, y = LaurentPoly.gens(("y1", "y"))
    solves = (
        (lambda: solve_formal_augmentation(clifford_relation(3, "+,+,-").lifted_relation,
                                           "y2", order=10), 0),
        (lambda: solve_formal_augmentation(-2 + y1 + 3 * y1 * y + y ** 2, "y", order=10,
                                           factor=UniPoly([-2, 0, 1])), 1),
        (lambda: solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=10), 1),
    )
    for solve, quotient in solves:
        counts.update(solve=0, series=0, scalar=0, quotient=0)
        solve()
        assert counts == {"solve": 1, "series": 0, "scalar": 1, "quotient": quotient}


def test_series_constructor_calls_per_solve_do_not_grow_with_newton_steps(monkeypatch):
    """The groups C_j are built once per solve at the full order, and the
    loop builds its parts without the constructor: orders 1, 3, 10 and 20
    make as many constructor calls as each other, in both solvers."""
    calls = []
    real = TruncatedSeries.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(TruncatedSeries, "__init__", counting_init)
    rel = clifford_relation(3, "+,+,-").lifted_relation
    y1, y = LaurentPoly.gens(("y1", "y"))
    solves = (lambda order: solve_formal_augmentation(rel, "y2", order=order),
              lambda order: solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=order))
    for solve in solves:
        counts = []
        for order in (1, 3, 10, 20):
            calls.clear()
            solve(order)
            counts.append(len(calls))
        assert len(set(counts)) == 1, counts


def test_default_kappa_solve_takes_the_restriction_and_its_slope_once(monkeypatch):
    """With no kappa given, the solvers use find_transverse_root's
    restriction and root as they are: one set_vars_zero per solve (the
    preamble used to take it twice), and one r'(kappa).  The other
    derivatives are gone: the squarefree tests of rational_roots and, over
    Q[t]/(t^2 - 2), of the supplied factor differentiate integer
    coefficient lists, so r'(kappa) is the one UniPoly derivative of each
    solve (there were 2, 2 and 4)."""
    calls = {"set_vars_zero": 0, "derivative": 0}
    for cls, name in ((LaurentPoly, "set_vars_zero"), (UniPoly, "derivative")):
        def counting(self, *args, _real=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(cls, name, counting)
    rel = clifford_relation(3, "+,+,-").lifted_relation
    y1, y = LaurentPoly.gens(("y1", "y"))
    quadratic = -2 + y1 + 3 * y1 * y + y ** 2
    solves = (
        (lambda: solve_formal_augmentation(rel, "y2", order=6), 1),
        (lambda: solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=6), 1),
        (lambda: solve_formal_augmentation(quadratic, "y", order=6,
                                           factor=UniPoly([-2, 0, 1])), 1),
    )
    for solve, derivatives in solves:
        calls.update(set_vars_zero=0, derivative=0)
        solve()
        assert calls == {"set_vars_zero": 1, "derivative": derivatives}


def _with_negative_powers(rng, rel):
    """rel plus terms with a negative exponent of the solved (last)
    variable, each times a positive power of some mu, so the restriction
    stays a polynomial."""
    vs = rel.variables
    for _ in range(rng.randint(0, 2)):
        exp = [rng.randint(0, 1) for _ in vs[:-1]] + [rng.randint(-2, -1)]
        exp[rng.randrange(len(vs) - 1)] += 1
        rel = rel + LaurentPoly.monomial(F(rng.choice([-2, -1, 1, 3])), exp, vs)
    return rel


_QUADRATICS = ((-2, 0), (-3, 0), (-1, 1), (-5, 1), (3, 1))    # q + p y + y^2


def _differential_case(rng, i):
    """(kind, relation, var, kap, target, order) for the i-th seeded case: a
    formal, quotient-root or nilpotent solve (multiplicity 2-4), or one
    the solvers' preamble would reject (a non-root or zero kap, or a
    double root), so both steps raise."""
    nvars = 2 + i % 2
    order = rng.randint(3, 5) if nvars == 3 else rng.randint(4, 8)
    kind = rng.choice(("formal", "formal", "quotient", "nilpotent", "nilpotent",
                       "non-root", "double"))
    kappa = rng.choice([F(1), F(-1), F(2), F(-2), F(1, 2), F(3, 2)])
    rel = _relation_with_root(rng, nvars, kappa)
    var = rel.variables[-1]
    target = F(0)
    if kind == "quotient":
        q, p = rng.choice(_QUADRATICS)
        yk = LaurentPoly.variable(var, rel.variables)
        rel = rel - rel.set_vars_zero(var).evaluate(yk) \
            + (q + p * yk + yk ** 2) * (1 + yk ** 2)
        kappa = find_transverse_root(rel, var, factor=UniPoly([q, p, 1])).kappa
    elif kind == "nilpotent":
        d = rng.randint(2, 4)
        kappa = (1 + QuotientRingElem.generator(UniPoly.gen() ** d)) * kappa
        target = rel.set_vars_zero(var).evaluate(kappa)
    elif kind == "non-root":
        kappa = rng.choice([F(0), F(5), F(-7, 3)])
    elif kind == "double":
        yk = LaurentPoly.variable(var, rel.variables)
        rel = rel - rel.set_vars_zero(var).evaluate(yk) + (1 - yk * (1 / kappa)) ** 2
    return kind, _with_negative_powers(rng, rel), var, kappa, target, order


def _outcome(solve, *args):
    try:
        return "series", solve(*args)
    except Exception as err:                # compared by class and message
        extra = (getattr(err, "variable", None), getattr(err, "order", None),
                 getattr(err, "suggested_transform", None))
        return type(err), str(err), extra


def test_one_pass_step_matches_two_evaluation_step():
    """240 seeded relations in 2 and 3 variables, with negative exponents
    of the solved variable off the restriction: the grouped step gives the
    series of the two-substitution step, and raises the same error with
    the same message whenever that one raises."""
    rng = random.Random(7600)
    seen = set()
    for i in range(240):
        kind, rel, var, kap, target, order = _differential_case(rng, i)
        args = (rel, var, kap, target, order, i)
        got = _outcome(augment._series_solution, *args)
        expected = _outcome(two_evaluation_newton, *args)
        assert got == expected, (kind, str(rel), kap)
        seen.add((kind, got[0]))
    assert {("formal", "series"), ("quotient", "series"), ("nilpotent", "series"),
            ("non-root", DoubleRoot), ("non-root", NotInvertibleAtPoint),
            ("double", NotInvertible)} <= seen


def _perturbed_grouping(monkeypatch, j=1, e=1):
    """The solver's grouping with y1^e added to C_j, the coefficient of
    y_k^j: by default y1 added to C_1, so the loop solves a different
    relation; with j = e = 0, 1 added to the constant term of C_0, so the
    degree-0 residual r(kappa) - target is 1."""
    real = augment._grouped_by_exponent

    def perturbed(relation, k):
        groups = real(relation, k)
        mu = (e,) + (0,) * (len(relation.variables) - 2)
        c = dict(groups.get(j, {}))
        c[mu] = c.get(mu, 0) + 1
        groups[j] = c
        return groups

    monkeypatch.setattr(augment, "_grouped_by_exponent", perturbed)


def test_final_check_does_not_share_the_grouped_step(monkeypatch):
    """The solvers' final check substitutes into the relation itself, so a
    series solved for a perturbed grouping is caught."""
    rel = clifford_relation(3, "+,+,-").lifted_relation
    y1, y = LaurentPoly.gens(("y1", "y"))
    solve_formal_augmentation(rel, "y2", order=6)
    solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=6)
    _perturbed_grouping(monkeypatch)
    with pytest.raises(VerificationFailure, match="^solver left a nonzero residual"):
        solve_formal_augmentation(rel, "y2", order=6)
    with pytest.raises(VerificationFailure,
                       match="^nilpotent solver left a nonzero residual"):
        solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=6)


def _oracle_solutions():
    """Solutions on seeded relations: formal solves in two and three
    variables, with and without negative powers of the solved variable,
    y2 - 1 - y1 y2^-1, a root class of a supplied factor and nilpotent
    solves with d = 2..4."""
    rng = random.Random(7700)
    sols = []
    for nvars in (2, 3, 2, 3):
        kappa = rng.choice([F(1), F(-1), F(2), F(-2), F(1, 2)])
        rel = _with_negative_powers(rng, _relation_with_root(rng, nvars, kappa))
        sols.append(solve_formal_augmentation(rel, rel.variables[-1], kappa=kappa,
                                              order=rng.choice([4, 6, 8])))
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    sols.append(solve_formal_augmentation(y2 - 1 - y1 * y2 ** -1, "y2", order=8))
    sols.append(solve_formal_augmentation(-2 + y2 ** 2 + y1 + 3 * y1 * y2, "y2",
                                          factor=UniPoly([-2, 0, 1]), order=6))
    for d in (2, 3, 4):
        kappa = rng.choice([F(1), F(-1), F(2), F(-2)])
        rel = _relation_with_root(rng, 2, kappa)
        sols.append(solve_nilpotent_augmentation(rel, d, "y2", kappa=kappa, order=6))
    return sols


def test_final_check_matches_substitution_at_the_solved_point():
    """The final check, grouped by powers of the solved variable, equals
    the relation evaluated at the solved point minus the image, and the
    term-by-term evaluation, on every solution of ``_oracle_solutions``:
    zero as solved, and the same nonzero series once one coefficient of
    s is nudged."""
    rng = random.Random(7800)
    for sol in _oracle_solutions():
        oracle = term_sum_evaluate(sol.relation, sol.point()) - sol.image
        assert sol.residual() == substituted_residual(sol) == oracle
        assert sol.residual().is_zero(), str(sol.relation)
        s = sol.series
        exp = list(rng.choice(sorted(s.terms)))
        nudge = TruncatedSeries(s.variables, s.order, {tuple(exp): F(rng.choice([-1, 1, 2]), 3)})
        bad = replace(sol, series=s + nudge)
        residual = bad.residual()
        assert not residual.is_zero(), str(sol.relation)
        assert residual == substituted_residual(bad)
        assert residual == term_sum_evaluate(bad.relation, bad.point()) - bad.image
        with pytest.raises(VerificationFailure):
            augment._verified(bad, "solver")


def test_final_check_keeps_the_substitution_guards():
    """A series over other variables or at another order than the point
    raises VariableMismatch, a relation over another quotient modulus than
    kappa BackendMismatch, and a kappa that is not invertible, with a
    negative power of the solved variable, NotInvertibleAtPoint."""
    y1, y2 = LaurentPoly.gens(("y1", "y2"))
    sol = solve_formal_augmentation(y2 - 1 - y1 * y2 ** -1, "y2", order=5)
    for bad in (replace(sol, order=4),
                replace(sol, series=TruncatedSeries(("y1", "z"), 5, {(1, 0): F(1)}))):
        with pytest.raises(VariableMismatch):
            bad.residual()
    q = solve_formal_augmentation(-2 + y2 ** 2 + y1 + 3 * y1 * y2, "y2",
                                  factor=UniPoly([-2, 0, 1]), order=4)
    other = QuotientRingElem(UniPoly([1]), UniPoly([-3, 0, 1]))
    with pytest.raises(BackendMismatch):
        replace(q, relation=q.relation + y1 * other).residual()
    with pytest.raises(NotInvertibleAtPoint):
        replace(sol, kappa=F(0)).residual()


# --------------------------------------------------------------------------
# stall detection and verification
# --------------------------------------------------------------------------

def test_formal_stall_names_variable_and_order(monkeypatch):
    _perturbed_grouping(monkeypatch, 0, 0)
    rel = clifford_relation(3, "+,+,-").lifted_relation
    with pytest.raises(DoubleRoot, match=r"^iteration stalled in 'y2' at order 0: "
                       r"residual has a degree-0 term$") as err:
        solve_formal_augmentation(rel, "y2", order=8)
    assert err.value.suggested_transform is not None
    assert (err.value.variable, err.value.order) == ("y2", 0)


def test_nilpotent_stall_is_detected(monkeypatch):
    _perturbed_grouping(monkeypatch, 0, 0)
    y1, y = LaurentPoly.gens(("y1", "y"))
    with pytest.raises(DoubleRoot, match=r"iteration stalled in 'y' at order 0") as err:
        solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=8)
    assert (err.value.variable, err.value.order) == ("y", 0)


def _doubled_inverse(monkeypatch):
    """A slope-constant inverse twice too large: every degree past 0 is
    solved wrong, which only the final check can see."""
    real = rings.invert_scalar
    monkeypatch.setattr(rings, "invert_scalar", lambda x: real(x) * 2)


def test_formal_wrong_slope_inverse_fails_verification(monkeypatch):
    _doubled_inverse(monkeypatch)
    rel = clifford_relation(3, "+,+,-").lifted_relation
    with pytest.raises(VerificationFailure, match="^solver left a nonzero residual$"):
        solve_formal_augmentation(rel, "y2", order=8)


def test_nilpotent_wrong_slope_inverse_fails_verification(monkeypatch):
    _doubled_inverse(monkeypatch)
    y1, y = LaurentPoly.gens(("y1", "y"))
    with pytest.raises(VerificationFailure,
                       match="^nilpotent solver left a nonzero residual$"):
        solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=8)


def test_non_simple_roots_stop_at_order_zero():
    y1, y = LaurentPoly.gens(("y1", "y"))
    rel = (1 - y) ** 2 + y1
    for solve in (lambda: find_transverse_root(rel, "y"),
                  lambda: solve_formal_augmentation(rel, "y", kappa=Fraction(1)),
                  lambda: solve_nilpotent_augmentation(rel, 2, "y", kappa=Fraction(1))):
        with pytest.raises(DoubleRoot) as err:
            solve()
        assert (err.value.variable, err.value.order) == ("y", 0)
    m = UniPoly([-2, 0, 1])
    with pytest.raises(DoubleRoot) as err:
        find_transverse_root((y ** 2 - 2) ** 2 + y1, 1, factor=m)
    assert (err.value.variable, err.value.order) == ("y", 0)


def _nonzero_residual(self):
    return TruncatedSeries.one(self.series.variables, self.order)


def test_nonzero_residual_raises_verification_failure(monkeypatch):
    monkeypatch.setattr(AugmentationSeries, "residual", _nonzero_residual)
    rel = clifford_relation(3).lifted_relation
    with pytest.raises(VerificationFailure):
        solve_formal_augmentation(rel, "y2", order=6)
    y1, y = LaurentPoly.gens(("y1", "y"))
    with pytest.raises(VerificationFailure):
        solve_nilpotent_augmentation(1 + y1 - y, 2, "y", order=6)


def test_nilpotency_order_check_raises_verification_failure(monkeypatch):
    """A wrong image (alpha^d = 0 is checked on the target) is reported."""
    real = QuotientRingElem.__pow__
    monkeypatch.setattr(QuotientRingElem, "__pow__",
                        lambda self, n: QuotientRingElem(UniPoly.one(), self.modulus)
                        if n == self.modulus.degree else real(self, n))
    y1, y = LaurentPoly.gens(("y1", "y"))
    with pytest.raises(VerificationFailure, match="not nilpotent of order 3"):
        solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=4)


def test_residual_check_survives_python_O():
    script = textwrap.dedent("""
        import sys
        from augvar.augment import (AugmentationSeries, solve_formal_augmentation,
                                    solve_nilpotent_augmentation)
        from augvar.errors import VerificationFailure
        from augvar.laurent import LaurentPoly
        from augvar.rings import TruncatedSeries
        if sys.flags.optimize != 1:
            sys.exit("not running under -O")
        AugmentationSeries.residual = \\
            lambda self: TruncatedSeries.one(self.series.variables, self.order)
        y1, y = LaurentPoly.gens(("y1", "y"))
        for solve in (lambda: solve_formal_augmentation(1 + y1 - y, "y", order=4),
                      lambda: solve_nilpotent_augmentation(1 + y1 - y, 2, "y", order=4)):
            try:
                solve()
            except VerificationFailure:
                print("raised")
        """)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised", "raised"]


def test_no_assert_statements_in_solvers():
    import ast
    tree = ast.parse(open(augment.__file__).read())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Assert)]


# --------------------------------------------------------------------------
# series_exp against the power-sum oracle and sympy
# --------------------------------------------------------------------------

def _random_series(rng, variables, order, coeff):
    terms = {}
    for _ in range(rng.randint(1, 7)):
        exp = tuple(rng.randint(0, order) for _ in variables)
        if 0 < sum(exp) <= order:
            terms[exp] = coeff(rng)
    return TruncatedSeries(variables, order, terms)


def _rational(rng):
    return F(rng.randint(-5, 5), rng.choice([1, 2, 3, 7]))


def _quotient(rng):
    m = UniPoly([-2, 1, 0, 1])                 # t^3 + t - 2 is squarefree
    return QuotientRingElem(UniPoly([_rational(rng) for _ in range(3)]), m)


def _nilpotent(rng):
    return QuotientRingElem(UniPoly([_rational(rng) for _ in range(4)]), UniPoly.gen() ** 3)


@pytest.mark.parametrize("coeff", [_rational, _quotient, _nilpotent],
                         ids=["rational", "quotient", "nilpotent"])
def test_series_exp_matches_power_sum(coeff):
    rng = random.Random(7400)
    for nvars in (1, 2, 3):
        vs = tuple("mu%d" % i for i in range(nvars))
        for _ in range(6):
            s = _random_series(rng, vs, rng.randint(0, 6), coeff)
            assert series_exp(s) == power_sum_exp(s)


def test_series_exp_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_exp
    rng = random.Random(7500)
    R, t, x1, x2 = sympy.ring("t,x1,x2", sympy.QQ)
    vs = ("mu1", "mu2")
    for _ in range(10):
        order = rng.randint(1, 6)
        s = _random_series(rng, vs, order, _rational)
        # grade by total degree with t, so truncation in t is truncation
        # in total degree
        p = R(0)
        for (a, b), c in s.terms.items():
            p += sympy.QQ(c.numerator, c.denominator) * t ** (a + b) * x1 ** a * x2 ** b
        expected = {}
        for (_, a, b), c in rs_exp(p, t, order + 1).terms():
            expected[(a, b)] = F(int(c.numerator), int(c.denominator))
        assert series_exp(s).terms == expected


# --------------------------------------------------------------------------
# solve_exp_sum on its own equation
# --------------------------------------------------------------------------

@pytest.mark.parametrize("coeff", [_rational, _quotient, _nilpotent],
                         ids=["rational", "quotient", "nilpotent"])
def test_solve_exp_sum_solves_its_equation(coeff):
    """For random {j: D_j} with j in -2..2 and target sum_j D_j[0], the
    solution s has zero constant term and sum_j D_j exp(j s) = target,
    checked with series_exp and products, whenever c = sum_j j D_j[0] is
    invertible."""
    rng = random.Random(7700)
    vs = ("mu1", "mu2")
    solved = 0
    for _ in range(20):
        order = rng.randint(1, 6)
        groups = {}
        for j in rng.sample(range(-2, 3), rng.randint(1, 3)):
            groups[j] = _random_series(rng, vs, order, coeff) + coeff(rng)
        target = sum((g.constant_term() for g in groups.values()), F(0))
        c = sum((j * g.constant_term() for j, g in groups.items()), F(0))
        try:
            c.invert() if isinstance(c, QuotientRingElem) else 1 / c
        except (NotInvertible, ZeroDivisionError):
            continue
        s = solve_exp_sum(groups, target)
        assert s.constant_term() == 0
        total = TruncatedSeries.zero(vs, order)
        for j, g in groups.items():
            total = total + g * series_exp(s.scale(j))
        assert total == target
        solved += 1
    assert solved >= 10


def test_solve_exp_sum_errors():
    """A nonzero degree-0 residual raises NonzeroConstantTerm; c = 0 with a
    nonzero residual past degree 0 raises NotInvertible, and c = 0 with no
    residual at all returns zero without inverting anything."""
    vs = ("mu",)
    mu = TruncatedSeries.variable("mu", vs, 4)
    one = TruncatedSeries.one(vs, 4)
    with pytest.raises(NonzeroConstantTerm, match="^residual has a degree-0 term$"):
        solve_exp_sum({1: one, 0: -one}, F(1))
    with pytest.raises(NotInvertible, match="^series with zero constant term$"):
        solve_exp_sum({1: one + mu, -1: one, 0: -2 * one}, F(0))
    assert solve_exp_sum({1: one, -1: one, 0: -2 * one}, F(0)).is_zero()


# --------------------------------------------------------------------------
# work counts
# --------------------------------------------------------------------------

def test_series_exp_makes_no_series_products(monkeypatch):
    calls = []
    real = TruncatedSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    monkeypatch.setattr(TruncatedSeries, "__rmul__", counting)
    mu = TruncatedSeries.variable("mu", ("mu", "nu"), 12)
    series_exp(mu + TruncatedSeries.variable("nu", ("mu", "nu"), 12).scale(F(1, 3)))
    assert calls == []


REL7 = LaurentPoly(("y1", "y2", "y3"), {
    (0, 0, 0): 2, (1, 0, 0): 1, (0, 0, 1): -3, (1, 1, 0): 1, (0, 0, 2): 1,
    (2, 0, 1): 1, (0, 2, 2): 1})


def _checked_solutions(order):
    """Solutions at ``order`` of five relations, each checked by
    substituting series: the 7-term ladder relation; 1 + y1 - y + y1 y^2,
    where the coefficient -1 of y is a constant C_j; a negative power of
    the solved variable; a nilpotent d = 3 solve; and a Clifford
    relation."""
    y1, y = LaurentPoly.gens(("y1", "y"))
    return [
        solve_formal_augmentation(REL7, "y3", order=order),
        solve_formal_augmentation(1 + y1 - y + y1 * y ** 2, "y", order=order),
        solve_formal_augmentation(y - 1 - y1 * y ** -1, "y", order=order),
        solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=order),
        solve_formal_augmentation(clifford_relation(3, "+,+,-").lifted_relation, "y2",
                                  order=order),
    ]


def test_evaluation_at_series_values_builds_no_sum_scale_or_constant(monkeypatch):
    """Substituting a solved point into its relation sums every term in
    one kernel pass per degree: a coefficient, constant C_j included,
    enters as a degree-0 part, so evaluation adds no series, scales none
    and builds no constant series."""
    sols = _checked_solutions(9)
    points = [sol.point() for sol in sols]

    def refuse(name):
        def raising(*args):
            raise AssertionError("evaluation called TruncatedSeries.%s" % name)
        return raising

    for name in ("__add__", "__radd__", "scale"):
        monkeypatch.setattr(TruncatedSeries, name, refuse(name))
    monkeypatch.setattr(TruncatedSeries, "constant", classmethod(refuse("constant")))
    values = [sol.relation.evaluate(point) for sol, point in zip(sols, points)]
    monkeypatch.undo()
    assert all((v - sol.image).is_zero() for sol, v in zip(sols, values))


def test_check_kernel_calls_are_a_fixed_step_per_order(monkeypatch):
    """The order-10 check of the 7-term relation, exp of the solved
    series, y3^2 and the sum over powers of y3, makes at most 32
    ``_convolve`` calls (37 when it evaluated the relation at the solved
    point, 42 when its terms were multiplied and added one by one).  From
    order 2 on, each order adds the same number of calls to the check of
    every relation in ``_checked_solutions``."""
    calls = []
    real = rings._convolve

    def counting(*args):
        calls.append(1)
        return real(*args)

    counts = []
    for order in range(2, 13):
        sols = _checked_solutions(order)
        monkeypatch.setattr(rings, "_convolve", counting)
        row = []
        for sol in sols:
            calls.clear()
            assert sol.residual().is_zero()
            row.append(len(calls))
        monkeypatch.undo()
        counts.append(row)
    assert counts[10 - 2][0] <= 32
    for case in zip(*counts):
        steps = {b - a for a, b in zip(case, case[1:])}
        assert len(steps) == 1 and steps.pop() > 0, case

