"""Tests for the augmentation solvers, partitions, DGA checks, and degrees."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from augvar.augment import (
    AugCandidate,
    ChordDegreeParams,
    build_partition_witness,
    dga_relation_check,
    enumerate_partition_components,
    find_transverse_root,
    perturbations,
    point_on_variety,
    reeb_chord_degree,
    solve_formal_augmentation,
    solve_nilpotent_augmentation,
)
from augvar.errors import (
    DoubleRoot,
    IndexOutOfRange,
    MissingAssignment,
    NegativeExponentAtZero,
    NoRootAvailable,
    PreconditionViolation,
)
from augvar.laurent import LaurentPoly
from augvar.potentials import clifford_relation
from augvar.rings import (
    QuotientRingElem,
    TruncatedSeries,
    UniPoly,
    series_exp,
    series_log,
)

from series_oracles import augmentation_point

F = Fraction
VS = ("y1", "y2")


def _log1p(varname, order):
    mu = TruncatedSeries.variable(varname, (varname,), order)
    return series_log(1 + mu)


# --------------------------------------------------------------------------
# root selection
# --------------------------------------------------------------------------

def test_root_trivial_spin_clifford():
    rel = clifford_relation(3).lifted_relation
    root = find_transverse_root(rel, "y2")
    assert root.kappa == -1
    assert root.witness == 1


def test_root_harvey_lawson_spin():
    rel = clifford_relation(3, "+,+,-").lifted_relation
    root = find_transverse_root(rel, "y2")
    assert root.kappa == 1
    assert root.witness == -1


def test_root_smallest_preferred_positive_on_tie():
    y1, y2 = LaurentPoly.gens(VS)
    # restriction (y - 1)(y + 1)(y - 3) has roots 1, -1, 3
    rel = (1 - y2) * (1 + y2) * (3 - y2) + y1
    root = find_transverse_root(rel, "y2")
    assert root.kappa == 1


def test_root_in_quotient_field():
    y1, y2 = LaurentPoly.gens(VS)
    rel = -2 + y1 + y2 ** 2         # restriction y^2 - 2: no rational root
    with pytest.raises(NoRootAvailable):
        find_transverse_root(rel, "y2")
    root = find_transverse_root(rel, "y2", factor=UniPoly([-2, 0, 1]))
    assert isinstance(root.kappa, QuotientRingElem)
    assert root.kappa ** 2 == 2
    assert root.witness == 2 * root.kappa


def test_root_needs_nonconstant_restriction():
    y1, y2 = LaurentPoly.gens(VS)
    with pytest.raises(NoRootAvailable):
        find_transverse_root(1 + y1 ** 2 * y2 + y1 * y2 ** 2, "y2")


def test_double_root_reported_with_variable_and_order():
    """The library's DoubleRoot names where it stopped and nothing else:
    the generic-coordinate hint is the command line's."""
    y1, y2 = LaurentPoly.gens(VS)
    rel = 1 - 2 * y2 + y2 ** 2 + y1
    with pytest.raises(DoubleRoot, match="^rational root 1 of the restriction "
                       "is not simple$") as err:
        find_transverse_root(rel, "y2")
    assert (err.value.variable, err.value.order) == ("y2", 0)
    assert not hasattr(err.value, "suggested_transform")


def test_double_root_retry_via_substitution():
    y1, y2 = LaurentPoly.gens(VS)
    rel = 1 - 2 * y2 + y2 ** 2 + y1
    with pytest.raises(DoubleRoot):
        solve_formal_augmentation(rel, "y2", order=6)
    # a variable swap is one valid generic-coordinate retry
    swapped = rel.substitute_monomial([[0, 1], [1, 0]])
    sol = solve_formal_augmentation(swapped, "y2", order=6)
    assert sol.residual().is_zero()


# --------------------------------------------------------------------------
# formal solver
# --------------------------------------------------------------------------

def test_solve_harvey_lawson_clifford():
    rel = clifford_relation(3, "+,+,-").lifted_relation
    sol = solve_formal_augmentation(rel, "y2", order=12)
    assert sol.kappa == 1
    assert sol.series == _log1p("y1", 12)
    assert sol.residual().is_zero()


def test_solve_trivial_spin_clifford():
    rel = clifford_relation(3).lifted_relation
    sol = solve_formal_augmentation(rel, "y2", order=12)
    assert sol.kappa == -1
    assert sol.series == _log1p("y1", 12)


def test_solve_single_variable_relation():
    y, = LaurentPoly.gens(("y",))
    sol = solve_formal_augmentation(1 + y, "y", order=8)
    assert sol.kappa == -1
    assert sol.series.is_zero()


def test_solve_higher_dimensional_clifford():
    rel = clifford_relation(4).lifted_relation      # 1 + y1 + y2 + y3
    sol = solve_formal_augmentation(rel, "y3", order=6)
    assert sol.kappa == -1
    mu = TruncatedSeries.variable("y1", ("y1", "y2"), 6) \
        + TruncatedSeries.variable("y2", ("y1", "y2"), 6)
    assert sol.series == series_log(1 + mu)


def test_solve_nonlinear_solved_variable():
    y1, y2 = LaurentPoly.gens(VS)
    rel = 1 + y1 + y2 + y1 * y2 ** 2
    sol = solve_formal_augmentation(rel, "y2", order=10)
    assert sol.kappa == -1
    assert sol.residual().is_zero()
    assert sol.series.constant_term() == 0


def test_solve_in_quotient_field():
    y1, y2 = LaurentPoly.gens(VS)
    rel = -2 + y1 + y2 ** 2
    sol = solve_formal_augmentation(rel, "y2", order=9,
                                    factor=UniPoly([-2, 0, 1]))
    assert sol.kappa ** 2 == 2
    assert sol.residual().is_zero()
    # closed form: s = log(1 - y1/2) / 2, with rational coefficients
    mu = TruncatedSeries.variable("y1", ("y1",), 9)
    expected = series_log(1 - mu.scale(F(1, 2))).scale(F(1, 2))
    assert sol.series == expected


def test_solver_rejects_negative_exponents_off_variable():
    y1, y2 = LaurentPoly.gens(VS)
    rel = 1 + y1 ** -1 + y2
    for kappa in (None, F(-1)):
        with pytest.raises(NegativeExponentAtZero, match="unimodular basis change"):
            solve_formal_augmentation(rel, "y2", kappa=kappa, order=4)
        with pytest.raises(NegativeExponentAtZero, match="unimodular basis change"):
            solve_nilpotent_augmentation(rel, 2, "y2", kappa=kappa, order=4)


def test_given_kappa_that_is_not_a_root_is_rejected():
    y1, y2 = LaurentPoly.gens(VS)
    rel = 1 + y1 + y2                   # restriction 1 + y: root -1
    for solve in (lambda **kw: solve_formal_augmentation(rel, "y2", **kw),
                  lambda **kw: solve_nilpotent_augmentation(rel, 2, "y2", **kw)):
        with pytest.raises(NoRootAvailable, match="kappa is not a root"):
            solve(kappa=F(2), order=4)


def test_nilpotent_solver_rejects_non_rational_kappa_before_evaluating(monkeypatch):
    """A kappa of the wrong type is rejected by name before the relation is
    restricted: the nilpotent solver at d >= 2 takes only rationals, the
    formal solver (and the nilpotent one at d = 1, which hands over to it)
    only ints, Fractions and quotient-ring elements."""
    y1, y2 = LaurentPoly.gens(VS)
    rel = 1 + y1 + y2
    monkeypatch.setattr(LaurentPoly, "set_vars_zero",
                        lambda *args: pytest.fail("kappa was evaluated"))
    root = QuotientRingElem(UniPoly([-1]), UniPoly([-2, 0, 1]))
    for kappa in (root, "-1", -1.0):
        with pytest.raises(NoRootAvailable, match="needs a rational root"):
            solve_nilpotent_augmentation(rel, 2, "y2", kappa=kappa, order=4)
    for kappa in ("-1", -1.0, [-1]):
        with pytest.raises(NoRootAvailable, match="kappa must be an int"):
            solve_formal_augmentation(rel, "y2", kappa=kappa, order=3)
        with pytest.raises(NoRootAvailable, match="kappa must be an int"):
            solve_nilpotent_augmentation(rel, 1, "y2", kappa=kappa, order=3)


def test_bool_kappa_is_rejected_before_evaluating(monkeypatch):
    """True equals the root 1 of 1 + y1 - y2 but is not a root value: both
    solvers, at every multiplicity, reject it by name."""
    y1, y2 = LaurentPoly.gens(VS)
    rel = 1 + y1 - y2
    monkeypatch.setattr(LaurentPoly, "set_vars_zero",
                        lambda *args: pytest.fail("kappa was evaluated"))
    solves = (lambda: solve_formal_augmentation(rel, "y2", kappa=True, order=3),
              lambda: solve_nilpotent_augmentation(rel, 1, "y2", kappa=True, order=3),
              lambda: solve_nilpotent_augmentation(rel, 2, "y2", kappa=True, order=3))
    for solve in solves:
        with pytest.raises(NoRootAvailable, match="^kappa must be an int, a Fraction or a "
                           "QuotientRingElem, not bool$"):
            solve()


def test_multiplicity_must_be_an_int_at_least_one(monkeypatch):
    """A bool or non-int multiplicity raises ValueError before anything is
    evaluated: True no longer runs the formal solver, and 2.0 no longer
    fails deep inside a polynomial power."""
    y1, y2 = LaurentPoly.gens(VS)
    rel = 1 + y1 - y2
    monkeypatch.setattr(LaurentPoly, "set_vars_zero",
                        lambda *args: pytest.fail("relation was evaluated"))
    for multiplicity, name in ((True, "bool"), (False, "bool"), (2.0, "float"),
                               ("2", "str"), (F(2), "Fraction")):
        with pytest.raises(ValueError, match="^multiplicity must be an int, not %s$" % name):
            solve_nilpotent_augmentation(rel, multiplicity, "y2", order=3)
    for multiplicity in (0, -1):
        with pytest.raises(ValueError, match="^multiplicity must be >= 1$"):
            solve_nilpotent_augmentation(rel, multiplicity, "y2", order=3)


def test_iterates_only_refine_known_orders():
    """Recomputing at a higher order leaves every lower-order term alone."""
    rel = clifford_relation(3, "+,-,+").lifted_relation
    low = solve_formal_augmentation(rel, "y2", order=5)
    high = solve_formal_augmentation(rel, "y2", order=11)
    for exp, c in low.series.terms.items():
        assert high.series.terms[exp] == c


def test_residual_checked_by_independent_substitution():
    rel = clifford_relation(3, "+,+,-").lifted_relation
    sol = solve_formal_augmentation(rel, "y2", order=10)
    # drive the substitution by hand, not through AugmentationSeries
    mu = TruncatedSeries.variable("y1", ("y1",), 10)
    y2val = series_exp(sol.series).scale(sol.kappa)
    assert rel.evaluate({"y1": mu, "y2": y2val}).is_zero()


def test_point_on_variety_examples():
    y1, y2 = LaurentPoly.gens(VS)
    assert point_on_variety(1 + y1 + y2, {"y1": F(-2), "y2": F(1)})
    assert not point_on_variety(1 + y1 + y2, {"y1": F(1), "y2": F(1)})
    order = 6
    mu = TruncatedSeries.variable("mu", ("mu",), order)
    assert point_on_variety(1 + y1 - y2, {"y1": mu, "y2": 1 + mu})


def test_solution_point_lies_on_variety():
    rel = clifford_relation(3).lifted_relation
    sol = solve_formal_augmentation(rel, "y2", order=8)
    assert point_on_variety(rel, augmentation_point(sol))


@pytest.mark.parametrize("signs", ["+,+,+", "+,+,-", "+,-,+", "-,+,+", "-,-,-"])
def test_every_solution_point_lies_on_variety(signs):
    rel = clifford_relation(3, signs).lifted_relation
    sol = solve_formal_augmentation(rel, "y2", order=8)
    assert point_on_variety(rel, augmentation_point(sol))


def test_solver_fuzz_random_relations():
    """Random relations with a built-in simple rational root: the solved
    series always has zero constant term and exactly vanishing residual."""
    import random
    rng = random.Random(4242)
    roots = [F(1), F(-1), F(2), F(-2), F(1, 2)]
    for trial in range(30):
        nvars = rng.choice([2, 3])
        vs = tuple("y%d" % i for i in range(1, nvars + 1))
        gens = LaurentPoly.gens(vs)
        yk = gens[-1]
        kappa = rng.choice(roots)
        # restriction (1 - y/kappa) * unit_at_kappa has a simple root kappa
        restriction = 1 - yk * (1 / kappa)
        if rng.random() < 0.5:
            restriction = restriction * (2 + yk)   # extra factor, no root at kappa
            if kappa == -2:
                continue
        rel = restriction
        for g in gens[:-1]:
            extra = LaurentPoly.constant(F(rng.randint(-3, 3)), vs)
            for h in gens:
                if rng.random() < 0.4:
                    extra = extra * h
            rel = rel + g * extra
        try:
            sol = solve_formal_augmentation(rel, vs[-1], kappa=kappa, order=7)
        except DoubleRoot:
            continue
        assert sol.series.constant_term() == 0
        assert sol.residual().is_zero()
        assert point_on_variety(rel, augmentation_point(sol))


# --------------------------------------------------------------------------
# nilpotent solver
# --------------------------------------------------------------------------

def test_nilpotent_order_two():
    y, = LaurentPoly.gens(("y",))
    sol = solve_nilpotent_augmentation(1 - y, 2, "y", order=6)
    assert (sol.image ** 2).is_zero()
    assert not sol.image.is_zero()
    # full relation (1 - y)^2 maps to zero on this witness
    assert (sol.image * sol.image).is_zero()


def test_nilpotent_order_three_with_series():
    y1, y = LaurentPoly.gens(("y1", "y"))
    sol = solve_nilpotent_augmentation(1 + y1 - y, 3, "y", order=8)
    assert next(d for d in range(1, 4) if (sol.image ** d).is_zero()) == 3
    assert (sol.image ** 3).is_zero()
    assert not (sol.image ** 2).is_zero()
    assert sol.residual().is_zero()
    assert sol.series.constant_term() == 0


def test_nilpotent_multiplicity_one_degenerates():
    y1, y = LaurentPoly.gens(("y1", "y"))
    sol = solve_nilpotent_augmentation(1 + y1 - y, 1, "y", order=8)
    assert sol.kappa == 1
    assert sol.series == _log1p("y1", 8)


def test_nilpotent_rejects_double_root():
    y1, y = LaurentPoly.gens(("y1", "y"))
    rel = 1 - 2 * y + y ** 2 + y1
    with pytest.raises(DoubleRoot):
        solve_nilpotent_augmentation(rel, 2, "y", order=4)


# --------------------------------------------------------------------------
# partitions and DGA relations
# --------------------------------------------------------------------------

def test_component_counts():
    """Without spin labels the components are the partitions into blocks
    of size <= 2, counted by the involution numbers, none repeated."""
    spec = clifford_relation(3)
    for ell, count in zip(range(1, 7), (1, 2, 4, 10, 26, 76)):
        blocks = [c.blocks for c in enumerate_partition_components(ell, spec)]
        assert len(blocks) == len(set(blocks)) == count


def test_partition_witness_is_pinned():
    """Pair {1, 2} shares the point (2, 9), where sheet 1's relation
    1 - 2 + 9 is 8, so a_21 = -8; singleton 3 sits on 1 + y1 - y2 = 0."""
    w = build_partition_witness(((1, 2), (3,)),
                                ((1, -1, 1), (1, -1, 1), (1, 1, -1)), 2)
    assert w.to_obj() == {
        "ell": 3,
        "y": {"1": ["2", "9"], "2": ["2", "9"], "3": ["13", "14"]},
        "a": {"12": "1", "13": "0", "21": "-8", "23": "0", "31": "0", "32": "0"},
        "signs": [[1, -1, 1], [1, -1, 1], [1, 1, -1]],
    }
    assert dga_relation_check(w).passed


def test_partition_witness_perturbation_labels_are_pinned():
    w = build_partition_witness(((1, 2), (3,)),
                                ((1, -1, 1), (1, -1, 1), (1, 1, -1)), 2)
    assert [label for label, _ in perturbations(w)] == [
        "y_1,1", "y_2,1", "y_1,2", "y_2,2", "y_1,3", "y_2,3",
        "a_12", "a_13", "a_21", "a_23", "a_31", "a_32"]


def test_partition_witness_without_distinct_values_raises():
    """With one variable per sheet, or signs of the other variables that
    cancel, a singleton sheet's solved value is the same at every offset:
    two singletons with one value, or one whose value is zero, raise
    PreconditionViolation naming the sheets instead of searching forever."""
    with pytest.raises(PreconditionViolation,
                       match=r"^sheet 2 needs y_1 = -1 .*, as sheet 1 does,"):
        build_partition_witness(((1,), (2,)), (1, 1), 1)
    with pytest.raises(PreconditionViolation,
                       match=r"^sheet 3 needs y_1 = 1 .*, as sheet 2 does,"):
        build_partition_witness(((1,), (2,), (3,)), ((1, 1), (1, -1), (1, -1)), 1)
    with pytest.raises(PreconditionViolation,
                       match=r"^sheet 2 needs y_3 = 6 .*, as sheet 1 does,"):
        build_partition_witness(((1,), (2,)), (1, 1, -1, 1), 3)
    with pytest.raises(PreconditionViolation,
                       match=r"^sheet 1 needs y_1 = 0 .*, and the value must be nonzero"):
        build_partition_witness(((1,),), (0, 1), 1)
    # one singleton, or singletons with different values, still get a witness
    w = build_partition_witness(((1,), (2,)), ((1, 1), (1, -1)), 1)
    assert w.y == ((-1,), (1,)) and dga_relation_check(w).passed
    w = build_partition_witness(((1, 2), (3,)), (1, 1, -1, 1), 3)
    assert dga_relation_check(w).passed


def _witnesses():
    """Every witness for two and three sheets, over every sign vector in
    {+1, -1}^3, with and without the spin labels a, b, a."""
    for ell in (2, 3):
        for signs in itertools.product((1, -1), repeat=3):
            spec = clifford_relation(3, signs)
            for spins in (None, ["a", "b", "a"][:ell]):
                for comp in enumerate_partition_components(ell, spec, spins):
                    yield build_partition_witness(comp.blocks, spec.signs, 2)


def test_partition_witness_values_are_ints():
    for w in _witnesses():
        values = [v for row in w.y for v in row] + [v for _, v in w.a]
        assert all(type(v) is int for v in values), w


def test_int_witness_checks_like_its_fraction_copy():
    """The int witness and a Fraction copy of it give one report, one
    verdict and the same perturbation verdicts, label by label."""
    count = 0
    for w in _witnesses():
        copy = replace(w, y=tuple(tuple(F(v) for v in row) for row in w.y),
                       a=tuple((jk, F(v)) for jk, v in w.a))
        assert all(type(v) is F for _, v in copy.a)
        assert copy.to_obj() == w.to_obj()
        assert dga_relation_check(copy) == dga_relation_check(w)
        ours, theirs = perturbations(w), perturbations(copy)
        assert [label for label, _ in ours] == [label for label, _ in theirs]
        for (label, p), (_, q) in zip(ours, theirs):
            assert dga_relation_check(p) == dga_relation_check(q), label
            count += 1
    assert count > 0


def test_dga_check_missing_chord_raises_before_any_relation():
    """delta(a_11) fails here, but a_23 has no value: the check names the
    missing chord instead of reporting the failed relation."""
    a = {(j, k): F(0) for j in (1, 2, 3) for k in (1, 2, 3) if j != k}
    del a[(2, 3)]
    cand = AugCandidate(3, ((F(1), F(1)), (F(-2), F(1)), (F(1), F(-2))),
                        tuple(sorted(a.items())), ((1, 1, 1),) * 3)
    with pytest.raises(MissingAssignment, match="a_23"):
        dga_relation_check(cand)


def test_spin_filter():
    spec = clifford_relation(3)
    assert len(enumerate_partition_components(2, spec, ["a", "b"])) == 1
    assert len(enumerate_partition_components(3, spec, ["a", "a", "b"])) == 2


def test_component_equations():
    spec = clifford_relation(3)
    comps = enumerate_partition_components(2, spec)
    by_label = {c.label(): c for c in comps}
    diag = by_label["{1,2}"]
    assert len(diag.equations) == 2          # y1_1 - y1_2, y2_1 - y2_2
    split = by_label["{1}|{2}"]
    assert len(split.equations) == 2         # one sheet relation per singleton
    assert all("1" in str(e) for e in split.equations)


def test_candidate_json_round_trip():
    obj = {
        "ell": 2,
        "y": {"1": ["-2", "1"], "2": ["1", "-2"]},
        "a": {"12": "0", "21": "0"},
        "signs": [1, 1, 1],
    }
    cand = AugCandidate.from_obj(obj)
    again = AugCandidate.from_obj(cand.to_obj())
    assert again == cand


def test_candidate_missing_assignment():
    with pytest.raises(MissingAssignment):
        AugCandidate.from_obj({"ell": 2, "y": {"1": ["1", "1"]},
                               "a": {}, "signs": [1, 1, 1]})


def test_candidate_sheets_must_be_a_map():
    with pytest.raises(MissingAssignment, match="sheet numbers"):
        AugCandidate.from_obj({"ell": 2, "y": [["1", "1"], ["2", "2"]],
                               "a": {"12": "0", "21": "0"}, "signs": [1, 1, 1]})


def test_dga_check_split_component_passes():
    cand = AugCandidate.from_obj({
        "ell": 2,
        "y": {"1": ["-2", "1"], "2": ["1", "-2"]},
        "a": {"12": "0", "21": "0"},
        "signs": [1, 1, 1],
    })
    assert dga_relation_check(cand).passed


def test_dga_check_diagonal_component_passes():
    # shared off-variety point (1, 1): W = 3; a12 = 1, a21 = -3
    cand = AugCandidate.from_obj({
        "ell": 2,
        "y": {"1": ["1", "1"], "2": ["1", "1"]},
        "a": {"12": "1", "21": "-3"},
        "signs": [1, 1, 1],
    })
    assert dga_relation_check(cand).passed


def test_dga_check_reports_violated_relation():
    cand = AugCandidate.from_obj({
        "ell": 2,
        "y": {"1": ["1", "1"], "2": ["1", "-2"]},   # sheet 1 off the variety
        "a": {"12": "0", "21": "0"},
        "signs": [1, 1, 1],
    })
    result = dga_relation_check(cand)
    assert not result.passed
    assert result.violated == "delta(a_11)"


def test_witnesses_pass_and_all_perturbations_fail():
    for ell in (2, 3):
        spec = clifford_relation(3)
        comps = enumerate_partition_components(ell, spec)
        for comp in comps:
            w = build_partition_witness(comp.blocks, spec.signs, 2)
            assert dga_relation_check(w).passed, comp.label()
            for label, pert in perturbations(w):
                assert not dga_relation_check(pert).passed, \
                    "%s survived %s" % (comp.label(), label)


def test_witnesses_with_mixed_signs():
    signs = (1, -1, 1)
    spec = clifford_relation(3, signs)
    comps = enumerate_partition_components(3, spec)
    for comp in comps:
        w = build_partition_witness(comp.blocks, spec.signs, 2)
        assert dga_relation_check(w).passed


def test_cyclic_relation_violation_detected():
    # a12 and a23 simultaneously nonzero violates delta(a_13) = a12 a23
    base = build_partition_witness(((1,), (2,), (3,)), (1, 1, 1), 2)
    a = dict(base.a)
    a[(1, 2)] = F(1)
    a[(2, 3)] = F(1)
    cand = AugCandidate(3, base.y, tuple(sorted(a.items())), base.signs)
    result = dga_relation_check(cand)
    assert not result.passed


# --------------------------------------------------------------------------
# chord degrees
# --------------------------------------------------------------------------

def test_chord_degrees_three_sheets():
    params = ChordDegreeParams(sheets=3, theta_over_pi=F(2, 9), slope=F(3))
    assert reeb_chord_degree(params, 1, 2) == (F(-1, 3), 1)
    assert reeb_chord_degree(params, 2, 3) == (F(-1, 3), 1)
    assert reeb_chord_degree(params, 1, 3) == (F(1, 3), 1)
    # wrapped chords
    assert reeb_chord_degree(params, 2, 1) == (F(1, 3), 1)
    assert reeb_chord_degree(params, 3, 1) == (F(-1, 3), 1)
    assert reeb_chord_degree(params, 3, 2) == (F(1, 3), 1)


def test_solver_rejects_a_bool_order():
    rel = clifford_relation(3, "+,+,-").lifted_relation
    with pytest.raises(ValueError):
        solve_formal_augmentation(rel, "y2", order=True)


def test_chord_degree_bounds_checked():
    params = ChordDegreeParams(sheets=3, theta_over_pi=F(2, 9), slope=F(3))
    with pytest.raises(IndexOutOfRange):
        reeb_chord_degree(params, 0, 1)
    with pytest.raises(IndexOutOfRange):
        reeb_chord_degree(params, 1, 4)
    with pytest.raises(IndexOutOfRange):
        reeb_chord_degree(params, 2, 2)


def test_chord_params_validated():
    with pytest.raises(ValueError):
        ChordDegreeParams(sheets=3, theta_over_pi=F(-1, 9), slope=F(3))
    with pytest.raises(ValueError):
        ChordDegreeParams(sheets=1, theta_over_pi=F(1, 9), slope=F(3))
