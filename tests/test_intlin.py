"""Tests for the exact linear algebra layer."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from augvar import intlin
from augvar.cli import random_unimodular
from augvar.errors import (DegenerateFan, NotUnimodular, PreconditionViolation,
                           VerificationFailure)
from augvar.intlin import (
    _column_reduce,
    affine_frame,
    complete_primitive_row,
    det,
    fit_cone_to_orthant,
    lattice_index,
    mat_inverse,
    mat_vec,
    phase1_feasible,
    primitive_vector,
    rref,
)
from augvar.potentials import toric_relation

from hull_oracles import fraction_phase1_feasible, fraction_strict_dual_vector
from lattice_oracles import (fraction_mat_inverse, integer_kernel, minors_gcd_index,
                             rational_nullspace)

F = Fraction


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def test_det_known_values():
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_det_matches_permutation_expansion():
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randint(1, 4)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            M[-1] = list(M[0])                       # singular
        expansion = 0
        for perm in itertools.permutations(range(n)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            term = sign
            for i in range(n):
                term *= M[i][perm[i]]
            expansion += term
        assert det(M) == expansion, M


def _laplace_det(M):
    """Determinant by cofactor expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _laplace_det([r[:j] + r[j + 1:] for r in M[1:]])
               for j in range(len(M)) if M[0][j])


def _det_cases():
    rng = random.Random(31)
    cases = [[], [[0]], [[-4]],
             [[0, 1], [1, 0]], [[0, 3], [0, 5]], [[2, 4], [1, 2]], [[0, 0], [0, 0]],
             [[0, 1, 2], [0, 0, 1], [3, 1, 1]], [[0, 2, 1], [1, 1, 1], [2, 0, 1]],
             [[1, 2, 3], [2, 4, 6], [0, 1, 5]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]]
    for n in range(6):
        for _ in range(25):
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n and rng.random() < 0.3:
                for r in M[:rng.randint(1, n)]:
                    r[0] = 0                          # forces a row swap
            if n >= 2 and rng.random() < 0.2:
                M[-1] = [2 * x for x in M[rng.randrange(n - 1)]]   # singular
            cases.append(M)
    # the closed-form 3x3 determinant on large entries, and singular 3x3
    # matrices: a zero row, a repeated or scaled row, a combination row
    for big in (10 ** 6, 10 ** 12):
        for _ in range(40):
            a, b, c = ([rng.randint(-big, big) for _ in range(3)] for _ in range(3))
            s, t = rng.randint(-5, 5), rng.randint(-5, 5)
            cases.append([a, b, c])
            for rows in ([a, b, [0, 0, 0]], [a, b, a], [a, [s * x for x in a], b],
                         [a, b, [s * x + t * y for x, y in zip(a, b)]]):
                rng.shuffle(rows)
                cases.append(rows)
    cases.append([[10 ** 12, 0, 0], [0, 10 ** 12, 0], [0, 0, -(10 ** 12)]])
    return cases


def test_det_matches_laplace_expansion():
    for M in _det_cases():
        assert det(M) == _laplace_det(M), M
        assert det([tuple(r) for r in M]) == _laplace_det(M), M


def test_dot_stops_at_the_shorter_argument():
    assert intlin._dot((1, 2, 3), (4, 5)) == 14
    assert intlin._dot((4, 5), (1, 2, 3)) == 14
    assert intlin._dot((7, -1), ()) == 0
    assert intlin._dot((2, -3, 5), (1, 1, 1)) == 4


def test_mat_inverse_unimodular_is_integer():
    M = [[2, 1], [1, 1]]
    Minv = mat_inverse(M)
    assert all(isinstance(x, int) for row in Minv for x in row)
    n = len(M)
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert mat_mul(M, Minv) == eye


def test_mat_inverse_matches_the_fraction_gauss_jordan():
    # random unimodular matrices, and the matrices complete_primitive_row
    # inverts: the column reductions of seeded primitive rows
    rng = random.Random(29)
    cases = [random_unimodular(n, seed) for n in range(1, 6) for seed in range(30)]
    for _ in range(150):
        q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        if gcd(*q) == 1:
            cases.append(_column_reduce([q])[1])
    for M in cases:
        Minv = mat_inverse(M)
        assert all(type(x) is int for row in Minv for x in row)
        assert Minv == fraction_mat_inverse(M)
        assert mat_mul(M, Minv) == intlin.identity_matrix(len(M))


@pytest.mark.parametrize("M", [[[2, 1], [0, 1]], [[1, 2], [2, 4]], [[0]],
                               [[1, 0, 0], [0, 1, 0], [0, 0, 2]]])
def test_mat_inverse_rejects_a_matrix_that_is_not_unimodular(M):
    with pytest.raises(NotUnimodular):
        mat_inverse(M)


def test_rational_nullspace():
    rows = [(1, 1, 0), (0, 1, 1)]
    basis = rational_nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


def test_primitive_vector():
    assert primitive_vector([F(2, 3), F(4, 3)]) == (1, 2)
    assert primitive_vector([6, -9]) == (2, -3)


def test_integer_kernel_saturated():
    # kernel of (2, 4) in Z^2 is generated by (2, -1), not (4, -2)
    basis = integer_kernel([(2, 4)])
    assert len(basis) == 1
    v = basis[0]
    assert 2 * v[0] + 4 * v[1] == 0
    assert gcd(abs(v[0]), abs(v[1])) == 1


def test_complete_primitive_row():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 4)
        while True:
            q = tuple(rng.randint(-5, 5) for _ in range(n))
            g = 0
            for x in q:
                g = gcd(g, abs(x))
            if g == 1:
                break
        B = complete_primitive_row(q)
        assert tuple(B[0]) == q
        assert abs(det(B)) == 1


def test_phase1_feasible_simple():
    # x1 + x2 = 2, x1 - x2 = 0  ->  (1, 1)
    sol = phase1_feasible([[1, 1], [1, -1]], [2, 0])
    assert sol == [F(1), F(1)]
    # infeasible in nonnegatives: x1 + x2 = -1
    assert phase1_feasible([[1, 1]], [-1]) is None


def _strict_dual_lp(gens):
    """The LP of a strict dual vector of the cone spanned by gens, q with
    <q, u> >= 1 on every u: [u | -u | -e_i] x = 1."""
    m = len(gens)
    return ([list(u) + [-x for x in u] + [-int(j == i) for j in range(m)]
             for i, u in enumerate(gens)], [1] * m)


def _lp_instances(rng):
    """Seeded LPs of four shapes: strict-dual cones, rational systems with
    negative right-hand sides, systems built to tie in the ratio test, and
    the empty system."""
    yield [], []
    for _ in range(700):
        d = rng.randint(1, 4)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:              # pointed: push toward a direction
            w = [rng.randint(1, 2) for _ in range(d)]
            gens = [tuple(a + 2 * b for a, b in zip(g, w)) for g in gens]
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))    # repeated generator
        if rng.random() < 0.2:
            gens.insert(rng.randrange(len(gens) + 1), (0,) * d)   # zero generator
        yield _strict_dual_lp(gens)
    for _ in range(700):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = [[F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(n)]
             for _ in range(m)]
        b = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(m)]
        yield A, b
    for _ in range(700):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        b = [rng.choice([0, 0, 1, -1]) for _ in range(m)]
        # scaled copies of rows and zero right-hand sides tie in the ratio test
        for i in range(m):
            k = rng.choice([1, 2, 3])
            A.append([k * x for x in A[i]])
            b.append(k * b[i])
        yield A, b


def test_phase1_feasible_matches_fraction_oracle():
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    count = 0
    for A, b in _lp_instances(rng):
        x = phase1_feasible(A, b)
        assert x == fraction_phase1_feasible(A, b), (A, b)
        seen[x is None] += 1
        count += 1
    assert count >= 2000
    assert min(seen.values()) > 300      # feasible and infeasible alike


def test_phase1_feasible_ratio_tie_goes_to_smaller_basis_index():
    # entering column 0 ties rows 0 and 1 (ratio 1); artificial 2 < 3 leaves
    A, b = [[1, 1], [2, 2]], [1, 2]
    trail = []
    assert phase1_feasible(A, b) == fraction_phase1_feasible(A, b, trail) == [1, 0]
    assert trail == [0]
    assert phase1_feasible([], []) == fraction_phase1_feasible([], []) == []


def test_phase1_tableau_stays_integer_on_rational_input(monkeypatch):
    pivot = intlin._pivot
    kinds = set()

    def checked(T, l, e, D):
        kinds.update(type(x) for row in T for x in row)
        kinds.add(type(D))
        return pivot(T, l, e, D)

    monkeypatch.setattr(intlin, "_pivot", checked)
    A = [[F(1, 2), F(-2, 3), F(3)], [F(5, 4), 1, F(-1, 6)]]
    b = [F(-1, 3), F(7, 2)]
    assert phase1_feasible(A, b) == fraction_phase1_feasible(A, b)
    assert kinds == {int}


def test_phase1_feasible_verifies_its_answer(monkeypatch):
    pivot = intlin._pivot

    def corrupted(T, l, e, D):
        p = pivot(T, l, e, D)
        T[l][-1] += p                   # the basic value grows by one
        return p

    monkeypatch.setattr(intlin, "_pivot", corrupted)
    with pytest.raises(VerificationFailure):
        phase1_feasible([[1, 1]], [2])


def test_fit_cone_to_orthant_random():
    rng = random.Random(9)
    for trial in range(40):
        n = rng.randint(2, 3)
        # generators of a pointed cone: perturbations of a fixed direction,
        # moved by a unimodular map so that their signs mix
        base = tuple(rng.choice([1, 2]) for _ in range(n))
        U = random_unimodular(n, trial)
        gens = [mat_vec(U, tuple(b + rng.randint(0, 1) for b in base))
                for _ in range(rng.randint(1, 4))]
        q = fraction_strict_dual_vector(gens)
        M = fit_cone_to_orthant(gens, q)
        assert tuple(M[0]) == q
        assert abs(det(M)) == 1
        for u in gens:
            assert all(x >= 0 for x in mat_vec(M, u))
    with pytest.raises(PreconditionViolation):
        fit_cone_to_orthant([(1, 0), (1, 1), (-1, 2)], (1, 0))


def test_unimodular_random_roundtrip():
    for seed in range(25):
        M = random_unimodular(3, seed)
        Minv = mat_inverse(M)
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert mat_mul(M, Minv) == eye


def test_integer_kernel_properties_random():
    rng = random.Random(64)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        kernel = integer_kernel(A)
        # every kernel vector annihilates every row
        for v in kernel:
            for row in A:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # dimension matches n - rank
        _, pivots = rref(A)
        assert len(kernel) == n - len(pivots)
        # saturation: any rational solution is a rational combination of
        # the kernel basis, so the basis spans the full nullspace
        rat = rational_nullspace(A)
        assert len(rat) == len(kernel)


def test_integer_kernel_saturation_specific():
    # the integer solutions of 3x + 6y = 0 are multiples of (2, -1),
    # a primitive vector, not of (6, -3)
    basis = integer_kernel([(3, 6)])
    assert len(basis) == 1
    x, y = basis[0]
    assert 3 * x + 6 * y == 0
    assert gcd(abs(x), abs(y)) == 1


# (q, complete_primitive_row(q)), pinned: fitted bases, and the reports
# built on them, depend on these exact rows
COMPLETED_ROWS = [
    ((1, 0), [(1, 0), (0, 1)]),
    ((0, 1), [(0, 1), (1, 0)]),
    ((-1, 0), [(-1, 0), (0, 1)]),
    ((2, 3), [(2, 3), (1, 1)]),
    ((3, -2), [(3, -2), (-2, 1)]),
    ((-5, 7), [(-5, 7), (2, -3)]),
    ((4, 9), [(4, 9), (1, 2)]),
    ((1, 1, 1), [(1, 1, 1), (0, 1, 0), (0, 0, 1)]),
    ((2, 3, 5), [(2, 3, 5), (1, 1, 0), (0, 0, 1)]),
    ((6, 10, 15), [(6, 10, 15), (1, 2, 0), (3, 5, 7)]),
    ((-3, 0, 2), [(-3, 0, 2), (0, 1, 0), (-2, 0, 1)]),
    ((0, 0, -1), [(0, 0, -1), (0, 1, 0), (1, 0, 0)]),
    ((7, -4, 0, 9), [(7, -4, 0, 9), (-2, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    ((1, 2, 3, 4), [(1, 2, 3, 4), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    ((12, -18, 10, 15), [(12, -18, 10, 15), (1, -2, 0, 0), (2, -3, 2, 0), (6, -9, 5, 7)]),
]


@pytest.mark.parametrize("q, expected", COMPLETED_ROWS, ids=[str(q) for q, _ in COMPLETED_ROWS])
def test_complete_primitive_row_pinned(q, expected):
    assert [tuple(r) for r in complete_primitive_row(q)] == expected


def test_complete_primitive_row_rejects_non_primitive():
    for q in ((2, 4), (0, 0, 0), (-3, 6, 9)):
        with pytest.raises(ValueError):
            complete_primitive_row(q)


def test_column_reduce_is_unimodular_echelon_form():
    rng = random.Random(71)
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            A.append([2 * x for x in A[0]])            # a dependent row
        H, U, rank = _column_reduce(A)
        assert mat_mul(A, U) == H
        assert abs(det(U)) == 1
        assert rank == len(rref(A)[1])
        assert all(row[c] == 0 for row in H for c in range(rank, n))
        # each pivot column starts one row further down than the last
        leads = [next(i for i, row in enumerate(H) if row[c]) for c in range(rank)]
        assert leads == sorted(set(leads))


def _ray_sets(seed, count):
    """Seeded (rays, n) pairs in dimensions 1-4: random small vectors,
    some rank-deficient, some in an index-k sublattice."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        m = rng.randint(1, n + 3)
        rays = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        kind = rng.random()
        if kind < 0.3:
            k = rng.randint(2, 3)
            rays = [(k * r[0],) + r[1:] for r in rays]
        elif kind < 0.4 and n > 1:
            rays = [r[:-1] + (0,) for r in rays]
        out.append((rays, n))
    return out


def test_lattice_index_matches_minors_gcd():
    for rays, n in _ray_sets(5, 300):
        assert lattice_index(rays, n) == minors_gcd_index(rays, n), (rays, n)


def test_lattice_index_matches_smith_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    for rays, n in _ray_sets(6, 120):
        A = sympy.Matrix([[r[i] for r in rays] for i in range(n)])
        if A.rank() < n:
            expected = 0
        else:
            S = smith_normal_form(A, domain=sympy.ZZ)
            expected = abs(int(sympy.prod([S[i, i] for i in range(n)])))
        assert lattice_index(rays, n) == expected, (rays, n)


def _index_two_fan(rays):
    """Seeded primitive rays of Z^4 with even coordinate sum: they span
    the index-2 sublattice of such vectors."""
    rng = random.Random("index-two-fan-%d" % rays)
    out = [(1, 1, 0, 0), (1, -1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
    while len(out) < rays:
        v = tuple(rng.randint(-3, 3) for _ in range(4))
        if sum(v) % 2 == 0 and gcd(*v) == 1 and v not in out:
            out.append(v)
    return out


@pytest.mark.parametrize("rays", [10, 20, 40])
def test_index_two_fans_are_rejected(rays):
    fan = _index_two_fan(rays)
    assert lattice_index(fan, 4) == 2
    if rays <= 10:
        assert minors_gcd_index(fan, 4) == 2
    with pytest.raises(DegenerateFan):
        toric_relation(fan)
    assert lattice_index(fan + [(1, 0, 0, 0)], 4) == 1


def _affine_point_sets(seed, count):
    """Seeded point sets of every affine dimension in ambient dimension
    2-5: a shifted image of a box of coefficients under random generators,
    which need not be a basis of the saturated lattice."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 2 + len(out) % 4
        k = len(out) // 4 % (n + 1)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        shift = [rng.randint(-3, 3) for _ in range(n)]
        pts = list(dict.fromkeys(
            tuple(s + sum(c * g[j] for c, g in zip(coefs, gens))
                  for j, s in enumerate(shift))
            for coefs in [[rng.randint(-2, 2) for _ in range(k)]
                          for _ in range(rng.randint(1, 10))]))
        out.append(pts)
    return out


def test_affine_frame_matches_the_oracle_saturated_basis():
    dims = set()
    for pts in _affine_point_sets(2026, 240):
        n = len(pts[0])
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts]
        d, U, reduced = affine_frame(pts)
        dims.add((n, d))
        assert d == len(rref(diffs)[1])
        assert abs(det(U)) == 1
        assert all(type(x) is int for r in reduced for x in r)
        H = mat_mul(diffs, U)
        assert all(h[d:] == [0] * (n - d) for h in H), pts
        assert [tuple(h[:d]) for h in H] == reduced
        if d == n:
            assert U == [[int(i == j) for j in range(n)] for i in range(n)]
        else:
            # size-reduced pivot block: each pivot positive, the entries
            # left of it within half of it
            for c in range(d):
                lead = next(h for h in H if h[c])
                assert lead[c] > 0
                assert all(-lead[c] <= 2 * lead[j] < lead[c] for j in range(c))
        # the old basis of the saturated lattice has integer coordinates in
        # the frame, with a coordinate matrix of determinant +-1
        normals = rational_nullspace(diffs)
        basis = integer_kernel(normals) if normals else \
            [[int(i == j) for j in range(n)] for i in range(n)]
        assert len(basis) == d
        coords = mat_mul(basis, U)
        assert all(c[d:] == [0] * (n - d) for c in coords)
        assert abs(det([c[:d] for c in coords])) == 1, pts
    assert dims == {(n, d) for n in range(2, 6) for d in range(n + 1)}
