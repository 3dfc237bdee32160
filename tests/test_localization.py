"""Tests for fixed-point contributions and the multiple-cover identity."""

from fractions import Fraction

import pytest

from augvar.localization import (
    FixedPointData,
    euler_contribution,
    hl_cover_weights,
    log_series,
    multicover_series,
    verify_multicover_identity,
)

F = Fraction


def cover_contribution(d):
    """The d-fold cover's Euler contribution, from its weight data."""
    return euler_contribution(hl_cover_weights(d))


def test_trivial_fixed_point():
    p = FixedPointData((1,), (1,), 1)
    assert euler_contribution(p) == 1


def test_sphere_tangent_bundle():
    # two fixed points, each with matching weight up to sign
    north = FixedPointData((1,), (1,), 1)
    south = FixedPointData((-1,), (-1,), 1)
    assert euler_contribution(north) + euler_contribution(south) == 2


def test_orbifold_point_with_automorphisms():
    p = FixedPointData((-1, -2), (2, 3), 3)
    assert euler_contribution(p) == F(1, 9)


def test_weights_validated():
    with pytest.raises(ValueError):
        FixedPointData((0,), (1,), 1)
    with pytest.raises(ValueError):
        FixedPointData((1,), (1,), 0)


def test_multiplicative_under_disjoint_union():
    p = FixedPointData((-1, 3), (2,), 2)
    q = FixedPointData((5,), (-2, 7), 3)
    union = FixedPointData(p.numerator_weights + q.numerator_weights,
                           p.denominator_weights + q.denominator_weights,
                           p.automorphism_order * q.automorphism_order)
    assert euler_contribution(union) == euler_contribution(p) * euler_contribution(q)


# ----------------------------------------------------------------- hl covers

def test_hl_weights_structure():
    p = hl_cover_weights(1)
    assert p.numerator_weights == () and p.denominator_weights == ()
    assert p.automorphism_order == 1
    assert euler_contribution(p) == 1
    p3 = hl_cover_weights(3)
    assert p3.numerator_weights == (-1, -2)
    assert p3.denominator_weights == (2, 3)
    assert p3.automorphism_order == 3


def test_hl_contribution_closed_form():
    for d in range(1, 21):
        assert cover_contribution(d) == F((-1) ** (d - 1), d * d)


@pytest.mark.parametrize("d", [1000, 2999, 3000])
def test_hl_contribution_of_a_large_cover(d):
    # the weight products are about (d - 1)! and d!; they are reduced once
    assert cover_contribution(d) == F((-1) ** (d - 1), d * d)


def test_euler_contribution_of_fraction_weights():
    p = FixedPointData((F(1, 2), -3), (F(3, 4), 5), 2)
    assert euler_contribution(p) == F(-1, 5)


def test_hl_contribution_sign_alternates():
    for d in range(1, 20):
        assert cover_contribution(d) * cover_contribution(d + 1) < 0


# ----------------------------------------------------------- multicover sums

def test_multicover_series_one_variable():
    s = multicover_series(1, 3)
    assert s.terms == {(1,): F(1), (2,): F(-1, 2), (3,): F(1, 3)}


def test_multicover_series_two_variable_coefficients():
    s = multicover_series(2, 4)
    assert s.terms[1, 1] == -1          # multinomial 2 times -1/2
    assert s.terms[2, 1] == 1           # multinomial 3 times 1/3
    assert s.terms[1, 0] == 1
    assert s.terms[2, 2] == F(6, 4) * -1  # multinomial 6 times -1/4


def test_multicover_equals_log_closed_form():
    for m in (1, 2, 3):
        for order in (3, 5, 8):
            equal, compared = verify_multicover_identity(m, order)
            assert equal
            assert compared > 0
    equal, compared = verify_multicover_identity(3, 8)
    assert compared >= 160


def test_log_series_matches_library_log():
    s = log_series(2, 6)
    assert s.terms[1, 0] == 1
    assert s.terms[0, 2] == F(-1, 2)
    assert s.constant_term() == 0
