"""Unit tests for the exact scalar tower."""

from fractions import Fraction

import pytest

from gray_stability.scalars import (
    I,
    J,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    Scalar,
    rational,
)


def test_cube_root_of_unity():
    assert J * J * J == ONE
    assert J == rational(-1, 2) + I * SQRT3 * rational(1, 2)


def test_inverse_sqrt2_squares_to_half():
    inv = SQRT2.inverse()
    assert inv * inv == rational(1, 2)
    assert SQRT2 * SQRT2 == rational(2)
    assert SQRT3 * SQRT3 == rational(3)
    assert SQRT2 * SQRT3 == SQRT6


def test_one_minus_j_squared():
    # j^2 = (-1 - i sqrt3)/2, so 1 - j^2 = (3 + i sqrt3)/2.
    expected = rational(3, 2) + I * SQRT3 * rational(1, 2)
    assert ONE - J * J == expected


def test_conjugation():
    assert J.conjugate() == J * J
    assert SQRT2.inverse().conjugate() == SQRT2.inverse()
    assert (I * SQRT6).conjugate() == -(I * SQRT6)
    s = rational(3, 7) + I * SQRT2 - SQRT3 * rational(2)
    assert s.conjugate().conjugate() == s


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_round_trip():
    a = rational(3, 5) + SQRT2 * rational(7) - I * SQRT6 * rational(1, 3)
    b = rational(-2) + I * SQRT3
    assert (a / b) * b == a


def test_power():
    assert J ** 3 == ONE
    assert J ** 0 == ONE
    assert (SQRT2 ** -2) == rational(1, 2)


def test_real_imag_parts():
    s = rational(1, 2) + I * SQRT3 + SQRT2
    assert s.real() == rational(1, 2) + SQRT2
    assert s.imag() == SQRT3
    assert s.real() + I * s.imag() == s


def test_rational_predicates():
    assert rational(5, 3).is_rational()
    assert rational(5, 3).rational() == Fraction(5, 3)
    assert not SQRT2.is_rational()
    with pytest.raises(ValueError):
        SQRT2.rational()


def test_json_round_trip():
    s = rational(-7, 3) + I * rational(1, 2) + SQRT6 * rational(4)
    data = s.to_json()
    assert data[0] == "-7/3" and data[1] == "1/2" and data[6] == "4"
    assert Scalar.from_json(data) == s


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE + I) == "1 + i"
    assert str(rational(1, 2) - I * SQRT3 * rational(1, 2)) == "1/2 - 1/2*i*sqrt3"


def test_coercion_with_ints_and_fractions():
    assert 2 * SQRT2 == SQRT2 + SQRT2
    assert SQRT2 + 0 == SQRT2
    assert Fraction(1, 2) * rational(2) == ONE
    assert 1 - J - J * J == J ** 3 + ONE  # 1 + j + j^2 = 0 rearranged
