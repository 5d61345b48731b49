"""Sequence recurrences, closed forms, and the coefficient formulas."""

from fractions import Fraction

import pytest

from cayleyunits import (
    AlgebraElement,
    companion_sequence,
    cyclic,
    fibonacci,
    fibonacci_like,
    fibonacci_like_closed,
    inverse_coeff_sum_closed,
    inverse_coeffs_difference,
    inverse_coeffs_fibonacci,
    inverse_coeffs_sum,
    unit_coeffs_difference,
    unit_coeffs_sum,
)
from helpers import Q_GRID


def test_fibonacci_values():
    assert [fibonacci(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_fibonacci_like_reduces_to_fibonacci():
    for i in range(31):
        assert fibonacci_like(1, i) == fibonacci(i)


def test_fibonacci_like_recurrence():
    q = Fraction(2)
    for i in range(2, 15):
        assert fibonacci_like(q, i) == q * q * fibonacci_like(q, i - 2) + fibonacci_like(q, i - 1)
    assert fibonacci_like(q, 0) == 0
    assert fibonacci_like(q, 1) == 1
    assert fibonacci_like(q, 4) == 9


def test_fibonacci_like_closed_matches_recurrence():
    for q in (Fraction(1, 2), Fraction(2), Fraction(-3), Fraction(7)):
        for i in range(1, 26):
            assert fibonacci_like_closed(q, i) == fibonacci_like(q, i)
    with pytest.raises(ValueError):
        fibonacci_like_closed(1, 0)


def test_inverse_coeffs_difference_small_orders():
    for q in Q_GRID:
        a3 = inverse_coeffs_difference(3, q)
        assert a3[0] == (q * q + 1) / (1 + 3 * q * q)
        a4 = inverse_coeffs_difference(4, q)
        assert a4[1] == -q / (1 + 4 * q * q)
    assert inverse_coeffs_fibonacci(5) == [
        Fraction(5, 11), Fraction(-2, 11), Fraction(3, 11), Fraction(1, 11), Fraction(4, 11),
    ]
    assert inverse_coeffs_fibonacci(4)[0] == Fraction(3, 5)


def test_inverse_coeffs_difference_is_a_convolution_inverse():
    for n in range(3, 16):
        group = cyclic(n)
        one = AlgebraElement.one(group)
        for q in Q_GRID:
            a = inverse_coeffs_difference(n, q)
            elem = AlgebraElement(group, {0: Fraction(1), 1: q, n - 1: -q})
            inv = AlgebraElement(group, dict(enumerate(a)))
            assert elem * inv == one
            assert inv * elem == one


def test_inverse_coeffs_difference_rejects_bad_input():
    with pytest.raises(ValueError):
        inverse_coeffs_difference(2, 1)
    with pytest.raises(ValueError):
        inverse_coeffs_difference(5, 0)
    with pytest.raises(ValueError):
        inverse_coeffs_fibonacci(2)


def test_fibonacci_specialization_agrees():
    for n in range(3, 21):
        assert inverse_coeffs_fibonacci(n) == inverse_coeffs_difference(n, 1)


def test_unit_coeffs_difference_identities():
    for n in range(3, 12):
        for q in Q_GRID:
            a = inverse_coeffs_difference(n, q)
            b = unit_coeffs_difference(a, n, q)
            assert b[0] == 2 * a[0] - 1
            assert b[1:] == [2 * ai for ai in a[1:]]
    for q in Q_GRID:
        b3 = unit_coeffs_difference(inverse_coeffs_difference(3, q), 3, q)
        assert b3[0] == (1 - q * q) / (1 + 3 * q * q)
        b4 = unit_coeffs_difference(inverse_coeffs_difference(4, q), 4, q)
        assert b4[1] == -2 * q / (1 + 4 * q * q)


def test_inverse_coeffs_sum_patterns():
    assert inverse_coeffs_sum(4) == [
        Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3),
    ]
    assert inverse_coeffs_sum(8) == [
        Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3),
        Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3),
    ]
    assert inverse_coeffs_sum(6) is None
    assert inverse_coeffs_sum(12) is None


def test_inverse_coeffs_sum_rejects_bad_orders():
    for n in (2, 3, 5, 7):
        with pytest.raises(ValueError):
            inverse_coeffs_sum(n)


def test_inverse_coeffs_sum_solves_the_cyclic_system():
    for n in range(4, 41, 2):
        a = inverse_coeffs_sum(n)
        if n % 6 == 0:
            assert a is None
            continue
        assert a[n - 1] + a[0] + a[1] == 1
        for k in range(2, n + 1):
            assert a[k - 2] + a[(k - 1) % n] + a[k % n] == 0
        group = cyclic(n)
        elem = AlgebraElement(group, {0: Fraction(1), 1: Fraction(1), n - 1: Fraction(1)})
        assert elem * AlgebraElement(group, dict(enumerate(a))) == AlgebraElement.one(group)


def test_companion_sequence_values_and_parity():
    assert [companion_sequence(k) for k in range(8)] == [2, 2, -4, -16, -16, 32, 128, 128]
    for k in range(60):
        assert companion_sequence(k) % 2 == 0


def test_companion_sequence_matches_conjugate_power_sums():
    # (1 + s)^k + (1 - s)^k with s^2 = -3, computed exactly in integer pairs.
    u, v = 1, 0
    for k in range(40):
        assert companion_sequence(k) == 2 * u
        u, v = u - 3 * v, u + v


def test_closed_form_matches_period_three_values():
    for branch in (2, 4):
        a = inverse_coeffs_sum(96 + branch)
        for k in range(2, 101):
            assert inverse_coeff_sum_closed(branch, k) == a[k % 3]


def test_closed_form_rejects_bad_input():
    with pytest.raises(ValueError):
        inverse_coeff_sum_closed(0, 5)
    with pytest.raises(ValueError):
        inverse_coeff_sum_closed(2, 1)


def test_unit_coeffs_sum():
    a = inverse_coeffs_sum(4)
    assert unit_coeffs_sum(a) == [
        Fraction(-1, 3), Fraction(2, 3), Fraction(-4, 3), Fraction(2, 3),
    ]
    b = unit_coeffs_sum(inverse_coeffs_sum(8))
    assert b[0] == Fraction(-5, 3)
    assert b[1] == Fraction(4, 3)


def test_integer_numerators_match_the_fraction_closed_forms():
    from cayleyunits.sequences import _difference_numerators

    grid = Q_GRID + (Fraction(-1, 2), Fraction(3, 7), Fraction(-5, 3))
    for n in range(3, 40):
        for q in grid:
            a, b, d = _difference_numerators(n, q)
            assert d > 0
            expected_a = inverse_coeffs_difference(n, q)
            assert [Fraction(c, d) for c in a] == expected_a
            assert [Fraction(c, d) for c in b] == unit_coeffs_difference(expected_a, n, q)
    with pytest.raises(ValueError):
        _difference_numerators(2, Fraction(1))
    with pytest.raises(ValueError):
        _difference_numerators(5, Fraction(0))
