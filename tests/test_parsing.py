"""Expression parsing and the printer round trip."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from cayleyunits import (
    AlgebraElement,
    ElementSyntaxError,
    UnknownGeneratorError,
    cyclic,
    format_element,
    parse_element,
    quaternion8,
    symmetric3,
)
from helpers import D4, elements

C4 = cyclic(4)


def test_parse_sums_and_powers():
    assert parse_element("1 + x - x^2", C4) == AlgebraElement(
        C4, {0: Fraction(1), 1: Fraction(1), 2: Fraction(-1)}
    )
    assert parse_element("x^-1", C4) == AlgebraElement.basis_element(C4, 3)
    assert parse_element("x^0", C4) == AlgebraElement.one(C4)
    assert parse_element("x^6", C4) == AlgebraElement.basis_element(C4, 2)


def test_parse_huge_exponents_reduce_by_the_element_order():
    c5 = cyclic(5)
    assert parse_element("x^1000000000001", c5) == parse_element("x", c5)
    assert parse_element("x^-1000000000001", c5) == parse_element("x^4", c5)


def test_parse_rational_coefficients():
    assert parse_element("2/3*x*y", D4) == AlgebraElement(
        D4, {D4.mul[1][D4.index_of("y")]: Fraction(2, 3)}
    )
    assert parse_element("-5", C4) == AlgebraElement(C4, {0: Fraction(-5)})
    assert parse_element("3/7", C4) == AlgebraElement(C4, {0: Fraction(3, 7)})
    assert parse_element("- 1/2 * x + x", C4) == AlgebraElement(C4, {1: Fraction(1, 2)})


def test_parse_monomial_products():
    group = quaternion8()
    left = parse_element("x*y", group)
    expected = group.mul[group.index_of("x")][group.index_of("y")]
    assert left == AlgebraElement.basis_element(group, expected)
    assert parse_element("x*x*x", group) == AlgebraElement.basis_element(group, group.power(1, 3))
    assert parse_element("x^2*y", group) == AlgebraElement.basis_element(
        group, group.index_of("x^2*y")
    )


def test_parse_collects_repeated_terms():
    assert parse_element("x + x + x", C4) == 3 * AlgebraElement.basis_element(C4, 1)
    assert parse_element("x - x", C4) == AlgebraElement.zero(C4)


def test_parse_whitespace_insensitive():
    a = parse_element("1-2/3*x^2+x", C4)
    b = parse_element(" 1 - 2/3 * x ^ 2 + x ", C4)
    assert a == b


def test_unknown_generator():
    with pytest.raises(UnknownGeneratorError) as info:
        parse_element("1 + z", C4)
    assert info.value.name == "z"
    assert "z" in str(info.value)


def test_identity_word_is_not_a_generator():
    # The identity enters expressions as the rational term, not as a name.
    with pytest.raises(UnknownGeneratorError):
        parse_element("1 + one", C4)


@pytest.mark.parametrize(
    "text",
    ["", "x +", "2//3", "*x", "x^", "x 2", "x ^ y", "2*", "2*3", "1/0", "x!", "+"],
)
def test_syntax_errors(text):
    with pytest.raises((ElementSyntaxError, UnknownGeneratorError)):
        parse_element(text, C4)


def test_syntax_error_reports_position():
    with pytest.raises(ElementSyntaxError) as info:
        parse_element("x + ", C4)
    assert info.value.position == 4
    with pytest.raises(ElementSyntaxError) as info:
        parse_element("x ? x", C4)
    assert info.value.position == 2


@settings(deadline=None)
@given(a=elements(D4))
def test_round_trip_on_dihedral(a):
    assert parse_element(format_element(a), D4) == a


@settings(deadline=None)
@given(a=elements(cyclic(7)))
def test_round_trip_on_cyclic(a):
    assert parse_element(format_element(a), cyclic(7)) == a


def test_round_trip_random_seeded():
    rng = random.Random(777)
    group = quaternion8()
    for _ in range(50):
        pairs = [
            (g, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
            for g in group.elements()
            if rng.random() < 0.5
        ]
        a = AlgebraElement(group, pairs)
        assert parse_element(format_element(a), group) == a
