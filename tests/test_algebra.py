"""Exact algebra arithmetic, involutions, skew structure, and the oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyunits import (
    AlgebraElement,
    GroupMismatchError,
    cyclic,
    element_from_json,
    element_to_json,
    format_element,
    involute,
    involute_classical,
    involute_oriented,
    is_skew,
    is_unitary,
    materialize,
    oracle_inverse,
    orientation_from_generators,
    regular_representation,
    skew_basis,
    solve_linear,
)
from helpers import D4, Q8, S3, S3_ORIENT, elements, mat_mul, random_skew, rationals


def test_basic_arithmetic_in_c4():
    group = cyclic(4)
    x = AlgebraElement.basis_element(group, 1)
    one = AlgebraElement.one(group)
    a = one + x
    assert a - x == one
    assert -(a - a) == AlgebraElement.zero(group)
    assert 2 * x == x + x
    assert Fraction(1, 2) * (x + x) == x
    assert x * x == AlgebraElement.basis_element(group, 2)
    assert (one + x) * (one - x) == one - AlgebraElement.basis_element(group, 2)


def test_zero_coefficients_are_dropped():
    group = cyclic(3)
    a = AlgebraElement(group, {0: Fraction(1), 1: Fraction(0)})
    assert a.support() == (0,)
    assert a.coefficient(1) == 0
    assert AlgebraElement(group, [(1, 2), (1, -2)]) == AlgebraElement.zero(group)


def _reference_product(a, b):
    """The convolution term by term in Fractions, as the product is defined."""
    out = {}
    for g, x in a.coeff.items():
        for h, y in b.coeff.items():
            k = a.group.mul[g][h]
            out[k] = out.get(k, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def test_product_with_mixed_denominators_cancels_to_no_stored_zero():
    group = cyclic(2)
    a = AlgebraElement(group, {0: Fraction(1, 2), 1: Fraction(1, 3)})
    b = AlgebraElement(group, {0: Fraction(1, 3), 1: Fraction(-1, 2)})
    # The identity coefficient is 1/6 - 1/6.
    product = a * b
    assert product.coeff == {1: Fraction(-5, 36)}
    assert product == AlgebraElement(group, {1: Fraction(-5, 36)})
    assert all(type(c) is Fraction for c in product.coeff.values())
    c = AlgebraElement(group, {0: Fraction(1, 6), 1: Fraction(1, 6)})
    d = AlgebraElement(group, {0: Fraction(1, 2), 1: Fraction(-1, 2)})
    assert (c * d).coeff == {}
    assert c * d == AlgebraElement.zero(group)


@settings(deadline=None, max_examples=60)
@given(a=elements(S3), b=elements(S3))
def test_product_matches_termwise_fraction_convolution(a, b):
    assert (a * b).coeff == _reference_product(a, b)


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError, match="out of range"):
        AlgebraElement(cyclic(3), {3: 1})


def test_group_mismatch_raises():
    a = AlgebraElement.one(cyclic(3))
    b = AlgebraElement.one(cyclic(4))
    with pytest.raises(GroupMismatchError):
        a + b
    with pytest.raises(GroupMismatchError):
        a * b
    with pytest.raises(GroupMismatchError):
        involute_oriented(a, orientation_from_generators(cyclic(4), {"x": -1}))


def test_convolution_is_noncommutative_on_s3():
    x = AlgebraElement.basis_element(S3, S3.index_of("x"))
    y = AlgebraElement.basis_element(S3, S3.index_of("y"))
    assert x * y != y * x
    assert y * x == AlgebraElement.basis_element(S3, S3.mul[S3.index_of("y")][S3.index_of("x")])


def test_classical_involution_on_cyclic():
    group = cyclic(5)
    a = AlgebraElement(group, {1: Fraction(1), 2: Fraction(2)})
    assert involute_classical(a) == AlgebraElement(group, {4: Fraction(1), 3: Fraction(2)})
    assert involute_classical(AlgebraElement.one(group)) == AlgebraElement.one(group)


def test_oriented_involution_signs():
    y = AlgebraElement.basis_element(S3, S3.index_of("y"))
    assert involute_oriented(y, S3_ORIENT) == -y
    x = AlgebraElement.basis_element(S3, S3.index_of("x"))
    x2 = AlgebraElement.basis_element(S3, S3.inv[S3.index_of("x")])
    assert involute_oriented(x, S3_ORIENT) == x2


@settings(deadline=None)
@given(a=elements(S3), b=elements(S3))
def test_classical_involution_reverses_products(a, b):
    assert involute_classical(a * b) == involute_classical(b) * involute_classical(a)
    assert involute_classical(involute_classical(a)) == a


@settings(deadline=None)
@given(a=elements(S3), b=elements(S3))
def test_oriented_involution_reverses_products(a, b):
    star = lambda e: involute_oriented(e, S3_ORIENT)
    assert star(a * b) == star(b) * star(a)
    assert star(star(a)) == a


def test_is_skew_examples():
    group = cyclic(10)
    orientation = orientation_from_generators(group, {"x": -1})
    diff = AlgebraElement(group, {1: Fraction(1), 9: Fraction(-1)})
    total = AlgebraElement(group, {1: Fraction(1), 9: Fraction(1)})
    assert is_skew(diff)
    assert not is_skew(total)
    assert is_skew(total, orientation)
    assert not is_skew(diff, orientation)


def test_is_unitary_group_elements():
    x = AlgebraElement.basis_element(S3, S3.index_of("x"))
    y = AlgebraElement.basis_element(S3, S3.index_of("y"))
    assert is_unitary(x)
    assert is_unitary(y)
    assert is_unitary(x, S3_ORIENT)
    assert not is_unitary(y, S3_ORIENT)
    assert not is_unitary(2 * x)


def test_skew_basis_s3_oriented():
    basis = skew_basis(S3, S3_ORIENT)
    kinds = sorted((sg.kind, S3.names[sg.base]) for sg in basis)
    assert kinds == [("L1", "x"), ("L2", "x*y"), ("L2", "x^2*y"), ("L2", "y")]


def test_skew_basis_q8_orientations():
    orientation = orientation_from_generators(Q8, {"x": 1, "y": -1})
    kinds = sorted((sg.kind, Q8.names[sg.base]) for sg in skew_basis(Q8, orientation))
    assert kinds == [("L1", "x"), ("L3", "x*y"), ("L3", "y")]
    orientation = orientation_from_generators(Q8, {"x": -1, "y": -1})
    kinds = sorted((sg.kind, Q8.names[sg.base]) for sg in skew_basis(Q8, orientation))
    assert kinds == [("L1", "x*y"), ("L3", "x"), ("L3", "y")]


def test_skew_basis_d4_oriented():
    orientation = orientation_from_generators(D4, {"x": -1, "y": 1})
    kinds = sorted((sg.kind, D4.names[sg.base]) for sg in skew_basis(D4, orientation))
    assert kinds == [("L2", "x*y"), ("L2", "x^3*y"), ("L3", "x")]
    orientation = orientation_from_generators(D4, {"x": -1, "y": -1})
    kinds = sorted((sg.kind, D4.names[sg.base]) for sg in skew_basis(D4, orientation))
    assert kinds == [("L2", "x^2*y"), ("L2", "y"), ("L3", "x")]
    orientation = orientation_from_generators(D4, {"x": 1, "y": -1})
    kinds = sorted((sg.kind, D4.names[sg.base]) for sg in skew_basis(D4, orientation))
    assert kinds == [("L1", "x"), ("L2", "x*y"), ("L2", "x^2*y"), ("L2", "x^3*y"), ("L2", "y")]


def test_skew_basis_classical_has_only_differences():
    for group in (S3, Q8, D4, cyclic(7)):
        basis = skew_basis(group)
        assert all(sg.kind == "L1" for sg in basis)
        for sg in basis:
            assert group.element_order(sg.base) > 2


def test_skew_basis_spans_random_skew_elements():
    rng = random.Random(4207)
    for group, orientation in [(S3, None), (S3, S3_ORIENT), (Q8, None), (D4, None),
                               (cyclic(6), orientation_from_generators(cyclic(6), {"x": -1}))]:
        basis = [materialize(sg) for sg in skew_basis(group, orientation)]
        for be in basis:
            assert is_skew(be, orientation)
        columns = [[be.coefficient(g) for be in basis] for g in group.elements()]
        for _ in range(8):
            target = random_skew(rng, group, orientation)
            rhs = [target.coefficient(g) for g in group.elements()]
            assert solve_linear(columns, rhs) is not None


def test_materialize_kinds():
    group = cyclic(10)
    orientation = orientation_from_generators(group, {"x": -1})
    basis = {(sg.kind, sg.base): sg for sg in skew_basis(group, orientation)}
    l2 = basis[("L2", 5)]
    assert materialize(l2, 2) == AlgebraElement(group, {5: Fraction(2)})
    l3 = basis[("L3", 1)]
    assert materialize(l3) == AlgebraElement(group, {1: Fraction(1), 9: Fraction(1)})
    with pytest.raises(ValueError, match="q = 1"):
        materialize(l3, 2)
    l1 = basis[("L1", 2)]
    assert materialize(l1, Fraction(1, 2)) == AlgebraElement(
        group, {2: Fraction(1, 2), 8: Fraction(-1, 2)}
    )


def test_regular_representation_identity_and_permutation():
    group = cyclic(3)
    one_mat = regular_representation(AlgebraElement.one(group))
    assert one_mat == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    x_mat = regular_representation(AlgebraElement.basis_element(group, 1))
    assert x_mat == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


@settings(deadline=None, max_examples=40)
@given(a=elements(Q8), b=elements(Q8))
def test_regular_representation_is_multiplicative(a, b):
    assert mat_mul(regular_representation(a), regular_representation(b)) == \
        regular_representation(a * b)


def test_oracle_inverse_known_cases():
    group = cyclic(3)
    one = AlgebraElement.one(group)
    a = one + AlgebraElement.basis_element(group, 1)
    inv = oracle_inverse(a)
    assert inv == AlgebraElement(group, {0: Fraction(1, 2), 1: Fraction(-1, 2), 2: Fraction(1, 2)})
    assert a * inv == one

    group = cyclic(4)
    assert oracle_inverse(AlgebraElement.one(group) + AlgebraElement.basis_element(group, 1)) is None
    assert oracle_inverse(AlgebraElement.zero(group)) is None


def test_oracle_inverse_random_round_trip():
    rng = random.Random(93211)
    for group in (S3, Q8, cyclic(6)):
        one = AlgebraElement.one(group)
        seen_invertible = 0
        for _ in range(25):
            a = AlgebraElement(group, {g: Fraction(rng.randint(-3, 3)) for g in group.elements()})
            inv = oracle_inverse(a)
            if inv is not None:
                seen_invertible += 1
                assert a * inv == one
                assert inv * a == one
        assert seen_invertible > 5


def test_solve_linear_consistency():
    one = Fraction(1)
    two = Fraction(2)
    assert solve_linear([[one, one], [one, -one]], [two, Fraction(0)]) == [one, one]
    assert solve_linear([[one, one], [two, two]], [one, two]) is not None
    assert solve_linear([[one, one], [two, two]], [one, Fraction(3)]) is None


def _apply(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in matrix]


def test_solve_linear_sets_free_variables_to_zero_on_rank_deficient_system():
    F = Fraction
    # Rank 2: row 3 is 3 * row 2 + 2 * row 1; row 1 needs a pivot swap.
    matrix = [
        [F(0), F(0), F(1, 2), F(1, 2)],
        [F(1), F(2), F(0), F(1)],
        [F(3), F(6), F(1), F(4)],
    ]
    rhs = [F(1, 2), F(1), F(4)]
    x = solve_linear(matrix, rhs)
    assert x == [F(1), F(0), F(1), F(0)]
    assert _apply(matrix, x) == rhs
    assert solve_linear(matrix, [F(1, 2), F(1), F(5)]) is None


def test_solve_linear_non_square_systems():
    F = Fraction
    tall = [[F(1), F(0)], [F(0), F(1, 3)], [F(1), F(1)]]
    assert solve_linear(tall, [F(2), F(1), F(5)]) == [F(2), F(3)]
    assert solve_linear(tall, [F(2), F(1), F(6)]) is None
    wide = [[F(1), F(2), F(3)], [F(0), F(1, 2), F(1)]]
    assert solve_linear(wide, [F(6), F(1)]) == [F(2), F(2), F(0)]
    # The shape verify passes: group elements by skew generators.
    group = cyclic(7)
    basis = [materialize(sg) for sg in skew_basis(group)]
    columns = [[be.coefficient(g) for be in basis] for g in group.elements()]
    target = materialize(skew_basis(group)[1], F(2, 3))
    rhs = [target.coefficient(g) for g in group.elements()]
    assert solve_linear(columns, rhs) == [F(0), F(2, 3), F(0)]
    assert solve_linear(columns, [F(1)] + rhs[1:]) is None


def test_format_element_goldens():
    group = cyclic(4)
    assert format_element(AlgebraElement.zero(group)) == "0"
    assert format_element(AlgebraElement.one(group)) == "1"
    e = AlgebraElement(group, {0: Fraction(-1, 3), 1: Fraction(2, 3), 3: Fraction(-1)})
    assert format_element(e) == "-1/3 + 2/3*x - x^3"
    assert str(AlgebraElement.basis_element(group, 2)) == "x^2"


def test_json_round_trip_and_shape():
    e = AlgebraElement(Q8, {0: Fraction(-1, 3), 2: Fraction(2), 7: Fraction(5, 4)})
    payload = element_to_json(e)
    assert payload == {
        "group": "Q8",
        "coeffs": [
            {"elem": "1", "value": "-1/3"},
            {"elem": "x^2", "value": "2"},
            {"elem": "x^3*y", "value": "5/4"},
        ],
    }
    assert element_from_json(Q8, payload) == e


def test_json_rejects_wrong_group_and_duplicates():
    e = AlgebraElement.one(Q8)
    payload = element_to_json(e)
    with pytest.raises(GroupMismatchError):
        element_from_json(S3, payload)
    bad = {"group": "Q8", "coeffs": [{"elem": "y", "value": "1"}, {"elem": "y", "value": "2"}]}
    with pytest.raises(ValueError, match="duplicate"):
        element_from_json(Q8, bad)


@settings(deadline=None, max_examples=40)
@given(a=elements(D4))
def test_involute_dispatch_matches_named_forms(a):
    assert involute(a) == involute_classical(a)
    orientation = orientation_from_generators(D4, {"x": -1, "y": 1})
    assert involute(a, orientation) == involute_oriented(a, orientation)


C12 = cyclic(12)
KERNEL_CASES = [
    (S3, S3_ORIENT),
    (Q8, orientation_from_generators(Q8, {"x": 1, "y": -1})),
    (cyclic(5), None),
    (C12, orientation_from_generators(C12, {"x": -1})),
]


def _fraction_terms(group):
    return st.dictionaries(st.integers(0, group.order - 1), rationals(), max_size=group.order)


def _nonzero(terms):
    return {g: c for g, c in sorted(terms.items()) if c}


def _reference_combination(x, y, sign):
    out = dict(x)
    for g, c in y.items():
        out[g] = out.get(g, Fraction(0)) + sign * c
    return _nonzero(out)


def _reference_format(group, terms):
    """The printed form, term by term from Fractions."""
    parts = []
    for g, c in _nonzero(terms).items():
        m, name = abs(c), group.names[g]
        body = str(m) if g == group.identity else name if m == 1 else f"{m}*{name}"
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) or "0"


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_integer_kernel_matches_fraction_reference(data):
    group, orientation = data.draw(st.sampled_from(KERNEL_CASES))
    x = data.draw(_fraction_terms(group))
    y = data.draw(_fraction_terms(group))
    q = data.draw(rationals())
    a, b = AlgebraElement(group, x), AlgebraElement(group, y)
    assert a.coeff == _nonzero(x)
    assert all(a.coefficient(g) == x.get(g, 0) for g in group.elements())
    assert format_element(a) == _reference_format(group, x)
    assert (a + b).coeff == _reference_combination(x, y, 1)
    assert (a - b).coeff == _reference_combination(x, y, -1)
    assert (-a).coeff == _nonzero({g: -c for g, c in x.items()})
    assert (q * a).coeff == (a * q).coeff == _nonzero({g: q * c for g, c in x.items()})
    assert (a * b).coeff == _reference_product(a, b)
    inv = group.inv
    assert involute_classical(a).coeff == _nonzero({inv[g]: c for g, c in x.items()})
    if orientation is not None:
        sign = orientation.sign
        assert involute_oriented(a, orientation).coeff == \
            _nonzero({inv[g]: sign[g] * c for g, c in x.items()})
    for e in (a, b, a + b, a * b, q * a):
        assert e.den > 0 and gcd(e.den, *e.num) == 1
        assert all(type(c) is Fraction for c in e.coeff.values())


def test_equal_elements_over_different_denominators_compare_equal():
    group = cyclic(4)
    a = AlgebraElement(group, {0: Fraction(2, 6), 1: Fraction(4, 6)})
    b = AlgebraElement._from_numerators(group, [10, 20, 0, 0], 30)
    c = AlgebraElement._from_numerators(group, [-1, -2, 0, 0], -3)
    assert a == b == c
    assert (a.num, a.den) == ((1, 2, 0, 0), 3)
    assert Fraction(1, 3) * (3 * a) == a
    zero = a - c
    assert zero == AlgebraElement.zero(group)
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1)
    assert zero.coeff == {} and zero.support() == () and not zero
    assert AlgebraElement(group, [(2, Fraction(1, 3)), (2, Fraction(-1, 3))]).coeff == {}
    with pytest.raises(TypeError):
        a.coeff[0] = Fraction(1)
