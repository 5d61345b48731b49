"""Cayley transforms: closed forms, the oracle path, and the predicates."""

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import cayleyunits
from cayleyunits import (
    AlgebraElement,
    CertificationError,
    GroupMismatchError,
    WrongKindError,
    cayley_from_difference,
    cayley_from_generator,
    cayley_from_self_inverse,
    cayley_from_sum,
    cayley_preimage_of_odd_element,
    cayley_transform,
    certify,
    cyclic,
    inverse_of_one_plus,
    is_cayley_unit,
    is_product_of_two_cayley,
    is_unitary,
    materialize,
    oracle_inverse,
    orientation_from_generators,
    skew_basis,
)
from helpers import D4, Q8, Q_GRID, S3, S3_ORIENT, on_powers, random_skew


def test_transform_of_zero_is_one():
    result = cayley_transform(AlgebraElement.zero(S3))
    assert result is not None
    assert result.unit == AlgebraElement.one(S3)
    assert result.method == "oracle"


def test_transform_requires_skew_input():
    x = AlgebraElement.basis_element(S3, S3.index_of("x"))
    with pytest.raises(ValueError, match="skew"):
        cayley_transform(x)


def test_transform_detects_zero_divisors():
    group = cyclic(6)
    orientation = orientation_from_generators(group, {"x": -1})
    beta = AlgebraElement(group, {1: Fraction(1), 5: Fraction(1)})
    assert cayley_transform(beta, orientation) is None


def test_transform_inverse_pairing_randomized():
    rng = random.Random(5150)
    one = AlgebraElement.one(S3)
    verified = 0
    while verified < 12:
        beta = random_skew(rng, S3, S3_ORIENT)
        plus = cayley_transform(beta, S3_ORIENT)
        if plus is None:
            continue
        minus = cayley_transform(-beta, S3_ORIENT)
        assert minus is not None
        assert plus.unit * minus.unit == one
        assert minus.unit * plus.unit == one
        verified += 1


def test_difference_unit_in_s3():
    x = S3.index_of("x")
    for q in Q_GRID:
        d = 1 + 3 * q * q
        expected = AlgebraElement(S3, {
            0: (1 - q * q) / d,
            x: 2 * q * (q - 1) / d,
            S3.mul[x][x]: 2 * q * (q + 1) / d,
        })
        result = cayley_from_difference(S3, x, q, S3_ORIENT)
        assert result.method == "closed-form"
        assert result.unit == expected
        assert is_unitary(result.unit, S3_ORIENT)
        classical = cayley_from_difference(S3, x, q)
        assert classical.unit == expected


def test_difference_unit_fibonacci_case():
    group = cyclic(5)
    result = cayley_from_difference(group, 1, 1)
    a = [Fraction(5, 11), Fraction(-2, 11), Fraction(3, 11), Fraction(1, 11), Fraction(4, 11)]
    assert result.inverse_of_one_plus_beta == AlgebraElement(group, dict(enumerate(a)))
    b0 = 2 * a[0] - 1
    assert result.unit.coefficient(0) == b0
    assert [result.unit.coefficient(i) for i in range(1, 5)] == [2 * ai for ai in a[1:]]


def test_difference_unit_matches_oracle():
    for n in (3, 4, 7, 12):
        group = cyclic(n)
        for q in Q_GRID:
            closed = cayley_from_difference(group, 1, q)
            beta = AlgebraElement(group, {1: q, n - 1: -q})
            generic = cayley_transform(beta)
            assert generic is not None
            assert closed.unit == generic.unit
            assert closed.inverse_of_one_plus_beta == generic.inverse_of_one_plus_beta


def test_difference_unit_q_zero():
    result = cayley_from_difference(cyclic(5), 1, 0)
    assert result.unit == AlgebraElement.one(cyclic(5))


def test_difference_rejects_wrong_shapes():
    with pytest.raises(ValueError, match="order above 2"):
        cayley_from_difference(cyclic(2), 1, 1)
    group = cyclic(6)
    orientation = orientation_from_generators(group, {"x": -1})
    with pytest.raises(WrongKindError, match="sign"):
        cayley_from_difference(group, 1, 1, orientation)


def test_self_inverse_unit_golden():
    y = S3.index_of("y")
    result = cayley_from_self_inverse(S3, y, 2, S3_ORIENT)
    assert result is not None
    assert result.unit == AlgebraElement(S3, {0: Fraction(-5, 3), y: Fraction(4, 3)})
    assert result.inverse_of_one_plus_beta == AlgebraElement(
        S3, {0: Fraction(-1, 3), y: Fraction(2, 3)}
    )
    assert is_unitary(result.unit, S3_ORIENT)


def test_self_inverse_unit_formula_grid():
    y = S3.index_of("y")
    for q in (Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(0)):
        result = cayley_from_self_inverse(S3, y, q, S3_ORIENT)
        d = 1 - q * q
        assert result.unit == AlgebraElement(S3, {0: (1 + q * q) / d, y: -2 * q / d})
        generic = cayley_transform(AlgebraElement(S3, {y: q}), S3_ORIENT)
        assert generic.unit == result.unit


def test_self_inverse_not_invertible_at_unit_scalars():
    y = S3.index_of("y")
    assert cayley_from_self_inverse(S3, y, 1, S3_ORIENT) is None
    assert cayley_from_self_inverse(S3, y, -1, S3_ORIENT) is None
    beta = AlgebraElement(S3, {y: Fraction(1)})
    assert cayley_transform(beta, S3_ORIENT) is None


def test_self_inverse_rejects_wrong_shapes():
    with pytest.raises(WrongKindError):
        cayley_from_self_inverse(S3, S3.index_of("x"), 2, S3_ORIENT)
    with pytest.raises(WrongKindError):
        cayley_from_self_inverse(S3, S3.index_of("y"), 2, None)
    orientation = orientation_from_generators(Q8, {"x": 1, "y": -1})
    with pytest.raises(WrongKindError):
        cayley_from_self_inverse(Q8, Q8.index_of("x^2"), 2, orientation)


def test_sum_unit_goldens():
    row4 = [Fraction(-1, 3), Fraction(2, 3), Fraction(-4, 3), Fraction(2, 3)]
    group = cyclic(4)
    orientation = orientation_from_generators(group, {"x": -1})
    result = cayley_from_sum(group, 1, orientation)
    assert result.unit == AlgebraElement(group, dict(enumerate(row4)))

    orientation = orientation_from_generators(Q8, {"x": 1, "y": -1})
    for word in ("y", "x*y"):
        z = Q8.index_of(word)
        result = cayley_from_sum(Q8, z, orientation)
        assert result is not None
        assert result.unit == on_powers(Q8, z, row4)
        assert is_unitary(result.unit, orientation)

    group = cyclic(8)
    orientation = orientation_from_generators(group, {"x": -1})
    result = cayley_from_sum(group, 1, orientation)
    assert [result.unit.coefficient(i) for i in range(8)] == [
        Fraction(-5, 3), Fraction(4, 3), Fraction(-2, 3), Fraction(-2, 3),
        Fraction(4, 3), Fraction(-2, 3), Fraction(-2, 3), Fraction(4, 3),
    ]


def test_sum_unit_refuses_multiples_of_six():
    for n in (6, 12):
        group = cyclic(n)
        orientation = orientation_from_generators(group, {"x": -1})
        assert cayley_from_sum(group, 1, orientation) is None


def test_sum_rejects_wrong_shapes():
    group = cyclic(10)
    orientation = orientation_from_generators(group, {"x": -1})
    with pytest.raises(WrongKindError, match="sign"):
        cayley_from_sum(group, 2, orientation)
    with pytest.raises(WrongKindError, match="even order"):
        cayley_from_sum(group, 5, orientation)
    with pytest.raises(WrongKindError):
        cayley_from_sum(cyclic(8), 1, None)


def test_generator_dispatch_agrees_with_direct_calls():
    orientation = orientation_from_generators(D4, {"x": 1, "y": -1})
    for sg in skew_basis(D4, orientation):
        q = Fraction(1, 2) if sg.kind != "L3" else 1
        via_dispatch = cayley_from_generator(sg, q, orientation)
        direct = cayley_transform(materialize(sg, q), orientation)
        assert (via_dispatch is None) == (direct is None)
        if via_dispatch is not None:
            assert via_dispatch.unit == direct.unit
    with pytest.raises(ValueError, match="closed form"):
        l3 = next(sg for sg in skew_basis(Q8, orientation_from_generators(
            Q8, {"x": 1, "y": -1})) if sg.kind == "L3")
        cayley_from_generator(l3, 2, orientation_from_generators(Q8, {"x": 1, "y": -1}))


def test_orientation_of_another_group_is_rejected():
    group, other = cyclic(8), orientation_from_generators(cyclic(4), {"x": -1})
    beta = AlgebraElement(group, {1: Fraction(1), 7: Fraction(-1)})
    for call in (lambda: cayley_transform(beta, other),
                 lambda: cayley_from_difference(group, 1, 1, other),
                 lambda: cayley_from_self_inverse(group, 4, 2, other),
                 lambda: cayley_from_sum(group, 5, other)):
        with pytest.raises(GroupMismatchError):
            call()


def test_certify_raises_on_each_failed_identity():
    group = cyclic(8)
    orientation = orientation_from_generators(group, {"x": -1})
    good = cayley_from_sum(group, 1, orientation)
    assert certify(good, orientation) is good
    x = AlgebraElement.basis_element(group, 1)
    for bad, message in (
        (dataclasses.replace(good, beta=x), "skew"),
        (dataclasses.replace(good, inverse_of_one_plus_beta=good.inverse_of_one_plus_beta + x),
         "inverse is not 1"),
        (dataclasses.replace(good, unit=good.unit + x), "is not 1 - beta"),
    ):
        with pytest.raises(CertificationError, match=message):
            certify(bad, orientation)
    assert issubclass(CertificationError, ArithmeticError)


def test_certification_holds_under_optimized_python():
    # python -O strips assert statements; the certificate must still reject
    # a closed form whose first coefficient is wrong.
    child = textwrap.dedent("""
        import cayleyunits
        from cayleyunits import sequences

        correct = sequences.inverse_coeffs_sum
        sequences.inverse_coeffs_sum = lambda n: [correct(n)[0] + 1] + correct(n)[1:]
        group = cayleyunits.cyclic(8)
        orientation = cayleyunits.orientation_from_generators(group, {"x": -1})
        try:
            cayleyunits.cayley_from_sum(group, 1, orientation)
        except cayleyunits.CertificationError as exc:
            print(__debug__, type(exc).__name__)
    """)
    src = Path(cayleyunits.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False CertificationError\n"


def test_preimage_of_odd_element():
    group = cyclic(3)
    beta = cayley_preimage_of_odd_element(group, 1)
    assert beta == AlgebraElement(group, {1: Fraction(-1), 2: Fraction(1)})
    for n in (3, 5, 7, 9, 15):
        group = cyclic(n)
        beta = cayley_preimage_of_odd_element(group, 1)
        result = cayley_transform(beta)
        assert result is not None
        assert result.unit == AlgebraElement.basis_element(group, 1)


def test_preimage_rejects_even_or_trivial_order():
    with pytest.raises(ValueError):
        cayley_preimage_of_odd_element(cyclic(4), 1)
    with pytest.raises(ValueError):
        cayley_preimage_of_odd_element(cyclic(3), 0)


def test_inverse_of_one_plus():
    group = cyclic(3)
    inv = inverse_of_one_plus(group, 1)
    assert inv == AlgebraElement(group, {0: Fraction(1, 2), 1: Fraction(-1, 2), 2: Fraction(1, 2)})
    one = AlgebraElement.one(group)
    assert (one + AlgebraElement.basis_element(group, 1)) * inv == one
    assert inverse_of_one_plus(cyclic(4), 1) is None
    assert inverse_of_one_plus(cyclic(5), 0) == Fraction(1, 2) * AlgebraElement.one(cyclic(5))


def test_is_cayley_unit():
    assert is_cayley_unit(AlgebraElement.basis_element(cyclic(3), 1))
    assert not is_cayley_unit(AlgebraElement.basis_element(cyclic(4), 1))
    assert not is_cayley_unit(2 * AlgebraElement.one(S3))
    y = AlgebraElement.basis_element(S3, S3.index_of("y"))
    assert not is_cayley_unit(y)


def test_product_witness_basics():
    one = AlgebraElement.one(S3)
    zero = AlgebraElement.zero(S3)
    assert is_product_of_two_cayley(one, zero)
    x = S3.index_of("x")
    witness = AlgebraElement(S3, {x: Fraction(1), S3.inv[x]: Fraction(-1)})
    assert is_product_of_two_cayley(one, witness)


def test_product_witness_rejects_bad_arguments():
    y = AlgebraElement.basis_element(S3, S3.index_of("y"))
    x = AlgebraElement.basis_element(S3, S3.index_of("x"))
    with pytest.raises(ValueError, match="unitary"):
        is_product_of_two_cayley(2 * y, AlgebraElement.zero(S3))
    with pytest.raises(ValueError, match="skew"):
        is_product_of_two_cayley(y, x)
    group = cyclic(6)
    orientation = orientation_from_generators(group, {"x": -1})
    bad_witness = AlgebraElement(group, {1: Fraction(1), 5: Fraction(1)})
    u = AlgebraElement.basis_element(group, 2)
    with pytest.raises(ValueError, match="invertible"):
        is_product_of_two_cayley(u, bad_witness, orientation)
