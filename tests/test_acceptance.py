"""Acceptance suite: one check per shipped claim, exact arithmetic throughout.

Every test prints one line, "PASS criterion N: ..." or "FAIL criterion
N: ...", so running this file with ``pytest -s`` gives a one-screen
report. All comparisons are exact equality of rationals; the two timed
criteria assert their wall-clock budgets.
"""

import random
import time
from fractions import Fraction

from cayleyunits import (
    AlgebraElement,
    cayley_from_difference,
    cayley_from_generator,
    cayley_from_self_inverse,
    cayley_from_sum,
    cayley_preimage_of_odd_element,
    cayley_transform,
    cyclic,
    dihedral4,
    fibonacci,
    fibonacci_like,
    fibonacci_like_closed,
    inverse_coeff_sum_closed,
    inverse_coeffs_difference,
    inverse_coeffs_sum,
    inverse_of_one_plus,
    involute,
    is_product_of_two_cayley,
    is_unitary,
    materialize,
    oracle_inverse,
    orientation_from_generators,
    orientations,
    quaternion8,
    regular_representation,
    s3_factorization_identity,
    skew_basis,
    symmetric3,
)
from helpers import Q_GRID, mat_mul, on_powers, random_element, random_skew

F = Fraction


class _criterion:
    def __init__(self, number: int, label: str) -> None:
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.label}")
        return False


EXPECTED_TABLE = {
    4: [F(-1, 3), F(2, 3), F(-4, 3), F(2, 3)],
    8: [F(-5, 3), F(4, 3), F(-2, 3), F(-2, 3), F(4, 3), F(-2, 3), F(-2, 3), F(4, 3)],
    10: [F(-1, 3), F(2, 3), F(-4, 3), F(2, 3), F(2, 3), F(-4, 3), F(2, 3), F(2, 3),
         F(-4, 3), F(2, 3)],
    14: [F(-5, 3), F(4, 3), F(-2, 3), F(-2, 3), F(4, 3), F(-2, 3), F(-2, 3), F(4, 3),
         F(-2, 3), F(-2, 3), F(4, 3), F(-2, 3), F(-2, 3), F(4, 3)],
    16: [F(-1, 3), F(2, 3), F(-4, 3), F(2, 3), F(2, 3), F(-4, 3), F(2, 3), F(2, 3),
         F(-4, 3), F(2, 3), F(2, 3), F(-4, 3), F(2, 3), F(2, 3), F(-4, 3), F(2, 3)],
}


def test_criterion_1_frozen_table_rows():
    with _criterion(1, "the five even-order units match their frozen coefficients "
                       "in under one second"):
        start = time.perf_counter()
        for n, expected in EXPECTED_TABLE.items():
            group = cyclic(n, "z")
            orientation = orientation_from_generators(group, {"z": -1})
            result = cayley_from_sum(group, group.index_of("z"), orientation)
            assert result is not None
            assert [result.unit.coefficient(i) for i in range(n)] == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_multiples_of_six_are_singular():
    with _criterion(2, "orders 6, 12, 18 are refused by the closed form and "
                       "singular for the oracle"):
        for n in (6, 12, 18):
            group = cyclic(n)
            orientation = orientation_from_generators(group, {"x": -1})
            assert inverse_coeffs_sum(n) is None
            assert cayley_from_sum(group, 1, orientation) is None
            beta = AlgebraElement(group, {1: F(1), n - 1: F(1)})
            assert oracle_inverse(AlgebraElement.one(group) + beta) is None
            assert cayley_transform(beta, orientation) is None


def _sweep_configurations():
    groups = [cyclic(n) for n in range(3, 31)] + [symmetric3(), quaternion8(), dihedral4()]
    return [(group, o) for group in groups for o in (None, *orientations(group))]


Q_L2 = (F(1), F(2), F(1, 2), F(-3))


def test_criterion_3_closed_forms_match_the_oracle():
    with _criterion(3, "closed forms and the oracle agree on the whole catalog "
                       "in under ten seconds"):
        start = time.perf_counter()
        compared = 0
        for group, orientation in _sweep_configurations():
            for sg in skew_basis(group, orientation):
                if sg.kind == "L1":
                    scalars = Q_GRID
                elif sg.kind == "L2":
                    scalars = Q_L2
                else:
                    scalars = (F(1),)
                for q in scalars:
                    closed = cayley_from_generator(sg, q, orientation)
                    generic = cayley_transform(materialize(sg, q), orientation)
                    assert (closed is None) == (generic is None)
                    if closed is not None:
                        assert closed.unit == generic.unit
                        assert closed.inverse_of_one_plus_beta == \
                            generic.inverse_of_one_plus_beta
                        assert is_unitary(closed.unit, orientation)
                    compared += 1
        elapsed = time.perf_counter() - start
        assert compared > 400
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_4_worked_examples():
    with _criterion(4, "the worked examples match their frozen coefficients "
                       "exactly"):
        s3 = symmetric3()
        orientation = orientation_from_generators(s3, {"x": 1, "y": -1})
        x = s3.index_of("x")
        for q in Q_GRID:
            d = 1 + 3 * q * q
            expected = AlgebraElement(s3, {
                0: (1 - q * q) / d,
                x: 2 * q * (q - 1) / d,
                s3.mul[x][x]: 2 * q * (q + 1) / d,
            })
            assert cayley_from_difference(s3, x, q, orientation).unit == expected

        for group in (cyclic(4), quaternion8(), dihedral4()):
            x = group.index_of("x")
            for q in Q_GRID:
                d = 1 + 4 * q * q
                expected = on_powers(group, x,
                                     [1 / d, -2 * q / d, 4 * q * q / d, 2 * q / d])
                assert cayley_from_difference(group, x, q).unit == expected

        q8 = quaternion8()
        orientation = orientation_from_generators(q8, {"x": 1, "y": -1})
        row4 = EXPECTED_TABLE[4]
        for word in ("y", "x*y"):
            z = q8.index_of(word)
            result = cayley_from_sum(q8, z, orientation)
            assert result is not None
            assert result.unit == on_powers(q8, z, row4)

        d4 = dihedral4()
        x = d4.index_of("x")
        t_grid = (F(2), F(1, 2), F(-3), F(0))
        for orientation in orientations(d4):
            for sg in skew_basis(d4, orientation):
                if sg.kind == "L1":
                    for q in Q_GRID:
                        d = 1 + 4 * q * q
                        expected = on_powers(d4, sg.base,
                                             [1 / d, -2 * q / d, 4 * q * q / d, 2 * q / d])
                        assert cayley_from_difference(d4, sg.base, q, orientation).unit \
                            == expected
                elif sg.kind == "L3":
                    assert sg.base == x
                    result = cayley_from_sum(d4, x, orientation)
                    assert result is not None
                    assert result.unit == on_powers(d4, x, row4)
                else:
                    for t in t_grid:
                        d = 1 - t * t
                        expected = AlgebraElement(d4, {
                            0: (1 + t * t) / d, sg.base: -2 * t / d,
                        })
                        result = cayley_from_self_inverse(d4, sg.base, t, orientation)
                        assert result is not None
                        assert result.unit == expected


def test_criterion_5_sequence_identities():
    with _criterion(5, "sequence recurrences, closed forms and the defining "
                       "systems agree exactly"):
        for i in range(31):
            assert fibonacci_like(1, i) == fibonacci(i)
        for q in (F(1, 2), F(2), F(-3), F(7)):
            for i in range(1, 26):
                assert fibonacci_like_closed(q, i) == fibonacci_like(q, i)
        for branch in (2, 4):
            a = inverse_coeffs_sum(96 + branch)
            for k in range(2, 101):
                assert inverse_coeff_sum_closed(branch, k) == a[k % 3]
        for n in range(4, 41, 2):
            a = inverse_coeffs_sum(n)
            if n % 6 == 0:
                assert a is None
                continue
            assert a[n - 1] + a[0] + a[1] == 1
            for k in range(2, n + 1):
                assert a[k - 2] + a[(k - 1) % n] + a[k % n] == 0
        for n in range(3, 16):
            for q in (F(1), F(2), F(1, 2), F(-3)):
                a = inverse_coeffs_difference(n, q)
                group = cyclic(n)
                elem = AlgebraElement(group, {0: F(1), 1: q, n - 1: -q})
                assert elem * AlgebraElement(group, dict(enumerate(a))) \
                    == AlgebraElement.one(group)


def test_criterion_6_odd_order_elements_are_transforms():
    with _criterion(6, "odd-order group elements are Cayley transforms; "
                       "even orders make 1 + x singular"):
        for n in (3, 5, 7, 9, 15):
            group = cyclic(n)
            beta = cayley_preimage_of_odd_element(group, 1)
            assert involute(beta) == -beta
            result = cayley_transform(beta)
            assert result is not None
            assert result.unit == AlgebraElement.basis_element(group, 1)
            explicit = inverse_of_one_plus(group, 1)
            one = AlgebraElement.one(group)
            assert explicit is not None
            assert (one + AlgebraElement.basis_element(group, 1)) * explicit == one
        for n in (2, 4, 6, 8):
            group = cyclic(n)
            assert inverse_of_one_plus(group, 1) is None
            one = AlgebraElement.one(group)
            assert oracle_inverse(one + AlgebraElement.basis_element(group, 1)) is None


def test_criterion_7_counterexample():
    with _criterion(7, "the factorization identity holds and no grid witness "
                       "factors y into two Cayley units"):
        s3 = symmetric3()
        y = AlgebraElement.basis_element(s3, s3.index_of("y"))
        x = s3.index_of("x")
        assert is_unitary(y)
        grid = (F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 7))
        for q in grid:
            assert s3_factorization_identity(q)
            witness = AlgebraElement(s3, {x: q, s3.inv[x]: -q})
            assert not is_product_of_two_cayley(y, witness)


def _random_configurations():
    s3 = symmetric3()
    q8 = quaternion8()
    d4 = dihedral4()
    c6 = cyclic(6)
    c8 = cyclic(8)
    return [
        (s3, None),
        (s3, orientation_from_generators(s3, {"x": 1, "y": -1})),
        (q8, orientation_from_generators(q8, {"x": 1, "y": -1})),
        (q8, orientation_from_generators(q8, {"x": -1, "y": -1})),
        (d4, None),
        (d4, orientation_from_generators(d4, {"x": -1, "y": 1})),
        (c6, orientation_from_generators(c6, {"x": -1})),
        (c8, orientation_from_generators(c8, {"x": -1})),
        (cyclic(5), None),
    ]


def test_criterion_8a_involution_axioms_randomized():
    with _criterion(8, "involution axioms hold on 200 random pairs"):
        rng = random.Random(60601)
        configs = _random_configurations()
        for case in range(200):
            group, orientation = configs[case % len(configs)]
            a = random_element(rng, group)
            b = random_element(rng, group)
            assert involute(a * b, orientation) == \
                involute(b, orientation) * involute(a, orientation)
            assert involute(involute(a, orientation), orientation) == a


def test_criterion_8b_transform_inverse_pairing_randomized():
    with _criterion(8, "u(beta) * u(-beta) = 1 on 200 random invertible skew "
                       "elements"):
        rng = random.Random(42424)
        configs = _random_configurations()
        verified = 0
        attempts = 0
        while verified < 200:
            attempts += 1
            assert attempts < 2000
            group, orientation = configs[attempts % len(configs)]
            beta = random_skew(rng, group, orientation)
            plus = cayley_transform(beta, orientation)
            if plus is None:
                continue
            minus = cayley_transform(-beta, orientation)
            one = AlgebraElement.one(group)
            assert minus is not None
            assert plus.unit * minus.unit == one
            assert minus.unit * plus.unit == one
            verified += 1


def test_criterion_8c_regular_representation_randomized():
    with _criterion(8, "the regular representation is multiplicative on 200 "
                       "random pairs"):
        rng = random.Random(90125)
        configs = _random_configurations()
        for case in range(200):
            group, _ = configs[case % len(configs)]
            a = random_element(rng, group)
            b = random_element(rng, group)
            assert mat_mul(regular_representation(a), regular_representation(b)) \
                == regular_representation(a * b)
