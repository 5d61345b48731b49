"""Exactness suites behind the ``verify`` command.

Each suite returns a list of check results; every check either
confirms an exact identity on a grid of inputs or confirms that the
closed formulas and the linear-algebra oracle refuse the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import sequences
from .algebra import (
    AlgebraElement,
    involute,
    is_skew,
    is_unitary,
    materialize,
    oracle_inverse,
    regular_representation,
    skew_basis,
    solve_linear,
)
from .cayley import (
    TABLE_ORDERS,
    _on_powers,
    cayley_from_difference,
    cayley_from_generator,
    cayley_from_sum,
    cayley_preimage_of_odd_element,
    cayley_transform,
    is_cayley_unit,
    is_product_of_two_cayley,
    s3_factorization_identity,
    table_rows,
)
from .groups import (
    FiniteGroup,
    Orientation,
    cyclic,
    dihedral4,
    orientation_from_generators,
    orientations,
    quaternion8,
    symmetric3,
)

_SEED = 74025
_Q_GRID = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))


@dataclass
class CheckResult:
    label: str
    passed: bool
    detail: str = ""


def _check(label: str, passed: bool) -> CheckResult:
    return CheckResult(label, passed)


def catalog_configurations() -> list[tuple[FiniteGroup, Orientation | None]]:
    """Catalog groups paired with every nontrivial orientation, plus classical."""
    groups = (symmetric3(), quaternion8(), dihedral4(), cyclic(5), cyclic(7),
              cyclic(4), cyclic(6), cyclic(10))
    return [(group, o) for group in groups for o in (None, *orientations(group))]


def random_element(rng: random.Random, group: FiniteGroup) -> AlgebraElement:
    pairs = []
    for g in group.elements():
        if rng.random() < 0.6:
            pairs.append((g, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    return AlgebraElement(group, pairs)


def random_skew(rng: random.Random, group, orientation) -> AlgebraElement:
    r = random_element(rng, group)
    return r - involute(r, orientation)


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def suite_involutions() -> list[CheckResult]:
    rng = random.Random(_SEED)
    configs = catalog_configurations()
    out = []

    ok = True
    for group, orientation in configs:
        for _ in range(10):
            a = random_element(rng, group)
            b = random_element(rng, group)
            if involute(a * b, orientation) != involute(b, orientation) * involute(a, orientation):
                ok = False
            if involute(involute(a, orientation), orientation) != a:
                ok = False
    out.append(_check("the involution reverses products and squares to the identity", ok))

    ok = True
    for group, orientation in configs:
        for sg in skew_basis(group, orientation):
            if not is_skew(materialize(sg), orientation):
                ok = False
    out.append(_check("every skew generator materializes to a skew element", ok))

    ok = True
    for group, orientation in configs:
        basis = [materialize(sg) for sg in skew_basis(group, orientation)]
        columns = [[be.coefficient(g) for be in basis] for g in group.elements()]
        for _ in range(5):
            target = random_skew(rng, group, orientation)
            rhs = [target.coefficient(g) for g in group.elements()]
            if solve_linear(columns, rhs) is None:
                ok = False
    out.append(_check("random skew elements lie in the span of the generator set", ok))

    ok = True
    for group, orientation in configs:
        if orientation is None:
            continue
        for g in group.elements():
            unitary = is_unitary(AlgebraElement.basis_element(group, g), orientation)
            if unitary != (orientation.sign[g] == 1):
                ok = False
    out.append(_check("group elements are unitary exactly when their sign is +1", ok))

    ok = True
    for group, orientation in configs[:6]:
        for _ in range(5):
            a = random_element(rng, group)
            b = random_element(rng, group)
            if mat_mul(regular_representation(a), regular_representation(b)) != \
                    regular_representation(a * b):
                ok = False
    out.append(_check("the regular representation is multiplicative", ok))
    return out


def suite_sequences() -> list[CheckResult]:
    out = []

    ok = all(sequences.fibonacci_like(1, i) == sequences.fibonacci(i) for i in range(31))
    out.append(_check("the Fibonacci-like sequence at q = 1 is the Fibonacci sequence", ok))

    ok = True
    for q in (Fraction(1, 2), Fraction(2), Fraction(-3), Fraction(7)):
        for i in range(1, 26):
            if sequences.fibonacci_like_closed(q, i) != sequences.fibonacci_like(q, i):
                ok = False
    out.append(_check("the binomial closed form matches the recurrence", ok))

    ok = True
    for n in range(3, 13):
        group = cyclic(n)
        one = AlgebraElement.one(group)
        for q in _Q_GRID:
            a = sequences.inverse_coeffs_difference(n, q)
            elem = AlgebraElement(group, {0: Fraction(1), 1: q, n - 1: -q})
            inv = AlgebraElement(group, dict(enumerate(a)))
            if elem * inv != one:
                ok = False
            b = sequences.unit_coeffs_difference(a, n, q)
            if b[0] != 2 * a[0] - 1:
                ok = False
        if sequences.inverse_coeffs_fibonacci(n) != sequences.inverse_coeffs_difference(n, 1):
            ok = False
    out.append(_check("difference-inverse coefficients solve their convolution system", ok))

    ok = True
    for n in range(4, 41, 2):
        a = sequences.inverse_coeffs_sum(n)
        if n % 6 == 0:
            if a is not None:
                ok = False
            continue
        if a[n - 1] + a[0] + a[1] != 1:
            ok = False
        for k in range(2, n + 1):
            if a[k - 2] + a[(k - 1) % n] + a[k % n] != 0:
                ok = False
        b = sequences.unit_coeffs_sum(a)
        if b[0] != 2 * a[0] - 1 or b[1:] != [2 * ak for ak in a[1:]]:
            ok = False
    out.append(_check("period-3 inverse coefficients satisfy the defining system", ok))

    ok = all(sequences.companion_sequence(k) % 2 == 0 for k in range(51))
    ok = ok and [sequences.companion_sequence(k) for k in range(6)] == [2, 2, -4, -16, -16, 32]
    out.append(_check("the companion sequence starts 2, 2, -4, -16, -16, 32 and stays even", ok))

    ok = True
    for branch in (2, 4):
        a = sequences.inverse_coeffs_sum(96 + branch)
        for k in range(2, 101):
            if sequences.inverse_coeff_sum_closed(branch, k) != a[k % 3]:
                ok = False
    out.append(_check("the companion closed form reproduces the period-3 coefficients", ok))
    return out


def suite_table() -> list[CheckResult]:
    out = []
    for n, result in table_rows(TABLE_ORDERS):
        group = cyclic(n, "z")
        orientation = orientation_from_generators(group, {"z": -1})
        z = group.index_of("z")
        beta = AlgebraElement(group, {z: 1, group.inv[z]: 1})
        oracle = cayley_transform(beta, orientation)
        ok = (
            result is not None
            and oracle is not None
            and result.unit == oracle.unit
            and is_unitary(result.unit, orientation)
        )
        out.append(_check(f"closed form and oracle agree on the order-{n} unit", ok))
    for n in (6, 12, 18):
        group = cyclic(n, "z")
        orientation = orientation_from_generators(group, {"z": -1})
        z = group.index_of("z")
        closed = cayley_from_sum(group, z, orientation)
        beta = AlgebraElement(group, {z: 1, group.inv[z]: 1})
        singular = oracle_inverse(AlgebraElement.one(group) + beta) is None
        out.append(_check(
            f"order {n} is refused by the closed form and singular for the oracle",
            closed is None and singular,
        ))
    return out


def suite_examples() -> list[CheckResult]:
    out = []

    s3 = symmetric3()
    orientation = orientation_from_generators(s3, {"x": 1, "y": -1})
    x = s3.index_of("x")
    ok = True
    for q in _Q_GRID:
        d = 1 + 3 * q * q
        expected = AlgebraElement(
            s3, {0: (1 - q * q) / d, x: 2 * q * (q - 1) / d, s3.mul[x][x]: 2 * q * (q + 1) / d}
        )
        result = cayley_from_difference(s3, x, q, orientation)
        if result.unit != expected or result.method != "closed-form":
            ok = False
    out.append(_check("the S3 difference unit matches its three-term formula", ok))

    ok = True
    for group in (cyclic(4), quaternion8(), dihedral4()):
        x = group.index_of("x")
        for q in _Q_GRID:
            # 1/d, -2q/d, 4q^2/d, 2q/d with d = 1 + 4q^2, times r^2 for q = p/r.
            p, r = q.numerator, q.denominator
            expected = _on_powers(group, x, [r * r, -2 * p * r, 4 * p * p, 2 * p * r],
                                  r * r + 4 * p * p)
            if cayley_from_difference(group, x, q).unit != expected:
                ok = False
    out.append(_check("order-4 difference units match their formula in C4, Q8 and D4", ok))

    q8 = quaternion8()
    orientation = orientation_from_generators(q8, {"x": 1, "y": -1})
    ok = True
    for word in ("y", "x*y"):
        z = q8.index_of(word)
        expected = _on_powers(q8, z, [-1, 2, -4, 2], 3)
        result = cayley_from_sum(q8, z, orientation)
        if result is None or result.unit != expected:
            ok = False
    out.append(_check("both order-4 sum units in Q8 match the frozen coefficients", ok))

    d4 = dihedral4()
    ok = True
    for orientation in orientations(d4):
        for sg in skew_basis(d4, orientation):
            q = 1 if sg.kind == "L3" else Fraction(2)
            result = cayley_from_generator(sg, q, orientation)
            generic = cayley_transform(materialize(sg, q), orientation)
            if (result is None) != (generic is None):
                ok = False
            elif result is not None and result.unit != generic.unit:
                ok = False
    out.append(_check("all D4 orientations: closed forms agree with the oracle", ok))

    ok = True
    for n in (3, 5, 7, 9, 15):
        group = cyclic(n)
        beta = cayley_preimage_of_odd_element(group, 1)
        result = cayley_transform(beta)
        if result is None or result.unit != AlgebraElement.basis_element(group, 1):
            ok = False
    out.append(_check("odd-order group elements are transforms of their skew preimage", ok))
    return out


def suite_counterexample() -> list[CheckResult]:
    out = []
    grid = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
            Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7))

    ok = all(s3_factorization_identity(q) for q in grid)
    out.append(_check("the factorization identity holds across the q grid", ok))

    s3 = symmetric3()
    y = AlgebraElement.basis_element(s3, s3.index_of("y"))
    ok = is_unitary(y) and not is_cayley_unit(y)
    out.append(_check("y in rational S3 is unitary for the classical involution "
                      "but is not a Cayley unit", ok))

    basis = skew_basis(s3)
    ok = len(basis) == 1 and basis[0].kind == "L1" and basis[0].base == s3.index_of("x")
    out.append(_check("the classical skew elements of S3 are the multiples of x - x^-1", ok))

    x = s3.index_of("x")
    ok = True
    for q in grid:
        witness = AlgebraElement(s3, {x: q, s3.inv[x]: -q})
        if is_product_of_two_cayley(y, witness):
            ok = False
    out.append(_check("no admissible witness factors y into two Cayley units", ok))
    return out


SUITES = {
    "involutions": suite_involutions,
    "sequences": suite_sequences,
    "table": suite_table,
    "examples": suite_examples,
    "counterexample": suite_counterexample,
}

SUITE_ORDER = ("involutions", "sequences", "table", "examples", "counterexample")


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order."""
    if name == "all":
        out = []
        for key in SUITE_ORDER:
            out.extend(SUITES[key]())
        return out
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    return fn()
