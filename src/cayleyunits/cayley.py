"""Cayley unitary elements u = (1 - beta) * (1 + beta)^-1 for skew beta.

When 1 + beta is invertible the transform of a skew-symmetric beta is
unitary for the same involution, and the transform of -beta is its
inverse. Three shapes of beta admit closed-form coefficients; anything
else goes through the exact linear-algebra oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import sequences
from .algebra import (
    AlgebraElement,
    _check_same_group,
    _integer_numerators,
    involute_classical,
    is_skew,
    is_unitary,
    oracle_inverse,
    SkewGenerator,
)
from .groups import FiniteGroup, Orientation, cyclic, orientation_from_generators, symmetric3


class WrongKindError(ValueError):
    """The group element does not have the shape this constructor needs."""


class CertificationError(ArithmeticError):
    """A constructed element failed the exact identity that certifies it."""


@dataclass
class CayleyResult:
    """A constructed unit together with the pieces that certify it."""

    unit: AlgebraElement
    beta: AlgebraElement
    method: str
    inverse_of_one_plus_beta: AlgebraElement


def certify(result: CayleyResult, orientation: Orientation | None) -> CayleyResult:
    """Return ``result`` once the identities that make its unit a Cayley unit hold.

    Raises CertificationError unless beta is skew-symmetric,
    (1 + beta) * inverse == 1 and unit * (1 + beta) == 1 - beta. Each
    product has 1 + beta, sparse in the closed forms, as a factor.
    Unitarity follows without the dense product u * u^*: 1 - beta =
    (1 + beta)^* is invertible and commutes with 1 + beta, so

        u u^* = (1 - beta)(1 + beta)^-1 (1 - beta)^-1 (1 + beta) = 1.
    """
    beta = result.beta
    one = AlgebraElement.one(beta.group)
    if not is_skew(beta, orientation):
        raise CertificationError(f"{result.method} result: beta is not skew-symmetric")
    if (one + beta) * result.inverse_of_one_plus_beta != one:
        raise CertificationError(f"{result.method} result: (1 + beta) * inverse is not 1")
    if result.unit * (one + beta) != one - beta:
        raise CertificationError(f"{result.method} result: unit * (1 + beta) is not 1 - beta")
    return result


def _on_powers(group: FiniteGroup, x: int, nums: list[int], den: int) -> AlgebraElement:
    """Place the coefficients nums[i] / den on x^i; at most one per power of x."""
    out = [0] * group.order
    g = group.identity
    for c in nums:
        out[g] = c
        g = group.mul[g][x]
    return AlgebraElement._from_numerators(group, out, den)


def cayley_transform(
    beta: AlgebraElement, orientation: Orientation | None = None
) -> CayleyResult | None:
    """Generic transform through the linear-algebra oracle.

    Returns None when 1 + beta is not invertible. beta must be
    skew-symmetric for the chosen involution.
    """
    # is_skew raises GroupMismatchError for an orientation of another group.
    if not is_skew(beta, orientation):
        raise ValueError("beta is not skew-symmetric under the chosen involution")
    one = AlgebraElement.one(beta.group)
    inverse = oracle_inverse(one + beta)
    if inverse is None:
        return None
    return CayleyResult((one - beta) * inverse, beta, "oracle", inverse)


def cayley_from_difference(
    group: FiniteGroup, x: int, q, orientation: Orientation | None = None
) -> CayleyResult:
    """Closed-form unit for beta = q*(x - x^-1), x of order above 2, sign +1.

    1 + beta is invertible for every rational q, so this never returns
    None. The coefficients live on the powers of x and come from the
    Fibonacci-like sequence; the result is certified before it is
    returned.
    """
    if orientation is not None:
        _check_same_group(group, orientation.group)
        if orientation.sign[x] != 1:
            raise WrongKindError("difference generators need sign +1")
    f = Fraction(q)
    n = group.element_order(x)
    if n <= 2:
        raise ValueError("difference generators need an element of order above 2")
    one = AlgebraElement.one(group)
    beta = AlgebraElement(group, {x: f, group.inv[x]: -f})
    if f == 0:
        return CayleyResult(one, beta, "closed-form", one)
    a, b, d = sequences._difference_numerators(n, f)
    inverse = _on_powers(group, x, a, d)
    unit = _on_powers(group, x, b, d)
    return certify(CayleyResult(unit, beta, "closed-form", inverse), orientation)


def cayley_from_self_inverse(
    group: FiniteGroup, x: int, q, orientation: Orientation | None
) -> CayleyResult | None:
    """Closed-form unit for beta = q*x, x self-inverse with sign -1.

    Returns None at q = 1 and q = -1, where 1 + q*x is a zero divisor.
    Otherwise

        (1 + q*x)^-1 = (1 - q*x) / (1 - q^2),
        u = ((1 + q^2) - 2*q*x) / (1 - q^2).
    """
    if orientation is not None:
        _check_same_group(group, orientation.group)
    if orientation is None or orientation.sign[x] != -1:
        raise WrongKindError("self-inverse generators need sign -1")
    if x == group.identity or group.mul[x][x] != group.identity:
        raise WrongKindError("self-inverse generators need an element of order 2")
    f = Fraction(q)
    beta = AlgebraElement(group, {x: f})
    if f == 1 or f == -1:
        return None
    # Over r^2 for q = p/r; the powers of x are 1 and x.
    p, r = f.numerator, f.denominator
    d = r * r - p * p
    inverse = _on_powers(group, x, [r * r, -p * r], d)
    unit = _on_powers(group, x, [r * r + p * p, -2 * p * r], d)
    return certify(CayleyResult(unit, beta, "closed-form", inverse), orientation)


def cayley_from_sum(
    group: FiniteGroup, x: int, orientation: Orientation | None
) -> CayleyResult | None:
    """Closed-form unit for beta = x + x^-1, x of even order >= 4, sign -1.

    Returns None when the order is divisible by 6 (1 + beta is a zero
    divisor there); otherwise the coefficients repeat with period 3.
    """
    if orientation is not None:
        _check_same_group(group, orientation.group)
    if orientation is None or orientation.sign[x] != -1:
        raise WrongKindError("sum generators need sign -1")
    n = group.element_order(x)
    if n % 2 or n < 4:
        raise WrongKindError("sum generators need even order at least 4")
    beta = AlgebraElement(group, {x: Fraction(1), group.inv[x]: Fraction(1)})
    coeffs = sequences.inverse_coeffs_sum(n)
    if coeffs is None:
        return None
    a, d = _integer_numerators(coeffs)
    inverse = _on_powers(group, x, a, d)
    # b_0 = 2 a_0 - 1 and b_k = 2 a_k, as in unit_coeffs_sum.
    unit = _on_powers(group, x, [2 * a[0] - d] + [2 * ak for ak in a[1:]], d)
    return certify(CayleyResult(unit, beta, "closed-form", inverse), orientation)


def cayley_from_generator(
    sg: SkewGenerator, q=1, orientation: Orientation | None = None
) -> CayleyResult | None:
    """Dispatch a skew generator to its closed-form constructor."""
    if sg.kind == "L1":
        return cayley_from_difference(sg.group, sg.base, q, orientation)
    if sg.kind == "L2":
        return cayley_from_self_inverse(sg.group, sg.base, q, orientation)
    if sg.kind == "L3":
        if Fraction(q) != 1:
            raise ValueError("sum generators have no closed form for q != 1; "
                             "use the generic transform")
        return cayley_from_sum(sg.group, sg.base, orientation)
    raise ValueError(f"unknown skew generator kind {sg.kind!r}")


def inverse_of_one_plus(group: FiniteGroup, x: int) -> AlgebraElement | None:
    """Inverse of 1 + x under the convolution product, or None.

    For x of odd order n the inverse is the alternating sum
    (1 - x + x^2 - ... + x^(n-1)) / 2; for even order 1 + x is a zero
    divisor.
    """
    n = group.element_order(x)
    if n % 2 == 0:
        return None
    return _on_powers(group, x, [-1 if i % 2 else 1 for i in range(n)], 2)


TABLE_ORDERS = (4, 8, 10, 14, 16)


def table_rows(orders) -> list[tuple[int, CayleyResult | None]]:
    """Units for beta = z + z^-1 in cyclic groups of the given even orders.

    Each row is (order, CayleyResult or None); None marks the orders
    divisible by 6, where 1 + beta is not invertible.
    """
    rows = []
    for n in orders:
        group = cyclic(n, "z")
        orientation = orientation_from_generators(group, {"z": -1})
        rows.append((n, cayley_from_sum(group, group.index_of("z"), orientation)))
    return rows


def cayley_preimage_of_odd_element(group: FiniteGroup, x: int) -> AlgebraElement:
    """The skew element whose classical Cayley transform is x itself.

    Needs x of odd order n > 1; then

        beta = -sum over odd j < n-1 of (x^j - x^(n-j))

    is skew-symmetric with 1 + beta = 2 * (1 + x)^-1, so the transform
    returns x exactly. The identity (1 + x)(1 + beta) = 2 is re-checked
    before returning; CertificationError reports a failure.
    """
    n = group.element_order(x)
    if n == 1 or n % 2 == 0:
        raise ValueError("only elements of odd order above 1 have this preimage")
    pairs = []
    for j in range(1, n - 1, 2):
        pairs.append((group.power(x, j), Fraction(-1)))
        pairs.append((group.power(x, n - j), Fraction(1)))
    beta = AlgebraElement(group, pairs)
    one = AlgebraElement.one(group)
    x_elem = AlgebraElement.basis_element(group, x)
    if (one + x_elem) * (one + beta) != 2 * one:
        raise CertificationError("(1 + x) * (1 + beta) is not 2")
    return beta


def is_cayley_unit(u: AlgebraElement, orientation: Orientation | None = None) -> bool:
    """Whether u is unitary and 1 + u is invertible.

    These two conditions hold exactly when u is the transform of some
    skew-symmetric element.
    """
    if not is_unitary(u, orientation):
        return False
    one = AlgebraElement.one(u.group)
    return oracle_inverse(one + u) is not None


def is_product_of_two_cayley(
    u: AlgebraElement, k: AlgebraElement, orientation: Orientation | None = None
) -> bool:
    """Witness test: does the skew element k factor u into two transforms.

    u factors as a product of two Cayley units exactly when some skew k
    with 1 + k invertible makes (1 + u) - (1 - u)*k invertible; this
    checks one candidate k, it does not search.
    """
    if not is_unitary(u, orientation):
        raise ValueError("u must be unitary")
    if not is_skew(k, orientation):
        raise ValueError("the witness k must be skew-symmetric")
    one = AlgebraElement.one(u.group)
    if oracle_inverse(one + k) is None:
        raise ValueError("the witness k must have 1 + k invertible")
    return oracle_inverse((one + u) - (one - u) * k) is not None


def s3_factorization_identity(q) -> bool:
    """Exact identity in the rational group algebra of S3.

    Checks (1 + y) - (1 - y)*q*(x - x^-1) == (1 - q*x + q*y*x)*(1 + y).
    The right factor 1 + y is a zero divisor, so no choice of q makes
    the left side invertible; that is why y, though unitary for the
    classical involution, is not a product of two Cayley units there.
    """
    f = Fraction(q)
    group = symmetric3()
    x = AlgebraElement.basis_element(group, group.index_of("x"))
    y = AlgebraElement.basis_element(group, group.index_of("y"))
    x_inv = involute_classical(x)
    one = AlgebraElement.one(group)
    lhs = (one + y) - (one - y) * (f * (x - x_inv))
    rhs = (one - f * x + f * (y * x)) * (one + y)
    return lhs == rhs
