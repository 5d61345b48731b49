"""Exact group-algebra arithmetic over the rational numbers.

Elements are rational combinations of group elements, stored as integer
numerators over one common denominator. Everything is exact: products
are table lookups on integers, and invertibility questions reduce to
fraction-free elimination on the left-regular representation.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .groups import FiniteGroup, Orientation

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GroupMismatchError(ValueError):
    """Operands belong to algebras over different groups."""


def _check_same_group(left: FiniteGroup, right: FiniteGroup) -> None:
    if left is not right and left != right:
        raise GroupMismatchError(f"groups differ: {left.name} vs {right.name}")


class AlgebraElement:
    """A rational combination of the elements of a finite group.

    The coefficient of element g is ``num[g] / den``: ``num`` is a tuple
    of integers, one per group element, and ``den`` is positive and
    shares no factor with all of ``num`` at once (zero is ``den == 1``).
    That form is unique, so equality is structural. Instances are
    treated as immutable: all arithmetic returns new elements.
    """

    __slots__ = ("group", "num", "den", "_coeff")

    def __init__(self, group: FiniteGroup, coeff=None) -> None:
        """Build from a mapping or (element index, rational) pairs; repeats add up."""
        terms: dict[int, Fraction] = {}
        if coeff:
            items = coeff.items() if isinstance(coeff, Mapping) else coeff
            for g, c in items:
                if not 0 <= g < group.order:
                    raise ValueError(f"element index {g} is out of range for {group.name}")
                f = c if isinstance(c, Fraction) else Fraction(c)
                terms[g] = terms[g] + f if g in terms else f
        den = lcm(*[f.denominator for f in terms.values()])
        num = [0] * group.order
        for g, f in terms.items():
            num[g] = f.numerator * (den // f.denominator)
        self._set(group, num, den)

    def _set(self, group: FiniteGroup, num: list[int], den: int) -> None:
        """Store num / den in the normal form: gcd 1 and a positive denominator."""
        common = gcd(den, *num)
        if den < 0:
            common = -common
        if common != 1:
            num = [c // common for c in num]
            den //= common
        self.group = group
        self.num = tuple(num)
        self.den = den
        self._coeff = None

    @classmethod
    def _from_numerators(cls, group: FiniteGroup, num: list[int], den: int) -> "AlgebraElement":
        """The element num / den, for a nonzero den of either sign."""
        out = cls.__new__(cls)
        out._set(group, num, den)
        return out

    @classmethod
    def zero(cls, group: FiniteGroup) -> "AlgebraElement":
        return cls._from_numerators(group, [0] * group.order, 1)

    @classmethod
    def one(cls, group: FiniteGroup) -> "AlgebraElement":
        return cls.basis_element(group, group.identity)

    @classmethod
    def basis_element(cls, group: FiniteGroup, g: int) -> "AlgebraElement":
        """The group element g as an algebra element."""
        if not 0 <= g < group.order:
            raise ValueError(f"element index {g} is out of range for {group.name}")
        num = [0] * group.order
        num[g] = 1
        return cls._from_numerators(group, num, 1)

    @property
    def coeff(self) -> Mapping[int, Fraction]:
        """Read-only map from each element of the support to its coefficient."""
        if self._coeff is None:
            den = self.den
            self._coeff = MappingProxyType(
                {g: Fraction(c, den) for g, c in enumerate(self.num) if c}
            )
        return self._coeff

    def coefficient(self, g: int) -> Fraction:
        return self.coeff.get(g, _ZERO)

    def support(self) -> tuple[int, ...]:
        return tuple(g for g, c in enumerate(self.num) if c)

    def _terms(self) -> list[tuple[int, int]]:
        return [(g, c) for g, c in enumerate(self.num) if c]

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.den == other.den
            and self.num == other.num
            and (self.group is other.group or self.group == other.group)
        )

    def _combine(self, other: "AlgebraElement", sign: int) -> "AlgebraElement":
        """self + sign * other over the least common denominator."""
        _check_same_group(self.group, other.group)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        num = [a * sa + b * sb for a, b in zip(self.num, other.num)]
        return AlgebraElement._from_numerators(self.group, num, den)

    def __add__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._from_numerators(self.group, [-c for c in self.num], self.den)

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            _check_same_group(self.group, other.group)
            # Convolve the numerators; the denominators multiply.
            mul = self.group.mul
            right = other._terms()
            out = [0] * len(mul)
            for g, a in self._terms():
                row = mul[g]
                for h, b in right:
                    out[row[h]] += a * b
            return AlgebraElement._from_numerators(self.group, out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return AlgebraElement._from_numerators(
                self.group, [c * p for c in self.num], self.den * other.denominator
            )
        return NotImplemented

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"AlgebraElement({self.group.name}: {self})"


def _integer_numerators(values) -> tuple[list[int], int]:
    """The rationals as integer numerators over their least common denominator."""
    if set(map(type, values)) <= {int}:
        return list(values), 1
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def format_element(a: AlgebraElement) -> str:
    """Canonical printable form, e.g. ``-1/3 + 2/3*x - x^2``.

    Terms are ordered by element index; the output parses back to an
    equal element.
    """
    if not a:
        return "0"
    parts: list[str] = []
    for g, c in a._terms():
        body = _term_body(a.group, g, abs(c), a.den)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _term_body(group: FiniteGroup, g: int, magnitude: int, den: int) -> str:
    """The term for g with coefficient magnitude / den, reduced as ``str(Fraction)`` is."""
    common = gcd(magnitude, den)
    m, d = magnitude // common, den // common
    if g == group.identity:
        return str(m) if d == 1 else f"{m}/{d}"
    name = group.names[g]
    if d == 1:
        return name if m == 1 else f"{m}*{name}"
    return f"{m}/{d}*{name}"


def involute_classical(a: AlgebraElement) -> AlgebraElement:
    """The linear extension of g -> g^-1."""
    # The coefficient of g in the result is that of g^-1 in a.
    moved = list(map(a.num.__getitem__, a.group.inv))
    return AlgebraElement._from_numerators(a.group, moved, a.den)


def involute_oriented(a: AlgebraElement, orientation: Orientation) -> AlgebraElement:
    """The linear extension of g -> sign(g) * g^-1."""
    _check_same_group(a.group, orientation.group)
    # The coefficient of g in the result is sign(g^-1) = sign(g) times
    # that of g^-1 in a.
    moved = list(map(operator.mul, map(a.num.__getitem__, a.group.inv), orientation.sign))
    return AlgebraElement._from_numerators(a.group, moved, a.den)


def involute(a: AlgebraElement, orientation: Orientation | None = None) -> AlgebraElement:
    """Oriented involution when an orientation is given, classical otherwise."""
    if orientation is None:
        return involute_classical(a)
    return involute_oriented(a, orientation)


def is_skew(a: AlgebraElement, orientation: Orientation | None = None) -> bool:
    """Whether the involution negates ``a``."""
    return involute(a, orientation) == -a


def is_unitary(u: AlgebraElement, orientation: Orientation | None = None) -> bool:
    """Whether the involute of ``u`` is its inverse.

    Checking u * u^* = 1 is enough: in a finite-dimensional algebra a
    one-sided inverse is two-sided (left multiplication by u is a
    square matrix, and a surjective square matrix is bijective).
    """
    return u * involute(u, orientation) == AlgebraElement.one(u.group)


@dataclass(frozen=True)
class SkewGenerator:
    """A member of the spanning set of the skew-symmetric elements.

    kind "L1": q*(g - g^-1) for g of order above 2 with sign +1.
    kind "L2": q*g for self-inverse g with sign -1.
    kind "L3": g + g^-1 for g of order above 2 with sign -1.

    The scalar q is supplied when the generator is materialized; kind
    "L3" only materializes with q = 1 (rational multiples of it are
    still skew, but carry no closed-form unit).
    """

    kind: str
    group: FiniteGroup
    base: int

    @property
    def base_name(self) -> str:
        return self.group.names[self.base]


def skew_basis(group: FiniteGroup, orientation: Orientation | None = None) -> list[SkewGenerator]:
    """Spanning generators of the skew-symmetric elements, no duplicates.

    For each pair {g, g^-1} only the smaller index is kept. Without an
    orientation the classical involution is meant, and only "L1"
    generators occur.
    """
    sign = None
    if orientation is not None:
        _check_same_group(group, orientation.group)
        sign = orientation.sign
    out: list[SkewGenerator] = []
    for g in group.elements():
        gi = group.inv[g]
        s = 1 if sign is None else sign[g]
        if g == gi:
            if s == -1:
                out.append(SkewGenerator("L2", group, g))
            continue
        if gi < g:
            continue
        out.append(SkewGenerator("L1" if s == 1 else "L3", group, g))
    return out


def materialize(sg: SkewGenerator, q=1) -> AlgebraElement:
    """The algebra element of a skew generator, scaled by q where allowed."""
    f = Fraction(q)
    group = sg.group
    g, gi = sg.base, sg.group.inv[sg.base]
    if sg.kind == "L1":
        return AlgebraElement(group, {g: f, gi: -f})
    if sg.kind == "L2":
        return AlgebraElement(group, {g: f})
    if sg.kind == "L3":
        if f != 1:
            raise ValueError("sum generators only materialize with q = 1")
        return AlgebraElement(group, {g: _ONE, gi: _ONE})
    raise ValueError(f"unknown skew generator kind {sg.kind!r}")


def regular_representation(a: AlgebraElement) -> list[list[Fraction]]:
    """Matrix of left multiplication by ``a`` in the group-element basis.

    Column g holds the coefficients of a*g, so the assignment is
    multiplicative: the matrix of a product is the product of the
    matrices, and ``a`` is invertible exactly when the matrix is.
    """
    den = a.den
    return [[Fraction(v, den) if v else _ZERO for v in row] for row in _regular_numerators(a)]


def _regular_numerators(a: AlgebraElement) -> list[list[int]]:
    """The regular representation of ``a`` times ``a.den``, an integer matrix."""
    n = a.group.order
    mul = a.group.mul
    mat = [[0] * n for _ in range(n)]
    for h, c in a._terms():
        row = mul[h]
        for g in range(n):
            mat[row[g]][g] = c  # right multiplication by g is injective
    return mat


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of matrix * x = rhs, or None when inconsistent.

    Entries are ``Fraction`` or ``int``. Each row is scaled, with its
    right-hand side, to integers (integer rows as they are), and the
    system is brought to echelon form by fraction-free elimination
    (Bareiss 1968): every entry stays an integer minor of the scaled
    system and each division by the previous pivot is exact. Free
    variables are set to zero. The pivot columns are then solved by
    integer back-substitution over the last pivot, whose multiple of
    the solution is integral by Cramer's rule.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    work = [_integer_numerators([*row, b])[0] for row, b in zip(matrix, rhs, strict=True)]
    pivots: list[tuple[int, int]] = []
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if work[i][c]), -1)
        if p < 0:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        pv = prow[c]
        tail = prow[c + 1:]
        for i in range(r + 1, m):
            wi = work[i]
            f = wi[c]
            if f:
                wi[c + 1:] = [(pv * a - f * b) // prev for a, b in zip(wi[c + 1:], tail)]
            elif pv != prev:
                wi[c + 1:] = [a and pv * a // prev for a in wi[c + 1:]]
        pivots.append((r, c))
        prev = pv
        r += 1
    for i in range(r, m):
        if work[i][n]:
            return None
    # With pivots p_1..p_r, prev = p_r and prev * x is an integer vector.
    scaled = [0] * n
    for pr, pc in reversed(pivots):
        row = work[pr]
        s = row[n] * prev
        for j in range(pc + 1, n):
            if row[j] and scaled[j]:
                s -= row[j] * scaled[j]
        q, rem = divmod(s, row[pc])
        if rem:
            raise ArithmeticError("fraction-free back-substitution left a remainder")
        scaled[pc] = q
    return [Fraction(v, prev) for v in scaled]


def oracle_inverse(a: AlgebraElement) -> AlgebraElement | None:
    """Two-sided inverse by exact linear algebra, or None.

    Solves the regular-representation system for a right inverse and
    re-checks the product before returning; a one-sided inverse is
    two-sided here because the algebra is finite dimensional. With
    a = N / d the system is N x = d * 1, on integers.
    """
    group = a.group
    rhs = [0] * group.order
    rhs[group.identity] = a.den
    x = solve_linear(_regular_numerators(a), rhs)
    if x is None:
        return None
    b = AlgebraElement(group, enumerate(x))
    if a * b != AlgebraElement.one(group):
        raise ArithmeticError("solver returned a vector that is not an inverse")
    return b


def element_to_json(a: AlgebraElement) -> dict:
    """Canonical payload: coefficients sorted by element index.

    Values are exact rational strings; the denominator is omitted when
    it is 1.
    """
    return {
        "group": a.group.name,
        "coeffs": [{"elem": a.group.names[g], "value": str(c)} for g, c in a.coeff.items()],
    }


def element_from_json(group: FiniteGroup, data: dict) -> AlgebraElement:
    """Rebuild an element from its canonical payload."""
    if data.get("group") != group.name:
        raise GroupMismatchError(
            f"payload is for group {data.get('group')!r}, not {group.name!r}"
        )
    coeff: dict[int, Fraction] = {}
    for entry in data.get("coeffs", []):
        g = group.index_of(entry["elem"])
        if g in coeff:
            raise ValueError(f"duplicate coefficient for element {entry['elem']!r}")
        coeff[g] = Fraction(entry["value"])
    return AlgebraElement(group, coeff)
