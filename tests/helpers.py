"""Shared builders for the tests."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from cayleyunits import (
    AlgebraElement,
    FiniteGroup,
    dihedral4,
    orientation_from_generators,
    quaternion8,
    symmetric3,
)
from cayleyunits.verify import mat_mul, random_element, random_skew  # noqa: F401

S3 = symmetric3()
Q8 = quaternion8()
D4 = dihedral4()
S3_ORIENT = orientation_from_generators(S3, {"x": 1, "y": -1})

# The scalars q that the closed forms and the oracle are compared on.
Q_GRID = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))


def rationals():
    return st.fractions(min_value=-5, max_value=5, max_denominator=4)


def elements(group: FiniteGroup):
    """Hypothesis strategy over algebra elements of a fixed group."""
    return st.dictionaries(
        st.integers(0, group.order - 1), rationals(), max_size=group.order
    ).map(lambda d: AlgebraElement(group, d))


def on_powers(group, x, coeffs):
    """The element with coeffs[i] on x^i, built term by term."""
    pairs = []
    g = group.identity
    for c in coeffs:
        pairs.append((g, c))
        g = group.mul[g][x]
    return AlgebraElement(group, pairs)
