"""Integer and rational sequences behind the closed-form inverses.

Two families appear. A Fibonacci-like sequence G(q) with
G_0 = 0, G_1 = 1, G_i = q^2 G_{i-2} + G_{i-1} drives the inverse of
1 + q*(x - x^-1) on a cycle; an integer companion sequence built from
the conjugate roots of t^2 - 2t + 4 drives the closed form of the
period-3 coefficients that invert 1 + x + x^-1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def fibonacci(i: int) -> int:
    """F_0 = 0, F_1 = 1, F_i = F_{i-1} + F_{i-2}."""
    if i < 0:
        raise ValueError("index must be non-negative")
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def fibonacci_like(q, i: int) -> Fraction:
    """G_0 = 0, G_1 = 1, G_i = q^2 G_{i-2} + G_{i-1}; Fibonacci at q = 1."""
    if i < 0:
        raise ValueError("index must be non-negative")
    return _fibonacci_like_list(Fraction(q), i)[i]


def _fibonacci_like_list(q: Fraction, upto: int) -> list[Fraction]:
    vals = [Fraction(0), Fraction(1)]
    q2 = q * q
    while len(vals) <= upto:
        vals.append(q2 * vals[-2] + vals[-1])
    return vals


def _difference_numerators(n: int, q: Fraction) -> tuple[list[int], list[int], int]:
    """Integer numerators of inverse_coeffs_difference and unit_coeffs_difference.

    Returns (a, b, D) with a_i / D and b_i / D the coefficients and D > 0.
    With q = p/r, the integers H_i = r^i G_i satisfy H_0 = 0, H_1 = r and
    H_i = p^2 H_{i-2} + r H_{i-1}; multiplying both sides of each closed
    form by r^(n+1) gives

        a_i = r (p^(n-i) H_i + (-p)^i H_{n-i}) / D,
        b_0 = (r H_n - 2 p^2 H_{n-1} + r p^n (1 + (-1)^n)) / D,  b_i = 2 a_i,
        D   = H_{n+1} + p^2 H_{n-1} - r p^n (1 + (-1)^n).

    Same preconditions as inverse_coeffs_difference.
    """
    if n <= 2:
        raise ValueError("cycle order must exceed 2")
    if q == 0:
        raise ValueError("q must be nonzero")
    p, r = q.numerator, q.denominator
    h = [0, r]
    while len(h) <= n + 1:
        h.append(p * p * h[-2] + r * h[-1])
    parity = r * p**n * (1 + (-1) ** n)
    denom = h[n + 1] + p * p * h[n - 1] - parity
    b0 = r * h[n] - 2 * p * p * h[n - 1] + parity
    if denom == 0:
        raise ArithmeticError("denominator vanished; this should be impossible")
    sign = 1 if denom > 0 else -1  # D can be negative; the result's is positive
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * p)
    a = [sign * r * (powers[n - i] * h[i] + (-1) ** i * powers[i] * h[n - i]) for i in range(n)]
    return a, [sign * b0] + [2 * ai for ai in a[1:]], sign * denom


def fibonacci_like_closed(q, i: int) -> Fraction:
    """Binomial closed form of fibonacci_like for i >= 1.

    G_i = 2^(1-i) * sum over odd m <= i of C(i, m) * (1 + 4q^2)^((m-1)/2).
    """
    if i < 1:
        raise ValueError("the closed form needs i >= 1")
    root_square = 1 + 4 * Fraction(q) ** 2
    total = sum(comb(i, m) * root_square ** ((m - 1) // 2) for m in range(1, i + 1, 2))
    return Fraction(total, 2 ** (i - 1))


def inverse_coeffs_difference(n: int, q) -> list[Fraction]:
    """Coefficients a_0..a_{n-1} of (1 + q*(x - x^-1))^-1 on a cycle of order n.

    a_i = (q^(n-i) G_i + (-q)^i G_{n-i}) / (G_{n+1} + q^2 G_{n-1} - q^n (1 + (-1)^n)).

    The denominator never vanishes for rational q, so the inverse
    always exists. Requires n > 2 and q != 0 (at q = 0 the element is
    1, its own inverse, and the formula degenerates).
    """
    if n <= 2:
        raise ValueError("cycle order must exceed 2")
    f = Fraction(q)
    if f == 0:
        raise ValueError("q must be nonzero")
    g = _fibonacci_like_list(f, n + 1)
    denom = g[n + 1] + f * f * g[n - 1] - f**n * (1 + (-1) ** n)
    if denom == 0:
        raise ArithmeticError("denominator vanished; this should be impossible")
    return [(f ** (n - i) * g[i] + (-f) ** i * g[n - i]) / denom for i in range(n)]


def inverse_coeffs_fibonacci(n: int) -> list[Fraction]:
    """The q = 1 case of inverse_coeffs_difference, via Fibonacci numbers.

    a_i = (F_i + (-1)^i F_{n-i}) / (F_{n+1} + F_{n-1} - (1 + (-1)^n)).
    """
    if n <= 2:
        raise ValueError("cycle order must exceed 2")
    fib = [fibonacci(i) for i in range(n + 2)]
    denom = fib[n + 1] + fib[n - 1] - (1 + (-1) ** n)
    return [Fraction(fib[i] + (-1) ** i * fib[n - i], denom) for i in range(n)]


def inverse_coeffs_sum(n: int) -> list[Fraction] | None:
    """Coefficients of (1 + x + x^-1)^-1 on a cycle of even order n >= 4.

    Returns None when n is divisible by 6; there 1 + x + x^-1 is a zero
    divisor. Otherwise the coefficients have period 3 and depend only
    on n mod 6:

        n = 2 (mod 6): -1/3, 2/3, -1/3 repeating,
        n = 4 (mod 6):  1/3, 1/3, -2/3 repeating.
    """
    if n < 4 or n % 2:
        raise ValueError("order must be even and at least 4")
    r = n % 6
    if r == 0:
        return None
    if r == 2:
        third = (Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3))
    else:
        third = (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))
    return [third[k % 3] for k in range(n)]


def companion_sequence(k: int) -> int:
    """c_0 = c_1 = 2, c_k = 2 c_{k-1} - 4 c_{k-2}.

    c_k is the sum of the k-th powers of the two conjugate roots of
    t^2 - 2t + 4, hence an even integer for every k.
    """
    if k < 0:
        raise ValueError("index must be non-negative")
    if k == 0:
        return 2
    a, b = 2, 2
    for _ in range(k - 1):
        a, b = b, 2 * b - 4 * a
    return b


def inverse_coeff_sum_closed(n_mod6: int, k: int) -> Fraction:
    """Closed form of the period-3 coefficients of inverse_coeffs_sum, k >= 2.

    The branch is the residue of the cycle order mod 6 (2 or 4); the
    conjugate powers enter through the integer companion sequence, so
    the arithmetic stays rational:

        branch 2: a_k = (-1)^(k-1) c_{k-1} / (3 * 2^(k-1)),
        branch 4: a_k = (-1)^k c_{k+1} / (3 * 2^(k+1)).
    """
    if n_mod6 not in (2, 4):
        raise ValueError("branch must be 2 or 4")
    if k < 2:
        raise ValueError("the closed form holds from k = 2 on")
    if n_mod6 == 2:
        return Fraction((-1) ** (k - 1) * companion_sequence(k - 1), 3 * 2 ** (k - 1))
    return Fraction((-1) ** k * companion_sequence(k + 1), 3 * 2 ** (k + 1))


def unit_coeffs_difference(a: list[Fraction], n: int, q) -> list[Fraction]:
    """Unit coefficients from the inverse coefficients of the difference case.

    b_0 = (G_n - 2 q^2 G_{n-1} + q^n (1 + (-1)^n)) / (same denominator),
    b_i = 2 a_i for i >= 1; the identity b_0 = 2 a_0 - 1 also holds.
    """
    f = Fraction(q)
    g = _fibonacci_like_list(f, n + 1)
    parity = 1 + (-1) ** n
    denom = g[n + 1] + f * f * g[n - 1] - f**n * parity
    b0 = (g[n] - 2 * f * f * g[n - 1] + f**n * parity) / denom
    return [b0] + [2 * ai for ai in a[1:]]


def unit_coeffs_sum(a: list[Fraction]) -> list[Fraction]:
    """Unit coefficients for the period-3 case: b_0 = 2 a_0 - 1, b_k = 2 a_k."""
    return [2 * a[0] - 1] + [2 * ak for ak in a[1:]]
