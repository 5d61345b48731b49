"""Finite groups as dense multiplication tables, with sign orientations.

Groups live on the index set 0..order-1 with the identity at index 0.
Element names are reduced words in the generators; they are what the
parser accepts and the printers emit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from pathlib import Path


class InconsistentOrientationError(ValueError):
    """The generator signs contradict a relation that holds in the group."""


class TrivialOrientationError(ValueError):
    """The generator signs extend to the constant map +1."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by explicit lookup tables.

    Attributes:
        name: display name ("C6", "Q8", ...), also used to tag payloads.
        mul: mul[g][h] is the index of the product g*h.
        inv: inv[g] is the index of the inverse of g.
        names: reduced word for each element; names[0] is "1".
        generators: (name, index) pairs; every element is a product of
            these.
    """

    name: str
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    names: tuple[str, ...]
    generators: tuple[tuple[str, int], ...]
    identity: int = 0

    @property
    def order(self) -> int:
        return len(self.mul)

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {word: g for g, word in enumerate(self.names)}

    def index_of(self, word: str) -> int:
        """Index of the element whose canonical name is ``word``."""
        try:
            return self._name_index[word]
        except KeyError:
            raise ValueError(f"no element named {word!r} in {self.name}") from None

    def power(self, g: int, k: int) -> int:
        """g**k for any integer k, at a cost bounded by the order of g."""
        acc = self.identity
        for _ in range(k % self.element_order(g)):
            acc = self.mul[acc][g]
        return acc

    def element_order(self, g: int) -> int:
        """Least n >= 1 with g**n equal to the identity."""
        acc = g
        n = 1
        while acc != self.identity:
            acc = self.mul[acc][g]
            n += 1
        return n


def _power_word(gen: str, exponent: int) -> str:
    if exponent == 0:
        return "1"
    if exponent == 1:
        return gen
    return f"{gen}^{exponent}"


def _inverse_from_table(mul: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    order = len(mul)
    out = []
    for g in range(order):
        h = next((h for h in range(order) if mul[g][h] == 0 and mul[h][g] == 0), None)
        if h is None:
            raise ValueError(f"element {g} has no two-sided inverse")
        out.append(h)
    return tuple(out)


def cyclic(n: int, generator: str = "x") -> FiniteGroup:
    """Cyclic group of order n; element i is generator**i."""
    if n < 1:
        raise ValueError("cyclic group order must be at least 1")
    # Row a is (a + b) % n for b = 0..n-1: a window of two copies of 0..n-1.
    doubled = tuple(range(n)) * 2
    mul = tuple(doubled[a:a + n] for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    names = tuple(_power_word(generator, a) for a in range(n))
    return FiniteGroup(f"C{n}", mul, inv, names, ((generator, 1 % n),))


def _two_generator_group(name: str, m: int, y_square_exp: int) -> FiniteGroup:
    """Group on words x^a*y^b (0 <= a < m, b in {0,1}) with y*x = x^-1*y.

    y_square_exp is the power of x that y**2 equals: 0 for the split
    extensions (dihedral, symmetric), 2 for the quaternion group.
    """
    order = 2 * m
    rows = []
    for g in range(order):
        a, b = g % m, g // m
        row = []
        for h in range(order):
            c, d = h % m, h // m
            e = (a + (c if b == 0 else -c)) % m
            f = b + d
            if f == 2:
                e = (e + y_square_exp) % m
                f = 0
            row.append(e + m * f)
        rows.append(tuple(row))
    mul = tuple(rows)
    inv = _inverse_from_table(mul)
    names = tuple(_power_word("x", a) for a in range(m)) + tuple(
        "y" if a == 0 else f"{_power_word('x', a)}*y" for a in range(m)
    )
    return FiniteGroup(name, mul, inv, names, (("x", 1), ("y", m)))


def dihedral4() -> FiniteGroup:
    """Dihedral group of order 8: x of order 4, y**2 = 1, y*x*y = x^-1."""
    return _two_generator_group("D4", 4, 0)


def quaternion8() -> FiniteGroup:
    """Quaternion group of order 8: x of order 4, y**2 = x**2, y*x*y^-1 = x^-1."""
    return _two_generator_group("Q8", 4, 2)


def symmetric3() -> FiniteGroup:
    """Symmetric group on three letters: x of order 3, y**2 = 1, y*x*y = x^-1."""
    return _two_generator_group("S3", 3, 0)


@dataclass(frozen=True)
class Orientation:
    """A homomorphism onto {+1, -1}, stored as one sign per element.

    The kernel (the +1 part) is a subgroup of index 2. Construct
    through orientation_from_generators, which rejects sign maps that
    are not homomorphisms or that degenerate to the constant +1.
    """

    group: FiniteGroup
    sign: tuple[int, ...]

    def kernel(self) -> tuple[int, ...]:
        """Indices of the elements with sign +1."""
        return tuple(g for g in self.group.elements() if self.sign[g] == 1)


def orientation_from_generators(group: FiniteGroup, assignment) -> Orientation:
    """Extend generator signs multiplicatively to the whole group.

    ``assignment`` maps generator names to +1 or -1, either as a dict
    or as (name, sign) pairs.

    Raises:
        ValueError: unknown or missing generator names, or a bad sign.
        InconsistentOrientationError: the signs violate a relation.
        TrivialOrientationError: every element would get sign +1.
    """
    pairs = assignment.items() if isinstance(assignment, dict) else list(assignment)
    gen_index = {name: g for name, g in group.generators}
    assigned: dict[str, int] = {}
    for name, s in pairs:
        if name not in gen_index:
            raise ValueError(f"unknown generator {name!r} for {group.name}")
        if s not in (1, -1):
            raise ValueError(f"sign for {name!r} must be +1 or -1, got {s!r}")
        if name in assigned and assigned[name] != s:
            raise InconsistentOrientationError(f"generator {name!r} assigned both signs")
        assigned[name] = s
    missing = [name for name, _ in group.generators if name not in assigned]
    if missing:
        raise ValueError(f"missing sign for generator(s): {', '.join(missing)}")

    sign = [0] * group.order
    sign[group.identity] = 1
    frontier = [group.identity]
    gens = [(gen_index[name], s) for name, s in assigned.items()]
    while frontier:
        e = frontier.pop()
        for g, s in gens:
            t = group.mul[e][g]
            st = sign[e] * s
            if sign[t] == 0:
                sign[t] = st
                frontier.append(t)
            elif sign[t] != st:
                raise InconsistentOrientationError(
                    f"signs contradict a relation at element {group.names[t]!r}"
                )
    if 0 in sign:
        raise ValueError("generators do not reach every element")
    # Every element was popped once, so sign(e*g) = sign(e) * s_g holds for
    # every element e and generator g. Every h is reached from the identity
    # as a word g_1...g_k, so by induction on k, sign(e*h) = sign(e) *
    # s_g1...s_gk = sign(e) * sign(h): the map is multiplicative, and no
    # check over all pairs is needed.
    if -1 not in sign:
        raise TrivialOrientationError(
            f"the assignment extends to the constant +1 on {group.name}"
        )
    return Orientation(group, tuple(sign))


def orientations(group: FiniteGroup) -> list[Orientation]:
    """Every nontrivial orientation, with generator signs in ``product((1, -1), ...)`` order."""
    names = [name for name, _ in group.generators]
    out = []
    for signs in product((1, -1), repeat=len(names)):
        try:
            out.append(orientation_from_generators(group, zip(names, signs)))
        except (InconsistentOrientationError, TrivialOrientationError):
            pass
    return out


def _words_from_generators(
    mul: tuple[tuple[int, ...], ...], generators: tuple[tuple[str, int], ...]
) -> tuple[str, ...]:
    """Shortest-word names by breadth-first search from the identity."""
    order = len(mul)
    words: list[list[int] | None] = [None] * order
    words[0] = []
    queue = deque([0])
    while queue:
        e = queue.popleft()
        for pos, (_, g) in enumerate(generators):
            t = mul[e][g]
            if words[t] is None:
                words[t] = words[e] + [pos]
                queue.append(t)
    if any(w is None for w in words):
        raise ValueError("generators do not generate the group")

    def render(word: list[int]) -> str:
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            parts.append(_power_word(generators[word[i]][0], j - i))
            i = j
        return "*".join(parts)

    return tuple(render(w) for w in words)  # type: ignore[arg-type]


def load_group_table(path) -> FiniteGroup:
    """Read a group from a plain-text multiplication table file.

    The first line holds the order n, the next n lines hold the rows of
    the multiplication table (row g lists g*h for h = 0..n-1), and the
    final line lists the generator indices. Element 0 must be the
    identity. The table is fully validated: identity behaviour, that the
    generators reach every element, associativity (Light's test, on the
    generators only) and two-sided inverses. Elements are named g0, g1,
    ... words in the generators.
    """
    p = Path(path)
    lines = [line.split() for line in p.read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty group-table file")
    try:
        values = [[int(tok) for tok in line] for line in lines]
    except ValueError:
        raise ValueError("group-table files contain whitespace-separated integers only") from None
    head, *rest = values
    if len(head) != 1:
        raise ValueError("the first line must hold the group order alone")
    n = head[0]
    if n < 1:
        raise ValueError("group order must be at least 1")
    if len(rest) != n + 1:
        raise ValueError(f"expected {n} table rows plus one generator line, got {len(rest)} lines")
    rows, gen_line = rest[:n], rest[n]
    for g, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"table row {g} has {len(row)} entries, expected {n}")
        for h, v in enumerate(row):
            if not 0 <= v < n:
                raise ValueError(f"table entry ({g}, {h}) = {v} is out of range")
    mul = tuple(tuple(row) for row in rows)
    for g in range(n):
        if mul[0][g] != g or mul[g][0] != g:
            raise ValueError("element 0 is not a two-sided identity")
    gen_indices: list[int] = []
    for g in gen_line:
        if not 0 <= g < n:
            raise ValueError(f"generator index {g} is out of range")
        if g not in gen_indices:
            gen_indices.append(g)
    if not gen_indices:
        raise ValueError("the generator line is empty")
    generators = tuple((f"g{i}", g) for i, g in enumerate(gen_indices))
    names = _words_from_generators(mul, generators)
    _check_associative(mul, gen_indices)
    inv = _inverse_from_table(mul)
    return FiniteGroup(p.stem, mul, inv, names, generators)


def _check_associative(mul: tuple[tuple[int, ...], ...], generators: list[int]) -> None:
    """Light's associativity test, in O(n^2 * |generators|).

    The set of b with (x*b)*y == x*(b*y) for all x, y contains the
    identity and is closed under products: for a and b in it,
    x*((a*b)*y) = x*(a*(b*y)) = (x*a)*(b*y) = ((x*a)*b)*y = (x*(a*b))*y.
    So when it holds the generators, and they reach every element, it is
    the whole table.
    """
    n = len(mul)
    for g in generators:
        row_g = mul[g]
        for x in range(n):
            row_xg = mul[mul[x][g]]
            row_x = mul[x]
            for y in range(n):
                if row_xg[y] != row_x[row_g[y]]:
                    raise ValueError("multiplication table is not associative")
