"""Independent exact arithmetic that the benchmark checks results with.

Nothing here imports cayleyunits. Groups are rebuilt from their own
models (residues, permutations, matrices, quaternions, or a table the
benchmark wrote itself), element names are evaluated as words in the
generators, and products, involutions and ranks are computed afresh, so
a wrong table, name, coefficient or refusal in the library shows up as
a mismatch here.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from math import lcm

PRIME = (1 << 61) - 1


class Model:
    """A finite group on indices 0..order-1 (identity 0) with named generators."""

    def __init__(self, name: str, table: list[list[int]], gens: dict[str, int]) -> None:
        self.name = name
        self.table = table
        self.order = len(table)
        self.gens = gens
        self.inv = [row.index(0) for row in table]

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv[g], -k
        acc = 0
        for _ in range(k):
            acc = self.table[acc][g]
        return acc

    def word(self, text: str) -> int:
        """Evaluate a word such as ``x^2*y`` (``1`` is the identity)."""
        acc = 0
        for name, exp in word_atoms(text):
            acc = self.table[acc][self.power(self.gens[name], exp)]
        return acc

    def names(self) -> list[str]:
        """Shortest words for every element, found by breadth-first search."""
        words: list[list[str] | None] = [None] * self.order
        words[0] = []
        queue = deque([0])
        while queue:
            e = queue.popleft()
            for name, g in self.gens.items():
                t = self.table[e][g]
                if words[t] is None:
                    words[t] = words[e] + [name]
                    queue.append(t)
        out = []
        for w in words:
            runs: list[list] = []
            for name in w:
                if runs and runs[-1][0] == name:
                    runs[-1][1] += 1
                else:
                    runs.append([name, 1])
            out.append("*".join(n if k == 1 else f"{n}^{k}" for n, k in runs) or "1")
        return out


def word_atoms(text: str) -> list[tuple[str, int]]:
    if text == "1":
        return []
    out = []
    for atom in text.split("*"):
        name, _, exp = atom.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out


def closure(name: str, gens: dict[str, object], mul, identity) -> Model:
    """Enumerate the group the generators span under ``mul`` and tabulate it."""
    elems = [identity]
    index = {identity: 0}
    queue = deque([identity])
    while queue:
        e = queue.popleft()
        for g in gens.values():
            t = mul(e, g)
            if t not in index:
                index[t] = len(elems)
                elems.append(t)
                queue.append(t)
    table = [[index[mul(a, b)] for b in elems] for a in elems]
    return Model(name, table, {k: index[g] for k, g in gens.items()})


def _perm_mul(p, q):
    return tuple(p[i] for i in q)


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def cyclic_model(n: int, gen: str = "x") -> Model:
    return closure(f"C{n}", {gen: 1 % n}, lambda a, b: (a + b) % n, 0)


def symmetric3_model() -> Model:
    # x = the 3-cycle (0 1 2), y = the transposition (0 1).
    return closure("S3", {"x": (1, 2, 0), "y": (1, 0, 2)}, _perm_mul, (0, 1, 2))


def dihedral4_model() -> Model:
    # x = rotation by a quarter turn, y = a reflection of the square.
    return closure("D4", {"x": ((0, -1), (1, 0)), "y": ((1, 0), (0, -1))},
                   _mat_mul, ((1, 0), (0, 1)))


def quaternion8_model() -> Model:
    # x = i, y = j: both of order 4, y^2 = x^2 = -1, y*x*y^-1 = x^-1.
    return closure("Q8", {"x": (0, 1, 0, 0), "y": (0, 0, 1, 0)}, _quat_mul, (1, 0, 0, 0))


def s3_times_c4_model(name: str = "S3xC4") -> Model:
    """S3 x C4 (order 24, non-abelian) on generators g0 = (3-cycle, 1), g1 = (transposition, 0)."""

    def mul(a, b):
        return (_perm_mul(a[0], b[0]), (a[1] + b[1]) % 4)

    return closure(name, {"g0": ((1, 2, 0), 1), "g1": ((1, 0, 2), 0)}, mul, ((0, 1, 2), 0))


def table_file_text(model: Model) -> str:
    """The group-table file format: order, rows, then the generator indices."""
    lines = [str(model.order)]
    lines += [" ".join(map(str, row)) for row in model.table]
    lines.append(" ".join(str(model.gens[k]) for k in sorted(model.gens)))
    return "\n".join(lines) + "\n"


# --- elements as {index: Fraction} dictionaries ----------------------------


def clean(a: dict) -> dict:
    return {g: c for g, c in a.items() if c}


def add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for g, c in b.items():
        out[g] = out.get(g, 0) + sign * c
    return clean(out)


def scale(a: dict, f) -> dict:
    return clean({g: c * f for g, c in a.items()})


def conv(a: dict, b: dict, mul) -> dict:
    """The convolution product: sum of a_g * b_h placed at mul(g, h)."""
    out: dict = {}
    for g, x in a.items():
        for h, y in b.items():
            k = mul(g, h)
            out[k] = out.get(k, 0) + x * y
    return clean(out)


def star(a: dict, inv, sign=None) -> dict:
    """The involution g -> sign(g) g^-1 (classical when sign is None)."""
    if sign is None:
        return {inv(g): c for g, c in a.items()}
    return {inv(g): c * sign(g) for g, c in a.items()}


def one() -> dict:
    return {0: Fraction(1)}


def full_rank_mod_p(a: dict, order: int, mul) -> bool:
    """Whether left multiplication by ``a`` has full rank modulo a large prime.

    The coefficients are scaled to integers first. Full rank mod p
    proves the rational matrix invertible; a deficient rank mod p is
    what a singular element must show.
    """
    if not a:
        return False
    d = lcm(*(Fraction(c).denominator for c in a.values()))
    mat = [[0] * order for _ in range(order)]
    for h, c in a.items():
        v = int(c * d) % PRIME
        for g in range(order):
            mat[mul(h, g)][g] = (mat[mul(h, g)][g] + v) % PRIME
    rank = 0
    for col in range(order):
        piv = next((r for r in range(rank, order) if mat[r][col]), None)
        if piv is None:
            return False
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank]
        inv = pow(p[col], PRIME - 2, PRIME)
        for r in range(rank + 1, order):
            f = mat[r][col]
            if f:
                f = f * inv % PRIME
                row = mat[r]
                for j in range(col, order):
                    row[j] = (row[j] - f * p[j]) % PRIME
        rank += 1
    return True


# --- text -------------------------------------------------------------------

_TERM = re.compile(r"(\d+(?:/\d+)?)(?:\*(.+))?|([A-Za-z_].*)")


def parse_terms(text: str, word) -> dict:
    """Read the canonical printed form, e.g. ``-1/3 + 2/3*x - x^2``."""
    text = text.strip()
    parts = re.split(r" ([+-]) ", text)
    first = parts[0]
    signs = [-1 if first.startswith("-") else 1]
    bodies = [first[1:] if first.startswith("-") else first]
    for i in range(1, len(parts), 2):
        signs.append(1 if parts[i] == "+" else -1)
        bodies.append(parts[i + 1])
    out: dict = {}
    for s, body in zip(signs, bodies):
        m = _TERM.fullmatch(body)
        if m is None:
            raise ValueError(f"unreadable term {body!r}")
        if m.group(1) is not None:
            c = Fraction(m.group(1))
            g = word(m.group(2)) if m.group(2) else 0
        else:
            c, g = Fraction(1), word(m.group(3))
        if g in out:
            raise ValueError(f"repeated term {body!r}")
        out[g] = s * c
    return clean(out)


def render(a: dict, names: list[str]) -> str:
    """Print an element in the expression syntax the CLI accepts."""
    if not a:
        return "0"
    parts = []
    for g in sorted(a):
        c = a[g]
        mag = abs(c)
        body = str(mag) if g == 0 else (names[g] if mag == 1 else f"{mag}*{names[g]}")
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def fields(text: str) -> dict[str, str]:
    """The ``key: value`` lines of the CLI's default output."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def table_rows(text: str) -> list[tuple[int, str]]:
    """The rows of the ``table`` command's markdown output."""
    rows = []
    for line in text.splitlines()[2:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        rows.append((int(cells[0]), cells[1]))
    return rows
