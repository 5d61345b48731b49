"""Group tables, the catalog constructions, orientations, and table import."""

import itertools

import pytest

from cayleyunits import (
    InconsistentOrientationError,
    TrivialOrientationError,
    cyclic,
    dihedral4,
    load_group_table,
    orientation_from_generators,
    orientations,
    quaternion8,
    symmetric3,
)

CATALOG = [cyclic(1), cyclic(2), cyclic(4), cyclic(9), symmetric3(), quaternion8(), dihedral4()]


@pytest.mark.parametrize("group", CATALOG, ids=lambda g: g.name)
def test_group_axioms_hold_exhaustively(group):
    n = group.order
    e = group.identity
    for a in range(n):
        assert group.mul[e][a] == a
        assert group.mul[a][e] == a
        assert group.mul[a][group.inv[a]] == e
        assert group.mul[group.inv[a]][a] == e
    for a in range(n):
        for b in range(n):
            ab = group.mul[a][b]
            for c in range(n):
                assert group.mul[ab][c] == group.mul[a][group.mul[b][c]]


@pytest.mark.parametrize("group", CATALOG, ids=lambda g: g.name)
def test_names_are_unique_words(group):
    assert len(set(group.names)) == group.order
    assert group.names[group.identity] == "1"
    for g in group.elements():
        assert group.index_of(group.names[g]) == g
    for word, g in group.generators:
        if g != group.identity:
            assert group.index_of(word) == g


def test_cyclic_powers_and_orders():
    group = cyclic(12)
    x = group.index_of("x")
    assert group.element_order(x) == 12
    assert group.element_order(group.power(x, 4)) == 3
    assert group.element_order(group.identity) == 1
    assert group.power(x, -1) == group.inv[x]
    assert group.power(x, 25) == x


def test_cyclic_rejects_non_positive_order():
    with pytest.raises(ValueError):
        cyclic(0)


def test_symmetric3_relations():
    group = symmetric3()
    x, y = group.index_of("x"), group.index_of("y")
    assert group.order == 6
    assert group.element_order(x) == 3
    assert group.element_order(y) == 2
    assert group.mul[y][x] == group.mul[group.power(x, 2)][y]
    assert group.mul[x][y] != group.mul[y][x]


def test_dihedral4_relations():
    group = dihedral4()
    x, y = group.index_of("x"), group.index_of("y")
    assert group.order == 8
    assert group.element_order(x) == 4
    assert group.element_order(y) == 2
    xy = group.mul[x][y]
    assert group.element_order(xy) == 2
    assert group.mul[group.mul[y][x]][y] == group.inv[x]


def test_quaternion8_relations():
    group = quaternion8()
    x, y = group.index_of("x"), group.index_of("y")
    assert group.order == 8
    assert group.element_order(x) == 4
    assert group.element_order(y) == 4
    assert group.mul[y][y] == group.mul[x][x]
    assert group.mul[group.mul[y][x]][group.inv[y]] == group.inv[x]
    order_two = [g for g in group.elements() if group.element_order(g) == 2]
    assert order_two == [group.mul[x][x]]


def test_orientation_on_symmetric3():
    group = symmetric3()
    orientation = orientation_from_generators(group, {"x": 1, "y": -1})
    assert orientation.sign[group.identity] == 1
    assert set(orientation.kernel()) == {0, 1, 2}
    for g in group.elements():
        assert orientation.sign[group.inv[g]] == orientation.sign[g]
        for h in group.elements():
            assert orientation.sign[group.mul[g][h]] == orientation.sign[g] * orientation.sign[h]


def test_orientation_kernel_has_index_two():
    for group, signs in [
        (cyclic(6), {"x": -1}),
        (dihedral4(), {"x": -1, "y": 1}),
        (quaternion8(), {"x": -1, "y": -1}),
    ]:
        orientation = orientation_from_generators(group, signs)
        assert len(orientation.kernel()) * 2 == group.order


def test_orientation_rejects_inconsistent_signs():
    with pytest.raises(InconsistentOrientationError):
        orientation_from_generators(symmetric3(), {"x": -1, "y": 1})
    with pytest.raises(InconsistentOrientationError):
        orientation_from_generators(cyclic(5), {"x": -1})


def test_orientation_rejects_trivial_assignment():
    with pytest.raises(TrivialOrientationError):
        orientation_from_generators(symmetric3(), {"x": 1, "y": 1})


def test_orientation_rejects_bad_generator_input():
    group = symmetric3()
    with pytest.raises(ValueError, match="unknown generator"):
        orientation_from_generators(group, {"z": -1, "x": 1, "y": -1})
    with pytest.raises(ValueError, match="missing sign"):
        orientation_from_generators(group, {"y": -1})
    with pytest.raises(ValueError, match="must be"):
        orientation_from_generators(group, {"x": 1, "y": 2})


KLEIN_TABLE = """\
4
0 1 2 3
1 0 3 2
2 3 0 1
3 2 1 0
1 2
"""


def test_load_group_table_klein_four(tmp_path):
    path = tmp_path / "klein.txt"
    path.write_text(KLEIN_TABLE)
    group = load_group_table(path)
    assert group.name == "klein"
    assert group.order == 4
    assert group.names == ("1", "g0", "g1", "g0*g1")
    assert all(group.element_order(g) <= 2 for g in group.elements())
    assert group.inv == (0, 1, 2, 3)


def test_load_group_table_cyclic_words(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n1\n")
    group = load_group_table(path)
    assert group.names == ("1", "g0", "g0^2")
    assert group.element_order(1) == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty"),
        ("2\n0 1\n1 0\n0 1\n0\n0\n", "expected 2 table rows"),
        ("x\n", "integers only"),
        ("2 2\n0 1\n1 0\n0\n", "order alone"),
        ("2\n0 1\n1 5\n0\n", "out of range"),
        ("2\n1 0\n0 1\n0\n", "identity"),
        ("3\n0 1 2\n1 2 0\n2 1 0\n1\n", "associative"),
        ("2\n0 1\n1 1\n1\n", "inverse"),
        ("4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n1\n", "do not generate"),
    ],
)
def test_load_group_table_rejects_bad_input(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_group_table(path)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 385])
def test_cyclic_table_is_addition_mod_n(n):
    group = cyclic(n)
    assert group.mul == tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    assert group.inv == tuple((-a) % n for a in range(n))


def _brute_force_outcome(group, signs):
    """The homomorphisms onto {+1, -1} with the given generator signs, by exhaustion."""
    n = group.order
    for sign in itertools.product((1, -1), repeat=n):
        if any(sign[g] != s for (_, g), s in zip(group.generators, signs)):
            continue
        if all(sign[group.mul[g][h]] == sign[g] * sign[h] for g in range(n) for h in range(n)):
            return TrivialOrientationError if -1 not in sign else sign
    return InconsistentOrientationError


@pytest.mark.parametrize(
    "group",
    [cyclic(n) for n in range(1, 13)] + [symmetric3(), quaternion8(), dihedral4()],
    ids=lambda g: g.name,
)
def test_orientation_matches_brute_force_homomorphisms(group):
    homomorphisms = []
    for signs in itertools.product((1, -1), repeat=len(group.generators)):
        assignment = {name: s for (name, _), s in zip(group.generators, signs)}
        expected = _brute_force_outcome(group, signs)
        if isinstance(expected, tuple):
            assert orientation_from_generators(group, assignment).sign == expected
            homomorphisms.append(expected)
        else:
            with pytest.raises(expected):
                orientation_from_generators(group, assignment)
    assert [o.sign for o in orientations(group)] == homomorphisms


# Generator 1 reaches every element (0, 1, 2, 3). Of the seven failing
# triples (x*b)*y != x*(b*y), only (2, 1, 1) has the generator in the middle,
# and the first one in index order, (1, 2, 1), does not.
NON_ASSOCIATIVE_TABLE = """\
4
0 1 2 3
1 2 3 3
2 3 3 3
3 2 3 3
1
"""


def test_load_group_table_finds_non_associativity_through_the_generators(tmp_path):
    rows = [[int(v) for v in line.split()] for line in NON_ASSOCIATIVE_TABLE.splitlines()[1:5]]
    failing = [(x, b, y) for x in range(4) for b in range(4) for y in range(4)
               if rows[rows[x][b]][y] != rows[x][rows[b][y]]]
    assert len(failing) == 7 and [t for t in failing if t[1] == 1] == [(2, 1, 1)]
    path = tmp_path / "magma.txt"
    path.write_text(NON_ASSOCIATIVE_TABLE)
    with pytest.raises(ValueError, match="associative"):
        load_group_table(path)
