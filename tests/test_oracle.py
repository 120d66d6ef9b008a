import pytest

from artinstab import (
    INFINITY,
    DihedralElement,
    UnsupportedTypeError,
    WeylElement,
    delta_automorphism,
    expand_subset,
    longest_element,
    positive_roots,
    recognize_component,
    standard_graph,
    w0_conjugation_permutation,
)
from artinstab.oracle import _reflection_matrices

from conftest import build_graph

CRYSTALLOGRAPHIC_UP_TO_RANK_10 = (
    [("A", n) for n in range(1, 11)]
    + [("B", n) for n in range(2, 11)]
    + [("D", n) for n in range(4, 11)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4)]
)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _greedy_descent(t):
    """The longest element by the plain descent: multiply by the first
    reflection whose column of the product is positive, until none is."""
    refl = _reflection_matrices(t)
    m, word = _identity(t.rank), []
    while True:
        for i in range(t.rank):
            if all(row[i] >= 0 for row in m):
                m = _matmul(m, refl[i])
                word.append(i + 1)
                break
        else:
            return m, tuple(word)


def component_of(family, n=0, m=0):
    g = standard_graph(family, n, m)
    return g, recognize_component(g, g.generators)


# ------------------------------------------------------- simple reflections


def test_simple_reflection_a2():
    _, c = component_of("A", 2)
    s1 = _reflection_matrices(c.type)[0]
    # s1 negates its own simple root and adds it to the adjacent one
    assert [row[0] for row in s1] == [-1, 0]
    assert [row[1] for row in s1] == [1, 1]


def test_simple_reflection_is_an_involution():
    for family, n, m in [("A", 4, 0), ("B", 3, 0), ("D", 5, 0), ("F", 4, 0), ("E", 6, 0)]:
        _, c = component_of(family, n, m)
        for s in _reflection_matrices(c.type):
            assert _matmul(s, s) == _identity(c.type.rank)


def test_simple_reflection_unsupported_types():
    _, h3 = component_of("H", 3)
    with pytest.raises(UnsupportedTypeError):
        _reflection_matrices(h3.type)
    _, i25 = component_of("I2", m=5)
    with pytest.raises(UnsupportedTypeError):
        _reflection_matrices(i25.type)


# ---------------------------------------------------------- longest element


@pytest.mark.parametrize(
    "family, n, m, length",
    [
        ("A", 1, 0, 1),
        ("A", 3, 0, 6),
        ("A", 6, 0, 21),
        ("B", 2, 0, 4),
        ("B", 4, 0, 16),
        ("D", 4, 0, 12),
        ("D", 7, 0, 42),
        ("E", 6, 0, 36),
        ("E", 7, 0, 63),
        ("F", 4, 0, 24),
        ("I2", 2, 5, 5),
        ("I2", 2, 10, 10),
    ],
)
def test_longest_element_length(family, n, m, length):
    _, c = component_of(family, n, m)
    w0 = longest_element(c)
    assert len(w0.word) == length
    if family != "I2":
        assert len(positive_roots(c)) == length


def test_longest_element_squares_to_identity():
    for family, n, m in [("A", 5, 0), ("B", 3, 0), ("D", 6, 0), ("E", 6, 0), ("F", 4, 0)]:
        _, c = component_of(family, n, m)
        w0 = longest_element(c)
        assert _matmul(w0.matrix, w0.matrix) == _identity(c.type.rank)


def test_longest_element_maps_simple_roots_to_negatives():
    _, c = component_of("D", 6)
    w0 = longest_element(c)
    for j in range(c.type.rank):
        col = [row[j] for row in w0.matrix]
        assert all(x <= 0 for x in col) and any(x < 0 for x in col)


def test_longest_element_word_multiplies_to_the_matrix():
    for family, n in CRYSTALLOGRAPHIC_UP_TO_RANK_10:
        _, c = component_of(family, n)
        w0 = longest_element(c)
        matrices = _reflection_matrices(c.type)
        acc = _identity(n)
        for i in w0.word:
            acc = _matmul(acc, matrices[i - 1])
        assert acc == w0.matrix, c.type
        assert (w0.matrix, w0.word) == _greedy_descent(c.type), c.type
        assert len(w0.word) == len(positive_roots(c)), c.type


def test_longest_element_dihedral_alternates():
    _, c = component_of("I2", m=7)
    w0 = longest_element(c)
    assert isinstance(w0, DihedralElement)
    assert w0.word == (1, 2, 1, 2, 1, 2, 1)


def test_longest_element_unsupported_for_h_types():
    _, h4 = component_of("H", 4)
    with pytest.raises(UnsupportedTypeError):
        longest_element(h4)


# ------------------------------------------------- conjugation permutation


@pytest.mark.parametrize(
    "family, n, m, expected",
    [
        ("A", 3, 0, {1: 3, 2: 2, 3: 1}),
        ("A", 4, 0, {1: 4, 2: 3, 3: 2, 4: 1}),
        ("D", 5, 0, {1: 2, 2: 1, 3: 3, 4: 4, 5: 5}),
        ("D", 6, 0, {i: i for i in range(1, 7)}),
        ("E", 6, 0, {1: 1, 2: 6, 3: 5, 4: 4, 5: 3, 6: 2}),
        ("E", 7, 0, {i: i for i in range(1, 8)}),
        ("F", 4, 0, {i: i for i in range(1, 5)}),
        ("B", 4, 0, {i: i for i in range(1, 5)}),
        ("I2", 2, 5, {1: 2, 2: 1}),
        ("I2", 2, 6, {1: 1, 2: 2}),
    ],
)
def test_w0_conjugation_permutation(family, n, m, expected):
    _, c = component_of(family, n, m)
    assert w0_conjugation_permutation(c) == expected


def test_oracle_agrees_with_twist_automorphism():
    cases = (
        [("A", n, 0) for n in range(1, 7)]
        + [("B", n, 0) for n in range(2, 6)]
        + [("D", n, 0) for n in range(4, 8)]
        + [("E", n, 0) for n in (6, 7, 8)]
        + [("F", 4, 0)]
        + [("I2", 2, m) for m in range(5, 11)]
    )
    for family, n, m in cases:
        g, c = component_of(family, n, m)
        perm = w0_conjugation_permutation(c)
        tau = delta_automorphism(c)
        index = {v: i + 1 for i, v in enumerate(c.positions)}
        assert perm == {index[a]: index[b] for a, b in tau.items()}, str(c.type)


# ------------------------------------------------------------- expansion


def test_expand_delta_words():
    g, a1 = component_of("A", 1)
    assert expand_subset(g, a1.vertices) == ["s1"]
    g, a2 = component_of("A", 2)
    word = expand_subset(g, a2.vertices)
    assert len(word) == 3 and set(word) == {"s1", "s2"}
    g, i25 = component_of("I2", m=5)
    word = expand_subset(g, i25.vertices)
    assert word == ["s1", "s2", "s1", "s2", "s1"]


def test_expand_delta_maps_through_positions():
    # same diagram with scrambled names: letters must come from the subset
    g = build_graph("qp", ("q", "p", 3))
    c = recognize_component(g, ("p", "q"))
    word = expand_subset(g, c.vertices)
    assert len(word) == 3 and set(word) == {"p", "q"}


def test_expand_subset_reducible_and_unsupported():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    assert expand_subset(a3, ("a", "c")) == ["a", "c"]
    h3 = standard_graph("H", 3)
    assert expand_subset(h3, h3.generators) is None
    inf = build_graph("ab", ("a", "b", INFINITY))
    with pytest.raises(ValueError, match="spherical"):
        expand_subset(inf, ("a", "b"))


def test_weyl_element_is_frozen_record():
    _, c = component_of("A", 2)
    w0 = longest_element(c)
    assert isinstance(w0, WeylElement)
    assert w0.word == (1, 2, 1)
