"""Twist orbits and conjugators: worked examples, the name-tuple reference
of ``tests/reference.py`` on random graphs and on D-rich trees, and the
Young subgroups of A_n, checked without the library.
"""

import random
from collections import Counter
from itertools import combinations
from math import factorial

from artinstab import (
    ConjugatorWord,
    TwistFactor,
    apply_word,
    conjugator,
    orbit,
    standard_graph,
)

from conftest import build_graph, random_graph, random_subset, rename_graph, trees
from reference import Reference


def test_orbit_singleton_in_a3():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    table = orbit(a3, ("a",))
    assert {k for k, _ in table} == {("a",), ("b",), ("c",)}
    for subset, word in table:
        assert apply_word(a3, ("a",), word) == subset
    assert dict(table)[("a",)] == ConjugatorWord()


def test_orbit_of_whole_set_is_trivial():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    table = orbit(a3, ("a", "b", "c"))
    assert [k for k, _ in table] == [("a", "b", "c")]


def test_orbit_preserves_cardinality_and_is_deterministic():
    d5 = standard_graph("D", 5)
    X = ("s1", "s4")
    t1 = orbit(d5, X)
    t2 = orbit(d5, X)
    assert [k for k, _ in t1] == [k for k, _ in t2]
    assert all(len(k) == len(X) for k, _ in t1)
    assert t1.to_json_list() == t2.to_json_list()


def test_orbit_symmetry():
    d5 = standard_graph("D", 5)
    X = ("s1", "s4")
    members = dict(orbit(d5, X))
    for Y in members:
        assert dict(orbit(d5, Y)).keys() == members.keys()


def test_orbit_e7_contains_paper_target():
    e7 = standard_graph("E", 7)
    table = orbit(e7, ("s1", "s2", "s3", "s4", "s6"))
    assert ("s2", "s4", "s5", "s6", "s7") in dict(table)
    assert ("s2", "s4", "s5", "s6", "s7") in table


def test_membership_in_an_orbit_table_is_membership_of_its_subsets():
    assert ("s1",) in orbit(standard_graph("A", 3), ["s1"])
    rng = random.Random(0x1C0)
    asked = members = 0
    for _ in range(40):
        g = random_graph(rng, max_vertices=7)
        X = random_subset(rng, g)
        table = orbit(g, X)
        keys = dict(table)
        Y, word = table.entries[-1]
        probes = [random_subset(rng, g) for _ in range(10)] + [Y, (Y, word), list(Y), ()]
        for probe in probes:
            if isinstance(probe, list):  # unhashable: no key, where dict raises
                assert probe not in table
                continue
            assert (probe in table) == (probe in keys), (g, X, probe)
            asked += 1
            members += probe in table
    assert asked > 400 and members > 60, (asked, members)


def test_conjugator_e7_worked_example():
    e7 = standard_graph("E", 7)
    word = conjugator(
        e7, ("s1", "s2", "s3", "s4", "s6"), ("s2", "s4", "s5", "s6", "s7")
    )
    assert word == ConjugatorWord(
        (
            TwistFactor(("s1", "s2", "s3", "s4", "s5", "s6"), 1),
            TwistFactor(("s1", "s4", "s5", "s6", "s7"), 1),
        )
    )
    assert apply_word(e7, ("s1", "s2", "s3", "s4", "s6"), word) == (
        "s2",
        "s4",
        "s5",
        "s6",
        "s7",
    )


def test_conjugator_identity_and_size_guard():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    assert conjugator(a3, ("a", "b"), ("a", "b")) == ConjugatorWord()
    assert conjugator(a3, ("a",), ("a", "b")) is None


def test_conjugator_d6_vs_d5():
    d6 = standard_graph("D", 6)
    assert conjugator(d6, ("s1", "s3", "s4", "s5", "s6"), ("s2", "s3", "s4", "s5", "s6")) is None
    d5 = standard_graph("D", 5)
    word = conjugator(d5, ("s1", "s3", "s4", "s5"), ("s2", "s3", "s4", "s5"))
    assert word is not None
    assert apply_word(d5, ("s1", "s3", "s4", "s5"), word) == ("s2", "s3", "s4", "s5")


def test_conjugator_not_conjugate_between_distinct_singletons_in_b2():
    b2 = build_graph("ab", ("a", "b", 4))
    assert conjugator(b2, ("a",), ("b",)) is None


def test_conjugator_none_when_component_types_differ():
    # two triangles of type A~2: their types agree, so only the rule that a
    # non-spherical component never moves tells them apart
    triangles = build_graph(
        "abcdef",
        ("a", "b", 3), ("b", "c", 3), ("a", "c", 3),
        ("d", "e", 3), ("e", "f", 3), ("d", "f", 3),
    )
    assert conjugator(triangles, ("a", "b", "c"), ("d", "e", "f")) is None
    b3 = standard_graph("B", 3)
    assert conjugator(b3, ("s1", "s2"), ("s2", "s3")) is None  # B2 against A2


def test_orbit_json_shape():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    payload = orbit(a3, ("a",)).to_json_list()
    assert payload[0] == {"subset": ["a"], "word": []}
    assert all(set(entry) == {"subset", "word"} for entry in payload)
    for entry in payload:
        for factor in entry["word"]:
            assert set(factor) == {"delta_of", "sign"}
            assert factor["sign"] in (1, -1)


def orbit_cases():
    """(graph, reference, X, targets): 300 random graphs of at most 10
    vertices, each with one X and every target of its size; then every X of
    the trees of at most 8 vertices that test_d_scans samples, each with one
    random target.  The trees' D and E components give twists that the
    random graphs seldom reach.  All are named s1..sn, whose canonical
    (sorted) order s1, s10, s2, ... differs from the construction order."""
    rng = random.Random(0x0B17)
    for _ in range(300):
        g = random_graph(rng, max_vertices=10)
        g = rename_graph(g, {v: f"s{i + 1}" for i, v in enumerate(g.generators)})
        X = random_subset(rng, g)
        yield g, Reference(g), X, combinations(g.generators, len(X))
    rng = random.Random(0x0B18)
    for g in trees(0xD5CA, 8):
        if len(g.generators) <= 8:
            ref = Reference(g)
            for r in range(1, len(g.generators) + 1):
                for X in combinations(g.generators, r):
                    yield g, ref, X, [tuple(sorted(rng.sample(g.generators, r)))]


def test_orbit_and_conjugator_equal_name_tuple_reference():
    compared = reached = 0
    for g, ref, X, targets in orbit_cases():
        want = ref.orbit(X)
        assert list(orbit(g, X).entries) == list(want.items()), (g, X)
        # an early-stopping BFS finds a target with the word the full
        # closure records for it
        for Y in targets:
            assert conjugator(g, X, Y) == want.get(Y), (g, X, Y)
            compared += 1
            reached += Y in want
    assert compared > 7000 and reached > 700, (compared, reached)


# ------------------------------------------- A_n: Young subgroups (no library)


def young_blocks(n, X):
    """Block sizes of the partition of {1..n+1} that X induces on A_n, where
    s_i joins i and i + 1.  The standard parabolic subgroups of A_n on X and
    X' are conjugate exactly when these multisets agree (they are Young
    subgroups of the symmetric group; L. Paris, J. Algebra 196, 1997)."""
    sizes, block = [], 1
    for i in range(1, n + 1):
        if f"s{i}" in X:
            block += 1
        else:
            sizes.append(block)
            block = 1
    sizes.append(block)
    return sorted(sizes)


def young_class_size(blocks):
    """The subsets with the same blocks: arrangements of the blocks in a row."""
    out = factorial(len(blocks))
    for count in Counter(blocks).values():
        out //= factorial(count)
    return out


def a_subset(rng, n, runs):
    """A random subset of A_n whose maximal runs have the given lengths."""
    order = list(runs)
    rng.shuffle(order)
    slots = [0] * (len(order) + 1)  # free vertices before, between, after runs
    for _ in range(n - sum(order) - (len(order) - 1)):
        slots[rng.randrange(len(slots))] += 1
    out, pos = [], 1 + slots[0]
    for k, extra in zip(order, slots[1:]):
        out += [f"s{j}" for j in range(pos, pos + k)]
        pos += k + 1 + extra
    return tuple(sorted(out))


def test_a_n_orbits_are_the_young_classes_up_to_rank_7():
    for n in range(1, 8):
        g = standard_graph("A", n)
        for k in range(1, n + 1):
            for X in combinations(g.generators, k):
                blocks = young_blocks(n, X)
                members = [Y for Y, _ in orbit(g, X)]
                assert all(young_blocks(n, Y) == blocks for Y in members), (n, X)
                assert len(members) == young_class_size(blocks), (n, X)


def test_a_n_orbits_and_conjugators_follow_young_blocks_up_to_rank_30():
    rng = random.Random(0xA30)
    checked = 0
    for n in (10, 12, 16, 20, 24, 30):
        g = standard_graph("A", n)
        for _ in range(6):
            runs = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            X = a_subset(rng, n, runs)
            blocks = young_blocks(n, X)
            if young_class_size(blocks) > 3000:
                continue
            members = [Y for Y, _ in orbit(g, X)]
            assert all(young_blocks(n, Y) == blocks for Y in members), (n, X)
            assert len(members) == young_class_size(blocks), (n, X)
            Y = a_subset(rng, n, runs)
            word = conjugator(g, X, Y)
            assert word is not None and apply_word(g, X, word) == Y, (n, X, Y)
            if len(runs) > 1:  # merge two runs: fewer blocks, same size
                other = [runs[0] + runs[1]] + runs[2:]
            elif runs[0] > 1:  # split the run: more blocks, same size
                other = [runs[0] - 1, 1]
            else:
                continue
            Z = a_subset(rng, n, other)
            assert young_blocks(n, Z) != blocks
            assert conjugator(g, X, Z) is None, (n, X, Z)
            checked += 1
    assert checked >= 25
