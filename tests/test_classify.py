import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from artinstab import (
    INFINITY,
    CoxeterGraph,
    IrreducibleType,
    classify_group,
    components,
    decide_with_applicability,
    is_spherical,
    recognize_component,
    standard_graph,
)

from conftest import build_graph, rename_graph
from reference import recognize, twistable


def typ(g, Y):
    tc = recognize_component(g, Y)
    return None if tc is None else str(tc.type)


# ---------------------------------------------------------------- catalog


def test_single_vertex_is_a1():
    g = build_graph("a")
    assert typ(g, "a") == "A1"


@pytest.mark.parametrize(
    "m, expected", [(3, "A2"), (4, "B2"), (5, "I2(5)"), (6, "I2(6)"), (7, "I2(7)")]
)
def test_two_vertex_types(m, expected):
    g = build_graph("ab", ("a", "b", m))
    assert typ(g, "ab") == expected


def test_two_vertex_infinite_is_not_spherical():
    g = build_graph("ab", ("a", "b", INFINITY))
    assert recognize_component(g, "ab") is None


def test_path_orientation_smaller_end_first():
    g = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    tc = recognize_component(g, "abc")
    assert str(tc.type) == "A3"
    assert tc.positions == ("a", "b", "c")
    # same path named in reverse order
    h = build_graph("xyz", ("z", "y", 3), ("y", "x", 3))
    assert recognize_component(h, "xyz").positions == ("x", "y", "z")


def test_b_type_puts_label4_edge_first():
    g = build_graph("abc", ("a", "b", 3), ("b", "c", 4))
    tc = recognize_component(g, "abc")
    assert str(tc.type) == "B3"
    assert tc.positions == ("c", "b", "a")
    assert g.label(tc.positions[0], tc.positions[1]) == 4


def test_h_and_f_types():
    h3 = build_graph("abc", ("a", "b", 5), ("b", "c", 3))
    assert recognize_component(h3, "abc").positions == ("a", "b", "c")
    assert typ(h3, "abc") == "H3"
    h4 = standard_graph("H", 4)
    assert typ(h4, h4.generators) == "H4"
    f4 = standard_graph("F", 4)
    tc = recognize_component(f4, f4.generators)
    assert str(tc.type) == "F4"
    assert tc.positions == ("s1", "s2", "s3", "s4")
    assert f4.label("s2", "s3") == 4


def test_d_type_positions():
    d5 = standard_graph("D", 5)
    tc = recognize_component(d5, d5.generators)
    assert str(tc.type) == "D5"
    assert tc.positions == ("s1", "s2", "s3", "s4", "s5")
    d4 = standard_graph("D", 4)
    tc = recognize_component(d4, d4.generators)
    assert str(tc.type) == "D4"
    # three leaves in lexicographic order land on positions 1, 2, 4
    assert tc.positions == ("s1", "s2", "s3", "s4")


def test_e_type_positions():
    for n in (6, 7, 8):
        g = standard_graph("E", n)
        tc = recognize_component(g, g.generators)
        assert str(tc.type) == f"E{n}"
        assert tc.positions == tuple(f"s{i}" for i in range(1, n + 1))


def test_e6_inside_e7():
    e7 = standard_graph("E", 7)
    tc = recognize_component(e7, [f"s{i}" for i in range(1, 7)])
    assert str(tc.type) == "E6"
    assert tc.positions == ("s1", "s2", "s3", "s4", "s5", "s6")


def test_every_standard_graph_is_recognized_as_its_type_on_s1_to_sn():
    """The catalog table that builds the graphs and the recognizer share
    no code; ranks reach 11 so that name order (s1, s10, s11, s2, ...)
    differs from position order."""
    cases = (
        [("A", n, 0) for n in range(1, 12)]
        + [("B", n, 0) for n in range(2, 12)]
        + [("D", n, 0) for n in range(4, 12)]
        + [("E", n, 0) for n in (6, 7, 8)]
        + [("F", 4, 0), ("H", 3, 0), ("H", 4, 0)]
        + [("I2", 0, m) for m in range(5, 12)]
    )
    for family, n, m in cases:
        g = standard_graph(family, n, m)
        tc = recognize_component(g, g.generators)
        rank = 2 if family == "I2" else n
        assert tc.type == IrreducibleType(family, rank, m), (family, n, m)
        assert tc.positions == tuple(f"s{i}" for i in range(1, rank + 1)), (family, n, m)
    # I2(3) and I2(4) are A2 and B2
    assert recognize_component(standard_graph("I2", 0, 3), ("s1", "s2")).type == IrreducibleType("A", 2)
    assert recognize_component(standard_graph("I2", 0, 4), ("s1", "s2")).type == IrreducibleType("B", 2)


@pytest.mark.parametrize(
    "args, message",
    [
        (("A", 0), "A needs rank >= 1"),
        (("A", -1), "A needs rank >= 1"),
        (("B", 1), "B needs rank >= 2"),
        (("D", 3), "D needs rank >= 4"),
        (("E", 5), "E needs rank 6, 7 or 8"),
        (("E", 9), "E needs rank 6, 7 or 8"),
        (("F", 3), "F needs rank 4"),
        (("F", 5), "F needs rank 4"),
        (("H", 2), "H needs rank 3 or 4"),
        (("H", 5), "H needs rank 3 or 4"),
        (("I2", 2, 2), "I2 needs an edge label m >= 3"),
        (("I2",), "I2 needs an edge label m >= 3"),
        (("X", 3), "unknown family 'X'"),
        (("C", 3), "unknown family 'C'"),
        # an m for a family other than I2, or a rank other than 2 for I2
        (("A", 3, 9), "A takes no edge label m, got m = 9"),
        (("E", 6, 3), "E takes no edge label m, got m = 3"),
        (("I2", 5, 7), "I2 has rank 2, got n = 5"),
        (("I2", 1, 5), "I2 has rank 2, got n = 1"),
    ],
)
def test_a_type_outside_the_catalog_is_a_value_error_with_its_message(args, message):
    with pytest.raises(ValueError) as excinfo:
        standard_graph(*args)
    assert type(excinfo.value) is ValueError and str(excinfo.value) == message


@pytest.mark.parametrize(
    "builder",
    [
        # triangle (cycle)
        lambda: build_graph("abc", ("a", "b", 3), ("b", "c", 3), ("a", "c", 3)),
        # star with four arms of length one
        lambda: build_graph(
            "abcde", ("e", "a", 3), ("e", "b", 3), ("e", "c", 3), ("e", "d", 3)
        ),
        # infinite edge inside a connected component
        lambda: build_graph("abc", ("a", "b", INFINITY), ("b", "c", 3)),
        # two label-4 edges on a path
        lambda: build_graph("abc", ("a", "b", 4), ("b", "c", 4)),
        # interior label 4 on a path of 5 is not F-shaped
        lambda: build_graph(
            "abcde", ("a", "b", 3), ("b", "c", 4), ("c", "d", 3), ("d", "e", 3)
        ),
        # interior label 5
        lambda: build_graph("abcd", ("a", "b", 3), ("b", "c", 5), ("c", "d", 3)),
        # H5 does not exist
        lambda: build_graph(
            "abcde", ("a", "b", 5), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3)
        ),
        # label-4 edge hanging off a branch vertex
        lambda: build_graph(
            "abcde", ("a", "c", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 4)
        ),
        # arms (2, 2, 2) around a branch vertex
        lambda: build_graph(
            "abcdefg",
            ("a", "g", 3),
            ("b", "a", 3),
            ("c", "g", 3),
            ("d", "c", 3),
            ("e", "g", 3),
            ("f", "e", 3),
        ),
        # arms (1, 3, 3)
        lambda: build_graph(
            "abcdefgh",
            ("a", "b", 3),
            ("b", "c", 3),
            ("c", "d", 3),
            ("d", "e", 3),
            ("e", "f", 3),
            ("f", "g", 3),
            ("d", "h", 3),
        ),
    ],
)
def test_not_in_catalog(builder):
    g = builder()
    assert recognize_component(g, g.generators) is None


def test_recognize_requires_connected():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    with pytest.raises(ValueError, match="not connected"):
        recognize_component(a3, ("a", "c"))


def test_positions_carry_labels_of_the_template():
    cases = (
        [("A", n, 0) for n in range(1, 9)]
        + [("B", n, 0) for n in range(2, 9)]
        + [("D", n, 0) for n in range(4, 9)]
        + [("E", n, 0) for n in (6, 7, 8)]
        + [("F", 4, 0), ("H", 3, 0), ("H", 4, 0), ("I2", 2, 5), ("I2", 2, 8)]
    )
    for family, n, m in cases:
        template = standard_graph(family, n, m)
        # rename vertices to scramble the canonical order, then re-recognize
        names = template.generators
        mapping = dict(zip(names, ["q", "w", "x", "y", "z", "u", "v", "t"][: len(names)]))
        g = rename_graph(template, mapping)
        tc = recognize_component(g, g.generators)
        assert tc is not None and str(tc.type) == str(
            recognize_component(template, names).type
        )
        for i, j in combinations(range(len(names)), 2):
            expected = template.label(f"s{i + 1}", f"s{j + 1}")
            assert g.label(tc.positions[i], tc.positions[j]) == expected


# ------------------------------------------- brute-force isomorphism oracle


def _as_nx(g, X):
    h = nx.Graph()
    h.add_nodes_from(X)
    for i, s in enumerate(X):
        for t in X[i + 1 :]:
            m = g.label(s, t)
            if m >= 3:
                h.add_edge(s, t, m=m)
    return h


def _catalog_templates(n):
    out = []
    fams = [("A", n, 0)]
    if n >= 2:
        fams.append(("B", n, 0))
    if n >= 4:
        fams.append(("D", n, 0))
    if n in (6, 7, 8):
        fams.append(("E", n, 0))
    if n == 4:
        fams.append(("F", 4, 0))
    if n in (3, 4):
        fams.append(("H", n, 0))
    if n == 2:
        fams += [("I2", 2, m) for m in (5, 6)]
    for family, rank, m in fams:
        g = standard_graph(family, rank, m)
        tc = recognize_component(g, g.generators)
        out.append((str(tc.type), _as_nx(g, g.generators)))
    return out


def brute_force_type(g, Y):
    """Independent recognizer: label-preserving isomorphism search against
    the catalog, via the VF2 matcher."""
    target = _as_nx(g, Y)
    if any(g.label(s, t) == INFINITY for s, t in combinations(Y, 2)):
        return None
    for name, template in _catalog_templates(len(Y)):
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            template,
            target,
            edge_match=lambda e1, e2: e1["m"] == e2["m"],
        )
        if matcher.is_isomorphic():
            return name
    return None


def _random_labeled_tree(rng, names, labels):
    rels = []
    for i in range(1, len(names)):
        j = rng.randrange(i)
        rels.append((names[i], names[j], rng.choice(labels)))
    return build_graph(names, *rels)


def test_recognition_agrees_with_isomorphism_search_small_exhaustive():
    labels = (3, 4, 5, 6)
    for n in (2, 3):
        names = "abcd"[:n]
        trees = [[(names[1], names[0])]] if n == 2 else [
            [(names[1], names[0]), (names[2], names[0])],
            [(names[1], names[0]), (names[2], names[1])],
        ]
        for shape in trees:
            edge_count = len(shape)
            for assignment in __import__("itertools").product(labels, repeat=edge_count):
                rels = [(s, t, m) for (s, t), m in zip(shape, assignment)]
                g = build_graph(names, *rels)
                assert typ(g, names) == brute_force_type(g, tuple(sorted(names)))


def test_recognition_agrees_with_isomorphism_search_random():
    rng = random.Random(20240815)
    # weighted toward 3 to hit the catalog often; infinity must agree too
    labels = (3, 3, 3, 3, 4, 5, 6, INFINITY)
    hits = 0
    for _ in range(400):
        n = rng.randint(4, 8)
        names = list("abcdefgh"[:n])
        rng.shuffle(names)
        g = _random_labeled_tree(rng, names, labels)
        got = typ(g, tuple(sorted(names)))
        expected = brute_force_type(g, tuple(sorted(names)))
        assert got == expected
        hits += got is not None
    assert hits > 20  # the sample actually exercises the catalog


def test_recognition_rejects_cycles():
    rng = random.Random(7)
    for n in range(3, 9):
        names = list("abcdefgh"[:n])
        rels = [
            (names[i], names[(i + 1) % n], rng.choice((3, 4, 5)))
            for i in range(n)
        ]
        g = build_graph(names, *rels)
        assert recognize_component(g, names) is None


def _affine(n, ends):
    """A~n (a cycle of n + 1 label-3 edges) when ends is None, else C~n:
    the path s1 .. s(n + 1) labelled ends, 3, ..., 3, ends."""
    names = [f"s{i}" for i in range(1, n + 2)]
    rels = [(names[i], names[i + 1], 3) for i in range(n)]
    if ends is None:
        rels.append((names[n], names[0], 3))
    else:
        rels[0], rels[-1] = (names[0], names[1], ends), (names[n - 1], names[n], ends)
    return CoxeterGraph.build(names, rels)


def _parity_graphs():
    """The catalog graphs of the parity test, A~7 and C~6, then 120 seeded
    graphs on 2-9 vertices with labels 2, 3, 4, 5, 6 and infinity, named
    so that name order differs from construction order."""
    for family, n, m in [("A", 8, 0), ("B", 8, 0), ("D", 8, 0), ("E", 6, 0), ("E", 7, 0),
                         ("E", 8, 0), ("F", 4, 0), ("H", 3, 0), ("H", 4, 0)]:
        yield standard_graph(family, n, m)
    for m in (5, 6, 7, 8):
        yield standard_graph("I2", 0, m)
    yield _affine(7, None)
    yield _affine(6, 4)
    rng = random.Random(0x9A217)
    labels = (2, 2, 2, 2, 3, 3, 3, 3, 4, 5, 6, INFINITY)
    for _ in range(120):
        n = rng.randint(2, 9)
        names = [f"v{i}" for i in range(n)]
        rels = [(s, t, m) for s, t in combinations(names, 2) if (m := rng.choice(labels)) != 2]
        shuffled = rng.sample("abcdefghk", n)
        yield rename_graph(CoxeterGraph.build(names, rels), dict(zip(names, shuffled)))


def test_mask_recognizer_equals_name_tuple_reference():
    """The library's recognizer, on masks, against the name-tuple matcher
    of the reference: the same type and positions, or both None, on every
    connected subset."""
    compared, typed = 0, set()
    for g in _parity_graphs():
        for r in range(1, len(g.generators) + 1):
            for Y in combinations(g.generators, r):
                if components(g, Y) != [Y]:
                    continue
                got, expected = recognize_component(g, Y), recognize(g, Y)
                assert got == expected, (g, Y, got, expected)
                compared += 1
                typed.add(None if got is None else got.type.family)
    assert compared > 5000, compared
    assert typed == {None, "A", "B", "D", "E", "F", "H", "I2"}, typed


# ---------------------------------------------------------------- spherical


def test_is_spherical_examples():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    assert is_spherical(a3, ())
    assert components(a3, ()) == []
    assert is_spherical(a3, ("a", "c"))
    dec = [recognize_component(a3, comp) for comp in components(a3, ("a", "c"))]
    assert [str(tc.type) for tc in dec] == ["A1", "A1"]
    inf = build_graph("ab", ("a", "b", INFINITY))
    assert not is_spherical(inf, ("a", "b"))


def test_rank_equals_vertex_count():
    for family, n, m in [("A", 5, 0), ("B", 6, 0), ("D", 7, 0), ("E", 8, 0), ("I2", 2, 9)]:
        g = standard_graph(family, n, m)
        tc = recognize_component(g, g.generators)
        assert tc.type.rank == len(g.generators) == len(tc.positions)
        assert sorted(tc.positions) == list(g.generators)


# ---------------------------------------------------------------- twistable


@pytest.mark.parametrize(
    "family, n, m, expected",
    [
        ("A", 1, 0, False),
        ("A", 2, 0, True),
        ("A", 6, 0, True),
        ("B", 2, 0, False),
        ("B", 5, 0, False),
        ("D", 4, 0, False),
        ("D", 5, 0, True),
        ("D", 6, 0, False),
        ("D", 7, 0, True),
        ("E", 6, 0, True),
        ("E", 7, 0, False),
        ("E", 8, 0, False),
        ("F", 4, 0, False),
        ("H", 3, 0, False),
        ("H", 4, 0, False),
        ("I2", 2, 5, True),
        ("I2", 2, 6, False),
        ("I2", 2, 7, True),
    ],
)
def test_twistable_table(family, n, m, expected):
    g = standard_graph(family, n, m)
    tc = recognize_component(g, g.generators)
    assert twistable(tc) is expected


# ------------------------------------------------------------ whole group


def test_fc_triangle_with_infinity():
    g = build_graph("abc", ("a", "b", 3), ("b", "c", 3), ("a", "c", INFINITY))
    r = classify_group(g)
    assert r.fc_type and not r.free_product_of_spherical and not r.spherical
    # this graph also satisfies the two-dimensional vertex condition, so the
    # full decision applies to it
    assert r.two_dimensional and r.martin_2dim_condition
    assert r.applicability == "FullStability"


def test_fc_only_graph_gets_quasi_stability():
    g = build_graph(
        "abcd", ("a", "b", 3), ("c", "d", 3), ("b", "d", INFINITY)
    )
    r = classify_group(g)
    assert r.fc_type and not r.free_product_of_spherical
    assert not r.two_dimensional and not r.spherical and r.affine_family is None
    assert r.applicability == "QuasiStability"


def test_free_product_of_spherical_factors():
    g = build_graph("abc", ("a", "b", 3), ("a", "c", INFINITY), ("b", "c", INFINITY))
    r = classify_group(g)
    assert r.free_product_of_spherical and r.fc_type
    assert [types for _, types in r.free_factors] == [("A2",), ("A1",)]
    assert r.applicability == "FullStability"


def test_affine_families():
    tri = build_graph("abc", ("a", "b", 3), ("b", "c", 3), ("a", "c", 3))
    r = classify_group(tri)
    assert r.affine_family == "A~2"
    assert r.applicability == "FullStability"
    assert not r.fc_type and not r.spherical

    c2 = build_graph("abc", ("a", "b", 4), ("b", "c", 4))
    r = classify_group(c2)
    assert r.affine_family == "C~2"
    assert r.applicability == "FullStability"

    c3 = build_graph("abcd", ("a", "b", 4), ("b", "c", 3), ("c", "d", 4))
    assert classify_group(c3).affine_family == "C~3"

    square = build_graph(
        "abcd", ("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 3)
    )
    assert classify_group(square).affine_family == "A~3"


def test_large_and_two_dimensional_flags():
    tri = build_graph("abc", ("a", "b", 3), ("b", "c", 3), ("a", "c", 3))
    r = classify_group(tri)
    assert r.large and r.two_dimensional and r.martin_2dim_condition

    a3 = standard_graph("A", 3)
    r = classify_group(a3)
    assert not r.large and not r.two_dimensional
    assert r.spherical and r.applicability == "FullStability"


def test_large_counts_missing_pairs_as_commuting():
    names = ["a", "b", "c", "d"]
    assert classify_group(CoxeterGraph.build(names, infinite_by_default=True)).large
    one_two = CoxeterGraph.build(names, [("b", "d", 2)], infinite_by_default=True)
    assert not classify_group(one_two).large


def test_unknown_family():
    square4 = build_graph(
        "abcd", ("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 4)
    )
    r = classify_group(square4)
    assert r.applicability == "Unknown"
    assert not (r.spherical or r.fc_type or r.free_product_of_spherical)
    assert not r.martin_2dim_condition and r.affine_family is None


def test_classification_invariant_under_renaming():
    g = build_graph(
        "abcd", ("a", "b", 3), ("b", "c", 4), ("c", "d", 3), ("a", "d", INFINITY)
    )
    mapping = {"a": "w", "b": "q", "c": "z", "d": "e"}
    h = rename_graph(g, mapping)
    r1, r2 = classify_group(g), classify_group(h)
    assert (r1.spherical, r1.fc_type, r1.free_product_of_spherical) == (
        r2.spherical,
        r2.fc_type,
        r2.free_product_of_spherical,
    )
    assert (r1.large, r1.two_dimensional, r1.martin_2dim_condition) == (
        r2.large,
        r2.two_dimensional,
        r2.martin_2dim_condition,
    )
    assert r1.affine_family == r2.affine_family
    assert r1.applicability == r2.applicability


def test_spherical_implies_fc_on_samples():
    for family, n, m in [("A", 4, 0), ("D", 5, 0), ("F", 4, 0), ("I2", 2, 7)]:
        r = classify_group(standard_graph(family, n, m))
        assert r.spherical and r.fc_type


# ------------------------------------------------------------ clique search


def _finite_graph(g):
    finite = nx.Graph()
    finite.add_nodes_from(g.generators)
    finite.add_edges_from(
        (s, t) for s, t in combinations(g.generators, 2) if g.label(s, t) != INFINITY
    )
    return finite


def _brute_force_fc_type(g):
    """Every clique of the finite-label graph is spherical: components by a
    plain graph search, each matched against the catalog by VF2."""
    known: dict[frozenset, bool] = {}
    for clique in nx.enumerate_all_cliques(_finite_graph(g)):
        for comp in nx.connected_components(_as_nx(g, tuple(clique))):
            key = frozenset(comp)
            if key not in known:
                known[key] = brute_force_type(g, tuple(sorted(comp))) is not None
            if not known[key]:
                return False
    return True


def _largest_connected_clique(g):
    """The most vertices of a clique of the finite-label graph that is
    connected by labels m >= 3: a component of a maximal clique."""
    return max(
        len(comp)
        for clique in nx.find_cliques(_finite_graph(g))
        for comp in nx.connected_components(_as_nx(g, tuple(clique)))
    )


def test_fc_type_agrees_with_brute_force_on_7_to_10_vertices():
    # the first sample draws a per-graph share of commuting pairs, so both
    # outcomes occur; the second has few commuting pairs and few infinite
    # labels, so that maximal connected cliques of 4 or more vertices occur,
    # spherical ones among them
    samples = [
        (710, (0.6, 0.95), (3, 4, 5, 6, INFINITY, INFINITY), 30, 0),
        (4711, (0.55, 0.75), (3, 3, 3, 3, 4, INFINITY), 10, 10),
    ]
    for seed, commuting, labels, each, large in samples:
        rng = random.Random(seed)
        outcomes = []
        for _ in range(200):
            n = rng.randint(7, 10)
            names = [f"s{i}" for i in range(n)]
            share = rng.uniform(*commuting)
            rels = []
            for a, b in combinations(names, 2):
                if rng.random() >= share:
                    rels.append((a, b, rng.choice(labels)))
            g = build_graph(names, *rels)
            expected = _brute_force_fc_type(g)
            assert classify_group(g).fc_type is expected, (seed, g)
            outcomes.append((expected, _largest_connected_clique(g)))
        fc = [size for expected, size in outcomes if expected]
        assert each <= len(fc) <= len(outcomes) - each, seed
        assert sum(size >= 4 for size in fc) >= large, seed


def test_fc_type_of_45_generators_in_infinity_joined_triples():
    # 3^15 maximal cliques of the finite-label graph, but no two generators
    # joined by a finite label m >= 3: every connected clique is one vertex
    names = [f"s{i:02d}" for i in range(45)]
    g = build_graph(names, *(
        (names[a], names[b], INFINITY)
        for i in range(0, 45, 3) for a, b in combinations(range(i, i + 3), 2)
    ))
    r = classify_group(g)
    assert (r.fc_type, r.applicability) == (True, "QuasiStability")
    report = decide_with_applicability(g, ["s00", "s03"])
    assert (report.verdict, report.semantics) == ("stable", "stability")


def test_fc_type_recognizes_each_maximal_connected_clique_once():
    # k layers of two generators joined by infinity, each joined by m = 3
    # to both of the next layer: the 2^k maximal connected cliques take one
    # generator per layer, each an A_k; the whole graph is the one other
    # set recognized
    k = 8
    names = [f"v{i}{side}" for i in range(k) for side in "ab"]
    rels = [(f"v{i}a", f"v{i}b", INFINITY) for i in range(k)]
    rels += [(f"v{i}{s}", f"v{i + 1}{t}", 3) for i in range(k - 1) for s in "ab" for t in "ab"]
    g = build_graph(names, *rels)
    assert classify_group(g).fc_type
    assert len(g.types) == 2**k + 1
    assert sum(tc is not None and str(tc.type) == f"A{k}" for tc in g.types.values()) == 2**k


@pytest.mark.parametrize(
    "first, last, closing, spherical, fc_type, affine, applicability",
    [
        (3, 3, None, True, True, None, "FullStability"),
        (3, 3, 3, False, False, "A~39", "FullStability"),
        (4, 4, None, False, False, "C~39", "FullStability"),
        (3, 3, INFINITY, False, True, None, "QuasiStability"),
    ],
    ids=["A40", "A~39", "C~39", "chain-closed-by-inf"],
)
def test_classify_rank_40(first, last, closing, spherical, fc_type, affine, applicability):
    """A rank-40 chain s1..s40 with end labels first/last, closed by an
    s1-s40 edge when closing is given."""
    names = [f"s{i}" for i in range(1, 41)]
    labels = [first] + [3] * 37 + [last]
    rels = [(names[i], names[i + 1], m) for i, m in enumerate(labels)]
    if closing is not None:
        rels.append((names[0], names[-1], closing))
    r = classify_group(build_graph(names, *rels))
    assert (r.spherical, r.fc_type, r.affine_family, r.applicability) == (
        spherical,
        fc_type,
        affine,
        applicability,
    )


# ------------------------------------------------ reference classification


def _plain_components(vertices, joined):
    """Components of the names under the predicate joined, by a plain
    name-keyed search, each sorted and ordered by its least name."""
    remaining = set(vertices)
    out = []
    for start in sorted(vertices):
        if start not in remaining:
            continue
        remaining.discard(start)
        comp, frontier = {start}, [start]
        while frontier:
            v = frontier.pop()
            for w in [w for w in remaining if joined(v, w)]:
                remaining.discard(w)
                comp.add(w)
                frontier.append(w)
        out.append(tuple(sorted(comp)))
    return out


def _plain_types(g, X):
    """Type names of the components of X, or None when one is not spherical."""
    out = []
    for comp in _plain_components(X, lambda s, t: g.label(s, t) >= 3):
        tc = recognize_component(g, comp)
        if tc is None:
            return None
        out.append(str(tc.type))
    return out


def _plain_affine(g):
    S = g.generators
    h = _as_nx(g, S)
    if len(S) < 3 or not nx.is_connected(h):
        return None
    deg = dict(h.degree())
    labels = [m for _, _, m in h.edges(data="m")]
    if all(d == 2 for d in deg.values()):
        return f"A~{len(S) - 1}" if all(m == 3 for m in labels) else None
    leaves = sorted(v for v, d in deg.items() if d == 1)
    if len(leaves) == 2 and all(d <= 2 for d in deg.values()):
        path = nx.shortest_path(h, leaves[0], leaves[1])
        lseq = [h.edges[a, b]["m"] for a, b in zip(path, path[1:])]
        if lseq[0] == lseq[-1] == 4 and all(m == 3 for m in lseq[1:-1]):
            return f"C~{len(S) - 1}"
    return None


def _plain_classification(g):
    """Every field of ``classify_group(g).to_json_dict()`` from the plain
    definitions: Fraction sums over all triples, components by a name-keyed
    search, maximal cliques from networkx."""
    S = g.generators

    def finite(s, t):
        return g.label(s, t) != INFINITY

    spherical = _plain_types(g, S) is not None
    h = nx.Graph()
    h.add_nodes_from(S)
    h.add_edges_from((s, t) for s, t in combinations(S, 2) if finite(s, t))
    fc_type = all(_plain_types(g, tuple(sorted(c))) is not None for c in nx.find_cliques(h))
    factors = _plain_components(S, finite)
    factor_types = [_plain_types(g, f) for f in factors]
    free = all(types is not None for types in factor_types)
    large = all(g.label(s, t) != 2 for s, t in combinations(S, 2))
    two_dim = all(
        sum(
            Fraction(0) if g.label(a, b) == INFINITY else Fraction(1, g.label(a, b))
            for a, b in combinations(triple, 2)
        )
        <= 1
        for triple in combinations(S, 3)
    )
    martin = two_dim and all(
        sum(1 for w in S if w != v and g.label(v, w) == 2) <= 1 for v in S
    )
    affine = _plain_affine(g)
    if spherical:
        applicability, why = "FullStability", "the whole group is of spherical type"
    elif free:
        applicability, why = (
            "FullStability",
            "the group is a free product of spherical-type factors",
        )
    elif martin:
        applicability, why = (
            "FullStability",
            "two-dimensional with every vertex commuting with at most one "
            "other (commuting read as m = 2)",
        )
    elif affine is not None:
        applicability, why = "FullStability", f"Euclidean group of type {affine}"
    elif fc_type:
        applicability, why = (
            "QuasiStability",
            "FC-type group: verdicts carry quasi-stability semantics",
        )
    else:
        applicability, why = "Unknown", "hypotheses unknown for this family"
    return {
        "spherical": spherical,
        "fc_type": fc_type,
        "free_product_of_spherical": free,
        "free_factors": (
            [{"generators": list(f), "types": t} for f, t in zip(factors, factor_types)]
            if free
            else None
        ),
        "large": large,
        "two_dimensional": two_dim,
        "martin_2dim_condition": martin,
        "affine_family": affine,
        "applicability": applicability,
        "justification": why,
    }


def _structured_graphs():
    """Cycles and paths near the affine and two-dimensional boundaries."""
    for n in range(3, 11):
        names = [f"v{i}" for i in range(n)]
        path = [(names[i], names[i + 1], 3) for i in range(n - 1)]
        yield build_graph(names, *path, (names[-1], names[0], 3))  # A~
        yield build_graph(names, *path, (names[-1], names[0], 4))
        ends = [(names[0], names[1], 4), *path[1:-1], (names[-2], names[-1], 4)]
        yield build_graph(names, *ends)  # C~ (B2 + B2 at n = 3)
        yield build_graph(names, *ends[:-1], (names[-2], names[-1], INFINITY))
        yield build_graph(names, *path)  # A_n


def test_classification_matches_plain_definitions():
    rng = random.Random(20261018)
    labels = (3, 4, 5, 6, 7, INFINITY)
    graphs = list(_structured_graphs())
    for _ in range(300):
        n = rng.randint(3, 10)
        names = [f"s{i}" for i in range(n)]
        commuting = rng.uniform(0.2, 0.95)  # per graph, so each flag takes both values
        rels = [
            (a, b, rng.choice(labels))
            for a, b in combinations(names, 2)
            if rng.random() >= commuting
        ]
        graphs.append(build_graph(names, *rels))
    seen = {}
    for g in graphs:
        got = classify_group(g).to_json_dict()
        assert got == _plain_classification(g), g
        for key in ("spherical", "fc_type", "free_product_of_spherical", "large",
                    "two_dimensional", "martin_2dim_condition"):
            seen.setdefault(key, set()).add(got[key])
        seen.setdefault("applicability", set()).add(got["applicability"])
        seen.setdefault("affine", set()).add(got["affine_family"] is not None)
    assert all(values == {True, False} for key, values in seen.items() if key != "applicability")
    assert seen["applicability"] == {"FullStability", "QuasiStability", "Unknown"}


@pytest.mark.parametrize(
    "labels, expected",
    [((2, 3, 6), True), ((2, 4, 4), True), ((3, 3, 3), True), ((2, 3, 5), False), ((2, 2, 7), False)],
)
def test_two_dimensional_boundary_triples(labels, expected):
    ab, bc, ac = labels
    g = build_graph("abc", ("a", "b", ab), ("b", "c", bc), ("a", "c", ac))
    assert classify_group(g).two_dimensional is expected
    assert _plain_classification(g)["two_dimensional"] is expected
