"""The D_2k tail and D_4 leaf scans of the stability decision, and the
whole decision, against the name-tuple reference of ``tests/reference.py``.

The graphs are seeded random trees of 7-10 vertices, most edges labelled 3
and a few 4 or infinity, grown so that branch vertices of degree 3 are
common: their subsets have many D_4, D_2k and odd-D components.  Every
(X, Y, D component) site is checked with the public
``check_d2k_exception``/``check_d4_exception``, and on the trees of at
most 8 vertices every X gets its ``decide_stability`` verdict and witness
JSON compared with the reference decision.  So does every X of the 150
small random graphs of ``test_step_table.reference_cases``, not only
trees: their labels 4, 5 and infinity and their cycles reach other types.
The decision looks for D sites only when a vertex of X has 3 neighbours in
X; that no D component is missed that way is checked on catalog graphs,
random graphs and the trees.
"""

from __future__ import annotations

import random
from itertools import islice

from artinstab import check_d2k_exception, check_d4_exception, decide_stability, standard_graph

from conftest import LABEL_WEIGHTS, SHAPES, random_graph, trees
from reference import Reference, is_d2k, site, subsets_descending
from test_step_table import reference_cases

TREES = trees(0xD5CA, 8)


def test_trees_are_d_rich():
    assert sorted(len(g.generators) for g in TREES) == [7, 7, 8, 8, 9, 9, 10, 10]
    kinds = set()
    for g in TREES:
        ref = Reference(g)
        for Y in subsets_descending(g.generators):
            kinds.update(str(tc.type) for tc in ref.typed_components(Y) if tc)
    assert {"D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"} <= kinds


def test_d_site_checks_equal_name_tuple_reference():
    counts = {"d2k": [0, 0], "d4": [0, 0]}  # [sites, obstructions]
    for g in TREES:
        ref = Reference(g)
        for X in subsets_descending(g.generators):
            for Y, tc in ref.d_sites(X):
                key, check = ("d2k", check_d2k_exception) if is_d2k(tc) else ("d4", check_d4_exception)
                want = site(g, X, Y, tc) is not None
                assert check(g, X, Y, tc) == want, (g, X, Y, tc)
                counts[key][0] += 1
                counts[key][1] += want
    assert counts["d2k"][0] > 200 and counts["d4"][0] > 1000, counts
    assert counts["d2k"][1] > 25 and counts["d4"][1] > 500, counts


def test_decisions_equal_name_tuple_reference_for_every_x():
    # the trees of at most 8 vertices: the 10-vertex trees would take
    # seconds with the name-tuple closures
    kinds: dict[str, int] = {}
    for g in TREES:
        if len(g.generators) > 8:
            continue
        ref = Reference(g)
        for X in subsets_descending(g.generators):
            witness = decide_stability(g, X)
            got = None if witness is None else witness.to_json_dict()
            assert got == ref.decision(X), (g, X)
            kind = "stable" if got is None else got["kind"]
            kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"stable", "permutation", "d2k_exception", "d4_exception"}, kinds


def test_decisions_equal_name_tuple_reference_on_small_random_graphs():
    kinds: dict[str, int] = {}
    for g, _ in islice(reference_cases(), 150):
        ref = Reference(g)
        for X in subsets_descending(g.generators):
            witness = decide_stability(g, X)
            got = None if witness is None else witness.to_json_dict()
            assert got == ref.decision(X), (g, X)
            kind = "stable" if got is None else got["kind"]
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("permutation", 0) > 100 and kinds.get("stable", 0) > 1000, kinds


def test_no_subset_has_a_d_component_unless_a_vertex_has_3_neighbours_in_x():
    # the D components of subsets of X are the connected subsets C of X that
    # are typed D (C is its own only component), so every X that misses a
    # vertex with 3 neighbours in X must contain none of them
    rng = random.Random(0xB4A3)
    graphs = [standard_graph(*shape) for shape in SHAPES]
    graphs += [random_graph(rng, 7, 4, labels=LABEL_WEIGHTS + (6, 7)) for _ in range(80)]
    graphs += TREES
    unbranched = with_d = 0
    for g in graphs:
        n = len(g.generators)
        d_masks = {
            C
            for T in range(1, 1 << n)
            for C in g.components(T)
            if (tc := g.typed(C)) is not None and tc.type.family == "D"
        }
        for X in range(1, 1 << n):
            if any((g.nbrs[i] & X).bit_count() >= 3 for i in range(n) if X >> i & 1):
                with_d += any(C & X == C for C in d_masks)
                continue
            unbranched += 1
            assert not [g.names(C) for C in d_masks if C & X == C], (g, g.names(X))
    assert unbranched > 6000 and with_d > 300, (unbranched, with_d)
