"""The D_2k tail and D_4 leaf scans of the stability decision, against a
reference written here on name tuples from the public ``components``,
``adjacent`` and ``recognize_component``.

The graphs are seeded random trees of 7-10 vertices, most edges labelled 3
and a few 4 or infinity, grown so that branch vertices of degree 3 are
common: their subsets have many D_4, D_2k and odd-D components.  Every
(X, Y, D component) site is checked with the public
``check_d2k_exception``/``check_d4_exception``, and on the trees of at
most 8 vertices every X gets its ``decide_stability`` verdict and witness
JSON compared with the reference decision.  So does every X of the 150
small random graphs of ``test_step_table.reference_cases``, not only
trees: their labels 4, 5 and infinity and their cycles reach other types.
"""

from __future__ import annotations

import random
from itertools import combinations, islice

from artinstab import (
    INFINITY,
    CoxeterGraph,
    adjacent,
    check_d2k_exception,
    check_d4_exception,
    components,
    decide_stability,
    recognize_component,
    tuple_orbit,
)

from test_step_table import reference_cases


def random_tree(rng: random.Random) -> CoxeterGraph:
    """A tree on 7-10 vertices named s1..sn in a shuffled order; a new
    vertex extends the last one or, one time in three, branches off a
    vertex of degree 2."""
    n = rng.randint(7, 10)
    names = [f"s{i + 1}" for i in range(n)]
    rng.shuffle(names)
    degree = [0] * n
    rels = []
    for i in range(1, n):
        inner = [j for j in range(i) if degree[j] == 2]
        j = rng.choice(inner) if inner and rng.random() < 1 / 3 else i - 1
        degree[i] += 1
        degree[j] += 1
        m = rng.choices((3, 4, INFINITY), weights=(16, 2, 1))[0]
        rels.append((names[i], names[j], m))
    return CoxeterGraph.build(names, rels)


def is_d2k(tc) -> bool:
    return tc is not None and tc.type.family == "D" and tc.type.rank >= 6 and tc.type.rank % 2 == 0


def is_d4(tc) -> bool:
    return tc is not None and tc.type.family == "D" and tc.type.rank == 4


def odd_extension(g, X, Y, end, outside):
    """The first vertex t adjacent to end, outside X (or else in X but not
    in Y), with the component of Y + t containing end of odd type D."""
    for t in adjacent(g, (end,)):
        if (t not in X) if outside else (t in X and t not in Y):
            comp = next(c for c in components(g, Y + (t,)) if end in c)
            tc = recognize_component(g, comp)
            if tc is not None and tc.type.family == "D" and tc.type.rank % 2 == 1:
                return t
    return None


def site(g, X, Y, tc):
    """(leaf, outside vertex) of the obstruction at a D component of Y, the
    leaf None for D_2k; None without an obstruction."""
    p = tc.positions
    if is_d2k(tc):
        attach = odd_extension(g, X, Y, p[-1], True)
        if attach is None or odd_extension(g, X, Y, p[-1], False) is not None:
            return None
        return None, attach
    leaves = (p[0], p[1], p[3])
    for leaf in leaves:
        attach = odd_extension(g, X, Y, leaf, True)
        if attach is None or odd_extension(g, X, Y, leaf, False) is not None:
            continue
        if all(odd_extension(g, X, Y, o, False) is not None for o in leaves if o != leaf):
            continue
        return leaf, attach
    return None


def subsets_descending(X):
    for size in range(len(X), 0, -1):
        yield from combinations(X, size)


class Reference:
    """The decision on name tuples for one graph.  What does not depend on
    X is kept: the recognized components of each subset and the closure of
    each subset under all twists."""

    def __init__(self, g: CoxeterGraph):
        self.g = g
        self.typed: dict = {}
        self.external: dict = {}

    def typed_components(self, Y):
        if Y not in self.typed:
            self.typed[Y] = [recognize_component(self.g, c) for c in components(self.g, Y)]
        return self.typed[Y]

    def d_sites(self, X):
        """(Y, D_2k or D_4 component) for every subset Y of X, largest first."""
        for Y in subsets_descending(X):
            for tc in self.typed_components(Y):
                if is_d2k(tc) or is_d4(tc):
                    yield Y, tc

    def decision(self, X) -> dict | None:
        """The witness JSON of the decision on X, None when stable: the D_2k
        scan, the D_4 scan, then the closures of public ``tuple_orbit``."""
        g = self.g
        for kind, applies in (("d2k_exception", is_d2k), ("d4_exception", is_d4)):
            for Y, tc in self.d_sites(X):
                found = site(g, X, Y, tc) if applies(tc) else None
                if found is not None:
                    out = {"kind": kind, "subset": list(Y), "component": list(tc.positions)}
                    if found[0] is not None:
                        out["leaf"] = found[0]
                    out["attach"] = found[1]
                    return out
        for X1 in subsets_descending(X):
            if X1 not in self.external:
                self.external[X1] = tuple_orbit(g, X1)
            internal = tuple_orbit(g, X1, lambda v: v in X)
            for T, word in self.external[X1].items():
                if T not in internal and all(set(part) <= set(X) for part in T):
                    return {
                        "kind": "permutation",
                        "subset": list(X1),
                        "tuple": [list(part) for part in T],
                        "word": word.to_json_list(),
                    }
        return None


def trees(seed: int, count: int) -> list[CoxeterGraph]:
    rng = random.Random(seed)
    return [random_tree(rng) for _ in range(count)]


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
    # the trees of at most 8 vertices: a 10-vertex tree alone takes about
    # 5 s with the name-tuple closures
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
