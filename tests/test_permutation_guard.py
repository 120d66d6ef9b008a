"""The guard of the permutation phase: ``decide_stability`` skips the search
under all twists of a subset X1 when its internal closure I, under the
twists inside X, holds every candidate, every tuple of pairwise disjoint,
non-adjacent connected subsets of X with the part keys of X1's tuple,
position by position.

Twists carry a tuple onto one with the same part keys, so I holds only
candidates, and when it holds them all, the closure under all twists adds
no tuple inside X.  The decision counts the candidates from the part keys
of the subsets of X of X1's size.  Checked on every subset X1 of every
subset X of small catalog, random and product graphs, against a plain list
of the candidates, built part by part, and the closure under all twists,
run to the end.  When X meets several of the graph's direct and free
factors, the walks over its parts run before the walk over X, and stop
at the first part that fails."""

import random
from itertools import combinations

from artinstab import INFINITY, CoxeterGraph, decide_stability, standard_graph
from artinstab import stability
from artinstab.orbit import _part_key
from artinstab.stability import EVERYWHERE, INSIDE, Moves, _closure, _decide

from conftest import SHAPES, random_graph


def walk(bits: list[int]) -> list[int]:
    """The masks of the non-empty subsets of the given bits in the order
    of the decision's walk: largest first, in the order of
    ``combinations``."""
    return [sum(combo) for size in range(len(bits), 0, -1) for combo in combinations(bits, size)]


def candidates(g, connected: list[int], start: tuple[int, ...], used: int = 0) -> list[tuple]:
    """The tuples of pairwise disjoint, non-adjacent masks of connected,
    none meeting used, whose part keys are those of start, position by
    position."""
    if not start:
        return [()]
    key = _part_key(g, start[0])
    out = []
    for P in connected:
        if not P & used and _part_key(g, P) == key:
            near = P
            for i in range(len(g.generators)):
                if P >> i & 1:
                    near |= g.nbrs[i]
            out += [(P, *rest) for rest in candidates(g, connected, start[1:], used | near)]
    return out


def factors(g, M: int) -> list[int]:
    """The graph's factors within the mask M, in the order the decision
    splits them: each component of M that is one free factor, a component
    of the pairs with finite labels, and the factors within each free factor
    of the others."""
    out = []
    for D in plain_components(g, M, lambda m: m != 2):
        free = plain_components(g, D, lambda m: m != INFINITY)
        out += [D] if len(free) == 1 else [F for part in free for F in factors(g, part)]
    return out


def plain_components(g, M: int, joined) -> list[int]:
    """The components of M, ordered by their first generator, two
    generators being joined when joined holds for their label."""
    left = [v for v in g.generators if M >> g.index[v] & 1]
    out = []
    while left:
        comp, grow = {left[0]}, [left[0]]
        while grow:
            s = grow.pop()
            near = [t for t in left if t not in comp and joined(g.label(s, t))]
            comp.update(near)
            grow += near
        out.append(g.mask(comp))
        left = [v for v in left if v not in comp]
    return out


def check_guard(g, searched) -> tuple[int, int]:
    """(subsets X1 checked, subsets the guard lets pass) over every X;
    searched is filled with the mask of each X1 whose closure under all
    twists ``decide_stability`` searches.  The walk over X searches
    the subsets the guard does not pass, up to the first failing one; when
    X meets several of the graph's factors, the walk over each part runs
    first, up to the first part that fails, and then the walk over X."""
    checked = passed = 0
    walks = {}  # the mask of X -> the walk's searched subsets and witness
    for r in range(1, len(g.generators) + 1):
        for X in combinations(g.generators, r):
            inside = g.mask(X)
            bits = [1 << g.index[v] for v in X]
            connected = [U for U in walk(bits) if len(g.components(U)) == 1]
            moves = Moves(g, inside)
            expected = []  # the subsets the walk must search, in walk order
            failing = []  # the subsets the plain check fails, in walk order
            for X1 in walk(bits):
                start = g.components(X1)
                internal = _closure(moves, start, INSIDE)
                found = candidates(g, connected, start)
                assert internal.keys() <= set(found), (g, X, g.names(X1))
                external = _closure(moves, start, EVERYWHERE)
                grown = [T for T in external if T not in internal and not sum(T) & ~inside]
                checked += 1
                if grown:
                    failing.append(X1)
                if len(found) == len(internal):  # the guard lets X1 pass
                    passed += 1
                    assert grown == [], (g, X, g.names(X1), grown)
                else:
                    expected.append(X1)
            searched.clear()
            w = _decide(g, inside)
            if w is None:
                assert failing == [], (g, X)
            elif w.kind == "permutation":
                assert failing[0] == g.mask(w.subset), (g, X, w)
                expected = expected[: expected.index(failing[0]) + 1]
            else:  # a D witness, found before the permutation phase
                expected = []
            assert searched == expected, (g, X, w)
            walks[inside] = expected, w
            parts = [F & inside for F in factors(g, (1 << len(g.generators)) - 1) if F & inside]
            if len(parts) > 1:
                expected = []
                for P in parts:  # each a smaller X, walked before
                    expected += walks[P][0]
                    if walks[P][1] is not None:
                        expected += walks[inside][0]
                        break
                else:  # every part is stable, and so is X
                    assert w is None, (g, X, w)
            searched.clear()
            assert decide_stability(g, X) == w
            assert searched == expected, (g, X, w)
    return checked, passed


def spy_on_searches(monkeypatch) -> list[int]:
    """The union masks of the starts of the searches under all twists, the
    tuple closures with a stop, that ``decide_stability`` runs, in call
    order."""
    searched = []

    def spy(moves, start, which, stop=None):
        if stop is not None:
            searched.append(sum(start))
        return _closure(moves, start, which, stop)

    monkeypatch.setattr(stability, "_closure", spy)
    return searched


def test_the_guard_passes_only_subsets_with_nothing_to_find(monkeypatch):
    searched = spy_on_searches(monkeypatch)
    rng = random.Random(0x6A4D)
    graphs = [standard_graph(*shape) for shape in SHAPES]
    graphs += [random_graph(rng, max_vertices=6, min_vertices=3) for _ in range(60)]
    # A3 times A2, and their free product: {a, c} fails in A3
    for cross in ((), [(s, t, INFINITY) for s in "abc" for t in "de"]):
        graphs.append(CoxeterGraph.build("abcde", [("a", "b", 3), ("b", "c", 3), ("d", "e", 3),
                                                   *cross]))
    checked = passed = 0
    for g in graphs:
        c, p = check_guard(g, searched)
        checked += c
        passed += p
    # most subsets pass, and some do not
    assert checked > passed > checked // 2, (checked, passed)


def test_a_small_x_in_a_large_graph_searches_nothing_beyond_i(monkeypatch):
    # X of rank 6 to 8 in a graph of rank 40: each subset's I holds all its
    # candidates, so no subset searches under all twists, whose tuples for
    # {s1, s3, s5, s7} in A40 alone are about 1.6 million
    searched = spy_on_searches(monkeypatch)
    for family, first, last in (("A", 1, 7), ("A", 10, 17), ("D", 10, 15), ("B", 20, 26)):
        X = [f"s{i}" for i in range(first, last + 1)]
        assert decide_stability(standard_graph(family, 40), X) is None, (family, X)
        assert searched == [], (family, X)


def test_a_decision_adds_no_attribute_to_the_graph():
    # only memos of the graph alone outlive a decision, made with the graph;
    # the candidate counts depend on X and stay inside the call
    for shape, X in [(("A", 7), ["s1", "s3", "s5", "s7"]), (("D", 6), ["s1", "s2", "s3", "s4"]),
                     (("E", 6), ["s1", "s2", "s3", "s5", "s6"])]:
        g = standard_graph(*shape)
        before = set(vars(g))
        decide_stability(g, X)
        decide_stability(g, X[1:])
        assert set(vars(g)) == before, shape


def test_the_odd_singletons_of_a_2k_fail_at_x_itself(monkeypatch):
    # X, the k odd singletons of A_2k, is the first subset of the walk; it
    # has k! candidates, the orders of its parts, and its I is X's tuple
    # alone, so the search under all twists runs once; the twist at s10
    # swaps s9 and s11 for the witness
    searched = spy_on_searches(monkeypatch)
    for k in (10, 12):
        searched.clear()
        X = sorted(f"s{i}" for i in range(1, 2 * k, 2))
        g = standard_graph("A", 2 * k)
        w = decide_stability(g, X)
        assert searched == [g.mask(X)]
        assert w.to_json_dict() == {
            "kind": "permutation",
            "subset": X,
            "tuple": [[{"s9": "s11", "s11": "s9"}.get(v, v)] for v in X],
            "word": [{"delta_of": ["s10", "s11", "s9"], "sign": 1}],
        }
