"""The guard of the permutation phase: ``decide_stability`` skips the growth
beyond the internal closure I of a subset X1 when the candidate tuples,
tuples of connected subsets of X with the keys of X1's components,
pairwise disjoint and not adjacent, are no more than the tuples of I.

Twists carry a tuple onto one with the same part keys, so I holds only
candidates, and when the candidates are I, the closure under all twists
adds no tuple inside X.  ``_count`` counts the candidates up to a limit,
and the decision keeps one count per multiset of part keys.  All of it is
checked on every subset X1 of every subset X of small catalog and random
graphs, against a plain list of the candidates and a full ``_beyond``."""

import random
from itertools import combinations

from artinstab import decide_stability, standard_graph
from artinstab import stability
from artinstab.stability import (
    INSIDE,
    OUTSIDE,
    Moves,
    _beyond,
    _closure,
    _count,
    _part_table,
    _subsets_descending,
)

from conftest import SHAPES, random_graph


def candidates(options, near=0) -> list[tuple[int, ...]]:
    """The tuples whose part i is a mask of options[i], pairwise disjoint
    and not adjacent to near or to each other: the reference for
    ``_count``."""
    if not options:
        return [()]
    return [
        (P, *rest)
        for P, P_near in options[0]
        if not P & near
        for rest in candidates(options[1:], near | P_near)
    ]


def check_guard(g, rng, searched) -> tuple[int, int]:
    """(subsets X1 checked, subsets the guard lets pass) over every X;
    searched is filled with the start of each X1 whose internal closure
    ``decide_stability`` hands to ``_beyond``."""
    checked = passed = 0
    for r in range(1, len(g.generators) + 1):
        for X in combinations(g.generators, r):
            inside = g.mask(X)
            bits = [1 << g.index[v] for v in X]
            table = _part_table(g, inside)
            moves = Moves(g, inside)
            expected = []  # the starts the decision must search beyond, in walk order
            for X1 in _subsets_descending(bits):
                start = g.components(X1)
                internal = _closure(moves, start, INSIDE)
                options = [table[P] for P in start]
                n = len(found := candidates(options))
                assert internal.keys() <= set(found), (g, X, g.names(X1))
                for limit in range(n + 2):
                    assert _count(options, limit) == min(n, limit + 1), (g, X, X1, limit)
                assert _count(options[::-1], n) == _count(rng.sample(options, len(options)), n) == n
                checked += 1
                if n == len(internal):  # the guard lets X1 pass
                    passed += 1
                    grown = [T for T in _beyond(moves, internal) if not sum(T) & ~inside]
                    assert grown == [], (g, X, g.names(X1), grown)
                elif any(moves[sum(T)][OUTSIDE] for T in internal):
                    expected.append(start)
            searched.clear()
            w = decide_stability(g, X)
            if w is not None and w.kind == "permutation":
                expected = expected[: expected.index(g.components(g.mask(w.subset))) + 1]
            elif w is not None:  # a D witness, found before the permutation phase
                expected = []
            assert searched == expected, (g, X, w)
    return checked, passed


def test_the_guard_passes_only_subsets_with_nothing_to_find(monkeypatch):
    searched = []

    def spy(moves, internal, stop=None):
        searched.append(next(iter(internal)))
        return _beyond(moves, internal, stop)

    monkeypatch.setattr(stability, "_beyond", spy)
    rng = random.Random(0x6A4D)
    graphs = [standard_graph(*shape) for shape in SHAPES]
    graphs += [random_graph(rng, max_vertices=6, min_vertices=3) for _ in range(60)]
    checked = passed = 0
    for g in graphs:
        c, p = check_guard(g, rng, searched)
        checked += c
        passed += p
    # most subsets pass, and some do not
    assert checked > passed > checked // 2, (checked, passed)


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


def test_the_guard_stops_at_the_first_candidate_outside_i(monkeypatch):
    # X, the k odd singletons of A_2k, has k! candidates for X1 = X, and I
    # is X1's tuple alone; the second candidate lies outside I, and the
    # twist at s10 swaps s9 and s11 for the witness.  The options the
    # count reads are counted: about k * k / 2 before the first tuple
    steps = []

    class Counted(list):
        def __iter__(self):
            for option in super().__iter__():
                steps.append(option)
                yield option

    def counted_table(g, inside):
        shared = {}
        return {
            T: shared.setdefault(id(parts), Counted(parts))
            for T, parts in _part_table(g, inside).items()
        }

    monkeypatch.setattr(stability, "_part_table", counted_table)
    for k in (10, 12):
        steps.clear()
        X = sorted(f"s{i}" for i in range(1, 2 * k, 2))
        w = decide_stability(standard_graph("A", 2 * k), X)
        assert w.to_json_dict() == {
            "kind": "permutation",
            "subset": X,
            "tuple": [[{"s9": "s11", "s11": "s9"}.get(v, v)] for v in X],
            "word": [{"delta_of": ["s10", "s11", "s9"], "sign": 1}],
        }
        assert len(steps) <= k * k, (k, len(steps))
