"""The guard of the permutation phase: ``decide_stability`` skips the growth
beyond the internal closure I of a subset X1 when every candidate tuple,
a tuple of connected subsets of X with the keys of X1's components,
pairwise disjoint and not adjacent, already lies in I.

Twists carry a tuple onto one with the same part keys, so I holds only
candidates, and when the candidates are I, the closure under all twists
adds no tuple inside X.  Both are checked on every subset X1 of every
subset X of small catalog and random graphs, with a full ``_beyond``."""

import random
from itertools import combinations

from artinstab import decide_stability, standard_graph
from artinstab import stability
from artinstab.stability import (
    INSIDE,
    Moves,
    _beyond,
    _candidates,
    _closure,
    _part_table,
    _subsets_descending,
)

from conftest import SHAPES, random_graph


def check_guard(g) -> tuple[int, int]:
    """(subsets X1 checked, subsets the guard lets pass) over every X."""
    checked = passed = 0
    for r in range(1, len(g.generators) + 1):
        for X in combinations(g.generators, r):
            inside = g.mask(X)
            bits = [1 << g.index[v] for v in X]
            table = _part_table(g, inside)
            moves = Moves(g, inside)
            for X1 in _subsets_descending(bits):
                start = g.components(X1)
                internal = _closure(moves, start, INSIDE)
                candidates = set(_candidates(table, start))
                assert internal.keys() <= candidates, (g, X, g.names(X1))
                checked += 1
                if len(candidates) == len(internal):  # the guard lets X1 pass
                    passed += 1
                    grown = [T for T in _beyond(moves, internal) if not sum(T) & ~inside]
                    assert grown == [], (g, X, g.names(X1), grown)
    return checked, passed


def test_the_guard_passes_only_subsets_with_nothing_to_find():
    rng = random.Random(0x6A4D)
    graphs = [standard_graph(*shape) for shape in SHAPES]
    graphs += [random_graph(rng, max_vertices=6, min_vertices=3) for _ in range(60)]
    checked = passed = 0
    for g in graphs:
        c, p = check_guard(g)
        checked += c
        passed += p
    # most subsets pass, and some do not
    assert checked > passed > checked // 2, (checked, passed)


def test_the_guard_stops_at_the_first_candidate_outside_i(monkeypatch):
    # X, the k odd singletons of A_2k, has k! candidates for X1 = X, and I
    # is X1's tuple alone; the second candidate lies outside I, and the
    # twist at s10 swaps s9 and s11 for the witness.  The options the
    # candidates read are counted: about k * k / 2 before the first tuple
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
