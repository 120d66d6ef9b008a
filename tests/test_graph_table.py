"""The mask table a graph keeps: ``CoxeterGraph.table`` is built on first
use and kept with the graph object, with its memo of recognized
components.  A graph that has already served other queries, in another
order, must answer every query as a fresh graph does, and still compare,
print, pickle and copy as a fresh graph."""

import copy
import pickle
import random
import sys
import threading

from artinstab import (
    CoxeterGraph,
    apply_word,
    classify_group,
    components,
    conjugator,
    decide_stability,
    orbit,
    recognize_component,
    standard_graph,
)
from artinstab.graph import MaskTable

from conftest import build_graph, random_graph, random_subset


def affine_a(n: int) -> CoxeterGraph:
    """A~n: a cycle of n + 1 label-3 edges on s1..s(n+1)."""
    names = [f"s{i}" for i in range(1, n + 2)]
    return build_graph(names, *((names[i - 1], names[i], 3) for i in range(len(names))))


def rebuilt(g: CoxeterGraph) -> CoxeterGraph:
    """A new graph object equal to g, which has answered nothing yet."""
    return CoxeterGraph.build(g.generators, [(s, t, m) for (s, t), m in g.labels.items()])


def graphs() -> list[CoxeterGraph]:
    rng = random.Random(0x7AB1E)
    named = [
        standard_graph("A", 12),
        standard_graph("D", 8),
        standard_graph("E", 8),
        affine_a(7),
        standard_graph("B", 6),
    ]
    return named + [random_graph(rng, max_vertices=7, min_vertices=3) for _ in range(40)]


def queries(g: CoxeterGraph, rng: random.Random) -> list:
    """Seeded calls on g, each a (name, function of the graph) pair."""
    calls = [("classify_group", classify_group)]
    for _ in range(6):
        X, Y = random_subset(rng, g), random_subset(rng, g)
        small = X[:4]
        calls += [
            (f"orbit {X}", lambda h, X=X: orbit(h, X)),
            (f"conjugator {X} {Y}", lambda h, X=X, Y=Y: conjugator(h, X, Y)),
            (f"decide_stability {small}", lambda h, X=small: decide_stability(h, X)),
        ]
        calls += [
            (f"recognize_component {c}", lambda h, c=c: recognize_component(h, c))
            for c in components(g, X)
        ]
    return calls


def test_a_warm_graph_answers_as_a_fresh_one():
    rng = random.Random(0xC0FFEE)
    compared = 0
    for g in graphs():
        calls = queries(g, rng)
        # every call on a graph object of its own, which has answered nothing
        fresh = {name: call(rebuilt(g)) for name, call in calls}
        warm = rebuilt(g)
        for _ in range(2):  # each pass in another order than the last
            rng.shuffle(calls)
            for name, call in calls:
                assert call(warm) == fresh[name], (g, name)
                compared += 1
        assert warm == g and repr(warm) == repr(g)
        for clone in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
            assert "table" not in vars(clone)  # the memo is not carried along
            assert clone == warm and repr(clone) == repr(warm)
            for name, call in calls:
                assert call(clone) == fresh[name], (g, name)
    assert compared > 2000, compared


def test_threads_sharing_a_fresh_graph_answer_as_one_thread_does():
    rng = random.Random(0x7EAD)
    for g in (standard_graph("E", 8), affine_a(7)):
        calls = queries(g, rng)
        expected = {name: call(rebuilt(g)) for name, call in calls}
        shared = rebuilt(g)  # its table and memo are filled by the threads
        results, errors = [], []

        def work(seed):
            order = calls[:]
            random.Random(seed).shuffle(order)
            try:
                for name, call in order:
                    results.append((name, call(shared)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 6 * len(calls)
        for name, got in results:
            assert got == expected[name], (g, name)


def test_a_graph_builds_its_table_once_and_only_on_use():
    g = standard_graph("D", 8)
    assert "table" not in vars(g)
    table = g.table
    classify_group(g)
    orbit(g, ("s1", "s3"))
    assert g.table is table and table.types  # the memo is filled and kept


def test_replaying_a_word_builds_at_most_one_table(monkeypatch):
    X = ("s1", "s3", "s5")
    Y, word = orbit(standard_graph("A", 40), X).entries[-1]
    assert len(word) > 100
    built = []
    init = MaskTable.__init__

    def counting(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(MaskTable, "__init__", counting)
    g = standard_graph("A", 40)
    assert apply_word(g, X, word) == Y
    assert len(built) <= 1
    assert apply_word(g, X, word) == Y  # the same graph: its table is kept
    assert len(built) <= 1
