"""What a graph keeps between calls: ``CoxeterGraph.types``, the memo of
recognized components, filled by queries and kept with the graph object.
A graph that has already served other queries, in another order, must
answer every query as a fresh graph does, and still compare, print, pickle
and copy as a fresh graph; a clone starts with an empty memo."""

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
            assert clone.types == {}  # the memo is not carried along
            assert clone == warm and repr(clone) == repr(warm)
            for name, call in calls:
                assert call(clone) == fresh[name], (g, name)
    assert compared > 2000, compared


def test_threads_sharing_a_fresh_graph_answer_as_one_thread_does():
    rng = random.Random(0x7EAD)
    for g in (standard_graph("E", 8), affine_a(7)):
        calls = queries(g, rng)
        expected = {name: call(rebuilt(g)) for name, call in calls}
        shared = rebuilt(g)  # its memo is filled by the threads
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


def test_queries_fill_the_memo_and_the_graph_keeps_it():
    g = standard_graph("D", 8)
    memo = g.types
    assert memo == {}
    classify_group(g)
    after_classify = dict(memo)
    assert after_classify
    orbit(g, ("s1", "s3"))
    decide_stability(g, ("s1", "s2", "s3", "s5"))
    assert g.types is memo and after_classify.items() < memo.items()
    fresh = rebuilt(g)
    for comp, typed in memo.items():  # each entry is what a fresh graph recognizes
        assert typed == recognize_component(fresh, g.names(comp)), g.names(comp)


def test_a_pickled_or_copied_graph_starts_with_an_empty_memo():
    g = standard_graph("E", 8)
    classify_group(g)
    decide_stability(g, ("s1", "s3", "s4", "s5"))
    assert g.types
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert clone.types == {} and clone.types is not g.types
        assert clone == g and repr(clone) == repr(g)
        masks = (clone.index, clone.nbrs, clone.three, clone.inf)
        assert masks == (g.index, g.nbrs, g.three, g.inf)
        assert classify_group(clone) == classify_group(g)
        assert clone.types.keys() <= g.types.keys()


def test_replaying_a_word_a_second_time_adds_no_memo_entry():
    X = ("s1", "s3", "s5")
    Y, word = orbit(standard_graph("A", 40), X).entries[-1]
    assert len(word) == 105
    g = standard_graph("A", 40)
    assert apply_word(g, X, word) == Y
    first = dict(g.types)
    assert first
    assert apply_word(g, X, word) == Y  # the same graph: its memo is kept
    assert g.types == first
