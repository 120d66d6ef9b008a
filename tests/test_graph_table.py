"""What a graph keeps between calls: its memos, filled by queries and kept
with the graph object.  ``CoxeterGraph.types`` holds the recognized
components, ``twists`` the twist of each component and ``borders`` the
twist steps at each component's border.  A graph that has already served
other queries, in another order, must answer every query as a fresh graph
does, hold memo entries equal to those a fresh graph computes, and still
compare, print, pickle and copy as a fresh graph; a clone starts with
empty memos."""

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
from artinstab.twist import _alone, twist_of

from conftest import build_graph, random_graph, random_subset


def affine_a(n: int) -> CoxeterGraph:
    """A~n: a cycle of n + 1 label-3 edges on s1..s(n+1)."""
    names = [f"s{i}" for i in range(1, n + 2)]
    return build_graph(names, *((names[i - 1], names[i], 3) for i in range(len(names))))


def rebuilt(g: CoxeterGraph) -> CoxeterGraph:
    """A new graph object equal to g, which has answered nothing yet."""
    return CoxeterGraph.build(g.generators, [(s, t, m) for (s, t), m in g.labels.items()])


def same_images(warm, fresh) -> bool:
    """Whether two images maps of one twist agree on every mask the warm
    one has looked up; the fresh one computes them on lookup."""
    return all(fresh[mask] == image for mask, image in warm.items())


def assert_steps_as_fresh(g: CoxeterGraph) -> None:
    """Each entry of g's ``twists`` and ``borders`` equals the one that
    ``twist_of`` and ``_alone`` compute on a rebuilt graph."""
    fresh_g = rebuilt(g)
    for comp, twist in g.twists.items():
        fresh = twist_of(fresh_g, comp)
        assert (twist is None) == (fresh is None), (g, g.names(comp))
        if twist is not None:
            assert twist[1] == fresh[1] and same_images(twist[0], fresh[0]), (g, g.names(comp))
    for comp, (border, steps) in g.borders.items():
        fresh_border, fresh_steps = _alone(fresh_g, comp)
        assert border == fresh_border and len(steps) == len(fresh_steps), (g, g.names(comp))
        for (t, move, images, factor), fresh in zip(steps, fresh_steps):
            assert (t, move, factor) == (fresh[0], fresh[1], fresh[3]), (g, g.names(comp))
            assert same_images(images, fresh[2]), (g, g.names(comp))


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
        assert_steps_as_fresh(warm)
        for clone in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
            # the memos are not carried along
            assert clone.types == clone.twists == clone.borders == {}
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
        # orbit and conjugator filled the shared step memo, as one thread would
        assert shared.twists and shared.borders
        assert_steps_as_fresh(shared)
        # one twist object per component, shared by every border step, so
        # that a search skips the move back by identity
        for comp, (_, steps) in shared.borders.items():
            for t, _, images, factor in steps:
                twist = shared.twists[comp | t]
                assert images is twist[0] and factor is twist[1], (g, g.names(comp))


def test_queries_fill_the_memo_and_the_graph_keeps_it():
    g = standard_graph("D", 8)
    memo, twists, borders = g.types, g.twists, g.borders
    assert memo == twists == borders == {}
    classify_group(g)
    after_classify = dict(memo)
    assert after_classify and twists == borders == {}
    orbit(g, ("s1", "s3"))
    after_orbit = dict(twists), dict(borders)
    assert all(after_orbit)
    decide_stability(g, ("s1", "s2", "s3", "s5"))
    assert g.types is memo and after_classify.items() < memo.items()
    assert g.twists is twists and g.borders is borders
    assert after_orbit[0].keys() < twists.keys() and after_orbit[1].keys() < borders.keys()
    assert_steps_as_fresh(g)
    fresh = rebuilt(g)
    for comp, typed in memo.items():  # each entry is what a fresh graph recognizes
        assert typed == recognize_component(fresh, g.names(comp)), g.names(comp)


def test_a_pickled_or_copied_graph_starts_with_an_empty_memo():
    g = standard_graph("E", 8)
    classify_group(g)
    decide_stability(g, ("s1", "s3", "s4", "s5"))
    orbit(g, ("s1", "s3"))
    assert g.types and g.twists and g.borders
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert clone.types == {} and clone.types is not g.types
        assert clone.twists == {} and clone.twists is not g.twists
        assert clone.borders == {} and clone.borders is not g.borders
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
    first = dict(g.types), dict(g.twists)
    assert all(first)
    assert apply_word(g, X, word) == Y  # the same graph: its memos are kept
    assert (g.types, g.twists) == first
