"""Work pins: counts of the work a decision does, which hold on any host.

A direct or free product is decided factor by factor, so it builds as many
tuple closures (``stability._closure``) as its factors decided alone, not
the closures of every subset of X, which multiply over the factors: A8 x A8
with |X| = 14 would build 16,383 of them, 2^14 - 1.

A vertex with an infinite label to a union can never twist it, so the
twist steps (``twist.steps``) do not flood from it, and a free product
floods about as often as a direct product.

The permutation phase searches under all twists (a tuple closure with a
stop) only for the subsets X1 whose internal closure misses a candidate,
and stops at the first subset whose search finds a tuple inside X.
"""

from __future__ import annotations

from artinstab import INFINITY, CoxeterGraph, decide_stability, standard_graph
from artinstab import stability


def product(shapes, cross) -> CoxeterGraph:
    """The catalog graphs of shapes on names prefixed a, b, c, ..., every
    label between two of them being cross (2 or infinity)."""
    gens, rels = [], []
    for prefix, shape in zip("abcd", shapes):
        g = standard_graph(*shape)
        gens += [prefix + v for v in g.generators]
        rels += [(prefix + s, prefix + t, m) for (s, t), m in g.labels.items()]
    if cross == INFINITY:
        rels += [(s, t, INFINITY) for s in gens for t in gens if s < t and s[0] != t[0]]
    return CoxeterGraph.build(gens, rels)


def closures(monkeypatch, g, X) -> int:
    """The tuple closures ``decide_stability(g, X)`` builds; X is stable."""
    built = []

    def spy(*args, **kwargs):
        built.append(1)
        return closure(*args, **kwargs)

    closure = stability._closure
    with monkeypatch.context() as patch:
        patch.setattr(stability, "_closure", spy)
        assert decide_stability(g, X) is None, (g, X)
    return len(built)


def test_a_product_builds_the_closures_of_its_factors_decided_alone(monkeypatch):
    # X is every generator but the last of each A8, and all of each A4
    a8 = closures(monkeypatch, standard_graph("A", 8), [f"s{i}" for i in range(1, 8)])
    a4 = closures(monkeypatch, standard_graph("A", 4), ["s1", "s2", "s3", "s4"])
    assert (a8, a4) == (127, 15)
    for cross in (2, INFINITY):
        g = product([("A", 8)] * 2, cross)
        X = [v for v in g.generators if v[1:] != "s8"]
        assert len(X) == 14 and closures(monkeypatch, g, X) == 2 * a8, cross
    g = product([("A", 4)] * 4, 2)
    assert closures(monkeypatch, g, g.generators) == 4 * a4


def searches(monkeypatch, g, X) -> tuple[int, str | None]:
    """The searches under all twists ``decide_stability(g, X)`` runs, and
    the kind of its witness, None when X is stable."""
    run = []

    def spy(moves, start, which, stop=None):
        run.append(stop is not None)
        return closure(moves, start, which, stop)

    closure = stability._closure
    with monkeypatch.context() as patch:
        patch.setattr(stability, "_closure", spy)
        w = decide_stability(g, X)
    return sum(run), None if w is None else w.kind


def test_the_permutation_phase_searches_only_subsets_the_guard_does_not_pass(monkeypatch):
    # X is every generator but one of a spherical graph
    for shape, left_out, pin in [
        (("A", 8), "s8", (0, None)),
        (("B", 7), "s7", (35, None)),
        (("D", 8), "s8", (69, None)),
        (("F", 4), "s1", (4, None)),
        (("H", 4), "s4", (1, "permutation")),
    ]:
        g = standard_graph(*shape)
        X = [v for v in g.generators if v != left_out]
        assert searches(monkeypatch, g, X) == pin, shape


def floods(monkeypatch, g, X) -> int:
    """The ``CoxeterGraph.flood`` calls ``decide_stability(g, X)`` makes;
    X is stable."""
    calls = []

    def spy(self, *args):
        calls.append(1)
        return flood(self, *args)

    flood = CoxeterGraph.flood
    with monkeypatch.context() as patch:
        patch.setattr(CoxeterGraph, "flood", spy)
        assert decide_stability(g, X) is None, (g, X)
    return len(calls)


def test_a_free_product_floods_about_as_often_as_a_direct_product(monkeypatch):
    """A8 x A8 and A8 * A8, X every generator but the last of each A8.

    A vertex of one factor is joined to the other factor by a label 2 in
    the direct product and by infinite labels in the free one.  In the
    free product it is adjacent to every component of each union the
    other factor's walk meets, so it lies on the border of two or more;
    ``twist.steps`` skips it there without a flood, as it has an infinite
    label to the union.  So both decisions flood for their own factors'
    steps and subsets alone, and differ only by the three more floods
    that split the free product into its factors (7 against 4): 676 and
    679.  Without the skip, and with the components of each union flooded
    through ``flood`` as well, they were 1,188 and 2,775."""
    pins = {}
    for cross in (2, INFINITY):
        g = product([("A", 8)] * 2, cross)
        pins[cross] = floods(monkeypatch, g, [v for v in g.generators if v[1:] != "s8"])
    assert pins == {2: 676, INFINITY: 679}
