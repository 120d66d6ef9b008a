"""Work pins: counts of the work a decision does, which hold on any host.

A direct or free product is decided factor by factor, so it builds as many
tuple closures (``stability._closure``) as its factors decided alone, not
the closures of every subset of X, which multiply over the factors: A8 x A8
with |X| = 14 would build 16,383 of them, 2^14 - 1.
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
