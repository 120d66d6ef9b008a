"""Verdicts checked against two facts about the group that the decision
never computes.

* Conjugacy stability is a property of the conjugacy class of P_X, so every
  member of ``orbit(g, X)`` gets the verdict of X.
* A label-preserving automorphism sigma of the graph is an automorphism of
  the group, so sigma(X) gets the verdict of X.
* A union of two graphs joined by label 2 is a direct product and one
  joined by infinity a free product; either way X is stable exactly when
  its part in each factor is.

The verdict is whether ``decide_stability`` finds a witness; the witnesses
themselves may differ.  The decision itself splits a product along its
factors, so on products the last test also compares its witness JSON with
``tests/reference.py``, whose decision walks every subset of X unsplit.
"""

import random
from itertools import combinations, permutations

from artinstab import INFINITY, CoxeterGraph, decide_stability, orbit, standard_graph

from conftest import SHAPES
from reference import Reference, subsets_descending

# every label the catalog knows, 6 (G_2) and the odd 7 included, which
# ``conftest.random_graph`` never draws; weighted toward 2 and 3 as there
LABELS = (2, 2, 2, 3, 3, 3, 3, 4, 5, 6, 7, INFINITY)


def random_graph(rng: random.Random, most: int = 6) -> CoxeterGraph:
    names = list("abcdef"[: rng.randint(3, most)])
    rels = [(s, t, rng.choice(LABELS)) for s, t in combinations(names, 2)]
    return CoxeterGraph.build(names, [(s, t, m) for s, t, m in rels if m != 2])


def verdicts(g: CoxeterGraph) -> dict[tuple[str, ...], bool]:
    """Whether each non-empty subset is stable, keyed by its sorted names."""
    return {
        X: decide_stability(g, X) is None
        for r in range(1, len(g.generators) + 1)
        for X in combinations(g.generators, r)
    }


def automorphisms(g: CoxeterGraph) -> list[dict[str, str]]:
    gens = g.generators
    out = []
    for image in permutations(gens):
        sigma = dict(zip(gens, image))
        if all(g.label(sigma[s], sigma[t]) == g.label(s, t) for s, t in combinations(gens, 2)):
            out.append(sigma)
    return out


def test_every_member_of_an_orbit_gets_the_verdict_of_the_start():
    rng = random.Random(0x0B17)
    graphs = [standard_graph(*shape) for shape in SHAPES]
    graphs += [random_graph(rng) for _ in range(60)]
    decided = moved = 0
    seen_labels = set()
    kinds = set()
    for g in graphs:
        seen_labels.update(g.labels.values())
        verdict = verdicts(g)
        decided += len(verdict)
        kinds.update(verdict.values())
        done = set()
        for X in verdict:
            if X in done:
                continue
            members = [Y for Y, _ in orbit(g, X)]
            done.update(members)
            moved += len(members) > 1
            mixed = {Y: verdict[Y] for Y in members if verdict[Y] != verdict[X]}
            assert not mixed, (g, X, verdict[X], mixed)
    assert seen_labels >= {3, 4, 5, 6, 7, INFINITY}
    assert kinds == {True, False} and moved > 150 and decided > 2000, (moved, decided)


def test_a_diagram_automorphism_keeps_the_verdict():
    checked = 0
    for shape in [("A", 5), ("D", 4), ("D", 5), ("E", 6), ("F", 4)]:
        g = standard_graph(*shape)
        sigmas = [s for s in automorphisms(g) if any(v != w for v, w in s.items())]
        assert sigmas, shape
        verdict = verdicts(g)
        for X, stable in verdict.items():
            for sigma in sigmas:
                image = tuple(sorted(sigma[v] for v in X))
                assert verdict[image] == stable, (shape, X, image)
                checked += 1
    assert checked > 200, checked


def joined(g: CoxeterGraph, h: CoxeterGraph, cross) -> CoxeterGraph:
    """g on names prefixed p and h on names prefixed q, every label between
    the two being cross (2 or infinity)."""
    rels = [("p" + s, "p" + t, m) for (s, t), m in g.labels.items()]
    rels += [("q" + s, "q" + t, m) for (s, t), m in h.labels.items()]
    if cross == INFINITY:
        rels += [("p" + s, "q" + t, INFINITY) for s in g.generators for t in h.generators]
    return CoxeterGraph.build(["p" + v for v in g.generators] + ["q" + v for v in h.generators], rels)


def test_a_direct_or_free_product_decides_factor_by_factor():
    rng = random.Random(0x9D17)
    pairs = [(standard_graph("A", 3), standard_graph("D", 5)),
             (standard_graph("A", 4), standard_graph("A", 3)),
             (standard_graph("B", 3), standard_graph("E", 6))]
    # factors of at most 4 vertices keep every union at 8 or fewer
    pairs += [(random_graph(rng, 4), random_graph(rng, 4)) for _ in range(12)]
    checked = 0
    kinds = set()
    for g, h in pairs:
        left, right = verdicts(g), verdicts(h)
        left[()] = right[()] = True  # the trivial subgroup is stable
        for cross in (2, INFINITY):
            union = joined(g, h, cross)
            for X, stable in verdicts(union).items():
                p = tuple(v[1:] for v in X if v[0] == "p")
                q = tuple(v[1:] for v in X if v[0] == "q")
                assert stable == (left[p] and right[q]), (g, h, cross, X)
                kinds.add((stable, p != () and q != ()))
                checked += 1
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert checked > 4000, checked


def test_a_product_reports_the_witness_of_the_walk_over_all_of_x():
    # the decision splits X along the graph's factors; the reference walks
    # every subset of X, so a product that fails must still get its witness
    pairs = [(standard_graph("A", 3), standard_graph("D", 5)),
             (standard_graph("A", 4), standard_graph("B", 3)),
             (standard_graph("D", 7), standard_graph("A", 1)),
             (standard_graph("A", 3), standard_graph("A", 3))]
    kinds = set()  # (cross, whether X meets both factors, verdict or witness kind)
    for g, h in pairs:
        for cross in (2, INFINITY):
            union = joined(g, h, cross)
            ref = Reference(union)
            for X in subsets_descending(union.generators):
                w = decide_stability(union, X)
                got = None if w is None else w.to_json_dict()
                assert got == ref.decision(X), (g, h, cross, X)
                both = {v[0] for v in X} == {"p", "q"}
                kinds.add((cross, both, "stable" if got is None else got["kind"]))
    assert {(cross, True, kind) for cross in (2, INFINITY)
            for kind in ("stable", "permutation", "d2k_exception", "d4_exception")} <= kinds
