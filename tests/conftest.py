from __future__ import annotations

import json
import random

from artinstab import (
    INFINITY,
    CoxeterGraph,
    components,
    delta_automorphism,
    recognize_component,
    to_json_dict,
)

LABEL_CHOICES = (2, 3, 4, 5, INFINITY)

# catalog shapes of up to 6 vertices, as ``standard_graph`` arguments: every
# family, odd and even D, and an odd and an even dihedral label
SHAPES = (
    [("A", n) for n in range(2, 7)]
    + [("B", n) for n in range(2, 6)]
    + [("D", n) for n in range(4, 7)]
    + [("E", 6), ("F", 4), ("H", 3), ("I2", 0, 6), ("I2", 0, 7)]
)

# weighted toward commuting pairs and simply laced edges so that random
# graphs frequently contain twistable components and nontrivial orbits
LABEL_WEIGHTS = (2, 2, 2, 3, 3, 3, 3, 4, 5, INFINITY)


def build_graph(names: str | list[str], *relations) -> CoxeterGraph:
    """Small helper: build_graph("abc", ("a","b",3), ...)."""
    return CoxeterGraph.build(list(names), list(relations))


def graph_text(g: CoxeterGraph) -> str:
    """The graph in the input file format, as ``validate --format json``
    prints it."""
    return json.dumps(to_json_dict(g), indent=2, ensure_ascii=False)


def delta_map(g: CoxeterGraph, V) -> dict[str, str]:
    """The componentwise delta involution on a spherical subset V."""
    out: dict[str, str] = {}
    for comp in components(g, V):
        out.update(delta_automorphism(recognize_component(g, comp)))
    return out


def random_graph(
    rng: random.Random, max_vertices: int = 6, min_vertices: int = 1,
    labels: tuple = LABEL_WEIGHTS,
) -> CoxeterGraph:
    """A random graph on min_vertices to max_vertices (at most 10) vertices
    a, b, c, ..., each pair's label drawn from labels."""
    n = rng.randint(min_vertices, max_vertices)
    names = list("abcdefghij"[:n])
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            m = rng.choice(labels)
            if m != 2:
                rels.append((names[i], names[j], m))
    return CoxeterGraph.build(names, rels)


def random_subset(rng: random.Random, g: CoxeterGraph, nonempty: bool = True):
    gens = list(g.generators)
    k = rng.randint(1 if nonempty else 0, len(gens))
    return tuple(sorted(rng.sample(gens, k)))


def rename_graph(g: CoxeterGraph, mapping: dict[str, str]) -> CoxeterGraph:
    rels = []
    for (s, t), m in g.labels.items():
        if m != 2:
            rels.append((mapping[s], mapping[t], m))
    return CoxeterGraph.build([mapping[v] for v in g.generators], rels)


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


def trees(seed: int, count: int) -> list[CoxeterGraph]:
    rng = random.Random(seed)
    return [random_tree(rng) for _ in range(count)]
