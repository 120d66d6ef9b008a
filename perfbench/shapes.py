"""Abstract Coxeter graphs for the benchmark, built without the library.

A shape is a graph on vertices 0..n-1 given by its non-commuting edges.
The benchmark renames the vertices with seeded generator names before
handing a graph to the library, so the canonical (lexicographic) order the
library derives from names differs from the construction order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

INF = "inf"


@dataclass(frozen=True)
class Shape:
    """A graph on vertices 0..n-1; unlisted pairs commute (m = 2).

    ``line`` lists the vertices of a chain (or, when ``cyclic``, a cycle)
    inside which rearranging the runs of a subset is a conjugation, so the
    subsets reachable from X along it are known without the library.
    """

    name: str
    kind: str
    n: int
    edges: tuple[tuple[int, int, object], ...]
    line: tuple[int, ...] = ()
    cyclic: bool = False

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.n)}
        for i, j, _ in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


def chain(n: int) -> Shape:
    return Shape(f"A{n}", "A", n, tuple((i, i + 1, 3) for i in range(n - 1)), tuple(range(n)))


def type_b(n: int) -> Shape:
    edges = ((0, 1, 4),) + tuple((i, i + 1, 3) for i in range(1, n - 1))
    return Shape(f"B{n}", "B", n, edges)


def type_d(n: int) -> Shape:
    """D_n with prongs 0 and 1 on the branch vertex 2 and the tail 2..n-1."""
    edges = ((0, 2, 3), (1, 2, 3)) + tuple((i, i + 1, 3) for i in range(2, n - 1))
    return Shape(f"D{n}", "D", n, edges, tuple(range(2, n)))


def type_e(n: int) -> Shape:
    edges = ((0, 3, 3),) + tuple((i, i + 1, 3) for i in range(1, n - 1))
    return Shape(f"E{n}", "E", n, edges)


def cycle(n: int) -> Shape:
    """The affine diagram A~(n-1): n vertices on a cycle of label-3 edges."""
    edges = tuple((i, (i + 1) % n, 3) for i in range(n))
    return Shape(f"At{n}", "At", n, edges, tuple(range(n)), cyclic=True)


def affine_c(n: int) -> Shape:
    """The affine diagram C~(n-1): a path of n vertices with label 4 at both ends."""
    edges = tuple((i, i + 1, 4 if i in (0, n - 2) else 3) for i in range(n - 1))
    return Shape(f"Ct{n}", "Ct", n, edges)


def fc_chain(n: int) -> Shape:
    """A chain closed by one infinite label: FC type, outside the families
    with full hypotheses, so stability carries quasi-stability semantics."""
    edges = tuple((i, i + 1, 3) for i in range(n - 1)) + ((0, n - 1, INF),)
    return Shape(f"Fc{n}", "Fc", n, edges)


def random_non_fc(n: int, rng: random.Random) -> Shape:
    """A random graph whose family is Unknown: the label-3 triangle on 0, 1, 2
    is a non-spherical clique of finite labels, and the commuting triple
    3, 4, 5 keeps it from being two-dimensional."""
    edges = [(0, 1, 3), (1, 2, 3), (0, 2, 3)]
    for i in range(n):
        for j in range(i + 1, n):
            if j <= 2 or (i >= 3 and j <= 5):
                continue
            r = rng.random()
            if r < 0.12:
                edges.append((i, j, 3))
            elif r < 0.16:
                edges.append((i, j, 4))
            elif r < 0.26:
                edges.append((i, j, INF))
    return Shape(f"Rn{n}", "Rn", n, tuple(edges))


def union(*parts: Shape) -> Shape:
    edges: list[tuple[int, int, object]] = []
    offset = 0
    for p in parts:
        edges += [(i + offset, j + offset, m) for i, j, m in p.edges]
        offset += p.n
    return Shape("+".join(p.name for p in parts), "union", offset, tuple(edges))


def type_f4() -> Shape:
    return Shape("F4", "F", 4, ((0, 1, 3), (1, 2, 4), (2, 3, 3)))


def type_h4() -> Shape:
    return Shape("H4", "H", 4, ((0, 1, 5), (1, 2, 3), (2, 3, 3)))


def generator_names(n: int, rng: random.Random) -> list[str]:
    """n distinct seeded names; their sorted order is unrelated to vertex order."""
    names: set[str] = set()
    while len(names) < n:
        names.add(rng.choice("abcdefghkmpqrtuvwxyz") + str(rng.randint(0, 99)))
    out = sorted(names)
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class Named:
    """A shape with generator names; ``names[v]`` names vertex v."""

    shape: Shape
    names: tuple[str, ...]

    def relations(self) -> list[tuple[str, str, object]]:
        return [
            (self.names[i], self.names[j], float("inf") if m == INF else m)
            for i, j, m in self.shape.edges
        ]

    def file_text(self, rng: random.Random) -> str:
        """The graph in the documented file format, generators in seeded order."""
        gens = list(self.names)
        rng.shuffle(gens)
        rels = [[self.names[i], self.names[j], m] for i, j, m in self.shape.edges]
        rng.shuffle(rels)
        return json.dumps({"generators": gens, "relations": rels})

    def subset(self, vertices) -> tuple[str, ...]:
        return tuple(sorted(self.names[v] for v in vertices))

    def vertices(self, names) -> list[int]:
        index = {name: v for v, name in enumerate(self.names)}
        return [index[name] for name in names]
