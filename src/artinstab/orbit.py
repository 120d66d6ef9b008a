"""Breadth-first search over standard parabolic subgroups under twists.

Two standard parabolic subgroups are conjugate exactly when one lies in the
twist closure of the other; the search records, for every reachable subset,
a word of Garside factors witnessing the conjugation.  The same search
engine, ``bfs_closure``, also runs the component-tuple closures of the
stability decision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .graph import CoxeterGraph, VertexSet, adjacent
from .twist import ConjugatorWord, TwistFactor, elementary_twist


@dataclass(frozen=True)
class OrbitTable:
    """Insertion-ordered map from reachable subsets to witness words.

    The first entry is always the start subset with the empty word, and
    applying any entry's word to the start subset yields the entry's key.
    Lookups go through the same map as a dict, built on first use.
    """

    entries: tuple[tuple[VertexSet, ConjugatorWord], ...]

    @cached_property
    def _index(self) -> dict[VertexSet, ConjugatorWord]:
        return dict(self.entries)

    def subsets(self) -> tuple[VertexSet, ...]:
        return tuple(key for key, _ in self.entries)

    def word_for(self, Y: VertexSet) -> ConjugatorWord | None:
        return self._index.get(Y)

    def __contains__(self, Y: VertexSet) -> bool:
        return Y in self._index

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[VertexSet, ConjugatorWord]]:
        return iter(self.entries)

    def to_json_list(self) -> list[dict]:
        return [
            {"subset": list(key), "word": word.to_json_list()}
            for key, word in self.entries
        ]


State = TypeVar("State", bound=Hashable)


def bfs_closure(
    start: State,
    successors: Callable[[State], Iterable[tuple[State, TwistFactor]]],
    target: State | None = None,
) -> tuple[dict[State, ConjugatorWord], ConjugatorWord | None]:
    """Breadth-first closure of start under successors, which yields
    (next state, factor) pairs.  The table maps each state, in discovery
    order, to the word of the first path found to it; the search stops as
    soon as target is discovered and then also returns its word."""
    table: dict[State, ConjugatorWord] = {start: ConjugatorWord()}
    queue: deque[State] = deque([start])
    while queue:
        Y = queue.popleft()
        for Z, factor in successors(Y):
            if Z in table:
                continue
            word = table[Y].extended(factor)
            table[Z] = word
            if target is not None and Z == target:
                return table, word
            queue.append(Z)
    return table, None


def _twists(g: CoxeterGraph, Y: VertexSet) -> Iterator[tuple[VertexSet, TwistFactor]]:
    for t in adjacent(g, Y):
        step = elementary_twist(g, Y, t)
        if step is not None:
            yield step


def orbit(g: CoxeterGraph, X: Iterable[str]) -> OrbitTable:
    """The full twist closure of X, in canonical BFS order."""
    table, _ = bfs_closure(g.subset(X), partial(_twists, g))
    return OrbitTable(tuple(table.items()))


def conjugator(
    g: CoxeterGraph, X: Iterable[str], Xp: Iterable[str]
) -> ConjugatorWord | None:
    """A word conjugating the set X to Xp, or None when the two standard
    parabolic subgroups are not conjugate.  Stops as soon as Xp is reached."""
    Xs = g.subset(X)
    Xps = g.subset(Xp)
    if len(Xs) != len(Xps):
        return None
    if Xs == Xps:
        return ConjugatorWord()
    _, word = bfs_closure(Xs, partial(_twists, g), Xps)
    return word
