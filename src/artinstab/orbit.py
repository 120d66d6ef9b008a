"""Breadth-first search over standard parabolic subgroups under twists.

Two standard parabolic subgroups are conjugate exactly when one lies in the
twist closure of the other; the search records, for every reachable subset,
a word of Garside factors witnessing the conjugation.  ``orbit`` and
``conjugator`` search over subsets written as int masks of the generator
order and convert to name tuples only for their results.  The same search
engine, ``bfs_closure``, also runs the component-tuple closures of the
stability decision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .graph import CoxeterGraph, VertexSet
from .twist import ConjugatorWord, TwistFactor, _garside_twist


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


def _mask_twists(g: CoxeterGraph) -> Callable[[int], Iterator[tuple[int, TwistFactor]]]:
    """The twist successors of subsets written as int masks, bit i standing
    for ``g.generators[i]``.  Adjacent generators are tried in increasing
    bit order, the order of ``adjacent``; the twist of each component of
    Y + t containing t is recognized once per call, keyed by (component, t)."""
    gens = g.generators
    index = {v: i for i, v in enumerate(gens)}
    nbrs = [0] * len(gens)
    for (s, t), m in g.labels.items():
        if m >= 3:
            nbrs[index[s]] |= 1 << index[t]
            nbrs[index[t]] |= 1 << index[s]
    memo: dict[tuple[int, int], tuple[int, TwistFactor] | None] = {}

    def successors(Y: int) -> Iterator[tuple[int, TwistFactor]]:
        near = 0
        for i in _bits(Y):
            near |= nbrs[i]
        for t in _bits(near & ~Y):
            comp = frontier = 1 << t
            while frontier:
                reach = 0
                for i in _bits(frontier):
                    reach |= nbrs[i]
                frontier = reach & Y & ~comp
                comp |= frontier
            key = (comp, t)
            if key not in memo:
                twist = _garside_twist(g, _names(gens, comp))
                if twist is None:
                    memo[key] = None
                else:
                    tau, factor = twist
                    memo[key] = comp & ~(1 << index[tau[gens[t]]]), factor
            step = memo[key]
            if step is not None:
                yield (Y & ~comp) | step[0], step[1]

    return successors


def _bits(mask: int) -> Iterator[int]:
    """The set bit positions of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _names(gens: VertexSet, mask: int) -> VertexSet:
    return tuple(gens[i] for i in _bits(mask))


def _mask(g: CoxeterGraph, names: VertexSet) -> int:
    return sum(1 << g.generators.index(v) for v in names)


def orbit(g: CoxeterGraph, X: Iterable[str]) -> OrbitTable:
    """The full twist closure of X, in canonical BFS order."""
    table, _ = bfs_closure(_mask(g, g.subset(X)), _mask_twists(g))
    gens = g.generators
    return OrbitTable(tuple((_names(gens, Y), word) for Y, word in table.items()))


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
    _, word = bfs_closure(_mask(g, Xs), _mask_twists(g), _mask(g, Xps))
    return word
