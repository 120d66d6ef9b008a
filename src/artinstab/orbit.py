"""Breadth-first search over standard parabolic subgroups under twists.

Two standard parabolic subgroups are conjugate exactly when one lies in the
twist closure of the other; the search records, for every reachable subset,
a word of Garside factors witnessing the conjugation.  ``orbit`` and
``conjugator`` search over subsets written as int masks of the graph's
generator order and convert to name tuples only for their results; their
twist steps come from ``twist.steps``, which keeps them with the graph
once computed, and a successor is the subset XOR a step's move.  The same
search engine, ``bfs_closure``, also runs the component-tuple closures of
the stability decision.  The search keeps parent pointers; words are
built only for reported states, each from its parent's word by one O(1)
extension.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .classify import IrreducibleType
from .graph import CoxeterGraph, VertexSet
from .twist import ConjugatorWord, TwistFactor, steps


class OrbitTable:
    """Insertion-ordered map from reachable subsets to witness words.

    The first entry is always the start subset with the empty word, and
    applying any entry's word to the start subset yields the entry's key.
    Iterating yields the (subset, word) entries, so ``dict(table)`` maps
    each subset to its word; ``Y in table`` asks whether the subset Y is a
    key, as ``Y in dict(table)`` does.  Equality, hashing and ``repr`` go
    by ``entries``, which is never changed after construction.
    """

    def __init__(self, entries: tuple[tuple[VertexSet, ConjugatorWord], ...]):
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"OrbitTable(entries={self.entries!r})"

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, subset: object) -> bool:
        return any(subset == key for key, _ in self.entries)

    def __iter__(self) -> Iterator[tuple[VertexSet, ConjugatorWord]]:
        return iter(self.entries)

    def to_json_list(self) -> list[dict]:
        return [
            {"subset": list(key), "word": word.to_json_list()}
            for key, word in self.entries
        ]


State = TypeVar("State", bound=Hashable)

# For each state in discovery order: (parent state, factor) of the first
# path found to it, None for a start.
Parents = dict[State, tuple[State, TwistFactor] | None]


def bfs_closure(
    starts: Iterable[State],
    successors: Callable[[State, TwistFactor | None], Iterable[tuple[State, TwistFactor]]],
    stop: Callable[[State], bool] | None = None,
) -> Parents:
    """Breadth-first closure of the start states under successors, which
    yields (next state, factor) pairs, as parent pointers; every start has
    parent None and comes first, in the given order.  Successors also get
    the factor of the move that discovered the state, None for a start: a
    twist is an involution, so the move with that same factor leads back
    to the discoverer and may be left out.  The search stops at the first
    state, a start or not, for which stop holds: the last one in the
    result.  Words are built from the pointers only for the states a
    caller reports, by ``word_to`` or ``words``."""
    parents: Parents = {}
    for Z in starts:
        parents[Z] = None
        if stop is not None and stop(Z):
            return parents
    queue: deque[State] = deque(parents)
    while queue:
        Y = queue.popleft()
        step = parents[Y]
        for Z, factor in successors(Y, None if step is None else step[1]):
            if Z in parents:
                continue
            parents[Z] = Y, factor
            if stop is not None and stop(Z):
                return parents
            queue.append(Z)
    return parents


def word_to(parents: Parents, state: State) -> ConjugatorWord:
    """The word of the path the closure found to state."""
    factors = []
    step = parents[state]
    while step is not None:
        state, factor = step
        factors.append(factor)
        step = parents[state]
    return ConjugatorWord(tuple(reversed(factors)))


def words(parents: Parents) -> dict[State, ConjugatorWord]:
    """The word of every state of the closure, in discovery order."""
    out: dict[State, ConjugatorWord] = {}
    for Z, step in parents.items():
        out[Z] = ConjugatorWord() if step is None else out[step[0]].extended(step[1])
    return out


def _mask_twists(
    g: CoxeterGraph,
) -> Callable[[int, TwistFactor | None], list[tuple[int, TwistFactor]]]:
    """The elementary twist successors of subset masks: the component C of
    Y + t containing t is replaced by C minus the image of t, so t enters
    and its image leaves, Y ^ move.  A move of 0 (the image of t is t)
    leads back to Y, and the step whose factor is back, the twist of the
    same C, to where Y was found from: both are left out."""

    def successors(Y: int, back: TwistFactor | None) -> list[tuple[int, TwistFactor]]:
        return [
            (Y ^ move, factor)
            for _, move, _, factor in steps(g, Y)
            if move and factor is not back
        ]

    return successors


def orbit(g: CoxeterGraph, X: Iterable[str]) -> OrbitTable:
    """The full twist closure of X, in canonical BFS order."""
    found = words(bfs_closure([g.mask(g.subset(X))], _mask_twists(g)))
    return OrbitTable(tuple((g.names(Y), word) for Y, word in found.items()))


def _part_key(g: CoxeterGraph, c: int) -> IrreducibleType | int:
    """The type of the component mask c, or c itself when it is not
    spherical: every twist carries c onto a component with the same key.

    A twist conjugates the component C of Y + t by its Garside element,
    which acts on C as a diagram automorphism, and the other components of
    Y are not adjacent to C; so it carries the labelled graph on Y onto the
    one on its image, and conjugate standard parabolic subgroups have the
    same component types (for spherical type, L. Paris, J. Algebra 196,
    1997).  A non-spherical component lies in no twistable C: it never
    moves."""
    typed = g.typed(c)
    return c if typed is None else typed.type


def _twist_key(g: CoxeterGraph, X: int) -> Counter:
    """The multiset of the ``_part_key`` of each component of mask X;
    subsets of one twist orbit share it."""
    return Counter(_part_key(g, c) for c in g.components(X))


def conjugator(
    g: CoxeterGraph, X: Iterable[str], Xp: Iterable[str]
) -> ConjugatorWord | None:
    """A word conjugating the set X to Xp, or None when the two standard
    parabolic subgroups are not conjugate.  Sets whose ``_twist_key``
    differs are answered without a search; otherwise the search stops as
    soon as Xp is reached."""
    Xs = g.subset(X)
    Xps = g.subset(Xp)
    if Xs == Xps:
        return ConjugatorWord()
    start, target = g.mask(Xs), g.mask(Xps)
    if _twist_key(g, start) != _twist_key(g, target):
        return None
    parents = bfs_closure([start], _mask_twists(g), target.__eq__)
    return word_to(parents, target) if target in parents else None
