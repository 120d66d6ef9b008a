"""Set-level conjugation by Garside elements: twists and conjugator words.

Conjugating a standard parabolic subgroup by the Garside element of a
spherical subset permutes generators according to the diagram reflection of
each twistable component (and fixes everything else).  ``twist_of`` is the
one place that computes the twist of a component, written as an int mask
of the graph, and ``steps`` lists the elementary twist steps of a subset
mask.  Each component's twist and border steps are kept in the graph's
memos, so each is computed once per graph.  The twist at t adds t and removes its image,
so each step carries that pair of bits as its move, and the twisted subset
is the subset XOR the move.  Every search runs on these functions, and
``elementary_twist`` is a thin wrapper over ``step_at`` on name tuples.
Words of signed factors are kept symbolic, and a word extended by one
factor shares the word it extends; expanding a factor into generator
letters is delegated to the oracle module and is optional.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .classify import TypedComponent, _delta_images
from .graph import CoxeterGraph, VertexSet, _bits


class DeltaActionUndefined(ValueError):
    """A vertex outside the twisted subset is adjacent to it, so the
    conjugate is not a set of standard generators."""

    def __init__(self, vertex: str, subset: VertexSet, factor_index: int | None = None):
        self.vertex = vertex
        self.subset = subset
        self.factor_index = factor_index
        at = "" if factor_index is None else f" (word factor {factor_index})"
        super().__init__(
            f"conjugation by delta of {list(subset)} undefined on {vertex!r}{at}"
        )


class TwistFactor(NamedTuple):
    """A signed Garside factor delta(subset)^sign; the subset is spherical."""

    subset: VertexSet
    sign: int = 1

    def to_json_dict(self) -> dict:
        return {"delta_of": list(self.subset), "sign": self.sign}


class ConjugatorWord:
    """Formal product of signed Garside factors, applied left to right.

    ``extended`` is O(1): the new word keeps the word it extends as its
    prefix, so the words of one search share their prefixes, and
    ``factors`` joins them on each read.  Equality, hashing and ``repr``
    go by ``factors`` alone, however a word was built.  A word is never
    changed after construction."""

    __slots__ = ("_prefix", "_tail", "_len")  # the factors: prefix, then tail

    def __init__(self, factors: Iterable[TwistFactor] = ()):
        self._prefix: ConjugatorWord | None = None
        self._tail = tuple(factors)
        self._len = len(self._tail)

    def extended(self, factor: TwistFactor) -> ConjugatorWord:
        word = object.__new__(ConjugatorWord)
        word._prefix, word._tail, word._len = self, (factor,), self._len + 1
        return word

    @property
    def factors(self) -> tuple[TwistFactor, ...]:
        parts, word = [], self
        while word is not None:
            parts.append(word._tail)
            word = word._prefix
        return parts[0] if len(parts) == 1 else tuple(chain.from_iterable(reversed(parts)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjugatorWord):
            return NotImplemented
        return self._len == other._len and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"ConjugatorWord(factors={self.factors!r})"

    def __reduce__(self):
        return ConjugatorWord, (self.factors,)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[TwistFactor]:
        return iter(self.factors)

    def __bool__(self) -> bool:
        return self._len > 0

    def to_json_list(self) -> list[dict]:
        return [f.to_json_dict() for f in self.factors]


def delta_automorphism(c: TypedComponent) -> dict[str, str]:
    """The involution induced on a component's vertices by conjugation with
    its Garside element (see ``classify._delta_images``): the identity
    unless the component is twistable."""
    p = c.positions
    return dict(zip(p, map(p.__getitem__, _delta_images(c.type) or range(len(p)))))


def delta_conjugate_set(g: CoxeterGraph, V: Iterable[str], X: Iterable[str]) -> VertexSet:
    """Image of the set X under conjugation by delta(V), or by its inverse:
    the action is an involution, so both give the same image.

    Defined only when every element of X lies in V or commutes with all of V,
    and V is spherical.
    """
    Vm, Xm = g.mask(g.subset(V)), g.mask(g.subset(X))
    out = Xm & ~Vm
    for comp in g.components(Vm):
        if g.typed(comp) is None:
            raise ValueError(f"subset is not of spherical type: {list(g.names(comp))}")
        twist = twist_of(g, comp)
        # not kept: the masks of replayed words would only grow the memo
        out |= Xm & comp if twist is None else twist[0].image(Xm & comp)
    for i in _bits(Xm & ~Vm):
        if g.nbrs[i] & Vm:
            raise DeltaActionUndefined(g.generators[i], g.names(Vm))
    return g.names(out)


class Images(dict):
    """Images of masks under the involution a component's twist induces:
    built with the bit of the image of each bit of the component, and
    filled with other masks on first lookup.  A mask disjoint from the
    component is its own image."""

    __slots__ = ()  # no instance dict: one is kept per twistable component

    def __missing__(self, mask: int) -> int:
        self[mask] = out = self.image(mask)
        return out

    def image(self, mask: int) -> int:
        """The image of mask, computed without being kept."""
        out = 0
        for i in _bits(mask):
            bit = 1 << i
            out |= self.get(bit, bit)
        return out


# A twist step of a subset mask Y at t: the bit of t; the move, the bits of
# t and of its image, so that the twisted subset is Y ^ move (0 when the
# image of t is t); and the images and factor of the twist of the
# component of Y + t containing t.
MaskStep = tuple[int, int, Images, TwistFactor]


def twist_of(g: CoxeterGraph, comp: int) -> tuple[Images, TwistFactor] | None:
    """The twist of a component mask, kept with the graph in ``g.twists``:
    the involution that conjugation by its Garside element induces on its
    bits, and that factor; None unless the component is twistable (a
    component of infinite type is not)."""
    twists = g.twists
    if comp in twists:
        return twists[comp]
    tc = g.typed(comp)
    images = None if tc is None else _delta_images(tc.type)
    twist = None
    if images is not None:
        bits = [g.bits[g.index[v]] for v in tc.positions]
        twist = Images(zip(bits, map(bits.__getitem__, images))), TwistFactor(g.names(comp), 1)
    return twists.setdefault(comp, twist)  # one object, whichever thread stores first


def _step(g: CoxeterGraph, tbit: int, comp: int) -> MaskStep | None:
    """The step at t whose component of Y + t is comp, None when comp is
    not twistable."""
    twist = twist_of(g, comp)
    return None if twist is None else (tbit, tbit ^ twist[0][tbit], *twist)


def step_at(g: CoxeterGraph, Y: int, t: str) -> MaskStep | None:
    """The step of the subset mask Y at the generator t, None when the
    component of Y + t containing t is not twistable.  An unknown t is
    a GraphError, and a t that is not adjacent to Y a ValueError."""
    (t,) = g.subset((t,))
    i = g.index[t]
    if Y >> i & 1 or not g.nbrs[i] & Y:
        raise ValueError(f"{t!r} is not adjacent to {list(g.names(Y))}")
    return _step(g, 1 << i, g.flood(1 << i, Y | 1 << i))


def _alone(g: CoxeterGraph, C: int) -> tuple[int, list[MaskStep]]:
    """(the border of the component mask C, the steps at each border bit
    t when t is adjacent to C alone, so that C + t is the component of
    t), kept with the graph in ``g.borders``.  The border keeps the bits
    joined to C by infinite labels: ``steps`` needs them to see that t
    joins two components."""
    border = 0
    for i in _bits(C):
        border |= g.nbrs[i]
    border &= ~C
    steps = []
    for i in _bits(border):
        tbit = g.bits[i]
        step = _step(g, tbit, C | tbit)
        if step is not None:
            steps.append(step)
    return g.borders.setdefault(C, (border, steps))


def steps(g: CoxeterGraph, Y: int) -> list[MaskStep]:
    """The steps of Y at each t adjacent to Y whose component C of Y + t
    containing t is twistable, in increasing bit order, the order of
    ``adjacent``.  C is t plus the components of Y adjacent to t: the
    steps at a t adjacent to one component alone come from that
    component's list, and only the others are flooded and recognized
    here, except a t with an infinite label to Y, whose C is never
    twistable.  The list may be shared: do not modify it."""
    borders, nbrs, parts, rest = g.borders, g.nbrs, [], Y
    while rest:  # a component C of Y, flooded inline: steps runs once per search state
        C = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbrs[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & rest & ~C
            C |= frontier
        rest ^= C
        parts.append(borders.get(C) or _alone(g, C))
    if len(parts) == 1:
        return parts[0][1]
    seen = multi = 0
    for border, _ in parts:
        multi |= seen & border
        seen |= border
    out = [step for _, steps in parts for step in steps if not step[0] & multi]
    while multi:
        tbit = multi & -multi
        multi ^= tbit
        if g.inf[tbit.bit_length() - 1] & Y:
            continue
        step = _step(g, tbit, g.flood(tbit, Y | tbit))
        if step is not None:
            out.append(step)
    out.sort()  # by bit of t: the bits in a list are distinct
    return out


def elementary_twist(
    g: CoxeterGraph, Y: Iterable[str], t: str
) -> tuple[VertexSet, TwistFactor] | None:
    """One twist step: conjugate Y by the Garside element of the component
    C of Y + t containing t, when C is twistable, which replaces C by C
    minus the image of t.

    Returns the twisted set and the factor, or None when C is not
    twistable.  The new set has the same size as Y.  t must be adjacent
    to Y (see ``step_at``).
    """
    Ym = g.mask(g.subset(Y))
    step = step_at(g, Ym, t)
    if step is None:
        return None
    _, move, _, factor = step
    return g.names(Ym ^ move), factor


def apply_word(g: CoxeterGraph, X: Iterable[str], w: ConjugatorWord) -> VertexSet:
    """Apply a conjugator word factor by factor, left to right."""
    cur = g.subset(X)
    for i, factor in enumerate(w):
        try:
            cur = delta_conjugate_set(g, factor.subset, cur)
        except DeltaActionUndefined as exc:
            raise DeltaActionUndefined(exc.vertex, exc.subset, i) from exc
    return cur

