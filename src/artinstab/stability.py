"""The conjugacy-stability decision for standard parabolic subgroups.

A standard parabolic subgroup generated by X fails to be conjugacy stable
exactly when one of three obstructions exists:

* a subset of X has a component of type D_2k (k > 2) that extends to an odd
  D type through a vertex outside X at the tail position, with no such
  extension available inside X;
* a subset of X has a D_4 component with an outside odd-D extension at some
  leaf that can be repaired neither at the same leaf nor at both other
  leaves from inside X;
* some subset of X, tracked component by component, reaches a configuration
  with all generators inside X under twists through all of the ambient
  generator set that it cannot reach using twists through X alone.

Otherwise the subgroup is conjugacy stable (under the standardisability,
ribbon and parabolic-closure hypotheses of the containing group's family).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import factorial, prod
from typing import Callable, Iterable, Iterator, NamedTuple

from .classify import (
    GroupFamilyReport,
    IrreducibleType,
    TypedComponent,
    classify_group,
    is_spherical,
)
from .graph import CoxeterGraph, VertexSet, _bits, components
from .orbit import Parents, _part_key, bfs_closure, word_to, words
from .twist import ConjugatorWord, Images, MaskStep, TwistFactor, step_at, steps

ComponentTuple = tuple[VertexSet, ...]


class SubsetSizeLimitError(RuntimeError):
    """The decision would enumerate too many subsets; raise the cap to force."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(
            f"subset has {size} generators, above the cap of {cap}; "
            f"raise max_subset_size to proceed"
        )


class Witness(NamedTuple):
    """Machine-checkable evidence for a NotStable verdict."""

    kind: str  # "permutation" | "d2k_exception" | "d4_exception"
    subset: VertexSet
    tuple: ComponentTuple | None = None
    word: ConjugatorWord | None = None
    component: tuple[str, ...] | None = None
    leaf: str | None = None
    attach: str | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "subset": list(self.subset)}
        if self.tuple is not None:
            out["tuple"] = [list(part) for part in self.tuple]
        if self.word is not None:
            out["word"] = self.word.to_json_list()
        if self.component is not None:
            out["component"] = list(self.component)
        if self.leaf is not None:
            out["leaf"] = self.leaf
        if self.attach is not None:
            out["attach"] = self.attach
        return out


class StabilityReport(NamedTuple):
    """Verdict plus the semantics it carries and the group-family context."""

    verdict: str
    semantics: str  # "stability" | "quasi_stability"
    witness: Witness | None
    family: GroupFamilyReport
    flags: tuple[str, ...] = ()
    reason: str | None = None

    def to_json_dict(self) -> dict:
        witness = None if self.witness is None else self.witness.to_json_dict()
        return {**self._asdict(), "witness": witness, "family": self.family.to_json_dict(),
                "flags": list(self.flags)}


def initial_tuple(g: CoxeterGraph, X1: Iterable[str]) -> ComponentTuple:
    return tuple(components(g, X1))


def tuple_twist(
    g: CoxeterGraph, T: ComponentTuple, t: str
) -> tuple[ComponentTuple, TwistFactor] | None:
    """Twist the union of the tuple at t, tracking each position's image;
    t must be adjacent to the union (see ``twist.step_at``)."""
    step = step_at(g, g.mask(g.subset([v for part in T for v in part])), t)
    if step is None:
        return None
    _, _, images, factor = step
    return tuple(g.names(images[g.mask(part)]) for part in T), factor


# A component tuple written as part masks (see ``CoxeterGraph.mask``).
MaskTuple = tuple[int, ...]


class Moves(dict):
    """Union masks -> the twist steps of the union (see ``twist.steps``) in
    two lists: the steps at a bit of inside, and all of them, the list
    ``steps`` returns, in bit order.  Filled on first lookup and shared by
    the tuple closures of one call."""

    def __init__(self, g: CoxeterGraph, inside: int):
        super().__init__()
        self.g = g
        self.inside = inside

    def __missing__(self, union: int) -> tuple[list[MaskStep], list[MaskStep]]:
        every, inside = steps(self.g, union), self.inside
        self[union] = found = [step for step in every if step[0] & inside], every
        return found


INSIDE, EVERYWHERE = range(2)  # the lists of a ``Moves`` entry


def _images(T: MaskTuple, move: int, images: Images) -> MaskTuple:
    """The tuple a step leads to: every part takes its image under the
    twisted component, and parts outside it stay."""
    return tuple(map(images.__getitem__, T))


def _closure(
    moves: Moves,
    start: MaskTuple,
    which: int,
    stop: Callable[[MaskTuple], bool] | None = None,
) -> Parents:
    """The closure of a tuple of part masks under the steps of list which
    of its union's ``Moves`` entry, INSIDE or EVERYWHERE, as parent
    pointers, up to and including the first tuple for which stop holds."""
    # the parts are disjoint, so their sum is their union
    return bfs_closure([start], lambda T: moves[sum(T)][which], _images, stop)


def tuple_orbit(
    g: CoxeterGraph,
    X1: Iterable[str],
    allowed: Callable[[str], bool] | None = None,
) -> dict[ComponentTuple, ConjugatorWord]:
    """BFS closure of the component tuple of X1 under tuple twists at
    vertices satisfying ``allowed`` (all vertices when None)."""
    bits = g.mask(v for v in g.generators if allowed is None or allowed(v))
    start = g.components(g.mask(g.subset(X1)))
    parents = _closure(Moves(g, bits), start, INSIDE)
    return {
        tuple(g.names(P) for P in T): word for T, word in words(parents).items()
    }


def _odd_extensions(g: CoxeterGraph, Y: int, end: str) -> int:
    """The mask of every vertex t outside Y, adjacent to the end vertex,
    such that the component of Y + t containing the end has type D of odd
    rank."""
    i = g.index[end]
    found = 0
    for j in _bits(g.nbrs[i] & ~Y):
        tc = g.typed(g.flood(1 << i, Y | 1 << j))
        if tc is not None and tc.type.family == "D" and tc.type.rank % 2 == 1:
            found |= 1 << j
    return found


def _d_kind(t: IrreducibleType) -> str | None:
    """The witness kind of a D_2k (k > 2) or D_4 site, None for every other
    type; recognized D types have rank at least 4."""
    if t.family == "D" and t.rank % 2 == 0:
        return "d4_exception" if t.rank == 4 else "d2k_exception"
    return None


def _find_d_obstruction(
    g: CoxeterGraph, inside: int, Y: int, Yp: TypedComponent
) -> Witness | None:
    """The witness of an odd-D extension at an end of a D_2k or D_4
    component of Y that no inside extension repairs, neither at the same
    end nor at all the other ends when there are any, with inside the mask
    of X: its leaf is the end and its attach the outside vertex, the first
    in generator order.  The ends are the tail of D_2k, reported as None,
    and the three leaves of D_4."""
    p = Yp.positions
    ends = (p[0], p[1], p[3]) if Yp.type.rank == 4 else (p[-1],)
    odd = {end: _odd_extensions(g, Y, end) for end in ends}
    for end in ends:
        attach = odd[end] & ~inside
        if not attach or odd[end] & inside:
            continue
        others = [o for o in ends if o != end]
        if others and all(odd[o] & inside for o in others):
            continue
        return Witness(_d_kind(Yp.type), g.names(Y), component=p, leaf=end if others else None,
                       attach=g.generators[(attach & -attach).bit_length() - 1])
    return None


def _check_site(
    g: CoxeterGraph,
    X: Iterable[str],
    Y: Iterable[str],
    Yp: TypedComponent,
    kind: str,
    expected: str,
) -> bool:
    Xs, Ys = g.subset(X), g.subset(Y)
    if not set(Ys) <= set(Xs):
        raise ValueError("Y must be a subset of X")
    Ym, comp = g.mask(Ys), g.mask(g.subset(Yp.positions))
    # a component of Y is what a flood within Y from its lowest bit reaches
    # (nothing unless that bit is in Y); recognition fixes type and positions
    if g.flood(comp & -comp & Ym, Ym) != comp or g.typed(comp) != Yp:
        raise ValueError("the typed component is not a component of Y")
    if _d_kind(Yp.type) != kind:
        raise ValueError(f"component has type {Yp.type}, expected {expected}")
    return _find_d_obstruction(g, g.mask(Xs), Ym, Yp) is not None


def check_d2k_exception(
    g: CoxeterGraph, X: Iterable[str], Y: Iterable[str], Yp: TypedComponent
) -> bool:
    """Obstruction test for a D_2k component, k > 2, of a subset Y of X."""
    return _check_site(g, X, Y, Yp, "d2k_exception", "even D of rank >= 6")


def check_d4_exception(
    g: CoxeterGraph, X: Iterable[str], Y: Iterable[str], Yp: TypedComponent
) -> bool:
    """Obstruction test for a D_4 component of a subset Y of X."""
    return _check_site(g, X, Y, Yp, "d4_exception", "D4")


def decide_stability(
    g: CoxeterGraph, X: Iterable[str], max_subset_size: int = 16
) -> Witness | None:
    """Decide conjugacy stability of the standard parabolic subgroup on X.

    Returns the witness of the first obstruction found (D_2k tails first,
    then D_4 leaves, then permutations, each over the subsets of X largest
    first), or None when there is none and the subgroup is stable.  When X
    meets several of the graph's direct and free factors, its part in each
    is decided alone first, and X is stable when every part is; when one is
    not, the walk over all of X finds the witness.  Raises
    SubsetSizeLimitError when X has more than max_subset_size generators,
    and ValueError when max_subset_size is below 1.  The README's
    paragraph on conjugacy stability describes how the search runs.
    """
    if max_subset_size < 1:
        raise ValueError(f"max_subset_size must be at least 1, got {max_subset_size}")
    Xs = g.subset(X)
    if len(Xs) > max_subset_size:
        raise SubsetSizeLimitError(len(Xs), max_subset_size)
    inside = g.mask(Xs)
    fin = [~inf for inf in g.inf]  # the finite-label masks (m = 2 included), read within a mask
    parts = [F & inside for F in _factors(g, (1 << len(g.generators)) - 1, fin) if F & inside]
    if len(parts) > 1 and all(_decide(g, P) is None for P in parts):
        return None
    return _decide(g, inside)


def _factors(g: CoxeterGraph, M: int, fin: list[int]) -> Iterator[int]:
    """The factors of the graph within M: each direct factor (component) of
    M that is one free factor (component of the finite-label masks fin),
    and the factors within each free factor of the others."""
    for D in g.components(M):
        free = g.components(D, fin)
        if len(free) == 1:
            yield D
        else:
            for F in free:
                yield from _factors(g, F, fin)


def _decide(g: CoxeterGraph, inside: int) -> Witness | None:
    """The decision on the X of mask inside, by the walk over its subsets."""
    bits = [1 << i for i in _bits(inside)]
    # every D_n (n >= 4) has a vertex with 3 neighbours in it, all in X
    branched = any((g.nbrs[i] & inside).bit_count() >= 3 for i in _bits(inside))
    walk = [[(T, g.components(T)) for T in map(sum, combinations(bits, k))]
            for k in range(len(bits), 0, -1)]
    for kind in ("d2k_exception", "d4_exception") if branched else ():
        for level in walk:
            for T, comps in level:
                for tc in map(g.typed, comps):
                    if tc and _d_kind(tc.type) == kind and (
                            witness := _find_d_obstruction(g, inside, T, tc)):
                        return witness

    def found(T: MaskTuple) -> bool:
        """T lies outside the internal closure of the current X1 and inside X."""
        return T not in internal and not sum(T) & ~inside

    moves = Moves(g, inside)
    # twists keep part keys, so I holds only candidates: each subset of X with X1's keys, in
    # every order that keeps them; when I holds all of them, no tuple beyond I lies inside X.
    # Subsets with the same keys have the same size, so they are counted one size at a time
    for level in walk:
        keys = [frozenset(Counter(_part_key(g, P) for P in start).items()) for _, start in level]
        counts = Counter(keys)
        for (X1, start), key in zip(level, keys):
            internal = _closure(moves, start, INSIDE)
            candidates = counts[key] * prod(factorial(m) for _, m in key)
            if len(internal) < candidates:
                # the closure under all twists, stopped at its first tuple found
                external = _closure(moves, start, EVERYWHERE, found)
                T = next(reversed(external))
                if found(T):
                    return Witness(
                        "permutation",
                        subset=g.names(X1),
                        tuple=tuple(g.names(P) for P in T),
                        word=word_to(external, T),
                    )
    return None


def decide_with_applicability(
    g: CoxeterGraph,
    X: Iterable[str],
    mode: str = "auto",
    max_subset_size: int = 16,
) -> StabilityReport:
    """Classify the group, then decide stability with the right semantics.

    Groups in a family with full hypotheses get a stability verdict; FC-type
    groups outside those families get quasi-stability semantics, upgraded to
    full stability when X itself is spherical; unknown families yield an
    inapplicable report unless mode is "force".  A max_subset_size below 1
    is a ValueError, whatever the family.
    """
    if mode not in ("auto", "force"):
        raise ValueError(f"mode must be 'auto' or 'force', got {mode!r}")
    if max_subset_size < 1:  # before classify_group, which can take long
        raise ValueError(f"max_subset_size must be at least 1, got {max_subset_size}")
    Xs = g.subset(X)
    family = classify_group(g)
    flags: tuple[str, ...] = ()
    if family.applicability == "FullStability":
        semantics = "stability"
    elif family.applicability == "QuasiStability":
        semantics = "stability" if is_spherical(g, Xs) else "quasi_stability"
    else:
        if mode != "force":
            return StabilityReport(
                verdict="inapplicable",
                semantics="stability",
                witness=None,
                family=family,
                reason=family.justification,
            )
        flags = ("hypotheses_unverified",)
        semantics = "stability"
    witness = decide_stability(g, Xs, max_subset_size=max_subset_size)
    return StabilityReport(
        verdict="stable" if witness is None else "not_stable",
        semantics=semantics,
        witness=witness,
        family=family,
        flags=flags,
    )
