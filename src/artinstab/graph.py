"""Coxeter graph data model for Artin groups.

A Coxeter graph records a finite set of generators together with, for every
unordered pair, the length m of the braid relation between them: m = 2 means
the pair commutes, infinity means there is no relation at all.  Only the
pairs with m != 2 are stored; a missing pair commutes.  Two vertices are
adjacent when m >= 3 (infinity included); this is the adjacency used by
every algorithm in this package.

A graph is immutable after construction; its labels are a read-only
mapping.  Besides its names and labels it keeps, built with it, int masks
of its subsets (bit i standing for ``generators[i]``): for each vertex, the
masks of its neighbours, its label-3 edges and its infinite edges.  The
searches and the recognizer run on those masks.  It also keeps three memos,
filled by the queries that meet their entries: the recognized components
(``types``, read through ``typed``), the twist of each component
(``twists``, read and filled by ``twist.twist_of``) and its twist steps
at its border (``borders``, read and filled by ``twist.steps``).  Memo
entries are pure functions of the graph, so threads that fill one
concurrently store equal values, and a graph is safe to share between
them; a twist or border entry is stored once, and every thread reads the
object stored first.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from .classify import TypedComponent
    from .twist import Images, MaskStep, TwistFactor

INFINITY: float = float("inf")

Label = int | float
VertexSet = tuple[str, ...]


class GraphError(ValueError):
    """Malformed graph input."""


def _pair(s: str, t: str) -> tuple[str, str]:
    return (s, t) if s < t else (t, s)


def _valid_name(name: object) -> bool:
    return isinstance(name, str) and name.isascii() and name.isidentifier()


def _is_int(m: object) -> bool:
    return isinstance(m, int) and not isinstance(m, bool)


def _valid_label(m: object) -> bool:
    return m == INFINITY or (_is_int(m) and m >= 2)


class CoxeterGraph:
    """Immutable labeled graph on a lexicographically sorted generator tuple.

    The sorted generator order is the canonical order; every deterministic
    choice downstream (component ordering, BFS frontiers, serialization)
    derives from it.  ``labels`` maps each sorted pair with m != 2 to m;
    ``label`` reads a missing pair as 2.  The constructor raises GraphError
    when either field breaks these rules; ``build`` sorts and filters free
    input into them.  ``labels`` is kept as a read-only copy, so that
    the masks and memos built from it cannot go stale.  Only these two
    fields take part in equality, ``repr``, pickling and copying, with the
    labels as a plain dict; the masks and the memos (``types``, ``twists``,
    ``borders``) are built from them, so a clone starts with empty memos.
    Assigning or deleting an attribute raises AttributeError, and a graph
    is unhashable, as its labels are.
    """

    __hash__ = None

    def __init__(self, generators: VertexSet, labels: Mapping[tuple[str, str], Label]):
        gens = generators
        if not (isinstance(gens, tuple) and gens and all(map(_valid_name, gens))
                and all(map(str.__lt__, gens, gens[1:]))):
            raise GraphError(f"generators must be distinct valid names in sorted order: {gens!r}")
        index = {v: i for i, v in enumerate(gens)}
        n = len(index)
        nbrs, three, inf = [0] * n, [0] * n, [0] * n
        for key, m in labels.items():
            s, t = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            i, j = index.get(s, n), index.get(t, -1)
            if not i < j:  # two generators, in sorted order
                raise GraphError(f"label key {key!r} is not a sorted pair of generators")
            if m == 2 or not _valid_label(m):
                raise GraphError(f"invalid label {m!r} for pair {key!r}")
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
            if m == 3 or m == INFINITY:
                kind = three if m == 3 else inf
                kind[i] |= 1 << j
                kind[j] |= 1 << i
        bits = tuple(1 << i for i in range(n))  # one int per bit, shared by memo entries
        types: dict[int, TypedComponent | None] = {}
        # component mask -> its twist (see ``twist.twist_of``)
        twists: dict[int, tuple[Images, TwistFactor] | None] = {}
        # component mask -> its border and its steps there (``twist._alone``)
        borders: dict[int, tuple[int, list[MaskStep]]] = {}
        # set through object.__setattr__, as our own __setattr__ raises:
        # filling vars(self) instead slows every later attribute load
        put = object.__setattr__
        for name, value in (("generators", gens), ("labels", MappingProxyType(dict(labels))),
                            ("index", index), ("bits", bits), ("nbrs", nbrs), ("three", three),
                            ("inf", inf), ("types", types), ("twists", twists),
                            ("borders", borders)):
            put(self, name, value)

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.generators == other.generators and self.labels == other.labels

    @staticmethod
    def build(
        generators: Iterable[str],
        relations: Iterable[tuple[str, str, Label]] = (),
        infinite_by_default: bool = False,
    ) -> CoxeterGraph:
        gens = list(generators)
        if not gens:
            raise GraphError("generator list is empty")
        for name in gens:
            if not _valid_name(name):
                raise GraphError(f"invalid generator name {name!r}")
        if len(set(gens)) != len(gens):
            dup = sorted(n for n in set(gens) if gens.count(n) > 1)
            raise GraphError(f"duplicate generator names: {dup}")
        order = tuple(sorted(gens))

        labels: dict[tuple[str, str], Label] = {}
        for s, t, m in relations:
            if s not in order or t not in order:
                missing = s if s not in order else t
                raise GraphError(f"relation names unknown generator {missing!r}")
            if s == t:
                raise GraphError(f"self-pair relation on {s!r}")
            if not _valid_label(m):
                raise GraphError(f"invalid label {m!r} for pair ({s!r}, {t!r})")
            key = _pair(s, t)
            if key in labels:
                if labels[key] != m:
                    raise GraphError(
                        f"pair ({s!r}, {t!r}) listed twice with conflicting "
                        f"labels {labels[key]!r} and {m!r}"
                    )
                raise GraphError(f"pair ({s!r}, {t!r}) listed twice")
            labels[key] = m
        if infinite_by_default:
            for i, s in enumerate(order):
                for t in order[i + 1 :]:
                    labels.setdefault((s, t), INFINITY)
        return CoxeterGraph(order, {key: m for key, m in labels.items() if m != 2})

    def __reduce__(self):  # pickle and copy the fields, not the memos
        return CoxeterGraph, (self.generators, dict(self.labels))

    def __repr__(self) -> str:
        return f"CoxeterGraph(generators={self.generators!r}, labels={dict(self.labels)!r})"

    def label(self, s: str, t: str) -> Label:
        return self.labels.get(_pair(s, t), 2)

    def subset(self, names: Iterable[str]) -> VertexSet:
        """Normalize to a canonical sorted vertex tuple, validating membership."""
        out = sorted(set(names))
        for name in out:
            if name not in self.index:
                raise GraphError(f"unknown generator {name!r}")
        return tuple(out)

    def typed(self, comp: int) -> TypedComponent | None:
        """The recognized type of a component mask, None when it is not
        spherical, kept with the graph.  The mask must be connected, as
        every flood is."""
        types = self.types
        if comp not in types:
            from .classify import _recognize  # classify imports this module
            types[comp] = _recognize(self, comp)
        return types[comp]

    def mask(self, names: Iterable[str]) -> int:
        return sum(1 << self.index[v] for v in names)

    def names(self, mask: int) -> VertexSet:
        gens, out = self.generators, []
        while mask:
            low = mask & -mask
            out.append(gens[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def flood(self, seed: int, within: int, nbrs: list[int] | None = None) -> int:
        """The component of ``within`` containing the bits of seed, joined
        by edges, or by the neighbour masks nbrs when given."""
        if nbrs is None:
            nbrs = self.nbrs
        comp = frontier = seed
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbrs[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & within & ~comp
            comp |= frontier
        return comp

    def components(self, X: int, nbrs: list[int] | None = None) -> tuple[int, ...]:
        """The components of X, ordered by lowest bit, joined as in ``flood``."""
        out = []
        while X:
            comp = self.flood(X & -X, X, nbrs)
            out.append(comp)
            X &= ~comp
        return tuple(out)


def parse_graph(text: bytes | str) -> CoxeterGraph:
    """Parse the JSON input format into a graph.

    The file format is ``{"generators": [...], "relations": [[s, t, m], ...],
    "infinite_by_default": false}`` where a relation label is an integer >= 2,
    the integer 0 (meaning infinity), or the string "inf".  Unlisted pairs
    receive the default label: 2 normally, infinity when
    ``infinite_by_default`` is set.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a long integer, deep nesting
        raise GraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphError("top-level value must be an object")
    unknown = set(data) - {"generators", "relations", "infinite_by_default"}
    if unknown:
        raise GraphError(f"unknown keys: {sorted(unknown)}")
    gens = data.get("generators")
    if not isinstance(gens, list):
        raise GraphError("'generators' must be a list")
    infinite_by_default = data.get("infinite_by_default", False)
    if not isinstance(infinite_by_default, bool):
        raise GraphError("'infinite_by_default' must be a boolean")

    raw = data.get("relations", [])
    if not isinstance(raw, list):
        raise GraphError("'relations' must be a list")
    relations: list[tuple[str, str, Label]] = []
    for i, entry in enumerate(raw):
        where = f"relations[{i}]"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise GraphError(f"{where}: expected [generator, generator, label]")
        s, t, m = entry
        if m == "inf" or (_is_int(m) and m == 0):
            m = INFINITY
        elif not (_is_int(m) and m >= 2):
            raise GraphError(f"{where}: invalid label {m!r} (need integer >= 2, 0 or \"inf\")")
        relations.append((s, t, m))
    return CoxeterGraph.build(gens, relations, infinite_by_default)


def to_json_dict(g: CoxeterGraph) -> dict:
    """Serialize in the input file format; unlisted pairs default to m = 2."""
    relations = []
    for (s, t) in sorted(g.labels):
        m = g.labels[(s, t)]
        relations.append([s, t, 0 if m == INFINITY else m])
    return {
        "generators": list(g.generators),
        "relations": relations,
        "infinite_by_default": False,
    }


def _bits(mask: int) -> Iterator[int]:
    """The set bit positions of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components(g: CoxeterGraph, X: Iterable[str]) -> list[VertexSet]:
    """Connected components of the induced graph on X, sorted by least vertex."""
    return [g.names(c) for c in g.components(g.mask(g.subset(X)))]


def adjacent(g: CoxeterGraph, X: Iterable[str]) -> VertexSet:
    """Vertices outside X adjacent to some vertex of X."""
    Xm = g.mask(g.subset(X))
    near = 0
    for i in _bits(Xm):
        near |= g.nbrs[i]
    return g.names(near & ~Xm)


def to_dot(g: CoxeterGraph) -> str:
    """DOT rendering: edges for m >= 3, the label printed when m > 3."""
    lines = ["graph coxeter {"]
    for v in g.generators:
        lines.append(f'  "{v}";')
    for (s, t) in sorted(g.labels):
        m = g.labels[(s, t)]
        if m == INFINITY:
            lines.append(f'  "{s}" -- "{t}" [label="∞"];')
        elif m > 3:
            lines.append(f'  "{s}" -- "{t}" [label="{m}"];')
        else:
            lines.append(f'  "{s}" -- "{t}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
