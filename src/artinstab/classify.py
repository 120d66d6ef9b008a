"""Recognition of finite-type Coxeter diagrams and group-family classification.

Irreducible finite (spherical) types are A_n, B_n (n >= 2), D_n (n >= 4),
E_6, E_7, E_8, F_4, H_3, H_4 and the dihedral types I_2(m), 5 <= m < infinity.
``recognize_component`` matches a connected induced subgraph against this
catalog and returns a canonical position labeling; everything downstream
(twist automorphisms, the Weyl-group oracle) is phrased in terms of those
positions.  One recognizer, ``_recognize``, does the matching on the masks
of a ``CoxeterGraph``, whose ``typed`` keeps each result with the graph;
``recognize_component``, ``is_spherical``, ``classify_group`` and the
twists all read that memo.  The diagrams themselves are written once, in
``_diagram``, which ``standard_graph`` and the Weyl-group oracle read.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graph import (
    INFINITY,
    CoxeterGraph,
    VertexSet,
    _bits,
)


class IrreducibleType(NamedTuple):
    """A catalog entry: family letter plus rank (and the edge label for I2)."""

    family: str  # "A", "B", "D", "E", "F", "H" or "I2"
    rank: int
    m: int = 0  # I2 only: the dihedral edge label

    def __str__(self) -> str:
        if self.family == "I2":
            return f"I2({self.m})"
        return f"{self.family}{self.rank}"


class TypedComponent(NamedTuple):
    """A recognized component with its canonical position labeling.

    ``positions[i]`` is the generator sitting at diagram position i + 1.
    Path types (A, B, F, H, I2) are numbered along the path; D has its two
    prongs at positions 1 and 2, the branch vertex at 3 and the tail
    ascending; E types have the branch vertex at position 4, the short arm
    at position 1 and the chain 2-3-4-5-6(-7)(-8).
    """

    type: IrreducibleType
    positions: tuple[str, ...]

    @property
    def vertices(self) -> VertexSet:
        return tuple(sorted(self.positions))


def _path(nbrs, start: int, n: int) -> list[int]:
    """The bit indices of the n vertices of a path, from its end vertex
    start; nbrs[i] is the neighbour mask of i within the path."""
    path, prev = [start], 0
    while len(path) < n:
        here = path[-1]
        path.append((nbrs[here] & ~prev).bit_length() - 1)
        prev = 1 << here
    return path


def recognize_component(g: CoxeterGraph, Y: Iterable[str]) -> TypedComponent | None:
    """Match a connected subset against the finite-type catalog.

    Returns None when the induced diagram is not of finite type.  Raises
    ValueError when Y is not connected in the graph.
    """
    Ys = g.subset(Y)
    Ym = g.mask(Ys)
    if not Ym or g.flood(Ym & -Ym, Ym) != Ym:
        raise ValueError(f"subset is not connected: {Ys!r}")
    return g.typed(Ym)


def _recognize(g: CoxeterGraph, comp: int) -> TypedComponent | None:
    """``recognize_component`` for a mask of g already known to be
    connected, without checking it.  Every catalog diagram is a tree
    without infinite labels; its shape and the few labels other than 3
    pick the type, and positions are found by walking the tree in bit
    order, which is the order of generator names."""
    gens = g.generators
    verts = list(_bits(comp))
    n = len(verts)

    def label(a: int, b: int) -> int:
        return 3 if g.three[a] >> b & 1 else g.label(gens[a], gens[b])

    def typed(family: str, seq, m: int = 0) -> TypedComponent:
        return TypedComponent(IrreducibleType(family, n, m), tuple(gens[i] for i in seq))

    if n == 1:
        return typed("A", verts)
    near = {i: g.nbrs[i] & comp for i in verts}
    deg = {i: mask.bit_count() for i, mask in near.items()}
    if any(g.inf[i] & comp for i in verts) or sum(deg.values()) != 2 * (n - 1):
        return None
    simply_laced = all(g.three[i] & comp == near[i] for i in verts)
    if n == 2:
        m = label(*verts)
        if m == 3:
            return typed("A", verts)
        return typed("B", verts) if m == 4 else typed("I2", verts, m)

    if max(deg.values()) > 3:
        return None
    branches = [i for i in verts if deg[i] == 3]

    if not branches:
        seq = _path(near, next(i for i in verts if deg[i] == 1), n)
        if simply_laced:
            return typed("A", seq)
        lseq = [label(a, b) for a, b in zip(seq, seq[1:])]
        if n == 4 and lseq == [3, 4, 3]:
            return typed("F", seq)
        others = set(lseq) - {3}
        m = others.pop() if len(others) == 1 else 0
        if (m == 4 or (m == 5 and n in (3, 4))) and lseq.count(m) == 1 and m in (lseq[0], lseq[-1]):
            return typed("B" if m == 4 else "H", seq[::-1] if lseq[-1] == m else seq)
        return None

    if len(branches) > 1 or not simply_laced:
        return None
    b = branches[0]
    arms: list[list[int]] = []
    for x in _bits(near[b]):
        arm, prev = [x], 1 << b
        while deg[arm[-1]] == 2:
            here = arm[-1]
            arm.append((near[here] & ~prev).bit_length() - 1)
            prev = 1 << here
        arms.append(arm)
    arms.sort(key=len)
    lens = [len(a) for a in arms]

    if lens[0] == 1 and lens[1] == 1:
        if n == 4:
            a, c, d = sorted(arm[0] for arm in arms)
            return typed("D", (a, c, b, d))
        prongs = sorted((arms[0][0], arms[1][0]))
        return typed("D", (*prongs, b, *arms[2]))
    if lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
        if lens[2] == 2 and arms[2][-1] < arms[1][-1]:
            arms[1], arms[2] = arms[2], arms[1]
        short, mid, long = arms
        return typed("E", (short[0], mid[1], mid[0], b, *long))
    return None


def is_spherical(g: CoxeterGraph, X: Iterable[str]) -> bool:
    return all(g.typed(comp) is not None for comp in g.components(g.mask(g.subset(X))))


def _delta_images(t: IrreducibleType) -> tuple[int, ...] | None:
    """The involution that conjugation by the Garside element of a
    component of type t induces on its positions: entry i is the index of
    the image of ``positions[i]``.  None when it is the identity, which it
    is except on A_n (n >= 2), odd D_n (n >= 5), E_6 and odd I_2(m)."""
    n = t.rank
    if t.family == "A" and n >= 2:
        return tuple(range(n - 1, -1, -1))
    if t.family == "D" and n >= 5 and n % 2 == 1:
        return (1, 0, *range(2, n))  # the prongs swap
    if t.family == "E" and n == 6:
        return (0, 5, 4, 3, 2, 1)
    if t.family == "I2" and t.m % 2 == 1:
        return (1, 0)
    return None


class GroupFamilyReport(NamedTuple):
    """Which known-hypothesis families the whole group falls into."""

    spherical: bool
    fc_type: bool
    free_product_of_spherical: bool
    free_factors: tuple[tuple[VertexSet, tuple[str, ...]], ...] | None
    large: bool
    two_dimensional: bool
    martin_2dim_condition: bool
    affine_family: str | None
    applicability: str  # "FullStability" | "QuasiStability" | "Unknown"
    justification: str

    def to_json_dict(self) -> dict:
        factors = None if self.free_factors is None else [
            {"generators": list(gens), "types": list(types)} for gens, types in self.free_factors
        ]
        return {**self._asdict(), "free_factors": factors}


def _fc_type(g: CoxeterGraph, fin: list[int]) -> bool:
    """Whether every clique of the finite-label masks fin is spherical.  A
    clique is spherical when its components are, and a set holding a
    non-spherical connected set is not spherical, so it suffices that each
    maximal connected clique is.  They are grown depth first from single
    vertices, one neighbour at a time: an entry is a clique C, the mask
    near of its neighbours and the mask common of the vertices joined to
    all of C by finite labels."""
    seen: set[int] = set()
    stack = [(1 << i, g.nbrs[i], fin[i]) for i in range(len(fin))]
    while stack:
        C, near, common = stack.pop()
        grow = near & common & ~C
        if not grow and g.typed(C) is None:
            return False
        for j in _bits(grow):
            if (D := C | 1 << j) not in seen:
                seen.add(D)
                stack.append((D, near | g.nbrs[j], common & fin[j]))
    return True


def _two_dimensional(fin: list[int], finite: list[dict[int, int]]) -> bool:
    """Whether 1/a + 1/b + 1/c <= 1, as bc + ac + ab <= abc, for the labels
    of every triple.  One infinite label passes (1/m1 + 1/m2 <= 1), so only
    triples joined pairwise in the finite-label masks fin are tested;
    finite[i] maps j to its label m >= 3, a missing j reading 2."""
    for i, fin_i in enumerate(fin):
        above = fin_i & -(2 << i)
        for j in _bits(above):
            a = finite[i].get(j, 2)
            for k in _bits(above & fin[j] & -(2 << j)):
                b, c = finite[i].get(k, 2), finite[j].get(k, 2)
                if b * c + a * c + a * b > a * b * c:
                    return False
    return True


def _affine_family(g: CoxeterGraph) -> str | None:
    """A~n for a cycle of label-3 edges, C~n for a path labelled
    4, 3, ..., 3, 4; None otherwise."""
    nbrs = g.nbrs
    n = len(nbrs)
    full = (1 << n) - 1
    if n < 3 or g.flood(1, full) != full:
        return None
    deg = [mask.bit_count() for mask in nbrs]
    if all(d == 2 for d in deg):
        return f"A~{n - 1}" if all(m == 3 for m in g.labels.values()) else None
    leaves = [i for i, d in enumerate(deg) if d == 1]
    if len(leaves) == 2 and deg.count(2) == n - 2:
        path = _path(nbrs, leaves[0], n)
        lseq = [g.label(g.generators[a], g.generators[b]) for a, b in zip(path, path[1:])]
        if lseq[0] == 4 and lseq[-1] == 4 and all(m == 3 for m in lseq[1:-1]):
            return f"C~{n - 1}"
    return None


def classify_group(g: CoxeterGraph) -> GroupFamilyReport:
    """Classify the whole group into the families with known hypotheses.

    FullStability means the stability decision applies as stated; for an
    FC-type group outside those families the decision has quasi-stability
    semantics; anything else is reported Unknown.  Runs on the masks of g,
    whose memo recognizes each component once per graph.
    """
    n = len(g.generators)
    full = (1 << n) - 1
    # the finite-label masks (m = 2 included) and the finite labels m >= 3
    fin = [full & ~(1 << i) & ~inf for i, inf in enumerate(g.inf)]
    finite: list[dict[int, int]] = [{} for _ in range(n)]
    for (s, t), m in g.labels.items():
        if m != INFINITY:
            i, j = g.index[s], g.index[t]
            finite[i][j] = finite[j][i] = m

    def decomposition(X: int) -> list[TypedComponent] | None:
        """Typed components of mask X, None when one is not spherical."""
        out = []
        for comp in g.components(X):
            out.append(g.typed(comp))
            if out[-1] is None:
                return None
        return out

    spherical = decomposition(full) is not None
    fc_type = spherical or _fc_type(g, fin)

    factor_masks = g.components(full, fin)
    factor_decomps = [decomposition(f) for f in factor_masks]
    free_product = all(d is not None for d in factor_decomps)
    free_factors = None
    if free_product:
        free_factors = tuple(
            (g.names(f), tuple(str(tc.type) for tc in dec))
            for f, dec in zip(factor_masks, factor_decomps)
        )

    large = len(g.labels) == n * (n - 1) // 2 and all(m != 2 for m in g.labels.values())
    two_dimensional = _two_dimensional(fin, finite)
    martin = two_dimensional and all(
        (full & ~(1 << i) & ~mask).bit_count() <= 1 for i, mask in enumerate(g.nbrs)
    )
    affine = _affine_family(g)

    if spherical:
        applicability, why = "FullStability", "the whole group is of spherical type"
    elif free_product:
        applicability, why = (
            "FullStability",
            "the group is a free product of spherical-type factors",
        )
    elif martin:
        applicability, why = (
            "FullStability",
            "two-dimensional with every vertex commuting with at most one "
            "other (commuting read as m = 2)",
        )
    elif affine is not None:
        applicability, why = "FullStability", f"Euclidean group of type {affine}"
    elif fc_type:
        applicability, why = (
            "QuasiStability",
            "FC-type group: verdicts carry quasi-stability semantics",
        )
    else:
        applicability, why = "Unknown", "hypotheses unknown for this family"

    return GroupFamilyReport(
        spherical=spherical,
        fc_type=fc_type,
        free_product_of_spherical=free_product,
        free_factors=free_factors,
        large=large,
        two_dimensional=two_dimensional,
        martin_2dim_condition=martin,
        affine_family=affine,
        applicability=applicability,
        justification=why,
    )


# The catalog diagrams other than I2, by family: the smallest and the largest
# rank (None: unbounded), the rank rule as an error states it, the edges off
# the label-3 path and the position where that path starts; it runs to n.
_CATALOG = {
    "A": (1, None, "rank >= 1", {}, 0),
    "B": (2, None, "rank >= 2", {(0, 1): 4}, 1),
    "D": (4, None, "rank >= 4", {(0, 2): 3, (1, 2): 3}, 2),
    "E": (6, 8, "rank 6, 7 or 8", {(0, 3): 3}, 1),
    "F": (4, 4, "rank 4", {(0, 1): 3, (1, 2): 4, (2, 3): 3}, 3),
    "H": (3, 4, "rank 3 or 4", {(0, 1): 5}, 1),
}


def _diagram(family: str, n: int, m: int = 0) -> dict[tuple[int, int], int]:
    """The labelled edges of a catalog diagram as 0-based position pairs,
    numbered as in ``TypedComponent``; I2 has rank 2 and edge label m.
    Raises ValueError for a type outside the catalog."""
    if family == "I2":
        if m < 3:
            raise ValueError("I2 needs an edge label m >= 3")
        return {(0, 1): m}
    if family not in _CATALOG:
        raise ValueError(f"unknown family {family!r}")
    low, high, rule, edges, start = _CATALOG[family]
    if n < low or (high is not None and n > high):
        raise ValueError(f"{family} needs {rule}")
    return {**edges, **{(i, i + 1): 3 for i in range(start, n - 1)}}


def standard_graph(family: str, n: int = 0, m: int = 0) -> CoxeterGraph:
    """Build the catalog diagram of the given type on generators s1..sn,
    or on s1, s2 for I2(m).  Only I2 takes m, and its n is 2 or left out
    (0); any other n or m is a ValueError, as is a type outside the
    catalog."""
    edges = _diagram(family, n, m)
    if family == "I2" and n not in (0, 2):
        raise ValueError(f"I2 has rank 2, got n = {n}")
    if family != "I2" and m:
        raise ValueError(f"{family} takes no edge label m, got m = {m}")
    n = 2 if family == "I2" else n
    return CoxeterGraph.build(
        [f"s{i}" for i in range(1, n + 1)],
        [(f"s{i + 1}", f"s{j + 1}", label) for (i, j), label in edges.items()],
    )
