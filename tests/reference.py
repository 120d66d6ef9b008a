"""An independent name-tuple reference for the twist searches and the
stability decision, for the tests that compare the library with it.

It is built from the public ``components``, ``adjacent`` and
``delta_automorphism`` only, never from the library's mask engine (the
step functions of ``twist``), its recognizer or its searches, so a fault
in any of them shows as a mismatch.  Components are recognized by
``recognize``, a matcher of its own on labelled name tuples.  Everything
runs on canonical name tuples: a plain BFS over subsets
(``Reference.orbit``), over component tuples (``Reference.closure``), and
the three scans of the decision (``Reference.decision``).
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from artinstab import (
    INFINITY,
    ConjugatorWord,
    CoxeterGraph,
    IrreducibleType,
    TwistFactor,
    TypedComponent,
    adjacent,
    components,
    delta_automorphism,
)


def _path_order(adj, start, n):
    order = [start]
    prev = None
    cur = start
    while len(order) < n:
        nxt = [w for w in adj[cur] if w != prev]
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order


def recognize(g: CoxeterGraph, Ys) -> TypedComponent | None:
    """The catalog type and positions of a connected canonical tuple Ys,
    None when it is not of finite type, found on names and labels."""
    n = len(Ys)
    if n == 1:
        return TypedComponent(IrreducibleType("A", 1), Ys)

    lab = {}
    adj = {v: [] for v in Ys}
    edges = 0
    for i, s in enumerate(Ys):
        for t in Ys[i + 1 :]:
            m = g.label(s, t)
            if m == 2:
                continue
            if m == INFINITY:
                return None
            edges += 1
            adj[s].append(t)
            adj[t].append(s)
            lab[frozenset((s, t))] = int(m)
    if edges != n - 1:
        return None  # every catalog diagram is a tree

    if n == 2:
        m = lab[frozenset(Ys)]
        if m == 3:
            return TypedComponent(IrreducibleType("A", 2), Ys)
        if m == 4:
            return TypedComponent(IrreducibleType("B", 2), Ys)
        return TypedComponent(IrreducibleType("I2", 2, m), Ys)

    deg = {v: len(adj[v]) for v in Ys}
    if max(deg.values()) > 3:
        return None
    branches = [v for v in Ys if deg[v] == 3]

    if not branches:
        leaves = sorted(v for v in Ys if deg[v] == 1)
        seq = _path_order(adj, leaves[0], n)
        lseq = [lab[frozenset((seq[i], seq[i + 1]))] for i in range(n - 1)]
        if all(m == 3 for m in lseq):
            return TypedComponent(IrreducibleType("A", n), tuple(seq))
        if n == 4 and lseq == [3, 4, 3]:
            return TypedComponent(IrreducibleType("F", 4), tuple(seq))
        others = sorted(set(lseq) - {3})
        if others == [4] and lseq.count(4) == 1 and 4 in (lseq[0], lseq[-1]):
            if lseq[-1] == 4:
                seq.reverse()
            return TypedComponent(IrreducibleType("B", n), tuple(seq))
        if (
            n in (3, 4)
            and others == [5]
            and lseq.count(5) == 1
            and 5 in (lseq[0], lseq[-1])
        ):
            if lseq[-1] == 5:
                seq.reverse()
            return TypedComponent(IrreducibleType("H", n), tuple(seq))
        return None

    if len(branches) > 1 or any(m != 3 for m in lab.values()):
        return None
    b = branches[0]
    arms = []
    for x in sorted(adj[b]):
        arm = [x]
        prev, cur = b, x
        while deg[cur] == 2:
            nxt = [w for w in adj[cur] if w != prev][0]
            arm.append(nxt)
            prev, cur = cur, nxt
        arms.append(arm)
    arms.sort(key=len)
    lens = [len(a) for a in arms]

    if lens[0] == 1 and lens[1] == 1:
        if n == 4:
            a, c, d = sorted(arm[0] for arm in arms)
            return TypedComponent(IrreducibleType("D", 4), (a, c, b, d))
        prongs = sorted((arms[0][0], arms[1][0]))
        return TypedComponent(
            IrreducibleType("D", n), (prongs[0], prongs[1], b, *arms[2])
        )
    if lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
        if lens[2] == 2 and arms[2][-1] < arms[1][-1]:
            arms[1], arms[2] = arms[2], arms[1]
        short, mid, long = arms
        return TypedComponent(
            IrreducibleType("E", n), (short[0], mid[1], mid[0], b, *long)
        )
    return None


def twistable(tc: TypedComponent) -> bool:
    """Whether conjugation by the component's Garside element moves some
    vertex, as ``delta_automorphism`` says."""
    return any(v != w for v, w in delta_automorphism(tc).items())


def subsets_descending(X):
    for size in range(len(X), 0, -1):
        yield from combinations(X, size)


def is_d2k(tc) -> bool:
    return tc is not None and tc.type.family == "D" and tc.type.rank >= 6 and tc.type.rank % 2 == 0


def is_d4(tc) -> bool:
    return tc is not None and tc.type.family == "D" and tc.type.rank == 4


def odd_extension(g, X, Y, end, outside):
    """The first vertex t adjacent to end, outside X (or else in X but not
    in Y), with the component of Y + t containing end of odd type D."""
    for t in adjacent(g, (end,)):
        if (t not in X) if outside else (t in X and t not in Y):
            comp = next(c for c in components(g, Y + (t,)) if end in c)
            tc = recognize(g, comp)
            if tc is not None and tc.type.family == "D" and tc.type.rank % 2 == 1:
                return t
    return None


def site(g, X, Y, tc):
    """(leaf, outside vertex) of the obstruction at a D component of Y, the
    leaf None for D_2k; None without an obstruction."""
    p = tc.positions
    if is_d2k(tc):
        attach = odd_extension(g, X, Y, p[-1], True)
        if attach is None or odd_extension(g, X, Y, p[-1], False) is not None:
            return None
        return None, attach
    leaves = (p[0], p[1], p[3])
    for leaf in leaves:
        attach = odd_extension(g, X, Y, leaf, True)
        if attach is None or odd_extension(g, X, Y, leaf, False) is not None:
            continue
        if all(odd_extension(g, X, Y, o, False) is not None for o in leaves if o != leaf):
            continue
        return leaf, attach
    return None


class Reference:
    """The reference computations on one graph.  What depends on the graph
    alone is kept: the twist at each (union, t), the recognized components
    of each subset and the closure of each subset under all twists."""

    def __init__(self, g: CoxeterGraph):
        self.g = g
        self.twists: dict = {}
        self.typed: dict = {}
        self.external: dict = {}

    def twist(self, union, t):
        """(C, the involution its Garside element induces on C, the factor)
        for the component C of union + t containing t, None when C is not
        twistable.  union is canonical and t adjacent to it."""
        key = union, t
        if key not in self.twists:
            comp = next(c for c in components(self.g, union + (t,)) if t in c)
            tc = recognize(self.g, comp)
            self.twists[key] = (
                None
                if tc is None or not twistable(tc)
                else (comp, delta_automorphism(tc), TwistFactor(tc.vertices, 1))
            )
        return self.twists[key]

    def moves(self, union, inside=None):
        """(t, twist) for each t adjacent to union, and in inside when it is
        given, whose component is twistable, in the order of ``adjacent``."""
        for t in adjacent(self.g, union):
            if inside is None or t in inside:
                twist = self.twist(union, t)
                if twist is not None:
                    yield t, twist

    def orbit(self, X) -> dict:
        """The twist closure of X, {subset: word} in BFS order: the twist at
        t replaces C by C minus the image of t."""
        start = self.g.subset(X)
        table = {start: ConjugatorWord()}
        queue = deque([start])
        while queue:
            Y = queue.popleft()
            for t, (C, tau, factor) in self.moves(Y):
                Z = tuple(sorted((set(Y) - set(C)) | (set(C) - {tau[t]})))
                if Z not in table:
                    table[Z] = table[Y].extended(factor)
                    queue.append(Z)
        return table

    def closure(self, X1, inside=None) -> dict:
        """The closure of the component tuple of X1 under twists at the
        vertices of inside (all when None), {tuple: word} in BFS order:
        every part takes its image under the twisted component."""
        start = tuple(components(self.g, X1))
        table = {start: ConjugatorWord()}
        queue = deque([start])
        while queue:
            T = queue.popleft()
            union = tuple(sorted(v for part in T for v in part))
            for _, (_, tau, factor) in self.moves(union, inside):
                Z = tuple(tuple(sorted(tau.get(v, v) for v in part)) for part in T)
                if Z not in table:
                    table[Z] = table[T].extended(factor)
                    queue.append(Z)
        return table

    def typed_components(self, Y):
        if Y not in self.typed:
            self.typed[Y] = [recognize(self.g, c) for c in components(self.g, Y)]
        return self.typed[Y]

    def d_sites(self, X):
        """(Y, D_2k or D_4 component) for every subset Y of X, largest first."""
        for Y in subsets_descending(X):
            for tc in self.typed_components(Y):
                if is_d2k(tc) or is_d4(tc):
                    yield Y, tc

    def decision(self, X) -> dict | None:
        """The witness JSON of the decision on X, None when stable: the D_2k
        scan, the D_4 scan, then for each subset X1 the first tuple inside X
        of its closure under all twists that its closure under twists
        inside X misses.  That second closure is built only when the first
        holds a tuple inside X other than the start."""
        g = self.g
        for kind, applies in (("d2k_exception", is_d2k), ("d4_exception", is_d4)):
            for Y, tc in self.d_sites(X):
                found = site(g, X, Y, tc) if applies(tc) else None
                if found is not None:
                    out = {"kind": kind, "subset": list(Y), "component": list(tc.positions)}
                    if found[0] is not None:
                        out["leaf"] = found[0]
                    out["attach"] = found[1]
                    return out
        inside = set(X)
        for X1 in subsets_descending(X):
            if X1 not in self.external:
                self.external[X1] = self.closure(X1)
            within = [
                (T, word)
                for T, word in self.external[X1].items()
                if all(set(part) <= inside for part in T)
            ]
            if len(within) == 1:  # the start tuple alone
                continue
            internal = self.closure(X1, inside)
            for T, word in within:
                if T not in internal:
                    return {
                        "kind": "permutation",
                        "subset": list(X1),
                        "tuple": [list(part) for part in T],
                        "word": word.to_json_list(),
                    }
        return None
