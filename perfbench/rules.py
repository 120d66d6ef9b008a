"""Independent rules for conjugacy of subsets lying on a chain or a cycle.

On A_n (generators s_1..s_n on a chain), the standard parabolic subgroups on
X and X' are conjugate exactly when the partitions of {1..n+1} they induce
(s_i joins i and i+1) have the same multiset of block sizes: they are the
Young subgroups of the symmetric group (L. Paris, J. Algebra 196, 1997).
On the cycle A~(n-1) with a proper subset, the runs of X slide and swap
freely, so the class is the multiset of run lengths.  Inside the tail chain
of D_n the A rule gives reachable targets.  Nothing here calls the library.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb, factorial


def runs(line: tuple[int, ...], X, cyclic: bool = False) -> list[int]:
    """Lengths of the maximal runs of X along the line, sorted."""
    inside = [v in X for v in line]
    if cyclic and all(inside):
        raise ValueError("a run covering the whole cycle")
    if cyclic and inside[0]:
        k = inside.index(False)
        inside = inside[k:] + inside[:k]
    out, cur = [], 0
    for flag in inside:
        if flag:
            cur += 1
        elif cur:
            out.append(cur)
            cur = 0
    if cur:
        out.append(cur)
    return sorted(out)


def a_blocks(line: tuple[int, ...], X) -> list[int]:
    """Block sizes of the partition of {1..n+1} induced by X on the chain."""
    parent = list(range(len(line) + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for pos, v in enumerate(line):
        if v in X:
            parent[find(pos)] = find(pos + 1)
    return sorted(Counter(find(i) for i in range(len(line) + 1)).values())


def a_conjugate(line: tuple[int, ...], X, Y) -> bool:
    return a_blocks(line, X) == a_blocks(line, Y)


def _arrangements(mult: Counter) -> int:
    out = factorial(sum(mult.values()))
    for m in mult.values():
        out //= factorial(m)
    return out


def class_size(length: int, run_lengths: list[int], cyclic: bool) -> int:
    """How many subsets of the line have the given run lengths."""
    r, total = len(run_lengths), sum(run_lengths)
    if not cyclic:
        blocks = Counter(k + 1 for k in run_lengths)
        blocks[1] = length + 1 - total - r
        return _arrangements(blocks)
    gaps = length - total
    return length * _arrangements(Counter(run_lengths)) * comb(gaps - 1, r - 1) // r


def place(line: tuple[int, ...], run_lengths: list[int], rng: random.Random, cyclic: bool) -> list[int]:
    """A seeded subset of the line with the given run lengths."""
    order = list(run_lengths)
    rng.shuffle(order)
    r, free = len(order), len(line) - sum(order)
    # gaps[0] before the first run, gaps[r] after the last; inner gaps >= 1
    need = r if cyclic else r - 1
    extra = free - need
    if extra < 0:
        raise ValueError("runs do not fit on the line")
    cuts = sorted(rng.randint(0, extra) for _ in range(r))
    share = [b - a for a, b in zip([0] + cuts, cuts + [extra])]
    gaps = [share[0]] + [1 + s for s in share[1:r]] + [share[r] + (1 if cyclic else 0)]
    out, pos = [], gaps[0]
    for i, k in enumerate(order):
        out.extend(line[pos : pos + k])
        pos += k + gaps[i + 1]
    if cyclic:
        shift = rng.randrange(len(line))
        where = {v: i for i, v in enumerate(line)}
        out = [line[(where[v] + shift) % len(line)] for v in out]
    return sorted(out)


def packed(line: tuple[int, ...], order: list[int], start: int) -> list[int]:
    """Runs in the given order, one vertex apart, from line position start
    (taken modulo the length, so it wraps on a cycle)."""
    out, pos = [], start
    for k in order:
        out.extend(line[(pos + i) % len(line)] for i in range(k))
        pos += k + 1
    return sorted(out)


def other_split(run_lengths: list[int]) -> list[int]:
    """Run lengths with the same total and a different number of runs: the
    subgroups then differ in abelianization rank, so they are never
    conjugate."""
    if len(run_lengths) > 1:
        merged = sorted(run_lengths)
        return sorted(merged[2:] + [merged[0] + merged[1]])
    k = run_lengths[0]
    return [k - 1, 1] if k > 1 else [1]


def components(adj: dict[int, set[int]], X) -> list[frozenset[int]]:
    """Connected components of X in the graph, by plain search."""
    left, out = set(X), []
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            v = stack.pop()
            for w in adj[v] & left:
                left.discard(w)
                comp.add(w)
                stack.append(w)
        out.append(frozenset(comp))
    return out
