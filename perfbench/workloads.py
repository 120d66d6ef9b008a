"""The three seeded workloads: graph pools, query classes and the deck.

Every workload is a closed loop with one client: the next query is sent when
the previous one has returned.  Queries come in cycles.  A cycle draws one
query per slot of the workload's pattern; each slot names a class, and each
class walks through its pool in a seeded order, reshuffled on every pass.
The cost of a cycle therefore barely depends on the seed, and a run that
measures whole cycles measures the same mix whatever the seed.  The seed
decides generator names, the order within each pool, the placement of
subsets and the targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import rules
import shapes as sh


@dataclass(frozen=True)
class Query:
    qid: int
    kind: str
    graph: str
    X: tuple[int, ...]
    target: tuple[int, ...] = ()
    expand: bool = False
    expect: str = ""
    scale: tuple[str, ...] = ()


@dataclass
class ClassPool:
    entries: list
    make: Callable[[random.Random, object], dict]
    order: list = field(default_factory=list)


class Deck:
    """Seeded, endless sequence of query cycles for one workload."""

    def __init__(self, name: str, seed: int, size: str):
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")
        build = {"cli-scan": _cli_scan, "stab-deep": _stab_deep, "orbit-large": _orbit_large}[name]
        self.shapes: dict[str, sh.Shape] = {}
        self.pattern, self.pools = build(self, size == "tiny")
        self.named = {
            key: sh.Named(s, tuple(sh.generator_names(s.n, self.rng)))
            for key, s in sorted(self.shapes.items())
        }
        self.next_qid = 0

    def add(self, shape: sh.Shape) -> str:
        self.shapes.setdefault(shape.name, shape)
        return shape.name

    def next_cycle(self) -> list[Query]:
        out = []
        for cls in self.pattern:
            pool = self.pools[cls]
            if not pool.order:
                pool.order = list(pool.entries)
                self.rng.shuffle(pool.order)
            entry = pool.order.pop()
            spec = pool.make(self.rng, entry)
            out.append(Query(qid=self.next_qid, **spec))
            self.next_qid += 1
        return out


# ---------------------------------------------------------------- stab-deep

# Each entry drops vertices from a shape; its verdict and witness kind do
# not depend on generator names.  Classes group entries of similar cost
# (single-core seconds at the commit that introduced the benchmark), so the
# mix, and with it the median, stays put from seed to seed.
_HEAVY = ["A8/0", "A8/7", "E8/0"]  # stable, |X| = 7, 2.2-2.9 s
_MID7 = ["A7/0", "A7/6", "D7/0", "D7/1", "E7/0", "E7/6"]  # stable, |X| = 6, 0.45-0.55 s
_MID8 = ["A8/0,1", "A8/0,7", "A8/6,7", "E8/0,1", "E8/0,7", "E8/1,2", "E8/6,7",
         "D8/0,1", "D8/0,7", "D8/1,7", "H4+A4/0", "H4+A4/4", "H4+A4/7"]  # stable, 0.65-0.9 s
_LIGHT = ["A7/0,1", "A7/0,6", "A7/5,6", "E7/0,1", "E7/0,6", "E7/1,2",
          "D7/0,1", "D7/0,6", "D7/1,6", "D7/5,6", "B7/1", "B7/6",
          "F4+A3/0", "F4+A3/1", "F4+A3/2", "F4+A3/3", "F4+A3/4", "F4+A3/6"]  # stable, 0.06-0.2 s
_EARLY = {  # not stable, found early: 1-60 ms
    "A8/1": "permutation", "A8/4": "permutation", "A8/0,2": "permutation",
    "B8/2": "permutation", "B8/3": "permutation", "D8/3": "permutation",
    "D8/4": "d4_exception", "D8/6": "d2k_exception", "E8/1": "d4_exception",
    "E8/7": "d2k_exception", "E8/4": "permutation", "E8/1,7": "d2k_exception",
    "D7/4": "d4_exception", "E7/1,5": "d4_exception", "H4+A4/1": "permutation",
}
_TINY_STAB = {"stable": ["A4/0", "A4/3", "B4/0", "D5/0", "D5/1"],
              "early": {"A5/1": "permutation", "D5/4": "d4_exception", "E6/1": "d4_exception"}}


def _stab_shape(name: str) -> sh.Shape:
    table = {"F4+A3": lambda: sh.union(sh.type_f4(), sh.chain(3)),
             "H4+A4": lambda: sh.union(sh.type_h4(), sh.chain(4))}
    if name in table:
        return table[name]()
    family, n = name[0], int(name[1:])
    return {"A": sh.chain, "B": sh.type_b, "D": sh.type_d, "E": sh.type_e}[family](n)


def _stab_deep(deck: Deck, tiny: bool):
    def entry(code: str, expect: str) -> tuple[str, tuple[int, ...], str]:
        name, drop = code.split("/")
        key = deck.add(_stab_shape(name))
        dropped = {int(v) for v in drop.split(",")}
        X = tuple(v for v in range(deck.shapes[key].n) if v not in dropped)
        return key, X, expect

    def make(rng, e):
        key, X, expect = e
        return {"kind": "decide", "graph": key, "X": X, "expect": expect,
                "scale": (f"x{len(X)}",)}

    if tiny:
        stable = [entry(c, "stable") for c in _TINY_STAB["stable"]]
        early = [entry(c, "not_stable:" + k) for c, k in _TINY_STAB["early"].items()]
        pools = {"stable": ClassPool(stable, make), "early": ClassPool(early, make)}
        return ["stable", "early", "stable"], pools
    pools = {
        "heavy": ClassPool([entry(c, "stable") for c in _HEAVY], make),
        "mid7": ClassPool([entry(c, "stable") for c in _MID7], make),
        "mid8": ClassPool([entry(c, "stable") for c in _MID8], make),
        "light": ClassPool([entry(c, "stable") for c in _LIGHT], make),
        "early": ClassPool([entry(c, "not_stable:" + k) for c, k in _EARLY.items()], make),
    }
    # Per cycle: 2 early, 1 light, 5 mid7, 1 mid8, 1 heavy: three queries
    # below the mid7 class and two above, so the median is its middle.
    pattern = ["mid7", "early", "mid7", "heavy", "mid7", "light", "mid7", "early", "mid8", "mid7"]
    return pattern, pools


# -------------------------------------------------------------- orbit-large

def _line_shape(name: str) -> sh.Shape:
    family, n = name.rstrip("0123456789"), int(name.lstrip("ADt"))
    return {"A": sh.chain, "At": sh.cycle, "D": sh.type_d}[family](n)


# "runs" are the run lengths of X on the chain, the cycle or the D tail.
_ORBIT_SMALL = ["A24:2", "A40:2", "At24:2", "At40:2", "A32:3", "At32:3", "D40:2"]  # 20-40 entries
_ORBIT_MID = ["A24:1,1", "At24:1,1", "D24:1,1", "A24:2,2", "At24:2,2", "D16:1,1,1"]  # 180-250
_ORBIT_LARGE = ["A40:1,1", "At40:1,1", "D40:1,1", "A32:2,1", "At32:2,1"]  # 740-900
_ORBIT_XL = ["A40:2,1", "At40:2,1", "A24:1,1,1", "At24:1,1,1"]  # 1,400-1,540
_TINY_ORBIT = ["A8:1,1", "At8:2,1", "D8:1,1", "A10:2"]


def _orbit_large(deck: Deck, tiny: bool):
    def entries(codes):
        out = []
        for code in codes:
            name, runs = code.split(":")
            key = deck.add(_line_shape(name))
            for kind in ("orbit", "reach", "far"):
                out.append((key, [int(k) for k in runs.split(",")], kind))
        return out

    def make(rng, e):
        key, runs, kind = e
        s = deck.shapes[key]
        X = tuple(rules.place(s.line, runs, rng, s.cyclic))
        target: tuple[int, ...] = ()
        if kind == "reach":
            # X packed at one place, the target half the line away: the
            # search stops part-way at a depth the seed barely moves.
            order = list(runs)
            rng.shuffle(order)
            start = rng.randrange(len(s.line)) if s.cyclic else 0
            X = tuple(rules.packed(s.line, order, start))
            target = tuple(rules.packed(s.line, order[::-1], start + len(s.line) // 2))
        elif kind == "far":
            target = tuple(rules.place(s.line, rules.other_split(runs), rng, s.cyclic))
        return {"kind": kind, "graph": key, "X": X, "target": target,
                "scale": (f"n{s.n}",)}

    if tiny:
        return ["all", "all"], {"all": ClassPool(entries(_TINY_ORBIT), make)}
    pools = {
        "small": ClassPool(entries(_ORBIT_SMALL), make),
        "mid": ClassPool(entries(_ORBIT_MID), make),
        "large": ClassPool(entries(_ORBIT_LARGE), make),
        "xl": ClassPool(entries(_ORBIT_XL), make),
    }
    # Per cycle: 6 small, 10 mid, 3 large, 1 xl: the median falls in the
    # middle of the mid class and the 90th percentile in the large class.
    pattern = ["mid", "small", "large", "mid", "small", "mid", "mid", "small", "xl", "mid",
               "small", "mid", "large", "mid", "small", "mid", "mid", "small", "large", "mid"]
    return pattern, pools


# ----------------------------------------------------------------- cli-scan

_CLI_KINDS = ("A", "B", "D", "At", "Ct", "Fc", "Rn")
_LINE_KINDS = ("A", "At", "D")


def _cli_shape(kind: str, n: int, rng: random.Random) -> sh.Shape:
    if kind == "Rn":
        return sh.random_non_fc(n, rng)
    return {"A": sh.chain, "B": sh.type_b, "D": sh.type_d, "At": sh.cycle,
            "Ct": sh.affine_c, "Fc": sh.fc_chain}[kind](n)


def _cli_scan(deck: Deck, tiny: bool):
    ranks = range(6, 9) if tiny else range(10, 17)
    every = [deck.add(_cli_shape(kind, n, deck.rng)) for kind in _CLI_KINDS for n in ranks]

    def any_subset(rng, s, k):
        return tuple(sorted(rng.sample(range(s.n), k)))

    def stab(rng, key):
        s = deck.shapes[key]
        # |X| = 3 above rank 13 reaches seconds (the closure through S grows)
        X = any_subset(rng, s, rng.randint(1, 3 if s.n <= 13 else 2))
        return {"kind": "stability", "graph": key, "X": X, "expand": rng.random() < 0.4,
                "scale": (f"x{len(X)}", f"n{s.n}")}

    def classify(rng, key):
        return {"kind": "classify", "graph": key, "X": (), "scale": (f"n{deck.shapes[key].n}",)}

    def type_(rng, key):
        s = deck.shapes[key]
        return {"kind": "type", "graph": key, "X": any_subset(rng, s, rng.randint(1, min(6, s.n - 1))),
                "scale": (f"n{s.n}",)}

    def conj(rng, key):
        s = deck.shapes[key]
        k = rng.randint(1, 3)
        X = any_subset(rng, s, k)
        if s.line and len(s.line) == s.n and rng.random() < 0.5:
            target = tuple(rules.place(s.line, rules.runs(s.line, X, s.cyclic), rng, s.cyclic))
        else:
            target = any_subset(rng, s, k)
        return {"kind": "conjugate", "graph": key, "X": X, "target": target,
                "expand": rng.random() < 0.25, "scale": (f"n{s.n}",)}

    def orbit(rng, key):
        s = deck.shapes[key]
        X = tuple(rules.place(s.line, [rng.randint(1, min(4, len(s.line) - 2))], rng, s.cyclic))
        return {"kind": "orbit", "graph": key, "X": X, "expand": rng.random() < 0.25,
                "scale": (f"n{s.n}",)}

    # The top rank is drawn three times as often by the calls that classify,
    # so the 90th percentile falls inside its group, not at its edge.
    top = [key for key in every if deck.shapes[key].n == ranks[-1]] * 2
    pools = {
        "stab": ClassPool(every + top, stab),
        "classify": ClassPool(every + top, classify),
        "type": ClassPool(every, type_),
        "conj": ClassPool([k for k in every if deck.shapes[k].kind != "Rn"], conj),
        "orbit": ClassPool([k for k in every if deck.shapes[k].kind in _LINE_KINDS], orbit),
    }
    pattern = ["stab", "type", "stab", "classify", "conj", "stab", "orbit", "stab",
               "classify", "type", "stab", "conj", "stab", "orbit", "stab", "classify",
               "type", "stab", "conj", "orbit"]
    if tiny:
        pattern = pattern[:10]
    return pattern, pools
