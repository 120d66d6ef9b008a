"""Tracing from outside the program: wrap the public functions of each
module of the library, without touching its source.

Span calls record (id, name, start, end, parent, query id) in memory; hot
calls only count calls and time.  Every wrapped call keeps its inclusive
and self time (duration minus the time of wrapped calls beneath it).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute, mode): "span" records spans, "hot" counts only.
TARGETS = [
    ("cli", "main", "span"),
    ("classify", "classify_group", "span"),
    ("stability", "decide_stability", "span"),
    ("stability", "tuple_orbit", "span"),
    ("orbit", "orbit", "span"),
    ("orbit", "conjugator", "span"),
    ("graph", "parse_graph", "hot"),
    ("oracle", "expand_subset", "hot"),
    ("graph", "components", "hot"),
    ("graph", "adjacent", "hot"),
    ("graph", "CoxeterGraph.subset", "hot"),
    ("classify", "recognize_component", "hot"),
    ("twist", "elementary_twist", "hot"),
    ("stability", "tuple_twist", "hot"),
    ("twist", "delta_conjugate_set", "hot"),
]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.extra: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.stack: list[list] = [[0.0, None]]  # frames: [child time, span id]
        self.qid: int | None = None
        self.search: set | None = None
        self.next_sid = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ counters
    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def add(self, key: str, n: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + n

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.extra.clear()
        self.spans.clear()

    # ---------------------------------------------------------------- spans
    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span that is also a frame for self time."""
        st = self._stat(name)
        sid = f"{self.qid}.{self.next_sid}"
        self.next_sid += 1
        frame = [0.0, sid]
        parent = self.stack[-1][1]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            dt = t1 - t0
            self.stack[-1][0] += dt
            st[0] += 1
            st[1] += dt
            st[2] += dt - frame[0]
            self.spans.append((sid, name, t0, t1, parent, self.qid))

    def _hot(self, name: str, fn):
        st = self._stat(name)
        stack = self.stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]

        return wrapper

    def _wrapper(self, module: str, attr: str, mode: str, fn):
        name = f"{module}.{attr.split('.')[-1]}"
        if attr == "tuple_orbit":
            def tuple_orbit(g, X1, allowed=None):
                kind = "external" if allowed is None else "internal"
                table = self.span(f"stability.tuple_orbit.{kind}", fn, g, X1, allowed)
                self.add(f"stability.tuple_orbit.{kind}.states", len(table))
                return table
            return tuple_orbit
        if attr in ("orbit", "conjugator"):
            def search(g, X, *rest):
                self.search = set()
                try:
                    return self.span(name, fn, g, X, *rest)
                finally:
                    states = len(self.search | {tuple(sorted(set(X)))})
                    self.search = None
                    self.add("orbit.states", states)
                    self.add("orbit.new_states", states - 1)
            return search
        if mode == "span":
            return lambda *args, **kwargs: self.span(name, fn, *args, **kwargs)
        hot = self._hot(name, fn)
        if attr == "elementary_twist":
            def twist(*args, **kwargs):
                step = hot(*args, **kwargs)
                if step is not None:
                    self.add("twist.elementary_twist.useful", 1)
                    if self.search is not None:
                        self.search.add(step[0])
                return step
            return twist
        return hot

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        """Replace every binding of each target in every loaded module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "artinstab" or k.startswith("artinstab."))]
        for module, attr, mode in TARGETS:
            owner = sys.modules[f"artinstab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrapper(module, attr, mode, fn))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrapper(module, attr, mode, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, fn = self._undo.pop()
            setattr(owner, key, fn)

    # ------------------------------------------------------- child processes
    def dump(self) -> dict:
        return {"stats": self.stats, "extra": self.extra, "spans": self.spans}

    def merge(self, data: dict) -> None:
        for name, (calls, incl, self_s) in data["stats"].items():
            st = self._stat(name)
            st[0] += calls
            st[1] += incl
            st[2] += self_s
        for key, n in data["extra"].items():
            self.add(key, n)
        self.spans.extend(tuple(s) for s in data["spans"])

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "query")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    # -------------------------------------------------------------- metrics
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        c, inc, slf, x = self.calls, self.inclusive, self.self_time, self.extra.get
        internal, external = "stability.tuple_orbit.internal", "stability.tuple_orbit.external"
        twists = c("twist.elementary_twist")
        useful = x("twist.elementary_twist.useful", 0)
        return {
            "classify.classify_group.calls": (c("classify.classify_group"), "count"),
            "classify.classify_group.s": (inc("classify.classify_group"), "s"),
            "stability.decide_stability.s": (inc("stability.decide_stability"), "s"),
            "stability.scan.self_s": (inc("stability.decide_stability") - inc(internal) - inc(external), "s"),
            "stability.subsets_scanned": (c(external), "count"),
            "stability.tuple_orbit.internal.s": (inc(internal), "s"),
            "stability.tuple_orbit.internal.states": (x(internal + ".states", 0), "count"),
            "stability.tuple_orbit.external.s": (inc(external), "s"),
            "stability.tuple_orbit.external.states": (x(external + ".states", 0), "count"),
            "stability.tuple_twist.calls": (c("stability.tuple_twist"), "count"),
            "twist.delta_conjugate_set.calls": (c("twist.delta_conjugate_set"), "count"),
            "twist.delta_conjugate_set.s": (slf("twist.delta_conjugate_set"), "s"),
            "twist.elementary_twist.calls": (twists, "count"),
            "twist.elementary_twist.s": (slf("twist.elementary_twist"), "s"),
            "twist.elementary_twist.useful_ratio": (useful / twists if twists else 0.0, "ratio"),
            "orbit.orbit.s": (inc("orbit.orbit"), "s"),
            "orbit.conjugator.s": (inc("orbit.conjugator"), "s"),
            "orbit.states": (x("orbit.states", 0), "count"),
            "orbit.new_state_ratio": (x("orbit.new_states", 0) / useful if useful else 0.0, "ratio"),
            "graph.components.calls": (c("graph.components"), "count"),
            "graph.components.s": (slf("graph.components"), "s"),
            "graph.adjacent.calls": (c("graph.adjacent"), "count"),
            "graph.adjacent.s": (slf("graph.adjacent"), "s"),
            "graph.subset.calls": (c("graph.subset"), "count"),
            "graph.parse_graph.s": (inc("graph.parse_graph"), "s"),
            "classify.recognize_component.calls": (c("classify.recognize_component"), "count"),
            "classify.recognize_component.s": (slf("classify.recognize_component"), "s"),
            "oracle.expand_subset.calls": (c("oracle.expand_subset"), "count"),
            "oracle.expand_subset.s": (inc("oracle.expand_subset"), "s"),
            "cli.main.s": (inc("cli.main"), "s"),
            "cli.self_s": (slf("cli.main"), "s"),
        }
