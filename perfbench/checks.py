"""Output checks.  Each returns the query's outcome key (verdicts,
conjugacy booleans and orbit sizes, never witness bytes) or raises Failed.

Where a rule independent of the library exists (rules.py) the output is
compared with it; every returned word is replayed with ``apply_word``; every
D-type witness is re-checked with the library's own obstruction tests.
"""

from __future__ import annotations

import json
import random

import rules
from shapes import Named

# kind -> (applicability, spherical, fc_type)
_CLASSIFY = {
    "A": ("FullStability", True, True), "B": ("FullStability", True, True),
    "D": ("FullStability", True, True), "At": ("FullStability", False, False),
    "Ct": ("FullStability", False, False), "Fc": ("QuasiStability", False, True),
    "Rn": ("Unknown", False, False),
}


class Failed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Failed(message)


def word_from_json(lib, factors):
    return lib.ConjugatorWord(tuple(lib.TwistFactor(tuple(f["delta_of"]), f["sign"]) for f in factors))


def _replay(lib, g, X, word, target, what: str) -> None:
    try:
        image = lib.apply_word(g, X, word)
    except ValueError as exc:
        raise Failed(f"{what}: word does not replay: {exc}") from exc
    expect(image == tuple(target), f"{what}: word maps {list(X)} to {list(image)}, not {list(target)}")


def witness(lib, g, X, w: dict) -> None:
    subset = tuple(w["subset"])
    expect(set(subset) <= set(X), "witness subset is not inside X")
    kind = w["kind"]
    if kind == "permutation":
        union = {v for part in w["tuple"] for v in part}
        expect(union <= set(X), "permutation witness does not map its subset inside X")
        start = lib.initial_tuple(g, subset)
        expect([list(p) for p in start] != w["tuple"], "permutation witness does not move its tuple")
        expect(len(start) == len(w["tuple"]), "permutation witness has the wrong tuple length")
        word = word_from_json(lib, w["word"])
        for part, image in zip(start, w["tuple"]):
            _replay(lib, g, part, word, image, "permutation witness")
    elif kind in ("d2k_exception", "d4_exception"):
        tc = lib.recognize_component(g, w["component"])
        expect(tc is not None and list(tc.positions) == list(w["component"]),
               "witness component is not a recognized component")
        test = lib.check_d2k_exception if kind == "d2k_exception" else lib.check_d4_exception
        expect(test(g, X, subset, tc), f"{kind} witness fails its check")
    else:
        raise Failed(f"unknown witness kind {kind!r}")


def _letters(named: Named, node) -> None:
    """Expanded Garside words: letters come from the factor, and on graphs
    whose components are all A-type paths the length is sum k(k+1)/2."""
    if isinstance(node, list):
        for item in node:
            _letters(named, item)
        return
    if not isinstance(node, dict):
        return
    for value in node.values():
        _letters(named, value)
    if "delta_of" not in node:
        return
    expect("letters" in node, "expanded output lacks letters")
    letters = node["letters"]
    if letters is None:
        return
    expect(set(letters) <= set(node["delta_of"]), "letters outside the factor")
    if named.shape.kind in ("A", "At"):
        comps = rules.components(named.shape.adjacency(), named.vertices(node["delta_of"]))
        want = sum(len(c) * (len(c) + 1) // 2 for c in comps)
        expect(len(letters) == want, f"expanded word has {len(letters)} letters, not {want}")


def orbit_table(lib, g, named: Named, X, entries, seed: int) -> str:
    """entries: (subset, word) pairs in table order."""
    s = named.shape
    expect(len(entries) >= 1 and tuple(entries[0][0]) == tuple(X) and len(entries[0][1]) == 0,
           "orbit table does not start with X and the empty word")
    keys = [tuple(k) for k, _ in entries]
    expect(len(set(keys)) == len(keys), "orbit table repeats a subset")
    xv = named.vertices(X)
    if s.line and len(s.line) == s.n:
        want_runs = rules.runs(s.line, set(xv), s.cyclic)
        for k in keys:
            expect(rules.runs(s.line, set(named.vertices(k)), s.cyclic) == want_runs,
                   f"orbit entry {list(k)} is not conjugate by the run rule")
        size = rules.class_size(len(s.line), want_runs, s.cyclic)
        expect(len(keys) == size, f"orbit has {len(keys)} entries, the run rule counts {size}")
    else:
        adj = s.adjacency()
        ncomp = len(rules.components(adj, xv))
        for k in keys:
            kv = named.vertices(k)
            expect(len(kv) == len(xv) and len(rules.components(adj, kv)) == ncomp,
                   f"orbit entry {list(k)} has another type than X")
    rng = random.Random(seed)
    picks = {len(entries) - 1} | {rng.randrange(len(entries)) for _ in range(5)}
    for i in sorted(picks):
        _replay(lib, g, X, entries[i][1], entries[i][0], f"orbit entry {i}")
    return f"orbit:{len(entries)}"


def conjugacy(lib, g, named: Named, X, target, word, must: bool | None) -> str:
    """Conjugator output; ``must`` is the known answer, None when unknown."""
    s = named.shape
    if s.line and len(s.line) == s.n and must is None:
        xv, tv = set(named.vertices(X)), set(named.vertices(target))
        if s.cyclic:
            must = rules.runs(s.line, xv, True) == rules.runs(s.line, tv, True)
        else:
            must = rules.a_conjugate(s.line, xv, tv)
    if must is not None:
        expect((word is not None) == must, f"conjugator says {word is not None}, the rule says {must}")
    if word is not None:
        _replay(lib, g, X, word, target, "conjugator")
    return f"conj:{word is not None}"


def library(lib, g, named: Named, q, X, result) -> str:
    if q.kind == "decide":
        kind = "" if result.witness is None else ":" + result.witness.kind
        outcome = result.verdict + kind
        expect(outcome == q.expect, f"verdict {outcome}, expected {q.expect}")
        expect(result.semantics == "stability", f"semantics {result.semantics}")
        if result.witness is not None:
            witness(lib, g, X, result.witness.to_json_dict())
        return outcome
    if q.kind == "orbit":
        return orbit_table(lib, g, named, X, list(result), q.qid)
    return conjugacy(lib, g, named, X, named.subset(q.target), result, q.kind == "reach")


def cli(lib, g, named: Named, q, X, code: int, out: str) -> str:
    s = named.shape
    want_code = 3 if (q.kind == "stability" and s.kind == "Rn") else 0
    expect(code == want_code, f"exit code {code}, expected {want_code}")
    try:
        data = json.loads(out)
    except json.JSONDecodeError as exc:
        raise Failed(f"stdout is not JSON: {exc}") from exc
    if q.expand:
        _letters(named, data)
    if q.kind == "classify":
        applicability, spherical, fc_type = _CLASSIFY[s.kind]
        expect(data["applicability"] == applicability and data["spherical"] == spherical,
               f"classified {data['applicability']}, expected {applicability}")
        affine = {"At": f"A~{s.n - 1}", "Ct": f"C~{s.n - 1}"}.get(s.kind)
        expect(data["affine_family"] == affine, f"affine family {data['affine_family']}")
        expect(data["fc_type"] == fc_type, "wrong FC-type flag")
        return f"classify:{data['applicability']}"
    if q.kind == "type":
        expect(data["subset"] == list(X), "type echoes another subset")
        want = {frozenset(c) for c in rules.components(s.adjacency(), q.X)}
        got = {frozenset(named.vertices(c["generators"])) for c in data["components"]}
        expect(got == want, "components differ from a plain graph search")
        if s.kind in ("A", "B", "D", "At"):
            expect(data["spherical"] is True, "a spherical subset reported non-spherical")
        if s.kind in ("A", "At"):
            for c in data["components"]:
                expect(c["type"] == f"A{len(c['generators'])}", f"path typed {c['type']}")
        return f"type:{data['spherical']}:{len(data['components'])}"
    if q.kind == "stability":
        verdict = data["verdict"]
        if s.kind == "Rn":
            expect(verdict == "inapplicable", f"verdict {verdict} on an Unknown family")
        else:
            expect(verdict in ("stable", "not_stable"), f"verdict {verdict}")
        w = data["witness"]
        expect((w is not None) == (verdict == "not_stable"), "witness and verdict disagree")
        if w is not None:
            witness(lib, g, X, w)
        return f"stability:{code}:{verdict}:{'' if w is None else w['kind']}"
    if q.kind == "conjugate":
        word = None if data["word"] is None else word_from_json(lib, data["word"])
        expect(data["conjugate"] == (word is not None), "conjugate flag and word disagree")
        return conjugacy(lib, g, named, X, named.subset(q.target), word, None)
    entries = [(tuple(e["subset"]), word_from_json(lib, e["word"])) for e in data]
    return orbit_table(lib, g, named, X, entries, q.qid)
