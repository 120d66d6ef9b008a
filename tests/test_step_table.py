"""The stability decision's twist tables, checked two ways.

* A golden file holds the verdict and full witness JSON for every non-empty
  subset of A2-A7, B2-B4, D4-D7, E6, E7, F4 and I2(5..7); the sweep must
  reproduce it byte for byte.  Regenerate it (only for a deliberate witness
  change) with ``PYTHONPATH=src python tests/test_step_table.py --write``.
* The mask closures the decision builds, with one ``Moves`` shared by all
  subsets and names converted at the boundary, must equal, keys, words
  and order, the closures of the name-tuple reference of
  ``tests/reference.py``.
* The decision's external closure, grown from the internal one, must hold
  the states of the plain closure under all twists.
* ``twist.steps``, which derives the steps of a subset from those of
  its components, must equal one flood per neighbour of the subset, each
  step's move being the bits of t and of its image.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations
from pathlib import Path

from artinstab import (
    TwistFactor,
    decide_stability,
    delta_automorphism,
    recognize_component,
    standard_graph,
)
from artinstab.orbit import words
from artinstab.stability import EVERYWHERE, INSIDE, Moves, _beyond, _closure
from artinstab.twist import steps

from conftest import random_graph, random_subset, rename_graph
from reference import Reference, twistable

GOLDEN = Path(__file__).parent / "data" / "stability_witness_golden.json"

SWEEP = (
    [(f"A{n}", ("A", n, 0)) for n in range(2, 8)]
    + [(f"B{n}", ("B", n, 0)) for n in range(2, 5)]
    + [(f"D{n}", ("D", n, 0)) for n in range(4, 8)]
    + [("E6", ("E", 6, 0)), ("E7", ("E", 7, 0)), ("F4", ("F", 4, 0))]
    + [(f"I2({m})", ("I2", 0, m)) for m in (5, 6, 7)]
)


def sweep_text() -> str:
    """Verdict and witness of every non-empty subset of the sweep graphs,
    one JSON line per subset."""
    lines = []
    for name, (family, n, m) in SWEEP:
        g = standard_graph(family, n, m)
        for r in range(1, len(g.generators) + 1):
            for X in combinations(g.generators, r):
                v = decide_stability(g, X)
                entry = {
                    "graph": name,
                    "subset": list(X),
                    "verdict": "stable" if v is None else "not_stable",
                    "witness": None if v is None else v.to_json_dict(),
                }
                lines.append(json.dumps(entry, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def test_stability_sweep_matches_witness_golden_bytes():
    text = sweep_text()
    assert text == GOLDEN.read_text()
    kinds: dict[str, int] = {}
    for line in text.splitlines():
        w = json.loads(line)["witness"]
        kind = "stable" if w is None else w["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {
        "permutation": 442,
        "d4_exception": 16,
        "d2k_exception": 1,
        "stable": 262,
    }


def reference_cases():
    """The draws of 150 graphs of 1-6 vertices a..f, each with a subset,
    then 40 graphs of 7-10 vertices with subsets of at most 8; all renamed
    s1..s10, whose canonical order s1, s10, s2, ... differs from the
    construction order."""
    rng = random.Random(0x57E9)
    for k in range(190):
        if k < 150:
            g = random_graph(rng)
            X = random_subset(rng, g)
        else:
            g = random_graph(rng, max_vertices=10, min_vertices=7)
            X = rng.sample(g.generators, rng.randint(1, min(8, len(g.generators))))
        names = {v: f"s{i + 1}" for i, v in enumerate(g.generators)}
        yield rename_graph(g, names), sorted(names[v] for v in X)


def test_shared_step_table_closures_equal_name_tuple_reference():
    compared = 0
    for g, X in reference_cases():
        ref = Reference(g)
        # one set of tables for every subset, as in the decision
        moves = Moves(g, g.mask(X))
        for r in range(len(X), 0, -1):
            for X1 in combinations(X, r):
                start = g.components(g.mask(X1))
                for which, inside in ((INSIDE, set(X)), (EVERYWHERE, None)):
                    got = words(_closure(moves, start, which)).items()
                    got = [(tuple(g.names(P) for P in T), w) for T, w in got]
                    assert got == list(ref.closure(X1, inside).items()), (g, X, X1)
                    compared += 1
    assert compared > 5000


def test_internal_closure_and_its_beyond_make_the_external_closure():
    compared = failing = 0
    for g, X in reference_cases():
        inside = g.mask(X)
        moves = Moves(g, inside)  # shared by every subset, as in the decision
        for r in range(len(X), 0, -1):
            for X1 in combinations(X, r):
                start = g.components(g.mask(X1))
                internal = _closure(moves, start, INSIDE)
                beyond = _beyond(moves, internal)
                external = _closure(moves, start, EVERYWHERE)
                assert not beyond.keys() & internal.keys(), (g, X, X1)
                assert beyond.keys() | internal.keys() == external.keys(), (g, X, X1)
                failing += any(sum(T) & ~inside == 0 for T in beyond)
                compared += 1
    assert compared > 3500 and failing > 200, (compared, failing)


def flood_steps(g, Y):
    """(bit of t, the bits of t and of its image (0 when they are one),
    the permutation of bits of the component of Y + t containing t, its
    factor) for each twistable neighbour t of Y in increasing bit order,
    with one flood within Y + t per t and public recognition."""
    near = 0
    for i in range(len(g.generators)):
        if Y >> i & 1:
            near |= g.nbrs[i]
    out = []
    for i in range(len(g.generators)):
        tbit = 1 << i
        if near & tbit and not Y & tbit:
            comp = g.flood(tbit, Y | tbit)
            tc = recognize_component(g, g.names(comp))
            if tc is not None and twistable(tc):
                bit = {v: 1 << g.index[v] for v in tc.vertices}
                perm = {bit[v]: bit[w] for v, w in delta_automorphism(tc).items()}
                assert sum(perm) == comp
                out.append((tbit, tbit ^ perm[tbit], perm, TwistFactor(tc.vertices, 1)))
    return out


def test_steps_from_components_equal_one_flood_per_neighbour():
    rng = random.Random(0x57E95)
    shared = 0  # steps at a vertex adjacent to two or more components of Y
    for _ in range(30):
        g = random_graph(rng, max_vertices=10, min_vertices=7)
        for Y in range(1 << len(g.generators)):  # every subset, on the fresh graph's tables
            # only steps fill these tables, so each images holds its permutation alone
            got = [(t, move, dict(images), factor) for t, move, images, factor in steps(g, Y)]
            assert got == flood_steps(g, Y), (g, g.names(Y))
            for _, _, perm, _ in got:
                shared += sum(1 for c in g.components(Y) if c & sum(perm)) >= 2
    assert shared > 400, shared


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_step_table.py --write")
    GOLDEN.write_text(sweep_text())
