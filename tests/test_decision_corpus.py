"""The decision corpus: a fixed set of stability decisions whose witness
JSON, with the ``classify_group`` JSON of each graph, is pinned by one sha256
digest per family in ``tests/data/decision_corpus.json``.

The families are the seeded random graphs of ``conftest.random_graph(rng, 7,
2)``, 250 per seed for seeds 1 to 3, with every X of up to 6 generators, and
the catalog families A2-A8, B2-B7, D4-D8, E6-E8, F4, H3 and H4, with every
non-empty X.  A mismatch names its family.  Tier-1 checks one family; check
all of them, under each hash seed, with

    PYTHONPATH=src python tests/test_decision_corpus.py

and rewrite the file (only for a deliberate verdict or witness change, listed
in CHANGES.md) with ``--write``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import combinations
from pathlib import Path

from artinstab import classify_group, decide_stability, standard_graph

from conftest import random_graph

DIGESTS = Path(__file__).parent / "data" / "decision_corpus.json"

CATALOG = {
    "A": [("A", n) for n in range(2, 9)],
    "B": [("B", n) for n in range(2, 8)],
    "D": [("D", n) for n in range(4, 9)],
    "E": [("E", n) for n in range(6, 9)],
    "F": [("F", 4)],
    "H": [("H", 3), ("H", 4)],
}
SEEDS = (1, 2, 3)


def family_cases(family: str) -> list[tuple]:
    """(graph, largest |X|) for each graph of the family."""
    if family.startswith("random/"):
        rng = random.Random(int(family.split("/")[1]))
        return [(random_graph(rng, 7, 2), 6) for _ in range(250)]
    return [(standard_graph(*shape), shape[1]) for shape in CATALOG[family]]


def digest(family: str) -> dict:
    """The decision count and sha256 digest of the family: one line per
    graph with its classification, then one per X with its witness."""
    h = hashlib.sha256()
    count = 0
    for g, most in family_cases(family):
        h.update(json.dumps(classify_group(g).to_json_dict()).encode() + b"\n")
        for k in range(1, min(most, len(g.generators)) + 1):
            for X in combinations(g.generators, k):
                w = decide_stability(g, X)
                line = [X, None if w is None else w.to_json_dict()]
                h.update(json.dumps(line).encode() + b"\n")
                count += 1
    return {"decisions": count, "sha256": h.hexdigest()}


FAMILIES = [f"random/{seed}" for seed in SEEDS] + list(CATALOG)


def test_the_first_random_family_matches_its_digest():
    # random graphs of 2 to 7 vertices include direct and free products
    assert digest("random/1") == json.loads(DIGESTS.read_text())["random/1"]


def main(argv: list[str]) -> int:
    found = {family: digest(family) for family in FAMILIES}
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps(found, indent=2) + "\n")
        return 0
    pinned = json.loads(DIGESTS.read_text())
    bad = [family for family in FAMILIES if found[family] != pinned.get(family)]
    for family in FAMILIES:
        print(f"{'MISMATCH' if family in bad else 'ok':8} {family} "
              f"{found[family]['decisions']} decisions")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
