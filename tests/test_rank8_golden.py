"""Stability reports for every X = S - {v} of the rank-8 stab-deep shapes.

A golden file holds the ``decide_with_applicability`` JSON for each vertex v
of A8, B8, D8, E8 and H4 + A4, whose diagram vertices carry a fixed shuffle
of s1..s8, so the canonical (sorted) generator order differs from the
diagram order.  The reports must match it byte for byte.  Regenerate it
(only for a deliberate witness change) with
``PYTHONPATH=src python tests/test_rank8_golden.py --write``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from artinstab import CoxeterGraph, decide_with_applicability

GOLDEN = Path(__file__).parent / "data" / "stability_rank8_golden.json"

# diagram vertex i is named NAMES[i]
NAMES = ("s5", "s2", "s8", "s1", "s7", "s3", "s6", "s4")

CHAIN = [(i, i + 1, 3) for i in range(7)]
SHAPES = {
    "A8": CHAIN,
    "B8": [(0, 1, 4)] + CHAIN[1:],
    "D8": [(0, 2, 3), (1, 2, 3)] + CHAIN[2:],
    "E8": [(0, 3, 3)] + CHAIN[1:],
    "H4+A4": [(0, 1, 5), (1, 2, 3), (2, 3, 3)] + CHAIN[4:],
}


def report_text() -> str:
    """One JSON line per shape and removed vertex."""
    lines = []
    for name, edges in SHAPES.items():
        g = CoxeterGraph.build(NAMES, [(NAMES[i], NAMES[j], m) for i, j, m in edges])
        for v in NAMES:
            X = [s for s in NAMES if s != v]
            report = decide_with_applicability(g, X)
            entry = {"graph": name, "removed": v, "report": report.to_json_dict()}
            lines.append(json.dumps(entry, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def test_rank8_reports_match_golden_bytes():
    text = report_text()
    assert text == GOLDEN.read_text()
    verdicts: dict[str, int] = {}
    for line in text.splitlines():
        report = json.loads(line)["report"]
        w = report["witness"]
        kind = report["verdict"] if w is None else w["kind"]
        verdicts[kind] = verdicts.get(kind, 0) + 1
    assert verdicts == {
        "stable": 12,
        "permutation": 23,
        "d4_exception": 3,
        "d2k_exception": 2,
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_rank8_golden.py --write")
    GOLDEN.write_text(report_text())
