"""CLI output of the search commands, byte for byte.

A golden file pins stdout and the exit code of ``orbit`` (with and without
``--expand-words``, JSON and text), ``conjugate`` (the README's E7 example
and a pair that is not conjugate), ``type`` and ``classify``.  The output
depends on no argparse wording, so it is compared on every Python version.
The graph files are written to a temporary folder; the golden names them
by file name alone.  Regenerate it (only for a deliberate output change)
with ``PYTHONPATH=src python tests/test_cli_output.py --write``.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from artinstab import standard_graph, to_json_dict
from artinstab.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_output_golden.json"

CYCLE5 = {
    "generators": ["a", "b", "c", "d", "e"],
    "relations": [["a", "b", 3], ["b", "c", 3], ["c", "d", 3], ["d", "e", 3], ["a", "e", 3]],
}

GRAPHS = {
    "e7.json": to_json_dict(standard_graph("E", 7)),
    "d6.json": to_json_dict(standard_graph("D", 6)),
    "a5.json": to_json_dict(standard_graph("A", 5)),
    "cycle5.json": CYCLE5,
}

E7_X, E7_TARGET = "s1,s2,s3,s4,s6", "s2,s4,s5,s6,s7"

CALLS: list[list[str]] = [
    ["orbit", "--graph", "e7.json", "--subset", "s1,s3", "--format", "json"],
    ["orbit", "--graph", "e7.json", "--subset", "s1,s3"],
    ["orbit", "--graph", "a5.json", "--subset", "s1,s3", "--expand-words", "--format", "json"],
    ["orbit", "--graph", "a5.json", "--subset", "s1,s3", "--expand-words"],
    ["orbit", "--graph", "cycle5.json", "--subset", "a,b", "--format", "json"],
    ["conjugate", "--graph", "e7.json", "--subset", E7_X, "--target", E7_TARGET],
    ["conjugate", "--graph", "e7.json", "--subset", E7_X, "--target", E7_TARGET,
     "--expand-words", "--format", "json"],
    ["conjugate", "--graph", "d6.json", "--subset", "s1,s3,s4,s5,s6",
     "--target", "s2,s3,s4,s5,s6", "--format", "json"],
    ["conjugate", "--graph", "d6.json", "--subset", "s1,s3,s4,s5,s6",
     "--target", "s2,s3,s4,s5,s6"],
    ["type", "--graph", "e7.json", "--subset", "s1,s2,s3,s4,s6", "--format", "json"],
    ["type", "--graph", "cycle5.json", "--subset", "a,b,c,d,e"],
    ["classify", "--graph", "e7.json", "--format", "json"],
    ["classify", "--graph", "cycle5.json"],
]


def capture(folder: Path, argv: list[str]) -> dict:
    """stdout and exit code of main(argv), each graph file name resolved in
    folder."""
    resolved = [str(folder / a) if a in GRAPHS else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(resolved)
    return {"argv": argv, "stdout": out.getvalue(), "code": code}


def rows(folder: Path) -> list[dict]:
    for name, data in GRAPHS.items():
        (folder / name).write_text(json.dumps(data))
    return [capture(folder, argv) for argv in CALLS]


def test_search_commands_match_golden_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert [row["argv"] for row in golden] == CALLS
    assert rows(tmp_path) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_output.py --write")
    with tempfile.TemporaryDirectory() as folder:
        text = json.dumps(rows(Path(folder)), indent=1, ensure_ascii=False)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {len(CALLS)} calls to {GOLDEN}")
