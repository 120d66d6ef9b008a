"""Help, usage and argument-error output of the CLI, byte for byte.

``main`` hands every call that is not well formed to argparse, so a golden
file pins stdout, stderr and the exit code of calls that argparse answers
by itself: help at both levels, missing and unknown arguments, and invalid
choices.  ``oracle-check`` needs no argument and runs in full.  Regenerate
the golden with ``PYTHONPATH=src python tests/test_cli_help.py --write``.

argparse wording and wrapping differ between Python versions, so the golden
bytes are compared only on the version that wrote them.  On every version
the output of ``main`` is also compared with that of ``_build_parser``'s
parser called directly, which would show a call that ``main`` answers
without argparse differently from argparse.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from artinstab.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "data" / "cli_help_golden.json"

COMMANDS = (
    "validate",
    "classify",
    "type",
    "orbit",
    "conjugate",
    "stability",
    "export-dot",
    "oracle-check",
)

CALLS: list[list[str]] = (
    [[], ["-h"], ["--help"], ["bogus"]]
    + [[cmd, "-h"] for cmd in COMMANDS]
    + [[cmd] for cmd in COMMANDS]
    + [
        ["stability", "--format", "xml"],
        ["stability", "--graph"],
        ["stability", "--graph", "g.json", "--subset", "s1", "--max-subset-size", "0"],
        ["classify", "--graph", "g.json", "extra"],
    ]
)


def _version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def _capture(call, argv: list[str]) -> dict:
    """stdout, stderr and exit code of call(argv), at a fixed width of 80."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = call(argv)
            except SystemExit as exc:
                code = int(exc.code or 0)
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def _full_parse(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_main_matches_the_parser_with_every_subcommand(argv):
    assert _capture(main, argv) == _capture(_full_parse, argv)


def test_help_and_errors_match_golden_bytes():
    golden = json.loads(GOLDEN.read_text())
    if golden["python"] != _version():
        pytest.skip(f"golden written by Python {golden['python']}, running {_version()}")
    assert [row["argv"] for row in golden["calls"]] == CALLS
    for row in golden["calls"]:
        assert _capture(main, row["argv"]) == row


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_help.py --write")
    rows = [_capture(main, argv) for argv in CALLS]
    text = json.dumps({"python": _version(), "calls": rows}, indent=1, ensure_ascii=False)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {len(rows)} calls to {GOLDEN}")
