"""Every name a library or test module imports is used in that module, and
the test-side reference, ``tests/reference.py``, imports only public names.

The package ``__init__`` is skipped: it imports names only to re-export
them.  A name counts as used when it appears as an identifier anywhere in
the module, annotations included.
"""

import ast
from pathlib import Path

import pytest

import artinstab

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "artinstab"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(REFERENCE.parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_sees_a_dead_import():
    source = "from typing import Iterable, Iterator\nimport json\n\ndef f(x: Iterable) -> None:\n    pass\n"
    assert unused_imports(source) == ["Iterator (line 1)", "json (line 2)"]


def test_the_scan_covers_the_library():
    assert {p.name for p in MODULES} >= {"cli.py", "orbit.py", "stability.py", "twist.py"}
    assert {p.name for p in TESTS} >= {"conftest.py", "reference.py", "test_cli.py"}


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_reference_imports_only_public_names():
    tree = ast.parse(REFERENCE.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("artinstab") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("artinstab"):
            assert node.module == "artinstab"
            names |= {alias.name for alias in node.names}
    assert names and names <= set(artinstab.__all__), names - set(artinstab.__all__)
