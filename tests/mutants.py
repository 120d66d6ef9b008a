"""Mutation checks: each mutant is a small wrong change to the library that
the tier-1 tests must catch.

Run from the repository root with ``python tests/mutants.py``.  For each
entry marked "killed" the script copies the tree to a temporary directory,
replaces the entry's old text by its new text and runs the tier-1 tests
with ``-x``.  It exits non-zero when a mutant survives, or when the old
text of any entry does not occur exactly once in its file, so that an
entry whose line moved is updated rather than silently skipped.  An entry
marked "equivalent: <reason>" changes no result, only the cost; it is
listed and its text checked, but not run.  The unchanged copy runs first:
when it fails, no mutant can be told killed, and the script stops.
Pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a mutant that makes the tests hang counts as killed

# (name, file, old text, new text, "killed" or "equivalent: <reason>")
MUTANTS = [
    (
        "odd-D prongs not swapped",
        "src/artinstab/classify.py",
        "return (1, 0, *range(2, n))",
        "return (0, 1, *range(2, n))",
        "killed",
    ),
    (
        "E6 twist made the identity",
        "src/artinstab/classify.py",
        "return (0, 5, 4, 3, 2, 1)",
        "return (0, 1, 2, 3, 4, 5)",
        "killed",
    ),
    (
        "A_n twist made the identity",
        "src/artinstab/classify.py",
        "return tuple(range(n - 1, -1, -1))",
        "return tuple(range(n))",
        "killed",
    ),
    (
        "odd-D candidates outside X and inside X swapped",
        "src/artinstab/stability.py",
        "attach = odd[end] & ~inside\n        if not attach or odd[end] & inside:",
        "attach = odd[end] & inside\n        if not attach or odd[end] & ~inside:",
        "killed",
    ),
    (
        "D_4 rescue relaxed from all other ends to any one",
        "src/artinstab/stability.py",
        "if others and all(odd[o] & inside",
        "if others and any(odd[o] & inside",
        "killed",
    ),
    (
        "D_4 sites checked in the pass before the D_2k sites",
        "src/artinstab/stability.py",
        'for kind in ("d2k_exception", "d4_exception")',
        'for kind in ("d4_exception", "d2k_exception")',
        "killed",
    ),
    (
        "D sites looked for only when a vertex has 4 neighbours in X",
        "src/artinstab/stability.py",
        "bit_count() >= 3 for i in _bits(inside))",
        "bit_count() >= 4 for i in _bits(inside))",
        "killed",
    ),
    (
        "E's short arm attached at position 3 instead of 4",
        "src/artinstab/classify.py",
        '"E": (6, 8, "rank 6, 7 or 8", {(0, 3): 3}, 1),',
        '"E": (6, 8, "rank 6, 7 or 8", {(0, 2): 3}, 1),',
        "killed",
    ),
    (
        "the constructor's check of the generators dropped",
        "src/artinstab/graph.py",
        "        if not (isinstance(gens, tuple) and gens and all(map(_valid_name, gens))\n"
        "                and all(map(str.__lt__, gens, gens[1:]))):\n",
        "        if False:\n",
        "killed",
    ),
    (
        "a grown clique not narrowed to the vertices joined to the new one by finite labels",
        "src/artinstab/classify.py",
        "common & fin[j]",
        "common",
        "killed",
    ),
    (
        "no maximal connected clique checked for sphericity",
        "src/artinstab/classify.py",
        "if not grow and",
        "if False and",
        "killed",
    ),
    (
        "type key taken by mask",
        "src/artinstab/orbit.py",
        "return c if typed is None else typed.type",
        "return c",
        "killed",
    ),
    (
        "vertices shared by two components' borders ignored",
        "src/artinstab/twist.py",
        "multi |= seen & border",
        "multi |= 0",
        "killed",
    ),
    (
        "the memos pickled and copied with the graph",
        "src/artinstab/graph.py",
        "    def __reduce__(self):  # pickle and copy the fields, not the memos\n"
        "        return CoxeterGraph, (self.generators, dict(self.labels))\n",
        "",
        "killed",
    ),
    (
        "labels kept as given, mutable",
        "src/artinstab/graph.py",
        '("labels", MappingProxyType(dict(labels)))',
        '("labels", labels)',
        "killed",
    ),
    (
        "graphs compared by their generators alone",
        "src/artinstab/graph.py",
        "return self.generators == other.generators and self.labels == other.labels",
        "return self.generators == other.generators",
        "killed",
    ),
    (
        "a graph attribute assigned instead of refused",
        "src/artinstab/graph.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        "killed",
    ),
    (
        "orbit tables compared without their entries",
        "src/artinstab/orbit.py",
        "return self.entries == other.entries",
        "return True",
        "killed",
    ),
    (
        "a border list stored under the component plus its border",
        "src/artinstab/twist.py",
        "return g.borders.setdefault(C, (border, steps))",
        "return g.borders.setdefault(C | border, (border, steps))",
        "killed",
    ),
    (
        "the submodules listed as public names",
        "src/artinstab/__init__.py",
        'if not name.startswith("_") and not isinstance(value, _ModuleType)',
        'if not name.startswith("_")',
        "killed",
    ),
    (
        "an image lookup maps a bit outside the component to 0",
        "src/artinstab/twist.py",
        "out |= self.get(bit, bit)",
        "out |= self.get(bit, 0)",
        "killed",
    ),
    (
        "the candidates counted without the orders of parts with one key",
        "src/artinstab/stability.py",
        "candidates = counts[key] * prod(factorial(m) for _, m in key)",
        "candidates = counts[key]",
        "killed",
    ),
    (
        "the candidates counted on X1's union alone",
        "src/artinstab/stability.py",
        "candidates = counts[key] *",
        "candidates = 1 *",
        "killed",
    ),
    (
        "the guard never passes a subset",
        "src/artinstab/stability.py",
        "if len(internal) < candidates:",
        "if len(internal) <= candidates:",
        "killed",
    ),
    (
        "the search's last tuple not tested to lie inside X: a search that"
        " found nothing reported as a witness",
        "src/artinstab/stability.py",
        "if found(T):",
        "if T not in internal:",
        "killed",
    ),
    (
        "X split by its own components instead of the graph's factors",
        "src/artinstab/stability.py",
        "_factors(g, (1 << len(g.generators)) - 1, fin)",
        "_factors(g, inside, fin)",
        "killed",
    ),
    (
        "a direct factor not split into its free factors",
        "src/artinstab/stability.py",
        "free = g.components(D, fin)",
        "free = (D,)",
        "killed",
    ),
    (
        "X taken as stable when any one of its parts is",
        "src/artinstab/stability.py",
        "all(_decide(g, P) is None for P in parts)",
        "any(_decide(g, P) is None for P in parts)",
        "killed",
    ),
    (
        "the part keys of every subset of X counted at once",
        "src/artinstab/stability.py",
        "counts = Counter(keys)",
        "counts = Counter(frozenset(Counter(_part_key(g, P) for P in start).items())\n"
        "                         for level in walk for _, start in level)",
        "equivalent: subsets with the same part keys have the same size, so"
        " the counts of one size are the counts of all; only the cost changes",
    ),
    (
        "a step leads to the subset joined with its move, not XORed",
        "src/artinstab/orbit.py",
        "return Y ^ move",
        "return Y | move",
        "killed",
    ),
    (
        "a vertex with an infinite label to the subset flooded for its step",
        "src/artinstab/twist.py",
        "        if g.inf[tbit.bit_length() - 1] & Y:\n            continue\n",
        "",
        "killed",
    ),
    (
        "move back not skipped in the search engine",
        "src/artinstab/orbit.py",
        "if factor is back:",
        "if False:",
        "equivalent: the move back leads to the state that discovered this"
        " one, which the search has already recorded, so only the cost changes;"
        " this holds in every search, the tuple closures included",
    ),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"
)


def text_errors() -> list[str]:
    errors = []
    for name, path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            errors.append(f"{name}: old text occurs {count} times in {path}")
    return errors


def tier1(path: str | None = None, old: str = "", new: str = "") -> str | None:
    """Run tier-1 on a copy of the tree, with old replaced by new in path
    when a path is given: None when it passes, else the first failure."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if path is not None:
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                                 text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
        if run.returncode == 0:
            return None
        lines = run.stdout.splitlines()
        failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
        return failed[0] if failed else f"exit {run.returncode}"


def main() -> int:
    control = tier1()
    if control is not None:
        print(f"the unchanged tree fails tier-1: {control}")
        return 1
    errors = text_errors()
    for message in errors:
        print(f"STALE  {message}")
    survived = []
    for name, path, old, new, expected in MUTANTS:
        if expected != "killed":
            print(f"skip   {name} ({expected})")
            continue
        if any(message.startswith(f"{name}:") for message in errors):
            continue
        start = time.perf_counter()
        failure = tier1(path, old, new)
        took = f"{time.perf_counter() - start:.1f} s"
        if failure is None:
            survived.append(name)
            print(f"ALIVE  {name} ({took})", flush=True)
        else:
            print(f"killed {name} ({took}): {failure}", flush=True)
    if errors or survived:
        print(f"{len(survived)} mutant(s) survived, {len(errors)} stale entr(ies)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
