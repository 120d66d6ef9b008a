"""The public names are exactly ``PUBLIC``, each listed once in
``artinstab.__all__`` and none a module; every name a library or test
module imports is used in that module, the test-side reference,
``tests/reference.py``, imports only public names, and every public
function has a caller outside the tests.  Importing the library and its
CLI loads no ``dataclasses``.

The package ``__init__`` is skipped: it imports names only to re-export
them.  A name counts as used when it appears as an identifier anywhere in
the module, annotations included.

A public function, a callable in ``artinstab.__all__`` that is not a class,
has a caller when a library module other than its own names it (as a name
or an attribute), when the reference imports it, or when the benchmark
under ``perfbench/`` names it, as ``lib.<name>`` or in ``tracer.TARGETS``.
Classes, constants and type aliases are exempt.  A public method or
property of a class in ``__all__`` (any name without a leading underscore)
has a caller when a library module other than the class's own, the
reference or a source anywhere under ``perfbench/`` names it as an
attribute.
"""

import ast
import inspect
import subprocess
import sys
from functools import cached_property
from pathlib import Path
from types import ModuleType

import pytest

import artinstab

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "artinstab"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(REFERENCE.parent.glob("*.py"))
PERFBENCH = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))

# A public name added or removed is a public API change: update this set,
# CHANGES.md and the README together.
PUBLIC = {
    "ComponentTuple", "ConjugatorWord", "CoxeterGraph", "DeltaActionUndefined",
    "DihedralElement", "GraphError", "GroupFamilyReport", "INFINITY",
    "IrreducibleType", "OrbitTable", "StabilityReport", "SubsetSizeLimitError",
    "TwistFactor", "TypedComponent", "UnsupportedTypeError", "VertexSet",
    "WeylElement", "Witness", "adjacent", "apply_word", "check_d2k_exception",
    "check_d4_exception", "classify_group", "components", "conjugator",
    "decide_stability", "decide_with_applicability", "delta_automorphism",
    "delta_conjugate_set", "elementary_twist", "expand_subset", "initial_tuple",
    "is_spherical", "longest_element", "orbit", "parse_graph", "positive_roots",
    "recognize_component", "standard_graph", "to_dot", "to_json_dict",
    "tuple_orbit", "tuple_twist", "w0_conjugation_permutation",
}


def test_the_public_names_are_pinned_listed_once_and_no_module():
    names = artinstab.__all__
    assert len(names) == len(set(names)), names
    assert set(names) == PUBLIC, set(names) ^ PUBLIC
    assert not [name for name in names if isinstance(getattr(artinstab, name), ModuleType)]


def test_importing_the_library_and_its_cli_loads_no_dataclasses():
    # a fresh isolated interpreter, as one CLI call starts; dataclasses
    # alone pulls in inspect, ast, dis and tokenize
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import artinstab, artinstab.cli; "
            "assert artinstab.__file__.startswith(sys.path[0]), artinstab.__file__; "
            "print('dataclasses' in sys.modules)")
    run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


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


def _identifiers(tree) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _benchmark_names(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "lib":
            out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            out |= {attribute for _, attribute, _ in ast.literal_eval(node.value)}
    return out


def uncalled_outside_tests(
    functions: dict[str, str], library: dict[str, str], reference: str, perfbench: list[str]
) -> list[str]:
    """The names in ``functions`` (name -> its own module) that no other
    module in ``library`` (module -> source) names, that ``reference``
    does not import and that no ``perfbench`` source names."""
    named_in = {module: _identifiers(ast.parse(source)) for module, source in library.items()}
    imported = {
        alias.name
        for node in ast.walk(ast.parse(reference))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    benchmark = set().union(*(_benchmark_names(ast.parse(source)) for source in perfbench))
    return sorted(
        name
        for name, own in functions.items()
        if name not in imported | benchmark
        and not any(name in names for module, names in named_in.items() if module != own)
    )


def test_the_scan_sees_a_test_only_function():
    library = {
        "graph": "def parse(): pass\ndef walk(): pass\ndef own(): pass\nown()\n",
        "cli": "from . import graph\nfrom .graph import parse\n\ndef main():\n    return parse(), graph.walk\n",
    }
    functions = dict.fromkeys(["parse", "walk", "own", "dead", "timed", "called", "ref"], "graph")
    reference = "from artinstab import ref\n"
    perfbench = ["TARGETS = [('graph', 'timed', 'hot')]\n", "def run(lib):\n    return lib.called()\n"]
    assert uncalled_outside_tests(functions, library, reference, perfbench) == ["dead", "own"]


def test_every_public_function_has_a_caller_outside_the_tests():
    objects = {name: getattr(artinstab, name) for name in artinstab.__all__}
    functions = {
        name: obj.__module__.rpartition(".")[2]
        for name, obj in objects.items()
        if inspect.isfunction(obj)
    }
    assert {"components", "decide_stability", "orbit"} <= set(functions)
    library = {p.stem: p.read_text() for p in MODULES}
    perfbench = [p.read_text() for p in PERFBENCH]
    assert perfbench
    assert uncalled_outside_tests(functions, library, REFERENCE.read_text(), perfbench) == []


def _attributes(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def unnamed_methods(
    methods: dict[str, str], library: dict[str, str], elsewhere: list[str]
) -> list[str]:
    """The ``Class.name`` keys of ``methods`` (-> the class's own module)
    whose name no module in ``library`` (module -> source) other than that
    one, and no source in ``elsewhere``, uses as an attribute."""
    named_in = {module: _attributes(source) for module, source in library.items()}
    outside = set().union(*(_attributes(source) for source in elsewhere))
    return sorted(
        key
        for key, own in methods.items()
        if (name := key.rpartition(".")[2]) not in outside
        and not any(name in names for module, names in named_in.items() if module != own)
    )


def test_the_scan_sees_a_test_only_method():
    library = {
        "graph": "class G:\n    def used(self): pass\n    def own(self): pass\n    def dead(self): pass\n"
                 "def f(g):\n    return g.own()\n",
        "cli": "def main(g):\n    return g.used()\n",
    }
    methods = dict.fromkeys(["G.used", "G.own", "G.dead", "G.bench"], "graph")
    elsewhere = ["def check(lib, g):\n    return g.bench, dead()\n"]
    assert unnamed_methods(methods, library, elsewhere) == ["G.dead", "G.own"]


def public_methods(cls: type) -> list[str]:
    kinds = (property, cached_property, staticmethod, classmethod)
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]


def test_every_public_method_has_a_caller_outside_the_tests():
    methods = {
        f"{name}.{method}": obj.__module__.rpartition(".")[2]
        for name in artinstab.__all__
        if inspect.isclass(obj := getattr(artinstab, name))
        for method in public_methods(obj)
    }
    assert {"CoxeterGraph.build", "CoxeterGraph.typed", "ConjugatorWord.factors"} <= set(methods)
    library = {p.stem: p.read_text() for p in MODULES}
    perfbench = sorted((PACKAGE.parent.parent / "perfbench").rglob("*.py"))
    elsewhere = [REFERENCE.read_text()] + [p.read_text() for p in perfbench]
    assert unnamed_methods(methods, library, elsewhere) == []
