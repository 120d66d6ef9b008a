"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench/tests"""

import itertools
import json

import pytest

import checks
import rules
import run
import shapes as sh
from workloads import Deck

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *argv) -> tuple[list[str], dict]:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(capsys, workload):
    lines, result = _run(capsys, "--workload", workload, "--size", "tiny", "--seconds", "0.3")
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_frac=0.000000") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_prints_every_per_layer_metric(capsys, workload):
    lines, result = _run(capsys, "--workload", workload, "--size", "tiny", "--trace", "1")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] and result["failed"] == 0
    spans = json.loads((run.ROOT / ".perfbench" / f"spans-{workload}-seed1.json").read_text())
    assert {"query"} < {s["name"] for s in spans}


def _lib():
    lib, _ = run.import_library()
    return lib


def test_a_rule_agrees_with_conjugator_on_a5():
    lib = _lib()
    shape = sh.chain(5)
    named = sh.Named(shape, tuple(f"s{i + 1}" for i in range(5)))
    g = lib.CoxeterGraph.build(named.names, named.relations())
    subsets = [X for k in range(6) for X in itertools.combinations(range(5), k)]
    for X, Y in itertools.product(subsets, repeat=2):
        word = lib.conjugator(g, named.subset(X), named.subset(Y))
        assert (word is not None) == rules.a_conjugate(shape.line, set(X), set(Y)), (X, Y)


def test_run_rules_count_orbits():
    lib = _lib()
    for shape, runs in [(sh.chain(9), [2, 1]), (sh.cycle(9), [2, 1]), (sh.cycle(10), [1, 1, 1])]:
        named = sh.Named(shape, tuple(f"v{i}" for i in range(shape.n)))
        g = lib.CoxeterGraph.build(named.names, named.relations())
        X = named.subset(rules.packed(shape.line, runs, 0))
        assert len(lib.orbit(g, X)) == rules.class_size(shape.n, runs, shape.cyclic)


class _CorruptConjugator:
    """The library, except that conjugator drops the last factor of a word."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def conjugator(self, g, X, Y):
        word = self._lib.conjugator(g, X, Y)
        return self._lib.ConjugatorWord(word.factors[:-1])


def test_corrupted_word_is_counted_as_failure(tmp_path):
    lib = _lib()
    deck = Deck("orbit-large", 3, "tiny")
    graphs = {k: lib.CoxeterGraph.build(n.names, n.relations()) for k, n in deck.named.items()}
    runner = run.Runner(deck, _CorruptConjugator(lib), None, graphs, {}, tmp_path)
    reach = [q for _ in range(6) for q in deck.next_cycle() if q.kind == "reach"]
    assert reach
    tally = run.Tally()
    for q in reach:
        tally.record(q, *runner.call(q))
    assert len(tally.failures) == len(reach)
    assert all("conjugator" in f for f in tally.failures)


def test_bad_witness_fails_its_check():
    lib = _lib()
    g = lib.standard_graph("A", 4)
    report = lib.decide_with_applicability(g, ["s1", "s3"])
    w = report.witness.to_json_dict()
    checks.witness(lib, g, ("s1", "s3"), w)
    w["word"] = w["word"][:-1]
    with pytest.raises(checks.Failed):
        checks.witness(lib, g, ("s1", "s3"), w)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def inputs(seed):
        deck = Deck(workload, seed, "full")
        texts = {k: n.file_text(deck.rng) for k, n in deck.named.items()}
        return deck.named, texts, [deck.next_cycle() for _ in range(3)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_refuses_to_run_without_library_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "stab-deep", "--size", "tiny", "--seconds", "0"]) == 2
