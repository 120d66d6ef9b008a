import copy
import json
import pickle

import pytest

from artinstab import (
    INFINITY,
    CoxeterGraph,
    GraphError,
    IrreducibleType,
    adjacent,
    components,
    parse_graph,
    recognize_component,
    standard_graph,
    to_dot,
)

from conftest import build_graph, graph_text


def test_parse_basic_path_fills_defaults():
    g = parse_graph(
        b'{"generators": ["a", "b", "c"], "relations": [["a", "b", 3], ["b", "c", 3]]}'
    )
    assert g.generators == ("a", "b", "c")
    assert g.label("a", "b") == 3
    assert g.label("b", "c") == 3
    assert g.label("a", "c") == 2


def test_parse_zero_and_inf_both_mean_infinity():
    g = parse_graph(
        '{"generators": ["a", "b", "c"], "relations": [["a", "b", 3], ["a", "c", 0], ["b", "c", "inf"]]}'
    )
    assert g.label("a", "c") == INFINITY
    assert g.label("b", "c") == INFINITY


def test_parse_infinite_by_default():
    g = parse_graph(
        '{"generators": ["a", "b", "c"], "relations": [["a", "b", 2]], "infinite_by_default": true}'
    )
    assert g.label("a", "b") == 2
    assert g.label("a", "c") == INFINITY
    assert g.label("b", "c") == INFINITY


def test_labels_store_only_non_commuting_pairs():
    g = parse_graph(
        '{"generators": ["b", "a", "c"], "relations": [["a", "b", 2], ["b", "c", 5]], '
        '"infinite_by_default": true}'
    )
    assert g.labels == {("a", "c"): INFINITY, ("b", "c"): 5}
    assert g.label("a", "b") == g.label("b", "a") == 2
    assert build_graph("abc", ("a", "b", 3), ("b", "c", 2)).labels == {("a", "b"): 3}


def test_sparse_labels_serialize_as_before():
    g = parse_graph(
        '{"generators": ["b", "a", "c"], "relations": [["a", "b", 2], ["b", "c", 5]], '
        '"infinite_by_default": true}'
    )
    assert json.loads(graph_text(g)) == {
        "generators": ["a", "b", "c"],
        "relations": [["a", "c", 0], ["b", "c", 5]],
        "infinite_by_default": False,
    }
    assert to_dot(g) == (
        'graph coxeter {\n  "a";\n  "b";\n  "c";\n'
        '  "a" -- "c" [label="∞"];\n  "b" -- "c" [label="5"];\n}\n'
    )
    assert parse_graph(graph_text(g)).labels == g.labels


@pytest.mark.parametrize("label", ["false", "true", "0.0", "1e400", "-1e400", "3.0", "2.5", '"0"', "null"])
def test_parse_rejects_labels_outside_the_format(label):
    text = '{"generators": ["a", "b"], "relations": [["a", "b", %s]]}' % label
    with pytest.raises(GraphError, match=r"relations\[0\]: invalid label"):
        parse_graph(text)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('{"generators": ["a"], "relations": [["a", "a", 3]]}', "self-pair"),
        ('{"generators": ["a", "a"]}', "duplicate"),
        ('{"generators": ["a", "b"], "relations": [["a", "b", 1]]}', "label"),
        ('{"generators": ["a", "b"], "relations": [["a", "c", 3]]}', "unknown"),
        (
            '{"generators": ["a", "b"], "relations": [["a", "b", 3], ["b", "a", 4]]}',
            "conflicting",
        ),
        (
            '{"generators": ["a", "b"], "relations": [["a", "b", 3], ["b", "a", 3]]}',
            "twice",
        ),
        ('{"generators": []}', "empty"),
        ('{"generators": ["a"], "bogus": 1}', "unknown keys"),
        ('{"generators": ["a", "b"], "relations": [["a", "b"]]}', r"relations\[0\]"),
        ('{"generators": ["a b"]}', "invalid generator"),
        ('{"generators": ["ä"]}', "invalid generator"),
        ("not json", "malformed"),
        pytest.param("[" * 200000, "malformed JSON", id="deep-nesting"),
        pytest.param('{"a": ' * 200000, "malformed JSON", id="deep-object-nesting"),
        ("[1, 2]", "object"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphError, match=fragment):
        parse_graph(text)


@pytest.mark.parametrize(
    "generators, labels, fragment",
    [
        ((), {}, "distinct valid names in sorted order"),
        (("b", "a", "c"), {("a", "b"): 3, ("b", "c"): 3}, "distinct valid names in sorted order"),
        (("a", "a"), {}, "distinct valid names in sorted order"),
        (("a", "b c"), {}, "distinct valid names in sorted order"),
        (["a", "b"], {}, "distinct valid names in sorted order"),
        (("a", "b"), {("a", "x"): 3}, r"label key \('a', 'x'\) is not a sorted pair"),
        (("a", "b"), {("b", "a"): 3}, "is not a sorted pair of generators"),
        (("a", "b"), {("a", "a"): 3}, "is not a sorted pair of generators"),
        (("a", "b"), {("a", "b", "c"): 3}, "is not a sorted pair of generators"),
        (("a", "b"), {"ab": 3}, "is not a sorted pair of generators"),
        (("a", "b"), {("a", "b"): 2}, r"invalid label 2 for pair \('a', 'b'\)"),
        (("a", "b"), {("a", "b"): 1}, "invalid label 1"),
        (("a", "b"), {("a", "b"): 3.0}, "invalid label 3.0"),
        (("a", "b"), {("a", "b"): True}, "invalid label True"),
    ],
)
def test_the_constructor_rejects_what_breaks_the_documented_invariants(generators, labels, fragment):
    with pytest.raises(GraphError, match=fragment):
        CoxeterGraph(generators, labels)


def test_the_constructor_takes_what_build_makes():
    g = CoxeterGraph(("a", "b", "c"), {("a", "b"): 3, ("a", "c"): INFINITY, ("b", "c"): 7})
    assert g == build_graph("cba", ("b", "a", 3), ("c", "a", INFINITY), ("c", "b", 7))
    assert recognize_component(g, ("b", "c")).type == IrreducibleType("I2", 2, 7)


def test_labels_are_read_only_and_the_graph_keeps_its_own_copy():
    given = {("s1", "s2"): 3, ("s2", "s3"): 3}
    g = CoxeterGraph(("s1", "s2", "s3"), given)
    given[("s1", "s3")] = 3  # the caller's dict is not the graph's
    with pytest.raises(TypeError):
        g.labels[("s1", "s3")] = 3
    with pytest.raises(TypeError):
        del g.labels[("s1", "s2")]
    assert g.label("s1", "s3") == 2 and components(g, ["s1", "s3"]) == [("s1",), ("s3",)]
    assert dict(g.labels) == {("s1", "s2"): 3, ("s2", "s3"): 3}


def test_equality_repr_and_pickle_bytes_are_those_of_a_plain_label_dict():
    g = standard_graph("A", 3)
    assert g == CoxeterGraph(("s1", "s2", "s3"), {("s1", "s2"): 3, ("s2", "s3"): 3})
    assert g != CoxeterGraph(("s1", "s2", "s3"), {("s1", "s2"): 3, ("s2", "s3"): 4})
    assert repr(g) == "CoxeterGraph(generators=('s1', 's2', 's3'), labels={('s1', 's2'): 3, ('s2', 's3'): 3})"
    # the bytes of the graph before its labels became read-only
    assert pickle.dumps(g, 4) == (
        b"\x80\x04\x95Y\x00\x00\x00\x00\x00\x00\x00\x8c\x0fartinstab.graph\x94"
        b"\x8c\x0cCoxeterGraph\x94\x93\x94\x8c\x02s1\x94\x8c\x02s2\x94\x8c\x02s3\x94"
        b"\x87\x94}\x94(\x8c\x02s1\x94\x8c\x02s2\x94\x86\x94K\x03\x8c\x02s2\x94"
        b"\x8c\x02s3\x94\x86\x94K\x03u\x86\x94R\x94."
    )
    for clone in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert clone == g and repr(clone) == repr(g)
        with pytest.raises(TypeError):
            clone.labels[("s1", "s3")] = 3
    assert g != (g.generators, g.labels)
    # read-only and unhashable, with the fields first in vars(g)
    for name in ("generators", "labels", "types", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    with pytest.raises(TypeError):
        hash(g)
    assert list(vars(g))[:2] == ["generators", "labels"] and vars(g)["labels"] is g.labels


def test_roundtrip_preserves_label_map():
    g = parse_graph(
        '{"generators": ["c", "a", "b"], "relations": [["a", "b", 5], ["a", "c", 0]]}'
    )
    again = parse_graph(graph_text(g))
    assert again.labels == g.labels
    assert again.generators == g.generators


def test_subset_rejects_unknown_generator_as_graph_error():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    with pytest.raises(GraphError, match="unknown generator 'z'"):
        a3.subset(("a", "z"))


def test_components_basic():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    assert components(a3, ("a", "c")) == [("a",), ("c",)]
    assert components(a3, ("a", "b", "c")) == [("a", "b", "c")]
    assert components(a3, ()) == []


def test_components_e7_example():
    e7 = standard_graph("E", 7)
    got = components(e7, ("s1", "s2", "s4", "s5", "s6", "s7"))
    assert got == [("s1", "s4", "s5", "s6", "s7"), ("s2",)]


def test_components_infinite_label_counts_as_edge():
    g = build_graph("ab", ("a", "b", INFINITY))
    assert components(g, ("a", "b")) == [("a", "b")]


def test_adjacent():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    assert adjacent(a3, ("a",)) == ("b",)
    assert adjacent(a3, ("a", "b", "c")) == ()
    e7 = standard_graph("E", 7)
    assert adjacent(e7, ("s1", "s2", "s3", "s4", "s6")) == ("s5", "s7")


def test_to_dot():
    a2 = build_graph("ab", ("a", "b", 3))
    dot = to_dot(a2)
    assert '"a" -- "b";' in dot and "label" not in dot
    i25 = build_graph("ab", ("a", "b", 5))
    assert 'label="5"' in to_dot(i25)
    inf = build_graph("ab", ("a", "b", INFINITY))
    assert 'label="∞"' in to_dot(inf)
    # commuting pairs draw no edge
    free = build_graph("ab")
    assert "--" not in to_dot(free)


def test_serialization_is_sorted_and_stable():
    g = build_graph("dcba", ("d", "a", 4), ("c", "b", 3))
    first = graph_text(g)
    second = graph_text(parse_graph(first))
    assert first == second
    data = json.loads(first)
    assert data["generators"] == ["a", "b", "c", "d"]
    assert data["relations"] == [["a", "d", 4], ["b", "c", 3]]
