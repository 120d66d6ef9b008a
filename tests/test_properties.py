"""Property suite over randomized Coxeter graphs of up to ten vertices
(five for the renaming test, which runs the 2^|X| stability decision)."""

import json

from hypothesis import given, settings, strategies as st

from artinstab import (
    INFINITY,
    CoxeterGraph,
    adjacent,
    apply_word,
    components,
    decide_stability,
    delta_automorphism,
    elementary_twist,
    initial_tuple,
    orbit,
    parse_graph,
    recognize_component,
    tuple_orbit,
)

from conftest import delta_map, graph_text, rename_graph

LABELS = (2, 3, 4, 5, INFINITY)
NAMES = "abcdefghij"


@st.composite
def graphs(draw, max_vertices=10):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    names = list(NAMES[:n])
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(st.sampled_from(LABELS))
            if m != 2:
                rels.append((names[i], names[j], m))
    return CoxeterGraph.build(names, rels)


@st.composite
def graphs_with_subset(draw, max_vertices=10, nonempty=True):
    g = draw(graphs(max_vertices))
    k = draw(st.integers(min_value=1 if nonempty else 0, max_value=len(g.generators)))
    subset = draw(
        st.permutations(list(g.generators)).map(lambda p: tuple(sorted(p[:k])))
    )
    return g, subset


@given(graphs())
def test_parse_serialize_roundtrip(g):
    again = parse_graph(graph_text(g))
    assert again.labels == g.labels and again.generators == g.generators


@given(graphs_with_subset(nonempty=False))
def test_components_partition_and_adjacency(gs):
    g, X = gs
    comps = components(g, X)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(X)
    assert len(set(seen)) == len(seen)
    for comp in comps:
        # connectivity inside each component
        assert components(g, comp) == [comp]
    assert not set(adjacent(g, X)) & set(X)


@given(graphs_with_subset())
def test_orbit_words_reproduce_keys(gs):
    g, X = gs
    table = orbit(g, X)
    for subset, word in table:
        assert len(subset) == len(X)
        assert apply_word(g, X, word) == subset


@given(graphs_with_subset())
@settings(max_examples=50)
def test_orbit_symmetry(gs):
    g, X = gs
    mine = dict(orbit(g, X)).keys()
    for Y in mine:
        assert dict(orbit(g, Y)).keys() == mine


def component_key(g, X):
    """The sorted types of the spherical components of X and the sorted
    vertex sets of its other components, from public calls only."""
    spherical, other = [], []
    for comp in components(g, X):
        tc = recognize_component(g, comp)
        if tc is None:
            other.append(comp)
        else:
            spherical.append(str(tc.type))
    return sorted(spherical), sorted(other)


@given(graphs_with_subset())
@settings(max_examples=60)
def test_orbit_members_share_component_types(gs):
    g, X = gs
    key = component_key(g, X)
    for Y, _ in orbit(g, X):
        assert component_key(g, Y) == key


@given(graphs_with_subset())
def test_twist_involution(gs):
    g, Y = gs
    for t in adjacent(g, Y):
        step = elementary_twist(g, Y, t)
        if step is None:
            continue
        Z, factor = step
        assert len(Z) == len(Y)
        tc = recognize_component(g, factor.subset)
        back = delta_automorphism(tc)[t]
        assert back in adjacent(g, Z)
        comp = next(c for c in components(g, tuple(sorted(set(Z) | {back}))) if back in c)
        assert comp == factor.subset
        again, _ = elementary_twist(g, Z, back)
        assert again == Y


@given(graphs_with_subset())
def test_twist_is_a_label_preserving_bijection(gs):
    g, Y = gs
    for t in adjacent(g, Y):
        step = elementary_twist(g, Y, t)
        if step is None:
            continue
        Z, factor = step
        tau = delta_map(g, factor.subset)
        mapping = {v: tau.get(v, v) for v in Y}
        assert set(mapping.values()) == set(Z)
        for a in Y:
            for b in Y:
                if a < b:
                    assert g.label(a, b) == g.label(mapping[a], mapping[b])


@given(graphs_with_subset())
@settings(max_examples=60)
def test_tuple_orbit_invariants(gs):
    g, X1 = gs
    start = initial_tuple(g, X1)
    orbit_keys = dict(orbit(g, X1))
    for T, word in tuple_orbit(g, X1).items():
        assert len(T) == len(start)
        flat = [v for part in T for v in part]
        assert len(flat) == len(set(flat))
        union = tuple(sorted(flat))
        assert union in orbit_keys
        for before, after in zip(start, T):
            assert len(before) == len(after)
            image = apply_word(g, before, word)
            assert image == after
            for a in before:
                for b in before:
                    if a < b:
                        fa = apply_word(g, (a,), word)[0]
                        fb = apply_word(g, (b,), word)[0]
                        assert g.label(a, b) == g.label(fa, fb)


@given(graphs_with_subset(max_vertices=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_verdict_invariant_under_renaming(gs, rnd):
    g, X = gs
    fresh = list("uvwxyz"[: len(g.generators)])
    rnd.shuffle(fresh)
    mapping = dict(zip(g.generators, fresh))
    h = rename_graph(g, mapping)
    v1 = decide_stability(g, X)
    v2 = decide_stability(h, tuple(sorted(mapping[x] for x in X)))
    assert (v1 is None) == (v2 is None)
    if v1 is not None:
        assert v1.kind == v2.kind


@given(graphs_with_subset())
@settings(max_examples=40)
def test_json_outputs_deterministic(gs):
    g, X = gs
    one = json.dumps(orbit(g, X).to_json_list())
    two = json.dumps(orbit(g, X).to_json_list())
    assert one == two
    r1 = decide_stability(g, X)
    r2 = decide_stability(g, X)
    assert r1 == r2
