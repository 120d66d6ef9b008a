import pytest

from artinstab import (
    INFINITY,
    GraphError,
    IrreducibleType,
    SubsetSizeLimitError,
    TwistFactor,
    TypedComponent,
    apply_word,
    check_d2k_exception,
    check_d4_exception,
    components,
    decide_stability,
    decide_with_applicability,
    initial_tuple,
    orbit,
    recognize_component,
    standard_graph,
    tuple_orbit,
    tuple_twist,
)

from conftest import build_graph, rename_graph

A3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))


def d_component(g, Y):
    for comp in components(g, Y):
        tc = recognize_component(g, comp)
        if tc is not None and tc.type.family == "D":
            return tc
    raise AssertionError("no D component found")


# ------------------------------------------------------------ tuple twists


def test_tuple_twist_reverses_separated_singletons():
    T = (("a",), ("c",))
    moved, factor = tuple_twist(A3, T, "b")
    assert moved == (("c",), ("a",))
    assert factor == TwistFactor(("a", "b", "c"), 1)


def test_tuple_twist_slides_a_connected_pair():
    moved, _ = tuple_twist(A3, (("a", "b"),), "c")
    assert moved == (("b", "c"),)


def test_tuple_twist_none_when_not_twistable():
    b2 = build_graph("ab", ("a", "b", 4))
    assert tuple_twist(b2, (("a",),), "b") is None


def test_tuple_twist_requires_adjacency():
    with pytest.raises(ValueError, match="adjacent"):
        tuple_twist(A3, (("a",),), "c")
    with pytest.raises(ValueError, match="adjacent"):  # t inside the union
        tuple_twist(A3, (("a",), ("c",)), "c")
    with pytest.raises(GraphError, match="unknown generator 'z'"):
        tuple_twist(A3, (("a",),), "z")


def test_initial_tuple_orders_components_canonically():
    assert initial_tuple(A3, ("c", "a")) == (("a",), ("c",))


def test_tuple_orbit_internal_is_trivial_for_separated_pair():
    inside = {"a", "c"}
    table = tuple_orbit(A3, ("a", "c"), lambda t: t in inside)
    assert set(table) == {(("a",), ("c",))}


def test_tuple_orbit_external_swaps_positions():
    table = tuple_orbit(A3, ("a", "c"))
    assert set(table) == {(("a",), ("c",)), (("c",), ("a",))}
    word = table[(("c",), ("a",))]
    assert [f.subset for f in word] == [("a", "b", "c")]


def test_tuple_orbit_untwistable_start_stays_put():
    g = build_graph("abc", ("a", "b", INFINITY), ("b", "c", 3))
    table = tuple_orbit(g, ("a", "b"))
    assert set(table) == {(("a", "b"),)}


def test_tuple_orbit_unions_are_orbit_keys():
    d5 = standard_graph("D", 5)
    X1 = ("s1", "s4")
    keys = dict(orbit(d5, X1))
    for T, word in tuple_orbit(d5, X1).items():
        union = tuple(sorted(v for part in T for v in part))
        assert union in keys
        # positional images are consistent with the recorded word
        parts = [apply_word(d5, part, word) for part in initial_tuple(d5, X1)]
        assert tuple(parts) == T


# ------------------------------------------------------- even-D exceptions


def test_d2k_exception_in_d7():
    d7 = standard_graph("D", 7)
    X = tuple(f"s{i}" for i in range(1, 7))
    tc = d_component(d7, X)
    assert str(tc.type) == "D6"
    assert check_d2k_exception(d7, X, X, tc) is True


def test_d2k_no_exception_without_external_vertex():
    d6 = standard_graph("D", 6)
    X = d6.generators
    tc = d_component(d6, X)
    assert check_d2k_exception(d6, X, X, tc) is False


def test_d2k_internal_rescue():
    # D6 with two tail extensions, one inside X and one outside: the inside
    # one repairs the obstruction
    g = build_graph(
        "abcdefgh",
        ("a", "c", 3),
        ("b", "c", 3),
        ("c", "d", 3),
        ("d", "e", 3),
        ("e", "f", 3),
        ("f", "g", 3),
        ("f", "h", 3),
    )
    Y = ("a", "b", "c", "d", "e", "f")
    tc = d_component(g, Y)
    assert str(tc.type) == "D6"
    assert tc.positions == ("a", "b", "c", "d", "e", "f")
    # g outside, h inside: rescued
    assert check_d2k_exception(g, ("a", "b", "c", "d", "e", "f", "h"), Y, tc) is False
    # both outside: obstructed
    assert check_d2k_exception(g, Y, Y, tc) is True


def test_d2k_even_merge_is_no_trigger():
    # tail extension by two vertices at once gives an even D type again
    g = build_graph(
        "abcdefgh",
        ("a", "c", 3),
        ("b", "c", 3),
        ("c", "d", 3),
        ("d", "e", 3),
        ("e", "f", 3),
        ("f", "g", 3),
        ("g", "h", 3),
    )
    Y = ("a", "b", "c", "d", "e", "f", "h")  # D6 plus the isolated vertex h
    tc = d_component(g, Y)
    assert str(tc.type) == "D6"
    # merging g absorbs h as well, giving D8: even, so no obstruction
    assert check_d2k_exception(g, Y, Y, tc) is False


def test_d2k_nonspherical_merge_is_no_trigger():
    g = build_graph(
        "abcdefg",
        ("a", "c", 3),
        ("b", "c", 3),
        ("c", "d", 3),
        ("d", "e", 3),
        ("e", "f", 3),
        ("f", "g", 4),
    )
    Y = ("a", "b", "c", "d", "e", "f")
    tc = d_component(g, Y)
    assert check_d2k_exception(g, Y, Y, tc) is False


def test_d2k_precondition_checks():
    d7 = standard_graph("D", 7)
    X = tuple(f"s{i}" for i in range(1, 7))
    tc = d_component(d7, X)
    with pytest.raises(ValueError, match="subset of X"):
        check_d2k_exception(d7, ("s1",), X, tc)
    d5 = standard_graph("D", 5)
    tc5 = d_component(d5, d5.generators)
    with pytest.raises(ValueError, match="even D"):
        check_d2k_exception(d5, d5.generators, d5.generators, tc5)
    # the right vertices and type with the positions reversed: the tail is
    # now at s1, so the component is not the one recognized
    assert tc.positions == ("s1", "s2", "s3", "s4", "s5", "s6")
    reversed_tc = TypedComponent(tc.type, tc.positions[::-1])
    with pytest.raises(ValueError, match="not a component of Y"):
        check_d2k_exception(d7, X, X, reversed_tc)
    # likewise a D4 with its branch vertex moved out of position 3
    Y = ("s1", "s2", "s3", "s4")
    p = d_component(d5, Y).positions
    assert p[2] == "s3"
    moved = TypedComponent(IrreducibleType("D", 4), (p[2], p[1], p[0], p[3]))
    with pytest.raises(ValueError, match="not a component of Y"):
        check_d4_exception(d5, Y, Y, moved)


# ------------------------------------------------------------ D4 exceptions


def test_d4_exception_in_d5():
    d5 = standard_graph("D", 5)
    Y = ("s1", "s2", "s3", "s4")
    tc = d_component(d5, Y)
    assert str(tc.type) == "D4"
    assert check_d4_exception(d5, Y, Y, tc) is True


def test_d4_rescued_by_internal_neighbor_at_same_leaf():
    # D4 on s1..s4 plus an external vertex e at the tail leaf s4 and an
    # internal vertex w at the same leaf; w gives an odd-D extension, which
    # repairs the obstruction
    g = build_graph(
        ["s1", "s2", "s3", "s4", "e", "w"],
        ("s1", "s3", 3),
        ("s2", "s3", 3),
        ("s3", "s4", 3),
        ("s4", "e", 3),
        ("s4", "w", 3),
    )
    Y = ("s1", "s2", "s3", "s4")
    tc = d_component(g, Y)
    X = ("s1", "s2", "s3", "s4", "w")
    assert check_d4_exception(g, X, Y, tc) is False
    # without w inside X the obstruction stands
    assert check_d4_exception(g, Y, Y, tc) is True


def test_d4_no_exception_without_external_odd_extension():
    d4 = standard_graph("D", 4)
    Y = d4.generators
    tc = d_component(d4, Y)
    assert check_d4_exception(d4, Y, Y, tc) is False


def test_d4_rescued_by_the_two_other_leaves():
    # external trigger at leaf s4; both remaining leaves carry their own
    # internal odd-D extensions, so the obstruction is repaired
    base = [
        ("s1", "s3", 3),
        ("s2", "s3", 3),
        ("s3", "s4", 3),
        ("s4", "e", 3),
        ("s1", "u", 3),
        ("s2", "v", 3),
    ]
    g = build_graph(["s1", "s2", "s3", "s4", "e", "u", "v"], *base)
    Y = ("s1", "s2", "s3", "s4")
    tc = d_component(g, Y)
    assert check_d4_exception(g, ("s1", "s2", "s3", "s4", "u", "v"), Y, tc) is False
    # with only one of the two rescues available the obstruction stands
    assert check_d4_exception(g, ("s1", "s2", "s3", "s4", "u"), Y, tc) is True


def test_d4_exception_triggers_at_prong_leaves_too():
    # the external vertex attaches at leaf s1 instead of the tail
    g = build_graph(
        ["s1", "s2", "s3", "s4", "e"],
        ("s1", "s3", 3),
        ("s2", "s3", 3),
        ("s3", "s4", 3),
        ("s1", "e", 3),
    )
    Y = ("s1", "s2", "s3", "s4")
    tc = d_component(g, Y)
    assert check_d4_exception(g, Y, Y, tc) is True


# --------------------------------------------------------------- decisions


def test_decide_a3_separated_pair_not_stable_with_expected_witness():
    w = decide_stability(A3, ("a", "c"))
    assert w is not None
    assert w.kind == "permutation"
    assert w.subset == ("a", "c")
    assert w.tuple == (("c",), ("a",))
    assert [f.subset for f in w.word] == [("a", "b", "c")]
    # the witness word really conjugates the initial tuple to the final one
    parts = [apply_word(A3, part, w.word) for part in initial_tuple(A3, w.subset)]
    assert tuple(parts) == w.tuple


def test_decide_a3_adjacent_pair_stable():
    assert decide_stability(A3, ("a", "b")) is None


def test_decide_d5_d4_subset_gives_d4_witness():
    d5 = standard_graph("D", 5)
    w = decide_stability(d5, ("s1", "s2", "s3", "s4"))
    assert w is not None
    assert w.kind == "d4_exception"
    assert w.subset == ("s1", "s2", "s3", "s4")
    assert w.attach == "s5"
    assert w.leaf in ("s1", "s2", "s4")


def test_decide_d7_d6_subset_gives_d2k_witness():
    d7 = standard_graph("D", 7)
    w = decide_stability(d7, tuple(f"s{i}" for i in range(1, 7)))
    assert w is not None
    assert w.kind == "d2k_exception"
    assert w.attach == "s7"
    assert w.component == ("s1", "s2", "s3", "s4", "s5", "s6")


def test_decide_d2k_witness_comes_before_an_earlier_d4_site():
    # D5 and D7 commuting: on X the D_4 component {a1..a4} comes first in
    # component order, and both components are obstructions, yet every
    # D_2k site is checked before any D_4 site
    d5 = rename_graph(standard_graph("D", 5), {f"s{i}": f"a{i}" for i in range(1, 6)})
    d7 = rename_graph(standard_graph("D", 7), {f"s{i}": f"b{i}" for i in range(1, 8)})
    g = build_graph(d5.generators + d7.generators,
                    *[(s, t, m) for h in (d5, d7) for (s, t), m in h.labels.items()])
    a, b = [f"a{i}" for i in range(1, 5)], [f"b{i}" for i in range(1, 7)]
    assert [recognize_component(g, c).positions for c in components(g, a + b)] == [
        tuple(a), tuple(b)]
    assert decide_stability(g, a + b).to_json_dict() == {
        "kind": "d2k_exception", "subset": a + b, "component": b, "attach": "b7"}
    assert decide_stability(g, a).to_json_dict() == {
        "kind": "d4_exception", "subset": a, "component": a, "leaf": "a4", "attach": "a5"}


def test_decide_witness_subset_with_a_non_spherical_component():
    # a-b (label infinity) never moves; delta(c, d, e) swaps c and e, but d
    # lies outside X, so the first failing subset is X itself
    g = build_graph("abcde", ("a", "b", INFINITY), ("c", "d", 3), ("d", "e", 3))
    w = decide_stability(g, ("a", "b", "c", "e"))
    assert w.to_json_dict() == {
        "kind": "permutation",
        "subset": ["a", "b", "c", "e"],
        "tuple": [["a", "b"], ["e"], ["c"]],
        "word": [{"delta_of": ["c", "d", "e"], "sign": 1}],
    }


def test_decide_i2_singletons():
    i25 = standard_graph("I2", m=5)
    assert decide_stability(i25, ("s1",)) is None
    i26 = standard_graph("I2", m=6)
    assert decide_stability(i26, ("s1",)) is None


def test_decide_whole_set_always_stable():
    for g in (
        A3,
        standard_graph("D", 5),
        standard_graph("E", 6),
        build_graph("abc", ("a", "b", 3), ("b", "c", 3), ("a", "c", INFINITY)),
        build_graph("abcd", ("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 4)),
    ):
        assert decide_stability(g, g.generators) is None


def test_decide_empty_subset_is_stable():
    assert decide_stability(A3, ()) is None


def test_decide_a4_uneven_gap_not_stable():
    a4 = standard_graph("A", 4)
    w = decide_stability(a4, ("s1", "s3", "s4"))
    assert w is not None
    assert w.kind == "permutation"


def test_decide_e7_paper_subset():
    # the conjugacy orbit leaves the subset through s5 and s7 but every
    # return lands back on it, so the subgroup is stable
    e7 = standard_graph("E", 7)
    v = decide_stability(e7, ("s1", "s2", "s3", "s4", "s6"))
    assert v is None or v.kind in ("permutation", "d2k_exception", "d4_exception")  # decision must terminate
    # determinism of repeated runs, witnesses included
    v2 = decide_stability(e7, ("s1", "s2", "s3", "s4", "s6"))
    assert v == v2


def test_decide_respects_subset_cap():
    e7 = standard_graph("E", 7)
    with pytest.raises(SubsetSizeLimitError):
        decide_stability(e7, e7.generators, max_subset_size=3)
    # the cap is on all of X, also when its part in each factor fits it
    a3a3 = build_graph("abcdef", ("a", "b", 3), ("b", "c", 3), ("d", "e", 3), ("e", "f", 3))
    with pytest.raises(SubsetSizeLimitError, match="6 generators, above the cap of 4"):
        decide_stability(a3a3, a3a3.generators, max_subset_size=4)


@pytest.mark.parametrize("cap", [0, -1])
def test_decide_rejects_subset_cap_below_one(cap):
    a5 = standard_graph("A", 5)
    with pytest.raises(ValueError, match="at least 1"):
        decide_stability(a5, ["s1"], max_subset_size=cap)
    with pytest.raises(ValueError, match="at least 1"):
        decide_with_applicability(a5, ["s1"], max_subset_size=cap)
    # a group outside every applicable family is rejected before it is
    # classified, not answered "inapplicable"
    square = build_graph("abcd", ("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 4))
    assert decide_with_applicability(square, ["a", "b"]).verdict == "inapplicable"
    with pytest.raises(ValueError, match="at least 1"):
        decide_with_applicability(square, ["a", "b"], max_subset_size=cap)


# ------------------------------------------------------------ applicability


def test_applicability_spherical_group():
    rep = decide_with_applicability(A3, ("a", "c"))
    assert rep.verdict == "not_stable"
    assert rep.semantics == "stability"
    assert rep.family.applicability == "FullStability"
    assert rep.flags == ()


def test_applicability_fc_only_graph():
    g = build_graph("abcd", ("a", "b", 3), ("c", "d", 3), ("b", "d", INFINITY))
    rep = decide_with_applicability(g, ("a", "b"))
    assert rep.family.applicability == "QuasiStability"
    assert rep.semantics == "stability"  # the subset itself is spherical
    rep = decide_with_applicability(g, ("b", "d"))
    assert rep.semantics == "quasi_stability"  # infinite pair inside X


def test_applicability_free_product():
    g = build_graph("abc", ("a", "b", 3), ("a", "c", INFINITY), ("b", "c", INFINITY))
    rep = decide_with_applicability(g, ("a", "c"))
    assert rep.family.free_product_of_spherical
    assert rep.semantics == "stability"
    assert rep.verdict in ("stable", "not_stable")


def test_applicability_unknown_family_auto_and_force():
    square4 = build_graph(
        "abcd", ("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 4)
    )
    rep = decide_with_applicability(square4, ("a", "b"))
    assert rep.verdict == "inapplicable"
    assert rep.reason == "hypotheses unknown for this family"
    assert rep.witness is None
    forced = decide_with_applicability(square4, ("a", "b"), mode="force")
    assert forced.verdict in ("stable", "not_stable")
    assert forced.flags == ("hypotheses_unverified",)


def test_applicability_rejects_bad_mode():
    with pytest.raises(ValueError, match="mode"):
        decide_with_applicability(A3, ("a",), mode="maybe")


def test_report_json_shape():
    rep = decide_with_applicability(A3, ("a", "c"))
    d = rep.to_json_dict()
    assert set(d) == {"verdict", "semantics", "witness", "family", "flags", "reason"}
    assert d["witness"]["kind"] == "permutation"
    assert d["witness"]["subset"] == ["a", "c"]
    assert d["family"]["applicability"] == "FullStability"
