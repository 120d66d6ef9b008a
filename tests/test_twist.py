import copy
import pickle
from functools import partial

import pytest

from artinstab import (
    INFINITY,
    ConjugatorWord,
    DeltaActionUndefined,
    GraphError,
    IrreducibleType,
    OrbitTable,
    StabilityReport,
    TwistFactor,
    Witness,
    adjacent,
    apply_word,
    classify_group,
    components,
    decide_stability,
    delta_automorphism,
    delta_conjugate_set,
    elementary_twist,
    longest_element,
    orbit,
    recognize_component,
    standard_graph,
    tuple_twist,
)
from artinstab.orbit import _xor, bfs_closure
from artinstab.twist import step_at, steps

from conftest import build_graph, delta_map


# ------------------------------------------------------- delta automorphism


def test_delta_automorphism_a_type_reverses():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    tc = recognize_component(a3, "abc")
    assert delta_automorphism(tc) == {"a": "c", "b": "b", "c": "a"}


def test_delta_automorphism_identity_for_non_twistable():
    d6 = standard_graph("D", 6)
    tc = recognize_component(d6, d6.generators)
    assert delta_automorphism(tc) == {v: v for v in d6.generators}
    b3 = standard_graph("B", 3)
    tc = recognize_component(b3, b3.generators)
    assert delta_automorphism(tc) == {v: v for v in b3.generators}


def test_delta_automorphism_d_odd_swaps_prongs():
    d5 = standard_graph("D", 5)
    tc = recognize_component(d5, d5.generators)
    tau = delta_automorphism(tc)
    assert tau == {"s1": "s2", "s2": "s1", "s3": "s3", "s4": "s4", "s5": "s5"}


def test_delta_automorphism_e6_inside_e7():
    e7 = standard_graph("E", 7)
    tc = recognize_component(e7, [f"s{i}" for i in range(1, 7)])
    tau = delta_automorphism(tc)
    assert tau == {
        "s1": "s1",
        "s4": "s4",
        "s2": "s6",
        "s6": "s2",
        "s3": "s5",
        "s5": "s3",
    }


def test_delta_automorphism_i2():
    odd = build_graph("ab", ("a", "b", 5))
    assert delta_automorphism(recognize_component(odd, "ab")) == {"a": "b", "b": "a"}
    even = build_graph("ab", ("a", "b", 6))
    assert delta_automorphism(recognize_component(even, "ab")) == {"a": "a", "b": "b"}


def test_delta_automorphism_is_label_preserving_involution():
    for family, n, m in [("A", 6, 0), ("D", 5, 0), ("D", 7, 0), ("E", 6, 0), ("I2", 2, 9)]:
        g = standard_graph(family, n, m)
        tc = recognize_component(g, g.generators)
        tau = delta_automorphism(tc)
        assert all(tau[tau[v]] == v for v in g.generators)
        for i, s in enumerate(g.generators):
            for t in g.generators[i + 1 :]:
                assert g.label(s, t) == g.label(tau[s], tau[t])


# ------------------------------------------------------ conjugating a set


def test_delta_conjugate_set_basic():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    assert delta_conjugate_set(a3, ("a", "b"), ("a",)) == ("b",)
    # non-twistable component acts trivially
    b2 = build_graph("ab", ("a", "b", 4))
    assert delta_conjugate_set(b2, ("a", "b"), ("a",)) == ("a",)


def test_delta_conjugate_set_rejects_adjacent_outsiders():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    with pytest.raises(DeltaActionUndefined):
        delta_conjugate_set(a3, ("a", "b"), ("c",))


def test_delta_conjugate_set_requires_spherical():
    g = build_graph("ab", ("a", "b", INFINITY))
    with pytest.raises(ValueError, match="spherical"):
        delta_conjugate_set(g, ("a", "b"), ("a",))


def test_delta_conjugate_set_is_componentwise():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    # {a, c} is A1 + A1: each component is fixed
    assert delta_conjugate_set(a3, ("a", "c"), ("a",)) == ("a",)
    assert delta_conjugate_set(a3, ("a", "c"), ("c",)) == ("c",)
    # {a, b, c} is A3: a and c swap, b is fixed
    assert delta_conjugate_set(a3, ("a", "b", "c"), ("a",)) == ("c",)
    assert delta_conjugate_set(a3, ("a", "b", "c"), ("b",)) == ("b",)
    assert delta_conjugate_set(a3, ("a", "b", "c"), ("c",)) == ("a",)


# ------------------------------------------------------- elementary twists


def test_elementary_twist_e7_worked_steps():
    e7 = standard_graph("E", 7)
    X = ("s1", "s2", "s3", "s4", "s6")
    Z, factor = elementary_twist(e7, X, "s5")
    assert Z == ("s1", "s2", "s4", "s5", "s6")
    assert factor == TwistFactor(("s1", "s2", "s3", "s4", "s5", "s6"), 1)
    Z2, factor2 = elementary_twist(e7, Z, "s7")
    assert Z2 == ("s2", "s4", "s5", "s6", "s7")
    assert factor2 == TwistFactor(("s1", "s4", "s5", "s6", "s7"), 1)


def test_elementary_twist_not_twistable():
    b2 = build_graph("ab", ("a", "b", 4))
    assert elementary_twist(b2, ("a",), "b") is None
    i26 = build_graph("ab", ("a", "b", 6))
    assert elementary_twist(i26, ("a",), "b") is None


def test_elementary_twist_requires_adjacency():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    with pytest.raises(ValueError, match="adjacent"):
        elementary_twist(a3, ("a",), "c")
    with pytest.raises(ValueError, match="adjacent"):  # t inside Y
        elementary_twist(a3, ("a", "b"), "b")
    with pytest.raises(GraphError, match="unknown generator 'z'"):
        elementary_twist(a3, ("a",), "z")


def test_twist_preserves_size_and_diagram_shape():
    e7 = standard_graph("E", 7)
    Y = ("s1", "s2", "s3", "s4", "s6")
    Z, factor = elementary_twist(e7, Y, "s5")
    assert len(Z) == len(Y)
    tau = delta_map(e7, factor.subset)
    image = {tau.get(v, v) for v in Y}
    assert image == set(Z)
    for a in Y:
        for b in Y:
            if a < b:
                assert e7.label(a, b) == e7.label(tau.get(a, a), tau.get(b, b))


def test_twist_involution():
    e7 = standard_graph("E", 7)
    Y = ("s1", "s2", "s3", "s4", "s6")
    Z, factor = elementary_twist(e7, Y, "s5")
    tc = recognize_component(e7, factor.subset)
    tau = delta_automorphism(tc)
    back_vertex = tau["s5"]
    assert back_vertex in adjacent(e7, Z)
    comp = next(c for c in components(e7, Z + (back_vertex,)) if back_vertex in c)
    assert comp == factor.subset
    Y_back, _ = elementary_twist(e7, Z, back_vertex)
    assert Y_back == Y


# Fixed points: when the twist at t fixes t, Y + t - t is Y itself, so the
# move is 0 and leads the orbit search back to Y, which it has recorded;
# the parts of a component tuple still change places.  (graph, X, t, the
# twisted tuple.)
FIXED_POINT_CASES = [
    (("A", 5), ("s1", "s2", "s4", "s5"), "s3", (("s4", "s5"), ("s1", "s2"))),
    (("D", 5), ("s1", "s2", "s4", "s5"), "s3", (("s2",), ("s1",), ("s4", "s5"))),
    (("E", 6), ("s1", "s2", "s3", "s5", "s6"), "s4", (("s1",), ("s5", "s6"), ("s2", "s3"))),
]


@pytest.mark.parametrize("shape, X, t, swapped", FIXED_POINT_CASES, ids=["A5", "D5", "E6"])
def test_a_twist_fixing_t_is_a_zero_move_that_swaps_parts(shape, X, t, swapped):
    g = standard_graph(*shape)
    factor = TwistFactor(g.generators, 1)
    Y = g.mask(X)
    tbit, move, _, step_factor = step_at(g, Y, t)
    assert (tbit, move, step_factor) == (g.mask([t]), 0, factor)
    assert elementary_twist(g, X, t) == (X, factor)
    assert [Y for Y, _ in orbit(g, X)] == [X]
    assert tuple_twist(g, tuple(components(g, X)), t) == (swapped, factor)
    assert decide_stability(g, X) == Witness(
        "permutation", X, tuple=swapped, word=ConjugatorWord((factor,))
    )


def test_a_zero_move_is_skipped_beside_the_others():
    # A7, X = {s1, s2, s4, s5}: the twist at s3 (A5) fixes s3; the one at
    # s6 (A3 on s4, s5, s6) sends s6 to s4
    a7 = standard_graph("A", 7)
    Y = a7.mask(("s1", "s2", "s4", "s5"))
    moves = {a7.names(tbit): move for tbit, move, _, _ in steps(a7, Y)}
    assert moves == {("s3",): 0, ("s6",): a7.mask(("s4", "s6"))}
    parents = bfs_closure([Y], partial(steps, a7), _xor)
    (first, root), (second, (parent, factor)) = list(parents.items())[:2]
    assert (first, root, a7.names(second)) == (Y, None, ("s1", "s2", "s5", "s6"))
    assert (parent, factor.subset) == (Y, ("s4", "s5", "s6"))


# ---------------------------------------------------------------- words


def test_apply_word_empty_is_identity():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    assert apply_word(a3, ("a", "c"), ConjugatorWord()) == ("a", "c")


def test_apply_word_e7_example():
    e7 = standard_graph("E", 7)
    word = ConjugatorWord(
        (
            TwistFactor(("s1", "s2", "s3", "s4", "s5", "s6"), 1),
            TwistFactor(("s1", "s4", "s5", "s6", "s7"), 1),
        )
    )
    assert apply_word(e7, ("s1", "s2", "s3", "s4", "s6"), word) == (
        "s2",
        "s4",
        "s5",
        "s6",
        "s7",
    )


def test_apply_word_involution():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    V = ("a", "b", "c")
    word = ConjugatorWord((TwistFactor(V, 1), TwistFactor(V, 1)))
    assert apply_word(a3, ("a",), word) == ("a",)


def test_apply_word_reports_failing_factor_index():
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    # the first factor sends {c} to {a}, which the second cannot act on
    word = ConjugatorWord(
        (TwistFactor(("a", "b", "c"), 1), TwistFactor(("b", "c"), 1))
    )
    with pytest.raises(DeltaActionUndefined) as excinfo:
        apply_word(a3, ("c",), word)
    assert excinfo.value.factor_index == 1


def test_a_word_built_by_extension_behaves_like_its_tuple():
    factors = tuple(TwistFactor((f"s{i % 7 + 1}", f"s{i % 7 + 2}"), 1) for i in range(20_000))
    built = ConjugatorWord()
    for f in factors:
        built = built.extended(f)
    flat = ConjugatorWord(factors)
    assert built == flat and hash(built) == hash(flat)
    assert len(built) == len(flat) == 20_000 and bool(built) and not ConjugatorWord()
    assert built.factors == factors and tuple(built) == factors
    assert built.to_json_list() == flat.to_json_list()
    assert repr(built) == repr(flat)
    assert pickle.loads(pickle.dumps(built)) == flat
    assert copy.deepcopy(built) == flat
    # a prefix, or the same length with another last factor, differs
    other = TwistFactor(("s9",), -1)
    assert built != flat.extended(other) and ConjugatorWord(factors[:-1]) != built
    assert built != ConjugatorWord(factors[:-1]).extended(other)
    # a word's prefix is shared, not changed, by extending it twice
    a, b = built.extended(factors[1]), built.extended(other)
    assert a.factors[-1] == factors[1] and b.factors[-1] == other and built == flat

    witness = Witness("permutation", ("s1",), tuple=(("s1",),), word=built)
    twin = Witness("permutation", ("s1",), tuple=(("s1",),), word=flat)
    assert witness == twin and hash(witness) == hash(twin)
    table = OrbitTable(((("s1",), ConjugatorWord()), (("s2",), built)))
    assert dict(table)[("s2",)] == flat
    assert table.to_json_list()[1]["word"] == flat.to_json_list()
    del built, a, b, witness, table  # freeing the chain must not recurse either


A2_FAMILY = (
    "GroupFamilyReport(spherical=True, fc_type=True, free_product_of_spherical=True, "
    "free_factors=((('s1', 's2'), ('A2',)),), large=True, two_dimensional=True, "
    "martin_2dim_condition=True, affine_family=None, applicability='FullStability', "
    "justification='the whole group is of spherical type')"
)

# (record, its fields in order, its repr as the frozen dataclass wrote it)
RECORDS = [
    pytest.param(lambda: IrreducibleType("I2", 2, 5), ("family", "rank", "m"),
                 "IrreducibleType(family='I2', rank=2, m=5)", id="IrreducibleType"),
    pytest.param(lambda: recognize_component(standard_graph("A", 2), ["s1", "s2"]),
                 ("type", "positions"),
                 "TypedComponent(type=IrreducibleType(family='A', rank=2, m=0), positions=('s1', 's2'))",
                 id="TypedComponent"),
    pytest.param(lambda: classify_group(standard_graph("A", 2)),
                 ("spherical", "fc_type", "free_product_of_spherical", "free_factors", "large",
                  "two_dimensional", "martin_2dim_condition", "affine_family", "applicability",
                  "justification"),
                 A2_FAMILY, id="GroupFamilyReport"),
    pytest.param(lambda: TwistFactor(("s1", "s2"), -1), ("subset", "sign"),
                 "TwistFactor(subset=('s1', 's2'), sign=-1)", id="TwistFactor"),
    pytest.param(lambda: decide_stability(standard_graph("A", 3), ["s1", "s3"]),
                 ("kind", "subset", "tuple", "word", "component", "leaf", "attach"),
                 "Witness(kind='permutation', subset=('s1', 's3'), tuple=(('s3',), ('s1',)), "
                 "word=ConjugatorWord(factors=(TwistFactor(subset=('s1', 's2', 's3'), sign=1),)), "
                 "component=None, leaf=None, attach=None)", id="Witness"),
    pytest.param(lambda: StabilityReport("stable", "stability", None, classify_group(standard_graph("A", 2))),
                 ("verdict", "semantics", "witness", "family", "flags", "reason"),
                 f"StabilityReport(verdict='stable', semantics='stability', witness=None, "
                 f"family={A2_FAMILY}, flags=(), reason=None)", id="StabilityReport"),
    pytest.param(lambda: longest_element(recognize_component(standard_graph("A", 2), ["s1", "s2"])),
                 ("matrix", "word"), "WeylElement(matrix=((0, -1), (-1, 0)), word=(1, 2, 1))",
                 id="WeylElement"),
    pytest.param(lambda: longest_element(recognize_component(standard_graph("I2", 2, 5), ["s1", "s2"])),
                 ("m", "rot", "flip", "word"), "DihedralElement(m=5, rot=2, flip=True, word=(1, 2, 1, 2, 1))",
                 id="DihedralElement"),
]


@pytest.mark.parametrize("make, fields, text", RECORDS)
def test_a_record_is_a_read_only_tuple_of_its_fields(make, fields, text):
    record = make()
    values = tuple(getattr(record, name) for name in fields)
    assert repr(record) == text and hash(record) == hash(values)
    assert tuple(record) == values and record == values
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record and repr(clone) == text


def test_an_orbit_table_compares_hashes_and_prints_by_its_entries():
    table = orbit(standard_graph("A", 2), ["s1"])
    entries = ((("s1",), ConjugatorWord()), (("s2",), ConjugatorWord([TwistFactor(("s1", "s2"))])))
    assert table.entries == entries and table == OrbitTable(entries) and hash(table) == hash((entries,))
    assert table != OrbitTable(entries[:1]) and table != entries
    assert repr(table) == (
        "OrbitTable(entries=((('s1',), ConjugatorWord(factors=())), (('s2',), "
        "ConjugatorWord(factors=(TwistFactor(subset=('s1', 's2'), sign=1),)))))"
    )
