"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import json
import random
import time
from itertools import combinations
from pathlib import Path

from artinstab import (
    INFINITY,
    ConjugatorWord,
    TwistFactor,
    adjacent,
    apply_word,
    classify_group,
    components,
    conjugator,
    decide_stability,
    delta_automorphism,
    elementary_twist,
    initial_tuple,
    orbit,
    recognize_component,
    standard_graph,
    tuple_orbit,
    w0_conjugation_permutation,
)

from conftest import build_graph, random_graph, random_subset, rename_graph

GOLDEN = Path(__file__).parent / "data" / "braid_sweep_golden.json"


def report(criterion: int, description: str) -> None:
    print(f"criterion {criterion} PASS: {description}")


def test_criterion_1_e7_worked_example():
    started = time.perf_counter()
    e7 = standard_graph("E", 7)
    X = ("s1", "s2", "s3", "s4", "s6")
    target = ("s2", "s4", "s5", "s6", "s7")
    word = conjugator(e7, X, target)
    expected = ConjugatorWord(
        (
            TwistFactor(("s1", "s2", "s3", "s4", "s5", "s6"), 1),
            TwistFactor(("s1", "s4", "s5", "s6", "s7"), 1),
        )
    )
    assert word == expected
    assert apply_word(e7, X, word) == target
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"E7 conjugator is the exact two-factor word ({elapsed:.3f}s)")


def test_criterion_2_d_even_non_conjugacy():
    started = time.perf_counter()
    d6 = standard_graph("D", 6)
    X = ("s1", "s3", "s4", "s5", "s6")
    Xp = ("s2", "s3", "s4", "s5", "s6")
    assert conjugator(d6, X, Xp) is None
    t_d6 = time.perf_counter() - started

    started = time.perf_counter()
    d5 = standard_graph("D", 5)
    word = conjugator(d5, ("s1", "s3", "s4", "s5"), ("s2", "s3", "s4", "s5"))
    assert word is not None
    assert apply_word(d5, ("s1", "s3", "s4", "s5"), word) == ("s2", "s3", "s4", "s5")
    t_d5 = time.perf_counter() - started
    assert t_d6 < 1.0 and t_d5 < 1.0
    report(2, f"D6 pair not conjugate, D5 pair conjugate ({t_d6:.3f}s / {t_d5:.3f}s)")


def test_criterion_3_oracle_cross_check():
    started = time.perf_counter()
    cases = (
        [("A", n, 0) for n in range(2, 7)]
        + [("D", n, 0) for n in range(4, 8)]
        + [("E", 6, 0), ("E", 7, 0)]
        + [("F", 4, 0)]
        + [("B", n, 0) for n in range(2, 5)]
        + [("I2", 2, m) for m in range(5, 11)]
    )
    twistable_expected = {
        "A2", "A3", "A4", "A5", "A6", "D5", "D7", "E6",
        "I2(5)", "I2(7)", "I2(9)",
    }
    for family, n, m in cases:
        g = standard_graph(family, n, m)
        tc = recognize_component(g, g.generators)
        perm = w0_conjugation_permutation(tc)
        tau = delta_automorphism(tc)
        index = {v: i + 1 for i, v in enumerate(tc.positions)}
        assert perm == {index[a]: index[b] for a, b in tau.items()}, str(tc.type)
        nontrivial = any(perm[i] != i for i in perm)
        assert nontrivial == (str(tc.type) in twistable_expected), str(tc.type)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, f"oracle matches diagram reflections on all 21 types ({elapsed:.3f}s)")


def test_criterion_4_independently_verified_instances():
    started = time.perf_counter()
    a3 = build_graph("abc", ("a", "b", 3), ("b", "c", 3))
    assert decide_stability(a3, ("a", "c")) is not None
    t1 = time.perf_counter() - started

    started = time.perf_counter()
    i25 = build_graph("ab", ("a", "b", 5))
    assert decide_stability(i25, ("a",)) is None
    t2 = time.perf_counter() - started

    started = time.perf_counter()
    test_graphs = [
        a3,
        i25,
        standard_graph("D", 5),
        standard_graph("E", 6),
        standard_graph("B", 4),
        build_graph("abc", ("a", "b", 3), ("b", "c", 3), ("a", "c", INFINITY)),
        build_graph("abc", ("a", "b", 3), ("b", "c", 3), ("a", "c", 3)),
        build_graph("abcd", ("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 4)),
    ]
    for g in test_graphs:
        assert decide_stability(g, g.generators) is None
    t3 = time.perf_counter() - started
    assert t1 < 1.0 and t2 < 1.0 and t3 < 1.0
    report(4, f"abelian, dihedral and whole-set instances ({t1:.3f}s/{t2:.3f}s/{t3:.3f}s)")


def test_criterion_5_d_exception_instances():
    started = time.perf_counter()
    d5 = standard_graph("D", 5)
    w = decide_stability(d5, ("s1", "s2", "s3", "s4"))
    assert w is not None and w.kind == "d4_exception"
    t1 = time.perf_counter() - started

    started = time.perf_counter()
    d7 = standard_graph("D", 7)
    w = decide_stability(d7, tuple(f"s{i}" for i in range(1, 7)))
    assert w is not None and w.kind == "d2k_exception"
    t2 = time.perf_counter() - started

    started = time.perf_counter()
    from artinstab import check_d4_exception

    rescued = build_graph(
        ["s1", "s2", "s3", "s4", "e", "w"],
        ("s1", "s3", 3),
        ("s2", "s3", 3),
        ("s3", "s4", 3),
        ("s4", "e", 3),
        ("s4", "w", 3),
    )
    Y = ("s1", "s2", "s3", "s4")
    tc = next(
        t
        for t in (recognize_component(rescued, c) for c in components(rescued, Y))
        if t is not None and str(t.type) == "D4"
    )
    assert check_d4_exception(rescued, ("s1", "s2", "s3", "s4", "w"), Y, tc) is False
    t3 = time.perf_counter() - started
    assert t1 < 1.0 and t2 < 1.0 and t3 < 1.0
    report(5, f"D4 and D2k exceptions with rescue ({t1:.3f}s/{t2:.3f}s/{t3:.3f}s)")


def _interval_components(X):
    idx = sorted(int(s[1:]) for s in X)
    comps = [[idx[0]]]
    for k in idx[1:]:
        if k == comps[-1][-1] + 1:
            comps[-1].append(k)
        else:
            comps.append([k])
    return comps


def test_criterion_6_braid_sweep_against_golden():
    started = time.perf_counter()
    golden = json.loads(GOLDEN.read_text())
    computed = {}
    for n in range(2, 7):
        g = standard_graph("A", n)
        verdicts = {}
        for r in range(1, n + 1):
            for X in combinations(g.generators, r):
                status = "stable" if decide_stability(g, X) is None else "not_stable"
                verdicts[",".join(X)] = status

                end_segment = set(X) == {f"s{i}" for i in range(1, r + 1)}
                if end_segment:
                    assert status == "stable", (n, X)
                comps = _interval_components(X)
                one_gap = any(
                    b[0] - a[-1] == 2 for a, b in zip(comps, comps[1:])
                )
                if one_gap:
                    assert status == "not_stable", (n, X)
        computed[f"A{n}"] = verdicts
    assert computed == golden
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    total = sum(len(v) for v in computed.values())
    report(6, f"braid sweep of {total} subsets matches the golden table ({elapsed:.1f}s)")


def test_criterion_7_randomized_property_sweep():
    started = time.perf_counter()
    rng = random.Random(0xC0C0)
    cases = 0
    fresh_names = list("uvwxyz")

    # orbit witness validity, cardinality and spot symmetry
    for _ in range(4000):
        g = random_graph(rng)
        X = random_subset(rng, g)
        table = orbit(g, X)
        for subset, word in table:
            assert len(subset) == len(X)
            assert apply_word(g, X, word) == subset
        last, _ = table.entries[-1]
        assert X in dict(orbit(g, last))
        cases += 1

    # twist involution
    for _ in range(3000):
        g = random_graph(rng)
        Y = random_subset(rng, g)
        for t in adjacent(g, Y):
            step = elementary_twist(g, Y, t)
            if step is None:
                continue
            Z, factor = step
            tc = recognize_component(g, factor.subset)
            back = delta_automorphism(tc)[t]
            again, _ = elementary_twist(g, Z, back)
            assert again == Y
        cases += 1

    # tuple invariants: disjointness, sizes, label-preserving positional maps
    for _ in range(2200):
        g = random_graph(rng)
        X1 = random_subset(rng, g)
        start = initial_tuple(g, X1)
        keys = dict(orbit(g, X1))
        for T, word in tuple_orbit(g, X1).items():
            flat = [v for part in T for v in part]
            assert len(flat) == len(set(flat))
            assert tuple(sorted(flat)) in keys
            for before, after in zip(start, T):
                assert apply_word(g, before, word) == after
        cases += 1

    # verdict invariance under renaming
    for _ in range(300):
        g = random_graph(rng, max_vertices=5)
        X = random_subset(rng, g)
        names = fresh_names[: len(g.generators)]
        rng.shuffle(names)
        mapping = dict(zip(g.generators, names))
        h = rename_graph(g, mapping)
        v1 = decide_stability(g, X)
        v2 = decide_stability(h, tuple(sorted(mapping[x] for x in X)))
        assert (v1 is None) == (v2 is None)
        if v1 is not None:
            assert v1.kind == v2.kind
        cases += 1

    # byte-identical JSON of freshly recomputed results
    for _ in range(500):
        g = random_graph(rng)
        X = random_subset(rng, g)
        one = json.dumps(orbit(g, X).to_json_list())
        two = json.dumps(orbit(g, X).to_json_list())
        assert one == two
        cases += 1

    assert cases >= 10_000
    elapsed = time.perf_counter() - started
    report(7, f"{cases} randomized cases, zero violations ({elapsed:.1f}s)")


def test_criterion_8_family_detection():
    started = time.perf_counter()
    fc = build_graph("abc", ("a", "b", 3), ("b", "c", 3), ("a", "c", INFINITY))
    r = classify_group(fc)
    assert r.fc_type and not r.free_product_of_spherical

    fp = build_graph("abc", ("a", "b", 3), ("a", "c", INFINITY), ("b", "c", INFINITY))
    r = classify_group(fp)
    assert r.free_product_of_spherical
    assert [types for _, types in r.free_factors] == [("A2",), ("A1",)]
    assert r.applicability == "FullStability"

    tri = build_graph("abc", ("a", "b", 3), ("b", "c", 3), ("a", "c", 3))
    r = classify_group(tri)
    assert r.affine_family == "A~2"
    assert r.applicability == "FullStability"

    c2 = build_graph("abc", ("a", "b", 4), ("b", "c", 4))
    r = classify_group(c2)
    assert r.affine_family == "C~2"
    assert r.applicability == "FullStability"

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(8, f"FC, free-product and affine families detected ({elapsed:.3f}s)")
