import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from artinstab import UnsupportedTypeError, expand_subset, orbit, standard_graph, to_json_dict
from artinstab.cli import _COMMANDS, _build_parser, _parse_well_formed, main

E7 = {
    "generators": ["s1", "s2", "s3", "s4", "s5", "s6", "s7"],
    "relations": [
        ["s1", "s4", 3],
        ["s2", "s3", 3],
        ["s3", "s4", 3],
        ["s4", "s5", 3],
        ["s5", "s6", 3],
        ["s6", "s7", 3],
    ],
}

SQUARE4 = {
    "generators": ["a", "b", "c", "d"],
    "relations": [["a", "b", 3], ["b", "c", 3], ["c", "d", 3], ["a", "d", 4]],
}


@pytest.fixture
def e7_file(tmp_path):
    path = tmp_path / "e7.json"
    path.write_text(json.dumps(E7))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE4))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, e7_file):
    code, out, _ = run(capsys, "validate", "--graph", e7_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == E7["generators"]
    assert ["s1", "s4", 3] in data["relations"]


def test_validate_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": ["a", "a"]}')
    code, _, err = run(capsys, "validate", "--graph", str(bad))
    assert code == 2
    assert "duplicate" in err


@pytest.mark.parametrize("label", ["false", "0.0", "1e400"])
def test_validate_rejects_non_integer_labels(capsys, tmp_path, label):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": ["a", "b"], "relations": [["a", "b", %s]]}' % label)
    code, out, err = run(capsys, "validate", "--graph", str(bad))
    assert code == 2
    assert out == ""
    assert "invalid label" in err


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "validate", "--graph", str(tmp_path / "nope.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 2] No such file")


def test_unreadable_file_is_invalid_input(capsys, tmp_path):
    code, out, err = run(capsys, "validate", "--graph", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno ")


def test_output_error_is_not_invalid_input(monkeypatch, e7_file):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["orbit", "--graph", e7_file, "--subset", "s1", "--format", "json"])


def test_classify_json(capsys, square_file):
    code, out, _ = run(capsys, "classify", "--graph", square_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["applicability"] == "Unknown"


def test_type_subcommand(capsys, e7_file):
    code, out, _ = run(
        capsys,
        "type",
        "--graph",
        e7_file,
        "--subset",
        "s1,s2,s4,s5,s6",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["spherical"] is True
    assert [c["type"] for c in data["components"]] == ["A4", "A1"]


def test_orbit_subcommand(capsys, e7_file):
    code, out, _ = run(
        capsys, "orbit", "--graph", e7_file, "--subset", "s2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["subset"] == ["s2"]
    assert all("word" in entry for entry in data)


def test_conjugate_paper_example(capsys, e7_file):
    code, out, _ = run(
        capsys,
        "conjugate",
        "--graph",
        e7_file,
        "--subset",
        "s1,s2,s3,s4,s6",
        "--target",
        "s2,s4,s5,s6,s7",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["conjugate"] is True
    assert data["word"] == [
        {"delta_of": ["s1", "s2", "s3", "s4", "s5", "s6"], "sign": 1},
        {"delta_of": ["s1", "s4", "s5", "s6", "s7"], "sign": 1},
    ]


def test_conjugate_not_conjugate_text(capsys, e7_file):
    code, out, _ = run(
        capsys,
        "conjugate",
        "--graph",
        e7_file,
        "--subset",
        "s1",
        "--target",
        "s1,s2",
    )
    assert code == 0
    assert "not conjugate" in out


def test_conjugate_expand_words(capsys, e7_file):
    code, out, _ = run(
        capsys,
        "conjugate",
        "--graph",
        e7_file,
        "--subset",
        "s1,s2,s3,s4,s6",
        "--target",
        "s2,s4,s5,s6,s7",
        "--expand-words",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    letters = [factor["letters"] for factor in data["word"]]
    assert len(letters[0]) == 36  # length of the longest element of E6
    assert len(letters[1]) == 15  # length of the longest element of A5
    assert set(letters[1]) == {"s1", "s4", "s5", "s6", "s7"}


def test_orbit_expand_words_equals_per_factor_expansion(capsys, tmp_path):
    g = standard_graph("A", 12)
    path = tmp_path / "a12.json"
    path.write_text(json.dumps(to_json_dict(g)))
    code, out, _ = run(
        capsys,
        "orbit",
        "--graph",
        str(path),
        "--subset",
        "s1,s3,s5",
        "--expand-words",
        "--format",
        "json",
    )
    assert code == 0
    want = orbit(g, ["s1", "s3", "s5"]).to_json_list()
    factors = [f for entry in want for f in entry["word"]]
    for f in factors:
        f["letters"] = expand_subset(g, f["delta_of"])
    assert out == json.dumps(want, indent=2, ensure_ascii=False) + "\n"
    # the expansion is shared: far fewer distinct subsets than factors
    assert len({tuple(f["delta_of"]) for f in factors}) * 10 < len(factors)


class WriteLog(io.StringIO):
    """A stdout stand-in that records each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--graph", "A3"],
        ["classify", "--graph", "A3"],
        ["type", "--graph", "A3", "--subset", "s1,s2"],
        ["orbit", "--graph", "A3", "--subset", "s1,s2", "--expand-words"],
        ["conjugate", "--graph", "A3", "--subset", "s1,s3", "--target", "s1,s2"],
        ["stability", "--graph", "A3", "--subset", "s1,s3"],
        ["oracle-check"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_output_is_one_write(tmp_path, argv):
    # unbuffered, a second write can meet a reader that has already left
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(to_json_dict(standard_graph("A", 3))))
    out = WriteLog()
    with redirect_stdout(out):
        code = main([str(path) if a == "A3" else a for a in argv] + ["--format", "json"])
    assert code == 0
    assert len(out.calls) == 1
    assert out.calls[0].endswith("\n")
    json.loads(out.calls[0])


def test_stability_json_and_exit_codes(capsys, e7_file, square_file):
    code, out, _ = run(
        capsys,
        "stability",
        "--graph",
        e7_file,
        "--subset",
        "s1,s3",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "not_stable"
    assert data["witness"]["kind"] == "permutation"

    code, out, _ = run(
        capsys, "stability", "--graph", square_file, "--subset", "a,b"
    )
    assert code == 3

    code, out, _ = run(
        capsys,
        "stability",
        "--graph",
        square_file,
        "--subset",
        "a,b",
        "--mode",
        "force",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["flags"] == ["hypotheses_unverified"]


def test_stability_subset_cap(capsys, e7_file):
    code, _, err = run(
        capsys,
        "stability",
        "--graph",
        e7_file,
        "--subset",
        "s1,s2,s3,s4,s5,s6,s7",
        "--max-subset-size",
        "3",
    )
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_stability_subset_cap_below_one_is_invalid_input(capsys, e7_file, cap):
    code, out, err = run(
        capsys, "stability", "--graph", e7_file, "--subset", "s1", "--max-subset-size", cap
    )
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err
    assert "cap of" not in err


def test_unknown_generator_rejected_before_computation(capsys, e7_file):
    code, _, err = run(
        capsys, "stability", "--graph", e7_file, "--subset", "s1,zz"
    )
    assert code == 2
    assert "unknown generator" in err


def test_internal_value_error_is_not_reported_as_invalid_input(monkeypatch, e7_file):
    def broken(g):
        raise ValueError("internal invariant broken")

    monkeypatch.setattr("artinstab.cli.classify_group", broken)
    with pytest.raises(ValueError, match="internal invariant broken"):
        main(["classify", "--graph", e7_file])


def test_unsupported_type_error_inside_a_command_propagates(monkeypatch, e7_file):
    def broken(g, V):
        raise UnsupportedTypeError("no model for this type")

    monkeypatch.setattr("artinstab.cli.expand_subset", broken)
    with pytest.raises(UnsupportedTypeError, match="no model for this type"):
        main(["orbit", "--graph", e7_file, "--subset", "s1", "--expand-words"])


@pytest.mark.parametrize("shape", [("H", 3), ("H", 4), ("I2", 0, 5), ("I2", 0, 7)], ids=str)
def test_types_outside_the_oracle_are_answered(capsys, tmp_path, shape):
    g = standard_graph(*shape)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_json_dict(g)))
    every = ",".join(g.generators)
    for argv in (
        ["type", "--subset", every],
        ["orbit", "--subset", "s1", "--expand-words"],
        ["conjugate", "--subset", "s1", "--target", "s2", "--expand-words"],
        ["stability", "--subset", every, "--mode", "force", "--expand-words"],
        ["classify"],
    ):
        code, out, err = run(capsys, *argv, "--graph", str(path), "--format", "json")
        assert (code, err) == (0, ""), argv
        json.loads(out)


@pytest.mark.parametrize(
    "raw",
    [
        b"\xff\xfe",
        b'{"generators": ["a", "b"], "relations": [["a", "b", 1%s]]}' % (b"0" * 5000),
        b"[" * 200000,
    ],
    ids=["not-utf8", "over-long-integer", "deep-nesting"],
)
def test_undecodable_graph_file_is_invalid_input(capsys, tmp_path, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    code, out, err = run(capsys, "classify", "--graph", str(bad))
    assert code == 2
    assert out == ""
    assert "malformed JSON" in err and "Traceback" not in err


def test_stability_on_rank_40(capsys, tmp_path):
    names = [f"s{i}" for i in range(1, 41)]
    path = tmp_path / "a40.json"
    path.write_text(
        json.dumps(
            {"generators": names, "relations": [[a, b, 3] for a, b in zip(names, names[1:])]}
        )
    )
    code, out, _ = run(
        capsys, "stability", "--graph", str(path), "--subset", "s17", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "stable"


def test_export_dot(capsys, square_file):
    code, out, _ = run(capsys, "export-dot", "--graph", square_file)
    assert code == 0
    assert out.startswith("graph coxeter {")
    assert '"a" -- "d" [label="4"];' in out


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_match"] is True
    assert len(data["rows"]) == 21


def test_json_outputs_byte_identical_across_runs(capsys, e7_file):
    argv = [
        "stability",
        "--graph",
        e7_file,
        "--subset",
        "s1,s2,s3,s4,s6",
        "--format",
        "json",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2

    argv = ["orbit", "--graph", e7_file, "--subset", "s1,s2,s3,s4,s6", "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_argparse_error_exit_code(capsys):
    assert main(["stability"]) == 2  # missing required flags
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# Values for each option of the command table that argparse accepts.
VALID = {
    "--graph": ["g.json", "s1"],
    "--format": ["json", "text"],
    "--subset": ["s1,s3", "s2"],
    "--target": ["s1,s2", "s 3"],
    "--mode": ["auto", "force"],
    "--max-subset-size": ["1", "16", " 7"],
}
OPTIONS = sorted({flag for _, _, arguments in _COMMANDS.values() for flag, _ in arguments})
STRAYS = ["", "-", "--", "-1", "0", "xml", "-h", "--help", "--gra", "--graph=g.json", "extra"]


def _argvs(rng: random.Random, count: int):
    """Calls of every command, each with its required options and some
    others in a random order, half of them then broken by inserting,
    repeating, dropping or replacing a token."""
    for _ in range(count):
        command = rng.choice([*_COMMANDS, *_COMMANDS, "bogus", "-h"])
        _, _, arguments = _COMMANDS.get(command, (None, None, ()))
        pairs = [
            [flag] if options.get("action") else [flag, rng.choice(VALID[flag])]
            for flag, options in arguments
            if options.get("required") or rng.random() < 0.5
        ]
        rng.shuffle(pairs)
        argv = [command] + [token for pair in pairs for token in pair]
        for _ in range(rng.choice([0, 0, 1, 2])):
            i = rng.randrange(len(argv) + 1)
            edit = rng.randrange(4)
            if edit == 0:
                argv.insert(i, rng.choice(OPTIONS + STRAYS))
            elif edit == 1 and pairs:
                argv += rng.choice(pairs)
            elif edit == 2 and i < len(argv):
                del argv[i]
            elif i < len(argv):
                argv[i] = rng.choice(OPTIONS + STRAYS + sum(VALID.values(), []))
        yield argv


def test_well_formed_parse_equals_argparse():
    parser = _build_parser()
    accepted = 0
    for argv in _argvs(random.Random(20240612), 3000):
        args = _parse_well_formed(argv)
        if args is None:
            continue
        accepted += 1
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                want = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"accepted {argv}, which argparse rejects")
        assert vars(args) == vars(want), argv
    assert accepted > 1000


def test_well_formed_calls_do_not_build_an_argparse_parser(monkeypatch, capsys, tmp_path):
    def no_argparse():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr("artinstab.cli._build_parser", no_argparse)
    g = str(tmp_path / "a3.json")
    (tmp_path / "a3.json").write_text(json.dumps(to_json_dict(standard_graph("A", 3))))
    shapes = [  # the README's and the CI's calls
        ["validate", "--graph", g],
        ["classify", "--graph", g],
        ["type", "--graph", g, "--subset", "s1,s2"],
        ["orbit", "--graph", g, "--subset", "s1,s2"],
        ["conjugate", "--graph", g, "--subset", "s1", "--target", "s2"],
        ["stability", "--graph", g, "--subset", "s1,s2"],
        ["stability", "--graph", g, "--subset", "s1,s2", "--mode", "force"],
        ["stability", "--graph", g, "--subset", "s1,s3", "--max-subset-size", "2"],
        ["export-dot", "--graph", g],
        ["oracle-check"],
        ["classify", "--graph", g, "--format", "json"],
        ["orbit", "--graph", g, "--subset", "s1", "--format", "json"],
        ["orbit", "--graph", g, "--subset", "s1,s2", "--expand-words", "--format", "json"],
        ["stability", "--graph", g, "--subset", "s1,s3", "--format", "json"],
        ["conjugate", "--graph", g, "--subset", "s1,s3", "--target", "s1,s2", "--format", "json"],
        ["oracle-check", "--format", "json"],
    ]
    values = {
        "--graph": g,
        "--format": "json",
        "--subset": "s1,s3",
        "--target": "s1,s2",
        "--mode": "auto",
        "--max-subset-size": "4",
    }
    for command, (_, _, arguments) in _COMMANDS.items():
        argv = [command]
        for flag, options in arguments:
            argv += [flag] if options.get("action") else [flag, values[flag]]
        shapes.append(argv)
    for argv in shapes:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
