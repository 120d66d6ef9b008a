"""Command-line interface: validation, classification, orbits, conjugacy and
stability decisions with stable machine-readable output.

Exit codes: 0 a decision was rendered (whatever the verdict), 2 invalid
input, 3 the stability question is inapplicable and --mode force was not
given, 4 the subset-size cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classify_group, recognize_component, standard_graph
from .graph import CoxeterGraph, GraphError, components, parse_graph, to_dot, to_json_dict
from .oracle import (
    expand_subset,
    longest_element,
    positive_roots,
    w0_conjugation_permutation,
)
from .orbit import conjugator, orbit
from .stability import SubsetSizeLimitError, decide_with_applicability
from .twist import delta_automorphism

_ORACLE_CHECK_TYPES: list[tuple[str, int, int]] = (
    [("A", n, 0) for n in range(2, 7)]
    + [("D", n, 0) for n in range(4, 8)]
    + [("E", 6, 0), ("E", 7, 0)]
    + [("F", 4, 0)]
    + [("B", n, 0) for n in range(2, 5)]
    + [("I2", 2, m) for m in range(5, 11)]
)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _emit_json(payload) -> None:
    # one write, so a reader that stops after the text meets no second one
    sys.stdout.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


def _load_graph(args) -> CoxeterGraph:
    # an unreadable file is invalid input; an output error is not
    try:
        with open(args.graph, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise GraphError(str(exc)) from None
    return parse_graph(data)


def _parse_subset(g: CoxeterGraph, raw: str):
    names = [part.strip() for part in raw.split(",") if part.strip()]
    return g.subset(names)


def _attach_letters(tree, g: CoxeterGraph):
    """Add expanded generator words to every delta factor in a JSON tree,
    expanding each distinct subset once."""
    expanded: dict[tuple[str, ...], list[str] | None] = {}

    def attach(node):
        if isinstance(node, dict):
            out = {key: attach(value) for key, value in node.items()}
            if "delta_of" in node:
                V = tuple(node["delta_of"])
                if V not in expanded:
                    expanded[V] = expand_subset(g, V)
                out["letters"] = expanded[V]
            return out
        if isinstance(node, list):
            return [attach(item) for item in node]
        return node

    return attach(tree)


def _word_text(word_json: list[dict]) -> str:
    if not word_json:
        return "(empty word)"
    parts = []
    for factor in word_json:
        sign = "" if factor["sign"] == 1 else "^-1"
        parts.append("delta{" + ",".join(factor["delta_of"]) + "}" + sign)
    return " . ".join(parts)


def _cmd_validate(args) -> int:
    g = _load_graph(args)
    payload = to_json_dict(g)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"graph ok: {len(g.generators)} generators")
        print(json.dumps(payload, ensure_ascii=False))
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args)
    report = classify_group(g)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        d = report.to_json_dict()
        for key, value in d.items():
            print(f"{key}: {value}")
    return 0


def _cmd_type(args) -> int:
    g = _load_graph(args)
    X = _parse_subset(g, args.subset)
    comps = components(g, X)
    entries = []
    for comp in comps:
        tc = recognize_component(g, comp)
        entries.append(
            {
                "generators": list(comp),
                "type": None if tc is None else str(tc.type),
                "positions": None if tc is None else list(tc.positions),
            }
        )
    payload = {
        "subset": list(X),
        "spherical": all(e["type"] is not None for e in entries),
        "components": entries,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        kind = "spherical" if payload["spherical"] else "not spherical"
        print(f"subset {','.join(X)}: {kind}")
        for e in entries:
            print(f"  {{{','.join(e['generators'])}}}: {e['type'] or 'not finite type'}")
    return 0


def _cmd_orbit(args) -> int:
    g = _load_graph(args)
    X = _parse_subset(g, args.subset)
    table = orbit(g, X)
    payload = table.to_json_list()
    if args.expand_words:
        payload = _attach_letters(payload, g)
    if args.format == "json":
        _emit_json(payload)
    else:
        for entry in payload:
            print(f"{{{','.join(entry['subset'])}}}  via  {_word_text(entry['word'])}")
    return 0


def _cmd_conjugate(args) -> int:
    g = _load_graph(args)
    X = _parse_subset(g, args.subset)
    Xp = _parse_subset(g, args.target)
    word = conjugator(g, X, Xp)
    if word is None:
        payload = {"conjugate": False, "word": None}
    else:
        payload = {"conjugate": True, "word": word.to_json_list()}
    if args.expand_words:
        payload = _attach_letters(payload, g)
    if args.format == "json":
        _emit_json(payload)
    elif word is None:
        print("not conjugate")
    else:
        print(_word_text(payload["word"]))
    return 0


def _cmd_stability(args) -> int:
    g = _load_graph(args)
    X = _parse_subset(g, args.subset)
    report = decide_with_applicability(
        g, X, mode=args.mode, max_subset_size=args.max_subset_size
    )
    payload = report.to_json_dict()
    if args.expand_words:
        payload = _attach_letters(payload, g)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"verdict: {payload['verdict']} ({payload['semantics']})")
        if payload["witness"] is not None:
            print(f"witness: {json.dumps(payload['witness'], ensure_ascii=False)}")
        if payload["reason"] is not None:
            print(f"reason: {payload['reason']}")
    if report.verdict == "inapplicable":
        return 3
    return 0


def _cmd_export_dot(args) -> int:
    g = _load_graph(args)
    sys.stdout.write(to_dot(g))
    return 0


def _cmd_oracle_check(args) -> int:
    rows = []
    all_ok = True
    for family, n, m in _ORACLE_CHECK_TYPES:
        g = standard_graph(family, n, m)
        tc = recognize_component(g, g.generators)
        assert tc is not None
        oracle_perm = w0_conjugation_permutation(tc)
        tau = delta_automorphism(tc)
        pos_index = {v: i + 1 for i, v in enumerate(tc.positions)}
        twist_perm = {pos_index[a]: pos_index[b] for a, b in tau.items()}
        ok = oracle_perm == twist_perm
        if tc.type.family != "I2":
            ok = ok and len(longest_element(tc).word) == len(positive_roots(tc))
        all_ok = all_ok and ok
        rows.append(
            {
                "type": str(tc.type),
                "oracle_permutation": {str(k): v for k, v in sorted(oracle_perm.items())},
                "twist_permutation": {str(k): v for k, v in sorted(twist_perm.items())},
                "match": ok,
            }
        )
    if args.format == "json":
        _emit_json({"all_match": all_ok, "rows": rows})
    else:
        for row in rows:
            status = "PASS" if row["match"] else "FAIL"
            print(f"{status}  {row['type']:7s} {row['oracle_permutation']}")
        print("all match" if all_ok else "MISMATCH FOUND")
    return 0


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_GRAPH = ("--graph", {"required": True, "help": "path to the graph JSON file"})
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "text"})
_COMMON = (_GRAPH, _FORMAT)
_SUBSET = ("--subset", {"required": True})
_EXPAND = ("--expand-words", {"action": "store_true"})

# name -> (help, handler, arguments in the order of the help text)
_COMMANDS = {
    "validate": ("parse a graph file and echo the normalized graph", _cmd_validate, _COMMON),
    "classify": ("report the group-family classification", _cmd_classify, _COMMON),
    "type": (
        "spherical-type decomposition of a subset",
        _cmd_type,
        (*_COMMON, ("--subset", {"required": True, "help": "comma-separated generators"})),
    ),
    "orbit": (
        "twist closure of a subset with witness words", _cmd_orbit, (*_COMMON, _SUBSET, _EXPAND)
    ),
    "conjugate": (
        "find a conjugating word between two subsets",
        _cmd_conjugate,
        (*_COMMON, _SUBSET, ("--target", {"required": True}), _EXPAND),
    ),
    "stability": (
        "decide conjugacy stability of a subset",
        _cmd_stability,
        (
            *_COMMON,
            _SUBSET,
            ("--mode", {"choices": ("auto", "force"), "default": "auto"}),
            _EXPAND,
            ("--max-subset-size", {"type": _positive_int, "default": 16}),
        ),
    ),
    "export-dot": ("render the graph in DOT format", _cmd_export_dot, _COMMON),
    "oracle-check": (
        "cross-verify diagram reflections against the Weyl-group oracle",
        _cmd_oracle_check,
        (_FORMAT,),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser, which ``main`` builds only for the calls that
    ``_parse_well_formed`` refuses: help and malformed calls."""
    parser = argparse.ArgumentParser(
        prog="artinstab",
        description=(
            "Decide conjugacy and conjugacy stability of standard parabolic "
            "subgroups of Artin groups given by a Coxeter graph."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def _parse_well_formed(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse would give when argv is a command name, then
    options of its table by exact string, each once, every required one
    given, each value valid and not starting with "-"; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    table, given = dict(arguments), {}
    rest = iter(argv[1:])
    for flag in rest:
        options = table.pop(flag, None)  # popped, so a repeat is unknown
        if options is None:
            return None
        if options.get("action") == "store_true":
            given[flag] = True
            continue
        raw = next(rest, "-")
        try:
            given[flag] = value = options.get("type", str)(raw)
        except argparse.ArgumentTypeError:
            return None
        if raw.startswith("-") or value not in options.get("choices", (value,)):
            return None
    if any(options.get("required") for options in table.values()):
        return None
    args = argparse.Namespace(command=argv[0], handler=handler)
    for flag, options in arguments:
        default = options.get("default", False if "action" in options else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_well_formed(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    # Only input errors map to exit 2; any other exception is a bug and
    # propagates with its traceback.  A type outside the oracle's scope is
    # not one: ``expand_subset`` answers it with None.
    try:
        return args.handler(args)
    except GraphError as exc:
        _fail(str(exc))
        return 2
    except SubsetSizeLimitError as exc:
        _fail(str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
