"""Command line front end.

    cmtgraphs classify --builtin fig1
    cmtgraphs classify mygraph.graph
    cmtgraphs oracle --builtin fig2
    cmtgraphs verify --d 3
    cmtgraphs expand expansion.graph
    cmtgraphs contract --builtin fig1
    cmtgraphs enumerate --cm 2 --out results/

Every command prints one JSON report to stdout (suppressed by --quiet) and
exits 0 on success, 2 when a verification found a disagreement, 1 on any
error.  All computation lives in the library modules; this file only
dispatches and serializes.

The grammar is declared once, in `_COMMANDS`, and read two ways.  A
lookup table built from it (`_TABLE`) reads the argv of a well-formed
command: a subcommand, then exact option strings, their values and at
most one input path.  Every other argv (help, abbreviations,
`--opt=value`, repeats, anything malformed) goes to an argparse parser
built from the same declaration, which is imported and built only then,
once per process; it alone prints help and finds usage errors, and the
tests hold the table to it.  A report is written by `_dump`, which gives
`json.dumps(report, indent=2, sort_keys=True)`'s text without its
pure-Python indenting encoder.
"""

from __future__ import annotations

import hashlib
import sys
import time
from types import SimpleNamespace

try:  # the C function `json.encoder` wraps, without importing `json`
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .bigraph import ConsistencyError, is_connected, parse_graph, to_document
from . import simplicial
from .classify import classification_json, verify_against_oracle
from .construct import contract, expand, expansion_document, parse_expansion, predicted_codim
from .enumeration import (canonical_form, enumerate_cm, enumerate_sharp_cmt, enumerate_unmixed,
                          write_enumeration)
from .figures import BUILTIN_NAMES, builtin_document

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DISAGREEMENT = 2

# The grammar: per subcommand, its help line and its arguments, each an
# option string (or the positional's name) and argparse's keywords for it.
_QUIET = ("--quiet", {"action": "store_true",
                      "help": "suppress the report, keep only the exit code"})
_GRAPH = (_QUIET,
          ("input", {"nargs": "?", "help": "path of a graph document"}),
          ("--builtin", {"choices": BUILTIN_NAMES,
                         "help": "use a built-in example instead of a file"}))
_COMMANDS = {
    "classify": ("block-size classification of one graph", _GRAPH),
    "oracle": ("brute-force homology report for one graph", _GRAPH + (
        ("--max-t", {"type": int,
                     "help": "also report whether the codimension stays within this bound"}),)),
    "verify": ("compare classifier and oracle", _GRAPH + (
        ("--d", {"type": int,
                 "help": "check every unmixed graph on this many matched pairs, not one graph"}),)),
    "expand": ("blow matched edges up into complete blocks (needs an M: line)", _GRAPH),
    "contract": ("collapse complete blocks back to the base graph", _GRAPH),
    "enumerate": ("generate example families", (
        _QUIET,
        ("--cm", {"type": int, "metavar": "DIM",
                  "help": "Cohen-Macaulay graphs of this dimension"}),
        ("--cmt", {"type": int, "metavar": "T",
                   "help": "families of sharp codimension exactly T"}),
        ("--max-total", {"type": int,
                         "help": "with --cmt, drop instances whose multiplicities sum past this"}),
        ("--out", {"metavar": "DIR", "help": "write graph documents and a manifest here"}))),
}
# Exactly one of these is given (argparse: a required mutually exclusive group).
_ONE_OF = {"enumerate": ("--cm", "--cmt")}


def _table_entry(command: str, arguments) -> tuple[dict, dict, str | None]:
    """The namespace argparse starts from, the options by exact string, the positional."""
    defaults, options, positional = {"command": command}, {}, None
    for name, keywords in arguments:
        if not name.startswith("-"):
            positional = name
            defaults[name] = None
            continue
        dest = name.lstrip("-").replace("-", "_")
        switch = keywords.get("action") == "store_true"
        defaults[dest] = False if switch else None
        options[name] = (dest, None if switch else keywords)
    return defaults, options, positional


_TABLE = {command: _table_entry(command, arguments)
          for command, (_, arguments) in _COMMANDS.items()}


def _read_table(argv: list[str]) -> dict | None:
    """The namespace of a well-formed command, or None for argparse to read.

    Accepted: argv[0] a subcommand; every later token an exact option
    string of it, given at most once, or its one positional; `--quiet`
    with no value; any other option with the next token as its value,
    which does not start with "-" and which the option's `type` converts
    or its `choices` hold; for `enumerate`, exactly one of `--cm`, `--cmt`.

    On every argv accepted here argparse gives the same namespace (same
    `vars()`):
    - argv[0] is a subcommand, so the top-level parser's subparsers
      positional (nargs PARSER, pattern `A[-AO]*`) takes it and every
      later token, and the subcommand's parser reads them all.
    - argparse reads a token as positional exactly when it is empty or
      does not start with "-"; every other accepted token is an exact
      option string of the subcommand's parser, so no abbreviation,
      `=` split or negative-number rule applies to it.
    - `--quiet` (store_true) takes no token and any other option (nargs
      None) exactly the next one, which is positional; the tokens left
      over are at most one, which fills `input` (nargs "?"), and with
      none `input` keeps its default.  So no token is left unrecognised.
    - argparse converts a value with `type(token)` and then checks it
      against `choices`; the table does the same and declines where
      either fails, where argparse would report an error.
    - Each option occurs once, so argparse's last value is the only one;
      `enumerate`'s group sees one of its options, so neither its
      conflict check nor its required check fires.
    - argparse starts from every dest at its default (None, or False for
      store_true) and sets `command`; the table starts from the same.
    """
    entry = _TABLE.get(argv[0]) if argv else None
    if entry is None:
        return None
    defaults, options, positional = entry
    args, given = dict(defaults), set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            if token in given:
                return None
            given.add(token)
            dest, keywords = options[token]
            if keywords is None:
                args[dest] = True
                continue
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
            args[dest] = value
        elif token.startswith("-") or positional is None or args[positional] is not None:
            return None
        else:
            args[positional] = token
    one_of = _ONE_OF.get(argv[0])
    if one_of is not None and len(given.intersection(one_of)) != 1:
        return None
    return args


class _UsageError(Exception):
    """argparse's usage error: the subcommand it was parsing (or None) and its message."""


_PARSER = None


def _build_parser():
    """The argparse parser of `_COMMANDS`; argparse is imported here, not at start-up."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            """A usage error becomes an error report in `_argparse`, not argparse's exit 2.

            The command is read off a subcommand's `prog` ("cmtgraphs
            classify"); an error the top-level parser finds, such as an
            unknown flag, names none.
            """
            _, _, command = self.prog.partition(" ")
            raise _UsageError(command or None, message)

    parser = _Parser(prog="cmtgraphs",
                     description="classify bipartite graphs by Cohen-Macaulay codimension")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        group = None
        for name, keywords in arguments:
            target = p
            if name in _ONE_OF.get(command, ()):
                group = group or p.add_mutually_exclusive_group(required=True)
                target = group
            target.add_argument(name, **keywords)
    return parser


def _argparse(argv: list[str], quiet: bool):
    """argparse's namespace for `argv`, or its help, or a usage-error report and exit 1.

    The parser is built on the first call and kept: it holds no per-call
    state, and `parse_args` returns a fresh Namespace every time.  Nothing
    has been read at a usage error, so the report's input is "", and it
    is not printed when `quiet`.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        return _PARSER.parse_args(argv)
    except _UsageError as exc:
        if not quiet:
            command, message = exc.args
            _print_report(command, "", "", "error", 0, {"message": message})
        raise SystemExit(EXIT_ERROR) from None


def _parse(argv: list[str]):
    """The command's arguments: the table's when it accepts `argv`, else argparse's.

    An exact `--quiet` after a subcommand silences a usage error too.
    """
    args = _read_table(argv)
    if args is not None:
        return SimpleNamespace(**args)
    return _argparse(argv, bool(argv) and argv[0] in _TABLE and "--quiet" in argv[1:])


def _source(args) -> str:
    """What the command was given; the report names it whether or not it fails."""
    if args.command == "enumerate":
        return f"cm:dim={args.cm}" if args.cm is not None else f"cmt:t={args.cmt}"
    if args.command == "verify" and args.d is not None:
        return f"unmixed:d={args.d}"
    return f"builtin:{args.builtin}" if args.builtin else args.input or ""


def _read_input(args) -> str:
    """The graph document; kept on `args` so the report can digest it."""
    if args.builtin:
        if args.input:
            raise ValueError("give either a path or --builtin, not both")
        args.document = builtin_document(args.builtin)
    elif not args.input:
        raise ValueError("no input given: pass a path or --builtin")
    else:
        with open(args.input, encoding="utf-8") as fh:
            args.document = fh.read()
    return args.document


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _print_report(command, source: str, document: str, status: str, elapsed_ms: int,
                  result: dict) -> None:
    """The one JSON report a command prints; `document` is what its digest is taken of."""
    report = {
        "command": command,
        "input_digest": _digest(document),
        "input": source,
        "status": status,
        "elapsed_ms": elapsed_ms,
        "result": result,
    }
    print(_dump(report, ""))


def _dump(value, indent: str) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`'s text for `value`, nested at `indent`.

    Dicts, lists, str, int, bool and None are written here, strings by
    json's own `encode_basestring_ascii` and dict items in json's order,
    sorted by key.  Any other value, a float say, is left to `json.dumps`,
    its lines shifted by `indent`; so is a dict with a key that is not a
    string, on which `encode_basestring_ascii` raises TypeError.  The
    shift is exact: with `ensure_ascii` no string holds a raw newline, so
    every newline in the text starts a line.  It stands in for
    `json.dumps`, whose `indent` runs json's pure-Python encoder; `json` is
    imported only for that fallback, so a command's report loads no `json`.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_dump(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        try:
            items = [encode_basestring_ascii(key) + ": " + _dump(value[key], inner)
                     for key in sorted(value)]
        except TypeError:
            items = None
        if items is not None:
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    import json

    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _cmd_classify(args) -> tuple[str, dict]:
    return "ok", classification_json(parse_graph(_read_input(args)))


def _cmd_oracle(args) -> tuple[str, dict]:
    sweep = simplicial.oracle_sweep(parse_graph(_read_input(args)), homology=True)
    codim = sweep.cm_codim
    result = {
        "facet_count": sweep.facet_count,
        "dimension": sweep.dimension,
        "pure": sweep.pure,
        "betti": sweep.homology.as_dict(),
        "cm_codim": codim,
    }
    if args.max_t is not None:
        result["max_t"] = args.max_t
        result["cm_within_max_t"] = codim is not None and codim <= args.max_t
    return "ok", result


def _cmd_verify(args) -> tuple[str, dict]:
    if args.d is None and not (args.input or args.builtin):
        raise ValueError("verify needs --d or a single graph input")
    if args.d is not None and (args.input or args.builtin):
        raise ValueError("give either --d or a single graph input, not both")
    if args.d is not None:
        reports = [(g, verify_against_oracle(g)) for g in enumerate_unmixed(args.d)]
        # The classes come by least labelling; the counterexamples are
        # listed by canonical form, so only a disagreement canonizes.
        bad = sorted(((g, r) for g, r in reports if not r.agree),
                     key=lambda item: canonical_form(item[0]).code)
        result = {
            "d": args.d,
            "instances": len(reports),
            "disagreements": len(bad),
            "counterexamples": [
                {"document": to_document(g), "mismatches": list(r.mismatches)}
                for g, r in bad
            ],
        }
        return ("ok" if not bad else "disagreement"), result
    report = verify_against_oracle(parse_graph(_read_input(args)))
    result = {
        "agree": report.agree,
        "structural_t_sharp": report.structural.t_sharp,
        "oracle_cm_codim": report.oracle_codim,
        "oracle_pure": report.oracle_pure,
        "mismatches": list(report.mismatches),
    }
    return ("ok" if report.agree else "disagreement"), result


def _cmd_expand(args) -> tuple[str, dict]:
    g = expand(parse_expansion(_read_input(args)))
    result = {
        "document": to_document(g),
        "vertices": len(g.vertices),
        "edges": len(g.edges),
    }
    return "ok", result


def _cmd_contract(args) -> tuple[str, dict]:
    e = contract(parse_graph(_read_input(args)))
    result = {
        "document": expansion_document(e),
        "multiplicities": list(e.multiplicities),
        "predicted_codim": predicted_codim(e),
    }
    return "ok", result


def _cmd_enumerate(args) -> tuple[str, dict]:
    families = None
    if args.cm is not None:
        if args.max_total is not None:
            raise ValueError("give --max-total only with --cmt, not with --cm")
        instances = enumerate_cm(args.cm)
        label, value = "dimension", args.cm
        connected = [is_connected(g) for g in instances]
    else:
        fams = enumerate_sharp_cmt(args.cmt, args.max_total)
        label, value = "t", args.cmt
        connected = [f.connected for f in fams]
        instances = [g for f in fams for g in f.graphs]
        families = [
            {
                "multiplicities": list(f.multiplicities),
                "parametric": f.parametric,
                "connected": f.connected,
                "instances": len(f.graphs),
            }
            for f in fams
        ]
    manifest = {
        "dimension_or_t": {label: value},
        "count": len(connected),
        "connected_count": sum(connected),
        "files": [],
    }
    if args.out:
        manifest = write_enumeration(args.out, manifest, instances)
    if families is not None:
        manifest["families"] = families
    return "ok", manifest


_HANDLERS = {
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "expand": _cmd_expand,
    "contract": _cmd_contract,
    "enumerate": _cmd_enumerate,
}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    source = _source(args)
    args.document = None
    started = time.monotonic()
    try:
        status, result = _HANDLERS[args.command](args)
    except (ValueError, OSError, ConsistencyError, RecursionError, MemoryError) as exc:
        status, result = "error", {"message": str(exc) or type(exc).__name__}
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if not args.quiet:
        # The document read, or the source's name when none was read.
        _print_report(args.command, source,
                      source if args.document is None else args.document,
                      status, elapsed_ms, result)
    if status == "ok":
        return EXIT_OK
    if status == "disagreement":
        return EXIT_DISAGREEMENT
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
