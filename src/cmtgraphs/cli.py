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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an error report, exit code 1 (argparse's 2 means disagreement here).

        The command is read off a subcommand's `prog` ("cmtgraphs classify");
        an error the top-level parser finds, such as an unknown flag, names
        none.  Nothing has been read, so the input is "".
        """
        _, _, command = self.prog.partition(" ")
        _print_report(command or None, "", "", "error", 0, {"message": message})
        self.exit(EXIT_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmtgraphs",
                     description="classify bipartite graphs by Cohen-Macaulay codimension")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, with_input: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--quiet", action="store_true",
                       help="suppress the report, keep only the exit code")
        if with_input:
            p.add_argument("input", nargs="?", help="path of a graph document")
            p.add_argument("--builtin", choices=BUILTIN_NAMES,
                           help="use a built-in example instead of a file")
        return p

    add("classify", "block-size classification of one graph")
    oracle = add("oracle", "brute-force homology report for one graph")
    oracle.add_argument("--max-t", type=int, default=None,
                        help="also report whether the codimension stays within this bound")
    verify = add("verify", "compare classifier and oracle")
    verify.add_argument("--d", type=int, default=None,
                        help="check every unmixed graph on this many matched pairs, not one graph")
    add("expand", "blow matched edges up into complete blocks (needs an M: line)")
    add("contract", "collapse complete blocks back to the base graph")
    enum = add("enumerate", "generate example families", with_input=False)
    group = enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--cm", type=int, metavar="DIM",
                       help="Cohen-Macaulay graphs of this dimension")
    group.add_argument("--cmt", type=int, metavar="T",
                       help="families of sharp codimension exactly T")
    enum.add_argument("--max-total", type=int, default=None,
                      help="with --cmt, drop instances whose multiplicities sum past this")
    enum.add_argument("--out", default=None, metavar="DIR",
                      help="write graph documents and a manifest here")
    return parser


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
    print(json.dumps(report, indent=2, sort_keys=True))


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

# Built once: the parser holds no per-call state, and `parse_args` returns a
# fresh Namespace on every call, so nothing carries over between calls.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
