"""Rules on the source itself, read with `ast` rather than by running it.

One rule also imports the package in a fresh interpreter, to see what
the import loads.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import cmtgraphs

SRC = pathlib.Path(cmtgraphs.__file__).parent


def imported_names(tree: ast.AST) -> set[str]:
    """Dotted names of every import, relative dots dropped: `from . import x` is `x`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            names |= {prefix + alias.name for alias in node.names}
    return names


def package_modules_reached(module: str) -> set[str]:
    """`module` and every package module its imports reach, followed transitively."""
    reached, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for imported in imported_names(ast.parse((SRC / f"{name}.py").read_text())):
                todo += [part for part in imported.split(".") if (SRC / f"{part}.py").exists()]
    return reached


def test_structural_route_is_independent_and_nothing_caches_across_calls():
    # The structural modules and the enumerators built on them must not
    # reach the homology oracle, even through another module, or the two
    # routes would stop checking each other.
    for module in ("bigraph", "construct", "enumeration"):
        names = imported_names(ast.parse((SRC / f"{module}.py").read_text()))
        assert not any("simplicial" in name.split(".") for name in names), (module, names)
        reached = package_modules_reached(module)
        assert "simplicial" not in reached, (module, sorted(reached))
    # Memo tables live inside one call: no process-wide functools caches.
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text())
        cached = {"functools.lru_cache", "functools.cache"} & imported_names(tree)
        cached |= {f"functools.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                   and isinstance(node.value, ast.Name) and node.value.id == "functools"}
        assert not cached, (path.name, cached)


def test_oracle_reads_only_the_public_graph():
    # The oracle's bitmask layout is decided in `simplicial` alone, from
    # the graph's `vertices` and `edges`: of the members of `BipartiteGraph`
    # it reads no other, public or private.  Its masks thus never share the
    # structural route's neighbour masks, so a fault in those shows up as a
    # `verify` disagreement.  Its twin classes come from its own masks too,
    # never from the structural route's grouping, `neighbourhood_blocks`.
    bigraph = ast.parse((SRC / "bigraph.py").read_text())
    (cls,) = [node for node in bigraph.body
              if isinstance(node, ast.ClassDef) and node.name == "BipartiteGraph"]
    members = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    members |= {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}
    (fields,) = [node.value for node in cls.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["_fields"]]
    members |= set(ast.literal_eval(fields))
    members = {name for name in members if not (name.startswith("__") and name.endswith("__"))}
    assert {"left", "right", "edges", "vertices", "neighbors", "_side_masks", "_blocks"} <= members
    simplicial = ast.parse((SRC / "simplicial.py").read_text())
    read = {node.attr for node in ast.walk(simplicial)
            if isinstance(node, ast.Attribute) and node.attr in members}
    assert read <= {"vertices", "edges"}, read
    named = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(simplicial) if isinstance(node, (ast.Attribute, ast.Name))}
    named |= {name.split(".")[-1] for name in imported_names(simplicial)}
    assert "neighbourhood_blocks" not in named


def test_start_up_loads_no_dataclasses():
    # Every CLI process imports the whole package.  Importing `dataclasses`
    # (which loads `inspect`, `ast`, `dis` and `tokenize`) and defining
    # eleven frozen dataclasses took 11-17 ms of the import, so the value
    # types are `NamedTuple`s or plain classes (`bigraph._Frozen`).
    for path in sorted(SRC.glob("**/*.py")):
        names = imported_names(ast.parse(path.read_text()))
        assert not any(name.split(".")[0] == "dataclasses" for name in names), path.name
    # -S keeps site hooks, which may import anything, out of the check.
    probe = "import cmtgraphs.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert loaded.stdout.strip() == "[]", loaded.stdout


def test_well_formed_command_loads_no_argparse():
    # Importing argparse (with gettext and locale) and building its parser
    # took about 6 ms of every CLI process.  The CLI reads a well-formed
    # argv from its own table and imports argparse only for help and
    # usage errors; the usage error at the end shows that the probe sees it.
    # `json` (1.5 ms) is imported only by the report writer's fallback and
    # `--out`, so a well-formed `classify` does not load it.
    probe = ("import sys, cmtgraphs.cli as cli\n"
             "names = {'argparse', 'gettext', 'json', 'locale'}\n"
             "print(sorted(names & set(sys.modules)))\n"
             "cli.main(['classify', '--builtin', 'fig1', '--quiet'])\n"
             "print(sorted(names & set(sys.modules)))\n"
             "try:\n"
             "    cli.main(['classify', '--quiet', '--no-such-flag'])\n"
             "except SystemExit:\n"
             "    print(sorted(names & set(sys.modules)))\n")
    loaded = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert loaded.stdout.split("\n") == ["[]", "[]", "['argparse', 'gettext', 'locale']", ""], \
        loaded.stdout


def test_every_mutant_still_applies():
    # `run_mutants.py`, outside tier-1, checks that the tests catch each
    # mutant in `mutants.json`.  Here each old text must still occur once,
    # so a refactor carries its mutants along, and each test expected to
    # catch it must lie in one of its files, which the runner falls back
    # to.  This file would fail on every mutant, so no mutant may name it.
    tests = pathlib.Path(__file__).parent
    for mutant in json.loads((tests / "mutants.json").read_text()):
        assert (SRC.parent / mutant["file"]).read_text().count(mutant["old"]) == 1, mutant
        assert all((tests.parent / t).is_file() for t in mutant["tests"]), mutant
        assert "tests/test_source_rules.py" not in mutant["tests"], mutant
        assert all(t.split("::")[0] in mutant["tests"] for t in mutant.get("catching", [])), mutant
