"""Rules on the source itself, read with `ast` rather than by running it."""

import ast
import pathlib

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


def test_structural_route_is_independent_and_nothing_caches_across_calls():
    # The structural modules must not reach the homology oracle, or the
    # two routes would stop checking each other.
    for module in ("bigraph.py", "construct.py"):
        names = imported_names(ast.parse((SRC / module).read_text()))
        assert not any("simplicial" in name.split(".") for name in names), (module, names)
    # Memo tables live inside one call: no process-wide functools caches.
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text())
        cached = {"functools.lru_cache", "functools.cache"} & imported_names(tree)
        cached |= {f"functools.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                   and isinstance(node.value, ast.Name) and node.value.id == "functools"}
        assert not cached, (path.name, cached)
