"""Exhaustive generation of example families, up to isomorphism.

Isomorphism here means any vertex bijection that maps edges onto edges and
either preserves the two sides or swaps them wholesale.  `canonical_form`
realizes it by brute force, which is fine at the sizes the guards allow.

Three generators are provided.  `enumerate_cm` lists the Cohen-Macaulay
bipartite graphs of a given dimension by walking all reflexive
antisymmetric transitive relations (each one is the edge pattern of a
cross-free graph, and every Cohen-Macaulay bipartite graph arises that
way).  `enumerate_unmixed` lists every unmixed graph on d matched pairs by
brute force over edge supersets of a fixed perfect matching; it is the
universe the oracle cross-checks run over.  `enumerate_sharp_cmt` builds
the graphs of sharp codimension exactly t as block expansions of
Cohen-Macaulay bases and groups them into families: a base of dimension
t-1 with a single blown-up pair works for every block size, so that family
is infinite and is reported once, with the size-2 and size-3 instances as
representatives.

The generators are structural only: codimensions come from
`predicted_codim`, and no instance is classified again or meets the oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from .bigraph import BipartiteGraph, connected_components, is_connected, is_unmixed
from .construct import Expansion, expand, predicted_codim

MAX_SIDE = 8
MAX_PAIRS_CM = 5
MAX_PAIRS_UNMIXED = 4


@dataclass(frozen=True)
class CanonicalForm:
    code: tuple


def _component_code(g: BipartiteGraph, comp: frozenset[str]) -> tuple:
    lefts = tuple(v for v in g.left if v in comp)
    rights = tuple(v for v in g.right if v in comp)
    columns = {y: [x for x in lefts if (x, y) in g.edges] for y in rights}
    best: tuple | None = None
    for sigma in itertools.permutations(lefts):
        position = {x: i for i, x in enumerate(sigma)}
        cols = tuple(sorted(sum(1 << position[x] for x in columns[y])
                            for y in rights))
        if best is None or cols < best:
            best = cols
    return (len(lefts), len(rights), best)


def _oriented_code(g: BipartiteGraph) -> tuple:
    return tuple(sorted(_component_code(g, comp)
                        for comp in connected_components(g)))


def _swap_sides(g: BipartiteGraph) -> BipartiteGraph:
    return BipartiteGraph.of(g.right, g.left, ((y, x) for x, y in g.edges))


def canonical_form(g: BipartiteGraph) -> CanonicalForm:
    """Total-order key, equal for two graphs exactly when they are isomorphic."""
    if len(g.left) > MAX_SIDE or len(g.right) > MAX_SIDE:
        raise ValueError(f"side size guard exceeded ({MAX_SIDE} vertices per side)")
    return CanonicalForm(min(_oriented_code(g), _oriented_code(_swap_sides(g))))


def _index_graph(d: int, relation: set[tuple[int, int]]) -> BipartiteGraph:
    return BipartiteGraph.of(
        (f"x{i + 1}" for i in range(d)),
        (f"y{i + 1}" for i in range(d)),
        ((f"x{i + 1}", f"y{j + 1}") for i, j in relation),
    )


def enumerate_cm(dimension: int) -> list[BipartiteGraph]:
    """All Cohen-Macaulay bipartite graphs of the given dimension, deduplicated.

    The graph on d matched pairs built from a reflexive antisymmetric
    transitive relation (edge x_iy_j for every related i, j) is cross-free,
    and conversely a Macaulay reindexing turns any Cohen-Macaulay bipartite
    graph into such a relation, so walking the relations is exhaustive.
    """
    d = dimension + 1
    if not 1 <= d <= MAX_PAIRS_CM:
        raise ValueError(f"dimension must be between 0 and {MAX_PAIRS_CM - 1}")
    slots = list(itertools.combinations(range(d), 2))
    found: dict[CanonicalForm, BipartiteGraph] = {}
    for choice in itertools.product((0, 1, 2), repeat=len(slots)):
        relation = {(i, i) for i in range(d)}
        for (i, j), kind in zip(slots, choice):
            if kind == 1:
                relation.add((i, j))
            elif kind == 2:
                relation.add((j, i))
        if any((a, d2) not in relation
               for a, b in relation for b2, d2 in relation if b == b2):
            continue
        g = _index_graph(d, relation)
        found.setdefault(canonical_form(g), g)
    return [found[code] for code in sorted(found, key=lambda c: c.code)]


def enumerate_unmixed(d: int) -> list[BipartiteGraph]:
    """Every unmixed bipartite graph on d matched pairs, no isolated vertices.

    Any such graph contains a perfect matching, so up to relabeling it is a
    superset of the diagonal matching; brute force over the optional
    off-diagonal edges and filter.
    """
    if not 1 <= d <= MAX_PAIRS_UNMIXED:
        raise ValueError(f"d must be between 1 and {MAX_PAIRS_UNMIXED}")
    optional = [(i, j) for i in range(d) for j in range(d) if i != j]
    found: dict[CanonicalForm, BipartiteGraph] = {}
    for mask in itertools.product((False, True), repeat=len(optional)):
        relation = {(i, i) for i in range(d)}
        relation.update(p for p, on in zip(optional, mask) if on)
        g = _index_graph(d, relation)
        if is_unmixed(g):
            found.setdefault(canonical_form(g), g)
    return [found[code] for code in sorted(found, key=lambda c: c.code)]


@dataclass(frozen=True)
class CmtFamily:
    """One isomorphism class of sharp CM_t graphs, possibly parametric.

    A parametric family has a single blown-up pair whose size is free; its
    `graphs` are the size-2 and size-3 representatives and `multiplicities`
    records the size-2 instance.  Non-parametric families are single graphs.
    """

    base: BipartiteGraph
    multiplicities: tuple[int, ...]
    parametric: bool
    graphs: tuple[BipartiteGraph, ...]
    connected: bool


def _family(expansions: list[Expansion], parametric: bool) -> CmtFamily:
    """The family of expansions of one base, unclassified; the first is its record.

    The base is cross-free.  In an expansion the copies of pair i all have
    the same neighbourhood.  Copies of pairs i and j have different ones,
    because equal base neighbourhoods would put y_j next to x_i and y_i next
    to x_j, so i and j would cross.  So the blocks are the blown-up pairs,
    and `classify` would read `predicted_codim`'s value off their sizes.
    """
    instances = tuple(map(expand, expansions))
    first = expansions[0]
    return CmtFamily(first.base, first.multiplicities, parametric, instances,
                     is_connected(instances[0]))


def enumerate_sharp_cmt(t: int, max_total: int | None = None) -> list[CmtFamily]:
    """All families of graphs with sharp codimension exactly t, for t >= 2.

    Bases run over Cohen-Macaulay graphs of dimension 1 through t-1.  A
    base of dimension h <= t-2 needs at least two blown-up pairs, each of
    size at most t-h, and the multiplicity vector must predict t on the
    nose; those families are finite.  A base of dimension exactly t-1 takes
    one blown-up pair of arbitrary size, which is the parametric case.
    `max_total` drops every instance whose multiplicities sum past it (a
    family survives if any representative does).
    """
    if t < 2:
        raise ValueError("sharp families are enumerated for t >= 2 only")
    found: dict[CanonicalForm, CmtFamily] = {}
    for h in range(1, t):
        cap = t - h
        for base in enumerate_cm(h):
            d_base = h + 1
            if h == t - 1:
                for slot in range(d_base):
                    expansions = []
                    for size in (2, 3):
                        vec = tuple(size if k == slot else 1 for k in range(d_base))
                        if max_total is not None and sum(vec) > max_total:
                            continue
                        expansions.append(Expansion(base, vec))
                    if not expansions:
                        continue
                    fam = _family(expansions, True)
                    found.setdefault(canonical_form(fam.graphs[0]), fam)
            else:
                for vec in itertools.product(range(1, cap + 1), repeat=d_base):
                    big = [n for n in vec if n >= 2]
                    if len(big) < 2 or len(big) > cap:
                        continue
                    if max_total is not None and sum(vec) > max_total:
                        continue
                    e = Expansion(base, vec)
                    if predicted_codim(e) != t:
                        continue
                    fam = _family([e], False)
                    found.setdefault(canonical_form(fam.graphs[0]), fam)
    return [found[code] for code in sorted(found, key=lambda c: c.code)]


def _code_digest(g: BipartiteGraph) -> str:
    blob = repr(canonical_form(g).code).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_enumeration(out_dir: str | Path, label: str, value: int,
                      graphs: list[BipartiteGraph],
                      connected_count: int | None = None,
                      count: int | None = None) -> dict:
    """Write one graph document per instance plus a manifest, return the manifest.

    `count` defaults to the number of instances; family enumerations pass
    their own family count, which the parametric representatives inflate.
    """
    from .bigraph import to_document
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for g in graphs:
        name = f"g_{_code_digest(g)}.graph"
        (out / name).write_text(to_document(g))
        files.append(name)
    if connected_count is None:
        connected_count = sum(1 for g in graphs if is_connected(g))
    manifest = {
        "dimension_or_t": {label: value},
        "count": len(graphs) if count is None else count,
        "connected_count": connected_count,
        "files": sorted(files),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
