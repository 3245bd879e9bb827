"""Exhaustive generation of example families, up to isomorphism.

Isomorphism here means any vertex bijection that maps edges onto edges and
either preserves the two sides or swaps them wholesale.  `canonical_form`
realizes it by brute force, which is fine at the sizes the guards allow.

Three generators are provided.  `enumerate_cm` lists the Cohen-Macaulay
bipartite graphs of a given dimension by walking the reflexive transitive
relations whose related pairs all have i <= j (each one is the edge
pattern of a cross-free graph, and relabelled along a linear extension
every Cohen-Macaulay bipartite graph arises that way).
`enumerate_unmixed` lists every unmixed graph on d matched pairs by brute
force over edge supersets of a fixed perfect matching; it is the universe
the oracle cross-checks run over.  Both walks name each class by its least
labelling, the least indicator vector among all relabellings of a
relation and of its dual, and keep the graph of that labelling, so
`canonical_form` runs once per class and never inside a walk.
`enumerate_sharp_cmt` builds the graphs of sharp codimension exactly t as
block expansions of Cohen-Macaulay bases and groups them into families: a
base of dimension t-1 with a single blown-up pair works for every block
size, so that family is infinite and is reported once, with the size-2
and size-3 instances as representatives.

The generators are structural only: codimensions come from the block
formula `predicted_codim` applies, and no instance is classified again or
meets the oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from .bigraph import BipartiteGraph, connected_components, is_connected, is_unmixed
from .construct import Expansion, _sharp_codim, expand

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


def _least_labelling(d: int, relation: set[tuple[int, int]],
                     order: list[tuple[int, int]]) -> tuple[bool, ...]:
    """Least indicator vector over `order` among relabellings of the relation and its dual.

    The relation is reflexive, and its index graph is unmixed with the
    diagonal as a pure order; two such relations get the same vector
    exactly when their index graphs are isomorphic.  A relabelling is a
    side-preserving isomorphism and the dual is the side swap, so equal
    vectors mean isomorphic graphs.  Conversely, take an isomorphism that
    keeps the sides, sending x_i to x_s(i) and y_i to y_u(i).  The image of
    the diagonal is a perfect matching, and a perfect matching sends each
    block's lefts onto that block's rights (`find_pure_order`), so s(i)
    and u(i) lie in one block.  Pairs in one block have equal
    neighbourhoods on both sides (`neighbourhood_blocks`), so x_s(i)y_u(j)
    is an edge exactly when x_s(i)y_s(j) is: the second relation is the
    first relabelled by s.  An isomorphism that swaps the sides does the
    same to the dual.  Both relations thus have the same relabellings, up
    to duality, and the same least vector.
    """
    dual = {(j, i) for i, j in relation}
    return min(tuple((s[a], s[b]) in r for a, b in order)
               for r in (relation, dual) for s in itertools.permutations(range(d)))


def _classes(d: int, walk: list[tuple[int, int]], order: list[tuple[int, int]],
             keep) -> list[BipartiteGraph]:
    """One index graph per class of the reflexive relations the walk keeps.

    Each subset of `walk`, added to the diagonal, is a relation; `keep`
    filters them.  A class is recorded once, by `_least_labelling`, and its
    graph is built from that least vector, so `canonical_form` runs once
    per class, to sort them.

    The graph kept is the one a first-come dedupe keeps on any walk that
    meets relations in increasing order of their vectors over `order` and
    keeps every relabelling of a kept relation and of its dual: the first
    member of a class it meets has the least vector.  Transitivity and
    unmixedness survive isomorphism, so `itertools.product` over all of
    `order`, which yields the vectors in lexicographic order, is such a
    walk for `enumerate_unmixed`; `enumerate_cm` names its own.
    """
    diagonal = {(i, i) for i in range(d)}
    codes = set()
    for mask in itertools.product((False, True), repeat=len(walk)):
        relation = diagonal | set(itertools.compress(walk, mask))
        if keep(relation):
            codes.add(_least_labelling(d, relation, order))
    graphs = [_index_graph(d, diagonal | set(itertools.compress(order, code)))
              for code in codes]
    return sorted(graphs, key=lambda g: canonical_form(g).code)


def _transitive(relation: set[tuple[int, int]]) -> bool:
    return all((a, c) in relation
               for a, b in relation for b2, c in relation if b == b2)


def enumerate_cm(dimension: int) -> list[BipartiteGraph]:
    """All Cohen-Macaulay bipartite graphs of the given dimension, deduplicated.

    The graph on d matched pairs built from a reflexive antisymmetric
    transitive relation (edge x_iy_j for every related i, j) is cross-free,
    and conversely a Macaulay reindexing turns any Cohen-Macaulay bipartite
    graph into such a relation with every related pair i <= j, so walking
    the transitive relations on the pairs i < j is exhaustive.  The key's
    order lists (j, i) then (i, j) for each slot i < j, so on antisymmetric
    relations its vectors rise with none < (i, j) < (j, i) per slot, taken
    lexicographically: the walk over all antisymmetric transitive
    relations in that order meets each class first at its least vector.
    """
    d = dimension + 1
    if not 1 <= d <= MAX_PAIRS_CM:
        raise ValueError(f"dimension must be between 0 and {MAX_PAIRS_CM - 1}")
    slots = list(itertools.combinations(range(d), 2))
    order = [p for i, j in slots for p in ((j, i), (i, j))]
    return _classes(d, slots, order, _transitive)


def enumerate_unmixed(d: int) -> list[BipartiteGraph]:
    """Every unmixed bipartite graph on d matched pairs, no isolated vertices.

    Any such graph contains a perfect matching, so up to relabeling it is a
    superset of the diagonal matching; brute force over the optional
    off-diagonal edges and filter.
    """
    if not 1 <= d <= MAX_PAIRS_UNMIXED:
        raise ValueError(f"d must be between 1 and {MAX_PAIRS_UNMIXED}")
    optional = [(i, j) for i in range(d) for j in range(d) if i != j]
    return _classes(d, optional, optional,
                    lambda relation: is_unmixed(_index_graph(d, relation)))


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

    The multiplicities are the blocks (`_family`), so `predicted_codim`'s
    formula gives each instance's codimension; the bases come from
    `enumerate_cm`, so its cross check would not fire.  On a base of
    h + 1 <= t - 1 pairs the formula alone keeps the vectors described
    above.  No entry above 1 predicts 0.  One entry n above 1 predicts
    (h + n) - n + 1 = h + 1 < t.  k > t - h entries above 1 predict at
    least (h + 1 - k) + 2(k - 1) + 1 = h + k > t: the ones add h + 1 - k,
    and the k - 1 large entries other than the least add at least 2 each.
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
                    expansions = [
                        Expansion(base, tuple(n if k == slot else 1 for k in range(d_base)))
                        for n in (2, 3) if max_total is None or h + n <= max_total]
                    if expansions:
                        fam = _family(expansions, True)
                        found.setdefault(canonical_form(fam.graphs[0]), fam)
            else:
                for vec in itertools.product(range(1, cap + 1), repeat=d_base):
                    if _sharp_codim(vec) == t and (max_total is None or sum(vec) <= max_total):
                        fam = _family([Expansion(base, vec)], False)
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
