"""Expansion of matched edges into complete bipartite blocks, and its inverse.

`expand` replaces the i-th matched edge of a base graph with a block
K_{n_i,n_i} while copying every other adjacency onto the new vertices.
`contract` undoes this: it finds the block decomposition of an unmixed
graph, keeps one representative pair per block, and returns the base graph
together with the block sizes.  The base is always cross-free, so it is
Cohen-Macaulay, and `predicted_codim` reads the expanded graph's sharp
codimension off the multiplicities alone.

An expansion serializes as the base document plus one `M:` line:

    L: x1 x2
    R: y1 y2
    E: x1-y1 x1-y2 x2-y2
    M: 1 3
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigraph import (
    BipartiteGraph,
    GraphFormatError,
    PureOrder,
    find_pure_order,
    is_pure_order,
    neighbourhood_blocks,
    parse_document,
    to_document,
)


@dataclass(frozen=True)
class Expansion:
    """A base graph plus one multiplicity per matched pair.

    The base's pure order is positional: left[i] is matched with right[i].
    Construction fails if that pairing is not actually a pure order.
    """

    base: BipartiteGraph
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.base.left) != len(self.base.right):
            raise ValueError("base sides differ in size, no positional matching")
        if len(self.multiplicities) != len(self.base.left):
            raise ValueError(
                f"multiplicity length mismatch: {len(self.multiplicities)} values "
                f"for {len(self.base.left)} matched pairs")
        for n in self.multiplicities:
            if n < 1:
                raise ValueError(f"multiplicity must be positive, got {n}")
        if not is_pure_order(self.base, PureOrder(self.pairs)):
            raise ValueError("positional pairing of the base is not a pure order")

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.base.left, self.base.right))

    @property
    def d(self) -> int:
        return len(self.multiplicities)


def expand(e: Expansion) -> BipartiteGraph:
    """Blow the i-th matched pair up to K_{n_i,n_i}, keeping all adjacencies.

    New vertices are named `<basename>_<k>` with k counting from 1, so the
    output is deterministic and contract can be checked against it.  Each
    x_iy_i is a base edge (`Expansion` checked), so one pass over the base
    edges, joining every copy of x to every copy of y, builds every block.
    """
    base = e.base
    copies = {v: [f"{v}_{k}" for k in range(1, n + 1)]
              for side in (base.left, base.right)
              for v, n in zip(side, e.multiplicities)}
    return BipartiteGraph.of((c for x in base.left for c in copies[x]),
                             (c for y in base.right for c in copies[y]),
                             ((cx, cy) for x, y in base.edges
                              for cx in copies[x] for cy in copies[y]))


def contract(g: BipartiteGraph) -> Expansion:
    """Collapse each complete bipartite block back to a single matched edge.

    Picks the smallest index of every block as its representative.  The
    result needs no re-check.  In a block the lefts have equal
    neighbourhoods, and so do the rights (`neighbourhood_blocks`), so
    whether x_iy_j is an edge depends only on the blocks of i and j:
    adjacency between two blocks is uniform, and any choice of
    representatives yields an isomorphic base.  The base is induced on the
    representatives, so two of them cross in it only if they cross in g,
    and then they would have equal neighbourhoods and share a block.  So
    the base is cross-free.  `find_pure_order` built the order, so its
    blocks need no purity check.
    """
    po = find_pure_order(g)
    if po is None:
        raise ValueError("graph is not unmixed, nothing to contract")
    decomposition = neighbourhood_blocks(g, po.lefts)
    reps = [min(block) - 1 for block in decomposition.blocks]
    xs, ys = po.lefts, po.rights
    base = BipartiteGraph.of([xs[i] for i in reps], [ys[i] for i in reps],
                             {(xs[i], ys[j]) for i in reps for j in reps
                              if (xs[i], ys[j]) in g.edges})
    return Expansion(base, decomposition.sizes)


def predicted_codim(e: Expansion) -> int:
    """Sharp codimension of expand(e), computed from the multiplicities.

    The multiplicities are the block sizes of expand(e), so with n their
    total and n_0 the smallest above 1, the expansion is exactly
    CM_{n-n_0+1}; the all-ones expansion is the base itself and stays
    Cohen-Macaulay.  `Expansion` is frozen and proved its positional
    pairing pure, so the blocks need no purity check.
    """
    if any(n >= 2 for n in neighbourhood_blocks(e.base, e.base.left).sizes):
        raise ValueError("base graph is not Cohen-Macaulay (it has a cross)")
    return _sharp_codim(e.multiplicities)


def _sharp_codim(sizes) -> int:
    """The main theorem on block sizes: d - n_min + 1, or 0 when all are 1.

    d is the number of matched pairs, the sum of the sizes, and n_min the
    smallest size above 1.
    """
    big = [n for n in sizes if n > 1]
    return sum(sizes) - min(big) + 1 if big else 0


def parse_expansion(text: str) -> Expansion:
    """Read a base document with its mandatory `M:` multiplicity line."""
    g, mult = parse_document(text)
    if mult is None:
        raise GraphFormatError("missing 'M:' line with multiplicities")
    return Expansion(g, mult)


def expansion_document(e: Expansion) -> str:
    return to_document(e.base) + "M: " + " ".join(map(str, e.multiplicities)) + "\n"
