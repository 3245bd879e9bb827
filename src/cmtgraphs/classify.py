"""Structural classification of unmixed bipartite graphs.

The classifier never touches homology.  It finds a pure order, splits the
matched pairs into complete bipartite blocks, and reads the sharp
codimension straight off the block sizes: with d pairs in total and n_min
the smallest block size that is at least 2, the graph is CM_{d-n_min+1}
and nothing better; a cross-free graph (all blocks singletons) is
Cohen-Macaulay outright.  `verify_against_oracle` replays the same
questions against the homology oracle and reports any disagreement.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .bigraph import (
    BipartiteGraph,
    BlockDecomposition,
    IsolatedVertexError,
    PureOrder,
    _positions,
    find_pure_order,
)
from .construct import _sharp_codim
from . import simplicial


class CmtClassification(NamedTuple):
    """Verdict for one graph; all fields except `unmixed` are None for mixed input."""

    unmixed: bool
    d: int | None = None
    block_sizes: tuple[int, ...] | None = None
    n_min: int | None = None
    t_sharp: int | None = None
    order: PureOrder | None = None
    blocks: BlockDecomposition | None = None

    @property
    def dimension(self) -> int | None:
        return None if self.d is None else self.d - 1

    @property
    def cohen_macaulay(self) -> bool:
        return self.t_sharp == 0

    @property
    def buchsbaum(self) -> bool:
        return self.t_sharp is not None and self.t_sharp <= 1


def classify(g: BipartiteGraph) -> CmtClassification:
    """Block-size classification; raises IsolatedVertexError outside its domain."""
    order = find_pure_order(g)
    if order is None:
        return CmtClassification(unmixed=False)
    blocks = g._blocks
    sizes = tuple(sorted(blocks.sizes))
    n_min = min((n for n in sizes if n >= 2), default=None)
    return CmtClassification(True, len(order.pairs), sizes, n_min,
                             _sharp_codim(sizes), order, blocks)


class MacaulayOrder(NamedTuple):
    """order[k] is the 1-based pair index that receives new label k+1."""

    order: tuple[int, ...]


def macaulay_order(g: BipartiteGraph) -> MacaulayOrder | None:
    """Topological reindexing with every edge x_iy_j satisfying i <= j.

    Exists exactly for cross-free graphs.  Crossed graphs return None; a
    graph without any pure order is outside the precondition and raises.
    The indices are those of the pure order `classify` reports.
    """
    verdict = classify(g)
    if not verdict.unmixed:
        raise ValueError("graph is not unmixed, no pure order exists")
    return _topological_order(g, verdict.order) if verdict.cohen_macaulay else None


def _topological_order(g: BipartiteGraph, po: PureOrder) -> MacaulayOrder:
    """The Macaulay order of a pure order already known to be cross-free.

    Kahn's algorithm outputs j only after every i with an edge x_iy_j, so
    when all d indices come out every edge points forward.  Only a cycle can
    stop it short, and there is none.  The edge relation of a pure order is
    transitive (Villarreal's condition), so a cycle through i and j leads
    from i to j and back to i, which makes x_iy_j and x_jy_i edges: i and j
    cross, and the order is cross-free.  Index j waits for deg(y_j) - 1
    predecessors, the successors of i are the partners of x_i's neighbours
    but y_i, and the heap releases the least ready index: the least order.
    `po` lists its lefts as `g.left`, as `find_pure_order`'s orders do, so
    pair i's left mask is `g`'s i-th.
    """
    lmasks, rmasks = g._side_masks
    pair = {y: i for i, y in enumerate(po.rights)}
    index = [pair[y] for y in g.right]  # the pair of each right position
    waiting = [0] * len(index)
    for j, i in enumerate(index):
        waiting[i] = rmasks[j].bit_count() - 1
    ready = [j for j, n in enumerate(waiting) if n == 0]  # ascending, so a heap
    out: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        out.append(i + 1)
        for j in map(index.__getitem__, _positions(lmasks[i])):
            if j != i:
                waiting[j] -= 1
                if waiting[j] == 0:
                    heapq.heappush(ready, j)
    return MacaulayOrder(tuple(out))


def is_buchsbaum(g: BipartiteGraph) -> bool:
    """True when the sharp codimension is at most 1; False for mixed graphs."""
    return classify(g).buchsbaum


def disjoint_union_codim(d: int, r: int, dprime: int, rprime: int) -> int:
    """Sharp codimension of a disjoint union from the parts' invariants.

    The parts have d and d' matched pairs and sharp codimensions r and r'.
    The value is exact: max{d + r', d' + r}, where d + r' counts only when
    r' > 0 and d' + r only when r > 0, so two Cohen-Macaulay parts give 0.

    Ind(G + G') is the join A * B of pure complexes with facets of d and d'
    vertices, and lk(F u G) = lk_A F * lk_B G.  Over Q, H~_{k+1}(X * Y) is
    the sum over i + j = k of H~_i(X) (x) H~_j(Y), so if neither link has
    homology below its top degree, neither has the join.  A failing face
    (one whose link does) thus needs a failing part: |F| <= r - 1 and
    |G| <= d', or the mirror case, so t <= max(r + d', r' + d).  Conversely,
    take F failing in A with |F| = r - 1 and G a facet of B: the link is
    lk_A F * {empty face} = lk_A F, which fails, so t >= r + d'.
    """
    if d < 1 or dprime < 1:
        raise ValueError("each part needs at least one matched pair")
    if r < 0 or rprime < 0:
        raise ValueError("codimensions cannot be negative")
    return max(d + rprime if rprime else 0, dprime + r if r else 0)


class OracleAgreement(NamedTuple):
    agree: bool
    structural: CmtClassification
    oracle_pure: bool
    oracle_dim: int
    oracle_codim: int | None
    mismatches: tuple[str, ...]


def verify_against_oracle(g: BipartiteGraph) -> OracleAgreement:
    """Run the block classifier and the homology oracle side by side.

    Compares unmixedness with purity, then (when unmixed) the dimension and
    the sharp codimension.  A graph with more than
    `simplicial.ORACLE_FACE_LIMIT` faces raises the oracle guard's
    ValueError before anything else.  Isolated vertices then raise
    IsolatedVertexError because the structural half cannot speak for them;
    the classifier finds them first, so only the oracle's walk runs, under
    the guard, and no link's homology is computed for an answer that is
    not given.
    """
    try:
        verdict = classify(g)
    except IsolatedVertexError:
        simplicial.independence_complex(g)
        raise
    sweep = simplicial.oracle_sweep(g)
    pure, oracle_dim, oracle_codim = sweep.pure, sweep.dimension, sweep.cm_codim
    problems: list[str] = []
    if verdict.unmixed != pure:
        problems.append(f"unmixed={verdict.unmixed} but oracle purity={pure}")
    if verdict.unmixed and pure:
        if verdict.dimension != oracle_dim:
            problems.append(f"dimension {verdict.dimension} != oracle {oracle_dim}")
        if verdict.t_sharp != oracle_codim:
            problems.append(f"t_sharp {verdict.t_sharp} != oracle {oracle_codim}")
    return OracleAgreement(not problems, verdict, pure, oracle_dim,
                           oracle_codim, tuple(problems))


def classification_json(g: BipartiteGraph) -> dict:
    """JSON-ready summary; the macaulay_order key appears only when it exists."""
    verdict = classify(g)
    payload: dict = {
        "unmixed": verdict.unmixed,
        "d": verdict.d,
        "dimension": verdict.dimension,
        "block_sizes": None if verdict.block_sizes is None else list(verdict.block_sizes),
        "n_min": verdict.n_min,
        "t_sharp": verdict.t_sharp,
        "buchsbaum": verdict.buchsbaum if verdict.unmixed else None,
        "cohen_macaulay": verdict.cohen_macaulay if verdict.unmixed else None,
    }
    if verdict.unmixed and verdict.cohen_macaulay:
        # Every block of verdict.blocks is a single pair, so the order is
        # cross-free; macaulay_order would classify again.
        payload["macaulay_order"] = list(_topological_order(g, verdict.order).order)
    return payload
