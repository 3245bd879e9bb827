"""Simplicial complexes and the brute-force Cohen-Macaulay oracle.

Everything here is exact.  A complex is stored by its facets; reduced
homology is computed over the rationals from the boundary matrices, with
no floating point anywhere.  For homology, faces are vertex bitmasks, and
each boundary rank is first taken mod 2, by XOR elimination of bitmask
columns.  When the mod-2 Betti numbers are non-zero in at most one degree
they are already the rational ones (the proof is in `reduced_homology`);
otherwise every rank is recomputed by the same pivot loop on sparse
integer columns, which torsion needs.

The oracle reads the independence complex off the graph (`oracle_sweep`).
Its faces are the independent sets, listed by one bitmask walk (`_walk`)
over the neighbour masks that `_masks` builds from the graph's public
`vertices` and `edges`, bit i being `g.vertices[i]`; this module alone
lays the bits out.  The walk groups the twins, vertices with equal
masks, and walks one vertex per class, listing each set as whole
classes, since a face holding part of a class has a cone for its link;
it also bounds the work, counting every face on the classes as it goes:
past `ORACLE_FACE_LIMIT` faces the oracle raises.  The link of a face F
is Ind(G - N[F]), the independence complex of an induced subgraph, so a
link is keyed by one int: the vertices still free to join F, one per
twin class, which the walk yields beside each face; a face with nothing
free is a facet.  The walk also tags a face whose link is a cone: a free
vertex v with N(v) <= N(u) for a taken u is isolated in the link's graph
(Engstrom's fold condition, met once u is in the face).  A tagged face
is counted but not listed.  Below a tagged face, every face that leaves
a tagged vertex out is tagged too: the walk counts those by a weighted
independent-set recurrence and follows only the branch that takes every
tagged vertex.  The sweep tests the listed faces that are not facets.
Their links' Betti numbers are read off that subgraph before any matrix
(`_link_betti`): an isolated vertex makes it a cone, found as soon as a
fold leaves one, folds delete dominated vertices (twins among them), and
the rest splits into components whose complexes join, a two-point
component by a shift.  Each component, once per sweep however many
links share it, has its faces listed by the same `_walk`, as the
bitmask faces that `reduced_homology` also takes; the whole complex
reuses the sweep's walk.  A one-edge component is listed with no walk,
and it is two points, which `reduced_homology` names with no boundary
matrix.  `independence_complex` reads the facets off the same walk, for
the generic routines below: the limit is this module's alone, and no
caller names it.  `link` and `join` build their complexes directly,
since their facets are already antichains (proofs in their docstrings);
only `from_facets` prunes.

Cohen-Macaulayness is decided by the Reisner criterion: every face link
must have vanishing reduced homology below its own dimension.  `is_cm_t`
is the literal relaxation that only inspects links of faces with at least
t vertices, and `cm_codim` finds the least such t in one sweep over the
faces of any complex; `oracle_sweep` is that sweep on Ind(G), and
`cm_codim` stays as its cross-check.  `cm_codim_recursive` reaches the
same number along a different route (peeling one vertex link at a time,
through the Reisner scan), which gives the test suite another.

Nothing here is cached across calls.  `cm_codim`, `oracle_sweep`,
`is_cm_t` and `cm_codim_recursive` each keep their verdicts per distinct
link in a table local to one call, so nothing outlives a call and a
complex is freed once its caller drops it.

Two degenerate complexes are kept distinct: the empty complex (no faces
at all) and the complex whose only face is the empty set.  The latter has
dimension -1, one reduced homology class in degree -1, and counts as
Cohen-Macaulay, which is what makes links of facets uniform to handle.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .bigraph import BipartiteGraph, ConsistencyError, _Frozen

# The oracle's work grows with the faces of the independence complex, not
# with its vertices, or with the sets of twin classes when there are twins.
# Measured by `oracle_sweep(g, homology=True)` on one core of a shared Xeon
# VM under Python 3.11, best of 7-9 calls in each of 2-4 processes:
# 19,683 faces (a perfect matching on 9 pairs, every link split into
# disjoint edges) take 17-18 ms, 6,144 (the 20-vertex chain) 0.32-0.34 ms,
# 16,396 (K_{13,13} minus a perfect matching, no folds, so its whole
# homology is ranked) 39-67 ms, 16,807 (five disjoint K_{2,2}, all twins,
# walked as 243 sets of classes) 0.16 ms, and 59,049 (a matching on 10
# pairs) 55-96 ms; the host's speed swung by half between processes.  The
# limit still counts every face, so a twin-heavy graph past it is refused
# though its walk is short.
ORACLE_FACE_LIMIT = 20_000


class SimplicialComplex(_Frozen):
    _fields = ("vertices", "facets")

    def __init__(self, vertices: tuple[str, ...], facets: frozenset[frozenset[str]]) -> None:
        self._set(vertices, facets)
        universe = set(self.vertices)
        if len(universe) != len(self.vertices):
            raise ValueError("duplicate vertex in complex universe")
        for facet in self.facets:
            if not facet <= universe:
                raise ValueError(f"facet {sorted(facet)} leaves the vertex universe")
        # Distinct faces of one size cannot nest, so a pure list needs no scan.
        if len({len(f) for f in self.facets}) > 1:
            for a, b in itertools.combinations(self.facets, 2):
                if a <= b or b <= a:
                    raise ConsistencyError("facet list contains nested faces")


def from_facets(vertices, faces) -> SimplicialComplex:
    """Build a complex from any face family, pruning non-maximal members."""
    candidates = {frozenset(f) for f in faces}
    if len({len(f) for f in candidates}) > 1:
        candidates = {f for f in candidates
                      if not any(f < other for other in candidates)}
    return SimplicialComplex(tuple(vertices), frozenset(candidates))


def _masks(g: BipartiteGraph) -> tuple[int, ...]:
    """Each vertex's neighbours as a bitmask, bit i being `g.vertices[i]`."""
    index = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [0] * len(index)
    for x, y in g.edges:
        nbrs[index[x]] |= 1 << index[y]
        nbrs[index[y]] |= 1 << index[x]
    return tuple(nbrs)


def _walk(nbrs: tuple[int, ...], allowed: int) -> list[tuple[int, int]]:
    """The untagged independent sets of whole twin classes inside `allowed`, under the guard.

    Bit i is vertex i and nbrs[i] its neighbourhood.  Each set comes as
    (taken, free) bitmasks, and the first is always the empty set,
    (0, reps), reps holding the lowest vertex of each twin class.  A set
    whose link is shown a cone (the tag below) is counted but not listed.
    - **Vertex bound.**  Before any mask is read, `allowed` alone may be
      refused: nbrs is a bipartite graph (`_masks`), every subset of
      either side is independent, so sides of p and n - p vertices give
      at least 2^p + 2^(n - p) - 1 faces (the empty set counted once),
      least at p = n // 2.  Past `ORACLE_FACE_LIMIT` the count below
      would refuse too, so the same inputs are refused with the same
      message, and the tables below are built only for n <= 26 at a
      limit of 20,000.
    - **Twins.**  Vertices of `allowed` with equal masks form a class,
      and the walk branches on representatives only: `taken` is the union
      of the classes of the representatives taken (proof that nothing
      else can fail in `oracle_sweep`), and `free` is reps minus their
      closed neighbourhoods, the link's key R & reps, since twins share
      their neighbours.  With no twins, reps is `allowed`.
    - **Weights.**  A class set S stands for the prod over c in S of
      (2^{w_c} - 1) faces, w_c the size of class c (proof in
      `oracle_sweep`), the empty set for one.  Each stacked set carries
      that product, and past `ORACLE_FACE_LIMIT` faces summed so far the
      oracle guard's ValueError is raised, during the walk.

    The walk branches on the lowest representative left, left out or
    taken with its closed neighbourhood removed; it follows the first
    branch in place and stacks the second, so the empty set comes first.
    A popped node (allowed, taken, free) is the root of the sets
    taken | S, S an independent set of representatives inside `allowed`,
    the node's own set being S empty, and each independent set of
    representatives is exactly one such set, so the work is linear in
    the number of sets.  `allowed` lies in `free` and misses the closed
    neighbourhood of every taken vertex.  A set is maximal exactly when
    `free` is empty: a v in `free` is outside it with no neighbour in it,
    so v can be added; and a representative outside `free` and the set
    is a neighbour of it, so nothing else can be added, and neither can a
    twin of it, nor a twin of its members, already taken.

    The tag comes from one table, dom[u] the other representatives v with
    N(v) <= N(u) (`_dominance`); each stacked set carries `under`, the
    union of dom over its taken vertices, and its tag is `under & free`,
    the free v dominated by a taken u.
    - **The tag is sound.**  For v in `free`, u taken and N(v) <= N(u),
      N(v) & free <= N(u) & free, which is empty, `free` missing the
      closed neighbourhood of u.  So v is isolated in G[free], and the link
      Ind(G[free]) is a cone on v, with no reduced homology; `free` being
      the link's key R & reps keeps a representative isolated
      (`oracle_sweep`).  A tagged set is not a facet, its `free` holding v.
    - **The tag is complete when G has a pure order**, a perfect matching
      x_i y_i with Villarreal's condition (x_a y_b and x_b y_c edges force
      x_a y_c), and `allowed` is every vertex.  Let x_v be isolated in
      G[free].  Its partner y_v, or the representative of y_v's class,
      which has y_v's neighbours, is not taken (x_v would not be free) and
      not free (x_v would have a neighbour there), so a taken x_a sees it,
      hence sees y_v.  For every edge x_v y_k, Villarreal's condition on
      x_a y_v and x_v y_k gives x_a y_k, so N(x_v) <= N(x_a).  A right y_v
      is the same with the sides swapped: x_v sees a taken y_b, and x_k y_v
      with x_v y_b gives x_k y_b.  Completeness only saves time: an
      untagged cone still reaches `_link_betti`, which finds its isolated
      vertex.

    Only untagged sets are listed, and below a tagged node the walk
    follows one branch at most:
    - **Persistence.**  Let T be the tag at a popped node and v in T: v
      is free and N(v) <= N(u) for a taken u, and `allowed` and `free`
      miss N(u).  So no set taken | S below the node takes a neighbour
      of v, and in each that does not take v, v stays free and
      dominated by u: the set is tagged.  Every untagged set below takes
      all of T, and T is independent, lying in `free`, which misses
      N(v).  If some v in T lies outside `allowed`, no set below takes
      it, every set below is tagged, none is a facet, and no child is
      stacked (the prune).  Otherwise one child is stacked, taking the
      class of each t in T (`taken | whole[t]`, `faces` times w_t): it is
      the root of exactly the sets below that take T.  Taking t removes
      only t from `allowed` and `free`, which miss N(t), and the child's
      `under` is still the union of dom over its taken vertices with no
      dom[t] added: a v with N(v) <= N(t) has N(v) <= N(u), and v is not
      u, whose mask differs from t's, so dom[t] lies in dom[u].
    - **Order.**  The walk lists S before S' exactly when the lowest
      vertex of the symmetric difference S ^ S' lies in S'; the lowest
      vertex of a class is its representative, so this compares the
      representatives taken.  It is a total order, and each node lists
      its untagged sets in it.  An untagged node lists its own set first,
      a subset of every set under it, then the lists of its children,
      popped in decreasing order of their vertex i: every set under child
      i takes i and no vertex of the node's `allowed` below i, so a set
      under child i and one under a child j < i, popped later, differ
      first at j, which only the second takes.  A tagged node lists its
      one child's list, or nothing.  The former
      walk, which stacked every child of a tagged node and listed every
      set, lists the same untagged sets, by persistence, in the same
      order, so the listing is the same list.
    - **The count.**  I(A), the sum over the independent sets S of
      representatives inside A of the prod over i in S of the weights,
      is `_independent_weight`: splitting on the lowest i of A, a set
      leaves i out, counted by I(A - i), or takes it and none of its
      neighbours, w_i I(A - N[i]).  The sets below a node weigh `faces`
      times the product over S.  An untagged node adds its own set's
      faces.  At a tagged node, let t_1 < ... < t_k be its tag and A_j
      be `allowed` - {t_1, ..., t_j}.  A set below that does not take
      all of T has a first t_j it leaves out: it takes t_1 ... t_(j-1),
      which removed only themselves from `allowed`, and lies inside
      A_j, so for each j those sets add
      faces * w_(t_1) * ... * w_(t_(j-1)) * I(A_j), the node's own set
      at j = 1.  When t_j is not in `allowed`, every set left takes
      t_1 ... t_(j-1) and leaves t_j out, and they are all counted so
      (the prune).  Otherwise the sets that take T are the child's,
      counted below it.  So every set is counted exactly once.
    - **Saturation.**  `_independent_weight` returns min(I, cap),
      cap = limit + 1, and skips the second term once the first has
      reached the cap.  Every term is at least 1 and w_i >= 1, so a
      saturated term saturates the sum, and by induction the value is
      exactly min(I, cap).  With faces >= 1, count + faces * min(I, cap)
      passes the limit exactly when count + faces * I does, and below it
      the two are equal: the count is exact up to the limit, and the
      guard refuses the same inputs with the same message.  An
      unsaturated value is reached through one leaf of its recursion per
      set it counts, and a saturated one through fewer than cap leaves
      before each of at most |A| nested saturated terms, so a refused
      walk still does work bounded by the limit times n.

    Facets are never tagged, so every facet is listed.  A walk of one
    component in `_link_betti` has no tag at all: there no kept vertex
    dominates another (proof there).
    """
    n = allowed.bit_count()
    if (1 << n // 2) + (1 << n - n // 2) - 1 > ORACLE_FACE_LIMIT:
        raise _refused()
    lowest_of: dict[int, int] = {}
    whole = [0] * len(nbrs)
    for i, mask in enumerate(nbrs):
        if allowed >> i & 1:
            whole[lowest_of.setdefault(mask, i)] |= 1 << i
    weight = [(1 << c.bit_count()) - 1 for c in whole]
    members = [i for i, c in enumerate(whole) if c]
    reps = sum(1 << i for i in members)
    closed = [mask | 1 << i for i, mask in enumerate(nbrs)]
    dom = _dominance(nbrs, members, reps)
    out: list[tuple[int, int]] = []
    memo: dict[int, int] = {}
    cap = ORACLE_FACE_LIMIT + 1
    count, stack = 0, [(reps, 0, reps, 0, 1)]
    while stack:
        allowed, taken, free, under, faces = stack.pop()
        tag = under & free
        if not tag:
            out.append((taken, free))
            count += faces
        else:
            # A set below that leaves a tagged vertex out is tagged: count
            # those by the first one left out, and stack the one branch
            # that takes the whole tag, if `allowed` holds it.
            while tag:
                lowest = tag & -tag
                rest = allowed & ~lowest
                count += (faces * _independent_weight(rest, closed, weight, cap, memo)
                          if rest else faces)
                if rest == allowed:
                    break
                i = lowest.bit_length() - 1
                allowed = rest
                free ^= lowest
                taken |= whole[i]
                faces *= weight[i]
                tag ^= lowest
            else:
                stack.append((allowed, taken, free, under, faces))
            allowed = 0
        if count > ORACLE_FACE_LIMIT:
            raise _refused()
        while allowed:
            lowest = allowed & -allowed
            i = lowest.bit_length() - 1
            around = closed[i]
            stack.append((allowed & ~around, taken | whole[i],
                          free & ~around, under | dom[i], faces * weight[i]))
            allowed ^= lowest
    return out


def _dominance(nbrs: tuple[int, ...], members: list[int], reps: int) -> list[int]:
    """dom[u], the representatives v != u with N(v) <= N(u), for each u in `members`.

    `members` lists the bits of `reps`.  u has N(v) <= N(u) exactly when
    u is adjacent to every neighbour y of v, so up(v), the u that
    dominate v, is reps & AND of N(y) over y in N(v), minus v itself (all
    of reps for an isolated v); v goes into dom[u] for each u in up(v).
    That is O(|E| + pairs) steps where testing each pair is O(|reps|^2).
    """
    dom = [0] * len(nbrs)
    for v in members:
        up, around = reps, nbrs[v]
        while around:
            low = around & -around
            up &= nbrs[low.bit_length() - 1]
            around ^= low
        bit = 1 << v
        up &= ~bit
        while up:
            low = up & -up
            dom[low.bit_length() - 1] |= bit
            up ^= low
    return dom


def _independent_weight(allowed: int, closed: list[int], weight: list[int],
                        cap: int, memo: dict[int, int]) -> int:
    """min(I(allowed), cap) for a non-zero `allowed`, I the weighted independent-set count.

    I(0) = 1, and I(A) = I(A - i) + w_i I(A - N[i]) for i the lowest
    vertex of A, N[i] being closed[i]; the second term is skipped once the
    first reaches `cap` (what I counts, and why the cap keeps the guard
    exact, is proved in `_walk`).  `memo`, the caller's for one walk, maps
    each A met to its value.
    """
    got = memo.get(allowed)
    if got is None:
        low = allowed & -allowed
        i = low.bit_length() - 1
        rest = allowed ^ low
        got = _independent_weight(rest, closed, weight, cap, memo) if rest else 1
        if got < cap:
            rest = allowed & ~closed[i]
            got = min(cap, got + weight[i] * (
                _independent_weight(rest, closed, weight, cap, memo) if rest else 1))
        memo[allowed] = got
    return got


def _refused() -> ValueError:
    """The oracle guard's error, for a complex past `ORACLE_FACE_LIMIT` faces."""
    return ValueError(f"oracle guard: the independence complex has more than "
                      f"{ORACLE_FACE_LIMIT} faces (independent sets)")


def independence_complex(g: BipartiteGraph) -> SimplicialComplex:
    """The complex of independent vertex sets of g, given by its facets.

    Raises the oracle guard's ValueError when g has more than
    `ORACLE_FACE_LIMIT` independent sets, the empty one included, counted
    by `_walk` on the twin classes before any facet is built.  Every facet
    is a union of whole twin classes (proof in `oracle_sweep`), so the
    facets are the sets that walk lists with nothing `free`, each once.
    """
    verts = g.vertices
    return SimplicialComplex(tuple(verts), frozenset(
        frozenset(v for i, v in enumerate(verts) if taken >> i & 1)
        for taken, free in _walk(_masks(g), (1 << len(verts)) - 1) if not free))


def dim(c: SimplicialComplex) -> int:
    if not c.facets:
        raise ValueError("the empty complex has no dimension")
    return max(len(f) for f in c.facets) - 1


def is_pure(c: SimplicialComplex) -> bool:
    return len({len(f) for f in c.facets}) <= 1


def faces(c: SimplicialComplex) -> frozenset[frozenset[str]]:
    """Every face of c, the empty set included whenever c has any facet."""
    out: set[frozenset[str]] = set()
    for facet in c.facets:
        members = sorted(facet)
        for k in range(len(members) + 1):
            out.update(map(frozenset, itertools.combinations(members, k)))
    return frozenset(out)


def link(c: SimplicialComplex, face) -> SimplicialComplex:
    """Faces disjoint from `face` whose union with it stays a face.

    The facets are G - F for the facets G containing F, and they need no
    pruning: G - F <= H - F with F <= G and F <= H gives G <= H, so G = H,
    the facets of c being an antichain.
    """
    f = frozenset(face)
    containing = [facet for facet in c.facets if f <= facet]
    if not containing:
        raise ValueError(f"{sorted(f)} is not a face of the complex")
    remaining = tuple(v for v in c.vertices if v not in f)
    return SimplicialComplex(remaining, frozenset(facet - f for facet in containing))


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """The complex of unions fa | fb of a face of a and a face of b.

    The facets are the unions of a facet of each, and they need no
    pruning: the vertex sets are disjoint, so fa | fb <= fa' | fb' gives
    fa <= fa' and fb <= fb', hence fa = fa' and fb = fb' within each
    antichain of facets.
    """
    overlap = set(a.vertices) & set(b.vertices)
    if overlap:
        raise ValueError(f"vertex names shared between operands: {sorted(overlap)}")
    return SimplicialComplex(a.vertices + b.vertices,
                             frozenset(fa | fb for fa in a.facets for fb in b.facets))


class HomologyProfile(NamedTuple):
    """Reduced Betti numbers over the rationals, from degree -1 upward."""

    betti: tuple[int, ...]

    def rank(self, k: int) -> int:
        idx = k + 1
        if 0 <= idx < len(self.betti):
            return self.betti[idx]
        return 0

    def as_dict(self) -> dict[str, int]:
        return {str(k - 1): b for k, b in enumerate(self.betti)}


def _exact_rank(columns: list[dict[int, int]]) -> int:
    """Rank over Q of the matrix whose columns map row indices to integer entries.

    The loop of `_gf2_boundary_rank` over the integers: a column's leading
    (largest) row is cancelled against the stored pivot with the same
    leading row, both scaled so the arithmetic stays fraction-free, and the
    result is divided by the gcd of its entries, until the column vanishes
    or becomes a new pivot.  Replacing a column by a non-zero multiple of
    itself plus a multiple of a pivot keeps the span of every column seen
    so far, and pivots with distinct leading rows are linearly independent,
    so the number of pivots is the rank over Q.
    """
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        while column:
            lead = max(column)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = column
                break
            a, b = pivot[lead], column[lead]
            merged = {r: a * column.get(r, 0) - b * pivot.get(r, 0)
                      for r in column.keys() | pivot.keys()}
            divisor = math.gcd(*merged.values())
            column = {r: v // divisor for r, v in merged.items() if v}
    return len(pivots)


def _boundary_rank(lower: list[int], upper: list[int]) -> int:
    """Rank over Q of the boundary map from the span of `upper` down to `lower`.

    Faces are vertex bitmasks.  Removing the i-th lowest vertex of a face
    has sign (-1)^i, which is the boundary of the face listed in bit order.
    """
    row_of = {f: i for i, f in enumerate(lower)}
    columns = []
    for face in upper:
        column, sign, rest = {}, 1, face
        while rest:
            low = rest & -rest
            column[row_of[face ^ low]] = sign
            sign = -sign
            rest ^= low
        columns.append(column)
    return _exact_rank(columns)


def _gf2_boundary_rank(lower: list[int], upper: list[int]) -> int:
    """Rank mod 2 of the boundary map from the span of `upper` down to `lower`.

    Faces are vertex bitmasks, and each column is an int bitmask over
    `lower`; it is XORed against the stored pivot with the same leading
    bit until it vanishes or becomes a new pivot.
    """
    bit_of = {f: 1 << i for i, f in enumerate(lower)}
    pivots: dict[int, int] = {}
    for face in upper:
        column, rest = 0, face
        while rest:
            low = rest & -rest
            column |= bit_of[face ^ low]
            rest ^= low
        while column:
            lead = column.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = column
                break
            column ^= pivot
    return len(pivots)


def _betti(levels: list[list[int]], rank) -> tuple[int, ...]:
    """Reduced Betti numbers from degree -1 up, with ranks from `rank`.

    levels[k] lists the faces with k vertices, so level k is degree k - 1.
    No Euler-Poincare comparison is made: beta_k = f_k - r_k - r_{k+1}, so
    the alternating sum of the Betti numbers telescopes to that of the face
    counts whatever the ranks are.  Only a negative Betti number can show
    an overcounted rank.

    No level is empty, so neither rank function guards against one:
    `reduced_homology` returns before this when there are no faces or only
    points, and otherwise its faces are down-closed, the empty face
    included, so every level from 0 to the top holds a face.
    """
    ranks = [0] + [rank(levels[k - 1], levels[k]) for k in range(1, len(levels))] + [0]
    betti = tuple(len(level) - ranks[k] - ranks[k + 1] for k, level in enumerate(levels))
    if min(betti) < 0:
        raise ConsistencyError(f"negative Betti number in {betti}")
    return betti


def reduced_homology(c: SimplicialComplex | tuple[int, ...]) -> HomologyProfile:
    """Reduced Betti numbers over Q, from degree -1 through the top dimension.

    c is a complex, or all its faces, each once, as vertex bitmasks, which
    is how `oracle_sweep` lists a link.  A complex's faces become bitmasks
    over c.vertices, the subsets of each facet's mask.

    The ranks are taken mod 2 first.  When the mod-2 Betti numbers are
    non-zero in at most one degree q, they are the rational ones: a
    non-zero minor mod 2 is non-zero over Z, so rank_F2(d_k) <= rank_Q(d_k)
    and hence beta_k(Q) <= beta_k(F2) in every degree.  Both sequences
    have the same alternating sum, the reduced Euler characteristic, which
    depends only on the face counts.  So beta(Q) vanishes wherever
    beta(F2) does, and in degree q the two agree, both being
    (-1)^q times that characteristic.  Otherwise mod-2 classes may come
    from torsion, and every rank is recomputed exactly by `_exact_rank`.

    A complex of n >= 1 points and no edge needs no rank: d_0 sends each
    point to the empty face, so it has rank 1, and the Betti numbers are
    (0, n - 1).  In `oracle_sweep` this is every one-edge component, S^0.
    """
    if isinstance(c, SimplicialComplex):
        bit = {v: 1 << i for i, v in enumerate(c.vertices)}
        found: set[int] = {0} if c.facets else set()
        for facet in c.facets:
            whole = sum(bit[v] for v in facet)
            sub = whole
            while sub:
                found.add(sub)
                sub = (sub - 1) & whole
        c = found
    if not c:
        return HomologyProfile(())
    levels: list[list[int]] = [[]]
    for face in c:
        size = face.bit_count()
        while len(levels) <= size:
            levels.append([])
        levels[size].append(face)
    if len(levels) == 2:  # points alone
        return HomologyProfile((0, len(levels[1]) - 1))
    betti = _betti(levels, _gf2_boundary_rank)
    if sum(1 for b in betti if b) > 1:
        betti = _betti(levels, _boundary_rank)
    return HomologyProfile(betti)


def reduced_euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** (len(f) - 1) for f in faces(c))


def _reisner_fails(c: SimplicialComplex, memo: dict) -> bool:
    """Whether some face link of c has homology below its top degree.

    Every entry of a link's profile but the last lies below that degree.
    Homology depends only on the facets, so verdicts are kept in `memo`,
    keyed by link facets, which the caller keeps for one call.
    """
    for f in faces(c):
        sub = link(c, f)
        if sub.facets not in memo:
            memo[sub.facets] = any(reduced_homology(sub).betti[:-1])
        if memo[sub.facets]:
            return True
    return False


def is_cohen_macaulay(c: SimplicialComplex) -> bool:
    """Reisner criterion over the rationals, every face link inspected."""
    return not _reisner_fails(c, {})


def is_cm_t(c: SimplicialComplex, t: int) -> bool:
    """Pure, and every face with at least t vertices has a Cohen-Macaulay link.

    Negative t is read as 0: the condition cannot see faces of negative size.
    Links of links are links, so the same link recurs under many faces;
    one table for the call computes each distinct link's homology once.
    The empty complex has no faces, so nothing fails and it passes.
    """
    t = max(t, 0)
    if not is_pure(c):
        return False
    memo: dict[frozenset[frozenset[str]], bool] = {}
    return not any(_reisner_fails(link(c, f), memo)
                   for f in faces(c) if len(f) >= t)


def cm_codim(c: SimplicialComplex) -> int | None:
    """Least t with is_cm_t(c, t), or None when c is not pure.

    The least passing t is one more than the largest face F whose link
    fails the Reisner criterion.  Links of links are links,
    lk_{lk F}(G) = lk(F | G), so lk F fails exactly when some face H
    containing F has homology below dim(lk H) in its own link lk H, and
    the largest failing F is such an H.  One homology computation per
    face therefore decides, and scanning the faces largest first, the
    first H found gives the answer.  A link whose facets share a vertex is
    a cone, whose reduced homology vanishes, so it needs no computation.
    Homology depends only on the facets, so each distinct link is
    computed once per call, keyed by its facets {G - F : F <= G facet of c}
    before it is built; c is pure, so none of them nest.  Every entry of
    the profile but the last lies below the top degree.  The empty complex
    has no faces to scan, so its answer is 0.

    This is the generic route, for any complex; `oracle_sweep` is the same
    sweep on an independence complex, read off the graph.
    """
    if not is_pure(c):
        return None
    fails: dict[frozenset[frozenset[str]], bool] = {}
    for f in sorted(faces(c), key=len, reverse=True):
        star = frozenset(facet - f for facet in c.facets if f <= facet)
        if star not in fails:
            fails[star] = (not frozenset.intersection(*star)
                           and any(reduced_homology(link(c, f)).betti[:-1]))
        if fails[star]:
            return len(f) + 1
    return 0


class OracleSweep(NamedTuple):
    """What `oracle_sweep` reads off Ind(G); `homology` only when asked for."""

    facet_count: int
    dimension: int
    pure: bool
    cm_codim: int | None
    homology: HomologyProfile | None


def _join_betti(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Shifted Betti numbers of a join: entry s is degree s - 1 on every side.

    The product of the two Betti polynomials (proof in `oracle_sweep`).
    Joining S^0, whose profile is (0, 1), is a shift, (0,) + a, which
    `_link_betti` makes with no product.
    """
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _link_betti(nbrs: tuple[int, ...], rest: int,
                known: dict[int, tuple[int, ...]],
                walked: list[tuple[int, int]] | None = None) -> tuple[int, ...]:
    """Reduced Betti numbers over Q of Ind(G[rest]), entry s in degree s - 1.

    Trailing zeros are dropped, so a complex with no reduced homology gives
    ().  The graph is cut down by cones, folds and the split into
    components before any face is listed; the proofs are in `oracle_sweep`.
    Each pass of the fold loop meets every vertex still kept, so it finds
    a vertex isolated at the start: a cone.  A vertex that a fold leaves
    isolated is found when the fold is made, and () returned at once.
    - **Only w's neighbours can be left isolated.**  Deleting w takes a
      kept neighbour away from its neighbours alone, so a vertex that had
      one and has none left is a kept neighbour x of w.  The witness u
      (`low`, with N(u) & kept <= N(w)) is kept and not adjacent to w,
      but it may be adjacent to x, so the test reads every kept vertex.
    - **Stopping early changes nothing but the time.**  Such an x has no
      kept neighbour, so no later fold deletes it: a deleted w is a
      neighbour of `first`, a kept vertex.  Left to run, the loop would
      meet x in this pass, x being in `todo` unless met already, or in
      the next, which the fold forces, and meeting x, or an isolated
      vertex before it, return () before any component is split off.  So
      the profile is () either way, `known` gets nothing and
      `reduced_homology` is not called.
    A new component's profile is trimmed by dropping its trailing zeros
    from the end.  A component whose profile is (0, 1), S^0, joins as a
    shift: its Betti polynomial is t, and multiplying by t puts a 0 in
    front (`_join_betti`, `oracle_sweep`).
    A component's faces are walked and ranked only when `known`, which maps
    vertex masks to their Betti numbers, does not hold it yet, and
    `walked`, the caller's walk of every vertex when `rest` is its reps,
    stands in for that walk when nothing folds and `rest` is one
    component: each set of whole classes `& part` is the set of
    representatives walked, and that walk listed every set.  Had it left
    a set out, a tagged one, some representative v would have
    N(v) <= N(u) for another, u; the fold loop then meets v and returns a
    cone, or deletes u, or has deleted one of them already, so something
    folds and no component is all of `rest`.  A component of two
    vertices, one edge (proof in `oracle_sweep`), is not walked: its faces
    are listed as `_walk` lists them, (0, w, u) with u the lower vertex,
    so `reduced_homology` gets the same tuple.

    `_walk` lists a component's every independent set, not just its
    untagged sets of whole twin classes, because no kept vertex dominates
    another once the fold loop ends.  Its last pass deletes nothing and
    finds no isolated vertex.  Were u != w kept with N(u) <= N(w), that
    pass met u with a kept neighbour: `first`, the lowest of them, is a
    neighbour of w too, so w is among `others`, and N(u) & kept lies in
    N(w), so w would have been deleted.  Twins have N(u) = N(w), so every
    class is one vertex, of weight 1, and reps is the component; and with
    no N(v) <= N(u) no set is tagged, so none is left out.  Its faces are
    faces of G, so their count stays within the limit G's own walk
    passed.
    """
    kept, folding = rest, True
    while folding:
        folding, todo = False, kept
        while todo:
            low = todo & -todo
            todo ^= low
            if not low & kept:
                continue
            inside = nbrs[low.bit_length() - 1] & kept
            if not inside:
                return ()
            # A w with N(u) in N(w) is a neighbour of each vertex of N(u).
            first = inside & -inside
            others = nbrs[first.bit_length() - 1] & kept & ~low
            while others:
                w = others & -others
                others ^= w
                if not inside & ~nbrs[w.bit_length() - 1]:
                    kept ^= w
                    folding = True
                    # A neighbour of w with no kept neighbour left: a cone.
                    around = nbrs[w.bit_length() - 1] & kept
                    while around:
                        x = around & -around
                        if not nbrs[x.bit_length() - 1] & kept:
                            return ()
                        around ^= x
    betti: tuple[int, ...] = (1,)
    while kept:
        part = grow = kept & -kept
        while grow:
            reach = 0
            while grow:
                low = grow & -grow
                reach |= nbrs[low.bit_length() - 1]
                grow ^= low
            grow = reach & kept & ~part
            part |= grow
        kept ^= part
        profile = known.get(part)
        if profile is None:
            if part.bit_count() == 2:  # one edge: the faces its walk lists
                low = part & -part
                faces = (0, part ^ low, low)
            else:
                sets = walked if part == rest and walked is not None else _walk(nbrs, part)
                faces = tuple([face & part for face, _ in sets])
            profile = reduced_homology(faces).betti
            top = len(profile)
            while top and not profile[top - 1]:
                top -= 1
            profile = known[part] = profile[:top]
        if not profile:
            return ()
        betti = (0,) + betti if profile == (0, 1) else _join_betti(betti, profile)
    return betti


def oracle_sweep(g: BipartiteGraph, homology: bool = False) -> OracleSweep:
    """`cm_codim(independence_complex(g))`, with the complex's shape, read off g.

    Faces are the independent sets of g as bitmasks.  Those made of whole
    twin classes, the only ones that can fail (below), are walked once by
    `_walk` of every vertex, which counts every face under
    `ORACLE_FACE_LIMIT` as it goes, so the oracle guard is raised before
    any homology, and lists those it has not tagged as cones.  Its first
    set is the empty one, whose `free` is reps,
    one representative per class.  The link of a
    face F of Ind(G) is Ind(G[R]) for R = V - N[F]: a set H disjoint from
    F has H | F independent exactly when H is independent and misses
    N(F).  So each link is read off the int R, which the walk hands over
    as each face's `free` (folded as below), and F is a facet exactly when
    R, so `free`, is empty.  The faces are scanned
    largest first (bucketed by size, in walk order within a size) and the
    first failing one decides, as in `cm_codim`, whose docstring has the
    proof.  Two kinds of face never fail, so they are not bucketed:
    - **Facets.**  A facet's link is {empty set}, whose profile is (1,),
      and the test below reads no entry of it, d - |F| being 0.  The walk
      lists every facet: a tagged set has a free vertex.
    - **Tagged faces**, which the walk counts and does not list.  The
      walk's cone tag holds the free vertices v with N(v) <= N(u) for a
      taken u; each is isolated in the link's graph, so the link is a
      cone, with no reduced homology (proofs in `_walk`, which also shows
      that under a pure order every cone link is tagged, and that below
      a tagged face only the branch taking every tagged vertex needs
      walking).
      An untagged cone is found by `_link_betti`.

    Each distinct link's Betti numbers come from `_link_betti`, which
    reads them off G[R] by three exact rules and walks faces only for what
    they leave:
    - **Cone.** If v in R has no neighbour in R, v can join every face of
      Ind(G[R]), so the complex is the cone v * Ind(G[R - v]), which is
      contractible: no reduced homology.
    - **Fold** (Engstrom, Eur. J. Combin. 2008).  If u != w in R and
      N(u) & R <= N(w), then Ind(G[R]) and Ind(G[R - w]) have the same
      reduced homology.  u is not adjacent to w, or w would lie in
      N(u) & R <= N(w).  The faces containing w form the cone w * lk(w)
      with lk(w) = Ind(G[R - N[w]]), which holds u and none of u's
      neighbours, so lk(w) is a cone on u.  Ind(G[R]) is Ind(G[R - w])
      and w * lk(w) glued along lk(w); neither the cone nor lk(w) has
      reduced homology, so by Mayer-Vietoris the union has that of
      Ind(G[R - w]).  Folds repeat until none applies, and a vertex that
      a fold leaves isolated is a cone again.  Only a neighbour of the
      deleted w can lose its last neighbour, so `_link_betti` looks at
      w's kept neighbours when it deletes w and returns () at once if
      one has none left, with the answer and the work on `known` of the
      loop that would meet it later (proof there).
    - **Join** (Kozlov, Combinatorial Algebraic Topology, 2008).  If G[R]
      is the disjoint union of A and B, the independent sets are the
      unions of one of each, so Ind(G[R]) = Ind(A) * Ind(B).  Over a
      field, H~_{k+1}(X * Y) is the sum over i + j = k of
      H~_i(X) (x) H~_j(Y).  With entry s holding degree s - 1, degree
      k + 1 is entry (i + 1) + (j + 1), so the join's entries are the
      coefficients of the product of the parts' polynomials
      (`_join_betti`).  The empty graph, whose complex is {empty set}
      with one class in degree -1, is the unit (1,).  A component with
      no reduced homology leaves the whole join with none.  A one-edge
      component is S^0, profile (0, 1), whose polynomial is t: X * S^0
      is the suspension of X, with H~_{k+1}(X * S^0) = H~_k(X), so the
      join shifts the profile one entry up, (0,) + betti, with no product.
    Each component goes to `reduced_homology`, walked by `_walk` unless
    it has two vertices.  Such a component needs no walk and no boundary
    matrix: after the fold loop every kept vertex has a neighbour among
    the kept ones, or the loop would have returned () for a cone, so the
    component is one edge u - w, whose independent sets are the empty
    set, {u} and {w}: two points, S^0.  Links share components (S^0 recurs in many),
    and a component is an induced subgraph like a link, so one table of
    Betti numbers keyed by vertex mask holds both, and each distinct
    link or component is computed once per sweep.

    Twins, vertices with equal neighbourhoods, are never adjacent (one
    would be its own neighbour), and between two classes the edges are
    all or none.  So the sweep works on the classes:
    - **A face holding part of a class has a cone link.**  Let u be in F
      and its twin w not.  No vertex of F is in N(u) = N(w), so w is in
      R, and N(w) & R lies in N(u) & R, which is empty.  So w is isolated
      in G[R]: a cone, which passes.  Only unions of whole classes can
      fail, and only those are scanned.
    - **The facets are unions of whole classes.**  If a maximal
      independent set S holds u, each twin w of u has no neighbour in S,
      since N(w) = N(u) misses S, so w is in S.  So the class sets that
      cover every vertex give every facet, each once, with its size.
    - **R is a union of classes, and its twins fold down to one
      representative each.**  With F a union of classes, a vertex lies
      in F, or in N(F), together with its twins, so R does too.  For
      twins u != w in R, N(u) & R <= N(w), so the fold deletes w; folding
      every class down to its lowest vertex, the representative `_walk`
      branches on, gives Ind(G[R]) the Betti numbers of
      Ind(G[R & reps]).  So each link is keyed by R & reps, which
      determines R, and `_link_betti` starts on the folded graph.  That
      key is the walk's `free`: F & reps is the set T of representatives
      walked, and N(F) = N(T), twins sharing their neighbours, so
      R & reps = reps - N[T].  R is empty exactly when R & reps is, every
      class in R having its representative there.  With no twins, reps
      is every vertex and the key is R.
    - **The weighted sum is the face count.**  An independent set meets
      a set of classes whose representatives are independent, edges
      between classes being all or none; conversely, any non-empty
      subsets of the classes of an independent class set S form an
      independent set that meets exactly those classes.  So S stands
      for the prod over c in S of (2^{w_c} - 1) faces, w_c = |c|, the
      empty S for the empty face, and summing over every S counts every
      face of Ind(G) once.  `_walk` refuses past `ORACLE_FACE_LIMIT` on
      that sum, the sets of a branch it does not walk summed by
      `_independent_weight`, exact up to the limit (proof in `_walk`), so
      the guard refuses exactly the inputs it would refuse if every face
      were walked, with the same message, while walking at most limit + 1
      class sets.

    Folds lower the dimension, so the test does not read it off the
    reduced complex.  Ind(G) is pure of dimension d - 1, d = max(sizes),
    so lk F is pure of dimension d - 1 - |F|, and F fails the Reisner
    criterion exactly when H~ is non-zero in a degree below that, that is
    at an entry s < d - |F|.  With `homology`, the profile of Ind(G)
    itself, the link of the empty face, keyed by reps, is taken from the
    sweep or computed once, and padded with zeros to the d + 1 entries,
    degrees -1 to d - 1, that `reduced_homology` gives the whole complex.
    Under that one key, with twins or without, the walk's sets cut back
    to reps are the walk of G[reps], so if nothing folds and
    G[reps] is connected its faces go to the matrices with no second walk.
    That walk then left no set out: a tag needs N(v) <= N(u) for two
    representatives, which makes `_link_betti` fold or find a cone on
    G[reps] (proof there), and then no component is all of reps.
    """
    nbrs = _masks(g)
    sets = _walk(nbrs, (1 << len(nbrs)) - 1)
    reps = sets[0][1]
    sizes: list[int] = []
    by_size: list[list[tuple[int, int]]] = [[] for _ in range(len(nbrs) + 1)]
    for face in sets:
        taken, free = face
        if not free:
            sizes.append(taken.bit_count())
        else:
            by_size[taken.bit_count()].append(face)
    d = max(sizes)
    pure = len(set(sizes)) == 1
    profiles: dict[int, tuple[int, ...]] = {}
    codim = 0 if pure else None
    if pure:
        for taken, rest in itertools.chain.from_iterable(reversed(by_size)):
            profile = profiles.get(rest)
            if profile is None:
                profile = profiles[rest] = _link_betti(nbrs, rest, profiles,
                                                       sets if rest == reps else None)
            if profile and any(profile[:d - taken.bit_count()]):
                codim = taken.bit_count() + 1
                break
    whole = None
    if homology:
        if reps not in profiles:
            profiles[reps] = _link_betti(nbrs, reps, profiles, sets)
        betti = profiles[reps]
        whole = HomologyProfile(betti + (0,) * (d + 1 - len(betti)))
    return OracleSweep(len(sizes), d - 1, pure, codim, whole)


def cm_codim_recursive(c: SimplicialComplex) -> int | None:
    """Same number as cm_codim, reached by peeling vertex links.

    For t >= 1 a pure complex is CM_t exactly when every vertex link is
    CM_{t-1}, so the sharp codimension of a non-CM complex is one more than
    the worst sharp codimension among its vertex links.  Links of different
    faces often coincide; within one call each is peeled once, and each
    distinct link's homology is computed once.
    """
    if not is_pure(c):
        return None
    memo: dict[frozenset[frozenset[str]], int] = {}
    fails: dict[frozenset[frozenset[str]], bool] = {}

    def peel(sub: SimplicialComplex) -> int:
        if sub.facets not in memo:
            if not is_pure(sub):
                raise ConsistencyError("vertex link of a pure complex came out non-pure")
            memo[sub.facets] = 0 if not _reisner_fails(sub, fails) else 1 + max(
                (peel(link(sub, {v})) for v in frozenset().union(*sub.facets)), default=0)
        return memo[sub.facets]

    return peel(c)
