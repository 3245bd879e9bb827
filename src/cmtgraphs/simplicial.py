"""Simplicial complexes and the brute-force Cohen-Macaulay oracle.

Everything here is exact.  A complex is stored by its facets; reduced
homology is computed over the rationals from the boundary matrices, with
no floating point anywhere.  The independence complex of a graph comes
from one walk over its independent sets as bitmasks, which also bounds
the work: past a face limit (`ORACLE_FACE_LIMIT` for the oracle) it
raises.  Each boundary rank is first taken mod 2, by XOR elimination of
bitmask columns.  When the mod-2 Betti numbers are non-zero in at most
one degree they are already the rational ones (the proof is in
`reduced_homology`); otherwise every rank is recomputed by the same pivot
loop on sparse integer columns, which torsion needs.

Cohen-Macaulayness is decided by the Reisner criterion: every face link
must have vanishing reduced homology below its own dimension.  `is_cm_t`
is the literal relaxation that only inspects links of faces with at least
t vertices, and `cm_codim` finds the least such t in one sweep over the
faces.  `cm_codim_recursive` reaches the same number along a different
route (peeling one vertex link at a time, through `is_cohen_macaulay`),
which gives the test suite an internal cross-check.

Nothing here is cached across calls.  `cm_codim` and `cm_codim_recursive`
each keep their verdicts per distinct link in a table local to one call,
so nothing outlives a call and a complex is freed once its caller drops it.

Two degenerate complexes are kept distinct: the empty complex (no faces
at all) and the complex whose only face is the empty set.  The latter has
dimension -1, one reduced homology class in degree -1, and counts as
Cohen-Macaulay, which is what makes links of facets uniform to handle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bigraph import BipartiteGraph, ConsistencyError

# The oracle's work grows with the faces of the independence complex, not
# with its vertices.  Measured on one Xeon core under Python 3.11: 19,683
# faces (a perfect matching on 9 pairs, no cone links) take 4-5 s, 6,144
# (the 20-vertex chain) 0.3-0.4 s, and 59,049 (a matching on 10 pairs)
# 23-25 s.
ORACLE_FACE_LIMIT = 20_000


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple[str, ...]
    facets: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
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


def independence_complex(g: BipartiteGraph, limit: int | None = None) -> SimplicialComplex:
    """The complex of independent vertex sets of g, given by its facets.

    Raises the oracle guard's ValueError when g has more than `limit`
    independent sets, the empty one included, after walking limit + 1 of
    them; the oracle's callers pass ORACLE_FACE_LIMIT.  The walk branches on
    the lowest remaining vertex, left out or taken with its neighbours
    removed; it follows the first branch in place and stacks the second.
    Every independent set S is exactly one leaf, so the work is linear in
    the number of faces and each facet is met once.  Along a
    branch the walk carries the union of the closed neighbourhoods of the
    vertices taken, and S is a facet exactly when that union is every
    vertex: if some v outside S has no neighbour in S, then S | {v} is
    independent; otherwise nothing can be added to S.
    """
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    closed = [1 << i | sum(1 << index[u] for u in g.neighbors(v))
              for i, v in enumerate(verts)]
    everything = (1 << len(verts)) - 1
    facets: list[frozenset[str]] = []
    leaves = 0
    stack = [(everything, 0, 0)]
    while stack:
        allowed, taken, covered = stack.pop()
        while allowed:
            lowest = allowed & -allowed
            around = closed[lowest.bit_length() - 1]
            stack.append((allowed & ~around, taken | lowest, covered | around))
            allowed &= ~lowest
        leaves += 1
        if limit is not None and leaves > limit:
            raise ValueError(f"oracle guard: the independence complex has more than "
                             f"{limit} faces (independent sets)")
        if covered == everything:
            facets.append(frozenset(v for i, v in enumerate(verts) if taken >> i & 1))
    return SimplicialComplex(tuple(verts), frozenset(facets))


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
    """Faces disjoint from `face` whose union with it stays a face."""
    f = frozenset(face)
    containing = [facet for facet in c.facets if f <= facet]
    if not containing:
        raise ValueError(f"{sorted(f)} is not a face of the complex")
    remaining = tuple(v for v in c.vertices if v not in f)
    return from_facets(remaining, (facet - f for facet in containing))


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    overlap = set(a.vertices) & set(b.vertices)
    if overlap:
        raise ValueError(f"vertex names shared between operands: {sorted(overlap)}")
    return from_facets(a.vertices + b.vertices,
                       (fa | fb for fa in a.facets for fb in b.facets))


@dataclass(frozen=True)
class HomologyProfile:
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


def _boundary_rank(lower: list[tuple[str, ...]], upper: list[tuple[str, ...]]) -> int:
    """Rank over Q of the boundary map from the span of `upper` down to `lower`."""
    row_of = {f: i for i, f in enumerate(lower)}
    return _exact_rank([{row_of[face[:i] + face[i + 1:]]: (-1) ** i for i in range(len(face))}
                        for face in upper])


def _gf2_boundary_rank(lower: list[tuple[str, ...]], upper: list[tuple[str, ...]]) -> int:
    """Rank mod 2 of the boundary map from the span of `upper` down to `lower`.

    Each column is an int bitmask over `lower`; it is XORed against the
    stored pivot with the same leading bit until it vanishes or becomes a
    new pivot.
    """
    if not lower or not upper:
        return 0
    bit_of = {f: 1 << i for i, f in enumerate(lower)}
    pivots: dict[int, int] = {}
    for face in upper:
        column = 0
        for i in range(len(face)):
            column |= bit_of[face[:i] + face[i + 1:]]
        while column:
            lead = column.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = column
                break
            column ^= pivot
    return len(pivots)


def _betti(by_dim: dict[int, list[tuple[str, ...]]], top: int, rank) -> tuple[int, ...]:
    """Reduced Betti numbers from degree -1 through `top`, with ranks from `rank`.

    No Euler-Poincare comparison is made: beta_k = f_k - r_k - r_{k+1}, so
    the alternating sum of the Betti numbers telescopes to that of the face
    counts whatever the ranks are.  Only a negative Betti number can show
    an overcounted rank.
    """
    ranks = {k: rank(by_dim[k - 1], by_dim[k]) for k in range(0, top + 1)}
    ranks[-1] = 0
    ranks[top + 1] = 0
    betti = tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1]
                  for k in range(-1, top + 1))
    if min(betti) < 0:
        raise ConsistencyError(f"negative Betti number in {betti}")
    return betti


def reduced_homology(c: SimplicialComplex) -> HomologyProfile:
    """Reduced Betti numbers of c over Q, from degree -1 through dim(c).

    The ranks are taken mod 2 first.  When the mod-2 Betti numbers are
    non-zero in at most one degree q, they are the rational ones: a
    non-zero minor mod 2 is non-zero over Z, so rank_F2(d_k) <= rank_Q(d_k)
    and hence beta_k(Q) <= beta_k(F2) in every degree.  Both sequences
    have the same alternating sum, the reduced Euler characteristic, which
    depends only on the face counts.  So beta(Q) vanishes wherever
    beta(F2) does, and in degree q the two agree, both being
    (-1)^q times that characteristic.  Otherwise mod-2 classes may come
    from torsion, and every rank is recomputed exactly by `_exact_rank`.
    """
    if not c.facets:
        return HomologyProfile(())
    top = dim(c)
    by_dim: dict[int, list[tuple[str, ...]]] = {k: [] for k in range(-1, top + 1)}
    for f in faces(c):
        by_dim[len(f) - 1].append(tuple(sorted(f)))
    for group in by_dim.values():
        group.sort()
    betti = _betti(by_dim, top, _gf2_boundary_rank)
    if sum(1 for b in betti if b) > 1:
        betti = _betti(by_dim, top, _boundary_rank)
    return HomologyProfile(betti)


def reduced_euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** (len(f) - 1) for f in faces(c))


def is_cohen_macaulay(c: SimplicialComplex) -> bool:
    """Reisner criterion over the rationals, every face link inspected.

    Every entry of a link's profile but the last lies below its top degree.
    """
    return not any(any(reduced_homology(link(c, f)).betti[:-1]) for f in faces(c))


def is_cm_t(c: SimplicialComplex, t: int) -> bool:
    """Pure, and every face with at least t vertices has a Cohen-Macaulay link.

    Negative t is read as 0: the condition cannot see faces of negative size.
    """
    t = max(t, 0)
    if not is_pure(c):
        return False
    if not c.facets:
        return True
    return all(is_cohen_macaulay(link(c, f))
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
    the profile but the last lies below the top degree.
    """
    return _codim_sweep(c)[0]


def _codim_sweep(c: SimplicialComplex) -> tuple[int | None, HomologyProfile | None]:
    """`cm_codim`, and the profile of c itself when the sweep computed it.

    The empty face comes last and its link is c, keyed by c.facets.  The
    profile is None when the sweep stopped at a larger face, when c is a
    cone, and when c is not pure or has no faces.
    """
    if not is_pure(c):
        return None, None
    if not c.facets:
        return 0, None
    profiles: dict[frozenset[frozenset[str]], HomologyProfile | None] = {}
    for f in sorted(faces(c), key=len, reverse=True):
        star = frozenset(facet - f for facet in c.facets if f <= facet)
        if star not in profiles:
            profiles[star] = (None if frozenset.intersection(*star)
                              else reduced_homology(link(c, f)))
        if profiles[star] is not None and any(profiles[star].betti[:-1]):
            return len(f) + 1, profiles.get(c.facets)
    return 0, profiles.get(c.facets)


def cm_codim_recursive(c: SimplicialComplex) -> int | None:
    """Same number as cm_codim, reached by peeling vertex links.

    For t >= 1 a pure complex is CM_t exactly when every vertex link is
    CM_{t-1}, so the sharp codimension of a non-CM complex is one more than
    the worst sharp codimension among its vertex links.  Links of different
    faces often coincide; within one call each is peeled once.
    """
    if not is_pure(c):
        return None
    memo: dict[frozenset[frozenset[str]], int] = {}

    def peel(sub: SimplicialComplex) -> int:
        if sub.facets not in memo:
            if not is_pure(sub):
                raise ConsistencyError("vertex link of a pure complex came out non-pure")
            memo[sub.facets] = 0 if is_cohen_macaulay(sub) else 1 + max(
                (peel(link(sub, {v})) for v in frozenset().union(*sub.facets)), default=0)
        return memo[sub.facets]

    return peel(c)
