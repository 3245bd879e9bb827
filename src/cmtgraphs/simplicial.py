"""Simplicial complexes and the brute-force Cohen-Macaulay oracle.

Everything here is exact.  A complex is stored by its facets; reduced
homology is computed over the rationals from the boundary matrices, with
no floating point anywhere.  Each boundary rank is first taken mod 2, by
XOR elimination of bitmask columns.  When the mod-2 Betti numbers are
non-zero in at most one degree they are already the rational ones (the
proof is in `reduced_homology`); otherwise every rank is recomputed over
the integers by fraction-free (Bareiss) elimination, which torsion needs.

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
from dataclasses import dataclass

from .bigraph import BipartiteGraph, ConsistencyError


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


def independence_complex(g: BipartiteGraph) -> SimplicialComplex:
    """The complex of independent vertex sets of g, given by its facets.

    Maximal independent sets are maximal cliques of the complement graph;
    Bron-Kerbosch with pivoting enumerates them without repetition.
    """
    verts = g.vertices
    universe = set(verts)
    nonadj = {v: universe - set(g.neighbors(v)) - {v} for v in verts}
    facets: list[frozenset[str]] = []

    def grow(chosen: set[str], allowed: set[str], excluded: set[str]) -> None:
        if not allowed and not excluded:
            facets.append(frozenset(chosen))
            return
        pivot = max(allowed | excluded, key=lambda u: len(nonadj[u] & allowed))
        for v in sorted(allowed - nonadj[pivot]):
            grow(chosen | {v}, allowed & nonadj[v], excluded & nonadj[v])
            allowed.discard(v)
            excluded.add(v)

    grow(set(), set(verts), set())
    return SimplicialComplex(tuple(verts), frozenset(facets))


def independent_set_count(g: BipartiteGraph, limit: int) -> int:
    """Faces of the independence complex of g, or limit + 1 if it has more.

    Counts independent sets, the empty one included, without building the
    complex: branch on the lowest remaining vertex, left out or taken with
    its neighbours removed.  Every branch ends in a distinct independent
    set, so the work is linear in the count returned.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    closed = [1 << i | sum(1 << index[u] for u in g.neighbors(v))
              for i, v in enumerate(g.vertices)]
    count = 0
    stack = [(1 << len(closed)) - 1]
    while stack and count <= limit:
        allowed = stack.pop()
        if not allowed:
            count += 1
            continue
        lowest = allowed & -allowed
        stack.append(allowed & ~lowest)
        stack.append(allowed & ~closed[lowest.bit_length() - 1])
    return count


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


def _integer_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by Bareiss elimination; all arithmetic exact."""
    m = [row[:] for row in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, n_rows):
            row_i, row_r = m[i], m[r]
            factor = row_i[c]
            for j in range(c + 1, n_cols):
                row_i[j] = (row_i[j] * row_r[c] - factor * row_r[j]) // prev
            row_i[c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == n_rows:
            break
    return rank


def _boundary_rank(lower: list[tuple[str, ...]], upper: list[tuple[str, ...]]) -> int:
    """Rank of the boundary map from the span of `upper` down to `lower`."""
    if not lower or not upper:
        return 0
    row_of = {f: i for i, f in enumerate(lower)}
    matrix = [[0] * len(upper) for _ in lower]
    for col, face in enumerate(upper):
        for i in range(len(face)):
            sub = face[:i] + face[i + 1:]
            matrix[row_of[sub]][col] = (-1) ** i
    return _integer_rank(matrix)


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
    from torsion, and every rank is recomputed by Bareiss elimination.
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
