"""Shared test helpers: independent oracles the library must agree with.

Everything in here is deliberately written from scratch against the raw
definitions (subset filtering, Fraction Gaussian elimination, brute-force
bijection search) so that agreement with the library is evidence, not
circularity.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import HealthCheck, settings

from cmtgraphs import BipartiteGraph

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


# ---------------------------------------------------------------- graphs

def graph(left, right, edges) -> BipartiteGraph:
    return BipartiteGraph.of(left.split(), right.split(),
                             [tuple(e.split("-")) for e in edges.split()])


def complete(n: int, prefix_x: str = "x", prefix_y: str = "y") -> BipartiteGraph:
    return BipartiteGraph.of(
        [f"{prefix_x}{i}" for i in range(1, n + 1)],
        [f"{prefix_y}{i}" for i in range(1, n + 1)],
        [(f"{prefix_x}{i}", f"{prefix_y}{j}")
         for i in range(1, n + 1) for j in range(1, n + 1)],
    )


def rename(g: BipartiteGraph, suffix: str) -> BipartiteGraph:
    return BipartiteGraph.of(
        [v + suffix for v in g.left],
        [v + suffix for v in g.right],
        [(x + suffix, y + suffix) for x, y in g.edges],
    )


def relabeled_copy(g: BipartiteGraph, rng: random.Random,
                   allow_swap: bool = True) -> BipartiteGraph:
    """Random isomorphic copy: fresh names, shuffled sides, optional side swap."""
    verts = list(g.vertices)
    fresh = [f"v{k}" for k in range(len(verts))]
    rng.shuffle(fresh)
    name = dict(zip(verts, fresh))
    left = [name[v] for v in g.left]
    right = [name[v] for v in g.right]
    edges = [(name[x], name[y]) for x, y in g.edges]
    rng.shuffle(left)
    rng.shuffle(right)
    if allow_swap and rng.random() < 0.5:
        left, right = right, left
        edges = [(y, x) for x, y in edges]
    return BipartiteGraph.of(left, right, edges)


def random_bipartite(rng: random.Random, max_side: int = 4,
                     edge_prob: float = 0.5) -> BipartiteGraph:
    nl = rng.randint(1, max_side)
    nr = rng.randint(1, max_side)
    left = [f"x{i}" for i in range(nl)]
    right = [f"y{j}" for j in range(nr)]
    edges = [(x, y) for x in left for y in right if rng.random() < edge_prob]
    return BipartiteGraph.of(left, right, edges)


def blow_up(g: BipartiteGraph, rng: random.Random, max_class: int) -> BipartiteGraph:
    """g with each vertex made 1-`max_class` twins, v becoming v_0, v_1, ...

    Each copy is joined to every copy of v's neighbours, so copies are
    twins; the class sizes are drawn in the order of `g.vertices`.
    """
    copies = {v: [f"{v}_{a}" for a in range(rng.randint(1, max_class))] for v in g.vertices}
    return BipartiteGraph.of([c for x in g.left for c in copies[x]],
                             [c for y in g.right for c in copies[y]],
                             [(a, b) for x, y in g.edges for a in copies[x] for b in copies[y]])


def twin_blow_up(rng: random.Random, max_side: int = 5,
                 max_class: int = 3) -> BipartiteGraph:
    """A random base with sides up to `max_side`, each vertex made 1-`max_class` twins.

    Base vertex i on the left becomes x{i}_0, x{i}_1, ... (`blow_up`).  A
    base vertex with no edge gives isolated twins.
    """
    sides = rng.randint(1, max_side), rng.randint(1, max_side)
    left, right = [f"x{i}" for i in range(sides[0])], [f"y{j}" for j in range(sides[1])]
    base = [(x, y) for x in left for y in right if rng.random() < 0.5]
    return blow_up(BipartiteGraph.of(left, right, base), rng, max_class)


def independent_set_count(g: BipartiteGraph) -> int:
    """Independent sets of g, the empty one included, by brute force over one side.

    Lefts and rights are independent among themselves, so a set of lefts S
    extends to an independent set by exactly the subsets of the rights with
    no neighbour in S.
    """
    total = 0
    for k in range(len(g.left) + 1):
        for combo in itertools.combinations(g.left, k):
            free = [y for y in g.right if all((x, y) not in g.edges for x in combo)]
            total += 2 ** len(free)
    return total


def _side_preserving_iso(g: BipartiteGraph, h: BipartiteGraph) -> bool:
    if len(g.left) != len(h.left) or len(g.right) != len(h.right):
        return False
    if len(g.edges) != len(h.edges):
        return False
    h_columns = sorted(sorted(x for x in h.left if (x, y) in h.edges)
                       for y in h.right)
    g_neighbors = {y: [x for x in g.left if (x, y) in g.edges] for y in g.right}
    for sigma in itertools.permutations(h.left):
        mapping = dict(zip(g.left, sigma))
        mapped = sorted(sorted(mapping[x] for x in g_neighbors[y]) for y in g.right)
        if mapped == h_columns:
            return True
    return False


def graphs_isomorphic(g: BipartiteGraph, h: BipartiteGraph) -> bool:
    """Brute-force isomorphism, sides preserved or swapped wholesale."""
    if _side_preserving_iso(g, h):
        return True
    swapped = BipartiteGraph.of(g.right, g.left, [(y, x) for x, y in g.edges])
    return _side_preserving_iso(swapped, h)


def count_iso_classes(graphs) -> int:
    """Pairwise brute-force class count, independent of canonical_form."""
    reps: list[BipartiteGraph] = []
    for g in graphs:
        if not any(graphs_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


# ------------------------------------------------- preorders and posets

def preorders(n: int) -> list[frozenset[tuple[int, int]]]:
    """Every reflexive transitive relation on range(n), each exactly once.

    Built one point at a time.  Point k is placed above a set `down` and
    below a set `up` of the earlier points.  The result is transitive
    exactly when `down` is down-closed, `up` is up-closed and everything in
    `down` already lies below everything in `up`, so those tests prune the
    search as it goes.
    """
    relations = [frozenset()]
    for k in range(n):
        grown = []
        for rel in relations:
            subsets = [set(s) for r in range(k + 1)
                     for s in itertools.combinations(range(k), r)]
            downs = [s for s in subsets
                     if not any(a not in s for a, b in rel if b in s)]
            ups = [s for s in subsets
                   if not any(b not in s for a, b in rel if a in s)]
            for down in downs:
                for up in ups:
                    if all((a, b) in rel for a in down for b in up):
                        grown.append(rel | {(k, k)} | {(a, k) for a in down}
                                     | {(k, b) for b in up})
        relations = grown
    return relations


def relabelling_orbits(relations, n: int) -> list[frozenset]:
    """Group relations on range(n) into orbits under permuting the points."""
    perms = list(itertools.permutations(range(n)))
    seen: set[frozenset] = set()
    orbits = []
    for rel in relations:
        if rel in seen:
            continue
        orbit = frozenset(frozenset((p[a], p[b]) for a, b in rel)
                          for p in perms)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def poset_counts(n: int) -> tuple[int, int]:
    """Posets on n points up to isomorphism, and how many are self-dual.

    A poset is self-dual when reversing it lands in its own orbit.
    """
    posets = [r for r in preorders(n)
              if not any((b, a) in r for a, b in r if a != b)]
    orbits = relabelling_orbits(posets, n)
    self_dual = sum(frozenset((b, a) for a, b in next(iter(orbit))) in orbit
                    for orbit in orbits)
    return len(orbits), self_dual


def block_codim(multiplicities) -> int:
    """Sharp codimension d - n_min + 1 of a blow-up, from its block sizes.

    d is the number of matched pairs, the sum of the sizes, and n_min the
    least size above 1.  With no size above 1 the graph is cross-free and
    Cohen-Macaulay, so the answer is 0.
    """
    large = [n for n in multiplicities if n > 1]
    return sum(multiplicities) - min(large) + 1 if large else 0


def _comparability_connected(rel, n: int) -> bool:
    reached, frontier = {0}, [0]
    while frontier:
        a = frontier.pop()
        for b in range(n):
            if b not in reached and ((a, b) in rel or (b, a) in rel):
                reached.add(b)
                frontier.append(b)
    return len(reached) == n


def poset_classes(p: int):
    """Each poset on range(p) up to isomorphism and duality, with Aut±(P).

    Yields one poset P per class, as a set of pairs, and its group: the
    permutations of the points that carry P onto itself (automorphisms)
    or onto its reverse (anti-automorphisms).
    """
    posets = [r for r in preorders(p)
              if not any((b, a) in r for a, b in r if a != b)]
    perms = list(itertools.permutations(range(p)))
    covered: set[frozenset] = set()
    for orbit in relabelling_orbits(posets, p):
        base = next(iter(orbit))
        if base in covered:
            continue
        dual = frozenset((b, a) for a, b in base)
        covered |= orbit | {frozenset((b, a) for a, b in r) for r in orbit}
        yield base, [s for s in perms
                     if frozenset((s[a], s[b]) for a, b in base) in (base, dual)]


def vector_orbits(vectors, group) -> int:
    """How many orbits the vectors, indexed by the points, make under the permutations."""
    return len({min(tuple(m[s[i]] for i in range(len(m))) for s in group) for m in vectors})


def sharp_cmt_orbit_counts(t: int) -> tuple[int, int]:
    """Families of graphs of sharp codimension t, and how many are connected.

    By the structure theorem a sharp CM_t graph contracts to a
    Cohen-Macaulay base, a poset P on p points taken up to isomorphism and
    duality (the side swap), with a multiplicity vector m.  Two such graphs
    are isomorphic exactly when their bases are and some automorphism or
    anti-automorphism of P carries one vector to the other, so families are
    orbits of vectors under that group, summed over base classes.  A
    blow-up is connected exactly when P's comparability graph is.

    With one entry n above 1 the codimension is (p - 1 + n) - n + 1 = p,
    whatever n is: for p = t that is one parametric family per orbit of
    slots, counted here by its size-2 member.  With k >= 2 entries above 1,
    any one of them, n, other than the least gives
    t >= (p - k) + n + 2(k - 2) + 1 >= n + 1, so every entry is at most
    t - 1 and the vectors with entries up to t are enough.  The same sum
    is at least p + 1, so no base has more than t points, and a one-point
    base gives K_{n,n}, of codimension 1, so bases start at two points.
    """
    families = connected = 0
    for p in range(2, t + 1):
        vectors = [m for m in itertools.product(range(1, t + 1), repeat=p)
                   if block_codim(m) == t and (sum(n > 1 for n in m) > 1 or max(m) == 2)]
        for base, group in poset_classes(p):
            orbits = vector_orbits(vectors, group)
            families += orbits
            connected += orbits if _comparability_connected(base, p) else 0
    return families, connected


def unmixed_class_counts(d: int) -> int:
    """Unmixed graphs on d matched pairs up to isomorphism, no isolated vertices.

    Such a graph is the index graph of a preorder on d points
    (Villarreal's condition on the diagonal is transitivity).  A preorder
    is a poset P on its classes of mutually related points, weighted by
    the class sizes, a composition m of d.  Relabelling the points and
    swapping the sides (reversing the preorder) act on P and m together,
    so the classes are the orbits of the compositions under Aut±(P),
    summed over the posets P up to isomorphism and duality, on 1 to d
    points.
    """
    return sum(vector_orbits([m for m in itertools.product(range(1, d + 1), repeat=p)
                              if sum(m) == d], group)
               for p in range(1, d + 1) for _, group in poset_classes(p))


def relation_graph(rel, n: int) -> BipartiteGraph:
    """The graph on n matched pairs with edge x_i y_j for every related i, j."""
    return BipartiteGraph.of([f"x{i + 1}" for i in range(n)],
                             [f"y{i + 1}" for i in range(n)],
                             [(f"x{a + 1}", f"y{b + 1}") for a, b in rel])


def seeded_poset(rng, k, density):
    """An order on range(k): each i < j related with probability `density`, then closed."""
    below = [1 << i for i in range(k)]
    for j in range(k):
        for i in range(j):
            if rng.random() < density:
                below[j] |= below[i]
    return {(i, j) for j in range(k) for i in range(k) if below[j] >> i & 1}


# ------------------------------------------------------- matchings oracle

def all_pure_pairings(g: BipartiteGraph) -> list[dict[str, str]]:
    """Every perfect matching satisfying the transitivity condition.

    Independent of the library's backtracking: walks all permutations.
    """
    if len(g.left) != len(g.right):
        return []
    out = []
    for perm in itertools.permutations(g.right):
        match = dict(zip(g.left, perm))
        if any((x, y) not in g.edges for x, y in match.items()):
            continue
        good = True
        for xi, xj, xk in itertools.permutations(g.left, 3):
            if ((xi, match[xj]) in g.edges and (xj, match[xk]) in g.edges
                    and (xi, match[xk]) not in g.edges):
                good = False
                break
        if good:
            out.append(match)
    return out


# ------------------------------------------------------ homology oracle

def induced_matching_number(g: BipartiteGraph) -> int:
    """Most edges with no shared vertex and no edge of g joining two of them."""
    edges = sorted(g.edges)
    best = 0
    for k in range(1, len(edges) + 1):
        if not any(len({v for e in combo for v in e}) == 2 * k
                   and all((x, y) not in g.edges
                           for (x, _), (_, y) in itertools.permutations(combo, 2))
                   for combo in itertools.combinations(edges, k)):
            break
        best = k
    return best


def brute_maximal_independent_sets(g: BipartiteGraph) -> set[frozenset[str]]:
    verts = g.vertices
    independent = []
    for k in range(len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            if all((x, y) not in g.edges
                   for x, y in itertools.permutations(combo, 2)):
                independent.append(frozenset(combo))
    return {s for s in independent
            if not any(s < other for other in independent)}


def fraction_rank(rows: list[list[int]]) -> int:
    """Plain Gaussian elimination over Fraction; the slow, obvious rank."""
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(v) for v in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        scale = m[rank][col]
        m[rank] = [v / scale for v in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def brute_betti(facets) -> tuple[int, ...]:
    """Reduced Betti numbers from degree -1 up, straight from the definition."""
    facet_sets = [frozenset(f) for f in facets]
    if not facet_sets:
        return ()
    all_faces: set[tuple[str, ...]] = set()
    for facet in facet_sets:
        members = sorted(facet)
        for k in range(len(members) + 1):
            all_faces.update(itertools.combinations(members, k))
    top = max(len(f) for f in all_faces) - 1
    by_dim = {k: sorted(f for f in all_faces if len(f) == k + 1)
              for k in range(-1, top + 1)}
    ranks = {-1: 0, top + 1: 0}
    for k in range(0, top + 1):
        lower, upper = by_dim[k - 1], by_dim[k]
        row_of = {f: i for i, f in enumerate(lower)}
        matrix = [[0] * len(upper) for _ in lower]
        for col, face in enumerate(upper):
            for i in range(len(face)):
                matrix[row_of[face[:i] + face[i + 1:]]][col] = (-1) ** i
        ranks[k] = fraction_rank(matrix)
    return tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1]
                 for k in range(-1, top + 1))
