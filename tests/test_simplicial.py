"""Complex oracle: homology, Reisner scan, codimension, joins."""

import gc
import itertools
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from cmtgraphs import (
    BUILTIN_NAMES,
    BipartiteGraph,
    ConsistencyError,
    builtin_graph,
    classify,
    cm_codim,
    cm_codim_recursive,
    dim,
    enumerate_sharp_cmt,
    enumerate_unmixed,
    faces,
    from_facets,
    independence_complex,
    is_cm_t,
    is_cohen_macaulay,
    is_pure,
    join,
    link,
    parse_graph,
    reduced_euler_characteristic,
    reduced_homology,
)
from cmtgraphs import simplicial
from cmtgraphs.cli import main
from cmtgraphs.simplicial import SimplicialComplex
from conftest import (
    blow_up,
    brute_betti,
    brute_maximal_independent_sets,
    complete,
    fraction_rank,
    graph,
    independent_set_count,
    induced_matching_number,
    random_bipartite,
    relation_graph,
    rename,
    seeded_poset,
    twin_blow_up,
)

PATH = parse_graph("L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y2\n")
VOID = from_facets([], [()])
EMPTY = from_facets([], [])
# The six-vertex real projective plane: acyclic over Q, but H_1 = Z/2, so
# its mod-2 Betti numbers are (0, 0, 1, 1).
RP2 = from_facets("123456", ["123", "134", "145", "156", "162",
                             "235", "346", "452", "563", "624"])


def all_complexes(verts):
    """Every complex on a subset of `verts`: all antichains of subsets."""
    subsets = [frozenset(c) for k in range(len(verts) + 1)
               for c in itertools.combinations(verts, k)]
    out = []
    for mask in range(1 << len(subsets)):
        family = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        if any(a < b or b < a for a, b in itertools.combinations(family, 2)):
            continue
        out.append(from_facets(verts, family))
    return out


def former_dominance(nbrs, members):
    """The oracle walk's former dominance table, one pair at a time.

    dom[i] holds the other members v with N(v) <= N(i), found by testing
    every pair, O(|members|^2); `simplicial._dominance` must give the same.
    """
    dom = [0] * len(nbrs)
    for i in members:
        above = ~nbrs[i]
        dom[i] = sum(1 << v for v in members if v != i and not nbrs[v] & above)
    return dom


def former_walk(nbrs, allowed):
    """The oracle walk before it counted all-cone subtrees: every set, tagged or not.

    A copy of the former `simplicial._walk`, kept as the reference for the
    walk's order and for the sets it now counts without listing.  Each
    independent set of whole twin classes inside `allowed` comes as
    (taken, free, cone), cone being the free representatives dominated by
    a taken one, in the walk's order; the guard is the module's.
    """
    n = allowed.bit_count()
    if (1 << n // 2) + (1 << n - n // 2) - 1 > simplicial.ORACLE_FACE_LIMIT:
        raise simplicial._refused()
    lowest_of = {}
    whole = [0] * len(nbrs)
    for i, mask in enumerate(nbrs):
        if allowed >> i & 1:
            whole[lowest_of.setdefault(mask, i)] |= 1 << i
    weight = [(1 << c.bit_count()) - 1 for c in whole]
    members = [i for i, c in enumerate(whole) if c]
    reps = sum(1 << i for i in members)
    closed = [mask | 1 << i for i, mask in enumerate(nbrs)]
    dom = former_dominance(nbrs, members)
    out = []
    count, stack = 0, [(reps, 0, reps, 0, 1)]
    while stack:
        allowed, taken, free, under, faces = stack.pop()
        count += faces
        if count > simplicial.ORACLE_FACE_LIMIT:
            raise simplicial._refused()
        while allowed:
            lowest = allowed & -allowed
            i = lowest.bit_length() - 1
            around = closed[i]
            stack.append((allowed & ~around, taken | whole[i],
                          free & ~around, under | dom[i], faces * weight[i]))
            allowed ^= lowest
        out.append((taken, free, under & free))
    return out


def whole_class_sets(g, allowed):
    """Every independent set of whole twin classes inside `allowed`, from `g.edges` alone.

    Bit i is `g.vertices[i]`.  The twin classes are the vertices of
    `allowed` with equal neighbourhoods, each represented by its lowest
    vertex.  Returns (reps, sets): reps holds the representatives, and
    sets maps each independent set of classes, as the union of its
    classes, to (free, tag): free is the representatives outside the
    set's closed neighbourhood, and tag the free ones whose neighbours
    are all neighbours of one taken representative.
    """
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    edges = [bit[x] | bit[y] for x, y in g.edges]
    around = {b: frozenset(e ^ b for e in edges if e & b) for b in bit.values()}
    classes = {}
    for b in sorted(bit.values()):
        if b & allowed:
            classes[around[b]] = classes.get(around[b], 0) | b
    whole = {c & -c: c for c in classes.values()}
    reps = sum(whole)
    sets, sub = {}, reps
    while True:
        if all(e & sub != e for e in edges):
            closed = sub
            for e in edges:
                if e & sub:
                    closed |= e
            free = reps & ~closed
            tag = sum(v for v in whole if v & free and any(
                u & sub and around[v] <= around[u] for u in whole))
            sets[sum(c for r, c in whole.items() if r & sub)] = (free, tag)
        if not sub:
            break
        sub = (sub - 1) & reps
    return reps, sets


def check_walk_at_face_count(g):
    """The walk of every vertex of g at its face count n, and refusing at n - 1.

    With the limit at conftest's brute-force count n, `_walk` must list
    the untagged sets of `former_walk`, in its order; at n - 1 it must
    raise the guard's message.  The module's limit is put back.
    Returns n.
    """
    nbrs = simplicial._masks(g)
    everything = (1 << len(nbrs)) - 1
    n = independent_set_count(g)
    limit = simplicial.ORACLE_FACE_LIMIT
    try:
        simplicial.ORACLE_FACE_LIMIT = n
        assert simplicial._walk(nbrs, everything) == [
            (taken, free) for taken, free, cone in former_walk(nbrs, everything) if not cone], g
        simplicial.ORACLE_FACE_LIMIT = n - 1
        with pytest.raises(ValueError) as refused:
            simplicial._walk(nbrs, everything)
        assert str(refused.value) == (f"oracle guard: the independence complex has more "
                                      f"than {n - 1} faces (independent sets)"), g
    finally:
        simplicial.ORACLE_FACE_LIMIT = limit
    return n


class TestIndependenceComplex:
    def test_k22_facets(self):
        ind = independence_complex(complete(2))
        assert ind.facets == frozenset({frozenset({"x1", "x2"}),
                                        frozenset({"y1", "y2"})})

    def test_single_edge_facets(self):
        ind = independence_complex(graph("x1", "y1", "x1-y1"))
        assert ind.facets == frozenset({frozenset({"x1"}), frozenset({"y1"})})

    def test_fig1_facets_all_size_four(self):
        g = parse_graph(
            "L: x1 x21 x22 x23\nR: y1 y21 y22 y23\n"
            "E: x1-y1 x1-y21 x1-y22 x1-y23\n"
            "E: x21-y21 x21-y22 x21-y23 x22-y21 x22-y22 x22-y23\n"
            "E: x23-y21 x23-y22 x23-y23\n")
        ind = independence_complex(g)
        assert {len(f) for f in ind.facets} == {4}
        assert frozenset({"x1", "x21", "x22", "x23"}) in ind.facets
        assert frozenset({"y1", "y21", "y22", "y23"}) in ind.facets

    def test_matches_subset_filter_oracle(self):
        rng = random.Random(5)
        for _ in range(150):
            g = random_bipartite(rng, max_side=3)
            assert independence_complex(g).facets == \
                frozenset(brute_maximal_independent_sets(g))
        # Every graph with sides of at most 3, empty sides and isolated
        # vertices included: 689 graphs.
        seen = 0
        for p, q in itertools.product(range(4), repeat=2):
            left, right = [f"x{i}" for i in range(p)], [f"y{j}" for j in range(q)]
            cells = list(itertools.product(left, right))
            for mask in range(1 << len(cells)):
                g = BipartiteGraph.of(left, right, [e for bit, e in enumerate(cells)
                                                    if mask >> bit & 1])
                assert independence_complex(g).facets == \
                    frozenset(brute_maximal_independent_sets(g))
                seen += 1
        assert seen == 689

    def test_walk_against_brute_force(self):
        # On seeded random graphs and twin blow-ups, and random `allowed`
        # masks, the former walk lists once each independent set of the
        # twin classes inside `allowed` (vertices of `allowed` with equal
        # neighbourhoods), as the union of its classes, with the `free`
        # mask and cone tag that `whole_class_sets` finds from `g.edges`
        # alone.  The walk lists exactly the untagged sets, as (taken,
        # free), in the former walk's order; the first is the empty one,
        # free on every representative.  Chains and seeded poset graphs,
        # with their twin blow-ups, are walked whole too: there most
        # untagged sets lie above a tagged one, reached by the branch the
        # walk is forced to.
        rng, pruned, forced = random.Random(57), 0, 0

        def check(g, allowed):
            reps, expected = whole_class_sets(g, allowed)
            nbrs = simplicial._masks(g)
            former = former_walk(nbrs, allowed)
            assert len(former) == len(expected)
            assert {taken: (free, cone) for taken, free, cone in former} == expected, (g, allowed)
            sets = simplicial._walk(nbrs, allowed)
            assert sets[0] == (0, reps)
            assert sets == [(taken, free) for taken, free, cone in former if not cone], (g, allowed)
            tagged = [s for s, (_, tag) in expected.items() if tag]
            return len(sets) < len(former), sum(any(s & t == s for s in tagged)
                                                for t, _ in sets)

        for k in range(210):
            g = random_bipartite(rng, max_side=5) if k < 150 else twin_blow_up(rng, 4, 3)
            pruned += check(g, rng.getrandbits(len(g.vertices)))[0]
        assert pruned > 50
        posets = [relation_graph(seeded_poset(rng, k, rng.uniform(0.3, 0.7)), k)
                  for k in (4, 5, 6, 6) for _ in range(5)]
        blown = [blow_up(g, rng, 2) for g in posets if len(g.left) <= 5]
        for g in [chain(d) for d in range(3, 8)] + posets + blown:
            for allowed in ((1 << len(g.vertices)) - 1, rng.getrandbits(len(g.vertices))):
                forced += check(g, allowed)[1]
            check_walk_at_face_count(g)
        assert forced > 1000

    def test_a_tag_persists_in_every_larger_set(self):
        # The fact behind the walk's forced branch, from `g.edges` alone:
        # a tagged vertex v of an independent set S of whole classes is
        # free and tagged in every such set S' >= S that does not take v.
        # So every untagged set above S takes S's whole tag.  And the walk
        # lists S before S' exactly when the lowest vertex of S ^ S' lies
        # in S', for the former walk's every set and the walk's listing.
        rng, tagged = random.Random(61), 0
        graphs = [random_bipartite(rng, 5, rng.choice([0.3, 0.6])) for _ in range(60)]
        graphs += [twin_blow_up(rng, 4, 2) for _ in range(30)]
        posets = [relation_graph(seeded_poset(rng, k, rng.uniform(0.3, 0.7)), k)
                  for k in (4, 5, 6) for _ in range(5)]
        graphs += [chain(d) for d in range(3, 8)] + posets
        graphs += [blow_up(g, rng, 2) for g in posets if len(g.left) <= 5]
        for g in graphs:
            nbrs = simplicial._masks(g)
            for allowed in ((1 << len(nbrs)) - 1, rng.getrandbits(len(nbrs))):
                _, sets = whole_class_sets(g, allowed)
                for s, (_, tag) in sets.items():
                    if tag:
                        tagged += 1
                        for t, (_, above) in sets.items():
                            if t & s == s:
                                assert tag & ~t & ~above == 0, (g, allowed, s, t)
                for listing in ([taken for taken, _, _ in former_walk(nbrs, allowed)],
                                [taken for taken, _ in simplicial._walk(nbrs, allowed)]):
                    for a, b in zip(listing, listing[1:]):
                        first = (a ^ b) & -(a ^ b)
                        assert first & b, (g, allowed, a, b)
        assert tagged > 4000

    def test_dominance_table_against_every_pair(self):
        # The table built from up-sets against the former test of every
        # pair, on random graphs (isolated vertices among them), twin
        # blow-ups and the empty graph, for random sets of members.
        rng, isolated = random.Random(33), 0
        graphs = [BipartiteGraph.of([], [], [])]
        graphs += [random_bipartite(rng, 6, rng.choice([0.15, 0.5, 0.85])) for _ in range(200)]
        graphs += [twin_blow_up(rng, 4, 3) for _ in range(100)]
        for g in graphs:
            nbrs = simplicial._masks(g)
            for allowed in ((1 << len(nbrs)) - 1, rng.getrandbits(len(nbrs))):
                members = [i for i in range(len(nbrs)) if allowed >> i & 1]
                assert simplicial._dominance(nbrs, members, allowed) == \
                    former_dominance(nbrs, members), (g, allowed)
            isolated += bool(g.isolated_vertices())
        assert isolated > 20

    def test_empty_graph_gives_void_complex(self):
        ind = independence_complex(BipartiteGraph.of([], [], []))
        assert ind.facets == frozenset({frozenset()})

    def test_limit_is_face_count(self, monkeypatch):
        # The limit is read when the walk runs, so patching the module's
        # constant moves the guard for every caller.  On twin-heavy
        # blow-ups the guard counts the faces on the twin classes, and on
        # graphs with dominance it counts the all-cone subtrees it does
        # not list, so its count is checked against conftest's
        # brute-force one.
        real, pruned = simplicial._independent_weight, []

        def counting(allowed, *rest):
            pruned.append(allowed)
            return real(allowed, *rest)

        monkeypatch.setattr(simplicial, "_independent_weight", counting)

        def passes_at_limit(g, n):
            # Whether the walk that answers at the face count counted a
            # branch unlisted; each refused walk one below must do the same.
            monkeypatch.setattr(simplicial, "ORACLE_FACE_LIMIT", n)
            del pruned[:]
            ind = independence_complex(g)
            assert simplicial.oracle_sweep(g).facet_count == len(ind.facets)
            prunes = bool(pruned)
            monkeypatch.setattr(simplicial, "ORACLE_FACE_LIMIT", n - 1)
            for refused in (independence_complex, simplicial.oracle_sweep):
                del pruned[:]
                with pytest.raises(ValueError, match="oracle guard"):
                    refused(g)
                assert bool(pruned) == prunes, g
            return ind, prunes

        rng = random.Random(41)
        for _ in range(100):
            g = random_bipartite(rng, max_side=4)
            facets = frozenset(brute_maximal_independent_sets(g))
            n = len(faces(from_facets(g.vertices, facets)))
            assert n == independent_set_count(g)
            assert passes_at_limit(g, n)[0].facets == facets
        for _ in range(60):
            g = twin_blow_up(rng)
            passes_at_limit(g, independent_set_count(g))
        # Chains and seeded poset graphs, and their twin blow-ups: on every
        # chain with 3 pairs or more, and on most of the others, the walk
        # counts a branch unlisted, at the face count and one below.
        chains = [chain(d) for d in range(3, 8)]
        posets = [relation_graph(seeded_poset(rng, k, rng.uniform(0.3, 0.7)), k)
                  for k in (3, 4, 5, 5, 6, 6) for _ in range(5)]
        blown = [blow_up(g, rng, 2) for g in chains + posets if len(g.left) <= 5]
        assert all(passes_at_limit(g, independent_set_count(g))[1] for g in chains)
        assert sum(passes_at_limit(g, independent_set_count(g))[1] for g in posets + blown) >= 40
        empty = BipartiteGraph.of([], [], [])
        monkeypatch.setattr(simplicial, "ORACLE_FACE_LIMIT", 1)
        assert independence_complex(empty).facets == frozenset({frozenset()})
        monkeypatch.setattr(simplicial, "ORACLE_FACE_LIMIT", 0)
        with pytest.raises(ValueError, match="oracle guard"):
            independence_complex(empty)

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (2, 3), (3, 3), (3, 4), (6, 7)])
    def test_vertex_bound_is_met_by_complete_graphs(self, monkeypatch, p, q):
        # Every subset of a side is independent, so p + q vertices force at
        # least 2^p + 2^q - 1 faces when |p - q| <= 1, and K_{p,q} has just
        # those.  At that limit it is walked; one below, the vertex count
        # alone refuses it, before any walk.
        left, right = [f"x{i}" for i in range(p)], [f"y{j}" for j in range(q)]
        g = BipartiteGraph.of(left, right, [(x, y) for x in left for y in right])
        n = 2 ** p + 2 ** q - 1
        assert independent_set_count(g) == n
        walk, walks = simplicial._walk, []

        def counting_walk(nbrs, allowed):
            walks.append(allowed)
            return walk(nbrs, allowed)

        def unread_walk(nbrs, allowed):
            walks.append(allowed)
            return walk(None, allowed)

        monkeypatch.setattr(simplicial, "_walk", counting_walk)
        monkeypatch.setattr(simplicial, "ORACLE_FACE_LIMIT", n)
        assert simplicial.oracle_sweep(g).facet_count == (2 if p else 1)
        assert walks == [(1 << p + q) - 1]
        del walks[:]
        # One below, the walk is handed no masks at all: it must refuse on
        # the vertex count before reading one.
        monkeypatch.setattr(simplicial, "_walk", unread_walk)
        monkeypatch.setattr(simplicial, "ORACLE_FACE_LIMIT", n - 1)
        for refused in (independence_complex, simplicial.oracle_sweep):
            with pytest.raises(ValueError, match=f"more than {n - 1} faces"):
                refused(g)
        assert walks == [(1 << p + q) - 1] * 2


class TestBasics:
    def test_dim(self):
        assert dim(independence_complex(complete(2))) == 1
        assert dim(VOID) == -1
        with pytest.raises(ValueError, match="empty complex"):
            dim(EMPTY)

    def test_purity(self):
        assert is_pure(independence_complex(complete(2)))
        assert not is_pure(from_facets("abc", [("a",), ("b", "c")]))
        six_cycle = parse_graph(
            "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x1-y2 x2-y2 x2-y3 x3-y3 x3-y1\n")
        assert not is_pure(independence_complex(six_cycle))

    def test_nested_facets_rejected(self):
        with pytest.raises(ConsistencyError, match="nested"):
            SimplicialComplex(("a", "b"), frozenset({frozenset("a"), frozenset("ab")}))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="duplicate vertex in complex universe"):
            SimplicialComplex(("a", "b", "a"), frozenset({frozenset("ab")}))

    def test_facet_outside_the_universe_rejected(self):
        with pytest.raises(ValueError, match=r"facet \['a', 'c'\] leaves the vertex universe"):
            SimplicialComplex(("a", "b"), frozenset({frozenset("ac")}))

    def test_from_facets_prunes(self):
        c = from_facets("abc", [("a",), ("a", "b"), ("a", "b"), ()])
        assert c.facets == frozenset({frozenset({"a", "b"})})

    def test_faces_include_empty_set(self):
        c = from_facets("ab", [("a", "b")])
        assert faces(c) == frozenset({frozenset(), frozenset({"a"}),
                                      frozenset({"b"}), frozenset({"a", "b"})})


class TestLinkAndJoin:
    def test_link_of_vertex_in_k22(self):
        ind = independence_complex(complete(2))
        assert link(ind, {"x1"}).facets == frozenset({frozenset({"x2"})})

    def test_link_of_empty_set_is_identity(self):
        ind = independence_complex(PATH)
        assert link(ind, frozenset()).facets == ind.facets

    def test_link_of_facet_is_void(self):
        ind = independence_complex(complete(2))
        assert link(ind, {"x1", "x2"}).facets == frozenset({frozenset()})

    def test_link_requires_face(self):
        ind = independence_complex(complete(2))
        with pytest.raises(ValueError, match="not a face"):
            link(ind, {"x1", "y1"})

    def test_join_point_with_void(self):
        point = from_facets("v", [("v",)])
        assert join(point, VOID).facets == frozenset({frozenset({"v"})})

    def test_join_of_edges_is_union_complex(self):
        a = independence_complex(graph("x1", "y1", "x1-y1"))
        b = independence_complex(graph("x2", "y2", "x2-y2"))
        both = graph("x1 x2", "y1 y2", "x1-y1 x2-y2")
        assert join(a, b).facets == independence_complex(both).facets

    def test_join_of_blocks_matches_two_block_graph(self):
        a = independence_complex(complete(2, "x1", "y1"))
        b = independence_complex(complete(2, "x2", "y2"))
        two_blocks = parse_graph(
            "L: x11 x12 x21 x22\nR: y11 y12 y21 y22\n"
            "E: x11-y11 x11-y12 x12-y11 x12-y12\n"
            "E: x21-y21 x21-y22 x22-y21 x22-y22\n")
        got = {frozenset(sorted(f)) for f in join(a, b).facets}
        assert len(got) == len(independence_complex(two_blocks).facets) == 4
        assert {len(f) for f in join(a, b).facets} == {4}

    def test_join_rejects_shared_names(self):
        point = from_facets("v", [("v",)])
        with pytest.raises(ValueError, match="shared"):
            join(point, point)

    def test_link_needs_no_pruning(self):
        # Every face of every complex on four vertices: the link built
        # directly equals the one `from_facets` prunes.
        checked = 0
        for c in all_complexes("abcd"):
            for f in faces(c):
                got = link(c, f)
                assert got == from_facets(got.vertices,
                                          (g - f for g in c.facets if f <= g))
                checked += 1
        assert checked > 1000

    def test_join_needs_no_pruning(self):
        # Every pair of complexes on disjoint vertex sets, empty ones included.
        for a in all_complexes("abc"):
            for b in all_complexes("xyz"):
                got = join(a, b)
                assert got == from_facets(a.vertices + b.vertices,
                                          (fa | fb for fa in a.facets for fb in b.facets))


class TestHomology:
    def test_two_disjoint_segments(self):
        profile = reduced_homology(independence_complex(complete(2)))
        assert profile.rank(0) == 1
        assert profile.rank(-1) == 0 and profile.rank(1) == 0

    def test_simplex_is_acyclic(self):
        c = from_facets("abcd", [("a", "b", "c", "d")])
        assert all(b == 0 for b in reduced_homology(c).betti)

    def test_hollow_square_is_a_circle(self):
        c = from_facets("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        # Independent Fraction-arithmetic route first.
        assert brute_betti(c.facets) == (0, 0, 1)
        assert reduced_homology(c).betti == (0, 0, 1)

    def test_void_complex_has_minus_one_class(self):
        assert reduced_homology(VOID).betti == (1,)
        assert reduced_homology(EMPTY).betti == ()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_points_need_no_matrix(self, monkeypatch, n):
        # n points: d_0 sends each to the empty face and has rank 1, so
        # H~_0 = Q^(n-1) and nothing else.  Both inputs are named without
        # a boundary rank; the Fraction-arithmetic route is independent.
        points = from_facets("abcde"[:n], [(v,) for v in "abcde"[:n]])
        assert brute_betti(points.facets) == (0, n - 1)
        monkeypatch.setattr(simplicial, "_betti", None)
        assert reduced_homology(points).betti == (0, n - 1)
        assert reduced_homology((0,) + tuple(1 << i for i in range(n))).betti == (0, n - 1)

    def test_betti_dict_keys(self):
        profile = reduced_homology(VOID)
        assert profile.as_dict() == {"-1": 1}

    def test_agrees_with_fraction_oracle_on_random_complexes(self):
        rng = random.Random(17)
        verts = "abcdef"
        for _ in range(80):
            k = rng.randint(1, 5)
            family = set()
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(0, k)
                family.add(frozenset(rng.sample(verts[:k], size)))
            c = from_facets(verts[:k], family)
            assert reduced_homology(c).betti == brute_betti(c.facets)

    @given(st.lists(st.integers(0, 1), min_size=12, max_size=30))
    @settings(max_examples=120)
    def test_exact_rank_equals_fraction_rank(self, flat):
        cols = 4
        rows = [flat[i:i + cols] for i in range(0, len(flat) - cols + 1, cols)]
        signed = [[v if (i + j) % 2 else -v for j, v in enumerate(row)]
                  for i, row in enumerate(rows)]
        columns = [{i: row[j] for i, row in enumerate(signed) if row[j]}
                   for j in range(cols)]
        assert simplicial._exact_rank(columns) == fraction_rank(signed)

    @pytest.mark.parametrize("routine, complex_", [
        ("_gf2_boundary_rank", from_facets("abc", [("a", "b", "c")])),
        ("_boundary_rank", RP2),
    ])
    def test_overcounted_rank_is_caught(self, monkeypatch, routine, complex_):
        # Betti numbers are face counts minus ranks, so their alternating
        # sum matches the faces whatever the ranks; a rank one too high
        # shows as a negative Betti number.
        real = getattr(simplicial, routine)
        monkeypatch.setattr(simplicial, routine,
                            lambda lower, upper: real(lower, upper) + 1)
        with pytest.raises(ConsistencyError, match="negative Betti"):
            reduced_homology(complex_)

    def test_torsion_takes_the_integer_route(self, monkeypatch):
        real, calls = simplicial._exact_rank, []

        def counting(columns):
            calls.append(len(columns))
            return real(columns)

        monkeypatch.setattr(simplicial, "_exact_rank", counting)
        circle = from_facets("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert reduced_homology(circle).betti == (0, 0, 1)
        assert calls == []
        assert reduced_homology(RP2).betti == (0, 0, 0, 0)
        assert calls

    def test_projective_plane_over_q(self):
        assert reduced_homology(RP2).betti == (0, 0, 0, 0) == brute_betti(RP2.facets)
        assert is_cohen_macaulay(RP2)

    def test_euler_characteristic_matches_homology(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_bipartite(rng, max_side=3)
            c = independence_complex(g)
            betti = reduced_homology(c).betti
            lhs = reduced_euler_characteristic(c)
            rhs = sum((-1) ** (k - 1) * b for k, b in enumerate(betti))
            assert lhs == rhs


class TestCohenMacaulay:
    def test_simplex_is_cm(self):
        assert is_cohen_macaulay(from_facets("abc", [("a", "b", "c")]))

    def test_k22_complex_is_not_cm(self):
        assert not is_cohen_macaulay(independence_complex(complete(2)))

    def test_path_complex_is_cm(self):
        assert is_cohen_macaulay(independence_complex(PATH))

    def test_void_and_empty_are_cm(self):
        assert is_cohen_macaulay(VOID)
        assert is_cohen_macaulay(EMPTY)
        # The empty complex has no faces: the scans find nothing failing.
        assert cm_codim(EMPTY) == 0
        assert all(is_cm_t(EMPTY, t) for t in range(-1, 3))

    def test_cm_t_on_k22(self):
        ind = independence_complex(complete(2))
        assert is_cm_t(ind, 1)
        assert not is_cm_t(ind, 0)

    def test_negative_t_means_zero(self):
        ind = independence_complex(PATH)
        assert is_cm_t(ind, -3) == is_cm_t(ind, 0) is True
        k22 = independence_complex(complete(2))
        assert is_cm_t(k22, -1) == is_cm_t(k22, 0) is False

    def test_pure_complex_is_cm_at_its_dimension(self):
        rng = random.Random(29)
        for _ in range(60):
            g = random_bipartite(rng, max_side=3)
            c = independence_complex(g)
            if is_pure(c):
                assert is_cm_t(c, dim(c))

    def test_two_block_graph_is_cm3_not_cm2(self):
        two_blocks = parse_graph(
            "L: x11 x12 x21 x22\nR: y11 y12 y21 y22\n"
            "E: x11-y11 x11-y12 x12-y11 x12-y12\n"
            "E: x21-y21 x21-y22 x22-y21 x22-y22\n")
        ind = independence_complex(two_blocks)
        assert is_cm_t(ind, 3)
        assert not is_cm_t(ind, 2)

    def test_non_pure_never_cm_t(self):
        c = from_facets("abc", [("a",), ("b", "c")])
        assert not is_cm_t(c, 0) and not is_cm_t(c, 5)


class TestCodim:
    def test_complete_blocks_have_codim_one(self):
        for n in range(2, 6):
            assert cm_codim(independence_complex(complete(n))) == 1

    def test_simplex_codim_zero(self):
        assert cm_codim(from_facets("ab", [("a", "b")])) == 0

    def test_non_pure_codim_absent(self):
        assert cm_codim(from_facets("abc", [("a",), ("b", "c")])) is None
        assert cm_codim_recursive(from_facets("abc", [("a",), ("b", "c")])) is None

    def test_codim_is_least_passing_t(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_bipartite(rng, max_side=3)
            c = independence_complex(g)
            t = cm_codim(c)
            if t is None:
                continue
            assert is_cm_t(c, t)
            if t > 0:
                assert not is_cm_t(c, t - 1)

    def test_definitional_equals_recursive(self):
        rng = random.Random(37)
        pool = [independence_complex(random_bipartite(rng, max_side=3))
                for _ in range(60)]
        pool += [VOID, EMPTY, from_facets("abcd", [("a", "b"), ("b", "c"),
                                                   ("c", "d"), ("d", "a")])]
        for c in pool:
            assert cm_codim(c) == cm_codim_recursive(c)


    def test_projective_plane_inside_a_link(self):
        # lk{a} of the suspension is RP2.  Taking mod-2 Betti numbers as
        # rational ones would make that link fail and give codimension 2.
        suspension = join(RP2, from_facets("ab", [("a",), ("b",)]))
        assert cm_codim(suspension) == cm_codim_recursive(suspension) == 0

    def test_every_unmixed_graph_up_to_four_pairs(self):
        checked = 0
        for d in range(1, 5):
            for g in enumerate_unmixed(d):
                c = independence_complex(g)
                assert cm_codim(c) == cm_codim_recursive(c)
                assert reduced_homology(c).betti == brute_betti(c.facets)
                checked += 1
        assert checked == 1 + 3 + 7 + 24

    def test_one_homology_per_distinct_link(self, monkeypatch):
        chain = BipartiteGraph.of([f"x{i}" for i in range(4)], [f"y{i}" for i in range(4)],
                                  [(f"x{i}", f"y{j}") for i in range(4) for j in range(i, 4)])
        real, seen = simplicial.reduced_homology, []

        def counting(c):
            seen.append(c.facets)
            return real(c)

        monkeypatch.setattr(simplicial, "reduced_homology", counting)
        assert cm_codim(independence_complex(chain)) == 0
        assert seen and len(seen) == len(set(seen))

    def test_relaxations_compute_each_distinct_link_once(self, monkeypatch):
        # is_cm_t scans the link of every face, and each scan meets the
        # links of larger faces again; one table per call takes each once.
        d = 5
        chain = BipartiteGraph.of([f"x{i}" for i in range(d)], [f"y{i}" for i in range(d)],
                                  [(f"x{i}", f"y{j}") for i in range(d) for j in range(i, d)])
        c = independence_complex(chain)
        real, seen = simplicial.reduced_homology, []

        def counting(sub):
            seen.append(sub.facets)
            return real(sub)

        monkeypatch.setattr(simplicial, "reduced_homology", counting)
        assert is_cm_t(c, 0)
        assert len(seen) == len(set(seen)) == 84
        seen.clear()
        assert cm_codim_recursive(c) == 0
        assert seen and len(seen) == len(set(seen))

    def test_nothing_outlives_a_call(self):
        g = parse_graph("L: a1 a2 b1 b2\nR: c1 c2 d1 d2\n"
                        "E: a1-c1 a1-c2 a2-c1 a2-c2 b1-d1 b1-d2 b2-d1 b2-d2\n")
        c = independence_complex(g)
        assert classify(g).t_sharp == 3
        assert cm_codim(c) == cm_codim_recursive(c) == 3
        assert is_cm_t(c, 3) and not is_cm_t(c, 2)
        refs = [weakref.ref(g), weakref.ref(c)]
        del g, c
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestJoinCodim:
    def _pool(self, verts):
        return [c for c in all_complexes(verts) if c.facets]

    def test_join_cm_iff_both_cm(self):
        small = self._pool("ab")
        bigger = self._pool("cde")
        for a in small:
            for b in bigger:
                assert is_cohen_macaulay(join(a, b)) == (
                    is_cohen_macaulay(a) and is_cohen_macaulay(b))

    def test_join_with_strict_part_is_sharp(self):
        # CM side of dimension d-1 joined with a strictly positive codimension
        # side lands at exactly d + codim(other side).
        cm_pool = [c for c in self._pool("abc") if is_cohen_macaulay(c)]
        strict_pool = [c for c in self._pool("wxyz")
                       if is_pure(c) and (cm_codim(c) or 0) >= 1]
        assert cm_pool and strict_pool
        for a in cm_pool:
            d = dim(a) + 1
            for b in strict_pool:
                assert cm_codim(join(a, b)) == d + cm_codim(b)

    def test_join_of_two_strict_parts_bounded(self):
        # Smallest pure complex of positive codimension has four vertices
        # (two disjoint edges), so both pools need a 4-vertex universe.
        strict_small = [c for c in self._pool("abcd")
                        if is_pure(c) and (cm_codim(c) or 0) >= 1]
        strict_big = [c for c in self._pool("wxyz")
                      if is_pure(c) and (cm_codim(c) or 0) >= 1]
        checked = 0
        for a in strict_small:
            d_a, r_a = dim(a) + 1, cm_codim(a)
            for b in strict_big:
                d_b, r_b = dim(b) + 1, cm_codim(b)
                t = cm_codim(join(a, b))
                bound = max(d_a + r_b, d_b + r_a)
                assert t is not None and t == bound
                assert r_a <= t - d_b
                assert r_b <= t - d_a
                checked += 1
        assert checked > 0


def every_graph_with_sides_up_to(k):
    """Every bipartite graph with at most k vertices a side, empty sides included."""
    for p, q in itertools.product(range(k + 1), repeat=2):
        left, right = [f"x{i}" for i in range(p)], [f"y{j}" for j in range(q)]
        cells = list(itertools.product(left, right))
        for mask in range(1 << len(cells)):
            yield BipartiteGraph.of(left, right, [e for bit, e in enumerate(cells)
                                                  if mask >> bit & 1])


def chain(d):
    """The Cohen-Macaulay chain on d pairs: x_i y_j for i <= j."""
    left, right = [f"x{i}" for i in range(d)], [f"y{i}" for i in range(d)]
    return BipartiteGraph.of(left, right, [(left[i], right[j])
                                           for i in range(d) for j in range(i, d)])


def crown(n):
    """K_{n,n} minus a perfect matching: Ind is a wedge of n - 1 circles."""
    left, right = [f"x{i}" for i in range(n)], [f"y{i}" for i in range(n)]
    return BipartiteGraph.of(left, right, [(left[i], right[j])
                                           for i in range(n) for j in range(n) if i != j])


def even_cycle(m):
    """The cycle on 2m vertices x0 y0 x1 y1 ... x{m-1} y{m-1}."""
    left, right = [f"x{i}" for i in range(m)], [f"y{i}" for i in range(m)]
    return BipartiteGraph.of(left, right, [(left[i], right[i]) for i in range(m)]
                             + [(left[(i + 1) % m], right[i]) for i in range(m)])


def independent_sets(nbrs, allowed):
    """Every independent set inside `allowed`, as a bitmask, by a plain walk.

    Bit i is vertex i and nbrs[i] its neighbourhood.  The walk branches on
    the lowest allowed vertex, left out or taken with its closed
    neighbourhood removed, so each independent set is one leaf.  It knows
    nothing of twins, tags or the oracle guard.
    """
    out, stack = [], [(allowed, 0)]
    while stack:
        allowed, taken = stack.pop()
        while allowed:
            lowest = allowed & -allowed
            stack.append((allowed & ~nbrs[lowest.bit_length() - 1] & ~lowest, taken | lowest))
            allowed ^= lowest
        out.append(taken)
    return out


def check_link_betti(g, masks):
    """`_link_betti` on each vertex mask W against `reduced_homology` of G[W]'s faces.

    The faces are listed by `independent_sets`, not by the oracle's walk.
    Cones, folds, components and joins must give the matrices' Betti
    numbers with their trailing zeros dropped.  Returns how many masks
    were checked.
    """
    nbrs = simplicial._masks(g)
    checked = 0
    for w in masks:
        expected = reduced_homology(tuple(independent_sets(nbrs, w))).betti
        betti = simplicial._link_betti(nbrs, w, {})
        assert not betti or betti[-1], (g, w, betti)
        assert betti + (0,) * (len(expected) - len(betti)) == expected, (g, w)
        checked += 1
    return checked


def former_link_betti(nbrs, rest, known, walked=None):
    """The link rules before a fold could return its cone: a copy of the former `_link_betti`.

    Kept as the reference for the early cone, the trim and the shift:
    the fold loop finishes each pass before it meets a vertex that a fold
    left isolated, every component's profile is trimmed by `max`, and
    every join, S^0 included, goes through `_join_betti`.
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
            first = inside & -inside
            others = nbrs[first.bit_length() - 1] & kept & ~low
            while others:
                w = others & -others
                others ^= w
                if not inside & ~nbrs[w.bit_length() - 1]:
                    kept ^= w
                    folding = True
    betti = (1,)
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
        if part not in known:
            if part.bit_count() == 2:
                low = part & -part
                faces = (0, part ^ low, low)
            else:
                sets = walked if part == rest and walked is not None else simplicial._walk(nbrs, part)
                faces = tuple([face & part for face, _ in sets])
            profile = simplicial.reduced_homology(faces).betti
            top = max((s for s, b in enumerate(profile) if b), default=-1)
            known[part] = profile[:top + 1]
        if not known[part]:
            return ()
        betti = simplicial._join_betti(betti, known[part])
    return betti


def check_link_betti_against_former(g, masks):
    """`_link_betti` against `former_link_betti` on each vertex mask, in order, one table a side.

    As in the sweep, each side keeps one `known` table across the masks,
    and the mask of every representative of the whole walk is handed
    that walk.  Each mask must give the same profile and leave the tables
    the same size, and at the end they must hold the same keys and
    values: a component goes to `reduced_homology` exactly when it is not
    yet in the table, so the two sides make the same calls on the same
    faces.  Returns how many masks were checked.
    """
    nbrs = simplicial._masks(g)
    sets = simplicial._walk(nbrs, (1 << len(nbrs)) - 1)
    reps = sets[0][1]
    known, former = {}, {}
    checked = 0
    for w in masks:
        walked = sets if w == reps else None
        assert simplicial._link_betti(nbrs, w, known, walked) == \
            former_link_betti(nbrs, w, former, walked), (g, w)
        assert len(known) == len(former), (g, w)
        checked += 1
    assert known == former, g
    return checked


def isolated_in(g, mask):
    """The vertices of `mask` with no neighbour in it (bit i is g.vertices[i]), from `g.edges`."""
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    covered = 0
    for x, y in g.edges:
        edge = bit[x] | bit[y]
        if edge & mask == edge:
            covered |= edge
    return mask & ~covered


def check_cone_tags(g, sample=None, rng=None):
    """The oracle walk's listing against the vertices isolated in G[free].

    On a graph with a pure order the tag is complete (`_walk`), so the
    walk lists a set of whole twin classes exactly when G[free] has no
    isolated vertex.  Every such set comes from `former_walk`; with
    `sample`, a seeded sample of that many from `rng` is checked.
    Returns how many sets were checked.
    """
    nbrs = simplicial._masks(g)
    everything = (1 << len(g.vertices)) - 1
    sets = former_walk(nbrs, everything)
    listed = set(simplicial._walk(nbrs, everything))
    assert listed <= {(taken, free) for taken, free, _ in sets}, g
    if sample is not None and len(sets) > sample:
        sets = rng.sample(sets, sample)
    for taken, free, _ in sets:
        assert ((taken, free) in listed) == (not isolated_in(g, free)), (g, taken, free)
    return len(sets)


class TestOracleSweep:
    """The graph-native sweep against the generic route on Ind(G)."""

    @staticmethod
    def check(g, subsets=None):
        ind = independence_complex(g)
        sweep = simplicial.oracle_sweep(g, homology=True)
        assert sweep.cm_codim == cm_codim(ind)
        assert sweep.homology == reduced_homology(ind)
        assert sweep.facet_count == len(ind.facets)
        assert sweep.dimension == dim(ind)
        assert sweep.pure == is_pure(ind)
        # Every link is Ind(G[W]) for a vertex mask W: every W, or a seeded
        # sample of them.
        n = len(g.vertices)
        masks = range(1 << n)
        if subsets is not None:
            masks = random.Random(n).sample(masks, min(subsets, len(masks)))
        check_link_betti(g, masks)

    def test_every_graph_with_sides_up_to_three(self):
        checked = 0
        for g in every_graph_with_sides_up_to(3):
            self.check(g)
            checked += 1
        assert checked == 689

    @pytest.mark.parametrize("side", [4, 5, 6, 7])
    def test_seeded_square_graphs(self, side):
        rng = random.Random(side)
        for _ in range(25 if side <= 5 else 3):
            left, right = [f"x{i}" for i in range(side)], [f"y{j}" for j in range(side)]
            self.check(BipartiteGraph.of(left, right, [(x, y) for x in left for y in right
                                                       if rng.random() < 0.5]),
                       None if side == 4 else 200)

    def test_crowns_and_even_cycles(self):
        for n in range(3, 7):
            self.check(crown(n))
        for m in range(3, 7):
            self.check(even_cycle(m))

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_every_cmt_instance(self, t):
        for fam in enumerate_sharp_cmt(t):
            for g in fam.graphs:
                self.check(g, None if len(g.vertices) <= 10 else 64)

    def test_twin_blow_ups(self):
        # Random bases up to 5x5, each vertex made 1-3 twins, isolated
        # twins included.  The generic route lists every face and its
        # star, so only blow-ups with at most 4,000 faces are checked.
        rng, checked, isolated = random.Random(20), 0, 0
        while checked < 60:
            g = twin_blow_up(rng)
            if independent_set_count(g) > 4000:
                continue
            self.check(g, None if len(g.vertices) <= 10 else 64)
            checked += 1
            isolated += bool(g.isolated_vertices())
        assert isolated

    def test_figures_and_every_unmixed_graph_up_to_four_pairs(self):
        for name in BUILTIN_NAMES:
            self.check(builtin_graph(name))
        for d in range(1, 5):
            for g in enumerate_unmixed(d):
                self.check(g)

    def test_link_rules_match_the_former_code_on_unmixed_graphs(self):
        # Every induced subgraph of the unmixed graphs with d <= 4.
        assert sum(check_link_betti_against_former(g, range(1 << 2 * d))
                   for d in range(1, 5) for g in enumerate_unmixed(d)) == 6644

    def test_link_rules_match_the_former_code_on_poset_graphs(self):
        # Seeded 7-point poset graphs, the shape of the oracle_large
        # benchmark: the sweep's own link keys in its scan order (largest
        # face first, walk order within a size), then 256 seeded masks.
        rng = random.Random(7)
        for _ in range(60):
            g = relation_graph(seeded_poset(rng, 7, rng.uniform(0.5, 0.7)), 7)
            sets = simplicial._walk(simplicial._masks(g), (1 << 14) - 1)
            keys = [free for _, free in sorted(sets, key=lambda s: -s[0].bit_count()) if free]
            check_link_betti_against_former(g, keys + rng.sample(range(1 << 14), 256))

    def test_link_rules_match_the_former_code_on_crowns_and_even_cycles(self):
        for g in [crown(n) for n in range(3, 7)] + [even_cycle(m) for m in range(3, 7)]:
            check_link_betti_against_former(g, range(1 << len(g.vertices)))

    def test_cone_tags_are_the_isolated_vertices(self):
        # Every unmixed graph has a pure order, so the walk's tag is
        # complete: it lists a set exactly when G[free] has no isolated
        # vertex.
        assert [sum(check_cone_tags(g) for g in enumerate_unmixed(d))
                for d in range(1, 5)] == [3, 20, 113, 925]

    def test_guard_before_any_homology(self, monkeypatch):
        def refuse(c):
            raise AssertionError("homology computed past the guard")

        # K_{3,3} has 2 * 2^3 - 1 faces, one past this limit.
        monkeypatch.setattr(simplicial, "ORACLE_FACE_LIMIT", 2 * 2 ** 3 - 2)
        monkeypatch.setattr(simplicial, "reduced_homology", refuse)
        with pytest.raises(ValueError, match="oracle guard"):
            simplicial.oracle_sweep(complete(3), homology=True)

    def test_two_degrees_take_the_exact_route(self, monkeypatch, capsys, tmp_path):
        # Reduced Betti numbers (0, 0, 1, 1, 0): mod 2 they are non-zero in
        # two degrees, where torsion could hide, so the exact ranks decide.
        doc = ("L: x0 x1 x2 x3\nR: y0 y1 y2 y3\n"
               "E: x0-y0 x0-y2 x1-y0 x1-y1 x1-y3 x2-y1 x2-y2 x3-y2 x3-y3\n")
        ind = independence_complex(parse_graph(doc))
        generic = reduced_homology(ind)
        assert generic.betti == (0, 0, 1, 1, 0) == brute_betti(ind.facets)
        real, calls = simplicial._exact_rank, []

        def counting(columns):
            calls.append(len(columns))
            return real(columns)

        monkeypatch.setattr(simplicial, "_exact_rank", counting)
        path = tmp_path / "g.graph"
        path.write_text(doc)
        assert main(["oracle", str(path)]) == 0
        assert calls
        assert json.loads(capsys.readouterr().out)["result"]["betti"] == generic.as_dict()

    def test_whole_complex_reuses_the_sweeps_walk(self, monkeypatch):
        # Small connected fold-free graphs, K_{4,4} minus a perfect matching,
        # C_8 and C_10, alone and with every vertex doubled: the whole
        # complex is walked once, by the sweep, and its faces cut back to
        # the representatives give the homology of the plain walk's faces.
        walk, walks = simplicial._walk, []

        def counting_walk(nbrs, allowed):
            walks.append(allowed)
            return walk(nbrs, allowed)

        monkeypatch.setattr(simplicial, "_walk", counting_walk)
        for g in (crown(4), even_cycle(4), even_cycle(5)):
            doubled = BipartiteGraph.of(
                [f"{v}_{a}" for v in g.left for a in (0, 1)],
                [f"{v}_{a}" for v in g.right for a in (0, 1)],
                [(f"{x}_{a}", f"{y}_{b}") for x, y in g.edges for a in (0, 1) for b in (0, 1)])
            for h in (g, doubled):
                nbrs = simplicial._masks(h)
                expected = reduced_homology(tuple(independent_sets(nbrs, (1 << len(nbrs)) - 1)))
                del walks[:]
                assert simplicial.oracle_sweep(h, homology=True).homology == expected, h
                assert len(walks) == 1, h

    def test_fold_free_graphs_reach_the_matrices(self, monkeypatch):
        # Crowns and even cycles have no fold and are connected, so the
        # whole complex goes to `reduced_homology`, on the oracle walk's
        # faces.  Ind(crown n) is a wedge of n - 1 circles; Ind(C_{2m}) is
        # S^{k-1} v S^{k-1} for 2m = 3k and S^{k-1} for 2m = 3k +- 1
        # (Kozlov, J. Combin. Theory Ser. A 1999).
        real, seen = simplicial.reduced_homology, []
        walk, walks = simplicial._walk, []

        def counting(c):
            seen.append(c)
            return real(c)

        def counting_walk(nbrs, allowed):
            sets = walk(nbrs, allowed)
            walks.append(len(sets))
            return sets

        monkeypatch.setattr(simplicial, "reduced_homology", counting)
        monkeypatch.setattr(simplicial, "_walk", counting_walk)
        # The crown's independent sets: the empty one, the non-empty
        # subsets of either side, and the n pairs x_i y_i.
        for n in range(3, 7):
            del seen[:], walks[:]
            betti = simplicial.oracle_sweep(crown(n), homology=True).homology.betti
            assert len(seen) == 1 and walks == [2 ** (n + 1) - 1 + n]
            assert betti == (0, 0, n - 1) + (0,) * (n - 2)
        # With every vertex doubled the twins fold away, leaving the crown
        # on the representatives: its 133 sets are walked once, under the
        # guard, and the whole complex reuses them.
        g = crown(6)
        doubled = BipartiteGraph.of(
            [f"{v}_{a}" for v in g.left for a in (0, 1)],
            [f"{v}_{a}" for v in g.right for a in (0, 1)],
            [(f"{x}_{a}", f"{y}_{b}") for x, y in g.edges for a in (0, 1) for b in (0, 1)])
        del seen[:], walks[:]
        sweep = simplicial.oracle_sweep(doubled, homology=True)
        assert len(seen) == 1 and walks == [133]
        assert not sweep.pure
        assert {s - 1: b for s, b in enumerate(sweep.homology.betti) if b} == {1: 5}
        for m in range(3, 7):
            del seen[:], walks[:]
            betti = simplicial.oracle_sweep(even_cycle(m), homology=True).homology.betti
            assert len(seen) == len(walks) == 1
            k = round(2 * m / 3)
            assert {s - 1: b for s, b in enumerate(betti) if b} == \
                {k - 1: 2 if 2 * m == 3 * k else 1}

    def test_hochster_regularity_is_the_induced_matching_number(self):
        # Hochster: reg R/I(G) is the largest k + 1 with H~_k(Ind(G[W]))
        # non-zero over all W, the empty W giving 0.  For unmixed bipartite
        # graphs it is the induced matching number (Kummini, J. Algebraic
        # Combin. 2009), which conftest finds by brute force.
        for d in range(1, 5):
            for g in enumerate_unmixed(d):
                nbrs, known = simplicial._masks(g), {}
                regularity = max(len(b) - 1 for w in range(1 << len(nbrs))
                                 if (b := simplicial._link_betti(nbrs, w, known)))
                assert regularity == induced_matching_number(g), g
