"""Canonical codes and the three enumerators, cross-checked two ways.

Counts asserted here were derived independently before freezing:

* CM graphs of dimension h correspond to posets on h+1 points up to the
  duality that swapping the two sides induces.  Poset counts 1, 2, 5, 16
  (h+1 = 1..4) collapse to 1, 2, 4, 12 isomorphism classes of graphs.
  Two routes that share no code with the enumerator confirm this: the
  homology filter over every matched graph, and a from-scratch poset
  count with (P + SD) / 2 classes.
* Unmixed graphs on d pairs: 1, 3, 7, 24 for d = 1..4, confirmed below by
  a from-scratch generate-and-filter route, and 1, 3, 7, 24, 84 (408 at
  d = 6, in CI) by counting compositions of d under each base poset's
  automorphisms and anti-automorphisms.
* The 35 five-pair families of sharp codimension 4 are confirmed by a
  third route: every preorder on 5 points, filtered by the oracle.
* Sharp codimension-t families follow from the expansion calculus: a base
  of dimension h < t-1 contributes finitely many multiplicity vectors, a
  base of dimension t-1 contributes one parametric family per orbit of
  matched pairs under graph automorphisms.
"""

import hashlib
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cmtgraphs import (
    BipartiteGraph,
    Expansion,
    PureOrder,
    builtin_graph,
    canonical_form,
    classify,
    cm_codim,
    connected_components,
    contract,
    enumerate_cm,
    enumerate_sharp_cmt,
    enumerate_unmixed,
    expand,
    independence_complex,
    is_cohen_macaulay,
    is_connected,
    is_pure,
    is_pure_order,
    is_unmixed,
    parse_graph,
    to_document,
    write_enumeration,
)
from cmtgraphs import bigraph, enumeration, simplicial
from conftest import (
    complete,
    count_iso_classes,
    graph,
    graphs_isomorphic,
    poset_counts,
    preorders,
    random_bipartite,
    relabeled_copy,
    relabelling_orbits,
    relation_graph,
    sharp_cmt_orbit_counts,
    twin_blow_up,
    unmixed_class_counts,
)
from test_simplicial import chain, crown, even_cycle

PATH = parse_graph("L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y2\n")
TWO_EDGES = parse_graph("L: x1 x2\nR: y1 y2\nE: x1-y1 x2-y2\n")


def index_graphs(d):
    """Every graph on d diagonal-matched pairs, the test's own generator."""
    optional = [(i, j) for i in range(d) for j in range(d) if i != j]
    for mask in itertools.product((False, True), repeat=len(optional)):
        edges = {(f"x{i + 1}", f"y{i + 1}") for i in range(d)}
        edges.update((f"x{i + 1}", f"y{j + 1}")
                     for (i, j), on in zip(optional, mask) if on)
        yield BipartiteGraph.of([f"x{i + 1}" for i in range(d)],
                                [f"y{i + 1}" for i in range(d)], edges)


def antisymmetric_transitive(d):
    """The former `enumerate_cm` walk: none, (i, j) or (j, i) per slot i < j."""
    slots = list(itertools.combinations(range(d), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(slots)):
        relation = {(i, i) for i in range(d)}
        for (i, j), kind in zip(slots, choice):
            if kind == 1:
                relation.add((i, j))
            elif kind == 2:
                relation.add((j, i))
        if not any((a, c) not in relation
                   for a, b in relation for b2, c in relation if b == b2):
            yield relation


def former_subset_walk(d, pairs):
    """The former `_classes` walk: each subset of `pairs` with the diagonal, kept when transitive.

    `pairs` was every off-diagonal pair for `enumerate_unmixed` and the
    pairs i < j for `enumerate_cm`; each kept relation is given by its
    off-diagonal pairs.
    """
    diagonal = {(i, i) for i in range(d)}
    for mask in itertools.product((False, True), repeat=len(pairs)):
        relation = diagonal | set(itertools.compress(pairs, mask))
        if bigraph._transitive([sum(1 << j for a, j in relation if a == i) for i in range(d)]):
            yield frozenset(relation - diagonal)


def pair_bits(d):
    """A key bit for each off-diagonal pair of range(d), row by row."""
    return {p: 1 << n for n, p in enumerate((i, j) for i in range(d) for j in range(d) if i != j)}


def walk(d, upward):
    """`_relations`' keys, each decoded into its relation's off-diagonal pairs."""
    bit = pair_bits(d)
    return [frozenset(p for p, b in bit.items() if key & b)
            for key in enumeration._relations(d, bit, upward)]


def check_walk_against_subsets(d, upward):
    """`_relations` makes each relation of the former subset walk once, and no other.

    Returns the number of relations made.
    """
    pairs = [(i, j) for i in range(d) for j in range(d) if (i < j if upward else i != j)]
    made = walk(d, upward)
    assert len(made) == len(set(made))
    assert set(made) == set(former_subset_walk(d, pairs))
    return len(made)


def former_orbit(d, pairs, flat):
    """The former `_orbit`: every permutation's image and dual bits, ORed pair by pair.

    `flat[i * d + j]` is the bit of the pair (i, j), 0 on the diagonal.
    """
    orbit = set()
    for s in itertools.permutations(range(d)):
        code = dual = 0
        for i, j in pairs:
            code |= flat[s[i] * d + s[j]]
            dual |= flat[s[j] * d + s[i]]
        orbit.add(code)
        orbit.add(dual)
    return orbit


def former_closed(s, masks):
    """The former `_closed`: whether the set `s` holds `masks[a]` for each of its points a."""
    return all(not masks[a] & ~s for a in range(len(masks)) if s >> a & 1)


def check_orbits_against_former(d, upward):
    """`_orbit` on `_lanes` equals the former per-permutation orbit on every relation walked.

    Returns the number of relations checked.
    """
    bit = pair_bits(d)
    flat = [bit.get((i, j), 0) for i in range(d) for j in range(d)]
    lanes, width = enumeration._lanes(d, bit)
    count = 0
    for key in enumeration._relations(d, bit, upward):
        pairs = [p for p, b in bit.items() if key & b]
        assert enumeration._orbit(key, lanes, width) == former_orbit(d, pairs, flat), pairs
        count += 1
    return count


def least_labelling(d, relation, order):
    """The former `_least_labelling`: the least vector over `order` among relabellings.

    Every permutation of the points is tried on the relation and on its
    dual, each read as a tuple of booleans over `order`.
    """
    dual = {(j, i) for i, j in relation}
    return min(tuple((s[a], s[b]) in r for a, b in order)
               for r in (relation, dual) for s in itertools.permutations(range(d)))


def cm_order(d):
    """`enumerate_cm`'s order of the pairs: (j, i) then (i, j) for each slot i < j."""
    return [p for i, j in itertools.combinations(range(d), 2) for p in ((j, i), (i, j))]


def unmixed_order(d):
    """`enumerate_unmixed`'s order of the pairs: every off-diagonal (i, j), row by row."""
    return [(i, j) for i in range(d) for j in range(d) if i != j]


def first_of_each_class(graphs, d, order):
    """The former dedupe: the first graph met in each class, by least labelling over `order`.

    The graphs are index graphs on d pairs; each class is ordered by the
    `least_labelling` of the relation its first graph was built from.
    """
    found = {}
    for g in graphs:
        found.setdefault(canonical_form(g), g)

    def labelling(g):
        relation = {(a, b) for a in range(d) for b in range(d)
                    if f"y{b + 1}" in g.neighbors(f"x{a + 1}")}
        return least_labelling(d, relation, order)

    return sorted(found.values(), key=labelling)


def upward_posets(d):
    """Every transitive relation on range(d) relating only i <= j, the diagonal included."""
    slots = list(itertools.combinations(range(d), 2))
    for mask in itertools.product((False, True), repeat=len(slots)):
        relation = {(i, i) for i in range(d)} | set(itertools.compress(slots, mask))
        if all((a, c) in relation for a, b in relation for b2, c in relation if b == b2):
            yield relation


def recorded_labellings(graphs, order):
    """The vector over `order` of each index graph's relation (x_i y_j for related i, j)."""
    return {tuple(f"x{a + 1}" in g.neighbors(f"y{b + 1}") for a, b in order)
            for g in graphs}


def brute_force_code(g):
    """The former `canonical_form`: every permutation of each component's lefts.

    Each component's rights become columns masked by the permuted lefts;
    the code is the lesser of the sorted component codes of g and of its
    side-swapped copy.
    """
    def component_code(h, comp):
        lefts = tuple(v for v in h.left if v in comp)
        rights = tuple(v for v in h.right if v in comp)
        columns = {y: [x for x in lefts if (x, y) in h.edges] for y in rights}
        best = None
        for sigma in itertools.permutations(lefts):
            position = {x: i for i, x in enumerate(sigma)}
            cols = tuple(sorted(sum(1 << position[x] for x in columns[y])
                                for y in rights))
            if best is None or cols < best:
                best = cols
        return (len(lefts), len(rights), best)

    def oriented_code(h):
        return tuple(sorted(component_code(h, comp) for comp in connected_components(h)))

    swapped = BipartiteGraph.of(g.right, g.left, ((y, x) for x, y in g.edges))
    return min(oriented_code(g), oriented_code(swapped))


def arrangement_walk_code(g):
    """The former `canonical_form`: every distinct row arrangement walked to its leaf.

    `component_code` is the former `_component_code`, which laid the
    arrangements of the rows out one position at a time, one twin class
    per position, and took the least sorted column-mask tuple over every
    leaf, with no bound and no cut.
    """
    def component_code(rows, columns):
        distinct = list(dict.fromkeys(rows))
        unplaced = [rows.count(row) for row in distinct]
        where = {y: c for c, y in enumerate(columns)}
        hits = [[where[y] for y in row] for row in distinct]
        best = None

        def place(i, masks):
            nonlocal best
            if i == len(rows):
                code = tuple(sorted(masks))
                if best is None or code < best:
                    best = code
                return
            for k, n in enumerate(unplaced):
                if n:
                    unplaced[k] -= 1
                    grown = masks[:]
                    for c in hits[k]:
                        grown[c] |= 1 << i
                    place(i + 1, grown)
                    unplaced[k] += 1

        place(0, [0] * len(columns))
        return (len(rows), len(columns), best)

    sides = [([v for v in g.left if v in comp], [v for v in g.right if v in comp])
             for comp in connected_components(g)]
    straight = sorted(component_code([g.neighbors(x) for x in xs], ys) for xs, ys in sides)
    swapped = sorted(component_code([g.neighbors(y) for y in ys], xs) for xs, ys in sides)
    return min(tuple(straight), tuple(swapped))


def seeded_graphs(rng, count, low, high):
    """Seeded graphs with low to high vertices on each side, each relabelled at random.

    `count` each of random graphs, `twin_heavy_graphs` and twin blow-ups
    (`conftest.twin_blow_up`), then the crowns, even cycles and chains on
    low and high pairs, whose rows are all distinct.
    """
    def fits(g):
        return all(low <= len(side) <= high for side in (g.left, g.right))

    graphs = []
    for _ in range(count):
        left = [f"x{i}" for i in range(rng.randint(low, high))]
        right = [f"y{j}" for j in range(rng.randint(low, high))]
        density = rng.uniform(0.2, 0.8)
        graphs.append(BipartiteGraph.of(left, right, [(x, y) for x in left for y in right
                                                      if rng.random() < density]))
    for kind in (lambda: next(twin_heavy_graphs(rng, 1, high)),
                 lambda: twin_blow_up(rng, max_side=high, max_class=2)):
        made = 0
        while made < count:
            g = kind()
            if fits(g):
                graphs.append(g)
                made += 1
    graphs += [make(n) for n in (low, high) for make in (crown, even_cycle, chain)]
    return [relabeled_copy(g, rng) for g in graphs]


def every_small_graph(max_side):
    for a, b in itertools.product(range(max_side + 1), repeat=2):
        left, right = [f"x{i}" for i in range(a)], [f"y{j}" for j in range(b)]
        pairs = list(itertools.product(left, right))
        for mask in itertools.product((False, True), repeat=len(pairs)):
            yield BipartiteGraph.of(left, right, itertools.compress(pairs, mask))


def twin_heavy_graphs(rng, count, max_side):
    """Graphs whose lefts share a few neighbourhoods, so twins abound on both sides."""
    for _ in range(count):
        left = [f"x{i}" for i in range(rng.randint(1, max_side))]
        right = [f"y{j}" for j in range(rng.randint(1, max_side))]
        rows = [[y for y in right if rng.random() < 0.5] for _ in range(rng.randint(1, 3))]
        yield BipartiteGraph.of(left, right, [(x, y) for x in left for y in rng.choice(rows)])


def iso_distinct(graphs):
    reps = []
    for g in graphs:
        if not any(graphs_isomorphic(g, h) for h in reps):
            reps.append(g)
    return reps


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(3)
        samples = [PATH, TWO_EDGES, complete(2), complete(3),
                   builtin_graph("fig1"), builtin_graph("fig3")]
        for _ in range(200):
            g = samples[rng.randrange(len(samples))]
            assert canonical_form(relabeled_copy(g, rng)) == canonical_form(g)

    @given(st.integers(0, 2 ** 16 - 1), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_relabeling_invariance_random_graphs(self, seed, rng):
        g = random_bipartite(random.Random(seed), max_side=3)
        assert canonical_form(relabeled_copy(g, rng)) == canonical_form(g)

    def test_side_swap_invariance(self):
        # The mirror image of PATH, left and right exchanged.
        swapped = parse_graph("L: c d\nR: a b\nE: c-a d-a d-b\n")
        assert canonical_form(swapped) == canonical_form(PATH)

    def test_distinguishes_the_two_dim1_graphs(self):
        assert canonical_form(TWO_EDGES) != canonical_form(complete(2))

    def test_guard_on_wide_graphs(self):
        wide = BipartiteGraph.of(
            [f"x{i}" for i in range(9)], [f"y{i}" for i in range(9)],
            [(f"x{i}", f"y{i}") for i in range(9)])
        with pytest.raises(ValueError, match="guard"):
            canonical_form(wide)

    @pytest.mark.parametrize("pool", ["small", "twins", "enumerators"])
    def test_distinct_arrangements_equal_brute_force(self, pool):
        # The search over distinct row arrangements against the former loop
        # over every permutation of the lefts, on both sides.
        if pool == "small":
            graphs = list(every_small_graph(3))
        elif pool == "twins":
            graphs = list(twin_heavy_graphs(random.Random(17), 200, 6))
        else:
            graphs = [g for d in range(5) for g in enumerate_cm(d)]
            graphs += [g for d in range(1, 5) for g in enumerate_unmixed(d)]
            graphs += [g for t in (2, 3, 4) for f in enumerate_sharp_cmt(t) for g in f.graphs]
        for g in graphs:
            assert canonical_form(g).code == brute_force_code(g), to_document(g)

    @pytest.mark.parametrize("pool", ["cmt5", "sides-5-6", "sides-7-8"])
    def test_branch_and_bound_equals_the_arrangement_walk(self, pool):
        # The cut search against the former walk of every distinct
        # arrangement to its leaf: every --cmt 5 instance, and seeded graphs
        # past the brute-force pools, where the bound cuts most (random and
        # chain rows) or nothing (crowns).  On a few percent of the random
        # graphs the first leaf reached is not the least code, so the pool
        # with sides 5-6 is large.
        if pool == "cmt5":
            graphs = [g for f in enumerate_sharp_cmt(5) for g in f.graphs]
            assert len(graphs) == 327
        elif pool == "sides-5-6":
            graphs = seeded_graphs(random.Random(56), 100, 5, 6)
        else:
            graphs = seeded_graphs(random.Random(24), 4, 7, 8)
        for g in graphs:
            assert canonical_form(g).code == arrangement_walk_code(g), to_document(g)

    def test_agrees_with_pairwise_oracle(self):
        rng = random.Random(41)
        pool = [random_bipartite(rng, max_side=3) for _ in range(40)]
        for g, h in itertools.combinations(pool, 2):
            same_code = canonical_form(g) == canonical_form(h)
            assert same_code == graphs_isomorphic(g, h)


class TestRelationWalk:
    """`_relations` against the former subset walk and a separately written generator."""

    @pytest.mark.parametrize("d, labelled", [(1, 1), (2, 4), (3, 29), (4, 355)])
    def test_preorders_equal_the_former_subset_walk(self, d, labelled):
        # Labelled preorders, OEIS A000798.
        assert check_walk_against_subsets(d, upward=False) == labelled

    @pytest.mark.parametrize("d, labelled", [(1, 1), (2, 2), (3, 7), (4, 40), (5, 357)])
    def test_upward_posets_equal_the_former_subset_walk(self, d, labelled):
        # Posets on range(d) with every relation i < j, OEIS A006455.
        assert check_walk_against_subsets(d, upward=True) == labelled

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_preorders_equal_conftest(self, d):
        diagonal = {(i, i) for i in range(d)}
        assert {pairs | diagonal for pairs in walk(d, upward=False)} == set(preorders(d))

    @pytest.mark.parametrize("d, upward, labelled",
                             [(1, False, 1), (2, False, 4), (3, False, 29), (4, False, 355),
                              (2, True, 2), (3, True, 7), (4, True, 40), (5, True, 357)])
    def test_lane_orbits_equal_the_former_orbit(self, d, upward, labelled):
        assert check_orbits_against_former(d, upward) == labelled

    def test_closed_sets_equal_the_former_scan(self, monkeypatch):
        # Every mask tuple the walk asks about, against the former scan of
        # every subset: each of the 35 preorders on 0-3 points asks for its
        # down-sets and up-sets, each of the 51 upward posets on 0-4 points
        # for its down-sets.
        real, met = enumeration._closed_sets, []

        def recording(masks):
            met.append(masks)
            return real(masks)

        monkeypatch.setattr(enumeration, "_closed_sets", recording)
        for d, upward in ((4, False), (5, True)):
            assert len(walk(d, upward)) == (357 if upward else 355)
        assert len(met) == 2 * 35 + 51
        for masks in met:
            assert real(masks) == [s for s in range(1 << len(masks)) if former_closed(s, masks)]

    def test_unmixed_classes_one_size_up(self):
        # The 84 unmixed graphs on five pairs, which the preorder route in
        # `test_t4_five_pair_families_against_preorder_route` also finds.
        graphs = enumerate_unmixed(5)
        assert len(graphs) == 84
        assert len({canonical_form(g) for g in graphs}) == 84
        assert all(is_unmixed(g) for g in graphs)

    def test_cm_classes_one_size_up(self):
        # The (318 + 50) / 2 = 184 Cohen-Macaulay graphs of dimension 5 (posets
        # on six points up to duality, OEIS A000112), which CI checks against
        # `conftest.poset_counts(6)`.
        graphs = enumerate_cm(5)
        assert len(graphs) == 184
        assert len({canonical_form(g) for g in graphs}) == 184
        for g in graphs:
            r = classify(g)
            assert r.cohen_macaulay and r.dimension == 5


class TestEnumerateCm:
    def test_counts(self):
        assert len(enumerate_cm(0)) == 1
        assert len(enumerate_cm(1)) == 2
        assert len(enumerate_cm(2)) == 4
        assert len(enumerate_cm(3)) == 12
        assert len(enumerate_cm(4)) == 39

    def test_small_dimensions_against_homology_filter(self):
        # Fully independent route: every matched graph, keep those whose
        # complex the homology oracle calls pure and CM, dedupe pairwise.
        # A CM bipartite graph has exactly one perfect matching, so the
        # survivors are the labelled posets on d points (OEIS A001035).
        labelled = [1, 3, 19, 219]
        for dimension in (0, 1, 2, 3):
            survivors = []
            for g in index_graphs(dimension + 1):
                ind = independence_complex(g)
                if is_pure(ind) and is_cohen_macaulay(ind):
                    survivors.append(g)
            assert len(survivors) == labelled[dimension]
            reps = iso_distinct(survivors)
            output = enumerate_cm(dimension)
            assert len(reps) == len(output)
            for g in output:
                assert any(graphs_isomorphic(g, h) for h in reps)

    def test_dimension_three_is_twelve(self):
        # Poset route, from scratch: CM graphs on d pairs are the posets on
        # d points (Herzog-Hibi), and swapping sides reverses the poset.
        # Burnside over that two-element group counts (P + SD) / 2 classes.
        posets, self_dual = poset_counts(4)
        assert (posets, self_dual) == (16, 8)
        output = enumerate_cm(3)
        assert (posets + self_dual) // 2 == len(output) == 12
        assert count_iso_classes(output) == 12
        for g in output:
            ind = independence_complex(g)
            assert is_cohen_macaulay(ind)
            assert classify(g).t_sharp == 0

    def test_poset_route_at_other_sizes(self):
        # Posets on 1, 2, 3 and 5 points (OEIS A000112) and their self-dual
        # ones.
        counts = [poset_counts(n) for n in (1, 2, 3, 5)]
        assert counts == [(1, 1), (2, 2), (5, 3), (63, 15)]
        for dimension, (posets, self_dual) in zip((0, 1, 2, 4), counts):
            assert (posets + self_dual) // 2 == len(enumerate_cm(dimension))

    def test_same_graphs_as_the_full_walk(self):
        # The former path: every antisymmetric transitive relation, the
        # first graph of each class kept.  The least labelling must pick
        # the same labelled graph, and the classes come by least labelling.
        for dimension in (0, 1, 2, 3):
            d = dimension + 1
            old = first_of_each_class((relation_graph(r, d)
                                       for r in antisymmetric_transitive(d)), d, cm_order(d))
            assert list(map(to_document, enumerate_cm(dimension))) == \
                list(map(to_document, old))

    def test_no_canonical_form_call(self, monkeypatch):
        real, calls = enumeration.canonical_form, []

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(enumeration, "canonical_form", counting)
        assert len(enumerate_cm(3)) == 12
        assert len(enumerate_cm(4)) == 39
        assert calls == []

    def test_recorded_labellings_equal_the_former_least_labelling(self):
        # Each class is recorded by the least int of its orbit; that must
        # be the least labelling the former per-relation search found.
        for d in (1, 2, 3, 4, 5):
            order = cm_order(d)
            expected = {least_labelling(d, r, order) for r in upward_posets(d)}
            assert recorded_labellings(enumerate_cm(d - 1), order) == expected

    def test_one_orbit_per_class(self, monkeypatch):
        real, calls = enumeration._orbit, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(enumeration, "_orbit", counting)
        assert len(enumerate_cm(3)) == len(calls) == 12
        calls.clear()
        assert len(enumerate_cm(4)) == len(calls) == 39

    def test_outputs_are_classified_cm(self):
        for dimension in (0, 1, 2, 3):
            for g in enumerate_cm(dimension):
                r = classify(g)
                assert r.cohen_macaulay and r.dimension == dimension

    def test_diagonal_of_every_base_is_pure(self):
        # enumerate_sharp_cmt blows these bases up without checking them;
        # this is the check it leaves out (the proof is in its docstring).
        for dimension in (1, 2, 3, 4):
            for base in enumerate_cm(dimension):
                assert is_pure_order(base, PureOrder(tuple(zip(base.left, base.right))))

    def test_guard(self, monkeypatch):
        # Past `MAX_PAIRS` = 6 matched pairs, refused before any walk.
        def no_walk(*args):
            raise AssertionError("_relations reached")

        monkeypatch.setattr(enumeration, "_relations", no_walk)
        for dimension in (6, -1):
            with pytest.raises(ValueError, match=r"^dimension must be between 0 and 5$"):
                enumerate_cm(dimension)

    def test_walk_keeps_only_walkable_keys(self):
        # `seen` keeps the 4,824 labelled upward posets on 6 points, not the
        # 184 x 2 x 6! = 264,960 keys of the whole orbits (about 1.4 MB
        # against 9 MB of peak allocation at dimension 5).
        tracemalloc.start()
        try:
            assert len(enumerate_cm(5)) == 184
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, peak


class TestEnumerateUnmixed:
    def test_counts(self):
        assert [len(enumerate_unmixed(d)) for d in (1, 2, 3, 4)] == [1, 3, 7, 24]

    def test_same_graphs_as_the_full_walk(self):
        # The former path: every superset of the diagonal, filtered by
        # is_unmixed, the first graph of each class kept, by least labelling.
        for d in (1, 2, 3, 4):
            old = first_of_each_class((g for g in index_graphs(d) if is_unmixed(g)),
                                      d, unmixed_order(d))
            assert list(map(to_document, enumerate_unmixed(d))) == \
                list(map(to_document, old))

    def test_no_canonical_form_call(self, monkeypatch):
        real, calls = enumeration.canonical_form, []

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(enumeration, "canonical_form", counting)
        assert len(enumerate_unmixed(4)) == 24
        assert calls == []

    def test_recorded_labellings_equal_the_former_least_labelling(self):
        for d in (1, 2, 3, 4):
            order = unmixed_order(d)
            expected = {least_labelling(d, set(r), order) for r in preorders(d)}
            assert recorded_labellings(enumerate_unmixed(d), order) == expected

    def test_one_orbit_per_class(self, monkeypatch):
        real, calls = enumeration._orbit, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(enumeration, "_orbit", counting)
        assert len(enumerate_unmixed(4)) == len(calls) == 24

    def test_no_matching_search_per_relation(self, monkeypatch):
        # The walk makes the transitive relations directly; it neither builds
        # an index graph nor searches a pure order for the 355 it makes.
        real, calls = bigraph.find_pure_order, []

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(bigraph, "find_pure_order", counting)
        assert len(enumerate_unmixed(4)) == 24
        assert calls == []

    def test_d3_against_purity_filter(self):
        survivors = [g for g in index_graphs(3)
                     if is_pure(independence_complex(g))]
        reps = iso_distinct(survivors)
        output = enumerate_unmixed(3)
        assert len(reps) == len(output) == 7
        for g in output:
            assert any(graphs_isomorphic(g, h) for h in reps)

    def test_outputs_are_pure(self):
        for d in (1, 2, 3):
            for g in enumerate_unmixed(d):
                assert is_pure(independence_complex(g))

    def test_contract_closes_into_cm_bases(self):
        for d in (1, 2, 3):
            for g in enumerate_unmixed(d):
                base = contract(g).base
                dimension = len(base.left) - 1
                codes = {canonical_form(b) for b in enumerate_cm(dimension)}
                assert canonical_form(base) in codes

    def test_guard(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("_relations reached")

        monkeypatch.setattr(enumeration, "_relations", no_walk)
        for d in (7, 0):
            with pytest.raises(ValueError, match=r"^d must be between 1 and 6$"):
                enumerate_unmixed(d)

    @pytest.mark.parametrize("d, expected", [(1, 1), (2, 3), (3, 7), (4, 24), (5, 84)])
    def test_composition_route_equals_enumerator(self, d, expected):
        # Unmixed classes as orbits of compositions of d under each base
        # poset's automorphisms and anti-automorphisms, counted in
        # `conftest` by a route that shares no code with the enumerator.
        # CI checks d = 6 (408, about 4 s).
        assert unmixed_class_counts(d) == len(enumerate_unmixed(d)) == expected


class TestSharpFamilies:
    def test_t2(self):
        # Dimension-1 bases only, one parametric slot each: both slots of
        # the two-edge graph are equivalent, as are both slots of the path.
        fams = enumerate_sharp_cmt(2)
        assert len(fams) == 2
        assert sum(f.connected for f in fams) == 1
        assert all(f.parametric for f in fams)

    def test_t3_families(self):
        fams = enumerate_sharp_cmt(3)
        assert len(fams) == 9
        assert sum(f.connected for f in fams) == 5
        fixed = [f for f in fams if not f.parametric]
        # The finite bucket is exactly the two figure graphs.
        assert {canonical_form(f.graphs[0]) for f in fixed} == {
            canonical_form(builtin_graph("fig2")),
            canonical_form(builtin_graph("fig3"))}
        assert len([f for f in fams if f.parametric]) == 7

    def test_t3_instances_against_oracle(self):
        for fam in enumerate_sharp_cmt(3):
            for g in fam.graphs:
                assert classify(g).t_sharp == 3
                assert cm_codim(independence_complex(g)) == 3

    def test_t4_families(self):
        # Finite buckets: dim-1 bases with vectors from {(2,3),(3,3)} up to
        # slot symmetry give 4, dim-2 bases with two doubled slots give 7.
        # The parametric bucket runs over slot orbits of the 12 dim-3
        # bases and comes to 26.
        fams = enumerate_sharp_cmt(4)
        assert len(fams) == 37
        assert sum(f.connected for f in fams) == 22
        parametric = [f for f in fams if f.parametric]
        assert len(parametric) == 26
        by_bucket = {}
        for f in [f for f in fams if not f.parametric]:
            by_bucket.setdefault(len(f.base.left), []).append(f)
        assert len(by_bucket[2]) == 4 and len(by_bucket[3]) == 7

    def test_t4_buckets_against_pairwise_oracle(self):
        # Rebuild each bucket from scratch and dedupe with the test's own
        # isomorphism check instead of canonical codes.
        slot_instances = []
        for base in enumerate_cm(3):
            d = len(base.left)
            for slot in range(d):
                vec = tuple(2 if k == slot else 1 for k in range(d))
                slot_instances.append(expand(Expansion(base, vec)))
        assert len(iso_distinct(slot_instances)) == 26

        pair_instances = []
        for base in enumerate_cm(2):
            for slots in itertools.combinations(range(3), 2):
                vec = tuple(2 if k in slots else 1 for k in range(3))
                pair_instances.append(expand(Expansion(base, vec)))
        assert len(iso_distinct(pair_instances)) == 7

        dim1_instances = []
        for base in enumerate_cm(1):
            for vec in itertools.product((1, 2, 3), repeat=2):
                big = [n for n in vec if n > 1]
                if len(big) == 2 and sum(vec) - min(big) + 1 == 4:
                    dim1_instances.append(expand(Expansion(base, vec)))
        assert len(iso_distinct(dim1_instances)) == 4

    def test_t4_five_pair_families_against_preorder_route(self):
        """Every five-pair graph of oracle codimension 4, found without the enumerator.

        Along its perfect matching an unmixed graph is a preorder on its
        pairs (Villarreal's condition is transitivity), so the 6942
        labelled preorders on 5 points (OEIS A000798) cover every unmixed
        graph on five pairs.  Relabelling the points is a graph
        isomorphism, which cuts them to 139 orbits; the pairwise check then
        leaves 84 classes, and the oracle puts 35 of them at codimension 4.

        The enumerator's other two t = 4 families have six pairs.  By the
        block formula t = d - n_min + 1, t = 4 needs n_min = d - 3 >= 2, so
        d >= 5.  Block sizes sum to d, so two blocks of size at least d - 3
        fit only when d <= 6, and three never do.  One block of size d - 3
        plus three singletons is a parametric family, counted once at
        d = 5.  What is left past five pairs is blocks {3, 3} at d = 6, over
        the two posets on 2 points: the antichain gives K33+K33 and the
        chain the path expanded by (3, 3).  So 37 = 35 + 2 and 22 = 21 + 1.
        """
        relations = preorders(5)
        assert len(relations) == 6942
        orbits = relabelling_orbits(relations, 5)
        classes = {}
        for orbit in orbits:
            g = relation_graph(next(iter(orbit)), 5)
            degrees = sorted(tuple(sorted(map(g.degree, side)))
                             for side in (g.left, g.right))
            bucket = classes.setdefault(tuple(degrees), [])
            if not any(graphs_isomorphic(g, h) for h in bucket):
                bucket.append(g)
        reps = [g for bucket in classes.values() for g in bucket]
        sharp = [g for g in reps if cm_codim(independence_complex(g)) == 4]
        assert (len(orbits), len(reps)) == (139, 84)
        assert (len(sharp), sum(is_connected(g) for g in sharp)) == (35, 21)

        fams = enumerate_sharp_cmt(4)
        five = [f.graphs[0] for f in fams if len(f.graphs[0].left) == 5]
        assert len(five) == 35
        for g in five:
            assert sum(graphs_isomorphic(g, h) for h in sharp) == 1
        # Two-pair bases by edge count: 2 is the antichain, 3 the chain.
        six = sorted((len(f.base.edges), f.multiplicities)
                     for f in fams if len(f.graphs[0].left) != 5)
        assert six == [(2, (3, 3)), (3, (3, 3))]

    def test_t4_instances_spot_checked(self):
        # The enumerator classifies nothing; every instance, the size-3
        # one of each parametric family included, is classified here.
        for fam in enumerate_sharp_cmt(4):
            for g in fam.graphs:
                assert classify(g).t_sharp == 4
            g = fam.graphs[0]
            if len(g.vertices) <= 12:
                assert cm_codim(independence_complex(g)) == 4

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_every_instance_against_the_oracle_sweep(self, t):
        # Every instance, the size-3 representatives included, on both routes.
        for fam in enumerate_sharp_cmt(t):
            for g in fam.graphs:
                assert simplicial.oracle_sweep(g).cm_codim == t, to_document(g)
                assert classify(g).t_sharp == t, to_document(g)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_families_pairwise_non_isomorphic(self, t):
        # A wrong canonical key could merge two families or split one;
        # the brute-force isomorphism test shares no code with it.
        firsts = [f.graphs[0] for f in enumerate_sharp_cmt(t)]
        for g, h in itertools.combinations(firsts, 2):
            assert not graphs_isomorphic(g, h), (to_document(g), to_document(h))

    def test_cmt_reports_pinned(self):
        # The families `enumerate --cmt` reports and the base each records:
        # the graph of its class's least labelling (`_classes`).
        def rows(t, max_total=None):
            return [(f.multiplicities, f.parametric, f.connected, len(f.graphs),
                     to_document(f.base)) for f in enumerate_sharp_cmt(t, max_total)]

        assert rows(3) == [
            ((2, 1, 1), True, False, 2,
             "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x2-y2 x3-y3\n"),
            ((1, 2, 1), True, False, 2,
             "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x2-y2 x2-y3 x3-y3\n"),
            ((2, 1, 1), True, False, 2,
             "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x2-y2 x2-y3 x3-y3\n"),
            ((2, 2), False, False, 1,
             "L: x1 x2\nR: y1 y2\nE: x1-y1 x2-y2\n"),
            ((1, 1, 2), True, True, 2,
             "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x1-y3 x2-y2 x2-y3 x3-y3\n"),
            ((2, 1, 1), True, True, 2,
             "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x1-y3 x2-y2 x2-y3 x3-y3\n"),
            ((2, 1, 1), True, True, 2,
             "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x1-y2 x1-y3 x2-y2 x2-y3 x3-y3\n"),
            ((1, 2, 1), True, True, 2,
             "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x1-y2 x1-y3 x2-y2 x2-y3 x3-y3\n"),
            ((2, 2), False, True, 1,
             "L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y2\n"),
        ]
        # A `max_total` of t + 2 drops nothing at t = 4, so it gives the
        # unrestricted digest; smaller ones drop instances and families.
        for args, digest in [
                ((3, 4), "cff2c8bb16d576518d7c6df2de34b3ed370d41693e6f40729da3af46c30b2cda"),
                ((3, 5), "6dbce7716a49dc4407d7a3331c3750f58a16cbd65ace97b4b6b6864216268d67"),
                ((4, 5), "afa917d44d07d0d4672c85c33e84cc5b339f80c254c56ca3fd94616b85ef18e3"),
                ((4, 6), "50811bd1518e81c747ed864139160c8c06ac01f2e74354b684afef82ef97fd86"),
                ((4,), "50811bd1518e81c747ed864139160c8c06ac01f2e74354b684afef82ef97fd86")]:
            blob = json.dumps(rows(*args)).encode()
            assert hashlib.sha256(blob).hexdigest() == digest, args

    def test_base_order_does_not_matter(self, monkeypatch):
        # Each family is met on one base class only, and its vector is the
        # first of that base's candidates to give it, so the families do
        # not follow the order `enumerate_cm` lists the bases in.
        def rows(t):
            return [(to_document(f.base), f.multiplicities, f.parametric, f.connected,
                     [to_document(g) for g in f.graphs]) for f in enumerate_sharp_cmt(t)]

        expected = {t: rows(t) for t in (2, 3, 4, 5)}
        real = enumeration.enumerate_cm
        monkeypatch.setattr(enumeration, "enumerate_cm", lambda h: real(h)[::-1])
        for t in (2, 3, 4, 5):
            assert rows(t) == expected[t], t

    @pytest.mark.parametrize("t, expected", [(2, (2, 1)), (3, (9, 5)), (4, (37, 22))])
    def test_orbit_route_equals_enumerator(self, t, expected):
        # Families as orbits of multiplicity vectors under each base's
        # automorphisms and anti-automorphisms, counted in `conftest` by a
        # route that shares no code with the enumerator.
        fams = enumerate_sharp_cmt(t)
        assert sharp_cmt_orbit_counts(t) == expected
        assert (len(fams), sum(f.connected for f in fams)) == expected

    def test_orbit_route_pins_t5(self):
        # `enumerate --cmt 5` takes seconds, so the CI workflow checks the
        # command's count against these numbers in a step of its own.
        assert sharp_cmt_orbit_counts(5) == (197, 129)

    def test_parametric_families_carry_two_sizes(self):
        for fam in enumerate_sharp_cmt(3):
            if fam.parametric:
                assert len(fam.graphs) == 2
                assert sorted(n for n in fam.multiplicities if n > 1) == [2]
            else:
                assert len(fam.graphs) == 1

    def test_max_total_prunes_instances(self):
        fams = enumerate_sharp_cmt(3, max_total=4)
        assert len(fams) == 9
        for fam in fams:
            if fam.parametric:
                assert len(fam.graphs) == 1  # size-3 representative dropped
        assert enumerate_sharp_cmt(3, max_total=3) == []

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_largest_side(self, t):
        # The docstring's bound: the widest instance has max(t + 2, 2t - 2)
        # vertices a side, within `MAX_SIDE` up to t = 5.
        sides = [max(len(g.left), len(g.right)) for f in enumerate_sharp_cmt(t) for g in f.graphs]
        assert max(sides) == max(t + 2, 2 * t - 2) <= enumeration.MAX_SIDE

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError, match=r"^t must be between 2 and 5$"):
            enumerate_sharp_cmt(1)

    @pytest.mark.parametrize("max_total", [7, None])
    def test_t_past_the_cm_bases_rejected_at_once(self, monkeypatch, max_total):
        # The limit is `MAX_SIDE`, not the bases: enumerate_cm(5) answers,
        # but t = 6 has instances with 10 vertices a side, which
        # canonical_form refuses, so the range check comes before any base
        # is built.
        def no_bases(h):
            raise AssertionError(f"enumerate_cm({h}) reached")

        monkeypatch.setattr(enumeration, "enumerate_cm", no_bases)
        with pytest.raises(ValueError, match=r"^t must be between 2 and 5$"):
            enumerate_sharp_cmt(6, max_total)

    def test_no_villarreal_check_per_vector(self, monkeypatch):
        # The bases come from enumerate_cm, whose diagonals are pure orders
        # (proved in its docstring), so no blow-up checks its base again.
        real, checked = bigraph._matching_transitive, []

        def counting(g, match):
            checked.append(g)
            return real(g, match)

        monkeypatch.setattr(bigraph, "_matching_transitive", counting)
        assert len(enumerate_sharp_cmt(4)) == 37
        assert checked == []


class TestWriteEnumeration:
    def test_manifest_and_files(self, tmp_path):
        graphs = enumerate_cm(2)
        given = {"dimension_or_t": {"dimension": 2}, "count": 4,
                 "connected_count": sum(is_connected(g) for g in graphs), "files": []}
        manifest = write_enumeration(tmp_path, given, graphs)
        assert manifest == dict(given, files=manifest["files"])
        assert given["files"] == []
        assert sorted(manifest["files"]) == manifest["files"]
        assert len(manifest["files"]) == 4
        written = []
        for name in manifest["files"]:
            text = (tmp_path / name).read_text()
            written.append(parse_graph(text))
        got = {canonical_form(g) for g in written}
        assert got == {canonical_form(g) for g in graphs}
        assert json.loads((tmp_path / "manifest.json").read_text()) == manifest

    def test_count_override_for_families(self, tmp_path):
        # The caller counts families; the parametric representatives add
        # files but not to the count.
        fams = enumerate_sharp_cmt(2)
        instances = [g for f in fams for g in f.graphs]
        given = {"dimension_or_t": {"t": 2}, "count": len(fams),
                 "connected_count": sum(f.connected for f in fams), "files": []}
        manifest = write_enumeration(tmp_path, given, instances)
        assert manifest["count"] == 2
        assert manifest["connected_count"] == 1
        assert len(manifest["files"]) == len(instances) == 4
