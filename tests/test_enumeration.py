"""Canonical codes and the three enumerators, cross-checked two ways.

Counts asserted here were derived independently before freezing:

* CM graphs of dimension h correspond to posets on h+1 points up to the
  duality that swapping the two sides induces.  Poset counts 1, 2, 5, 16
  (h+1 = 1..4) collapse to 1, 2, 4, 12 isomorphism classes of graphs.
  Two routes that share no code with the enumerator confirm this: the
  homology filter over every matched graph, and a from-scratch poset
  count with (P + SD) / 2 classes.
* Unmixed graphs on d pairs: 1, 3, 7, 24 for d = 1..4, confirmed below by
  a from-scratch generate-and-filter route.
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

import pytest
from hypothesis import given, settings, strategies as st

from cmtgraphs import (
    BipartiteGraph,
    Expansion,
    builtin_graph,
    canonical_form,
    classify,
    cm_codim,
    contract,
    enumerate_cm,
    enumerate_sharp_cmt,
    enumerate_unmixed,
    expand,
    independence_complex,
    is_cohen_macaulay,
    is_connected,
    is_pure,
    is_unmixed,
    parse_graph,
    to_document,
    write_enumeration,
)
from cmtgraphs import enumeration
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
)

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


def first_of_each_class(graphs):
    """The former dedupe: the first graph met in each class, sorted by code."""
    found = {}
    for g in graphs:
        found.setdefault(canonical_form(g), g)
    return [found[code] for code in sorted(found, key=lambda c: c.code)]


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

    def test_agrees_with_pairwise_oracle(self):
        rng = random.Random(41)
        pool = [random_bipartite(rng, max_side=3) for _ in range(40)]
        for g, h in itertools.combinations(pool, 2):
            same_code = canonical_form(g) == canonical_form(h)
            assert same_code == graphs_isomorphic(g, h)


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
        # the same labelled graph and keep the same order.
        for dimension in (0, 1, 2, 3):
            d = dimension + 1
            old = first_of_each_class(relation_graph(r, d)
                                      for r in antisymmetric_transitive(d))
            assert list(map(to_document, enumerate_cm(dimension))) == \
                list(map(to_document, old))

    def test_canonical_form_once_per_class(self, monkeypatch):
        real, calls = enumeration.canonical_form, []

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(enumeration, "canonical_form", counting)
        assert len(enumerate_cm(3)) == len(calls) == 12
        calls.clear()
        assert len(enumerate_cm(4)) == len(calls) == 39

    def test_outputs_are_classified_cm(self):
        for dimension in (0, 1, 2, 3):
            for g in enumerate_cm(dimension):
                r = classify(g)
                assert r.cohen_macaulay and r.dimension == dimension

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_cm(5)
        with pytest.raises(ValueError):
            enumerate_cm(-1)


class TestEnumerateUnmixed:
    def test_counts(self):
        assert [len(enumerate_unmixed(d)) for d in (1, 2, 3, 4)] == [1, 3, 7, 24]

    def test_same_graphs_as_the_full_walk(self):
        # The former path: every superset of the diagonal, filtered by
        # is_unmixed, the first graph of each class kept.
        for d in (1, 2, 3, 4):
            old = first_of_each_class(g for g in index_graphs(d) if is_unmixed(g))
            assert list(map(to_document, enumerate_unmixed(d))) == \
                list(map(to_document, old))

    def test_canonical_form_once_per_class(self, monkeypatch):
        real, calls = enumeration.canonical_form, []

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(enumeration, "canonical_form", counting)
        assert len(enumerate_unmixed(4)) == len(calls) == 24

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

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_unmixed(5)


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

    def test_cmt_reports_pinned(self):
        # The families `enumerate --cmt` reports and the base each records.
        # Which isomorphic base a family records follows the order the
        # relations are walked in (ROADMAP item 1).
        def rows(t):
            return [(f.multiplicities, f.parametric, f.connected, len(f.graphs),
                     to_document(f.base)) for f in enumerate_sharp_cmt(t)]

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
        blob = json.dumps(rows(4)).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "50811bd1518e81c747ed864139160c8c06ac01f2e74354b684afef82ef97fd86")

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

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError):
            enumerate_sharp_cmt(1)


class TestWriteEnumeration:
    def test_manifest_and_files(self, tmp_path):
        graphs = enumerate_cm(2)
        manifest = write_enumeration(tmp_path, "dimension", 2, graphs)
        assert manifest["dimension_or_t"] == {"dimension": 2}
        assert manifest["count"] == 4
        assert manifest["connected_count"] == sum(is_connected(g) for g in graphs)
        assert sorted(manifest["files"]) == manifest["files"]
        assert len(manifest["files"]) == 4
        written = []
        for name in manifest["files"]:
            text = (tmp_path / name).read_text()
            written.append(parse_graph(text))
        got = {canonical_form(g) for g in written}
        assert got == {canonical_form(g) for g in graphs}
        assert (tmp_path / "manifest.json").exists()

    def test_count_override_for_families(self, tmp_path):
        fams = enumerate_sharp_cmt(2)
        instances = [g for f in fams for g in f.graphs]
        manifest = write_enumeration(
            tmp_path, "t", 2, instances,
            connected_count=sum(f.connected for f in fams), count=len(fams))
        assert manifest["count"] == 2
        assert manifest["connected_count"] == 1
        assert len(manifest["files"]) == len(instances) == 4
