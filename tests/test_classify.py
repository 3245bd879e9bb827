"""Classifier, Macaulay orders, the union formula, and the oracle harness."""

import itertools
import random
import sys

import pytest

from cmtgraphs import (
    BipartiteGraph,
    IsolatedVertexError,
    PureOrder,
    builtin_graph,
    classification_json,
    classify,
    cm_codim,
    cross_blocks,
    disjoint_union,
    disjoint_union_codim,
    enumerate_cm,
    enumerate_unmixed,
    find_pure_order,
    independence_complex,
    is_buchsbaum,
    macaulay_order,
    parse_graph,
    verify_against_oracle,
)
from cmtgraphs import bigraph, simplicial
from conftest import (brute_betti, brute_maximal_independent_sets, complete,
                      graph, relabeled_copy, rename)

PATH = parse_graph("L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y2\n")
SIX_CYCLE = parse_graph(
    "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x1-y2 x2-y2 x2-y3 x3-y3 x3-y1\n")
UNION_POOL = [  # (graph, matched pairs, sharp codimension)
    (graph("x1", "y1", "x1-y1"), 1, 0),
    (PATH, 2, 0),
    (complete(2), 2, 1),
    (complete(3), 3, 1),
]


def calls_through_every_binding(monkeypatch, name: str) -> list:
    """Count calls to `bigraph.<name>` made through any `cmtgraphs` module.

    Every module that holds the function gets a counting wrapper, so a
    module that imports it under its own binding is counted too.  Returns
    the list of first arguments, which grows as calls are made.
    """
    original, calls = getattr(bigraph, name), []

    def counting(first, *rest):
        calls.append(first)
        return original(first, *rest)

    for key, module in list(sys.modules.items()):
        if key == "cmtgraphs" or key.startswith("cmtgraphs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def brute_codim(g: BipartiteGraph) -> int:
    """One more than the largest face whose link has homology below its top.

    Faces are subsets of the brute-force maximal independent sets, and each
    link's Betti numbers come from `brute_betti`; 0 when no link fails.
    """
    facets = brute_maximal_independent_sets(g)
    faces = {frozenset(c) for s in facets for k in range(len(s) + 1)
             for c in itertools.combinations(sorted(s), k)}
    failing = [len(f) for f in faces
               if any(brute_betti([s - f for s in facets if f <= s])[:-1])]
    return max(failing) + 1 if failing else 0


class TestClassify:
    def test_single_edge(self):
        r = classify(graph("x1", "y1", "x1-y1"))
        assert r.unmixed and r.d == 1 and r.t_sharp == 0
        assert r.cohen_macaulay and r.buchsbaum
        assert r.block_sizes == (1,) and r.n_min is None

    def test_path(self):
        r = classify(PATH)
        assert r.unmixed and r.d == 2 and r.dimension == 1
        assert r.t_sharp == 0 and r.cohen_macaulay

    def test_complete_blocks_are_buchsbaum(self):
        for n in range(2, 6):
            r = classify(complete(n))
            assert r.unmixed and r.d == n
            assert r.block_sizes == (n,) and r.n_min == n
            assert r.t_sharp == 1
            assert r.buchsbaum and not r.cohen_macaulay

    def test_six_cycle_is_mixed(self):
        r = classify(SIX_CYCLE)
        assert not r.unmixed
        assert r.t_sharp is None and r.block_sizes is None
        assert not r.cohen_macaulay and not r.buchsbaum

    def test_builtin_figures(self):
        want = {"fig1": 2, "fig2": 3, "fig3": 3}
        for name, t in want.items():
            r = classify(builtin_graph(name))
            assert r.unmixed and r.d == 4 and r.t_sharp == t, name

    def test_fig1_blocks(self):
        r = classify(builtin_graph("fig1"))
        assert r.block_sizes == (1, 3) and r.n_min == 3

    def test_fig2_vs_fig3_blocks_differ(self):
        assert classify(builtin_graph("fig2")).block_sizes == (2, 2)
        assert classify(builtin_graph("fig3")).block_sizes == (2, 2)
        # Same invariants, different graphs: fig3 has the extra cross edges.
        assert len(builtin_graph("fig3").edges) > len(builtin_graph("fig2").edges)

    def test_t_sharp_matches_homological_codim(self):
        for name in ("fig1", "fig2", "fig3"):
            g = builtin_graph(name)
            assert classify(g).t_sharp == cm_codim(independence_complex(g))


class TestClassificationJson:
    def test_unmixed_payload(self):
        data = classification_json(PATH)
        assert data["unmixed"] is True
        assert data["d"] == 2 and data["dimension"] == 1
        assert data["block_sizes"] == [1, 1] and data["n_min"] is None
        assert data["t_sharp"] == 0
        assert data["cohen_macaulay"] is True and data["buchsbaum"] is True
        assert data["macaulay_order"] == [1, 2]

    def test_mixed_payload_is_all_null(self):
        data = classification_json(SIX_CYCLE)
        assert data["unmixed"] is False
        for key in ("d", "dimension", "block_sizes", "n_min", "t_sharp",
                    "buchsbaum", "cohen_macaulay"):
            assert data[key] is None, key
        assert "macaulay_order" not in data

    def test_non_cm_payload_has_no_order(self):
        data = classification_json(complete(2))
        assert data["t_sharp"] == 1
        assert "macaulay_order" not in data

    def test_one_cross_blocks_per_report(self, monkeypatch):
        # One grouping and one Villarreal check on the input per report,
        # counted in every module: the blocks find_pure_order grouped are
        # read again, and the order it built is not validated again.
        grouped = calls_through_every_binding(monkeypatch, "neighbourhood_blocks")
        checked = calls_through_every_binding(monkeypatch, "_matching_transitive")
        stair = parse_graph(
            "L: x1 x2 x3\nR: y1 y2 y3\n"
            "E: x1-y1 x1-y2 x1-y3 x2-y2 x2-y3 x3-y3\n")
        data = classification_json(stair)
        assert len(grouped) == 1
        assert sum(g is stair for g in checked) == 1
        assert data["macaulay_order"] == list(macaulay_order(stair).order)


class TestMacaulayOrder:
    def test_path_has_order(self):
        order = macaulay_order(PATH)
        assert order is not None and order.order == (1, 2)

    def test_k22_has_none(self):
        assert macaulay_order(complete(2)) is None

    def test_rejects_mixed_graph(self):
        with pytest.raises(ValueError, match="unmixed"):
            macaulay_order(SIX_CYCLE)

    def test_one_villarreal_check_on_the_input(self, monkeypatch):
        # The order macaulay_order builds itself is not validated again.
        import importlib

        bigraph_mod = importlib.import_module("cmtgraphs.bigraph")
        real, checked = bigraph_mod._matching_transitive, []

        def counting(g, match):
            checked.append(g)
            return real(g, match)

        monkeypatch.setattr(bigraph_mod, "_matching_transitive", counting)
        stair = parse_graph(
            "L: x1 x2 x3\nR: y1 y2 y3\n"
            "E: x1-y1 x1-y2 x1-y3 x2-y2 x2-y3 x3-y3\n")
        assert macaulay_order(stair).order == (1, 2, 3)
        assert sum(g is stair for g in checked) == 1

    def test_one_grouping_of_the_input(self, monkeypatch):
        # The order built here lists its lefts as stair.left, so its blocks
        # are the classes find_pure_order grouped.
        grouped = calls_through_every_binding(monkeypatch, "neighbourhood_blocks")
        stair = parse_graph(
            "L: x1 x2 x3\nR: y1 y2 y3\n"
            "E: x1-y1 x1-y2 x1-y3 x2-y2 x2-y3 x3-y3\n")
        assert macaulay_order(stair).order == (1, 2, 3)
        assert grouped == [stair]

    def test_rejects_invalid_caller_order(self):
        # macaulay_order takes no order; the one place a caller's order is
        # read, cross_blocks, still checks it: x2-y1 is not an edge, and a
        # pairing that uses y2 twice is no perfect matching.
        swapped = PureOrder((("x1", "y2"), ("x2", "y1")))
        repeated = PureOrder((("x1", "y2"), ("x2", "y2")))
        for po in (swapped, repeated):
            with pytest.raises(ValueError, match="not a pure order"):
                cross_blocks(PATH, po)

    def test_order_soundness(self):
        # Relabel i -> position of i in order; every edge x_iy_j of the
        # relabeled graph must then point weakly forward.
        stair = parse_graph(
            "L: x1 x2 x3\nR: y1 y2 y3\n"
            "E: x1-y1 x1-y2 x1-y3 x2-y2 x2-y3 x3-y3\n")
        assert classify(stair).cohen_macaulay
        rng = random.Random(11)
        inputs = [relabeled_copy(PATH, rng) if rng.random() < 0.5 else
                  relabeled_copy(stair, rng) for _ in range(40)]
        inputs += [relabeled_copy(g, rng) for dimension in range(4)
                   for g in enumerate_cm(dimension)]
        for g in inputs:
            po = find_pure_order(g)
            order = macaulay_order(g)
            assert order is not None
            assert sorted(order.order) == list(range(1, len(po.pairs) + 1))
            rank = {pair_index: k for k, pair_index in enumerate(order.order)}
            xs = [x for x, _ in po.pairs]
            ys = [y for _, y in po.pairs]
            for i in range(len(xs)):
                for j in range(len(ys)):
                    if g.has_edge(xs[i], ys[j]):
                        assert rank[i + 1] <= rank[j + 1], (g, order)


class TestBuchsbaum:
    def test_examples(self):
        assert is_buchsbaum(graph("x1", "y1", "x1-y1"))
        assert is_buchsbaum(complete(3))
        assert not is_buchsbaum(builtin_graph("fig2"))
        assert not is_buchsbaum(SIX_CYCLE)

    def test_dichotomy_against_oracle(self):
        # Codim <= 1 holds exactly for CM graphs and single complete blocks.
        for d in (1, 2, 3):
            for g in enumerate_unmixed(d):
                r = classify(g)
                expect = r.t_sharp <= 1
                is_complete_block = (r.block_sizes == (d,) and d >= 2)
                assert expect == (r.cohen_macaulay or is_complete_block)
                ind = independence_complex(g)
                assert is_buchsbaum(g) == (cm_codim(ind) <= 1)


class TestDisjointUnionCodim:
    def test_known_values(self):
        assert disjoint_union_codim(2, 0, 3, 0) == 0
        assert disjoint_union_codim(1, 0, 2, 1) == 2
        assert disjoint_union_codim(2, 1, 2, 1) == 3

    def test_symmetry(self):
        for d, r, dp, rp in itertools.product(range(1, 4), range(3),
                                              range(1, 4), range(3)):
            if r > d or rp > dp:
                continue
            assert disjoint_union_codim(d, r, dp, rp) == disjoint_union_codim(dp, rp, d, r)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            disjoint_union_codim(-1, 0, 2, 0)
        with pytest.raises(ValueError):
            disjoint_union_codim(0, 0, 2, 0)
        with pytest.raises(ValueError):
            disjoint_union_codim(2, -1, 2, 0)

    def test_formula_matches_oracle(self):
        # Small pool tagged (d, codim); every prediction must be exact.
        for (g, d, r), (h, dp, rp) in itertools.product(UNION_POOL, repeat=2):
            u = disjoint_union(rename(g, "_a"), rename(h, "_b"))
            actual = cm_codim(independence_complex(u))
            assert actual == disjoint_union_codim(d, r, dp, rp), (d, r, dp, rp)

    def test_formula_matches_brute_force_reisner(self):
        # The same unions, their codimension computed without the library's
        # homology: maximal independent sets by brute force, then Reisner's
        # criterion on the link of every face, by Fraction elimination.
        for (g, d, r), (h, dp, rp) in itertools.product(UNION_POOL, repeat=2):
            u = disjoint_union(rename(g, "_a"), rename(h, "_b"))
            assert brute_codim(u) == disjoint_union_codim(d, r, dp, rp), (d, r, dp, rp)

    def test_two_blocks_union_is_exactly_three(self):
        u = disjoint_union(rename(complete(2), "_a"), rename(complete(2), "_b"))
        assert cm_codim(independence_complex(u)) == 3
        assert disjoint_union_codim(2, 1, 2, 1) == 3


class TestOracleHarness:
    def test_agreement_on_examples(self):
        for g in (PATH, SIX_CYCLE, complete(2), builtin_graph("fig1"),
                  builtin_graph("fig2"), builtin_graph("fig3")):
            report = verify_against_oracle(g)
            assert report.agree, report.mismatches

    def test_exhaustive_small(self):
        for d in (1, 2, 3):
            for g in enumerate_unmixed(d):
                assert verify_against_oracle(g).agree

    def test_mixed_graphs_agree_on_nonpurity(self):
        rng = random.Random(13)
        seen_mixed = 0
        for _ in range(60):
            left = [f"x{i}" for i in range(1, 4)]
            right = [f"y{i}" for i in range(1, 4)]
            edges = [(x, y) for x in left for y in right if rng.random() < 0.6]
            used = {v for e in edges for v in e}
            if used != set(left) | set(right):
                continue
            g = BipartiteGraph.of(left, right, edges)
            report = verify_against_oracle(g)
            assert report.agree, report.mismatches
            seen_mixed += not report.structural.unmixed
        assert seen_mixed > 0

    def test_refused_past_the_face_limit(self):
        # A perfect matching on 10 pairs has 3^10 = 59,049 faces.
        g = BipartiteGraph.of([f"x{i}" for i in range(10)], [f"y{i}" for i in range(10)],
                              [(f"x{i}", f"y{i}") for i in range(10)])
        with pytest.raises(ValueError, match="oracle guard"):
            verify_against_oracle(g)

    def test_rejects_isolated_vertices(self):
        g = BipartiteGraph.of(["x1", "x2"], ["y1"], [("x1", "y1")])
        with pytest.raises(ValueError, match="isolated"):
            verify_against_oracle(g)

    def test_isolated_vertices_refused_before_any_homology(self, monkeypatch):
        # Under the face limit the graph is walked once, under the guard,
        # and no link's homology is computed for a report that is refused.
        g = BipartiteGraph.of(["a", "b", "c"], ["d", "e"],
                              [("a", "d"), ("b", "d"), ("b", "e")])
        homology, seen = simplicial.reduced_homology, []
        walk, walks = simplicial._walk, []

        def counting_homology(c):
            seen.append(c)
            return homology(c)

        def counting_walk(nbrs, allowed):
            walks.append(allowed)
            return walk(nbrs, allowed)

        monkeypatch.setattr(simplicial, "reduced_homology", counting_homology)
        monkeypatch.setattr(simplicial, "_walk", counting_walk)
        with pytest.raises(IsolatedVertexError):
            verify_against_oracle(g)
        assert seen == []
        assert walks == [0b11111]

    def test_report_fields(self):
        report = verify_against_oracle(complete(2))
        assert report.structural.unmixed and report.oracle_pure
        assert report.oracle_dim == 1
        assert report.structural.t_sharp == report.oracle_codim == 1
