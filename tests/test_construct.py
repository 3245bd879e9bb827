"""Expansion and contraction of complete bipartite blocks."""

import random

import pytest

from cmtgraphs import (
    BipartiteGraph,
    Expansion,
    GraphFormatError,
    builtin_graph,
    classify,
    cm_codim,
    contract,
    enumerate_cm,
    expand,
    expansion_document,
    independence_complex,
    parse_expansion,
    parse_graph,
    predicted_codim,
)
from cmtgraphs import construct
from conftest import complete, graph, graphs_isomorphic
from test_classify import calls_through_every_binding

PATH = parse_graph("L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y2\n")
TWO_EDGES = parse_graph("L: x1 x2\nR: y1 y2\nE: x1-y1 x2-y2\n")
SIX_CYCLE = parse_graph(
    "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x1-y2 x2-y2 x2-y3 x3-y3 x3-y1\n")


class TestValidation:
    def test_sides_must_match(self):
        g = BipartiteGraph.of(["x1", "x2"], ["y1"], [("x1", "y1"), ("x2", "y1")])
        with pytest.raises(ValueError, match="sides differ"):
            Expansion(g, (1, 1))

    def test_multiplicity_length(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Expansion(PATH, (1, 1, 1))

    def test_multiplicity_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Expansion(PATH, (1, 0))

    def test_positional_pairing_must_be_pure(self):
        g = graph("x1 x2", "y1 y2", "x1-y2 x2-y1")
        with pytest.raises(ValueError, match="pure order"):
            Expansion(g, (1, 1))


class TestExpand:
    def test_edge_blows_up_to_complete_block(self):
        e = Expansion(graph("x1", "y1", "x1-y1"), (3,))
        g = expand(e)
        assert g.left == ("x1_1", "x1_2", "x1_3")
        assert g.right == ("y1_1", "y1_2", "y1_3")
        assert len(g.edges) == 9
        assert graphs_isomorphic(g, complete(3))

    def test_all_ones_reproduces_base(self):
        e = Expansion(PATH, (1, 1))
        assert graphs_isomorphic(expand(e), PATH)

    def test_path_with_one_three_is_the_whisker_block(self):
        e = Expansion(PATH, (1, 3))
        assert graphs_isomorphic(expand(e), builtin_graph("fig1"))

    def test_two_edges_with_two_two_is_the_block_pair(self):
        e = Expansion(TWO_EDGES, (2, 2))
        assert graphs_isomorphic(expand(e), builtin_graph("fig2"))

    def test_cross_edges_cover_whole_blocks(self):
        e = Expansion(PATH, (2, 2))
        g = expand(e)
        # x1-y2 in the base forces all four x1_*-y2_* edges.
        for i in (1, 2):
            for k in (1, 2):
                assert g.has_edge(f"x1_{i}", f"y2_{k}")
                assert not g.has_edge(f"x2_{i}", f"y1_{k}")

    def test_edge_limit_is_the_sum_of_block_products(self, monkeypatch):
        # PATH at (2, 3) asks for 2*2 + 2*3 + 3*3 = 19 edges: built at a
        # limit of 19, refused at 18 before anything is built.
        e = Expansion(PATH, (2, 3))
        monkeypatch.setattr(construct, "EXPAND_EDGE_LIMIT", 19)
        assert len(expand(e).edges) == 19

        def no_build(base, multiplicities):
            raise AssertionError("_blow_up reached")

        monkeypatch.setattr(construct, "EXPAND_EDGE_LIMIT", 18)
        monkeypatch.setattr(construct, "_blow_up", no_build)
        with pytest.raises(ValueError, match=r"^expansion guard: 19 edges asked for, more than 18$"):
            expand(e)


class TestContract:
    def test_complete_block_contracts_to_edge(self):
        for n in (2, 3, 4):
            e = contract(complete(n))
            assert e.multiplicities == (n,)
            assert len(e.base.edges) == 1

    def test_builtin_fig1(self):
        e = contract(builtin_graph("fig1"))
        assert e.multiplicities == (1, 3)
        assert graphs_isomorphic(e.base, PATH)

    def test_builtin_fig2(self):
        e = contract(builtin_graph("fig2"))
        assert e.multiplicities == (2, 2)
        assert graphs_isomorphic(e.base, TWO_EDGES)

    def test_cross_free_graph_is_its_own_base(self):
        e = contract(PATH)
        assert e.multiplicities == (1, 1)
        assert graphs_isomorphic(e.base, PATH)

    def test_rejects_mixed_graph(self):
        with pytest.raises(ValueError, match="not unmixed"):
            contract(SIX_CYCLE)

    def test_one_villarreal_check_on_the_input(self, monkeypatch):
        # The order find_pure_order built is not validated again.
        import importlib

        bigraph_mod = importlib.import_module("cmtgraphs.bigraph")
        real, checked = bigraph_mod._matching_transitive, []

        def counting(g, match, distinct):
            checked.append(g)
            return real(g, match, distinct)

        monkeypatch.setattr(bigraph_mod, "_matching_transitive", counting)
        g = builtin_graph("fig1")
        assert contract(g).multiplicities == (1, 3)
        assert sum(h is g for h in checked) == 1

    def test_one_grouping_of_the_input(self, monkeypatch):
        # contract reads the blocks find_pure_order grouped, and
        # Expansion's Villarreal check on the base reads masks, not blocks;
        # the one other grouping is the base's, made when predicted_codim
        # reads its blocks.
        grouped = calls_through_every_binding(monkeypatch, "neighbourhood_blocks")
        g = builtin_graph("fig1")
        e = contract(g)
        assert grouped == [g]
        assert predicted_codim(e) == 2
        assert grouped == [g, e.base]

    @pytest.mark.parametrize("d", [9, 12])
    def test_chain_beyond_eight_pairs(self, d):
        # Edges x_i-y_j for i <= j: cross-free, so every block is one pair.
        chain = BipartiteGraph.of([f"x{i}" for i in range(d)], [f"y{i}" for i in range(d)],
                                  [(f"x{i}", f"y{j}") for i in range(d) for j in range(i, d)])
        e = contract(chain)
        assert e.multiplicities == (1,) * d
        assert e.base == chain

    def test_round_trip_over_small_cm_bases(self):
        rng = random.Random(7)
        for d in (1, 2, 3):
            for base in enumerate_cm(d):
                mult = tuple(rng.randint(1, 3) for _ in base.left)
                e = Expansion(base, mult)
                back = contract(expand(e))
                assert back.multiplicities == mult
                assert graphs_isomorphic(back.base, base)


class TestPredictedCodim:
    def test_complete_blocks(self):
        for n in (2, 3, 4):
            e = Expansion(graph("x1", "y1", "x1-y1"), (n,))
            assert predicted_codim(e) == 1

    def test_builtin_values(self):
        assert predicted_codim(Expansion(PATH, (1, 3))) == 2
        assert predicted_codim(Expansion(TWO_EDGES, (2, 2))) == 3

    def test_all_ones_is_zero(self):
        assert predicted_codim(Expansion(PATH, (1, 1))) == 0

    def test_crossed_base_rejected(self):
        with pytest.raises(ValueError, match="not Cohen-Macaulay"):
            predicted_codim(Expansion(complete(2), (1, 2)))

    def test_matches_classifier_and_oracle(self):
        rng = random.Random(19)
        for d in (1, 2):
            for base in enumerate_cm(d):
                mult = tuple(rng.randint(1, 3) for _ in base.left)
                e = Expansion(base, mult)
                g = expand(e)
                t = predicted_codim(e)
                assert classify(g).t_sharp == t
                assert cm_codim(independence_complex(g)) == t


class TestDocuments:
    def test_round_trip(self):
        e = Expansion(PATH, (1, 3))
        assert parse_expansion(expansion_document(e)) == e

    def test_document_shape(self):
        text = expansion_document(Expansion(TWO_EDGES, (2, 2)))
        assert text.endswith("M: 2 2\n")
        assert text.startswith("L: x1 x2\n")

    def test_missing_multiplicities(self):
        with pytest.raises(GraphFormatError, match="M:"):
            parse_expansion("L: x1\nR: y1\nE: x1-y1\n")
