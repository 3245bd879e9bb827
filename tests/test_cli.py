"""Command line surface: reports, exit codes, determinism."""

import argparse
import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from cmtgraphs import (BUILTIN_NAMES, ConsistencyError, builtin_document, canonical_form, classify, cm_codim, dim,
                       enumerate_unmixed, independence_complex, is_pure, parse_graph,
                       reduced_homology, to_document)
from cmtgraphs import cli, construct, simplicial
from cmtgraphs.cli import main
from cli_argv import check_table_against_argparse, every
from conftest import block_codim, independent_set_count, relation_graph, seeded_poset
from test_simplicial import check_cone_tags, isolated_in

K22 = "L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y1 x2-y2\n"


def disjoint_k33s(k):
    """k disjoint copies of K_{3,3}: 15^k faces, but 3^k sets of twin classes."""
    left = [f"x{c}_{i}" for c in range(k) for i in range(3)]
    right = [f"y{c}_{i}" for c in range(k) for i in range(3)]
    edges = [f"x{c}_{i}-y{c}_{j}" for c in range(k) for i in range(3) for j in range(3)]
    return f"L: {' '.join(left)}\nR: {' '.join(right)}\nE: {' '.join(edges)}\n"


@pytest.fixture(autouse=True)
def reports_written_as_json_writes_them(monkeypatch):
    """Every report a test here prints is `json.dumps(report, indent=2, sort_keys=True)`."""
    dump = cli._dump

    def checked(value, indent):
        text = dump(value, indent)
        if not indent:
            assert text == json.dumps(value, indent=2, sort_keys=True)
        return text

    monkeypatch.setattr(cli, "_dump", checked)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def matrix_builds(monkeypatch):
    """The face levels whose boundary ranks `simplicial._betti` takes from now on."""
    real, seen = simplicial._betti, []

    def counting(levels, rank):
        seen.append(levels)
        return real(levels, rank)

    monkeypatch.setattr(simplicial, "_betti", counting)
    return seen


class TestClassify:
    def test_builtin_fig1(self, capsys):
        code, report = run(capsys, "classify", "--builtin", "fig1")
        assert code == 0
        assert report["status"] == "ok"
        assert report["command"] == "classify"
        assert report["input"] == "builtin:fig1"
        r = report["result"]
        assert r["t_sharp"] == 2 and r["d"] == 4
        assert r["block_sizes"] == [1, 3]

    def test_builtin_fig3(self, capsys):
        code, report = run(capsys, "classify", "--builtin", "fig3")
        assert code == 0 and report["result"]["t_sharp"] == 3

    def test_file_input(self, capsys, tmp_path):
        doc = tmp_path / "k22.graph"
        doc.write_text(K22)
        code, report = run(capsys, "classify", str(doc))
        assert code == 0
        r = report["result"]
        assert r["t_sharp"] == 1 and r["buchsbaum"] is True
        assert r["cohen_macaulay"] is False
        assert "macaulay_order" not in r

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "classify", "--builtin", "fig2")
        _, b = run(capsys, "classify", "--builtin", "fig2")
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b

    def test_quiet(self, capsys):
        code = main(["classify", "--builtin", "fig1", "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""


class TestOracle:
    def test_k22(self, capsys, tmp_path):
        doc = tmp_path / "k22.graph"
        doc.write_text(K22)
        code, report = run(capsys, "oracle", str(doc))
        assert code == 0
        r = report["result"]
        assert r["pure"] is True and r["dimension"] == 1
        assert r["cm_codim"] == 1 and r["facet_count"] == 2
        assert r["betti"]["0"] == 1

    def test_single_edge_is_cm(self, capsys, tmp_path):
        doc = tmp_path / "edge.graph"
        doc.write_text("L: x1\nR: y1\nE: x1-y1\n")
        code, report = run(capsys, "oracle", str(doc))
        assert code == 0 and report["result"]["cm_codim"] == 0

    @pytest.mark.parametrize("pairs, codim", [
        ([(i, j) for i in range(4) for j in range(i, 4)], 0),
        ([(i, j) for i in range(3) for j in range(3)], 1),
    ], ids=["chain4", "k33"])
    def test_whole_complex_homology_once(self, capsys, monkeypatch, tmp_path,
                                         pairs, codim):
        # The sweep reaches the empty face, whose link is the whole
        # complex; the report's betti must reuse that computation, and the
        # command walks the whole complex, under the guard, once and
        # first.  Folds and cones may settle every link with no
        # `reduced_homology` call, and a component shared by several links
        # is ranked once.
        n = max(j for _, j in pairs) + 1
        doc = tmp_path / "g.graph"
        doc.write_text(f"L: {' '.join(f'x{i}' for i in range(n))}\n"
                       f"R: {' '.join(f'y{i}' for i in range(n))}\n"
                       f"E: {' '.join(f'x{i}-y{j}' for i, j in pairs)}\n")
        homology, seen = simplicial.reduced_homology, []
        walk, walks = simplicial._walk, []
        reduce, reduced = simplicial._link_betti, []

        def counting_homology(faces):
            seen.append(frozenset(faces))
            return homology(faces)

        def counting_walk(nbrs, allowed):
            sets = walk(nbrs, allowed)
            walks.append((allowed, frozenset(taken for taken, _ in sets)))
            return sets

        def counting_reduction(nbrs, rest, known, walked=None):
            reduced.append(rest)
            return reduce(nbrs, rest, known, walked)

        monkeypatch.setattr(simplicial, "reduced_homology", counting_homology)
        monkeypatch.setattr(simplicial, "_walk", counting_walk)
        monkeypatch.setattr(simplicial, "_link_betti", counting_reduction)
        code, report = run(capsys, "oracle", str(doc))
        assert code == 0 and report["result"]["cm_codim"] == codim
        everything = (1 << 2 * n) - 1
        assert [allowed for allowed, _ in walks].count(everything) == 1
        assert walks[0][0] == everything
        assert reduced and len(reduced) == len(set(reduced))
        assert len(seen) == len(set(seen))
        assert seen.count(walks[0][1]) <= 1

    @pytest.mark.parametrize("seed", range(3))
    def test_poset_graphs_reach_no_matrix(self, capsys, monkeypatch, tmp_path, seed):
        # Graphs of orders on 7 points, 14 vertices, like the benchmark's
        # `oracle` inputs.  Cones, folds and the split into components
        # leave only single edges, whose complexes are two points, which
        # `reduced_homology` names without a boundary matrix, and whose
        # faces are listed with no walk.  The walk's cone tags are every
        # isolated vertex of each link (a poset graph has a pure order), so
        # the walk of the whole graph, under the guard, is the only one,
        # it lists only links with no isolated vertex, and `_link_betti`
        # sees no link with one.  Its count of the sets it lists plus the
        # sets it counts without listing is every independent set: it
        # answers at that limit and refuses one below.  The report is the
        # generic route's.
        rng = random.Random(seed)
        g = relation_graph(seeded_poset(rng, 7, rng.uniform(0.5, 0.7)), 7)
        n = independent_set_count(g)
        assert check_cone_tags(g) == n
        everything = (1 << len(g.vertices)) - 1
        with monkeypatch.context() as limit:
            limit.setattr(simplicial, "ORACLE_FACE_LIMIT", n)
            assert len(simplicial._walk(simplicial._masks(g), everything)) < n
            limit.setattr(simplicial, "ORACLE_FACE_LIMIT", n - 1)
            with pytest.raises(ValueError, match=f"more than {n - 1} faces"):
                simplicial._walk(simplicial._masks(g), everything)
        ind = independence_complex(g)
        expected = {"facet_count": len(ind.facets), "dimension": dim(ind),
                    "pure": is_pure(ind), "betti": reduced_homology(ind).as_dict(),
                    "cm_codim": cm_codim(ind)}
        doc = tmp_path / "g.graph"
        doc.write_text(to_document(g))
        seen = matrix_builds(monkeypatch)
        walk, walks = simplicial._walk, []
        reduce, keys = simplicial._link_betti, []

        def counting_walk(nbrs, allowed):
            walks.append(allowed)
            return walk(nbrs, allowed)

        def counting_reduction(nbrs, rest, known, walked=None):
            keys.append(rest)
            return reduce(nbrs, rest, known, walked)

        monkeypatch.setattr(simplicial, "_walk", counting_walk)
        monkeypatch.setattr(simplicial, "_link_betti", counting_reduction)
        code, report = run(capsys, "oracle", str(doc))
        assert code == 0 and report["result"] == expected
        assert seen == []
        assert walks == [(1 << len(g.vertices)) - 1]
        assert keys and not any(isolated_in(g, key) for key in keys)

    def test_max_t_flag(self, capsys):
        code, report = run(capsys, "oracle", "--builtin", "fig2", "--max-t", "2")
        assert code == 0
        r = report["result"]
        assert r["cm_codim"] == 3
        assert r["max_t"] == 2 and r["cm_within_max_t"] is False

    # An isolated vertex is outside the classifier's domain, and verify
    # reports the guard before it.
    @pytest.mark.parametrize("command, isolated", [
        ("oracle", False), ("verify", False), ("oracle", True), ("verify", True),
    ], ids=["oracle", "verify", "oracle-isolated", "verify-isolated"])
    def test_vertex_guard(self, capsys, tmp_path, command, isolated):
        left = " ".join(f"x{i}" for i in range(12 if isolated else 11))
        right = " ".join(f"y{i}" for i in range(11))
        edges = " ".join(f"x{i}-y{i}" for i in range(11))
        doc = tmp_path / "wide.graph"
        doc.write_text(f"L: {left}\nR: {right}\nE: {edges}\n")
        code, report = run(capsys, command, str(doc))
        assert code == 1
        assert report["status"] == "error"
        assert "guard" in report["result"]["message"]
        assert str(simplicial.ORACLE_FACE_LIMIT) in report["result"]["message"]

    def test_refused_on_the_vertex_count_before_any_walk(self, capsys, tmp_path):
        # A perfect matching on 2,000 pairs: every subset of a side is
        # independent, so its 4,000 vertices force at least 2^2001 - 1
        # faces, and the walk refuses on that count before it reads any
        # neighbourhood: handed masks that raise on any read, it still
        # gives the guard's error.
        class Unread:
            def __len__(self):
                raise AssertionError("read the masks past the vertex bound")

            __getitem__ = __iter__ = __len__

        message = (f"oracle guard: the independence complex has more than "
                   f"{simplicial.ORACLE_FACE_LIMIT} faces (independent sets)")
        with pytest.raises(ValueError) as refused:
            simplicial._walk(Unread(), (1 << 4000) - 1)
        assert str(refused.value) == message
        pairs = range(2000)
        doc = tmp_path / "matching2000.graph"
        doc.write_text(f"L: {' '.join(f'x{i}' for i in pairs)}\n"
                       f"R: {' '.join(f'y{i}' for i in pairs)}\n"
                       f"E: {' '.join(f'x{i}-y{i}' for i in pairs)}\n")
        code, report = run(capsys, "oracle", str(doc))
        assert code == 1 and report["status"] == "error"
        assert report["result"]["message"] == message

    def test_guard_counts_faces_not_vertices(self, capsys, tmp_path):
        # K_{11,11}: 22 vertices, but only 2 * 2^11 - 1 = 4095 faces.
        left = " ".join(f"x{i}" for i in range(11))
        right = " ".join(f"y{i}" for i in range(11))
        edges = " ".join(f"x{i}-y{j}" for i in range(11) for j in range(11))
        doc = tmp_path / "k11.graph"
        doc.write_text(f"L: {left}\nR: {right}\nE: {edges}\n")
        code, report = run(capsys, "oracle", str(doc))
        assert code == 0
        assert report["result"]["cm_codim"] == 1
        assert report["result"]["facet_count"] == 2

    @pytest.mark.parametrize("command", ["oracle", "verify"])
    def test_guard_counts_faces_on_twin_classes(self, capsys, monkeypatch, tmp_path,
                                                command):
        # Four disjoint K_{3,3}: 15^4 = 50,625 faces, counted on the
        # 3^4 = 81 independent sets of twin classes, the only sets walked:
        # at a limit of 50,625 they are all listed and the command answers,
        # and at 20,000 the walk stops with the guard's error.
        doc = tmp_path / "k33x4.graph"
        doc.write_text(disjoint_k33s(4))
        walk, walks, listed = simplicial._walk, [], []

        def counting_walk(nbrs, allowed):
            walks.append(allowed)
            sets = walk(nbrs, allowed)
            listed.append(len(sets))
            return sets

        monkeypatch.setattr(simplicial, "_walk", counting_walk)
        monkeypatch.setattr(simplicial, "ORACLE_FACE_LIMIT", 15 ** 4)
        code, report = run(capsys, command, str(doc))
        assert code == 0 and report["status"] == "ok"
        assert walks == [(1 << 24) - 1] and listed == [81]
        del walks[:], listed[:]
        monkeypatch.setattr(simplicial, "ORACLE_FACE_LIMIT", 20_000)
        code, report = run(capsys, command, str(doc))
        assert code == 1 and report["status"] == "error"
        assert report["result"]["message"] == (
            "oracle guard: the independence complex has more than "
            "20000 faces (independent sets)")
        assert walks == [(1 << 24) - 1] and listed == []


class TestVerify:
    def test_harness_over_d2(self, capsys):
        code, report = run(capsys, "verify", "--d", "2")
        assert code == 0
        r = report["result"]
        assert r["instances"] == 3 and r["disagreements"] == 0
        assert r["counterexamples"] == []

    @pytest.mark.parametrize("seed, multiplicities", [
        (0, (1, 5)), (1, (1, 4, 1)), (2, (3, 3)), (3, (1, 2, 2, 1)),
    ])
    def test_block_expansions_reach_no_matrix(self, capsys, monkeypatch, tmp_path,
                                              seed, multiplicities):
        # Block expansions with t_sharp 2-5 on 10-12 vertices, like the
        # benchmark's `verify` inputs.  Every component the graph rules
        # leave is one edge, whose complex is two points, so no boundary
        # matrix is built; the oracle's codimension is the generic route's.
        rng = random.Random(seed)
        k = len(multiplicities)
        base = relation_graph(seeded_poset(rng, k, rng.uniform(0.3, 0.7)), k)
        g = construct.expand(construct.Expansion(base, multiplicities))
        t = block_codim(multiplicities)
        assert t >= 2 and cm_codim(independence_complex(g)) == t
        doc = tmp_path / "g.graph"
        doc.write_text(to_document(g))
        seen = matrix_builds(monkeypatch)
        code, report = run(capsys, "verify", str(doc))
        assert code == 0 and seen == []
        assert report["result"] == {"agree": True, "structural_t_sharp": t,
                                    "oracle_cm_codim": t, "oracle_pure": True,
                                    "mismatches": []}

    def test_harness_over_d5(self, capsys):
        # One size past the former guard: 84 classes, every one agreeing.
        code, report = run(capsys, "verify", "--d", "5")
        assert code == 0
        r = report["result"]
        assert r["instances"] == 84 and r["disagreements"] == 0

    def test_single_graph(self, capsys):
        code, report = run(capsys, "verify", "--builtin", "fig1")
        assert code == 0
        r = report["result"]
        assert r["agree"] is True
        assert r["structural_t_sharp"] == r["oracle_cm_codim"] == 2

    def test_needs_some_input(self, capsys):
        code, report = run(capsys, "verify")
        assert code == 1 and report["status"] == "error"

    def test_one_walk_per_graph(self, capsys, monkeypatch, tmp_path):
        # One walk over the whole complex, under the guard, and none for
        # its links.  K_{2,2} has two twin classes, {x1, x2} and {y1, y2},
        # and the walk branches on one bit of each, its lowest: x1 and y1,
        # which its first set, the empty one, holds free.
        doc = tmp_path / "k22.graph"
        doc.write_text(K22)
        real, calls = simplicial._walk, []

        def counting(nbrs, allowed):
            sets = real(nbrs, allowed)
            calls.append((allowed, sets[0]))
            return sets

        monkeypatch.setattr(simplicial, "_walk", counting)
        assert main(["verify", str(doc)]) == 0
        assert calls == [(0b1111, (0, 0b0101))]

    def test_three_disjoint_k33s(self, capsys, tmp_path):
        # 15^3 = 3,375 faces, under the guard; one block size, 3, over
        # d = 9 pairs, so t_sharp = 9 - 3 + 1 = 7 on both routes.
        doc = tmp_path / "k33x3.graph"
        doc.write_text(disjoint_k33s(3))
        code, report = run(capsys, "verify", str(doc))
        assert code == 0
        r = report["result"]
        assert r["agree"] is True
        assert r["structural_t_sharp"] == r["oracle_cm_codim"] == 7

    @pytest.mark.parametrize("builtin", [False, True], ids=["path", "builtin"])
    def test_d_and_a_graph_rejected(self, capsys, tmp_path, builtin):
        doc = tmp_path / "k22.graph"
        doc.write_text(K22)
        graph = ["--builtin", "fig1"] if builtin else [str(doc)]
        code, report = run(capsys, "verify", "--d", "2", *graph)
        assert code == 1 and report["status"] == "error"
        assert report["result"]["message"] == \
            "give either --d or a single graph input, not both"

    def test_counterexamples_in_canonical_order(self, capsys, monkeypatch):
        # enumerate_unmixed lists its classes by least labelling, and only a
        # disagreement sorts them into the report's order, by canonical
        # form.  Here the four d = 4 classes with 7 edges disagree; the
        # enumerator lists them in another order.
        real_verify, real_canonical, calls = cli.verify_against_oracle, cli.canonical_form, []

        def counting(g):
            calls.append(g)
            return real_canonical(g)

        monkeypatch.setattr(cli, "canonical_form", counting)
        code, report = run(capsys, "verify", "--d", "4")
        assert code == 0 and report["result"]["counterexamples"] == []
        assert calls == []

        def skewed(g):
            r = real_verify(g)
            return r._replace(agree=False, mismatches=("chosen",)) if len(g.edges) == 7 else r

        monkeypatch.setattr(cli, "verify_against_oracle", skewed)
        code, report = run(capsys, "verify", "--d", "4")
        assert code == 2
        chosen = [g for g in enumerate_unmixed(4) if len(g.edges) == 7]
        expected = [to_document(g) for g in sorted(chosen, key=lambda g: canonical_form(g).code)]
        assert len(expected) == 4 and expected != [to_document(g) for g in chosen]
        assert report["result"]["disagreements"] == 4
        assert [c["document"] for c in report["result"]["counterexamples"]] == expected
        assert all(c["mismatches"] == ["chosen"] for c in report["result"]["counterexamples"])

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        # The package re-exports the classify function under the same name
        # as its module, so go through sys.modules for the module itself.
        import importlib

        classify_mod = importlib.import_module("cmtgraphs.classify")
        real = classify_mod.classify

        def skewed(g):
            r = real(g)
            return r._replace(t_sharp=(r.t_sharp or 0) + 1)

        monkeypatch.setattr(classify_mod, "classify", skewed)
        code, report = run(capsys, "verify", "--builtin", "fig1")
        assert code == 2
        assert report["status"] == "disagreement"
        assert report["result"]["mismatches"]


class TestExpandContract:
    def test_expand_to_complete_block(self, capsys, tmp_path):
        doc = tmp_path / "edge.exp"
        doc.write_text("L: x1\nR: y1\nE: x1-y1\nM: 3\n")
        code, report = run(capsys, "expand", str(doc))
        assert code == 0
        r = report["result"]
        assert r["vertices"] == 6 and r["edges"] == 9
        g = parse_graph(r["document"])
        assert canonical_form(g) == canonical_form(
            parse_graph("L: a1 a2 a3\nR: b1 b2 b3\n"
                        "E: a1-b1 a1-b2 a1-b3 a2-b1 a2-b2 a2-b3 a3-b1 a3-b2 a3-b3\n"))

    def test_expand_requires_multiplicities(self, capsys, tmp_path):
        doc = tmp_path / "bare.graph"
        doc.write_text("L: x1\nR: y1\nE: x1-y1\n")
        code, report = run(capsys, "expand", str(doc))
        assert code == 1 and "M:" in report["result"]["message"]

    def test_expand_refused_past_the_edge_limit(self, capsys, tmp_path, monkeypatch):
        # One pair at M: 6000 asks for 36 million edges: an error report,
        # with nothing built.
        def no_build(base, multiplicities):
            raise AssertionError("_blow_up reached")

        monkeypatch.setattr(construct, "_blow_up", no_build)
        doc = tmp_path / "huge.exp"
        doc.write_text("L: x1\nR: y1\nE: x1-y1\nM: 6000\n")
        code, report = run(capsys, "expand", str(doc))
        assert code == 1 and report["status"] == "error"
        assert report["result"]["message"] == (
            "expansion guard: 36000000 edges asked for, more than 250000")

    def test_contract_fig1(self, capsys):
        code, report = run(capsys, "contract", "--builtin", "fig1")
        assert code == 0
        r = report["result"]
        assert r["multiplicities"] == [1, 3]
        assert r["predicted_codim"] == 2
        assert r["document"].strip().endswith("M: 1 3")

    def test_contract_nine_pairs(self, capsys, tmp_path):
        doc = tmp_path / "chain9.graph"
        doc.write_text("L: " + " ".join(f"x{i}" for i in range(9))
                       + "\nR: " + " ".join(f"y{i}" for i in range(9))
                       + "\nE: " + " ".join(f"x{i}-y{j}" for i in range(9)
                                             for j in range(i, 9)) + "\n")
        code, report = run(capsys, "contract", str(doc))
        assert code == 0
        assert report["result"]["multiplicities"] == [1] * 9
        assert report["result"]["predicted_codim"] == 0

    def test_round_trip_through_commands(self, capsys, tmp_path):
        doc = tmp_path / "base.exp"
        doc.write_text("L: x1 x2\nR: y1 y2\nE: x1-y1 x2-y2\nM: 2 2\n")
        _, expanded = run(capsys, "expand", str(doc))
        staged = tmp_path / "expanded.graph"
        staged.write_text(expanded["result"]["document"])
        code, report = run(capsys, "contract", str(staged))
        assert code == 0
        assert report["result"]["multiplicities"] == [2, 2]
        assert report["result"]["predicted_codim"] == 3


class TestEnumerate:
    def test_cm_dimension_two(self, capsys):
        code, report = run(capsys, "enumerate", "--cm", "2")
        assert code == 0
        r = report["result"]
        assert r["dimension_or_t"] == {"dimension": 2}
        assert r["count"] == 4 and r["files"] == []

    def test_cmt_families_include_details(self, capsys):
        code, report = run(capsys, "enumerate", "--cmt", "3")
        assert code == 0
        r = report["result"]
        assert r["count"] == 9 and r["connected_count"] == 5
        assert len(r["families"]) == 9
        assert sum(1 for f in r["families"] if f["parametric"]) == 7

    def test_out_writes_documents(self, capsys, tmp_path):
        out = tmp_path / "cm2"
        code, report = run(capsys, "enumerate", "--cm", "2", "--out", str(out))
        assert code == 0
        files = report["result"]["files"]
        assert len(files) == 4
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["files"] == files
        codes = {canonical_form(parse_graph((out / f).read_text()))
                 for f in files}
        assert len(codes) == 4
        for f in files:
            assert classify(parse_graph((out / f).read_text())).t_sharp == 0

    @pytest.mark.parametrize("mode", ["--cm", "--cmt"])
    def test_out_changes_only_files(self, capsys, tmp_path, mode):
        code, bare = run(capsys, "enumerate", mode, "3")
        assert code == 0
        code, written = run(capsys, "enumerate", mode, "3", "--out", str(tmp_path))
        assert code == 0
        bare, written = bare["result"], written["result"]
        assert bare["files"] == [] and written["files"]
        assert dict(bare, files=written["files"]) == written
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            written["files"] + ["manifest.json"])
        written.pop("families", None)
        assert json.loads((tmp_path / "manifest.json").read_text()) == written

    def test_requires_a_mode(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["enumerate"])
        assert err.value.code == 1

    def test_guard_exceeded(self, capsys):
        code, report = run(capsys, "enumerate", "--cm", "7")
        assert code == 1 and report["status"] == "error"

    def test_cmt_past_the_cm_bases(self, capsys):
        code, report = run(capsys, "enumerate", "--cmt", "6", "--max-total", "7")
        assert code == 1 and report["status"] == "error"
        assert report["result"]["message"] == "t must be between 2 and 5"

    def test_max_total_only_with_cmt(self, capsys):
        code, report = run(capsys, "enumerate", "--cm", "2", "--max-total", "1")
        assert code == 1 and report["status"] == "error"
        assert "--max-total" in report["result"]["message"]


class TestErrors:
    def test_missing_file(self, capsys):
        code, report = run(capsys, "classify", "/nonexistent/g.graph")
        assert code == 1 and report["status"] == "error"

    def test_malformed_document(self, capsys, tmp_path):
        doc = tmp_path / "bad.graph"
        doc.write_text("L: x1\nR: y1\nE: x1~y1\n")
        code, report = run(capsys, "classify", str(doc))
        assert code == 1
        assert "line 3" in report["result"]["message"]

    def test_no_input_is_an_error_report(self, capsys):
        code, report = run(capsys, "classify")
        assert code == 1 and report["status"] == "error"
        assert "no input given" in report["result"]["message"]

    def test_unknown_builtin_names_the_builtins(self):
        with pytest.raises(ValueError) as err:
            builtin_document("nope")
        message = str(err.value)
        assert message.startswith("unknown builtin 'nope'")
        assert all(name in message for name in BUILTIN_NAMES), message

    def test_both_inputs_rejected(self, capsys, tmp_path):
        doc = tmp_path / "k22.graph"
        doc.write_text(K22)
        code, report = run(capsys, "classify", str(doc), "--builtin", "fig1")
        assert code == 1 and "either" in report["result"]["message"]

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--no-such-flag"])
        assert err.value.code == 1

    @pytest.mark.parametrize("argv, command, message", [
        (["enumerate"], "enumerate", "one of the arguments --cm --cmt is required"),
        (["classify", "--builtin", "nope"], "classify", "argument --builtin: invalid choice"),
        # The top-level parser finds an unknown flag, so no command is named.
        (["classify", "--no-such-flag"], None, "unrecognized arguments: --no-such-flag"),
        # An exact --quiet after the subcommand silences a usage error too.
        (["classify", "--quiet", "--builtin", "nope"], None, None),
    ])
    def test_usage_errors_are_reports(self, capsys, argv, command, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        if message is None:
            assert captured == ("", "")
            return
        report = json.loads(captured.out)
        assert set(report) == {"command", "input_digest", "input", "status",
                               "elapsed_ms", "result"}
        assert report["command"] == command
        assert report["input"] == "" and report["input_digest"] == hashlib.sha256(b"").hexdigest()[:16]
        assert report["status"] == "error" and report["elapsed_ms"] == 0
        assert set(report["result"]) == {"message"}
        assert report["result"]["message"].startswith(message)
        assert captured.err == ""

    def test_help_is_not_a_report(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cmtgraphs classify")

    def test_report_schema_on_error(self, capsys):
        code, report = run(capsys, "classify", "/nonexistent/g.graph")
        assert set(report) == {"command", "input_digest", "input", "status",
                               "elapsed_ms", "result"}
        assert report["input"] == "/nonexistent/g.graph"
        assert report["input_digest"] == hashlib.sha256(
            b"/nonexistent/g.graph").hexdigest()[:16]

    def test_digest_follows_the_document(self, capsys, tmp_path):
        doc = tmp_path / "g.graph"
        digests = []
        for text in (K22, "L: x1\nR: y1\nE: x1-y1\n"):
            doc.write_text(text)
            _, report = run(capsys, "classify", str(doc))
            assert report["input"] == str(doc)
            assert report["input_digest"] == hashlib.sha256(
                text.encode()).hexdigest()[:16]
            digests.append(report["input_digest"])
        assert digests[0] != digests[1]

    @pytest.mark.parametrize("fault, message", [
        (ConsistencyError("boom"), "boom"),
        (RecursionError("maximum recursion depth exceeded"),
         "maximum recursion depth exceeded"),
        (MemoryError(), "MemoryError"),
    ])
    def test_internal_fault_is_a_json_error(self, capsys, monkeypatch, fault, message):
        def broken(args):
            raise fault

        monkeypatch.setitem(cli._HANDLERS, "classify", broken)
        code, report = run(capsys, "classify", "--builtin", "fig1")
        assert code == 1
        assert report["status"] == "error"
        assert report["result"] == {"message": message}
        assert report["input"] == "builtin:fig1"
        assert set(report) == {"command", "input_digest", "input", "status",
                               "elapsed_ms", "result"}

    def test_json_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--builtin", "fig1", "--json"])
        assert err.value.code == 1


class TestParserBuiltOnce:
    def test_no_argument_added_per_call(self, capsys, monkeypatch):
        # The first usage error builds the parser, if nothing has yet;
        # a second one and a well-formed command add no argument.
        with pytest.raises(SystemExit):
            main(["classify", "--no-such-flag"])
        capsys.readouterr()
        real, added = argparse._ActionsContainer.add_argument, []

        def counting(self, *args, **kwargs):
            added.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        code, _ = run(capsys, "classify", "--builtin", "fig1")
        assert code == 0
        with pytest.raises(SystemExit) as err:
            main(["classify", "--no-such-flag"])
        assert err.value.code == 1 and added == []

    def test_max_t_does_not_carry_over(self, capsys):
        _, first = run(capsys, "oracle", "--builtin", "fig1", "--max-t", "2")
        _, second = run(capsys, "oracle", "--builtin", "fig1")
        assert first["result"]["max_t"] == 2
        assert "max_t" not in second["result"]
        assert "cm_within_max_t" not in second["result"]

    def test_max_total_does_not_carry_over(self, capsys):
        _, first = run(capsys, "enumerate", "--cmt", "3", "--max-total", "4")
        _, second = run(capsys, "enumerate", "--cmt", "3")
        parametric = [[f["instances"] for f in r["result"]["families"] if f["parametric"]]
                      for r in (first, second)]
        assert parametric[0] and set(parametric[0]) == {1}
        assert parametric[1] and set(parametric[1]) == {2}

    def test_usage_error_after_a_successful_call(self, capsys):
        code, _ = run(capsys, "classify", "--builtin", "fig1")
        assert code == 0
        with pytest.raises(SystemExit) as err:
            main(["classify", "--no-such-flag"])
        assert err.value.code == 1


class TestArgvTable:
    def test_every_short_argv_against_argparse(self):
        # 43,225 argvs: each subcommand and an unknown one, then up to 3
        # tokens from cli_argv.POOL.  The table reads 182 of them alone,
        # each as argparse reads it; the rest go to argparse unchanged
        # through `_parse`, which a seeded sample of them and picked ones
        # check: usage errors with and without an exact --quiet, help, and
        # argvs argparse reads that the table leaves to it.
        argvs = list(every(3))
        read = [argv for argv in argvs if cli._read_table(argv) is not None]
        assert len(argvs) == 43225 and len(read) == 182
        assert check_table_against_argparse(read) == 182
        declined = [argv for argv in argvs if cli._read_table(argv) is None]
        picked = random.Random(36).sample(declined, 300) + [
            ["classify", "--quiet", "--max"], ["classify", "--max", "--quiet"],
            ["classify", "--quiet", "-1"], ["nope", "--quiet"], ["classify", "--quiet=1"],
            ["verify", "--d=3"], ["oracle", "--max", "2"],
            ["enumerate", "--cm", "3", "--cmt", "3"], ["enumerate", "--quiet"],
            ["classify", "-h"], ["classify", "--quiet", "--", "fig1"],
        ]
        assert not any(map(cli._read_table, picked))
        assert check_table_against_argparse(picked) == 0

    @pytest.mark.parametrize("argv", [
        # The benchmark's shapes, read with no argparse.
        ["oracle", "graphs/g.graph"], ["verify", "graphs/g.graph"],
        ["classify", "graphs/g.graph"], ["enumerate", "--cm", "4"], ["verify", "--d", "4"],
        # Read by the table too, past the pool's reach.
        ["enumerate", "--max-total", "4", "--cmt", "3", "--quiet", "--out", "dir"],
        ["oracle", "g", "--max-t", " 2"], ["classify", "--builtin", "fig1", "g.graph"],
    ])
    def test_well_formed_argvs_need_no_argparse(self, argv):
        assert cli._read_table(argv) is not None
        assert check_table_against_argparse([argv]) == 1

    @pytest.mark.parametrize("argv", [
        # argparse keeps the last value of a repeated option.
        ["oracle", "--max-t", "1", "--max-t", "2"],
        ["enumerate", "--cm", "2", "--out", "a", "--out", "b"],
        # A value that starts with "-" is an option string to argparse.
        ["enumerate", "--cm", "2", "--out", "-h"],
        ["enumerate", "--cmt", "3", "--out", "--quiet"],
        ["enumerate", "--cm", "2", "--cmt", "3"],
    ])
    def test_argvs_past_the_pool_go_to_argparse(self, argv):
        assert cli._read_table(argv) is None
        assert check_table_against_argparse([argv]) == 0


_scalars = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64)
            | st.floats() | st.text(st.characters(exclude_categories=())))
_json_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(st.characters(exclude_categories=())), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=4)),
    max_leaves=24)


@given(_json_values)
def test_writer_matches_json(value):
    # Non-ASCII, control and surrogate characters, large ints, nan and
    # inf, int keys and empty containers, nested.
    assert cli._dump(value, "") == json.dumps(value, indent=2, sort_keys=True)
