"""Command line surface: reports, exit codes, determinism."""

import hashlib
import json

import pytest

from cmtgraphs import ConsistencyError, canonical_form, classify, parse_graph
from cmtgraphs import cli, simplicial
from cmtgraphs.cli import main

K22 = "L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y1 x2-y2\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


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
        # complex; the report's betti must reuse that computation.
        n = max(j for _, j in pairs) + 1
        doc = tmp_path / "g.graph"
        doc.write_text(f"L: {' '.join(f'x{i}' for i in range(n))}\n"
                       f"R: {' '.join(f'y{i}' for i in range(n))}\n"
                       f"E: {' '.join(f'x{i}-y{j}' for i, j in pairs)}\n")
        real, seen = simplicial.reduced_homology, []

        def counting(c):
            seen.append(c.facets)
            return real(c)

        monkeypatch.setattr(simplicial, "reduced_homology", counting)
        code, report = run(capsys, "oracle", str(doc))
        assert code == 0 and report["result"]["cm_codim"] == codim
        assert seen and len(seen) == len(set(seen))

    def test_max_t_flag(self, capsys):
        code, report = run(capsys, "oracle", "--builtin", "fig2", "--max-t", "2")
        assert code == 0
        r = report["result"]
        assert r["cm_codim"] == 3
        assert r["max_t"] == 2 and r["cm_within_max_t"] is False

    def test_vertex_guard(self, capsys, tmp_path):
        left = " ".join(f"x{i}" for i in range(11))
        right = " ".join(f"y{i}" for i in range(11))
        edges = " ".join(f"x{i}-y{i}" for i in range(11))
        doc = tmp_path / "wide.graph"
        doc.write_text(f"L: {left}\nR: {right}\nE: {edges}\n")
        code, report = run(capsys, "oracle", str(doc))
        assert code == 1
        assert report["status"] == "error"
        assert "guard" in report["result"]["message"]
        assert str(cli.ORACLE_FACE_LIMIT) in report["result"]["message"]

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


class TestVerify:
    def test_harness_over_d2(self, capsys):
        code, report = run(capsys, "verify", "--d", "2")
        assert code == 0
        r = report["result"]
        assert r["instances"] == 3 and r["disagreements"] == 0
        assert r["counterexamples"] == []

    def test_single_graph(self, capsys):
        code, report = run(capsys, "verify", "--builtin", "fig1")
        assert code == 0
        r = report["result"]
        assert r["agree"] is True
        assert r["structural_t_sharp"] == r["oracle_cm_codim"] == 2

    def test_needs_some_input(self, capsys):
        code, report = run(capsys, "verify")
        assert code == 1 and report["status"] == "error"

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        # The package re-exports the classify function under the same name
        # as its module, so go through sys.modules for the module itself.
        import importlib

        classify_mod = importlib.import_module("cmtgraphs.classify")
        real = classify_mod.classify

        def skewed(g):
            r = real(g)
            object.__setattr__(r, "t_sharp", (r.t_sharp or 0) + 1)
            return r

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

    def test_requires_a_mode(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["enumerate"])
        assert err.value.code == 1

    def test_guard_exceeded(self, capsys):
        code, report = run(capsys, "enumerate", "--cm", "7")
        assert code == 1 and report["status"] == "error"


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

    def test_both_inputs_rejected(self, capsys, tmp_path):
        doc = tmp_path / "k22.graph"
        doc.write_text(K22)
        code, report = run(capsys, "classify", str(doc), "--builtin", "fig1")
        assert code == 1 and "either" in report["result"]["message"]

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--no-such-flag"])
        assert err.value.code == 1

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
