import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cckit import bench
from cckit.cli import main
from cckit.complex import build_cc, decode_json, encode_json, graph_as_cc, parse_edge_list
from cckit.covering import cell_map_from_node_map, strip_covers
from cckit.generators import cycle_graph, cylinder, mog_example_pair, moebius, torus
from cckit.lifting import MogParams, mog_pool, triangular_lift
from cckit.refinement import Engine, HompBlock, smcn_refine


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cyl_file(tmp_path):
    path = tmp_path / "cyl.json"
    path.write_bytes(encode_json(cylinder((3, 4))))
    return str(path)


@pytest.fixture()
def dataset_file(tmp_path):
    """The one torus pair on 18 nodes."""
    path = tmp_path / "pairs.jsonl"
    with open(path, "w") as fp:
        bench.write_dataset(bench.gen_torus_dataset(bench.TorusDatasetSpec(18, 18, 3)), fp)
    return str(path)


def map_doc(m) -> dict:
    return {
        "source": json.loads(encode_json(m.source)),
        "target": json.loads(encode_json(m.target)),
        "assignment": [list(row) for row in m.assignment],
    }


def assert_one_line(code, text, expected_code):
    """The exit code and a single line of output, with no traceback."""
    assert code == expected_code
    assert text.count("\n") == 1 and "Traceback" not in text


@pytest.fixture()
def mob_file(tmp_path):
    path = tmp_path / "mob.json"
    path.write_bytes(encode_json(moebius((3, 4))))
    return str(path)


class TestGen:
    def test_torus(self, capsys):
        code, out, _ = run(capsys, "gen", "torus", "--periods", "3,3")
        assert code == 0
        assert decode_json(out) == torus((3, 3))

    def test_star_edge_list(self, capsys):
        code, out, _ = run(capsys, "gen", "star", "--n", "2", "--k", "6")
        assert code == 0
        assert parse_edge_list(out).num_nodes == 18

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "torus", "--periods", "2,3")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("family, build", [("cylinder", cylinder), ("moebius", moebius)])
    def test_strips(self, capsys, family, build):
        code, out, _ = run(capsys, "gen", family, "--height", "3", "--perimeter", "4")
        assert code == 0
        assert decode_json(out) == build((3, 4))

    def test_cycle(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "--n", "5")
        assert code == 0
        assert parse_edge_list(out) == cycle_graph(5)

    @pytest.mark.parametrize("side", [0, 1])
    def test_mog_pair(self, capsys, side):
        code, out, _ = run(capsys, "gen", "mog-pair", "--side", ("left", "right")[side])
        assert code == 0
        assert parse_edge_list(out) == mog_example_pair()[side]

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "torus"])  # missing --periods
        assert exc.value.code == 1


class TestLiftPool(object):
    def test_lift_cyclic(self, capsys, tmp_path, monkeypatch):
        graph_file = tmp_path / "c6.txt"
        graph_file.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        code, out, _ = run(capsys, "lift", "--method", "cyclic", "-i", str(graph_file))
        assert code == 0
        cc = decode_json(out)
        assert cc.skeleton_sizes() == (6, 6, 1)

    def test_lift_triangular(self, capsys, tmp_path):
        graph_file = tmp_path / "k4.txt"
        graph_file.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "lift", "--method", "triangular", "-i", str(graph_file))
        assert code == 0
        assert decode_json(out) == triangular_lift(parse_edge_list(graph_file.read_text()))

    def test_lift_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"))
        code, out, _ = run(capsys, "lift", "--method", "cyclic", "-i", "-")
        assert code == 0
        assert decode_json(out).skeleton_sizes() == (6, 6, 1)

    def test_pool_given_cover(self, capsys, tmp_path):
        left, _ = mog_example_pair()
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("6 7\n0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n")
        code, out, _ = run(
            capsys, "pool", "--eta", "1/12", "--eps", "1/8", "-i", str(graph_file)
        )
        assert code == 0
        expected = mog_pool(left, MogParams(Fraction(1, 12), Fraction(1, 8)))
        assert decode_json(out) == expected

    def test_pool_default_fine(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("2 1\n0 1\n")
        code, out, _ = run(capsys, "pool", "-i", str(graph_file))
        assert code == 0
        assert decode_json(out).cells(2) == ((0, 1),)


class TestInvariantsCmd:
    def test_json_report(self, capsys, cyl_file):
        code, out, _ = run(capsys, "invariants", cyl_file, "--cross-k", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["betti_gf2"] == [1, 1, 0]
        assert doc["orientability"] == "orientable"
        assert doc["boundary_cycle_lengths"] == [4, 4]

    def test_cross_diameter_undefined(self, capsys, cyl_file):
        # a cylinder has no rank-3 cells to measure the distance to
        code, out, _ = run(capsys, "invariants", cyl_file, "--cross-k", "3", "--json")
        assert code == 0
        assert json.loads(out)["cross_diameter"] == {
            "A_{0,1};k=3": "undefined (skeleton 3 is empty)"
        }

    def test_text_report(self, capsys, mob_file):
        code, out, _ = run(capsys, "invariants", mob_file)
        assert code == 0
        assert "non-orientable" in out

    def test_not_a_chain_complex(self, capsys, tmp_path):
        # a 2-cell whose only face is one edge: d_1 d_2 is nonzero at (1, 0, 0)
        path = tmp_path / "cc.json"
        path.write_bytes(encode_json(build_cc([((0, 1), 1), ((0, 1), 2)], 2)))
        code, out, _ = run(capsys, "invariants", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["betti_gf2"] is None
        assert doc["chain_complex_violation"] == [1, 0, 0]
        assert list(doc).index("chain_complex_violation") == list(doc).index("betti_gf2") + 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"dimension": 2, "num_nodes": 4, "cells": [None, [[0, 1], [0, 1, 3], [1, 2], [2, 3]], [[0, 1, 2, 3]]]},
            {"dimension": 2, "num_nodes": 3, "cells": [None, [[0, 1, 2]], [[0, 1, 2]]]},
            {"dimension": 2, "num_nodes": 4, "cells": [None, [[0, 1, 2], [2, 3]], [[0, 1, 2, 3]]]},
        ],
    )
    def test_boundary_cell_not_vertex_pair(self, capsys, tmp_path, doc):
        # the boundary edge graph needs its rank-1 cells to be vertex pairs;
        # without that the rest of the report still stands
        path = tmp_path / "cc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "invariants", str(path), "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        cell = next(tuple(c) for c in doc["cells"][1] if len(c) != 2)
        undefined = f"undefined (boundary rank-1 cell {cell} is not a vertex pair)"
        assert report["boundary_cycle_lengths"] == report["boundary_edge_count"] == undefined
        assert report["orientability"] == "not-a-surface"


class TestDistinguishCmd:
    def test_homp_engine(self, capsys, cyl_file, mob_file):
        code, out, _ = run(capsys, "distinguish", cyl_file, mob_file, "--engine", "homp")
        assert code == 0
        assert "indistinguishable" in out

    def test_scl_engine(self, capsys, cyl_file, mob_file):
        code, out, _ = run(
            capsys, "distinguish", cyl_file, mob_file, "--engine", "scl:0,1,dist"
        )
        assert code == 0
        assert "distinguished" in out

    def test_oracle_engine(self, capsys, cyl_file, mob_file):
        code, out, _ = run(capsys, "distinguish", cyl_file, mob_file, "--engine", "oracle")
        assert code == 0
        assert "distinguished" in out

    @pytest.mark.parametrize(
        "engine, rounds, verdict",
        [
            ("homp", "2", "indistinguishable (engine homp)"),
            ("scl:0,1,dist", "1", "distinguished (engine scl:0,1,dist, round 1)"),
        ],
    )
    def test_capped_rounds(self, capsys, cyl_file, mob_file, engine, rounds, verdict):
        code, out, _ = run(
            capsys, "distinguish", cyl_file, mob_file, "--engine", engine, "--rounds", rounds
        )
        assert code == 0
        assert out.strip() == verdict

    def test_emit_colors(self, capsys, cyl_file, mob_file):
        code, out, _ = run(
            capsys, "distinguish", cyl_file, mob_file, "--engine", "homp", "--emit-colors"
        )
        assert code == 0
        assert "rank_histograms" in out

    @pytest.mark.parametrize(
        "argv, stages",
        [
            (["homp"], Engine.homp_full().stages),
            (["homp", "--rounds", "1"], (HompBlock(None, 1),)),
            (["scl:0,1,dist"], Engine.scl(0, 1, "distance").stages),
            (["smcn"], Engine.smcn().stages),
        ],
        ids=["homp", "homp_rounds_1", "scl_01_dist", "smcn"],
    )
    def test_emit_colors_of_the_engine_run(self, capsys, cyl_file, mob_file, argv, stages):
        code, out, _ = run(capsys, "distinguish", cyl_file, mob_file, "--engine", *argv, "--emit-colors")
        assert code == 0
        emitted = json.loads(out.splitlines()[1])
        ccs = [decode_json(open(path, "rb").read()) for path in (cyl_file, mob_file)]
        expected = [
            {"rank_histograms": [list(map(list, h)) for h in fp.rank_histograms]}
            for fp in smcn_refine(ccs, stages)
        ]
        assert emitted == expected
        if argv == ["smcn"]:  # smcn separates the strips by their cell colors
            assert emitted[0] != emitted[1]

    def test_emit_colors_oracle_prints_none(self, capsys, cyl_file, mob_file):
        code, out, _ = run(
            capsys, "distinguish", cyl_file, mob_file, "--engine", "oracle", "--emit-colors"
        )
        assert code == 0
        assert out == "distinguished (engine oracle, round None)\n"

    def test_oracle_unknown(self, capsys, monkeypatch, tmp_path):
        # a search whose budget runs out decides nothing: it prints "unknown",
        # never "indistinguishable", and still exits 0
        paths = []
        for periods in ((4, 10), (5, 8)):
            paths.append(tmp_path / f"torus{periods[0]}x{periods[1]}.json")
            paths[-1].write_bytes(encode_json(torus(periods)))
        monkeypatch.setenv("CCKIT_ORACLE_BUDGET", "3")
        code, out, _ = run(capsys, "distinguish", *map(str, paths), "--engine", "oracle")
        assert code == 0
        assert out == "unknown (engine oracle:unknown)\n"


class TestCoverCmds:
    def test_verify_cover_ok(self, capsys, tmp_path):
        cover, to_cyl, _ = strip_covers(3, 4)
        doc = {
            "source": json.loads(encode_json(cover)),
            "target": json.loads(encode_json(to_cyl.target)),
            "assignment": [list(row) for row in to_cyl.assignment],
        }
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify-cover", str(path))
        assert code == 0
        assert out.strip() == "Ok"

    def test_verify_cover_violation(self, capsys, tmp_path):
        # folding the 6-cycle onto the triangle twice per lap maps node 0's
        # two neighbors onto one node: a cell map, but no covering
        c6, c3 = graph_as_cc(cycle_graph(6)), graph_as_cc(cycle_graph(3))
        path = tmp_path / "fold.json"
        path.write_text(json.dumps(map_doc(cell_map_from_node_map(c6, c3, [0, 1, 2, 0, 2, 1]))))
        code, out, err = run(capsys, "verify-cover", str(path))
        assert_one_line(code, out, 2)
        assert out == "neighborhood does not map bijectively at rank-0 cell (0,) under A_{0,1}\n"
        assert err == ""

    def test_check_iso_ok(self, capsys, tmp_path):
        _, to_cyl, _ = strip_covers(3, 4)
        cyl = to_cyl.target
        identity = cell_map_from_node_map(cyl, cyl, list(range(cyl.num_nodes)))
        path = tmp_path / "map.json"
        path.write_text(json.dumps(map_doc(identity)))
        code, out, _ = run(capsys, "check-iso", str(path))
        assert code == 0
        assert out.strip() == "Ok"

    def test_check_iso_violation(self, capsys, tmp_path):
        _, to_cyl, _ = strip_covers(3, 4)
        doc = {
            "source": json.loads(encode_json(to_cyl.source)),
            "target": json.loads(encode_json(to_cyl.target)),
            "assignment": [list(row) for row in to_cyl.assignment],
        }
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check-iso", str(path))
        assert code == 2
        assert "sizes differ" in out or "injective" in out


class TestDatasetCmds:
    def test_gen_dataset_positional(self, capsys, tmp_path):
        out_file = tmp_path / "pairs.jsonl"
        code, _, err = run(
            capsys, "gen-torus-dataset", "18", "18", "3", "-o", str(out_file)
        )
        assert code == 0
        assert "wrote 1 pairs" in err
        assert len(out_file.read_text().splitlines()) == 1

    def test_gen_dataset_to_stdout(self, capsys):
        code, out, err = run(capsys, "gen-torus-dataset", "18", "18", "3", "-o", "-")
        assert code == 0
        assert "wrote 1 pairs" in err
        assert len(bench.read_dataset(out.splitlines())) == 1

    def test_expectation_violation_dumps(self, capsys, tmp_path):
        out_file = tmp_path / "pairs.jsonl"
        code, _, err = run(
            capsys,
            "gen-torus-dataset", "18", "18", "3",
            "-o", str(out_file), "--expect-pairs", "5",
        )
        assert code == 3
        assert "enumeration dump" in err
        assert "18 nodes" in err

    def test_run_benchmark(self, capsys, tmp_path):
        out_file = tmp_path / "pairs.jsonl"
        run(capsys, "gen-torus-dataset", "18", "18", "3", "-o", str(out_file))
        code, out, _ = run(
            capsys,
            "run-benchmark", "--dataset", str(out_file),
            "--engines", "homp,smcn,oracle",
            "--expect", "homp=0", "--expect", "smcn:default=1", "--expect", "oracle=1",
        )
        assert code == 0
        assert "homp: separated 0/1" in out

    def test_run_benchmark_expectation_violation(self, capsys, tmp_path):
        out_file = tmp_path / "pairs.jsonl"
        run(capsys, "gen-torus-dataset", "18", "18", "3", "-o", str(out_file))
        code, _, err = run(
            capsys,
            "run-benchmark", "--dataset", str(out_file),
            "--engines", "homp", "--expect", "homp=1",
        )
        assert code == 3
        assert "expectation violated" in err

    def test_label_lifted(self, capsys, tmp_path):
        graphs_file = tmp_path / "graphs.txt"
        graphs_file.write_text(
            "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"  # C6
            "4 3\n0 1\n1 2\n1 3\n"  # tree
        )
        out_file = tmp_path / "labels.jsonl"
        code, _, _ = run(
            capsys, "label-lifted", "-i", str(graphs_file), "-o", str(out_file)
        )
        assert code == 0
        lines = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert lines[0]["cross_diameter_012"] == 0
        assert lines[0]["betti2"] == 0
        assert lines[1]["cross_diameter_012"] is None

    def test_label_lifted_stdin_to_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"))
        code, out, err = run(capsys, "label-lifted", "-i", "-", "-o", "-")
        assert code == 0 and err == ""
        (line,) = out.splitlines()
        record = json.loads(line)
        assert (record["index"], record["cross_diameter_012"], record["betti2"]) == (0, 0, 0)

    def test_run_benchmark_json_report(self, capsys, tmp_path):
        out_file = tmp_path / "pairs.jsonl"
        run(capsys, "gen-torus-dataset", "18", "18", "3", "-o", str(out_file))
        code, out, _ = run(
            capsys,
            "run-benchmark", "--dataset", str(out_file), "--engines", "homp", "--json",
        )
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload[0]["engine"] == "homp"
        assert payload[0]["rounds"] == [None]

    def test_run_benchmark_unknown_fails_expectation(self, capsys, tmp_path, monkeypatch):
        # a one-node budget leaves the single-component pair undecided
        out_file = tmp_path / "pairs.jsonl"
        run(capsys, "gen-torus-dataset", "24", "24", "3", "-o", str(out_file))
        monkeypatch.setenv("CCKIT_ORACLE_BUDGET", "1")
        code, out, err = run(
            capsys,
            "run-benchmark", "--dataset", str(out_file),
            "--engines", "oracle", "--expect", "oracle=5", "--json",
        )
        assert code == 3
        assert "oracle: separated 5/6, 1 unknown" in out
        assert "unknown" in err
        payload = json.loads(out.splitlines()[-1])
        assert payload[0]["unknown"] == 1
        assert payload[0]["separated"] == 5

    def test_gen_cycle_product(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle-product", "--n", "3", "--m", "4")
        assert code == 0
        g = parse_edge_list(out)
        assert g.num_nodes == 12 and len(g.edges) == 24

    def test_label_lifted_continues_past_bad_record(self, capsys, tmp_path):
        graphs_file = tmp_path / "graphs.txt"
        graphs_file.write_text(
            "3 1\n0 9\n"  # node out of range
            "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"
        )
        out_file = tmp_path / "labels.jsonl"
        code, _, err = run(
            capsys, "label-lifted", "-i", str(graphs_file), "-o", str(out_file)
        )
        assert code == 2
        lines = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert "error" in lines[0]
        assert lines[1]["cross_diameter_012"] == 0


    def test_label_lifted_record_rejected_by_the_library(self, capsys, tmp_path):
        # a "0 0" block parses, and building its complex then raises a CCError
        graphs_file = tmp_path / "graphs.txt"
        graphs_file.write_text("0 0\n6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        out_file = tmp_path / "labels.jsonl"
        code, _, err = run(capsys, "label-lifted", "-i", str(graphs_file), "-o", str(out_file))
        assert_one_line(code, err, 2)
        assert err == "record 0: a complex needs at least one node\n"
        lines = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert lines[0] == {"index": 0, "error": "a complex needs at least one node"}
        assert lines[1]["cross_diameter_012"] == 0


class TestHostileInputs:
    """Malformed inputs end in one `error:` line and exit 2, never a traceback."""

    def assert_error_line(self, code, err):
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def cover_doc(self, assignment):
        cover, to_cyl, _ = strip_covers(3, 4)
        return {
            "source": json.loads(encode_json(cover)),
            "target": json.loads(encode_json(to_cyl.target)),
            "assignment": assignment,
        }

    def test_gen_torus_non_integer_period(self, capsys):
        code, _, err = run(capsys, "gen", "torus", "--periods", "3,x")
        self.assert_error_line(code, err)
        assert "--periods" in err

    def test_missing_complex_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "invariants", str(tmp_path / "missing.json"))
        self.assert_error_line(code, err)
        assert "cannot read" in err

    def test_unreadable_complex_file(self, capsys, tmp_path):
        # a directory cannot be read as a file, whoever runs the test
        code, _, err = run(capsys, "distinguish", str(tmp_path), str(tmp_path))
        self.assert_error_line(code, err)

    def test_non_utf8_complex_file(self, capsys, tmp_path):
        path = tmp_path / "cc.json"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "invariants", str(path))
        self.assert_error_line(code, err)

    def test_missing_cover_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-cover", str(tmp_path / "missing.json"))
        self.assert_error_line(code, err)
        assert "cannot read" in err

    def test_unreadable_cover_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check-iso", str(tmp_path))
        self.assert_error_line(code, err)

    def test_unwritable_output(self, capsys, tmp_path):
        missing_dir = tmp_path / "missing" / "pairs.jsonl"
        code, _, err = run(capsys, "gen-torus-dataset", "18", "18", "3", "-o", str(missing_dir))
        self.assert_error_line(code, err)
        assert "cannot write" in err

    @pytest.mark.parametrize("raw", ["abc", "1.5", ""])
    def test_oracle_budget_not_integer(self, capsys, monkeypatch, cyl_file, mob_file, raw):
        monkeypatch.setenv("CCKIT_ORACLE_BUDGET", raw)
        code, _, err = run(capsys, "distinguish", cyl_file, mob_file, "--engine", "oracle")
        self.assert_error_line(code, err)
        assert f"CCKIT_ORACLE_BUDGET={raw!r}" in err

    @pytest.mark.parametrize("bad", [0.5, True, "1", None])
    def test_cover_assignment_not_integer(self, capsys, tmp_path, bad):
        _, to_cyl, _ = strip_covers(3, 4)
        rows = [list(row) for row in to_cyl.assignment]
        rows[1][0] = bad
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(self.cover_doc(rows)))
        code, _, err = run(capsys, "verify-cover", str(path))
        self.assert_error_line(code, err)
        assert "assignment" in err

    def test_cover_assignment_not_rows(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(self.cover_doc(7)))
        code, _, err = run(capsys, "verify-cover", str(path))
        self.assert_error_line(code, err)

    @pytest.mark.parametrize("eta", ["abc", "1/0"])
    def test_pool_eta_not_rational(self, capsys, tmp_path, eta):
        path = tmp_path / "path.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, _, err = run(capsys, "pool", "--eta", eta, "--eps", "1/2", "-i", str(path))
        self.assert_error_line(code, err)
        assert "--eta" in err

    @pytest.mark.parametrize("given", [("--eta", "1/2"), ("--eps", "1/2")])
    def test_pool_eta_without_eps(self, capsys, tmp_path, given):
        # one of the two would silently fall back to the automatic fine cover
        path = tmp_path / "path.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, out, err = run(capsys, "pool", *given, "-i", str(path))
        self.assert_error_line(code, err)
        assert err == "error: --eta and --eps go together: give both or neither\n" and out == ""

    @pytest.mark.parametrize("engine", ["smcn", "smcn:default", "oracle"])
    def test_rounds_for_engine_without_rounds(self, capsys, cyl_file, mob_file, engine):
        code, out, err = run(
            capsys, "distinguish", cyl_file, mob_file, "--engine", engine, "--rounds", "1"
        )
        self.assert_error_line(code, err)
        assert err == f"error: --rounds caps the homp and scl engines only, not {engine!r}\n"
        assert out == ""

    @pytest.mark.parametrize("expect", ["homp=x", "nonsense"])
    def test_expect_not_engine_count(self, capsys, dataset_file, expect):
        code, _, err = run(
            capsys, "run-benchmark", "--dataset", dataset_file, "--engines", "homp", "--expect", expect
        )
        self.assert_error_line(code, err)
        assert "--expect" in err

    def test_expect_names_engine_that_does_not_run(self, capsys, dataset_file):
        # the smcn engine reports itself as smcn:default, so smcn=0 matches nothing
        code, _, err = run(
            capsys, "run-benchmark", "--dataset", dataset_file, "--engines", "smcn", "--expect", "smcn=0"
        )
        self.assert_error_line(code, err)
        assert "smcn:default" in err

    @pytest.mark.parametrize(
        "engine, message",
        [
            ("scl:0,1", "error: bad engine 'scl:0,1'; expected scl:R1,R2,dist|bin\n"),
            ("scl:0,x,bin", "error: bad engine 'scl:0,x,bin'; expected scl:R1,R2,dist|bin\n"),
            ("wl", "error: unknown engine 'wl'\n"),
        ],
    )
    def test_bad_engine(self, capsys, cyl_file, mob_file, engine, message):
        code, _, err = run(capsys, "distinguish", cyl_file, mob_file, "--engine", engine)
        self.assert_error_line(code, err)
        assert err == message

    @pytest.mark.parametrize("spec", ["X:0,1", "A:0", "A0,1", "B:0,y"])
    def test_bad_spec(self, capsys, cyl_file, spec):
        code, _, err = run(capsys, "invariants", cyl_file, "--spec", spec)
        self.assert_error_line(code, err)
        assert err == (
            f"error: bad neighborhood spec {spec!r}; expected KIND:r1,r2 with KIND in A|coA|B|BT\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "error: invalid JSON: "),
            ("[1, 2]", "error: cover JSON must be an object"),
            (
                '{"source": 5, "target": 5, "assignment": []}',
                "error: cover JSON source must be an object\n",
            ),
            (
                '{"source": {"dimension": 0, "num_nodes": 1, "cells": [null]}, "target": [1]}',
                "error: cover JSON target must be an object\n",
            ),
        ],
    )
    def test_cover_file_not_a_map(self, capsys, tmp_path, text, message):
        path = tmp_path / "cover.json"
        path.write_text(text)
        code, _, err = run(capsys, "verify-cover", str(path))
        self.assert_error_line(code, err)
        assert err.startswith(message)

    def test_cover_file_missing_field(self, capsys, tmp_path):
        doc = self.cover_doc([])
        del doc["target"]
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check-iso", str(path))
        self.assert_error_line(code, err)
        assert err == "error: cover JSON missing field 'target'\n"

    @pytest.mark.parametrize(
        "line, side",
        [
            ('{"left":{"cc":1},"right":{"cc":1}}', "left"),
            (
                '{"left":{"cc":{"dimension":0,"num_nodes":1,"cells":[null]}},'
                '"right":{"cc":1}}',
                "right",
            ),
        ],
    )
    def test_dataset_complex_not_an_object(self, capsys, tmp_path, line, side):
        path = tmp_path / "pairs.jsonl"
        path.write_text(line + "\n")
        code, _, err = run(capsys, "run-benchmark", "--dataset", str(path), "--engines", "homp")
        self.assert_error_line(code, err)
        assert err == f"error: dataset line 1: {side}.cc must be an object\n"

    @pytest.mark.parametrize("command", [("lift", "--method", "cyclic"), ("pool",)])
    def test_edge_list_node_count_beyond_int64(self, capsys, tmp_path, command):
        path = tmp_path / "graph.txt"
        path.write_text("1180591620717411303424 0\n")  # 2**70
        code, out, err = run(capsys, *command, "-i", str(path))
        self.assert_error_line(code, err)
        assert err == "error: line 1: node count 1180591620717411303424 does not fit int64 node ids\n"
        assert out == ""

    def test_label_lifted_node_count_beyond_int64(self, capsys, tmp_path):
        # reported for its record, as every failing record is
        path = tmp_path / "graphs.txt"
        path.write_text("1180591620717411303424 0\n3 1\n0 1\n")
        code, out, err = run(capsys, "label-lifted", "-i", str(path))
        assert code == 2
        assert err == "record 0: line 1: node count 1180591620717411303424 does not fit int64 node ids\n"
        first, second = map(json.loads, out.splitlines())
        assert first == {"index": 0, "error": err[len("record 0: ") : -1]}
        assert second["index"] == 1 and "error" not in second

    def test_json_node_count_beyond_int64(self, capsys, tmp_path):
        path = tmp_path / "cc.json"
        path.write_text('{"dimension": 0, "num_nodes": 18446744073709551616, "cells": [null]}')
        code, _, err = run(capsys, "invariants", str(path))
        self.assert_error_line(code, err)
        assert err == "error: num_nodes 18446744073709551616 does not fit int64 node ids\n"

    # every count in [2**60, 2**63) fails numpy's own size check, or gives an
    # empty arange, before any memory is touched
    UNALLOCATABLE = [2**60, 2**62, 2**63 - 1]

    @pytest.mark.parametrize("count", UNALLOCATABLE)
    @pytest.mark.parametrize(
        "command", [("lift", "--method", "cyclic"), ("lift", "--method", "triangular"), ("pool",)]
    )
    def test_edge_list_node_count_numpy_refuses(self, capsys, tmp_path, command, count):
        path = tmp_path / "graph.txt"
        path.write_text(f"{count} 0\n")
        code, out, err = run(capsys, *command, "-i", str(path))
        self.assert_error_line(code, err)
        assert err == f"error: cannot allocate {count} nodes\n"
        assert out == ""

    @pytest.mark.parametrize("count", UNALLOCATABLE)
    def test_label_lifted_node_count_numpy_refuses(self, capsys, tmp_path, count):
        path = tmp_path / "graphs.txt"
        path.write_text(f"{count} 0\n")
        code, out, err = run(capsys, "label-lifted", "-i", str(path))
        assert code == 2
        assert err == f"record 0: cannot allocate {count} nodes\n"
        assert json.loads(out) == {"index": 0, "error": f"cannot allocate {count} nodes"}

    def test_json_node_count_numpy_refuses(self, capsys, tmp_path):
        path = tmp_path / "cc.json"
        path.write_text(f'{{"dimension": 0, "num_nodes": {2**62}, "cells": [null]}}')
        code, _, err = run(capsys, "invariants", str(path))
        self.assert_error_line(code, err)
        assert err == f"error: cannot allocate {2**62} nodes\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("torus", "--periods", "2147483648,2147483648"), f"cannot allocate {2**62} nodes"),
            (
                ("torus", "--periods", "3,99999999999999999999"),
                "num_nodes 299999999999999999997 does not fit int64 node ids",
            ),
            (
                ("moebius", "--height", "3", "--perimeter", "99999999999999999999"),
                "num_nodes 299999999999999999997 does not fit int64 node ids",
            ),
        ],
    )
    def test_gen_node_count_numpy_refuses(self, capsys, argv, message):
        code, out, err = run(capsys, "gen", *argv)
        self.assert_error_line(code, err)
        assert err == f"error: {message}\n" and out == ""

    @pytest.mark.parametrize("entry", [2**63, 2**70, -(2**70)])
    @pytest.mark.parametrize("command", ["verify-cover", "check-iso"])
    def test_cover_assignment_beyond_int64(self, capsys, tmp_path, command, entry):
        _, to_cyl, _ = strip_covers(3, 4)
        rows = [list(row) for row in to_cyl.assignment]
        rows[1][0] = entry
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(self.cover_doc(rows)))
        code, out, err = run(capsys, command, str(path))
        self.assert_error_line(code, err)
        assert err == "error: assignment image index outside int64\n" and out == ""


# -- bounded fuzzing ------------------------------------------------------------
#
# Random small inputs through every command that reads one.  Node counts are at
# most 6, in [2**60, 2**63) (which numpy refuses to allocate before it touches
# memory), or at least 2**63 (past the int64 node ids).  Counts between 2**20
# and 2**60 are left out until an input size cap exists: without one a count
# such as 10**9 allocates gigabytes before any check (ROADMAP, array-native
# construction with an input cap).  Examples are derandomized, so the suite is
# repeatable.

FUZZ = settings(max_examples=40, deadline=None, derandomize=True)
NODE_COUNTS = st.one_of(st.integers(-1, 6), st.integers(2**60, 2**66))
JUNK = st.one_of(
    st.just(-1), st.just(2**64), st.booleans(), st.floats(), st.none(), st.text(max_size=2)
)
CELLS = st.one_of(
    st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True).map(sorted),
    st.lists(st.one_of(st.integers(-1, 7), JUNK), max_size=4),
)
VALID_DOCS = [
    json.loads(encode_json(cc))
    for cc in (torus((3, 3)), cylinder((3, 4)), moebius((3, 4)), build_cc([((0, 1), 1)], 3))
]
ENGINES = [
    "homp", "smcn", "smcn:default", "oracle",
    "scl:0,1,dist", "scl:0,1,bin", "scl:1,2,bin", "scl:0,2,dist", "scl:2,1,bin", "scl:0,4,dist",
]


@st.composite
def random_cc_docs(draw):
    dimension = draw(st.integers(-1, 3))
    layers = draw(st.sampled_from([dimension + 1] * 3 + [max(dimension, 0), dimension + 2]))
    cells = [draw(st.none() | st.lists(CELLS, max_size=5)) for _ in range(layers)]
    return {"dimension": dimension, "num_nodes": draw(NODE_COUNTS), "cells": cells}


@st.composite
def valid_cc_docs(draw):
    """A complex whose rank-r cells have r + 1 vertices, so ranks are monotone."""
    n = draw(st.integers(1, 6))
    layers = [None]
    for size in range(2, min(n, 4) + 1):
        cell = st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True).map(sorted)
        layer = draw(st.lists(cell, max_size=5, unique_by=tuple))
        if not layer:
            break
        layers.append(layer)
    return {"dimension": len(layers) - 1, "num_nodes": n, "cells": layers}


CC_DOCS = st.one_of(valid_cc_docs(), random_cc_docs(), st.sampled_from(VALID_DOCS), JUNK)
# image indices past int64 too, which no skeleton has
INDICES = st.one_of(st.integers(-1, 10), st.sampled_from([2**63, 2**70, -(2**70)]))
ASSIGNMENTS = st.one_of(
    st.lists(st.lists(INDICES, max_size=10), max_size=4), st.lists(JUNK, max_size=3), JUNK
)


@st.composite
def cover_docs(draw):
    """A real cover of the cylinder with one image index redrawn one time in
    two, then each part replaced one time in three."""
    doc = map_doc(strip_covers(3, 4)[1])
    if draw(st.booleans()):
        row = draw(st.sampled_from(doc["assignment"]))
        row[draw(st.integers(0, len(row) - 1))] = draw(INDICES)
    for key, values in (("source", CC_DOCS), ("target", CC_DOCS), ("assignment", ASSIGNMENTS)):
        if draw(st.integers(0, 2)) == 0:
            doc[key] = draw(values)
    return doc


@st.composite
def edge_lists(draw):
    """One to three blocks, each well-formed or not."""
    token = st.one_of(st.integers(-1, 7), st.sampled_from(["x", "1.5", ""]))
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            n = draw(st.integers(2, 6))
            pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted)
            edges = draw(st.lists(pair, max_size=8, unique_by=tuple))
            m = len(edges)
        else:
            n = draw(
                st.one_of(st.integers(-1, 6), st.integers(2**60, 2**63 - 1), st.sampled_from([2**63, 2**70]))
            )
            edges = draw(st.lists(st.tuples(token, token), max_size=6))
            m = draw(st.sampled_from([len(edges)] * 3 + [len(edges) + 1, len(edges) - 1]))
        lines += [f"{n} {m}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def fuzz_main(argv: list[str], files: dict[str, str]) -> None:
    """Run the CLI on argv, with each named file written first; it must return
    an exit code in 0-3, not raise."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in files}
        for name, text in files.items():
            with open(paths[name], "w") as fp:
                fp.write(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2, 3)


class TestFuzz:
    @FUZZ
    @given(CC_DOCS, st.sampled_from([[], ["--cross-k", "1"], ["--cross-k", "2"], ["--spec", "coA:1,0"]]))
    def test_invariants(self, doc, options):
        fuzz_main(["invariants", "cc.json", *options], {"cc.json": json.dumps(doc)})

    @FUZZ
    @given(CC_DOCS, CC_DOCS, st.sampled_from(ENGINES))
    def test_distinguish(self, a, b, engine):
        files = {"a.json": json.dumps(a), "b.json": json.dumps(b)}
        fuzz_main(["distinguish", "a.json", "b.json", "--engine", engine], files)

    @FUZZ
    @given(cover_docs(), st.sampled_from(["verify-cover", "check-iso"]))
    def test_cover_maps(self, doc, command):
        fuzz_main([command, "map.json"], {"map.json": json.dumps(doc)})

    @FUZZ
    @given(edge_lists(), st.sampled_from(["cyclic", "triangular"]))
    def test_lift(self, text, method):
        fuzz_main(["lift", "--method", method, "-i", "g.txt"], {"g.txt": text})

    @FUZZ
    @given(edge_lists(), st.sampled_from([[], ["--eta", "1/4", "--eps", "1/2"], ["--eta", "0", "--eps", "1"]]))
    def test_pool(self, text, options):
        fuzz_main(["pool", *options, "-i", "g.txt"], {"g.txt": text})

    @FUZZ
    @given(edge_lists())
    def test_label_lifted(self, text):
        fuzz_main(["label-lifted", "--max-cycle-len", "6", "-i", "g.txt"], {"g.txt": text})

    @FUZZ
    @given(
        st.lists(st.tuples(CC_DOCS, CC_DOCS), min_size=1, max_size=2),
        st.sets(st.sampled_from(ENGINES), min_size=1, max_size=3),
    )
    def test_run_benchmark(self, pairs, engines):
        lines = [json.dumps({"left": {"cc": a}, "right": {"cc": b}}) for a, b in pairs]
        args = ["run-benchmark", "--dataset", "pairs.jsonl", "--engines", ",".join(sorted(engines))]
        fuzz_main(args, {"pairs.jsonl": "\n".join(lines) + "\n"})
