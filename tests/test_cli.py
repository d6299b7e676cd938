import io
import json
from fractions import Fraction

import pytest

from cckit import bench
from cckit.cli import main
from cckit.complex import build_cc, decode_json, encode_json, graph_as_cc, parse_edge_list
from cckit.covering import cell_map_from_node_map, strip_covers
from cckit.generators import cycle_graph, cylinder, mog_example_pair, moebius, torus
from cckit.lifting import MogParams, mog_pool, triangular_lift


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

    @pytest.mark.parametrize(
        "doc",
        [
            {"dimension": 2, "num_nodes": 4, "cells": [None, [[0, 1], [0, 1, 3], [1, 2], [2, 3]], [[0, 1, 2, 3]]]},
            {"dimension": 2, "num_nodes": 3, "cells": [None, [[0, 1, 2]], [[0, 1, 2]]]},
        ],
    )
    def test_boundary_cell_not_vertex_pair(self, capsys, tmp_path, doc):
        path = tmp_path / "cc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "invariants", str(path))
        self.assert_error_line(code, err)
        assert "not a vertex pair" in err

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
