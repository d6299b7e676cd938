"""Corner cases cutting across modules."""

import io
import json

import pytest

from cckit.bench import read_dataset

from cckit.complex import (
    build_cc,
    decode_json,
    disjoint_union,
    graph_as_cc,
    parse_edge_list_blocks,
)
from cckit.errors import ParseError, RankOutOfRange
from cckit.generators import cycle_graph, torus
from cckit.refinement import Engine, HompBlock, SclBlock, distinguish, homp_refine, scl_refine


class TestDecodeStrictness:
    def test_declared_dimension_must_match(self):
        doc = {"dimension": 2, "num_nodes": 2, "cells": [[], [[0, 1]], []]}
        with pytest.raises(ParseError):
            decode_json(json.dumps(doc))

    def test_wrong_layer_count(self):
        doc = {"dimension": 1, "num_nodes": 2, "cells": [[[0], [1]]]}
        with pytest.raises(ParseError):
            decode_json(json.dumps(doc))

    def test_non_object_top_level(self):
        with pytest.raises(ParseError):
            decode_json(b"[1,2,3]")

    def test_bool_vertex_rejected(self):
        # bool is an int subclass in Python; [0, true] must not become [0, 1]
        doc = {"dimension": 1, "num_nodes": 2, "cells": [None, [[0, True]]]}
        with pytest.raises(ParseError):
            decode_json(json.dumps(doc))

    def test_bool_num_nodes_rejected(self):
        doc = {"dimension": 0, "num_nodes": True, "cells": [None]}
        with pytest.raises(ParseError):
            decode_json(json.dumps(doc))


class TestReadDataset:
    @pytest.mark.parametrize("line", ["[1]", '{"left":[]}', '{"left":{"cc":1},"right":{"cc":1}}'])
    def test_malformed_line_is_parse_error(self, line):
        with pytest.raises(ParseError, match="dataset line 1"):
            read_dataset(io.StringIO(line + "\n"))

    def test_malformed_line_exits_2(self, tmp_path, capsys):
        from cckit.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text("[1]\n")
        assert main(["run-benchmark", "--dataset", str(path), "--engines", "homp"]) == 2
        assert "dataset line 1" in capsys.readouterr().err


class TestLenientBlocks:
    def test_bad_block_then_good(self):
        blocks = parse_edge_list_blocks("3 1\n0 9\n2 1\n0 1\n")
        assert isinstance(blocks[0], ParseError)
        assert blocks[1].num_nodes == 2

    def test_unparseable_header_stops(self):
        blocks = parse_edge_list_blocks("2 1\n0 1\nnot a header\n")
        assert blocks[0].num_nodes == 2
        assert isinstance(blocks[1], ParseError)


class TestRefinementEdges:
    def test_empty_intermediate_skeleton_pairs(self):
        # dimension 2 with an empty rank-1 skeleton: empty pair space
        cc = build_cc([((0, 1, 2), 2)], 3)
        pc = scl_refine(cc, 0, 1, marking="binary")
        assert pc.colors == ((), (), ())

        verdict = distinguish(cc, cc, Engine.scl(0, 1, "binary"))
        assert not verdict.distinguished

    def test_scl_identical_complexes(self):
        x = torus((3, 4))
        assert not distinguish(x, x, Engine.scl(0, 1, "distance")).distinguished
        assert not distinguish(x, x, Engine.scl(0, 2, "binary")).distinguished

    def test_mixed_dimension_homp(self):
        a = graph_as_cc(cycle_graph(6))  # dimension 1
        b = torus((3, 3))  # dimension 2, different sizes anyway
        v = distinguish(a, b, Engine.homp_full())
        assert v.distinguished and v.round == 0

    def test_mixed_dimension_equal_zero_skeletons(self):
        # same node count, different dimension: separated by skeleton shape
        a = graph_as_cc(cycle_graph(9))
        b = torus((3, 3))
        assert distinguish(a, b, Engine.homp_full()).distinguished

    def test_explicit_spec_block(self):
        from cckit.complex import adjacency

        a, b = torus((3, 12)), torus((6, 6))
        (_, fa), (_, fb) = homp_refine([a, b], HompBlock((adjacency(0, 1),), None))
        assert fa == fb

    def test_explicit_spec_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            from cckit.complex import adjacency

            homp_refine([torus((3, 3))], HompBlock((adjacency(0, 5),), 1))

    def test_scl_rank_beyond_any_complex(self):
        a = torus((3, 3))
        b = graph_as_cc(cycle_graph(9))
        with pytest.raises(RankOutOfRange):
            distinguish(a, b, Engine.scl(0, 2, "binary"))

    def test_zero_rounds_rejected(self):
        with pytest.raises(RankOutOfRange):
            homp_refine([torus((3, 3))], HompBlock(None, 0))

    def test_same_rank_pair_block_with_pool(self):
        # r1 == r2 pairs fold row and column multisets into the same cells
        from cckit.refinement import PoolStage, smcn_refine

        stages = (SclBlock(1, 1, "binary", 2), PoolStage())
        fa, fb = smcn_refine([torus((3, 12)), torus((6, 6))], stages)
        assert fa.skeleton_sizes == fb.skeleton_sizes
        assert len(fa.pair_histograms) == 1

    def test_same_rank_pair_block_diagonal_marking(self):
        # binary marking on (1,1) pairs marks exactly the diagonal
        cc = torus((3, 3))
        pc = scl_refine(cc, 1, 1, marking="binary", rounds=1)
        n1 = len(cc.cells(1))
        diag = {pc.colors[i][i] for i in range(n1)}
        off = {pc.colors[i][j] for i in range(n1) for j in range(n1) if i != j}
        assert diag & off == set()


class TestUnionEdges:
    def test_union_of_unions_counts(self):
        u = disjoint_union(
            disjoint_union(torus((3, 3)), torus((3, 3))), torus((3, 4))
        )
        assert u.num_nodes == 30
        assert u.skeleton_sizes() == (30, 60, 30)

    def test_union_with_graph(self):
        u = disjoint_union(torus((3, 3)), graph_as_cc(cycle_graph(4)))
        assert u.dimension == 2
        assert u.skeleton_sizes() == (13, 22, 9)
