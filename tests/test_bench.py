import io
import json
from itertools import chain

import pytest

from cckit.bench import (
        TorusDatasetSpec,
    enumerate_torus_unions,
    enumeration_dump,
    gen_torus_dataset,
    label_lifted_graph,
    labeled_to_json,
        read_dataset,
    run_benchmark,
    write_dataset,
)
from cckit.complex import SimpleGraph
from cckit.errors import BadParams
from cckit.generators import cycle_graph
from cckit.invariants import INFINITE
from cckit.lifting import CyclicLiftParams
from cckit.refinement import Engine

SMALL = TorusDatasetSpec(18, 18, 3)


class TestSpec:
    def test_invalid(self):
        with pytest.raises(BadParams):
            TorusDatasetSpec(8, 40, 3)
        with pytest.raises(BadParams):
            TorusDatasetSpec(20, 18, 3)
        with pytest.raises(BadParams):
            TorusDatasetSpec(18, 40, 0)


class TestEnumeration:
    def test_smallest_size(self):
        unions = enumerate_torus_unions(SMALL)
        assert set(unions) == {18}
        assert unions[18] == [(( 3, 3), (3, 3)), ((3, 6),)]

    def test_no_pairs_below_18(self):
        assert gen_torus_dataset(TorusDatasetSpec(9, 17, 3)) == []

    def test_single_pair_at_18(self):
        pairs = gen_torus_dataset(SMALL)
        assert len(pairs) == 1
        p = pairs[0]
        assert {p.left_params, p.right_params} == {((3, 3), (3, 3)), ((3, 6),)}

    def test_dump_mentions_totals(self):
        dump = enumeration_dump(SMALL)
        assert "total pairs: 1" in dump


class TestSmallDataset:
    def test_pair_well_formed(self):
        (pair,) = gen_torus_dataset(SMALL)
        assert pair.num_nodes == 18
        assert pair.certificate.verify() is None
        assert pair.differing_invariants
        kinds = {d["kind"] for d in pair.differing_invariants}
        assert "components" in kinds and "betti" in kinds

    def test_oracle_confirms(self):
        from cckit.iso import cc_isomorphic

        (pair,) = gen_torus_dataset(SMALL)
        assert cc_isomorphic(pair.left, pair.right).isomorphic is False

    def test_roundtrip(self):
        pairs = gen_torus_dataset(SMALL)
        buf = io.StringIO()
        write_dataset(pairs, buf)
        buf.seek(0)
        records = read_dataset(buf)
        assert len(records) == 1
        left, right, doc = records[0]
        assert left == pairs[0].left
        assert right == pairs[0].right
        assert doc["cover_periods"] == [3, 6]

    def test_deterministic_bytes(self):
        def render():
            buf = io.StringIO()
            write_dataset(gen_torus_dataset(SMALL), buf)
            return buf.getvalue()

        assert render() == render()

    def test_benchmark_engines(self):
        pairs = [(p.left, p.right) for p in gen_torus_dataset(SMALL)]
        reports = run_benchmark(
            pairs, [Engine.homp_full(), Engine.smcn(), Engine.oracle()]
        )
        by_name = {r.engine: r for r in reports}
        assert by_name["homp"].separated == 0
        assert by_name["smcn:default"].separated == 1
        assert by_name["oracle"].separated == 1


class TestLabeling:
    def test_c6(self):
        lc = label_lifted_graph(cycle_graph(6), CyclicLiftParams(18))
        assert lc.cross_diameter_012 == 0
        assert lc.betti2 == 0

    def test_two_triangles(self):
        g1 = cycle_graph(3)
        g = SimpleGraph.from_edges(
            6, list(g1.edges) + [(u + 3, v + 3) for u, v in g1.edges]
        )
        lc = label_lifted_graph(g, CyclicLiftParams(18))
        assert lc.cross_diameter_012 == INFINITE
        doc = labeled_to_json(0, lc)
        assert doc["cross_diameter_012"] == "inf"

    def test_tree_undefined(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        lc = label_lifted_graph(g, CyclicLiftParams(18))
        assert lc.cross_diameter_012 is None
        assert lc.betti2 == 0
        assert labeled_to_json(0, lc)["cross_diameter_012"] is None

    def test_labels_idempotent(self):
        g = cycle_graph(6)
        a = labeled_to_json(0, label_lifted_graph(g, CyclicLiftParams(18)))
        b = labeled_to_json(0, label_lifted_graph(g, CyclicLiftParams(18)))
        assert a == b


@pytest.fixture(scope="module")
def dataset():
    return gen_torus_dataset(TorusDatasetSpec(18, 40, 3))


class TestFullDatasetProperties:
    """Checks over the full 223-pair dataset; slower but exhaustive."""

    def test_count(self, dataset):
        assert len(dataset) == 223

    def test_no_vacuous_pairs(self, dataset):
        for pair in dataset:
            assert pair.differing_invariants, (pair.left_params, pair.right_params)

    def test_node_counts_match(self, dataset):
        for pair in dataset:
            assert pair.left.num_nodes == pair.right.num_nodes

    def test_all_certificates_verify(self, dataset):
        for pair in dataset:
            assert pair.certificate.verify() is None, (
                pair.left_params,
                pair.right_params,
            )

    def test_serialization_roundtrip(self, dataset):
        buf = io.StringIO()
        write_dataset(dataset, buf)
        buf.seek(0)
        records = read_dataset(buf)
        assert len(records) == 223
        for (left, right, _), pair in zip(records, dataset):
            assert left == pair.left and right == pair.right

    def test_read_interns_equal_complexes(self, dataset):
        buf = io.StringIO()
        write_dataset(dataset, buf)
        buf.seek(0)
        sides = [cc for left, right, _ in read_dataset(buf) for cc in (left, right)]
        # 446 sides, 75 distinct unions: each union is one object
        assert len(sides) == 446
        assert len({id(cc) for cc in sides}) == len(set(sides)) == 75

    def test_interned_benchmark_matches_uninterned(self, dataset):
        """Interning changes only the time: reading each line alone interns
        nothing across pairs, and gives the same reports but for seconds."""
        buf = io.StringIO()
        write_dataset(dataset, buf)
        lines = buf.getvalue().splitlines()
        interned = [(left, right) for left, right, _ in read_dataset(lines)]
        apart = [read_dataset([line])[0][:2] for line in lines]
        engines = [Engine.homp_full(), Engine.smcn(), Engine.oracle()]
        reports = [run_benchmark(pairs, engines) for pairs in (interned, apart)]
        for report in chain(*reports):
            report.seconds = 0.0
        assert reports[0] == reports[1]
        assert [r.separated for r in reports[0]] == [0, 223, 223]

    def test_diameter_labels_match_bfs(self, dataset):
        # formula-derived component diameters vs the metric recomputed on the
        # union complex (components occupy contiguous node ranges)
        from cckit.complex import adjacency
        from cckit.invariants import INFINITE, shortest_paths

        for pair in dataset[::17]:
            for params, cc in ((pair.left_params, pair.left), (pair.right_params, pair.right)):
                dist = shortest_paths(cc, adjacency(0, 1))
                diameters = []
                offset = 0
                for p, q in params:
                    block = range(offset, offset + p * q)
                    diameters.append(
                        max(dist[u][v] for u in block for v in block)
                    )
                    offset += p * q
                assert INFINITE not in diameters
                assert sorted(diameters) == sorted(
                    p // 2 + q // 2 for p, q in params
                )
