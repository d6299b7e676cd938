from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest

from cckit.bench import TorusDatasetSpec
from cckit.complex import build_cc, natural_specs
from cckit.errors import BadParams, PeriodTooSmall
from cckit.generators import (
    StripParams,
    TorusParams,
            cartesian_product,
    cycle_graph,
    cylinder,
    moebius,
    mog_example_pair,
    star_graph,
    torus,
)
from cckit.invariants import diameter
from cckit.lifting import CyclicLiftParams
from cckit.complex import adjacency, graph_as_cc

from helpers import graph_automorphisms, reference_strip, reference_strip_node, reference_torus


def prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


class TestTorus:
    def test_small_sizes(self):
        assert torus((3, 3)).skeleton_sizes() == (9, 18, 9)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_size_formula_exhaustive(self, ell):
        for periods in combinations_with_replacement(range(3, 7), ell):
            cc = torus(periods)
            n = prod(periods)
            expected = tuple(comb(ell, r) * n for r in range(ell + 1))
            assert cc.skeleton_sizes() == expected, periods

    def test_large_instance_node_count(self):
        assert torus((4, 4, 32)).num_nodes == 512

    def test_period_too_small(self):
        with pytest.raises(PeriodTooSmall):
            torus((2, 3))

    def test_transpose_isomorphic(self):
        from cckit.iso import cc_isomorphic

        for p, q in [(3, 4), (3, 5), (4, 5)]:
            assert cc_isomorphic(torus((p, q)), torus((q, p))).isomorphic is True

    @pytest.mark.parametrize(
        "periods", [(3,), (7,), (3, 3), (4, 7), (6, 5), (3, 4, 5), (3, 3, 4, 3), (4, 3, 5, 3)]
    )
    def test_matches_cell_by_cell_reference(self, periods):
        assert torus(periods) == reference_torus(periods)

    def test_shared_while_held(self):
        import gc

        from cckit import generators
        from cckit.generators import TorusParams

        held = torus((7, 11))
        assert torus((7, 11)) is held
        assert torus(TorusParams((7, 11))) is held
        del held
        gc.collect()
        assert (7, 11) not in generators._TORI

    @pytest.mark.parametrize("periods", [(3.0, 4), (3, True), ("3", 4)])
    def test_non_integer_periods(self, periods):
        with pytest.raises(BadParams):
            torus(periods)

    def test_revalidates(self):
        cc = torus((3, 4))
        cells = [
            (verts, r)
            for r in range(1, cc.dimension + 1)
            for verts in cc.skeletons[r]
        ]
        assert build_cc(cells, cc.num_nodes) == cc


class TestStrips:
    def test_cylinder_counts(self):
        cc = cylinder((3, 4))
        assert cc.num_nodes == 12
        assert cc.skeleton_sizes() == (12, 20, 8)

    def test_cylinder_boundary_edges(self):
        from cckit.invariants import boundary_edge_graph, cycle_lengths

        g = boundary_edge_graph(cylinder((3, 4)))
        assert len(g.edges) == 8
        assert cycle_lengths(g) == [4, 4]

    def test_moebius_matches_cylinder_sizes(self):
        for h, p in [(3, 3), (3, 4), (4, 5)]:
            assert moebius((h, p)).skeleton_sizes() == cylinder((h, p)).skeleton_sizes()

    def test_moebius_boundary_single_cycle(self):
        from cckit.invariants import boundary_edge_graph, cycle_lengths

        assert cycle_lengths(boundary_edge_graph(moebius((3, 4)))) == [8]

    def test_moebius_3_3_valid(self):
        assert moebius((3, 3)).num_nodes == 9

    def test_period_too_small(self):
        with pytest.raises(PeriodTooSmall):
            cylinder((2, 4))
        with pytest.raises(PeriodTooSmall):
            moebius((4, 2))

    @pytest.mark.parametrize("twist", [False, True])
    def test_matches_cell_by_cell_reference(self, twist):
        make = moebius if twist else cylinder
        for h in range(3, 9):
            for p in range(3, 11):
                assert make((h, p)) == reference_strip(h, p, twist), (h, p)

    @pytest.mark.parametrize("twist", [False, True])
    def test_grid_nodes_glue_like_reference(self, twist):
        from cckit.generators import grid_nodes

        h, p = 4, 5
        i, j = np.meshgrid(np.arange(-2, h + 2), np.arange(-3 * p, 3 * p), indexing="ij")
        expected = [
            -1 if (v := reference_strip_node(a, b, h, p, twist)) is None else v
            for a, b in zip(i.ravel().tolist(), j.ravel().tolist())
        ]
        nodes = grid_nodes((i.ravel(), j.ravel()), (h, p), strip=True, twist=twist)
        assert nodes.tolist() == expected

    def test_degree_histograms_match(self):
        # every natural neighborhood gives the same degree multiset on both strips
        for h, p in [(3, 3), (3, 4)]:
            cyl, moeb = cylinder((h, p)), moebius((h, p))
            for spec in natural_specs(2):
                d1 = sorted(len(x) for x in cyl.neighbor_lists(spec))
                d2 = sorted(len(x) for x in moeb.neighbor_lists(spec))
                assert d1 == d2, (h, p, spec)


class TestStarGraph:
    def test_counts(self):
        g = star_graph(2, 6)
        assert g.num_nodes == 18
        assert len(g.edges) == 24

    def test_node_count_formula(self):
        assert star_graph(2, 4).num_nodes == 12

    def test_triangles(self):
        from helpers import brute_induced_cycles

        g = star_graph(2, 6)
        triangles = {t for t in brute_induced_cycles(g, 3)}
        assert len(triangles) == 6
        for t in triangles:
            spoke = [v for v in t if v >= 12]
            assert len(spoke) == 1

    def test_bad_params(self):
        with pytest.raises(BadParams):
            star_graph(1, 3)
        with pytest.raises(BadParams):
            star_graph(2, 2)

    def test_minimal_accepted(self):
        # n*k > 3 with k = 3 is the smallest disconnect-able configuration
        g = star_graph(2, 3)
        assert g.num_nodes == 9


class TestCyclesAndProducts:
    def test_cycle_diameter(self):
        cc = graph_as_cc(cycle_graph(4))
        assert diameter(cc, adjacency(0, 1)) == 2

    def test_product_diameter_adds(self):
        g = cartesian_product(cycle_graph(3), cycle_graph(4))
        assert diameter(graph_as_cc(g), adjacency(0, 1)) == 3

    def test_product_with_single_node(self):
        from cckit.complex import SimpleGraph

        g = cycle_graph(5)
        single = SimpleGraph.from_edges(1, [])
        assert cartesian_product(g, single) == g

    def test_cycle_too_small(self):
        with pytest.raises(BadParams):
            cycle_graph(2)


class TestMogPair:
    def test_six_nodes(self):
        left, right = mog_example_pair()
        assert left.num_nodes == right.num_nodes == 6

    def test_partition_automorphisms(self):
        # all of {0,1,4,5} pairwise automorphic, ditto {2,3}, in both graphs
        for g in mog_example_pair():
            autos = graph_automorphisms(g)
            for part in [(0, 1, 4, 5), (2, 3)]:
                for u in part:
                    for v in part:
                        assert any(perm[u] == v for perm in autos), (u, v)

    def test_non_isomorphic(self):
        from cckit.iso import cc_isomorphic

        left, right = mog_example_pair()
        assert cc_isomorphic(graph_as_cc(left), graph_as_cc(right)).isomorphic is False


class TestIntegerParams:
    """Every integer parameter follows one rule: numbers.Integral, numpy's
    included, but not bool; anything else is BadParams."""

    @pytest.mark.parametrize(
        "build, args",
        [
            (cylinder, ((3.5, 4),)),
            (cycle_graph, (3.5,)),
            (cycle_graph, (True,)),
            (star_graph, (1.5, 3)),
            (CyclicLiftParams, (3.5,)),
            (TorusDatasetSpec, (18.0, 24, 2)),
            (TorusDatasetSpec, (18, 24.5, 2)),
            (TorusDatasetSpec, (18, 24, True)),
        ],
    )
    def test_non_integers_rejected(self, build, args):
        with pytest.raises(BadParams, match="must be an integer"):
            build(*args)

    def test_numpy_integers_accepted(self):
        assert torus((np.int64(3), 3)) is torus((3, 3))
        assert cycle_graph(np.int64(5)) == cycle_graph(5)
        values = [
            *TorusParams((np.int64(3), np.uint8(4))).periods,
            *vars(StripParams(np.int64(3), np.int32(4))).values(),
            CyclicLiftParams(np.int64(5)).max_len,
            *vars(TorusDatasetSpec(np.int64(18), np.int64(24), np.int16(2))).values(),
        ]
        assert values == [3, 4, 3, 4, 5, 18, 24, 2]
        assert {type(v) for v in values} == {int}
