import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cckit.complex import SimpleGraph, adjacency, build_cc, disjoint_union, encode_json
from cckit.errors import BadParams, DegenerateCover, OutOfRangeNode
from cckit.generators import cycle_graph, mog_example_pair, star_graph
from cckit.invariants import INFINITE, cross_diameter
from cckit.lifting import (
    CyclicLiftParams,
    MogParams,
    avg_spd_lens,
    chordless_cycles,
    cyclic_lift,
    fine_cover_params,
    mog_pool,
    triangular_lift,
)
from cckit.refinement import Engine, distinguish

from helpers import (
    brute_graph_distances,
    brute_induced_cycles,
    lifted_iso_graphs,
    random_graph,
    random_split_graph,
    reference_chordless_cycles,
    reference_triangular_lift,
)


def graphs(max_nodes=8, edge_prob=0.5):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_nodes))
        seed = draw(st.integers(0, 10**6))
        return random_graph(random.Random(seed), n, edge_prob)

    return build()


def cored_graphs(max_nodes=14, id_ranges=(None, 10**6, 2**40)):
    """Graphs whose 2-core is a proper part: cyclic blocks (a cycle with random
    chords) meeting at cut vertices or joined by bridges, pendant trees and
    isolated nodes.  Ids are scattered over one of `id_ranges` (None: 0..n-1)."""

    @st.composite
    def build(draw):
        rng = random.Random(draw(st.integers(0, 10**6)))
        size = draw(st.integers(1, max_nodes))
        edges: list[tuple[int, int]] = []
        count = 1
        while count < size:
            piece = rng.choice(["block", "block", "pendant", "isolated"])
            k = rng.randint(3, 6)
            bridge = rng.random() < 0.5  # else the block meets the rest at a cut vertex
            if piece == "block" and count + k - (not bridge) <= size:
                anchor = rng.randrange(count)
                members = list(range(count, count + k - (not bridge)))
                count += len(members)
                if bridge:
                    edges.append((anchor, members[0]))
                else:
                    members.append(anchor)
                rng.shuffle(members)
                edges += zip(members, members[1:] + members[:1])
                chords = [(a, b) for i, a in enumerate(members) for b in members[i + 2 :]]
                edges += [e for e in chords if rng.random() < 0.3]
            else:
                if piece == "pendant":
                    edges.append((rng.randrange(count), count))
                count += 1
        id_range = draw(st.sampled_from(id_ranges)) or size
        ids = rng.sample(range(id_range), size)
        return SimpleGraph.from_edges(id_range, [(ids[a], ids[b]) for a, b in edges])

    return build()


def forests(max_nodes=10):
    """Acyclic graphs, isolated nodes included."""

    @st.composite
    def build(draw):
        rng = random.Random(draw(st.integers(0, 10**6)))
        n = draw(st.integers(1, max_nodes))
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        return SimpleGraph.from_edges(n, edges)

    return build()


class TestTriangularLift:
    def test_k3(self):
        cc = triangular_lift(cycle_graph(3))
        assert cc.skeleton_sizes() == (3, 3, 1)

    def test_c4_no_triangles(self):
        cc = triangular_lift(cycle_graph(4))
        assert cc.dimension == 1

    def test_star_triangles(self):
        cc = triangular_lift(star_graph(2, 6))
        assert len(cc.cells(2)) == 6
        for t in cc.cells(2):
            spokes = [v for v in t if v >= 12]
            cycle_nodes = sorted(v for v in t if v < 12)
            assert len(spokes) == 1
            a, b = cycle_nodes
            assert (b - a) % 12 in (1, 11)

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_nodes=12, edge_prob=0.45))
    def test_matches_adjacency_set_reference(self, g):
        assert encode_json(triangular_lift(g)) == encode_json(reference_triangular_lift(g))

    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_restriction_is_graph(self, g):
        cc = triangular_lift(g)
        assert cc.skeletons[0] == tuple((v,) for v in range(g.num_nodes))
        assert set(cc.cells(1)) == set(g.edges)


class TestCyclicLift:
    def test_c6_single_cell(self):
        cc = cyclic_lift(cycle_graph(6), 18)
        assert cc.cells(2) == ((0, 1, 2, 3, 4, 5),)

    def test_c6_length_bound(self):
        assert cyclic_lift(cycle_graph(6), 5).dimension == 1

    def test_two_triangles_sharing_edge(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        cc = cyclic_lift(g, 18)
        assert cc.cells(2) == ((0, 1, 2), (0, 1, 3))

    def test_bad_params(self):
        with pytest.raises(BadParams):
            CyclicLiftParams(2)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(graphs(max_nodes=8), cored_graphs(max_nodes=8)))
    def test_matches_brute_force(self, g):
        got = set(chordless_cycles(g, 8))
        assert got == brute_induced_cycles(g, 8)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(graphs(max_nodes=7), cored_graphs(max_nodes=7)), st.integers(3, 6))
    def test_bounded_matches_brute_force(self, g, max_len):
        got = set(chordless_cycles(g, max_len))
        assert got == brute_induced_cycles(g, max_len)

    def test_matches_reference_on_benchmark_graphs(self):
        for g in lifted_iso_graphs():
            assert chordless_cycles(g, 18) == reference_chordless_cycles(g, 18)

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(graphs(max_nodes=14, edge_prob=0.35), cored_graphs(max_nodes=20)),
        st.sampled_from([3, 4, 5, 8, 18]),
    )
    def test_matches_reference(self, g, max_len):
        assert chordless_cycles(g, max_len) == reference_chordless_cycles(g, max_len)

    def test_huge_sparse_node_count(self):
        # nothing is sized by the 2**40 node ids, only by the eight on cycles
        a, b, c = 7, 2**39, 2**40 - 1
        ring = [2**40 - 2, 3, 2**20, 11, 2**38]
        edges = [(a, b), (b, c), (a, c), *zip(ring, ring[1:] + ring[:1])]
        g = SimpleGraph.from_edges(2**40, edges)
        for max_len in (3, 4, 5, 8, 18):
            want = [(a, b, c)] + ([tuple(sorted(ring))] if max_len >= 5 else [])
            assert chordless_cycles(g, max_len) == sorted(want)
            assert reference_chordless_cycles(g, max_len) == sorted(want)

    @pytest.mark.parametrize("lift", [triangular_lift, cyclic_lift])
    @pytest.mark.parametrize(
        "num_nodes,error,message",
        [
            (0, OutOfRangeNode, "a complex needs at least one node"),
            (2**63, OutOfRangeNode, "does not fit int64 node ids"),
            # numpy refuses these sizes before it touches memory; numpy 2 sizes
            # np.arange(2**63) as empty, and the lift must not return a complex
            # without nodes (tests/test_cli.py pins the message)
            (2**60, OutOfRangeNode, None),
            (2**62, OutOfRangeNode, None),
            (2**63 - 1, OutOfRangeNode, None),
        ],
    )
    def test_node_count_checked(self, lift, num_nodes, error, message):
        with pytest.raises(error, match=message):
            lift(SimpleGraph(num_nodes, frozenset()))

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(11)
        cases = [(g, 18) for g in lifted_iso_graphs(30)]
        cases += [(random_graph(rng, rng.randint(3, 12), 0.4), bound) for bound in (3, 5, 8) for _ in range(30)]
        for g, bound in cases:
            nxg = nx.Graph(list(g.edges))
            nxg.add_nodes_from(range(g.num_nodes))
            expected = sorted(tuple(sorted(c)) for c in nx.chordless_cycles(nxg, length_bound=bound))
            assert chordless_cycles(g, bound) == expected

    @settings(max_examples=20, deadline=None)
    @given(graphs())
    def test_restriction_is_graph(self, g):
        cc = cyclic_lift(g, 18)
        assert set(cc.cells(1)) == set(g.edges)


def _lift_inputs():
    edgeless = st.integers(1, 6).map(lambda n: SimpleGraph(n, frozenset()))
    cored = cored_graphs(max_nodes=16, id_ranges=(None, 40))
    return st.one_of(edgeless, forests(), graphs(max_nodes=10), cored)


class TestHandoff:
    """Lifts and pools hand their canonical cells straight to the validator;
    the complex must equal `build_cc` over the same cell list."""

    @staticmethod
    def _assert_built_alike(cc, g, two_cells):
        cells = [(e, 1) for e in g.sorted_edges()] + [(c, 2) for c in two_cells]
        want = build_cc(cells, g.num_nodes)
        assert cc == want
        assert encode_json(cc) == encode_json(want)

    @settings(max_examples=60, deadline=None)
    @given(_lift_inputs(), st.sampled_from([3, 4, 5, 8, 18]))
    def test_cyclic_lift(self, g, max_len):
        self._assert_built_alike(cyclic_lift(g, max_len), g, chordless_cycles(g, max_len))

    @settings(max_examples=40, deadline=None)
    @given(_lift_inputs())
    def test_triangular_lift(self, g):
        self._assert_built_alike(triangular_lift(g), g, chordless_cycles(g, 3))

    @settings(max_examples=40, deadline=None)
    @given(_lift_inputs())
    def test_mog_pool(self, g):
        cc = mog_pool(g)
        self._assert_built_alike(cc, g, cc.cells(2))


class TestLens:
    def test_c4_constant_one(self):
        assert avg_spd_lens(cycle_graph(4)) == [Fraction(1)] * 4

    def test_path(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        assert avg_spd_lens(g) == [Fraction(1), Fraction(2, 3), Fraction(1)]

    def test_mog_pair_constant_on_parts(self):
        for g in mog_example_pair():
            lens = avg_spd_lens(g)
            assert len({lens[v] for v in (0, 1, 4, 5)}) == 1
            assert len({lens[v] for v in (2, 3)}) == 1
            assert lens[0] != lens[2]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_brute_force(self, seed):
        g = random_split_graph(random.Random(seed), 6)
        expected = []
        for v in range(g.num_nodes):
            reached = [d for d in brute_graph_distances(g, v) if d != INFINITE]
            expected.append(Fraction(sum(reached), len(reached)))
        assert avg_spd_lens(g) == expected

    def test_disconnected_uses_component(self):
        g = SimpleGraph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        lens = avg_spd_lens(g)
        assert lens[0] == Fraction(1, 2)
        assert lens[3] == Fraction(2, 3)


class TestMogPool:
    def test_fig_pair_cells(self):
        left, right = mog_example_pair()
        assert mog_pool(left).cells(2) == ((0, 1), (2, 3), (4, 5))
        assert mog_pool(right).cells(2) == ((0, 1), (2, 3), (4, 5))

    def test_vertex_transitive_single_cell(self):
        cc = mog_pool(cycle_graph(6))
        assert cc.cells(2) == ((0, 1, 2, 3, 4, 5),)

    def test_single_edge(self):
        cc = mog_pool(SimpleGraph.from_edges(2, [(0, 1)]))
        assert cc.cells(2) == ((0, 1),)

    def test_empty_graph(self):
        with pytest.raises(BadParams, match="pooling needs a non-empty graph"):
            mog_pool(SimpleGraph(0, frozenset()))

    def test_degenerate_cover(self):
        with pytest.raises(DegenerateCover):
            MogParams(Fraction(1), Fraction(0))

    def test_restriction_is_graph(self):
        left, _ = mog_example_pair()
        cc = mog_pool(left)
        assert set(cc.skeletons[1]) == set(left.edges)

    def test_fine_cover_hits_every_value(self):
        # every node with a >1-node level-set component lands in some 2-cell
        for g in mog_example_pair():
            cc = mog_pool(g)
            covered = {v for cell in cc.cells(2) for v in cell}
            assert covered == set(range(6))

    def test_finer_stride_never_coarsens(self):
        left, _ = mog_example_pair()
        params = fine_cover_params(left)
        fine_cells = set(mog_pool(left, params).cells(2))
        finer = MogParams(params.eta / 2, params.eps)
        finer_cells = set(mog_pool(left, finer).cells(2))
        # a finer stride keeps every component split discovered by the coarse one
        for cell in finer_cells:
            assert any(set(cell) <= set(big) for big in fine_cells | finer_cells)
        assert fine_cells <= finer_cells


class TestLiftingBlindspots:
    @pytest.mark.parametrize("n,k", [(2, 3), (2, 4), (2, 6), (3, 4)])
    def test_star_pairs(self, n, k):
        whole = triangular_lift(star_graph(n, 2 * k))
        halves = disjoint_union(
            triangular_lift(star_graph(n, k)), triangular_lift(star_graph(n, k))
        )
        assert cross_diameter(whole, adjacency(0, 1), 2) < INFINITE
        assert cross_diameter(halves, adjacency(0, 1), 2) == INFINITE
        verdict = distinguish(whole, halves, Engine.homp_full())
        assert not verdict.distinguished
