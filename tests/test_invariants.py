import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cckit.complex import (
    SimpleGraph,
    adjacency,
    build_cc,
    co_adjacency,
    disjoint_union,
    graph_as_cc,
    incidence_up,
)
from cckit.errors import (
    CellWithoutFaces,
    DimensionTooLow,
    EmptySkeleton,
    NotAChainComplex,
    WrongKind,
)
from cckit.generators import cylinder, moebius, star_graph, torus
from cckit import invariants
from cckit.bench import _distance_histogram
from cckit.invariants import (
    INFINITE,
    Orientability,
    bfs_distances,
    betti_gf2,
    boundary_edge_graph,
    boundary_matrices,
    connected_components,
    cross_diameter,
    cycle_lengths,
    diameter,
    distance_blocks,
    euler_characteristic,
    nearest_face_distances,
    orientability_2d,
    shortest_paths,
    symmetric_arcs,
)
from cckit.iso import node_components
from cckit.lifting import avg_spd_lens, cyclic_lift, mog_pool, triangular_lift
from cckit.refinement import _marking_matrix
from cckit.generators import mog_example_pair

from helpers import (
    brute_betti,
    brute_boundary_edges,
    brute_boundary_rows,
    brute_chain_violation,
    brute_component_labels,
    brute_graph_distances,
    random_graph,
    random_split_graph,
    reference_face_cycles,
    reference_marking,
    reference_orientability,
    relabel_complex,
    reverses_orientation,
)

FILLED_TRIANGLE = build_cc([((0, 1), 1), ((0, 2), 1), ((1, 2), 1), ((0, 1, 2), 2)], 3)

# a 2-cell whose 1-faces include the non-pair (0, 1, 3), alone in that face
NON_PAIR_FACE = build_cc(
    [((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 1, 3), 1), ((0, 1, 2, 3), 2)], 4
)


def graphs(max_nodes=8, edge_prob=0.5):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_nodes))
        seed = draw(st.integers(0, 10**6))
        return random_graph(random.Random(seed), n, edge_prob)

    return build()


def extra_cell_complexes():
    """Cyclic lifts of random graphs plus rank-2 cells over arbitrary vertex
    subsets and, at times, the whole vertex set at rank 3: most of them
    violate the chain condition somewhere."""

    @st.composite
    def build(draw):
        rng = random.Random(draw(st.integers(0, 10**6)))
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        n = g.num_nodes
        cells = {(verts, r) for r, sk in enumerate(cyclic_lift(g, 6).skeletons) if r for verts in sk}
        for _ in range(rng.randint(1, 4)):
            cells.add((tuple(sorted(rng.sample(range(n), rng.randint(2, n)))), 2))
        if rng.random() < 0.4:
            cells.add((tuple(range(n)), 3))
        return build_cc(sorted(cells), n)

    return build()


def surface_corpus():
    """Strips, tori, relabelings, lifts, pools, strip/torus unions and
    complexes whose 1-faces or 2-skeleton break the surface conditions."""
    rng = random.Random(7)
    strips = [f((h, p)) for h in range(3, 7) for p in range(3, 9) for f in (cylinder, moebius)]
    tori = [torus(periods) for periods in [(3, 3), (3, 4), (4, 5), (3, 3, 3)]]
    relabeled = [
        relabel_complex(cc, rng.sample(range(cc.num_nodes), cc.num_nodes))
        for cc in strips[::5] + tori
    ]
    unions = [disjoint_union(a, b) for a in strips[:4] for b in tori[:2]]
    unions.append(disjoint_union(moebius((3, 4)), moebius((3, 5))))
    lifts = []
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 9), 0.5)
        lifts += [c for c in (triangular_lift(g), cyclic_lift(g, 8), mog_pool(g)) if c.dimension >= 2]
    odd = [
        NON_PAIR_FACE,
        build_cc([((0, 1, 2), 1), ((0, 1, 2), 2)], 3),
        # a square whose pair 1-faces form its cycle, plus the 1-cell (0, 1, 2)
        build_cc([((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 3), 1), ((0, 1, 2), 1),
                  ((0, 1, 2, 3), 2)], 4),
        build_cc([((0, 1), 1), ((0, 1, 2), 3)], 3),  # no 2-cells at all
    ]
    return strips + tori + relabeled + unions + lifts + odd


def split_graphs(max_nodes=5):
    """Random graphs, often disconnected: see helpers.random_split_graph."""
    return st.integers(0, 10**6).map(lambda seed: random_split_graph(random.Random(seed), max_nodes))


class TestComponents:
    def test_torus_connected(self):
        assert connected_components(torus((3, 3)))[0] == 1

    def test_union(self):
        assert connected_components(disjoint_union(torus((3, 3)), torus((3, 4))))[0] == 2

    def test_star_union_lift(self):
        u = disjoint_union(
            triangular_lift(star_graph(2, 3)), triangular_lift(star_graph(2, 3))
        )
        assert connected_components(u)[0] == 2

    def test_labels_cover_every_cell(self):
        cc = disjoint_union(torus((3, 3)), torus((3, 4)))
        count, labels = connected_components(cc)
        assert count == 2
        for r in range(cc.dimension + 1):
            assert len(labels[r]) == len(cc.skeletons[r])

    @settings(max_examples=40, deadline=None)
    @given(split_graphs())
    def test_matches_brute_force(self, g):
        for cc in (graph_as_cc(g), cyclic_lift(g, 8), mog_pool(g)):
            cells = [(set(verts), r) for r, sk in enumerate(cc.skeletons) for verts in sk]
            hasse = SimpleGraph.from_edges(len(cells), [
                (i, j)
                for i, (x, rx) in enumerate(cells)
                for j, (y, ry) in enumerate(cells)
                if ry == rx + 1 and x <= y
            ])
            expected = brute_component_labels(hasse)
            count, labels = connected_components(cc)
            assert [c for per_rank in labels for c in per_rank] == expected
            assert count == max(expected) + 1
            sharing = SimpleGraph.from_edges(cc.num_nodes, [
                pair for sk in cc.skeletons[1:] for verts in sk for pair in combinations(verts, 2)
            ])
            assert node_components(cc) == brute_component_labels(sharing)


def sparse_split_graphs(max_nodes=10):
    """Split graphs from no edges to dense, so isolated nodes and edgeless
    graphs are common (a single node is rare: test_no_edges covers it)."""
    return st.builds(
        lambda seed, p: random_split_graph(random.Random(seed), max_nodes, p),
        st.integers(0, 10**6),
        st.sampled_from([0.0, 0.15, 0.4, 0.8]),
    )


def brute_distance_matrix(g):
    rows = [brute_graph_distances(g, v) for v in range(g.num_nodes)]
    return [[-1 if d == INFINITE else int(d) for d in row] for row in rows]


class TestBfsKernel:
    # blocks that are not multiples of 8 leave a partial last byte of bits
    @pytest.mark.parametrize("block", [1, 3, 8, 13])
    @settings(max_examples=25, deadline=None)
    @given(g=sparse_split_graphs(max_nodes=12))
    def test_blocks_stitch_to_one_block_and_brute_force(self, block, g):
        arcs = symmetric_arcs(g.num_nodes, *g.edge_array.T)
        whole = bfs_distances(arcs, np.arange(g.num_nodes))
        assert whole.tolist() == brute_distance_matrix(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "BLOCK", block)
            blocks = list(distance_blocks(arcs))
        assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_no_edges(self, n):
        e = np.zeros(0, dtype=np.int64)
        dist = bfs_distances(symmetric_arcs(n, e, e), np.arange(n))
        assert dist.tolist() == (np.eye(n, dtype=np.int64) - 1).tolist()  # 0 on the diagonal

    def test_one_source_on_path(self):
        u = np.arange(9)
        arcs = symmetric_arcs(10, u, u + 1)
        assert bfs_distances(arcs, np.array([4])).tolist() == [[4, 3, 2, 1, 0, 1, 2, 3, 4, 5]]
        # sources in any order, 65 of them spanning two words
        sources = np.array([9, 0] * 32 + [5])
        dist = bfs_distances(arcs, sources)
        assert dist.tolist() == [[abs(s - x) for x in range(10)] for s in sources.tolist()]

    @pytest.mark.parametrize("block", [1, 3, 8, 13])
    @settings(max_examples=10, deadline=None)
    @given(g=sparse_split_graphs(max_nodes=8))
    def test_callers_stitch_blocks(self, block, g):
        want = brute_distance_matrix(g)
        lifts = [cc for cc in (cyclic_lift(g, 8), mog_pool(g)) if cc.dimension >= 2]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "BLOCK", block)
            cc = graph_as_cc(g)
            histogram = Counter(d for row in want for d in row)
            assert dict(_distance_histogram(cc)) == {
                "inf" if d < 0 else d: c for d, c in histogram.items()
            }
            assert avg_spd_lens(g) == [
                Fraction(sum(d for d in row if d > 0), sum(d >= 0 for d in row)) for row in want
            ]
            if cc.dimension == 0:
                return
            assert shortest_paths(cc, adjacency(0, 1)) == [
                [INFINITE if d < 0 else d for d in row] for row in want
            ]
            far = max(INFINITE if d < 0 else d for row in want for d in row)
            assert diameter(cc, adjacency(0, 1)) == far
            for lift in lifts:
                mark = reference_marking(lift, 0, 2, "distance")
                assert _marking_matrix(lift, 0, 2, "distance").tolist() == mark
                worst = max(INFINITE if d < 0 else d for row in mark for d in row)
                assert cross_diameter(lift, adjacency(0, 1), 2) == worst

    def test_nearest_faces_on_a_short_block(self):
        # two source rows on a 10-node path reach distances up to 9; the
        # unreachable sentinel is the node count, not the row count
        u = np.arange(9)
        dist = bfs_distances(symmetric_arcs(10, u, u + 1), np.array([0, 1]))
        faces = (np.array([0, 1, 3, 5]), np.array([9, 5, 8, 0, 1]))  # widths 1, 2, 2
        assert nearest_face_distances(dist, faces).tolist() == [[9, 5, 0], [8, 4, 0]]
        dist[0, 9] = -1  # an unreachable face alone in its cell reads -1
        assert nearest_face_distances(dist, faces).tolist() == [[-1, 5, 0], [8, 4, 0]]


class TestShortestPaths:
    @settings(max_examples=30, deadline=None)
    @given(split_graphs(max_nodes=8))
    def test_matches_bfs_oracle(self, g):
        cc = graph_as_cc(g)
        if cc.dimension == 0:
            return
        dist = shortest_paths(cc, adjacency(0, 1))
        for v in range(g.num_nodes):
            assert dist[v] == brute_graph_distances(g, v)

    def test_torus_opposite_corner(self):
        dist = shortest_paths(torus((3, 3)), adjacency(0, 1))
        # node (1,1) flattens to index 4; two wrap steps from (0,0)
        assert dist[0][4] == 2

    def test_disconnected_infinite(self):
        u = disjoint_union(torus((3, 3)), torus((3, 3)))
        dist = shortest_paths(u, adjacency(0, 1))
        assert dist[0][9] == INFINITE

    def test_wrong_kind(self):
        with pytest.raises(WrongKind):
            shortest_paths(torus((3, 3)), incidence_up(0, 1))


class TestDiameter:
    def test_paper_instances(self):
        assert diameter(torus((4, 4, 32)), adjacency(0, 1)) == 20
        assert diameter(torus((8, 8, 8)), adjacency(0, 1)) == 12

    def test_single_edge(self):
        assert diameter(build_cc([((0, 1), 1)], 2), adjacency(0, 1)) == 1

    def test_formula_small(self):
        for p, q in [(3, 3), (3, 4), (4, 5), (5, 6)]:
            assert diameter(torus((p, q)), adjacency(0, 1)) == p // 2 + q // 2

    def test_empty_skeleton(self):
        cc = build_cc([((0, 1), 1)], 2)
        with pytest.raises(EmptySkeleton):
            diameter(cc, adjacency(2, 1))


class TestCrossDiameter:
    def test_mog_pair_values(self):
        left, right = mog_example_pair()
        assert cross_diameter(mog_pool(left), adjacency(0, 1), 2) == 3
        assert cross_diameter(mog_pool(right), adjacency(0, 1), 2) == 2

    def test_disconnected_lift_infinite(self):
        u = disjoint_union(
            triangular_lift(star_graph(2, 3)), triangular_lift(star_graph(2, 3))
        )
        assert cross_diameter(u, adjacency(0, 1), 2) == INFINITE

    def test_connected_lift_finite(self):
        cc = triangular_lift(star_graph(2, 6))
        assert cross_diameter(cc, adjacency(0, 1), 2) < INFINITE

    def test_reads_arrays_only(self):
        # the emptiness checks read skeleton sizes, so no tuple views are built
        cc = cylinder((4, 5))
        assert diameter(cc, adjacency(0, 1)) == 5
        assert cross_diameter(cc, adjacency(0, 1), 2) == 4
        assert cc._skeletons is None
        with pytest.raises(EmptySkeleton, match="skeleton 3 is empty"):
            cross_diameter(cc, adjacency(0, 1), 3)

    def test_cell_without_faces(self):
        cc = build_cc([((0, 1), 1), ((0, 1, 2), 2)], 3)
        # the 2-cell has no rank-1 faces other than (0,1)... use rank-1 query
        with pytest.raises(CellWithoutFaces):
            cross_diameter(build_cc([((0, 1, 2), 2), ((3, 4), 1)], 5), adjacency(1, 2), 2)

    @settings(max_examples=40, deadline=None)
    @given(split_graphs(max_nodes=8))
    def test_matches_brute_force_max_min(self, g):
        dists = [brute_graph_distances(g, v) for v in range(g.num_nodes)]
        for cc in (cyclic_lift(g, 8), mog_pool(g)):
            if cc.dimension < 2:
                continue
            expected = max(
                min(dists[x][v] for v in face)
                for x in range(g.num_nodes)
                for face in cc.skeletons[2]
            )
            assert cross_diameter(cc, adjacency(0, 1), 2) == expected


class TestEuler:
    def test_tori_zero(self):
        for p, q in [(3, 3), (3, 4), (4, 5)]:
            assert euler_characteristic(torus((p, q))) == 0

    def test_cylinder(self):
        assert euler_characteristic(cylinder((3, 4))) == 0

    def test_filled_triangle(self):
        assert euler_characteristic(FILLED_TRIANGLE) == 1


class TestBoundaries:
    def test_torus_boundary_shape(self):
        data = boundary_matrices(torus((3, 3)))
        d2 = data.matrices[1]
        assert (d2.rows, d2.cols) == (9, 18)
        per_row = [0] * 9
        for i, _ in d2.entries:
            per_row[i] += 1
        assert per_row == [4] * 9
        assert data.is_chain_complex

    def test_graph_boundary_is_incidence(self):
        g = graph_as_cc(star_graph(2, 3))
        data = boundary_matrices(g)
        from cckit.complex import neighborhood_matrix, incidence_down

        assert data.matrices[0].entries == neighborhood_matrix(g, incidence_down(1, 0)).entries

    def test_filled_triangle_chain(self):
        assert boundary_matrices(FILLED_TRIANGLE).is_chain_complex

    @settings(max_examples=60, deadline=None)
    @given(extra_cell_complexes())
    def test_matches_dense_product(self, cc):
        data = boundary_matrices(cc)
        for r, mat in enumerate(data.matrices, start=1):
            rows = brute_boundary_rows(cc, r)
            assert (mat.rows, mat.cols) == (len(cc.cells(r)), len(cc.cells(r - 1)))
            assert mat.entries == {(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x}
        assert data.violation == brute_chain_violation(cc)
        assert data.is_chain_complex == (data.violation is None)
        if data.is_chain_complex:
            assert tuple(betti_gf2(cc)) == brute_betti(cc)
        else:
            with pytest.raises(NotAChainComplex):
                betti_gf2(cc)

    def test_mog_cell_breaks_chain(self):
        # a 2-cell with a single edge face has nonzero boundary-of-boundary
        cc = build_cc([((0, 1), 1), ((0, 1), 2)], 2)
        data = boundary_matrices(cc)
        assert not data.is_chain_complex
        with pytest.raises(NotAChainComplex):
            betti_gf2(cc)


class TestBetti:
    def test_torus(self):
        assert tuple(betti_gf2(torus((3, 3)))) == (1, 2, 1)

    def test_torus_union(self):
        u = disjoint_union(torus((3, 3)), torus((3, 4)))
        assert tuple(betti_gf2(u)) == (2, 4, 2)

    def test_cylinder_vs_oracle(self):
        cc = cylinder((3, 4))
        assert tuple(betti_gf2(cc)) == brute_betti(cc) == (1, 1, 0)

    def test_moebius(self):
        assert tuple(betti_gf2(moebius((3, 4)))) == (1, 1, 0)

    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_oracle_agreement_on_lifts(self, g):
        # pools hold rank-2 cells of several widths
        for cc in (triangular_lift(g), cyclic_lift(g, 8), mog_pool(g)):
            if boundary_matrices(cc).is_chain_complex:
                assert tuple(betti_gf2(cc)) == brute_betti(cc)

    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_euler_poincare(self, g):
        cc = triangular_lift(g)
        b = tuple(betti_gf2(cc))
        assert euler_characteristic(cc) == sum(
            (-1) ** r * b[r] for r in range(len(b))
        )

    def test_b0_equals_components(self):
        for cc in [
            torus((3, 3)),
            disjoint_union(torus((3, 3)), torus((3, 4))),
            cylinder((3, 5)),
        ]:
            assert tuple(betti_gf2(cc))[0] == connected_components(cc)[0]


class TestOrientability:
    def test_cylinder(self):
        assert orientability_2d(cylinder((3, 4))).verdict is Orientability.ORIENTABLE

    def test_moebius(self):
        v = orientability_2d(moebius((3, 4)))
        assert v.verdict is Orientability.NON_ORIENTABLE
        assert v.witness is not None and len(v.witness) >= 1

    def test_torus(self):
        assert orientability_2d(torus((3, 3))).verdict is Orientability.ORIENTABLE

    def test_mog_output_not_surface(self):
        left, _ = mog_example_pair()
        verdict = orientability_2d(mog_pool(left))
        assert verdict.verdict is Orientability.NOT_A_SURFACE
        rank, index = verdict.witness  # names the offending cell
        assert rank in (1, 2)

    def test_dimension_too_low(self):
        with pytest.raises(DimensionTooLow):
            orientability_2d(build_cc([((0, 1), 1)], 2))

    def test_invariant_under_relabeling(self):
        rng = random.Random(11)
        for cc in [cylinder((3, 4)), moebius((3, 4)), torus((3, 4))]:
            verdicts = set()
            for _ in range(3):
                perm = list(range(cc.num_nodes))
                rng.shuffle(perm)
                verdicts.add(orientability_2d(relabel_complex(cc, perm)).verdict)
            assert len(verdicts) == 1

    def test_matches_reference(self):
        seen = set()
        for cc in surface_corpus():
            got, want = orientability_2d(cc), reference_orientability(cc)
            assert got.verdict is want.verdict, cc
            seen.add(got.verdict)
            if got.verdict is Orientability.NON_ORIENTABLE:
                walk = got.witness
                assert len(walk) >= 2
                assert reverses_orientation(cc, reference_face_cycles(cc), walk), (cc, walk)
            else:
                assert got.witness == want.witness, cc
        assert seen == set(Orientability)

    def test_non_pair_face_not_surface(self):
        verdict = orientability_2d(NON_PAIR_FACE)
        assert verdict.verdict is Orientability.NOT_A_SURFACE
        assert verdict.witness == (2, 0)

    def test_moebius_witness_is_flip_cycle(self):
        cc = moebius((3, 4))
        v = orientability_2d(cc)
        faces = list(v.witness)
        # consecutive faces in the witness share an edge
        down = cc.neighbor_lists(co_adjacency(2, 1))
        for f, g in zip(faces, faces[1:]):
            assert g in down[f]


class TestBoundaryEdges:
    def test_cylinder_two_cycles(self):
        assert cycle_lengths(boundary_edge_graph(cylinder((3, 4)))) == [4, 4]

    def test_moebius_single_cycle(self):
        assert cycle_lengths(boundary_edge_graph(moebius((3, 4)))) == [8]

    def test_torus_empty(self):
        assert boundary_edge_graph(torus((3, 3))).edges == frozenset()

    def test_non_pair_boundary_cell(self):
        with pytest.raises(WrongKind, match=r"\(0, 1, 3\) is not a vertex pair"):
            boundary_edge_graph(NON_PAIR_FACE)

    def test_matches_reference(self):
        for cc in surface_corpus():
            expected = brute_boundary_edges(cc)
            if all(len(e) == 2 for e in expected):
                assert boundary_edge_graph(cc).edges == expected, cc
            else:
                with pytest.raises(WrongKind):
                    boundary_edge_graph(cc)
