import json
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cckit import complex as complex_mod
from cckit.complex import (
    Cell,
    NeighborhoodKind,
    SimpleGraph,
    adjacency,
    augmented_hasse_graph,
    build_cc,
    co_adjacency,
    decode_json,
    disjoint_union,
    encode_json,
    format_edge_list,
    graph_as_cc,
    hasse_graph,
    incidence_down,
    incidence_up,
    natural_specs,
    neighborhood,
    neighborhood_matrix,
    parse_edge_list,
    row_ids,
)
from cckit.errors import (
    DuplicateCell,
    EmptyCell,
    OutOfRangeNode,
    ParseError,
    RankViolation,
    UnknownCell,
    WrongKind,
)
from cckit.generators import torus

from helpers import arbitrary_complexes, brute_neighborhood, example_two_dim_complex, random_graph

FILLED_TRIANGLE = [((0, 1), 1), ((0, 2), 1), ((1, 2), 1), ((0, 1, 2), 2)]


def graphs(max_nodes=8, edge_prob=0.45):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_nodes))
        seed = draw(st.integers(0, 10**6))
        return random_graph(random.Random(seed), n, edge_prob)

    return build()


class TestBuild:
    def test_single_edge(self):
        cc = build_cc([((0, 1), 1)], 2)
        assert cc.dimension == 1
        assert cc.skeletons == (((0,), (1,)), ((0, 1),))

    def test_filled_triangle(self):
        cc = build_cc(FILLED_TRIANGLE, 3)
        assert cc.dimension == 2
        assert cc.skeleton_sizes() == (3, 3, 1)

    def test_rank_violation(self):
        message = "rank-2 cell (0, 1) is contained in rank-1 cell (0, 1, 2)"
        with pytest.raises(RankViolation, match=re.escape(message)):
            build_cc([((0, 1), 2), ((0, 1, 2), 1)], 3)

    def test_first_rank_violation_reported(self):
        # four violations; the first by (lower rank, higher rank, cell,
        # containing cell) is reported
        cells = [((2, 3), 1), ((0, 1, 2), 1), ((0, 1), 2), ((2,), 3), ((1,), 2)]
        message = "rank-2 cell (0, 1) is contained in rank-1 cell (0, 1, 2)"
        with pytest.raises(RankViolation, match=re.escape(message)):
            build_cc(cells, 4)

    def test_duplicate_cell(self):
        with pytest.raises(DuplicateCell):
            build_cc([((0, 1), 1), ((1, 0), 1)], 2)

    def test_empty_cell(self):
        with pytest.raises(EmptyCell):
            build_cc([((), 1)], 2)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeNode):
            build_cc([((0, 5), 1)], 3)

    @pytest.mark.parametrize("num_nodes", [2**63, 2**64])
    def test_node_count_beyond_int64(self, num_nodes):
        # rejected before the singleton cells are listed
        with pytest.raises(OutOfRangeNode, match=f"num_nodes {num_nodes} does not fit int64"):
            build_cc([], num_nodes)

    def test_equal_set_different_rank_allowed(self):
        # pooling produces rank-2 cells sharing an edge's vertex set
        cc = build_cc([((0, 1), 1), ((0, 1), 2)], 2)
        assert cc.skeleton_sizes() == (2, 1, 1)

    def test_rank0_must_be_singleton(self):
        with pytest.raises(RankViolation, match=re.escape("rank-0 cell (0, 1) is not a singleton")):
            build_cc([((0, 1), 0)], 2)

    def test_singletons_added(self):
        cc = build_cc([((1, 2), 1)], 4)
        assert cc.skeletons[0] == ((0,), (1,), (2,), (3,))


class TestSpecs:
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_sorted_in_declaration_order(self, d):
        specs = natural_specs(d)
        assert sorted(specs) == specs
        assert sorted(reversed(specs)) == specs

    def test_equality_and_hash_by_fields(self):
        from cckit.complex import _KIND_ORDER, NeighborhoodSpec

        for spec in natural_specs(2):
            twin = NeighborhoodSpec(spec.kind, spec.r1, spec.r2)
            assert twin == spec and twin is not spec
            assert hash(twin) == hash(spec) == hash((_KIND_ORDER[spec.kind], spec.r1, spec.r2))
            assert not twin < spec and twin <= spec
        assert len(set(natural_specs(2))) == 36
        assert adjacency(0, 1) != co_adjacency(0, 1)


class TestNeighborhood:
    def test_triangle_adjacency(self):
        cc = build_cc(FILLED_TRIANGLE, 3)
        nbrs = neighborhood(cc, adjacency(0, 1), Cell((0,), 0))
        assert nbrs == {Cell((1,), 0), Cell((2,), 0)}

    def test_triangle_incidence_up(self):
        cc = build_cc(FILLED_TRIANGLE, 3)
        assert neighborhood(cc, incidence_up(1, 2), Cell((0, 1), 1)) == {
            Cell((0, 1, 2), 2)
        }

    def test_unknown_cell(self):
        cc = build_cc(FILLED_TRIANGLE, 3)
        with pytest.raises(UnknownCell):
            neighborhood(cc, adjacency(0, 1), Cell((0, 1, 2), 1))

    def test_wrong_rank_cell_empty(self):
        cc = build_cc(FILLED_TRIANGLE, 3)
        assert neighborhood(cc, adjacency(0, 1), Cell((0, 1), 1)) == set()

    def test_two_dim_example_memberships(self):
        cc = example_two_dim_complex()
        A, B, C, D = (0,), (1,), (2,), (3,)

        def members(spec, verts, rank):
            return {
                (c.vertices, c.rank) for c in neighborhood(cc, spec, Cell(verts, rank))
            }

        assert (A, 0) in members(adjacency(0, 1), B, 0)
        assert (A, 0) not in members(adjacency(0, 1), D, 0)
        assert (A, 0) in members(adjacency(0, 2), D, 0)
        assert ((2, 3), 1) in members(co_adjacency(1, 0), (0, 2), 1)
        assert ((2, 3), 1) not in members(co_adjacency(1, 0), (0, 1), 1)
        assert ((2, 3), 1) in members(adjacency(1, 2), (0, 1), 1)
        assert ((2, 3, 4), 2) in members(co_adjacency(2, 0), (4, 5, 7), 2)
        assert ((2, 3, 4), 2) not in members(co_adjacency(2, 1), (4, 5, 7), 2)
        assert ((0, 1, 2, 3), 2) in members(co_adjacency(2, 1), (2, 3, 4), 2)
        assert ((1, 3), 1) in members(incidence_up(0, 1), D, 0)
        assert ((5, 6, 7), 2) in members(incidence_up(0, 2), (6,), 0)
        assert (B, 0) in members(incidence_down(1, 0), (1, 3), 1)
        assert (B, 0) not in members(incidence_down(1, 0), (2, 3), 1)
        assert (B, 0) in members(incidence_down(2, 0), (0, 1, 2, 3), 2)
        assert (B, 0) not in members(incidence_down(2, 0), (2, 3, 4), 2)

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_matches_brute_force_on_lifted_graphs(self, g):
        from cckit.lifting import triangular_lift

        assert_matches_brute_force(triangular_lift(g))

    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_matches_brute_force_on_pooled_graphs(self, g):
        # pooled 2-cells may repeat an edge's vertex set at rank 2
        from cckit.lifting import mog_pool

        assume(g.edges)
        assert_matches_brute_force(mog_pool(g))

    def test_matches_brute_force_on_fixed_pooled_complexes(self):
        from cckit.generators import mog_example_pair
        from cckit.lifting import mog_pool

        assert_matches_brute_force(build_cc([((0, 1), 1), ((0, 1), 2), ((1, 2), 1)], 3))
        assert_matches_brute_force(example_two_dim_complex())
        for g in mog_example_pair():
            assert_matches_brute_force(mog_pool(g))

    @settings(max_examples=80, deadline=None)
    @given(arbitrary_complexes())
    def test_matches_brute_force_on_arbitrary_cells(self, cc):
        assert_matches_brute_force(cc)

    @pytest.mark.parametrize("periods", [(3,), (5,), (3, 3), (3, 4), (4, 5)])
    def test_matches_brute_force_on_tori(self, periods):
        assert_matches_brute_force(torus(periods))

    def test_matches_brute_force_on_three_torus(self):
        # every cell of a rank looks alike on a torus: a few per rank suffice
        assert_matches_brute_force(torus((3, 3, 4)), cells_per_rank=3)

    @pytest.mark.parametrize("params", [(3, 3), (3, 4), (4, 3)])
    def test_matches_brute_force_on_strips(self, params):
        from cckit.generators import cylinder, moebius

        assert_matches_brute_force(cylinder(params))
        assert_matches_brute_force(moebius(params))


def assert_matches_brute_force(cc, cells_per_rank=None):
    """CSR arrays, neighbor lists and the containment lists all agree with
    the set-comprehension definitions, cell by cell."""
    for spec in natural_specs(cc.dimension):
        indptr, indices = cc.neighbor_csr(spec)
        lists = cc.neighbor_lists(spec)
        assert len(indptr) == len(lists) + 1 == len(cc.cells(spec.r1)) + 1
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        if spec.kind is NeighborhoodKind.INCIDENCE_UP:
            assert cc.contains_lists(spec.r1, spec.r2) == lists
        if spec.kind is NeighborhoodKind.INCIDENCE_DOWN:
            assert cc.contained_lists(spec.r1, spec.r2) == lists
        for i, verts in enumerate(cc.cells(spec.r1)[:cells_per_rank]):
            row = tuple(indices[indptr[i] : indptr[i + 1]].tolist())
            expected = tuple(
                sorted(cc.cell_position(v, r) for v, r in brute_neighborhood(cc, spec, verts, spec.r1))
            )
            assert row == lists[i] == expected, (spec, verts)


class TestMatrices:
    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_graph_adjacency_matrix(self, g):
        cc = graph_as_cc(g)
        if cc.dimension == 0:
            return
        mat = neighborhood_matrix(cc, adjacency(0, 1))
        expected = {
            (u, v) for u, v in g.edges for u, v in [(u, v), (v, u)]
        }
        assert mat.entries == frozenset(expected)

    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_graph_incidence_matrix(self, g):
        cc = graph_as_cc(g)
        if cc.dimension == 0:
            return
        mat = neighborhood_matrix(cc, incidence_up(0, 1))
        edges = cc.skeletons[1]
        expected = {(v, j) for j, e in enumerate(edges) for v in e}
        assert mat.entries == frozenset(expected)

    def test_empty_target_zero_matrix(self):
        cc = build_cc([((0, 1), 1)], 2)
        # rank 1 to rank 1 adjacency needs a containing rank-1 cell: none
        mat = neighborhood_matrix(cc, adjacency(1, 0))
        assert mat.entries == frozenset()

    def test_empty_intermediate_skeleton_zero_matrix(self):
        # rank-1 skeleton is legitimately empty here
        cc = build_cc([((0, 1, 2), 2)], 3)
        assert cc.skeleton_sizes() == (3, 0, 1)
        mat = neighborhood_matrix(cc, adjacency(0, 1))
        assert mat.entries == frozenset()
        assert (mat.rows, mat.cols) == (3, 3)

    @settings(max_examples=20, deadline=None)
    @given(graphs())
    def test_incidence_transpose(self, g):
        from cckit.lifting import triangular_lift

        cc = triangular_lift(g)
        for r1 in range(cc.dimension + 1):
            for r2 in range(cc.dimension + 1):
                up = neighborhood_matrix(cc, incidence_up(r1, r2))
                down = neighborhood_matrix(cc, incidence_down(r2, r1))
                assert up.transpose().entries == down.entries


class TestHasseGraphs:
    def test_augmented_coadjacency_faces(self):
        cc = example_two_dim_complex()
        g = augmented_hasse_graph(cc, co_adjacency(2, 1))
        # four faces, two disjoint single edges
        assert g.num_nodes == 4
        assert len(g.edges) == 2
        degs = [0] * 4
        for u, v in g.edges:
            degs[u] += 1
            degs[v] += 1
        assert sorted(degs) == [1, 1, 1, 1]

    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_graph_roundtrip(self, g):
        cc = graph_as_cc(g)
        if cc.dimension == 0:
            return
        assert augmented_hasse_graph(cc, adjacency(0, 1)) == g

    def test_torus_regular(self):
        g = augmented_hasse_graph(torus((3, 3)), adjacency(0, 1))
        assert g.num_nodes == 9
        degs = [0] * 9
        for u, v in g.edges:
            degs[u] += 1
            degs[v] += 1
        assert degs == [4] * 9

    def test_wrong_kind(self):
        with pytest.raises(WrongKind):
            augmented_hasse_graph(torus((3, 3)), incidence_up(0, 1))

    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_symmetry(self, g):
        from cckit.lifting import triangular_lift

        cc = triangular_lift(g)
        for r1 in range(cc.dimension + 1):
            for r2 in range(cc.dimension + 1):
                for spec in (adjacency(r1, r2), co_adjacency(r1, r2)):
                    lists = cc.neighbor_lists(spec)
                    for i, nbrs in enumerate(lists):
                        for j in nbrs:
                            assert i in lists[j]

    def test_hasse_single_edge(self):
        g, ranks = hasse_graph(build_cc([((0, 1), 1)], 2))
        assert g.num_nodes == 3
        assert len(g.edges) == 2
        assert ranks == (0, 0, 1)

    def test_hasse_filled_triangle(self):
        g, _ = hasse_graph(build_cc(FILLED_TRIANGLE, 3))
        assert g.num_nodes == 7
        assert len(g.edges) == 9

    def test_hasse_torus(self):
        g, _ = hasse_graph(torus((3, 3)))
        assert g.num_nodes == 36


class TestDisjointUnion:
    def test_adds_node(self):
        cc = torus((3, 3))
        single = build_cc([], 1)
        assert disjoint_union(cc, single).num_nodes == 10

    def test_two_tori(self):
        u = disjoint_union(torus((3, 3)), torus((3, 3)))
        assert u.num_nodes == 18
        from cckit.invariants import connected_components

        assert connected_components(u)[0] == 2

    def test_sizes_add(self):
        u = disjoint_union(torus((3, 3)), torus((3, 4)))
        assert u.num_nodes == 21
        assert u.skeleton_sizes() == (21, 42, 21)

    def test_associative_up_to_iso(self):
        from cckit.iso import cc_isomorphic

        a, b, c = torus((3, 3)), torus((3, 4)), build_cc([((0, 1), 1)], 2)
        left = disjoint_union(disjoint_union(a, b), c)
        right = disjoint_union(a, disjoint_union(b, c))
        assert cc_isomorphic(left, right).isomorphic is True


class TestJson:
    def test_encode_format(self):
        cc = build_cc([((0, 1), 1)], 2)
        assert encode_json(cc) == b'{"dimension":1,"num_nodes":2,"cells":[[[0],[1]],[[0,1]]]}'

    def test_roundtrip_torus(self):
        cc = torus((3, 3))
        assert decode_json(encode_json(cc)) == cc

    def test_decode_rank_violation(self):
        doc = {"dimension": 2, "num_nodes": 3, "cells": [[], [[0, 1, 2]], [[0, 1]]]}
        message = "rank-2 cell (0, 1) is contained in rank-1 cell (0, 1, 2)"
        with pytest.raises(RankViolation, match=re.escape(message)):
            decode_json(json.dumps(doc))

    def test_decode_omitted_rank0(self):
        doc = {"dimension": 1, "num_nodes": 2, "cells": [None, [[0, 1]]]}
        assert decode_json(json.dumps(doc)) == build_cc([((0, 1), 1)], 2)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            decode_json(b'{"dimension": 1,')
        assert "line" in str(err.value)

    def test_non_utf8_bytes(self):
        with pytest.raises(ParseError):
            decode_json(b"\xff{}")

    def test_non_increasing_cell_rejected(self):
        doc = {"dimension": 1, "num_nodes": 2, "cells": [[], [[1, 0]]]}
        with pytest.raises(ParseError):
            decode_json(json.dumps(doc))

    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_roundtrip_lifted(self, g):
        from cckit.lifting import triangular_lift

        cc = triangular_lift(g)
        assert decode_json(encode_json(cc)) == cc


class TestEdgeList:
    def test_roundtrip(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        assert parse_edge_list(format_edge_list(g)) == g

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("3\n0 1\n")

    def test_self_loop(self):
        with pytest.raises(ParseError):
            parse_edge_list("2 1\n1 1\n")

    @pytest.mark.parametrize("n", [2**63, 2**70])
    def test_node_count_beyond_int64(self, n):
        with pytest.raises(ParseError, match=f"line 1: node count {n} does not fit int64"):
            parse_edge_list(f"{n} 0\n")


def test_hot_paths_read_arrays_only():
    """Construction, refinement, the oracle, covering checks and Betti numbers
    read the skeleton and neighborhood arrays alone: no tuple view (skeletons,
    neighbor lists, the cell index) is built on a complex the library made.
    Failing checks, error messages and JSON print their cells from the
    arrays too.

    relabel_complex reads its source's skeletons, so it relabels a copy
    sharing the arrays.  Tori are shared while held, so these periods are
    used by no other test."""
    from cckit.complex import CombinatorialComplex, _check_rank_monotonicity
    from cckit.covering import (
        CellMap,
        check_isomorphism,
        strip_covers,
        torus_union_certificate,
        verify_covering,
    )
    from cckit.errors import CellWithoutFaces, NotAChainComplex
    from cckit.invariants import betti_gf2, boundary_edge_graph, cross_diameter
    from cckit.iso import cc_isomorphic
    from cckit.lifting import cyclic_lift, mog_pool
    from cckit.refinement import Engine, distinguish
    from helpers import relabel_complex

    g = random_graph(random.Random(5), 8, 0.5)
    built = [
        build_cc(FILLED_TRIANGLE + [((2, 3), 1)], 4),
        cyclic_lift(g, 8),
        mog_pool(g),
        decode_json(encode_json(torus((3, 4)))),
        torus((5, 7)),
    ]
    rng = random.Random(0)
    checked = []
    for cc in built:
        copy = CombinatorialComplex(cc.num_nodes, tuple(map(cc.skeleton_arrays, range(cc.dimension + 1))))
        perm = list(range(cc.num_nodes))
        rng.shuffle(perm)
        relabeled = relabel_complex(copy, perm)
        checked += [cc, relabeled]
        assert cc_isomorphic(cc, relabeled).isomorphic
        try:
            betti_gf2(relabeled)
        except NotAChainComplex:  # some lifts and pools; the check reads arrays too
            pass
        for engine in (Engine.homp_full(), Engine.smcn(), Engine.oracle()):
            assert not distinguish(cc, relabeled, engine).distinguished
    # second comparisons run on the complexes' traces
    for engine in (Engine.homp_full(), Engine.smcn()):
        for a in checked:
            for b in checked:
                distinguish(a, b, engine)
    cert = torus_union_certificate([(5, 7), (5, 7)], [(5, 14)])
    for m in cert.left_maps + cert.right_maps:
        assert verify_covering(m) is None
        checked += [m.source, m.target]

    cover, to_cyl, _ = strip_covers(3, 4)
    cyl = to_cyl.target
    swapped = [list(row) for row in to_cyl.assignment]
    swapped[0][:2] = swapped[0][1::-1]  # nodes 0 and 1 trade images
    violation = verify_covering(CellMap(cover, cyl, swapped))
    assert violation.reason == "neighborhood does not map bijectively" and violation.source_neighbors
    collapsed = [list(row) for row in to_cyl.assignment]
    collapsed[2] = [0] * len(collapsed[2])
    assert verify_covering(CellMap(cover, cyl, collapsed)).reason.startswith("not surjective")
    relabeled_nodes = [[1, 0, *range(2, cyl.num_nodes)]] + [
        list(range(cyl.skeleton_size(r))) for r in (1, 2)
    ]
    assert check_isomorphism(CellMap(cyl, cyl, relabeled_nodes)).startswith("containment")
    checked += [cover, cyl]

    wide, narrow = build_cc([((0, 1, 2), 1)], 3), build_cc([((0, 1), 1)], 3)
    inverted = CombinatorialComplex(3, (*map(wide.skeleton_arrays, (0, 1)), narrow.skeleton_arrays(1)))
    with pytest.raises(RankViolation, match=re.escape("rank-2 cell (0, 1) is contained in")):
        _check_rank_monotonicity(inverted)
    faceless = build_cc([((0, 1, 2), 2), ((3, 4), 1)], 5)
    with pytest.raises(CellWithoutFaces, match=re.escape("rank-2 cell (0, 1, 2) has no")):
        cross_diameter(faceless, adjacency(1, 2), 2)
    non_pair = build_cc([((0, 1, 3), 1), ((0, 1, 2, 3), 2)], 4)
    with pytest.raises(WrongKind, match=re.escape("(0, 1, 3) is not a vertex pair")):
        boundary_edge_graph(non_pair)
    checked += [wide, narrow, inverted, faceless, non_pair]

    for cc in checked:
        encode_json(cc)
        assert cc._skeletons is None and not cc._lists_cache and not cc._index


def sorted_runs(keys):
    """_runs by sorting: distinct keys ascending, with their multiplicities."""
    values, counts = np.unique(keys, return_counts=True)
    return values.astype(np.int64), counts.astype(np.int64)


def runs_with_factor(keys, bound, factor):
    """_runs with COUNT_FACTOR set to factor: 0 forces the sort path for
    every nonzero bound, a factor above bound the counting path."""
    with mock.patch.object(complex_mod, "COUNT_FACTOR", factor):
        return complex_mod._runs(keys, bound)


@st.composite
def bounded_keys(draw):
    """int64 keys below a bound on either side of COUNT_FACTOR times their
    number; empty keys and a bound of 0 included."""
    n = draw(st.integers(0, 40))
    factor = complex_mod.COUNT_FACTOR
    least = draw(st.integers(0, 3 * factor * max(n, 1)))
    bound = draw(st.sampled_from([least, factor * n, factor * n + 1, 10**12])) if n else least
    if n and bound == 0:
        bound = 1
    keys = draw(st.lists(st.integers(0, bound - 1), min_size=n, max_size=n)) if n else []
    return np.array(keys, dtype=np.int64), bound


class TestRuns:
    @settings(max_examples=300, deadline=None)
    @given(bounded_keys())
    def test_counting_equals_sorting(self, keys_and_bound):
        keys, bound = keys_and_bound
        expected = sorted_runs(keys)
        factors = [0, complex_mod.COUNT_FACTOR] + [bound + 1] * (bound <= 10**4)
        for factor in factors:
            values, counts = runs_with_factor(keys, bound, factor)
            for got, want in zip((values, counts), expected):
                assert got.dtype == np.int64
                assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n, bound, counted", [(0, 0, True), (3, 12, True), (3, 13, False)])
    def test_rule(self, n, bound, counted):
        keys = np.arange(n, dtype=np.int64)
        with mock.patch.object(complex_mod.np, "bincount", wraps=np.bincount) as count:
            values, counts = complex_mod._runs(keys, bound)
        assert count.called == counted
        assert values.tolist() == keys.tolist() and counts.tolist() == [1] * n


def frozen_csr(indptr, indices):
    return complex_mod._frozen(np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64))


def sorted_transpose(csr, n_cols):
    """_transpose's sort path: every (col, row) entry packed and sorted."""
    indptr, indices = csr
    n_rows = len(indptr) - 1
    return complex_mod._from_keys(np.sort(indices * n_rows + row_ids(indptr)), n_rows, n_cols)


@st.composite
def relations(draw):
    """A frozen CSR of a relation between 0-6 rows and 0-6 columns, rows
    sorted and free of repeats, and its column count."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [sorted(draw(st.sets(st.integers(0, n_cols - 1)))) if n_cols else [] for _ in range(n_rows)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return frozen_csr(indptr, [c for r in rows for c in r]), n_cols


def assert_same_csr(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes() and a.shape == b.shape
        assert not a.flags.writeable


class TestTranspose:
    @settings(max_examples=300, deadline=None)
    @given(relations())
    def test_matches_sort_path(self, relation):
        csr, n_cols = relation
        assert_same_csr(complex_mod._transpose(csr, n_cols), sorted_transpose(csr, n_cols))

    @pytest.mark.parametrize("n", [1, 5])
    def test_identity_is_its_own_transpose(self, n):
        csr = frozen_csr(np.arange(n + 1), np.arange(n))
        got = complex_mod._transpose(csr, n)
        assert got[0] is csr[0] and got[1] is csr[1]
        assert_same_csr(got, sorted_transpose(csr, n))

    @pytest.mark.parametrize("n_rows, n_cols", [(0, 0), (0, 4), (3, 0), (3, 5)])
    def test_empty_relation(self, n_rows, n_cols):
        csr = frozen_csr(np.zeros(n_rows + 1), [])
        assert_same_csr(complex_mod._transpose(csr, n_cols), sorted_transpose(csr, n_cols))

    @pytest.mark.parametrize(
        "indptr, indices, n_cols",
        [
            ([0, 2, 2, 3], [0, 2, 2], 3),  # n entries on n rows, not one per row
            ([0, 2, 2, 3], [0, 1, 2], 3),  # the diagonal's indices, not its rows
            ([0, 1, 2, 3], [1, 0, 2], 3),  # a permutation
            ([0, 1, 2, 3], [0, 1, 2], 4),  # the diagonal of a 3 x 4 relation
        ],
    )
    def test_near_misses_take_the_sort_path(self, indptr, indices, n_cols):
        csr = frozen_csr(indptr, indices)
        got = complex_mod._transpose(csr, n_cols)
        assert got[1] is not csr[1]
        assert_same_csr(got, sorted_transpose(csr, n_cols))

    def test_rank_zero_incidence_shares_the_singletons(self):
        cc = torus((3, 4))
        up = cc.neighbor_csr(incidence_up(0, 0))
        assert all(a is b for a, b in zip(up, cc.skeleton_arrays(0)))
