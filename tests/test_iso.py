import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cckit.complex import build_cc, disjoint_union, disjoint_union_all, graph_as_cc
from cckit.covering import CellMap, torus_mod_cover
from cckit.errors import DuplicateCell, RankViolation
from cckit.generators import cycle_graph, cylinder, moebius, star_graph, torus
from cckit.iso import cc_isomorphic, check_isomorphism
from cckit.lifting import cyclic_lift, triangular_lift

from helpers import (
    arbitrary_complexes,
    brute_isomorphic,
    random_graph,
    reference_witness,
    relabel_complex,
)


def identity_map(cc) -> CellMap:
    return CellMap(
        cc, cc, tuple(tuple(range(len(cc.skeletons[r]))) for r in range(cc.dimension + 1))
    )


class TestCheckIsomorphism:
    def test_identity_ok(self):
        assert check_isomorphism(identity_map(torus((3, 3)))) is None

    def test_coordinate_swap(self):
        res = cc_isomorphic(torus((3, 4)), torus((4, 3)))
        assert res.isomorphic is True
        assert check_isomorphism(res.witness) is None

    def test_non_injective_violation(self):
        m = torus_mod_cover((6, 6), (3, 3))  # a covering, not a bijection
        violation = check_isomorphism(m)
        assert violation is not None
        assert "injective" in violation or "sizes differ" in violation

    def test_non_injective_with_equal_sizes(self):
        # three isolated nodes have no containment to break: only the
        # injectivity check rejects folding them onto one
        cc = build_cc([], 3)
        m = CellMap(cc, cc, ((0, 0, 0),))
        assert check_isomorphism(m) == "not injective on skeleton 0"

    def test_containment_violation(self):
        # two complexes with equal sizes; a bijection ignoring containment
        a = build_cc([((0, 1), 1), ((1, 2), 1)], 3)  # path
        b = build_cc([((0, 1), 1), ((0, 2), 1)], 3)  # star at 0
        m = CellMap(a, b, ((0, 1, 2), (0, 1)))
        assert check_isomorphism(m) is not None

    def test_first_failing_cell_in_skeleton_then_spec_order(self):
        # node 1 fails into rank 1 and node 0 only into rank 2; the lower
        # cell is named, as verify_covering names it
        cc = build_cc(
            [((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((2, 3), 1), ((2, 4), 1), ((3, 4), 1),
             ((0, 2, 3), 2), ((2, 3, 4), 2)],
            5,
        )
        m = CellMap(cc, cc, ((2, 1, 3, 0, 4), (4, 1, 3, 2, 5, 0), (1, 0)))
        assert check_isomorphism(m) == "containment not preserved at rank-0 cell (0,) into rank 2"


class TestOracle:
    def test_equal_tori(self):
        assert cc_isomorphic(torus((3, 3)), torus((3, 3))).isomorphic is True

    def test_distinct_equal_node_tori(self):
        assert cc_isomorphic(torus((3, 12)), torus((6, 6))).isomorphic is False

    def test_strips(self):
        assert cc_isomorphic(cylinder((3, 4)), moebius((3, 4))).isomorphic is False

    def test_witness_verified(self):
        res = cc_isomorphic(torus((3, 4)), torus((4, 3)))
        assert res.witness is not None
        assert check_isomorphism(res.witness) is None

    def test_component_permutation(self):
        a = disjoint_union(torus((3, 3)), torus((3, 4)))
        b = disjoint_union(torus((3, 4)), torus((3, 3)))
        res = cc_isomorphic(a, b)
        assert res.isomorphic is True
        assert check_isomorphism(res.witness) is None

    def test_shuffle_invariance(self):
        rng = random.Random(5)
        cc = triangular_lift(star_graph(2, 4))
        for _ in range(3):
            perm = list(range(cc.num_nodes))
            rng.shuffle(perm)
            res = cc_isomorphic(cc, relabel_complex(cc, perm))
            assert res.isomorphic is True
            assert check_isomorphism(res.witness) is None

    def test_non_isomorphic_graphs(self):
        # same degree sequence, different structure
        a = graph_as_cc(cycle_graph(6))
        b = graph_as_cc(cycle_graph(3))
        two_triangles = disjoint_union(b, b)
        assert cc_isomorphic(a, two_triangles).isomorphic is False

    def test_pooled_complexes_with_duplicate_vertex_sets(self):
        # pooled complexes carry 2-cells on the same vertex sets as edges
        from cckit.generators import mog_example_pair
        from cckit.lifting import mog_pool

        left, right = (mog_pool(g) for g in mog_example_pair())
        assert cc_isomorphic(left, right).isomorphic is False
        perm = [3, 2, 5, 4, 0, 1]
        relabeled = relabel_complex(left, perm)
        res = cc_isomorphic(left, relabeled)
        assert res.isomorphic is True
        assert check_isomorphism(res.witness) is None

    def test_equal_components_take_identity(self):
        # equal content needs no search, only the final check of the witness
        parts = [torus((3, 3)), graph_as_cc(cycle_graph(5)), triangular_lift(star_graph(2, 3))]
        a = disjoint_union(disjoint_union(parts[0], parts[1]), parts[2])
        b = disjoint_union(disjoint_union(parts[0], parts[1]), parts[2])
        res = cc_isomorphic(a, b)
        assert res.isomorphic is True and res.nodes_explored == 0
        assert res.witness.assignment == identity_map(a).assignment
        # one component relabeled: only that pair is searched
        perm = list(range(9))
        random.Random(3).shuffle(perm)
        c = disjoint_union(disjoint_union(relabel_complex(parts[0], perm), parts[1]), parts[2])
        res = cc_isomorphic(a, c)
        assert res.isomorphic is True and res.nodes_explored > 0
        assert check_isomorphism(res.witness) is None
        assert res.witness.assignment[0][9:] == tuple(range(9, a.num_nodes))

    @pytest.mark.parametrize(
        "a, b, isomorphic, nodes",
        [
            ((3, 4), (4, 3), True, 4),
            ((4, 10), (5, 8), False, 41),
            ((3, 12), (6, 6), False, 37),
        ],
    )
    def test_search_size(self, a, b, isomorphic, nodes):
        # every search node refines to stability before it branches; a
        # search that branched on an unstable partition would visit more
        res = cc_isomorphic(torus(a), torus(b))
        assert (res.isomorphic, res.nodes_explored) == (isomorphic, nodes)

    def test_budget_unknown(self):
        res = cc_isomorphic(torus((4, 10)), torus((5, 8)), budget=2)
        assert res.isomorphic is None

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("CCKIT_ORACLE_BUDGET", "2")
        res = cc_isomorphic(torus((4, 10)), torus((5, 8)))
        assert res.isomorphic is None


class TestComponentMatching:
    """The one-pass component match against the backtracking reference."""

    @staticmethod
    def shuffled_unions(seed: int):
        """A union of 2-5 connected parts and a relabeled union of the same
        parts in shuffled order; on odd seeds one part of the second union is
        swapped for a part of equal skeleton sizes that is not isomorphic."""
        rng = random.Random(seed)
        graph = random_graph(rng, 7, 0.5)
        pool = [torus((3, 3)), torus((3, 4)), torus((4, 3)), cylinder((3, 4)), moebius((3, 4))]
        pool.append(cyclic_lift(graph, 7))
        parts = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
        if seed % 2:
            parts[0] = cylinder((3, 4))
        others = list(parts)
        if seed % 2:
            others[0] = moebius((3, 4))
        rng.shuffle(others)
        b = disjoint_union_all(others)
        perm = list(range(b.num_nodes))
        rng.shuffle(perm)
        return disjoint_union_all(parts), relabel_complex(b, perm)

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_backtracking_reference(self, seed):
        a, b = self.shuffled_unions(seed)
        res, ref = cc_isomorphic(a, b), reference_witness(a, b)
        assert res.isomorphic is (ref is not None)
        if ref is not None:
            assert [np.asarray(x).tolist() for x in res.witness.images] == [
                np.asarray(x).tolist() for x in ref
            ]


def shuffled(cc, seed: int):
    perm = list(range(cc.num_nodes))
    random.Random(seed).shuffle(perm)
    return relabel_complex(cc, perm)


@st.composite
def tiny_pairs(draw):
    """A complex on at most 6 nodes and a relabeled copy in which one cell of
    rank r >= 1 is swapped for a random vertex set of the same size."""
    cc = draw(arbitrary_complexes(max_nodes=6))
    cells = [(verts, r) for r in range(1, cc.dimension + 1) for verts in cc.skeletons[r]]
    assume(cells)
    rng = random.Random(draw(st.integers(0, 10**6)))
    i = rng.randrange(len(cells))
    verts, r = cells[i]
    cells[i] = (tuple(sorted(rng.sample(range(cc.num_nodes), len(verts)))), r)
    assume(cells[i][0] != verts)
    try:
        other = build_cc(cells, cc.num_nodes)
    except (DuplicateCell, RankViolation):
        assume(False)
    return cc, shuffled(other, rng.randrange(10**6))


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(arbitrary_complexes(), st.integers(0, 10**6))
    def test_relabelings_are_isomorphic(self, cc, seed):
        res = cc_isomorphic(cc, shuffled(cc, seed))
        assert res.isomorphic is True
        assert check_isomorphism(res.witness) is None

    @settings(max_examples=200, deadline=None)
    @given(tiny_pairs())
    def test_matches_brute_force(self, pair):
        a, b = pair
        res = cc_isomorphic(a, b)
        assert res.isomorphic is brute_isomorphic(a, b)
        if res.isomorphic:
            assert check_isomorphism(res.witness) is None
