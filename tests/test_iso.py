import functools
import hashlib
import inspect
import random
import sys
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cckit.complex import (
    NeighborhoodKind,
    build_cc,
    disjoint_union,
    disjoint_union_all,
    graph_as_cc,
)
from cckit import bench, iso
from cckit.covering import CellMap, cell_map_from_node_map, torus_mod_cover
from cckit.errors import BadParams, DuplicateCell, RankViolation
from cckit.generators import cycle_graph, cylinder, moebius, mog_example_pair, star_graph, torus
from cckit.iso import (
    _component_witness,
    _components,
    _Counter,
    cc_isomorphic,
    check_isomorphism,
    split_components,
)
from cckit.lifting import cyclic_lift, mog_pool, triangular_lift

from helpers import (
    arbitrary_complexes,
    brute_isomorphic,
    cfi_pair,
    klein_bottle,
    lifted_iso_graphs,
    random_graph,
    random_split_graph,
    reference_components,
    reference_witness,
    relabel_complex,
    sequential_oracle,
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

    def test_pinned_witnesses(self):
        """The witness images of the benchmark's lifts, pools and torus unions,
        each against a relabeling, pinned by one digest."""
        ccs = []
        for g in lifted_iso_graphs(100, 0):
            ccs += [cyclic_lift(g, 18), mog_pool(g)]
        groups = bench.enumerate_torus_unions(bench.TorusDatasetSpec(18, 40, 3)).values()
        ccs += [bench.build_union(u) for us in groups if len(us) > 1 for u in us]
        rng = random.Random(7)
        digest, nodes = hashlib.sha256(), 0
        for cc in ccs:
            perm = list(range(cc.num_nodes))
            rng.shuffle(perm)
            res = cc_isomorphic(cc, relabel_complex(cc, perm))
            nodes += res.nodes_explored
            for row in res.witness.images:
                digest.update(row.astype(np.int64).tobytes())
        assert (len(ccs), nodes) == (275, 969)
        assert digest.hexdigest() == "c21498bfeb50ec11d7c0e27e09239117483a40e603b99a2c8bf54b59e2097862"

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

    def test_twins_search_without_recursion(self):
        # the leaves of a star are twins that no refinement splits, so the
        # search individualizes them one level at a time, 99 levels deep
        star = build_cc([((0, leaf), 1) for leaf in range(1, 101)], 101)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 80)
        try:
            res = cc_isomorphic(star, shuffled(star, 0))
        finally:
            sys.setrecursionlimit(limit)
        assert (res.isomorphic, res.nodes_explored) == (True, 100)

    def test_budget_unknown(self):
        res = cc_isomorphic(torus((4, 10)), torus((5, 8)), budget=2)
        assert res.isomorphic is None

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("CCKIT_ORACLE_BUDGET", "2")
        res = cc_isomorphic(torus((4, 10)), torus((5, 8)))
        assert res.isomorphic is None

    @pytest.mark.parametrize("raw", ["abc", "1.5", "", "-1"])
    def test_malformed_env_budget(self, monkeypatch, raw):
        monkeypatch.setenv("CCKIT_ORACLE_BUDGET", raw)
        with pytest.raises(BadParams, match=f"CCKIT_ORACLE_BUDGET={raw!r}"):
            cc_isomorphic(torus((4, 10)), torus((5, 8)))
        # an explicit budget does not read the variable
        assert cc_isomorphic(torus((3, 4)), torus((4, 3)), budget=10).isomorphic is True

    @pytest.mark.parametrize("budget", [-5, 2.5, True, "10"])
    def test_budget_not_a_non_negative_integer(self, budget):
        with pytest.raises(BadParams, match=f"budget={budget!r}"):
            cc_isomorphic(torus((4, 10)), torus((5, 8)), budget=budget)

    def test_numpy_integer_budget(self):
        res = cc_isomorphic(torus((4, 10)), torus((5, 8)), budget=np.int64(40))
        assert (res.isomorphic, res.nodes_explored) == (None, 41)


CFI_BASES = {
    "K4": list(combinations(range(4), 2)),
    "prism": [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    "K33": [(u, v) for u in range(3) for v in range(3, 6)],
    "petersen": [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
}


class TestCFI:
    """Cai-Fuerer-Immerman pairs, twisted against untwisted: refinement never
    separates them, so a non-isomorphic pair walks the whole search tree."""

    @pytest.mark.parametrize("base, nodes", [("K4", 185), ("prism", 397)])
    def test_not_isomorphic(self, base, nodes):
        res = cc_isomorphic(*cfi_pair(CFI_BASES[base]))
        assert (res.isomorphic, res.nodes_explored) == (False, nodes)

    @pytest.mark.parametrize("base", ["K33", "petersen"])
    def test_small_budget_ends_unknown(self, base):
        res = cc_isomorphic(*cfi_pair(CFI_BASES[base]), budget=50)
        assert (res.isomorphic, res.nodes_explored) == (None, 51)

    @pytest.mark.parametrize("base", ["K4", "petersen"])
    def test_relabeling_is_isomorphic(self, base):
        twisted = cfi_pair(CFI_BASES[base])[1]
        res = cc_isomorphic(twisted, shuffled(twisted, 7))
        assert res.isomorphic is True
        assert check_isomorphism(res.witness) is None


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


class TestComponentSignature:
    """The oracle compares the sorted per-component skeleton sizes of the two
    complexes before it splits or searches."""

    def test_torus_union_pair_searched_before_rejecting(self):
        # T(3,3)+T(3,3)+T(3,6) against T(3,3)+T(3,4)+T(3,5): equal totals.  With
        # the first part relabeled, the one-pass match searches it against
        # b's T(3,3) before it finds no partner for the second T(3,3)
        a = disjoint_union_all([shuffled(torus((3, 3)), 1), torus((3, 3)), torus((3, 6))])
        b = disjoint_union_all([torus((3, 3)), torus((3, 4)), torus((3, 5))])
        for x, y in ((a, b), (b, a)):
            res = cc_isomorphic(x, y)
            assert (res.isomorphic, res.nodes_explored) == (False, 0)

    @pytest.mark.parametrize("budget", [None, 1])
    def test_equal_totals_different_component_sizes(self, budget):
        # equal skeleton sizes and component counts; T(3,12) and T(6,6) have
        # equal sizes, so a split-first match would search (37 nodes, or
        # "unknown" within a budget of 1) before it failed on the others
        a = disjoint_union_all([torus((3, 12)), torus((3, 4)), torus((3, 6))])
        b = disjoint_union_all([torus((6, 6)), torus((3, 5)), torus((3, 5))])
        assert a.skeleton_sizes() == b.skeleton_sizes()
        assert len(split_components(a)) == len(split_components(b))
        res = cc_isomorphic(a, b, budget)
        assert (res.isomorphic, res.nodes_explored) == (False, 0)

    def test_labels_kept_read_only(self):
        cc = disjoint_union(torus((3, 3)), graph_as_cc(cycle_graph(4)))
        labels, signature = _components(cc)
        assert labels.tolist() == [0] * 9 + [1] * 4
        assert not labels.flags.writeable
        with pytest.raises(ValueError):
            labels[0] = 1
        assert _components(cc)[0] is labels
        # rows (nodes, edges, faces) per component, sorted
        assert signature == np.array([[4, 4, 0], [9, 18, 9]]).tobytes()
        assert [c.complex.skeleton_sizes() for c in split_components(cc)] == [(9, 18, 9), (4, 4)]

    @pytest.mark.parametrize(
        "cc",
        [
            shuffled(disjoint_union_all([torus((3, 3)), torus((3, 4)), cylinder((3, 4))]), 2),
            cyclic_lift(random_split_graph(random.Random(4), 8), 5),
            mog_pool(mog_example_pair()[0]),
            torus((3, 5)),
        ],
        ids=["torus-union", "split-lift", "pooled", "connected"],
    )
    def test_split_components_matches_reference(self, cc):
        got = [(c.complex, c.nodes.tolist()) for c in split_components(cc)]
        assert got == reference_components(cc)

    @settings(max_examples=100, deadline=None)
    @given(arbitrary_complexes())
    def test_split_components_matches_reference_on_arbitrary_complexes(self, cc):
        got = [(c.complex, c.nodes.tolist()) for c in split_components(cc)]
        assert got == reference_components(cc)


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


class TestComponentWitness:
    """Every node map of the incidence search extends to an isomorphism by
    itself, before cc_isomorphic's final check of the joined map."""

    @staticmethod
    def assert_witnesses(cc, seed):
        for comp in split_components(cc):
            c = comp.complex
            d = shuffled(c, seed)
            witness = _component_witness(c, d, _Counter(10**6))
            assert witness is not None
            assert check_isomorphism(cell_map_from_node_map(c, d, witness)) is None

    @settings(max_examples=200, deadline=None)
    @given(arbitrary_complexes(), st.integers(0, 10**6))
    def test_arbitrary_complexes(self, cc, seed):
        self.assert_witnesses(cc, seed)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_pooled_complexes_with_duplicate_vertex_sets(self, seed):
        rng = random.Random(seed)
        cc = mog_pool(random_graph(rng, rng.randint(3, 9), 0.4))
        edges = set(cc.cells(1))
        assume(any(verts in edges for verts in cc.cells(2)))
        self.assert_witnesses(cc, seed)

    def test_search_reads_only_incidence(self):
        # fresh complexes, so no other caller has filled their caches
        a, b = shuffled(torus((3, 4)), 1), shuffled(torus((3, 4)), 2)
        res = cc_isomorphic(a, b)
        assert res.isomorphic is True and res.nodes_explored > 0
        incidence = {NeighborhoodKind.INCIDENCE_UP, NeighborhoodKind.INCIDENCE_DOWN}
        for cc in (a, b):
            assert {spec.kind for spec in cc._csr_cache} <= incidence


def outcome(res) -> tuple:
    images = None if res.witness is None else [row.tolist() for row in res.witness.images]
    return res.isomorphic, res.nodes_explored, images


def assert_matches_sequential(a, b, budget=None) -> None:
    """The batched search agrees with the search that refines every sibling
    alone: verdict, node count and witness."""
    batched = outcome(cc_isomorphic(a, b, budget))
    with sequential_oracle():
        assert batched == outcome(cc_isomorphic(a, b, budget))


class TestBatchedSearch:
    """The siblings of a branch point refined as one batch: differential
    against the sequential search, and the batch's cell cap."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def torus_pairs():
        groups = [us for us in bench.enumerate_torus_unions(bench.TorusDatasetSpec(18, 40, 3)).values() if len(us) > 1]
        ccs = {u: bench.build_union(u) for us in groups for u in us}
        pairs = [(ccs[a], ccs[b]) for us in groups for a, b in combinations(us, 2)]
        return list(ccs.values()), pairs

    def test_torus_pairs(self):
        unions, pairs = self.torus_pairs()
        assert len(pairs) == 223
        with mock.patch.object(iso, "_Batch", wraps=iso._Batch) as batches:
            for seed, (a, b) in enumerate(pairs):
                assert_matches_sequential(a, b)
                assert_matches_sequential(shuffled(a, seed), shuffled(b, seed + 1))
        assert batches.call_count > 0
        for seed, cc in enumerate(unions):
            assert_matches_sequential(cc, shuffled(cc, seed))

    def test_empty_middle_rank(self):
        """Batches tile a rank without cells: the cube and the Moebius ladder
        on 8 vertices, both cubic, with their edges as rank-2 cells and no
        rank-1 cells; the vertex class has 8 siblings, so 7 are batched."""
        cube = [((u, u ^ 1 << k), 2) for u in range(8) for k in range(3) if u < u ^ 1 << k]
        ladder = [((i, (i + 1) % 8), 2) for i in range(8)] + [((i, i + 4), 2) for i in range(4)]
        a, b = build_cc(cube, 8), build_cc(ladder, 8)
        assert a.skeleton_sizes() == b.skeleton_sizes() == (8, 0, 12)
        with mock.patch.object(iso, "_Batch", wraps=iso._Batch) as batches:
            assert_matches_sequential(a, b)
            assert_matches_sequential(a, shuffled(a, 0))
        assert batches.call_count > 0
        assert cc_isomorphic(a, b).isomorphic is False

    @pytest.mark.parametrize("n, m", [(6, 6), (8, 10)])
    def test_torus_against_klein_bottle(self, n, m):
        """The n x m torus against the Klein bottle grid: equal skeleton sizes
        and GF(2) Betti numbers, and batched siblings that agree with a's and
        are restored to descend, which no torus pair has."""
        a, b = torus((n, m)), klein_bottle(n, m)
        restored = []
        restore = iso._Batch.restore

        def spy(batch, i, state):
            restored.append(restore(batch, i, state))
            return restored[-1]

        with mock.patch.object(iso._Batch, "restore", spy):
            assert_matches_sequential(a, b)
        assert cc_isomorphic(a, b).isomorphic is False
        assert any(restored) and not all(restored)
        assert_matches_sequential(b, shuffled(b, n))

    @settings(max_examples=200, deadline=None)
    @given(arbitrary_complexes(), st.integers(0, 10**6))
    def test_relabelings(self, cc, seed):
        assert_matches_sequential(cc, shuffled(cc, seed))

    @settings(max_examples=100, deadline=None)
    @given(tiny_pairs())
    def test_non_isomorphic_pairs(self, pair):
        assert_matches_sequential(*pair)

    @pytest.mark.parametrize("seed", range(12))
    def test_lifts_and_pools(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(4, 9), 0.45)
        h = random_graph(rng, g.num_nodes, 0.45)
        for make in (lambda g: cyclic_lift(g, 6), mog_pool):
            cc = make(g)
            assert_matches_sequential(cc, shuffled(cc, seed))
            assert_matches_sequential(cc, make(h))

    @pytest.mark.parametrize("a, b, nodes", [((4, 10), (5, 8), 41), ((3, 12), (6, 6), 37)])
    def test_unknown_at_the_same_node(self, a, b, nodes):
        a, b = torus(a), torus(b)
        with mock.patch.object(iso, "_Batch", wraps=iso._Batch) as batches:
            for budget in range(nodes + 1):
                assert_matches_sequential(a, b, budget)
        assert batches.call_count > 0

    @pytest.mark.parametrize("cap, most", [(None, 112), (1, 0), (2, 2), (3, 3), (5, 5)])
    def test_batch_cap(self, monkeypatch, cap, most):
        """Every batch holds at most BATCH_CELLS cells, here the default or
        room for cap copies of a 160-cell torus next to the other; a batch
        holds at least two copies, so a cap of one batches nothing."""
        a, b = (torus((4, 10)), torus((5, 8))) if cap else (torus((12, 12)), torus((9, 16)))
        if cap:
            monkeypatch.setattr(iso, "BATCH_CELLS", (cap + 1) * 160 + 159)
        sizes = []

        class Recorded(iso.CellColors):
            def __init__(self, ccs):
                super().__init__(ccs)
                sizes.append((len(ccs) - 1, len(self.colors)))

        monkeypatch.setattr(iso, "CellColors", Recorded)
        assert_matches_sequential(a, b)
        batches = [(copies, cells) for copies, cells in sizes if copies > 1]
        assert all(cells <= iso.BATCH_CELLS for _, cells in batches)
        assert max((copies for copies, _ in batches), default=0) == most


class TestVF2Differential:
    """cc_isomorphic against networkx VF2 on rank-labeled containment graphs.

    Inputs are unions of 2-4 cyclic lifts of random graphs on at most 8 nodes,
    drawn from one seeded pool, against a relabeling of the shuffled union,
    against a union with parts swapped for pool parts of equal summed
    skeleton sizes, and against a relabeling with one cell moved.  VF2 is far
    too slow for torus pairs, so it stays on these small complexes.
    """

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def pool():
        rng = random.Random(0)
        lifts = [
            cyclic_lift(random_graph(rng, rng.randint(3, 8), 0.45), rng.randint(3, 6))
            for _ in range(40)
        ]
        return lifts, [np.pad(cc.skeleton_sizes(), (0, 2 - cc.dimension)) for cc in lifts]

    @staticmethod
    def containment_digraph(nx, cc):
        """One node per cell labeled by its rank, an arc x -> y when x's vertex
        set lies in y's.  A rank- and containment-preserving bijection of
        cells is exactly a rank-preserving isomorphism of these graphs."""
        cells = [(frozenset(v), r) for r in range(cc.dimension + 1) for v in cc.skeletons[r]]
        g = nx.DiGraph()
        g.add_nodes_from((i, {"rank": r}) for i, (_, r) in enumerate(cells))
        g.add_edges_from(
            (i, j)
            for i, (s, _) in enumerate(cells)
            for j, (t, _) in enumerate(cells)
            if i != j and s <= t
        )
        return g

    @classmethod
    def swapped(cls, picks, rng):
        """The picks with one part swapped for another of equal skeleton sizes,
        or two parts for two others of equal summed sizes; None if the pool
        has no such part."""
        _, sizes = cls.pool()
        options = []
        for i, p in enumerate(picks):
            options += [{i: q} for q in range(len(sizes)) if q != p and (sizes[q] == sizes[p]).all()]
            for j in range(i + 1, len(picks)):
                want = sizes[p] + sizes[picks[j]]
                options += [
                    {i: q, j: r}
                    for q in range(len(sizes))
                    for r in range(q, len(sizes))
                    if sorted((q, r)) != sorted((p, picks[j])) and (sizes[q] + sizes[r] == want).all()
                ]
        if not options:
            return None
        out = list(picks)
        for k, q in rng.choice(options).items():
            out[k] = q
        return out

    @staticmethod
    def moved_cell(cc, rng):
        """cc with one cell of rank >= 1 moved to another vertex set of its size."""
        cells = [(verts, r) for r in range(1, cc.dimension + 1) for verts in cc.skeletons[r]]
        for _ in range(20):
            i = rng.randrange(len(cells))
            verts, r = cells[i]
            moved = list(cells)
            moved[i] = (tuple(sorted(rng.sample(range(cc.num_nodes), len(verts)))), r)
            if moved[i][0] == verts:
                continue
            try:
                return build_cc(moved, cc.num_nodes)
            except (DuplicateCell, RankViolation):
                continue
        return None

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_vf2(self, seed):
        nx = pytest.importorskip("networkx")
        lifts, _ = self.pool()
        rng = random.Random(seed)
        picks = [rng.randrange(len(lifts)) for _ in range(rng.randint(2, 4))]
        a = disjoint_union_all([lifts[p] for p in picks])
        others = [rng.sample(picks, len(picks)), self.swapped(picks, rng)]
        bs = [disjoint_union_all([lifts[p] for p in ps]) for ps in others if ps is not None]
        moved = self.moved_cell(a, rng)
        if moved is not None:
            bs.append(moved)
        ga = self.containment_digraph(nx, a)
        for b in bs:
            b = shuffled(b, rng.randrange(10**6))
            gb = self.containment_digraph(nx, b)
            expected = nx.is_isomorphic(ga, gb, node_match=lambda x, y: x["rank"] == y["rank"])
            res = cc_isomorphic(a, b)
            assert res.isomorphic is expected
            if expected:
                assert check_isomorphism(res.witness) is None
