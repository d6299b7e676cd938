"""The numpy refinement kernel against the per-cell tuple reference.

At every tick of a diagram, the joint cell partition (and the joint pair
partition, where a pair block is live) must equal the one computed by
helpers.ReferenceRefinement, up to renaming of the colors.
"""

import random
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cckit.complex import (
    SimpleGraph,
    disjoint_union,
    disjoint_union_all,
    graph_as_cc,
    natural_specs,
    row_lengths,
)
from cckit.generators import cylinder, moebius, mog_example_pair, star_graph, torus
from cckit.lifting import cyclic_lift, mog_pool, triangular_lift
from cckit.refinement import (
    CellColors,
    Engine,
    HompBlock,
    PoolStage,
    SclBlock,
    _intern,
    _marking_matrix,
    intern_rows,
    padded_gather,
    run_diagram,
)

from helpers import random_graph, reference_diagram, reference_intern, reference_marking


def graphs(max_nodes=8, edge_prob=0.45):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_nodes))
        seed = draw(st.integers(0, 10**6))
        return random_graph(random.Random(seed), n, edge_prob)

    return build()


# values at the edges of the narrow key dtypes, negatives, and the int64 extremes
EDGE_VALUES = [-(2**63), -70000, -300, -2, -1, 0, 1, 254, 255, 256, 65534, 65535, 65536, 2**32, 2**63 - 1]


def int_blocks():
    """2-D int64 blocks of 0-6 rows and 0-5 columns, values small, at dtype
    boundaries or extreme; empty and zero-width blocks included."""

    @st.composite
    def build(draw):
        rows, width = draw(st.integers(0, 6)), draw(st.integers(0, 5))
        values = st.one_of(st.integers(-3, 3), st.sampled_from(EDGE_VALUES))
        flat = draw(st.lists(values, min_size=rows * width, max_size=rows * width))
        return np.array(flat, dtype=np.int64).reshape(rows, width)

    return build()


def same_partition(a, b) -> bool:
    """Equal partitions up to renaming: the pairing of labels is a bijection."""
    return len(a) == len(b) and len(set(a)) == len(set(b)) == len(set(zip(a, b)))


def kernel_cells(state):
    return [
        c
        for ci in range(len(state.ccs))
        for r in range(state.ell + 1)
        for c in state.colors[state.span(ci, r)].tolist()
    ]


def reference_cells(ref):
    return [c for per_rank in ref.colors for row in per_rank for c in row]


def assert_kernel_matches_reference(ccs, engine):
    ticks = zip_longest(run_diagram(ccs, engine.stages), reference_diagram(ccs, engine.stages))
    for step, (ours, ref) in enumerate(ticks):
        assert ours is not None and ref is not None, f"tick counts differ at {step}"
        tick, _, state = ours
        assert same_partition(kernel_cells(state), reference_cells(ref)), f"cells at tick {tick}"
        if state.pair_states:
            pairs = [c for m in state.pair_states[-1].mats for c in m.ravel().tolist()]
            ref_pairs = [c for per_cc in ref.pairs for row in per_cc for c in row]
            assert same_partition(pairs, ref_pairs), f"pairs at tick {tick}"


def star_pair():
    whole = triangular_lift(star_graph(2, 6))
    halves = disjoint_union(
        triangular_lift(star_graph(2, 3)), triangular_lift(star_graph(2, 3))
    )
    return whole, halves


FIXTURES = {
    "torus_18": lambda: (torus((3, 6)), disjoint_union(torus((3, 3)), torus((3, 3)))),
    "torus_36": lambda: (torus((3, 12)), torus((6, 6))),
    "torus_27": lambda: (
        torus((3, 9)),
        disjoint_union_all([torus((3, 3)), torus((3, 3)), torus((3, 3))]),
    ),
    "strips": lambda: (cylinder((3, 4)), moebius((3, 4))),
    "star": star_pair,
    "mog": lambda: tuple(mog_pool(g) for g in mog_example_pair()),
}
ENGINES = {
    "homp": Engine.homp_full,
    "smcn": Engine.smcn,
    # pair blocks over every rank pair shape: r1 < r2 with either marking,
    # r1 = r2 (both sides read the same neighborhoods; pooling takes rows
    # and columns), and a block to stability followed by a second block
    "scl_01_bin": lambda: Engine.scl(0, 1, "binary"),
    "scl_02_dist": lambda: Engine.scl(0, 2, "distance"),
    "scl_11_bin": lambda: Engine.scl(1, 1, "binary"),
    "scl_22_bin": lambda: Engine.scl(2, 2, "binary"),
    "scl_12_bin": lambda: Engine.scl(1, 2, "binary"),
    "two_blocks": lambda: Engine.smcn(
        (
            HompBlock(None, 1),
            SclBlock(0, 1, "binary", None),
            SclBlock(1, 1, "binary", 2),
            PoolStage(),
            HompBlock(None, 1),
        )
    ),
}


def with_triangle(g):
    """g with the triangle 0-1-2 added (and nodes, if it has fewer than three)."""
    return SimpleGraph.from_edges(max(g.num_nodes, 3), [*g.edges, (0, 1), (1, 2), (0, 2)])


def top_pair_rank(engine) -> int:
    """The highest rank any pair block of the engine reads."""
    return max((s.r2 for s in engine.stages if isinstance(s, SclBlock)), default=0)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_fixture_partitions(fixture, engine):
    ccs, eng = list(FIXTURES[fixture]()), ENGINES[engine]()
    if top_pair_rank(eng) > min(cc.dimension for cc in ccs):
        pytest.skip("pair block beyond the fixture's dimension")
    assert_kernel_matches_reference(ccs, eng)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=25, deadline=None)
@given(graphs(), graphs())
def test_graph_partitions(engine, g, h):
    eng = ENGINES[engine]()
    if top_pair_rank(eng) < 2:
        ccs = [triangular_lift(g), graph_as_cc(h)]
    else:  # a block over 2-cells needs a triangle in both complexes
        ccs = [triangular_lift(with_triangle(g)), triangular_lift(with_triangle(h))]
    assume(top_pair_rank(eng) <= min(cc.dimension for cc in ccs))
    assert_kernel_matches_reference(ccs, eng)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_distance_marking(g):
    # cyclic lifts and pools give rank-2 cells of several widths, so the
    # marking's gather over padded vertex rows meets its pads
    for cc in (cyclic_lift(g, 8), mog_pool(g)):
        for r2 in range(cc.dimension + 1):
            mark = _marking_matrix(cc, 0, r2, "distance")
            assert mark.tolist() == reference_marking(cc, 0, r2, "distance")


class TestInternRows:
    def test_joint_sorted_order_ids(self):
        # distinct rows numbered in lexicographic order; the pad -1 sorts first
        ids, k = intern_rows([np.array([[1, 2], [0, 5], [1, 2]]), np.array([[0], [1]])])
        assert [i.tolist() for i in ids] == [[3, 1, 3], [0, 2]]
        assert k == 4

    def test_ids_ignore_row_order_and_blocks(self):
        rows = np.array([[4, 1], [0, 2], [4, 1], [3, 3]])
        (whole,), _ = intern_rows([rows])
        shuffled, _ = intern_rows([rows[[3, 1]], rows[[2, 0]]])
        assert np.concatenate(shuffled).tolist() == whole[[3, 1, 2, 0]].tolist()

    def test_padding_does_not_merge_widths(self):
        # [7] padded to [7, -1] must differ from [7, 0]
        ids, k = intern_rows([np.array([[7]]), np.array([[7, 0]])])
        assert k == 2

    def test_empty_block(self):
        ids, k = intern_rows([np.zeros((0, 3), dtype=np.int64)])
        assert k == 0 and ids[0].shape == (0,)

    def test_zero_width_block_is_one_class(self):
        ids, k = intern_rows([np.zeros((3, 0), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)])
        assert k == 1 and [i.tolist() for i in ids] == [[0, 0, 0], [0, 0]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(int_blocks(), min_size=1, max_size=4), st.booleans())
    def test_matches_lexsort_reference(self, blocks, tabulate):
        ids, k, table = _intern(blocks, tabulate)
        ref_ids, ref_k, ref_table = reference_intern(blocks, tabulate)
        assert k == ref_k
        assert [i.tolist() for i in ids] == [i.tolist() for i in ref_ids]
        assert table == ref_table


class TestGathers:
    def test_specs_without_neighbors_add_no_columns(self):
        # in a cyclic lift no edge or 2-cell lies inside a lower-rank cell, so
        # those incidence specs are empty; the other columns keep the
        # positions of the specs they gather
        ccs = [cyclic_lift(random_graph(random.Random(s), 10, 0.5), 8) for s in (1, 2)]
        assert all(cc.dimension == 2 for cc in ccs)
        kernel = CellColors(ccs, 2)
        specs = tuple(natural_specs(2))
        for r, (index, segment) in enumerate(kernel._build(specs)):
            mine = [s for s in specs if s.r1 == r]
            widths = [
                max(int(row_lengths(cc.neighbor_csr(s)[0]).max(initial=0)) for cc in ccs)
                for s in mine
            ]
            assert segment.tolist() == [p for p, w in enumerate(widths) for _ in range(w)]
            assert index.shape == (kernel.rank_span(r).stop - kernel.rank_span(r).start, sum(widths))


class TestPaddedGather:
    def test_joint_width_and_shift(self):
        csrs = [(np.array([0, 2, 2]), np.array([0, 2])), (np.array([0, 1]), np.array([1]))]
        a, b = padded_gather(csrs, [0, 10])
        assert a.tolist() == [[0, 2], [-1, -1]]
        assert b.tolist() == [[11, -1]]
