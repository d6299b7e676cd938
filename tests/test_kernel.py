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

from cckit.complex import disjoint_union, disjoint_union_all, graph_as_cc
from cckit.generators import cylinder, moebius, mog_example_pair, star_graph, torus
from cckit.lifting import cyclic_lift, mog_pool, triangular_lift
from cckit.refinement import Engine, _marking_matrix, intern_rows, padded_gather, run_diagram

from helpers import random_graph, reference_diagram, reference_marking


def graphs(max_nodes=8, edge_prob=0.45):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_nodes))
        seed = draw(st.integers(0, 10**6))
        return random_graph(random.Random(seed), n, edge_prob)

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
ENGINES = {"homp": Engine.homp_full, "smcn": Engine.smcn}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_fixture_partitions(fixture, engine):
    assert_kernel_matches_reference(list(FIXTURES[fixture]()), ENGINES[engine]())


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=25, deadline=None)
@given(graphs(), graphs())
def test_graph_partitions(engine, g, h):
    ccs = [triangular_lift(g), graph_as_cc(h)]
    if engine == "smcn":  # its pair block needs edges
        assume(all(cc.dimension >= 1 for cc in ccs))
    assert_kernel_matches_reference(ccs, ENGINES[engine]())


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


class TestPaddedGather:
    def test_joint_width_and_shift(self):
        csrs = [(np.array([0, 2, 2]), np.array([0, 2])), (np.array([0, 1]), np.array([1]))]
        a, b = padded_gather(csrs, [0, 10])
        assert a.tolist() == [[0, 2], [-1, -1]]
        assert b.tolist() == [[11, -1]]
