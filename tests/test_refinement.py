import random

import pytest

from cckit.complex import disjoint_union, graph_as_cc
from cckit.errors import MarkingUnsupported, PoolWithoutScl, RankOutOfRange
from cckit.generators import (
    cycle_graph,
    cylinder,
    moebius,
    mog_example_pair,
    star_graph,
    torus,
)
from cckit.lifting import mog_pool, triangular_lift
from cckit.refinement import (
    Engine,
    HompBlock,
    PoolStage,
    SclBlock,
        distinguish,
    homp_refine,
    scl_refine,
    smcn_refine,
)

from helpers import relabel_complex


def star_pair():
    whole = triangular_lift(star_graph(2, 6))
    halves = disjoint_union(
        triangular_lift(star_graph(2, 3)), triangular_lift(star_graph(2, 3))
    )
    return whole, halves


def _cycle_plus_chord(n, chord):
    from cckit.complex import SimpleGraph

    edges = [(i, (i + 1) % n) for i in range(n)] + [chord]
    return SimpleGraph.from_edges(n, edges)


class TestHompRefine:
    def test_equal_node_tori_indistinguishable(self):
        (_, fa), (_, fb) = homp_refine([torus((3, 12)), torus((6, 6))])
        assert fa == fb

    def test_strips_indistinguishable(self):
        (_, fa), (_, fb) = homp_refine([cylinder((3, 4)), moebius((3, 4))])
        assert fa == fb

    def test_identical_inputs(self):
        x = torus((3, 4))
        (_, fa), (_, fb) = homp_refine([x, x])
        assert fa == fb

    def test_histogram_totals_match_sizes(self):
        cc = cylinder((3, 4))
        (_, fp), = homp_refine([cc])
        for r, hist in enumerate(fp.rank_histograms):
            assert sum(c for _, c in hist) == cc.skeleton_sizes()[r]

    def test_different_sizes_distinguished(self):
        v = distinguish(torus((3, 3)), torus((3, 4)), Engine.homp_full())
        assert v.distinguished and v.round == 0

    def test_stability_within_bound(self):
        # implicit assertion inside run_diagram; a completed call suffices
        homp_refine([triangular_lift(star_graph(2, 6))])


class TestSclRefine:
    def test_c4_binary_tracks_membership(self):
        # a 4-cycle is arc-transitive, so the stable pair coloring carries
        # no information beyond endpoint membership: exactly two colors
        cc = graph_as_cc(cycle_graph(4))
        pc = scl_refine(cc, 0, 1, marking="binary")
        colors = {}
        for x, row in enumerate(pc.colors):
            for y, color in enumerate(row):
                member = x in cc.skeletons[1][y]
                colors.setdefault(member, set()).add(color)
        assert len(colors[True]) == 1
        assert len(colors[False]) == 1
        assert colors[True] != colors[False]

    def test_histogram(self):
        # the distinct pair colors, ascending, with their counts; the 16
        # pairs of a 4-cycle split into 8 incident and 8 other pairs
        pc = scl_refine(graph_as_cc(cycle_graph(4)), 0, 1, marking="binary")
        flat = [c for row in pc.colors for c in row]
        assert pc.histogram() == tuple((c, flat.count(c)) for c in sorted(set(flat)))
        assert sorted(n for _, n in pc.histogram()) == [8, 8]

    def test_dims(self):
        cc = cylinder((3, 4))
        pc = scl_refine(cc, 0, 2, marking="distance", rounds=2)
        assert len(pc.colors) == 12
        assert len(pc.colors[0]) == 8

    def test_distance_marking_needs_rank0(self):
        with pytest.raises(MarkingUnsupported):
            scl_refine(torus((3, 3)), 1, 2, marking="distance")

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            scl_refine(graph_as_cc(cycle_graph(4)), 0, 2, marking="binary")


class TestDistinguish:
    def test_strips_scl_distance(self):
        v = distinguish(cylinder((3, 4)), moebius((3, 4)), Engine.scl(0, 1, "distance"))
        assert v.distinguished

    def test_tori_scl_distance(self):
        v = distinguish(torus((3, 12)), torus((6, 6)), Engine.scl(0, 1, "distance"))
        assert v.distinguished

    def test_star_pair(self):
        whole, halves = star_pair()
        assert not distinguish(whole, halves, Engine.homp_full()).distinguished
        assert distinguish(whole, halves, Engine.scl(0, 2, "distance")).distinguished

    def test_mog_pair(self):
        left, right = (mog_pool(g) for g in mog_example_pair())
        assert not distinguish(left, right, Engine.homp_full()).distinguished
        assert distinguish(left, right, Engine.scl(0, 2, "distance")).distinguished

    def test_oracle_engine(self):
        assert not distinguish(torus((3, 3)), torus((3, 3)), Engine.oracle()).distinguished
        assert distinguish(torus((3, 12)), torus((6, 6)), Engine.oracle()).distinguished

    def test_verdict_repr(self):
        v = distinguish(torus((3, 3)), torus((3, 4)), Engine.homp_full())
        assert "distinguished" in str(v)

    def test_earliest_round_beyond_zero(self):
        # equal sizes and equal degree profiles force at least two rounds
        chord_a = graph_as_cc(_cycle_plus_chord(9, (0, 2)))
        chord_b = graph_as_cc(_cycle_plus_chord(9, (0, 3)))
        v = distinguish(chord_a, chord_b, Engine.homp_full())
        assert v.distinguished
        assert v.round >= 2


class TestSmcn:
    def test_identical_complexes(self):
        x = cylinder((3, 4))
        fa, fb = smcn_refine([x, x])
        assert fa == fb

    def test_default_diagram_separates_strips(self):
        v = distinguish(cylinder((3, 4)), moebius((3, 4)), Engine.smcn())
        assert v.distinguished

    def test_monotone_over_homp(self):
        # anything homp separates, a diagram containing a full block separates
        pairs = [
            (torus((3, 3)), torus((3, 4))),
            (cylinder((3, 4)), torus((3, 4))),
            (graph_as_cc(cycle_graph(4)), graph_as_cc(cycle_graph(5))),
        ]
        for a, b in pairs:
            if distinguish(a, b, Engine.homp_full()).distinguished:
                assert distinguish(a, b, Engine.smcn()).distinguished

    def test_pool_without_scl(self):
        with pytest.raises(PoolWithoutScl):
            smcn_refine([torus((3, 3))], [HompBlock(None, 1), PoolStage()])

    def test_pair_histograms_present(self):
        fa, fb = smcn_refine([cylinder((3, 4)), moebius((3, 4))])
        assert len(fa.pair_histograms) == 1
        assert fa.pair_histograms != fb.pair_histograms

    def test_custom_diagram(self):
        stages = (HompBlock(None, 2), SclBlock(0, 2, "binary", 2), PoolStage())
        fa, fb = smcn_refine([torus((3, 12)), torus((6, 6))], stages)
        assert fa != fb  # binary-marked (0,2) pairs see the face structure


class TestDeterminism:
    def test_verdict_invariant_under_relabeling(self):
        rng = random.Random(3)
        pairs = [
            (cylinder((3, 4)), moebius((3, 4))),
            (torus((3, 12)), torus((6, 6))),
            star_pair(),
        ]
        for engine_factory in (
            Engine.homp_full,
            lambda: Engine.scl(0, 1, "distance"),
            Engine.smcn,
        ):
            for a, b in pairs:
                base = distinguish(a, b, engine_factory()).distinguished
                for _ in range(2):
                    pa = list(range(a.num_nodes))
                    pb = list(range(b.num_nodes))
                    rng.shuffle(pa)
                    rng.shuffle(pb)
                    shuffled = distinguish(
                        relabel_complex(a, pa), relabel_complex(b, pb), engine_factory()
                    ).distinguished
                    assert shuffled == base

    def test_fingerprints_reproducible(self):
        a, b = torus((3, 12)), torus((6, 6))
        first = smcn_refine([a, b])
        second = smcn_refine([a, b])
        assert first == second


class TestSoundness:
    def test_sampled_verdicts_confirmed_by_oracle(self):
        from cckit.iso import cc_isomorphic

        whole, halves = star_pair()
        fixtures = [
            (torus((3, 12)), torus((6, 6))),
            (cylinder((3, 4)), moebius((3, 4))),
            (whole, halves),
            (torus((3, 3)), torus((3, 3))),
        ]
        engines = [Engine.homp_full(), Engine.scl(0, 1, "distance"), Engine.smcn()]
        for a, b in fixtures:
            for engine in engines:
                if distinguish(a, b, engine).distinguished:
                    assert cc_isomorphic(a, b).isomorphic is False
