"""distinguish through per-complex traces against the joint run.

A complex compared for the second time under the same stages refines alone and
keeps its per-tick tables (``refinement._Trace``).  Whatever the pair order,
the verdict and the separating round must be those of running the two
complexes jointly, which is how every pair was compared before traces.
"""

import random

import pytest

from cckit import bench
from cckit.complex import adjacency, disjoint_union, graph_as_cc
from cckit.errors import CCError, MarkingUnsupported, RankOutOfRange
from cckit.generators import cycle_graph, cylinder, moebius, star_graph, torus
from cckit.lifting import cyclic_lift, mog_pool, triangular_lift
from cckit.refinement import (
    Engine,
    HompBlock,
    PoolStage,
    SclBlock,
    distinguish,
    run_diagram,
)

from helpers import random_graph, relabel_complex

ENGINES = {
    "homp": Engine.homp_full(),
    "smcn": Engine.smcn(),
    "scl_dist": Engine.scl(0, 1, "distance"),
    "scl_bin": Engine.scl(0, 1, "binary"),
    "scl_02_dist": Engine.scl(0, 2, "distance"),
    "custom": Engine.smcn(
        (HompBlock(None, None), SclBlock(0, 1, "binary", None), PoolStage(), HompBlock(None, None))
    ),
}


def joint_verdict(a, b, stages):
    """(distinguished, round) of the joint run, or the error it raised."""
    try:
        for tick, snaps, _ in run_diagram([a, b], stages):
            if snaps[0] != snaps[1]:
                return True, tick
        return False, None
    except CCError as exc:
        return type(exc)


def verdict(a, b, engine):
    try:
        v = distinguish(a, b, engine)
    except CCError as exc:
        return type(exc)
    return v.distinguished, v.round


def has_trace(cc, engine) -> bool:
    return cc._traces.get(engine.stages) is not None


def assert_matches_joint(pairs, engine, seed):
    """Every pair in both orders, all shuffled; returns the complexes that
    ended up holding a trace."""
    expected = {}
    for a, b in pairs:
        expected[id(a), id(b)] = expected[id(b), id(a)] = joint_verdict(a, b, engine.stages)
    ordered = pairs + [(b, a) for a, b in pairs]
    random.Random(seed).shuffle(ordered)
    for a, b in ordered:
        assert verdict(a, b, engine) == expected[id(a), id(b)], (engine.name, a, b)
    return [cc for pair in pairs for cc in pair if has_trace(cc, engine)]


def torus_pairs(seed):
    """The paper's 223 pairs; each union relabeled once, so every union is a
    fresh object shared by all its pairs."""
    rng = random.Random(seed)
    pairs = []
    for unions in bench.enumerate_torus_unions(bench.TorusDatasetSpec(18, 40, 3)).values():
        ccs = []
        for u in unions:
            cc = bench.build_union(u)
            perm = list(range(cc.num_nodes))
            rng.shuffle(perm)
            ccs.append(relabel_complex(cc, perm))
        pairs += [(ccs[i], ccs[j]) for i in range(len(ccs)) for j in range(i + 1, len(ccs))]
    return pairs


def fresh(cc):
    """An equal complex of its own: tori are shared objects, and traces live
    on the object."""
    return relabel_complex(cc, list(range(cc.num_nodes)))


def relabeled(cc, rng):
    perm = list(range(cc.num_nodes))
    rng.shuffle(perm)
    return relabel_complex(cc, perm)


def mixed_complexes(seed):
    """Lifts, pools (2-cells of several widths), strips, tori and the star
    pair, each with a relabeling, so some pairs run their whole diagram."""
    rng = random.Random(seed)
    ccs = [
        cylinder((3, 4)), moebius((3, 4)), cylinder((3, 6)), moebius((3, 6)),
        torus((3, 12)), torus((6, 6)), torus((4, 9)),
        triangular_lift(star_graph(2, 6)),
        disjoint_union(triangular_lift(star_graph(2, 3)), triangular_lift(star_graph(2, 3))),
        graph_as_cc(cycle_graph(12)),
        disjoint_union(graph_as_cc(cycle_graph(6)), graph_as_cc(cycle_graph(6))),
    ]
    for _ in range(6):
        g = random_graph(rng, rng.randint(8, 12), 0.3)
        ccs += [cyclic_lift(g, 8), mog_pool(g), triangular_lift(g)]
    ccs += [relabeled(cc, rng) for cc in ccs]
    return ccs


def same_size_pairs(ccs):
    return [
        (a, b)
        for i, a in enumerate(ccs)
        for b in ccs[i + 1 :]
        if a.num_nodes == b.num_nodes
    ]


class TestDifferentialGate:
    @pytest.mark.parametrize("engine", ["homp", "smcn"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_torus_pairs(self, engine, seed):
        pairs = torus_pairs(seed)
        assert len(pairs) == 223
        traced = assert_matches_joint(pairs, ENGINES[engine], seed)
        assert traced

    @pytest.mark.parametrize("engine", ["scl_dist", "scl_bin", "custom"])
    def test_torus_pairs_pair_engines(self, engine):
        # node counts up to 27: every group, several unions each
        pairs = [(a, b) for a, b in torus_pairs(3) if a.num_nodes <= 27]
        assert assert_matches_joint(pairs, ENGINES[engine], 3)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_mixed_complexes(self, engine):
        ccs = mixed_complexes(4)
        pairs = same_size_pairs(ccs)
        assert assert_matches_joint(pairs, ENGINES[engine], 5)

    def test_same_complex_both_sides(self):
        x = fresh(torus((3, 4)))
        for _ in range(3):
            assert verdict(x, x, ENGINES["smcn"]) == (False, None)
        assert has_trace(x, ENGINES["smcn"])


class TestAdmission:
    def test_single_use_holds_no_trace(self):
        a, b = torus_pairs(1)[0]
        assert distinguish(a, b, ENGINES["smcn"]).distinguished
        assert not has_trace(a, ENGINES["smcn"]) and not has_trace(b, ENGINES["smcn"])

    def test_second_use_traces_both(self):
        x, y, z = graph_as_cc(cycle_graph(9)), fresh(torus((3, 3))), triangular_lift(cycle_graph(9))
        engine = ENGINES["homp"]
        distinguish(x, y, engine)  # unequal dimensions: joint run
        distinguish(x, z, engine)  # equal dimensions, x seen before
        assert not has_trace(y, engine)
        assert has_trace(x, engine) and has_trace(z, engine)

    def test_engines_trace_separately(self):
        a, b, c = (fresh(torus((3, 6))) for _ in range(3))
        distinguish(a, b, ENGINES["homp"])
        distinguish(a, c, ENGINES["smcn"])
        assert not has_trace(a, ENGINES["smcn"]) and not has_trace(a, ENGINES["homp"])


class TestErrors:
    def test_validation_error_leaves_no_trace(self):
        ccs = [graph_as_cc(cycle_graph(6)) for _ in range(3)]
        engine = Engine("bad", (SclBlock(0, 2, "binary", 1),))
        for a, b in [(ccs[0], ccs[1]), (ccs[0], ccs[2]), (ccs[1], ccs[2])] * 2:
            with pytest.raises(RankOutOfRange):
                distinguish(a, b, engine)
        assert all(not cc._traces for cc in ccs)

    def test_run_error_raises_every_time(self):
        # a distance marking from rank 1 fails only when the pair block seeds
        ccs = [fresh(torus((3, 4))) for _ in range(3)]
        engine = Engine.scl(1, 2, "distance")
        for a, b in [(ccs[0], ccs[1]), (ccs[0], ccs[2]), (ccs[1], ccs[2])] * 2:
            with pytest.raises(MarkingUnsupported):
                distinguish(a, b, engine)
        assert not any(has_trace(cc, engine) for cc in ccs)

    def test_unhashable_stages_run_jointly(self):
        # a spec list makes the stages unhashable: nothing is cached
        engine = Engine("homp:list", (HompBlock([adjacency(0, 1), adjacency(1, 2)], None),))
        ccs = [fresh(torus((3, 6))), disjoint_union(torus((3, 3)), torus((3, 3))), fresh(torus((3, 6)))]
        for a, b in [(ccs[0], ccs[1]), (ccs[0], ccs[2]), (ccs[1], ccs[2])]:
            assert verdict(a, b, engine) == joint_verdict(a, b, engine.stages)
        assert all(not cc._traces for cc in ccs)
