"""The seeded workloads of the cckit benchmark.

Each workload has three parts:

* ``inputs(seed)`` derives everything random (node relabelings, graphs,
  verification order) from the seed alone;
* ``build(inputs)`` builds the complexes one pass needs.  Every engine gets
  its own freshly built complexes, so an engine's time does not depend on
  which engine ran first and includes the lazy neighborhood fill a user pays.
  Within one engine's set, each distinct union is one object shared by all
  its pairs, as ``gen_torus_dataset`` returns them;
* ``run(built, tally)`` is the measured pass.  It times each call into cckit's
  public API and checks every result against the pinned counts; a mismatch is
  a failed operation.

All calls go through module attributes (``refinement.distinguish``, not a
name bound at import), so a traced pass sees them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import lcm

from cckit import bench, iso, lifting, refinement
from cckit import complex as complex_mod
from cckit.bench import TorusDatasetSpec
from cckit.complex import SimpleGraph
from cckit.lifting import CyclicLiftParams
from cckit.refinement import Engine, SclBlock

ENGINES = (Engine.homp_full(), Engine.smcn(), Engine.oracle())


@dataclass
class Tally:
    """One pass: timed calls per stage and checked operations.

    Times are kept as ``perf_counter`` intervals and converted to reference
    seconds after the run (see ``clock.py``).
    """

    items: dict[str, int] = field(default_factory=dict)
    intervals: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def timed(self, stage: str, items: int, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.items[stage] = self.items.get(stage, 0) + items
        self.intervals.setdefault(stage, []).append((t0, time.perf_counter()))
        return result

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabeled(cc, perm):
    cells = [
        (tuple(perm[v] for v in verts), r)
        for r in range(1, cc.dimension + 1)
        for verts in cc.cells(r)
    ]
    return complex_mod.build_cc(cells, cc.num_nodes)


def _relabeled_graph(g: SimpleGraph, perm) -> SimpleGraph:
    return SimpleGraph.from_edges(g.num_nodes, [(perm[u], perm[v]) for u, v in g.sorted_edges()])


def _pair_space(cc) -> int:
    """Cells of the pair spaces the default smcn diagram seeds on one complex."""
    return sum(
        len(cc.cells(st.r1)) * len(cc.cells(st.r2))
        for st in Engine.smcn().stages
        if isinstance(st, SclBlock)
    )


def _run_engine(tally: Tally, engine: Engine, pairs, expect_separated: bool, label: str) -> None:
    """One engine over (a, b) pairs; an oracle "unknown" is a failure."""
    stage = engine.name.split(":")[0] + "_pairs"
    for a, b in pairs:
        verdict = tally.timed(stage, 1, refinement.distinguish, a, b, engine)
        ok = verdict.distinguished == expect_separated
        if engine.stages is None:
            ok = ok and verdict.engine == "oracle"
        tally.check(ok, f"{label}: {engine.name} gave {verdict}")


def _input_counters(pairs, covers: int = 0) -> dict[str, float]:
    """Input properties of the pairs one engine sees in a pass."""
    complexes = {id(c): c for pair in pairs for c in pair}.values()
    return {
        "pair_slots": 2 * len(pairs),
        "distinct_complexes": len(complexes),
        "complex_reuse": 2 * len(pairs) / len(complexes),
        "distinct_covers": covers,
        "total_cells": sum(cc.num_cells() for cc in complexes),
        "pair_space": sum(_pair_space(a) + _pair_space(b) for a, b in pairs),
    }


# -- torus_certify ---------------------------------------------------------------


class TorusCertify:
    """gen_torus_dataset, then CoverCertificate.verify() on every certificate.

    The certification path, where generators, complex and covering do the
    work and refinement and iso do nothing.  The paper's spec (18, 40, 3)
    takes about a minute per pass on a 2-core machine, beyond one run, so the
    pass uses its prefix up to 36 nodes: 125 pairs, covers up to 7,200 nodes.
    The seed only orders verification.
    """

    spec = TorusDatasetSpec(18, 36, 3)
    expected_pairs = 125

    def inputs(self, seed: int):
        return random.Random(seed)

    def build(self, rng):
        return rng

    def run(self, rng, tally: Tally) -> None:
        pairs = tally.timed("gen_pairs", 0, bench.gen_torus_dataset, self.spec)
        tally.items["gen_pairs"] += len(pairs)
        tally.check(len(pairs) == self.expected_pairs, f"{len(pairs)} pairs generated")
        for p in pairs:
            tally.check(
                p.certificate.node_counts == (p.left.num_nodes, p.right.num_nodes)
                and bool(p.differing_invariants),
                f"pair {p.left_params} vs {p.right_params} is not certified and labeled",
            )
        order = list(range(len(pairs)))
        rng.shuffle(order)
        for k in order:
            violation = tally.timed("verify_certs", 1, pairs[k].certificate.verify)
            tally.check(violation is None, f"certificate {k}: {violation}")

    def counters(self, rng, built) -> dict[str, float]:
        groups = [us for us in bench.enumerate_torus_unions(self.spec).values() if len(us) > 1]
        pairs = [(us[i], us[j]) for us in groups for i in range(len(us)) for j in range(i + 1, len(us))]
        covers = {
            (lcm(*(pq[0] for pq in a + b)), lcm(*(pq[1] for pq in a + b))) for a, b in pairs
        }
        ccs = {u: bench.build_union(u) for us in groups for u in us}
        return _input_counters([(ccs[a], ccs[b]) for a, b in pairs], len(covers))


# -- torus_engines ---------------------------------------------------------------


class TorusEngines:
    """The paper's 223 torus pairs through homp, smcn and the oracle.

    Small, non-isomorphic pairs, mostly rejected early; each union fills
    several pair slots.  This is where refinement and iso dominate and where
    refining each complex once instead of once per pair would show.
    """

    spec = TorusDatasetSpec(18, 40, 3)
    expected_pairs = 223

    def inputs(self, seed: int):
        rng = random.Random(seed)
        by_nodes = bench.enumerate_torus_unions(self.spec)
        groups = [us for us in by_nodes.values() if len(us) > 1]
        unions = [u for us in groups for u in us]
        perms = {u: _permutation(rng, sum(p * q for p, q in u)) for u in unions}
        pairs = [(us[i], us[j]) for us in groups for i in range(len(us)) for j in range(i + 1, len(us))]
        return perms, pairs

    def build(self, inputs):
        perms, pairs = inputs
        sets = []
        for _ in ENGINES:
            ccs = {u: _relabeled(bench.build_union(u), perm) for u, perm in perms.items()}
            sets.append([(ccs[a], ccs[b]) for a, b in pairs])
        return sets

    def run(self, sets, tally: Tally) -> None:
        tally.check(len(sets[0]) == self.expected_pairs, f"{len(sets[0])} pairs enumerated")
        for engine, pairs, expect in zip(ENGINES, sets, (False, True, True)):
            _run_engine(tally, engine, pairs, expect, "torus pair")

    def counters(self, inputs, sets) -> dict[str, float]:
        return _input_counters(sets[0])


# -- lifted_iso ------------------------------------------------------------------


class LiftedIso:
    """100 sparse random graphs, each as two seeded relabelings of itself.

    20-30 nodes with edge probability 2.6/(n-1), molecule-like sparsity.  The
    graphs themselves come from a fixed seed: the cost of a lift grows steeply
    with the graph's cycles, so graphs drawn per seed made the pass time vary
    by 25% between seeds.  The run's seed draws both relabelings.  The
    pass labels both graphs (cyclic lift, cross-diameter, Betti), pools both,
    and runs homp, smcn and the oracle on the two lifts.  Every pair is
    isomorphic, so homp runs to stability, smcn runs its whole diagram, and
    the oracle takes the positive path and returns a verified witness.
    """

    count = 100
    graph_seed = 0
    lift = CyclicLiftParams(18)

    def inputs(self, seed: int):
        shapes = random.Random(self.graph_seed)
        rng = random.Random(seed)
        pairs = []
        for _ in range(self.count):
            n = shapes.randint(20, 30)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if shapes.random() < 2.6 / (n - 1)
            ]
            g = SimpleGraph.from_edges(n, edges)
            pairs.append(tuple(_relabeled_graph(g, _permutation(rng, n)) for _ in range(2)))
        return pairs

    def build(self, graphs):
        return graphs, [
            [(lifting.cyclic_lift(g, self.lift), lifting.cyclic_lift(h, self.lift)) for g, h in graphs]
            for _ in ENGINES
        ]

    def run(self, built, tally: Tally) -> None:
        graphs, sets = built
        for g, h in graphs:
            lg, lh = tally.timed("label_graphs", 2, _label_both, g, h, self.lift)
            tally.check(
                (lg.cross_diameter_012, lg.betti2, lg.complex.skeleton_sizes())
                == (lh.cross_diameter_012, lh.betti2, lh.complex.skeleton_sizes()),
                f"partner labels differ: {lg} vs {lh}",
            )
        for g, h in graphs:
            pg, ph = tally.timed("pool_graphs", 2, _pool_both, g, h)
            tally.check(pg.skeleton_sizes() == ph.skeleton_sizes(), "pooled partners differ")
        for engine, pairs in zip(ENGINES, sets):
            _run_engine(tally, engine, pairs, False, "lifted relabeling")
        for a, b in sets[-1]:
            res = iso.cc_isomorphic(a, b)
            tally.check(
                res.isomorphic is True
                and res.witness is not None
                and iso.check_isomorphism(res.witness) is None,
                f"oracle on a lifted relabeling: {res.isomorphic}",
            )

    def counters(self, graphs, built) -> dict[str, float]:
        return _input_counters(built[1][0])


def _label_both(g, h, lift):
    return bench.label_lifted_graph(g, lift), bench.label_lifted_graph(h, lift)


def _pool_both(g, h):
    return lifting.mog_pool(g), lifting.mog_pool(h)


WORKLOADS = {
    "torus_certify": TorusCertify(),
    "torus_engines": TorusEngines(),
    "lifted_iso": LiftedIso(),
}
