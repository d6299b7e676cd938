"""Per-layer spans for cckit, recorded from outside the program.

A traced pass wraps the module-level names through which one layer of cckit
calls another, plus three methods of ``CombinatorialComplex``.  Each wrapper
records a span (name, start, end, parent) in memory; a layer's self time is its
spans' duration minus the duration of their child spans.  Every name is
restored when the pass ends.

Only functions that run at most once per complex, pair or certificate are
wrapped.  Per-cell helpers (``has_cell``, ``cell_position``, ``graph_bfs``)
stay untouched.  ``neighbor_lists`` is called once per cell by
``verify_covering`` and ``orientability_2d``, so only the first call per
(complex, spec) opens a span: that is the call that fills the cache.  The
later calls are cache hits.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from cckit import bench, covering, generators, invariants, iso, lifting, refinement
from cckit import complex as complex_mod
from cckit.complex import CombinatorialComplex
from cckit.refinement import PoolStage, SclBlock

# Span names, one per wrapped layer function; each reports self_s and calls.
SPANS = (
    "bench.gen_torus_dataset",
    "bench.label_lifted_graph",
    "generators.torus",
    "complex.build_cc",
    "complex.neighbor_lists",
    "complex.contains_lists",
    "complex.contained_lists",
    "covering.torus_union_certificate",
    "covering.cell_map_from_node_map",
    "covering.verify_covering",
    "invariants.betti_gf2",
    "invariants.cross_diameter",
    "invariants.shortest_paths",
    "lifting.cyclic_lift",
    "lifting.mog_pool",
    "refinement.homp",
    "refinement.smcn",
    "refinement.oracle",
    "iso.cc_isomorphic",
    "iso.split_components",
    "iso.check_isomorphism",
)

# Work counters gathered at the same boundaries: (name, unit, better).
COUNTERS = (
    ("generators.torus.cells", "count", "lower"),
    ("complex.build_cc.cells", "count", "lower"),
    ("covering.verify_covering.violations", "count", "lower"),
    ("lifting.cyclic_lift.two_cells", "count", "lower"),
    ("refinement.homp.separated", "count", "higher"),
    ("refinement.homp.rounds", "count", "lower"),
    ("refinement.smcn.separated", "count", "higher"),
    ("refinement.smcn.rounds", "count", "lower"),
    ("refinement.smcn.pair_cells", "count", "lower"),
    ("refinement.oracle.separated", "count", "higher"),
    ("iso.nodes_explored", "count", "lower"),
    ("iso.unknown", "count", "lower"),
    ("iso.witnesses", "count", "higher"),
)


def _add_cells(key):
    def count(counts, cc, args):
        counts[key] += cc.num_cells()

    return count


def _count_violations(counts, violation, args):
    counts["covering.verify_covering.violations"] += violation is not None


def _count_two_cells(counts, cc, args):
    counts["lifting.cyclic_lift.two_cells"] += len(cc.cells(2))


def _count_separated(counts, verdict, args):
    counts[_engine_span(*args) + ".separated"] += verdict.distinguished


def _count_iso(counts, res, args):
    counts["iso.nodes_explored"] += res.nodes_explored
    counts["iso.unknown"] += res.isomorphic is None
    counts["iso.witnesses"] += res.witness is not None


def _engine_span(a, b, engine) -> str:
    return "refinement." + engine.name.split(":")[0]


# (owner, attribute, span name, result counter).  The same function is wrapped
# in every module that calls it through its own global name.
_WRAPPED = (
    (bench, "gen_torus_dataset", "bench.gen_torus_dataset", None),
    (bench, "label_lifted_graph", "bench.label_lifted_graph", None),
    (bench, "torus", "generators.torus", _add_cells("generators.torus.cells")),
    (covering, "torus", "generators.torus", _add_cells("generators.torus.cells")),
    (generators, "build_cc", "complex.build_cc", _add_cells("complex.build_cc.cells")),
    (complex_mod, "build_cc", "complex.build_cc", _add_cells("complex.build_cc.cells")),
    (iso, "build_cc", "complex.build_cc", _add_cells("complex.build_cc.cells")),
    (lifting, "build_cc", "complex.build_cc", _add_cells("complex.build_cc.cells")),
    (CombinatorialComplex, "contains_lists", "complex.contains_lists", None),
    (CombinatorialComplex, "contained_lists", "complex.contained_lists", None),
    (bench, "torus_union_certificate", "covering.torus_union_certificate", None),
    (covering, "cell_map_from_node_map", "covering.cell_map_from_node_map", None),
    (covering, "verify_covering", "covering.verify_covering", _count_violations),
    (bench, "betti_gf2", "invariants.betti_gf2", None),
    (bench, "cross_diameter", "invariants.cross_diameter", None),
    (bench, "shortest_paths", "invariants.shortest_paths", None),
    (invariants, "shortest_paths", "invariants.shortest_paths", None),
    (refinement, "shortest_paths", "invariants.shortest_paths", None),
    (bench, "cyclic_lift", "lifting.cyclic_lift", _count_two_cells),
    (lifting, "cyclic_lift", "lifting.cyclic_lift", _count_two_cells),
    (lifting, "mog_pool", "lifting.mog_pool", None),
    (refinement, "distinguish", _engine_span, _count_separated),
    (iso, "cc_isomorphic", "iso.cc_isomorphic", _count_iso),
    (iso, "split_components", "iso.split_components", None),
    (iso, "check_isomorphism", "iso.check_isomorphism", None),
)


def _seed_ticks(stages) -> dict[int, tuple[int, int]]:
    """Tick at which each pair block seeds its pair space.

    Follows ``run_diagram``'s tick count while every block has a fixed round
    count (the default smcn diagram); stops at the first open-ended block.
    """
    out: dict[int, tuple[int, int]] = {}
    tick = 0
    for st in stages:
        if isinstance(st, SclBlock):
            tick += 1
            out[tick] = (st.r1, st.r2)
        rounds = 1 if isinstance(st, PoolStage) else st.rounds
        if rounds is None:
            break
        tick += rounds
    return out


class Tracer:
    """Spans and counters of one or more traced passes."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._filled: dict[tuple[int, object], CombinatorialComplex] = {}

    def _call(self, name: str, fn, args, kwargs):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name, on_result) -> None:
        original = getattr(owner, attr)
        call, counts = self._call, self.counts

        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            result = call(span, original, args, kwargs)
            if on_result is not None:
                on_result(counts, result, args)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_neighbor_lists(self) -> None:
        original = CombinatorialComplex.neighbor_lists
        call, filled = self._call, self._filled

        def neighbor_lists(cc, spec):
            key = (id(cc), spec)
            if key in filled:
                return original(cc, spec)
            filled[key] = cc  # keeps cc alive, so its id is not reused while tracing
            return call("complex.neighbor_lists", original, (cc, spec), {})

        self._patches.append((CombinatorialComplex, "neighbor_lists", original))
        CombinatorialComplex.neighbor_lists = neighbor_lists

    def _wrap_run_diagram(self) -> None:
        """Count diagram ticks (rounds) and seeded pair cells per engine span."""
        original = refinement.run_diagram
        spans, stack, counts = self.spans, self._stack, self.counts

        def run_diagram(ccs, stages):
            engine = spans[stack[-1]][0] if stack else "refinement"
            seeds = _seed_ticks(stages)
            for tick, snaps, state in original(ccs, stages):
                if tick:
                    counts[engine + ".rounds"] += 1
                if tick in seeds:
                    r1, r2 = seeds[tick]
                    counts[engine + ".pair_cells"] += sum(
                        len(cc.cells(r1)) * len(cc.cells(r2)) for cc in ccs
                    )
                yield tick, snaps, state

        self._patches.append((refinement, "run_diagram", original))
        refinement.run_diagram = run_diagram

    def __enter__(self) -> "Tracer":
        for owner, attr, name, on_result in _WRAPPED:
            self._wrap(owner, attr, name, on_result)
        self._wrap_neighbor_lists()
        self._wrap_run_diagram()
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._filled.clear()

    def layer_totals(self, seconds) -> dict[str, tuple[float, int]]:
        """Self time and call count per span name; ``seconds(start, end)``
        converts one span's interval."""
        durations = [seconds(start, end) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), d in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += d
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, _, _, _), d, inner in zip(self.spans, durations, child):
            agg = totals[name]
            agg[0] += d - inner
            agg[1] += 1
        return {name: (s, n) for name, (s, n) in totals.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent in self.spans:
                fp.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
