"""The benchmark tracer's contract with cckit, checked without running the benchmark.

perfbench/tracing.py wraps cckit's module attributes by name; a renamed or
deleted attribute would otherwise surface only in a full benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from cckit import bench, refinement
from cckit.complex import CombinatorialComplex, disjoint_union
from cckit.generators import cycle_graph, torus
from cckit.lifting import CyclicLiftParams
from cckit.refinement import Engine, distinguish

from helpers import relabel_complex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    """perfbench/tracing.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_tracer_restores_every_wrapped_attribute(tracing):
    targets = [(owner, attr) for owner, attr, _, _ in tracing._WRAPPED]
    targets += [(CombinatorialComplex, "neighbor_lists"), (refinement, "run_diagram")]
    before = [getattr(owner, attr) for owner, attr in targets]
    with tracing.Tracer() as tracer:
        wrapped = [getattr(owner, attr) for owner, attr in targets]
        bench.label_lifted_graph(cycle_graph(6), CyclicLiftParams(6))
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(getattr(owner, attr) is b for (owner, attr), b in zip(targets, before))
    assert {"bench.label_lifted_graph", "invariants.cross_diameter"} <= {s[0] for s in tracer.spans}


def _union_and_partners():
    """A 24-node torus union and three other unions of 24 nodes, all fresh
    objects (single tori are shared, and traces live on the object)."""
    def fresh(cc):
        return relabel_complex(cc, list(range(cc.num_nodes)))

    x = disjoint_union(torus((3, 4)), torus((3, 4)))
    return x, [fresh(torus((3, 8))), fresh(torus((4, 6))), disjoint_union(torus((3, 3)), torus((3, 5)))]


def test_tracer_sees_per_complex_runs(tracing):
    # the second and third comparisons of x refine each complex alone; those
    # runs must still go through refinement.run_diagram, or --trace 1 would
    # miss their rounds
    engines = [Engine.homp_full(), Engine.smcn()]
    x, partners = _union_and_partners()
    untraced = [distinguish(x, p, e) for e in engines for p in partners]
    targets = [(owner, attr) for owner, attr, _, _ in tracing._WRAPPED]
    targets += [(CombinatorialComplex, "neighbor_lists"), (refinement, "run_diagram")]
    before = [getattr(owner, attr) for owner, attr in targets]
    x, partners = _union_and_partners()
    with tracing.Tracer() as tracer:
        traced = [refinement.distinguish(x, p, e) for e in engines for p in partners]
    assert traced == untraced
    assert [v.round for v in traced] == [None] * 3 + [2] * 3
    assert all(getattr(owner, attr) is b for (owner, attr), b in zip(targets, before))
    names = [s[0] for s in tracer.spans]
    assert names.count("refinement.homp") == names.count("refinement.smcn") == 3
    # homp is stable after tick 1 and smcn separates at tick 2: one joint run
    # (x with the first partner), then one run each for x and the other two
    assert tracer.counts["refinement.homp.rounds"] == 1 + 3
    assert tracer.counts["refinement.smcn.rounds"] == 2 * (1 + 3)
