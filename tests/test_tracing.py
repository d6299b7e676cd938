"""The benchmark tracer's contract with cckit, checked without running the benchmark.

perfbench/tracing.py wraps cckit's module attributes by name; a renamed or
deleted attribute would otherwise surface only in a full benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from cckit import bench, refinement
from cckit.complex import CombinatorialComplex
from cckit.generators import cycle_graph
from cckit.lifting import CyclicLiftParams

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
