#!/usr/bin/env python3
"""cckit benchmark: one seeded workload per process, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload torus_engines --seed 1 --seconds 20 --trace 0

The run derives its inputs from the seed, then repeats passes of the workload
until ``--seconds`` have gone by (at least one pass), checking every result.
With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (cckit import
plus input building, median of several builds), ``wall_s`` (median measured
time of one pass, set-up excluded) and ``peak_rss_mb``.  With ``--trace 1``
it alternates untraced and traced passes (at least three) and reports
per-layer self times and work counts per traced pass, the input properties and
the tracing overhead (traced ``wall_s`` minus the untraced ``wall_s`` of the
passes after the first, which runs cold); the spans go to ``perfbench/out/``.

Every time is in reference seconds: wall time scaled by the machine's
momentary speed, sampled by a fixed kernel (see ``clock.py``).  The record
also keeps the raw pass times.

The line before the last holds the run record (commit, versions, CPU count,
seed, per-stage rates); the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from clock import RefClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Extra set-ups after the first pass, while they stay this cheap.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 2.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
)
INPUT_PROPERTIES = (
    "pair_slots",
    "distinct_complexes",
    "complex_reuse",
    "distinct_covers",
    "total_cells",
    "pair_space",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    from tracing import COUNTERS, SPANS

    out = []
    for span in SPANS:
        out.append((f"{span}.self_s", "s", "lower"))
        out.append((f"{span}.calls", "count", "lower"))
    out.extend(COUNTERS)
    out.extend((f"input.{name}", "count", "higher" if name == "complex_reuse" else "lower")
               for name in INPUT_PROPERTIES)
    out.extend([
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("fail_frac", "ratio", "lower"),
    ])
    return out


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Pass:
    traced: bool
    build: tuple[float, float]  # perf_counter interval of the pass's set-up
    tally: "Tally"


def _measure(wl, seed: int, seconds: float, tracer):
    """Passes of one workload until ``seconds`` have gone by.

    Without a tracer, at least one pass.  With one, untraced and traced passes
    alternate, at least three: the first pass runs cold, so the tracing
    overhead compares traced passes with the later untraced ones.
    """
    from workloads import Tally

    t0 = time.perf_counter()
    inputs = wl.inputs(seed)
    inputs_span = (t0, time.perf_counter())
    deadline = time.perf_counter() + seconds
    extra_builds: list[tuple[float, float]] = []
    passes: list[Pass] = []
    counters = None
    while True:
        use_trace = tracer is not None and len(passes) % 2 == 1
        tally = Tally()
        gc.collect()
        start = time.perf_counter()
        with tracer if use_trace else nullcontext():
            built = wl.build(inputs)
            build = (start, time.perf_counter())
            if counters is None:
                counters = wl.counters(inputs, built)
            wl.run(built, tally)
        del built
        passes.append(Pass(use_trace, build, tally))
        # a few more set-ups after the first pass, while they stay cheap
        spent = build[1] - build[0]
        while len(passes) == 1 and len(extra_builds) < SETUP_SAMPLES - 1 and spent < SETUP_BUDGET_S:
            t0 = time.perf_counter()
            wl.build(inputs)
            extra_builds.append((t0, time.perf_counter()))
            spent += extra_builds[-1][1] - t0
        now = time.perf_counter()
        if now + (now - start) > deadline and (tracer is None or len(passes) >= 3):
            break
    return inputs_span, extra_builds, passes, counters


def _pass_seconds(tally, ref) -> float:
    return sum(ref(*iv) for ivs in tally.intervals.values() for iv in ivs)


def _rates(tallies, ref) -> dict[str, float]:
    """Items per reference second per stage, and oracle latency percentiles."""
    items: dict[str, int] = {}
    secs: dict[str, float] = {}
    oracle_ms = []
    for t in tallies:
        for stage, ivs in t.intervals.items():
            items[stage] = items.get(stage, 0) + t.items[stage]
            secs[stage] = secs.get(stage, 0.0) + sum(ref(*iv) for iv in ivs)
        oracle_ms.extend(ref(*iv) * 1e3 for iv in t.intervals.get("oracle_pairs", ()))
    out = {f"{stage}_per_s": items[stage] / secs[stage] for stage in items}
    if len(oracle_ms) >= 100:  # p90 keeps at least 10 samples beyond it
        out["oracle_p50_ms"] = statistics.median(oracle_ms)
        out["oracle_p90_ms"] = statistics.quantiles(oracle_ms, n=10)[-1]
        out["oracle_samples"] = len(oracle_ms)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cckit" / "__init__.py").is_file():
        print(f"perfbench: no cckit sources under {SRC}", file=sys.stderr)
        return 2
    # The oracle budget must not come from the caller's environment.
    os.environ.pop("CCKIT_ORACLE_BUDGET", None)
    sys.path.insert(0, str(SRC))

    with RefClock() as clock:
        t0 = time.perf_counter()
        import cckit
        import numpy

        import_span = (t0, time.perf_counter())
        if Path(cckit.__file__).resolve().parent != (SRC / "cckit").resolve():
            print(f"perfbench: imported cckit from {cckit.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from tracing import Tracer
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        tracer = Tracer() if args.trace else None
        inputs_span, extra_builds, passes, counters = _measure(
            WORKLOADS[args.workload], args.seed, args.seconds, tracer
        )

    ref = clock.ref_seconds
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.tally.attempted for p in passes)
    failed = sum(p.tally.failed for p in passes)
    setup = [ref(*p.build) for p in plain] + [ref(*b) for b in extra_builds]
    walls = [_pass_seconds(p.tally, ref) for p in plain]
    wall_s = statistics.median(walls)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "import_s": ref(*import_span),
        "inputs_s": ref(*inputs_span),
        "setup_samples_s": setup,
        "pass_walls_s": walls,
        "pass_walls_raw_s": [_pass_seconds(p.tally, lambda a, b: b - a) for p in plain],
        "clock_samples": len(clock.starts),
        "rates": _rates([p.tally for p in plain], ref),
        "input": counters,
        "fail_frac": failed / attempted,
        "failures": [f for p in passes for f in p.tally.failures][:10],
    }

    if tracer is not None:
        traced_walls = [_pass_seconds(p.tally, ref) for p in traced]
        overhead = statistics.median(traced_walls) - statistics.median(walls[1:])
        record["traced_pass_walls_s"] = traced_walls
        record["tracing_overhead_s"] = overhead
        n = len(traced)
        values: dict[str, float] = {}
        for name, (self_s, calls) in tracer.layer_totals(ref).items():
            values[f"{name}.self_s"] = self_s / n
            values[f"{name}.calls"] = calls / n
        values.update({k: v / n for k, v in tracer.counts.items()})
        values.update({f"input.{k}": v for k, v in counters.items()})
        values["trace.overhead_s"] = overhead
        values["trace.spans"] = len(tracer.spans) / n
        values["fail_frac"] = failed / attempted
        metrics = {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in per_layer_spec()
        }
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": ref(*import_span) + ref(*inputs_span) + statistics.median(setup),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for line in record["failures"]:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
