#!/usr/bin/env python3
"""Smoke check of the benchmark itself: schema, gates and seed handling.

Run from the repository root (takes about six minutes on 2 cores):

    python3 perfbench/smoke.py

It checks that ``BENCHMARK.json`` keeps the benchmark contract's limits, that
every workload passes its correctness gates and prints exactly the declared
metrics (traced at two seeds, untraced once), that verdict counts do not
depend on the seed, and that the benchmark fails without a result in a
directory holding only ``BENCHMARK.json`` and ``perfbench/``.  It prints the
oracle's search size at both seeds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEEDS = (1, 2)


def check_schema(doc: dict) -> None:
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(doc["paths"]) <= 16 and 1 <= len(doc["command"]) <= 32
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def run(doc: dict, workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [*doc["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(doc: dict, proc, declared: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, out
    assert [m["name"] for m in declared] == list(out["metrics"])
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)
    return {k: v["value"] for k, v in out["metrics"].items()}


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_schema(doc)
    for w in doc["workloads"]:
        verdicts, explored = [], []
        for seed in SEEDS:
            values = result(doc, run(doc, w["name"], seed, 1), doc["per_layer"])
            verdicts.append({k: v for k, v in values.items() if k.endswith(".separated")})
            explored.append(values["iso.nodes_explored"])
        assert verdicts[0] == verdicts[1], f"{w['name']}: verdicts move with the seed: {verdicts}"
        # Not a gate: the oracle picks its branching cell by color ids that
        # follow cell order, so its search size can move under relabeling.
        print(f"ok  {w['name']} traced at seeds {SEEDS}: {verdicts[0]}; "
              f"iso.nodes_explored by seed {explored}")
    values = result(doc, run(doc, doc["workloads"][1]["name"], 1, 0), doc["end_to_end"])
    assert all(v > 0 for v in values.values()), values
    print(f"ok  untraced metrics {sorted(values)}")

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in doc["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(doc, doc["workloads"][0]["name"], 1, 0, cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok  fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
