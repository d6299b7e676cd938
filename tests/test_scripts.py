"""The scripts under scripts/ run end to end as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_strip_blindspot_demo():
    proc = run_script("strip_blindspot_demo.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for expected in (
        "cylinder orientability: orientable",
        "moebius orientability:  non-orientable",
        "cylinder boundary cycles: [4, 4]",
        "moebius boundary cycles:  [8]",
    ):
        assert expected in lines


def test_reproduce_torus_benchmark(tmp_path):
    out = tmp_path / "pairs.jsonl"
    proc = run_script("reproduce_torus_benchmark.py", "--max-nodes", "24", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert ", 0 violations" in proc.stdout
    pairs = out.read_text().splitlines()
    assert pairs and all(json.loads(line) for line in pairs)


def test_label_lifted_sample():
    proc = run_script("label_lifted_sample.py", "--count", "5")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 5
