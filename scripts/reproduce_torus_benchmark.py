#!/usr/bin/env python3
"""Regenerate the torus pair dataset and run all three engines over it.

Writes the dataset to torus_pairs.jsonl (unless --output says otherwise),
verifies every pair's common-cover certificate, and prints per-engine
separation counts.  Exits 1 if any certificate fails to verify.  Expected
outcome: every certificate verifies, plain cell refinement separates 0/223,
the staged pair-refinement diagram and the exact oracle both separate 223/223.
"""

import argparse
import sys
import time

from cckit.bench import TorusDatasetSpec, gen_torus_dataset, run_benchmark, write_dataset
from cckit.refinement import Engine


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-nodes", type=int, default=18)
    ap.add_argument("--max-nodes", type=int, default=40)
    ap.add_argument("--max-components", type=int, default=3)
    ap.add_argument("--output", default="torus_pairs.jsonl")
    args = ap.parse_args()

    t0 = time.perf_counter()
    spec = TorusDatasetSpec(args.min_nodes, args.max_nodes, args.max_components)
    pairs = gen_torus_dataset(spec)
    print(f"generated {len(pairs)} pairs in {time.perf_counter() - t0:.1f}s")
    with open(args.output, "w") as fp:
        write_dataset(pairs, fp)
    print(f"wrote {args.output}")

    t0 = time.perf_counter()
    failed = 0
    for p in pairs:
        violation = p.certificate.verify()
        if violation is not None:
            failed += 1
            print(f"certificate {p.left_params} vs {p.right_params}: {violation}", file=sys.stderr)
    print(
        f"verified {len(pairs)} certificates in {time.perf_counter() - t0:.1f}s, "
        f"{failed} violations"
    )
    if failed:
        return 1

    reports = run_benchmark(
        [(p.left, p.right) for p in pairs],
        [Engine.homp_full(), Engine.smcn(), Engine.oracle()],
        progress=lambda s: print("  " + s, file=sys.stderr),
    )
    for rep in reports:
        print(
            f"{rep.engine}: separated {rep.separated}/{rep.total}, "
            f"{rep.unknown} unknown ({rep.seconds:.1f}s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
