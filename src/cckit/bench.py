"""Benchmark generation and the distinguishability harness.

The torus dataset enumerates disjoint unions of 2-dimensional tori (canonical
periods p <= q, unions as multisets) and pairs up distinct unions with equal
node counts; every pair carries a verified-by-construction common-cover
certificate and labels naming the invariants that separate it.  Generation is
deterministic: same spec, same bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Sequence

from .complex import (
    CombinatorialComplex,
    SimpleGraph,
    _cc_from_doc,
    _cc_to_doc,
    adjacency,
    disjoint_union_all,
)
from .covering import CoverCertificate, cover_periods, torus_union_certificate
from .errors import BadParams, CCError, ParseError
from .generators import TorusParams, torus
from .invariants import (
    INFINITE,
    Distance,
    betti_gf2,
    cross_diameter,
    shortest_paths,
)
from .lifting import CyclicLiftParams, cyclic_lift
from .refinement import Engine, Verdict, distinguish

TorusUnion = tuple[tuple[int, int], ...]  # sorted multiset of (p, q), p <= q


@dataclass(frozen=True)
class TorusDatasetSpec:
    min_nodes: int
    max_nodes: int
    max_components: int

    def __post_init__(self) -> None:
        if self.min_nodes < 9:
            raise BadParams("min_nodes below the smallest torus (3x3 = 9 nodes)")
        if self.max_nodes < self.min_nodes:
            raise BadParams("max_nodes < min_nodes")
        if self.max_components < 1:
            raise BadParams("max_components must be >= 1")


@dataclass(frozen=True)
class LabeledPair:
    left_params: TorusUnion
    right_params: TorusUnion
    left: CombinatorialComplex
    right: CombinatorialComplex
    certificate: CoverCertificate
    differing_invariants: tuple[dict, ...]

    @property
    def num_nodes(self) -> int:
        return self.left.num_nodes


def enumerate_torus_unions(spec: TorusDatasetSpec) -> dict[int, list[TorusUnion]]:
    """All multisets of canonical tori by total node count, deterministic order."""
    singles = [
        (p, q)
        for p in range(3, spec.max_nodes // 3 + 1)
        for q in range(p, spec.max_nodes // p + 1)
        if p * q <= spec.max_nodes
    ]
    by_nodes: dict[int, list[TorusUnion]] = {}
    for count in range(1, spec.max_components + 1):
        for combo in combinations_with_replacement(singles, count):
            n = sum(p * q for p, q in combo)
            if spec.min_nodes <= n <= spec.max_nodes:
                by_nodes.setdefault(n, []).append(tuple(sorted(combo)))
    for unions in by_nodes.values():
        unions.sort()
    return dict(sorted(by_nodes.items()))


def build_union(params: TorusUnion) -> CombinatorialComplex:
    return disjoint_union_all([torus(TorusParams(pq)) for pq in params])


def _component_diameters(params: TorusUnion) -> tuple[int, ...]:
    return tuple(sorted(p // 2 + q // 2 for p, q in params))


def _distance_histogram(cc: CombinatorialComplex) -> tuple[tuple[str | int, int], ...]:
    dist = shortest_paths(cc, adjacency(0, 1))
    counts: dict[Distance, int] = {}
    for row in dist:
        for d in row:
            counts[d] = counts.get(d, 0) + 1
    items = [("inf" if d == INFINITE else int(d), c) for d, c in counts.items()]
    items.sort(key=lambda dc: (1, 0) if dc[0] == "inf" else (0, dc[0]))
    return tuple(items)


def _pair_labels(
    lp: TorusUnion,
    rp: TorusUnion,
    left: CombinatorialComplex,
    right: CombinatorialComplex,
    bettis: dict[TorusUnion, tuple[int, ...]],
) -> tuple[dict, ...]:
    """Invariants separating the pair; recomputed from the complexes where
    cheap.  Betti numbers come from ``bettis``, one entry per union."""
    labels = []
    if len(lp) != len(rp):
        labels.append(
            {"kind": "components", "left": len(lp), "right": len(rp)}
        )
    bl, br = bettis[lp], bettis[rp]
    if bl != br:
        labels.append({"kind": "betti", "left": list(bl), "right": list(br)})
    dl, dr = _component_diameters(lp), _component_diameters(rp)
    if dl != dr:
        labels.append({"kind": "diameter", "left": list(dl), "right": list(dr)})
    if not labels:
        hl, hr = _distance_histogram(left), _distance_histogram(right)
        if hl != hr:
            labels.append(
                {"kind": "spd_histogram", "left": [list(x) for x in hl], "right": [list(x) for x in hr]}
            )
    return tuple(labels)


def gen_torus_dataset(spec: TorusDatasetSpec) -> list[LabeledPair]:
    """Every unordered pair of distinct equal-node torus unions, labeled.

    Each pair carries the lcm common-cover certificate, whose equal-node
    hypothesis holds by construction.  Pairs with no separating invariant at
    all would be rejected (none exist for any tested parameter range).
    """
    by_nodes = enumerate_torus_unions(spec)
    complexes: dict[TorusUnion, CombinatorialComplex] = {}
    bettis: dict[TorusUnion, tuple[int, ...]] = {}

    def get(params: TorusUnion) -> CombinatorialComplex:
        if params not in complexes:
            complexes[params] = build_union(params)
            bettis[params] = tuple(betti_gf2(complexes[params]))
        return complexes[params]

    pairs: list[LabeledPair] = []
    for n, unions in by_nodes.items():
        for i in range(len(unions)):
            for j in range(i + 1, len(unions)):
                lp, rp = unions[i], unions[j]
                left, right = get(lp), get(rp)
                cert = torus_union_certificate(list(lp), list(rp))
                assert cert is not None  # equal node counts by construction
                labels = _pair_labels(lp, rp, left, right, bettis)
                if not labels:
                    raise CCError(
                        f"pair {lp} vs {rp} separated by no labeled invariant"
                    )
                pairs.append(
                    LabeledPair(lp, rp, left, right, cert, labels)
                )
    return pairs


def pair_to_json(pair: LabeledPair) -> dict:
    return {
        "num_nodes": pair.num_nodes,
        "left": {
            "params": [list(pq) for pq in pair.left_params],
            "cc": _cc_to_doc(pair.left),
        },
        "right": {
            "params": [list(pq) for pq in pair.right_params],
            "cc": _cc_to_doc(pair.right),
        },
        "cover_periods": list(cover_periods(pair.left_params + pair.right_params)),
        "differing_invariants": [dict(d) for d in pair.differing_invariants],
    }


def write_dataset(pairs: Sequence[LabeledPair], fp) -> None:
    for pair in pairs:
        fp.write(json.dumps(pair_to_json(pair), separators=(",", ":")) + "\n")


def read_dataset(fp) -> list[tuple[CombinatorialComplex, CombinatorialComplex, dict]]:
    """Parse a dataset JSONL stream back into complex pairs plus metadata."""
    out = []
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            left, right = (_cc_from_doc(doc[s]["cc"], f"{s}.cc") for s in ("left", "right"))
        except (KeyError, TypeError):
            raise ParseError(
                f"dataset line {lineno}: expected an object with left.cc and right.cc"
            ) from None
        except (json.JSONDecodeError, ParseError) as exc:
            raise ParseError(f"dataset line {lineno}: {exc}") from exc
        out.append((left, right, doc))
    return out


def enumeration_dump(spec: TorusDatasetSpec) -> str:
    """Human-readable per-node-count listing, for mismatch diagnostics."""
    by_nodes = enumerate_torus_unions(spec)
    lines = []
    total = 0
    for n, unions in by_nodes.items():
        k = len(unions)
        total += k * (k - 1) // 2
        shown = ", ".join("+".join(f"T{pq}" for pq in u) for u in unions)
        lines.append(f"  {n} nodes: {k} unions ({k * (k - 1) // 2} pairs): {shown}")
    lines.append(f"  total pairs: {total}")
    return "\n".join(lines)


# -- lifted-graph labeling ----------------------------------------------------


@dataclass(frozen=True)
class LabeledComplex:
    complex: CombinatorialComplex
    cross_diameter_012: Distance | None  # None when no 2-cells exist
    betti2: int


def label_lifted_graph(g: SimpleGraph, lift: CyclicLiftParams) -> LabeledComplex:
    cc = cyclic_lift(g, lift)
    if cc.skeleton_size(2) == 0:
        cd: Distance | None = None
        b2 = 0
    else:
        cd = cross_diameter(cc, adjacency(0, 1), 2)
        b2 = tuple(betti_gf2(cc))[2]
    return LabeledComplex(cc, cd, b2)


def labeled_to_json(index: int, lc: LabeledComplex) -> dict:
    cd = lc.cross_diameter_012
    if cd is None:
        cd_json = None
    elif cd == INFINITE:
        cd_json = "inf"
    else:
        cd_json = int(cd)
    return {
        "index": index,
        "num_nodes": lc.complex.num_nodes,
        "skeleton_sizes": list(lc.complex.skeleton_sizes()),
        "cross_diameter_012": cd_json,
        "betti2": lc.betti2,
    }


# -- benchmark harness -----------------------------------------------------------


@dataclass
class EngineReport:
    """Per-engine counts; an unknown (oracle budget ran out) is neither
    separated nor confirmed indistinguishable."""

    engine: str
    separated: int
    total: int
    rounds: list[int | None] = field(default_factory=list)
    seconds: float = 0.0
    unknown: int = 0


def run_benchmark(
    pairs: Sequence[tuple[CombinatorialComplex, CombinatorialComplex]],
    engines: Sequence[Engine],
    progress: Callable[[str], None] | None = None,
) -> list[EngineReport]:
    """Count separated and unknown pairs per engine, with earliest rounds and
    wall time."""
    reports = []
    for engine in engines:
        t0 = time.perf_counter()
        separated = unknown = 0
        rounds: list[int | None] = []
        for k, (a, b) in enumerate(pairs):
            verdict: Verdict = distinguish(a, b, engine)
            if verdict.distinguished:
                separated += 1
                rounds.append(verdict.round)
            else:
                unknown += verdict.engine.endswith(":unknown")
                rounds.append(None)
            if progress and (k + 1) % 50 == 0:
                progress(f"{engine.name}: {k + 1}/{len(pairs)} pairs")
        reports.append(
            EngineReport(
                engine=engine.name,
                separated=separated,
                total=len(pairs),
                rounds=rounds,
                seconds=time.perf_counter() - t0,
                unknown=unknown,
            )
        )
    return reports
