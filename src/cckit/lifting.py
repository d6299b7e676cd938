"""Graph-to-complex constructions: triangle lift, chordless-cycle lift, Mapper pooling.

All three keep the graph itself as ranks 0-1 and add rank-2 cells on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

import numpy as np

from .complex import CombinatorialComplex, SimpleGraph, Verts, build_cc
from .errors import BadParams, DegenerateCover
from .invariants import bfs_distances, component_labels, graph_edges

Rational = Fraction | int


@dataclass(frozen=True)
class CyclicLiftParams:
    """Upper bound on the length of cycles added as 2-cells; at least 3."""

    max_len: int = 18

    def __post_init__(self) -> None:
        if self.max_len < 3:
            raise BadParams(f"max cycle length {self.max_len} < 3")


@dataclass(frozen=True)
class MogParams:
    """Interval cover (eta*i, eta*i + eps), i over all integers, plus the lens."""

    eta: Fraction
    eps: Fraction
    lens: str = "avg_spd"

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", Fraction(self.eta))
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.eps <= 0 or self.eta <= 0:
            raise DegenerateCover(f"cover needs eta, eps > 0, got ({self.eta}, {self.eps})")
        if self.lens != "avg_spd":
            raise BadParams(f"unknown lens {self.lens!r}")


def triangular_lift(g: SimpleGraph) -> CombinatorialComplex:
    """Add every triangle of the graph as a 2-cell."""
    adj = [set() for _ in range(g.num_nodes)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    cells: list[tuple[Verts, int]] = [(e, 1) for e in g.sorted_edges()]
    for u, v in g.sorted_edges():
        for w in sorted(adj[u] & adj[v]):
            if w > v:
                cells.append(((u, v, w), 2))
    return build_cc(cells, g.num_nodes)


def chordless_cycles(g: SimpleGraph, max_len: int) -> list[Verts]:
    """All induced simple cycles with 3..max_len vertices, as sorted vertex tuples.

    DFS from each minimal vertex; a path is extended only through vertices
    larger than the start and non-adjacent to the path interior, so every
    recorded cycle is chordless.  Direction duplicates are removed by
    requiring the second vertex to be smaller than the last.
    """
    adj = [set() for _ in range(g.num_nodes)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    out: list[Verts] = []

    def extend(path: list[int]) -> None:
        s, last = path[0], path[-1]
        interior = path[1:-1]
        for w in sorted(adj[last]):
            if w <= s or w in path:
                continue
            if any(w in adj[p] for p in interior):
                continue
            closes = w in adj[s]
            if closes:
                if len(path) >= 2 and path[1] < w:
                    out.append(tuple(sorted(path + [w])))
                continue  # extending past w would keep the chord w-s
            if len(path) + 1 < max_len:
                extend(path + [w])

    for s in range(g.num_nodes):
        for v in sorted(adj[s]):
            if v > s:
                extend([s, v])
    return sorted(set(out))


def cyclic_lift(g: SimpleGraph, params: CyclicLiftParams | int = CyclicLiftParams()) -> CombinatorialComplex:
    """Add every chordless cycle of bounded length as a 2-cell."""
    if isinstance(params, int):
        params = CyclicLiftParams(params)
    cells: list[tuple[Verts, int]] = [(e, 1) for e in g.sorted_edges()]
    cells.extend((cyc, 2) for cyc in chordless_cycles(g, params.max_len))
    return build_cc(cells, g.num_nodes)


def avg_spd_lens(g: SimpleGraph) -> list[Fraction]:
    """Average shortest-path distance per node, exact; disconnected graphs
    average over the node's own component."""
    dist = bfs_distances(g.num_nodes, *graph_edges(g))
    totals = np.where(dist < 0, 0, dist).sum(axis=1).tolist()
    sizes = (dist >= 0).sum(axis=1).tolist()  # a node reaches its whole component
    return [Fraction(t, c) for t, c in zip(totals, sizes)]


def fine_cover_params(g: SimpleGraph) -> MogParams:
    """Cover parameters fine enough to separate every distinct lens value.

    Picks eta = gap/2 and eps = 3*gap/4 for the minimal gap between distinct
    lens values: eta < eps guarantees the intervals cover every value, and
    eps < gap keeps distinct values in distinct intervals.
    """
    return _fine_params(avg_spd_lens(g))


def _fine_params(lens: list[Fraction]) -> MogParams:
    values = sorted(set(lens))
    if len(values) >= 2:
        gap = min(b - a for a, b in zip(values, values[1:]))
    else:
        gap = Fraction(1)
    return MogParams(eta=gap / 2, eps=gap * 3 / 4)


def mog_pool(g: SimpleGraph, params: MogParams | None = None) -> CombinatorialComplex:
    """Mapper pooling: one 2-cell per connected component of each lens preimage.

    Preimages are taken over every interval (eta*i, eta*i+eps) with i ranging
    over all integers; duplicate 2-cells from overlapping intervals are
    deduplicated, and single-node components are dropped (a one-vertex rank-2
    cell cannot satisfy rank monotonicity next to the node's edges).
    """
    if g.num_nodes == 0:
        raise BadParams("pooling needs a non-empty graph")
    lens = avg_spd_lens(g)
    if params is None:
        params = _fine_params(lens)
    eta, eps = params.eta, params.eps

    # interval i = (eta*i, eta*i + eps) holds x exactly when (x - eps)/eta < i < x/eta
    intervals: dict[int, list[int]] = {}
    for node, x in enumerate(lens):
        for i in range(floor((x - eps) / eta) + 1, ceil(x / eta)):
            intervals.setdefault(i, []).append(node)

    # the preimages as one disjoint graph: node v of the k-th interval is
    # k * n + v, and an edge stays in every interval holding both its ends
    n = g.num_nodes
    members = np.zeros((len(intervals), n), dtype=bool)
    for row, nodes in zip(members, intervals.values()):
        row[nodes] = True
    u, v = graph_edges(g)
    k, e = np.nonzero(members[:, u] & members[:, v])
    labels = component_labels(members.size, k * n + u[e], k * n + v[e])
    groups: dict[int, list[int]] = {}
    flat = np.flatnonzero(members)  # ascending, so each group lists its nodes in order
    for node, comp in zip(flat.tolist(), labels[flat].tolist()):
        groups.setdefault(comp, []).append(node % n)
    pooled = {tuple(group) for group in groups.values() if len(group) > 1}

    cells: list[tuple[Verts, int]] = [(e, 1) for e in g.sorted_edges()]
    cells.extend((verts, 2) for verts in sorted(pooled))
    return build_cc(cells, g.num_nodes)
