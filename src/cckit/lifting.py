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
from .invariants import component_labels, distance_blocks, graph_edges, symmetric_arcs

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
    """Interval cover (eta*i, eta*i + eps), i over all integers, of the lens:
    each node's average shortest-path distance (:func:`avg_spd_lens`)."""

    eta: Fraction
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", Fraction(self.eta))
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.eps <= 0 or self.eta <= 0:
            raise DegenerateCover(f"cover needs eta, eps > 0, got ({self.eta}, {self.eps})")


def triangular_lift(g: SimpleGraph) -> CombinatorialComplex:
    """Add every triangle of the graph as a 2-cell (a chordless 3-cycle)."""
    return cyclic_lift(g, 3)


def chordless_cycles(g: SimpleGraph, max_len: int) -> list[Verts]:
    """All induced simple cycles with 3..max_len vertices, as sorted vertex tuples.

    DFS from each minimal vertex s over paths held as int bitmasks; a path is
    extended only through vertices larger than s and non-adjacent to the path
    interior (the blocked mask ORs in each vertex that becomes interior), so
    every recorded cycle is chordless.  Direction duplicates are removed by
    requiring the second vertex to be smaller than the last.  This is the
    bitmask path extension of Dias, Castonguay, Longo & Jradi, "Efficient
    enumeration of chordless cycles in graphs" (arXiv:1309.1051).
    """
    adj = [0] * g.num_nodes
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    found: set[int] = set()
    for s in range(g.num_nodes):
        above, closing = -1 << (s + 1), adj[s]
        for v in _bits(adj[s] & above):
            after_v = -1 << (v + 1)
            # (last vertex, path mask, blocked mask, path length)
            stack = [(v, 1 << s | 1 << v, 0, 2)]
            while stack:
                last, path, blocked, length = stack.pop()
                nxt = adj[last] & above & ~path & ~blocked
                for w in _bits(nxt & closing & after_v):
                    found.add(path | 1 << w)
                if length + 1 < max_len:  # a closing w is never passed: w-s would be a chord
                    blocked |= adj[last]
                    for w in _bits(nxt & ~closing):
                        stack.append((w, path | 1 << w, blocked, length + 1))
    return sorted(tuple(_bits(mask)) for mask in found)


def _bits(mask: int) -> list[int]:
    """The set bits of a non-negative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    arcs = symmetric_arcs(g.num_nodes, *graph_edges(g))
    # per block, distance sums and reached counts; a node reaches its whole component
    sums = [(np.maximum(d, 0).sum(axis=1), (d >= 0).sum(axis=1)) for d in distance_blocks(arcs)]
    return [Fraction(t, c) for tot, cnt in sums for t, c in zip(tot.tolist(), cnt.tolist())]


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
