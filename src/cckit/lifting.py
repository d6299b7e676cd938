"""Graph-to-complex constructions: triangle lift, chordless-cycle lift, Mapper pooling.

All three keep the graph itself as ranks 0-1 and add rank-2 cells on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

import numpy as np

# build_cc stays reachable as lifting.build_cc: perfbench/tracing.py wraps that name
from .complex import CombinatorialComplex, SimpleGraph, Verts, build_cc  # noqa: F401
from .complex import _edge_skeleton, _from_skeletons, _singletons
from .errors import BadParams, DegenerateCover, integer
from .invariants import component_labels, distance_blocks, symmetric_arcs

Rational = Fraction | int


@dataclass(frozen=True)
class CyclicLiftParams:
    """Upper bound on the length of cycles added as 2-cells; at least 3."""

    max_len: int = 18

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_len", integer(self.max_len, "max cycle length"))
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

    A vertex of degree <= 1 lies on no cycle and ends no chord of one (a
    chord joins two cycle vertices), and removing it keeps every cycle of the
    rest, so the graph is first peeled to its 2-core (the k = 2
    case of Batagelj & Zaversnik's core decomposition, arXiv:cs/0310049).
    The survivors are renumbered monotonically to local ids 0..k-1, so masks
    and lists are sized by the core, never by isolated or pendant nodes, and
    every order below is the order of the original ids.

    From each minimal vertex s, a DFS extends paths held as int bitmasks
    through vertices larger than s, off the path and non-adjacent to its
    interior: ``allowed = adj[last] & ~excluded``, where `excluded` holds
    every vertex up to s, the path, and the neighbors of each vertex that
    became interior.  Walking `last`'s neighbor list and testing one bit of
    `allowed` per neighbor visits exactly those vertices, and no mask is
    decoded per path.  A neighbor of s closes a cycle, which is chordless by
    construction; requiring it to exceed the second vertex removes the
    reverse direction.  This is the path extension of Dias, Castonguay,
    Longo & Jradi, "Efficient enumeration of chordless cycles in graphs"
    (arXiv:1309.1051).
    """
    nbrs: dict[int, list[int]] = {}
    for u, v in g.edge_array.tolist():
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    degree = {v: len(ns) for v, ns in nbrs.items()}
    peel = [v for v, d in degree.items() if d < 2]
    peeled = set(peel)
    while peel:
        for u in nbrs[peel.pop()]:
            if u not in peeled:
                degree[u] -= 1
                if degree[u] < 2:
                    peeled.add(u)
                    peel.append(u)
    core = sorted(v for v in nbrs if v not in peeled)
    local = {v: i for i, v in enumerate(core)}
    nbr = [sorted(local[u] for u in nbrs[v] if u in local) for v in core]
    adj = [sum(1 << u for u in ns) for ns in nbr]

    found: set[int] = set()
    for s, ns in enumerate(nbr):
        below, closing = (1 << (s + 1)) - 1, adj[s]
        for v in ns:
            if v < s:
                continue
            # (last vertex, path mask, excluded = path | blocked | below, path length)
            stack = [(v, 1 << s | 1 << v, below | 1 << v, 2)]
            while stack:
                last, path, excluded, length = stack.pop()
                allowed = adj[last] & ~excluded
                if not allowed:
                    continue
                # a closing w is never passed on: w-s would be a chord
                deeper = length + 1 < max_len
                excluded |= adj[last]
                for w in nbr[last]:
                    if allowed >> w & 1:
                        if closing >> w & 1:
                            if w > v:
                                found.add(path | 1 << w)
                        elif deeper:
                            stack.append((w, path | 1 << w, excluded, length + 1))
    # tuples from lists, at their final size: tuples that CPython resizes while
    # a generator fills them pile up in its tuple free lists (about 1 MiB here
    # over the 600 lifts of one perfbench lifted_iso set-up)
    return sorted(tuple([core[i] for i in _bits(mask)]) for mask in found)


def _bits(mask: int) -> list[int]:
    """The set bits of a non-negative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cyclic_lift(g: SimpleGraph, params: CyclicLiftParams | int = CyclicLiftParams()) -> CombinatorialComplex:
    """Add every chordless cycle of bounded length as a 2-cell.

    The cells go straight to `complex._from_skeletons`, not through
    `build_cc`: the edges of a `SimpleGraph` and the sorted output of
    :func:`chordless_cycles` are already canonical.
    """
    if not isinstance(params, CyclicLiftParams):
        params = CyclicLiftParams(params)
    return _from_skeletons(g.num_nodes, [_edge_skeleton(g), chordless_cycles(g, params.max_len)])


def avg_spd_lens(g: SimpleGraph) -> list[Fraction]:
    """Average shortest-path distance per node, exact; disconnected graphs
    average over the node's own component."""
    arcs = symmetric_arcs(g.num_nodes, *g.edge_array.T)
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
    cell cannot satisfy rank monotonicity next to the node's edges).  Each
    component lists its nodes in ascending order, so the sorted, distinct
    cells go straight to `complex._from_skeletons`, not through `build_cc`.
    """
    if g.num_nodes == 0:
        raise BadParams("pooling needs a non-empty graph")
    _singletons(g.num_nodes)  # the node-count checks, before the lens allocates per node
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
    u, v = g.edge_array.T
    k, e = np.nonzero(members[:, u] & members[:, v])
    labels = component_labels(members.size, k * n + u[e], k * n + v[e])
    groups: dict[int, list[int]] = {}
    flat = np.flatnonzero(members)  # ascending, so each group lists its nodes in order
    for node, comp in zip(flat.tolist(), labels[flat].tolist()):
        groups.setdefault(comp, []).append(node % n)
    pooled = {tuple(group) for group in groups.values() if len(group) > 1}
    return _from_skeletons(g.num_nodes, [_edge_skeleton(g), sorted(pooled)])
