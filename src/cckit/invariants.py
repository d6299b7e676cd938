"""Topological and metric invariants of a complex.

Every distance comes from one bit-parallel BFS kernel (:func:`bfs_distances`,
int64 with -1 for an unreachable node), which all-sources callers run on
blocks of ``BLOCK`` sources (:func:`distance_blocks`), keeping only what they
return; every component split comes from one labeling kernel
(:func:`component_labels`).  At the public boundary distances are plain ints
with ``math.inf`` as the unreachable value, so infinities propagate through
max/min arithmetic.

Homology is computed over GF(2): unsigned boundaries need no orientation
data and the chain condition (boundary of boundary vanishes) stays
checkable.  The boundary d_r is the CSR ``incidence_down(r, r-1)``; the chain
check counts the (r+1)-cell/(r-1)-face pairs it reaches through d_{r+1} and
d_r, and the ranks come from a column reduction with clearing (Chen &
Kerber, "Persistent homology computation with a twist", 2011).
Orientability is the 2-colouring of a double cover of the (face, edge)
incidences, read off :func:`component_labels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count
from typing import Iterator

import numpy as np

from .complex import (
    CombinatorialComplex,
    Csr,
    NeighborhoodSpec,
    SimpleGraph,
    SparseBinaryMatrix,
    _expand,
    _from_keys,
    _runs,
    cell_verts,
    hasse_edges,
    incidence_down,
    incidence_up,
    neighborhood_matrix,
    padded_rows,
    row_ids,
    row_lengths,
)
from .errors import (
    CellWithoutFaces,
    DimensionTooLow,
    EmptySkeleton,
    NotAChainComplex,
    WrongKind,
)

INFINITE = math.inf
Distance = int | float


BLOCK = 64  # sources per kernel call of an all-sources caller


def bfs_distances(arcs: Csr, sources: np.ndarray) -> np.ndarray:
    """Hop distances from each source to every node of the symmetric CSR
    ``arcs``, int64 (len(sources), n), -1 where unreachable.

    Bit-parallel multi-source BFS (Kaufmann et al., "The More the Merrier",
    PVLDB 2014): every node holds one bit per source in uint64 words, and a
    level ORs the frontier words over each neighbor row in one reduceat,
    masked by the bits not yet seen.  A zero sink row ends the gather, so the
    last row's segment is its own; an empty row's segment yields a stray
    element, masked because an isolated node has no unseen bits."""
    indptr, nbrs = arcs
    n, k = len(indptr) - 1, len(sources)
    seed = np.zeros((n + 1, -(-k // 64) * 64), dtype=bool)  # row n: the sink
    seed[sources, np.arange(k)] = True
    frontier = np.packbits(seed, axis=1, bitorder="little").view("<u8")
    level = frontier[:n]  # a view: each level overwrites the frontier
    unseen = ~level
    unseen[row_lengths(indptr) == 0] = 0
    gather, starts = np.append(nbrs, n), indptr[:-1]
    dist = np.full((n, k), -1, dtype=np.int64)
    dist[seed[:n, :k]] = 0
    for d in count(1):
        np.bitwise_and(np.bitwise_or.reduceat(frontier[gather], starts), unseen, out=level)
        if not level.any():
            return dist.T
        unseen ^= level
        bits = np.unpackbits(level.view(np.uint8), axis=1, count=k, bitorder="little")
        dist[bits.view(bool)] = d


def distance_blocks(arcs: Csr) -> Iterator[np.ndarray]:
    """:func:`bfs_distances` from every node of ``arcs``, BLOCK sources a call."""
    n = len(arcs[0]) - 1
    for start in range(0, n, BLOCK):
        yield bfs_distances(arcs, np.arange(start, min(start + BLOCK, n)))


def symmetric_arcs(n: int, u: np.ndarray, v: np.ndarray) -> Csr:
    """CSR over n nodes of both directions of the edges (u[i], v[i])."""
    return _from_keys(np.sort(np.concatenate((u * n + v, v * n + u))), n, n)


def component_labels(num_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component label per node of the graph with edges (u[i], v[i]),
    numbered by first appearance.

    Min-label propagation: every root adopts the smallest root across its
    edges, then pointer jumping flattens the forest.  Pointers only decrease,
    so each component ends with its smallest node as its one root.
    """
    label = np.arange(num_nodes)
    while True:
        while True:  # pointer jumping: every node points at its root
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            break
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
    # roots are the smallest nodes, so ascending roots is first-appearance order
    return (np.cumsum(label == np.arange(num_nodes)) - 1)[label]


def graph_edges(g: SimpleGraph) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints of a graph's edges as two int64 arrays."""
    ends = np.fromiter(chain.from_iterable(g.edges), dtype=np.int64, count=2 * len(g.edges))
    return ends[0::2], ends[1::2]


def connected_components(cc: CombinatorialComplex) -> tuple[int, list[list[int]]]:
    """Component count of the Hasse graph plus a label per cell, per rank."""
    labels = component_labels(cc.num_cells(), *hasse_edges(cc))
    bounds = np.cumsum((0,) + cc.skeleton_sizes()).tolist()
    per_rank = [labels[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
    return int(labels.max()) + 1, per_rank


def shortest_paths(cc: CombinatorialComplex, spec: NeighborhoodSpec) -> list[list[Distance]]:
    """All-pairs BFS metric on the augmented Hasse graph of a (co)adjacency."""
    if not spec.is_adjacency_like:
        raise WrongKind(f"shortest paths need a (co)adjacency spec, got {spec}")
    blocks = distance_blocks(cc.neighbor_csr(spec))
    return [[INFINITE if d < 0 else d for d in row] for dist in blocks for row in dist.tolist()]


def diameter(cc: CombinatorialComplex, spec: NeighborhoodSpec) -> Distance:
    """Largest pairwise distance in skeleton r1; infinite if disconnected."""
    if not spec.is_adjacency_like:
        raise WrongKind(f"diameter needs a (co)adjacency spec, got {spec}")
    if cc.skeleton_size(spec.r1) == 0:
        raise EmptySkeleton(f"skeleton {spec.r1} is empty")
    return _worst(distance_blocks(cc.neighbor_csr(spec)))


def _worst(blocks: Iterator[np.ndarray]) -> Distance:
    """The largest entry over the blocks; infinite if any is -1."""
    return max((INFINITE if (b < 0).any() else int(b.max()) for b in blocks), default=0)


def nearest_face_distances(dist: np.ndarray, faces: Csr) -> np.ndarray:
    """Distance from every source row of ``dist`` to the nearest face of every
    cell, by one gather over the padded face rows; -1 marks an unreachable
    node in ``dist`` and a cell with no reachable face here."""
    k, n = dist.shape
    far = np.where(dist < 0, n, dist)  # the node count exceeds every distance
    far = np.column_stack((far, np.full(k, n)))  # the -1 pads read column n
    nearest = far[:, padded_rows(faces)].min(axis=2)
    nearest[nearest == n] = -1
    return nearest


def cross_diameter(cc: CombinatorialComplex, spec: NeighborhoodSpec, k: int) -> Distance:
    """Worst distance from an r1-cell to the nearest r1-face of a k-cell."""
    if not spec.is_adjacency_like:
        raise WrongKind(f"cross diameter needs a (co)adjacency spec, got {spec}")
    if cc.skeleton_size(spec.r1) == 0:
        raise EmptySkeleton(f"skeleton {spec.r1} is empty")
    if cc.skeleton_size(k) == 0:
        raise EmptySkeleton(f"skeleton {k} is empty")
    faces = cc.neighbor_csr(incidence_down(k, spec.r1))
    bare = np.flatnonzero(row_lengths(faces[0]) == 0)
    if bare.size:
        raise CellWithoutFaces(
            f"rank-{k} cell {cell_verts(cc, k, bare[0])} has no rank-{spec.r1} faces"
        )
    blocks = distance_blocks(cc.neighbor_csr(spec))
    return _worst(nearest_face_distances(dist, faces) for dist in blocks)


def euler_characteristic(cc: CombinatorialComplex) -> int:
    return sum((-1) ** r * n for r, n in enumerate(cc.skeleton_sizes()))


@dataclass(frozen=True)
class BoundaryData:
    """Boundary matrices d_1..d_l (rows = rank r, cols = rank r-1) over GF(2)."""

    matrices: tuple[SparseBinaryMatrix, ...]
    is_chain_complex: bool
    violation: tuple[int, int, int] | None  # (r, row in X_{r+1}, col in X_{r-1})


def _chain_violation(cc: CombinatorialComplex) -> tuple[int, int, int] | None:
    """The first (r, x, z) in row-major order where d_{r+1} d_r is nonzero:
    the r-faces of (r+1)-cell x whose own faces include z number oddly."""
    for r in range(1, cc.dimension):
        indptr, faces = cc.neighbor_csr(incidence_down(r + 1, r))
        pos, z = _expand(cc.neighbor_csr(incidence_down(r, r - 1)), faces)
        n = cc.skeleton_size(r - 1)
        keys, counts = _runs(row_ids(indptr)[pos] * n + z)
        odd = keys[counts % 2 == 1]
        if odd.size:
            return r, int(odd[0] // n), int(odd[0] % n)
    return None


def boundary_matrices(cc: CombinatorialComplex) -> BoundaryData:
    """Unsigned boundary operators; reports whether they compose to zero."""
    mats = tuple(
        neighborhood_matrix(cc, incidence_down(r, r - 1)) for r in range(1, cc.dimension + 1)
    )
    violation = _chain_violation(cc)
    return BoundaryData(mats, violation is None, violation)


@dataclass(frozen=True)
class BettiVector:
    b: tuple[int, ...]

    def __iter__(self):
        return iter(self.b)


def betti_gf2(cc: CombinatorialComplex) -> BettiVector:
    """Mod-2 Betti numbers b_r = dim ker d_r - rank d_{r+1}.

    Each rank of d_r comes from reducing the boundaries of the r-cells in
    index order, every boundary a Python-int bitset over the (r-1)-cells with
    pivots keyed by the highest bit.  Going from the top rank down, an r-cell
    that is the pivot of a reduced boundary of d_{r+1} is skipped (clearing):
    that boundary is a cycle with highest bit r-cell i, so the boundary of i
    is a sum of earlier boundaries and would reduce to zero.
    """
    violation = _chain_violation(cc)
    if violation is not None:
        raise NotAChainComplex(f"boundary composition nonzero at {violation}", violation)
    ranks = [0] * (cc.dimension + 2)  # ranks[r] = rank of d_r; d_0 and d_{l+1} are zero
    cleared: set[int] = set()
    for r in range(cc.dimension, 0, -1):
        indptr, faces = cc.neighbor_csr(incidence_down(r, r - 1))
        flat, bounds = faces.tolist(), indptr.tolist()
        pivots: dict[int, int] = {}
        for i in range(len(bounds) - 1):
            if i in cleared:
                continue
            row = 0
            for j in flat[bounds[i] : bounds[i + 1]]:
                row |= 1 << j
            while row:
                low = row.bit_length() - 1
                if low not in pivots:
                    pivots[low] = row
                    break
                row ^= pivots[low]
        ranks[r] = len(pivots)
        cleared = set(pivots)
    sizes = cc.skeleton_sizes()
    return BettiVector(
        tuple((sizes[r] - ranks[r]) - ranks[r + 1] for r in range(cc.dimension + 1))
    )


class Orientability(Enum):
    ORIENTABLE = "orientable"
    NON_ORIENTABLE = "non-orientable"
    NOT_A_SURFACE = "not-a-surface"


@dataclass(frozen=True)
class OrientabilityVerdict:
    verdict: Orientability
    # NON_ORIENTABLE: 2-cell indices of a closed walk, each sharing an edge with
    # the next and the last with the first, that carries an orientation back
    # reversed; NOT_A_SURFACE: (rank, index) of the offending cell.
    witness: tuple | None = None


def orientability_2d(cc: CombinatorialComplex) -> OrientabilityVerdict:
    """Decide if boundary-cycle directions of 2-cells can be made consistent.

    Requires every 1-cell to lie in at most two 2-cells and every 2-cell's
    1-faces to be vertex pairs forming one cycle through its 0-faces; two
    faces sharing an edge must traverse it in opposite directions.  The
    unknowns are the directions of the (face, edge) incidences, and each
    constraint is a parity between two of them, so the complex is orientable
    exactly when no incidence meets its own reversal in the double cover that
    holds two copies (one per direction) of every incidence.
    """
    if cc.dimension < 2:
        raise DimensionTooLow(f"dimension {cc.dimension} < 2")
    up_ptr, _ = cc.neighbor_csr(incidence_up(1, 2))
    crowded = np.flatnonzero(row_lengths(up_ptr) > 2)
    if crowded.size:
        return OrientabilityVerdict(Orientability.NOT_A_SURFACE, (1, int(crowded[0])))

    # slots are the (face, vertex) entries of the rank-2 skeleton; every pair
    # 1-face hits the slots of its two ends, the smaller end first
    face_ptr, face_verts = cc.skeleton_arrays(2)
    edge_ptr, edge_verts = cc.skeleton_arrays(1)
    down_ptr, down = cc.neighbor_csr(incidence_down(2, 1))
    inc_face, slot_face = row_ids(down_ptr), row_ids(face_ptr)
    is_pair = row_lengths(edge_ptr)[down] == 2
    ends = edge_ptr[down[is_pair], None] + np.arange(2)
    hit_keys = inc_face[is_pair, None] * cc.num_nodes + edge_verts[ends]
    slots = np.searchsorted(slot_face * cc.num_nodes + face_verts, hit_keys)
    hits = np.bincount(slots.ravel(), minlength=len(face_verts))
    loops = component_labels(len(face_verts), slots[:, 0], slots[:, 1])
    # with pair 1-faces only and two hits per slot, the 1-face count equals
    # the vertex count, and one component makes the 1-faces one cycle
    bad = np.zeros(len(face_ptr) - 1, dtype=bool)
    bad[inc_face[~is_pair]] = True
    bad[slot_face[hits != 2]] = True
    bad[slot_face[loops != loops[face_ptr[:-1]][slot_face]]] = True
    if bad.any():
        return OrientabilityVerdict(Orientability.NOT_A_SURFACE, (2, int(bad.argmax())))

    # copy c of incidence k is cover node k + c * m, c the direction in which
    # the face runs along the edge (1 from the smaller end); at a slot the two
    # incidences differ by 1 xor [slot is the smaller end of one] xor
    # [... of the other], and the two incidences of a shared edge differ by 1
    m = len(down)
    at_slot = np.argsort(slots.ravel(), kind="stable").reshape(-1, 2)  # hit 2k + end
    smaller = at_slot % 2 == 0
    by_edge = np.argsort(down, kind="stable")
    shared = by_edge[row_lengths(up_ptr)[down[by_edge]] == 2].reshape(-1, 2)
    a = np.concatenate((at_slot[:, 0] // 2, shared[:, 0]))
    b = np.concatenate((at_slot[:, 1] // 2, shared[:, 1]))
    flip = np.concatenate((1 ^ smaller[:, 0] ^ smaller[:, 1], np.ones(len(shared), dtype=np.int64)))
    u = np.concatenate((a, a + m))
    v = np.concatenate((b + flip * m, b + (1 - flip) * m))
    labels = component_labels(2 * m, u, v)
    twisted = np.flatnonzero(labels[:m] == labels[m:])
    if not twisted.size:
        return OrientabilityVerdict(Orientability.ORIENTABLE)
    # walk back from the reversed copy to the start, to the largest neighbor a level closer
    start = int(twisted[0])
    indptr, nbrs = arcs = symmetric_arcs(2 * m, u, v)
    dist = bfs_distances(arcs, np.array([start]))[0]
    path = [start + m]
    for d in range(dist[start + m] - 1, -1, -1):
        near = nbrs[indptr[path[-1]] : indptr[path[-1] + 1]]
        path.append(int(near[dist[near] == d].max()))
    faces = inc_face[np.array(path[::-1]) % m]
    walk = faces[np.append(True, faces[1:] != faces[:-1])][:-1]  # ends where it began
    return OrientabilityVerdict(Orientability.NON_ORIENTABLE, tuple(walk.tolist()))


def boundary_edge_graph(cc: CombinatorialComplex) -> SimpleGraph:
    """Graph of the 1-cells lying in exactly one 2-cell, on the original nodes."""
    if cc.dimension < 2:
        raise DimensionTooLow(f"dimension {cc.dimension} < 2")
    indptr, verts = cc.skeleton_arrays(1)
    boundary = row_lengths(cc.neighbor_csr(incidence_up(1, 2))[0]) == 1
    not_pair = np.flatnonzero(boundary & (row_lengths(indptr) != 2))
    if not_pair.size:
        raise WrongKind(
            f"boundary rank-1 cell {cell_verts(cc, 1, not_pair[0])} is not a vertex pair"
        )
    starts = indptr[:-1][boundary]
    return SimpleGraph(cc.num_nodes, frozenset(zip(verts[starts].tolist(), verts[starts + 1].tolist())))


def cycle_lengths(g: SimpleGraph) -> list[int] | None:
    """Component sizes when the graph is a disjoint union of cycles, else None."""
    u, v = graph_edges(g)
    degree = np.bincount(np.concatenate((u, v)), minlength=g.num_nodes)
    if ((degree != 0) & (degree != 2)).any():
        return None
    sizes = np.bincount(component_labels(g.num_nodes, u, v)[degree == 2])
    return sorted(sizes[sizes > 0].tolist())
