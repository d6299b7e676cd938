"""Topological and metric invariants of a complex.

Every distance comes from one all-sources BFS kernel (:func:`bfs_distances`,
int64 with -1 for an unreachable node) and every component split from one
labeling kernel (:func:`component_labels`).  At the public boundary distances
are plain ints with ``math.inf`` as the distinguished unreachable value, so
infinities propagate through max/min arithmetic.  Homology is computed over
GF(2): unsigned boundary matrices need no orientation data and the chain
condition (boundary of boundary vanishes) stays checkable.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .complex import (
    CombinatorialComplex,
    Csr,
    NeighborhoodSpec,
    SimpleGraph,
    SparseBinaryMatrix,
    hasse_edges,
    incidence_down,
    incidence_up,
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


def bfs_distances(num_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hop distances between all nodes of the graph with edges (u[i], v[i]),
    -1 where unreachable.  One frontier row per source advances at once, so
    every temporary is n x n."""
    adj = np.zeros((num_nodes, num_nodes), dtype=np.float32)
    adj[u, v] = adj[v, u] = 1
    dist = np.full((num_nodes, num_nodes), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(num_nodes, dtype=np.float32)
    d = 0
    while True:
        reached = (frontier @ adj > 0) & (dist < 0)
        if not reached.any():
            return dist
        d += 1
        dist[reached] = d
        frontier = reached.astype(np.float32)


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


def _metric(cc: CombinatorialComplex, spec: NeighborhoodSpec) -> np.ndarray:
    """Distances on skeleton r1 under a (co)adjacency, -1 where unreachable."""
    indptr, nbrs = cc.neighbor_csr(spec)
    return bfs_distances(len(indptr) - 1, row_ids(indptr), nbrs)


def shortest_paths(cc: CombinatorialComplex, spec: NeighborhoodSpec) -> list[list[Distance]]:
    """All-pairs BFS metric on the augmented Hasse graph of a (co)adjacency."""
    if not spec.is_adjacency_like:
        raise WrongKind(f"shortest paths need a (co)adjacency spec, got {spec}")
    dist = _metric(cc, spec)
    out = dist.astype(object)
    out[dist < 0] = INFINITE
    return out.tolist()


def diameter(cc: CombinatorialComplex, spec: NeighborhoodSpec) -> Distance:
    """Largest pairwise distance in skeleton r1; infinite if disconnected."""
    if not spec.is_adjacency_like:
        raise WrongKind(f"diameter needs a (co)adjacency spec, got {spec}")
    if not cc.cells(spec.r1):
        raise EmptySkeleton(f"skeleton {spec.r1} is empty")
    dist = _metric(cc, spec)
    return INFINITE if (dist < 0).any() else int(dist.max())


def nearest_face_distances(dist: np.ndarray, faces: Csr) -> np.ndarray:
    """Distance from every source to the nearest face of every cell, by one
    gather of the metric ``dist`` over the padded face rows; -1 marks an
    unreachable node in ``dist`` and a cell with no reachable face here."""
    n = len(dist)
    far = np.where(dist < 0, n, dist)  # n exceeds every finite distance
    far = np.column_stack((far, np.full(n, n)))  # the -1 pads read column n
    nearest = far[:, padded_rows(faces)].min(axis=2)
    nearest[nearest == n] = -1
    return nearest


def cross_diameter(cc: CombinatorialComplex, spec: NeighborhoodSpec, k: int) -> Distance:
    """Worst distance from an r1-cell to the nearest r1-face of a k-cell."""
    if not spec.is_adjacency_like:
        raise WrongKind(f"cross diameter needs a (co)adjacency spec, got {spec}")
    if not cc.cells(spec.r1):
        raise EmptySkeleton(f"skeleton {spec.r1} is empty")
    if not cc.cells(k):
        raise EmptySkeleton(f"skeleton {k} is empty")
    faces = cc.neighbor_csr(incidence_down(k, spec.r1))
    bare = np.flatnonzero(row_lengths(faces[0]) == 0)
    if bare.size:
        raise CellWithoutFaces(
            f"rank-{k} cell {cc.skeletons[k][bare[0]]} has no rank-{spec.r1} faces"
        )
    nearest = nearest_face_distances(_metric(cc, spec), faces)
    return INFINITE if (nearest < 0).any() else int(nearest.max())


def euler_characteristic(cc: CombinatorialComplex) -> int:
    return sum((-1) ** r * n for r, n in enumerate(cc.skeleton_sizes()))


@dataclass(frozen=True)
class BoundaryData:
    """Boundary matrices d_1..d_l (rows = rank r, cols = rank r-1) over GF(2)."""

    matrices: tuple[SparseBinaryMatrix, ...]
    is_chain_complex: bool
    violation: tuple[int, int, int] | None  # (r, row in X_{r+1}, col in X_{r-1})


def boundary_matrices(cc: CombinatorialComplex) -> BoundaryData:
    """Unsigned boundary operators; reports whether they compose to zero."""
    mats = []
    for r in range(1, cc.dimension + 1):
        down = cc.neighbor_lists(incidence_down(r, r - 1))
        entries = frozenset((i, j) for i, subs in enumerate(down) for j in subs)
        mats.append(SparseBinaryMatrix(len(cc.cells(r)), len(cc.cells(r - 1)), entries))
    violation = None
    for r in range(1, cc.dimension):
        hi, lo = mats[r].to_dense(), mats[r - 1].to_dense()
        comp = (hi.astype(np.int64) @ lo.astype(np.int64)) % 2
        nz = np.argwhere(comp)
        if len(nz):
            violation = (r, int(nz[0][0]), int(nz[0][1]))
            break
    return BoundaryData(tuple(mats), violation is None, violation)


def gf2_rank(m: np.ndarray) -> int:
    """Gaussian elimination over GF(2) on a uint8 copy."""
    a = (m % 2).astype(np.uint8).copy()
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = -1
        for row in range(rank, rows):
            if a[row, col]:
                pivot = row
                break
        if pivot == -1:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        mask = a[:, col].copy()
        mask[rank] = 0
        a[mask == 1] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return rank


@dataclass(frozen=True)
class BettiVector:
    b: tuple[int, ...]

    def __iter__(self):
        return iter(self.b)


def betti_gf2(cc: CombinatorialComplex) -> BettiVector:
    """Mod-2 Betti numbers b_r = dim ker d_r - rank d_{r+1}."""
    data = boundary_matrices(cc)
    if not data.is_chain_complex:
        raise NotAChainComplex(
            f"boundary composition nonzero at {data.violation}"
        )
    sizes = cc.skeleton_sizes()
    ranks = [0] * (cc.dimension + 2)  # ranks[r] = rank of d_r; d_0 and d_{l+1} are zero
    for r in range(1, cc.dimension + 1):
        ranks[r] = gf2_rank(data.matrices[r - 1].to_dense())
    b = tuple(
        (sizes[r] - ranks[r]) - ranks[r + 1] for r in range(cc.dimension + 1)
    )
    return BettiVector(b)


class Orientability(Enum):
    ORIENTABLE = "orientable"
    NON_ORIENTABLE = "non-orientable"
    NOT_A_SURFACE = "not-a-surface"


@dataclass(frozen=True)
class OrientabilityVerdict:
    verdict: Orientability
    # NON_ORIENTABLE: sequence of 2-cell indices forming the odd flip cycle;
    # NOT_A_SURFACE: (rank, index) of the offending cell.
    witness: tuple | None = None


def _face_boundary_cycle(cc: CombinatorialComplex, face: int) -> list[int] | None:
    """Vertices of a 2-cell's boundary in cyclic order, or None if not a polygon."""
    verts = cc.skeletons[2][face]
    edge_idx = cc.neighbor_lists(incidence_down(2, 1))[face]
    edges = [cc.skeletons[1][e] for e in edge_idx]
    if len(edges) != len(verts):
        return None
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in edges:
        if u not in adj or v not in adj:
            return None
        adj[u].append(v)
        adj[v].append(u)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        return None
    start = verts[0]
    cycle = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
        if len(cycle) > len(verts):
            return None
    if len(cycle) != len(verts):
        return None
    return cycle


def orientability_2d(cc: CombinatorialComplex) -> OrientabilityVerdict:
    """Decide if boundary-cycle directions of 2-cells can be made consistent.

    Requires every 1-cell to lie in at most two 2-cells and every 2-cell's
    1-faces to form one cycle through its 0-faces; two faces sharing an edge
    must traverse it in opposite directions.  Propagates orientations across
    face adjacency and reports the first contradiction cycle.
    """
    if cc.dimension < 2:
        raise DimensionTooLow(f"dimension {cc.dimension} < 2")
    up = cc.neighbor_lists(incidence_up(1, 2))
    for e, faces in enumerate(up):
        if len(faces) > 2:
            return OrientabilityVerdict(Orientability.NOT_A_SURFACE, (1, e))
    n_faces = len(cc.cells(2))
    cycles: list[list[int]] = []
    for f in range(n_faces):
        cyc = _face_boundary_cycle(cc, f)
        if cyc is None:
            return OrientabilityVerdict(Orientability.NOT_A_SURFACE, (2, f))
        cycles.append(cyc)

    # direction of each boundary edge under the face's reference cycle
    def edge_dir(f: int, u: int, v: int) -> bool:
        """True when the reference cycle of f traverses u -> v."""
        cyc = cycles[f]
        i = cyc.index(u)
        return cyc[(i + 1) % len(cyc)] == v

    # flip[f] in {0,1}; constraint per shared edge: faces must disagree in direction
    flip = [-1] * n_faces
    parent: list[tuple[int, int] | None] = [None] * n_faces
    for root in range(n_faces):
        if flip[root] != -1:
            continue
        flip[root] = 0
        queue = deque([root])
        while queue:
            f = queue.popleft()
            for e in cc.neighbor_lists(incidence_down(2, 1))[f]:
                faces = up[e]
                if len(faces) != 2:
                    continue
                g = faces[0] if faces[1] == f else faces[1]
                if g == f:
                    continue
                u, v = cc.skeletons[1][e]
                same_dir = edge_dir(f, u, v) == edge_dir(g, u, v)
                needed = flip[f] ^ (1 if same_dir else 0)
                if flip[g] == -1:
                    flip[g] = needed
                    parent[g] = (f, e)
                    queue.append(g)
                elif flip[g] != needed:
                    witness = _flip_cycle(parent, f, g)
                    return OrientabilityVerdict(
                        Orientability.NON_ORIENTABLE, tuple(witness)
                    )
    return OrientabilityVerdict(Orientability.ORIENTABLE)


def _flip_cycle(parent: list, f: int, g: int) -> list[int]:
    """Face path from f and g back to their common ancestor, as one cycle."""
    anc_f = [f]
    while parent[anc_f[-1]] is not None:
        anc_f.append(parent[anc_f[-1]][0])
    anc_g = [g]
    seen = set(anc_f)
    while anc_g[-1] not in seen and parent[anc_g[-1]] is not None:
        anc_g.append(parent[anc_g[-1]][0])
    join = anc_g[-1]
    path_f = anc_f[: anc_f.index(join) + 1]
    return path_f + anc_g[-2::-1]


def boundary_edge_graph(cc: CombinatorialComplex) -> SimpleGraph:
    """Graph of the 1-cells lying in exactly one 2-cell, on the original nodes."""
    if cc.dimension < 2:
        raise DimensionTooLow(f"dimension {cc.dimension} < 2")
    up = cc.neighbor_lists(incidence_up(1, 2))
    edges = [
        cc.skeletons[1][e] for e, faces in enumerate(up) if len(faces) == 1
    ]
    return SimpleGraph.from_edges(cc.num_nodes, edges)


def cycle_lengths(g: SimpleGraph) -> list[int] | None:
    """Component sizes when the graph is a disjoint union of cycles, else None."""
    u, v = graph_edges(g)
    degree = np.bincount(np.concatenate((u, v)), minlength=g.num_nodes)
    if ((degree != 0) & (degree != 2)).any():
        return None
    sizes = np.bincount(component_labels(g.num_nodes, u, v)[degree == 2])
    return sorted(sizes[sizes > 0].tolist())
