"""Independent oracles for expected-value computation.

Everything here recomputes quantities straight from definitions (exhaustive
set arithmetic, list-based row reduction) without touching the library's own
neighborhood / rank / cycle machinery, so tests cross two separate routes.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import combinations, permutations, product
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from cckit.complex import (
    CombinatorialComplex,
    NeighborhoodKind,
    NeighborhoodSpec,
    SimpleGraph,
    adjacency,
    build_cc,
    co_adjacency,
    incidence_down,
    incidence_up,
    natural_specs,
)
from cckit.errors import RankViolation
from cckit.invariants import INFINITE, Orientability, OrientabilityVerdict
from cckit import iso
from cckit.iso import _assemble_witness, _component_witness, _Counter, split_components
from cckit.refinement import CellColors, HompBlock, SclBlock, _updates


def brute_neighborhood(
    cc: CombinatorialComplex, spec: NeighborhoodSpec, verts: tuple[int, ...], rank: int
) -> set[tuple[tuple[int, ...], int]]:
    """Neighborhood computed directly from the set-comprehension definitions."""
    x = frozenset(verts)
    if rank != spec.r1:
        return set()
    cells = [
        (frozenset(v), v, r)
        for r in range(cc.dimension + 1)
        for v in cc.skeletons[r]
    ]
    r1_cells = [(s, v) for s, v, r in cells if r == spec.r1]
    r2_cells = [(s, v) for s, v, r in cells if r == spec.r2]
    out = set()
    if spec.kind is NeighborhoodKind.ADJACENCY:
        for s, v in r1_cells:
            if v == verts:
                continue
            if any(x <= z and s <= z for z, _ in r2_cells):
                out.add((v, spec.r1))
    elif spec.kind is NeighborhoodKind.CO_ADJACENCY:
        for s, v in r1_cells:
            if v == verts:
                continue
            if any(z <= x and z <= s for z, _ in r2_cells):
                out.add((v, spec.r1))
    elif spec.kind is NeighborhoodKind.INCIDENCE_UP:
        for s, v in r2_cells:
            if x <= s:
                out.add((v, spec.r2))
    else:
        for s, v in r2_cells:
            if s <= x:
                out.add((v, spec.r2))
    return out


def brute_induced_cycles(g: SimpleGraph, max_len: int) -> set[tuple[int, ...]]:
    """All chordless cycle vertex sets by checking every subset up to max_len
    of the nodes that have an edge (ids may be scattered over a large range)."""
    adj: dict[int, set[int]] = {}
    for u, v in g.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = set()
    for size in range(3, min(max_len, len(adj)) + 1):
        for subset in combinations(sorted(adj), size):
            inside = [
                (u, v) for u, v in combinations(subset, 2) if v in adj[u]
            ]
            # induced cycle: every vertex sees exactly 2 others, connected
            if len(inside) != size:
                continue
            deg = {v: 0 for v in subset}
            for u, v in inside:
                deg[u] += 1
                deg[v] += 1
            if any(d != 2 for d in deg.values()):
                continue
            # connectivity of the induced 2-regular graph
            start = subset[0]
            seen = {start}
            stack = [start]
            nbr = {v: [] for v in subset}
            for u, v in inside:
                nbr[u].append(v)
                nbr[v].append(u)
            while stack:
                u = stack.pop()
                for w in nbr[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                out.add(subset)
    return out


def reference_chordless_cycles(g: SimpleGraph, max_len: int) -> list[tuple[int, ...]]:
    """Chordless cycles by recursive DFS over Python sets: from each minimal
    vertex, extend through larger vertices non-adjacent to the path interior,
    record a cycle when the next vertex closes it with the second vertex
    smaller than the last.  Only nodes with an edge are visited, so ids may
    be scattered over a large range."""
    adj: dict[int, set[int]] = {}
    for u, v in g.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        s, last = path[0], path[-1]
        interior = path[1:-1]
        for w in sorted(adj[last]):
            if w <= s or w in path:
                continue
            if any(w in adj[p] for p in interior):
                continue
            if w in adj[s]:
                if path[1] < w:
                    out.append(tuple(sorted(path + [w])))
                continue
            if len(path) + 1 < max_len:
                extend(path + [w])

    for s in sorted(adj):
        for v in sorted(adj[s]):
            if v > s:
                extend([s, v])
    return sorted(set(out))


def reference_triangular_lift(g: SimpleGraph) -> CombinatorialComplex:
    """Every triangle as a 2-cell, from adjacency-set intersections per edge."""
    adj = [set() for _ in range(g.num_nodes)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    cells = [(e, 1) for e in g.sorted_edges()]
    for u, v in g.sorted_edges():
        for w in sorted(adj[u] & adj[v]):
            if w > v:
                cells.append(((u, v, w), 2))
    return build_cc(cells, g.num_nodes)


def lifted_iso_graphs(count: int = 100, seed: int = 0) -> list[SimpleGraph]:
    """The sparse molecule-like graphs of the benchmark's lifted_iso workload:
    20-30 nodes, edge probability 2.6/(n-1), drawn from one seeded stream."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(20, 30)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 2.6 / (n - 1)]
        out.append(SimpleGraph.from_edges(n, edges))
    return out


def reference_intern(blocks, tabulate: bool = False):
    """Joint row numbering by lexsort over int64 rows padded with -1: ids per
    block, the class count, and with tabulate the distinct rows in id order
    and their counts as int64 bytes."""
    sizes = [len(b) for b in blocks]
    rows = np.full((sum(sizes), max(b.shape[1] for b in blocks)), -1, dtype=np.int64)
    pos = 0
    for b in blocks:
        rows[pos : pos + len(b), : b.shape[1]] = b
        pos += len(b)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    leader = np.ones(len(rows), dtype=bool)
    leader[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(leader) - 1
    starts = np.flatnonzero(leader)
    table = None
    if tabulate:
        counts = np.diff(np.append(starts, len(rows)))
        table = (ordered[starts].tobytes(), counts.tobytes())
    return np.split(ids, np.cumsum(sizes)[:-1]), len(starts), table


def reference_cell_images(source, target, node_image):
    """The cell map a node map induces, as cell_map_from_node_map matched it by
    interning the target's padded rows jointly with the image rows: the
    assignment, or the message of the first image that is no target cell."""
    from cckit.complex import padded_rows

    node_image = np.asarray(node_image, dtype=np.int64)
    pad = target.num_nodes
    assignment = []
    for r in range(source.dimension + 1):
        rows = padded_rows(source.skeleton_arrays(r))
        if len(rows) == 0:
            assignment.append(())
            continue
        img = np.sort(np.where(rows >= 0, node_image[rows], pad), axis=1)
        img[:, 1:][img[:, 1:] == img[:, :-1]] = pad
        img = np.sort(img, axis=1)
        img[img == pad] = -1
        targets = padded_rows(target.skeleton_arrays(r))
        (target_ids, ids), k, _ = reference_intern([targets, img])
        cell_of = np.full(k, -1, dtype=np.int64)
        cell_of[target_ids] = np.arange(len(targets))
        images = cell_of[ids]
        unmatched = np.flatnonzero(images < 0)
        if unmatched.size:
            i = unmatched[0]
            return (
                f"image {tuple(int(v) for v in img[i] if v >= 0)} of rank-{r} cell "
                f"{tuple(int(v) for v in rows[i] if v >= 0)} is not a target cell"
            )
        assignment.append(tuple(images.tolist()))
    return tuple(assignment)


def gf2_rank_lists(rows: list[list[int]]) -> int:
    """Row reduction over GF(2) on plain python lists."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a ^ b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def brute_boundary_rows(cc: CombinatorialComplex, r: int) -> list[list[int]]:
    """d_r as dense 0/1 rows: entry (i, j) is 1 when rank-r cell i contains
    rank-(r-1) cell j."""
    lower = [set(sub) for sub in cc.skeletons[r - 1]]
    return [[int(sub <= set(verts)) for sub in lower] for verts in cc.skeletons[r]]


def brute_betti(cc: CombinatorialComplex) -> tuple[int, ...]:
    """Betti numbers from independently built boundary matrices."""
    sizes = cc.skeleton_sizes()
    ranks = [0] * (cc.dimension + 2)
    for r in range(1, cc.dimension + 1):
        rows = brute_boundary_rows(cc, r)
        ranks[r] = gf2_rank_lists(rows) if rows else 0
    return tuple((sizes[r] - ranks[r]) - ranks[r + 1] for r in range(cc.dimension + 1))


def brute_chain_violation(cc: CombinatorialComplex) -> tuple[int, int, int] | None:
    """The first (r, row, col) in row-major order where the dense product
    d_{r+1} d_r is odd, or None for a chain complex."""
    for r in range(1, cc.dimension):
        hi, lo = brute_boundary_rows(cc, r + 1), brute_boundary_rows(cc, r)
        for x, row in enumerate(hi):
            for z in range(len(cc.skeletons[r - 1])):
                if sum(row[y] * lo[y][z] for y in range(len(lo))) % 2:
                    return r, x, z
    return None


def reference_face_cycles(cc: CombinatorialComplex) -> list[list[int] | None]:
    """Vertices of every 2-cell in boundary-cycle order, walked face by face;
    None where the 1-faces are not vertex pairs forming one cycle through
    the face's vertices."""
    cycles = []
    for verts in cc.skeletons[2]:
        edges = [e for e in cc.skeletons[1] if set(e) <= set(verts)]
        if len(edges) != len(verts) or any(len(e) != 2 for e in edges):
            cycles.append(None)
            continue
        adj: dict[int, list[int]] = {v: [] for v in verts}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        if any(len(nbrs) != 2 for nbrs in adj.values()):
            cycles.append(None)
            continue
        cycle, prev = [verts[0]], None
        while True:
            a, b = adj[cycle[-1]]
            nxt = b if a == prev else a
            if nxt == verts[0]:
                break
            prev = cycle[-1]
            cycle.append(nxt)
        cycles.append(cycle if len(cycle) == len(verts) else None)
    return cycles


def _traverses(cycle: list[int], u: int, v: int) -> bool:
    """True when the cyclic vertex order steps from u to v."""
    return cycle[(cycle.index(u) + 1) % len(cycle)] == v


def reference_orientability(cc: CombinatorialComplex) -> OrientabilityVerdict:
    """Orientability by propagating flips face by face across shared edges.

    NOT_A_SURFACE witnesses are the library's: the first 1-cell in more than
    two faces, else the first face without a boundary cycle.  A
    NON_ORIENTABLE verdict carries no witness here.
    """
    faces = [set(verts) for verts in cc.skeletons[2]]
    faces_of = [[f for f, verts in enumerate(faces) if set(e) <= verts] for e in cc.skeletons[1]]
    for e, around in enumerate(faces_of):
        if len(around) > 2:
            return OrientabilityVerdict(Orientability.NOT_A_SURFACE, (1, e))
    cycles = reference_face_cycles(cc)
    for f, cycle in enumerate(cycles):
        if cycle is None:
            return OrientabilityVerdict(Orientability.NOT_A_SURFACE, (2, f))
    flip: list[int | None] = [None] * len(faces)
    for root in range(len(faces)):
        if flip[root] is not None:
            continue
        flip[root] = 0
        stack = [root]
        while stack:
            f = stack.pop()
            for e, around in enumerate(faces_of):
                if len(around) != 2 or f not in around:
                    continue
                g = around[0] if around[1] == f else around[1]
                u, v = cc.skeletons[1][e]
                needed = flip[f] ^ (_traverses(cycles[f], u, v) == _traverses(cycles[g], u, v))
                if flip[g] is None:
                    flip[g] = needed
                    stack.append(g)
                elif flip[g] != needed:
                    return OrientabilityVerdict(Orientability.NON_ORIENTABLE)
    return OrientabilityVerdict(Orientability.ORIENTABLE)


def reverses_orientation(cc: CombinatorialComplex, cycles, walk: tuple[int, ...]) -> bool:
    """Whether a closed face walk, each face sharing an edge with the next and
    the last with the first, carries an orientation back reversed.

    Crossing edge (u, v) from face f to face g keeps the reference cycles'
    orientations compatible exactly when the two cycles traverse (u, v) in
    opposite directions; where consecutive faces share several edges, any of
    them may be the one crossed.
    """
    parities = {0}
    for f, g in zip(walk, walk[1:] + walk[:1]):
        both = set(cc.skeletons[2][f]) & set(cc.skeletons[2][g])
        shared = [e for e in cc.skeletons[1] if set(e) <= both]
        if f == g or not shared:
            return False
        steps = {int(_traverses(cycles[f], u, v) == _traverses(cycles[g], u, v)) for u, v in shared}
        parities = {p ^ q for p in parities for q in steps}
    return 1 in parities


def brute_boundary_edges(cc: CombinatorialComplex) -> set[tuple[int, ...]]:
    """The 1-cells lying in exactly one 2-cell."""
    return {
        e
        for e in cc.skeletons[1]
        if sum(set(e) <= set(verts) for verts in cc.skeletons[2]) == 1
    }


def brute_graph_distances(g: SimpleGraph, source: int) -> list[float]:
    """Plain BFS used as the metric oracle."""
    adj = {v: [] for v in range(g.num_nodes)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [float("inf")] * g.num_nodes
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] == float("inf"):
                    dist[w] = d + 1
                    nxt.append(w)
        frontier = nxt
        d += 1
    return dist


def brute_component_labels(g: SimpleGraph) -> list[int]:
    """Component label per node, numbered by first appearance: the smallest
    node each node reaches, per the BFS oracle."""
    smallest = [
        next(w for w, d in enumerate(brute_graph_distances(g, v)) if d != float("inf"))
        for v in range(g.num_nodes)
    ]
    numbering: dict[int, int] = {}
    return [numbering.setdefault(s, len(numbering)) for s in smallest]


def graph_automorphisms(g: SimpleGraph) -> list[tuple[int, ...]]:
    """All node permutations preserving the edge set (tiny graphs only)."""
    edges = g.edges
    out = []
    for perm in permutations(range(g.num_nodes)):
        mapped = frozenset(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
        )
        if mapped == edges:
            out.append(perm)
    return out


def relabel_complex(cc: CombinatorialComplex, perm: list[int]) -> CombinatorialComplex:
    """Apply a node permutation; build_cc re-canonicalizes the skeletons."""
    cells = [
        (tuple(sorted(perm[v] for v in verts)), r)
        for r in range(1, cc.dimension + 1)
        for verts in cc.skeletons[r]
    ]
    return build_cc(cells, cc.num_nodes)


def arbitrary_complexes(max_nodes: int = 7):
    """Cells over arbitrary vertex subsets at ranks 1-3, singletons included.

    A cell's rank is a non-decreasing function of its size, so strict
    inclusions never lower the rank and several land within one rank; one
    vertex set then gets a second rank, where monotonicity allows.  So
    ``incidence_up(r, r)`` is not the identity.
    """

    @st.composite
    def build(draw):
        rng = random.Random(draw(st.integers(0, 10**6)))
        n = rng.randint(1, max_nodes)
        cuts = sorted(rng.choices(range(1, n + 2), k=2))
        cells = set()
        for _ in range(rng.randint(0, 10)):
            verts = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            cells.add((verts, 1 + (len(verts) >= cuts[0]) + (len(verts) >= cuts[1])))
        if cells:
            verts, rank = rng.choice(sorted(cells))
            twin = (verts, rng.choice([r for r in (1, 2, 3) if r != rank]))
            try:
                return build_cc(sorted(cells | {twin}), n)
            except RankViolation:
                pass
        return build_cc(sorted(cells), n)

    return build()


def brute_isomorphic(a: CombinatorialComplex, b: CombinatorialComplex) -> bool:
    """Isomorphism by trying every node permutation (tiny complexes only).

    Rank 0 holds every singleton, so a rank- and containment-preserving
    bijection is exactly a node permutation carrying each rank's family of
    vertex sets onto the other complex's family at that rank.
    """
    if a.num_nodes != b.num_nodes or a.skeleton_sizes() != b.skeleton_sizes():
        return False
    targets = [set(b.skeletons[r]) for r in range(b.dimension + 1)]
    return any(
        all(
            {tuple(sorted(perm[v] for v in verts)) for verts in a.skeletons[r]} == targets[r]
            for r in range(1, a.dimension + 1)
        )
        for perm in permutations(range(a.num_nodes))
    )


def reference_match_components(comps_a, comps_b, counter):
    """Backtracking multiset matching of components, with component pair
    results memoized within the call: the matcher cckit.iso used before its
    one-pass match."""
    memo: dict = {}

    def pair_witness(i: int, j: int):
        if (i, j) not in memo:
            ca, cb = comps_a[i].complex, comps_b[j].complex
            if ca.dimension != cb.dimension or ca.skeleton_sizes() != cb.skeleton_sizes():
                memo[i, j] = None
            else:
                memo[i, j] = _component_witness(ca, cb, counter)
        return memo[i, j]

    used = [False] * len(comps_b)
    matching: list = []

    def assign(i: int) -> bool:
        if i == len(comps_a):
            return True
        for j in range(len(comps_b)):
            if used[j]:
                continue
            w = pair_witness(i, j)
            if w is not None:
                used[j] = True
                matching.append((i, j, w))
                if assign(i + 1):
                    return True
                matching.pop()
                used[j] = False
        return False

    return matching if assign(0) else None


def reference_witness(a: CombinatorialComplex, b: CombinatorialComplex):
    """The images of an isomorphism of a onto b found through the backtracking
    component matcher, or None when there is none."""
    comps_a, comps_b = split_components(a), split_components(b)
    if len(comps_a) != len(comps_b):
        return None
    matching = reference_match_components(comps_a, comps_b, _Counter(10**6))
    if matching is None:
        return None
    return _assemble_witness(a, b, comps_a, comps_b, matching).images


def sequential_search(state: CellColors, counter: _Counter):
    """The oracle's search with every sibling of a branch point refined alone,
    as cckit.iso ran it before it batched siblings: the reference for the
    batched search's node counts, witnesses and verdicts."""
    block = iso._incidence_block(state.ell)
    in_a = state.owner == 0
    branches = []  # per open node: its colors, class count, a's cell and b's cells left
    while True:
        counter.spend()
        if all(state.agree() for _ in _updates(state, block)):
            colors, k = state.colors, state.classes
            sizes = state.class_counts()[0]
            if sizes.max() == 1:
                return iso._leaf_map(state)
            split = int(np.argmin(np.where(sizes > 1, sizes, len(colors))))
            members = colors == split
            x = np.flatnonzero(members & in_a)[0]
            branches.append((colors, k, x, iter(np.flatnonzero(members & ~in_a))))
        while branches and (y := next(branches[-1][3], None)) is None:
            branches.pop()
        if not branches:
            return None
        colors, k, x, _ = branches[-1]
        state.colors = colors.copy()
        state.colors[[x, y]] = k
        state.classes = k + 1


@contextmanager
def sequential_oracle():
    """cckit.iso with sequential_search in place of its batched search."""
    with mock.patch.object(iso, "_search", sequential_search):
        yield


def cfi_pair(edges: list[tuple[int, int]]) -> tuple[CombinatorialComplex, CombinatorialComplex]:
    """The Cai-Fuerer-Immerman graphs of a connected graph, untwisted and
    twisted at its first edge, as 1-complexes.

    Each vertex v becomes the middle nodes m(v, S) for the even-size subsets
    S of its edges, then the end nodes a(v, e, 0) and a(v, e, 1) for each
    edge e at v; m(v, S) joins a(v, e, 1) for e in S and a(v, e, 0)
    otherwise.  An edge {u, v} joins a(u, e, i) to a(v, e, i), or to
    a(v, e, 1 - i) where it is twisted.  The two graphs are not isomorphic.
    """
    incident: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)
    ends: dict[tuple[int, int, int], int] = {}
    nodes = 0
    gadget = []
    for v, es in sorted(incident.items()):
        subsets = [c for size in range(0, len(es) + 1, 2) for c in combinations(es, size)]
        first_end = nodes + len(subsets)
        for k, (e, i) in enumerate(product(es, (0, 1))):
            ends[v, e, i] = first_end + k
        for m, chosen in enumerate(subsets, start=nodes):
            gadget += [(m, ends[v, e, int(e in chosen)]) for e in es]
        nodes = first_end + 2 * len(es)

    def build(twisted: bool) -> CombinatorialComplex:
        links = [
            (ends[u, e, i], ends[v, e, i ^ (twisted and e == 0)])
            for e, (u, v) in enumerate(edges)
            for i in (0, 1)
        ]
        return build_cc([(tuple(sorted(pair)), 1) for pair in gadget + links], nodes)

    return build(False), build(True)


def reference_components(cc: CombinatorialComplex):
    """(complex, parent cell indices per rank) of each cells-share-a-vertex
    component, from the cell tuples by union-find: components ordered by
    smallest node, nodes renumbered in order and cells kept in parent order.
    A component's complex stops at its own top non-empty rank; its parent
    indices cover every rank of the parent."""
    root = list(range(cc.num_nodes))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for r in range(1, cc.dimension + 1):
        for verts in cc.skeletons[r]:
            for v in verts[1:]:
                root[find(v)] = find(verts[0])
    groups: dict[int, list[int]] = {}
    for v in range(cc.num_nodes):
        groups.setdefault(find(v), []).append(v)
    out = []
    for nodes in groups.values():
        local = {v: i for i, v in enumerate(nodes)}
        cells, parents = [], []
        for r in range(cc.dimension + 1):
            rows = [i for i, verts in enumerate(cc.skeletons[r]) if verts[0] in local]
            parents.append(rows)
            if r >= 1:
                cells.extend((tuple(local[v] for v in cc.skeletons[r][i]), r) for i in rows)
        out.append((build_cc(cells, len(nodes)), parents))
    return out


def example_two_dim_complex() -> CombinatorialComplex:
    """Eight nodes: a square face, two stacked triangles, one apex triangle.

    Nodes A..H as 0..7: A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7.
    """
    edges = [
        (0, 1), (0, 2), (2, 3), (1, 3), (2, 4), (3, 4),
        (4, 5), (4, 7), (5, 7), (5, 6), (6, 7),
    ]
    faces = [(0, 1, 2, 3), (2, 3, 4), (4, 5, 7), (5, 6, 7)]
    cells = [(tuple(sorted(e)), 1) for e in edges]
    cells += [(tuple(sorted(f)), 2) for f in faces]
    return build_cc(cells, 8)


def klein_bottle(n: int, m: int) -> CombinatorialComplex:
    """The n x m square grid on the Klein bottle: the torus grid with column
    m glued to column 0 upside down, (i, m) ~ (-i, 0).  Its skeleton sizes,
    degrees and squares per cell are the torus((n, m)) ones."""

    def node(i: int, j: int) -> int:
        return (-i % n) * m if j == m else (i % n) * m + j

    cells = []
    for i, j in product(range(n), range(m)):
        square = (node(i, j), node(i + 1, j), node(i + 1, j + 1), node(i, j + 1))
        cells += [(tuple(sorted(square[:2])), 1), (tuple(sorted(square[::3])), 1)]
        cells.append((tuple(sorted(square)), 2))
    return build_cc(cells, n * m)


def random_graph(rng, num_nodes: int, edge_prob: float) -> SimpleGraph:
    edges = [
        (u, v)
        for u in range(num_nodes)
        for v in range(u + 1, num_nodes)
        if rng.random() < edge_prob
    ]
    return SimpleGraph.from_edges(num_nodes, edges)


def random_split_graph(rng, max_nodes: int, edge_prob: float = 0.5) -> SimpleGraph:
    """Two random graphs side by side (the second may be empty), so the
    result is often disconnected and may hold isolated nodes."""
    a = random_graph(rng, rng.randint(1, max_nodes), edge_prob)
    b = random_graph(rng, rng.randint(0, max_nodes), edge_prob)
    shifted = [(u + a.num_nodes, v + a.num_nodes) for u, v in b.edges]
    return SimpleGraph.from_edges(a.num_nodes + b.num_nodes, [*a.edges, *shifted])


def brute_first_failure(m):
    """First (rank, cell index, spec) whose neighborhood does not map
    bijectively, straight from the definition via brute_neighborhood.

    Cells in skeleton order, specs in natural_specs order for each cell;
    None when every neighborhood maps bijectively.
    """
    src, tgt = m.source, m.target
    for rank in range(src.dimension + 1):
        specs = [s for s in natural_specs(src.dimension) if s.r1 == rank]
        for i, verts in enumerate(src.skeletons[rank]):
            img_verts = tgt.skeletons[rank][m.assignment[rank][i]]
            for spec in specs:
                nbrs = brute_neighborhood(src, spec, verts, rank)
                image_cells = {
                    (tgt.skeletons[r][m.assignment[r][src.cell_position(v, r)]], r)
                    for v, r in nbrs
                }
                expected = brute_neighborhood(tgt, spec, img_verts, rank)
                if len(image_cells) != len(nbrs) or image_cells != expected:
                    return rank, i, spec
    return None


def brute_is_covering(m) -> bool:
    """Covering check straight from the definition, via brute_neighborhood.

    Surjectivity onto every target skeleton, then bijectivity of the image of
    every cell's neighborhood for every natural function.
    """
    src, tgt = m.source, m.target
    if src.dimension != tgt.dimension:
        return False
    for r in range(tgt.dimension + 1):
        if set(m.assignment[r]) != set(range(len(tgt.skeletons[r]))):
            return False
    return brute_first_failure(m) is None


def reference_torus(periods: tuple[int, ...]) -> CombinatorialComplex:
    """Torus cell by cell: the cell seeded at s with 0/1 offset pattern k holds
    every s + k' with k' <= k, wrapped per coordinate, flattened row-major."""
    cells = []
    for s in product(*(range(p) for p in periods)):
        for k in product((0, 1), repeat=len(periods)):
            if any(k):
                members = set()
                for kp in product(*(range(x + 1) for x in k)):
                    idx = 0
                    for c, d, p in zip(s, kp, periods):
                        idx = idx * p + (c + d) % p
                    members.add(idx)
                cells.append((tuple(sorted(members)), sum(k)))
    n = 1
    for p in periods:
        n *= p
    return build_cc(cells, n)


def reference_strip_node(i: int, j: int, h: int, p: int, twist: bool) -> int | None:
    """Node id of strip coordinate (i, j): None off the height axis; the
    perimeter wraps, and with `twist` crossing the seam flips the height."""
    if not 0 <= i < h:
        return None
    t = j % (2 * p) if twist else j % p
    if t < p:
        return i * p + t
    return (h - 1 - i) * p + (t - p)


def reference_strip(h: int, p: int, twist: bool) -> CombinatorialComplex:
    """Cylinder (or, with `twist`, Moebius strip) cell by cell: the cell seeded
    at (i, j) with 0/1 offset pattern k holds every glued (i, j) + k' with
    k' <= k, and is skipped when its far corner leaves the height axis."""
    cells = []
    for s in product(range(h), range(p)):
        for k in ((0, 1), (1, 0), (1, 1)):
            if reference_strip_node(s[0] + k[0], s[1] + k[1], h, p, twist) is None:
                continue
            members = {
                reference_strip_node(s[0] + a, s[1] + b, h, p, twist)
                for a, b in product(range(k[0] + 1), range(k[1] + 1))
            }
            cells.append((tuple(sorted(members)), sum(k)))
    return build_cc(cells, h * p)


def reference_strip_cover_nodes(h: int, p: int) -> tuple[list[int], list[int]]:
    """Node maps from the (h, 2p) cylinder onto the (h, p) cylinder (wrap)
    and the (h, p) Moebius strip (twist-wrap), node by node."""
    to_cyl, to_moeb = [], []
    for i in range(h):
        for j in range(2 * p):
            to_cyl.append(i * p + (j % p))
            if j < p:
                to_moeb.append(i * p + j)
            else:
                to_moeb.append((h - 1 - i) * p + (j - p))
    return to_cyl, to_moeb


def reference_marking(cc, r1: int, r2: int, marking: str) -> list[list[int]]:
    """Pair markings cell by cell: containment (binary), or the distance from
    each node to the nearest vertex of each r2-cell, -1 when none is reachable,
    on the graph joining the nodes of each rank-1 cell."""
    if marking == "binary":
        ups = cc.contains_lists(r1, r2)
        return [[int(y in ups[x]) for y in range(len(cc.cells(r2)))] for x in range(len(ups))]
    node_graph = SimpleGraph.from_edges(
        cc.num_nodes, [pair for verts in cc.cells(1) for pair in combinations(verts, 2)]
    )
    dist = [brute_graph_distances(node_graph, v) for v in range(cc.num_nodes)]
    mark = []
    for row in dist:
        nearest = [min(row[v] for v in verts) for verts in cc.cells(r2)]
        mark.append([-1 if d == INFINITE else int(d) for d in nearest])
    return mark


class ReferenceRefinement:
    """Per-cell refinement with tuple signatures and dict palettes.

    The plain loop the numpy kernel of cckit.refinement is checked against:
    colors[ci][r][i] is the color of rank-r cell i of complex ci, drawn from
    one palette for the whole run; pairs[ci][x][y] is the live pair coloring.
    """

    def __init__(self, ccs):
        self.ccs = list(ccs)
        self.ell = max(cc.dimension for cc in ccs)
        self.palette: dict = {}
        self.colors = [
            [[self.intern(("rank", r))] * len(cc.cells(r)) for r in range(self.ell + 1)]
            for cc in self.ccs
        ]
        self.block = None
        self.pairs: list[list[list[int]]] = []
        self.pair_count = 0

    def intern(self, sig) -> int:
        return self.palette.setdefault(sig, len(self.palette))

    def distinct_cell_colors(self) -> int:
        return len({c for per_rank in self.colors for row in per_rank for c in row})

    def homp_round(self, specs) -> bool:
        before = self.distinct_cell_colors()
        new_all = []
        for ci, cc in enumerate(self.ccs):
            per_rank = []
            for r in range(self.ell + 1):
                tables = [
                    (cc.neighbor_lists(s), self.colors[ci][s.target_rank])
                    for s in specs
                    if s.r1 == r
                ]
                per_rank.append([
                    self.intern((
                        old,
                        tuple(tuple(sorted(tgt[j] for j in nbrs[i])) for nbrs, tgt in tables),
                    ))
                    for i, old in enumerate(self.colors[ci][r])
                ])
            new_all.append(per_rank)
        self.colors = new_all
        return self.distinct_cell_colors() > before

    def _renumber_pairs(self, sigs) -> bool:
        palette: dict = {}
        self.pairs = [
            [[palette.setdefault(s, len(palette)) for s in row] for row in per_cc]
            for per_cc in sigs
        ]
        changed = len(palette) > self.pair_count
        self.pair_count = len(palette)
        return changed

    def seed_pairs(self, block: SclBlock) -> None:
        self.block = block
        sigs = []
        for ci, cc in enumerate(self.ccs):
            c1, c2 = self.colors[ci][block.r1], self.colors[ci][block.r2]
            mark = reference_marking(cc, block.r1, block.r2, block.marking)
            sigs.append([
                [(c1[x], c2[y], mark[x][y]) for y in range(len(c2))] for x in range(len(c1))
            ])
        self._renumber_pairs(sigs)

    def scl_round(self) -> bool:
        r1, r2 = self.block.r1, self.block.r2
        sigs = []
        for ci, cc in enumerate(self.ccs):
            C = self.pairs[ci]
            xs = [cc.neighbor_lists(f(r1, r)) for r in range(self.ell + 1) for f in (adjacency, co_adjacency)]
            ys = [cc.neighbor_lists(f(r2, r)) for r in range(self.ell + 1) for f in (adjacency, co_adjacency)]
            up = cc.neighbor_lists(incidence_up(r1, r2))
            down = cc.neighbor_lists(incidence_down(r2, r1))
            sigs.append([
                [
                    (
                        C[x][y],
                        tuple(tuple(sorted(C[x2][y] for x2 in nb[x])) for nb in xs),
                        tuple(tuple(sorted(C[x][y2] for y2 in nb[y])) for nb in ys),
                        tuple(sorted(C[x][y2] for y2 in up[x])),
                        tuple(sorted(C[x2][y] for x2 in down[y])),
                    )
                    for y in range(len(C[x]))
                ]
                for x in range(len(C))
            ])
        return self._renumber_pairs(sigs)

    def pool(self) -> None:
        r1, r2 = self.block.r1, self.block.r2
        for ci, C in enumerate(self.pairs):
            rows = [tuple(sorted(row)) for row in C]
            cols = [tuple(sorted(col)) for col in zip(*C)] or [()] * len(self.colors[ci][r2])
            if r1 == r2:
                self.colors[ci][r1] = [
                    self.intern((old, rows[i], cols[i])) for i, old in enumerate(self.colors[ci][r1])
                ]
            else:
                self.colors[ci][r1] = [
                    self.intern((old, "row", rows[i])) for i, old in enumerate(self.colors[ci][r1])
                ]
                self.colors[ci][r2] = [
                    self.intern((old, "col", cols[j])) for j, old in enumerate(self.colors[ci][r2])
                ]


def reference_diagram(ccs, stages):
    """Run stages on ReferenceRefinement, yielding the state at every tick
    (the tick count of cckit.refinement.run_diagram)."""
    state = ReferenceRefinement(ccs)
    yield state
    for st in stages:
        if isinstance(st, HompBlock):
            specs = tuple(st.specs) if st.specs is not None else tuple(natural_specs(state.ell))
            for _ in range(st.rounds or 10**9):
                changed = state.homp_round(specs)
                yield state
                if st.rounds is None and not changed:
                    break
        elif isinstance(st, SclBlock):
            state.seed_pairs(st)
            yield state
            for _ in range(st.rounds or 10**9):
                changed = state.scl_round()
                yield state
                if st.rounds is None and not changed:
                    break
        else:
            state.pool()
            yield state
