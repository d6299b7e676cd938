"""Core combinatorial-complex data model.

A combinatorial complex is a ranked family of vertex sets over integer nodes
0..n0-1: every singleton is a rank-0 cell, and strict vertex-set inclusion
never decreases in rank.  Cells are keyed by (vertex set, rank), so the same
vertex set may appear at several ranks (pooling constructions need this).

Complexes are immutable after construction; all queries are pure reads.
Neighborhood structures are cached lazily on first use -- concurrent readers
may duplicate that work but always observe identical results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    DuplicateCell,
    EmptyCell,
    OutOfRangeNode,
    ParseError,
    RankViolation,
    UnknownCell,
    WrongKind,
)

Verts = tuple[int, ...]


@dataclass(frozen=True, order=True)
class Cell:
    """A cell: strictly increasing vertex tuple plus a rank."""

    vertices: Verts
    rank: int

    def __post_init__(self) -> None:
        if not self.vertices:
            raise EmptyCell("cell has no vertices")
        if any(b <= a for a, b in zip(self.vertices, self.vertices[1:])):
            raise EmptyCell(f"vertices not strictly increasing: {self.vertices}")
        if self.rank < 0:
            raise RankViolation(f"negative rank {self.rank}")


class NeighborhoodKind(Enum):
    ADJACENCY = "A"
    CO_ADJACENCY = "coA"
    INCIDENCE_UP = "B"
    INCIDENCE_DOWN = "BT"


@dataclass(frozen=True, order=True)
class NeighborhoodSpec:
    """One of the natural neighborhood functions, fixed to a rank pair.

    Cells of rank r1 are the domain.  Adjacency relates two r1-cells through a
    common r2-cell above them; co-adjacency through a common r2-cell below.
    Incidence-up maps an r1-cell to the r2-cells containing it, incidence-down
    to the r2-cells it contains.  Containment means vertex-set inclusion.
    """

    kind: NeighborhoodKind
    r1: int
    r2: int

    @property
    def target_rank(self) -> int:
        """Rank of the cells a neighborhood of this spec consists of."""
        if self.kind in (NeighborhoodKind.ADJACENCY, NeighborhoodKind.CO_ADJACENCY):
            return self.r1
        return self.r2

    @property
    def is_adjacency_like(self) -> bool:
        return self.kind in (NeighborhoodKind.ADJACENCY, NeighborhoodKind.CO_ADJACENCY)

    def __str__(self) -> str:
        return f"{self.kind.value}_{{{self.r1},{self.r2}}}"


def adjacency(r1: int, r2: int) -> NeighborhoodSpec:
    return NeighborhoodSpec(NeighborhoodKind.ADJACENCY, r1, r2)


def co_adjacency(r1: int, r2: int) -> NeighborhoodSpec:
    return NeighborhoodSpec(NeighborhoodKind.CO_ADJACENCY, r1, r2)


def incidence_up(r1: int, r2: int) -> NeighborhoodSpec:
    return NeighborhoodSpec(NeighborhoodKind.INCIDENCE_UP, r1, r2)


def incidence_down(r1: int, r2: int) -> NeighborhoodSpec:
    return NeighborhoodSpec(NeighborhoodKind.INCIDENCE_DOWN, r1, r2)


def natural_specs(dimension: int) -> list[NeighborhoodSpec]:
    """All natural neighborhood functions over rank pairs 0..dimension."""
    specs = []
    for kind in NeighborhoodKind:
        for r1 in range(dimension + 1):
            for r2 in range(dimension + 1):
                specs.append(NeighborhoodSpec(kind, r1, r2))
    return specs


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on 0..num_nodes-1 without self-loops."""

    num_nodes: int
    edges: frozenset[Verts]

    def __post_init__(self) -> None:
        for e in self.edges:
            if len(e) != 2 or e[0] >= e[1]:
                raise ParseError(f"bad edge {e}")
            if e[1] >= self.num_nodes or e[0] < 0:
                raise OutOfRangeNode(f"edge {e} outside 0..{self.num_nodes - 1}")

    @staticmethod
    def from_edges(num_nodes: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        canon = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return SimpleGraph(num_nodes, canon)

    def adjacency_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def sorted_edges(self) -> list[Verts]:
        return sorted(self.edges)


@dataclass(frozen=True)
class SparseBinaryMatrix:
    """0/1 matrix stored as the set of positions holding 1."""

    rows: int
    cols: int
    entries: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.entries:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ParseError(f"entry {(i, j)} outside {self.rows}x{self.cols}")

    def transpose(self) -> "SparseBinaryMatrix":
        return SparseBinaryMatrix(self.cols, self.rows, frozenset((j, i) for i, j in self.entries))

    def to_dense(self):
        import numpy as np

        m = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for i, j in self.entries:
            m[i, j] = 1
        return m


class CombinatorialComplex:
    """Validated complex with lazily cached neighborhood structure.

    Skeletons are lexicographically sorted vertex tuples; every index used by
    matrices, graphs and colorings derives from that order, so all outputs are
    deterministic.  Use :func:`build_cc` instead of calling this directly.
    """

    __slots__ = (
        "num_nodes",
        "dimension",
        "skeletons",
        "_vsets",
        "_index",
        "_vertex_cells",
        "_contains",
        "_neighbor_cache",
        "_csr_cache",
    )

    def __init__(self, num_nodes: int, skeletons: tuple[tuple[Verts, ...], ...]):
        self.num_nodes = num_nodes
        self.dimension = len(skeletons) - 1
        self.skeletons = skeletons
        self._vsets: tuple[tuple[frozenset[int], ...], ...] = tuple(
            tuple(frozenset(c) for c in sk) for sk in skeletons
        )
        self._index: dict[tuple[Verts, int], int] = {}
        for r, sk in enumerate(skeletons):
            for i, verts in enumerate(sk):
                self._index[(verts, r)] = i
        # vertex -> cell indices, per rank; filled lazily
        self._vertex_cells: dict[int, list[list[int]]] = {}
        self._contains: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._neighbor_cache: dict[NeighborhoodSpec, list[tuple[int, ...]]] = {}
        self._csr_cache: dict[NeighborhoodSpec, tuple] = {}

    # -- basic queries -------------------------------------------------------

    def skeleton_sizes(self) -> tuple[int, ...]:
        return tuple(len(sk) for sk in self.skeletons)

    def num_cells(self) -> int:
        return sum(len(sk) for sk in self.skeletons)

    def cells(self, rank: int) -> tuple[Verts, ...]:
        if 0 <= rank <= self.dimension:
            return self.skeletons[rank]
        return ()

    def has_cell(self, verts: Verts, rank: int) -> bool:
        return (verts, rank) in self._index

    def cell_position(self, verts: Verts, rank: int) -> int:
        try:
            return self._index[(verts, rank)]
        except KeyError:
            raise UnknownCell(f"no rank-{rank} cell {verts}") from None

    def all_cells(self) -> list[Cell]:
        return [Cell(v, r) for r, sk in enumerate(self.skeletons) for v in sk]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CombinatorialComplex)
            and self.num_nodes == other.num_nodes
            and self.skeletons == other.skeletons
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.skeletons))

    def __repr__(self) -> str:
        return f"CombinatorialComplex(n0={self.num_nodes}, sizes={self.skeleton_sizes()})"

    # -- containment structure -----------------------------------------------

    def _vertex_cells_of(self, rank: int) -> list[list[int]]:
        """For each node id, the rank-`rank` cell indices containing it."""
        if rank not in self._vertex_cells:
            table: list[list[int]] = [[] for _ in range(self.num_nodes)]
            if 0 <= rank <= self.dimension:
                for i, vs in enumerate(self.skeletons[rank]):
                    for v in vs:
                        table[v].append(i)
            self._vertex_cells[rank] = table
        return self._vertex_cells[rank]

    def contains_lists(self, r_sub: int, r_sup: int) -> list[tuple[int, ...]]:
        """For each cell in skeleton r_sub, the r_sup cells containing it.

        Containment is vertex-set inclusion (equality counts).
        """
        key = (r_sub, r_sup)
        if key not in self._contains:
            result: list[tuple[int, ...]] = []
            if not (0 <= r_sub <= self.dimension and 0 <= r_sup <= self.dimension):
                self._contains[key] = result
                return result
            table = self._vertex_cells_of(r_sup)
            sup_vsets = self._vsets[r_sup]
            for vs in self.skeletons[r_sub]:
                candidates = table[vs[0]]
                if len(vs) == 1:
                    result.append(tuple(candidates))
                    continue
                rest = vs[1:]
                hits = [j for j in candidates if all(v in sup_vsets[j] for v in rest)]
                result.append(tuple(hits))
            self._contains[key] = result
        return self._contains[key]

    def contained_lists(self, r_sup: int, r_sub: int) -> list[tuple[int, ...]]:
        """For each cell in skeleton r_sup, the r_sub cells it contains."""
        fwd = self.contains_lists(r_sub, r_sup)
        n_sup = len(self.skeletons[r_sup]) if 0 <= r_sup <= self.dimension else 0
        out: list[list[int]] = [[] for _ in range(n_sup)]
        for i, sups in enumerate(fwd):
            for j in sups:
                out[j].append(i)
        return [tuple(js) for js in out]

    # -- neighborhood functions ------------------------------------------------

    def neighbor_lists(self, spec: NeighborhoodSpec) -> list[tuple[int, ...]]:
        """Neighborhood of every cell in skeleton r1, as sorted index tuples.

        Indices refer to the target skeleton (r1 for (co)adjacency, r2 for
        incidence).  Cached per spec.
        """
        if spec in self._neighbor_cache:
            return self._neighbor_cache[spec]
        r1, r2 = spec.r1, spec.r2
        n1 = len(self.skeletons[r1]) if 0 <= r1 <= self.dimension else 0
        result: list[tuple[int, ...]]
        if n1 == 0 or not (0 <= r2 <= self.dimension):
            result = [()] * n1
        elif spec.kind is NeighborhoodKind.INCIDENCE_UP:
            result = self.contains_lists(r1, r2)
        elif spec.kind is NeighborhoodKind.INCIDENCE_DOWN:
            result = [tuple(t) for t in self.contained_lists(r1, r2)]
        elif spec.kind is NeighborhoodKind.ADJACENCY:
            up = self.contains_lists(r1, r2)
            down = self.contained_lists(r2, r1)
            result = []
            for i in range(n1):
                acc: set[int] = set()
                for z in up[i]:
                    acc.update(down[z])
                acc.discard(i)
                result.append(tuple(sorted(acc)))
        else:  # CO_ADJACENCY
            down2 = self.contained_lists(r1, r2)
            up2 = self.contains_lists(r2, r1)
            result = []
            for i in range(n1):
                acc = set()
                for z in down2[i]:
                    acc.update(up2[z])
                acc.discard(i)
                result.append(tuple(sorted(acc)))
        self._neighbor_cache[spec] = result
        return result

    def neighbor_csr(self, spec: NeighborhoodSpec):
        """(indptr, indices) int64 arrays for the spec's neighbor lists."""
        if spec not in self._csr_cache:
            import numpy as np

            lists = self.neighbor_lists(spec)
            degrees = np.fromiter((len(x) for x in lists), dtype=np.int64, count=len(lists))
            indptr = np.zeros(len(lists) + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            if indptr[-1]:
                indices = np.concatenate(
                    [np.asarray(x, dtype=np.int64) for x in lists if x]
                )
            else:
                indices = np.zeros(0, dtype=np.int64)
            self._csr_cache[spec] = (indptr, indices)
        return self._csr_cache[spec]


# -- construction ---------------------------------------------------------------


def build_cc(
    raw_cells: Iterable[tuple[Iterable[int], int]],
    num_nodes: int,
) -> CombinatorialComplex:
    """Validate and canonicalize a cell list into a complex.

    Rank-0 singletons are inserted automatically when missing.  Cells are
    deduplicated vertex-wise, sorted lexicographically within each skeleton.

    Raises EmptyCell, OutOfRangeNode, DuplicateCell, or RankViolation.
    """
    if num_nodes < 1:
        raise OutOfRangeNode("a complex needs at least one node")

    seen: dict[tuple[Verts, int], None] = {}
    max_rank = 0
    for verts_in, rank in raw_cells:
        verts = tuple(sorted(set(verts_in)))
        if not verts:
            raise EmptyCell("cell has no vertices")
        if rank < 0:
            raise RankViolation(f"negative rank {rank} for cell {verts}")
        if verts[0] < 0 or verts[-1] >= num_nodes:
            raise OutOfRangeNode(f"cell {verts} outside 0..{num_nodes - 1}")
        if rank == 0 and len(verts) > 1:
            raise RankViolation(f"rank-0 cell {verts} is not a singleton")
        key = (verts, rank)
        if key in seen:
            raise DuplicateCell(f"cell {verts} at rank {rank} appears twice")
        seen[key] = None
        max_rank = max(max_rank, rank)

    # rank-0 cells are exactly the singletons
    for v in range(num_nodes):
        seen.setdefault(((v,), 0), None)

    skeletons: list[list[Verts]] = [[] for _ in range(max_rank + 1)]
    for verts, rank in seen:
        skeletons[rank].append(verts)
    for sk in skeletons:
        sk.sort()

    cc = CombinatorialComplex(num_nodes, tuple(tuple(sk) for sk in skeletons))
    _check_rank_monotonicity(cc)
    return cc


def _check_rank_monotonicity(cc: CombinatorialComplex) -> None:
    """Strict inclusion must not decrease rank (equal vertex sets exempt)."""
    for r_low in range(cc.dimension + 1):
        for r_high in range(r_low + 1, cc.dimension + 1):
            # any r_high cell strictly inside an r_low cell is a violation
            fwd = cc.contains_lists(r_high, r_low)
            vsets_low = cc._vsets[r_low]
            vsets_high = cc._vsets[r_high]
            for i, sups in enumerate(fwd):
                for j in sups:
                    if vsets_high[i] != vsets_low[j]:
                        raise RankViolation(
                            f"rank-{r_high} cell {cc.skeletons[r_high][i]} is contained in "
                            f"rank-{r_low} cell {cc.skeletons[r_low][j]}"
                        )


def graph_as_cc(g: SimpleGraph) -> CombinatorialComplex:
    """View a graph as a complex: nodes at rank 0, edges at rank 1."""
    cells: list[tuple[Verts, int]] = [(e, 1) for e in g.sorted_edges()]
    return build_cc(cells, g.num_nodes)


# -- per-cell operations -----------------------------------------------------------


def neighborhood(cc: CombinatorialComplex, spec: NeighborhoodSpec, x: Cell) -> set[Cell]:
    """The cells related to `x` under `spec`; empty when rk(x) != r1."""
    if not cc.has_cell(x.vertices, x.rank):
        raise UnknownCell(f"{x} not in complex")
    if x.rank != spec.r1:
        return set()
    i = cc.cell_position(x.vertices, x.rank)
    tr = spec.target_rank
    targets = cc.cells(tr)
    return {Cell(targets[j], tr) for j in cc.neighbor_lists(spec)[i]}


def neighborhood_matrix(cc: CombinatorialComplex, spec: NeighborhoodSpec) -> SparseBinaryMatrix:
    """Matrix form of a neighborhood function, rows indexed by skeleton r1."""
    n_rows = len(cc.cells(spec.r1))
    n_cols = len(cc.cells(spec.target_rank))
    entries = frozenset(
        (i, j) for i, nbrs in enumerate(cc.neighbor_lists(spec)) for j in nbrs
    )
    return SparseBinaryMatrix(n_rows, n_cols, entries)


def augmented_hasse_graph(cc: CombinatorialComplex, spec: NeighborhoodSpec) -> SimpleGraph:
    """Graph on skeleton r1 with edges given by a (co)adjacency function."""
    if not spec.is_adjacency_like:
        raise WrongKind(f"augmented Hasse graph needs (co)adjacency, got {spec}")
    n = len(cc.cells(spec.r1))
    edges = set()
    for i, nbrs in enumerate(cc.neighbor_lists(spec)):
        for j in nbrs:
            edges.add((min(i, j), max(i, j)))
    return SimpleGraph(n, frozenset(edges))


def hasse_graph(cc: CombinatorialComplex) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Graph on all cells with codimension-1 inclusion edges, plus rank labels.

    Node order concatenates the skeletons rank by rank.
    """
    offsets = []
    total = 0
    for r in range(cc.dimension + 1):
        offsets.append(total)
        total += len(cc.skeletons[r])
    edges = set()
    for r in range(1, cc.dimension + 1):
        down = cc.contained_lists(r, r - 1)
        for i, subs in enumerate(down):
            for j in subs:
                edges.add((offsets[r - 1] + j, offsets[r] + i))
    ranks = tuple(r for r in range(cc.dimension + 1) for _ in cc.skeletons[r])
    return SimpleGraph(total, frozenset(edges)), ranks


def disjoint_union(a: CombinatorialComplex, b: CombinatorialComplex) -> CombinatorialComplex:
    """Concatenate two complexes, shifting b's node ids past a's."""
    shift = a.num_nodes
    cells: list[tuple[Verts, int]] = []
    for r in range(a.dimension + 1):
        cells.extend((verts, r) for verts in a.skeletons[r] if r > 0)
    for r in range(b.dimension + 1):
        cells.extend((tuple(v + shift for v in verts), r) for verts in b.skeletons[r] if r > 0)
    return build_cc(cells, a.num_nodes + b.num_nodes)


def disjoint_union_all(parts: Sequence[CombinatorialComplex]) -> CombinatorialComplex:
    if not parts:
        raise EmptyCell("disjoint union of nothing")
    out = parts[0]
    for p in parts[1:]:
        out = disjoint_union(out, p)
    return out


# -- serialization ---------------------------------------------------------------


def encode_json(cc: CombinatorialComplex) -> bytes:
    """Canonical UTF-8 JSON: dimension, num_nodes, cells per rank."""
    doc = {
        "dimension": cc.dimension,
        "num_nodes": cc.num_nodes,
        "cells": [[list(verts) for verts in sk] for sk in cc.skeletons],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass in Python but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def decode_json(data: bytes | str) -> CombinatorialComplex:
    """Parse the CC JSON format; inverse of :func:`encode_json`.

    The rank-0 entry may be null or empty (singletons are implied).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        dimension = doc["dimension"]
        num_nodes = doc["num_nodes"]
        cell_layers = doc["cells"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from exc
    if not _is_int(dimension) or not _is_int(num_nodes):
        raise ParseError("dimension and num_nodes must be integers")
    if not isinstance(cell_layers, list) or len(cell_layers) != dimension + 1:
        raise ParseError(f"cells must be an array of length dimension+1 = {dimension + 1}")
    raw: list[tuple[Verts, int]] = []
    for r, layer in enumerate(cell_layers):
        if layer is None and r == 0:
            continue
        if not isinstance(layer, list):
            raise ParseError(f"cells[{r}] must be an array")
        for arr in layer:
            if not isinstance(arr, list) or not all(_is_int(v) for v in arr):
                raise ParseError(f"cells[{r}] entries must be integer arrays")
            if any(b <= a for a, b in zip(arr, arr[1:])):
                raise ParseError(f"cell {arr} is not strictly increasing")
            raw.append((tuple(arr), r))
    cc = build_cc(raw, num_nodes)
    if cc.dimension != dimension:
        raise ParseError(f"declared dimension {dimension} but top non-empty rank is {cc.dimension}")
    return cc


def format_edge_list(g: SimpleGraph) -> str:
    """Text form: first line "n m", then one "u v" line per edge."""
    lines = [f"{g.num_nodes} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> SimpleGraph:
    graphs = parse_edge_list_stream(text)
    if len(graphs) != 1:
        raise ParseError(f"expected exactly one graph, found {len(graphs)}")
    return graphs[0]


def parse_edge_list_blocks(text: str) -> list["SimpleGraph | ParseError"]:
    """Lenient block-wise parse: a bad block yields a ParseError entry and the
    scan resumes at the next block (the 'n m' header frames each block)."""
    tokens: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            tokens.append((lineno, line))
    out: list[SimpleGraph | ParseError] = []
    pos = 0
    while pos < len(tokens):
        lineno, header = tokens[pos]
        parts = header.split()
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            out.append(ParseError(f"line {lineno}: expected header 'n m', got {header!r}"))
            break  # cannot resync without a frame length
        n, m = int(parts[0]), int(parts[1])
        if m < 0 or pos + 1 + m > len(tokens):
            out.append(ParseError(f"line {lineno}: header 'n m' = {n} {m} inconsistent with input"))
            break
        block = "\n".join([header] + [t[1] for t in tokens[pos + 1 : pos + 1 + m]])
        try:
            out.append(parse_edge_list(block))
        except ParseError as exc:
            out.append(exc)
        pos += 1 + m
    return out


def parse_edge_list_stream(text: str) -> list[SimpleGraph]:
    """Parse one or more concatenated edge-list blocks."""
    tokens: list[tuple[int, list[int]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: expected integers, got {line!r}") from None
        tokens.append((lineno, nums))

    graphs: list[SimpleGraph] = []
    pos = 0
    while pos < len(tokens):
        lineno, header = tokens[pos]
        if len(header) != 2:
            raise ParseError(f"line {lineno}: expected header 'n m', got {header}")
        n, m = header
        if n < 0 or m < 0 or pos + 1 + m > len(tokens):
            raise ParseError(f"line {lineno}: header 'n m' = {n} {m} inconsistent with input")
        edges = []
        for lineno2, pair in tokens[pos + 1 : pos + 1 + m]:
            if len(pair) != 2:
                raise ParseError(f"line {lineno2}: expected edge 'u v', got {pair}")
            u, v = pair
            if u == v:
                raise ParseError(f"line {lineno2}: self-loop {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno2}: edge {u} {v} outside 0..{n - 1}")
            edges.append((u, v))
        try:
            g = SimpleGraph.from_edges(n, edges)
        except (OutOfRangeNode, ParseError) as exc:
            raise ParseError(str(exc)) from exc
        if len(g.edges) != m:
            raise ParseError(f"line {lineno}: duplicate edges in block")
        graphs.append(g)
        pos += 1 + m
    return graphs
