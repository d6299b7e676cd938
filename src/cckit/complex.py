"""Core combinatorial-complex data model.

A combinatorial complex is a ranked family of vertex sets over integer nodes
0..n0-1: every singleton is a rank-0 cell, and strict vertex-set inclusion
never decreases in rank.  Cells are keyed by (vertex set, rank), so the same
vertex set may appear at several ranks (pooling constructions need this).

Complexes are immutable after construction; all queries are pure reads.
Neighborhood structures are cached lazily on first use -- concurrent readers
may duplicate that work but always observe identical results.  The refinement
traces that :func:`cckit.refinement.distinguish` keeps on a complex are the
exception: calls that share a complex must not run concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, total_ordering
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

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


@total_ordering
class NeighborhoodKind(Enum):
    """Kinds order by declaration, which is the order natural_specs lists."""

    ADJACENCY = "A"
    CO_ADJACENCY = "coA"
    INCIDENCE_UP = "B"
    INCIDENCE_DOWN = "BT"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, NeighborhoodKind):
            return NotImplemented
        return _KIND_ORDER[self] < _KIND_ORDER[other]


_KIND_ORDER = {kind: i for i, kind in enumerate(NeighborhoodKind)}


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

    def __post_init__(self) -> None:
        # specs key every neighborhood cache: hash once, from ints alone, so
        # the value is the same in every process.  The factory functions
        # below return one shared spec per (kind, r1, r2), so cache lookups
        # mostly meet the key itself and skip __eq__.
        object.__setattr__(self, "_hash", hash((_KIND_ORDER[self.kind], self.r1, self.r2)))

    def __hash__(self) -> int:
        return self._hash

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


@lru_cache(maxsize=None)
def adjacency(r1: int, r2: int) -> NeighborhoodSpec:
    return NeighborhoodSpec(NeighborhoodKind.ADJACENCY, r1, r2)


@lru_cache(maxsize=None)
def co_adjacency(r1: int, r2: int) -> NeighborhoodSpec:
    return NeighborhoodSpec(NeighborhoodKind.CO_ADJACENCY, r1, r2)


@lru_cache(maxsize=None)
def incidence_up(r1: int, r2: int) -> NeighborhoodSpec:
    return NeighborhoodSpec(NeighborhoodKind.INCIDENCE_UP, r1, r2)


@lru_cache(maxsize=None)
def incidence_down(r1: int, r2: int) -> NeighborhoodSpec:
    return NeighborhoodSpec(NeighborhoodKind.INCIDENCE_DOWN, r1, r2)


def natural_specs(dimension: int) -> list[NeighborhoodSpec]:
    """All natural neighborhood functions over rank pairs 0..dimension."""
    ranks = range(dimension + 1)
    return [
        make(r1, r2)
        for make in (adjacency, co_adjacency, incidence_up, incidence_down)
        for r1 in ranks
        for r2 in ranks
    ]


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


Csr = tuple[np.ndarray, np.ndarray]  # (indptr, indices), int64, read-only


def _frozen(indptr: np.ndarray, indices: np.ndarray) -> Csr:
    """Freeze a CSR: complexes share their caches, so no caller may write."""
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


def _csr(rows: np.ndarray, cols: np.ndarray, n_rows: int) -> Csr:
    """CSR of (row, col) entries already in row-major order."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return _frozen(indptr, cols.astype(np.int64, copy=False))


def _empty_csr(n_rows: int) -> Csr:
    return _frozen(np.zeros(n_rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))


def row_lengths(indptr: np.ndarray) -> np.ndarray:
    """Entries per row of a CSR (np.diff without its per-call overhead)."""
    return indptr[1:] - indptr[:-1]


def row_ids(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a CSR."""
    return np.repeat(np.arange(len(indptr) - 1), row_lengths(indptr))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of an int array, ascending, with their multiplicities.

    Sort-based: faster than np.unique's hashing on the many small arrays a
    complex's neighborhoods are built from.
    """
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], row_lengths(np.append(starts, len(keys)))


def _expand(csr: Csr, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows listed in `rows`, concatenated: each value's position in
    `rows`, and the values."""
    indptr, indices = csr
    starts = indptr[rows]
    deg = indptr[rows + 1] - starts
    pos = np.repeat(np.arange(len(rows)), deg)
    # output slot k holds entry k - (first slot of its row) of that row
    firsts = np.cumsum(deg) - deg
    return pos, indices[np.arange(len(pos)) + (starts - firsts)[pos]]


def _transpose(csr: Csr, n_cols: int) -> Csr:
    indptr, indices = csr
    n_rows = len(indptr) - 1
    return _from_keys(np.sort(indices * n_rows + row_ids(indptr)), n_rows, n_cols)


def _from_keys(keys: np.ndarray, n: int, n_rows: int) -> Csr:
    """CSR of the sorted packed keys row * n + col."""
    rows = keys // n
    return _csr(rows, keys - rows * n, n_rows)


def _pairs_within(groups: Csr, n: int) -> Csr:
    """The relation on 0..n-1 joining distinct members of a common group."""
    indptr, members = groups
    if row_lengths(indptr).max(initial=0) < 2:  # most calls: no group joins two
        return _empty_csr(n)
    pos, b = _expand(groups, row_ids(indptr))
    a = members[pos]
    keys, _ = _runs((a * n + b)[a != b])
    return _from_keys(keys, n, n)


def _csr_rows(csr: Csr, row=tuple) -> list:
    """Every row of a CSR, as a `row` of Python ints."""
    indptr, indices = csr
    flat, bounds = indices.tolist(), indptr.tolist()
    return [row(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def padded_rows(csr: Csr, width: int | None = None) -> np.ndarray:
    """The rows of a CSR as an (n, width) matrix, padded with -1 on the right;
    width defaults to the longest row."""
    indptr, indices = csr
    lengths = row_lengths(indptr)
    if width is None:
        width = int(lengths.max(initial=0))
    mat = np.full((len(lengths), width), -1, dtype=np.int64)
    mat[np.arange(width) < lengths[:, None]] = indices
    return mat


class CombinatorialComplex:
    """Validated complex with lazily cached neighborhood structure.

    Each skeleton is stored as a CSR pair of int64 arrays ``(indptr, verts)``:
    cell i of rank r has the vertices ``verts[indptr[i]:indptr[i + 1]]``,
    strictly increasing, and the cells are in lexicographic order.  Every
    index used by matrices, graphs and colorings derives from that order, so
    all outputs are deterministic.  Neighborhoods are CSR arrays too
    (:meth:`neighbor_csr`).  The tuple forms (:attr:`skeletons`, :meth:`cells`,
    :meth:`neighbor_lists`, :meth:`cell_position`) are cached views built
    only when a caller asks; no constructor keeps them.  All arrays are
    read-only, since several callers may share one complex.  Use
    :func:`build_cc` instead of calling this directly.
    """

    __slots__ = (
        "num_nodes",
        "dimension",
        "_cells",
        "_skeletons",
        "_index",
        "_csr_cache",
        "_lists_cache",
        "_traces",
        "_components",
        "__weakref__",
    )

    def __init__(self, num_nodes: int, cells: tuple[Csr, ...]):
        self.num_nodes = num_nodes
        self.dimension = len(cells) - 1
        self._cells = tuple(_frozen(*csr) for csr in cells)
        self._skeletons: tuple[tuple[Verts, ...], ...] | None = None
        self._index: dict[tuple[Verts, int], int] | None = None
        self._csr_cache: dict[NeighborhoodSpec, Csr] = {}
        self._lists_cache: dict[NeighborhoodSpec, list[tuple[int, ...]]] = {}
        # refinement traces by stages tuple; see cckit.refinement.distinguish
        self._traces: dict = {}
        # node component labels and component signature; see cckit.iso
        self._components: tuple[np.ndarray, bytes] | None = None

    # -- basic queries -------------------------------------------------------

    @property
    def skeletons(self) -> tuple[tuple[Verts, ...], ...]:
        """Vertex tuples per rank, in skeleton order."""
        if self._skeletons is None:
            self._skeletons = tuple(tuple(_csr_rows(csr)) for csr in self._cells)
        return self._skeletons

    def skeleton_arrays(self, rank: int) -> Csr:
        """(indptr, verts) of the rank-`rank` skeleton; empty beyond the dimension."""
        if 0 <= rank <= self.dimension:
            return self._cells[rank]
        return _empty_csr(0)

    def skeleton_sizes(self) -> tuple[int, ...]:
        return tuple(len(indptr) - 1 for indptr, _ in self._cells)

    def skeleton_size(self, rank: int) -> int:
        """Number of rank-`rank` cells; 0 beyond the dimension."""
        return len(self.skeleton_arrays(rank)[0]) - 1

    def num_cells(self) -> int:
        return sum(self.skeleton_sizes())

    def cells(self, rank: int) -> tuple[Verts, ...]:
        if 0 <= rank <= self.dimension:
            return self.skeletons[rank]
        return ()

    def _positions(self) -> dict[tuple[Verts, int], int]:
        if self._index is None:
            self._index = {
                (verts, r): i for r, sk in enumerate(self.skeletons) for i, verts in enumerate(sk)
            }
        return self._index

    def has_cell(self, verts: Verts, rank: int) -> bool:
        return (verts, rank) in self._positions()

    def cell_position(self, verts: Verts, rank: int) -> int:
        try:
            return self._positions()[(verts, rank)]
        except KeyError:
            raise UnknownCell(f"no rank-{rank} cell {verts}") from None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CombinatorialComplex)
            and self.num_nodes == other.num_nodes
            and self.dimension == other.dimension
            and all(
                np.array_equal(a, b)
                for mine, theirs in zip(self._cells, other._cells)
                for a, b in zip(mine, theirs)
            )
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, *(a.tobytes() for csr in self._cells for a in csr)))

    def __repr__(self) -> str:
        return f"CombinatorialComplex(n0={self.num_nodes}, sizes={self.skeleton_sizes()})"

    # -- neighborhood functions ------------------------------------------------

    def neighbor_csr(self, spec: NeighborhoodSpec) -> Csr:
        """(indptr, indices) of every rank-r1 cell's neighborhood, sorted per row.

        Indices refer to the target skeleton (r1 for (co)adjacency, r2 for
        incidence).  Everything derives from one count per rank pair a <= b:
        the vertices each a-cell shares with each b-cell (:meth:`_fill_shared`).
        A count equal to the a-cell's size is incidence-up from a to b, one
        equal to the b-cell's size incidence-up from b to a, and for a = b any
        count between distinct cells is co-adjacency over rank 0.
        Incidence-down is the transpose of incidence-up, except into rank 0:
        the rank-0 cells inside a cell are its vertices, so that CSR is the
        skeleton's own.  Adjacency joins two
        r1-cells inside a common r2-cell and co-adjacency two r1-cells over a
        common r2-cell.  Cached per spec.
        """
        csr = self._csr_cache.get(spec)
        if csr is None:
            csr = self._compute_csr(spec)
            self._csr_cache[spec] = csr
        return csr

    def _compute_csr(self, spec: NeighborhoodSpec) -> Csr:
        r1, r2 = spec.r1, spec.r2
        n1 = self.skeleton_size(r1)
        if n1 == 0 or not 0 <= r2 <= self.dimension:
            return _empty_csr(n1)
        if spec.kind is NeighborhoodKind.INCIDENCE_UP:
            self._fill_shared(min(r1, r2), max(r1, r2))
            return self._csr_cache[spec]
        if spec.kind is NeighborhoodKind.INCIDENCE_DOWN:
            if r2 == 0:
                return self._cells[r1]
            return _transpose(self.neighbor_csr(incidence_up(r2, r1)), n1)
        if spec.kind is NeighborhoodKind.ADJACENCY:
            return _pairs_within(self.neighbor_csr(incidence_down(r2, r1)), n1)
        if r2 == 0:
            if r1 == 0:  # distinct nodes share no vertex
                return _empty_csr(n1)
            self._fill_shared(r1, r1)
            return self._csr_cache[spec]
        return _pairs_within(self.neighbor_csr(incidence_up(r2, r1)), n1)

    def _fill_shared(self, a: int, b: int) -> None:
        """Cache incidence-up both ways between ranks a <= b (co-adjacency
        over rank 0 when 0 < a = b), from one count of the vertices each
        a-cell x shares with each b-cell y."""
        ptr_b, verts_b = self._cells[b]
        n_a, n_b = self.skeleton_size(a), self.skeleton_size(b)
        cache = self._csr_cache
        if a == 0:  # node v is the rank-0 cell v, inside every cell holding v
            cache.setdefault(incidence_up(0, b), _transpose((ptr_b, verts_b), self.num_nodes))
            if b > 0:  # a b-cell lies inside node v only as the singleton {v}
                single = np.flatnonzero(row_lengths(ptr_b) == 1)
                cache.setdefault(incidence_up(b, 0), _csr(single, verts_b[ptr_b[single]], n_b))
            return
        ptr_a, verts_a = self._cells[a]
        # every (x, y) with y holding some vertex of x, once per shared vertex
        pos, y = _expand(self.neighbor_csr(incidence_up(0, b)), verts_a)
        keys, shared = _runs(row_ids(ptr_a)[pos] * n_b + y)
        x = keys // n_b
        y = keys - x * n_b
        inside = shared == row_lengths(ptr_a)[x]
        cache.setdefault(incidence_up(a, b), _csr(x[inside], y[inside], n_a))
        if a == b:
            apart = x != y
            cache.setdefault(co_adjacency(a, 0), _csr(x[apart], y[apart], n_a))
        else:
            holds = shared == row_lengths(ptr_b)[y]
            down = _from_keys(np.sort(y[holds] * n_a + x[holds]), n_a, n_b)
            cache.setdefault(incidence_up(b, a), down)

    def neighbor_lists(self, spec: NeighborhoodSpec) -> list[tuple[int, ...]]:
        """Neighborhood of every cell in skeleton r1, as sorted index tuples:
        a cached view of :meth:`neighbor_csr`."""
        lists = self._lists_cache.get(spec)
        if lists is None:
            lists = _csr_rows(self.neighbor_csr(spec))
            self._lists_cache[spec] = lists
        return lists

    def contains_lists(self, r_sub: int, r_sup: int) -> list[tuple[int, ...]]:
        """For each cell in skeleton r_sub, the r_sup cells containing it.

        Containment is vertex-set inclusion (equality counts).
        """
        return self.neighbor_lists(incidence_up(r_sub, r_sup))

    def contained_lists(self, r_sup: int, r_sub: int) -> list[tuple[int, ...]]:
        """For each cell in skeleton r_sup, the r_sub cells it contains."""
        return self.neighbor_lists(incidence_down(r_sup, r_sub))


# -- construction ---------------------------------------------------------------


def build_cc(
    raw_cells: Iterable[tuple[Iterable[int], int]],
    num_nodes: int,
) -> CombinatorialComplex:
    """Validate and canonicalize a cell list into a complex.

    Rank-0 singletons are inserted automatically when missing.  Cells are
    deduplicated vertex-wise, sorted lexicographically within each skeleton.
    This is the one entry point for cells from outside the library.

    Raises EmptyCell, OutOfRangeNode, DuplicateCell, or RankViolation.
    """
    _singletons(num_nodes)  # node-count errors come before cell errors
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

    skeletons: list[list[Verts]] = [[] for _ in range(max_rank + 1)]
    for verts, rank in seen:
        skeletons[rank].append(verts)
    # rank 0 is every singleton, whichever of them the input listed
    return _from_skeletons(num_nodes, [sorted(sk) for sk in skeletons[1:]])


def from_uniform_rows(num_nodes: int, rows_by_rank: Sequence[np.ndarray]) -> CombinatorialComplex:
    """Complex from one (cells, width) int array per rank 1, 2, ...

    Each row lists the distinct in-range vertices of one cell in any order,
    and no cell repeats within a rank; the array-built generators
    (`generators._grid_complex`, behind `torus`, `cylinder` and `moebius`)
    guarantee that by construction.  Rows are sorted and put in canonical
    order here, and rank monotonicity is checked as in :func:`build_cc`.
    """
    skeletons = []
    for rows in rows_by_rank:
        rows = np.sort(np.asarray(rows, dtype=np.int64), axis=1)
        rows = rows[np.lexsort(rows.T[::-1])]
        n, width = rows.shape
        skeletons.append((np.arange(0, n * width + 1, width, dtype=np.int64), rows.ravel()))
    return _from_skeletons(num_nodes, skeletons)


def _singletons(num_nodes: int) -> Csr:
    """The rank-0 skeleton, every node once, after the node-count checks
    that every constructor shares.

    A count numpy refuses to allocate is OutOfRangeNode too: numpy raises
    ValueError or MemoryError (OverflowError in older releases) for an
    impossible size before it touches memory.
    """
    if num_nodes < 1:
        raise OutOfRangeNode("a complex needs at least one node")
    if num_nodes >= 2**63:  # node ids are int64
        raise OutOfRangeNode(f"num_nodes {num_nodes} does not fit int64 node ids")
    try:
        indptr = np.arange(num_nodes + 1, dtype=np.int64)
        if len(indptr) != num_nodes + 1:  # np.arange sizes in floating point: [] near 2**63
            raise MemoryError
    except (ValueError, MemoryError, OverflowError):
        raise OutOfRangeNode(f"cannot allocate {num_nodes} nodes") from None
    return indptr, indptr[:-1]


def _from_skeletons(num_nodes: int, skeletons: Sequence[Csr | list[Verts]]) -> CombinatorialComplex:
    """The complex of canonical skeletons of ranks 1, 2, ...: the entry every
    constructor ends in.  A skeleton is a list of canonical rows (strictly
    increasing, in-range vertex tuples, distinct and in lexicographic order)
    or those rows as a CSR pair.  Rank 0 is every singleton
    (:func:`_singletons`), trailing empty ranks are dropped, and rank
    monotonicity, the one check canonical cells do not carry by
    construction, runs last.

    Callers: :func:`build_cc` once its per-cell checks pass,
    :func:`from_uniform_rows`, :func:`graph_as_cc`, `lifting.cyclic_lift`
    (so `triangular_lift`) and `lifting.mog_pool`.  Disjoint unions and
    component splits slice complexes that passed through here.
    """
    cells = [_singletons(num_nodes)]
    for rows in skeletons:
        if isinstance(rows, list):
            lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
            indptr = np.concatenate(([0], np.cumsum(lengths)))
            rows = indptr, np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1]))
        cells.append(rows)
    while len(cells) > 1 and len(cells[-1][0]) == 1:
        cells.pop()
    cc = CombinatorialComplex(num_nodes, tuple(cells))
    _check_rank_monotonicity(cc)
    return cc


def _check_rank_monotonicity(cc: CombinatorialComplex) -> None:
    """Strict inclusion must not decrease rank (equal vertex sets exempt).

    A higher-rank cell x inside a lower-rank cell y is strict exactly when
    |x| < |y|, so rank pairs whose sizes rule that out are skipped unjoined.
    """
    lengths = [row_lengths(indptr) for indptr, _ in cc._cells]
    for r_low in range(cc.dimension + 1):
        for r_high in range(r_low + 1, cc.dimension + 1):
            low, high = lengths[r_low], lengths[r_high]
            if not len(low) or not len(high) or high.min() >= low.max():
                continue
            indptr, sups = cc.neighbor_csr(incidence_up(r_high, r_low))
            subs = row_ids(indptr)
            strict = np.flatnonzero(high[subs] < low[sups])
            if strict.size:
                i, j = subs[strict[0]], sups[strict[0]]
                raise RankViolation(
                    f"rank-{r_high} cell {cell_verts(cc, r_high, i)} is contained in "
                    f"rank-{r_low} cell {cell_verts(cc, r_low, j)}"
                )


def graph_as_cc(g: SimpleGraph) -> CombinatorialComplex:
    """View a graph as a complex: nodes at rank 0, edges at rank 1."""
    return _from_skeletons(g.num_nodes, [g.sorted_edges()])


# -- per-cell operations -----------------------------------------------------------


def cell_verts(cc: CombinatorialComplex, rank: int, i: int) -> Verts:
    """Vertices of cell i of the rank-`rank` skeleton, for messages and
    reports: sliced from the arrays, with no tuple view built or cached."""
    indptr, verts = cc.skeleton_arrays(rank)
    return tuple(verts[indptr[i] : indptr[i + 1]].tolist())


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
    indptr, indices = cc.neighbor_csr(spec)
    entries = frozenset(zip(row_ids(indptr).tolist(), indices.tolist()))
    return SparseBinaryMatrix(len(indptr) - 1, cc.skeleton_size(spec.target_rank), entries)


def augmented_hasse_graph(cc: CombinatorialComplex, spec: NeighborhoodSpec) -> SimpleGraph:
    """Graph on skeleton r1 with edges given by a (co)adjacency function."""
    if not spec.is_adjacency_like:
        raise WrongKind(f"augmented Hasse graph needs (co)adjacency, got {spec}")
    indptr, nbrs = cc.neighbor_csr(spec)
    rows = row_ids(indptr)
    once = rows < nbrs  # the relation is symmetric: keep each edge once
    return SimpleGraph(len(indptr) - 1, frozenset(zip(rows[once].tolist(), nbrs[once].tolist())))


def hasse_edges(cc: CombinatorialComplex) -> tuple[np.ndarray, np.ndarray]:
    """Codimension-1 inclusions as (lower, upper) cell ids, numbering all
    cells rank by rank."""
    offsets = np.cumsum((0,) + cc.skeleton_sizes())
    lower, upper = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for r in range(1, cc.dimension + 1):
        indptr, subs = cc.neighbor_csr(incidence_down(r, r - 1))
        lower.append(offsets[r - 1] + subs)
        upper.append(offsets[r] + row_ids(indptr))
    return np.concatenate(lower), np.concatenate(upper)


def hasse_graph(cc: CombinatorialComplex) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Graph on all cells with codimension-1 inclusion edges, plus rank labels.

    Node order concatenates the skeletons rank by rank.
    """
    lower, upper = hasse_edges(cc)
    sizes = cc.skeleton_sizes()
    ranks = tuple(np.repeat(np.arange(len(sizes)), sizes).tolist())
    return SimpleGraph(len(ranks), frozenset(zip(lower.tolist(), upper.tolist()))), ranks


def disjoint_union(a: CombinatorialComplex, b: CombinatorialComplex) -> CombinatorialComplex:
    """Concatenate two complexes, shifting b's node ids past a's."""
    return disjoint_union_all([a, b])


def disjoint_union_all(parts: Sequence[CombinatorialComplex]) -> CombinatorialComplex:
    """Concatenate complexes, shifting each part's node ids past the previous ones.

    Works on the skeleton arrays: every cell of a later part starts with a
    larger node id, so concatenating the skeletons keeps them in canonical
    order, and no cell of one part contains a cell of another.
    """
    if not parts:
        raise EmptyCell("disjoint union of nothing")
    if len(parts) == 1:
        return parts[0]
    shifts = np.cumsum([0] + [p.num_nodes for p in parts])
    cells = []
    for r in range(max(p.dimension for p in parts) + 1):
        arrays = [p.skeleton_arrays(r) for p in parts]
        ends = np.cumsum([0] + [int(indptr[-1]) for indptr, _ in arrays])
        indptr = np.concatenate([[0]] + [ptr[1:] + e for (ptr, _), e in zip(arrays, ends)])
        verts = np.concatenate([v + s for (_, v), s in zip(arrays, shifts)])
        cells.append((indptr, verts))
    return CombinatorialComplex(int(shifts[-1]), tuple(cells))


# -- serialization ---------------------------------------------------------------


def encode_json(cc: CombinatorialComplex) -> bytes:
    """Canonical UTF-8 JSON: dimension, num_nodes, cells per rank."""
    return json.dumps(_cc_to_doc(cc), separators=(",", ":")).encode("utf-8")


def _cc_to_doc(cc: CombinatorialComplex) -> dict:
    """The JSON document of a complex, as :func:`encode_json` writes it."""
    return {
        "dimension": cc.dimension,
        "num_nodes": cc.num_nodes,
        "cells": [_csr_rows(csr, list) for csr in cc._cells],
    }


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass in Python but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def decode_json(data: bytes | str) -> CombinatorialComplex:
    """Parse the CC JSON format; inverse of :func:`encode_json`.

    The rank-0 entry may be null or empty (singletons are implied).
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _cc_from_doc(doc)


def _cc_from_doc(doc, name: str = "top-level JSON value") -> CombinatorialComplex:
    """The complex of a parsed JSON document (see :func:`decode_json`); `name`
    says in errors which document of the input it is."""
    if not isinstance(doc, dict):
        raise ParseError(f"{name} must be an object")
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
    """Exactly one edge-list block; raises the first block's ParseError."""
    graphs = parse_edge_list_blocks(text)
    for item in graphs:
        if isinstance(item, ParseError):
            raise item
    if len(graphs) != 1:
        raise ParseError(f"expected exactly one graph, found {len(graphs)}")
    return graphs[0]


def parse_edge_list_blocks(text: str) -> list["SimpleGraph | ParseError"]:
    """Lenient block-wise parse: a graph or a ParseError per framed block, in
    order.

    Each block is an 'n m' header and m edge lines; blank lines and '#'
    comments are skipped.  An error inside a block keeps the frame, so the
    scan resumes at the next header; a header that is not two integers, or
    claims more lines than remain, ends the scan.
    """
    lines = [
        (lineno, tokens)
        for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1)
        if tokens and not tokens[0].startswith("#")
    ]
    out: list[SimpleGraph | ParseError] = []
    pos = 0
    while pos < len(lines):
        lineno, header = lines[pos]
        try:
            n, m = _int_row(lineno, header, "header 'n m'")
            if m < 0 or pos + 1 + m > len(lines):
                raise ParseError(f"line {lineno}: header 'n m' = {n} {m} inconsistent with input")
        except ParseError as exc:
            out.append(exc)
            break
        block, pos = lines[pos + 1 : pos + 1 + m], pos + 1 + m
        try:
            out.append(_edge_block(lineno, n, block))
        except ParseError as exc:
            out.append(exc)
    return out


def _int_row(lineno: int, tokens: list[str], what: str) -> tuple[int, int]:
    try:
        a, b = (int(tok) for tok in tokens)
    except ValueError:
        raise ParseError(f"line {lineno}: expected {what}, got {' '.join(tokens)!r}") from None
    return a, b


def _edge_block(lineno: int, n: int, lines: list[tuple[int, list[str]]]) -> SimpleGraph:
    if n < 0:
        raise ParseError(f"line {lineno}: header 'n m' = {n} {len(lines)} inconsistent with input")
    if n >= 2**63:  # node ids are int64
        raise ParseError(f"line {lineno}: node count {n} does not fit int64 node ids")
    edges = []
    for edge_lineno, tokens in lines:
        u, v = _int_row(edge_lineno, tokens, "edge 'u v'")
        if u == v:
            raise ParseError(f"line {edge_lineno}: self-loop {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {edge_lineno}: edge {u} {v} outside 0..{n - 1}")
        edges.append((u, v))
    g = SimpleGraph.from_edges(n, edges)
    if len(g.edges) != len(lines):
        raise ParseError(f"line {lineno}: duplicate edges in block")
    return g
