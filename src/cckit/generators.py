"""Constructors for the complex and graph families used by the benchmarks.

Product-style constructions flatten coordinate tuples to integer node ids in
row-major order.  The grid complexes (tori, cylinders, Moebius strips) and
their covering maps (see :mod:`cckit.covering`) glue coordinates through one
helper, :func:`grid_nodes`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

# build_cc stays reachable as generators.build_cc: perfbench/tracing.py wraps that name
from .complex import CombinatorialComplex, SimpleGraph, build_cc, from_uniform_rows  # noqa: F401
from .complex import _singletons
from .errors import BadParams, PeriodTooSmall


@dataclass(frozen=True)
class TorusParams:
    """Periods of a discrete torus, one per dimension; each must be >= 3."""

    periods: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.periods:
            raise BadParams("torus needs at least one period")
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in self.periods):
            raise BadParams(f"torus periods must be integers, got {self.periods}")
        for p in self.periods:
            if p < 3:
                raise PeriodTooSmall(f"torus period {p} < 3")

    @property
    def num_nodes(self) -> int:
        n = 1
        for p in self.periods:
            n *= p
        return n


@dataclass(frozen=True)
class StripParams:
    """Height and perimeter of a cylinder / Moebius strip; both >= 3."""

    height: int
    perimeter: int

    def __post_init__(self) -> None:
        if self.height < 3 or self.perimeter < 3:
            raise PeriodTooSmall(
                f"strip needs height, perimeter >= 3, got ({self.height}, {self.perimeter})"
            )


# One complex per live period tuple: a complex is immutable and its caches are
# pure, so every caller holding a torus can share it with the next one.
_TORI: "weakref.WeakValueDictionary[tuple[int, ...], CombinatorialComplex]" = (
    weakref.WeakValueDictionary()
)


def torus(params: TorusParams | tuple[int, ...]) -> CombinatorialComplex:
    """Discrete torus: nodes Z_{p1} x ... x Z_{pl}, cells spanned by 0/1 offsets.

    The cell seeded at node s with offset pattern k collects every s+k' with
    k' <= k coordinatewise, wrapping each coordinate modulo its period; its
    rank is the number of ones in k.  Skeleton sizes are C(l, r) * prod(p_j).
    Nodes are numbered row-major.  While any caller holds the torus of some
    periods, every call with those periods returns that same object.
    """
    if not isinstance(params, TorusParams):
        params = TorusParams(tuple(params))
    cc = _TORI.get(params.periods)
    if cc is None:
        cc = _grid_complex(params.periods)
        _TORI[params.periods] = cc
    return cc


def grid_nodes(
    coords, shape: tuple[int, ...], strip: bool = False, twist: bool = False
) -> np.ndarray:
    """Row-major node ids of integer grid coordinates: the one gluing rule.

    Every axis wraps modulo its length, except that a strip (cylinder or
    Moebius, shape (h, p)) keeps its height axis open: a coordinate outside
    0..h-1 there gets -1.  With `twist`, each crossing of the seam of the
    periodic axis flips the height, i -> h-1-i.
    """
    if not strip:
        return np.ravel_multi_index(tuple(coords), shape, mode="wrap")
    (i, j), (h, p) = coords, shape
    if twist:
        i = np.where(j // p % 2 == 1, h - 1 - i, i)
    return np.where((i >= 0) & (i < h), i * p + j % p, -1)


def _grid_complex(
    shape: tuple[int, ...], strip: bool = False, twist: bool = False
) -> CombinatorialComplex:
    """Cells spanned by 0/1 offset patterns from every node, glued by grid_nodes.

    A strip's cells that leave the open axis are dropped.  The rows go to
    from_uniform_rows unchecked: every cell is generated once, from its lowest
    corner, and with every length >= 3 no two offsets of a cell glue to the
    same node, so rows are distinct and free of repeats (rank monotonicity is
    still checked there).
    """
    # the node ids, after the node-count checks every constructor shares
    coords = np.unravel_index(_singletons(prod(shape))[1], shape)
    rows_by_rank: list[list[np.ndarray]] = [[] for _ in shape]
    for k in product((0, 1), repeat=len(shape)):
        if any(k):
            rows = np.column_stack(
                [
                    grid_nodes([c + d for c, d in zip(coords, kp)], shape, strip, twist)
                    for kp in product(*(range(x + 1) for x in k))
                ]
            )
            if strip:
                rows = rows[(rows >= 0).all(axis=1)]
            rows_by_rank[sum(k) - 1].append(rows)
    return from_uniform_rows(prod(shape), [np.vstack(rows) for rows in rows_by_rank])


def cylinder(params: StripParams | tuple[int, int]) -> CombinatorialComplex:
    """Grid of h x p quads closed along the second coordinate."""
    if not isinstance(params, StripParams):
        params = StripParams(*params)
    return _grid_complex((params.height, params.perimeter), strip=True)


def moebius(params: StripParams | tuple[int, int]) -> CombinatorialComplex:
    """Same grid as the cylinder, glued with a height flip across the seam."""
    if not isinstance(params, StripParams):
        params = StripParams(*params)
    return _grid_complex((params.height, params.perimeter), strip=True, twist=True)


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise BadParams(f"cycle needs n >= 3, got {n}")
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int, k: int) -> SimpleGraph:
    """Cycle of length n*k with k spoke nodes, spoke i attached to a_{n*i}, a_{n*i+1}.

    Node ids: 0..n*k-1 are the cycle, n*k..n*k+k-1 the spokes.  Requires
    k >= 3 and n*k > 3 so the only triangles are spoke-cycle triangles.
    """
    if n < 1 or k < 3 or n * k <= 3:
        raise BadParams(f"star graph needs n >= 1, k >= 3, n*k > 3; got ({n}, {k})")
    m = n * k
    edges = [(i, (i + 1) % m) for i in range(m)]
    for i in range(k):
        b = m + i
        edges.append((b, (n * i) % m))
        edges.append((b, (n * i + 1) % m))
    return SimpleGraph.from_edges(m + k, edges)


def cartesian_product(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Graph Cartesian product on node pairs, flattened row-major."""
    n2 = g2.num_nodes

    def nid(u: int, v: int) -> int:
        return u * n2 + v

    edges = []
    for u in range(g1.num_nodes):
        for a, b in g2.edges:
            edges.append((nid(u, a), nid(u, b)))
    for v in range(n2):
        for a, b in g1.edges:
            edges.append((nid(a, v), nid(b, v)))
    return SimpleGraph.from_edges(g1.num_nodes * n2, edges)


def mog_example_pair() -> tuple[SimpleGraph, SimpleGraph]:
    """The fixed 6-node pooling counterexample pair.

    Both graphs partition into automorphism classes {0,1,4,5} and {2,3} and
    pool to 2-cells {0,1}, {2,3}, {4,5} under a fine average-distance cover;
    the left graph (two triangles joined by a bridge between the degree-3
    nodes) has node-to-2-cell eccentricity 3, the right one (two length-3
    paths plus an edge between the degree-3 nodes) has 2.  Tests assert all
    of these properties rather than assuming them.
    """
    left = SimpleGraph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    )
    right = SimpleGraph.from_edges(
        6, [(0, 1), (4, 5), (2, 3), (0, 2), (1, 3), (2, 4), (3, 5)]
    )
    return left, right
