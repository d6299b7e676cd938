"""Constructors for the complex and graph families used by the benchmarks.

Product-style constructions flatten coordinate tuples to integer node ids in
row-major order; covering maps (see :mod:`cckit.covering`) rely on that
convention.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import product

import numpy as np

from .complex import CombinatorialComplex, SimpleGraph, Verts, build_cc, from_uniform_rows
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
        cc = _build_torus(params)
        _TORI[params.periods] = cc
    return cc


def _build_torus(params: TorusParams) -> CombinatorialComplex:
    ps = params.periods
    coords = np.unravel_index(np.arange(params.num_nodes), ps)
    rows_by_rank: list[list[np.ndarray]] = [[] for _ in ps]
    for k in product((0, 1), repeat=len(ps)):
        if any(k):
            members = [
                np.ravel_multi_index(tuple((c + d) % p for c, d, p in zip(coords, kp, ps)), ps)
                for kp in product(*(range(x + 1) for x in k))
            ]
            rows_by_rank[sum(k) - 1].append(np.column_stack(members))
    return from_uniform_rows(params.num_nodes, [np.vstack(rows) for rows in rows_by_rank])


def _rho_cyl(s: tuple[int, int], h: int, p: int) -> tuple[int, int] | None:
    """Wrap the periodic coordinate; None when the height coordinate escapes."""
    if not 0 <= s[0] < h:
        return None
    return (s[0], s[1] % p)


def _rho_moeb(s: tuple[int, int], h: int, p: int) -> tuple[int, int] | None:
    """Moebius gluing: crossing the seam flips the height coordinate."""
    if not 0 <= s[0] < h:
        return None
    t = s[1] % (2 * p)
    if t < p:
        return (s[0], t)
    return (h - 1 - s[0], t - p)


def _strip(params: StripParams, rho) -> CombinatorialComplex:
    h, p = params.height, params.perimeter
    cells: list[tuple[Verts, int]] = []
    for s in product(range(h), range(p)):
        for k in ((0, 1), (1, 0), (1, 1)):
            if rho((s[0] + k[0], s[1] + k[1]), h, p) is None:
                continue
            members = set()
            for kp in product(range(k[0] + 1), range(k[1] + 1)):
                img = rho((s[0] + kp[0], s[1] + kp[1]), h, p)
                members.add(img[0] * p + img[1])
            cells.append((tuple(sorted(members)), k[0] + k[1]))
    return build_cc(cells, h * p)


def cylinder(params: StripParams | tuple[int, int]) -> CombinatorialComplex:
    """Grid of h x p quads closed along the second coordinate."""
    if not isinstance(params, StripParams):
        params = StripParams(*params)
    return _strip(params, _rho_cyl)


def moebius(params: StripParams | tuple[int, int]) -> CombinatorialComplex:
    """Same grid as the cylinder, glued with a height flip across the seam."""
    if not isinstance(params, StripParams):
        params = StripParams(*params)
    return _strip(params, _rho_moeb)


def strip_node(i: int, j: int, perimeter: int) -> int:
    """Node id of grid coordinate (i, j) in cylinder/moebius complexes."""
    return i * perimeter + j


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
