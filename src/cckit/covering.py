"""Covering maps between complexes: representation, verification, constructions.

A covering map is a surjective rank-preserving cell map that restricts to a
bijection between N(x) and N(rho(x)) for every cell x and every natural
neighborhood function N.  Complexes related this way are indistinguishable by
any message-passing refinement with uniform initial colors, which is what the
certificates produced here witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .complex import (
    CombinatorialComplex,
    NeighborhoodSpec,
    Verts,
    natural_specs,
)
from .errors import (
    DimensionMismatch,
    MapNotWellDefined,
    NotDivisible,
    PeriodTooSmall,
)
from .generators import StripParams, TorusParams, cylinder, moebius, torus


@dataclass(frozen=True)
class CellMap:
    """Total rank-preserving map between the cells of two complexes.

    assignment[r][i] is the target-skeleton index of the image of source cell
    i at rank r.
    """

    source: CombinatorialComplex
    target: CombinatorialComplex
    assignment: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != self.source.dimension + 1:
            raise MapNotWellDefined("assignment must cover every source rank")
        for r, row in enumerate(self.assignment):
            if len(row) != len(self.source.skeletons[r]):
                raise MapNotWellDefined(f"assignment at rank {r} is not total")
            n_t = len(self.target.cells(r))
            for j in row:
                if not 0 <= j < n_t:
                    raise MapNotWellDefined(
                        f"rank-{r} image index {j} outside target skeleton"
                    )

    def image_verts(self, rank: int, index: int) -> Verts:
        return self.target.skeletons[rank][self.assignment[rank][index]]


def cell_map_from_node_map(
    source: CombinatorialComplex,
    target: CombinatorialComplex,
    node_image: list[int],
) -> CellMap:
    """Extend a node-level map cell-wise; every image set must be a target cell."""
    if len(node_image) != source.num_nodes:
        raise MapNotWellDefined("node map must cover every source node")
    assignment = []
    for r in range(source.dimension + 1):
        row = []
        for verts in source.skeletons[r]:
            img = tuple(sorted({node_image[v] for v in verts}))
            if not target.has_cell(img, r):
                raise MapNotWellDefined(
                    f"image {img} of rank-{r} cell {verts} is not a target cell"
                )
            row.append(target.cell_position(img, r))
        assignment.append(tuple(row))
    return CellMap(source, target, tuple(assignment))


@dataclass(frozen=True)
class CoveringViolation:
    """First failure found by verify_covering, with both neighbor sets."""

    reason: str
    cell_rank: int | None = None
    cell: Verts | None = None
    spec: NeighborhoodSpec | None = None
    source_neighbors: tuple[Verts, ...] = ()
    target_neighbors: tuple[Verts, ...] = ()

    def __str__(self) -> str:
        loc = ""
        if self.cell is not None:
            loc = f" at rank-{self.cell_rank} cell {self.cell}"
            if self.spec is not None:
                loc += f" under {self.spec}"
        return f"{self.reason}{loc}"


def _spec_first_failure(m: CellMap, spec: NeighborhoodSpec) -> int | None:
    """Index of the first source cell whose neighborhood is not mapped
    bijectively onto its image's neighborhood, or None if the spec passes.

    Vectorized: sorted images of each neighbor list must equal the target's
    (strictly increasing) neighbor list, which also forces injectivity.
    """
    src, tgt = m.source, m.target
    rank, tr = spec.r1, spec.target_rank
    indptr_s, indices_s = src.neighbor_csr(spec)
    indptr_t, indices_t = tgt.neighbor_csr(spec)
    n1 = len(indptr_s) - 1
    if n1 == 0:
        return None
    rho1 = np.asarray(m.assignment[rank], dtype=np.int64)
    deg_s = np.diff(indptr_s)
    deg_t = np.diff(indptr_t)
    bad_deg = np.nonzero(deg_s != deg_t[rho1])[0]
    if bad_deg.size:
        return int(bad_deg[0])
    total = int(deg_s.sum())
    if total == 0:
        return None
    rho_t = np.asarray(m.assignment[tr], dtype=np.int64)
    images = rho_t[indices_s]
    rows = np.repeat(np.arange(n1), deg_s)
    order = np.lexsort((images, rows))
    sorted_images = images[order]
    out_ptr = indptr_s
    starts = indptr_t[rho1]
    flat_pos = np.arange(total) - np.repeat(out_ptr[:-1], deg_s) + np.repeat(starts, deg_s)
    expected = indices_t[flat_pos]
    mismatch = np.nonzero(sorted_images != expected)[0]
    if mismatch.size:
        return int(rows[order[mismatch[0]]])
    return None


def verify_covering(m: CellMap) -> CoveringViolation | None:
    """Check the covering conditions; None means the map is a covering.

    Surjectivity per skeleton first, then local bijectivity of every natural
    neighborhood of every source cell; the first failing (cell, spec) in
    skeleton-then-spec order is reported.
    """
    src, tgt = m.source, m.target
    if src.dimension != tgt.dimension:
        raise DimensionMismatch(
            f"source dimension {src.dimension} != target dimension {tgt.dimension}"
        )
    for r in range(tgt.dimension + 1):
        hit = set(m.assignment[r])
        if len(hit) != len(tgt.skeletons[r]):
            missing = next(
                j for j in range(len(tgt.skeletons[r])) if j not in hit
            )
            return CoveringViolation(
                reason=f"not surjective onto skeleton {r}: "
                f"cell {tgt.skeletons[r][missing]} has empty fiber",
            )
    specs = natural_specs(src.dimension)
    for rank in range(src.dimension + 1):
        rank_specs = [s for s in specs if s.r1 == rank]
        first: tuple[int, int] | None = None  # (cell index, spec position)
        for pos, spec in enumerate(rank_specs):
            cell = _spec_first_failure(m, spec)
            if cell is not None and (first is None or (cell, pos) < first):
                first = (cell, pos)
        if first is not None:
            i, pos = first
            spec = rank_specs[pos]
            tr = spec.target_rank
            nbrs = src.neighbor_lists(spec)[i]
            expected = tgt.neighbor_lists(spec)[m.assignment[rank][i]]
            return CoveringViolation(
                reason="neighborhood does not map bijectively",
                cell_rank=rank,
                cell=src.skeletons[rank][i],
                spec=spec,
                source_neighbors=tuple(src.skeletons[tr][j] for j in nbrs),
                target_neighbors=tuple(tgt.skeletons[tr][j] for j in expected),
            )
    return None


def fiber_sizes(m: CellMap, rank: int) -> list[int]:
    """Number of source cells over each target cell of the given rank."""
    counts = [0] * len(m.target.cells(rank))
    for j in m.assignment[rank]:
        counts[j] += 1
    return counts


def torus_mod_cover(big: TorusParams | tuple, small: TorusParams | tuple) -> CellMap:
    """Coordinatewise mod map between tori with divisible periods."""
    if not isinstance(big, TorusParams):
        big = TorusParams(tuple(big))
    if not isinstance(small, TorusParams):
        small = TorusParams(tuple(small))
    if len(big.periods) != len(small.periods):
        raise NotDivisible("tori must have the same dimension")
    for bp, sp in zip(big.periods, small.periods):
        if bp % sp != 0:
            raise NotDivisible(f"period {bp} not divisible by {sp}")
    return _mod_map_onto(torus(big), big, small)


def strip_covers(h: int, p: int) -> tuple[CombinatorialComplex, CellMap, CellMap]:
    """The double-perimeter cylinder with its wrap and twist-wrap quotient maps."""
    if h < 3 or p < 3:
        raise PeriodTooSmall(f"strip covers need h, p >= 3, got ({h}, {p})")
    params = StripParams(h, p)
    cover = cylinder(StripParams(h, 2 * p))
    cyl = cylinder(params)
    moeb = moebius(params)

    to_cyl_nodes = []
    to_moeb_nodes = []
    for i in range(h):
        for j in range(2 * p):
            to_cyl_nodes.append(i * p + (j % p))
            if j < p:
                to_moeb_nodes.append(i * p + j)
            else:
                to_moeb_nodes.append((h - 1 - i) * p + (j - p))
    to_cyl = cell_map_from_node_map(cover, cyl, to_cyl_nodes)
    to_moeb = cell_map_from_node_map(cover, moeb, to_moeb_nodes)
    return cover, to_cyl, to_moeb


@dataclass(frozen=True)
class CoverCertificate:
    """One complex covering every connected component of two equal-node complexes."""

    cover: CombinatorialComplex
    left_maps: tuple[CellMap, ...]
    right_maps: tuple[CellMap, ...]
    node_counts: tuple[int, int]

    def __post_init__(self) -> None:
        if self.node_counts[0] != self.node_counts[1]:
            raise MapNotWellDefined(
                f"certificate requires equal node counts, got {self.node_counts}"
            )

    def verify(self) -> CoveringViolation | None:
        for m in self.left_maps + self.right_maps:
            violation = verify_covering(m)
            if violation is not None:
                return violation
        return None


def torus_union_certificate(
    a: list[TorusParams | tuple[int, int]],
    b: list[TorusParams | tuple[int, int]],
) -> CoverCertificate | None:
    """Common cover for two disjoint unions of 2-dimensional tori.

    Uses the torus whose periods are the coordinatewise lcms of all component
    periods; None when the unions differ in total node count (the covering
    criterion then does not apply).
    """
    a = [p if isinstance(p, TorusParams) else TorusParams(tuple(p)) for p in a]
    b = [p if isinstance(p, TorusParams) else TorusParams(tuple(p)) for p in b]
    for params in (*a, *b):
        if len(params.periods) != 2:
            raise NotDivisible("certificate construction expects 2-dimensional tori")
    n_a = sum(p.num_nodes for p in a)
    n_b = sum(p.num_nodes for p in b)
    if n_a != n_b:
        return None
    big = TorusParams(
        (
            lcm(*(p.periods[0] for p in (*a, *b))),
            lcm(*(p.periods[1] for p in (*a, *b))),
        )
    )
    cover = torus(big)
    left = tuple(_mod_map_onto(cover, big, comp) for comp in a)
    right = tuple(_mod_map_onto(cover, big, comp) for comp in b)
    return CoverCertificate(cover, left, right, (n_a, n_b))


def _mod_map_onto(
    cover: CombinatorialComplex, big: TorusParams, small: TorusParams
) -> CellMap:
    """The coordinatewise mod map from the torus `cover` (periods `big`)."""
    coords = np.unravel_index(np.arange(cover.num_nodes), big.periods)
    wrapped = tuple(c % p for c, p in zip(coords, small.periods))
    node_image = np.ravel_multi_index(wrapped, small.periods).tolist()
    return cell_map_from_node_map(cover, torus(small), node_image)
