"""Covering maps between complexes: representation, verification, constructions.

A covering map is a surjective rank-preserving cell map that restricts to a
bijection between N(x) and N(rho(x)) for every cell x and every natural
neighborhood function N.  Complexes related this way are indistinguishable by
any message-passing refinement with uniform initial colors, which is what the
certificates produced here witness.

An isomorphism is a bijective covering, so one first-failure loop serves
:func:`verify_covering` and :func:`check_isomorphism`.  For a map rho that is
a bijection on every rank, the incidence-up specs from rank 0 suffice.  Rank 0
holds every node as a singleton, and incidence_up(0, r) lists the rank-r cells
holding each vertex.  Suppose every such list maps bijectively onto its
image's.  A rank-r cell c with vertex set S then maps to a cell holding the
image of each vertex of S.  Conversely, each vertex w of rho(c) is rho(v) for
some vertex v, and w's list is the image of v's, so by injectivity on rank r
v's list holds c and v lies in S.  Hence rho(c) is the cell on the relabeled
vertex set, rho preserves containment both ways, and every other natural
neighborhood, being defined by containment, maps bijectively too.  A failing
map thus fails at rank 0, the rank the loop checks first, so it reports the
failure that all incidence-up specs would.

A map's covering verdict is computed once and kept on the map: its images and
both complexes are read-only.  The torus mod maps behind
:func:`torus_mod_cover` and :func:`torus_union_certificate` are shared per
(cover periods, component periods), so certificates with a common component
build and verify that map once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .complex import (
    CombinatorialComplex,
    NeighborhoodSpec,
    Verts,
    cell_verts,
    incidence_up,
    natural_specs,
    padded_rows,
    row_lengths,
)
from .errors import (
    DimensionMismatch,
    MapNotWellDefined,
    NotDivisible,
    PeriodTooSmall,
)
from .generators import StripParams, TorusParams, cylinder, grid_nodes, moebius, torus
from ._rowkeys import key_dtype, number_keys, store_keys


@dataclass(frozen=True)
class CellMap:
    """Total rank-preserving map between the cells of two complexes.

    assignment[r][i] is the target-skeleton index of the image of source cell
    i at rank r.  Rows may be given as any int sequences, arrays included;
    they are kept as tuples, and images[r] holds the same row as a read-only
    int64 array.
    """

    source: CombinatorialComplex
    target: CombinatorialComplex
    assignment: tuple[tuple[int, ...], ...]
    images: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    # (verify_covering's result,) once computed; the result may be None
    _verdict: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.assignment) != self.source.dimension + 1:
            raise MapNotWellDefined("assignment must cover every source rank")
        try:
            images = tuple(np.array(row, dtype=np.int64) for row in self.assignment)
        except OverflowError:
            raise MapNotWellDefined("assignment image index outside int64") from None
        for r, row in enumerate(images):
            if len(row) != self.source.skeleton_size(r):
                raise MapNotWellDefined(f"assignment at rank {r} is not total")
            outside = (row < 0) | (row >= self.target.skeleton_size(r))
            if outside.any():
                raise MapNotWellDefined(
                    f"rank-{r} image index {row[outside.argmax()]} outside target skeleton"
                )
            row.flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "assignment", tuple(tuple(row.tolist()) for row in images))


def cell_map_from_node_map(
    source: CombinatorialComplex,
    target: CombinatorialComplex,
    node_image: Sequence[int],
) -> CellMap:
    """Extend a node-level map cell-wise; every image set must be a target cell.

    Vectorized per rank: the padded vertex rows go through the node map, are
    sorted and de-duplicated within each row, then numbered jointly with the
    target rows in one key buffer (:func:`~cckit._rowkeys.number_keys`): an
    image row is target row j when it gets the id of row j, and no target cell
    when its id is no target row's.
    """
    node_image = np.asarray(node_image, dtype=np.int64)
    if node_image.shape != (source.num_nodes,):
        raise MapNotWellDefined("node map must cover every source node")
    outside = (node_image < 0) | (node_image >= target.num_nodes)
    if outside.any():
        raise MapNotWellDefined(
            f"node {outside.argmax()} maps to {node_image[outside.argmax()]}, "
            f"outside the target's nodes"
        )
    pad = target.num_nodes  # sorts after every node
    assignment = []
    for r in range(source.dimension + 1):
        rows = padded_rows(source.skeleton_arrays(r))
        if len(rows) == 0:
            assignment.append(np.zeros(0, dtype=np.int64))
            continue
        img = np.sort(np.where(rows >= 0, node_image[rows], pad), axis=1)
        img[:, 1:][img[:, 1:] == img[:, :-1]] = pad  # repeated images
        img = np.sort(img, axis=1)
        img[img == pad] = -1
        targets = padded_rows(target.skeleton_arrays(r))
        n = len(targets)
        width = max(img.shape[1], targets.shape[1])
        keys = np.zeros((n + len(img), width), dtype=key_dtype(target.num_nodes))
        store_keys(keys[:n, : targets.shape[1]], targets)
        store_keys(keys[n:, : img.shape[1]], img)
        ids, count, _ = number_keys(keys, False)
        cell_of = np.full(count, -1, dtype=np.int64)
        cell_of[ids[:n]] = np.arange(n)
        images = cell_of[ids[n:]]
        unmatched = np.flatnonzero(images < 0)
        if unmatched.size:
            i = unmatched[0]
            raise MapNotWellDefined(
                f"image {tuple(int(v) for v in img[i] if v >= 0)} of rank-{r} cell "
                f"{tuple(int(v) for v in rows[i] if v >= 0)} is not a target cell"
            )
        assignment.append(images)
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


def first_spec_failure(m: CellMap, spec: NeighborhoodSpec) -> int | None:
    """Index of the first source cell whose neighborhood is not mapped
    bijectively onto its image's neighborhood, or None if the spec passes.

    Vectorized: sorted images of each neighbor list must equal the target's
    (strictly increasing) neighbor list, which also forces injectivity.  Rows
    are compared up to the first one whose degree differs from its image's.
    """
    indptr_s, indices_s = m.source.neighbor_csr(spec)
    indptr_t, indices_t = m.target.neighbor_csr(spec)
    rho = m.images[spec.r1]
    if len(rho) == 0:
        return None
    starts = indptr_t[rho]
    deg_s = row_lengths(indptr_s)
    bad_deg = np.flatnonzero(deg_s != indptr_t[rho + 1] - starts)
    n1 = int(bad_deg[0]) if bad_deg.size else len(rho)
    total = int(indptr_s[n1])
    if total:
        rows = np.repeat(np.arange(n1), deg_s[:n1])
        # images sorted within each row: one sort of row-major packed keys
        width = m.target.skeleton_size(spec.target_rank)
        keys = rows * width + m.images[spec.target_rank][indices_s[:total]]
        keys.sort()
        expected = indices_t[np.arange(total) + (starts[:n1] - indptr_s[:n1])[rows]]
        mismatch = np.flatnonzero(keys - rows * width != expected)
        if mismatch.size:
            return int(rows[mismatch[0]])
    return n1 if n1 < len(rho) else None


def _first_failure(m: CellMap, specs: list[NeighborhoodSpec]):
    """First (cell index, spec) whose neighborhood is not mapped bijectively,
    in skeleton-then-spec order; None when every spec passes."""
    for rank in range(m.source.dimension + 1):
        rank_specs = [s for s in specs if s.r1 == rank]
        failures = [
            (cell, pos)
            for pos, spec in enumerate(rank_specs)
            if (cell := first_spec_failure(m, spec)) is not None
        ]
        if failures:
            cell, pos = min(failures)
            return cell, rank_specs[pos]
    return None


def verify_covering(m: CellMap) -> CoveringViolation | None:
    """Check the covering conditions; None means the map is a covering.

    Surjectivity per skeleton first, then local bijectivity of every natural
    neighborhood of every source cell; the first failing (cell, spec) in
    skeleton-then-spec order is reported.  The verdict is computed once per
    map and returned again on later calls.
    """
    src, tgt = m.source, m.target
    if src.dimension != tgt.dimension:
        raise DimensionMismatch(
            f"source dimension {src.dimension} != target dimension {tgt.dimension}"
        )
    if not m._verdict:
        object.__setattr__(m, "_verdict", (_covering_violation(m),))
    return m._verdict[0]


def _covering_violation(m: CellMap) -> CoveringViolation | None:
    src, tgt = m.source, m.target
    for r, n_t in enumerate(tgt.skeleton_sizes()):
        empty = np.flatnonzero(np.bincount(m.images[r], minlength=n_t) == 0)
        if empty.size:
            return CoveringViolation(
                reason=f"not surjective onto skeleton {r}: "
                f"cell {cell_verts(tgt, r, empty[0])} has empty fiber",
            )
    failure = _first_failure(m, natural_specs(src.dimension))
    if failure is None:
        return None
    i, spec = failure
    rank, tr, j = spec.r1, spec.target_rank, m.images[spec.r1][i]
    (ptr_s, nbrs), (ptr_t, expected) = src.neighbor_csr(spec), tgt.neighbor_csr(spec)
    return CoveringViolation(
        reason="neighborhood does not map bijectively",
        cell_rank=rank,
        cell=cell_verts(src, rank, i),
        spec=spec,
        source_neighbors=tuple(cell_verts(src, tr, x) for x in nbrs[ptr_s[i] : ptr_s[i + 1]]),
        target_neighbors=tuple(cell_verts(tgt, tr, x) for x in expected[ptr_t[j] : ptr_t[j + 1]]),
    )


def check_isomorphism(m: CellMap) -> str | None:
    """Verify a cell map is an isomorphism; returns the first violation or None.

    Dimension, then sizes and injectivity per rank, then the covering loop over
    the incidence-up specs from rank 0 alone (see the module docstring).
    """
    src, tgt = m.source, m.target
    if src.dimension != tgt.dimension:
        return f"dimension {src.dimension} != {tgt.dimension}"
    ranks = range(src.dimension + 1)
    for r in ranks:
        n_s, n_t = src.skeleton_size(r), tgt.skeleton_size(r)
        if n_s != n_t:
            return f"skeleton {r} sizes differ: {n_s} != {n_t}"
        if np.bincount(m.images[r], minlength=n_t).max(initial=1) > 1:
            return f"not injective on skeleton {r}"
    failure = _first_failure(m, [incidence_up(0, r) for r in ranks])
    if failure is None:
        return None
    i, spec = failure
    return (
        f"containment not preserved at rank-{spec.r1} cell "
        f"{cell_verts(src, spec.r1, i)} into rank {spec.r2}"
    )


def fiber_sizes(m: CellMap, rank: int) -> list[int]:
    """Number of source cells over each target cell of the given rank."""
    return np.bincount(m.images[rank], minlength=m.target.skeleton_size(rank)).tolist()


def torus_mod_cover(big: TorusParams | tuple, small: TorusParams | tuple) -> CellMap:
    """Coordinatewise mod map between tori with divisible periods.

    While any caller holds the map, a call with the same periods returns it.
    """
    if not isinstance(big, TorusParams):
        big = TorusParams(tuple(big))
    if not isinstance(small, TorusParams):
        small = TorusParams(tuple(small))
    if len(big.periods) != len(small.periods):
        raise NotDivisible("tori must have the same dimension")
    for bp, sp in zip(big.periods, small.periods):
        if bp % sp != 0:
            raise NotDivisible(f"period {bp} not divisible by {sp}")
    return _mod_map_onto(big, small)


def strip_covers(h: int, p: int) -> tuple[CombinatorialComplex, CellMap, CellMap]:
    """The double-perimeter cylinder with its wrap and twist-wrap quotient maps."""
    if h < 3 or p < 3:
        raise PeriodTooSmall(f"strip covers need h, p >= 3, got ({h}, {p})")
    params = StripParams(h, p)
    cover = cylinder(StripParams(h, 2 * p))
    cyl = cylinder(params)
    moeb = moebius(params)

    coords = np.unravel_index(np.arange(cover.num_nodes), (h, 2 * p))
    to_cyl = cell_map_from_node_map(cover, cyl, grid_nodes(coords, (h, p), strip=True))
    to_moeb = cell_map_from_node_map(
        cover, moeb, grid_nodes(coords, (h, p), strip=True, twist=True)
    )
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
    big = TorusParams(cover_periods(p.periods for p in (*a, *b)))
    left = tuple(_mod_map_onto(big, comp) for comp in a)
    right = tuple(_mod_map_onto(big, comp) for comp in b)
    return CoverCertificate(torus(big), left, right, (n_a, n_b))


def cover_periods(components: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Coordinatewise lcm of the components' periods: the smallest torus
    covering every component."""
    return tuple(lcm(*ps) for ps in zip(*components))


# One mod map per live (cover periods, component periods), as generators._TORI
# shares tori.  Keyed by periods: complexes and maps hash every array.
_MOD_MAPS: "weakref.WeakValueDictionary[tuple[tuple[int, ...], ...], CellMap]" = (
    weakref.WeakValueDictionary()
)


def _mod_map_onto(big: TorusParams, small: TorusParams) -> CellMap:
    """The coordinatewise mod map from torus(big) onto torus(small).  While any
    caller holds it, every call with the same periods returns that same map."""
    key = (big.periods, small.periods)
    m = _MOD_MAPS.get(key)
    if m is None:
        cover = torus(big)
        coords = np.unravel_index(np.arange(cover.num_nodes), big.periods)
        m = cell_map_from_node_map(cover, torus(small), grid_nodes(coords, small.periods))
        _MOD_MAPS[key] = m
    return m
