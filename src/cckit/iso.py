"""Exact isomorphism of combinatorial complexes.

Isomorphism means a rank-preserving bijection on cells that preserves
vertex-set containment in both directions.  The decision procedure first
splits both complexes into node-connectivity components (cells sharing a
vertex; invariant under any containment-preserving bijection) and matches
components, then decides each component pair by individualization-refinement:
cells are partitioned by stable joint refinement colors over all natural
neighborhoods, computed by the kernel of :mod:`cckit.refinement`
(:class:`~cckit.refinement.CellColors`).  A cell of each complex in the
smallest non-singleton class gets one fresh color and the partition is
re-refined, backtracking as soon as the class sizes of the two complexes
differ.  Positive answers carry a witness map that is re-verified against the
definition before being returned.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# build_cc stays reachable as iso.build_cc: perfbench/tracing.py wraps that name
from .complex import (  # noqa: F401
    CombinatorialComplex,
    build_cc,
    incidence_up,
    natural_specs,
    row_ids,
    row_lengths,
)
from .covering import CellMap, first_spec_failure
from .errors import MapNotWellDefined
from .invariants import component_labels
from .refinement import CellColors

DEFAULT_BUDGET = 200_000
BUDGET_ENV_VAR = "CCKIT_ORACLE_BUDGET"


@dataclass(frozen=True)
class IsoResult:
    """isomorphic is None when the search budget ran out (unknown)."""

    isomorphic: bool | None
    witness: CellMap | None = None
    nodes_explored: int = 0


def check_isomorphism(m: CellMap) -> str | None:
    """Verify a cell map is an isomorphism; returns the first violation or None.

    Checks bijectivity per rank, rank preservation (structural in CellMap),
    and containment preservation in both directions across all rank pairs:
    for a bijection, mapping every containment list onto its image's list is
    exactly the local bijectivity that covering maps check for incidence-up.
    """
    src, tgt = m.source, m.target
    if src.dimension != tgt.dimension:
        return f"dimension {src.dimension} != {tgt.dimension}"
    for r in range(src.dimension + 1):
        n_s, n_t = src.skeleton_size(r), tgt.skeleton_size(r)
        if n_s != n_t:
            return f"skeleton {r} sizes differ: {n_s} != {n_t}"
        if np.bincount(m.images[r], minlength=n_t).max(initial=1) > 1:
            return f"not injective on skeleton {r}"
    for r_sub in range(src.dimension + 1):
        for r_sup in range(src.dimension + 1):
            i = first_spec_failure(m, incidence_up(r_sub, r_sup))
            if i is not None:
                return (
                    f"containment not preserved at rank-{r_sub} cell "
                    f"{src.skeletons[r_sub][i]} into rank {r_sup}"
                )
    return None


class _Budget(Exception):
    pass


class _Counter:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise _Budget()


class _Search:
    """Individualization-refinement over one pair of connected complexes."""

    def __init__(self, a: CombinatorialComplex, b: CombinatorialComplex, counter: _Counter):
        self.a = a
        self.b = b
        self.kernel = CellColors([a, b], a.dimension)
        self.specs = tuple(natural_specs(a.dimension))
        self.counter = counter

    def run(self) -> CellMap | None:
        return self._search(self.kernel.colors, self.kernel.classes)

    def refine(self, colors: np.ndarray, classes: int) -> np.ndarray | None:
        """Joint refinement to stability; returns the class sizes, or None as
        soon as the two histograms diverge (colors only split, so a divergence
        never heals)."""
        kernel = self.kernel
        kernel.colors, kernel.classes = colors, classes
        while True:
            changed = kernel.cell_round(self.specs)
            counts = kernel.class_counts()
            if not np.array_equal(counts[0], counts[1]):
                return None
            if not changed:
                return counts[0]

    def _search(self, colors: np.ndarray, classes: int) -> CellMap | None:
        self.counter.spend()
        sizes = self.refine(colors, classes)
        if sizes is None:
            return None
        kernel = self.kernel
        colors, k = kernel.colors, kernel.classes
        in_a = kernel.owner == 0
        if sizes.max() == 1:
            # discrete partition: the color-induced bijection is forced
            where_b = np.empty(k, dtype=np.int64)
            where_b[colors[~in_a]] = np.flatnonzero(~in_a)
            image = where_b[colors]
            mapping = tuple(
                tuple((image[kernel.span(0, r)] - kernel.span(1, r).start).tolist())
                for r in range(self.a.dimension + 1)
            )
            candidate = CellMap(self.a, self.b, mapping)
            if check_isomorphism(candidate) is None:
                return candidate
            return None
        # smallest non-singleton class, the lowest id (sorted-row order) on ties
        split = int(np.argmin(np.where(sizes > 1, sizes, len(colors))))
        members = colors == split
        x = np.flatnonzero(members & in_a)[0]
        for y in np.flatnonzero(members & ~in_a):
            trial = colors.copy()
            trial[[x, y]] = k  # a fresh color individualizes both cells
            found = self._search(trial, k + 1)
            if found is not None:
                return found
        return None


def node_components(cc: CombinatorialComplex) -> list[int]:
    """Node labels under cells-share-a-vertex connectivity."""
    return _node_labels(cc).tolist()


def _node_labels(cc: CombinatorialComplex) -> np.ndarray:
    # join every vertex to its cell's first vertex; rank 0 adds only self-loops
    skeletons = [cc.skeleton_arrays(r) for r in range(cc.dimension + 1)]
    firsts = np.concatenate([verts[indptr[:-1]][row_ids(indptr)] for indptr, verts in skeletons])
    members = np.concatenate([verts for _, verts in skeletons])
    return component_labels(cc.num_nodes, firsts, members)


@dataclass(frozen=True)
class _Component:
    complex: CombinatorialComplex
    nodes: tuple[int, ...]                      # parent node ids, sorted
    cell_parent: tuple[tuple[int, ...], ...]    # per rank, local -> parent index


def split_components(cc: CombinatorialComplex) -> list[_Component]:
    """The node-connectivity components, as complexes sliced from the parent's
    skeleton arrays.

    A cell belongs to the component of its first vertex.  Stable sorts by
    component keep each component's cells in parent order, and the vertex
    renumbering preserves order within a component, so every slice is already
    canonical and needs no re-validation.  Ranks past a component's top
    non-empty rank are dropped from its complex.
    """
    labels = _node_labels(cc)
    count = int(labels.max()) + 1
    if count == 1:
        ident = tuple(tuple(range(cc.skeleton_size(r))) for r in range(cc.dimension + 1))
        return [_Component(cc, tuple(range(cc.num_nodes)), ident)]
    nodes = np.argsort(labels, kind="stable")  # grouped by component, ascending within
    node_starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=count))))
    local = np.empty(cc.num_nodes, dtype=np.int64)
    local[nodes] = np.arange(cc.num_nodes) - node_starts[labels[nodes]]
    ranks = []  # per rank: parent cells by component, their indptr and local vertices
    for r in range(cc.dimension + 1):
        indptr, verts = cc.skeleton_arrays(r)
        lengths = row_lengths(indptr)
        comp = labels[verts[indptr[:-1]]]
        cells = np.argsort(comp, kind="stable")
        flat = local[verts[np.argsort(np.repeat(comp, lengths), kind="stable")]]
        ptr = np.concatenate(([0], np.cumsum(lengths[cells])))
        starts = np.concatenate(([0], np.cumsum(np.bincount(comp, minlength=count))))
        ranks.append((cells, ptr, flat, starts))
    comps = []
    for c in range(count):
        skeletons, parents = [], []
        for cells, ptr, flat, starts in ranks:
            lo, hi = starts[c], starts[c + 1]
            skeletons.append((ptr[lo : hi + 1] - ptr[lo], flat[ptr[lo] : ptr[hi]]))
            parents.append(tuple(cells[lo:hi].tolist()))
        while len(skeletons[-1][0]) == 1:  # no cells at the top rank
            skeletons.pop()
        sub = CombinatorialComplex(int(node_starts[c + 1] - node_starts[c]), tuple(skeletons))
        members = tuple(nodes[node_starts[c] : node_starts[c + 1]].tolist())
        comps.append(_Component(sub, members, tuple(parents)))
    return comps


def cc_isomorphic(
    a: CombinatorialComplex,
    b: CombinatorialComplex,
    budget: int | None = None,
) -> IsoResult:
    """Decide isomorphism with a verified witness on success.

    The search budget caps explored refinement nodes; on exhaustion the
    result is unknown (isomorphic=None) rather than hanging.  Budget defaults
    to the CCKIT_ORACLE_BUDGET environment variable.
    """
    if budget is None:
        budget = int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET))
    counter = _Counter(budget)
    if a.dimension != b.dimension or a.skeleton_sizes() != b.skeleton_sizes():
        return IsoResult(isomorphic=False)
    comps_a = split_components(a)
    comps_b = split_components(b)
    if len(comps_a) != len(comps_b):
        return IsoResult(isomorphic=False)

    try:
        if len(comps_a) == 1:
            witness = _Search(a, b, counter).run()
            matching = None if witness is None else [(0, 0, witness)]
        else:
            matching = _match_components(comps_a, comps_b, counter)
    except _Budget:
        return IsoResult(isomorphic=None, nodes_explored=counter.used)
    if matching is None:
        return IsoResult(isomorphic=False, nodes_explored=counter.used)
    witness = _assemble_witness(a, b, comps_a, comps_b, matching)
    violation = check_isomorphism(witness)
    if violation is not None:
        raise MapNotWellDefined(f"search produced an invalid witness: {violation}")
    return IsoResult(isomorphic=True, witness=witness, nodes_explored=counter.used)


def _match_components(comps_a, comps_b, counter):
    """Backtracking multiset matching; component pair results are memoized."""
    memo: dict[tuple[int, int], CellMap | None] = {}

    def pair_witness(i: int, j: int) -> CellMap | None:
        key = (i, j)
        if key not in memo:
            ca, cb = comps_a[i].complex, comps_b[j].complex
            if ca.dimension != cb.dimension or ca.skeleton_sizes() != cb.skeleton_sizes():
                memo[key] = None
            else:
                memo[key] = _Search(ca, cb, counter).run()
        return memo[key]

    used = [False] * len(comps_b)
    matching: list[tuple[int, int, CellMap]] = []

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


def _assemble_witness(a, b, comps_a, comps_b, matching) -> CellMap:
    assignment = [[0] * len(a.skeletons[r]) for r in range(a.dimension + 1)]
    for i, j, w in matching:
        ca, cb = comps_a[i], comps_b[j]
        for r in range(a.dimension + 1):
            row = w.assignment[r] if r < len(w.assignment) else ()
            for local_i, local_j in enumerate(row):
                assignment[r][ca.cell_parent[r][local_i]] = cb.cell_parent[r][local_j]
    return CellMap(a, b, tuple(tuple(row) for row in assignment))
