"""Exact isomorphism of combinatorial complexes.

Isomorphism means a rank-preserving bijection on cells that preserves
vertex-set containment in both directions.  The decision procedure first
splits both complexes into node-connectivity components (cells sharing a
vertex; invariant under any containment-preserving bijection) and matches
them in one pass, each component of one complex to the first unused
isomorphic component of the other (isomorphism is an equivalence relation,
so no choice needs undoing).  It decides each component pair by the identity
map when the two have equal content, else by individualization-refinement:
cells are partitioned by stable joint refinement colors over all natural
neighborhoods, refined by the update loop that runs the diagrams of
:mod:`cckit.refinement` on its state (:class:`~cckit.refinement.CellColors`).
A cell of each complex in the smallest non-singleton class gets one fresh
color and the partition is re-refined, backtracking as soon as the class
sizes of the two complexes differ.  Positive answers carry a witness map of
the whole complexes, assembled from the component maps and verified once
before being returned by :func:`cckit.covering.check_isomorphism`, as a
bijective covering; a discrete leaf of the search needs no check of its own
(see :func:`_search`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# build_cc and check_isomorphism stay reachable as iso attributes, and
# cc_isomorphic calls check_isomorphism through them: perfbench/tracing.py wraps both
from .complex import CombinatorialComplex, build_cc, row_ids, row_lengths  # noqa: F401
from .covering import CellMap, check_isomorphism
from .errors import MapNotWellDefined
from .invariants import component_labels
from .refinement import CellColors, HompBlock, _updates

DEFAULT_BUDGET = 200_000
BUDGET_ENV_VAR = "CCKIT_ORACLE_BUDGET"


@dataclass(frozen=True)
class IsoResult:
    """isomorphic is None when the search budget ran out (unknown)."""

    isomorphic: bool | None
    witness: CellMap | None = None
    nodes_explored: int = 0


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


def _search(state: CellColors, counter: _Counter) -> CellMap | None:
    """Individualization-refinement over the joint colors of two connected
    complexes: a witness, or None once every branch has diverged.

    Refinement runs to stability through the diagrams' update loop and stops
    as soon as the two complexes' class sizes differ (colors only split, so a
    divergence never heals).  A discrete partition that gets there pairs each
    cell with the one cell of the same stable row, so the map it induces
    carries every natural neighborhood onto its image's: an isomorphism.
    """
    counter.spend()
    if not all(state.agree() for _ in _updates(state, HompBlock(None, None))):
        return None
    colors, k = state.colors, state.classes
    sizes = state.class_counts()[0]
    in_a = state.owner == 0
    if sizes.max() == 1:
        where_b = np.empty(k, dtype=np.int64)
        where_b[colors[~in_a]] = np.flatnonzero(~in_a)
        image = where_b[colors]
        a, b = state.ccs
        mapping = tuple(
            image[state.span(0, r)] - state.span(1, r).start for r in range(a.dimension + 1)
        )
        return CellMap(a, b, mapping)
    # smallest non-singleton class, the lowest id (sorted-row order) on ties
    split = int(np.argmin(np.where(sizes > 1, sizes, len(colors))))
    members = colors == split
    x = np.flatnonzero(members & in_a)[0]
    for y in np.flatnonzero(members & ~in_a):
        state.colors = colors.copy()
        state.colors[[x, y]] = k  # a fresh color individualizes both cells
        state.classes = k + 1
        found = _search(state, counter)
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
    cell_parent: tuple[np.ndarray, ...]         # per rank, local -> parent index


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
        ident = tuple(np.arange(cc.skeleton_size(r)) for r in range(cc.dimension + 1))
        return [_Component(cc, ident)]
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
            parents.append(cells[lo:hi])
        while len(skeletons[-1][0]) == 1:  # no cells at the top rank
            skeletons.pop()
        sub = CombinatorialComplex(int(node_starts[c + 1] - node_starts[c]), tuple(skeletons))
        comps.append(_Component(sub, tuple(parents)))
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


def _component_witness(a, b, counter: _Counter) -> CellMap | None:
    """A witness for two connected complexes of equal skeleton sizes: the
    identity when their content is equal, else the search's."""
    if a == b:
        return CellMap(a, b, tuple(np.arange(a.skeleton_size(r)) for r in range(a.dimension + 1)))
    return _search(CellColors([a, b], a.dimension), counter)


def _match_components(comps_a, comps_b, counter):
    """Each component of a matched to the first unused isomorphic component of
    b.  Isomorphism is an equivalence relation, so no assignment ever needs
    undoing: a matching exists exactly when this one pass completes."""
    free = list(range(len(comps_b)))
    matching: list[tuple[int, int, CellMap]] = []
    for i, comp in enumerate(comps_a):
        ca = comp.complex
        for j in free:
            cb = comps_b[j].complex
            if ca.dimension != cb.dimension or ca.skeleton_sizes() != cb.skeleton_sizes():
                continue
            witness = _component_witness(ca, cb, counter)
            if witness is not None:
                free.remove(j)
                matching.append((i, j, witness))
                break
        else:
            return None
    return matching


def _assemble_witness(a, b, comps_a, comps_b, matching) -> CellMap:
    images = [np.zeros(a.skeleton_size(r), dtype=np.int64) for r in range(a.dimension + 1)]
    for i, j, w in matching:
        parent_a, parent_b = comps_a[i].cell_parent, comps_b[j].cell_parent
        # a component's map stops at its own top rank, above which it has no cells
        for r, row in enumerate(w.images):
            images[r][parent_a[r]] = parent_b[r][row]
    return CellMap(a, b, tuple(images))
