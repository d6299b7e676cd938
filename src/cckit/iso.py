"""Exact isomorphism of combinatorial complexes.

Isomorphism means a rank-preserving bijection on cells that preserves
vertex-set containment in both directions.  The decision procedure first
compares the complexes' skeleton sizes, then their component signatures:
the skeleton sizes of each node-connectivity component (cells sharing a
vertex), as sorted rows.  An isomorphism maps components onto components
and keeps ranks, so complexes whose signatures differ are rejected before
any split or search.  Each complex computes its node labels and signature
once and keeps them (:func:`_components`).  Only then are both complexes
split into their components, which are matched in one pass, each component
of one complex to the first unused isomorphic component of the other
(isomorphism is an equivalence relation, so no choice needs undoing).  It
decides each component pair by the identity map when the two have equal
content, else by individualization-refinement (:func:`_search`).

The search refines the two components jointly, with the update loop that
runs the diagrams of :mod:`cckit.refinement` on its state
(:class:`~cckit.refinement.CellColors`), over the vertex-cell incidence
alone: incidence_up(0, r) and incidence_down(r, 0) for every rank r, 2(d+1)
specs for a d-complex, not all 4(d+1)**2 natural neighborhoods.  That is
enough, because individualization-refinement is sound with any
isomorphism-invariant refinement (McKay & Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 2014), and incidence is defined by
ranks and containment, which an isomorphism keeps:

- Divergence pruning.  An isomorphism that respects the individualized
  cells carries the refined colors of one complex onto the other's, so
  class sizes that differ rule every such isomorphism out.
- Completeness.  If an isomorphism respects the current colors, it maps the
  individualized cell x of the first complex to some cell y of its class in
  the second, and the branch that individualizes x against y keeps it.
- Leaves.  At a discrete stable partition every color holds one cell of
  each complex, and matched cells have equal rows.  A cell's row holds the
  multiset of its vertex colors (incidence_down(r, 0) lists its vertices),
  and each vertex color is one node per complex.  So the node bijection
  read off rank 0 carries each cell's vertex set onto the vertex set of its
  matched cell, of the same rank.  Cells within a rank have distinct vertex
  sets, so each cell maps onto the cell on its relabeled vertex set, and
  such a map preserves containment both ways: an isomorphism, by the
  argument of :mod:`cckit.covering`.

Positive answers carry a witness map of the whole complexes, assembled from
the component maps and verified once before being returned by
:func:`cckit.covering.check_isomorphism`, as a bijective covering; by the
argument above a discrete leaf of the search needs no check of its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# build_cc and check_isomorphism stay reachable as iso attributes, and
# cc_isomorphic calls check_isomorphism through them: perfbench/tracing.py wraps both
from .complex import CombinatorialComplex, build_cc, row_ids, row_lengths  # noqa: F401
from .complex import incidence_down, incidence_up
from .covering import CellMap, check_isomorphism
from .errors import BadParams, MapNotWellDefined
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


def _incidence_block(ell: int) -> HompBlock:
    """The search's refinement block: vertex-cell incidence both ways at every
    rank, refined to stability."""
    specs = tuple(
        spec for r in range(ell + 1) for spec in (incidence_up(0, r), incidence_down(r, 0))
    )
    return HompBlock(specs, None)


def _search(state: CellColors, counter: _Counter) -> CellMap | None:
    """Individualization-refinement over the joint colors of two complexes: a
    witness, or None once every branch has diverged.

    Each node refines to stability over the vertex-cell incidence
    (:func:`_incidence_block`, built once per search; the state builds its
    gathers at the first node and reuses them) and is abandoned as soon as
    the two complexes' class sizes differ (colors only split, so a divergence
    never heals).  Then one cell of a in the smallest non-singleton class is
    individualized against each cell of b in it, in order.  The search is
    depth-first with an explicit stack of open branches: twins need one level
    each, more than the interpreter's recursion allows.  A discrete partition
    is a witness (see the module docstring).
    """
    block = _incidence_block(state.ell)
    in_a = state.owner == 0
    branches = []  # per open node: its colors, class count, a's cell and b's cells left
    while True:
        counter.spend()
        if all(state.agree() for _ in _updates(state, block)):
            colors, k = state.colors, state.classes
            sizes = state.class_counts()[0]
            if sizes.max() == 1:
                return _leaf_map(state)
            # smallest non-singleton class, the lowest id (sorted-row order) on ties
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
        state.colors[[x, y]] = k  # a fresh color individualizes both cells
        state.classes = k + 1


def _leaf_map(state: CellColors) -> CellMap:
    """The map of a discrete partition: each cell of a to the cell of b with
    its color."""
    colors = state.colors
    in_b = state.owner == 1
    where_b = np.empty(state.classes, dtype=np.int64)
    where_b[colors[in_b]] = np.flatnonzero(in_b)
    image = where_b[colors]
    a, b = state.ccs
    return CellMap(
        a, b, tuple(image[state.span(0, r)] - state.span(1, r).start for r in range(a.dimension + 1))
    )


def node_components(cc: CombinatorialComplex) -> list[int]:
    """Node labels under cells-share-a-vertex connectivity."""
    return _components(cc)[0].tolist()


def _components(cc: CombinatorialComplex) -> tuple[np.ndarray, bytes]:
    """The read-only node labels of a complex and its component signature,
    computed on first use and kept on the complex.

    Labels number the components by first appearance.  The signature is the
    matrix of per-component skeleton sizes (a cell counts in the component of
    its first vertex), rows sorted, as bytes: two complexes of one dimension
    have equal signatures exactly when their multisets of component skeleton
    sizes are equal.
    """
    if cc._components is None:
        # join every vertex to its cell's first vertex; rank 0 adds only self-loops
        skeletons = [cc.skeleton_arrays(r) for r in range(cc.dimension + 1)]
        firsts = [verts[indptr[:-1]] for indptr, verts in skeletons]
        joined = np.concatenate([f[row_ids(indptr)] for f, (indptr, _) in zip(firsts, skeletons)])
        members = np.concatenate([verts for _, verts in skeletons])
        labels = component_labels(cc.num_nodes, joined, members)
        labels.flags.writeable = False
        count = int(labels.max()) + 1
        sizes = np.stack([np.bincount(labels[f], minlength=count) for f in firsts], axis=1)
        cc._components = labels, sizes[np.lexsort(sizes.T[::-1])].tobytes()
    return cc._components


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
    labels = _components(cc)[0]
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


def env_budget() -> int:
    """The oracle's default search budget: CCKIT_ORACLE_BUDGET as a
    non-negative integer, DEFAULT_BUDGET when unset; BadParams otherwise."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise BadParams(f"{BUDGET_ENV_VAR}={raw!r} is not a non-negative integer")
    return budget


def cc_isomorphic(
    a: CombinatorialComplex,
    b: CombinatorialComplex,
    budget: int | None = None,
) -> IsoResult:
    """Decide isomorphism with a verified witness on success.

    The search budget caps explored refinement nodes; on exhaustion the
    result is unknown (isomorphic=None) rather than hanging.  Budget defaults
    to the CCKIT_ORACLE_BUDGET environment variable (:func:`env_budget`).
    Complexes whose skeleton sizes or component signatures differ are
    rejected with no node explored.
    """
    counter = _Counter(env_budget() if budget is None else budget)
    if a.dimension != b.dimension or a.skeleton_sizes() != b.skeleton_sizes():
        return IsoResult(isomorphic=False)
    if _components(a)[1] != _components(b)[1]:
        return IsoResult(isomorphic=False)
    comps_a = split_components(a)
    comps_b = split_components(b)
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
