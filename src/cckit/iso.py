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
decides each component pair by the identity node map when the two have
equal content, else by individualization-refinement (:func:`_search`).

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
  argument of :mod:`cckit.covering`.  The node bijection alone fixes it, so
  a leaf returns just that.

Siblings are batched.  Once the first sibling of a branch point (x against
the first cell of its class in b) has failed, the remaining siblings are
refined together as one state over a and copies of b, each copy with its own
cell individualized against x (:class:`_Batch`).  Color refinement of a
disjoint union restricts to each part (Grohe, Kersting, Mladenov &
Schweitzer, "Color Refinement and Its Applications", 2021), so each copy
ends in the stable colors, or the divergence, of its sibling's own run.  The
siblings are then taken in order, one node each, and the batch's speculative
refinement counts no node: node counts, witnesses, verdicts and the node at
which a budget runs out are those of refining each sibling alone.

Positive answers carry a witness map of the whole complexes: the component
node maps joined through each component's parent nodes, extended to every
cell by :func:`cckit.covering.cell_map_from_node_map` as covers are, and
verified once before being returned by
:func:`cckit.covering.check_isomorphism`, as a bijective covering; by the
argument above a discrete leaf of the search needs no check of its own.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

# build_cc and check_isomorphism stay reachable as iso attributes, and
# cc_isomorphic calls check_isomorphism through them: perfbench/tracing.py wraps both
from .complex import CombinatorialComplex, build_cc, row_ids, row_lengths  # noqa: F401
from .complex import _expand, incidence_down, incidence_up
from .covering import CellMap, cell_map_from_node_map, check_isomorphism
from .errors import BadParams, MapNotWellDefined
from .invariants import component_labels
from .refinement import CellColors, HompBlock, _updates

DEFAULT_BUDGET = 200_000
BUDGET_ENV_VAR = "CCKIT_ORACLE_BUDGET"
BATCH_CELLS = 1 << 16  # cells of one batch of siblings (see _Batch)


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


def _search(state: CellColors, counter: _Counter) -> np.ndarray | None:
    """Individualization-refinement over the joint colors of two complexes: a
    node map of an isomorphism, or None once every branch has diverged.

    Each node refines to stability over the vertex-cell incidence
    (:func:`_incidence_block`, built once per search; the state builds its
    gathers at the first node and reuses them) and is abandoned as soon as
    the two complexes' class sizes differ (colors only split, so a divergence
    never heals).  Then one cell x of a in the smallest non-singleton class is
    individualized against each cell y of b in it, in order.  The first
    sibling runs alone, as most positive searches end below it; once its
    subtree has failed, the remaining siblings are refined together in
    batches (:class:`_Batch`) and then taken in order, one budget unit each,
    exactly as if each had been refined alone.  The search is depth-first
    with an explicit stack of open branch points: twins need one level each,
    more than the interpreter's recursion allows.  A discrete partition
    gives the node bijection read off rank 0 (:func:`_leaf_nodes`), which
    extends to an isomorphism (see the module docstring).
    """
    block = _incidence_block(state.ell)
    in_a = state.owner == 0
    branches: list[_Branch] = []
    counter.spend()
    agrees = _refine(state, block)
    while True:
        if agrees:
            colors = state.colors
            sizes = state.class_counts()[0]
            if sizes.max() == 1:
                return _leaf_nodes(state)
            # smallest non-singleton class, the lowest id (sorted-row order) on ties
            split = int(np.argmin(np.where(sizes > 1, sizes, len(colors))))
            members = colors == split
            x = np.flatnonzero(members & in_a)[0]
            branches.append(_Branch(colors, state.classes, x, np.flatnonzero(members & ~in_a)))
        agrees = None
        while agrees is None:
            if not branches:
                return None
            agrees = branches[-1].next_sibling(state, block, counter)
            if agrees is None:
                branches.pop()


def _refine(state: CellColors, block: HompBlock) -> bool:
    """Refine state to stability, stopping at the first tick whose class
    sizes differ between the two complexes; True when they never did."""
    return all(state.agree() for _ in _updates(state, block))


class _Branch:
    """An open branch point: its stable colors and class count, a's cell x,
    the cells ys of b in x's class, the index of the next y, and the batch
    holding the refined siblings the search is taking."""

    __slots__ = ("colors", "classes", "x", "ys", "next", "batch")

    def __init__(self, colors: np.ndarray, classes: int, x: int, ys: np.ndarray):
        self.colors, self.classes, self.x, self.ys = colors, classes, x, ys
        self.next = 0
        self.batch: _Batch | None = None

    def next_sibling(self, state: CellColors, block: HompBlock, counter: _Counter) -> bool | None:
        """Take the next sibling as one search node: leave its stable colors
        in state and return True, return False when it diverged, or None when
        every sibling has been taken."""
        i = self.next
        if i == len(self.ys):
            return None
        self.next += 1
        counter.spend()
        if i > 0 and self.batch is None:
            # (copies + 1) * size cells, a and b having equal skeleton sizes
            copies = min(BATCH_CELLS // (len(state.colors) // 2) - 1, len(self.ys) - i)
            self.batch = _Batch(state, block, self, i, copies) if copies > 1 else None
        if self.batch is not None:
            batch = self.batch
            if i + 1 == batch.stop:
                self.batch = None  # its last sibling: held no longer while the search descends
            return batch.restore(i, state)
        # the first sibling, or a batch of one: the pair run itself
        state.colors = self.colors.copy()
        state.colors[[self.x, self.ys[i]]] = self.classes  # a fresh color individualizes both
        state.classes = self.classes + 1
        return _refine(state, block)


class _Batch:
    """The siblings ys[start:stop] of a branch point, refined as one state
    over [a, b, ..., b]: a with x individualized, and copy j of b with
    ys[start + j] individualized, all to the branch's fresh color.

    Refinement of a disjoint union restricts to each part: restricted to a
    and one copy, each tick's partition is that of the pair run of its
    sibling, and the pair run is stable once the restricted partition is.
    Rows compare by the order of the colors they hold, so ids restricted to a
    and the copy are the pair run's ids in the same order, and their dense
    renumbering is the pair run's colors.  A copy whose class sizes ever
    differ from a's is the pair run that diverged.  A batch holds at most
    BATCH_CELLS cells and at least two copies; a sibling that would be the
    only copy of its batch runs alone, as the pair run.

    The batch state reads gathers tiled from the pair state's
    (:meth:`~cckit.refinement.CellColors.tiled`) and builds no neighborhood
    of its own.  Once refined, only the stable colors of the copies that
    agreed are kept, one row of the pair's size each, and the branch drops
    the batch when it takes its last sibling.
    """

    __slots__ = ("start", "stop", "rows", "stable", "classes")

    def __init__(self, state: CellColors, block: HompBlock, branch: _Branch, start: int, copies: int):
        self.start, self.stop = start, start + copies
        batch, offset, stride = state.tiled(copies, block.specs)
        copy = np.arange(copies)
        ys = branch.ys[start : self.stop]
        k = branch.classes
        colors = np.empty(len(batch.colors), dtype=np.int64)
        colors[offset + copy[:, None] * stride] = branch.colors
        colors[offset[ys] + copy * stride[ys]] = k
        colors[offset[branch.x]] = k
        batch.colors, batch.classes = colors, k + 1
        # per copy of b: its class sizes differed from a's at some tick
        diverged = np.zeros(copies, dtype=bool)
        for _ in _updates(batch, block):
            diverged |= _disagreeing(batch)
            if diverged.all():
                break
        agreed = np.flatnonzero(~diverged)
        self.rows = np.where(diverged, -1, np.cumsum(~diverged) - 1)  # per copy: its row of stable
        self.stable = batch.colors[offset + agreed[:, None] * stride]
        self.classes = batch.classes

    def restore(self, i: int, state: CellColors) -> bool:
        """Leave sibling i's stable pair colors in state, or return False
        when its pair run diverged."""
        row = self.rows[i - self.start]
        if row < 0:
            return False
        colors = self.stable[row]
        present = np.zeros(self.classes, dtype=bool)
        present[colors] = True
        state.colors = (np.cumsum(present) - 1)[colors]
        state.classes = int(np.count_nonzero(present))
        return True


def _disagreeing(batch: CellColors) -> np.ndarray:
    """Per copy of b in a batch: whether its class sizes differ from a's.

    Colors a lacks share one extra column, so the count matrix has a column
    per color of a plus one: at most one entry per cell of the batch, where a
    column per batch color could grow with the square of the copies."""
    colors, parts = batch.colors, len(batch.ccs)
    present = np.zeros(batch.classes, dtype=bool)
    present[colors[batch.owner == 0]] = True
    width = int(np.count_nonzero(present)) + 1
    column = np.where(present, np.cumsum(present) - 1, width - 1)[colors]
    counts = np.bincount(batch.owner * width + column, minlength=parts * width)
    counts = counts.reshape(parts, width)
    return (counts[1:] != counts[0]).any(axis=1)


def _leaf_nodes(state: CellColors) -> np.ndarray:
    """The node bijection of a discrete partition: each node of a to the node
    of b with its color, read off rank 0, whose cells are the nodes in order."""
    a, b = (state.colors[state.span(ci, 0)] for ci in (0, 1))
    where_b = np.empty(state.classes, dtype=np.int64)
    where_b[b] = np.arange(len(b))
    return where_b[a]


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
    """A node-connectivity component as a complex of its own, and its nodes
    in the parent: local node i is parent node nodes[i]."""

    complex: CombinatorialComplex
    nodes: np.ndarray


def split_components(cc: CombinatorialComplex) -> list[_Component]:
    """The node-connectivity components, as complexes sliced from the parent's
    skeleton arrays, each with its parent nodes in ascending order.

    A cell belongs to the component of its first vertex.  A stable sort by
    component keeps each component's cells in parent order, their vertex rows
    are read in that order, and the vertex renumbering preserves order within
    a component, so every slice is already canonical and needs no
    re-validation.  Ranks past a component's top
    non-empty rank are dropped from its complex.  The node lists are all a
    witness needs: a node map of each component extends to the parent's
    cells (:func:`cc_isomorphic`).
    """
    labels = _components(cc)[0]
    count = int(labels.max()) + 1
    if count == 1:
        return [_Component(cc, np.arange(cc.num_nodes))]
    nodes = np.argsort(labels, kind="stable")  # grouped by component, ascending within
    node_starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=count))))
    local = np.empty(cc.num_nodes, dtype=np.int64)
    local[nodes] = np.arange(cc.num_nodes) - node_starts[labels[nodes]]
    ranks = []  # per rank: the indptr and local vertices of its cells by component
    for r in range(cc.dimension + 1):
        indptr, verts = cc.skeleton_arrays(r)
        lengths = row_lengths(indptr)
        comp = labels[verts[indptr[:-1]]]
        cells = np.argsort(comp, kind="stable")
        flat = local[_expand((indptr, verts), cells)[1]]
        ptr = np.concatenate(([0], np.cumsum(lengths[cells])))
        starts = np.concatenate(([0], np.cumsum(np.bincount(comp, minlength=count))))
        ranks.append((ptr, flat, starts))
    comps = []
    for c in range(count):
        skeletons = []
        for ptr, flat, starts in ranks:
            lo, hi = starts[c], starts[c + 1]
            skeletons.append((ptr[lo : hi + 1] - ptr[lo], flat[ptr[lo] : ptr[hi]]))
        while len(skeletons[-1][0]) == 1:  # no cells at the top rank
            skeletons.pop()
        members = nodes[node_starts[c] : node_starts[c + 1]]
        comps.append(_Component(CombinatorialComplex(len(members), tuple(skeletons)), members))
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
    to the CCKIT_ORACLE_BUDGET environment variable (:func:`env_budget`); an
    explicit one that is not a non-negative integer raises BadParams.
    Complexes whose skeleton sizes or component signatures differ are
    rejected with no node explored.
    """
    if budget is None:
        budget = env_budget()
    elif isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 0:
        raise BadParams(f"budget={budget!r} is not a non-negative integer")
    counter = _Counter(int(budget))
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
    node_image = np.empty(a.num_nodes, dtype=np.int64)
    for i, j, nodes in matching:
        node_image[comps_a[i].nodes] = comps_b[j].nodes[nodes]
    witness = cell_map_from_node_map(a, b, node_image)
    violation = check_isomorphism(witness)
    if violation is not None:
        raise MapNotWellDefined(f"search produced an invalid witness: {violation}")
    return IsoResult(isomorphic=True, witness=witness, nodes_explored=counter.used)


def _component_witness(a, b, counter: _Counter) -> np.ndarray | None:
    """The node map of an isomorphism between two connected complexes of equal
    skeleton sizes: the identity when their content is equal, else the
    search's; None when the search finds none."""
    if a == b:
        return np.arange(a.num_nodes)
    return _search(CellColors([a, b]), counter)


def _match_components(comps_a, comps_b, counter):
    """Each component of a matched to the first unused isomorphic component of
    b.  Isomorphism is an equivalence relation, so no assignment ever needs
    undoing: a matching exists exactly when this one pass completes."""
    free = list(range(len(comps_b)))
    matching: list[tuple[int, int, np.ndarray]] = []
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
