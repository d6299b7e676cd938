"""Color-refinement distinguishability engines.

Message-passing updates with injective aggregation are abstracted to
Weisfeiler-Leman style refinement, and every update is one operation: a row
per cell holding its old color and one sorted neighbor-color multiset per
configured neighborhood function, numbered jointly across the complexes being
compared (:func:`number_keys`).  Equal ids mean equal rows, so the color
histograms of different complexes are directly comparable.  Ids follow the
sorted order of the distinct rows, so they are canonical: a complex refined
alone numbers the same rows the same way, which lets :func:`distinguish`
refine each complex once and compare per-tick tables across its partners.
Cell rounds and pair rounds run one update routine
(:meth:`CellColors.update`): an index matrix gathers neighbor colors through
padded neighbor rows (:func:`padded_gather`), and a missing neighbor (-1)
reads the one pad after the last color.  While every rank holds one color
(at the start, and through homp's whole run on the paper's torus pairs), a
cell round writes the same rows from degrees alone and builds no gather
(:meth:`CellColors.cell_round`); gathers are first built at the round after a
rank splits.  A pair round is a cell round whose cells are the pairs (x, y)
of X_{r1} x X_{r2}: pair colors are one flat array like the cell colors, and
a pair gathers the pairs with x or y swapped for a neighbor, by flat pair id.
Pair seeding and pooling number their rows the same way.

Rows move only narrow bytes (:mod:`cckit._rowkeys` holds the gathers, row
builders and numbering).  Gathers are int32 index matrices while the array
they read has fewer than 2**31 entries, int64 from there on.  Each update
computes its key dtype from bounds it already knows (color count, base and
segment count) and writes its rows once, values plus one, into one unsigned
key buffer of that dtype (8, 16, 32 or 64 bits).  The buffer is sorted as
one uint64 per row when its rows' mixed-radix values fit 64 bits, and
otherwise byte-swapped in place and sorted as np.void rows.  Trace tables
hold the distinct rows as int64 bytes whatever the key dtype, so they compare
across updates and complexes.

Three engines are exposed: plain cell refinement over the natural
neighborhoods ("homp"), pair-space refinement over X_{r1} x X_{r2} with
incidence- or distance-based markings ("scl"), and staged diagrams mixing the
two with pooling ("smcn").  One state, :class:`CellColors`, holds the cell
colors and the live pair colorings, and one loop, :func:`_updates`, runs a
stage on it update by update, with the stability rule and round bound of
open-ended blocks.  :func:`run_diagram` numbers those updates as ticks, and
the exact-isomorphism oracle in :mod:`cckit.iso` refines each search node
with the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .complex import (
    CombinatorialComplex,
    NeighborhoodSpec,
    _runs,
    adjacency,
    co_adjacency,
    incidence_down,
    incidence_up,
    natural_specs,
    row_ids,
)
from .errors import MarkingUnsupported, PoolWithoutScl, RankOutOfRange
from .invariants import distance_blocks, nearest_face_distances
from .invariants import shortest_paths  # noqa: F401  (perfbench/tracing.py wraps it here)
from ._rowkeys import (
    build_rows,
    index_dtype,
    key_dtype,
    number_keys,
    padded_gather,
    row_span,
    shifted_colors,
    store_keys,
)

Hist = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Coloring:
    """Refinement colors per rank, indexed by skeleton position."""

    by_rank: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PairColoring:
    """Colors over the pair space X_{r1} x X_{r2}."""

    r1: int
    r2: int
    colors: tuple[tuple[int, ...], ...]

    def histogram(self) -> Hist:
        return _hist(np.array(self.colors, dtype=np.int64))


@dataclass(frozen=True)
class Fingerprint:
    """Per-rank color histograms plus any pair-space histograms, with sizes."""

    skeleton_sizes: tuple[int, ...]
    rank_histograms: tuple[Hist, ...]
    pair_histograms: tuple[Hist, ...] = ()


@dataclass(frozen=True)
class HompBlock:
    """Cell-refinement stage; specs None means every natural neighborhood.
    Any spec sequence is held as a tuple, so equal blocks hash equally."""

    specs: tuple[NeighborhoodSpec, ...] | None = None
    rounds: int | None = 1  # None = refine to stability

    def __post_init__(self) -> None:
        if self.specs is not None:
            object.__setattr__(self, "specs", tuple(self.specs))


@dataclass(frozen=True)
class SclBlock:
    """Pair-refinement stage over X_{r1} x X_{r2}, seeded from cell colors."""

    r1: int
    r2: int
    marking: str = "distance"  # "binary" | "distance"
    rounds: int | None = 1


@dataclass(frozen=True)
class PoolStage:
    """Fold the most recent pair coloring back into cell colors."""


Stage = HompBlock | SclBlock | PoolStage


def default_smcn_diagram() -> tuple[Stage, ...]:
    """Benchmark diagram: full block, four distance-marked (0,1) pair rounds,
    pooling, full block."""
    return (
        HompBlock(None, 1),
        SclBlock(0, 1, "distance", 4),
        PoolStage(),
        HompBlock(None, 1),
    )


def _hist(colors: np.ndarray) -> Hist:
    colors = colors.ravel()
    values, counts = _runs(colors, int(colors.max()) + 1 if colors.size else 0)
    return tuple(zip(values.tolist(), counts.tolist()))


@dataclass(slots=True)
class _PairState:
    """Live pair coloring of one SclBlock across all complexes, stored as cell
    colors are: one flat array, complex by complex, each complex's pairs
    (x, y) row-major, with its class count.  The state caches its gathers."""

    r1: int
    r2: int
    shapes: list[tuple[int, int]]
    colors: np.ndarray
    classes: int

    def matrices(self) -> list[np.ndarray]:
        """Per complex, its (n1, n2) block of the colors, as a view."""
        ends = accumulate(n1 * n2 for n1, n2 in self.shapes)
        return [self.colors[end - n1 * n2 : end].reshape(n1, n2) for (n1, n2), end in zip(self.shapes, ends)]


class CellColors:
    """Joint cell colors of several complexes, plus the live pair colorings of
    the pair blocks run on them, refined by one kernel round.

    All cells sit in one array, rank by rank and within a rank complex by
    complex; each pair coloring (:class:`_PairState`) is one array too, so a
    cell round and a pair round are one update of a different coloring.
    Initial colors number the ranks holding a cell densely, so the colors
    are 0..classes - 1 at every tick; every row starts with the old color,
    so each color stays inside one rank.  ``held`` counts the ranks holding
    a cell, so the colors are uniform on every rank exactly while
    ``classes == held``; cell rounds then read degrees, not gathers.  With
    ``tabulate`` set, every update keeps the table of the rows it numbered
    in ``table``.  Neighborhoods and gathers depend on a round's value alone,
    so the caches are keyed by value: a cell round's per-rank neighborhood
    CSRs (:meth:`_neighborhoods`, read by its degrees and its gathers) and
    gathers by its specs tuple, a pair round's gathers by its ranks (r1, r2).
    Equal rounds share a build.
    """

    def __init__(self, ccs: Sequence[CombinatorialComplex]):
        self.ccs = list(ccs)
        self.ell = ell = max(cc.dimension for cc in self.ccs)
        m = len(self.ccs)
        sizes = [cc.skeleton_size(r) for r in range(ell + 1) for cc in self.ccs]
        self.starts = list(accumulate(sizes, initial=0))
        self.owner = np.tile(np.arange(m), ell + 1).repeat(sizes)
        # one class per rank with a cell in any complex, numbered in rank order
        held = np.cumsum([self.starts[(r + 1) * m] > self.starts[r * m] for r in range(ell + 1)])
        self.colors = (held - 1).repeat(m).repeat(sizes)
        self.classes = self.held = int(held[-1])
        self._csrs: dict[tuple, list[list[tuple]]] = {}  # per specs tuple: see _neighborhoods
        self._gathers: dict[tuple, list[tuple]] = {}  # update-ready (span, index, segment) lists
        self.pair_states: list[_PairState] = []
        self.tabulate = False
        self.table: tuple | None = None

    def span(self, ci: int, r: int) -> slice:
        """Positions of the rank-r cells of complex ci."""
        k = r * len(self.ccs) + ci
        return slice(self.starts[k], self.starts[k + 1])

    def rank_span(self, r: int) -> slice:
        """Positions of the rank-r cells of all complexes."""
        m = len(self.ccs)
        return slice(self.starts[r * m], self.starts[(r + 1) * m])

    def class_counts(self) -> np.ndarray:
        """(complexes, colors) matrix of class sizes."""
        m, k = len(self.ccs), self.classes
        return np.bincount(self.owner * k + self.colors, minlength=m * k).reshape(m, k)

    def recolor(self, coloring: CellColors | _PairState, keys: np.ndarray) -> bool:
        """Number a key buffer of one row per cell of coloring (the cells, or
        the pairs of a pair coloring), in its order, into its colors and class
        count, keeping the rows' table when tabulating; True when the
        partition got finer."""
        ids, k, self.table = number_keys(keys, self.tabulate)
        changed = k > coloring.classes
        coloring.colors, coloring.classes = ids, k
        return changed

    def update(self, coloring: CellColors | _PairState, gathers: list[tuple]) -> bool:
        """One simultaneous update of coloring: for each (span, index,
        segment), the rows of the span's cells read the colors its index
        matrix gathers, a -1 reading the pad after the last color; True when
        the partition got finer."""
        colors = coloring.colors
        base = coloring.classes + 1
        dtype = key_dtype(row_span(base, [segment for _, _, segment in gathers]))
        width = 1 + max(index.shape[1] for _, index, _ in gathers)
        keys = np.zeros((len(colors), width), dtype=dtype)
        ext = shifted_colors(colors, dtype)
        for span, index, segment in gathers:
            build_rows(keys[span], colors[span], ext, index, segment, base)
        del ext  # out of numbering's peak
        return self.recolor(coloring, keys)

    def cell_round(self, specs: tuple[NeighborhoodSpec, ...]) -> bool:
        """One simultaneous update over the specs; returns False once the
        partition is stable.

        While the colors are uniform on every rank, the round reads degrees
        and builds no gather (:meth:`_degree_round`).  Colors never leave
        their rank and each rank holding a cell holds one, so that is when
        the class count equals the number of such ranks."""
        if self.classes == self.held:
            return self._degree_round(specs)
        return self.update(self, self.cell_gathers(specs))

    def cell_gathers(self, specs: tuple[NeighborhoodSpec, ...]) -> list[tuple]:
        """The (span, index, segment) gathers of a cell round over the specs,
        one per rank, built on first use."""
        gathers = self._gathers.get(specs)
        if gathers is None:
            gathers = [(self.rank_span(r), *gather) for r, gather in enumerate(self._build(specs))]
            self._gathers[specs] = gathers
        return gathers

    def _degree_round(self, specs: tuple[NeighborhoodSpec, ...]) -> bool:
        """A cell round on colors uniform on every rank, from degrees alone.

        Every neighbor of a spec holds its target rank's one color c_t, so
        the gathered row of a cell of degree d under the spec at position p
        with joint width w is w - d pads, key p * base + 1, then d keys
        p * base + c_t + 2, already sorted: the keys, dtype and width that
        :meth:`update` writes from the gathers."""
        base, m = self.classes + 1, len(self.ccs)
        ranks = [(self.rank_span(r), nbs) for r, nbs in enumerate(self._neighborhoods(specs)) if nbs]
        positions = [np.array([p for p, _, _ in nbs]) for _, nbs in ranks]
        degrees = []  # per rank: (cells, specs), the cells complex by complex
        for _, nbs in ranks:
            ptrs = [csrs[ci][0] for _, _, csrs in nbs for ci in range(m)]
            flat = np.concatenate([p[1:] for p in ptrs]) - np.concatenate([p[:-1] for p in ptrs])
            degrees.append(flat.reshape(len(nbs), -1).T)
        widths = [d.max(axis=0) for d in degrees]  # each spec's joint width
        dtype = key_dtype(row_span(base, positions))  # the gathers' segments hold these positions
        keys = np.zeros((len(self.colors), 1 + max([0] + [int(w.sum()) for w in widths])), dtype=dtype)
        store_keys(keys[:, 0], self.colors)
        for (span, nbs), pos, d, w in zip(ranks, positions, degrees, widths):
            pad = pos * base + 1
            neighbor = pad + 1 + self.colors[[self.starts[t * m] for _, t, _ in nbs]]
            # per cell and spec: w - d pads, then d neighbor keys
            values = np.broadcast_to(np.stack([pad, neighbor], axis=1).astype(dtype), (*d.shape, 2))
            counts = np.stack([w - d, d], axis=2)
            keys[span, 1 : 1 + int(w.sum())] = np.repeat(values.ravel(), counts.ravel()).reshape(len(d), -1)
        return self.recolor(self, keys)

    def _neighborhoods(self, specs: tuple[NeighborhoodSpec, ...]) -> list[list[tuple]]:
        """Per rank, the specs with a neighbor in some complex, as (position,
        target rank, per-complex CSRs), the position counting all of that
        rank's specs; fetched once per specs tuple, shared by the degree
        round and the gather build.  A spec that every complex's cell sizes
        decide empty is skipped unfetched."""
        ranks = self._csrs.get(specs)
        if ranks is None:
            ranks = []
            decided = [cc.size_decided()[0] for cc in self.ccs]
            for r in range(self.ell + 1):
                nbs = []
                for pos, s in enumerate(s for s in specs if s.r1 == r):
                    if all(s in empty for empty in decided):
                        continue
                    csrs = [cc.neighbor_csr(s) for cc in self.ccs]
                    if any(indptr[-1] for indptr, _ in csrs):
                        nbs.append((pos, s.target_rank, csrs))
                ranks.append(nbs)
            self._csrs[specs] = ranks
        return ranks

    def tiled(
        self, copies: int, specs: tuple[NeighborhoodSpec, ...]
    ) -> tuple[CellColors, np.ndarray, np.ndarray]:
        """From a state over two complexes (a, b): a state over [a, b, ..., b]
        with copies of b, holding the gathers of a cell round over the specs,
        tiled from this state's own by index arithmetic, so the batch builds
        no neighborhood; and the map of positions, position p of this state
        lying at offset[p] + j * stride[p] in the batch state (in copy j of b
        for b's cells; a's cells have stride 0).  Colors are left initial."""
        a, b = self.ccs
        batch = type(self)([a] + [b] * copies)
        n = len(self.colors)
        # the appended entry maps the -1 pad of a gather to the batch's pad
        offset = np.full(n + 1, -1, dtype=np.int64)
        stride = np.zeros(n + 1, dtype=np.int64)
        for r in range(self.ell + 1):
            for ci in (0, 1):
                own = batch.span(ci, r)
                offset[self.span(ci, r)] = np.arange(own.start, own.stop)
            stride[self.span(1, r)] = own.stop - own.start  # copy 0 of b
        dtype = index_dtype(len(batch.colors) + 1)
        gathers = []
        for r, (_, index, segment) in enumerate(self.cell_gathers(specs)):
            own = self.span(0, r)  # the rank's rows: a's, then b's
            na = own.stop - own.start
            tail = index[na:]
            copied = offset[tail] + np.arange(copies)[:, None, None] * stride[tail]
            # explicit sizes: a rank without cells or neighbors has size 0
            copied = copied.reshape(copies * len(tail), index.shape[1])
            rows = np.concatenate([offset[index[:na]], copied]).astype(dtype)
            gathers.append((batch.rank_span(r), rows, segment))
        batch._gathers[specs] = gathers
        return batch, offset[:n], stride[:n]

    def _build(self, specs: tuple[NeighborhoodSpec, ...]) -> list:
        """Per rank: the gather matrix over all complexes and each column's
        spec, as the spec's position among that rank's specs.  A spec without
        a neighbor in any complex adds no column.  Positions are kept, not
        renumbered, so two complexes refined apart whose empty specs differ
        never build equal rows from different neighborhoods."""
        m = len(self.ccs)
        dtype = index_dtype(len(self.colors) + 1)  # the gathers read colors and a pad
        out = []
        for r, nbs in enumerate(self._neighborhoods(specs)):
            n = len(self.colors[self.rank_span(r)])
            mats, segment = [np.empty((n, 0), dtype=dtype)], []
            for pos, target, csrs in nbs:
                shifts = [self.starts[target * m + ci] for ci in range(m)]
                mats.append(np.vstack(padded_gather(csrs, shifts)).astype(dtype))
                segment += [pos] * mats[-1].shape[1]
            out.append((np.hstack(mats), np.array(segment, dtype=np.int64)))
        return out

    def view(self, ci: int, top: int) -> tuple:
        """Rank histograms 0..top plus live pair histograms of one complex."""
        ranks = tuple(_hist(self.colors[self.span(ci, r)]) for r in range(top + 1))
        return ranks, tuple(_hist(ps.matrices()[ci]) for ps in self.pair_states)

    def snapshot(self) -> list[tuple]:
        """Comparable view per complex."""
        return [self.view(ci, self.ell) for ci in range(len(self.ccs))]

    def agree(self) -> bool:
        """Whether two complexes' snapshots are equal, from class sizes alone:
        every color stays inside one rank, so equal counts per color are equal
        rank histograms, and likewise for every live pair coloring."""
        counts = self.class_counts()
        if not np.array_equal(counts[0], counts[1]):
            return False
        return all(
            np.array_equal(*(np.bincount(m.ravel(), minlength=ps.classes) for m in ps.matrices()))
            for ps in self.pair_states
        )

    def compact(self) -> None:
        """Shrink a paused run: forget the neighborhood and gather caches
        (the next round rebuilds what it needs) and hold pair colors in the
        smallest integer type that fits them (rounds widen them again)."""
        self._csrs.clear()
        self._gathers.clear()
        for ps in self.pair_states:
            ps.colors = ps.colors.astype(np.min_scalar_type(max(ps.classes - 1, 0)), copy=False)

    # -- pair refinement --------------------------------------------------------

    def seed_pairs(self, block: SclBlock) -> _PairState:
        """Seed a pair coloring: the row of (x, y) is x's color, y's color and
        the marking of (x, y) (at least -1)."""
        r1, r2 = block.r1, block.r2
        marks = [_marking_matrix(cc, r1, r2, block.marking) for cc in self.ccs]
        span = max([self.classes] + [int(m.max(initial=0)) + 1 for m in marks])
        sizes = [m.size for m in marks]
        keys = np.zeros((sum(sizes), 3), dtype=key_dtype(span))
        for ci, (mark, start) in enumerate(zip(marks, accumulate(sizes, initial=0))):
            rows = keys[start : start + mark.size].reshape(*mark.shape, 3)
            columns = (self.colors[self.span(ci, r1), None], self.colors[self.span(ci, r2)], mark)
            for col, values in enumerate(columns):
                store_keys(rows[..., col], values)
        state = _PairState(r1, r2, [m.shape for m in marks], np.empty(0, dtype=np.int64), 0)
        self.recolor(state, keys)
        self.pair_states.append(state)
        return state

    def scl_round(self, state: _PairState) -> bool:
        """One pair-space update: a cell round whose cells are the pairs.  The
        gathers are built on the first round, as many runs end at the seed."""
        key = state.r1, state.r2
        gathers = self._gathers.get(key)
        if gathers is None:
            gathers = self._gathers[key] = [(slice(None), *_build_gathers(self.ccs, *key))]
        return self.update(state, gathers)

    def pool(self) -> None:
        """Fold the latest pair coloring into the cell colors of its two ranks."""
        if not self.pair_states:
            raise PoolWithoutScl("pool stage with no preceding pair block")
        state = self.pair_states[-1]
        r1, r2 = state.r1, state.r2
        # a rank-r1 row holds its cell's color and the multiset of its row of
        # pair colors, a rank-r2 row the multiset of its column, after the row
        # multiset when r1 = r2; other rows hold the color alone
        width = 1 + max(sum(shape) if r1 == r2 else max(shape) for shape in state.shapes)
        span = max(self.classes, state.classes)
        keys = np.zeros((len(self.colors), width), dtype=key_dtype(span))
        store_keys(keys[:, 0], self.colors)
        for ci, C in enumerate(state.matrices()):
            n1, n2 = C.shape
            col = 1 + n2 if r1 == r2 else 1
            rows, columns = keys[self.span(ci, r1), 1 : 1 + n2], keys[self.span(ci, r2), col : col + n1]
            for multisets, part in ((rows, C), (columns, C.T)):
                store_keys(multisets, part)
                multisets.sort(axis=1)
        self.recolor(self, keys)


def _marking_matrix(cc: CombinatorialComplex, r1: int, r2: int, marking: str) -> np.ndarray:
    n1, n2 = cc.skeleton_size(r1), cc.skeleton_size(r2)
    if marking == "binary":
        indptr, sups = cc.neighbor_csr(incidence_up(r1, r2))
        mark = np.zeros((n1, n2), dtype=np.int64)
        mark[row_ids(indptr), sups] = 1
        return mark
    if marking == "distance":
        if r1 != 0:
            raise MarkingUnsupported(
                f"distance marking needs r1 = 0 (a node metric), got r1 = {r1}"
            )
        if n2 == 0:
            return np.zeros((n1, 0), dtype=np.int64)
        # distance from each node to the nearest vertex of each r2-cell
        blocks = distance_blocks(cc.neighbor_csr(adjacency(0, 1)))
        return np.concatenate([nearest_face_distances(d, cc.skeleton_arrays(r2)) for d in blocks])
    raise MarkingUnsupported(f"unknown marking {marking!r}")


def _build_gathers(ccs, r1: int, r2: int):
    """The flat ids of the pairs each pair (x, y) reads, as one (pairs, W)
    matrix over the flat pair colors of all complexes (see
    :class:`_PairState`), and each column's position in ``sides``; widths are
    joint across complexes.  A missing neighbor is -1, which reads the pad
    after the last pair, as in a cell round's gathers."""
    ell = max(cc.dimension for cc in ccs)
    # (spec, keyed by x, swaps x): (x', y) for x' adjacent or co-adjacent to x,
    # (x, y') likewise for y, (x, y') for y' containing x, (x', y) for x' inside y
    sides = [(f(r1, r), True, True) for r in range(ell + 1) for f in (adjacency, co_adjacency)]
    sides += [(f(r2, r), False, False) for r in range(ell + 1) for f in (adjacency, co_adjacency)]
    sides += [(incidence_up(r1, r2), True, False), (incidence_down(r2, r1), False, True)]
    per_side = [padded_gather([cc.neighbor_csr(spec) for cc in ccs]) for spec, _, _ in sides]
    widths = [mats[0].shape[1] for mats in per_side]
    segment = np.repeat(np.arange(len(sides)), widths)
    sizes = [cc.skeleton_size(r1) * cc.skeleton_size(r2) for cc in ccs]
    dtype = index_dtype(sum(sizes) + 1)  # the gathers read the pair colors and a pad
    index = np.empty((sum(sizes), len(segment)), dtype=dtype)
    columns = list(accumulate(widths, initial=0))
    for ci, (cc, start) in enumerate(zip(ccs, accumulate(sizes, initial=0))):
        n1, n2 = cc.skeleton_size(r1), cc.skeleton_size(r2)
        block = index[start : start + n1 * n2].reshape(n1, n2, len(segment))
        x, y = np.arange(n1, dtype=dtype)[:, None, None], np.arange(n2, dtype=dtype)[None, :, None]
        for (_, by_x, swap_x), mats, lo, hi in zip(sides, per_side, columns, columns[1:]):
            nb = mats[ci].astype(dtype)
            nb = nb[:, None, :] if by_x else nb[None, :, :]
            row, col = (nb, y) if swap_x else (x, nb)
            # a pair's id is start + x * n2 + y; a missing neighbor reads the pad
            np.add(row * n2 + start, col, out=block[..., lo:hi])
            np.copyto(block[..., lo:hi], -1, where=nb < 0)
    return index, segment


def _validate_stages(ccs, stages: Sequence[Stage]) -> None:
    ell = max(cc.dimension for cc in ccs)
    for st in stages:
        if isinstance(st, HompBlock):
            if st.specs is not None:
                for s in st.specs:
                    if not (0 <= s.r1 <= ell and 0 <= s.r2 <= ell):
                        raise RankOutOfRange(f"spec {s} beyond dimension {ell}")
        elif isinstance(st, SclBlock):
            if not 0 <= st.r1 <= st.r2:
                raise RankOutOfRange(
                    f"pair block needs 0 <= r1 <= r2, got ({st.r1},{st.r2})"
                )
            for cc in ccs:
                if st.r2 > cc.dimension:
                    raise RankOutOfRange(
                        f"pair block ({st.r1},{st.r2}) beyond dimension {cc.dimension}"
                    )
        else:
            continue
        if st.rounds is not None and st.rounds < 1:
            raise RankOutOfRange("block rounds must be >= 1 or None")


@lru_cache(maxsize=None)
def _natural_specs(ell: int) -> tuple[NeighborhoodSpec, ...]:
    """The natural specs of a dimension, memoized: listing them anew at every
    stage was measurably slower than this one lookup."""
    return tuple(natural_specs(ell))


def _updates(state: CellColors, stage: Stage) -> Iterator[None]:
    """Run one stage on state, pausing after every update (cell round, pair
    seeding, pair round, pooling).

    A block with ``rounds=None`` stops after the first round that leaves its
    partition unchanged.  Each other round splits a class, so a block needs
    at most one round more than it has cells, or pairs for a pair block; one
    that outruns that bound is a kernel fault.
    """
    if isinstance(stage, PoolStage):
        state.pool()
        yield
        return
    if isinstance(stage, SclBlock):
        pair = state.seed_pairs(stage)
        yield
        step = partial(state.scl_round, pair)
        bound = len(pair.colors)
        fault = "pair refinement exceeded the pair-space bound"
    else:
        specs = stage.specs if stage.specs is not None else _natural_specs(state.ell)
        step = partial(state.cell_round, specs)
        bound = len(state.colors)
        fault = "refinement exceeded the cell-count bound"
    for _ in range(stage.rounds or bound + 1):
        changed = step()
        yield
        if stage.rounds is None and not changed:
            return
    if stage.rounds is None:
        raise AssertionError(fault)


def run_diagram(
    ccs: Sequence[CombinatorialComplex],
    stages: Sequence[Stage],
) -> Iterator[tuple[int, Callable[[], list[tuple]], CellColors]]:
    """Execute stages jointly, yielding (round, snapshot, state).

    Round 0 is the initial uniform coloring; every update advances the
    counter by one.  The middle element is the bound method
    ``state.snapshot``, not its value: building the comparable views costs
    one histogram per rank and pair block, and most consumers never read
    them (:meth:`CellColors.agree` compares the same thing from class sizes).
    """
    _validate_stages(ccs, stages)
    state = CellColors(ccs)
    yield 0, state.snapshot, state
    updates = chain.from_iterable(_updates(state, st) for st in stages)
    for tick, _ in enumerate(updates, 1):
        yield tick, state.snapshot, state


def _final_state(ccs, stages) -> CellColors:
    *_, (_, _, state) = run_diagram(ccs, stages)
    return state


def _fingerprints_of(state: CellColors) -> list[Fingerprint]:
    return [Fingerprint(cc.skeleton_sizes(), *state.view(ci, cc.dimension)) for ci, cc in enumerate(state.ccs)]


def homp_refine(
    ccs: Sequence[CombinatorialComplex],
    config: Sequence[Stage] | HompBlock | None = None,
) -> list[tuple[Coloring, Fingerprint]]:
    """Jointly refine cell colors; default config is all natural neighborhoods
    iterated to stability."""
    if config is None:
        stages: Sequence[Stage] = (HompBlock(None, None),)
    elif isinstance(config, HompBlock):
        stages = (config,)
    else:
        stages = tuple(config)
        if not all(isinstance(s, HompBlock) for s in stages):
            raise RankOutOfRange("homp_refine accepts cell-refinement blocks only")
    state = _final_state(ccs, stages)
    prints = _fingerprints_of(state)
    results = []
    for ci, cc in enumerate(state.ccs):
        coloring = Coloring(
            tuple(
                tuple(state.colors[state.span(ci, r)].tolist())
                for r in range(cc.dimension + 1)
            )
        )
        results.append((coloring, prints[ci]))
    return results


def scl_refine(
    cc: CombinatorialComplex,
    r1: int,
    r2: int,
    marking: str = "distance",
    rounds: int | None = None,
) -> PairColoring:
    """Pair-space refinement of a single complex, seeded from rank colors."""
    state = _final_state([cc], (SclBlock(r1, r2, marking, rounds),))
    mat = state.pair_states[-1].matrices()[0]
    return PairColoring(r1, r2, tuple(tuple(row) for row in mat.tolist()))


def smcn_refine(
    ccs: Sequence[CombinatorialComplex],
    diagram: Sequence[Stage] | None = None,
) -> list[Fingerprint]:
    """Run a staged diagram jointly and return the final fingerprints."""
    stages = tuple(diagram) if diagram is not None else default_smcn_diagram()
    return _fingerprints_of(_final_state(ccs, stages))


@dataclass(frozen=True)
class Verdict:
    distinguished: bool
    round: int | None = None
    engine: str = ""

    def __str__(self) -> str:
        if self.distinguished:
            return f"distinguished (engine {self.engine}, round {self.round})"
        if self.engine == "oracle:unknown":  # the budget ran out: neither verdict holds
            return f"unknown (engine {self.engine})"
        return f"indistinguishable (engine {self.engine})"


@dataclass(frozen=True)
class Engine:
    """Distinguishability engine name plus its stages (None for the oracle).
    Any stage sequence is held as a tuple, so every engine's stages hash."""

    name: str
    stages: tuple[Stage, ...] | None

    def __post_init__(self) -> None:
        if self.stages is not None:
            object.__setattr__(self, "stages", tuple(self.stages))

    @staticmethod
    def homp_full() -> "Engine":
        return Engine("homp", (HompBlock(None, None),))

    @staticmethod
    def scl(r1: int, r2: int, marking: str = "distance") -> "Engine":
        return Engine(
            f"scl:{r1},{r2},{'dist' if marking == 'distance' else 'bin'}",
            (SclBlock(r1, r2, marking, None), PoolStage()),
        )

    @staticmethod
    def smcn(stages: Sequence[Stage] | None = None) -> "Engine":
        return Engine(
            "smcn:default" if stages is None else "smcn:custom",
            stages if stages is not None else default_smcn_diagram(),
        )

    @staticmethod
    def oracle() -> "Engine":
        return Engine("oracle", None)


def distinguish(
    a: CombinatorialComplex,
    b: CombinatorialComplex,
    engine: Engine,
) -> Verdict:
    """Compare two complexes; report the earliest separating round.

    For refinement engines, "indistinguishable" certifies only the engine's
    power; the oracle decides exact isomorphism.  A complex compared under the
    same stages for the second time gets a trace (:class:`_Trace`), so each
    complex is refined once however many partners it meets; first comparisons
    and pairs of unequal dimension run the two complexes jointly.
    """
    if engine.stages is None:
        from .iso import cc_isomorphic

        res = cc_isomorphic(a, b)
        if res.isomorphic is None:
            return Verdict(distinguished=False, round=None, engine="oracle:unknown")
        return Verdict(distinguished=not res.isomorphic, round=None, engine="oracle")
    stages = engine.stages
    _validate_stages([a, b], stages)
    traces = _admitted_traces(a, b, stages)
    if traces is not None:
        return _compare_traces(a, b, stages, traces, engine.name)
    for tick, _, state in run_diagram([a, b], stages):
        if not state.agree():
            return Verdict(distinguished=True, round=tick, engine=engine.name)
    return Verdict(distinguished=False, round=None, engine=engine.name)


class _Trace:
    """One complex's run of one diagram, advanced tick by tick on demand.

    ``tables[t]`` describes tick t: the skeleton sizes at tick 0, then the
    table of the rows the tick's update numbered (the cells, or the live pair
    block): the distinct rows in id order and their counts.  Run alone,
    a complex's ids are canonical (:func:`number_keys`), so while two
    complexes' tables agree their ids name the same rows and their next rows
    are the same function of them.  Their tables at a tick then agree exactly
    when the updated rows agree as multisets, which is when the snapshots of
    their joint run agree; a larger neighborhood in one complex already
    widens its rows.  Stopping rules (``rounds=None``) count classes, which
    the tables fix, so both runs end at the same tick as long as they agree.
    """

    __slots__ = ("tables", "_run", "_state")

    def __init__(self, cc: CombinatorialComplex, stages: tuple[Stage, ...]):
        # through the module attribute, so a wrapped run_diagram sees the run
        self._run = run_diagram([cc], stages)
        self._state = next(self._run)[2]
        self._state.tabulate = True
        self.tables: list[tuple] = [cc.skeleton_sizes()]

    def table(self, tick: int) -> tuple | None:
        """The table of a tick; None once the diagram has ended before it."""
        while len(self.tables) <= tick and self._run is not None:
            step = next(self._run, None)
            if step is None:
                self._run = self._state = None  # the diagram ended: release its state
            else:
                self.tables.append(step[2].table)
        return self.tables[tick] if tick < len(self.tables) else None

    def suspend(self) -> None:
        """Between comparisons, keep the colors in compact form: most traces
        are never advanced again."""
        if self._state is not None:
            self._state.compact()


def _admitted_traces(a, b, stages) -> tuple[_Trace, _Trace] | None:
    """Both complexes' traces of the stages, once either complex has been
    compared under them before and the dimensions agree; otherwise None, and
    both complexes are marked as compared.  A complex compared once (every
    pair of a one-to-one workload) thus never pays for a trace.  Stages are
    tuples of hashable values, so every engine's runs can be traced."""
    seen = stages in a._traces or stages in b._traces
    if not seen or a.dimension != b.dimension:
        a._traces.setdefault(stages, None)
        b._traces.setdefault(stages, None)
        return None
    for cc in (a, b):
        if cc._traces.get(stages) is None:
            cc._traces[stages] = _Trace(cc, stages)
    return a._traces[stages], b._traces[stages]


def _compare_traces(a, b, stages, traces: tuple[_Trace, _Trace], name: str) -> Verdict:
    """The verdict of the joint run, from the first tick whose tables differ."""
    ta, tb = traces
    try:
        tick = 0
        while (x := ta.table(tick)) == (y := tb.table(tick)) and x is not None:
            tick += 1
    except BaseException:
        # a run that raised is finished: drop both, so the next call raises again
        a._traces.pop(stages, None)
        b._traces.pop(stages, None)
        raise
    ta.suspend()
    tb.suspend()
    if x == y:  # both diagrams ended
        return Verdict(distinguished=False, round=None, engine=name)
    return Verdict(distinguished=True, round=tick, engine=name)
